//! ZFP-style transform-based lossy compressor.
//!
//! A from-scratch Rust reproduction of the cuZFP compressor evaluated in
//! *Understanding GPU-Based Lossy Compression for Extreme-Scale Cosmological
//! Simulations* (Jin et al., 2020). The algorithm follows Lindstrom's ZFP:
//! the array is cut into `4^d` blocks; each block is scaled to a common
//! exponent, decorrelated with a reversible integer lifting transform,
//! reordered by total sequency, mapped to negabinary, and emitted as
//! MSB-first bit planes with unary group testing.
//!
//! [`ZfpMode::FixedRate`] spends exactly `rate` bits per value — the only
//! mode the paper's cuZFP supported, and the one all cuZFP experiments use.
//! Fixed-precision and fixed-accuracy modes are provided for parity with
//! the CPU library.
//!
//! # Example
//!
//! ```
//! use lossy_zfp::{compress, decompress, Dims, ZfpConfig};
//!
//! let data: Vec<f32> = (0..64 * 64).map(|i| (i as f32 * 0.02).sin()).collect();
//! let stream = compress(&data, Dims::D2(64, 64), &ZfpConfig::rate(8.0)).unwrap();
//! let (recon, dims) = decompress(&stream).unwrap();
//! assert_eq!(dims, Dims::D2(64, 64));
//! assert_eq!(recon.len(), data.len());
//! ```

#![forbid(unsafe_code)]

pub mod codec;
pub mod config;
pub mod gpu_exec;
pub mod lift;
pub mod stream;

pub use config::{Dims, ZfpConfig, ZfpMode};
pub use stream::{compress, decompress, decompress_layers, info, StreamInfo, MAGIC};

//! SZ-style prediction-based error-bounded lossy compressor.
//!
//! A from-scratch Rust reproduction of the GPU-SZ compressor evaluated in
//! *Understanding GPU-Based Lossy Compression for Extreme-Scale Cosmological
//! Simulations* (Jin et al., 2020). The pipeline follows SZ 2.x:
//!
//! 1. **Error-controlled prequantization** — the array is cut into
//!    independent blocks (GPU-style parallel decomposition) and every
//!    value is rounded to an integer lattice of spacing twice the user's
//!    error bound, so reconstruction differs from the input by at most
//!    that bound before any prediction happens (cuSZ's dual quantization).
//! 2. **Blocked prediction on the lattice** — within a block each lattice
//!    value is predicted by either a first-order Lorenzo stencil over its
//!    neighbors' lattice values or a per-block linear regression plane,
//!    chosen adaptively; the integer residual is the code. Values that
//!    don't fit the lattice or the code range (or are non-finite) are
//!    stored verbatim as outliers.
//! 3. **Entropy coding** — a global canonical Huffman code over all
//!    quantization integers, optionally followed by an LZSS pass standing
//!    in for SZ's Zstd stage.
//!
//! Error-bound modes: absolute ([`ErrorBound::Abs`]), value-range relative
//! ([`ErrorBound::Rel`]), and point-wise relative ([`ErrorBound::PwRel`],
//! realized with the logarithmic transform of Liang et al., exactly as the
//! paper does for HACC velocity fields).
//!
//! # Example
//!
//! ```
//! use lossy_sz::{compress, decompress, Dims, SzConfig};
//!
//! let data: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.01).sin()).collect();
//! let stream = compress(&data, Dims::D1(4096), &SzConfig::abs(1e-3)).unwrap();
//! let (recon, dims) = decompress(&stream).unwrap();
//! assert_eq!(dims, Dims::D1(4096));
//! assert!(data.iter().zip(&recon).all(|(a, b)| (a - b).abs() <= 1e-3));
//! ```

// `deny` rather than `forbid`: the parallel block-scatter paths carry two
// item-level `#[allow(unsafe_code)]` pointer wrappers whose disjointness
// claim the gpu-sim racecheck validates mechanically (see `gpu_exec`).
#![deny(unsafe_code)]

pub mod block;
pub mod config;
pub mod gpu_exec;
mod gpu_kernel;
pub mod huffman;
pub mod lossless;
pub mod pwrel;
pub mod stream;
pub mod temporal;

pub use config::{Dims, EntropyBackend, ErrorBound, PredictorKind, SzConfig};
pub use stream::{compress, decompress, info, StreamInfo, MAGIC};
pub use temporal::{compress_temporal, decompress_temporal};

/// Compression ratio of `stream` relative to `n_values` single-precision
/// inputs.
pub fn compression_ratio(n_values: usize, stream_len: usize) -> f64 {
    if stream_len == 0 {
        return f64::INFINITY;
    }
    (n_values * 4) as f64 / stream_len as f64
}

/// Bitrate (bits per value) of `stream` for `n_values` inputs.
pub fn bitrate(n_values: usize, stream_len: usize) -> f64 {
    if n_values == 0 {
        return 0.0;
    }
    (stream_len * 8) as f64 / n_values as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_and_bitrate_are_consistent() {
        // 32-bit inputs: ratio r <-> bitrate 32/r.
        let r = compression_ratio(1000, 500);
        let b = bitrate(1000, 500);
        assert!((r - 8.0).abs() < 1e-12);
        assert!((b - 4.0).abs() < 1e-12);
        assert!((32.0 / r - b).abs() < 1e-12);
    }

    #[test]
    fn degenerate_ratio_inputs() {
        assert!(compression_ratio(10, 0).is_infinite());
        assert_eq!(bitrate(0, 100), 0.0);
    }
}

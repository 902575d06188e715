//! Cosmology post-analysis for compression evaluation.
//!
//! Implements the paper's four metric families on the analysis side:
//! general distortion ([`metrics`]: PSNR/MSE/MRE/NRMSE and rate-distortion
//! points), the matter power spectrum and pk ratio ([`powerspec`]), and the
//! Friends-of-Friends dark-matter halo finder with halo-count ratios
//! ([`fof`]); [`acceptance`] is the paper's one rule over the last two.
//! Throughput (Metric 4) lives in `gpu-sim`
//! and the CBench driver. Extensions: the two-point correlation function
//! ([`correlation`]), error-distribution shape analysis ([`errordist`]),
//! and SSIM for non-cosmology domains ([`ssim`]).
//!
//! # Example
//!
//! ```
//! use cosmo_analysis::distortion;
//!
//! let orig = vec![1.0f32, 2.0, 3.0, 4.0];
//! let recon = vec![1.01f32, 1.99, 3.01, 3.99];
//! let d = distortion(&orig, &recon);
//! assert!(d.max_abs_err <= 0.0100001);
//! assert!(d.psnr > 40.0);
//! ```

#![forbid(unsafe_code)]

pub mod acceptance;
pub mod correlation;
pub mod errordist;
pub mod fof;
pub mod metrics;
pub mod powerspec;
pub mod ssim;

pub use correlation::{correlation_function, correlation_function_f32, XiBin};
pub use errordist::{error_distribution, ErrorDistribution};
pub use fof::{friends_of_friends, halo_count_ratio, linking_length_for, mass_function, Halo, HaloCatalog};
pub use metrics::{distortion, Distortion, RateDistortionPoint};
pub use ssim::{ssim2d, ssim_mid_slice, SsimOptions};
pub use powerspec::{deposit_particles, pk_ratio, power_spectrum, power_spectrum_f32, PkBin};

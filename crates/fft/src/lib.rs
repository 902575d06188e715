//! Fast Fourier transforms for the cosmology substrate.
//!
//! Two consumers drive the requirements: the particle-mesh gravity solver in
//! `nbody-sim` (forward + inverse 3-D transforms of real fields) and the
//! matter power spectrum analysis in `cosmo-analysis` (forward 3-D transform
//! plus wavenumber bookkeeping). Both operate on power-of-two periodic
//! grids, so an iterative radix-2 Cooley–Tukey transform is sufficient and
//! keeps the crate dependency-free.
//!
//! The 3-D transform applies the 1-D transform along x, y, then z lines and
//! parallelizes over lines with rayon.

// `deny` rather than `forbid`: [`fft3d`] opts back in for one audited
// raw-pointer scatter over disjoint strided grid lines (see the SAFETY
// comments there). Everything else in the crate is safe code.
#![deny(unsafe_code)]

pub mod complex;
pub mod fft1d;
pub mod fft3d;
pub mod grid;

pub use complex::Complex;
pub use fft1d::{fft_in_place, Direction, Fft};
pub use fft3d::{fft3_forward, fft3_inverse, fft3_inverse_real, fft3_inverse_real_in_place};
pub use grid::Grid3;

//! 3-D transforms built from 1-D line transforms.
//!
//! Lines along x are contiguous and transform via `par_chunks_mut`. Lines
//! along y and z are strided; they are copied out in batches of adjacent
//! lines (adjacent in x, so every fetched cache line is used whole),
//! transformed side by side, and copied back in parallel through a raw
//! pointer wrapper — distinct batches never alias, which makes the unsafe
//! parallel scatter sound (see the SAFETY comments).

// The crate denies unsafe_code; this module is the audited exception
// (disjoint strided-line scatter that safe chunking cannot express).
#![allow(unsafe_code)]

use crate::complex::Complex;
use crate::fft1d::{Direction, Fft};
use crate::grid::Grid3;
use foresight_util::parallel::par_ranges_mut;
use foresight_util::{Error, Result};
use rayon::prelude::*;

/// Lines per batch on the strided axes: 8 complex values are two 64-byte
/// cache lines.
const BATCH: usize = 8;

/// Pointer wrapper that lets rayon workers write disjoint strided lines.
#[derive(Clone, Copy)]
struct SendPtr(*mut Complex);
// SAFETY: every parallel task derived from a `SendPtr` touches a disjoint
// set of indices (one batch of grid lines), so concurrent access never
// aliases.
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

/// Transforms every line along one axis.
fn transform_axis(data: &mut [Complex], grid: Grid3, axis: usize, dir: Direction) -> Result<()> {
    // (line length, stride between its elements, where each line at x = 0
    // starts)
    let (n, stride, x0_starts) = match axis {
        0 => {
            // Contiguous: handled with safe chunking.
            let plan = Fft::new(grid.nx)?;
            data.par_chunks_mut(grid.nx * grid.ny).for_each(|plane| {
                for line in plane.chunks_exact_mut(grid.nx) {
                    plan.process_rows::<1>(line, dir);
                }
            });
            return Ok(());
        }
        1 => (grid.ny, grid.nx, (0..grid.nz).map(|z| grid.index(0, 0, z)).collect::<Vec<_>>()),
        2 => (grid.nz, grid.nx * grid.ny, (0..grid.ny).map(|y| grid.index(0, y, 0)).collect()),
        _ => return Err(Error::invalid("axis must be 0, 1, or 2")),
    };
    let plan = Fft::new(n)?;
    // Every batch start: `BATCH` lines at adjacent x (or one line when the
    // grid is narrower than a batch).
    let width = if grid.nx.is_multiple_of(BATCH) { BATCH } else { 1 };
    let starts: Vec<usize> =
        x0_starts.iter().flat_map(|&s| (0..grid.nx).step_by(width).map(move |x| s + x)).collect();
    let ptr = SendPtr(data.as_mut_ptr());
    let per_worker = starts.len().div_ceil(rayon::current_num_threads()).max(1);
    starts.par_chunks(per_worker).for_each(|starts| {
        let mut scratch = vec![Complex::ZERO; n * width];
        for &start in starts {
            // SAFETY: each batch start appears once in `starts`, and a batch
            // touches only `x` in `start..start + width` of its one row, so
            // no two tasks touch the same cell. `width` divides `nx`, so the
            // batch stays inside its row; the axis has `n` cells `stride`
            // apart, and `data` holds the whole grid (`check` ran first).
            unsafe {
                if width == BATCH {
                    strided_batch::<BATCH>(ptr, start, stride, &mut scratch, &plan, dir);
                } else {
                    strided_batch::<1>(ptr, start, stride, &mut scratch, &plan, dir);
                }
            }
        }
    });
    Ok(())
}

/// Copies the `W` lines at `start..start + W` (element `j` at
/// `+ j * stride`) into `scratch`, transforms them, and copies them back.
///
/// # Safety
///
/// For every `j < plan.len()`, the `W` cells from `start + j * stride` must
/// lie inside the allocation behind `ptr`, and no other thread may touch
/// them during the call. `scratch` must hold `W * plan.len()` values.
unsafe fn strided_batch<const W: usize>(
    ptr: SendPtr,
    start: usize,
    stride: usize,
    scratch: &mut [Complex],
    plan: &Fft,
    dir: Direction,
) {
    let p = ptr;
    for (j, row) in scratch.chunks_exact_mut(W).enumerate() {
        // SAFETY: in bounds and unshared, by the caller's contract.
        unsafe { std::ptr::copy_nonoverlapping(p.0.add(start + j * stride), row.as_mut_ptr(), W) };
    }
    plan.process_rows::<W>(scratch, dir);
    for (j, row) in scratch.chunks_exact(W).enumerate() {
        // SAFETY: as above.
        unsafe { std::ptr::copy_nonoverlapping(row.as_ptr(), p.0.add(start + j * stride), W) };
    }
}

/// Validates that `grid` matches `len` and is FFT-compatible.
fn check(grid: Grid3, len: usize) -> Result<()> {
    if grid.len() != len {
        return Err(Error::invalid(format!(
            "grid {grid:?} has {} cells but buffer holds {len}",
            grid.len()
        )));
    }
    if !grid.is_pow2() {
        return Err(Error::invalid(format!("grid {grid:?} extents must be powers of two")));
    }
    Ok(())
}

/// Forward 3-D FFT of a real field; returns the full complex cube.
pub fn fft3_forward(field: &[f64], grid: Grid3) -> Result<Vec<Complex>> {
    check(grid, field.len())?;
    let mut data: Vec<Complex> = field.iter().map(|&v| Complex::real(v)).collect();
    fft3_in_place(&mut data, grid, Direction::Forward)?;
    Ok(data)
}

/// In-place 3-D FFT of a complex cube.
pub fn fft3_in_place(data: &mut [Complex], grid: Grid3, dir: Direction) -> Result<()> {
    check(grid, data.len())?;
    transform_axis(data, grid, 0, dir)?;
    transform_axis(data, grid, 1, dir)?;
    transform_axis(data, grid, 2, dir)?;
    Ok(())
}

/// Inverse 3-D FFT returning the complex cube.
pub fn fft3_inverse(spectrum: &[Complex], grid: Grid3) -> Result<Vec<Complex>> {
    check(grid, spectrum.len())?;
    let mut data = spectrum.to_vec();
    fft3_in_place(&mut data, grid, Direction::Inverse)?;
    Ok(data)
}

/// Inverse 3-D FFT of a spectrum known to come from a real field; returns
/// the real parts (imaginary residue is numerical noise).
pub fn fft3_inverse_real(spectrum: &[Complex], grid: Grid3) -> Result<Vec<f64>> {
    fft3_inverse_real_in_place(&mut spectrum.to_vec(), grid)
}

/// [`fft3_inverse_real`] that transforms `data` in place (leaving the
/// complex result there) instead of copying the spectrum first.
pub fn fft3_inverse_real_in_place(data: &mut [Complex], grid: Grid3) -> Result<Vec<f64>> {
    fft3_in_place(data, grid, Direction::Inverse)?;
    let mut out = vec![0.0; data.len()];
    par_ranges_mut([&mut out[..]], 1, |start, [out]| {
        for (v, c) in out.iter_mut().zip(&data[start..]) {
            *v = c.re;
        }
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_real_field() {
        let grid = Grid3::cube(8);
        let field: Vec<f64> = (0..grid.len()).map(|i| ((i * 7919) % 101) as f64 - 50.0).collect();
        let spec = fft3_forward(&field, grid).unwrap();
        let back = fft3_inverse_real(&spec, grid).unwrap();
        for (a, b) in field.iter().zip(&back) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn dc_bin_is_sum() {
        let grid = Grid3::new(4, 8, 2);
        let field: Vec<f64> = (0..grid.len()).map(|i| i as f64).collect();
        let spec = fft3_forward(&field, grid).unwrap();
        let sum: f64 = field.iter().sum();
        assert!((spec[0].re - sum).abs() < 1e-9);
        assert!(spec[0].im.abs() < 1e-9);
    }

    #[test]
    fn plane_wave_lands_in_single_bin() {
        let grid = Grid3::cube(8);
        let mut field = vec![0.0f64; grid.len()];
        // cos wave along y with frequency 2.
        for z in 0..8 {
            for y in 0..8 {
                for x in 0..8 {
                    field[grid.index(x, y, z)] =
                        (2.0 * std::f64::consts::PI * 2.0 * y as f64 / 8.0).cos();
                }
            }
        }
        let spec = fft3_forward(&field, grid).unwrap();
        let expected = grid.len() as f64 / 2.0; // split between +2 and -2 bins
        let hit1 = grid.index(0, 2, 0);
        let hit2 = grid.index(0, 6, 0);
        assert!((spec[hit1].re - expected).abs() < 1e-9);
        assert!((spec[hit2].re - expected).abs() < 1e-9);
        for (i, c) in spec.iter().enumerate() {
            if i != hit1 && i != hit2 {
                assert!(c.abs() < 1e-8, "leakage at {i}: {c:?}");
            }
        }
    }

    #[test]
    fn hermitian_symmetry_for_real_input() {
        let grid = Grid3::cube(4);
        let field: Vec<f64> = (0..grid.len()).map(|i| ((i * 31) % 13) as f64).collect();
        let spec = fft3_forward(&field, grid).unwrap();
        for z in 0..4 {
            for y in 0..4 {
                for x in 0..4 {
                    let a = spec[grid.index(x, y, z)];
                    let b = spec[grid.index((4 - x) % 4, (4 - y) % 4, (4 - z) % 4)];
                    assert!((a.re - b.re).abs() < 1e-9);
                    assert!((a.im + b.im).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn rejects_bad_grid() {
        assert!(fft3_forward(&[0.0; 27], Grid3::cube(3)).is_err());
        assert!(fft3_forward(&[0.0; 10], Grid3::cube(4)).is_err());
    }

    #[test]
    fn parseval_energy_conservation() {
        let grid = Grid3::cube(8);
        let field: Vec<f64> =
            (0..grid.len()).map(|i| ((i as f64 * 0.7).sin() * 3.0) + 0.1).collect();
        let spec = fft3_forward(&field, grid).unwrap();
        let time_energy: f64 = field.iter().map(|v| v * v).sum();
        let freq_energy: f64 =
            spec.iter().map(|c| c.norm_sqr()).sum::<f64>() / grid.len() as f64;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-10);
    }
}

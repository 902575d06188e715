//! Matter power spectrum analysis (paper Metric 3b, Figs. 1d and 5).
//!
//! `P(k)` is estimated by FFT-ing the field, averaging `|delta_k|^2` in
//! spherical shells of `|k|`, and normalizing by the box volume. The
//! quantity the paper plots is the **pk ratio** — the spectrum of the
//! reconstructed field divided by the spectrum of the original. Its 1±1%
//! acceptance band is in [`crate::acceptance`].

use cosmo_fft::{fft3_forward, Grid3};
use foresight_util::{Error, Result};

/// One spherical shell of the estimated spectrum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PkBin {
    /// Mean wavenumber of modes in the shell.
    pub k: f64,
    /// Estimated power.
    pub pk: f64,
    /// Number of Fourier modes averaged.
    pub modes: u64,
}

/// Estimates the power spectrum of a real grid field.
///
/// Returns `nbins` linear shells between the fundamental frequency and the
/// Nyquist frequency of the shortest axis.
pub fn power_spectrum(
    field: &[f64],
    grid: Grid3,
    box_size: f64,
    nbins: usize,
) -> Result<Vec<PkBin>> {
    if nbins == 0 {
        return Err(Error::invalid("nbins must be positive"));
    }
    let spec = fft3_forward(field, grid)?;
    let n = grid.len() as f64;
    let vol = box_size.powi(3);
    let kf = 2.0 * std::f64::consts::PI / box_size;
    let nyq = kf * (grid.nx.min(grid.ny).min(grid.nz) as f64) / 2.0;
    let mut sum_pk = vec![0.0f64; nbins];
    let mut sum_k = vec![0.0f64; nbins];
    let mut counts = vec![0u64; nbins];
    for iz in 0..grid.nz {
        for iy in 0..grid.ny {
            for ix in 0..grid.nx {
                if ix == 0 && iy == 0 && iz == 0 {
                    continue; // DC mode
                }
                let (kx, ky, kz) = grid.wavenumber(ix, iy, iz, box_size);
                let k = (kx * kx + ky * ky + kz * kz).sqrt();
                if k > nyq {
                    continue;
                }
                let bin = (((k - kf) / (nyq - kf) * nbins as f64) as usize).min(nbins - 1);
                let p = spec[grid.index(ix, iy, iz)].norm_sqr() / (n * n) * vol;
                sum_pk[bin] += p;
                sum_k[bin] += k;
                counts[bin] += 1;
            }
        }
    }
    Ok((0..nbins)
        .filter(|&b| counts[b] > 0)
        .map(|b| PkBin {
            k: sum_k[b] / counts[b] as f64,
            pk: sum_pk[b] / counts[b] as f64,
            modes: counts[b],
        })
        .collect())
}

/// Convenience wrapper for `f32` fields (the codec-facing type).
pub fn power_spectrum_f32(
    field: &[f32],
    grid: Grid3,
    box_size: f64,
    nbins: usize,
) -> Result<Vec<PkBin>> {
    let f: Vec<f64> = field.iter().map(|&v| v as f64).collect();
    power_spectrum(&f, grid, box_size, nbins)
}

/// The pk ratio `P_recon(k) / P_orig(k)` per shell (paper Fig. 5).
///
/// Both spectra must come from the same grid/binning. Shells where the
/// original power underflows are reported as ratio 1 (no information).
pub fn pk_ratio(orig: &[PkBin], recon: &[PkBin]) -> Result<Vec<(f64, f64)>> {
    if orig.len() != recon.len() {
        return Err(Error::invalid("spectra have different binnings"));
    }
    Ok(orig
        .iter()
        .zip(recon)
        .map(|(o, r)| (o.k, if o.pk > 0.0 { r.pk / o.pk } else { 1.0 }))
        .collect())
}

/// CIC-deposits particles given as coordinate slices and returns the
/// overdensity field, for particle (HACC-style) power spectra.
pub fn deposit_particles(
    x: &[f32],
    y: &[f32],
    z: &[f32],
    grid: Grid3,
    box_size: f64,
) -> Result<Vec<f64>> {
    if x.len() != y.len() || y.len() != z.len() {
        return Err(Error::invalid("coordinate arrays must have equal length"));
    }
    let mut rho = vec![0.0f64; grid.len()];
    let (nx, ny, nz) = (grid.nx, grid.ny, grid.nz);
    let inv = 1.0 / box_size;
    for i in 0..x.len() {
        let gx = (x[i] as f64 * inv).rem_euclid(1.0) * nx as f64 - 0.5;
        let gy = (y[i] as f64 * inv).rem_euclid(1.0) * ny as f64 - 0.5;
        let gz = (z[i] as f64 * inv).rem_euclid(1.0) * nz as f64 - 0.5;
        let split = |g: f64, n: usize| -> (usize, f64) {
            let fl = g.floor();
            ((fl as i64).rem_euclid(n as i64) as usize, g - fl)
        };
        let (ix, fx) = split(gx, nx);
        let (iy, fy) = split(gy, ny);
        let (iz, fz) = split(gz, nz);
        for (dz, wz) in [(0usize, 1.0 - fz), (1, fz)] {
            for (dy, wy) in [(0usize, 1.0 - fy), (1, fy)] {
                for (dx, wx) in [(0usize, 1.0 - fx), (1, fx)] {
                    rho[grid.index((ix + dx) % nx, (iy + dy) % ny, (iz + dz) % nz)] +=
                        wx * wy * wz;
                }
            }
        }
    }
    let mean = x.len() as f64 / grid.len() as f64;
    if mean > 0.0 {
        for v in rho.iter_mut() {
            *v = *v / mean - 1.0;
        }
    }
    Ok(rho)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn white_noise_is_flat() {
        // Pseudorandom white noise: P(k) should be flat across shells.
        let grid = Grid3::cube(32);
        let mut s = 0x9E3779B97F4A7C15u64;
        let field: Vec<f64> = (0..grid.len())
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect();
        let pk = power_spectrum(&field, grid, 100.0, 8).unwrap();
        let mean: f64 = pk.iter().map(|b| b.pk).sum::<f64>() / pk.len() as f64;
        for b in &pk {
            assert!(
                (b.pk / mean - 1.0).abs() < 0.3,
                "shell k={} deviates: {} vs mean {}",
                b.k,
                b.pk,
                mean
            );
        }
    }

    #[test]
    fn single_mode_lands_in_one_shell() {
        let grid = Grid3::cube(32);
        let box_size = 64.0;
        let mut field = vec![0.0f64; grid.len()];
        // Mode with frequency index 5 along x.
        for iz in 0..32 {
            for iy in 0..32 {
                for ix in 0..32 {
                    field[grid.index(ix, iy, iz)] =
                        (2.0 * std::f64::consts::PI * 5.0 * ix as f64 / 32.0).cos();
                }
            }
        }
        let pk = power_spectrum(&field, grid, box_size, 16).unwrap();
        let kf = 2.0 * std::f64::consts::PI / box_size;
        let target_k = 5.0 * kf;
        let (max_bin, _) = pk
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.pk.partial_cmp(&b.1.pk).unwrap())
            .unwrap();
        assert!(
            (pk[max_bin].k - target_k).abs() < 2.0 * kf,
            "peak at k={} expected near {}",
            pk[max_bin].k,
            target_k
        );
    }

    #[test]
    fn identical_fields_ratio_one() {
        let grid = Grid3::cube(16);
        let field: Vec<f64> = (0..grid.len()).map(|i| ((i * 37) % 101) as f64).collect();
        let a = power_spectrum(&field, grid, 50.0, 8).unwrap();
        let b = power_spectrum(&field, grid, 50.0, 8).unwrap();
        let r = pk_ratio(&a, &b).unwrap();
        assert!(r.iter().all(|&(_, r)| r == 1.0));
    }

    #[test]
    fn white_noise_raises_high_k_ratio() {
        // Adding small white noise perturbs high-k shells relatively more
        // on a red spectrum — the effect behind the paper's Fig. 5 curves.
        let grid = Grid3::cube(32);
        let box_size = 64.0;
        let mut field = vec![0.0f64; grid.len()];
        for iz in 0..32 {
            for iy in 0..32 {
                for ix in 0..32 {
                    // Smooth, large-scale field.
                    field[grid.index(ix, iy, iz)] =
                        (ix as f64 * 0.2).sin() * 10.0 + (iy as f64 * 0.15).cos() * 8.0;
                }
            }
        }
        let mut noisy = field.clone();
        let mut s = 12345u64;
        for v in noisy.iter_mut() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            *v += ((s >> 33) as f64 / (1u64 << 31) as f64 - 0.5) * 0.2;
        }
        let a = power_spectrum(&field, grid, box_size, 8).unwrap();
        let b = power_spectrum(&noisy, grid, box_size, 8).unwrap();
        let r = pk_ratio(&a, &b).unwrap();
        // Last shell deviates more than the first.
        assert!(
            (r.last().unwrap().1 - 1.0).abs() > (r[0].1 - 1.0).abs(),
            "high-k should deviate more: {r:?}"
        );
    }

    #[test]
    fn deposit_conserves_mass_and_detects_clumps() {
        let grid = Grid3::cube(8);
        let x = vec![10.0f32; 100];
        let y = vec![10.0f32; 100];
        let z = vec![10.0f32; 100];
        let rho = deposit_particles(&x, &y, &z, grid, 64.0).unwrap();
        let sum: f64 = rho.iter().sum();
        assert!(sum.abs() < 1e-9);
        let max = rho.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max > 10.0, "clump should be a strong overdensity, max={max}");
    }

    #[test]
    fn ratio_rejects_mismatched_binnings() {
        let a = vec![PkBin { k: 1.0, pk: 1.0, modes: 10 }];
        let b: Vec<PkBin> = vec![];
        assert!(pk_ratio(&a, &b).is_err());
    }
}

//! Initial conditions: Gaussian random density fields and Zel'dovich
//! displacements.
//!
//! Pipeline: draw unit white noise on the grid, FFT, shape by
//! `sqrt(P(k))`, and inverse-FFT to get a Gaussian overdensity field
//! `delta(x)` with the requested spectrum (the real-space-noise route makes
//! Hermitian symmetry automatic). The Zel'dovich approximation then turns
//! the field into particles: displacement `psi(k) = i k / k^2 * delta(k)`
//! moves each particle off its lattice point, and velocities are
//! proportional to the displacement.

use crate::cosmology::Cosmology;
use cosmo_fft::fft3d::fft3_in_place;
use cosmo_fft::{fft3_forward, fft3_inverse_real_in_place, Complex, Direction, Grid3};
use foresight_util::parallel::par_ranges_mut;
use foresight_util::{Error, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// A periodic box of particles (structure-of-arrays, HACC-style).
#[derive(Debug, Clone, Default)]
pub struct Particles {
    /// Positions, each in `[0, box_size)`.
    pub x: Vec<f32>,
    /// Positions, each in `[0, box_size)`.
    pub y: Vec<f32>,
    /// Positions, each in `[0, box_size)`.
    pub z: Vec<f32>,
    /// Velocities (km/s-like code units).
    pub vx: Vec<f32>,
    /// Velocities.
    pub vy: Vec<f32>,
    /// Velocities.
    pub vz: Vec<f32>,
    /// Comoving box side length (Mpc/h-like code units).
    pub box_size: f64,
}

impl Particles {
    /// Number of particles.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True when the box holds no particles.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Wraps every coordinate back into `[0, box_size)`.
    pub fn wrap(&mut self) {
        let l = self.box_size as f32;
        for arr in [&mut self.x, &mut self.y, &mut self.z] {
            for v in arr.iter_mut() {
                *v = wrap_coord(*v, l);
            }
        }
    }
}

/// Wraps one coordinate into `[0, l)`.
#[inline]
pub(crate) fn wrap_coord(v: f32, l: f32) -> f32 {
    let w = v.rem_euclid(l);
    // rem_euclid can return exactly l for tiny negatives.
    if w >= l {
        0.0
    } else {
        w
    }
}

/// Rewrites every Fourier mode of `spec` as `f([kx, ky, kz], mode)`, one
/// z-plane per task; each mode's value depends only on its own inputs.
pub(crate) fn map_modes(
    spec: &mut [Complex],
    grid: Grid3,
    box_size: f64,
    f: impl Fn([f64; 3], Complex) -> Complex + Sync,
) {
    spec.par_chunks_mut(grid.nx * grid.ny).enumerate().for_each(|(iz, plane)| {
        for (iy, row) in plane.chunks_exact_mut(grid.nx).enumerate() {
            for (ix, mode) in row.iter_mut().enumerate() {
                let (kx, ky, kz) = grid.wavenumber(ix, iy, iz, box_size);
                *mode = f([kx, ky, kz], *mode);
            }
        }
    });
}

/// Hands `take(axis, modes)` the three components `f(k, axis, mode)` of a
/// vector field built from `spec`, one at a time: one copy of the spectrum
/// lives beside it, and the last component reuses the spectrum's buffer.
pub(crate) fn vector_components(
    mut spec: Vec<Complex>,
    grid: Grid3,
    box_size: f64,
    f: impl Fn([f64; 3], usize, Complex) -> Complex + Sync,
    mut take: impl FnMut(usize, &mut [Complex]) -> Result<()>,
) -> Result<()> {
    let mut modes = spec.clone();
    for axis in 0..3 {
        match axis {
            0 => {}
            1 => modes.copy_from_slice(&spec),
            _ => modes = std::mem::take(&mut spec),
        }
        map_modes(&mut modes, grid, box_size, |k, mode| f(k, axis, mode));
        take(axis, &mut modes)?;
    }
    Ok(())
}

/// Generates a Gaussian random overdensity field with spectrum `P(k)`.
///
/// Returns `delta(x)` on the grid (mean zero). `box_size` is in the same
/// length units as `1/k` for the cosmology's `power` function.
pub fn gaussian_field(
    cosmo: &Cosmology,
    grid: Grid3,
    box_size: f64,
    seed: u64,
) -> Result<Vec<f64>> {
    if !grid.is_pow2() {
        return Err(Error::invalid("IC grid extents must be powers of two"));
    }
    let n = grid.len();
    let mut rng = StdRng::seed_from_u64(seed);
    // Unit white noise: after FFT each mode has expected |W(k)|^2 = n. The
    // uniform pairs are drawn in stream order (held as re = u1, im = u2);
    // only the Box-Muller transform runs in parallel.
    let mut spec: Vec<Complex> = (0..n)
        .map(|_| {
            let (u1, u2) = uniform_pair(&mut rng);
            Complex::new(u1, u2)
        })
        .collect();
    spec.par_chunks_mut(grid.nx * grid.ny).for_each(|plane| {
        for v in plane {
            *v = Complex::real(box_muller(v.re, v.im));
        }
    });
    fft3_in_place(&mut spec, grid, Direction::Forward)?;
    // Scale each mode by sqrt(P(k)) with the discretization factor
    // sqrt(n / V): then <|delta_k|^2> / n^2 * V = P(k) as analysis expects.
    let vol = box_size.powi(3);
    let norm = (n as f64 / vol).sqrt();
    map_modes(&mut spec, grid, box_size, |[kx, ky, kz], mode| {
        let k = (kx * kx + ky * ky + kz * kz).sqrt();
        mode.scale(cosmo.power(k).sqrt() * norm)
    });
    spec[0] = Complex::ZERO; // zero mean
    fft3_inverse_real_in_place(&mut spec, grid)
}

/// Draws the next `(u1, u2)` uniform pair whose `u1` Box-Muller accepts.
fn uniform_pair(rng: &mut StdRng) -> (f64, f64) {
    loop {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        if u1 > f64::MIN_POSITIVE {
            return (u1, u2);
        }
    }
}

/// Box-Muller standard normal from an accepted uniform pair (keeps `rand`
/// usage version-agnostic).
fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Options for [`zeldovich`].
#[derive(Debug, Clone, Copy)]
pub struct ZeldovichOptions {
    /// Linear growth amplitude applied to displacements (bigger = more
    /// clustering; ~2-4 grid cells of RMS displacement forms rich halos).
    pub growth: f64,
    /// Velocity scale in output units per unit displacement (sets the
    /// HACC-like (-1e4, 1e4) km/s range).
    pub velocity_scale: f64,
}

impl Default for ZeldovichOptions {
    fn default() -> Self {
        Self { growth: 1.0, velocity_scale: 100.0 }
    }
}

/// Builds a particle load by Zel'dovich-displacing a uniform lattice.
///
/// One particle per grid cell; the same `delta` grid can then seed the Nyx
/// field synthesis so both datasets describe the same universe, mirroring
/// the paper's "mutually verifiable" HACC/Nyx setup.
pub fn zeldovich(
    delta: &[f64],
    grid: Grid3,
    box_size: f64,
    opts: ZeldovichOptions,
) -> Result<Particles> {
    if delta.len() != grid.len() {
        return Err(Error::invalid("delta grid does not match dims"));
    }
    let spec = fft3_forward(delta, grid)?;
    let n = grid.len();
    let mut p = Particles {
        x: vec![0.0; n],
        y: vec![0.0; n],
        z: vec![0.0; n],
        vx: vec![0.0; n],
        vy: vec![0.0; n],
        vz: vec![0.0; n],
        box_size,
    };
    let cell = box_size / grid.nx as f64;
    let l = box_size as f32;
    let Particles { x, y, z, vx, vy, vz, .. } = &mut p;
    let mut axes = [(x, vx), (y, vy), (z, vz)];
    // psi(k) = i k / k^2 delta(k), component-wise.
    let psi = |k: [f64; 3], axis: usize, d: Complex| {
        let k2 = k[0] * k[0] + k[1] * k[1] + k[2] * k[2];
        if k2 == 0.0 {
            Complex::ZERO
        } else {
            // i * d = (-d.im, d.re)
            Complex::new(-d.im, d.re).scale(k[axis] / k2)
        }
    };
    vector_components(spec, grid, box_size, psi, |axis, psi| {
        fft3_in_place(psi, grid, Direction::Inverse)?;
        let (pos, vel) = &mut axes[axis];
        par_ranges_mut([&mut pos[..], &mut vel[..]], grid.nx, |start, [pos, vel]| {
            let rows = pos.chunks_exact_mut(grid.nx).zip(vel.chunks_exact_mut(grid.nx));
            for (r, (pos, vel)) in rows.enumerate() {
                let row = start / grid.nx + r;
                let (iy, iz) = (row % grid.ny, row / grid.ny);
                for (ix, (pos, vel)) in pos.iter_mut().zip(vel).enumerate() {
                    let lattice = [ix, iy, iz][axis];
                    let d = opts.growth * psi[row * grid.nx + ix].re;
                    *pos = wrap_coord(((lattice as f64 + 0.5) * cell + d) as f32, l);
                    *vel = (opts.velocity_scale * d) as f32;
                }
            }
        });
        Ok(())
    })?;
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_field_has_zero_mean_and_structure() {
        let grid = Grid3::cube(32);
        let f = gaussian_field(&Cosmology::default(), grid, 256.0, 42).unwrap();
        let mean: f64 = f.iter().sum::<f64>() / f.len() as f64;
        assert!(mean.abs() < 1e-8, "mean {mean}");
        let var: f64 = f.iter().map(|v| v * v).sum::<f64>() / f.len() as f64;
        assert!(var > 1e-6, "field should have power, var={var}");
    }

    #[test]
    fn gaussian_field_is_deterministic_per_seed() {
        let grid = Grid3::cube(16);
        let a = gaussian_field(&Cosmology::default(), grid, 128.0, 7).unwrap();
        let b = gaussian_field(&Cosmology::default(), grid, 128.0, 7).unwrap();
        let c = gaussian_field(&Cosmology::default(), grid, 128.0, 8).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn rejects_non_pow2_grid() {
        let grid = Grid3::new(12, 16, 16);
        assert!(gaussian_field(&Cosmology::default(), grid, 100.0, 1).is_err());
    }

    #[test]
    fn zeldovich_produces_in_box_particles() {
        let grid = Grid3::cube(16);
        let f = gaussian_field(&Cosmology::default(), grid, 256.0, 3).unwrap();
        let p = zeldovich(&f, grid, 256.0, ZeldovichOptions::default()).unwrap();
        assert_eq!(p.len(), 16 * 16 * 16);
        for arr in [&p.x, &p.y, &p.z] {
            for &v in arr {
                assert!((0.0..256.0).contains(&v), "coordinate {v} out of box");
            }
        }
        // Velocities correlate with displacement: nonzero spread.
        let vrms: f64 =
            p.vx.iter().map(|&v| (v as f64).powi(2)).sum::<f64>() / p.len() as f64;
        assert!(vrms > 0.0);
    }

    #[test]
    fn zeldovich_displacements_cluster_particles() {
        // With growth, the CIC density of displaced particles must have
        // larger variance than a uniform lattice (which has ~zero).
        let grid = Grid3::cube(16);
        let f = gaussian_field(&Cosmology::default(), grid, 256.0, 9).unwrap();
        let opts = ZeldovichOptions { growth: 2.0, velocity_scale: 100.0 };
        let p = zeldovich(&f, grid, 256.0, opts).unwrap();
        // RMS displacement from the lattice should be a sizeable fraction
        // of a grid cell (cell = 16 here), otherwise no structure forms.
        let cell = 256.0 / 16.0;
        let mut s = 0.0f64;
        for iz in 0..16usize {
            for iy in 0..16usize {
                for ix in 0..16usize {
                    let idx = ix + 16 * (iy + 16 * iz);
                    let lx = (ix as f64 + 0.5) * cell;
                    let mut d = p.x[idx] as f64 - lx;
                    if d > 128.0 {
                        d -= 256.0;
                    }
                    if d < -128.0 {
                        d += 256.0;
                    }
                    s += d * d;
                }
            }
        }
        let rms = (s / p.len() as f64).sqrt();
        assert!(rms > 0.1 * cell, "rms displacement {rms} too small vs cell {cell}");
    }

    #[test]
    fn wrap_handles_out_of_range() {
        let mut p = Particles {
            x: vec![-0.5, 256.0, 300.0],
            y: vec![0.0, 1.0, 2.0],
            z: vec![0.0, 1.0, 2.0],
            vx: vec![0.0; 3],
            vy: vec![0.0; 3],
            vz: vec![0.0; 3],
            box_size: 256.0,
        };
        p.wrap();
        for &v in &p.x {
            assert!((0.0..256.0).contains(&v));
        }
        assert!((p.x[0] - 255.5).abs() < 1e-3);
    }
}

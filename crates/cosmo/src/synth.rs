//! Synthetic HACC and Nyx snapshot generation.
//!
//! Both datasets are derived from the *same* simulated universe
//! (`nbody-sim`), mirroring the paper's observation that HACC and Nyx data
//! "can be mutually verified by each other under the same simulation":
//! the particle load becomes the HACC snapshot; gridding the particles and
//! applying gas physics scalings produces the Nyx fields, with value
//! ranges matching Table II.

use crate::field::{HaccSnapshot, NyxSnapshot};
use cosmo_fft::Grid3;
use foresight_util::parallel::par_ranges_mut;
use foresight_util::Result;
use nbody_sim::{cic_deposit, cic_scatter, simulate_universe, Particles};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Options for snapshot synthesis.
#[derive(Debug, Clone, Copy)]
pub struct SynthOptions {
    /// Particle/grid side (the load is `n_side^3` particles).
    pub n_side: usize,
    /// Box side length; Table II positions are in (0, 256).
    pub box_size: f64,
    /// RNG seed.
    pub seed: u64,
    /// PM steps to cluster the load.
    pub steps: usize,
}

impl Default for SynthOptions {
    fn default() -> Self {
        Self { n_side: 64, box_size: 256.0, seed: 0x5EED, steps: 10 }
    }
}

/// Rescales velocities into the HACC `(-1e4, 1e4)` range.
fn normalize_velocities(p: &mut Particles, target_max: f32) {
    let mut vmax = 0.0f32;
    for arr in [&p.vx, &p.vy, &p.vz] {
        for &v in arr.iter() {
            vmax = vmax.max(v.abs());
        }
    }
    if vmax > 0.0 {
        let s = target_max / vmax;
        for arr in [&mut p.vx, &mut p.vy, &mut p.vz] {
            for v in arr.iter_mut() {
                *v *= s;
            }
        }
    }
}

/// Generates a HACC-like snapshot (six 1-D arrays).
pub fn generate_hacc(opts: &SynthOptions) -> Result<HaccSnapshot> {
    let mut p = simulate_universe(opts.n_side, opts.box_size, opts.seed, opts.steps)?;
    normalize_velocities(&mut p, 9.5e3);
    Ok(HaccSnapshot {
        x: p.x,
        y: p.y,
        z: p.z,
        vx: p.vx,
        vy: p.vy,
        vz: p.vz,
        box_size: opts.box_size,
    })
}

/// Generates a Nyx-like snapshot (six 3-D grids) from the same universe.
///
/// Gas physics stand-ins, chosen to land in Table II's ranges and to have
/// the paper's key statistical property — densities/temperature with a
/// huge dynamic range but concentrated distribution, velocities noisy and
/// symmetric:
///
/// - `rho_dm = dm_scale * (1 + delta_cic)`, clipped to `(0, 1e4)`;
/// - `rho_b = b_scale * (1 + delta)^1.8 * lognormal_scatter`, `(0, 1e5)`;
/// - `T = T0 * (rho_b / b_scale)^(2/3) * scatter`, clamped to `(1e2, 1e7)`;
/// - velocities: CIC momentum / CIC mass, scaled into `(-1e8, 1e8)` cm/s.
pub fn generate_nyx(opts: &SynthOptions) -> Result<NyxSnapshot> {
    let mut p = simulate_universe(opts.n_side, opts.box_size, opts.seed, opts.steps)?;
    normalize_velocities(&mut p, 9.5e3);
    let grid = Grid3::cube(opts.n_side);
    let delta = cic_deposit(&p, grid, opts.box_size);
    let n = grid.len();
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x4E59);
    // The two scatter uniforms of every cell, drawn in cell order; the
    // physics below runs in parallel.
    let draws: Vec<[f64; 2]> = (0..n).map(|_| [rng.gen(), rng.gen()]).collect();

    let dm_scale = 40.0f64;
    let b_scale = 35.0f64;
    let t0 = 2.0e3f64;

    let mut snap = NyxSnapshot {
        n_side: opts.n_side,
        box_size: opts.box_size,
        baryon_density: vec![0.0; n],
        dark_matter_density: vec![0.0; n],
        temperature: vec![0.0; n],
        velocity_x: vec![0.0; n],
        velocity_y: vec![0.0; n],
        velocity_z: vec![0.0; n],
    };
    let gas = [&mut snap.dark_matter_density, &mut snap.baryon_density, &mut snap.temperature];
    par_ranges_mut(gas.map(|f| &mut f[..]), 1, |start, [dm, b, t]| {
        for (i, ((dm, b), t)) in dm.iter_mut().zip(b).zip(t).enumerate() {
            let [u_b, u_t] = draws[start + i];
            let one_plus = (1.0 + delta[start + i]).max(1e-4);
            let rho_dm = (dm_scale * one_plus).clamp(1e-3, 9.9e3);
            let scatter: f64 = 1.0 + (u_b - 0.5) * 0.2;
            let rho_b = (b_scale * one_plus.powf(1.8) * scatter).clamp(1e-3, 9.9e4);
            let t_scatter: f64 = 1.0 + (u_t - 0.5) * 0.3;
            let temp = (t0 * (rho_b / b_scale).powf(2.0 / 3.0) * t_scatter).clamp(1.1e2, 9.9e6);
            *dm = rho_dm as f32;
            *b = rho_b as f32;
            *t = temp as f32;
        }
    });
    drop((delta, draws));

    // Mass-weighted CIC velocity grids, then convert km/s -> cm/s-ish
    // range by scaling into (-1e8, 1e8).
    let inv = 1.0 / opts.box_size;
    let side = opts.n_side as f64;
    let locate =
        |i: usize| [p.x[i], p.y[i], p.z[i]].map(|c| (c as f64 * inv).rem_euclid(1.0) * side - 0.5);
    let [mass, mx, my, mz] = cic_scatter(grid, p.len(), locate, |i, w| {
        [w, w * p.vx[i] as f64, w * p.vy[i] as f64, w * p.vz[i] as f64]
    });
    let vel_scale = 1e4; // km/s-ish -> cm/s-ish magnitude
    let vel = [&mut snap.velocity_x, &mut snap.velocity_y, &mut snap.velocity_z];
    par_ranges_mut(vel.map(|f| &mut f[..]), 1, |start, [vx, vy, vz]| {
        for (i, ((vx, vy), vz)) in vx.iter_mut().zip(vy).zip(vz).enumerate() {
            let c = start + i;
            let m = mass[c].max(1e-9);
            *vx = ((mx[c] / m) * vel_scale).clamp(-9.9e7, 9.9e7) as f32;
            *vy = ((my[c] / m) * vel_scale).clamp(-9.9e7, 9.9e7) as f32;
            *vz = ((mz[c] / m) * vel_scale).clamp(-9.9e7, 9.9e7) as f32;
        }
    });
    Ok(snap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::in_expected_range;

    fn small_opts() -> SynthOptions {
        SynthOptions { n_side: 16, box_size: 256.0, seed: 7, steps: 4 }
    }

    #[test]
    fn hacc_fields_land_in_table2_ranges() {
        let snap = generate_hacc(&small_opts()).unwrap();
        assert_eq!(snap.len(), 4096);
        for (name, data) in snap.fields() {
            assert!(in_expected_range(name, data), "{name} out of Table II range");
            assert!(data.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn nyx_fields_land_in_table2_ranges() {
        let snap = generate_nyx(&small_opts()).unwrap();
        assert_eq!(snap.cells(), 4096);
        for (name, data) in snap.fields() {
            assert!(in_expected_range(name, data), "{name} out of Table II range");
            assert!(data.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn bad_options_are_typed_errors() {
        use foresight_util::Error;
        let bad = [
            SynthOptions { n_side: 0, ..small_opts() },
            SynthOptions { n_side: 12, ..small_opts() },
            SynthOptions { box_size: 0.0, ..small_opts() },
            SynthOptions { box_size: f64::NAN, ..small_opts() },
        ];
        for opts in bad {
            assert!(matches!(generate_nyx(&opts), Err(Error::InvalidArgument(_))), "{opts:?}");
            assert!(matches!(generate_hacc(&opts), Err(Error::InvalidArgument(_))), "{opts:?}");
        }
    }

    #[test]
    fn determinism_per_seed() {
        let a = generate_nyx(&small_opts()).unwrap();
        let b = generate_nyx(&small_opts()).unwrap();
        assert_eq!(a.baryon_density, b.baryon_density);
        let c = generate_nyx(&SynthOptions { seed: 8, ..small_opts() }).unwrap();
        assert_ne!(a.baryon_density, c.baryon_density);
    }

    #[test]
    fn density_fields_have_wide_dynamic_range_and_concentration() {
        // The Nyx-vs-HACC compression story hinges on this property:
        // density spans decades but most cells sit near the mean.
        let snap = generate_nyx(&SynthOptions { n_side: 32, ..small_opts() }).unwrap();
        let s = foresight_util::stats::summarize(&snap.baryon_density);
        assert!(s.max / s.min.max(1e-6) > 100.0, "range too narrow: {s:?}");
        let median = {
            let mut v = snap.baryon_density.clone();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[v.len() / 2] as f64
        };
        assert!(median < s.mean * 2.0, "distribution should be concentrated/skewed");
    }

    #[test]
    fn velocities_are_roughly_symmetric() {
        let snap = generate_nyx(&small_opts()).unwrap();
        let s = foresight_util::stats::summarize(&snap.velocity_z);
        assert!(s.min < 0.0 && s.max > 0.0);
        assert!(s.mean.abs() < 0.3 * s.max.abs().max(s.min.abs()), "mean {}", s.mean);
    }
}

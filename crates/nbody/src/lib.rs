//! Particle-mesh N-body simulator substrate.
//!
//! The paper's datasets come from HACC (a trillion-particle N-body code)
//! and Nyx (an AMR hydro code). Neither the codes nor their snapshots are
//! available here, so this crate synthesizes physically structured
//! replacements:
//!
//! 1. [`cosmology`] — a BBKS ΛCDM-shaped linear power spectrum;
//! 2. [`icgen`] — Gaussian random fields with that spectrum, turned into a
//!    particle load by Zel'dovich displacement;
//! 3. [`pm`] — a cloud-in-cell particle-mesh gravity solver with leapfrog
//!    stepping that evolves the load into a clustered, halo-rich state.
//!
//! `cosmo-data` builds the HACC-like (1-D particle arrays) and Nyx-like
//! (3-D field grids) datasets from these primitives.

#![forbid(unsafe_code)]

pub mod cosmology;
pub mod icgen;
pub mod pm;

pub use cosmology::Cosmology;
pub use icgen::{gaussian_field, zeldovich, Particles, ZeldovichOptions};
pub use pm::{cic_deposit, cic_scatter, solve_forces, step, PmOptions};

use cosmo_fft::Grid3;
use foresight_util::{Error, Result};

/// Convenience driver: ICs + a few PM steps, returning a clustered box.
///
/// `n_side` sets both the particle lattice and the PM mesh (one particle
/// per cell) and must be a power of two; `box_size` must be finite and
/// positive. `steps` PM iterations sharpen Zel'dovich's mild clustering
/// into FoF-detectable halos; ~10 steps gives a rich halo population.
pub fn simulate_universe(
    n_side: usize,
    box_size: f64,
    seed: u64,
    steps: usize,
) -> Result<Particles> {
    if !n_side.is_power_of_two() {
        return Err(Error::invalid(format!("n_side {n_side} is not a power of two")));
    }
    if !(box_size.is_finite() && box_size > 0.0) {
        return Err(Error::invalid(format!("box_size {box_size} is not finite and positive")));
    }
    let grid = Grid3::cube(n_side);
    let cosmo = Cosmology::default();
    let delta = gaussian_field(&cosmo, grid, box_size, seed)?;
    // Calibrated so ~10 steps on a 32^3 load yield O(100) FoF halos with
    // the standard b = 0.2 x mean-spacing linking length.
    let opts = ZeldovichOptions { growth: 1.0, velocity_scale: 150.0 };
    let mut p = zeldovich(&delta, grid, box_size, opts)?;
    let pm_opts = PmOptions { dt: 1.0, g_const: 100.0, velocity_to_drift: 2e-3 };
    for _ in 0..steps {
        step(&mut p, grid, &pm_opts)?;
    }
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulate_universe_end_to_end() {
        let p = simulate_universe(16, 256.0, 1234, 3).unwrap();
        assert_eq!(p.len(), 4096);
        assert!(p.x.iter().all(|v| v.is_finite() && (0.0..256.0).contains(v)));
        assert!(p.vx.iter().all(|v| v.is_finite()));
        // Velocities should have developed a spread.
        let s = foresight_util::stats::summarize(&p.vx);
        assert!(s.range() > 1.0, "velocity range {}", s.range());
    }

    #[test]
    fn simulate_universe_rejects_bad_options() {
        for n_side in [0, 3, 12] {
            let r = simulate_universe(n_side, 256.0, 1, 1);
            assert!(matches!(r, Err(Error::InvalidArgument(_))), "n_side {n_side}");
        }
        for box_size in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let r = simulate_universe(8, box_size, 1, 1);
            assert!(matches!(r, Err(Error::InvalidArgument(_))), "box_size {box_size}");
        }
    }
}

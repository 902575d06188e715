//! Particle-mesh gravity solver with leapfrog (kick-drift-kick) stepping.
//!
//! This is the HACC-style long-range solver: particles deposit mass onto a
//! periodic grid with cloud-in-cell (CIC) weights, the Poisson equation is
//! solved spectrally (`phi(k) = -delta(k)/k^2`), forces come from the
//! spectral gradient `-i k phi(k)`, and CIC interpolation carries them back
//! to the particles. A short-range particle-particle solver is unnecessary
//! here: a few PM steps on Zel'dovich ICs produce the gravitationally bound
//! clumps the FoF halo analysis needs.

use crate::icgen::{vector_components, wrap_coord, Particles};
use cosmo_fft::{fft3_forward, fft3_inverse_real_in_place, Complex, Grid3};
use foresight_util::parallel::par_ranges_mut;
use foresight_util::Result;

/// CIC-deposits unit-mass particles onto `grid`, returning the overdensity
/// field `rho/rho_mean - 1`.
pub fn cic_deposit(p: &Particles, grid: Grid3, box_size: f64) -> Vec<f64> {
    let inv_cell = grid.nx as f64 / box_size;
    let locate = |i: usize| mesh_coords(grid, inv_cell, [p.x[i], p.y[i], p.z[i]]);
    let [mut rho] = cic_scatter(grid, p.len(), locate, |_, w| [w]);
    let mean = p.len() as f64 / grid.len() as f64;
    if mean > 0.0 {
        par_ranges_mut([&mut rho[..]], 1, |_, [rho]| {
            for v in rho {
                *v = *v / mean - 1.0;
            }
        });
    }
    rho
}

/// Mesh coordinates `(g - 0.5)` of a position, in cells, for CIC.
#[inline]
fn mesh_coords(grid: Grid3, inv_cell: f64, [x, y, z]: [f32; 3]) -> [f64; 3] {
    let (nx, ny, nz) = (grid.nx as f64, grid.ny as f64, grid.nz as f64);
    [
        x as f64 * inv_cell - 0.5,
        y as f64 * inv_cell * (ny / nx) - 0.5,
        z as f64 * inv_cell * (nz / nx) - 0.5,
    ]
}

/// Cloud-in-cell scatter of `n` particles onto `K` grids at once.
///
/// `locate(i)` gives particle `i`'s mesh coordinates (cell centres at
/// integers); `values(i, w)` gives what it adds to each grid at a corner of
/// CIC weight `w = wx * wy * wz`. Each worker owns a contiguous slab of
/// z-planes, walks every particle in index order and adds only to its own
/// cells, so every cell sums its contributions in the order of the serial
/// loop and the grids are the same on any thread count.
pub fn cic_scatter<const K: usize>(
    grid: Grid3,
    n: usize,
    locate: impl Fn(usize) -> [f64; 3] + Sync,
    values: impl Fn(usize, f64) -> [f64; K] + Sync,
) -> [Vec<f64>; K] {
    let (nx, ny, nz) = (grid.nx, grid.ny, grid.nz);
    let plane = nx * ny;
    let mut grids: [Vec<f64>; K] = std::array::from_fn(|_| vec![0.0; grid.len()]);
    par_ranges_mut(grids.each_mut().map(|g| &mut g[..]), plane, |start, mut slab| {
        let planes = slab.first().map_or(0, |s| s.len()) / plane;
        let z0 = start / plane;
        let owns = |z: usize| z >= z0 && z < z0 + planes;
        for i in 0..n {
            let [gx, gy, gz] = locate(i);
            let zs = corners(gz, nz);
            if !zs.iter().any(|&(z, _)| owns(z)) {
                continue;
            }
            let (xs, ys) = (corners(gx, nx), corners(gy, ny));
            for (z, wz) in zs {
                if !owns(z) {
                    continue;
                }
                for (y, wy) in ys {
                    let row = (z - z0) * plane + y * nx;
                    for (x, wx) in xs {
                        for (g, v) in slab.iter_mut().zip(values(i, wx * wy * wz)) {
                            g[row + x] += v;
                        }
                    }
                }
            }
        }
    });
    grids
}

/// The two CIC cells of a (possibly negative) mesh coordinate on an axis
/// of `n` cells, wrapped, with their weights `1 - frac` and `frac`.
#[inline]
fn corners(g: f64, n: usize) -> [(usize, f64); 2] {
    let fl = g.floor();
    let frac = g - fl;
    let idx = (fl as i64).rem_euclid(n as i64) as usize;
    let next = if idx + 1 == n { 0 } else { idx + 1 };
    [(idx, 1.0 - frac), (next, frac)]
}

/// Spectral force field: three grids holding the acceleration components.
pub struct ForceField {
    /// Acceleration along x on the mesh.
    pub ax: Vec<f64>,
    /// Acceleration along y.
    pub ay: Vec<f64>,
    /// Acceleration along z.
    pub az: Vec<f64>,
}

/// Solves Poisson's equation for `delta` and differentiates spectrally.
///
/// `g_const` folds 4*pi*G*rho_mean into one coupling constant.
pub fn solve_forces(delta: &[f64], grid: Grid3, box_size: f64, g_const: f64) -> Result<ForceField> {
    let spec = fft3_forward(delta, grid)?;
    // phi(k) = -g delta(k) / k^2; a = -ik phi = ik g delta / k^2.
    let accel = |k: [f64; 3], axis: usize, d: Complex| {
        let k2 = k[0] * k[0] + k[1] * k[1] + k[2] * k[2];
        if k2 == 0.0 {
            return Complex::ZERO;
        }
        Complex::new(-d.im, d.re).scale(g_const / k2).scale(k[axis])
    };
    let mut mesh: [Vec<f64>; 3] = Default::default();
    vector_components(spec, grid, box_size, accel, |axis, modes| {
        mesh[axis] = fft3_inverse_real_in_place(modes, grid)?;
        Ok(())
    })?;
    let [ax, ay, az] = mesh;
    Ok(ForceField { ax, ay, az })
}

/// CIC-interpolates all three force components at one particle's mesh
/// coordinates: cells and weights once, each component summed in corner
/// order as `f[c] * wx * wy * wz`.
#[inline]
fn gather(f: &ForceField, grid: Grid3, [gx, gy, gz]: [f64; 3]) -> [f64; 3] {
    let (xs, ys) = (corners(gx, grid.nx), corners(gy, grid.ny));
    let mut acc = [0.0; 3];
    for (z, wz) in corners(gz, grid.nz) {
        for (y, wy) in ys {
            for (x, wx) in xs {
                let c = grid.index(x, y, z);
                for (a, comp) in acc.iter_mut().zip([&f.ax, &f.ay, &f.az]) {
                    *a += comp[c] * wx * wy * wz;
                }
            }
        }
    }
    acc
}

/// Particle-mesh simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct PmOptions {
    /// Timestep in code units.
    pub dt: f64,
    /// Gravitational coupling (4*pi*G*rho_mean folded in).
    pub g_const: f64,
    /// How strongly velocities feed back into drift (1.0 = standard).
    pub velocity_to_drift: f64,
}

impl Default for PmOptions {
    fn default() -> Self {
        Self { dt: 1.0, g_const: 30.0, velocity_to_drift: 1e-2 }
    }
}

/// One kick-drift-kick leapfrog step on the particles (in place).
pub fn step(p: &mut Particles, grid: Grid3, opts: &PmOptions) -> Result<()> {
    let box_size = p.box_size;
    let delta = cic_deposit(p, grid, box_size);
    let forces = solve_forces(&delta, grid, box_size, opts.g_const)?;
    drop(delta);
    let half = 0.5 * opts.dt;
    let drift = opts.dt * opts.velocity_to_drift;
    let l = box_size as f32;
    let inv_cell = grid.nx as f64 / box_size;

    // Gather, kick and drift each particle in one pass: it reads only its
    // own position and the force mesh. The second half-kick is folded into
    // the next step's first half-kick, which is the standard KDK
    // simplification for snapshot generation.
    let Particles { x, y, z, vx, vy, vz, .. } = p;
    let arrays = [x, y, z, vx, vy, vz].map(|a| &mut a[..]);
    par_ranges_mut(arrays, 1, |_, [x, y, z, vx, vy, vz]| {
        for i in 0..x.len() {
            let [ax, ay, az] =
                gather(&forces, grid, mesh_coords(grid, inv_cell, [x[i], y[i], z[i]]));
            vx[i] += (ax * half) as f32;
            vy[i] += (ay * half) as f32;
            vz[i] += (az * half) as f32;
            x[i] = wrap_coord(x[i] + vx[i] * drift as f32, l);
            y[i] = wrap_coord(y[i] + vy[i] * drift as f32, l);
            z[i] = wrap_coord(z[i] + vz[i] * drift as f32, l);
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_particles(n_side: usize, box_size: f64) -> Particles {
        let cell = box_size / n_side as f64;
        let mut p = Particles { box_size, ..Default::default() };
        for iz in 0..n_side {
            for iy in 0..n_side {
                for ix in 0..n_side {
                    p.x.push(((ix as f64 + 0.5) * cell) as f32);
                    p.y.push(((iy as f64 + 0.5) * cell) as f32);
                    p.z.push(((iz as f64 + 0.5) * cell) as f32);
                    p.vx.push(0.0);
                    p.vy.push(0.0);
                    p.vz.push(0.0);
                }
            }
        }
        p
    }

    #[test]
    fn cic_conserves_mass() {
        let grid = Grid3::cube(8);
        let mut p = uniform_particles(8, 64.0);
        // Perturb positions so deposits spread over neighbours.
        for (i, v) in p.x.iter_mut().enumerate() {
            *v += ((i % 7) as f32 - 3.0) * 0.7;
        }
        p.wrap();
        let delta = cic_deposit(&p, grid, 64.0);
        // Total overdensity integrates to zero (mass conservation).
        let sum: f64 = delta.iter().sum();
        assert!(sum.abs() < 1e-9, "sum {sum}");
    }

    #[test]
    fn uniform_lattice_gives_zero_density_contrast() {
        let grid = Grid3::cube(8);
        let p = uniform_particles(8, 64.0);
        let delta = cic_deposit(&p, grid, 64.0);
        for &d in &delta {
            assert!(d.abs() < 1e-9, "delta {d}");
        }
    }

    #[test]
    fn forces_point_toward_overdensity() {
        // A single clump at the box centre must attract a test particle
        // placed to its +x side (negative x-force).
        let grid = Grid3::cube(16);
        let box_size = 64.0;
        let mut delta = vec![0.0f64; grid.len()];
        delta[grid.index(8, 8, 8)] = 100.0;
        let f = solve_forces(&delta, grid, box_size, 1.0).unwrap();
        // Grid point at (11, 8, 8) is +x of the clump.
        let a = f.ax[grid.index(11, 8, 8)];
        assert!(a < 0.0, "force should attract toward clump, got {a}");
        let a = f.ax[grid.index(5, 8, 8)];
        assert!(a > 0.0, "force should attract from the other side, got {a}");
    }

    #[test]
    fn step_keeps_particles_in_box_and_finite() {
        let grid = Grid3::cube(8);
        let mut p = uniform_particles(8, 64.0);
        for (i, v) in p.x.iter_mut().enumerate() {
            *v += ((i % 5) as f32 - 2.0) * 1.3;
        }
        p.wrap();
        for _ in 0..3 {
            step(&mut p, grid, &PmOptions::default()).unwrap();
        }
        for arr in [&p.x, &p.y, &p.z, &p.vx, &p.vy, &p.vz] {
            for &v in arr {
                assert!(v.is_finite());
            }
        }
        for arr in [&p.x, &p.y, &p.z] {
            for &v in arr {
                assert!((0.0..64.0).contains(&v), "{v}");
            }
        }
    }

    #[test]
    fn gravity_increases_clustering() {
        // Start from a perturbed lattice and verify the density variance
        // grows under PM evolution (gravitational collapse).
        let grid = Grid3::cube(16);
        let box_size = 64.0;
        let mut p = uniform_particles(16, box_size);
        for i in 0..p.len() {
            let t = i as f32;
            p.x[i] += (t * 0.618).sin() * 1.5;
            p.y[i] += (t * 0.314).cos() * 1.5;
            p.z[i] += (t * 0.577).sin() * 1.5;
        }
        p.wrap();
        let var = |p: &Particles| -> f64 {
            let d = cic_deposit(p, grid, box_size);
            d.iter().map(|v| v * v).sum::<f64>() / d.len() as f64
        };
        let v0 = var(&p);
        let opts = PmOptions { dt: 1.0, g_const: 50.0, velocity_to_drift: 2e-2 };
        for _ in 0..8 {
            step(&mut p, grid, &opts).unwrap();
        }
        let v1 = var(&p);
        assert!(v1 > v0, "clustering should grow: {v0} -> {v1}");
    }
}

//! Integration: analysis tools against the N-body substrate.

use cosmo_analysis::{
    friends_of_friends, linking_length_for, mass_function, pk_ratio, power_spectrum,
};
use cosmo_fft::Grid3;
use nbody_sim::simulate_universe;

#[test]
fn simulated_universe_contains_halos() {
    let n_side = 32;
    let box_size = 256.0;
    let p = simulate_universe(n_side, box_size, 20200704, 10).unwrap();
    let b = linking_length_for(p.len(), box_size, 0.2);
    let cat = friends_of_friends(&p.x, &p.y, &p.z, box_size, b, 10).unwrap();
    assert!(
        cat.halos.len() >= 10,
        "expected a rich halo population, found {}",
        cat.halos.len()
    );
    // Mass function spans more than one bin (small halos outnumber big).
    let mf = mass_function(&cat);
    assert!(mf.len() >= 2, "mass function too narrow: {mf:?}");
    let smallest_bin_count = mf.first().unwrap().1;
    let largest_bin_count = mf.last().unwrap().1;
    assert!(
        smallest_bin_count >= largest_bin_count,
        "small halos should be at least as common: {mf:?}"
    );
}

#[test]
fn universe_power_spectrum_is_red() {
    // The simulated universe should have more power at large scales (low k)
    // than at small scales — the defining shape behind the paper's Fig. 1d.
    let n_side = 32;
    let box_size = 256.0;
    let p = simulate_universe(n_side, box_size, 77, 3).unwrap();
    let grid = Grid3::cube(n_side);
    let delta = cosmo_analysis::deposit_particles(&p.x, &p.y, &p.z, grid, box_size).unwrap();
    let pk = power_spectrum(&delta, grid, box_size, 10).unwrap();
    assert!(pk.len() >= 5);
    let low = pk[0].pk;
    let high = pk.last().unwrap().pk;
    assert!(low > high, "spectrum should be red: P(low k)={low} P(high k)={high}");
}

#[test]
fn position_noise_degrades_small_halos_first() {
    // The paper's Fig. 6 story: small position errors dissolve small halos
    // while big ones survive. Perturb positions far beyond a sensible
    // error bound and compare halo counts.
    let n_side = 32;
    let box_size = 256.0;
    let p = simulate_universe(n_side, box_size, 5150, 10).unwrap();
    let b = linking_length_for(p.len(), box_size, 0.2);
    let orig = friends_of_friends(&p.x, &p.y, &p.z, box_size, b, 10).unwrap();

    let noise = (b * 0.8) as f32; // comparable to the linking length
    let mut s = 123u64;
    let mut jitter = |v: &f32| -> f32 {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let u = ((s >> 33) as f64 / (1u64 << 31) as f64 - 0.5) as f32;
        (v + u * 2.0 * noise).rem_euclid(box_size as f32)
    };
    let nx: Vec<f32> = p.x.iter().map(&mut jitter).collect();
    let ny: Vec<f32> = p.y.iter().map(&mut jitter).collect();
    let nz: Vec<f32> = p.z.iter().map(&mut jitter).collect();
    let noisy = friends_of_friends(&nx, &ny, &nz, box_size, b, 10).unwrap();
    assert!(
        noisy.halos.len() < orig.halos.len(),
        "large jitter should destroy halos: {} -> {}",
        orig.halos.len(),
        noisy.halos.len()
    );

    // A tiny perturbation (<< linking length) preserves the catalog size.
    let tiny = (b * 0.01) as f32;
    let mut s2 = 9u64;
    let mut jt = |v: &f32| -> f32 {
        s2 = s2.wrapping_mul(6364136223846793005).wrapping_add(1);
        let u = ((s2 >> 33) as f64 / (1u64 << 31) as f64 - 0.5) as f32;
        (v + u * 2.0 * tiny).rem_euclid(box_size as f32)
    };
    let tx: Vec<f32> = p.x.iter().map(&mut jt).collect();
    let ty: Vec<f32> = p.y.iter().map(&mut jt).collect();
    let tz: Vec<f32> = p.z.iter().map(&mut jt).collect();
    let near = friends_of_friends(&tx, &ty, &tz, box_size, b, 10).unwrap();
    let rel_change =
        (near.halos.len() as f64 - orig.halos.len() as f64).abs() / orig.halos.len() as f64;
    assert!(rel_change < 0.05, "tiny jitter changed halo count by {rel_change}");
}

#[test]
fn compressing_positions_preserves_power_spectrum_at_tight_bound() {
    use cosmo_analysis::acceptance::{pk_deviation, Verdict, PK_BINS};
    use lossy_sz_shim::*;
    // Compress-decompress positions with a tight ABS bound and verify the
    // pk ratio stays inside the paper's 1% band.
    let n_side = 32;
    let box_size = 256.0;
    let p = simulate_universe(n_side, box_size, 31415, 4).unwrap();
    let grid = Grid3::cube(n_side);
    let orig_delta =
        cosmo_analysis::deposit_particles(&p.x, &p.y, &p.z, grid, box_size).unwrap();
    let orig_pk = power_spectrum(&orig_delta, grid, box_size, PK_BINS).unwrap();

    let rx = roundtrip(&p.x, 0.005);
    let ry = roundtrip(&p.y, 0.005);
    let rz = roundtrip(&p.z, 0.005);
    let rec_delta = cosmo_analysis::deposit_particles(&rx, &ry, &rz, grid, box_size).unwrap();
    let rec_pk = power_spectrum(&rec_delta, grid, box_size, PK_BINS).unwrap();
    let ratios = pk_ratio(&orig_pk, &rec_pk).unwrap();
    assert!(Verdict::pk(pk_deviation(&ratios)).acceptable(), "pk ratio outside 1%: {ratios:?}");
}

/// Tiny local stand-in so this test file does not need lossy-sz as a dev
/// dependency of the analysis crate: quantizes to the error bound the way
/// an ABS-mode compressor reconstruction does.
mod lossy_sz_shim {
    pub fn roundtrip(data: &[f32], eb: f32) -> Vec<f32> {
        data.iter().map(|&v| (v / (2.0 * eb)).round() * 2.0 * eb).collect()
    }
}

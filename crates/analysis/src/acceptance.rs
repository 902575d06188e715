//! The paper's acceptance rule (§V-B, §V-D), defined once: a lossy
//! configuration passes when its reconstruction's power spectrum stays
//! within 1 ± 1 % of the original's in every shell and its halo mass
//! function holds. Every exhibit, the pipeline runner and the examples
//! judge through this module; DESIGN §26 gives the choices.

use crate::fof::{friends_of_friends, linking_length_for, HaloCatalog};
use crate::powerspec::{pk_ratio, power_spectrum_f32, PkBin};
use cosmo_fft::Grid3;
use foresight_util::Result;

/// Spherical shells of every spectrum the pk test compares.
pub const PK_BINS: usize = 10;
/// Largest |pk ratio − 1| a shell may show (the paper's 1 % band).
pub const PK_TOLERANCE: f64 = 0.01;
/// Largest halo deviation (see [`halo_deviation`]) that passes.
pub const HALO_TOLERANCE: f64 = 0.1;
/// Mass bins holding fewer original halos than this do not enter the
/// halo statistic: one boundary crossing would swing their ratio.
pub const HALO_MIN_COUNT: usize = 5;

/// The spectrum the pk test compares: `field` in [`PK_BINS`] shells.
pub fn spectrum(field: &[f32], grid: Grid3, box_size: f64) -> Result<Vec<PkBin>> {
    power_spectrum_f32(field, grid, box_size, PK_BINS)
}

/// The worst |ratio − 1| over the shells of a pk ratio curve. A NaN shell
/// makes the deviation NaN, which no tolerance passes.
pub fn pk_deviation(ratios: &[(f64, f64)]) -> f64 {
    let worst = |m: f64, d: f64| if d > m || d.is_nan() { d } else { m };
    ratios.iter().map(|&(_, r)| (r - 1.0).abs()).fold(0.0, worst)
}

/// The pk ratio curve of `recon` against the original spectrum `orig`
/// (from [`spectrum`]) and its [`pk_deviation`].
pub fn pk_curve(
    orig: &[PkBin],
    recon: &[f32],
    grid: Grid3,
    box_size: f64,
) -> Result<(Vec<(f64, f64)>, f64)> {
    let ratios = pk_ratio(orig, &spectrum(recon, grid, box_size)?)?;
    let dev = pk_deviation(&ratios);
    Ok((ratios, dev))
}

/// The catalogue the halo test compares: FoF at b = 0.2 times the mean
/// interparticle spacing, halos of at least 10 particles. All three axes
/// enter at once; a codec may move a position slightly outside the box,
/// so each is wrapped back in first, as HACC does.
pub fn halos(x: &[f32], y: &[f32], z: &[f32], box_size: f64) -> Result<HaloCatalog> {
    let side = box_size as f32;
    let wrap = |a: &[f32]| a.iter().map(|v| v.rem_euclid(side)).collect::<Vec<f32>>();
    let b = linking_length_for(x.len(), box_size, 0.2);
    friends_of_friends(&wrap(x), &wrap(y), &wrap(z), box_size, b, 10)
}

/// The halo deviation of per-mass-bin counts `(mass, original, recon,
/// ratio)` (from [`crate::halo_count_ratio`]): the mean |ratio − 1| over
/// the bins holding at least [`HALO_MIN_COUNT`] original halos, weighted
/// by those counts. With no such bin nothing can be shown preserved, so
/// the deviation is 1, as if every halo were lost: the test fails closed.
pub fn halo_deviation(ratios: &[(usize, usize, usize, f64)]) -> f64 {
    let (mut wsum, mut w) = (0.0f64, 0.0f64);
    for &(_, oc, _, r) in ratios.iter().filter(|b| b.1 >= HALO_MIN_COUNT) {
        wsum += oc as f64 * (r - 1.0).abs();
        w += oc as f64;
    }
    if w > 0.0 {
        wsum / w
    } else {
        1.0
    }
}

/// A configuration's deviations under the rule; `None` where a test did not run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Verdict {
    /// [`pk_deviation`] of the reconstruction.
    pub pk_deviation: Option<f64>,
    /// [`halo_deviation`] of the reconstructed positions.
    pub halo_deviation: Option<f64>,
}

impl Verdict {
    /// The verdict of a pk test alone.
    pub fn pk(deviation: f64) -> Self {
        Self { pk_deviation: Some(deviation), halo_deviation: None }
    }

    /// The verdict of a halo test alone.
    pub fn halo(deviation: f64) -> Self {
        Self { pk_deviation: None, halo_deviation: Some(deviation) }
    }

    /// Whether every test that ran passed.
    pub fn acceptable(&self) -> bool {
        self.pk_deviation.is_none_or(|d| d <= PK_TOLERANCE)
            && self.halo_deviation.is_none_or(|d| d <= HALO_TOLERANCE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_deviation_exactly_at_the_tolerance_passes() {
        assert!(Verdict::pk(PK_TOLERANCE).acceptable());
        assert!(!Verdict::pk(PK_TOLERANCE * (1.0 + 1e-12)).acceptable());
        assert!(Verdict::halo(HALO_TOLERANCE).acceptable());
        assert!(!Verdict::halo(HALO_TOLERANCE * (1.0 + 1e-12)).acceptable());
        let both = Verdict { pk_deviation: Some(0.0), halo_deviation: Some(0.5) };
        assert!(!both.acceptable(), "one failing test fails the verdict");
        assert!(Verdict::default().acceptable(), "tests that did not run do not judge");
    }

    #[test]
    fn the_pk_deviation_is_the_worst_shell() {
        let curve = [(0.1, 1.002), (0.2, 0.985), (0.3, 1.009)];
        assert_eq!(pk_deviation(&curve), (0.985f64 - 1.0).abs());
        assert!(!Verdict::pk(pk_deviation(&curve)).acceptable());
        assert_eq!(pk_deviation(&[]), 0.0);
        let nan = pk_deviation(&[(0.1, 1.0), (0.2, f64::NAN), (0.3, 1.5)]);
        assert!(nan.is_nan() && !Verdict::pk(nan).acceptable(), "a NaN shell fails");
    }

    #[test]
    fn bins_with_few_original_halos_are_ignored() {
        let few = HALO_MIN_COUNT - 1;
        // The sparse bin lost every halo; only the populated one counts.
        let bins = [(16, few, 0, 0.0), (32, HALO_MIN_COUNT, HALO_MIN_COUNT, 1.0)];
        assert_eq!(halo_deviation(&bins), 0.0);
    }

    #[test]
    fn the_halo_mean_is_count_weighted() {
        // 30 halos off by 0.1 and 10 off by 0.5: (3 + 5) / 40, not 0.3.
        let bins = [(16, 30, 27, 0.9), (32, 10, 15, 1.5)];
        assert!((halo_deviation(&bins) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn a_catalogue_with_no_populated_bin_fails_closed() {
        assert_eq!(halo_deviation(&[]), 1.0);
        assert_eq!(halo_deviation(&[(16, HALO_MIN_COUNT - 1, HALO_MIN_COUNT - 1, 1.0)]), 1.0);
        assert!(!Verdict::halo(halo_deviation(&[])).acceptable());
    }
}

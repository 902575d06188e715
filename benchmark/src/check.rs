//! Output verification: error bounds, bit equality, quality figures and
//! the failure tally every workload reports.

use foresight_util::sha256::{to_hex, Sha256};

/// Reconstruction quality of one field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// `max - min` of the original values.
    pub range: f64,
    /// Largest `|x - x̂|`.
    pub max_err: f64,
    /// Value-range PSNR in dB.
    pub psnr_db: f64,
}

/// `max - min` over the finite values of `data`.
pub fn value_range(data: &[f32]) -> f64 {
    let (lo, hi) = data
        .iter()
        .filter(|v| v.is_finite())
        .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    if hi >= lo {
        f64::from(hi) - f64::from(lo)
    } else {
        0.0
    }
}

/// Largest absolute error, or infinity when the lengths differ or the
/// reconstruction holds a non-finite value.
pub fn max_abs_err(orig: &[f32], rec: &[f32]) -> f64 {
    if orig.len() != rec.len() {
        return f64::INFINITY;
    }
    orig.iter().zip(rec).fold(0.0f64, |m, (&a, &b)| {
        let e = (f64::from(a) - f64::from(b)).abs();
        if e.is_nan() {
            f64::INFINITY
        } else {
            m.max(e)
        }
    })
}

/// Squared-error and max-error sums over one or more pieces of a field.
#[derive(Debug, Clone, Copy, Default)]
pub struct ErrorSum {
    sq: f64,
    n: usize,
    max: f64,
}

impl ErrorSum {
    /// Adds the errors of `rec` against `orig`.
    pub fn add(&mut self, orig: &[f32], rec: &[f32]) {
        self.max = self.max.max(max_abs_err(orig, rec));
        self.n += orig.len();
        self.sq += orig
            .iter()
            .zip(rec)
            .map(|(&a, &b)| {
                let e = f64::from(a) - f64::from(b);
                e * e
            })
            .sum::<f64>();
    }

    /// Quality of everything added, against a field of value range `range`.
    pub fn quality(&self, range: f64) -> Quality {
        let mse = self.sq / self.n.max(1) as f64;
        Quality { range, max_err: self.max, psnr_db: 20.0 * range.log10() - 10.0 * mse.log10() }
    }
}

/// Quality of `rec` against `orig`.
pub fn quality(orig: &[f32], rec: &[f32]) -> Quality {
    let mut sum = ErrorSum::default();
    sum.add(orig, rec);
    sum.quality(value_range(orig))
}

/// Folds per-field qualities into the two workload figures: the largest
/// `max_err / range` and the smallest PSNR.
pub fn worst(qualities: &[Quality]) -> (f64, f64) {
    let max_err_rel = qualities.iter().map(|q| q.max_err / q.range).fold(0.0, f64::max);
    let psnr_db = qualities.iter().map(|q| q.psnr_db).fold(f64::INFINITY, f64::min);
    (max_err_rel, psnr_db)
}

/// Bit-for-bit equality (`==` on floats would accept `0.0 == -0.0` and
/// reject equal NaNs).
pub fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Little-endian bytes of `values`, the layout `serve` responses use.
pub fn le_bytes(values: &[f32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Running SHA-256 over a workload's outputs.
#[derive(Default)]
pub struct Digest(Sha256);

impl Digest {
    /// Absorbs raw bytes.
    pub fn bytes(&mut self, data: &[u8]) {
        self.0.update(&(data.len() as u64).to_le_bytes());
        self.0.update(data);
    }

    /// Absorbs the bit patterns of `values`.
    pub fn values(&mut self, values: &[f32]) {
        self.bytes(&le_bytes(values));
    }

    /// Lowercase hex digest.
    pub fn hex(self) -> String {
        to_hex(&self.0.finalize())
    }
}

/// Attempted and failed operations, with the first few reasons kept.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Reasons for the first failures.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Counts one operation; `ok == false` records `why`.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(why());
            }
        }
    }

    /// Failed operations per attempted operation.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Checks one lossy reconstruction: bit-identical to the reference decode
/// and, where the codec promises one, within the absolute bound.
pub fn check_reconstruction(
    orig: &[f32],
    rec: &[f32],
    reference: &[f32],
    abs_bound: Option<f64>,
) -> Result<(), String> {
    if !bits_equal(rec, reference) {
        return Err("decode differs from the reference round".into());
    }
    let err = max_abs_err(orig, rec);
    match abs_bound {
        Some(bound) if err > bound => Err(format!("max error {err:e} exceeds the bound {bound:e}")),
        None if !err.is_finite() => Err("reconstruction holds non-finite values".into()),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_of_a_known_error() {
        let orig = [0.0f32, 10.0, 5.0, 5.0];
        let rec = [0.0f32, 10.0, 5.0, 6.0];
        let q = quality(&orig, &rec);
        assert_eq!(q.range, 10.0);
        assert_eq!(q.max_err, 1.0);
        // mse = 1/4, psnr = 20 log10(10) - 10 log10(0.25).
        assert!((q.psnr_db - (20.0 + 6.020599913279624)).abs() < 1e-9);
        let (rel, psnr) = worst(&[q, Quality { range: 2.0, max_err: 1.0, psnr_db: 3.0 }]);
        assert_eq!(rel, 0.5);
        assert_eq!(psnr, 3.0);
    }

    #[test]
    fn corrupted_reconstruction_fails_the_check_and_the_run() {
        let orig: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let reference: Vec<f32> = orig.iter().map(|v| v + 0.25).collect();
        assert!(check_reconstruction(&orig, &reference, &reference, Some(0.5)).is_ok());

        // One flipped value: inside the bound, but not the reference bits.
        let mut drifted = reference.clone();
        drifted[7] += 0.125;
        assert!(check_reconstruction(&orig, &drifted, &reference, Some(0.5)).is_err());
        // Bit-identical to a reference that itself breaks the bound.
        let mut broken = reference.clone();
        broken[3] += 4.0;
        assert!(check_reconstruction(&orig, &broken, &broken, Some(0.5)).is_err());
        // Unbounded codecs still reject non-finite output and short output.
        let mut nan = reference.clone();
        nan[0] = f32::NAN;
        assert!(check_reconstruction(&orig, &nan, &nan, None).is_err());
        assert!(check_reconstruction(&orig, &reference[..63], &reference[..63], None).is_err());

        let mut tally = Tally::default();
        tally.op(true, String::new);
        let verdict = check_reconstruction(&orig, &drifted, &reference, Some(0.5));
        tally.op(verdict.is_ok(), || verdict.clone().unwrap_err());
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert_eq!(tally.fail_frac(), 0.5);
        assert_eq!(crate::report::exit_code(&tally), 1, "a failed check must fail the command");
    }

    #[test]
    fn bit_equality_is_stricter_than_float_equality() {
        assert!(!bits_equal(&[0.0], &[-0.0]));
        assert!(bits_equal(&[f32::NAN], &[f32::NAN]));
        assert!(!bits_equal(&[1.0], &[1.0, 2.0]));
        assert_eq!(le_bytes(&[1.0]), 1.0f32.to_le_bytes().to_vec());
        assert_eq!(value_range(&[f32::NAN, 2.0, -1.0]), 3.0);
    }

    #[test]
    fn digest_separates_item_boundaries() {
        let mut a = Digest::default();
        a.bytes(b"ab");
        a.bytes(b"c");
        let mut b = Digest::default();
        b.bytes(b"a");
        b.bytes(b"bc");
        assert_ne!(a.hex(), b.hex());
    }
}

//! The paper's configuration-optimization guideline (§V-D).
//!
//! Given CBench records annotated with post-analysis acceptance (pk ratio
//! within 1±1%, halo counts preserved), the guideline is: among all
//! acceptable configurations, pick the one with the **highest compression
//! ratio** — it simultaneously maximizes overall throughput (less data to
//! move) and minimizes storage.

use crate::cbench::CBenchRecord;
use crate::codec::CodecKind;
use foresight_util::{Error, Result};

/// Acceptance thresholds for post-analysis quality.
#[derive(Debug, Clone, Copy)]
pub struct Acceptance {
    /// Max |pk ratio - 1| over all shells (the paper uses 0.01).
    pub pk_tolerance: f64,
    /// Max |halo count ratio - 1| per mass bin (the paper eyeballs
    /// "close to 1"; 0.1 is a faithful operationalization).
    pub halo_tolerance: f64,
}

impl Default for Acceptance {
    fn default() -> Self {
        Self { pk_tolerance: 0.01, halo_tolerance: 0.1 }
    }
}

/// A CBench record plus its post-analysis verdicts.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The measurement row.
    pub record: CBenchRecord,
    /// Worst |pk ratio - 1| observed, if the analysis ran.
    pub pk_deviation: Option<f64>,
    /// Worst |halo count ratio - 1| observed, if the analysis ran.
    pub halo_deviation: Option<f64>,
}

impl Candidate {
    /// Whether this configuration passes the acceptance criteria.
    pub fn acceptable(&self, acc: &Acceptance) -> bool {
        let pk_ok = self.pk_deviation.is_none_or(|d| d <= acc.pk_tolerance);
        let halo_ok = self.halo_deviation.is_none_or(|d| d <= acc.halo_tolerance);
        pk_ok && halo_ok
    }
}

/// The guideline's outcome for one field.
#[derive(Debug, Clone)]
pub struct BestFit {
    /// Field name.
    pub field: String,
    /// Chosen parameter label.
    pub param: String,
    /// Compressor of the chosen config.
    pub compressor: CodecKind,
    /// Its compression ratio.
    pub ratio: f64,
    /// How many candidates were acceptable.
    pub acceptable_count: usize,
    /// How many candidates were evaluated.
    pub total_count: usize,
}

/// Picks the best-fit configuration per field for one compressor.
///
/// Returns an error if a field has no acceptable configuration — the
/// guideline then asks for tighter bounds to be swept.
pub fn best_fit_per_field(
    candidates: &[Candidate],
    compressor: CodecKind,
    acc: &Acceptance,
) -> Result<Vec<BestFit>> {
    let mut fields: Vec<String> = Vec::new();
    for c in candidates {
        if c.record.compressor == compressor && !fields.contains(&c.record.field) {
            fields.push(c.record.field.clone());
        }
    }
    if fields.is_empty() {
        return Err(Error::invalid(format!(
            "no candidates for {}",
            compressor.display()
        )));
    }
    let mut out = Vec::with_capacity(fields.len());
    for field in fields {
        let of_field: Vec<&Candidate> = candidates
            .iter()
            .filter(|c| c.record.compressor == compressor && c.record.field == field)
            .collect();
        let acceptable: Vec<&&Candidate> =
            of_field.iter().filter(|c| c.acceptable(acc)).collect();
        let best = acceptable
            .iter()
            .max_by(|a, b| a.record.ratio.partial_cmp(&b.record.ratio).unwrap())
            .ok_or_else(|| {
                Error::invalid(format!(
                    "field '{field}': none of {} configs meets the acceptance criteria; \
                     sweep tighter bounds",
                    of_field.len()
                ))
            })?;
        out.push(BestFit {
            field,
            param: best.record.param.clone(),
            compressor,
            ratio: best.record.ratio,
            acceptable_count: acceptable.len(),
            total_count: of_field.len(),
        });
    }
    Ok(out)
}

/// Dataset-level ratio for a set of per-field best fits, weighting every
/// field by its original byte volume (they are equal-sized in both
/// datasets, so this matches the paper's overall numbers).
pub fn overall_best_ratio(fits: &[BestFit], candidates: &[Candidate]) -> f64 {
    let mut orig = 0usize;
    let mut comp = 0usize;
    for f in fits {
        if let Some(c) = candidates.iter().find(|c| {
            c.record.field == f.field
                && c.record.param == f.param
                && c.record.compressor == f.compressor
        }) {
            orig += c.record.original_bytes;
            comp += c.record.compressed_bytes;
        }
    }
    if comp == 0 {
        f64::INFINITY
    } else {
        orig as f64 / comp as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cbench::FieldData;
    use crate::codec::{CodecConfig, Shape};
    use lossy_sz::SzConfig;

    fn candidate(field: &str, eb: f64, pk_dev: f64) -> Candidate {
        // Build a real record so the struct stays honest.
        let data: Vec<f32> = (0..512).map(|i| (i as f32 * 0.1).sin()).collect();
        let fd = FieldData::new(field, data, Shape::D1(512)).unwrap();
        let rec =
            crate::cbench::run_one(&fd, &CodecConfig::Sz(SzConfig::abs(eb)), false).unwrap();
        Candidate { record: rec, pk_deviation: Some(pk_dev), halo_deviation: None }
    }

    #[test]
    fn picks_highest_ratio_among_acceptable() {
        // Larger eb -> higher ratio. eb=0.1 acceptable, eb=0.5 acceptable,
        // eb=0.9 fails pk.
        let cands = vec![
            candidate("f", 0.1, 0.001),
            candidate("f", 0.5, 0.008),
            candidate("f", 0.9, 0.05),
        ];
        let fits =
            best_fit_per_field(&cands, CodecKind::Sz, &Acceptance::default()).unwrap();
        assert_eq!(fits.len(), 1);
        assert_eq!(fits[0].param, "param".replace("param", "abs=0.5"));
        assert_eq!(fits[0].acceptable_count, 2);
        assert_eq!(fits[0].total_count, 3);
        let overall = overall_best_ratio(&fits, &cands);
        assert!((overall - fits[0].ratio).abs() < 1e-9);
    }

    #[test]
    fn no_acceptable_config_is_an_error() {
        let cands = vec![candidate("f", 0.1, 0.5)];
        let err = best_fit_per_field(&cands, CodecKind::Sz, &Acceptance::default())
            .unwrap_err();
        assert!(err.to_string().contains("acceptance"));
    }

    #[test]
    fn missing_analyses_count_as_pass() {
        let mut c = candidate("f", 0.1, 0.0);
        c.pk_deviation = None;
        c.halo_deviation = None;
        assert!(c.acceptable(&Acceptance::default()));
    }

    #[test]
    fn fields_are_independent() {
        let cands = vec![
            candidate("a", 0.1, 0.001),
            candidate("a", 0.5, 0.5),
            candidate("b", 0.5, 0.001),
        ];
        let fits =
            best_fit_per_field(&cands, CodecKind::Sz, &Acceptance::default()).unwrap();
        assert_eq!(fits.len(), 2);
        let a = fits.iter().find(|f| f.field == "a").unwrap();
        let b = fits.iter().find(|f| f.field == "b").unwrap();
        assert_eq!(a.param, "abs=0.1");
        assert_eq!(b.param, "abs=0.5");
    }
}

//! The paper's configuration-optimization guideline (§V-D).
//!
//! Given CBench records annotated with post-analysis verdicts (the rule of
//! [`cosmo_analysis::acceptance`]), the guideline is: among all
//! acceptable configurations, pick the one with the **highest compression
//! ratio** — it simultaneously maximizes overall throughput (less data to
//! move) and minimizes storage.

use crate::cbench::{overall_ratio, CBenchRecord};
use crate::codec::CodecKind;
use cosmo_analysis::acceptance::Verdict;
use foresight_util::{Error, Result};

/// A CBench record plus its post-analysis verdict.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The measurement row.
    pub record: CBenchRecord,
    /// The deviations of the analyses that ran.
    pub verdict: Verdict,
}

/// The guideline's outcome for one field.
#[derive(Debug, Clone)]
pub struct BestFit {
    /// The chosen configuration's measurement row.
    pub record: CBenchRecord,
    /// How many candidates were acceptable.
    pub acceptable_count: usize,
    /// How many candidates were evaluated.
    pub total_count: usize,
}

/// Picks the best-fit configuration per field for one compressor. A
/// record that no analysis or policy judged (its verdict ran no test) is
/// never picked, so a field with only such records gets no pick.
///
/// Returns an error if a judged field has no acceptable configuration —
/// the guideline then asks for tighter bounds to be swept.
pub fn best_fit_per_field(candidates: &[Candidate], compressor: CodecKind) -> Result<Vec<BestFit>> {
    let ours: Vec<&Candidate> = (candidates.iter())
        .filter(|c| c.record.compressor == compressor && c.verdict != Verdict::default())
        .collect();
    let mut out: Vec<BestFit> = Vec::new();
    for c in &ours {
        let field = &c.record.field;
        if out.iter().any(|f| &f.record.field == field) {
            continue;
        }
        let of_field: Vec<&Candidate> =
            ours.iter().copied().filter(|c| &c.record.field == field).collect();
        let acceptable: Vec<&Candidate> =
            of_field.iter().copied().filter(|c| c.verdict.acceptable()).collect();
        let best = acceptable.iter().max_by(|a, b| a.record.ratio.total_cmp(&b.record.ratio));
        let best = best.ok_or_else(|| {
            Error::invalid(format!(
                "field '{field}': none of {} configs meets the acceptance criteria; \
                 sweep tighter bounds",
                of_field.len()
            ))
        })?;
        out.push(BestFit {
            record: best.record.clone(),
            acceptable_count: acceptable.len(),
            total_count: of_field.len(),
        });
    }
    Ok(out)
}

/// Dataset-level ratio for a set of per-field best fits (see
/// [`overall_ratio`]).
pub fn overall_best_ratio(fits: &[BestFit]) -> f64 {
    overall_ratio(&fits.iter().map(|f| &f.record).collect::<Vec<_>>())
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
        Candidate { record: rec, verdict: Verdict::pk(pk_dev) }
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
        let fits = best_fit_per_field(&cands, CodecKind::Sz).unwrap();
        assert_eq!(fits.len(), 1);
        assert_eq!(fits[0].record.param, "abs=0.5");
        assert_eq!(fits[0].acceptable_count, 2);
        assert_eq!(fits[0].total_count, 3);
        let overall = overall_best_ratio(&fits);
        assert!((overall - fits[0].record.ratio).abs() < 1e-9);
    }

    #[test]
    fn no_acceptable_config_is_an_error() {
        let cands = vec![candidate("f", 0.1, 0.5)];
        let err = best_fit_per_field(&cands, CodecKind::Sz).unwrap_err();
        assert!(err.to_string().contains("acceptance"));
    }

    #[test]
    fn unjudged_records_are_never_picked() {
        let unjudged = |field: &str, eb: f64| {
            let mut c = candidate(field, eb, 0.0);
            c.verdict = Verdict::default();
            c
        };
        // Nothing judged: no pick at all.
        let none = [unjudged("f", 0.1), unjudged("g", 0.1)];
        assert!(best_fit_per_field(&none, CodecKind::Sz).unwrap().is_empty());
        // The higher-ratio unjudged record loses to the judged one, and a
        // field with no judged record gets no pick.
        let cands = [candidate("f", 0.1, 0.001), unjudged("f", 0.9), unjudged("g", 0.5)];
        let fits = best_fit_per_field(&cands, CodecKind::Sz).unwrap();
        assert_eq!(fits.len(), 1);
        let (pick, counts) = (&fits[0].record.param, (fits[0].acceptable_count, fits[0].total_count));
        assert_eq!((pick.as_str(), counts), ("abs=0.1", (1, 1)));
    }

    #[test]
    fn fields_are_independent() {
        let cands = vec![
            candidate("a", 0.1, 0.001),
            candidate("a", 0.5, 0.5),
            candidate("b", 0.5, 0.001),
        ];
        let fits = best_fit_per_field(&cands, CodecKind::Sz).unwrap();
        assert_eq!(fits.len(), 2);
        let a = fits.iter().find(|f| f.record.field == "a").unwrap();
        let b = fits.iter().find(|f| f.record.field == "b").unwrap();
        assert_eq!(a.record.param, "abs=0.1");
        assert_eq!(b.record.param, "abs=0.5");
    }
}

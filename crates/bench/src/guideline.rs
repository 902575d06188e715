//! §V-D: the full configuration-optimization guideline as a PAT workflow.
//!
//! Runs the paper's three steps end to end through the pipeline runner:
//! (1) CBench sweeps both compressors over the Nyx dataset, (2) the
//! power-spectrum analysis judges each configuration by the acceptance
//! rule, (3) the optimizer picks the highest-ratio acceptable
//! configuration per field. The stages execute as dependent jobs on the
//! simulated SLURM cluster — the whole Fig. 2/3 pipeline in one exhibit.
//! A failed or skipped job, or a field with no acceptable configuration,
//! fails the exhibit.

use crate::prelude::*;
use foresight::{best_fit_per_field, overall_best_ratio, CodecKind};

pub(crate) fn build(ctx: &Ctx) -> Result<Exhibit> {
    let report = pipeline(
        ctx,
        "nyx",
        r#"[{"name": "gpu-sz", "mode": "rel", "bounds": [1e-3, 3e-3, 1e-2]},
            {"name": "cuzfp", "rates": [2, 4, 8]}]"#,
        r#"["power-spectrum"]"#,
    )?;
    let mut table = Table::new(["compressor", "field", "chosen", "ratio", "acceptable/total"]);
    let mut lines = Vec::new();
    for comp in [CodecKind::Sz, CodecKind::Zfp] {
        let fits = best_fit_per_field(&report.candidates, comp)?;
        for f in &fits {
            table.push_row([
                comp.display().to_string(),
                f.record.field.clone(),
                f.record.param.clone(),
                fmt_f64(f.record.ratio),
                format!("{}/{}", f.acceptable_count, f.total_count),
            ]);
        }
        let overall = overall_best_ratio(&fits);
        lines.push(format!("{}: overall best-fit ratio {overall:.2}x", comp.display()));
    }
    let mut ex = Exhibit::default();
    ex.table("bestfit", table, &[("stage", "optimize")]);
    ex.text("overall.txt", lines.join("\n"), &[]);
    Ok(ex)
}

//! Fig. 6: FoF halo-finder analysis on original vs reconstructed HACC
//! data, plus the best-fit HACC configurations (§V-B).
//!
//! A view of the pipeline: `run_pipeline` on the `foresight-cli` config of
//! the paper's sweep (GPU-SZ ABS 0.005-0.1 in box units of 256, cuZFP
//! rates 4-12, `halo-finder`), which codes HACC as cubes, judges positions
//! by the halo mass function, codes velocities by the paper's policy and
//! picks per field (DESIGN §26.4). This renders its report.

use crate::prelude::*;
use foresight::cbench::{overall_ratio, HACC_AXES};
use foresight::{best_fit_per_field, overall_best_ratio, CodecKind};

/// A mass function as (log2 mass bin, halo count) chart points.
fn log2_points(mf: &[(usize, usize)]) -> Vec<(f64, f64)> {
    mf.iter().map(|&(m, c)| ((m as f64).log2(), c as f64)).collect()
}

pub(crate) fn build(ctx: &Ctx) -> Result<Exhibit> {
    let report = pipeline(
        ctx,
        "hacc",
        r#"[{"name": "gpu-sz", "mode": "abs", "bounds": [0.005, 0.025, 0.1]},
            {"name": "cuzfp", "rates": [4, 8, 12]}]"#,
        r#"["halo-finder"]"#,
    )?;
    let (orig, judged) = report.halos.split_first().ok_or(Error::invalid("no halo catalogue"))?;

    let mut curves =
        Table::new(["compressor", "param", "mass_bin", "orig_count", "recon_count", "ratio"]);
    let mut summary =
        Table::new(["compressor", "param", "halos", "worst_ratio_dev", "acceptable", "pos_ratio"]);
    summary.push_row(["original", "-", &orig.halos.to_string(), "-", "-", "-"]);
    let mut series = vec![("orig".to_string(), log2_points(&orig.mass_function))];
    for cat in judged {
        let (comp, param) = cat.config.clone().ok_or(Error::invalid("unlabelled catalogue"))?;
        let positions: Vec<_> = (report.candidates.iter())
            .filter(|c| c.record.compressor == comp && c.record.param == param)
            .filter(|c| HACC_AXES.contains(&c.record.field.as_str()))
            .collect();
        let verdict = positions[0].verdict;
        let worst = verdict.halo_deviation.ok_or(Error::invalid("unjudged positions"))?;
        let pos_ratio = overall_ratio(&positions.iter().map(|c| &c.record).collect::<Vec<_>>());
        let key = [comp.display().to_string(), param];
        for &(mass, oc, rc, r) in &cat.count_ratio {
            let counts = [mass, oc, rc].map(|c| c.to_string());
            curves.push_row(key.iter().cloned().chain(counts).chain([fmt_f64(r)]));
        }
        let row = [cat.halos.to_string(), fmt_f64(worst), verdict.acceptable().to_string()];
        summary.push_row(key.iter().cloned().chain(row).chain([fmt_f64(pos_ratio)]));
        series.push((key.join(":"), log2_points(&cat.mass_function)));
    }

    let mut overall = Vec::new();
    for (comp, paper) in [(CodecKind::Sz, "4.25x"), (CodecKind::Zfp, "4x")] {
        let Ok(fits) = best_fit_per_field(&report.candidates, comp) else {
            overall.push(format!("{}: no acceptable configuration", comp.display()));
            continue;
        };
        let mut chosen: Vec<&str> = (fits.iter())
            .filter(|f| HACC_AXES.contains(&f.record.field.as_str()))
            .map(|f| f.record.param.as_str())
            .collect();
        chosen.dedup();
        overall.push(format!(
            "{}: best-fit position config {} -> overall HACC ratio {:.2}x (paper: {paper})",
            comp.display(),
            chosen.join("/"),
            overall_best_ratio(&fits),
        ));
    }

    let mut ex = Exhibit::default();
    ex.table("fig6_curves", curves, &[("exhibit", "fig6")]);
    ex.table("fig6_summary", summary, &[("exhibit", "fig6")]);
    ex.text("fig6_massfunction.txt", chart(&series, 90, 22), &[]);
    ex.text("fig6_overall.txt", overall.join("\n"), &[]);
    Ok(ex)
}

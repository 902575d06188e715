//! Fig. 5: power spectrum analysis of reconstructed Nyx fields, plus the
//! best-fit configuration selection (§V-B).
//!
//! Six spectra as in the paper: baryon density, dark matter density,
//! overall density (sum of the two), temperature, velocity magnitude, and
//! velocity z. cuZFP sweeps fixed rates {1,2,4,8}; GPU-SZ sweeps
//! error-bound levels. A configuration is acceptable when every shell of
//! every spectrum it influences stays within the paper's 1±1% band; among
//! acceptable configurations the highest-ratio one wins, and the overall
//! dataset ratio is reported (paper: 10.7x for cuZFP vs 15.4x for GPU-SZ).

use crate::prelude::*;
use foresight::{best_fit_per_field, overall_best_ratio, Candidate, CodecKind};
use std::collections::HashMap;

const ZFP_RATES: [f64; 4] = [1.0, 2.0, 4.0, 8.0];
const SZ_REL_LEVELS: [f64; 4] = [3e-2, 1e-2, 3e-3, 1e-3];

/// The six spectra and which native fields feed each.
const SPECTRA: [(&str, &[&str]); 6] = [
    ("baryon_density", &["baryon_density"]),
    ("dark_matter_density", &["dark_matter_density"]),
    ("overall_density", &["baryon_density", "dark_matter_density"]),
    ("temperature", &["temperature"]),
    ("velocity_magnitude", &["velocity_x", "velocity_y", "velocity_z"]),
    ("velocity_z", &["velocity_z"]),
];

/// Derived spectrum input from a map of (possibly reconstructed) fields.
fn spectrum_input<V: AsRef<[f32]>>(name: &str, f: &HashMap<&str, V>) -> Vec<f32> {
    let f = |name: &str| f[name].as_ref();
    match name {
        "overall_density" => {
            f("baryon_density").iter().zip(f("dark_matter_density")).map(|(a, b)| a + b).collect()
        }
        "velocity_magnitude" => {
            velocity_magnitude(f("velocity_x"), f("velocity_y"), f("velocity_z"))
        }
        other => f(other).to_vec(),
    }
}

/// One configuration applied to every field: its compressor, its label
/// and, per spectrum in `SPECTRA` order, the pk ratio curve.
type Level = (&'static str, String, Vec<Vec<(f64, f64)>>);

pub(crate) fn build(ctx: &Ctx) -> Result<Exhibit> {
    let grid = Grid3::cube(ctx.cli.n_side);
    let box_size = ctx.cli.synth().box_size;
    let (snap, fields) = ctx.nyx()?;
    let orig_fields: HashMap<&str, &[f32]> = snap.fields().into_iter().collect();
    let orig = SPECTRA
        .iter()
        .map(|(name, _)| spectrum_input(name, &orig_fields))
        .map(|input| acceptance::spectrum(&input, grid, box_size))
        .collect::<Result<Vec<_>>>()?;
    let configs = (ZFP_RATES.map(|r| CodecConfig::Zfp(ZfpConfig::rate(r))).into_iter())
        .chain(SZ_REL_LEVELS.map(|b| CodecConfig::Sz(SzConfig::rel(b))));
    let mut curves = Table::new(["compressor", "level", "spectrum", "k", "pk_ratio"]);
    let mut summary = Table::new(["compressor", "level", "spectrum", "max_dev", "acceptable"]);
    let (mut levels, mut candidates): (Vec<Level>, _) = (Vec::new(), Vec::new());
    for cfg in configs {
        let (comp, label) = (cfg.id().display(), cfg.param_label());
        let (mut recon, mut records) = (HashMap::new(), Vec::new());
        for f in fields {
            let (rec, data) = roundtrip(f, &cfg)?;
            records.push(rec);
            recon.insert(f.name.as_str(), data);
        }
        let mut spectra = Vec::new();
        for ((spectrum, _), o) in SPECTRA.iter().zip(&orig) {
            let input = spectrum_input(spectrum, &recon);
            let (curve, dev) = acceptance::pk_curve(o, &input, grid, box_size)?;
            let key = [comp.to_string(), label.clone(), spectrum.to_string()];
            for &(k, r) in &curve {
                curves.push_row(key.iter().cloned().chain([fmt_f64(k), fmt_f64(r)]));
            }
            let accepted = Verdict::pk(dev).acceptable().to_string();
            summary.push_row(key.into_iter().chain([fmt_f64(dev), accepted]));
            spectra.push(curve);
        }
        // A field's pk deviation is the worst shell of every spectrum it feeds.
        for record in records {
            let fed: Vec<(f64, f64)> = (SPECTRA.iter().zip(&spectra))
                .filter(|((_, from), _)| from.contains(&record.field.as_str()))
                .flat_map(|(_, curve)| curve.iter().copied())
                .collect();
            let verdict = Verdict::pk(acceptance::pk_deviation(&fed));
            candidates.push(Candidate { record, verdict });
        }
        levels.push((comp, label, spectra));
    }

    // Best fit per field per compressor, then the overall dataset ratio.
    let mut bestfit = Table::new(["compressor", "field", "chosen", "field_ratio"]);
    let mut overall = Vec::new();
    for (comp, paper) in [(CodecKind::Zfp, "10.7x"), (CodecKind::Sz, "15.4x")] {
        let (name, mut fits) = (comp.display(), Vec::new());
        for f in fields {
            let of_field: Vec<_> =
                candidates.iter().filter(|c| c.record.field == f.name).cloned().collect();
            let [chosen, ratio] = match best_fit_per_field(&of_field, comp) {
                Ok(fit) => {
                    let row = [fit[0].record.param.clone(), fmt_f64(fit[0].record.ratio)];
                    fits.extend(fit);
                    row
                }
                Err(_) => ["none acceptable".to_string(), "-".to_string()],
            };
            bestfit.push_row([name.to_string(), f.name.clone(), chosen, ratio]);
        }
        overall.push(if fits.len() == fields.len() {
            format!(
                "{name}: overall best-fit compression ratio = {:.2}x (paper at 512^3: {paper} )",
                overall_best_ratio(&fits)
            )
        } else {
            format!("{name}: some field had no acceptable config")
        });
    }

    let mut ex = Exhibit::default();
    for (i, (spectrum, _)) in SPECTRA.iter().enumerate() {
        let chart_for = |comp: &str| {
            let series: Vec<_> = levels
                .iter()
                .filter(|l| l.0 == comp)
                .map(|l| (l.1.clone(), l.2[i].clone()))
                .collect();
            chart(&series, 90, 20)
        };
        let txt = format!(
            "pk ratio vs k — {spectrum}\n\ncuZFP:\n{}\nGPU-SZ:\n{}",
            chart_for("cuZFP"),
            chart_for("GPU-SZ")
        );
        ex.text(&format!("pk_{spectrum}.txt"), txt, &[("spectrum", spectrum)]);
    }
    ex.table("fig5_curves", curves, &[("exhibit", "fig5")]);
    ex.table("fig5_acceptance", summary, &[("exhibit", "fig5")]);
    ex.table("fig5_bestfit", bestfit, &[("exhibit", "fig5")]);
    ex.text("fig5_overall.txt", overall.join("\n"), &[]);
    Ok(ex)
}

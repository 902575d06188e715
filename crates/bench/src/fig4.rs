//! Fig. 4: rate-distortion (PSNR vs bitrate) of GPU-SZ and cuZFP on the
//! Nyx (a) and HACC (b) datasets.
//!
//! Policies mirror the paper (§IV-B, §V-A): Nyx fields and HACC position
//! fields compress with GPU-SZ in error-bounded mode (a sweep of
//! value-range-relative bounds produces the curve); HACC velocity fields
//! use PW_REL via the log transform; cuZFP sweeps fixed rates. HACC 1-D
//! arrays are reshaped to 3-D cubes first.

use crate::prelude::*;

const SZ_REL_BOUNDS: [f64; 6] = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 1e-4];
const SZ_PWREL_BOUNDS: [f64; 6] = [0.25, 0.1, 0.03, 0.01, 0.003, 0.001];
const ZFP_RATES: [f64; 6] = [1.0, 2.0, 4.0, 8.0, 12.0, 16.0];

pub(crate) fn build(ctx: &Ctx) -> Result<Exhibit> {
    let mut table =
        Table::new(["dataset", "field", "compressor", "param", "bitrate", "psnr_db", "ratio"]);
    let (_, nyx) = ctx.nyx()?;
    let hacc = (ctx.hacc()?.fields().into_iter())
        .map(|(name, data)| cubed(name, data))
        .collect::<Result<Vec<_>>>()?;
    let zfp = ZFP_RATES.map(|r| CodecConfig::Zfp(ZfpConfig::rate(r)));
    let mut charts = Vec::new();
    for (dataset, panel, fields) in [("nyx", "a", nyx), ("hacc", "b", &hacc[..])] {
        let mut series = Vec::new();
        for f in fields {
            let sz = if dataset == "hacc" && f.name.starts_with('v') {
                SZ_PWREL_BOUNDS.map(|b| CodecConfig::Sz(SzConfig::pw_rel(b)))
            } else {
                SZ_REL_BOUNDS.map(|b| CodecConfig::Sz(SzConfig::rel(b)))
            };
            for (prefix, configs) in [("SZ", &sz), ("ZFP", &zfp)] {
                let mut curve = Vec::new();
                for cfg in configs {
                    let rec = run_one(f, cfg, false)?;
                    table.push_row([
                        dataset.to_string(),
                        f.name.clone(),
                        rec.compressor.display().to_string(),
                        rec.param.clone(),
                        fmt_f64(rec.bitrate),
                        fmt_f64(rec.distortion.psnr),
                        fmt_f64(rec.ratio),
                    ]);
                    curve.push((rec.bitrate, rec.distortion.psnr));
                }
                series.push((format!("{prefix}:{}", f.name), curve));
            }
        }
        charts.push((format!("fig4{panel}_{dataset}.txt"), panel, chart(&series, 100, 28)));
    }
    let mut ex = Exhibit::default();
    ex.table("fig4", table, &[("exhibit", "fig4")]);
    for (file, panel, text) in charts {
        ex.text(&file, text, &[("panel", panel)]);
    }
    Ok(ex)
}

//! Extension experiments beyond the paper's main exhibits:
//!
//! 1. **Decimation vs lossy** — the introduction's motivating claim:
//!    decimation at the same storage budget loses far more information
//!    than error-bounded lossy compression.
//! 2. **Correlation function** — ξ(r), the real-space twin of the power
//!    spectrum (§III), as an extra post-analysis acceptance metric.

use crate::prelude::*;
use cosmo_analysis::{correlation_function_f32, distortion, Distortion};
use cosmo_data::decimate;

pub(crate) fn build(ctx: &Ctx) -> Result<Exhibit> {
    let field = &ctx.nyx()?.1[0];
    let sz = |eb: f64| CodecConfig::Sz(SzConfig::rel(eb));

    // 1. Decimation vs lossy at matched storage.
    let mut t1 = Table::new(["method", "ratio", "psnr_db", "max_abs_err"]);
    let row = |method: String, ratio: f64, d: &Distortion| {
        [method, fmt_f64(ratio), fmt_f64(d.psnr), fmt_f64(d.max_abs_err)]
    };
    for k in [2usize, 4, 8] {
        let kept = decimate::stride_decimate(&field.data, k)?;
        let rec = decimate::stride_reconstruct(&kept, k, field.data.len())?;
        let ratio = decimate::stride_ratio(k, field.data.len());
        t1.push_row(row(format!("decimation k={k}"), ratio, &distortion(&field.data, &rec)));
        // A lossy configuration tuned to roughly the same ratio.
        let mut eb = 1e-3;
        for _ in 0..24 {
            let rec = run_one(field, &sz(eb), false)?;
            if rec.ratio >= k as f64 {
                let method = format!("GPU-SZ at >= {k}x ({})", rec.param);
                t1.push_row(row(method, rec.ratio, &rec.distortion));
                break;
            }
            eb *= 1.8;
        }
    }

    // 2. Correlation-function preservation.
    let grid = Grid3::cube(ctx.cli.n_side);
    let box_size = ctx.cli.synth().box_size;
    let orig_xi = correlation_function_f32(&field.data, grid, box_size, 8)?;
    let mut t2 = Table::new(["config", "ratio", "worst_xi_rel_dev"]);
    for rel in [1e-3f64, 1e-2, 3e-2] {
        let (rec, recon) = roundtrip(field, &sz(rel))?;
        let xi = correlation_function_f32(&recon, grid, box_size, 8)?;
        let dev = orig_xi
            .iter()
            .zip(&xi)
            .map(|(a, b)| if a.xi.abs() > 1e-12 { ((b.xi - a.xi) / a.xi).abs() } else { 0.0 })
            .fold(0.0f64, f64::max);
        t2.push_row([format!("rel={rel}"), fmt_f64(rec.ratio), fmt_f64(dev)]);
    }

    let mut ex = Exhibit::default();
    ex.table("decimation_vs_lossy", t1, &[("experiment", "decimation")]);
    ex.table("correlation_preservation", t2, &[("experiment", "xi")]);
    Ok(ex)
}

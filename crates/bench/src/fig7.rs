//! Fig. 7: breakdown of cuZFP compression and decompression time (init /
//! kernel / memcpy / free) on the Nyx dataset, per bitrate, plus the
//! no-compression transfer baseline.
//!
//! The real ZFP codec runs on the generated `--n-side` data to obtain the
//! achieved bitrate; the V100 device model is then evaluated at the
//! paper's `--sim-side` (default 512^3 values per field — the device model
//! is linear in volume, so this is an exact extrapolation, see DESIGN.md).

use crate::prelude::*;
use gpu_sim::{baseline_transfer_seconds, Breakdown, Device, GpuSpec};

const RATES: [f64; 4] = [1.0, 2.0, 4.0, 8.0];

pub(crate) fn build(ctx: &Ctx) -> Result<Exhibit> {
    let (_, fields) = ctx.nyx()?;
    let n_sim = (ctx.cli.sim_side as u64).pow(3);
    let baseline = baseline_transfer_seconds(&Device::new(GpuSpec::tesla_v100()), n_sim);
    let cols = ["field", "rate", "init_ms", "kernel_ms", "memcpy_ms", "free_ms", "total_ms"];
    let mut comp = Table::new(cols.into_iter().chain(["baseline_ms"]));
    let mut decomp = Table::new(cols);
    let ms =
        |b: Breakdown| [b.init, b.kernel, b.memcpy, b.free, b.total()].map(|s| fmt_f64(s * 1e3));
    for f in fields {
        for rate in RATES {
            // The real codec's achieved bitrate (fixed-rate ZFP: the user
            // rate plus a small container overhead).
            let bits = run_one(f, &CodecConfig::Zfp(ZfpConfig::rate(rate)), false)?.bitrate;
            let (c, d) = simulate(ZFP_KERNELS, n_sim, bits)?;
            let key = [f.name.clone(), format!("{rate}")];
            comp.push_row(key.iter().cloned().chain(ms(c)).chain([fmt_f64(baseline * 1e3)]));
            decomp.push_row(key.into_iter().chain(ms(d)));
        }
    }
    let mut ex = Exhibit::default();
    ex.table("fig7a_compress", comp, &[("panel", "a")]);
    ex.table("fig7b_decompress", decomp, &[("panel", "b")]);
    Ok(ex)
}

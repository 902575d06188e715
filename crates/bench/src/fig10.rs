//! Fig. 10: cuZFP kernel vs overall throughput as a function of bitrate
//! on the Nyx dataset (V100), against the no-compression transfer
//! baseline.
//!
//! The paper's observations to reproduce: both kernel and overall
//! throughput fall as bitrate rises; overall sits far below kernel
//! because PCIe transfers dominate; every compressed configuration still
//! beats shipping raw data (the baseline), and lower bitrate widens the
//! gap — the throughput half of the §V-D guideline. The codec runs on the
//! real `--n-side` data; the device model is evaluated at the paper's
//! `--sim-side` volume.

use crate::prelude::*;
use gpu_sim::{baseline_transfer_seconds, Device, GpuSpec};

const RATES: [f64; 6] = [1.0, 2.0, 4.0, 6.0, 8.0, 12.0];

pub(crate) fn build(ctx: &Ctx) -> Result<Exhibit> {
    let (_, fields) = ctx.nyx()?;
    let n_sim = (ctx.cli.sim_side as u64).pow(3) * fields.len() as u64;
    let gbs = |secs: f64| (n_sim * 4) as f64 / 1e9 / secs;
    let baseline = gbs(baseline_transfer_seconds(&Device::new(GpuSpec::tesla_v100()), n_sim));

    let mut t = Table::new([
        "rate",
        "comp_kernel_gbs",
        "comp_overall_gbs",
        "decomp_kernel_gbs",
        "decomp_overall_gbs",
        "baseline_gbs",
    ]);
    let (mut kernel, mut overall) = (Vec::new(), Vec::new());
    for rate in RATES {
        let bits = mean_bitrate(fields, &CodecConfig::Zfp(ZfpConfig::rate(rate)))?;
        let (c, d) = simulate(ZFP_KERNELS, n_sim, bits)?;
        let row = [c.kernel, c.total(), d.kernel, d.total()].map(|s| fmt_f64(gbs(s)));
        t.push_row([format!("{rate}")].into_iter().chain(row).chain([fmt_f64(baseline)]));
        kernel.push((rate, gbs(c.kernel)));
        overall.push((rate, gbs(c.total())));
    }
    let base = RATES.map(|r| (r, baseline));
    let series = [("kernel", &kernel[..]), ("overall", &overall[..]), ("baseline", &base[..])];
    let mut ex = Exhibit::default();
    ex.table("fig10", t, &[("exhibit", "fig10")]);
    ex.text("fig10.txt", ascii_chart(&series, 90, 22), &[]);
    Ok(ex)
}

//! Fig. 9: cuZFP kernel throughput across the seven GPUs of Table I
//! (compression and decompression, rate 4), from the gpu-sim timing
//! model.
//!
//! The paper's observation to reproduce: kernel throughput ranks with
//! hardware capability (memory bandwidth, shader count, peak FP32) across
//! GPU generations; transfer time is identical since every card sits on
//! PCIe 3.0 x16.

use crate::prelude::*;
use gpu_sim::{kernel_throughput_gbs, table1, KernelKind};

pub(crate) fn build(ctx: &Ctx) -> Result<Exhibit> {
    let n_values = (ctx.cli.n_side as u64).pow(3) * 6; // six Nyx fields
    let mut t = Table::new(["GPU", "compress_gbs", "decompress_gbs", "mem_bw_gbs"]);
    let mut comp_series = Vec::new();
    for (i, g) in table1().iter().enumerate() {
        let c = kernel_throughput_gbs(g, KernelKind::ZfpCompress, n_values, 4.0);
        let d = kernel_throughput_gbs(g, KernelKind::ZfpDecompress, n_values, 4.0);
        t.push_row([g.name.to_string(), fmt_f64(c), fmt_f64(d), format!("{}", g.memory_bw_gbs)]);
        comp_series.push((i as f64, c));
    }
    let mut ex = Exhibit::default();
    ex.table("fig9", t, &[("exhibit", "fig9")]);
    ex.text("fig9.txt", ascii_chart(&[("compress", &comp_series)], 80, 16), &[]);
    Ok(ex)
}

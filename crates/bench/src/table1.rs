//! Table I: specifications of the GPUs used in the paper, from `gpu-sim`.
//! These specs parameterize every GPU timing experiment (figs. 7-10).

use crate::prelude::*;

pub(crate) fn build(_: &Ctx) -> Result<Exhibit> {
    let mut t = Table::new([
        "GPU",
        "Release",
        "Architecture",
        "Compute Capability",
        "Memory (GB)",
        "Shaders",
        "Peak FP32 (TFLOPS)",
        "Memory B/W (GB/s)",
    ]);
    for g in gpu_sim::table1() {
        t.push_row([
            g.name.to_string(),
            format!("c. {}", g.year),
            format!("{:?}", g.arch),
            format!("{:.1}", g.compute_capability),
            format!("{}", g.memory_gb),
            g.shaders.to_string(),
            format!("{}", g.fp32_tflops),
            format!("{}", g.memory_bw_gbs),
        ]);
    }
    let mut ex = Exhibit::default();
    ex.table("table1", t, &[("exhibit", "table1")]);
    Ok(ex)
}

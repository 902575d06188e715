//! Summit-scale projection: the paper's introduction and §V-C numbers.
//!
//! Reproduces (1) the storage/I-O math that motivates the whole study —
//! a trillion-particle HACC campaign writes 22 PB and takes >10 hours of
//! I/O at 500 GB/s, cut to ~1 hour by a 10-15x lossy ratio — and (2) the
//! in-situ overhead comparison: multicore-CPU SZ costs >10% of each 10 s
//! timestep on 1024 nodes, six V100s running cuZFP cost <0.3%.

use crate::prelude::*;
use foresight_util::timer::format_bytes;
use gpu_sim::{kernel_time, GpuSpec, KernelKind, PcieLink};

/// The introduction's trillion-particle HACC campaign: bytes per
/// snapshot and snapshots per campaign.
const SNAPSHOT_BYTES: u64 = 220_000_000_000_000;
const SNAPSHOTS: u64 = 100;
/// §V-C's machine: 1024 Summit nodes of six V100s each.
const NODES: usize = 1024;
const GPUS_PER_NODE: usize = 6;

/// Campaign I/O hours for `total_bytes` at `bw_gbs`, divided by a
/// compression ratio.
fn io_hours(total_bytes: u64, bw_gbs: f64, compression_ratio: f64) -> f64 {
    total_bytes as f64 / compression_ratio / 1e9 / bw_gbs / 3600.0
}

/// Aggregate compression throughput of `gpus` V100s (GB/s of
/// uncompressed data): per GPU, the kernel time for a representative
/// 512 MB buffer plus shipping the compressed bytes over the GPU's own
/// PCIe gen3 x16 link.
fn gpu_aggregate_gbs(gpus: usize, kind: KernelKind, bits_per_value: f64) -> f64 {
    let n: u64 = 128 * 1024 * 1024; // 512 MB of f32 per kernel call
    let kernel = kernel_time(&GpuSpec::tesla_v100(), kind, n, bits_per_value);
    let comp_bytes = (n as f64 * bits_per_value / 8.0) as u64;
    let transfer = PcieLink::gen3_x16().transfer_time(comp_bytes);
    let per_gpu = (n as f64 * 4.0) / 1e9 / (kernel + transfer);
    per_gpu * gpus as f64
}

/// Seconds to compress one snapshot at the given aggregate throughput.
fn compression_seconds(snapshot_bytes: u64, aggregate_gbs: f64) -> f64 {
    snapshot_bytes as f64 / 1e9 / aggregate_gbs
}

/// Fraction of a timestep spent compressing.
fn overhead_fraction(snapshot_bytes: u64, aggregate_gbs: f64, timestep_seconds: f64) -> f64 {
    compression_seconds(snapshot_bytes, aggregate_gbs) / timestep_seconds
}

pub(crate) fn build(_: &Ctx) -> Result<Exhibit> {
    // --- Intro storage math. ---
    let total = SNAPSHOT_BYTES * SNAPSHOTS;
    let mut t1 = Table::new(["quantity", "value", "paper"]);
    t1.push_row(["snapshot size".into(), format_bytes(SNAPSHOT_BYTES), "220 TB".to_string()]);
    t1.push_row(["campaign total (100 snapshots)".into(), format_bytes(total), "22 PB".into()]);
    let lossy = [5.0, 10.0, 15.0].map(|r| (format!("{r}x lossy"), r, "-"));
    for (what, ratio, paper) in
        [("uncompressed".to_string(), 1.0, ">10 hours")].into_iter().chain(lossy)
    {
        let hours = fmt_f64(io_hours(total, 500.0, ratio));
        t1.push_row([format!("I/O hours at 500 GB/s, {what}"), hours, paper.into()]);
    }

    // --- §V-C in-situ overhead. ---
    let gpus = GPUS_PER_NODE * NODES;
    let snapshot = 2_500_000_000_000u64; // 2.5 TB per snapshot
    let timestep = 10.0; // seconds
    let mut t2 = Table::new([
        "configuration",
        "aggregate throughput (TB/s)",
        "compress seconds",
        "overhead of 10 s step",
        "paper",
    ]);
    let cpu_agg = 2.0 * NODES as f64; // ~2 GB/s per node
    let cpu = ("SZ on CPUs (64 cores/node x 1024 nodes)".to_string(), cpu_agg, 1, "~2 TB/s, >10%");
    let gpu = [2.0, 4.0].map(|rate| {
        let name = format!("cuZFP on 6 x V100 x 1024 nodes (rate {rate})");
        (name, gpu_aggregate_gbs(gpus, KernelKind::ZfpCompress, rate), 3, "<0.3%")
    });
    for (name, agg, digits, paper) in [cpu].into_iter().chain(gpu) {
        let overhead = overhead_fraction(snapshot, agg, timestep) * 100.0;
        let secs = fmt_f64(compression_seconds(snapshot, agg));
        t2.push_row([
            name,
            fmt_f64(agg / 1000.0),
            secs,
            format!("{overhead:.digits$}%"),
            paper.into(),
        ]);
    }
    let mut ex = Exhibit::default();
    ex.table("intro_storage", t1, &[("scenario", "intro")]);
    ex.table("summit_overhead", t2, &[("scenario", "v-c")]);
    Ok(ex)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intro_io_math_reproduces() {
        // 22 PB at 500 GB/s: the paper says "would exceed 10 hours".
        let total = SNAPSHOT_BYTES * SNAPSHOTS;
        assert_eq!(total, 22_000_000_000_000_000);
        let hours = io_hours(total, 500.0, 1.0);
        assert!(hours > 10.0, "paper: >10 hours, got {hours:.1}");
        // A 10x lossy ratio brings it close to one hour.
        let compressed = io_hours(total, 500.0, 10.0);
        assert!(compressed < 1.5, "got {compressed:.2}");
    }

    #[test]
    fn summit_overhead_claim_reproduces() {
        // 2.5 TB snapshot every 10 s on 1024 nodes. CPU SZ at ~2 TB/s
        // aggregate -> >10% overhead; six V100s/node with cuZFP -> <0.3%.
        let snapshot = 2_500_000_000_000u64;
        let cpu_aggregate = 2.0 * NODES as f64; // ~2 GB/s/node
        let cpu_overhead = overhead_fraction(snapshot, cpu_aggregate, 10.0);
        assert!(cpu_overhead > 0.10, "paper: >10%, got {:.1}%", cpu_overhead * 100.0);
        let gpu_aggregate = gpu_aggregate_gbs(GPUS_PER_NODE * NODES, KernelKind::ZfpCompress, 4.0);
        let gpu_overhead = overhead_fraction(snapshot, gpu_aggregate, 10.0);
        assert!(gpu_overhead < 0.003, "paper: <0.3%, got {:.3}%", gpu_overhead * 100.0);
        // And the improvement factor is in the paper's "1/40" ballpark.
        let factor = cpu_overhead / gpu_overhead;
        assert!(factor > 20.0, "improvement factor {factor:.0}");
    }

    #[test]
    fn throughput_scales_with_nodes_and_gpus() {
        let base = gpu_aggregate_gbs(GPUS_PER_NODE * NODES, KernelKind::ZfpCompress, 4.0);
        let doubled = gpu_aggregate_gbs(GPUS_PER_NODE * 2048, KernelKind::ZfpCompress, 4.0);
        assert!((doubled / base - 2.0).abs() < 1e-9);
        let halved = gpu_aggregate_gbs(3 * NODES, KernelKind::ZfpCompress, 4.0);
        assert!((halved / base - 0.5).abs() < 1e-9);
    }
}

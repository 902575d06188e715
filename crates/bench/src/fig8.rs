//! Fig. 8: compression/decompression throughput of SZ and ZFP on CPU vs
//! the simulated Tesla V100 GPU.
//!
//! CPU rows are *measured* wall-clock runs of this repository's codecs in
//! a rayon pool of the requested width (1 core, all host cores), plus a
//! modeled 20-core Xeon Gold 6148 row that extrapolates the 1-core
//! measurement with a 0.85 parallel efficiency — the paper's CPU
//! baseline. All of them depend on the host, so they form the wall-clock
//! table. GPU rows run the real codec to get achieved bitrates and
//! evaluate the V100 device model at the paper's `--sim-side` volume:
//! the deterministic table.
//!
//! The paper's qualitative result to reproduce: GPU cuZFP beats even the
//! multicore CPU by a large factor including PCIe transfer; CPU-ZFP has
//! no parallel decompression (N/A, as in the paper).

use crate::prelude::*;
use foresight::cbench::FieldData;
use foresight::codec::{compress, decompress};
use foresight_util::parallel::with_threads;
use foresight_util::timer::time;
use gpu_sim::{CpuSpec, KernelKind};

const PAR_EFF: f64 = 0.85;

/// Measured (compress, decompress) GB/s over all fields with `threads`.
fn measure_cpu(fields: &[FieldData], cfg: &CodecConfig, threads: usize) -> Result<(f64, f64)> {
    with_threads(threads, || {
        let (mut bytes, mut c_secs, mut d_secs) = (0u64, 0.0, 0.0);
        for f in fields {
            let (stream, cs) = time(|| compress(&f.data, f.shape, cfg));
            let stream = stream?;
            let (out, ds) = time(|| decompress(&stream));
            out?;
            bytes += (f.data.len() * 4) as u64;
            c_secs += cs;
            d_secs += ds;
        }
        Ok((bytes as f64 / 1e9 / c_secs, bytes as f64 / 1e9 / d_secs))
    })
}

pub(crate) fn build(ctx: &Ctx) -> Result<Exhibit> {
    let (_, fields) = ctx.nyx()?;
    // Best-fit-style Nyx configs (§V-B), reused here as the paper does.
    let sz = CodecConfig::Sz(SzConfig::rel(1e-3));
    let zfp = CodecConfig::Zfp(ZfpConfig::rate(4.0));
    let header = ["configuration", "compress_gbs", "decompress_gbs", "note"];
    let xeon = CpuSpec::xeon_gold_6148();
    let modeled = format!("{} x {}, modeled", xeon.cores, xeon.name);
    let scale = xeon.cores as f64 * PAR_EFF;

    let eff = format!("1-core measurement x {} x {PAR_EFF} efficiency", xeon.cores);
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut cpu = Table::new(header);
    for (codec, cfg) in [("SZ", &sz), ("ZFP", &zfp)] {
        // OpenMP ZFP had no parallel decompression (paper): N/A.
        let decomp = |gbs: f64| if codec == "ZFP" { "N/A".to_string() } else { fmt_f64(gbs) };
        let (c1, d1) = measure_cpu(fields, cfg, 1)?;
        cpu.push_row([format!("{codec} CPU (1 core)"), fmt_f64(c1), decomp(d1), "measured".into()]);
        if host_cores > 1 {
            let (c, d) = measure_cpu(fields, cfg, host_cores)?;
            let name = format!("{codec} CPU ({host_cores} cores)");
            cpu.push_row([name, fmt_f64(c), decomp(d), "measured".into()]);
        }
        let name = format!("{codec} CPU ({modeled})");
        cpu.push_row([name, fmt_f64(c1 * scale), decomp(d1 * scale), eff.clone()]);
    }

    // GPU rows at paper-scale volume (device model is linear in volume).
    let n_sim = (ctx.cli.sim_side as u64).pow(3) * fields.len() as u64;
    let gbs = |secs: f64| (n_sim * 4) as f64 / 1e9 / secs;
    let mut gpu = Table::new(header);
    let sz_kernels = (KernelKind::SzCompress, KernelKind::SzDecompress);
    let excluded = "prototype model; paper excludes GPU-SZ throughput (unoptimized layout)";
    let models = [
        ("cuZFP", &zfp, ZFP_KERNELS, "device model at paper volume"),
        ("GPU-SZ", &sz, sz_kernels, excluded),
    ];
    for (name, cfg, kernels, note) in models {
        let (c, d) = simulate(kernels, n_sim, mean_bitrate(fields, cfg)?)?;
        let decomp = if name == "GPU-SZ" { "-".to_string() } else { fmt_f64(gbs(d.total())) };
        let name = format!("{name} GPU (V100, incl. PCIe)");
        gpu.push_row([name, fmt_f64(gbs(c.total())), decomp, note.into()]);
    }

    let mut ex = Exhibit::default();
    ex.table("fig8", gpu, &[("exhibit", "fig8")]);
    ex.wall_table("fig8", cpu, &[("exhibit", "fig8")]);
    Ok(ex)
}

//! Tests pinning the paper's key *qualitative* claims, end to end.
//! Each test names the section/figure it checks. Absolute numbers differ
//! from the paper (synthetic data, scaled-down grids — see EXPERIMENTS.md);
//! the claims below are about shapes and orderings, which must hold.

use cosmo_data::{generate_nyx, SynthOptions};
use foresight::cbench::{run_one, FieldData};
use foresight::codec::{CodecConfig, Shape};
use gpu_sim::{kernel_throughput_gbs, table1, Device, GpuSpec, KernelKind, PcieLink};
use lossy_sz::SzConfig;
use lossy_zfp::ZfpConfig;

fn nyx_field(n: usize, which: &str) -> FieldData {
    let snap =
        generate_nyx(&SynthOptions { n_side: n, box_size: 256.0, seed: 777, steps: 6 }).unwrap();
    let data = snap.fields().iter().find(|(f, _)| *f == which).unwrap().1.to_vec();
    FieldData::new(which, data, Shape::D3(n, n, n)).unwrap()
}

/// §V-A / Fig. 4a: on Nyx's concentrated-distribution fields, GPU-SZ gives
/// higher PSNR than cuZFP at (approximately) the same bitrate.
#[test]
fn sz_beats_zfp_on_concentrated_nyx_fields() {
    let field = nyx_field(32, "baryon_density");
    for rate in [2.0f64, 4.0] {
        let zfp = run_one(&field, &CodecConfig::Zfp(ZfpConfig::rate(rate)), false).unwrap();
        // Find an SZ bound whose bitrate is at most ZFP's.
        let mut best_sz_psnr: f64 = 0.0;
        for rel in [1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4] {
            let sz = run_one(&field, &CodecConfig::Sz(SzConfig::rel(rel)), false).unwrap();
            if sz.bitrate <= zfp.bitrate {
                best_sz_psnr = best_sz_psnr.max(sz.distortion.psnr);
            }
        }
        assert!(
            best_sz_psnr > zfp.distortion.psnr,
            "rate {rate}: SZ {best_sz_psnr:.1} dB should beat ZFP {:.1} dB at <= bitrate",
            zfp.distortion.psnr
        );
    }
}

/// §V-A: rate-distortion is monotone — more bits, higher PSNR (both codecs).
#[test]
fn rate_distortion_monotonicity() {
    let field = nyx_field(32, "temperature");
    let mut last = 0.0;
    for rate in [1.0, 2.0, 4.0, 8.0, 16.0] {
        let rec = run_one(&field, &CodecConfig::Zfp(ZfpConfig::rate(rate)), false).unwrap();
        assert!(rec.distortion.psnr > last, "zfp rate {rate}");
        last = rec.distortion.psnr;
    }
    let mut last = 0.0;
    for rel in [1e-1, 1e-2, 1e-3, 1e-4] {
        let rec = run_one(&field, &CodecConfig::Sz(SzConfig::rel(rel)), false).unwrap();
        assert!(rec.distortion.psnr > last, "sz rel {rel}");
        last = rec.distortion.psnr;
    }
}

/// §V-B: higher PSNR does not imply acceptable post-analysis — the
/// error-bounded and fixed-rate modes distribute error differently, so the
/// PSNR ordering and the pk-ratio ordering can disagree. We verify the
/// weaker, structural form the paper demonstrates: two configurations
/// where the PSNR winner is not the pk-deviation winner.
#[test]
fn psnr_is_not_a_sufficient_quality_metric() {
    use cosmo_analysis::{pk_ratio, power_spectrum_f32};
    use cosmo_fft::Grid3;
    let n = 32;
    let field = nyx_field(n, "baryon_density");
    let grid = Grid3::cube(n);
    let orig_pk = power_spectrum_f32(&field.data, grid, 256.0, 8).unwrap();
    let eval = |cfg: &CodecConfig| -> (f64, f64) {
        let rec = run_one(&field, cfg, true).unwrap();
        let pk =
            power_spectrum_f32(rec.reconstructed.as_ref().unwrap(), grid, 256.0, 8).unwrap();
        let dev = pk_ratio(&orig_pk, &pk)
            .unwrap()
            .iter()
            .map(|&(_, r)| (r - 1.0).abs())
            .fold(0.0f64, f64::max);
        (rec.distortion.psnr, dev)
    };
    // A spread of configurations across both codecs.
    let configs = [
        CodecConfig::Sz(SzConfig::rel(1e-2)),
        CodecConfig::Sz(SzConfig::rel(1e-3)),
        CodecConfig::Zfp(ZfpConfig::rate(2.0)),
        CodecConfig::Zfp(ZfpConfig::rate(4.0)),
    ];
    let results: Vec<(f64, f64)> = configs.iter().map(eval).collect();
    // There exists a pair where PSNR and pk-deviation disagree on order.
    let mut found = false;
    for i in 0..results.len() {
        for j in 0..results.len() {
            if results[i].0 > results[j].0 && results[i].1 > results[j].1 {
                found = true;
            }
        }
    }
    assert!(found, "expected a PSNR/pk-ratio ordering disagreement: {results:?}");
}

/// §V-C / Fig. 9: kernel throughput ranks across GPU generations.
#[test]
fn gpu_generations_rank_by_capability() {
    let n = 1 << 24;
    let tp: Vec<f64> = table1()
        .iter()
        .map(|g| kernel_throughput_gbs(g, KernelKind::ZfpCompress, n, 4.0))
        .collect();
    // V100 (idx 1) fastest; K80 (idx 6) slowest.
    let max = tp.iter().cloned().fold(f64::MIN, f64::max);
    assert_eq!(tp[1], max, "V100 should lead: {tp:?}");
    let min = tp.iter().cloned().fold(f64::MAX, f64::min);
    assert_eq!(tp[6], min, "K80 should trail: {tp:?}");
}

/// §V-C / Fig. 7: with compression, total GPU time beats the
/// no-compression transfer baseline at paper scale, and memcpy dominates
/// the kernel.
#[test]
fn compression_beats_raw_transfer_at_scale() {
    let mut dev = Device::new(GpuSpec::tesla_v100());
    let n: u64 = 512 * 512 * 512;
    let rate = 4.0;
    let comp_bytes = n * rate as u64 / 8;
    let ((), rep) = gpu_sim::run_compression(
        &mut dev,
        KernelKind::ZfpCompress,
        n,
        rate,
        "zfp",
        || ((), comp_bytes),
    )
    .unwrap();
    let baseline = gpu_sim::baseline_transfer_seconds(&dev, n);
    assert!(rep.breakdown.total() < baseline / 2.0, "compression should win big");
    assert!(rep.breakdown.memcpy > rep.breakdown.kernel, "PCIe should dominate");
}

/// §V-C: a faster interconnect (NVLink) shrinks the memcpy share — the
/// paper's stated future-work lever.
#[test]
fn nvlink_reduces_transfer_share() {
    let n: u64 = 256 * 256 * 256;
    let run = |link: PcieLink| -> f64 {
        let mut dev = Device::new(GpuSpec::tesla_v100()).with_link(link);
        let ((), rep) = gpu_sim::run_compression(
            &mut dev,
            KernelKind::ZfpCompress,
            n,
            4.0,
            "zfp",
            || ((), n / 2),
        )
        .unwrap();
        rep.breakdown.memcpy / rep.breakdown.total()
    };
    assert!(run(PcieLink::nvlink2()) < run(PcieLink::gen3_x16()));
}

/// §V-D: overall throughput increases as the chosen bitrate decreases —
/// the "pick the highest acceptable ratio" guideline's throughput half.
#[test]
fn lower_bitrate_gives_higher_overall_throughput() {
    let n: u64 = 128 * 128 * 128;
    let mut dev = Device::new(GpuSpec::tesla_v100());
    let mut last = 0.0;
    for rate in [16.0, 8.0, 4.0, 2.0, 1.0] {
        let comp_bytes = (n as f64 * rate / 8.0) as u64;
        let ((), rep) = gpu_sim::run_compression(
            &mut dev,
            KernelKind::ZfpCompress,
            n,
            rate,
            "zfp",
            || ((), comp_bytes),
        )
        .unwrap();
        assert!(
            rep.overall_throughput_gbs > last,
            "rate {rate}: {} GB/s",
            rep.overall_throughput_gbs
        );
        last = rep.overall_throughput_gbs;
    }
}

// Claims re-judged on the committed reproduction: `results/` at the
// defaults (64^3), which `exhibit all` writes byte for byte and CI
// regenerates and diffs. Computing these at 64^3 here would take minutes
// in a debug build (Fig. 6 runs the halo finder seven times).

/// Rows of a committed exhibit CSV (no quoted cells), header first.
fn committed_csv(path: &str) -> Vec<Vec<String>> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results").join(path);
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    text.lines().map(|l| l.split(',').map(str::to_string).collect()).collect()
}

/// §V-A / Fig. 4: the three velocity components' rate-distortion curves
/// nearly coincide for GPU-SZ on Nyx and for both codecs on HACC, but not
/// for cuZFP on Nyx, whose `velocity_x` sits ~3 dB above the other two at
/// every rate (EXPERIMENTS.md, Fig. 4: Partial).
#[test]
fn fig4_velocity_components_agree_except_cuzfp_on_nyx() {
    let rows = committed_csv("fig4/fig4.csv");
    let psnr = |dataset: &str, field: &str, comp: &str, param: &str| -> f64 {
        let row = rows.iter().find(|r| r[..4] == [dataset, field, comp, param]).unwrap();
        row[5].parse().unwrap()
    };
    for rate in ["rate=1", "rate=2", "rate=4", "rate=8", "rate=12", "rate=16"] {
        let x = psnr("nyx", "velocity_x", "cuZFP", rate);
        for other in ["velocity_y", "velocity_z"] {
            let gap = x - psnr("nyx", other, "cuZFP", rate);
            assert!(gap > 2.0, "cuZFP {rate}: velocity_x only {gap:.2} dB above {other}");
        }
        let hacc = ["vx", "vy", "vz"].map(|f| psnr("hacc", f, "cuZFP", rate));
        let spread = hacc.iter().copied().fold(f64::MIN, f64::max)
            - hacc.iter().copied().fold(f64::MAX, f64::min);
        assert!(spread < 1.5, "HACC cuZFP {rate}: components {spread:.2} dB apart");
    }
    for rel in ["rel=0.03", "rel=0.01", "rel=0.003", "rel=0.001", "rel=0.0001"] {
        let v = ["velocity_x", "velocity_y", "velocity_z"].map(|f| psnr("nyx", f, "GPU-SZ", rel));
        let spread = v.iter().copied().fold(f64::MIN, f64::max)
            - v.iter().copied().fold(f64::MAX, f64::min);
        assert!(spread < 0.1, "Nyx GPU-SZ {rel}: components {spread:.2} dB apart");
    }
}

/// §V-B / Fig. 6: cuZFP's halo acceptance boundary is the paper's (rate 8
/// accepted, rate 4 rejected) and so is its 4x best fit; GPU-SZ accepts
/// every bound up to abs 0.1 (the paper stops at 0.025), and its best fit
/// (3.51x) falls below cuZFP's, reversing the paper's 4.25x vs 4x
/// (EXPERIMENTS.md, Fig. 6: Partial).
#[test]
fn fig6_acceptance_boundary_and_best_fits() {
    let rows = committed_csv("fig6/fig6_summary.csv");
    let accepted = |comp: &str, param: &str| -> bool {
        let row = rows.iter().find(|r| r[0] == comp && r[1] == param).unwrap();
        row[4].parse().unwrap()
    };
    assert!(!accepted("cuZFP", "rate=4"));
    assert!(accepted("cuZFP", "rate=8") && accepted("cuZFP", "rate=12"));
    assert!(["abs=0.005", "abs=0.025", "abs=0.1"].iter().all(|p| accepted("GPU-SZ", p)));

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let overall = std::fs::read_to_string(root.join("results/fig6/fig6_overall.txt")).unwrap();
    let best = |comp: &str| -> (String, f64) {
        let line = overall.lines().find(|l| l.starts_with(&format!("{comp}:"))).unwrap();
        let config = line.split("config ").nth(1).unwrap().split(' ').next().unwrap();
        let ratio = line.split("ratio ").nth(1).unwrap().split('x').next().unwrap();
        (config.to_string(), ratio.parse().unwrap())
    };
    let (sz, zfp) = (best("GPU-SZ"), best("cuZFP"));
    assert_eq!((sz.0.as_str(), zfp.0.as_str()), ("abs=0.1", "rate=8"));
    assert!(zfp.1 > sz.1, "cuZFP {:.2}x must beat GPU-SZ {:.2}x overall", zfp.1, sz.1);
}

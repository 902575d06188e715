//! Pipeline-level telemetry guarantees: exact phase-total agreement with
//! the device, deterministic Chrome-trace export, span nesting across the
//! rayon sweep, and byte-identical outputs when telemetry is off.
//!
//! These tests mutate the process-global collector, so every test takes
//! the same lock and resets the collector on entry and exit.

use foresight::cbench::{cross, run_sweep, run_sweep_chaos, ChaosConfig, FieldData};
use foresight::codec::{CodecConfig, Shape};
use foresight::config::ForesightConfig;
use foresight::pat::SlurmSim;
use foresight::runner::run_pipeline;
use foresight::trace;
use foresight_util::json::Value;
use foresight_util::sha256::sha256_hex;
use foresight_util::telemetry::{self, ChromeTraceOptions};
use gpu_sim::GpuSpec;
use std::sync::Mutex;

static GUARD: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    let g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::reset();
    g
}

fn fields() -> Vec<FieldData> {
    let n = 16usize;
    let mk = |phase: f32| -> Vec<f32> {
        (0..n * n * n).map(|i| ((i as f32) * 0.013 + phase).sin() * 3.0).collect()
    };
    vec![
        FieldData::new("rho", mk(0.0), Shape::D3(n, n, n)).unwrap(),
        FieldData::new("vx", mk(1.7), Shape::D3(n, n, n)).unwrap(),
    ]
}

fn configs() -> Vec<CodecConfig> {
    vec![
        CodecConfig::Sz(lossy_sz::SzConfig::abs(0.01)),
        CodecConfig::Zfp(lossy_zfp::ZfpConfig::rate(8.0)),
    ]
}

fn chaos() -> ChaosConfig {
    ChaosConfig::new(
        21,
        gpu_sim::FaultRates {
            transfer: 0.3,
            bit_flip: 0.2,
            kernel: 0.2,
            oom: 0.05,
            node: 0.0,
        },
    )
}

#[test]
fn telemetry_json_phase_totals_match_device_exactly() {
    let _g = lock();
    telemetry::enable();
    let mut dev = gpu_sim::Device::new(GpuSpec::tesla_v100()).with_label("check/dev");
    let data: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.01).cos()).collect();
    let cfg = CodecConfig::Sz(lossy_sz::SzConfig::abs(0.01));
    foresight::gpu_backend::gpu_compress(&mut dev, &cfg, &data, Shape::D3(16, 16, 16)).unwrap();

    let snap = telemetry::snapshot();
    let per_dev = trace::device_phase_totals(&snap);
    let (name, got) = per_dev.iter().find(|(n, _)| n == "check/dev").expect("device present");
    let want = dev.phase_totals();
    // Bit-exact, not approximate: the reconstruction replays the same f64
    // additions the device performed.
    assert_eq!(got.init, want.init, "{name} init");
    assert_eq!(got.kernel, want.kernel, "{name} kernel");
    assert_eq!(got.memcpy, want.memcpy, "{name} memcpy");
    assert_eq!(got.free, want.free, "{name} free");
    assert_eq!(got.fault, want.fault, "{name} fault");
    assert_eq!(got.total(), want.total(), "{name} total");
    telemetry::reset();
}

#[test]
fn chrome_trace_export_is_deterministic_for_fixed_seed() {
    let _g = lock();
    let mut exports = Vec::new();
    for _ in 0..2 {
        telemetry::reset();
        telemetry::enable();
        run_sweep_chaos(&cross(&fields(), &configs()), false, &chaos()).unwrap();
        let snap = telemetry::snapshot();
        // Wall-clock spans carry real timings and legitimately differ
        // between runs; the simulated-device content must not.
        let doc = telemetry::chrome_trace(&snap, ChromeTraceOptions { include_host: false });
        exports.push(doc.to_json());
    }
    assert_eq!(exports[0], exports[1], "same-seed chaos traces diverged");
    // Sanity: the export is non-trivial and names the pair processes.
    assert!(exports[0].contains("rho/GPU-SZ abs=0.01"), "pair label process missing");
    assert!(exports[0].contains("\"ph\":\"X\""), "no complete events");
    // Pinned bytes: a change to the record model or the writer must
    // leave the sim-only export exactly as it was.
    assert_eq!(sha256_hex(exports[0].as_bytes()), PIPELINE_TRACE_SHA256, "sim trace bytes moved");
    telemetry::reset();
}

/// SHA-256 of the host-excluded Chrome trace of the seeded chaos sweep.
const PIPELINE_TRACE_SHA256: &str = "43cead51d9fc7133c2a20d278b4387158127a349eb2f0b0c169c44f28aba8c33";

#[test]
fn sweep_spans_nest_under_sweep_parent_across_rayon() {
    let _g = lock();
    telemetry::enable();
    run_sweep(&cross(&fields(), &configs()), false).unwrap();
    let snap = telemetry::snapshot();
    let sweep = snap
        .spans
        .iter()
        .find(|s| s.name == "cbench.sweep")
        .expect("sweep span recorded");
    let pairs: Vec<_> = snap.spans.iter().filter(|s| s.name == "cbench.pair").collect();
    assert_eq!(pairs.len(), 4, "2 fields x 2 configs");
    // Pair spans run on rayon worker threads; the explicit-parent API must
    // still tie every one of them to the sweep span.
    for p in &pairs {
        assert_eq!(p.parent, sweep.id, "pair span detached from sweep");
    }
    // Stage spans (quantize etc.) hang off a pair span through the
    // cbench.compress span — walk the parent chain to prove it.
    let by_id: std::collections::BTreeMap<u64, &foresight_util::telemetry::SpanRecord> =
        snap.spans.iter().map(|s| (s.id, s)).collect();
    let pair_ids: Vec<u64> = pairs.iter().map(|p| p.id).collect();
    let quantize: Vec<_> = snap.spans.iter().filter(|s| s.name == "sz.quantize").collect();
    assert!(!quantize.is_empty(), "sz.quantize spans recorded");
    for q in &quantize {
        let mut cursor = q.parent;
        let mut reaches_pair = false;
        while let Some(s) = by_id.get(&cursor) {
            if pair_ids.contains(&s.id) {
                reaches_pair = true;
                break;
            }
            cursor = s.parent;
        }
        assert!(reaches_pair, "stage span's ancestry never reaches a pair span");
    }
    telemetry::reset();
}

/// Lives here rather than in `serve`'s unit tests because the collector is
/// process-global and only this binary serializes every test that enables
/// it.
#[test]
fn serve_cpu_fallback_fires_global_fault_counters() {
    use foresight::{serve, ServeNode, ServeOptions, ServePayload, ServeRequest};
    let _g = lock();
    let shape = Shape::D3(16, 16, 16);
    let reqs: Vec<ServeRequest> = (0..3)
        .map(|id| ServeRequest {
            id,
            arrival_s: 1e-5 * id as f64,
            deadline_s: None,
            payload: ServePayload::Compress {
                data: (0..shape.len()).map(|i| (i as f32 * 0.01).sin() * 50.0).collect(),
                shape,
                config: CodecConfig::Zfp(lossy_zfp::ZfpConfig::rate(4.0)),
            },
        })
        .collect();
    // Every device faults every kernel, so all three units land on the CPU.
    let opts = ServeOptions {
        rates: gpu_sim::FaultRates { kernel: 1.0, ..Default::default() },
        seed: 5,
        ..Default::default()
    };
    telemetry::enable();
    let r = serve(&ServeNode::v100_pcie(2), &opts, &reqs).unwrap();
    let snap = telemetry::snapshot();
    telemetry::reset();
    assert_eq!(r.cpu_fallbacks, 3);
    assert_eq!(snap.metrics.counter("serve.fault"), 6, "3 units x 2 devices all faulted");
    assert_eq!(snap.metrics.counter("serve.cpu_fallback"), 3);
}

fn pipeline_cfg(tag: &str) -> ForesightConfig {
    let dir = std::env::temp_dir().join(format!("telemetry_pipe_{tag}_{}", std::process::id()));
    ForesightConfig::from_json(&format!(
        r#"{{
        "input": {{ "dataset": "nyx", "n_side": 16, "seed": 5, "steps": 3 }},
        "compressors": [
            {{ "name": "gpu-sz", "mode": "rel", "bounds": [0.01] }},
            {{ "name": "cuzfp", "rates": [8] }}
        ],
        "analysis": ["distortion", "throughput"],
        "output": {{ "dir": "{}", "cinema": false }}
    }}"#,
        dir.display()
    ))
    .unwrap()
}

#[test]
fn disabled_telemetry_leaves_pipeline_outputs_identical() {
    let _g = lock();
    let fingerprint = |rep: &foresight::PipelineReport| -> Vec<String> {
        rep.records
            .iter()
            .map(|r| {
                format!(
                    "{}|{}|{}|{}|{:.17e}|{:.17e}",
                    r.field, r.param, r.compressed_bytes, r.original_bytes, r.ratio,
                    r.distortion.psnr
                )
            })
            .collect()
    };

    let cfg_off = pipeline_cfg("off");
    telemetry::disable();
    let off = run_pipeline(&cfg_off, &SlurmSim::default()).unwrap();
    assert!(
        !cfg_off.output.dir.join("telemetry").exists(),
        "telemetry dir written with collector off"
    );
    assert!(off.metrics.gauge("resilience.gpu_retried_pairs").is_none());

    let cfg_on = pipeline_cfg("on");
    telemetry::reset();
    telemetry::enable();
    let on = run_pipeline(&cfg_on, &SlurmSim::default()).unwrap();
    let tjson = cfg_on.output.dir.join("telemetry").join("telemetry.json");
    assert!(tjson.is_file(), "telemetry.json missing on traced run");

    assert_eq!(fingerprint(&off), fingerprint(&on), "telemetry changed pipeline outputs");

    // The written report parses, and its overall phase totals agree with
    // the per-process totals it also contains.
    let doc = Value::parse(&std::fs::read_to_string(&tjson).unwrap()).unwrap();
    let overall = doc.get("phase_totals").and_then(|t| t.get("total")).and_then(Value::as_f64);
    assert!(overall.unwrap() > 0.0, "no simulated time in telemetry.json");
    let stages = doc.get("stages").and_then(Value::as_object).unwrap();
    assert!(
        stages.iter().any(|(k, _)| k == "runner.run_pipeline"),
        "runner span missing from stages"
    );

    std::fs::remove_dir_all(&cfg_off.output.dir).ok();
    std::fs::remove_dir_all(&cfg_on.output.dir).ok();
    telemetry::reset();
}

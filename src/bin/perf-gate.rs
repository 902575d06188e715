//! Perf-regression gate: runs the committed bench scenarios, emits a
//! schema-versioned `BENCH_<n>.json`, and compares against the previous
//! file with noise-aware tolerances.
//!
//! ```text
//! cargo run --release --bin perf-gate [-- --dir <d>] [--rebaseline "<reason>"]
//! ```
//!
//! Three scenarios cover the perf-critical paths:
//!
//! - **entropy** — canonical-Huffman encode/decode wall throughput of a
//!   full SZ roundtrip on a synthetic Nyx-like field, plus the exact
//!   compressed byte count; decode throughput of the same field under
//!   noise, whose codes run to ten bits and more (the wide histograms of
//!   HACC positions, where a decoder that is fast on peaked ones can fall
//!   off a cliff); and the roundtrip of a 16^3 cut of the field
//!   (µs per call: what a `.fstr` chunk or a serve shard pays, where the
//!   per-call Huffman tables are the fixed cost);
//! - **serve** — the batched multi-device scheduler on the default
//!   synthetic workload (sim-clock makespan, p50/p95/p99, sustained
//!   GB/s, exact executed bytes);
//! - **cluster** — the healthy multi-node router on the default Zipf
//!   workload (same sim-clock metrics plus completion counts).
//!
//! Every metric carries a class that sets its comparison rule:
//!
//! - `exact` — byte counts and completion counts; any difference is a
//!   regression (the simulator is bit-deterministic, so these only move
//!   when behavior does);
//! - `model` — simulated-clock results; deterministic, but legitimate
//!   model changes move them, so only >2% in the worse direction fails;
//! - `wall` — real wall-clock throughput; noisy across machines and CI
//!   runners, so a >3x collapse is printed as a warning and never fails
//!   the gate.
//!
//! The output file is `BENCH_<seq>.json` where `seq` is one past the
//! highest existing `BENCH_*.json` in `--dir` (default: the current
//! directory), starting at 8 — the PR that introduced the gate. The
//! newest existing file is the comparison baseline; with none, the run
//! only records.
//!
//! An intentional byte change (a stream VERSION bump, say) moves `exact`
//! metrics on purpose. `--rebaseline "<reason>"` is the only path that
//! accepts that: the new file records the reason and every `exact` metric
//! that moved, and becomes the baseline once committed. `model`
//! regressions still fail under it.
//!
//! Exit codes: 0 ok (or first baseline), 1 `exact`/`model` regression,
//! 2 usage/IO error.

use foresight::config::{ClusterSettings, ServeSettings};
use foresight_util::json::Value;
use foresight_util::timer::time;
use lossy_sz::{Dims, SzConfig};
use std::path::{Path, PathBuf};

/// First sequence number; `BENCH_8.json` belongs to the PR that
/// introduced the gate.
const BASE_SEQ: u64 = 8;
const SCHEMA: u64 = 1;
/// Scenario seed (shared; each scenario derives its workload from it).
const SEED: u64 = 0;

struct Metric {
    name: &'static str,
    value: f64,
    /// "exact" | "model" | "wall"
    class: &'static str,
    /// "higher" | "lower" — which direction is better.
    better: &'static str,
}

struct Scenario {
    name: &'static str,
    metrics: Vec<Metric>,
}

fn main() {
    let mut dir = PathBuf::from(".");
    let mut rebaseline: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--dir" => {
                let Some(d) = args.next() else { usage_exit() };
                dir = PathBuf::from(d);
            }
            "--rebaseline" => match args.next() {
                Some(reason) if !reason.trim().is_empty() => rebaseline = Some(reason),
                _ => usage_exit(),
            },
            _ => usage_exit(),
        }
    }
    let scenarios = match run_scenarios() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perf-gate: scenario failed: {e}");
            std::process::exit(2);
        }
    };
    let previous = newest_bench(&dir);
    let seq = previous.as_ref().map(|(s, _)| s + 1).unwrap_or(BASE_SEQ);
    let moved = previous.as_ref().map(|(_, doc)| compare(doc, &scenarios)).unwrap_or_default();
    let of_class = |class: &str| -> Vec<&str> {
        moved.iter().filter(|m| m.class == class).map(|m| m.line.as_str()).collect()
    };
    let mut doc = to_doc(seq, &scenarios);
    if let (Some(reason), Some((prev_seq, _)), Value::Object(fields)) =
        (&rebaseline, &previous, &mut doc)
    {
        let exact = of_class("exact").into_iter().map(|l| Value::String(l.into())).collect();
        fields.push((
            "rebaseline".into(),
            Value::Object(vec![
                ("reason".into(), Value::String(reason.clone())),
                ("against".into(), Value::String(format!("BENCH_{prev_seq}.json"))),
                ("exact_moved".into(), Value::Array(exact)),
            ]),
        ));
    }
    let out = dir.join(format!("BENCH_{seq}.json"));
    if let Err(e) = std::fs::write(&out, doc.to_json()) {
        eprintln!("perf-gate: cannot write '{}': {e}", out.display());
        std::process::exit(2);
    }
    println!("perf-gate: wrote {}", out.display());
    for s in &scenarios {
        for m in &s.metrics {
            println!("  {}.{} = {} [{}]", s.name, m.name, m.value, m.class);
        }
    }
    let Some((prev_seq, _)) = previous else {
        println!("perf-gate: no previous BENCH_*.json — baseline recorded, nothing to compare");
        std::process::exit(0);
    };
    for w in of_class("wall") {
        eprintln!("perf-gate: warning (wall-clock, advisory): {w}");
    }
    let mut regressions = of_class("model");
    match &rebaseline {
        Some(reason) => {
            println!("perf-gate: rebaselined against BENCH_{prev_seq}.json — {reason}");
            for line in of_class("exact") {
                println!("  accepted: {line}");
            }
        }
        None => regressions.extend(of_class("exact")),
    }
    if regressions.is_empty() {
        println!("perf-gate: OK against BENCH_{prev_seq}.json (no exact/model regressions)");
        std::process::exit(0);
    }
    eprintln!("perf-gate: {} regression(s) against BENCH_{prev_seq}.json:", regressions.len());
    for r in &regressions {
        eprintln!("  {r}");
    }
    if rebaseline.is_none() && !of_class("exact").is_empty() {
        eprintln!("perf-gate: an intended `exact` change goes through --rebaseline \"<reason>\"");
    }
    std::process::exit(1);
}

fn usage_exit() -> ! {
    eprintln!("usage: perf-gate [--dir <d>] [--rebaseline \"<reason>\"]");
    std::process::exit(2);
}

/// The newest `BENCH_<n>.json` in `dir`, if any parses.
fn newest_bench(dir: &Path) -> Option<(u64, Value)> {
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in std::fs::read_dir(dir).ok()?.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let seq: u64 = match name.strip_prefix("BENCH_").and_then(|s| s.strip_suffix(".json")) {
            Some(s) => match s.parse() {
                Ok(n) => n,
                Err(_) => continue,
            },
            None => continue,
        };
        if best.as_ref().map(|(b, _)| seq > *b).unwrap_or(true) {
            best = Some((seq, entry.path()));
        }
    }
    let (seq, path) = best?;
    let text = std::fs::read_to_string(path).ok()?;
    Some((seq, Value::parse(&text).ok()?))
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn run_scenarios() -> foresight_util::Result<Vec<Scenario>> {
    Ok(vec![entropy_scenario()?, serve_scenario()?, cluster_scenario()?])
}

/// Best-of-3 wall seconds (first run also warms caches).
fn best_secs<R>(mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let (_, secs) = time(|| std::hint::black_box(f()));
        best = best.min(secs);
    }
    best
}

/// Full SZ roundtrip (Lorenzo + canonical Huffman) on a deterministic
/// smooth field — the entropy stage dominates, which is what the
/// fused-kernel roadmap work targets.
fn entropy_scenario() -> foresight_util::Result<Scenario> {
    const N: usize = 64;
    let data: Vec<f32> = (0..N * N * N)
        .map(|i| {
            let x = (i % N) as f32;
            let y = ((i / N) % N) as f32;
            let z = (i / (N * N)) as f32;
            (0.13 * x).sin() + (0.07 * y).cos() + (0.11 * z).sin()
        })
        .collect();
    let dims = Dims::D3(N, N, N);
    let cfg = SzConfig::abs(1e-3);
    let stream = lossy_sz::compress(&data, dims, &cfg)?;
    let volume_mb = (data.len() * 4) as f64 / 1e6;
    let enc_s = best_secs(|| lossy_sz::compress(&data, dims, &cfg).expect("compress"));
    let dec_s = best_secs(|| lossy_sz::decompress(&stream).expect("decompress"));

    // The same field under uniform noise a thousand bounds wide: a wide,
    // flat code histogram.
    let mut lcg = SEED;
    let noisy: Vec<f32> = data
        .iter()
        .map(|v| {
            lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            v + ((lcg >> 40) as f32 / (1u64 << 24) as f32 - 0.5)
        })
        .collect();
    let wide_stream = lossy_sz::compress(&noisy, dims, &cfg)?;
    let wide_dec_s = best_secs(|| lossy_sz::decompress(&wide_stream).expect("decompress"));

    // One chunk-sized call: the field's 16^3 corner, 100 calls a pass so
    // the clock's resolution does not show.
    const C: usize = 16;
    const CALLS: usize = 100;
    let chunk: Vec<f32> = (0..C * C * C)
        .map(|i| data[i % C + N * ((i / C) % C) + N * N * (i / (C * C))])
        .collect();
    let chunk_dims = Dims::D3(C, C, C);
    let chunk_stream = lossy_sz::compress(&chunk, chunk_dims, &cfg)?;
    let per_call_us = |pass_s: f64| pass_s * 1e6 / CALLS as f64;
    let chunk_enc_s = best_secs(|| {
        for _ in 0..CALLS {
            std::hint::black_box(lossy_sz::compress(&chunk, chunk_dims, &cfg).expect("compress"));
        }
    });
    let chunk_dec_s = best_secs(|| {
        for _ in 0..CALLS {
            std::hint::black_box(lossy_sz::decompress(&chunk_stream).expect("decompress"));
        }
    });
    Ok(Scenario {
        name: "entropy",
        metrics: vec![
            Metric {
                name: "encode_mbs",
                value: volume_mb / enc_s,
                class: "wall",
                better: "higher",
            },
            Metric {
                name: "decode_mbs",
                value: volume_mb / dec_s,
                class: "wall",
                better: "higher",
            },
            Metric {
                name: "decode_wide_mbs",
                value: volume_mb / wide_dec_s,
                class: "wall",
                better: "higher",
            },
            Metric {
                name: "compressed_bytes",
                value: stream.len() as f64,
                class: "exact",
                better: "lower",
            },
            Metric {
                name: "chunk16_compress_us",
                value: per_call_us(chunk_enc_s),
                class: "wall",
                better: "lower",
            },
            Metric {
                name: "chunk16_decompress_us",
                value: per_call_us(chunk_dec_s),
                class: "wall",
                better: "lower",
            },
            Metric {
                name: "chunk16_compressed_bytes",
                value: chunk_stream.len() as f64,
                class: "exact",
                better: "lower",
            },
        ],
    })
}

fn latency_metrics(
    summary: Option<foresight_util::telemetry::HistogramSummary>,
    out: &mut Vec<Metric>,
) {
    let s = |f: fn(&foresight_util::telemetry::HistogramSummary) -> f64| {
        summary.as_ref().map(f).unwrap_or(0.0) * 1e3
    };
    out.push(Metric { name: "p50_ms", value: s(|l| l.p50), class: "model", better: "lower" });
    out.push(Metric { name: "p95_ms", value: s(|l| l.p95), class: "model", better: "lower" });
    out.push(Metric { name: "p99_ms", value: s(|l| l.p99), class: "model", better: "lower" });
}

/// The batched serving scheduler on its default synthetic workload.
fn serve_scenario() -> foresight_util::Result<Scenario> {
    let settings = ServeSettings::default();
    let node = settings.to_node();
    let opts = settings.to_serve_options(gpu_sim::FaultRates::default());
    let mut wl = settings.to_workload_spec();
    wl.seed = SEED;
    let reqs = foresight::synth_workload(&wl)?;
    let report = foresight::serve(&node, &opts, &reqs)?;
    let mut metrics = vec![
        Metric { name: "makespan_s", value: report.makespan_s, class: "model", better: "lower" },
        Metric {
            name: "sustained_gbs",
            value: report.sustained_gbs,
            class: "model",
            better: "higher",
        },
        Metric {
            name: "executed_bytes",
            value: report.executed_bytes as f64,
            class: "exact",
            better: "lower",
        },
    ];
    latency_metrics(report.latency(), &mut metrics);
    Ok(Scenario { name: "serve", metrics })
}

/// The healthy multi-node router on its default Zipf workload.
fn cluster_scenario() -> foresight_util::Result<Scenario> {
    let settings = ClusterSettings::default();
    let spec = settings.to_cluster();
    let opts = foresight::ClusterOptions {
        chaos: gpu_sim::NodeChaosPlan::quiet(),
        ..settings.to_cluster_options()?
    };
    let mut wl = settings.to_workload_spec();
    wl.seed = SEED;
    let reqs = foresight::cluster_workload(&wl)?;
    let report = foresight::serve_cluster(&spec, &opts, &reqs)?;
    let mut metrics = vec![
        Metric { name: "makespan_s", value: report.makespan_s, class: "model", better: "lower" },
        Metric {
            name: "sustained_gbs",
            value: report.sustained_gbs,
            class: "model",
            better: "higher",
        },
        Metric {
            name: "completed",
            value: report.completed as f64,
            class: "exact",
            better: "higher",
        },
    ];
    latency_metrics(report.latency(), &mut metrics);
    Ok(Scenario { name: "cluster", metrics })
}

fn to_doc(seq: u64, scenarios: &[Scenario]) -> Value {
    let scen = scenarios
        .iter()
        .map(|s| {
            let metrics = s
                .metrics
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        Value::Object(vec![
                            ("value".into(), Value::Number(m.value)),
                            ("class".into(), Value::String(m.class.into())),
                            ("better".into(), Value::String(m.better.into())),
                        ]),
                    )
                })
                .collect();
            (
                s.name.to_string(),
                Value::Object(vec![("metrics".into(), Value::Object(metrics))]),
            )
        })
        .collect();
    Value::Object(vec![
        ("schema".into(), Value::Number(SCHEMA as f64)),
        ("seq".into(), Value::Number(seq as f64)),
        ("git_rev".into(), Value::String(git_rev())),
        ("seed".into(), Value::Number(SEED as f64)),
        ("scenarios".into(), Value::Object(scen)),
    ])
}

/// A metric that compares worse than (`model`, `wall`) or differently
/// from (`exact`) the previous document.
struct Moved {
    /// "exact" | "model" | "wall"
    class: &'static str,
    line: String,
}

/// Compares current metrics against a previous document; returns one entry
/// per `exact` difference and `model` regression (these fail the gate) and
/// one per `wall` collapse (these only warn). Metrics absent on either
/// side are skipped (the schema is allowed to grow).
fn compare(prev: &Value, scenarios: &[Scenario]) -> Vec<Moved> {
    let mut moved = Vec::new();
    if prev.get("schema").and_then(Value::as_u64) != Some(SCHEMA) {
        // An unknown schema can't be compared meaningfully; treat as a
        // fresh baseline rather than failing CI on the format change.
        return moved;
    }
    for s in scenarios {
        for m in &s.metrics {
            let Some(old) = prev
                .get("scenarios")
                .and_then(|v| v.get(s.name))
                .and_then(|v| v.get("metrics"))
                .and_then(|v| v.get(m.name))
                .and_then(|v| v.get("value"))
                .and_then(Value::as_f64)
            else {
                continue;
            };
            let worse = m.better == "lower";
            let (regressed, verdict) = match m.class {
                "exact" => (m.value != old, "changed"),
                // Deterministic sim-clock values: >2% in the worse
                // direction means the model got slower, not noisier.
                "model" => {
                    (if worse { m.value > old * 1.02 } else { m.value < old * 0.98 }, "worse")
                }
                // Wall-clock throughput: machine- and load-dependent, so
                // only a collapse (3x) is reported, and as a warning.
                _ => (if worse { m.value > old * 3.0 } else { m.value < old / 3.0 }, "worse"),
            };
            if regressed {
                let line = format!(
                    "{}.{} [{}]: {} -> {} ({verdict})",
                    s.name, m.name, m.class, old, m.value
                );
                moved.push(Moved { class: m.class, line });
            }
        }
    }
    moved
}

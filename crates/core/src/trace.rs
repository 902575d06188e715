//! Pipeline-level views of the [`foresight_util::telemetry`] model: the
//! `telemetry.json` run report, the artifact writer, and the text
//! renderings the CLI `report` subcommand prints (the paper's Fig. 7 bars
//! as ASCII). Two invariants matter:
//!
//! - **Phase totals are exact.** [`device_phase_totals`] replays each
//!   simulated device's slices in recording order through
//!   [`TelemetrySnapshot::sim_layout`], performing the same `f64`
//!   additions `Device::phase_totals()` performed, so the JSON report and
//!   the device agree bit-for-bit (guarded by a test in
//!   `tests/telemetry_pipeline.rs`).
//! - **One source of truth for resilience.** [`resilience_lines`] renders
//!   the chaos summary from the run's metrics registry; the CLI text and
//!   `telemetry.json` both call it, so they cannot disagree.

use crate::cbench::QuarantinedPair;
use crate::runner::PipelineReport;
use foresight_util::json::Value;
use foresight_util::table::Table;
use foresight_util::telemetry::{Clock, Metrics, TelemetrySnapshot};
use foresight_util::Result;
use gpu_sim::PhaseTotals;
use std::collections::BTreeMap;
use std::path::Path;

/// Renders the resilience summary from the run's metrics registry.
///
/// The line formats match what `runner` historically printed; deriving
/// them (rather than accumulating strings inside retry-prone job
/// closures) makes the CLI text and `telemetry.json` share one source.
pub fn resilience_lines(
    metrics: &Metrics,
    quarantined: &[QuarantinedPair],
) -> Vec<String> {
    let g = |name: &str| metrics.gauge(name).unwrap_or(0.0).round() as u64;
    let mut out = Vec::new();
    let retried = g("resilience.gpu_retried_pairs");
    let fallbacks = g("resilience.cpu_fallbacks");
    if retried + fallbacks > 0 {
        out.push(format!(
            "{retried} pairs recovered by GPU retry, {fallbacks} fell back to CPU"
        ));
    }
    for q in quarantined {
        out.push(format!(
            "quarantined {} {} {}: {}",
            q.field,
            q.compressor.display(),
            q.param,
            q.error
        ));
    }
    let node_failures = g("resilience.node_failures");
    if node_failures > 0 {
        out.push(format!(
            "{node_failures} node failure(s); {} node(s) alive at the end",
            g("resilience.alive_nodes")
        ));
    }
    out
}

fn add_track(totals: &mut PhaseTotals, track: &str, seconds: f64) {
    match track {
        "init" => totals.init += seconds,
        "kernel" => totals.kernel += seconds,
        // The trace splits memcpy into the paper's H2D/D2H lanes; the
        // Breakdown keeps them combined.
        "h2d" | "d2h" => totals.memcpy += seconds,
        "free" => totals.free += seconds,
        "fault" => totals.fault += seconds,
        _ => {}
    }
}

/// Per-device phase totals reconstructed from sim slices, sorted by
/// process name: each device's slices in recording order, so the sums
/// equal that device's `phase_totals()` exactly, not approximately.
pub fn device_phase_totals(snap: &TelemetrySnapshot) -> Vec<(String, PhaseTotals)> {
    let layout = snap.sim_layout();
    let mut totals = vec![PhaseTotals::default(); layout.processes.len()];
    for &(p, _, s) in &layout.slices {
        add_track(&mut totals[p], &s.track, s.dur_s);
    }
    layout.processes.iter().map(|(name, _)| name.to_string()).zip(totals).collect()
}

fn phase_totals_json(t: &PhaseTotals) -> Value {
    Value::Object(
        t.phases()
            .iter()
            .map(|(name, secs)| (name.to_string(), Value::Number(*secs)))
            .chain([("total".to_string(), Value::Number(t.total()))])
            .collect(),
    )
}

/// Builds the machine-readable `telemetry.json` document for a finished
/// pipeline run.
pub fn telemetry_json(report: &PipelineReport, snap: &TelemetrySnapshot) -> Value {
    let per_device = device_phase_totals(snap);
    // Devices summed in sorted process order, so the reduction is
    // deterministic.
    let mut overall = PhaseTotals::default();
    for (_, t) in &per_device {
        overall.init += t.init;
        overall.kernel += t.kernel;
        overall.memcpy += t.memcpy;
        overall.free += t.free;
        overall.fault += t.fault;
    }
    let per_process = Value::Object(
        per_device.iter().map(|(name, t)| (name.clone(), phase_totals_json(t))).collect(),
    );
    // Wall spans by name: how many, and their summed seconds.
    let mut stages: BTreeMap<&str, (u64, f64)> = BTreeMap::new();
    for s in snap.spans.iter().filter(|s| s.clock == Clock::Wall) {
        let e = stages.entry(s.name.as_str()).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += s.dur_s;
    }
    let stage = |(count, total): (u64, f64)| {
        let stats = [("count", count as f64), ("wall_seconds", total)];
        Value::Object(stats.map(|(k, v)| (k.to_string(), Value::Number(v))).to_vec())
    };
    let stages =
        Value::Object(stages.into_iter().map(|(name, st)| (name.to_string(), stage(st))).collect());
    let resilience = resilience_lines(&report.metrics, &report.quarantined);
    let jobs = Value::Array(
        report
            .workflow
            .jobs
            .iter()
            .map(|j| {
                Value::Object(vec![
                    ("name".into(), Value::String(j.name.clone())),
                    ("wave".into(), Value::Number(j.wave as f64)),
                    ("status".into(), Value::String(j.status.label())),
                    ("attempts".into(), Value::Number(j.attempts as f64)),
                    ("wall_seconds".into(), Value::Number(j.wall_seconds)),
                    ("backoff_seconds".into(), Value::Number(j.backoff_seconds)),
                ])
            })
            .collect(),
    );
    let records = Value::Array(
        report
            .records
            .iter()
            .map(|r| {
                Value::Object(vec![
                    ("field".into(), Value::String(r.field.clone())),
                    ("compressor".into(), Value::String(r.compressor.display().to_string())),
                    ("param".into(), Value::String(r.param.clone())),
                    ("ratio".into(), Value::Number(r.ratio)),
                    ("bitrate".into(), Value::Number(r.bitrate)),
                    ("psnr_db".into(), Value::Number(r.distortion.psnr)),
                    ("exec".into(), Value::String(r.exec.label())),
                    (
                        "sim_seconds".into(),
                        r.sim_seconds.map(Value::Number).unwrap_or(Value::Null),
                    ),
                ])
            })
            .collect(),
    );
    let mut fields = vec![
        ("phase_totals".into(), phase_totals_json(&overall)),
        ("phase_totals_per_process".into(), per_process),
        ("stages".into(), stages),
        ("metrics".into(), snap.metrics.to_json()),
        ("run_metrics".into(), report.metrics.to_json()),
        ("resilience".into(), Value::Array(resilience.into_iter().map(Value::String).collect())),
        ("sanitizer".into(), Value::Array(report.sanitizer.iter().cloned().map(Value::String).collect())),
        ("jobs".into(), jobs),
        ("records".into(), records),
    ];
    // Observability keys, only when the run evaluated SLOs: the windowed
    // series the verdicts were computed from, then the verdicts. Keeping
    // them out of plain runs keeps pre-obs telemetry.json byte-identical.
    if let Some(series) = &report.series {
        fields.push(("series".into(), series.to_value()));
        fields.push(("slo".into(), crate::obs::slo_to_value(&report.slo)));
    }
    Value::Object(fields)
}

/// Writes one artifact (a Chrome trace, flamegraph text, or
/// `telemetry.json`), creating its directory.
pub fn write_file(path: &Path, contents: &str) -> Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, contents)?;
    Ok(())
}

fn bar(fraction: f64, width: usize) -> String {
    let n = (fraction.clamp(0.0, 1.0) * width as f64).round() as usize;
    "#".repeat(n)
}

/// Renders the per-phase table (the paper's Fig. 7 bars as text) from a
/// parsed `telemetry.json`. Returns an empty string when the document has
/// no phase data.
pub fn render_phase_table(doc: &Value) -> String {
    let Some(per_proc) = doc.get("phase_totals_per_process").and_then(Value::as_object)
    else {
        return String::new();
    };
    let mut out = String::new();
    let overall_total = doc
        .get("phase_totals")
        .and_then(|t| t.get("total"))
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    let mut table = Table::new(["process", "phase", "sim_seconds", "share"]);
    for (proc_name, totals) in per_proc {
        let Some(fields) = totals.as_object() else { continue };
        for (phase, secs) in fields {
            if phase == "total" {
                continue;
            }
            let secs = secs.as_f64().unwrap_or(0.0);
            if secs == 0.0 {
                continue;
            }
            let frac = if overall_total > 0.0 { secs / overall_total } else { 0.0 };
            table.push_row([
                proc_name.clone(),
                phase.clone(),
                format!("{secs:.6}"),
                bar(frac, 40),
            ]);
        }
    }
    if table.is_empty() {
        return String::new();
    }
    out.push_str("== simulated phase breakdown (Fig. 7) ==\n");
    out.push_str(&table.to_ascii());
    if let Some(totals) = doc.get("phase_totals").and_then(Value::as_object) {
        let parts: Vec<String> = totals
            .iter()
            .map(|(k, v)| format!("{k} {:.6}s", v.as_f64().unwrap_or(0.0)))
            .collect();
        out.push_str(&format!("overall: {}\n", parts.join(" | ")));
    }
    out
}

/// Renders the per-stage wall-clock table from a parsed `telemetry.json`.
pub fn render_stage_table(doc: &Value) -> String {
    let Some(stages) = doc.get("stages").and_then(Value::as_object) else {
        return String::new();
    };
    if stages.is_empty() {
        return String::new();
    }
    let mut table = Table::new(["stage", "count", "wall_seconds"]);
    for (name, s) in stages {
        table.push_row([
            name.clone(),
            (s.get("count").and_then(Value::as_f64).unwrap_or(0.0) as u64).to_string(),
            format!("{:.6}", s.get("wall_seconds").and_then(Value::as_f64).unwrap_or(0.0)),
        ]);
    }
    format!("== wall-clock stages ==\n{}", table.to_ascii())
}

/// Renders the metrics glossary section (counters and histogram
/// summaries) from a parsed `telemetry.json`.
pub fn render_metrics_table(doc: &Value) -> String {
    let Some(metrics) = doc.get("metrics") else { return String::new() };
    let mut out = String::new();
    if let Some(counters) = metrics.get("counters").and_then(Value::as_object) {
        if !counters.is_empty() {
            let mut t = Table::new(["counter", "value"]);
            for (k, v) in counters {
                t.push_row([k.clone(), format!("{}", v.as_f64().unwrap_or(0.0) as u64)]);
            }
            out.push_str("== counters ==\n");
            out.push_str(&t.to_ascii());
        }
    }
    if let Some(hists) = metrics.get("histograms").and_then(Value::as_object) {
        if !hists.is_empty() {
            let mut t = Table::new(["histogram", "count", "p50", "p95", "p99", "max"]);
            for (k, h) in hists {
                let f = |key: &str| h.get(key).and_then(Value::as_f64).unwrap_or(0.0);
                t.push_row([
                    k.clone(),
                    format!("{}", f("count") as u64),
                    format!("{:.3e}", f("p50")),
                    format!("{:.3e}", f("p95")),
                    format!("{:.3e}", f("p99")),
                    format!("{:.3e}", f("max")),
                ]);
            }
            out.push_str("== histograms ==\n");
            out.push_str(&t.to_ascii());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cbench::QuarantinedPair;
    use crate::codec::CompressorId;
    use foresight_util::telemetry::MetricsRegistry;

    #[test]
    fn resilience_lines_render_from_gauges() {
        let reg = MetricsRegistry::new();
        assert!(resilience_lines(&reg.snapshot(), &[]).is_empty(), "quiet run: no lines");
        reg.gauge("resilience.gpu_retried_pairs", 3.0);
        reg.gauge("resilience.cpu_fallbacks", 1.0);
        reg.gauge("resilience.node_failures", 2.0);
        reg.gauge("resilience.alive_nodes", 2.0);
        let q = vec![QuarantinedPair {
            field: "vx".into(),
            compressor: CompressorId::GpuSz,
            param: "abs=0.1".into(),
            error: "boom".into(),
        }];
        let lines = resilience_lines(&reg.snapshot(), &q);
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "3 pairs recovered by GPU retry, 1 fell back to CPU");
        assert!(lines[1].starts_with("quarantined vx"));
        assert!(lines[1].contains("boom"));
        assert_eq!(lines[2], "2 node failure(s); 2 node(s) alive at the end");
    }

    #[test]
    fn phase_tables_render_from_json() {
        let doc = Value::parse(
            r#"{
              "phase_totals": {"init":0.1,"kernel":0.5,"memcpy":0.4,"free":0.0,"fault":0.0,"total":1.0},
              "phase_totals_per_process": {
                "dev0": {"init":0.1,"kernel":0.5,"memcpy":0.4,"free":0.0,"fault":0.0,"total":1.0}
              },
              "stages": {"sz.quantize": {"count": 2, "wall_seconds": 0.25}},
              "metrics": {"counters": {"huffman.escape_hits": 7}, "gauges": {}, "histograms": {}}
            }"#,
        )
        .unwrap();
        let phase = render_phase_table(&doc);
        assert!(phase.contains("kernel"), "{phase}");
        assert!(phase.contains("####"), "bars rendered: {phase}");
        assert!(phase.contains("overall:"), "{phase}");
        let stage = render_stage_table(&doc);
        assert!(stage.contains("sz.quantize"), "{stage}");
        let metrics = render_metrics_table(&doc);
        assert!(metrics.contains("huffman.escape_hits"), "{metrics}");
        // Empty document renders nothing rather than erroring.
        let empty = Value::parse("{}").unwrap();
        assert!(render_phase_table(&empty).is_empty());
        assert!(render_stage_table(&empty).is_empty());
    }
}

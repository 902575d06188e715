//! Metric names and units (the same lists `BENCHMARK.json` declares) and
//! the two output forms: a table for people, one JSON line for the driver.

use crate::check::Tally;
use crate::stats::quartiles;
use std::collections::BTreeMap;

/// How a metric's value comes about, which decides how `selfcheck`
/// compares two runs of the same code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Measured on this machine's clock; repeats within its bound.
    Wall,
    /// Fixed by the inputs; repeats to the last digit for one seed.
    Exact,
    /// Simulated-clock figure; fixed by the inputs like `Exact`.
    Model,
}

/// End-to-end metrics, measured with tracing off: `(name, unit, class,
/// bound)`. `bound` is the share by which the median may worsen before it
/// counts as a regression; for the exact and model classes it covers the
/// spread across seeds, not across runs.
pub const END_TO_END: &[(&str, &str, Class, f64)] = &[
    ("setup_s", "s", Class::Wall, 0.25),
    ("write_mbs", "MB/s", Class::Wall, 0.25),
    ("read_mbs", "MB/s", Class::Wall, 0.25),
    ("op_p50_ms", "ms", Class::Wall, 0.25),
    ("ratio", "x", Class::Exact, 0.10),
    ("psnr_db", "dB", Class::Exact, 0.10),
    ("sim_gbs", "GB/s", Class::Model, 0.10),
    ("peak_rss_mb", "MB", Class::Wall, 0.25),
];

/// `(name, unit)` of every end-to-end metric.
pub fn end_to_end_units() -> Vec<(&'static str, &'static str)> {
    END_TO_END.iter().map(|&(name, unit, ..)| (name, unit)).collect()
}

/// Per-layer metrics, from the traced run: `(name, unit)`. A workload
/// that does not exercise a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sz.compress.calls", "count"),
    ("sz.compress.busy_s", "s"),
    ("sz.compress.mbs", "MB/s"),
    ("sz.compress.p90_ms", "ms"),
    ("sz.decompress.calls", "count"),
    ("sz.decompress.busy_s", "s"),
    ("sz.decompress.mbs", "MB/s"),
    ("sz.decompress.p90_ms", "ms"),
    ("sz.compress.t1_mbs", "MB/s"),
    ("sz.par_speedup", "x"),
    ("sz.stage.quantize_mbs", "MB/s"),
    ("sz.stage.histogram_mbs", "MB/s"),
    ("sz.stage.huffman_encode_mbs", "MB/s"),
    ("sz.stage.huffman_decode_mbs", "MB/s"),
    ("sz.stage.lzss_mbs", "MB/s"),
    ("sz.stage.covered_frac", "ratio"),
    ("sz.chunk16.compress_us", "us"),
    ("sz.chunk16.decompress_us", "us"),
    ("sz.fixed_cost_ratio", "x"),
    ("zfp.compress.calls", "count"),
    ("zfp.compress.busy_s", "s"),
    ("zfp.compress.mbs", "MB/s"),
    ("zfp.compress.p90_ms", "ms"),
    ("zfp.decompress.calls", "count"),
    ("zfp.decompress.busy_s", "s"),
    ("zfp.decompress.mbs", "MB/s"),
    ("zfp.decompress.p90_ms", "ms"),
    ("zfp.compress.t1_mbs", "MB/s"),
    ("zfp.par_speedup", "x"),
    ("zfp.chunk16.compress_us", "us"),
    ("zfp.chunk16.decompress_us", "us"),
    ("zfp.fixed_cost_ratio", "x"),
    ("gpu.exec.busy_s", "s"),
    ("gpu.sim.compress_gbs", "GB/s"),
    ("gpu.sim.decompress_gbs", "GB/s"),
    ("gpu.sim.kernel_frac", "ratio"),
    ("gpu.sim.h2d_frac", "ratio"),
    ("gpu.sim.d2h_frac", "ratio"),
    ("store.pack.calls", "count"),
    ("store.pack.busy_s", "s"),
    ("store.pack.mbs", "MB/s"),
    ("store.pack.codec_frac", "ratio"),
    ("store.open.us", "us"),
    ("store.verify.mbs", "MB/s"),
    ("store.read.calls", "count"),
    ("store.read.busy_s", "s"),
    ("store.read.p90_ms", "ms"),
    ("store.read.cube32.p50_ms", "ms"),
    ("store.read.plane.p50_ms", "ms"),
    ("store.read.chunk.p50_ms", "ms"),
    ("store.read.pencil.p50_ms", "ms"),
    ("store.read.full.mbs", "MB/s"),
    ("store.read.decode_frac", "ratio"),
    ("store.read.chunks_decoded", "count"),
    ("store.read.bytes_touched", "count"),
    ("store.read.amplification", "x"),
    ("util.crc32.mbs", "MB/s"),
    ("util.sha256.mbs", "MB/s"),
    ("serve.replay.busy_s", "s"),
    ("serve.replay.req_per_s", "1/s"),
    ("serve.codec_par.busy_s", "s"),
    ("serve.sched_frac", "ratio"),
    ("serve.sched_frac.n1024", "ratio"),
    ("cluster.ingest.busy_s", "s"),
    ("cluster.readback.busy_s", "s"),
    ("cluster.req_per_s", "1/s"),
    ("cluster.router_frac", "ratio"),
    ("cluster.router_frac.n1024", "ratio"),
    ("cluster.codec_frac", "ratio"),
    ("cluster.us_per_req.n1024", "us"),
    ("cluster.us_per_req.n4096", "us"),
    ("cluster.scaling_exp", "x"),
    ("cluster.completed", "count"),
    ("cluster.rejected", "count"),
    ("cluster.failovers", "count"),
    ("cluster.sim.p99_ms", "ms"),
    ("cluster.sim.makespan_s", "s"),
    ("cosmo.generate_nyx.s", "s"),
    ("cosmo.generate_hacc.s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.dominant_share", "ratio"),
    ("check.fail_frac", "ratio"),
    ("check.max_err_rel", "ratio"),
];

/// One measured value; a median also carries its quartiles and the
/// number of samples behind it.
#[derive(Debug, Clone, Copy)]
struct Value {
    value: f64,
    quartiles: Option<(f64, f64)>,
    samples: Option<usize>,
}

/// Measured values by name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, Value>,
}

impl Metrics {
    /// Records `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, Value { value, quartiles: None, samples: None });
    }

    /// Records `name`, a figure drawn from `samples` observations.
    pub fn set_n(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.insert(name, Value { value, quartiles: None, samples: Some(samples) });
    }

    /// Records `name` as the median of `samples`, with its quartiles.
    pub fn set_median(&mut self, name: &'static str, samples: &[f64]) {
        let (q1, value, q3) = quartiles(samples);
        self.values
            .insert(name, Value { value, quartiles: Some((q1, q3)), samples: Some(samples.len()) });
    }

    /// The recorded value, 0 when the workload did not measure `name`.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).map_or(0.0, |v| v.value)
    }

    /// Names recorded that `table` does not declare (a harness bug).
    pub fn undeclared(&self, table: &[(&str, &str)]) -> Vec<&'static str> {
        self.values.keys().filter(|k| !table.iter().any(|(n, _)| n == *k)).copied().collect()
    }

    /// One line per declared metric: name, value, unit, sample count.
    pub fn table(&self, table: &[(&str, &str)]) -> String {
        let mut out = String::new();
        for (name, unit) in table {
            if let Some(v) = self.values.get(name) {
                let quartiles = v
                    .quartiles
                    .map_or(String::new(), |(q1, q3)| format!("  q1 {q1:.6}  q3 {q3:.6}"));
                let samples = v.samples.map_or(String::new(), |n| format!("  n={n}"));
                out.push_str(&format!(
                    "  {name:<32} {:>14.6} {unit}{quartiles}{samples}\n",
                    v.value
                ));
            }
        }
        out
    }

    /// The driver's result line: every metric of `table`, unmeasured or
    /// non-finite ones as 0.
    pub fn json_line(&self, table: &[(&str, &str)], tally: &Tally, correct: bool) -> String {
        let body: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let v = self.get(name);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            tally.attempted.max(1),
            tally.failed,
            body.join(", ")
        )
    }
}

/// Process exit code for a finished run: non-zero when any check failed.
pub fn exit_code(tally: &Tally) -> i32 {
    i32::from(tally.failed > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use foresight_util::json::Value;

    #[test]
    fn result_line_is_json_with_every_declared_metric() {
        let mut m = Metrics::default();
        m.set("setup_s", 1.25);
        m.set_median("op_p50_ms", &[f64::NAN; 12]);
        let tally = Tally { attempted: 10, failed: 0, reasons: vec![] };
        let e2e = end_to_end_units();
        let line = m.json_line(&e2e, &tally, true);
        let doc = Value::parse(&line).unwrap();
        assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(Value::as_u64), Some(10));
        let metrics = doc.get("metrics").and_then(Value::as_object).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        let setup = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").and_then(Value::as_f64), Some(1.25));
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
        assert!(m.table(&e2e).contains("n=12"));
        assert!(m.undeclared(&e2e).is_empty());
        m.set("no.such.metric", 1.0);
        assert_eq!(m.undeclared(&e2e), vec!["no.such.metric"]);
    }

    /// `BENCHMARK.json` and the tables above must name the same metrics
    /// with the same units, in the same order.
    #[test]
    fn benchmark_json_declares_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Value::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let e2e = end_to_end_units();
        for (key, table) in [("end_to_end", e2e.as_slice()), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = doc
                .get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(Value::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> =
                table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(declared, ours, "{key}");
        }
        let bounds: Vec<f64> = doc
            .get("end_to_end")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|m| m.get("bound").and_then(Value::as_f64).unwrap())
            .collect();
        assert_eq!(bounds, END_TO_END.iter().map(|d| d.3).collect::<Vec<_>>());
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(names, crate::workload::NAMES);
    }
}

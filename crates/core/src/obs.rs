//! Request observability for the serve/cluster path, as views of the
//! [`foresight_util::telemetry`] model.
//!
//! - **Request-scoped tracing.** A [`TraceContext`] is minted at cluster
//!   admission and propagated router → breaker → node → batch → shard →
//!   device lane, so every retry, failover, redirect, CPU fallback, and
//!   shed decision becomes a causally-linked [`SpanRecord`] on the
//!   simulated clock that names its request, with attributes (node,
//!   device, lane, attempt, breaker state). Phase B dispatch is serial,
//!   so the same seed produces the same spans byte-for-byte. Each run
//!   numbers its spans from 1; [`ObsTrace::trace_of`] rebuilds one
//!   request's tree, and appending [`ObsTrace::spans`] to a telemetry
//!   snapshot puts them in its Chrome trace, linked by flow events.
//! - **SLO engine.** Declarative [`SloSpec`]s (JSON `slo` config
//!   section) evaluated per window of a
//!   [`foresight_util::telemetry::WindowSeries`] with multi-window
//!   burn-rate alerts: a window is *bad* when its metric violates the
//!   threshold, the burn rate is `bad_fraction / (1 - objective)`, and a
//!   verdict pages only when both the fast and the slow window agree (the
//!   Google SRE convention: page ≈ 14.4×, warn ≈ 6×).
//! - **Utilization windows.** [`utilization_windows`] folds busy lane
//!   intervals into per-window gauges of a series.
//!
//! Everything here is zero-cost when off: a disabled [`ObsRecorder`]
//! allocates nothing and mints inert contexts, and reports carry an
//! empty [`ObsTrace`] and no series.

use foresight_util::json::Value;
use foresight_util::telemetry::{Clock, Histogram, SpanRecord, WindowSeries};

// ---------------------------------------------------------------------------
// Trace context + recorder
// ---------------------------------------------------------------------------

/// Propagation handle for request-scoped tracing: which trace (request)
/// a unit of work belongs to and which span caused it. Copy it across
/// hops; record children through [`ObsRecorder::child`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace — the request id that entered at admission.
    pub trace_id: u64,
    /// The current span (0 while recording is off).
    pub span_id: u32,
    /// The current span's parent (0 = root).
    pub parent: u32,
}

impl TraceContext {
    /// An inert context (recording off).
    pub const NONE: TraceContext = TraceContext { trace_id: 0, span_id: 0, parent: 0 };
}

/// Records one run's request spans, numbered from 1. Disabled recorders
/// are inert: every call returns an inert context and stores nothing.
#[derive(Debug, Clone)]
pub struct ObsRecorder {
    enabled: bool,
    spans: Vec<SpanRecord>,
}

impl ObsRecorder {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Self { enabled, spans: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Mints the root context for `request_id` and records its root span
    /// (admission).
    pub fn mint(
        &mut self,
        request_id: u64,
        name: &str,
        start_s: f64,
        dur_s: f64,
        attrs: Vec<(String, String)>,
    ) -> TraceContext {
        let root = TraceContext { trace_id: request_id, span_id: 0, parent: 0 };
        self.child(root, name, start_s, dur_s, attrs)
    }

    /// Records a child span under `ctx` and returns the child's context
    /// for further propagation.
    pub fn child(
        &mut self,
        ctx: TraceContext,
        name: &str,
        start_s: f64,
        dur_s: f64,
        attrs: Vec<(String, String)>,
    ) -> TraceContext {
        if !self.enabled {
            return TraceContext::NONE;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(SpanRecord {
            id: id.into(),
            parent: ctx.span_id.into(),
            name: name.to_string(),
            attrs,
            clock: Clock::Sim,
            request: Some(ctx.trace_id),
            start_s,
            dur_s,
            ..SpanRecord::default()
        });
        TraceContext { trace_id: ctx.trace_id, span_id: id, parent: ctx.span_id }
    }

    /// Places the most recent span on a device process and lane so its
    /// Chrome-trace flow arrow lands on the lane that actually ran it.
    pub fn anchor_last(&mut self, process: &str, track: &str) {
        if let Some(s) = self.spans.last_mut() {
            s.process = process.to_string();
            s.track = track.to_string();
        }
    }

    /// Freezes the recorder into a queryable trace.
    pub fn into_trace(self) -> ObsTrace {
        ObsTrace { spans: self.spans }
    }
}

// ---------------------------------------------------------------------------
// Span trees
// ---------------------------------------------------------------------------

/// All request spans a run recorded, queryable per request.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsTrace {
    /// Spans in record (causal) order.
    pub spans: Vec<SpanRecord>,
}

/// One node of a request's span tree.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// The span.
    pub span: SpanRecord,
    /// Children in causal order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// First descendant (or self) with `name`, preorder.
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        self.find_all(name).into_iter().next()
    }

    /// Every descendant (or self) with `name`, preorder.
    pub fn find_all(&self, name: &str) -> Vec<&SpanNode> {
        let mut out = Vec::new();
        if self.span.name == name {
            out.push(self);
        }
        for c in &self.children {
            out.extend(c.find_all(name));
        }
        out
    }

    /// Attribute value on this node's span.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.span.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

impl ObsTrace {
    /// True when nothing was recorded (obs off).
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Distinct request ids with at least one span, ascending.
    pub fn request_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.spans.iter().filter_map(|s| s.request).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Reconstructs the span tree of one request: the root span plus its
    /// transitive children in causal order. `None` when the request
    /// recorded nothing.
    pub fn trace_of(&self, request_id: u64) -> Option<SpanNode> {
        let mine: Vec<&SpanRecord> =
            self.spans.iter().filter(|s| s.request == Some(request_id)).collect();
        let root = mine.iter().find(|s| s.parent == 0)?;
        fn build(span: &SpanRecord, all: &[&SpanRecord]) -> SpanNode {
            let children = all
                .iter()
                .filter(|s| s.parent == span.id)
                .map(|s| build(s, all))
                .collect();
            SpanNode { span: span.clone(), children }
        }
        Some(build(root, &mine))
    }
}

// ---------------------------------------------------------------------------
// Obs options
// ---------------------------------------------------------------------------

/// Knobs of the observability layer (series geometry). Present on
/// [`crate::serve::ServeOptions::obs`], which `serve` and `serve_cluster`
/// both read; `None` keeps obs off.
#[derive(Debug, Clone, Copy)]
pub struct ObsOptions {
    /// Series window width on the simulated clock (default 1 ms — one
    /// batching window).
    pub series_width_s: f64,
    /// Series windows retained (default 4096).
    pub series_retention: usize,
}

impl Default for ObsOptions {
    fn default() -> Self {
        Self { series_width_s: 1e-3, series_retention: 4096 }
    }
}

// ---------------------------------------------------------------------------
// SLO engine
// ---------------------------------------------------------------------------

/// Burn rate at which a verdict pages (Google SRE multi-window
/// convention: 14.4 × budget burns a 30-day budget in ~2 days).
pub const PAGE_BURN: f64 = 14.4;
/// Burn rate at which a verdict warns.
pub const WARN_BURN: f64 = 6.0;

/// One declarative SLO: `metric` must stay within `threshold_ms` in
/// (almost) every window.
///
/// `metric` is `<histogram>.<stat>` (`stat` ∈ p50/p95/p99/mean/max, in
/// milliseconds; `<histogram>` may omit a trailing `_s`, so
/// `cluster.latency.p99` resolves the `cluster.latency_s` series
/// histogram) or a bare per-window counter name (threshold compared
/// against the raw count).
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// What to watch (see type docs for the grammar).
    pub metric: String,
    /// Violation threshold: milliseconds for histogram stats, a raw
    /// count for counters.
    pub threshold_ms: f64,
    /// Fast alert window, seconds.
    pub window_s: f64,
    /// Slow alert window, seconds (default 4 × `window_s`).
    pub slow_window_s: f64,
    /// Fraction of windows that must be good (error budget =
    /// `1 - objective`; default 0.99).
    pub objective: f64,
}

impl SloSpec {
    /// An SLO with default slow window (4×) and objective (0.99).
    pub fn new(metric: impl Into<String>, threshold_ms: f64, window_s: f64) -> Self {
        Self {
            metric: metric.into(),
            threshold_ms,
            window_s,
            slow_window_s: window_s * 4.0,
            objective: 0.99,
        }
    }
}

/// Alert level of an evaluated SLO.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloLevel {
    /// Within budget.
    Ok,
    /// Both windows burning ≥ [`WARN_BURN`].
    Warn,
    /// Both windows burning ≥ [`PAGE_BURN`] — the CLI exits nonzero.
    Page,
}

impl SloLevel {
    /// Short label for tables and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            SloLevel::Ok => "ok",
            SloLevel::Warn => "warn",
            SloLevel::Page => "page",
        }
    }
}

/// Outcome of evaluating one [`SloSpec`] against a series.
#[derive(Debug, Clone, PartialEq)]
pub struct SloVerdict {
    /// The spec's metric.
    pub metric: String,
    /// The spec's threshold.
    pub threshold_ms: f64,
    /// The spec's objective.
    pub objective: f64,
    /// Windows examined by the slow alert.
    pub windows: usize,
    /// Bad windows among them.
    pub bad_windows: usize,
    /// Burn rate over the fast window.
    pub fast_burn: f64,
    /// Burn rate over the slow window.
    pub slow_burn: f64,
    /// Worst per-window value observed (0 when no window had data).
    pub worst: f64,
    /// The alert level.
    pub level: SloLevel,
}

/// Per-window metric value, `None` when the window has no data for the
/// metric (missing windows are good: an idle service burns no budget).
fn window_value(series: &WindowSeries, index: u64, metric: &str) -> Option<f64> {
    let w = series.window_at(index)?;
    if let Some((base, stat)) = metric.rsplit_once('.') {
        let stat_of = |h: &Histogram| {
            let s = h.summary();
            match stat {
                "p50" => Some(s.p50),
                "p95" => Some(s.p95),
                "p99" => Some(s.p99),
                "mean" => Some(s.mean),
                "max" => Some(s.max),
                _ => None,
            }
        };
        let hist = w.metrics.histogram(base).or_else(|| w.metrics.histogram(&format!("{base}_s")));
        if let Some(v) = hist.and_then(stat_of) {
            return Some(v * 1e3); // histograms record seconds; SLOs are ms
        }
    }
    let c = w.metrics.counter(metric);
    if c > 0 {
        return Some(c as f64);
    }
    None
}

/// Evaluates one SLO against the series' most recent windows.
pub fn evaluate_slo(series: &WindowSeries, spec: &SloSpec) -> SloVerdict {
    let width = series.width_s();
    let fast_n = ((spec.window_s / width).round() as usize).max(1);
    let slow_n = ((spec.slow_window_s / width).round() as usize).max(fast_n);
    let newest = series.newest_index().unwrap_or(0);
    let budget = (1.0 - spec.objective).max(1e-9);
    let mut worst = 0.0f64;
    let mut bad_in = |n: usize| -> usize {
        let lo = (newest + 1).saturating_sub(n as u64);
        let mut bad = 0;
        for index in lo..=newest {
            if let Some(v) = window_value(series, index, &spec.metric) {
                worst = worst.max(v);
                if v > spec.threshold_ms {
                    bad += 1;
                }
            }
        }
        bad
    };
    let fast_bad = bad_in(fast_n);
    let slow_bad = bad_in(slow_n);
    let fast_burn = fast_bad as f64 / fast_n as f64 / budget;
    let slow_burn = slow_bad as f64 / slow_n as f64 / budget;
    let level = if fast_burn >= PAGE_BURN && slow_burn >= PAGE_BURN {
        SloLevel::Page
    } else if fast_burn >= WARN_BURN && slow_burn >= WARN_BURN {
        SloLevel::Warn
    } else {
        SloLevel::Ok
    };
    SloVerdict {
        metric: spec.metric.clone(),
        threshold_ms: spec.threshold_ms,
        objective: spec.objective,
        windows: slow_n,
        bad_windows: slow_bad,
        fast_burn,
        slow_burn,
        worst,
        level,
    }
}

/// Evaluates every spec, in order.
pub fn evaluate_slos(series: &WindowSeries, specs: &[SloSpec]) -> Vec<SloVerdict> {
    specs.iter().map(|s| evaluate_slo(series, s)).collect()
}

/// Renders verdicts as the `telemetry.json` `slo` value (deterministic
/// array, spec order).
pub fn slo_to_value(verdicts: &[SloVerdict]) -> Value {
    Value::Array(
        verdicts
            .iter()
            .map(|v| {
                Value::Object(vec![
                    ("metric".into(), Value::String(v.metric.clone())),
                    ("threshold_ms".into(), Value::Number(v.threshold_ms)),
                    ("objective".into(), Value::Number(v.objective)),
                    ("windows".into(), Value::Number(v.windows as f64)),
                    ("bad_windows".into(), Value::Number(v.bad_windows as f64)),
                    ("fast_burn".into(), Value::Number(v.fast_burn)),
                    ("slow_burn".into(), Value::Number(v.slow_burn)),
                    ("worst".into(), Value::Number(v.worst)),
                    ("level".into(), Value::String(v.level.label().into())),
                ])
            })
            .collect(),
    )
}

/// Renders the `== slo ==` section from a `telemetry.json` document's
/// `slo` key (the parse-side twin of [`slo_to_value`], so the CLI and
/// the JSON cannot disagree). Empty string when the key is absent.
pub fn render_slo_section(doc: &Value) -> String {
    let Some(rows) = doc.get("slo").and_then(Value::as_array) else {
        return String::new();
    };
    let mut out = String::from("== slo ==\n");
    out.push_str(&format!(
        "{:<28} {:>12} {:>9} {:>10} {:>10} {:>10} {:>6}\n",
        "metric", "threshold", "bad/win", "fast-burn", "slow-burn", "worst", "level"
    ));
    for r in rows {
        let s = |k: &str| r.get(k).and_then(Value::as_str).unwrap_or("?").to_string();
        let n = |k: &str| r.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
        out.push_str(&format!(
            "{:<28} {:>12.3} {:>9} {:>10.2} {:>10.2} {:>10.3} {:>6}\n",
            s("metric"),
            n("threshold_ms"),
            format!("{}/{}", n("bad_windows") as u64, n("windows") as u64),
            n("fast_burn"),
            n("slow_burn"),
            n("worst"),
            s("level"),
        ));
    }
    out
}

/// True when any verdict in a `telemetry.json` `slo` array pages.
pub fn any_page(doc: &Value) -> bool {
    doc.get("slo")
        .and_then(Value::as_array)
        .is_some_and(|rows| {
            rows.iter()
                .any(|r| r.get("level").and_then(Value::as_str) == Some("page"))
        })
}

/// Folds busy intervals into per-window utilization gauges named
/// `name`: each window's gauge is (busy seconds overlapping the window)
/// / (window width × `scale`), where `scale` is the lane count the
/// intervals were drawn from (so a fully-busy group gauges 1.0).
pub fn utilization_windows(
    series: &mut WindowSeries,
    name: &str,
    busy: &[(f64, f64)],
    scale: f64,
) {
    let width = series.width_s();
    let mut acc: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
    for &(start, dur) in busy {
        if dur <= 0.0 {
            continue;
        }
        let end = start + dur;
        let (w0, w1) = (series.window_index(start), series.window_index(end));
        for w in w0..=w1 {
            let lo = (w as f64 * width).max(start);
            let hi = ((w + 1) as f64 * width).min(end);
            if hi > lo {
                *acc.entry(w).or_insert(0.0) += hi - lo;
            }
        }
    }
    for (w, busy_s) in acc {
        series.gauge(w as f64 * width, name, busy_s / (width * scale.max(1.0)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foresight_util::telemetry::{chrome_trace, ChromeTraceOptions, TelemetrySnapshot};

    fn spec(metric: &str, threshold_ms: f64, window_s: f64) -> SloSpec {
        SloSpec::new(metric, threshold_ms, window_s)
    }

    #[test]
    fn recorder_builds_a_queryable_tree() {
        let mut rec = ObsRecorder::new(true);
        let root = rec.mint(7, "admission", 0.0, 1e-3, vec![("key".into(), "f1".into())]);
        let d1 = rec.child(root, "dispatch", 1e-3, 2e-3, vec![("node".into(), "0".into())]);
        rec.child(d1, "unit", 1e-3, 1e-3, vec![("device".into(), "n0-gpu0".into())]);
        let d2 = rec.child(root, "dispatch", 3e-3, 1e-3, vec![("node".into(), "1".into())]);
        rec.child(d2, "unit", 3e-3, 1e-3, vec![]);
        let trace = rec.into_trace();
        let tree = trace.trace_of(7).unwrap();
        assert_eq!(tree.span.name, "admission");
        assert_eq!(tree.children.len(), 2);
        assert_eq!(tree.find_all("dispatch").len(), 2);
        assert_eq!(tree.find_all("unit").len(), 2);
        assert_eq!(tree.find("dispatch").unwrap().attr("node"), Some("0"));
        assert!(trace.trace_of(8).is_none());
        assert_eq!(tree.attr("key"), Some("f1"));
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let mut rec = ObsRecorder::new(false);
        let root = rec.mint(7, "admission", 0.0, 1.0, vec![]);
        assert_eq!(root, TraceContext::NONE);
        let child = rec.child(root, "dispatch", 0.0, 1.0, vec![]);
        assert_eq!(child, TraceContext::NONE);
        assert!(rec.into_trace().is_empty());
    }

    fn series_with(latencies_ms: &[(f64, f64)]) -> WindowSeries {
        // (t_s, latency_ms) samples into 1 ms windows.
        let mut s = WindowSeries::new(1e-3, 64);
        for &(t, ms) in latencies_ms {
            s.observe(t, "cluster.latency_s", ms * 1e-3);
        }
        s
    }

    #[test]
    fn slo_ok_when_under_threshold() {
        let s = series_with(&[(0.5e-3, 1.0), (1.5e-3, 2.0), (2.5e-3, 1.5), (3.5e-3, 1.2)]);
        let v = evaluate_slo(&s, &spec("cluster.latency.p99", 50.0, 4e-3));
        assert_eq!(v.level, SloLevel::Ok);
        assert_eq!(v.bad_windows, 0);
        assert!(v.worst > 0.0 && v.worst < 50.0);
    }

    #[test]
    fn slo_pages_when_both_windows_burn() {
        // Every window violates: fast and slow burn both max out.
        let samples: Vec<(f64, f64)> =
            (0..16).map(|i| (i as f64 * 1e-3 + 0.5e-3, 100.0)).collect();
        let s = series_with(&samples);
        let v = evaluate_slo(&s, &spec("cluster.latency.p99", 50.0, 4e-3));
        assert_eq!(v.level, SloLevel::Page);
        assert!(v.fast_burn >= PAGE_BURN && v.slow_burn >= PAGE_BURN);
        assert_eq!(v.bad_windows, v.windows);
    }

    #[test]
    fn slo_fast_spike_alone_does_not_page() {
        // One bad window out of 16: the fast window burns but the slow
        // window vetoes the page (transient spike, not a trend).
        let mut samples: Vec<(f64, f64)> =
            (0..15).map(|i| (i as f64 * 1e-3 + 0.5e-3, 1.0)).collect();
        samples.push((15.5e-3, 100.0));
        let s = series_with(&samples);
        let v = evaluate_slo(&s, &spec("cluster.latency.p99", 50.0, 4e-3));
        assert_ne!(v.level, SloLevel::Page);
        assert!(v.fast_burn > v.slow_burn);
    }

    #[test]
    fn slo_counter_metric_and_missing_windows_are_good() {
        let mut s = WindowSeries::new(1e-3, 64);
        s.incr(0.5e-3, "cluster.shed", 3);
        // 15 idle windows follow — they must not count as violations.
        s.observe(15.5e-3, "cluster.latency_s", 1e-3);
        let v = evaluate_slo(&s, &spec("cluster.shed", 1.0, 4e-3));
        assert_eq!(v.level, SloLevel::Ok, "violation fell out of both windows");
        let v2 = evaluate_slo(&s, &spec("cluster.latency.p99", 50.0, 4e-3));
        assert_eq!(v2.bad_windows, 0);
    }

    #[test]
    fn verdicts_roundtrip_through_json_rendering() {
        let s = series_with(&[(0.5e-3, 100.0)]);
        let verdicts = evaluate_slos(
            &s,
            &[spec("cluster.latency.p99", 50.0, 1e-3), spec("cluster.latency.p99", 500.0, 1e-3)],
        );
        let doc = Value::Object(vec![("slo".into(), slo_to_value(&verdicts))]);
        let section = render_slo_section(&doc);
        assert!(section.starts_with("== slo =="));
        assert!(section.contains("cluster.latency.p99"));
        assert!(any_page(&doc), "100ms >> 50ms with 1-window alerts pages");
        let relaxed = Value::Object(vec![(
            "slo".into(),
            slo_to_value(&evaluate_slos(&s, &[spec("cluster.latency.p99", 500.0, 1e-3)])),
        )]);
        assert!(!any_page(&relaxed));
    }

    #[test]
    fn chrome_export_links_spans_with_flows() {
        let mut rec = ObsRecorder::new(true);
        let root = rec.mint(3, "admission", 0.0, 1e-3, vec![]);
        let d = rec.child(root, "dispatch", 1e-3, 2e-3, vec![]);
        rec.child(d, "kernel", 1.2e-3, 0.5e-3, vec![]);
        rec.anchor_last("n0-gpu0", "kernel");
        let trace = rec.into_trace();
        let mut snap = TelemetrySnapshot::default();
        snap.spans.push(SpanRecord::slice("n0-gpu0", "kernel", "k", 1.2e-3, 0.5e-3));
        snap.spans.extend(trace.spans.iter().cloned());
        let opts = ChromeTraceOptions { include_host: false };
        let doc = chrome_trace(&snap, opts);
        let events = match &doc {
            Value::Array(e) => e,
            _ => panic!("array doc"),
        };
        let count = |ph: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(Value::as_str) == Some(ph))
                .count()
        };
        assert_eq!(count("X"), 4, "the device slice plus one complete event per span");
        assert_eq!(count("s"), 2, "one flow per parent edge");
        assert_eq!(count("f"), 2);
        // Every flow references a span id that an X event defines.
        let defined: Vec<String> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .filter_map(|e| e.get("args").and_then(|a| a.get("span_id")))
            .filter_map(|v| v.as_str().map(str::to_string))
            .collect();
        for e in events.iter().filter(|e| {
            matches!(e.get("ph").and_then(Value::as_str), Some("s") | Some("f"))
        }) {
            let span = e.get("args").and_then(|a| a.get("span")).and_then(Value::as_str).unwrap();
            assert!(defined.contains(&span.to_string()), "flow references unknown span {span}");
        }
        // The kernel span's flow finish lands on the device lane (pid 1).
        let finish = events.iter().filter(|e| e.get("ph").and_then(Value::as_str) == Some("f"));
        let pids: Vec<f64> = finish.filter_map(|e| e.get("pid").and_then(Value::as_f64)).collect();
        assert_eq!(pids, [2.0, 1.0], "dispatch on its request track, kernel on the lane");
        // Determinism: same recording, same bytes.
        assert_eq!(doc.to_json(), chrome_trace(&snap, opts).to_json());
    }
}

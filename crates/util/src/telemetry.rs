//! Foresight telemetry: structured spans, a metrics registry, and
//! standard trace exports.
//!
//! The paper's core deliverable is a *measurement* (Fig. 7 kernel-vs-PCIe
//! breakdowns, rate-distortion sweeps); this module is the measurement
//! substrate the whole workspace shares. It records three kinds of data:
//!
//! - **Spans** — RAII guards ([`span`], [`timed`]) that capture nested
//!   begin/end intervals on the *wall clock*. Nesting is tracked through a
//!   thread-local stack; work fanned out across rayon workers keeps its
//!   logical parent via [`current_span`] + [`span_with_parent`].
//! - **Sim slices** ([`sim_slice`]) — intervals on a *simulated clock*
//!   (the `gpu-sim` device model), keyed by a process (one per simulated
//!   device) and a track (one per phase: kernel, h2d, d2h, init, free,
//!   fault). Sim slices are deterministic for a fixed seed, which makes
//!   the Chrome-trace export golden-testable.
//! - **Metrics** — counters, gauges, and log-bucketed histograms with
//!   p50/p95/p99 summaries ([`MetricsRegistry`]). A global registry backs
//!   [`counter`]/[`gauge`]/[`observe`]; standalone registries serve
//!   always-on bookkeeping (e.g. the pipeline resilience summary).
//!
//! # Zero cost when off
//!
//! Collection is disabled by default. Every recording entry point first
//! checks one relaxed atomic load and returns immediately when disabled —
//! no allocation, no locking, no clock reads beyond what the caller asked
//! for ([`timed`] still returns wall seconds because its callers need the
//! measurement either way). With telemetry off, instrumented code paths
//! produce byte-identical outputs to their un-instrumented form; a test
//! in `crates/core/tests/telemetry_pipeline.rs` guards this.
//!
//! # Exports
//!
//! [`TelemetrySnapshot`] clones the collected state; [`chrome_trace`]
//! renders it as Chrome trace-event JSON (loadable in Perfetto; sim
//! processes are deterministic, the host process can be excluded for
//! golden tests) and [`flamegraph`] as collapsed-stack text for
//! `inferno`/`flamegraph.pl`.

use crate::json::Value;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Global collector
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

fn collector() -> &'static Collector {
    static COLLECTOR: OnceLock<Collector> = OnceLock::new();
    COLLECTOR.get_or_init(Collector::new)
}

/// Turns collection on. Until this is called every telemetry entry point
/// is a no-op.
pub fn enable() {
    collector(); // pin the epoch before the first measurement
    ENABLED.store(true, Ordering::Release);
}

/// Turns collection off (already-collected data is kept).
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// True when collection is on. One relaxed atomic load — cheap enough
/// for hot paths.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Disables collection and clears everything collected so far (spans,
/// slices, metrics). Intended for tests; runs start clean by default.
pub fn reset() {
    disable();
    let c = collector();
    c.spans.lock().unwrap().clear();
    c.slices.lock().unwrap().clear();
    c.metrics.clear();
}

struct Collector {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
    slices: Mutex<Vec<SimSlice>>,
    metrics: MetricsRegistry,
}

impl Collector {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            slices: Mutex::new(Vec::new()),
            metrics: MetricsRegistry::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }
}

// ---------------------------------------------------------------------------
// Spans (wall clock)
// ---------------------------------------------------------------------------

/// Identifier of a live or finished span (`0` means "no span").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The "no parent" sentinel.
    pub const NONE: SpanId = SpanId(0);
}

/// One finished span as stored by the collector.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Unique id (never 0).
    pub id: u64,
    /// Parent span id (0 for roots).
    pub parent: u64,
    /// Span name, e.g. `"sz.quantize"`.
    pub name: String,
    /// Key/value attributes attached before the guard dropped.
    pub attrs: Vec<(String, String)>,
    /// Begin time in microseconds since the collector epoch.
    pub wall_start_us: f64,
    /// Duration in microseconds.
    pub wall_dur_us: f64,
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The innermost live span on this thread, for stitching parents across
/// thread boundaries (capture before `par_iter`, pass to
/// [`span_with_parent`] inside the closure).
pub fn current_span() -> SpanId {
    if !is_enabled() {
        return SpanId::NONE;
    }
    SPAN_STACK.with(|s| SpanId(s.borrow().last().copied().unwrap_or(0)))
}

/// RAII span guard: records a [`SpanRecord`] when dropped. Inert (and
/// free) when telemetry is disabled.
#[must_use = "a span measures the scope it lives in"]
pub struct Span {
    /// 0 for inert guards.
    id: u64,
    parent: u64,
    name: String,
    attrs: Vec<(String, String)>,
    start_us: f64,
}

/// Opens a span named `name`, parented to the innermost live span on
/// this thread.
pub fn span(name: impl AsRef<str>) -> Span {
    if !is_enabled() {
        return Span::inert();
    }
    let parent = SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
    Span::open(name.as_ref(), parent)
}

/// Opens a span with an explicit parent — the cross-thread form used
/// under rayon/crossbeam where the thread-local stack does not carry
/// over. The new span still becomes the innermost span *on this thread*,
/// so nested [`span`] calls chain correctly.
pub fn span_with_parent(name: impl AsRef<str>, parent: SpanId) -> Span {
    if !is_enabled() {
        return Span::inert();
    }
    Span::open(name.as_ref(), parent.0)
}

impl Span {
    fn inert() -> Self {
        Self { id: 0, parent: 0, name: String::new(), attrs: Vec::new(), start_us: 0.0 }
    }

    fn open(name: &str, parent: u64) -> Self {
        let c = collector();
        let id = c.next_id.fetch_add(1, Ordering::Relaxed);
        SPAN_STACK.with(|s| s.borrow_mut().push(id));
        Self {
            id,
            parent,
            name: name.to_string(),
            attrs: Vec::new(),
            start_us: c.now_us(),
        }
    }

    /// This span's id (NONE when telemetry is disabled).
    pub fn id(&self) -> SpanId {
        SpanId(self.id)
    }

    /// Attaches an attribute; shows up under `args` in the Chrome trace.
    pub fn set_attr(&mut self, key: impl Into<String>, value: impl Into<String>) {
        if self.id != 0 {
            self.attrs.push((key.into(), value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let c = collector();
        let end = c.now_us();
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&self.id) {
                s.pop();
            } else {
                // Out-of-order drop (guards held across scopes); remove
                // wherever it sits rather than corrupting the stack.
                s.retain(|&x| x != self.id);
            }
        });
        c.spans.lock().unwrap().push(SpanRecord {
            id: self.id,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            attrs: std::mem::take(&mut self.attrs),
            wall_start_us: self.start_us,
            wall_dur_us: (end - self.start_us).max(0.0),
        });
    }
}

/// Times `f` on the wall clock, returning `(result, seconds)` — and, when
/// telemetry is enabled, records the interval as a span named `name`.
///
/// This is the unified replacement for `timer::time` on instrumented
/// paths: callers keep the wall measurement they always had, and the
/// exporters see the same interval as a span.
pub fn timed<R>(name: &str, f: impl FnOnce() -> R) -> (R, f64) {
    let _span = if is_enabled() { Some(span(name)) } else { None };
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

// ---------------------------------------------------------------------------
// Sim slices (simulated clock)
// ---------------------------------------------------------------------------

/// One interval on a simulated clock.
#[derive(Debug, Clone)]
pub struct SimSlice {
    /// Simulated device/node this happened on (a Chrome-trace process).
    pub process: String,
    /// Phase lane within the process (a Chrome-trace track): `kernel`,
    /// `h2d`, `d2h`, `init`, `free`, `fault`.
    pub track: String,
    /// Event label, e.g. `"cuzfp"` or `"h2d!transfer"`.
    pub name: String,
    /// Start in simulated seconds since device creation.
    pub sim_start_s: f64,
    /// Duration in simulated seconds.
    pub sim_dur_s: f64,
}

/// Records an interval on a simulated clock. No-op when disabled.
pub fn sim_slice(process: &str, track: &str, name: &str, sim_start_s: f64, sim_dur_s: f64) {
    if !is_enabled() {
        return;
    }
    collector().slices.lock().unwrap().push(SimSlice {
        process: process.to_string(),
        track: track.to_string(),
        name: name.to_string(),
        sim_start_s,
        sim_dur_s,
    });
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Adds `delta` to the global counter `name`. No-op when disabled.
pub fn counter(name: &str, delta: u64) {
    if is_enabled() {
        collector().metrics.counter(name, delta);
    }
}

/// Sets the global gauge `name`. No-op when disabled.
pub fn gauge(name: &str, value: f64) {
    if is_enabled() {
        collector().metrics.gauge(name, value);
    }
}

/// Records one sample into the global histogram `name`. No-op when
/// disabled.
pub fn observe(name: &str, value: f64) {
    if is_enabled() {
        collector().metrics.observe(name, value);
    }
}

/// A log₂-bucketed histogram of non-negative `f64` samples.
///
/// Finite positive samples land in the bucket of their binary exponent
/// (clamped to `[MIN_EXP, MAX_EXP]`, so subnormals collapse into the
/// lowest bucket); zeros and negatives are counted separately, as are
/// `+inf` and NaN. Quantiles interpolate at the geometric midpoint of the
/// winning bucket, which is exact to within a factor of √2 — plenty for
/// p50/p95/p99 over timing data spanning nine decades.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    zeros: u64,
    infs: u64,
    nans: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// Lowest binary exponent with its own bucket (2⁻⁶⁴ ≈ 5e-20 s).
    pub const MIN_EXP: i32 = -64;
    /// Highest binary exponent with its own bucket (2⁶⁴ ≈ 1.8e19).
    pub const MAX_EXP: i32 = 64;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        let n = (Self::MAX_EXP - Self::MIN_EXP + 1) as usize;
        Self {
            buckets: vec![0; n],
            zeros: 0,
            infs: 0,
            nans: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn bucket_of(value: f64) -> usize {
        let exp = value.log2().floor();
        let exp = (exp as i32).clamp(Self::MIN_EXP, Self::MAX_EXP);
        (exp - Self::MIN_EXP) as usize
    }

    /// Records one sample.
    pub fn observe(&mut self, value: f64) {
        if value.is_nan() {
            self.nans += 1;
            return;
        }
        self.count += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if value.is_infinite() {
            self.infs += 1;
            return;
        }
        self.sum += value;
        if value <= 0.0 {
            self.zeros += 1;
        } else {
            self.buckets[Self::bucket_of(value)] += 1;
        }
    }

    /// Samples recorded (NaNs excluded).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// NaN samples seen (kept out of every other statistic).
    pub fn nan_count(&self) -> u64 {
        self.nans
    }

    /// Zero-or-negative samples seen.
    pub fn zero_count(&self) -> u64 {
        self.zeros
    }

    /// `+inf` samples seen.
    pub fn inf_count(&self) -> u64 {
        self.infs
    }

    /// Approximate quantile `q` in `[0, 1]`. Returns 0 for an empty
    /// histogram. Zeros sort below every bucket; `+inf` above.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        if rank <= self.zeros {
            return 0.0;
        }
        let mut seen = self.zeros;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if rank <= seen {
                let exp = Self::MIN_EXP + i as i32;
                // Geometric midpoint of [2^exp, 2^(exp+1)).
                return 2f64.powi(exp) * std::f64::consts::SQRT_2;
            }
        }
        f64::INFINITY
    }

    /// Mean of the finite samples (0 when empty).
    pub fn mean(&self) -> f64 {
        let finite = self.count - self.infs;
        if finite == 0 {
            0.0
        } else {
            self.sum / finite as f64
        }
    }

    /// Point-in-time summary (count, min/max/mean, p50/p95/p99).
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            zeros: self.zeros,
            infs: self.infs,
            nans: self.nans,
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
            mean: self.mean(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Frozen histogram statistics, as exported in `telemetry.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Samples recorded (NaNs excluded).
    pub count: u64,
    /// Zero-or-negative samples.
    pub zeros: u64,
    /// `+inf` samples.
    pub infs: u64,
    /// NaN samples.
    pub nans: u64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Mean of finite samples.
    pub mean: f64,
    /// Approximate median.
    pub p50: f64,
    /// Approximate 95th percentile.
    pub p95: f64,
    /// Approximate 99th percentile.
    pub p99: f64,
}

#[derive(Default)]
struct MetricsState {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// A thread-safe registry of counters, gauges, and histograms.
///
/// The global telemetry registry is an instance of this; standalone
/// instances serve always-on accounting that must work with telemetry
/// disabled (e.g. the pipeline resilience summary, which the CLI and
/// `telemetry.json` both read so they cannot disagree).
#[derive(Default)]
pub struct MetricsRegistry {
    state: Mutex<MetricsState>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to counter `name` (created at 0 on first use). Like
    /// `gauge` and `observe`, looks the name up first: only its first use
    /// allocates a key under the lock.
    pub fn counter(&self, name: &str, delta: u64) {
        let mut s = self.state.lock().unwrap();
        match s.counters.get_mut(name) {
            Some(total) => *total += delta,
            None => {
                s.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Sets gauge `name` (last write wins — idempotent under job retry).
    pub fn gauge(&self, name: &str, value: f64) {
        let mut s = self.state.lock().unwrap();
        match s.gauges.get_mut(name) {
            Some(gauge) => *gauge = value,
            None => {
                s.gauges.insert(name.to_string(), value);
            }
        }
    }

    /// Records a sample into histogram `name`.
    pub fn observe(&self, name: &str, value: f64) {
        let mut s = self.state.lock().unwrap();
        match s.histograms.get_mut(name) {
            Some(histogram) => histogram.observe(value),
            None => s.histograms.entry(name.to_string()).or_default().observe(value),
        }
    }

    /// Reads a counter (0 if absent).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.state.lock().unwrap().counters.get(name).copied().unwrap_or(0)
    }

    /// Reads a gauge.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.state.lock().unwrap().gauges.get(name).copied()
    }

    /// Clears every metric.
    pub fn clear(&self) {
        *self.state.lock().unwrap() = MetricsState::default();
    }

    /// Clones the current values, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let s = self.state.lock().unwrap();
        MetricsSnapshot {
            counters: s.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            gauges: s.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            histograms: s
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.summary()))
                .collect(),
        }
    }
}

/// Frozen, name-sorted copy of a [`MetricsRegistry`].
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` counters.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges.
    pub gauges: Vec<(String, f64)>,
    /// `(name, summary)` histograms.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl MetricsSnapshot {
    /// Reads a counter (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Reads a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Renders as a JSON object `{counters, gauges, histograms}`.
    pub fn to_json(&self) -> Value {
        let counters = Value::Object(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), Value::Number(*v as f64)))
                .collect(),
        );
        let gauges = Value::Object(
            self.gauges
                .iter()
                .map(|(k, v)| (k.clone(), Value::Number(*v)))
                .collect(),
        );
        let hists = Value::Object(
            self.histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        Value::Object(vec![
                            ("count".into(), Value::Number(h.count as f64)),
                            ("zeros".into(), Value::Number(h.zeros as f64)),
                            ("infs".into(), Value::Number(h.infs as f64)),
                            ("nans".into(), Value::Number(h.nans as f64)),
                            ("min".into(), Value::Number(h.min)),
                            ("max".into(), Value::Number(h.max)),
                            ("mean".into(), Value::Number(h.mean)),
                            ("p50".into(), Value::Number(h.p50)),
                            ("p95".into(), Value::Number(h.p95)),
                            ("p99".into(), Value::Number(h.p99)),
                        ]),
                    )
                })
                .collect(),
        );
        Value::Object(vec![
            ("counters".into(), counters),
            ("gauges".into(), gauges),
            ("histograms".into(), hists),
        ])
    }
}

// ---------------------------------------------------------------------------
// Snapshot + exporters
// ---------------------------------------------------------------------------

/// Everything collected so far, cloned out of the global collector.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// Finished wall-clock spans.
    pub spans: Vec<SpanRecord>,
    /// Simulated-clock slices.
    pub slices: Vec<SimSlice>,
    /// Global metrics.
    pub metrics: MetricsSnapshot,
}

impl TelemetrySnapshot {
    /// Total simulated seconds per track, summed across every process,
    /// sorted by track name. This is the exporters' view of
    /// `Device::phase_totals()` — the two must agree exactly.
    pub fn phase_totals(&self) -> Vec<(String, f64)> {
        let mut totals: BTreeMap<&str, f64> = BTreeMap::new();
        for s in &self.slices {
            *totals.entry(s.track.as_str()).or_insert(0.0) += s.sim_dur_s;
        }
        totals.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
    }
}

/// Clones the collected state (works whether or not collection is
/// currently enabled).
pub fn snapshot() -> TelemetrySnapshot {
    let c = collector();
    TelemetrySnapshot {
        spans: c.spans.lock().unwrap().clone(),
        slices: c.slices.lock().unwrap().clone(),
        metrics: c.metrics.snapshot(),
    }
}

/// Options for [`chrome_trace`].
#[derive(Debug, Clone, Copy)]
pub struct ChromeTraceOptions {
    /// Include the wall-clock host process (every [`span`]). Wall times
    /// are nondeterministic, so golden tests set this to `false` and pin
    /// only the simulated processes.
    pub include_host: bool,
}

impl Default for ChromeTraceOptions {
    fn default() -> Self {
        Self { include_host: true }
    }
}

/// Renders a snapshot as Chrome trace-event JSON (the "JSON Array
/// Format" Perfetto and `chrome://tracing` load directly).
///
/// Layout: one process per simulated device/node, one thread ("track")
/// per phase within it; sim timestamps are microseconds on that device's
/// clock. The host process (when included) carries every wall-clock span
/// on one track per recording thread... collapsed to a single track here
/// because span nesting already encodes concurrency structure.
/// Event order is deterministic: metadata first, then complete events
/// sorted by `(pid, tid, ts, dur, name)`.
pub fn chrome_trace(snap: &TelemetrySnapshot, opts: ChromeTraceOptions) -> Value {
    let mut events: Vec<Value> = Vec::new();

    // Deterministic pid assignment: sorted process names.
    let mut processes: Vec<&str> = snap.slices.iter().map(|s| s.process.as_str()).collect();
    processes.sort_unstable();
    processes.dedup();
    let pid_of = |p: &str| processes.iter().position(|&x| x == p).unwrap() as f64 + 1.0;

    // Deterministic tid assignment per process: sorted track names.
    let mut tracks: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for s in &snap.slices {
        let t = tracks.entry(s.process.as_str()).or_default();
        if !t.contains(&s.track.as_str()) {
            t.push(s.track.as_str());
        }
    }
    for t in tracks.values_mut() {
        t.sort_unstable();
    }

    for &p in &processes {
        events.push(meta_event("process_name", pid_of(p), None, p));
        for (i, &tr) in tracks[p].iter().enumerate() {
            events.push(meta_event("thread_name", pid_of(p), Some(i as f64 + 1.0), tr));
        }
    }

    let mut complete: Vec<(f64, f64, f64, f64, Value)> = Vec::new();
    for s in &snap.slices {
        let pid = pid_of(&s.process);
        let tid = tracks[s.process.as_str()]
            .iter()
            .position(|&t| t == s.track)
            .unwrap() as f64
            + 1.0;
        let ts = s.sim_start_s * 1e6;
        let dur = s.sim_dur_s * 1e6;
        complete.push((
            pid,
            tid,
            ts,
            dur,
            complete_event(&s.name, "sim", pid, tid, ts, dur, &[]),
        ));
    }

    if opts.include_host && !snap.spans.is_empty() {
        let host_pid = processes.len() as f64 + 1.0;
        events.push(meta_event("process_name", host_pid, None, "host"));
        events.push(meta_event("thread_name", host_pid, Some(1.0), "spans"));
        for sp in &snap.spans {
            let mut attrs = sp.attrs.clone();
            if sp.parent != 0 {
                attrs.push(("parent".into(), sp.parent.to_string()));
            }
            attrs.push(("span_id".into(), sp.id.to_string()));
            complete.push((
                host_pid,
                1.0,
                sp.wall_start_us,
                sp.wall_dur_us,
                complete_event(
                    &sp.name,
                    "wall",
                    host_pid,
                    1.0,
                    sp.wall_start_us,
                    sp.wall_dur_us,
                    &attrs,
                ),
            ));
        }
    }

    complete.sort_by(|a, b| {
        (a.0, a.1, a.2, a.3)
            .partial_cmp(&(b.0, b.1, b.2, b.3))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    events.extend(complete.into_iter().map(|(_, _, _, _, e)| e));
    Value::Array(events)
}

fn meta_event(kind: &str, pid: f64, tid: Option<f64>, name: &str) -> Value {
    let mut fields = vec![
        ("ph".into(), Value::String("M".into())),
        ("name".into(), Value::String(kind.into())),
        ("pid".into(), Value::Number(pid)),
    ];
    if let Some(tid) = tid {
        fields.push(("tid".into(), Value::Number(tid)));
    }
    fields.push((
        "args".into(),
        Value::Object(vec![("name".into(), Value::String(name.into()))]),
    ));
    Value::Object(fields)
}

fn complete_event(
    name: &str,
    cat: &str,
    pid: f64,
    tid: f64,
    ts: f64,
    dur: f64,
    attrs: &[(String, String)],
) -> Value {
    let mut fields = vec![
        ("ph".into(), Value::String("X".into())),
        ("name".into(), Value::String(name.into())),
        ("cat".into(), Value::String(cat.into())),
        ("pid".into(), Value::Number(pid)),
        ("tid".into(), Value::Number(tid)),
        ("ts".into(), Value::Number(ts)),
        ("dur".into(), Value::Number(dur)),
    ];
    if !attrs.is_empty() {
        fields.push((
            "args".into(),
            Value::Object(
                attrs
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::String(v.clone())))
                    .collect(),
            ),
        ));
    }
    Value::Object(fields)
}

// ---------------------------------------------------------------------------
// Windowed time-series (ring-buffer windows over the simulated clock)
// ---------------------------------------------------------------------------

/// One fixed-width window of a [`WindowSeries`]: counters, last-write
/// gauges, and histograms scoped to `[index * width_s, (index+1) * width_s)`
/// on the simulated clock.
#[derive(Debug, Clone, Default)]
pub struct SeriesWindow {
    /// Window index (`floor(t / width_s)`).
    pub index: u64,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl SeriesWindow {
    /// Reads a counter (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Reads a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Borrows a histogram, if any sample landed in this window.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// True when nothing was recorded in the window.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

/// Fixed-width ring-buffer windows over the simulated clock.
///
/// A window materializes the first time a sample lands in it, so an idle
/// clock produces index gaps, not empty windows — readers that need
/// per-window semantics (the SLO engine) must treat a missing index as
/// "no data". The ring retains the `retention` highest-index windows
/// ever touched; older windows are evicted lowest-index-first, and
/// samples that arrive for an already-evicted window are counted in
/// `dropped` rather than resurrecting it. Everything is plain data on
/// the simulated clock, so same-seed runs produce byte-identical
/// snapshots.
#[derive(Debug, Clone)]
pub struct WindowSeries {
    width_s: f64,
    retention: usize,
    /// Ascending by window index; at most `retention` entries.
    windows: Vec<SeriesWindow>,
    dropped: u64,
}

impl WindowSeries {
    /// A series of `retention` windows of `width_s` seconds each.
    /// `width_s` must be positive and finite; `retention >= 1`.
    pub fn new(width_s: f64, retention: usize) -> Self {
        assert!(width_s > 0.0 && width_s.is_finite(), "window width must be positive");
        assert!(retention >= 1, "retention must be >= 1");
        Self { width_s, retention, windows: Vec::new(), dropped: 0 }
    }

    /// The window width, seconds.
    pub fn width_s(&self) -> f64 {
        self.width_s
    }

    /// Max windows retained.
    pub fn retention(&self) -> usize {
        self.retention
    }

    /// Samples that arrived for an already-evicted window.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The window index covering simulated time `t_s` (clamped at 0).
    pub fn window_index(&self, t_s: f64) -> u64 {
        (t_s.max(0.0) / self.width_s).floor() as u64
    }

    /// Retained windows, ascending by index.
    pub fn windows(&self) -> &[SeriesWindow] {
        &self.windows
    }

    /// The retained window at `index`, if it materialized and survived.
    pub fn window_at(&self, index: u64) -> Option<&SeriesWindow> {
        self.windows.iter().find(|w| w.index == index)
    }

    /// Highest window index ever touched (None before the first sample).
    pub fn newest_index(&self) -> Option<u64> {
        self.windows.last().map(|w| w.index)
    }

    fn window_mut(&mut self, t_s: f64) -> Option<&mut SeriesWindow> {
        let index = self.window_index(t_s);
        let pos = match self.windows.binary_search_by_key(&index, |w| w.index) {
            Ok(pos) => pos,
            Err(pos) => {
                self.windows.insert(pos, SeriesWindow { index, ..SeriesWindow::default() });
                // Evict lowest-index windows first until the ring fits.
                // A sample for an already-evicted index lands below every
                // retained window and is itself the next victim: counted
                // in `dropped`, never resurrected.
                while self.windows.len() > self.retention {
                    self.windows.remove(0);
                }
                match self.windows.binary_search_by_key(&index, |w| w.index) {
                    Ok(p) => p,
                    Err(_) => {
                        self.dropped += 1;
                        return None;
                    }
                }
            }
        };
        Some(&mut self.windows[pos])
    }

    /// Adds `delta` to counter `name` in the window covering `t_s`.
    pub fn incr(&mut self, t_s: f64, name: &str, delta: u64) {
        if let Some(w) = self.window_mut(t_s) {
            *w.counters.entry(name.to_string()).or_insert(0) += delta;
        }
    }

    /// Sets gauge `name` in the window covering `t_s` (last write wins).
    pub fn gauge(&mut self, t_s: f64, name: &str, value: f64) {
        if let Some(w) = self.window_mut(t_s) {
            w.gauges.insert(name.to_string(), value);
        }
    }

    /// Records a histogram sample into the window covering `t_s`.
    pub fn observe(&mut self, t_s: f64, name: &str, value: f64) {
        if let Some(w) = self.window_mut(t_s) {
            w.histograms.entry(name.to_string()).or_default().observe(value);
        }
    }

    /// Renders the series as a deterministic JSON object (the
    /// `telemetry.json` `series` key): window metadata plus per-window
    /// counters, gauges, and histogram summaries, all name-sorted.
    pub fn to_value(&self) -> Value {
        let windows = self
            .windows
            .iter()
            .map(|w| {
                let counters = Value::Object(
                    w.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Number(*v as f64)))
                        .collect(),
                );
                let gauges = Value::Object(
                    w.gauges.iter().map(|(k, v)| (k.clone(), Value::Number(*v))).collect(),
                );
                let hists = Value::Object(
                    w.histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), hist_summary_value(&h.summary())))
                        .collect(),
                );
                Value::Object(vec![
                    ("index".into(), Value::Number(w.index as f64)),
                    ("start_s".into(), Value::Number(w.index as f64 * self.width_s)),
                    ("counters".into(), counters),
                    ("gauges".into(), gauges),
                    ("histograms".into(), hists),
                ])
            })
            .collect();
        Value::Object(vec![
            ("width_s".into(), Value::Number(self.width_s)),
            ("retention".into(), Value::Number(self.retention as f64)),
            ("dropped".into(), Value::Number(self.dropped as f64)),
            ("windows".into(), Value::Array(windows)),
        ])
    }
}

fn hist_summary_value(h: &HistogramSummary) -> Value {
    Value::Object(vec![
        ("count".into(), Value::Number(h.count as f64)),
        ("min".into(), Value::Number(h.min)),
        ("max".into(), Value::Number(h.max)),
        ("mean".into(), Value::Number(h.mean)),
        ("p50".into(), Value::Number(h.p50)),
        ("p95".into(), Value::Number(h.p95)),
        ("p99".into(), Value::Number(h.p99)),
    ])
}

// ---------------------------------------------------------------------------
// Flow events (request causality across trace processes)
// ---------------------------------------------------------------------------

/// Builds a Chrome flow-start event (`ph: "s"`): the outgoing edge of a
/// causal link, anchored at (`pid`, `tid`, `ts_us`). `flow_id` pairs it
/// with its [`flow_finish_event`]; `span_id` names the span the edge
/// leaves, and `trace-check` rejects flows whose `span` attribute does
/// not match any exported span id.
pub fn flow_start_event(flow_id: u64, pid: f64, tid: f64, ts_us: f64, name: &str, span_id: u64) -> Value {
    flow_event("s", flow_id, pid, tid, ts_us, name, span_id)
}

/// Builds a Chrome flow-finish event (`ph: "f"`, `bp: "e"`): the
/// incoming edge of the causal link opened by [`flow_start_event`] with
/// the same `flow_id`.
pub fn flow_finish_event(flow_id: u64, pid: f64, tid: f64, ts_us: f64, name: &str, span_id: u64) -> Value {
    flow_event("f", flow_id, pid, tid, ts_us, name, span_id)
}

fn flow_event(ph: &str, flow_id: u64, pid: f64, tid: f64, ts_us: f64, name: &str, span_id: u64) -> Value {
    let mut fields = vec![
        ("ph".into(), Value::String(ph.into())),
        ("id".into(), Value::Number(flow_id as f64)),
        ("name".into(), Value::String(name.into())),
        ("cat".into(), Value::String("flow".into())),
        ("pid".into(), Value::Number(pid)),
        ("tid".into(), Value::Number(tid)),
        ("ts".into(), Value::Number(ts_us)),
    ];
    if ph == "f" {
        // Bind to the enclosing slice's end, the convention Perfetto
        // renders as an arrow into the destination slice.
        fields.push(("bp".into(), Value::String("e".into())));
    }
    fields.push((
        "args".into(),
        Value::Object(vec![("span".into(), Value::String(span_id.to_string()))]),
    ));
    Value::Object(fields)
}

// ---------------------------------------------------------------------------
// Span-parentage guard (rayon/crossbeam fan-outs)
// ---------------------------------------------------------------------------

/// Debug assertion that every recorded span named `name` is parented on
/// `parent`. Spans opened with plain [`span`] inside a rayon/crossbeam
/// closure silently re-root (the worker thread has an empty span stack);
/// call this after the fan-out joins to catch that class of bug in debug
/// builds. No-op in release builds or while collection is disabled.
pub fn assert_span_parent(name: &str, parent: SpanId) {
    if !cfg!(debug_assertions) || !is_enabled() {
        return;
    }
    let spans = collector().spans.lock().unwrap();
    // Only spans recorded under *this* parent (ids are allocated in
    // record order, so an earlier fan-out's children — which correctly
    // parent to their own batch — are out of scope).
    for s in spans.iter().filter(|s| s.name == name && s.id > parent.0) {
        debug_assert!(
            s.parent == parent.0,
            "span '{name}' (id {}) re-rooted: parent {} != expected {} — \
             use telemetry::span_with_parent inside parallel closures",
            s.id,
            s.parent,
            parent.0
        );
    }
}

/// Renders the wall-clock spans as collapsed-stack flamegraph text
/// (`root;child;leaf count` per line, count in integer microseconds of
/// *self* time), sorted for determinism. Feed to `inferno-flamegraph` or
/// `flamegraph.pl`.
pub fn flamegraph(snap: &TelemetrySnapshot) -> String {
    let by_id: BTreeMap<u64, &SpanRecord> =
        snap.spans.iter().map(|s| (s.id, s)).collect();
    // Self time = duration minus direct children's duration.
    let mut child_time: BTreeMap<u64, f64> = BTreeMap::new();
    for s in &snap.spans {
        if s.parent != 0 {
            *child_time.entry(s.parent).or_insert(0.0) += s.wall_dur_us;
        }
    }
    let mut lines: BTreeMap<String, u64> = BTreeMap::new();
    for s in &snap.spans {
        let mut stack = vec![s.name.as_str()];
        let mut cur = s.parent;
        let mut hops = 0;
        while cur != 0 && hops < 128 {
            match by_id.get(&cur) {
                Some(p) => {
                    stack.push(p.name.as_str());
                    cur = p.parent;
                }
                None => break, // parent still live at snapshot time
            }
            hops += 1;
        }
        stack.reverse();
        let self_us =
            (s.wall_dur_us - child_time.get(&s.id).copied().unwrap_or(0.0)).max(0.0);
        *lines.entry(stack.join(";")).or_insert(0) += self_us.round() as u64;
    }
    let mut out = String::new();
    for (stack, us) in lines {
        out.push_str(&stack);
        out.push(' ');
        out.push_str(&us.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The collector is process-global; tests that enable it must not
    // interleave. Every test below that calls `enable()` holds this lock
    // and calls `reset()` first.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_collects_nothing_and_is_inert() {
        let _g = lock();
        reset();
        {
            let mut s = span("ghost");
            s.set_attr("k", "v");
            assert_eq!(s.id(), SpanId::NONE);
        }
        sim_slice("dev", "kernel", "k", 0.0, 1.0);
        counter("c", 3);
        gauge("g", 1.0);
        observe("h", 0.5);
        let (v, secs) = timed("t", || 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        let snap = snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.slices.is_empty());
        assert!(snap.metrics.is_empty());
        assert_eq!(current_span(), SpanId::NONE);
    }

    #[test]
    fn spans_nest_via_thread_local_stack() {
        let _g = lock();
        reset();
        enable();
        let outer_id;
        {
            let outer = span("outer");
            outer_id = outer.id();
            assert_eq!(current_span(), outer.id());
            {
                let mut inner = span("inner");
                inner.set_attr("k", "v");
                assert_eq!(current_span(), inner.id());
            }
            assert_eq!(current_span(), outer.id());
        }
        let snap = snapshot();
        reset();
        assert_eq!(snap.spans.len(), 2);
        let inner = snap.spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = snap.spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer_id.0);
        assert_eq!(outer.id, outer_id.0);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.attrs, vec![("k".to_string(), "v".to_string())]);
        assert!(outer.wall_dur_us >= inner.wall_dur_us);
    }

    #[test]
    fn explicit_parent_carries_across_threads() {
        let _g = lock();
        reset();
        enable();
        let parent_id;
        {
            let parent = span("sweep");
            parent_id = parent.id();
            let pid = parent.id();
            std::thread::scope(|scope| {
                for i in 0..4 {
                    scope.spawn(move || {
                        let _s = span_with_parent(format!("pair{i}"), pid);
                        let _n = span("nested"); // chains to pair via TLS
                    });
                }
            });
        }
        let snap = snapshot();
        reset();
        let pairs: Vec<_> =
            snap.spans.iter().filter(|s| s.name.starts_with("pair")).collect();
        assert_eq!(pairs.len(), 4);
        assert!(pairs.iter().all(|s| s.parent == parent_id.0));
        let nested: Vec<_> = snap.spans.iter().filter(|s| s.name == "nested").collect();
        assert_eq!(nested.len(), 4);
        for n in nested {
            assert!(pairs.iter().any(|p| p.id == n.parent), "nested under a pair");
        }
    }

    #[test]
    fn histogram_buckets_edge_cases() {
        let mut h = Histogram::new();
        h.observe(0.0);
        h.observe(-1.0);
        h.observe(f64::MIN_POSITIVE / 4.0); // subnormal
        h.observe(f64::INFINITY);
        h.observe(f64::NAN);
        h.observe(1.0);
        assert_eq!(h.count(), 5, "NaN excluded from count");
        assert_eq!(h.nan_count(), 1);
        assert_eq!(h.zero_count(), 2, "zero and negative pool together");
        assert_eq!(h.inf_count(), 1);
        assert_eq!(h.summary().max, f64::INFINITY);
        assert_eq!(h.summary().min, -1.0);
        // Subnormal clamps into the lowest bucket instead of panicking.
        assert!(h.quantile(0.5).is_finite());
        // All-zeros histogram: every quantile is 0.
        let mut z = Histogram::new();
        for _ in 0..10 {
            z.observe(0.0);
        }
        assert_eq!(z.quantile(0.99), 0.0);
        // All-inf histogram: quantiles are inf.
        let mut i = Histogram::new();
        i.observe(f64::INFINITY);
        assert_eq!(i.quantile(0.5), f64::INFINITY);
        // Empty histogram.
        let e = Histogram::new();
        assert_eq!(e.quantile(0.5), 0.0);
        assert_eq!(e.summary().count, 0);
    }

    #[test]
    fn histogram_quantiles_are_log_accurate() {
        let mut h = Histogram::new();
        // 100 samples at ~1e-3, 5 at ~1.0: p50 near 1e-3, p99 near 1.
        for _ in 0..100 {
            h.observe(1.1e-3);
        }
        for _ in 0..5 {
            h.observe(1.3);
        }
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        assert!(p50 > 0.4e-3 && p50 < 2.5e-3, "p50 {p50}");
        assert!(p99 > 0.5 && p99 < 3.0, "p99 {p99}");
        assert!((h.mean() - (100.0 * 1.1e-3 + 5.0 * 1.3) / 105.0).abs() < 1e-12);
    }

    #[test]
    fn registry_snapshot_is_sorted_and_reads_back() {
        let r = MetricsRegistry::new();
        r.counter("z.last", 2);
        r.counter("a.first", 1);
        r.counter("a.first", 1);
        r.gauge("g", 4.0);
        r.gauge("g", 5.0); // last write wins
        r.observe("h", 2.0);
        let snap = r.snapshot();
        assert_eq!(snap.counters, vec![("a.first".into(), 2), ("z.last".into(), 2)]);
        assert_eq!(snap.gauge("g"), Some(5.0));
        assert_eq!(snap.counter("a.first"), 2);
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(snap.histograms[0].1.count, 1);
        let json = snap.to_json().to_json();
        assert!(json.contains("\"a.first\":2"), "{json}");
        assert!(json.contains("\"p99\""), "{json}");
    }

    #[test]
    fn chrome_trace_is_deterministic_and_well_formed() {
        let _g = lock();
        reset();
        enable();
        sim_slice("devB", "kernel", "k1", 0.0, 2.0);
        sim_slice("devA", "h2d", "copy", 0.5, 1.0);
        sim_slice("devA", "kernel", "k0", 1.5, 0.25);
        {
            let _s = span("host_work");
        }
        let snap = snapshot();
        reset();
        let sim_only = chrome_trace(&snap, ChromeTraceOptions { include_host: false });
        let text = sim_only.to_json();
        // devA sorts before devB -> pid 1; its tracks sort h2d(1), kernel(2).
        assert!(text.contains("\"process_name\""));
        assert!(text.contains("\"devA\""));
        assert!(!text.contains("host_work"), "host excluded");
        // Deterministic: same snapshot, same bytes.
        assert_eq!(
            text,
            chrome_trace(&snap, ChromeTraceOptions { include_host: false }).to_json()
        );
        let with_host = chrome_trace(&snap, ChromeTraceOptions::default()).to_json();
        assert!(with_host.contains("host_work"));
        // Parseable and array-shaped.
        let doc = Value::parse(&with_host).unwrap();
        let events = doc.as_array().unwrap();
        assert!(events.len() >= 4);
        for e in events {
            let ph = e.get("ph").and_then(Value::as_str).unwrap();
            assert!(ph == "M" || ph == "X");
            if ph == "X" {
                assert!(e.get("ts").and_then(Value::as_f64).is_some());
                assert!(e.get("dur").and_then(Value::as_f64).unwrap() >= 0.0);
            }
        }
    }

    #[test]
    fn phase_totals_aggregate_across_processes() {
        let _g = lock();
        reset();
        enable();
        sim_slice("d1", "kernel", "a", 0.0, 1.0);
        sim_slice("d2", "kernel", "b", 0.0, 2.0);
        sim_slice("d1", "h2d", "c", 1.0, 0.5);
        let snap = snapshot();
        reset();
        let totals = snap.phase_totals();
        assert_eq!(totals.len(), 2);
        assert_eq!(totals[0].0, "h2d");
        assert!((totals[0].1 - 0.5).abs() < 1e-12);
        assert_eq!(totals[1].0, "kernel");
        assert!((totals[1].1 - 3.0).abs() < 1e-12);
    }

    #[test]
    fn flamegraph_collapses_stacks_with_self_time() {
        let _g = lock();
        reset();
        enable();
        {
            let _root = span("root");
            {
                let _a = span("a");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            {
                let _b = span("b");
            }
        }
        let snap = snapshot();
        reset();
        let fg = flamegraph(&snap);
        let lines: Vec<&str> = fg.lines().collect();
        assert_eq!(lines.len(), 3, "{fg}");
        assert!(lines.iter().any(|l| l.starts_with("root ")));
        assert!(lines.iter().any(|l| l.starts_with("root;a ")));
        assert!(lines.iter().any(|l| l.starts_with("root;b ")));
        let a_us: u64 = lines
            .iter()
            .find(|l| l.starts_with("root;a "))
            .unwrap()
            .rsplit(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(a_us >= 1000, "slept 2ms, self time {a_us}us");
    }

    #[test]
    fn timed_records_a_span_when_enabled() {
        let _g = lock();
        reset();
        enable();
        let (v, secs) = timed("work", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        let snap = snapshot();
        reset();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].name, "work");
    }

    // -- windowed series (no global state: no lock needed) ------------------

    #[test]
    fn series_empty_window_never_materializes() {
        // An untouched series has no windows; a touched one materializes
        // only the windows samples actually landed in.
        let mut s = WindowSeries::new(1e-3, 8);
        assert!(s.windows().is_empty());
        assert_eq!(s.newest_index(), None);
        s.incr(5.5e-3, "hits", 1);
        assert_eq!(s.windows().len(), 1);
        assert_eq!(s.window_at(5).unwrap().counter("hits"), 1);
        assert!(s.window_at(4).is_none(), "idle windows stay gaps");
        // A counter-only window reports no histogram: readers must treat
        // that as "no data", not as an empty distribution.
        assert!(s.window_at(5).unwrap().histogram("lat").is_none());
    }

    #[test]
    fn series_single_sample_window_summary_is_exact() {
        let mut s = WindowSeries::new(1e-3, 8);
        s.observe(2.1e-3, "lat", 0.25);
        let w = s.window_at(2).unwrap();
        let h = w.histogram("lat").unwrap().summary();
        assert_eq!(h.count, 1);
        assert_eq!(h.min, 0.25);
        assert_eq!(h.max, 0.25);
        assert_eq!(h.mean, 0.25);
    }

    #[test]
    fn series_retention_evicts_lowest_index_first() {
        let mut s = WindowSeries::new(1.0, 3);
        for t in 0..5 {
            s.incr(t as f64 + 0.5, "w", 1);
        }
        let idx: Vec<u64> = s.windows().iter().map(|w| w.index).collect();
        assert_eq!(idx, [2, 3, 4], "windows 0 and 1 evicted in order");
        // A late sample for an evicted window is dropped, not resurrected.
        s.incr(0.5, "w", 1);
        let idx: Vec<u64> = s.windows().iter().map(|w| w.index).collect();
        assert_eq!(idx, [2, 3, 4]);
        assert_eq!(s.dropped(), 1);
    }

    #[test]
    fn series_idle_clock_leaves_gaps_not_windows() {
        // A long idle stretch between samples must not burn retention on
        // empty windows: only touched indexes occupy ring slots.
        let mut s = WindowSeries::new(1e-3, 4);
        s.observe(0.5e-3, "lat", 1.0);
        s.observe(1000.5e-3, "lat", 2.0); // ~1000 windows later
        let idx: Vec<u64> = s.windows().iter().map(|w| w.index).collect();
        assert_eq!(idx, [0, 1000], "both survive: gaps don't evict");
        s.observe(2000.5e-3, "lat", 3.0);
        s.observe(3000.5e-3, "lat", 4.0);
        s.observe(4000.5e-3, "lat", 5.0);
        let idx: Vec<u64> = s.windows().iter().map(|w| w.index).collect();
        assert_eq!(idx, [1000, 2000, 3000, 4000], "capacity, not time, evicts");
    }

    #[test]
    fn series_snapshot_is_deterministic_json() {
        let run = || {
            let mut s = WindowSeries::new(1e-3, 8);
            for i in 0..32 {
                let t = i as f64 * 3.7e-4;
                s.observe(t, "lat", 1e-3 + i as f64 * 1e-5);
                s.incr(t, "reqs", 1);
                s.gauge(t, "depth", i as f64);
            }
            s.to_value().to_json()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.contains("\"width_s\""));
        assert!(a.contains("\"windows\""));
    }

    #[test]
    fn flow_events_pair_and_reference_spans() {
        let s = flow_start_event(7, 1.0, 2.0, 10.0, "r7", 42);
        let f = flow_finish_event(7, 3.0, 1.0, 20.0, "r7", 43);
        assert_eq!(s.get("ph").unwrap().as_str().unwrap(), "s");
        assert_eq!(f.get("ph").unwrap().as_str().unwrap(), "f");
        assert_eq!(s.get("id").unwrap().as_f64().unwrap(), 7.0);
        assert_eq!(f.get("id").unwrap().as_f64().unwrap(), 7.0);
        assert!(s.get("bp").is_none());
        assert_eq!(f.get("bp").unwrap().as_str().unwrap(), "e");
        let span_of = |v: &Value| {
            v.get("args").unwrap().get("span").unwrap().as_str().unwrap().to_string()
        };
        assert_eq!(span_of(&s), "42");
        assert_eq!(span_of(&f), "43");
    }

    #[test]
    fn assert_span_parent_accepts_explicit_parentage() {
        let _g = lock();
        reset();
        enable();
        let parent = span("batch");
        let pid = parent.id();
        for _ in 0..3 {
            drop(span_with_parent("child", pid));
        }
        assert_span_parent("child", pid); // must not panic
        drop(parent);
        reset();
    }
}

//! Foresight telemetry: one span record, one metrics map, and the views
//! built on them.
//!
//! The paper's core deliverable is a *measurement* (Fig. 7 kernel-vs-PCIe
//! breakdowns, rate-distortion sweeps); this module is the measurement
//! substrate the whole workspace shares. Its data model is two types:
//!
//! - [`SpanRecord`] — one interval on one of two [`Clock`]s. *Wall*
//!   spans come from RAII guards ([`span`], [`timed`]) that nest through
//!   a thread-local stack; work fanned out across rayon workers keeps its
//!   logical parent via [`current_span`] + [`span_with_parent`]. *Sim*
//!   records ([`sim_slice`]) sit on the simulated clock of the `gpu-sim`
//!   device model, placed on a process (one per simulated device) and a
//!   track (one per phase: kernel, h2d, d2h, init, free, fault); they are
//!   deterministic for a fixed seed, which makes the Chrome-trace export
//!   golden-testable. Request spans (`foresight::obs`) are sim records
//!   that also name their request.
//! - [`Metrics`] — counters, gauges, and log-bucketed histograms with
//!   p50/p95/p99 summaries. The global registry behind
//!   [`counter`]/[`gauge`]/[`observe`], every standalone
//!   [`MetricsRegistry`] (always-on bookkeeping such as the pipeline
//!   resilience summary), every snapshot, and every [`WindowSeries`]
//!   window hold one, and all of them render through [`Metrics::to_json`].
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
//! # Views
//!
//! [`snapshot`] clones the collected records and metrics.
//! [`TelemetrySnapshot::sim_layout`] groups the sim records by process and
//! track in recording order — the one pass behind Chrome pids and tids,
//! `telemetry.json` phase totals, and slice series. [`chrome_trace`]
//! renders a snapshot as Chrome trace-event JSON (loadable in Perfetto;
//! the host process can be excluded for golden tests) and [`flamegraph`]
//! as collapsed-stack text for `inferno`/`flamegraph.pl`.

use crate::json::Value;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Global collector
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

fn collector() -> &'static Collector {
    static COLLECTOR: OnceLock<Collector> = OnceLock::new();
    COLLECTOR.get_or_init(|| Collector {
        epoch: Instant::now(),
        next_id: AtomicU64::new(1),
        records: Mutex::new(Vec::new()),
        metrics: MetricsRegistry::new(),
    })
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

/// Disables collection and clears everything collected so far (records
/// and metrics). Intended for tests; runs start clean by default.
pub fn reset() {
    disable();
    let c = collector();
    c.records.lock().unwrap().clear();
    c.metrics.clear();
}

struct Collector {
    epoch: Instant,
    next_id: AtomicU64,
    /// Wall spans and sim slices, in recording order.
    records: Mutex<Vec<SpanRecord>>,
    metrics: MetricsRegistry,
}

impl Collector {
    fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn push(&self, record: SpanRecord) {
        self.records.lock().unwrap().push(record);
    }
}

// ---------------------------------------------------------------------------
// The record
// ---------------------------------------------------------------------------

/// Which clock a [`SpanRecord`] was measured on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Clock {
    /// Host wall time, seconds since the collector epoch.
    #[default]
    Wall,
    /// A simulated clock, seconds since device (or run) start.
    Sim,
}

/// One finished interval: a wall span, a device's sim slice, or a
/// request span. `Default` is an unplaced root wall span at 0.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanRecord {
    /// Id within the record's id space: wall spans are process-unique
    /// (never 0), request spans are numbered from 1 per run, and device
    /// slices, which are never parents, carry 0.
    pub id: u64,
    /// Parent id in the same space (0 for roots).
    pub parent: u64,
    /// What happened, e.g. `"sz.quantize"`, `"h2d"`, `"dispatch"`.
    pub name: String,
    /// Key/value attributes; shown under `args` in the Chrome trace.
    pub attrs: Vec<(String, String)>,
    /// The clock `start_s` and `dur_s` are on.
    pub clock: Clock,
    /// Sim placement: the Chrome-trace process (simulated device or node)
    /// and its track (phase or lane). Empty for wall spans and for
    /// request spans that ran on no device lane.
    pub process: String,
    /// See `process`.
    pub track: String,
    /// The request a request span belongs to; `None` otherwise.
    pub request: Option<u64>,
    /// Start, seconds on `clock`.
    pub start_s: f64,
    /// Duration, seconds.
    pub dur_s: f64,
}

// ---------------------------------------------------------------------------
// Wall spans
// ---------------------------------------------------------------------------

/// Identifier of a live or finished span (`0` means "no span").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The "no parent" sentinel.
    pub const NONE: SpanId = SpanId(0);
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

/// RAII span guard: records a wall [`SpanRecord`] when dropped. Inert
/// (and free) when telemetry is disabled.
#[must_use = "a span measures the scope it lives in"]
pub struct Span {
    /// 0 for inert guards.
    id: u64,
    parent: u64,
    name: String,
    attrs: Vec<(String, String)>,
    start_s: f64,
}

/// Opens a span named `name`, parented to the innermost live span on
/// this thread.
pub fn span(name: impl AsRef<str>) -> Span {
    span_with_parent(name, current_span())
}

/// Opens a span with an explicit parent — the cross-thread form used
/// under rayon/crossbeam where the thread-local stack does not carry
/// over. The new span still becomes the innermost span *on this thread*,
/// so nested [`span`] calls chain correctly.
pub fn span_with_parent(name: impl AsRef<str>, parent: SpanId) -> Span {
    if !is_enabled() {
        return Span { id: 0, parent: 0, name: String::new(), attrs: Vec::new(), start_s: 0.0 };
    }
    let c = collector();
    let id = c.next_id.fetch_add(1, Ordering::Relaxed);
    SPAN_STACK.with(|s| s.borrow_mut().push(id));
    Span {
        id,
        parent: parent.0,
        name: name.as_ref().to_string(),
        attrs: Vec::new(),
        start_s: c.now_s(),
    }
}

impl Span {
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
        let end = c.now_s();
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
        c.push(SpanRecord {
            id: self.id,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            attrs: std::mem::take(&mut self.attrs),
            start_s: self.start_s,
            dur_s: (end - self.start_s).max(0.0),
            ..SpanRecord::default()
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
    let _span = span(name);
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Debug assertion that every recorded span named `name` is parented on
/// `parent`. Spans opened with plain [`span`] inside a rayon/crossbeam
/// closure silently re-root (the worker thread has an empty span stack);
/// call this after the fan-out joins to catch that class of bug in debug
/// builds. No-op in release builds or while collection is disabled.
pub fn assert_span_parent(name: &str, parent: SpanId) {
    if !cfg!(debug_assertions) || !is_enabled() {
        return;
    }
    let records = collector().records.lock().unwrap();
    // Only spans recorded under *this* parent (ids are allocated in
    // record order, so an earlier fan-out's children — which correctly
    // parent to their own batch — are out of scope).
    for s in records.iter().filter(|s| s.clock == Clock::Wall && s.name == name && s.id > parent.0) {
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

// ---------------------------------------------------------------------------
// Sim slices
// ---------------------------------------------------------------------------

/// Records an interval on a simulated clock. No-op when disabled.
pub fn sim_slice(process: &str, track: &str, name: &str, sim_start_s: f64, sim_dur_s: f64) {
    if !is_enabled() {
        return;
    }
    collector().push(SpanRecord::slice(process, track, name, sim_start_s, sim_dur_s));
}

impl SpanRecord {
    /// A device slice: a sim record on `process`/`track` with no id, no
    /// parent, and no request.
    pub fn slice(process: &str, track: &str, name: &str, start_s: f64, dur_s: f64) -> Self {
        SpanRecord {
            name: name.to_string(),
            clock: Clock::Sim,
            process: process.to_string(),
            track: track.to_string(),
            start_s,
            dur_s,
            ..SpanRecord::default()
        }
    }
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

    /// Point-in-time summary (counts, min/max, mean of the finite
    /// samples, p50/p95/p99).
    pub fn summary(&self) -> HistogramSummary {
        let finite = self.count - self.infs;
        HistogramSummary {
            count: self.count,
            zeros: self.zeros,
            infs: self.infs,
            nans: self.nans,
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
            mean: if finite == 0 { 0.0 } else { self.sum / finite as f64 },
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

impl HistogramSummary {
    fn to_json(self) -> Value {
        object([
            ("count", Value::Number(self.count as f64)),
            ("zeros", Value::Number(self.zeros as f64)),
            ("infs", Value::Number(self.infs as f64)),
            ("nans", Value::Number(self.nans as f64)),
            ("min", Value::Number(self.min)),
            ("max", Value::Number(self.max)),
            ("mean", Value::Number(self.mean)),
            ("p50", Value::Number(self.p50)),
            ("p95", Value::Number(self.p95)),
            ("p99", Value::Number(self.p99)),
        ])
    }
}

fn object<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Counters, last-write gauges, and histograms by name: the one metrics
/// map behind a [`MetricsRegistry`], its snapshots, and every
/// [`SeriesWindow`].
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-write gauges.
    pub gauges: BTreeMap<String, f64>,
    /// Sample histograms.
    pub histograms: BTreeMap<String, Histogram>,
}

impl Metrics {
    /// Adds `delta` to counter `name` (created at 0 on first use). Like
    /// `set_gauge` and `observe`, looks the name up first: only its first
    /// use allocates a key.
    pub fn incr(&mut self, name: &str, delta: u64) {
        match self.counters.get_mut(name) {
            Some(total) => *total += delta,
            None => {
                self.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Sets gauge `name` (last write wins — idempotent under job retry).
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        match self.gauges.get_mut(name) {
            Some(gauge) => *gauge = value,
            None => {
                self.gauges.insert(name.to_string(), value);
            }
        }
    }

    /// Records a sample into histogram `name`.
    pub fn observe(&mut self, name: &str, value: f64) {
        match self.histograms.get_mut(name) {
            Some(histogram) => histogram.observe(value),
            None => self.histograms.entry(name.to_string()).or_default().observe(value),
        }
    }

    /// Reads a counter (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Reads a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Borrows a histogram, if any sample was recorded into it.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Renders as a JSON object `{counters, gauges, histograms}`, each
    /// map name-sorted and each histogram as its [`HistogramSummary`].
    pub fn to_json(&self) -> Value {
        Value::Object(self.json_fields())
    }

    fn json_fields(&self) -> Vec<(String, Value)> {
        let map = |entries: Vec<(String, Value)>| Value::Object(entries);
        vec![
            (
                "counters".into(),
                map(self.counters.iter().map(|(k, v)| (k.clone(), Value::Number(*v as f64))).collect()),
            ),
            (
                "gauges".into(),
                map(self.gauges.iter().map(|(k, v)| (k.clone(), Value::Number(*v))).collect()),
            ),
            (
                "histograms".into(),
                map(self.histograms.iter().map(|(k, h)| (k.clone(), h.summary().to_json())).collect()),
            ),
        ]
    }
}

/// A thread-safe [`Metrics`] map.
///
/// The global telemetry registry is an instance of this; standalone
/// instances serve always-on accounting that must work with telemetry
/// disabled (e.g. the pipeline resilience summary, which the CLI and
/// `telemetry.json` both read so they cannot disagree).
#[derive(Default)]
pub struct MetricsRegistry {
    state: Mutex<Metrics>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to counter `name`.
    pub fn counter(&self, name: &str, delta: u64) {
        self.state.lock().unwrap().incr(name, delta);
    }

    /// Sets gauge `name` (last write wins).
    pub fn gauge(&self, name: &str, value: f64) {
        self.state.lock().unwrap().set_gauge(name, value);
    }

    /// Records a sample into histogram `name`.
    pub fn observe(&self, name: &str, value: f64) {
        self.state.lock().unwrap().observe(name, value);
    }

    /// Reads a counter (0 if absent).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.state.lock().unwrap().counter(name)
    }

    /// Clears every metric.
    pub fn clear(&self) {
        *self.state.lock().unwrap() = Metrics::default();
    }

    /// Clones the current values.
    pub fn snapshot(&self) -> Metrics {
        self.state.lock().unwrap().clone()
    }
}

// ---------------------------------------------------------------------------
// Snapshot and its views
// ---------------------------------------------------------------------------

/// Collected records and metrics, cloned out of the global collector —
/// or assembled by a caller, e.g. with a run's request spans appended.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// Every record, in recording order.
    pub spans: Vec<SpanRecord>,
    /// Global metrics.
    pub metrics: Metrics,
}

/// Clones the collected state (works whether or not collection is
/// currently enabled).
pub fn snapshot() -> TelemetrySnapshot {
    let c = collector();
    TelemetrySnapshot { spans: c.records.lock().unwrap().clone(), metrics: c.metrics.snapshot() }
}

/// The device slices of a snapshot — sim records that belong to no
/// request — grouped by process and track.
#[derive(Debug)]
pub struct SimLayout<'a> {
    /// `(process, tracks)`, processes and each one's tracks sorted by
    /// name. Chrome pids and tids are these indexes plus one.
    pub processes: Vec<(&'a str, Vec<&'a str>)>,
    /// `(process index, track index, slice)` in recording order.
    pub slices: Vec<(usize, usize, &'a SpanRecord)>,
}

impl SimLayout<'_> {
    /// `(process index, track index)` of a placement, if any slice used it.
    pub fn place(&self, process: &str, track: &str) -> Option<(usize, usize)> {
        let p = self.processes.binary_search_by_key(&process, |(name, _)| *name).ok()?;
        Some((p, self.processes[p].1.binary_search(&track).ok()?))
    }
}

impl TelemetrySnapshot {
    /// Groups the device slices by process and track, keeping recording
    /// order. Every sim-clock view walks this one layout, and replaying
    /// a process's slices in recording order performs the same `f64`
    /// additions the device did, so totals built on it equal
    /// `Device::phase_totals()` exactly.
    pub fn sim_layout(&self) -> SimLayout<'_> {
        let device = |s: &&SpanRecord| s.clock == Clock::Sim && s.request.is_none();
        let mut tracks: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for s in self.spans.iter().filter(device) {
            tracks.entry(s.process.as_str()).or_default().insert(s.track.as_str());
        }
        let mut layout = SimLayout {
            processes: tracks.into_iter().map(|(p, t)| (p, t.into_iter().collect())).collect(),
            slices: Vec::new(),
        };
        layout.slices = self
            .spans
            .iter()
            .filter(device)
            .map(|s| {
                let (p, t) = layout.place(&s.process, &s.track).expect("slice placed");
                (p, t, s)
            })
            .collect();
        layout
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
/// Processes, in pid order:
/// - one per simulated device/node, one track per phase or lane, from
///   [`TelemetrySnapshot::sim_layout`]; its slices are sorted by
///   `(pid, tid, ts, dur)`;
/// - `requests`, when the snapshot holds request spans: one track per
///   request, spans in recording order, then one flow pair (`ph: "s"` /
///   `"f"`, flow id = child span id) per parent→child edge. A flow end
///   sits on the device lane its span names, so a failed-over request
///   reads as arrows hopping across node processes;
/// - `host`, when included: every wall span on one track (span nesting
///   already encodes the concurrency structure), sorted by `(ts, dur)`.
///
/// Span ids share one space per file: request spans keep theirs and wall
/// spans are shifted past the largest, so every `args.span_id` is
/// defined once. Sim timestamps are microseconds on that device's clock.
pub fn chrome_trace(snap: &TelemetrySnapshot, opts: ChromeTraceOptions) -> Value {
    let layout = snap.sim_layout();
    let mut events = Vec::new();
    for (p, (process, tracks)) in layout.processes.iter().enumerate() {
        events.push(meta_event("process_name", p + 1, None, process));
        for (t, track) in tracks.iter().enumerate() {
            events.push(meta_event("thread_name", p + 1, Some(t + 1), track));
        }
    }
    let slices = layout.slices.iter().map(|&(p, t, s)| (p + 1, t + 1, s, "sim", Vec::new()));
    push_sorted(&mut events, slices);
    let mut next_pid = layout.processes.len() + 1;

    let requests: Vec<&SpanRecord> = snap.spans.iter().filter(|s| s.request.is_some()).collect();
    let id_base = requests.iter().map(|s| s.id).max().unwrap_or(0);
    if !requests.is_empty() {
        let pid = next_pid;
        next_pid += 1;
        let ids: BTreeSet<u64> = requests.iter().filter_map(|s| s.request).collect();
        let ids: Vec<u64> = ids.into_iter().collect();
        let track = |s: &SpanRecord| ids.binary_search(&s.request.unwrap_or(0)).map_or(0, |i| i + 1);
        events.push(meta_event("process_name", pid, None, "requests"));
        for (i, id) in ids.iter().enumerate() {
            events.push(meta_event("thread_name", pid, Some(i + 1), &format!("r{id}")));
        }
        for &s in &requests {
            events.push(complete_event(s, "obs", pid, track(s), &span_args(s, 0)));
        }
        let anchor = |s: &SpanRecord| match layout.place(&s.process, &s.track) {
            Some((p, t)) => (p + 1, t + 1),
            None => (pid, track(s)),
        };
        let by_id: BTreeMap<u64, &SpanRecord> = requests.iter().map(|s| (s.id, *s)).collect();
        for &s in &requests {
            let Some(&parent) = by_id.get(&s.parent) else { continue };
            let name = format!("r{}", s.request.unwrap_or(0));
            let ts = s.start_s * 1e6;
            events.push(flow_event("s", s.id, anchor(parent), ts, &name, parent.id));
            events.push(flow_event("f", s.id, anchor(s), ts, &name, s.id));
        }
    }

    let wall = snap.spans.iter().filter(|s| s.clock == Clock::Wall);
    if opts.include_host && wall.clone().next().is_some() {
        events.push(meta_event("process_name", next_pid, None, "host"));
        events.push(meta_event("thread_name", next_pid, Some(1), "spans"));
        push_sorted(&mut events, wall.map(|s| (next_pid, 1, s, "wall", span_args(s, id_base))));
    }
    Value::Array(events)
}

/// `span_id`, `parent`, then the record's own attributes, with ids
/// shifted by `id_base`.
fn span_args(s: &SpanRecord, id_base: u64) -> Vec<(String, String)> {
    let mut args = vec![("span_id".to_string(), (s.id + id_base).to_string())];
    if s.parent != 0 {
        args.push(("parent".into(), (s.parent + id_base).to_string()));
    }
    args.extend(s.attrs.iter().cloned());
    args
}

/// Appends complete events sorted by `(pid, tid, ts, dur)`; ties keep
/// recording order.
fn push_sorted<'a>(
    events: &mut Vec<Value>,
    records: impl Iterator<Item = (usize, usize, &'a SpanRecord, &'static str, Vec<(String, String)>)>,
) {
    let mut keyed: Vec<_> = records.collect();
    keyed.sort_by(|a, b| {
        let key = |e: &(usize, usize, &SpanRecord, &str, _)| (e.0, e.1, e.2.start_s * 1e6, e.2.dur_s * 1e6);
        key(a).partial_cmp(&key(b)).unwrap_or(std::cmp::Ordering::Equal)
    });
    events.extend(keyed.iter().map(|(pid, tid, s, cat, args)| complete_event(s, cat, *pid, *tid, args)));
}

fn meta_event(kind: &str, pid: usize, tid: Option<usize>, name: &str) -> Value {
    let head = [("ph", text("M")), ("name", text(kind)), ("pid", num(pid))];
    let args = ("args", object([("name", text(name))]));
    object(head.into_iter().chain(tid.map(|t| ("tid", num(t)))).chain([args]))
}

fn complete_event(s: &SpanRecord, cat: &str, pid: usize, tid: usize, args: &[(String, String)]) -> Value {
    let fields = [("ph", text("X")), ("name", text(&s.name)), ("cat", text(cat))];
    let place = [("pid", num(pid)), ("tid", num(tid))];
    let time = [("ts", Value::Number(s.start_s * 1e6)), ("dur", Value::Number(s.dur_s * 1e6))];
    let args = (!args.is_empty())
        .then(|| ("args", object(args.iter().map(|(k, v)| (k.as_str(), text(v))))));
    object(fields.into_iter().chain(place).chain(time).chain(args))
}

/// A flow-start (`ph: "s"`) or flow-finish (`ph: "f"`, bound to the
/// enclosing slice's end with `bp: "e"`, which Perfetto renders as an
/// arrow into the destination slice) event at `(pid, tid)`. `args.span`
/// names the span the edge leaves or enters; `trace-check` rejects flows
/// whose span no exported slice defined.
fn flow_event(ph: &str, flow_id: u64, (pid, tid): (usize, usize), ts_us: f64, name: &str, span_id: u64) -> Value {
    let head = [("ph", text(ph)), ("id", Value::Number(flow_id as f64)), ("name", text(name))];
    let place = [("cat", text("flow")), ("pid", num(pid)), ("tid", num(tid)), ("ts", Value::Number(ts_us))];
    let bind = (ph == "f").then(|| ("bp", text("e")));
    let args = ("args", object([("span", text(&span_id.to_string()))]));
    object(head.into_iter().chain(place).chain(bind).chain([args]))
}

fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

fn num(n: usize) -> Value {
    Value::Number(n as f64)
}

/// Renders the wall-clock spans as collapsed-stack flamegraph text
/// (`root;child;leaf count` per line, count in integer microseconds of
/// *self* time), sorted for determinism. Feed to `inferno-flamegraph` or
/// `flamegraph.pl`.
pub fn flamegraph(snap: &TelemetrySnapshot) -> String {
    let wall: Vec<&SpanRecord> = snap.spans.iter().filter(|s| s.clock == Clock::Wall).collect();
    let by_id: BTreeMap<u64, &SpanRecord> = wall.iter().map(|s| (s.id, *s)).collect();
    // Self time = duration minus direct children's duration.
    let mut child_time: BTreeMap<u64, f64> = BTreeMap::new();
    for s in wall.iter().filter(|s| s.parent != 0) {
        *child_time.entry(s.parent).or_insert(0.0) += s.dur_s;
    }
    let mut lines: BTreeMap<String, u64> = BTreeMap::new();
    for s in &wall {
        let mut stack = vec![s.name.as_str()];
        let mut cur = s.parent;
        // A parent still live at snapshot time ends the walk.
        while let Some(p) = by_id.get(&cur).filter(|_| stack.len() <= 128) {
            stack.push(p.name.as_str());
            cur = p.parent;
        }
        stack.reverse();
        let self_s = (s.dur_s - child_time.get(&s.id).copied().unwrap_or(0.0)).max(0.0);
        *lines.entry(stack.join(";")).or_insert(0) += (self_s * 1e6).round() as u64;
    }
    lines.into_iter().map(|(stack, us)| format!("{stack} {us}\n")).collect()
}

// ---------------------------------------------------------------------------
// Windowed time-series (ring-buffer windows over the simulated clock)
// ---------------------------------------------------------------------------

/// One fixed-width window of a [`WindowSeries`]: the metrics recorded
/// in `[index * width_s, (index+1) * width_s)` on the simulated clock.
#[derive(Debug, Clone, Default)]
pub struct SeriesWindow {
    /// Window index (`floor(t / width_s)`).
    pub index: u64,
    /// What landed in the window.
    pub metrics: Metrics,
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

    /// The metrics of the window covering `t_s`, materialized on first
    /// touch; `None` (counted in `dropped`) when that window was evicted.
    fn at(&mut self, t_s: f64) -> Option<&mut Metrics> {
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
        Some(&mut self.windows[pos].metrics)
    }

    /// Adds `delta` to counter `name` in the window covering `t_s`.
    pub fn incr(&mut self, t_s: f64, name: &str, delta: u64) {
        if let Some(m) = self.at(t_s) {
            m.incr(name, delta);
        }
    }

    /// Sets gauge `name` in the window covering `t_s` (last write wins).
    pub fn gauge(&mut self, t_s: f64, name: &str, value: f64) {
        if let Some(m) = self.at(t_s) {
            m.set_gauge(name, value);
        }
    }

    /// Records a histogram sample into the window covering `t_s`.
    pub fn observe(&mut self, t_s: f64, name: &str, value: f64) {
        if let Some(m) = self.at(t_s) {
            m.observe(name, value);
        }
    }

    /// Renders the series as a deterministic JSON object (the
    /// `telemetry.json` `series` key): window metadata plus each window's
    /// [`Metrics::to_json`] fields.
    pub fn to_value(&self) -> Value {
        let windows = self.windows.iter().map(|w| {
            let mut fields = vec![
                ("index".to_string(), Value::Number(w.index as f64)),
                ("start_s".to_string(), Value::Number(w.index as f64 * self.width_s)),
            ];
            fields.extend(w.metrics.json_fields());
            Value::Object(fields)
        });
        object([
            ("width_s", Value::Number(self.width_s)),
            ("retention", Value::Number(self.retention as f64)),
            ("dropped", Value::Number(self.dropped as f64)),
            ("windows", Value::Array(windows.collect())),
        ])
    }
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
        assert!(outer.dur_s >= inner.dur_s);
        assert!(snap.spans.iter().all(|s| s.clock == Clock::Wall && s.request.is_none()));
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
        let sum = h.summary();
        assert_eq!((sum.nans, sum.zeros, sum.infs), (1, 2, 1), "zero and negative pool together");
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
        assert!((h.summary().mean - (100.0 * 1.1e-3 + 5.0 * 1.3) / 105.0).abs() < 1e-12);
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
        let counters: Vec<(&str, u64)> = snap.counters.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        assert_eq!(counters, [("a.first", 2), ("z.last", 2)]);
        assert_eq!(snap.gauge("g"), Some(5.0));
        assert_eq!(snap.counter("a.first"), 2);
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(snap.histogram("h").unwrap().count(), 1);
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
    fn chrome_trace_lays_out_requests_then_host_on_one_id_space() {
        let record = |id, parent, clock, place: (&str, &str), request| SpanRecord {
            id,
            parent,
            name: format!("s{id}"),
            attrs: Vec::new(),
            clock,
            process: place.0.into(),
            track: place.1.into(),
            request,
            start_s: 1e-3,
            dur_s: 1e-3,
        };
        let snap = TelemetrySnapshot {
            spans: vec![
                record(1, 0, Clock::Wall, ("", ""), None),
                record(0, 0, Clock::Sim, ("dev", "kernel"), None),
                record(2, 1, Clock::Wall, ("", ""), None),
                record(1, 0, Clock::Sim, ("", ""), Some(5)),
                record(2, 1, Clock::Sim, ("dev", "kernel"), Some(5)),
            ],
            ..TelemetrySnapshot::default()
        };
        let doc = chrome_trace(&snap, ChromeTraceOptions::default());
        let events = doc.as_array().unwrap();
        let processes: Vec<(f64, &str)> = events
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some("process_name"))
            .map(|e| (e.get("pid").unwrap().as_f64().unwrap(), e.get("args").unwrap().get("name").unwrap().as_str().unwrap()))
            .collect();
        assert_eq!(processes, [(1.0, "dev"), (2.0, "requests"), (3.0, "host")]);
        let arg = |e: &Value, key: &str| e.get("args").and_then(|a| a.get(key)).and_then(Value::as_str).map(str::to_string);
        let ids: Vec<String> = events.iter().filter_map(|e| arg(e, "span_id")).collect();
        assert_eq!(ids, ["1", "2", "3", "4"], "request ids kept, host ids shifted past them");
        let host_child = events.iter().find(|e| arg(e, "span_id").as_deref() == Some("4")).unwrap();
        assert_eq!(arg(host_child, "parent").as_deref(), Some("3"));
        // The child's flow finish lands on the device lane it names.
        let finish = events.iter().find(|e| e.get("ph").and_then(Value::as_str) == Some("f")).unwrap();
        assert_eq!((finish.get("pid").unwrap().as_f64(), arg(finish, "span").as_deref()), (Some(1.0), Some("2")));
    }

    #[test]
    fn sim_layout_groups_by_process_and_track_in_recording_order() {
        let _g = lock();
        reset();
        enable();
        sim_slice("d2", "kernel", "b", 0.0, 2.0);
        sim_slice("d1", "kernel", "a", 0.0, 1.0);
        {
            let _s = span("host_work");
        }
        sim_slice("d1", "h2d", "c", 1.0, 0.5);
        let snap = snapshot();
        reset();
        let layout = snap.sim_layout();
        assert_eq!(layout.processes, [("d1", vec!["h2d", "kernel"]), ("d2", vec!["kernel"])]);
        let placed: Vec<(usize, usize, &str)> =
            layout.slices.iter().map(|&(p, t, s)| (p, t, s.name.as_str())).collect();
        assert_eq!(placed, [(1, 0, "b"), (0, 1, "a"), (0, 0, "c")], "wall span left out");
        assert_eq!(layout.place("d1", "kernel"), Some((0, 1)));
        assert_eq!(layout.place("d2", "h2d"), None);
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
    fn flamegraph_of_a_fixed_snapshot_is_pinned() {
        // (id, parent, name, start µs, duration µs); parent 99 was still
        // live at snapshot time, so "lost" roots itself.
        let rows = [
            (1, 0, "root", 0.0, 1000.0),
            (2, 1, "a", 10.0, 600.4),
            (3, 1, "b", 700.0, 250.6),
            (4, 2, "c", 20.0, 100.0),
            (5, 0, "root", 2000.0, 50.0),
            (6, 99, "lost", 3000.0, 7.2),
        ];
        let mut snap = TelemetrySnapshot {
            spans: rows
                .iter()
                .map(|&(id, parent, name, start, dur)| SpanRecord {
                    id,
                    parent,
                    name: name.into(),
                    attrs: Vec::new(),
                    clock: Clock::Wall,
                    process: String::new(),
                    track: String::new(),
                    request: None,
                    start_s: start * 1e-6,
                    dur_s: dur * 1e-6,
                })
                .collect(),
            ..TelemetrySnapshot::default()
        };
        // Sim records never reach the flamegraph.
        let mut slice = snap.spans[0].clone();
        slice.clock = Clock::Sim;
        slice.id = 0;
        snap.spans.push(slice);
        assert_eq!(flamegraph(&snap), "lost 7\nroot 199\nroot;a 500\nroot;a;c 100\nroot;b 251\n");
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
        assert_eq!(s.window_at(5).unwrap().metrics.counter("hits"), 1);
        assert!(s.window_at(4).is_none(), "idle windows stay gaps");
        // A counter-only window reports no histogram: readers must treat
        // that as "no data", not as an empty distribution.
        assert!(s.window_at(5).unwrap().metrics.histogram("lat").is_none());
    }

    #[test]
    fn series_single_sample_window_summary_is_exact() {
        let mut s = WindowSeries::new(1e-3, 8);
        s.observe(2.1e-3, "lat", 0.25);
        let w = s.window_at(2).unwrap();
        let h = w.metrics.histogram("lat").unwrap().summary();
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
        assert_eq!(s.dropped, 1);
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
        let s = flow_event("s", 7, (1, 2), 10.0, "r7", 42);
        let f = flow_event("f", 7, (3, 1), 20.0, "r7", 43);
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

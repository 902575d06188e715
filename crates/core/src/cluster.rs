//! foresight-cluster: fault-tolerant multi-node serving.
//!
//! [`serve`](crate::serve) earns the paper's §V-C single-node projection
//! the hard way; this module scales it out to the machine the paper
//! actually targets — a Summit-class cluster where **node loss is
//! routine**. A [`ServeCluster`] is N identical [`ServeNode`]s behind a
//! front-end router:
//!
//! 1. **Placement** — field keys map onto a consistent-hash ring with
//!    virtual nodes; the first [`ServeCluster::replication`] distinct
//!    nodes clockwise from the key's point are its replica set. The ring
//!    is a pure function of `(nodes, vnodes)`, so placement survives
//!    re-execution — the property Jin et al.'s adaptive-configuration
//!    work assumes of per-field decisions.
//! 2. **Chaos** — a [`NodeChaosPlan`] schedules whole-node faults on the
//!    simulated clock: permanent crashes, slow-node windows (every
//!    engine lane runs a straggler factor slower) and transient
//!    partitions with recovery.
//! 3. **Detection** — the router probes each node every
//!    [`ClusterOptions::heartbeat_s`]; after
//!    [`ClusterOptions::probe_misses`] consecutive missed probes the
//!    node is marked down. Requests routed *before* detection pay a
//!    heartbeat timeout; requests routed after skip the node for free.
//! 4. **Circuit breakers** — per node, closed→open→half-open on the sim
//!    clock: repeated failures open the breaker,
//!    [`ClusterOptions::breaker_open_s`] later one half-open trial is
//!    allowed through, and a success re-closes it.
//! 5. **Failover** — a failed candidate redirects the request to the
//!    next replica under capped exponential backoff with deterministic
//!    per-(request, attempt) jitter; with every candidate exhausted the
//!    router's own CPU lane answers. **Admitted work is never lost.**
//! 6. **Brown-out** — admission capacity shrinks with the detected-up
//!    node count; past it, the *lowest-priority* arrivals of the window
//!    are shed first with a jittered `retry_after_s`.
//!
//! Bytes stay placement-, replica- and failover-independent by
//! construction: host codecs run in Phase A before any scheduling, so a
//! request's output is identical whichever node (or the CPU path) ends
//! up answering it — `tests/prop_cluster.rs` and the golden-vector
//! conformance suite pin this. Same seed + same chaos plan ⇒ identical
//! responses, metrics, and slice-for-slice identical traces.

use crate::cbench::ExecPath;
use crate::codec::{CodecConfig, Shape};
use crate::obs::{ObsTrace, TraceContext};
use crate::serve::{
    self, jitter01, record_units, served_stream, synth_field, workload_configs, ExecState, Run,
    Scope, ServeNode, ServeOptions, ServeRequest, ServeResponse, ServeStatus, ShedNote, TraceEvent,
    UnitExec, WORKLOAD_SHAPES,
};
use foresight_util::telemetry::{self, HistogramSummary, Metrics, WindowSeries};
use foresight_util::{Error, Result};
use gpu_sim::{NodeChaosPlan, NodeFaultKind};
use rand::{rngs::StdRng, Rng, SeedableRng};

// ---------------------------------------------------------------------------
// Cluster topology / options / requests
// ---------------------------------------------------------------------------

/// N identical serving nodes behind one router.
#[derive(Debug, Clone)]
pub struct ServeCluster {
    /// Node count.
    pub nodes: usize,
    /// Replicas per key (first R distinct ring successors).
    pub replication: usize,
    /// Virtual-node points per physical node on the placement ring.
    pub vnodes: usize,
    /// The device group every node runs (homogeneous, as on Summit).
    pub node: ServeNode,
}

impl ServeCluster {
    /// A cluster of `nodes` copies of `node` at replication `replication`.
    pub fn new(nodes: usize, replication: usize, node: ServeNode) -> Self {
        Self { nodes, replication, vnodes: 64, node }
    }

    /// `nodes` Summit-like nodes (six NVLink V100s each).
    pub fn summit(nodes: usize, replication: usize) -> Self {
        Self::new(nodes, replication, ServeNode::summit())
    }
}

/// Router tuning knobs on top of the per-node [`ServeOptions`].
#[derive(Debug, Clone)]
pub struct ClusterOptions {
    /// Per-node scheduler options (seed, rates, window, queue depth…).
    pub serve: ServeOptions,
    /// Health-probe interval on the simulated clock (default 2 ms); also
    /// the timeout a request pays when routed to an undetected-down node.
    pub heartbeat_s: f64,
    /// Consecutive missed probes before a node is marked down (default 2).
    pub probe_misses: u32,
    /// Request failures that open a node's circuit breaker (default 3).
    pub breaker_threshold: u32,
    /// How long an open breaker blocks dispatch before allowing one
    /// half-open trial (default 20 ms).
    pub breaker_open_s: f64,
    /// First redirect backoff (default 0.5 ms); doubles per attempt.
    pub backoff_base_s: f64,
    /// Backoff cap (default 8 ms).
    pub backoff_cap_s: f64,
    /// Node-level fault schedule (default quiet).
    pub chaos: NodeChaosPlan,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        Self {
            serve: ServeOptions::default(),
            heartbeat_s: 2e-3,
            probe_misses: 2,
            breaker_threshold: 3,
            breaker_open_s: 2e-2,
            backoff_base_s: 5e-4,
            backoff_cap_s: 8e-3,
            chaos: NodeChaosPlan::quiet(),
        }
    }
}

/// One client request plus its routing facts.
#[derive(Debug, Clone)]
pub struct ClusterRequest {
    /// Placement key (field name); replicas are the ring successors.
    pub key: String,
    /// Brown-out priority: higher survives longer (default tiers 0–2).
    pub priority: u8,
    /// The underlying serve request.
    pub req: ServeRequest,
}

/// Circuit-breaker states (per node).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Tripped: dispatch blocked until the open window elapses.
    Open,
    /// Cooling done: one trial request probes the node.
    HalfOpen,
}

impl BreakerState {
    /// Short label for traces and tables.
    pub fn label(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// One breaker state change, on the simulated clock.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerTransition {
    /// Which node's breaker.
    pub node: usize,
    /// When it flipped.
    pub at_s: f64,
    /// State before.
    pub from: BreakerState,
    /// State after.
    pub to: BreakerState,
}

/// Router answer for one request.
#[derive(Debug, Clone)]
pub struct ClusterResponse {
    /// Request id.
    pub id: u64,
    /// Terminal state (rejected = shed by admission, never dropped).
    pub status: ServeStatus,
    /// Output bytes; `None` unless `Done`.
    pub output: Option<Vec<u8>>,
    /// Execution path (worst across the request's units).
    pub exec: ExecPath,
    /// Node that answered, `None` for shed requests and router-CPU
    /// answers.
    pub node: Option<usize>,
    /// Devices that ran units, `+`-joined (e.g. `"n2-gpu0+n2-gpu1"`).
    pub devices: String,
    /// Candidate nodes skipped or failed before the answer.
    pub redirects: u32,
    /// Completion time on the simulated clock (arrival if shed).
    pub completed_s: f64,
    /// `completed_s - arrival_s` (0 if shed).
    pub latency_s: f64,
}

/// Everything a cluster run produced.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Responses in (arrival, id) order.
    pub responses: Vec<ClusterResponse>,
    /// Requests submitted.
    pub submitted: usize,
    /// Requests executed (Done or past-deadline). Conservation law:
    /// `completed + rejected == submitted` — nothing is ever dropped.
    pub completed: usize,
    /// Requests shed by admission (with a retry hint).
    pub rejected: usize,
    /// Executed requests that finished past their deadline.
    pub missed: usize,
    /// Last completion on the simulated clock.
    pub makespan_s: f64,
    /// Uncompressed GB of executed requests per makespan second.
    pub sustained_gbs: f64,
    /// Uncompressed bytes of executed requests.
    pub executed_bytes: u64,
    /// Requests not answered by their primary replica.
    pub failovers: u64,
    /// Candidate skips/retries across all requests.
    pub redirects: u64,
    /// Dispatches that timed out against an undetected-down node.
    pub timeouts: u64,
    /// Dispatches lost mid-flight to a node outage (and re-routed).
    pub interrupted: u64,
    /// Requests answered by the router's CPU lane.
    pub cpu_fallbacks: u64,
    /// Rejections taken while the cluster was degraded (brown-out).
    pub shed_brownout: u64,
    /// Per-device compute-lane utilization over the makespan
    /// (labels `n<i>-gpu<j>`).
    pub node_util: Vec<(String, f64)>,
    /// Circuit-breaker state changes, in decision order.
    pub breaker_transitions: Vec<BreakerTransition>,
    /// Gauges, counters, latency histogram.
    pub metrics: Metrics,
    /// Deterministic slice timeline: node device lanes, node CPU lanes,
    /// router events (lost work, CPU lane), chaos windows, breaker flips.
    pub trace: Vec<TraceEvent>,
    /// Request-scoped spans — every shed, breaker rejection, timeout,
    /// interrupted dispatch, commit, and device lane, causally linked
    /// per request (empty unless `opts.serve.obs` is set).
    pub obs: ObsTrace,
    /// Windowed series: latency, queue depth, failover/shed/fault
    /// counters, per-node utilization (`None` unless `opts.serve.obs` is
    /// set).
    pub series: Option<WindowSeries>,
}

impl ClusterReport {
    /// The request-latency histogram (p50/p95/p99), if any completed.
    pub fn latency(&self) -> Option<HistogramSummary> {
        self.metrics.histogram("cluster.latency_s").map(|h| h.summary())
    }

    /// Response by request id.
    pub fn response(&self, id: u64) -> Option<&ClusterResponse> {
        self.responses.iter().find(|r| r.id == id)
    }
}

// ---------------------------------------------------------------------------
// Consistent-hash ring
// ---------------------------------------------------------------------------

/// FNV-1a plus an avalanche finalizer: vnode labels are near-identical
/// strings, and plain FNV would leave their points clustered.
fn ring_hash(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in s.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let mut z = h;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The placement ring: sorted vnode points. A pure function of
/// `(nodes, vnodes)` — placement never depends on load or health, which
/// is what makes replica sets stable across re-execution.
struct Ring {
    points: Vec<(u64, usize)>,
}

impl Ring {
    fn new(nodes: usize, vnodes: usize) -> Self {
        let mut points: Vec<(u64, usize)> = (0..nodes)
            .flat_map(|n| (0..vnodes).map(move |v| (ring_hash(&format!("n{n}/v{v}")), n)))
            .collect();
        points.sort_unstable();
        Self { points }
    }

    /// First `want` distinct nodes clockwise from the key's point.
    fn preference(&self, key: &str, want: usize) -> Vec<usize> {
        let h = ring_hash(key);
        let start = self.points.partition_point(|p| p.0 < h) % self.points.len();
        let mut out = Vec::with_capacity(want);
        for i in 0..self.points.len() {
            let node = self.points[(start + i) % self.points.len()].1;
            if !out.contains(&node) {
                out.push(node);
                if out.len() == want {
                    break;
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Health detection and circuit breakers
// ---------------------------------------------------------------------------

/// Has the router's heartbeat loop marked `node` down by time `t_s`?
/// Probes fire at `k * heartbeat_s`; the outage is detected once
/// `probe_misses` consecutive probes inside it have passed.
fn detected_down(opts: &ClusterOptions, node: usize, t_s: f64) -> bool {
    let hb = opts.heartbeat_s;
    opts.chaos.outage_start(node, t_s).is_some_and(|start| {
        let first_missed = (start / hb).floor() + 1.0;
        t_s >= (first_missed + (opts.probe_misses.max(1) - 1) as f64) * hb
    })
}

/// One node's circuit breaker; its flips go to a shared log.
#[derive(Debug, Clone)]
struct Breaker {
    node: usize,
    state: BreakerState,
    fails: u32,
    opened_at_s: f64,
}

impl Breaker {
    fn new(node: usize) -> Self {
        Self { node, state: BreakerState::Closed, fails: 0, opened_at_s: 0.0 }
    }

    fn flip(&mut self, at_s: f64, to: BreakerState, log: &mut Vec<BreakerTransition>) {
        if self.state != to {
            log.push(BreakerTransition { node: self.node, at_s, from: self.state, to });
            self.state = to;
        }
    }

    /// May a request be dispatched to this node at `t_s`? An open
    /// breaker whose window has elapsed flips to half-open and lets one
    /// trial through.
    fn admits(&mut self, t_s: f64, open_s: f64, log: &mut Vec<BreakerTransition>) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if t_s >= self.opened_at_s + open_s {
                    self.flip(t_s, BreakerState::HalfOpen, log);
                    true
                } else {
                    false
                }
            }
        }
    }

    fn on_failure(&mut self, t_s: f64, threshold: u32, log: &mut Vec<BreakerTransition>) {
        self.fails += 1;
        let reopen = self.state == BreakerState::HalfOpen
            || (self.state == BreakerState::Closed && self.fails >= threshold);
        if reopen {
            self.opened_at_s = t_s;
            self.flip(t_s, BreakerState::Open, log);
        }
    }

    fn on_success(&mut self, t_s: f64, log: &mut Vec<BreakerTransition>) {
        self.fails = 0;
        self.flip(t_s, BreakerState::Closed, log);
    }
}

/// Capped exponential backoff with deterministic per-(request, attempt)
/// jitter in `[0.5, 1.0)` of the capped value — replicas are retried at
/// distinct instants even when many requests fail over together.
fn backoff_s(opts: &ClusterOptions, id: u64, attempt: u32) -> f64 {
    let base = opts.backoff_base_s * (1u64 << attempt.min(20)) as f64;
    let capped = base.min(opts.backoff_cap_s);
    capped * (0.5 + 0.5 * jitter01(opts.serve.seed, id, u64::from(attempt) + 1))
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

fn validate_cluster(
    spec: &ServeCluster,
    opts: &ClusterOptions,
    requests: &[ClusterRequest],
    inner: &[ServeRequest],
) -> Result<()> {
    if spec.nodes == 0 {
        return Err(Error::invalid("cluster needs at least one node"));
    }
    if spec.replication == 0 || spec.replication > spec.nodes {
        return Err(Error::invalid(format!(
            "replication must be in [1, nodes={}], got {}",
            spec.nodes, spec.replication
        )));
    }
    if spec.vnodes == 0 {
        return Err(Error::invalid("vnodes must be >= 1"));
    }
    for (name, v) in [
        ("heartbeat_s", opts.heartbeat_s),
        ("breaker_open_s", opts.breaker_open_s),
        ("backoff_base_s", opts.backoff_base_s),
        ("backoff_cap_s", opts.backoff_cap_s),
    ] {
        if !(v > 0.0 && v.is_finite()) {
            return Err(Error::invalid(format!("cluster {name} must be positive, got {v}")));
        }
    }
    if opts.backoff_cap_s < opts.backoff_base_s {
        return Err(Error::invalid("backoff_cap_s must be >= backoff_base_s"));
    }
    if opts.probe_misses == 0 || opts.breaker_threshold == 0 {
        return Err(Error::invalid("probe_misses and breaker_threshold must be >= 1"));
    }
    for r in requests {
        if r.key.is_empty() {
            return Err(Error::invalid(format!("request {}: empty placement key", r.req.id)));
        }
    }
    serve::validate(&spec.node, &opts.serve, inner)
}

// ---------------------------------------------------------------------------
// The router
// ---------------------------------------------------------------------------

/// Serves `requests` on the cluster with replicated placement,
/// health-checked failover, circuit breakers, and brown-out admission.
/// See the module docs for the model.
pub fn serve_cluster(
    spec: &ServeCluster,
    opts: &ClusterOptions,
    requests: &[ClusterRequest],
) -> Result<ClusterReport> {
    let inner: Vec<ServeRequest> = requests.iter().map(|r| r.req.clone()).collect();
    validate_cluster(spec, opts, requests, &inner)?;
    let mut run = Run::new(Scope::Cluster, &opts.serve, &inner)?;
    run.reg.gauge("cluster.nodes", spec.nodes as f64);
    run.reg.gauge("cluster.replication", spec.replication as f64);
    run.reg.gauge("cluster.queue_depth.limit", opts.serve.queue_depth as f64);
    let mut router = Router::new(spec, opts);
    for (dispatch_s, members) in run.windows() {
        for ri in router.admit_window(&mut run, requests, dispatch_s, &members) {
            router.route(&mut run, &requests[ri], ri, dispatch_s);
        }
    }
    Ok(router.finish(run))
}

/// The node-independent part of a cluster answer; routing fills in
/// `node` and `redirects`.
impl From<ServeResponse> for ClusterResponse {
    fn from(r: ServeResponse) -> Self {
        Self {
            id: r.id,
            status: r.status,
            output: r.output,
            exec: r.exec,
            node: None,
            devices: r.device,
            redirects: 0,
            completed_s: r.completed_s,
            latency_s: r.latency_s,
        }
    }
}

/// A slice on the router's own `cluster` trace process.
fn router_slice(track: String, name: String, start_s: f64, dur_s: f64) -> TraceEvent {
    TraceEvent { process: "cluster".into(), track, name, start_s, dur_s }
}

/// Where one request's routing stands: its clock, its backoff attempt,
/// and the candidates it has passed over.
struct Hop {
    t: f64,
    attempt: u32,
    redirects: u32,
}

impl Hop {
    /// Moves on to the next candidate at `t` after a failed attempt.
    fn retry_at(&mut self, t: f64) {
        self.t = t;
        self.attempt += 1;
        self.redirects += 1;
    }
}

/// What the routing policy keeps across one run: placement, per-node
/// execution state and breakers, the router's own trace and CPU lane,
/// and its counts.
struct Router<'a> {
    spec: &'a ServeCluster,
    opts: &'a ClusterOptions,
    ring: Ring,
    states: Vec<ExecState>,
    breakers: Vec<Breaker>,
    transitions: Vec<BreakerTransition>,
    /// Lost work and the CPU lane, in decision order.
    events: Vec<TraceEvent>,
    cpu_free_s: f64,
    failovers: u64,
    redirects: u64,
    timeouts: u64,
    interrupted: u64,
    cpu_fallbacks: u64,
}

impl<'a> Router<'a> {
    fn new(spec: &'a ServeCluster, opts: &'a ClusterOptions) -> Self {
        Self {
            spec,
            opts,
            ring: Ring::new(spec.nodes, spec.vnodes),
            states: (0..spec.nodes)
                .map(|i| ExecState::new(&spec.node, &opts.serve, &format!("n{i}"), true))
                .collect(),
            breakers: (0..spec.nodes).map(Breaker::new).collect(),
            transitions: Vec::new(),
            events: Vec::new(),
            cpu_free_s: 0.0,
            failovers: 0,
            redirects: 0,
            timeouts: 0,
            interrupted: 0,
            cpu_fallbacks: 0,
        }
    }

    /// Brown-out admission of one window: capacity shrinks with the
    /// detected-up node count, and the window's lowest-priority arrivals
    /// shed first. Shedding happens at admission, before dispatch — work
    /// that *was* admitted is never dropped. Returns the admitted
    /// members in (arrival, id) order.
    fn admit_window(
        &self,
        run: &mut Run<'_, ClusterResponse>,
        requests: &[ClusterRequest],
        dispatch_s: f64,
        members: &[usize],
    ) -> Vec<usize> {
        let opts = self.opts;
        let detected_up = (0..self.spec.nodes)
            .filter(|&n| !detected_down(opts, n, dispatch_s))
            .count();
        let capacity = opts.serve.queue_depth * detected_up;
        let degraded = detected_up < self.spec.nodes;
        let mut by_priority: Vec<usize> = (0..members.len()).collect();
        by_priority.sort_by(|&a, &b| {
            let (x, y) = (&requests[members[a]], &requests[members[b]]);
            y.priority
                .cmp(&x.priority)
                .then(x.req.arrival_s.total_cmp(&y.req.arrival_s))
                .then(x.req.id.cmp(&y.req.id))
        });
        let mut admitted = vec![false; members.len()];
        let mut queued = 0usize;
        for p in by_priority {
            let r = &requests[members[p]];
            let note = ShedNote {
                attrs: vec![("key".into(), r.key.clone()), ("priority".into(), r.priority.to_string())],
                shed_attrs: vec![("degraded".into(), degraded.to_string())],
                counters: if degraded { &["cluster.shed_brownout"] } else { &[] },
            };
            admitted[p] = run.admit(members[p], dispatch_s, capacity, &mut queued, note);
        }
        members.iter().zip(admitted).filter_map(|(&ri, ok)| ok.then_some(ri)).collect()
    }

    /// Routes one admitted request: its ring replicas first, then every
    /// other node, until one commits; with every candidate exhausted the
    /// router's CPU lane answers. Then completes it in the core, adding
    /// the fail-over and redirect accounting.
    fn route(&mut self, run: &mut Run<'_, ClusterResponse>, creq: &ClusterRequest, ri: usize, dispatch_s: f64) {
        let req = &creq.req;
        let pref = self.ring.preference(&creq.key, self.spec.replication);
        let primary = pref[0];
        let others = (0..self.spec.nodes).filter(|n| !pref.contains(n));
        let candidates: Vec<usize> = pref.iter().copied().chain(others).collect();
        // Root of this request's span tree: admission covers the wait
        // from arrival to the window's dispatch tick.
        let root = if run.rec.enabled() {
            run.rec.mint(
                req.id,
                "admission",
                req.arrival_s,
                (dispatch_s - req.arrival_s).max(0.0),
                vec![
                    ("key".into(), creq.key.clone()),
                    ("priority".into(), creq.priority.to_string()),
                    ("primary".into(), format!("n{primary}")),
                ],
            )
        } else {
            TraceContext::NONE
        };
        let mut hop = Hop { t: dispatch_s, attempt: 0, redirects: 0 };
        let committed = candidates
            .iter()
            .find_map(|&ni| self.try_node(run, ri, ni, root, &mut hop).map(|o| (o, ni)));
        let (outcomes, node) = match committed {
            Some((outcomes, ni)) => (outcomes, Some(ni)),
            None => (self.cpu_lane(run, ri, root, &hop), None),
        };
        let failover = node != Some(primary);
        if failover {
            self.failovers += 1;
            run.reg.counter("cluster.failover", 1);
            telemetry::counter("cluster.failover", 1);
        }
        self.redirects += u64::from(hop.redirects);
        run.reg.counter("cluster.redirect", u64::from(hop.redirects));
        let resp = run.complete(ri, &outcomes);
        if let Some(s) = run.series.as_mut() {
            if failover {
                s.incr(resp.completed_s, "cluster.failover", 1);
            }
            if hop.redirects > 0 {
                s.incr(resp.completed_s, "cluster.redirect", u64::from(hop.redirects));
            }
        }
        run.responses[ri] = Some(ClusterResponse { node, redirects: hop.redirects, ..resp.into() });
    }

    /// Tries candidate `ni` at `hop.t`, returning the unit outcomes when
    /// the request commits there. Otherwise the hop moves on: past an
    /// open breaker or a node the health table marks down for free, past
    /// an undetected-down node after a heartbeat timeout and a backoff,
    /// and past a node that dies before the work finishes after the
    /// outage and a backoff.
    fn try_node(
        &mut self,
        run: &mut Run<'_, ClusterResponse>,
        ri: usize,
        ni: usize,
        root: TraceContext,
        hop: &mut Hop,
    ) -> Option<Vec<UnitExec>> {
        let opts = self.opts;
        let (t, id) = (hop.t, run.requests[ri].id);
        let node = || ("node".to_string(), format!("n{ni}"));
        if !self.breakers[ni].admits(t, opts.breaker_open_s, &mut self.transitions) {
            hop.redirects += 1;
            let state = ("state".to_string(), "open".to_string());
            run.rec.child(root, "breaker.reject", t, 0.0, vec![node(), state]);
            return None;
        }
        if detected_down(opts, ni, t) {
            // Health table already marks it down: skip for free, and let
            // the breaker learn from the probe.
            hop.redirects += 1;
            self.breakers[ni].on_failure(t, opts.breaker_threshold, &mut self.transitions);
            run.rec.child(root, "skip.down", t, 0.0, vec![node()]);
            return None;
        }
        let tries = hop.attempt;
        let attempt = || ("attempt".to_string(), tries.to_string());
        let backoff = backoff_s(opts, id, tries);
        if !opts.chaos.reachable(ni, t) {
            // Down but not yet detected: the dispatch times out after one
            // heartbeat, then backs off to the next replica.
            self.timeouts += 1;
            run.reg.counter("cluster.timeout", 1);
            telemetry::counter("cluster.timeout", 1);
            self.breakers[ni].on_failure(t + opts.heartbeat_s, opts.breaker_threshold, &mut self.transitions);
            if let Some(s) = run.series.as_mut() {
                s.incr(t, "cluster.timeout", 1);
            }
            let attrs = vec![node(), attempt(), ("backoff_s".into(), format!("{backoff:.9}"))];
            run.rec.child(root, "timeout", t, opts.heartbeat_s, attrs);
            hop.retry_at(t + (opts.heartbeat_s + backoff));
            return None;
        }
        // Tentative dispatch: run on a clone, commit only if the node
        // survives to the completion time.
        let mut trial = self.states[ni].clone();
        let slow = opts.chaos.slow_factor(ni, t);
        for q in trial.queues.iter_mut() {
            q.set_slowdown(slow);
        }
        let start = trial.least_loaded();
        let outcomes = run.run_units(&mut trial, ri, start, t);
        let done = outcomes.iter().fold(0.0f64, |m, o| m.max(o.0));
        if let Some(cut_s) = opts.chaos.next_outage(ni, t).filter(|&c| c < done) {
            // The node dies mid-flight: the trial state is discarded
            // (in-flight work lost) and the request fails over to the
            // next replica.
            self.interrupted += 1;
            run.reg.counter("cluster.interrupted", 1);
            telemetry::counter("cluster.interrupted", 1);
            let lost = router_slice(format!("lost.n{ni}"), format!("r{id}"), t, (cut_s - t).max(0.0));
            self.events.push(lost);
            self.breakers[ni].on_failure(cut_s, opts.breaker_threshold, &mut self.transitions);
            if let Some(s) = run.series.as_mut() {
                s.incr(cut_s, "cluster.interrupted", 1);
            }
            let attrs = vec![
                node(),
                attempt(),
                ("outcome".into(), "interrupted".into()),
                ("cut_s".into(), format!("{cut_s:.9}")),
            ];
            run.rec.child(root, "dispatch", t, (cut_s - t).max(0.0), attrs);
            hop.retry_at(cut_s + backoff);
            return None;
        }
        self.breakers[ni].on_success(done, &mut self.transitions);
        self.states[ni] = trial;
        if run.rec.enabled() {
            let attrs = vec![node(), attempt(), ("outcome".into(), "ok".into())];
            let dispatch = run.rec.child(root, "dispatch", t, (done - t).max(0.0), attrs);
            record_units(&mut run.rec, dispatch, &outcomes, &format!("n{ni}-cpu"));
        }
        Some(outcomes)
    }

    /// Every candidate exhausted: the router's CPU lane answers. The
    /// bytes already exist (Phase A); only the clock is charged.
    /// Admitted work is never lost.
    fn cpu_lane(&mut self, run: &mut Run<'_, ClusterResponse>, ri: usize, root: TraceContext, hop: &Hop) -> Vec<UnitExec> {
        self.cpu_fallbacks += 1;
        run.reg.counter("cluster.cpu_fallback", 1);
        telemetry::counter("cluster.cpu_fallback", 1);
        if let Some(s) = run.series.as_mut() {
            s.incr(hop.t, "cluster.cpu_fallback", 1);
        }
        let mut outcomes = Vec::with_capacity(run.units[ri].len());
        let first = self.events.len();
        for (k, u) in run.units[ri].iter().enumerate() {
            let start = hop.t.max(self.cpu_free_s);
            let dur = u.n_values as f64 * 4.0 / (self.opts.serve.cpu_fallback_gbs * 1e9);
            self.cpu_free_s = start + dur;
            self.events.push(TraceEvent {
                process: "cluster-cpu".into(),
                track: "cpu".into(),
                name: format!("r{}.{k}", run.requests[ri].id),
                start_s: start,
                dur_s: dur,
            });
            outcomes.push((self.cpu_free_s, ExecPath::CpuFallback, "cluster-cpu".to_string(), None));
        }
        if run.rec.enabled() {
            let attrs = vec![
                ("node".into(), "router".into()),
                ("attempt".into(), hop.attempt.to_string()),
                ("outcome".into(), "cpu".into()),
            ];
            let dispatch = run.rec.child(root, "dispatch", hop.t, (self.cpu_free_s - hop.t).max(0.0), attrs);
            for (k, e) in self.events[first..].iter().enumerate() {
                let attrs = vec![
                    ("unit".into(), k.to_string()),
                    ("device".into(), "cluster-cpu".into()),
                    ("path".into(), "cpu".into()),
                ];
                run.rec.child(dispatch, "unit", e.start_s, e.dur_s, attrs);
                run.rec.anchor_last("cluster-cpu", "cpu");
            }
        }
        outcomes
    }

    /// The report: the core's finish over every node, then the router's
    /// own slices after the nodes' — lost work and its CPU lane, chaos
    /// windows (a crash runs to the makespan) and breaker flips.
    fn finish(mut self, run: Run<'_, ClusterResponse>) -> ClusterReport {
        let flips = |to: BreakerState| self.transitions.iter().filter(|t| t.to == to).count() as u64;
        run.reg.counter("cluster.breaker.opened", flips(BreakerState::Open));
        run.reg.counter("cluster.breaker.half_open", flips(BreakerState::HalfOpen));
        run.reg.counter("cluster.breaker.closed", flips(BreakerState::Closed));
        let (responses, f) = run.finish(&mut self.states);
        for e in self.opts.chaos.events() {
            if e.node >= self.spec.nodes || e.at_s > f.makespan_s {
                continue;
            }
            let dur = match e.kind {
                NodeFaultKind::Crash => (f.makespan_s - e.at_s).max(0.0),
                _ => e.duration_s,
            };
            let name = e.kind.name().to_string();
            self.events.push(router_slice(format!("chaos.n{}", e.node), name, e.at_s, dur));
        }
        for tr in &self.transitions {
            let name = format!("{}->{}", tr.from.label(), tr.to.label());
            self.events.push(router_slice(format!("breaker.n{}", tr.node), name, tr.at_s, 0.0));
        }
        serve::replay(&self.events);
        let mut trace = f.trace;
        trace.extend(self.events);
        ClusterReport {
            submitted: responses.len(),
            // Conservation: every request not shed was executed.
            completed: responses.len() - f.rejected,
            responses,
            rejected: f.rejected,
            missed: f.missed,
            makespan_s: f.makespan_s,
            sustained_gbs: f.sustained_gbs,
            executed_bytes: f.executed_bytes,
            failovers: self.failovers,
            redirects: self.redirects,
            timeouts: self.timeouts,
            interrupted: self.interrupted,
            cpu_fallbacks: self.cpu_fallbacks,
            shed_brownout: f.metrics.counter("cluster.shed_brownout"),
            node_util: f.device_util,
            breaker_transitions: self.transitions,
            metrics: f.metrics,
            trace,
            obs: f.obs,
            series: f.series,
        }
    }
}

// ---------------------------------------------------------------------------
// Zipfian open-loop workload
// ---------------------------------------------------------------------------

/// Parameters of the seeded Zipf-popularity generator: a catalog of
/// `fields` distinct fields whose request popularity follows a Zipf
/// distribution with exponent `zipf_s` — a few hot fields dominate, as
/// snapshot access patterns do.
#[derive(Debug, Clone)]
pub struct ClusterWorkloadSpec {
    /// Requests to emit.
    pub requests: usize,
    /// RNG seed (catalog content, arrivals, popularity draws).
    pub seed: u64,
    /// Mean arrival rate (Poisson inter-arrivals), requests/second.
    pub arrival_hz: f64,
    /// Catalog size (distinct placement keys).
    pub fields: usize,
    /// Zipf exponent (0 = uniform; default 1.1).
    pub zipf_s: f64,
    /// Fraction of requests that are decompressions.
    pub decompress_fraction: f64,
    /// Per-request relative deadline, if any.
    pub deadline_s: Option<f64>,
    /// Priority tiers (requests draw uniformly from `0..priorities`).
    pub priorities: u8,
}

impl Default for ClusterWorkloadSpec {
    fn default() -> Self {
        Self {
            requests: 96,
            seed: 0,
            arrival_hz: 6000.0,
            fields: 12,
            zipf_s: 1.1,
            decompress_fraction: 0.25,
            deadline_s: None,
            priorities: 3,
        }
    }
}

/// Generates a deterministic Zipf-popularity open-loop request stream.
pub fn cluster_workload(spec: &ClusterWorkloadSpec) -> Result<Vec<ClusterRequest>> {
    if !(spec.arrival_hz > 0.0 && spec.arrival_hz.is_finite()) {
        return Err(Error::invalid("arrival_hz must be positive"));
    }
    if spec.fields == 0 {
        return Err(Error::invalid("fields must be >= 1"));
    }
    if !(spec.zipf_s >= 0.0 && spec.zipf_s.is_finite()) {
        return Err(Error::invalid("zipf_s must be finite and >= 0"));
    }
    if !(0.0..=1.0).contains(&spec.decompress_fraction) {
        return Err(Error::invalid("decompress_fraction must be in [0, 1]"));
    }
    if spec.priorities == 0 {
        return Err(Error::invalid("priorities must be >= 1"));
    }
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let (shapes, configs) = (WORKLOAD_SHAPES, workload_configs());
    // Build the field catalog up front (deterministic draw order), each
    // field with its canonical compressed stream for decompress draws.
    struct Field {
        key: String,
        data: Vec<f32>,
        shape: Shape,
        config: CodecConfig,
        stream: Vec<u8>,
    }
    let mut catalog = Vec::with_capacity(spec.fields);
    for f in 0..spec.fields {
        let shape = shapes[f % shapes.len()];
        let config = configs[f % configs.len()].clone();
        let phase = rng.gen::<f64>() * std::f64::consts::TAU;
        let data = synth_field(shape.len(), phase, &mut rng);
        let stream = served_stream(&data, shape, &config)?;
        catalog.push(Field { key: format!("field{f}"), data, shape, config, stream });
    }
    // Zipf CDF over catalog ranks.
    let weights: Vec<f64> =
        (0..spec.fields).map(|k| 1.0 / ((k + 1) as f64).powf(spec.zipf_s)).collect();
    let total: f64 = weights.iter().sum();
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity(spec.requests);
    for id in 0..spec.requests {
        let u: f64 = rng.gen();
        t += (-(1.0 - u).ln()).max(0.0) / spec.arrival_hz;
        let mut pick = rng.gen::<f64>() * total;
        let mut k = 0usize;
        for (i, w) in weights.iter().enumerate() {
            k = i;
            if pick < *w {
                break;
            }
            pick -= w;
        }
        let field = &catalog[k];
        let priority = rng.gen_range(0..u64::from(spec.priorities)) as u8;
        let payload = if rng.gen::<f64>() < spec.decompress_fraction {
            crate::serve::ServePayload::Decompress { stream: field.stream.clone() }
        } else {
            crate::serve::ServePayload::Compress {
                data: field.data.clone(),
                shape: field.shape,
                config: field.config.clone(),
            }
        };
        out.push(ClusterRequest {
            key: field.key.clone(),
            priority,
            req: ServeRequest {
                id: id as u64,
                arrival_s: t,
                deadline_s: spec.deadline_s.map(|d| t + d),
                payload,
            },
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::NodeFaultEvent;

    fn small_cluster(nodes: usize, replication: usize) -> ServeCluster {
        ServeCluster::new(nodes, replication, ServeNode::v100_pcie(2))
    }

    fn compress_req(id: u64, arrival_s: f64, n_side: usize) -> ServeRequest {
        let shape = Shape::D3(n_side, n_side, n_side);
        let data: Vec<f32> = (0..shape.len()).map(|i| (i as f32 * 0.01).sin() * 50.0).collect();
        ServeRequest {
            id,
            arrival_s,
            deadline_s: None,
            payload: crate::serve::ServePayload::Compress {
                data,
                shape,
                config: CodecConfig::Zfp(lossy_zfp::ZfpConfig::rate(4.0)),
            },
        }
    }

    fn creq(id: u64, arrival_s: f64, key: &str, priority: u8) -> ClusterRequest {
        ClusterRequest { key: key.into(), priority, req: compress_req(id, arrival_s, 16) }
    }

    fn kill(node: usize, at_s: f64) -> NodeChaosPlan {
        NodeChaosPlan::new(vec![NodeFaultEvent {
            node,
            kind: NodeFaultKind::Crash,
            at_s,
            duration_s: 0.0,
            slow_factor: 1.0,
        }])
        .unwrap()
    }

    #[test]
    fn ring_placement_is_deterministic_balanced_and_replicated() {
        let ring = Ring::new(4, 64);
        let mut counts = [0usize; 4];
        for i in 0..200 {
            let key = format!("field{i}");
            let a = ring.preference(&key, 2);
            let b = ring.preference(&key, 2);
            assert_eq!(a, b, "placement must be stable");
            assert_eq!(a.len(), 2);
            assert_ne!(a[0], a[1], "replicas must be distinct nodes");
            counts[a[0]] += 1;
        }
        for (n, c) in counts.iter().enumerate() {
            assert!(*c > 10, "node {n} owns only {c}/200 keys: ring unbalanced");
        }
        // want > nodes saturates at the node count.
        assert_eq!(ring.preference("x", 9).len(), 4);
    }

    #[test]
    fn breaker_walks_closed_open_half_open_closed() {
        let mut b = Breaker::new(0);
        let mut log = Vec::new();
        assert!(b.admits(0.0, 0.02, &mut log));
        b.on_failure(0.001, 2, &mut log);
        assert_eq!(b.state, BreakerState::Closed, "below threshold");
        b.on_failure(0.002, 2, &mut log);
        assert_eq!(b.state, BreakerState::Open);
        assert!(!b.admits(0.01, 0.02, &mut log), "still cooling");
        assert!(b.admits(0.03, 0.02, &mut log), "window elapsed: trial allowed");
        assert_eq!(b.state, BreakerState::HalfOpen);
        b.on_failure(0.031, 2, &mut log);
        assert_eq!(b.state, BreakerState::Open, "failed trial reopens immediately");
        assert!(b.admits(0.06, 0.02, &mut log));
        b.on_success(0.061, &mut log);
        assert_eq!(b.state, BreakerState::Closed);
        let states: Vec<BreakerState> = log.iter().map(|t| t.to).collect();
        assert_eq!(
            states,
            [
                BreakerState::Open,
                BreakerState::HalfOpen,
                BreakerState::Open,
                BreakerState::HalfOpen,
                BreakerState::Closed
            ]
        );
    }

    #[test]
    fn heartbeat_detection_needs_consecutive_misses() {
        let with = |chaos| ClusterOptions { chaos, heartbeat_s: 2e-3, probe_misses: 2, ..Default::default() };
        let plan = with(kill(1, 0.0105));
        // Outage starts at 10.5 ms; probes at 12 and 14 ms miss; with
        // probe_misses = 2 detection lands at 14 ms.
        assert!(!detected_down(&plan, 1, 0.012));
        assert!(!detected_down(&plan, 1, 0.0139));
        assert!(detected_down(&plan, 1, 0.014));
        assert!(detected_down(&plan, 1, 1.0));
        assert!(!detected_down(&plan, 0, 1.0), "healthy node never detected down");
        // A recovered partition is no longer "down".
        let part = with(
            NodeChaosPlan::new(vec![NodeFaultEvent {
                node: 0,
                kind: NodeFaultKind::Partition,
                at_s: 0.0,
                duration_s: 0.01,
                slow_factor: 1.0,
            }])
            .unwrap(),
        );
        assert!(detected_down(&part, 0, 0.008));
        assert!(!detected_down(&part, 0, 0.011));
    }

    #[test]
    fn quiet_cluster_matches_serial_bytes_and_loses_nothing() {
        let spec = small_cluster(3, 2);
        let opts = ClusterOptions::default();
        let reqs: Vec<ClusterRequest> =
            (0..9).map(|i| creq(i, 1e-5 * i as f64, &format!("f{}", i % 4), 1)).collect();
        let r = serve_cluster(&spec, &opts, &reqs).unwrap();
        assert_eq!(r.submitted, 9);
        assert_eq!(r.completed + r.rejected, r.submitted);
        assert_eq!(r.rejected, 0);
        assert_eq!((r.failovers, r.timeouts, r.interrupted, r.cpu_fallbacks), (0, 0, 0, 0));
        let inner: Vec<ServeRequest> = reqs.iter().map(|r| r.req.clone()).collect();
        let serial = serve::serve_serial(&spec.node, &opts.serve, &inner).unwrap();
        for resp in &r.responses {
            let reference = serial.response(resp.id).unwrap();
            assert_eq!(resp.output, reference.output, "request {}", resp.id);
        }
        // Multiple nodes actually served (placement spreads keys).
        let used: std::collections::BTreeSet<usize> =
            r.responses.iter().filter_map(|x| x.node).collect();
        assert!(used.len() > 1, "only nodes {used:?} served");
    }

    #[test]
    fn node_kill_mid_run_fails_over_without_losing_bytes() {
        let spec = small_cluster(4, 2);
        let reqs: Vec<ClusterRequest> =
            (0..16).map(|i| creq(i, 1e-4 * i as f64, &format!("f{}", i % 6), 1)).collect();
        let healthy = serve_cluster(&spec, &ClusterOptions::default(), &reqs).unwrap();
        let chaos_opts =
            ClusterOptions { chaos: kill(1, 8e-4), ..ClusterOptions::default() };
        let r = serve_cluster(&spec, &chaos_opts, &reqs).unwrap();
        assert_eq!(r.completed + r.rejected, r.submitted, "conservation violated");
        assert_eq!(r.rejected, 0, "queue is deep enough for this workload");
        // Every output byte matches the healthy run.
        for (a, b) in r.responses.iter().zip(&healthy.responses) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.output, b.output, "request {} bytes diverged under chaos", a.id);
        }
        // The dead node's requests visibly failed over.
        assert!(
            r.failovers > 0 || r.timeouts > 0 || r.interrupted > 0,
            "node kill left no failover evidence"
        );
        assert!(r.responses.iter().all(|x| x.node != Some(1) || x.completed_s < 8e-4));
        // Same seed, same chaos ⇒ trace-identical rerun.
        let r2 = serve_cluster(&spec, &chaos_opts, &reqs).unwrap();
        assert_eq!(r.trace, r2.trace);
        assert_eq!(r.breaker_transitions, r2.breaker_transitions);
    }

    #[test]
    fn all_nodes_dead_routes_admitted_work_to_router_cpu() {
        let spec = small_cluster(2, 2);
        let chaos = NodeChaosPlan::new(
            (0..2)
                .map(|n| NodeFaultEvent {
                    node: n,
                    kind: NodeFaultKind::Crash,
                    at_s: 0.0,
                    duration_s: 0.0,
                    slow_factor: 1.0,
                })
                .collect(),
        )
        .unwrap();
        let opts = ClusterOptions { chaos, ..Default::default() };
        // Arrivals inside the first detection window are admitted (the
        // router doesn't know yet) and must still be answered.
        let reqs: Vec<ClusterRequest> = (0..3).map(|i| creq(i, 0.0, "f", 1)).collect();
        let r = serve_cluster(&spec, &opts, &reqs).unwrap();
        assert_eq!(r.completed, 3, "admitted work must never be lost");
        assert_eq!(r.cpu_fallbacks, 3);
        for resp in &r.responses {
            assert_eq!(resp.exec, ExecPath::CpuFallback);
            assert_eq!(resp.node, None);
            assert!(resp.output.is_some());
        }
        assert!(r.timeouts > 0, "undetected-down dispatch pays timeouts");
    }

    #[test]
    fn brownout_sheds_lowest_priority_first_with_jittered_hints() {
        let spec = small_cluster(2, 1);
        // Node 1 crashed and long-detected: capacity halves. Tiny queue
        // so the window over-subscribes: capacity 3 fits exactly the
        // three high-priority arrivals.
        let opts = ClusterOptions {
            serve: ServeOptions { queue_depth: 3, ..Default::default() },
            chaos: kill(1, 0.0),
            ..Default::default()
        };
        let mut reqs: Vec<ClusterRequest> = Vec::new();
        for i in 0..6 {
            // Same window; priorities 0 (shed first) vs 2 (keep).
            reqs.push(creq(i, 0.5 + 1e-6 * i as f64, &format!("f{i}"), if i < 3 { 2 } else { 0 }));
        }
        let r = serve_cluster(&spec, &opts, &reqs).unwrap();
        assert_eq!(r.completed + r.rejected, r.submitted);
        assert!(r.rejected >= 3, "halved capacity must shed");
        assert!(r.shed_brownout >= 3, "sheds must be counted as brown-out");
        // High-priority requests survived; shed ones are low-priority.
        for resp in &r.responses {
            let pr = reqs.iter().find(|q| q.req.id == resp.id).unwrap().priority;
            match resp.status {
                ServeStatus::Rejected { retry_after_s } => {
                    assert_eq!(pr, 0, "request {} shed despite priority {pr}", resp.id);
                    assert!(retry_after_s.is_finite() && retry_after_s > 0.0);
                }
                _ => assert_eq!(pr, 2, "low-priority request {} kept", resp.id),
            }
        }
        // Hints are jittered pairwise.
        let hints: Vec<f64> = r
            .responses
            .iter()
            .filter_map(|x| match x.status {
                ServeStatus::Rejected { retry_after_s } => Some(retry_after_s),
                _ => None,
            })
            .collect();
        for (i, a) in hints.iter().enumerate() {
            for b in &hints[i + 1..] {
                assert!((a - b).abs() > 1e-12, "shed hints re-synchronized");
            }
        }
    }

    #[test]
    fn slow_node_stretches_latency_but_not_bytes() {
        let spec = small_cluster(2, 1);
        let reqs: Vec<ClusterRequest> =
            (0..8).map(|i| creq(i, 1e-5 * i as f64, &format!("f{i}"), 1)).collect();
        let healthy = serve_cluster(&spec, &ClusterOptions::default(), &reqs).unwrap();
        let slow_all = NodeChaosPlan::new(
            (0..2)
                .map(|n| NodeFaultEvent {
                    node: n,
                    kind: NodeFaultKind::Slow,
                    at_s: 0.0,
                    duration_s: 10.0,
                    slow_factor: 5.0,
                })
                .collect(),
        )
        .unwrap();
        let r = serve_cluster(
            &spec,
            &ClusterOptions { chaos: slow_all, ..Default::default() },
            &reqs,
        )
        .unwrap();
        // Makespan is window-dominated for small fields, so assert on
        // the kernel lane: every kernel slice runs the straggler factor
        // slower.
        let kern = |rep: &ClusterReport| {
            rep.trace.iter().filter(|e| e.track == "kernel").map(|e| e.dur_s).sum::<f64>()
        };
        assert!(
            kern(&r) > kern(&healthy) * 4.5 && kern(&r) < kern(&healthy) * 5.5,
            "5x straggler scaled kernel time by {}",
            kern(&r) / kern(&healthy)
        );
        assert!(r.makespan_s > healthy.makespan_s);
        for (a, b) in r.responses.iter().zip(&healthy.responses) {
            assert_eq!(a.output, b.output, "stragglers must not change bytes");
        }
    }

    #[test]
    fn breaker_opens_under_repeated_timeouts_then_recovers() {
        let spec = small_cluster(2, 2);
        // Node 0 partitioned 0..50ms, recovers after.
        let chaos = NodeChaosPlan::new(vec![NodeFaultEvent {
            node: 0,
            kind: NodeFaultKind::Partition,
            at_s: 0.0,
            duration_s: 0.05,
            slow_factor: 1.0,
        }])
        .unwrap();
        let opts = ClusterOptions { breaker_threshold: 2, chaos, ..Default::default() };
        // Keys that prefer node 0, spread over many windows crossing the
        // recovery point.
        let ring = Ring::new(2, 64);
        let mut reqs = Vec::new();
        let mut id = 0u64;
        let mut k = 0usize;
        while reqs.len() < 24 {
            let key = format!("f{k}");
            k += 1;
            if ring.preference(&key, 1)[0] != 0 {
                continue;
            }
            reqs.push(creq(id, 4e-3 * id as f64, &key, 1));
            id += 1;
        }
        let r = serve_cluster(&spec, &opts, &reqs).unwrap();
        assert_eq!(r.completed, 24);
        let opened = r.breaker_transitions.iter().any(|t| t.node == 0 && t.to == BreakerState::Open);
        assert!(opened, "breaker never opened: {:?}", r.breaker_transitions);
        let reclosed = r
            .breaker_transitions
            .iter()
            .any(|t| t.node == 0 && t.to == BreakerState::Closed);
        assert!(reclosed, "breaker never re-closed after recovery");
        // Late requests (node 0 recovered, breaker closed) run on node 0.
        let late_on_0 = r
            .responses
            .iter()
            .any(|x| x.node == Some(0) && x.completed_s > 0.05);
        assert!(late_on_0, "recovered node never served again");
    }

    #[test]
    fn zipf_workload_is_deterministic_and_skewed() {
        let spec = ClusterWorkloadSpec { requests: 200, seed: 7, ..Default::default() };
        let a = cluster_workload(&spec).unwrap();
        let b = cluster_workload(&spec).unwrap();
        assert_eq!(a.len(), 200);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.key, y.key);
            assert_eq!(x.req.arrival_s, y.req.arrival_s);
            assert_eq!(x.priority, y.priority);
        }
        // Zipf skew: the hottest key dominates a uniform share.
        let mut counts = std::collections::BTreeMap::new();
        for r in &a {
            *counts.entry(r.key.clone()).or_insert(0usize) += 1;
        }
        let hottest = counts.values().max().unwrap();
        assert!(
            *hottest > 200 / 12 * 2,
            "hottest key got {hottest}/200: no Zipf skew"
        );
        // Arrivals are open-loop and ordered; priorities span tiers.
        for win in a.windows(2) {
            assert!(win[1].req.arrival_s >= win[0].req.arrival_s);
        }
        assert!(a.iter().any(|r| r.priority == 0) && a.iter().any(|r| r.priority > 0));
        assert!(a
            .iter()
            .any(|r| matches!(r.req.payload, crate::serve::ServePayload::Decompress { .. })));
    }

    #[test]
    fn invalid_cluster_inputs_are_loud() {
        let node = ServeNode::v100_pcie(1);
        let reqs = [creq(0, 0.0, "f", 1)];
        let opts = ClusterOptions::default();
        assert!(serve_cluster(&ServeCluster::new(0, 1, node.clone()), &opts, &reqs).is_err());
        assert!(serve_cluster(&ServeCluster::new(2, 3, node.clone()), &opts, &reqs).is_err());
        assert!(serve_cluster(&ServeCluster::new(2, 0, node.clone()), &opts, &reqs).is_err());
        let spec = ServeCluster::new(2, 1, node);
        let bad_hb = ClusterOptions { heartbeat_s: 0.0, ..Default::default() };
        assert!(serve_cluster(&spec, &bad_hb, &reqs).is_err());
        let bad_cap = ClusterOptions { backoff_cap_s: 1e-9, ..Default::default() };
        assert!(serve_cluster(&spec, &bad_cap, &reqs).is_err());
        let empty_key = [ClusterRequest { key: String::new(), ..reqs[0].clone() }];
        assert!(serve_cluster(&spec, &ClusterOptions::default(), &empty_key).is_err());
        assert!(cluster_workload(&ClusterWorkloadSpec { fields: 0, ..Default::default() })
            .is_err());
        assert!(cluster_workload(&ClusterWorkloadSpec {
            zipf_s: f64::NAN,
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn metrics_and_trace_carry_cluster_telemetry() {
        let spec = small_cluster(4, 2);
        let reqs: Vec<ClusterRequest> =
            (0..12).map(|i| creq(i, 1e-4 * i as f64, &format!("f{}", i % 5), 1)).collect();
        let opts = ClusterOptions { chaos: kill(2, 6e-4), ..Default::default() };
        let r = serve_cluster(&spec, &opts, &reqs).unwrap();
        assert_eq!(r.metrics.gauge("cluster.nodes"), Some(4.0));
        assert_eq!(r.metrics.gauge("cluster.replication"), Some(2.0));
        let lat = r.latency().expect("latency histogram");
        assert_eq!(lat.count as usize, r.completed);
        assert!(lat.p99 >= lat.p50);
        assert!(r.node_util.len() == 8, "2 devices x 4 nodes");
        assert!(r.node_util.iter().any(|(_, u)| *u > 0.0));
        // The chaos window is visible in the trace on the router process.
        assert!(r
            .trace
            .iter()
            .any(|e| e.process == "cluster" && e.track == "chaos.n2" && e.name == "crash"));
        // Device slices carry per-node labels.
        assert!(r.trace.iter().any(|e| e.process.starts_with("n0-gpu")));
    }
}

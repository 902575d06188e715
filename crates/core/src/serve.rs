//! foresight-serve: a batched multi-device compression scheduler.
//!
//! The paper's §V-C projection (six V100s per Summit node push snapshot
//! compression under 0.3% of a timestep) is a closed-form formula in
//! the `summit_projection` bench bin. This module earns the same number
//! the hard way: it *serves* a stream of concurrent
//! compression/decompression requests through per-device queues, so
//! throughput comes from scheduling decisions — batching, sharding, and
//! transfer/kernel overlap — rather than from multiplying one GPU's
//! figure by six.
//!
//! The flow:
//!
//! 1. **Admission** — requests arrive on an open-loop simulated clock.
//!    The queue is bounded ([`ServeOptions::queue_depth`] outstanding
//!    units); past the limit a request is *rejected with a retry-after
//!    hint*, never silently dropped.
//! 2. **Batching** — admitted requests in the same
//!    [`ServeOptions::window_s`] window are grouped by (codec,
//!    error-bound config) and dispatched as batches of at most
//!    [`ServeOptions::max_batch`] units on a warm device pool: buffer
//!    init is charged once per device at first use (and freed once at
//!    shutdown), where the serial reference pays init/free on every
//!    request, as a one-shot CLI submission would.
//! 3. **Sharding** — a field larger than [`ServeOptions::shard_bytes`]
//!    splits into contiguous plane-aligned shards that spread round-robin
//!    across every device of the node. The shard plan depends only on
//!    the request and the options — never on device count or load — so
//!    serial and batched execution produce byte-identical streams.
//! 4. **Execution** — each device is a [`GpuQueueSim`]: three engine
//!    lanes (H2D, kernel, D2H) with independent busy-until times, so the
//!    upload of batch *n+1* overlaps the kernel of batch *n*. The real
//!    codec bytes are computed on the host; the simulated clock decides
//!    *when* they are ready.
//! 5. **Resilience** — a seeded [`FaultPlan`] per device may kill a
//!    launch; the unit fails over to the next device and, with every
//!    device faulting, to the CPU path ([`ExecPath::CpuFallback`]).
//!    Requests are never lost, and because outputs are host-computed
//!    they stay bit-identical under any fault schedule.
//!
//! Everything is deterministic under a fixed seed: same workload + same
//! options ⇒ identical responses, metrics, and slice-for-slice identical
//! traces (see `tests/prop_serve.rs`).

use crate::cbench::ExecPath;
use crate::codec::{self, CodecConfig, CodecKind, Shape};
use crate::gpu_backend::kernels;
use crate::obs::{self, ObsOptions, ObsRecorder, ObsTrace, TraceContext};
use foresight_util::telemetry::{
    self, HistogramSummary, Metrics, MetricsRegistry, WindowSeries,
};
use foresight_util::{Error, Result};
use gpu_sim::{
    kernel_time, FaultKind, FaultPlan, FaultRates, GpuQueueSim, GpuSpec, KernelKind, PcieLink,
    UnitTiming,
};
use foresight_store::{Region, StoreReader};
use rand::{rngs::StdRng, Rng, SeedableRng};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Multi-shard compressed stream container magic (version 1).
const CONTAINER_MAGIC: &[u8; 4] = b"FSH1";

/// Deterministic jitter in `[0, 1)` keyed by `(seed, a, b)` — one
/// splitmix64 step over a mixed seed. Used to de-synchronize retry
/// hints (and cluster backoff) without any shared PRNG state: the value
/// depends only on its key, so same-seed runs stay identical while
/// distinct requests (or attempts) get distinct jitter.
pub(crate) fn jitter01(seed: u64, a: u64, b: u64) -> f64 {
    let mut state = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

// ---------------------------------------------------------------------------
// Node / options / requests
// ---------------------------------------------------------------------------

/// The simulated device group a scheduler serves on.
#[derive(Debug, Clone)]
pub struct ServeNode {
    /// Device count.
    pub devices: usize,
    /// The device model (all devices identical, as on Summit).
    pub gpu: GpuSpec,
    /// Host link per device (each GPU gets its own link).
    pub link: PcieLink,
}

impl ServeNode {
    /// A Summit-like serving node: six NVLink-attached Tesla V100s. Note
    /// the link: `summit_projection`'s closed form only ships the
    /// *compressed* stream across the host link (in-situ data is born on
    /// the device),
    /// while serving uploads the full uncompressed field — over plain
    /// PCIe that upload alone would exceed the paper's 0.3% budget, so
    /// the worked §V-C reproduction uses the interconnect Summit actually
    /// has.
    pub fn summit() -> Self {
        Self { devices: 6, gpu: GpuSpec::tesla_v100(), link: PcieLink::nvlink2() }
    }

    /// `devices` PCIe-attached V100s (the conservative default).
    pub fn v100_pcie(devices: usize) -> Self {
        Self { devices, gpu: GpuSpec::tesla_v100(), link: PcieLink::gen3_x16() }
    }
}

/// Scheduler tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Max units per dispatched batch (default 8).
    pub max_batch: usize,
    /// Max outstanding units — queued plus dispatched-but-incomplete —
    /// before admission rejects (default 64).
    pub queue_depth: usize,
    /// Fields above this many bytes shard across devices (default
    /// 256 KiB; shards are whole planes of the slowest dimension).
    pub shard_bytes: u64,
    /// Batching window on the simulated clock (default 1 ms).
    pub window_s: f64,
    /// Fault-plan seed (default 0).
    pub seed: u64,
    /// Device fault rates (default all-zero: quiet).
    pub rates: FaultRates,
    /// Host-codec throughput used when every device failed a unit
    /// (default 2 GB/s — the paper's per-node CPU SZ figure).
    pub cpu_fallback_gbs: f64,
    /// Request-scoped tracing + windowed series (default `None`: off —
    /// nothing is recorded and the report carries an empty
    /// [`ObsTrace`]). Scheduling and bytes are identical either way.
    /// Under [`crate::cluster::serve_cluster`] this same switch turns on
    /// the cluster-level recorder.
    pub obs: Option<ObsOptions>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            max_batch: 8,
            queue_depth: 64,
            shard_bytes: 256 * 1024,
            window_s: 1e-3,
            seed: 0,
            rates: FaultRates::default(),
            cpu_fallback_gbs: 2.0,
            obs: None,
        }
    }
}

/// What a request asks for.
#[derive(Debug, Clone)]
pub enum ServePayload {
    /// Compress `data` of `shape` with `config`.
    Compress {
        /// Field values.
        data: Vec<f32>,
        /// Field shape (x fastest).
        shape: Shape,
        /// Codec + error bound.
        config: CodecConfig,
    },
    /// Decompress a stream previously produced by this layer (raw codec
    /// stream or shard container).
    Decompress {
        /// The compressed bytes.
        stream: Vec<u8>,
    },
    /// Read a subvolume of an archived field, decoding only the chunks
    /// that intersect the region. The response bytes are the region's
    /// values as little-endian f32, x fastest.
    StoreRead {
        /// Shared handle on the sealed archive.
        store: Arc<StoreReader>,
        /// Snapshot (timestep) id.
        snapshot: u32,
        /// Field name.
        field: String,
        /// Requested subvolume.
        region: Region,
    },
}

/// One client request.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// Caller-chosen id (responses keep it).
    pub id: u64,
    /// Arrival time on the simulated clock, seconds.
    pub arrival_s: f64,
    /// Absolute completion deadline, if any.
    pub deadline_s: Option<f64>,
    /// The work.
    pub payload: ServePayload,
}

/// Terminal state of a request (JobStatus-style).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServeStatus {
    /// Completed in time; `output` holds the bytes.
    Done,
    /// Bounded queue was full at arrival; retry after the hint. The
    /// request was never executed — rejected, not dropped.
    Rejected {
        /// Seconds after arrival when queue space is expected.
        retry_after_s: f64,
    },
    /// Executed, but finished past its deadline; reported as a failure
    /// without poisoning the rest of its batch.
    DeadlineMissed,
}

impl ServeStatus {
    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            ServeStatus::Done => "ok",
            ServeStatus::Rejected { .. } => "rejected",
            ServeStatus::DeadlineMissed => "deadline-missed",
        }
    }

    /// True only for [`ServeStatus::Done`].
    pub fn succeeded(&self) -> bool {
        matches!(self, ServeStatus::Done)
    }
}

/// Scheduler answer for one request.
#[derive(Debug, Clone)]
pub struct ServeResponse {
    /// Request id.
    pub id: u64,
    /// Terminal state.
    pub status: ServeStatus,
    /// Compressed stream (compress) or little-endian f32 bytes
    /// (decompress); `None` unless `Done`.
    pub output: Option<Vec<u8>>,
    /// Execution path (worst across the request's units).
    pub exec: ExecPath,
    /// Devices that ran units, `+`-joined (e.g. `"serve-gpu0+serve-gpu2"`).
    pub device: String,
    /// Batch index the request rode in.
    pub batch: Option<usize>,
    /// Completion time on the simulated clock (arrival time if rejected).
    pub completed_s: f64,
    /// `completed_s - arrival_s` (0 if rejected).
    pub latency_s: f64,
}

/// One occupied interval on a device/CPU lane, for trace comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Chrome-trace process (device label or `serve-cpu`).
    pub process: String,
    /// Lane (`h2d`/`kernel`/`d2h`/`init`/`free`/`fault`/`cpu`).
    pub track: String,
    /// Unit or batch label.
    pub name: String,
    /// Simulated start, seconds.
    pub start_s: f64,
    /// Simulated duration, seconds.
    pub dur_s: f64,
}

/// Everything a serve run produced.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Responses in (arrival, id) order.
    pub responses: Vec<ServeResponse>,
    /// Batches dispatched.
    pub batches: usize,
    /// Last completion on the simulated clock.
    pub makespan_s: f64,
    /// Uncompressed GB moved for executed requests, per makespan second.
    pub sustained_gbs: f64,
    /// Uncompressed bytes of executed (Done or missed-deadline) requests.
    pub executed_bytes: u64,
    /// Requests bounced by backpressure.
    pub rejected: usize,
    /// Requests that finished past their deadline.
    pub missed: usize,
    /// Unit-level device fail-overs.
    pub failovers: u64,
    /// Units that exhausted every device and ran on the CPU path.
    pub cpu_fallbacks: u64,
    /// Per-device compute-lane utilization over the makespan.
    pub device_util: Vec<(String, f64)>,
    /// Queue-depth gauges, batch-size and latency histograms.
    pub metrics: Metrics,
    /// Deterministic slice timeline (device order, then enqueue order).
    pub trace: Vec<TraceEvent>,
    /// Request-scoped spans (empty unless [`ServeOptions::obs`] is set).
    pub obs: ObsTrace,
    /// Windowed series (`None` unless [`ServeOptions::obs`] is set).
    pub series: Option<WindowSeries>,
}

impl ServeReport {
    /// The request-latency histogram (p50/p95/p99), if any request
    /// completed.
    pub fn latency(&self) -> Option<HistogramSummary> {
        self.metrics.histogram("serve.latency_s").map(|h| h.summary())
    }

    /// Response by request id.
    pub fn response(&self, id: u64) -> Option<&ServeResponse> {
        self.responses.iter().find(|r| r.id == id)
    }
}

// ---------------------------------------------------------------------------
// Shard planning and the stream container
// ---------------------------------------------------------------------------

/// Splits `shape` into contiguous sub-shapes of at most ~`shard_bytes`
/// (whole planes of the slowest dimension), returning `(value_offset,
/// sub_shape)` pairs. A fit-in-one field returns itself. The plan is a
/// pure function of shape and threshold — scheduling never changes it,
/// which is what keeps batched output bytes identical to serial.
pub fn shard_plan(shape: Shape, shard_bytes: u64) -> Vec<(usize, Shape)> {
    let total_bytes = shape.len() as u64 * 4;
    if shape.is_empty() || total_bytes <= shard_bytes.max(4) {
        return vec![(0, shape)];
    }
    let want = total_bytes.div_ceil(shard_bytes.max(4)) as usize;
    // Planes of the slowest used axis; a shard keeps the faster extents.
    let mut ext = shape.extents();
    let axis = shape.ndim() as usize - 1;
    let planes = ext[axis];
    let plane_values: usize = ext[..axis].iter().product();
    let shards = want.min(planes);
    let per = planes.div_ceil(shards);
    let mut out = Vec::new();
    let mut plane = 0usize;
    while plane < planes {
        let take = per.min(planes - plane);
        ext[axis] = take;
        out.push((plane * plane_values, shape.with_extents(ext)));
        plane += take;
    }
    out
}

/// Wraps shard streams into the `FSH1` container. Callers pass 2+
/// shards; a single shard stays a raw codec stream.
pub(crate) fn wrap_shards(shards: &[Vec<u8>]) -> Vec<u8> {
    debug_assert!(shards.len() >= 2);
    let payload: usize = shards.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(8 + 4 * shards.len() + payload);
    out.extend_from_slice(CONTAINER_MAGIC);
    out.extend_from_slice(&(shards.len() as u32).to_le_bytes());
    for s in shards {
        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    }
    for s in shards {
        out.extend_from_slice(s);
    }
    out
}

/// Byte ranges of each shard inside a container, or `None` for raw codec
/// streams.
fn split_container(stream: &[u8]) -> Result<Option<Vec<(usize, usize)>>> {
    if stream.len() < 8 || &stream[..4] != CONTAINER_MAGIC {
        return Ok(None);
    }
    let count = u32::from_le_bytes([stream[4], stream[5], stream[6], stream[7]]) as usize;
    let header = 8 + 4 * count;
    if count == 0 || stream.len() < header {
        return Err(Error::corrupt("truncated shard container header"));
    }
    let mut ranges = Vec::with_capacity(count);
    let mut at = header;
    // `chunks_exact` walks the length table without computed indexing:
    // the slice is exactly `4 * count` bytes (checked above).
    for w in stream[8..header].chunks_exact(4) {
        let len = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) as usize;
        if at + len > stream.len() {
            return Err(Error::corrupt("shard container overruns stream"));
        }
        ranges.push((at, at + len));
        at += len;
    }
    if at != stream.len() {
        return Err(Error::corrupt("trailing bytes after shard container"));
    }
    Ok(Some(ranges))
}

// ---------------------------------------------------------------------------
// Phase A: host codec execution per unit
// ---------------------------------------------------------------------------

/// One schedulable unit of work with its host-computed result.
pub(crate) struct Unit {
    /// Result bytes: compressed shard stream, or decoded f32 LE bytes.
    pub(crate) out: Vec<u8>,
    pub(crate) n_values: u64,
    /// H2D payload.
    pub(crate) in_bytes: u64,
    /// D2H payload.
    pub(crate) out_bytes: u64,
    pub(crate) bits_per_value: f64,
    pub(crate) kind: KernelKind,
    /// Store-read accounting (zero for compress/decompress units):
    /// chunks decoded, uncompressed bytes materialized, bytes returned.
    pub(crate) store_chunks: u64,
    pub(crate) store_touched: u64,
    pub(crate) store_returned: u64,
}

/// Validates a request and lists its unit slices (compress: value
/// ranges; decompress: byte ranges).
fn unit_slices(req: &ServeRequest, shard_bytes: u64) -> Result<Vec<(usize, usize, Shape)>> {
    match &req.payload {
        ServePayload::Compress { data, shape, .. } => {
            if data.is_empty() || data.len() != shape.len() {
                return Err(Error::invalid(format!(
                    "request {}: data length {} does not match shape ({} values)",
                    req.id,
                    data.len(),
                    shape.len()
                )));
            }
            Ok(shard_plan(*shape, shard_bytes)
                .into_iter()
                .map(|(off, sub)| (off, off + sub.len(), sub))
                .collect())
        }
        ServePayload::Decompress { stream } => {
            if stream.is_empty() {
                return Err(Error::invalid(format!("request {}: empty stream", req.id)));
            }
            match split_container(stream)? {
                // Shape::D1(0) is a placeholder; decompress units learn
                // their true shape from the shard stream itself.
                Some(ranges) => {
                    Ok(ranges.into_iter().map(|(a, b)| (a, b, Shape::D1(0))).collect())
                }
                None => Ok(vec![(0, stream.len(), Shape::D1(0))]),
            }
        }
        ServePayload::StoreRead { store, snapshot, field, region } => {
            // Validate up front so planning errors surface before any
            // unit executes; a region read is one schedulable unit.
            let entry = store.find(*snapshot, field).ok_or_else(|| {
                Error::invalid(format!(
                    "request {}: no field snapshot={snapshot} name={field:?} in the archive",
                    req.id
                ))
            })?;
            region.validate_in(entry.shape())?;
            Ok(vec![(0, 0, Shape::D1(0))])
        }
    }
}

/// Runs the host codec for one unit.
fn run_unit(req: &ServeRequest, slice: &(usize, usize, Shape)) -> Result<Unit> {
    let &(start, end, sub) = slice;
    match &req.payload {
        ServePayload::Compress { data, config, .. } => {
            let stream = codec::compress(&data[start..end], sub, config)?;
            let n = sub.len() as u64;
            let out_bytes = stream.len() as u64;
            Ok(Unit {
                out: stream,
                n_values: n,
                in_bytes: n * 4,
                out_bytes,
                bits_per_value: out_bytes as f64 * 8.0 / n as f64,
                kind: kernels(config.id()).0,
                store_chunks: 0,
                store_touched: 0,
                store_returned: 0,
            })
        }
        ServePayload::Decompress { stream } => {
            let shard = &stream[start..end];
            let id = CodecKind::of_stream(shard)?;
            let (values, _) = id.decompress(shard)?;
            let n = values.len() as u64;
            let mut out = Vec::with_capacity(values.len() * 4);
            for v in &values {
                out.extend_from_slice(&v.to_le_bytes());
            }
            Ok(Unit {
                out,
                n_values: n,
                in_bytes: shard.len() as u64,
                out_bytes: n * 4,
                bits_per_value: shard.len() as f64 * 8.0 / n as f64,
                kind: kernels(id).1,
                store_chunks: 0,
                store_touched: 0,
                store_returned: 0,
            })
        }
        ServePayload::StoreRead { store, snapshot, field, region } => {
            // The model reads the cacheless plan, never the work this
            // call did: which reads hit the reader's chunk cache depends
            // on the host schedule, and the simulated clock must not.
            let plan = store.plan_region(*snapshot, field, *region)?;
            let (values, _) = store.read_region(*snapshot, field, *region)?;
            let mut out = Vec::with_capacity(values.len() * 4);
            for v in &values {
                out.extend_from_slice(&v.to_le_bytes());
            }
            let kind = kernels(store_codec(store, *snapshot, field)).1;
            // The simulated kernel pays for every value of every
            // intersecting chunk, not just the region returned — chunk
            // misalignment costs real work, and the device decoders run
            // whole streams — and the copy moves the whole fragments. So
            // the model's bytes touched are the whole chunks, where the
            // host reader's count only the layers it decoded (DESIGN §14.7).
            let n = chunk_values(store, *snapshot, field, region).max(1);
            Ok(Unit {
                out,
                n_values: n,
                in_bytes: plan.compressed_bytes_read,
                out_bytes: plan.bytes_returned,
                bits_per_value: plan.compressed_bytes_read as f64 * 8.0 / n as f64,
                kind,
                store_chunks: plan.chunks_intersected,
                store_touched: n * 4,
                store_returned: plan.bytes_returned,
            })
        }
    }
}

/// Host-executes every unit of every request (rayon over units; result
/// order is deterministic regardless of thread scheduling).
fn execute_units(
    requests: &[ServeRequest],
    shard_bytes: u64,
) -> Result<Vec<Vec<Unit>>> {
    let phase = telemetry::span("serve.execute_units");
    let phase_id = phase.id();
    let plans = requests
        .iter()
        .map(|r| unit_slices(r, shard_bytes))
        .collect::<Result<Vec<_>>>()?;
    let flat: Vec<(usize, (usize, usize, Shape))> = plans
        .iter()
        .enumerate()
        .flat_map(|(i, p)| p.iter().map(move |s| (i, *s)))
        .collect();
    let outs: Vec<Result<Unit>> = flat
        .par_iter()
        .map(|(i, slice)| {
            // Rayon workers have no thread-local span stack: an implicit
            // parent would silently re-root these under whatever that
            // worker ran last, so the parent is passed explicitly.
            let _unit = telemetry::span_with_parent("serve.unit", phase_id);
            run_unit(&requests[*i], slice)
        })
        .collect();
    telemetry::assert_span_parent("serve.unit", phase_id);
    let mut per_req: Vec<Vec<Unit>> = requests.iter().map(|_| Vec::new()).collect();
    for ((i, _), u) in flat.iter().zip(outs) {
        per_req[*i].push(u?);
    }
    Ok(per_req)
}

/// Assembles a request's response bytes from its unit outputs.
fn assemble_output(req: &ServeRequest, units: &[Unit]) -> Vec<u8> {
    match &req.payload {
        ServePayload::Compress { .. } => {
            if units.len() == 1 {
                units[0].out.clone()
            } else {
                let shards: Vec<Vec<u8>> = units.iter().map(|u| u.out.clone()).collect();
                wrap_shards(&shards)
            }
        }
        ServePayload::Decompress { .. } | ServePayload::StoreRead { .. } => {
            let mut out = Vec::with_capacity(units.iter().map(|u| u.out.len()).sum());
            for u in units {
                out.extend_from_slice(&u.out);
            }
            out
        }
    }
}

// ---------------------------------------------------------------------------
// Phase B: simulated-clock scheduling
// ---------------------------------------------------------------------------

/// One executed unit as [`ExecState::exec_unit`] reports it:
/// (completion time, path taken, device label, lane timing — `None`
/// when no device ran it).
pub(crate) type UnitExec = (f64, ExecPath, String, Option<UnitTiming>);

/// Per-node execution state: device queues, fault plans, CPU lane.
/// `Clone` lets the cluster router dispatch tentatively and commit only
/// when the target node survives to the completion time.
#[derive(Clone)]
pub(crate) struct ExecState {
    pub(crate) queues: Vec<GpuQueueSim>,
    plans: Vec<FaultPlan>,
    /// Warm-pool accounting on (batched scheduler) or off (serial
    /// reference, which pays init/free per request instead).
    warm_pool: bool,
    /// Devices whose buffer pool has been initialized (warm-pool model:
    /// the batched scheduler pays init once per device, at first use).
    inited: Vec<bool>,
    /// Trace-process prefix (`"serve"`, `"serial"`, or a cluster node
    /// label like `"n2"`).
    prefix: String,
    cpu_free_s: f64,
    cpu_gbs: f64,
    cpu_trace: Vec<TraceEvent>,
    failovers: u64,
    cpu_fallbacks: u64,
}

impl ExecState {
    pub(crate) fn new(node: &ServeNode, opts: &ServeOptions, prefix: &str, warm_pool: bool) -> Self {
        let master = FaultPlan::new(opts.seed, opts.rates);
        Self {
            queues: (0..node.devices)
                .map(|i| {
                    GpuQueueSim::new(node.gpu.clone(), node.link, format!("{prefix}-gpu{i}"))
                })
                .collect(),
            plans: (0..node.devices)
                .map(|i| master.fork(&format!("{prefix}/gpu{i}")))
                .collect(),
            warm_pool,
            inited: vec![false; node.devices],
            prefix: prefix.to_string(),
            cpu_free_s: 0.0,
            cpu_gbs: opts.cpu_fallback_gbs,
            cpu_trace: Vec::new(),
            failovers: 0,
            cpu_fallbacks: 0,
        }
    }

    /// Charges the one-time buffer-pool init on a device's first use.
    /// A long-running server allocates device memory once and reuses it
    /// across batches — per-batch `cudaMalloc` would dominate small
    /// batches and no serving system does that.
    fn ensure_warm(&mut self, d: usize, ready_s: f64) {
        if self.warm_pool && !self.inited[d] {
            self.inited[d] = true;
            self.queues[d].charge_init(ready_s, "warmup");
        }
    }

    /// Index of the device whose lanes drain first.
    pub(crate) fn least_loaded(&self) -> usize {
        let mut best = 0usize;
        for (i, q) in self.queues.iter().enumerate() {
            if q.ready_s() < self.queues[best].ready_s() {
                best = i;
            }
        }
        best
    }

    /// Runs one unit with fail-over: try `start_dev`, then every other
    /// device in ring order, then the CPU path.
    fn exec_unit(&mut self, start_dev: usize, ready_s: f64, u: &Unit, label: &str) -> UnitExec {
        let n = self.queues.len();
        let mut ready = ready_s;
        for attempt in 0..n {
            let d = (start_dev + attempt) % n;
            self.ensure_warm(d, ready);
            // Two draws per attempt, always, so the per-device fault
            // stream is independent of short-circuit order.
            let transfer_fault = self.plans[d].trip(FaultKind::Transfer);
            let kernel_fault = self.plans[d].trip(FaultKind::Kernel);
            let q = &mut self.queues[d];
            if transfer_fault || kernel_fault {
                let wasted = q.link.transfer_time(u.in_bytes)
                    + kernel_time(&q.spec, u.kind, u.n_values, u.bits_per_value);
                ready = q.charge_fault(ready, wasted, label);
                self.failovers += 1;
                telemetry::counter("serve.fault", 1);
                continue;
            }
            let t = q.enqueue_unit(
                ready,
                u.kind,
                u.n_values,
                u.bits_per_value,
                u.in_bytes,
                u.out_bytes,
                label,
            );
            let path = if attempt == 0 { ExecPath::Gpu } else { ExecPath::GpuRetried(attempt as u32) };
            return (t.done_s, path, q.label().to_string(), Some(t));
        }
        // Every device faulted this unit: host codec path. The bytes
        // already exist (host-computed), only the clock is charged.
        let start = ready.max(self.cpu_free_s);
        let dur = u.n_values as f64 * 4.0 / (self.cpu_gbs * 1e9);
        self.cpu_free_s = start + dur;
        self.cpu_fallbacks += 1;
        telemetry::counter("serve.cpu_fallback", 1);
        self.cpu_trace.push(TraceEvent {
            process: format!("{}-cpu", self.prefix),
            track: "cpu".into(),
            name: label.to_string(),
            start_s: start,
            dur_s: dur,
        });
        (self.cpu_free_s, ExecPath::CpuFallback, "cpu".into(), None)
    }

    /// Every device lane's slices in device then enqueue order, then the
    /// CPU lane's.
    fn collect_trace(&self) -> Vec<TraceEvent> {
        let lanes = self.queues.iter().flat_map(|q| {
            q.timeline().iter().map(|s| TraceEvent {
                process: q.label().to_string(),
                track: s.track.clone(),
                name: s.name.clone(),
                start_s: s.start_s,
                dur_s: s.dur_s,
            })
        });
        lanes.chain(self.cpu_trace.iter().cloned()).collect()
    }
}

/// Merges unit outcomes into a request-level (completion, path, device)
/// triple: the slowest unit completes the request, the worst path wins.
fn fold_units(outcomes: &[UnitExec]) -> (f64, ExecPath, String) {
    let done = outcomes.iter().fold(0.0f64, |m, o| m.max(o.0));
    let path = if outcomes.iter().any(|o| matches!(o.1, ExecPath::CpuFallback)) {
        ExecPath::CpuFallback
    } else {
        match device_retries(outcomes) {
            0 => ExecPath::Gpu,
            k => ExecPath::GpuRetried(k),
        }
    };
    let mut devices: Vec<&str> = Vec::new();
    for o in outcomes {
        if !devices.contains(&o.2.as_str()) {
            devices.push(&o.2);
        }
    }
    (done, path, devices.join("+"))
}

/// Device fail-overs across a request's units.
fn device_retries(outcomes: &[UnitExec]) -> u32 {
    outcomes
        .iter()
        .map(|o| match o.1 {
            ExecPath::GpuRetried(k) => k,
            _ => 0,
        })
        .sum()
}

/// Records the per-unit child spans of a dispatch: one `unit` span per
/// outcome, with `h2d`/`kernel`/`d2h` lane children anchored on the
/// device process when the unit ran on a GPU (so Chrome-trace flow
/// arrows land on the lane slices that actually ran it), or a CPU-lane
/// anchor when it fell back. No-op on a disabled recorder.
pub(crate) fn record_units(
    rec: &mut ObsRecorder,
    parent: TraceContext,
    outcomes: &[UnitExec],
    cpu_process: &str,
) {
    if !rec.enabled() {
        return;
    }
    for (k, o) in outcomes.iter().enumerate() {
        let path = match o.1 {
            ExecPath::Cpu | ExecPath::CpuFallback => "cpu".to_string(),
            ExecPath::Gpu => "gpu".to_string(),
            ExecPath::GpuRetried(n) => format!("gpu+retry{n}"),
        };
        let start = o.3.map_or(o.0, |t| t.h2d_start_s);
        let unit = rec.child(
            parent,
            "unit",
            start,
            (o.0 - start).max(0.0),
            vec![
                ("unit".into(), k.to_string()),
                ("device".into(), o.2.clone()),
                ("path".into(), path),
            ],
        );
        match o.3 {
            Some(t) => {
                rec.child(unit, "h2d", t.h2d_start_s, (t.kernel_start_s - t.h2d_start_s).max(0.0), vec![]);
                rec.anchor_last(&o.2, "h2d");
                rec.child(unit, "kernel", t.kernel_start_s, (t.d2h_start_s - t.kernel_start_s).max(0.0), vec![]);
                rec.anchor_last(&o.2, "kernel");
                rec.child(unit, "d2h", t.d2h_start_s, (t.done_s - t.d2h_start_s).max(0.0), vec![]);
                rec.anchor_last(&o.2, "d2h");
            }
            None => rec.anchor_last(cpu_process, "cpu"),
        }
    }
}

pub(crate) fn validate(
    node: &ServeNode,
    opts: &ServeOptions,
    requests: &[ServeRequest],
) -> Result<()> {
    if node.devices == 0 {
        return Err(Error::invalid("serve node needs at least one device"));
    }
    if opts.max_batch == 0 || opts.queue_depth == 0 {
        return Err(Error::invalid("max_batch and queue_depth must be >= 1"));
    }
    if !(opts.window_s > 0.0 && opts.window_s.is_finite()) {
        return Err(Error::invalid("window_s must be positive"));
    }
    if opts.cpu_fallback_gbs.is_nan() || opts.cpu_fallback_gbs <= 0.0 {
        return Err(Error::invalid("cpu_fallback_gbs must be positive"));
    }
    opts.rates.validate().map_err(|e| Error::invalid(format!("serve fault rates: {e}")))?;
    for r in requests {
        if !(r.arrival_s >= 0.0 && r.arrival_s.is_finite()) {
            return Err(Error::invalid(format!("request {}: bad arrival time", r.id)));
        }
        if let Some(d) = r.deadline_s {
            if d <= r.arrival_s {
                return Err(Error::invalid(format!(
                    "request {}: deadline {d} not after arrival {}",
                    r.id, r.arrival_s
                )));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The scheduler core
// ---------------------------------------------------------------------------

/// Whose report a [`Run`] assembles.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Scope {
    /// One node (`serve`, `serve_serial`): metrics under `serve.*`;
    /// queue depth is mirrored process-wide, store reads, device
    /// fail-overs and CPU fallbacks are counted, and utilization is
    /// windowed per device.
    Node,
    /// The cluster router: metrics under `cluster.*`; the router counts
    /// fail-overs per request itself, and utilization is windowed per
    /// node.
    Cluster,
}

impl ServeResponse {
    /// A request shed at admission: never executed, answered with a hint.
    fn shed(req: &ServeRequest, retry_after_s: f64) -> Self {
        Self {
            id: req.id,
            status: ServeStatus::Rejected { retry_after_s },
            output: None,
            exec: ExecPath::Gpu,
            device: String::new(),
            batch: None,
            completed_s: req.arrival_s,
            latency_s: 0.0,
        }
    }
}

/// What a policy adds when [`Run::admit`] sheds a request.
#[derive(Default)]
pub(crate) struct ShedNote<'s> {
    /// Admission-span attributes, ahead of the outstanding count.
    pub(crate) attrs: Vec<(String, String)>,
    /// Shed-span attributes, after the retry hint.
    pub(crate) shed_attrs: Vec<(String, String)>,
    /// Counters bumped once per shed: in the run's registry, the
    /// process-wide collector and the series.
    pub(crate) counters: &'s [&'s str],
}

/// One scheduler run, from Phase A to its report. It owns what every
/// entry point carries — the units, metrics, spans and series, the
/// dispatched units' completion times, one response slot per request,
/// and the counts — and its methods are the mechanics they share:
/// [`Run::windows`], [`Run::admit`], [`Run::run_units`],
/// [`Run::complete`] and [`Run::finish`]. What stays in `serve`,
/// `serve_serial` and `serve_cluster` is policy.
pub(crate) struct Run<'a, R> {
    pub(crate) requests: &'a [ServeRequest],
    /// Phase-A units, per request.
    pub(crate) units: Vec<Vec<Unit>>,
    pub(crate) reg: MetricsRegistry,
    pub(crate) rec: ObsRecorder,
    pub(crate) series: Option<WindowSeries>,
    /// Every slot is `Some` once the windows drain.
    pub(crate) responses: Vec<Option<R>>,
    /// Completion time of every dispatched unit.
    completions: Vec<f64>,
    scope: Scope,
    prefix: &'static str,
    window_s: f64,
    seed: u64,
    rejected: usize,
    missed: usize,
    executed_bytes: u64,
    depth_max: usize,
    /// Latest completion or shed arrival.
    last_s: f64,
}

impl<'a, R: From<ServeResponse>> Run<'a, R> {
    /// Runs Phase A — the host codecs compute every byte before any
    /// scheduling, which is what keeps outputs independent of batching,
    /// placement and fail-over — and opens an empty ledger.
    pub(crate) fn new(scope: Scope, opts: &ServeOptions, requests: &'a [ServeRequest]) -> Result<Self> {
        let units = execute_units(requests, opts.shard_bytes)?;
        let prefix = if scope == Scope::Node { "serve" } else { "cluster" };
        let reg = MetricsRegistry::new();
        reg.counter(&format!("{prefix}.requests"), requests.len() as u64);
        Ok(Self {
            requests,
            units,
            reg,
            rec: ObsRecorder::new(opts.obs.is_some()),
            series: opts.obs.map(|o| WindowSeries::new(o.series_width_s, o.series_retention)),
            responses: requests.iter().map(|_| None).collect(),
            completions: Vec::new(),
            scope,
            prefix,
            window_s: opts.window_s,
            seed: opts.seed,
            rejected: 0,
            missed: 0,
            executed_bytes: 0,
            depth_max: 0,
            last_s: 0.0,
        })
    }

    /// Request indexes in (arrival, id) order.
    fn order(&self) -> Vec<usize> {
        let r = self.requests;
        let mut order: Vec<usize> = (0..r.len()).collect();
        order.sort_by(|&a, &b| r[a].arrival_s.total_cmp(&r[b].arrival_s).then(r[a].id.cmp(&r[b].id)));
        order
    }

    /// The (arrival, id) order cut into batching windows: each window's
    /// dispatch tick (its end) and its members.
    pub(crate) fn windows(&self) -> Vec<(f64, Vec<usize>)> {
        let w = self.window_s;
        let window = |ri: &usize| (self.requests[*ri].arrival_s / w).floor();
        let order = self.order();
        let cut = order.chunk_by(|a, b| window(a) == window(b));
        cut.map(|members| ((window(&members[0]) + 1.0) * w, members.to_vec())).collect()
    }

    /// Admits request `ri` at its window's `dispatch_s` when its units
    /// fit in `capacity` beside the outstanding ones — dispatched units
    /// unfinished at its arrival, plus the `queued` units admitted
    /// earlier in the window, which an admission grows. The queue depth
    /// is sampled either way. A request that does not fit is shed: a
    /// retry hint, a rejected response, an admission → shed span pair
    /// and a series sample, plus what `note` adds.
    pub(crate) fn admit(
        &mut self,
        ri: usize,
        dispatch_s: f64,
        capacity: usize,
        queued: &mut usize,
        note: ShedNote<'_>,
    ) -> bool {
        let requests = self.requests;
        let req = &requests[ri];
        let n_units = self.units[ri].len();
        let outstanding = self.completions.iter().filter(|&&c| c > req.arrival_s).count() + *queued;
        let depth = format!("{}.queue_depth", self.prefix);
        self.depth_max = self.depth_max.max(outstanding);
        self.reg.observe(&depth, outstanding as f64);
        if self.scope == Scope::Node {
            telemetry::observe(&depth, outstanding as f64);
        }
        if let Some(s) = self.series.as_mut() {
            s.observe(req.arrival_s, &depth, outstanding as f64);
        }
        if outstanding + n_units <= capacity {
            *queued += n_units;
            return true;
        }
        // Backpressure: reject with a hint, never drop. The hint is when
        // the earliest outstanding unit drains (or the next window if the
        // pressure is all queued work), plus up to one window of
        // per-request deterministic jitter — identical hints would
        // re-synchronize every rejected client into a thundering herd at
        // the same instant.
        let retry_after_s = self
            .completions
            .iter()
            .filter(|&&c| c > req.arrival_s)
            .fold(f64::INFINITY, |m, &c| m.min(c))
            .min(dispatch_s + self.window_s)
            - req.arrival_s
            + jitter01(self.seed, req.id, 0) * self.window_s;
        self.rejected += 1;
        self.last_s = self.last_s.max(req.arrival_s);
        self.reg.counter(&format!("{}.rejected", self.prefix), 1);
        for &c in note.counters {
            self.reg.counter(c, 1);
            telemetry::counter(c, 1);
        }
        if let Some(s) = self.series.as_mut() {
            s.incr(req.arrival_s, &format!("{}.shed", self.prefix), 1);
            for &c in note.counters {
                s.incr(req.arrival_s, c, 1);
            }
        }
        if self.rec.enabled() {
            let mut attrs = note.attrs;
            attrs.push(("outstanding".into(), outstanding.to_string()));
            let wait = (dispatch_s - req.arrival_s).max(0.0);
            let root = self.rec.mint(req.id, "admission", req.arrival_s, wait, attrs);
            let mut attrs = vec![("retry_after_s".into(), format!("{retry_after_s:.9}"))];
            attrs.extend(note.shed_attrs);
            self.rec.child(root, "shed", req.arrival_s, 0.0, attrs);
        }
        self.responses[ri] = Some(ServeResponse::shed(req, retry_after_s).into());
        false
    }

    /// Runs request `ri`'s units on `state` from time `t` with fail-over:
    /// unit `k` starts on the `k mod lanes`-th device after `start_dev`,
    /// one lane per unit up to every device.
    pub(crate) fn run_units(
        &self,
        state: &mut ExecState,
        ri: usize,
        start_dev: usize,
        t: f64,
    ) -> Vec<UnitExec> {
        let units = &self.units[ri];
        let devices = state.queues.len();
        let lanes = devices.min(units.len()).max(1);
        let mut outcomes = Vec::with_capacity(units.len());
        for (k, u) in units.iter().enumerate() {
            let label = format!("r{}.{k}", self.requests[ri].id);
            outcomes.push(state.exec_unit((start_dev + k % lanes) % devices, t, u, &label));
        }
        outcomes
    }

    /// Completes executed request `ri` from its unit outcomes: the
    /// slowest unit finishes it and the worst path wins. Its units count
    /// as outstanding until they finish; latency and executed bytes are
    /// recorded, the deadline decides `Done` or `DeadlineMissed`, and
    /// the series samples the completion. Returns the response, `batch`
    /// unset, for the caller to store.
    pub(crate) fn complete(&mut self, ri: usize, outcomes: &[UnitExec]) -> ServeResponse {
        let requests = self.requests;
        let req = &requests[ri];
        let units = &self.units[ri];
        let (done, exec, device) = fold_units(outcomes);
        self.completions.extend(outcomes.iter().map(|o| o.0));
        self.last_s = self.last_s.max(done);
        let latency_s = done - req.arrival_s;
        let latency = format!("{}.latency_s", self.prefix);
        self.reg.observe(&latency, latency_s);
        telemetry::observe(&latency, latency_s);
        self.executed_bytes += units.iter().map(|u| u.n_values * 4).sum::<u64>();
        let store_chunks: u64 = units.iter().map(|u| u.store_chunks).sum();
        if self.scope == Scope::Node && store_chunks > 0 {
            self.reg.counter("store.chunks_decoded", store_chunks);
            self.reg.counter("store.bytes_touched", units.iter().map(|u| u.store_touched).sum());
            self.reg.counter("store.bytes_returned", units.iter().map(|u| u.store_returned).sum());
        }
        let in_time = req.deadline_s.is_none_or(|d| done <= d);
        if !in_time {
            self.missed += 1;
            self.reg.counter(&format!("{}.deadline_missed", self.prefix), 1);
        }
        if let Some(s) = self.series.as_mut() {
            s.observe(done, &latency, latency_s);
            s.incr(done, &format!("{}.completed", self.prefix), 1);
            let faults = device_retries(outcomes);
            if faults > 0 {
                s.incr(done, &format!("{}.fault", self.prefix), u64::from(faults));
            }
            let cpu = outcomes.iter().filter(|o| matches!(o.1, ExecPath::CpuFallback)).count();
            if self.scope == Scope::Node && cpu > 0 {
                s.incr(done, "serve.cpu_fallback", cpu as u64);
            }
            if !in_time {
                s.incr(done, &format!("{}.deadline_missed", self.prefix), 1);
            }
        }
        ServeResponse {
            id: req.id,
            status: if in_time { ServeStatus::Done } else { ServeStatus::DeadlineMissed },
            output: in_time.then(|| assemble_output(req, units)),
            exec,
            device,
            batch: None,
            completed_s: done,
            latency_s,
        }
    }

    /// Closes the run over the node states that served it: warm-pool
    /// shutdown, makespan, utilization gauges and windows, the trace
    /// (every state's device lanes, then its CPU lane) and its
    /// process-wide replay. Returns the responses in (arrival, id) order
    /// and the node-level report around them — `responses` empty and
    /// `batches` 0 — for the entry point to fill in or re-label.
    pub(crate) fn finish(mut self, states: &mut [ExecState]) -> (Vec<R>, ServeReport) {
        // Warm-pool shutdown: release each used device's buffer pool once.
        for st in states.iter_mut() {
            for (q, &inited) in st.queues.iter_mut().zip(&st.inited) {
                if inited {
                    q.charge_free("shutdown");
                }
            }
        }
        let makespan_s = states.iter().fold(self.last_s, |m, s| m.max(s.cpu_free_s));
        let sustained_gbs =
            if makespan_s > 0.0 { self.executed_bytes as f64 / 1e9 / makespan_s } else { 0.0 };
        let mut device_util = Vec::new();
        for q in states.iter().flat_map(|s| &s.queues) {
            let u = q.utilization(makespan_s);
            self.reg.gauge(&format!("{}.util.{}", self.prefix, q.label()), u);
            device_util.push((q.label().to_string(), u));
        }
        if let Some(s) = self.series.as_mut() {
            for st in states.iter() {
                match self.scope {
                    Scope::Node => {
                        for q in &st.queues {
                            let name = format!("serve.util.{}", q.label());
                            busy_windows(s, &name, std::slice::from_ref(q));
                        }
                    }
                    Scope::Cluster => {
                        busy_windows(s, &format!("cluster.util.{}", st.prefix), &st.queues)
                    }
                }
            }
        }
        self.reg.gauge(&format!("{}.makespan_s", self.prefix), makespan_s);
        self.reg.gauge(&format!("{}.sustained_gbs", self.prefix), sustained_gbs);
        // Store-backed reads: bytes the chunk decoders materialized per
        // byte actually returned (1.0 = perfectly chunk-aligned regions).
        let store_returned = self.reg.counter_value("store.bytes_returned");
        if store_returned > 0 {
            let touched = self.reg.counter_value("store.bytes_touched");
            self.reg.gauge("store.read_amplification", touched as f64 / store_returned as f64);
        }
        let failovers = states.iter().map(|s| s.failovers).sum();
        let cpu_fallbacks = states.iter().map(|s| s.cpu_fallbacks).sum();
        if self.scope == Scope::Node {
            self.reg.counter("serve.failover", failovers);
            self.reg.counter("serve.cpu_fallback", cpu_fallbacks);
        }
        let trace: Vec<TraceEvent> = states.iter().flat_map(|s| s.collect_trace()).collect();
        replay(&trace);
        // Release builds must not panic while assembling a report, so the
        // every-slot-filled invariant is checked in debug builds only.
        let order = self.order();
        let responses: Vec<R> = order.iter().filter_map(|&i| self.responses[i].take()).collect();
        debug_assert_eq!(responses.len(), order.len(), "every request resolved");
        let report = ServeReport {
            responses: Vec::new(),
            batches: 0,
            makespan_s,
            sustained_gbs,
            executed_bytes: self.executed_bytes,
            rejected: self.rejected,
            missed: self.missed,
            failovers,
            cpu_fallbacks,
            device_util,
            metrics: self.reg.snapshot(),
            trace,
            obs: self.rec.into_trace(),
            series: self.series,
        };
        (responses, report)
    }
}

/// Replays trace slices into the process-wide collector, in order.
pub(crate) fn replay(trace: &[TraceEvent]) {
    if telemetry::is_enabled() {
        for e in trace {
            telemetry::sim_slice(&e.process, &e.track, &e.name, e.start_s, e.dur_s);
        }
    }
}

/// Windows the kernel-lane busy time of `queues` into gauge `name`, as a
/// share of their combined capacity.
fn busy_windows(series: &mut WindowSeries, name: &str, queues: &[GpuQueueSim]) {
    let busy: Vec<(f64, f64)> = queues
        .iter()
        .flat_map(|q| q.timeline())
        .filter(|t| t.track == "kernel")
        .map(|t| (t.start_s, t.dur_s))
        .collect();
    obs::utilization_windows(series, name, &busy, queues.len() as f64);
}

// ---------------------------------------------------------------------------
// The node schedulers
// ---------------------------------------------------------------------------

/// Serves `requests` on the node with batching, sharding, backpressure,
/// deadlines, and fault fail-over. See the module docs for the model.
pub fn serve(node: &ServeNode, opts: &ServeOptions, requests: &[ServeRequest]) -> Result<ServeReport> {
    validate(node, opts, requests)?;
    let mut run = Run::new(Scope::Node, opts, requests)?;
    run.reg.gauge("serve.devices", node.devices as f64);
    run.reg.gauge("serve.queue_depth.limit", opts.queue_depth as f64);
    let mut state = ExecState::new(node, opts, "serve", true);
    let mut batches = 0usize;
    for (dispatch_s, members) in run.windows() {
        // Admitted requests grouped by (codec, error bound).
        let mut round: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut queued = 0usize;
        for ri in members {
            if run.admit(ri, dispatch_s, opts.queue_depth, &mut queued, ShedNote::default()) {
                round.entry(batch_key(&requests[ri])).or_default().push(ri);
            }
        }
        // Per key, oversized requests shard across every device; the
        // rest batch up to max_batch on the least-loaded device.
        for members in round.into_values() {
            let (sharded, singles): (Vec<usize>, Vec<usize>) =
                members.into_iter().partition(|&ri| run.units[ri].len() > 1);
            let batches_of = sharded.chunks(1).chain(singles.chunks(opts.max_batch));
            for batch in batches_of {
                let start = state.least_loaded();
                dispatch_batch(&mut run, &mut state, batch, start, dispatch_s, batches);
                batches += 1;
            }
        }
    }
    run.reg.gauge("serve.queue_depth.max", run.depth_max as f64);
    run.reg.counter("serve.batches", batches as u64);
    let (responses, report) = run.finish(std::slice::from_mut(&mut state));
    Ok(ServeReport { responses, batches, ..report })
}

/// Runs batch number `batch` — `members` from device `start_dev` at
/// `dispatch_s` — and completes each member with its admission →
/// dispatch → unit spans.
fn dispatch_batch(
    run: &mut Run<'_, ServeResponse>,
    state: &mut ExecState,
    members: &[usize],
    start_dev: usize,
    dispatch_s: f64,
    batch: usize,
) {
    let units: usize = members.iter().map(|&ri| run.units[ri].len()).sum();
    run.reg.observe("serve.batch_units", units as f64);
    for &ri in members {
        let outcomes = run.run_units(state, ri, start_dev, dispatch_s);
        let resp = ServeResponse { batch: Some(batch), ..run.complete(ri, &outcomes) };
        if run.rec.enabled() {
            let arrival = resp.completed_s - resp.latency_s;
            let wait = (dispatch_s - arrival).max(0.0);
            let root = run.rec.mint(resp.id, "admission", arrival, wait, vec![]);
            let dispatch = run.rec.child(
                root,
                "dispatch",
                dispatch_s,
                (resp.completed_s - dispatch_s).max(0.0),
                vec![
                    ("batch".into(), batch.to_string()),
                    ("units".into(), outcomes.len().to_string()),
                ],
            );
            record_units(&mut run.rec, dispatch, &outcomes, "serve-cpu");
        }
        run.responses[ri] = Some(resp);
    }
}

/// The codec of an archived field; requests were validated against the
/// directory before they run, so the fallback is never taken.
fn store_codec(store: &StoreReader, snapshot: u32, field: &str) -> CodecKind {
    store.find(snapshot, field).map_or(CodecKind::Sz, |e| e.codec)
}

/// Values in the chunks of `(snapshot, field)` that `region` intersects.
fn chunk_values(store: &StoreReader, snapshot: u32, field: &str, region: &Region) -> u64 {
    store.find(snapshot, field).map_or(0, |e| {
        let grid = e.grid;
        grid.intersecting(region).into_iter().map(|i| grid.chunk_shape_at(i).len() as u64).sum()
    })
}

/// Requests batch together when they run the same codec at the same
/// error bound; decompressions and store reads batch by codec family
/// (the stream knows its own bound).
fn batch_key(req: &ServeRequest) -> String {
    match &req.payload {
        ServePayload::Compress { config, .. } => config.label(),
        ServePayload::Decompress { stream } if stream.starts_with(CONTAINER_MAGIC) => {
            "decompress sharded".into()
        }
        ServePayload::Decompress { stream } => {
            let id = CodecKind::of_stream(stream).unwrap_or(CodecKind::Zfp);
            format!("decompress {}", id.display())
        }
        ServePayload::StoreRead { store, snapshot, field, .. } => {
            format!("store-read {}", store_codec(store, *snapshot, field).display())
        }
    }
}

/// The reference scheduler: one device, strict FIFO, one request at a
/// time, per-request init/free, a lane barrier after every unit (no
/// transfer/kernel overlap), no fault injection and no obs recording.
/// Its outputs define bit-identity for [`serve`] and
/// [`crate::cluster::serve_cluster`]; its makespan defines the speedup
/// denominator for `serve-bench`.
pub fn serve_serial(node: &ServeNode, opts: &ServeOptions, requests: &[ServeRequest]) -> Result<ServeReport> {
    validate(node, opts, requests)?;
    let quiet = ServeOptions { rates: FaultRates::default(), obs: None, ..opts.clone() };
    let mut run = Run::new(Scope::Node, &quiet, requests)?;
    run.reg.gauge("serve.devices", 1.0);
    let serial_node = ServeNode { devices: 1, gpu: node.gpu.clone(), link: node.link };
    let mut state = ExecState::new(&serial_node, &quiet, "serial", false);
    let order = run.order();
    for (bi, &ri) in order.iter().enumerate() {
        let blabel = format!("b{bi}");
        let ready = requests[ri].arrival_s.max(state.queues[0].ready_s());
        state.queues[0].charge_init(ready, &blabel);
        let mut outcomes = Vec::with_capacity(run.units[ri].len());
        for (k, u) in run.units[ri].iter().enumerate() {
            let label = format!("r{}.{k}", requests[ri].id);
            outcomes.push(state.exec_unit(0, state.queues[0].ready_s(), u, &label));
            state.queues[0].barrier();
        }
        state.queues[0].charge_free(&blabel);
        run.reg.observe("serve.batch_units", run.units[ri].len() as f64);
        run.responses[ri] = Some(ServeResponse { batch: Some(bi), ..run.complete(ri, &outcomes) });
    }
    run.reg.gauge("serve.queue_depth.max", 1.0);
    run.reg.counter("serve.batches", order.len() as u64);
    let (responses, report) = run.finish(std::slice::from_mut(&mut state));
    Ok(ServeReport { responses, batches: order.len(), ..report })
}

// ---------------------------------------------------------------------------
// Synthetic open-loop workload
// ---------------------------------------------------------------------------

/// Parameters of the seeded open-loop generator.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Requests to emit.
    pub requests: usize,
    /// RNG seed (field content, sizes, configs, arrivals).
    pub seed: u64,
    /// Mean arrival rate (Poisson inter-arrivals), requests/second.
    pub arrival_hz: f64,
    /// Per-request relative deadline, if any.
    pub deadline_s: Option<f64>,
    /// Fraction of requests that are decompressions (default 0.25).
    pub decompress_fraction: f64,
    /// Every `big_every`-th request is an oversized field that shards
    /// (0 disables).
    pub big_every: usize,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        Self {
            requests: 48,
            seed: 0,
            arrival_hz: 4000.0,
            deadline_s: None,
            decompress_fraction: 0.25,
            big_every: 8,
        }
    }
}

/// Smooth-plus-noise field used by the generator (cosmology-shaped
/// enough for the codecs to behave normally).
pub(crate) fn synth_field(n: usize, seed_phase: f64, rng: &mut StdRng) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let x = i as f64 * 0.013 + seed_phase;
            let base = (x.sin() + (0.37 * x).cos() * 0.5) * 40.0;
            let noise: f64 = rng.gen::<f64>() - 0.5;
            (base + noise) as f32
        })
        .collect()
}

/// Field shapes both synthetic workloads draw from.
pub(crate) const WORKLOAD_SHAPES: [Shape; 4] =
    [Shape::D3(16, 16, 16), Shape::D3(32, 32, 16), Shape::D3(32, 32, 32), Shape::D1(8192)];

/// Codec configurations both synthetic workloads draw from.
pub(crate) fn workload_configs() -> [CodecConfig; 4] {
    [
        CodecConfig::Sz(lossy_sz::SzConfig::abs(1e-3)),
        CodecConfig::Sz(lossy_sz::SzConfig::abs(1e-2)),
        CodecConfig::Zfp(lossy_zfp::ZfpConfig::rate(4.0)),
        CodecConfig::Zfp(lossy_zfp::ZfpConfig::rate(8.0)),
    ]
}

/// The stream [`serve`] answers a compression of `data` with under
/// default options: one raw codec stream, or its shards in a container.
pub(crate) fn served_stream(data: &[f32], shape: Shape, config: &CodecConfig) -> Result<Vec<u8>> {
    let mut shards = shard_plan(shape, ServeOptions::default().shard_bytes)
        .into_iter()
        .map(|(off, sub)| codec::compress(&data[off..off + sub.len()], sub, config))
        .collect::<Result<Vec<_>>>()?;
    Ok(if shards.len() == 1 { shards.swap_remove(0) } else { wrap_shards(&shards) })
}

/// Generates a deterministic open-loop request stream.
pub fn synth_workload(spec: &WorkloadSpec) -> Result<Vec<ServeRequest>> {
    if !(spec.arrival_hz > 0.0 && spec.arrival_hz.is_finite()) {
        return Err(Error::invalid("arrival_hz must be positive"));
    }
    if !(0.0..=1.0).contains(&spec.decompress_fraction) {
        return Err(Error::invalid("decompress_fraction must be in [0, 1]"));
    }
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let (shapes, configs) = (WORKLOAD_SHAPES, workload_configs());
    let big = Shape::D3(64, 64, 64);
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity(spec.requests);
    for id in 0..spec.requests {
        let u: f64 = rng.gen();
        t += (-(1.0 - u).ln()).max(0.0) / spec.arrival_hz;
        let shape = if spec.big_every > 0 && id % spec.big_every.max(1) == spec.big_every - 1 {
            big
        } else {
            shapes[(rng.gen_range(0..shapes.len() as u64)) as usize]
        };
        let config = configs[(rng.gen_range(0..configs.len() as u64)) as usize].clone();
        let phase = rng.gen::<f64>() * std::f64::consts::TAU;
        let data = synth_field(shape.len(), phase, &mut rng);
        let payload = if rng.gen::<f64>() < spec.decompress_fraction {
            // Decompress request: the stream a previous compression of
            // this field would have produced.
            ServePayload::Decompress { stream: served_stream(&data, shape, &config)? }
        } else {
            ServePayload::Compress { data, shape, config }
        };
        out.push(ServeRequest {
            id: id as u64,
            arrival_s: t,
            deadline_s: spec.deadline_s.map(|d| t + d),
            payload,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compress_req(id: u64, arrival_s: f64, n_side: usize, rate: f64) -> ServeRequest {
        let shape = Shape::D3(n_side, n_side, n_side);
        let data: Vec<f32> =
            (0..shape.len()).map(|i| (i as f32 * 0.01).sin() * 50.0).collect();
        ServeRequest {
            id,
            arrival_s,
            deadline_s: None,
            payload: ServePayload::Compress {
                data,
                shape,
                config: CodecConfig::Zfp(lossy_zfp::ZfpConfig::rate(rate)),
            },
        }
    }

    #[test]
    fn shard_plan_covers_exactly_once() {
        for shape in [Shape::D1(10_000), Shape::D2(64, 100), Shape::D3(16, 16, 64)] {
            let plan = shard_plan(shape, 4096);
            let total: usize = plan.iter().map(|(_, s)| s.len()).sum();
            assert_eq!(total, shape.len(), "{shape:?}");
            let mut at = 0usize;
            for (off, sub) in &plan {
                assert_eq!(*off, at, "{shape:?} shards must be contiguous");
                at += sub.len();
            }
            assert!(plan.len() > 1, "{shape:?} should shard at 4 KiB");
        }
        // Odd shapes still cover exactly once with a tiny threshold.
        let odd = shard_plan(Shape::D3(7, 5, 3), 100);
        assert_eq!(odd.iter().map(|(_, s)| s.len()).sum::<usize>(), 105);
        assert_eq!(odd.len(), 3, "capped at plane count of the slowest dim");
        // Small fields stay whole.
        assert_eq!(shard_plan(Shape::D3(8, 8, 8), 1 << 20).len(), 1);
    }

    #[test]
    fn container_roundtrips_and_rejects_corruption() {
        let shards = vec![vec![1u8; 10], vec![2u8; 3], vec![3u8; 7]];
        let wrapped = wrap_shards(&shards);
        let ranges = split_container(&wrapped).unwrap().unwrap();
        assert_eq!(ranges.len(), 3);
        for (r, s) in ranges.iter().zip(&shards) {
            assert_eq!(&wrapped[r.0..r.1], s.as_slice());
        }
        // Raw codec streams pass through as None.
        assert!(split_container(b"ZFPRxxxx").unwrap().is_none());
        // Truncation is loud.
        assert!(split_container(&wrapped[..wrapped.len() - 2]).is_err());
    }

    #[test]
    fn empty_workload_serves_cleanly() {
        let node = ServeNode::v100_pcie(2);
        let r = serve(&node, &ServeOptions::default(), &[]).unwrap();
        assert!(r.responses.is_empty());
        assert_eq!(r.batches, 0);
        assert_eq!(r.makespan_s, 0.0);
    }

    #[test]
    fn single_request_roundtrips_through_the_scheduler() {
        let node = ServeNode::v100_pcie(2);
        let req = compress_req(7, 0.0, 16, 8.0);
        let ServePayload::Compress { data, shape, config } = req.payload.clone() else {
            unreachable!()
        };
        let r = serve(&node, &ServeOptions::default(), &[req]).unwrap();
        assert_eq!(r.responses.len(), 1);
        let resp = &r.responses[0];
        assert_eq!(resp.id, 7);
        assert!(resp.status.succeeded());
        let direct = codec::compress(&data, shape, &config).unwrap();
        assert_eq!(resp.output.as_ref().unwrap(), &direct);
        assert!(resp.latency_s > 0.0);
        assert_eq!(r.executed_bytes, shape.len() as u64 * 4);
    }

    #[test]
    fn oversized_field_shards_across_devices() {
        let node = ServeNode::v100_pcie(4);
        let opts = ServeOptions { shard_bytes: 64 * 1024, ..Default::default() };
        let req = compress_req(0, 0.0, 64, 4.0); // 1 MiB -> 16 shards
        let r = serve(&node, &opts, &[req]).unwrap();
        let resp = &r.responses[0];
        assert!(resp.status.succeeded());
        assert!(resp.device.contains('+'), "sharded across devices: {}", resp.device);
        let out = resp.output.as_ref().unwrap();
        assert_eq!(&out[..4], CONTAINER_MAGIC);
        // And the container decompresses back through the scheduler.
        let dec = ServeRequest {
            id: 1,
            arrival_s: 0.0,
            deadline_s: None,
            payload: ServePayload::Decompress { stream: out.clone() },
        };
        let r2 = serve(&node, &opts, &[dec]).unwrap();
        let bytes = r2.responses[0].output.as_ref().unwrap();
        assert_eq!(bytes.len(), 64 * 64 * 64 * 4);
    }

    #[test]
    fn batching_amortizes_init_and_groups_by_config() {
        let node = ServeNode::v100_pcie(1);
        let opts = ServeOptions { max_batch: 8, ..Default::default() };
        // Six same-config requests in one window -> one batch; the
        // different config -> its own batch.
        let mut reqs: Vec<ServeRequest> =
            (0..6).map(|i| compress_req(i, 1e-5 * i as f64, 16, 4.0)).collect();
        reqs.push(compress_req(6, 1e-5 * 7.0, 16, 8.0));
        let r = serve(&node, &opts, &reqs).unwrap();
        assert_eq!(r.batches, 2);
        // Warm pool: the single device is initialized exactly once and
        // freed exactly once, no matter how many batches ran.
        let inits = r.trace.iter().filter(|e| e.track == "init").count();
        let frees = r.trace.iter().filter(|e| e.track == "free").count();
        assert_eq!((inits, frees), (1, 1), "one warm-up + one shutdown");
        // Serial pays one init (and free) per request.
        let s = serve_serial(&node, &opts, &reqs).unwrap();
        let serial_inits = s.trace.iter().filter(|e| e.track == "init").count();
        assert_eq!(serial_inits, 7);
    }

    #[test]
    fn backpressure_rejects_with_retry_hint() {
        let node = ServeNode::v100_pcie(1);
        let opts = ServeOptions { queue_depth: 2, ..Default::default() };
        let reqs: Vec<ServeRequest> =
            (0..5).map(|i| compress_req(i, 1e-6 * i as f64, 16, 4.0)).collect();
        let r = serve(&node, &opts, &reqs).unwrap();
        assert!(r.rejected >= 2, "rejected {}", r.rejected);
        for resp in &r.responses {
            if let ServeStatus::Rejected { retry_after_s } = resp.status {
                assert!(retry_after_s > 0.0 && retry_after_s.is_finite());
                assert!(resp.output.is_none());
            }
        }
        // Rejected + served == total: nothing dropped.
        assert_eq!(r.responses.len(), 5);
    }

    #[test]
    fn rejects_in_the_same_window_get_jittered_retry_hints() {
        // Sustained saturation: everything arrives at t=0 against a
        // depth-2 queue, so multiple requests reject in the same window.
        // Pre-jitter they all got the identical retry_after_s — every
        // client would retry at the same instant (thundering herd).
        let node = ServeNode::v100_pcie(1);
        let opts = ServeOptions { queue_depth: 2, ..Default::default() };
        let reqs: Vec<ServeRequest> = (0..8).map(|i| compress_req(i, 0.0, 16, 4.0)).collect();
        let r = serve(&node, &opts, &reqs).unwrap();
        let hints: Vec<f64> = r
            .responses
            .iter()
            .filter_map(|resp| match resp.status {
                ServeStatus::Rejected { retry_after_s } => Some(retry_after_s),
                _ => None,
            })
            .collect();
        assert!(hints.len() >= 3, "need several same-window rejects, got {}", hints.len());
        for (i, a) in hints.iter().enumerate() {
            assert!(a.is_finite() && *a > 0.0);
            for b in &hints[i + 1..] {
                assert!(
                    (a - b).abs() > 1e-12,
                    "two rejects share retry_after_s = {a}: herd re-synchronized"
                );
            }
        }
        // Jitter is bounded (at most one extra window) and deterministic.
        let base: f64 = hints.iter().cloned().fold(f64::INFINITY, f64::min);
        for h in &hints {
            assert!(h - base < opts.window_s, "jitter must stay within one window");
        }
        let r2 = serve(&node, &opts, &reqs).unwrap();
        let hints2: Vec<f64> = r2
            .responses
            .iter()
            .filter_map(|resp| match resp.status {
                ServeStatus::Rejected { retry_after_s } => Some(retry_after_s),
                _ => None,
            })
            .collect();
        assert_eq!(hints, hints2, "same seed, same hints");
    }

    #[test]
    fn cpu_fallback_still_charges_fault_phase_and_counters() {
        // Every device faults every kernel: each unit must charge a
        // `fault` slice on every device it tried before landing on the
        // CPU path — a CPU fallback with zero recorded faults would mean
        // the failure was silently absorbed.
        let node = ServeNode::v100_pcie(2);
        let opts = ServeOptions {
            rates: FaultRates { kernel: 1.0, ..Default::default() },
            seed: 5,
            ..Default::default()
        };
        let reqs: Vec<ServeRequest> =
            (0..3).map(|i| compress_req(i, 1e-5 * i as f64, 16, 4.0)).collect();
        let r = serve(&node, &opts, &reqs).unwrap();
        assert_eq!(r.cpu_fallbacks, 3);
        assert_eq!(r.failovers, 6, "3 units x 2 devices all faulted");
        // The fault phase is charged on the device timelines.
        for (label, _) in &r.device_util {
            let charged: f64 = r
                .trace
                .iter()
                .filter(|e| &e.process == label && e.track == "fault")
                .map(|e| e.dur_s)
                .sum();
            assert!(charged > 0.0, "{label} recorded no fault time");
        }
        let faults = r.trace.iter().filter(|e| e.track == "fault").count();
        assert_eq!(faults as u64, r.failovers);
        // The process-global counters are checked in
        // `tests/telemetry_pipeline.rs`, whose tests serialize on one lock:
        // enabling the collector here would race every sibling test's
        // span-parentage assertions.
        assert_eq!(r.metrics.counter("serve.failover"), 6);
        assert_eq!(r.metrics.counter("serve.cpu_fallback"), 3);
    }

    #[test]
    fn all_devices_faulting_falls_back_to_cpu_without_losing_requests() {
        let node = ServeNode::v100_pcie(2);
        let opts = ServeOptions {
            rates: FaultRates { kernel: 1.0, ..Default::default() },
            seed: 9,
            ..Default::default()
        };
        let reqs: Vec<ServeRequest> =
            (0..3).map(|i| compress_req(i, 1e-5 * i as f64, 16, 4.0)).collect();
        let r = serve(&node, &opts, &reqs).unwrap();
        assert_eq!(r.cpu_fallbacks, 3);
        let quiet = serve(&node, &ServeOptions::default(), &reqs).unwrap();
        for (a, b) in r.responses.iter().zip(&quiet.responses) {
            assert!(a.status.succeeded() && b.status.succeeded());
            assert_eq!(a.output, b.output, "faults must not change bytes");
            assert_eq!(a.exec, ExecPath::CpuFallback);
        }
        assert!(r.failovers >= 3);
    }

    #[test]
    fn moderate_faults_fail_over_to_other_devices() {
        let node = ServeNode::v100_pcie(3);
        let opts = ServeOptions {
            rates: FaultRates { kernel: 0.4, ..Default::default() },
            seed: 3,
            ..Default::default()
        };
        let reqs: Vec<ServeRequest> =
            (0..12).map(|i| compress_req(i, 1e-5 * i as f64, 16, 4.0)).collect();
        let r = serve(&node, &opts, &reqs).unwrap();
        assert!(r.failovers > 0);
        assert!(r.responses.iter().all(|x| x.status.succeeded()));
        // Deterministic: same seed, same trace.
        let r2 = serve(&node, &opts, &reqs).unwrap();
        assert_eq!(r.trace, r2.trace);
        assert_eq!(r.failovers, r2.failovers);
    }

    #[test]
    fn workload_generator_is_deterministic_and_open_loop() {
        let spec = WorkloadSpec { requests: 20, seed: 42, ..Default::default() };
        let a = synth_workload(&spec).unwrap();
        let b = synth_workload(&spec).unwrap();
        assert_eq!(a.len(), 20);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival_s, y.arrival_s);
            assert_eq!(x.id, y.id);
        }
        // Arrivals strictly ordered and spread out.
        for w in a.windows(2) {
            assert!(w[1].arrival_s >= w[0].arrival_s);
        }
        assert!(a.last().unwrap().arrival_s > 0.0);
        // Mix of payloads.
        assert!(a.iter().any(|r| matches!(r.payload, ServePayload::Decompress { .. })));
        assert!(a.iter().any(|r| matches!(r.payload, ServePayload::Compress { .. })));
    }

    #[test]
    fn invalid_inputs_are_loud() {
        let node = ServeNode::v100_pcie(1);
        let opts = ServeOptions::default();
        // Shape/data mismatch.
        let bad = ServeRequest {
            id: 0,
            arrival_s: 0.0,
            deadline_s: None,
            payload: ServePayload::Compress {
                data: vec![1.0; 10],
                shape: Shape::D3(4, 4, 4),
                config: CodecConfig::Zfp(lossy_zfp::ZfpConfig::rate(4.0)),
            },
        };
        assert!(serve(&node, &opts, &[bad]).is_err());
        // Deadline before arrival.
        let mut r = compress_req(0, 1.0, 16, 4.0);
        r.deadline_s = Some(0.5);
        assert!(serve(&node, &opts, &[r]).is_err());
        // Zero devices.
        let none = ServeNode { devices: 0, ..ServeNode::v100_pcie(1) };
        assert!(serve(&none, &opts, &[]).is_err());
    }

    #[test]
    fn metrics_carry_latency_quantiles_and_depth() {
        let node = ServeNode::v100_pcie(2);
        let reqs: Vec<ServeRequest> =
            (0..10).map(|i| compress_req(i, 1e-5 * i as f64, 16, 4.0)).collect();
        let r = serve(&node, &ServeOptions::default(), &reqs).unwrap();
        let lat = r.latency().expect("latency histogram");
        assert_eq!(lat.count, 10);
        assert!(lat.p99 >= lat.p50);
        assert!(r.metrics.gauge("serve.queue_depth.max").is_some());
        assert_eq!(r.metrics.counter("serve.requests"), 10);
        assert!(r.device_util.iter().any(|(_, u)| *u > 0.0));
    }
}

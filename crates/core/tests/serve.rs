//! Acceptance tests for the serving scheduler.
//!
//! Two claims are pinned here:
//!
//! 1. Batched multi-device serving sustains at least twice the simulated
//!    throughput of the serial single-device reference on the same
//!    workload, while producing bit-identical outputs.
//! 2. The paper's §V-C headline — compressing a node's share of a 20480^3
//!    snapshot costs well under 0.3% of a 10 s timestep — reproduces
//!    *through the scheduler* (DESIGN.md §10 walks the same numbers),
//!    not just through `ClusterSim`'s closed form.
//!
//! The overhead test uses marginal differencing: the sim is
//! deterministic, so serving W and then W plus ΔW and dividing Δbytes by
//! Δmakespan cancels the one-time warm-up and batching-window costs
//! exactly, leaving the steady-state sustained rate.
//!
//! The scheduler pins at the end hash the whole `Debug` rendering of a
//! report (every map in it is a `BTreeMap`, and `f64` `Debug` round-trips),
//! so any change to a response, metric, span, series sample or trace
//! slice moves them.

use foresight::codec::{CodecConfig, Shape};
use foresight::{
    serve, serve_serial, synth_workload, ObsOptions, ServeNode, ServeOptions, ServePayload,
    ServeRequest, WorkloadSpec,
};
use foresight_util::sha256::sha256_hex;
use gpu_sim::FaultRates;
use lossy_zfp::ZfpConfig;

/// Paper §V-A scale: a 2.5 TB snapshot split over 1024 Summit nodes
/// (the same scenario `ClusterSim::summit_1024` prices in closed form).
const PER_NODE_BYTES: f64 = 2.5e12 / 1024.0;
/// Nyx timestep wall time the paper budgets against.
const TIMESTEP_S: f64 = 10.0;

#[test]
fn batched_multi_device_doubles_serial_sustained_throughput() {
    let node = ServeNode::summit();
    // Depth raised so the acceptance workload is fully admitted: the
    // speedup claim is about scheduling, not about shedding load.
    let opts = ServeOptions { queue_depth: 256, ..Default::default() };
    let requests =
        synth_workload(&WorkloadSpec { seed: 11, ..Default::default() }).unwrap();
    let serial = serve_serial(&node, &opts, &requests).unwrap();
    let batched = serve(&node, &opts, &requests).unwrap();
    assert_eq!(batched.rejected, 0, "raised depth must admit the whole workload");
    assert_eq!(batched.responses.len(), requests.len());

    let speedup = batched.sustained_gbs / serial.sustained_gbs;
    assert!(
        speedup >= 2.0,
        "batched {:.2} GB/s vs serial {:.2} GB/s: speedup {speedup:.2} < 2.0",
        batched.sustained_gbs,
        serial.sustained_gbs
    );

    // Scheduling must never change bytes: every response bit-identical
    // to the serial reference.
    for r in &batched.responses {
        assert!(r.status.succeeded(), "request {} not served: {:?}", r.id, r.status);
        let s = serial.response(r.id).expect("serial served every request");
        assert_eq!(r.output, s.output, "request {} diverged from serial bytes", r.id);
    }

    // The report carries the latency quantiles the bench table prints.
    let lat = batched.latency().expect("latency histogram present");
    assert!(lat.count as usize == requests.len());
    assert!(lat.p50 <= lat.p95 && lat.p95 <= lat.p99);
}

/// One 4 MiB field that shards into six device-sized units on Summit.
fn summit_request(id: u64) -> ServeRequest {
    let shape = Shape::D3(64, 64, 256);
    let data: Vec<f32> = (0..shape.len())
        .map(|i| {
            // Cheap deterministic ramp + wiggle; content only affects the
            // host codec, never the simulated clock.
            let x = (i % 251) as f32 * 0.13;
            (i as f32 * 1e-4) + x * x * 0.02
        })
        .collect();
    ServeRequest {
        id,
        arrival_s: 0.0,
        deadline_s: None,
        payload: ServePayload::Compress {
            data,
            shape,
            config: CodecConfig::Zfp(ZfpConfig::rate(4.0)),
        },
    }
}

#[test]
fn summit_snapshot_overhead_stays_under_paper_budget_through_the_scheduler() {
    let node = ServeNode::summit();
    let shape_bytes = (64 * 64 * 256 * 4) as u64;
    let opts = ServeOptions {
        // Shard each 4 MiB field into exactly six units, one per V100.
        shard_bytes: shape_bytes.div_ceil(node.devices as u64),
        queue_depth: 1024,
        window_s: 1e-4,
        ..Default::default()
    };

    let w1: Vec<ServeRequest> = vec![summit_request(0)];
    let w2: Vec<ServeRequest> = vec![summit_request(0), summit_request(1)];
    let r1 = serve(&node, &opts, &w1).unwrap();
    let r2 = serve(&node, &opts, &w2).unwrap();
    assert_eq!(r1.rejected + r2.rejected, 0);
    assert!(r2.responses.iter().all(|r| r.status.succeeded()));

    // Every device took part: the field really fanned out across the node.
    assert_eq!(r2.batches, 2);
    for (label, util) in &r2.device_util {
        assert!(*util > 0.0, "device {label} idle during the sharded run");
    }

    // Marginal differencing: warm-up (one init per device) and the
    // batching-window delay are identical in both runs and cancel.
    let delta_bytes = (r2.executed_bytes - r1.executed_bytes) as f64;
    let delta_s = r2.makespan_s - r1.makespan_s;
    assert!(delta_s > 0.0, "second request must extend the makespan");
    let marginal_gbs = delta_bytes / 1e9 / delta_s;
    // Sanity: below the 6x NVLink2 aggregate (420 GB/s), above the
    // regime where fixed per-transfer latencies would dominate.
    assert!(
        marginal_gbs > 150.0 && marginal_gbs < 420.0,
        "marginal rate {marginal_gbs:.1} GB/s outside the NVLink-bound regime"
    );

    // Paper §V-C: per-node share of a 20480^3 snapshot, against a 10 s
    // timestep. DESIGN.md §10 reproduces these exact numbers.
    let overhead = PER_NODE_BYTES / (marginal_gbs * 1e9) / TIMESTEP_S;
    assert!(
        overhead < 0.003,
        "overhead {:.4}% of a timestep exceeds the paper's 0.3% budget \
         (marginal rate {marginal_gbs:.1} GB/s)",
        overhead * 100.0
    );
}

/// The queues really overlap: while one unit's kernel runs, the next
/// unit's H2D transfer is in flight on the same device. (The first
/// request only triggers the warm-up — allocation blocks kernels but
/// not copies, so overlap is visible on batches dispatched after the
/// pool exists.)
#[test]
fn h2d_of_next_unit_overlaps_kernel_of_previous() {
    use lossy_sz::SzConfig;
    let node = ServeNode::v100_pcie(1);
    let opts = ServeOptions { window_s: 1e-4, ..Default::default() };
    let shape = Shape::D3(16, 16, 16);
    let mk = |id: u64, arrival_s: f64| ServeRequest {
        id,
        arrival_s,
        deadline_s: None,
        payload: ServePayload::Compress {
            data: (0..shape.len()).map(|i| (i % 31) as f32).collect(),
            shape,
            config: CodecConfig::Sz(SzConfig::abs(1e-3)),
        },
    };
    // Request 0 warms the device; 1 and 2 share a later batch whose
    // second upload rides under the first kernel.
    let report = serve(&node, &opts, &[mk(0, 0.0), mk(1, 1.5e-3), mk(2, 1.5e-3)]).unwrap();
    let overlaps = report.trace.iter().any(|k| {
        k.track == "kernel"
            && report.trace.iter().any(|h| {
                h.process == k.process
                    && h.track == "h2d"
                    && h.name != k.name
                    && h.start_s < k.start_s + k.dur_s
                    && k.start_s < h.start_s + h.dur_s
            })
    });
    assert!(overlaps, "no h2d/kernel overlap found in the device timeline");
}

/// The simulated clock prices a `StoreRead` from the reader's cacheless
/// plan, never from the work the host did: the same requests served
/// against one shared reader cold, then warm (every chunk a cache hit),
/// and against a fresh reader give the same bytes, makespan, completion
/// times and `store.*` accounting.
#[test]
fn store_reads_cost_the_same_on_cold_warm_and_fresh_readers() {
    use foresight::{ChunkCodec, FieldShape, Region, StoreReader, StoreWriter};
    use std::sync::Arc;

    let shape = FieldShape::d3(24, 24, 24);
    let data: Vec<f32> = (0..shape.len()).map(|i| (i as f32 * 0.011).sin() * 9.0).collect();
    let mut w = StoreWriter::new();
    w.add_field(0, "sz", &data, shape, [8, 8, 8], &ChunkCodec::sz_abs(1e-3)).unwrap();
    w.add_field(0, "zfp", &data, shape, [8, 8, 8], &ChunkCodec::zfp_rate(8.0)).unwrap();
    let archive = w.finish().unwrap();

    // Overlapping and repeated regions: unaligned cubes, a plane, a
    // single chunk and a full field, over both codecs.
    let regions = [
        Region::new([3, 3, 3], [13, 13, 13]).unwrap(),
        Region::new([0, 0, 11], [24, 24, 12]).unwrap(),
        Region::new([8, 8, 8], [16, 16, 16]).unwrap(),
        Region::new([5, 0, 2], [20, 9, 10]).unwrap(),
        Region::full(shape),
    ];
    let requests = |store: &Arc<StoreReader>| -> Vec<ServeRequest> {
        (0..20u64)
            .map(|id| ServeRequest {
                id,
                arrival_s: id as f64 * 2e-4,
                deadline_s: None,
                payload: ServePayload::StoreRead {
                    store: Arc::clone(store),
                    snapshot: 0,
                    field: if id % 2 == 0 { "sz".into() } else { "zfp".into() },
                    region: regions[(id as usize / 2) % regions.len()],
                },
            })
            .collect()
    };
    let node = ServeNode::v100_pcie(2);
    let opts = ServeOptions { queue_depth: 64, ..Default::default() };

    let shared = Arc::new(StoreReader::from_bytes(archive.clone()).unwrap());
    let cold = serve(&node, &opts, &requests(&shared)).unwrap();
    let warm = serve(&node, &opts, &requests(&shared)).unwrap();
    let (_, stats) = shared.read_region(0, "zfp", regions[0]).unwrap();
    assert_eq!(stats.chunks_decoded, 0, "the second pass ran against a warm cache");
    let fresh_reader = Arc::new(StoreReader::from_bytes(archive).unwrap());
    let fresh = serve(&node, &opts, &requests(&fresh_reader)).unwrap();
    let serial_warm = serve_serial(&node, &opts, &requests(&shared)).unwrap();
    let serial_fresh = serve_serial(&node, &opts, &requests(&fresh_reader)).unwrap();
    assert_eq!(serial_warm.makespan_s.to_bits(), serial_fresh.makespan_s.to_bits());

    let store_metrics = |r: &foresight::ServeReport| {
        let counters: Vec<_> =
            r.metrics.counters.iter().filter(|(k, _)| k.starts_with("store.")).map(|(k, v)| (k.clone(), *v)).collect();
        let gauges: Vec<_> = r
            .metrics
            .gauges
            .iter()
            .filter(|(k, _)| k.starts_with("store."))
            .map(|(k, v)| (k.clone(), v.to_bits()))
            .collect();
        (counters, gauges)
    };
    assert_eq!(cold.rejected, 0);
    assert!(cold.metrics.counter("store.chunks_decoded") > 0);
    for (label, other) in [("warm", &warm), ("fresh", &fresh)] {
        assert_eq!(cold.makespan_s.to_bits(), other.makespan_s.to_bits(), "{label} makespan");
        assert_eq!(store_metrics(&cold), store_metrics(other), "{label} store.* accounting");
        assert_eq!(cold.responses.len(), other.responses.len());
        for (a, b) in cold.responses.iter().zip(&other.responses) {
            assert_eq!((a.id, &a.output, &a.status), (b.id, &b.output, &b.status), "{label}");
            assert!(a.output.is_some(), "request {} not served", a.id);
            assert_eq!(a.completed_s.to_bits(), b.completed_s.to_bits(), "{label} request {}", a.id);
        }
    }
}

/// SHA-256 of `format!("{report:?}")` for [`serve`] on [`pinned_workload`].
const SERVE_REPORT_SHA256: &str = "074d6cd9c3a853ffd72acc76183fcda0d5158f12edea5d5db827f0b92e79dc7d";
/// SHA-256 of `format!("{report:?}")` for [`serve_serial`] on the same requests.
const SERIAL_REPORT_SHA256: &str = "0fe9d60b6e080b545629b29fcfdf586105cf24fd25d212a8b9382e31a630ca7d";

/// A Summit node under device faults with obs on: a queue shallow enough
/// to reject, deadlines tight enough to miss, and a 64^3 field every
/// eighth request that shards across the node.
fn pinned_workload() -> (ServeNode, ServeOptions, Vec<ServeRequest>) {
    let opts = ServeOptions {
        queue_depth: 12,
        seed: 5,
        rates: FaultRates { kernel: 0.3, transfer: 0.1, ..Default::default() },
        obs: Some(ObsOptions::default()),
        ..Default::default()
    };
    let spec = WorkloadSpec { requests: 32, seed: 23, deadline_s: Some(3e-3), ..Default::default() };
    (ServeNode::summit(), opts, synth_workload(&spec).unwrap())
}

#[test]
fn serve_report_is_pinned() {
    let (node, opts, requests) = pinned_workload();
    let r = serve(&node, &opts, &requests).unwrap();
    assert!(r.rejected > 0, "no backpressure rejection");
    assert!(r.failovers > 0, "no device fail-over");
    assert!(r.missed > 0, "no missed deadline");
    assert!(r.responses.iter().any(|x| x.device.contains('+')), "no sharded request");
    assert!(!r.obs.is_empty() && r.series.is_some(), "obs recorded nothing");
    assert_eq!(sha256_hex(format!("{r:?}").as_bytes()), SERVE_REPORT_SHA256, "serve report moved");
}

#[test]
fn serial_report_is_pinned() {
    let (node, opts, requests) = pinned_workload();
    let r = serve_serial(&node, &opts, &requests).unwrap();
    assert_eq!(r.responses.len(), requests.len());
    assert_eq!(sha256_hex(format!("{r:?}").as_bytes()), SERIAL_REPORT_SHA256, "serial report moved");
}

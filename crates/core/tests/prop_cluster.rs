//! Property tests for the fault-tolerant cluster router.
//!
//! Three invariants, per the design contract:
//!
//! - **Bytes are failure-schedule-independent.** For any node-failure
//!   schedule — crashes, slow windows, partitions, on any subset of
//!   nodes at any instants — every executed request returns exactly the
//!   bytes the single-node serial reference returns. Placement,
//!   replication, failover, and the router CPU path never touch data.
//! - **Nothing is lost.** Every submitted request terminates as executed
//!   or rejected-with-hint: `completed + rejected == submitted`, under
//!   any chaos plan, including all-nodes-dead.
//! - **Runs are seed-deterministic.** The same seed and chaos plan
//!   reproduce identical traces, breaker transitions, and responses.

use foresight::codec::{CodecConfig, Shape};
use foresight::{
    serve_cluster, serve_serial, ClusterOptions, ClusterRequest, ServeCluster, ServeNode,
    ServeOptions, ServePayload, ServeRequest, ServeStatus,
};
use gpu_sim::{NodeChaosPlan, NodeFaultEvent, NodeFaultKind};
use lossy_sz::SzConfig;
use lossy_zfp::ZfpConfig;
use proptest::prelude::*;

/// Cheap deterministic field — content only feeds the host codec.
fn lcg_field(n: usize, seed: u64) -> Vec<f32> {
    let mut s = seed | 1;
    (0..n)
        .map(|i| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let noise = (s >> 40) as f32 / 16_777_216.0 - 0.5;
            (i as f32 * 0.01).sin() * 30.0 + noise
        })
        .collect()
}

fn shapes() -> [Shape; 3] {
    [Shape::D3(8, 8, 8), Shape::D3(16, 16, 16), Shape::D1(4096)]
}

fn configs() -> [CodecConfig; 3] {
    [
        CodecConfig::Sz(SzConfig::abs(1e-3)),
        CodecConfig::Zfp(ZfpConfig::rate(4.0)),
        CodecConfig::Zfp(ZfpConfig::rate(8.0)),
    ]
}

/// An arbitrary-but-valid chaos plan from proptest draws: each tuple is
/// (node, kind, onset µs, duration µs, factor %).
fn plan_from(
    events: &[(usize, u8, u64, u64, u32)],
    nodes: usize,
) -> NodeChaosPlan {
    let events: Vec<NodeFaultEvent> = events
        .iter()
        .map(|&(node, kind, at_us, dur_us, fac_pct)| NodeFaultEvent {
            node: node % nodes,
            kind: match kind % 3 {
                0 => NodeFaultKind::Crash,
                1 => NodeFaultKind::Slow,
                _ => NodeFaultKind::Partition,
            },
            at_s: at_us as f64 * 1e-6,
            duration_s: dur_us as f64 * 1e-6,
            slow_factor: 1.0 + fac_pct as f64 / 100.0,
        })
        .collect();
    NodeChaosPlan::new(events).expect("constructed events are valid")
}

fn requests_from(specs: &[(usize, usize, u64, u64, u8)]) -> Vec<ClusterRequest> {
    specs
        .iter()
        .enumerate()
        .map(|(i, &(si, ci, at_us, seed, priority))| {
            let shape = shapes()[si % shapes().len()];
            let config = configs()[ci % configs().len()].clone();
            let data = lcg_field(shape.len(), seed);
            let payload = if seed % 4 == 0 {
                let stream = foresight::codec::compress(&data, shape, &config).unwrap();
                ServePayload::Decompress { stream }
            } else {
                ServePayload::Compress { data, shape, config }
            };
            ClusterRequest {
                key: format!("field{}", seed % 9),
                priority: priority % 3,
                req: ServeRequest {
                    id: i as u64,
                    arrival_s: at_us as f64 * 1e-6,
                    deadline_s: None,
                    payload,
                },
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any node-failure schedule: executed bytes match the single-node
    /// serial reference, and conservation holds.
    #[test]
    fn arbitrary_node_failures_never_corrupt_or_lose_requests(
        specs in prop::collection::vec(
            (0usize..3, 0usize..3, 0u64..4000, any::<u64>(), 0u8..3),
            1..8,
        ),
        events in prop::collection::vec(
            (0usize..4, 0u8..3, 0u64..8000, 100u64..4000, 0u32..400),
            0..5,
        ),
        nodes in 2usize..5,
        replication in 1usize..3,
    ) {
        let replication = replication.min(nodes);
        let spec = ServeCluster::new(nodes, replication, ServeNode::v100_pcie(2));
        let requests = requests_from(&specs);
        let opts = ClusterOptions {
            // Deep queue: the byte property quantifies over *executed*
            // requests, so admit everything the detection logic allows.
            serve: ServeOptions { queue_depth: 4096, ..Default::default() },
            chaos: plan_from(&events, nodes),
            ..Default::default()
        };
        let report = serve_cluster(&spec, &opts, &requests).unwrap();
        prop_assert_eq!(report.submitted, requests.len());
        prop_assert_eq!(
            report.completed + report.rejected,
            report.submitted,
            "requests lost under chaos"
        );
        let inner: Vec<ServeRequest> = requests.iter().map(|r| r.req.clone()).collect();
        let serial = serve_serial(&spec.node, &opts.serve, &inner).unwrap();
        for resp in &report.responses {
            if let Some(bytes) = &resp.output {
                let reference = serial.response(resp.id).expect("serial resolved all");
                prop_assert!(
                    reference.output.as_ref() == Some(bytes),
                    "request {} bytes diverged from serial under node faults",
                    resp.id
                );
            }
            if let ServeStatus::Rejected { retry_after_s } = resp.status {
                prop_assert!(
                    retry_after_s.is_finite() && retry_after_s > 0.0,
                    "request {} shed without a usable retry hint",
                    resp.id
                );
            }
        }
    }

    /// Same seed, same chaos plan: reruns are indistinguishable.
    #[test]
    fn same_seed_chaos_runs_are_trace_identical(
        specs in prop::collection::vec(
            (0usize..3, 0usize..3, 0u64..3000, any::<u64>(), 0u8..3),
            1..6,
        ),
        events in prop::collection::vec(
            (0usize..3, 0u8..3, 0u64..6000, 100u64..3000, 0u32..400),
            1..4,
        ),
        seed in any::<u64>(),
    ) {
        let spec = ServeCluster::new(3, 2, ServeNode::v100_pcie(2));
        let requests = requests_from(&specs);
        let opts = ClusterOptions {
            serve: ServeOptions { seed, ..Default::default() },
            chaos: plan_from(&events, 3),
            ..Default::default()
        };
        let a = serve_cluster(&spec, &opts, &requests).unwrap();
        let b = serve_cluster(&spec, &opts, &requests).unwrap();
        prop_assert!(a.trace == b.trace, "same-seed cluster traces diverged");
        prop_assert!(
            a.breaker_transitions == b.breaker_transitions,
            "breaker evolution diverged across reruns"
        );
        prop_assert_eq!(a.makespan_s, b.makespan_s);
        prop_assert_eq!(a.failovers, b.failovers);
        prop_assert_eq!(a.redirects, b.redirects);
        prop_assert_eq!(a.timeouts, b.timeouts);
        prop_assert_eq!(a.interrupted, b.interrupted);
        prop_assert_eq!(a.cpu_fallbacks, b.cpu_fallbacks);
        for (x, y) in a.responses.iter().zip(&b.responses) {
            prop_assert_eq!(x.id, y.id);
            prop_assert_eq!(x.status, y.status);
            prop_assert_eq!(x.completed_s, y.completed_s);
            prop_assert_eq!(x.node, y.node);
            prop_assert_eq!(&x.devices, &y.devices);
            prop_assert_eq!(x.redirects, y.redirects);
            prop_assert!(x.output == y.output, "request {} bytes changed across reruns", x.id);
        }
    }
}

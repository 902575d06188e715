//! Acceptance test for fault-tolerant cluster serving.
//!
//! Pins the headline robustness claim end to end: seeded chaos killing
//! 1 of 4 nodes mid-run at replication factor 2 must lose zero
//! requests, return bytes identical to the healthy run for every
//! executed request, and reproduce the exact same trace on a
//! same-seed rerun. Failover must be visible in the report's counters,
//! metrics snapshot, and Chrome-trace events — degradation is allowed,
//! silence about it is not.
//!
//! Two scheduler pins close the file: the SHA-256 of a whole report's
//! `Debug` rendering for a brown-out run and for a run the router's CPU
//! lane answers.

use foresight::{
    cluster_workload, serve_cluster, ClusterOptions, ClusterReport, ClusterWorkloadSpec,
    ExecPath, ObsOptions, ServeCluster, ServeNode, ServeOptions, ServeStatus,
};
use foresight_util::sha256::sha256_hex;
use gpu_sim::{NodeChaosPlan, NodeFaultEvent, NodeFaultKind};

const NODES: usize = 4;
const REPLICATION: usize = 2;
const VICTIM: usize = 1;

fn spec() -> ServeCluster {
    ServeCluster::new(NODES, REPLICATION, ServeNode::v100_pcie(2))
}

fn options(chaos: NodeChaosPlan) -> ClusterOptions {
    ClusterOptions {
        // Depth raised so the whole workload is admitted: the claim is
        // about failover correctness, not about shedding load.
        serve: ServeOptions { queue_depth: 256, seed: 7, ..Default::default() },
        chaos,
        ..Default::default()
    }
}

fn workload() -> Vec<foresight::ClusterRequest> {
    cluster_workload(&ClusterWorkloadSpec { requests: 64, seed: 7, ..Default::default() })
        .expect("workload spec is valid")
}

#[test]
fn node_kill_mid_run_at_r2_loses_nothing_and_preserves_bytes() {
    let spec = spec();
    let requests = workload();

    let healthy = serve_cluster(&spec, &options(NodeChaosPlan::quiet()), &requests).unwrap();
    assert_eq!(healthy.completed, requests.len(), "healthy run must execute everything");
    assert_eq!(healthy.failovers, 0, "quiet chaos must not fail over");

    // Kill one node mid-run: onset at half the healthy makespan puts the
    // crash squarely inside the serving window on the simulated clock.
    let kill_at = healthy.makespan_s * 0.5;
    assert!(kill_at > 0.0, "healthy run must have nonzero makespan");
    let chaos = NodeChaosPlan::new(vec![NodeFaultEvent {
        node: VICTIM,
        kind: NodeFaultKind::Crash,
        at_s: kill_at,
        duration_s: 10.0,
        slow_factor: 1.0,
    }])
    .unwrap();

    let report = serve_cluster(&spec, &options(chaos.clone()), &requests).unwrap();

    // Zero lost requests: everything submitted terminates, and with R=2
    // and three healthy nodes everything still executes.
    assert_eq!(report.submitted, requests.len());
    assert_eq!(
        report.completed + report.rejected,
        report.submitted,
        "conservation law violated under node kill"
    );
    assert_eq!(report.completed, requests.len(), "R=2 must absorb a single node loss");

    // Bytes identical to the healthy run, request by request.
    for r in &report.responses {
        assert!(
            matches!(r.status, ServeStatus::Done | ServeStatus::DeadlineMissed),
            "request {} not executed under chaos: {:?}",
            r.id,
            r.status
        );
        let h = healthy.response(r.id).expect("healthy run resolved every id");
        assert_eq!(r.output, h.output, "request {} bytes diverged after node kill", r.id);
    }

    // Failover is visible, not silent: counters, metrics, and the
    // Chrome trace all carry it.
    assert!(report.failovers > 0, "node kill produced no failovers");
    assert!(report.redirects >= report.failovers);
    assert_eq!(report.metrics.counter("cluster.failover"), report.failovers);
    assert!(
        report
            .trace
            .iter()
            .any(|e| e.process == "cluster"
                && e.track == format!("chaos.n{VICTIM}")
                && e.name == "crash"),
        "crash window missing from the cluster trace"
    );

    // Degraded but bounded: the chaos run may be slower, but its p99
    // stays within an order of magnitude of healthy.
    let hp99 = healthy.latency().expect("healthy latency histogram").p99;
    let cp99 = report.latency().expect("chaos latency histogram").p99;
    assert!(cp99 >= hp99, "losing a node cannot make tail latency better");
    assert!(
        cp99 <= hp99 * 10.0,
        "chaos p99 {cp99:.6}s unbounded vs healthy {hp99:.6}s"
    );

    // Same seed, same chaos plan: reruns are indistinguishable.
    let rerun = serve_cluster(&spec, &options(chaos), &requests).unwrap();
    assert!(rerun.trace == report.trace, "same-seed chaos rerun trace diverged");
    assert_eq!(rerun.makespan_s, report.makespan_s);
    assert_eq!(rerun.failovers, report.failovers);
    assert_eq!(rerun.breaker_transitions, report.breaker_transitions);
    for (a, b) in rerun.responses.iter().zip(&report.responses) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.status, b.status);
        assert_eq!(a.completed_s, b.completed_s);
        assert!(a.output == b.output, "request {} bytes changed across reruns", a.id);
    }
}

/// SHA-256 of `format!("{report:?}")` for [`brownout_run`].
const BROWNOUT_REPORT_SHA256: &str = "4a0c008dadc65f5725bc681d905c473cd38bfe2cd09102cbd2429f6d91b870a8";
/// SHA-256 of `format!("{report:?}")` for [`router_cpu_run`].
const ROUTER_CPU_REPORT_SHA256: &str = "b54e4b73defa7e0b8ef66949d6b6b8b71bc36a13908a6ddab0b76e76046142a9";

fn event(node: usize, kind: NodeFaultKind, at_s: f64, duration_s: f64, slow_factor: f64) -> NodeFaultEvent {
    NodeFaultEvent { node, kind, at_s, duration_s, slow_factor }
}

/// Obs off. Node 0 runs 4x slow for the first 6 ms; node 2 crashes at
/// 1 ms and is detected at 4 ms, after which capacity drops to three
/// nodes' worth of a shallow queue and the lowest priorities shed first.
fn brownout_run() -> ClusterReport {
    let chaos = NodeChaosPlan::new(vec![
        event(0, NodeFaultKind::Slow, 0.0, 6e-3, 4.0),
        event(2, NodeFaultKind::Crash, 1e-3, 0.0, 1.0),
    ])
    .unwrap();
    let opts = ClusterOptions {
        serve: ServeOptions { queue_depth: 6, seed: 3, ..Default::default() },
        chaos,
        ..Default::default()
    };
    let wl = ClusterWorkloadSpec { requests: 96, seed: 13, arrival_hz: 12_000.0, ..Default::default() };
    serve_cluster(&spec(), &opts, &cluster_workload(&wl).unwrap()).unwrap()
}

/// Obs on. Every node crashes at 0: requests dispatched before the
/// heartbeat detects it (4 ms) time out on every replica and the
/// router's CPU lane answers them, shard by shard; later ones shed.
fn router_cpu_run() -> ClusterReport {
    let chaos =
        NodeChaosPlan::new((0..NODES).map(|n| event(n, NodeFaultKind::Crash, 0.0, 0.0, 1.0)).collect())
            .unwrap();
    let opts = ClusterOptions {
        serve: ServeOptions {
            shard_bytes: 16 * 1024,
            seed: 9,
            obs: Some(ObsOptions::default()),
            ..Default::default()
        },
        chaos,
        ..Default::default()
    };
    let wl = ClusterWorkloadSpec { requests: 20, seed: 17, arrival_hz: 2_000.0, ..Default::default() };
    serve_cluster(&spec(), &opts, &cluster_workload(&wl).unwrap()).unwrap()
}

#[test]
fn brownout_report_is_pinned() {
    let r = brownout_run();
    assert!(r.shed_brownout > 0, "no brown-out shedding");
    assert!(r.failovers > 0, "the crash moved no request");
    assert!(r.obs.is_empty() && r.series.is_none(), "obs-off run recorded spans");
    assert_eq!(sha256_hex(format!("{r:?}").as_bytes()), BROWNOUT_REPORT_SHA256, "brown-out report moved");
}

#[test]
fn router_cpu_report_is_pinned() {
    let r = router_cpu_run();
    assert!(r.cpu_fallbacks > 0, "the router's CPU lane answered nothing");
    assert!(r.rejected > 0, "nothing shed after detection");
    assert!(
        r.responses.iter().any(|x| x.exec == ExecPath::CpuFallback && x.devices == "cluster-cpu"),
        "no router-CPU response"
    );
    assert!(!r.obs.is_empty(), "obs-on run recorded no spans");
    assert_eq!(sha256_hex(format!("{r:?}").as_bytes()), ROUTER_CPU_REPORT_SHA256, "router-CPU report moved");
}

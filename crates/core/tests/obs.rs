//! Acceptance tests for the request-observability layer (`foresight::obs`).
//!
//! Pins the layer's headline claims end to end:
//! - a node-kill chaos run at R=2 yields a reconstructable span tree for
//!   a failed-over request via `trace_of(request_id)` — admission →
//!   failed hop(s) → committed dispatch → device-lane units — and the
//!   Chrome export links the hops with paired flow events whose span
//!   references all resolve;
//! - same-seed reruns are byte-identical in the windowed series and the
//!   SLO verdicts derived from it;
//! - with obs off, every pre-existing report field is identical: the
//!   layer observes scheduling, it never steers it;
//! - the node-kill run's host-excluded Chrome trace (device lanes, the
//!   `requests` process, its flows) and its series are pinned by digest.

use foresight::obs::{self, SloLevel};
use foresight::{
    cluster_workload, serve_cluster, ClusterOptions, ClusterWorkloadSpec, ObsOptions, ServeCluster,
    ServeNode, ServeOptions, SloSpec,
};
use foresight_util::json::Value;
use foresight_util::sha256::sha256_hex;
use foresight_util::telemetry::{self, ChromeTraceOptions, TelemetrySnapshot};
use gpu_sim::{NodeChaosPlan, NodeFaultEvent, NodeFaultKind};
use std::collections::BTreeSet;
use std::sync::Mutex;

const NODES: usize = 4;
const REPLICATION: usize = 2;
const VICTIM: usize = 1;

/// The pin test enables the process-global collector; every test here
/// takes this lock so no other run's slices land in its snapshot.
fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn spec() -> ServeCluster {
    ServeCluster::new(NODES, REPLICATION, ServeNode::v100_pcie(2))
}

fn options(chaos: NodeChaosPlan, obs_on: bool) -> ClusterOptions {
    ClusterOptions {
        // Depth raised so the whole workload is admitted: these tests are
        // about failover visibility, not shedding.
        serve: ServeOptions {
            queue_depth: 256,
            seed: 7,
            obs: obs_on.then(ObsOptions::default),
            ..Default::default()
        },
        chaos,
        ..Default::default()
    }
}

fn workload() -> Vec<foresight::ClusterRequest> {
    cluster_workload(&ClusterWorkloadSpec { requests: 64, seed: 7, ..Default::default() })
        .expect("workload spec is valid")
}

/// Kills one node squarely inside the serving window (onset at half the
/// healthy makespan), same shape as the cluster acceptance test.
fn kill_plan() -> NodeChaosPlan {
    let healthy =
        serve_cluster(&spec(), &options(NodeChaosPlan::quiet(), false), &workload()).unwrap();
    assert!(healthy.makespan_s > 0.0, "healthy run must have nonzero makespan");
    NodeChaosPlan::new(vec![NodeFaultEvent {
        node: VICTIM,
        kind: NodeFaultKind::Crash,
        at_s: healthy.makespan_s * 0.5,
        duration_s: 10.0,
        slow_factor: 1.0,
    }])
    .unwrap()
}

fn span_count(node: &foresight::SpanNode) -> usize {
    1 + node.children.iter().map(span_count).sum::<usize>()
}

#[test]
fn node_kill_span_tree_reconstructs_failover_with_flows() {
    let _g = lock();
    let report = serve_cluster(&spec(), &options(kill_plan(), true), &workload()).unwrap();
    assert!(report.failovers > 0, "node kill produced no failovers");
    assert!(!report.obs.is_empty(), "obs-on chaos run recorded no spans");

    // Every request whose routing took more than one hop before a
    // committed dispatch: the kill must have produced at least one.
    let failed_over: Vec<u64> = report
        .obs
        .request_ids()
        .into_iter()
        .filter(|&id| {
            let tree = report.obs.trace_of(id).expect("listed id resolves");
            let dispatches = tree.find_all("dispatch");
            let hops = dispatches.len()
                + tree.find_all("timeout").len()
                + tree.find_all("skip.down").len()
                + tree.find_all("breaker.reject").len();
            hops >= 2 && dispatches.iter().any(|d| d.attr("outcome") == Some("ok"))
        })
        .collect();
    assert!(!failed_over.is_empty(), "node kill left no multi-hop request trees");

    // The tree reads as the failover story: admission root with routing
    // attributes, a committed dispatch at the end, device lanes under it.
    let id = failed_over[0];
    let tree = report.obs.trace_of(id).expect("failed-over id resolves");
    assert_eq!(tree.span.name, "admission", "request tree must root at admission");
    assert!(tree.attr("key").is_some(), "admission span lost its routing key");
    assert!(tree.attr("primary").is_some(), "admission span lost its primary replica");
    let ok = tree
        .find_all("dispatch")
        .into_iter()
        .find(|d| d.attr("outcome") == Some("ok"))
        .expect("failed-over request has a committed dispatch");
    let units = ok.find_all("unit");
    assert!(!units.is_empty(), "committed dispatch carries no unit lanes");
    assert!(units.iter().all(|u| u.attr("device").is_some()), "unit span without a device");
    assert!(
        units.iter().any(|u| u.find("kernel").is_some()),
        "no device kernel lane under the committed dispatch"
    );
    // trace_of is a partition: the tree holds exactly this request's spans.
    let flat = report.obs.spans.iter().filter(|s| s.request == Some(id)).count();
    assert_eq!(span_count(&tree), flat, "trace_of dropped or duplicated spans");

    // The Chrome export links the hops with paired flow events whose
    // span references all resolve to exported slices.
    let snap = TelemetrySnapshot { spans: report.obs.spans.clone(), ..Default::default() };
    let doc = telemetry::chrome_trace(&snap, ChromeTraceOptions::default());
    let Value::Array(events) = &doc else { panic!("chrome trace is not a bare event array") };
    let mut defined: BTreeSet<String> = BTreeSet::new();
    let mut refs: Vec<String> = Vec::new();
    let (mut starts, mut finishes) = (0usize, 0usize);
    for ev in events {
        let arg = |key: &str| {
            ev.get("args").and_then(|a| a.get(key)).and_then(Value::as_str).map(str::to_string)
        };
        match ev.get("ph").and_then(Value::as_str) {
            Some("X") => {
                if let Some(sid) = arg("span_id") {
                    defined.insert(sid);
                }
            }
            Some("s") => {
                starts += 1;
                refs.push(arg("span").expect("flow start without args.span"));
            }
            Some("f") => {
                finishes += 1;
                assert_eq!(ev.get("bp").and_then(Value::as_str), Some("e"));
                refs.push(arg("span").expect("flow finish without args.span"));
            }
            _ => {}
        }
    }
    assert!(starts > 0, "no flow events in the chrome export");
    assert_eq!(starts, finishes, "unpaired flow events");
    for r in &refs {
        assert!(defined.contains(r), "flow references unknown span id {r}");
    }
}

#[test]
fn obs_layer_never_changes_scheduling_or_bytes() {
    let _g = lock();
    let chaos = kill_plan();
    let base = serve_cluster(&spec(), &options(chaos.clone(), false), &workload()).unwrap();
    let with_obs = serve_cluster(&spec(), &options(chaos, true), &workload()).unwrap();
    assert!(base.obs.is_empty(), "obs-off run recorded spans");
    assert!(base.series.is_none(), "obs-off run recorded a series");
    assert!(!with_obs.obs.is_empty());
    assert!(with_obs.series.is_some());

    assert_eq!(base.makespan_s, with_obs.makespan_s);
    assert_eq!(base.failovers, with_obs.failovers);
    assert_eq!(base.redirects, with_obs.redirects);
    assert_eq!(base.timeouts, with_obs.timeouts);
    assert_eq!(base.interrupted, with_obs.interrupted);
    assert_eq!(base.submitted, with_obs.submitted);
    assert_eq!(base.completed, with_obs.completed);
    assert_eq!(base.rejected, with_obs.rejected);
    assert_eq!(base.executed_bytes, with_obs.executed_bytes);
    assert!(base.trace == with_obs.trace, "sim trace diverged when obs was enabled");
    for (a, b) in base.responses.iter().zip(&with_obs.responses) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.status, b.status);
        assert_eq!(a.completed_s, b.completed_s);
        assert!(a.output == b.output, "request {} bytes changed with obs on", a.id);
    }
}

#[test]
fn same_seed_rerun_is_byte_identical_in_series_and_slo() {
    let _g = lock();
    let chaos = kill_plan();
    let a = serve_cluster(&spec(), &options(chaos.clone(), true), &workload()).unwrap();
    let b = serve_cluster(&spec(), &options(chaos, true), &workload()).unwrap();
    assert_eq!(a.obs, b.obs, "span streams diverged across same-seed reruns");
    let sa = a.series.as_ref().expect("obs run records a series");
    let sb = b.series.as_ref().expect("obs run records a series");
    assert_eq!(
        sa.to_value().to_json(),
        sb.to_value().to_json(),
        "series JSON diverged across same-seed reruns"
    );

    // Verdicts are pure functions of the series: identical across
    // reruns, and calibrated thresholds land where they should.
    let specs = [
        SloSpec::new("cluster.latency.p99", 50.0, 0.004),
        SloSpec::new("cluster.latency.p99", 1e-6, 0.004),
    ];
    let va = obs::evaluate_slos(sa, &specs);
    let vb = obs::evaluate_slos(sb, &specs);
    assert_eq!(va, vb, "SLO verdicts diverged across same-seed reruns");
    assert_eq!(obs::slo_to_value(&va).to_json(), obs::slo_to_value(&vb).to_json());
    assert_eq!(va[0].level, SloLevel::Ok, "50 ms p99 objective should hold: {:?}", va[0]);
    assert_eq!(va[1].level, SloLevel::Page, "1 ns p99 objective should burn: {:?}", va[1]);
}

/// SHA-256 of the host-excluded Chrome trace of the node-kill run: the
/// device lanes, the `requests` process and its flow edges.
const CLUSTER_TRACE_SHA256: &str = "1e0e07cb2d9e652a7f4120000a3e39d767c59ba17bf4aeb47c5139233470d0e7";
/// SHA-256 of the same run's `WindowSeries::to_value` JSON.
const CLUSTER_SERIES_SHA256: &str = "691b43507d5550d83c694c1dc7ee9f015e4eae5e7730bfb4f0e072a4a2734149";

#[test]
fn node_kill_trace_and_series_bytes_are_pinned() {
    let _g = lock();
    let chaos = kill_plan();
    telemetry::reset();
    telemetry::enable();
    let report = serve_cluster(&spec(), &options(chaos, true), &workload()).unwrap();
    let mut snap = telemetry::snapshot();
    telemetry::reset();
    snap.spans.extend(report.obs.spans.iter().cloned());
    let doc = telemetry::chrome_trace(&snap, ChromeTraceOptions { include_host: false }).to_json();
    assert!(doc.contains("\"requests\""), "no requests process");
    assert!(doc.contains("\"ph\":\"s\""), "no flow edges");
    let series = report.series.expect("obs run records a series").to_value().to_json();
    // The one documented shape change (DESIGN §8.3): series histogram
    // summaries carry the zeros / infs / nans counts that top-level ones
    // always had. Everything else is the pinned bytes.
    assert!(series.contains("\"zeros\":"), "series summaries lost the shared shape");
    let series = without_nonfinite_counts(&series);
    assert_eq!(sha256_hex(doc.as_bytes()), CLUSTER_TRACE_SHA256, "cluster trace bytes moved");
    assert_eq!(sha256_hex(series.as_bytes()), CLUSTER_SERIES_SHA256, "series bytes moved");
}

/// Drops every `"zeros":…,"infs":…,"nans":…,` run from a JSON text.
fn without_nonfinite_counts(json: &str) -> String {
    let mut out = String::new();
    let mut rest = json;
    while let Some(at) = rest.find("\"zeros\":") {
        out.push_str(&rest[..at]);
        let nans = &rest[at..][rest[at..].find("\"nans\":").expect("nans follows zeros")..];
        rest = &nans[nans.find(',').expect("summary continues past nans") + 1..];
    }
    out.push_str(rest);
    out
}

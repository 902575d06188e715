//! Foresight command-line interface: run a full pipeline from a JSON
//! configuration file, as the original tool does.
//!
//! ```text
//! foresight-cli [--trace <path>] [--metrics-out <path>] [--memcheck] [--racecheck] [--quiet] <config.json>
//! foresight-cli report <telemetry.json>
//! foresight-cli obs-report <telemetry.json>
//! foresight-cli serve-bench [--out <dir>] [--requests <n>] [--seed <s>] [<config.json>]
//! foresight-cli cluster-bench [--out <dir>] [--requests <n>] [--seed <s>] [--healthy-only] [<config.json>]
//! ```
//!
//! `--trace` enables the telemetry collector and writes a Chrome
//! trace-event file (load it in Perfetto / `chrome://tracing`) plus a
//! collapsed-stack flamegraph next to it (`.folded`); the pipeline also
//! writes `<output.dir>/telemetry/telemetry.json`. `--metrics-out` writes
//! the metrics registries as JSON. `--memcheck` / `--racecheck` attach the
//! device sanitizer to every simulated-GPU run (equivalent to the config's
//! `sanitize` section; flags and section merge with OR) and print any
//! findings under `== sanitizer ==`. `--quiet` suppresses the per-record
//! table. `report` pretty-prints a previously written `telemetry.json`
//! as per-phase (Fig. 7) and per-stage tables.
//!
//! `serve-bench` runs the same synthetic open-loop workload through the
//! serial single-device reference scheduler and the batched multi-device
//! scheduler (see the `serve` module), prints a comparison table with
//! p50/p95/p99 latency, verifies the two produced bit-identical outputs,
//! and — with `--out` — writes `telemetry.json` (both metric snapshots
//! plus the speedup) and `serve_trace.json` (a Chrome trace of the
//! batched run's device lanes) into the directory. The optional config
//! file's `serve` section sets the node/scheduler/workload parameters
//! and its `chaos` section sets device fault rates; `--requests` and
//! `--seed` override the workload size and seed.
//!
//! `cluster-bench` runs a Zipf-popularity open-loop workload through the
//! fault-tolerant multi-node router (see the `cluster` module) twice —
//! once healthy, once under node-level chaos — and prints a side-by-side
//! table. The chaos schedule comes from the config's `cluster.faults`
//! list; with none configured the benchmark injects a node-kill halfway
//! through the healthy run's makespan (`--healthy-only` skips chaos
//! entirely). Both runs are checked for lost requests
//! (completed + rejected must equal submitted) and byte divergence
//! against the single-node serial reference; either failure exits 1.
//! With `--out` it writes `telemetry.json` (healthy + chaos metric
//! snapshots) and `cluster_trace.json` (a Chrome trace of the chaos run:
//! per-node device lanes, chaos windows, breaker flips, lost dispatches).
//! The chaos run records request-scoped observability (see the `obs`
//! module): `telemetry.json` gains `series` (windowed time-series) and
//! `slo` (burn-rate verdicts — the config's `slo` section, or a default
//! p99-latency objective) keys, the table is followed by an `== slo ==`
//! section, and `cluster_trace.json` carries one track per request with
//! flow arrows linking retries and failovers to device lanes.
//!
//! `store` manages seekable snapshot archives (see the `foresight-store`
//! crate): `pack` generates the configured dataset and seals it into a
//! chunked archive with the sweep's first codec (the config's optional
//! `store` section sets the chunk shape and snapshot id); `ls` prints
//! the directory; `verify` checks every chunk CRC and field digest
//! without decoding; `extract` reads one field — or, with `--region`, a
//! subvolume decoding only the chunks it intersects — as little-endian
//! f32 bytes; `serve` runs a synthetic region-read workload straight
//! out of the archive through both schedulers, verifies bit-identity,
//! prints the read-amplification counters, and — with `--out` — writes
//! `telemetry.json` with both runs' metric snapshots.
//!
//! `obs-report` pretty-prints the observability sections of a previously
//! written `telemetry.json` — the windowed-series summary and the
//! `== slo ==` verdict table — and exits 5 if any objective is at
//! page-level burn, making it usable as a CI gate.
//!
//! Exit codes:
//! - 0 — success;
//! - 1 — config/telemetry file could not be loaded, the pipeline aborted
//!   with an error, an output file could not be written, `serve-bench`
//!   found a batched/serial output divergence, or `cluster-bench` found
//!   a divergence or a lost request;
//! - 2 — usage error (missing/unknown argument);
//! - 3 — the pipeline ran to completion but one or more jobs failed or
//!   were skipped (per-job summary on stderr);
//! - 4 — all jobs succeeded but the device sanitizer reported findings;
//! - 5 — the run (or the report under `obs-report`) has an SLO at
//!   page-level burn rate.

use foresight::obs;
use foresight::runner::run_pipeline;
use foresight::trace;
use foresight::{ForesightConfig, SlurmSim};
use foresight_util::json::Value;
use foresight_util::table::{fmt_f64, Table};
use foresight_util::telemetry::{self, chrome_trace, flamegraph, ChromeTraceOptions};
use std::path::{Path, PathBuf};

const USAGE: &str = "usage: foresight-cli [--trace <path>] [--metrics-out <path>] [--memcheck] [--racecheck] [--quiet] <config.json>\n       foresight-cli report <telemetry.json>\n       foresight-cli obs-report <telemetry.json>\n       foresight-cli serve-bench [--out <dir>] [--requests <n>] [--seed <s>] [<config.json>]\n       foresight-cli cluster-bench [--out <dir>] [--requests <n>] [--seed <s>] [--healthy-only] [<config.json>]\n       foresight-cli store pack <config.json> <archive> [--chunk <n>] [--snapshot <s>]\n       foresight-cli store ls <archive>\n       foresight-cli store verify <archive>\n       foresight-cli store extract <archive> <snapshot> <field> [--region x0:x1,y0:y1,z0:z1] [--out <file>]\n       foresight-cli store serve <archive> [--requests <n>] [--seed <s>] [--out <dir>]";

fn usage_exit() -> ! {
    eprintln!("{USAGE}");
    eprintln!("see README.md for the configuration schema");
    std::process::exit(2);
}

fn load_json_or_die(path: &str) -> Value {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read '{path}': {e}");
            std::process::exit(1);
        }
    };
    match Value::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: '{path}' is not valid JSON: {e}");
            std::process::exit(1);
        }
    }
}

fn report_main(path: &str) -> ! {
    let doc = load_json_or_die(path);
    for section in [
        trace::render_phase_table(&doc),
        trace::render_stage_table(&doc),
        trace::render_metrics_table(&doc),
    ] {
        if !section.is_empty() {
            println!("{section}");
        }
    }
    for (key, header) in [("resilience", "== resilience =="), ("sanitizer", "== sanitizer ==")] {
        if let Some(lines) = doc.get(key).and_then(Value::as_array) {
            if !lines.is_empty() {
                println!("{header}");
                for l in lines {
                    if let Some(s) = l.as_str() {
                        println!("{s}");
                    }
                }
            }
        }
    }
    let slo = obs::render_slo_section(&doc);
    if !slo.is_empty() {
        println!("{slo}");
    }
    std::process::exit(0);
}

/// Renders a one-line summary of a `telemetry.json` `series` value.
fn series_summary(doc: &Value) -> Option<String> {
    let series = doc.get("series")?;
    let windows = series.get("windows").and_then(Value::as_array)?;
    let width = series.get("width_s").and_then(Value::as_f64).unwrap_or(f64::NAN);
    let dropped = series.get("dropped").and_then(Value::as_f64).unwrap_or(0.0);
    let span = match (windows.first(), windows.last()) {
        (Some(a), Some(b)) => {
            let idx = |w: &Value| w.get("index").and_then(Value::as_f64).unwrap_or(0.0);
            format!("indices {}..={}", idx(a) as u64, idx(b) as u64)
        }
        _ => "empty".into(),
    };
    Some(format!(
        "series: {} window(s) of {:.6}s ({span}, {} dropped sample(s))",
        windows.len(),
        width,
        dropped as u64
    ))
}

/// `obs-report`: the observability slice of a `telemetry.json` — series
/// summary plus SLO verdicts — with exit 5 on page-level burn so CI can
/// gate on it.
fn obs_report_main(path: &str) -> ! {
    let doc = load_json_or_die(path);
    match series_summary(&doc) {
        Some(line) => println!("{line}"),
        None => println!("series: none recorded (run with an `slo` config section or obs on)"),
    }
    let slo = obs::render_slo_section(&doc);
    if slo.is_empty() {
        println!("slo: no verdicts in this report");
        std::process::exit(0);
    }
    print!("{slo}");
    if obs::any_page(&doc) {
        eprintln!("SLO PAGE: at least one objective is at page-level burn");
        std::process::exit(5);
    }
    std::process::exit(0);
}

/// `serve-bench`: serial-vs-batched scheduler comparison on one
/// synthetic workload, with bit-identity verification.
fn serve_bench_main(mut args: impl Iterator<Item = String>) -> ! {
    let mut out_dir: Option<PathBuf> = None;
    let mut requests: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut config_path: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                let Some(p) = args.next() else { usage_exit() };
                out_dir = Some(PathBuf::from(p));
            }
            "--requests" => {
                let Some(n) = args.next().and_then(|s| s.parse().ok()) else { usage_exit() };
                requests = Some(n);
            }
            "--seed" => {
                let Some(s) = args.next().and_then(|s| s.parse().ok()) else { usage_exit() };
                seed = Some(s);
            }
            s if s.starts_with('-') => usage_exit(),
            _ if config_path.is_some() => usage_exit(),
            _ => config_path = Some(arg),
        }
    }
    let (settings, rates) = match &config_path {
        None => (foresight::ServeSettings::default(), gpu_sim::FaultRates::default()),
        Some(path) => match ForesightConfig::from_file(path) {
            Ok(cfg) => (
                cfg.serve.unwrap_or_default(),
                cfg.chaos.map(|c| c.fault_rates()).unwrap_or_default(),
            ),
            Err(e) => {
                eprintln!("error: cannot load '{path}': {e}");
                std::process::exit(1);
            }
        },
    };
    let node = settings.to_node();
    let opts = settings.to_serve_options(rates);
    let mut wl = settings.to_workload_spec();
    if let Some(n) = requests {
        wl.requests = n;
    }
    if let Some(s) = seed {
        wl.seed = s;
    }
    println!(
        "serve-bench: {} device(s), link {} GB/s, {} requests @ {:.0}/s, seed {}",
        node.devices, node.link.bandwidth_gbs, wl.requests, wl.arrival_hz, wl.seed
    );
    let run = || -> foresight_util::Result<(foresight::ServeReport, foresight::ServeReport)> {
        let reqs = foresight::synth_workload(&wl)?;
        let serial = foresight::serve_serial(&node, &opts, &reqs)?;
        // reset() also disables, so enable after it: the Chrome trace
        // should carry only the batched run's device lanes.
        telemetry::reset();
        telemetry::enable();
        let batched = foresight::serve(&node, &opts, &reqs)?;
        Ok((serial, batched))
    };
    let (serial, batched) = match run() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("serve-bench failed: {e}");
            std::process::exit(1);
        }
    };
    let mut table = Table::new(["scheduler", "makespan_s", "GB/s", "batches", "p50_ms", "p95_ms", "p99_ms"]);
    for (name, r) in [("serial x1", &serial), (&format!("batched x{}", node.devices), &batched)] {
        let lat = r.latency();
        table.push_row([
            name.to_string(),
            fmt_f64(r.makespan_s),
            fmt_f64(r.sustained_gbs),
            r.batches.to_string(),
            fmt_f64(lat.map_or(0.0, |l| l.p50 * 1e3)),
            fmt_f64(lat.map_or(0.0, |l| l.p95 * 1e3)),
            fmt_f64(lat.map_or(0.0, |l| l.p99 * 1e3)),
        ]);
    }
    print!("{}", table.to_ascii());
    let speedup = serial.makespan_s / batched.makespan_s.max(1e-12);
    println!(
        "speedup {speedup:.2}x | rejected {} | deadline-missed {} | failovers {} | cpu-fallbacks {}",
        batched.rejected, batched.missed, batched.failovers, batched.cpu_fallbacks
    );
    for (dev, util) in &batched.device_util {
        println!("  {dev}: {:.1}% busy", util * 100.0);
    }
    // Bit-identity: every request served by both schedulers must have
    // produced the same bytes — scheduling must never change results.
    let mut diverged = 0usize;
    for b in &batched.responses {
        if let (Some(bo), Some(s)) = (&b.output, serial.response(b.id)) {
            if s.output.as_ref() != Some(bo) {
                eprintln!("DIVERGENCE: request {} bytes differ between schedulers", b.id);
                diverged += 1;
            }
        }
    }
    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create '{}': {e}", dir.display());
            std::process::exit(1);
        }
        let tpath = dir.join("telemetry.json");
        let doc = Value::Object(vec![
            ("serial".into(), serial.metrics.to_json()),
            ("batched".into(), batched.metrics.to_json()),
            ("speedup".into(), Value::Number(speedup)),
        ]);
        write_or_die(&tpath, "serve metrics", || {
            std::fs::write(&tpath, doc.to_json())?;
            Ok(())
        });
        let cpath = dir.join("serve_trace.json");
        let snap = telemetry::snapshot();
        write_or_die(&cpath, "serve chrome trace", || {
            trace::write_file(&cpath, &chrome_trace(&snap, ChromeTraceOptions::default()).to_json())
        });
    }
    if diverged > 0 {
        eprintln!("{diverged} request(s) diverged; batched output is NOT bit-identical");
        std::process::exit(1);
    }
    println!("outputs bit-identical across schedulers");
    std::process::exit(0);
}

/// `cluster-bench`: healthy-vs-chaos comparison of the multi-node
/// router, with lost-request and byte-identity verification.
fn cluster_bench_main(mut args: impl Iterator<Item = String>) -> ! {
    let mut out_dir: Option<PathBuf> = None;
    let mut requests: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut healthy_only = false;
    let mut config_path: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                let Some(p) = args.next() else { usage_exit() };
                out_dir = Some(PathBuf::from(p));
            }
            "--requests" => {
                let Some(n) = args.next().and_then(|s| s.parse().ok()) else { usage_exit() };
                requests = Some(n);
            }
            "--seed" => {
                let Some(s) = args.next().and_then(|s| s.parse().ok()) else { usage_exit() };
                seed = Some(s);
            }
            "--healthy-only" => healthy_only = true,
            s if s.starts_with('-') => usage_exit(),
            _ if config_path.is_some() => usage_exit(),
            _ => config_path = Some(arg),
        }
    }
    let (settings, slo_cfg) = match &config_path {
        None => (foresight::ClusterSettings::default(), None),
        Some(path) => match ForesightConfig::from_file(path) {
            Ok(cfg) => (cfg.cluster.unwrap_or_default(), cfg.slo),
            Err(e) => {
                eprintln!("error: cannot load '{path}': {e}");
                std::process::exit(1);
            }
        },
    };
    // SLOs come from the config's `slo` section; with none configured the
    // chaos run is still judged against a generous default latency
    // objective, so the burn-rate path is always exercised.
    let slo_specs: Vec<foresight::SloSpec> = match &slo_cfg {
        Some(list) => list.iter().map(|s| s.to_spec()).collect(),
        None => vec![foresight::SloSpec::new("cluster.latency.p99", 50.0, 0.004)],
    };
    let spec = settings.to_cluster();
    let base_opts = match settings.to_cluster_options() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: bad cluster settings: {e}");
            std::process::exit(1);
        }
    };
    let mut wl = settings.to_workload_spec();
    if let Some(n) = requests {
        wl.requests = n;
    }
    if let Some(s) = seed {
        wl.seed = s;
    }
    println!(
        "cluster-bench: {} node(s) x {} device(s), R={}, {} requests @ {:.0}/s over {} fields (zipf {}), seed {}",
        spec.nodes,
        spec.node.devices,
        spec.replication,
        wl.requests,
        wl.arrival_hz,
        wl.fields,
        wl.zipf_s,
        wl.seed
    );
    type Runs = (
        foresight::ServeReport,
        foresight::ClusterReport,
        Option<foresight::ClusterReport>,
    );
    let healthy_opts = foresight::ClusterOptions {
        chaos: gpu_sim::NodeChaosPlan::quiet(),
        ..base_opts.clone()
    };
    let run = || -> foresight_util::Result<Runs> {
        let reqs = foresight::cluster_workload(&wl)?;
        let inner: Vec<foresight::ServeRequest> = reqs.iter().map(|r| r.req.clone()).collect();
        let serial = foresight::serve_serial(&spec.node, &healthy_opts.serve, &inner)?;
        let healthy = foresight::serve_cluster(&spec, &healthy_opts, &reqs)?;
        if healthy_only {
            return Ok((serial, healthy, None));
        }
        let mut chaos_opts = if base_opts.chaos.is_quiet() {
            // No schedule configured: kill one node halfway through the
            // healthy makespan (deterministic — derived from the healthy
            // run, not wall-clock).
            let victim = if spec.nodes > 1 { 1 } else { 0 };
            let at_s = healthy.makespan_s * 0.5;
            println!("chaos: injecting node-kill n{victim} @ {at_s:.6}s (mid-run)");
            let plan = gpu_sim::NodeChaosPlan::new(vec![gpu_sim::NodeFaultEvent {
                node: victim,
                kind: gpu_sim::NodeFaultKind::Crash,
                at_s,
                duration_s: 0.0,
                slow_factor: 1.0,
            }])?;
            foresight::ClusterOptions { chaos: plan, ..base_opts.clone() }
        } else {
            println!("chaos: {} configured fault(s)", base_opts.chaos.events().len());
            base_opts.clone()
        };
        // The chaos run is the observed one: request-scoped spans, the
        // windowed series, and flow-linked Chrome tracks all come from it
        // (the healthy run stays obs-off, pinning the zero-cost path).
        chaos_opts.serve.obs = Some(foresight::ObsOptions::default());
        // reset() also disables, so enable after it: the Chrome trace
        // should carry only the chaos run's timeline.
        telemetry::reset();
        telemetry::enable();
        let chaos = foresight::serve_cluster(&spec, &chaos_opts, &reqs)?;
        Ok((serial, healthy, Some(chaos)))
    };
    let (serial, healthy, chaos) = match run() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cluster-bench failed: {e}");
            std::process::exit(1);
        }
    };
    let mut table = Table::new([
        "run", "makespan_s", "GB/s", "done", "rej", "p50_ms", "p95_ms", "p99_ms",
    ]);
    let mut rows: Vec<(&str, &foresight::ClusterReport)> = vec![("healthy", &healthy)];
    if let Some(c) = &chaos {
        rows.push(("chaos", c));
    }
    for (name, r) in &rows {
        let lat = r.latency();
        table.push_row([
            name.to_string(),
            fmt_f64(r.makespan_s),
            fmt_f64(r.sustained_gbs),
            r.completed.to_string(),
            r.rejected.to_string(),
            fmt_f64(lat.map_or(0.0, |l| l.p50 * 1e3)),
            fmt_f64(lat.map_or(0.0, |l| l.p95 * 1e3)),
            fmt_f64(lat.map_or(0.0, |l| l.p99 * 1e3)),
        ]);
    }
    print!("{}", table.to_ascii());
    for (name, r) in &rows {
        println!(
            "{name}: failovers {} | redirects {} | timeouts {} | interrupted {} | cpu-fallbacks {} | shed(brownout) {} | breaker-flips {}",
            r.failovers,
            r.redirects,
            r.timeouts,
            r.interrupted,
            r.cpu_fallbacks,
            r.shed_brownout,
            r.breaker_transitions.len()
        );
    }
    // Conservation: nothing submitted may vanish — every request is
    // either executed or rejected-with-hint.
    let mut lost = 0usize;
    for (name, r) in &rows {
        if r.completed + r.rejected != r.submitted {
            eprintln!(
                "LOST REQUESTS ({name}): {} submitted but {} completed + {} rejected",
                r.submitted, r.completed, r.rejected
            );
            lost += r.submitted - (r.completed + r.rejected).min(r.submitted);
        }
    }
    // Byte identity: every executed request must match the single-node
    // serial reference bit-for-bit, chaos or not.
    let mut diverged = 0usize;
    for (name, r) in &rows {
        for resp in &r.responses {
            if let (Some(bytes), Some(reference)) = (&resp.output, serial.response(resp.id)) {
                if reference.output.as_ref() != Some(bytes) {
                    eprintln!(
                        "DIVERGENCE ({name}): request {} bytes differ from serial reference",
                        resp.id
                    );
                    diverged += 1;
                }
            }
        }
    }
    // The chaos run carries the observability payload: SLO verdicts over
    // its windowed series, and a request-span summary. Printed before the
    // artifact paths so CI logs always show the verdict table.
    let verdicts = chaos
        .as_ref()
        .and_then(|c| c.series.as_ref())
        .map(|s| obs::evaluate_slos(s, &slo_specs))
        .unwrap_or_default();
    if let Some(c) = &chaos {
        println!(
            "obs: {} span(s) across {} traced request(s)",
            c.obs.spans.len(),
            c.obs.request_ids().len()
        );
    }
    if !verdicts.is_empty() {
        let doc = Value::Object(vec![("slo".into(), obs::slo_to_value(&verdicts))]);
        print!("{}", obs::render_slo_section(&doc));
    }
    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create '{}': {e}", dir.display());
            std::process::exit(1);
        }
        let tpath = dir.join("telemetry.json");
        let mut doc = vec![("healthy".into(), healthy.metrics.to_json())];
        if let Some(c) = &chaos {
            doc.push(("chaos".into(), c.metrics.to_json()));
            if let Some(s) = &c.series {
                doc.push(("series".into(), s.to_value()));
                doc.push(("slo".into(), obs::slo_to_value(&verdicts)));
            }
        }
        let doc = Value::Object(doc);
        write_or_die(&tpath, "cluster metrics", || {
            std::fs::write(&tpath, doc.to_json())?;
            Ok(())
        });
        if let Some(c) = &chaos {
            let cpath = dir.join("cluster_trace.json");
            // Device lanes plus one track per request, with flow arrows
            // linking each request's spans across node processes.
            let mut snap = telemetry::snapshot();
            snap.spans.extend(c.obs.spans.iter().cloned());
            write_or_die(&cpath, "cluster chrome trace", || {
                trace::write_file(&cpath, &chrome_trace(&snap, ChromeTraceOptions::default()).to_json())
            });
        }
    }
    if lost > 0 || diverged > 0 {
        eprintln!(
            "{lost} lost request(s), {diverged} divergent request(s); cluster run is NOT sound"
        );
        std::process::exit(1);
    }
    println!("zero lost requests; outputs bit-identical to the serial reference");
    if verdicts.iter().any(|v| v.level == foresight::SloLevel::Page) {
        eprintln!("SLO PAGE: at least one objective is at page-level burn");
        std::process::exit(5);
    }
    std::process::exit(0);
}

/// Deterministic xorshift64* for synthetic store workloads.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

fn open_store_or_die(path: &str) -> foresight::StoreReader {
    match foresight::StoreReader::open(Path::new(path)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: cannot open archive '{path}': {e}");
            std::process::exit(1);
        }
    }
}

/// Parses `x0:x1,y0:y1,z0:z1` (1-3 comma-separated `lo:hi` spans,
/// half-open) into a region; missing trailing axes default to `0:1`.
fn parse_region(spec: &str) -> Option<foresight::Region> {
    let mut lo = [0usize; 3];
    let mut hi = [1usize; 3];
    let parts: Vec<&str> = spec.split(',').collect();
    if parts.is_empty() || parts.len() > 3 {
        return None;
    }
    for (i, part) in parts.iter().enumerate() {
        let (a, b) = part.split_once(':')?;
        lo[i] = a.trim().parse().ok()?;
        hi[i] = b.trim().parse().ok()?;
    }
    foresight::Region::new(lo, hi).ok()
}

fn fields_table(reader: &foresight::StoreReader) -> Table {
    let mut table = Table::new([
        "snap", "field", "shape", "chunk", "codec", "bound", "chunks", "bytes", "ratio",
    ]);
    for entry in reader.fields() {
        let ext = entry.shape().extents();
        let ch = entry.grid.chunk();
        let shape_s = match entry.shape().ndim() {
            1 => format!("{}", ext[0]),
            2 => format!("{}x{}", ext[0], ext[1]),
            _ => format!("{}x{}x{}", ext[0], ext[1], ext[2]),
        };
        table.push_row([
            entry.snapshot.to_string(),
            entry.name.clone(),
            shape_s,
            format!("{}x{}x{}", ch[0], ch[1], ch[2]),
            entry.codec.display().to_string(),
            entry.bound.label(entry.codec),
            entry.chunks.len().to_string(),
            entry.compressed_len().to_string(),
            fmt_f64(entry.ratio()),
        ]);
    }
    table
}

/// `store pack`: generate the configured dataset and seal it into a
/// chunked archive with the sweep's first codec configuration.
fn store_pack_main(mut args: impl Iterator<Item = String>) -> ! {
    let mut chunk_override: Option<usize> = None;
    let mut snapshot_override: Option<u32> = None;
    let mut positional: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--chunk" => {
                let Some(n) = args.next().and_then(|s| s.parse().ok()) else { usage_exit() };
                chunk_override = Some(n);
            }
            "--snapshot" => {
                let Some(s) = args.next().and_then(|s| s.parse().ok()) else { usage_exit() };
                snapshot_override = Some(s);
            }
            s if s.starts_with('-') => usage_exit(),
            _ => positional.push(arg),
        }
    }
    let [config_path, archive_path] = positional.as_slice() else { usage_exit() };
    let cfg = match ForesightConfig::from_file(config_path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot load '{config_path}': {e}");
            std::process::exit(1);
        }
    };
    let st = cfg.store.clone().unwrap_or_default();
    let chunk = chunk_override.unwrap_or(st.chunk);
    let snapshot = snapshot_override.unwrap_or(st.snapshot);
    let Some(codec) = cfg.codec_configs().into_iter().next() else {
        eprintln!("error: config has no compressor to pack with");
        std::process::exit(1);
    };
    let pack = || -> foresight_util::Result<usize> {
        let opts = cosmo_data::SynthOptions {
            n_side: cfg.input.n_side,
            box_size: cfg.input.box_size,
            seed: cfg.input.seed,
            steps: cfg.input.steps,
        };
        let mut writer = foresight::StoreWriter::new();
        match cfg.input.dataset {
            foresight::DatasetKind::Nyx => {
                let snap = cosmo_data::generate_nyx(&opts)?;
                let n = snap.n_side;
                for (name, data) in snap.fields() {
                    writer.add_field(
                        snapshot,
                        name,
                        data,
                        foresight::FieldShape::d3(n, n, n),
                        [chunk, chunk, chunk],
                        &codec,
                    )?;
                }
            }
            foresight::DatasetKind::Hacc => {
                let snap = cosmo_data::generate_hacc(&opts)?;
                for (name, data) in snap.fields() {
                    writer.add_field(
                        snapshot,
                        name,
                        data,
                        foresight::FieldShape::d1(data.len()),
                        [chunk * chunk * chunk, 1, 1],
                        &codec,
                    )?;
                }
            }
        }
        let n_fields = writer.field_count();
        writer.write_file(Path::new(archive_path))?;
        Ok(n_fields)
    };
    let n_fields = match pack() {
        Ok(n) => n,
        Err(e) => {
            eprintln!("store pack failed: {e}");
            std::process::exit(1);
        }
    };
    // Reopen through the reader so pack only reports archives it has
    // verified end to end (superblock, manifest, directory, chunk CRCs).
    let reader = open_store_or_die(archive_path);
    let check = match reader.verify() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("store pack verification failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "packed {n_fields} field(s) / {} chunk(s) with {} into {archive_path} ({} bytes)",
        check.chunks_ok,
        codec.label(),
        reader.superblock().archive_len
    );
    println!("manifest sha256 {}", reader.manifest_hex());
    std::process::exit(0);
}

/// `store ls`: the archive's directory as a table.
fn store_ls_main(mut args: impl Iterator<Item = String>) -> ! {
    let Some(archive_path) = args.next() else { usage_exit() };
    if args.next().is_some() {
        usage_exit();
    }
    let reader = open_store_or_die(&archive_path);
    let sb = reader.superblock();
    println!(
        "{archive_path}: v{} | {} field(s) | {} bytes | manifest sha256 {}",
        sb.version,
        reader.fields().len(),
        sb.archive_len,
        reader.manifest_hex()
    );
    print!("{}", fields_table(&reader).to_ascii());
    std::process::exit(0);
}

/// `store verify`: every chunk CRC and field payload digest, no decode.
fn store_verify_main(mut args: impl Iterator<Item = String>) -> ! {
    let Some(archive_path) = args.next() else { usage_exit() };
    if args.next().is_some() {
        usage_exit();
    }
    let reader = open_store_or_die(&archive_path);
    match reader.verify() {
        Ok(check) => {
            println!(
                "{archive_path}: OK — {} field digest(s), {} chunk CRC(s)",
                check.fields_ok, check.chunks_ok
            );
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("{archive_path}: CORRUPT — {e}");
            std::process::exit(1);
        }
    }
}

/// `store extract`: one field (or a subregion) as little-endian f32
/// bytes, decoding only intersecting chunks.
fn store_extract_main(mut args: impl Iterator<Item = String>) -> ! {
    let mut region: Option<foresight::Region> = None;
    let mut out: Option<PathBuf> = None;
    let mut positional: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--region" => {
                let Some(spec) = args.next() else { usage_exit() };
                let Some(r) = parse_region(&spec) else {
                    eprintln!("error: bad region '{spec}' (want x0:x1,y0:y1,z0:z1)");
                    std::process::exit(2);
                };
                region = Some(r);
            }
            "--out" => {
                let Some(p) = args.next() else { usage_exit() };
                out = Some(PathBuf::from(p));
            }
            s if s.starts_with('-') => usage_exit(),
            _ => positional.push(arg),
        }
    }
    let [archive_path, snapshot_s, field] = positional.as_slice() else { usage_exit() };
    let Ok(snapshot) = snapshot_s.parse::<u32>() else { usage_exit() };
    let reader = open_store_or_die(archive_path);
    let result = match region {
        Some(r) => reader.read_region(snapshot, field, r),
        None => reader.extract(snapshot, field),
    };
    let (values, stats) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("store extract failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "{} value(s) | {}/{} chunk(s) decoded, {} cache hit(s) | {} compressed byte(s) read | amplification {:.4}",
        values.len(),
        stats.chunks_decoded,
        stats.chunks_in_field,
        stats.cache_hits(),
        stats.compressed_bytes_read,
        stats.amplification()
    );
    if let Some(path) = &out {
        let mut bytes = Vec::with_capacity(values.len() * 4);
        for v in &values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        write_or_die(path, "extracted f32le values", || {
            if let Some(dir) = path.parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir)?;
                }
            }
            std::fs::write(path, &bytes)?;
            Ok(())
        });
    }
    std::process::exit(0);
}

/// `store serve`: a synthetic region-read workload served straight out
/// of the archive through both schedulers, with bit-identity
/// verification and store read-amplification counters.
fn store_serve_main(mut args: impl Iterator<Item = String>) -> ! {
    let mut out_dir: Option<PathBuf> = None;
    let mut requests: usize = 24;
    let mut seed: u64 = 7;
    let mut archive_path: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                let Some(p) = args.next() else { usage_exit() };
                out_dir = Some(PathBuf::from(p));
            }
            "--requests" => {
                let Some(n) = args.next().and_then(|s| s.parse().ok()) else { usage_exit() };
                requests = n;
            }
            "--seed" => {
                let Some(s) = args.next().and_then(|s| s.parse().ok()) else { usage_exit() };
                seed = s;
            }
            s if s.starts_with('-') => usage_exit(),
            _ if archive_path.is_some() => usage_exit(),
            _ => archive_path = Some(arg),
        }
    }
    let Some(archive_path) = archive_path else { usage_exit() };
    let store = std::sync::Arc::new(open_store_or_die(&archive_path));
    if store.fields().is_empty() {
        eprintln!("error: archive holds no fields");
        std::process::exit(1);
    }
    // Deterministic open-loop workload: each request reads a random
    // subregion (~quarter extent per axis) of a random field.
    let mut rng = seed.max(1);
    let reqs: Vec<foresight::ServeRequest> = (0..requests)
        .map(|i| {
            let entry = &store.fields()[(xorshift(&mut rng) as usize) % store.fields().len()];
            let ext = entry.shape().extents();
            let mut lo = [0usize; 3];
            let mut hi = [1usize; 3];
            for axis in 0..3 {
                if ext[axis] <= 1 {
                    continue;
                }
                let span = (ext[axis] / 4).max(1);
                lo[axis] = (xorshift(&mut rng) as usize) % (ext[axis] - span + 1);
                hi[axis] = lo[axis] + span;
            }
            foresight::ServeRequest {
                id: i as u64,
                arrival_s: i as f64 / 2000.0,
                deadline_s: None,
                payload: foresight::ServePayload::StoreRead {
                    store: store.clone(),
                    snapshot: entry.snapshot,
                    field: entry.name.clone(),
                    region: foresight::Region::new(lo, hi)
                        .expect("non-empty spans by construction"),
                },
            }
        })
        .collect();
    let node = foresight::ServeNode::summit();
    let opts = foresight::ServeOptions::default();
    println!(
        "store serve: {} request(s) over {} field(s), seed {seed}, {} device(s)",
        reqs.len(),
        store.fields().len(),
        node.devices
    );
    let run = || -> foresight_util::Result<(foresight::ServeReport, foresight::ServeReport)> {
        let serial = foresight::serve_serial(&node, &opts, &reqs)?;
        let batched = foresight::serve(&node, &opts, &reqs)?;
        Ok((serial, batched))
    };
    // The reports' `store.*` counters are the model's (every read priced
    // cacheless); what the host really decoded comes from the reader's
    // own telemetry, over both passes against the one shared reader.
    telemetry::reset();
    telemetry::enable();
    let result = run();
    let host = telemetry::snapshot().metrics;
    telemetry::disable();
    let (serial, batched) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("store serve failed: {e}");
            std::process::exit(1);
        }
    };
    let mut table = Table::new(["scheduler", "makespan_s", "GB/s", "batches", "p99_ms"]);
    for (name, r) in [("serial x1", &serial), (&format!("batched x{}", node.devices), &batched)]
    {
        table.push_row([
            name.to_string(),
            fmt_f64(r.makespan_s),
            fmt_f64(r.sustained_gbs),
            r.batches.to_string(),
            fmt_f64(r.latency().map_or(0.0, |l| l.p99 * 1e3)),
        ]);
    }
    print!("{}", table.to_ascii());
    let touched = batched.metrics.counter("store.bytes_touched");
    let returned = batched.metrics.counter("store.bytes_returned");
    println!(
        "store: {} chunk(s) decoded per pass in the model; host decoded {}, {} cache hit(s) over both | {touched} byte(s) touched / {returned} returned ({:.4}x amplification)",
        batched.metrics.counter("store.chunks_decoded"),
        host.counter("store.chunks_decoded"),
        host.counter("store.cache.hits"),
        if returned > 0 { touched as f64 / returned as f64 } else { 0.0 }
    );
    let mut diverged = 0usize;
    for b in &batched.responses {
        if let (Some(bo), Some(s)) = (&b.output, serial.response(b.id)) {
            if s.output.as_ref() != Some(bo) {
                eprintln!("DIVERGENCE: request {} bytes differ between schedulers", b.id);
                diverged += 1;
            }
        }
    }
    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create '{}': {e}", dir.display());
            std::process::exit(1);
        }
        let tpath = dir.join("telemetry.json");
        let doc = Value::Object(vec![
            ("serial".into(), serial.metrics.to_json()),
            ("batched".into(), batched.metrics.to_json()),
        ]);
        write_or_die(&tpath, "store serve metrics", || {
            std::fs::write(&tpath, doc.to_json())?;
            Ok(())
        });
    }
    if diverged > 0 {
        eprintln!("{diverged} request(s) diverged; store-backed serve is NOT bit-identical");
        std::process::exit(1);
    }
    println!("outputs bit-identical across schedulers");
    std::process::exit(0);
}

/// `store`: seekable-archive subcommand family.
fn store_main(mut args: impl Iterator<Item = String>) -> ! {
    match args.next().as_deref() {
        Some("pack") => store_pack_main(args),
        Some("ls") => store_ls_main(args),
        Some("verify") => store_verify_main(args),
        Some("extract") => store_extract_main(args),
        Some("serve") => store_serve_main(args),
        _ => usage_exit(),
    }
}

struct Cli {
    config: String,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    quiet: bool,
    memcheck: bool,
    racecheck: bool,
}

fn parse_args() -> Cli {
    let mut args = std::env::args().skip(1);
    let mut config = None;
    let mut trace_out = None;
    let mut metrics_out = None;
    let mut quiet = false;
    let mut memcheck = false;
    let mut racecheck = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "report" if config.is_none() => {
                let Some(path) = args.next() else { usage_exit() };
                report_main(&path);
            }
            "obs-report" if config.is_none() => {
                let Some(path) = args.next() else { usage_exit() };
                obs_report_main(&path);
            }
            "serve-bench" if config.is_none() => {
                serve_bench_main(args);
            }
            "cluster-bench" if config.is_none() => {
                cluster_bench_main(args);
            }
            "store" if config.is_none() => {
                store_main(args);
            }
            "--trace" => {
                let Some(p) = args.next() else { usage_exit() };
                trace_out = Some(PathBuf::from(p));
            }
            "--metrics-out" => {
                let Some(p) = args.next() else { usage_exit() };
                metrics_out = Some(PathBuf::from(p));
            }
            "--memcheck" => memcheck = true,
            "--racecheck" => racecheck = true,
            "--quiet" | "-q" => quiet = true,
            s if s.starts_with('-') => usage_exit(),
            _ if config.is_some() => usage_exit(),
            _ => config = Some(arg),
        }
    }
    let Some(config) = config else { usage_exit() };
    Cli { config, trace_out, metrics_out, quiet, memcheck, racecheck }
}

fn write_or_die(path: &Path, what: &str, write: impl FnOnce() -> foresight_util::Result<()>) {
    if let Err(e) = write() {
        eprintln!("error: cannot write {what} '{}': {e}", path.display());
        std::process::exit(1);
    }
    println!("{what}: {}", path.display());
}

fn main() {
    let cli = parse_args();
    let want_telemetry = cli.trace_out.is_some() || cli.metrics_out.is_some();
    if want_telemetry {
        telemetry::enable();
    }
    let mut cfg = match ForesightConfig::from_file(&cli.config) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot load '{}': {e}", cli.config);
            std::process::exit(1);
        }
    };
    if cli.memcheck || cli.racecheck {
        // Flags merge with the config's sanitize section by OR, so
        // `--racecheck` can widen a memcheck-only config and vice versa.
        let base = cfg
            .sanitize
            .unwrap_or(foresight::SanitizeSettings { memcheck: false, racecheck: false });
        cfg.sanitize = Some(foresight::SanitizeSettings {
            memcheck: base.memcheck || cli.memcheck,
            racecheck: base.racecheck || cli.racecheck,
        });
    }
    println!(
        "foresight: dataset={:?} n_side={} | {} codec configs | analyses {:?}{}{}",
        cfg.input.dataset,
        cfg.input.n_side,
        cfg.codec_configs().len(),
        cfg.analysis,
        match &cfg.chaos {
            Some(ch) => format!(" | chaos seed={}", ch.seed),
            None => String::new(),
        },
        match &cfg.sanitize {
            Some(s) => format!(
                " | sanitize={}",
                match (s.memcheck, s.racecheck) {
                    (true, true) => "memcheck+racecheck",
                    (true, false) => "memcheck",
                    _ => "racecheck",
                }
            ),
            None => String::new(),
        }
    );
    match run_pipeline(&cfg, &SlurmSim::default()) {
        Ok(report) => {
            println!("\n== PAT workflow ==");
            for j in &report.workflow.jobs {
                println!(
                    "wave {} | {:<12} | {:<16} | {:>7.2}s | {}",
                    j.wave,
                    j.name,
                    j.status.label(),
                    j.wall_seconds,
                    j.output
                );
            }
            if !cli.quiet && !report.records.is_empty() {
                let mut table =
                    Table::new(["field", "compressor", "param", "ratio", "bitrate", "psnr_db"]);
                for r in &report.records {
                    table.push_row([
                        r.field.clone(),
                        r.compressor.display().to_string(),
                        r.param.clone(),
                        fmt_f64(r.ratio),
                        fmt_f64(r.bitrate),
                        fmt_f64(r.distortion.psnr),
                    ]);
                }
                println!("\n== records ==");
                print!("{}", table.to_ascii());
            }
            if !report.resilience.is_empty() {
                println!("\n== resilience ==");
                for line in &report.resilience {
                    println!("{line}");
                }
            }
            if cfg.sanitize.is_some() {
                println!("\n== sanitizer ==");
                if report.sanitizer.is_empty() {
                    println!("clean: no memcheck or racecheck findings");
                } else {
                    for line in &report.sanitizer {
                        println!("{line}");
                    }
                }
            }
            if !report.slo.is_empty() {
                let doc = Value::Object(vec![("slo".into(), obs::slo_to_value(&report.slo))]);
                println!("\n{}", obs::render_slo_section(&doc));
            }
            for line in &report.best_fit_lines {
                println!("{line}");
            }
            if report.artifacts > 0 {
                println!(
                    "{} artifacts in {}",
                    report.artifacts,
                    cfg.output.dir.display()
                );
            }
            if want_telemetry {
                let snap = telemetry::snapshot();
                if let Some(path) = &cli.trace_out {
                    write_or_die(path, "chrome trace", || {
                        trace::write_file(path, &chrome_trace(&snap, ChromeTraceOptions::default()).to_json())
                    });
                    let folded = path.with_extension("folded");
                    write_or_die(&folded, "flamegraph", || {
                        trace::write_file(&folded, &flamegraph(&snap))
                    });
                }
                if let Some(path) = &cli.metrics_out {
                    let doc = Value::Object(vec![
                        ("global".into(), snap.metrics.to_json()),
                        ("run".into(), report.metrics.to_json()),
                    ]);
                    write_or_die(path, "metrics", || {
                        if let Some(dir) = path.parent() {
                            std::fs::create_dir_all(dir)?;
                        }
                        std::fs::write(path, doc.to_json())?;
                        Ok(())
                    });
                }
                println!(
                    "telemetry report: {}",
                    cfg.output.dir.join("telemetry").join("telemetry.json").display()
                );
            }
            if !report.workflow.all_ok() {
                eprintln!("\n== job failures ==");
                eprint!("{}", report.workflow.failure_summary());
                std::process::exit(3);
            }
            if !report.sanitizer.is_empty() {
                eprintln!(
                    "\n{} sanitizer finding(s); see the == sanitizer == section",
                    report.sanitizer.len()
                );
                std::process::exit(4);
            }
            if report.slo.iter().any(|v| v.level == foresight::SloLevel::Page) {
                eprintln!("\nSLO PAGE: at least one objective is at page-level burn");
                std::process::exit(5);
            }
        }
        Err(e) => {
            eprintln!("pipeline failed: {e}");
            std::process::exit(1);
        }
    }
}

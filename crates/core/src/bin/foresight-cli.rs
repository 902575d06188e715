//! Foresight command-line interface: run a full pipeline from a JSON
//! configuration file, as the original tool does. Every command is one
//! `flags!` declaration below; README "Command line" is their generated
//! usage text and has the exit-code table.
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

use foresight::obs;
use foresight::runner::run_pipeline;
use foresight::trace;
use foresight::{ForesightConfig, Region, ServeReport, SlurmSim, StoreReader};
use foresight_util::cli::{self, Context, Entry, Failure};
use foresight_util::flags;
use foresight_util::json::Value;
use foresight_util::table::{fmt_f64, Table};
use foresight_util::telemetry::{self, chrome_trace, flamegraph, ChromeTraceOptions};
use foresight_util::telemetry::{HistogramSummary, TelemetrySnapshot};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

flags! {
    /// One pipeline run.
    pub struct Run = "foresight-cli" {
        /// write a Chrome trace there, and a flamegraph beside it (.folded)
        pub trace: Option<PathBuf> as "--trace" "<path>";
        /// write the metrics registries there as JSON
        pub metrics_out: Option<PathBuf> as "--metrics-out" "<path>";
        /// attach the device memcheck to every simulated-GPU run
        pub memcheck: bool as "--memcheck";
        /// attach the device racecheck to every simulated-GPU run
        pub racecheck: bool as "--racecheck";
        /// leave out the per-record table
        pub quiet: bool as "--quiet" | "-q";
        /// the pipeline's JSON config (README "Configuration")
        pub config: String as "<config.json>";
    }
}

flags! {
    /// Per-phase and per-stage tables of a written `telemetry.json`.
    pub struct Report = "foresight-cli report" {
        /// a telemetry.json the pipeline wrote
        pub telemetry: String as "<telemetry.json>";
    }
}

flags! {
    /// The observability slice of a written `telemetry.json`.
    pub struct ObsReport = "foresight-cli obs-report" {
        /// a telemetry.json with series and slo keys
        pub telemetry: String as "<telemetry.json>";
    }
}

flags! {
    /// Serial-vs-batched scheduler comparison on one synthetic workload.
    pub struct ServeBench = "foresight-cli serve-bench" {
        /// write telemetry.json and serve_trace.json into <dir>
        pub out: Option<PathBuf> as "--out" "<dir>";
        /// requests in the workload (default: the config's)
        pub requests: Option<usize> as "--requests" "<n>";
        /// workload seed (default: the config's)
        pub seed: Option<u64> as "--seed" "<s>";
        /// a config whose serve and chaos sections set the run
        pub config: Option<String> as "<config.json>";
    }
}

flags! {
    /// Healthy-vs-chaos comparison of the multi-node router.
    pub struct ClusterBench = "foresight-cli cluster-bench" {
        /// write telemetry.json and cluster_trace.json into <dir>
        pub out: Option<PathBuf> as "--out" "<dir>";
        /// requests in the workload (default: the config's)
        pub requests: Option<usize> as "--requests" "<n>";
        /// workload seed (default: the config's)
        pub seed: Option<u64> as "--seed" "<s>";
        /// skip the chaos run
        pub healthy_only: bool as "--healthy-only";
        /// a config whose cluster and slo sections set the run
        pub config: Option<String> as "<config.json>";
    }
}

flags! {
    /// Generates the configured dataset and seals it into an archive.
    pub struct StorePack = "foresight-cli store pack" {
        /// its input and first codec set the archive's contents
        pub config: String as "<config.json>";
        /// the archive to write
        pub archive: String as "<archive>";
        /// chunk side (default: the config's store.chunk)
        pub chunk: Option<usize> as "--chunk" "<n>";
        /// snapshot id (default: the config's store.snapshot)
        pub snapshot: Option<u32> as "--snapshot" "<s>";
    }
}

flags! {
    /// The archive's directory as a table.
    pub struct StoreLs = "foresight-cli store ls" {
        /// an .fstr archive
        pub archive: String as "<archive>";
    }
}

flags! {
    /// Every chunk CRC and field digest, without decoding.
    pub struct StoreVerify = "foresight-cli store verify" {
        /// an .fstr archive
        pub archive: String as "<archive>";
    }
}

flags! {
    /// One field, or a region of it, as little-endian f32 bytes.
    pub struct StoreExtract = "foresight-cli store extract" {
        /// an .fstr archive
        pub archive: String as "<archive>";
        /// snapshot id
        pub snapshot: u32 as "<snapshot>";
        /// field name
        pub field: String as "<field>";
        /// read only this half-open box, decoding only the chunks it meets
        pub region: Option<Region> as "--region" "x0:x1,y0:y1,z0:z1";
        /// write the values there
        pub out: Option<PathBuf> as "--out" "<file>";
    }
}

flags! {
    /// A synthetic region-read workload served out of an archive.
    pub struct StoreServe = "foresight-cli store serve" {
        /// an .fstr archive
        pub archive: String as "<archive>";
        /// requests in the workload
        pub requests: usize as "--requests" "<n>" = 24;
        /// workload seed
        pub seed: u64 as "--seed" "<s>" = 7;
        /// write telemetry.json into <dir>
        pub out: Option<PathBuf> as "--out" "<dir>";
    }
}

/// Every command; `dispatch` picks one by the words of its name.
const COMMANDS: &[Entry] = &[
    Entry { command: Run::command, run: |a, s| pipeline(Run::parse(a, s)?) },
    Entry { command: Report::command, run: |a, s| report(Report::parse(a, s)?) },
    Entry { command: ObsReport::command, run: |a, s| obs_report(ObsReport::parse(a, s)?) },
    Entry { command: ServeBench::command, run: |a, s| serve_bench(ServeBench::parse(a, s)?) },
    Entry { command: ClusterBench::command, run: |a, s| cluster_bench(ClusterBench::parse(a, s)?) },
    Entry { command: StorePack::command, run: |a, s| store_pack(StorePack::parse(a, s)?) },
    Entry { command: StoreLs::command, run: |a, s| store_ls(StoreLs::parse(a, s)?) },
    Entry { command: StoreVerify::command, run: |a, s| store_verify(StoreVerify::parse(a, s)?) },
    Entry { command: StoreExtract::command, run: |a, s| store_extract(StoreExtract::parse(a, s)?) },
    Entry { command: StoreServe::command, run: |a, s| store_serve(StoreServe::parse(a, s)?) },
];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    cli::exit(cli::dispatch(&argv, COMMANDS), || cli::usage(COMMANDS))
}

fn load_config(path: &str) -> Result<ForesightConfig, Failure> {
    ForesightConfig::from_file(path).context(format_args!("error: cannot load '{path}'"))
}

fn open_store(path: &str) -> Result<StoreReader, Failure> {
    StoreReader::open(Path::new(path)).context(format_args!("error: cannot open archive '{path}'"))
}

/// Writes `contents` to `path`, creating its directory, and names the
/// file on stdout as `what`.
fn write(path: &Path, what: &str, contents: &[u8]) -> Result<(), Failure> {
    path.parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, contents))
        .context(format_args!("error: cannot write {what} '{}'", path.display()))?;
    println!("{what}: {}", path.display());
    Ok(())
}

/// `--out` of a serving command: `doc` as `telemetry.json`, and with
/// `trace` the Chrome trace of a snapshot, each named `what …` on stdout.
fn write_out(
    dir: &Path,
    what: &str,
    doc: Value,
    trace: Option<(&str, TelemetrySnapshot)>,
) -> Result<(), Failure> {
    write(&dir.join("telemetry.json"), &format!("{what} metrics"), doc.to_json().as_bytes())?;
    if let Some((file, snap)) = trace {
        let json = chrome_trace(&snap, ChromeTraceOptions::default()).to_json();
        write(&dir.join(file), &format!("{what} chrome trace"), json.as_bytes())?;
    }
    Ok(())
}

/// p50 / p95 / p99 latency in ms, zeros for a run with none.
fn latency_ms(latency: Option<HistogramSummary>) -> [String; 3] {
    let ms = |q: fn(&HistogramSummary) -> f64| fmt_f64(latency.as_ref().map_or(0.0, q) * 1e3);
    [ms(|l| l.p50), ms(|l| l.p95), ms(|l| l.p99)]
}

/// Counts the `(id, output)` responses of `run` whose bytes differ from
/// the serial reference's, naming each on stderr: scheduling must never
/// change results.
fn divergences<'a>(
    serial: &ServeReport,
    run: &str,
    outputs: impl IntoIterator<Item = (u64, &'a Option<Vec<u8>>)>,
) -> usize {
    let mut diverged = 0;
    for (id, output) in outputs {
        if let (Some(bytes), Some(reference)) = (output, serial.response(id)) {
            if reference.output.as_ref() != Some(bytes) {
                eprintln!("DIVERGENCE ({run}): request {id} bytes differ from the serial reference");
                diverged += 1;
            }
        }
    }
    diverged
}

fn slo_page() -> Failure {
    Failure::new(cli::SLO_PAGE, "SLO PAGE: at least one objective is at page-level burn")
}

fn report(args: Report) -> Result<(), Failure> {
    let doc = cli::load_json(&args.telemetry)?;
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
    Ok(())
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
fn obs_report(args: ObsReport) -> Result<(), Failure> {
    let doc = cli::load_json(&args.telemetry)?;
    match series_summary(&doc) {
        Some(line) => println!("{line}"),
        None => println!("series: none recorded (run with an `slo` config section or obs on)"),
    }
    let slo = obs::render_slo_section(&doc);
    if slo.is_empty() {
        println!("slo: no verdicts in this report");
        return Ok(());
    }
    print!("{slo}");
    if obs::any_page(&doc) {
        return Err(slo_page());
    }
    Ok(())
}

/// `serve-bench`: serial-vs-batched scheduler comparison on one
/// synthetic workload, with bit-identity verification.
fn serve_bench(args: ServeBench) -> Result<(), Failure> {
    let (settings, rates) = match &args.config {
        None => (foresight::ServeSettings::default(), gpu_sim::FaultRates::default()),
        Some(path) => {
            let cfg = load_config(path)?;
            (cfg.serve.unwrap_or_default(), cfg.chaos.map(|c| c.fault_rates()).unwrap_or_default())
        }
    };
    let node = settings.to_node();
    let opts = settings.to_serve_options(rates);
    let mut wl = settings.to_workload_spec();
    wl.requests = args.requests.unwrap_or(wl.requests);
    wl.seed = args.seed.unwrap_or(wl.seed);
    println!(
        "serve-bench: {} device(s), link {} GB/s, {} requests @ {:.0}/s, seed {}",
        node.devices, node.link.bandwidth_gbs, wl.requests, wl.arrival_hz, wl.seed
    );
    let run = || -> foresight_util::Result<(ServeReport, ServeReport)> {
        let reqs = foresight::synth_workload(&wl)?;
        let serial = foresight::serve_serial(&node, &opts, &reqs)?;
        // reset() also disables, so enable after it: the Chrome trace
        // should carry only the batched run's device lanes.
        telemetry::reset();
        telemetry::enable();
        let batched = foresight::serve(&node, &opts, &reqs)?;
        Ok((serial, batched))
    };
    let (serial, batched) = run().context("serve-bench failed")?;
    let mut table = Table::new(["scheduler", "makespan_s", "GB/s", "batches", "p50_ms", "p95_ms", "p99_ms"]);
    for (name, r) in [("serial x1", &serial), (&format!("batched x{}", node.devices), &batched)] {
        let [p50, p95, p99] = latency_ms(r.latency());
        let (makespan, gbs) = (fmt_f64(r.makespan_s), fmt_f64(r.sustained_gbs));
        table.push_row([name.to_string(), makespan, gbs, r.batches.to_string(), p50, p95, p99]);
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
    let diverged = divergences(&serial, "batched", batched.responses.iter().map(|r| (r.id, &r.output)));
    if let Some(dir) = &args.out {
        let doc = Value::Object(vec![
            ("serial".into(), serial.metrics.to_json()),
            ("batched".into(), batched.metrics.to_json()),
            ("speedup".into(), Value::Number(speedup)),
        ]);
        write_out(dir, "serve", doc, Some(("serve_trace.json", telemetry::snapshot())))?;
    }
    if diverged > 0 {
        let msg = format!("{diverged} request(s) diverged; batched output is NOT bit-identical");
        return Err(Failure::new(cli::FAILURE, msg));
    }
    println!("outputs bit-identical across schedulers");
    Ok(())
}

/// `cluster-bench`: healthy-vs-chaos comparison of the multi-node
/// router, with lost-request and byte-identity verification.
fn cluster_bench(args: ClusterBench) -> Result<(), Failure> {
    let (settings, slo_cfg) = match &args.config {
        None => (foresight::ClusterSettings::default(), None),
        Some(path) => {
            let cfg = load_config(path)?;
            (cfg.cluster.unwrap_or_default(), cfg.slo)
        }
    };
    // SLOs come from the config's `slo` section; with none configured the
    // chaos run is still judged against a generous default latency
    // objective, so the burn-rate path is always exercised.
    let slo_specs: Vec<foresight::SloSpec> = match &slo_cfg {
        Some(list) => list.iter().map(|s| s.to_spec()).collect(),
        None => vec![foresight::SloSpec::new("cluster.latency.p99", 50.0, 0.004)],
    };
    let spec = settings.to_cluster();
    let base_opts = settings.to_cluster_options().context("error: bad cluster settings")?;
    let mut wl = settings.to_workload_spec();
    wl.requests = args.requests.unwrap_or(wl.requests);
    wl.seed = args.seed.unwrap_or(wl.seed);
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
    type Runs = (ServeReport, foresight::ClusterReport, Option<foresight::ClusterReport>);
    let healthy_opts = foresight::ClusterOptions {
        chaos: gpu_sim::NodeChaosPlan::quiet(),
        ..base_opts.clone()
    };
    let run = || -> foresight_util::Result<Runs> {
        let reqs = foresight::cluster_workload(&wl)?;
        let inner: Vec<foresight::ServeRequest> = reqs.iter().map(|r| r.req.clone()).collect();
        let serial = foresight::serve_serial(&spec.node, &healthy_opts.serve, &inner)?;
        let healthy = foresight::serve_cluster(&spec, &healthy_opts, &reqs)?;
        if args.healthy_only {
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
    let (serial, healthy, chaos) = run().context("cluster-bench failed")?;
    let mut table = Table::new([
        "run", "makespan_s", "GB/s", "done", "rej", "p50_ms", "p95_ms", "p99_ms",
    ]);
    let mut rows: Vec<(&str, &foresight::ClusterReport)> = vec![("healthy", &healthy)];
    if let Some(c) = &chaos {
        rows.push(("chaos", c));
    }
    for (name, r) in &rows {
        let [p50, p95, p99] = latency_ms(r.latency());
        let (makespan, gbs) = (fmt_f64(r.makespan_s), fmt_f64(r.sustained_gbs));
        let (done, rej) = (r.completed.to_string(), r.rejected.to_string());
        table.push_row([name.to_string(), makespan, gbs, done, rej, p50, p95, p99]);
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
    // either executed or rejected-with-hint. Byte identity: every
    // executed request must match the single-node serial reference
    // bit-for-bit, chaos or not.
    let (mut lost, mut diverged) = (0usize, 0usize);
    for (name, r) in &rows {
        if r.completed + r.rejected != r.submitted {
            eprintln!(
                "LOST REQUESTS ({name}): {} submitted but {} completed + {} rejected",
                r.submitted, r.completed, r.rejected
            );
            lost += r.submitted - (r.completed + r.rejected).min(r.submitted);
        }
        diverged += divergences(&serial, name, r.responses.iter().map(|r| (r.id, &r.output)));
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
    if let Some(dir) = &args.out {
        let mut doc = vec![("healthy".into(), healthy.metrics.to_json())];
        if let Some(c) = &chaos {
            doc.push(("chaos".into(), c.metrics.to_json()));
            if let Some(s) = &c.series {
                doc.push(("series".into(), s.to_value()));
                doc.push(("slo".into(), obs::slo_to_value(&verdicts)));
            }
        }
        // Device lanes plus one track per request, with flow arrows
        // linking each request's spans across node processes.
        let trace = chaos.as_ref().map(|c| {
            let mut snap = telemetry::snapshot();
            snap.spans.extend(c.obs.spans.iter().cloned());
            ("cluster_trace.json", snap)
        });
        write_out(dir, "cluster", Value::Object(doc), trace)?;
    }
    if lost > 0 || diverged > 0 {
        let msg = format!(
            "{lost} lost request(s), {diverged} divergent request(s); cluster run is NOT sound"
        );
        return Err(Failure::new(cli::FAILURE, msg));
    }
    println!("zero lost requests; outputs bit-identical to the serial reference");
    if verdicts.iter().any(|v| v.level == foresight::SloLevel::Page) {
        return Err(slo_page());
    }
    Ok(())
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

fn fields_table(reader: &StoreReader) -> Table {
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
            entry.bound_label(),
            entry.chunks.len().to_string(),
            entry.compressed_len().to_string(),
            fmt_f64(entry.ratio()),
        ]);
    }
    table
}

/// `store pack`: generate the configured dataset and seal it into a
/// chunked archive with the sweep's first codec configuration.
fn store_pack(args: StorePack) -> Result<(), Failure> {
    let cfg = load_config(&args.config)?;
    let st = cfg.store.clone().unwrap_or_default();
    let chunk = args.chunk.unwrap_or(st.chunk);
    let snapshot = args.snapshot.unwrap_or(st.snapshot);
    let Some(codec) = cfg.codec_configs().into_iter().next() else {
        return Err(Failure::new(cli::FAILURE, "error: config has no compressor to pack with"));
    };
    let pack = || -> foresight_util::Result<usize> {
        let mut writer = foresight::StoreWriter::new();
        for f in foresight::runner::generate(&cfg.input)? {
            writer.add_field(snapshot, &f.name, &f.data, f.shape, [chunk, chunk, chunk], &codec)?;
        }
        let n_fields = writer.field_count();
        writer.write_file(Path::new(&args.archive))?;
        Ok(n_fields)
    };
    let n_fields = pack().context("store pack failed")?;
    // Reopen through the reader so pack only reports archives it has
    // verified end to end (superblock, manifest, directory, chunk CRCs).
    let reader = open_store(&args.archive)?;
    let check = reader.verify().context("store pack verification failed")?;
    println!(
        "packed {n_fields} field(s) / {} chunk(s) with {} into {} ({} bytes)",
        check.chunks_ok,
        codec.label(),
        args.archive,
        reader.superblock().archive_len
    );
    println!("manifest sha256 {}", reader.manifest_hex());
    Ok(())
}

/// `store ls`: the archive's directory as a table.
fn store_ls(args: StoreLs) -> Result<(), Failure> {
    let reader = open_store(&args.archive)?;
    let sb = reader.superblock();
    println!(
        "{}: v{} | {} field(s) | {} bytes | manifest sha256 {}",
        args.archive,
        sb.version,
        reader.fields().len(),
        sb.archive_len,
        reader.manifest_hex()
    );
    print!("{}", fields_table(&reader).to_ascii());
    Ok(())
}

/// `store verify`: every chunk CRC and field payload digest, no decode.
fn store_verify(args: StoreVerify) -> Result<(), Failure> {
    let reader = open_store(&args.archive)?;
    let check = reader
        .verify()
        .map_err(|e| Failure::new(cli::FAILURE, format!("{}: CORRUPT — {e}", args.archive)))?;
    println!(
        "{}: OK — {} field digest(s), {} chunk CRC(s)",
        args.archive, check.fields_ok, check.chunks_ok
    );
    Ok(())
}

/// `store extract`: one field (or a subregion) as little-endian f32
/// bytes, decoding only intersecting chunks.
fn store_extract(args: StoreExtract) -> Result<(), Failure> {
    let reader = open_store(&args.archive)?;
    let (values, stats) = match args.region {
        Some(r) => reader.read_region(args.snapshot, &args.field, r),
        None => reader.extract(args.snapshot, &args.field),
    }
    .context("store extract failed")?;
    println!(
        "{} value(s) | {}/{} chunk(s) decoded, {} cache hit(s) | {} compressed byte(s) read | amplification {:.4}",
        values.len(),
        stats.chunks_decoded,
        stats.chunks_in_field,
        stats.cache_hits(),
        stats.compressed_bytes_read,
        stats.amplification()
    );
    if let Some(path) = &args.out {
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        write(path, "extracted f32le values", &bytes)?;
    }
    Ok(())
}

/// `store serve`: a synthetic region-read workload served straight out
/// of the archive through both schedulers, with bit-identity
/// verification and store read-amplification counters.
fn store_serve(args: StoreServe) -> Result<(), Failure> {
    let store = std::sync::Arc::new(open_store(&args.archive)?);
    if store.fields().is_empty() {
        return Err(Failure::new(cli::FAILURE, "error: archive holds no fields"));
    }
    // Deterministic open-loop workload: each request reads a random
    // subregion (~quarter extent per axis) of a random field.
    let mut rng = args.seed.max(1);
    let reqs: Vec<foresight::ServeRequest> = (0..args.requests)
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
                    region: Region::new(lo, hi).expect("non-empty spans by construction"),
                },
            }
        })
        .collect();
    let node = foresight::ServeNode::summit();
    let opts = foresight::ServeOptions::default();
    println!(
        "store serve: {} request(s) over {} field(s), seed {}, {} device(s)",
        reqs.len(),
        store.fields().len(),
        args.seed,
        node.devices
    );
    let run = || -> foresight_util::Result<(ServeReport, ServeReport)> {
        let serial = foresight::serve_serial(&node, &opts, &reqs)?;
        let batched = foresight::serve(&node, &opts, &reqs)?;
        Ok((serial, batched))
    };
    // The reports' `store.*` counters are the model's (every read priced
    // cacheless); the host's chunk reads come from the reader's own
    // telemetry, over both passes against the one shared reader. How
    // they split into decodes and cache hits depends on which worker
    // wins a race, so only their sum is printed.
    telemetry::reset();
    telemetry::enable();
    let result = run();
    let host = telemetry::snapshot().metrics;
    telemetry::disable();
    let (serial, batched) = result.context("store serve failed")?;
    let mut table = Table::new(["scheduler", "makespan_s", "GB/s", "batches", "p99_ms"]);
    for (name, r) in [("serial x1", &serial), (&format!("batched x{}", node.devices), &batched)] {
        let [_, _, p99] = latency_ms(r.latency());
        let (makespan, gbs) = (fmt_f64(r.makespan_s), fmt_f64(r.sustained_gbs));
        table.push_row([name.to_string(), makespan, gbs, r.batches.to_string(), p99]);
    }
    print!("{}", table.to_ascii());
    let touched = batched.metrics.counter("store.bytes_touched");
    let returned = batched.metrics.counter("store.bytes_returned");
    println!(
        "store: {} chunk(s) decoded per pass in the model; {} host chunk read(s) over both | {touched} byte(s) touched / {returned} returned ({:.4}x amplification)",
        batched.metrics.counter("store.chunks_decoded"),
        host.counter("store.chunks_read"),
        if returned > 0 { touched as f64 / returned as f64 } else { 0.0 }
    );
    let diverged = divergences(&serial, "batched", batched.responses.iter().map(|r| (r.id, &r.output)));
    if let Some(dir) = &args.out {
        let doc = Value::Object(vec![
            ("serial".into(), serial.metrics.to_json()),
            ("batched".into(), batched.metrics.to_json()),
        ]);
        write_out(dir, "store serve", doc, None)?;
    }
    if diverged > 0 {
        let msg = format!("{diverged} request(s) diverged; store-backed serve is NOT bit-identical");
        return Err(Failure::new(cli::FAILURE, msg));
    }
    println!("outputs bit-identical across schedulers");
    Ok(())
}

/// The default command: one pipeline run from a JSON config.
fn pipeline(cli: Run) -> Result<(), Failure> {
    let want_telemetry = cli.trace.is_some() || cli.metrics_out.is_some();
    if want_telemetry {
        telemetry::enable();
    }
    let mut cfg = load_config(&cli.config)?;
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
    let report = run_pipeline(&cfg, &SlurmSim::default()).context("pipeline failed")?;
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
        println!("\n== records ==");
        print!("{}", foresight::runner::candidate_table(&report.candidates).to_ascii());
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
        println!("{} artifacts in {}", report.artifacts, cfg.output.dir.display());
    }
    if want_telemetry {
        let snap = telemetry::snapshot();
        if let Some(path) = &cli.trace {
            let json = chrome_trace(&snap, ChromeTraceOptions::default()).to_json();
            write(path, "chrome trace", json.as_bytes())?;
            write(&path.with_extension("folded"), "flamegraph", flamegraph(&snap).as_bytes())?;
        }
        if let Some(path) = &cli.metrics_out {
            let doc = Value::Object(vec![
                ("global".into(), snap.metrics.to_json()),
                ("run".into(), report.metrics.to_json()),
            ]);
            write(path, "metrics", doc.to_json().as_bytes())?;
        }
        println!(
            "telemetry report: {}",
            cfg.output.dir.join("telemetry").join("telemetry.json").display()
        );
    }
    if !report.workflow.all_ok() {
        let summary = report.workflow.failure_summary();
        let summary = summary.strip_suffix('\n').unwrap_or(&summary);
        return Err(Failure::new(cli::JOBS_FAILED, format!("\n== job failures ==\n{summary}")));
    }
    if !report.sanitizer.is_empty() {
        let n = report.sanitizer.len();
        let msg = format!("\n{n} sanitizer finding(s); see the == sanitizer == section");
        return Err(Failure::new(cli::SANITIZER, msg));
    }
    if report.slo.iter().any(|v| v.level == foresight::SloLevel::Page) {
        return Err(slo_page());
    }
    Ok(())
}

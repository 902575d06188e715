//! End-to-end pipeline runner: everything a `ForesightConfig` describes,
//! executed as PAT jobs — generate, CBench, analyses, report.
//!
//! This is the library behind the `foresight-cli` binary and the
//! `foresight_pipeline` example; tests drive it directly.

use crate::cbench::{
    run_sweep, run_sweep_chaos, CBenchRecord, ChaosConfig, ExecPath, FieldData, QuarantinedPair,
};
use crate::cinema::CinemaDb;
use crate::codec::Shape;
use crate::config::{AnalysisKind, DatasetKind, ForesightConfig};
use crate::gpu_backend::gpu_compress;
use crate::optimizer::{best_fit_per_field, overall_best_ratio, Acceptance, Candidate};
use crate::pat::{Job, RetryPolicy, SlurmSim, Workflow, WorkflowReport};
use crate::CompressorId;
use cosmo_analysis::{
    friends_of_friends, halo_count_ratio, linking_length_for, pk_ratio, power_spectrum_f32,
};
use cosmo_fft::Grid3;
use foresight_util::table::{fmt_f64, Table};
use foresight_util::telemetry::{self, Metrics, MetricsRegistry, TelemetrySnapshot, WindowSeries};
use foresight_util::{Error, Result};
use gpu_sim::{Device, FaultPlan, FaultRates, GpuSpec};
use parking_lot::Mutex;
use std::sync::Arc;

/// Everything a pipeline run produces.
#[derive(Debug)]
pub struct PipelineReport {
    /// CBench measurement rows.
    pub records: Vec<CBenchRecord>,
    /// Post-analysis candidates (deviations filled per requested analysis).
    pub candidates: Vec<Candidate>,
    /// Best-fit summary lines (one per compressor), when computable.
    pub best_fit_lines: Vec<String>,
    /// The PAT execution report.
    pub workflow: WorkflowReport,
    /// Artifacts written (paths relative to the output dir).
    pub artifacts: usize,
    /// Resilience events (quarantined pairs, fallback counts) from a
    /// chaos-enabled run; empty on quiet runs. Rendered from [`Self::metrics`]
    /// and [`Self::quarantined`] by [`crate::trace::resilience_lines`], so
    /// this text can never disagree with the machine-readable report.
    pub resilience: Vec<String>,
    /// Per-run metrics registry snapshot (always collected, even with the
    /// global telemetry collector off): resilience gauges, plus anything
    /// stages recorded.
    pub metrics: Metrics,
    /// Pairs quarantined by the chaos sweep, structurally (not as
    /// pre-rendered strings); empty on quiet runs.
    pub quarantined: Vec<QuarantinedPair>,
    /// Device-sanitizer findings (memcheck/racecheck diagnostics and leak
    /// assertions), one rendered line per finding, each prefixed with the
    /// pair or stage that produced it. Empty when no `sanitize` section
    /// was configured — or when every traced kernel ran clean.
    pub sanitizer: Vec<String>,
    /// SLO verdicts evaluated over the windowed slice series; empty
    /// unless the config declares an `slo` section and the global
    /// telemetry collector is on (the series is built from sim slices).
    pub slo: Vec<crate::obs::SloVerdict>,
    /// The windowed series the SLOs were evaluated against (None when no
    /// `slo` section was configured or telemetry was off).
    pub series: Option<WindowSeries>,
}

/// Runs the configured pipeline on the (simulated) cluster.
///
/// When the global telemetry collector is enabled the run is wrapped in a
/// `runner.run_pipeline` span and a machine-readable
/// `<output.dir>/telemetry/telemetry.json` report is written; with
/// telemetry off, no telemetry file is produced and outputs are identical
/// to a pre-telemetry build.
pub fn run_pipeline(cfg: &ForesightConfig, cluster: &SlurmSim) -> Result<PipelineReport> {
    cfg.validate()?;
    let run_span = telemetry::span("runner.run_pipeline");
    let configs = cfg.codec_configs();
    let input = cfg.input.clone();
    let analyses = cfg.analysis.clone();
    let outdir = cfg.output.dir.clone();
    let want_cinema = cfg.output.cinema;
    let chaos = cfg.chaos.clone();
    let sanitizer_cfg = cfg.sanitize.map(|s| s.to_sanitizer_config());

    let fields: Arc<Mutex<Vec<FieldData>>> = Arc::new(Mutex::new(Vec::new()));
    let hacc_coords: Arc<Mutex<Option<[Vec<f32>; 3]>>> = Arc::new(Mutex::new(None));
    let records: Arc<Mutex<Vec<CBenchRecord>>> = Arc::new(Mutex::new(Vec::new()));
    let candidates: Arc<Mutex<Vec<Candidate>>> = Arc::new(Mutex::new(Vec::new()));
    let lines: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let artifacts: Arc<Mutex<usize>> = Arc::new(Mutex::new(0));
    // Per-run registry: always on, independent of the global collector.
    // Jobs record resilience facts here as idempotent gauges (job closures
    // may rerun under the workflow retry policy; a gauge set twice stays
    // correct where a counter would double).
    let run_metrics = Arc::new(MetricsRegistry::new());
    // A configured `cluster` section doesn't run inside the pipeline
    // (cluster-bench drives it), but its shape is part of the run's
    // provenance: surface it so telemetry.json records what the serving
    // tier would look like.
    if let Some(cl) = &cfg.cluster {
        run_metrics.gauge("cluster.configured.nodes", cl.nodes as f64);
        run_metrics.gauge("cluster.configured.replication", cl.replication as f64);
        run_metrics.gauge("cluster.configured.devices", cl.devices as f64);
        run_metrics.gauge("cluster.configured.faults", cl.faults.len() as f64);
    }
    let quarantined: Arc<Mutex<Vec<QuarantinedPair>>> = Arc::new(Mutex::new(Vec::new()));
    // Sanitizer findings, per producing job. Each job wholesale-replaces
    // its own slot (closures may rerun under the retry policy); the final
    // report concatenates the slots in stage order.
    let cbench_san: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let thr_san: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));

    // Sanitize without chaos still needs per-pair devices: route the sweep
    // through the chaos machinery with all fault rates at zero (a "quiet
    // chaos" run is byte-identical to the plain sweep, which tests pin).
    let chaos_cfg: Option<ChaosConfig> = match (&chaos, sanitizer_cfg) {
        (Some(ch), san) => {
            let mut cc = ch.to_chaos_config();
            if let Some(s) = san {
                cc = cc.with_sanitizer(s);
            }
            Some(cc)
        }
        (None, Some(s)) => {
            Some(ChaosConfig::new(0, FaultRates::default()).with_sanitizer(s))
        }
        (None, None) => None,
    };

    let mut wf = Workflow::new();
    // Stage 1: dataset generation.
    {
        let fields = fields.clone();
        let hacc_coords = hacc_coords.clone();
        let input = input.clone();
        wf.add(Job::new("generate", 4, move || {
            let opts = cosmo_data::SynthOptions {
                n_side: input.n_side,
                box_size: input.box_size,
                seed: input.seed,
                steps: input.steps,
            };
            let out = match input.dataset {
                DatasetKind::Nyx => {
                    let snap = cosmo_data::generate_nyx(&opts)?;
                    let n = snap.n_side;
                    snap.fields()
                        .iter()
                        .map(|(name, d)| FieldData::new(*name, d.to_vec(), Shape::D3(n, n, n)))
                        .collect::<Result<Vec<_>>>()?
                }
                DatasetKind::Hacc => {
                    let snap = cosmo_data::generate_hacc(&opts)?;
                    *hacc_coords.lock() =
                        Some([snap.x.clone(), snap.y.clone(), snap.z.clone()]);
                    snap.fields()
                        .iter()
                        .map(|(name, d)| FieldData::new(*name, d.to_vec(), Shape::D1(d.len())))
                        .collect::<Result<Vec<_>>>()?
                }
            };
            let n = out.len();
            *fields.lock() = out;
            Ok(format!("{n} fields"))
        }))?;
    }
    // Stage 1b (optional): seal the generated fields into a seekable
    // foresight-store archive in the output directory. Runs off the
    // critical path (only depends on generate) and records its facts as
    // idempotent gauges so reruns under the retry policy stay correct.
    if let Some(store_cfg) = &cfg.store {
        let fields = fields.clone();
        let store_cfg = store_cfg.clone();
        let outdir = outdir.clone();
        let run_metrics = run_metrics.clone();
        let pack_codec = match configs.first() {
            Some(crate::codec::CodecConfig::Sz(c)) => foresight_store::ChunkCodec::Sz(c.clone()),
            Some(crate::codec::CodecConfig::Zfp(c)) => {
                foresight_store::ChunkCodec::Zfp(*c)
            }
            // validate() requires at least one compressor sweep.
            None => return Err(Error::invalid("store stage needs a codec configuration")),
        };
        wf.add(
            Job::new("archive", 2, move || {
                let f = fields.lock();
                let mut writer = foresight_store::StoreWriter::new();
                let c = store_cfg.chunk;
                for field in f.iter() {
                    let (shape, chunk) = match field.shape {
                        Shape::D1(n) => {
                            // 1-D fields chunk along their only axis with a
                            // volume matching the 3-D chunk's value count.
                            (foresight_store::FieldShape::d1(n), [c * c * c, 1, 1])
                        }
                        Shape::D2(a, b) => (foresight_store::FieldShape::d2(a, b), [c, c, 1]),
                        Shape::D3(a, b, z) => {
                            (foresight_store::FieldShape::d3(a, b, z), [c, c, c])
                        }
                    };
                    writer.add_field(
                        store_cfg.snapshot,
                        &field.name,
                        &field.data,
                        shape,
                        chunk,
                        &pack_codec,
                    )?;
                }
                let n_fields = writer.field_count();
                let bytes = writer.finish()?;
                let archive_bytes = bytes.len();
                std::fs::create_dir_all(&outdir)?;
                let path = outdir.join(&store_cfg.file);
                std::fs::write(&path, &bytes)?;
                // Reopen through the reader so the pipeline only reports an
                // archive it has verified end to end (superblock CRC,
                // manifest digest, directory CRC, chunk CRCs, payload shas).
                let reader = foresight_store::StoreReader::open(&path)?;
                let check = reader.verify()?;
                run_metrics.gauge("store.archive_bytes", archive_bytes as f64);
                run_metrics.gauge("store.fields_packed", n_fields as f64);
                run_metrics.gauge("store.chunks_verified", check.chunks_ok as f64);
                Ok(format!(
                    "{n_fields} fields, {} chunks, {archive_bytes} bytes -> {}",
                    check.chunks_ok,
                    store_cfg.file
                ))
            })
            .after("generate"),
        )?;
    }
    // Stage 2: CBench — through the chaos-mode GPU when configured.
    {
        let fields = fields.clone();
        let records = records.clone();
        let configs = configs.clone();
        let keep = !analyses.is_empty();
        let chaos_cfg = chaos_cfg.clone();
        let run_metrics = run_metrics.clone();
        let quarantined = quarantined.clone();
        let cbench_san = cbench_san.clone();
        wf.add(
            Job::new("cbench", 8, move || {
                let f = fields.lock();
                match &chaos_cfg {
                    None => {
                        let recs = run_sweep(&f, &configs, keep)?;
                        let n = recs.len();
                        *records.lock() = recs;
                        Ok(format!("{n} records"))
                    }
                    Some(cc) => {
                        let rep = run_sweep_chaos(&f, &configs, keep, cc)?;
                        let fallbacks = rep.fallbacks();
                        let retried = rep
                            .records
                            .iter()
                            .filter(|r| matches!(r.exec, ExecPath::GpuRetried(_)))
                            .count();
                        // Gauges (set, not add) and a wholesale replace:
                        // the closure may rerun under the workflow's retry
                        // policy, so every record here must be idempotent.
                        run_metrics.gauge("resilience.gpu_retried_pairs", retried as f64);
                        run_metrics.gauge("resilience.cpu_fallbacks", fallbacks as f64);
                        run_metrics
                            .gauge("resilience.quarantined_pairs", rep.quarantined.len() as f64);
                        let n = rep.records.len();
                        let nq = rep.quarantined.len();
                        let san_note = if cc.sanitize.is_some() {
                            run_metrics
                                .gauge("sanitizer.findings", rep.sanitizer.len() as f64);
                            format!(", {} sanitizer findings", rep.sanitizer.len())
                        } else {
                            String::new()
                        };
                        *cbench_san.lock() = rep.sanitizer;
                        *quarantined.lock() = rep.quarantined;
                        *records.lock() = rep.records;
                        Ok(format!(
                            "{n} records ({retried} gpu-retried, {fallbacks} cpu-fallback, \
                             {nq} quarantined{san_note})"
                        ))
                    }
                }
            })
            .after("generate"),
        )?;
    }
    // Stage 3: analyses populate candidates.
    {
        let fields = fields.clone();
        let records = records.clone();
        let candidates = candidates.clone();
        let hacc_coords = hacc_coords.clone();
        let input = input.clone();
        let analyses2 = analyses.clone();
        wf.add(
            Job::new("analysis", 8, move || {
                let recs = std::mem::take(&mut *records.lock());
                let fields = fields.lock();
                let mut cands = Vec::with_capacity(recs.len());
                let grid = Grid3::cube(input.n_side);
                // Original halo catalog, once, for HACC runs.
                let orig_cat = if analyses2.contains(&AnalysisKind::HaloFinder) {
                    hacc_coords.lock().as_ref().map(|[x, y, z]| {
                        let b = linking_length_for(x.len(), input.box_size, 0.2);
                        friends_of_friends(x, y, z, input.box_size, b, 10)
                    })
                } else {
                    None
                };
                for mut rec in recs {
                    let recon = rec.reconstructed.take();
                    let mut cand =
                        Candidate { record: rec, pk_deviation: None, halo_deviation: None };
                    if let Some(recon) = &recon {
                        if analyses2.contains(&AnalysisKind::PowerSpectrum)
                            && input.dataset == DatasetKind::Nyx
                        {
                            let field = fields
                                .iter()
                                .find(|f| f.name == cand.record.field)
                                .ok_or_else(|| Error::invalid("missing field"))?;
                            let orig =
                                power_spectrum_f32(&field.data, grid, input.box_size, 10)?;
                            let pk = power_spectrum_f32(recon, grid, input.box_size, 10)?;
                            let dev = pk_ratio(&orig, &pk)?
                                .iter()
                                .map(|&(_, r)| (r - 1.0).abs())
                                .fold(0.0f64, f64::max);
                            cand.pk_deviation = Some(dev);
                        }
                        if let Some(Ok(orig_cat)) = &orig_cat {
                            // Halo analysis uses the position fields; the
                            // reconstructed coordinate replaces one axis at
                            // a time, which bounds the impact per field.
                            if ["x", "y", "z"].contains(&cand.record.field.as_str()) {
                                let coords = hacc_coords.lock();
                                let [x, y, z] = coords.as_ref().unwrap();
                                let wrapped: Vec<f32> = recon
                                    .iter()
                                    .map(|v| v.rem_euclid(input.box_size as f32))
                                    .collect();
                                let (rx, ry, rz) = match cand.record.field.as_str() {
                                    "x" => (&wrapped, y, z),
                                    "y" => (x, &wrapped, z),
                                    _ => (x, y, &wrapped),
                                };
                                let b = linking_length_for(x.len(), input.box_size, 0.2);
                                let cat = friends_of_friends(
                                    rx,
                                    ry,
                                    rz,
                                    input.box_size,
                                    b,
                                    10,
                                )?;
                                let worst = halo_count_ratio(orig_cat, &cat)
                                    .iter()
                                    .filter(|&&(_, oc, _, _)| oc >= 5)
                                    .map(|&(_, _, _, r)| (r - 1.0).abs())
                                    .fold(0.0f64, f64::max);
                                cand.halo_deviation = Some(worst);
                            }
                        }
                    }
                    cands.push(cand);
                }
                let n = cands.len();
                *candidates.lock() = cands;
                Ok(format!("{n} candidates"))
            })
            .after("cbench"),
        )?;
    }
    // Stage 4: throughput modeling (optional).
    if analyses.contains(&AnalysisKind::Throughput) {
        let fields = fields.clone();
        let configs = configs.clone();
        let lines = lines.clone();
        let thr_san = thr_san.clone();
        wf.add(
            Job::new("throughput", 2, move || {
                use rayon::prelude::*;
                let f = fields.lock();
                let Some(field) = f.first() else {
                    return Ok("0 throughput rows".into());
                };
                // Configs are independent measurements; give each its own
                // simulated device (the timing model is per-device state)
                // and keep the output in config order.
                let out = configs
                    .par_iter()
                    .map(|cfg| -> Result<(String, Vec<String>)> {
                        let tag =
                            format!("throughput/{} {}", cfg.id().display(), cfg.param_label());
                        let mut dev =
                            Device::new(GpuSpec::tesla_v100()).with_label(tag.clone());
                        if let Some(s) = sanitizer_cfg {
                            dev = dev.with_sanitizer(s);
                        }
                        let (_, rep) = gpu_compress(&mut dev, cfg, &field.data, field.shape)?;
                        let findings = dev
                            .sanitizer_report()
                            .map(|r| {
                                r.lines().into_iter().map(|l| format!("{tag}: {l}")).collect()
                            })
                            .unwrap_or_default();
                        Ok((
                            format!(
                                "{} {}: V100 kernel {:.1} GB/s, overall {:.1} GB/s",
                                cfg.id().display(),
                                cfg.param_label(),
                                rep.kernel_throughput_gbs,
                                rep.overall_throughput_gbs
                            ),
                            findings,
                        ))
                    })
                    .collect::<Vec<Result<(String, Vec<String>)>>>()
                    .into_iter()
                    .collect::<Result<Vec<(String, Vec<String>)>>>()?;
                let n = out.len();
                let mut rows = Vec::with_capacity(n);
                let mut findings = Vec::new();
                for (row, f) in out {
                    rows.push(row);
                    findings.extend(f);
                }
                lines.lock().extend(rows);
                *thr_san.lock() = findings;
                Ok(format!("{n} throughput rows"))
            })
            .after("generate"),
        )?;
    }
    // Stage 5: optimizer + report.
    {
        let candidates2 = candidates.clone();
        let lines = lines.clone();
        let artifacts2 = artifacts.clone();
        wf.add(
            Job::new("report", 1, move || {
                let cands = candidates2.lock();
                let acc = Acceptance::default();
                let mut table = Table::new([
                    "field",
                    "compressor",
                    "param",
                    "ratio",
                    "bitrate",
                    "psnr_db",
                    "pk_dev",
                    "halo_dev",
                ]);
                for c in cands.iter() {
                    table.push_row([
                        c.record.field.clone(),
                        c.record.compressor.display().to_string(),
                        c.record.param.clone(),
                        fmt_f64(c.record.ratio),
                        fmt_f64(c.record.bitrate),
                        fmt_f64(c.record.distortion.psnr),
                        c.pk_deviation.map(fmt_f64).unwrap_or_else(|| "-".into()),
                        c.halo_deviation.map(fmt_f64).unwrap_or_else(|| "-".into()),
                    ]);
                }
                let mut out_lines = Vec::new();
                for comp in [CompressorId::GpuSz, CompressorId::CuZfp] {
                    if let Ok(fits) = best_fit_per_field(&cands, comp, &acc) {
                        let overall = overall_best_ratio(&fits, &cands);
                        out_lines.push(format!(
                            "{}: overall best-fit ratio {:.2}x over {} fields",
                            comp.display(),
                            overall,
                            fits.len()
                        ));
                    }
                }
                if want_cinema {
                    let mut db = CinemaDb::create(&outdir)?;
                    db.add_table("cbench.csv", &table, &[("stage", "report".into())])?;
                    db.add_text("bestfit.txt", &out_lines.join("\n"), &[])?;
                    *artifacts2.lock() = db.finalize()?;
                }
                let summary = out_lines.join("; ");
                lines.lock().extend(out_lines);
                Ok(if summary.is_empty() { "no acceptable configs".into() } else { summary })
            })
            .after("analysis"),
        )?;
    }

    let workflow = match &chaos {
        None => wf.run(cluster)?,
        Some(ch) => wf.run_chaos(
            cluster,
            RetryPolicy::retries(ch.job_retries),
            Some(FaultPlan::new(ch.seed, ch.fault_rates()).fork("workflow")),
        )?,
    };
    // `records` was drained by the analysis stage; re-expose through the
    // candidates for callers.
    let final_candidates = std::mem::take(&mut *candidates.lock());
    let final_records: Vec<CBenchRecord> =
        final_candidates.iter().map(|c| c.record.clone()).collect();
    let final_lines = std::mem::take(&mut *lines.lock());
    let final_artifacts = *artifacts.lock();
    let final_quarantined = std::mem::take(&mut *quarantined.lock());
    let mut final_sanitizer = std::mem::take(&mut *cbench_san.lock());
    final_sanitizer.extend(std::mem::take(&mut *thr_san.lock()));
    if workflow.node_failures > 0 {
        run_metrics.gauge("resilience.node_failures", workflow.node_failures as f64);
        run_metrics.gauge("resilience.alive_nodes", workflow.alive_nodes as f64);
    }
    let metrics = run_metrics.snapshot();
    let mut report = PipelineReport {
        records: final_records,
        candidates: final_candidates,
        best_fit_lines: final_lines,
        workflow,
        artifacts: final_artifacts,
        resilience: crate::trace::resilience_lines(&metrics, &final_quarantined),
        metrics,
        quarantined: final_quarantined,
        sanitizer: final_sanitizer,
        slo: Vec::new(),
        series: None,
    };
    if telemetry::is_enabled() {
        // Close the run span so it appears in the snapshot, then write the
        // machine-readable report next to the other run outputs.
        drop(run_span);
        let snap = telemetry::snapshot();
        if let Some(slo_cfg) = &cfg.slo {
            // Window the sim slices finely enough that the fastest alert
            // window covers >= 4 whole windows; burn rates then have
            // sub-window resolution without configuration knobs.
            let specs: Vec<_> = slo_cfg.iter().map(|s| s.to_spec()).collect();
            let width =
                specs.iter().map(|s| s.window_s).fold(f64::INFINITY, f64::min) / 4.0;
            let series = slice_series(&snap, width);
            report.slo = crate::obs::evaluate_slos(&series, &specs);
            report.series = Some(series);
        }
        let path = cfg.output.dir.join("telemetry").join("telemetry.json");
        crate::trace::write_file(&path, &crate::trace::telemetry_json(&report, &snap).to_json())?;
    }
    Ok(report)
}

/// A windowed series of a snapshot's device slices: per-window
/// busy-duration histograms per track (`<track>.dur_s`) and slice
/// counters per process (`slices.<process>`). This is how pipeline runs,
/// which have no request stream, get SLOs: e.g. `kernel.dur_s.p99`
/// watches kernel-time regressions per window. Slices are windowed
/// process by process, each in its recording order, so how the sweep's
/// threads interleaved devices never changes an `f64` sum.
fn slice_series(snap: &TelemetrySnapshot, width_s: f64) -> WindowSeries {
    let mut layout = snap.sim_layout();
    layout.slices.sort_by_key(|&(p, _, _)| p);
    let mut series = WindowSeries::new(width_s, 4096);
    for &(p, _, s) in &layout.slices {
        series.incr(s.start_s, &format!("slices.{}", layout.processes[p].0), 1);
        series.observe(s.start_s, &format!("{}.dur_s", s.track), s.dur_s);
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_config(dataset: &str, analyses: &str) -> ForesightConfig {
        let dir = std::env::temp_dir().join(format!(
            "runner_test_{dataset}_{}",
            std::process::id()
        ));
        ForesightConfig::from_json(&format!(
            r#"{{
            "input": {{ "dataset": "{dataset}", "n_side": 16, "seed": 11, "steps": 3 }},
            "compressors": [
                {{ "name": "gpu-sz", "mode": "rel", "bounds": [0.01] }},
                {{ "name": "cuzfp", "rates": [8] }}
            ],
            "analysis": [{analyses}],
            "output": {{ "dir": "{}", "cinema": true }}
        }}"#,
            dir.display()
        ))
        .unwrap()
    }

    #[test]
    fn slice_series_does_not_depend_on_device_interleaving() {
        use foresight_util::telemetry::SpanRecord;
        let kernel = |process: &str, dur_s: f64| SpanRecord::slice(process, "kernel", "k", 0.0, dur_s);
        // Two sweep threads recording gpu0 = [0.1] and gpu1 = [0.2, 0.3]
        // in either order: summed in recording order, one window's kernel
        // total is 0.6000000000000001 one way and 0.6 the other.
        let snap = |spans| TelemetrySnapshot { spans, ..Default::default() };
        let a = snap(vec![kernel("gpu0", 0.1), kernel("gpu1", 0.2), kernel("gpu1", 0.3)]);
        let b = snap(vec![kernel("gpu1", 0.2), kernel("gpu1", 0.3), kernel("gpu0", 0.1)]);
        assert_eq!(
            slice_series(&a, 1.0).to_value().to_json(),
            slice_series(&b, 1.0).to_value().to_json()
        );
    }

    #[test]
    fn nyx_pipeline_with_power_spectrum() {
        let cfg = base_config("nyx", "\"distortion\", \"power-spectrum\"");
        let report = run_pipeline(&cfg, &SlurmSim::default()).unwrap();
        assert_eq!(report.records.len(), 12); // 6 fields x 2 configs
        assert!(report.candidates.iter().all(|c| c.pk_deviation.is_some()));
        assert!(report.artifacts >= 2);
        assert!(report.workflow.job("report").is_some());
        std::fs::remove_dir_all(&cfg.output.dir).ok();
    }

    #[test]
    fn cluster_section_surfaces_provenance_gauges() {
        let mut cfg = base_config("nyx", "\"distortion\"");
        cfg.cluster = Some(crate::config::ClusterSettings {
            nodes: 3,
            replication: 2,
            ..Default::default()
        });
        let report = run_pipeline(&cfg, &SlurmSim::default()).unwrap();
        assert_eq!(report.metrics.gauge("cluster.configured.nodes"), Some(3.0));
        assert_eq!(report.metrics.gauge("cluster.configured.replication"), Some(2.0));
        assert_eq!(report.metrics.gauge("cluster.configured.faults"), Some(0.0));
        // A run without the section records no cluster gauges.
        let plain = base_config("nyx", "\"distortion\"");
        let plain_report = run_pipeline(&plain, &SlurmSim::default()).unwrap();
        assert_eq!(plain_report.metrics.gauge("cluster.configured.nodes"), None);
        std::fs::remove_dir_all(&cfg.output.dir).ok();
    }

    #[test]
    fn hacc_pipeline_with_halo_finder() {
        let cfg = base_config("hacc", "\"halo-finder\"");
        let report = run_pipeline(&cfg, &SlurmSim::default()).unwrap();
        assert_eq!(report.records.len(), 12);
        // Position fields got halo deviations; velocities did not.
        let pos: Vec<&Candidate> = report
            .candidates
            .iter()
            .filter(|c| ["x", "y", "z"].contains(&c.record.field.as_str()))
            .collect();
        assert!(!pos.is_empty());
        assert!(pos.iter().all(|c| c.halo_deviation.is_some()));
        std::fs::remove_dir_all(&cfg.output.dir).ok();
    }

    #[test]
    fn chaos_pipeline_runs_and_is_deterministic() {
        let mut cfg = base_config("nyx", "\"distortion\"");
        cfg.output.cinema = false;
        cfg.chaos = Some(crate::config::ChaosSettings {
            seed: 13,
            transfer: 0.4,
            bit_flip: 0.3,
            kernel: 0.3,
            oom: 0.1,
            node: 0.2,
            device_retries: 1,
            op_retries: 1,
            job_retries: 3,
        });
        let summarize = |rep: &PipelineReport| -> Vec<String> {
            let mut s: Vec<String> = rep
                .records
                .iter()
                .map(|r| {
                    format!(
                        "{} {} {} {} {:?} {:?}",
                        r.field, r.param, r.compressed_bytes, r.ratio, r.exec, r.sim_seconds
                    )
                })
                .collect();
            s.extend(rep.resilience.iter().cloned());
            s.extend(rep.workflow.jobs.iter().map(|j| format!("{} {}", j.name, j.status.label())));
            s
        };
        let a = run_pipeline(&cfg, &SlurmSim::default()).unwrap();
        let b = run_pipeline(&cfg, &SlurmSim::default()).unwrap();
        assert_eq!(summarize(&a), summarize(&b), "same-seed chaos runs diverged");
        // With these rates something must have exercised the fallback or
        // retry machinery, and the run still completed.
        assert!(!a.resilience.is_empty(), "no resilience events recorded");
        assert!(a.workflow.job("cbench").is_some());
    }

    #[test]
    fn quiet_chaos_matches_plain_run_records() {
        let mut cfg = base_config("nyx", "\"distortion\"");
        cfg.output.cinema = false;
        let plain = run_pipeline(&cfg, &SlurmSim::default()).unwrap();
        cfg.chaos = Some(crate::config::ChaosSettings {
            seed: 99,
            transfer: 0.0,
            bit_flip: 0.0,
            kernel: 0.0,
            oom: 0.0,
            node: 0.0,
            device_retries: 3,
            op_retries: 2,
            job_retries: 2,
        });
        let quiet = run_pipeline(&cfg, &SlurmSim::default()).unwrap();
        let bytes = |rep: &PipelineReport| -> Vec<(String, usize)> {
            rep.records
                .iter()
                .map(|r| (format!("{}/{}", r.field, r.param), r.compressed_bytes))
                .collect()
        };
        assert_eq!(bytes(&plain), bytes(&quiet));
        assert!(quiet.resilience.is_empty());
        assert!(quiet.workflow.all_ok());
    }

    #[test]
    fn sanitized_pipeline_is_clean_and_matches_plain_bytes() {
        let mut cfg = base_config("nyx", "\"distortion\"");
        cfg.output.cinema = false;
        let plain = run_pipeline(&cfg, &SlurmSim::default()).unwrap();
        cfg.sanitize =
            Some(crate::config::SanitizeSettings { memcheck: true, racecheck: true });
        let traced = run_pipeline(&cfg, &SlurmSim::default()).unwrap();
        assert_eq!(traced.sanitizer, Vec::<String>::new(), "shipped kernels run clean");
        // The traced GPU route must reproduce the plain sweep's streams.
        let bytes = |rep: &PipelineReport| -> Vec<(String, usize)> {
            rep.records
                .iter()
                .map(|r| (format!("{}/{}", r.field, r.param), r.compressed_bytes))
                .collect()
        };
        assert_eq!(bytes(&plain), bytes(&traced));
        assert!(traced.records.iter().all(|r| r.exec == ExecPath::Gpu));
        assert!(traced.resilience.is_empty(), "quiet run: no resilience events");
        let msg = traced.workflow.job("cbench").unwrap().output.clone();
        assert!(msg.contains("0 sanitizer findings"), "cbench message: {msg}");
    }

    #[test]
    fn chaos_with_sanitize_stays_leak_free() {
        // Every recovery path (device retry, roundtrip retry, CPU
        // fallback) must unwind device memory; the sanitizer turns any
        // missed free into a pipeline-visible finding.
        let mut cfg = base_config("nyx", "\"distortion\", \"throughput\"");
        cfg.output.cinema = false;
        cfg.chaos = Some(crate::config::ChaosSettings {
            seed: 21,
            transfer: 0.4,
            bit_flip: 0.3,
            kernel: 0.3,
            oom: 0.1,
            node: 0.0,
            device_retries: 1,
            op_retries: 1,
            job_retries: 3,
        });
        cfg.sanitize =
            Some(crate::config::SanitizeSettings { memcheck: true, racecheck: true });
        let report = run_pipeline(&cfg, &SlurmSim::default()).unwrap();
        assert!(!report.records.is_empty());
        assert_eq!(report.sanitizer, Vec::<String>::new(), "fault paths must not leak");
    }

    #[test]
    fn throughput_stage_produces_lines() {
        let mut cfg = base_config("nyx", "\"throughput\"");
        cfg.output.cinema = false;
        let report = run_pipeline(&cfg, &SlurmSim::default()).unwrap();
        assert!(report.best_fit_lines.iter().any(|l| l.contains("GB/s")));
    }

    #[test]
    fn slice_series_windows_by_start_time() {
        use foresight_util::telemetry::SpanRecord;
        let snap = TelemetrySnapshot {
            spans: vec![
                SpanRecord::slice("gpu0", "kernel", "k", 0.2e-3, 1e-4),
                SpanRecord::slice("gpu0", "kernel", "k", 3.2e-3, 2e-4),
            ],
            ..TelemetrySnapshot::default()
        };
        let s = slice_series(&snap, 1e-3);
        assert_eq!(s.window_at(0).unwrap().metrics.counter("slices.gpu0"), 1);
        assert_eq!(s.window_at(3).unwrap().metrics.counter("slices.gpu0"), 1);
        assert!(s.window_at(1).is_none());
        let h = s.window_at(3).unwrap().metrics.histogram("kernel.dur_s").unwrap().summary();
        assert_eq!(h.count, 1);
    }
}

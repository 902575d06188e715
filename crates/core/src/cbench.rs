//! CBench: the compression benchmarking stage of Foresight.
//!
//! Runs every (field x codec-configuration) pair: compress, decompress,
//! verify, and record compression ratio, bitrate, distortion metrics, and
//! wall-clock (de)compression times — the exact outputs the paper's
//! CBench produces for the downstream analysis and visualization stages.

use crate::codec::{compress, decompress, CodecConfig, CodecKind, Shape};
use crate::gpu_backend::{gpu_compress, gpu_decompress};
use cosmo_analysis::metrics::{distortion, Distortion};
use cosmo_data::{NyxSnapshot, SynthOptions};
use foresight_util::timer::timed;
use foresight_util::{telemetry, Error, Result};
use gpu_sim::{Device, FaultPlan, FaultRates, GpuSpec, SanitizerConfig};
use rayon::prelude::*;

/// One named input field.
#[derive(Debug, Clone)]
pub struct FieldData {
    /// Field name ("baryon_density", "x", ...).
    pub name: String,
    /// Values.
    pub data: Vec<f32>,
    /// Logical shape.
    pub shape: Shape,
}

impl FieldData {
    /// Creates a field, validating shape against the data length.
    pub fn new(name: impl Into<String>, data: Vec<f32>, shape: Shape) -> Result<Self> {
        if data.len() != shape.len() {
            return Err(Error::invalid(format!(
                "field data length {} does not match shape {:?}",
                data.len(),
                shape
            )));
        }
        Ok(Self { name: name.into(), data, shape })
    }
}

/// Which execution path produced a CBench record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPath {
    /// Plain CPU codec run (the non-chaos default).
    Cpu,
    /// Simulated GPU run, clean on the first attempt.
    Gpu,
    /// Simulated GPU run that succeeded after this many faulted attempts.
    GpuRetried(u32),
    /// GPU attempts exhausted; the CPU codec path produced the record.
    CpuFallback,
}

impl ExecPath {
    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            ExecPath::Cpu => "cpu".into(),
            ExecPath::Gpu => "gpu".into(),
            ExecPath::GpuRetried(n) => format!("gpu(retried x{n})"),
            ExecPath::CpuFallback => "cpu-fallback".into(),
        }
    }
}

/// One CBench measurement row.
#[derive(Debug, Clone)]
pub struct CBenchRecord {
    /// Field name.
    pub field: String,
    /// Compressor used.
    pub compressor: CodecKind,
    /// Parameter label ("abs=0.2", "rate=4").
    pub param: String,
    /// Compressed bytes.
    pub compressed_bytes: usize,
    /// Original bytes (4 per value).
    pub original_bytes: usize,
    /// Compression ratio.
    pub ratio: f64,
    /// Bits per value.
    pub bitrate: f64,
    /// Distortion metrics vs the original.
    pub distortion: Distortion,
    /// Wall-clock compression seconds (this process, all cores).
    pub compress_seconds: f64,
    /// Wall-clock decompression seconds.
    pub decompress_seconds: f64,
    /// How this record was produced (CPU, GPU, GPU after retries, or
    /// CPU fallback after the GPU path gave up).
    pub exec: ExecPath,
    /// Simulated device seconds (compress + decompress breakdown totals)
    /// for GPU-path records; `None` on pure CPU paths. Deterministic for
    /// a given fault seed, unlike the wall-clock fields.
    pub sim_seconds: Option<f64>,
    /// Reconstructed field, kept when requested for post-analysis.
    pub reconstructed: Option<Vec<f32>>,
}

/// The row of one round trip of `field` at `cfg` to a `stream`-byte
/// stream, taking `secs` (compress, decompress); `sim_seconds` marks a
/// GPU-path record. Publishes its metrics: the per-(field,config) ratio
/// gauge (idempotent under PAT job reruns) and the deterministic
/// simulated-seconds histogram, when telemetry is on.
fn record(
    field: &FieldData,
    cfg: &CodecConfig,
    stream: usize,
    recon: Vec<f32>,
    secs: (f64, f64),
    sim_seconds: Option<f64>,
    keep_recon: bool,
) -> CBenchRecord {
    let original_bytes = field.data.len() * 4;
    let rec = CBenchRecord {
        field: field.name.clone(),
        compressor: cfg.id(),
        param: cfg.param_label(),
        compressed_bytes: stream,
        original_bytes,
        ratio: original_bytes as f64 / stream.max(1) as f64,
        bitrate: stream as f64 * 8.0 / field.data.len().max(1) as f64,
        distortion: distortion(&field.data, &recon),
        compress_seconds: secs.0,
        decompress_seconds: secs.1,
        exec: if sim_seconds.is_some() { ExecPath::Gpu } else { ExecPath::Cpu },
        sim_seconds,
        reconstructed: if keep_recon { Some(recon) } else { None },
    };
    if telemetry::is_enabled() {
        let (field, comp, param) = (&rec.field, rec.compressor.display(), &rec.param);
        telemetry::gauge(&format!("cbench.ratio.{field}/{comp} {param}"), rec.ratio);
        if let Some(s) = rec.sim_seconds {
            telemetry::observe("cbench.sim_seconds", s);
        }
    }
    rec
}

/// Runs one (field, config) measurement.
pub fn run_one(field: &FieldData, cfg: &CodecConfig, keep_recon: bool) -> Result<CBenchRecord> {
    let (stream, c_secs) = timed("cbench.compress", || compress(&field.data, field.shape, cfg));
    let stream = stream?;
    let (out, d_secs) = timed("cbench.decompress", || decompress(&stream));
    let (recon, shape) = out?;
    if shape.len() != field.shape.len() {
        return Err(Error::corrupt("reconstructed shape mismatch"));
    }
    Ok(record(field, cfg, stream.len(), recon, (c_secs, d_secs), None, keep_recon))
}

/// One GPU roundtrip attempt: compress on device, download (chaos may
/// flip bits en route), upload, decompress, measure.
fn gpu_roundtrip(
    field: &FieldData,
    cfg: &CodecConfig,
    keep_recon: bool,
    device: &mut Device,
) -> Result<CBenchRecord> {
    let (out, c_secs) = timed("cbench.gpu_compress", || {
        gpu_compress(device, cfg, &field.data, field.shape)
    });
    let (stream, crep) = out?;
    let (out, d_secs) = timed("cbench.gpu_decompress", || {
        gpu_decompress(device, cfg.id(), &stream, field.data.len() as u64)
    });
    let (recon, drep) = out?;
    if recon.len() != field.data.len() {
        return Err(Error::corrupt("reconstructed length mismatch"));
    }
    let sim = crep.breakdown.total() + drep.breakdown.total();
    Ok(record(field, cfg, stream.len(), recon, (c_secs, d_secs), Some(sim), keep_recon))
}

/// Runs one (field, config) measurement on the simulated GPU with
/// graceful degradation.
///
/// Device faults (exhausted transfer/kernel/allocation retries) and
/// stream corruption (an ECC bit flip caught by the codec CRC) restart
/// the whole roundtrip, up to `op_retries` times; after that the CPU
/// codec path produces the record, marked [`ExecPath::CpuFallback`].
/// Genuine configuration/codec errors are returned unchanged — retrying
/// cannot fix them.
pub fn run_one_gpu(
    field: &FieldData,
    cfg: &CodecConfig,
    keep_recon: bool,
    device: &mut Device,
    op_retries: u32,
) -> Result<CBenchRecord> {
    let mut faulted = 0u32;
    loop {
        match gpu_roundtrip(field, cfg, keep_recon, device) {
            Ok(mut rec) => {
                if faulted > 0 {
                    rec.exec = ExecPath::GpuRetried(faulted);
                }
                return Ok(rec);
            }
            Err(e) if e.is_device_fault() || matches!(e, Error::Corrupt(_)) => {
                faulted += 1;
                telemetry::counter("cbench.gpu.roundtrip_retries", 1);
                if faulted > op_retries {
                    telemetry::counter("cbench.fallbacks", 1);
                    let mut rec = run_one(field, cfg, keep_recon)?;
                    rec.exec = ExecPath::CpuFallback;
                    return Ok(rec);
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// One measurement of a sweep: a field and the configuration it is coded at.
pub type Pair<'a> = (&'a FieldData, &'a CodecConfig);

/// Every field against every configuration, fields outer.
pub fn cross<'a>(fields: &'a [FieldData], configs: &'a [CodecConfig]) -> Vec<Pair<'a>> {
    fields.iter().flat_map(|f| configs.iter().map(move |c| (f, c))).collect()
}

/// Runs a sweep: every pair (e.g. [`cross`]), in parallel across pairs.
///
/// The output order is the order of `pairs`. Every pair is measured even
/// when some fail; the error names each failing (field, config) pair.
pub fn run_sweep(pairs: &[Pair], keep_recon: bool) -> Result<Vec<CBenchRecord>> {
    let sweep = telemetry::span("cbench.sweep");
    let sweep_id = sweep.id();
    let results: Vec<Result<CBenchRecord>> = pairs
        .par_iter()
        .map(|(f, c)| {
            // Rayon workers don't see the sweep span's thread-local
            // stack; parent each pair explicitly.
            let mut s = telemetry::span_with_parent("cbench.pair", sweep_id);
            s.set_attr("field", f.name.clone());
            s.set_attr("config", c.label());
            run_one(f, c, keep_recon)
        })
        .collect();
    // Debug-only: every pair span recorded by the fan-out must hang off
    // this sweep, or the Chrome trace shows orphaned roots.
    telemetry::assert_span_parent("cbench.pair", sweep_id);
    let mut out = Vec::with_capacity(results.len());
    let mut failures = Vec::new();
    for ((f, c), r) in pairs.iter().zip(results) {
        match r {
            Ok(rec) => out.push(rec),
            Err(e) => failures.push(format!("{} x {}: {e}", f.name, c.label())),
        }
    }
    if !failures.is_empty() {
        return Err(Error::invalid(format!(
            "{} of {} sweep records failed: [{}]",
            failures.len(),
            pairs.len(),
            failures.join("; ")
        )));
    }
    Ok(out)
}

/// Chaos-mode sweep configuration.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Master fault seed; every (field, config) pair forks its own
    /// deterministic child plan keyed by a stable label.
    pub seed: u64,
    /// Injection rates shared by every pair.
    pub rates: FaultRates,
    /// Per-device-operation retry budget (transfers, launches, allocs).
    pub device_retries: u32,
    /// Whole-roundtrip retries before falling back to the CPU path.
    pub op_retries: u32,
    /// GPU model every pair runs on.
    pub gpu: GpuSpec,
    /// Optional device sanitizer attached to every pair's device. The
    /// codecs then run on their traced launch paths; findings land in
    /// [`ChaosSweepReport::sanitizer`].
    pub sanitize: Option<SanitizerConfig>,
}

impl ChaosConfig {
    /// A V100-backed chaos config with the given seed and rates.
    pub fn new(seed: u64, rates: FaultRates) -> Self {
        Self {
            seed,
            rates,
            device_retries: 3,
            op_retries: 2,
            gpu: GpuSpec::tesla_v100(),
            sanitize: None,
        }
    }

    /// Attaches a sanitizer to every pair's device.
    pub fn with_sanitizer(mut self, cfg: SanitizerConfig) -> Self {
        self.sanitize = Some(cfg);
        self
    }
}

/// A (field, config) pair that failed persistently and was excluded from
/// the sweep results.
#[derive(Debug, Clone)]
pub struct QuarantinedPair {
    /// Field name.
    pub field: String,
    /// Compressor of the failing config.
    pub compressor: CodecKind,
    /// Parameter label of the failing config.
    pub param: String,
    /// The terminal error.
    pub error: String,
}

/// Outcome of a chaos sweep: the records that survived plus the pairs
/// that were quarantined.
#[derive(Debug, Clone)]
pub struct ChaosSweepReport {
    /// Successful records, in deterministic fields-outer/configs-inner
    /// order (quarantined pairs leave gaps, not reordering).
    pub records: Vec<CBenchRecord>,
    /// Persistently failing pairs, same deterministic order.
    pub quarantined: Vec<QuarantinedPair>,
    /// Sanitizer findings across all pairs, each prefixed with the pair
    /// label. Empty when no sanitizer was attached — or when every traced
    /// kernel ran clean.
    pub sanitizer: Vec<String>,
}

impl ChaosSweepReport {
    /// Records that fell back to the CPU path.
    pub fn fallbacks(&self) -> usize {
        self.records.iter().filter(|r| r.exec == ExecPath::CpuFallback).count()
    }
}

/// Runs a sweep through the simulated GPU under fault injection.
///
/// Unlike [`run_sweep`], persistent failures do not fail the sweep: each
/// failing pair is quarantined with its error and the remaining records
/// are returned. Each pair forks the master fault plan by a stable
/// `field/codec param` label, so results are bit-identical for a given
/// seed regardless of rayon's scheduling.
pub fn run_sweep_chaos(
    pairs: &[Pair],
    keep_recon: bool,
    chaos: &ChaosConfig,
) -> Result<ChaosSweepReport> {
    chaos.rates.validate()?;
    let sweep = telemetry::span("cbench.sweep_chaos");
    let sweep_id = sweep.id();
    let parent = FaultPlan::new(chaos.seed, chaos.rates).with_max_retries(chaos.device_retries);
    let results: Vec<(Result<CBenchRecord>, Vec<String>)> = pairs
        .par_iter()
        .map(|(f, c)| {
            let label = format!("{}/{}", f.name, c.label());
            let mut s = telemetry::span_with_parent("cbench.pair", sweep_id);
            s.set_attr("pair", label.clone());
            // The pair label doubles as the telemetry process name, so
            // each pair's device gets its own deterministic trace track.
            let mut device = Device::new(chaos.gpu.clone())
                .with_label(&label)
                .with_fault_plan(parent.fork(&label));
            if let Some(cfg) = chaos.sanitize {
                device = device.with_sanitizer(cfg);
            }
            let result = run_one_gpu(f, c, keep_recon, &mut device, chaos.op_retries);
            let mut findings = Vec::new();
            if chaos.sanitize.is_some() {
                if let Some(rep) = device.sanitizer_report() {
                    findings.extend(rep.lines().into_iter().map(|l| format!("{label}: {l}")));
                }
                // Belt-and-suspenders leak assertion independent of the
                // memcheck shadow heap: after a pair finishes (success,
                // fallback, or quarantine) the device must hold nothing.
                if device.allocated_bytes() != 0 {
                    for (buf, bytes) in device.leak_report() {
                        findings.push(format!(
                            "{label}: sanitizer: leak: '{buf}' still holds {bytes} bytes \
                             after the pair completed"
                        ));
                    }
                }
            }
            (result, findings)
        })
        .collect();
    // Debug-only: every pair span recorded by the fan-out must hang off
    // this sweep, or the Chrome trace shows orphaned roots.
    telemetry::assert_span_parent("cbench.pair", sweep_id);
    let mut records = Vec::new();
    let mut quarantined = Vec::new();
    let mut sanitizer = Vec::new();
    for ((f, c), (r, findings)) in pairs.iter().zip(results) {
        sanitizer.extend(findings);
        match r {
            Ok(rec) => records.push(rec),
            Err(e) => quarantined.push(QuarantinedPair {
                field: f.name.clone(),
                compressor: c.id(),
                param: c.param_label(),
                error: e.to_string(),
            }),
        }
    }
    if !sanitizer.is_empty() {
        telemetry::counter("cbench.sanitizer_findings", sanitizer.len() as u64);
    }
    Ok(ChaosSweepReport { records, quarantined, sanitizer })
}

/// Generates the Nyx snapshot `opts` describes and wraps its six fields
/// for CBench as 3-D grids.
pub fn nyx_fields(opts: &SynthOptions) -> Result<(NyxSnapshot, Vec<FieldData>)> {
    let snap = cosmo_data::generate_nyx(opts)?;
    let n = snap.n_side;
    let fields = (snap.fields().iter())
        .map(|(name, data)| FieldData::new(*name, data.to_vec(), Shape::D3(n, n, n)))
        .collect::<Result<Vec<_>>>()?;
    Ok((snap, fields))
}

/// The HACC position arrays: the halo test reads these three.
pub const HACC_AXES: [&str; 3] = ["x", "y", "z"];

/// The paper's GPU-SZ bound for HACC velocities (§V-B): PW_REL 0.025.
pub const SZ_VEL_PWREL: f64 = 0.025;

/// The paper's HACC layout (§IV-B-4): a 1-D array reshaped to a 3-D cube,
/// zero-padded to whole cubes. Up to 512^3 values one cube suffices;
/// past that the cubes are stacked along z. A record of a padded field
/// counts the padding in its bytes and ratio; the particles are the first
/// `data.len()` values of its reconstruction.
pub fn cubed(name: &str, data: &[f32]) -> Result<FieldData> {
    let shape = cosmo_data::convert::cube_shape_for(data.len());
    let parts = cosmo_data::convert::to_3d(data, shape)?.parts;
    let nz_total = shape.2 * parts.len();
    FieldData::new(name, parts.concat(), Shape::D3(shape.0, shape.1, nz_total))
}

/// The configuration the paper codes HACC velocities at beside positions
/// coded at `position`: GPU-SZ at PW_REL [`SZ_VEL_PWREL`], cuZFP at the
/// same rate.
pub fn velocity_config(position: &CodecConfig) -> CodecConfig {
    match position {
        CodecConfig::Sz(_) => CodecConfig::Sz(lossy_sz::SzConfig::pw_rel(SZ_VEL_PWREL)),
        zfp => zfp.clone(),
    }
}

/// Dataset-level compression ratio for one chosen config per field
/// (the paper's "overall compression ratio", e.g. 10.7x / 15.4x).
pub fn overall_ratio(records: &[&CBenchRecord]) -> f64 {
    let orig: usize = records.iter().map(|r| r.original_bytes).sum();
    let comp: usize = records.iter().map(|r| r.compressed_bytes).sum();
    if comp == 0 {
        f64::INFINITY
    } else {
        orig as f64 / comp as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lossy_sz::SzConfig;
    use lossy_zfp::ZfpConfig;

    fn smooth_field(name: &str) -> FieldData {
        let n = 16usize;
        let data: Vec<f32> = (0..n * n * n)
            .map(|i| {
                let x = (i % n) as f32;
                let y = ((i / n) % n) as f32;
                (x * 0.2 + y * 0.4).sin() * 100.0
            })
            .collect();
        FieldData::new(name, data, Shape::D3(n, n, n)).unwrap()
    }

    #[test]
    fn record_fields_are_consistent() {
        let f = smooth_field("t");
        let rec = run_one(&f, &CodecConfig::Sz(SzConfig::abs(0.1)), true).unwrap();
        assert_eq!(rec.field, "t");
        assert_eq!(rec.original_bytes, 4096 * 4);
        assert!((rec.ratio - rec.original_bytes as f64 / rec.compressed_bytes as f64).abs() < 1e-9);
        assert!((rec.bitrate - 32.0 / rec.ratio).abs() < 1e-9);
        assert!(rec.distortion.max_abs_err <= 0.1 + 1e-9);
        assert!(rec.compress_seconds > 0.0 && rec.decompress_seconds > 0.0);
        assert!(rec.reconstructed.is_some());
    }

    #[test]
    fn sweep_covers_cross_product() {
        let fields = vec![smooth_field("a"), smooth_field("b")];
        let configs = vec![
            CodecConfig::Sz(SzConfig::abs(0.5)),
            CodecConfig::Zfp(ZfpConfig::rate(4.0)),
            CodecConfig::Zfp(ZfpConfig::rate(8.0)),
        ];
        let records = run_sweep(&cross(&fields, &configs), false).unwrap();
        assert_eq!(records.len(), 6);
        assert!(records.iter().all(|r| r.reconstructed.is_none()));
        // Fixed-rate 4 gives ~8x ratio.
        let r4 = records.iter().find(|r| r.param == "rate=4").unwrap();
        assert!((r4.ratio - 8.0).abs() < 1.0, "ratio {}", r4.ratio);
    }

    #[test]
    fn sweep_order_matches_serial_double_loop() {
        let fields = vec![smooth_field("a"), smooth_field("b")];
        let configs = vec![
            CodecConfig::Zfp(ZfpConfig::rate(4.0)),
            CodecConfig::Zfp(ZfpConfig::rate(8.0)),
        ];
        let records = run_sweep(&cross(&fields, &configs), false).unwrap();
        let order: Vec<(String, String)> =
            records.iter().map(|r| (r.field.clone(), r.param.clone())).collect();
        let expected: Vec<(String, String)> = ["a", "b"]
            .iter()
            .flat_map(|f| ["rate=4", "rate=8"].iter().map(|p| (f.to_string(), p.to_string())))
            .collect();
        assert_eq!(order, expected);
    }

    #[test]
    fn sweep_reports_failing_pairs_by_name() {
        let fields = vec![smooth_field("good_field")];
        let configs = vec![
            CodecConfig::Sz(SzConfig::abs(0.5)),
            // Invalid bound: compression of this pair must fail.
            CodecConfig::Sz(SzConfig::abs(-1.0)),
        ];
        let err = run_sweep(&cross(&fields, &configs), false).unwrap_err().to_string();
        assert!(err.contains("good_field"), "error names the field: {err}");
        assert!(err.contains("abs=-1"), "error names the config: {err}");
        assert!(err.contains("1 of 2"), "error counts failures: {err}");
    }

    #[test]
    fn overall_ratio_weights_by_bytes() {
        let f = smooth_field("a");
        let r1 = run_one(&f, &CodecConfig::Zfp(ZfpConfig::rate(4.0)), false).unwrap();
        let r2 = run_one(&f, &CodecConfig::Zfp(ZfpConfig::rate(8.0)), false).unwrap();
        let overall = overall_ratio(&[&r1, &r2]);
        // Rates 4 and 8 -> ratios ~8 and ~4 -> overall ~ 2*32/(4+8) = 5.33.
        assert!((overall - 5.33).abs() < 0.5, "overall {overall}");
    }

    #[test]
    fn shape_mismatch_rejected() {
        assert!(FieldData::new("x", vec![0.0; 10], Shape::D1(11)).is_err());
    }

    #[test]
    fn quiet_chaos_sweep_matches_cpu_sweep_bytes() {
        let fields = vec![smooth_field("a"), smooth_field("b")];
        let configs = vec![
            CodecConfig::Sz(SzConfig::abs(0.5)),
            CodecConfig::Zfp(ZfpConfig::rate(4.0)),
        ];
        let cpu = run_sweep(&cross(&fields, &configs), false).unwrap();
        let chaos = ChaosConfig::new(42, FaultRates::default());
        let report = run_sweep_chaos(&cross(&fields, &configs), false, &chaos).unwrap();
        assert!(report.quarantined.is_empty());
        assert_eq!(report.fallbacks(), 0);
        assert_eq!(report.records.len(), cpu.len());
        for (g, c) in report.records.iter().zip(&cpu) {
            assert_eq!(g.exec, ExecPath::Gpu, "no faults -> clean GPU path");
            assert_eq!(g.compressed_bytes, c.compressed_bytes, "same codec, same bytes");
            assert_eq!((g.field.as_str(), g.param.as_str()), (c.field.as_str(), c.param.as_str()));
            assert!(g.sim_seconds.unwrap() > 0.0);
        }
    }

    #[test]
    fn chaos_sweep_is_deterministic_and_degrades_gracefully() {
        let fields = vec![smooth_field("a"), smooth_field("b"), smooth_field("c")];
        let configs = vec![
            CodecConfig::Sz(SzConfig::abs(0.5)),
            CodecConfig::Zfp(ZfpConfig::rate(4.0)),
        ];
        let rates = FaultRates {
            transfer: 0.6,
            bit_flip: 0.5,
            kernel: 0.4,
            oom: 0.2,
            ..Default::default()
        };
        let mut chaos = ChaosConfig::new(7, rates);
        chaos.device_retries = 1;
        chaos.op_retries = 1;
        let run = || run_sweep_chaos(&cross(&fields, &configs), false, &chaos).unwrap();
        let a = run();
        // Nothing quarantined: every pair lands via GPU retries or CPU
        // fallback (the codec configs themselves are valid).
        assert!(a.quarantined.is_empty());
        assert_eq!(a.records.len(), 6);
        assert!(
            a.records.iter().any(|r| r.exec != ExecPath::Gpu),
            "these rates must perturb at least one pair"
        );
        // Bit-for-bit determinism of the simulated outcome.
        let b = run();
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.exec, y.exec);
            assert_eq!(x.compressed_bytes, y.compressed_bytes);
            assert_eq!(x.sim_seconds, y.sim_seconds);
            assert_eq!(x.ratio, y.ratio);
        }
    }

    #[test]
    fn sanitized_sweep_is_clean_and_byte_identical() {
        let fields = vec![smooth_field("a")];
        let configs = vec![
            CodecConfig::Sz(SzConfig::abs(0.5)),
            CodecConfig::Sz(SzConfig::pw_rel(0.01)),
            CodecConfig::Zfp(ZfpConfig::rate(4.0)),
            CodecConfig::Zfp(ZfpConfig::precision(20)),
        ];
        let plain = run_sweep(&cross(&fields, &configs), false).unwrap();
        let chaos = ChaosConfig::new(0, FaultRates::default())
            .with_sanitizer(SanitizerConfig::full());
        let report = run_sweep_chaos(&cross(&fields, &configs), false, &chaos).unwrap();
        assert_eq!(report.sanitizer, Vec::<String>::new(), "shipped kernels run clean");
        assert!(report.quarantined.is_empty());
        assert_eq!(report.records.len(), plain.len());
        for (t, p) in report.records.iter().zip(&plain) {
            // The traced launch path must not perturb the emitted stream.
            assert_eq!(t.compressed_bytes, p.compressed_bytes, "{} {}", t.field, t.param);
            assert_eq!(t.ratio, p.ratio);
            assert_eq!(t.exec, ExecPath::Gpu);
        }
    }

    #[test]
    fn sanitized_chaos_sweep_stays_leak_free_across_fault_paths() {
        // Quarantine/fallback/retry paths all unwind device memory; the
        // sanitizer must see zero leaks even when every fault fires.
        let fields = vec![smooth_field("a"), smooth_field("b")];
        let configs = vec![
            CodecConfig::Sz(SzConfig::abs(0.5)),
            CodecConfig::Sz(SzConfig::abs(-1.0)), // invalid: quarantined
            CodecConfig::Zfp(ZfpConfig::rate(4.0)),
        ];
        let rates = FaultRates {
            transfer: 0.5,
            bit_flip: 0.4,
            kernel: 0.4,
            oom: 0.2,
            ..Default::default()
        };
        let mut chaos = ChaosConfig::new(9, rates).with_sanitizer(SanitizerConfig::full());
        chaos.device_retries = 1;
        chaos.op_retries = 1;
        let report = run_sweep_chaos(&cross(&fields, &configs), false, &chaos).unwrap();
        assert_eq!(report.quarantined.len(), 2, "the invalid bound fails for both fields");
        assert_eq!(report.records.len(), 4);
        assert!(
            report.sanitizer.iter().all(|l| !l.contains("leak")),
            "fault unwinding must release every buffer: {:?}",
            report.sanitizer
        );
        assert!(
            report.sanitizer.is_empty(),
            "no findings of any kind expected: {:?}",
            report.sanitizer
        );
    }

    #[test]
    fn invalid_pair_is_quarantined_with_partial_results() {
        let fields = vec![smooth_field("good_field")];
        let configs = vec![
            CodecConfig::Sz(SzConfig::abs(0.5)),
            CodecConfig::Sz(SzConfig::abs(-1.0)), // invalid: retries cannot help
        ];
        let chaos = ChaosConfig::new(3, FaultRates::default());
        let report = run_sweep_chaos(&cross(&fields, &configs), false, &chaos).unwrap();
        assert_eq!(report.records.len(), 1, "the good pair survives");
        assert_eq!(report.quarantined.len(), 1);
        let q = &report.quarantined[0];
        assert_eq!(q.field, "good_field");
        assert!(q.param.contains("abs=-1"));
        assert!(!q.error.is_empty());
    }

    #[test]
    fn bad_rates_rejected() {
        let chaos = ChaosConfig::new(1, FaultRates { transfer: 2.0, ..Default::default() });
        assert!(run_sweep_chaos(&[], false, &chaos).is_err());
    }
}

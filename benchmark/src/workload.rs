//! The workload interface and the loop that drives one workload in one
//! process: set-up, timed rounds, metrics.

use crate::check::Tally;
use crate::report::{end_to_end_units, Metrics, PER_LAYER};
use crate::spans::{self, Recorder, Span};
use crate::stats::{median, round_rates_mbs};
use crate::{cluster, field, store};
use foresight_util::timer::Timer;
use foresight_util::Result;
use std::collections::BTreeMap;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["field-sz", "field-zfp", "store-chunks", "cluster-storm"];

/// How many times the untraced run sets up; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// `Span::round` of spans recorded by per-layer experiments.
pub const EXPERIMENT_ROUND: u32 = u32::MAX;

/// Figures fixed by the inputs alone (exact and model classes).
#[derive(Debug, Clone, Copy)]
pub struct Facts {
    /// Uncompressed bytes per compressed byte over the workload's outputs.
    pub ratio: f64,
    /// Smallest value-range PSNR over the fields.
    pub psnr_db: f64,
    /// Largest `max|x - x̂| / range` over the fields.
    pub max_err_rel: f64,
    /// Simulated V100 throughput for the same inputs.
    pub sim_gbs: f64,
}

/// What the rounds measured.
#[derive(Debug, Default)]
pub struct RoundLog {
    /// Per round: bytes entering write-direction calls, seconds in them.
    pub write: Vec<(u64, f64)>,
    /// Per round: bytes returned by read-direction calls, seconds in them.
    pub read: Vec<(u64, f64)>,
    /// Wall milliseconds of every client-visible op.
    pub op_ms: Vec<f64>,
    /// Exact work counts the library reports, summed over the rounds.
    pub counts: BTreeMap<&'static str, u64>,
}

/// One workload, set up and ready to run rounds.
pub trait Workload {
    /// Exact and model figures computed during set-up.
    fn facts(&self) -> Facts;
    /// Runs one round: times the calls, verifies every output.
    fn round(&self, rec: &mut Recorder, log: &mut RoundLog, tally: &mut Tally);
    /// SHA-256 over the reference outputs every round is compared with.
    fn output_digest(&self) -> String;
    /// Metrics derived from the spans of the traced rounds, then the
    /// per-layer experiments, which record further spans on `rec`.
    fn layers(
        &self,
        round_spans: &[Span],
        log: &RoundLog,
        rec: &mut Recorder,
        m: &mut Metrics,
    ) -> Result<()>;
    /// Share of the traced rounds owned by the workload's named layer.
    fn dominant_share(&self, spans: &[Span], _m: &Metrics) -> f64 {
        layer_share(spans, self.gates().layers)
    }
    /// Validity thresholds of the traced run.
    fn gates(&self) -> Gates;
}

/// Validity thresholds: the named layers must own at least `min_share`
/// of the traced rounds' self time and each bypassed layer at most 5 %.
#[derive(Debug, Clone, Copy)]
pub struct Gates {
    /// Layers whose self time counts towards the dominant share.
    pub layers: &'static [&'static str],
    /// Smallest acceptable dominant share.
    pub min_share: f64,
    /// Layers this workload is the bypass for.
    pub bypassed: &'static [&'static str],
}

fn build(name: &str, seed: u64, rec: &mut Recorder) -> Result<Box<dyn Workload>> {
    Ok(match name {
        "field-sz" => Box::new(field::FieldWorkload::setup(field::Codec::Sz, seed, rec)?),
        "field-zfp" => Box::new(field::FieldWorkload::setup(field::Codec::Zfp, seed, rec)?),
        "store-chunks" => Box::new(store::StoreWorkload::setup(seed, rec)?),
        "cluster-storm" => Box::new(cluster::ClusterWorkload::setup(seed, rec)?),
        other => return Err(foresight_util::Error::invalid(format!("unknown workload '{other}'"))),
    })
}

/// True for spans recorded inside a timed round.
pub fn in_round(s: &Span) -> bool {
    s.round >= 1 && s.round != EXPERIMENT_ROUND
}

/// Self-time share of `layers` among the non-`check` spans of the rounds.
pub fn layer_share(spans: &[Span], layers: &[&str]) -> f64 {
    let own = spans::self_times(spans);
    let (mut named, mut all) = (0.0, 0.0);
    for (s, own_s) in spans.iter().zip(own) {
        if in_round(s) && s.layer() != "check" {
            all += own_s;
            if layers.contains(&s.layer()) {
                named += own_s;
            }
        }
    }
    if all > 0.0 {
        named / all
    } else {
        0.0
    }
}

/// Peak resident set of this process in MB, from `VmHWM`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1e3)
}

/// How long the round loop runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Whole rounds until this many seconds have passed.
    Seconds(f64),
    /// Exactly this many rounds (fixed work, for `selfcheck`).
    Rounds(u32),
}

impl Budget {
    fn spent(&self, rounds: u32, loop_timer: &Timer) -> bool {
        match *self {
            Budget::Seconds(s) => rounds >= 1 && loop_timer.elapsed_secs() >= s,
            Budget::Rounds(n) => rounds >= n,
        }
    }
}

/// A finished run, ready to print.
pub struct Outcome {
    /// The metrics of the requested kind.
    pub metrics: Metrics,
    /// The `(name, unit)` table they are printed against.
    pub table: Vec<(&'static str, &'static str)>,
    /// Attempted and failed operations.
    pub tally: Tally,
    /// Rounds run in the timed loop.
    pub rounds: u32,
    /// Digest of the reference outputs.
    pub output_digest: String,
    /// Layer self-time table of the traced rounds (traced runs only).
    pub self_times: String,
}

/// The untraced run: `SETUP_REPS` set-ups, then timed rounds.
pub fn run_untraced(
    name: &str,
    seed: u64,
    budget: Budget,
    process_start: Timer,
) -> Result<Outcome> {
    let mut rec = Recorder::new(false);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut workload = None;
    for rep in 0..SETUP_REPS {
        // Free the previous copy first so the peak is one set-up's.
        drop(workload.take());
        let timer = if rep == 0 { process_start } else { Timer::new() };
        workload = Some(build(name, seed, &mut rec)?);
        setups.push(timer.elapsed_secs());
    }
    let workload = workload.expect("SETUP_REPS is at least one");

    let (mut log, mut tally) = (RoundLog::default(), Tally::default());
    let loop_timer = Timer::new();
    let mut rounds = 0u32;
    while !budget.spent(rounds, &loop_timer) {
        rounds += 1;
        workload.round(&mut rec, &mut log, &mut tally);
    }

    let facts = workload.facts();
    let mut m = Metrics::default();
    m.set_median("setup_s", &setups);
    m.set_median("write_mbs", &round_rates_mbs(&log.write));
    m.set_median("read_mbs", &round_rates_mbs(&log.read));
    m.set_median("op_p50_ms", &log.op_ms);
    m.set("ratio", facts.ratio);
    m.set("psnr_db", facts.psnr_db);
    m.set("sim_gbs", facts.sim_gbs);
    m.set("peak_rss_mb", peak_rss_mb());
    Ok(Outcome {
        metrics: m,
        table: end_to_end_units(),
        tally,
        rounds,
        output_digest: workload.output_digest(),
        self_times: String::new(),
    })
}

/// The traced run: one set-up, rounds alternating spans off and on, then
/// the per-layer experiments. Returns the outcome and the Chrome trace.
pub fn run_traced(name: &str, seed: u64, budget: Budget) -> Result<(Outcome, String)> {
    let mut rec = Recorder::new(true);
    let workload = build(name, seed, &mut rec)?;

    let (mut log, mut tally) = (RoundLog::default(), Tally::default());
    // Per round: seconds inside timed calls, and wall seconds.
    let mut timed: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut traced_wall = 0.0;
    let loop_timer = Timer::new();
    let mut rounds = 0u32;
    // Odd rounds run with spans off, even rounds with spans on; at least
    // two of each so both medians exist.
    while rounds < 4 || !budget.spent(rounds, &loop_timer) || rounds % 2 == 1 {
        rounds += 1;
        let traced = rounds.is_multiple_of(2);
        rec.set_enabled(traced);
        rec.set_round(rounds);
        let before = (log.write.len(), log.read.len());
        let wall = Timer::new();
        workload.round(&mut rec, &mut log, &mut tally);
        if traced {
            traced_wall += wall.elapsed_secs();
        }
        let secs: f64 =
            log.write[before.0..].iter().chain(&log.read[before.1..]).map(|r| r.1).sum();
        timed[usize::from(traced)].push(secs);
    }

    rec.set_enabled(true);
    rec.set_round(EXPERIMENT_ROUND);
    let mut m = Metrics::default();
    let round_spans: Vec<Span> = rec.spans().iter().filter(|s| in_round(s)).cloned().collect();
    workload.layers(&round_spans, &log, &mut rec, &mut m)?;

    let spans = rec.spans();
    let top_level: f64 =
        spans.iter().filter(|s| in_round(s) && s.parent.is_none()).map(|s| s.dur_s).sum();
    m.set("trace.overhead_frac", median(&timed[1]) / median(&timed[0]) - 1.0);
    m.set("trace.coverage", top_level / traced_wall);
    let share = workload.dominant_share(spans, &m);
    m.set("trace.dominant_share", share);
    m.set("check.fail_frac", tally.fail_frac());
    m.set("check.max_err_rel", workload.facts().max_err_rel);
    for (span_name, metric) in [
        ("cosmo.generate_nyx", "cosmo.generate_nyx.s"),
        ("cosmo.generate_hacc", "cosmo.generate_hacc.s"),
    ] {
        if let Some(s) = spans.iter().find(|s| s.name == span_name) {
            m.set(metric, s.dur_s);
        }
    }

    let gates = workload.gates();
    tally.op(m.get("trace.coverage") >= 0.95, || {
        format!("gate: trace.coverage {:.3} < 0.95", m.get("trace.coverage"))
    });
    tally.op(share >= gates.min_share, || {
        format!("gate: trace.dominant_share {share:.3} < {}", gates.min_share)
    });
    for layer in gates.bypassed {
        let bypass_share = layer_share(spans, &[layer]);
        tally.op(bypass_share <= 0.05, || {
            format!("gate: bypassed layer '{layer}' owns {bypass_share:.3} > 0.05 of {name}")
        });
    }

    let trace = rec.chrome_trace(name);
    let outcome = Outcome {
        metrics: m,
        table: PER_LAYER.to_vec(),
        tally,
        rounds,
        output_digest: workload.output_digest(),
        self_times: self_time_table(rec.spans()),
    };
    Ok((outcome, trace))
}

/// The layer self-time table of the traced rounds.
fn self_time_table(spans: &[Span]) -> String {
    let table = spans::totals_by_name(spans, in_round);
    let all: f64 = table.values().map(|t| t.self_s).sum();
    let mut out = format!(
        "  {:<32} {:>8} {:>12} {:>12} {:>7}\n",
        "span", "calls", "busy_s", "self_s", "share"
    );
    for (name, t) in &table {
        out.push_str(&format!(
            "  {name:<32} {:>8} {:>12.6} {:>12.6} {:>6.1}%\n",
            t.calls,
            t.busy_s,
            t.self_s,
            100.0 * t.self_s / all.max(f64::MIN_POSITIVE)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, dur_s: f64, parent: Option<usize>, round: u32) -> Span {
        Span { name, start_s: 0.0, dur_s, parent, round }
    }

    #[test]
    fn layer_share_ignores_checks_setup_and_experiments() {
        let spans = vec![
            span("cosmo.generate_nyx", 50.0, None, 0),
            span("sz.compress", 8.0, None, 2),
            span("zfp.compress", 2.0, None, 2),
            span("check.field", 30.0, None, 2),
            span("sz.compress", 70.0, None, EXPERIMENT_ROUND),
        ];
        assert_eq!(layer_share(&spans, &["sz"]), 0.8);
        assert_eq!(layer_share(&spans, &["zfp"]), 0.2);
        assert_eq!(layer_share(&spans, &["sz", "zfp"]), 1.0);
        assert_eq!(layer_share(&spans, &["store"]), 0.0);
        assert_eq!(layer_share(&[], &["sz"]), 0.0);
    }

    #[test]
    fn budgets() {
        let t = Timer::new();
        assert!(!Budget::Rounds(2).spent(1, &t));
        assert!(Budget::Rounds(2).spent(2, &t));
        assert!(!Budget::Seconds(0.0).spent(0, &t), "at least one round always runs");
        assert!(Budget::Seconds(0.0).spent(1, &t));
    }
}

//! `selfcheck`: evidence that the benchmark measures the program and
//! repeats. Every workload runs twice from fresh processes on fixed work
//! (A/A), then once on half the work.

use crate::report::{Class, END_TO_END};
use crate::workload::NAMES;
use foresight_util::json::Value;
use std::process::Command;

/// Rounds of the fixed-work runs, per workload in `NAMES` order: about
/// as long as the default `--seconds` on the reference machine, and even
/// so half of it is a whole number of rounds.
const ROUNDS: [u32; 4] = [14, 6, 8, 4];

/// The parsed result line of one child run.
struct Run {
    attempted: u64,
    failed: u64,
    digest: String,
    metrics: Vec<f64>,
}

fn child(name: &str, seed: u64, rounds: u32) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["run", "--workload", name, "--trace", "0"])
        .args(["--seed", &seed.to_string(), "--rounds", &rounds.to_string()])
        .output()
        .map_err(|e| format!("cannot start the {name} process: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().ok_or(format!("{name}: no output"))?;
    let doc = Value::parse(line).map_err(|e| format!("{name}: result line is not JSON: {e}"))?;
    let count =
        |key: &str| doc.get(key).and_then(Value::as_u64).ok_or(format!("{name}: no '{key}'"));
    let metrics = END_TO_END
        .iter()
        .map(|(metric, ..)| {
            doc.get("metrics")
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .ok_or(format!("{name}: no metric '{metric}'"))
        })
        .collect::<Result<Vec<f64>, String>>()?;
    let digest = text
        .lines()
        .find_map(|l| l.trim().strip_prefix("output_digest "))
        .unwrap_or_default()
        .to_string();
    Ok(Run { attempted: count("attempted")?, failed: count("failed")?, digest, metrics })
}

/// Relative distance of `b` from `a`.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (a - b).abs() / a.abs().min(b.abs()).max(f64::MIN_POSITIVE)
    }
}

/// Complaints about a pair of runs of the same code on the same work.
fn compare_same(first: &Run, second: &Run) -> Vec<String> {
    let mut bad = Vec::new();
    if first.digest != second.digest || first.digest.is_empty() {
        bad.push(format!("output_digest {} vs {}", first.digest, second.digest));
    }
    if first.attempted != second.attempted {
        bad.push(format!("attempted {} vs {}", first.attempted, second.attempted));
    }
    for (i, (name, _, class, bound)) in END_TO_END.iter().enumerate() {
        let (a, b) = (first.metrics[i], second.metrics[i]);
        let ok = match class {
            Class::Wall => rel_diff(a, b) <= *bound,
            Class::Exact | Class::Model => a == b,
        };
        if !ok {
            bad.push(format!("{name}: {a} vs {b} ({class:?}, bound {bound})"));
        }
    }
    bad
}

/// Complaints about a run on half the rounds of `full`.
fn compare_half(full: &Run, half: &Run) -> Vec<String> {
    let mut bad = Vec::new();
    if half.attempted * 2 != full.attempted {
        bad.push(format!("attempted {} is not half of {}", half.attempted, full.attempted));
    }
    for (i, (name, _, _, bound)) in END_TO_END.iter().enumerate() {
        if matches!(*name, "write_mbs" | "read_mbs") {
            let (a, b) = (full.metrics[i], half.metrics[i]);
            if rel_diff(a, b) > *bound {
                bad.push(format!("{name}: {a} at full work vs {b} at half (bound {bound})"));
            }
        }
    }
    bad
}

/// Runs the self-check and returns the process exit code.
pub fn run(seed: u64) -> Result<i32, String> {
    let mut failures = 0;
    for (name, rounds) in NAMES.into_iter().zip(ROUNDS) {
        let first = child(name, seed, rounds)?;
        let second = child(name, seed, rounds)?;
        let half = child(name, seed, rounds / 2)?;
        let mut bad = compare_same(&first, &second);
        bad.extend(compare_half(&first, &half));
        for run in [&first, &second, &half] {
            if run.failed > 0 {
                bad.push(format!("{} of {} operations failed", run.failed, run.attempted));
            }
        }
        println!("{name}: {rounds} rounds twice, {} rounds once", rounds / 2);
        println!("  {:<14} {:>16} {:>16} {:>16}", "metric", "run 1", "run 2", "half work");
        for (i, (metric, ..)) in END_TO_END.iter().enumerate() {
            println!(
                "  {metric:<14} {:>16.6} {:>16.6} {:>16.6}",
                first.metrics[i], second.metrics[i], half.metrics[i]
            );
        }
        println!(
            "  {:<14} {:>16} {:>16} {:>16}",
            "attempted", first.attempted, second.attempted, half.attempted
        );
        for b in &bad {
            println!("  FAILED {b}");
        }
        failures += bad.len();
    }
    println!("selfcheck: {}", if failures == 0 { "passed" } else { "FAILED" });
    Ok(i32::from(failures > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_with(metrics: [f64; 8], attempted: u64) -> Run {
        Run { attempted, failed: 0, digest: "d".into(), metrics: metrics.to_vec() }
    }

    #[test]
    fn wall_metrics_get_their_bound_and_exact_ones_none() {
        let base = [4.0, 100.0, 200.0, 50.0, 6.0, 70.0, 30.0, 300.0];
        let a = run_with(base, 100);
        let mut wobble = base;
        wobble[1] = 120.0; // write_mbs within its 25 %
        assert!(compare_same(&a, &run_with(wobble, 100)).is_empty());
        wobble[1] = 130.0;
        assert_eq!(compare_same(&a, &run_with(wobble, 100)).len(), 1);
        let mut drift = base;
        drift[4] = 6.000001; // ratio is exact
        assert_eq!(compare_same(&a, &run_with(drift, 100)).len(), 1);
        assert_eq!(compare_same(&a, &run_with(base, 101)).len(), 1);
    }

    #[test]
    fn half_work_must_halve_the_ops_and_keep_the_rates() {
        let base = [4.0, 100.0, 200.0, 50.0, 6.0, 70.0, 30.0, 300.0];
        let full = run_with(base, 100);
        assert!(compare_half(&full, &run_with(base, 50)).is_empty());
        assert_eq!(compare_half(&full, &run_with(base, 51)).len(), 1);
        let mut slow = base;
        slow[2] = 140.0;
        assert_eq!(compare_half(&full, &run_with(slow, 50)).len(), 1);
        assert_eq!(rel_diff(100.0, 110.0), 0.1);
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
    }
}

//! The repository's wall-clock benchmark of record.
//!
//! ```text
//! foresight-benchmark run [--workload <name>] [--seed <u64>] [--seconds <s>]
//!                         [--rounds <n>] [--trace [0|1]]
//! foresight-benchmark selfcheck [--seed <u64>]
//! ```
//!
//! `run` measures one workload in this process; without `--workload` it
//! starts one fresh process per workload so set-up time and peak memory
//! belong to that workload alone. Every layer is measured from outside,
//! by timing calls into the library's public functions. See `README.md`.

#![forbid(unsafe_code)]

mod check;
mod cluster;
mod field;
mod gen;
mod report;
mod selfcheck;
mod spans;
mod stats;
mod store;
mod workload;

use foresight_util::timer::Timer;
use rayon::ThreadPoolBuilder;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workload::Budget;

/// Default `--seed`.
const DEFAULT_SEED: u64 = 13;
/// Default `--seconds`; `BENCHMARK.json` passes the same value.
const DEFAULT_SECONDS: f64 = 12.0;

/// Parsed command line of `run`.
#[derive(Debug, Clone, PartialEq)]
struct RunArgs {
    workload: Option<String>,
    seed: u64,
    budget: Budget,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: foresight-benchmark run [--workload <{}>] [--seed <u64>] [--seconds <s>] \
         [--rounds <n>] [--trace [0|1]]\n       foresight-benchmark selfcheck [--seed <u64>]",
        workload::NAMES.join("|")
    )
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        budget: Budget::Seconds(DEFAULT_SECONDS),
        trace: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !workload::NAMES.contains(&name.as_str()) {
                    return Err(format!("unknown workload '{name}'"));
                }
                out.workload = Some(name.clone());
            }
            "--seed" => out.seed = value("a u64")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value("seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                out.budget = Budget::Seconds(s);
            }
            "--rounds" => {
                let n: u32 = value("a count")?.parse().map_err(|e| format!("--rounds: {e}"))?;
                if n == 0 {
                    return Err("--rounds must be at least 1".into());
                }
                out.budget = Budget::Rounds(n);
            }
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => {
                out.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(out)
}

/// Worker threads the library's parallel sections use.
fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(4)
}

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Runs one workload in this process and prints its metrics.
fn run_one(name: &str, args: &RunArgs, process_start: Timer) -> Result<i32, String> {
    let threads = threads();
    let pool = ThreadPoolBuilder::new().num_threads(threads).build().map_err(|e| e.to_string())?;
    let (outcome, trace) = pool
        .install(|| {
            if args.trace {
                workload::run_traced(name, args.seed, args.budget).map(|(o, t)| (o, Some(t)))
            } else {
                workload::run_untraced(name, args.seed, args.budget, process_start)
                    .map(|o| (o, None))
            }
        })
        .map_err(|e| format!("{name}: {e}"))?;

    println!(
        "workload {name}  seed {}  threads {threads}  rounds {}  trace {}",
        args.seed,
        outcome.rounds,
        u8::from(args.trace)
    );
    print!("{}", outcome.metrics.table(&outcome.table));
    println!("  {:<32} {:>14.6} ratio", "fail_frac", outcome.tally.fail_frac());
    println!("  output_digest {}", outcome.output_digest);
    if let Some(trace) = trace {
        print!("{}", outcome.self_times);
        let dir = results_dir();
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let path = dir.join(format!("trace_{name}.json"));
        std::fs::write(&path, trace).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("  trace written to {}", path.display());
    }
    for reason in &outcome.tally.reasons {
        println!("  FAILED {reason}");
    }
    let undeclared = outcome.metrics.undeclared(&outcome.table);
    if !undeclared.is_empty() {
        return Err(format!("metrics missing from the declared table: {undeclared:?}"));
    }
    let correct = outcome.tally.failed == 0;
    println!("{}", outcome.metrics.json_line(&outcome.table, &outcome.tally, correct));
    Ok(report::exit_code(&outcome.tally))
}

/// Starts one fresh process per workload and returns the worst exit code.
fn run_all(args: &[String]) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut worst = 0;
    for name in workload::NAMES {
        let status = Command::new(&exe)
            .arg("run")
            .args(["--workload", name])
            .args(args)
            .status()
            .map_err(|e| format!("cannot start the {name} process: {e}"))?;
        worst = worst.max(status.code().unwrap_or(1));
    }
    Ok(worst)
}

fn main() -> ExitCode {
    let process_start = Timer::new();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => {
            parse_run(rest).and_then(|parsed| match &parsed.workload {
                Some(name) => run_one(name, &parsed, process_start),
                None => run_all(rest),
            })
        }
        Some((cmd, rest)) if cmd == "selfcheck" => {
            parse_run(rest).and_then(|p| selfcheck::run(p.seed))
        }
        _ => Err(usage()),
    };
    match result {
        Ok(code) => ExitCode::from(code as u8),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_and_manual_forms_of_the_command_line() {
        let a = parse_run(&args("--workload field-sz --seed 7 --seconds 12 --trace 0")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("field-sz"));
        assert_eq!((a.seed, a.trace), (7, false));
        assert!(matches!(a.budget, Budget::Seconds(s) if s == 12.0));
        assert!(parse_run(&args("--trace 1")).unwrap().trace);
        assert!(parse_run(&args("--trace --seed 3")).unwrap().trace);
        assert!(matches!(parse_run(&args("--rounds 4")).unwrap().budget, Budget::Rounds(4)));
        for bad in ["--workload nope", "--seconds 0", "--rounds 0", "--seed", "--frobnicate"] {
            assert!(parse_run(&args(bad)).is_err(), "{bad}");
        }
    }
}

//! Regenerates the paper's exhibits: `exhibit <id>|all [flags]` builds
//! each selected exhibit, prints its tables and texts, and writes them
//! with a Cinema index to `<out>/<id>/`.
//!
//! Exit codes: the table in README "Command line" (1 when an exhibit
//! failed; its error is on stderr).

use foresight_bench::{run, select, Cli, Ctx, EXHIBITS};
use foresight_util::cli::{self, Failure};
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    cli::exit(run_all(&argv), || {
        let ids: Vec<&str> = EXHIBITS.iter().map(|e| e.id).collect();
        format!("{}  ids: {}\n", Cli::command().usage(), ids.join(" "))
    })
}

fn run_all(argv: &[String]) -> Result<(), Failure> {
    let (entries, cli) = select(argv)?;
    let ctx = Ctx::new(cli);
    let mut failed = Vec::new();
    for entry in entries {
        match run(&ctx, entry) {
            Ok(dir) => println!("wrote {}\n", dir.display()),
            Err(e) => {
                eprintln!("{}: {e}", entry.id);
                failed.push(entry.id);
            }
        }
    }
    if failed.is_empty() {
        return Ok(());
    }
    Err(Failure::new(cli::FAILURE, format!("exhibit(s) failed: {}", failed.join(" "))))
}

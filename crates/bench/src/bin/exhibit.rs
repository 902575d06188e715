//! Regenerates the paper's exhibits: `exhibit <id>|all [flags]` builds
//! each selected exhibit, prints its tables and texts, and writes them
//! with a Cinema index to `<out>/<id>/`.
//!
//! Exit codes: 0 when every exhibit succeeded, 1 when one failed (its
//! error is on stderr), 2 on a usage error.

use foresight_bench::{run, select, Ctx, EXHIBITS, FLAGS};
use std::process::ExitCode;

fn main() -> ExitCode {
    let ids: Vec<&str> = EXHIBITS.iter().map(|e| e.id).collect();
    let usage = format!("usage: exhibit <id>|all {FLAGS}\nids: {}", ids.join(" "));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (entries, cli) = match select(&args) {
        Ok(sel) => sel,
        Err(e) => {
            eprintln!("{e}\n{usage}");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx::new(cli);
    let mut failed = false;
    for entry in entries {
        match run(&ctx, entry) {
            Ok(dir) => println!("wrote {}\n", dir.display()),
            Err(e) => {
                eprintln!("{}: {e}", entry.id);
                failed = true;
            }
        }
    }
    ExitCode::from(u8::from(failed))
}

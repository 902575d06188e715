//! `exhibit` and `entropy_throughput` as processes: every usage error
//! exits 2, names the offending token on stderr and never panics (no
//! exhibit runs), and every line of their generated usage text appears in
//! README.

use std::process::{Command, Output};

const EXHIBIT: &str = env!("CARGO_BIN_EXE_exhibit");
const ENTROPY: &str = env!("CARGO_BIN_EXE_entropy_throughput");

fn run(bin: &str, args: &str) -> Output {
    Command::new(bin).args(args.split_whitespace()).output().expect("run the binary")
}

#[test]
fn usage_errors_exit_2_and_name_the_token() {
    for (bin, args, token) in [
        (EXHIBIT, "fig4 --seed x", "'x'"),
        (EXHIBIT, "fig4 --n-side 12", "--n-side must be a power of two >= 8, got 12"),
        (EXHIBIT, "fig4 --n-side 4", "got 4"),
        (EXHIBIT, "fig4 --steps", "--steps needs a value"),
        (EXHIBIT, "fig4 --bogus 1", "'--bogus'"),
        (EXHIBIT, "fig4 extra", "'extra'"),
        (EXHIBIT, "fig11", "'fig11'"),
        (EXHIBIT, "", "missing exhibit id"),
        (EXHIBIT, "--n-side 16 fig4", "'--n-side'"),
        (ENTROPY, "--n-side 100", "got 100"),
        (ENTROPY, "--seed", "--seed needs a value"),
        (ENTROPY, "fig4", "'fig4'"),
    ] {
        let out = run(bin, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args}: {stderr}");
        assert!(stderr.contains(token), "{args}: stderr does not name {token}: {stderr}");
        assert!(!stderr.contains("panicked") && stderr.contains("usage:"), "{args}: {stderr}");
    }
}

#[test]
fn readme_holds_the_generated_usage_text() {
    let readme =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md")).unwrap();
    for bin in [EXHIBIT, ENTROPY] {
        let stderr = String::from_utf8_lossy(&run(bin, "--help").stderr).into_owned();
        let usage = stderr.split_once("usage:\n").expect("usage text after a usage error").1;
        for line in usage.lines() {
            assert!(readme.contains(line), "README lacks the usage line\n{line}");
        }
    }
}

//! `exhibit` as a process: every usage error exits 2, names the offending
//! token on stderr and never panics (no exhibit runs), and every line of
//! its generated usage text appears in README.

use std::process::{Command, Output};

fn run(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_exhibit"))
        .args(args.split_whitespace())
        .output()
        .expect("run exhibit")
}

#[test]
fn usage_errors_exit_2_and_name_the_token() {
    for (args, token) in [
        ("fig4 --seed x", "'x'"),
        ("fig4 --n-side 12", "--n-side must be a power of two >= 8, got 12"),
        ("fig4 --n-side 4", "got 4"),
        ("fig4 --steps", "--steps needs a value"),
        ("fig4 --bogus 1", "'--bogus'"),
        ("fig4 extra", "'extra'"),
        ("fig11", "'fig11'"),
        ("", "missing exhibit id"),
        ("--n-side 16 fig4", "'--n-side'"),
    ] {
        let out = run(args);
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
    let stderr = String::from_utf8_lossy(&run("--help").stderr).into_owned();
    let usage = stderr.split_once("usage:\n").expect("usage text after a usage error").1;
    for line in usage.lines() {
        assert!(readme.contains(line), "README lacks the usage line\n{line}");
    }
}

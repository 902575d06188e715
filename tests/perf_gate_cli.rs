//! `perf-gate` as a process: every usage error exits 2, names the
//! offending token on stderr and never panics (the scenarios do not run),
//! and every line of its generated usage text appears in README.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perf-gate"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("run perf-gate")
}

#[test]
fn usage_errors_exit_2_and_name_the_token() {
    for (args, token) in [
        (&["--rebaseline", " "][..], "--rebaseline must be non-blank"),
        (&["--dir"], "--dir needs a value"),
        (&["--rebaseline"], "--rebaseline needs a value"),
        (&["--bogus"], "'--bogus'"),
        (&["--dir", ".", "extra"], "'extra'"),
    ] {
        let out = run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(token), "{args:?}: stderr does not name {token}: {stderr}");
        assert!(!stderr.contains("panicked") && stderr.contains("usage:"), "{args:?}: {stderr}");
    }
}

#[test]
fn readme_holds_the_generated_usage_text() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md")).unwrap();
    let stderr = String::from_utf8_lossy(&run(&["--help"]).stderr).into_owned();
    let usage = stderr.split_once("usage:\n").expect("usage text after a usage error").1;
    for line in usage.lines() {
        assert!(readme.contains(line), "README lacks the usage line\n{line}");
    }
}

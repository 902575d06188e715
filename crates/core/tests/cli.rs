//! End to end through the binaries: `foresight-cli` and `trace-check`
//! run as processes on committed fixtures.
//!
//! - Every usage error exits 2, names the offending token on stderr and
//!   never panics.
//! - The cheap offline commands print what the pins under
//!   `tests/golden/cli/` hold and exit 0: `store serve`'s, taken once its
//!   stdout stopped depending on how workers race for one reader's cache;
//!   the others from the binaries before they moved to the one command
//!   grammar (the `store` ones re-taken at archive VERSION 2).
//! - Every line of the generated usage text appears verbatim in README.

use foresight_util::sha256::sha256_hex;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const CLI: &str = env!("CARGO_BIN_EXE_foresight-cli");
const TRACE_CHECK: &str = env!("CARGO_BIN_EXE_trace-check");
const ARCHIVE: &str = "tests/golden/store_32_chunk16.fstr";
const TELEMETRY: &str = "results/telemetry_smoke/telemetry/telemetry.json";
/// SHA-256 of the f32le bytes `store extract --region 8:24,8:24,8:24`
/// writes for `sz_abs_1e-3`.
const EXTRACT_SHA256: &str = "3624eeef3acee4e0f5025c4dd870135288c3b0484f78152a04899a5ec7f83957";

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Runs `bin` with `args` from the repository root.
fn run(bin: &str, args: &str) -> Output {
    Command::new(bin)
        .args(args.split_whitespace())
        .current_dir(root())
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"))
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// `args` must exit 2 with `token` on stderr and no panic.
fn usage_error(bin: &str, args: &str, token: &str) {
    let out = run(bin, args);
    let stderr = text(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args}: {stderr}");
    assert!(stderr.contains(token), "{bin} {args}: stderr does not name {token}: {stderr}");
    assert!(!stderr.contains("panicked"), "{bin} {args}: {stderr}");
    assert!(stderr.contains("usage:"), "{bin} {args}: no usage text: {stderr}");
}

#[test]
fn usage_errors_exit_2_and_name_the_token() {
    for (args, token) in [
        ("serve-bench --requests many", "'many'"),
        ("store serve x.fstr --seed -", "'-'"),
        ("store extract a.fstr zero field", "'zero'"),
        ("store extract a.fstr 0 f --region 1:2,x", "'1:2,x'"),
        ("serve-bench --out", "--out needs a value"),
        ("cluster-bench --requests", "--requests needs a value"),
        ("--bogus c.json", "'--bogus'"),
        ("store ls a.fstr --deep", "'--deep'"),
        ("report a.json b.json", "'b.json'"),
        ("store verify a.fstr b.fstr", "'b.fstr'"),
        ("a.json b.json", "'b.json'"),
        ("", "missing <config.json>"),
        ("store", "unknown subcommand 'store'"),
        ("store list a.fstr", "unknown subcommand 'store list'"),
        (&format!("--trace /tmp/t.json store ls {ARCHIVE}"), "'--trace'"),
        ("--quiet report t.json", "'--quiet'"),
        ("--memcheck serve-bench", "'--memcheck'"),
        ("--help", "'--help'"),
    ] {
        usage_error(CLI, args, token);
    }
    for (args, token) in [
        ("", "missing <trace.json>"),
        ("--require-flows", "missing <trace.json>"),
        ("--strict t.json", "'--strict'"),
        ("a.json b.json", "'b.json'"),
    ] {
        usage_error(TRACE_CHECK, args, token);
    }
}

/// The pinned stdout in `tests/golden/cli/<name>.stdout`.
fn pinned(name: &str) -> String {
    let path = root().join("tests/golden/cli").join(format!("{name}.stdout"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn assert_stdout(bin: &str, args: &str, name: &str) {
    let out = run(bin, args);
    assert_eq!(out.status.code(), Some(0), "{args}: {}", text(&out.stderr));
    assert_eq!(text(&out.stdout), pinned(name), "{args}: stdout moved");
}

#[test]
fn offline_commands_print_the_pinned_stdout() {
    assert_stdout(CLI, &format!("store ls {ARCHIVE}"), "store_ls");
    assert_stdout(CLI, &format!("store verify {ARCHIVE}"), "store_verify");
    // Two schedulers race on one shared reader; stdout prints only what
    // the requests fix, so it is the same on every run.
    for _ in 0..3 {
        assert_stdout(CLI, &format!("store serve {ARCHIVE}"), "store_serve");
    }
    assert_stdout(CLI, &format!("report {TELEMETRY}"), "report");
    assert_stdout(CLI, &format!("obs-report {TELEMETRY}"), "obs_report");
    assert_stdout(TRACE_CHECK, "results/telemetry/trace.json", "trace_check");
}

#[test]
fn store_extract_writes_the_pinned_bytes() {
    let out_path = std::env::temp_dir().join(format!("foresight-cli-{}.f32le", std::process::id()));
    let args = format!(
        "store extract {ARCHIVE} 0 sz_abs_1e-3 --region 8:24,8:24,8:24 --out {}",
        out_path.display()
    );
    let out = run(CLI, &args);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    let stdout = text(&out.stdout).replace(&out_path.display().to_string(), "<out>");
    assert_eq!(stdout, pinned("store_extract"));
    let bytes = std::fs::read(&out_path).unwrap();
    std::fs::remove_file(&out_path).unwrap();
    assert_eq!(sha256_hex(&bytes), EXTRACT_SHA256);
}

#[test]
fn readme_holds_the_generated_usage_text() {
    let readme = std::fs::read_to_string(root().join("README.md")).unwrap();
    for bin in [CLI, TRACE_CHECK] {
        let stderr = text(&run(bin, "--help").stderr);
        let usage = stderr.split_once("usage:\n").expect("usage text after a usage error").1;
        for line in usage.lines() {
            assert!(readme.contains(line), "README lacks the usage line\n{line}");
        }
    }
}

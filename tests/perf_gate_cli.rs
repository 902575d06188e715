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

/// The files in `dir` and their bytes, by name.
fn contents(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (e.file_name().into_string().unwrap(), std::fs::read(e.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// A newest `BENCH_<n>.json` that cannot be parsed stops the gate before
/// any scenario runs: a non-zero exit naming the file, no new `BENCH`
/// file, and every existing one left byte for byte.
#[test]
fn a_corrupt_newest_bench_file_fails_closed_and_writes_nothing() {
    let dir = std::env::temp_dir().join(format!("perf-gate-corrupt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let committed = |n: u32| {
        std::fs::read(format!("{}/BENCH_{n}.json", env!("CARGO_MANIFEST_DIR"))).unwrap()
    };
    let newest = committed(30);
    std::fs::write(dir.join("BENCH_29.json"), committed(29)).unwrap();
    std::fs::write(dir.join("BENCH_30.json"), &newest[..newest.len() / 2]).unwrap();
    let before = contents(&dir);
    let out = run(&["--dir", dir.to_str().unwrap()]);
    let after = contents(&dir);
    std::fs::remove_dir_all(&dir).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("BENCH_30.json") && !stderr.contains("panicked"), "{stderr}");
    let names = |files: &[(String, Vec<u8>)]| files.iter().map(|f| f.0.clone()).collect::<Vec<_>>();
    assert_eq!(names(&after), names(&before));
    assert!(after == before, "an existing BENCH file changed");
}

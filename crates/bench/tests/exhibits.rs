//! The reproduction, pinned: every exhibit runs in-process at
//! `--n-side 16` into a temporary directory, and the SHA-256 of every file
//! it writes except the wall-clock tables (`*.wall.csv`) must equal the
//! digest in `tests/golden/exhibits.sha256`. That covers every CSV, text
//! chart, PGM / PPM image and Cinema index (`data.csv`). It runs once on
//! the default thread count and once on one thread.
//!
//! A change that moves a deterministic number fails here, naming the
//! exhibit and the file. When the move is intended, re-bless and say why
//! in the commit:
//!
//! ```sh
//! FORESIGHT_BLESS=1 cargo test -p foresight-bench --test exhibits
//! git diff tests/golden/exhibits.sha256
//! ```

use foresight_bench::{run, Cli, Ctx, EXHIBITS, WALL_CLOCK};
use foresight_util::parallel::with_threads;
use foresight_util::sha256::sha256_hex;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn golden() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/exhibits.sha256")
}

/// `(exhibit/file, sha256)` of every deterministic artifact, in
/// registry order and then by file name.
fn digests(out: &Path) -> Vec<(String, String)> {
    let ctx = Ctx::new(Cli { n_side: 16, out: out.to_path_buf(), ..Cli::default() });
    let mut all = Vec::new();
    for entry in EXHIBITS {
        let dir = run(&ctx, entry).unwrap_or_else(|e| panic!("exhibit {} failed: {e}", entry.id));
        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|f| !f.ends_with(WALL_CLOCK))
            .collect();
        files.sort();
        for f in files {
            let digest = sha256_hex(&std::fs::read(dir.join(&f)).unwrap());
            all.push((format!("{}/{f}", entry.id), digest));
        }
    }
    all
}

fn check(threads: Option<usize>) {
    let out =
        std::env::temp_dir().join(format!("foresight-exhibits-{}-{threads:?}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let got = match threads {
        Some(n) => with_threads(n, || digests(&out)),
        None => digests(&out),
    };
    std::fs::remove_dir_all(&out).unwrap();

    if std::env::var("FORESIGHT_BLESS").is_ok_and(|v| v == "1") {
        let text: String = got.iter().map(|(file, d)| format!("{d}  {file}\n")).collect();
        std::fs::write(golden(), text).unwrap();
        return;
    }
    let text = std::fs::read_to_string(golden()).unwrap_or_else(|e| {
        let bless = "FORESIGHT_BLESS=1 cargo test -p foresight-bench --test exhibits";
        panic!("cannot read {}: {e}\nrun `{bless}` once", golden().display())
    });
    let want: BTreeMap<&str, &str> =
        text.lines().filter_map(|l| l.split_once("  ")).map(|(d, f)| (f, d)).collect();
    let got_map: BTreeMap<&str, &str> = got.iter().map(|(f, d)| (f.as_str(), d.as_str())).collect();
    let mut moved = Vec::new();
    for (file, d) in &want {
        let (exhibit, name) = file.split_once('/').unwrap_or((file, ""));
        match got_map.get(file) {
            None => moved.push(format!("exhibit {exhibit}: {name} is no longer written")),
            Some(g) if g != d => moved.push(format!("exhibit {exhibit}: {name} moved")),
            Some(_) => {}
        }
    }
    for file in got_map.keys().filter(|f| !want.contains_key(*f)) {
        let (exhibit, name) = file.split_once('/').unwrap_or((file, ""));
        moved.push(format!("exhibit {exhibit}: {name} is new"));
    }
    assert!(
        moved.is_empty(),
        "{} artifact(s) differ from {} ({}):\n  {}\n\
         if the change is intended, re-bless with FORESIGHT_BLESS=1 and say why",
        moved.len(),
        golden().display(),
        threads.map_or("default thread count".to_string(), |n| format!("{n} thread(s)")),
        moved.join("\n  ")
    );
}

#[test]
fn every_exhibit_matches_its_pinned_digests() {
    check(None);
}

#[test]
fn every_exhibit_matches_its_pinned_digests_on_one_thread() {
    check(Some(1));
}

//! Fixture-corpus conformance suite for the `foresight-lint` analyzer.
//!
//! Each true-positive fixture tags its seeded findings with
//! `// EXPECT: <rule>[, <rule>...]` on the offending line; the suite
//! parses the tags and demands an exact match — same lines, same rule
//! sets, nothing extra. Clean fixtures mirror the same sink shapes with
//! sanitizers applied and must produce zero findings. On top of the
//! corpus: fingerprint stability, the baseline bless → rerun → zero-new
//! round trip, and the sanitizer-deletion gate (removing a documented
//! `checked_mul` must surface a NEW finding), and the rule table: every
//! rule emitted is tabled, and every tabled rule has a true positive.

use foresight_lint::analyze::{
    analyze_files, parse_baseline, render_baseline, sarif, AnalyzeOptions, Finding, RULES,
};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

fn fixture(name: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

/// `line -> sorted rules` parsed from `// EXPECT:` tags.
fn expectations(text: &str) -> BTreeMap<usize, Vec<String>> {
    let mut out: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let Some(at) = line.find("// EXPECT:") else { continue };
        let rules = line[at + "// EXPECT:".len()..]
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty());
        out.entry(i + 1).or_default().extend(rules);
    }
    for v in out.values_mut() {
        v.sort();
    }
    out
}

fn group(findings: &[Finding], file: &str) -> BTreeMap<usize, Vec<String>> {
    let mut out: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for f in findings.iter().filter(|f| f.file == file) {
        out.entry(f.line).or_default().push(f.rule.to_string());
    }
    for v in out.values_mut() {
        v.sort();
    }
    out
}

fn run(files: &[(&str, &str)]) -> Vec<Finding> {
    let owned: Vec<(String, String)> =
        files.iter().map(|(p, t)| (p.to_string(), t.to_string())).collect();
    analyze_files(&owned, &AnalyzeOptions::default())
}

/// Runs one fixture under a virtual workspace path and checks the tags
/// exactly.
fn check_fixture(name: &str, virtual_path: &str) {
    let text = fixture(name);
    let findings = run(&[(virtual_path, &text)]);
    let got = group(&findings, virtual_path);
    let want = expectations(&text);
    assert_eq!(got, want, "{name}: findings (left) must match EXPECT tags (right)");
}

#[test]
fn taint_true_positives_exact() {
    check_fixture("taint_tp.rs", "crates/sz/src/stream.rs");
}

#[test]
fn taint_clean_fixture_passes() {
    check_fixture("taint_clean.rs", "crates/sz/src/stream.rs");
}

#[test]
fn determinism_true_positives_exact() {
    check_fixture("det_tp.rs", "crates/sz/src/huffman.rs");
}

#[test]
fn determinism_clean_fixture_passes() {
    check_fixture("det_clean.rs", "crates/sz/src/huffman.rs");
}

#[test]
fn panic_true_positives_exact_and_hop_budget_holds() {
    // deep4's `expect` sits 5 hops from `serve`; exact-match proves the
    // default 4-hop budget excludes it while admit's sites are caught.
    check_fixture("panic_tp.rs", "crates/core/src/serve.rs");
}

#[test]
fn panic_clean_fixture_passes() {
    check_fixture("panic_clean.rs", "crates/core/src/serve.rs");
}

#[test]
fn fingerprints_are_unique_and_deterministic() {
    let text = fixture("taint_tp.rs");
    let a = run(&[("crates/sz/src/stream.rs", &text)]);
    let b = run(&[("crates/sz/src/stream.rs", &text)]);
    assert!(!a.is_empty());
    let fa: Vec<&String> = a.iter().map(|f| &f.fingerprint).collect();
    let fb: Vec<&String> = b.iter().map(|f| &f.fingerprint).collect();
    assert_eq!(fa, fb, "fingerprints must be deterministic");
    let mut dedup = fa.clone();
    dedup.sort();
    dedup.dedup();
    assert_eq!(dedup.len(), fa.len(), "fingerprints must be unique per finding");
    for f in &a {
        assert_eq!(f.fingerprint.len(), 16, "16 hex chars: {f:?}");
        assert!(f.fingerprint.chars().all(|c| c.is_ascii_hexdigit()));
    }
}

#[test]
fn baseline_bless_then_rerun_reports_zero_new() {
    // Bless everything the corpus produces, rerun, and check that every
    // finding is covered — the --deny-new gate would exit 0.
    let sets: Vec<(String, String)> = [
        ("crates/sz/src/stream.rs", fixture("taint_tp.rs")),
        ("crates/sz/src/huffman.rs", fixture("det_tp.rs")),
        ("crates/core/src/serve.rs", fixture("panic_tp.rs")),
    ]
    .into_iter()
    .map(|(p, t)| (p.to_string(), t))
    .collect();
    let first = analyze_files(&sets, &AnalyzeOptions::default());
    assert!(!first.is_empty());
    let blessed = parse_baseline(&render_baseline(&first));
    let second = analyze_files(&sets, &AnalyzeOptions::default());
    let new: Vec<&Finding> =
        second.iter().filter(|f| !blessed.contains(&f.fingerprint)).collect();
    assert!(new.is_empty(), "rerun after bless must report zero new: {new:?}");
}

#[test]
fn deleting_documented_sanitizer_creates_new_finding() {
    // The acceptance gate: taint_clean.rs is clean because (among other
    // sanitizers) a checked_mul bounds the read length. Deleting it must
    // surface a finding whose fingerprint is NOT in the blessed baseline
    // of the clean state — exactly what fails `--deny-new` in CI.
    let clean = fixture("taint_clean.rs");
    let blessed = parse_baseline(&render_baseline(&run(&[(
        "crates/sz/src/stream.rs",
        &clean,
    )])));
    let sabotaged = clean.replace(
        "r.take(raw.checked_mul(4).ok_or_else(|| Error::corrupt(\"overflow\"))?)?",
        "r.take(raw * 4)?",
    );
    assert_ne!(clean, sabotaged, "the documented sanitizer must exist to be deleted");
    let after = run(&[("crates/sz/src/stream.rs", &sabotaged)]);
    let new: Vec<&Finding> =
        after.iter().filter(|f| !blessed.contains(&f.fingerprint)).collect();
    assert!(
        new.iter().any(|f| f.rule == "taint-arith"),
        "deleting checked_mul must surface a new taint-arith finding, got {new:?}"
    );
}

#[test]
fn sarif_covers_every_fixture_finding() {
    let text = fixture("taint_tp.rs");
    let findings = run(&[("crates/sz/src/stream.rs", &text)]);
    let doc = sarif(&findings);
    assert!(doc.contains("\"version\":\"2.1.0\""));
    for f in &findings {
        assert!(doc.contains(&f.fingerprint), "SARIF must carry {}", f.fingerprint);
        assert!(doc.contains(f.rule));
    }
}

/// The six fixtures at their virtual paths.
const FIXTURES: &[(&str, &str)] = &[
    ("taint_tp.rs", "crates/sz/src/stream.rs"),
    ("taint_clean.rs", "crates/sz/src/stream.rs"),
    ("det_tp.rs", "crates/sz/src/huffman.rs"),
    ("det_clean.rs", "crates/sz/src/huffman.rs"),
    ("panic_tp.rs", "crates/core/src/serve.rs"),
    ("panic_clean.rs", "crates/core/src/serve.rs"),
];

/// One true positive per token rule (the dataflow rules' live in the
/// fixtures): `(rule, virtual path, source)`.
const TOKEN_TRUE_POSITIVES: &[(&str, &str, &str)] = &[
    ("decode-panic", "crates/sz/src/stream.rs", "fn f(d: &[u8]) { let x = d.first().unwrap(); }"),
    (
        "decode-index",
        "crates/sz/src/stream.rs",
        "fn d(stream: &[u8]) -> u8 {\nstream[0]\n}",
    ),
    (
        "header-bytereader",
        "crates/sz/src/stream.rs",
        "fn d(stream: &[u8]) -> u32 {\nlet n = u32::from_le_bytes(stream.get(..4).unwrap_or_default());\nn\n}",
    ),
    (
        "alloc-arith",
        "crates/sz/src/stream.rs",
        "fn a(n: usize) { let v: Vec<u8> = Vec::with_capacity(n * 4); drop(v); }",
    ),
    ("instant", "crates/bench/src/report.rs", "fn f() { let t = std::time::Instant::now(); }"),
    (
        "kernel-label",
        "crates/gpu/src/x.rs",
        "fn f() {\nlaunch_grid(dev, kind, grid, \"a\", w);\nlaunch_grid(dev, kind, grid, \"a\", w);\n}",
    ),
    ("unsafe-policy", "crates/foo/src/lib.rs", "pub mod x;"),
    (
        "span-orphan",
        "crates/core/src/cbench.rs",
        "fn f(xs: &[u32]) {\nlet v: Vec<_> = xs.par_iter().map(|x| {\nlet _s = telemetry::span(\"pair\");\nx + 1\n}).collect();\ndrop(v);\n}",
    ),
];

#[test]
fn every_rule_is_tabled_and_has_a_true_positive() {
    let mut emitted: BTreeSet<&str> = BTreeSet::new();
    for (name, path) in FIXTURES {
        emitted.extend(run(&[(path, &fixture(name))]).iter().map(|f| f.rule));
    }
    for (rule, path, text) in TOKEN_TRUE_POSITIVES {
        let found = run(&[(path, text)]);
        assert!(found.iter().any(|f| f.rule == *rule), "{rule} true positive missed: {found:?}");
        emitted.extend(found.iter().map(|f| f.rule));
    }
    let tabled: BTreeSet<&str> = RULES.iter().map(|(id, _)| *id).collect();
    assert_eq!(tabled.len(), RULES.len(), "rule ids are unique");
    assert_eq!(emitted, tabled, "emitted rules (left) must be exactly the rule table (right)");
    let doc = sarif(&[]);
    for id in &tabled {
        assert!(doc.contains(&format!("{{\"id\":\"{id}\"")), "SARIF rule table lacks {id}");
    }
}

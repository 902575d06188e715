//! `foresight-lint`: the workspace analyzer.
//!
//! Clippy catches generic Rust smells; this tool enforces the project's
//! *domain* invariants, the ones a general linter cannot know about. One
//! walk of the workspace feeds four passes over the shared lexer
//! ([`crate::scan`]) and call graph ([`crate::graph`]):
//!
//! * **token rules** — line-level invariants:
//!
//!   | rule               | what it enforces                                              |
//!   |--------------------|---------------------------------------------------------------|
//!   | `decode-panic`     | decode-critical files never panic on untrusted input          |
//!   | `decode-index`     | no direct indexing into untrusted stream slices               |
//!   | `header-bytereader`| headers are parsed via `ByteReader`, not ad-hoc byte plucking |
//!   | `alloc-arith`      | allocation sizes from headers use checked arithmetic          |
//!   | `instant`          | wall-clock timing goes through `foresight_util::timer`        |
//!   | `kernel-label`     | kernel launches carry distinct, non-empty string labels       |
//!   | `unsafe-policy`    | crate roots forbid/deny `unsafe_code`; exceptions are audited |
//!   | `span-orphan`      | spans inside rayon/scoped-thread fan-outs use `span_with_parent` |
//!
//! * **taint** — header-derived values (direct `ByteReader` reads in the
//!   decode-critical files) flowing into allocation sizes, unchecked
//!   size arithmetic, slice indexing, or loop bounds without a sanitizer
//!   (`checked_*`, `saturating_*`, `u64_le_capped`, `.min`/`.clamp`, or
//!   a comparison guard that returns `Err`) on the path. Tracked through
//!   same-crate calls via per-function summaries (param → sink,
//!   param → return, returns-header-derived) iterated to fixpoint.
//! * **determinism** — in the byte-producing modules (`sz`, `zfp`,
//!   `lossless`, `serve`, `cluster`): hash-map/set declarations and
//!   iteration (iteration order feeds bytes or scheduling order),
//!   wall-clock reads, unseeded RNG, and thread-identity dependence.
//! * **panic-reachability** — panicking constructs (`unwrap`, `expect`,
//!   `panic!`, `unreachable!`, arithmetic slice indexing) in functions
//!   reachable within a hop budget from the serve/cluster
//!   request-admission entry points.
//!
//! Every finding names its enclosing function and carries a stable
//! fingerprint (rule + file + function + whitespace-normalized snippet +
//! occurrence index — line numbers are deliberately excluded so
//! unrelated edits do not churn the baseline). Any rule can be
//! suppressed per line with `// lint: allow(<rule>)` on the line or the
//! line directly above (the escape is the audit trail; `unsafe-policy`
//! is file-level and has none), or accepted wholesale into a committed
//! baseline file. The SARIF export follows the 2.1.0
//! result/location/partialFingerprints shape.
//!
//! The patterns of the rules that scan this file too (`instant`,
//! `kernel-label`, `unsafe-policy`) are built with `concat` at runtime
//! so the analyzer never flags its own source.

use crate::graph::{CallGraph, CallSite, FnInfo};
use crate::scan::{collect_rs_files, contains_keyword, first_string_literal, lex, mentions_word, Source, Token};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// Files that parse untrusted compressed streams: the decode token rules
/// apply here and the taint pass roots here.
pub const DECODE_CRITICAL: &[&str] = &[
    "crates/sz/src/stream.rs",
    "crates/sz/src/fragment.rs",
    "crates/sz/src/block.rs",
    "crates/sz/src/gpu_kernel.rs",
    "crates/sz/src/gpu_exec.rs",
    "crates/sz/src/huffman.rs",
    "crates/sz/src/lossless.rs",
    "crates/zfp/src/stream.rs",
    "crates/zfp/src/codec.rs",
    "crates/zfp/src/gpu_exec.rs",
    "crates/zfp/src/lift.rs",
    "crates/lossless/src/fpz.rs",
    "crates/lossless/src/fpc.rs",
    "crates/store/src/format.rs",
    "crates/store/src/reader.rs",
    "crates/util/src/tiles.rs",
    "crates/util/src/crc.rs",
    "crates/util/src/sha256.rs",
    "crates/util/src/cpu.rs",
];

/// Byte-producing modules: every byte (or byte ordering) these emit must
/// be scheduling- and platform-independent, so the determinism pass
/// applies here.
pub const BYTE_PRODUCING: &[&str] = &[
    "crates/sz/src/",
    "crates/zfp/src/",
    "crates/lossless/src/",
    "crates/store/src/",
    "crates/core/src/serve.rs",
    "crates/core/src/cluster.rs",
];

/// Files allowed to touch `std::time` directly (they implement the
/// timing layer everything else is supposed to use).
const TIMING_LAYER: &[&str] = &["crates/util/src/timer.rs", "crates/util/src/telemetry.rs"];

/// Files that fan work out across rayon or scoped-thread workers. The
/// `span-orphan` rule applies only here; matched by path suffix. A span
/// opened inside a stolen-work closure parents onto whatever span that
/// worker ran last, so fan-out bodies must capture the parent id up
/// front and use `span_with_parent`.
const SPAN_FANOUT_FILES: &[&str] = &["crates/core/src/cbench.rs", "crates/core/src/serve.rs"];

/// Request-admission entry points the panic-reachability pass roots at:
/// `(file suffix, function name)`. `execute_units` (Phase A, the host
/// codecs) runs inside the scheduler core's constructor, one hop deeper
/// than the schedulers call it, so it is a root of its own.
pub const ENTRY_POINTS: &[(&str, &str)] = &[
    ("crates/core/src/serve.rs", "serve"),
    ("crates/core/src/serve.rs", "serve_serial"),
    ("crates/core/src/serve.rs", "execute_units"),
    ("crates/core/src/cluster.rs", "serve_cluster"),
];

/// Default hop budget for panic-reachability.
pub const DEFAULT_HOPS: usize = 4;

/// SARIF document version emitted by [`sarif`].
pub const SARIF_VERSION: &str = "2.1.0";
/// Versioned fingerprint key under `partialFingerprints`.
pub const FINGERPRINT_KEY: &str = "foresightFingerprint/v1";
/// Baseline file format version header.
pub const BASELINE_HEADER: &str = "# foresight-analyze baseline v1";

/// Every rule the analyzer can emit, with its one-line description
/// (reused for the SARIF rule table and `--list-rules`).
pub const RULES: &[(&str, &str)] = &[
    ("decode-panic", "panicking construct in a decode-critical file"),
    ("decode-index", "direct indexing into an untrusted stream slice"),
    ("header-bytereader", "header field decoded by hand instead of through ByteReader"),
    ("alloc-arith", "allocation size computed with unchecked arithmetic in a decode-critical file"),
    ("instant", "raw wall-clock timing outside foresight_util::timer"),
    ("kernel-label", "kernel launch with an empty or duplicate string label"),
    ("unsafe-policy", "crate root without an unsafe_code policy, or an unaudited use"),
    ("span-orphan", "ambient-parent span inside a fan-out closure"),
    ("taint-alloc", "header-derived value reaches an allocation size without a sanitizer"),
    ("taint-arith", "header-derived value in unchecked arithmetic feeding a length/size"),
    ("taint-index", "header-derived value used as a slice index without a sanitizer"),
    ("taint-loop", "header-derived value bounds a loop without a sanitizer"),
    ("det-hash-decl", "hash collection declared in a byte-producing module"),
    ("det-hash-iter", "iteration over a hash collection in a byte-producing module"),
    ("det-wallclock", "wall-clock read in a byte-producing module"),
    ("det-rng", "unseeded randomness in a byte-producing module"),
    ("det-thread-id", "thread-identity dependence in a byte-producing module"),
    ("panic-path", "panicking construct reachable from a request-admission entry point"),
    ("panic-index", "arithmetic slice index reachable from a request-admission entry point"),
];

/// One analyzer finding.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    pub line: usize,
    pub func: String,
    pub message: String,
    pub fingerprint: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} ({}) [{}] {} {{{}}}",
            self.file, self.line, self.func, self.rule, self.message, self.fingerprint
        )
    }
}

/// Analyzer options.
pub struct AnalyzeOptions {
    /// Hop budget for panic-reachability.
    pub hops: usize,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        Self { hops: DEFAULT_HOPS }
    }
}

/// Panicking constructs: the first four are `decode-panic`'s, all six
/// are panic reachability's.
const PANIC_TOKENS: &[(&str, &str)] = &[
    (".unwrap()", "unwrap"),
    (".expect(", "expect"),
    ("panic!(", "panic!"),
    ("unreachable!(", "unreachable!"),
    ("todo!(", "todo!"),
    ("unimplemented!(", "unimplemented!"),
];

/// Untrusted stream slices `decode-index` forbids indexing directly.
const STREAM_INDEX: &[&str] = &["stream[", "stream_bytes[", "body[", "payload["];

/// Tokens that open a fan-out region for `span-orphan`, and the
/// ambient-parent span it flags inside one.
const FANOUT: &[&str] = &[".par_iter", "rayon::scope", "thread::scope", ".spawn("];
const NAKED_SPAN: &str = "telemetry::span(";

/// Patterns assembled at runtime so this file never matches its own
/// rules.
struct Pats {
    instant_now: String,
    std_instant: String,
    launch: Vec<String>,
    unsafe_tok: String,
    forbid_unsafe: String,
    deny_unsafe: String,
    allow_unsafe: String,
    safety: String,
}

impl Pats {
    fn new() -> Self {
        Self {
            instant_now: ["Ins", "tant::now"].concat(),
            std_instant: ["std::time::", "Ins", "tant"].concat(),
            launch: vec![
                [".lau", "nch("].concat(),
                ["launch_", "grid("].concat(),
                [".enqueue_", "unit("].concat(),
                [".exec_", "unit("].concat(),
            ],
            unsafe_tok: ["uns", "afe"].concat(),
            forbid_unsafe: ["#![forbid(", "uns", "afe_code)]"].concat(),
            deny_unsafe: ["#![deny(", "uns", "afe_code)]"].concat(),
            allow_unsafe: ["allow(", "uns", "afe_code)"].concat(),
            safety: ["SAF", "ETY:"].concat(),
        }
    }
}

fn is_decode_critical(path: &str) -> bool {
    DECODE_CRITICAL.iter().any(|s| path.ends_with(s))
}

fn is_byte_producing(path: &str) -> bool {
    BYTE_PRODUCING
        .iter()
        .any(|s| if s.ends_with(".rs") { path.ends_with(s) } else { path.contains(s) })
}

fn is_timing_layer(path: &str) -> bool {
    TIMING_LAYER.iter().any(|s| path.ends_with(s))
}

fn is_span_fanout_file(path: &str) -> bool {
    SPAN_FANOUT_FILES.iter().any(|s| path.ends_with(s))
}

fn is_crate_root(path: &str) -> bool {
    path.ends_with("src/lib.rs")
}

// ---------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------

/// FNV-1a 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Collapses runs of whitespace so formatting churn keeps fingerprints
/// stable.
fn normalize(snippet: &str) -> String {
    snippet.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Assigns fingerprints to findings in order: hash of rule, file,
/// enclosing function, normalized snippet, and an occurrence index that
/// disambiguates textually identical findings in the same function.
fn fingerprint_all(findings: &mut [Finding], snippet_of: impl Fn(&Finding) -> String) {
    let mut occ: BTreeMap<(String, String, String, String), usize> = BTreeMap::new();
    for f in findings.iter_mut() {
        let snip = normalize(&snippet_of(f));
        let key = (f.rule.to_string(), f.file.clone(), f.func.clone(), snip.clone());
        let n = occ.entry(key).or_insert(0);
        let material = format!("{}\0{}\0{}\0{}\0{}", f.rule, f.file, f.func, snip, n);
        f.fingerprint = format!("{:016x}", fnv1a(material.as_bytes()));
        *n += 1;
    }
}

// ---------------------------------------------------------------------
// Taint pass
// ---------------------------------------------------------------------

/// Direct header-read call patterns (the `ByteReader` API). The capped
/// read `u64_le_capped` is deliberately absent: it is the sanitizer.
const READ_CALLS: &[&str] = &[".u8(", ".u16_le(", ".u32_le(", ".u64_le(", ".f32_le(", ".f64_le("];

/// Expression-level sanitizers: once one of these touches a value on a
/// line, that line's result is considered bounded.
const SANITIZERS: &[&str] =
    &["checked_", "saturating_", "u64_le_capped(", ".min(", ".clamp(", "try_into_capped("];

fn reads_header(expr: &str) -> bool {
    READ_CALLS.iter().any(|p| expr.contains(p))
}

fn sanitized(expr: &str) -> bool {
    SANITIZERS.iter().any(|p| expr.contains(p))
}

/// What a tainted parameter can reach inside a callee.
#[derive(Default, Clone)]
struct Summary {
    /// Base-run result: the return value derives from header reads.
    returns_taint: bool,
    /// Per parameter: the sink rule it reaches unsanitized, if any.
    param_to_sink: Vec<Option<&'static str>>,
    /// Per parameter: reaches the return value unsanitized.
    param_to_return: Vec<bool>,
}

/// Result of scanning one function with a given taint seeding.
struct RunResult {
    returns_taint: bool,
    /// (line, rule, message) — reported only on emitting runs.
    sinks: Vec<(usize, &'static str, String)>,
    /// Which initially-seeded params reached a sink / the return.
    seed_hit_sink: Option<&'static str>,
    seed_hit_return: bool,
}

/// The text inside the bracket that opens at byte `open` of `line`, up
/// to its balancing close (`(` and `[` nest alike), or to the end of the
/// line when it does not close there.
fn bracketed(line: &str, open: usize) -> &str {
    let mut depth = 0i64;
    for (i, &c) in line.as_bytes().iter().enumerate().skip(open) {
        match c {
            b'(' | b'[' => depth += 1,
            b')' | b']' => {
                depth -= 1;
                if depth == 0 {
                    return &line[open + 1..i];
                }
            }
            _ => {}
        }
    }
    &line[open + 1..]
}

/// The argument of the first call matching `pat` (which must end in `(`)
/// in `line`.
fn call_arg<'a>(line: &'a str, pat: &str) -> Option<&'a str> {
    let at = line.find(pat)?;
    Some(bracketed(line, at + pat.len() - 1))
}

/// The bracketed expression of every `ident[..]` / `call()[..]` index on
/// `line`, in order.
fn index_exprs(line: &str) -> impl Iterator<Item = &str> {
    let b = line.as_bytes();
    (1..b.len())
        .filter(move |&i| {
            b[i] == b'[' && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_' || b[i - 1] == b')')
        })
        .map(move |i| bracketed(line, i))
}

/// Let-binding targets: identifiers of the pattern between `let` and the
/// top-level `=`, excluding `mut`/`ref` and any type annotation.
fn let_targets(line: &str) -> Vec<String> {
    let Some(at) = line.find("let ") else { return Vec::new() };
    let rest = &line[at + 4..];
    let Some(eq) = top_level_assign(rest) else { return Vec::new() };
    let mut pat = &rest[..eq];
    // Cut a trailing `: Type` annotation (the colon sits outside any
    // parens in every let pattern Rust accepts).
    let mut depth = 0i64;
    for (i, c) in pat.char_indices() {
        match c {
            '(' | '[' | '<' => depth += 1,
            ')' | ']' | '>' => depth -= 1,
            ':' if depth == 0 => {
                pat = &pat[..i];
                break;
            }
            _ => {}
        }
    }
    idents_of(pat).into_iter().filter(|w| w != "mut" && w != "ref").collect()
}

/// Byte offset of the first top-level assignment `=` in `s` (skipping
/// `==`, `<=`, `>=`, `!=`, `=>`, and compound ops), if any.
fn top_level_assign(s: &str) -> Option<usize> {
    let b = s.as_bytes();
    for i in 0..b.len() {
        if b[i] != b'=' {
            continue;
        }
        let prev = if i > 0 { b[i - 1] } else { b' ' };
        let next = if i + 1 < b.len() { b[i + 1] } else { b' ' };
        if matches!(prev, b'=' | b'!' | b'<' | b'>' | b'+' | b'-' | b'*' | b'/' | b'%' | b'&' | b'|' | b'^')
        {
            continue;
        }
        if next == b'=' || next == b'>' {
            continue;
        }
        return Some(i);
    }
    None
}

/// All identifiers in `s`, in order.
fn idents_of(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in s.chars() {
        if c.is_alphanumeric() || c == '_' {
            cur.push(c);
        } else if !cur.is_empty() {
            if !cur.chars().next().map(|c| c.is_ascii_digit()).unwrap_or(true) {
                out.push(std::mem::take(&mut cur));
            } else {
                cur.clear();
            }
        }
    }
    if !cur.is_empty() && !cur.chars().next().map(|c| c.is_ascii_digit()).unwrap_or(true) {
        out.push(cur);
    }
    out
}

/// The taint engine over one function. `seed` optionally taints one
/// parameter (summary computation); the base run (`seed == None`) seeds
/// from direct header reads and, when `emit`, records findings.
#[allow(clippy::too_many_arguments)] // the engine genuinely threads this much context
fn scan_fn_taint(
    f: &FnInfo,
    code: &[String],
    calls: &[CallSite],
    fns: &[FnInfo],
    summaries: &[Summary],
    seed: Option<usize>,
    emit: bool,
) -> RunResult {
    let mut tainted: BTreeMap<String, String> = BTreeMap::new();
    let mut seeded: BTreeSet<String> = BTreeSet::new();
    if let Some(p) = seed {
        if let Some(name) = f.params.get(p) {
            tainted.insert(name.clone(), format!("parameter `{name}`"));
            seeded.insert(name.clone());
        }
    }
    let mut res = RunResult {
        returns_taint: false,
        sinks: Vec::new(),
        seed_hit_sink: None,
        seed_hit_return: false,
    };
    let taint_in = |expr: &str, tainted: &BTreeMap<String, String>| -> Option<String> {
        if sanitized(expr) {
            return None;
        }
        if seed.is_none() && reads_header(expr) {
            return Some("a direct header read".to_string());
        }
        tainted
            .iter()
            .find(|(v, _)| mentions_word(expr, v))
            .map(|(v, o)| format!("`{v}` ({o})"))
    };
    // Two passes so taint introduced late still reaches earlier loop
    // bodies on re-entry (the engine is otherwise flow-ordered).
    for pass in 0..2 {
        let record = emit && pass == 1;
        for li in f.line..=f.end_line.min(code.len()) {
            let line = &code[li - 1];
            if line.is_empty() {
                continue;
            }
            // Guard sanitization: an `if` comparing a value and rejecting
            // with `Err` bounds every value it mentions from here on. The
            // rejection may sit on the next few lines (`if n > cap {` /
            // `    return Err(...)`).
            let cmpish = line.contains('<')
                || line.contains('>')
                || line.contains("==")
                || line.contains("!=")
                || line.contains(".is_none(")
                || line.contains(".is_err(")
                || line.contains(".is_some(");
            let rejects = line.contains("Err")
                || (li..li.saturating_add(3).min(f.end_line))
                    .any(|j| code.get(j).map(|l| l.contains("Err(")).unwrap_or(false));
            let is_guard = mentions_word(line, "if") && cmpish && rejects;
            if is_guard {
                let vars: Vec<String> = tainted
                    .keys()
                    .filter(|v| mentions_word(line, v))
                    .cloned()
                    .collect();
                for v in vars {
                    tainted.remove(&v);
                }
                continue;
            }
            // Call-derived taint and interprocedural sinks.
            let line_calls: Vec<&CallSite> = calls.iter().filter(|c| c.line == li).collect();
            let mut call_taints = false;
            for cs in &line_calls {
                for &callee in &cs.callees {
                    let s = &summaries[callee];
                    if s.returns_taint {
                        call_taints = true;
                    }
                    for (k, arg) in cs.args.iter().enumerate() {
                        // Range arguments feed `.get(a..b)`-style
                        // bounds-checked APIs; not a size/index flow.
                        if arg.contains("..") {
                            continue;
                        }
                        let Some(origin) = taint_in(arg, &tainted) else { continue };
                        if s.param_to_return.get(k).copied().unwrap_or(false) {
                            call_taints = true;
                        }
                        if let Some(rule) = s.param_to_sink.get(k).copied().flatten() {
                            if record {
                                res.sinks.push((
                                    li,
                                    rule,
                                    format!(
                                        "{origin} flows into `{}` (argument {}), which reaches a `{}` sink",
                                        fns[callee].name,
                                        k + 1,
                                        rule
                                    ),
                                ));
                            }
                            if seed.is_some() && tainted.keys().any(|v| seeded.contains(v)) {
                                res.seed_hit_sink = Some(rule);
                            }
                        }
                    }
                }
            }
            // Direct sinks.
            if record || seed.is_some() {
                let mut hit = |li: usize, rule: &'static str, origin: String, what: &str| {
                    if record {
                        res.sinks.push((li, rule, format!("{origin} {what}")));
                    }
                    if seed.is_some() {
                        res.seed_hit_sink = Some(rule);
                    }
                };
                for pat in ["with_capacity(", ".malloc("] {
                    if let Some(arg) = call_arg(line, pat) {
                        if let Some(origin) = taint_in(arg, &tainted) {
                            hit(li, "taint-alloc", origin, "sizes an allocation without a sanitizer");
                        }
                    }
                }
                if let Some(at) = line.find("vec!") {
                    let after = &line[at..];
                    if let Some(semi) = after.find(';') {
                        let len_expr =
                            after[semi + 1..].split(']').next().unwrap_or("");
                        if let Some(origin) = taint_in(len_expr, &tainted) {
                            hit(li, "taint-alloc", origin, "sizes a vec! allocation without a sanitizer");
                        }
                    }
                }
                if let Some(arg) = call_arg(line, ".take(") {
                    if (arg.contains('*') || arg.contains('+')) && !sanitized(arg) {
                        if let Some(origin) = taint_in(arg, &tainted) {
                            hit(
                                li,
                                "taint-arith",
                                origin,
                                "feeds a read length through unchecked arithmetic",
                            );
                        }
                    }
                }
                // Slice indexing `ident[expr]` (not ranges).
                for inner in index_exprs(line) {
                    if inner.contains("..") || inner.contains('%') {
                        continue;
                    }
                    if let Some(origin) = taint_in(inner, &tainted) {
                        hit(li, "taint-index", origin, "indexes a slice without a sanitizer");
                    }
                }
                // Loop bounds `for .. in <lo>..<hi>`.
                if mentions_word(line, "for") && line.contains(" in ") {
                    if let Some(dots) = line.find("..") {
                        let bound =
                            line[dots + 2..].trim_start_matches('=').split('{').next().unwrap_or("");
                        if let Some(origin) = taint_in(bound, &tainted) {
                            hit(li, "taint-loop", origin, "bounds a loop without a sanitizer");
                        }
                    }
                }
            }
            // Propagation: let bindings and compound assignment.
            let targets = let_targets(line);
            if !targets.is_empty() {
                let eq = line.find("let ").and_then(|at| {
                    top_level_assign(&line[at + 4..]).map(|e| at + 4 + e)
                });
                let mut rhs = eq.map(|e| &line[e + 1..]).unwrap_or("");
                // `let x = match scrutinee {` selects a branch; the values
                // come from the arms, not the scrutinee (control
                // dependence, not value flow). Evaluate only what follows
                // the brace (one-line arms stay visible).
                if rhs.trim_start().starts_with("match ") {
                    rhs = rhs.split_once('{').map(|(_, r)| r).unwrap_or("");
                }
                let rhs_tainted =
                    taint_in(rhs, &tainted).is_some() || (call_taints && !sanitized(rhs));
                let carries_seed = seeded.iter().any(|v| mentions_word(rhs, v)) && !sanitized(rhs);
                for t in &targets {
                    if rhs_tainted {
                        tainted.insert(t.clone(), format!("derived at line {li}"));
                        if carries_seed {
                            seeded.insert(t.clone());
                        }
                    } else {
                        tainted.remove(t);
                        seeded.remove(t);
                    }
                }
            } else if let Some(at) = line.find("+=").or_else(|| line.find("*=")) {
                let lhs_ident = idents_of(&line[..at]).into_iter().next_back();
                let rhs = &line[at + 2..];
                if let Some(v) = lhs_ident {
                    if taint_in(rhs, &tainted).is_some() {
                        tainted.insert(v.clone(), format!("accumulated at line {li}"));
                    }
                }
            }
            // Return-value taint (over-approximate: any return-shaped
            // line mentioning taint). `Err(` lines are guard rejections,
            // not value flow — a corrupt-header error message quoting the
            // bad value does not taint the Ok path.
            if (mentions_word(line, "return") || line.contains("Ok(") || line.contains("Some("))
                && !line.contains("Err(")
                && taint_in(line, &tainted).is_some()
            {
                res.returns_taint = seed.is_none();
                if seed.is_some() && tainted.keys().any(|v| seeded.contains(v)) {
                    res.seed_hit_return = true;
                }
            }
        }
    }
    res
}

/// Computes per-function taint summaries to fixpoint.
fn compute_summaries(g: &CallGraph, sources: &[Source]) -> Vec<Summary> {
    let mut summaries: Vec<Summary> = g
        .fns
        .iter()
        .map(|f| Summary {
            returns_taint: false,
            param_to_sink: vec![None; f.params.len()],
            param_to_return: vec![false; f.params.len()],
        })
        .collect();
    for _round in 0..3 {
        let mut changed = false;
        for (fi, f) in g.fns.iter().enumerate() {
            if f.body.is_none() {
                continue;
            }
            let code = &sources[f.file].code;
            let base = scan_fn_taint(f, code, &g.calls[fi], &g.fns, &summaries, None, false);
            if base.returns_taint && !summaries[fi].returns_taint {
                summaries[fi].returns_taint = true;
                changed = true;
            }
            for p in 0..f.params.len() {
                let r = scan_fn_taint(f, code, &g.calls[fi], &g.fns, &summaries, Some(p), false);
                if let Some(rule) = r.seed_hit_sink {
                    if summaries[fi].param_to_sink[p].is_none() {
                        summaries[fi].param_to_sink[p] = Some(rule);
                        changed = true;
                    }
                }
                if r.seed_hit_return && !summaries[fi].param_to_return[p] {
                    summaries[fi].param_to_return[p] = true;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    summaries
}

// ---------------------------------------------------------------------
// Token rules
// ---------------------------------------------------------------------

fn push(findings: &mut Vec<Finding>, src: &Source, i: usize, rule: &'static str, msg: String) {
    findings.push(Finding {
        rule,
        file: src.path.to_string(),
        line: i + 1,
        func: String::new(),
        message: msg,
        fingerprint: String::new(),
    });
}

/// Rules 1–4: decode-path hygiene (decode-critical files only).
fn check_decode_rules(src: &Source, findings: &mut Vec<Finding>) {
    if !is_decode_critical(src.path) {
        return;
    }
    for (i, code) in src.code.iter().enumerate() {
        if code.is_empty() {
            continue;
        }
        // decode-panic: panicking constructs on the untrusted-input path.
        for (pat, what) in &PANIC_TOKENS[..4] {
            if code.contains(pat) && !src.escaped(i, "decode-panic") {
                push(
                    findings,
                    src,
                    i,
                    "decode-panic",
                    format!("`{what}` in a decode-critical file; return Err(Error::corrupt(..)) instead"),
                );
            }
        }
        // decode-index: direct indexing into the untrusted stream slice.
        if STREAM_INDEX.iter().any(|p| code.contains(p)) && !src.escaped(i, "decode-index") {
            push(
                findings,
                src,
                i,
                "decode-index",
                "direct slice indexing into an untrusted stream; use ByteReader::take".into(),
            );
        }
        // header-bytereader: ad-hoc header plucking.
        if code.contains("from_le_bytes") && code.contains("stream") && !src.escaped(i, "header-bytereader")
        {
            push(
                findings,
                src,
                i,
                "header-bytereader",
                "header field decoded by hand; use foresight_util::ByteReader".into(),
            );
        }
        // alloc-arith: allocation sizes computed with unchecked arithmetic.
        let allocates = code.contains("with_capacity(") || code.contains(".malloc(");
        if allocates
            && (code.contains('*') || code.contains(" + "))
            && !code.contains("checked_")
            && !code.contains("saturating_")
            && !src.escaped(i, "alloc-arith")
        {
            push(
                findings,
                src,
                i,
                "alloc-arith",
                "allocation size uses unchecked arithmetic; use checked_mul/checked_add or escape with a justification".into(),
            );
        }
    }
}

/// Rule 5: direct `std::time::Instant` use outside the timing layer.
fn check_instant(src: &Source, pats: &Pats, findings: &mut Vec<Finding>) {
    if is_timing_layer(src.path) {
        return;
    }
    for (i, code) in src.code.iter().enumerate() {
        if code.is_empty() {
            continue;
        }
        if (code.contains(pats.instant_now.as_str()) || code.contains(pats.std_instant.as_str()))
            && !src.escaped(i, "instant")
        {
            push(
                findings,
                src,
                i,
                "instant",
                "raw Instant timing; use foresight_util::timer (time/timed) so spans reach telemetry".into(),
            );
        }
    }
}

/// Rule 6: kernel launches must carry distinct non-empty literal labels.
/// Sites whose label is a runtime expression (no string literal within the
/// call head) are skipped — the label was validated where it was built.
fn check_kernel_labels(src: &Source, pats: &Pats, findings: &mut Vec<Finding>) {
    let mut seen: Vec<(String, usize)> = Vec::new();
    for (i, code) in src.code.iter().enumerate() {
        if code.is_empty() || !pats.launch.iter().any(|p| code.contains(p.as_str())) {
            continue;
        }
        if src.escaped(i, "kernel-label") {
            continue;
        }
        // The label literal may sit on the launch line or, for multi-line
        // call sites, a few lines below.
        let mut label: Option<&str> = None;
        for j in i..(i + 5).min(src.code.len()) {
            if let Some(lit) = first_string_literal(&src.code[j]) {
                label = Some(lit);
                break;
            }
        }
        let Some(label) = label else { continue };
        if label.is_empty() {
            push(findings, src, i, "kernel-label", "kernel launch with an empty label".into());
            continue;
        }
        if let Some((_, prev)) = seen.iter().find(|(l, _)| l == label) {
            push(
                findings,
                src,
                i,
                "kernel-label",
                format!("duplicate kernel label '{label}' (first used at line {})", prev + 1),
            );
        } else {
            seen.push((label.to_string(), i));
        }
    }
}

/// Rule 7: crate roots must pin down the unsafe policy, and any file that
/// actually uses the keyword must opt back in visibly and carry a SAFETY
/// comment. File-level rule; no line escapes.
fn check_unsafe_policy(src: &Source, pats: &Pats, findings: &mut Vec<Finding>) {
    let raw_text = src.raw.join("\n");
    if is_crate_root(src.path)
        && !raw_text.contains(pats.forbid_unsafe.as_str())
        && !raw_text.contains(pats.deny_unsafe.as_str())
    {
        push(
            findings,
            src,
            0,
            "unsafe-policy",
            format!(
                "crate root lacks {} (or {} with audited exceptions)",
                pats.forbid_unsafe, pats.deny_unsafe
            ),
        );
    }
    let uses_unsafe = src
        .code
        .iter()
        .any(|c| !c.is_empty() && contains_keyword(c, pats.unsafe_tok.as_str()));
    if uses_unsafe {
        if !raw_text.contains(pats.allow_unsafe.as_str()) {
            push(
                findings,
                src,
                0,
                "unsafe-policy",
                format!("file uses the keyword but has no {} opt-in", pats.allow_unsafe),
            );
        }
        if !raw_text.contains(pats.safety.as_str()) {
            push(
                findings,
                src,
                0,
                "unsafe-policy",
                format!("file uses the keyword but has no {} comment", pats.safety),
            );
        }
    }
}

/// Rule 8: ambient-parent spans inside rayon/scoped-thread fan-out
/// closures (span-fanout files only). Under work stealing, a span opened
/// inside a worker closure parents onto whichever span that worker
/// happened to record last — an orphaned root in the Chrome trace. The
/// sanctioned shape captures the parent id before the fan-out and passes
/// it through `span_with_parent`. The tracker is a brace-depth heuristic:
/// a line containing a fan-out token opens a region at the current depth,
/// and the region closes once depth returns to (or below) that mark on a
/// `;`-terminated line — multi-line iterator chains stay open until
/// their `.collect();` lands.
fn check_span_orphan(src: &Source, findings: &mut Vec<Finding>) {
    if !is_span_fanout_file(src.path) {
        return;
    }
    let mut depth: i64 = 0;
    // Brace depth at which each currently-open fan-out statement began.
    let mut regions: Vec<i64> = Vec::new();
    for (i, code) in src.code.iter().enumerate() {
        if code.is_empty() {
            continue;
        }
        if FANOUT.iter().any(|p| code.contains(p)) {
            regions.push(depth);
        }
        if !regions.is_empty() && code.contains(NAKED_SPAN) && !src.escaped(i, "span-orphan") {
            push(
                findings,
                src,
                i,
                "span-orphan",
                "ambient-parent span inside a fan-out closure; capture the parent id before the fan-out and use span_with_parent".into(),
            );
        }
        for b in code.bytes() {
            match b {
                b'{' => depth += 1,
                b'}' => depth -= 1,
                _ => {}
            }
        }
        let ends_stmt = code.trim_end().ends_with(';');
        while let Some(&start) = regions.last() {
            if depth < start || (depth <= start && ends_stmt) {
                regions.pop();
            } else {
                break;
            }
        }
    }
}

/// The eight token rules over every file, each finding attributed to its
/// enclosing function like the dataflow ones.
fn token_pass(g: &CallGraph, sources: &[Source], pats: &Pats, out: &mut Vec<Finding>) {
    for (fidx, src) in sources.iter().enumerate() {
        let mut found = Vec::new();
        check_decode_rules(src, &mut found);
        check_instant(src, pats, &mut found);
        check_kernel_labels(src, pats, &mut found);
        check_unsafe_policy(src, pats, &mut found);
        check_span_orphan(src, &mut found);
        for mut f in found {
            f.func = enclosing_fn(g, fidx, f.line);
            out.push(f);
        }
    }
}

// ---------------------------------------------------------------------
// Dataflow passes
// ---------------------------------------------------------------------

fn taint_pass(g: &CallGraph, sources: &[Source], out: &mut Vec<Finding>) {
    let summaries = compute_summaries(g, sources);
    for (fi, f) in g.fns.iter().enumerate() {
        let src = &sources[f.file];
        if !is_decode_critical(src.path) || f.body.is_none() {
            continue;
        }
        let r = scan_fn_taint(f, &src.code, &g.calls[fi], &g.fns, &summaries, None, true);
        for (line, rule, message) in r.sinks {
            if src.escaped(line - 1, rule) {
                continue;
            }
            out.push(Finding {
                rule,
                file: src.path.to_string(),
                line,
                func: f.name.clone(),
                message,
                fingerprint: String::new(),
            });
        }
    }
}

fn determinism_pass(g: &CallGraph, sources: &[Source], pats: &Pats, out: &mut Vec<Finding>) {
    for (fidx, src) in sources.iter().enumerate() {
        if !is_byte_producing(src.path) {
            continue;
        }
        let mut hash_vars: BTreeSet<String> = BTreeSet::new();
        for (i, line) in src.code.iter().enumerate() {
            if line.is_empty() {
                continue;
            }
            let li = i + 1;
            let mut push = |rule: &'static str, message: String| {
                if !src.escaped(i, rule) {
                    out.push(Finding {
                        rule,
                        file: src.path.to_string(),
                        line: li,
                        func: enclosing_fn(g, fidx, li),
                        message,
                        fingerprint: String::new(),
                    });
                }
            };
            let has_hash = mentions_word(line, "HashMap") || mentions_word(line, "HashSet");
            if has_hash {
                push(
                    "det-hash-decl",
                    "hash collection in a byte-producing module: iteration order is \
                     nondeterministic; use BTreeMap/BTreeSet or a dense table"
                        .into(),
                );
                for t in let_targets(line) {
                    hash_vars.insert(t);
                }
            }
            for v in &hash_vars {
                let iterates = [".iter()", ".keys()", ".values()", ".drain(", ".into_iter()"]
                    .iter()
                    .any(|m| line.contains(&format!("{v}{m}")))
                    || (mentions_word(line, "for")
                        && (line.contains(&format!("in {v}")) || line.contains(&format!("in &{v}"))));
                if iterates && !has_hash {
                    push(
                        "det-hash-iter",
                        format!("iteration over hash collection `{v}` feeds byte-producing code"),
                    );
                }
            }
            if mentions_word(line, "SystemTime")
                || line.contains(pats.instant_now.as_str())
                || line.contains(pats.std_instant.as_str())
            {
                push("det-wallclock", "wall-clock read in a byte-producing module".into());
            }
            if line.contains("thread_rng")
                || line.contains("from_entropy")
                || mentions_word(line, "OsRng")
                || line.contains("rand::random")
            {
                push("det-rng", "unseeded randomness in a byte-producing module".into());
            }
            if line.contains("current_thread_index")
                || mentions_word(line, "ThreadId")
                || (line.contains("thread::current") && line.contains(".id"))
            {
                push("det-thread-id", "thread-identity dependence in a byte-producing module".into());
            }
        }
    }
}

/// Name of the function whose span contains `line` in file `fidx`, or `-`.
fn enclosing_fn(g: &CallGraph, fidx: usize, line: usize) -> String {
    g.fns
        .iter()
        .filter(|f| f.file == fidx && f.line <= line && line <= f.end_line)
        .min_by_key(|f| f.end_line - f.line)
        .map(|f| f.name.clone())
        .unwrap_or_else(|| "-".to_string())
}

fn panic_pass(
    g: &CallGraph,
    tokfiles: &[(String, Vec<Token>)],
    sources: &[Source],
    hops: usize,
    out: &mut Vec<Finding>,
) {
    // Union of reachable functions over all entry points, keeping the
    // shortest hop count and its call path.
    let mut reach: BTreeMap<usize, (usize, Vec<String>)> = BTreeMap::new();
    for (suffix, name) in ENTRY_POINTS {
        let Some(entry) = g.find(tokfiles, suffix, name) else { continue };
        for (fi, h, path) in g.reachable(entry, hops) {
            let better = reach.get(&fi).map(|(oh, _)| h < *oh).unwrap_or(true);
            if better {
                reach.insert(fi, (h, path));
            }
        }
    }
    let mut seen: BTreeSet<(&str, usize, &'static str)> = BTreeSet::new();
    for (&fi, (h, path)) in &reach {
        let f = &g.fns[fi];
        let src = &sources[f.file];
        if f.body.is_none() {
            continue;
        }
        let via = if *h == 0 {
            "a request-admission entry point".to_string()
        } else {
            format!("{} ({} hop(s))", path.join(" -> "), h)
        };
        for li in f.line..=f.end_line.min(src.code.len()) {
            let line = &src.code[li - 1];
            if line.is_empty() {
                continue;
            }
            for (pat, what) in PANIC_TOKENS {
                if line.contains(pat)
                    && !src.escaped(li - 1, "panic-path")
                    && seen.insert((src.path, li, "panic-path"))
                {
                    out.push(Finding {
                        rule: "panic-path",
                        file: src.path.to_string(),
                        line: li,
                        func: f.name.clone(),
                        message: format!("`{what}` reachable from {via}"),
                        fingerprint: String::new(),
                    });
                }
            }
            // Arithmetic slice indexing (`buf[a + b]`); ranges excluded.
            for inner in index_exprs(line) {
                // Leading `*`/`&` are deref/borrow sigils, not operators,
                // and `%` bounds the result; neither makes an index
                // "arithmetic".
                let inner = inner.trim_start_matches(['*', '&', ' ']);
                if inner.contains("..")
                    || inner.contains('%')
                    || !(inner.contains('+') || inner.contains('*'))
                {
                    continue;
                }
                if !src.escaped(li - 1, "panic-index")
                    && seen.insert((src.path, li, "panic-index"))
                {
                    out.push(Finding {
                        rule: "panic-index",
                        file: src.path.to_string(),
                        line: li,
                        func: f.name.clone(),
                        message: format!("arithmetic slice index `[{}]` reachable from {via}", inner.trim()),
                        fingerprint: String::new(),
                    });
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

/// Analyzes an in-memory file set (`(workspace-relative path, text)`),
/// returning fingerprinted findings in deterministic order.
pub fn analyze_files(files: &[(String, String)], opts: &AnalyzeOptions) -> Vec<Finding> {
    let pats = Pats::new();
    let sources: Vec<Source> = files.iter().map(|(path, text)| Source::new(path, text)).collect();
    let tokfiles: Vec<(String, Vec<Token>)> =
        sources.iter().map(|src| (src.path.to_string(), lex(src))).collect();
    let g = CallGraph::build(&tokfiles);
    let mut findings = Vec::new();
    token_pass(&g, &sources, &pats, &mut findings);
    taint_pass(&g, &sources, &mut findings);
    determinism_pass(&g, &sources, &pats, &mut findings);
    panic_pass(&g, &tokfiles, &sources, opts.hops, &mut findings);
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule))
    });
    let by_path: BTreeMap<&str, &Source> = sources.iter().map(|src| (src.path, src)).collect();
    fingerprint_all(&mut findings, |f| {
        by_path
            .get(f.file.as_str())
            .and_then(|src| src.code.get(f.line.saturating_sub(1)))
            .cloned()
            .unwrap_or_default()
    });
    findings
}

/// Walks `root` and analyzes every workspace source file; returns the
/// number of files scanned and the findings.
pub fn analyze_root(root: &Path, opts: &AnalyzeOptions) -> std::io::Result<(usize, Vec<Finding>)> {
    let mut paths = Vec::new();
    collect_rs_files(root, &mut paths)?;
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for p in &paths {
        let text = std::fs::read_to_string(p)?;
        let rel = p.strip_prefix(root).unwrap_or(p).to_string_lossy().replace('\\', "/");
        files.push((rel, text));
    }
    Ok((files.len(), analyze_files(&files, opts)))
}

// ---------------------------------------------------------------------
// Baseline
// ---------------------------------------------------------------------

/// Parses a baseline file: fingerprints with optional trailing notes.
pub fn parse_baseline(text: &str) -> BTreeSet<String> {
    text.lines()
        .map(|l| l.trim())
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.split_whitespace().next())
        .map(|s| s.to_string())
        .collect()
}

/// Renders findings as a baseline file.
pub fn render_baseline(findings: &[Finding]) -> String {
    let mut out = String::new();
    out.push_str(BASELINE_HEADER);
    out.push_str("\n# <fingerprint> <rule> <file>:<line> <message>\n");
    for f in findings {
        out.push_str(&format!(
            "{} {} {}:{} {}\n",
            f.fingerprint,
            f.rule,
            f.file,
            f.line,
            normalize(&f.message)
        ));
    }
    out
}

// ---------------------------------------------------------------------
// SARIF
// ---------------------------------------------------------------------

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders findings as a SARIF 2.1.0 document (single run, rule table,
/// one result per finding with a versioned partial fingerprint).
pub fn sarif(findings: &[Finding]) -> String {
    let mut rules = String::new();
    for (i, (id, desc)) in RULES.iter().enumerate() {
        if i > 0 {
            rules.push(',');
        }
        rules.push_str(&format!(
            "{{\"id\":\"{}\",\"shortDescription\":{{\"text\":\"{}\"}}}}",
            json_escape(id),
            json_escape(desc)
        ));
    }
    let mut results = String::new();
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            results.push(',');
        }
        results.push_str(&format!(
            "{{\"ruleId\":\"{}\",\"level\":\"error\",\"message\":{{\"text\":\"{}\"}},\
             \"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":{{\"uri\":\"{}\"}},\
             \"region\":{{\"startLine\":{}}}}}}}],\
             \"partialFingerprints\":{{\"{}\":\"{}\"}}}}",
            json_escape(f.rule),
            json_escape(&format!("{} (in `{}`)", f.message, f.func)),
            json_escape(&f.file),
            f.line,
            FINGERPRINT_KEY,
            json_escape(&f.fingerprint)
        ));
    }
    format!(
        "{{\"version\":\"{SARIF_VERSION}\",\
         \"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
         \"runs\":[{{\"tool\":{{\"driver\":{{\"name\":\"foresight-lint\",\
         \"version\":\"1\",\"rules\":[{rules}]}}}},\"results\":[{results}]}}]}}"
    )
}

// ---------------------------------------------------------------------
// CLI driver
// ---------------------------------------------------------------------

const USAGE: &str = "usage: foresight-lint [workspace-root] [--deny-new] [--bless] \
[--baseline PATH] [--sarif PATH] [--hops N] [--quiet] [--list-rules]\n\
exit codes: 0 clean (no unbaselined findings), 1 new findings, 2 usage/IO error";

/// Parsed CLI request.
struct CliArgs {
    root: PathBuf,
    baseline: Option<PathBuf>,
    sarif_out: Option<PathBuf>,
    deny_new: bool,
    bless: bool,
    quiet: bool,
    hops: usize,
}

fn parse_cli(args: &[String]) -> Result<Option<CliArgs>, String> {
    let mut root: Option<PathBuf> = None;
    let mut baseline = None;
    let mut sarif_out = None;
    let (mut deny_new, mut bless, mut quiet) = (false, false, false);
    let mut hops = DEFAULT_HOPS;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--deny-new" => deny_new = true,
            "--bless" => bless = true,
            "--quiet" | "-q" => quiet = true,
            "--list-rules" => {
                for (id, desc) in RULES {
                    println!("{id:<17} {desc}");
                }
                return Ok(None);
            }
            "--baseline" => {
                baseline =
                    Some(PathBuf::from(it.next().ok_or("--baseline needs a path")?.clone()));
            }
            "--sarif" => {
                sarif_out = Some(PathBuf::from(it.next().ok_or("--sarif needs a path")?.clone()));
            }
            "--hops" => {
                hops = it
                    .next()
                    .ok_or("--hops needs a number")?
                    .parse()
                    .map_err(|_| "--hops needs a number".to_string())?;
            }
            s if s.starts_with('-') => return Err(format!("unknown flag {s}")),
            _ if root.is_some() => return Err("more than one root given".to_string()),
            _ => root = Some(PathBuf::from(a)),
        }
    }
    Ok(Some(CliArgs {
        root: root.unwrap_or_else(|| PathBuf::from(".")),
        baseline,
        sarif_out,
        deny_new,
        bless,
        quiet,
        hops,
    }))
}

/// Runs the `foresight-lint` CLI; returns the process exit code.
pub fn run_cli(args: &[String]) -> i32 {
    let parsed = match parse_cli(args) {
        Ok(Some(p)) => p,
        Ok(None) => return 0,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return 2;
        }
    };
    let opts = AnalyzeOptions { hops: parsed.hops };
    let (scanned, findings) = match analyze_root(&parsed.root, &opts) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: cannot analyze '{}': {e}", parsed.root.display());
            return 2;
        }
    };
    let baseline_path =
        parsed.baseline.unwrap_or_else(|| parsed.root.join("analyze-baseline.txt"));
    if parsed.bless {
        if let Err(e) = std::fs::write(&baseline_path, render_baseline(&findings)) {
            eprintln!("error: cannot write baseline '{}': {e}", baseline_path.display());
            return 2;
        }
        println!(
            "foresight-lint: blessed {} finding(s) into {}",
            findings.len(),
            baseline_path.display()
        );
        return 0;
    }
    let known = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => parse_baseline(&t),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => BTreeSet::new(),
        Err(e) => {
            eprintln!("error: cannot read baseline '{}': {e}", baseline_path.display());
            return 2;
        }
    };
    let (new, old): (Vec<&Finding>, Vec<&Finding>) =
        findings.iter().partition(|f| !known.contains(&f.fingerprint));
    let matched: BTreeSet<&String> = findings.iter().map(|f| &f.fingerprint).collect();
    let stale = known.iter().filter(|k| !matched.contains(k)).count();
    if let Some(p) = &parsed.sarif_out {
        if let Err(e) = std::fs::write(p, sarif(&findings)) {
            eprintln!("error: cannot write SARIF '{}': {e}", p.display());
            return 2;
        }
        if !parsed.quiet {
            println!("sarif report: {}", p.display());
        }
    }
    if !parsed.quiet {
        let shown: Vec<&&Finding> = if parsed.deny_new {
            new.iter().collect()
        } else {
            new.iter().chain(old.iter()).collect()
        };
        let mut by_rule: BTreeMap<&str, Vec<&&Finding>> = BTreeMap::new();
        for f in shown {
            by_rule.entry(f.rule).or_default().push(f);
        }
        for (rule, fs) in &by_rule {
            println!("== {rule} ==");
            for f in fs {
                let tag = if known.contains(&f.fingerprint) { " (baselined)" } else { " (NEW)" };
                println!("  {f}{tag}");
            }
        }
    }
    println!(
        "foresight-lint: {} file(s) scanned, {} finding(s) ({} new, {} baselined, {} stale baseline entr{})",
        scanned,
        findings.len(),
        new.len(),
        old.len(),
        stale,
        if stale == 1 { "y" } else { "ies" }
    );
    if new.is_empty() {
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let owned: Vec<(String, String)> =
            files.iter().map(|(p, t)| (p.to_string(), t.to_string())).collect();
        analyze_files(&owned, &AnalyzeOptions::default())
    }

    #[test]
    fn direct_taint_to_alloc_is_flagged_and_sanitizer_clears_it() {
        let bad = "fn d(stream: &[u8]) -> Result<()> {\nlet mut r = ByteReader::new(stream);\nlet n = r.u32_le()? as usize;\nlet v: Vec<u8> = Vec::with_capacity(n);\nOk(())\n}";
        let f = run(&[("crates/sz/src/stream.rs", bad)]);
        assert!(f.iter().any(|f| f.rule == "taint-alloc"), "{f:?}");
        let good = bad.replace("with_capacity(n)", "with_capacity(n.min(1024))");
        let f = run(&[("crates/sz/src/stream.rs", &good)]);
        assert!(!f.iter().any(|f| f.rule == "taint-alloc"), "{f:?}");
    }

    #[test]
    fn guard_returning_err_sanitizes() {
        let src = "fn d(stream: &[u8]) -> Result<()> {\nlet mut r = ByteReader::new(stream);\nlet n = r.u32_le()? as usize;\nif n > MAX { return Err(Error::corrupt(\"too big\")); }\nlet v: Vec<u8> = Vec::with_capacity(n);\nOk(())\n}";
        let f = run(&[("crates/sz/src/stream.rs", src)]);
        assert!(!f.iter().any(|f| f.rule == "taint-alloc"), "{f:?}");
    }

    #[test]
    fn interprocedural_taint_reaches_callee_sink() {
        let src = "fn alloc_for(count: usize) -> Vec<u8> {\nVec::with_capacity(count)\n}\nfn d(stream: &[u8]) -> Result<()> {\nlet mut r = ByteReader::new(stream);\nlet n = r.u32_le()? as usize;\nlet v = alloc_for(n);\nOk(())\n}";
        let f = run(&[("crates/sz/src/stream.rs", src)]);
        let hit = f.iter().find(|f| f.rule == "taint-alloc").expect("interproc finding");
        assert!(hit.message.contains("alloc_for"), "{hit:?}");
        assert_eq!(hit.func, "d");
    }

    #[test]
    fn determinism_pass_flags_hash_and_clean_btree_passes() {
        let bad = "fn h(xs: &[u32]) {\nlet mut m = std::collections::HashMap::new();\nfor &x in xs { m.insert(x, 1); }\nlet v: Vec<_> = m.into_iter().collect();\ndrop(v);\n}";
        let f = run(&[("crates/sz/src/huffman.rs", bad)]);
        assert!(f.iter().any(|f| f.rule == "det-hash-decl"), "{f:?}");
        assert!(f.iter().any(|f| f.rule == "det-hash-iter"), "{f:?}");
        let good = bad.replace("HashMap", "BTreeMap");
        let f = run(&[("crates/sz/src/huffman.rs", &good)]);
        assert!(f.iter().all(|f| !f.rule.starts_with("det-hash")), "{f:?}");
    }

    #[test]
    fn panic_reachability_respects_hops() {
        let src = "pub fn serve(reqs: &[u8]) {\nstep1(reqs);\n}\nfn step1(reqs: &[u8]) {\nlet x = reqs.first().unwrap();\ndrop(x);\n}";
        let f = run(&[("crates/core/src/serve.rs", src)]);
        let hit = f.iter().find(|f| f.rule == "panic-path").expect("panic finding");
        assert!(hit.message.contains("serve -> step1"), "{hit:?}");
        // The same panic beyond the hop budget is not reported.
        let owned = vec![("crates/core/src/serve.rs".to_string(), src.to_string())];
        let f = analyze_files(&owned, &AnalyzeOptions { hops: 0 });
        assert!(!f.iter().any(|f| f.rule == "panic-path"), "{f:?}");
    }

    #[test]
    fn escapes_suppress_findings() {
        let src = "fn d(stream: &[u8]) -> Result<()> {\nlet mut r = ByteReader::new(stream);\nlet n = r.u32_le()? as usize;\n// lint: allow(taint-alloc) bounded by the caller\nlet v: Vec<u8> = Vec::with_capacity(n);\nOk(())\n}";
        let f = run(&[("crates/sz/src/stream.rs", src)]);
        assert!(!f.iter().any(|f| f.rule == "taint-alloc"), "{f:?}");
    }

    #[test]
    fn fingerprints_are_stable_across_line_shifts() {
        let a = "fn d(stream: &[u8]) {\nlet mut r = ByteReader::new(stream);\nlet n = r.u32_le().unwrap_or(0) as usize;\nlet v: Vec<u8> = Vec::with_capacity(n);\ndrop(v);\n}";
        let b = format!("\n\n{a}");
        let fa = run(&[("crates/sz/src/stream.rs", a)]);
        let fb = run(&[("crates/sz/src/stream.rs", &b)]);
        let pa: Vec<&String> = fa.iter().map(|f| &f.fingerprint).collect();
        let pb: Vec<&String> = fb.iter().map(|f| &f.fingerprint).collect();
        assert!(!pa.is_empty());
        assert_eq!(pa, pb);
    }

    #[test]
    fn baseline_round_trips() {
        let src = "fn d(stream: &[u8]) {\nlet mut r = ByteReader::new(stream);\nlet n = r.u32_le().unwrap_or(0) as usize;\nlet v: Vec<u8> = Vec::with_capacity(n);\ndrop(v);\n}";
        let f = run(&[("crates/sz/src/stream.rs", src)]);
        assert!(!f.is_empty());
        let rendered = render_baseline(&f);
        let known = parse_baseline(&rendered);
        assert!(f.iter().all(|x| known.contains(&x.fingerprint)));
    }

    #[test]
    fn sarif_has_version_rules_and_fingerprints() {
        let src = "fn d(stream: &[u8]) {\nlet mut r = ByteReader::new(stream);\nlet n = r.u32_le().unwrap_or(0) as usize;\nlet v: Vec<u8> = Vec::with_capacity(n);\ndrop(v);\n}";
        let f = run(&[("crates/sz/src/stream.rs", src)]);
        let doc = sarif(&f);
        assert!(doc.contains("\"version\":\"2.1.0\""));
        assert!(doc.contains("foresight-lint"));
        assert!(doc.contains(FINGERPRINT_KEY));
        assert!(doc.contains(&f[0].fingerprint));
        assert!(doc.contains("taint-alloc"));
    }
}

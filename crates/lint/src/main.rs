//! `foresight-lint`: the workspace analyzer's command line.
//!
//! Runs every pass of [`foresight_lint::analyze`] — the eight token
//! rules and the taint, determinism and panic-reachability passes — over
//! the workspace in one walk, and gates on fingerprints absent from the
//! committed baseline.
//!
//! Usage: `foresight-lint [workspace-root] [--deny-new] [--bless]
//! [--baseline PATH] [--sarif PATH] [--hops N] [--quiet] [--list-rules]`
//! (root defaults to `.`). Exit codes: 0 clean (no unbaselined
//! findings), 1 new findings, 2 usage/IO error.

#![forbid(unsafe_code)]

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(foresight_lint::analyze::run_cli(&args));
}

#[cfg(test)]
mod tests {
    use foresight_lint::analyze::{analyze_files, AnalyzeOptions, Finding};
    use foresight_lint::scan::ESCAPE_PREFIX;

    const DECODE_PATH: &str = "crates/sz/src/stream.rs";

    /// Every pass over one file at a workspace path.
    fn scan_file(path: &str, text: &str) -> Vec<Finding> {
        analyze_files(&[(path.to_string(), text.to_string())], &AnalyzeOptions::default())
    }

    fn rules(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    /// The tokens the unsafe-policy rule looks for, assembled at runtime.
    fn unsafe_tok() -> String {
        ["uns", "afe"].concat()
    }
    fn forbid_unsafe() -> String {
        ["#![forbid(", "uns", "afe_code)]"].concat()
    }
    fn allow_unsafe() -> String {
        ["allow(", "uns", "afe_code)"].concat()
    }
    fn safety() -> String {
        ["SAF", "ETY:"].concat()
    }

    #[test]
    fn flags_unwrap_in_decode_file() {
        let src = "fn f(d: &[u8]) { let x = d.first().unwrap(); }";
        let found = scan_file(DECODE_PATH, src);
        assert_eq!(rules(&found), ["decode-panic"]);
    }

    #[test]
    fn same_code_ok_outside_decode_files() {
        let src = "fn f(d: &[u8]) { let x = d.first().unwrap(); }";
        assert!(scan_file("crates/cosmo/src/nyx.rs", src).is_empty());
    }

    #[test]
    fn escape_on_same_or_previous_line_suppresses() {
        // Full escape marker, e.g. `// lint: allow(decode-panic)`.
        let marker = [ESCAPE_PREFIX, "decode-panic)"].concat();
        let src = format!("fn f(d: &[u8]) {{\nlet x = d.first().unwrap(); {marker}\n}}");
        assert!(scan_file(DECODE_PATH, &src).is_empty(), "same-line escape");
        let src = format!("fn f(d: &[u8]) {{\n{marker} justification\nlet x = d.first().unwrap();\n}}");
        assert!(scan_file(DECODE_PATH, &src).is_empty(), "previous-line escape");
    }

    #[test]
    fn comment_and_test_lines_are_skipped() {
        let src = "//! docs mention .unwrap() freely\nfn ok() {}\n#[cfg(test)]\nmod tests {\n fn t() { Some(1).unwrap(); }\n}";
        assert!(scan_file(DECODE_PATH, src).is_empty());
    }

    #[test]
    fn flags_stream_indexing_and_manual_headers() {
        let src = "fn d(stream: &[u8]) -> u32 {\nlet n = u32::from_le_bytes(stream[..4].try_into().ok().into());\nn\n}";
        let found = scan_file(DECODE_PATH, src);
        assert!(rules(&found).contains(&"decode-index"), "{found:?}");
        assert!(rules(&found).contains(&"header-bytereader"), "{found:?}");
    }

    #[test]
    fn flags_unchecked_alloc_arith() {
        let src = "fn a(n: usize) { let v: Vec<u8> = Vec::with_capacity(n * 4); drop(v); }";
        assert_eq!(rules(&scan_file(DECODE_PATH, src)), ["alloc-arith"]);
        let src = "fn a(n: usize) { let v: Vec<u8> = Vec::with_capacity(n.checked_mul(4).unwrap_or(0)); drop(v); }";
        assert!(scan_file(DECODE_PATH, src).is_empty());
    }

    #[test]
    fn flags_raw_instant_everywhere_but_timing_layer() {
        let line = ["let t = std::time::", "Ins", "tant::now();"].concat();
        let src = format!("fn f() {{ {line} }}");
        assert_eq!(rules(&scan_file("crates/bench/src/report.rs", &src)), ["instant"]);
        assert!(scan_file("crates/util/src/timer.rs", &src).is_empty());
    }

    #[test]
    fn kernel_labels_must_be_distinct_and_non_empty() {
        let call = ["launch_", "grid(dev, kind, grid, "].concat();
        let src = format!("fn f() {{\n{call}\"a\", w);\n{call}\"a\", w);\n}}");
        assert_eq!(rules(&scan_file("crates/gpu/src/x.rs", &src)), ["kernel-label"]);
        let src = format!("fn f() {{\n{call}\"\", w);\n}}");
        assert_eq!(rules(&scan_file("crates/gpu/src/x.rs", &src)), ["kernel-label"]);
        let src = format!("fn f() {{\n{call}\"a\", w);\n{call}\"b\", w);\n}}");
        assert!(scan_file("crates/gpu/src/x.rs", &src).is_empty());
        // Non-literal label sites are skipped.
        let src = format!("fn f(l: &str) {{\n{call}l, w);\n}}");
        assert!(scan_file("crates/gpu/src/x.rs", &src).is_empty());
    }

    #[test]
    fn serve_queue_enqueue_sites_are_launch_sites() {
        let call = ["q.enqueue_", "unit(t, kind, n, b, inb, outb, "].concat();
        let src = format!("fn f() {{\n{call}\"u\");\n{call}\"u\");\n}}");
        assert_eq!(rules(&scan_file("crates/gpu/src/x.rs", &src)), ["kernel-label"]);
        let src = format!("fn f() {{\n{call}\"\");\n}}");
        assert_eq!(rules(&scan_file("crates/gpu/src/x.rs", &src)), ["kernel-label"]);
        let src = format!("fn f() {{\n{call}\"u0\");\n{call}\"u1\");\n}}");
        assert!(scan_file("crates/gpu/src/x.rs", &src).is_empty());
    }

    #[test]
    fn cluster_exec_sites_are_launch_sites() {
        let call = ["state.exec_", "unit(d, t, u, "].concat();
        let src = format!("fn f() {{\n{call}\"r0\");\n{call}\"r0\");\n}}");
        assert_eq!(rules(&scan_file("crates/core/src/cluster.rs", &src)), ["kernel-label"]);
        let src = format!("fn f() {{\n{call}\"\");\n}}");
        assert_eq!(rules(&scan_file("crates/core/src/cluster.rs", &src)), ["kernel-label"]);
        let src = format!("fn f() {{\n{call}\"r0\");\n{call}\"r1\");\n}}");
        assert!(scan_file("crates/core/src/cluster.rs", &src).is_empty());
        // Runtime-label dispatch sites (the router's) are skipped.
        let src = format!("fn f(l: &str) {{\n{call}l);\n}}");
        assert!(scan_file("crates/core/src/cluster.rs", &src).is_empty());
    }

    #[test]
    fn crate_roots_need_an_unsafe_policy() {
        let found = scan_file("crates/foo/src/lib.rs", "pub mod x;");
        assert_eq!(rules(&found), ["unsafe-policy"]);
        let ok = format!("{}\npub mod x;", forbid_unsafe());
        assert!(scan_file("crates/foo/src/lib.rs", &ok).is_empty());
    }

    #[test]
    fn unsafe_usage_needs_opt_in_and_safety_comment() {
        let body = [unsafe_tok().as_str(), " { core::hint::spin_loop(); }"].concat();
        let src = format!("fn f() {{ {body} }}");
        let found = scan_file("crates/fft/src/fft3d.rs", &src);
        assert_eq!(rules(&found), ["unsafe-policy", "unsafe-policy"]);
        let src = format!(
            "#![{}]\n// {}: sound because it is a no-op\nfn f() {{ {body} }}",
            allow_unsafe(), safety()
        );
        assert!(scan_file("crates/fft/src/fft3d.rs", &src).is_empty());
    }

    #[test]
    fn flags_ambient_span_inside_fanout() {
        let span = ["telemetry::", "span("].concat();
        let par = [".par_", "iter()"].concat();
        let src = format!(
            "fn f(xs: &[u32]) {{\nlet v: Vec<_> = xs{par}.map(|x| {{\nlet _s = {span}\"pair\");\nx + 1\n}}).collect();\ndrop(v);\n}}"
        );
        assert_eq!(rules(&scan_file("crates/core/src/cbench.rs", &src)), ["span-orphan"]);
        // Same code outside the fan-out file list is not checked.
        assert!(scan_file("crates/core/src/runner.rs", &src).is_empty());
    }

    #[test]
    fn span_with_parent_and_spans_outside_fanouts_are_fine() {
        let span = ["telemetry::", "span("].concat();
        let swp = ["telemetry::", "span_with_parent("].concat();
        let par = [".par_", "iter()"].concat();
        // The sanctioned shape: span before the fan-out, span_with_parent
        // inside the closure.
        let src = format!(
            "fn f(xs: &[u32]) {{\nlet s = {span}\"sweep\");\nlet id = s.id();\nlet v: Vec<_> = xs{par}.map(|x| {{\nlet _c = {swp}\"pair\", id);\nx\n}}).collect();\ndrop(v);\n}}"
        );
        assert!(scan_file("crates/core/src/cbench.rs", &src).is_empty());
        // A span after the fan-out statement closes is ambient again.
        let src = format!(
            "fn f(xs: &[u32]) {{\nlet v: Vec<_> = xs{par}.map(|x| x).collect();\nlet _s = {span}\"after\");\ndrop(v);\n}}"
        );
        assert!(scan_file("crates/core/src/cbench.rs", &src).is_empty());
    }

    #[test]
    fn span_orphan_escape_suppresses() {
        let span = ["telemetry::", "span("].concat();
        let par = [".par_", "iter()"].concat();
        let marker = [ESCAPE_PREFIX, "span-orphan)"].concat();
        let src = format!(
            "fn f(xs: &[u32]) {{\nlet v: Vec<_> = xs{par}.map(|x| {{\n{marker} root-per-item is intended\nlet _s = {span}\"pair\");\nx\n}}).collect();\ndrop(v);\n}}"
        );
        assert!(scan_file("crates/core/src/cbench.rs", &src).is_empty());
    }
}

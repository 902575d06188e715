//! Shared source scanning: the line view every analyzer pass agrees on
//! (comment stripping, `#[cfg(test)]` truncation, the escape comment,
//! skip dirs) and the token lexer the dataflow passes are built on.
//!
//! The line view keeps the exact semantics the token rules always had;
//! they are pinned by the rule tests in `src/main.rs`. The lexer layers
//! a token stream on top of the same view, which is what makes every
//! pass agree about what is code and what is comment/test scaffolding.

use std::path::{Path, PathBuf};

/// Directories never scanned. `tests`/`benches` hold integration tests
/// and harnesses — test code, excluded for the same reason inline
/// `#[cfg(test)]` modules are stripped.
pub const SKIP_DIRS: &[&str] = &["target", "shims", ".git", "results", "tests", "benches"];

/// Strips a trailing `//` comment, tracking string/char state so `//`
/// inside a string literal does not truncate the line.
pub fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_str => i += 1, // skip escaped char inside a string
            b'"' => in_str = !in_str,
            b'/' if !in_str && i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                return &line[..i];
            }
            _ => {}
        }
        i += 1;
    }
    line
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// True when `hay` contains `word` with no identifier character right
/// before it and a next character `after` accepts (`None` at the end).
fn has_word(hay: &str, word: &str, after: impl Fn(Option<char>) -> bool) -> bool {
    let mut from = 0;
    while let Some(rel) = hay[from..].find(word) {
        let at = from + rel;
        let end = at + word.len();
        if !hay[..at].chars().next_back().is_some_and(is_ident_char) && after(hay[end..].chars().next())
        {
            return true;
        }
        from = end;
    }
    false
}

/// True when `hay` uses `kw` as a keyword: not part of a longer
/// identifier, and followed by whitespace, `{`, or end of line (the only
/// shapes Rust's `unsafe` keyword takes), so `"<kw>-policy"` string
/// literals and `<kw>_code` attribute names do not match.
pub fn contains_keyword(hay: &str, kw: &str) -> bool {
    has_word(hay, kw, |c| matches!(c, None | Some(' ') | Some('\t') | Some('{')))
}

/// True when `hay` mentions `word` with identifier boundaries on both
/// sides (unlike [`contains_keyword`], any non-ident char may follow).
pub fn mentions_word(hay: &str, word: &str) -> bool {
    !word.is_empty() && has_word(hay, word, |c| !c.is_some_and(is_ident_char))
}

/// Extracts the first `"..."` literal from a line, if any.
pub fn first_string_literal(line: &str) -> Option<&str> {
    let start = line.find('"')?;
    let rest = &line[start + 1..];
    let end = rest.find('"')?;
    Some(&rest[..end])
}

/// The escape comment's prefix, assembled so this file does not carry
/// the marker itself.
pub const ESCAPE_PREFIX: &str = concat!("// lint", ": allow(");

/// One source file pre-processed for scanning: raw lines plus the
/// comment-stripped "code" view, truncated at `#[cfg(test)]`.
pub struct Source<'a> {
    pub path: &'a str,
    pub raw: Vec<&'a str>,
    pub code: Vec<String>,
}

impl<'a> Source<'a> {
    pub fn new(path: &'a str, text: &'a str) -> Self {
        let mut raw = Vec::new();
        let mut code = Vec::new();
        let mut in_tests = false;
        for line in text.lines() {
            raw.push(line);
            let trimmed = line.trim();
            if trimmed == "#[cfg(test)]" {
                in_tests = true;
            }
            if in_tests || trimmed.starts_with("//") {
                code.push(String::new());
            } else {
                code.push(strip_comment(line).to_string());
            }
        }
        Self { path, raw, code }
    }

    /// True when line `i` (0-based) carries the escape comment
    /// `// lint: allow(<rule>)`, either on the line itself or the line
    /// directly above. The one escape for every rule.
    pub fn escaped(&self, i: usize, rule: &str) -> bool {
        let marker = format!("{ESCAPE_PREFIX}{rule})");
        if self.raw[i].contains(&marker) {
            return true;
        }
        i > 0 && self.raw[i - 1].trim_start().starts_with("//") && self.raw[i - 1].contains(&marker)
    }
}

/// Recursively collects `.rs` files under `dir`, skipping [`SKIP_DIRS`]
/// and dot-directories.
pub fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Token kinds the lexer distinguishes. The analyzer only needs enough
/// structure to find items, calls, and argument lists; literals keep
/// their text so patterns can still look inside them when a rule wants
/// to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    Ident,
    Num,
    Str,
    Life,
    Punct,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    pub text: String,
    pub kind: TokKind,
    pub line: usize,
}

impl Token {
    pub fn is(&self, s: &str) -> bool {
        self.text == s
    }
}

/// Lexes the code view of `src` into a token stream. Works on the same
/// comment-stripped, test-truncated lines the line rules see, so both
/// bins agree about what is code. Block comments (`/* .. */`, nested)
/// are additionally stripped here; unterminated strings close at end of
/// line (robustness over precision — this is a heuristic analyzer, not a
/// compiler front end).
pub fn lex(src: &Source) -> Vec<Token> {
    let mut toks = Vec::new();
    let mut block_depth = 0usize; // /* */ nesting carried across lines
    for (li, line) in src.code.iter().enumerate() {
        let b = line.as_bytes();
        let n = b.len();
        let mut i = 0;
        let lineno = li + 1;
        while i < n {
            let c = b[i];
            if block_depth > 0 {
                if c == b'*' && i + 1 < n && b[i + 1] == b'/' {
                    block_depth -= 1;
                    i += 2;
                } else if c == b'/' && i + 1 < n && b[i + 1] == b'*' {
                    block_depth += 1;
                    i += 2;
                } else {
                    i += 1;
                }
                continue;
            }
            if c == b'/' && i + 1 < n && b[i + 1] == b'*' {
                block_depth += 1;
                i += 2;
                continue;
            }
            if c.is_ascii_whitespace() {
                i += 1;
                continue;
            }
            if c.is_ascii_alphabetic() || c == b'_' {
                let start = i;
                while i < n && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                let word = &line[start..i];
                // Raw string literal `r"..."` / `r#"..."#`.
                if (word == "r" || word == "br") && i < n && (b[i] == b'"' || b[i] == b'#') {
                    let mut hashes = 0;
                    while i < n && b[i] == b'#' {
                        hashes += 1;
                        i += 1;
                    }
                    if i < n && b[i] == b'"' {
                        i += 1;
                        let s = i;
                        let close: String =
                            std::iter::once('"').chain(std::iter::repeat_n('#', hashes)).collect();
                        let end = line[i..].find(&close).map(|p| i + p).unwrap_or(n);
                        toks.push(Token {
                            text: line[s..end].to_string(),
                            kind: TokKind::Str,
                            line: lineno,
                        });
                        i = (end + close.len()).min(n);
                        continue;
                    }
                }
                toks.push(Token { text: word.to_string(), kind: TokKind::Ident, line: lineno });
                continue;
            }
            if c.is_ascii_digit() {
                let start = i;
                while i < n
                    && (b[i].is_ascii_alphanumeric()
                        || b[i] == b'_'
                        || (b[i] == b'.' && i + 1 < n && b[i + 1].is_ascii_digit()))
                {
                    i += 1;
                }
                toks.push(Token {
                    text: line[start..i].to_string(),
                    kind: TokKind::Num,
                    line: lineno,
                });
                continue;
            }
            if c == b'"' {
                i += 1;
                let s = i;
                while i < n {
                    match b[i] {
                        b'\\' => i += 2,
                        b'"' => break,
                        _ => i += 1,
                    }
                }
                let end = i.min(n);
                toks.push(Token {
                    text: line[s..end].to_string(),
                    kind: TokKind::Str,
                    line: lineno,
                });
                i = (end + 1).min(n + 1);
                continue;
            }
            if c == b'\'' {
                // Char literal vs lifetime: `'x'` / `'\n'` are chars,
                // `'a` (no closing quote right after) is a lifetime.
                if i + 2 < n && b[i + 1] == b'\\' {
                    let mut j = i + 2;
                    while j < n && b[j] != b'\'' {
                        j += 1;
                    }
                    toks.push(Token {
                        text: line[i + 1..j.min(n)].to_string(),
                        kind: TokKind::Str,
                        line: lineno,
                    });
                    i = (j + 1).min(n);
                    continue;
                }
                if i + 2 < n && b[i + 2] == b'\'' {
                    toks.push(Token {
                        text: line[i + 1..i + 2].to_string(),
                        kind: TokKind::Str,
                        line: lineno,
                    });
                    i += 3;
                    continue;
                }
                let start = i + 1;
                i += 1;
                while i < n && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                toks.push(Token {
                    text: line[start..i].to_string(),
                    kind: TokKind::Life,
                    line: lineno,
                });
                continue;
            }
            toks.push(Token {
                text: (c as char).to_string(),
                kind: TokKind::Punct,
                line: lineno,
            });
            i += 1;
        }
    }
    toks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_idents_calls_and_strings() {
        let text = "fn f(x: usize) { g(x, \"lab el\"); } // tail comment";
        let src = Source::new("a.rs", text);
        let toks = lex(&src);
        let idents: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(idents, ["fn", "f", "x", "usize", "g", "x"]);
        let strs: Vec<&str> =
            toks.iter().filter(|t| t.kind == TokKind::Str).map(|t| t.text.as_str()).collect();
        assert_eq!(strs, ["lab el"]);
    }

    #[test]
    fn lexer_skips_test_modules_and_comments() {
        let text = "fn live() {}\n// fn commented() {}\n#[cfg(test)]\nmod tests { fn dead() {} }";
        let src = Source::new("a.rs", text);
        let toks = lex(&src);
        assert!(toks.iter().any(|t| t.is("live")));
        assert!(!toks.iter().any(|t| t.is("commented")));
        assert!(!toks.iter().any(|t| t.is("dead")));
    }

    #[test]
    fn lexer_tracks_lines_and_block_comments() {
        let text = "fn a() {}\n/* fn b() {}\nstill comment */ fn c() {}";
        let src = Source::new("a.rs", text);
        let toks = lex(&src);
        assert!(!toks.iter().any(|t| t.is("b")));
        let c = toks.iter().find(|t| t.is("c")).expect("c lexed");
        assert_eq!(c.line, 3);
    }

    #[test]
    fn lexer_separates_lifetimes_from_char_literals() {
        let text = "fn f<'a>(x: &'a str) -> char { 'z' }";
        let src = Source::new("a.rs", text);
        let toks = lex(&src);
        assert!(toks.iter().any(|t| t.kind == TokKind::Life && t.text == "a"));
        assert!(toks.iter().any(|t| t.kind == TokKind::Str && t.text == "z"));
    }

    #[test]
    fn mentions_word_is_boundary_aware() {
        assert!(mentions_word("n + len", "len"));
        assert!(mentions_word("f(len)", "len"));
        assert!(!mentions_word("byte_len + 1", "len"));
        assert!(!mentions_word("length", "len"));
    }
}

//! Minimal JSON parser and writer.
//!
//! The pipeline config (`foresight::config`) is a small, shallow JSON
//! document; this module implements exactly the JSON it needs — all of
//! RFC 8259 syntax on the read side, and a compact writer on the emit
//! side — without an external dependency. Objects preserve insertion
//! order so emitted configs stay diffable.

use crate::{Error, Result};
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as f64, like most dynamic parsers).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Parses a JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Value> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Borrows the fields of an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Borrows the elements of an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Borrows a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric value as f64.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric value as u64, when it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Looks up a field of an object by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Serializes compactly (no insignificant whitespace).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Number(n) => {
                if n.is_finite() {
                    // `{}` on f64 is the shortest round-tripping form.
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            Value::String(s) => write_escaped(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// A Rust type with one exact JSON form: the strict typed view of a
/// [`Value`] that config sections are read and written through.
///
/// `at` is the dotted path of the value being read (`cluster.priorities`,
/// `slo[0].metric`); it leads every error message, so a caller several
/// levels up can report where in a document a value was wrong.
pub trait Json: Sized {
    /// Strict read: a JSON value the type cannot hold exactly — wrong
    /// kind, fraction or sign for an integer, too wide for the integer
    /// type, not finite — is an [`Error::Config`].
    fn read(v: &Value, at: &str) -> Result<Self>;
    /// The JSON form that [`Self::read`] reads back to an equal value.
    fn write(&self) -> Value;
}

/// "`at` must be `what`, got `got`": the error for a value outside what
/// its reader accepts.
pub fn must_be(at: &str, what: impl std::fmt::Display, got: &Value) -> Error {
    Error::Config(format!("{at} must be {what}, got {}", got.to_json()))
}

impl Json for bool {
    fn read(v: &Value, at: &str) -> Result<Self> {
        v.as_bool().ok_or_else(|| must_be(at, "a boolean", v))
    }
    fn write(&self) -> Value {
        Value::Bool(*self)
    }
}

/// JSON has no infinity or NaN, so neither could be written back.
impl Json for f64 {
    fn read(v: &Value, at: &str) -> Result<Self> {
        v.as_f64().filter(|n| n.is_finite()).ok_or_else(|| must_be(at, "a finite number", v))
    }
    fn write(&self) -> Value {
        Value::Number(*self)
    }
}

/// Integers carry their type's range, so a value that does not fit is an
/// error instead of a silent wrap.
macro_rules! integer_json {
    ($($int:ty)+) => {$(
        impl Json for $int {
            fn read(v: &Value, at: &str) -> Result<Self> {
                let fits = v.as_u64().and_then(|n| <$int>::try_from(n).ok());
                fits.ok_or_else(|| must_be(at, format_args!("an integer in [0, {}]", <$int>::MAX), v))
            }
            fn write(&self) -> Value {
                Value::Number(*self as f64)
            }
        }
    )+};
}
integer_json!(u8 u32 u64 usize);

impl Json for String {
    fn read(v: &Value, at: &str) -> Result<Self> {
        v.as_str().map(str::to_string).ok_or_else(|| must_be(at, "a string", v))
    }
    fn write(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Json for std::path::PathBuf {
    fn read(v: &Value, at: &str) -> Result<Self> {
        String::read(v, at).map(Self::from)
    }
    fn write(&self) -> Value {
        Value::String(self.to_string_lossy().into_owned())
    }
}

impl<T: Json> Json for Vec<T> {
    fn read(v: &Value, at: &str) -> Result<Self> {
        let items = v.as_array().ok_or_else(|| must_be(at, "an array", v))?;
        items.iter().enumerate().map(|(i, item)| T::read(item, &format!("{at}[{i}]"))).collect()
    }
    fn write(&self) -> Value {
        Value::Array(self.iter().map(T::write).collect())
    }
}

/// `null` reads as `None`, the same as leaving the key out.
impl<T: Json> Json for Option<T> {
    fn read(v: &Value, at: &str) -> Result<Self> {
        match v {
            Value::Null => Ok(None),
            v => T::read(v, at).map(Some),
        }
    }
    fn write(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::write)
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest nesting of arrays and objects a document may have. The
/// deepest document the workspace writes (a `BENCH_<n>.json`) nests 5
/// levels; past this cap parsing fails instead of recursing on (10 000
/// `[` would overflow a 2 MiB thread stack).
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error::Config(format!("json error at byte {}: {}", self.pos, msg))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let v = if open == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require a trailing \uXXXX.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                Some(_) => {
                    // Copy a full UTF-8 character from the source.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| self.err("invalid utf-8 in string"))?;
                    let c = s.chars().next().unwrap();
                    if (c as u32) < 0x20 {
                        return Err(self.err("unescaped control character"));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err(&format!("invalid number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse("true").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse(" -2.5e1 ").unwrap(), Value::Number(-25.0));
        assert_eq!(
            Value::parse(r#""a\nbA""#).unwrap(),
            Value::String("a\nbA".into())
        );
    }

    #[test]
    fn parses_nested_document() {
        let v = Value::parse(r#"{"a": [1, {"b": false}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Value::as_str), Some("x"));
        let arr = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].get("b").and_then(Value::as_bool), Some(false));
    }

    #[test]
    fn rejects_malformed() {
        for bad in ["{ nope", "[1,]", "{\"a\":1,}", "\"open", "01x", "{} trailing", "[1 2]"] {
            assert!(Value::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn roundtrips_through_writer() {
        let text = r#"{"input":{"n":32,"f":0.1},"list":[1,2.5,"s\"q",true,null]}"#;
        let v = Value::parse(text).unwrap();
        let emitted = v.to_json();
        assert_eq!(Value::parse(&emitted).unwrap(), v);
        assert_eq!(emitted, text);
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = Value::parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
        assert!(Value::parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn typed_reads_are_strict_and_name_the_path() {
        let num = |text: &str| Value::parse(text).unwrap();
        assert_eq!(u8::read(&num("255"), "p").unwrap(), 255);
        for (bad, at) in [("256", "a.b"), ("-1", "a.b"), ("1.5", "a.b"), ("\"1\"", "a.b")] {
            let err = u8::read(&num(bad), at).unwrap_err().to_string();
            assert!(err.contains("a.b must be an integer in [0, 255]"), "{err}");
        }
        assert!(u32::read(&num("4294967296"), "x").is_err());
        assert!(f64::read(&num("1e999"), "x").is_err(), "infinity cannot be written back");
        assert_eq!(Option::<bool>::read(&Value::Null, "x").unwrap(), None);
        assert_eq!(Some(true).write(), Value::Bool(true));
        let err = Vec::<u8>::read(&num("[1, 2, 300]"), "list").unwrap_err().to_string();
        assert!(err.contains("list[2] must be"), "{err}");
        let list = vec![String::from("a"), String::from("b")];
        assert_eq!(Vec::<String>::read(&list.write(), "x").unwrap(), list);
    }

    #[test]
    fn object_order_preserved() {
        let v = Value::parse(r#"{"z":1,"a":2}"#).unwrap();
        let keys: Vec<_> =
            v.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["z", "a"]);
    }

    #[test]
    fn nesting_past_the_cap_is_an_error_not_a_stack_overflow() {
        let n = 10_000;
        let arrays = format!("{}{}", "[".repeat(n), "]".repeat(n));
        let objects = format!("{}1{}", r#"{"a":"#.repeat(n), "}".repeat(n));
        let verdicts = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || [Value::parse(&arrays), Value::parse(&objects)].map(|r| r.err()))
            .unwrap()
            .join()
            .expect("the parser must not overflow a 2 MiB stack");
        for err in verdicts {
            assert!(matches!(&err, Some(Error::Config(m)) if m.contains("nesting")), "{err:?}");
        }
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Value::parse(&at_cap).is_ok());
        let past = format!("[{at_cap}]");
        assert!(Value::parse(&past).is_err());
    }
}

//! Minimal JSON emission and parsing.
//!
//! The bench binaries' `BENCH_*.json` documents (re-exported as
//! `past_bench::json`) are produced through this module. The workspace
//! is hermetic (no serde), so it provides what is actually needed: an
//! object/array writer with correct string escaping, and one
//! recursive-descent [`parse`] that the analyzer reads trace and series
//! lines with and that [`validate`] runs over a writer's own output.

use std::collections::BTreeMap;

/// Escapes a string for inclusion in a JSON document (quotes included).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

/// An incremental JSON object writer.
#[derive(Default)]
pub struct Obj {
    body: String,
}

impl Obj {
    /// Starts an empty object.
    pub fn new() -> Obj {
        Obj::default()
    }

    fn key(&mut self, k: &str) -> &mut String {
        if !self.body.is_empty() {
            self.body.push_str(", ");
        }
        self.body.push_str(&quote(k));
        self.body.push_str(": ");
        &mut self.body
    }

    /// Adds a string field.
    pub fn str(mut self, k: &str, v: &str) -> Obj {
        let q = quote(v);
        self.key(k).push_str(&q);
        self
    }

    /// Adds an integer field.
    pub fn int(mut self, k: &str, v: u64) -> Obj {
        self.key(k).push_str(&v.to_string());
        self
    }

    /// Adds a float field (one decimal, JSON-finite).
    pub fn num(mut self, k: &str, v: f64) -> Obj {
        let v = if v.is_finite() { v } else { 0.0 };
        self.key(k).push_str(&format!("{v:.1}"));
        self
    }

    /// Adds an already-serialized JSON value.
    pub fn raw(mut self, k: &str, v: &str) -> Obj {
        self.key(k).push_str(v);
        self
    }

    /// Closes the object and returns its JSON text.
    pub fn build(self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// Serializes an iterator of already-serialized values as a JSON array.
pub fn array<I: IntoIterator<Item = String>>(items: I) -> String {
    let items: Vec<String> = items.into_iter().collect();
    format!("[{}]", items.join(", "))
}

/// Nesting deeper than this many arrays and objects is an error, so a
/// hostile document cannot exhaust the stack. The deepest document the
/// tree writes has five levels (`BENCH_loss.json` and pastbench's
/// `result.json`).
const MAX_DEPTH: usize = 64;

/// One parsed JSON value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, kept as written so an integer above 2^53 stays exact.
    Num(String),
    /// A string, escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; a repeated key keeps its last value.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The number as a `u64`, if it is a non-negative integer that fits.
    pub fn as_u64(&self) -> Option<u64> {
        let Value::Num(n) = self else { return None };
        n.parse().ok()
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        let Value::Str(s) = self else { return None };
        Some(s)
    }
}

/// Parses `s` as one complete JSON value. Returns a position-annotated
/// error otherwise.
pub fn parse(s: &str) -> Result<Value, String> {
    let mut p = Parser { s, pos: 0 };
    let v = p.value(0)?;
    p.ws();
    if p.pos != s.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

/// Validates that `s` is one complete, syntactically well-formed JSON
/// value: [`parse`] with the value discarded.
pub fn validate(s: &str) -> Result<(), String> {
    parse(s).map(|_| ())
}

/// A recursive-descent parser; `pos` is a byte offset on a char boundary.
struct Parser<'a> {
    s: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.pos).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        let hit = self.peek() == Some(c);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.pos))
        }
    }

    /// One value nested inside `depth` arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Value, String> {
        self.ws();
        match self.peek() {
            Some(b'{') => {
                let mut fields = BTreeMap::new();
                self.seq(b'{', b'}', depth, |p| {
                    p.ws();
                    let k = p.string()?;
                    p.ws();
                    p.expect(b':')?;
                    fields.insert(k, p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Value::Obj(fields))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.seq(b'[', b']', depth, |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Value::Arr(items))
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c.is_ascii_digit() || c == b'-' => self.number(),
            _ => Err(format!("expected a JSON value at byte {}", self.pos)),
        }
    }

    /// `open close` or `open item (, item)* close`, one `item` call per
    /// element, for a container opened inside `depth` others.
    fn seq(
        &mut self,
        open: u8,
        close: u8,
        depth: usize,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if depth >= MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.expect(open)?;
        self.ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            item(self)?;
            self.ws();
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(b',') {
                return Err(format!(
                    "expected ',' or '{}' at byte {}",
                    close as char, self.pos
                ));
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let at = self.pos;
            let c = self.s[at..].chars().next().ok_or("unterminated string")?;
            self.pos += c.len_utf8();
            let c = match c {
                '"' => return Ok(out),
                '\\' => {
                    self.pos += 1;
                    match self.s.as_bytes().get(at + 1) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => self.unicode()?,
                        _ => return Err(format!("bad escape at byte {at}")),
                    }
                }
                c if c < ' ' => return Err(format!("raw control byte at {at}")),
                c => c,
            };
            out.push(c);
        }
    }

    /// The code point of a `\uXXXX` escape (its `\u` already read),
    /// joined with a following low surrogate escape when it is a high
    /// one. A surrogate left unpaired decodes as U+FFFD.
    fn unicode(&mut self) -> Result<char, String> {
        let mut unit = self.hex4()?;
        if (0xd800..0xdc00).contains(&unit) && self.s[self.pos..].starts_with("\\u") {
            let back = self.pos;
            self.pos += 2;
            let low = self.hex4()?;
            if (0xdc00..0xe000).contains(&low) {
                unit = 0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00);
            } else {
                self.pos = back;
            }
        }
        Ok(char::from_u32(unit).unwrap_or(char::REPLACEMENT_CHARACTER))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self.s.get(self.pos..self.pos + 4);
        let unit = hex
            .filter(|h| h.bytes().all(|c| c.is_ascii_hexdigit()))
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        Ok(unit)
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.s[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        self.eat(b'-');
        if !self.digits() {
            return Err(format!("bad number at byte {start}"));
        }
        if self.eat(b'.') && !self.digits() {
            return Err(format!("bad fraction at byte {start}"));
        }
        if self.eat(b'e') || self.eat(b'E') {
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.digits() {
                return Err(format!("bad exponent at byte {start}"));
            }
        }
        Ok(Value::Num(self.s[start..self.pos].to_string()))
    }

    fn digits(&mut self) -> bool {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos > start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_emits_valid_json() {
        let doc = Obj::new()
            .str("schema", "past-bench/v1")
            .int("n", 10_000)
            .num("wall_ms", 12.345)
            .raw(
                "results",
                &array(vec![
                    Obj::new().str("name", "a/b").num("median_ns", 1.5).build(),
                    Obj::new().str("name", "c\"d\\e").int("count", 2).build(),
                ]),
            )
            .build();
        validate(&doc).expect("builder output must validate");
        assert!(doc.contains("\"schema\": \"past-bench/v1\""));
        assert!(doc.contains("\"wall_ms\": 12.3"));
    }

    #[test]
    fn escaping_round_trips_through_validator() {
        let doc = Obj::new()
            .str("k", "line\nbreak\ttab \"q\" \\ \u{1}")
            .build();
        validate(&doc).expect("escaped control chars must validate");
    }

    #[test]
    fn validator_accepts_plain_values() {
        for ok in [
            "{}",
            "[]",
            "[1, 2.5, -3e4, true, false, null]",
            "{\"a\": {\"b\": [\"c\"]}}",
            "  42  ",
        ] {
            assert!(validate(ok).is_ok(), "{ok} should validate");
        }
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\": }",
            "[1, ]",
            "{\"a\" 1}",
            "{} {}",
            "\"unterminated",
            "01e",
            "{\"a\": 1,}",
            "nul",
        ] {
            assert!(validate(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn numbers_keep_their_digits() {
        let max = u64::MAX.to_string();
        assert_eq!(parse(&max).unwrap().as_u64(), Some(u64::MAX));
        let past = parse("18446744073709551616").unwrap();
        assert_eq!(past, Value::Num("18446744073709551616".into()));
        assert_eq!(past.as_u64(), None);
        for not_u64 in ["-1", "1.5", "1e3"] {
            assert_eq!(parse(not_u64).unwrap().as_u64(), None, "{not_u64}");
        }
    }

    #[test]
    fn parse_builds_the_value() {
        let v = parse(" {\"a\": [1, true, null, \"x\"], \"a\": {}, \"b\": false} ").unwrap();
        let Value::Obj(fields) = v else {
            panic!("not an object")
        };
        assert_eq!(fields.len(), 2);
        assert_eq!(fields["a"], Value::Obj(BTreeMap::new()), "last key wins");
        assert_eq!(fields["b"], Value::Bool(false));
        let arr = parse("[1, true, null, \"x\"]").unwrap();
        let items = vec![
            Value::Num("1".into()),
            Value::Bool(true),
            Value::Null,
            Value::Str("x".into()),
        ];
        assert_eq!(arr, Value::Arr(items));
    }

    #[test]
    fn escapes_decode() {
        let raw = "line\nbreak\ttab \"q\" \\ / \u{1} \u{8}\u{c}\r é 😀";
        assert_eq!(parse(&quote(raw)).unwrap().as_str(), Some(raw));
        let escaped = r#""\/\b\f\u00e9\uD83D\uDE00\ud800x\udc00""#;
        let want = "/\u{8}\u{c}é😀\u{fffd}x\u{fffd}";
        assert_eq!(parse(escaped).unwrap().as_str(), Some(want));
        for bad in [
            r#""\x""#,
            r#""\u12""#,
            r#""\u+123""#,
            r#""\uD83D\u12""#,
            "\"\\",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&deep).is_err());
        let hostile = "[".repeat(100_000);
        assert!(parse(&hostile).is_err());
        assert!(validate(&hostile).is_err());
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn nan_is_not_emitted() {
        let doc = Obj::new().num("x", f64::NAN).build();
        validate(&doc).expect("NaN must be mapped to a finite value");
        assert!(doc.contains("0.0"));
    }
}

//! Minimal JSON emission and validation.
//!
//! The bench binaries' `BENCH_*.json` documents (re-exported as
//! `past_bench::json`) are produced through this module. The workspace
//! is hermetic (no serde), so it provides the ~hundred lines actually
//! needed: an object/array writer with correct string escaping, and a
//! recursive-descent validator callers run over their own output before
//! writing it.

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

/// Validates that `s` is one complete, syntactically well-formed JSON
/// value. Returns a position-annotated error otherwise.
pub fn validate(s: &str) -> Result<(), String> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, pos))
    }
}

fn value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => object(b, pos),
        Some(b'[') => array_val(b, pos),
        Some(b'"') => string(b, pos),
        Some(b't') => literal(b, pos, b"true"),
        Some(b'f') => literal(b, pos, b"false"),
        Some(b'n') => literal(b, pos, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, pos),
        _ => Err(format!("expected a JSON value at byte {pos}")),
    }
}

fn object(b: &[u8], pos: &mut usize) -> Result<(), String> {
    expect(b, pos, b'{')?;
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn array_val(b: &[u8], pos: &mut usize) -> Result<(), String> {
    expect(b, pos, b'[')?;
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    expect(b, pos, b'"')?;
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        for i in 1..=4 {
                            if !b.get(*pos + i).is_some_and(u8::is_ascii_hexdigit) {
                                return Err(format!("bad \\u escape at byte {pos}"));
                            }
                        }
                        *pos += 5;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
            }
            c if c < 0x20 => return Err(format!("raw control byte at {pos}")),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".into())
}

fn literal(b: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |b: &[u8], pos: &mut usize| {
        let s = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > s
    };
    if !digits(b, pos) {
        return Err(format!("bad number at byte {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(b, pos) {
            return Err(format!("bad fraction at byte {start}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(b, pos) {
            return Err(format!("bad exponent at byte {start}"));
        }
    }
    Ok(())
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
    fn nan_is_not_emitted() {
        let doc = Obj::new().num("x", f64::NAN).build();
        validate(&doc).expect("NaN must be mapped to a finite value");
        assert!(doc.contains("0.0"));
    }
}

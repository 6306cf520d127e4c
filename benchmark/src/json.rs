//! The JSON subset the benchmark writes, and the parser `--check` reads it
//! back with.
//!
//! Every number is an `f64` rendered by Rust's shortest round-trip
//! `Display`, objects keep their key order, and strings escape only what
//! JSON requires. That makes rendering canonical: a line this module wrote
//! parses and re-renders to the identical bytes, which is the round-trip
//! `--check` enforces on result and trace files.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    #[must_use]
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    #[must_use]
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Looks up `key` in an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string, if this is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Renders compactly (no whitespace).
    ///
    /// # Errors
    ///
    /// Returns a message for a non-finite number, which JSON cannot carry.
    pub fn render(&self) -> Result<String, String> {
        let mut out = String::new();
        self.render_into(&mut out)?;
        Ok(out)
    }

    fn render_into(&self, out: &mut String) -> Result<(), String> {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                if !x.is_finite() {
                    return Err(format!("non-finite number {x}"));
                }
                let _ = write!(out, "{x}");
            }
            Json::Str(s) => render_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out)?;
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_str(k, out);
                    out.push(':');
                    v.render_into(out)?;
                }
                out.push('}');
            }
        }
        Ok(())
    }
}

fn render_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses one JSON document (surrounding whitespace allowed).
///
/// # Errors
///
/// Returns a message naming the byte offset of the first problem.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = JsonReader {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.read_value(0)?;
    p.skip_ws();
    if p.i != p.s.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(v)
}

/// Nesting deeper than this is refused rather than risking the stack.
const MAX_DEPTH: usize = 64;

struct JsonReader<'a> {
    s: &'a [u8],
    i: usize,
}

impl JsonReader<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.s.len() && matches!(self.s[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn fail_at(&self, what: &str) -> String {
        format!("{what} at byte {}", self.i)
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(self.fail_at(&format!("expected `{lit}`")))
        }
    }

    fn read_value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.fail_at("nesting too deep"));
        }
        self.skip_ws();
        match self.s.get(self.i) {
            None => Err(self.fail_at("unexpected end")),
            Some(b'n') => self.literal("null").map(|()| Json::Null),
            Some(b't') => self.literal("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.read_string().map(Json::Str),
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.read_value(depth + 1)?);
                    self.skip_ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.fail_at("expected `,` or `]`")),
                    }
                }
            }
            Some(b'{') => {
                self.i += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    if self.s.get(self.i) != Some(&b'"') {
                        return Err(self.fail_at("expected a key"));
                    }
                    let key = self.read_string()?;
                    self.skip_ws();
                    self.literal(":")?;
                    let v = self.read_value(depth + 1)?;
                    pairs.push((key, v));
                    self.skip_ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(pairs));
                        }
                        _ => return Err(self.fail_at("expected `,` or `}`")),
                    }
                }
            }
            Some(_) => self.read_number(),
        }
    }

    fn read_number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self.i < self.s.len()
            && matches!(
                self.s[self.i],
                b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
            )
        {
            self.i += 1;
        }
        let text =
            std::str::from_utf8(&self.s[start..self.i]).map_err(|_| self.fail_at("bad number"))?;
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() && !text.is_empty() => Ok(Json::Num(x)),
            _ => Err(format!("bad number `{text}` at byte {start}")),
        }
    }

    fn read_string(&mut self) -> Result<String, String> {
        self.i += 1; // opening quote
        let mut out = String::new();
        loop {
            let rest = &self.s[self.i..];
            let Some(pos) = rest.iter().position(|&b| b == b'"' || b == b'\\') else {
                return Err(self.fail_at("unterminated string"));
            };
            let chunk =
                std::str::from_utf8(&rest[..pos]).map_err(|_| self.fail_at("invalid UTF-8"))?;
            if chunk.chars().any(|c| u32::from(c) < 0x20) {
                return Err(self.fail_at("raw control character in string"));
            }
            out.push_str(chunk);
            self.i += pos;
            if self.s[self.i] == b'"' {
                self.i += 1;
                return Ok(out);
            }
            let esc = *self
                .s
                .get(self.i + 1)
                .ok_or_else(|| self.fail_at("dangling escape"))?;
            self.i += 2;
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
                    let hex = self
                        .s
                        .get(self.i..self.i + 4)
                        .and_then(|h| std::str::from_utf8(h).ok())
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .ok_or_else(|| self.fail_at("bad \\u escape"))?;
                    let c =
                        char::from_u32(hex).ok_or_else(|| self.fail_at("unpaired surrogate"))?;
                    out.push(c);
                    self.i += 4;
                }
                _ => return Err(self.fail_at("unknown escape")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_is_canonical_and_round_trips() {
        let v = Json::obj([
            ("name", Json::str("a \"quoted\"\tname\u{1}")),
            ("x", Json::Num(0.1)),
            ("n", Json::Num(12_345_678_901.0)),
            ("neg", Json::Num(-2.5e-7)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            (
                "list",
                Json::Arr(vec![Json::Num(1.0), Json::obj::<&str>([])]),
            ),
        ]);
        let text = v.render().unwrap();
        assert_eq!(parse(&text).unwrap(), v);
        assert_eq!(parse(&text).unwrap().render().unwrap(), text);
    }

    #[test]
    fn malformed_documents_are_refused() {
        for bad in [
            "",
            "{",
            "{\"a\" 1}",
            "[1,]",
            "nul",
            "\"open",
            "1 2",
            "{\"a\":1,}",
            "\"\\q\"",
            "\"\u{1}\"",
            "1e999",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn non_finite_numbers_do_not_render() {
        assert!(Json::Num(f64::NAN).render().is_err());
    }
}

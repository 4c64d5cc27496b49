//! Minimal JSON reader/writer for the service wire format.
//!
//! The workspace builds with no registry access, so — like
//! `MetricsReport::to_json` — the job-spec and job-result envelopes are
//! (de)serialized by hand. This module is the shared machinery: a small
//! recursive-descent parser into a [`Json`] value tree, plus escape/format
//! helpers for the writers. It supports exactly the JSON the service
//! emits: objects, arrays, strings, finite numbers, booleans and `null`.

use std::collections::BTreeMap;

/// Append `s` to `out` with JSON string escaping: detsim's escaper, so
/// service results escape exactly as metrics reports do.
pub use detsim::metrics::json_escape as escape_into;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`; the wire format never needs
    /// integers beyond 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keyed by a sorted map: the service's writers emit keys
    /// in a fixed order, and lookups by name are what readers need.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member of an object, if this is an object containing `key`.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so unbounded nesting would overflow the stack — and
/// abort the process every tenant's jobs share — instead of rejecting one
/// spec. Documents the service writes nest only a few levels.
pub const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document in one pass. Returns `Err` with a short
/// position-annotated message on malformed input, a duplicate object key,
/// nesting deeper than [`MAX_DEPTH`], or trailing garbage.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Parse a container one level deeper, refusing past [`MAX_DEPTH`].
    fn nested(&mut self, container: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = &self.text[start..self.pos];
        let n: f64 = text
            .parse()
            .map_err(|_| format!("bad number '{text}' at byte {start}"))?;
        if !n.is_finite() {
            return Err(format!("non-finite number at byte {start}"));
        }
        Ok(Json::Num(n))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            // Surrogate pairs never appear in this wire
                            // format (writers escape only control chars).
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash in one
                    // slice. Both are ASCII, so the run ends on a char
                    // boundary and multi-byte scalars pass through whole.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - self.pos);
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let at = self.pos;
            let key = self.string()?;
            if map.contains_key(&key) {
                return Err(format!("duplicate key {key:?} at byte {at}"));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

/// `s` as a quoted, escaped JSON string.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(s, &mut out);
    out.push('"');
    out
}

/// Shortest round-trip formatting for a finite `f64` (`null` otherwise,
/// which the wire format never produces for in-range values).
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let v = parse(r#"{"a": [1, -2.5e1, "x\ny", true, null], "b": {}}"#).unwrap();
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_f64(), Some(-25.0));
        assert_eq!(a[2].as_str(), Some("x\ny"));
        assert_eq!(a[3].as_bool(), Some(true));
        assert_eq!(a[4], Json::Null);
        assert_eq!(v.get("b"), Some(&Json::Obj(BTreeMap::new())));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} garbage").is_err());
        assert!(parse("1e999").is_err(), "inf rejected");
        assert!(parse(r#"{"a" 1}"#).is_err());
        assert!(
            parse(&"[".repeat(200_000)).is_err(),
            "rejected, not a stack overflow"
        );
        assert_eq!(
            parse(r#"{"radius":2,"radius":5000}"#),
            Err("duplicate key \"radius\" at byte 12".to_string()),
            "a duplicate must not silently override"
        );
    }

    #[test]
    fn long_strings_parse_in_one_pass() {
        // 1 MiB of mixed ASCII, two-byte scalars and escapes must parse in
        // linear time: the caller's thread waits on it.
        let body = "tenant é \"q\" \\ \n".repeat(1 << 16);
        assert!(body.len() >= 1 << 20);
        let text = quote(&body);
        let t0 = std::time::Instant::now();
        let parsed = parse(&text).unwrap();
        let took = t0.elapsed();
        assert_eq!(parsed.as_str(), Some(body.as_str()));
        assert!(took.as_secs_f64() < 1.0, "1 MiB string took {took:?}");
    }

    #[test]
    fn escape_round_trips() {
        let original = "line1\nline2 \"quoted\" back\\slash \u{1} é";
        let parsed = parse(&quote(original)).unwrap();
        assert_eq!(parsed.as_str(), Some(original));
    }

    #[test]
    fn u64_conversion_guards() {
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
    }
}

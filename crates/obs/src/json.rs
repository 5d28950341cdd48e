//! Minimal hand-rolled JSON helpers shared by every exporter in the
//! workspace (journal JSONL, metrics snapshot, span exporters, lint report)
//! so string escaping exists exactly once.
//!
//! This is intentionally *not* a general JSON library: the two primitives a
//! writer needs — quoting a string and formatting a float — the one member
//! writer ([`Members`]) that the journal and the farm's documents use, plus
//! one small, depth-bounded recursive-descent [`parse`] that every in-tree
//! reader shares: checkpoint resume, the `watch` dashboard over `/status`,
//! and lint's report decoder and incremental cache.

use std::fmt::Write as _;

/// Quotes a string as a JSON string literal, escaping `"`, `\`, and control
/// characters.
///
/// # Examples
///
/// ```
/// assert_eq!(sgcr_obs::json::quote("a\"b"), r#""a\"b""#);
/// assert_eq!(sgcr_obs::json::quote("line\nbreak"), r#""line\nbreak""#);
/// ```
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_quoted(&mut out, s);
    out
}

/// Appends `s` to `out` as [`quote`] renders it, without a temporary.
pub(crate) fn push_quoted(out: &mut String, s: &str) {
    out.push('"');
    // Every byte that needs an escape is ASCII, so each run between two of
    // them is whole UTF-8 and is copied in one step.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Formats an `f64` as a JSON value.
///
/// Integral floats keep a trailing `.0` so consumers that distinguish int
/// from float see the intended type; non-finite values become strings, since
/// bare `NaN`/`Infinity` are not legal JSON.
///
/// # Examples
///
/// ```
/// assert_eq!(sgcr_obs::json::number(2.0), "2.0");
/// assert_eq!(sgcr_obs::json::number(0.25), "0.25");
/// assert_eq!(sgcr_obs::json::number(f64::NAN), "\"NaN\"");
/// ```
pub fn number(v: f64) -> String {
    let mut out = String::new();
    push_number(&mut out, v);
    out
}

/// Appends `v` to `out` as [`number`] renders it, without a temporary.
pub(crate) fn push_number(out: &mut String, v: f64) {
    let start = out.len();
    if v.is_finite() {
        let _ = write!(out, "{v}");
        if !out[start..].contains(['.', 'e']) {
            out.push_str(".0");
        }
    } else {
        let _ = write!(out, "\"{v}\"");
    }
}

/// Writes one JSON object onto `out`: `{`, the members `write` adds, `}`.
///
/// # Examples
///
/// ```
/// use sgcr_obs::json::{self, Members};
///
/// let mut out = String::new();
/// json::object(&mut out, |m| {
///     m.int("steps", 3).or_null("error", None::<&str>, Members::text);
///     m.objects("tenants", [1, 2], |m, tenant| {
///         m.int("tenant", tenant);
///     });
/// });
/// assert_eq!(out, r#"{"steps":3,"error":null,"tenants":[{"tenant":1},{"tenant":2}]}"#);
/// ```
pub fn object(out: &mut String, write: impl FnOnce(&mut Members<'_>)) {
    out.push('{');
    write(&mut Members(out));
    out.push('}');
}

/// The members of the JSON object being written onto a string, each
/// `"key":value`, with a comma before every member but the first.
pub struct Members<'a>(pub(crate) &'a mut String);

impl Members<'_> {
    /// Starts member `key` and returns the string its value goes onto.
    fn key(&mut self, key: &str) -> &mut String {
        if !self.0.ends_with('{') {
            self.0.push(',');
        }
        self.0.push('"');
        self.0.push_str(key);
        self.0.push_str("\":");
        self.0
    }

    /// A string member, quoted as [`quote`] does.
    pub fn text(&mut self, key: &str, value: &str) -> &mut Self {
        push_quoted(self.key(key), value);
        self
    }

    /// An integer member.
    pub fn int(&mut self, key: &str, value: u64) -> &mut Self {
        let _ = write!(self.key(key), "{value}");
        self
    }

    /// A float member, formatted as [`number`] does.
    pub fn float(&mut self, key: &str, value: f64) -> &mut Self {
        push_number(self.key(key), value);
        self
    }

    /// A `true`/`false` member.
    pub fn flag(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key).push_str(if value { "true" } else { "false" });
        self
    }

    /// Member `key` as `write` writes `value`, or `null` without a value.
    pub fn or_null<T>(
        &mut self,
        key: &str,
        value: Option<T>,
        write: impl for<'m> FnOnce(&'m mut Self, &str, T) -> &'m mut Self,
    ) -> &mut Self {
        match value {
            Some(value) => write(self, key, value),
            None => {
                self.key(key).push_str("null");
                self
            }
        }
    }

    /// An object member, of the members `write` adds.
    pub fn object(&mut self, key: &str, write: impl FnOnce(&mut Members<'_>)) -> &mut Self {
        object(self.key(key), write);
        self
    }

    /// An array member of one object per item, of the members `write` adds
    /// for it.
    pub fn objects<T>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
        mut write: impl FnMut(&mut Members<'_>, T),
    ) -> &mut Self {
        let out = self.key(key);
        out.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            object(out, |m| write(m, item));
        }
        out.push(']');
        self
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Number(f64),
    /// A string (escapes resolved).
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in source key order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object (`None` for other kinds / missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array (`None` for other kinds).
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The numeric value (`None` for other kinds).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value truncated to `u64` (`None` for negatives / other kinds).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The string value (`None` for other kinds).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value (`None` for other kinds).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parses one JSON document, in time linear in its length. Trailing
/// non-whitespace is an error, as are documents nested deeper than 128
/// levels. A `\u` surrogate pair decodes to one char; a lone or reversed
/// surrogate decodes to U+FFFD.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(value)
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, expected: u8) -> Result<(), String> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}",
                expected as char, self.pos
            ))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        if self.depth >= MAX_DEPTH {
            return Err("document nested too deeply".to_string());
        }
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("bad number at byte {start}"))?;
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next `"` or `\` in one step. Both are
            // ASCII, so the run starts and ends on char boundaries of the
            // `&str` input and is valid UTF-8 as it stands.
            let end = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .map_or(self.bytes.len(), |run| self.pos + run);
            let run = self
                .text
                .get(self.pos..end)
                .ok_or_else(|| "invalid UTF-8 in string".to_string())?;
            out.push_str(run);
            self.pos = end;
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    // The run stopped at a `\`.
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let unit = self.hex4(self.pos + 1)?;
                            self.pos += 4;
                            // A high surrogate directly followed by a `\u` low
                            // surrogate is one astral scalar, as UTF-16-minded
                            // writers (e.g. Python's `json.dumps`) emit it. A
                            // lone or reversed surrogate decodes to U+FFFD.
                            let low = match self.bytes.get(self.pos + 1..self.pos + 3) {
                                Some(b"\\u") if (0xd800..0xdc00).contains(&unit) => self
                                    .hex4(self.pos + 3)
                                    .ok()
                                    .filter(|low| (0xdc00..0xe000).contains(low)),
                                _ => None,
                            };
                            let code = match low {
                                Some(low) => {
                                    self.pos += 6;
                                    0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00)
                                }
                                None => unit,
                            };
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    /// The UTF-16 code unit spelled by the four hex digits at `at`, just
    /// past a `\u`.
    fn hex4(&self, at: usize) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(at..at + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or_else(|| "truncated \\u escape".to_string())?;
        u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape {hex:?}"))
    }

    fn array(&mut self) -> Result<Value, String> {
        self.eat(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.eat(b'{')?;
        self.depth += 1;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn quote_escapes_specials() {
        assert_eq!(quote("plain"), "\"plain\"");
        assert_eq!(quote("q\"b\\s"), "\"q\\\"b\\\\s\"");
        assert_eq!(quote("n\nr\rt\t"), "\"n\\nr\\rt\\t\"");
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
        assert_eq!(quote("ünïcödé"), "\"ünïcödé\"");
    }

    #[test]
    fn number_keeps_float_shape() {
        assert_eq!(number(3.0), "3.0");
        assert_eq!(number(-1.5), "-1.5");
        // Rust's `Display` for f64 never uses exponent notation, so huge
        // integral values still get the float-marking suffix.
        assert!(number(1e300).ends_with(".0"));
        assert_eq!(number(f64::INFINITY), "\"inf\"");
        assert_eq!(number(f64::NEG_INFINITY), "\"-inf\"");
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let doc = format!(
            "{{\"name\": {}, \"n\": {}, \"ok\": true, \"none\": null, \"xs\": [1, 2.5, -3]}}",
            quote("a\"b\nc"),
            number(0.25)
        );
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("name").and_then(Value::as_str), Some("a\"b\nc"));
        assert_eq!(v.get("n").and_then(Value::as_f64), Some(0.25));
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("none"), Some(&Value::Null));
        let xs = v.get("xs").and_then(Value::as_array).unwrap();
        assert_eq!(xs.len(), 3);
        assert_eq!(xs[2].as_f64(), Some(-3.0));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2] trailing").is_err());
        assert!(parse("\"unterminated").is_err());
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err(), "depth bound enforced");
    }

    #[test]
    fn parse_handles_escapes_and_unicode() {
        let v = parse(r#""aA\t\\ünïcödé""#).unwrap();
        assert_eq!(v.as_str(), Some("aA\t\\ünïcödé"));
        let u = parse("\"\\u0041\\u00fc\"").unwrap();
        assert_eq!(u.as_str(), Some("Aü"));
    }
}

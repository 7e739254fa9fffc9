//! Hand-rolled JSON: the workspace's one codec.
//!
//! The build is offline, so there is no serde. [`parse`] reads any JSON
//! document into a [`JsonValue`] tree; [`JsonValue::to_pretty_string`] and
//! [`escape_json`] serve the writers. Three formats sit on top:
//!
//! - trace lines are *flat* JSON objects read by [`parse_jsonl_line`] (the
//!   writer side lives in [`crate::Event::to_jsonl`] and
//!   [`crate::Metrics::render_json`]);
//! - the saved model of `isasgd train --save` (`isasgd-model`);
//! - the Fig. 4 trace cache (`isasgd-metrics`).
//!
//! The parser is total: malformed input, including nesting deeper than
//! [`MAX_DEPTH`], yields `Err` with a position-carrying message, never a
//! panic or a stack overflow.

use std::fmt::Write as _;

/// Deepest array/object nesting [`parse`] accepts. The workspace's formats
/// nest at most three levels; the cap keeps the recursive parser's stack
/// bounded on hostile input.
pub const MAX_DEPTH: usize = 128;

/// Escape a string for embedding inside JSON double quotes.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null` (also produced for non-finite floats on the writer side).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number literal with no fraction or exponent, held exactly: every
    /// `u64` and `i64` fits.
    Int(i128),
    /// Any other JSON number.
    Num(f64),
    /// A JSON string with escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object as its `(key, value)` pairs in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The value as a non-negative integer, if it is an integer literal
    /// in `u64` range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as a float, if numeric (integers round to nearest).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(i) => Some(*i as f64),
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if the value is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The first field named `key`, if the value is an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Two-space-indented JSON: one element or field per line, empty
    /// arrays and objects as `[]` / `{}`, no trailing newline.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, level: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(i) => {
                let _ = write!(out, "{i}");
            }
            JsonValue::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            JsonValue::Num(_) => out.push_str("null"),
            JsonValue::Str(s) => {
                out.push('"');
                out.push_str(&escape_json(s));
                out.push('"');
            }
            JsonValue::Arr(items) => write_seq(out, level, ('[', ']'), items, |out, v| {
                v.write_pretty(out, level + 1);
            }),
            JsonValue::Obj(fields) => write_seq(out, level, ('{', '}'), fields, |out, (k, v)| {
                out.push('"');
                out.push_str(&escape_json(k));
                out.push_str("\": ");
                v.write_pretty(out, level + 1);
            }),
        }
    }
}

fn write_seq<T>(
    out: &mut String,
    level: usize,
    (open, close): (char, char),
    items: &[T],
    mut item: impl FnMut(&mut String, &T),
) {
    out.push(open);
    for (k, x) in items.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&"  ".repeat(level + 1));
        item(out, x);
    }
    if !items.is_empty() {
        out.push('\n');
        out.push_str(&"  ".repeat(level));
    }
    out.push(close);
}

/// Parse one complete JSON document.
///
/// Total: malformed input, trailing bytes, or nesting deeper than
/// [`MAX_DEPTH`] yield `Err` with a position-carrying message.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.fail("trailing bytes after value"));
    }
    Ok(value)
}

/// Parse one flat JSONL object into `(key, value)` pairs in source order.
///
/// Total: malformed input yields `Err` with a position-carrying message,
/// never a panic. Nested objects/arrays are rejected (trace lines are flat
/// by construction).
pub fn parse_jsonl_line(line: &str) -> Result<Vec<(String, JsonValue)>, String> {
    let JsonValue::Obj(fields) = parse(line)? else {
        return Err("json parse error: a trace line must be an object".into());
    };
    if let Some((k, _)) = fields
        .iter()
        .find(|(_, v)| matches!(v, JsonValue::Arr(_) | JsonValue::Obj(_)))
    {
        return Err(format!(
            "json parse error: field '{k}' nests a value; nested values are not part of \
             the trace schema"
        ));
    }
    Ok(fields)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn fail(&self, what: &str) -> String {
        format!("json parse error at byte {}: {what}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn eat(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(self.fail(&format!("expected {:?}, got {other:?}", want as char))),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// One value at nesting `depth` (0 for the document itself), with
    /// leading whitespace.
    fn value(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'[' | b'{') if depth >= MAX_DEPTH => {
                Err(self.fail(&format!("nesting deeper than {MAX_DEPTH}")))
            }
            Some(b'[') => self.seq(b']', |p| p.value(depth + 1)).map(JsonValue::Arr),
            Some(b'{') => self
                .seq(b'}', |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.skip_ws();
                    p.eat(b':')?;
                    Ok((key, p.value(depth + 1)?))
                })
                .map(JsonValue::Obj),
            other => Err(self.fail(&format!("expected a value, got {other:?}"))),
        }
    }

    /// The comma-separated items of an array or object: the opening
    /// bracket is next, `close` ends it.
    fn seq<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.skip_ws();
            match self.next() {
                Some(b',') => {}
                Some(b) if b == close => return Ok(items),
                other => {
                    return Err(self.fail(&format!(
                        "expected ',' or {:?}, got {other:?}",
                        close as char
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain bytes in one go. It starts and stops at
            // ASCII bytes (or the end), so it is a valid `&str` slice.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            let run = self
                .text
                .get(start..self.pos)
                .ok_or_else(|| self.fail("bad utf-8"))?;
            out.push_str(run);
            match self.next() {
                None => return Err(self.fail("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = self
                            .text
                            .get(self.pos..self.pos + 4)
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| self.fail("bad \\u escape"))?;
                        self.pos += 4;
                        out.push(char::from_u32(hex).ok_or_else(|| self.fail("bad codepoint"))?);
                    }
                    other => return Err(self.fail(&format!("bad escape {other:?}"))),
                },
                Some(_) => return Err(self.fail("raw control byte in string")),
            }
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes.get(self.pos..self.pos + word.len()) == Some(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.fail(&format!("expected `{word}`")))
        }
    }

    /// An integer literal parses exactly into [`JsonValue::Int`]; one with
    /// a fraction or exponent, or beyond `i128`, parses as the nearest
    /// `f64`.
    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = self
            .text
            .get(start..self.pos)
            .ok_or_else(|| self.fail("bad number bytes"))?;
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(i) = text.parse::<i128>() {
                return Ok(JsonValue::Int(i));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.fail("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_event_lines() {
        let line = "{\"ts_us\":42,\"event\":\"handshake\",\"node\":0,\"respawn\":false,\
                    \"dur_us\":1234}";
        let fields = parse_jsonl_line(line).unwrap();
        assert_eq!(fields[0], ("ts_us".into(), JsonValue::Int(42)));
        assert_eq!(fields[1].1.as_str(), Some("handshake"));
        assert_eq!(fields[3].1, JsonValue::Bool(false));
        assert_eq!(fields[4].1.as_u64(), Some(1234));
    }

    #[test]
    fn resolves_escapes_and_unicode() {
        let fields = parse_jsonl_line("{\"k\":\"a\\\"b\\\\c\\u0041 é\"}").unwrap();
        assert_eq!(fields[0].1.as_str(), Some("a\"b\\cA é"));
    }

    #[test]
    fn rejects_malformed_input_without_panicking() {
        for bad in [
            "",
            "{",
            "{}x",
            "{\"k\":}",
            "{\"k\":1,}",
            "{\"k\":[1]}",
            "{\"k\":{}}",
            "{\"k\":01a}",
            "{\"k\":\"\\q\"}",
            "not json at all",
        ] {
            assert!(parse_jsonl_line(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parses_empty_object_null_and_floats() {
        assert!(parse_jsonl_line("{}").unwrap().is_empty());
        let fields = parse_jsonl_line("{\"a\":null,\"b\":-1.5e3}").unwrap();
        assert_eq!(fields[0].1, JsonValue::Null);
        assert_eq!(fields[1].1.as_f64(), Some(-1500.0));
        assert_eq!(fields[1].1.as_u64(), None);
    }

    #[test]
    fn escape_json_covers_controls() {
        assert_eq!(escape_json("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn integers_parse_exactly_beyond_f64() {
        let v = parse("[18446744073709551615, -9223372036854775808, 9007199254740993]").unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items[0].as_u64(), Some(u64::MAX));
        assert_eq!(items[1], JsonValue::Int(i128::from(i64::MIN)));
        assert_eq!(items[2].as_u64(), Some((1 << 53) + 1));
        assert_eq!(items[1].as_u64(), None);
    }

    #[test]
    fn pretty_output_reparses_to_the_same_tree() {
        let v = JsonValue::Obj(vec![
            ("name".into(), JsonValue::Str("a\"\u{1}é".into())),
            ("empty".into(), JsonValue::Arr(vec![])),
            (
                "xs".into(),
                JsonValue::Arr(vec![JsonValue::Num(-0.1), JsonValue::Int(7)]),
            ),
            ("nested".into(), JsonValue::Obj(vec![])),
        ]);
        let text = v.to_pretty_string();
        assert_eq!(
            text,
            "{\n  \"name\": \"a\\\"\\u0001é\",\n  \"empty\": [],\n  \"xs\": [\n    -0.1,\n    \
             7\n  ],\n  \"nested\": {}\n}"
        );
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(1_000_000);
        assert!(parse(&deep).unwrap_err().contains("nesting deeper"));
        assert!(parse_jsonl_line(&deep).is_err());
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&over).is_err());
    }
}

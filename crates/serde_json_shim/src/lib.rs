//! JSON rendering and parsing for the in-repo serde facade.
//!
//! Provides the `serde_json` subset this workspace uses: [`to_string`],
//! [`to_string_pretty`], [`from_str`], the [`json!`] object macro, and a
//! re-exported [`Value`]. Output is real JSON; integers keep full 128-bit
//! precision in both directions.

#![forbid(unsafe_code)]

use std::fmt::Write as _;

pub use serde::{Error, Value};

/// Renders `value` as compact JSON.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    render(&value.to_value(), None, 0, &mut out);
    Ok(out)
}

/// Renders `value` as 2-space-indented JSON.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    render(&value.to_value(), Some(2), 0, &mut out);
    Ok(out)
}

/// Parses JSON text into any [`serde::Deserialize`] type.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse_value(s)?;
    T::from_value(&value)
}

/// Builds a [`Value::Object`] from literal keys and `Serialize` values.
#[macro_export]
macro_rules! json {
    ({ $($key:literal : $val:expr),* $(,)? }) => {
        $crate::Value::Object(::std::vec![
            $((::std::string::String::from($key), $crate::__private::Serialize::to_value(&$val))),*
        ])
    };
}

#[doc(hidden)]
pub mod __private {
    pub use serde::Serialize;
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

fn render(value: &Value, indent: Option<usize>, level: usize, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::UInt(n) => {
            let _ = write!(out, "{n}");
        }
        Value::Int(n) => {
            let _ = write!(out, "{n}");
        }
        Value::Float(f) => {
            if f.is_finite() {
                // Keep a decimal point so the value re-parses as a float.
                if f.fract() == 0.0 && f.abs() < 1e15 {
                    let _ = write!(out, "{f:.1}");
                } else {
                    let _ = write!(out, "{f}");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::String(s) => render_string(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, level + 1, out);
                render(item, indent, level + 1, out);
            }
            newline_indent(indent, level, out);
            out.push(']');
        }
        Value::Object(pairs) => {
            if pairs.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, val)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, level + 1, out);
                render_string(key, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                render(val, indent, level + 1, out);
            }
            newline_indent(indent, level, out);
            out.push('}');
        }
    }
}

fn newline_indent(indent: Option<usize>, level: usize, out: &mut String) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..level * width {
            out.push(' ');
        }
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// The deepest nesting of arrays and objects the parser accepts, as in
/// `serde_json`. Parsing recurses once per level, so the limit keeps a
/// hostile document from overflowing the stack.
const RECURSION_LIMIT: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

/// Parses a complete JSON document into a [`Value`].
///
/// # Errors
///
/// Fails on malformed JSON, trailing characters, and arrays or objects
/// nested more than 128 levels deep.
pub fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::custom(format!(
            "trailing characters at byte {}",
            p.pos
        )));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, Error> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error::custom("unexpected end of JSON input"))
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek()? {
            b'{' | b'[' => {
                if self.depth == RECURSION_LIMIT {
                    return Err(Error::custom(format!(
                        "recursion limit exceeded: arrays and objects nest deeper than \
                         {RECURSION_LIMIT} levels at byte {}",
                        self.pos
                    )));
                }
                self.depth += 1;
                let nested = if self.bytes[self.pos] == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                nested
            }
            b'"' => Ok(Value::String(self.string()?)),
            b't' | b'f' | b'n' => {
                if self.eat_keyword("true") {
                    Ok(Value::Bool(true))
                } else if self.eat_keyword("false") {
                    Ok(Value::Bool(false))
                } else if self.eat_keyword("null") {
                    Ok(Value::Null)
                } else {
                    Err(Error::custom(format!(
                        "invalid literal at byte {}",
                        self.pos
                    )))
                }
            }
            _ => self.number(),
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            pairs.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => {
                    return Err(Error::custom(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(Error::custom(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(Error::custom("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(Error::custom("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error::custom("truncated \\u escape"))?;
                            self.pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::custom("invalid \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::custom("invalid \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::custom("invalid \\u code point"))?,
                            );
                        }
                        other => {
                            return Err(Error::custom(format!(
                                "invalid escape `\\{}`",
                                other as char
                            )))
                        }
                    }
                }
                _ => {
                    // Re-decode UTF-8 from this byte onward for multi-byte
                    // characters.
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    let chunk = self
                        .bytes
                        .get(start..start + width)
                        .ok_or_else(|| Error::custom("truncated UTF-8 sequence"))?;
                    let s = std::str::from_utf8(chunk)
                        .map_err(|_| Error::custom("invalid UTF-8 in string"))?;
                    out.push_str(s);
                    self.pos = start + width;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        let start = self.pos;
        if matches!(self.bytes.get(self.pos), Some(b'-')) {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::custom("invalid number"))?;
        if text.is_empty() || text == "-" {
            return Err(Error::custom(format!("invalid number at byte {start}")));
        }
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::custom(format!("invalid float `{text}`")))
        } else if let Some(stripped) = text.strip_prefix('-') {
            (stripped.parse::<u128>().ok())
                .and_then(|n| 0i128.checked_sub_unsigned(n))
                .map(Value::Int)
                .ok_or_else(|| Error::custom(format!("invalid integer `{text}`")))
        } else {
            text.parse::<u128>()
                .map(Value::UInt)
                .map_err(|_| Error::custom(format!("invalid integer `{text}`")))
        }
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        for src in [
            "null",
            "true",
            "false",
            "0",
            "-7",
            "12345678901234567890",
            "\"hi\\n\"",
        ] {
            let v = parse_value(src).expect(src);
            let rendered = to_string(&v).unwrap();
            assert_eq!(parse_value(&rendered).unwrap(), v, "{src}");
        }
    }

    #[test]
    fn round_trip_nested() {
        let src = r#"{"a": [1, 2, {"b": null}], "c": "x\"y", "d": -3}"#;
        let v = parse_value(src).unwrap();
        let compact = to_string(&v).unwrap();
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(parse_value(&compact).unwrap(), v);
        assert_eq!(parse_value(&pretty).unwrap(), v);
    }

    #[test]
    fn u64_max_survives() {
        let v = parse_value(&u64::MAX.to_string()).unwrap();
        assert_eq!(v, Value::UInt(u64::MAX as u128));
        let back: u64 = from_str(&to_string(&u64::MAX).unwrap()).unwrap();
        assert_eq!(back, u64::MAX);
    }

    #[test]
    fn nesting_stops_at_the_recursion_limit() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse_value(&nest(RECURSION_LIMIT)).is_ok());
        let err = parse_value(&nest(RECURSION_LIMIT + 1)).unwrap_err();
        assert!(err.to_string().contains("recursion limit"), "{err}");
        let objects = format!("{}1{}", r#"{"a":"#.repeat(200), "}".repeat(200));
        assert!(parse_value(&objects).is_err());
        // Deep enough to overflow the stack without the limit.
        assert!(parse_value(&nest(100_000)).is_err());
    }

    #[test]
    fn integers_past_i128_are_errors() {
        let min = i128::MIN.to_string();
        assert_eq!(parse_value(&min).unwrap(), Value::Int(i128::MIN));
        assert!(parse_value("-170141183460469231731687303715884105729").is_err());
        assert!(parse_value("-340282366920938463463374607431768211455").is_err());
    }

    #[test]
    fn json_macro_builds_objects() {
        let v = json!({ "a": 1u64, "b": "text" });
        let s = to_string(&v).unwrap();
        assert_eq!(s, r#"{"a":1,"b":"text"}"#);
    }
}

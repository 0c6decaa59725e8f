//! Minimal JSON reading/writing for the result store.
//!
//! The workspace builds offline and has no serialization dependency, so
//! the campaign layer carries its own tiny JSON implementation — the only
//! serializer in the tree. The writer is
//! *canonical*: object keys keep insertion order, numbers use Rust's
//! shortest round-trip formatting, and there is no whitespace — so the
//! bytes produced for a given value are identical across runs, platforms
//! and executor worker counts. That canonical form is what the campaign
//! determinism guarantee is stated over.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (held as `f64`; u64 counters round-trip exactly up
    /// to 2^53, far above any count the evaluation produces).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Insertion order is preserved by keeping a parallel key
    /// list, making writer output canonical.
    Obj(Object),
}

/// A JSON object preserving insertion order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Object {
    keys: Vec<String>,
    map: BTreeMap<String, Value>,
}

impl Object {
    /// Creates an empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or replaces) a field, preserving first-insertion order.
    pub fn set(&mut self, key: &str, value: Value) {
        if !self.map.contains_key(key) {
            self.keys.push(key.to_string());
        }
        self.map.insert(key.to_string(), value);
    }

    /// Looks a field up.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.map.get(key)
    }

    /// The field names in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.keys.iter().map(String::as_str)
    }

    /// Fetches a number field as `f64`.
    pub fn num(&self, key: &str) -> Option<f64> {
        match self.get(key) {
            Some(Value::Num(n)) => Some(*n),
            _ => None,
        }
    }

    /// Fetches a number field as `u64` (rejecting negatives/fractions).
    pub fn u64(&self, key: &str) -> Option<u64> {
        let n = self.num(key)?;
        if n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53) {
            Some(n as u64)
        } else {
            None
        }
    }

    /// Fetches a string field.
    pub fn str(&self, key: &str) -> Option<&str> {
        match self.get(key) {
            Some(Value::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// Fetches a nested object field.
    pub fn obj(&self, key: &str) -> Option<&Object> {
        match self.get(key) {
            Some(Value::Obj(o)) => Some(o),
            _ => None,
        }
    }
}

impl Value {
    /// Convenience constructor for object values.
    pub fn object() -> Object {
        Object::new()
    }

    /// Serializes to canonical JSON (no whitespace, insertion-ordered
    /// keys, shortest round-trip numbers).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => write_number(*n, out),
            Value::Str(s) => write_string(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Obj(obj) => {
                out.push('{');
                for (i, key) in obj.keys().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    obj.get(key).expect("key list in sync").write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    pub fn parse(input: &str) -> Result<Value, ParseError> {
        let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing data"));
        }
        Ok(v)
    }
}

fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; the store never produces them, but a guard
        // beats emitting unparseable output.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_string(s: &str, out: &mut String) {
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

/// Error from [`Value::parse`], with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError { message: message.to_string(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut obj = Object::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(obj));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            obj.set(&key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(obj));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 5 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not produced by our writer;
                            // map lone surrogates to the replacement char.
                            s.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().expect("non-empty");
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>().map(Value::Num).map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        for (text, v) in [
            ("null", Value::Null),
            ("true", Value::Bool(true)),
            ("false", Value::Bool(false)),
            ("42", Value::Num(42.0)),
            ("-7", Value::Num(-7.0)),
            ("1.5", Value::Num(1.5)),
            ("\"hi\"", Value::Str("hi".to_string())),
        ] {
            assert_eq!(Value::parse(text).unwrap(), v, "{text}");
            assert_eq!(Value::parse(&v.to_json()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn round_trips_structures() {
        let mut inner = Object::new();
        inner.set("b", Value::Num(2.0));
        let mut obj = Object::new();
        obj.set("a", Value::Num(1.0));
        obj.set("nested", Value::Obj(inner));
        obj.set("list", Value::Arr(vec![Value::Num(1.0), Value::Str("x".into()), Value::Null]));
        let v = Value::Obj(obj);
        let text = v.to_json();
        assert_eq!(text, "{\"a\":1,\"nested\":{\"b\":2},\"list\":[1,\"x\",null]}");
        assert_eq!(Value::parse(&text).unwrap(), v);
    }

    #[test]
    fn object_preserves_insertion_order() {
        let mut obj = Object::new();
        obj.set("z", Value::Num(1.0));
        obj.set("a", Value::Num(2.0));
        obj.set("z", Value::Num(3.0)); // replace keeps position
        assert_eq!(Value::Obj(obj).to_json(), "{\"z\":3,\"a\":2}");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let v = Value::Str("a\"b\\c\nd\te\u{1}".to_string());
        let text = v.to_json();
        assert_eq!(text, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
        assert_eq!(Value::parse(&text).unwrap(), v);
    }

    #[test]
    fn numbers_round_trip_exactly() {
        for n in [0.0, 1.0, -1.0, 0.05, 1e15, 123456789.123, f64::MIN_POSITIVE, 2f64.powi(53)] {
            let text = Value::Num(n).to_json();
            match Value::parse(&text).unwrap() {
                Value::Num(back) => assert_eq!(back.to_bits(), n.to_bits(), "{n} via {text}"),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn large_u64_counters_fit() {
        let mut o = Object::new();
        o.set("cycles", Value::Num(8_536_967.0));
        let v = Value::Obj(o);
        let parsed = Value::parse(&v.to_json()).unwrap();
        match parsed {
            Value::Obj(o) => assert_eq!(o.u64("cycles"), Some(8_536_967)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn non_finite_writes_null() {
        assert_eq!(Value::Num(f64::NAN).to_json(), "null");
        assert_eq!(Value::Num(f64::INFINITY).to_json(), "null");
    }

    #[test]
    fn parse_errors_carry_offsets() {
        let e = Value::parse("{\"a\": }").unwrap_err();
        assert!(e.offset > 0);
        assert!(Value::parse("[1,2").is_err());
        assert!(Value::parse("12 34").is_err());
    }

    #[test]
    fn accessors() {
        let v = Value::parse("{\"s\":\"x\",\"n\":3,\"o\":{\"k\":1},\"neg\":-1.5}").unwrap();
        let Value::Obj(o) = v else { unreachable!() };
        assert_eq!(o.str("s"), Some("x"));
        assert_eq!(o.u64("n"), Some(3));
        assert_eq!(o.num("neg"), Some(-1.5));
        assert_eq!(o.u64("neg"), None);
        assert!(o.obj("o").is_some());
        assert!(o.get("missing").is_none());
    }
}

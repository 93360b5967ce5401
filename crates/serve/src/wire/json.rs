//! A zero-dependency JSON value model with a serializer and a parser.
//!
//! Nothing else in the workspace can emit JSON (there is no serde), so the
//! wire format is hand-rolled here.
//! Design points:
//!
//! * **Deterministic bytes.** Objects preserve insertion order (they are
//!   association vectors, not hash maps), the serializer emits no optional
//!   whitespace, and numbers use Rust's shortest-round-trip `Display` for
//!   `f64`. The same [`Json`] value therefore always serializes to the same
//!   byte string — the property the serving layer's byte-equality guarantee
//!   (server output ≡ in-process output) rests on.
//! * **Total functions.** Serialization returns `Err` on non-finite numbers
//!   (`NaN`/`±inf` have no JSON representation and must never be emitted
//!   silently); parsing returns `Err` on malformed input and enforces a
//!   recursion-depth cap so a hostile `[[[[…` body cannot overflow a worker
//!   thread's stack. Neither path panics on any input.
//! * **Round-trip fidelity.** `parse(serialize(v)) == v` for every value the
//!   serializer accepts: strings round-trip through escape handling
//!   (including `\uXXXX` and surrogate pairs) and floats through
//!   shortest-digits formatting. Enforced by the `wire_props` property
//!   tests.

use std::fmt;

/// Maximum nesting depth the parser accepts. Far deeper than any legitimate
/// explanation payload, far shallower than a stack overflow.
pub const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (JSON has one numeric type; `f64` covers the wire).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Insertion-ordered so serialization is deterministic.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match; wire objects never repeat keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Builder: an object from key/value pairs, preserving order.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Builder: a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builder: a number from anything convertible to `f64`.
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// Serialize to a compact JSON byte string.
    ///
    /// Fails (with the offending value's path) if any number in the tree is
    /// non-finite — `NaN` and `±inf` are rejected, never silently emitted.
    pub fn serialize(&self) -> Result<String, WireError> {
        let mut out = String::with_capacity(64);
        write_value(self, &mut out)?;
        Ok(out)
    }

    /// Parse a JSON document. The whole input must be one value (trailing
    /// non-whitespace is an error), nested at most [`MAX_DEPTH`] deep.
    pub fn parse(input: &str) -> Result<Json, WireError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }
}

/// Wire-format error: what went wrong and (for parse errors) where.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset in the input (parse errors only).
    pub offset: Option<usize>,
}

impl WireError {
    fn new(message: impl Into<String>) -> Self {
        WireError {
            message: message.into(),
            offset: None,
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(off) => write!(f, "{} at byte {off}", self.message),
            None => f.write_str(&self.message),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------- serialize

fn write_value(value: &Json, out: &mut String) -> Result<(), WireError> {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Num(n) => {
            if !n.is_finite() {
                return Err(WireError::new(format!(
                    "cannot serialize non-finite number {n}"
                )));
            }
            // Rust's `Display` for f64 is shortest-round-trip and never uses
            // exponent notation — always a valid JSON number literal.
            out.push_str(&n.to_string());
        }
        Json::Str(s) => write_string(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out)?;
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(v, out)?;
            }
            out.push('}');
        }
    }
    Ok(())
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
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// -------------------------------------------------------------------- parse

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> WireError {
        WireError {
            message: message.into(),
            offset: Some(self.pos),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), WireError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, WireError> {
        let rest = self.bytes.get(self.pos..).unwrap_or(&[]);
        if rest.starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(format!("invalid literal (expected `{lit}`)")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, WireError> {
        if depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected byte 0x{other:02x}"))),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, WireError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, WireError> {
        self.expect_byte(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, WireError> {
        self.expect_byte(b'"')?;
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            out.push(c);
                            continue; // unicode_escape advanced past digits
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("unescaped control character in string"));
                }
                Some(_) => {
                    // Consume one UTF-8 code point (input is a &str, so the
                    // byte sequence is guaranteed valid).
                    let rest = self.bytes.get(self.pos..).unwrap_or(&[]);
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                    match s.chars().next() {
                        Some(c) => {
                            out.push(c);
                            self.pos += c.len_utf8();
                        }
                        None => return Err(self.err("unexpected end of input")),
                    }
                }
            }
        }
    }

    /// Parse the 4 hex digits after `\u` (cursor is on the first digit),
    /// handling UTF-16 surrogate pairs. Leaves the cursor after the escape.
    fn unicode_escape(&mut self) -> Result<char, WireError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate — a low surrogate escape must follow.
            if self.peek() == Some(b'\\') && self.bytes.get(self.pos + 1) == Some(&b'u') {
                self.pos += 2;
                let lo = self.hex4()?;
                if !(0xDC00..0xE000).contains(&lo) {
                    return Err(self.err("invalid low surrogate"));
                }
                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                return char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"));
            }
            return Err(self.err("unpaired high surrogate"));
        }
        if (0xDC00..0xE000).contains(&hi) {
            return Err(self.err("unpaired low surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, WireError> {
        let mut code: u32 = 0;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a' + 10) as u32,
                Some(b @ b'A'..=b'F') => (b - b'A' + 10) as u32,
                _ => return Err(self.err("expected 4 hex digits after \\u")),
            };
            code = code * 16 + d;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, WireError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: `0` or a nonzero digit followed by digits.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(self.err("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected digits after decimal point"));
            }
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected digits in exponent"));
            }
            self.digits();
        }
        let digits = self.bytes.get(start..self.pos).unwrap_or(&[]);
        let text = std::str::from_utf8(digits).map_err(|_| self.err("invalid UTF-8 in number"))?;
        let n: f64 = text
            .parse()
            .map_err(|_| self.err(format!("unparseable number `{text}`")))?;
        if !n.is_finite() {
            // e.g. `1e999` overflows to infinity — not representable.
            return Err(self.err(format!("number `{text}` overflows f64")));
        }
        Ok(Json::Num(n))
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Json) -> Json {
        Json::parse(&v.serialize().unwrap()).unwrap()
    }

    #[test]
    fn scalars_serialize_compactly() {
        assert_eq!(Json::Null.serialize().unwrap(), "null");
        assert_eq!(Json::Bool(true).serialize().unwrap(), "true");
        assert_eq!(Json::Num(3.0).serialize().unwrap(), "3");
        assert_eq!(Json::Num(0.25).serialize().unwrap(), "0.25");
        assert_eq!(Json::str("hi").serialize().unwrap(), "\"hi\"");
    }

    #[test]
    fn objects_preserve_insertion_order() {
        let v = Json::obj([
            ("z", Json::num(1.0)),
            ("a", Json::num(2.0)),
            ("m", Json::Arr(vec![Json::Null, Json::Bool(false)])),
        ]);
        assert_eq!(v.serialize().unwrap(), r#"{"z":1,"a":2,"m":[null,false]}"#);
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn non_finite_numbers_are_rejected() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = Json::Num(bad).serialize().unwrap_err();
            assert!(err.message.contains("non-finite"), "{err}");
            // Nested occurrences are caught too.
            let nested = Json::Arr(vec![Json::obj([("x", Json::Num(bad))])]);
            assert!(nested.serialize().is_err());
        }
        // Overflowing literals fail to parse rather than becoming inf.
        assert!(Json::parse("1e999").is_err());
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "quote:\" backslash:\\ newline:\n tab:\t cr:\r nul:\u{0} bell:\u{7} emoji:🦀 ελ";
        let v = Json::str(s);
        let wire = v.serialize().unwrap();
        assert!(wire.contains("\\\"") && wire.contains("\\\\") && wire.contains("\\u0000"));
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn unicode_escapes_parse_including_surrogate_pairs() {
        assert_eq!(
            Json::parse(r#""\u0041\u00e9\u20ac""#).unwrap(),
            Json::str("Aé€")
        );
        // 🦀 = U+1F980 = surrogate pair D83E DD80.
        assert_eq!(Json::parse(r#""\ud83e\udd80""#).unwrap(), Json::str("🦀"));
        assert!(Json::parse(r#""\ud83e""#).is_err(), "unpaired high");
        assert!(Json::parse(r#""\udd80""#).is_err(), "unpaired low");
        assert!(Json::parse(r#""\ud83e\u0041""#).is_err(), "bad low");
    }

    #[test]
    fn malformed_documents_error_not_panic() {
        for bad in [
            "",
            "{",
            "}",
            "[",
            "]",
            "{]",
            "[}",
            "nul",
            "tru",
            "+1",
            "01",
            "1.",
            ".5",
            "1e",
            "\"abc",
            "\"\\q\"",
            "{\"a\"}",
            "{\"a\":}",
            "{a:1}",
            "[1,]",
            "[1 2]",
            "{\"a\":1,}",
            "1 2",
            "\u{1}",
            "\"\u{1}\"",
            "--1",
            "1e+",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn whitespace_and_number_forms_parse() {
        let v = Json::parse(" { \"a\" : [ 1 , -2.5e2 , 0.125 , 1E2 ] } ").unwrap();
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap(),
            &[
                Json::Num(1.0),
                Json::Num(-250.0),
                Json::Num(0.125),
                Json::Num(100.0)
            ]
        );
    }

    #[test]
    fn depth_limit_blocks_hostile_nesting() {
        let deep_ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&deep_ok).is_ok());
        let deep_bad = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        let err = Json::parse(&deep_bad).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
    }

    #[test]
    fn accessors() {
        let v = Json::obj([("s", Json::str("x")), ("n", Json::num(2.0))]);
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("n").unwrap().as_num(), Some(2.0));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Bool(true).as_bool(), Some(true));
        assert_eq!(Json::Null.get("x"), None);
        assert_eq!(Json::Null.as_str(), None);
        assert_eq!(Json::Null.as_arr(), None);
        assert_eq!(Json::Null.as_num(), None);
        assert_eq!(Json::Null.as_bool(), None);
    }
}

//! A validated JSON reader (RFC 8259 subset).
//!
//! [`parse_json`] builds a [`JsonValue`] tree with document-ordered
//! object members and bounded nesting, and [`validate_json`] checks a
//! text with the same parser, so the two can never disagree about what is
//! well-formed. The sweep plane's line-JSON wire format and report
//! reader, and the benchmark ledger's output check, read through it.

/// Checks that `text` is one complete JSON value (RFC 8259 subset: no
/// escapes beyond `\" \\ \/ \b \f \n \r \t \uXXXX`). Returns the byte
/// offset and a message on the first violation.
///
/// Implemented on top of [`parse_json`], so the validator and the reader
/// can never disagree about what is well-formed.
pub fn validate_json(text: &str) -> Result<(), (usize, String)> {
    parse_json(text).map(|_| ())
}

/// A parsed JSON value: the data model behind the sweep wire-format
/// reader. Object members keep their document order (duplicates
/// included), so a decoder can detect and reject repeated keys instead
/// of silently last-writer-winning.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number. Stored as `f64`, which represents every integer
    /// the reports emit as plain numbers exactly (the sweep wire format
    /// ships full-width `u64` values as hex *strings* for this reason).
    Number(f64),
    /// A string with all escapes decoded.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object as an ordered list of `(key, value)` members.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up the member `key` of an object. `None` for missing keys
    /// and for non-objects; the *first* occurrence wins for duplicates.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric payload as an exact non-negative integer. `None`
    /// unless the number is integral and at most 2^53 (beyond which
    /// `f64` no longer represents every integer — full-width values
    /// travel as hex strings instead).
    pub fn as_u64(&self) -> Option<u64> {
        const EXACT_MAX: f64 = 9_007_199_254_740_992.0; // 2^53
        match self {
            JsonValue::Number(x) if x.fract() == 0.0 && (0.0..=EXACT_MAX).contains(x) => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(members) => Some(members),
            _ => None,
        }
    }
}

/// Nesting depth bound for the reader. Worker output is adversarial
/// input to the sweep coordinator (corrupt bytes must surface as
/// findings, not a blown stack), so recursion is capped; real reports
/// nest four levels deep.
const MAX_JSON_DEPTH: usize = 128;

/// Parses one complete JSON document into a [`JsonValue`].
///
/// # Errors
///
/// Returns the byte offset and a message for the first violation:
/// malformed syntax, trailing bytes, input nested deeper than 128
/// levels, or invalid `\u` escapes (including lone surrogates). Never
/// panics, whatever the input — the sweep coordinator feeds it raw
/// worker output.
pub fn parse_json(text: &str) -> Result<JsonValue, (usize, String)> {
    let mut r = JsonReader {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = r.value(0)?;
    r.skip_ws();
    if r.pos != r.bytes.len() {
        return Err((r.pos, "trailing characters after the JSON value".into()));
    }
    Ok(value)
}

struct JsonReader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl JsonReader<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), (usize, String)> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err((self.pos, format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, (usize, String)> {
        if depth > MAX_JSON_DEPTH {
            return Err((self.pos, "nesting too deep".into()));
        }
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(JsonValue::String),
            Some(b't') => self.literal(b"true", JsonValue::Bool(true)),
            Some(b'f') => self.literal(b"false", JsonValue::Bool(false)),
            Some(b'n') => self.literal(b"null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(&b) => Err((self.pos, format!("unexpected byte {:?}", b as char))),
            None => Err((self.pos, "unexpected end of input".into())),
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, (usize, String)> {
        self.expect_byte(b'{')?;
        self.skip_ws();
        let mut members = Vec::new();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err((self.pos, "expected ',' or '}' in object".into())),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, (usize, String)> {
        self.expect_byte(b'[')?;
        self.skip_ws();
        let mut items = Vec::new();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err((self.pos, "expected ',' or ']' in array".into())),
            }
        }
    }

    fn string(&mut self) -> Result<String, (usize, String)> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        let mut span_start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'"' => {
                    out.push_str(&self.text[span_start..self.pos]);
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    out.push_str(&self.text[span_start..self.pos]);
                    self.pos += 1;
                    self.escape(&mut out)?;
                    span_start = self.pos;
                }
                0x00..=0x1F => return Err((self.pos, "raw control character in string".into())),
                _ => self.pos += 1,
            }
        }
        Err((self.pos, "unterminated string".into()))
    }

    fn escape(&mut self, out: &mut String) -> Result<(), (usize, String)> {
        let decoded = match self.bytes.get(self.pos) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                return self.unicode_escape(out);
            }
            _ => return Err((self.pos, "invalid escape".into())),
        };
        out.push(decoded);
        self.pos += 1;
        Ok(())
    }

    fn unicode_escape(&mut self, out: &mut String) -> Result<(), (usize, String)> {
        let first = self.hex4()?;
        let code = match first {
            // High surrogate: must pair with an immediately following
            // \uDC00..=\uDFFF low surrogate.
            0xD800..=0xDBFF => {
                if self.bytes.get(self.pos) == Some(&b'\\')
                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                {
                    self.pos += 2;
                    let second = self.hex4()?;
                    if !(0xDC00..=0xDFFF).contains(&second) {
                        return Err((self.pos, "unpaired high surrogate".into()));
                    }
                    0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                } else {
                    return Err((self.pos, "unpaired high surrogate".into()));
                }
            }
            0xDC00..=0xDFFF => return Err((self.pos, "unpaired low surrogate".into())),
            c => c,
        };
        match char::from_u32(code) {
            Some(c) => {
                out.push(c);
                Ok(())
            }
            None => Err((self.pos, "invalid \\u escape".into())),
        }
    }

    fn hex4(&mut self) -> Result<u32, (usize, String)> {
        let mut value = 0u32;
        for _ in 0..4 {
            let digit = self
                .bytes
                .get(self.pos)
                .and_then(|&b| (b as char).to_digit(16));
            match digit {
                Some(d) => {
                    value = value * 16 + d;
                    self.pos += 1;
                }
                None => return Err((self.pos, "invalid \\u escape".into())),
            }
        }
        Ok(value)
    }

    fn literal(&mut self, lit: &[u8], value: JsonValue) -> Result<JsonValue, (usize, String)> {
        if self.bytes[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err((
                self.pos,
                format!(
                    "invalid literal (expected {})",
                    String::from_utf8_lossy(lit)
                ),
            ))
        }
    }

    fn number(&mut self) -> Result<JsonValue, (usize, String)> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        // Integer part: a single 0, or a nonzero digit followed by more.
        match self.bytes.get(self.pos) {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err((start, "invalid number".into())),
        }
        if self.bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            if !self.digits() {
                return Err((self.pos, "digits required after decimal point".into()));
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.digits() {
                return Err((self.pos, "digits required in exponent".into()));
            }
        }
        match self.text[start..self.pos].parse::<f64>() {
            Ok(x) => Ok(JsonValue::Number(x)),
            Err(_) => Err((start, "unrepresentable number".into())),
        }
    }

    fn digits(&mut self) -> bool {
        let s = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        self.pos > s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validator_accepts_json_shapes() {
        for ok in [
            "{}",
            "[]",
            "null",
            "-12.5e-3",
            "\"a \\u00e9 b\"",
            "{\"a\": [1, 2, {\"b\": false}], \"c\": null}",
            " { \"x\" : 0.25 } ",
        ] {
            assert!(validate_json(ok).is_ok(), "should accept {ok:?}");
        }
    }

    #[test]
    fn reader_builds_the_document_tree() {
        let doc = parse_json("{\"a\": [1, 2.5, {\"b\": false}], \"c\": null, \"s\": \"x\"}")
            .expect("valid document");
        assert_eq!(doc.get("c"), Some(&JsonValue::Null));
        assert_eq!(doc.get("s").and_then(JsonValue::as_str), Some("x"));
        let a = doc.get("a").and_then(JsonValue::as_array).expect("array");
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_f64(), Some(2.5));
        assert_eq!(a[1].as_u64(), None, "non-integral numbers are not u64");
        assert_eq!(a[2].get("b").and_then(JsonValue::as_bool), Some(false));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(a[0].get("k"), None, "get on a non-object is None");
    }

    #[test]
    fn reader_decodes_escapes() {
        let doc = parse_json("\"a\\u00e9b\\n\\\\\\\"\\u0041\\uD83D\\uDE00\"").expect("valid");
        assert_eq!(doc.as_str(), Some("a\u{e9}b\n\\\"A\u{1F600}"));
        for bad in [
            "\"\\uD83D\"",        // lone high surrogate
            "\"\\uDE00\"",        // lone low surrogate
            "\"\\uD83D\\u0041\"", // high surrogate paired with a non-surrogate
            "\"\\uZZZZ\"",
            "\"\\q\"",
        ] {
            assert!(parse_json(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn reader_keeps_duplicate_object_keys_in_order() {
        let doc = parse_json("{\"k\": 1, \"k\": 2}").expect("valid");
        let members = doc.as_object().expect("object");
        assert_eq!(members.len(), 2, "duplicates are preserved for decoders");
        assert_eq!(doc.get("k").and_then(JsonValue::as_u64), Some(1));
    }

    #[test]
    fn reader_bounds_nesting_depth() {
        let deep_ok = format!("{}0{}", "[".repeat(100), "]".repeat(100));
        assert!(parse_json(&deep_ok).is_ok());
        let too_deep = format!("{}0{}", "[".repeat(500), "]".repeat(500));
        assert!(
            parse_json(&too_deep).is_err(),
            "depth cap, not a blown stack"
        );
    }

    #[test]
    fn reader_keeps_u64_exactness_boundary() {
        // 2^53 is the last integer below which every value is exactly
        // representable; beyond it the f64 parse itself rounds, which is
        // precisely why the wire format ships u64s as hex strings.
        assert_eq!(
            parse_json("9007199254740992").ok().and_then(|v| v.as_u64()),
            Some(1u64 << 53)
        );
        assert_eq!(
            parse_json("9007199254740993").ok().and_then(|v| v.as_u64()),
            Some(1u64 << 53),
            "9007199254740993 rounds to 2^53 in f64 - full-width u64s must travel as hex strings"
        );
        assert_eq!(parse_json("-1").ok().and_then(|v| v.as_u64()), None);
    }

    #[test]
    fn validator_rejects_non_json() {
        for bad in [
            "",
            "inf",
            "{\"a\": inf}",
            "NaN",
            "{\"a\":}",
            "{\"a\": 1,}",
            "[1 2]",
            "{\"a\": 01}",
            "\"unterminated",
            "{} trailing",
            "{'single': 1}",
        ] {
            assert!(validate_json(bad).is_err(), "should reject {bad:?}");
        }
    }
}

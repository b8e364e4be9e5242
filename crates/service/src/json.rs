//! Flat one-line JSON encode/decode — the service's entire wire grammar.
//!
//! Every protocol message is a single-line JSON object whose values are
//! numbers, booleans, `null`, or strings.  Nesting is never produced, so
//! the decoder can be a quote-aware linear scan instead of a JSON parser.
//! Strings are escaped as RFC 8259 says ([`esc`], [`str_field`]), so any
//! text travels losslessly, and every `"` inside a value has a `\` before
//! it: the invariant the scanner relies on, since a `"key":` pattern can
//! then never occur inside a value we emitted.  Hostile input can at
//! worst misparse into a field mismatch, which the protocol layer answers
//! with an error reply — never a panic or a hang.

use std::fmt::Write as _;
use trace::event::{push_i64, push_u64};

/// Escape `s` for the inside of a JSON string: `\"`, `\\`, `\n`, `\r`,
/// `\t`, and `\u00XX` for the other C0 controls; everything else as is.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_esc(&mut out, s);
    out
}

fn push_esc(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\0'..='\u{1f}' => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
}

fn hex4(chars: &mut std::str::Chars<'_>) -> Option<u16> {
    (0..4).try_fold(0, |acc, _| Some(acc << 4 | chars.next()?.to_digit(16)? as u16))
}

/// Raw value token of `"key":<token>` in a flat object: for string values
/// the content between the quotes, still escaped, otherwise the run of
/// characters up to the closing `,` or `}`.  The scan is quote- and
/// escape-aware, so string values containing `,`, `}` or `\"` decode
/// intact: the string ends at the first quote not escaped by a `\`.
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    if let Some(inner) = rest.strip_prefix('"') {
        let mut escaped = false;
        let end = inner.bytes().position(|b| {
            let quote = b == b'"' && !escaped;
            escaped = b == b'\\' && !escaped;
            quote
        })?;
        Some(&inner[..end])
    } else {
        let end = rest.find([',', '}'])?;
        Some(rest[..end].trim())
    }
}

/// A string value, unescaped as RFC 8259 says (the inverse of [`esc`]);
/// `None` when missing, and for an unknown escape, a short `\u`, a lone
/// surrogate or a trailing `\`.
pub fn str_field(line: &str, key: &str) -> Option<String> {
    let raw = field(line, key)?;
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        out.push(match chars.next()? {
            c @ ('"' | '\\' | '/') => c,
            'b' => '\u{8}',
            'f' => '\u{c}',
            'n' => '\n',
            'r' => '\r',
            't' => '\t',
            'u' => {
                // a high surrogate brings its low half as a second `\u`
                let hi = hex4(&mut chars)?;
                let pair = (0xd800..0xdc00).contains(&hi);
                if pair && (chars.next()?, chars.next()?) != ('\\', 'u') {
                    return None;
                }
                let lo = if pair { Some(hex4(&mut chars)?) } else { None };
                char::decode_utf16(std::iter::once(hi).chain(lo)).next()?.ok()?
            }
            _ => return None,
        });
    }
    Some(out)
}

pub fn u64_field(line: &str, key: &str) -> Option<u64> {
    field(line, key)?.parse().ok()
}

pub fn i64_field(line: &str, key: &str) -> Option<i64> {
    field(line, key)?.parse().ok()
}

pub fn f64_field(line: &str, key: &str) -> Option<f64> {
    field(line, key)?.parse().ok()
}

pub fn bool_field(line: &str, key: &str) -> Option<bool> {
    match field(line, key)? {
        "true" => Some(true),
        "false" => Some(false),
        _ => None,
    }
}

/// `"key":"hex16"` → the `u64` written by [`Obj::hex`].
pub fn hex_field(line: &str, key: &str) -> Option<u64> {
    u64::from_str_radix(field(line, key)?, 16).ok()
}

/// A bit-exact optional float written by [`Obj::f64_bits`]: `null`, or
/// the bit pattern in hex.  The outer `None` is a missing or malformed
/// field.
pub fn f64_bits_field(line: &str, key: &str) -> Option<Option<f64>> {
    match field(line, key)? {
        "null" => Some(None),
        hex => Some(Some(f64::from_bits(u64::from_str_radix(hex, 16).ok()?))),
    }
}

/// Builder for one flat single-line JSON object.
#[derive(Debug)]
pub struct Obj {
    buf: String,
    first: bool,
}

impl Obj {
    pub fn new() -> Self {
        Obj {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push('"');
        self.buf.push_str(key);
        self.buf.push_str("\":");
    }

    /// A pre-rendered token (number, `null`, or an already-valid object).
    pub fn raw(mut self, key: &str, token: &str) -> Self {
        self.key(key);
        self.buf.push_str(token);
        self
    }

    /// A string value, escaped via [`esc`]; decode with [`str_field`].
    pub fn str(mut self, key: &str, val: &str) -> Self {
        self.key(key);
        self.buf.push('"');
        push_esc(&mut self.buf, val);
        self.buf.push('"');
        self
    }

    pub fn u64(mut self, key: &str, val: u64) -> Self {
        self.key(key);
        push_u64(&mut self.buf, val);
        self
    }

    pub fn i64(mut self, key: &str, val: i64) -> Self {
        self.key(key);
        push_i64(&mut self.buf, val);
        self
    }

    /// A `u64` as a 16-hex-digit string (hashes, bit patterns); decode
    /// with [`hex_field`].
    pub fn hex(mut self, key: &str, val: u64) -> Self {
        self.key(key);
        let _ = write!(self.buf, "\"{val:016x}\"");
        self
    }

    pub fn bool(self, key: &str, val: bool) -> Self {
        self.raw(key, if val { "true" } else { "false" })
    }

    /// A plain (human-readable, lossy) float rendering.
    pub fn f64(self, key: &str, val: f64) -> Self {
        let tok = format!("{val}");
        self.raw(key, &tok)
    }

    /// A bit-exact float: its bit pattern via [`Obj::hex`], or `null`.
    /// Decode with [`f64_bits_field`].
    pub fn f64_bits(self, key: &str, val: Option<f64>) -> Self {
        match val {
            Some(v) => self.hex(key, v.to_bits()),
            None => self.raw(key, "null"),
        }
    }

    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for Obj {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_scanner_roundtrip() {
        let line = Obj::new()
            .str("cmd", "submit")
            .u64("seed", 42)
            .f64_bits("pdr", Some(0.1 + 0.2))
            .f64_bits("lat", None)
            .hex("config", 0xdead_beef)
            .bool("ok", true)
            .finish();
        assert_eq!(field(&line, "cmd"), Some("submit"));
        assert_eq!(u64_field(&line, "seed"), Some(42));
        assert_eq!(hex_field(&line, "pdr").map(f64::from_bits), Some(0.1 + 0.2));
        assert_eq!(field(&line, "lat"), Some("null"));
        assert_eq!(f64_bits_field(&line, "pdr"), Some(Some(0.1 + 0.2)));
        assert_eq!(f64_bits_field(&line, "lat"), Some(None));
        assert_eq!(f64_bits_field(&line, "cmd"), None, "not hex");
        assert_eq!(f64_bits_field(&line, "missing"), None);
        assert_eq!(field(&line, "config"), Some("00000000deadbeef"));
        assert_eq!(hex_field(&line, "config"), Some(0xdead_beef));
        assert_eq!(bool_field(&line, "ok"), Some(true));
        assert_eq!(field(&line, "missing"), None);
    }

    #[test]
    fn string_values_with_commas_and_braces_survive() {
        let line = Obj::new()
            .str("faults", "loss=0.1,churn={2}")
            .u64("after", 7)
            .finish();
        assert_eq!(field(&line, "faults"), Some("loss=0.1,churn={2}"));
        assert_eq!(u64_field(&line, "after"), Some(7));
    }

    #[test]
    fn esc_follows_rfc_8259_and_str_field_inverts_it() {
        assert_eq!(esc("a\"b\\c\nd\re\tf"), "a\\\"b\\\\c\\nd\\re\\tf");
        assert_eq!(esc("\u{0}\u{1f}\u{7f}\u{2028}é"), "\\u0000\\u001f\u{7f}\u{2028}é");
        let text = "he said \"no\"\\\n\u{1}";
        let line = Obj::new().str("msg", text).u64("after", 1).finish();
        assert_eq!(line, format!("{{\"msg\":\"{}\",\"after\":1}}", esc(text)));
        assert_eq!(field(&line, "msg"), Some(esc(text).as_str()), "raw token");
        assert_eq!(str_field(&line, "msg").as_deref(), Some(text));
        assert_eq!(u64_field(&line, "after"), Some(1));
    }

    #[test]
    fn the_string_ends_at_the_first_unescaped_quote() {
        // an even run of backslashes escapes itself, not the quote
        let line = r#"{"a":"x\\","b":"y\\\"z","c":1}"#;
        assert_eq!(field(line, "a"), Some(r"x\\"));
        assert_eq!(str_field(line, "a").as_deref(), Some("x\\"));
        assert_eq!(str_field(line, "b").as_deref(), Some("y\\\"z"));
        assert_eq!(u64_field(line, "c"), Some(1));
        // unterminated: no value at all
        assert_eq!(field(r#"{"a":"x\"}"#, "a"), None);
    }

    #[test]
    fn every_rfc_escape_decodes() {
        let line = r#"{"s":"\"\\\/\b\f\n\r\t\u00e9\ud83d\udce1\u00E9"}"#;
        assert_eq!(
            str_field(line, "s").as_deref(),
            Some("\"\\/\u{8}\u{c}\n\r\t\u{e9}\u{1f4e1}\u{e9}")
        );
    }

    #[test]
    fn negative_and_zero_numbers() {
        let line = Obj::new().i64("x", -3).u64("y", 0).finish();
        assert_eq!(i64_field(&line, "x"), Some(-3));
        assert_eq!(u64_field(&line, "y"), Some(0));
    }
}

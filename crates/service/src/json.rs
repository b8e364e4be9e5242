//! Flat one-line JSON encode/decode — the service's entire wire grammar.
//!
//! Every protocol message is a single-line JSON object whose values are
//! numbers, booleans, `null`, or strings.  Nesting is never produced, so
//! the decoder can be a quote-aware linear scan instead of a JSON parser.
//! Strings are sanitized on encode ([`esc`] strips quotes, backslashes
//! and control characters), which guarantees the invariant the scanner
//! relies on: a `"key":` pattern can never occur inside a value we
//! emitted.  Hostile input can at worst misparse into a field mismatch,
//! which the protocol layer answers with an error reply — never a panic
//! or a hang.

use trace::event::{push_i64, push_u64};

/// Sanitize a string for embedding in a one-line JSON object: quotes and
/// backslashes become `'` and `/`, control characters become spaces.
/// Lossy by design — the service's strings are identifiers, fault specs
/// and error messages, not payloads.
pub fn esc(s: &str) -> String {
    s.chars()
        .map(|c| match c {
            '"' => '\'',
            '\\' => '/',
            c if c.is_control() => ' ',
            c => c,
        })
        .collect()
}

/// Raw value token of `"key":<token>` in a flat object: for string values
/// the content between the quotes, otherwise the run of characters up to
/// the closing `,` or `}`.  The scan is quote-aware, so string values
/// containing `,` or `}` (fault specs like `"loss=0.1,churn=2"`) decode
/// intact.
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    if let Some(inner) = rest.strip_prefix('"') {
        let end = inner.find('"')?;
        Some(&inner[..end])
    } else {
        let end = rest.find([',', '}'])?;
        Some(rest[..end].trim())
    }
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

/// `"key":"hex16"` → the `u64` bit pattern (used for bit-exact `f64`s).
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

    /// A string value, sanitized via [`esc`].
    pub fn str(mut self, key: &str, val: &str) -> Self {
        self.key(key);
        self.buf.push('"');
        self.buf.push_str(&esc(val));
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

    pub fn bool(self, key: &str, val: bool) -> Self {
        self.raw(key, if val { "true" } else { "false" })
    }

    /// A plain (human-readable, lossy) float rendering.
    pub fn f64(self, key: &str, val: f64) -> Self {
        let tok = format!("{val}");
        self.raw(key, &tok)
    }

    /// A bit-exact float: rendered as the 16-hex-digit bit pattern string,
    /// or `null`.  Decode with [`f64_bits_field`].
    pub fn f64_bits(self, key: &str, val: Option<f64>) -> Self {
        match val {
            Some(v) => {
                let tok = format!("\"{:016x}\"", v.to_bits());
                self.raw(key, &tok)
            }
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
    fn esc_strips_quotes_and_control_chars() {
        assert_eq!(esc("a\"b\\c\nd"), "a'b/c d");
        let line = Obj::new().str("msg", "he said \"no\"\n").finish();
        assert_eq!(field(&line, "msg"), Some("he said 'no' "));
    }

    #[test]
    fn negative_and_zero_numbers() {
        let line = Obj::new().i64("x", -3).u64("y", 0).finish();
        assert_eq!(i64_field(&line, "x"), Some(-3));
        assert_eq!(u64_field(&line, "y"), Some(0));
    }
}

//! The workspace's one JSON value, reader and writer.
//!
//! The workspace has no serde. Every trace, attribution report, gate
//! baseline and bench report is built as a [`Json`] value and rendered
//! by its `Display` (one line, `", "` / `": "` separators) or by
//! [`Json::pretty`] (committed files); every reader goes through
//! [`parse`]. Numbers keep their literal text, so integers round-trip
//! exactly and each writer picks its own float precision; objects keep
//! their fields in insertion order.

use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, kept as its literal text.
    Num(String),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in insertion order (keys are unique).
    Obj(Vec<(String, Json)>),
}

macro_rules! json_from {
    ($($t:ty => $v:ident $e:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Self {
                $e
            }
        }
    )*};
}
json_from!(
    u32 => v Json::Num(v.to_string()),
    u64 => v Json::Num(v.to_string()),
    u128 => v Json::Num(v.to_string()),
    usize => v Json::Num(v.to_string()),
    // The shortest text that reads back as `v`; JSON has no NaN or
    // infinity.
    f64 => v if v.is_finite() { Json::Num(v.to_string()) } else { Json::Null },
    bool => v Json::Bool(v),
    &str => v Json::Str(v.to_string()),
    String => v Json::Str(v),
);

/// An array of the collected values.
impl FromIterator<Json> for Json {
    fn from_iter<I: IntoIterator<Item = Json>>(items: I) -> Self {
        Json::Arr(items.into_iter().collect())
    }
}

impl Json {
    /// An object with `fields` in the given order.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// `v` rendered with exactly `places` decimals.
    #[must_use]
    pub fn fixed(v: f64, places: usize) -> Json {
        match Json::from(v) {
            Json::Num(_) => Json::Num(format!("{v:.places$}")),
            null => null,
        }
    }

    /// The object field `key`, if this is an object that has it.
    #[must_use]
    pub fn field(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The number's exact value, if this is a non-negative integer
    /// literal that fits `T`.
    #[must_use]
    pub fn as_uint<T: std::str::FromStr>(&self) -> Option<T> {
        match self {
            Json::Num(n) if !n.starts_with('-') => n.parse().ok(),
            _ => None,
        }
    }

    /// Decoders' accessor: the string field `key`, or an error naming it.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        match self.field(key) {
            Some(Json::Str(s)) => Ok(s),
            _ => Err(format!("missing string `{key}`")),
        }
    }

    /// Decoders' accessor: the non-negative integer field `key`.
    pub fn uint_field<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.field(key)
            .and_then(Json::as_uint)
            .ok_or_else(|| format!("missing non-negative integer `{key}`"))
    }

    /// Decoders' accessor: the array field `key`.
    pub fn arr_field(&self, key: &str) -> Result<&[Json], String> {
        self.field(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("missing `{key}` array"))
    }

    /// The rendering for committed files: each top-level entry on its
    /// own line, and each element of an array entry on its own line;
    /// anything deeper stays on one line. Ends with a newline.
    #[must_use]
    pub fn pretty(&self) -> String {
        fn pretty_lines(indent: &str, brackets: [&str; 2], items: Vec<String>) -> String {
            let [open, close] = brackets;
            if items.is_empty() {
                return format!("{open}{close}");
            }
            let sep = format!(",\n{indent}  ");
            format!("{open}\n{indent}  {}\n{indent}{close}", items.join(&sep))
        }
        let entry = |v: &Json| match v {
            Json::Arr(items) => pretty_lines(
                "  ",
                ["[", "]"],
                items.iter().map(Json::to_string).collect(),
            ),
            v => v.to_string(),
        };
        let doc = match self {
            Json::Obj(fields) => {
                let fields = fields
                    .iter()
                    .map(|(k, v)| format!("{}: {}", Json::Str(k.clone()), entry(v)));
                pretty_lines("", ["{", "}"], fields.collect())
            }
            Json::Arr(items) => pretty_lines("", ["[", "]"], items.iter().map(entry).collect()),
            v => v.to_string(),
        };
        doc + "\n"
    }
}

/// Writes `s` as a quoted JSON string literal.
fn write_quoted(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// One line, `", "` between elements and `": "` after keys.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => f.write_str(n),
            Json::Str(s) => write_quoted(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    write!(f, "{}{v}", if i > 0 { ", " } else { "" })?;
                }
                f.write_char(']')
            }
            Json::Obj(fields) => {
                f.write_char('{')?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    f.write_str(if i > 0 { ", " } else { "" })?;
                    write_quoted(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_char('}')
            }
        }
    }
}

/// Parses `src` as one JSON document (surrounding whitespace allowed).
/// Strict: raw control bytes inside strings, numbers outside the JSON
/// grammar (a leading `+`, leading zeros, a bare `.`) and duplicate
/// object keys are errors, reported with their byte offset.
pub fn parse(src: &str) -> Result<Json, String> {
    let mut r = Reader {
        b: src.as_bytes(),
        pos: 0,
    };
    let v = r.read_value()?;
    if r.peek_token().is_some() {
        return r.read_err("trailing data");
    }
    Ok(v)
}

/// A cursor over the document being parsed.
struct Reader<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn read_err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.pos))
    }

    /// The next byte after any whitespace.
    fn peek_token(&mut self) -> Option<u8> {
        while self.b.get(self.pos).is_some_and(|c| b" \t\n\r".contains(c)) {
            self.pos += 1;
        }
        self.b.get(self.pos).copied()
    }

    /// Consumes the next byte if it is one of `set` (no whitespace
    /// skipping: numbers are contiguous).
    fn take_byte_of(&mut self, set: &[u8]) -> bool {
        let hit = self.b.get(self.pos).is_some_and(|c| set.contains(c));
        self.pos += usize::from(hit);
        hit
    }

    fn read_digits(&mut self) -> usize {
        let from = self.pos;
        while self.take_byte_of(b"0123456789") {}
        self.pos - from
    }

    /// `open` was peeked: parses `item (, item)*` up to `close`.
    fn read_seq(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.pos += 1;
        if self.peek_token() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            match self.peek_token() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return self.read_err(&format!("expected `,` or `{}`", char::from(close))),
            }
        }
    }

    fn read_value(&mut self) -> Result<Json, String> {
        match self.peek_token() {
            None => self.read_err("unexpected end of input"),
            Some(b'[') => {
                let mut items = Vec::new();
                self.read_seq(b']', |r| r.read_value().map(|v| items.push(v)))?;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut fields: Vec<(String, Json)> = Vec::new();
                self.read_seq(b'}', |r| {
                    if r.peek_token() != Some(b'"') {
                        return r.read_err("expected object key");
                    }
                    let key = r.read_string()?;
                    if fields.iter().any(|(k, _)| *k == key) {
                        return r.read_err(&format!("duplicate key `{key}`"));
                    }
                    if r.peek_token() != Some(b':') {
                        return r.read_err("expected `:`");
                    }
                    r.pos += 1;
                    fields.push((key, r.read_value()?));
                    Ok(())
                })?;
                Ok(Json::Obj(fields))
            }
            Some(b'"') => self.read_string().map(Json::Str),
            Some(_) => {
                for (lit, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.b[self.pos..].starts_with(lit.as_bytes()) {
                        self.pos += lit.len();
                        return Ok(v);
                    }
                }
                self.read_number()
            }
        }
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`, kept as text.
    fn read_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.take_byte_of(b"-");
        let int_start = self.pos;
        let int_len = self.read_digits();
        let mut ok = int_len == 1 || (int_len > 1 && self.b[int_start] != b'0');
        if ok && self.take_byte_of(b".") {
            ok = self.read_digits() > 0;
        }
        if ok && self.take_byte_of(b"eE") {
            self.take_byte_of(b"+-");
            ok = self.read_digits() > 0;
        }
        let text = String::from_utf8_lossy(&self.b[start..self.pos]).into_owned();
        if ok {
            Ok(Json::Num(text))
        } else {
            Err(format!("bad number `{text}` at byte {start}"))
        }
    }

    /// `"` was peeked: the decoded string.
    fn read_string(&mut self) -> Result<String, String> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let Some(&c) = self.b.get(self.pos) else {
                return self.read_err("unterminated string");
            };
            match c {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    let esc = self.b.get(self.pos + 1).copied();
                    self.pos += 2;
                    out.push(match esc {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            let hex = self.b.get(self.pos..self.pos + 4);
                            let Some(cp) = hex
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|h| {
                                    u32::from_str_radix(&String::from_utf8_lossy(h), 16).ok()
                                })
                            else {
                                return self.read_err("bad \\u escape");
                            };
                            self.pos += 4;
                            // The writer only \u-escapes control bytes, so
                            // surrogate pairs never occur; an unpaired one
                            // decodes to U+FFFD.
                            char::from_u32(cp).unwrap_or('\u{fffd}')
                        }
                        _ => return self.read_err("bad escape"),
                    });
                }
                c if c < 0x20 => return self.read_err("raw control byte in string"),
                _ => {
                    // A run of plain bytes; it starts and ends at ASCII
                    // bytes of a `&str`, so it is whole UTF-8.
                    let start = self.pos;
                    while self
                        .b
                        .get(self.pos)
                        .is_some_and(|&c| c >= 0x20 && c != b'"' && c != b'\\')
                    {
                        self.pos += 1;
                    }
                    out.push_str(&String::from_utf8_lossy(&self.b[start..self.pos]));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_structure() {
        let v =
            parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny", "d": true}, "e": null}"#).unwrap();
        assert_eq!(
            v.field("a").unwrap().as_arr().unwrap()[2],
            Json::Num("-3e2".into())
        );
        assert_eq!(v.field("b").unwrap().str_field("c"), Ok("x\ny"));
        assert_eq!(v.field("b").unwrap().field("d"), Some(&Json::Bool(true)));
        assert_eq!(v.field("e"), Some(&Json::Null));
    }

    #[test]
    fn decodes_unicode_escapes() {
        let v = parse("\"ctl \\u0007 byte\"").unwrap();
        assert_eq!(v, Json::Str("ctl \u{7} byte".into()));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{",
            "[1,",
            "\"open",
            "{\"a\" 1}",
            "[1] garbage",
            "",
            // A raw control byte inside a string.
            "[\"a\nb\"]",
            // Numbers outside the JSON grammar.
            "+1",
            "[01]",
            "[1.]",
            "[.5]",
            "[1e]",
            "[-]",
            "\"\\u+1ab\"",
            // A duplicate key.
            "{\"a\": 1, \"a\": 2}",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn renders_one_line_and_pretty() {
        let v = Json::obj([
            ("n", Json::from(3u64)),
            ("s", Json::from("a\"b")),
            ("a", Json::Arr(vec![1u64.into(), 2u64.into()])),
            ("e", Json::Arr(Vec::new())),
            ("o", Json::obj([("x", Json::fixed(0.5, 3))])),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"n": 3, "s": "a\"b", "a": [1, 2], "e": [], "o": {"x": 0.500}}"#
        );
        assert_eq!(
            v.pretty(),
            "{\n  \"n\": 3,\n  \"s\": \"a\\\"b\",\n  \"a\": [\n    1,\n    2\n  ],\n  \
             \"e\": [],\n  \"o\": {\"x\": 0.500}\n}\n"
        );
    }

    #[test]
    fn round_trips_exactly() {
        let v = Json::obj([
            ("quote", Json::from("say \"hi\"")),
            ("backslash", Json::from(r"C:\path\")),
            ("control", Json::from("tab\tnl\ncr\rbell\u{7}nul\u{0}")),
            ("unicode", Json::from("µs → ≤ 1 ✓ 漢字")),
            ("max", Json::from(u64::MAX)),
            ("neg", Json::Num("-12".into())),
            ("float", Json::fixed(1.0 / 3.0, 6)),
            ("shortest", Json::from(0.1 + 0.2)),
            ("flags", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("empty", Json::obj([])),
            (
                "rows",
                Json::Arr(vec![Json::Arr(vec![0u64.into()]), Json::Arr(vec![])]),
            ),
        ]);
        assert_eq!(parse(&v.to_string()).unwrap(), v);
        assert_eq!(parse(&v.pretty()).unwrap(), v);
        assert_eq!(
            parse(&v.to_string())
                .unwrap()
                .field("max")
                .unwrap()
                .as_uint(),
            Some(u64::MAX)
        );
        // The one-line form never carries a raw control byte.
        assert!(!v.to_string().bytes().any(|b| b < 0x20));
    }

    #[test]
    fn integer_accessors_are_exact() {
        assert_eq!(Json::from(u64::MAX).as_uint::<u64>(), Some(u64::MAX));
        assert_eq!(Json::from(u128::MAX).as_uint::<u128>(), Some(u128::MAX));
        assert_eq!(Json::from(u128::MAX).as_uint::<u64>(), None);
        assert_eq!(Json::Num("-1".into()).as_uint::<u64>(), None);
        assert_eq!(Json::fixed(1.0, 1).as_uint::<u64>(), None);
        assert_eq!(Json::from(2.0), Json::Num("2".into()));
        assert_eq!(Json::from(f64::NAN), Json::Null);
        assert_eq!(Json::fixed(f64::INFINITY, 3), Json::Null);
        assert_eq!(
            Json::obj([]).uint_field::<u64>("k").unwrap_err(),
            "missing non-negative integer `k`"
        );
    }
}

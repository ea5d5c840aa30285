//! A minimal JSON value model, writer, and parser, replacing
//! `serde`/`serde_json` for report emission and journal recovery.
//!
//! Only what WASABI needs: building values programmatically, rendering
//! them (compact or pretty) with correct string escaping, and parsing
//! them back for the engine's checkpoint/resume journal. Objects preserve
//! insertion order (`Vec<(String, Json)>` rather than a map) so emitted
//! reports are stable byte-for-byte across runs — a requirement of the
//! deterministic-merge contract in `wasabi-engine`.
//!
//! The parser ([`Json::parse`]) accepts exactly what the writer emits
//! (plus arbitrary standard JSON); it exists because a resumed campaign
//! must read its own journal back.

use std::fmt::Write as _;

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so without a bound one short line of `[`s
/// (a wire frame, a journal line) would overflow the stack and abort the
/// process. Everything WASABI writes nests fewer than ten levels deep.
pub const MAX_PARSE_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an object; keeps call sites terse.
    pub fn obj(fields: impl IntoIterator<Item = (impl Into<String>, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Convenience constructor for an array.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Pretty rendering with two-space indentation and a trailing newline,
    /// matching the house style of the repo's golden outputs.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(f) => {
                // JSON has no NaN/Infinity; render those as null so the
                // document stays well-formed.
                if f.is_finite() {
                    let mut text = format!("{f}");
                    // `{}` prints integral floats without a decimal point;
                    // add one so the value round-trips as a float.
                    if !text.contains('.') && !text.contains('e') {
                        text.push_str(".0");
                    }
                    out.push_str(&text);
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

/// Compact rendering (no whitespace); `to_string()` goes through this.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        f.write_str(&out)
    }
}

impl Json {
    /// Parses a JSON document. Returns an error describing the first
    /// offending byte offset on malformed input; trailing garbage after
    /// the top-level value is an error (the journal reader depends on a
    /// half-written line being rejected, not silently truncated).
    /// Nesting deeper than [`MAX_PARSE_DEPTH`] is an error too.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    /// The string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an `Int`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The integer payload as a `u64`, if this is a non-negative `Int`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The float payload (`Float`, or `Int` widened), if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(f) => Some(*f),
            Json::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The elements, if this is an `Arr`.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if this is an `Obj`.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Looks up a field of an `Obj` by key (first match wins).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(&b) = bytes.get(*pos) {
        if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn expect(bytes: &[u8], pos: &mut usize, token: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(token.as_bytes()) {
        *pos += token.len();
        Ok(())
    } else {
        Err(format!("expected `{token}` at byte {pos}", pos = *pos))
    }
}

/// Parses one value whose enclosing containers are `depth` levels deep.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth >= MAX_PARSE_DEPTH {
        return Err(format!("nesting deeper than {MAX_PARSE_DEPTH} levels at byte {}", *pos));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected `:` at byte {pos}", pos = *pos));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{08}'),
                    Some(b'f') => out.push('\u{0C}'),
                    Some(b'u') => {
                        let code = parse_hex4(bytes, *pos + 1)?;
                        // Surrogate pairs: the writer never emits them
                        // (it escapes only control characters), but accept
                        // them for standard-JSON compatibility.
                        if (0xD800..0xDC00).contains(&code) {
                            *pos += 5;
                            expect(bytes, pos, "\\u")?;
                            let low = parse_hex4(bytes, *pos)?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(format!("bad low surrogate at byte {pos}", pos = *pos));
                            }
                            let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            out.push(char::from_u32(combined).ok_or("bad surrogate pair")?);
                            *pos += 3; // loop tail adds 1
                        } else {
                            out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                            *pos += 4; // loop tail adds 1
                        }
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume the whole contiguous run of plain characters at
                // once. The boundaries are `"` and `\` — both ASCII, so
                // slicing there lands on UTF-8 character boundaries
                // (input is a &str, valid by construction). Revalidating
                // just the run keeps this linear; per-character
                // `from_utf8` of the remaining input made large documents
                // (e.g. long journals) quadratic to parse.
                let start = *pos;
                while let Some(&b) = bytes.get(*pos) {
                    if b == b'"' || b == b'\\' {
                        break;
                    }
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
                out.push_str(run);
            }
        }
    }
}

/// The code unit spelled by exactly four hex digits at `bytes[at..]`; a
/// sign (which `from_str_radix` would accept) or a short escape is an error.
fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let hex = bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
    hex.iter()
        .try_fold(0, |code, &b| Some(code * 16 + char::from(b).to_digit(16)?))
        .ok_or_else(|| format!("bad \\u escape at byte {at}"))
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if text.is_empty() || text == "-" {
        return Err(format!("expected number at byte {start}"));
    }
    if is_float {
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| format!("bad float `{text}` at byte {start}"))
    } else {
        text.parse::<i64>()
            .map(Json::Int)
            .map_err(|_| format!("bad integer `{text}` at byte {start}"))
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Int(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Int(n as i64)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Int(n as i64)
    }
}

impl From<u64> for Json {
    /// Values beyond `i64::MAX` saturate (JSON writers that emit `u64`
    /// verbatim break many parsers anyway, and no WASABI counter gets
    /// anywhere near the limit).
    fn from(n: u64) -> Json {
        Json::Int(i64::try_from(n).unwrap_or(i64::MAX))
    }
}

impl From<f64> for Json {
    fn from(f: f64) -> Json {
        Json::Float(f)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_rendering() {
        let v = Json::obj([
            ("name", Json::from("wasabi")),
            ("runs", Json::arr([Json::Int(1), Json::Int(2)])),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"name":"wasabi","runs":[1,2],"ok":true,"none":null}"#
        );
    }

    #[test]
    fn pretty_rendering() {
        let v = Json::obj([("a", Json::Int(1)), ("b", Json::arr([Json::from("x")]))]);
        assert_eq!(v.pretty(), "{\n  \"a\": 1,\n  \"b\": [\n    \"x\"\n  ]\n}\n");
    }

    #[test]
    fn string_escaping() {
        let v = Json::from("a\"b\\c\nd\te\u{01}");
        assert_eq!(v.to_string(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        assert_eq!(Json::Float(1.5).to_string(), "1.5");
        assert_eq!(Json::Float(2.0).to_string(), "2.0");
        assert_eq!(Json::Float(-3.0).to_string(), "-3.0");
        assert_eq!(Json::Float(f64::NAN).to_string(), "null");
    }

    #[test]
    fn empty_containers_stay_inline_when_pretty() {
        let v = Json::obj([("a", Json::Arr(vec![])), ("b", Json::Obj(vec![]))]);
        assert_eq!(v.pretty(), "{\n  \"a\": [],\n  \"b\": {}\n}\n");
    }

    #[test]
    fn field_order_is_insertion_order() {
        let v = Json::obj([("z", Json::Int(1)), ("a", Json::Int(2))]);
        assert_eq!(v.to_string(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let v = Json::obj([
            ("name", Json::from("wasabi \"x\"\n\ttab")),
            ("runs", Json::arr([Json::Int(1), Json::Int(-2), Json::Float(1.5)])),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
            ("nested", Json::obj([("ctl", Json::from("a\u{01}b"))])),
        ]);
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
        assert_eq!(Json::parse(&v.pretty()).unwrap(), v);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "{\"a\":1,}",
            "\"unterminated",
            "{\"a\":1} trailing",
            "01x",
            "nulL",
            // A journal line cut mid-write must be an error, never a
            // silently truncated value.
            r#"{"key":{"class":"C","method":"t"},"outco"#,
        ] {
            assert!(Json::parse(bad).is_err(), "accepted malformed `{bad}`");
        }
    }

    #[test]
    fn parse_accepts_standard_json_extras() {
        let v = Json::parse(" { \"a\" : [ 1 , 2.5e1 , \"\\u0041\\ud83d\\ude00\" ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(25.0));
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_str(),
            Some("A😀")
        );
    }

    #[test]
    fn parse_rejects_nesting_past_the_depth_limit() {
        // Far past any stack: must be an error, not an abort.
        let deep = "[".repeat(100_000);
        assert!(Json::parse(&deep).is_err());
        let objects = "{\"a\":".repeat(100_000);
        assert!(Json::parse(&objects).is_err());
        // Exactly at the limit still parses.
        let ok = format!("{}{}", "[".repeat(MAX_PARSE_DEPTH), "]".repeat(MAX_PARSE_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let over = format!("[{ok}]");
        assert!(Json::parse(&over).is_err());
    }

    #[test]
    fn parse_rejects_a_high_surrogate_without_a_low_one() {
        for bad in [r#""\uD800\u0000""#, r#""\uD800\uD800""#, r#""\uDBFF\uE000""#] {
            assert!(Json::parse(bad).is_err(), "accepted `{bad}`");
        }
        assert_eq!(
            Json::parse(r#""\uDBFF\uDFFF""#).unwrap().as_str(),
            Some("\u{10FFFF}")
        );
    }

    #[test]
    fn parse_requires_four_hex_digits_in_a_unicode_escape() {
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u04""#, r#""\uD83D\u+E00""#] {
            assert!(Json::parse(bad).is_err(), "accepted `{bad}`");
        }
        assert_eq!(Json::parse(r#""\u0041\u00e9""#).unwrap().as_str(), Some("Aé"));
    }

    #[test]
    fn accessors_select_by_type() {
        let v = Json::obj([("n", Json::Int(7)), ("s", Json::from("x"))]);
        assert_eq!(v.get("n").and_then(Json::as_i64), Some(7));
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(7));
        assert_eq!(Json::Int(-1).as_u64(), None);
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Bool(true).as_bool(), Some(true));
        assert!(v.as_obj().is_some());
        assert!(v.as_arr().is_none());
    }
}

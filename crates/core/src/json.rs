//! Minimal JSON rendering of [`crate::info::ModuleInfo`], plus a small
//! strict JSON parser for inputs like the CLI's `--batch` manifest and a
//! canonical [`emit`] serializer for [`crate::report::JsonValue`].
//!
//! The paper's instrumenter hands its static module information to the
//! JavaScript runtime as generated JS/JSON (Fig. 2). This module mirrors
//! that boundary for the CLI without pulling in a JSON crate: a small,
//! purpose-built serializer for exactly the `ModuleInfo` shape,
//! [`parse`] for reading documents back into
//! [`crate::report::JsonValue`], and [`emit`] — the round-trip-exact
//! inverse of [`parse`] that the `wasabi-server` wire protocol frames
//! requests and responses with.

use std::fmt::Write as _;

use crate::info::{BrTableEntry, ModuleInfo};
use crate::location::Location;
use crate::report::JsonValue;

/// Escape a string for a JSON string literal.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for ch in s.chars() {
        match ch {
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
    out
}

fn string(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

fn location(loc: Location) -> String {
    format!("{{\"func\":{},\"instr\":{}}}", loc.func, loc.instr)
}

fn array(items: impl IntoIterator<Item = String>) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item);
    }
    out.push(']');
    out
}

fn br_table_entry(entry: &BrTableEntry) -> String {
    format!(
        "{{\"label\":{},\"location\":{},\"ends\":{}}}",
        entry.target.label,
        location(entry.target.location),
        array(entry.ends.iter().map(|e| format!(
            "{{\"kind\":{},\"begin\":{},\"end\":{}}}",
            string(e.kind.name()),
            location(e.begin),
            location(e.end)
        )))
    )
}

impl ModuleInfo {
    /// Render this info as a JSON document (the analogue of the paper's
    /// generated `Wasabi.module.info`).
    pub fn to_json(&self) -> String {
        let functions = array(self.functions.iter().map(|f| {
            format!(
                "{{\"type\":{},\"import\":{},\"export\":{},\"name\":{},\"instr_count\":{}}}",
                string(&f.type_.to_string()),
                f.import.as_ref().map_or_else(
                    || "null".to_string(),
                    |(m, n)| array([string(m), string(n)])
                ),
                array(f.export.iter().map(|e| string(e))),
                f.name.as_deref().map_or_else(|| "null".to_string(), string),
                f.instr_count
            )
        }));
        let table = array(self.table.iter().map(|segment| {
            format!(
                "{{\"offset\":{},\"functions\":{}}}",
                segment
                    .offset
                    .map_or_else(|| "null".to_string(), |o| o.to_string()),
                array(segment.functions.iter().map(ToString::to_string))
            )
        }));
        let br_tables = array(self.br_tables.iter().map(|info| {
            format!(
                "{{\"location\":{},\"entries\":{},\"default\":{}}}",
                location(info.location),
                array(info.entries.iter().map(br_table_entry)),
                br_table_entry(&info.default)
            )
        }));
        let hooks = array(self.hooks.iter().map(|h| string(&h.name())));
        let enabled = array(self.enabled.iter().map(|h| string(h.name())));

        format!(
            "{{\"functions\":{functions},\"table\":{table},\"brTables\":{br_tables},\
             \"start\":{},\"hooks\":{hooks},\"enabledHooks\":{enabled},\
             \"originalFunctionCount\":{}}}",
            self.start
                .map_or_else(|| "null".to_string(), |s| s.to_string()),
            self.original_function_count
        )
    }
}

/// Serialize a [`JsonValue`] to its canonical JSON text — the
/// round-trip-exact inverse of [`parse`].
///
/// This differs from `JsonValue`'s `Display` impl in exactly one way:
/// **finite floats always carry a fraction or exponent** (`5.0`, not `5`),
/// so [`parse`] reads them back as `Float` instead of `UInt`/`Int`. That
/// makes `parse(emit(v)) == v` hold for every canonical value — the
/// property the `wasabi-server` wire protocol depends on (a response
/// frame must decode to the value that was encoded). Canonical means:
/// non-negative integers are `UInt` (never `Int` — [`parse`] always picks
/// `UInt` for them) and floats are finite. Non-finite floats have no JSON
/// literal and emit as `null`, exactly like `Display`.
///
/// # Examples
///
/// ```
/// use wasabi::json::{emit, parse};
/// use wasabi::report::JsonValue;
///
/// let value = JsonValue::object([
///     ("rate", JsonValue::Float(200.0)),
///     ("count", JsonValue::UInt(200)),
/// ]);
/// let text = emit(&value);
/// assert_eq!(text, r#"{"rate":200.0,"count":200}"#);
/// assert_eq!(parse(&text).unwrap(), value);
/// ```
pub fn emit(value: &JsonValue) -> String {
    let mut out = String::new();
    emit_into(&mut out, value);
    out
}

fn emit_into(out: &mut String, value: &JsonValue) {
    match value {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Int(v) => {
            let _ = write!(out, "{v}");
        }
        JsonValue::UInt(v) => {
            let _ = write!(out, "{v}");
        }
        // `{:?}` is Rust's shortest round-tripping float form and always
        // includes `.0` or an exponent for integral values, so the text
        // parses back as `Float`; NaN/Inf have no JSON literal.
        JsonValue::Float(v) if v.is_finite() => {
            let _ = write!(out, "{v:?}");
        }
        JsonValue::Float(_) => out.push_str("null"),
        JsonValue::Str(s) => {
            out.push('"');
            out.push_str(&escape(s));
            out.push('"');
        }
        JsonValue::Array(values) => {
            out.push('[');
            for (i, value) in values.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                emit_into(out, value);
            }
            out.push(']');
        }
        JsonValue::Object(pairs) => {
            out.push('{');
            for (i, (key, value)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(&escape(key));
                out.push_str("\":");
                emit_into(out, value);
            }
            out.push('}');
        }
    }
}

/// Error from [`parse`]: byte offset + what was expected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonParseError {}

/// Parse a JSON document into a [`JsonValue`].
///
/// Strict RFC 8259 subset: one top-level value, no trailing input, no
/// comments or trailing commas. Integers without fraction/exponent become
/// `Int`/`UInt`; everything else numeric becomes `Float`. Object keys keep
/// document order (like everything in [`crate::report`]).
///
/// # Examples
///
/// ```
/// let doc = wasabi::json::parse(r#"{"jobs": [{"module": "k.wasm", "args": [3, -1]}]}"#)?;
/// let job = &doc.get("jobs").unwrap().as_array().unwrap()[0];
/// assert_eq!(job.get("module").unwrap().as_str(), Some("k.wasm"));
/// assert_eq!(job.get("args").unwrap().as_array().unwrap()[1].as_i64(), Some(-1));
/// # Ok::<(), wasabi::json::JsonParseError>(())
/// ```
///
/// # Errors
///
/// Returns a [`JsonParseError`] with the byte offset of the first
/// malformed construct.
pub fn parse(text: &str) -> Result<JsonValue, JsonParseError> {
    let mut parser = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    parser.skip_whitespace();
    let value = parser.value()?;
    parser.skip_whitespace();
    if parser.pos != parser.text.len() {
        return Err(parser.error("trailing characters after JSON value"));
    }
    Ok(value)
}

/// Containers deeper than this are rejected. The parser is recursive
/// descent, so the limit is what keeps a hostile input (a megabyte of
/// `[`s) from overflowing the stack instead of returning an error.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonParseError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<JsonValue, JsonParseError>,
    ) -> Result<JsonValue, JsonParseError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            pairs.push((key, self.value()?));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(pairs));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'[')?;
        let mut values = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(values));
        }
        loop {
            self.skip_whitespace();
            values.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(values));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = self
                        .peek()
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match escaped {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(self.error("invalid escape")),
                    }
                }
                Some(byte) if byte < 0x20 => {
                    return Err(self.error("unescaped control character in string"));
                }
                Some(_) => {
                    // Copy the run up to the next quote, backslash or
                    // control byte in one go. Those are ASCII, so the run
                    // ends on a char boundary of the `&str` input.
                    let start = self.pos;
                    while matches!(self.peek(), Some(b) if b >= 0x20 && b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, JsonParseError> {
        let unit = self.hex4()?;
        // Surrogate pair: a high surrogate must be followed by an escaped
        // low surrogate.
        if (0xD800..0xDC00).contains(&unit) {
            if self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let low = self.hex4()?;
                if (0xDC00..0xE000).contains(&low) {
                    let code = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                    return char::from_u32(code)
                        .ok_or_else(|| self.error("invalid surrogate pair"));
                }
            }
            return Err(self.error("unpaired surrogate"));
        }
        char::from_u32(unit).ok_or_else(|| self.error("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|b| (b as char).to_digit(16))
                .ok_or_else(|| self.error("expected 4 hex digits"))?;
            value = value * 16 + digit;
            self.pos += 1;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: '0' or [1-9][0-9]*.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.error("expected a digit")),
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("expected a digit after '.'"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("expected a digit in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        if integral {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(JsonValue::Int(v));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| self.error("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::HookSet;
    use crate::instrument::instrument;
    use wasabi_wasm::builder::ModuleBuilder;
    use wasabi_wasm::types::ValType;

    fn sample_info() -> ModuleInfo {
        let mut builder = ModuleBuilder::new();
        builder.import_function("env", "print", &[ValType::I32], &[]);
        let f = builder.function("dispatch", &[ValType::I32], &[ValType::I32], |f| {
            f.block(None).block(None);
            f.get_local(0u32).br_table(vec![0], 1);
            f.end().i32_const(1).return_().end();
            f.i32_const(2);
        });
        builder.table(1);
        builder.elements(0, vec![f]);
        let (_, info) = instrument(&builder.finish(), HookSet::all()).expect("instruments");
        info
    }

    #[test]
    fn json_is_structurally_balanced() {
        let json = sample_info().to_json();
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes, "{json}");
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn json_contains_expected_keys_and_values() {
        let json = sample_info().to_json();
        for key in [
            "\"functions\":",
            "\"table\":",
            "\"brTables\":",
            "\"hooks\":",
            "\"enabledHooks\":",
            "\"originalFunctionCount\":2",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.contains("\"import\":[\"env\",\"print\"]"));
        assert!(json.contains("\"export\":[\"dispatch\"]"));
        // The br_table info made it through.
        assert!(json.contains("\"entries\":["));
    }

    #[test]
    fn string_escaping() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn parse_round_trips_rendered_values() {
        for text in [
            "null",
            "true",
            "[]",
            "{}",
            r#"{"a":1,"b":[-2,3.5,"x\n\"y\"",null,false],"c":{"d":[]}}"#,
            "18446744073709551615",
            "-9223372036854775808",
        ] {
            let value = parse(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(parse(&value.to_string()).unwrap(), value, "{text}");
        }
        // The generated ModuleInfo JSON parses back.
        assert!(parse(&sample_info().to_json()).is_ok());
    }

    #[test]
    fn parse_numbers_pick_the_natural_variant() {
        assert_eq!(parse("7").unwrap(), JsonValue::UInt(7));
        assert_eq!(parse("-7").unwrap(), JsonValue::Int(-7));
        assert_eq!(parse("7.5").unwrap(), JsonValue::Float(7.5));
        assert_eq!(parse("2e2").unwrap(), JsonValue::Float(200.0));
        assert_eq!(parse("7").unwrap().as_i64(), Some(7));
        assert_eq!(parse("7.5").unwrap().as_f64(), Some(7.5));
    }

    #[test]
    fn parse_handles_escapes_and_unicode() {
        assert_eq!(
            parse(r#""a\u0041\n\t\u00e9\ud83d\ude00""#).unwrap(),
            JsonValue::Str("aA\n\té😀".to_string())
        );
        assert_eq!(parse("\"π\"").unwrap().as_str(), Some("π"));
    }

    #[test]
    fn parse_bounds_nesting_depth() {
        // Within the limit: fine both ways.
        let ok = format!("{}null{}", "[".repeat(100), "]".repeat(100));
        assert!(parse(&ok).is_ok());
        // A hostile megabyte of '[' returns an error instead of blowing
        // the stack.
        let deep = "[".repeat(1 << 20);
        let err = parse(&deep).expect_err("too deep");
        assert!(err.to_string().contains("nesting"), "{err}");
        let deep_objects = "{\"k\":".repeat(500) + "1" + &"}".repeat(500);
        assert!(parse(&deep_objects).is_err());
    }

    #[test]
    fn emit_keeps_floats_floats() {
        // Display renders 200.0 as "200", which would parse back as
        // UInt(200); emit must keep the Float-ness.
        assert_eq!(JsonValue::Float(200.0).to_string(), "200");
        assert_eq!(emit(&JsonValue::Float(200.0)), "200.0");
        assert_eq!(parse("200.0").unwrap(), JsonValue::Float(200.0));
        for v in [0.5, -3.25, 1e300, 5e-324, -0.0, 1e19] {
            let text = emit(&JsonValue::Float(v));
            assert_eq!(parse(&text).unwrap(), JsonValue::Float(v), "{text}");
        }
    }

    #[test]
    fn emit_renders_non_finite_floats_as_null() {
        assert_eq!(emit(&JsonValue::Float(f64::NAN)), "null");
        assert_eq!(emit(&JsonValue::Float(f64::INFINITY)), "null");
        assert_eq!(emit(&JsonValue::Float(f64::NEG_INFINITY)), "null");
        assert_eq!(
            emit(&JsonValue::array([JsonValue::Float(f64::NAN)])),
            "[null]"
        );
    }

    #[test]
    fn emit_round_trips_nested_documents() {
        let value = JsonValue::object([
            ("s", JsonValue::Str("a\"b\\c\n\u{1}π😀".to_string())),
            ("n", JsonValue::Int(-7)),
            ("u", JsonValue::UInt(u64::MAX)),
            (
                "a",
                JsonValue::array([
                    JsonValue::Null,
                    JsonValue::Bool(true),
                    JsonValue::Float(1.5),
                ]),
            ),
            ("o", JsonValue::object([("", JsonValue::UInt(0))])),
        ]);
        assert_eq!(parse(&emit(&value)).unwrap(), value);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "01",
            "1.",
            "\"\\x\"",
            "\"\\ud800\"",
            "1 2",
            "{\"a\" 1}",
            "\"unterminated",
        ] {
            let err = parse(bad).expect_err(bad);
            assert!(!err.to_string().is_empty());
        }
    }
}

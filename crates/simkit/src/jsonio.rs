//! The workspace's one JSON layer: the value model, the parser, and the
//! streaming [`JsonWriter`] behind every JSON document the workspace
//! emits. Separators, number format, non-finite handling and the
//! `null`/bool spelling are decided here only; the telemetry and span
//! line codecs keep their own fixed-shape writers.
//!
//! [`JsonParser`] reads everything the writer emits: strings, numbers,
//! arrays, objects, `null`, `true`, `false`. Strings are written
//! verbatim and the parser rejects escapes and control characters, so
//! names keep to [`is_name`] (event sources to [`is_plain_text`]); the
//! metric registry and tracer enforce that on registration, the
//! telemetry and span line parsers on every wire line. Floats use the
//! shortest round-trip form, so parsed values are bit-exact; non-finite
//! ones become the tagged strings `"inf"`, `"-inf"`, `"nan"`
//! ([`write_f64`], read back by [`ObjFields::f64_field_lossy`]).
//! Nesting deeper than [`MAX_DEPTH`] is a parse error; the deepest
//! document the workspace writes (a checkpoint's pipeline snapshot) is
//! 9 levels deep.
//!
//! ```
//! use simkit::jsonio::{render, JsonParser, ObjFields};
//!
//! let text = render(|w| {
//!     w.begin_object().field("n", 3u64).field("since", None::<u64>);
//!     w.field("ratio", f64::INFINITY).end_object();
//! });
//! assert_eq!(text, "{\"n\":3,\"since\":null,\"ratio\":\"inf\"}");
//! let doc = JsonParser::parse_document(&text).unwrap();
//! let obj = doc.as_object("doc").unwrap();
//! assert_eq!(obj.f64_field_lossy("ratio").unwrap(), f64::INFINITY);
//! ```

use std::fmt::Write as _;

/// Deepest array/object nesting [`JsonParser`] accepts.
pub const MAX_DEPTH: usize = 64;

/// `true` for a non-empty `[A-Za-z0-9._-]` name: metrics, spans,
/// attribute keys, alert rules, tenants.
pub fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
}

/// `true` when `s` is names separated by single spaces, or empty: the
/// charset of event sources such as `cluster feed`.
pub fn is_plain_text(s: &str) -> bool {
    s.is_empty() || s.split(' ').all(is_name)
}

/// JSON value model.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A string (escape-free; see the module docs).
    Str(String),
    /// A number (always carried as `f64`, like JavaScript).
    Num(f64),
    /// An array of values.
    Arr(Vec<Json>),
    /// An object as an ordered field list (duplicate keys unsupported;
    /// lookups take the first match).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Views this value as an object's field list, or explains (using
    /// `what` as the subject) why it is not one.
    pub fn as_object(&self, what: &str) -> Result<&[(String, Json)], String> {
        match self {
            Json::Obj(fields) => Ok(fields),
            _ => Err(format!("expected {what} to be a JSON object")),
        }
    }

    /// Views this value as an array, or explains why it is not one.
    pub fn as_array(&self, what: &str) -> Result<&[Json], String> {
        match self {
            Json::Arr(items) => Ok(items),
            _ => Err(format!("expected {what} to be a JSON array")),
        }
    }

    /// Views this value as a number, or explains why it is not one.
    /// Accepts the tagged non-finite strings written by [`write_f64`].
    pub fn as_f64(&self, what: &str) -> Result<f64, String> {
        match self {
            Json::Num(n) => Ok(*n),
            Json::Str(s) => parse_tagged_f64(s)
                .ok_or_else(|| format!("expected {what} to be a number, got string {s:?}")),
            _ => Err(format!("expected {what} to be a number")),
        }
    }

    /// Views this value as a non-negative integer, or explains why it
    /// is not one.
    pub fn as_u64(&self, what: &str) -> Result<u64, String> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= u64::MAX as f64 => Ok(*n as u64),
            _ => Err(format!("expected {what} to be a non-negative integer")),
        }
    }
}

/// Writes `value` into `out` as a JSON number — or, when it is not
/// finite, as one of the tagged strings `"inf"`, `"-inf"`, `"nan"`
/// (JSON has no literal for these). Finite values use Rust's shortest
/// round-trip formatting, so `write_f64` → parse → `f64` is bit-exact.
pub fn write_f64(out: &mut String, value: f64) {
    if value.is_finite() {
        let _ = write!(out, "{value}");
    } else if value.is_nan() {
        out.push_str("\"nan\"");
    } else if value > 0.0 {
        out.push_str("\"inf\"");
    } else {
        out.push_str("\"-inf\"");
    }
}

/// A value [`JsonWriter`] can emit: integers in `Display` form, `f64`
/// via [`write_f64`], strings verbatim, bools, `None` as `null`, pairs
/// as two-element arrays.
pub trait ToJson {
    /// Appends this value's JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

macro_rules! to_json {
    ($($t:ty => |$v:ident, $out:ident| $body:expr;)*) => {$(
        impl ToJson for $t {
            fn write_json(&self, $out: &mut String) {
                let $v = self;
                let _ = $body;
            }
        }
    )*};
}

to_json! {
    str => |s, out| {
        debug_assert!(!s.contains(['"', '\\']) && !s.contains(char::is_control), "{s:?}");
        out.push('"');
        out.push_str(s);
        out.push('"')
    };
    String => |s, out| s.as_str().write_json(out);
    f64 => |v, out| write_f64(out, *v);
    bool => |b, out| out.push_str(if *b { "true" } else { "false" });
    u8 => |n, out| write!(out, "{n}");
    u32 => |n, out| write!(out, "{n}");
    u64 => |n, out| write!(out, "{n}");
    usize => |n, out| write!(out, "{n}");
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        self.0.write_json(out);
        out.push(',');
        self.1.write_json(out);
        out.push(']');
    }
}

/// Streaming JSON writer over a caller's `String`: values, keys and
/// brackets go in document order and the writer places the commas.
/// Nested values write into the same writer. [`newline`](Self::newline)
/// owes a line break that lands after the next separator or before the
/// next closing bracket, giving the line-per-element layout
/// (`[\n{..},\n{..}\n]`) of the operator-facing documents.
pub struct JsonWriter<'a> {
    out: &'a mut String,
    /// The next item needs a leading comma.
    comma: bool,
    /// A line break is owed before the next item or closer.
    newline: bool,
}

impl<'a> JsonWriter<'a> {
    /// A writer appending to `out`.
    pub fn new(out: &'a mut String) -> Self {
        JsonWriter {
            out,
            comma: false,
            newline: false,
        }
    }

    /// Emits the separator before an item (when `item`) and any owed
    /// line break.
    fn sep(&mut self, item: bool) -> &mut String {
        if item && std::mem::replace(&mut self.comma, true) {
            self.out.push(',');
        }
        if std::mem::take(&mut self.newline) {
            self.out.push('\n');
        }
        self.out
    }

    fn bracket(&mut self, bracket: char, open: bool) -> &mut Self {
        self.sep(open).push(bracket);
        self.comma = !open;
        self
    }

    /// Opens an object.
    pub fn begin_object(&mut self) -> &mut Self {
        self.bracket('{', true)
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.bracket('}', false)
    }

    /// Opens an array.
    pub fn begin_array(&mut self) -> &mut Self {
        self.bracket('[', true)
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.bracket(']', false)
    }

    /// Writes an object key; the next item is its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.value(key).out.push(':');
        self.comma = false;
        self
    }

    /// Writes one value.
    pub fn value(&mut self, value: impl ToJson) -> &mut Self {
        value.write_json(self.sep(true));
        self
    }

    /// Writes `"key":value`.
    pub fn field(&mut self, key: &str, value: impl ToJson) -> &mut Self {
        self.key(key).value(value)
    }

    /// Writes `"key":` and `value` with exactly `decimals` fractional
    /// digits (`{:.N}`); non-finite values fall back to [`write_f64`].
    pub fn field_fixed(&mut self, key: &str, value: f64, decimals: usize) -> &mut Self {
        if !value.is_finite() {
            return self.field(key, value);
        }
        let _ = write!(self.key(key).sep(true), "{value:.decimals$}");
        self
    }

    /// Writes `"key":` and `items` as one array.
    pub fn field_array<T: ToJson>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
    ) -> &mut Self {
        self.key(key).begin_array();
        for item in items {
            self.value(item);
        }
        self.end_array()
    }

    /// Writes `"key":` and an array with one `write`-rendered item per
    /// line, closing with `\n]` when non-empty.
    pub fn field_lines<T>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
        mut write: impl FnMut(&mut Self, T),
    ) -> &mut Self {
        self.key(key).begin_array();
        for item in items {
            write(self.newline(), item);
        }
        // Only a list that wrote an item closes on a line of its own.
        self.newline = self.comma;
        self.end_array()
    }

    /// Owes a line break before the next item or closing bracket.
    pub fn newline(&mut self) -> &mut Self {
        self.newline = true;
        self
    }
}

/// Renders one document into a fresh `String`.
pub fn render(write: impl FnOnce(&mut JsonWriter<'_>)) -> String {
    let mut out = String::new();
    write(&mut JsonWriter::new(&mut out));
    out
}

fn parse_tagged_f64(s: &str) -> Option<f64> {
    match s {
        "inf" => Some(f64::INFINITY),
        "-inf" => Some(f64::NEG_INFINITY),
        "nan" => Some(f64::NAN),
        _ => None,
    }
}

/// Field lookups over a parsed object, with typed errors.
pub trait ObjFields {
    /// The raw value of field `key`, or a missing-field error.
    fn field(&self, key: &str) -> Result<&Json, String>;
    /// The raw value of field `key`, or `None` when absent.
    fn opt_field(&self, key: &str) -> Option<&Json>;
    /// Field `key` as a string.
    fn str_field(&self, key: &str) -> Result<&str, String>;
    /// Field `key` as a number (strict: tagged non-finite strings are
    /// rejected — use [`ObjFields::f64_field_lossy`] for those).
    fn f64_field(&self, key: &str) -> Result<f64, String>;
    /// Field `key` as a number, also accepting the tagged non-finite
    /// strings written by [`write_f64`].
    fn f64_field_lossy(&self, key: &str) -> Result<f64, String>;
    /// Field `key` as a non-negative integer.
    fn u64_field(&self, key: &str) -> Result<u64, String>;
    /// Field `key` as a non-negative integer, or `None` when absent or
    /// `null`.
    fn opt_u64_field(&self, key: &str) -> Result<Option<u64>, String>;
    /// Field `key` as an array.
    fn arr_field(&self, key: &str) -> Result<&[Json], String>;
    /// Field `key` as an object's field list.
    fn obj_field(&self, key: &str) -> Result<&[(String, Json)], String>;
}

impl ObjFields for &[(String, Json)] {
    fn field(&self, key: &str) -> Result<&Json, String> {
        self.opt_field(key)
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    fn opt_field(&self, key: &str) -> Option<&Json> {
        self.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn str_field(&self, key: &str) -> Result<&str, String> {
        match self.field(key)? {
            Json::Str(s) => Ok(s),
            _ => Err(format!("field {key:?} must be a string")),
        }
    }

    fn f64_field(&self, key: &str) -> Result<f64, String> {
        match self.field(key)? {
            Json::Num(n) => Ok(*n),
            _ => Err(format!("field {key:?} must be a number")),
        }
    }

    fn f64_field_lossy(&self, key: &str) -> Result<f64, String> {
        self.field(key)?.as_f64(&format!("field {key:?}"))
    }

    fn u64_field(&self, key: &str) -> Result<u64, String> {
        self.field(key)?.as_u64(&format!("field {key:?}"))
    }

    fn opt_u64_field(&self, key: &str) -> Result<Option<u64>, String> {
        match self.opt_field(key) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => v.as_u64(&format!("field {key:?}")).map(Some),
        }
    }

    fn arr_field(&self, key: &str) -> Result<&[Json], String> {
        self.field(key)?.as_array(&format!("field {key:?}"))
    }

    fn obj_field(&self, key: &str) -> Result<&[(String, Json)], String> {
        self.field(key)?.as_object(&format!("field {key:?}"))
    }
}

/// Hand-rolled recursive-descent parser for the workspace wire formats.
/// Strings must be escape- and control-free (what [`JsonWriter`]
/// writes), numbers finite, and nesting at most [`MAX_DEPTH`] deep.
pub struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> JsonParser<'a> {
    /// Parses `text` as one complete JSON document (whitespace-tolerant,
    /// trailing garbage rejected).
    pub fn parse_document(text: &'a str) -> Result<Json, String> {
        let mut p = JsonParser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(value)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b" \t\r\n".contains(b))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let literal = |word: &str| self.bytes[self.pos..].starts_with(word.as_bytes());
        match self.peek() {
            Some(b'"') => self.string().map(Json::Str),
            Some(b'{') => {
                let mut fields = Vec::new();
                self.items(b'}', |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.skip_ws();
                    p.expect(b':')?;
                    fields.push((key, p.value()?));
                    Ok(())
                })?;
                Ok(Json::Obj(fields))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.items(b']', |p| p.value().map(|v| items.push(v)))?;
                Ok(Json::Arr(items))
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ if literal("null") => self.word(4, Json::Null),
            _ if literal("true") => self.word(4, Json::Bool(true)),
            _ if literal("false") => self.word(5, Json::Bool(false)),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn word(&mut self, len: usize, value: Json) -> Result<Json, String> {
        self.pos += len;
        Ok(value)
    }

    /// Parses the comma-separated items of the array or object whose
    /// opening bracket is next, through `close`.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
        } else {
            loop {
                item(self)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b) if b == close => {
                        self.pos += 1;
                        break;
                    }
                    other => {
                        return Err(format!(
                            "expected ',' or {:?}, found {:?}",
                            close as char,
                            other.map(|c| c as char)
                        ))
                    }
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b'"' {
                let s = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?;
                if s.contains('\\') {
                    return Err("escaped strings are not supported".to_string());
                }
                if s.chars().any(char::is_control) {
                    return Err("control character in string".to_string());
                }
                self.pos += 1;
                return Ok(s.to_string());
            }
            self.pos += 1;
        }
        Err("unterminated string".to_string())
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(&b))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            Ok(_) => Err(format!("number {text:?} out of range at byte {start}")),
            Err(_) => Err(format!("invalid number {text:?} at byte {start}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_round_trips_typed_fields() {
        let doc = JsonParser::parse_document("{\"n\":1.5,\"s\":\"x\",\"a\":[1,2],\"o\":{\"k\":3}}")
            .unwrap();
        let obj = doc.as_object("doc").unwrap();
        assert_eq!(obj.f64_field("n").unwrap(), 1.5);
        assert_eq!(obj.str_field("s").unwrap(), "x");
        assert_eq!(obj.arr_field("a").unwrap().len(), 2);
        assert_eq!(obj.obj_field("o").unwrap().u64_field("k").unwrap(), 3);
        assert!(obj.opt_field("missing").is_none());
        assert_eq!(obj.opt_u64_field("missing").unwrap(), None);
        assert!(obj.opt_u64_field("n").unwrap_err().contains("integer"));
    }

    #[test]
    fn non_finite_floats_round_trip_as_tagged_strings() {
        for v in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 1.25, -0.0] {
            let mut out = String::from("{\"v\":");
            write_f64(&mut out, v);
            out.push('}');
            let doc = JsonParser::parse_document(&out).unwrap();
            let got = doc.as_object("doc").unwrap().f64_field_lossy("v").unwrap();
            if v.is_nan() {
                assert!(got.is_nan());
            } else {
                assert_eq!(got, v, "round-trip of {v}");
            }
        }
    }

    #[test]
    fn strict_f64_field_rejects_tagged_strings() {
        let doc = JsonParser::parse_document("{\"v\":\"inf\"}").unwrap();
        let obj = doc.as_object("doc").unwrap();
        assert!(obj.f64_field("v").is_err());
        assert_eq!(obj.f64_field_lossy("v").unwrap(), f64::INFINITY);
    }

    #[test]
    fn parser_rejects_escapes_and_trailing_garbage() {
        assert!(JsonParser::parse_document("{\"a\\n\":1}")
            .unwrap_err()
            .contains("escaped"));
        assert!(JsonParser::parse_document("{} junk")
            .unwrap_err()
            .contains("trailing"));
    }

    #[test]
    fn writer_places_commas_and_owed_newlines() {
        let text = render(|w| {
            w.begin_object().field("a", 1u64).key("rows").begin_array();
            for i in 0..2u64 {
                w.newline().begin_object().field("i", i).end_object();
            }
            w.newline().end_array();
            w.field_array("empty", [0u64; 0])
                .field("flag", true)
                .field("none", None::<u64>)
                .field_fixed("ms", 1.5, 3)
                .field_fixed("bad", f64::NAN, 3)
                .end_object();
        });
        assert_eq!(
            text,
            "{\"a\":1,\"rows\":[\n{\"i\":0},\n{\"i\":1}\n],\"empty\":[],\
             \"flag\":true,\"none\":null,\"ms\":1.500,\"bad\":\"nan\"}"
        );
        assert_eq!(
            render(|w| {
                w.value((1.5, -0.0));
            }),
            "[1.5,-0]"
        );
    }

    #[test]
    fn null_and_bools_round_trip() {
        let text = render(|w| {
            w.begin_object()
                .field("n", None::<u64>)
                .field("t", true)
                .field("f", false)
                .end_object();
        });
        let doc = JsonParser::parse_document(&text).unwrap();
        let obj = doc.as_object("doc").unwrap();
        assert_eq!(obj.field("n").unwrap(), &Json::Null);
        assert_eq!(obj.field("t").unwrap(), &Json::Bool(true));
        assert_eq!(obj.field("f").unwrap(), &Json::Bool(false));
        assert_eq!(obj.opt_u64_field("n").unwrap(), None);
        assert!(JsonParser::parse_document("nul").is_err());
        assert!(JsonParser::parse_document("truex").is_err());
    }

    #[test]
    fn nesting_past_the_depth_limit_is_an_error() {
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(JsonParser::parse_document(&at_limit).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(JsonParser::parse_document(&over)
            .unwrap_err()
            .contains("nesting deeper"));
        // Far past the limit the parser still fails fast instead of
        // overflowing the stack.
        let hostile = "[{\"a\":".repeat(200_000);
        assert!(JsonParser::parse_document(&hostile)
            .unwrap_err()
            .contains("nesting deeper"));
    }

    #[test]
    fn parser_rejects_control_characters_and_overflowing_numbers() {
        assert!(JsonParser::parse_document("\"a\tb\"")
            .unwrap_err()
            .contains("control"));
        assert!(JsonParser::parse_document("1e999")
            .unwrap_err()
            .contains("out of range"));
    }

    #[test]
    fn name_charset() {
        assert!(is_name("rack-00.draw_w"));
        assert!(!is_name(""));
        assert!(!is_name("cluster feed"));
        assert!(!is_name("dr\"ain"));
        assert!(is_plain_text("cluster feed"));
        assert!(is_plain_text(""));
        assert!(!is_plain_text("a\\b"));
        assert!(!is_plain_text("a\nb"));
    }

    #[test]
    fn shortest_round_trip_formatting_is_exact() {
        let v = 0.123_456_789_012_345_68_f64;
        let mut out = String::new();
        write_f64(&mut out, v);
        let doc = JsonParser::parse_document(&out).unwrap();
        assert_eq!(doc.as_f64("v").unwrap().to_bits(), v.to_bits());
    }
}

//! Byte-level fuzzing of every parser that sees outside bytes, plus the
//! writer round trip.
//!
//! Each parser must turn any input into an error or a value that
//! round-trips exactly: rendering the parsed value and parsing that
//! again yields the same value (floats compared bit for bit), and the
//! rendering is a fixed point. Inputs are raw `any::<u8>` vectors and
//! valid lines with a random byte splice, so the mutations reach past
//! the first field. Nothing may panic.

use proptest::prelude::*;
use simkit::jsonio::{Json, JsonParser, JsonWriter, MAX_DEPTH};
use simkit::telemetry::{parse_line, render_parsed, Format, ParsedRecord};
use simkit::trace::{parse_span_line, render_parsed_spans, ParsedSpan};

const JSON_SEEDS: &[&str] = &[
    "{\"count\":3,\"name\":\"acme\",\"ok\":true,\"since\":null,\"v\":[1.5,-0,\"inf\"]}",
    "[[1,2],{\"a\":{\"b\":[]}},false,\"x y\"]",
    "{\"stats\":{\"count\":0,\"mean\":0,\"m2\":0,\"min\":\"inf\",\"max\":\"-inf\",\"nans\":0}}",
];

const TELEMETRY_SEEDS: &[(&str, Format)] = &[
    (
        "{\"t\":1000,\"m\":\"rack-00.draw_w\",\"v\":123.45}",
        Format::Jsonl,
    ),
    (
        "{\"t\":1000,\"e\":\"breaker_trip\",\"s\":\"cluster feed\",\"v\":1}",
        Format::Jsonl,
    ),
    ("1000,sample,rack-00.draw_w,,123.45", Format::Csv),
    ("1000,event,breaker_trip,rack-00,1", Format::Csv),
];

const SPAN_SEEDS: &[(&str, Format)] = &[
    (
        "{\"id\":0,\"name\":\"attack.drain\",\"parent\":null,\"t0\":30000,\"t1\":330000,\"attrs\":{\"rack\":1,\"nodes\":4}}",
        Format::Jsonl,
    ),
    (
        "{\"id\":1,\"name\":\"attack.spike\",\"parent\":0,\"t0\":3,\"t1\":6,\"attrs\":{}}",
        Format::Jsonl,
    ),
    ("0,attack.drain,,30000,330000,rack=1;nodes=4", Format::Csv),
    ("1,attack.spike,0,330000,600000,", Format::Csv),
];

/// Bytes the wire grammars give meaning to; three in four spliced
/// bytes are drawn from here so mutations often stay near-valid.
const GRAMMAR: &[u8] = b"0123456789aez.-_+ ,:;=\"{}[]\\\nEN";

/// `seed` with `bytes` spliced over the range `[at, at + cut)` (both
/// clamped), as text. A byte whose selector is not a multiple of four
/// is first mapped into [`GRAMMAR`].
fn splice(seed: &str, at: usize, cut: usize, bytes: &[(u8, u8)]) -> String {
    let mut out = seed.as_bytes().to_vec();
    let at = at % (out.len() + 1);
    let end = (at + cut).min(out.len());
    let bytes = bytes.iter().map(|&(b, selector)| {
        if selector % 4 == 0 {
            b
        } else {
            GRAMMAR[b as usize % GRAMMAR.len()]
        }
    });
    out.splice(at..end, bytes);
    String::from_utf8_lossy(&out).into_owned()
}

fn same_f64(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Structural equality with floats compared bit for bit.
fn same_json(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
        (Json::Arr(x), Json::Arr(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(x, y)| same_json(x, y))
        }
        (Json::Obj(x), Json::Obj(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((kx, vx), (ky, vy))| kx == ky && same_json(vx, vy))
        }
        _ => a == b,
    }
}

/// Writes a parsed value back through the writer; `lines` owes a
/// newline before every array element.
fn write_value(w: &mut JsonWriter<'_>, value: &Json, lines: bool) {
    match value {
        Json::Null => {
            w.value(None::<u64>);
        }
        Json::Bool(b) => {
            w.value(*b);
        }
        Json::Str(s) => {
            w.value(s.as_str());
        }
        Json::Num(n) => {
            w.value(*n);
        }
        Json::Arr(items) => {
            w.begin_array();
            for item in items {
                if lines {
                    w.newline();
                }
                write_value(w, item, lines);
            }
            w.end_array();
        }
        Json::Obj(fields) => {
            w.begin_object();
            for (key, item) in fields {
                w.key(key);
                write_value(w, item, lines);
            }
            w.end_object();
        }
    }
}

fn written(value: &Json, lines: bool) -> String {
    let mut out = String::new();
    write_value(&mut JsonWriter::new(&mut out), value, lines);
    out
}

/// Error, or an exact round trip through the writer.
fn check_document(text: &str) -> Result<(), TestCaseError> {
    if let Ok(value) = JsonParser::parse_document(text) {
        let text2 = written(&value, false);
        let again = JsonParser::parse_document(&text2)
            .map_err(|e| TestCaseError::fail(format!("{text2:?} does not reparse: {e}")))?;
        prop_assert!(same_json(&value, &again), "{text:?} -> {text2:?}");
        prop_assert_eq!(written(&again, false), text2);
    }
    Ok(())
}

fn same_record(a: &ParsedRecord, b: &ParsedRecord) -> bool {
    a.time_ms == b.time_ms
        && a.name == b.name
        && a.source == b.source
        && a.is_event == b.is_event
        && same_f64(a.value, b.value)
}

/// The single data line `render_parsed` writes for one record.
fn record_line(r: &ParsedRecord, format: Format) -> String {
    let text = render_parsed(std::slice::from_ref(r), format);
    text.lines().last().unwrap_or_default().to_string()
}

fn check_record(text: &str, format: Format) -> Result<(), TestCaseError> {
    if let Ok(record) = parse_line(text, 1, format) {
        let line = record_line(&record, format);
        let again = parse_line(&line, 1, format)
            .map_err(|e| TestCaseError::fail(format!("{line:?} does not reparse: {e}")))?;
        prop_assert!(same_record(&record, &again), "{text:?} -> {line:?}");
        prop_assert_eq!(record_line(&again, format), line);
    }
    Ok(())
}

fn same_span(a: &ParsedSpan, b: &ParsedSpan) -> bool {
    a.id == b.id
        && a.name == b.name
        && a.parent == b.parent
        && a.start_ms == b.start_ms
        && a.end_ms == b.end_ms
        && a.attrs.len() == b.attrs.len()
        && a.attrs
            .iter()
            .zip(&b.attrs)
            .all(|((ka, va), (kb, vb))| ka == kb && same_f64(*va, *vb))
}

fn span_line(s: &ParsedSpan, format: Format) -> String {
    let text = render_parsed_spans(std::slice::from_ref(s), format);
    text.lines().last().unwrap_or_default().to_string()
}

fn check_span(text: &str, format: Format) -> Result<(), TestCaseError> {
    if let Ok(span) = parse_span_line(text, 1, format) {
        let line = span_line(&span, format);
        let again = parse_span_line(&line, 1, format)
            .map_err(|e| TestCaseError::fail(format!("{line:?} does not reparse: {e}")))?;
        prop_assert!(same_span(&span, &again), "{text:?} -> {line:?}");
        prop_assert_eq!(span_line(&again, format), line);
    }
    Ok(())
}

/// Builds a value tree from a stream of random words: nested objects
/// and arrays, `null`, bools, strings over the no-escape charset and
/// floats of any bit pattern.
struct TreeGen<'a> {
    words: &'a [u64],
    next: usize,
}

impl TreeGen<'_> {
    fn word(&mut self) -> u64 {
        let w = self.words[self.next % self.words.len()];
        self.next += 1;
        w.rotate_left(self.next as u32 % 64)
    }

    fn text(&mut self) -> String {
        const CHARS: &[u8] = b"abcXYZ019._- ";
        let w = self.word();
        (0..w % 6)
            .map(|i| CHARS[((w >> (8 * i + 3)) % CHARS.len() as u64) as usize] as char)
            .collect()
    }

    fn value(&mut self, depth: usize) -> Json {
        let w = self.word();
        let container = depth < 4 && self.next < 4 * self.words.len();
        match w % if container { 7 } else { 5 } {
            0 => Json::Null,
            1 => Json::Bool(w & 8 != 0),
            2 => Json::Str(self.text()),
            3 | 4 => Json::Num(f64::from_bits(self.word())),
            5 => Json::Arr((0..w % 4).map(|_| self.value(depth + 1)).collect()),
            _ => Json::Obj(
                (0..w % 4)
                    .map(|_| (self.text(), self.value(depth + 1)))
                    .collect(),
            ),
        }
    }
}

/// What a written tree parses back as: non-finite floats become their
/// tagged strings.
fn as_written(value: &Json) -> Json {
    match value {
        Json::Num(n) if !n.is_finite() => Json::Str(
            if n.is_nan() {
                "nan"
            } else if *n > 0.0 {
                "inf"
            } else {
                "-inf"
            }
            .to_string(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(as_written).collect()),
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .map(|(k, v)| (k.clone(), as_written(v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8192))]

    #[test]
    fn json_documents_error_or_round_trip(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        check_document(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn mutated_json_documents_error_or_round_trip(
        seed in 0..JSON_SEEDS.len(),
        at in 0usize..128,
        cut in 0usize..4,
        bytes in prop::collection::vec((any::<u8>(), any::<u8>()), 0..4),
    ) {
        check_document(&splice(JSON_SEEDS[seed], at, cut, &bytes))?;
    }

    #[test]
    fn telemetry_lines_error_or_round_trip(
        bytes in prop::collection::vec(any::<u8>(), 0..64),
        csv in any::<bool>(),
    ) {
        let format = if csv { Format::Csv } else { Format::Jsonl };
        check_record(&String::from_utf8_lossy(&bytes), format)?;
    }

    #[test]
    fn mutated_telemetry_lines_error_or_round_trip(
        seed in 0..TELEMETRY_SEEDS.len(),
        at in 0usize..72,
        cut in 0usize..4,
        bytes in prop::collection::vec((any::<u8>(), any::<u8>()), 0..4),
    ) {
        let (line, format) = TELEMETRY_SEEDS[seed];
        check_record(&splice(line, at, cut, &bytes), format)?;
    }

    #[test]
    fn span_lines_error_or_round_trip(
        bytes in prop::collection::vec(any::<u8>(), 0..64),
        csv in any::<bool>(),
    ) {
        let format = if csv { Format::Csv } else { Format::Jsonl };
        check_span(&String::from_utf8_lossy(&bytes), format)?;
    }

    #[test]
    fn mutated_span_lines_error_or_round_trip(
        seed in 0..SPAN_SEEDS.len(),
        at in 0usize..112,
        cut in 0usize..4,
        bytes in prop::collection::vec((any::<u8>(), any::<u8>()), 0..4),
    ) {
        let (line, format) = SPAN_SEEDS[seed];
        check_span(&splice(line, at, cut, &bytes), format)?;
    }

    #[test]
    fn written_trees_parse_back_equal(
        words in prop::collection::vec(any::<u64>(), 1..48),
        lines in any::<bool>(),
    ) {
        let tree = TreeGen { words: &words, next: 0 }.value(0);
        let text = written(&tree, lines);
        let parsed = JsonParser::parse_document(&text)
            .map_err(|e| TestCaseError::fail(format!("{text:?}: {e}")))?;
        prop_assert!(same_json(&parsed, &as_written(&tree)), "{text:?}");
    }

    #[test]
    fn nesting_depth_is_bounded(extra in 0usize..4096, object in any::<bool>()) {
        let (open, close) = if object { ("{\"k\":", "}") } else { ("[", "]") };
        let depth = MAX_DEPTH + 1 + extra;
        let text = format!("{}0{}", open.repeat(depth), close.repeat(depth));
        prop_assert!(JsonParser::parse_document(&text).is_err());
    }
}

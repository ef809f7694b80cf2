//! Serialization of telemetry traces to JSONL and CSV, and the strict
//! parser `padsim inspect` uses to read them back.
//!
//! Formats are hand-rolled (the workspace has no serde) but strict and
//! versionless by construction: metric names are restricted to
//! `[A-Za-z0-9._-]` and event sources to such names joined by spaces
//! (the parser rejects anything else per line), so no escaping is ever
//! needed and every line is trivially machine- and grep-readable.
//!
//! # Wire formats
//!
//! JSONL — one object per line, keys always in this order:
//!
//! ```text
//! {"t":1000,"m":"rack-00.draw_w","v":123.45}      <- sample
//! {"t":1000,"e":"breaker_trip","s":"rack-00","v":1}  <- event
//! ```
//!
//! CSV — header `time_ms,record,name,source,value`:
//!
//! ```text
//! time_ms,record,name,source,value
//! 1000,sample,rack-00.draw_w,,123.45
//! 1000,event,breaker_trip,rack-00,1
//! ```
//!
//! Values are formatted with Rust's default `f64` `Display` (shortest
//! round-trip representation), which is deterministic across platforms —
//! the basis of the byte-identical determinism contract.

use crate::jsonio::{is_name, is_plain_text};
use crate::telemetry::record::{EventKind, Record};
use crate::telemetry::registry::MetricRegistry;
use crate::time::SimTime;

/// On-disk trace format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Format {
    /// One JSON object per line (`.jsonl`).
    #[default]
    Jsonl,
    /// Comma-separated values with header (`.csv`).
    Csv,
}

impl Format {
    /// Parses a format name (`jsonl` or `csv`).
    pub fn from_name(name: &str) -> Option<Format> {
        match name {
            "jsonl" => Some(Format::Jsonl),
            "csv" => Some(Format::Csv),
            _ => None,
        }
    }

    /// Guesses the format from a file path's extension, defaulting to
    /// JSONL.
    pub fn from_path(path: &str) -> Format {
        if path.rsplit('.').next() == Some("csv") {
            Format::Csv
        } else {
            Format::Jsonl
        }
    }

    /// Canonical file extension (without dot).
    pub fn extension(self) -> &'static str {
        match self {
            Format::Jsonl => "jsonl",
            Format::Csv => "csv",
        }
    }
}

fn write_sample_jsonl(out: &mut String, time: SimTime, name: &str, value: f64) {
    use std::fmt::Write as _;
    let _ = writeln!(
        out,
        "{{\"t\":{},\"m\":\"{}\",\"v\":{}}}",
        time.as_millis(),
        name,
        value
    );
}

fn write_event_jsonl(out: &mut String, time: SimTime, kind: EventKind, source: &str, value: f64) {
    use std::fmt::Write as _;
    let _ = writeln!(
        out,
        "{{\"t\":{},\"e\":\"{}\",\"s\":\"{}\",\"v\":{}}}",
        time.as_millis(),
        kind.as_str(),
        source,
        value
    );
}

/// CSV header line (with trailing newline).
pub const CSV_HEADER: &str = "time_ms,record,name,source,value\n";

fn write_sample_csv(out: &mut String, time: SimTime, name: &str, value: f64) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "{},sample,{},,{}", time.as_millis(), name, value);
}

fn write_event_csv(out: &mut String, time: SimTime, kind: EventKind, source: &str, value: f64) {
    use std::fmt::Write as _;
    let _ = writeln!(
        out,
        "{},event,{},{},{}",
        time.as_millis(),
        kind.as_str(),
        source,
        value
    );
}

/// Serializes records (already in canonical order — see
/// [`sort_records`](crate::telemetry::sort_records)) to a JSONL string.
pub fn to_jsonl(registry: &MetricRegistry, records: &[Record]) -> String {
    let mut out = String::with_capacity(records.len() * 48);
    for record in records {
        match record {
            Record::Sample(s) => {
                write_sample_jsonl(&mut out, s.time, registry.name(s.metric), s.value)
            }
            Record::Event(e) => write_event_jsonl(&mut out, e.time, e.kind, &e.source, e.value),
        }
    }
    out
}

/// Serializes records (already in canonical order) to a CSV string with
/// header.
pub fn to_csv(registry: &MetricRegistry, records: &[Record]) -> String {
    let mut out = String::with_capacity(CSV_HEADER.len() + records.len() * 40);
    out.push_str(CSV_HEADER);
    for record in records {
        match record {
            Record::Sample(s) => {
                write_sample_csv(&mut out, s.time, registry.name(s.metric), s.value)
            }
            Record::Event(e) => write_event_csv(&mut out, e.time, e.kind, &e.source, e.value),
        }
    }
    out
}

/// One record parsed back from a serialized trace.
///
/// Metric ids don't survive serialization (they're per-registry), so the
/// parsed form carries names.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedRecord {
    /// Simulation time in milliseconds.
    pub time_ms: u64,
    /// Metric name for samples, event kind wire name for events.
    pub name: String,
    /// Event source (empty for samples).
    pub source: String,
    /// The recorded value.
    pub value: f64,
    /// `true` for events, `false` for samples.
    pub is_event: bool,
}

/// A parse failure with its 1-based line number.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

pub(crate) fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Pulls `"key":` off the front of `rest`, returning what follows.
pub(crate) fn expect_key<'a>(rest: &'a str, key: &str, line: usize) -> Result<&'a str, ParseError> {
    let want = format!("\"{key}\":");
    rest.strip_prefix(&want)
        .ok_or_else(|| err(line, format!("expected key {key:?}")))
}

/// Splits `rest` at the next `,` or the closing `}`.
pub(crate) fn next_field(rest: &str, line: usize) -> Result<(&str, &str), ParseError> {
    if let Some(pos) = rest.find([',', '}']) {
        let (field, tail) = rest.split_at(pos);
        Ok((field, &tail[1..]))
    } else {
        Err(err(line, "unterminated object"))
    }
}

pub(crate) fn unquote(s: &str, line: usize) -> Result<&str, ParseError> {
    s.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| err(line, format!("expected quoted string, got {s:?}")))
}

/// `text` when `ok(text)` holds, else a per-line error naming it as
/// `what`: the wire boundary that keeps every renderer escape-free.
pub(crate) fn checked<'a>(
    text: &'a str,
    ok: fn(&str) -> bool,
    what: &str,
    line: usize,
) -> Result<&'a str, ParseError> {
    ok(text)
        .then_some(text)
        .ok_or_else(|| err(line, format!("{what} {text:?} is outside the wire charset")))
}

fn parse_jsonl_line(line_text: &str, line: usize) -> Result<ParsedRecord, ParseError> {
    let rest = line_text
        .strip_prefix('{')
        .ok_or_else(|| err(line, "expected '{'"))?;
    let rest = expect_key(rest, "t", line)?;
    let (t_field, rest) = next_field(rest, line)?;
    let time_ms: u64 = t_field
        .parse()
        .map_err(|_| err(line, format!("bad time {t_field:?}")))?;
    if let Ok(rest) = expect_key(rest, "m", line) {
        let (m_field, rest) = next_field(rest, line)?;
        let name = checked(unquote(m_field, line)?, is_name, "metric name", line)?.to_string();
        let rest = expect_key(rest, "v", line)?;
        let (v_field, rest) = next_field(rest, line)?;
        let value: f64 = v_field
            .parse()
            .map_err(|_| err(line, format!("bad value {v_field:?}")))?;
        if !rest.is_empty() {
            return Err(err(line, "trailing content after sample"));
        }
        Ok(ParsedRecord {
            time_ms,
            name,
            source: String::new(),
            value,
            is_event: false,
        })
    } else {
        let rest = expect_key(rest, "e", line)?;
        let (e_field, rest) = next_field(rest, line)?;
        let name = unquote(e_field, line)?.to_string();
        if EventKind::from_name(&name).is_none() {
            return Err(err(line, format!("unknown event kind {name:?}")));
        }
        let rest = expect_key(rest, "s", line)?;
        let (s_field, rest) = next_field(rest, line)?;
        let source =
            checked(unquote(s_field, line)?, is_plain_text, "event source", line)?.to_string();
        let rest = expect_key(rest, "v", line)?;
        let (v_field, rest) = next_field(rest, line)?;
        let value: f64 = v_field
            .parse()
            .map_err(|_| err(line, format!("bad value {v_field:?}")))?;
        if !rest.is_empty() {
            return Err(err(line, "trailing content after event"));
        }
        Ok(ParsedRecord {
            time_ms,
            name,
            source,
            value,
            is_event: true,
        })
    }
}

fn parse_csv_line(line_text: &str, line: usize) -> Result<ParsedRecord, ParseError> {
    let mut fields = line_text.split(',');
    let mut take = |label: &str| {
        fields
            .next()
            .ok_or_else(|| err(line, format!("missing {label} field")))
    };
    let time_ms: u64 = take("time_ms")?
        .parse()
        .map_err(|_| err(line, "bad time_ms"))?;
    let record = take("record")?;
    let name = take("name")?.to_string();
    let source = checked(take("source")?, is_plain_text, "event source", line)?.to_string();
    let value: f64 = take("value")?.parse().map_err(|_| err(line, "bad value"))?;
    if fields.next().is_some() {
        return Err(err(line, "too many fields"));
    }
    let is_event = match record {
        "sample" => {
            checked(&name, is_name, "metric name", line)?;
            if !source.is_empty() {
                return Err(err(line, "sample with a source"));
            }
            false
        }
        "event" => {
            if EventKind::from_name(&name).is_none() {
                return Err(err(line, format!("unknown event kind {name:?}")));
            }
            true
        }
        other => return Err(err(line, format!("unknown record type {other:?}"))),
    };
    Ok(ParsedRecord {
        time_ms,
        name,
        source,
        value,
        is_event,
    })
}

/// Parses a single wire line (either format) into a record.
///
/// `line` is the 1-based line number used in error messages. The CSV
/// header row is *not* accepted here — stream consumers that interleave
/// header lines (a fresh CSV block per sender) should skip them with
/// [`is_csv_header`] before calling.
///
/// This is the per-line entry point for wire use: a daemon ingesting a
/// live stream parses each line as it arrives and turns a failure into
/// a structured per-line error instead of aborting the whole session.
pub fn parse_line(
    line_text: &str,
    line: usize,
    format: Format,
) -> Result<ParsedRecord, ParseError> {
    match format {
        Format::Jsonl => parse_jsonl_line(line_text, line),
        Format::Csv => parse_csv_line(line_text, line),
    }
}

/// `true` when the line is the telemetry CSV header row.
pub fn is_csv_header(line_text: &str) -> bool {
    line_text == CSV_HEADER.trim_end()
}

/// Re-serializes parsed records back to the wire format they came from.
///
/// The exact inverse of [`parse`] for any well-formed trace: names and
/// sources are restricted to an escape-free charset and values use the
/// shortest-round-trip `f64` form in both directions, so
/// `render_parsed(&parse(text)?) == text` byte for byte. This is what a
/// daemon uses to flush the telemetry it retained for a session back to
/// disk without ever holding the original byte stream.
pub fn render_parsed(records: &[ParsedRecord], format: Format) -> String {
    let mut out = String::with_capacity(records.len() * 48);
    if format == Format::Csv {
        out.push_str(CSV_HEADER);
    }
    for r in records {
        let time = SimTime::from_millis(r.time_ms);
        match (format, r.is_event) {
            (Format::Jsonl, false) => write_sample_jsonl(&mut out, time, &r.name, r.value),
            (Format::Csv, false) => write_sample_csv(&mut out, time, &r.name, r.value),
            (format, true) => {
                // Events round-trip through the kind table; an unknown
                // kind cannot exist in a ParsedRecord (the parsers
                // reject it), so fall back to the raw name defensively.
                let name = match EventKind::from_name(&r.name) {
                    Some(kind) => kind.as_str(),
                    None => r.name.as_str(),
                };
                use std::fmt::Write as _;
                match format {
                    Format::Jsonl => {
                        let _ = writeln!(
                            out,
                            "{{\"t\":{},\"e\":\"{}\",\"s\":\"{}\",\"v\":{}}}",
                            r.time_ms, name, r.source, r.value
                        );
                    }
                    Format::Csv => {
                        let _ =
                            writeln!(out, "{},event,{},{},{}", r.time_ms, name, r.source, r.value);
                    }
                }
            }
        }
    }
    out
}

/// Parses a serialized trace (either format) back into records.
///
/// The parser is strict: any malformed line fails the whole parse with
/// its line number, rather than silently skipping data.
pub fn parse(text: &str, format: Format) -> Result<Vec<ParsedRecord>, ParseError> {
    let mut out = Vec::new();
    let mut lines = text.lines().enumerate();
    if format == Format::Csv {
        match lines.next() {
            Some((_, header)) if header == CSV_HEADER.trim_end() => {}
            Some((_, header)) => return Err(err(1, format!("bad CSV header {header:?}"))),
            None => return Ok(out),
        }
    }
    for (idx, line_text) in lines {
        if line_text.is_empty() {
            continue;
        }
        let line = idx + 1;
        out.push(match format {
            Format::Jsonl => parse_jsonl_line(line_text, line)?,
            Format::Csv => parse_csv_line(line_text, line)?,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::record::{EventRecord, Sample};
    use crate::telemetry::MetricRegistry;

    fn sample_records() -> (MetricRegistry, Vec<Record>) {
        let mut reg = MetricRegistry::new();
        let draw = reg.register_gauge("rack-00.draw_w");
        let soc = reg.register_gauge("rack-00.soc");
        let records = vec![
            Record::Sample(Sample {
                time: SimTime::from_millis(100),
                metric: draw,
                value: 123.45,
            }),
            Record::Sample(Sample {
                time: SimTime::from_millis(100),
                metric: soc,
                value: 0.5,
            }),
            Record::Event(EventRecord {
                time: SimTime::from_millis(100),
                kind: EventKind::BreakerTrip,
                source: "rack-00".into(),
                value: 1.0,
            }),
        ];
        (reg, records)
    }

    #[test]
    fn jsonl_round_trips() {
        let (reg, records) = sample_records();
        let text = to_jsonl(&reg, &records);
        assert_eq!(
            text,
            "{\"t\":100,\"m\":\"rack-00.draw_w\",\"v\":123.45}\n\
             {\"t\":100,\"m\":\"rack-00.soc\",\"v\":0.5}\n\
             {\"t\":100,\"e\":\"breaker_trip\",\"s\":\"rack-00\",\"v\":1}\n"
        );
        let parsed = parse(&text, Format::Jsonl).unwrap();
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[0].name, "rack-00.draw_w");
        assert_eq!(parsed[0].value, 123.45);
        assert!(!parsed[0].is_event);
        assert!(parsed[2].is_event);
        assert_eq!(parsed[2].source, "rack-00");
    }

    #[test]
    fn csv_round_trips() {
        let (reg, records) = sample_records();
        let text = to_csv(&reg, &records);
        assert!(text.starts_with(CSV_HEADER));
        let parsed = parse(&text, Format::Csv).unwrap();
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[1].name, "rack-00.soc");
        assert_eq!(parsed[1].value, 0.5);
        assert_eq!(parsed[2].name, "breaker_trip");
    }

    #[test]
    fn malformed_lines_fail_with_line_numbers() {
        let bad = "{\"t\":1,\"m\":\"a\",\"v\":2}\nnot json\n";
        let e = parse(bad, Format::Jsonl).unwrap_err();
        assert_eq!(e.line, 2);

        let e = parse("wrong,header\n", Format::Csv).unwrap_err();
        assert_eq!(e.line, 1);

        let e = parse(
            "{\"t\":1,\"e\":\"no_such_kind\",\"s\":\"x\",\"v\":1}\n",
            Format::Jsonl,
        )
        .unwrap_err();
        assert!(e.message.contains("unknown event kind"));
    }

    /// Parses a stream line by line the way a wire consumer does: skip
    /// blank lines and (for CSV) every header row, hand each other line
    /// to [`parse_line`], and keep its error instead of aborting.
    fn parse_each_line(text: &str, format: Format) -> (Vec<ParsedRecord>, Vec<ParseError>) {
        let (mut records, mut errors) = (Vec::new(), Vec::new());
        for (idx, line_text) in text.lines().enumerate() {
            if line_text.is_empty() || (format == Format::Csv && is_csv_header(line_text)) {
                continue;
            }
            match parse_line(line_text, idx + 1, format) {
                Ok(record) => records.push(record),
                Err(e) => errors.push(e),
            }
        }
        (records, errors)
    }

    /// Each malformed shape a live socket can produce costs exactly its
    /// own line: every well-formed line still parses, the bad one is a
    /// structured error (line number + message), and the survivors
    /// re-serialize cleanly.
    #[test]
    fn lossy_parse_survives_each_malformed_shape() {
        let good_a = "{\"t\":1,\"m\":\"a.x\",\"v\":2}";
        let good_b = "{\"t\":2,\"m\":\"a.x\",\"v\":3}";
        for (label, bad, needle) in [
            // The sender died mid-write.
            ("truncated", "{\"t\":3,\"m\":\"a.x\",\"v\":9", ""),
            // Two records on one line: concurrent writers without line
            // buffering.
            (
                "interleaved",
                "{\"t\":3,\"m\":\"a{\"t\":4,\"m\":\"b.y\",\"v\":1}",
                "",
            ),
            ("bad value", "{\"t\":3,\"m\":\"a.x\",\"v\":1.2.3}", ""),
            (
                "unknown event",
                "{\"t\":3,\"e\":\"no_such\",\"s\":\"x\",\"v\":1}",
                "unknown event kind",
            ),
            ("garbage", "hello world", ""),
        ] {
            let (records, errors) =
                parse_each_line(&format!("{good_a}\n{bad}\n{good_b}\n"), Format::Jsonl);
            assert_eq!(records.len(), 2, "{label}: good lines survive");
            assert_eq!(errors.len(), 1, "{label}: one structured error");
            assert_eq!(errors[0].line, 2, "{label}: error pins the line");
            assert!(!errors[0].message.is_empty(), "{label}");
            assert!(
                errors[0].message.contains(needle),
                "{label}: {}",
                errors[0].message
            );
            assert_eq!(
                render_parsed(&records, Format::Jsonl),
                format!("{good_a}\n{good_b}\n"),
                "{label}: survivors round-trip"
            );
        }
    }

    #[test]
    fn lossy_parse_csv_tolerates_repeated_headers_and_counts_bad_rows() {
        // Several CSV blocks glued together repeat the header; a wire
        // consumer skips it with `is_csv_header`.
        let text = format!(
            "{h}1,sample,a.x,,2\n{h}2,sample,a.x,,3\n3,sample,a.x\n4,bogus,a.x,,1\n",
            h = CSV_HEADER
        );
        let (records, errors) = parse_each_line(&text, Format::Csv);
        assert_eq!(
            records.len(),
            2,
            "rows on both sides of the repeated header"
        );
        assert_eq!(errors.len(), 2);
        assert_eq!((errors[0].line, errors[1].line), (5, 6));
        assert!(errors[0].message.contains("missing"));
        assert!(errors[1].message.contains("unknown record type"));
        // A stream that opens with garbage instead of the header loses
        // line 1 (reported), not the stream.
        let (records, errors) = parse_each_line("wrong,header\n1,sample,a.x,,2\n", Format::Csv);
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].line, 1);
        assert_eq!(records.len(), 1);
    }

    #[test]
    fn strings_outside_the_wire_charset_are_per_line_errors() {
        for (line, format) in [
            (
                "{\"t\":1,\"m\":\"rack-00.dr\"aw_w\",\"v\":2}",
                Format::Jsonl,
            ),
            ("{\"t\":1,\"m\":\"a\\\\b\",\"v\":2}", Format::Jsonl),
            (
                "{\"t\":1,\"e\":\"shed\",\"s\":\"rack\t00\",\"v\":1}",
                Format::Jsonl,
            ),
            ("1,sample,rack-00.dr\"aw_w,,2", Format::Csv),
            ("1,sample,rack-00.draw_w,src,2", Format::Csv),
            ("1,event,shed,rack \"0\",1", Format::Csv),
        ] {
            assert!(parse_line(line, 7, format).is_err(), "{line:?} accepted");
        }
        let e = parse_line("{\"t\":1,\"m\":\"a\"b\",\"v\":2}", 1, Format::Jsonl).unwrap_err();
        assert_eq!(e.line, 1);
        let ok = parse_line(
            "{\"t\":1,\"e\":\"shed\",\"s\":\"cluster feed\",\"v\":1}",
            1,
            Format::Jsonl,
        );
        assert_eq!(ok.unwrap().source, "cluster feed");
    }

    #[test]
    fn parse_line_matches_whole_trace_parse() {
        let (reg, records) = sample_records();
        for format in [Format::Jsonl, Format::Csv] {
            let text = match format {
                Format::Jsonl => to_jsonl(&reg, &records),
                Format::Csv => to_csv(&reg, &records),
            };
            let whole = parse(&text, format).unwrap();
            let by_line: Vec<ParsedRecord> = text
                .lines()
                .filter(|l| !(l.is_empty() || format == Format::Csv && is_csv_header(l)))
                .enumerate()
                .map(|(i, l)| parse_line(l, i + 1, format).unwrap())
                .collect();
            assert_eq!(whole, by_line, "{format:?}");
        }
    }

    #[test]
    fn render_parsed_is_the_exact_inverse_of_parse() {
        let (reg, records) = sample_records();
        for format in [Format::Jsonl, Format::Csv] {
            let text = match format {
                Format::Jsonl => to_jsonl(&reg, &records),
                Format::Csv => to_csv(&reg, &records),
            };
            let parsed = parse(&text, format).unwrap();
            assert_eq!(render_parsed(&parsed, format), text, "{format:?}");
        }
    }

    #[test]
    fn non_finite_gauges_round_trip_both_formats() {
        // NaN, ±inf appear legitimately (e.g. percentile of an empty
        // summary); Rust's f64 Display/parse handles them, and the wire
        // formats must not corrupt them.
        let mut reg = MetricRegistry::new();
        let g = reg.register_gauge("g");
        let records: Vec<Record> = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
            .into_iter()
            .enumerate()
            .map(|(i, value)| {
                Record::Sample(Sample {
                    time: SimTime::from_millis(i as u64),
                    metric: g,
                    value,
                })
            })
            .collect();
        for format in [Format::Jsonl, Format::Csv] {
            let text = match format {
                Format::Jsonl => to_jsonl(&reg, &records),
                Format::Csv => to_csv(&reg, &records),
            };
            let parsed = parse(&text, format).unwrap();
            assert_eq!(parsed.len(), 3);
            assert!(parsed[0].value.is_nan(), "{format:?} NaN");
            assert_eq!(parsed[1].value, f64::INFINITY, "{format:?} +inf");
            assert_eq!(parsed[2].value, f64::NEG_INFINITY, "{format:?} -inf");
        }
    }

    #[test]
    fn format_detection() {
        assert_eq!(Format::from_name("jsonl"), Some(Format::Jsonl));
        assert_eq!(Format::from_name("csv"), Some(Format::Csv));
        assert_eq!(Format::from_name("yaml"), None);
        assert_eq!(Format::from_path("out/telemetry.csv"), Format::Csv);
        assert_eq!(Format::from_path("out/telemetry.jsonl"), Format::Jsonl);
        assert_eq!(Format::from_path("noext"), Format::Jsonl);
    }
}

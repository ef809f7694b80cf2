//! Span records, span-name interning, and the recording sinks.
//!
//! A [`Span`] is one sim-time interval with a causal parent link — the
//! trace analogue of the telemetry layer's point samples. Names are
//! interned through [`SpanNames`] (the registry-style dense-id table),
//! and finished spans flow into a [`RingSpanRecorder`], the bounded
//! in-memory trace a tracer owns (the span analogue of
//! [`RingRecorder`](crate::telemetry::RingRecorder)).

use std::collections::{BTreeMap, VecDeque};

use crate::time::SimTime;

/// Identifies one span within a trace.
///
/// Ids are dense and assigned in span-open order, so sorting by
/// `(start, id)` is a total, deterministic order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(u32);

impl SpanId {
    /// The dense index backing this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    pub(crate) fn from_index(index: u32) -> SpanId {
        SpanId(index)
    }
}

/// Identifies one interned span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanNameId(u16);

impl SpanNameId {
    /// The dense index backing this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
}

/// Interns span names to dense [`SpanNameId`]s.
///
/// Names are restricted to `[A-Za-z0-9._-]` (like metric names), so the
/// wire formats never need escaping.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanNames {
    names: Vec<String>,
    by_name: BTreeMap<String, SpanNameId>,
}

impl SpanNames {
    /// Creates an empty name table.
    pub fn new() -> Self {
        SpanNames::default()
    }

    /// Interns `name`, returning its id (existing or fresh).
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty, contains characters outside
    /// `[A-Za-z0-9._-]`, or the table is full (`u16::MAX` names).
    pub fn intern(&mut self, name: &str) -> SpanNameId {
        assert!(valid_name(name), "invalid span name {name:?}");
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let index = u16::try_from(self.names.len()).expect("span name table full");
        let id = SpanNameId(index);
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// The name behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was minted by a different table.
    pub fn name(&self, id: SpanNameId) -> &str {
        &self.names[id.index()]
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All interned names, in id order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(String::as_str)
    }
}

/// One finished span: a named sim-time interval with a causal parent
/// link and key/value attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// This span's id (dense, in open order).
    pub id: SpanId,
    /// Interned name (resolve via [`SpanNames::name`]).
    pub name: SpanNameId,
    /// The span that causally produced this one, if any.
    pub parent: Option<SpanId>,
    /// When the span opened.
    pub start: SimTime,
    /// When the span closed (dump time for spans still open at the end
    /// of a run).
    pub end: SimTime,
    /// Key/value attributes, in insertion order. Keys share the span
    /// name charset (`[A-Za-z0-9._-]`).
    pub attrs: Vec<(String, f64)>,
}

impl Span {
    /// Looks up one attribute by key.
    pub fn attr(&self, key: &str) -> Option<f64> {
        self.attrs.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }
}

/// Sorts spans into canonical trace order: `(start, id)`.
///
/// Ids are assigned in open order, so this order is total and identical
/// for any run of the same scenario — the span half of the byte-identical
/// determinism contract.
pub fn sort_spans(spans: &mut [Span]) {
    spans.sort_by_key(|s| (s.start, s.id));
}

/// A bounded in-memory span sink: keeps the most recent `capacity`
/// finished spans, counting evictions.
#[derive(Debug, Clone, PartialEq)]
pub struct RingSpanRecorder {
    buf: VecDeque<Span>,
    capacity: usize,
    dropped: u64,
}

impl RingSpanRecorder {
    /// Creates a ring holding at most `capacity` spans.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be non-zero");
        RingSpanRecorder {
            buf: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
        }
    }

    /// Spans evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the ring, returning the retained spans in record order.
    pub fn into_spans(self) -> Vec<Span> {
        self.buf.into()
    }

    /// Accepts one finished span, evicting the oldest when full.
    pub fn record_span(&mut self, span: Span) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedupes_and_resolves() {
        let mut names = SpanNames::new();
        let a = names.intern("attack.drain");
        let b = names.intern("batt.discharge");
        assert_eq!(names.intern("attack.drain"), a);
        assert_ne!(a, b);
        assert_eq!(names.name(a), "attack.drain");
        assert_eq!(names.len(), 2);
        assert_eq!(
            names.names().collect::<Vec<_>>(),
            vec!["attack.drain", "batt.discharge"]
        );
    }

    #[test]
    #[should_panic(expected = "invalid span name")]
    fn bad_name_rejected() {
        SpanNames::new().intern("has space");
    }

    #[test]
    fn ring_evicts_oldest_and_counts() {
        let mut ring = RingSpanRecorder::new(2);
        for i in 0..3u32 {
            ring.record_span(Span {
                id: SpanId(i),
                name: SpanNameId(0),
                parent: None,
                start: SimTime::from_millis(u64::from(i)),
                end: SimTime::from_millis(u64::from(i)),
                attrs: Vec::new(),
            });
        }
        assert_eq!(ring.dropped(), 1);
        let kept = ring.into_spans();
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].id, SpanId(1));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_ring_capacity_rejected() {
        RingSpanRecorder::new(0);
    }

    #[test]
    fn sort_is_by_start_then_id() {
        let mk = |id: u32, start: u64| Span {
            id: SpanId(id),
            name: SpanNameId(0),
            parent: None,
            start: SimTime::from_millis(start),
            end: SimTime::from_millis(start),
            attrs: Vec::new(),
        };
        let mut spans = vec![mk(2, 100), mk(0, 100), mk(1, 50)];
        sort_spans(&mut spans);
        let order: Vec<u32> = spans.iter().map(|s| s.id.0).collect();
        assert_eq!(order, vec![1, 0, 2]);
    }
}

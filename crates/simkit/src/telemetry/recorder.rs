//! The in-memory telemetry recorder.
//!
//! [`RingRecorder`] is a bounded ring buffer that evicts the oldest
//! record when full and counts what it dropped. Sweeps record into one
//! ring per scenario, then serialize after the sweep, which is how
//! parallel telemetry stays byte-identical to serial. A simulation with
//! telemetry off owns no recorder at all; serialization to JSONL/CSV is
//! the batch codec in [`codec`](crate::telemetry::codec).

use std::collections::VecDeque;

use crate::telemetry::record::{EventKind, EventRecord, Record, Sample};
use crate::telemetry::MetricId;
use crate::time::SimTime;

/// Bounded in-memory trace: keeps the most recent `capacity` records,
/// evicting the oldest and counting drops.
///
/// Records must arrive already ordered within a tick and carry only
/// [`SimTime`] — never wall-clock time.
///
/// # Example
///
/// ```
/// use simkit::telemetry::{MetricRegistry, RingRecorder};
/// use simkit::time::SimTime;
///
/// let mut reg = MetricRegistry::new();
/// let m = reg.register_gauge("g");
/// let mut ring = RingRecorder::new(2);
/// for i in 0..3 {
///     ring.record_sample(SimTime::from_millis(i), m, i as f64);
/// }
/// assert_eq!(ring.len(), 2);
/// assert_eq!(ring.dropped(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RingRecorder {
    records: VecDeque<Record>,
    capacity: usize,
    dropped: u64,
}

impl RingRecorder {
    /// Creates a ring holding at most `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring recorder needs capacity >= 1");
        RingRecorder {
            records: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
        }
    }

    fn push(&mut self, record: Record) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(record);
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` if nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// How many records were evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl ExactSizeIterator<Item = &Record> {
        self.records.iter()
    }

    /// Consumes the ring, returning the retained records oldest first.
    pub fn into_records(self) -> Vec<Record> {
        self.records.into()
    }

    /// Records one metric observation.
    pub fn record_sample(&mut self, time: SimTime, metric: MetricId, value: f64) {
        self.push(Record::Sample(Sample {
            time,
            metric,
            value,
        }));
    }

    /// Records one typed event.
    pub fn record_event(&mut self, time: SimTime, kind: EventKind, source: &str, value: f64) {
        self.push(Record::Event(EventRecord {
            time,
            kind,
            source: source.to_string(),
            value,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::MetricRegistry;

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut reg = MetricRegistry::new();
        let m = reg.register_gauge("g");
        let mut ring = RingRecorder::new(3);
        for i in 0..5u64 {
            ring.record_sample(SimTime::from_millis(i), m, i as f64);
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let first = ring.records().next().unwrap().time().as_millis();
        assert_eq!(first, 2, "oldest two records were evicted");
    }

    #[test]
    fn sink_dispatches_by_variant() {
        let mut reg = MetricRegistry::new();
        let m = reg.register_gauge("g");
        let mut ring = RingRecorder::new(8);
        ring.record_sample(SimTime::ZERO, m, 1.0);
        ring.record_event(SimTime::ZERO, EventKind::BreakerTrip, "rack-00", 1.0);
        let records = ring.into_records();
        assert!(matches!(&records[0], Record::Sample(s) if s.metric == m && s.value == 1.0));
        assert!(matches!(
            &records[1],
            Record::Event(e) if e.kind == EventKind::BreakerTrip && e.source == "rack-00"
        ));
        assert_eq!(records.len(), 2);
    }
}

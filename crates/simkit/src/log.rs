//! Structured simulation event logging.
//!
//! Long simulations need a forensic trail: when did the LVD isolate a
//! battery, when did capping engage, when did the policy escalate?
//! [`EventLog`] is a bounded, allocation-light recorder the simulator
//! writes to and CLIs/experiments read back or print.
//!
//! Retention is **per severity**: each severity level has its own
//! bounded lane, so a flood of Info noise can never evict the Critical
//! incidents a post-mortem actually needs. Severity filtering happens at
//! push time ([`EventLog::with_min_severity`]) — filtered events are
//! never buffered, so they cannot displace anything.

use std::collections::VecDeque;
use std::fmt;

use crate::time::SimTime;

/// Log severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Routine state changes (recharge episodes, cap lifts).
    Info,
    /// Degraded conditions (battery isolated, capping engaged).
    Warning,
    /// Incidents (overloads, breaker trips, load shedding).
    Critical,
}

/// Number of severity levels (one retention lane each).
const LANES: usize = 3;

impl Severity {
    /// Every severity, in ascending order.
    pub const ALL: [Severity; LANES] = [Severity::Info, Severity::Warning, Severity::Critical];

    /// Short tag used in rendered output.
    pub fn tag(self) -> &'static str {
        match self {
            Severity::Info => "INFO",
            Severity::Warning => "WARN",
            Severity::Critical => "CRIT",
        }
    }

    /// Dense index of this severity (its retention lane).
    fn idx(self) -> usize {
        match self {
            Severity::Info => 0,
            Severity::Warning => 1,
            Severity::Critical => 2,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEvent {
    /// Simulation time of the event.
    pub time: SimTime,
    /// Severity.
    pub severity: Severity,
    /// Originating component (e.g. `"rack-03"`, `"policy"`).
    pub source: String,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for LogEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} {:<10} {}",
            self.time, self.severity, self.source, self.message
        )
    }
}

/// A bounded in-memory event log with per-severity retention.
///
/// Each severity keeps its own lane of at most its cap (by default, the
/// log's overall capacity), and the oldest event *of that severity* is
/// evicted when its lane fills. This fixes the classic bounded-buffer
/// failure where an Info flood silently evicts the rare Critical events:
/// here Info can only evict Info. Eviction counts are kept so consumers
/// know the log is partial, and [`events`](EventLog::events) merges the
/// lanes back into recording order via per-event sequence numbers.
///
/// Events below a minimum severity (see
/// [`with_min_severity`](EventLog::with_min_severity)) are dropped at
/// push time — counted in [`filtered`](EventLog::filtered), never
/// buffered.
///
/// # Example
///
/// ```
/// use simkit::log::{EventLog, Severity};
/// use simkit::time::SimTime;
///
/// let mut log = EventLog::new(100);
/// log.record(SimTime::from_secs(5), Severity::Warning, "rack-03", "battery isolated (LVD)");
/// assert_eq!(log.len(), 1);
/// assert_eq!(log.events().next().unwrap().severity, Severity::Warning);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventLog {
    lanes: [VecDeque<(u64, LogEvent)>; LANES],
    caps: [usize; LANES],
    min_severity: Severity,
    next_seq: u64,
    evicted: u64,
    filtered: u64,
}

impl EventLog {
    /// Creates a log where every severity lane holds at most `capacity`
    /// events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "log capacity must be non-zero");
        EventLog {
            lanes: std::array::from_fn(|_| VecDeque::new()),
            caps: [capacity; LANES],
            min_severity: Severity::Info,
            next_seq: 0,
            evicted: 0,
            filtered: 0,
        }
    }

    /// Drops events below `severity` at push time (they are counted in
    /// [`filtered`](EventLog::filtered) but never buffered).
    pub fn with_min_severity(mut self, severity: Severity) -> Self {
        self.min_severity = severity;
        self
    }

    /// Overrides the retention cap for one severity lane.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn with_severity_cap(mut self, severity: Severity, cap: usize) -> Self {
        assert!(cap > 0, "log capacity must be non-zero");
        self.caps[severity.idx()] = cap;
        self
    }

    /// The push-time severity floor.
    pub fn min_severity(&self) -> Severity {
        self.min_severity
    }

    /// Records one event.
    pub fn record(
        &mut self,
        time: SimTime,
        severity: Severity,
        source: impl Into<String>,
        message: impl Into<String>,
    ) {
        if severity < self.min_severity {
            self.filtered += 1;
            return;
        }
        let lane = &mut self.lanes[severity.idx()];
        if lane.len() == self.caps[severity.idx()] {
            lane.pop_front();
            self.evicted += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        lane.push_back((
            seq,
            LogEvent {
                time,
                severity,
                source: source.into(),
                message: message.into(),
            },
        ));
    }

    /// All retained events, oldest first (lanes merged back into
    /// recording order).
    pub fn events(&self) -> impl ExactSizeIterator<Item = &LogEvent> {
        let mut merged: Vec<&(u64, LogEvent)> = self.lanes.iter().flatten().collect();
        merged.sort_by_key(|(seq, _)| *seq);
        merged.into_iter().map(|(_, e)| e)
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }

    /// `true` if nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.lanes.iter().all(VecDeque::is_empty)
    }

    /// How many events were evicted to respect lane capacities.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// How many events were dropped at push time by the severity floor.
    pub fn filtered(&self) -> u64 {
        self.filtered
    }

    /// Events at or above `severity`, in recording order.
    pub fn at_least(&self, severity: Severity) -> impl Iterator<Item = &LogEvent> {
        self.events().filter(move |e| e.severity >= severity)
    }

    /// Retained event counts per severity lane, in [`Severity::ALL`]
    /// order.
    pub fn severity_counts(&self) -> [usize; LANES] {
        let mut counts = [0; LANES];
        for (i, lane) in self.lanes.iter().enumerate() {
            counts[i] = lane.len();
        }
        counts
    }

    /// Renders the retained events as lines.
    ///
    /// A footer line summarizes retained counts per severity (so a reader
    /// can see at a glance how many warnings/criticals — e.g. injected
    /// faults — the run produced). When the log is partial, a second
    /// footer line reports how many events were evicted by lane capacity
    /// and how many were filtered by the severity floor, so readers know
    /// what is missing.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.evicted > 0 {
            out.push_str(&format!(
                "... {} earlier events evicted ...\n",
                self.evicted
            ));
        }
        for e in self.events() {
            out.push_str(&format!("{e}\n"));
        }
        if !self.is_empty() {
            let counts = self.severity_counts();
            let parts: Vec<String> = Severity::ALL
                .iter()
                .zip(counts)
                .map(|(s, n)| format!("{n} {s}"))
                .collect();
            out.push_str(&format!("-- severity: {} --\n", parts.join(", ")));
        }
        if self.evicted > 0 || self.filtered > 0 {
            out.push_str(&format!(
                "-- partial log: {} evicted, {} filtered --\n",
                self.evicted, self.filtered
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order() {
        let mut log = EventLog::new(10);
        log.record(SimTime::from_secs(1), Severity::Info, "a", "one");
        log.record(SimTime::from_secs(2), Severity::Critical, "b", "two");
        let events: Vec<_> = log.events().collect();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].message, "one");
        assert_eq!(events[1].severity, Severity::Critical);
    }

    #[test]
    fn evicts_oldest_beyond_capacity() {
        let mut log = EventLog::new(3);
        for i in 0..5u64 {
            log.record(SimTime::from_secs(i), Severity::Info, "s", format!("{i}"));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.evicted(), 2);
        let first = log.events().next().unwrap();
        assert_eq!(first.message, "2");
        assert!(log.render().starts_with("... 2 earlier events evicted"));
    }

    #[test]
    fn info_flood_cannot_evict_critical_events() {
        let mut log = EventLog::new(3);
        log.record(SimTime::ZERO, Severity::Critical, "s", "breaker trip");
        for i in 0..100u64 {
            log.record(
                SimTime::from_secs(i),
                Severity::Info,
                "s",
                format!("noise {i}"),
            );
        }
        let criticals: Vec<_> = log.at_least(Severity::Critical).collect();
        assert_eq!(criticals.len(), 1, "the incident survived the flood");
        assert_eq!(criticals[0].message, "breaker trip");
        assert_eq!(log.len(), 4, "3 retained Info + 1 Critical");
        assert_eq!(log.evicted(), 97);
        // And the merge preserves recording order: Critical came first.
        assert_eq!(log.events().next().unwrap().severity, Severity::Critical);
    }

    #[test]
    fn per_severity_caps_are_independent() {
        let mut log = EventLog::new(10)
            .with_severity_cap(Severity::Info, 2)
            .with_severity_cap(Severity::Critical, 5);
        for i in 0..4u64 {
            log.record(SimTime::from_secs(i), Severity::Info, "s", format!("i{i}"));
            log.record(
                SimTime::from_secs(i),
                Severity::Critical,
                "s",
                format!("c{i}"),
            );
        }
        let infos: Vec<_> = log
            .events()
            .filter(|e| e.severity == Severity::Info)
            .map(|e| e.message.clone())
            .collect();
        assert_eq!(infos, vec!["i2", "i3"], "Info lane capped at 2");
        assert_eq!(log.at_least(Severity::Critical).count(), 4);
        assert_eq!(log.evicted(), 2);
    }

    #[test]
    fn min_severity_filters_at_push_time() {
        let mut log = EventLog::new(2).with_min_severity(Severity::Warning);
        // A flood of below-floor events must not evict anything.
        for i in 0..50u64 {
            log.record(SimTime::from_secs(i), Severity::Info, "s", "noise");
        }
        log.record(SimTime::ZERO, Severity::Warning, "s", "capping");
        log.record(SimTime::ZERO, Severity::Critical, "s", "trip");
        assert_eq!(log.len(), 2);
        assert_eq!(log.filtered(), 50);
        assert_eq!(log.evicted(), 0, "filtered events never occupied a slot");
        assert_eq!(log.min_severity(), Severity::Warning);
    }

    #[test]
    fn render_footer_reports_evicted_and_filtered() {
        // Complete log: no footer.
        let mut log = EventLog::new(10);
        log.record(SimTime::ZERO, Severity::Info, "s", "ok");
        assert!(!log.render().contains("partial log"));

        // Evictions and severity filtering both surface in the footer.
        let mut log = EventLog::new(2).with_min_severity(Severity::Warning);
        for i in 0..3u64 {
            log.record(SimTime::from_secs(i), Severity::Info, "s", "noise");
            log.record(SimTime::from_secs(i), Severity::Warning, "s", "warn");
        }
        let text = log.render();
        assert!(text.ends_with("-- partial log: 1 evicted, 3 filtered --\n"));
    }

    #[test]
    fn render_footer_reports_severity_counts() {
        let mut log = EventLog::new(10);
        assert!(!log.render().contains("severity:"), "empty log: no footer");
        log.record(SimTime::ZERO, Severity::Info, "s", "i");
        log.record(SimTime::ZERO, Severity::Warning, "s", "fault injected");
        log.record(SimTime::ZERO, Severity::Warning, "s", "fault cleared");
        log.record(SimTime::ZERO, Severity::Critical, "s", "trip");
        let text = log.render();
        assert!(text.contains("-- severity: 1 INFO, 2 WARN, 1 CRIT --\n"));
        assert_eq!(log.severity_counts(), [1, 2, 1]);
        // The severity line comes before any partial-log line.
        let mut log = EventLog::new(1);
        log.record(SimTime::ZERO, Severity::Info, "s", "a");
        log.record(SimTime::ZERO, Severity::Info, "s", "b");
        let text = log.render();
        let sev = text.find("-- severity:").unwrap();
        let partial = text.find("-- partial log:").unwrap();
        assert!(sev < partial);
    }

    #[test]
    fn severity_filter() {
        let mut log = EventLog::new(10);
        log.record(SimTime::ZERO, Severity::Info, "s", "i");
        log.record(SimTime::ZERO, Severity::Warning, "s", "w");
        log.record(SimTime::ZERO, Severity::Critical, "s", "c");
        assert_eq!(log.at_least(Severity::Warning).count(), 2);
        assert_eq!(log.at_least(Severity::Critical).count(), 1);
        assert!(Severity::Critical > Severity::Info);
    }

    #[test]
    fn display_format() {
        let e = LogEvent {
            time: SimTime::from_secs(90),
            severity: Severity::Warning,
            source: "rack-03".into(),
            message: "battery isolated".into(),
        };
        let text = e.to_string();
        assert!(text.contains("00:01:30.000"));
        assert!(text.contains("WARN"));
        assert!(text.contains("rack-03"));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        EventLog::new(0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_lane_cap_rejected() {
        let _ = EventLog::new(1).with_severity_cap(Severity::Info, 0);
    }
}

//! In-memory span recording for the traced runs.
//!
//! Spans are opened and closed from the benchmark's own code around
//! calls into the program's public functions. Each lane is one thread
//! of execution with a known wall interval; a lane's self times (span
//! duration minus the part its children cover) plus its idle time add
//! up to the lane's wall time exactly, which is how the traced run
//! accounts for every second it measured.
//!
//! Per-line daemon calls are too many to keep one record each, so a
//! [`Tally`] folds them into one aggregate child per (session, layer):
//! the record keeps the call count and summed duration.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `sim.build`.
    pub name: &'static str,
    /// Lane (thread) the span ran on.
    pub lane: usize,
    /// Index of the parent span in the same [`Trace`], if any.
    pub parent: Option<usize>,
    /// Scenario or session the span belongs to.
    pub owner: u64,
    /// Offset of the span's start from the trace origin.
    pub start: Duration,
    /// Span duration. For aggregate spans, the summed call durations.
    pub dur: Duration,
    /// Calls folded into this record (1 for an ordinary span).
    pub calls: u64,
}

/// A whole traced run: spans plus the wall interval of every lane.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    lanes: Vec<Duration>,
}

/// Per-layer totals derived from a [`Trace`].
#[derive(Debug, Default)]
pub struct Accounting {
    /// Self time per span name, in seconds.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Inclusive time per span name, in seconds.
    pub total_s: BTreeMap<&'static str, f64>,
    /// Calls per span name.
    pub calls: BTreeMap<&'static str, u64>,
    /// Sum of lane walls (thread-seconds the trace covers).
    pub wall_s: f64,
    /// Lane time no span covered.
    pub idle_s: f64,
}

impl Accounting {
    /// Self time of `name`, 0 when it never ran.
    pub fn self_of(&self, name: &str) -> f64 {
        self.self_s.get(name).copied().unwrap_or(0.0)
    }

    /// Inclusive time of `name`, 0 when it never ran.
    pub fn total_of(&self, name: &str) -> f64 {
        self.total_s.get(name).copied().unwrap_or(0.0)
    }

    /// Call count of `name`.
    pub fn calls_of(&self, name: &str) -> u64 {
        self.calls.get(name).copied().unwrap_or(0)
    }

    /// Self times plus idle time, which must equal [`wall_s`](Self::wall_s).
    pub fn accounted_s(&self) -> f64 {
        self.self_s.values().sum::<f64>() + self.idle_s
    }
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            lanes: Vec::new(),
        }
    }

    /// The trace's time origin.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Registers a lane that was live for `wall` and returns its index.
    pub fn add_lane(&mut self, wall: Duration) -> usize {
        self.lanes.push(wall);
        self.lanes.len() - 1
    }

    /// Appends spans recorded by a [`Recorder`] on `lane`.
    pub fn absorb(&mut self, lane: usize, recorder: Recorder) {
        let base = self.spans.len();
        for mut span in recorder.spans {
            span.lane = lane;
            span.parent = span.parent.map(|p| p + base);
            self.spans.push(span);
        }
    }

    /// Self time per layer plus lane idle time.
    ///
    /// # Panics
    ///
    /// Panics when children cover more than their parent, or spans
    /// cover more than their lane: either means the recording is wrong.
    pub fn account(&self) -> Accounting {
        let mut child_cover = vec![Duration::ZERO; self.spans.len()];
        let mut lane_cover = vec![Duration::ZERO; self.lanes.len()];
        for span in &self.spans {
            match span.parent {
                Some(p) => child_cover[p] += span.dur,
                None => lane_cover[span.lane] += span.dur,
            }
        }
        let mut acc = Accounting::default();
        for (span, cover) in self.spans.iter().zip(&child_cover) {
            let own = span.dur.checked_sub(*cover).unwrap_or_else(|| {
                panic!("children of span {} outlast it", span.name);
            });
            *acc.self_s.entry(span.name).or_default() += own.as_secs_f64();
            *acc.total_s.entry(span.name).or_default() += span.dur.as_secs_f64();
            *acc.calls.entry(span.name).or_default() += span.calls;
        }
        for (wall, cover) in self.lanes.iter().zip(&lane_cover) {
            // Lane walls are read from a separate clock pair than the
            // spans inside them; allow the few nanoseconds that costs.
            let idle = wall.as_secs_f64() - cover.as_secs_f64();
            assert!(idle > -1e-4, "spans outlast their lane by {}s", -idle);
            acc.wall_s += wall.as_secs_f64();
            acc.idle_s += idle;
        }
        acc
    }

    /// The spans as JSON lines, in recording order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"lane\":{},\"parent\":{parent},\"owner\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"calls\":{}}}",
                s.name,
                s.lane,
                s.owner,
                s.start.as_nanos(),
                (s.start + s.dur).as_nanos(),
                s.calls
            );
        }
        out
    }
}

/// Records spans on one thread; merged into a [`Trace`] afterwards.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<(usize, Instant)>,
}

impl Recorder {
    /// A recorder timing against `origin` (the trace's origin).
    pub fn new(origin: Instant) -> Self {
        Recorder {
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, owner: u64) {
        let now = Instant::now();
        self.spans.push(Span {
            name,
            lane: 0,
            parent: self.stack.last().map(|&(id, _)| id),
            owner,
            start: now - self.origin,
            dur: Duration::ZERO,
            calls: 1,
        });
        self.stack.push((self.spans.len() - 1, now));
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let (id, started) = self.stack.pop().expect("exit matches an enter");
        self.spans[id].dur = started.elapsed();
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, owner: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, owner);
        let out = f();
        self.exit();
        out
    }

    /// Adds a finished child of the innermost open span whose duration
    /// was measured elsewhere: the simulator profiler's step phases, or
    /// a [`Tally`]'s per-line aggregates.
    pub fn child(&mut self, name: &'static str, owner: u64, dur: Duration, calls: u64) {
        let &(parent, started) = self.stack.last().expect("child needs an open span");
        self.spans.push(Span {
            name,
            lane: 0,
            parent: Some(parent),
            owner,
            start: started - self.origin,
            dur,
            calls,
        });
    }
}

/// Per-layer accumulators for calls too frequent to record one by one.
#[derive(Debug)]
pub struct Tally {
    names: &'static [&'static str],
    slots: Vec<(Duration, u64)>,
}

impl Tally {
    /// A tally over the layers `names`; [`add`](Self::add) takes an
    /// index into it.
    pub fn new(names: &'static [&'static str]) -> Self {
        Tally {
            names,
            slots: vec![(Duration::ZERO, 0); names.len()],
        }
    }

    /// Adds one call of layer `slot` that took `dur`.
    #[inline]
    pub fn add(&mut self, slot: usize, dur: Duration) {
        let entry = &mut self.slots[slot];
        entry.0 += dur;
        entry.1 += 1;
    }

    /// Emits every layer that ran as an aggregate child of the
    /// recorder's open span and clears the tally.
    pub fn flush_into(&mut self, rec: &mut Recorder, owner: u64) {
        for (name, slot) in self.names.iter().zip(&mut self.slots) {
            if slot.1 > 0 {
                rec.child(name, owner, slot.0, slot.1);
            }
            *slot = (Duration::ZERO, 0);
        }
    }
}

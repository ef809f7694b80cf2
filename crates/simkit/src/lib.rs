//! Discrete-event simulation substrate for the PAD reproduction.
//!
//! `simkit` is the dependency-free foundation that every other crate in this
//! workspace builds on. It provides:
//!
//! * [`time`] — millisecond-resolution simulation time ([`SimTime`]) and
//!   duration ([`SimDuration`]) newtypes with saturating arithmetic;
//! * [`event`] — a deterministic event queue with stable FIFO ordering for
//!   simultaneous events;
//! * [`engine`] — a minimal simulation driver that dispatches queued events
//!   to a user handler until a stop condition is met;
//! * [`rng`] — a seedable, *splittable* random number generator
//!   (xoshiro256** seeded via SplitMix64) so every simulation component can
//!   own an independent, reproducible random stream;
//! * [`stats`] — online (Welford) statistics, percentiles, histograms and
//!   empirical CDFs used by the experiment harness;
//! * [`series`] — fixed-step time-series containers with resampling;
//! * [`table`] and [`heatmap`] — plain-text renderers used to print the
//!   paper's tables and figure series;
//! * [`telemetry`] — a deterministic metrics registry, per-tick trace
//!   recording (a bounded `RingRecorder`, JSONL/CSV codecs) and offline
//!   trace inspection;
//! * [`trace`] — sim-time **spans** with causal parent links (a bounded
//!   `RingSpanRecorder`, JSONL/CSV codecs) and forensic incident reconstruction
//!   over a recorded span trace;
//! * [`alert`] — a deterministic alerting rule engine (threshold,
//!   rate-of-change, deadman/staleness rules with for-duration hold and
//!   hysteresis) evaluated over any metric registry at caller-chosen
//!   instants, with a JSON rules codec and Prometheus `ALERTS` rendering;
//! * [`detect`] — allocation-light streaming anomaly detectors (EWMA
//!   z-score, CUSUM, spike-train, drain-rate) and a `DetectorBank` that
//!   consumes telemetry streams live or replayed;
//! * [`fault`] — deterministic fault-injection plans (`FaultPlan`
//!   schedules of sensor/message/component faults over sim-time windows,
//!   JSON round-trip, seed-stable per-spec random streams);
//! * [`jsonio`] — the shared minimal JSON value model, no-escape parser
//!   and deterministic `f64` rendering used by every wire codec;
//! * [`chaos`] — wire-level chaos plans (`ChaosPlan` byte/line faults on
//!   a TCP stream) and an in-process fault-injecting TCP proxy;
//! * [`mc`] — a bounded exhaustive model checker (DFS/BFS over action
//!   interleavings, FNV-1a state fingerprints for visited-set pruning,
//!   pluggable safety/liveness properties, counterexample traces);
//! * [`prof`] — self-profiling (interned phase IDs, lap
//!   timers with per-phase call/total/max aggregates, and throughput
//!   accounting for the simulated-work-per-wall-second CI number).
//!
//! # Example
//!
//! ```
//! use simkit::prelude::*;
//!
//! let mut queue = EventQueue::new();
//! queue.push(SimTime::from_secs(2), "breaker check");
//! queue.push(SimTime::from_secs(1), "battery step");
//!
//! let mut engine = Engine::new(queue);
//! let mut log = Vec::new();
//! engine.run(|_queue, time, event| {
//!     log.push((time, event));
//!     ControlFlow::Continue
//! });
//! assert_eq!(log[0].1, "battery step");
//! assert_eq!(log[1].1, "breaker check");
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod alert;
pub mod chaos;
pub mod detect;
pub mod engine;
pub mod event;
pub mod fault;
pub mod heatmap;
pub mod jsonio;
pub mod log;
pub mod mc;
pub mod prof;
pub mod rng;
pub mod series;
pub mod stats;
pub mod sweep;
pub mod table;
pub mod telemetry;
pub mod time;
pub mod trace;

/// Convenient re-exports of the most common `simkit` items.
pub mod prelude {
    pub use crate::detect::{Detector, DetectorBank, FusedVerdict, StreamDetector, Verdict};
    pub use crate::engine::{ControlFlow, Engine};
    pub use crate::event::EventQueue;
    pub use crate::fault::{FaultKind, FaultPlan, FaultSpec, FaultTarget};
    pub use crate::log::{EventLog, Severity};
    pub use crate::mc::{Checker, McModel, McReport, Property, Strategy};
    pub use crate::prof::{LapTimer, PhaseId, PhaseStats, ProfDump, Profiler, Throughput};
    pub use crate::rng::RngStream;
    pub use crate::series::TimeSeries;
    pub use crate::stats::{OnlineStats, ScenarioCost, Summary};
    pub use crate::sweep::{
        scenario_seed, scenario_stream, Metered, SweepProfile, SweepRunner, WorkerProfile,
    };
    pub use crate::telemetry::{EventKind, MetricId, MetricRegistry, RingRecorder, TelemetryDump};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::trace::{RingSpanRecorder, Span, SpanId, TraceDump, Tracer};
}

pub use detect::{Detector, DetectorBank, FusedVerdict, StreamDetector, Verdict};
pub use engine::{ControlFlow, Engine};
pub use event::EventQueue;
pub use fault::{FaultKind, FaultPlan, FaultSpec, FaultTarget};
pub use log::{EventLog, Severity};
pub use mc::{Checker, McModel, McReport, Property, Strategy};
pub use prof::{ProfDump, Profiler};
pub use rng::RngStream;
pub use series::TimeSeries;
pub use stats::{OnlineStats, ScenarioCost};
pub use sweep::{Metered, SweepRunner};
pub use telemetry::{MetricId, MetricRegistry, TelemetryDump};
pub use time::{SimDuration, SimTime};
pub use trace::{SpanId, TraceDump, Tracer};

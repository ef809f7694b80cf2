//! Streaming anomaly detectors over telemetry streams.
//!
//! Interval metering misses hidden power spikes (the paper's Table I):
//! a 1-second spike averaged into a 5-minute energy window moves the
//! window mean by well under the measurement noise. This module provides
//! the *online* alternative: allocation-light detectors that consume the
//! per-tick telemetry stream sample-by-sample and raise a verdict the
//! moment a sample (or a short run of samples) is inconsistent with the
//! learned baseline.
//!
//! Four detector families cover the signals a power attack distorts:
//!
//! * [`EwmaZScore`] — exponentially-weighted baseline + residual
//!   z-score; catches individual amplitude spikes on draw gauges.
//! * [`Cusum`] — two-sided cumulative-sum change-point statistic over a
//!   frozen calibration baseline; catches small sustained shifts (Phase-I
//!   drain loads, µDEB shave activity) that no single sample reveals.
//! * [`SpikeTrainDetector`] — rising-edge spike events collected in a
//!   time-windowed ring buffer; fires on spike *cadence* (the Phase-II
//!   train), and exposes inter-arrival/amplitude statistics.
//! * [`DrainRateDetector`] — windowed state-of-charge slope estimator;
//!   fires when SOC falls faster than any benign discharge would.
//!
//! Every detector implements [`StreamDetector`]: `push(t, value)`
//! returns a [`Verdict`] whose `score` is normalized so `score >= 1.0`
//! means *fired*. A [`DetectorBank`] subscribes detectors to
//! [`MetricId`]s and consumes a record stream either live (in-sim, via
//! [`DetectorBank::observe`]) or offline (replayed from the JSONL/CSV
//! wire format via [`DetectorBank::replay`]); because detector state
//! advances only on that stream and trace values round-trip bit-exactly
//! through the codec, the live and replayed verdict sequences are
//! byte-identical.
//!
//! # Example
//!
//! ```
//! use simkit::detect::{Detector, DetectorBank, EwmaZScore};
//! use simkit::telemetry::MetricRegistry;
//! use simkit::time::SimTime;
//!
//! let mut reg = MetricRegistry::new();
//! let draw = reg.register_gauge("rack-00.draw_w");
//! let mut bank = DetectorBank::new(1);
//! bank.subscribe(draw, "rack-00.ewma", Detector::Ewma(EwmaZScore::new(0.05, 5.0)));
//! for i in 0..100 {
//!     bank.observe(SimTime::from_millis(i * 100), draw, 500.0 + (i % 3) as f64);
//! }
//! assert!(!bank.fused().fired, "steady draw stays quiet");
//! bank.observe(SimTime::from_secs(10), draw, 1500.0);
//! assert!(bank.fused().fired, "a 3x spike fires");
//! ```

use std::collections::VecDeque;

use crate::jsonio::{Json, JsonWriter, ObjFields};
use crate::log::Severity;
use crate::stats::OnlineStats;
use crate::telemetry::codec::ParsedRecord;
use crate::telemetry::{MetricId, MetricRegistry};
use crate::time::{SimDuration, SimTime};

/// One detector's judgement of the stream after a sample.
///
/// `score` is normalized to the detector's firing threshold: `1.0` sits
/// exactly on the threshold, and [`Verdict::fired`] is `score >= 1.0`.
/// Scores are comparable across detector families, which is what lets a
/// [`DetectorBank`] fuse them by maximum.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Verdict {
    /// Threshold-normalized anomaly score (`>= 0`, unbounded above).
    pub score: f64,
    /// `true` when the score is at or above the firing threshold.
    pub fired: bool,
}

impl Verdict {
    /// A quiet verdict (zero score, not fired).
    pub const QUIET: Verdict = Verdict {
        score: 0.0,
        fired: false,
    };

    /// Builds a verdict from a normalized score.
    pub fn from_score(score: f64) -> Verdict {
        Verdict {
            score,
            fired: score >= 1.0,
        }
    }
}

/// An online detector consuming one metric's sample stream.
pub trait StreamDetector {
    /// Feeds one observation and returns the updated verdict.
    ///
    /// Timestamps must be non-decreasing; detectors use them only for
    /// windowing, never for wall-clock behaviour, so replaying a
    /// recorded stream reproduces the live verdict sequence exactly.
    fn push(&mut self, t: SimTime, value: f64) -> Verdict;

    /// Forgets all learned state, returning to the just-built state.
    fn reset(&mut self);
}

/// EWMA baseline + residual z-score detector.
///
/// Tracks an exponentially-weighted mean and variance of the stream and
/// scores each sample by its absolute z-score against that baseline.
/// While fired, the baseline is frozen so a sustained excursion keeps
/// firing instead of teaching the detector that spikes are normal.
#[derive(Debug, Clone, PartialEq)]
pub struct EwmaZScore {
    alpha: f64,
    threshold: f64,
    warmup: u64,
    min_std: f64,
    seen: u64,
    mean: f64,
    var: f64,
}

impl EwmaZScore {
    /// Creates a detector with smoothing factor `alpha` and a firing
    /// threshold of `threshold` standard deviations.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha <= 1` and `threshold > 0`.
    pub fn new(alpha: f64, threshold: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        assert!(threshold > 0.0, "threshold must be positive");
        EwmaZScore {
            alpha,
            threshold,
            warmup: 20,
            min_std: 1e-9,
            seen: 0,
            mean: 0.0,
            var: 0.0,
        }
    }

    /// Sets how many leading samples train the baseline silently
    /// (default 20).
    pub fn with_warmup(mut self, samples: u64) -> Self {
        self.warmup = samples;
        self
    }

    /// Floors the baseline standard deviation, so a near-constant
    /// calibration stream does not make every later wiggle a huge
    /// z-score. The floor is in the metric's own units.
    ///
    /// # Panics
    ///
    /// Panics if `min_std` is not positive.
    pub fn with_min_std(mut self, min_std: f64) -> Self {
        assert!(min_std > 0.0, "min_std must be positive");
        self.min_std = min_std;
        self
    }

    /// The firing threshold, in standard deviations.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The current baseline mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    fn learn(&mut self, value: f64) {
        if self.seen == 1 {
            self.mean = value;
            self.var = 0.0;
            return;
        }
        let diff = value - self.mean;
        let incr = self.alpha * diff;
        self.mean += incr;
        self.var = (1.0 - self.alpha) * (self.var + diff * incr);
    }
}

impl StreamDetector for EwmaZScore {
    fn push(&mut self, _t: SimTime, value: f64) -> Verdict {
        if !value.is_finite() {
            return Verdict::QUIET;
        }
        self.seen += 1;
        if self.seen <= self.warmup {
            self.learn(value);
            return Verdict::QUIET;
        }
        let std = self.var.sqrt().max(self.min_std);
        let z = (value - self.mean).abs() / std;
        let verdict = Verdict::from_score(z / self.threshold);
        if !verdict.fired {
            self.learn(value);
        }
        verdict
    }

    fn reset(&mut self) {
        self.seen = 0;
        self.mean = 0.0;
        self.var = 0.0;
    }
}

/// Two-sided CUSUM change-point detector.
///
/// Calibrates mean/σ over a warmup prefix, freezes that baseline, then
/// accumulates `max(0, Σ(±z - drift))` in both directions. Small
/// sustained shifts that never trip a per-sample z-test accumulate here;
/// zero-mean noise is absorbed by the drift term. On a constant input
/// stream every post-warmup z-score is 0, so the statistic never leaves
/// 0 and the detector provably never fires.
#[derive(Debug, Clone, PartialEq)]
pub struct Cusum {
    drift: f64,
    threshold: f64,
    warmup: u64,
    min_std: f64,
    baseline: OnlineStats,
    pos: f64,
    neg: f64,
}

impl Cusum {
    /// Creates a detector with per-sample slack `drift` (in σ units) and
    /// accumulated-sum firing threshold `threshold` (in σ·samples).
    ///
    /// # Panics
    ///
    /// Panics unless `drift > 0` and `threshold > 0`.
    pub fn new(drift: f64, threshold: f64) -> Self {
        assert!(drift > 0.0, "drift must be positive");
        assert!(threshold > 0.0, "threshold must be positive");
        Cusum {
            drift,
            threshold,
            warmup: 50,
            min_std: 1e-9,
            baseline: OnlineStats::new(),
            pos: 0.0,
            neg: 0.0,
        }
    }

    /// Sets the calibration prefix length in samples (default 50,
    /// minimum 1).
    pub fn with_warmup(mut self, samples: u64) -> Self {
        self.warmup = samples.max(1);
        self
    }

    /// Floors the calibrated standard deviation (metric units).
    ///
    /// # Panics
    ///
    /// Panics if `min_std` is not positive.
    pub fn with_min_std(mut self, min_std: f64) -> Self {
        assert!(min_std > 0.0, "min_std must be positive");
        self.min_std = min_std;
        self
    }

    /// The accumulated positive-direction statistic (σ·samples).
    pub fn positive_sum(&self) -> f64 {
        self.pos
    }
}

impl StreamDetector for Cusum {
    fn push(&mut self, _t: SimTime, value: f64) -> Verdict {
        if !value.is_finite() {
            return Verdict::QUIET;
        }
        if self.baseline.count() < self.warmup {
            self.baseline.push(value);
            return Verdict::QUIET;
        }
        let std = self.baseline.population_std_dev().max(self.min_std);
        let z = (value - self.baseline.mean()) / std;
        self.pos = (self.pos + z - self.drift).max(0.0);
        self.neg = (self.neg - z - self.drift).max(0.0);
        Verdict::from_score(self.pos.max(self.neg) / self.threshold)
    }

    fn reset(&mut self) {
        self.baseline = OnlineStats::new();
        self.pos = 0.0;
        self.neg = 0.0;
    }
}

/// Windowed spike-train detector.
///
/// Detects individual spikes as rising edges of the z-score against an
/// internal EWMA baseline, stores `(time, amplitude)` of each spike in a
/// bounded ring buffer, and fires when at least `min_spikes` spikes land
/// inside the trailing window — the signature of a Phase-II hidden spike
/// train, as opposed to a lone benign excursion. Inter-arrival and
/// amplitude statistics over the retained spikes are exposed for
/// reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct SpikeTrainDetector {
    spike_sigma: f64,
    min_spikes: usize,
    window: SimDuration,
    baseline: EwmaZScore,
    above: bool,
    ring: VecDeque<(SimTime, f64)>,
    capacity: usize,
}

impl SpikeTrainDetector {
    /// Creates a detector that looks for `min_spikes` spikes (each a
    /// rising edge past `spike_sigma` standard deviations) within the
    /// trailing `window`.
    ///
    /// # Panics
    ///
    /// Panics unless `spike_sigma > 0`, `min_spikes >= 1` and `window`
    /// is non-zero.
    pub fn new(spike_sigma: f64, min_spikes: usize, window: SimDuration) -> Self {
        assert!(spike_sigma > 0.0, "spike_sigma must be positive");
        assert!(min_spikes >= 1, "min_spikes must be at least 1");
        assert!(!window.is_zero(), "window must be non-zero");
        let capacity = (min_spikes * 4).max(32);
        SpikeTrainDetector {
            spike_sigma,
            min_spikes,
            window,
            baseline: EwmaZScore::new(0.05, spike_sigma),
            above: false,
            ring: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Floors the baseline standard deviation (metric units).
    ///
    /// # Panics
    ///
    /// Panics if `min_std` is not positive.
    pub fn with_min_std(mut self, min_std: f64) -> Self {
        self.baseline = self.baseline.clone().with_min_std(min_std);
        self
    }

    /// Number of spikes currently retained in the window.
    pub fn spike_count(&self) -> usize {
        self.ring.len()
    }

    /// Mean gap between consecutive retained spikes, in milliseconds
    /// (`None` with fewer than two spikes).
    pub fn mean_interval_ms(&self) -> Option<f64> {
        if self.ring.len() < 2 {
            return None;
        }
        let gaps = self.ring.len() - 1;
        let span = self
            .ring
            .back()
            .expect("non-empty")
            .0
            .saturating_since(self.ring.front().expect("non-empty").0);
        Some(span.as_millis() as f64 / gaps as f64)
    }

    /// Mean amplitude of the retained spikes (`None` when empty).
    pub fn mean_amplitude(&self) -> Option<f64> {
        if self.ring.is_empty() {
            return None;
        }
        Some(self.ring.iter().map(|&(_, a)| a).sum::<f64>() / self.ring.len() as f64)
    }

    fn evict(&mut self, now: SimTime) {
        let horizon = now - self.window;
        while self.ring.front().is_some_and(|&(t, _)| t < horizon) {
            self.ring.pop_front();
        }
    }
}

impl StreamDetector for SpikeTrainDetector {
    fn push(&mut self, t: SimTime, value: f64) -> Verdict {
        let sample = self.baseline.push(t, value);
        let above = sample.fired;
        if above && !self.above {
            if self.ring.len() == self.capacity {
                self.ring.pop_front();
            }
            self.ring.push_back((t, value));
        }
        self.above = above;
        self.evict(t);
        Verdict::from_score(self.ring.len() as f64 / self.min_spikes as f64)
    }

    fn reset(&mut self) {
        self.baseline.reset();
        self.above = false;
        self.ring.clear();
    }
}

/// Windowed state-of-charge drain-rate estimator.
///
/// Retains sparse `(time, soc)` checkpoints across the trailing window
/// and scores the SOC slope between the oldest and newest checkpoint
/// against a maximum benign drain rate (SOC fraction per hour). A flat
/// or charging battery scores 0; a Phase-I forced discharge empties a
/// UPS string in minutes and scores far past the threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct DrainRateDetector {
    threshold_per_hour: f64,
    window: SimDuration,
    spacing: SimDuration,
    ring: VecDeque<(SimTime, f64)>,
    last_push: Option<SimTime>,
}

impl DrainRateDetector {
    /// Number of checkpoints retained across the window.
    const CHECKPOINTS: usize = 32;

    /// Creates a detector firing when SOC drops faster than
    /// `threshold_per_hour` (fraction of full charge per hour) measured
    /// across the trailing `window`.
    ///
    /// # Panics
    ///
    /// Panics unless `threshold_per_hour > 0` and `window` is non-zero.
    pub fn new(threshold_per_hour: f64, window: SimDuration) -> Self {
        assert!(threshold_per_hour > 0.0, "threshold must be positive");
        assert!(!window.is_zero(), "window must be non-zero");
        let spacing =
            SimDuration::from_millis((window.as_millis() / Self::CHECKPOINTS as u64).max(1));
        DrainRateDetector {
            threshold_per_hour,
            window,
            spacing,
            ring: VecDeque::with_capacity(Self::CHECKPOINTS + 1),
            last_push: None,
        }
    }

    /// The latest estimated drain rate (SOC fraction per hour; negative
    /// while charging, 0 with fewer than two checkpoints).
    pub fn rate_per_hour(&self) -> f64 {
        let (Some(&(t0, s0)), Some(&(t1, s1))) = (self.ring.front(), self.ring.back()) else {
            return 0.0;
        };
        let dt = t1.saturating_since(t0);
        if dt.is_zero() {
            return 0.0;
        }
        (s0 - s1) / dt.as_hours_f64()
    }
}

impl StreamDetector for DrainRateDetector {
    fn push(&mut self, t: SimTime, value: f64) -> Verdict {
        if !value.is_finite() {
            return Verdict::QUIET;
        }
        let due = self
            .last_push
            .is_none_or(|last| t.saturating_since(last) >= self.spacing);
        if due {
            self.ring.push_back((t, value));
            self.last_push = Some(t);
        }
        let horizon = t - self.window;
        while self.ring.len() > 1 && self.ring.front().is_some_and(|&(pt, _)| pt < horizon) {
            self.ring.pop_front();
        }
        // Require at least a quarter-window of history so a single pair
        // of adjacent noisy samples cannot fabricate a huge slope.
        let span = match (self.ring.front(), self.ring.back()) {
            (Some(&(t0, _)), Some(&(t1, _))) => t1.saturating_since(t0),
            _ => SimDuration::ZERO,
        };
        if span < self.window / 4 {
            return Verdict::QUIET;
        }
        Verdict::from_score((self.rate_per_hour() / self.threshold_per_hour).max(0.0))
    }

    fn reset(&mut self) {
        self.ring.clear();
        self.last_push = None;
    }
}

/// The concrete detector set a [`DetectorBank`] can hold.
///
/// Simulation state must be `Clone` (the sweep engine clones warmed
/// simulators per scenario), which rules out `Box<dyn StreamDetector>`
/// subscriptions; this enum is the concrete closed set.
#[derive(Debug, Clone, PartialEq)]
pub enum Detector {
    /// EWMA baseline + residual z-score.
    Ewma(EwmaZScore),
    /// Two-sided CUSUM change-point.
    Cusum(Cusum),
    /// Windowed spike-train cadence.
    SpikeTrain(SpikeTrainDetector),
    /// Windowed SOC drain rate.
    DrainRate(DrainRateDetector),
}

impl Detector {
    /// Short family name for rendering (`ewma`, `cusum`, `spike_train`,
    /// `drain_rate`).
    pub fn family(&self) -> &'static str {
        match self {
            Detector::Ewma(_) => "ewma",
            Detector::Cusum(_) => "cusum",
            Detector::SpikeTrain(_) => "spike_train",
            Detector::DrainRate(_) => "drain_rate",
        }
    }
}

impl StreamDetector for Detector {
    fn push(&mut self, t: SimTime, value: f64) -> Verdict {
        match self {
            Detector::Ewma(d) => d.push(t, value),
            Detector::Cusum(d) => d.push(t, value),
            Detector::SpikeTrain(d) => d.push(t, value),
            Detector::DrainRate(d) => d.push(t, value),
        }
    }

    fn reset(&mut self) {
        match self {
            Detector::Ewma(d) => d.reset(),
            Detector::Cusum(d) => d.reset(),
            Detector::SpikeTrain(d) => d.reset(),
            Detector::DrainRate(d) => d.reset(),
        }
    }
}

/// One detector wired to one metric inside a [`DetectorBank`].
#[derive(Debug, Clone, PartialEq)]
pub struct Subscription {
    metric: MetricId,
    label: String,
    detector: Detector,
    last: Verdict,
    fires: u64,
    first_fire: Option<SimTime>,
}

impl Subscription {
    /// The metric this subscription consumes.
    pub fn metric(&self) -> MetricId {
        self.metric
    }

    /// The subscription's display label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The detector (for family/diagnostic accessors).
    pub fn detector(&self) -> &Detector {
        &self.detector
    }

    /// The verdict after the most recent sample.
    pub fn last(&self) -> Verdict {
        self.last
    }

    /// How many rising edges (quiet → fired) this detector produced.
    pub fn fires(&self) -> u64 {
        self.fires
    }

    /// When the detector first fired, if it has.
    pub fn first_fire(&self) -> Option<SimTime> {
        self.first_fire
    }
}

/// One detector's rising edge, as recorded by a [`DetectorBank`].
#[derive(Debug, Clone, PartialEq)]
pub struct Firing {
    /// When the detector fired.
    pub time: SimTime,
    /// The subscription's label.
    pub label: String,
    /// The verdict score at the firing sample.
    pub score: f64,
}

/// The bank's combined judgement across all subscriptions.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FusedVerdict {
    /// Maximum score over all subscriptions' latest verdicts.
    pub score: f64,
    /// How many subscriptions are currently fired.
    pub votes: usize,
    /// `true` when at least the bank's vote quorum is fired.
    pub fired: bool,
}

impl FusedVerdict {
    /// Maps fused strength to an event-log severity: quiet verdicts are
    /// informational, a fired quorum is a warning, and `confirm_votes`
    /// or more concurring detectors are critical — the mapping
    /// `padsim inspect` surfaces next to battery/breaker events.
    pub fn severity(&self, confirm_votes: usize) -> Severity {
        if self.fired && self.votes >= confirm_votes {
            Severity::Critical
        } else if self.fired {
            Severity::Warning
        } else {
            Severity::Info
        }
    }
}

/// A set of detectors subscribed to metrics, consuming one record
/// stream.
///
/// The bank is the unit both execution modes share: the simulator feeds
/// it gauge-by-gauge as it emits telemetry, and the offline path feeds
/// it the parsed wire records. Feeding order within a tick follows
/// metric registration order in both modes, so firing logs line up
/// byte-for-byte.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorBank {
    subs: Vec<Subscription>,
    min_votes: usize,
    firings: Vec<Firing>,
}

impl DetectorBank {
    /// Creates an empty bank whose fused verdict fires once `min_votes`
    /// subscriptions are fired simultaneously.
    ///
    /// # Panics
    ///
    /// Panics if `min_votes` is zero.
    pub fn new(min_votes: usize) -> Self {
        assert!(min_votes >= 1, "min_votes must be at least 1");
        DetectorBank {
            subs: Vec::new(),
            min_votes,
            firings: Vec::new(),
        }
    }

    /// Subscribes `detector` to `metric` under a display `label`.
    pub fn subscribe(&mut self, metric: MetricId, label: impl Into<String>, detector: Detector) {
        self.subs.push(Subscription {
            metric,
            label: label.into(),
            detector,
            last: Verdict::QUIET,
            fires: 0,
            first_fire: None,
        });
    }

    /// Number of subscriptions.
    pub fn len(&self) -> usize {
        self.subs.len()
    }

    /// `true` when nothing is subscribed.
    pub fn is_empty(&self) -> bool {
        self.subs.is_empty()
    }

    /// The vote quorum for the fused verdict.
    pub fn min_votes(&self) -> usize {
        self.min_votes
    }

    /// The subscriptions, in subscription order.
    pub fn subscriptions(&self) -> impl ExactSizeIterator<Item = &Subscription> {
        self.subs.iter()
    }

    /// Feeds one sample to every subscription on `metric`.
    pub fn observe(&mut self, t: SimTime, metric: MetricId, value: f64) {
        for sub in self.subs.iter_mut().filter(|s| s.metric == metric) {
            let verdict = sub.detector.push(t, value);
            if verdict.fired && !sub.last.fired {
                sub.fires += 1;
                sub.first_fire.get_or_insert(t);
                self.firings.push(Firing {
                    time: t,
                    label: sub.label.clone(),
                    score: verdict.score,
                });
            }
            sub.last = verdict;
        }
    }

    /// The combined verdict over every subscription's latest state.
    pub fn fused(&self) -> FusedVerdict {
        let score = self
            .subs
            .iter()
            .map(|s| s.last.score)
            .fold(0.0_f64, f64::max);
        let votes = self.subs.iter().filter(|s| s.last.fired).count();
        FusedVerdict {
            score,
            votes,
            fired: votes >= self.min_votes,
        }
    }

    /// Every rising edge recorded so far, in stream order.
    pub fn firings(&self) -> &[Firing] {
        &self.firings
    }

    /// Renders the firing log as one `time_ms label score` line per
    /// rising edge — the byte-comparable determinism artifact (scores
    /// use Rust's shortest-round-trip `f64` formatting, like the wire
    /// codec).
    pub fn render_firings(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for f in &self.firings {
            let _ = writeln!(out, "{} {} {}", f.time.as_millis(), f.label, f.score);
        }
        out
    }

    /// Replays a parsed trace through the bank: samples resolve through
    /// `registry` by name (metric ids do not survive serialization) and
    /// unknown metrics and events are skipped. Records must already be
    /// in canonical order — the codec writes them that way. Returns the
    /// number of samples consumed.
    pub fn replay(&mut self, records: &[ParsedRecord], registry: &MetricRegistry) -> usize {
        let mut consumed = 0;
        for r in records {
            if r.is_event {
                continue;
            }
            if let Some(id) = registry.id(&r.name) {
                self.observe(SimTime::from_millis(r.time_ms), id, r.value);
                consumed += 1;
            }
        }
        consumed
    }

    /// Resets every detector and clears the firing log.
    pub fn reset(&mut self) {
        for sub in &mut self.subs {
            sub.detector.reset();
            sub.last = Verdict::QUIET;
            sub.fires = 0;
            sub.first_fire = None;
        }
        self.firings.clear();
    }
}

// ---------------------------------------------------------------------------
// Snapshot / restore
//
// Checkpoints carry only *value* state: configuration (thresholds,
// windows, labels, quorum) is structural and rebuilt by re-running the
// construction code, then validated against the snapshot on restore.
// Welford accumulators and EWMA variances are written verbatim — they
// are order-dependent, so re-deriving them would break the bit-exact
// recovery contract.

/// Parses a `[[t_ms, value], ...]` ring back.
fn read_ring(items: &[Json], what: &str) -> Result<VecDeque<(SimTime, f64)>, String> {
    let mut ring = VecDeque::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let pair = item.as_array(&format!("{what}[{i}]"))?;
        if pair.len() != 2 {
            return Err(format!("{what}[{i}] must be a [t_ms, value] pair"));
        }
        let t = pair[0].as_u64(&format!("{what}[{i}] time"))?;
        let v = pair[1].as_f64(&format!("{what}[{i}] value"))?;
        ring.push_back((SimTime::from_millis(t), v));
    }
    Ok(ring)
}

impl EwmaZScore {
    /// Serializes the learned baseline (exact bits; config is not
    /// included — it is validated structurally by the caller).
    pub fn write_snapshot(&self, w: &mut JsonWriter<'_>) {
        w.begin_object()
            .field("seen", self.seen)
            .field("mean", self.mean)
            .field("var", self.var)
            .end_object();
    }

    /// Restores the learned baseline from a parsed snapshot.
    pub fn restore_snapshot(&mut self, value: &Json) -> Result<(), String> {
        let obj = value.as_object("ewma snapshot")?;
        self.seen = obj.u64_field("seen")?;
        self.mean = obj.f64_field_lossy("mean")?;
        self.var = obj.f64_field_lossy("var")?;
        Ok(())
    }
}

impl Cusum {
    /// Serializes the calibration baseline and both accumulated sums.
    pub fn write_snapshot(&self, w: &mut JsonWriter<'_>) {
        self.baseline
            .write_snapshot(w.begin_object().key("baseline"));
        w.field("pos", self.pos).field("neg", self.neg).end_object();
    }

    /// Restores the baseline and accumulators from a parsed snapshot.
    pub fn restore_snapshot(&mut self, value: &Json) -> Result<(), String> {
        let obj = value.as_object("cusum snapshot")?;
        self.baseline = OnlineStats::from_snapshot(obj.field("baseline")?)?;
        self.pos = obj.f64_field_lossy("pos")?;
        self.neg = obj.f64_field_lossy("neg")?;
        Ok(())
    }
}

impl SpikeTrainDetector {
    /// Serializes the internal baseline, edge state and spike ring.
    pub fn write_snapshot(&self, w: &mut JsonWriter<'_>) {
        self.baseline
            .write_snapshot(w.begin_object().key("baseline"));
        w.field("above", u8::from(self.above))
            .field_array("ring", self.ring.iter().map(|&(t, v)| (t.as_millis(), v)))
            .end_object();
    }

    /// Restores baseline, edge state and spike ring from a snapshot.
    pub fn restore_snapshot(&mut self, value: &Json) -> Result<(), String> {
        let obj = value.as_object("spike_train snapshot")?;
        self.baseline.restore_snapshot(obj.field("baseline")?)?;
        self.above = obj.u64_field("above")? != 0;
        let ring = read_ring(obj.arr_field("ring")?, "spike_train ring")?;
        if ring.len() > self.capacity {
            return Err(format!(
                "spike_train ring has {} entries, capacity is {}",
                ring.len(),
                self.capacity
            ));
        }
        self.ring = ring;
        Ok(())
    }
}

impl DrainRateDetector {
    /// Serializes the checkpoint ring; `last_push` is present only when
    /// at least one sample was accepted.
    pub fn write_snapshot(&self, w: &mut JsonWriter<'_>) {
        w.begin_object()
            .field_array("ring", self.ring.iter().map(|&(t, v)| (t.as_millis(), v)));
        if let Some(t) = self.last_push {
            w.field("last_push", t.as_millis());
        }
        w.end_object();
    }

    /// Restores the checkpoint ring from a snapshot.
    pub fn restore_snapshot(&mut self, value: &Json) -> Result<(), String> {
        let obj = value.as_object("drain_rate snapshot")?;
        self.ring = read_ring(obj.arr_field("ring")?, "drain_rate ring")?;
        self.last_push = obj.opt_u64_field("last_push")?.map(SimTime::from_millis);
        Ok(())
    }
}

impl Detector {
    /// Serializes this detector's value state, tagged by family.
    pub fn write_snapshot(&self, w: &mut JsonWriter<'_>) {
        w.begin_object().field("family", self.family()).key("state");
        match self {
            Detector::Ewma(d) => d.write_snapshot(w),
            Detector::Cusum(d) => d.write_snapshot(w),
            Detector::SpikeTrain(d) => d.write_snapshot(w),
            Detector::DrainRate(d) => d.write_snapshot(w),
        }
        w.end_object();
    }

    /// Restores value state, rejecting a snapshot from a different
    /// detector family (structure must match the snapshot).
    pub fn restore_snapshot(&mut self, value: &Json) -> Result<(), String> {
        let obj = value.as_object("detector snapshot")?;
        let family = obj.str_field("family")?;
        if family != self.family() {
            return Err(format!(
                "detector family mismatch: snapshot has {family:?}, detector is {:?}",
                self.family()
            ));
        }
        let state = obj.field("state")?;
        match self {
            Detector::Ewma(d) => d.restore_snapshot(state),
            Detector::Cusum(d) => d.restore_snapshot(state),
            Detector::SpikeTrain(d) => d.restore_snapshot(state),
            Detector::DrainRate(d) => d.restore_snapshot(state),
        }
    }
}

impl DetectorBank {
    /// Serializes the bank: quorum and per-subscription identity for
    /// structural validation, every detector's value state, and the
    /// firing log (the byte-comparable artifact).
    pub fn write_snapshot(&self, w: &mut JsonWriter<'_>) {
        w.begin_object()
            .field("min_votes", self.min_votes)
            .key("subs")
            .begin_array();
        for sub in &self.subs {
            w.begin_object()
                .field("label", &sub.label)
                .field("last_score", sub.last.score)
                .field("last_fired", u8::from(sub.last.fired))
                .field("fires", sub.fires);
            if let Some(t) = sub.first_fire {
                w.field("first_fire", t.as_millis());
            }
            sub.detector.write_snapshot(w.key("detector"));
            w.end_object();
        }
        w.end_array().key("firings").begin_array();
        for f in &self.firings {
            w.begin_object()
                .field("t", f.time.as_millis())
                .field("label", &f.label)
                .field("score", f.score)
                .end_object();
        }
        w.end_array().end_object();
    }

    /// Restores value state into a structurally identical bank: the
    /// snapshot's quorum, subscription count, labels and detector
    /// families must all match this bank's, in order.
    pub fn restore_snapshot(&mut self, value: &Json) -> Result<(), String> {
        let obj = value.as_object("bank snapshot")?;
        let min_votes = obj.u64_field("min_votes")? as usize;
        if min_votes != self.min_votes {
            return Err(format!(
                "bank min_votes mismatch: snapshot has {min_votes}, bank has {}",
                self.min_votes
            ));
        }
        let subs = obj.arr_field("subs")?;
        if subs.len() != self.subs.len() {
            return Err(format!(
                "bank has {} subscriptions, snapshot has {}",
                self.subs.len(),
                subs.len()
            ));
        }
        for (sub, snap) in self.subs.iter_mut().zip(subs) {
            let sobj = snap.as_object("subscription snapshot")?;
            let label = sobj.str_field("label")?;
            if label != sub.label {
                return Err(format!(
                    "subscription label mismatch: snapshot has {label:?}, bank has {:?}",
                    sub.label
                ));
            }
            sub.detector.restore_snapshot(sobj.field("detector")?)?;
            sub.last = Verdict {
                score: sobj.f64_field_lossy("last_score")?,
                fired: sobj.u64_field("last_fired")? != 0,
            };
            sub.fires = sobj.u64_field("fires")?;
            sub.first_fire = sobj.opt_u64_field("first_fire")?.map(SimTime::from_millis);
        }
        let firings = obj.arr_field("firings")?;
        self.firings.clear();
        for (i, item) in firings.iter().enumerate() {
            let fobj = item.as_object(&format!("firing[{i}]"))?;
            self.firings.push(Firing {
                time: SimTime::from_millis(fobj.u64_field("t")?),
                label: fobj.str_field("label")?.to_string(),
                score: fobj.f64_field_lossy("score")?,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(i: u64) -> SimTime {
        SimTime::from_millis(i)
    }

    #[test]
    fn ewma_fires_on_spike_and_freezes_baseline() {
        let mut d = EwmaZScore::new(0.1, 4.0).with_warmup(10).with_min_std(1.0);
        for i in 0..50 {
            let v = 500.0 + if i % 2 == 0 { 2.0 } else { -2.0 };
            assert!(!d.push(ms(i * 100), v).fired, "benign jitter at {i}");
        }
        let hit = d.push(ms(5_000), 900.0);
        assert!(hit.fired, "8σ spike must fire, score {}", hit.score);
        let mean_before = d.mean();
        // The spike must not have been absorbed into the baseline.
        assert!(d.push(ms(5_100), 900.0).fired);
        assert_eq!(d.mean(), mean_before);
        // Recovery: quiet samples resume learning.
        assert!(!d.push(ms(5_200), 501.0).fired);
    }

    #[test]
    fn ewma_is_quiet_on_constant_stream() {
        let mut d = EwmaZScore::new(0.2, 3.0).with_warmup(5);
        for i in 0..1_000 {
            assert!(!d.push(ms(i * 100), 42.0).fired);
        }
    }

    #[test]
    fn cusum_catches_small_sustained_shift() {
        let mut d = Cusum::new(0.5, 8.0).with_warmup(40).with_min_std(0.5);
        for i in 0..40 {
            d.push(ms(i * 100), 100.0 + if i % 2 == 0 { 1.0 } else { -1.0 });
        }
        // +1.5σ shift: never trips a 4σ point test, accumulates here.
        let mut fired_at = None;
        for i in 40..140 {
            if d.push(ms(i * 100), 101.5).fired {
                fired_at = Some(i);
                break;
            }
        }
        assert!(fired_at.is_some(), "sustained shift must accumulate");
    }

    #[test]
    fn cusum_quiet_on_constant_input() {
        let mut d = Cusum::new(0.25, 4.0).with_warmup(1);
        for i in 0..10_000 {
            let v = d.push(ms(i), -17.5);
            assert!(!v.fired && v.score == 0.0, "constant stream at {i}");
        }
    }

    #[test]
    fn spike_train_needs_cadence_not_one_spike() {
        let window = SimDuration::from_secs(120);
        let mut d = SpikeTrainDetector::new(4.0, 2, window).with_min_std(1.0);
        let mut t = 0u64;
        fn feed(d: &mut SpikeTrainDetector, t: &mut u64, v: f64) -> Verdict {
            let verdict = d.push(SimTime::from_millis(*t), v);
            *t += 100;
            verdict
        }
        for _ in 0..100 {
            assert!(!feed(&mut d, &mut t, 500.0).fired);
        }
        // One spike (10 ticks wide): counted, not fired.
        for _ in 0..10 {
            feed(&mut d, &mut t, 900.0);
        }
        assert_eq!(d.spike_count(), 1);
        assert!(!feed(&mut d, &mut t, 500.0).fired);
        // Second spike 30 s later: the train fires.
        for _ in 0..300 {
            feed(&mut d, &mut t, 500.0);
        }
        let mut fired = false;
        for _ in 0..10 {
            fired |= feed(&mut d, &mut t, 900.0).fired;
        }
        assert!(fired, "two spikes inside the window fire");
        assert_eq!(d.spike_count(), 2);
        assert!(d.mean_interval_ms().unwrap() > 29_000.0);
        assert!(d.mean_amplitude().unwrap() > 800.0);
    }

    #[test]
    fn spike_train_forgets_old_spikes() {
        let window = SimDuration::from_secs(10);
        let mut d = SpikeTrainDetector::new(4.0, 2, window).with_min_std(1.0);
        for i in 0..100 {
            d.push(ms(i * 100), 500.0);
        }
        d.push(ms(10_000), 900.0);
        assert_eq!(d.spike_count(), 1);
        // 11 s of quiet: the spike ages out of the window.
        for i in 0..110 {
            d.push(ms(10_100 + i * 100), 500.0);
        }
        assert_eq!(d.spike_count(), 0);
    }

    #[test]
    fn drain_rate_scores_fast_discharge_only() {
        let window = SimDuration::from_secs(60);
        let mut d = DrainRateDetector::new(2.0, window);
        // Constant SOC for 2 minutes: quiet.
        for i in 0..1_200 {
            let v = d.push(ms(i * 100), 0.9);
            assert!(!v.fired && v.score == 0.0);
        }
        // Drain at 0.1%/s = 3.6/hour: nearly double the 2.0 threshold.
        let mut soc = 0.9;
        let mut fired = false;
        for i in 0..600 {
            soc -= 0.0001;
            fired |= d.push(ms(120_000 + i * 100), soc).fired;
        }
        assert!(fired, "fast drain must fire, rate {}", d.rate_per_hour());
        assert!(d.rate_per_hour() > 2.0);
        // Charging back up: once the drain has aged out of the window,
        // the negative rate clamps to score 0.
        for i in 0..1_200 {
            soc = (soc + 0.0001).min(0.95);
            let v = d.push(ms(180_000 + i * 100), soc);
            if i >= 700 {
                assert!(v.score == 0.0, "charging scored {} at {i}", v.score);
            }
        }
    }

    #[test]
    fn bank_fuses_votes_and_records_rising_edges() {
        let mut reg = MetricRegistry::new();
        let draw = reg.register_gauge("rack-00.draw_w");
        let soc = reg.register_gauge("rack-00.soc");
        let mut bank = DetectorBank::new(2);
        bank.subscribe(
            draw,
            "rack-00.draw.ewma",
            Detector::Ewma(EwmaZScore::new(0.1, 4.0).with_warmup(10).with_min_std(1.0)),
        );
        bank.subscribe(
            draw,
            "rack-00.draw.cusum",
            Detector::Cusum(Cusum::new(0.5, 10.0).with_warmup(10).with_min_std(1.0)),
        );
        bank.subscribe(
            soc,
            "rack-00.soc.drain",
            Detector::DrainRate(DrainRateDetector::new(2.0, SimDuration::from_secs(30))),
        );
        for i in 0..60 {
            bank.observe(ms(i * 100), draw, 500.0 + (i % 2) as f64);
            bank.observe(ms(i * 100), soc, 0.9);
        }
        assert!(!bank.fused().fired);
        // A big sustained step: ewma fires instantly, cusum follows.
        let mut fused_fired = false;
        for i in 60..120 {
            bank.observe(ms(i * 100), draw, 1_000.0);
            bank.observe(ms(i * 100), soc, 0.9);
            fused_fired |= bank.fused().fired;
        }
        assert!(fused_fired, "two draw detectors must reach the quorum");
        let fired_labels: Vec<&str> = bank.firings().iter().map(|f| f.label.as_str()).collect();
        assert!(fired_labels.contains(&"rack-00.draw.ewma"));
        assert!(fired_labels.contains(&"rack-00.draw.cusum"));
        let rendered = bank.render_firings();
        assert_eq!(rendered.lines().count(), bank.firings().len());
        assert!(rendered.contains("rack-00.draw.ewma"));
    }

    #[test]
    fn replay_reproduces_live_verdicts() {
        let mut reg = MetricRegistry::new();
        let draw = reg.register_gauge("rack-00.draw_w");
        let build = |reg: &MetricRegistry| {
            let mut bank = DetectorBank::new(1);
            bank.subscribe(
                reg.id("rack-00.draw_w").unwrap(),
                "draw.ewma",
                Detector::Ewma(EwmaZScore::new(0.1, 4.0).with_warmup(10).with_min_std(1.0)),
            );
            bank
        };
        // Live pass, recording the wire trace at the same time.
        let mut live = build(&reg);
        let mut records = Vec::new();
        let mut rng_state = 0x9E3779B97F4A7C15u64;
        for i in 0..400u64 {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let noise = (rng_state >> 40) as f64 / (1u64 << 24) as f64 - 0.5;
            let v = 500.0 + 3.0 * noise + if i % 97 == 0 { 400.0 } else { 0.0 };
            let t = ms(i * 100);
            live.observe(t, draw, v);
            records.push(crate::telemetry::Record::Sample(crate::telemetry::Sample {
                time: t,
                metric: draw,
                value: v,
            }));
        }
        assert!(!live.firings().is_empty(), "the periodic surge must fire");
        // Serialize → parse → replay into a fresh bank.
        let wire = crate::telemetry::to_jsonl(&reg, &records);
        let parsed = crate::telemetry::parse(&wire, crate::telemetry::Format::Jsonl).unwrap();
        let mut offline = build(&reg);
        let consumed = offline.replay(&parsed, &reg);
        assert_eq!(consumed, 400);
        assert_eq!(offline.render_firings(), live.render_firings());
        assert_eq!(offline.fused(), live.fused());
    }

    #[test]
    fn fused_severity_maps_strength() {
        let quiet = FusedVerdict::default();
        assert_eq!(quiet.severity(3), Severity::Info);
        let warn = FusedVerdict {
            score: 1.2,
            votes: 2,
            fired: true,
        };
        assert_eq!(warn.severity(3), Severity::Warning);
        let crit = FusedVerdict {
            score: 4.0,
            votes: 3,
            fired: true,
        };
        assert_eq!(crit.severity(3), Severity::Critical);
    }

    #[test]
    #[should_panic(expected = "min_votes")]
    fn bank_rejects_zero_quorum() {
        DetectorBank::new(0);
    }

    #[test]
    fn bank_snapshot_round_trips_mid_stream() {
        let mut reg = MetricRegistry::new();
        let draw = reg.register_gauge("rack-00.draw_w");
        let soc = reg.register_gauge("rack-00.soc");
        let build = |reg: &MetricRegistry| {
            let mut bank = DetectorBank::new(2);
            let draw = reg.id("rack-00.draw_w").unwrap();
            let soc = reg.id("rack-00.soc").unwrap();
            bank.subscribe(
                draw,
                "draw.ewma",
                Detector::Ewma(EwmaZScore::new(0.1, 4.0).with_warmup(10).with_min_std(1.0)),
            );
            bank.subscribe(
                draw,
                "draw.cusum",
                Detector::Cusum(Cusum::new(0.5, 10.0).with_warmup(10).with_min_std(1.0)),
            );
            bank.subscribe(
                draw,
                "draw.spikes",
                Detector::SpikeTrain(
                    SpikeTrainDetector::new(4.0, 2, SimDuration::from_secs(60)).with_min_std(1.0),
                ),
            );
            bank.subscribe(
                soc,
                "soc.drain",
                Detector::DrainRate(DrainRateDetector::new(2.0, SimDuration::from_secs(30))),
            );
            bank
        };
        let feed = |bank: &mut DetectorBank, range: std::ops::Range<u64>| {
            for i in range {
                let surge = if i % 37 == 0 { 400.0 } else { 0.0 };
                bank.observe(ms(i * 100), draw, 500.0 + (i % 3) as f64 + surge);
                bank.observe(ms(i * 100), soc, 0.9 - i as f64 * 0.0002);
            }
        };

        // Uninterrupted reference run.
        let mut full = build(&reg);
        feed(&mut full, 0..300);

        // Interrupted run: snapshot at an arbitrary point, restore into a
        // freshly constructed bank, continue.
        let mut first = build(&reg);
        feed(&mut first, 0..157);
        let snap = crate::jsonio::render(|w| first.write_snapshot(w));
        let doc = crate::jsonio::JsonParser::parse_document(&snap).unwrap();
        let mut resumed = build(&reg);
        resumed.restore_snapshot(&doc).unwrap();
        assert_eq!(resumed, first, "restore must be bit-exact");
        feed(&mut resumed, 157..300);

        assert!(!full.firings().is_empty(), "the stream must fire");
        assert_eq!(resumed.render_firings(), full.render_firings());
        assert_eq!(resumed.fused(), full.fused());
        assert_eq!(resumed, full);
    }

    #[test]
    fn bank_restore_rejects_structural_drift() {
        let mut reg = MetricRegistry::new();
        let draw = reg.register_gauge("d");
        let mut bank = DetectorBank::new(1);
        bank.subscribe(draw, "d.ewma", Detector::Ewma(EwmaZScore::new(0.1, 4.0)));
        let snap = crate::jsonio::render(|w| bank.write_snapshot(w));
        let doc = crate::jsonio::JsonParser::parse_document(&snap).unwrap();

        let mut wrong_label = DetectorBank::new(1);
        wrong_label.subscribe(draw, "other", Detector::Ewma(EwmaZScore::new(0.1, 4.0)));
        assert!(wrong_label
            .restore_snapshot(&doc)
            .unwrap_err()
            .contains("label"));

        let mut wrong_family = DetectorBank::new(1);
        wrong_family.subscribe(draw, "d.ewma", Detector::Cusum(Cusum::new(0.5, 8.0)));
        assert!(wrong_family
            .restore_snapshot(&doc)
            .unwrap_err()
            .contains("family"));

        let mut wrong_quorum = DetectorBank::new(2);
        wrong_quorum.subscribe(draw, "d.ewma", Detector::Ewma(EwmaZScore::new(0.1, 4.0)));
        wrong_quorum.subscribe(draw, "d2", Detector::Ewma(EwmaZScore::new(0.1, 4.0)));
        assert!(wrong_quorum
            .restore_snapshot(&doc)
            .unwrap_err()
            .contains("min_votes"));
    }
}

//! Fault injection and the graceful-degradation control plane.
//!
//! [`SimFaults`] applies a deterministic [`FaultPlan`] to a running
//! [`ClusterSim`](crate::sim::ClusterSim), exercising the failure modes a
//! battery-backed defense must ride through:
//!
//! * **Sensor faults** corrupt the SOC readings Algorithm 1 and the PAD
//!   policy see — never the ground-truth battery state. A biased or
//!   stuck sensor steers the pooled-discharge plan; the vDEB sanitizer
//!   and the policy hold-down are what keep a single bad reading from
//!   flapping the defense.
//! * **Message faults** perturb the slow management loop: the vDEB
//!   coordinator's per-rack plan entries can be lost (with bounded
//!   retry), delayed by whole coordinator rounds, or reordered, so racks
//!   operate on stale plans.
//! * **Component faults** degrade the physical layer: µDEB converter
//!   outages, breaker derating (narrowed thermal headroom), and battery
//!   capacity fade.
//!
//! Graceful degradation is the other half: a per-rack staleness watchdog
//! notices when no coordinator plan has arrived within
//! [`DegradedConfig::watchdog_timeout`] and falls back to safe local
//! control — planned discharge capped at `P_ideal` and driven by the
//! rack's *current local* excess instead of the stale global plan, gated
//! on a pessimistically decayed last-known-good SOC. Without the
//! fallback a stale non-zero plan keeps draining the pool long after the
//! excess it was computed for has passed.
//!
//! All randomness derives from per-spec/per-unit forks of a root stream
//! seeded by the `(seed, scenario_index)` contract
//! ([`simkit::fault::spec_stream`] / [`simkit::fault::unit_stream`]), so
//! faulted sweeps stay byte-identical across worker counts.

use std::collections::VecDeque;

use battery::units::Watts;
use simkit::fault::{spec_stream, unit_stream, FaultKind, FaultPlan, FaultSpec, FaultTarget};
use simkit::jsonio::render;
use simkit::rng::RngStream;
use simkit::time::{SimDuration, SimTime};

use crate::vdeb::{DeliveryOutcome, RackHeld, RoundMsg};

/// How many coordinator rounds of plan history are retained for
/// [`FaultKind::MsgDelay`] / [`FaultKind::MsgReorder`] resolution.
const PLAN_HISTORY: usize = 9;

/// Tunables of the graceful-degradation control plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradedConfig {
    /// A rack that has not received a coordinator plan for this long
    /// falls back to safe local control. Should be a small multiple of
    /// the grant interval; [`DegradedConfig::for_grant_interval`] picks
    /// three rounds.
    pub watchdog_timeout: SimDuration,
    /// How long a delivered outlet grant stays spendable, measured from
    /// the round's *issue* time. One grant interval (the
    /// [`DegradedConfig::for_grant_interval`] choice) means at most one
    /// round's grants are live at any instant, which is what keeps the
    /// Eq. 2 budget bound across rounds: a rack that stops hearing the
    /// coordinator stops spending shared headroom after one interval,
    /// even before the watchdog fires.
    pub grant_lease: SimDuration,
    /// Extra delivery attempts per coordinator round when a message is
    /// lost (bounded retry; the round period dwarfs the per-message
    /// backoff, so retries resolve within the round).
    pub retry_limit: u32,
    /// How fast the fallback's last-known-good SOC estimate decays, in
    /// SOC fraction per hour. Pessimism: a rack that has been deaf for
    /// an hour assumes its battery is this much emptier than last
    /// reported, and refuses planned discharge once the estimate falls
    /// to the vDEB reserve.
    pub soc_decay_per_hour: f64,
}

impl Default for DegradedConfig {
    fn default() -> Self {
        DegradedConfig {
            watchdog_timeout: SimDuration::from_secs(30),
            grant_lease: SimDuration::from_secs(10),
            retry_limit: 1,
            soc_decay_per_hour: 0.25,
        }
    }
}

impl DegradedConfig {
    /// A watchdog sized to the management loop — three missed rounds —
    /// with grant leases of exactly one round.
    pub fn for_grant_interval(grant_interval: SimDuration) -> Self {
        DegradedConfig {
            watchdog_timeout: grant_interval * 3,
            grant_lease: grant_interval,
            ..DegradedConfig::default()
        }
    }

    /// Disables the staleness fallback (for ablation runs): the watchdog
    /// never fires.
    pub fn without_fallback(self) -> Self {
        DegradedConfig {
            watchdog_timeout: SimDuration::from_hours(24 * 365),
            ..self
        }
    }

    /// Disables grant-lease expiry (for ablation runs and the model
    /// checker's known-violation replay): held grants stay spendable
    /// forever, reintroducing the cross-round double-spend.
    pub fn without_lease_expiry(self) -> Self {
        DegradedConfig {
            grant_lease: SimDuration::from_hours(24 * 365),
            ..self
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.watchdog_timeout.is_zero() {
            return Err("watchdog timeout must be non-zero".into());
        }
        if self.grant_lease.is_zero() {
            return Err("grant lease must be non-zero".into());
        }
        if !self.soc_decay_per_hour.is_finite() || self.soc_decay_per_hour < 0.0 {
            return Err(format!(
                "SOC decay {} must be finite and >= 0",
                self.soc_decay_per_hour
            ));
        }
        Ok(())
    }
}

/// A fault window opening or closing, reported by
/// [`SimFaults::begin_step`] so the host can emit telemetry events,
/// spans, and apply/restore component faults exactly on the edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEdge {
    /// Index of the spec within the plan.
    pub spec: usize,
    /// The fault kind.
    pub kind: FaultKind,
    /// The fault target.
    pub target: FaultTarget,
    /// `true` when the window opened, `false` when it closed.
    pub injected: bool,
}

/// Running totals of what the injector actually did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounters {
    /// Fault windows opened.
    pub injected: u64,
    /// Fault windows closed.
    pub cleared: u64,
    /// SOC readings altered by a sensor fault.
    pub readings_corrupted: u64,
    /// SOC readings dropped (consumer kept the stale value).
    pub readings_dropped: u64,
    /// Per-rack plan entries lost after all retries.
    pub plans_lost: u64,
    /// Per-rack plan entries delivered from an older round (delay).
    pub plans_delayed: u64,
    /// Per-rack plan entries swapped with the previous round (reorder).
    pub plans_reordered: u64,
    /// Deliveries ignored as replays of a round the rack already held
    /// (the idempotent receive path; a duplicate never re-applies a
    /// grant and never refreshes the staleness clock).
    pub plans_duplicate: u64,
    /// Extra delivery attempts spent by the bounded retry.
    pub retries_used: u64,
    /// Rack-ticks spent in watchdog fallback.
    pub fallback_ticks: u64,
    /// Distinct fallback entries (rising edges).
    pub fallback_entries: u64,
}

/// Summary of a faulted run, rendered as JSON for `fault_report.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultReport {
    /// Name of the plan that was injected.
    pub plan: String,
    /// Number of specs in the plan.
    pub specs: usize,
    /// What the injector did.
    pub counters: FaultCounters,
}

impl FaultReport {
    /// Renders the report as a JSON object.
    pub fn to_json(&self) -> String {
        let c = &self.counters;
        render(|w| {
            w.begin_object()
                .field("plan", &self.plan)
                .field("specs", self.specs)
                .field("injected", c.injected)
                .field("cleared", c.cleared)
                .field("readings_corrupted", c.readings_corrupted)
                .field("readings_dropped", c.readings_dropped)
                .field("plans_lost", c.plans_lost)
                .field("plans_delayed", c.plans_delayed)
                .field("plans_reordered", c.plans_reordered)
                .field("plans_duplicate", c.plans_duplicate)
                .field("retries_used", c.retries_used)
                .field("fallback_ticks", c.fallback_ticks)
                .field("fallback_entries", c.fallback_entries)
                .end_object();
        })
    }
}

/// One retained coordinator round: the stamp that makes delayed
/// deliveries arrive pre-aged (lease keyed to `issued_at`, idempotence
/// keyed to `round`).
#[derive(Debug, Clone)]
struct RoundEntry {
    round: u64,
    issued_at: SimTime,
    plans: Vec<Watts>,
    grants: Vec<Watts>,
}

/// The per-simulation fault injector and degraded-mode state machine.
///
/// Owned by the simulator (see `ClusterSim::enable_faults`); every hook
/// is deterministic given the plan, the degraded-mode config, and the
/// seed.
#[derive(Debug, Clone)]
pub struct SimFaults {
    plan: FaultPlan,
    config: DegradedConfig,
    /// Per-spec window state for edge detection.
    active: Vec<bool>,
    /// Per-spec streams (message faults draw per rack from unit forks).
    unit_rngs: Vec<Vec<RngStream>>,
    /// Last SOC value actually delivered per rack (dropout holds it).
    last_sensor: Vec<f64>,
    /// Recent coordinator rounds, newest first, stamped with their round
    /// counter and issue time so delayed deliveries carry the original
    /// lease clock.
    history: VecDeque<RoundEntry>,
    /// Last-known-good SOC per rack and when it was learned.
    last_good_soc: Vec<(SimTime, f64)>,
    /// Which racks are currently in watchdog fallback.
    fallback: Vec<bool>,
    counters: FaultCounters,
}

impl SimFaults {
    /// Builds an injector for `racks` racks, armed at sim-time `now`
    /// with the current SOC vector (so the watchdog and the fallback's
    /// last-known-good estimates start from a delivered state, not from
    /// zero).
    ///
    /// `seed` should be the scenario seed (`scenario_seed(seed, index)`
    /// in sweeps); the root stream is forked under a `"faults"` label so
    /// fault draws never interleave with demand jitter.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid plan spec (including
    /// a spec that targets a rack the cluster does not have) or config
    /// field.
    pub fn new(
        plan: FaultPlan,
        config: DegradedConfig,
        seed: u64,
        now: SimTime,
        socs: &[f64],
    ) -> Result<SimFaults, String> {
        plan.validate()?;
        config.validate()?;
        let racks = socs.len();
        for (i, spec) in plan.specs().iter().enumerate() {
            if let FaultTarget::Unit(u) = spec.target {
                if u >= racks {
                    return Err(format!(
                        "spec {i}: target rack {u} is out of range for a {racks}-rack cluster"
                    ));
                }
            }
        }
        let root = RngStream::new(seed).fork("faults");
        let unit_rngs = (0..plan.len())
            .map(|i| {
                // The spec fork exists so adding racks never perturbs
                // other specs' streams; unit forks never consume it.
                let _ = spec_stream(&root, i);
                (0..racks).map(|u| unit_stream(&root, i, u)).collect()
            })
            .collect();
        Ok(SimFaults {
            active: vec![false; plan.len()],
            unit_rngs,
            last_sensor: socs.to_vec(),
            history: VecDeque::new(),
            last_good_soc: socs.iter().map(|&s| (now, s)).collect(),
            fallback: vec![false; racks],
            counters: FaultCounters::default(),
            plan,
            config,
        })
    }

    /// The injected plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The degraded-mode configuration.
    pub fn config(&self) -> &DegradedConfig {
        &self.config
    }

    /// Running counters.
    pub fn counters(&self) -> FaultCounters {
        self.counters
    }

    /// Summarizes the run so far.
    pub fn report(&self) -> FaultReport {
        FaultReport {
            plan: self.plan.name().to_string(),
            specs: self.plan.len(),
            counters: self.counters,
        }
    }

    /// Detects fault windows opening or closing at `now`.
    ///
    /// Call once per step before any other hook; the returned edges are
    /// in spec order (opens and closes interleaved as scheduled).
    pub fn begin_step(&mut self, now: SimTime) -> Vec<FaultEdge> {
        let mut edges = Vec::new();
        for (i, spec) in self.plan.specs().iter().enumerate() {
            let on = spec.active_at(now);
            if on != self.active[i] {
                self.active[i] = on;
                if on {
                    self.counters.injected += 1;
                } else {
                    self.counters.cleared += 1;
                }
                edges.push(FaultEdge {
                    spec: i,
                    kind: spec.kind,
                    target: spec.target,
                    injected: on,
                });
            }
        }
        edges
    }

    /// Active specs at `now` covering `unit`, as `(index, spec)` pairs.
    fn active_on(&self, now: SimTime, unit: usize) -> impl Iterator<Item = (usize, &FaultSpec)> {
        self.plan
            .active_at(now)
            .filter(move |(_, s)| s.target.covers(unit))
    }

    /// Effective breaker-rating multiplier for rack `r` at `now` (the
    /// most severe active [`FaultKind::ComponentDerate`] wins).
    pub fn breaker_derate(&self, now: SimTime, r: usize) -> f64 {
        self.active_on(now, r)
            .filter_map(|(_, s)| match s.kind {
                FaultKind::ComponentDerate { factor } => Some(factor),
                _ => None,
            })
            .fold(1.0, f64::min)
    }

    /// Effective usable-capacity multiplier for rack `r`'s cabinet at
    /// `now` (the most severe active [`FaultKind::CapacityFade`] wins).
    pub fn capacity_factor(&self, now: SimTime, r: usize) -> f64 {
        self.active_on(now, r)
            .filter_map(|(_, s)| match s.kind {
                FaultKind::CapacityFade { factor } => Some(factor),
                _ => None,
            })
            .fold(1.0, f64::min)
    }

    /// `true` if rack `r`'s µDEB converter is under an active
    /// [`FaultKind::ComponentOutage`] window at `now`.
    pub fn udeb_out(&self, now: SimTime, r: usize) -> bool {
        self.active_on(now, r)
            .any(|(_, s)| matches!(s.kind, FaultKind::ComponentOutage))
    }

    /// `true` while any [`FaultKind::ComponentOutage`] window is open at
    /// `now`, on any target — the host's cheap gate before building a
    /// per-rack outage map.
    pub fn outage_active(&self, now: SimTime) -> bool {
        self.plan
            .active_at(now)
            .any(|(_, s)| matches!(s.kind, FaultKind::ComponentOutage))
    }

    /// `true` while any sensor-layer fault window is open at `now` —
    /// when `false`, [`report_socs`] would be an identity copy (it draws
    /// no randomness and updates no dropout state), so the host can skip
    /// it on the hot path.
    ///
    /// [`report_socs`]: SimFaults::report_socs
    pub fn sensor_active(&self, now: SimTime) -> bool {
        self.plan.active_at(now).any(|(_, s)| {
            matches!(
                s.kind,
                FaultKind::SensorNoise { .. }
                    | FaultKind::SensorBias { .. }
                    | FaultKind::SensorStuckAt { .. }
                    | FaultKind::SensorDropout { .. }
            )
        })
    }

    /// `true` while at least one rack is in watchdog fallback.
    pub fn any_fallback(&self) -> bool {
        self.fallback.iter().any(|&b| b)
    }

    /// Corrupts an SOC sensor sweep: what the control plane reads at
    /// `now` given ground truth `socs`. Specs apply in plan order, each
    /// composing on the previous output; dropout holds the last value
    /// this injector actually delivered. Ground truth is never touched,
    /// and the output is deliberately *not* clamped — feeding hostile
    /// readings to the planner is the point (the vDEB sanitizer clamps
    /// at the consumer).
    pub fn report_socs(&mut self, now: SimTime, socs: &[f64]) -> Vec<f64> {
        let mut out = socs.to_vec();
        for i in 0..self.plan.len() {
            let spec = self.plan.specs()[i];
            if !spec.active_at(now) {
                continue;
            }
            for (r, value) in out.iter_mut().enumerate() {
                if !spec.target.covers(r) {
                    continue;
                }
                match spec.kind {
                    FaultKind::SensorNoise { std } => {
                        *value += self.unit_rngs[i][r].normal_with(0.0, std);
                        self.counters.readings_corrupted += 1;
                    }
                    FaultKind::SensorBias { delta } => {
                        *value += delta;
                        self.counters.readings_corrupted += 1;
                    }
                    FaultKind::SensorStuckAt { value: stuck } => {
                        *value = stuck;
                        self.counters.readings_corrupted += 1;
                    }
                    FaultKind::SensorDropout { p } => {
                        // One draw per covered rack whether or not it
                        // drops, so window edges never shift the stream.
                        let dropped = self.unit_rngs[i][r].chance(p);
                        if dropped {
                            *value = self.last_sensor[r];
                            self.counters.readings_dropped += 1;
                        }
                    }
                    _ => {}
                }
            }
        }
        self.last_sensor.copy_from_slice(&out);
        out
    }

    /// Delivers a freshly computed coordinator round — per-rack plan
    /// entries *and* outlet-budget grants, which travel in the same
    /// message, stamped with `round` and issued at `now` — through the
    /// faulted control path, updating each rack's [`RackHeld`] state in
    /// place via the idempotent receive path.
    ///
    /// Per rack, in order: **delay** picks an older round from the
    /// round history, **reorder** swaps this round with the previous
    /// one, and **loss** drops the delivery outright after
    /// [`DegradedConfig::retry_limit`] extra attempts. A rack whose
    /// delivery is lost keeps its stale held state and its staleness
    /// clock keeps running. A delivery that reaches the rack is applied
    /// through [`RackHeld::receive`]: only a strictly newer round is
    /// adopted (refreshing the staleness clock and the last-known-good
    /// SOC from the possibly sensor-corrupted `reported_socs`); replays
    /// of the held round or older are counted as duplicates and ignored,
    /// so a re-delivered grant can never be spent twice or talk a rack
    /// out of watchdog fallback.
    pub fn deliver_plan(
        &mut self,
        now: SimTime,
        round: u64,
        computed: &[Watts],
        computed_grants: &[Watts],
        reported_socs: &[f64],
        held: &mut [RackHeld],
    ) {
        self.history.push_front(RoundEntry {
            round,
            issued_at: now,
            plans: computed.to_vec(),
            grants: computed_grants.to_vec(),
        });
        self.history.truncate(PLAN_HISTORY);
        for r in 0..held.len() {
            // Delay: the entry this rack would receive now is the one
            // computed `rounds` rounds ago. If that round predates the
            // injector, nothing arrives yet.
            let mut age = 0usize;
            let mut delayed = false;
            for (_, spec) in self.plan.active_at(now).filter(|(_, s)| s.target.covers(r)) {
                if let FaultKind::MsgDelay { rounds } = spec.kind {
                    age = age.max(rounds as usize);
                    delayed = true;
                }
            }
            if delayed {
                self.counters.plans_delayed += 1;
            }
            // Reorder: swap with the adjacent (previous) round.
            for i in 0..self.plan.len() {
                let spec = self.plan.specs()[i];
                if !spec.active_at(now) || !spec.target.covers(r) {
                    continue;
                }
                if let FaultKind::MsgReorder { p } = spec.kind {
                    if self.unit_rngs[i][r].chance(p) {
                        age += 1;
                        self.counters.plans_reordered += 1;
                    }
                }
            }
            if age >= self.history.len() {
                // The delayed round predates recorded history: no
                // delivery this round.
                self.counters.plans_lost += 1;
                continue;
            }
            // Loss with bounded retry, per active loss spec.
            let mut lost = false;
            for i in 0..self.plan.len() {
                let spec = self.plan.specs()[i];
                if !spec.active_at(now) || !spec.target.covers(r) {
                    continue;
                }
                if let FaultKind::MsgLoss { p } = spec.kind {
                    let mut through = false;
                    for attempt in 0..=self.config.retry_limit {
                        if attempt > 0 {
                            self.counters.retries_used += 1;
                        }
                        if !self.unit_rngs[i][r].chance(p) {
                            through = true;
                            break;
                        }
                    }
                    if !through {
                        lost = true;
                    }
                }
            }
            if lost {
                self.counters.plans_lost += 1;
                continue;
            }
            let entry = &self.history[age];
            let msg = RoundMsg {
                round: entry.round,
                issued_at: entry.issued_at,
                plan: entry.plans[r],
                grant: entry.grants[r],
            };
            match held[r].receive(&msg, now) {
                DeliveryOutcome::Fresh => {
                    self.last_good_soc[r] = (now, reported_socs[r]);
                }
                DeliveryOutcome::Duplicate => {
                    self.counters.plans_duplicate += 1;
                }
            }
        }
    }

    /// Advances the per-rack staleness watchdog at `now` against each
    /// rack's held-state staleness clock, returning the racks whose
    /// fallback state changed as `(rack, entered)` edges.
    pub fn watchdog_tick(&mut self, now: SimTime, held: &[RackHeld]) -> Vec<(usize, bool)> {
        let mut edges = Vec::new();
        for (r, fallback) in self.fallback.iter_mut().enumerate() {
            if let Some(stale) =
                crate::vdeb::watchdog_edge(&held[r], now, self.config.watchdog_timeout, fallback)
            {
                if stale {
                    self.counters.fallback_entries += 1;
                }
                edges.push((r, stale));
            }
            if *fallback {
                self.counters.fallback_ticks += 1;
            }
        }
        edges
    }

    /// `true` if rack `r` is currently in watchdog fallback.
    pub fn fallback_active(&self, r: usize) -> bool {
        self.fallback[r]
    }

    /// The fallback's pessimistic SOC estimate for rack `r` at `now`:
    /// last-known-good decayed at [`DegradedConfig::soc_decay_per_hour`].
    pub fn decayed_soc(&self, now: SimTime, r: usize) -> f64 {
        let (stamp, soc) = self.last_good_soc[r];
        let hours = now.saturating_since(stamp).as_hours_f64();
        (soc - self.config.soc_decay_per_hour * hours).max(0.0)
    }

    /// Safe local discharge cap for a fallback rack: `P_ideal` while the
    /// decayed SOC estimate clears the vDEB reserve, zero once it does
    /// not (a deaf rack never deep-discharges on guesswork).
    pub fn fallback_cap(&self, now: SimTime, r: usize, p_ideal: Watts, reserve: f64) -> Watts {
        if self.decayed_soc(now, r) > reserve {
            p_ideal
        } else {
            Watts::ZERO
        }
    }
}

/// Names of the built-in fault plans, for CLI listings.
pub const NAMED_PLANS: [&str; 4] = ["ci-smoke", "sensor-storm", "partition", "brownout"];

/// Looks up a built-in fault plan by name.
///
/// Windows are written for the default `padsim fault` timeline (attack
/// at minute 10 of a 30-minute run) but degrade gracefully on other
/// horizons: anything scheduled past the end simply never fires.
///
/// * `ci-smoke` — one fault from each layer, mild parameters; the CI
///   fault-suite plan.
/// * `sensor-storm` — every sensor fault kind at once on the SOC path.
/// * `partition` — the coordinator link mostly dark: heavy loss plus
///   delay and reordering.
/// * `brownout` — physical-layer degradation: derated breakers, faded
///   batteries, a µDEB outage.
pub fn named_plan(name: &str) -> Option<FaultPlan> {
    let m = SimTime::from_mins;
    let plan = match name {
        "ci-smoke" => FaultPlan::new("ci-smoke")
            .with(FaultSpec::new(
                FaultKind::SensorNoise { std: 0.05 },
                FaultTarget::All,
                m(5),
                m(15),
            ))
            .with(FaultSpec::new(
                FaultKind::MsgLoss { p: 0.3 },
                FaultTarget::All,
                m(10),
                m(20),
            ))
            .with(FaultSpec::new(
                FaultKind::ComponentOutage,
                FaultTarget::Unit(0),
                m(12),
                m(18),
            ))
            .with(FaultSpec::new(
                FaultKind::ComponentDerate { factor: 0.9 },
                FaultTarget::All,
                m(8),
                m(25),
            ))
            .with(FaultSpec::new(
                FaultKind::CapacityFade { factor: 0.85 },
                FaultTarget::Unit(1),
                m(1),
                m(28),
            )),
        "sensor-storm" => FaultPlan::new("sensor-storm")
            .with(FaultSpec::new(
                FaultKind::SensorNoise { std: 0.15 },
                FaultTarget::All,
                m(5),
                m(25),
            ))
            .with(FaultSpec::new(
                FaultKind::SensorBias { delta: -0.4 },
                FaultTarget::Unit(0),
                m(8),
                m(20),
            ))
            .with(FaultSpec::new(
                FaultKind::SensorStuckAt { value: 1.0 },
                FaultTarget::Unit(1),
                m(10),
                m(22),
            ))
            .with(FaultSpec::new(
                FaultKind::SensorDropout { p: 0.5 },
                FaultTarget::All,
                m(12),
                m(24),
            )),
        "partition" => FaultPlan::new("partition")
            .with(FaultSpec::new(
                FaultKind::MsgLoss { p: 0.9 },
                FaultTarget::All,
                m(10),
                m(26),
            ))
            .with(FaultSpec::new(
                FaultKind::MsgDelay { rounds: 2 },
                FaultTarget::All,
                m(10),
                m(26),
            ))
            .with(FaultSpec::new(
                FaultKind::MsgReorder { p: 0.25 },
                FaultTarget::All,
                m(10),
                m(26),
            )),
        "brownout" => FaultPlan::new("brownout")
            .with(FaultSpec::new(
                FaultKind::ComponentDerate { factor: 0.8 },
                FaultTarget::All,
                m(5),
                m(28),
            ))
            .with(FaultSpec::new(
                FaultKind::CapacityFade { factor: 0.7 },
                FaultTarget::All,
                m(5),
                m(28),
            ))
            .with(FaultSpec::new(
                FaultKind::ComponentOutage,
                FaultTarget::All,
                m(14),
                m(20),
            )),
        _ => return None,
    };
    Some(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noise_plan() -> FaultPlan {
        FaultPlan::new("t").with(FaultSpec::new(
            FaultKind::SensorNoise { std: 0.1 },
            FaultTarget::All,
            SimTime::from_secs(10),
            SimTime::from_secs(20),
        ))
    }

    #[test]
    fn edges_fire_once_per_window() {
        let mut f = SimFaults::new(
            noise_plan(),
            DegradedConfig::default(),
            7,
            SimTime::ZERO,
            &[1.0, 1.0],
        )
        .unwrap();
        assert!(f.begin_step(SimTime::ZERO).is_empty());
        let open = f.begin_step(SimTime::from_secs(10));
        assert_eq!(open.len(), 1);
        assert!(open[0].injected);
        assert!(f.begin_step(SimTime::from_secs(15)).is_empty());
        let close = f.begin_step(SimTime::from_secs(20));
        assert_eq!(close.len(), 1);
        assert!(!close[0].injected);
        assert_eq!(f.counters().injected, 1);
        assert_eq!(f.counters().cleared, 1);
    }

    #[test]
    fn sensor_faults_never_touch_ground_truth_and_are_deterministic() {
        let mk = || {
            SimFaults::new(
                noise_plan(),
                DegradedConfig::default(),
                42,
                SimTime::ZERO,
                &[0.8, 0.6],
            )
            .unwrap()
        };
        let truth = [0.8, 0.6];
        let mut a = mk();
        let mut b = mk();
        let t = SimTime::from_secs(12);
        let ra = a.report_socs(t, &truth);
        let rb = b.report_socs(t, &truth);
        assert_eq!(ra, rb, "same seed, same corruption");
        assert_ne!(ra, truth.to_vec(), "noise applied");
        assert_eq!(truth, [0.8, 0.6], "ground truth untouched");
        // Outside the window the readings pass through clean.
        assert_eq!(
            a.report_socs(SimTime::from_secs(30), &truth),
            truth.to_vec()
        );
    }

    #[test]
    fn stuck_and_bias_compose_in_spec_order() {
        let plan = FaultPlan::new("t")
            .with(FaultSpec::new(
                FaultKind::SensorStuckAt { value: 0.5 },
                FaultTarget::Unit(0),
                SimTime::ZERO,
                SimTime::from_secs(10),
            ))
            .with(FaultSpec::new(
                FaultKind::SensorBias { delta: -0.7 },
                FaultTarget::Unit(0),
                SimTime::ZERO,
                SimTime::from_secs(10),
            ));
        let mut f =
            SimFaults::new(plan, DegradedConfig::default(), 1, SimTime::ZERO, &[0.9]).unwrap();
        let r = f.report_socs(SimTime::from_secs(1), &[0.9]);
        // Stuck first (0.5), then bias: 0.5 - 0.7 = -0.2, left unclamped
        // for the vDEB sanitizer to handle.
        assert!((r[0] - (-0.2)).abs() < 1e-12);
    }

    #[test]
    fn total_loss_starves_delivery_and_watchdog_fires() {
        let plan = FaultPlan::new("t").with(FaultSpec::new(
            FaultKind::MsgLoss { p: 1.0 },
            FaultTarget::All,
            SimTime::ZERO,
            SimTime::from_hours(1),
        ));
        let config = DegradedConfig {
            watchdog_timeout: SimDuration::from_secs(30),
            ..DegradedConfig::default()
        };
        let mut f = SimFaults::new(plan, config, 3, SimTime::ZERO, &[1.0]).unwrap();
        let mut held = [RackHeld {
            plan: Watts(100.0),
            grant: Watts(40.0),
            round: 1,
            issued_at: SimTime::ZERO,
            last_contact: SimTime::ZERO,
        }];
        f.deliver_plan(
            SimTime::from_secs(10),
            2,
            &[Watts(5.0)],
            &[Watts(2.0)],
            &[1.0],
            &mut held,
        );
        assert_eq!(held[0].plan, Watts(100.0), "loss keeps the stale plan");
        assert_eq!(held[0].grant, Watts(40.0), "loss keeps the stale grant");
        assert!(f.counters().plans_lost >= 1);
        assert!(f.counters().retries_used >= 1, "bounded retry was spent");
        assert!(f.watchdog_tick(SimTime::from_secs(20), &held).is_empty());
        let edges = f.watchdog_tick(SimTime::from_secs(31), &held);
        assert_eq!(edges, vec![(0, true)]);
        assert!(f.fallback_active(0));
        // A *fresh* delivery outside the loss window clears the fallback.
        f.deliver_plan(
            SimTime::from_hours(2),
            3,
            &[Watts(5.0)],
            &[Watts(2.0)],
            &[1.0],
            &mut held,
        );
        assert_eq!(held[0].plan, Watts(5.0));
        assert_eq!(held[0].grant, Watts(2.0));
        let edges = f.watchdog_tick(SimTime::from_hours(2), &held);
        assert_eq!(edges, vec![(0, false)]);
    }

    #[test]
    fn delay_delivers_older_rounds() {
        let plan = FaultPlan::new("t").with(FaultSpec::new(
            FaultKind::MsgDelay { rounds: 1 },
            FaultTarget::All,
            SimTime::ZERO,
            SimTime::from_hours(1),
        ));
        let mut f =
            SimFaults::new(plan, DegradedConfig::default(), 3, SimTime::ZERO, &[1.0]).unwrap();
        let mut held = [RackHeld::new(SimTime::ZERO)];
        let deliver = |f: &mut SimFaults, t, round, p, g, held: &mut [RackHeld]| {
            f.deliver_plan(t, round, &[Watts(p)], &[Watts(g)], &[1.0], held);
        };
        deliver(&mut f, SimTime::from_secs(10), 1, 1.0, 10.0, &mut held);
        assert_eq!(held[0].round, 0, "first round predates history");
        deliver(&mut f, SimTime::from_secs(20), 2, 2.0, 20.0, &mut held);
        assert_eq!(held[0].plan, Watts(1.0), "one round late");
        assert_eq!(held[0].grant, Watts(10.0), "grant travels with its round");
        assert_eq!(
            held[0].issued_at,
            SimTime::from_secs(10),
            "a delayed round keeps its original lease clock"
        );
        deliver(&mut f, SimTime::from_secs(30), 3, 3.0, 30.0, &mut held);
        assert_eq!(held[0].plan, Watts(2.0));
        assert_eq!(held[0].grant, Watts(20.0));
        assert_eq!(
            f.counters().plans_duplicate,
            0,
            "a delayed round is still newer than what the rack holds"
        );
    }

    #[test]
    fn replayed_rounds_are_duplicates() {
        // A delay window that opens after the rack has already adopted
        // the latest round re-delivers that same round one interval
        // later — a replay the idempotent receive must ignore.
        let plan = FaultPlan::new("t").with(FaultSpec::new(
            FaultKind::MsgDelay { rounds: 1 },
            FaultTarget::All,
            SimTime::from_secs(25),
            SimTime::from_hours(1),
        ));
        let mut f =
            SimFaults::new(plan, DegradedConfig::default(), 3, SimTime::ZERO, &[1.0]).unwrap();
        let mut held = [RackHeld::new(SimTime::ZERO)];
        let deliver = |f: &mut SimFaults, t, round, held: &mut [RackHeld]| {
            f.deliver_plan(
                t,
                round,
                &[Watts(round as f64)],
                &[Watts(10.0 * round as f64)],
                &[1.0],
                held,
            );
        };
        // Healthy deliveries: the rack adopts rounds 1 and 2.
        deliver(&mut f, SimTime::from_secs(10), 1, &mut held);
        deliver(&mut f, SimTime::from_secs(20), 2, &mut held);
        assert_eq!(held[0].round, 2);
        let clock = held[0].last_contact;
        // The delay window is now open: the round-3 delivery resolves
        // one round older, replaying round 2 — a duplicate. Before the
        // idempotence fix this replay re-applied round 2's grant (a
        // double-spend of headroom the coordinator has since re-granted)
        // and refreshed the staleness clock.
        deliver(&mut f, SimTime::from_secs(30), 3, &mut held);
        assert_eq!(held[0].round, 2, "replay not re-applied");
        assert_eq!(held[0].grant, Watts(20.0), "grant unchanged by replay");
        assert_eq!(
            held[0].last_contact, clock,
            "replay does not refresh the staleness clock"
        );
        assert_eq!(f.counters().plans_duplicate, 1);
        // The next round's delayed delivery resolves to round 3: fresh.
        deliver(&mut f, SimTime::from_secs(40), 4, &mut held);
        assert_eq!(held[0].round, 3);
        assert!(held[0].last_contact > clock);
    }

    #[test]
    fn decayed_soc_gates_fallback_cap() {
        let plan = FaultPlan::new("t");
        let config = DegradedConfig {
            soc_decay_per_hour: 0.5,
            ..DegradedConfig::default()
        };
        let f = SimFaults::new(plan, config, 1, SimTime::ZERO, &[0.6]).unwrap();
        let p = Watts(250.0);
        assert_eq!(f.fallback_cap(SimTime::ZERO, 0, p, 0.3), p);
        // After one hour the estimate decays 0.6 -> 0.1, under the
        // reserve: the cap drops to zero.
        assert_eq!(
            f.fallback_cap(SimTime::from_hours(1), 0, p, 0.3),
            Watts::ZERO
        );
        assert!((f.decayed_soc(SimTime::from_hours(1), 0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn component_factors_take_most_severe() {
        let plan = FaultPlan::new("t")
            .with(FaultSpec::new(
                FaultKind::ComponentDerate { factor: 0.9 },
                FaultTarget::All,
                SimTime::ZERO,
                SimTime::from_secs(10),
            ))
            .with(FaultSpec::new(
                FaultKind::ComponentDerate { factor: 0.7 },
                FaultTarget::Unit(0),
                SimTime::ZERO,
                SimTime::from_secs(10),
            ))
            .with(FaultSpec::new(
                FaultKind::CapacityFade { factor: 0.8 },
                FaultTarget::Unit(1),
                SimTime::ZERO,
                SimTime::from_secs(10),
            ))
            .with(FaultSpec::new(
                FaultKind::ComponentOutage,
                FaultTarget::Unit(1),
                SimTime::ZERO,
                SimTime::from_secs(10),
            ));
        let f = SimFaults::new(
            plan,
            DegradedConfig::default(),
            1,
            SimTime::ZERO,
            &[1.0, 1.0],
        )
        .unwrap();
        let t = SimTime::from_secs(1);
        assert!((f.breaker_derate(t, 0) - 0.7).abs() < 1e-12);
        assert!((f.breaker_derate(t, 1) - 0.9).abs() < 1e-12);
        assert!((f.capacity_factor(t, 0) - 1.0).abs() < 1e-12);
        assert!((f.capacity_factor(t, 1) - 0.8).abs() < 1e-12);
        assert!(!f.udeb_out(t, 0));
        assert!(f.udeb_out(t, 1));
        let after = SimTime::from_secs(11);
        assert!((f.breaker_derate(after, 0) - 1.0).abs() < 1e-12);
        assert!(!f.udeb_out(after, 1));
    }

    #[test]
    fn named_plans_all_validate() {
        for name in NAMED_PLANS {
            let plan = named_plan(name).expect("named plan exists");
            plan.validate().expect("named plan valid");
            assert_eq!(plan.name(), name);
        }
        assert!(named_plan("nonsense").is_none());
    }

    #[test]
    fn report_renders_json() {
        let f = SimFaults::new(
            named_plan("ci-smoke").unwrap(),
            DegradedConfig::default(),
            1,
            SimTime::ZERO,
            &[1.0, 1.0],
        )
        .unwrap();
        let json = f.report().to_json();
        assert!(json.starts_with("{\"plan\":\"ci-smoke\""));
        assert!(json.contains("\"specs\":5"));
        assert!(json.contains("\"fallback_ticks\":0"));
    }

    #[test]
    fn out_of_range_targets_are_rejected() {
        let plan = FaultPlan::new("bad")
            .with(FaultSpec::new(
                FaultKind::MsgLoss { p: 0.5 },
                FaultTarget::All,
                SimTime::ZERO,
                SimTime::from_secs(10),
            ))
            .with(FaultSpec::new(
                FaultKind::ComponentOutage,
                FaultTarget::Unit(99),
                SimTime::ZERO,
                SimTime::from_secs(10),
            ));
        let socs = [1.0; 22];
        let err =
            SimFaults::new(plan, DegradedConfig::default(), 1, SimTime::ZERO, &socs).unwrap_err();
        assert!(err.starts_with("spec 1:"), "{err}");
        assert!(err.contains("rack 99"), "{err}");
        assert!(err.contains("22-rack"), "{err}");
        // The last rack is in range.
        let plan = FaultPlan::new("edge").with(FaultSpec::new(
            FaultKind::ComponentOutage,
            FaultTarget::Unit(21),
            SimTime::ZERO,
            SimTime::from_secs(10),
        ));
        assert!(SimFaults::new(plan, DegradedConfig::default(), 1, SimTime::ZERO, &socs).is_ok());
    }
}

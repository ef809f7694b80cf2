//! The trace-driven data-center simulator (Figure 11-B).
//!
//! "We feed the collected power virus traces to a trace-based data center
//! simulator that takes real Google compute traces as input … All the
//! power system models are embedded in our simulation platform." (§V)
//!
//! [`ClusterSim`] advances the whole cluster in fixed steps (100 ms during
//! attacks — fine enough for sub-second spikes and the 200 ms capping
//! latency; 1–5 min for month-long battery studies). Each step runs the
//! same pipeline the paper describes:
//!
//! 1. background utilization from the Google-like trace (plus live
//!    migration deltas), with the power virus overlaid on compromised
//!    servers — a calibrated non-offending drain in Phase I, full-height
//!    spikes in Phase II, optional node escalation;
//! 2. DVFS factors from the capping actuators, floored by the operator's
//!    protective cluster-wide cut while an overload incident is live;
//! 3. the slow management loop (every `grant_interval`): Algorithm-1
//!    pooled discharge plan plus iPDU budget grants, computed from
//!    *averages* so hidden spikes never steer it;
//! 4. the fast layer: local/planned battery shaving, µDEB ORing shaving
//!    above the engage threshold (with a thermal burst guard), and the
//!    vDEB emergency local top-up;
//! 5. overload bookkeeping against the oversubscribed budgets (Eq. 1–2),
//!    inverse-time breaker heating, and operator outages on trip;
//! 6. PSPC's reactive + proactive capping (the only baseline with DVFS,
//!    per Table III), PAD's three-level policy with Level-3 shedding or
//!    migration;
//! 7. battery/µDEB recharge from budget headroom, the attacker's
//!    performance side channel, and the forensic event log.

use std::sync::Arc;

use attack::phases::TwoPhaseAttack;
use attack::scenario::AttackScenario;
use battery::charge::ChargePolicy;
use battery::model::EnergyStorage;
use battery::units::Watts;
use powerinfra::capping::PowerCapper;
use powerinfra::pdu::{Pdu, PduConfig};
use powerinfra::rack::Rack;
use powerinfra::server::ServerSpec;
use powerinfra::topology::{ClusterTopology, RackId};
use simkit::detect::FusedVerdict;
use simkit::fault::{FaultKind, FaultPlan, FaultTarget};
use simkit::log::{EventLog, Severity};
use simkit::prof::LapTimer;
use simkit::rng::RngStream;
use simkit::telemetry::{EventKind, TelemetryDump};
use simkit::time::{SimDuration, SimTime};
use simkit::trace::TraceDump;
use workload::trace::ClusterTrace;

use crate::detect::{DetectConfig, SimDetectors};
use crate::fault::{DegradedConfig, FaultEdge, SimFaults};
use crate::metrics::{OverloadEvent, SocHistory, SurvivalReport};
use crate::migration::LoadMigrator;
use crate::policy::{DetectionEvidence, PolicyInputs, SecurityLevel, SecurityPolicy, Strictness};
use crate::prof::{SimProfile, SimProfiler, StepPhase};
use crate::schemes::Scheme;
use crate::shedding::LoadShedder;
use crate::telemetry::{RackTick, SimTelemetry};
use crate::trace::SimTracer;
use crate::udeb::MicroDeb;
use crate::vdeb::{
    allocate_grants, plan_discharge_with_reserve, RackHeld, RoundMsg, VdebController,
};

/// What PAD's Level 3 does about a cluster shortfall (§IV.A names both:
/// "put some servers into sleeping/hibernating states or trigger load
/// migration from vulnerable racks to dependable racks").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EmergencyAction {
    /// Sleep up to `shed_ratio` of the cluster's servers (throughput is
    /// sacrificed).
    #[default]
    Shed,
    /// Migrate load from vulnerable racks to racks with budget headroom
    /// (work is conserved; more coordination).
    Migrate,
}

/// Full simulator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Cluster layout.
    pub topology: ClusterTopology,
    /// Server power curve.
    pub server: ServerSpec,
    /// Scheme under evaluation.
    pub scheme: Scheme,
    /// Rack soft limit and cluster budget as a fraction of nameplate
    /// (Figure 8-C sweeps 0.55–0.70; the survival studies use 0.75).
    pub budget_fraction: f64,
    /// Overload tolerance: draw beyond `limit × (1 + tolerance)` is an
    /// overload event (Figure 8-A sweeps 4–16%).
    pub overshoot_tolerance: f64,
    /// Battery recharge policy.
    pub charge_policy: ChargePolicy,
    /// Rack cabinet autonomy: how long a full battery sustains the rack
    /// at nameplate power (the paper's "50 seconds under full load").
    pub battery_autonomy: SimDuration,
    /// vDEB per-rack discharge cap (`P_ideal` in Algorithm 1).
    pub p_ideal: Watts,
    /// µDEB capacity as a fraction of the rack cabinet (Figure 17 knob).
    pub udeb_fraction: f64,
    /// µDEB converter power rating.
    pub udeb_max_power: Watts,
    /// Residual power below which the µDEB ORing path does not engage:
    /// small sustained residuals ride the breaker tolerance band; the
    /// super-capacitor is reserved for genuine spikes.
    pub udeb_engage_threshold: Watts,
    /// Level-3 shedding cap as a fraction of cluster servers.
    pub shed_ratio: f64,
    /// Whether Level 3 sheds load or migrates it.
    pub emergency_action: EmergencyAction,
    /// vDEB protective reserve: racks at or below this SOC are excused
    /// from discharge duty ("prevents vulnerable batteries from
    /// aggressively discharging").
    pub vdeb_reserve_soc: f64,
    /// DVFS actuation latency (the paper's 100–300 ms).
    pub capping_latency: SimDuration,
    /// Averaging window of the last-resort iPDU enforcement.
    pub enforcement_window: SimDuration,
    /// Period of the slow management loop that recomputes the vDEB pool
    /// plan and the iPDU budget grants. Budget reassignment is a
    /// management-plane action: it reacts to *average* demand, never to
    /// sub-second spikes.
    pub grant_interval: SimDuration,
    /// PAD policy strictness for the Figure-9 unstable states.
    pub strictness: Strictness,
    /// Minimum-residency hold-down (in policy updates) before the PAD
    /// policy may de-escalate. `0` reproduces the paper FSM verbatim;
    /// faulted deployments raise it so one corrupted tick of telemetry
    /// cannot flap L3 back to L1.
    pub policy_hold_down: u32,
    /// Standard deviation of fast per-rack electrical noise (PSU ripple,
    /// fans, disks) added to each rack's demand every step. This is what
    /// makes a marginal spike succeed *sometimes* — the paper's Figure 7
    /// "failed attempt" vs "effective attack".
    pub demand_jitter: Watts,
    /// Incident response: after an overload event, the operator applies a
    /// protective cluster-wide 20% frequency cut for a few minutes ("the
    /// data center can apply cluster-wide power capping to eliminate any
    /// hidden power spikes; such security measures may well be overkill
    /// and could significantly affect other legitimate service requests",
    /// §III.B). This is where the baselines' throughput goes (Figure 16).
    pub protective_response: bool,
}

impl SimConfig {
    /// The paper's evaluation setup for a given scheme: 22 racks × 10 HP
    /// DL585 G5 servers, 50 s cabinets, 75% budget, 8% overshoot
    /// tolerance (12%), 5% µDEB.
    pub fn paper_default(scheme: Scheme) -> Self {
        let server = ServerSpec::hp_proliant_dl585_g5();
        let nameplate = server.peak * 10.0;
        SimConfig {
            topology: ClusterTopology::paper_cluster(),
            server,
            scheme,
            budget_fraction: 0.75,
            overshoot_tolerance: 0.12,
            charge_policy: ChargePolicy::Online,
            battery_autonomy: SimDuration::from_secs(50),
            p_ideal: nameplate * 0.05,
            udeb_fraction: 0.05,
            udeb_max_power: nameplate * 0.3,
            udeb_engage_threshold: nameplate * 0.0675,
            shed_ratio: 0.03,
            emergency_action: EmergencyAction::Shed,
            vdeb_reserve_soc: 0.3,
            capping_latency: SimDuration::from_millis(200),
            enforcement_window: SimDuration::SECOND,
            grant_interval: SimDuration::from_secs(10),
            strictness: Strictness::Strict,
            policy_hold_down: 0,
            demand_jitter: nameplate * 0.01,
            protective_response: true,
        }
    }

    /// A scaled-down configuration for unit tests: 4 racks × 4 servers.
    pub fn small_test(scheme: Scheme) -> Self {
        let server = ServerSpec::hp_proliant_dl585_g5();
        let nameplate = server.peak * 4.0;
        SimConfig {
            topology: ClusterTopology::new(4, 4),
            p_ideal: nameplate * 0.05,
            udeb_max_power: nameplate * 0.3,
            udeb_engage_threshold: nameplate * 0.0675,
            demand_jitter: nameplate * 0.01,
            ..SimConfig::paper_default(scheme)
        }
    }

    /// Rack nameplate power under this config.
    pub fn rack_nameplate(&self) -> Watts {
        self.server.peak * self.topology.servers_per_rack() as f64
    }

    /// Per-rack soft budget.
    pub fn rack_budget(&self) -> Watts {
        self.rack_nameplate() * self.budget_fraction
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0 < self.budget_fraction && self.budget_fraction <= 1.0) {
            return Err(format!(
                "budget fraction {} not in (0,1]",
                self.budget_fraction
            ));
        }
        if !(0.0..1.0).contains(&self.overshoot_tolerance) {
            return Err(format!(
                "overshoot tolerance {} not in [0,1)",
                self.overshoot_tolerance
            ));
        }
        if self.battery_autonomy.is_zero() {
            return Err("battery autonomy must be non-zero".into());
        }
        if self.p_ideal.0 <= 0.0 {
            return Err("P_ideal must be positive".into());
        }
        if !(0.0 < self.udeb_fraction && self.udeb_fraction <= 1.0) {
            return Err(format!("µDEB fraction {} not in (0,1]", self.udeb_fraction));
        }
        if !(0.0 < self.shed_ratio && self.shed_ratio <= 1.0) {
            return Err(format!("shed ratio {} not in (0,1]", self.shed_ratio));
        }
        if self.grant_interval.is_zero() {
            return Err("grant interval must be non-zero".into());
        }
        if self.demand_jitter.0 < 0.0 || !self.demand_jitter.is_finite() {
            return Err(format!(
                "demand jitter {} must be non-negative",
                self.demand_jitter
            ));
        }
        if !(0.0..1.0).contains(&self.vdeb_reserve_soc) {
            return Err(format!(
                "vDEB reserve SOC {} not in [0,1)",
                self.vdeb_reserve_soc
            ));
        }
        self.charge_policy.validate()
    }
}

/// Per-rack enforcement (iPDU) rolling-average state.
#[derive(Debug, Clone, Copy, Default)]
struct Enforcement {
    energy_acc: f64,
    time_acc: f64,
    /// PSPC: consecutive seconds of near-limit operation.
    hot_seconds: f64,
    /// PSPC: seconds since demand last ran hot (for cap expiry).
    cool_seconds: f64,
    /// PSPC sticky proactive cap engaged.
    proactive: bool,
    /// Currently in an overload excursion (for event coalescing).
    in_overload: bool,
}

/// Per-rack working columns of one step, kept between steps so the hot
/// loop does not allocate. Every column is rewritten (or zeroed) before
/// it is read.
#[derive(Debug, Clone, Default)]
struct StepColumns {
    /// Demand plus electrical noise (zero for a dark rack).
    demands: Vec<Watts>,
    /// Demand above the rack soft budget.
    excesses: Vec<Watts>,
    /// Power the rack's battery shaved this step.
    battery_shave: Vec<Watts>,
    /// Power the rack's µDEB shaved this step.
    sc_shave: Vec<Watts>,
    /// Grid power the rack's battery drew to recharge this step.
    charge_drawn: Vec<Watts>,
    /// True battery SOCs.
    socs: Vec<f64>,
    /// Mean offered utilization (Level-3 planning input).
    utils: Vec<f64>,
}

impl StepColumns {
    fn new(n: usize) -> Self {
        StepColumns {
            demands: vec![Watts::ZERO; n],
            excesses: vec![Watts::ZERO; n],
            battery_shave: vec![Watts::ZERO; n],
            sc_shave: vec![Watts::ZERO; n],
            charge_drawn: vec![Watts::ZERO; n],
            socs: vec![0.0; n],
            utils: vec![0.0; n],
        }
    }
}

/// The live attack on one rack.
#[derive(Debug, Clone)]
struct AttackState {
    victim: RackId,
    /// Compromised server slots on the victim rack.
    slots: Vec<usize>,
    /// Slots controlled when the attack began (escalation baseline).
    initial_nodes: usize,
    controller: TwoPhaseAttack,
    /// Node-acquisition escalation interval, if enabled.
    escalation: Option<SimDuration>,
}

/// One forensic event raised inside [`ClusterSim::step`], carrying only
/// its payload. [`ClusterSim::emit`] derives the rest — log severity,
/// source and message, the telemetry event, and the span hook — so each
/// event is described in exactly one place.
#[derive(Debug, Clone, Copy)]
enum SimEvent {
    /// A fault window opened or closed.
    Fault(FaultEdge),
    /// A rack entered (or left) watchdog fallback.
    Fallback { rack: usize, entered: bool },
    /// A rack feed breaker tripped.
    RackTrip(usize),
    /// The cluster feed breaker tripped.
    PduTrip,
    /// The step's first overload excursion.
    Overload(OverloadEvent),
    /// The operator engaged the protective cluster-wide cap.
    ProtectiveCap,
    /// The PAD policy changed level.
    LevelChange {
        from: SecurityLevel,
        to: SecurityLevel,
    },
    /// Level 3 migrated this much load off vulnerable racks.
    Migration(Watts),
    /// Level 3 shedding now keeps this many servers asleep.
    Shed(usize),
    /// Shedding ended and every server woke.
    Wake,
    /// A rack's low-voltage disconnect isolated its battery.
    LvdIsolation(usize),
    /// The fused detector verdict fired.
    DetectorFired {
        fused: FusedVerdict,
        confirm_votes: usize,
    },
}

/// The trace-driven cluster simulator.
///
/// # Example
///
/// ```
/// use pad::schemes::Scheme;
/// use pad::sim::{ClusterSim, SimConfig};
/// use simkit::time::{SimDuration, SimTime};
/// use workload::synth::SynthConfig;
///
/// let config = SimConfig::small_test(Scheme::Pad);
/// let trace = SynthConfig {
///     machines: config.topology.total_servers(),
///     horizon: SimTime::from_hours(2),
///     ..SynthConfig::small_test()
/// }
/// .generate_direct(1);
/// let mut sim = ClusterSim::new(config, trace).unwrap();
/// let report = sim.run(SimTime::from_mins(10), SimDuration::from_secs(1), false);
/// assert!(report.delivered_work > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct ClusterSim {
    config: SimConfig,
    racks: Vec<Rack>,
    udebs: Vec<Option<MicroDeb>>,
    cappers: Vec<PowerCapper>,
    enforcement: Vec<Enforcement>,
    pdu: Pdu,
    trace: Arc<ClusterTrace>,
    attacks: Vec<AttackState>,
    now: SimTime,
    policy: SecurityPolicy,
    vdeb: VdebController,
    shedder: LoadShedder,
    migrator: LoadMigrator,
    /// Per-rack per-server utilization deltas from live migrations.
    migration_offsets: Vec<f64>,
    /// Trace row last written into the servers (`None` before the first
    /// step).
    applied_row: Option<usize>,
    /// Migration offset each rack's servers were last written with.
    applied_offsets: Vec<f64>,
    /// Racks whose servers no longer hold their trace baseline — the
    /// stage-1b overlay or a [`ClusterSim::rack_mut`] edit changed them —
    /// and are rewritten on the next step.
    rewrite: Vec<bool>,
    /// Per-rack working columns of [`ClusterSim::step`].
    cols: StepColumns,
    cluster_in_overload: bool,
    // Report accumulators.
    overloads: Vec<OverloadEvent>,
    breaker_trips: u32,
    delivered_work: f64,
    offered_work: f64,
    soc_history: Option<(SimDuration, SimTime, SocHistory)>,
    /// Most recent per-rack utility draw (for inspection/tests).
    last_draws: Vec<Watts>,
    /// Fast electrical-noise stream.
    rng: RngStream,
    /// Per-rack Ornstein–Uhlenbeck jitter state (watts).
    jitter_state: Vec<f64>,
    /// Racks dark after a breaker trip, until the operator reset time.
    outage_until: Vec<Option<SimTime>>,
    /// Protective cluster-wide cap in force until this time.
    protective_until: Option<SimTime>,
    /// Forensic event log (bounded).
    log: EventLog,
    /// Per-tick metric/event recording, when enabled.
    telemetry: Option<SimTelemetry>,
    /// Streaming attack detectors over the telemetry channels, when
    /// enabled.
    detectors: Option<SimDetectors>,
    /// Causal sim-time span tracing, when enabled.
    tracer: Option<SimTracer>,
    /// Performance self-profiler, when enabled (reads the wall clock
    /// only, never sim state).
    prof: Option<SimProfiler>,
    /// Fault injection and degraded-mode control plane, when enabled.
    faults: Option<SimFaults>,
    /// Last-seen per-rack LVD disconnect counts (for logging).
    seen_disconnects: Vec<u32>,
    /// Last-seen policy level (for logging).
    seen_level: SecurityLevel,
    /// Last-seen cluster shed total (for logging).
    seen_shed: usize,
    /// Each rack's held view of the coordination protocol — the last
    /// *adopted* round message (plan entry + outlet grant, with its
    /// round stamp, lease clock and staleness clock). Goes stale under
    /// control-path faults; replays are rejected by the idempotent
    /// receive path.
    held: Vec<RackHeld>,
    /// Coordinator round counter (1-based; stamps every round message).
    round_counter: u64,
    /// The coordinator's own latest grant assignment — what the iPDU
    /// actually *entitles* each outlet to. The iPDU is colocated with
    /// the coordinator, so this never goes stale; the overload predicate
    /// judges draws against it. Identical to the racks' held grants
    /// whenever the control path is healthy.
    grants_current: Vec<Watts>,
    /// Grant power each rack actually spent last step, after the lease
    /// and fallback gates (what the budget-safety property sums).
    last_grant_spend: Vec<Watts>,
    /// Slow-loop averaging accumulators (excess, demand; watt-seconds).
    slow_excess_acc: Vec<f64>,
    slow_demand_acc: Vec<f64>,
    slow_time_acc: f64,
}

impl ClusterSim {
    /// Builds a simulator over `trace`.
    ///
    /// # Errors
    ///
    /// Returns an error if the config is invalid or the trace has fewer
    /// machines than the topology.
    pub fn new(config: SimConfig, trace: ClusterTrace) -> Result<Self, String> {
        Self::new_shared(config, Arc::new(trace))
    }

    /// Builds a simulator over an already-shared `trace`.
    ///
    /// Scenario sweeps construct many simulators over one cluster trace;
    /// sharing the parsed trace behind an [`Arc`] means it is parsed (or
    /// synthesized) exactly once per sweep instead of once per scenario.
    ///
    /// # Errors
    ///
    /// Returns an error if the config is invalid or the trace has fewer
    /// machines than the topology.
    pub fn new_shared(config: SimConfig, trace: Arc<ClusterTrace>) -> Result<Self, String> {
        config.validate()?;
        if trace.machines() < config.topology.total_servers() {
            return Err(format!(
                "trace covers {} machines but the topology needs {}",
                trace.machines(),
                config.topology.total_servers()
            ));
        }
        let nameplate = config.rack_nameplate();
        let racks: Vec<Rack> = config
            .topology
            .rack_ids()
            .map(|id| {
                let cabinet = battery::pack::BatteryCabinet::with_autonomy(
                    nameplate,
                    config.battery_autonomy,
                    config.charge_policy,
                );
                // The rack feed is physically sized for its servers; the
                // oversubscription lives in the soft budget and cluster
                // breaker (Eq. 2), so the rack breaker is nameplate-rated.
                Rack::new(
                    id,
                    config.topology.servers_per_rack(),
                    config.server,
                    cabinet,
                    nameplate,
                )
            })
            .collect();
        let udebs: Vec<Option<MicroDeb>> = racks
            .iter()
            .map(|r| {
                config.scheme.has_udeb().then(|| {
                    MicroDeb::sized_fraction(
                        r.cabinet().capacity(),
                        config.udeb_fraction,
                        config.udeb_max_power,
                    )
                })
            })
            .collect();
        let cappers = vec![PowerCapper::new(config.capping_latency); racks.len()];
        let enforcement = vec![Enforcement::default(); racks.len()];
        let pdu = Pdu::new(PduConfig::uniform(
            racks.len(),
            nameplate,
            config.budget_fraction,
        ));
        let shedder = LoadShedder::new(config.shed_ratio, config.server);
        let migrator = LoadMigrator::new(0.5, config.server);
        let n = racks.len();
        Ok(ClusterSim {
            policy: SecurityPolicy::new(config.strictness).with_hold_down(config.policy_hold_down),
            vdeb: VdebController::default(),
            shedder,
            migrator,
            migration_offsets: vec![0.0; n],
            applied_row: None,
            applied_offsets: vec![0.0; n],
            rewrite: vec![false; n],
            cols: StepColumns::new(n),
            config,
            racks,
            udebs,
            cappers,
            enforcement,
            pdu,
            trace,
            attacks: Vec::new(),
            now: SimTime::ZERO,
            cluster_in_overload: false,
            overloads: Vec::new(),
            breaker_trips: 0,
            delivered_work: 0.0,
            offered_work: 0.0,
            soc_history: None,
            last_draws: vec![Watts::ZERO; n],
            rng: RngStream::new(0x0ADD).fork("demand-jitter"),
            jitter_state: vec![0.0; n],
            outage_until: vec![None; n],
            protective_until: None,
            log: EventLog::new(10_000),
            telemetry: None,
            detectors: None,
            tracer: None,
            prof: None,
            faults: None,
            seen_disconnects: vec![0; n],
            seen_level: SecurityLevel::Normal,
            seen_shed: 0,
            held: vec![RackHeld::new(SimTime::ZERO); n],
            round_counter: 0,
            grants_current: vec![Watts::ZERO; n],
            last_grant_spend: vec![Watts::ZERO; n],
            slow_excess_acc: vec![0.0; n],
            slow_demand_acc: vec![0.0; n],
            slow_time_acc: 0.0,
        })
    }

    /// Replaces the electrical-noise stream (for multi-seed experiment
    /// repetitions).
    pub fn reseed_noise(&mut self, seed: u64) {
        self.rng = RngStream::new(seed).fork("demand-jitter");
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The shared cluster trace driving this simulator.
    pub fn trace(&self) -> &Arc<ClusterTrace> {
        &self.trace
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Per-rack battery SOC right now.
    pub fn rack_socs(&self) -> Vec<f64> {
        self.racks.iter().map(|r| r.cabinet().soc()).collect()
    }

    /// Per-rack utility draw from the last step.
    pub fn last_draws(&self) -> &[Watts] {
        &self.last_draws
    }

    /// All overload events recorded so far (coalesced excursions).
    pub fn overloads(&self) -> &[OverloadEvent] {
        &self.overloads
    }

    /// Breaker trips (rack feeds and the cluster feed) recorded so far.
    pub fn breaker_trips(&self) -> u32 {
        self.breaker_trips
    }

    /// The forensic event log (LVD isolations, capping, policy
    /// transitions, shedding, overloads, trips).
    pub fn event_log(&self) -> &EventLog {
        &self.log
    }

    /// Enables per-tick telemetry into a ring buffer of `ring_capacity`
    /// records (oldest records are evicted once full; the eviction count
    /// is carried into the final dump).
    pub fn enable_telemetry(&mut self, ring_capacity: usize) {
        self.telemetry = Some(SimTelemetry::new(
            self.racks.len(),
            self.config.rack_nameplate().0,
            ring_capacity,
        ));
    }

    /// Takes the telemetry state out as a serializable dump (sorted into
    /// canonical record order). Telemetry is disabled afterwards.
    pub fn take_telemetry(&mut self) -> Option<TelemetryDump> {
        self.telemetry.take().map(SimTelemetry::into_dump)
    }

    /// Enables the streaming detector stack: per-rack draw / SOC /
    /// µDEB-shave detectors plus cluster-level aggregate-draw detectors.
    /// Runs independently of telemetry recording; fused verdicts feed
    /// the security policy as [`DetectionEvidence`] and surface as
    /// `detector_fired` telemetry events when recording is also on.
    pub fn enable_detection(&mut self, config: DetectConfig) {
        self.detectors = Some(SimDetectors::new(self.racks.len(), config));
    }

    /// The live detector stack, if enabled.
    pub fn detection(&self) -> Option<&SimDetectors> {
        self.detectors.as_ref()
    }

    /// Enables causal span tracing into a ring buffer of `ring_capacity`
    /// spans (oldest spans are evicted once full; the eviction count is
    /// carried into the final dump).
    pub fn enable_tracing(&mut self, ring_capacity: usize) {
        self.tracer = Some(SimTracer::new(self.racks.len(), ring_capacity, self.now));
    }

    /// Takes the span trace out as a dump, closing still-open spans at
    /// the current time. Tracing is disabled afterwards.
    pub fn take_trace(&mut self) -> Option<TraceDump> {
        let now = self.now;
        self.tracer.take().map(|t| t.into_dump(now))
    }

    /// Enables the performance self-profiler: wall-clock lap timers
    /// over the numbered stages of [`ClusterSim::step`] plus the
    /// rack-seconds throughput accountant. The profiler only reads the
    /// monotonic clock — enabling it does not perturb any simulation
    /// output byte.
    pub fn enable_profiling(&mut self) {
        self.prof = Some(SimProfiler::new(self.racks.len()));
    }

    /// Takes the profiler out as its serializable profile. Profiling is
    /// disabled afterwards.
    pub fn take_profile(&mut self) -> Option<SimProfile> {
        self.prof.take().map(SimProfiler::into_profile)
    }

    /// Enables fault injection under `plan` with the given
    /// degraded-mode configuration. All fault randomness forks from
    /// `seed` (pass the scenario seed in sweeps), independently of the
    /// demand-jitter stream, so faulted runs stay reproducible. The
    /// injector arms at the current sim time with the current SOCs.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid plan spec or config
    /// field.
    pub fn enable_faults(
        &mut self,
        plan: FaultPlan,
        degraded: DegradedConfig,
        seed: u64,
    ) -> Result<(), String> {
        let socs = self.rack_socs();
        self.faults = Some(SimFaults::new(plan, degraded, seed, self.now, &socs)?);
        // Arm the staleness watchdog at injection time: a rack's clock
        // starts from "heard the coordinator now", not from sim start.
        for held in &mut self.held {
            held.last_contact = self.now;
        }
        Ok(())
    }

    /// The live fault injector, if enabled.
    pub fn faults(&self) -> Option<&SimFaults> {
        self.faults.as_ref()
    }

    /// The PAD policy level (meaningful for the PAD scheme).
    pub fn level(&self) -> SecurityLevel {
        self.policy.level()
    }

    /// Fraction of servers currently asleep from load shedding.
    pub fn asleep_fraction(&self) -> f64 {
        let asleep: usize = self.racks.iter().map(Rack::asleep_count).sum();
        asleep as f64 / self.config.topology.total_servers() as f64
    }

    /// Whether a rack is currently dark after a breaker trip.
    pub fn in_outage(&self, id: RackId) -> bool {
        self.outage_until[id.0].is_some()
    }

    /// Per-rack grant power actually spent last step, after the lease
    /// and fallback gates (all zero for non-vDEB schemes). The budget
    /// safety property sums this: Σ spend ≤ Σ current entitlements.
    pub fn grant_spend(&self) -> &[Watts] {
        &self.last_grant_spend
    }

    /// The coordinator's current-round grant entitlements per rack.
    pub fn grants_current(&self) -> &[Watts] {
        &self.grants_current
    }

    /// The racks (read-only inspection).
    pub fn racks(&self) -> &[Rack] {
        &self.racks
    }

    /// One rack's µDEB unit, if the scheme deploys them.
    pub fn udeb(&self, id: RackId) -> Option<&MicroDeb> {
        self.udebs[id.0].as_ref()
    }

    /// Direct access to one rack (scenario setup, e.g. pre-draining a
    /// battery). The next step rewrites the rack's utilizations from the
    /// trace, as it does every rack's when the trace row changes.
    pub fn rack_mut(&mut self, id: RackId) -> &mut Rack {
        self.rewrite[id.0] = true;
        &mut self.racks[id.0]
    }

    /// The rack the attacker would pick: lowest battery SOC ("ideal
    /// targets for a sophisticated criminal", Figure 13), tie-broken by
    /// the hottest present demand (least headroom for its spikes to
    /// overcome).
    pub fn most_vulnerable_rack(&self) -> RackId {
        let socs = self.rack_socs();
        let idx = (0..self.racks.len())
            .min_by(|&a, &b| {
                let key = |r: usize| ((socs[r] * 50.0).round() as i64, -self.racks[r].demand().0);
                key(a)
                    .0
                    .cmp(&key(b).0)
                    .then(key(a).1.partial_cmp(&key(b).1).expect("finite demand"))
            })
            .unwrap_or(0);
        RackId(idx)
    }

    /// Installs a two-phase attack: `scenario.nodes` servers on `victim`
    /// start the Phase-I drain at `start`. Replaces any existing attacks;
    /// use [`ClusterSim::add_attack`] for coordinated multi-rack
    /// campaigns.
    pub fn set_attack(&mut self, scenario: AttackScenario, victim: RackId, start: SimTime) {
        self.attacks.clear();
        self.add_attack(scenario, victim, start);
    }

    /// Adds a further two-phase attack against another rack — the
    /// "divide and conquer" campaign the DEB architecture invites
    /// (§I: "creating a local power peak is much easier than overloading
    /// the entire data center").
    ///
    /// # Panics
    ///
    /// Panics if `victim` already has an attack installed.
    pub fn add_attack(&mut self, scenario: AttackScenario, victim: RackId, start: SimTime) {
        assert!(
            self.attacks.iter().all(|a| a.victim != victim),
            "rack {victim} is already under attack"
        );
        let slots: Vec<usize> =
            (0..scenario.nodes.min(self.config.topology.servers_per_rack())).collect();
        self.attacks.push(AttackState {
            initial_nodes: slots.len(),
            victim,
            slots,
            controller: scenario.build(start),
            escalation: scenario.escalation,
        });
    }

    /// Resets the delivered/offered work accumulators — call at the start
    /// of a measurement window so throughput reflects only that window
    /// (e.g. "during the attack period", Figure 16).
    pub fn reset_work_counters(&mut self) {
        self.delivered_work = 0.0;
        self.offered_work = 0.0;
    }

    /// Enables SOC-history recording at `interval`.
    pub fn record_soc(&mut self, interval: SimDuration) {
        self.soc_history = Some((interval, self.now, SocHistory::new()));
        self.sample_soc();
    }

    /// The recorded SOC history, if recording was enabled.
    pub fn soc_history(&self) -> Option<&SocHistory> {
        self.soc_history.as_ref().map(|(_, _, h)| h)
    }

    fn sample_soc(&mut self) {
        let socs = self.rack_socs();
        if let Some((_, _, history)) = &mut self.soc_history {
            history.push(self.now, socs);
        }
    }

    /// Ends the current profiling lap, attributing it to `phase`. With
    /// profiling disabled the lap timer is inert and this is one branch.
    #[inline]
    fn prof_lap(&mut self, lap: &mut LapTimer, phase: StepPhase) {
        if let (Some(elapsed), Some(p)) = (lap.lap(), &mut self.prof) {
            p.record_phase(phase, elapsed);
        }
    }

    /// Records one forensic event: the log line, the telemetry event
    /// (when telemetry is on; it also bumps the matching counter), and
    /// the span hook (when tracing is on).
    #[cold]
    fn emit(&mut self, now: SimTime, event: SimEvent) {
        use EventKind as K;
        use Severity::{Critical, Info, Warning};
        let rack = |r: usize| RackId(r).to_string();
        let (severity, source, message, recorded): (_, String, String, _) = match event {
            SimEvent::Fault(e) => {
                let (source, unit) = match e.target {
                    FaultTarget::Unit(u) => (rack(u), u as f64),
                    FaultTarget::All => ("cluster".into(), -1.0),
                };
                if let Some(tr) = &mut self.tracer {
                    tr.fault_window(now, e.spec, e.kind.index(), unit, e.injected);
                }
                let (severity, kind, what) = if e.injected {
                    (Warning, K::FaultInjected, "injected")
                } else {
                    (Info, K::FaultCleared, "cleared")
                };
                let message = format!("fault {what}: {}", e.kind);
                (severity, source, message, Some((kind, e.spec as f64)))
            }
            SimEvent::Fallback { rack: r, entered } => {
                if let Some(tr) = &mut self.tracer {
                    tr.fault_fallback(now, r, entered);
                }
                let (severity, message) = if entered {
                    (
                        Warning,
                        "coordinator plan stale - falling back to local control",
                    )
                } else {
                    (Info, "coordinator plan fresh again - fallback cleared")
                };
                (severity, rack(r), message.into(), None)
            }
            SimEvent::RackTrip(r) => {
                let message = "feed breaker tripped - rack dark until operator reset";
                (
                    Critical,
                    rack(r),
                    message.into(),
                    Some((K::BreakerTrip, 1.0)),
                )
            }
            SimEvent::PduTrip => {
                let message = "cluster feed breaker tripped";
                (
                    Critical,
                    "pdu".into(),
                    message.into(),
                    Some((K::BreakerTrip, 1.0)),
                )
            }
            SimEvent::Overload(event) => {
                let source = event.rack.map_or("cluster feed".into(), |r| r.to_string());
                let (draw, limit) = (event.draw.0, event.limit.0);
                let message = format!("overload: draw {draw:.0} exceeded limit {limit:.0}");
                (Critical, source, message, Some((K::Overload, draw)))
            }
            SimEvent::ProtectiveCap => {
                let message = "protective cluster-wide 20% cap engaged (3 min)";
                (
                    Warning,
                    "operator".into(),
                    message.into(),
                    Some((K::ProtectiveCap, 1.0)),
                )
            }
            SimEvent::LevelChange { from, to } => {
                let severity = if to > from { Warning } else { Info };
                let recorded = Some((K::LevelChange, to.number() as f64));
                (
                    severity,
                    "policy".into(),
                    format!("{from} -> {to}"),
                    recorded,
                )
            }
            SimEvent::Migration(moved) => {
                let message = format!("migrating {:.0} W of load off vulnerable racks", moved.0);
                (
                    Critical,
                    "migrator".into(),
                    message,
                    Some((K::Migration, moved.0)),
                )
            }
            SimEvent::Shed(asleep) => {
                let percent = asleep as f64 / self.config.topology.total_servers() as f64 * 100.0;
                let message = format!(
                    "load shedding: {asleep} servers asleep ({percent:.1}% of the cluster)"
                );
                (
                    Critical,
                    "shedder".into(),
                    message,
                    Some((K::Shed, asleep as f64)),
                )
            }
            SimEvent::Wake => {
                let message = "all servers woken";
                (Info, "shedder".into(), message.into(), Some((K::Wake, 1.0)))
            }
            SimEvent::LvdIsolation(r) => {
                let message =
                    "battery isolated by low-voltage disconnect (vulnerability window open)";
                (
                    Warning,
                    rack(r),
                    message.into(),
                    Some((K::LvdIsolation, 1.0)),
                )
            }
            SimEvent::DetectorFired {
                fused,
                confirm_votes,
            } => {
                let (votes, score) = (fused.votes, fused.score);
                let message =
                    format!("fused detector verdict fired ({votes} votes, score {score:.2})");
                let severity = fused.severity(confirm_votes);
                (
                    severity,
                    "detect".into(),
                    message,
                    Some((K::DetectorFired, score)),
                )
            }
        };
        if let (Some(t), Some((kind, value))) = (&mut self.telemetry, recorded) {
            t.event(now, kind, &source, value);
        }
        self.log.record(now, severity, source, message);
    }

    /// Advances the simulation by one step of `dt`. Returns the overload
    /// event observed during the step, if any (the first one).
    pub fn step(&mut self, dt: SimDuration) -> Option<OverloadEvent> {
        let now = self.now;
        let n = self.racks.len();
        let budget = self.config.rack_budget();
        let tol = 1.0 + self.config.overshoot_tolerance;
        // Whether the per-tick gauge series are being recorded.
        let telemetry_on = self.telemetry.is_some();
        // Whether the streaming detector stack consumes the same per-tick
        // readings (it does so even when telemetry is off).
        let detection_on = self.detectors.is_some();
        // Step-phase wall-clock laps, when profiling. The lap clock tiles
        // the step: each boundary below attributes the time since the
        // previous boundary to the stage that just ran, so the per-phase
        // totals sum to the measured step wall time.
        let mut lap = LapTimer::start(self.prof.is_some());
        let mut cols = std::mem::take(&mut self.cols);

        // 0a. Fault windows: detect opens/closes on the injected plan,
        // emit forensic events (so incident reconstruction can attribute
        // outages to faults vs attacks), and apply/restore component
        // faults exactly on the edge. With no injector installed this
        // whole stage is one branch.
        let edges = self.faults.as_mut().map(|f| f.begin_step(now));
        for e in edges.into_iter().flatten() {
            self.emit(now, SimEvent::Fault(e));
            if let (FaultKind::ComponentDerate { .. } | FaultKind::CapacityFade { .. }, Some(f)) =
                (e.kind, &self.faults)
            {
                // Recompute from scratch so overlapping windows compose
                // (most severe wins) and clears restore the
                // next-most-severe factor, not blindly 1.0.
                for (r, rack) in self.racks.iter_mut().enumerate() {
                    if e.target.covers(r) {
                        rack.breaker_mut().set_derate(f.breaker_derate(now, r));
                        rack.cabinet_mut()
                            .set_capacity_factor(f.capacity_factor(now, r));
                    }
                }
            }
        }

        // 0. Outage handling: a tripped rack feed leaves the rack dark
        // until the operator resets it ("more than 75% data centers
        // require at least 2 hours to investigate and remediate
        // incidents" — we use a generously fast 10-minute reset).
        for r in 0..n {
            match self.outage_until[r] {
                Some(until) if now >= until => {
                    self.outage_until[r] = None;
                    self.racks[r].breaker_mut().reset();
                }
                None if self.racks[r].breaker().is_tripped() => {
                    self.outage_until[r] = Some(now + SimDuration::from_mins(10));
                }
                _ => {}
            }
        }

        self.prof_lap(&mut lap, StepPhase::Faults);

        // 1. Background utilizations from the trace, plus any live
        // migration deltas (Level-3 Migrate moves background load between
        // racks; the deltas decay once the emergency passes). The trace
        // changes once per row (minutes of ticks), so a rack is rewritten
        // only when its inputs changed: a new row, a new offset, or a
        // `rewrite` flag left by the stage-1b overlay or a hand edit.
        let row = self.trace.row_at(now);
        let new_row = self.applied_row.replace(row) != Some(row);
        let servers_per_rack = self.config.topology.servers_per_rack();
        for (r, rack) in self.racks.iter_mut().enumerate() {
            let offset = self.migration_offsets[r];
            if !new_row && !self.rewrite[r] && offset.to_bits() == self.applied_offsets[r].to_bits()
            {
                continue;
            }
            self.rewrite[r] = false;
            self.applied_offsets[r] = offset;
            let machines = r * servers_per_rack..(r + 1) * servers_per_rack;
            rack.set_utilizations(self.trace.row(row, machines).map(|u| u + offset));
        }
        // 1b. Power-virus overlay. In Phase I the attacker calibrates a
        // *non-offending* visible peak: high enough that the data center
        // must shave it (demand above the budget), but inside the
        // tolerated band so it reads as normal load fluctuation — the
        // attacker tunes this through the failed attempts of Figure 7.
        // In Phase II the virus fires spikes at full class amplitude.
        for (ai, a) in self.attacks.iter_mut().enumerate() {
            use attack::phases::AttackPhase;
            let phase = a.controller.phase_at(now);
            // Escalation: a patient attacker keeps recycling VMs until
            // more of them land on the victim rack.
            if let (Some(interval), Some(since)) = (a.escalation, a.controller.spiking_since()) {
                let max_nodes = self.config.topology.servers_per_rack();
                let extra = (now.saturating_since(since) / interval) as usize;
                let want = (a.initial_nodes + extra).min(max_nodes);
                while a.slots.len() < want {
                    let next = a.slots.len();
                    a.slots.push(next);
                }
            }
            if let Some(tr) = &mut self.tracer {
                tr.attack_phase(now, ai, a.victim.0, a.slots.len(), phase);
            }
            let rack = &mut self.racks[a.victim.0];
            let drive = match phase {
                AttackPhase::Dormant => None,
                AttackPhase::Draining => {
                    let others: Watts = rack
                        .servers()
                        .iter()
                        .enumerate()
                        .filter(|(slot, _)| !a.slots.contains(slot))
                        .map(|(_, srv)| srv.spec().power_at(srv.utilization()))
                        .sum();
                    // Mid-band target: clearly above the budget (so the
                    // DEB must shave) yet far enough below the tolerated
                    // limit that load noise cannot accidentally make the
                    // "non-offending" peak offending.
                    let target = budget * (1.0 + 0.5 * self.config.overshoot_tolerance);
                    let per_node = (target - others) / a.slots.len() as f64;
                    let spec = self.config.server;
                    let virus = a.controller.virus();
                    let u = ((per_node - spec.idle) / spec.dynamic_range())
                        .clamp(virus.baseline(), virus.drain_utilization());
                    Some(u)
                }
                AttackPhase::Spiking => Some(a.controller.utilization_at(now)),
            };
            if let Some(u) = drive {
                for &slot in &a.slots {
                    let server = &mut rack.servers_mut()[slot];
                    let combined = server.utilization().max(u);
                    server.set_utilization(combined);
                }
                // The overlay is a `max` over this row's baseline; the
                // next step starts again from a fresh baseline.
                self.rewrite[a.victim.0] = true;
            }
        }
        self.prof_lap(&mut lap, StepPhase::Attack);
        // 1c. DVFS factors: the per-rack capping actuators, floored by
        // the operator's protective cluster-wide 20% cut while an
        // overload incident is being ridden out.
        let protective = self.protective_until.is_some_and(|until| now < until);
        for (r, rack) in self.racks.iter_mut().enumerate() {
            let mut factor = self.cappers[r].factor_at(now);
            if protective {
                factor = factor.min(0.8);
            }
            rack.set_dvfs_all(factor);
        }

        self.prof_lap(&mut lap, StepPhase::Capping);

        // Work accounting (offered = pre-capping, pre-shedding intent;
        // a dark rack delivers nothing — the outage cost of a trip). The
        // rack sums are recomputed here only for racks whose servers
        // changed since the last step.
        let dt_secs = dt.as_secs_f64();
        for (r, rack) in self.racks.iter_mut().enumerate() {
            rack.refresh_sums();
            self.offered_work += rack.offered_load() * dt_secs;
            if self.outage_until[r].is_none() {
                self.delivered_work += rack.delivered_work() * dt_secs;
            }
        }

        // 2. Demands (plus fast electrical noise) and excesses over the
        // per-rack soft budgets. The noise is an Ornstein–Uhlenbeck
        // process with a ~2 s correlation time: real PSU/fan/disk load
        // wander, not white noise — so a 2 s spike sees essentially one
        // noise draw, and success is decided per spike (Figure 7).
        let jitter = self.config.demand_jitter;
        let rho = (-dt.as_secs_f64() / 2.0).exp();
        let innovation = jitter.0 * (1.0 - rho * rho).sqrt();
        for (r, rack) in self.racks.iter().enumerate() {
            let demand = if self.outage_until[r].is_some() {
                Watts::ZERO
            } else {
                let noise = if jitter.0 > 0.0 {
                    self.jitter_state[r] =
                        rho * self.jitter_state[r] + self.rng.normal_with(0.0, innovation);
                    Watts(self.jitter_state[r])
                } else {
                    Watts::ZERO
                };
                (rack.demand() + noise).clamp_non_negative()
            };
            cols.demands[r] = demand;
            cols.excesses[r] = (demand - budget).clamp_non_negative();
        }
        let (demands, excesses) = (&cols.demands, &cols.excesses);

        self.prof_lap(&mut lap, StepPhase::Demand);

        // 3. Slow management loop: every `grant_interval` the vDEB
        // controller replans pooled discharge rates (Algorithm 1 over the
        // *average* excess) and the iPDU reassigns outlet budgets
        // (grants). Because this loop reacts to averages on management
        // timescales, hidden sub-second spikes never steer it — exactly
        // the blindness the paper's attacker exploits and µDEB closes.
        for r in 0..n {
            self.slow_excess_acc[r] += excesses[r].0 * dt_secs;
            self.slow_demand_acc[r] += demands[r].0 * dt_secs;
        }
        self.slow_time_acc += dt_secs;
        if self.slow_time_acc >= self.config.grant_interval.as_secs_f64() {
            let t = self.slow_time_acc;
            let avg_excess: Vec<Watts> =
                self.slow_excess_acc.iter().map(|&e| Watts(e / t)).collect();
            let avg_demand: Vec<Watts> =
                self.slow_demand_acc.iter().map(|&d| Watts(d / t)).collect();
            if self.config.scheme.has_vdeb() {
                // Algorithm 1 plans over what the SOC *sensors* report —
                // an injected sensor fault corrupts the plan, never the
                // ground-truth batteries.
                let true_socs = self.rack_socs();
                let socs = match &mut self.faults {
                    Some(f) => f.report_socs(now, &true_socs),
                    None => true_socs,
                };
                let total_excess: Watts = avg_excess.iter().copied().sum();
                let plan = plan_discharge_with_reserve(
                    &socs,
                    total_excess,
                    self.config.p_ideal,
                    self.config.vdeb_reserve_soc,
                );
                // A rack's battery can only offset its own draw.
                let mut computed = vec![Watts::ZERO; n];
                for ((slot, assignment), demand) in computed.iter_mut().zip(&plan).zip(&avg_demand)
                {
                    *slot = assignment.power.min(*demand);
                }
                // Budget freed by discharging racks plus unused budget is
                // granted to racks whose average excess is not covered
                // locally — the iPDU capacity-sharing step (Eq. 2 keeps
                // the sum of outlet limits within P_PDU). Computed from
                // the coordinator's *own* fresh plan: it cannot see
                // which deliveries downstream will fail. The allocation
                // lives in `vdeb::allocate_grants` so the model checker
                // exercises the very same arithmetic.
                let computed_grants = allocate_grants(budget, &avg_demand, &avg_excess, &computed);
                self.grants_current.copy_from_slice(&computed_grants);
                self.round_counter += 1;
                if let Some(f) = &mut self.faults {
                    // The coordinator's per-rack round messages — plan
                    // entry plus outlet grant — traverse the faulted
                    // control path: loss (with bounded retry),
                    // whole-round delay, reordering. Racks whose
                    // delivery fails keep their stale held state; racks
                    // that receive a replayed round ignore it.
                    f.deliver_plan(
                        now,
                        self.round_counter,
                        &computed,
                        &computed_grants,
                        &socs,
                        &mut self.held,
                    );
                } else {
                    for (r, held) in self.held.iter_mut().enumerate() {
                        held.receive(
                            &RoundMsg {
                                round: self.round_counter,
                                issued_at: now,
                                plan: computed[r],
                                grant: computed_grants[r],
                            },
                            now,
                        );
                    }
                }
            }
            self.slow_excess_acc.iter_mut().for_each(|v| *v = 0.0);
            self.slow_demand_acc.iter_mut().for_each(|v| *v = 0.0);
            self.slow_time_acc = 0.0;
        }
        // 3b. Graceful degradation. The staleness watchdog notices racks
        // whose coordinator plan has not been refreshed within the
        // timeout and flips them to safe local control; µDEB outage
        // windows are resolved once per step for the fast layer, the
        // recharge loop, and the policy below.
        let mut fallback_cap: Vec<Option<Watts>> = Vec::new();
        let mut udeb_out: Vec<bool> = Vec::new();
        let watchdog_edges = match &mut self.faults {
            Some(f) if self.config.scheme.has_vdeb() => f.watchdog_tick(now, &self.held),
            _ => Vec::new(),
        };
        for (rack, entered) in watchdog_edges {
            self.emit(now, SimEvent::Fallback { rack, entered });
        }
        if let Some(f) = &mut self.faults {
            if self.config.scheme.has_vdeb() {
                // Only materialize the per-rack cap map while some rack
                // is actually in fallback; an empty map reads as "no cap
                // anywhere" below, keeping the healthy path allocation-free.
                if f.any_fallback() {
                    fallback_cap = (0..n)
                        .map(|r| {
                            f.fallback_active(r).then(|| {
                                f.fallback_cap(
                                    now,
                                    r,
                                    self.config.p_ideal,
                                    self.config.vdeb_reserve_soc,
                                )
                            })
                        })
                        .collect();
                }
            }
            if f.outage_active(now) {
                udeb_out = (0..n).map(|r| f.udeb_out(now, r)).collect();
            }
        }
        let udeb_faulted = |r: usize| udeb_out.get(r).copied().unwrap_or(false);

        // A grant is a *lease* on shared headroom, spendable only while
        // live: it expires one grant interval after the round that
        // issued it (a delayed delivery arrives pre-aged), and a rack in
        // watchdog fallback stops spending outright — a rack that cannot
        // hear the coordinator cannot know whether the same headroom has
        // since been re-granted to someone else. Frozen stale grants
        // double-spend `P_PDU` (Eq. 2 holds per round, not across
        // rounds), which is exactly the cluster-level overdraw the lease
        // expiry prevents — and exactly what `padsim mc` proves absent.
        let grant_lease = Some(
            self.faults
                .as_ref()
                .map(|f| f.config().grant_lease)
                .unwrap_or(self.config.grant_interval),
        );
        for (r, spend) in self.last_grant_spend.iter_mut().enumerate() {
            *spend = if fallback_cap.get(r).is_some_and(|c| c.is_some()) {
                Watts::ZERO
            } else {
                self.held[r].grant_spend(now, grant_lease)
            };
        }
        self.prof_lap(&mut lap, StepPhase::Vdeb);

        // 4. Fast layer, every step. Planned/local battery discharge
        // first, then the residual above the (granted) limit is handled
        // by whatever hardware reacts without software latency: PAD puts
        // the µDEB super-capacitor in front (sparing the lead-acid pack),
        // any vDEB rack may emergency-top-up from its own battery, and
        // non-pooled schemes simply drain their cabinet as hard as needed
        // (the very vulnerability vDEB exists to fix).
        let battery_shave = &mut cols.battery_shave;
        let sc_shave = &mut cols.sc_shave;
        battery_shave.fill(Watts::ZERO);
        sc_shave.fill(Watts::ZERO);
        if self.config.scheme.shaves_peaks() {
            for r in 0..n {
                if self.config.scheme.has_vdeb() {
                    // A rack in watchdog fallback ignores its (stale)
                    // held plan and shaves its *current* local excess,
                    // capped by the degraded-mode duty limit.
                    let planned = match fallback_cap.get(r).copied().flatten() {
                        Some(cap) => excesses[r].min(cap).min(demands[r]),
                        None => self.held[r].plan.min(demands[r]),
                    };
                    if planned.0 > 0.0 {
                        battery_shave[r] = self.racks[r].cabinet_mut().discharge(planned, dt);
                    }
                } else if excesses[r].0 > 0.0 {
                    battery_shave[r] = self.racks[r].cabinet_mut().discharge(excesses[r], dt);
                }
                let limit = budget + self.last_grant_spend[r];
                let mut residual = (demands[r] - battery_shave[r] - limit).clamp_non_negative();
                if residual > self.config.udeb_engage_threshold && !udeb_faulted(r) {
                    if let Some(udeb) = &mut self.udebs[r] {
                        sc_shave[r] = udeb.shave(residual, dt);
                        residual -= sc_shave[r];
                    }
                }
                if residual.0 > 0.0 && self.config.scheme.has_vdeb() {
                    // Emergency local top-up beyond the P_ideal duty cap —
                    // the protective reserve exists precisely for this.
                    battery_shave[r] += self.racks[r].cabinet_mut().discharge(residual, dt);
                }
            }
        }

        self.prof_lap(&mut lap, StepPhase::Battery);

        // 5. Utility draws, overload predicate, breaker heating.
        let mut first_overload: Option<OverloadEvent> = None;
        let mut cluster_draw = Watts::ZERO;
        for r in 0..n {
            let draw = (demands[r] - battery_shave[r] - sc_shave[r]).clamp_non_negative();
            self.last_draws[r] = draw;
            cluster_draw += draw;
            // Judged against the iPDU's *current* entitlement, not the
            // rack's held copy: a rack spending a stale grant whose
            // headroom the coordinator has since re-assigned is drawing
            // power the outlet no longer budgets for.
            let limit = budget + self.grants_current[r];
            let tol_limit = limit * tol;
            if draw > tol_limit {
                if !self.enforcement[r].in_overload {
                    self.enforcement[r].in_overload = true;
                    let event = OverloadEvent {
                        time: now,
                        rack: Some(RackId(r)),
                        draw,
                        limit: tol_limit,
                    };
                    self.overloads.push(event);
                    first_overload.get_or_insert(event);
                }
            } else {
                self.enforcement[r].in_overload = false;
            }
            let was_tripped = self.racks[r].breaker().is_tripped();
            self.racks[r].breaker_mut().step(draw, dt);
            if !was_tripped && self.racks[r].breaker().is_tripped() {
                self.breaker_trips += 1;
                self.emit(now, SimEvent::RackTrip(r));
            }
        }
        let cluster_limit = self.pdu.config().budget * tol;
        if cluster_draw > cluster_limit {
            if !self.cluster_in_overload {
                self.cluster_in_overload = true;
                let event = OverloadEvent {
                    time: now,
                    rack: None,
                    draw: cluster_draw,
                    limit: cluster_limit,
                };
                self.overloads.push(event);
                first_overload.get_or_insert(event);
            }
        } else {
            self.cluster_in_overload = false;
        }
        let pdu_was_tripped = self.pdu.breaker().is_tripped();
        self.pdu.step(cluster_draw, dt);
        if !pdu_was_tripped && self.pdu.breaker().is_tripped() {
            self.breaker_trips += 1;
            self.emit(now, SimEvent::PduTrip);
        }
        if let Some(event) = first_overload {
            self.emit(now, SimEvent::Overload(event));
        }
        if self.config.protective_response && first_overload.is_some() {
            if self.protective_until.is_none_or(|until| now >= until) {
                self.emit(now, SimEvent::ProtectiveCap);
            }
            self.protective_until = Some(now + SimDuration::from_mins(3));
        }

        self.prof_lap(&mut lap, StepPhase::Breaker);

        // 6. DVFS power capping — only PSPC deploys it ("combining PS
        // with power capping mechanism which can decrease processor
        // frequency by 20%", Table III). The reactive path contains
        // sustained violations within the actuation latency; the
        // proactive path keeps a 20% cut in force during a suspected
        // attack period.
        if self.config.scheme.proactive_capping() {
            for r in 0..n {
                let e = &mut self.enforcement[r];
                // The iPDU meters the utility draw *plus* the µDEB discharge
                // telemetry (PAD "keeps a watchful eye on the health of the
                // µDEB"), so super-capacitor shaving never hides a sustained
                // violation from the enforcement loop.
                e.energy_acc += (self.last_draws[r] + sc_shave[r]).0 * dt_secs;
                e.time_acc += dt_secs;
                // Attack-period detector: sustained near-limit demand arms
                // the proactive 20% cut; five quiet minutes disarm it (the
                // cut costs throughput, so it cannot stay on forever).
                if demands[r].0 > budget.0 * 0.95 {
                    e.hot_seconds += dt_secs;
                    e.cool_seconds = 0.0;
                    if e.hot_seconds > 30.0 {
                        e.proactive = true;
                    }
                } else {
                    e.hot_seconds = 0.0;
                    e.cool_seconds += dt_secs;
                    if e.cool_seconds > 300.0 {
                        e.proactive = false;
                    }
                }
                if e.time_acc >= self.config.enforcement_window.as_secs_f64() {
                    let avg = e.energy_acc / e.time_acc;
                    e.energy_acc = 0.0;
                    e.time_acc = 0.0;
                    let limit = budget + self.last_grant_spend[r];
                    let idle = self.racks[r].idle_power();
                    let current_factor = self.cappers[r].factor_at(now);
                    let ceiling = if e.proactive { 0.8 } else { 1.0 };
                    if avg > limit.0 {
                        // Scale dynamic power down so demand ≈ limit.
                        let dynamic =
                            (Watts(avg) - idle).clamp_non_negative().0 / current_factor.max(0.1);
                        let target = if dynamic > 0.0 {
                            ((limit - idle).clamp_non_negative().0 / dynamic).clamp(0.1, 1.0)
                        } else {
                            1.0
                        };
                        self.cappers[r].request(target.min(ceiling), now);
                    } else if avg < limit.0 * 0.98 && current_factor < ceiling {
                        // Demand has receded: lift the cap *gradually* (real
                        // governors step frequency up, they do not jump), with
                        // a 2% hysteresis band against flapping. The uncap,
                        // like the cap, lands only after the actuation
                        // latency, so sub-second spikes slip through — the
                        // paper's core argument for hardware shaving.
                        self.cappers[r].request((current_factor + 0.1).min(ceiling), now);
                    }
                }
            }
        }

        self.prof_lap(&mut lap, StepPhase::Capping);

        // 7. Recharge from headroom (batteries first, then µDEB).
        let charge_drawn = &mut cols.charge_drawn;
        for r in 0..n {
            let limit = budget + self.last_grant_spend[r];
            let mut headroom = (limit - self.last_draws[r]).clamp_non_negative();
            charge_drawn[r] = Watts::ZERO;
            // Do not charge a cabinet in the same step it discharged.
            if battery_shave[r].0 == 0.0 {
                let drawn = self.racks[r].cabinet_mut().charge_step(headroom, dt);
                headroom = (headroom - drawn).clamp_non_negative();
                charge_drawn[r] = drawn;
            }
            if let Some(udeb) = &mut self.udebs[r] {
                // Recharge (and accumulate guard rest) only when the bank
                // is not actively shaving this step — and never while its
                // converter is under an injected outage.
                if sc_shave[r].0 == 0.0 && !udeb_faulted(r) {
                    udeb.recharge(headroom, dt);
                }
            }
        }

        self.prof_lap(&mut lap, StepPhase::Battery);

        // 8. PAD policy + Level-3 shedding.
        if self.config.scheme == Scheme::Pad {
            // The policy, like the planner, sees the *reported* SOCs —
            // a faulted sensor can mislead it, which is exactly what the
            // minimum-residency hold-down defends against.
            for (soc, rack) in cols.socs.iter_mut().zip(&self.racks) {
                *soc = rack.cabinet().soc();
            }
            let reported;
            let socs: &[f64] = match &mut self.faults {
                // With no sensor window open the report is an identity
                // copy with no RNG draws or dropout-state updates, so
                // skipping it cannot change a later faulted reading.
                Some(f) if f.sensor_active(now) => {
                    reported = f.report_socs(now, &cols.socs);
                    &reported
                }
                _ => &cols.socs,
            };
            let udeb_ok = self
                .udebs
                .iter()
                .enumerate()
                .any(|(r, u)| !udeb_faulted(r) && u.as_ref().is_some_and(MicroDeb::available));
            let inputs = PolicyInputs {
                vdeb_available: self.vdeb.pool_available(socs),
                udeb_available: udeb_ok,
                visible_peak: excesses.iter().any(|e| e.0 > 0.0),
                // Evidence from ticks before this one: stage 10b feeds
                // the detectors after the policy has run, so the policy
                // always reads yesterday's verdict — exactly how a real
                // monitoring pipeline trails its actuator.
                detection: self
                    .detectors
                    .as_ref()
                    .map_or(DetectionEvidence::None, |d| d.evidence(now)),
            };
            let level = self.policy.update(inputs);
            if level != self.seen_level {
                let from = std::mem::replace(&mut self.seen_level, level);
                self.emit(now, SimEvent::LevelChange { from, to: level });
            }
            let pool_soc = self.vdeb.pool_soc(socs);
            let shortfall = (cluster_draw - self.pdu.config().budget).clamp_non_negative();
            // Shed "only in extreme cases when cluster-wide power peaks
            // appear" (§VI.A): a genuine cluster shortfall while the pool
            // is weakening, or a declared emergency.
            let must_shed = level == SecurityLevel::Emergency
                || (shortfall.0 > 0.0 && pool_soc < self.config.vdeb_reserve_soc + 0.2);
            if must_shed {
                let utils = &mut cols.utils;
                for (util, rack) in utils.iter_mut().zip(&self.racks) {
                    *util = rack.offered_load() / rack.server_count() as f64;
                }
                if self.config.emergency_action == EmergencyAction::Migrate {
                    // Plan once per episode: while deltas are live, hold.
                    let live = self.migration_offsets.iter().any(|&d| d.abs() > 1e-4);
                    if !live {
                        let headrooms: Vec<Watts> = (0..n)
                            .map(|r| (budget - demands[r]).clamp_non_negative())
                            .collect();
                        let plan = self.migrator.plan(
                            shortfall,
                            socs,
                            utils,
                            &headrooms,
                            self.config.topology.servers_per_rack(),
                        );
                        if !plan.is_noop() {
                            self.emit(now, SimEvent::Migration(plan.moved));
                            for (r, &d) in plan.deltas.iter().enumerate() {
                                self.migration_offsets[r] += d;
                            }
                        }
                    }
                } else {
                    let plan = self.shedder.plan(
                        shortfall,
                        socs,
                        self.config.topology.servers_per_rack(),
                        utils,
                    );
                    for (r, &count) in plan.per_rack.iter().enumerate() {
                        self.racks[r].shed_servers(count);
                    }
                    if plan.total() != self.seen_shed {
                        self.seen_shed = plan.total();
                        self.emit(now, SimEvent::Shed(plan.total()));
                    }
                }
            } else {
                let was_shedding = self.seen_shed > 0;
                for rack in &mut self.racks {
                    if rack.asleep_count() > 0 {
                        rack.shed_servers(0);
                    }
                }
                if was_shedding {
                    self.seen_shed = 0;
                    self.emit(now, SimEvent::Wake);
                }
                // Migrated load trickles back home once the emergency
                // passes (a slow, non-disruptive re-balance). The decay
                // factor is clamped non-negative so coarse steps (> 500 s)
                // complete the return instead of oscillating.
                for offset in &mut self.migration_offsets {
                    *offset *= (1.0 - 0.002 * dt_secs).max(0.0);
                    if offset.abs() < 1e-4 {
                        *offset = 0.0;
                    }
                }
            }
        }

        // 9. Attacker side channel: performance of the compromised VMs.
        for atk in &mut self.attacks {
            let rack = &self.racks[atk.victim.0];
            let perf: f64 = atk
                .slots
                .iter()
                .map(|&s| {
                    let server = rack.servers()[s];
                    if server.is_asleep() {
                        0.0
                    } else {
                        server.dvfs()
                    }
                })
                .sum::<f64>()
                / atk.slots.len() as f64;
            atk.controller.observe_performance(now, perf);
        }

        // 10. Forensics: LVD isolation events.
        for r in 0..n {
            let count = self.racks[r].cabinet().disconnect_count();
            if count > self.seen_disconnects[r] {
                self.seen_disconnects[r] = count;
                self.emit(now, SimEvent::LvdIsolation(r));
            }
        }

        self.prof_lap(&mut lap, StepPhase::Policy);

        // 10b. Per-tick telemetry series: one sample per registered gauge,
        // stamped at the step's *start* time (the instant the readings
        // describe). Emission order matches registration order, so the
        // recorded stream is already canonically sorted within the tick.
        // The detector stack consumes the same readings in the same
        // order — that shared order is what makes offline replay of a
        // recorded trace reproduce the live firing log byte-for-byte.
        if telemetry_on || detection_on {
            for r in 0..n {
                let tick = RackTick {
                    draw_w: self.last_draws[r].0,
                    soc: self.racks[r].cabinet().soc(),
                    batt_discharge_w: battery_shave[r].0,
                    batt_charge_w: charge_drawn[r].0,
                    udeb_energy_j: self.udebs[r].as_ref().map_or(0.0, |u| u.bank().stored().0),
                    udeb_shave_w: sc_shave[r].0,
                    cap_duty: self.cappers[r].current(),
                    breaker_margin: self.racks[r].breaker().thermal_headroom(),
                };
                if let Some(t) = &mut self.telemetry {
                    t.record_rack(now, r, tick);
                }
                if let Some(d) = &mut self.detectors {
                    d.observe_rack(now, r, &tick);
                }
            }
            if let Some(t) = &mut self.telemetry {
                t.record_cluster(now, cluster_draw.0, self.policy.level().number());
            }
            let fired = self.detectors.as_mut().and_then(|d| {
                d.observe_cluster(now, cluster_draw.0);
                let confirm_votes = d.config().confirm_votes;
                d.end_tick(now).map(|fused| (fused, confirm_votes))
            });
            if let Some((fused, confirm_votes)) = fired {
                self.emit(
                    now,
                    SimEvent::DetectorFired {
                        fused,
                        confirm_votes,
                    },
                );
            }
        }

        // 10c. Causal span tracing: attack phase spans were handled in
        // stage 1b; here per-rack defense episodes (battery discharge,
        // µDEB shaving, effective DVFS cap, breaker-margin excursions)
        // and policy residencies open/close on value edges, parented
        // under the attack spans that caused them.
        if let Some(tr) = &mut self.tracer {
            for r in 0..n {
                let mut cap_factor = self.cappers[r].current();
                if protective {
                    cap_factor = cap_factor.min(0.8);
                }
                tr.rack_tick(
                    now,
                    r,
                    battery_shave[r].0,
                    sc_shave[r].0,
                    cap_factor,
                    self.racks[r].breaker().thermal_headroom(),
                    dt_secs,
                );
            }
            tr.policy_level(now, self.policy.level());
        }

        self.prof_lap(&mut lap, StepPhase::Telemetry);

        // 11. Clock + SOC sampling.
        self.now = now + dt;
        if let Some((interval, last, _)) = self.soc_history {
            if self.now.saturating_since(last) >= interval {
                if let Some((_, last_mut, _)) = &mut self.soc_history {
                    *last_mut = self.now;
                }
                self.sample_soc();
            }
        }
        self.cols = cols;
        self.prof_lap(&mut lap, StepPhase::Clock);
        if let (Some(total), Some(p)) = (lap.total(), &mut self.prof) {
            p.finish_step(dt, total);
        }
        first_overload
    }

    /// Runs until `horizon` with step `dt`. If `stop_on_overload` is set,
    /// the run ends at the first overload *after the attack start* (or
    /// the first overload at all when no attack is configured).
    pub fn run(
        &mut self,
        horizon: SimTime,
        dt: SimDuration,
        stop_on_overload: bool,
    ) -> SurvivalReport {
        let attack_start = self
            .attacks
            .iter()
            .map(|a| a.controller.start())
            .min()
            .unwrap_or(SimTime::ZERO);
        while self.now < horizon {
            let overload = self.step(dt);
            if stop_on_overload {
                if let Some(event) = overload {
                    if event.time >= attack_start {
                        break;
                    }
                }
            }
        }
        SurvivalReport {
            attack_start,
            overloads: self
                .overloads
                .iter()
                .copied()
                .filter(|e| e.time >= attack_start)
                .collect(),
            ended_at: self.now,
            breaker_trips: self.breaker_trips,
            delivered_work: self.delivered_work,
            offered_work: self.offered_work,
        }
    }

    /// The drain duration the (first) attacker observed through its side
    /// channel, once its attack entered Phase II.
    pub fn attacker_observed_drain(&self) -> Option<SimDuration> {
        self.attacks
            .first()
            .and_then(|a| a.controller.observed_drain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attack::scenario::{AttackScenario, AttackStyle};
    use attack::virus::VirusClass;
    use workload::synth::SynthConfig;

    fn trace_for(config: &SimConfig, mean_util: f64, hours: u64, seed: u64) -> ClusterTrace {
        SynthConfig {
            machines: config.topology.total_servers(),
            horizon: SimTime::from_hours(hours),
            mean_utilization: mean_util,
            ..SynthConfig::small_test()
        }
        .generate_direct(seed)
    }

    fn sim(scheme: Scheme, mean_util: f64) -> ClusterSim {
        let config = SimConfig::small_test(scheme);
        let trace = trace_for(&config, mean_util, 4, 42);
        ClusterSim::new(config, trace).unwrap()
    }

    #[test]
    fn construction_validates() {
        let mut config = SimConfig::small_test(Scheme::Pad);
        config.budget_fraction = 0.0;
        let trace = trace_for(&SimConfig::small_test(Scheme::Pad), 0.4, 1, 1);
        assert!(ClusterSim::new(config, trace).is_err());

        let config = SimConfig::paper_default(Scheme::Pad);
        let small_trace = trace_for(&SimConfig::small_test(Scheme::Pad), 0.4, 1, 1);
        assert!(
            ClusterSim::new(config, small_trace).is_err(),
            "trace smaller than topology must be rejected"
        );
    }

    #[test]
    fn quiet_cluster_never_overloads() {
        let mut s = sim(Scheme::Conv, 0.2);
        let report = s.run(SimTime::from_mins(10), SimDuration::SECOND, true);
        assert!(report.overloads.is_empty(), "{:?}", report.overloads);
        assert!(report.breaker_trips == 0);
        assert!(report.normalized_throughput() > 0.99);
    }

    #[test]
    fn peak_shaving_discharges_batteries_under_load() {
        // Hot cluster: demand exceeds the 75% budget, so PS drains
        // batteries while Conv leaves them untouched.
        let mut ps = sim(Scheme::Ps, 0.85);
        let mut conv = sim(Scheme::Conv, 0.85);
        for s in [&mut ps, &mut conv] {
            s.run(SimTime::from_mins(5), SimDuration::SECOND, false);
        }
        let ps_soc: f64 = ps.rack_socs().iter().sum::<f64>() / 4.0;
        let conv_soc: f64 = conv.rack_socs().iter().sum::<f64>() / 4.0;
        assert!(ps_soc < 0.99, "PS should have discharged, soc {ps_soc}");
        assert!(conv_soc > 0.99, "Conv must not discharge, soc {conv_soc}");
    }

    #[test]
    fn pspc_capping_contains_sustained_hot_load() {
        // PSPC (the only capping baseline, Table III) brings a sustained
        // violation back to the budget; Conv, with no capping, does not.
        let mut pspc = sim(Scheme::Pspc, 0.95);
        let mut conv = sim(Scheme::Conv, 0.95);
        for s in [&mut pspc, &mut conv] {
            s.run(SimTime::from_mins(5), SimDuration::from_millis(100), false);
        }
        let budget = pspc.config().rack_budget();
        // Jitter wanders ±3σ; allow that band above the enforced budget.
        let slack = pspc.config().demand_jitter.0 * 3.0;
        for &draw in pspc.last_draws() {
            assert!(
                draw.0 <= budget.0 + slack,
                "PSPC draw {draw} never brought near budget {budget}"
            );
        }
        assert!(
            conv.last_draws().iter().any(|d| d.0 > budget.0 + slack),
            "Conv has no capping and must stay over budget"
        );
    }

    #[test]
    fn attack_drains_victim_battery_then_overloads() {
        let mut s = sim(Scheme::Ps, 0.35);
        let victim = RackId(0);
        let scenario = AttackScenario::new(AttackStyle::Dense, VirusClass::CpuIntensive, 4);
        s.set_attack(scenario, victim, SimTime::from_secs(30));
        let report = s.run(SimTime::from_mins(30), SimDuration::from_millis(100), true);
        assert!(
            report.survival().is_some(),
            "a dense CPU attack should eventually overload PS"
        );
        let survival = report.survival().unwrap();
        assert!(
            survival > SimDuration::from_secs(10),
            "battery should absorb the first seconds, got {survival}"
        );
    }

    #[test]
    fn conv_succumbs_faster_than_ps() {
        let scenario = AttackScenario::new(AttackStyle::Dense, VirusClass::CpuIntensive, 4);
        let mut survival = Vec::new();
        for scheme in [Scheme::Conv, Scheme::Ps] {
            let mut s = sim(scheme, 0.35);
            s.set_attack(scenario, RackId(0), SimTime::from_secs(30));
            let report = s.run(SimTime::from_mins(30), SimDuration::from_millis(100), true);
            survival.push(report.survival_or_horizon());
        }
        assert!(
            survival[0] < survival[1],
            "Conv {:?} should fall before PS {:?}",
            survival[0],
            survival[1]
        );
    }

    #[test]
    fn side_channel_reports_drain_duration() {
        let mut s = sim(Scheme::Ps, 0.35);
        let scenario = AttackScenario::new(AttackStyle::Dense, VirusClass::CpuIntensive, 2);
        s.set_attack(scenario, RackId(0), SimTime::from_secs(10));
        s.run(SimTime::from_mins(20), SimDuration::from_millis(100), true);
        let drain = s.attacker_observed_drain();
        assert!(drain.is_some(), "attack should have reached Phase II");
    }

    #[test]
    fn soc_history_records_at_interval() {
        let mut s = sim(Scheme::Ps, 0.6);
        s.record_soc(SimDuration::from_mins(1));
        s.run(SimTime::from_mins(10), SimDuration::SECOND, false);
        let history = s.soc_history().unwrap();
        assert!(
            history.len() >= 10,
            "expected ~11 samples, got {}",
            history.len()
        );
        assert_eq!(history.racks(), 4);
    }

    #[test]
    fn vulnerable_rack_detection() {
        let mut s = sim(Scheme::Ps, 0.3);
        s.rack_mut(RackId(2)).cabinet_mut().set_soc(0.1);
        assert_eq!(s.most_vulnerable_rack(), RackId(2));
    }

    #[test]
    fn pad_policy_starts_normal() {
        let s = sim(Scheme::Pad, 0.3);
        assert_eq!(s.level(), SecurityLevel::Normal);
    }

    #[test]
    fn protective_response_caps_after_overload() {
        // Force an immediate overload: no battery, full-rack spikes.
        let mut s = sim(Scheme::Conv, 0.35);
        let scenario =
            AttackScenario::new(AttackStyle::Dense, VirusClass::CpuIntensive, 4).immediate();
        s.set_attack(scenario, RackId(0), SimTime::ZERO);
        let mut saw_overload = false;
        let mut saw_protective_cap = false;
        for _ in 0..1200 {
            if s.step(SimDuration::from_millis(100)).is_some() {
                saw_overload = true;
            }
            if saw_overload && s.racks()[1].servers()[0].dvfs() < 1.0 {
                // A rack that is NOT under attack got capped: that is the
                // cluster-wide protective response.
                saw_protective_cap = true;
                break;
            }
        }
        assert!(saw_overload, "the immediate attack should overload Conv");
        assert!(
            saw_protective_cap,
            "the operator's protective cap should land cluster-wide"
        );
        // And the incident is in the forensic log.
        assert!(s
            .event_log()
            .events()
            .any(|e| e.message.contains("overload")));
        assert!(s
            .event_log()
            .events()
            .any(|e| e.message.contains("protective")));
    }

    #[test]
    fn tripped_rack_goes_dark_and_recovers() {
        let mut config = SimConfig::small_test(Scheme::Conv);
        // Tiny tolerance so sustained heavy overload also trips the
        // nameplate-rated breaker quickly: drive demand over nameplate is
        // impossible, so instead rate the breaker down via the budget...
        // Simplest path: trip the rack breaker directly.
        config.protective_response = false;
        let trace = trace_for(&config, 0.3, 2, 7);
        let mut s = ClusterSim::new(config, trace).unwrap();
        s.rack_mut(RackId(0))
            .breaker_mut()
            .step(Watts(1_000_000.0), SimDuration::from_secs(10));
        assert!(s.racks()[0].breaker().is_tripped());
        // Next step notices the trip and darkens the rack.
        s.step(SimDuration::SECOND);
        assert!(s.in_outage(RackId(0)));
        assert_eq!(s.last_draws()[0], Watts::ZERO);
        // After the 10-minute operator reset the rack comes back.
        for _ in 0..601 {
            s.step(SimDuration::SECOND);
        }
        assert!(!s.in_outage(RackId(0)));
        assert!(s.last_draws()[0].0 > 0.0);
    }

    #[test]
    fn udeb_only_racks_have_supercaps() {
        let s = sim(Scheme::UDebOnly, 0.3);
        assert!(s.udebs.iter().all(Option::is_some));
        let s = sim(Scheme::Ps, 0.3);
        assert!(s.udebs.iter().all(Option::is_none));
    }
}

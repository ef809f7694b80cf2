//! Model checking the vDEB grant/lease/watchdog protocol.
//!
//! This module instantiates the generic [`simkit::mc`] explorer with a
//! small, fully deterministic model of the coordinator↔rack control
//! plane. The model shares its arithmetic with the real simulator —
//! [`plan_discharge_with_reserve`], [`allocate_grants`], and the
//! [`ProtocolState::apply`] transition drive both — so a property proved
//! here is a property of the code `ClusterSim` runs, not of a parallel
//! re-implementation.
//!
//! # The model
//!
//! Time advances in whole grant intervals (one `Tick` per interval).
//! Each tick the coordinator computes one round over a scripted demand
//! profile: one *hot* rack (rotating, `round % racks`) draws above its
//! outlet budget, every other rack idles below it, so each round grants
//! headroom to exactly one rack — the minimal economy in which a
//! double-spend is observable. The round's per-rack messages then enter
//! a pending set, and the checker interleaves, per message: **deliver**
//! now, **drop** (loss after retries), **defer** to a later tick (delay
//! / reorder), or **duplicate** (deliver now *and* leave a replayable
//! copy, bounded by a duplication budget). Pending messages expire after
//! [`ModelConfig::msg_ttl_rounds`] intervals, which is what keeps the
//! state space finite. Dependency resolution is by canonical cursor:
//! only the oldest undecided message is branched on, so interleavings
//! that merely commute are explored once.
//!
//! # Invariants
//!
//! * `budget-safety` — Eq. 2 across rounds: the sum of *live* grant
//!   spends never exceeds the sum of the coordinator's current
//!   entitlements.
//! * `stale-grant` — no rack spends (and would be judged against) a
//!   grant the coordinator has since re-assigned: per-rack live spend is
//!   within the rack's current entitlement.
//! * `watchdog` — staleness beyond 3× the grant interval implies the
//!   rack is in fallback and spending nothing (the watchdog fired).
//! * `hold-down` — fallback de-escalation never flaps: every fallback
//!   exit is justified by a freshly adopted round, never by a replay.
//!
//! # Broken modes
//!
//! [`BrokenMode::LeaseExpiry`] disables grant leases — the historical
//! protocol bug, kept as a known-violation model: the checker finds a
//! cross-round double-spend within a few rounds. The counterexample maps
//! onto a deterministic [`FaultPlan`] (see [`counterexample_plan`]) that
//! replays the same interleaving through the full-fidelity simulator.
//! [`BrokenMode::DuplicateGrant`] swaps the idempotent receive for the
//! pre-fix replay path and lengthens message lifetime so a captured
//! round can outlive the watchdog — the checker finds a replay that
//! talks a rack out of fallback (`hold-down` violated).

use battery::units::Watts;
use simkit::fault::{FaultKind, FaultPlan, FaultSpec, FaultTarget};
use simkit::jsonio::render;
use simkit::mc::{Fnv64, McModel, McReport, Property, Violation};
use simkit::time::{SimDuration, SimTime};

use crate::vdeb::{
    allocate_grants, plan_discharge_with_reserve, ProtocolAction, ProtocolConfig, ProtocolState,
    RoundMsg,
};

/// Grant interval of the model (one protocol tick).
pub const MODEL_INTERVAL: SimDuration = SimDuration::from_secs(10);
/// Per-rack outlet budget.
pub const RACK_BUDGET: Watts = Watts(100.0);
/// Demand of the rotating hot rack (60 W above budget).
pub const HOT_DEMAND: Watts = Watts(160.0);
/// Demand of every other rack (40 W below budget).
pub const COOL_DEMAND: Watts = Watts(60.0);
/// Per-rack ideal discharge cap fed to Algorithm 1.
pub const MODEL_P_IDEAL: Watts = Watts(15.0);
/// vDEB protective reserve fed to Algorithm 1.
pub const MODEL_RESERVE: f64 = 0.3;
/// Reported SOC of every rack (constant: the model checks the control
/// plane, not battery physics).
pub const MODEL_SOC: f64 = 0.9;

/// The four checked invariant names, in canonical order.
pub const INVARIANTS: [&str; 4] = ["budget-safety", "stale-grant", "watchdog", "hold-down"];

/// Slack for floating-point grant sums (watts).
const EPS: f64 = 1e-9;

/// Which deliberate protocol defect (if any) the model carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BrokenMode {
    /// The protocol as shipped: leases expire, receive is idempotent.
    None,
    /// Grant leases never expire — the cross-round double-spend the
    /// lease was introduced to prevent becomes reachable.
    LeaseExpiry,
    /// Deliveries use the pre-fix replay path: duplicates re-apply
    /// grants and refresh the staleness clock, so a replayed round can
    /// exit watchdog fallback.
    DuplicateGrant,
}

impl BrokenMode {
    /// Stable lowercase name (`none` / `lease-expiry` / `duplicate-grant`).
    pub fn name(self) -> &'static str {
        match self {
            BrokenMode::None => "none",
            BrokenMode::LeaseExpiry => "lease-expiry",
            BrokenMode::DuplicateGrant => "duplicate-grant",
        }
    }

    /// Parses [`BrokenMode::name`] output.
    pub fn from_name(name: &str) -> Option<BrokenMode> {
        match name {
            "none" => Some(BrokenMode::None),
            "lease-expiry" => Some(BrokenMode::LeaseExpiry),
            "duplicate-grant" => Some(BrokenMode::DuplicateGrant),
            _ => None,
        }
    }
}

/// Bounds and knobs of one checker model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelConfig {
    /// Racks under the coordinator (≥ 2; the acceptance bar is 3).
    pub racks: usize,
    /// Grant rounds the coordinator computes (the horizon; ticks run
    /// `watchdog + 1` intervals past the last round so partition and
    /// lease effects fully play out).
    pub rounds: u32,
    /// Duplicate deliveries the adversary may inject over the whole run.
    pub dup_budget: u8,
    /// Pending-message lifetime in grant intervals; older messages
    /// expire undelivered (bounds the state space).
    pub msg_ttl_rounds: u32,
    /// The deliberate defect, if any.
    pub broken: BrokenMode,
}

impl ModelConfig {
    /// The default healthy model at `racks` racks over `rounds` rounds.
    pub fn new(racks: usize, rounds: u32) -> Self {
        assert!(racks >= 2, "the grant economy needs at least 2 racks");
        assert!(rounds >= 1, "at least one grant round");
        ModelConfig {
            racks,
            rounds,
            dup_budget: 1,
            msg_ttl_rounds: 2,
            broken: BrokenMode::None,
        }
    }

    /// Applies a broken mode, adjusting model bounds to where the
    /// defect is observable: `DuplicateGrant` lengthens message
    /// lifetime past the watchdog so a captured round can replay after
    /// fallback entry.
    pub fn with_broken(mut self, broken: BrokenMode) -> Self {
        self.broken = broken;
        if broken == BrokenMode::DuplicateGrant {
            self.msg_ttl_rounds = self.msg_ttl_rounds.max(5);
        }
        self
    }

    /// The protocol parameters this model drives [`ProtocolState`] with.
    pub fn protocol(&self) -> ProtocolConfig {
        let mut proto = ProtocolConfig::pad(self.racks, MODEL_INTERVAL);
        match self.broken {
            BrokenMode::None => {}
            BrokenMode::LeaseExpiry => proto.grant_lease = None,
            BrokenMode::DuplicateGrant => proto.idempotent = false,
        }
        proto
    }

    /// Ticks the model runs: every round plus a watchdog-length tail.
    pub fn max_ticks(&self) -> u32 {
        self.rounds + 4
    }
}

/// One undecided coordinator→rack message.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingMsg {
    /// Destination rack.
    pub rack: usize,
    /// The message as issued.
    pub msg: RoundMsg,
    /// Deferred until the next tick (models delay/reorder: the message
    /// is untouchable until time advances).
    pub deferred: bool,
}

/// One state of the checker model: the shared protocol state plus the
/// network's pending-message set and the adversary's remaining budget.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelState {
    /// The shared coordinator/rack protocol state.
    pub proto: ProtocolState,
    /// Undecided messages, oldest first (canonical order: rounds are
    /// appended in rack order and removals preserve order).
    pub pending: Vec<PendingMsg>,
    /// Ticks elapsed.
    pub ticks: u32,
    /// Whether this tick's round has been computed yet.
    pub computed_this_tick: bool,
    /// Remaining duplicate deliveries.
    pub dup_budget: u8,
}

/// One transition of the checker model.
#[derive(Debug, Clone, PartialEq)]
pub enum McAction {
    /// The coordinator computes the next round and enqueues its
    /// per-rack messages.
    Compute,
    /// Time advances one grant interval (deferred messages become
    /// deliverable; expired ones vanish).
    Tick,
    /// Pending message `index` reaches its rack.
    Deliver {
        /// Position in the pending set.
        index: usize,
        /// Destination rack (for trace rendering).
        rack: usize,
        /// Round stamp (for trace rendering).
        round: u64,
    },
    /// Pending message `index` is lost (all retries failed).
    Drop {
        /// Position in the pending set.
        index: usize,
        /// Destination rack.
        rack: usize,
        /// Round stamp.
        round: u64,
    },
    /// Pending message `index` is delayed past this tick.
    Defer {
        /// Position in the pending set.
        index: usize,
        /// Destination rack.
        rack: usize,
        /// Round stamp.
        round: u64,
    },
    /// Pending message `index` is delivered now *and* a replayable copy
    /// stays pending (duplicate delivery; consumes the budget).
    Duplicate {
        /// Position in the pending set.
        index: usize,
        /// Destination rack.
        rack: usize,
        /// Round stamp.
        round: u64,
    },
}

/// The vDEB protocol model the checker explores.
#[derive(Debug, Clone, Copy)]
pub struct VdebModel {
    config: ModelConfig,
    proto: ProtocolConfig,
}

impl VdebModel {
    /// Builds the model for `config`.
    pub fn new(config: ModelConfig) -> Self {
        VdebModel {
            config,
            proto: config.protocol(),
        }
    }

    /// The model bounds.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The protocol parameters in force.
    pub fn protocol(&self) -> &ProtocolConfig {
        &self.proto
    }

    /// The scripted coordinator computation for `round` (1-based): one
    /// rotating hot rack above budget, everyone else idle below it.
    /// Runs the *real* Algorithm 1 + grant allocation.
    pub fn compute_round(&self, round: u64) -> (Vec<Watts>, Vec<Watts>) {
        let n = self.config.racks;
        let hot = ((round - 1) as usize) % n;
        let demands: Vec<Watts> = (0..n)
            .map(|r| if r == hot { HOT_DEMAND } else { COOL_DEMAND })
            .collect();
        let excesses: Vec<Watts> = demands
            .iter()
            .map(|&d| (d - RACK_BUDGET).clamp_non_negative())
            .collect();
        let total_excess: Watts = excesses.iter().copied().sum();
        let socs = vec![MODEL_SOC; n];
        let assignments =
            plan_discharge_with_reserve(&socs, total_excess, MODEL_P_IDEAL, MODEL_RESERVE);
        let planned: Vec<Watts> = assignments
            .iter()
            .zip(&demands)
            .map(|(a, &d)| a.power.min(d))
            .collect();
        let grants = allocate_grants(RACK_BUDGET, &demands, &excesses, &planned);
        (planned, grants)
    }

    fn deliver(&self, state: &mut ModelState, index: usize, keep_copy: bool) {
        let pending = state.pending[index].clone();
        let action = ProtocolAction::Deliver {
            rack: pending.rack,
            msg: pending.msg,
        };
        state.proto = state.proto.apply(&self.proto, &action);
        if keep_copy {
            // The copy stays for a later tick — delivering it again in
            // the same instant would be invisible to the idempotence
            // gate anyway.
            state.pending[index].deferred = true;
        } else {
            state.pending.remove(index);
        }
    }
}

impl McModel for VdebModel {
    type State = ModelState;
    type Action = McAction;

    fn initial(&self) -> ModelState {
        ModelState {
            proto: ProtocolState::initial(&self.proto),
            pending: Vec::new(),
            ticks: 0,
            computed_this_tick: false,
            dup_budget: self.config.dup_budget,
        }
    }

    fn actions(&self, state: &ModelState) -> Vec<McAction> {
        // The coordinator is reliable and computes first thing each
        // tick: it is the *delivery* of its messages the adversary
        // controls, not their computation.
        if !state.computed_this_tick && state.proto.round < self.config.rounds as u64 {
            return vec![McAction::Compute];
        }
        // Canonical cursor: branch only on the oldest undecided
        // message. Deliveries to different racks commute (each touches
        // one rack's held state), so exploring them in one fixed order
        // loses no behaviors; orderings that matter — replays across
        // rounds at one rack — are expressed by deferring.
        if let Some(index) = state.pending.iter().position(|m| !m.deferred) {
            let m = &state.pending[index];
            let (rack, round) = (m.rack, m.msg.round);
            let mut actions = vec![
                McAction::Deliver { index, rack, round },
                McAction::Drop { index, rack, round },
                McAction::Defer { index, rack, round },
            ];
            if state.dup_budget > 0 {
                actions.push(McAction::Duplicate { index, rack, round });
            }
            return actions;
        }
        if state.ticks < self.config.max_ticks() {
            return vec![McAction::Tick];
        }
        Vec::new()
    }

    fn apply(&self, state: &ModelState, action: &McAction) -> ModelState {
        let mut next = state.clone();
        match action {
            McAction::Compute => {
                let round = next.proto.round + 1;
                let (plans, grants) = self.compute_round(round);
                next.proto = next.proto.apply(
                    &self.proto,
                    &ProtocolAction::Compute {
                        plans: plans.clone(),
                        grants: grants.clone(),
                    },
                );
                let issued_at = next.proto.now;
                for rack in 0..self.config.racks {
                    next.pending.push(PendingMsg {
                        rack,
                        msg: RoundMsg {
                            round,
                            issued_at,
                            plan: plans[rack],
                            grant: grants[rack],
                        },
                        deferred: false,
                    });
                }
                next.computed_this_tick = true;
            }
            McAction::Tick => {
                next.proto = next.proto.apply(&self.proto, &ProtocolAction::Tick);
                next.ticks += 1;
                next.computed_this_tick = false;
                let now = next.proto.now;
                let ttl = MODEL_INTERVAL * self.config.msg_ttl_rounds as u64;
                next.pending
                    .retain(|m| now.saturating_since(m.msg.issued_at) < ttl);
                for m in &mut next.pending {
                    m.deferred = false;
                }
            }
            McAction::Deliver { index, .. } => self.deliver(&mut next, *index, false),
            McAction::Duplicate { index, .. } => {
                next.dup_budget -= 1;
                self.deliver(&mut next, *index, true);
            }
            McAction::Drop { index, .. } => {
                next.pending.remove(*index);
            }
            McAction::Defer { index, .. } => {
                next.pending[*index].deferred = true;
            }
        }
        next
    }

    fn fingerprint(&self, state: &ModelState) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(state.proto.now.as_millis());
        h.write_u64(state.proto.round);
        for g in &state.proto.grants_current {
            h.write_f64(g.0);
        }
        for p in &state.proto.plans_current {
            h.write_f64(p.0);
        }
        for held in &state.proto.held {
            h.write_u64(held.round);
            h.write_u64(held.issued_at.as_millis());
            h.write_u64(held.last_contact.as_millis());
            h.write_f64(held.plan.0);
            h.write_f64(held.grant.0);
        }
        for &f in &state.proto.fallback {
            h.write_bool(f);
        }
        for &e in &state.proto.entry_round {
            h.write_u64(e);
        }
        h.write_u64(state.proto.bad_exits as u64);
        h.write_usize(state.pending.len());
        for m in &state.pending {
            h.write_usize(m.rack);
            h.write_u64(m.msg.round);
            h.write_bool(m.deferred);
        }
        h.write_u64(state.ticks as u64);
        h.write_bool(state.computed_this_tick);
        h.write_u8(state.dup_budget);
        h.finish()
    }

    fn describe(&self, action: &McAction) -> String {
        match action {
            McAction::Compute => "compute".to_string(),
            McAction::Tick => "tick".to_string(),
            McAction::Deliver { rack, round, .. } => format!("deliver#{round}@r{rack}"),
            McAction::Drop { rack, round, .. } => format!("drop#{round}@r{rack}"),
            McAction::Defer { rack, round, .. } => format!("defer#{round}@r{rack}"),
            McAction::Duplicate { rack, round, .. } => format!("dup#{round}@r{rack}"),
        }
    }
}

/// Builds the named invariant as a checker property over the model,
/// or `None` for an unknown name. See [`INVARIANTS`].
pub fn invariant(name: &str, proto: ProtocolConfig) -> Option<Property<ModelState>> {
    match name {
        "budget-safety" => Some(Property::safety("budget-safety", move |s: &ModelState| {
            let spent = s.proto.total_live_spend(&proto);
            let granted = s.proto.total_granted();
            if spent.0 <= granted.0 + EPS {
                Ok(())
            } else {
                Err(format!(
                    "live grant spend {:.1} W exceeds current entitlements {:.1} W \
                     (cross-round double-spend)",
                    spent.0, granted.0
                ))
            }
        })),
        "stale-grant" => Some(Property::safety("stale-grant", move |s: &ModelState| {
            for r in 0..proto.racks {
                let spend = s.proto.live_spend(&proto, r);
                let entitled = s.proto.grants_current[r];
                if spend.0 > entitled.0 + EPS {
                    return Err(format!(
                        "rack {r} spends a stale grant of {:.1} W against a current \
                         entitlement of {:.1} W",
                        spend.0, entitled.0
                    ));
                }
            }
            Ok(())
        })),
        "watchdog" => Some(Property::safety("watchdog", move |s: &ModelState| {
            for r in 0..proto.racks {
                let stale = s.proto.held[r].staleness(s.proto.now) > proto.watchdog_timeout;
                if stale && !s.proto.fallback[r] {
                    return Err(format!(
                        "rack {r} stale beyond the watchdog timeout but not in fallback"
                    ));
                }
                if stale && s.proto.live_spend(&proto, r).0 > 0.0 {
                    return Err(format!("rack {r} spends a grant while partitioned"));
                }
            }
            Ok(())
        })),
        "hold-down" => Some(Property::safety("hold-down", move |s: &ModelState| {
            if s.proto.bad_exits == 0 {
                Ok(())
            } else {
                Err(format!(
                    "{} fallback exit(s) triggered by a replayed round",
                    s.proto.bad_exits
                ))
            }
        })),
        _ => None,
    }
}

/// Builds every invariant in [`INVARIANTS`] order.
pub fn all_invariants(proto: ProtocolConfig) -> Vec<Property<ModelState>> {
    INVARIANTS
        .iter()
        .map(|name| invariant(name, proto).expect("known invariant"))
        .collect()
}

/// Maps a counterexample trace (the [`Violation::trace`] action strings)
/// onto a deterministic [`FaultPlan`] the full-fidelity simulator can
/// replay: rounds a rack never received become total-loss windows,
/// rounds delivered `k` ticks late become `MsgDelay {{ rounds: k }}`
/// windows at the round that carries them, and duplicated rounds whose
/// copy lands `k` ticks late become a second delay window so the
/// simulator re-delivers the captured round. The plan reproduces the
/// checker's interleaving on the simulator's own clock, where the PR-4
/// incident pipeline renders it as a forensic timeline.
pub fn counterexample_plan(trace: &[String], racks: usize, interval: SimDuration) -> FaultPlan {
    // (first-delivery tick, replay tick) per (round-1, rack).
    let mut issued_rounds: u64 = 0;
    let mut ticks: u64 = 0;
    let mut delivered: Vec<Vec<Option<u64>>> = Vec::new();
    let mut replayed: Vec<Vec<Option<u64>>> = Vec::new();
    let mut dropped: Vec<Vec<bool>> = Vec::new();
    for step in trace {
        if step == "compute" {
            issued_rounds += 1;
            delivered.push(vec![None; racks]);
            replayed.push(vec![None; racks]);
            dropped.push(vec![false; racks]);
        } else if step == "tick" {
            ticks += 1;
        } else if let Some((kind, round, rack)) = parse_step(step) {
            let (ri, rk) = ((round - 1) as usize, rack);
            if ri >= delivered.len() || rk >= racks {
                continue;
            }
            match kind {
                "deliver" | "dup" => {
                    if delivered[ri][rk].is_none() {
                        delivered[ri][rk] = Some(ticks);
                    } else if kind == "deliver" && replayed[ri][rk].is_none() {
                        // A duplicated copy landing after the original:
                        // the replay the hold-down invariant watches.
                        replayed[ri][rk] = Some(ticks);
                    }
                }
                "drop" => dropped[ri][rk] = true,
                _ => {}
            }
        }
    }
    let half = SimDuration::from_millis(interval.as_millis() / 2);
    let window = |round: u64| {
        // Model round R is computed at tick R-1; the simulator computes
        // its round R one interval into the run, at t ≈ R·interval.
        let center = SimTime::ZERO + interval * round;
        (center - half, center + half)
    };
    let mut plan = FaultPlan::new("mc-counterexample");
    for ri in 0..issued_rounds as usize {
        let round = ri as u64 + 1;
        for rk in 0..racks {
            match delivered[ri][rk] {
                None => {
                    // Dropped, expired, or still undecided at the
                    // violation: the rack never adopted this round.
                    let (start, end) = window(round);
                    plan.push(FaultSpec::new(
                        FaultKind::MsgLoss { p: 1.0 },
                        FaultTarget::Unit(rk),
                        start,
                        end,
                    ));
                }
                Some(tick) => {
                    let delay = tick.saturating_sub(round - 1);
                    if delay > 0 {
                        let (start, end) = window(round + delay);
                        plan.push(FaultSpec::new(
                            FaultKind::MsgDelay {
                                rounds: delay as u32,
                            },
                            FaultTarget::Unit(rk),
                            start,
                            end,
                        ));
                    }
                }
            }
            if let Some(tick) = replayed[ri][rk] {
                let delay = tick.saturating_sub(round - 1);
                if delay > 0 {
                    let (start, end) = window(round + delay);
                    plan.push(FaultSpec::new(
                        FaultKind::MsgDelay {
                            rounds: delay as u32,
                        },
                        FaultTarget::Unit(rk),
                        start,
                        end,
                    ));
                }
            }
        }
    }
    plan
}

/// Parses a `kind#round@rack` trace step.
fn parse_step(step: &str) -> Option<(&str, u64, usize)> {
    let (kind, rest) = step.split_once('#')?;
    let (round, rack) = rest.split_once("@r")?;
    Some((kind, round.parse().ok()?, rack.parse().ok()?))
}

/// Renders a violation as the stable text block the golden test pins:
/// property, detail, and the numbered action trace.
pub fn render_violation(v: &Violation) -> String {
    let mut out = String::new();
    out.push_str(&format!("violated: {}\n", v.property));
    out.push_str(&format!("detail:   {}\n", v.detail));
    out.push_str(&format!("depth:    {}\n", v.depth()));
    for (i, step) in v.trace.iter().enumerate() {
        out.push_str(&format!("{:>4}  {}\n", i + 1, step));
    }
    out
}

/// Renders a checker run as the `mc_report.json` object. `invariants`
/// are the names that were checked; `broken` is the model's defect knob.
pub fn render_mc_report_json(
    config: &ModelConfig,
    strategy: &str,
    invariants: &[String],
    report: &McReport,
) -> String {
    render(|w| {
        w.begin_object()
            .field("model", "vdeb")
            .field("racks", config.racks)
            .field("rounds", config.rounds)
            .field("dup_budget", config.dup_budget)
            .field("msg_ttl", config.msg_ttl_rounds)
            .field("broken", config.broken.name())
            .field("strategy", strategy)
            .field_array("invariants", invariants)
            .field("discovered", report.discovered)
            .field("expanded", report.expanded)
            .field("deduped", report.deduped)
            .field("terminals", report.terminals)
            .field("max_depth", report.max_depth)
            .field("frontier_peak", report.frontier_peak)
            .field("truncated", report.truncated)
            .field("ok", report.ok())
            .key("violations")
            .begin_array();
        for v in &report.violations {
            w.begin_object()
                .field("property", &v.property)
                .field("detail", &v.detail)
                .field("depth", v.depth())
                .field_array("trace", &v.trace)
                .end_object();
        }
        w.end_array().end_object();
    })
}

/// The stable field schema of `mc_report.json`, one dotted path per
/// line — pinned by `tests/data/mc_schema.txt` and diffed in CI so the
/// report wire format cannot drift silently.
pub fn mc_schema() -> String {
    let fields = [
        "model",
        "racks",
        "rounds",
        "dup_budget",
        "msg_ttl",
        "broken",
        "strategy",
        "invariants",
        "discovered",
        "expanded",
        "deduped",
        "terminals",
        "max_depth",
        "frontier_peak",
        "truncated",
        "ok",
        "violations",
        "violations[].property",
        "violations[].detail",
        "violations[].depth",
        "violations[].trace",
    ];
    let mut out = String::new();
    for f in fields {
        out.push_str(f);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::mc::{Checker, Strategy};

    #[test]
    fn scripted_round_grants_one_hot_rack() {
        let model = VdebModel::new(ModelConfig::new(3, 2));
        let (plans, grants) = model.compute_round(1);
        assert_eq!(
            plans,
            vec![Watts(15.0); 3],
            "Algorithm 1 saturates at P_ideal"
        );
        assert_eq!(grants, vec![Watts(45.0), Watts::ZERO, Watts::ZERO]);
        let (_, grants2) = model.compute_round(2);
        assert_eq!(grants2[1], Watts(45.0), "hot rack rotates");
    }

    #[test]
    fn healthy_model_satisfies_all_invariants() {
        let config = ModelConfig::new(3, 2);
        let model = VdebModel::new(config);
        let report = Checker::new(Strategy::Bfs).run(&model, &all_invariants(*model.protocol()));
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert!(!report.truncated);
        assert!(
            report.discovered > 1_000,
            "discovered {}",
            report.discovered
        );
    }

    #[test]
    fn lease_expiry_off_double_spends() {
        let config = ModelConfig::new(3, 2).with_broken(BrokenMode::LeaseExpiry);
        let model = VdebModel::new(config);
        let proto = *model.protocol();
        let report =
            Checker::new(Strategy::Bfs).run(&model, &[invariant("budget-safety", proto).unwrap()]);
        assert!(!report.ok(), "the known-violation model must fail");
        let v = &report.violations[0];
        assert_eq!(v.property, "budget-safety");
        // The shortest double-spend: adopt round 1's grant, let round 2
        // re-grant the same headroom elsewhere and adopt that too.
        assert!(
            v.trace.iter().filter(|s| *s == "compute").count() >= 2,
            "needs two rounds: {:?}",
            v.trace
        );
    }

    #[test]
    fn duplicate_grant_mode_flaps_the_watchdog() {
        let config = ModelConfig::new(2, 2).with_broken(BrokenMode::DuplicateGrant);
        let model = VdebModel::new(config);
        let proto = *model.protocol();
        let report =
            Checker::new(Strategy::Dfs).run(&model, &[invariant("hold-down", proto).unwrap()]);
        assert!(!report.ok(), "replay must be able to exit fallback");
        assert_eq!(report.violations[0].property, "hold-down");
    }

    #[test]
    fn counterexample_maps_to_fault_plan() {
        let trace: Vec<String> = [
            "compute",
            "deliver#1@r0",
            "drop#1@r1",
            "defer#1@r2",
            "tick",
            "compute",
            "deliver#1@r2",
            "deliver#2@r1",
            "drop#2@r0",
            "drop#2@r2",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let plan = counterexample_plan(&trace, 3, SimDuration::from_secs(10));
        let specs = plan.specs();
        // r1 lost round 1, r2 got round 1 one tick late, r0+r2 lost
        // round 2: four specs.
        assert_eq!(specs.len(), 4);
        assert!(matches!(specs[0].kind, FaultKind::MsgLoss { .. }));
        assert_eq!(specs[0].target, FaultTarget::Unit(1));
        assert!(matches!(specs[1].kind, FaultKind::MsgDelay { rounds: 1 }));
        assert_eq!(specs[1].target, FaultTarget::Unit(2));
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn report_json_matches_schema() {
        // Use the known-violation model so the nested violation fields
        // are exercised too.
        let config = ModelConfig::new(3, 2).with_broken(BrokenMode::LeaseExpiry);
        let model = VdebModel::new(config);
        let proto = *model.protocol();
        let report =
            Checker::new(Strategy::Bfs).run(&model, &[invariant("budget-safety", proto).unwrap()]);
        assert!(!report.ok());
        let json = render_mc_report_json(&config, "bfs", &["budget-safety".into()], &report);
        for line in mc_schema().lines() {
            let leaf = line.rsplit("[].").next().unwrap_or(line);
            assert!(
                json.contains(&format!("\"{leaf}\":")),
                "schema field {line} missing from {json}"
            );
        }
    }
}

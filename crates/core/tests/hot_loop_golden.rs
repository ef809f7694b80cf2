//! Digest goldens of the simulator's hot loop.
//!
//! `ClusterSim::step` keeps per-rack state between ticks (the trace row
//! it last applied, cached rack sums, memoized battery step factors).
//! Every run below is pinned by an FNV-1a digest of everything the run
//! produces — the `SurvivalReport` debug text, the telemetry JSONL and
//! the rendered event log — so a cache that serves one stale value
//! shows up as a digest change.
//!
//! The matrix runs on the 4 × 4 test cluster and reaches every path
//! that can change a rack's servers between ticks:
//!
//! * all six schemes under an escalating attack;
//! * PAD's Level 3 migrating load (migration offsets), and shedding
//!   then waking servers;
//! * PSPC's capping plus the operator's protective cap (DVFS changes);
//! * a fault plan with capacity fade, a breaker derate and a µDEB
//!   outage, with detection armed;
//! * a Conv run whose derated rack breaker trips and resets;
//! * an escalating attack joined by a second `add_attack`, then
//!   replaced by `set_attack`;
//! * a `rack_mut(..).servers_mut()` edit and a `set_soc` mid-run;
//! * one run that switches `dt` between 100 ms, 1 s and 250 ms;
//! * a horizon that runs past the trace end (the last row is clamped).

use attack::scenario::{AttackScenario, AttackStyle};
use attack::virus::VirusClass;
use pad::detect::DetectConfig;
use pad::fault::DegradedConfig;
use pad::metrics::SurvivalReport;
use pad::schemes::Scheme;
use pad::sim::{ClusterSim, EmergencyAction, SimConfig};
use powerinfra::topology::RackId;
use simkit::fault::{FaultKind, FaultPlan, FaultSpec, FaultTarget};
use simkit::mc::Fnv64;
use simkit::time::{SimDuration, SimTime};
use workload::synth::SynthConfig;

const DT: SimDuration = SimDuration::from_millis(100);

/// A simulator over a synthetic trace with a 1-minute step (so the
/// trace row changes many times per run), telemetry on.
fn sim_with(config: SimConfig, mean_util: f64, seed: u64, trace_mins: u64) -> ClusterSim {
    let trace = SynthConfig {
        machines: config.topology.total_servers(),
        horizon: SimTime::from_mins(trace_mins),
        step: SimDuration::from_mins(1),
        mean_utilization: mean_util,
        ..SynthConfig::small_test()
    }
    .generate_direct(seed);
    let mut sim = ClusterSim::new(config, trace).expect("valid config");
    sim.reseed_noise(seed ^ 0x5EED);
    sim.enable_telemetry(1 << 20);
    sim
}

fn sim(config: SimConfig, mean_util: f64, seed: u64) -> ClusterSim {
    sim_with(config, mean_util, seed, 60)
}

fn dense() -> AttackScenario {
    AttackScenario::new(AttackStyle::Dense, VirusClass::CpuIntensive, 2)
}

fn window(kind: FaultKind, target: FaultTarget, from_min: u64, to_min: u64) -> FaultSpec {
    FaultSpec::new(
        kind,
        target,
        SimTime::from_mins(from_min),
        SimTime::from_mins(to_min),
    )
}

/// FNV-1a over the report, the telemetry JSONL and the event log.
fn digest(mut sim: ClusterSim, report: &SurvivalReport) -> u64 {
    let telemetry = sim.take_telemetry().expect("telemetry is on").to_jsonl();
    let mut h = Fnv64::new();
    for part in [format!("{report:?}"), telemetry, sim.event_log().render()] {
        for byte in part.bytes() {
            h.write_u8(byte);
        }
        h.write_usize(part.len());
    }
    h.finish()
}

fn scheme_run(scheme: Scheme) -> u64 {
    let mut config = SimConfig::small_test(scheme);
    config.battery_autonomy = SimDuration::from_secs(20);
    let mut sim = sim(config, 0.6, 5);
    let victim = sim.most_vulnerable_rack();
    let scenario = dense()
        .with_escalation(SimDuration::from_mins(1))
        .with_width(SimDuration::from_secs(8));
    sim.set_attack(scenario, victim, SimTime::from_mins(1));
    let report = sim.run(SimTime::from_mins(6), DT, false);
    digest(sim, &report)
}

fn pad_migrate() -> u64 {
    let mut config = SimConfig::small_test(Scheme::Pad);
    config.emergency_action = EmergencyAction::Migrate;
    config.battery_autonomy = SimDuration::from_secs(10);
    let mut sim = sim(config, 0.7, 11);
    // Two victims, so the racks receiving migrated load are not
    // rewritten every tick by the overlay.
    for r in 0..2 {
        let scenario = AttackScenario::new(AttackStyle::Dense, VirusClass::CpuIntensive, 4)
            .with_escalation(SimDuration::from_mins(1))
            .with_width(SimDuration::from_secs(8));
        sim.add_attack(scenario, RackId(r), SimTime::from_secs(30));
    }
    let report = sim.run(SimTime::from_mins(8), DT, false);
    digest(sim, &report)
}

fn pad_shed_wake() -> u64 {
    let mut config = SimConfig::small_test(Scheme::Pad);
    config.shed_ratio = 0.25;
    config.battery_autonomy = SimDuration::from_secs(15);
    let degraded = DegradedConfig::for_grant_interval(config.grant_interval);
    let plan =
        FaultPlan::new("golden").with(window(FaultKind::ComponentOutage, FaultTarget::All, 2, 4));
    let mut sim = sim(config, 0.6, 3);
    sim.enable_faults(plan, degraded, 0xFA11)
        .expect("plan is valid");
    let scenario = dense().with_escalation(SimDuration::from_mins(1));
    sim.add_attack(scenario, RackId(0), SimTime::from_secs(30));
    let report = sim.run(SimTime::from_mins(7), DT, false);
    digest(sim, &report)
}

fn pspc_capping() -> u64 {
    let mut config = SimConfig::small_test(Scheme::Pspc);
    config.battery_autonomy = SimDuration::from_secs(10);
    let mut sim = sim(config, 0.85, 13);
    let scenario = AttackScenario::new(AttackStyle::Dense, VirusClass::CpuIntensive, 4);
    sim.set_attack(scenario, RackId(1), SimTime::from_mins(1));
    let report = sim.run(SimTime::from_mins(8), DT, false);
    digest(sim, &report)
}

fn pad_faulted() -> u64 {
    let mut config = SimConfig::small_test(Scheme::Pad);
    config.battery_autonomy = SimDuration::from_secs(15);
    let degraded = DegradedConfig::for_grant_interval(config.grant_interval);
    let plan = FaultPlan::new("golden")
        .with(window(
            FaultKind::CapacityFade { factor: 0.5 },
            FaultTarget::Unit(2),
            1,
            5,
        ))
        .with(window(
            FaultKind::ComponentDerate { factor: 0.8 },
            FaultTarget::All,
            2,
            4,
        ))
        .with(window(
            FaultKind::ComponentOutage,
            FaultTarget::Unit(0),
            2,
            6,
        ))
        .with(window(
            FaultKind::MsgLoss { p: 1.0 },
            FaultTarget::All,
            3,
            5,
        ));
    let mut sim = sim(config, 0.6, 11);
    sim.enable_detection(DetectConfig::default());
    sim.enable_faults(plan, degraded, 0xFA11)
        .expect("plan is valid");
    for r in 0..3 {
        let scenario = dense().with_width(SimDuration::from_secs(8));
        sim.add_attack(scenario, RackId(r), SimTime::from_mins(1));
    }
    let report = sim.run(SimTime::from_mins(8), DT, false);
    digest(sim, &report)
}

fn conv_trip() -> u64 {
    let mut config = SimConfig::small_test(Scheme::Conv);
    config.protective_response = false;
    let plan = FaultPlan::new("golden").with(window(
        FaultKind::ComponentDerate { factor: 0.7 },
        FaultTarget::Unit(1),
        1,
        4,
    ));
    let mut sim = sim(config, 0.5, 3);
    sim.enable_faults(plan, DegradedConfig::default(), 1)
        .expect("plan is valid");
    for r in 0..4 {
        let scenario = AttackScenario::new(AttackStyle::Dense, VirusClass::CpuIntensive, 4)
            .with_escalation(SimDuration::from_mins(1))
            .with_width(SimDuration::from_secs(8));
        sim.add_attack(scenario, RackId(r), SimTime::from_secs(30));
    }
    let report = sim.run(SimTime::from_mins(16), DT, false);
    digest(sim, &report)
}

fn attack_changes() -> u64 {
    let mut config = SimConfig::small_test(Scheme::Ps);
    config.battery_autonomy = SimDuration::from_secs(20);
    let mut sim = sim(config, 0.5, 17);
    let escalating = dense().with_escalation(SimDuration::from_secs(30));
    sim.add_attack(escalating, RackId(0), SimTime::from_secs(20));
    sim.run(SimTime::from_secs(130), DT, false);
    let second = AttackScenario::new(AttackStyle::Sparse, VirusClass::CpuIntensive, 3);
    sim.add_attack(second, RackId(2), SimTime::from_secs(140));
    sim.run(SimTime::from_secs(250), DT, false);
    // Replacing the campaign mid trace row leaves racks 0 and 2 clean.
    let replacement = dense().immediate();
    sim.set_attack(replacement, RackId(3), SimTime::from_secs(250));
    let report = sim.run(SimTime::from_mins(6), DT, false);
    digest(sim, &report)
}

fn rack_edits() -> u64 {
    let mut config = SimConfig::small_test(Scheme::Pad);
    config.battery_autonomy = SimDuration::from_secs(20);
    let mut sim = sim(config, 0.6, 19);
    let scenario = dense().with_width(SimDuration::from_secs(8));
    sim.set_attack(scenario, RackId(1), SimTime::from_mins(1));
    sim.run(SimTime::from_secs(150), DT, false);
    // Hand edits between ticks, mid trace row: a pinned-hot server, a throttled one, a
    // sleeping one, and a pre-drained battery.
    {
        let servers = sim.rack_mut(RackId(2)).servers_mut();
        servers[0].set_utilization(1.0);
        servers[1].set_dvfs(0.5);
        servers[3].set_state(powerinfra::server::ServerState::Asleep);
    }
    sim.rack_mut(RackId(3)).cabinet_mut().set_soc(0.2);
    sim.run(SimTime::from_secs(210), DT, false);
    sim.rack_mut(RackId(1)).servers_mut()[0].set_utilization(0.0);
    sim.rack_mut(RackId(0)).cabinet_mut().set_soc(0.05);
    let report = sim.run(SimTime::from_mins(6), DT, false);
    digest(sim, &report)
}

fn dt_switch() -> u64 {
    let mut config = SimConfig::small_test(Scheme::Pad);
    config.battery_autonomy = SimDuration::from_secs(20);
    let mut sim = sim(config, 0.6, 23);
    let scenario = dense()
        .with_escalation(SimDuration::from_mins(1))
        .with_width(SimDuration::from_secs(8));
    sim.set_attack(scenario, RackId(0), SimTime::from_secs(30));
    sim.run(SimTime::from_secs(135), DT, false);
    sim.run(SimTime::from_secs(305), SimDuration::SECOND, false);
    let report = sim.run(SimTime::from_mins(7), SimDuration::from_millis(250), false);
    digest(sim, &report)
}

fn past_trace_end() -> u64 {
    let mut config = SimConfig::small_test(Scheme::UDebOnly);
    config.battery_autonomy = SimDuration::from_secs(20);
    let mut sim = sim_with(config, 0.6, 29, 3);
    let scenario = dense().with_width(SimDuration::from_secs(8));
    sim.set_attack(scenario, RackId(2), SimTime::from_mins(2));
    let report = sim.run(SimTime::from_mins(6), DT, false);
    digest(sim, &report)
}

fn check(name: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{name}: hot-loop digest {got:#018x} differs from the pinned {want:#018x}"
    );
}

#[test]
fn every_scheme_is_pinned() {
    let want: [u64; 6] = [
        0x5c00a3f51f30595f,
        0xe9fe249a25bb8b5e,
        0xe9fe249a25bb8b5e,
        0x6b1fa23281fb4641,
        0x2cb7415db9cd5476,
        0xc807a7de74a2dec5,
    ];
    for (scheme, want) in Scheme::ALL.into_iter().zip(want) {
        check(&format!("{scheme:?}"), scheme_run(scheme), want);
    }
}

#[test]
fn pad_migrate_is_pinned() {
    check("pad_migrate", pad_migrate(), 0x41a82ae637ee760f);
}

#[test]
fn pad_shed_wake_is_pinned() {
    check("pad_shed_wake", pad_shed_wake(), 0x13900fe87c343668);
}

#[test]
fn pspc_capping_is_pinned() {
    check("pspc_capping", pspc_capping(), 0x5a273b4039171a17);
}

#[test]
fn pad_faulted_is_pinned() {
    check("pad_faulted", pad_faulted(), 0xc0d28a0c60836bf5);
}

#[test]
fn conv_trip_is_pinned() {
    check("conv_trip", conv_trip(), 0xba7166a4bbc8cd89);
}

#[test]
fn attack_changes_are_pinned() {
    check("attack_changes", attack_changes(), 0x6dbc69a598970f5d);
}

#[test]
fn rack_edits_are_pinned() {
    check("rack_edits", rack_edits(), 0xb55583c6a1ea0fc0);
}

#[test]
fn dt_switch_is_pinned() {
    check("dt_switch", dt_switch(), 0xc1b6a76fafbc6460);
}

#[test]
fn past_trace_end_is_pinned() {
    check("past_trace_end", past_trace_end(), 0xbca1c97e0d7fb942);
}

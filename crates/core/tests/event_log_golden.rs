//! Byte-for-byte goldens of the simulator's forensic event log.
//!
//! Four attacked runs on the 4 × 4 test cluster together reach every
//! kind of line the simulator logs:
//!
//! * PAD with detection armed under a fault plan (a µDEB outage on one
//!   rack, total coordinator-message loss long enough to trip the
//!   staleness watchdog, a cluster-wide breaker derate) and short-lived
//!   batteries: fault edges, watchdog fallback, detector firings,
//!   policy transitions, LVD isolation, overloads, the operator's
//!   protective cap, and rack and cluster feed trips;
//! * PAD whose Level-3 response migrates load instead of shedding it;
//! * PAD shedding and waking servers around a cluster-wide µDEB outage;
//! * Conv under a cluster-wide surge with one derated rack breaker.
//!
//! Each run's `event_log().render()` is pinned under `tests/data/`, so
//! any change to what the simulator logs — message text, severity,
//! source, or order — shows up as a diff.

use attack::scenario::{AttackScenario, AttackStyle};
use attack::virus::VirusClass;
use pad::detect::DetectConfig;
use pad::fault::DegradedConfig;
use pad::schemes::Scheme;
use pad::sim::{ClusterSim, EmergencyAction, SimConfig};
use powerinfra::topology::RackId;
use simkit::fault::{FaultKind, FaultPlan, FaultSpec, FaultTarget};
use simkit::time::{SimDuration, SimTime};
use workload::synth::SynthConfig;

const DT: SimDuration = SimDuration::from_millis(100);

fn sim(config: SimConfig, mean_util: f64, seed: u64) -> ClusterSim {
    let trace = SynthConfig {
        machines: config.topology.total_servers(),
        horizon: SimTime::from_hours(1),
        mean_utilization: mean_util,
        ..SynthConfig::small_test()
    }
    .generate_direct(seed);
    let mut sim = ClusterSim::new(config, trace).expect("valid config");
    sim.reseed_noise(seed ^ 0x5EED);
    sim
}

fn dense() -> AttackScenario {
    AttackScenario::new(AttackStyle::Dense, VirusClass::CpuIntensive, 4)
}

fn window(kind: FaultKind, target: FaultTarget, from_min: u64, to_min: u64) -> FaultSpec {
    FaultSpec::new(
        kind,
        target,
        SimTime::from_mins(from_min),
        SimTime::from_mins(to_min),
    )
}

fn pad_detect_faulted() -> String {
    let mut config = SimConfig::small_test(Scheme::Pad);
    config.battery_autonomy = SimDuration::from_secs(10);
    let degraded = DegradedConfig::for_grant_interval(config.grant_interval);
    let plan = FaultPlan::new("golden")
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
        ))
        .with(window(
            FaultKind::ComponentDerate { factor: 0.8 },
            FaultTarget::All,
            4,
            7,
        ));
    let mut sim = sim(config, 0.6, 11);
    sim.enable_detection(DetectConfig::default());
    sim.enable_faults(plan, degraded, 0xFA11)
        .expect("plan is valid");
    for r in 0..3 {
        let scenario = dense().with_width(SimDuration::from_secs(8));
        sim.add_attack(scenario, RackId(r), SimTime::from_mins(1));
    }
    sim.run(SimTime::from_mins(10), DT, false);
    sim.event_log().render()
}

fn pad_migrate() -> String {
    let mut config = SimConfig::small_test(Scheme::Pad);
    config.emergency_action = EmergencyAction::Migrate;
    config.battery_autonomy = SimDuration::from_secs(10);
    let mut sim = sim(config, 0.6, 7);
    for r in 0..4 {
        let scenario = dense()
            .with_escalation(SimDuration::from_mins(1))
            .with_width(SimDuration::from_secs(8));
        sim.add_attack(scenario, RackId(r), SimTime::from_secs(30));
    }
    sim.run(SimTime::from_mins(6), DT, false);
    sim.event_log().render()
}

fn pad_shed_wake() -> String {
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
    sim.run(SimTime::from_mins(6), DT, false);
    sim.event_log().render()
}

fn conv_trip() -> String {
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
        let scenario = dense()
            .with_escalation(SimDuration::from_mins(1))
            .with_width(SimDuration::from_secs(8));
        sim.add_attack(scenario, RackId(r), SimTime::from_secs(30));
    }
    sim.run(SimTime::from_mins(10), DT, false);
    sim.event_log().render()
}

fn check(rendered: &str, golden: &str, name: &str) {
    assert_eq!(
        rendered, golden,
        "{name}: the event log diverged from tests/data/event_log_{name}.txt"
    );
}

#[test]
fn pad_detect_faulted_log_is_pinned() {
    let golden = include_str!("data/event_log_pad_detect_faulted.txt");
    check(&pad_detect_faulted(), golden, "pad_detect_faulted");
}

#[test]
fn pad_migrate_log_is_pinned() {
    let golden = include_str!("data/event_log_pad_migrate.txt");
    check(&pad_migrate(), golden, "pad_migrate");
}

#[test]
fn pad_shed_wake_log_is_pinned() {
    let golden = include_str!("data/event_log_pad_shed_wake.txt");
    check(&pad_shed_wake(), golden, "pad_shed_wake");
}

#[test]
fn conv_trip_log_is_pinned() {
    let golden = include_str!("data/event_log_conv_trip.txt");
    check(&conv_trip(), golden, "conv_trip");
}

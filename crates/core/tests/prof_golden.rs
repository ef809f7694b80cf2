//! Golden tests for the self-profiler: enabling it must not perturb a
//! single simulation byte (telemetry, span trace, survival outcome), the
//! phase lap-clock must account for ≥95% of measured step wall-time, the
//! determinism contract (call counts, registration order, rack-seconds)
//! must hold across worker counts, and the `perf_report.json` schema is
//! pinned by `tests/data/perf_schema.txt` for the CI drift check.

use std::sync::Arc;

use attack::scenario::{AttackScenario, AttackStyle};
use attack::virus::VirusClass;
use pad::prof::{perf_schema, StepPhase};
use pad::schemes::Scheme;
use pad::sim::{ClusterSim, SimConfig};
use pad::sweep::{AttackSpec, ConfigSweep, SurvivalCase, Victim};
use simkit::time::{SimDuration, SimTime};
use workload::synth::SynthConfig;
use workload::trace::ClusterTrace;

fn shared_trace(config: &SimConfig) -> Arc<ClusterTrace> {
    Arc::new(
        SynthConfig {
            machines: config.topology.total_servers(),
            horizon: SimTime::from_hours(1),
            ..SynthConfig::small_test()
        }
        .generate_direct(7),
    )
}

/// An attacked, telemetry- and trace-recording sim ready to run.
fn instrumented_sim(trace: &Arc<ClusterTrace>) -> ClusterSim {
    let config = SimConfig::small_test(Scheme::Pad);
    let mut sim = ClusterSim::new_shared(config, Arc::clone(trace)).unwrap();
    let victim = sim.most_vulnerable_rack();
    sim.set_attack(
        AttackScenario::new(AttackStyle::Dense, VirusClass::CpuIntensive, 4),
        victim,
        SimTime::from_secs(30),
    );
    sim.enable_telemetry(1 << 20);
    sim.enable_tracing(1 << 16);
    sim
}

/// Profiler neutrality, direct form: the same attacked run with no
/// profiler and with live phase timing produces byte-identical telemetry
/// and span traces and the same survival report.
/// The profiler reads only the wall clock — never the RNG, never a
/// branch the simulation can observe.
#[test]
fn profiling_does_not_perturb_simulation_output() {
    let trace = shared_trace(&SimConfig::small_test(Scheme::Pad));
    let horizon = SimTime::from_mins(5);
    let dt = SimDuration::SECOND;

    let mut bare = instrumented_sim(&trace);
    let bare_report = bare.run(horizon, dt, true);

    let mut live = instrumented_sim(&trace);
    live.enable_profiling();
    let live_report = live.run(horizon, dt, true);

    assert_eq!(format!("{bare_report:?}"), format!("{live_report:?}"));

    let bare_tel = bare.take_telemetry().unwrap();
    let live_tel = live.take_telemetry().unwrap();
    assert!(!bare_tel.records.is_empty());
    assert_eq!(bare_tel.to_jsonl(), live_tel.to_jsonl());

    let bare_spans = bare.take_trace().unwrap();
    let live_spans = live.take_trace().unwrap();
    assert!(!bare_spans.spans.is_empty());
    assert_eq!(bare_spans.to_jsonl(), live_spans.to_jsonl());

    // The live profiler tiled every step.
    let profile = live.take_profile().unwrap();
    assert!(profile.steps > 0);
    assert!(profile.rack_seconds > 0.0);
}

fn attack_case(scheme: Scheme) -> SurvivalCase {
    SurvivalCase::quiet(
        SimConfig::small_test(scheme),
        SimTime::from_mins(5),
        SimDuration::SECOND,
    )
    .with_attack(AttackSpec {
        scenario: AttackScenario::new(AttackStyle::Dense, VirusClass::CpuIntensive, 4),
        victim: Victim::MostVulnerable,
        start: SimTime::from_secs(30),
    })
    .record_telemetry(1 << 20)
}

/// Profiler neutrality, sweep form: the same profiled sweep on one worker
/// and on four produces byte-identical telemetry and identical survival
/// times — and both match the unprofiled sweep. The deterministic half of
/// the profile (step counts, rack-seconds, per-phase call counts, phase
/// order) is also identical across worker counts; only wall-clock
/// durations may differ.
#[test]
fn profiled_sweep_is_neutral_and_deterministic_across_jobs() {
    let trace = shared_trace(&SimConfig::small_test(Scheme::Pad));
    let cases = vec![attack_case(Scheme::Ps), attack_case(Scheme::Pad)];
    let profiled: Vec<_> = cases.iter().cloned().map(|c| c.record_profile()).collect();

    let bare = ConfigSweep::new(Arc::clone(&trace), 8).run(cases).unwrap();
    let serial = ConfigSweep::new(Arc::clone(&trace), 8)
        .run(profiled.clone())
        .unwrap();
    let parallel = ConfigSweep::new(trace, 8)
        .with_jobs(4)
        .run(profiled)
        .unwrap();

    for ((b, s), p) in bare.iter().zip(&serial).zip(&parallel) {
        assert_eq!(
            b.report.survival_or_horizon(),
            s.report.survival_or_horizon()
        );
        assert_eq!(
            b.report.survival_or_horizon(),
            p.report.survival_or_horizon()
        );
        let b_tel = b.telemetry.as_ref().unwrap().to_jsonl();
        assert_eq!(b_tel, s.telemetry.as_ref().unwrap().to_jsonl());
        assert_eq!(b_tel, p.telemetry.as_ref().unwrap().to_jsonl());

        assert!(b.profile.is_none(), "unprofiled case grew a profile");
        let sp = s.profile.as_ref().expect("serial profile");
        let pp = p.profile.as_ref().expect("parallel profile");
        assert_eq!(sp.steps, pp.steps);
        assert_eq!(sp.rack_seconds, pp.rack_seconds);
        let s_counts: Vec<(&str, u64)> = sp
            .phases
            .phases
            .iter()
            .map(|ph| (ph.name.as_str(), ph.calls))
            .collect();
        let p_counts: Vec<(&str, u64)> = pp
            .phases
            .phases
            .iter()
            .map(|ph| (ph.name.as_str(), ph.calls))
            .collect();
        assert_eq!(s_counts, p_counts);
    }
}

/// The lap-clock tiles the step: per-phase totals must sum to at least
/// 95% of the measured `step.total` wall-time (the acceptance floor; the
/// structural design makes it ≈100%, losing only the lap-boundary clock
/// reads themselves).
#[test]
fn phase_coverage_is_at_least_95_percent() {
    let trace = shared_trace(&SimConfig::small_test(Scheme::Pad));
    let mut sim = instrumented_sim(&trace);
    sim.enable_profiling();
    sim.run(SimTime::from_mins(5), SimDuration::SECOND, false);
    let profile = sim.take_profile().unwrap();
    let coverage = profile.coverage();
    assert!(
        coverage >= 0.95,
        "phase coverage {coverage:.4} below the 0.95 floor"
    );
    // Every step phase fired on every step (Capping and Battery tile two
    // regions of the step, so they lap a whole multiple of times).
    let total = profile.phases.get(pad::prof::STEP_TOTAL).unwrap();
    assert_eq!(total.calls, profile.steps);
    for phase in StepPhase::ALL {
        let stats = profile.phases.get(phase.name()).unwrap();
        assert!(
            stats.calls >= total.calls && stats.calls.is_multiple_of(total.calls),
            "{} lapped {} times over {} steps",
            phase.name(),
            stats.calls,
            total.calls
        );
    }
}

/// The perf-report schema (the dotted field paths of `perf_report.json`)
/// is pinned by `tests/data/perf_schema.txt`; CI re-derives the same list
/// through the real binary (`padsim perf --schema`). Renaming, adding or
/// dropping a report field must touch that file.
#[test]
fn perf_schema_matches_checked_in_list() {
    let expected = include_str!("data/perf_schema.txt");
    assert_eq!(
        perf_schema(),
        expected,
        "perf report schema drifted from tests/data/perf_schema.txt"
    );
}

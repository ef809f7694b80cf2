//! Performance observability for the cluster simulator.
//!
//! This is the pad-specific layer over [`simkit::prof`]: the named
//! stages of [`crate::sim::ClusterSim::step`] as a fixed [`StepPhase`]
//! vocabulary, the [`SimProfiler`] the simulator owns while profiling
//! is on (like telemetry and tracing, it is absent otherwise), the merged
//! [`SimProfile`] a profiled run yields, and the [`PerfReport`] the
//! `padsim perf` subcommand serializes (pinned by
//! `tests/data/perf_schema.txt` and gated in CI against a checked-in
//! throughput baseline).
//!
//! The profiler reads only the monotonic wall clock. It never touches a
//! random stream, a branch condition, or an emitted record, so enabling
//! it cannot perturb a single simulation output byte — the neutrality
//! golden test pins that. Call counts and rack-seconds are
//! deterministic; the wall-clock durations are bookkeeping and vary run
//! to run.

use std::time::Duration;

use simkit::jsonio::{JsonParser, ObjFields as _};
use simkit::prof::{PhaseId, PhaseProfile, ProfDump, Profiler, Throughput};
use simkit::sweep::{SweepProfile, WorkerProfile};
use simkit::time::SimDuration;

/// The instrumented stages of one simulator step. Each phase tiles a
/// contiguous run of `ClusterSim::step` (a stage may contribute to a
/// phase from more than one region — DVFS application and the capping
/// control loop both land in [`StepPhase::Capping`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepPhase {
    /// Fault-window edges and outage handling (stages 0a + 0).
    Faults,
    /// Background utilizations and the power-virus attack drive
    /// (stages 1 + 1b).
    Attack,
    /// DVFS factor application and the PSPC capping control loop
    /// (stages 1c + 6).
    Capping,
    /// Power demands, electrical noise, and excess computation
    /// (work accounting + stage 2).
    Demand,
    /// The slow vDEB management loop, grant leases, and graceful
    /// degradation (stages 3 + 3b).
    Vdeb,
    /// The fast layer — battery shave, µDEB shave, emergency top-up —
    /// plus recharge (stages 4 + 7).
    Battery,
    /// Utility draws, the overload predicate, and breaker heating
    /// (stage 5).
    Breaker,
    /// PAD policy, shedding/migration, the attacker side channel, and
    /// LVD forensics (stages 8 + 9 + 10).
    Policy,
    /// Per-tick telemetry/detector feed and causal span emission
    /// (stages 10b + 10c).
    Telemetry,
    /// Clock advance and SOC sampling (stage 11).
    Clock,
}

impl StepPhase {
    /// Every phase, in registration (and report) order.
    pub const ALL: [StepPhase; 10] = [
        StepPhase::Faults,
        StepPhase::Attack,
        StepPhase::Capping,
        StepPhase::Demand,
        StepPhase::Vdeb,
        StepPhase::Battery,
        StepPhase::Breaker,
        StepPhase::Policy,
        StepPhase::Telemetry,
        StepPhase::Clock,
    ];

    /// The interned phase name.
    pub fn name(self) -> &'static str {
        match self {
            StepPhase::Faults => "step.faults",
            StepPhase::Attack => "step.attack",
            StepPhase::Capping => "step.capping",
            StepPhase::Demand => "step.demand",
            StepPhase::Vdeb => "step.vdeb",
            StepPhase::Battery => "step.battery",
            StepPhase::Breaker => "step.breaker",
            StepPhase::Policy => "step.policy",
            StepPhase::Telemetry => "step.telemetry",
            StepPhase::Clock => "step.clock",
        }
    }
}

/// Name of the whole-step wall-time phase (what the per-stage laps are
/// measured against for coverage).
pub const STEP_TOTAL: &str = "step.total";

/// The simulator-side profiler: the fixed [`StepPhase`] vocabulary over
/// a [`Profiler`], plus the throughput accountant (steps and simulated
/// rack-seconds accumulate alongside the wall-clock laps).
#[derive(Debug, Clone, PartialEq)]
pub struct SimProfiler {
    prof: Profiler,
    ids: [PhaseId; StepPhase::ALL.len()],
    total_id: PhaseId,
    rack_count: usize,
    steps: u64,
    rack_seconds: f64,
}

impl SimProfiler {
    /// A recording profiler over a `rack_count`-rack simulator.
    pub fn new(rack_count: usize) -> Self {
        let mut prof = Profiler::new();
        let ids = StepPhase::ALL.map(|p| prof.register(p.name()));
        let total_id = prof.register(STEP_TOTAL);
        SimProfiler {
            prof,
            ids,
            total_id,
            rack_count,
            steps: 0,
            rack_seconds: 0.0,
        }
    }

    /// Records one lap against `phase`.
    #[inline]
    pub fn record_phase(&mut self, phase: StepPhase, elapsed: Duration) {
        self.prof.add(self.ids[phase as usize], elapsed);
    }

    /// Closes one simulator step: records the whole-step wall time and
    /// accounts `rack_count × dt` simulated rack-seconds.
    #[inline]
    pub fn finish_step(&mut self, dt: SimDuration, total: Duration) {
        self.prof.add(self.total_id, total);
        self.steps += 1;
        self.rack_seconds += self.rack_count as f64 * dt.as_secs_f64();
    }

    /// Consumes the profiler into its serializable profile.
    pub fn into_profile(self) -> SimProfile {
        SimProfile {
            phases: self.prof.into_dump(),
            steps: self.steps,
            rack_seconds: self.rack_seconds,
        }
    }
}

/// What one profiled run (or a merge of many) measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimProfile {
    /// Per-phase aggregates: every [`StepPhase`] plus [`STEP_TOTAL`],
    /// in registration order.
    pub phases: ProfDump,
    /// Simulator steps profiled.
    pub steps: u64,
    /// Simulated rack-seconds advanced while profiling (racks × dt,
    /// summed over steps).
    pub rack_seconds: f64,
}

impl SimProfile {
    /// Folds another profile into this one.
    pub fn merge(&mut self, other: &SimProfile) {
        self.phases.merge(&other.phases);
        self.steps += other.steps;
        self.rack_seconds += other.rack_seconds;
    }

    /// Total measured whole-step wall time.
    pub fn step_wall(&self) -> Duration {
        self.phases
            .get(STEP_TOTAL)
            .map_or(Duration::ZERO, |p| p.total)
    }

    /// Fraction of the measured step wall time the per-stage laps
    /// account for (1.0 = the laps tile the step perfectly; the report
    /// requires ≥ 0.95).
    pub fn coverage(&self) -> f64 {
        let total = self.step_wall().as_secs_f64();
        if total <= 0.0 {
            return 0.0;
        }
        let sum: f64 = StepPhase::ALL
            .iter()
            .filter_map(|p| self.phases.get(p.name()))
            .map(|p| p.total.as_secs_f64())
            .sum();
        sum / total
    }
}

/// The machine-readable output of `padsim perf`: merged step-phase
/// profile, sweep-level phases, throughput accounting, and the sweep's
/// worker economics. Serialized by [`PerfReport::to_json`] under the
/// field schema pinned in `tests/data/perf_schema.txt`.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Racks per scenario.
    pub racks: usize,
    /// Servers per rack.
    pub servers: usize,
    /// Which schemes the measurement sweep ran ("all" = the six paper
    /// schemes, one scenario each).
    pub scheme_set: String,
    /// Hot-loop steps per scenario.
    pub ticks: u64,
    /// Step size in milliseconds.
    pub dt_ms: u64,
    /// Scenario count.
    pub scenarios: usize,
    /// Sweep worker count.
    pub jobs: usize,
    /// Trace/noise seed.
    pub seed: u64,
    /// Merged per-scenario step profile.
    pub profile: SimProfile,
    /// Sweep-level phases: `sweep.parse`, `sweep.scenario`,
    /// `sweep.merge`.
    pub sweep_phases: ProfDump,
    /// The headline accountant: simulated rack-seconds vs the sweep's
    /// wall clock.
    pub throughput: Throughput,
    /// Per-worker scenario counts and busy/merge spans.
    pub workers: Vec<WorkerProfile>,
    /// Worker-pool utilization over the sweep (busy / (wall × workers)).
    pub utilization: f64,
    /// Total time scenarios sat in the pull queue before a worker
    /// claimed them.
    pub queue_wait: Duration,
}

impl PerfReport {
    /// Assembles a report from a profiled sweep's raw pieces.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        racks: usize,
        servers: usize,
        scheme_set: String,
        ticks: u64,
        dt: SimDuration,
        seed: u64,
        profile: SimProfile,
        sweep_profile: &SweepProfile,
        parse_wall: Duration,
        scenario_wall: Duration,
        queue_wait: Duration,
    ) -> Self {
        let scenarios = sweep_profile.scenarios() as usize;
        let sweep_phases = ProfDump {
            phases: vec![
                PhaseProfile {
                    name: "sweep.parse".to_string(),
                    calls: 1,
                    total: parse_wall,
                    max: parse_wall,
                },
                PhaseProfile {
                    name: "sweep.scenario".to_string(),
                    calls: scenarios as u64,
                    total: scenario_wall,
                    max: sweep_profile
                        .workers
                        .iter()
                        .map(|w| w.busy)
                        .max()
                        .unwrap_or(Duration::ZERO),
                },
                PhaseProfile {
                    name: "sweep.merge".to_string(),
                    calls: scenarios as u64,
                    total: sweep_profile.total_merge(),
                    max: sweep_profile
                        .workers
                        .iter()
                        .map(|w| w.merge)
                        .max()
                        .unwrap_or(Duration::ZERO),
                },
            ],
        };
        let throughput = Throughput {
            unit_seconds: profile.rack_seconds,
            steps: profile.steps,
            wall: sweep_profile.wall_clock,
        };
        PerfReport {
            racks,
            servers,
            scheme_set,
            ticks,
            dt_ms: (dt.as_secs_f64() * 1000.0).round() as u64,
            scenarios,
            jobs: sweep_profile.workers.len(),
            seed,
            profile,
            sweep_phases,
            throughput,
            workers: sweep_profile.workers.clone(),
            utilization: sweep_profile.utilization(),
            queue_wait,
        }
    }

    /// Every phase row of the report: the step phases (including
    /// [`STEP_TOTAL`]) followed by the sweep-level phases. `share` is
    /// the phase's fraction of its parent wall time — the measured step
    /// total for `step.*`, the sweep wall clock for `sweep.*`.
    pub fn phase_rows(&self) -> Vec<(PhaseProfile, f64)> {
        let step_wall = self.profile.step_wall().as_secs_f64();
        let sweep_wall = self.throughput.wall.as_secs_f64();
        let share = |name: &str, total: Duration| {
            let parent = if name.starts_with("sweep.") {
                sweep_wall
            } else {
                step_wall
            };
            if parent > 0.0 {
                total.as_secs_f64() / parent
            } else {
                0.0
            }
        };
        self.profile
            .phases
            .phases
            .iter()
            .chain(self.sweep_phases.phases.iter())
            .map(|p| (p.clone(), share(&p.name, p.total)))
            .collect()
    }

    /// Serializes the report under the pinned field schema
    /// ([`perf_schema`]), one JSON object on one line.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"schema\":\"pad.perf.v1\",");
        out.push_str(&format!(
            "\"config\":{{\"racks\":{},\"servers\":{},\"scheme_set\":{:?},\"ticks\":{},\
             \"dt_ms\":{},\"scenarios\":{},\"jobs\":{},\"seed\":{}}},",
            self.racks,
            self.servers,
            self.scheme_set,
            self.ticks,
            self.dt_ms,
            self.scenarios,
            self.jobs,
            self.seed
        ));
        out.push_str(&format!(
            "\"throughput\":{{\"steps\":{},\"rack_seconds\":{:.3},\"wall_sec\":{:.6},\
             \"rack_seconds_per_wall_sec\":{:.3},\"rack_hours_per_wall_sec\":{:.6},\
             \"steps_per_sec\":{:.1}}},",
            self.throughput.steps,
            self.throughput.unit_seconds,
            self.throughput.wall.as_secs_f64(),
            self.throughput.unit_seconds_per_wall_second(),
            self.throughput.unit_hours_per_wall_second(),
            self.throughput.steps_per_second()
        ));
        out.push_str(&format!(
            "\"step\":{{\"wall_sec\":{:.6},\"coverage\":{:.4}}},",
            self.profile.step_wall().as_secs_f64(),
            self.profile.coverage()
        ));
        out.push_str(&format!(
            "\"sweep\":{{\"workers\":{},\"utilization\":{:.4},\"queue_wait_sec\":{:.6},\
             \"busy_sec\":{:.6},\"merge_sec\":{:.6},\"wall_sec\":{:.6}}},",
            self.workers.len(),
            self.utilization,
            self.queue_wait.as_secs_f64(),
            self.workers
                .iter()
                .map(|w| w.busy.as_secs_f64())
                .sum::<f64>(),
            self.workers
                .iter()
                .map(|w| w.merge.as_secs_f64())
                .sum::<f64>(),
            self.throughput.wall.as_secs_f64()
        ));
        out.push_str("\"workers\":[");
        for (i, w) in self.workers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"scenarios\":{},\"busy_sec\":{:.6},\"merge_sec\":{:.6}}}",
                w.scenarios,
                w.busy.as_secs_f64(),
                w.merge.as_secs_f64()
            ));
        }
        out.push_str("],\"phases\":[");
        for (i, (p, share)) in self.phase_rows().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{:?},\"calls\":{},\"total_ms\":{:.3},\"mean_us\":{:.3},\
                 \"max_us\":{:.3},\"share\":{:.4}}}",
                p.name,
                p.calls,
                p.total.as_secs_f64() * 1e3,
                p.mean().as_secs_f64() * 1e6,
                p.max.as_secs_f64() * 1e6,
                share
            ));
        }
        out.push_str("]}");
        out
    }
}

/// The stable field schema of `perf_report.json`, one dotted path per
/// line — pinned by `tests/data/perf_schema.txt` and diffed in CI so
/// the report wire format cannot drift silently.
pub fn perf_schema() -> String {
    let fields = [
        "schema",
        "config.racks",
        "config.servers",
        "config.scheme_set",
        "config.ticks",
        "config.dt_ms",
        "config.scenarios",
        "config.jobs",
        "config.seed",
        "throughput.steps",
        "throughput.rack_seconds",
        "throughput.wall_sec",
        "throughput.rack_seconds_per_wall_sec",
        "throughput.rack_hours_per_wall_sec",
        "throughput.steps_per_sec",
        "step.wall_sec",
        "step.coverage",
        "sweep.workers",
        "sweep.utilization",
        "sweep.queue_wait_sec",
        "sweep.busy_sec",
        "sweep.merge_sec",
        "sweep.wall_sec",
        "workers[].scenarios",
        "workers[].busy_sec",
        "workers[].merge_sec",
        "phases[].name",
        "phases[].calls",
        "phases[].total_ms",
        "phases[].mean_us",
        "phases[].max_us",
        "phases[].share",
    ];
    let mut out = String::new();
    for f in fields {
        out.push_str(f);
        out.push('\n');
    }
    out
}

/// The CI regression gate: `current` and `baseline` are
/// rack-hours-per-wall-second figures; the gate trips when `current`
/// falls more than `gate_pct` percent below the baseline.
///
/// # Errors
///
/// Returns the gate-failure description (non-positive baseline, or a
/// regression beyond the gate). On success returns the signed change in
/// percent.
pub fn gate_check(current: f64, baseline: f64, gate_pct: f64) -> Result<f64, String> {
    if baseline.is_nan() || baseline <= 0.0 {
        return Err(format!(
            "baseline rack_hours_per_wall_sec must be positive, got {baseline}"
        ));
    }
    let change_pct = (current - baseline) / baseline * 100.0;
    if change_pct < -gate_pct {
        Err(format!(
            "throughput regression: {current:.3} rack-hours/s vs baseline {baseline:.3} \
             ({change_pct:+.1}%, gate allows -{gate_pct:.0}%)"
        ))
    } else {
        Ok(change_pct)
    }
}

/// Reads the gate's figure, `throughput.rack_hours_per_wall_sec`, out
/// of a perf report or a checked-in `perf_baseline.json`.
///
/// # Errors
///
/// Returns a description when the text is not a JSON document or lacks
/// the numeric field.
pub fn baseline_throughput(text: &str) -> Result<f64, String> {
    JsonParser::parse_document(text)?
        .as_object("baseline")?
        .obj_field("throughput")?
        .f64_field("rack_hours_per_wall_sec")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_vocabulary_is_stable() {
        let profiler = SimProfiler::new(4);
        let profile = profiler.into_profile();
        let names: Vec<&str> = profile
            .phases
            .phases
            .iter()
            .map(|p| p.name.as_str())
            .collect();
        let mut expected: Vec<&str> = StepPhase::ALL.iter().map(|p| p.name()).collect();
        expected.push(STEP_TOTAL);
        assert_eq!(names, expected);
    }

    #[test]
    fn rack_seconds_accumulate_per_step() {
        let mut profiler = SimProfiler::new(22);
        for _ in 0..10 {
            profiler.finish_step(SimDuration::from_millis(100), Duration::from_micros(50));
        }
        let profile = profiler.into_profile();
        assert_eq!(profile.steps, 10);
        assert!((profile.rack_seconds - 22.0).abs() < 1e-9);
        assert_eq!(profile.step_wall(), Duration::from_micros(500));
    }

    #[test]
    fn coverage_is_lap_sum_over_step_total() {
        let mut profiler = SimProfiler::new(2);
        profiler.record_phase(StepPhase::Attack, Duration::from_micros(60));
        profiler.record_phase(StepPhase::Battery, Duration::from_micros(38));
        profiler.finish_step(SimDuration::from_millis(100), Duration::from_micros(100));
        let profile = profiler.into_profile();
        assert!((profile.coverage() - 0.98).abs() < 1e-9);
    }

    #[test]
    fn gate_trips_only_beyond_threshold() {
        assert!(gate_check(75.0, 100.0, 25.0).is_ok());
        let err = gate_check(74.0, 100.0, 25.0).unwrap_err();
        assert!(err.contains("regression"), "{err}");
        assert!(gate_check(130.0, 100.0, 25.0).is_ok());
        assert!(gate_check(1.0, 0.0, 25.0).is_err());
    }

    #[test]
    fn json_number_extraction() {
        let text = "{\"a\":1,\"throughput\":{\"x\":[1,2],\"rack_hours_per_wall_sec\":12.5}}";
        assert_eq!(baseline_throughput(text), Ok(12.5));
        // A same-named field elsewhere in the document is not the gate's.
        let text = "{\"rack_hours_per_wall_sec\":3,\"throughput\":{}}";
        assert!(baseline_throughput(text).unwrap_err().contains("missing"));
        assert!(baseline_throughput("not json").is_err());
    }

    #[test]
    fn checked_in_baseline_parses_to_its_floor() {
        let text = include_str!("../../../bench/baselines/perf_baseline.json");
        assert_eq!(baseline_throughput(text), Ok(16.0));
    }
}

//! The simulator workloads: whole scenarios through `pad::sweep`.
//!
//! * `sim-long` — all six schemes at 22 racks × 10 servers, one dense
//!   CPU-virus attack each, a long 100 ms-step horizon without
//!   stop-on-overload, one sweep worker. The step loop dominates.
//! * `sim-sweep` — the Fig. 15 attack matrix (6 schemes × 2 spike
//!   styles × 3 virus classes × 2 trace seeds) with stop-on-overload on
//!   short horizons, two sweep workers, one shared trace per seed.
//!   Construction is the largest single layer.
//!
//! Throughput counts everything a user waits for: construction, the
//! step loop and the report, as simulated rack-hours per wall-second.

use std::sync::Arc;
use std::time::{Duration, Instant};

use attack::scenario::{AttackScenario, AttackStyle};
use attack::virus::VirusClass;
use battery::pack::BatteryCabinet;
use pad::metrics::SurvivalReport;
use pad::prof::{SimProfile, StepPhase};
use pad::schemes::Scheme;
use pad::sim::{ClusterSim, EmergencyAction, SimConfig};
use pad::sweep::{scenario_noise_seed, AttackSpec, ConfigSweep, SurvivalCase, Victim};
use powerinfra::server::ServerSpec;
use powerinfra::topology::ClusterTopology;
use simkit::sweep::{SweepProfile, SweepRunner};
use simkit::time::{SimDuration, SimTime};
use workload::synth::SynthConfig;
use workload::trace::ClusterTrace;

use crate::spans::{Recorder, Trace};
use crate::util::{cpu_seconds, median, peak_rss_mb, quantile, Fnv};
use crate::{Opts, Outcome};

/// Racks in every workload's cluster (the paper's 22).
pub const RACKS: usize = 22;
/// Servers per rack.
pub const SERVERS: usize = 10;
const DT_MS: u64 = 100;
/// `sim-long` horizon in 100 ms ticks (40 simulated minutes).
const LONG_TICKS: u64 = 24_000;
/// `sim-sweep`: warm lead-in before the attack, and the survival window.
const SWEEP_ATTACK_AT_S: u64 = 30;
const SWEEP_WINDOW_S: u64 = 60;
/// Independent background traces per run: averaging over two keeps a
/// run's work from hinging on one trace's attack dynamics.
const TRACE_SEEDS: u64 = 2;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 3;

/// The benchmark's reading of a step-phase name.
fn phase_metric(phase: StepPhase) -> &'static str {
    match phase {
        StepPhase::Faults => "sim.step.faults_s",
        // The profiler's `step.attack` lap spans the stage-1 trace
        // lookups as well as the virus overlay.
        StepPhase::Attack => "sim.step.trace_attack_s",
        StepPhase::Capping => "sim.step.capping_s",
        StepPhase::Demand => "sim.step.demand_s",
        StepPhase::Vdeb => "sim.step.vdeb_s",
        StepPhase::Battery => "sim.step.battery_s",
        StepPhase::Breaker => "sim.step.breaker_s",
        StepPhase::Policy => "sim.step.policy_s",
        StepPhase::Telemetry => "sim.step.telemetry_s",
        StepPhase::Clock => "sim.step.clock_s",
    }
}

/// The 22-rack cluster `padsim` builds, under `scheme`.
pub fn cluster_config(scheme: Scheme) -> SimConfig {
    let server = ServerSpec::hp_proliant_dl585_g5();
    let nameplate = server.peak * SERVERS as f64;
    SimConfig {
        topology: ClusterTopology::new(RACKS, SERVERS),
        budget_fraction: 0.75,
        emergency_action: EmergencyAction::Shed,
        p_ideal: nameplate * 0.05,
        udeb_max_power: nameplate * 0.3,
        udeb_engage_threshold: nameplate * 0.0675,
        demand_jitter: nameplate * 0.01,
        ..SimConfig::paper_default(scheme)
    }
}

/// One sweep over one shared trace.
struct Group {
    trace: Arc<ClusterTrace>,
    sweep_seed: u64,
    cases: Vec<SurvivalCase>,
}

/// A workload's generated inputs.
struct Inputs {
    groups: Vec<Group>,
    jobs: usize,
}

fn dt() -> SimDuration {
    SimDuration::from_millis(DT_MS)
}

fn synth(seed: u64, horizon: SimTime) -> ClusterTrace {
    SynthConfig {
        machines: RACKS * SERVERS,
        horizon: horizon + SimDuration::from_mins(2),
        step: SimDuration::from_mins(1),
        mean_utilization: 0.31,
        machine_bias_std: 0.04,
        ..SynthConfig::google_may2010()
    }
    .generate_direct(seed)
}

/// Generates the workload's inputs from `seed`: one shared trace per
/// derived trace seed, each with the workload's cases. Trace synthesis
/// is recorded as `workload.synth` spans when `rec` is given.
fn inputs(workload: &str, seed: u64, mut rec: Option<&mut Recorder>) -> Inputs {
    let long = workload == "sim-long";
    let (attack_at, horizon) = if long {
        (
            SimTime::ZERO + dt() * (LONG_TICKS / 4),
            SimTime::ZERO + dt() * LONG_TICKS,
        )
    } else {
        let attack_at = SimTime::from_secs(SWEEP_ATTACK_AT_S);
        (
            attack_at,
            attack_at + SimDuration::from_secs(SWEEP_WINDOW_S),
        )
    };
    let case = |scheme: Scheme, scenario: AttackScenario| {
        SurvivalCase::quiet(cluster_config(scheme), horizon, dt()).with_attack(AttackSpec {
            scenario,
            victim: Victim::MostVulnerable,
            start: attack_at,
        })
    };
    let cases: Vec<SurvivalCase> = if long {
        let scenario = AttackScenario::new(AttackStyle::Dense, VirusClass::CpuIntensive, 4);
        Scheme::ALL
            .iter()
            .map(|&scheme| case(scheme, scenario))
            .collect()
    } else {
        let mut cases = Vec::new();
        for scheme in Scheme::ALL {
            for class in VirusClass::ALL {
                for style in AttackStyle::ALL {
                    // Whole-rack spikes from the first tick, so the weaker
                    // schemes overload inside the short window and
                    // survival lengths differ across the matrix.
                    let scenario = AttackScenario::new(style, class, SERVERS).immediate();
                    cases.push(case(scheme, scenario).stop_on_overload());
                }
            }
        }
        cases
    };
    let groups = (0..TRACE_SEEDS)
        .map(|k| {
            let trace_seed = seed.wrapping_mul(TRACE_SEEDS).wrapping_add(k);
            let trace = match rec.as_deref_mut() {
                Some(r) => r.time("workload.synth", trace_seed, || synth(trace_seed, horizon)),
                None => synth(trace_seed, horizon),
            };
            Group {
                trace: Arc::new(trace),
                sweep_seed: trace_seed ^ 0x5EED,
                cases: cases.clone(),
            }
        })
        .collect();
    Inputs {
        groups,
        jobs: if long { 1 } else { 2 },
    }
}

/// Digest of every scenario's simulated statistics — survival,
/// overloads, breaker trips, delivered and offered work — in
/// submission order. `Debug` prints every float in its shortest
/// round-trip form, so equal digests mean bit-equal statistics.
fn digest<'a>(reports: impl Iterator<Item = &'a SurvivalReport>) -> String {
    let mut h = Fnv::default();
    for report in reports {
        h.write(format!("{report:?}").as_bytes());
    }
    h.hex()
}

fn rack_hours(report: &SurvivalReport) -> f64 {
    report
        .ended_at
        .saturating_since(SimTime::ZERO)
        .as_secs_f64()
        * RACKS as f64
        / 3600.0
}

/// One untraced pass: every group through `ConfigSweep::run_profiled`.
struct Pass {
    wall: Duration,
    reports: Vec<SurvivalReport>,
}

fn bare_pass(inputs: &Inputs) -> Result<Pass, String> {
    let started = Instant::now();
    let mut reports = Vec::new();
    for group in &inputs.groups {
        let sweep =
            ConfigSweep::new(Arc::clone(&group.trace), group.sweep_seed).with_jobs(inputs.jobs);
        let (outcomes, _) = sweep.run_profiled(group.cases.clone())?;
        reports.extend(outcomes.into_iter().map(|o| o.report));
    }
    Ok(Pass {
        wall: started.elapsed(),
        reports,
    })
}

/// The offline reference: every case built and run directly through
/// `ClusterSim`, serially, outside the sweep runner.
fn reference(inputs: &Inputs) -> Result<Vec<SurvivalReport>, String> {
    let mut out = Vec::new();
    for group in &inputs.groups {
        for (index, case) in group.cases.iter().enumerate() {
            let mut sim = ClusterSim::new_shared(case.config.clone(), Arc::clone(&group.trace))?;
            sim.reseed_noise(scenario_noise_seed(group.sweep_seed, index));
            install_attack(&mut sim, case);
            out.push(sim.run(case.horizon, case.dt, case.stop_on_overload));
        }
    }
    Ok(out)
}

fn install_attack(sim: &mut ClusterSim, case: &SurvivalCase) {
    if let Some(spec) = case.attack {
        let victim = match spec.victim {
            Victim::Rack(id) => id,
            Victim::MostVulnerable => sim.most_vulnerable_rack(),
        };
        sim.set_attack(spec.scenario, victim, spec.start);
    }
}

/// Digests recorded for the baseline seed (1) and the held-out seed
/// (11); see `perfbench/README.md`. A change that alters any simulated
/// statistic on these seeds fails the run until they are re-recorded.
fn committed_digest(workload: &str, seed: u64) -> Option<&'static str> {
    const REFS: &[(&str, u64, &str)] = &[
        ("sim-long", 1, "a674ec7cdce7d5a0"),
        ("sim-long", 11, "f1d4f5e47a9b702a"),
        ("sim-sweep", 1, "9651fb2cf828d589"),
        ("sim-sweep", 11, "51efe2c33f6308d0"),
    ];
    REFS.iter()
        .find(|(w, s, _)| *w == workload && *s == seed)
        .map(|(_, _, d)| *d)
}

/// Runs a simulator workload.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    // Set-up: trace synthesis, case construction and the offline
    // reference, repeated; `setup_s` is the median.
    let mut setup = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        let inputs = inputs(&opts.workload, opts.seed, None);
        let reference = digest(reference(&inputs)?.iter());
        setup.push(started.elapsed().as_secs_f64());
        if let Some((_, earlier)) = &prepared {
            if *earlier != reference {
                out.mismatch(format!(
                    "reference digest {reference} changed from {earlier}"
                ));
            }
        }
        prepared = Some((inputs, reference));
    }
    let (inputs, reference_digest) = prepared.expect("at least one set-up");
    let scenarios: usize = inputs.groups.iter().map(|g| g.cases.len()).sum();

    // Measurement: whole passes until the budget is spent (at least 3).
    let budget = Duration::from_secs_f64(opts.seconds);
    let mut passes = Vec::new();
    let started = Instant::now();
    let cpu_before = cpu_seconds(std::process::id());
    while passes.len() < 3 || started.elapsed() + passes_mean(&passes) <= budget {
        passes.push(bare_pass(&inputs)?);
        out.attempted += scenarios as u64;
    }
    let cpu = cpu_seconds(std::process::id())
        .zip(cpu_before)
        .map_or(0.0, |(after, before)| after - before);
    for (i, pass) in passes.iter().enumerate() {
        let d = digest(pass.reports.iter());
        if d != reference_digest {
            out.mismatch(format!(
                "pass {i} digest {d} differs from the direct serial reference {reference_digest}"
            ));
        }
    }
    if let Some(committed) = committed_digest(&opts.workload, opts.seed) {
        if committed != reference_digest {
            out.mismatch(format!(
                "reference digest {reference_digest} differs from the committed {committed}"
            ));
        }
    }
    out.notes.push(format!(
        "{} scenario(s) per pass, {} pass(es), digest {reference_digest}",
        scenarios,
        passes.len()
    ));

    let throughput: Vec<f64> = passes
        .iter()
        .map(|p| p.reports.iter().map(rack_hours).sum::<f64>() / p.wall.as_secs_f64())
        .collect();

    if !opts.trace {
        out.set("setup_s", median(&setup));
        // The upper decile of passes: on a shared VM, CPU steal slows
        // passes at random, and the near-best pass is the figure that
        // repeats from run to run (the repeat-min of pass time).
        out.set("rack_hours_per_s", quantile(&throughput, 0.9));
        let total: f64 = passes
            .iter()
            .flat_map(|p| p.reports.iter())
            .map(rack_hours)
            .sum();
        out.set(
            "rack_hours_per_cpu_s",
            if cpu > 0.0 { total / cpu } else { 0.0 },
        );
        out.set(
            "peak_rss_mb",
            peak_rss_mb(std::process::id()).unwrap_or(0.0),
        );
        return Ok(out);
    }

    // Traced run: the same inputs again, spans around every layer call.
    let bare_wall = median(
        &passes
            .iter()
            .map(|p| p.wall.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    traced(opts, &reference_digest, bare_wall, &mut out)?;
    Ok(out)
}

fn passes_mean(passes: &[Pass]) -> Duration {
    if passes.is_empty() {
        return Duration::ZERO;
    }
    passes.iter().map(|p| p.wall).sum::<Duration>() / passes.len() as u32
}

/// What one traced scenario returns to the sweep runner.
struct TracedScenario {
    report: SurvivalReport,
    profile: SimProfile,
    spans: Recorder,
    lane: std::thread::ThreadId,
}

fn traced(opts: &Opts, bare_digest: &str, bare_wall: f64, out: &mut Outcome) -> Result<(), String> {
    let mut trace = Trace::new();
    let origin = trace.origin();
    let wall_started = Instant::now();

    // Synthesis, on the main lane.
    let synth_started = Instant::now();
    let mut main_rec = Recorder::new(origin);
    let inputs = inputs(&opts.workload, opts.seed, Some(&mut main_rec));
    let main_lane = trace.add_lane(synth_started.elapsed());
    trace.absorb(main_lane, main_rec);

    let mut reports = Vec::new();
    let mut profile = SimProfile::default();
    let mut sweep_busy = 0.0;
    let mut queue_wait = 0.0;
    let mut capacity = 0.0;
    let mut builds = 0u64;
    let mut sweep_walls = 0.0;
    for group in &inputs.groups {
        let runner = SweepRunner::new(inputs.jobs);
        let trace_arc = &group.trace;
        let sweep_seed = group.sweep_seed;
        let (metered, sweep_profile): (_, SweepProfile) =
            runner.run_metered_profiled(group.cases.clone(), |index, case| {
                let result = traced_scenario(trace_arc, sweep_seed, index, &case, origin);
                let steps = result.as_ref().map_or(0, |t| t.profile.steps);
                (result, steps)
            });
        // One lane per worker thread, live for the sweep's wall clock.
        let mut lanes: Vec<(std::thread::ThreadId, usize)> = Vec::new();
        for m in metered {
            queue_wait += m.cost.queue_wait.as_secs_f64();
            let t = m.value?;
            builds += 1;
            let lane = match lanes.iter().find(|(id, _)| *id == t.lane) {
                Some(&(_, lane)) => lane,
                None => {
                    let lane = trace.add_lane(sweep_profile.wall_clock);
                    lanes.push((t.lane, lane));
                    lane
                }
            };
            trace.absorb(lane, t.spans);
            profile.merge(&t.profile);
            reports.push(t.report);
        }
        // Workers that ran nothing still idled for the whole sweep.
        for _ in lanes.len()..sweep_profile.workers.len() {
            trace.add_lane(sweep_profile.wall_clock);
        }
        sweep_busy += sweep_profile.total_busy().as_secs_f64();
        capacity += sweep_profile.wall_clock.as_secs_f64() * sweep_profile.workers.len() as f64;
        sweep_walls += sweep_profile.wall_clock.as_secs_f64();
    }
    let traced_wall = wall_started.elapsed().as_secs_f64();

    let traced_digest = digest(reports.iter());
    if traced_digest != bare_digest {
        out.mismatch(format!(
            "traced digest {traced_digest} differs from the untraced digest {bare_digest}"
        ));
    }
    out.attempted += reports.len() as u64;

    let acc = trace.account();
    let glue = acc.self_of("scenario");
    let layer_sum = acc.self_s.values().sum::<f64>() - glue;
    if (acc.accounted_s() - acc.wall_s).abs() > 1e-6 * acc.wall_s.max(1.0) {
        out.mismatch(format!(
            "traced self times {:.6}s do not add up to the traced wall {:.6}s",
            acc.accounted_s(),
            acc.wall_s
        ));
    }
    std::fs::write(opts.spans_path(), trace.to_jsonl())
        .map_err(|e| format!("writing spans: {e}"))?;

    out.set("workload.synth_s", acc.self_of("workload.synth"));
    out.set("sim.build_s", acc.self_of("sim.build"));
    out.set("sim.builds", builds as f64);
    let size_calls = acc.calls_of("battery.size").max(1) as f64;
    out.set(
        "battery.size_us",
        acc.total_of("battery.size") / size_calls * 1e6,
    );
    out.set("sim.step_s", acc.total_of("sim.step"));
    out.set("sim.steps", profile.steps as f64);
    out.set("sim.rack_steps", profile.steps as f64 * RACKS as f64);
    for phase in StepPhase::ALL {
        out.set(phase_metric(phase), acc.self_of(phase_metric(phase)));
    }
    out.set("sim.step.unlapped_s", acc.self_of("sim.step"));
    out.set("sim.scenario_glue_s", glue);
    out.set("sweep.busy_s", sweep_busy);
    out.set("sweep.queue_wait_s", queue_wait);
    out.set(
        "sweep.utilization",
        if capacity > 0.0 {
            sweep_busy / capacity
        } else {
            0.0
        },
    );
    out.set(
        "sim.overloads",
        reports.iter().map(|r| r.overloads.len()).sum::<usize>() as f64,
    );
    out.set(
        "sim.breaker_trips",
        reports.iter().map(|r| r.breaker_trips).sum::<u32>() as f64,
    );
    out.set(
        "sim.survival_s_sum",
        reports
            .iter()
            .map(|r| r.survival_or_horizon().as_secs_f64())
            .sum(),
    );
    out.set("trace.wall_s", acc.wall_s);
    out.set("trace.layer_self_sum_s", layer_sum);
    out.set("trace.unattributed_s", glue + acc.idle_s);
    out.set("trace.overhead_s", sweep_walls - bare_wall);
    out.set(
        "trace.overhead_ratio",
        if bare_wall > 0.0 {
            sweep_walls / bare_wall
        } else {
            0.0
        },
    );
    out.notes.push(format!(
        "traced pass {traced_wall:.3}s (sweeps {sweep_walls:.3}s vs untraced pass {bare_wall:.3}s); \
         profiler coverage {:.1}%",
        profile.coverage() * 100.0
    ));
    Ok(())
}

/// `pad::sweep`'s per-scenario work, spelled out through public calls
/// with a span around each layer.
fn traced_scenario(
    trace: &Arc<ClusterTrace>,
    sweep_seed: u64,
    index: usize,
    case: &SurvivalCase,
    origin: Instant,
) -> Result<TracedScenario, String> {
    let mut rec = Recorder::new(origin);
    let owner = index as u64;
    rec.enter("scenario", owner);
    let built = rec.time("sim.build", owner, || {
        ClusterSim::new_shared(case.config.clone(), Arc::clone(trace))
    });
    let mut sim = match built {
        Ok(sim) => sim,
        Err(e) => {
            rec.exit();
            return Err(format!("scenario {index}: {e}"));
        }
    };
    // One cabinet sized exactly as construction sizes each rack's.
    let config = &case.config;
    let cabinet = rec.time("battery.size", owner, || {
        BatteryCabinet::with_autonomy(
            config.rack_nameplate(),
            config.battery_autonomy,
            config.charge_policy,
        )
    });
    std::hint::black_box(cabinet);
    sim.reseed_noise(scenario_noise_seed(sweep_seed, index));
    install_attack(&mut sim, case);
    sim.enable_profiling();
    rec.enter("sim.step", owner);
    let report = sim.run(case.horizon, case.dt, case.stop_on_overload);
    let profile = sim.take_profile().expect("profiling was enabled");
    for phase in StepPhase::ALL {
        let lapped = profile
            .phases
            .get(phase.name())
            .map_or(Duration::ZERO, |p| p.total);
        let calls = profile.phases.get(phase.name()).map_or(0, |p| p.calls);
        rec.child(phase_metric(phase), owner, lapped, calls);
    }
    rec.exit();
    rec.exit();
    Ok(TracedScenario {
        report,
        profile,
        spans: rec,
        lane: std::thread::current().id(),
    })
}

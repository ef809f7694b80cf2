//! Benchmarks of the fault-injection path: the same simulation slice
//! run with no injector installed (baseline), with an injector armed on
//! a plan whose windows never open (the "deployed but quiet" path), and
//! with sensor + control-path faults actively firing. The acceptance
//! target is that the armed-idle path stays within a few percent of
//! baseline — carrying the injector must not tax the simulator's hot
//! loop while no fault window is open. A paired measurement at the end
//! enforces the bound.

use criterion::{criterion_group, criterion_main, Criterion};
use pad::fault::DegradedConfig;
use pad::sim::ClusterSim;
use pad_bench::{run_slice, slice_sim};
use simkit::fault::{FaultKind, FaultPlan, FaultSpec, FaultTarget};
use simkit::time::SimTime;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// A plan whose only window opens far past the benchmark slice: the
/// injector is armed and scanned every step, but nothing ever fires.
fn idle_plan() -> FaultPlan {
    FaultPlan::new("bench-idle").with(FaultSpec::new(
        FaultKind::SensorNoise { std: 0.05 },
        FaultTarget::All,
        SimTime::from_hours(9),
        SimTime::from_hours(10),
    ))
}

/// Sensor and control-path faults live from the first step.
fn active_plan() -> FaultPlan {
    FaultPlan::new("bench-active")
        .with(FaultSpec::new(
            FaultKind::SensorNoise { std: 0.05 },
            FaultTarget::All,
            SimTime::ZERO,
            SimTime::from_hours(10),
        ))
        .with(FaultSpec::new(
            FaultKind::MsgLoss { p: 0.3 },
            FaultTarget::All,
            SimTime::ZERO,
            SimTime::from_hours(10),
        ))
}

fn armed(base: &ClusterSim, plan: FaultPlan) -> ClusterSim {
    let mut sim = base.clone();
    sim.enable_faults(
        plan,
        DegradedConfig::for_grant_interval(sim.config().grant_interval),
        7,
    )
    .expect("bench plan is valid");
    sim
}

fn bench_fault(c: &mut Criterion) {
    let base = slice_sim();
    let idle_sim = armed(&base, idle_plan());
    let active_sim = armed(&base, active_plan());
    let mut group = c.benchmark_group("fault_sim_50_steps");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.bench_function("baseline", |b| {
        b.iter(|| black_box(run_slice(base.clone())))
    });
    group.bench_function("armed_idle", |b| {
        b.iter(|| black_box(run_slice(idle_sim.clone())))
    });
    group.bench_function("armed_active", |b| {
        b.iter(|| black_box(run_slice(active_sim.clone())))
    });
    group.finish();
}

/// Paired overhead check: interleave baseline and armed-idle rounds and
/// compare the best round of each (min-of-rounds is robust to scheduler
/// noise). The armed-but-quiet injector must cost at most 5% — this is
/// the bound the CI fault-suite step greps for.
fn check_idle_overhead(_c: &mut Criterion) {
    let base = slice_sim();
    let idle_sim = armed(&base, idle_plan());
    // Warm both paths before timing.
    black_box(run_slice(base.clone()));
    black_box(run_slice(idle_sim.clone()));
    let mut best_base = Duration::MAX;
    let mut best_idle = Duration::MAX;
    for _ in 0..15 {
        let t = Instant::now();
        black_box(run_slice(base.clone()));
        best_base = best_base.min(t.elapsed());
        let t = Instant::now();
        black_box(run_slice(idle_sim.clone()));
        best_idle = best_idle.min(t.elapsed());
    }
    let ratio = best_idle.as_secs_f64() / best_base.as_secs_f64();
    println!("fault_overhead_ratio: {ratio:.4} (armed-idle vs no injector, min of 15 rounds)");
    assert!(
        ratio <= 1.05,
        "armed-idle fault path is {:.1}% over baseline (budget 5%)",
        (ratio - 1.0) * 100.0
    );
}

criterion_group!(benches, bench_fault, check_idle_overhead);
criterion_main!(benches);

//! Benchmarks of the self-profiling path: the same simulation slice run
//! with profiling off (baseline: the simulator owns no profiler) and with
//! live phase timing enabled. A paired measurement at the end prints the
//! live/baseline ratio so the cost of turning the profiler on stays
//! visible; the off path is the baseline itself, which the CI perf gate
//! measures.

use criterion::{criterion_group, criterion_main, Criterion};
use pad::sim::ClusterSim;
use pad_bench::{run_slice, slice_sim};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// A clone with live phase timing enabled.
fn with_live_profiler(base: &ClusterSim) -> ClusterSim {
    let mut sim = base.clone();
    sim.enable_profiling();
    sim
}

fn bench_prof(c: &mut Criterion) {
    let base = slice_sim();
    let live_sim = with_live_profiler(&base);
    let mut group = c.benchmark_group("prof_sim_50_steps");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.bench_function("baseline", |b| {
        b.iter(|| black_box(run_slice(base.clone())))
    });
    group.bench_function("live_profiler", |b| {
        b.iter(|| black_box(run_slice(live_sim.clone())))
    });
    group.finish();
}

/// Paired cost report: interleave baseline and live-profiler rounds and
/// compare the best round of each (min-of-rounds is robust to scheduler
/// noise). The ratio is informational, not gated: timing a dozen phases
/// per step has a real (small) cost, and that cost is the profiler's job
/// to measure.
fn report_live_overhead(_c: &mut Criterion) {
    let base = slice_sim();
    let live_sim = with_live_profiler(&base);
    // Warm both paths before timing.
    black_box(run_slice(base.clone()));
    black_box(run_slice(live_sim.clone()));
    let mut best_base = Duration::MAX;
    let mut best_live = Duration::MAX;
    for _ in 0..15 {
        let t = Instant::now();
        black_box(run_slice(base.clone()));
        best_base = best_base.min(t.elapsed());
        let t = Instant::now();
        black_box(run_slice(live_sim.clone()));
        best_live = best_live.min(t.elapsed());
    }
    let live_ratio = best_live.as_secs_f64() / best_base.as_secs_f64();
    println!(
        "prof_live_ratio: {live_ratio:.4} (live phase timing vs no profiler, min of 15 rounds)"
    );
}

criterion_group!(benches, bench_prof, report_live_overhead);
criterion_main!(benches);

//! Benchmarks of span tracing: the same attacked simulation slice run
//! with tracing off (baseline: the simulator owns no tracer) and with a
//! live ring recorder, so the cost of tracing stays visible.

use attack::scenario::{AttackScenario, AttackStyle};
use attack::virus::VirusClass;
use criterion::{criterion_group, criterion_main, Criterion};
use pad::sim::ClusterSim;
use pad_bench::{run_slice, slice_sim};
use simkit::time::SimTime;
use std::hint::black_box;
use std::time::Duration;

fn built_sim() -> ClusterSim {
    let mut sim = slice_sim();
    // Attack the slice so the traced variant actually opens and closes
    // episode spans — an idle cluster would make the ring look free.
    let scenario = AttackScenario::new(AttackStyle::Dense, VirusClass::CpuIntensive, 2);
    sim.set_attack(scenario, sim.most_vulnerable_rack(), SimTime::ZERO);
    sim
}

fn bench_trace(c: &mut Criterion) {
    let base = built_sim();
    // Tracer installation is a one-time setup cost; build the traced
    // variant outside the timed loop so the iterations measure stepping
    // only.
    let ring_sim = {
        let mut sim = base.clone();
        sim.enable_tracing(1 << 16);
        sim
    };
    let mut group = c.benchmark_group("sim_50_steps");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.bench_function("trace_baseline", |b| {
        b.iter(|| black_box(run_slice(base.clone())))
    });
    group.bench_function("trace_ring_sink", |b| {
        b.iter(|| black_box(run_slice(ring_sim.clone())))
    });
    group.finish();
}

criterion_group!(benches, bench_trace);
criterion_main!(benches);

//! Benchmarks of telemetry recording: the same simulation slice run with
//! telemetry off (baseline: the simulator owns no recorder) and with a
//! live ring recorder, so the cost of recording stays visible.

use criterion::{criterion_group, criterion_main, Criterion};
use pad_bench::{run_slice, slice_sim};
use std::hint::black_box;
use std::time::Duration;

fn bench_telemetry(c: &mut Criterion) {
    let base = slice_sim();
    // Metric registration is a one-time setup cost; build the recording
    // variant outside the timed loop so the iterations measure stepping
    // only.
    let ring_sim = {
        let mut sim = base.clone();
        sim.enable_telemetry(1 << 16);
        sim
    };
    let mut group = c.benchmark_group("sim_50_steps");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.bench_function("baseline", |b| {
        b.iter(|| black_box(run_slice(base.clone())))
    });
    group.bench_function("ring_sink", |b| {
        b.iter(|| black_box(run_slice(ring_sim.clone())))
    });
    group.finish();
}

criterion_group!(benches, bench_telemetry);
criterion_main!(benches);

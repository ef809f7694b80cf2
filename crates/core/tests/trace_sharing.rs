//! The `Arc<ClusterTrace>` sharing contract: a sweep parses (or loads)
//! its trace exactly once, no matter how many scenarios run over it, and
//! malformed trace input surfaces as an error, never a panic.

use std::sync::{Arc, Mutex};

use pad::prelude::*;
use simkit::time::{SimDuration, SimTime};
use workload::trace::{trace_parse_count, ClusterTrace};

/// The parse counter is process-wide and both tests here parse traces,
/// so they run one at a time: otherwise the malformed-input test's
/// parses can land inside the sharing test's counting window.
static PARSE_COUNTER: Mutex<()> = Mutex::new(());

/// A tiny CSV covering the 16 machines of the `small_test` topology.
fn small_csv() -> String {
    let mut text = String::from("# start, end, machine, cpu_rate\n");
    for machine in 0..16 {
        text.push_str(&format!("0.0, 3600.0, {machine}, 0.4\n"));
        text.push_str(&format!("600.0, 1800.0, {machine}, 0.3\n"));
    }
    text
}

#[test]
fn sweep_parses_the_trace_exactly_once() {
    let _serial = PARSE_COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let trace = ClusterTrace::parse_csv(
        &small_csv(),
        16,
        SimDuration::from_secs(60),
        SimTime::from_hours(1),
    )
    .expect("well-formed CSV parses");
    let parses_before = trace_parse_count();

    // Eight scenarios over the one parsed trace...
    let cases: Vec<SurvivalCase> = (0..8)
        .map(|_| {
            SurvivalCase::quiet(
                SimConfig::small_test(Scheme::Pad),
                SimTime::from_mins(5),
                SimDuration::SECOND,
            )
        })
        .collect();
    let outcomes = ConfigSweep::new(Arc::new(trace), 7)
        .with_jobs(4)
        .run(cases)
        .expect("sweep runs");
    assert_eq!(outcomes.len(), 8);

    // ...must not have re-parsed anything: the Arc is shared, not cloned
    // from source.
    assert_eq!(
        trace_parse_count(),
        parses_before,
        "the sweep re-parsed the trace instead of sharing the Arc"
    );
}

#[test]
fn malformed_trace_rows_error_instead_of_panicking() {
    let _serial = PARSE_COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let step = SimDuration::from_secs(60);
    let horizon = SimTime::from_hours(1);

    // Wrong field count.
    let err = ClusterTrace::parse_csv("0.0, 3600.0, 0\n", 1, step, horizon)
        .expect_err("three fields must not parse");
    assert!(err.contains("line 1"), "{err}");

    // Non-numeric rate, with the line number pointing past the comment.
    let err = ClusterTrace::parse_csv("# header\n0.0, 3600.0, 0, lots\n", 1, step, horizon)
        .expect_err("bad rate must not parse");
    assert!(err.contains("line 2"), "{err}");

    // End before start.
    let err = ClusterTrace::parse_csv("10.0, 5.0, 0, 0.5\n", 1, step, horizon)
        .expect_err("inverted interval must not parse");
    assert!(err.contains("line 1"), "{err}");

    // Rate out of range.
    let err = ClusterTrace::parse_csv("0.0, 60.0, 0, 1.5\n", 1, step, horizon)
        .expect_err("rate above 1 must not parse");
    assert!(err.contains("line 1"), "{err}");
}

//! `perfbench` — the repository's benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --padsimd <path-to-padsimd> --work-dir <dir>
//! ```
//!
//! Runs one seeded workload for about `--seconds`, checks every output
//! against an independent reference, prints a human-readable table of
//! every metric on stderr, and prints one JSON result object as the
//! last line of stdout. With `--trace 0` the object carries the
//! end-to-end metrics (measured with every span and profiler off);
//! with `--trace 1` it carries the per-layer metrics of a traced run.
//! Exits 1 when any output differs from its reference.
//!
//! Workloads: `sim-long`, `sim-sweep` (the simulator, in process) and
//! `daemon-stream`, `daemon-durable` (a `padsimd serve` subprocess fed
//! over loopback TCP). See `perfbench/README.md`.

mod daemon;
mod sim;
mod spans;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics: every workload reports every one.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rack_hours_per_s", "rack-h/s"),
    ("rack_hours_per_cpu_s", "rack-h/cpu-s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run. A workload that never enters a
/// layer reports it as 0 — the layer's predicted "no change" there.
const PER_LAYER: &[(&str, &str)] = &[
    ("workload.synth_s", "s"),
    ("sim.build_s", "s"),
    ("sim.builds", "count"),
    ("battery.size_us", "us"),
    ("sim.step_s", "s"),
    ("sim.steps", "count"),
    ("sim.rack_steps", "count"),
    ("sim.step.faults_s", "s"),
    ("sim.step.trace_attack_s", "s"),
    ("sim.step.capping_s", "s"),
    ("sim.step.demand_s", "s"),
    ("sim.step.vdeb_s", "s"),
    ("sim.step.battery_s", "s"),
    ("sim.step.breaker_s", "s"),
    ("sim.step.policy_s", "s"),
    ("sim.step.telemetry_s", "s"),
    ("sim.step.clock_s", "s"),
    ("sim.step.unlapped_s", "s"),
    ("sim.scenario_glue_s", "s"),
    ("sweep.busy_s", "s"),
    ("sweep.queue_wait_s", "s"),
    ("sweep.utilization", "ratio"),
    ("sim.overloads", "count"),
    ("sim.breaker_trips", "count"),
    ("sim.survival_s_sum", "s"),
    ("proto.classify_s", "s"),
    ("proto.lines", "count"),
    ("codec.parse_s", "s"),
    ("codec.records", "count"),
    ("codec.spans", "count"),
    ("codec.errors", "count"),
    ("pipeline.ingest_s", "s"),
    ("pipeline.ticks", "count"),
    ("monitor.observe_s", "s"),
    ("state.ingest_s", "s"),
    ("state.ingest_self_s", "s"),
    ("state.open_s", "s"),
    ("state.journal_s", "s"),
    ("state.journal_frames", "count"),
    ("state.journal_bytes", "bytes"),
    ("state.base_writes", "count"),
    ("state.restore_s", "s"),
    ("session.reply_s", "s"),
    ("session.glue_s", "s"),
    ("http.metrics_ms.p50", "ms"),
    ("http.metrics_ms.p99", "ms"),
    ("http.incidents_ms.p50", "ms"),
    ("http.incidents_ms.p99", "ms"),
    ("http.requests", "count"),
    ("server.accept_ms", "ms"),
    ("gen.lag_ms.p99.r100k", "ms"),
    ("gen.lag_ms.p99.r250k", "ms"),
    ("gen.lag_ms.p99.r500k", "ms"),
    ("gen.lag_ms.p99.r1m", "ms"),
    ("gen.backlog_slope.r100k", "ms/s"),
    ("gen.backlog_slope.r250k", "ms/s"),
    ("gen.backlog_slope.r500k", "ms/s"),
    ("gen.backlog_slope.r1m", "ms/s"),
    ("daemon.events_per_s", "1/s"),
    ("daemon.events_per_s.scraped", "1/s"),
    ("daemon.sustained_events_per_s", "1/s"),
    ("daemon.p50_ms.r100k", "ms"),
    ("daemon.p99_ms.r100k", "ms"),
    ("daemon.p50_ms.r250k", "ms"),
    ("daemon.p99_ms.r250k", "ms"),
    ("daemon.recovery_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.layer_self_sum_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: &[&str] = &["sim-long", "sim-sweep", "daemon-stream", "daemon-durable"];

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed: every generated input derives from it.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Run the traced (per-layer) variant.
    pub trace: bool,
    /// The `padsimd` executable under test.
    pub padsimd: PathBuf,
    /// Scratch directory for daemon state and span dumps.
    pub work_dir: PathBuf,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (scenarios, lines, probes, requests).
    pub attempted: u64,
    /// Operations that failed or whose output mismatched its reference.
    pub failed: u64,
    /// Human-readable descriptions of every mismatch.
    pub mismatches: Vec<String>,
    /// Metric values by name; end-to-end or per-layer per the run mode.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Extra lines for the stderr report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a mismatch (counts as one failed operation).
    pub fn mismatch(&mut self, what: String) {
        self.failed += 1;
        self.mismatches.push(what);
    }

    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

impl Opts {
    /// Where a traced run writes its spans (kept after the run).
    pub fn spans_path(&self) -> PathBuf {
        self.work_dir
            .join(format!("{}-seed{}.spans.jsonl", self.workload, self.seed))
    }
}

fn parse_opts() -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut padsimd = None;
    let mut work_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} requires a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed expects an integer")?),
            "--seconds" => seconds = value()?.parse().map_err(|_| "--seconds expects a number")?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".to_string()),
                }
            }
            "--padsimd" => padsimd = Some(PathBuf::from(value()?)),
            "--work-dir" => work_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_string());
    }
    Ok(Opts {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        padsimd: padsimd.ok_or("--padsimd is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

fn main() -> ExitCode {
    let opts = match parse_opts() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run_dir = opts.work_dir.join(format!(
        "{}-{}-{}",
        opts.workload,
        opts.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: cannot create {}: {e}", run_dir.display());
        return ExitCode::from(2);
    }
    let result = match opts.workload.as_str() {
        "sim-long" | "sim-sweep" => sim::run(&opts),
        _ => daemon::run(&opts, &run_dir),
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", opts.workload);
            return ExitCode::from(2);
        }
    };

    let table = if opts.trace { PER_LAYER } else { END_TO_END };
    eprintln!(
        "perfbench {} seed {} ({} run, {} s budget)",
        opts.workload,
        opts.seed,
        if opts.trace { "traced" } else { "untraced" },
        opts.seconds
    );
    for note in &outcome.notes {
        eprintln!("  {note}");
    }
    for (name, unit) in table {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        eprintln!("  {name:<32} {value:>16.6} {unit}");
    }
    for m in &outcome.mismatches {
        eprintln!("  MISMATCH: {m}");
    }
    let correct = outcome.mismatches.is_empty() && outcome.failed == 0;
    let mut metrics = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is not finite");
            return ExitCode::from(2);
        }
        if i > 0 {
            metrics.push(',');
        }
        metrics.push_str(&format!(
            "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

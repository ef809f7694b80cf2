//! The daemon workloads: a `padsimd serve` subprocess fed a recorded
//! attacked 22-rack PAD stream over loopback TCP.
//!
//! * `daemon-stream` — no state directory, no HTTP traffic. Closed-loop
//!   sessions, then an open-loop ladder of fixed event rates with
//!   `ping` probes stamped with their due time.
//! * `daemon-durable` — the same with `serve --state-dir`, a second
//!   connection scraping `/metrics` and `/tenants/<id>/incidents` at a
//!   fixed rate during closed-loop ingest, connection-accept probes,
//!   and SIGKILL → restart → `resume` cycles.
//!
//! The load comes from this process with at most two threads and two
//! connections open at once. Every `end` reply is compared byte for
//! byte with `pad::pipeline::replay_records(..).to_json()` over the
//! same lines, and the incident document with `reconstruct_json`.
//!
//! The traced run replays the same sessions in process, in the
//! session's own order, timing each layer's public call.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use pad::pipeline::{
    reconstruct_json, replay_records, try_infer_racks, PipelineConfig, ReplayPipeline,
    StreamMonitor,
};
use pad::policy::SecurityLevel;
use pad::schemes::Scheme;
use pad::sim::ClusterSim;
use paddaemon::client::http_get;
use paddaemon::proto::{classify, Control, Line};
use paddaemon::state::{Counters, DaemonState, Tenant};
use simkit::telemetry::{parse, parse_line, Format, ParsedRecord};
use simkit::time::{SimDuration, SimTime};
use simkit::trace::{parse_span_line, parse_spans};
use workload::synth::SynthConfig;

use crate::sim::{cluster_config, RACKS, SERVERS};
use crate::spans::{Recorder, Tally, Trace};
use crate::util::{cpu_seconds, median, ms, peak_rss_mb, quantile, slope};
use crate::{Opts, Outcome};

/// Warm-up before the attack (1 s steps, not recorded).
const STREAM_ATTACK_AT_S: u64 = 120;
/// Recorded window after the attack starts (100 ms steps).
const STREAM_SECS: u64 = 60;
const TENANT: &str = "bench";
/// The open-loop ladder: events per second, label, and the rung's
/// generator-lateness and backlog-trend metric names.
const RATES: [(f64, &str, &str, &str); 4] = [
    (
        100_000.0,
        "r100k",
        "gen.lag_ms.p99.r100k",
        "gen.backlog_slope.r100k",
    ),
    (
        250_000.0,
        "r250k",
        "gen.lag_ms.p99.r250k",
        "gen.backlog_slope.r250k",
    ),
    (
        500_000.0,
        "r500k",
        "gen.lag_ms.p99.r500k",
        "gen.backlog_slope.r500k",
    ),
    (
        1_000_000.0,
        "r1m",
        "gen.lag_ms.p99.r1m",
        "gen.backlog_slope.r1m",
    ),
];
/// Probe spacing in the open loop.
const PING_EVERY: Duration = Duration::from_millis(1);
/// A rate is sustained only while probe p99 stays within one telemetry
/// tick at dt = 100 ms ...
const LATENCY_LIMIT_MS: f64 = 100.0;
/// ... the generator stayed within a quarter tick of its schedule ...
const LAG_LIMIT_MS: f64 = 25.0;
/// ... and probe latency did not trend upward across the segment.
const SLOPE_LIMIT_MS_PER_S: f64 = 20.0;
/// Largest batch of due lines written at once by the generator.
const MAX_BATCH: usize = 2048;
/// HTTP scrape spacing during closed-loop ingest (`daemon-durable`).
const SCRAPE_EVERY: Duration = Duration::from_millis(25);
const KILL_CYCLES: usize = 2;
const ACCEPT_PROBES: usize = 20;
const SETUP_REPS: usize = 5;
/// Sessions replayed in process by the traced run.
const TRACE_SESSIONS: usize = 3;
/// Share of the budget for the closed loop; each ladder rung gets
/// `RUNG_SHARE`. The closed loop gets the most: its median over
/// sessions is the bounded end-to-end figure.
const CLOSED_SHARE: f64 = 0.6;
const RUNG_SHARE: f64 = 0.075;
/// `daemon-durable`: share of the budget for ingest under HTTP scrapes.
const SCRAPED_SHARE: f64 = 0.1;

/// The recorded stream and its offline references.
struct Stream {
    /// Data lines: telemetry, then spans, as `padsimd send` orders them.
    lines: Vec<String>,
    /// One whole session on the wire: hello, lines, end.
    session: Vec<u8>,
    /// Simulated rack-hours the stream covers.
    rack_hours: f64,
    /// `replay_records(..).to_json()` over the stream's records.
    summary: String,
    /// `reconstruct_json` over the stream's spans and records.
    incidents: String,
}

/// Records the attacked PAD stream for `seed` the way `padsim
/// --telemetry --trace` does, and computes the offline references.
fn record_stream(seed: u64) -> Result<Stream, String> {
    let attack_at = SimTime::from_secs(STREAM_ATTACK_AT_S);
    let horizon = attack_at + SimDuration::from_secs(STREAM_SECS);
    let trace = SynthConfig {
        machines: RACKS * SERVERS,
        horizon: horizon + SimDuration::from_mins(10),
        mean_utilization: 0.31,
        machine_bias_std: 0.04,
        ..SynthConfig::google_may2010()
    }
    .generate_direct(seed);
    let mut sim = ClusterSim::new(cluster_config(Scheme::Pad), trace)?;
    sim.reseed_noise(seed ^ 0x5EED);
    sim.run(attack_at, SimDuration::SECOND, false);
    sim.enable_telemetry(1_000_000);
    sim.enable_tracing(100_000);
    let victim = sim.most_vulnerable_rack();
    sim.set_attack(
        attack::scenario::AttackScenario::new(
            attack::scenario::AttackStyle::Dense,
            attack::virus::VirusClass::CpuIntensive,
            4,
        ),
        victim,
        attack_at,
    );
    sim.run(horizon, SimDuration::from_millis(100), false);
    let telemetry = sim
        .take_telemetry()
        .ok_or("telemetry was not recorded")?
        .serialize(Format::Jsonl);
    let spans_text = sim
        .take_trace()
        .ok_or("spans were not recorded")?
        .serialize(Format::Jsonl);
    let records = parse(&telemetry, Format::Jsonl).map_err(|e| e.to_string())?;
    let spans = parse_spans(&spans_text, Format::Jsonl).map_err(|e| e.to_string())?;
    let racks = try_infer_racks(&records).unwrap_or(1);
    let summary = replay_records(racks, PipelineConfig::default(), &records).to_json();
    let incidents = reconstruct_json(&spans, &records);
    let lines: Vec<String> = telemetry
        .lines()
        .chain(spans_text.lines())
        .map(str::to_string)
        .collect();
    let mut session = format!("hello {TENANT}\n").into_bytes();
    session.extend_from_slice(&wire_lines(&lines));
    session.extend_from_slice(b"end\n");
    Ok(Stream {
        lines,
        session,
        rack_hours: racks as f64 * STREAM_SECS as f64 / 3600.0,
        summary,
        incidents,
    })
}

/// `lines`, each newline-terminated, as wire bytes.
fn wire_lines(lines: &[String]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
    for line in lines {
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
    }
    buf
}

/// A `padsimd serve` subprocess, killed and reaped on drop.
struct Daemon {
    child: Child,
    data: String,
    http: String,
}

impl Daemon {
    /// Spawns the daemon and waits for its ports file.
    fn spawn(bin: &Path, dir: &Path, state_dir: Option<&Path>) -> Result<Daemon, String> {
        let ports = dir.join("ports.txt");
        let _ = std::fs::remove_file(&ports);
        let mut cmd = Command::new(bin);
        cmd.arg("serve")
            .args(["--listen", "127.0.0.1:0", "--http", "127.0.0.1:0"])
            .arg("--ports-file")
            .arg(&ports)
            .arg("--out")
            .arg(dir.join("flush"))
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if let Some(state) = state_dir {
            cmd.arg("--state-dir").arg(state);
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child,
            data: String::new(),
            http: String::new(),
        };
        let started = Instant::now();
        loop {
            if let Ok(text) = std::fs::read_to_string(&ports) {
                let find = |key: &str| {
                    text.lines()
                        .find_map(|l| l.strip_prefix(key))
                        .map(str::to_string)
                };
                if let (Some(data), Some(http)) = (find("data "), find("http ")) {
                    daemon.data = data;
                    daemon.http = http;
                    return Ok(daemon);
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("padsimd exited during start-up: {status}"));
            }
            if started.elapsed() > Duration::from_secs(30) {
                return Err("padsimd did not write its ports file within 30 s".to_string());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// Polls `/readyz` until it answers 200.
    fn wait_ready(&self) -> Result<(), String> {
        let started = Instant::now();
        loop {
            if let Ok((status, _)) = http_get(&self.http, "/readyz") {
                if status.contains(" 200") {
                    return Ok(());
                }
            }
            if started.elapsed() > Duration::from_secs(30) {
                return Err("padsimd never became ready".to_string());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGKILL, then reap.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Graceful `shutdown`, then reap.
    fn shutdown(mut self) -> Result<(), String> {
        let mut conn = connect(&self.data)?;
        conn.write_all(b"shutdown\n").map_err(io_err)?;
        let mut reply = String::new();
        BufReader::new(&mut conn)
            .read_line(&mut reply)
            .map_err(io_err)?;
        drop(conn);
        let started = Instant::now();
        while started.elapsed() < Duration::from_secs(30) {
            if let Ok(Some(status)) = self.child.try_wait() {
                return if status.success() && reply == "ok shutdown\n" {
                    Ok(())
                } else {
                    Err(format!("shutdown replied {reply:?}, exit {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err("padsimd did not exit after shutdown".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.kill();
        }
    }
}

fn io_err(e: std::io::Error) -> String {
    e.to_string()
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    let conn = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    conn.set_nodelay(true).map_err(io_err)?;
    Ok(conn)
}

fn read_line(reader: &mut impl BufRead) -> Result<String, String> {
    let mut line = String::new();
    let n = reader.read_line(&mut line).map_err(io_err)?;
    if n == 0 {
        return Err("daemon closed the connection".to_string());
    }
    Ok(line)
}

/// Daemon-side numbers the socket run measured.
#[derive(Default)]
struct Socket {
    session_rack_hours: Vec<f64>,
    scraped_rack_hours: Vec<f64>,
    scrapes: Scrapes,
    accept_ms: Vec<f64>,
    recovery_s: Vec<f64>,
    rungs: Vec<Rung>,
    peak_rss_mb: f64,
}

/// One open-loop rate's results.
struct Rung {
    label: &'static str,
    rate: f64,
    latency_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    slope: f64,
    failed: u64,
}

impl Rung {
    fn sustained(&self) -> bool {
        self.failed == 0
            && !self.latency_ms.is_empty()
            && quantile(&self.latency_ms, 0.99) <= LATENCY_LIMIT_MS
            && quantile(&self.lag_ms, 0.99) <= LAG_LIMIT_MS
            && self.slope <= SLOPE_LIMIT_MS_PER_S
    }
}

/// Runs a daemon workload.
pub fn run(opts: &Opts, run_dir: &Path) -> Result<Outcome, String> {
    let durable = opts.workload == "daemon-durable";
    let mut out = Outcome::default();
    let state_dir = run_dir.join("state");

    // Set-up: stream recording, offline references, daemon start until
    // ready. Repeated; the last daemon stays up for the measurement.
    let mut setup = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let _ = std::fs::remove_dir_all(&state_dir);
        let started = Instant::now();
        let stream = record_stream(opts.seed)?;
        let daemon = Daemon::spawn(
            &opts.padsimd,
            run_dir,
            durable.then_some(state_dir.as_path()),
        )?;
        daemon.wait_ready()?;
        setup.push(started.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            daemon.shutdown()?;
        } else {
            kept = Some((stream, daemon));
        }
    }
    let (stream, mut daemon) = kept.expect("at least one set-up");
    out.notes
        .push(format!("set-up repetitions (s): {setup:.3?}"));
    out.notes.push(format!(
        "stream: {} data lines, {:.4} rack-hours per session",
        stream.lines.len(),
        stream.rack_hours
    ));

    // Closed loop, then the ladder, on one data connection: one daemon
    // session thread serves the whole measurement.
    let mut sock = Socket::default();
    let mut wire = Wire::connect(&daemon.data)?;
    let closed = Duration::from_secs_f64(opts.seconds * CLOSED_SHARE);
    let cpu_before = cpu_seconds(daemon.pid());
    sock.session_rack_hours = closed_loop(&stream, &mut wire, closed, None, &mut out)?.0;
    let cpu = cpu_seconds(daemon.pid())
        .zip(cpu_before)
        .map_or(0.0, |(after, before)| after - before);
    let per_cpu = if cpu > 0.0 {
        stream.rack_hours * sock.session_rack_hours.len() as f64 / cpu
    } else {
        0.0
    };
    for &(rate, label, _, _) in &RATES {
        let rung = open_loop(opts, &stream, &mut wire, rate, label, &mut out)?;
        sock.rungs.push(rung);
    }
    sock.peak_rss_mb = peak_rss_mb(daemon.pid()).unwrap_or(0.0);
    if durable {
        // Ingest again while a second connection scrapes: readers and
        // the writer contend for the same tenant and ops locks.
        let scraped = Duration::from_secs_f64(opts.seconds * SCRAPED_SHARE);
        (sock.scraped_rack_hours, sock.scrapes) =
            closed_loop(&stream, &mut wire, scraped, Some(&daemon.http), &mut out)?;
        drop(wire);
        daemon = kill_cycles(
            opts, &stream, daemon, run_dir, &state_dir, &mut sock, &mut out,
        )?;
        accept_probes(&daemon, &mut sock, &mut out)?;
    } else {
        drop(wire);
    }
    final_checks(&stream, &daemon, &mut out)?;
    daemon.shutdown()?;

    out.notes.push(format!(
        "closed-loop sessions: min {:.3}, median {:.3}, max {:.3} rack-h/s",
        quantile(&sock.session_rack_hours, 0.0),
        median(&sock.session_rack_hours),
        quantile(&sock.session_rack_hours, 1.0)
    ));
    for rung in &sock.rungs {
        out.notes.push(format!(
            "{:>5}: p50 {:.3} ms, p99 {:.3} ms, gen lag p99 {:.3} ms, slope {:.2} ms/s, \
             {} probe(s) -> {}",
            rung.label,
            quantile(&rung.latency_ms, 0.5),
            quantile(&rung.latency_ms, 0.99),
            quantile(&rung.lag_ms, 0.99),
            rung.slope,
            rung.latency_ms.len(),
            if rung.sustained() {
                "sustained"
            } else {
                "not sustained"
            }
        ));
    }
    let sustained = sock
        .rungs
        .iter()
        .filter(|r| r.sustained())
        .map(|r| r.rate)
        .fold(0.0, f64::max);
    let rung = |label: &str| sock.rungs.iter().find(|r| r.label == label);
    let p99_at = |label: &str| rung(label).map_or(0.0, |r| quantile(&r.latency_ms, 0.99));
    let p50_at = |label: &str| rung(label).map_or(0.0, |r| quantile(&r.latency_ms, 0.5));
    let rack_hours_per_s = median(&sock.session_rack_hours);
    let per_event = stream.lines.len() as f64 / stream.rack_hours;
    let events_per_s = rack_hours_per_s * per_event;
    out.notes.push(format!(
        "closed loop: {} session(s), {:.0} events/s ({:.0} while scraped); \
         sustained {:.0} events/s; recovery {:?} s",
        sock.session_rack_hours.len(),
        events_per_s,
        median(&sock.scraped_rack_hours) * per_event,
        sustained,
        sock.recovery_s
    ));

    if !opts.trace {
        out.set("setup_s", median(&setup));
        out.set("rack_hours_per_s", rack_hours_per_s);
        out.set("rack_hours_per_cpu_s", per_cpu);
        out.set("peak_rss_mb", sock.peak_rss_mb);
        return Ok(out);
    }

    out.set(
        "http.metrics_ms.p50",
        quantile(&sock.scrapes.metrics_ms, 0.5),
    );
    out.set(
        "http.metrics_ms.p99",
        quantile(&sock.scrapes.metrics_ms, 0.99),
    );
    out.set(
        "http.incidents_ms.p50",
        quantile(&sock.scrapes.incidents_ms, 0.5),
    );
    out.set(
        "http.incidents_ms.p99",
        quantile(&sock.scrapes.incidents_ms, 0.99),
    );
    out.set(
        "http.requests",
        (sock.scrapes.metrics_ms.len() + sock.scrapes.incidents_ms.len()) as f64,
    );
    out.set("server.accept_ms", median(&sock.accept_ms));
    for (r, &(_, _, lag, slope)) in sock.rungs.iter().zip(&RATES) {
        out.set(lag, quantile(&r.lag_ms, 0.99));
        out.set(slope, r.slope);
    }
    out.set("daemon.events_per_s", events_per_s);
    out.set(
        "daemon.events_per_s.scraped",
        median(&sock.scraped_rack_hours) * per_event,
    );
    out.set("daemon.sustained_events_per_s", sustained);
    out.set("daemon.p50_ms.r100k", p50_at("r100k"));
    out.set("daemon.p99_ms.r100k", p99_at("r100k"));
    out.set("daemon.p50_ms.r250k", p50_at("r250k"));
    out.set("daemon.p99_ms.r250k", p99_at("r250k"));
    out.set("daemon.recovery_s", median(&sock.recovery_s));
    traced(&stream, durable, run_dir, &opts.spans_path(), &mut out)?;
    Ok(out)
}

/// The measurement's data connection.
struct Wire {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Wire {
    fn connect(addr: &str) -> Result<Wire, String> {
        let writer = connect(addr)?;
        let reader = BufReader::new(writer.try_clone().map_err(io_err)?);
        Ok(Wire { writer, reader })
    }
}

/// Closed loop: whole sessions back to back, each timed from its
/// `hello` to the `end` reply, for `budget` (at least three sessions).
/// With `scrape`, a second thread GETs `/metrics` and the tenant's
/// incidents every [`SCRAPE_EVERY`] meanwhile. Returns each session's
/// rack-hours per second and the scrape latencies.
fn closed_loop(
    stream: &Stream,
    wire: &mut Wire,
    budget: Duration,
    scrape: Option<&str>,
    out: &mut Outcome,
) -> Result<(Vec<f64>, Scrapes), String> {
    let done = AtomicBool::new(false);
    let mut rates = Vec::new();
    let (ingest, scrapes) = std::thread::scope(|scope| {
        let scraper = scrape.map(|http| scope.spawn(|| scrape_loop(http, &done)));
        let ingest = (|| -> Result<(), String> {
            let started = Instant::now();
            while rates.len() < 3 || started.elapsed() < budget {
                let t0 = Instant::now();
                wire.writer.write_all(&stream.session).map_err(io_err)?;
                let hello = read_line(&mut wire.reader)?;
                let reply = read_line(&mut wire.reader)?;
                let took = t0.elapsed().as_secs_f64();
                out.attempted += stream.lines.len() as u64 + 2;
                if hello != format!("ok hello {TENANT}\n") {
                    out.mismatch(format!("closed-loop hello answered {hello:?}"));
                }
                if reply != stream.summary {
                    out.mismatch("closed-loop end reply differs from replay_records".to_string());
                }
                rates.push(stream.rack_hours / took);
            }
            Ok(())
        })();
        done.store(true, Ordering::Relaxed);
        (ingest, scraper.map(|h| h.join().expect("scraper thread")))
    });
    ingest?;
    let scrapes = scrapes.unwrap_or_default();
    out.attempted += (scrapes.metrics_ms.len() + scrapes.incidents_ms.len()) as u64;
    if scrapes.failed > 0 {
        out.attempted += scrapes.failed;
        out.mismatch(format!(
            "{} HTTP scrape(s) failed or answered non-2xx",
            scrapes.failed
        ));
    }
    Ok((rates, scrapes))
}

/// HTTP scrape latencies in milliseconds, by route.
#[derive(Default)]
struct Scrapes {
    metrics_ms: Vec<f64>,
    incidents_ms: Vec<f64>,
    failed: u64,
}

/// Alternating `/metrics` and incident GETs on a fixed schedule until
/// `done`.
fn scrape_loop(http: &str, done: &AtomicBool) -> Scrapes {
    let incidents = format!("/tenants/{TENANT}/incidents");
    let mut scrapes = Scrapes::default();
    let started = Instant::now();
    let mut k = 0u32;
    while !done.load(Ordering::Relaxed) {
        if let Some(wait) = (started + SCRAPE_EVERY * k).checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let metrics = k.is_multiple_of(2);
        let t0 = Instant::now();
        match http_get(http, if metrics { "/metrics" } else { &incidents }) {
            Ok((status, _)) if status.contains(" 200") => {
                let took = ms(t0.elapsed());
                if metrics {
                    scrapes.metrics_ms.push(took);
                } else {
                    scrapes.incidents_ms.push(took);
                }
            }
            _ => scrapes.failed += 1,
        }
        k += 1;
    }
    scrapes
}

/// What the reader expects next on the open-loop connection.
enum Expect {
    Hello,
    Pong { due: Instant, offset_s: f64 },
    End,
}

/// One open-loop rung: whole sessions at a fixed event rate, with a
/// `ping` due every [`PING_EVERY`] of schedule. The generator never
/// slows down for the daemon; each probe is timed from its due time.
fn open_loop(
    opts: &Opts,
    stream: &Stream,
    wire: &mut Wire,
    rate: f64,
    label: &'static str,
    out: &mut Outcome,
) -> Result<Rung, String> {
    let n = stream.lines.len();
    let sessions = ((rate * opts.seconds * RUNG_SHARE) / n as f64)
        .round()
        .max(1.0) as usize;
    let total = sessions * n;
    let Wire { writer, reader } = wire;
    let (tx, rx) = mpsc::channel::<Expect>();
    let hello = format!("hello {TENANT}\n");

    let failed_before = out.failed;
    let reader_out = &mut *out;
    let (reader_result, lag_ms) = std::thread::scope(|scope| {
        let reader = scope.spawn(move || -> Result<Vec<(f64, f64)>, String> {
            let out = reader_out;
            let mut probes = Vec::new();
            for expect in rx {
                let line = read_line(reader)?;
                let now = Instant::now();
                match expect {
                    Expect::Hello => {
                        if line != format!("ok hello {TENANT}\n") {
                            out.mismatch(format!("{label}: hello answered {line:?}"));
                        }
                    }
                    Expect::Pong { due, offset_s } => {
                        if line == "pong\n" {
                            probes.push((offset_s, ms(now.saturating_duration_since(due))));
                        } else {
                            out.mismatch(format!("{label}: ping answered {line:?}"));
                        }
                    }
                    Expect::End => {
                        if line != stream.summary {
                            out.mismatch(format!("{label}: end reply differs from replay_records"));
                        }
                    }
                }
            }
            Ok(probes)
        });

        let mut lag_ms = Vec::new();
        let write = (|| -> Result<(), String> {
            let mut buf: Vec<u8> = Vec::with_capacity(1 << 20);
            let t0 = Instant::now() + Duration::from_millis(2);
            let due = |i: usize| t0 + Duration::from_secs_f64(i as f64 / rate);
            let mut next_ping = 0u32;
            let mut pings_in_batch: Vec<Instant> = Vec::new();
            let mut i = 0usize;
            while i < total {
                let now = Instant::now();
                let elapsed = now.saturating_duration_since(t0).as_secs_f64();
                let due_upto = (((elapsed * rate).floor() as usize) + 1).min(total);
                if now < t0 || due_upto <= i {
                    let wait = due(i).saturating_duration_since(now);
                    std::thread::sleep(wait.min(Duration::from_micros(500)));
                    continue;
                }
                let end = due_upto.min(i + MAX_BATCH);
                buf.clear();
                pings_in_batch.clear();
                for j in i..end {
                    let s = j % n;
                    if s == 0 {
                        buf.extend_from_slice(hello.as_bytes());
                        tx.send(Expect::Hello).map_err(|e| e.to_string())?;
                    }
                    let due_j = due(j);
                    loop {
                        let ping_due = t0 + PING_EVERY * next_ping;
                        if ping_due > due_j {
                            break;
                        }
                        buf.extend_from_slice(b"ping\n");
                        tx.send(Expect::Pong {
                            due: ping_due,
                            offset_s: (PING_EVERY * next_ping).as_secs_f64(),
                        })
                        .map_err(|e| e.to_string())?;
                        pings_in_batch.push(ping_due);
                        next_ping += 1;
                    }
                    buf.extend_from_slice(stream.lines[s].as_bytes());
                    buf.push(b'\n');
                    if s == n - 1 {
                        buf.extend_from_slice(b"end\n");
                        tx.send(Expect::End).map_err(|e| e.to_string())?;
                    }
                }
                let write_at = Instant::now();
                for &p in &pings_in_batch {
                    lag_ms.push(ms(write_at.saturating_duration_since(p)));
                }
                writer.write_all(&buf).map_err(io_err)?;
                i = end;
            }
            Ok(())
        })();
        drop(tx);
        let read = reader.join().expect("reader thread");
        (write.and(read), lag_ms)
    });
    let probes = reader_result?;
    out.attempted += (total + 2 * sessions + probes.len()) as u64;
    let failed = out.failed - failed_before;
    let xs: Vec<f64> = probes.iter().map(|p| p.0).collect();
    let ys: Vec<f64> = probes.iter().map(|p| p.1).collect();
    Ok(Rung {
        label,
        rate,
        slope: slope(&xs, &ys),
        latency_ms: ys,
        lag_ms,
        failed,
    })
}

/// SIGKILL mid-session, restart on the same state directory, resume.
/// Each cycle's resumed `end` reply must equal the uninterrupted one.
fn kill_cycles(
    opts: &Opts,
    stream: &Stream,
    mut daemon: Daemon,
    run_dir: &Path,
    state_dir: &Path,
    sock: &mut Socket,
    out: &mut Outcome,
) -> Result<Daemon, String> {
    let half = stream.lines.len() / 2;
    for _ in 0..KILL_CYCLES {
        // Half a session, then a ping: its pong means every line before
        // it was ingested (and journaled at its tick boundary).
        let mut wire = Wire::connect(&daemon.data)?;
        let mut buf = format!("hello {TENANT}\n").into_bytes();
        buf.extend_from_slice(&wire_lines(&stream.lines[..half]));
        buf.extend_from_slice(b"ping\n");
        wire.writer.write_all(&buf).map_err(io_err)?;
        let hello = read_line(&mut wire.reader)?;
        let pong = read_line(&mut wire.reader)?;
        out.attempted += half as u64 + 2;
        if hello != format!("ok hello {TENANT}\n") || pong != "pong\n" {
            out.mismatch(format!("pre-kill session answered {hello:?} / {pong:?}"));
        }
        drop(wire);
        daemon.kill();
        let restarted = Instant::now();
        daemon = Daemon::spawn(&opts.padsimd, run_dir, Some(state_dir))?;
        let mut wire = Wire::connect(&daemon.data)?;
        wire.writer
            .write_all(format!("hello {TENANT} jsonl resume {half}\n").as_bytes())
            .map_err(io_err)?;
        let ack = read_line(&mut wire.reader)?;
        sock.recovery_s.push(restarted.elapsed().as_secs_f64());
        let seq = ack
            .strip_prefix(&format!("ok hello {TENANT} seq "))
            .and_then(|s| s.trim().parse::<usize>().ok());
        let Some(seq) = seq.filter(|&s| s <= half) else {
            out.mismatch(format!("resume answered {ack:?}"));
            continue;
        };
        let mut buf = wire_lines(&stream.lines[seq..]);
        buf.extend_from_slice(b"end\n");
        wire.writer.write_all(&buf).map_err(io_err)?;
        let reply = read_line(&mut wire.reader)?;
        out.attempted += (stream.lines.len() - seq) as u64 + 2;
        if reply != stream.summary {
            out.mismatch("resumed end reply differs from the uninterrupted one".to_string());
        }
    }
    Ok(daemon)
}

/// New connections timed from connect to the first reply.
fn accept_probes(daemon: &Daemon, sock: &mut Socket, out: &mut Outcome) -> Result<(), String> {
    for _ in 0..ACCEPT_PROBES {
        let t0 = Instant::now();
        let mut conn = connect(&daemon.data)?;
        conn.write_all(b"ping\n").map_err(io_err)?;
        let reply = read_line(&mut BufReader::new(&mut conn))?;
        sock.accept_ms.push(ms(t0.elapsed()));
        out.attempted += 1;
        if reply != "pong\n" {
            out.mismatch(format!("accept probe answered {reply:?}"));
        }
    }
    Ok(())
}

/// The finished tenant's incidents against `reconstruct_json`, and the
/// daemon's own shed and parse-error counters.
fn final_checks(stream: &Stream, daemon: &Daemon, out: &mut Outcome) -> Result<(), String> {
    let (status, body) =
        http_get(&daemon.http, &format!("/tenants/{TENANT}/incidents")).map_err(io_err)?;
    out.attempted += 1;
    if !status.contains(" 200") || body != stream.incidents {
        out.mismatch(format!(
            "/tenants/{TENANT}/incidents ({status}) differs from reconstruct_json"
        ));
    }
    let (_, statusz) = http_get(&daemon.http, "/statusz").map_err(io_err)?;
    for key in ["lines_shed", "parse_errors"] {
        let count = json_u64(&statusz, key).ok_or(format!("/statusz lacks {key}"))?;
        if count > 0 {
            out.failed += count;
            out.mismatches.push(format!("daemon counted {count} {key}"));
        }
    }
    Ok(())
}

fn json_u64(doc: &str, key: &str) -> Option<u64> {
    let at = doc.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = doc[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// The pipeline and monitor a [`Tenant`] runs internally, driven by the
/// benchmark with the same records in the same order so each layer can
/// be timed on its own (the tenant keeps them private).
struct Twin {
    pending: Vec<ParsedRecord>,
    pipe: Option<ReplayPipeline>,
    monitor: StreamMonitor,
}

impl Twin {
    fn new() -> Self {
        Twin {
            pending: Vec::new(),
            pipe: None,
            monitor: StreamMonitor::new(pad::pipeline::default_alert_rules()),
        }
    }

    /// The tenant's first-tick rack inference, then pipeline ingest.
    fn ingest(&mut self, r: &ParsedRecord) {
        match &mut self.pipe {
            Some(pipe) => pipe.ingest(r),
            None => {
                if self.pending.first().is_some_and(|f| f.time_ms != r.time_ms) {
                    let racks = try_infer_racks(&self.pending).unwrap_or(1);
                    let mut pipe = ReplayPipeline::new(racks, PipelineConfig::default());
                    for p in self.pending.drain(..) {
                        pipe.ingest(&p);
                    }
                    pipe.ingest(r);
                    self.pipe = Some(pipe);
                } else {
                    self.pending.push(r.clone());
                }
            }
        }
    }

    fn observe(&mut self, r: &ParsedRecord) {
        let (level, fused, firings) = match &self.pipe {
            Some(p) => (
                p.level(),
                p.stack().fused().fired,
                p.stack().bank().firings().len(),
            ),
            None => (SecurityLevel::Normal, false, 0),
        };
        self.monitor.observe_record(r, level, fused, firings);
    }

    fn finish(self) -> (String, u64) {
        let pipe = match self.pipe {
            Some(p) => p,
            None => {
                let racks = try_infer_racks(&self.pending).unwrap_or(1);
                let mut pipe = ReplayPipeline::new(racks, PipelineConfig::default());
                for p in &self.pending {
                    pipe.ingest(p);
                }
                pipe
            }
        };
        let ticks = pipe.tick_count();
        (pipe.finalize().to_json(), ticks)
    }
}

/// Layers folded per session in the traced replay.
const LINE_LAYERS: &[&str] = &[
    "proto.classify",
    "codec.parse",
    "pipeline.ingest",
    "monitor.observe",
    "state.ingest",
    "state.journal",
];
const CLASSIFY: usize = 0;
const PARSE: usize = 1;
const PIPELINE: usize = 2;
const MONITOR: usize = 3;
const INGEST: usize = 4;
const JOURNAL: usize = 5;

/// Journal bytes written, read from the journal's length between calls
/// (a base write deletes the journal, so the next frame starts at 0).
#[derive(Default)]
struct JournalTally {
    bytes: u64,
    last_len: u64,
}

impl JournalTally {
    fn after_frame(&mut self, state: &DaemonState) {
        let len = state
            .journal_path(TENANT)
            .and_then(|p| std::fs::metadata(p).ok())
            .map_or(0, |m| m.len());
        self.bytes += len.saturating_sub(self.last_len);
        self.last_len = len;
    }

    fn after_base(&mut self) {
        self.last_len = 0;
    }
}

/// The daemon's per-tick durability step, as the session runs it.
fn checkpoint(state: &DaemonState, tenant: &mut Tenant) -> Result<bool, String> {
    if tenant.checkpoint_due() {
        state.write_checkpoint(tenant).map_err(io_err)?;
        Ok(true)
    } else {
        state.append_checkpoint_frame(tenant).map_err(io_err)?;
        Ok(false)
    }
}

fn fresh_state(dir: Option<PathBuf>) -> DaemonState {
    let mut state = DaemonState::new(PipelineConfig::default());
    if let Some(dir) = &dir {
        let _ = std::fs::remove_dir_all(dir);
        let _ = std::fs::create_dir_all(dir);
    }
    state.state_dir = dir;
    state
}

/// The session loop without timing: the untraced twin of
/// [`replay_traced`], for the tracing-overhead ratio and the
/// byte-for-byte reply comparison.
fn replay_bare(stream: &Stream, state: &DaemonState) -> Result<Vec<String>, String> {
    let mut replies = Vec::new();
    for _ in 0..TRACE_SESSIONS {
        let mut tenant: Option<Arc<Mutex<Tenant>>> = None;
        for (line_no, raw) in std::iter::once(format!("hello {TENANT}").as_str())
            .chain(stream.lines.iter().map(String::as_str))
            .chain(std::iter::once("end"))
            .enumerate()
        {
            match classify(raw) {
                Line::Control(Control::Hello {
                    tenant: name,
                    format,
                    ..
                }) => {
                    tenant = Some(state.open_tenant(&name, format).0);
                }
                Line::Control(Control::End) => {
                    let handle = tenant.take().ok_or("end before hello")?;
                    let mut guard = handle.lock().expect("tenant lock");
                    replies.push(guard.finalize().to_json());
                    checkpoint(state, &mut guard)?;
                }
                Line::Data => {
                    let handle = tenant.as_ref().ok_or("data before hello")?;
                    if raw.starts_with("{\"id\":") {
                        let span = parse_span_line(raw, line_no, Format::Jsonl)
                            .map_err(|e| e.to_string())?;
                        handle
                            .lock()
                            .expect("tenant lock")
                            .ingest_span_wire(raw, span);
                    } else {
                        let r =
                            parse_line(raw, line_no, Format::Jsonl).map_err(|e| e.to_string())?;
                        let mut guard = handle.lock().expect("tenant lock");
                        if guard.ingest_record_wire(raw, r) {
                            checkpoint(state, &mut guard)?;
                        }
                    }
                }
                other => return Err(format!("unexpected line kind {other:?}")),
            }
        }
    }
    Ok(replies)
}

/// Counts the traced replay gathers besides span times.
#[derive(Default)]
struct ReplayCounts {
    records: u64,
    spans: u64,
    errors: u64,
    ticks: u64,
    twin_mismatches: u64,
}

/// The session loop with every layer call timed.
fn replay_traced(
    stream: &Stream,
    state: &DaemonState,
    rec: &mut Recorder,
    journal: &mut JournalTally,
    counts: &mut ReplayCounts,
) -> Result<Vec<String>, String> {
    let mut replies = Vec::new();
    let mut tally = Tally::new(LINE_LAYERS);
    for session in 0..TRACE_SESSIONS {
        let owner = session as u64;
        rec.enter("session", owner);
        let mut tenant: Option<Arc<Mutex<Tenant>>> = None;
        let mut reply = None;
        // Records the session ingested, for the twin's pass.
        let mut kept: Vec<ParsedRecord> = Vec::with_capacity(stream.lines.len());
        for (line_no, raw) in std::iter::once(format!("hello {TENANT}").as_str())
            .chain(stream.lines.iter().map(String::as_str))
            .chain(std::iter::once("end"))
            .enumerate()
        {
            let t0 = Instant::now();
            let kind = classify(raw);
            let t1 = Instant::now();
            tally.add(CLASSIFY, t1 - t0);
            match kind {
                Line::Control(Control::Hello {
                    tenant: name,
                    format,
                    ..
                }) => {
                    tenant =
                        Some(rec.time("state.open", owner, || state.open_tenant(&name, format).0));
                }
                Line::Control(Control::End) => {
                    let handle = tenant.take().ok_or("end before hello")?;
                    let mut guard = handle.lock().expect("tenant lock");
                    let text = rec.time("session.reply", owner, || guard.finalize().to_json());
                    let t2 = Instant::now();
                    let base = checkpoint(state, &mut guard)?;
                    tally.add(JOURNAL, t2.elapsed());
                    if base {
                        journal.after_base();
                    } else if state.state_dir.is_some() {
                        journal.after_frame(state);
                    }
                    reply = Some(text);
                }
                Line::Data => {
                    let handle = tenant.as_ref().ok_or("data before hello")?;
                    if raw.starts_with("{\"id\":") {
                        let parsed = parse_span_line(raw, line_no, Format::Jsonl);
                        let t2 = Instant::now();
                        tally.add(PARSE, t2 - t1);
                        let Ok(span) = parsed else {
                            counts.errors += 1;
                            continue;
                        };
                        counts.spans += 1;
                        handle
                            .lock()
                            .expect("tenant lock")
                            .ingest_span_wire(raw, span);
                        tally.add(INGEST, t2.elapsed());
                    } else {
                        let parsed = parse_line(raw, line_no, Format::Jsonl);
                        let t2 = Instant::now();
                        tally.add(PARSE, t2 - t1);
                        let Ok(r) = parsed else {
                            counts.errors += 1;
                            continue;
                        };
                        counts.records += 1;
                        // The copy for the twin's pass is loop glue.
                        kept.push(r.clone());
                        let t3 = Instant::now();
                        let mut guard = handle.lock().expect("tenant lock");
                        let ticked = guard.ingest_record_wire(raw, r);
                        let t4 = Instant::now();
                        tally.add(INGEST, t4 - t3);
                        if ticked {
                            let base = checkpoint(state, &mut guard)?;
                            tally.add(JOURNAL, t4.elapsed());
                            drop(guard);
                            if base {
                                journal.after_base();
                            } else if state.state_dir.is_some() {
                                journal.after_frame(state);
                            }
                        }
                    }
                }
                other => return Err(format!("unexpected line kind {other:?}")),
            }
        }
        // The twin's pass over the same records, after the session, so
        // neither pipeline shares the cache with the other.
        let mut twin = Twin::new();
        for r in &kept {
            let t0 = Instant::now();
            twin.ingest(r);
            let t1 = Instant::now();
            tally.add(PIPELINE, t1 - t0);
            twin.observe(r);
            tally.add(MONITOR, t1.elapsed());
        }
        let (twin_reply, ticks) = twin.finish();
        counts.ticks += ticks;
        let reply = reply.ok_or("session ended without a reply")?;
        if twin_reply != reply {
            counts.twin_mismatches += 1;
        }
        replies.push(reply);
        tally.flush_into(rec, owner);
        rec.exit();
    }
    Ok(replies)
}

/// The traced run's in-process half: the same sessions through the
/// daemon's layers, untraced then traced, plus a restore of the traced
/// run's state directory.
fn traced(
    stream: &Stream,
    durable: bool,
    run_dir: &Path,
    spans_path: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let dir = |name: &str| durable.then(|| run_dir.join(name));

    let bare_state = fresh_state(dir("trace-bare"));
    let started = Instant::now();
    let bare_replies = replay_bare(stream, &bare_state)?;
    let bare_wall = started.elapsed().as_secs_f64();

    let traced_state = fresh_state(dir("trace-state"));
    let frames_before = Counters::get(&traced_state.counters.checkpoint_frames);
    let bases_before = Counters::get(&traced_state.counters.checkpoints_written);
    let mut trace = Trace::new();
    let mut rec = Recorder::new(trace.origin());
    let mut journal = JournalTally::default();
    let mut counts = ReplayCounts::default();
    let lane_started = Instant::now();
    let replies = replay_traced(stream, &traced_state, &mut rec, &mut journal, &mut counts)?;
    let replay_wall = lane_started.elapsed().as_secs_f64();
    let frames = Counters::get(&traced_state.counters.checkpoint_frames) - frames_before;
    let bases = Counters::get(&traced_state.counters.checkpoints_written) - bases_before;
    if durable {
        // Restore a copy, so the measured state directory stays intact.
        let copy = run_dir.join("trace-restore");
        let _ = std::fs::remove_dir_all(&copy);
        std::fs::create_dir_all(&copy).map_err(io_err)?;
        let src = run_dir.join("trace-state");
        for entry in std::fs::read_dir(&src).map_err(io_err)? {
            let entry = entry.map_err(io_err)?;
            std::fs::copy(entry.path(), copy.join(entry.file_name())).map_err(io_err)?;
        }
        let mut restored = DaemonState::new(PipelineConfig::default());
        restored.state_dir = Some(copy);
        let n = rec
            .time("state.restore", 0, || restored.load_checkpoints())
            .map_err(io_err)?;
        out.attempted += 1;
        let same = restored
            .tenant(TENANT)
            .map(|t| t.lock().expect("tenant lock").incidents_json());
        if n != 1 || same.as_deref() != Some(stream.incidents.as_str()) {
            out.mismatch("restored tenant differs from the traced run's".to_string());
        }
    }
    let lane = trace.add_lane(lane_started.elapsed());
    trace.absorb(lane, rec);

    out.attempted += (TRACE_SESSIONS * (stream.lines.len() + 2)) as u64;
    for (i, reply) in replies.iter().enumerate() {
        if reply != &stream.summary {
            out.mismatch(format!(
                "traced session {i} reply differs from replay_records"
            ));
        }
        if bare_replies.get(i) != Some(reply) {
            out.mismatch(format!(
                "traced session {i} reply differs from the untraced replay"
            ));
        }
    }
    if counts.twin_mismatches > 0 {
        out.mismatch(format!(
            "{} twin pipeline summary(ies) differ from the tenant's",
            counts.twin_mismatches
        ));
    }
    if counts.errors > 0 {
        out.mismatch(format!("{} line(s) failed to parse", counts.errors));
    }

    let acc = trace.account();
    if (acc.accounted_s() - acc.wall_s).abs() > 1e-6 * acc.wall_s.max(1.0) {
        out.mismatch(format!(
            "traced self times {:.6}s do not add up to the traced wall {:.6}s",
            acc.accounted_s(),
            acc.wall_s
        ));
    }
    std::fs::write(spans_path, trace.to_jsonl()).map_err(io_err)?;
    let glue = acc.self_of("session");
    out.set("proto.classify_s", acc.self_of("proto.classify"));
    out.set("proto.lines", acc.calls_of("proto.classify") as f64);
    out.set("codec.parse_s", acc.self_of("codec.parse"));
    out.set("codec.records", counts.records as f64);
    out.set("codec.spans", counts.spans as f64);
    out.set("codec.errors", counts.errors as f64);
    out.set("pipeline.ingest_s", acc.self_of("pipeline.ingest"));
    out.set("pipeline.ticks", counts.ticks as f64);
    out.set("monitor.observe_s", acc.self_of("monitor.observe"));
    let ingest = acc.self_of("state.ingest");
    out.set("state.ingest_s", ingest);
    out.set(
        "state.ingest_self_s",
        (ingest - acc.self_of("pipeline.ingest") - acc.self_of("monitor.observe")).max(0.0),
    );
    out.set("state.open_s", acc.self_of("state.open"));
    out.set("state.journal_s", acc.self_of("state.journal"));
    out.set("state.journal_frames", frames as f64);
    out.set("state.journal_bytes", journal.bytes as f64);
    out.set("state.base_writes", bases as f64);
    out.set("state.restore_s", acc.self_of("state.restore"));
    out.set("session.reply_s", acc.self_of("session.reply"));
    out.set("session.glue_s", glue);
    out.set("trace.wall_s", acc.wall_s);
    out.set(
        "trace.layer_self_sum_s",
        acc.self_s.values().sum::<f64>() - glue,
    );
    out.set("trace.unattributed_s", glue + acc.idle_s);
    out.set("trace.overhead_s", replay_wall - bare_wall);
    out.set(
        "trace.overhead_ratio",
        if bare_wall > 0.0 {
            replay_wall / bare_wall
        } else {
            0.0
        },
    );
    out.notes.push(format!(
        "in-process replay: {TRACE_SESSIONS} session(s), untraced {bare_wall:.3}s, \
         traced {replay_wall:.3}s (includes the twin pipeline and monitor)"
    ));
    Ok(())
}

//! The daemon's accept loop, graceful drain, and output flush.
//!
//! Std-only concurrency: listeners run non-blocking and are polled at
//! a few-millisecond cadence; every accepted connection gets its own
//! thread with a short read timeout so it can observe the shutdown
//! flag between reads. A `shutdown` control line (no signal handling —
//! the control path works identically over TCP and Unix sockets) stops
//! the accept loop, drains every open session, flushes per-tenant
//! outputs plus `daemon_report.json` to `--out`, and returns cleanly.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use pad::pipeline::PipelineConfig;
use simkit::alert::AlertRule;
use simkit::telemetry::render_parsed;

use crate::http::{handle_http, render_alerts_doc};
use crate::session::run_session;
use crate::state::{Counters, DaemonState};

/// How long a session read blocks before re-checking the shutdown
/// flag. Short enough that a drain completes promptly, long enough to
/// keep the idle poll cost negligible.
pub const READ_TIMEOUT: Duration = Duration::from_millis(50);

/// Accept-loop poll cadence while both listeners are idle.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// What to bind and where to flush.
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// TCP address for the telemetry stream listener (`host:port`;
    /// port 0 picks a free one). Defaults to `127.0.0.1:0` when no
    /// Unix socket is requested either.
    pub listen: Option<String>,
    /// Unix socket path for the telemetry stream listener.
    pub uds: Option<PathBuf>,
    /// TCP address for the HTTP endpoint (`/metrics`, incident API).
    pub http: Option<String>,
    /// Directory for the shutdown flush (per-tenant outputs plus
    /// `daemon_report.json`).
    pub out: Option<PathBuf>,
    /// File to write the bound addresses to, one `name addr` pair per
    /// line — how scripts discover port-0 allocations.
    pub ports_file: Option<PathBuf>,
    /// Pipeline knobs applied to every tenant.
    pub config: PipelineConfig,
    /// Alert rules for every tenant monitor; `None` runs
    /// [`pad::pipeline::default_alert_rules`].
    pub alert_rules: Option<Vec<AlertRule>>,
    /// Directory for per-tenant crash-recovery checkpoints. When set,
    /// the daemon restores every `<tenant>.ckpt` found at startup and
    /// rewrites checkpoints at detector-tick boundaries.
    pub state_dir: Option<PathBuf>,
    /// Per-tenant buffered-line watermark before overload shedding;
    /// `None` uses [`crate::state::MAX_BUFFERED_LINES_DEFAULT`].
    pub max_buffered_lines: Option<usize>,
    /// Close sessions that stay silent this long; `None` never reaps.
    pub idle_timeout: Option<Duration>,
}

/// Runs the daemon until a `shutdown` control line arrives; returns
/// after the drain and flush complete.
pub fn serve(opts: ServeOptions) -> io::Result<()> {
    let mut state = match opts.alert_rules.clone() {
        Some(rules) => DaemonState::with_rules(opts.config, rules, true),
        None => DaemonState::new(opts.config),
    };
    state.state_dir = opts.state_dir.clone();
    if let Some(max) = opts.max_buffered_lines {
        state.max_buffered_lines = max;
    }
    state.idle_timeout = opts.idle_timeout;
    if let Some(dir) = &state.state_dir {
        std::fs::create_dir_all(dir)?;
        let restored = state.load_checkpoints()?;
        if restored > 0 {
            println!("padsimd: restored {restored} tenant checkpoint(s)");
        }
    }
    let state = Arc::new(state);
    let data_listener = match (&opts.listen, &opts.uds) {
        (Some(addr), _) => Some(bind_tcp(addr)?),
        (None, None) => Some(bind_tcp("127.0.0.1:0")?),
        (None, Some(_)) => None,
    };
    let uds_listener = match &opts.uds {
        Some(path) => Some(bind_uds(path)?),
        None => None,
    };
    let http_listener = match &opts.http {
        Some(addr) => Some(bind_tcp(addr)?),
        None => None,
    };

    let mut ports = String::new();
    if let Some(listener) = &data_listener {
        ports.push_str(&format!("data {}\n", listener.local_addr()?));
    }
    if let Some(path) = &opts.uds {
        ports.push_str(&format!("uds {}\n", path.display()));
    }
    if let Some(listener) = &http_listener {
        ports.push_str(&format!("http {}\n", listener.local_addr()?));
    }
    if let Some(path) = &opts.ports_file {
        std::fs::write(path, &ports)?;
    }
    print!("padsimd: serving\n{ports}");
    io::stdout().flush()?;
    state.set_ready(true);
    state.log_event("ready", "", "listeners bound");

    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    while !state.shutting_down() {
        let before = workers.len();
        if let Some(listener) = &data_listener {
            workers.extend(accept_into(
                listener.accept(),
                &state,
                "session",
                run_session,
            )?);
        }
        #[cfg(unix)]
        if let Some(listener) = &uds_listener {
            workers.extend(accept_into(
                listener.accept(),
                &state,
                "session",
                run_session,
            )?);
        }
        if let Some(listener) = &http_listener {
            workers.extend(accept_into(listener.accept(), &state, "http", handle_http)?);
        }
        if workers.len() == before {
            thread::sleep(ACCEPT_POLL);
            // Reap finished workers so a long-lived daemon's handle
            // list stays bounded by its *concurrent* session count.
            workers.retain(|handle| !handle.is_finished());
        }
    }

    // Drain: listeners drop (no new connections), every session thread
    // observes the flag within one read timeout and finalizes its
    // tenant stream.
    state.set_ready(false);
    state.log_event("drain", "", "shutdown requested");
    drop(data_listener);
    drop(http_listener);
    #[cfg(unix)]
    drop(uds_listener);
    #[cfg(not(unix))]
    let _ = uds_listener;
    for handle in workers {
        let _ = handle.join();
    }
    if let Some(path) = &opts.uds {
        let _ = std::fs::remove_file(path);
    }
    if let Some(dir) = &opts.out {
        flush_outputs(&state, dir)?;
    }
    println!("padsimd: drained and flushed, exiting");
    Ok(())
}

/// An accepted connection a worker thread can serve.
trait Connection: Read + Write + Send + 'static {
    /// Switches the stream to blocking reads that time out after
    /// [`READ_TIMEOUT`], so its worker can poll the shutdown flag.
    fn set_up(&self) -> io::Result<()>;
}

impl Connection for TcpStream {
    fn set_up(&self) -> io::Result<()> {
        self.set_nonblocking(false)?;
        self.set_read_timeout(Some(READ_TIMEOUT))
    }
}

#[cfg(unix)]
impl Connection for std::os::unix::net::UnixStream {
    fn set_up(&self) -> io::Result<()> {
        self.set_nonblocking(false)?;
        self.set_read_timeout(Some(READ_TIMEOUT))
    }
}

/// Hands the outcome of one non-blocking `accept` to a new worker
/// thread running `handler`. Nothing pending is not an error, and an
/// accept error is logged and skipped; only a failed stream set-up
/// aborts the accept loop.
fn accept_into<C: Connection, T: 'static>(
    accepted: io::Result<(C, impl Sized)>,
    state: &Arc<DaemonState>,
    what: &'static str,
    handler: fn(C, &DaemonState) -> io::Result<T>,
) -> io::Result<Option<JoinHandle<()>>> {
    let stream = match accepted {
        Ok((stream, _)) => stream,
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
        Err(e) => {
            eprintln!("padsimd: accept error: {e}");
            return Ok(None);
        }
    };
    stream.set_up()?;
    let state = Arc::clone(state);
    Ok(Some(thread::spawn(move || {
        if let Err(e) = handler(stream, &state) {
            eprintln!("padsimd: {what} error: {e}");
        }
    })))
}

fn bind_tcp(addr: &str) -> io::Result<TcpListener> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    Ok(listener)
}

#[cfg(unix)]
type UdsListener = std::os::unix::net::UnixListener;
#[cfg(not(unix))]
type UdsListener = std::convert::Infallible;

#[cfg(unix)]
fn bind_uds(path: &PathBuf) -> io::Result<UdsListener> {
    // A stale socket file from a crashed run would fail the bind.
    let _ = std::fs::remove_file(path);
    let listener = std::os::unix::net::UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    Ok(listener)
}

#[cfg(not(unix))]
fn bind_uds(_path: &PathBuf) -> io::Result<UdsListener> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "unix sockets are not available on this platform",
    ))
}

/// Writes the shutdown flush: per tenant, the replay summary, firing
/// log, incident report, alert document, and re-serialized telemetry
/// (each byte-identical to the offline pipeline's output for the same
/// records), plus the aggregate `alerts.json` and a
/// `daemon_report.json` of the self-metrics, alert state, and ops log.
pub fn flush_outputs(state: &DaemonState, dir: &PathBuf) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    // Close every stream first so alert state is final (the monitor's
    // last tick evaluated) before anything renders, and forward any
    // transitions that fire at finalization into the ops log.
    for (name, tenant) in state.tenants() {
        let mut guard = tenant.lock().expect("tenant lock");
        guard.finalize();
        let transitions = guard.take_transitions();
        drop(guard);
        for ev in transitions {
            state.log_event(
                if ev.fired {
                    "alert_fired"
                } else {
                    "alert_resolved"
                },
                &name,
                &format!("{} t={} value={}", ev.rule, ev.time_ms, ev.value),
            );
        }
    }
    let alerts_doc = render_alerts_doc(state);
    std::fs::write(dir.join("alerts.json"), &alerts_doc)?;

    let mut report = String::from("{");
    let c = &state.counters;
    report.push_str(&format!(
        "\"sessions_opened\":{},\"sessions_closed\":{},\"records\":{},\
         \"spans\":{},\"parse_errors\":{},\"http_requests\":{}",
        Counters::get(&c.sessions_opened),
        Counters::get(&c.sessions_closed),
        Counters::get(&c.records),
        Counters::get(&c.spans),
        Counters::get(&c.parse_errors),
        Counters::get(&c.http_requests),
    ));
    report.push_str(",\"tenants\":[");
    let mut alerts_firing = 0;
    for (i, (name, tenant)) in state.tenants().into_iter().enumerate() {
        let mut guard = tenant.lock().expect("tenant lock");
        let summary = guard.finalize().clone();
        std::fs::write(dir.join(format!("{name}.detect.json")), summary.to_json())?;
        std::fs::write(
            dir.join(format!("{name}.firings.txt")),
            summary.render_firings(),
        )?;
        std::fs::write(
            dir.join(format!("{name}.incidents.json")),
            guard.incidents_json(),
        )?;
        let ext = guard.format.extension();
        std::fs::write(
            dir.join(format!("{name}.telemetry.{ext}")),
            render_parsed(&guard.records, guard.format),
        )?;
        let mut alert_events = 0;
        if let Some(doc) = guard.alerts_json() {
            std::fs::write(dir.join(format!("{name}.alerts.json")), doc)?;
        }
        if let Some(mon) = guard.monitor() {
            alert_events = mon.engine().events().len();
            alerts_firing += mon.engine().firing_count();
        }
        if i > 0 {
            report.push(',');
        }
        report.push_str(&format!(
            "\n{{\"tenant\":\"{name}\",\"records\":{},\"spans\":{},\"parse_errors\":{},\
             \"sessions\":{},\"level\":{},\"alert_events\":{alert_events}}}",
            guard.records.len(),
            guard.spans.len(),
            guard.parse_errors,
            guard.sessions,
            guard.level().number(),
        ));
    }
    report.push_str(&format!(
        "],\"alerts_firing\":{alerts_firing},\"ops_log_dropped\":{},\"ops_log\":{}}}\n",
        state.with_ops_log(|log| log.dropped()),
        state.with_ops_log(|log| log.render_json_array()),
    ));
    std::fs::write(dir.join("daemon_report.json"), report)
}

//! Byte goldens of every JSON document the workspace emits.
//!
//! Each document is rendered from fixed inputs and compared with its
//! pin: the full text for short documents, an FNV-1a digest plus the
//! byte length for long ones. The inputs reach every shape a renderer
//! has — empty and non-empty arrays, `null` fields, optional fields
//! present and absent, flags as `0`/`1` and as `true`/`false`:
//!
//! * the alert engine with rules pending, firing, resolved and ok
//!   (`since_ms: null`), its rules document, and a stream monitor
//!   whose snapshot carries the same engine states;
//! * a recorded attacked run through the replay pipeline (escalations
//!   and firings), its summary, its mid-stream pipeline and monitor
//!   snapshots and its `/alerts` document;
//! * incident reports with and without `null` detect times;
//! * checkpoint documents and journal frames for an open and a
//!   finished tenant;
//! * the ops log in both renders, `status_json`, `/statusz`, the
//!   tenant list, `/alerts` and `daemon_report.json`;
//! * the fault plan, chaos plan, fault, mc, chaos and perf reports,
//!   the wall-clock ones built from constructed values.

mod common;

use std::io::{self, Read, Write};
use std::sync::OnceLock;
use std::time::Duration;

use pad::fault::{FaultCounters, FaultReport};
use pad::mc::{render_mc_report_json, ModelConfig};
use pad::pipeline::{self, PipelineConfig, ReplayPipeline, StreamMonitor};
use pad::policy::SecurityLevel;
use pad::prof::{PerfReport, SimProfile};
use paddaemon::chaos::{ChaosReport, ScenarioResult};
use paddaemon::http::handle_http;
use paddaemon::server::flush_outputs;
use paddaemon::state::DaemonState;
use simkit::alert::{
    render_alerts_json, render_rules_json, AlertEngine, AlertKind, AlertRule, Compare, Severity,
};
use simkit::chaos::{ChaosPlan, WireFault};
use simkit::fault::{FaultKind, FaultPlan, FaultSpec, FaultTarget};
use simkit::mc::{Fnv64, McReport, Violation};
use simkit::prof::{PhaseProfile, ProfDump, Throughput};
use simkit::sweep::WorkerProfile;
use simkit::telemetry::{parse, Format, MetricRegistry, ParsedRecord};
use simkit::time::SimTime;
use simkit::trace::{parse_spans, render_report_json, Incident, ParsedSpan};

/// FNV-1a over a document's bytes.
fn fnv(doc: &str) -> u64 {
    let mut h = Fnv64::new();
    for byte in doc.bytes() {
        h.write_u8(byte);
    }
    h.finish()
}

/// Collects every mismatch so one run reports all of them.
#[derive(Default)]
struct Pins {
    failures: Vec<String>,
}

impl Pins {
    fn text(&mut self, name: &str, doc: &str, want: &str) {
        if doc != want {
            self.failures.push(format!("{name}: got {doc:?}"));
        }
    }

    fn digest(&mut self, name: &str, doc: &str, want: (u64, usize)) {
        let got = (fnv(doc), doc.len());
        if got != want {
            self.failures
                .push(format!("{name}: got (0x{:016x}, {})", got.0, got.1));
        }
    }

    fn finish(self) {
        assert!(self.failures.is_empty(), "\n{}", self.failures.join("\n"));
    }
}

/// The recorded attacked run shared by the pipeline, incident and
/// daemon goldens.
fn recorded() -> &'static (Vec<ParsedRecord>, Vec<ParsedSpan>) {
    static RUN: OnceLock<(Vec<ParsedRecord>, Vec<ParsedSpan>)> = OnceLock::new();
    RUN.get_or_init(|| {
        let run = common::recorded_run(7);
        (
            parse(&run.telemetry, Format::Jsonl).unwrap(),
            parse_spans(&run.spans, Format::Jsonl).unwrap(),
        )
    })
}

fn rule(name: &str, severity: Severity, for_ms: u64, hold_ms: u64, kind: AlertKind) -> AlertRule {
    AlertRule {
        name: name.to_string(),
        severity,
        for_ms,
        hold_ms,
        kind,
    }
}

fn threshold(metric: &str, op: Compare, value: f64, clear: Option<f64>) -> AlertKind {
    AlertKind::Threshold {
        metric: metric.to_string(),
        op,
        value,
        clear,
    }
}

#[test]
fn alert_documents_are_pinned() {
    let mut reg = MetricRegistry::new();
    let level = reg.register_gauge("policy.level");
    let lag = reg.register_gauge("ingest.lag_ms");
    let errors = reg.register_counter("ingest.parse_errors_total");
    let beat = reg.register_counter("ingest.records_total");
    let rules = vec![
        rule(
            "level-high",
            Severity::Page,
            0,
            0,
            threshold("policy.level", Compare::Ge, 3.0, Some(2.0)),
        ),
        rule(
            "lag-slow",
            Severity::Warn,
            1000,
            0,
            threshold("ingest.lag_ms", Compare::Gt, 250.5, None),
        ),
        rule(
            "errors",
            Severity::Info,
            0,
            500,
            AlertKind::Rate {
                metric: "ingest.parse_errors_total".to_string(),
                max_per_sec: 2.5,
            },
        ),
        rule(
            "silent",
            Severity::Warn,
            0,
            0,
            AlertKind::Deadman {
                metric: "ingest.records_total".to_string(),
                factor: 4.0,
                min_gap_ms: 300,
            },
        ),
    ];
    let mut pins = Pins::default();
    pins.text(
        "rules",
        &render_rules_json(&rules),
        "{\"rules\":[\n{\"name\":\"level-high\",\"severity\":\"page\",\"kind\":\"threshold\",\"metric\":\"policy.level\",\"op\":\">=\",\"value\":3,\"clear\":2,\"for_ms\":0,\"hold_ms\":0},\n{\"name\":\"lag-slow\",\"severity\":\"warn\",\"kind\":\"threshold\",\"metric\":\"ingest.lag_ms\",\"op\":\">\",\"value\":250.5,\"for_ms\":1000,\"hold_ms\":0},\n{\"name\":\"errors\",\"severity\":\"info\",\"kind\":\"rate\",\"metric\":\"ingest.parse_errors_total\",\"max_per_sec\":2.5,\"for_ms\":0,\"hold_ms\":500},\n{\"name\":\"silent\",\"severity\":\"warn\",\"kind\":\"deadman\",\"metric\":\"ingest.records_total\",\"factor\":4,\"min_gap_ms\":300,\"for_ms\":0,\"hold_ms\":0}\n]}\n",
    );
    pins.text("rules empty", &render_rules_json(&[]), "{\"rules\":[\n]}\n");

    let mut engine = AlertEngine::new(rules);
    pins.text("alerts fresh", &render_alerts_json(&engine), "{\"rules\":[\n{\"name\":\"level-high\",\"kind\":\"threshold\",\"metric\":\"policy.level\",\"severity\":\"page\",\"state\":\"ok\",\"since_ms\":null,\"value\":null},\n{\"name\":\"lag-slow\",\"kind\":\"threshold\",\"metric\":\"ingest.lag_ms\",\"severity\":\"warn\",\"state\":\"ok\",\"since_ms\":null,\"value\":null},\n{\"name\":\"errors\",\"kind\":\"rate\",\"metric\":\"ingest.parse_errors_total\",\"severity\":\"info\",\"state\":\"ok\",\"since_ms\":null,\"value\":null},\n{\"name\":\"silent\",\"kind\":\"deadman\",\"metric\":\"ingest.records_total\",\"severity\":\"warn\",\"state\":\"ok\",\"since_ms\":null,\"value\":null}\n],\"firing\":0,\"events\":[],\"events_dropped\":0}\n");
    reg.set_gauge(level, 1.0);
    reg.set_gauge(lag, 10.0);
    for t in 0..8u64 {
        reg.inc(beat, 1);
        engine.eval(&reg, t * 100);
    }
    // level-high fires and resolves; errors fires on a burst and stays
    // firing under its hold; lag-slow goes pending.
    reg.set_gauge(level, 3.0);
    reg.inc(errors, 40);
    reg.inc(beat, 1);
    engine.eval(&reg, 800);
    reg.set_gauge(level, 1.5);
    reg.set_gauge(lag, 300.25);
    reg.inc(beat, 1);
    engine.eval(&reg, 900);
    pins.text("alerts mid", &render_alerts_json(&engine), "{\"rules\":[\n{\"name\":\"level-high\",\"kind\":\"threshold\",\"metric\":\"policy.level\",\"severity\":\"page\",\"state\":\"ok\",\"since_ms\":null,\"value\":null},\n{\"name\":\"lag-slow\",\"kind\":\"threshold\",\"metric\":\"ingest.lag_ms\",\"severity\":\"warn\",\"state\":\"pending\",\"since_ms\":900,\"value\":null},\n{\"name\":\"errors\",\"kind\":\"rate\",\"metric\":\"ingest.parse_errors_total\",\"severity\":\"info\",\"state\":\"firing\",\"since_ms\":800,\"value\":400},\n{\"name\":\"silent\",\"kind\":\"deadman\",\"metric\":\"ingest.records_total\",\"severity\":\"warn\",\"state\":\"ok\",\"since_ms\":null,\"value\":null}\n],\"firing\":1,\"events\":[\n{\"t\":800,\"rule\":\"level-high\",\"event\":\"fired\",\"value\":3},\n{\"t\":800,\"rule\":\"errors\",\"event\":\"fired\",\"value\":400},\n{\"t\":900,\"rule\":\"level-high\",\"event\":\"resolved\",\"value\":1.5}\n],\"events_dropped\":0}\n");

    // The same dynamics inside a stream monitor, whose snapshot carries
    // the engine state: pending, firing under a hold, resolved, and a
    // deadman's learned beat.
    let mut mon = StreamMonitor::new(vec![
        rule(
            "level-high",
            Severity::Page,
            0,
            0,
            threshold("policy.level", Compare::Ge, 3.0, Some(2.0)),
        ),
        rule(
            "fused-held",
            Severity::Warn,
            1000,
            0,
            threshold("detect.fused_fired", Compare::Ge, 1.0, None),
        ),
        rule(
            "errors",
            Severity::Info,
            0,
            500,
            AlertKind::Rate {
                metric: "ingest.parse_errors_total".to_string(),
                max_per_sec: 2.5,
            },
        ),
        rule(
            "silent",
            Severity::Warn,
            0,
            0,
            AlertKind::Deadman {
                metric: "ingest.ticks_total".to_string(),
                factor: 4.0,
                min_gap_ms: 300,
            },
        ),
    ]);
    pins.digest(
        "monitor snapshot fresh",
        &mon.snapshot_json(),
        (0x9f421282e6e8ed95, 2237),
    );
    for t in 0..=10u64 {
        let level = match t {
            7 => SecurityLevel::MinorIncident,
            8 => SecurityLevel::Emergency,
            _ => SecurityLevel::Normal,
        };
        if t == 7 {
            for _ in 0..40 {
                mon.observe_parse_error();
            }
        }
        let record = ParsedRecord {
            time_ms: t * 100,
            name: "rack-00.draw_w".to_string(),
            source: String::new(),
            value: 100.0 + t as f64,
            is_event: false,
        };
        mon.observe_record(&record, level, t >= 9, t as usize / 4);
    }
    pins.text("monitor alerts", &mon.alerts_json(), "{\"rules\":[\n{\"name\":\"level-high\",\"kind\":\"threshold\",\"metric\":\"policy.level\",\"severity\":\"page\",\"state\":\"ok\",\"since_ms\":null,\"value\":null},\n{\"name\":\"fused-held\",\"kind\":\"threshold\",\"metric\":\"detect.fused_fired\",\"severity\":\"warn\",\"state\":\"pending\",\"since_ms\":900,\"value\":null},\n{\"name\":\"errors\",\"kind\":\"rate\",\"metric\":\"ingest.parse_errors_total\",\"severity\":\"info\",\"state\":\"firing\",\"since_ms\":700,\"value\":400},\n{\"name\":\"silent\",\"kind\":\"deadman\",\"metric\":\"ingest.ticks_total\",\"severity\":\"warn\",\"state\":\"ok\",\"since_ms\":null,\"value\":null}\n],\"firing\":1,\"events\":[\n{\"t\":700,\"rule\":\"errors\",\"event\":\"fired\",\"value\":400},\n{\"t\":800,\"rule\":\"level-high\",\"event\":\"fired\",\"value\":3},\n{\"t\":900,\"rule\":\"level-high\",\"event\":\"resolved\",\"value\":1}\n],\"events_dropped\":0}\n");
    pins.digest(
        "monitor snapshot mid",
        &mon.snapshot_json(),
        (0xb843cb3accad04b4, 2707),
    );
    mon.take_transitions();
    pins.digest(
        "monitor snapshot drained",
        &mon.snapshot_json(),
        (0xc93f5d670cfd7cb8, 2560),
    );
    pins.finish();
}

#[test]
fn pipeline_documents_are_pinned() {
    let (records, _) = recorded();
    let racks = pipeline::try_infer_racks(records).unwrap();
    let config = PipelineConfig::default();
    let mut pipe = ReplayPipeline::new(racks, config);
    let mut mon = StreamMonitor::new(pipeline::default_alert_rules());
    let mut pins = Pins::default();
    let half = records.len() / 2;
    for (i, r) in records.iter().enumerate() {
        if i == half {
            pins.digest(
                "pipeline snapshot mid",
                &pipe.snapshot_json(),
                (0x59b63484ac35e67f, 2848),
            );
            pins.digest(
                "recorded monitor snapshot mid",
                &mon.snapshot_json(),
                (0x84bd17acce8bee45, 8241),
            );
        }
        pipe.ingest(r);
        mon.observe_record(
            r,
            pipe.level(),
            pipe.stack().fused().fired,
            pipe.stack().bank().firings().len(),
        );
    }
    pins.digest(
        "pipeline snapshot end",
        &pipe.snapshot_json(),
        (0xfd1aeef2056483a7, 3110),
    );
    let summary = pipe.finalize();
    mon.finish(summary.final_level, false, summary.firing_count);
    assert!(!summary.escalations.is_empty(), "the run escalates");
    assert!(summary.firing_count > 0, "the run fires");
    pins.digest("summary", &summary.to_json(), (0x353fd87fbddf8bdb, 555));
    pins.digest(
        "recorded monitor snapshot end",
        &mon.snapshot_json(),
        (0x808a0ee6a9cd4c00, 13273),
    );
    pins.digest(
        "recorded monitor alerts",
        &mon.alerts_json(),
        (0xf96b0c08ddc4188d, 1288),
    );

    let quiet = ReplayPipeline::new(2, config);
    pins.digest(
        "pipeline snapshot fresh",
        &quiet.snapshot_json(),
        (0x53960ab30e281e2c, 1820),
    );
    pins.text("summary empty", &quiet.finalize().to_json(), "{\"racks\":2,\"records\":0,\"ticks\":0,\"samples_fed\":0,\"events\":0,\"fired_ticks\":0,\"firing_count\":0,\"final_level\":1,\"escalations\":[],\"firings\":[]}\n");
    pins.finish();
}

fn incident(detected: bool) -> Incident {
    Incident {
        root_id: 3,
        root_name: "attack.drain".to_string(),
        start_ms: 60_000,
        end_ms: 240_000,
        span_ids: vec![3, 4, 9],
        blast_racks: vec![0, 2],
        detector_firings: if detected { 5 } else { 0 },
        time_to_detect_ms: detected.then_some(1_200),
        detect_lag_vs_truth_ms: detected.then_some(0),
        time_to_escalate_ms: detected.then_some(4_500),
        shed_energy_j: 1234.5,
    }
}

#[test]
fn incident_reports_are_pinned() {
    let mut pins = Pins::default();
    pins.text(
        "incident detected",
        &render_report_json(&[incident(true)]),
        "{\"incidents\":[\n{\"root_id\":3,\"root_name\":\"attack.drain\",\"start_ms\":60000,\"end_ms\":240000,\"span_ids\":[3,4,9],\"blast_racks\":[0,2],\"detector_firings\":5,\"time_to_detect_ms\":1200,\"detect_lag_vs_truth_ms\":0,\"time_to_escalate_ms\":4500,\"shed_energy_j\":1234.5}\n]}\n",
    );
    pins.text(
        "incidents mixed",
        &render_report_json(&[incident(false), incident(true)]),
        "{\"incidents\":[\n{\"root_id\":3,\"root_name\":\"attack.drain\",\"start_ms\":60000,\"end_ms\":240000,\"span_ids\":[3,4,9],\"blast_racks\":[0,2],\"detector_firings\":0,\"time_to_detect_ms\":null,\"detect_lag_vs_truth_ms\":null,\"time_to_escalate_ms\":null,\"shed_energy_j\":1234.5},\n{\"root_id\":3,\"root_name\":\"attack.drain\",\"start_ms\":60000,\"end_ms\":240000,\"span_ids\":[3,4,9],\"blast_racks\":[0,2],\"detector_firings\":5,\"time_to_detect_ms\":1200,\"detect_lag_vs_truth_ms\":0,\"time_to_escalate_ms\":4500,\"shed_energy_j\":1234.5}\n]}\n",
    );
    pins.text(
        "incidents empty",
        &render_report_json(&[]),
        "{\"incidents\":[]}\n",
    );
    let (records, spans) = recorded();
    pins.digest(
        "recorded incidents",
        &pipeline::reconstruct_json(spans, records),
        (0x60f7f3e08c471097, 274),
    );
    pins.digest(
        "recorded incidents without telemetry",
        &pipeline::reconstruct_json(spans, &[]),
        (0x0d301376530ca7cc, 278),
    );
    pins.finish();
}

fn scratch(tag: &str) -> std::path::PathBuf {
    common::scratch_dir(&format!("json-golden-{tag}"))
}

/// Feeds `records[range]` and every span into `tenant` of `state`.
fn feed(state: &DaemonState, tenant: &str, records: &[ParsedRecord], spans: &[ParsedSpan]) {
    let handle = state.tenant(tenant).unwrap();
    let mut guard = handle.lock().unwrap();
    for r in records {
        guard.ingest_record(r.clone());
    }
    for s in spans {
        guard.ingest_span(s.clone());
    }
}

/// The documents a checkpointed tenant leaves on disk.
struct Checkpointed {
    meta: String,
    base: String,
    frame_metas: String,
    journal: String,
    status: String,
}

/// Streams the first third of the recorded run into `tenant`, writes
/// its base checkpoint, streams the second third (finishing the stream
/// when `finish`), appends two journal frames and reads it all back.
fn checkpoint(state: &DaemonState, tenant: &str, finish: bool) -> Checkpointed {
    let (records, spans) = recorded();
    let dir = state.state_dir.clone().unwrap();
    let third = records.len() / 3;
    state.open_tenant(tenant, Format::Jsonl);
    feed(state, tenant, &records[..third], &spans[..1]);
    let handle = state.tenant(tenant).unwrap();
    state.write_checkpoint(&mut handle.lock().unwrap()).unwrap();
    feed(state, tenant, &records[third..2 * third], &spans[1..]);
    let mut guard = handle.lock().unwrap();
    if finish {
        guard.finalize();
    }
    state.append_checkpoint_frame(&mut guard).unwrap();
    state.append_checkpoint_frame(&mut guard).unwrap();
    let base = std::fs::read_to_string(dir.join(format!("{tenant}.ckpt"))).unwrap();
    let journal = std::fs::read_to_string(dir.join(format!("{tenant}.ckpt.log"))).unwrap();
    let frame_metas: Vec<&str> = journal
        .lines()
        .filter(|l| l.starts_with("{\"frame\""))
        .collect();
    Checkpointed {
        meta: base.lines().next().unwrap().to_string(),
        frame_metas: frame_metas.join("\n"),
        status: guard.status_json(),
        base,
        journal,
    }
}

#[test]
fn checkpoint_documents_are_pinned() {
    let dir = scratch("ckpt");
    let mut state = DaemonState::new(PipelineConfig::default());
    state.state_dir = Some(dir.clone());
    let mut pins = Pins::default();
    let open = checkpoint(&state, "open", false);
    pins.text("open checkpoint meta", &open.meta, "{\"version\":1,\"tenant\":\"open\",\"format\":\"jsonl\",\"seq\":8002,\"records\":8001,\"spans\":1,\"parse_errors\":0,\"sessions\":1,\"shed\":0,\"finished\":0,\"racks\":1,\"has_monitor\":1}");
    pins.digest("open checkpoint", &open.base, (0x9f374a6fde81981d, 395363));
    pins.text("open frame metas", &open.frame_metas, "{\"frame\":0,\"base\":8002,\"records\":8001,\"spans\":9,\"seq\":16012,\"parse_errors\":0,\"shed\":0,\"finished\":0}\n{\"frame\":1,\"base\":8002,\"records\":0,\"spans\":0,\"seq\":16012,\"parse_errors\":0,\"shed\":0,\"finished\":0}");
    pins.digest("open journal", &open.journal, (0x7b66fe9d7ec46256, 416041));
    pins.text("open status", &open.status, "{\"tenant\":\"open\",\"format\":\"jsonl\",\"records\":16002,\"spans\":10,\"parse_errors\":0,\"sessions\":1,\"seq\":16012,\"shed\":0,\"finished\":false,\"level\":3,\"level_label\":\"Level 3 - Emergency\",\"fused_fired\":true}\n");
    let done = checkpoint(&state, "done", true);
    pins.text("done checkpoint meta", &done.meta, "{\"version\":1,\"tenant\":\"done\",\"format\":\"jsonl\",\"seq\":8002,\"records\":8001,\"spans\":1,\"parse_errors\":0,\"sessions\":1,\"shed\":0,\"finished\":0,\"racks\":1,\"has_monitor\":1}");
    pins.digest("done checkpoint", &done.base, (0x49251e18b80f86c5, 395363));
    pins.text("done frame metas", &done.frame_metas, "{\"frame\":0,\"base\":8002,\"records\":8001,\"spans\":9,\"seq\":16012,\"parse_errors\":0,\"shed\":0,\"finished\":1}\n{\"frame\":1,\"base\":8002,\"records\":0,\"spans\":0,\"seq\":16012,\"parse_errors\":0,\"shed\":0,\"finished\":1}");
    pins.digest("done journal", &done.journal, (0x7c615dbe2ade9372, 416041));
    pins.text("done status", &done.status, "{\"tenant\":\"done\",\"format\":\"jsonl\",\"records\":16002,\"spans\":10,\"parse_errors\":0,\"sessions\":1,\"seq\":16012,\"shed\":0,\"finished\":true,\"level\":3,\"level_label\":\"Level 3 - Emergency\",\"fused_fired\":false}\n");
    let _ = std::fs::remove_dir_all(&dir);
    pins.finish();
}

struct Duplex {
    input: io::Cursor<Vec<u8>>,
    output: Vec<u8>,
}

impl Read for Duplex {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.input.read(buf)
    }
}

impl Write for Duplex {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.output.write(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The body of `GET path`.
fn get(state: &DaemonState, path: &str) -> String {
    let mut stream = Duplex {
        input: io::Cursor::new(format!("GET {path} HTTP/1.0\r\n\r\n").into_bytes()),
        output: Vec::new(),
    };
    handle_http(&mut stream, state).unwrap();
    let response = String::from_utf8(stream.output).unwrap();
    response.split_once("\r\n\r\n").unwrap().1.to_string()
}

#[test]
fn daemon_documents_are_pinned() {
    let (records, spans) = recorded();
    let state = DaemonState::new(PipelineConfig::default());
    let mut pins = Pins::default();
    pins.text(
        "tenant list empty",
        &get(&state, "/tenants"),
        "{\"tenants\":[]}\n",
    );
    pins.text(
        "alerts empty",
        &get(&state, "/alerts"),
        "{\"tenants\":[],\"firing\":0}\n",
    );
    state.open_tenant("acme", Format::Jsonl);
    feed(&state, "acme", records, spans);
    state.open_tenant("beta", Format::Csv);
    feed(&state, "beta", &records[..records.len() / 4], &[]);
    state.tenant("acme").unwrap().lock().unwrap().finalize();
    state.log_event("checkpoint_error", "beta", "missing field \"seq\"\tat\\end");
    state.log_event("overload_shed", "", "");
    pins.text(
        "ops jsonl",
        &state.with_ops_log(|log| log.render_jsonl()),
        "{\"seq\":0,\"kind\":\"session_open\",\"tenant\":\"acme\",\"detail\":\"\"}\n{\"seq\":1,\"kind\":\"session_open\",\"tenant\":\"beta\",\"detail\":\"\"}\n{\"seq\":2,\"kind\":\"checkpoint_error\",\"tenant\":\"beta\",\"detail\":\"missing field 'seq' at'end\"}\n{\"seq\":3,\"kind\":\"overload_shed\",\"tenant\":\"\",\"detail\":\"\"}\n",
    );
    pins.text(
        "ops array",
        &state.with_ops_log(|log| log.render_json_array()),
        "[{\"seq\":0,\"kind\":\"session_open\",\"tenant\":\"acme\",\"detail\":\"\"},{\"seq\":1,\"kind\":\"session_open\",\"tenant\":\"beta\",\"detail\":\"\"},{\"seq\":2,\"kind\":\"checkpoint_error\",\"tenant\":\"beta\",\"detail\":\"missing field 'seq' at'end\"},{\"seq\":3,\"kind\":\"overload_shed\",\"tenant\":\"\",\"detail\":\"\"}]",
    );
    pins.text("statusz", &get(&state, "/statusz"), "{\"ready\":false,\"draining\":false,\"self_obs\":true,\"tenants\":2,\"sessions_opened\":2,\"sessions_closed\":0,\"active_sessions\":0,\"records\":0,\"spans\":0,\"parse_errors\":0,\"http_requests\":3,\"alerts_firing\":2,\"ops_log_entries\":4,\"ops_log_dropped\":0,\"lines_shed\":0,\"checkpoints_written\":0,\"checkpoint_frames\":0,\"sessions_reaped\":0,\"overloaded_tenants\":0}\n");
    pins.text("tenant list", &get(&state, "/tenants"), "{\"tenants\":[\n{\"tenant\":\"acme\",\"format\":\"jsonl\",\"records\":24004,\"spans\":10,\"parse_errors\":0,\"sessions\":1,\"seq\":24014,\"shed\":0,\"finished\":true,\"level\":3,\"level_label\":\"Level 3 - Emergency\",\"fused_fired\":false},\n{\"tenant\":\"beta\",\"format\":\"csv\",\"records\":6001,\"spans\":0,\"parse_errors\":0,\"sessions\":1,\"seq\":6001,\"shed\":0,\"finished\":false,\"level\":1,\"level_label\":\"Level 1 - Normal\",\"fused_fired\":true}\n]}\n");
    pins.text("tenant open", &get(&state, "/tenants/beta"), "{\"tenant\":\"beta\",\"format\":\"csv\",\"records\":6001,\"spans\":0,\"parse_errors\":0,\"sessions\":1,\"seq\":6001,\"shed\":0,\"finished\":false,\"level\":1,\"level_label\":\"Level 1 - Normal\",\"fused_fired\":true}\n");
    pins.digest(
        "tenant summary",
        &get(&state, "/tenants/acme/summary"),
        (0x353fd87fbddf8bdb, 555),
    );
    pins.digest(
        "tenant alerts",
        &get(&state, "/tenants/acme/alerts"),
        (0xf96b0c08ddc4188d, 1288),
    );
    pins.digest(
        "alerts",
        &get(&state, "/alerts"),
        (0x4e0f8b6f8bc38652, 2402),
    );
    pins.text("logs", &get(&state, "/logs"), "{\"seq\":0,\"kind\":\"session_open\",\"tenant\":\"acme\",\"detail\":\"\"}\n{\"seq\":1,\"kind\":\"session_open\",\"tenant\":\"beta\",\"detail\":\"\"}\n{\"seq\":2,\"kind\":\"checkpoint_error\",\"tenant\":\"beta\",\"detail\":\"missing field 'seq' at'end\"}\n{\"seq\":3,\"kind\":\"overload_shed\",\"tenant\":\"\",\"detail\":\"\"}\n");

    let dir = scratch("flush");
    flush_outputs(&state, &dir).unwrap();
    let read = |name: &str| std::fs::read_to_string(dir.join(name)).unwrap();
    pins.digest(
        "daemon_report.json",
        &read("daemon_report.json"),
        (0xed3248e097aab5eb, 2246),
    );
    pins.digest(
        "alerts.json",
        &read("alerts.json"),
        (0x4e0f8b6f8bc38652, 2402),
    );
    pins.digest(
        "beta.detect.json",
        &read("beta.detect.json"),
        (0x72cbe867ac5a217e, 354),
    );
    let _ = std::fs::remove_dir_all(&dir);

    let empty = DaemonState::bare(PipelineConfig::default());
    let dir = scratch("flush-empty");
    flush_outputs(&empty, &dir).unwrap();
    pins.text(
        "daemon_report.json empty",
        &std::fs::read_to_string(dir.join("daemon_report.json")).unwrap(),
        "{\"sessions_opened\":0,\"sessions_closed\":0,\"records\":0,\"spans\":0,\"parse_errors\":0,\"http_requests\":0,\"tenants\":[],\"alerts_firing\":0,\"ops_log_dropped\":0,\"ops_log\":[]}\n",
    );
    let _ = std::fs::remove_dir_all(&dir);
    pins.finish();
}

fn window(kind: FaultKind, target: FaultTarget, from_ms: u64, to_ms: u64) -> FaultSpec {
    FaultSpec::new(
        kind,
        target,
        SimTime::from_millis(from_ms),
        SimTime::from_millis(to_ms),
    )
}

#[test]
fn plan_and_report_documents_are_pinned() {
    let mut pins = Pins::default();
    let plan = FaultPlan::new("storm")
        .with(window(
            FaultKind::SensorNoise { std: 0.05 },
            FaultTarget::All,
            0,
            60_000,
        ))
        .with(window(
            FaultKind::SensorBias { delta: -0.125 },
            FaultTarget::Unit(1),
            1_000,
            2_000,
        ))
        .with(window(
            FaultKind::SensorStuckAt { value: 0.5 },
            FaultTarget::Unit(0),
            0,
            10,
        ))
        .with(window(
            FaultKind::SensorDropout { p: 0.25 },
            FaultTarget::All,
            5,
            6,
        ))
        .with(window(
            FaultKind::MsgDelay { rounds: 3 },
            FaultTarget::All,
            0,
            1_000,
        ))
        .with(window(
            FaultKind::ComponentOutage,
            FaultTarget::Unit(2),
            100,
            200,
        ))
        .with(window(
            FaultKind::CapacityFade { factor: 0.75 },
            FaultTarget::All,
            0,
            1,
        ));
    pins.text("fault plan", &plan.to_json(), "{\"name\":\"storm\",\"specs\":[{\"kind\":\"sensor_noise\",\"target\":\"all\",\"start_ms\":0,\"end_ms\":60000,\"std\":0.05},{\"kind\":\"sensor_bias\",\"target\":\"1\",\"start_ms\":1000,\"end_ms\":2000,\"delta\":-0.125},{\"kind\":\"sensor_stuck_at\",\"target\":\"0\",\"start_ms\":0,\"end_ms\":10,\"value\":0.5},{\"kind\":\"sensor_dropout\",\"target\":\"all\",\"start_ms\":5,\"end_ms\":6,\"p\":0.25},{\"kind\":\"msg_delay\",\"target\":\"all\",\"start_ms\":0,\"end_ms\":1000,\"rounds\":3},{\"kind\":\"outage\",\"target\":\"2\",\"start_ms\":100,\"end_ms\":200},{\"kind\":\"capacity_fade\",\"target\":\"all\",\"start_ms\":0,\"end_ms\":1,\"factor\":0.75}]}");
    pins.text(
        "fault plan empty",
        &FaultPlan::new("none").to_json(),
        "{\"name\":\"none\",\"specs\":[]}",
    );

    let chaos_plan = ChaosPlan::new("kill", 42)
        .with_kill_at_line(120)
        .with(WireFault::CutAt { offset: 4096 })
        .with(WireFault::StallAt {
            offset: 100,
            ms: 250,
        })
        .with(WireFault::Chunk { max_bytes: 7 })
        .with(WireFault::DuplicateLine { index: 3 })
        .with(WireFault::GarbleLine { index: 9 });
    pins.text("chaos plan", &chaos_plan.to_json(), "{\"name\":\"kill\",\"seed\":42,\"kill_at_line\":120,\"faults\":[{\"kind\":\"cut_at\",\"offset\":4096},{\"kind\":\"stall_at\",\"offset\":100,\"ms\":250},{\"kind\":\"chunk\",\"max_bytes\":7},{\"kind\":\"duplicate_line\",\"index\":3},{\"kind\":\"garble_line\",\"index\":9}]}");
    pins.text(
        "chaos plan empty",
        &ChaosPlan::new("calm", 0).to_json(),
        "{\"name\":\"calm\",\"seed\":0,\"faults\":[]}",
    );

    let report = FaultReport {
        plan: "storm".to_string(),
        specs: 7,
        counters: FaultCounters {
            injected: 7,
            cleared: 6,
            readings_corrupted: 1200,
            readings_dropped: 30,
            plans_lost: 4,
            plans_delayed: 5,
            plans_reordered: 1,
            plans_duplicate: 2,
            retries_used: 9,
            fallback_ticks: 321,
            fallback_entries: 2,
        },
    };
    pins.text("fault report", &report.to_json(), "{\"plan\":\"storm\",\"specs\":7,\"injected\":7,\"cleared\":6,\"readings_corrupted\":1200,\"readings_dropped\":30,\"plans_lost\":4,\"plans_delayed\":5,\"plans_reordered\":1,\"plans_duplicate\":2,\"retries_used\":9,\"fallback_ticks\":321,\"fallback_entries\":2}");

    let config = ModelConfig::new(3, 4);
    let invariants = vec!["stale-grant".to_string(), "budget".to_string()];
    let clean = McReport {
        discovered: 160_001,
        expanded: 150_000,
        deduped: 9_000,
        terminals: 12,
        max_depth: 16,
        frontier_peak: 4_096,
        truncated: false,
        violations: Vec::new(),
    };
    pins.text(
        "mc report clean",
        &render_mc_report_json(&config, "dfs", &invariants, &clean),
        "{\"model\":\"vdeb\",\"racks\":3,\"rounds\":4,\"dup_budget\":1,\"msg_ttl\":2,\"broken\":\"none\",\"strategy\":\"dfs\",\"invariants\":[\"stale-grant\",\"budget\"],\"discovered\":160001,\"expanded\":150000,\"deduped\":9000,\"terminals\":12,\"max_depth\":16,\"frontier_peak\":4096,\"truncated\":false,\"ok\":true,\"violations\":[]}",
    );
    let broken = McReport {
        truncated: true,
        violations: vec![Violation {
            property: "stale-grant".to_string(),
            detail: "rack 0 spends a stale grant of 45.0 W against a current entitlement of 0.0 W"
                .to_string(),
            trace: vec!["compute".to_string(), "deliver#1@r0".to_string()],
        }],
        ..clean
    };
    pins.text(
        "mc report broken",
        &render_mc_report_json(&config, "bfs", &[], &broken),
        "{\"model\":\"vdeb\",\"racks\":3,\"rounds\":4,\"dup_budget\":1,\"msg_ttl\":2,\"broken\":\"none\",\"strategy\":\"bfs\",\"invariants\":[],\"discovered\":160001,\"expanded\":150000,\"deduped\":9000,\"terminals\":12,\"max_depth\":16,\"frontier_peak\":4096,\"truncated\":true,\"ok\":false,\"violations\":[{\"property\":\"stale-grant\",\"detail\":\"rack 0 spends a stale grant of 45.0 W against a current entitlement of 0.0 W\",\"depth\":2,\"trace\":[\"compute\",\"deliver#1@r0\"]}]}",
    );

    let chaos = ChaosReport {
        scenarios: vec![
            ScenarioResult {
                name: "kill_restart".to_string(),
                lossless: true,
                killed: true,
                identical: true,
                mismatches: Vec::new(),
            },
            ScenarioResult {
                name: "garble".to_string(),
                lossless: false,
                killed: false,
                identical: false,
                mismatches: vec![
                    "chaos.detect.json".to_string(),
                    "chaos.alerts.json".to_string(),
                ],
            },
        ],
    };
    pins.text("chaos report", &chaos.to_json(), "{\"scenarios\":[\n{\"name\":\"kill_restart\",\"lossless\":1,\"killed\":1,\"identical\":1,\"mismatches\":[]},\n{\"name\":\"garble\",\"lossless\":0,\"killed\":0,\"identical\":0,\"mismatches\":[\"chaos.detect.json\",\"chaos.alerts.json\"]}\n]}\n");
    pins.text(
        "chaos report empty",
        &ChaosReport {
            scenarios: Vec::new(),
        }
        .to_json(),
        "{\"scenarios\":[]}\n",
    );

    let phase = |name: &str, calls: u64, total_us: u64, max_us: u64| PhaseProfile {
        name: name.to_string(),
        calls,
        total: Duration::from_micros(total_us),
        max: Duration::from_micros(max_us),
    };
    let perf = PerfReport {
        racks: 22,
        servers: 10,
        scheme_set: "all".to_string(),
        ticks: 2000,
        dt_ms: 100,
        scenarios: 6,
        jobs: 2,
        seed: 1,
        profile: SimProfile {
            phases: ProfDump {
                phases: vec![
                    phase("step.attack", 12_000, 61_234, 97),
                    phase("step.demand", 12_000, 300_001, 250),
                    phase("step.total", 12_000, 1_000_003, 1_001),
                ],
            },
            steps: 12_000,
            rack_seconds: 26_400.0,
        },
        sweep_phases: ProfDump {
            phases: vec![
                phase("sweep.parse", 1, 5_500, 5_500),
                phase("sweep.scenario", 6, 1_100_000, 600_000),
            ],
        },
        throughput: Throughput {
            unit_seconds: 26_400.0,
            steps: 12_000,
            wall: Duration::from_micros(1_234_567),
        },
        workers: vec![
            WorkerProfile {
                scenarios: 4,
                busy: Duration::from_micros(600_000),
                merge: Duration::from_micros(12),
            },
            WorkerProfile {
                scenarios: 2,
                busy: Duration::from_micros(500_001),
                merge: Duration::from_micros(7),
            },
        ],
        utilization: 0.891_234_5,
        queue_wait: Duration::from_micros(333),
    };
    pins.text("perf report", &perf.to_json(), "{\"schema\":\"pad.perf.v1\",\"config\":{\"racks\":22,\"servers\":10,\"scheme_set\":\"all\",\"ticks\":2000,\"dt_ms\":100,\"scenarios\":6,\"jobs\":2,\"seed\":1},\"throughput\":{\"steps\":12000,\"rack_seconds\":26400.000,\"wall_sec\":1.234567,\"rack_seconds_per_wall_sec\":21384.016,\"rack_hours_per_wall_sec\":5.940004,\"steps_per_sec\":9720.0},\"step\":{\"wall_sec\":1.000003,\"coverage\":0.3612},\"sweep\":{\"workers\":2,\"utilization\":0.8912,\"queue_wait_sec\":0.000333,\"busy_sec\":1.100001,\"merge_sec\":0.000019,\"wall_sec\":1.234567},\"workers\":[{\"scenarios\":4,\"busy_sec\":0.600000,\"merge_sec\":0.000012},{\"scenarios\":2,\"busy_sec\":0.500001,\"merge_sec\":0.000007}],\"phases\":[{\"name\":\"step.attack\",\"calls\":12000,\"total_ms\":61.234,\"mean_us\":5.102,\"max_us\":97.000,\"share\":0.0612},{\"name\":\"step.demand\",\"calls\":12000,\"total_ms\":300.001,\"mean_us\":25.000,\"max_us\":250.000,\"share\":0.3000},{\"name\":\"step.total\",\"calls\":12000,\"total_ms\":1000.003,\"mean_us\":83.333,\"max_us\":1001.000,\"share\":1.0000},{\"name\":\"sweep.parse\",\"calls\":1,\"total_ms\":5.500,\"mean_us\":5500.000,\"max_us\":5500.000,\"share\":0.0045},{\"name\":\"sweep.scenario\",\"calls\":6,\"total_ms\":1100.000,\"mean_us\":183333.333,\"max_us\":600000.000,\"share\":0.8910}]}");
    pins.finish();
}

//! Live telemetry: a minimal HTTP/1.1 endpoint over a running simulation.
//!
//! The build environment is fully offline, so this is a deliberately
//! small, dependency-free server: one `TcpListener`, one accept-loop
//! thread, `Connection: close` on every response. That is plenty for
//! its job — letting `curl` (or a dashboard poller) inspect a
//! simulation that emits through a [`SharedTracer`] without stopping
//! it.
//!
//! Endpoints (all `GET`):
//!
//! | path            | body                                                        |
//! |-----------------|-------------------------------------------------------------|
//! | `/metrics`      | published [`MetricsRegistry`] merged with kernel profiles, Prometheus text exposition (with published labels) |
//! | `/metrics.json` | the same registry as JSON                                   |
//! | `/report`       | full analyzer report over the current trace snapshot        |
//! | `/timeseries`   | slot-windowed metrics-snapshot series as JSON               |
//! | `/alerts`       | alert raises/clears reconstructed from the trace            |
//! | `/admission`    | streaming-admission report (tenants, causes, batch fill, queue wait) |
//! | `/flight`       | trace snapshot as JSONL (`?n=N` tails the last N records)   |
//! | `/spans?msg=N`  | paired causal spans for one message                         |
//! | `/shutdown`     | acknowledges, then stops the server                         |
//!
//! Three byte-level guarantees matter for CI:
//!
//! * `/report` renders exactly what `analyze --report` writes for the
//!   same records (both are `build_report(..).to_json().render_pretty()`),
//!   so a drained `/flight` dump replayed offline must reproduce the
//!   live report byte for byte.
//! * `/alerts` renders exactly what `analyze --alerts-json` writes for
//!   the same records (both are `alerts(..).to_json().render_pretty()`);
//!   alert events carry rule indices, not names, so replay needs no
//!   rules file.
//! * `/flight` lines are exactly the [`JsonlTracer`](pms_trace::JsonlTracer)
//!   stream format (`write_record_line` + newline), so the dump
//!   feeds straight into the `analyze` binary.

#![forbid(unsafe_code)]

use pms_analyze::{admission, alerts, build_report, ReportConfig};
use pms_trace::sink::write_record_line;
use pms_trace::{
    prof, series_from_records, Json, MetricsRegistry, SharedTracer, TraceEvent, TraceRecord,
    PROMETHEUS_CONTENT_TYPE,
};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a single request may dawdle before the connection is
/// dropped. Keeps a half-open client from wedging the accept loop.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

/// A running telemetry server.
///
/// Dropping the handle stops the server; [`TelemetryServer::stop`] does
/// the same explicitly and reports join failures.
#[derive(Debug)]
pub struct TelemetryServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    registry: Arc<Mutex<MetricsRegistry>>,
    labels: Arc<Mutex<Vec<(String, String)>>>,
    handle: Option<JoinHandle<()>>,
}

impl TelemetryServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving the tracer's live snapshot on a background
    /// thread.
    pub fn start(addr: &str, tracer: SharedTracer) -> io::Result<TelemetryServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let registry = Arc::new(Mutex::new(MetricsRegistry::new()));
        let labels = Arc::new(Mutex::new(Vec::new()));
        let state = ServerState {
            tracer,
            registry: Arc::clone(&registry),
            labels: Arc::clone(&labels),
            stop: Arc::clone(&stop),
        };
        let handle = std::thread::Builder::new()
            .name("pms-telemetry".to_string())
            .spawn(move || accept_loop(listener, state))?;
        Ok(TelemetryServer {
            addr,
            stop,
            registry,
            labels,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves the actual port when started on
    /// port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Replaces the published metrics registry. The host calls this
    /// whenever it has fresh aggregates (typically once, post-run, with
    /// `SimStats::registry()`); kernel profile counters are merged in
    /// per-request on top of whatever is published here.
    pub fn publish_metrics(&self, reg: MetricsRegistry) {
        *self.registry.lock().expect("telemetry registry poisoned") = reg;
    }

    /// Sets the label set attached to every Prometheus sample on
    /// `/metrics` (e.g. `paradigm`, `ports`, `k`). Labels render in the
    /// order given.
    pub fn publish_labels(&self, labels: &[(&str, String)]) {
        *self.labels.lock().expect("telemetry labels poisoned") = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
    }

    /// Stops the accept loop and joins the server thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    /// Blocks until a client asks the server to stop (`GET /shutdown`),
    /// then returns. This is the linger mode `simulate --serve` uses so
    /// the run's telemetry stays queryable after the simulation ends.
    pub fn wait(mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }

    fn shutdown(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the (possibly idle) accept call with a throwaway
        // connection; if that fails the listener is already gone.
        let _ = TcpStream::connect(self.addr);
        let _ = handle.join();
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Everything a request handler needs, cloneable into the server thread.
struct ServerState {
    tracer: SharedTracer,
    registry: Arc<Mutex<MetricsRegistry>>,
    labels: Arc<Mutex<Vec<(String, String)>>>,
    stop: Arc<AtomicBool>,
}

fn accept_loop(listener: TcpListener, state: ServerState) {
    for stream in listener.incoming() {
        if state.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // A misbehaving client only loses its own connection.
        let _ = handle_connection(stream, &state);
        if state.stop.load(Ordering::SeqCst) {
            break;
        }
    }
}

fn handle_connection(stream: TcpStream, state: &ServerState) -> io::Result<()> {
    stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
    stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain headers so well-behaved clients see a clean close.
    let mut header = String::new();
    loop {
        header.clear();
        if reader.read_line(&mut header)? == 0 || header == "\r\n" || header == "\n" {
            break;
        }
    }
    let mut stream = reader.into_inner();

    let mut parts = request_line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m, t),
        _ => return respond(&mut stream, 400, "text/plain", "malformed request line\n"),
    };
    if method != "GET" {
        return respond(&mut stream, 405, "text/plain", "only GET is supported\n");
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    match path {
        "/metrics" => {
            let body = metrics_prometheus(state);
            respond(&mut stream, 200, PROMETHEUS_CONTENT_TYPE, &body)
        }
        "/metrics.json" => {
            let body = metrics_body(state);
            respond(&mut stream, 200, "application/json", &body)
        }
        "/timeseries" => {
            let records = state.tracer.snapshot();
            respond(
                &mut stream,
                200,
                "application/json",
                &timeseries_body(&records),
            )
        }
        "/alerts" => {
            let records = state.tracer.snapshot();
            let body = alerts(&records).to_json().render_pretty();
            respond(&mut stream, 200, "application/json", &body)
        }
        "/admission" => {
            let records = state.tracer.snapshot();
            let body = admission(&records).to_json().render_pretty();
            respond(&mut stream, 200, "application/json", &body)
        }
        "/report" => {
            let records = state.tracer.snapshot();
            let body = build_report(&records, &ReportConfig::default())
                .to_json()
                .render_pretty();
            respond(&mut stream, 200, "application/json", &body)
        }
        "/flight" => {
            let records = state.tracer.snapshot();
            match flight_body(&records, query) {
                Ok(body) => respond(&mut stream, 200, "application/jsonl", &body),
                Err(msg) => respond(&mut stream, 400, "text/plain", &msg),
            }
        }
        "/spans" => {
            let records = state.tracer.snapshot();
            match spans_body(&records, query) {
                Ok(body) => respond(&mut stream, 200, "application/json", &body),
                Err(msg) => respond(&mut stream, 400, "text/plain", &msg),
            }
        }
        "/shutdown" => {
            state.stop.store(true, Ordering::SeqCst);
            respond(&mut stream, 200, "text/plain", "shutting down\n")
        }
        _ => respond(&mut stream, 404, "text/plain", "unknown endpoint\n"),
    }
}

fn respond(stream: &mut TcpStream, status: u16, content_type: &str, body: &str) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Error",
    };
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

/// The published registry with the process-wide kernel profile counters
/// merged on top (fresh per request, so a poller watches them move).
fn metrics_body(state: &ServerState) -> String {
    merged_registry(state).to_json().render_pretty()
}

/// The same registry in Prometheus text exposition format, with the
/// published label set on every sample.
fn metrics_prometheus(state: &ServerState) -> String {
    let labels = state
        .labels
        .lock()
        .expect("telemetry labels poisoned")
        .clone();
    let labels: Vec<(&str, String)> = labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.clone()))
        .collect();
    merged_registry(state).to_prometheus(&labels)
}

fn merged_registry(state: &ServerState) -> MetricsRegistry {
    let mut reg = state
        .registry
        .lock()
        .expect("telemetry registry poisoned")
        .clone();
    prof::export_metrics(&mut reg);
    reg
}

/// The metrics-snapshot series reconstructed from the trace snapshot.
fn timeseries_body(records: &[TraceRecord]) -> String {
    let series = series_from_records(records);
    Json::obj([
        ("windows", Json::UInt(series.len() as u64)),
        (
            "series",
            Json::Array(series.iter().map(|s| s.to_json()).collect()),
        ),
    ])
    .render_pretty()
}

/// The snapshot in `JsonlTracer` stream format; `?n=N` keeps only the
/// last N records.
fn flight_body(records: &[TraceRecord], query: &str) -> Result<String, String> {
    let tail = match query_param(query, "n") {
        Some(raw) => Some(
            raw.parse::<usize>()
                .map_err(|_| format!("bad n={raw:?}: expected a record count\n"))?,
        ),
        None => None,
    };
    let start = tail.map_or(0, |n| records.len().saturating_sub(n));
    let mut out = String::new();
    for rec in &records[start..] {
        write_record_line(&mut out, rec);
        out.push('\n');
    }
    Ok(out)
}

/// Paired causal spans for one message, `?msg=N` required.
fn spans_body(records: &[TraceRecord], query: &str) -> Result<String, String> {
    let raw = query_param(query, "msg").ok_or("missing msg=N query parameter\n".to_string())?;
    let msg: u32 = raw
        .parse()
        .map_err(|_| format!("bad msg={raw:?}: expected a message id\n"))?;
    // One pass: collect the message's starts in open order, then attach
    // end times by span id.
    struct Row {
        span: u32,
        parent: u32,
        phase: &'static str,
        src: u32,
        dst: u32,
        start_ns: u64,
        end_ns: Option<u64>,
    }
    let mut rows: Vec<Row> = Vec::new();
    for rec in records {
        match rec.event {
            TraceEvent::SpanStart {
                span,
                parent,
                phase,
                msg: m,
                src,
                dst,
            } if m == msg => rows.push(Row {
                span,
                parent,
                phase: phase.label(),
                src,
                dst,
                start_ns: rec.t_ns,
                end_ns: None,
            }),
            TraceEvent::SpanEnd { span, msg: m, .. } if m == msg => {
                if let Some(row) = rows
                    .iter_mut()
                    .find(|r| r.span == span && r.end_ns.is_none())
                {
                    row.end_ns = Some(rec.t_ns);
                }
            }
            _ => {}
        }
    }
    let spans = Json::Array(
        rows.iter()
            .map(|r| {
                Json::obj([
                    ("span", Json::UInt(r.span as u64)),
                    ("parent", Json::UInt(r.parent as u64)),
                    ("phase", Json::str(r.phase)),
                    ("src", Json::UInt(r.src as u64)),
                    ("dst", Json::UInt(r.dst as u64)),
                    ("start_ns", Json::UInt(r.start_ns)),
                    ("end_ns", r.end_ns.map_or(Json::Null, Json::UInt)),
                    (
                        "duration_ns",
                        r.end_ns
                            .map_or(Json::Null, |e| Json::UInt(e.saturating_sub(r.start_ns))),
                    ),
                ])
            })
            .collect(),
    );
    Ok(Json::obj([("msg", Json::UInt(msg as u64)), ("spans", spans)]).render_pretty())
}

fn query_param<'q>(query: &'q str, key: &str) -> Option<&'q str> {
    query
        .split('&')
        .filter_map(|kv| kv.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pms_trace::span::SpanTracker;
    use pms_trace::{record_json, TraceSink, Tracer};
    use std::io::Read;

    /// Blocking mini-client: one GET, returns (status, headers, body).
    fn get_full(addr: SocketAddr, target: &str) -> (u16, String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {target} HTTP/1.1\r\nHost: test\r\n\r\n").expect("send");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read");
        let (head, body) = raw.split_once("\r\n\r\n").expect("header split");
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status code");
        (status, head.to_string(), body.to_string())
    }

    /// Blocking mini-client: one GET, returns (status, body).
    fn get(addr: SocketAddr, target: &str) -> (u16, String) {
        let (status, _, body) = get_full(addr, target);
        (status, body)
    }

    /// A shared tracer pre-filled with a tiny traced run: one message
    /// through all four phases plus one connection span.
    fn traced_fixture() -> SharedTracer {
        let shared = SharedTracer::new();
        let mut tracer = Tracer::shared(shared.clone());
        let mut spans = SpanTracker::new();
        spans.conn_start(&mut tracer, 50, 0, 3, 7);
        spans.msg_start(&mut tracer, 100, 0, 0, 3, 7);
        spans.msg_advance(&mut tracer, 140, 0, 0, pms_trace::SpanPhase::Admit);
        spans.msg_advance(&mut tracer, 180, 1, 0, pms_trace::SpanPhase::Align);
        spans.msg_advance(&mut tracer, 220, 1, 0, pms_trace::SpanPhase::Transfer);
        spans.msg_end(&mut tracer, 400, 2, 0);
        spans.conn_end(&mut tracer, 500, 2, 3, 7);
        spans.finish(&mut tracer, 500, 2);
        shared
    }

    #[test]
    fn metrics_endpoint_merges_published_and_profile_counters() {
        let server = TelemetryServer::start("127.0.0.1:0", SharedTracer::new()).expect("start");
        let mut reg = MetricsRegistry::new();
        let id = reg.counter("sim.delivered_messages");
        reg.set(id, 42);
        server.publish_metrics(reg);
        let (status, body) = get(server.addr(), "/metrics.json");
        assert_eq!(status, 200);
        let js = Json::parse(&body).expect("metrics is JSON");
        let counters = match &js {
            Json::Object(fields) => fields
                .iter()
                .find(|(k, _)| k == "counters")
                .map(|(_, v)| v)
                .expect("counters map"),
            other => panic!("metrics not an object: {other:?}"),
        };
        match counters {
            Json::Object(fields) => {
                assert!(fields
                    .iter()
                    .any(|(k, v)| { k == "sim.delivered_messages" && *v == Json::UInt(42) }));
                // Kernel profile counters ride along even when never hit.
                assert!(fields.iter().any(|(k, _)| k == "prof.sl_pass.calls"));
            }
            other => panic!("counters not an object: {other:?}"),
        }
        server.stop();
    }

    #[test]
    fn metrics_endpoint_serves_prometheus_with_labels() {
        let server = TelemetryServer::start("127.0.0.1:0", SharedTracer::new()).expect("start");
        let mut reg = MetricsRegistry::new();
        let id = reg.counter("sim.delivered_messages");
        reg.set(id, 42);
        server.publish_metrics(reg);
        server.publish_labels(&[
            ("paradigm", "tdm".to_string()),
            ("ports", "8".to_string()),
            ("k", "4".to_string()),
        ]);
        let (status, head, body) = get_full(server.addr(), "/metrics");
        assert_eq!(status, 200);
        assert!(
            head.contains(&format!("Content-Type: {PROMETHEUS_CONTENT_TYPE}")),
            "wrong content type: {head}"
        );
        assert!(
            body.contains("pms_sim_delivered_messages{paradigm=\"tdm\",ports=\"8\",k=\"4\"} 42"),
            "missing labeled sample: {body}"
        );
        // Kernel profile counters ride along in Prometheus form too.
        assert!(body.contains("pms_prof_sl_pass_calls"), "{body}");
        server.stop();
    }

    #[test]
    fn timeseries_endpoint_reconstructs_snapshot_series() {
        let shared = SharedTracer::new();
        let mut sink = shared.clone();
        for (seq, t_ns) in [(0u32, 6400u64), (3, 25600)] {
            sink.record(TraceRecord {
                t_ns,
                slot: 0,
                event: TraceEvent::MetricsSnapshot {
                    seq,
                    delivered: 2,
                    bytes: 128,
                    established: 1,
                    evicted: 0,
                    denied: 0,
                    retries: 0,
                    abandoned: 0,
                    faults_injected: 0,
                    faults_cleared: 0,
                    setups: 1,
                    setup_total_ns: 80,
                    setup_max_ns: 80,
                    passes: 1,
                    enqueued: 0,
                    granted: 0,
                    rejected: 0,
                    batches: 0,
                },
            });
        }
        let server = TelemetryServer::start("127.0.0.1:0", shared).expect("start");
        let (status, body) = get(server.addr(), "/timeseries");
        assert_eq!(status, 200);
        let js = Json::parse(&body).expect("timeseries is JSON");
        let rendered = js.render();
        assert!(rendered.contains("\"windows\":2"), "{rendered}");
        assert!(rendered.contains("\"seq\":0"), "{rendered}");
        assert!(rendered.contains("\"seq\":3"), "{rendered}");
        server.stop();
    }

    #[test]
    fn alerts_endpoint_matches_offline_alerts_byte_for_byte() {
        let shared = SharedTracer::new();
        let mut sink = shared.clone();
        sink.record(TraceRecord {
            t_ns: 100,
            slot: 0,
            event: TraceEvent::AlertRaised {
                rule: 1,
                seq: 0,
                value: 9,
                threshold: 5,
            },
        });
        sink.record(TraceRecord {
            t_ns: 300,
            slot: 0,
            event: TraceEvent::AlertCleared { rule: 1, seq: 2 },
        });
        let server = TelemetryServer::start("127.0.0.1:0", shared.clone()).expect("start");
        let (status, live) = get(server.addr(), "/alerts");
        assert_eq!(status, 200);
        let offline = alerts(&shared.snapshot()).to_json().render_pretty();
        assert_eq!(live, offline);
        assert!(live.contains("\"raises\": 1"), "{live}");
        server.stop();
    }

    #[test]
    fn partial_requests_do_not_wedge_the_server() {
        let shared = traced_fixture();
        let server = TelemetryServer::start("127.0.0.1:0", shared).expect("start");
        // A client that sends half a request line and goes away.
        {
            let mut s = TcpStream::connect(server.addr()).expect("connect");
            write!(s, "GET /met").expect("send partial");
        }
        // A client that connects and sends nothing at all.
        drop(TcpStream::connect(server.addr()).expect("connect"));
        // A client that sends a request line but never ends its headers.
        {
            let mut s = TcpStream::connect(server.addr()).expect("connect");
            write!(s, "GET /metrics HTTP/1.1\r\nHost: test\r\n").expect("send");
        }
        // The server still answers a well-formed request afterwards.
        let (status, body) = get(server.addr(), "/report");
        assert_eq!(status, 200);
        assert!(body.contains("\"records\""));
        server.stop();
    }

    #[test]
    fn flight_tail_bounds_and_unknown_paths() {
        let shared = traced_fixture();
        let total = shared.len();
        let server = TelemetryServer::start("127.0.0.1:0", shared).expect("start");
        let (status, none) = get(server.addr(), "/flight?n=0");
        assert_eq!(status, 200);
        assert!(none.is_empty(), "n=0 should return no records: {none}");
        let (status, all) = get(server.addr(), "/flight?n=1000000");
        assert_eq!(status, 200);
        assert_eq!(all.lines().count(), total);
        let (status, _) = get(server.addr(), "/flight?n=-1");
        assert_eq!(status, 400);
        for path in ["/metrics.jsonx", "/timeserie", "/alerts/all"] {
            let (status, _) = get(server.addr(), path);
            assert_eq!(status, 404, "{path} should 404");
        }
        server.stop();
    }

    #[test]
    fn admission_endpoint_matches_offline_replay_byte_for_byte() {
        let shared = SharedTracer::new();
        let mut tracer = Tracer::shared(shared.clone());
        tracer.emit(
            0,
            0,
            TraceEvent::RequestEnqueued {
                req: 0,
                tenant: 1,
                src: 0,
                dst: 3,
            },
        );
        tracer.emit(
            100,
            0,
            TraceEvent::RequestGranted {
                req: 0,
                tenant: 1,
                src: 0,
                dst: 3,
                wait_ns: 100,
            },
        );
        tracer.emit(
            100,
            0,
            TraceEvent::BatchAdmitted {
                batch: 0,
                capacity: 4,
                selected: 1,
                granted: 1,
                denied: 0,
                pending: 0,
            },
        );
        let server = TelemetryServer::start("127.0.0.1:0", shared.clone()).expect("start");
        let (status, live) = get(server.addr(), "/admission");
        assert_eq!(status, 200);
        let offline = admission(&shared.snapshot()).to_json().render_pretty();
        assert_eq!(live, offline);
        assert!(live.contains("\"batches\": 1"), "{live}");
        server.stop();
    }

    #[test]
    fn report_endpoint_matches_offline_replay_byte_for_byte() {
        let shared = traced_fixture();
        let server = TelemetryServer::start("127.0.0.1:0", shared.clone()).expect("start");
        let (status, live) = get(server.addr(), "/report");
        assert_eq!(status, 200);
        let offline = build_report(&shared.snapshot(), &ReportConfig::default())
            .to_json()
            .render_pretty();
        assert_eq!(live, offline);
        server.stop();
    }

    #[test]
    fn flight_endpoint_streams_jsonl_and_tails() {
        let shared = traced_fixture();
        let total = shared.len();
        let server = TelemetryServer::start("127.0.0.1:0", shared.clone()).expect("start");
        let (status, body) = get(server.addr(), "/flight");
        assert_eq!(status, 200);
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), total);
        // Every line round-trips as the JSONL record format.
        for (line, rec) in lines.iter().zip(shared.snapshot()) {
            assert_eq!(*line, record_json(&rec).render());
        }
        let (status, tail) = get(server.addr(), "/flight?n=2");
        assert_eq!(status, 200);
        assert_eq!(tail.lines().count(), 2);
        assert_eq!(tail.lines().last(), Some(*lines.last().unwrap()));
        let (status, _) = get(server.addr(), "/flight?n=bogus");
        assert_eq!(status, 400);
        server.stop();
    }

    #[test]
    fn spans_endpoint_pairs_one_messages_spans() {
        let shared = traced_fixture();
        let server = TelemetryServer::start("127.0.0.1:0", shared).expect("start");
        let (status, body) = get(server.addr(), "/spans?msg=0");
        assert_eq!(status, 200);
        let js = Json::parse(&body).expect("spans is JSON");
        let rendered = js.render();
        // Root plus the four tiling phases, all closed.
        assert!(rendered.contains("\"msg\""), "{rendered}");
        for phase in ["msg", "arrival", "admit", "align", "transfer"] {
            assert!(
                body.contains(&format!("\"{phase}\"")),
                "missing {phase}: {body}"
            );
        }
        assert!(!body.contains("null"), "all spans should be closed: {body}");
        let (status, _) = get(server.addr(), "/spans");
        assert_eq!(status, 400);
        let (status, empty) = get(server.addr(), "/spans?msg=99");
        assert_eq!(status, 200);
        assert!(empty.contains("[]") || !empty.contains("span\""), "{empty}");
        server.stop();
    }

    #[test]
    fn shutdown_endpoint_and_unknown_paths() {
        let server = TelemetryServer::start("127.0.0.1:0", SharedTracer::new()).expect("start");
        let (status, _) = get(server.addr(), "/nope");
        assert_eq!(status, 404);
        let addr = server.addr();
        let (status, body) = get(addr, "/shutdown");
        assert_eq!(status, 200);
        assert!(body.contains("shutting down"));
        // The accept loop exits; joining must not hang.
        server.stop();
        // And the port stops answering (give the OS a beat to tear down).
        std::thread::sleep(Duration::from_millis(50));
        let refused = TcpStream::connect(addr)
            .map(|mut s| {
                // Connected sockets from the backlog may linger; a read
                // should still fail or return EOF.
                let _ = write!(s, "GET /metrics HTTP/1.1\r\n\r\n");
                let mut buf = String::new();
                s.read_to_string(&mut buf)
                    .map(|_| buf.is_empty())
                    .unwrap_or(true)
            })
            .unwrap_or(true);
        assert!(refused, "server kept serving after shutdown");
    }

    #[test]
    fn live_snapshot_sees_records_emitted_after_start() {
        let shared = SharedTracer::new();
        let server = TelemetryServer::start("127.0.0.1:0", shared.clone()).expect("start");
        let (_, before) = get(server.addr(), "/flight");
        assert!(before.is_empty());
        let mut sink = shared.clone();
        sink.record(TraceRecord {
            t_ns: 10,
            slot: 0,
            event: TraceEvent::SlotAdvanced { slot_idx: 1 },
        });
        let (_, after) = get(server.addr(), "/flight");
        assert_eq!(after.lines().count(), 1);
        server.stop();
    }
}

//! Chrome-trace export: renders a recorded timeline as the JSON array
//! flavor of the Trace Event Format, loadable in `chrome://tracing` and
//! Perfetto's legacy importer.
//!
//! Mapping:
//!
//! * every record except a span becomes an instant event (`"ph": "i"`,
//!   thread scope) named after [`TraceEvent::kind`], with `slot` and the
//!   kind's schema fields ([`crate::KindSchema`]) under `args`;
//!   `metrics-snapshot` keeps only its headline fields;
//! * `msg-delivered` additionally emits a complete event (`"ph": "X"`)
//!   spanning injection to delivery, so message lifetimes render as bars;
//! * `span-start`/`span-end` become duration begin/end events (`"B"`/`"E"`);
//! * `tid` groups events by actor: the source port for every kind with a
//!   `src` field, the scheduler pseudo-thread for the others. `pid` is
//!   always 0.
//!
//! Timestamps are microseconds (floats), as the format requires.

use crate::event::{Field, SpanPhase, TraceEvent, TraceRecord};
use crate::json::Json;
use std::io;
use std::path::Path;

/// Pseudo-thread id used for scheduler/slot/phase events.
const SCHED_TID: u64 = 9_999;

fn us(t_ns: u64) -> f64 {
    t_ns as f64 / 1e3
}

/// Base of the per-connection-span tid range (above any port or message
/// row).
const CONN_TID_BASE: u64 = 1 << 20;

/// Row assignment for span begin/end pairs: message spans share the
/// message's row; each connection span gets its own.
fn span_tid(span: u32, msg: u32) -> u64 {
    if msg == u32::MAX {
        CONN_TID_BASE + (span & !crate::span::CONN_SPAN_BIT) as u64
    } else {
        msg as u64
    }
}

fn instant(rec: &TraceRecord, tid: u64, args: Vec<(&'static str, Json)>) -> Json {
    let mut fields = vec![
        ("name", Json::str(rec.event.kind())),
        ("ph", Json::str("i")),
        ("s", Json::str("t")),
        ("ts", Json::Float(us(rec.t_ns))),
        ("pid", Json::UInt(0)),
        ("tid", Json::UInt(tid)),
    ];
    let mut all_args = vec![("slot", Json::UInt(rec.slot as u64))];
    all_args.extend(args);
    fields.push(("args", Json::obj(all_args)));
    Json::obj(fields)
}

/// An instant whose args are the event's schema fields. It sits on the
/// source port's row when the kind has a `src` field, else on the
/// scheduler pseudo-thread.
fn schema_instant(rec: &TraceRecord) -> Json {
    rec.event.with_fields(|kind, values| {
        let mut tid = SCHED_TID;
        let args = kind
            .schema()
            .fields
            .iter()
            .zip(values)
            .map(|(spec, &value)| {
                if let ("src", Field::U(src)) = (spec.name, value) {
                    tid = src;
                }
                (spec.name, value.into())
            })
            .collect();
        instant(rec, tid, args)
    })
}

/// A span begin (`"B"`) or end (`"E"`) event named after its phase.
fn span_event(
    rec: &TraceRecord,
    ph: &str,
    phase: SpanPhase,
    tid: u64,
    args: Vec<(&'static str, Json)>,
) -> Json {
    Json::obj([
        ("name", Json::str(phase.label())),
        ("cat", Json::str("span")),
        ("ph", Json::str(ph)),
        ("ts", Json::Float(us(rec.t_ns))),
        ("pid", Json::UInt(0)),
        ("tid", Json::UInt(tid)),
        ("args", Json::obj(args)),
    ])
}

/// Renders records as a Chrome trace JSON array.
pub fn chrome_trace_json(records: &[TraceRecord]) -> Json {
    let mut events = Vec::with_capacity(records.len() + records.len() / 4);
    for rec in records {
        match rec.event {
            // Spans render as nested duration events ("B"/"E") named
            // after the phase. Chrome pairs an "E" with the most recent
            // "B" on the same tid, so each message's spans share one row
            // (its phases tile sequentially inside the root and nest
            // correctly) while each connection span — which may overlap
            // others — gets a row of its own.
            TraceEvent::SpanStart {
                span,
                parent,
                phase,
                msg,
                src,
                dst,
            } => {
                let args = vec![
                    ("span", span.into()),
                    ("parent", parent.into()),
                    ("msg", msg.into()),
                    ("src", src.into()),
                    ("dst", dst.into()),
                ];
                events.push(span_event(rec, "B", phase, span_tid(span, msg), args));
            }
            TraceEvent::SpanEnd { span, phase, msg } => {
                let args = vec![("span", span.into()), ("msg", msg.into())];
                events.push(span_event(rec, "E", phase, span_tid(span, msg), args));
            }
            // The snapshot keeps only its headline fields (the full
            // payload lives in the JSONL trace).
            TraceEvent::MetricsSnapshot(ref w) => {
                let args = vec![
                    ("seq", w.seq.into()),
                    ("delivered", w.delivered.into()),
                    ("bytes", w.bytes.into()),
                    ("denied", w.denied.into()),
                    ("retries", w.retries.into()),
                ];
                events.push(instant(rec, SCHED_TID, args));
            }
            _ => {
                events.push(schema_instant(rec));
                if let TraceEvent::MsgDelivered {
                    src,
                    dst,
                    bytes,
                    msg,
                    latency_ns,
                } = rec.event
                {
                    // The message's lifetime as a duration bar on its
                    // source port's row.
                    events.push(Json::obj([
                        ("name", Json::str(format!("msg {msg} -> {dst}"))),
                        ("cat", Json::str("message")),
                        ("ph", Json::str("X")),
                        ("ts", Json::Float(us(rec.t_ns.saturating_sub(latency_ns)))),
                        ("dur", Json::Float(latency_ns as f64 / 1e3)),
                        ("pid", Json::UInt(0)),
                        ("tid", Json::UInt(src as u64)),
                        (
                            "args",
                            Json::obj([("bytes", bytes.into()), ("latency_ns", latency_ns.into())]),
                        ),
                    ]));
                }
            }
        }
    }
    Json::Array(events)
}

/// Writes records to `path` as a Chrome trace JSON array.
pub fn write_chrome_trace(path: impl AsRef<Path>, records: &[TraceRecord]) -> io::Result<()> {
    std::fs::write(path, chrome_trace_json(records).render_pretty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EvictCause, FaultClass, MetricsWindow};

    fn sample_records() -> Vec<TraceRecord> {
        let mk = |t_ns, slot, event| TraceRecord { t_ns, slot, event };
        vec![
            mk(
                0,
                0,
                TraceEvent::MsgInjected {
                    src: 0,
                    dst: 5,
                    bytes: 64,
                    msg: 0,
                },
            ),
            mk(10, 0, TraceEvent::ConnRequested { src: 0, dst: 5 }),
            mk(
                90,
                0,
                TraceEvent::SchedPass {
                    passes: 1,
                    ripple_depth: 1,
                    established: 1,
                    released: 0,
                    denied: 0,
                },
            ),
            mk(
                90,
                0,
                TraceEvent::ConnEstablished {
                    src: 0,
                    dst: 5,
                    slot_idx: 0,
                },
            ),
            mk(100, 1, TraceEvent::SlotAdvanced { slot_idx: 1 }),
            mk(
                120,
                1,
                TraceEvent::PreloadApplied {
                    slot_idx: 2,
                    connections: 8,
                },
            ),
            mk(
                300,
                2,
                TraceEvent::MsgDelivered {
                    src: 0,
                    dst: 5,
                    bytes: 64,
                    msg: 0,
                    latency_ns: 300,
                },
            ),
            mk(
                400,
                2,
                TraceEvent::ConnEvicted {
                    src: 0,
                    dst: 5,
                    cause: EvictCause::Timeout,
                },
            ),
            mk(500, 3, TraceEvent::PhaseFlush { cleared: 4 }),
            mk(
                600,
                3,
                TraceEvent::FaultInjected {
                    fault: 1,
                    class: FaultClass::LinkDown,
                    src: 0,
                    dst: 5,
                },
            ),
            mk(
                650,
                3,
                TraceEvent::MsgRetried {
                    src: 0,
                    dst: 5,
                    msg: 1,
                    attempt: 1,
                },
            ),
            mk(
                700,
                3,
                TraceEvent::MsgAbandoned {
                    src: 0,
                    dst: 5,
                    msg: 1,
                    retries: 3,
                },
            ),
            mk(
                800,
                4,
                TraceEvent::FaultCleared {
                    fault: 1,
                    class: FaultClass::LinkDown,
                    src: 0,
                    dst: 5,
                },
            ),
            mk(
                900,
                4,
                TraceEvent::SpanStart {
                    span: 1,
                    parent: u32::MAX,
                    phase: crate::event::SpanPhase::Msg,
                    msg: 0,
                    src: 0,
                    dst: 5,
                },
            ),
            mk(
                950,
                4,
                TraceEvent::SpanEnd {
                    span: 1,
                    phase: crate::event::SpanPhase::Msg,
                    msg: 0,
                },
            ),
            mk(
                1000,
                5,
                TraceEvent::MetricsSnapshot(Box::new(MetricsWindow {
                    seq: 0,
                    delivered: 1,
                    bytes: 64,
                    established: 1,
                    evicted: 1,
                    denied: 0,
                    retries: 1,
                    abandoned: 1,
                    faults_injected: 1,
                    faults_cleared: 1,
                    setups: 1,
                    setup_total_ns: 80,
                    setup_max_ns: 80,
                    passes: 1,
                    enqueued: 1,
                    granted: 1,
                    rejected: 0,
                    batches: 1,
                })),
            ),
            mk(
                1000,
                5,
                TraceEvent::AlertRaised {
                    rule: 0,
                    seq: 0,
                    value: 1,
                    threshold: 1,
                },
            ),
            mk(2000, 6, TraceEvent::AlertCleared { rule: 0, seq: 1 }),
        ]
    }

    #[test]
    fn every_kind_appears_in_the_export() {
        let json = chrome_trace_json(&sample_records());
        let Json::Array(events) = &json else {
            panic!("chrome trace must be a JSON array")
        };
        // 16 instants + 1 duration bar for the delivery + a span B/E pair.
        assert_eq!(events.len(), 19);
        let rendered = json.render();
        assert!(rendered.contains(r#""ph":"B""#), "span begin missing");
        assert!(rendered.contains(r#""ph":"E""#), "span end missing");
        for kind in [
            "msg-injected",
            "msg-delivered",
            "conn-requested",
            "conn-established",
            "conn-evicted",
            "slot-advanced",
            "sched-pass",
            "preload-applied",
            "phase-flush",
            "fault-injected",
            "fault-cleared",
            "msg-retried",
            "msg-abandoned",
            "metrics-snapshot",
            "alert-raised",
            "alert-cleared",
        ] {
            assert!(rendered.contains(kind), "missing event kind {kind}");
        }
    }

    #[test]
    fn timestamps_are_microseconds() {
        let json = chrome_trace_json(&sample_records());
        let rendered = json.render();
        // 90 ns -> 0.09 us.
        assert!(rendered.contains(r#""ts":0.09"#), "{rendered}");
    }

    #[test]
    fn delivery_emits_a_duration_bar() {
        let rendered = chrome_trace_json(&sample_records()).render();
        assert!(rendered.contains(r#""ph":"X""#));
        assert!(rendered.contains(r#""dur":0.3"#));
    }

    #[test]
    fn export_writes_a_loadable_file() {
        let path = std::env::temp_dir().join("pms-trace-chrome-test.json");
        write_chrome_trace(&path, &sample_records()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.trim_start().starts_with('['));
        assert!(text.trim_end().ends_with(']'));
        std::fs::remove_file(&path).ok();
    }
}

//! Replaying JSONL trace files back into typed [`TraceRecord`]s.
//!
//! The inverse of [`pms_trace::record_json`]: each line is parsed with
//! the hand-rolled JSON parser and matched on its `kind`. Lines with an
//! unknown kind (e.g. the flight recorder's `flight-trigger` markers, or
//! kinds added by a newer writer) are *skipped and counted*, not
//! errors — a replay tool must be able to read traces from its future.
//! Malformed JSON or a known kind with missing fields is an error: that
//! trace is corrupt, and silently dropping records would skew every
//! derived metric.

use pms_trace::{EvictCause, FaultClass, Json, RejectCause, TraceEvent, TraceRecord};

/// The outcome of replaying a JSONL document.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Records in file order.
    pub records: Vec<TraceRecord>,
    /// Lines skipped because their `kind` was not recognized.
    pub skipped_unknown: u64,
}

/// Parses one JSONL line. Returns `Ok(None)` for unknown kinds.
pub fn parse_line(line: &str) -> Result<Option<TraceRecord>, String> {
    let v = Json::parse(line).map_err(|e| e.to_string())?;
    let kind = v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("missing `kind` field")?;
    let field = |name: &str| -> Result<u64, String> {
        v.get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("`{kind}` record missing integer field `{name}`"))
    };
    let field32 = |name: &str| -> Result<u32, String> { field(name).map(|x| x as u32) };
    let event = match kind {
        "msg-injected" => TraceEvent::MsgInjected {
            src: field32("src")?,
            dst: field32("dst")?,
            bytes: field32("bytes")?,
            msg: field32("msg")?,
        },
        "msg-delivered" => TraceEvent::MsgDelivered {
            src: field32("src")?,
            dst: field32("dst")?,
            bytes: field32("bytes")?,
            msg: field32("msg")?,
            latency_ns: field("latency_ns")?,
        },
        "conn-requested" => TraceEvent::ConnRequested {
            src: field32("src")?,
            dst: field32("dst")?,
        },
        "conn-established" => TraceEvent::ConnEstablished {
            src: field32("src")?,
            dst: field32("dst")?,
            slot_idx: field32("slot_idx")?,
        },
        "conn-evicted" => {
            let label = v
                .get("cause")
                .and_then(Json::as_str)
                .ok_or("`conn-evicted` record missing `cause`")?;
            TraceEvent::ConnEvicted {
                src: field32("src")?,
                dst: field32("dst")?,
                cause: EvictCause::from_label(label)
                    .ok_or_else(|| format!("unknown eviction cause `{label}`"))?,
            }
        }
        "slot-advanced" => TraceEvent::SlotAdvanced {
            slot_idx: field32("slot_idx")?,
        },
        "sched-pass" => TraceEvent::SchedPass {
            passes: field("passes")?,
            ripple_depth: field32("ripple_depth")?,
            established: field32("established")?,
            released: field32("released")?,
            denied: field32("denied")?,
        },
        "preload-applied" => TraceEvent::PreloadApplied {
            slot_idx: field32("slot_idx")?,
            connections: field32("connections")?,
        },
        "phase-flush" => TraceEvent::PhaseFlush {
            cleared: field32("cleared")?,
        },
        "fault-injected" | "fault-cleared" => {
            let label = v
                .get("class")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("`{kind}` record missing `class`"))?;
            let class = FaultClass::from_label(label)
                .ok_or_else(|| format!("unknown fault class `{label}`"))?;
            let (fault, src, dst) = (field32("fault")?, field32("src")?, field32("dst")?);
            if kind == "fault-injected" {
                TraceEvent::FaultInjected {
                    fault,
                    class,
                    src,
                    dst,
                }
            } else {
                TraceEvent::FaultCleared {
                    fault,
                    class,
                    src,
                    dst,
                }
            }
        }
        "msg-retried" => TraceEvent::MsgRetried {
            src: field32("src")?,
            dst: field32("dst")?,
            msg: field32("msg")?,
            attempt: field32("attempt")?,
        },
        "msg-abandoned" => TraceEvent::MsgAbandoned {
            src: field32("src")?,
            dst: field32("dst")?,
            msg: field32("msg")?,
            retries: field32("retries")?,
        },
        "span-start" | "span-end" => {
            let label = v
                .get("phase")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("`{kind}` record missing `phase`"))?;
            let phase = pms_trace::SpanPhase::from_label(label)
                .ok_or_else(|| format!("unknown span phase `{label}`"))?;
            if kind == "span-start" {
                TraceEvent::SpanStart {
                    span: field32("span")?,
                    parent: field32("parent")?,
                    phase,
                    msg: field32("msg")?,
                    src: field32("src")?,
                    dst: field32("dst")?,
                }
            } else {
                TraceEvent::SpanEnd {
                    span: field32("span")?,
                    phase,
                    msg: field32("msg")?,
                }
            }
        }
        "request-enqueued" => TraceEvent::RequestEnqueued {
            req: field32("req")?,
            tenant: field32("tenant")?,
            src: field32("src")?,
            dst: field32("dst")?,
        },
        "request-granted" => TraceEvent::RequestGranted {
            req: field32("req")?,
            tenant: field32("tenant")?,
            src: field32("src")?,
            dst: field32("dst")?,
            wait_ns: field("wait_ns")?,
        },
        "request-rejected" => {
            let label = v
                .get("cause")
                .and_then(Json::as_str)
                .ok_or("`request-rejected` record missing `cause`")?;
            TraceEvent::RequestRejected {
                req: field32("req")?,
                tenant: field32("tenant")?,
                src: field32("src")?,
                dst: field32("dst")?,
                cause: RejectCause::from_label(label)
                    .ok_or_else(|| format!("unknown reject cause `{label}`"))?,
            }
        }
        "batch-admitted" => TraceEvent::BatchAdmitted {
            batch: field32("batch")?,
            capacity: field32("capacity")?,
            selected: field32("selected")?,
            granted: field32("granted")?,
            denied: field32("denied")?,
            pending: field32("pending")?,
        },
        "metrics-snapshot" => TraceEvent::MetricsSnapshot {
            seq: field32("seq")?,
            delivered: field32("delivered")?,
            bytes: field("bytes")?,
            established: field32("established")?,
            evicted: field32("evicted")?,
            denied: field32("denied")?,
            retries: field32("retries")?,
            abandoned: field32("abandoned")?,
            faults_injected: field32("faults_injected")?,
            faults_cleared: field32("faults_cleared")?,
            setups: field32("setups")?,
            setup_total_ns: field("setup_total_ns")?,
            setup_max_ns: field("setup_max_ns")?,
            passes: field32("passes")?,
            enqueued: field32("enqueued")?,
            granted: field32("granted")?,
            rejected: field32("rejected")?,
            batches: field32("batches")?,
        },
        "alert-raised" => TraceEvent::AlertRaised {
            rule: field32("rule")?,
            seq: field32("seq")?,
            value: field("value")?,
            threshold: field("threshold")?,
        },
        "alert-cleared" => TraceEvent::AlertCleared {
            rule: field32("rule")?,
            seq: field32("seq")?,
        },
        _ => return Ok(None),
    };
    Ok(Some(TraceRecord {
        t_ns: field("t_ns")?,
        slot: field32("slot")?,
        event,
    }))
}

/// Replays a whole JSONL document (one record per non-empty line).
/// Errors carry the 1-based line number.
pub fn parse_jsonl(text: &str) -> Result<Replay, String> {
    let mut out = Replay::default();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(line).map_err(|e| format!("line {}: {e}", i + 1))? {
            Some(rec) => out.records.push(rec),
            None => out.skipped_unknown += 1,
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pms_trace::{record_json, write_record_line};

    fn sample_records() -> Vec<TraceRecord> {
        let mk = |t_ns, slot, event| TraceRecord { t_ns, slot, event };
        vec![
            mk(
                0,
                0,
                TraceEvent::MsgInjected {
                    src: 3,
                    dst: 7,
                    bytes: 512,
                    msg: 0,
                },
            ),
            mk(80, 0, TraceEvent::ConnRequested { src: 3, dst: 7 }),
            mk(
                160,
                1,
                TraceEvent::SchedPass {
                    passes: 2,
                    ripple_depth: 5,
                    established: 1,
                    released: 0,
                    denied: 2,
                },
            ),
            mk(
                160,
                1,
                TraceEvent::ConnEstablished {
                    src: 3,
                    dst: 7,
                    slot_idx: 1,
                },
            ),
            mk(200, 1, TraceEvent::SlotAdvanced { slot_idx: 1 }),
            mk(
                u64::MAX,
                2,
                TraceEvent::MsgDelivered {
                    src: 3,
                    dst: 7,
                    bytes: 512,
                    msg: 0,
                    latency_ns: u64::MAX - 1,
                },
            ),
            mk(
                300,
                2,
                TraceEvent::PreloadApplied {
                    slot_idx: 2,
                    connections: 16,
                },
            ),
            mk(
                400,
                0,
                TraceEvent::ConnEvicted {
                    src: 3,
                    dst: 7,
                    cause: EvictCause::RefCount,
                },
            ),
            mk(500, 0, TraceEvent::PhaseFlush { cleared: 9 }),
            mk(
                600,
                1,
                TraceEvent::FaultInjected {
                    fault: 2,
                    class: pms_trace::FaultClass::LinkDown,
                    src: 3,
                    dst: 7,
                },
            ),
            mk(
                650,
                1,
                TraceEvent::MsgRetried {
                    src: 3,
                    dst: 7,
                    msg: 0,
                    attempt: 1,
                },
            ),
            mk(
                700,
                2,
                TraceEvent::MsgAbandoned {
                    src: 3,
                    dst: 7,
                    msg: 0,
                    retries: 4,
                },
            ),
            mk(
                800,
                2,
                TraceEvent::FaultCleared {
                    fault: 2,
                    class: pms_trace::FaultClass::LinkDown,
                    src: 3,
                    dst: 7,
                },
            ),
            mk(
                900,
                0,
                TraceEvent::SpanStart {
                    span: 1,
                    parent: u32::MAX,
                    phase: pms_trace::SpanPhase::Msg,
                    msg: 0,
                    src: 3,
                    dst: 7,
                },
            ),
            mk(
                950,
                0,
                TraceEvent::SpanEnd {
                    span: 1,
                    phase: pms_trace::SpanPhase::Msg,
                    msg: 0,
                },
            ),
            mk(
                960,
                0,
                TraceEvent::RequestEnqueued {
                    req: 9,
                    tenant: 2,
                    src: 3,
                    dst: 7,
                },
            ),
            mk(
                970,
                0,
                TraceEvent::RequestGranted {
                    req: 9,
                    tenant: 2,
                    src: 3,
                    dst: 7,
                    wait_ns: 10,
                },
            ),
            mk(
                980,
                0,
                TraceEvent::RequestRejected {
                    req: 10,
                    tenant: 2,
                    src: 3,
                    dst: 7,
                    cause: pms_trace::RejectCause::Shed,
                },
            ),
            mk(
                990,
                0,
                TraceEvent::BatchAdmitted {
                    batch: 4,
                    capacity: 8,
                    selected: 5,
                    granted: 4,
                    denied: 1,
                    pending: 3,
                },
            ),
            mk(
                1000,
                1,
                TraceEvent::MetricsSnapshot {
                    seq: 3,
                    delivered: 2,
                    bytes: 1024,
                    established: 1,
                    evicted: 1,
                    denied: 2,
                    retries: 1,
                    abandoned: 1,
                    faults_injected: 1,
                    faults_cleared: 1,
                    setups: 1,
                    setup_total_ns: 80,
                    setup_max_ns: 80,
                    passes: 2,
                    enqueued: 1,
                    granted: 1,
                    rejected: 1,
                    batches: 1,
                },
            ),
            mk(
                1000,
                1,
                TraceEvent::AlertRaised {
                    rule: 1,
                    seq: 3,
                    value: u64::MAX,
                    threshold: u64::MAX - 2,
                },
            ),
            mk(1100, 1, TraceEvent::AlertCleared { rule: 1, seq: 4 }),
        ]
    }

    #[test]
    fn every_kind_roundtrips_through_jsonl() {
        let records = sample_records();
        let mut text = String::new();
        for r in &records {
            write_record_line(&mut text, r);
            text.push('\n');
        }
        let replay = parse_jsonl(&text).unwrap();
        assert_eq!(replay.records, records);
        assert_eq!(replay.skipped_unknown, 0);
    }

    /// The line writer renders exactly the `record_json` tree: every
    /// kind, and every cause, class and phase label.
    #[test]
    fn line_writer_matches_record_json() {
        let mk = |event| TraceRecord {
            t_ns: 7,
            slot: 1,
            event,
        };
        let mut records = sample_records();
        for cause in EvictCause::ALL {
            records.push(mk(TraceEvent::ConnEvicted {
                src: 1,
                dst: 2,
                cause,
            }));
        }
        for class in FaultClass::ALL {
            for event in [
                TraceEvent::FaultInjected {
                    fault: 3,
                    class,
                    src: 1,
                    dst: 2,
                },
                TraceEvent::FaultCleared {
                    fault: 3,
                    class,
                    src: 1,
                    dst: 2,
                },
            ] {
                records.push(mk(event));
            }
        }
        for cause in RejectCause::ALL {
            records.push(mk(TraceEvent::RequestRejected {
                req: 4,
                tenant: 0,
                src: 1,
                dst: 2,
                cause,
            }));
        }
        for phase in pms_trace::SpanPhase::ALL {
            records.push(mk(TraceEvent::SpanStart {
                span: 5,
                parent: u32::MAX,
                phase,
                msg: 6,
                src: 1,
                dst: 2,
            }));
            records.push(mk(TraceEvent::SpanEnd {
                span: 5,
                phase,
                msg: 6,
            }));
        }
        let mut line = String::new();
        for rec in &records {
            line.clear();
            write_record_line(&mut line, rec);
            assert_eq!(line, record_json(rec).render());
        }
    }

    #[test]
    fn unknown_kinds_are_skipped_not_fatal() {
        let text = "{\"kind\":\"flight-trigger\",\"t_ns\":1,\"slot\":0}\n\
                    {\"kind\":\"slot-advanced\",\"t_ns\":5,\"slot\":2,\"slot_idx\":2}\n";
        let replay = parse_jsonl(text).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.skipped_unknown, 1);
    }

    #[test]
    fn corrupt_lines_are_errors_with_line_numbers() {
        let good = "{\"kind\":\"slot-advanced\",\"t_ns\":5,\"slot\":2,\"slot_idx\":2}";
        let err = parse_jsonl(&format!("{good}\n{{truncated")).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        // A known kind missing a required field is also corrupt.
        let err = parse_jsonl("{\"kind\":\"conn-requested\",\"t_ns\":1,\"slot\":0}").unwrap_err();
        assert!(err.contains("missing integer field `src`"), "{err}");
        // An unknown eviction cause is corrupt (causes are a closed set).
        let bad =
            "{\"kind\":\"conn-evicted\",\"t_ns\":1,\"slot\":0,\"src\":0,\"dst\":1,\"cause\":\"x\"}";
        assert!(parse_jsonl(bad).unwrap_err().contains("eviction cause"));
        // An unknown fault class is corrupt too (classes are a closed set).
        let bad = "{\"kind\":\"fault-injected\",\"t_ns\":1,\"slot\":0,\
                   \"fault\":0,\"class\":\"gremlin\",\"src\":0,\"dst\":1}";
        assert!(parse_jsonl(bad).unwrap_err().contains("fault class"));
        // An unknown reject cause is corrupt (causes are a closed set).
        let bad = "{\"kind\":\"request-rejected\",\"t_ns\":1,\"slot\":0,\
                   \"req\":0,\"tenant\":0,\"src\":0,\"dst\":1,\"cause\":\"vibes\"}";
        assert!(parse_jsonl(bad).unwrap_err().contains("reject cause"));
        // An unknown span phase is corrupt as well.
        let bad = "{\"kind\":\"span-end\",\"t_ns\":1,\"slot\":0,\
                   \"span\":1,\"phase\":\"warp\",\"msg\":0}";
        assert!(parse_jsonl(bad).unwrap_err().contains("span phase"));
    }

    #[test]
    fn blank_lines_are_ignored() {
        let replay = parse_jsonl("\n\n").unwrap();
        assert!(replay.records.is_empty());
    }
}

//! The replay reader as it was before the trace schema: one `Json` tree
//! per line and a hand-kept field list per kind, kept verbatim as the
//! differential reference for [`super::parse_line`]. It truncates an
//! out-of-range `u32` field (`as u32`) where the schema reader rejects
//! it, so the two agree on exactly the lines whose values fit.

use pms_trace::{
    EvictCause, FaultClass, Json, MetricsWindow, RejectCause, TraceEvent, TraceRecord,
};

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
        "metrics-snapshot" => TraceEvent::MetricsSnapshot(Box::new(MetricsWindow {
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
        })),
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

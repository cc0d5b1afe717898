//! The flight recorder: a bounded ring of recent events that is flushed
//! to JSONL only when an alert fires.
//!
//! Long runs cannot afford to stream every event to disk, but the events
//! *leading up to* a pathology are exactly what a post-mortem needs. The
//! recorder keeps the last `capacity` records in memory and dumps the
//! ring whenever an [`AlertRaised`](TraceEvent::AlertRaised) record flows
//! through — prefixed by a `flight-trigger` marker line identifying the
//! rule that fired, the value it saw, and the threshold it breached.
//!
//! Who raises the alerts is the snapshot/alert pipeline
//! ([`Tracer::pipeline`](crate::Tracer::pipeline)) stacked in front: the
//! declarative rules in `pms_trace::alerts` subsume the hardcoded p99
//! setup-latency trigger earlier revisions wired into this type.
//! `simulate --flight-recorder` uses
//! [`AlertRules::default_flight`](crate::alerts::AlertRules::default_flight)
//! when no rules file is given.

use crate::cli::{self, LineError};
use crate::event::TraceEvent;
use crate::sink::{write_record_line, RingTracer, TraceSink};
use crate::{Json, TraceRecord};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::PathBuf;

/// Parses a flight-recorder JSONL dump back into one [`Json`] value per
/// line (markers included, blank lines skipped).
///
/// A replay must not die mid-stream without saying *where*: a bad line is
/// a [`LineError`] carrying its 1-based line number and trimmed content,
/// since a JSON error's byte offset is relative to a line the caller
/// could no longer identify.
pub fn parse_flight_dump(text: &str) -> Result<Vec<Json>, LineError> {
    let mut docs = Vec::new();
    cli::read_jsonl_lines(text, |line| {
        docs.push(Json::parse(line).map_err(|e| e.to_string())?);
        Ok(())
    })?;
    Ok(docs)
}

/// Tuning for the [`FlightRecorder`].
#[derive(Debug, Clone)]
pub struct FlightConfig {
    /// Ring capacity: how many recent records each dump carries.
    pub capacity: usize,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig { capacity: 4096 }
    }
}

/// A [`TraceSink`] implementing the flight-recorder pattern: buffer
/// everything, write only alert-triggered windows.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: RingTracer,
    path: PathBuf,
    /// Opened lazily on the first trigger, so an alert-free run leaves
    /// no file behind.
    out: Option<BufWriter<File>>,
    triggers: u64,
    written: u64,
}

impl FlightRecorder {
    /// A recorder dumping to `path` with the given ring capacity.
    pub fn new(path: impl Into<PathBuf>, cfg: FlightConfig) -> Self {
        FlightRecorder {
            ring: RingTracer::new(cfg.capacity),
            path: path.into(),
            out: None,
            triggers: 0,
            written: 0,
        }
    }

    /// Times an alert has triggered a dump.
    pub fn triggers(&self) -> u64 {
        self.triggers
    }

    /// JSONL lines written across all dumps (markers + records).
    pub fn written(&self) -> u64 {
        self.written
    }

    /// The records currently buffered (oldest first).
    pub fn records(&self) -> Vec<TraceRecord> {
        self.ring.records()
    }

    /// Flushes buffered output, if any dump has opened the file.
    pub fn flush(&mut self) -> io::Result<()> {
        match &mut self.out {
            Some(w) => w.flush(),
            None => Ok(()),
        }
    }

    fn dump(&mut self, trigger: &TraceRecord, rule: u32, seq: u32, value: u64, threshold: u64) {
        // A full disk must not take the simulation down: I/O errors are
        // swallowed, the trigger is still counted.
        self.triggers += 1;
        if self.out.is_none() {
            match File::create(&self.path) {
                Ok(f) => self.out = Some(BufWriter::new(f)),
                Err(_) => return,
            }
        }
        let out = self.out.as_mut().expect("opened above");
        let marker = Json::obj([
            ("kind", Json::str("flight-trigger")),
            ("t_ns", trigger.t_ns.into()),
            ("slot", trigger.slot.into()),
            ("rule", rule.into()),
            ("seq", seq.into()),
            ("value", value.into()),
            ("threshold", threshold.into()),
            ("trigger_seq", self.triggers.into()),
            ("events", self.ring.len().into()),
        ]);
        let mut lines = 1u64;
        let _ = writeln!(out, "{}", marker.render());
        let mut line = String::new();
        for rec in self.ring.iter() {
            line.clear();
            write_record_line(&mut line, rec);
            line.push('\n');
            let _ = out.write_all(line.as_bytes());
            lines += 1;
        }
        self.written += lines;
        // The window is consumed: the next dump starts fresh rather than
        // re-reporting the same events.
        self.ring.clear();
    }
}

impl TraceSink for FlightRecorder {
    // Outlined: keeps `Tracer::emit`'s inlined match small.
    #[inline(never)]
    fn record(&mut self, rec: TraceRecord) {
        if let TraceEvent::AlertRaised {
            rule,
            seq,
            value,
            threshold,
        } = rec.event
        {
            self.ring.record(rec.clone());
            self.dump(&rec, rule, seq, value, threshold);
        } else {
            self.ring.record(rec);
        }
    }
}

impl Drop for FlightRecorder {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alerts::AlertRules;
    use crate::event::TraceEvent;
    use crate::sink::Tracer;
    use crate::timeseries::SnapshotConfig;

    fn tmpfile(name: &str) -> PathBuf {
        std::env::temp_dir().join(name)
    }

    fn deliver(msg: u32) -> TraceEvent {
        TraceEvent::MsgDelivered {
            src: 0,
            dst: 1,
            bytes: 64,
            msg,
            latency_ns: 10,
        }
    }

    #[test]
    fn no_alert_no_file() {
        let path = tmpfile("pms-flight-quiet.jsonl");
        std::fs::remove_file(&path).ok();
        let mut fr = FlightRecorder::new(&path, FlightConfig::default());
        for i in 0..100u64 {
            fr.record(TraceRecord {
                t_ns: i * 100,
                slot: i as u32,
                event: deliver(i as u32),
            });
        }
        assert_eq!(fr.triggers(), 0);
        assert!(!path.exists(), "no alert, no file");
    }

    #[test]
    fn alert_record_dumps_ring_with_marker() {
        let path = tmpfile("pms-flight-alert.jsonl");
        std::fs::remove_file(&path).ok();
        let mut fr = FlightRecorder::new(&path, FlightConfig { capacity: 16 });
        for i in 0..8u64 {
            fr.record(TraceRecord {
                t_ns: i * 100,
                slot: 0,
                event: deliver(i as u32),
            });
        }
        fr.record(TraceRecord {
            t_ns: 900,
            slot: 0,
            event: TraceEvent::AlertRaised {
                rule: 2,
                seq: 5,
                value: 42,
                threshold: 10,
            },
        });
        assert_eq!(fr.triggers(), 1);
        fr.flush().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len() as u64, fr.written());
        let marker = Json::parse(lines[0]).unwrap();
        assert_eq!(
            marker.get("kind").and_then(Json::as_str),
            Some("flight-trigger")
        );
        assert_eq!(marker.get("rule").and_then(Json::as_u64), Some(2));
        assert_eq!(marker.get("value").and_then(Json::as_u64), Some(42));
        assert_eq!(marker.get("threshold").and_then(Json::as_u64), Some(10));
        let docs = parse_flight_dump(&text).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(docs.len(), lines.len(), "one document per dump line");
        // The ring was consumed by the dump.
        assert!(fr.records().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pipeline_over_flight_dumps_on_rule_fire() {
        let path = tmpfile("pms-flight-pipeline.jsonl");
        std::fs::remove_file(&path).ok();
        let rules =
            AlertRules::parse("threshold name=hot metric=delivered op=ge value=3\n").unwrap();
        let mut t = Tracer::pipeline(
            SnapshotConfig {
                window_ns: 1000,
                ring: 8,
            },
            Some(rules),
            Tracer::flight(&path, FlightConfig { capacity: 64 }),
        );
        for i in 0..5u32 {
            t.emit(100 + i as u64 * 50, 0, deliver(i));
        }
        t.seal(2000, 0);
        t.finish().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let docs = parse_flight_dump(&text).unwrap();
        assert_eq!(
            docs[0].get("kind").and_then(Json::as_str),
            Some("flight-trigger")
        );
        assert_eq!(docs[0].get("rule").and_then(Json::as_u64), Some(0));
        // The dump carries the window's records, alert included.
        assert!(
            docs.iter()
                .any(|d| d.get("kind").and_then(Json::as_str) == Some("alert-raised")),
            "alert record is part of the dumped window"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_dump_line_is_located_not_fatal() {
        let text = "{\"kind\":\"flight-trigger\"}\n{\"kind\":\"slot-start\"}\n{oops\n";
        let err = parse_flight_dump(text).unwrap_err();
        assert_eq!(err.line, 3);
        assert_eq!(err.context, "{oops");
        let msg = err.to_string();
        assert!(msg.contains("line 3") && msg.contains("{oops"), "{msg}");
    }
}

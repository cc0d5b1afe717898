//! Trace sinks: where emitted events go.
//!
//! Simulators hold a concrete [`Tracer`] enum rather than a
//! `Box<dyn TraceSink>` so the disabled path is one perfectly-predicted
//! branch (`enabled()` returning `false`) instead of a virtual call.
//! Emit sites are written as
//!
//! ```ignore
//! if self.tracer.enabled() {
//!     self.tracer.emit(now, slot, TraceEvent::SlotAdvanced { slot_idx });
//! }
//! ```
//!
//! so with [`Tracer::Null`] no event is even constructed.

use crate::event::{Field, TraceEvent, TraceRecord};
use crate::json;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Anything that can receive trace records.
pub trait TraceSink {
    /// Receives one record.
    fn record(&mut self, rec: TraceRecord);
}

/// Fixed-capacity ring buffer keeping the most recent records.
///
/// Appends never allocate after construction; once full, the oldest
/// record is overwritten. Suited to flight-recorder style debugging of
/// long runs.
#[derive(Debug, Clone)]
pub struct RingTracer {
    buf: Vec<TraceRecord>,
    cap: usize,
    next: usize,
}

impl RingTracer {
    /// Ring holding the last `cap` records (`cap` must be nonzero).
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "ring capacity must be nonzero");
        RingTracer {
            buf: Vec::with_capacity(cap),
            cap,
            next: 0,
        }
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no records.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The records currently held, oldest first, without copying them.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        // Until the ring wraps, `next` is 0 and `newer` is empty.
        let (newer, older) = self.buf.split_at(self.next);
        older.iter().chain(newer)
    }

    /// Records currently held, oldest first.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.iter().cloned().collect()
    }

    /// Drops all held records (capacity is kept; the flight recorder
    /// empties its window after each dump).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.next = 0;
    }
}

impl TraceSink for RingTracer {
    #[inline]
    fn record(&mut self, rec: TraceRecord) {
        if self.buf.len() < self.cap {
            self.buf.push(rec);
        } else {
            self.buf[self.next] = rec;
            self.next += 1;
            if self.next == self.cap {
                self.next = 0;
            }
        }
    }
}

/// Unbounded in-memory sink for tests: keeps every record in order.
#[derive(Debug, Clone, Default)]
pub struct VecTracer {
    /// All records, in emission order.
    pub records: Vec<TraceRecord>,
}

impl VecTracer {
    /// An empty sink.
    pub fn new() -> Self {
        VecTracer::default()
    }
}

impl TraceSink for VecTracer {
    #[inline]
    fn record(&mut self, rec: TraceRecord) {
        self.records.push(rec);
    }
}

/// Clone-able handle onto a shared, thread-safe record buffer.
///
/// Built for live telemetry: the simulator emits through a
/// [`Tracer::Shared`] holding one clone while an HTTP server thread
/// snapshots another clone mid-run. The lock is per-record, which is fine
/// off the simulator's measured paths (live serving is an explicitly
/// opted-in mode).
#[derive(Debug, Clone, Default)]
pub struct SharedTracer {
    records: std::sync::Arc<std::sync::Mutex<Vec<TraceRecord>>>,
}

impl SharedTracer {
    /// An empty shared buffer.
    pub fn new() -> Self {
        SharedTracer::default()
    }

    /// A consistent copy of all records emitted so far, oldest first.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.records.lock().expect("shared tracer poisoned").clone()
    }

    /// Number of records emitted so far.
    pub fn len(&self) -> usize {
        self.records.lock().expect("shared tracer poisoned").len()
    }

    /// Whether no records have been emitted yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for SharedTracer {
    // Outlined: the mutex makes this arm heavyweight anyway.
    #[inline(never)]
    fn record(&mut self, rec: TraceRecord) {
        self.records
            .lock()
            .expect("shared tracer poisoned")
            .push(rec);
    }
}

/// Writes a slice of records to `path` as JSON Lines, one
/// [`write_record_line`] per record.
pub fn write_jsonl(path: impl AsRef<Path>, records: &[TraceRecord]) -> io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    let mut line = String::new();
    for rec in records {
        line.clear();
        write_record_line(&mut line, rec);
        line.push('\n');
        out.write_all(line.as_bytes())?;
    }
    out.flush()
}

/// Renders one record as a JSON object: `kind`, `t_ns`, `slot`, then
/// the event's payload fields in schema order. The reference form of a
/// JSONL line; [`write_record_line`] renders the same bytes without
/// building the tree.
pub fn record_json(rec: &TraceRecord) -> json::Json {
    use json::Json;
    rec.event.with_fields(|kind, values| {
        let mut fields: Vec<(String, Json)> = vec![
            ("kind".to_string(), Json::str(kind.label())),
            ("t_ns".to_string(), Json::UInt(rec.t_ns)),
            ("slot".to_string(), Json::UInt(rec.slot.into())),
        ];
        let specs = kind.schema().fields.iter();
        fields.extend(
            specs
                .zip(values)
                .map(|(spec, &v)| (spec.name.to_string(), v.into())),
        );
        Json::Object(fields)
    })
}

/// Appends one record's JSONL line, without the newline, to `out`:
/// byte for byte `record_json(rec).render()`. The kind's line head and
/// each field's `,"name":` key are schema literals, and labels need no
/// escaping (a test pins that every name and label is escape-free), so
/// only the integers are formatted.
pub fn write_record_line(out: &mut String, rec: &TraceRecord) {
    rec.event.with_fields(|kind, values| {
        let schema = kind.schema();
        out.push_str(schema.head);
        push_u64(out, rec.t_ns);
        out.push_str(",\"slot\":");
        push_u64(out, rec.slot.into());
        for (spec, &value) in schema.fields.iter().zip(values) {
            out.push_str(spec.key);
            match value {
                Field::U(x) => push_u64(out, x),
                Field::Label(s) => {
                    out.push('"');
                    out.push_str(s);
                    out.push('"');
                }
            }
        }
        out.push('}');
    });
}

/// Appends `x` in decimal.
fn push_u64(out: &mut String, mut x: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (x % 10) as u8;
        x /= 10;
        if x == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

/// A [`TraceSink`] stacking the observability pipeline in front of any
/// inner tracer: every record is folded into the snapshot collector, and
/// when a slot window closes, the synthesized
/// [`MetricsSnapshot`](TraceEvent::MetricsSnapshot) record — plus any
/// [`AlertRaised`](TraceEvent::AlertRaised)/
/// [`AlertCleared`](TraceEvent::AlertCleared) records from the alert
/// engine — is forwarded to the inner tracer *before* the record that
/// closed the window, preserving `t_ns` order.
///
/// The inner tracer may be anything, including [`Tracer::Null`] (collect
/// the series but keep no trace — the degradation sweep's mode) or a
/// flight recorder (alert records trigger its dumps).
#[derive(Debug)]
pub struct PipelineTracer {
    collector: crate::timeseries::SnapshotCollector,
    engine: Option<crate::alerts::AlertEngine>,
    inner: Tracer,
}

impl PipelineTracer {
    /// A pipeline with the given snapshot cadence, optional alert rules,
    /// and downstream tracer.
    pub fn new(
        cfg: crate::timeseries::SnapshotConfig,
        rules: Option<crate::alerts::AlertRules>,
        inner: Tracer,
    ) -> Self {
        PipelineTracer {
            collector: crate::timeseries::SnapshotCollector::new(cfg),
            engine: rules.map(crate::alerts::AlertEngine::new),
            inner,
        }
    }

    /// The snapshot collector (bounded ring, emission counts).
    pub fn collector(&self) -> &crate::timeseries::SnapshotCollector {
        &self.collector
    }

    /// The alert engine, if rules were given.
    pub fn engine(&self) -> Option<&crate::alerts::AlertEngine> {
        self.engine.as_ref()
    }

    /// The downstream tracer.
    pub fn inner(&self) -> &Tracer {
        &self.inner
    }

    /// The pipeline's per-record tap: one boundary compare and a fold
    /// into the open window. It only reads the event.
    #[inline]
    fn observe(&mut self, t_ns: u64, slot: u32, event: &TraceEvent) {
        if self.collector.crosses_boundary(t_ns) {
            self.roll(t_ns);
        }
        self.collector.fold_parts(t_ns, slot, event);
    }

    /// Observes the event in this pipeline and any pipelines stacked
    /// under it, then records it in the sink beneath them all. The event
    /// moves once: `TraceEvent` is not `Copy`, and a value moved through
    /// a call per layer, or wrapped in a `TraceRecord` on the way in, is
    /// rebuilt field by field at every hop (about +20 % on the pipeline
    /// overhead gate).
    #[inline]
    fn tap_emit(&mut self, t_ns: u64, slot: u32, event: TraceEvent) {
        let mut pipe = self;
        loop {
            pipe.observe(t_ns, slot, &event);
            match &mut pipe.inner {
                Tracer::Pipeline(inner) => pipe = inner,
                sink => return sink.record(TraceRecord { t_ns, slot, event }),
            }
        }
    }

    /// Closes the window(s) an incoming timestamp crosses and forwards
    /// the snapshot (and alert) records downstream. Cold: runs once per
    /// window boundary, never per record.
    #[cold]
    fn roll(&mut self, t_ns: u64) {
        let mut snaps = Vec::new();
        self.collector.roll_window(t_ns, &mut snaps);
        self.drain(snaps);
    }

    fn drain(&mut self, snaps: Vec<crate::timeseries::Snapshot>) {
        let mut alerts = Vec::new();
        for snap in snaps {
            self.inner.emit(snap.t_ns, snap.slot, snap.to_event());
            if let Some(engine) = &mut self.engine {
                engine.on_snapshot(&snap, &mut alerts);
                for a in alerts.drain(..) {
                    self.inner.emit(a.t_ns, a.slot, a.event);
                }
            }
        }
    }

    /// Flushes the final partial window (see [`Tracer::seal`]).
    pub fn seal(&mut self, t_ns: u64, slot: u32) {
        let mut snaps = Vec::new();
        self.collector.seal(t_ns, slot, &mut snaps);
        self.drain(snaps);
    }
}

impl TraceSink for PipelineTracer {
    #[inline]
    fn record(&mut self, rec: TraceRecord) {
        self.tap_emit(rec.t_ns, rec.slot, rec.event);
    }
}

/// The concrete sink carried by the simulators.
///
/// [`Tracer::enabled`] is `#[inline]`, so with tracing off an emit site
/// costs one predictable branch and the event payload is never built.
/// [`Tracer::emit`] is outlined, so a guarded emit site stays one call.
#[derive(Debug, Default)]
pub enum Tracer {
    /// Tracing off (the default): every emit is a no-op.
    #[default]
    Null,
    /// Keep the last N records in a ring.
    Ring(RingTracer),
    /// Keep every record in memory (tests, exporters).
    Vec(VecTracer),
    /// Flight recorder: ring buffer dumped to JSONL on anomalies.
    Flight(Box<crate::flight::FlightRecorder>),
    /// Shared in-memory buffer snapshotted by a telemetry server thread.
    Shared(SharedTracer),
    /// Snapshot/alert pipeline stacked in front of an inner tracer.
    Pipeline(Box<PipelineTracer>),
}

impl Tracer {
    /// A [`VecTracer`]-backed tracer.
    pub fn vec() -> Self {
        Tracer::Vec(VecTracer::new())
    }

    /// A [`RingTracer`]-backed tracer with the given capacity.
    pub fn ring(cap: usize) -> Self {
        Tracer::Ring(RingTracer::new(cap))
    }

    /// A flight-recorder tracer dumping anomaly windows to `path`.
    pub fn flight(path: impl Into<std::path::PathBuf>, cfg: crate::flight::FlightConfig) -> Self {
        Tracer::Flight(Box::new(crate::flight::FlightRecorder::new(path, cfg)))
    }

    /// A tracer emitting into `handle`'s shared buffer; keep another
    /// clone of `handle` to snapshot the run from a server thread.
    pub fn shared(handle: SharedTracer) -> Self {
        Tracer::Shared(handle)
    }

    /// A snapshot/alert pipeline in front of `inner` (see
    /// [`PipelineTracer`]).
    pub fn pipeline(
        cfg: crate::timeseries::SnapshotConfig,
        rules: Option<crate::alerts::AlertRules>,
        inner: Tracer,
    ) -> Self {
        Tracer::Pipeline(Box::new(PipelineTracer::new(cfg, rules, inner)))
    }

    /// Whether emitting does anything; guard event construction on this.
    #[inline]
    pub fn enabled(&self) -> bool {
        !matches!(self, Tracer::Null)
    }

    /// Records an event stamped with time and slot.
    // Outlined: inlined, its two arms and the event's drop glue grow
    // every simulator loop that emits, traced or not.
    #[inline(never)]
    pub fn emit(&mut self, t_ns: u64, slot: u32, event: TraceEvent) {
        match self {
            // The bare event, not a record built around it: see `tap_emit`.
            Tracer::Pipeline(t) => t.tap_emit(t_ns, slot, event),
            sink => sink.record(TraceRecord { t_ns, slot, event }),
        }
    }

    /// The collected records, oldest first (empty for `Null`; the
    /// flight recorder reports its current, not-yet-dumped window; the
    /// pipeline reports whatever its inner tracer holds, synthesized
    /// records included).
    pub fn records(&self) -> Vec<TraceRecord> {
        match self {
            Tracer::Null => Vec::new(),
            Tracer::Ring(t) => t.records(),
            Tracer::Vec(t) => t.records.clone(),
            Tracer::Flight(t) => t.records(),
            Tracer::Shared(t) => t.snapshot(),
            Tracer::Pipeline(t) => t.inner().records(),
        }
    }

    /// The snapshot series this tracer knows about: the pipeline's
    /// bounded delta-ring, or — for plain tracers — the
    /// `MetricsSnapshot` records already in the stream.
    pub fn snapshots(&self) -> Vec<crate::timeseries::Snapshot> {
        match self {
            Tracer::Pipeline(t) => t.collector().recent().copied().collect(),
            other => crate::timeseries::series_from_records(&other.records()),
        }
    }

    /// Closes the snapshot pipeline's final partial window at `t_ns`
    /// (no-op for non-pipeline tracers). Simulators call this once, after
    /// their last event and before [`finish`](Tracer::finish).
    pub fn seal(&mut self, t_ns: u64, slot: u32) {
        if let Tracer::Pipeline(t) = self {
            t.seal(t_ns, slot);
        }
    }

    /// Flushes any buffered output (flight-recorder dumps).
    pub fn finish(&mut self) -> io::Result<()> {
        match self {
            Tracer::Flight(t) => t.flush(),
            Tracer::Pipeline(t) => t.inner.finish(),
            _ => Ok(()),
        }
    }
}

impl TraceSink for Tracer {
    #[inline]
    fn record(&mut self, rec: TraceRecord) {
        match self {
            Tracer::Null => {}
            Tracer::Ring(t) => t.record(rec),
            Tracer::Vec(t) => t.record(rec),
            Tracer::Flight(t) => t.record(rec),
            Tracer::Shared(t) => t.record(rec),
            Tracer::Pipeline(t) => t.record(rec),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t_ns: u64) -> TraceRecord {
        TraceRecord {
            t_ns,
            slot: 0,
            event: TraceEvent::SlotAdvanced { slot_idx: 0 },
        }
    }

    #[test]
    fn null_tracer_is_disabled() {
        let mut t = Tracer::Null;
        assert!(!t.enabled());
        t.emit(1, 0, TraceEvent::PhaseFlush { cleared: 1 });
        assert!(t.records().is_empty());
    }

    #[test]
    fn vec_tracer_keeps_order() {
        let mut t = Tracer::vec();
        assert!(t.enabled());
        for i in 0..5 {
            t.emit(i, 0, TraceEvent::SlotAdvanced { slot_idx: i as u32 });
        }
        let recs = t.records();
        assert_eq!(recs.len(), 5);
        assert!(recs.windows(2).all(|w| w[0].t_ns < w[1].t_ns));
    }

    #[test]
    fn ring_tracer_keeps_most_recent() {
        let mut ring = RingTracer::new(4);
        for i in 0..10u64 {
            ring.record(rec(i));
        }
        let recs = ring.records();
        assert_eq!(
            recs.iter().map(|r| r.t_ns).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
    }

    #[test]
    fn ring_tracer_clear_after_wrap_restarts_the_window() {
        // Clear with the cursor mid-ring (as the flight recorder does
        // after a dump), then wrap again: the cursor restarts at slot 0
        // and resets at capacity, so order stays oldest first.
        let mut ring = RingTracer::new(4);
        for i in 0..6u64 {
            ring.record(rec(i));
        }
        ring.clear();
        assert!(ring.is_empty());
        let times = |ring: &RingTracer| ring.iter().map(|r| r.t_ns).collect::<Vec<_>>();
        for i in 10..13u64 {
            ring.record(rec(i));
        }
        assert_eq!(times(&ring), vec![10, 11, 12]);
        for i in 13..19u64 {
            ring.record(rec(i));
        }
        assert_eq!(times(&ring), vec![15, 16, 17, 18]);
    }

    #[test]
    fn ring_tracer_partial_fill() {
        let mut ring = RingTracer::new(8);
        ring.record(rec(1));
        ring.record(rec(2));
        assert_eq!(ring.records().len(), 2);
    }

    #[test]
    fn record_json_has_kind_time_slot() {
        let j = record_json(&TraceRecord {
            t_ns: 42,
            slot: 3,
            event: TraceEvent::ConnEvicted {
                src: 1,
                dst: 2,
                cause: crate::event::EvictCause::PhaseFlush,
            },
        });
        let s = j.render();
        assert!(s.contains(r#""kind":"conn-evicted""#), "{s}");
        assert!(s.contains(r#""t_ns":42"#));
        assert!(s.contains(r#""slot":3"#));
        assert!(s.contains(r#""cause":"phase-flush""#));
    }

    #[test]
    fn shared_tracer_snapshots_mid_run() {
        let handle = SharedTracer::new();
        let mut t = Tracer::shared(handle.clone());
        assert!(t.enabled());
        t.emit(1, 0, TraceEvent::SlotAdvanced { slot_idx: 0 });
        assert_eq!(handle.len(), 1, "server-side clone sees live records");
        t.emit(2, 1, TraceEvent::PhaseFlush { cleared: 3 });
        assert_eq!(handle.snapshot().len(), 2);
        assert_eq!(t.records().len(), 2);
    }

    #[test]
    fn pipeline_interleaves_snapshots_in_time_order() {
        use crate::timeseries::SnapshotConfig;
        let mut t = Tracer::pipeline(
            SnapshotConfig {
                window_ns: 1000,
                ring: 16,
            },
            None,
            Tracer::vec(),
        );
        assert!(t.enabled());
        let deliver = |msg: u32| TraceEvent::MsgDelivered {
            src: 0,
            dst: 1,
            bytes: 64,
            msg,
            latency_ns: 10,
        };
        t.emit(100, 0, deliver(0));
        t.emit(900, 0, deliver(1));
        t.emit(1500, 1, deliver(2));
        t.seal(1600, 1);
        let recs = t.records();
        // window 0 snapshot lands between the 900 and 1500 records,
        // stamped at the 1000 ns boundary; seal flushes window 1.
        let kinds: Vec<&str> = recs.iter().map(|r| r.event.kind()).collect();
        assert_eq!(
            kinds,
            vec![
                "msg-delivered",
                "msg-delivered",
                "metrics-snapshot",
                "msg-delivered",
                "metrics-snapshot"
            ]
        );
        assert!(recs.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
        let snaps = t.snapshots();
        assert_eq!(snaps.len(), 2);
        assert_eq!((snaps[0].window.seq, snaps[0].window.delivered), (0, 2));
        assert_eq!((snaps[1].window.seq, snaps[1].window.delivered), (1, 1));
    }

    #[test]
    fn pipeline_runs_alert_engine_after_each_snapshot() {
        use crate::alerts::AlertRules;
        use crate::timeseries::SnapshotConfig;
        let rules = AlertRules::parse(
            "threshold name=deliveries metric=delivered op=ge value=2 clear-for=1\n",
        )
        .unwrap();
        let mut t = Tracer::pipeline(
            SnapshotConfig {
                window_ns: 1000,
                ring: 16,
            },
            Some(rules),
            Tracer::vec(),
        );
        let deliver = |msg: u32| TraceEvent::MsgDelivered {
            src: 0,
            dst: 1,
            bytes: 8,
            msg,
            latency_ns: 1,
        };
        // Window 0: two deliveries (breaches). Window 1: one (clears).
        t.emit(100, 0, deliver(0));
        t.emit(200, 0, deliver(1));
        t.emit(1100, 1, deliver(2));
        t.seal(1200, 1);
        let kinds: Vec<&str> = t.records().iter().map(|r| r.event.kind()).collect();
        assert_eq!(
            kinds,
            vec![
                "msg-delivered",
                "msg-delivered",
                "metrics-snapshot",
                "alert-raised",
                "msg-delivered",
                "metrics-snapshot",
                "alert-cleared"
            ]
        );
    }

    #[test]
    fn write_jsonl_writes_lines() {
        let path = std::env::temp_dir().join("pms-trace-write-jsonl-test.jsonl");
        let records = [
            rec(1),
            TraceRecord {
                t_ns: 2,
                slot: 1,
                event: TraceEvent::PhaseFlush { cleared: 3 },
            },
        ];
        write_jsonl(&path, &records).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for (line, rec) in lines.iter().zip(&records) {
            let mut want = String::new();
            write_record_line(&mut want, rec);
            assert_eq!(*line, want);
        }
        assert!(text.ends_with('\n'));
    }
}

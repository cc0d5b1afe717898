//! Deterministic per-window metrics time-series.
//!
//! A [`SnapshotCollector`] watches the record stream and folds every event
//! into per-window delta counters. Windows are keyed to *simulation time*
//! (`window_ns`, normally a whole number of TDM slots), never wall clock:
//! the same trace always produces the same series, live or replayed from
//! JSONL. When the stream crosses a window boundary the closed window is
//! emitted as a [`TraceEvent::MetricsSnapshot`] record — stamped at the
//! boundary, so it sorts correctly between the two windows' records — and
//! retained in a bounded delta-ring ([`SnapshotCollector::recent`]).
//!
//! All-idle windows are skipped entirely: a gap in `seq` *is* the
//! statement "nothing happened here", which keeps long idle-skipped runs
//! from drowning the ring in zero rows.

use crate::event::{MetricsWindow, TraceEvent, TraceRecord};
use crate::json::Json;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::hash::{BuildHasherDefault, Hasher};

/// Packs a (src, dst) pair into the pending-setup map key.
#[inline]
fn pair_key(src: u32, dst: u32) -> u64 {
    (src as u64) << 32 | dst as u64
}

/// Multiplicative hasher for the packed pair keys. The pending-setup map
/// sits on the per-record fold path, where SipHash is measurable against
/// the trace-overhead gate; Fibonacci multiplicative hashing is plenty
/// for keys that are two small port indices.
#[derive(Debug, Default)]
struct PairHasher(u64);

type BuildPairHasher = BuildHasherDefault<PairHasher>;

impl Hasher for PairHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Only u64 keys are ever hashed; this path exists to satisfy the
        // trait.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // Multiplicative hashes concentrate entropy in the high bits;
        // HashMap keeps the low ones, so fold them down.
        self.0 ^ (self.0 >> 32)
    }
}

/// Default snapshot cadence in TDM slots (callers multiply by `slot_ns`).
pub const DEFAULT_WINDOW_SLOTS: u64 = 64;

/// Default bounded delta-ring capacity (snapshots retained in memory).
pub const DEFAULT_RING: usize = 4096;

/// Tuning for the [`SnapshotCollector`].
#[derive(Debug, Clone, Copy)]
pub struct SnapshotConfig {
    /// Window length in simulation nanoseconds (must be nonzero).
    /// Keyed to slot windows by convention: `slot_ns * cadence_slots`.
    pub window_ns: u64,
    /// Bounded delta-ring capacity: how many recent snapshots stay
    /// queryable in memory (the full series still lives in the trace).
    pub ring: usize,
}

impl Default for SnapshotConfig {
    fn default() -> Self {
        SnapshotConfig {
            // 64 slots at the paper's 100 ns slot.
            window_ns: DEFAULT_WINDOW_SLOTS * 100,
            ring: DEFAULT_RING,
        }
    }
}

impl SnapshotConfig {
    /// A config windowing every `slots` TDM slots of `slot_ns` each.
    pub fn per_slots(slot_ns: u64, slots: u64) -> Self {
        SnapshotConfig {
            window_ns: slot_ns.max(1) * slots.max(1),
            ring: DEFAULT_RING,
        }
    }
}

/// One closed window: the materialized form of a
/// [`TraceEvent::MetricsSnapshot`] record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Boundary timestamp the snapshot record was stamped with.
    pub t_ns: u64,
    /// TDM slot active at emission.
    pub slot: u32,
    /// The window's index and counter deltas: the record's payload.
    pub window: MetricsWindow,
}

impl MetricsWindow {
    /// Whether the window saw no activity at all (skipped, not emitted).
    pub fn is_idle(&self) -> bool {
        self.delivered == 0
            && self.bytes == 0
            && self.established == 0
            && self.evicted == 0
            && self.denied == 0
            && self.retries == 0
            && self.abandoned == 0
            && self.faults_injected == 0
            && self.faults_cleared == 0
            && self.setups == 0
            && self.passes == 0
            && self.enqueued == 0
            && self.granted == 0
            && self.rejected == 0
            && self.batches == 0
    }

    /// Mean completed setup latency in the window, or 0 with no setups.
    pub fn setup_mean_ns(&self) -> u64 {
        if self.setups == 0 {
            0
        } else {
            self.setup_total_ns / self.setups as u64
        }
    }
}

impl Snapshot {
    /// The snapshot as a trace event (inverse of [`Snapshot::from_record`]).
    pub fn to_event(&self) -> TraceEvent {
        TraceEvent::MetricsSnapshot(Box::new(self.window))
    }

    /// The snapshot as a stamped trace record.
    pub fn to_record(&self) -> TraceRecord {
        TraceRecord {
            t_ns: self.t_ns,
            slot: self.slot,
            event: self.to_event(),
        }
    }

    /// Rebuilds a snapshot from a `MetricsSnapshot` record (replay path);
    /// `None` for any other event kind.
    pub fn from_record(rec: &TraceRecord) -> Option<Snapshot> {
        match &rec.event {
            TraceEvent::MetricsSnapshot(window) => Some(Snapshot {
                t_ns: rec.t_ns,
                slot: rec.slot,
                window: **window,
            }),
            _ => None,
        }
    }

    /// JSON object form (used by `/timeseries` and the analyze report).
    pub fn to_json(&self) -> Json {
        let w = &self.window;
        Json::obj([
            ("seq", w.seq.into()),
            ("t_ns", self.t_ns.into()),
            ("slot", self.slot.into()),
            ("delivered", w.delivered.into()),
            ("bytes", w.bytes.into()),
            ("established", w.established.into()),
            ("evicted", w.evicted.into()),
            ("denied", w.denied.into()),
            ("retries", w.retries.into()),
            ("abandoned", w.abandoned.into()),
            ("faults_injected", w.faults_injected.into()),
            ("faults_cleared", w.faults_cleared.into()),
            ("setups", w.setups.into()),
            ("setup_total_ns", w.setup_total_ns.into()),
            ("setup_max_ns", w.setup_max_ns.into()),
            ("passes", w.passes.into()),
            ("enqueued", w.enqueued.into()),
            ("granted", w.granted.into()),
            ("rejected", w.rejected.into()),
            ("batches", w.batches.into()),
        ])
    }

    /// CSV header matching [`Snapshot::to_csv_row`].
    pub const CSV_HEADER: &'static str = "seq,t_ns,slot,delivered,bytes,established,evicted,\
denied,retries,abandoned,faults_injected,faults_cleared,setups,setup_total_ns,setup_max_ns,passes,\
enqueued,granted,rejected,batches";

    /// One CSV row (no trailing newline), column order per [`CSV_HEADER`].
    ///
    /// [`CSV_HEADER`]: Snapshot::CSV_HEADER
    pub fn to_csv_row(&self) -> String {
        let w = &self.window;
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            w.seq,
            self.t_ns,
            self.slot,
            w.delivered,
            w.bytes,
            w.established,
            w.evicted,
            w.denied,
            w.retries,
            w.abandoned,
            w.faults_injected,
            w.faults_cleared,
            w.setups,
            w.setup_total_ns,
            w.setup_max_ns,
            w.passes,
            w.enqueued,
            w.granted,
            w.rejected,
            w.batches
        )
    }
}

/// Folds a record stream into per-window [`Snapshot`]s.
///
/// Deterministic by construction: state depends only on the records seen
/// (and their order), never on wall clock. Synthetic records
/// (`MetricsSnapshot`, `AlertRaised`, `AlertCleared`) flowing back through
/// are ignored, so replaying an already-snapshotted trace through a fresh
/// collector cannot double-count.
#[derive(Debug, Clone)]
pub struct SnapshotCollector {
    cfg: SnapshotConfig,
    /// Current open window index, or `None` before the first record.
    cur: Option<u64>,
    /// First timestamp past the open window — cached so the per-record
    /// hot path is one compare, not a division.
    next_boundary_ns: u64,
    /// Accumulating deltas for the open window.
    acc: MetricsWindow,
    /// Last slot observed (stamped onto boundary snapshots).
    last_slot: u32,
    /// Outstanding `ConnRequested` times per (src, dst) — setups attribute
    /// to the window their *establish* lands in.
    pending: HashMap<u64, u64, BuildPairHasher>,
    /// Bounded delta-ring of the most recent emitted snapshots.
    recent: VecDeque<Snapshot>,
    emitted: u64,
    skipped_idle: u64,
    sealed: bool,
}

impl SnapshotCollector {
    /// A collector with the given windowing config.
    pub fn new(cfg: SnapshotConfig) -> Self {
        assert!(cfg.window_ns > 0, "snapshot window must be nonzero");
        assert!(cfg.ring > 0, "snapshot ring must be nonzero");
        SnapshotCollector {
            cfg,
            cur: None,
            next_boundary_ns: 0,
            acc: MetricsWindow::default(),
            last_slot: 0,
            pending: HashMap::default(),
            recent: VecDeque::new(),
            emitted: 0,
            skipped_idle: 0,
            sealed: false,
        }
    }

    /// Window length in simulation nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.cfg.window_ns
    }

    /// Snapshots emitted so far (idle windows excluded).
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Idle windows skipped so far.
    pub fn skipped_idle(&self) -> u64 {
        self.skipped_idle
    }

    /// The bounded delta-ring: most recent emitted snapshots, oldest
    /// first.
    pub fn recent(&self) -> impl Iterator<Item = &Snapshot> {
        self.recent.iter()
    }

    /// Observes one record. Any window closed by this record's timestamp
    /// is pushed to `out` (stamped at its boundary) *before* the record
    /// itself should be forwarded, preserving `t_ns` order.
    #[inline]
    pub fn observe(&mut self, rec: &TraceRecord, out: &mut Vec<Snapshot>) {
        if self.crosses_boundary(rec.t_ns) {
            self.roll_window(rec.t_ns, out);
        }
        self.fold_parts(rec.t_ns, rec.slot, &rec.event);
    }

    /// Whether this timestamp closes the open window (or opens the first
    /// one) — the pipeline's one-compare hot-path guard.
    #[inline]
    pub(crate) fn crosses_boundary(&self, t_ns: u64) -> bool {
        t_ns >= self.next_boundary_ns
    }

    /// Folds one record (given as its parts, so callers need not build a
    /// `TraceRecord`) into the open window without any boundary check —
    /// the caller has already handled
    /// [`crosses_boundary`](Self::crosses_boundary).
    #[inline]
    pub(crate) fn fold_parts(&mut self, t_ns: u64, slot: u32, event: &TraceEvent) {
        debug_assert!(!self.sealed, "observe after seal");
        self.last_slot = slot;
        self.fold(t_ns, event);
    }

    /// Opens the window containing `t_ns`, closing the previous one (if
    /// any) at its boundary first. Runs once per window, not per record
    /// — the only place the window division happens.
    #[cold]
    pub(crate) fn roll_window(&mut self, t_ns: u64, out: &mut Vec<Snapshot>) {
        let w = t_ns / self.cfg.window_ns;
        if let Some(cur) = self.cur {
            // Close the open window; idle gaps between it and w are
            // skipped wholesale, not materialized.
            self.close_window((cur + 1) * self.cfg.window_ns, out);
        }
        self.cur = Some(w);
        self.acc.seq = w as u32;
        self.next_boundary_ns = (w + 1) * self.cfg.window_ns;
    }

    /// Flushes the final partial window at end of run. Simulators call
    /// this (via `Tracer::seal`) exactly once, after their last event.
    pub fn seal(&mut self, t_ns: u64, slot: u32, out: &mut Vec<Snapshot>) {
        if self.sealed {
            return;
        }
        self.sealed = true;
        self.last_slot = slot;
        if self.cur.is_some() {
            self.close_window(t_ns, out);
        }
    }

    fn close_window(&mut self, boundary_ns: u64, out: &mut Vec<Snapshot>) {
        let window = std::mem::take(&mut self.acc);
        if window.is_idle() {
            self.skipped_idle += 1;
            return;
        }
        let snap = Snapshot {
            t_ns: boundary_ns,
            slot: self.last_slot,
            window,
        };
        self.emitted += 1;
        if self.recent.len() == self.cfg.ring {
            self.recent.pop_front();
        }
        self.recent.push_back(snap);
        out.push(snap);
    }

    #[inline]
    fn fold(&mut self, t_ns: u64, event: &TraceEvent) {
        match *event {
            TraceEvent::MsgDelivered { bytes, .. } => {
                self.acc.delivered += 1;
                self.acc.bytes += bytes as u64;
            }
            TraceEvent::ConnRequested { src, dst } => {
                self.pending.entry(pair_key(src, dst)).or_insert(t_ns);
            }
            TraceEvent::ConnEstablished { src, dst, .. } => {
                self.acc.established += 1;
                if let Some(t0) = self.pending.remove(&pair_key(src, dst)) {
                    let latency = t_ns.saturating_sub(t0);
                    self.acc.setups += 1;
                    self.acc.setup_total_ns += latency;
                    self.acc.setup_max_ns = self.acc.setup_max_ns.max(latency);
                }
            }
            TraceEvent::ConnEvicted { .. } => self.acc.evicted += 1,
            TraceEvent::SchedPass { denied, .. } => {
                self.acc.passes += 1;
                self.acc.denied += denied;
            }
            TraceEvent::MsgRetried { .. } => self.acc.retries += 1,
            TraceEvent::MsgAbandoned { .. } => self.acc.abandoned += 1,
            TraceEvent::FaultInjected { .. } => self.acc.faults_injected += 1,
            TraceEvent::FaultCleared { .. } => self.acc.faults_cleared += 1,
            TraceEvent::RequestEnqueued { .. } => self.acc.enqueued += 1,
            TraceEvent::RequestGranted { .. } => self.acc.granted += 1,
            TraceEvent::RequestRejected { .. } => self.acc.rejected += 1,
            TraceEvent::BatchAdmitted { .. } => self.acc.batches += 1,
            _ => {}
        }
    }
}

/// Reconstructs the full snapshot series from a record stream (replay,
/// telemetry `/timeseries`, CSV export). Pure: series(trace) is the same
/// bytes live and replayed.
pub fn series_from_records(records: &[TraceRecord]) -> Vec<Snapshot> {
    records.iter().filter_map(Snapshot::from_record).collect()
}

/// Renders a snapshot series as CSV text (header + one row per window).
pub fn series_to_csv(series: &[Snapshot]) -> String {
    let mut out = String::with_capacity(64 * (series.len() + 1));
    out.push_str(Snapshot::CSV_HEADER);
    out.push('\n');
    for s in series {
        out.push_str(&s.to_csv_row());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delivered(t: u64, bytes: u32) -> TraceRecord {
        TraceRecord {
            t_ns: t,
            slot: (t / 100) as u32,
            event: TraceEvent::MsgDelivered {
                src: 0,
                dst: 1,
                bytes,
                msg: 0,
                latency_ns: 10,
            },
        }
    }

    #[test]
    fn windows_key_to_sim_time_and_skip_idle() {
        let mut c = SnapshotCollector::new(SnapshotConfig {
            window_ns: 1000,
            ring: 8,
        });
        let mut out = Vec::new();
        c.observe(&delivered(100, 64), &mut out);
        c.observe(&delivered(900, 64), &mut out);
        assert!(out.is_empty(), "window 0 still open");
        // Jump over windows 1..4 (idle) straight into window 5.
        c.observe(&delivered(5100, 32), &mut out);
        assert_eq!(out.len(), 1, "only window 0 closed; idle gap skipped");
        assert_eq!(out[0].window.seq, 0);
        assert_eq!(out[0].t_ns, 1000, "stamped at the boundary");
        assert_eq!(out[0].window.delivered, 2);
        assert_eq!(out[0].window.bytes, 128);
        let mut sealed = Vec::new();
        c.seal(5200, 52, &mut sealed);
        assert_eq!(sealed.len(), 1, "seal flushes the partial window");
        assert_eq!(sealed[0].window.seq, 5);
        assert_eq!(sealed[0].window.delivered, 1);
        assert_eq!(c.emitted(), 2);
        assert_eq!(c.skipped_idle(), 0, "idle gap windows never materialize");
    }

    #[test]
    fn setup_latency_pairs_request_to_establish() {
        let mut c = SnapshotCollector::new(SnapshotConfig {
            window_ns: 1000,
            ring: 8,
        });
        let mut out = Vec::new();
        c.observe(
            &TraceRecord {
                t_ns: 10,
                slot: 0,
                event: TraceEvent::ConnRequested { src: 2, dst: 3 },
            },
            &mut out,
        );
        c.observe(
            &TraceRecord {
                t_ns: 250,
                slot: 0,
                event: TraceEvent::ConnEstablished {
                    src: 2,
                    dst: 3,
                    slot_idx: 0,
                },
            },
            &mut out,
        );
        let mut sealed = Vec::new();
        c.seal(300, 0, &mut sealed);
        assert_eq!(sealed.len(), 1);
        assert_eq!(sealed[0].window.setups, 1);
        assert_eq!(sealed[0].window.setup_total_ns, 240);
        assert_eq!(sealed[0].window.setup_max_ns, 240);
        assert_eq!(sealed[0].window.setup_mean_ns(), 240);
    }

    #[test]
    fn admission_events_fold_into_windows() {
        use crate::event::RejectCause;
        let mut c = SnapshotCollector::new(SnapshotConfig {
            window_ns: 1000,
            ring: 8,
        });
        let mut out = Vec::new();
        let rec = |t_ns, event| TraceRecord {
            t_ns,
            slot: 0,
            event,
        };
        c.observe(
            &rec(
                10,
                TraceEvent::RequestEnqueued {
                    req: 0,
                    tenant: 1,
                    src: 0,
                    dst: 1,
                },
            ),
            &mut out,
        );
        c.observe(
            &rec(
                20,
                TraceEvent::RequestRejected {
                    req: 1,
                    tenant: 1,
                    src: 0,
                    dst: 2,
                    cause: RejectCause::QueueFull,
                },
            ),
            &mut out,
        );
        c.observe(
            &rec(
                100,
                TraceEvent::RequestGranted {
                    req: 0,
                    tenant: 1,
                    src: 0,
                    dst: 1,
                    wait_ns: 90,
                },
            ),
            &mut out,
        );
        c.observe(
            &rec(
                100,
                TraceEvent::BatchAdmitted {
                    batch: 0,
                    capacity: 4,
                    selected: 1,
                    granted: 1,
                    denied: 0,
                    pending: 0,
                },
            ),
            &mut out,
        );
        let mut sealed = Vec::new();
        c.seal(200, 0, &mut sealed);
        assert_eq!(
            sealed.len(),
            1,
            "admission activity makes a window non-idle"
        );
        assert_eq!(sealed[0].window.enqueued, 1);
        assert_eq!(sealed[0].window.granted, 1);
        assert_eq!(sealed[0].window.rejected, 1);
        assert_eq!(sealed[0].window.batches, 1);
    }

    #[test]
    fn ring_is_bounded() {
        let mut c = SnapshotCollector::new(SnapshotConfig {
            window_ns: 100,
            ring: 3,
        });
        let mut out = Vec::new();
        for i in 0..10u64 {
            c.observe(&delivered(i * 100 + 50, 8), &mut out);
        }
        c.seal(1000, 0, &mut out);
        assert_eq!(out.len(), 10, "every non-idle window emitted");
        let held: Vec<u32> = c.recent().map(|s| s.window.seq).collect();
        assert_eq!(held, vec![7, 8, 9], "ring keeps the most recent 3");
    }

    #[test]
    fn snapshot_record_roundtrip() {
        let snap = Snapshot {
            t_ns: 6400,
            slot: 63,
            window: MetricsWindow {
                seq: 7,
                delivered: 3,
                bytes: 192,
                established: 2,
                evicted: 1,
                denied: 4,
                retries: 1,
                abandoned: 0,
                faults_injected: 1,
                faults_cleared: 1,
                setups: 2,
                setup_total_ns: 500,
                setup_max_ns: 400,
                passes: 12,
                enqueued: 5,
                granted: 4,
                rejected: 1,
                batches: 2,
            },
        };
        assert_eq!(Snapshot::from_record(&snap.to_record()), Some(snap));
        assert_eq!(
            Snapshot::from_record(&delivered(5, 8)),
            None,
            "non-snapshot records are ignored"
        );
    }

    #[test]
    fn series_csv_has_header_and_rows() {
        let series = vec![Snapshot {
            t_ns: 2000,
            slot: 0,
            window: MetricsWindow {
                seq: 1,
                delivered: 5,
                bytes: 320,
                ..MetricsWindow::default()
            },
        }];
        let csv = series_to_csv(&series);
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some(Snapshot::CSV_HEADER));
        let row = lines.next().unwrap();
        assert!(row.starts_with("1,2000,0,5,320,"), "{row}");
        assert_eq!(
            row.split(',').count(),
            Snapshot::CSV_HEADER.split(',').count()
        );
    }

    #[test]
    fn collector_ignores_synthetic_records() {
        let mut c = SnapshotCollector::new(SnapshotConfig {
            window_ns: 1000,
            ring: 8,
        });
        let mut out = Vec::new();
        let snap = Snapshot {
            t_ns: 100,
            slot: 0,
            window: MetricsWindow {
                seq: 0,
                delivered: 50,
                bytes: 1000,
                ..MetricsWindow::default()
            },
        };
        c.observe(&snap.to_record(), &mut out);
        c.observe(
            &TraceRecord {
                t_ns: 200,
                slot: 0,
                event: TraceEvent::AlertRaised {
                    rule: 0,
                    seq: 0,
                    value: 1,
                    threshold: 0,
                },
            },
            &mut out,
        );
        let mut sealed = Vec::new();
        c.seal(300, 0, &mut sealed);
        assert!(
            sealed.is_empty() && out.is_empty(),
            "synthetic records must not create activity"
        );
    }
}

//! Time-series section: summarizes the `metrics-snapshot` stream and
//! re-exports it as CSV.
//!
//! Snapshots are keyed to slot windows (`pms_trace::SnapshotCollector`),
//! so the series — and therefore this section — is a pure function of
//! the record stream: live runs and JSONL replay reconstruct the exact
//! same series. Idle windows are skipped at emission, so `seq` gaps are
//! meaningful and `windows` counts only emitted (non-idle) windows.

use pms_trace::{series_from_records, series_to_csv, Json, Snapshot, TraceRecord};

/// The time-series section of the report.
#[derive(Debug, Clone, Default)]
pub struct TimeseriesReport {
    /// Emitted (non-idle) snapshot windows.
    pub windows: u64,
    /// First window index in the series (0 when empty).
    pub first_seq: u32,
    /// Last window index in the series (0 when empty).
    pub last_seq: u32,
    /// Simulated time covered, first snapshot stamp to last (ns).
    pub span_ns: u64,
    /// Total messages delivered across all windows.
    pub delivered: u64,
    /// Total bytes delivered across all windows.
    pub bytes: u64,
    /// Total connections established across all windows.
    pub established: u64,
    /// Total retries across all windows.
    pub retries: u64,
    /// Total abandoned messages across all windows.
    pub abandoned: u64,
    /// Total fault injections across all windows.
    pub faults_injected: u64,
    /// Window with the most deliveries (seq).
    pub peak_delivered_seq: u32,
    /// Deliveries in that window.
    pub peak_delivered: u32,
    /// Window with the worst setup latency (seq).
    pub peak_setup_seq: u32,
    /// Worst single-setup latency in that window (ns).
    pub peak_setup_ns: u64,
}

/// Builds the time-series section from a record stream.
pub fn timeseries(records: &[TraceRecord]) -> TimeseriesReport {
    summarize(&series_from_records(records))
}

/// Summarizes an already-reconstructed snapshot series.
pub fn summarize(series: &[Snapshot]) -> TimeseriesReport {
    let mut r = TimeseriesReport::default();
    let (Some(first), Some(last)) = (series.first(), series.last()) else {
        return r;
    };
    r.windows = series.len() as u64;
    r.first_seq = first.window.seq;
    r.last_seq = last.window.seq;
    r.span_ns = last.t_ns.saturating_sub(first.t_ns);
    for s in series {
        r.delivered += s.window.delivered as u64;
        r.bytes += s.window.bytes;
        r.established += s.window.established as u64;
        r.retries += s.window.retries as u64;
        r.abandoned += s.window.abandoned as u64;
        r.faults_injected += s.window.faults_injected as u64;
        if s.window.delivered > r.peak_delivered {
            r.peak_delivered = s.window.delivered;
            r.peak_delivered_seq = s.window.seq;
        }
        if s.window.setup_max_ns > r.peak_setup_ns {
            r.peak_setup_ns = s.window.setup_max_ns;
            r.peak_setup_seq = s.window.seq;
        }
    }
    r
}

/// CSV export of the full snapshot series found in a record stream.
pub fn timeseries_csv(records: &[TraceRecord]) -> String {
    series_to_csv(&series_from_records(records))
}

impl TimeseriesReport {
    /// JSON rendering (deterministic; used by the report).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("windows", self.windows.into()),
            ("first_seq", self.first_seq.into()),
            ("last_seq", self.last_seq.into()),
            ("span_ns", self.span_ns.into()),
            ("delivered", self.delivered.into()),
            ("bytes", self.bytes.into()),
            ("established", self.established.into()),
            ("retries", self.retries.into()),
            ("abandoned", self.abandoned.into()),
            ("faults_injected", self.faults_injected.into()),
            ("peak_delivered_seq", self.peak_delivered_seq.into()),
            ("peak_delivered", self.peak_delivered.into()),
            ("peak_setup_seq", self.peak_setup_seq.into()),
            ("peak_setup_ns", self.peak_setup_ns.into()),
        ])
    }

    /// Text rendering of the section body.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str("-- time series --\n");
        if self.windows == 0 {
            out.push_str("  no metrics snapshots in trace\n");
            return out;
        }
        out.push_str(&format!(
            "  {} windows (seq {}..{}) over {} ns\n",
            self.windows, self.first_seq, self.last_seq, self.span_ns
        ));
        out.push_str(&format!(
            "  delivered {} msgs / {} B, established {}, retries {}, abandoned {}, faults {}\n",
            self.delivered,
            self.bytes,
            self.established,
            self.retries,
            self.abandoned,
            self.faults_injected
        ));
        out.push_str(&format!(
            "  peak: {} msgs in window {}; worst setup {} ns in window {}\n",
            self.peak_delivered, self.peak_delivered_seq, self.peak_setup_ns, self.peak_setup_seq
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pms_trace::{MetricsWindow, TraceEvent};

    fn snap_rec(seq: u32, t_ns: u64, delivered: u32, setup_max_ns: u64) -> TraceRecord {
        TraceRecord {
            t_ns,
            slot: 0,
            event: TraceEvent::MetricsSnapshot(Box::new(MetricsWindow {
                seq,
                delivered,
                bytes: delivered as u64 * 64,
                established: 1,
                evicted: 0,
                denied: 0,
                retries: 2,
                abandoned: 0,
                faults_injected: 1,
                faults_cleared: 0,
                setups: 1,
                setup_total_ns: setup_max_ns,
                setup_max_ns,
                passes: 1,
                enqueued: 0,
                granted: 0,
                rejected: 0,
                batches: 0,
            })),
        }
    }

    #[test]
    fn empty_trace_summarizes_cleanly() {
        let r = timeseries(&[]);
        assert_eq!(r.windows, 0);
        assert!(r.render_text().contains("no metrics snapshots"));
        r.to_json().render();
    }

    #[test]
    fn totals_and_peaks_accumulate() {
        let recs = vec![
            snap_rec(0, 6400, 3, 100),
            snap_rec(2, 19200, 9, 50),
            snap_rec(5, 38400, 1, 900),
        ];
        let r = timeseries(&recs);
        assert_eq!(r.windows, 3);
        assert_eq!(r.first_seq, 0);
        assert_eq!(r.last_seq, 5);
        assert_eq!(r.span_ns, 32000);
        assert_eq!(r.delivered, 13);
        assert_eq!(r.bytes, 13 * 64);
        assert_eq!(r.retries, 6);
        assert_eq!(r.peak_delivered, 9);
        assert_eq!(r.peak_delivered_seq, 2);
        assert_eq!(r.peak_setup_ns, 900);
        assert_eq!(r.peak_setup_seq, 5);
    }

    #[test]
    fn csv_export_matches_series() {
        let recs = vec![snap_rec(0, 6400, 3, 100), snap_rec(1, 12800, 4, 80)];
        let csv = timeseries_csv(&recs);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("seq,t_ns,slot,"));
        assert!(lines[1].starts_with("0,6400,"));
        assert!(lines[2].starts_with("1,12800,"));
    }
}

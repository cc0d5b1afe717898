//! The combined analysis report: everything `analyze` and the
//! simulators' `--report` flag produce.
//!
//! A report is a pure function of the record stream and the
//! [`ReportConfig`] — no wall-clock timestamps, no environment — so the
//! same trace always renders byte-identical output whether it was
//! analyzed in-process (`simulate --report`) or replayed from JSONL
//! (`analyze`). CI leans on that determinism to diff the two paths.

use crate::admission::{admission, AdmissionReport};
use crate::alerts::{alerts, AlertsReport};
use crate::churn::{churn, ChurnReport};
use crate::contention::{contention, ContentionReport};
use crate::faults::{faults, FaultsReport};
use crate::heatmap::{heatmap, Heatmap};
use crate::occupancy::{occupancy, OccupancyReport};
use crate::spans::{spans, SpansReport};
use crate::timeseries::{timeseries, TimeseriesReport};
use pms_trace::{Json, TraceEvent, TraceRecord};
use std::fmt;

/// Report tuning knobs.
#[derive(Debug, Clone)]
pub struct ReportConfig {
    /// Port count override; inferred from the trace when `None`.
    pub ports: Option<usize>,
    /// Premature-eviction re-request window (ns).
    pub premature_window_ns: u64,
    /// Sparkline width in columns.
    pub spark_width: usize,
    /// HOL detector: latency multiple of the median that flags a stall.
    pub hol_factor: f64,
    /// HOL detector: how many suspects to list.
    pub max_hol_stalls: usize,
}

impl Default for ReportConfig {
    fn default() -> Self {
        ReportConfig {
            ports: None,
            premature_window_ns: 5_000,
            spark_width: 48,
            hol_factor: 2.0,
            max_hol_stalls: 16,
        }
    }
}

/// The assembled report.
#[derive(Debug, Clone)]
pub struct Report {
    /// Port count used by the matrix-shaped sections.
    pub ports: usize,
    /// Records analyzed.
    pub records: u64,
    /// Event counts per kind, in kind-label order.
    pub event_counts: Vec<(&'static str, u64)>,
    /// Slot-occupancy timeline.
    pub occupancy: OccupancyReport,
    /// Traffic demand matrix.
    pub heatmap: Heatmap,
    /// Eviction churn and premature-eviction rates.
    pub churn: ChurnReport,
    /// Setup-latency attribution and HOL stalls.
    pub contention: ContentionReport,
    /// Fault exposure, efficiency loss, and recovery latency.
    pub faults: FaultsReport,
    /// Causal-span phase latencies and critical paths.
    pub spans: SpansReport,
    /// Streaming-admission accounting (per-tenant accepts/rejects,
    /// batch fill, queue wait).
    pub admission: AdmissionReport,
    /// Metrics-snapshot time-series summary.
    pub timeseries: TimeseriesReport,
    /// Alert raises/clears reconstructed from the trace.
    pub alerts: AlertsReport,
}

/// Infers the crossbar size from a trace: one more than the largest
/// port index mentioned by any event (1 when none is).
pub fn infer_ports(records: &[TraceRecord]) -> usize {
    highest_port(records).map_or(1, |p| p + 1)
}

/// The largest port index mentioned by any event, if any is.
fn highest_port(records: &[TraceRecord]) -> Option<usize> {
    records
        .iter()
        .filter_map(|rec| match rec.event {
            TraceEvent::MsgInjected { src, dst, .. }
            | TraceEvent::MsgDelivered { src, dst, .. }
            | TraceEvent::ConnRequested { src, dst }
            | TraceEvent::ConnEstablished { src, dst, .. }
            | TraceEvent::ConnEvicted { src, dst, .. } => Some(src.max(dst) as usize),
            _ => None,
        })
        .max()
}

/// A port-count override the trace does not fit: it names a port at or
/// past the override, which the matrix-shaped sections cannot index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortsError {
    /// The port-count override.
    pub ports: usize,
    /// The largest port index the trace names.
    pub highest: usize,
}

impl fmt::Display for PortsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "--ports {} is below the trace's port count: it names port {}",
            self.ports, self.highest
        )
    }
}

impl std::error::Error for PortsError {}

impl ReportConfig {
    /// Checks the `ports` override against `records`: every port the
    /// trace names must lie below it. [`build_report`] panics on a trace
    /// that fails this check.
    pub fn check_ports(&self, records: &[TraceRecord]) -> Result<(), PortsError> {
        match (self.ports, highest_port(records)) {
            (Some(ports), Some(highest)) if highest >= ports => Err(PortsError { ports, highest }),
            _ => Ok(()),
        }
    }
}

/// Builds the full report over an in-memory record stream.
pub fn build_report(records: &[TraceRecord], cfg: &ReportConfig) -> Report {
    let ports = cfg.ports.unwrap_or_else(|| infer_ports(records));
    let mut event_counts: Vec<(&'static str, u64)> = Vec::new();
    for rec in records {
        let kind = rec.event.kind();
        match event_counts.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, n)) => *n += 1,
            None => event_counts.push((kind, 1)),
        }
    }
    event_counts.sort_by_key(|(k, _)| *k);
    Report {
        ports,
        records: records.len() as u64,
        event_counts,
        occupancy: occupancy(records, ports, cfg.spark_width),
        heatmap: heatmap(records, ports),
        churn: churn(records, cfg.premature_window_ns),
        contention: contention(records, cfg.hol_factor, cfg.max_hol_stalls),
        faults: faults(records),
        spans: spans(records),
        admission: admission(records),
        timeseries: timeseries(records),
        alerts: alerts(records),
    }
}

impl Report {
    /// The full report as one JSON object (deterministic).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("ports", self.ports.into()),
            ("records", self.records.into()),
            (
                "event_counts",
                Json::Object(
                    self.event_counts
                        .iter()
                        .map(|(k, n)| (k.to_string(), Json::UInt(*n)))
                        .collect(),
                ),
            ),
            ("occupancy", self.occupancy.to_json()),
            ("heatmap", self.heatmap.to_json()),
            ("churn", self.churn.to_json()),
            ("contention", self.contention.to_json()),
            ("faults", self.faults.to_json()),
            ("spans", self.spans.to_json()),
            ("admission", self.admission.to_json()),
            ("timeseries", self.timeseries.to_json()),
            ("alerts", self.alerts.to_json()),
        ])
    }

    /// Human-readable rendering for terminals.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let push = |out: &mut String, s: String| {
            out.push_str(&s);
            out.push('\n');
        };
        push(
            &mut out,
            format!(
                "== trace report ({} records, {} ports) ==",
                self.records, self.ports
            ),
        );
        push(&mut out, "-- events --".into());
        for (kind, n) in &self.event_counts {
            push(&mut out, format!("  {kind:<18} {n:>10}"));
        }

        push(&mut out, "-- slot occupancy --".into());
        if self.occupancy.slots.is_empty() {
            push(&mut out, "  (no slot-advanced events in trace)".into());
        }
        for s in &self.occupancy.slots {
            push(
                &mut out,
                format!(
                    "  slot {:>2}: {:>8} visits  min {:>5.1}%  mean {:>5.1}%  max {:>5.1}%  |{}|",
                    s.slot,
                    s.samples,
                    s.min * 100.0,
                    s.mean * 100.0,
                    s.max * 100.0,
                    s.sparkline
                ),
            );
        }
        if self.occupancy.total_samples > 0 {
            push(
                &mut out,
                format!(
                    "  overall: mean {:.1}% over {} slot visits",
                    self.occupancy.overall_mean * 100.0,
                    self.occupancy.total_samples
                ),
            );
        }

        push(&mut out, "-- traffic heatmap (hottest pairs) --".into());
        push(
            &mut out,
            format!(
                "  {} msgs, {} bytes over {} active pairs",
                self.heatmap.total_msgs(),
                self.heatmap.total_bytes(),
                self.heatmap.hottest(usize::MAX).len()
            ),
        );
        for (src, dst, msgs, bytes) in self.heatmap.hottest(8) {
            push(
                &mut out,
                format!("  {src:>4} -> {dst:<4} {msgs:>8} msgs {bytes:>12} B"),
            );
        }

        push(
            &mut out,
            format!("-- predictor churn (window {} ns) --", self.churn.window_ns),
        );
        for c in &self.churn.by_cause {
            if c.evictions > 0 {
                push(
                    &mut out,
                    format!(
                        "  {:<12} {:>8} evictions, {:>8} premature ({:>5.1}%)",
                        c.cause,
                        c.evictions,
                        c.premature,
                        c.rate() * 100.0
                    ),
                );
            }
        }
        push(
            &mut out,
            format!(
                "  total: {} evictions, {} premature, rate {:.1}%",
                self.churn.total_evictions,
                self.churn.total_premature,
                self.churn.premature_rate() * 100.0
            ),
        );

        let s = &self.contention.setup;
        push(&mut out, "-- setup-latency attribution --".into());
        push(
            &mut out,
            format!(
                "  {} setups, mean wait {:.0} ns, max {} ns",
                s.setups, s.mean_wait_ns, s.max_wait_ns
            ),
        );
        let total = (s.alignment_ns + s.contention_ns).max(1);
        push(
            &mut out,
            format!(
                "  alignment  {:>12} ns ({:>5.1}%)  waiting for an SL pass",
                s.alignment_ns,
                s.alignment_ns as f64 * 100.0 / total as f64
            ),
        );
        push(
            &mut out,
            format!(
                "  contention {:>12} ns ({:>5.1}%)  denied by passes (mean ripple {:.1})",
                s.contention_ns,
                s.contention_ns as f64 * 100.0 / total as f64,
                s.mean_ripple_depth
            ),
        );
        push(
            &mut out,
            format!(
                "  service    {:>12} ns           established, awaiting slot",
                s.service_ns
            ),
        );

        let h = &self.contention.hol;
        push(
            &mut out,
            format!(
                "-- head-of-line stalls (> {:.1}x median {} ns) --",
                h.factor, h.median_latency_ns
            ),
        );
        if h.stalls.is_empty() {
            push(&mut out, "  none detected".into());
        }
        for st in &h.stalls {
            push(
                &mut out,
                format!(
                    "  msg {:>6} {:>4} -> {:<4} latency {:>10} ns, {} blocker(s)",
                    st.msg, st.src, st.dst, st.latency_ns, st.blockers
                ),
            );
        }

        let f = &self.faults;
        push(&mut out, "-- fault impact --".into());
        if f.injected == 0 {
            push(&mut out, "  no faults injected".into());
        } else {
            for c in &f.by_class {
                if c.injected > 0 {
                    push(
                        &mut out,
                        format!(
                            "  {:<14} {:>6} injected, {:>6} cleared",
                            c.class, c.injected, c.cleared
                        ),
                    );
                }
            }
            push(
                &mut out,
                format!(
                    "  exposure: {} ns faulted vs {} ns clean; {} retries, {} abandoned",
                    f.fault_ns, f.clean_ns, f.msg_retries, f.msgs_abandoned
                ),
            );
            push(
                &mut out,
                format!(
                    "  throughput {:.3} B/ns faulted vs {:.3} B/ns clean: {:.1}% efficiency loss",
                    f.faulted_rate(),
                    f.clean_rate(),
                    f.efficiency_loss() * 100.0
                ),
            );
            push(
                &mut out,
                format!(
                    "  recovery: {} pipes rebuilt (mean {:.0} ns, max {} ns), {} unrecovered",
                    f.recoveries, f.mean_recovery_ns, f.max_recovery_ns, f.unrecovered
                ),
            );
        }

        let sp = &self.spans;
        push(&mut out, "-- causal spans --".into());
        if sp.msgs == 0 && sp.conns == 0 {
            push(
                &mut out,
                "  no spans in trace (run with tracing enabled)".into(),
            );
        } else {
            push(
                &mut out,
                format!(
                    "  {} msg spans, {} conn spans, {} route admits; {} tiling violations, {} open at EOF",
                    sp.msgs, sp.conns, sp.routes, sp.tiling_violations, sp.unmatched_starts
                ),
            );
            for p in &sp.phases {
                push(
                    &mut out,
                    format!(
                        "  {:<9} {:>8} spans  p50 {:>8} ns  p99 {:>8} ns  max {:>8} ns  dominates {}",
                        p.phase, p.count, p.p50_ns, p.p99_ns, p.max_ns, p.dominant_msgs
                    ),
                );
            }
            if !sp.critical_path.is_empty() {
                push(&mut out, "  critical path (slowest messages):".into());
                for cm in &sp.critical_path {
                    push(
                        &mut out,
                        format!(
                            "    msg {:>6} {:>10} ns = arrival {} + admit {} + align {} + transfer {} ({})",
                            cm.msg,
                            cm.total_ns,
                            cm.phase_ns[0],
                            cm.phase_ns[1],
                            cm.phase_ns[2],
                            cm.phase_ns[3],
                            cm.dominant()
                        ),
                    );
                }
            }
        }

        out.push_str(&self.admission.render_text());
        out.push_str(&self.timeseries.render_text());
        out.push_str(&self.alerts.render_text());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pms_trace::EvictCause;

    fn small_trace() -> Vec<TraceRecord> {
        let rec = |t_ns, event| TraceRecord {
            t_ns,
            slot: 0,
            event,
        };
        vec![
            rec(
                0,
                TraceEvent::MsgInjected {
                    src: 0,
                    dst: 3,
                    bytes: 64,
                    msg: 0,
                },
            ),
            rec(0, TraceEvent::ConnRequested { src: 0, dst: 3 }),
            rec(
                80,
                TraceEvent::SchedPass {
                    passes: 1,
                    ripple_depth: 2,
                    established: 1,
                    released: 0,
                    denied: 0,
                },
            ),
            rec(
                80,
                TraceEvent::ConnEstablished {
                    src: 0,
                    dst: 3,
                    slot_idx: 0,
                },
            ),
            rec(100, TraceEvent::SlotAdvanced { slot_idx: 0 }),
            rec(
                180,
                TraceEvent::MsgDelivered {
                    src: 0,
                    dst: 3,
                    bytes: 64,
                    msg: 0,
                    latency_ns: 180,
                },
            ),
            rec(
                500,
                TraceEvent::ConnEvicted {
                    src: 0,
                    dst: 3,
                    cause: EvictCause::Timeout,
                },
            ),
        ]
    }

    #[test]
    fn report_is_deterministic_and_complete() {
        let records = small_trace();
        let cfg = ReportConfig::default();
        let a = build_report(&records, &cfg).to_json().render_pretty();
        let b = build_report(&records, &cfg).to_json().render_pretty();
        assert_eq!(a, b);
        for section in [
            "occupancy",
            "heatmap",
            "churn",
            "contention",
            "faults",
            "spans",
            "admission",
            "timeseries",
            "alerts",
        ] {
            assert!(a.contains(&format!("\"{section}\"")), "missing {section}");
        }
    }

    #[test]
    fn ports_are_inferred_from_the_trace() {
        let records = small_trace();
        assert_eq!(infer_ports(&records), 4);
        let r = build_report(&records, &ReportConfig::default());
        assert_eq!(r.ports, 4);
        assert_eq!(r.heatmap.msg_count(0, 3), 1);
    }

    #[test]
    fn a_port_override_below_the_trace_is_an_error() {
        let records = small_trace();
        let cfg = |ports| ReportConfig {
            ports: Some(ports),
            ..ReportConfig::default()
        };
        assert_eq!(
            cfg(3).check_ports(&records),
            Err(PortsError {
                ports: 3,
                highest: 3
            })
        );
        assert_eq!(cfg(4).check_ports(&records), Ok(()));
        assert_eq!(ReportConfig::default().check_ports(&records), Ok(()));
        assert_eq!(
            cfg(1).check_ports(&[]),
            Ok(()),
            "an empty trace names no port"
        );
    }

    #[test]
    fn explicit_ports_override_inference() {
        let r = build_report(
            &small_trace(),
            &ReportConfig {
                ports: Some(16),
                ..ReportConfig::default()
            },
        );
        assert_eq!(r.ports, 16);
        assert_eq!(r.heatmap.ports, 16);
    }

    #[test]
    fn text_rendering_names_every_section() {
        let text = build_report(&small_trace(), &ReportConfig::default()).render_text();
        for needle in [
            "slot occupancy",
            "traffic heatmap",
            "predictor churn",
            "setup-latency attribution",
            "head-of-line stalls",
            "fault impact",
            "causal spans",
            "admission",
            "time series",
            "alerts",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }

    #[test]
    fn empty_trace_reports_cleanly() {
        let r = build_report(&[], &ReportConfig::default());
        assert_eq!(r.records, 0);
        assert_eq!(r.ports, 1);
        assert!(!r.render_text().is_empty());
        r.to_json().render();
    }
}

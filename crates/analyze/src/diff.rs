//! Run diffing: compares two reports metric-by-metric and renders a
//! deterministic delta table.
//!
//! `analyze --diff a.jsonl b.jsonl` builds a [`Report`] from each trace
//! and diffs them here: per-event-kind count deltas, per-span-phase
//! quantile shifts, and section totals, each flagged when the relative
//! change exceeds a significance threshold. Diffing a run against
//! itself reports zero deltas ([`DiffReport::is_zero`]) — CI leans on
//! that as a determinism check.

use crate::report::Report;
use pms_trace::Json;

/// Default relative-change threshold for the significance flag.
pub const DEFAULT_EPSILON: f64 = 0.05;

/// One compared metric.
#[derive(Debug, Clone)]
pub struct MetricDelta {
    /// Metric name, e.g. `events.msg-delivered` or `phase.align.p99_ns`.
    pub name: String,
    /// Value in run A.
    pub a: u64,
    /// Value in run B.
    pub b: u64,
}

impl MetricDelta {
    fn new(name: impl Into<String>, a: u64, b: u64) -> Self {
        MetricDelta {
            name: name.into(),
            a,
            b,
        }
    }

    /// Signed difference `b - a`.
    pub fn delta(&self) -> i128 {
        self.b as i128 - self.a as i128
    }

    /// Relative change `(b - a) / a`; infinite when a is zero and b is
    /// not, zero when both are zero.
    pub fn rel(&self) -> f64 {
        if self.a == 0 {
            if self.b == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.b as f64 - self.a as f64) / self.a as f64
        }
    }

    /// True when the relative change is at least `epsilon`.
    pub fn significant(&self, epsilon: f64) -> bool {
        self.a != self.b && (self.rel().is_infinite() || self.rel().abs() >= epsilon)
    }
}

/// The assembled diff of two reports.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Significance threshold used by the `!` flag.
    pub epsilon: f64,
    /// Per-event-kind record counts (union of both runs' kinds).
    pub counts: Vec<MetricDelta>,
    /// Section totals: churn, faults, time series, alerts, traffic.
    pub metrics: Vec<MetricDelta>,
    /// Per-span-phase count/p50/p99 rows.
    pub phases: Vec<MetricDelta>,
}

/// Diffs two reports. Rows are emitted in a fixed order (sorted event
/// kinds, then section totals, then phases in report order) so the
/// rendering is deterministic.
pub fn diff_reports(a: &Report, b: &Report, epsilon: f64) -> DiffReport {
    let mut counts = vec![MetricDelta::new("records", a.records, b.records)];
    let mut kinds: Vec<&'static str> = a
        .event_counts
        .iter()
        .chain(b.event_counts.iter())
        .map(|(k, _)| *k)
        .collect();
    kinds.sort_unstable();
    kinds.dedup();
    let count_of = |r: &Report, kind: &str| -> u64 {
        r.event_counts
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    };
    for kind in kinds {
        counts.push(MetricDelta::new(
            format!("events.{kind}"),
            count_of(a, kind),
            count_of(b, kind),
        ));
    }

    let metrics = vec![
        MetricDelta::new(
            "traffic.msgs",
            a.heatmap.total_msgs(),
            b.heatmap.total_msgs(),
        ),
        MetricDelta::new(
            "traffic.bytes",
            a.heatmap.total_bytes(),
            b.heatmap.total_bytes(),
        ),
        MetricDelta::new(
            "churn.evictions",
            a.churn.total_evictions,
            b.churn.total_evictions,
        ),
        MetricDelta::new(
            "churn.premature",
            a.churn.total_premature,
            b.churn.total_premature,
        ),
        MetricDelta::new(
            "setup.count",
            a.contention.setup.setups,
            b.contention.setup.setups,
        ),
        MetricDelta::new(
            "setup.max_wait_ns",
            a.contention.setup.max_wait_ns,
            b.contention.setup.max_wait_ns,
        ),
        MetricDelta::new("faults.injected", a.faults.injected, b.faults.injected),
        MetricDelta::new("faults.retries", a.faults.msg_retries, b.faults.msg_retries),
        MetricDelta::new(
            "faults.abandoned",
            a.faults.msgs_abandoned,
            b.faults.msgs_abandoned,
        ),
        MetricDelta::new("faults.fault_ns", a.faults.fault_ns, b.faults.fault_ns),
        MetricDelta::new(
            "timeseries.windows",
            a.timeseries.windows,
            b.timeseries.windows,
        ),
        MetricDelta::new(
            "timeseries.delivered",
            a.timeseries.delivered,
            b.timeseries.delivered,
        ),
        MetricDelta::new(
            "timeseries.peak_setup_ns",
            a.timeseries.peak_setup_ns,
            b.timeseries.peak_setup_ns,
        ),
        MetricDelta::new("alerts.raises", a.alerts.raises, b.alerts.raises),
        MetricDelta::new("alerts.clears", a.alerts.clears, b.alerts.clears),
    ];

    let mut phases = Vec::new();
    let mut labels: Vec<&'static str> = a
        .spans
        .phases
        .iter()
        .chain(b.spans.phases.iter())
        .map(|p| p.phase)
        .collect();
    labels.dedup();
    let phase_of = |r: &Report, label: &str| -> (u64, u64, u64) {
        r.spans
            .phases
            .iter()
            .find(|p| p.phase == label)
            .map(|p| (p.count, p.p50_ns, p.p99_ns))
            .unwrap_or((0, 0, 0))
    };
    for label in labels {
        let (ca, p50a, p99a) = phase_of(a, label);
        let (cb, p50b, p99b) = phase_of(b, label);
        phases.push(MetricDelta::new(format!("phase.{label}.count"), ca, cb));
        phases.push(MetricDelta::new(
            format!("phase.{label}.p50_ns"),
            p50a,
            p50b,
        ));
        phases.push(MetricDelta::new(
            format!("phase.{label}.p99_ns"),
            p99a,
            p99b,
        ));
    }

    DiffReport {
        epsilon,
        counts,
        metrics,
        phases,
    }
}

impl DiffReport {
    /// All rows, in rendering order.
    pub fn rows(&self) -> impl Iterator<Item = &MetricDelta> {
        self.counts
            .iter()
            .chain(self.metrics.iter())
            .chain(self.phases.iter())
    }

    /// True when every metric is identical between the two runs.
    pub fn is_zero(&self) -> bool {
        self.rows().all(|r| r.a == r.b)
    }

    /// Rows whose relative change meets the significance threshold.
    pub fn significant(&self) -> Vec<&MetricDelta> {
        self.rows()
            .filter(|r| r.significant(self.epsilon))
            .collect()
    }

    /// JSON rendering (deterministic).
    pub fn to_json(&self) -> Json {
        let rows = |v: &[MetricDelta]| {
            Json::Array(
                v.iter()
                    .map(|r| {
                        Json::obj([
                            ("name", Json::Str(r.name.clone())),
                            ("a", r.a.into()),
                            ("b", r.b.into()),
                            ("delta", Json::Int(r.delta() as i64)),
                            ("significant", Json::Bool(r.significant(self.epsilon))),
                        ])
                    })
                    .collect(),
            )
        };
        Json::obj([
            ("epsilon", self.epsilon.into()),
            ("zero", Json::Bool(self.is_zero())),
            ("counts", rows(&self.counts)),
            ("metrics", rows(&self.metrics)),
            ("phases", rows(&self.phases)),
        ])
    }

    /// Human-readable delta table. Significant rows carry a `!` marker.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== run diff (significance threshold {:.1}%) ==\n",
            self.epsilon * 100.0
        ));
        if self.is_zero() {
            out.push_str("  runs are identical: zero deltas across all metrics\n");
            return out;
        }
        let section = |title: &str, rows: &[MetricDelta], out: &mut String| {
            let changed: Vec<&MetricDelta> = rows.iter().filter(|r| r.a != r.b).collect();
            out.push_str(&format!("-- {title} ({} changed) --\n", changed.len()));
            for r in changed {
                let rel = r.rel();
                let rel_str = if rel.is_infinite() {
                    "   new".to_string()
                } else {
                    format!("{:+6.1}%", rel * 100.0)
                };
                out.push_str(&format!(
                    "  {} {:<26} {:>12} -> {:>12}  ({:>+12}, {rel_str})\n",
                    if r.significant(self.epsilon) {
                        "!"
                    } else {
                        " "
                    },
                    r.name,
                    r.a,
                    r.b,
                    r.delta(),
                ));
            }
        };
        section("event counts", &self.counts, &mut out);
        section("section totals", &self.metrics, &mut out);
        section("span phases", &self.phases, &mut out);
        let sig = self.significant().len();
        out.push_str(&format!("  {} significant change(s)\n", sig));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{build_report, ReportConfig};
    use pms_trace::{TraceEvent, TraceRecord};

    fn trace(n: u64) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| TraceRecord {
                t_ns: i * 100,
                slot: 0,
                event: TraceEvent::MsgDelivered {
                    src: 0,
                    dst: 1,
                    bytes: 64,
                    msg: i as u32,
                    latency_ns: 50 + i,
                },
            })
            .collect()
    }

    #[test]
    fn self_diff_is_zero() {
        let r = build_report(&trace(10), &ReportConfig::default());
        let d = diff_reports(&r, &r, DEFAULT_EPSILON);
        assert!(d.is_zero());
        assert!(d.significant().is_empty());
        assert!(d.render_text().contains("zero deltas"));
    }

    #[test]
    fn changed_counts_are_flagged() {
        let a = build_report(&trace(10), &ReportConfig::default());
        let b = build_report(&trace(20), &ReportConfig::default());
        let d = diff_reports(&a, &b, DEFAULT_EPSILON);
        assert!(!d.is_zero());
        let row = d
            .counts
            .iter()
            .find(|r| r.name == "events.msg-delivered")
            .unwrap();
        assert_eq!(row.a, 10);
        assert_eq!(row.b, 20);
        assert_eq!(row.delta(), 10);
        assert!(row.significant(DEFAULT_EPSILON));
        assert!(d.render_text().contains("events.msg-delivered"));
    }

    #[test]
    fn small_changes_are_not_significant() {
        let m = MetricDelta::new("x", 1000, 1009);
        assert!(!m.significant(0.05));
        assert!(m.significant(0.001));
        let new = MetricDelta::new("y", 0, 3);
        assert!(new.significant(0.05));
        assert!(new.rel().is_infinite());
    }

    #[test]
    fn diff_json_is_deterministic() {
        let a = build_report(&trace(5), &ReportConfig::default());
        let b = build_report(&trace(6), &ReportConfig::default());
        let x = diff_reports(&a, &b, DEFAULT_EPSILON).to_json().render();
        let y = diff_reports(&a, &b, DEFAULT_EPSILON).to_json().render();
        assert_eq!(x, y);
    }
}

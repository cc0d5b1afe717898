//! `pms-analyze`: derived metrics over `pms-trace` event streams.
//!
//! Where `pms-trace` records *what happened* — connection lifecycle,
//! scheduler passes, slot advances — this crate turns a record stream
//! (in-memory or replayed from a JSONL file) into the reports an
//! operator actually reads:
//!
//! * [`occupancy`] — per-slot crossbar utilization over time, with
//!   min/mean/max and a text sparkline per configuration register;
//! * [`heatmap`] — the N×N traffic demand matrix (messages and bytes
//!   per source/destination pair), exportable as JSON or CSV;
//! * [`churn`] — per-cause eviction counts joined with subsequent
//!   re-requests to yield the premature-eviction rate, the tuning
//!   signal for the §3.2 connection predictors;
//! * [`contention`] — setup-latency attribution (alignment vs
//!   scheduler contention vs slot service) and a head-of-line stall
//!   detector for the wormhole baseline;
//! * [`faults`] — fault exposure, efficiency loss inside fault windows
//!   versus clean operation, and clear-to-reestablish recovery latency
//!   (the graceful-degradation signal for `pms-faults` runs);
//! * [`spans`] — causal-span analysis: exact per-phase latency
//!   distributions (p50/p99) and critical-path extraction from
//!   `span-start`/`span-end` records, with the tiling invariant
//!   (phases sum to the end-to-end span) checked per message;
//! * [`admission`] — streaming-admission accounting over `pms-admit`
//!   event streams: per-tenant accept/reject/shed counts, the
//!   reject-cause breakdown, batch-fill histogram, and queue-wait
//!   percentiles;
//! * [`schedule`] — schedule-quality section for `pms-schedopt` costed
//!   schedules: per-configuration demand coverage, reconfiguration
//!   overhead fraction, and predicted-vs-simulated makespan error
//!   (built from the schedule itself, not a trace — traces cannot
//!   reconstruct the schedule that produced them);
//! * [`timeseries`] — summary and CSV export of the slot-windowed
//!   `metrics-snapshot` series emitted by
//!   [`pms_trace::SnapshotCollector`];
//! * [`alerts`] — alert raises/clears reconstructed from
//!   `alert-raised`/`alert-cleared` records, rendered identically live
//!   (telemetry `/alerts`) and from replay;
//! * [`diff`] — run-vs-run deltas (`analyze --diff`): per-metric and
//!   per-phase changes with a significance flag;
//! * [`report`] — all of the above assembled into one deterministic
//!   [`Report`](report::Report), rendered as JSON or terminal text.
//!
//! [`replay`] parses JSONL traces (as written by
//! [`pms_trace::write_jsonl`]) back into
//! [`pms_trace::TraceRecord`]s, so the `analyze` binary reproduces the
//! exact report a live `simulate --report` run would have produced:
//! reports are pure functions of the record stream.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod alerts;
pub mod churn;
pub mod contention;
pub mod csv;
pub mod diff;
pub mod faults;
pub mod heatmap;
pub mod occupancy;
pub mod replay;
pub mod report;
pub mod schedule;
pub mod spans;
pub mod timeseries;

pub use admission::{admission, AdmissionReport, TenantAdmission, FILL_BUCKETS};
pub use alerts::{alerts, AlertsReport, RuleAlerts};
pub use churn::{churn, CauseChurn, ChurnReport};
pub use contention::{contention, ContentionReport, HolReport, HolStall, SetupAttribution};
pub use diff::{diff_reports, DiffReport, MetricDelta, DEFAULT_EPSILON};
pub use faults::{faults, ClassFaults, FaultsReport};
pub use heatmap::{heatmap, Heatmap};
pub use occupancy::{occupancy, OccupancyReport, SlotOccupancy};
pub use replay::{parse_jsonl, parse_line, Replay};
pub use report::{build_report, infer_ports, PortsError, Report, ReportConfig};
pub use schedule::{schedule_quality, ConfigCoverage, ScheduleQualityReport};
pub use spans::{spans, CriticalMsg, PhaseStats, SpansReport};
pub use timeseries::{timeseries, timeseries_csv, TimeseriesReport};

//! Observability for the PMS simulator stack: typed trace events, sinks,
//! a metrics registry, and Chrome-trace/JSONL export.
//!
//! The paper's evaluation (§5) turns on *why* a switching paradigm wins —
//! working-set hits, SL scheduling passes, predictor evictions — which an
//! aggregate like `SimStats` cannot explain after the fact. This crate
//! provides the timeline: every simulator emits [`TraceEvent`]s stamped
//! with simulation time and the active TDM slot, a [`Tracer`] sink
//! collects (or drops) them, and [`chrome`] renders the result so it can
//! be loaded straight into `chrome://tracing` / Perfetto.
//!
//! Design rules:
//!
//! * **Zero overhead when off** — [`Tracer::Null`] is a single
//!   always-false [`Tracer::enabled`] check at every emit site; callers
//!   guard event construction behind it, so the hot loops do no
//!   formatting, no allocation, and no writes.
//! * **No floats, no strings on the hot path** — events are plain
//!   integer structs; [`metrics::Histogram`] uses log2 buckets.
//! * **48-byte records** — every event kind fits 24 B of payload inline
//!   except `metrics-snapshot`, whose payload ([`MetricsWindow`]) is
//!   boxed: the snapshot pipeline allocates one box per closed window,
//!   and recording any other event allocates nothing beyond its sink's
//!   own buffer.
//! * **Zero dependencies** — including JSON: [`json`] is a small
//!   hand-rolled value tree + renderer (the build environment has no
//!   registry access, and a trace writer has no business pulling one in).
//!
//! Being the one crate every binary links, it also holds [`cli`], the
//! command-line parser and exit-status rule all of them share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alerts;
pub mod chrome;
pub mod cli;
pub mod event;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod prof;
pub mod sink;
pub mod span;
pub mod timeseries;

pub use alerts::{replay_alerts, AlertEngine, AlertRule, AlertRules};
pub use chrome::{chrome_trace_json, write_chrome_trace};
pub use event::{
    EventKind, EvictCause, FaultClass, Field, FieldSpec, KindSchema, MetricsWindow, RejectCause,
    SpanPhase, TraceEvent, TraceRecord, Width,
};
pub use flight::{parse_flight_dump, FlightConfig, FlightRecorder};
pub use json::{Json, ParseError};
pub use metrics::{prometheus_name, Histogram, MetricsRegistry, PROMETHEUS_CONTENT_TYPE};
pub use prof::{KernelSnapshot, ProfKernel, ProfScope};
pub use sink::{
    record_json, write_jsonl, write_record_line, PipelineTracer, RingTracer, SharedTracer,
    TraceSink, Tracer, VecTracer,
};
pub use span::{SpanTracker, NO_MSG, NO_PARENT};
pub use timeseries::{
    series_from_records, series_to_csv, Snapshot, SnapshotCollector, SnapshotConfig,
    DEFAULT_WINDOW_SLOTS,
};

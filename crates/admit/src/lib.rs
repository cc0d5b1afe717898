//! `pms-admit` — online streaming admission for the PMS scheduler.
//!
//! The closed-loop simulators (`pms-sim`) own their traffic: every NIC
//! is a model inside the engine. This crate is the open-loop
//! counterpart: an *admission service* that ingests a stream of timed
//! connection requests from outside (a workload generator, a command
//! file, or stdin), coalesces them into the word-parallel request
//! matrices the paper's scheduler consumes, and emits a deterministic
//! grant/evict/reject decision stream.
//!
//! The service is built from four orthogonal pieces:
//!
//! * [`policy`] — pluggable [`AdmissionPolicy`] ranks in the PIFO model
//!   (FIFO, strict tenant priority, shortest-first);
//! * [`queue`] — one bounded rank-ordered ingress queue with explicit
//!   backpressure (reject-new or shed-oldest);
//! * [`ratelimit`] — per-tenant token buckets on the stream's own
//!   virtual clock (no wall clock anywhere);
//! * [`engine`] — the batch-epoch state machine driving
//!   `Scheduler::pass` / `pass_admitted` and emitting
//!   `pms-trace` events for every decision.
//!
//! Everything is a pure function of the request stream and the
//! configuration, so a run, a rerun, and a replay from the JSONL trace
//! all produce byte-identical decision streams — the same bar the rest
//! of the workspace holds (see `DESIGN.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod policy;
pub mod queue;
pub mod ratelimit;
pub mod stream;

pub use engine::{
    decisions_from_records, AdmitConfig, AdmitConfigError, AdmitEngine, AdmitOutcome, AdmitStats,
    Backpressure, Decision,
};
pub use policy::{AdmissionPolicy, Fifo, PolicyKind, ShortestFirst, StrictPriority};
pub use queue::{Pending, PifoQueue, Push};
pub use ratelimit::{RateConfig, TokenBuckets};
pub use stream::{format_request, parse_requests, StreamError};

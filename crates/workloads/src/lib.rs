//! Workload generation for the PMS evaluation (§5).
//!
//! "Each of the 128 processors is modeled as a packet generator/receiver
//! and contains a command file that defines the type and sequence of
//! communications that occur." This crate provides:
//!
//! * [`Command`]/[`Program`] — the per-processor command sequences, with a
//!   text DSL ([`parse_program`]/[`format_program`]) mirroring the paper's
//!   command files;
//! * [`Workload`] — a named bundle of programs plus preloadable patterns;
//! * generators for the paper's five test patterns — [`scatter`],
//!   [`random_mesh`], [`ordered_mesh`], [`two_phase`], [`hybrid`] — and
//!   NAS-flavored extras ([`transpose`], [`ring`], [`gather`],
//!   [`stencil3d`], [`butterfly`]);
//! * [`datacenter`] — seeded skewed sparse matrices (few large
//!   "elephant" flows plus many small "mice", Pareto-sized) in the
//!   Costly-Circuits traffic model, and [`replay_trace_log`] — NPB-style
//!   communication logs (`trace <src> <dst> <bytes>`) lowered through
//!   the command-file path;
//! * [`build_pattern`] — the one name → workload table the command-line
//!   tools share, with a typed [`PatternError`] for a port count the
//!   pattern cannot take.
//!
//! All randomness is drawn from a caller-seeded [`rand::rngs::StdRng`], so
//! every workload (and therefore every figure) regenerates bit-identically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arrivals;
mod datacenter;
mod dsl;
mod patterns;
mod program;
mod registry;
mod workload;

pub use arrivals::{arrivals, ArrivalConfig, Arrivals, ConnRequest};
pub use datacenter::{
    datacenter, datacenter_flows, parse_trace_log, replay_trace_log, DatacenterSpec,
};
pub use dsl::{format_program, parse_program};
pub use patterns::{
    butterfly, gather, hotspot, hybrid, ordered_mesh, permutation, random_mesh, ring, scatter,
    stencil3d, transpose, two_phase, uniform, HybridSpec, MeshSpec,
};
pub use program::{Command, Program};
pub use registry::{build_pattern, PatternError, DEFAULT_SEED, PATTERNS};
pub use workload::{MsgSpec, Workload};

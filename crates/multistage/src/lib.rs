//! Slot routers for blocking fabrics: stage graphs and the multi-hop
//! torus.
//!
//! The single PMS crossbar holds `K` configuration matrices and switches
//! between them slot by slot. This crate generalizes that picture to a
//! *pipeline of crossbar stages*: a [`StageGraph`] describes which line of
//! each layer every stage can reach, and a [`MultistageRouter`] keeps one
//! configuration matrix per stage per slot (`B_s^(0..K-1)`), admitting a
//! connection only when a full path through every stage is free in that
//! slot. The flat crossbar is the one-stage degenerate case, so the
//! existing scheduler semantics are preserved exactly there; Omega,
//! butterfly, and fat-tree graphs expose the internal blocking the paper's
//! multiplexed switching is designed to hide. [`TorusRouter`] covers the
//! §6 multi-hop torus, whose dimension-order routes ([`TorusNetwork`])
//! do not fit a stage sequence.
//!
//! Both implement `pms_sched::SlotRouter`, the one way a fabric
//! constrains scheduling (`Scheduler::pass_admitted`, `TdmSim::with_router`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod router;
pub mod torus;

pub use graph::StageGraph;
pub use router::MultistageRouter;
pub use torus::{TorusNetwork, TorusRouter};

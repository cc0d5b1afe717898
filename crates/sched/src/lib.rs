//! The PMS hardware scheduler model (§4 of the paper, Figures 2-3,
//! Tables 1-3).
//!
//! The scheduler owns `K` configuration registers `B^(0)..B^(K-1)`, each a
//! partial-permutation matrix describing the crossbar setting of one TDM
//! time slot. Every SL clock it picks a slot `s`, derives the change-request
//! matrix `L` from the NIC request matrix `R`, the union matrix
//! `B* = ∨ B^(i)` and the slot matrix `B^(s)` (the *pre-scheduling logic*,
//! Table 1), then ripples availability signals through an `N x N` array of
//! identical scheduling-logic cells (Table 2, Figure 3) that release
//! no-longer-requested connections and establish newly requested ones in a
//! single combinational pass.
//!
//! Module map:
//!
//! * [`presched`] — Table 1: `(R, B*, B^(s)) -> L`;
//! * [`slcell`] — Table 2: one `SL_{u,v}` cell;
//! * [`slarray`] — the rippled cell array with rotating priority;
//! * [`tdm`] — the TDM slot counter that skips empty configurations;
//! * [`scheduler`] — the assembled scheduler with the paper's extensions
//!   (request latches, flush, preloaded configurations, multi-slot
//!   bandwidth);
//! * [`timing`] — the structural critical-path model reproducing Table 3.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod presched;
pub mod scheduler;
pub mod slarray;
pub mod slcell;
pub mod tdm;
pub mod timing;

pub use presched::{presched_case, presched_matrix, PreschedCase};
pub use scheduler::{
    BandwidthMode, HoldPolicy, PassReport, Scheduler, SchedulerConfig, SlotRouter,
};
pub use slarray::{sl_pass, Priority, SlPassOutput};
pub use slcell::{sl_cell, CellAction, CellInput, CellOutput};
pub use tdm::TdmCounter;
pub use timing::{SlTimingModel, ASIC_DERATE, FPGA_STRATIX};

//! Passive switch-fabric models for the PMS interconnection system.
//!
//! The paper's switching fabric is "a passive fabric with no buffering or
//! control capabilities" whose mapping from input to output ports is
//! determined entirely by externally loaded configuration registers (§4).
//! A configuration is a Boolean matrix `B` where `B[u][v] = 1` connects
//! input `u` to output `v`. On the paper's [`Crossbar`] the only
//! constraint is at most one `1` per row and per column (any partial
//! permutation is realizable).
//!
//! [`FabricState`] models the live device: the currently loaded crossbar
//! configuration plus the signal-propagation properties of its
//! [`Technology`] (digital, LVDS, optical). [`TorusNetwork`] is the
//! geometry of the §6 multi-hop fabric: its dimension-order routes feed
//! the multi-hop wormhole simulator and the torus slot router.
//!
//! Blocking fabrics (Omega, butterfly, fat tree, torus) constrain
//! scheduling through `pms_sched::SlotRouter` implementations in
//! `pms-multistage`, not through this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crossbar;
mod state;
mod technology;
mod torus;

pub use crossbar::Crossbar;
pub use state::FabricState;
pub use technology::Technology;
pub use torus::TorusNetwork;

//! Deterministic fault injection for the PMS simulator stack.
//!
//! The paper models an ideal switch: a perfect crossbar, a perfect SL
//! array, lossless grant lines. This crate supplies the misbehaving
//! hardware — as *data*, not as randomness scattered through the
//! simulators. A [`FaultPlan`] is an explicit schedule of fault windows
//! (scripted directly, or expanded from a seeded rate at plan-build
//! time); a [`FaultState`] replays that schedule against simulation time,
//! maintaining the dynamic `N×N` grant mask and the per-pair/per-port
//! fault predicates the simulators consult.
//!
//! Determinism rules:
//!
//! * **No wall-clock, no global RNG.** Rate-based schedules are expanded
//!   into concrete windows when the plan is *built*, using a caller-seeded
//!   [`rand::StdRng`]; by the time a simulator sees the plan it is fully
//!   scripted.
//! * **Transitions carry their scheduled time.** Simulators poll at
//!   their own cadence, but every [`Transition`] reports the exact
//!   boundary nanosecond, so traces are identical across paradigms with
//!   different polling granularity.
//! * **Empty plan ⇒ zero effect.** A plan with no faults makes every
//!   predicate trivially false and the grant mask all-ones; simulators
//!   treat `FaultPlan::is_empty()` as "no fault path at all".
//!
//! Fault kinds (see [`FaultKind`]):
//!
//! * `LinkDown` — a cross-point/link is unusable: masked out of fabric
//!   validity and scheduler admission; established connections over it
//!   are revoked.
//! * `StuckGrant` — an SL cell that can no longer *close* its
//!   cross-point: same admission effect as `LinkDown`, distinct class in
//!   traces (it models the cell, not the wire).
//! * `StuckRelease` — an SL cell that cannot *open*: releases and
//!   evictions of the pair are suppressed while active; on clear the
//!   connection is force-released with [`pms_trace::EvictCause::Fault`].
//! * `GrantDrop` — the grant line to a NIC drops: the NIC must re-request
//!   after a bounded exponential backoff ([`RetryPolicy::backoff_ns`]).
//! * `NicTransient` — a NIC/serialization error detected at message
//!   completion: the message is retransmitted until its per-message
//!   retry budget ([`RetryPolicy::max_retries`]) is exhausted, then
//!   abandoned.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod plan;
mod state;

pub use plan::{FaultKind, FaultPlan, RatePlanParams, RetryPolicy, ScheduledFault};
pub use state::{FaultState, Transition};

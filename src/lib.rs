//! # pms — Predictive Multiplexed Switching
//!
//! Reproduction of *"Switch Design to Enable Predictive Multiplexed
//! Switching in Multiprocessor Networks"* (IPPS 2005): a circuit-switched
//! multiprocessor interconnect in which Time Division Multiplexing lets
//! the network *cache* an application's communication working set. This
//! root crate re-exports the sub-crates — see the README for the
//! architecture overview and `EXPERIMENTS.md` for the paper-versus-measured
//! record.
//!
//! ```
//! use pms::sched::{HoldPolicy, Scheduler, SchedulerConfig, TdmCounter};
//! use pms::workloads::scatter;
//! use pms::{BitMatrix, ConnectionPredictor, TimeoutPredictor};
//! use pms::{Paradigm, PredictorKind, SimParams};
//!
//! // Hardware-level API: drive one switch's scheduler and TDM counter.
//! // Latched requests hold connections until the predictor evicts them.
//! let cfg = SchedulerConfig::new(8, 4).with_hold(HoldPolicy::Latch);
//! let (mut sched, mut tdm) = (Scheduler::new(cfg), TdmCounter::new(4));
//! let mut predictor = TimeoutPredictor::new(500);
//! let report = sched.pass(&BitMatrix::from_pairs(8, 8, [(0, 5)]));
//! for &(u, v) in &report.established {
//!     predictor.on_establish(u, v, 0);
//! }
//! // Each slot the counter picks the register the crossbar realizes.
//! let slot = tdm.advance(sched.configs()).unwrap();
//! assert_eq!(sched.grant(slot, 0), Some(5));
//! // Idle for 500 ns: the predictor evicts, clearing the request latch, and
//! // the next pass over that register releases the connection.
//! for (u, v) in predictor.take_evictions(500) {
//!     sched.clear_latch(u, v);
//! }
//! sched.settle(&BitMatrix::square(8), 8);
//! assert!(!sched.established(0, 5));
//!
//! // Evaluation API: simulate a full workload under a paradigm.
//! let stats = Paradigm::DynamicTdm(PredictorKind::Drop)
//!     .run(&scatter(8, 64), &SimParams::default().with_ports(8));
//! assert_eq!(stats.delivered_messages, 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pms_analyze as analyze;
pub use pms_bitmat as bitmat;
pub use pms_compile as compile;
pub use pms_faults as faults;
pub use pms_multistage as multistage;
pub use pms_predict as predict;
pub use pms_sched as sched;
pub use pms_sim as sim;
pub use pms_trace as trace;
pub use pms_workloads as workloads;

pub use pms_bitmat::{BitMatrix, BitVec};
pub use pms_predict::{ConnectionPredictor, TimeoutPredictor};
pub use pms_sched::{PassReport, Scheduler, SchedulerConfig, TdmCounter};
pub use pms_sim::{Paradigm, PredictorKind, SimParams, SimStats, TdmMode};
pub use pms_workloads::Workload;

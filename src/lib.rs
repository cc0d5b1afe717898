//! # pms — Predictive Multiplexed Switching
//!
//! Reproduction of *"Switch Design to Enable Predictive Multiplexed
//! Switching in Multiprocessor Networks"* (IPPS 2005): a circuit-switched
//! multiprocessor interconnect in which Time Division Multiplexing lets
//! the network *cache* an application's communication working set. This
//! root crate re-exports the sub-crates and provides [`PmsSystem`], a
//! cycle-level model of one interconnect (fabric + scheduler + TDM
//! counter + predictor) with a hardware-shaped API — see the README for
//! the architecture overview and `EXPERIMENTS.md` for the
//! paper-versus-measured record.
//!
//! ```
//! use pms::{SystemBuilder, Paradigm, PredictorKind, SimParams};
//! use pms::workloads::scatter;
//!
//! // Hardware-level API: drive a switch directly.
//! let mut sys = SystemBuilder::new(8).slots(4).build();
//! sys.request(0, 5);
//! sys.sl_pass();
//! assert!(sys.established(0, 5));
//!
//! // Evaluation API: simulate a full workload under a paradigm.
//! let stats = Paradigm::DynamicTdm(PredictorKind::Drop)
//!     .run(&scatter(8, 64), &SimParams::default().with_ports(8));
//! assert_eq!(stats.delivered_messages, 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod system;

pub use system::{PmsSystem, SystemBuilder};

pub use pms_analyze as analyze;
pub use pms_bitmat as bitmat;
pub use pms_compile as compile;
pub use pms_fabric as fabric;
pub use pms_faults as faults;
pub use pms_multistage as multistage;
pub use pms_predict as predict;
pub use pms_sched as sched;
pub use pms_sim as sim;
pub use pms_trace as trace;
pub use pms_workloads as workloads;

pub use pms_bitmat::{BitMatrix, BitVec};
pub use pms_fabric::{Crossbar, FabricState, Technology};
pub use pms_predict::{ConnectionPredictor, TimeoutPredictor};
pub use pms_sched::{PassReport, Scheduler, SchedulerConfig, TdmCounter};
pub use pms_sim::{Paradigm, PredictorKind, SimParams, SimStats, TdmMode};
pub use pms_workloads::Workload;

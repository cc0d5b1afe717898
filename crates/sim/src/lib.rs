//! Cycle-accurate simulation of the PMS evaluation system (§5).
//!
//! "For our simulations, we created a multi-processor model that contains a
//! single crossbar for communications and a single scheduler for
//! arbitration. ... We have simulated a 128 processor system that supports
//! wormhole routing, circuit switching, and multiplexing of the
//! communication pattern with dynamic scheduling and preloading a set of
//! communication patterns."
//!
//! The timing constants are the paper's, verbatim (see [`SimParams`]):
//! 10 ns NIC cycle, 30/20/30 ns serialization/wire/deserialization,
//! 6.4 Gb/s serial links, 10 ns digital crossbar vs ~0 ns LVDS, 80 ns
//! scheduler, 100 ns TDM slots carrying up to 80 B (64 B usable payload),
//! 128 B worms of 8 B flits.
//!
//! Every simulator is a [`Sim`]: one shared core (message table, program
//! engine, NIC completion and retry, fault replay, trace and span
//! plumbing, and the run entry points) driving a paradigm's switch model:
//!
//! * [`wormhole::WormholeSim`] — input-buffered wormhole crossbar;
//! * [`circuit::CircuitSim`] — pure circuit switching (TDM degree 1);
//! * [`tdm::TdmSim`] — multiplexed switching with dynamic scheduling,
//!   compiled preloading, or the hybrid split of Figure 5;
//! * [`multihop::MultihopWormholeSim`] — buffered wormhole on a torus.
//!
//! A [`Paradigm`] run goes through [`RunSpec::validate`], which rejects
//! what it cannot run as a typed [`RunError`] before any cycle.
//!
//! All simulators are deterministic: integer nanosecond timestamps, no
//! wall-clock or unseeded randomness anywhere.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod circuit;
pub mod engine;
pub mod faultrt;
pub mod guard;
pub mod message;
pub mod multihop;
pub mod params;
pub mod run;
mod simcore;
pub mod stats;
pub mod tdm;
pub mod voq;
pub mod wormhole;

pub use circuit::CircuitSim;
pub use engine::{Effect, Engine};
pub use faultrt::{FaultRt, NicOutcome};
pub use guard::GuardBand;
pub use message::MsgState;
pub use multihop::MultihopWormholeSim;
pub use params::{LinkTiming, SimParams};
pub use run::{RunError, RunSpec, ValidRun};
pub use simcore::Sim;
pub use stats::SimStats;
pub use tdm::{PredictorKind, TdmMode, TdmSim};
pub use wormhole::{WormholeQueueing, WormholeSim};

use pms_multistage::StageGraph;
use pms_trace::Tracer;
use pms_workloads::Workload;

/// Stage-graph topology selector for [`Paradigm::MultistageTdm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsTopology {
    /// The one-stage degenerate graph — byte-identical to
    /// [`Paradigm::DynamicTdm`] on the same workload and parameters.
    Crossbar,
    /// `log2 N` shuffle-exchange stages (unique paths, internal blocking).
    Omega,
    /// `log2 N` straight/cross stages (unique paths, different blocking
    /// set than the Omega network).
    Butterfly,
    /// Two-level folded Clos with a consolidated spine.
    FatTree {
        /// Hosts per leaf switch.
        arity: usize,
        /// Oversubscription ratio: `uplinks = arity / ratio`.
        ratio: usize,
    },
}

impl MsTopology {
    /// Builds the stage graph for `ports` external ports, if it exists.
    pub fn build(&self, ports: usize) -> Result<StageGraph, RunError> {
        let need = match *self {
            MsTopology::Crossbar => return Ok(StageGraph::crossbar(ports)),
            MsTopology::Omega | MsTopology::Butterfly if ports < 2 || !ports.is_power_of_two() => {
                "a power-of-two port count of at least 2"
            }
            MsTopology::Omega => return Ok(StageGraph::omega(ports)),
            MsTopology::Butterfly => return Ok(StageGraph::butterfly(ports)),
            MsTopology::FatTree { arity, ratio }
                if ratio == 0 || arity % ratio != 0 || !ports.is_multiple_of(arity) =>
            {
                "its ratio to divide its arity and its arity to divide the port count"
            }
            MsTopology::FatTree { arity, ratio } => {
                return Ok(StageGraph::fat_tree(ports, arity, arity / ratio))
            }
        };
        Err(RunError::Fabric(self.tag(), ports, need))
    }

    /// Short topology tag for labels.
    pub fn tag(&self) -> String {
        match self {
            MsTopology::Crossbar => "crossbar".into(),
            MsTopology::Omega => "omega".into(),
            MsTopology::Butterfly => "butterfly".into(),
            MsTopology::FatTree { arity, ratio } => format!("fattree{arity}x{ratio}"),
        }
    }
}

/// The switching paradigms under evaluation (Figure 4's series).
///
/// ```
/// use pms_sim::{Paradigm, PredictorKind, SimParams};
/// use pms_workloads::scatter;
///
/// let params = SimParams::default().with_ports(8);
/// let stats = Paradigm::DynamicTdm(PredictorKind::Drop)
///     .run(&scatter(8, 64), &params);
/// assert_eq!(stats.delivered_messages, 7);
/// assert!(stats.efficiency(params.link.bytes_per_ns()) > 0.0);
/// ```
#[derive(Debug, Clone)]
pub enum Paradigm {
    /// Input-buffered wormhole routing through a digital crossbar.
    Wormhole,
    /// Pure circuit switching (establish, use, tear down; degree 1).
    Circuit,
    /// Multiplexed switching, dynamically scheduled.
    DynamicTdm(PredictorKind),
    /// Multiplexed switching with compiled preloaded configurations.
    PreloadTdm,
    /// `k` preloaded slots plus `K - k` dynamic slots (Figure 5).
    HybridTdm {
        /// Number of preloaded slots `k`.
        preload_slots: usize,
        /// Predictor for the dynamic slots.
        predictor: PredictorKind,
    },
    /// Multiplexed switching over a multi-stage fabric: dynamic
    /// scheduling plus the per-stage routing pass of `pms-multistage`.
    /// With [`MsTopology::Crossbar`] this is byte-identical to
    /// [`Paradigm::DynamicTdm`].
    MultistageTdm {
        /// The stage-graph topology.
        topology: MsTopology,
        /// Eviction policy for the dynamic registers.
        predictor: PredictorKind,
    },
}

impl Paradigm {
    /// Short label for report tables.
    pub fn label(&self) -> String {
        match self {
            Paradigm::Wormhole => "wormhole".into(),
            Paradigm::Circuit => "circuit".into(),
            Paradigm::DynamicTdm(_) => "dynamic-tdm".into(),
            Paradigm::PreloadTdm => "preload-tdm".into(),
            Paradigm::HybridTdm { preload_slots, .. } => {
                format!("hybrid-{preload_slots}p")
            }
            Paradigm::MultistageTdm { topology, .. } => {
                format!("mstdm-{}", topology.tag())
            }
        }
    }

    /// Runs the workload under this paradigm and returns the statistics;
    /// panics on a run [`RunSpec::validate`] rejects.
    pub fn run(&self, workload: &Workload, params: &SimParams) -> SimStats {
        self.run_traced(workload, params, Tracer::Null).0
    }

    /// Runs the workload with the given event tracer attached; returns the
    /// statistics and the tracer (with its collected records). Panics on a
    /// run [`RunSpec::validate`] rejects.
    ///
    /// ```
    /// use pms_sim::{Paradigm, PredictorKind, SimParams};
    /// use pms_trace::Tracer;
    /// use pms_workloads::scatter;
    ///
    /// let params = SimParams::default().with_ports(8);
    /// let (stats, tracer) = Paradigm::DynamicTdm(PredictorKind::Drop)
    ///     .run_traced(&scatter(8, 64), &params, Tracer::vec());
    /// assert_eq!(stats.delivered_messages, 7);
    /// assert!(!tracer.records().is_empty());
    /// ```
    pub fn run_traced(
        &self,
        workload: &Workload,
        params: &SimParams,
        tracer: Tracer,
    ) -> (SimStats, Tracer) {
        RunSpec::new(workload, params.clone(), self.clone())
            .validate()
            .unwrap_or_else(|e| panic!("{e}"))
            .run(tracer)
    }

    /// The [`TdmMode`] a multiplexed paradigm runs ([`None`] for wormhole
    /// and circuit switching). A multistage paradigm runs dynamic
    /// scheduling behind its stage router.
    pub fn tdm_mode(&self) -> Option<TdmMode> {
        match *self {
            Paradigm::Wormhole | Paradigm::Circuit => None,
            Paradigm::DynamicTdm(predictor) | Paradigm::MultistageTdm { predictor, .. } => {
                Some(TdmMode::Dynamic { predictor })
            }
            Paradigm::PreloadTdm => Some(TdmMode::Preload),
            Paradigm::HybridTdm {
                preload_slots,
                predictor,
            } => Some(TdmMode::Hybrid {
                preload_slots,
                predictor,
            }),
        }
    }
}

//! The one validated run entry point: [`RunSpec::validate`] checks a run
//! before any cycle, and the simulator it builds while checking runs.

use crate::faultrt::FaultRt;
use crate::simcore::{Sim, Switch};
use crate::{CircuitSim, Paradigm, SimParams, SimStats, TdmSim, WormholeSim};
use pms_faults::FaultPlan;
use pms_multistage::MultistageRouter;
use pms_predict::PhaseDetectorConfig;
use pms_trace::Tracer;
use pms_workloads::Workload;
use std::fmt;

/// One simulator run, before validation; see DESIGN.md §6a.
#[derive(Debug, Clone)]
pub struct RunSpec<'w> {
    /// The processors' programs.
    pub workload: &'w Workload,
    /// Timing parameters; `ports` must match the workload's.
    pub params: SimParams,
    /// The switching paradigm.
    pub paradigm: Paradigm,
    /// Injected faults; an empty plan takes the unfaulted code path.
    pub plan: FaultPlan,
    /// A §3.3 phase detector on the dynamically scheduled registers.
    pub phase_detector: Option<PhaseDetectorConfig>,
}

/// Why a [`RunSpec`] cannot run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The workload holds `.0` processors; the parameters give `.1` ports.
    PortMismatch(usize, usize),
    /// The parameters give the switch no TDM slot.
    NoSlots,
    /// The fault plan names port `.0` of a `.1`-port switch.
    FaultPort(u32, usize),
    /// The stage graph `.0` does not exist at `.1` ports; it needs `.2`.
    Fabric(String, usize, &'static str),
    /// A hybrid run preloads `.0` registers of `K = .1`.
    PreloadSlots(usize, usize),
    /// A hybrid run preloads `.0` configurations; the workload has `.1`.
    TooFewConfigs(usize, usize),
    /// All `K` registers preloaded, no `preload` command, and message `.0`
    /// (`.1 -> .2`) in none of them.
    Stranded(usize, usize, usize),
    /// A phase detector on a paradigm without a dynamic register.
    PhaseDetector,
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::PortMismatch(w, p) => {
                write!(f, "workload holds {w} processors, switch has {p} ports")
            }
            Self::NoSlots => write!(f, "the switch needs at least 1 TDM slot, got 0"),
            Self::FaultPort(u, p) => write!(f, "fault plan names port {u}, switch has {p} ports"),
            Self::Fabric(t, p, need) => write!(f, "{t} needs {need}, got {p} ports"),
            Self::PreloadSlots(k, n) => write!(f, "cannot preload {k} TDM slots of {n}"),
            Self::TooFewConfigs(k, n) => {
                write!(f, "cannot preload {k} TDM slots, workload provides {n}")
            }
            Self::Stranded(m, u, v) => write!(
                f,
                "every TDM slot is preloaded and the workload issues no preload command, \
                 but message {m} ({u} -> {v}) is in none of the preloaded configurations"
            ),
            Self::PhaseDetector => {
                write!(f, "the phase detector needs a dynamically scheduled slot")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// A validated [`RunSpec`]: its simulator, built and ready to start.
pub struct ValidRun(Built, FaultPlan);

// Unboxed: a per-run heap copy of the simulator slows pmsbench's setup.
#[allow(clippy::large_enum_variant)]
enum Built {
    Wormhole(WormholeSim),
    Circuit(CircuitSim),
    Tdm(TdmSim),
}

impl<'w> RunSpec<'w> {
    /// A run of `workload` under `paradigm`, without faults or a phase detector.
    pub fn new(workload: &'w Workload, params: SimParams, paradigm: Paradigm) -> Self {
        let (plan, phase_detector) = (FaultPlan::new(), None);
        Self {
            workload,
            params,
            paradigm,
            plan,
            phase_detector,
        }
    }

    /// Checks the run as a whole and builds its simulator.
    pub fn validate(self) -> Result<ValidRun, RunError> {
        let (w, params, ports, plan) = (self.workload, &self.params, self.params.ports, self.plan);
        if w.ports != ports {
            return Err(RunError::PortMismatch(w.ports, ports));
        }
        if params.tdm_slots == 0 {
            return Err(RunError::NoSlots);
        }
        if plan.ports_spanned() as usize > ports {
            return Err(RunError::FaultPort(plan.ports_spanned() - 1, ports));
        }
        let Some(mode) = self.paradigm.tdm_mode() else {
            return match (&self.paradigm, self.phase_detector) {
                (_, Some(_)) => Err(RunError::PhaseDetector),
                (Paradigm::Wormhole, _) => {
                    Ok(ValidRun(Built::Wormhole(WormholeSim::new(w, params)), plan))
                }
                _ => Ok(ValidRun(Built::Circuit(CircuitSim::new(w, params)), plan)),
            };
        };
        let mut sim = TdmSim::try_new(w, params, mode)?;
        if let Paradigm::MultistageTdm { topology, .. } = &self.paradigm {
            let router = MultistageRouter::new(topology.build(ports)?, params.tdm_slots);
            sim = sim.with_router(Box::new(router));
            sim.switch.mode_label = self.paradigm.label();
        }
        if let Some(cfg) = self.phase_detector {
            if !sim.switch.has_dynamic {
                return Err(RunError::PhaseDetector);
            }
            sim = sim.with_phase_detector(cfg);
        }
        Ok(ValidRun(Built::Tdm(sim), plan))
    }
}

impl ValidRun {
    /// Runs to completion with `tracer` attached; returns the statistics
    /// and the tracer with the records it collected.
    pub fn run(self, tracer: Tracer) -> (SimStats, Tracer) {
        fn go<S: Switch>(mut sim: Sim<S>, plan: FaultPlan, tracer: Tracer) -> (SimStats, Tracer) {
            // An empty plan builds no fault state at all.
            sim.core.faults = FaultRt::new(sim.core.params.ports, plan, sim.core.msgs.len());
            sim.with_tracer(tracer).run_traced()
        }
        match self.0 {
            Built::Wormhole(sim) => go(sim, self.1, tracer),
            Built::Circuit(sim) => go(sim, self.1, tracer),
            Built::Tdm(sim) => go(sim, self.1, tracer),
        }
    }
}

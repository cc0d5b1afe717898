//! The scan engine the ready-queue [`Engine`](super::Engine) replaced,
//! kept as the oracle for the differential test in `super::tests`.
//!
//! Every call visits every processor: `poll` executes all of them in
//! index order, then scans them twice more to decide barrier release;
//! `next_wake` and `all_done` are full scans too. The ready-queue engine
//! must agree with it on every `poll`, `next_wake` and `all_done`.

use super::{Effect, Proc};
use pms_workloads::{MsgSpec, Workload};

/// Program-execution state for all processors, scanned in full on every
/// call.
pub(super) struct ScanEngine {
    procs: Vec<Proc>,
    nic_cycle_ns: u64,
}

impl ScanEngine {
    /// Builds an engine from a workload and its canonical message table.
    pub(super) fn new(workload: &Workload, table: &[MsgSpec], nic_cycle_ns: u64) -> Self {
        let n = workload.ports;
        let mut msgs_by_src = vec![Vec::new(); n];
        for m in table {
            msgs_by_src[m.src].push(m.id);
        }
        let procs = workload
            .programs
            .iter()
            .zip(msgs_by_src)
            .map(|(p, msgs)| Proc {
                cmds: p.cmds.clone(),
                pc: 0,
                ready_at: 0,
                at_barrier: false,
                msgs,
                next_msg: 0,
            })
            .collect();
        Self {
            procs,
            nic_cycle_ns,
        }
    }

    /// True when every processor has executed its whole program.
    pub(super) fn all_done(&self) -> bool {
        self.procs.iter().all(Proc::done)
    }

    /// The earliest future time at which a processor has work to run, or
    /// `None` if all are done or blocked on a barrier.
    pub(super) fn next_wake(&self) -> Option<u64> {
        self.procs
            .iter()
            .filter(|p| !p.done() && !p.at_barrier)
            .map(|p| p.ready_at)
            .min()
    }

    /// Runs every processor forward to `now`; see
    /// [`Engine::poll`](super::Engine::poll).
    pub(super) fn poll(&mut self, now: u64, network_drained: bool) -> Vec<(u64, Effect)> {
        let mut effects = Vec::new();
        loop {
            let progressed = self.execute_all(now, &mut effects);
            let drained =
                network_drained && !effects.iter().any(|(_, e)| matches!(e, Effect::Inject(_)));
            let released = self.try_release_barrier(now, drained);
            if !progressed && !released {
                break;
            }
        }
        effects.sort_by_key(|&(t, _)| t);
        effects
    }

    /// Releases the barrier if every processor is parked (or finished) and
    /// the network is empty. Returns whether a release happened.
    fn try_release_barrier(&mut self, now: u64, network_drained: bool) -> bool {
        if !network_drained
            || !self.procs.iter().any(|p| p.at_barrier)
            || !self.procs.iter().all(|p| p.at_barrier || p.done())
        {
            return false;
        }
        for p in &mut self.procs {
            if p.at_barrier {
                p.at_barrier = false;
                p.pc += 1;
                p.ready_at = p.ready_at.max(now);
            }
        }
        true
    }

    /// Executes every processor up to `now`; returns whether any command
    /// ran.
    fn execute_all(&mut self, now: u64, effects: &mut Vec<(u64, Effect)>) -> bool {
        let before = effects.len();
        let nic_cycle_ns = self.nic_cycle_ns;
        let mut progressed = false;
        for p in &mut self.procs {
            progressed |= p.execute(now, nic_cycle_ns, effects);
        }
        progressed || effects.len() > before
    }
}

//! Predictive multiplexed switching: the TDM simulator (§4-5).
//!
//! Three operating modes:
//!
//! * [`TdmMode::Dynamic`] — all `K` slots are dynamically scheduled by the
//!   hardware scheduler model; an optional predictor latches requests and
//!   evicts idle connections (§3.2);
//! * [`TdmMode::Preload`] — compiled communication (§3.1): the workload's
//!   connection trace is partitioned into phases, each phase edge-colored
//!   into conflict-free configurations, and the resulting configuration
//!   stream flows through the `K` registers as a sliding window — a
//!   register is rewritten (at a cost of one control transaction) as soon
//!   as all traffic assigned to its configuration has drained;
//! * [`TdmMode::Hybrid`] — `k` registers hold preloaded static patterns
//!   while the remaining `K − k` are dynamically scheduled (§3.3 /
//!   Figure 5).
//!
//! Timing: the slot clock ticks every 100 ns and the TDM counter skips
//! empty registers; each slot visit lets every connection of the active
//! configuration move one message fragment of up to 64 usable bytes; SL
//! passes run every 80 ns on the dynamic registers; requests become
//! visible to the scheduler 80 ns after the head message is enqueued.
//!
//! The scheduled registers (dynamic, hybrid, and stage-routed runs) live
//! here; the preloaded configuration stream lives in `stream`.

mod stream;

use crate::engine::Effect;
use crate::faultrt::NicOutcome;
use crate::params::SimParams;
use crate::run::RunError;
use crate::simcore::{Sim, SimCore, Switch};
use crate::stats::SimStats;
use crate::voq::Voqs;
use pms_bitmat::BitMatrix;
use pms_faults::FaultKind;
use pms_predict::{
    ConnectionPredictor, NeverEvict, PhaseDetector, PhaseDetectorConfig, RefCountPredictor,
    TimeoutPredictor,
};
use pms_sched::{HoldPolicy, Scheduler, SchedulerConfig, SlotRouter, TdmCounter};
use pms_trace::{EvictCause, SpanPhase, TraceEvent};
use pms_workloads::{Command, MsgSpec, Workload};
use stream::Stream;

/// Eviction policy for dynamically scheduled connections.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PredictorKind {
    /// No latching: a connection is released as soon as its request drops
    /// (the base Table 1 behaviour).
    Drop,
    /// Latch requests; evict connections idle for the given time (§3.2's
    /// "simple time-out predictor").
    Timeout(u64),
    /// Latch requests; evict after the given number of other-connection
    /// uses (§3.2's reference-counter predictor).
    RefCount(u32),
    /// Latch requests and never evict (flush-only cleanup).
    Never,
}

impl PredictorKind {
    fn build(self) -> Option<Box<dyn ConnectionPredictor>> {
        match self {
            PredictorKind::Drop => None,
            PredictorKind::Timeout(ns) => Some(Box::new(TimeoutPredictor::new(ns))),
            PredictorKind::RefCount(th) => Some(Box::new(RefCountPredictor::new(th))),
            PredictorKind::Never => Some(Box::new(NeverEvict)),
        }
    }

    fn hold_policy(self) -> HoldPolicy {
        match self {
            PredictorKind::Drop => HoldPolicy::Drop,
            _ => HoldPolicy::Latch,
        }
    }
}

/// TDM operating mode.
#[derive(Debug, Clone, Copy)]
pub enum TdmMode {
    /// All slots dynamically scheduled.
    Dynamic {
        /// Connection-eviction policy.
        predictor: PredictorKind,
    },
    /// Compiled communication: preloaded configuration stream.
    Preload,
    /// `preload_slots` static registers + the rest dynamic.
    Hybrid {
        /// Number of registers holding preloaded static patterns.
        preload_slots: usize,
        /// Eviction policy for the dynamic registers.
        predictor: PredictorKind,
    },
}

// The `Scheduled` variant dwarfs `Stream`, but exactly one backend lives
// per simulator and it is matched on every SL pass — boxing would buy a
// few hundred bytes once at the cost of an indirection on the hot path.
#[allow(clippy::large_enum_variant)]
enum Backend {
    Scheduled {
        scheduler: Scheduler,
        tdm: TdmCounter,
        predictor: Option<Box<dyn ConnectionPredictor>>,
    },
    Stream(Stream),
}

/// The multiplexed-switching simulator.
pub type TdmSim = Sim<Tdm>;

/// The TDM crossbar behind [`TdmSim`]: `K` configuration registers,
/// driven by the hardware scheduler (dynamic and hybrid modes) or by a
/// preloaded configuration stream.
///
/// Under a fault plan, preload (stream) mode has no grant lines and never
/// releases, so `GrantDrop` and `StuckRelease` faults are inert there;
/// link and NIC faults apply to every mode. A link that stays dead past
/// the simulation horizon while traffic is queued on it deadlocks the run
/// (caught by the `max_sim_ns` assertion) — bound fault windows in the
/// plan.
pub struct Tdm {
    pub(crate) mode_label: String,
    voqs: Voqs,
    backend: Backend,
    patterns: Vec<Vec<BitMatrix>>,
    preload_loads: u64,
    evictions: u64,
    pub(crate) has_dynamic: bool,
    /// §3.3 dynamic reconfiguration: a miss-rate phase detector that
    /// flushes the dynamic working set when the program's communication
    /// pattern shifts.
    phase_detector: Option<PhaseDetector>,
    /// Raised heads whose request line a grant-drop backoff held down
    /// when they rose, as `(u, v, head)`: their working-set lookup waits
    /// for the first pass that sees the line.
    hidden_heads: Vec<(usize, usize, usize)>,
    /// The heads a pass classifies, filled by [`take_lookups`] and kept
    /// so a pass allocates nothing.
    lookups: Vec<(usize, usize, usize)>,
    phase_flushes: u64,
    ws_lookups: u64,
    ws_hits: u64,
    /// Optional slot router for fabrics with internal blocking (§6:
    /// stage graphs, the multi-hop torus): every established connection
    /// must also claim its fabric resources, and every release returns
    /// them. `None` is the flat crossbar.
    router: Option<Box<dyn SlotRouter>>,
    /// `(slot, u, v)` preloaded-register connections revoked by a fault,
    /// restored when the pair's link heals (if the register still has
    /// room for them).
    fault_restores: Vec<(usize, usize, usize)>,
    /// The TDM register most recently driving the crossbar, used to stamp
    /// trace records.
    cur_slot: u32,
    /// The lists a slot visit fills, kept so a visit allocates nothing.
    scratch: SlotScratch,
}

/// The lists one [`Tdm::do_slot`] visit fills, cleared at its start.
#[derive(Default)]
struct SlotScratch {
    /// The active configuration's pairs.
    pairs: Vec<(usize, usize)>,
    /// Pairs that moved a fragment.
    used_pairs: Vec<(usize, usize)>,
    /// `(msg, time)` of each message delivered.
    delivered: Vec<(usize, u64)>,
    /// `(msg, time)` of each message abandoned.
    abandoned: Vec<(usize, u64)>,
}

impl TdmSim {
    /// Builds the simulator for a workload in the given mode.
    ///
    /// # Panics
    /// On a run [`RunSpec::validate`](crate::RunSpec::validate) rejects.
    pub fn new(workload: &Workload, params: &SimParams, mode: TdmMode) -> Self {
        Self::try_new(workload, params, mode).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`new`](Self::new), returning the hybrid preload conditions as errors.
    pub(crate) fn try_new(
        workload: &Workload,
        params: &SimParams,
        mode: TdmMode,
    ) -> Result<Self, RunError> {
        let core = SimCore::new(workload, params);
        let k = params.tdm_slots;
        let scheduled = |predictor: PredictorKind, preloads: &[&BitMatrix]| {
            let cfg = SchedulerConfig::new(params.ports, k).with_hold(predictor.hold_policy());
            let mut scheduler = Scheduler::new(cfg);
            for (s, cfg) in preloads.iter().enumerate() {
                scheduler.preload(s, (*cfg).clone());
            }
            Backend::Scheduled {
                scheduler,
                tdm: TdmCounter::new(k),
                predictor: predictor.build(),
            }
        };
        let (backend, mode_label, has_dynamic, loads) = match mode {
            TdmMode::Dynamic { predictor } => (
                scheduled(predictor, &[]),
                "dynamic-tdm".to_string(),
                true,
                0,
            ),
            TdmMode::Preload => {
                let (configs, msg_config) = Stream::compile(workload.ports, &core.msgs, k);
                let (stream, loads) = Stream::new(configs, msg_config, k, params.preload_cfg_ns);
                (
                    Backend::Stream(stream),
                    "preload-tdm".to_string(),
                    false,
                    loads,
                )
            }
            TdmMode::Hybrid {
                preload_slots,
                predictor,
            } => {
                if preload_slots > k {
                    return Err(RunError::PreloadSlots(preload_slots, k));
                }
                // Fill the preloaded registers from the workload's pattern
                // table, flattened in order.
                let flat: Vec<&BitMatrix> = workload.patterns.iter().flatten().collect();
                let preloaded = flat
                    .get(..preload_slots)
                    .ok_or(RunError::TooFewConfigs(preload_slots, flat.len()))?;
                // With every register preloaded and no `preload` command to
                // swap them, a message none of them carries never moves.
                let mut cmds = workload.programs.iter().flat_map(|p| &p.cmds);
                if preload_slots == k && !cmds.any(|c| matches!(c, Command::Preload { .. })) {
                    let carried = |m: &MsgSpec| preloaded.iter().any(|c| c.get(m.src, m.dst));
                    if let Some(m) = core.msgs.iter().map(|m| m.spec).find(|m| !carried(m)) {
                        return Err(RunError::Stranded(m.id, m.src, m.dst));
                    }
                }
                (
                    scheduled(predictor, preloaded),
                    format!("hybrid-{preload_slots}p"),
                    preload_slots < k,
                    preload_slots as u64,
                )
            }
        };
        let sim = Self::assemble(workload, core, backend, mode_label, has_dynamic, loads);
        Ok(sim)
    }

    /// Builds the simulator in preloaded-stream mode over an *explicit*
    /// configuration sequence — the entry point for cost-aware schedules
    /// (`pms-schedopt`'s `CostedSchedule`) instead of the
    /// `partition_phases` stream [`TdmMode::Preload`] compiles internally.
    ///
    /// `msg_config[i]` names the configuration in `configs` carrying
    /// message `i` of [`Workload::message_table`]; within each `(src,
    /// dst)` pair the assignment must be non-decreasing in message order
    /// (the VOQ drains head-first, so an out-of-order assignment would
    /// deadlock the stream).
    ///
    /// # Panics
    /// Panics on port mismatches, a `msg_config` length differing from
    /// the message count, an out-of-range configuration index, a message
    /// whose pair is absent from its configuration, or a configuration
    /// carrying no messages (it would never retire and stall the stream).
    pub fn with_config_stream(
        workload: &Workload,
        params: &SimParams,
        configs: Vec<BitMatrix>,
        msg_config: Vec<usize>,
    ) -> Self {
        let core = SimCore::new(workload, params);
        assert_eq!(
            msg_config.len(),
            core.msgs.len(),
            "one configuration index per message"
        );
        for (m, &c) in core.msgs.iter().map(|m| m.spec).zip(&msg_config) {
            assert!(
                c < configs.len(),
                "message {} assigned to configuration {c} of {}",
                m.id,
                configs.len()
            );
            assert!(
                configs[c].get(m.src, m.dst),
                "message {} pair ({},{}) absent from configuration {c}",
                m.id,
                m.src,
                m.dst
            );
        }
        // Initial window: the first K configs, loaded sequentially (same
        // as the compiled stream).
        let (stream, loads) =
            Stream::new(configs, msg_config, params.tdm_slots, params.preload_cfg_ns);
        if let Some(c) = stream.idle_config() {
            panic!("configuration {c} carries no messages");
        }
        let label = "schedule-stream".to_string();
        Self::assemble(workload, core, Backend::Stream(stream), label, false, loads)
    }

    /// Common constructor tail shared by every entry point.
    fn assemble(
        workload: &Workload,
        core: SimCore,
        backend: Backend,
        mode_label: String,
        has_dynamic: bool,
        initial_loads: u64,
    ) -> Self {
        // Only dynamic scheduling reads request lines; a preloaded stream
        // moves whatever its configurations carry.
        let voqs = Voqs::new(core.params.ports, core.msgs.len());
        let switch = Tdm {
            mode_label,
            voqs: if has_dynamic {
                voqs.with_request_lines(core.params.request_wire_ns)
            } else {
                voqs
            },
            backend,
            patterns: workload.patterns.clone(),
            preload_loads: initial_loads,
            evictions: 0,
            has_dynamic,
            phase_detector: None,
            hidden_heads: Vec::new(),
            lookups: Vec::new(),
            phase_flushes: 0,
            ws_lookups: 0,
            ws_hits: 0,
            router: None,
            fault_restores: Vec::new(),
            cur_slot: 0,
            scratch: SlotScratch::default(),
        };
        Sim { core, switch }
    }

    /// Attaches a slot router: the scheduler admits a connection only
    /// when the router can claim its fabric resources in the slot (a
    /// path through every stage of a stage graph, the links of a torus
    /// route), and returns them on teardown. On the one-stage crossbar
    /// graph this is byte-identical (statistics and trace) to plain
    /// dynamic scheduling.
    ///
    /// # Panics
    /// Panics unless the mode is pure [`TdmMode::Dynamic`] (preloaded
    /// registers bypass the router).
    pub fn with_router(mut self, router: Box<dyn SlotRouter>) -> Self {
        let tdm = &mut self.switch;
        assert!(
            tdm.has_dynamic,
            "the stage router applies to dynamic scheduling only"
        );
        if let Backend::Scheduled { scheduler, .. } = &tdm.backend {
            assert!(
                (0..scheduler.slots()).all(|s| !scheduler.is_preloaded(s)),
                "preloaded registers bypass the stage router"
            );
        }
        tdm.router = Some(router);
        self
    }

    /// Attaches a §3.3 phase detector: every first lookup of a message's
    /// connection counts as a working-set hit or miss, and a detected
    /// phase change flushes all dynamically scheduled connections.
    pub fn with_phase_detector(mut self, cfg: PhaseDetectorConfig) -> Self {
        assert!(
            self.switch.has_dynamic,
            "the phase detector drives dynamic scheduling; preload mode has none"
        );
        self.switch.phase_detector = Some(PhaseDetector::new(cfg));
        self
    }
}

impl Switch for Tdm {
    fn run(&mut self, core: &mut SimCore) -> (u64, u32) {
        self.trace_initial_preloads(core);
        let slot_ns = core.params.slot_ns;
        let sched_ns = core.params.sched_ns;
        let mut t = 0u64;
        let mut next_slot = 0u64;
        let mut next_pass = sched_ns;
        loop {
            core.check_horizon(t, "TDM");
            self.poll_engine(core, t);
            self.poll_faults(core, t);
            if core.done() {
                break;
            }
            if t >= next_slot {
                self.do_slot(core, t);
                next_slot = t + slot_ns;
            }
            if self.has_dynamic && t >= next_pass {
                // Extension 1: several SL units schedule consecutive
                // dynamic registers within the same SL clock.
                for _ in 0..core.params.sl_units {
                    self.do_pass(core, t);
                }
                next_pass = t + sched_ns;
            }
            // Advance to the next clock edge, engine wake-up, or fault
            // boundary.
            let mut tn = next_slot;
            if self.has_dynamic {
                tn = tn.min(next_pass);
            }
            for wake in [core.engine.next_wake(), core.next_fault()]
                .into_iter()
                .flatten()
            {
                tn = tn.min(wake);
            }
            if core.params.idle_skip && core.undelivered == 0 {
                if let Some(stop) = self.idle_stop(core, t).filter(|&stop| stop > tn) {
                    self.fast_forward(core, stop, &mut next_slot, &mut next_pass);
                    t = stop;
                    continue;
                }
            }
            t = tn.max(t + 1);
        }
        (t, self.cur_slot)
    }

    fn label(&self) -> String {
        self.mode_label.clone()
    }

    fn fill_stats(&self, stats: &mut SimStats) {
        if let Backend::Scheduled { scheduler, .. } = &self.backend {
            stats.sched_passes = scheduler.stats().passes;
            stats.connections_established = scheduler.stats().establishes;
        }
        stats.predictor_evictions = self.evictions;
        stats.preload_loads = self.preload_loads;
        stats.phase_flushes = self.phase_flushes;
        stats.ws_lookups = self.ws_lookups;
        stats.ws_hits = self.ws_hits;
    }
}

impl Tdm {
    /// Emits `PreloadApplied`/`ConnEstablished` for the configurations
    /// already resident when the simulation starts (hybrid preloads, the
    /// initial preload-stream window).
    fn trace_initial_preloads(&self, core: &mut SimCore) {
        if !core.tracer.enabled() {
            return;
        }
        match &self.backend {
            Backend::Scheduled { scheduler, .. } => {
                for s in 0..scheduler.slots() {
                    if scheduler.is_preloaded(s) {
                        trace_preload(core, 0, s as u32, scheduler.config(s));
                    }
                }
            }
            Backend::Stream(stream) => {
                for (reg, ready_at, cfg) in stream.resident() {
                    trace_preload(core, ready_at, reg as u32, cfg);
                }
            }
        }
    }
    fn poll_engine(&mut self, core: &mut SimCore, now: u64) {
        core.poll_engine(now, |core, te, fx| match fx {
            Effect::Inject(id) => {
                let spec = core.msgs[id].spec;
                let new_request = self.voqs.push(spec.src, spec.dst, id);
                core.inject(id, te, self.cur_slot, new_request);
            }
            Effect::Flush => {
                if let Backend::Scheduled { scheduler, .. } = &mut self.backend {
                    let router = self.router.as_deref_mut();
                    flush_dynamic(core, scheduler, router, te, self.cur_slot);
                }
            }
            Effect::Preload(pat) => self.load_pattern(core, pat, te),
        });
    }

    /// A compiler preload command. Loading a pattern replaces whatever
    /// pattern was loaded before: stale preloaded registers are evicted
    /// first, so the new working set gets the registers and dynamic
    /// scheduling gets the rest.
    fn load_pattern(&mut self, core: &mut SimCore, pat: usize, t: u64) {
        assert!(
            self.router.is_none(),
            "preloaded patterns bypass the stage router"
        );
        let configs = self.patterns.get(pat).cloned().unwrap_or_default();
        let Backend::Scheduled { scheduler, .. } = &mut self.backend else {
            return;
        };
        for s in 0..scheduler.slots() {
            if scheduler.is_preloaded(s) {
                if core.tracer.enabled() {
                    for (u, v) in scheduler.config(s).iter_ones().collect::<Vec<_>>() {
                        core.evicted(t, s as u32, u, v, EvictCause::PhaseFlush);
                    }
                }
                scheduler.unload(s);
            }
        }
        for (s, cfg) in configs.into_iter().enumerate().take(scheduler.slots()) {
            trace_preload(core, t, s as u32, &cfg);
            scheduler.preload(s, cfg);
            self.preload_loads += 1;
        }
    }

    /// Replays fault boundaries up to `t`: teardown of broken
    /// connections, restoration of healed preloaded pairs.
    ///
    /// Stuck-release injection acts in the pass path (releases are
    /// suppressed while active; the first pass after the clear releases
    /// naturally). Transient NIC faults act at message completion.
    /// Grant-drop injection acts on the next grant.
    fn poll_faults(&mut self, core: &mut SimCore, t: u64) {
        for tr in core.fault_transitions(t) {
            let (u, v) = core.fault_boundary(&tr, self.cur_slot);
            if let FaultKind::LinkDown { .. } | FaultKind::StuckGrant { .. } = tr.kind {
                if tr.injected {
                    self.break_pair(core, tr.t_ns, u, v);
                } else {
                    self.heal_pair(core, tr.t_ns, u, v);
                }
            }
        }
    }

    /// A grant-blocking fault opened on `(u, v)`: tear down whatever the
    /// switch currently carries for the pair. Request latches stay set so
    /// pending traffic re-establishes naturally once the link heals.
    fn break_pair(&mut self, core: &mut SimCore, t: u64, u: usize, v: usize) {
        match &mut self.backend {
            Backend::Scheduled {
                scheduler,
                predictor,
                ..
            } => {
                let slots = core.break_pair(scheduler, self.router.as_deref_mut(), t, u, v);
                let preloaded = slots.iter().filter(|&&s| scheduler.is_preloaded(s));
                self.fault_restores.extend(preloaded.map(|&s| (s, u, v)));
                if let (false, Some(pred)) = (slots.is_empty(), predictor) {
                    pred.on_fault(u, v);
                }
            }
            Backend::Stream(stream) => {
                if let Some(reg) = stream.break_pair(u, v) {
                    core.evicted(t, reg as u32, u, v, EvictCause::Fault);
                }
            }
        }
    }

    /// A grant-blocking fault on `(u, v)` cleared. If no overlapping
    /// fault still covers the pair, restore healed preloaded connections
    /// (when the register still has row/column room — a fault that handed
    /// the ports to other traffic drops the restoration silently) and
    /// queue the stream-mode re-establish event.
    fn heal_pair(&mut self, core: &mut SimCore, t: u64, u: usize, v: usize) {
        if !core.link_ok(u, v) {
            return;
        }
        match &mut self.backend {
            Backend::Scheduled { scheduler, .. } => {
                let ports = core.params.ports;
                self.fault_restores.retain(|&(s, ru, rv)| {
                    if (ru, rv) != (u, v) {
                        return true;
                    }
                    let cfg = scheduler.config(s);
                    let free = scheduler.is_preloaded(s)
                        && cfg.iter_row_ones(u).next().is_none()
                        && (0..ports).all(|r| !cfg.get(r, v));
                    if free {
                        scheduler.restore(s, u, v);
                        core.established(t, s as u32, u, v);
                    }
                    false
                });
            }
            Backend::Stream(stream) => stream.heal_pair(u, v),
        }
    }

    /// How far the simulation may fast-forward from `t` while remaining
    /// provably idle, or `None` if the current state is not skippable.
    ///
    /// Precondition: `undelivered == 0` (every VOQ is empty, so slots move
    /// no data and the request matrix is all-zero). The bound is the
    /// earliest instant at which a boundary could act differently from a
    /// pure clock tick:
    ///
    /// * the next engine wake-up (injections, flushes, preloads, barrier
    ///   departures) — required, since a wake restarts real work;
    /// * the next fault-plan transition (teardown/heal side effects);
    /// * for dynamic scheduling, the predictor's eviction deadline: a pass
    ///   at or past it may evict, so the skip stops short and the real
    ///   pass path runs there. A non-quiescent scheduler (any pass would
    ///   establish or release something) is not skippable at all;
    /// * for preload streaming, the earliest `ready_at` still in the
    ///   future: a register becoming ready changes which configuration
    ///   the TDM counter selects at later slot boundaries.
    fn idle_stop(&self, core: &SimCore, t: u64) -> Option<u64> {
        let stop = core.idle_horizon()?;
        match &self.backend {
            Backend::Scheduled {
                scheduler,
                predictor,
                ..
            } => {
                if !self.has_dynamic {
                    return Some(stop);
                }
                if !scheduler.is_idle_quiescent() {
                    return None;
                }
                let deadline = predictor.as_ref().and_then(|p| p.idle_eviction_deadline());
                Some(deadline.map_or(stop, |d| stop.min(d)))
            }
            Backend::Stream(stream) => stream.idle_stop(t, stop),
        }
    }

    /// Replays every slot/pass boundary in `[t, stop)` as a pure clock
    /// tick: the TDM counter and SL pass counter advance (with priority
    /// rotation) exactly as on the step-by-step path, but no requests are
    /// evaluated and no data moves. Traced runs tick each boundary
    /// individually so `SlotAdvanced`/`SchedPass` records stay
    /// byte-identical; untraced runs use the closed form.
    fn fast_forward(
        &mut self,
        core: &mut SimCore,
        stop: u64,
        next_slot: &mut u64,
        next_pass: &mut u64,
    ) {
        let slot_ns = core.params.slot_ns;
        let sched_ns = core.params.sched_ns;
        if core.tracer.enabled() {
            loop {
                let slot_due = *next_slot < stop;
                let pass_due = self.has_dynamic && *next_pass < stop;
                if slot_due && (!pass_due || *next_slot <= *next_pass) {
                    // Slot before pass at equal timestamps, like the main
                    // loop's statement order.
                    self.tick_slot(core, *next_slot);
                    *next_slot += slot_ns;
                } else if pass_due {
                    for _ in 0..core.params.sl_units {
                        self.tick_pass(core, *next_pass);
                    }
                    *next_pass += sched_ns;
                } else {
                    break;
                }
            }
            return;
        }
        let n_slots = if *next_slot >= stop {
            0
        } else {
            1 + (stop - 1 - *next_slot) / slot_ns
        };
        let n_passes = if !self.has_dynamic || *next_pass >= stop {
            0
        } else {
            1 + (stop - 1 - *next_pass) / sched_ns
        };
        if n_slots > 0 {
            let landed = match &mut self.backend {
                Backend::Scheduled { scheduler, tdm, .. } => tdm.skip(n_slots, scheduler.configs()),
                Backend::Stream(stream) => stream.skip(n_slots, stop),
            };
            if let Some(s) = landed {
                self.cur_slot = s as u32;
            }
            *next_slot += n_slots * slot_ns;
        }
        if n_passes > 0 {
            if let Backend::Scheduled { scheduler, .. } = &mut self.backend {
                scheduler.skip_quiescent_passes(n_passes * core.params.sl_units as u64);
            }
            *next_pass += n_passes * sched_ns;
        }
    }

    /// One idle slot boundary on the traced fast-forward path: advance the
    /// TDM counter / stream cursor and emit `SlotAdvanced`, exactly as
    /// [`do_slot`](Self::do_slot) would with every VOQ empty.
    fn tick_slot(&mut self, core: &mut SimCore, t: u64) {
        let active = match &mut self.backend {
            Backend::Scheduled { scheduler, tdm, .. } => tdm.advance(scheduler.configs()),
            Backend::Stream(stream) => stream.advance(t).map(|(reg, _)| reg),
        };
        if let Some(s) = active {
            let s = s as u32;
            self.cur_slot = s;
            core.tracer
                .emit(t, s, TraceEvent::SlotAdvanced { slot_idx: s });
        }
    }

    /// One idle SL pass on the traced fast-forward path: bump the pass
    /// counter, rotate the priority, and emit the all-zero `SchedPass`
    /// record [`do_pass`](Self::do_pass) would produce for an empty
    /// request matrix. When every register is preloaded the counter does
    /// not move (matching `Scheduler::pass`) but the record is still
    /// emitted, stamped with the current slot.
    fn tick_pass(&mut self, core: &mut SimCore, t: u64) {
        let Backend::Scheduled { scheduler, .. } = &mut self.backend else {
            return;
        };
        let pass_slot = scheduler
            .advance_quiescent_pass()
            .map_or(self.cur_slot, |s| s as u32);
        core.tracer.emit(
            t,
            pass_slot,
            TraceEvent::SchedPass {
                passes: scheduler.stats().passes,
                ripple_depth: 0,
                established: 0,
                released: 0,
                denied: 0,
            },
        );
    }

    /// One 100 ns time slot: the TDM counter picks the next non-empty
    /// configuration and every connection in it moves one message fragment.
    fn do_slot(&mut self, core: &mut SimCore, t: u64) {
        let payload = core.params.slot_payload_bytes;
        let rate = core.params.link.bytes_per_ns();
        let path = core.params.link.path_latency_lvds_ns();
        let SlotScratch {
            pairs,
            used_pairs,
            delivered,
            abandoned,
        } = &mut self.scratch;
        pairs.clear();
        used_pairs.clear();
        delivered.clear();
        abandoned.clear();

        // The active register's pairs, plus (stream mode) the
        // configuration whose messages alone may move in this visit.
        let (gate, active_slot): (Option<usize>, u32) = match &mut self.backend {
            Backend::Scheduled { scheduler, tdm, .. } => match tdm.advance(scheduler.configs()) {
                Some(s) => {
                    pairs.extend(scheduler.config(s).iter_ones());
                    (None, s as u32)
                }
                None => return,
            },
            Backend::Stream(stream) => match stream.advance(t) {
                Some((reg, c)) => {
                    pairs.extend(stream.config(c).iter_ones());
                    (Some(c), reg as u32)
                }
                None => return,
            },
        };
        self.cur_slot = active_slot;
        if core.tracer.enabled() {
            core.tracer.emit(
                t,
                active_slot,
                TraceEvent::SlotAdvanced {
                    slot_idx: active_slot,
                },
            );
        }
        if let Backend::Stream(stream) = &mut self.backend {
            // A healed preloaded pair re-joins the fabric the first time a
            // resident configuration containing it drives the crossbar —
            // within one TDM period of the clear, traffic or not.
            for (u, v) in stream.rejoined(pairs) {
                core.established(t, active_slot, u, v);
            }
        }

        for &(u, v) in pairs.iter() {
            // A dead link carries no data even if a (stream-mode)
            // configuration still names the pair.
            if !core.link_ok(u, v) {
                continue;
            }
            let Some(head) = self.voqs.front(u, v) else {
                continue;
            };
            // Not yet in the NIC, or a retransmission still backing off.
            if core.ready_at(head) > t {
                continue;
            }
            if let (Some(c), Backend::Stream(stream)) = (gate, &self.backend) {
                // Preload mode: the head must belong to this configuration
                // (earlier-phase traffic on the same pair has drained, by
                // stream order).
                if !stream.carries(head, c) {
                    continue;
                }
            }
            let take = core.msgs[head].remaining.min(payload);
            core.msgs[head].remaining -= take;
            used_pairs.push((u, v));
            // First fragment moved: the message is in its transfer phase
            // (any skipped admit/align phases close zero-length here).
            core.spans.msg_advance(
                &mut core.tracer,
                t,
                active_slot,
                head as u32,
                SpanPhase::Transfer,
            );
            if core.msgs[head].remaining > 0 {
                continue;
            }
            let done = t + (take as f64 / rate).ceil() as u64 + path;
            match core.complete(head, u, done, active_slot) {
                NicOutcome::Deliver => {
                    self.voqs.pop(u, v);
                    delivered.push((head, done));
                }
                // Corrupted frame: retransmit the whole message after
                // backoff; it stays at its queue head.
                NicOutcome::Retry { .. } => {}
                NicOutcome::Abandon { .. } => {
                    self.voqs.pop(u, v);
                    abandoned.push((head, done));
                }
            }
        }
        for &(msg, _) in delivered.iter() {
            core.trace_delivery(msg, active_slot);
        }

        // Post-transfer bookkeeping.
        match &mut self.backend {
            Backend::Scheduled { predictor, .. } => {
                if let Some(pred) = predictor {
                    for &(u, v) in used_pairs.iter() {
                        pred.on_use(u, v, t);
                    }
                }
            }
            Backend::Stream(stream) => {
                // Abandoned messages leave the stream the same way
                // delivered ones do: their configuration's outstanding
                // count must reach zero or the register never frees.
                for &(msg, done_at) in delivered.iter().chain(abandoned.iter()) {
                    let load_ns = core.params.preload_cfg_ns;
                    let Some((reg, c)) = stream.retire(msg, done_at, load_ns) else {
                        continue;
                    };
                    self.preload_loads += 1;
                    if core.tracer.enabled() {
                        let cfg = stream.config(c);
                        let slot_idx = reg as u32;
                        core.tracer.emit(
                            done_at,
                            slot_idx,
                            TraceEvent::PreloadApplied {
                                slot_idx,
                                connections: cfg.count_ones() as u32,
                            },
                        );
                        for (u, v) in cfg.iter_ones() {
                            core.tracer.emit(
                                done_at,
                                slot_idx,
                                TraceEvent::ConnEstablished {
                                    src: u as u32,
                                    dst: v as u32,
                                    slot_idx,
                                },
                            );
                        }
                    }
                }
            }
        }
    }

    /// One 80 ns SL pass on the next dynamic register.
    fn do_pass(&mut self, core: &mut SimCore, t: u64) {
        self.voqs.raise_due(&core.msgs, t);
        let r = core.visible_requests(&self.voqs, t);
        // Classify each newly visible head message as a working-set hit or
        // miss: the hit rate is the §5 metric, and misses feed the §3.3
        // phase detector when one is attached.
        take_lookups(&self.voqs, &mut self.hidden_heads, &r, &mut self.lookups);
        let Backend::Scheduled {
            scheduler,
            predictor,
            ..
        } = &mut self.backend
        else {
            return;
        };
        let mut flush = false;
        for &(u, v, head) in &self.lookups {
            let hit = scheduler.established(u, v);
            self.ws_lookups += 1;
            if hit {
                self.ws_hits += 1;
            }
            if let Some(detector) = &mut self.phase_detector {
                if detector.record(hit) {
                    flush = true;
                }
            }
            // The predictor/working-set decision point ends `arrival`; a
            // working-set hit needs no admission, so `admit` is
            // zero-length and the message goes straight to `align`.
            let (spans, tracer) = (&mut core.spans, &mut core.tracer);
            spans.msg_advance(tracer, t, self.cur_slot, head as u32, SpanPhase::Admit);
            if hit {
                spans.msg_advance(tracer, t, self.cur_slot, head as u32, SpanPhase::Align);
            }
        }
        if flush {
            self.phase_flushes += 1;
            let router = self.router.as_deref_mut();
            flush_dynamic(core, scheduler, router, t, self.cur_slot);
        }
        // Route markers only for genuinely multi-stage fabrics: the
        // one-stage crossbar graph must stay byte-identical to plain
        // dynamic scheduling, trace included.
        let routed = self.router.as_deref().is_some_and(|r| r.stages() > 1);
        let router = self.router.as_deref_mut();
        let pass = core.sl_pass(scheduler, &r, router, &self.voqs, t, self.cur_slot);
        let slot = pass.slot;
        if core.tracer.enabled() {
            let record = pass.event(scheduler.stats().passes);
            core.tracer.emit(t, slot, record);
        }
        for &(u, v) in &pass.established {
            core.established(t, slot, u, v);
            // The SL admission ends the head message's `admit` phase; on
            // a multistage fabric the establishment carries the
            // route-admit marker as a child of that phase.
            if let Some(m) = self.voqs.front(u, v) {
                let (spans, tracer) = (&mut core.spans, &mut core.tracer);
                spans.msg_advance(tracer, t, slot, m as u32, SpanPhase::Admit);
                if routed {
                    spans.route_admitted(tracer, t, slot, m as u32);
                }
                spans.msg_advance(tracer, t, slot, m as u32, SpanPhase::Align);
            }
        }
        let Some(pred) = predictor else {
            // Drop policy: a release *is* the eviction.
            for &(u, v) in &pass.released {
                core.evicted(t, slot, u, v, EvictCause::Drop);
            }
            return;
        };
        for &(u, v) in &pass.established {
            pred.on_establish(u, v, t);
        }
        for &(u, v) in &pass.released {
            pred.on_release(u, v);
        }
        let cause = pred.eviction_cause();
        for (u, v) in pred.take_evictions(t) {
            scheduler.clear_latch(u, v);
            self.evictions += 1;
            core.evicted(t, self.cur_slot, u, v, cause);
        }
    }
}

/// Fills `lookups` with the heads whose request line is visible in `r`
/// for the first time, in `(u, v, head)` order: the heads the last
/// [`Voqs::raise_due`] raised, plus earlier ones a grant-drop backoff hid
/// until now. Heads still hidden stay in `hidden` for a later pass;
/// heads that left their queue meanwhile are never classified.
fn take_lookups(
    voqs: &Voqs,
    hidden: &mut Vec<(usize, usize, usize)>,
    r: &BitMatrix,
    lookups: &mut Vec<(usize, usize, usize)>,
) {
    lookups.clear();
    hidden.retain(|&(u, v, head)| {
        if voqs.front(u, v) != Some(head) {
            return false;
        }
        let still_hidden = !r.get(u, v);
        if !still_hidden {
            lookups.push((u, v, head));
        }
        still_hidden
    });
    for &(u, v, head) in voqs.raised() {
        if r.get(u, v) {
            lookups.push((u, v, head));
        } else {
            hidden.push((u, v, head));
        }
    }
    lookups.sort_unstable();
}

/// Traces a configuration landing in register `slot`: `PreloadApplied`,
/// then an establishment (with its connection span) per pair.
fn trace_preload(core: &mut SimCore, t: u64, slot: u32, cfg: &BitMatrix) {
    if !core.tracer.enabled() {
        return;
    }
    let pairs: Vec<(usize, usize)> = cfg.iter_ones().collect();
    core.tracer.emit(
        t,
        slot,
        TraceEvent::PreloadApplied {
            slot_idx: slot,
            connections: pairs.len() as u32,
        },
    );
    for (u, v) in pairs {
        core.established(t, slot, u, v);
    }
}

/// Clears every dynamically scheduled register — a compiler flush or a
/// detected phase change: returns the router's fabric resources, then
/// traces the flush and each eviction.
fn flush_dynamic(
    core: &mut SimCore,
    scheduler: &mut Scheduler,
    router: Option<&mut (dyn SlotRouter + '_)>,
    t: u64,
    slot: u32,
) {
    if let Some(rt) = router {
        // No register is preloaded in router mode, so every slot is
        // dynamic.
        for s in 0..scheduler.slots() {
            for (u, v) in scheduler.config(s).iter_ones().collect::<Vec<_>>() {
                rt.release(s, u, v);
            }
        }
    }
    let cleared = scheduler.flush_dynamic();
    if core.tracer.enabled() {
        core.tracer.emit(
            t,
            slot,
            TraceEvent::PhaseFlush {
                cleared: cleared.len() as u32,
            },
        );
        for (u, v) in cleared {
            core.evicted(t, slot, u, v, EvictCause::PhaseFlush);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pms_workloads::{hybrid, ordered_mesh, scatter, HybridSpec, MeshSpec, Program, Workload};

    fn params(ports: usize) -> SimParams {
        SimParams::default().with_ports(ports)
    }

    fn run(w: &Workload, mode: TdmMode) -> SimStats {
        TdmSim::new(w, &params(w.ports), mode).run()
    }

    const DYN: TdmMode = TdmMode::Dynamic {
        predictor: PredictorKind::Timeout(400),
    };

    /// A head raised while a grant-drop backoff holds its request line
    /// down is classified by the first pass that sees the line; a head
    /// that leaves its queue before that is never classified.
    #[test]
    fn hidden_heads_wait_for_their_request_line() {
        use crate::message::MsgState;
        use pms_workloads::MsgSpec;
        let msgs: Vec<MsgState> = [(0, 3), (0, 3), (1, 2)]
            .into_iter()
            .enumerate()
            .map(|(id, (src, dst))| {
                let mut m = MsgState::new(MsgSpec {
                    id,
                    src,
                    dst,
                    bytes: 8,
                });
                m.enqueued_at = Some(0);
                m
            })
            .collect();
        let mut voqs = Voqs::new(4, 3).with_request_lines(80);
        for (id, m) in msgs.iter().enumerate() {
            voqs.push(m.spec.src, m.spec.dst, id);
        }
        let (mut hidden, mut lookups) = (Vec::new(), Vec::new());
        voqs.raise_due(&msgs, 80);
        let mut held = voqs.requests().clone();
        held.set(0, 3, false);
        held.set(1, 2, false);
        take_lookups(&voqs, &mut hidden, &held, &mut lookups);
        assert!(lookups.is_empty());
        assert_eq!(hidden, vec![(0, 3, 0), (1, 2, 2)]);

        voqs.raise_due(&msgs, 160);
        held.set(1, 2, true);
        take_lookups(&voqs, &mut hidden, &held, &mut lookups);
        assert_eq!(lookups, vec![(1, 2, 2)]);
        assert_eq!(hidden, vec![(0, 3, 0)]);

        voqs.pop(0, 3);
        voqs.raise_due(&msgs, 240);
        take_lookups(&voqs, &mut hidden, voqs.requests(), &mut lookups);
        assert_eq!(
            lookups,
            vec![(0, 3, 1)],
            "the exposed head, not the popped one"
        );
        assert!(hidden.is_empty());
    }

    #[test]
    fn dynamic_single_message_delivers() {
        let mut programs = vec![Program::new(); 4];
        programs[0].send(1, 64);
        let w = Workload::new("single", 4, programs);
        let stats = run(&w, DYN);
        assert_eq!(stats.delivered_messages, 1);
        assert_eq!(stats.delivered_bytes, 64);
        // Request visible at 80, pass at 80, slot boundary >= 100.
        assert!(stats.makespan_ns >= 100 + 80 + 100);
        assert!(stats.connections_established >= 1);
    }

    #[test]
    fn dynamic_conserves_bytes_on_mesh() {
        let w = ordered_mesh(MeshSpec { rows: 4, cols: 4 }, 64, 3, 0, 0);
        let stats = run(&w, DYN);
        assert_eq!(stats.delivered_bytes, w.total_bytes());
        assert_eq!(stats.delivered_messages as usize, w.message_count());
    }

    #[test]
    fn dynamic_mesh_beats_small_multiplexing_of_circuit() {
        // With K=4 the whole 4-neighbor working set is cached; efficiency
        // should be well above circuit switching's serialized circuits.
        // Back-to-back small messages: circuit switching pays a full
        // handshake per 64-byte message while TDM caches the 4-neighbor
        // working set across the whole burst.
        let w = ordered_mesh(MeshSpec { rows: 4, cols: 4 }, 64, 8, 0, 0);
        let tdm = run(&w, DYN);
        let circuit = crate::CircuitSim::new(&w, &params(16)).run();
        assert!(
            tdm.efficiency(0.8) > circuit.efficiency(0.8),
            "tdm {} <= circuit {}",
            tdm.efficiency(0.8),
            circuit.efficiency(0.8)
        );
    }

    #[test]
    fn preload_scatter_delivers_all() {
        let w = scatter(16, 64);
        let stats = run(&w, TdmMode::Preload);
        assert_eq!(stats.delivered_messages, 15);
        assert_eq!(stats.delivered_bytes, 15 * 64);
        assert!(stats.preload_loads >= 4, "config stream must reload");
        assert_eq!(stats.sched_passes, 0, "no dynamic scheduling in preload");
    }

    #[test]
    fn preload_ordered_mesh_uses_exactly_four_configs() {
        let w = ordered_mesh(MeshSpec { rows: 4, cols: 4 }, 64, 4, 0, 0);
        let stats = run(&w, TdmMode::Preload);
        assert_eq!(stats.delivered_messages as usize, w.message_count());
        // Working set = 4 permutations; one phase, so only the initial
        // 4 loads are ever needed.
        assert_eq!(stats.preload_loads, 4);
    }

    #[test]
    fn preload_respects_fifo_across_phases() {
        // One sender: 5 distinct destinations (fan-out 5 > K=4) forces two
        // phases; everything still delivers in order.
        let mut programs = vec![Program::new(); 8];
        for d in 1..=5 {
            programs[0].send(d, 64);
        }
        let w = Workload::new("two-phase-scatter", 8, programs);
        let stats = run(&w, TdmMode::Preload);
        assert_eq!(stats.delivered_messages, 5);
    }

    #[test]
    fn hybrid_preloaded_pattern_carries_static_traffic() {
        let w = hybrid(HybridSpec {
            ports: 16,
            determinism: 1.0,
            messages_per_proc: 8,
            bytes: 64,
            seed: 3,
        });
        let stats = run(
            &w,
            TdmMode::Hybrid {
                preload_slots: 2,
                predictor: PredictorKind::Timeout(400),
            },
        );
        assert_eq!(stats.delivered_messages as usize, w.message_count());
        // Fully deterministic traffic rides the two preloaded permutations:
        // almost no dynamic establishment needed.
        assert!(
            stats.connections_established <= 4,
            "static traffic should not thrash the dynamic slots: {}",
            stats.connections_established
        );
    }

    #[test]
    fn hybrid_random_traffic_uses_dynamic_slots() {
        let w = hybrid(HybridSpec {
            ports: 16,
            determinism: 0.0,
            messages_per_proc: 6,
            bytes: 64,
            seed: 4,
        });
        let stats = run(
            &w,
            TdmMode::Hybrid {
                preload_slots: 1,
                predictor: PredictorKind::Timeout(400),
            },
        );
        assert_eq!(stats.delivered_messages as usize, w.message_count());
        assert!(stats.connections_established > 0);
    }

    #[test]
    fn timeout_predictor_evicts_idle_connections() {
        // Two widely separated messages on the same pair: the connection is
        // evicted in between.
        let mut programs = vec![Program::new(); 4];
        programs[0].send(1, 64).delay(10_000).send(1, 64);
        let w = Workload::new("idle-evict", 4, programs);
        let stats = run(
            &w,
            TdmMode::Dynamic {
                predictor: PredictorKind::Timeout(500),
            },
        );
        assert_eq!(stats.delivered_messages, 2);
        assert!(
            stats.predictor_evictions >= 1,
            "idle connection must be evicted"
        );
    }

    #[test]
    fn never_predictor_keeps_connections() {
        let mut programs = vec![Program::new(); 4];
        programs[0].send(1, 64).delay(5_000).send(1, 64);
        let w = Workload::new("keep", 4, programs);
        let stats = run(
            &w,
            TdmMode::Dynamic {
                predictor: PredictorKind::Never,
            },
        );
        assert_eq!(stats.predictor_evictions, 0);
        assert_eq!(stats.connections_established, 1, "connection stays cached");
    }

    #[test]
    fn drop_policy_reestablishes_each_burst() {
        let mut programs = vec![Program::new(); 4];
        programs[0].send(1, 64).delay(5_000).send(1, 64);
        let w = Workload::new("drop", 4, programs);
        let stats = run(
            &w,
            TdmMode::Dynamic {
                predictor: PredictorKind::Drop,
            },
        );
        assert_eq!(stats.delivered_messages, 2);
        assert!(
            stats.connections_established >= 2,
            "drop policy releases after each queue drain"
        );
    }

    #[test]
    fn fragmentation_matches_slot_payload() {
        // A 2048-byte message needs ceil(2048/64) = 32 slot visits.
        let mut programs = vec![Program::new(); 4];
        programs[0].send(1, 2048);
        let w = Workload::new("big", 4, programs);
        let stats = run(&w, DYN);
        assert_eq!(stats.delivered_messages, 1);
        // 32 slot visits at >= 100 ns apart (sole connection: counter skips
        // empty slots, so consecutive slots serve it).
        assert!(stats.makespan_ns >= 32 * 100);
    }

    #[test]
    fn barrier_two_phase_completes() {
        let mesh = MeshSpec { rows: 2, cols: 4 };
        let w = pms_workloads::two_phase(mesh, 64, 2, 0, 0, 9);
        let stats = run(&w, DYN);
        assert_eq!(stats.delivered_messages as usize, w.message_count());
        let preload = run(&w, TdmMode::Preload);
        assert_eq!(preload.delivered_messages as usize, w.message_count());
    }

    #[test]
    fn phase_detector_flushes_on_working_set_change() {
        use pms_predict::PhaseDetectorConfig;
        // Phase A: ring(+1) traffic trains the detector with hits; phase B
        // switches every processor to +3 neighbors: a miss burst that the
        // detector turns into a dynamic flush (no compiler hint needed).
        let n = 8;
        let mut programs = vec![Program::new(); n];
        for _ in 0..6 {
            for (p, prog) in programs.iter_mut().enumerate() {
                prog.send((p + 1) % n, 64);
                prog.delay(400);
            }
        }
        for _ in 0..6 {
            for (p, prog) in programs.iter_mut().enumerate() {
                prog.send((p + 3) % n, 64);
                prog.delay(400);
            }
        }
        let w = Workload::new("phase-shift", n, programs);
        let sim = TdmSim::new(
            &w,
            &params(n),
            TdmMode::Dynamic {
                predictor: PredictorKind::Timeout(10_000),
            },
        )
        .with_phase_detector(PhaseDetectorConfig {
            window: 8,
            miss_threshold: 0.75,
            cooldown: 16,
        });
        let stats = sim.run();
        assert_eq!(stats.delivered_messages as usize, w.message_count());
        assert!(
            stats.phase_flushes >= 1,
            "the +1 -> +3 shift must trigger a flush (got {})",
            stats.phase_flushes
        );
    }

    #[test]
    fn phase_flush_closes_the_evicted_connection_spans() {
        let mesh = MeshSpec { rows: 4, cols: 4 };
        let w = pms_workloads::two_phase(mesh, 64, 16, 500, 100, 17);
        let (stats, tracer) = TdmSim::new(
            &w,
            &params(16),
            TdmMode::Dynamic {
                predictor: PredictorKind::Timeout(2_000),
            },
        )
        .with_phase_detector(pms_predict::PhaseDetectorConfig {
            window: 8,
            miss_threshold: 0.75,
            cooldown: 16,
        })
        .with_tracer(pms_trace::Tracer::vec())
        .run_traced();
        assert!(stats.phase_flushes >= 1);
        // A detected phase change closes each flushed connection's span
        // right behind its eviction record, like a compiler flush does.
        let is_flush_eviction = |e: &TraceEvent| {
            matches!(
                e,
                TraceEvent::ConnEvicted {
                    cause: EvictCause::PhaseFlush,
                    ..
                }
            )
        };
        let records = tracer.records();
        assert!(records.iter().any(|r| is_flush_eviction(&r.event)));
        for pair in records.windows(2) {
            if is_flush_eviction(&pair[0].event) {
                assert!(
                    matches!(
                        pair[1].event,
                        TraceEvent::SpanEnd {
                            phase: SpanPhase::Conn,
                            ..
                        }
                    ),
                    "flush eviction at {} ns leaves its span open",
                    pair[0].t_ns
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "preload mode has none")]
    fn phase_detector_rejected_in_preload_mode() {
        let mut programs = vec![Program::new(); 4];
        programs[0].send(1, 64);
        let w = Workload::new("pd", 4, programs);
        let _ = TdmSim::new(&w, &params(4), TdmMode::Preload)
            .with_phase_detector(pms_predict::PhaseDetectorConfig::default());
    }

    #[test]
    fn hit_rate_reflects_temporal_locality() {
        // Ring traffic reuses one connection per processor: after the
        // compulsory miss, every later message is a hit.
        let w = pms_workloads::ring(8, 64, 8);
        let stats = run(&w, DYN);
        let rate = stats
            .working_set_hit_rate()
            .expect("dynamic mode records lookups");
        assert!(rate > 0.7, "ring hit rate {rate} too low");
        // Scatter never reuses a connection: every lookup is a compulsory
        // miss (the cache-analogy of §3.2).
        let s = scatter(16, 64);
        let stats = run(&s, DYN);
        let rate = stats.working_set_hit_rate().unwrap();
        assert!(rate < 0.2, "scatter hit rate {rate} should be ~0");
    }

    #[test]
    fn preload_mode_records_no_lookups() {
        let w = scatter(16, 64);
        let stats = run(&w, TdmMode::Preload);
        assert_eq!(stats.working_set_hit_rate(), None);
    }

    #[test]
    fn flush_command_clears_dynamic_state() {
        let mut programs = vec![Program::new(); 4];
        programs[0].send(1, 64);
        for p in &mut programs {
            p.barrier();
        }
        programs[0].cmds.push(pms_workloads::Command::Flush);
        programs[0].send(2, 64);
        let w = Workload::new("flush", 4, programs);
        let stats = run(
            &w,
            TdmMode::Dynamic {
                predictor: PredictorKind::Never,
            },
        );
        assert_eq!(stats.delivered_messages, 2);
    }

    /// Two-config stream: (0->1, 2->3) then (0->2).
    fn stream_fixture() -> (Workload, Vec<BitMatrix>, Vec<usize>) {
        let mut programs = vec![Program::new(); 4];
        programs[0].send(1, 128).send(2, 64);
        programs[2].send(3, 64);
        let w = Workload::new("stream", 4, programs);
        let configs = vec![
            BitMatrix::from_pairs(4, 4, [(0, 1), (2, 3)]),
            BitMatrix::from_pairs(4, 4, [(0, 2)]),
        ];
        // message_table order: round 0 = (0->1), (2->3); round 1 = (0->2).
        let msg_config = vec![0, 0, 1];
        (w, configs, msg_config)
    }

    #[test]
    fn config_stream_delivers_everything() {
        let (w, configs, msg_config) = stream_fixture();
        let stats = TdmSim::with_config_stream(&w, &params(4), configs, msg_config).run();
        assert_eq!(stats.delivered_messages, 3);
        assert_eq!(stats.delivered_bytes, 256);
        assert_eq!(stats.paradigm, "schedule-stream");
    }

    #[test]
    fn config_stream_pays_the_reconfiguration_penalty() {
        let (w, configs, msg_config) = stream_fixture();
        let mut cheap = params(4).with_tdm_slots(1);
        cheap.preload_cfg_ns = 0;
        let mut dear = cheap.clone();
        dear.preload_cfg_ns = 100 * 64; // δ = 64 slots
        let fast =
            TdmSim::with_config_stream(&w, &cheap, configs.clone(), msg_config.clone()).run();
        let slow = TdmSim::with_config_stream(&w, &dear, configs, msg_config).run();
        assert_eq!(fast.delivered_bytes, slow.delivered_bytes);
        assert!(
            slow.makespan_ns >= fast.makespan_ns + 100 * 64,
            "fast {} slow {}",
            fast.makespan_ns,
            slow.makespan_ns
        );
    }

    /// `with_threads` is inert: a single run is sequential.
    #[test]
    fn config_stream_identical_across_thread_counts() {
        let (w, configs, msg_config) = stream_fixture();
        let base =
            TdmSim::with_config_stream(&w, &params(4), configs.clone(), msg_config.clone()).run();
        let par =
            TdmSim::with_config_stream(&w, &params(4).with_threads(4), configs, msg_config).run();
        assert_eq!(format!("{base:?}"), format!("{par:?}"));
    }

    #[test]
    #[should_panic(expected = "one configuration index per message")]
    fn config_stream_rejects_length_mismatch() {
        let (w, configs, _) = stream_fixture();
        TdmSim::with_config_stream(&w, &params(4), configs, vec![0]);
    }

    #[test]
    #[should_panic(expected = "absent from configuration")]
    fn config_stream_rejects_uncovered_message() {
        let (w, configs, _) = stream_fixture();
        TdmSim::with_config_stream(&w, &params(4), configs, vec![0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "carries no messages")]
    fn config_stream_rejects_idle_configuration() {
        let (w, mut configs, msg_config) = stream_fixture();
        configs.push(BitMatrix::from_pairs(4, 4, [(3, 0)]));
        TdmSim::with_config_stream(&w, &params(4), configs, msg_config);
    }
}

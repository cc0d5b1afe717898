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

use crate::engine::{Effect, Engine};
use crate::faultrt::{FaultRt, NicOutcome};
use crate::message::MsgState;
use crate::params::SimParams;
use crate::stats::SimStats;
use crate::voq::Voqs;
use pms_bitmat::BitMatrix;
use pms_compile::partition_phases;
use pms_faults::{FaultKind, FaultPlan};
use pms_par::{split_ranges, ShardPool};
use pms_predict::{
    ConnectionPredictor, NeverEvict, PhaseDetector, PhaseDetectorConfig, RefCountPredictor,
    TimeoutPredictor,
};
use pms_sched::{HoldPolicy, Scheduler, SchedulerConfig, SlotRouter, TdmCounter};
use pms_trace::{span::SpanTracker, EvictCause, SpanPhase, TraceEvent, Tracer};
use pms_workloads::Workload;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

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

/// A register in the preloaded-stream backend.
#[derive(Debug, Clone, Copy)]
struct StreamSlot {
    config_idx: usize,
    ready_at: u64,
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
    Stream {
        registers: Vec<Option<StreamSlot>>,
        configs: Vec<BitMatrix>,
        msg_config: Vec<usize>,
        remaining_per_config: Vec<usize>,
        next_config: usize,
        cursor: usize,
    },
}

/// The multiplexed-switching simulator.
pub struct TdmSim {
    params: SimParams,
    workload_name: String,
    mode_label: String,
    msgs: Vec<MsgState>,
    engine: Engine,
    voqs: Voqs,
    backend: Backend,
    patterns: Vec<Vec<BitMatrix>>,
    undelivered: usize,
    preload_loads: u64,
    evictions: u64,
    has_dynamic: bool,
    /// §3.3 dynamic reconfiguration: a miss-rate phase detector that
    /// flushes the dynamic working set when the program's communication
    /// pattern shifts.
    phase_detector: Option<PhaseDetector>,
    /// Whether each message's working-set lookup has been recorded.
    lookup_recorded: Vec<bool>,
    phase_flushes: u64,
    ws_lookups: u64,
    ws_hits: u64,
    /// Optional slot router for fabrics with internal blocking (§6:
    /// stage graphs, the multi-hop torus): every established connection
    /// must also claim its fabric resources, and every release returns
    /// them. `None` is the flat crossbar.
    router: Option<Box<dyn SlotRouter>>,
    /// Optional fault-injection runtime; `None` (also for an empty plan)
    /// takes exactly the unfaulted code path.
    faults: Option<FaultRt>,
    /// `(slot, u, v)` preloaded-register connections revoked by a fault,
    /// restored when the pair's link heals (if the register still has
    /// room for them).
    fault_restores: Vec<(usize, usize, usize)>,
    /// Stream mode: loaded pairs whose fault eviction was traced, awaiting
    /// the fault to clear.
    stream_broken: BTreeSet<(usize, usize)>,
    /// Stream mode: healed pairs awaiting their re-establish event on the
    /// next visit of a configuration containing them.
    stream_healed: BTreeSet<(usize, usize)>,
    msg_retries: u64,
    msgs_abandoned: u64,
    /// Event sink; [`Tracer::Null`] (the default) makes every emit site a
    /// single predicted branch.
    tracer: Tracer,
    /// Causal span emitter (inert while the tracer is disabled).
    spans: SpanTracker,
    /// The TDM register most recently driving the crossbar, used to stamp
    /// trace records.
    cur_slot: u32,
    /// Worker lanes shared by the engine, scheduler, and the per-port
    /// scans. One lane (`params.threads == 1`) spawns no threads and runs
    /// the exact sequential code path.
    pool: Arc<ShardPool>,
}

impl TdmSim {
    /// Builds the simulator for a workload in the given mode.
    ///
    /// # Panics
    /// Panics on port mismatches, or (Hybrid) when the workload does not
    /// provide enough preloadable patterns for `preload_slots`.
    pub fn new(workload: &Workload, params: &SimParams, mode: TdmMode) -> Self {
        assert_eq!(
            workload.ports, params.ports,
            "workload/params port mismatch"
        );
        let table = workload.message_table();
        let msgs: Vec<MsgState> = table.iter().map(|m| MsgState::new(*m)).collect();
        let pool = Arc::new(ShardPool::new(params.threads));
        let mut engine = Engine::new(workload, &table, params.nic_cycle_ns);
        engine.set_pool(Arc::clone(&pool));
        let k = params.tdm_slots;

        let mut initial_loads = 0u64;
        let (backend, mode_label, has_dynamic) = match mode {
            TdmMode::Dynamic { predictor } => {
                let cfg = SchedulerConfig::new(params.ports, k).with_hold(predictor.hold_policy());
                (
                    Backend::Scheduled {
                        scheduler: Scheduler::new(cfg),
                        tdm: TdmCounter::new(k),
                        predictor: predictor.build(),
                    },
                    "dynamic-tdm".to_string(),
                    true,
                )
            }
            TdmMode::Preload => {
                let trace = workload.connection_trace();
                let program = partition_phases(params.ports, &trace, k);
                // Flatten phases into a configuration stream and map every
                // message to the configuration carrying its connection.
                let mut configs: Vec<BitMatrix> = Vec::new();
                let mut phase_base: Vec<usize> = Vec::new();
                for phase in &program.phases {
                    phase_base.push(configs.len());
                    configs.extend(phase.configs.iter().cloned());
                }
                let mut conn_to_cfg: Vec<HashMap<(usize, usize), usize>> = Vec::new();
                for (pi, phase) in program.phases.iter().enumerate() {
                    let mut map = HashMap::new();
                    for (ci, cfg) in phase.configs.iter().enumerate() {
                        for (u, v) in cfg.iter_ones() {
                            map.insert((u, v), phase_base[pi] + ci);
                        }
                    }
                    conn_to_cfg.push(map);
                }
                let mut msg_config = vec![usize::MAX; msgs.len()];
                let mut remaining_per_config = vec![0usize; configs.len()];
                {
                    let mut pi = 0usize;
                    for (id, m) in table.iter().enumerate() {
                        while pi + 1 < program.phases.len()
                            && program.phases[pi + 1].first_event <= id
                        {
                            pi += 1;
                        }
                        let c = *conn_to_cfg[pi]
                            .get(&(m.src, m.dst))
                            .expect("phase covers its own connections");
                        msg_config[id] = c;
                        remaining_per_config[c] += 1;
                    }
                }
                // Initial window: the first K configs, loaded sequentially.
                let mut registers = vec![None; k];
                let mut next_config = 0usize;
                let mut loads = 0u64;
                for reg in registers.iter_mut() {
                    if next_config < configs.len() {
                        loads += 1;
                        *reg = Some(StreamSlot {
                            config_idx: next_config,
                            ready_at: loads * params.preload_cfg_ns,
                        });
                        next_config += 1;
                    }
                }
                initial_loads = loads;
                (
                    Backend::Stream {
                        registers,
                        configs,
                        msg_config,
                        remaining_per_config,
                        next_config,
                        cursor: 0,
                    },
                    "preload-tdm".to_string(),
                    false,
                )
            }
            TdmMode::Hybrid {
                preload_slots,
                predictor,
            } => {
                assert!(
                    preload_slots <= k,
                    "cannot preload {preload_slots} of {k} slots"
                );
                let cfg = SchedulerConfig::new(params.ports, k).with_hold(predictor.hold_policy());
                let mut scheduler = Scheduler::new(cfg);
                // Fill the preloaded registers from the workload's pattern
                // table, flattened in order.
                let flat: Vec<&BitMatrix> = workload.patterns.iter().flatten().collect();
                assert!(
                    flat.len() >= preload_slots,
                    "workload provides {} preloadable configs, need {preload_slots}",
                    flat.len()
                );
                for (s, cfg) in flat.iter().take(preload_slots).enumerate() {
                    scheduler.preload(s, (*cfg).clone());
                }
                (
                    Backend::Scheduled {
                        scheduler,
                        tdm: TdmCounter::new(k),
                        predictor: predictor.build(),
                    },
                    format!("hybrid-{preload_slots}p"),
                    preload_slots < k,
                )
            }
        };

        if let TdmMode::Hybrid { preload_slots, .. } = mode {
            initial_loads = preload_slots as u64;
        }
        Self::assemble(
            workload,
            params,
            msgs,
            engine,
            pool,
            backend,
            mode_label,
            has_dynamic,
            initial_loads,
        )
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
        assert_eq!(
            workload.ports, params.ports,
            "workload/params port mismatch"
        );
        let table = workload.message_table();
        assert_eq!(
            msg_config.len(),
            table.len(),
            "one configuration index per message"
        );
        let mut remaining_per_config = vec![0usize; configs.len()];
        for (m, &c) in table.iter().zip(&msg_config) {
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
            remaining_per_config[c] += 1;
        }
        for (c, &n) in remaining_per_config.iter().enumerate() {
            assert!(n > 0, "configuration {c} carries no messages");
        }
        let msgs: Vec<MsgState> = table.iter().map(|m| MsgState::new(*m)).collect();
        let pool = Arc::new(ShardPool::new(params.threads));
        let mut engine = Engine::new(workload, &table, params.nic_cycle_ns);
        engine.set_pool(Arc::clone(&pool));
        // Initial window: the first K configs, loaded sequentially (same
        // as the compiled stream).
        let k = params.tdm_slots;
        let mut registers = vec![None; k];
        let mut next_config = 0usize;
        let mut loads = 0u64;
        for reg in registers.iter_mut() {
            if next_config < configs.len() {
                loads += 1;
                *reg = Some(StreamSlot {
                    config_idx: next_config,
                    ready_at: loads * params.preload_cfg_ns,
                });
                next_config += 1;
            }
        }
        let backend = Backend::Stream {
            registers,
            configs,
            msg_config,
            remaining_per_config,
            next_config,
            cursor: 0,
        };
        Self::assemble(
            workload,
            params,
            msgs,
            engine,
            pool,
            backend,
            "schedule-stream".to_string(),
            false,
            loads,
        )
    }

    /// Common constructor tail shared by every entry point.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        workload: &Workload,
        params: &SimParams,
        msgs: Vec<MsgState>,
        engine: Engine,
        pool: Arc<ShardPool>,
        mut backend: Backend,
        mode_label: String,
        has_dynamic: bool,
        initial_loads: u64,
    ) -> Self {
        if let Backend::Scheduled { scheduler, .. } = &mut backend {
            scheduler.set_pool(Arc::clone(&pool));
        }
        let n_msgs = msgs.len();
        Self {
            params: params.clone(),
            workload_name: workload.name.clone(),
            mode_label,
            msgs,
            engine,
            voqs: Voqs::new(params.ports),
            backend,
            patterns: workload.patterns.clone(),
            undelivered: 0,
            preload_loads: initial_loads,
            evictions: 0,
            has_dynamic,
            phase_detector: None,
            lookup_recorded: vec![false; n_msgs],
            phase_flushes: 0,
            ws_lookups: 0,
            ws_hits: 0,
            router: None,
            faults: None,
            fault_restores: Vec::new(),
            stream_broken: BTreeSet::new(),
            stream_healed: BTreeSet::new(),
            msg_retries: 0,
            msgs_abandoned: 0,
            tracer: Tracer::Null,
            spans: SpanTracker::new(),
            cur_slot: 0,
            pool,
        }
    }

    /// Attaches a deterministic fault plan. An empty plan is a strict
    /// no-op: the simulator takes exactly the unfaulted code path and
    /// produces byte-identical statistics and traces.
    ///
    /// Preload (stream) mode has no grant lines and never releases, so
    /// `GrantDrop` and `StuckRelease` faults are inert there; link and
    /// NIC faults apply to every mode. A link that stays dead past the
    /// simulation horizon while traffic is queued on it deadlocks the
    /// run (caught by the `max_sim_ns` assertion) — bound fault windows
    /// in the plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = FaultRt::new(self.params.ports, plan, self.msgs.len());
        self
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
        assert!(
            self.has_dynamic,
            "the stage router applies to dynamic scheduling only"
        );
        if let Backend::Scheduled { scheduler, .. } = &self.backend {
            assert!(
                (0..scheduler.slots()).all(|s| !scheduler.is_preloaded(s)),
                "preloaded registers bypass the stage router"
            );
        }
        self.router = Some(router);
        self
    }

    /// Overrides the paradigm label stamped on the statistics (e.g. to
    /// distinguish stage-graph topologies sharing the dynamic backend).
    pub fn with_mode_label(mut self, label: impl Into<String>) -> Self {
        self.mode_label = label.into();
        self
    }

    /// Attaches an event tracer; see [`pms_trace::Tracer`] for the sinks.
    /// Retrieve it (with the collected records) via
    /// [`run_traced`](Self::run_traced).
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Attaches a §3.3 phase detector: every first lookup of a message's
    /// connection counts as a working-set hit or miss, and a detected
    /// phase change flushes all dynamically scheduled connections.
    pub fn with_phase_detector(mut self, cfg: PhaseDetectorConfig) -> Self {
        assert!(
            self.has_dynamic,
            "the phase detector drives dynamic scheduling; preload mode has none"
        );
        self.phase_detector = Some(PhaseDetector::new(cfg));
        self
    }

    /// Runs to completion and returns the statistics.
    pub fn run(self) -> SimStats {
        self.run_traced().0
    }

    /// Like [`run`](Self::run) but also returns the tracer (and the
    /// records it collected). JSONL output is flushed before returning.
    pub fn run_traced(mut self) -> (SimStats, Tracer) {
        self.trace_initial_preloads();
        let slot_ns = self.params.slot_ns;
        let sched_ns = self.params.sched_ns;
        let mut t = 0u64;
        let mut next_slot = 0u64;
        let mut next_pass = sched_ns;
        loop {
            assert!(
                t <= self.params.max_sim_ns,
                "TDM simulation exceeded {} ns (deadlock?)",
                self.params.max_sim_ns
            );
            self.poll_engine(t);
            self.poll_faults(t);
            if self.engine.all_done() && self.undelivered == 0 {
                break;
            }
            if t >= next_slot {
                self.do_slot(t);
                next_slot = t + slot_ns;
            }
            if self.has_dynamic && t >= next_pass {
                // Extension 1: several SL units schedule consecutive
                // dynamic registers within the same SL clock.
                for _ in 0..self.params.sl_units {
                    self.do_pass(t);
                }
                next_pass = t + sched_ns;
            }
            // Advance to the next clock edge or engine wake-up.
            let mut tn = next_slot;
            if self.has_dynamic {
                tn = tn.min(next_pass);
            }
            if let Some(w) = self.engine.next_wake() {
                tn = tn.min(w);
            }
            if let Some(c) = self.faults.as_ref().and_then(|f| f.next_change()) {
                tn = tn.min(c);
            }
            if self.params.idle_skip && self.undelivered == 0 {
                if let Some(stop) = self.idle_stop(t) {
                    if stop > tn {
                        self.fast_forward(stop, &mut next_slot, &mut next_pass);
                        t = stop;
                        continue;
                    }
                }
            }
            t = tn.max(t + 1);
        }
        let mut stats = SimStats::from_messages(
            self.mode_label.clone(),
            self.workload_name.clone(),
            &self.msgs,
        );
        if let Backend::Scheduled { scheduler, .. } = &self.backend {
            stats.sched_passes = scheduler.stats().passes;
            stats.connections_established = scheduler.stats().establishes;
        }
        stats.predictor_evictions = self.evictions;
        stats.msg_retries = self.msg_retries;
        stats.msgs_abandoned = self.msgs_abandoned;
        stats.preload_loads = self.preload_loads;
        stats.phase_flushes = self.phase_flushes;
        stats.ws_lookups = self.ws_lookups;
        stats.ws_hits = self.ws_hits;
        let mut spans = std::mem::take(&mut self.spans);
        let mut tracer = self.tracer;
        spans.finish(&mut tracer, t, self.cur_slot);
        tracer.seal(t, self.cur_slot);
        let _ = tracer.finish();
        (stats, tracer)
    }

    /// Emits `PreloadApplied`/`ConnEstablished` for the configurations
    /// already resident when the simulation starts (hybrid preloads, the
    /// initial preload-stream window).
    fn trace_initial_preloads(&mut self) {
        if !self.tracer.enabled() {
            return;
        }
        let tracer = &mut self.tracer;
        let spans = &mut self.spans;
        let mut apply = |t: u64, slot_idx: u32, cfg: &BitMatrix| {
            let pairs: Vec<(usize, usize)> = cfg.iter_ones().collect();
            tracer.emit(
                t,
                slot_idx,
                TraceEvent::PreloadApplied {
                    slot_idx,
                    connections: pairs.len() as u32,
                },
            );
            for (u, v) in pairs {
                tracer.emit(
                    t,
                    slot_idx,
                    TraceEvent::ConnEstablished {
                        src: u as u32,
                        dst: v as u32,
                        slot_idx,
                    },
                );
                spans.conn_start(tracer, t, slot_idx, u as u32, v as u32);
            }
        };
        match &self.backend {
            Backend::Scheduled { scheduler, .. } => {
                for s in 0..scheduler.slots() {
                    if scheduler.is_preloaded(s) {
                        apply(0, s as u32, scheduler.config(s));
                    }
                }
            }
            Backend::Stream {
                registers, configs, ..
            } => {
                for (reg, slot) in registers.iter().enumerate() {
                    if let Some(slot) = slot {
                        apply(slot.ready_at, reg as u32, &configs[slot.config_idx]);
                    }
                }
            }
        }
    }

    fn poll_engine(&mut self, now: u64) {
        let drained = self.undelivered == 0;
        let effects = self.engine.poll(now, drained);
        for (te, fx) in effects {
            match fx {
                Effect::Inject(id) => {
                    let spec = self.msgs[id].spec;
                    self.msgs[id].enqueued_at = Some(te);
                    let new_request = self.voqs.push(spec.src, spec.dst, id);
                    self.undelivered += 1;
                    if self.tracer.enabled() {
                        self.tracer.emit(
                            te,
                            self.cur_slot,
                            TraceEvent::MsgInjected {
                                src: spec.src as u32,
                                dst: spec.dst as u32,
                                bytes: spec.bytes,
                                msg: id as u32,
                            },
                        );
                        if new_request {
                            self.tracer.emit(
                                te,
                                self.cur_slot,
                                TraceEvent::ConnRequested {
                                    src: spec.src as u32,
                                    dst: spec.dst as u32,
                                },
                            );
                        }
                        self.spans.msg_start(
                            &mut self.tracer,
                            te,
                            self.cur_slot,
                            id as u32,
                            spec.src as u32,
                            spec.dst as u32,
                        );
                    }
                }
                Effect::Flush => {
                    if let Backend::Scheduled { scheduler, .. } = &mut self.backend {
                        if let Some(rt) = self.router.as_deref_mut() {
                            for s in 0..scheduler.slots() {
                                for (u, v) in scheduler.config(s).iter_ones().collect::<Vec<_>>() {
                                    rt.release(s, u, v);
                                }
                            }
                        }
                        let cleared = scheduler.flush_dynamic();
                        if self.tracer.enabled() {
                            self.tracer.emit(
                                te,
                                self.cur_slot,
                                TraceEvent::PhaseFlush {
                                    cleared: cleared.len() as u32,
                                },
                            );
                            for (u, v) in cleared {
                                self.tracer.emit(
                                    te,
                                    self.cur_slot,
                                    TraceEvent::ConnEvicted {
                                        src: u as u32,
                                        dst: v as u32,
                                        cause: EvictCause::PhaseFlush,
                                    },
                                );
                                self.spans.conn_end(
                                    &mut self.tracer,
                                    te,
                                    self.cur_slot,
                                    u as u32,
                                    v as u32,
                                );
                            }
                        }
                    }
                }
                Effect::Preload(pat) => {
                    assert!(
                        self.router.is_none(),
                        "preloaded patterns bypass the stage router"
                    );
                    let configs = self.patterns.get(pat).cloned().unwrap_or_default();
                    if let Backend::Scheduled { scheduler, .. } = &mut self.backend {
                        // Loading a pattern replaces whatever pattern was
                        // loaded before: stale preloaded registers are
                        // evicted first, so the new working set gets the
                        // registers and dynamic scheduling gets the rest.
                        for s in 0..scheduler.slots() {
                            if scheduler.is_preloaded(s) {
                                if self.tracer.enabled() {
                                    for (u, v) in
                                        scheduler.config(s).iter_ones().collect::<Vec<_>>()
                                    {
                                        self.tracer.emit(
                                            te,
                                            s as u32,
                                            TraceEvent::ConnEvicted {
                                                src: u as u32,
                                                dst: v as u32,
                                                cause: EvictCause::PhaseFlush,
                                            },
                                        );
                                        self.spans.conn_end(
                                            &mut self.tracer,
                                            te,
                                            s as u32,
                                            u as u32,
                                            v as u32,
                                        );
                                    }
                                }
                                scheduler.unload(s);
                            }
                        }
                        for (s, cfg) in configs.into_iter().enumerate() {
                            if s < scheduler.slots() {
                                if self.tracer.enabled() {
                                    self.tracer.emit(
                                        te,
                                        s as u32,
                                        TraceEvent::PreloadApplied {
                                            slot_idx: s as u32,
                                            connections: cfg.iter_ones().count() as u32,
                                        },
                                    );
                                    for (u, v) in cfg.iter_ones().collect::<Vec<_>>() {
                                        self.tracer.emit(
                                            te,
                                            s as u32,
                                            TraceEvent::ConnEstablished {
                                                src: u as u32,
                                                dst: v as u32,
                                                slot_idx: s as u32,
                                            },
                                        );
                                        self.spans.conn_start(
                                            &mut self.tracer,
                                            te,
                                            s as u32,
                                            u as u32,
                                            v as u32,
                                        );
                                    }
                                }
                                scheduler.preload(s, cfg);
                                self.preload_loads += 1;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Replays fault boundaries up to `t`: trace events, teardown of
    /// broken connections, restoration of healed preloaded pairs.
    fn poll_faults(&mut self, t: u64) {
        let transitions = match &mut self.faults {
            Some(f) => f.poll(t),
            None => return,
        };
        for tr in transitions {
            FaultRt::trace_transition(&mut self.tracer, self.cur_slot, &tr);
            let (u32u, u32v) = tr.kind.pair();
            let (u, v) = (u32u as usize, u32v as usize);
            match tr.kind {
                FaultKind::LinkDown { .. } | FaultKind::StuckGrant { .. } => {
                    if tr.injected {
                        self.break_pair(tr.t_ns, u, v);
                    } else {
                        self.heal_pair(tr.t_ns, u, v);
                    }
                }
                FaultKind::GrantDrop { .. } if !tr.injected => {
                    // Next incident on this pair starts a fresh backoff
                    // ladder.
                    if let Some(f) = &mut self.faults {
                        f.clear_drop_state(u, v);
                    }
                }
                // Stuck-release injection acts in the pass path (releases
                // are suppressed while active; the first pass after the
                // clear releases naturally). Transient NIC faults act at
                // message completion. Grant-drop injection acts on the
                // next grant.
                _ => {}
            }
        }
    }

    /// A grant-blocking fault opened on `(u, v)`: tear down whatever the
    /// switch currently carries for the pair. Request latches stay set so
    /// pending traffic re-establishes naturally once the link heals.
    fn break_pair(&mut self, t: u64, u: usize, v: usize) {
        let mut router = self.router.as_deref_mut();
        match &mut self.backend {
            Backend::Scheduled {
                scheduler,
                predictor,
                ..
            } => {
                let slots = scheduler.slots_of(u, v);
                for &s in &slots {
                    if scheduler.is_preloaded(s) {
                        self.fault_restores.push((s, u, v));
                    }
                    scheduler.revoke(s, u, v);
                    if let Some(rt) = router.as_deref_mut() {
                        rt.release(s, u, v);
                    }
                    if self.tracer.enabled() {
                        self.tracer.emit(
                            t,
                            s as u32,
                            TraceEvent::ConnEvicted {
                                src: u as u32,
                                dst: v as u32,
                                cause: EvictCause::Fault,
                            },
                        );
                        self.spans
                            .conn_end(&mut self.tracer, t, s as u32, u as u32, v as u32);
                    }
                }
                if !slots.is_empty() {
                    if let Some(pred) = predictor {
                        pred.on_fault(u, v);
                    }
                }
            }
            Backend::Stream {
                registers, configs, ..
            } => {
                if self.stream_broken.contains(&(u, v)) {
                    return; // an overlapping fault already tore it down
                }
                let loaded = registers
                    .iter()
                    .position(|r| r.map(|s| configs[s.config_idx].get(u, v)) == Some(true));
                if let Some(reg) = loaded {
                    self.stream_broken.insert((u, v));
                    self.stream_healed.remove(&(u, v));
                    if self.tracer.enabled() {
                        self.tracer.emit(
                            t,
                            reg as u32,
                            TraceEvent::ConnEvicted {
                                src: u as u32,
                                dst: v as u32,
                                cause: EvictCause::Fault,
                            },
                        );
                        self.spans
                            .conn_end(&mut self.tracer, t, reg as u32, u as u32, v as u32);
                    }
                }
            }
        }
    }

    /// A grant-blocking fault on `(u, v)` cleared. If no overlapping
    /// fault still covers the pair, restore healed preloaded connections
    /// (when the register still has row/column room — a fault that handed
    /// the ports to other traffic drops the restoration silently) and
    /// queue the stream-mode re-establish event.
    fn heal_pair(&mut self, t: u64, u: usize, v: usize) {
        if self.faults.as_ref().is_some_and(|f| !f.link_ok(u, v)) {
            return;
        }
        match &mut self.backend {
            Backend::Scheduled { scheduler, .. } => {
                let mut kept = Vec::new();
                for (s, ru, rv) in std::mem::take(&mut self.fault_restores) {
                    if (ru, rv) != (u, v) {
                        kept.push((s, ru, rv));
                        continue;
                    }
                    let cfg = scheduler.config(s);
                    let free = scheduler.is_preloaded(s)
                        && cfg.iter_row_ones(u).next().is_none()
                        && (0..self.params.ports).all(|r| !cfg.get(r, v));
                    if free {
                        scheduler.restore(s, u, v);
                        if self.tracer.enabled() {
                            self.tracer.emit(
                                t,
                                s as u32,
                                TraceEvent::ConnEstablished {
                                    src: u as u32,
                                    dst: v as u32,
                                    slot_idx: s as u32,
                                },
                            );
                            self.spans.conn_start(
                                &mut self.tracer,
                                t,
                                s as u32,
                                u as u32,
                                v as u32,
                            );
                        }
                    }
                }
                self.fault_restores = kept;
            }
            Backend::Stream { .. } => {
                if self.stream_broken.remove(&(u, v)) {
                    self.stream_healed.insert((u, v));
                }
            }
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
    fn idle_stop(&self, t: u64) -> Option<u64> {
        let mut stop = self.engine.next_wake()?;
        if let Some(c) = self.faults.as_ref().and_then(|f| f.next_change()) {
            stop = stop.min(c);
        }
        match &self.backend {
            Backend::Scheduled {
                scheduler,
                predictor,
                ..
            } => {
                if self.has_dynamic {
                    if !scheduler.is_idle_quiescent() {
                        return None;
                    }
                    if let Some(pred) = predictor {
                        if let Some(d) = pred.idle_eviction_deadline() {
                            stop = stop.min(d);
                        }
                    }
                }
            }
            Backend::Stream { registers, .. } => {
                if !self.stream_healed.is_empty() {
                    return None;
                }
                for slot in registers.iter().flatten() {
                    if slot.ready_at > t {
                        stop = stop.min(slot.ready_at);
                    }
                }
            }
        }
        Some(stop)
    }

    /// Replays every slot/pass boundary in `[t, stop)` as a pure clock
    /// tick: the TDM counter and SL pass counter advance (with priority
    /// rotation) exactly as on the step-by-step path, but no requests are
    /// evaluated and no data moves. Traced runs tick each boundary
    /// individually so `SlotAdvanced`/`SchedPass` records stay
    /// byte-identical; untraced runs use the closed form.
    fn fast_forward(&mut self, stop: u64, next_slot: &mut u64, next_pass: &mut u64) {
        let slot_ns = self.params.slot_ns;
        let sched_ns = self.params.sched_ns;
        if self.tracer.enabled() {
            loop {
                let slot_due = *next_slot < stop;
                let pass_due = self.has_dynamic && *next_pass < stop;
                if slot_due && (!pass_due || *next_slot <= *next_pass) {
                    // Slot before pass at equal timestamps, like the main
                    // loop's statement order.
                    self.tick_slot(*next_slot);
                    *next_slot += slot_ns;
                } else if pass_due {
                    for _ in 0..self.params.sl_units {
                        self.tick_pass(*next_pass);
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
            match &mut self.backend {
                Backend::Scheduled { scheduler, tdm, .. } => {
                    if let Some(s) = tdm.skip(n_slots, scheduler.configs()) {
                        self.cur_slot = s as u32;
                    }
                }
                Backend::Stream {
                    registers,
                    configs,
                    cursor,
                    ..
                } => {
                    // Eligibility is frozen across the window: `idle_stop`
                    // capped it at the earliest future `ready_at`.
                    let eligible: Vec<usize> = registers
                        .iter()
                        .enumerate()
                        .filter(|(_, r)| {
                            r.is_some_and(|s| {
                                s.ready_at < stop && !configs[s.config_idx].all_zero()
                            })
                        })
                        .map(|(reg, _)| reg)
                        .collect();
                    if !eligible.is_empty() {
                        let m = eligible.len() as u64;
                        let i0 = eligible.iter().position(|&r| r > *cursor).unwrap_or(0) as u64;
                        let last = eligible[((i0 + (n_slots - 1) % m) % m) as usize];
                        *cursor = last;
                        self.cur_slot = last as u32;
                    }
                }
            }
            *next_slot += n_slots * slot_ns;
        }
        if n_passes > 0 {
            if let Backend::Scheduled { scheduler, .. } = &mut self.backend {
                scheduler.skip_quiescent_passes(n_passes * self.params.sl_units as u64);
            }
            *next_pass += n_passes * sched_ns;
        }
    }

    /// One idle slot boundary on the traced fast-forward path: advance the
    /// TDM counter / stream cursor and emit `SlotAdvanced`, exactly as
    /// [`do_slot`](Self::do_slot) would with every VOQ empty.
    fn tick_slot(&mut self, t: u64) {
        let active = match &mut self.backend {
            Backend::Scheduled { scheduler, tdm, .. } => {
                tdm.advance(scheduler.configs()).map(|s| s as u32)
            }
            Backend::Stream {
                registers,
                configs,
                cursor,
                ..
            } => {
                let k = registers.len();
                let mut found = None;
                for step in 1..=k {
                    let cand = (*cursor + step) % k;
                    if let Some(slot) = registers[cand] {
                        if slot.ready_at <= t && !configs[slot.config_idx].all_zero() {
                            found = Some(cand);
                            break;
                        }
                    }
                }
                if let Some(reg) = found {
                    *cursor = reg;
                }
                found.map(|r| r as u32)
            }
        };
        if let Some(s) = active {
            self.cur_slot = s;
            self.tracer
                .emit(t, s, TraceEvent::SlotAdvanced { slot_idx: s });
        }
    }

    /// One idle SL pass on the traced fast-forward path: bump the pass
    /// counter, rotate the priority, and emit the all-zero `SchedPass`
    /// record [`do_pass`](Self::do_pass) would produce for an empty
    /// request matrix. When every register is preloaded the counter does
    /// not move (matching `Scheduler::pass`) but the record is still
    /// emitted, stamped with the current slot.
    fn tick_pass(&mut self, t: u64) {
        let Backend::Scheduled { scheduler, .. } = &mut self.backend else {
            return;
        };
        let pass_slot = scheduler
            .advance_quiescent_pass()
            .map_or(self.cur_slot, |s| s as u32);
        self.tracer.emit(
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
    fn do_slot(&mut self, t: u64) {
        let payload = self.params.slot_payload_bytes;
        let rate = self.params.link.bytes_per_ns();
        let path = self.params.link.path_latency_lvds_ns();

        // Collect (u, v, config-gate) pairs for the active slot.
        enum Gate {
            None,
            Config(usize),
        }
        let (pairs, gate, active_slot): (Vec<(usize, usize)>, Gate, u32) = match &mut self.backend {
            Backend::Scheduled { scheduler, tdm, .. } => match tdm.advance(scheduler.configs()) {
                Some(s) => (
                    scheduler.config(s).iter_ones().collect(),
                    Gate::None,
                    s as u32,
                ),
                None => return,
            },
            Backend::Stream {
                registers,
                configs,
                cursor,
                ..
            } => {
                let k = registers.len();
                let mut found = None;
                for step in 1..=k {
                    let cand = (*cursor + step) % k;
                    if let Some(slot) = registers[cand] {
                        if slot.ready_at <= t && !configs[slot.config_idx].all_zero() {
                            found = Some((cand, slot.config_idx));
                            break;
                        }
                    }
                }
                match found {
                    Some((reg, cfg_idx)) => {
                        *cursor = reg;
                        (
                            configs[cfg_idx].iter_ones().collect(),
                            Gate::Config(cfg_idx),
                            reg as u32,
                        )
                    }
                    None => return,
                }
            }
        };
        self.cur_slot = active_slot;
        if self.tracer.enabled() {
            self.tracer.emit(
                t,
                active_slot,
                TraceEvent::SlotAdvanced {
                    slot_idx: active_slot,
                },
            );
        }
        if !self.stream_healed.is_empty() {
            // A healed preloaded pair re-joins the fabric the first time a
            // resident configuration containing it drives the crossbar —
            // within one TDM period of the clear, traffic or not.
            for &(u, v) in &pairs {
                if self.stream_healed.remove(&(u, v)) && self.tracer.enabled() {
                    self.tracer.emit(
                        t,
                        active_slot,
                        TraceEvent::ConnEstablished {
                            src: u as u32,
                            dst: v as u32,
                            slot_idx: active_slot,
                        },
                    );
                    self.spans
                        .conn_start(&mut self.tracer, t, active_slot, u as u32, v as u32);
                }
            }
        }

        let mut used_pairs: Vec<(usize, usize)> = Vec::new();
        let mut delivered: Vec<(usize, u64)> = Vec::new(); // (msg, time)
        let mut abandoned: Vec<(usize, u64)> = Vec::new(); // (msg, time)
        for (u, v) in pairs {
            if let Some(f) = &self.faults {
                // A dead link carries no data even if a (stream-mode)
                // configuration still names the pair.
                if !f.link_ok(u, v) {
                    continue;
                }
            }
            let Some(head) = self.voqs.front(u, v) else {
                continue;
            };
            if self.msgs[head].enqueued_at.expect("queued => enqueued") > t {
                continue;
            }
            if self
                .faults
                .as_ref()
                .is_some_and(|f| f.msg_ready_at(head) > t)
            {
                continue; // retransmission still backing off
            }
            if let Gate::Config(c) = gate {
                // Preload mode: the head must belong to this configuration
                // (earlier-phase traffic on the same pair has drained, by
                // stream order).
                if let Backend::Stream { msg_config, .. } = &self.backend {
                    if msg_config[head] != c {
                        continue;
                    }
                }
            }
            let take = self.msgs[head].remaining.min(payload);
            self.msgs[head].remaining -= take;
            used_pairs.push((u, v));
            // First fragment moved: the message is in its transfer phase
            // (any skipped admit/align phases close zero-length here).
            self.spans.msg_advance(
                &mut self.tracer,
                t,
                active_slot,
                head as u32,
                SpanPhase::Transfer,
            );
            if self.msgs[head].remaining == 0 {
                let done = t + (take as f64 / rate).ceil() as u64 + path;
                let outcome = self
                    .faults
                    .as_mut()
                    .map_or(NicOutcome::Deliver, |f| f.nic_completion(head, u, done));
                match outcome {
                    NicOutcome::Deliver => {
                        self.msgs[head].delivered_at = Some(done);
                        self.voqs.pop(u, v);
                        self.undelivered -= 1;
                        delivered.push((head, done));
                    }
                    NicOutcome::Retry { attempt, .. } => {
                        // Corrupted frame: retransmit the whole message
                        // after backoff; it stays at its queue head.
                        self.msgs[head].remaining = self.msgs[head].spec.bytes;
                        self.msg_retries += 1;
                        if self.tracer.enabled() {
                            self.tracer.emit(
                                done,
                                active_slot,
                                TraceEvent::MsgRetried {
                                    src: u as u32,
                                    dst: v as u32,
                                    msg: head as u32,
                                    attempt,
                                },
                            );
                        }
                    }
                    NicOutcome::Abandon { retries } => {
                        self.voqs.pop(u, v);
                        self.undelivered -= 1;
                        self.msgs_abandoned += 1;
                        abandoned.push((head, done));
                        if self.tracer.enabled() {
                            self.tracer.emit(
                                done,
                                active_slot,
                                TraceEvent::MsgAbandoned {
                                    src: u as u32,
                                    dst: v as u32,
                                    msg: head as u32,
                                    retries,
                                },
                            );
                            self.spans
                                .msg_end(&mut self.tracer, done, active_slot, head as u32);
                        }
                    }
                }
            }
        }
        if self.tracer.enabled() {
            for &(msg, done) in &delivered {
                let spec = self.msgs[msg].spec;
                self.tracer.emit(
                    done,
                    active_slot,
                    TraceEvent::MsgDelivered {
                        src: spec.src as u32,
                        dst: spec.dst as u32,
                        bytes: spec.bytes,
                        msg: msg as u32,
                        latency_ns: self.msgs[msg].latency_ns(),
                    },
                );
                self.spans
                    .msg_end(&mut self.tracer, done, active_slot, msg as u32);
            }
        }

        // Post-transfer bookkeeping.
        match &mut self.backend {
            Backend::Scheduled { predictor, .. } => {
                if let Some(pred) = predictor {
                    for &(u, v) in &used_pairs {
                        pred.on_use(u, v, t);
                    }
                }
            }
            Backend::Stream {
                registers,
                configs,
                msg_config,
                remaining_per_config,
                next_config,
                ..
            } => {
                // Abandoned messages leave the stream the same way
                // delivered ones do: their configuration's outstanding
                // count must reach zero or the register never frees.
                for &(msg, done_at) in delivered.iter().chain(abandoned.iter()) {
                    let c = msg_config[msg];
                    remaining_per_config[c] -= 1;
                    if remaining_per_config[c] == 0 {
                        // Free the register holding config c and stream the
                        // next pending configuration into it.
                        let reg = registers
                            .iter()
                            .position(|r| r.map(|s| s.config_idx) == Some(c))
                            .expect("finished config must be loaded");
                        if *next_config < configs.len() {
                            registers[reg] = Some(StreamSlot {
                                config_idx: *next_config,
                                ready_at: done_at + self.params.preload_cfg_ns,
                            });
                            if self.tracer.enabled() {
                                let cfg = &configs[*next_config];
                                self.tracer.emit(
                                    done_at,
                                    reg as u32,
                                    TraceEvent::PreloadApplied {
                                        slot_idx: reg as u32,
                                        connections: cfg.iter_ones().count() as u32,
                                    },
                                );
                                for (u, v) in cfg.iter_ones() {
                                    self.tracer.emit(
                                        done_at,
                                        reg as u32,
                                        TraceEvent::ConnEstablished {
                                            src: u as u32,
                                            dst: v as u32,
                                            slot_idx: reg as u32,
                                        },
                                    );
                                }
                            }
                            *next_config += 1;
                            self.preload_loads += 1;
                        } else {
                            registers[reg] = None;
                        }
                    }
                }
            }
        }
    }

    /// Heads newly visible under `r` that have not been classified yet,
    /// in `(head, u, v)` order by source port then destination.
    ///
    /// The pooled path scans disjoint source-port shards and concatenates
    /// the per-shard vectors in shard order, which is exactly the
    /// sequential scan order, so the result is identical at any lane
    /// count.
    fn pending_lookups(&self, r: &BitMatrix) -> Vec<(usize, usize, usize)> {
        let ports = self.params.ports;
        let voqs = &self.voqs;
        let recorded = &self.lookup_recorded;
        let scan = |range: std::ops::Range<usize>, out: &mut Vec<(usize, usize, usize)>| {
            for u in range {
                for v in voqs.nonempty_dests(u) {
                    let head = voqs.front(u, v).expect("non-empty");
                    if !recorded[head] && r.get(u, v) {
                        out.push((head, u, v));
                    }
                }
            }
        };
        if self.pool.threads() <= 1 || ports < crate::voq::PAR_MIN_PORTS {
            let mut out = Vec::new();
            scan(0..ports, &mut out);
            return out;
        }
        type LookupShard = (std::ops::Range<usize>, Vec<(usize, usize, usize)>);
        let mut shards: Vec<LookupShard> = split_ranges(ports, self.pool.threads() * 4)
            .into_iter()
            .map(|rg| (rg, Vec::new()))
            .collect();
        self.pool
            .scatter_mut(&mut shards, |_, (rg, out)| scan(rg.clone(), out));
        shards.into_iter().flat_map(|(_, v)| v).collect()
    }

    /// One 80 ns SL pass on the next dynamic register.
    fn do_pass(&mut self, t: u64) {
        let mut r = self.request_matrix(t);
        if let Some(f) = &self.faults {
            // Grant-drop backoff: the NIC holds its request line down
            // until the retry timer expires.
            for (u, v) in r.iter_ones().collect::<Vec<_>>() {
                if f.request_suppressed(u, v, t) {
                    r.set(u, v, false);
                }
            }
        }
        // Classify each newly visible head message as a working-set hit or
        // miss: the hit rate is the §5 metric, and misses feed the §3.3
        // phase detector when one is attached.
        let lookups = self.pending_lookups(&r);
        let Backend::Scheduled {
            scheduler,
            predictor,
            ..
        } = &mut self.backend
        else {
            return;
        };
        let mut flush = false;
        for &(head, u, v) in &lookups {
            self.lookup_recorded[head] = true;
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
            self.spans.msg_advance(
                &mut self.tracer,
                t,
                self.cur_slot,
                head as u32,
                SpanPhase::Admit,
            );
            if hit {
                self.spans.msg_advance(
                    &mut self.tracer,
                    t,
                    self.cur_slot,
                    head as u32,
                    SpanPhase::Align,
                );
            }
        }
        if flush {
            if let Some(rt) = self.router.as_deref_mut() {
                // Return every scheduled connection's stage lines before
                // the registers are wiped (no registers are preloaded in
                // router mode, so every slot is dynamic).
                for s in 0..scheduler.slots() {
                    for (u, v) in scheduler.config(s).iter_ones().collect::<Vec<_>>() {
                        rt.release(s, u, v);
                    }
                }
            }
            let cleared = scheduler.flush_dynamic();
            self.phase_flushes += 1;
            if self.tracer.enabled() {
                self.tracer.emit(
                    t,
                    self.cur_slot,
                    TraceEvent::PhaseFlush {
                        cleared: cleared.len() as u32,
                    },
                );
                for (u, v) in cleared {
                    self.tracer.emit(
                        t,
                        self.cur_slot,
                        TraceEvent::ConnEvicted {
                            src: u as u32,
                            dst: v as u32,
                            cause: EvictCause::PhaseFlush,
                        },
                    );
                }
            }
        }
        // Route markers only for genuinely multi-stage fabrics: the
        // one-stage crossbar graph must stay byte-identical to plain
        // dynamic scheduling, trace included.
        let routed = self.router.as_deref().is_some_and(|r| r.stages() > 1);
        let mut router = self.router.as_deref_mut();
        // Grant-blocking faults are a stateless admission mask beside the
        // (§6) fabric router; both are subset-closed.
        let fault_admit = self.faults.as_ref().filter(|f| f.any_grant_blocked());
        let report = scheduler.pass_admitted(&r, router.as_deref_mut(), |cfg| {
            fault_admit.is_none_or(|f| f.admits(cfg))
        });
        // Fault post-processing on the pass outcome: what the NIC/fabric
        // actually observes may differ from what the SL array computed.
        let mut established = report.established.clone();
        let mut released = report.released.clone();
        let mut dropped: Vec<(usize, usize, u32)> = Vec::new(); // (u, v, attempt)
        if let Some(f) = &mut self.faults {
            if let Some(slot) = report.slot {
                // Never-release cells: the cross-point cannot open, so the
                // "release" did not happen — put the connection back and
                // tell no one. If the same pass already handed the row or
                // column to another connection, the rearrangement wins and
                // the release stands.
                released.retain(|&(u, v)| {
                    if f.stuck_release(u, v) {
                        let cfg = scheduler.config(slot);
                        let free = cfg.iter_row_ones(u).next().is_none()
                            && (0..cfg.rows()).all(|rr| !cfg.get(rr, v));
                        // The routed pass already freed the fabric
                        // resources; a stuck release only stands its
                        // ground if the router can claim them again.
                        if free
                            && router
                                .as_deref_mut()
                                .is_none_or(|rt| rt.try_admit(slot, u, v))
                        {
                            scheduler.restore(slot, u, v);
                            return false;
                        }
                    }
                    true
                });
                // Dropped grant lines: the switch committed the connection
                // but the NIC never learned; revoke it and back the request
                // off. The latch is cleared so the retry goes through the
                // (suppressed) request line, honoring the backoff.
                established.retain(|&(u, v)| {
                    if f.grant_drop(u, v) {
                        let (attempt, _) = f.grant_dropped(u, v, t);
                        scheduler.revoke(slot, u, v);
                        scheduler.clear_latch(u, v);
                        if let Some(rt) = router.as_deref_mut() {
                            rt.release(slot, u, v);
                        }
                        dropped.push((u, v, attempt));
                        false
                    } else {
                        true
                    }
                });
            }
        }
        let pass_slot = report.slot.map_or(self.cur_slot, |s| s as u32);
        for &(u, v, attempt) in &dropped {
            self.msg_retries += 1;
            if self.tracer.enabled() {
                let msg = self.voqs.front(u, v).map_or(u32::MAX, |m| m as u32);
                self.tracer.emit(
                    t,
                    pass_slot,
                    TraceEvent::MsgRetried {
                        src: u as u32,
                        dst: v as u32,
                        msg,
                        attempt,
                    },
                );
            }
        }
        if self.tracer.enabled() {
            self.tracer.emit(
                t,
                pass_slot,
                TraceEvent::SchedPass {
                    passes: scheduler.stats().passes,
                    ripple_depth: report.ripple_depth as u32,
                    established: established.len() as u32,
                    released: released.len() as u32,
                    denied: (report.denied.len() + report.admission_denied.len()) as u32,
                },
            );
            for &(u, v) in &established {
                self.tracer.emit(
                    t,
                    pass_slot,
                    TraceEvent::ConnEstablished {
                        src: u as u32,
                        dst: v as u32,
                        slot_idx: pass_slot,
                    },
                );
                self.spans
                    .conn_start(&mut self.tracer, t, pass_slot, u as u32, v as u32);
                // The SL admission ends the head message's `admit` phase;
                // on a multistage fabric the establishment carries the
                // route-admit marker as a child of that phase.
                if let Some(m) = self.voqs.front(u, v) {
                    self.spans.msg_advance(
                        &mut self.tracer,
                        t,
                        pass_slot,
                        m as u32,
                        SpanPhase::Admit,
                    );
                    if routed {
                        self.spans
                            .route_admitted(&mut self.tracer, t, pass_slot, m as u32);
                    }
                    self.spans.msg_advance(
                        &mut self.tracer,
                        t,
                        pass_slot,
                        m as u32,
                        SpanPhase::Align,
                    );
                }
            }
            if predictor.is_none() {
                // Drop policy: a release *is* the eviction.
                for &(u, v) in &released {
                    self.tracer.emit(
                        t,
                        pass_slot,
                        TraceEvent::ConnEvicted {
                            src: u as u32,
                            dst: v as u32,
                            cause: EvictCause::Drop,
                        },
                    );
                    self.spans
                        .conn_end(&mut self.tracer, t, pass_slot, u as u32, v as u32);
                }
            }
        }
        if let Some(pred) = predictor {
            for &(u, v) in &established {
                pred.on_establish(u, v, t);
            }
            for &(u, v) in &released {
                pred.on_release(u, v);
            }
            let cause = pred.eviction_cause();
            for (u, v) in pred.take_evictions(t) {
                scheduler.clear_latch(u, v);
                self.evictions += 1;
                if self.tracer.enabled() {
                    self.tracer.emit(
                        t,
                        self.cur_slot,
                        TraceEvent::ConnEvicted {
                            src: u as u32,
                            dst: v as u32,
                            cause,
                        },
                    );
                    self.spans
                        .conn_end(&mut self.tracer, t, self.cur_slot, u as u32, v as u32);
                }
            }
        }
    }

    /// Requests visible to the scheduler at time `t` (one request-wire
    /// propagation after the head message entered its queue).
    fn request_matrix(&self, t: u64) -> BitMatrix {
        self.voqs
            .visible_requests_pooled(&self.msgs, self.params.request_wire_ns, t, &self.pool)
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

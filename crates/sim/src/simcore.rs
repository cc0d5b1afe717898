//! The plumbing every paradigm simulator shares.
//!
//! A simulator is a [`Sim`]: one [`SimCore`] plus the paradigm's own
//! switch model, a [`Switch`]. The core owns the message table and the
//! program engine, the NIC's completion path (deliver, retry, abandon),
//! fault replay, trace and span emission, and the SL-pass fault
//! post-processing the scheduled switches share. The switch owns its
//! fabric state and its event loop. `with_faults`, `with_tracer`, `run`
//! and `run_traced` exist once, here, for every paradigm.

use crate::engine::{Effect, Engine};
use crate::faultrt::{FaultRt, NicOutcome};
use crate::message::MsgState;
use crate::params::SimParams;
use crate::stats::SimStats;
use crate::voq::Voqs;
use pms_bitmat::BitMatrix;
use pms_faults::{FaultKind, FaultPlan, Transition};
use pms_sched::{PassReport, Scheduler, SlotRouter};
use pms_trace::{span::SpanTracker, EvictCause, TraceEvent, Tracer};
use pms_workloads::Workload;
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A paradigm simulator: the shared simulation core (engine, NIC, faults,
/// tracing) driving the switch model `S`. Build one through the paradigm
/// aliases
/// ([`WormholeSim`](crate::WormholeSim), [`CircuitSim`](crate::CircuitSim),
/// [`TdmSim`](crate::TdmSim),
/// [`MultihopWormholeSim`](crate::MultihopWormholeSim)).
pub struct Sim<S> {
    pub(crate) core: SimCore,
    pub(crate) switch: S,
}

/// The paradigm-specific half of a [`Sim`]: the switch's own state and
/// its event loop.
pub trait Switch {
    /// Runs the simulation to completion over `core`. Returns the time
    /// the run ended and the slot its closing records are stamped with.
    fn run(&mut self, core: &mut SimCore) -> (u64, u32);

    /// The paradigm label stamped on the statistics.
    fn label(&self) -> String;

    /// Copies the switch's own counters into the statistics.
    fn fill_stats(&self, stats: &mut SimStats);
}

impl<S: Switch> Sim<S> {
    /// Attaches a deterministic fault plan (see `pms_faults`). An empty
    /// plan is a strict no-op: the simulator takes exactly the unfaulted
    /// code path and produces byte-identical statistics and traces.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.core.faults = FaultRt::new(self.core.params.ports, plan, self.core.msgs.len());
        self
    }

    /// Attaches an event tracer; see [`pms_trace::Tracer`] for the sinks.
    /// Retrieve it (with the collected records) via
    /// [`run_traced`](Self::run_traced).
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.core.tracer = tracer;
        self
    }

    /// Runs to completion and returns the statistics.
    pub fn run(self) -> SimStats {
        self.run_traced().0
    }

    /// Like [`run`](Self::run) but also returns the tracer and the
    /// records it collected. Spans still open are closed, the snapshot
    /// pipeline is sealed, and JSONL output is flushed before returning.
    pub fn run_traced(mut self) -> (SimStats, Tracer) {
        let ended = self.switch.run(&mut self.core);
        self.finish(ended)
    }

    /// Collects the statistics and seals the tracer of a run that ended
    /// at `end`, with closing records stamped `slot`.
    pub(crate) fn finish(self, (end, slot): (u64, u32)) -> (SimStats, Tracer) {
        let core = self.core;
        let mut stats =
            SimStats::from_messages(self.switch.label(), core.workload_name, &core.msgs);
        stats.msg_retries = core.msg_retries;
        stats.msgs_abandoned = core.msgs_abandoned;
        self.switch.fill_stats(&mut stats);
        let (mut spans, mut tracer) = (core.spans, core.tracer);
        spans.finish(&mut tracer, end, slot);
        tracer.seal(end, slot);
        let _ = tracer.finish();
        (stats, tracer)
    }
}

/// Message, engine, NIC, fault and trace state shared by every paradigm.
pub struct SimCore {
    pub(crate) params: SimParams,
    workload_name: String,
    pub(crate) msgs: Vec<MsgState>,
    pub(crate) engine: Engine,
    /// Instants with an engine wake-up queued by
    /// [`queue_engine_wake`](Self::queue_engine_wake) that has not fired.
    engine_wakes: Vec<u64>,
    /// Injected messages not yet delivered or abandoned.
    pub(crate) undelivered: usize,
    /// Optional fault-injection runtime; `None` (also for an empty plan)
    /// takes exactly the unfaulted code path.
    pub(crate) faults: Option<FaultRt>,
    msg_retries: u64,
    msgs_abandoned: u64,
    /// Event sink; [`Tracer::Null`] (the default) makes every emit site a
    /// single predicted branch.
    pub(crate) tracer: Tracer,
    /// Causal span emitter (inert while the tracer is disabled).
    pub(crate) spans: SpanTracker,
}

impl SimCore {
    /// Builds the message table and the program engine for `workload`.
    ///
    /// # Panics
    /// Panics if the workload and the parameters disagree on the port
    /// count.
    pub(crate) fn new(workload: &Workload, params: &SimParams) -> Self {
        assert_eq!(
            workload.ports, params.ports,
            "workload/params port mismatch"
        );
        let table = workload.message_table();
        let engine = Engine::new(workload, &table, params.nic_cycle_ns);
        Self {
            params: params.clone(),
            workload_name: workload.name.clone(),
            msgs: table.iter().map(|m| MsgState::new(*m)).collect(),
            engine,
            engine_wakes: Vec::new(),
            undelivered: 0,
            faults: None,
            msg_retries: 0,
            msgs_abandoned: 0,
            tracer: Tracer::Null,
            spans: SpanTracker::new(),
        }
    }

    /// Every program has finished and every injected message is
    /// delivered or abandoned.
    pub(crate) fn done(&self) -> bool {
        self.engine.all_done() && self.undelivered == 0
    }

    /// The deadlock guard: no run may pass `max_sim_ns`.
    pub(crate) fn check_horizon(&self, t: u64, paradigm: &str) {
        assert!(
            t <= self.params.max_sim_ns,
            "{paradigm} simulation exceeded {} ns (deadlock?)",
            self.params.max_sim_ns
        );
    }

    /// Runs every processor forward to `now` and returns the timestamped
    /// effects, in time order.
    pub(crate) fn poll_engine(&mut self, now: u64) -> Vec<(u64, Effect)> {
        let drained = self.undelivered == 0;
        self.engine.poll(now, drained)
    }

    /// Queues `wake` on `events` for the engine's next wake-up after
    /// `now`, unless a wake for that instant is already pending. The
    /// event-driven switches poll the engine on every delivery, so most
    /// polls find their next wake-up already queued. Only the exact
    /// instant is deduplicated: a wake a barrier release pulls earlier
    /// is queued beside the later one, which then fires as a no-op poll.
    /// So the first wake queued for any instant keeps its place among
    /// the events due at that instant.
    pub(crate) fn queue_engine_wake<E: Ord>(
        &mut self,
        events: &mut EventQueue<E>,
        now: u64,
        wake: E,
    ) {
        if let Some(w) = self.engine.next_wake().filter(|&w| w > now) {
            if !self.engine_wakes.contains(&w) {
                self.engine_wakes.push(w);
                events.push(w, wake);
            }
        }
    }

    /// The engine wake-up queued for `t` fired.
    pub(crate) fn engine_woke(&mut self, t: u64) {
        self.engine_wakes.retain(|&w| w != t);
    }

    /// The next fault boundary, if any.
    pub(crate) fn next_fault(&self) -> Option<u64> {
        self.faults.as_ref().and_then(FaultRt::next_change)
    }

    /// How far an idle network may fast-forward: the next engine wake-up,
    /// pulled in to the next fault boundary. `None` when no processor
    /// will wake on its own.
    pub(crate) fn idle_horizon(&self) -> Option<u64> {
        let wake = self.engine.next_wake()?;
        Some(self.next_fault().map_or(wake, |c| wake.min(c)))
    }

    /// Message `id` entered its NIC at `t`. `new_request` tells whether
    /// this raised a request line: a VOQ switch requests once per queue
    /// that goes non-empty, a buffered switch once per message.
    pub(crate) fn inject(&mut self, id: usize, t: u64, slot: u32, new_request: bool) {
        let spec = self.msgs[id].spec;
        self.msgs[id].enqueued_at = Some(t);
        self.undelivered += 1;
        if !self.tracer.enabled() {
            return;
        }
        let (src, dst) = (spec.src as u32, spec.dst as u32);
        self.tracer.emit(
            t,
            slot,
            TraceEvent::MsgInjected {
                src,
                dst,
                bytes: spec.bytes,
                msg: id as u32,
            },
        );
        if new_request {
            self.tracer
                .emit(t, slot, TraceEvent::ConnRequested { src, dst });
        }
        self.spans
            .msg_start(&mut self.tracer, t, slot, id as u32, src, dst);
    }

    /// The earliest time message `msg` may transmit: its injection, or
    /// the end of its retransmission backoff.
    pub(crate) fn ready_at(&self, msg: usize) -> u64 {
        let enq = self.msgs[msg].enqueued_at.expect("queued => enqueued");
        self.faults
            .as_ref()
            .map_or(enq, |f| enq.max(f.msg_ready_at(msg)))
    }

    /// May `u -> v` carry data right now? Dead links carry none.
    pub(crate) fn link_ok(&self, u: usize, v: usize) -> bool {
        self.faults.as_ref().is_none_or(|f| f.link_ok(u, v))
    }

    /// The NIC finished transmitting `msg` from `port` at `done`. A clean
    /// completion delivers it; a corrupted frame counts and traces a
    /// retry, and the message restarts from its first byte once the
    /// backoff expires; an exhausted retry budget abandons it. Deliveries
    /// are not traced here: call [`trace_delivery`](Self::trace_delivery),
    /// which the TDM switch defers until the slot's other records are out.
    pub(crate) fn complete(&mut self, msg: usize, port: usize, done: u64, slot: u32) -> NicOutcome {
        let outcome = self
            .faults
            .as_mut()
            .map_or(NicOutcome::Deliver, |f| f.nic_completion(msg, port, done));
        let spec = self.msgs[msg].spec;
        match outcome {
            NicOutcome::Deliver => {
                self.msgs[msg].remaining = 0;
                self.msgs[msg].delivered_at = Some(done);
                self.undelivered -= 1;
            }
            NicOutcome::Retry { attempt, .. } => {
                self.msgs[msg].remaining = spec.bytes;
                self.retried(done, slot, spec.src, spec.dst, msg as u32, attempt);
            }
            NicOutcome::Abandon { retries } => {
                self.msgs[msg].remaining = 0;
                self.undelivered -= 1;
                self.msgs_abandoned += 1;
                if self.tracer.enabled() {
                    self.tracer.emit(
                        done,
                        slot,
                        TraceEvent::MsgAbandoned {
                            src: spec.src as u32,
                            dst: spec.dst as u32,
                            msg: msg as u32,
                            retries,
                        },
                    );
                    self.spans.msg_end(&mut self.tracer, done, slot, msg as u32);
                }
            }
        }
        outcome
    }

    /// Traces the delivery of `msg` (already delivered by
    /// [`complete`](Self::complete)) and closes its span.
    pub(crate) fn trace_delivery(&mut self, msg: usize, slot: u32) {
        if !self.tracer.enabled() {
            return;
        }
        let m = &self.msgs[msg];
        let done = m.delivered_at.expect("traced after delivery");
        self.tracer.emit(
            done,
            slot,
            TraceEvent::MsgDelivered {
                src: m.spec.src as u32,
                dst: m.spec.dst as u32,
                bytes: m.spec.bytes,
                msg: msg as u32,
                latency_ns: m.latency_ns(),
            },
        );
        self.spans.msg_end(&mut self.tracer, done, slot, msg as u32);
    }

    /// Counts a retry of `msg` on `src -> dst` and traces it.
    pub(crate) fn retried(
        &mut self,
        t: u64,
        slot: u32,
        src: usize,
        dst: usize,
        msg: u32,
        attempt: u32,
    ) {
        self.msg_retries += 1;
        if self.tracer.enabled() {
            self.tracer.emit(
                t,
                slot,
                TraceEvent::MsgRetried {
                    src: src as u32,
                    dst: dst as u32,
                    msg,
                    attempt,
                },
            );
        }
    }

    /// Fault boundaries due by `now`, in time order (none without a plan).
    pub(crate) fn fault_transitions(&mut self, now: u64) -> Vec<Transition> {
        self.faults.as_mut().map_or_else(Vec::new, |f| f.poll(now))
    }

    /// Traces one fault boundary, stamped at its scheduled time, and
    /// restarts the backoff ladder of a grant-drop fault that cleared.
    /// Returns the `(src, dst)` pair the fault names.
    pub(crate) fn fault_boundary(&mut self, tr: &Transition, slot: u32) -> (usize, usize) {
        let (src, dst) = tr.kind.pair();
        if self.tracer.enabled() {
            let (fault, class) = (tr.fault, tr.kind.class());
            let event = if tr.injected {
                TraceEvent::FaultInjected {
                    fault,
                    class,
                    src,
                    dst,
                }
            } else {
                TraceEvent::FaultCleared {
                    fault,
                    class,
                    src,
                    dst,
                }
            };
            self.tracer.emit(tr.t_ns, slot, event);
        }
        let (u, v) = (src as usize, dst as usize);
        if matches!(tr.kind, FaultKind::GrantDrop { .. }) && !tr.injected {
            if let Some(f) = &mut self.faults {
                f.clear_drop_state(u, v);
            }
        }
        (u, v)
    }

    /// The request matrix a scheduler sees at `now`: the request lines
    /// `voqs` raised by its last [`Voqs::raise_due`] (every queue whose
    /// head was injected at least one request-wire propagation ago),
    /// minus the lines the NIC holds down during grant-drop backoff.
    /// Without a fault plan this borrows the VOQs' matrix.
    pub(crate) fn visible_requests<'a>(&self, voqs: &'a Voqs, now: u64) -> Cow<'a, BitMatrix> {
        let mut r = Cow::Borrowed(voqs.requests());
        if let Some(f) = &self.faults {
            let hidden: Vec<(usize, usize)> = r
                .iter_ones()
                .filter(|&(u, v)| f.request_suppressed(u, v, now))
                .collect();
            for (u, v) in hidden {
                r.to_mut().set(u, v, false);
            }
        }
        r
    }

    /// One SL pass at `t`, constrained by the fault mask and the optional
    /// slot router, then corrected for what the NIC actually observes: a
    /// stuck-release cell keeps its connection, and a dropped grant
    /// revokes the establishment and backs the request off (traced as a
    /// retry of the queue's head message). Records are stamped with the
    /// scheduled slot, or `idle_slot` when every register is preloaded.
    pub(crate) fn sl_pass(
        &mut self,
        scheduler: &mut Scheduler,
        requests: &BitMatrix,
        mut router: Option<&mut (dyn SlotRouter + '_)>,
        voqs: &Voqs,
        t: u64,
        idle_slot: u32,
    ) -> PassOutcome {
        // Grant-blocking faults are a stateless admission mask beside the
        // (§6) fabric router; both are subset-closed.
        let fault_admit = self.faults.as_ref().filter(|f| f.any_grant_blocked());
        let report = scheduler.pass_admitted(requests, router.as_deref_mut(), |cfg| {
            fault_admit.is_none_or(|f| f.admits(cfg))
        });
        let mut established = report.established.clone();
        let mut released = report.released.clone();
        let mut dropped: Vec<(usize, usize, u32)> = Vec::new();
        if let (Some(f), Some(slot)) = (&mut self.faults, report.slot) {
            // Never-release cells: the cross-point cannot open, so the
            // "release" did not happen — put the connection back and tell
            // no one. If the same pass already handed the row or column
            // to another connection, the rearrangement wins and the
            // release stands; so it does if the router cannot reclaim the
            // fabric resources the pass already freed.
            released.retain(|&(u, v)| {
                if f.stuck_release(u, v) {
                    let cfg = scheduler.config(slot);
                    let free = cfg.iter_row_ones(u).next().is_none()
                        && (0..cfg.rows()).all(|rr| !cfg.get(rr, v));
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
            // Dropped grant lines: the switch committed the connection but
            // the NIC never learned; revoke it and back the request off.
            // The latch is cleared so the retry goes through the
            // (suppressed) request line, honoring the backoff.
            established.retain(|&(u, v)| {
                if !f.grant_drop(u, v) {
                    return true;
                }
                let (attempt, _) = f.grant_dropped(u, v, t);
                scheduler.revoke(slot, u, v);
                scheduler.clear_latch(u, v);
                if let Some(rt) = router.as_deref_mut() {
                    rt.release(slot, u, v);
                }
                dropped.push((u, v, attempt));
                false
            });
        }
        let slot = report.slot.map_or(idle_slot, |s| s as u32);
        for (u, v, attempt) in dropped {
            let msg = voqs.front(u, v).map_or(u32::MAX, |m| m as u32);
            self.retried(t, slot, u, v, msg, attempt);
        }
        PassOutcome {
            slot,
            report,
            established,
            released,
        }
    }

    /// A grant-blocking fault opened on `(u, v)` at `t`: tears the pair
    /// out of every register holding it, returns its fabric resources,
    /// and traces each eviction. Request latches stay set, so pending
    /// traffic re-establishes once the link heals. Returns the slots the
    /// pair held.
    pub(crate) fn break_pair(
        &mut self,
        scheduler: &mut Scheduler,
        mut router: Option<&mut (dyn SlotRouter + '_)>,
        t: u64,
        u: usize,
        v: usize,
    ) -> Vec<usize> {
        let slots = scheduler.slots_of(u, v);
        for &s in &slots {
            scheduler.revoke(s, u, v);
            if let Some(rt) = router.as_deref_mut() {
                rt.release(s, u, v);
            }
            self.evicted(t, s as u32, u, v, EvictCause::Fault);
        }
        slots
    }

    /// Traces the establishment of `u -> v` in `slot` and opens its
    /// connection span.
    pub(crate) fn established(&mut self, t: u64, slot: u32, u: usize, v: usize) {
        if self.tracer.enabled() {
            self.tracer.emit(
                t,
                slot,
                TraceEvent::ConnEstablished {
                    src: u as u32,
                    dst: v as u32,
                    slot_idx: slot,
                },
            );
            self.spans
                .conn_start(&mut self.tracer, t, slot, u as u32, v as u32);
        }
    }

    /// Traces the eviction of `u -> v` and closes its connection span.
    pub(crate) fn evicted(&mut self, t: u64, slot: u32, u: usize, v: usize, cause: EvictCause) {
        if self.tracer.enabled() {
            self.tracer.emit(
                t,
                slot,
                TraceEvent::ConnEvicted {
                    src: u as u32,
                    dst: v as u32,
                    cause,
                },
            );
            self.spans
                .conn_end(&mut self.tracer, t, slot, u as u32, v as u32);
        }
    }
}

/// What the NIC observes of one SL pass (see [`SimCore::sl_pass`]).
pub(crate) struct PassOutcome {
    /// The slot the pass scheduled, as stamped on its records.
    pub slot: u32,
    /// The scheduler's own report.
    pub report: PassReport,
    /// Establishments that survived grant drops.
    pub established: Vec<(usize, usize)>,
    /// Releases that survived stuck-release cells.
    pub released: Vec<(usize, usize)>,
}

impl PassOutcome {
    /// Whether the pass established, released or denied anything.
    pub fn active(&self) -> bool {
        !(self.established.is_empty() && self.released.is_empty() && self.report.denied == 0)
    }

    /// The `SchedPass` record for this pass; `passes` is the scheduler's
    /// pass counter after it.
    pub fn event(&self, passes: u64) -> TraceEvent {
        TraceEvent::SchedPass {
            passes,
            ripple_depth: self.report.ripple_depth as u32,
            established: self.established.len() as u32,
            released: self.released.len() as u32,
            denied: (self.report.denied + self.report.admission_denied.len()) as u32,
        }
    }
}

/// Time-ordered event queue of the buffered (event-driven) switches;
/// events due at the same instant pop in push order.
pub(crate) struct EventQueue<E> {
    heap: BinaryHeap<Reverse<(u64, u64, E)>>,
    seq: u64,
}

impl<E: Ord> EventQueue<E> {
    pub(crate) fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    pub(crate) fn push(&mut self, t: u64, ev: E) {
        self.seq += 1;
        self.heap.push(Reverse((t, self.seq, ev)));
    }

    pub(crate) fn pop(&mut self) -> Option<(u64, E)> {
        self.heap.pop().map(|Reverse((t, _, ev))| (t, ev))
    }
}

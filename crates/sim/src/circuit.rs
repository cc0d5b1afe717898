//! Pure circuit switching (§5): TDM with a multiplexing degree of one.
//!
//! "For circuit switching ... the delay to schedule a message includes the
//! cable delay of 80 ns to send the request, 80 ns to schedule the
//! request, and another 80 ns to send the grant back to the NIC. After
//! that, the point-to-point delay is 30+20+20+30 ns."
//!
//! The simulator drives the *actual* hardware scheduler model
//! ([`pms_sched::Scheduler`]) with `K = 1`: one SL pass per 80 ns, requests
//! visible 80 ns after the NIC queue becomes non-empty, grants usable 80 ns
//! after the pass. Established circuits stream at the full 6.4 Gb/s link
//! rate (LVDS fabric: no re-serialization at the switch) and are torn down
//! by the next pass after their request drops — exactly the Table 1
//! release rule.

use crate::engine::{Effect, Engine};
use crate::faultrt::{FaultRt, NicOutcome};
use crate::message::MsgState;
use crate::params::SimParams;
use crate::stats::SimStats;
use crate::voq::Voqs;
use pms_bitmat::BitMatrix;
use pms_faults::{FaultKind, FaultPlan};
use pms_par::ShardPool;
use pms_sched::{Scheduler, SchedulerConfig};
use pms_trace::{span::SpanTracker, EvictCause, SpanPhase, TraceEvent, Tracer};
use pms_workloads::Workload;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The circuit-switching simulator.
pub struct CircuitSim {
    params: SimParams,
    workload_name: String,
    msgs: Vec<MsgState>,
    engine: Engine,
    voqs: Voqs,
    scheduler: Scheduler,
    /// Time from which each established circuit may carry data
    /// (pass time + grant propagation).
    usable_from: HashMap<(usize, usize), u64>,
    /// Circuits whose message completed: the NIC drops the request and the
    /// circuit must be torn down (and re-requested) before the next message
    /// flows — pure per-message circuit switching (§5).
    pending_release: HashSet<(usize, usize)>,
    undelivered: usize,
    /// Optional fault-injection runtime; `None` (also for an empty plan)
    /// takes exactly the unfaulted code path.
    faults: Option<FaultRt>,
    msg_retries: u64,
    msgs_abandoned: u64,
    /// Event sink; circuit switching has no TDM slots, so records are
    /// stamped `slot = 0`.
    tracer: Tracer,
    spans: SpanTracker,
    /// Worker lanes shared by the engine, scheduler, and request scans;
    /// a single lane runs the exact sequential path.
    pool: Arc<ShardPool>,
}

impl CircuitSim {
    /// Builds the simulator for a workload.
    pub fn new(workload: &Workload, params: &SimParams) -> Self {
        let table = workload.message_table();
        let msgs: Vec<MsgState> = table.iter().map(|m| MsgState::new(*m)).collect();
        let pool = Arc::new(ShardPool::new(params.threads));
        let mut engine = Engine::new(workload, &table, params.nic_cycle_ns);
        engine.set_pool(Arc::clone(&pool));
        let mut scheduler = Scheduler::new(SchedulerConfig::new(params.ports, 1));
        scheduler.set_pool(Arc::clone(&pool));
        assert_eq!(
            workload.ports, params.ports,
            "workload/params port mismatch"
        );
        Self {
            params: params.clone(),
            workload_name: workload.name.clone(),
            msgs,
            engine,
            voqs: Voqs::new(params.ports),
            scheduler,
            usable_from: HashMap::new(),
            pending_release: HashSet::new(),
            undelivered: 0,
            faults: None,
            msg_retries: 0,
            msgs_abandoned: 0,
            tracer: Tracer::Null,
            spans: SpanTracker::new(),
            pool,
        }
    }

    /// Attaches a deterministic fault plan. An empty plan is a strict
    /// no-op: the simulator takes exactly the unfaulted code path and
    /// produces byte-identical statistics and traces.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = FaultRt::new(self.params.ports, plan, self.msgs.len());
        self
    }

    /// Attaches an event tracer; retrieve it via
    /// [`run_traced`](Self::run_traced).
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Runs to completion and returns the statistics.
    pub fn run(self) -> SimStats {
        self.run_traced().0
    }

    /// Like [`run`](Self::run) but also returns the tracer and its
    /// collected records.
    pub fn run_traced(mut self) -> (SimStats, Tracer) {
        let window = self.params.sched_ns;
        let mut t = 0u64;
        loop {
            assert!(
                t <= self.params.max_sim_ns,
                "circuit simulation exceeded {} ns (deadlock?)",
                self.params.max_sim_ns
            );
            self.poll_engine(t);
            self.poll_faults(t);
            if self.engine.all_done() && self.undelivered == 0 {
                break;
            }
            // Idle skip: with every VOQ empty and a quiescent scheduler
            // (no circuit up, nothing to release), each window is a pure
            // clock tick — one SL pass that only bumps the counter and
            // rotates the priority, with no trace record (`active` below
            // is false for an empty pass). Apply those passes in closed
            // form and jump to the window whose entry poll next observes
            // an engine wake-up or fault transition. Idle windows emit no
            // events either way, so traced runs stay byte-identical.
            if self.params.idle_skip && self.undelivered == 0 && self.scheduler.is_idle_quiescent()
            {
                if let Some(w) = self.engine.next_wake() {
                    let mut stop = w;
                    if let Some(c) = self.faults.as_ref().and_then(|f| f.next_change()) {
                        stop = stop.min(c);
                    }
                    if stop > t {
                        let n = (stop - 1 - t) / window + 1;
                        self.scheduler.skip_quiescent_passes(n);
                        t += n * window;
                        continue;
                    }
                }
            }
            // Data flows on circuits established before this window.
            self.transfer_window(t, t + window);
            // One SL pass at the end of the window; newly established
            // circuits become usable one grant-propagation later.
            let visible = self.request_matrix(t + window);
            let report = {
                let fault_admit = self.faults.as_ref().filter(|f| f.any_grant_blocked());
                match fault_admit {
                    Some(f) => self
                        .scheduler
                        .pass_admitted(&visible, None, |cfg| f.admits(cfg)),
                    None => self.scheduler.pass(&visible),
                }
            };
            // Fault post-processing: what the NIC observes may differ
            // from what the SL array computed.
            let mut established = report.established.clone();
            let mut released = report.released.clone();
            let mut dropped: Vec<(usize, usize, u32)> = Vec::new();
            if let Some(f) = &mut self.faults {
                if let Some(slot) = report.slot {
                    // Never-release cells: the circuit stays closed until
                    // the fault clears (unless the pass re-used the ports).
                    released.retain(|&(u, v)| {
                        if f.stuck_release(u, v) {
                            let cfg = self.scheduler.config(slot);
                            let free = cfg.iter_row_ones(u).next().is_none()
                                && (0..cfg.rows()).all(|rr| !cfg.get(rr, v));
                            if free {
                                self.scheduler.restore(slot, u, v);
                                return false;
                            }
                        }
                        true
                    });
                    // Dropped grant lines: the NIC never learns of the
                    // circuit; revoke it and back the request off.
                    established.retain(|&(u, v)| {
                        if f.grant_drop(u, v) {
                            let (attempt, _) = f.grant_dropped(u, v, t + window);
                            self.scheduler.revoke(slot, u, v);
                            self.scheduler.clear_latch(u, v);
                            dropped.push((u, v, attempt));
                            false
                        } else {
                            true
                        }
                    });
                }
            }
            for &(u, v, attempt) in &dropped {
                self.msg_retries += 1;
                if self.tracer.enabled() {
                    let msg = self.voqs.front(u, v).map_or(u32::MAX, |m| m as u32);
                    self.tracer.emit(
                        t + window,
                        0,
                        TraceEvent::MsgRetried {
                            src: u as u32,
                            dst: v as u32,
                            msg,
                            attempt,
                        },
                    );
                }
            }
            // Circuit switching passes every window; only non-trivial
            // passes are worth a record.
            let active =
                !(established.is_empty() && released.is_empty() && report.denied.is_empty());
            if self.tracer.enabled() && active {
                self.tracer.emit(
                    t + window,
                    0,
                    TraceEvent::SchedPass {
                        passes: self.scheduler.stats().passes,
                        ripple_depth: report.ripple_depth as u32,
                        established: established.len() as u32,
                        released: released.len() as u32,
                        denied: (report.denied.len() + report.admission_denied.len()) as u32,
                    },
                );
            }
            for &(u, v) in &established {
                self.usable_from
                    .insert((u, v), t + window + self.params.request_wire_ns);
                if self.tracer.enabled() {
                    self.tracer.emit(
                        t + window,
                        0,
                        TraceEvent::ConnEstablished {
                            src: u as u32,
                            dst: v as u32,
                            slot_idx: 0,
                        },
                    );
                    self.spans
                        .conn_start(&mut self.tracer, t + window, 0, u as u32, v as u32);
                    // Establishment ends the head message's `arrival`;
                    // `align` then covers grant propagation until the
                    // first byte streams in `transfer_window`.
                    if let Some(head) = self.voqs.front(u, v) {
                        self.spans.msg_advance(
                            &mut self.tracer,
                            t + window,
                            0,
                            head as u32,
                            SpanPhase::Admit,
                        );
                        self.spans.msg_advance(
                            &mut self.tracer,
                            t + window,
                            0,
                            head as u32,
                            SpanPhase::Align,
                        );
                    }
                }
            }
            for &(u, v) in &released {
                self.usable_from.remove(&(u, v));
                self.pending_release.remove(&(u, v));
                if self.tracer.enabled() {
                    self.tracer.emit(
                        t + window,
                        0,
                        TraceEvent::ConnEvicted {
                            src: u as u32,
                            dst: v as u32,
                            cause: EvictCause::Drop,
                        },
                    );
                    self.spans
                        .conn_end(&mut self.tracer, t + window, 0, u as u32, v as u32);
                }
            }
            t += window;
        }
        let mut stats = SimStats::from_messages("circuit", self.workload_name, &self.msgs);
        stats.sched_passes = self.scheduler.stats().passes;
        stats.connections_established = self.scheduler.stats().establishes;
        stats.msg_retries = self.msg_retries;
        stats.msgs_abandoned = self.msgs_abandoned;
        let mut spans = std::mem::take(&mut self.spans);
        let mut tracer = self.tracer;
        spans.finish(&mut tracer, t, 0);
        tracer.seal(t, 0);
        let _ = tracer.finish();
        (stats, tracer)
    }

    /// Replays fault boundaries up to `t`: trace events plus teardown of
    /// circuits over links that just died. The NIC's request stays up, so
    /// a torn circuit re-establishes once the link heals.
    fn poll_faults(&mut self, t: u64) {
        let transitions = match &mut self.faults {
            Some(f) => f.poll(t),
            None => return,
        };
        for tr in transitions {
            FaultRt::trace_transition(&mut self.tracer, 0, &tr);
            let (u32u, u32v) = tr.kind.pair();
            let (u, v) = (u32u as usize, u32v as usize);
            match tr.kind {
                FaultKind::LinkDown { .. } | FaultKind::StuckGrant { .. } if tr.injected => {
                    for s in self.scheduler.slots_of(u, v) {
                        self.scheduler.revoke(s, u, v);
                        if self.tracer.enabled() {
                            self.tracer.emit(
                                tr.t_ns,
                                0,
                                TraceEvent::ConnEvicted {
                                    src: u as u32,
                                    dst: v as u32,
                                    cause: EvictCause::Fault,
                                },
                            );
                        }
                    }
                    self.spans
                        .conn_end(&mut self.tracer, tr.t_ns, 0, u as u32, v as u32);
                    self.usable_from.remove(&(u, v));
                    self.pending_release.remove(&(u, v));
                }
                FaultKind::GrantDrop { .. } if !tr.injected => {
                    if let Some(f) = &mut self.faults {
                        f.clear_drop_state(u, v);
                    }
                }
                // Stuck-release and NIC faults act in the pass/transfer
                // paths.
                _ => {}
            }
        }
    }

    fn poll_engine(&mut self, now: u64) {
        let drained = self.undelivered == 0;
        for (te, fx) in self.engine.poll(now, drained) {
            match fx {
                Effect::Inject(id) => {
                    let spec = self.msgs[id].spec;
                    self.msgs[id].enqueued_at = Some(te);
                    let new_request = self.voqs.push(spec.src, spec.dst, id);
                    self.undelivered += 1;
                    if self.tracer.enabled() {
                        self.tracer.emit(
                            te,
                            0,
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
                                0,
                                TraceEvent::ConnRequested {
                                    src: spec.src as u32,
                                    dst: spec.dst as u32,
                                },
                            );
                        }
                        self.spans.msg_start(
                            &mut self.tracer,
                            te,
                            0,
                            id as u32,
                            spec.src as u32,
                            spec.dst as u32,
                        );
                    }
                }
                // Circuit switching has no multi-slot state to manage.
                Effect::Flush | Effect::Preload(_) => {}
            }
        }
    }

    /// The request matrix as the scheduler sees it at time `now`: the
    /// shared visibility rule, minus circuits awaiting their per-message
    /// teardown (the handshake restarts after the release).
    fn request_matrix(&self, now: u64) -> BitMatrix {
        let mut r = self.voqs.visible_requests_pooled(
            &self.msgs,
            self.params.request_wire_ns,
            now,
            &self.pool,
        );
        for &(u, v) in &self.pending_release {
            r.set(u, v, false);
        }
        if let Some(f) = &self.faults {
            // Grant-drop backoff: the NIC holds its request line down
            // until the retry timer expires.
            for (u, v) in r.iter_ones().collect::<Vec<_>>() {
                if f.request_suppressed(u, v, now) {
                    r.set(u, v, false);
                }
            }
        }
        r
    }

    /// Streams data over every usable circuit during `[from, to)`.
    fn transfer_window(&mut self, from: u64, to: u64) {
        let rate = self.params.link.bytes_per_ns();
        let path = self.params.link.path_latency_lvds_ns();
        let pairs: Vec<(usize, usize)> = self.scheduler.b_star().iter_ones().collect();
        for (u, v) in pairs {
            if self.pending_release.contains(&(u, v)) {
                continue; // circuit is logically torn down
            }
            if self.faults.as_ref().is_some_and(|f| !f.link_ok(u, v)) {
                continue; // dead link carries no data
            }
            let start = match self.usable_from.get(&(u, v)) {
                Some(&s) if s < to => s.max(from),
                _ => continue,
            };
            let mut cursor = start;
            if let Some(head) = self.voqs.front(u, v) {
                let enq = self.msgs[head].enqueued_at.expect("queued => enqueued");
                let ready = self
                    .faults
                    .as_ref()
                    .map_or(enq, |f| enq.max(f.msg_ready_at(head)));
                if ready > cursor {
                    continue; // head not yet in the NIC (or backing off)
                }
                let remaining = self.msgs[head].remaining;
                let budget_bytes = ((to - cursor) as f64 * rate).floor() as u32;
                if budget_bytes == 0 {
                    continue;
                }
                self.spans.msg_advance(
                    &mut self.tracer,
                    cursor,
                    0,
                    head as u32,
                    SpanPhase::Transfer,
                );
                if remaining <= budget_bytes {
                    let dur = (remaining as f64 / rate).ceil() as u64;
                    cursor += dur;
                    let done = cursor + path;
                    let outcome = self
                        .faults
                        .as_mut()
                        .map_or(NicOutcome::Deliver, |f| f.nic_completion(head, u, done));
                    let spec = self.msgs[head].spec;
                    match outcome {
                        NicOutcome::Deliver => {
                            self.msgs[head].remaining = 0;
                            self.msgs[head].delivered_at = Some(done);
                            self.voqs.pop(u, v);
                            self.undelivered -= 1;
                            if self.tracer.enabled() {
                                self.tracer.emit(
                                    done,
                                    0,
                                    TraceEvent::MsgDelivered {
                                        src: spec.src as u32,
                                        dst: spec.dst as u32,
                                        bytes: spec.bytes,
                                        msg: head as u32,
                                        latency_ns: self.msgs[head].latency_ns(),
                                    },
                                );
                                self.spans.msg_end(&mut self.tracer, done, 0, head as u32);
                            }
                            // Per-message circuit switching: the NIC drops
                            // the request; the circuit is torn down by the
                            // next pass.
                            self.pending_release.insert((u, v));
                        }
                        NicOutcome::Retry { attempt, .. } => {
                            // Corrupted frame: the request stays up, the
                            // circuit stays closed, and the whole message
                            // retransmits after backoff.
                            self.msgs[head].remaining = spec.bytes;
                            self.msg_retries += 1;
                            if self.tracer.enabled() {
                                self.tracer.emit(
                                    done,
                                    0,
                                    TraceEvent::MsgRetried {
                                        src: spec.src as u32,
                                        dst: spec.dst as u32,
                                        msg: head as u32,
                                        attempt,
                                    },
                                );
                            }
                        }
                        NicOutcome::Abandon { retries } => {
                            self.msgs[head].remaining = 0;
                            self.voqs.pop(u, v);
                            self.undelivered -= 1;
                            self.msgs_abandoned += 1;
                            if self.tracer.enabled() {
                                self.tracer.emit(
                                    done,
                                    0,
                                    TraceEvent::MsgAbandoned {
                                        src: spec.src as u32,
                                        dst: spec.dst as u32,
                                        msg: head as u32,
                                        retries,
                                    },
                                );
                                self.spans.msg_end(&mut self.tracer, done, 0, head as u32);
                            }
                            self.pending_release.insert((u, v));
                        }
                    }
                } else {
                    self.msgs[head].remaining = remaining - budget_bytes;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pms_workloads::{scatter, Program, Workload};

    fn single_send(ports: usize, dst: usize, bytes: u32) -> Workload {
        let mut programs = vec![Program::new(); ports];
        programs[0].send(dst, bytes);
        Workload::new("single", ports, programs)
    }

    #[test]
    fn single_message_pays_full_setup() {
        // Enqueue at 0; request visible at 80; pass at 80 establishes;
        // usable at 160; 64 bytes stream in 80 ns; path latency 100.
        // Delivered at 160 + 80 + 100 = 340.
        let w = single_send(4, 1, 64);
        let stats = CircuitSim::new(&w, &SimParams::default().with_ports(4)).run();
        assert_eq!(stats.delivered_messages, 1);
        assert_eq!(stats.makespan_ns, 340);
        assert_eq!(stats.connections_established, 1);
    }

    #[test]
    fn queued_messages_pay_per_message_handshake() {
        // Two messages to the same destination: pure circuit switching
        // tears the circuit down after each message, so the second pays a
        // fresh request/schedule/grant handshake.
        let mut programs = vec![Program::new(); 4];
        programs[0].send(1, 64).send(1, 64);
        let w = Workload::new("per-message", 4, programs);
        let stats = CircuitSim::new(&w, &SimParams::default().with_ports(4)).run();
        assert_eq!(stats.delivered_messages, 2);
        assert_eq!(stats.connections_established, 2, "one circuit per message");
        // msg1: established @80, usable 160, drains [160,240], done 340.
        // Teardown pass @240; re-request passes @320 establish; usable 400;
        // drains [400,480]; done 580.
        assert_eq!(stats.makespan_ns, 580);
    }

    #[test]
    fn conflicting_destinations_serialize() {
        // Input 0 and input 1 both talk to output 2: degree-1 circuit
        // switching must tear one down before the other proceeds.
        let mut programs = vec![Program::new(); 4];
        programs[0].send(2, 640);
        programs[1].send(2, 640);
        let w = Workload::new("conflict", 4, programs);
        let stats = CircuitSim::new(&w, &SimParams::default().with_ports(4)).run();
        assert_eq!(stats.delivered_messages, 2);
        assert_eq!(stats.connections_established, 2);
        // Each message streams 800 ns; they cannot overlap.
        assert!(stats.makespan_ns >= 160 + 800 + 800);
    }

    #[test]
    fn large_messages_amortize_setup() {
        let small =
            CircuitSim::new(&single_send(4, 1, 64), &SimParams::default().with_ports(4)).run();
        let large = CircuitSim::new(
            &single_send(4, 1, 2048),
            &SimParams::default().with_ports(4),
        )
        .run();
        assert!(
            large.efficiency(0.8) > small.efficiency(0.8) * 3.0,
            "setup cost must dominate small messages: {} vs {}",
            large.efficiency(0.8),
            small.efficiency(0.8)
        );
    }

    #[test]
    fn scatter_completes_and_conserves_bytes() {
        let w = scatter(8, 256);
        let stats = CircuitSim::new(&w, &SimParams::default().with_ports(8)).run();
        assert_eq!(stats.delivered_messages, 7);
        assert_eq!(stats.delivered_bytes, w.total_bytes());
        assert_eq!(stats.active_senders, 1);
    }

    #[test]
    fn sequential_destinations_reestablish() {
        // One sender, two destinations: the circuit to dst 1 must be torn
        // down (request drops once its queue drains) before/while the
        // circuit to dst 2 is established — two establishments total.
        let mut programs = vec![Program::new(); 4];
        programs[0].send(1, 64).send(2, 64);
        let w = Workload::new("switchover", 4, programs);
        let stats = CircuitSim::new(&w, &SimParams::default().with_ports(4)).run();
        assert_eq!(stats.delivered_messages, 2);
        assert_eq!(stats.connections_established, 2);
    }
}

//! Input-buffered wormhole routing through a digital crossbar (§5).
//!
//! "For a wormhole message, the delay through the switch includes the time
//! required to schedule the first flit of the message, which is 80 ns. All
//! subsequent flits in the same worm are routed in 10 ns. ... worm sizes
//! are limited and in our simulation we set this limit to 128 bytes. The
//! flit size is 8 bytes. ... if a message is broken up into two worms, the
//! cable delay is only seen once as the second worm is buffered within the
//! crossbar switch."
//!
//! Model: each message is cut into worms of at most 128 bytes. Worms from
//! one source traverse the input link in FIFO order (head-of-line
//! semantics of an input-buffered switch), land in a two-worm staging
//! buffer at the crossbar input (double buffering: the next worm uploads
//! while the current one drains), then compete for their output port. A
//! granted worm occupies the output for the 80 ns scheduling of its head
//! flit plus 10 ns per flit. Blocked worms wait in FIFO arrival order.

use crate::engine::Effect;
use crate::faultrt::NicOutcome;
use crate::params::SimParams;
use crate::simcore::{EventQueue, Sim, SimCore, Switch};
use crate::stats::SimStats;
use pms_faults::FaultKind;
use pms_trace::{EvictCause, SpanPhase};
use pms_workloads::Workload;
use std::collections::VecDeque;

/// Input-queue organization of the wormhole switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WormholeQueueing {
    /// One FIFO per input: worms depart in injection order, so a blocked
    /// head worm stalls everything behind it (head-of-line blocking) —
    /// the classical input-queued switch and this simulator's default.
    #[default]
    SingleFifo,
    /// Virtual output queues: one FIFO per (input, destination); the
    /// upload stage picks, round-robin, a queue whose output port is
    /// currently free, bypassing blocked heads. An ablation showing what
    /// wormhole gains from VOQs (per-destination order is preserved).
    Voq,
}

#[derive(Debug, Clone, Copy)]
struct Worm {
    msg: usize,
    bytes: u32,
    last: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// Re-poll the program engine.
    EngineWake,
    /// A worm finished uploading into input `u`'s staging buffer.
    UploadDone(usize),
    /// The worm draining from input `u` through output `v` finished.
    DrainDone(usize, usize),
    /// A fault boundary is due: poll the fault replay.
    FaultWake,
    /// Grant-drop backoff on input `u` expired: retry the grant.
    GrantRetry(usize),
    /// A NIC-corrupted message retransmits: re-cut it into worms.
    Reinject(usize),
}

/// The wormhole-routing simulator.
pub type WormholeSim = Sim<Wormhole>;

/// The input-buffered wormhole crossbar behind [`WormholeSim`]. It has no
/// TDM slots, so its records are stamped `slot = 0`. Under a fault plan a
/// worm already granted drains to completion; faults take effect at the
/// next grant decision.
pub struct Wormhole {
    events: EventQueue<Ev>,
    queueing: WormholeQueueing,
    /// Per input, per destination: worms awaiting upload. `SingleFifo`
    /// uses index 0 only.
    queues: Vec<Vec<VecDeque<Worm>>>,
    /// Per input: round-robin cursor over destination queues (VOQ mode).
    rr: Vec<usize>,
    /// Per input: is the input link currently uploading a worm?
    uploading: Vec<Option<Worm>>,
    /// Per input: staged worms at the switch (capacity 2).
    staged: Vec<VecDeque<Worm>>,
    /// Per input: the worm currently draining through the crossbar, if any
    /// (removed from `staged` at grant time).
    draining: Vec<Option<Worm>>,
    /// Per input: is this input parked in some output's wait queue?
    waiting: Vec<bool>,
    /// Per output: inputs waiting for the port, FIFO.
    out_waiters: Vec<VecDeque<usize>>,
    /// Per output: busy until this time.
    out_busy: Vec<u64>,
    grants: u64,
    /// Per output: the input whose path is held open by a stuck-release
    /// fault (the worm drained but the cross-point cannot open).
    held: Vec<Option<usize>>,
    /// The fault boundary a `FaultWake` event is already scheduled for.
    fault_wake_at: Option<u64>,
    /// The instants of the `EngineWake` events handled, when logging.
    #[cfg(test)]
    wake_log: Option<Vec<u64>>,
}

impl WormholeSim {
    /// Builds the simulator for a workload with single-FIFO inputs (the
    /// paper's baseline).
    pub fn new(workload: &Workload, params: &SimParams) -> Self {
        Self::with_queueing(workload, params, WormholeQueueing::SingleFifo)
    }

    /// Builds the simulator with an explicit input-queue organization.
    pub fn with_queueing(
        workload: &Workload,
        params: &SimParams,
        queueing: WormholeQueueing,
    ) -> Self {
        let core = SimCore::new(workload, params);
        let n = params.ports;
        let lanes = match queueing {
            WormholeQueueing::SingleFifo => 1,
            WormholeQueueing::Voq => n,
        };
        let switch = Wormhole {
            events: EventQueue::new(),
            queueing,
            queues: vec![vec![VecDeque::new(); lanes]; n],
            rr: vec![0; n],
            uploading: vec![None; n],
            staged: vec![VecDeque::new(); n],
            draining: vec![None; n],
            waiting: vec![false; n],
            out_waiters: vec![VecDeque::new(); n],
            out_busy: vec![0; n],
            grants: 0,
            held: vec![None; n],
            fault_wake_at: None,
            #[cfg(test)]
            wake_log: None,
        };
        Sim { core, switch }
    }
}

impl Switch for Wormhole {
    fn run(&mut self, core: &mut SimCore) -> (u64, u32) {
        self.poll_faults(core, 0);
        self.poll_engine(core, 0);
        let mut end_t = 0;
        while let Some((t, ev)) = self.events.pop() {
            end_t = end_t.max(t);
            if core.done() {
                // Only stale wake-ups remain (fault boundaries can extend
                // far past the last delivery).
                break;
            }
            core.check_horizon(t, "wormhole");
            self.poll_faults(core, t);
            match ev {
                Ev::EngineWake => {
                    #[cfg(test)]
                    if let Some(log) = &mut self.wake_log {
                        log.push(t);
                    }
                    core.engine_woke(t);
                    self.poll_engine(core, t);
                }
                Ev::UploadDone(u) => self.upload_done(core, u, t),
                Ev::DrainDone(u, v) => self.drain_done(core, u, v, t),
                // Handled by the poll_faults above.
                Ev::FaultWake => {}
                Ev::GrantRetry(u) => self.try_grant(core, u, t),
                Ev::Reinject(msg) => self.queue_worms(core, msg, t),
            }
        }
        assert!(
            core.done(),
            "wormhole simulation stalled with {} undelivered messages",
            core.undelivered
        );
        // A path a stuck release still holds closes at the last span
        // event, not at the stale wake-up that ended the loop.
        core.spans.finish(&mut core.tracer, 0, 0);
        (end_t, 0)
    }

    fn label(&self) -> String {
        "wormhole".into()
    }

    fn fill_stats(&self, stats: &mut SimStats) {
        stats.sched_passes = self.grants;
    }
}

impl Wormhole {
    fn poll_engine(&mut self, core: &mut SimCore, now: u64) {
        core.poll_engine(now, |core, t, fx| {
            // A wormhole network has no connection state to flush or
            // preload; those commands are no-ops here.
            if let Effect::Inject(id) = fx {
                core.inject(id, t, 0, true);
                self.queue_worms(core, id, t);
            }
        });
        core.queue_engine_wake(&mut self.events, now, Ev::EngineWake);
    }

    /// Cuts message `id` into worms of at most `worm_max_bytes` (a
    /// zero-byte message is one empty worm) and queues them at its source.
    fn queue_worms(&mut self, core: &SimCore, id: usize, t: u64) {
        let spec = core.msgs[id].spec;
        let max = core.params.worm_max_bytes;
        let lane = match self.queueing {
            WormholeQueueing::SingleFifo => 0,
            WormholeQueueing::Voq => spec.dst,
        };
        for start in (0..spec.bytes.max(1)).step_by(max as usize) {
            let left = spec.bytes - start;
            self.queues[spec.src][lane].push_back(Worm {
                msg: id,
                bytes: left.min(max),
                last: left <= max,
            });
        }
        self.try_upload(core, spec.src, t);
    }

    /// Replays fault boundaries up to `now`: releasing stuck outputs and
    /// re-kicking every input after a clear (a fault-blocked input has
    /// nothing else to wake it).
    fn poll_faults(&mut self, core: &mut SimCore, now: u64) {
        let mut kick = false;
        for tr in core.fault_transitions(now) {
            let (u, v) = core.fault_boundary(&tr, 0);
            if tr.injected {
                continue;
            }
            match tr.kind {
                FaultKind::LinkDown { .. }
                | FaultKind::StuckGrant { .. }
                | FaultKind::GrantDrop { .. } => kick = true,
                FaultKind::StuckRelease { .. } => {
                    let still_stuck = core.faults.as_ref().is_some_and(|f| f.stuck_release(u, v));
                    if self.held[v] == Some(u) && !still_stuck {
                        self.held[v] = None;
                        self.out_busy[v] = now;
                        core.evicted(tr.t_ns, 0, u, v, EvictCause::Fault);
                        kick = true;
                    }
                }
                _ => {}
            }
        }
        if kick {
            for u in 0..core.params.ports {
                self.try_grant(core, u, now);
                self.try_upload(core, u, now);
            }
        }
        self.schedule_fault_wake(core);
    }

    /// Keeps one `FaultWake` event pending for the next fault boundary so
    /// the event loop cannot sleep through it.
    fn schedule_fault_wake(&mut self, core: &SimCore) {
        let Some(c) = core.next_fault() else {
            return;
        };
        if self.fault_wake_at != Some(c) {
            self.fault_wake_at = Some(c);
            self.events.push(c, Ev::FaultWake);
        }
    }

    /// Starts uploading the next worm if the link is idle and the staging
    /// buffer has room (double buffering: one draining + one waiting).
    fn try_upload(&mut self, core: &SimCore, u: usize, now: u64) {
        if self.uploading[u].is_some() || self.staged[u].len() >= 2 {
            return;
        }
        let Some(worm) = self.next_worm(u, now) else {
            return;
        };
        let dur = core.params.worm_stream_ns(worm.bytes);
        self.uploading[u] = Some(worm);
        self.events.push(now + dur, Ev::UploadDone(u));
    }

    /// Picks the next worm to upload from input `u`'s queues.
    fn next_worm(&mut self, u: usize, now: u64) -> Option<Worm> {
        match self.queueing {
            WormholeQueueing::SingleFifo => self.queues[u][0].pop_front(),
            WormholeQueueing::Voq => {
                let lanes = self.queues[u].len();
                // Prefer, round-robin, a non-empty queue whose output is
                // currently free; otherwise take the first non-empty one.
                let mut fallback = None;
                for step in 0..lanes {
                    let v = (self.rr[u] + step) % lanes;
                    if self.queues[u][v].is_empty() {
                        continue;
                    }
                    if self.out_busy[v] <= now {
                        self.rr[u] = (v + 1) % lanes;
                        return self.queues[u][v].pop_front();
                    }
                    fallback.get_or_insert(v);
                }
                let v = fallback?;
                self.rr[u] = (v + 1) % lanes;
                self.queues[u][v].pop_front()
            }
        }
    }

    fn upload_done(&mut self, core: &mut SimCore, u: usize, now: u64) {
        let worm = self.uploading[u].take().expect("upload must be in flight");
        self.staged[u].push_back(worm);
        self.try_grant(core, u, now);
        self.try_upload(core, u, now);
    }

    /// Requests the output port for input `u`'s staged head worm.
    fn try_grant(&mut self, core: &mut SimCore, u: usize, now: u64) {
        if self.draining[u].is_some() || self.staged[u].is_empty() {
            return;
        }
        // SingleFifo grants strictly in staging order; Voq may bypass a
        // blocked head with any staged worm whose output is free
        // (per-destination order is preserved: same-destination worms
        // travel the same queue).
        let candidates = match self.queueing {
            WormholeQueueing::SingleFifo => 1,
            WormholeQueueing::Voq => self.staged[u].len(),
        };
        let pick = (0..candidates).find(|&i| {
            let v = core.msgs[self.staged[u][i].msg].spec.dst;
            self.out_busy[v] <= now
                && core.faults.as_ref().is_none_or(|f| {
                    // Dead links cannot be granted; grant-drop backoff
                    // keeps the request line down until the timer expires.
                    f.link_ok(u, v) && !f.request_suppressed(u, v, now)
                })
        });
        let Some(i) = pick else {
            // Everything eligible is blocked: park behind the head's output
            // (at most one registration at a time). Fault-blocked inputs
            // are re-kicked by `poll_faults` when the fault clears.
            if !self.waiting[u] {
                let v = core.msgs[self.staged[u][0].msg].spec.dst;
                self.waiting[u] = true;
                self.out_waiters[v].push_back(u);
            }
            return;
        };
        let worm = self.staged[u][i];
        let v = core.msgs[worm.msg].spec.dst;
        if let Some(f) = core.faults.as_mut().filter(|f| f.grant_drop(u, v)) {
            // The switch would commit the connection but the grant line
            // eats the notification: the worm stays staged and the NIC
            // retries after exponential backoff.
            let (attempt, resume_at) = f.grant_dropped(u, v, now);
            core.retried(now, 0, u, v, worm.msg as u32, attempt);
            self.events.push(resume_at, Ev::GrantRetry(u));
            return;
        }
        self.staged[u].remove(i);
        // Grant: 80 ns to schedule the head flit, then one flit per 10 ns.
        self.grants += 1;
        self.draining[u] = Some(worm);
        core.established(now, 0, u, v);
        // The grant ends `arrival`; `admit` is the 80 ns head-flit
        // schedule; no slot alignment exists, so `align` is zero-length
        // and `transfer` starts as the worm begins to drain. Later worms
        // of the same message no-op (monotone advance).
        let msg = worm.msg as u32;
        let drain = now + core.params.sched_ns;
        let (spans, tracer) = (&mut core.spans, &mut core.tracer);
        spans.msg_advance(tracer, now, 0, msg, SpanPhase::Admit);
        spans.msg_advance(tracer, drain, 0, msg, SpanPhase::Align);
        spans.msg_advance(tracer, drain, 0, msg, SpanPhase::Transfer);
        let end = drain + core.params.worm_stream_ns(worm.bytes);
        self.out_busy[v] = end;
        self.events.push(end, Ev::DrainDone(u, v));
    }

    fn drain_done(&mut self, core: &mut SimCore, u: usize, v: usize, now: u64) {
        let worm = self.draining[u].take().expect("a worm was draining");
        // A never-release SL cell keeps the cross-point closed: the output
        // stays occupied (and its eviction untraced) until the fault
        // clears in `poll_faults`.
        let stuck = core.faults.as_ref().is_some_and(|f| f.stuck_release(u, v));
        if stuck {
            self.held[v] = Some(u);
            self.out_busy[v] = u64::MAX;
        } else {
            // The crossbar path is held only for the worm's drain.
            core.evicted(now, 0, u, v, EvictCause::Drop);
        }
        if worm.last {
            // Tail latency: second wire hop + deserialization + NIC receive.
            let tail =
                core.params.link.wire_ns + core.params.link.s2p_ns + core.params.nic_cycle_ns;
            match core.complete(worm.msg, u, now + tail, 0) {
                NicOutcome::Deliver => core.trace_delivery(worm.msg, 0),
                // Corrupted serialization: the whole message goes again
                // after backoff.
                NicOutcome::Retry { resume_at, .. } => {
                    self.events.push(resume_at, Ev::Reinject(worm.msg))
                }
                NicOutcome::Abandon { .. } => {}
            }
        }
        if !stuck {
            // Wake everyone waiting for this output: with VOQ bypass a
            // woken input may grant a different output, so waking only one
            // waiter could strand the port. Blocked inputs re-register.
            let waiters: Vec<usize> = self.out_waiters[v].drain(..).collect();
            for w in waiters {
                self.waiting[w] = false;
                self.try_grant(core, w, now);
            }
        }
        self.try_grant(core, u, now);
        self.try_upload(core, u, now);
        // Deliveries may release a barrier.
        self.poll_engine(core, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pms_workloads::{ordered_mesh, scatter, two_phase, MeshSpec, Program, Workload};

    fn small_params(ports: usize) -> SimParams {
        SimParams::default().with_ports(ports)
    }

    fn single_send(ports: usize, dst: usize, bytes: u32) -> Workload {
        let mut programs = vec![Program::new(); ports];
        programs[0].send(dst, bytes);
        Workload::new("single", ports, programs)
    }

    #[test]
    fn single_small_message_timing() {
        // One 64-byte message: upload 80 ns, schedule 80 ns, drain 80 ns,
        // tail 20+30+10. Delivered at 80 + 160 + 60 = 300.
        let w = single_send(4, 1, 64);
        let stats = WormholeSim::new(&w, &small_params(4)).run();
        assert_eq!(stats.delivered_messages, 1);
        assert_eq!(stats.delivered_bytes, 64);
        assert_eq!(stats.makespan_ns, 80 + 80 + 80 + 60);
    }

    #[test]
    fn message_larger_than_worm_is_fragmented() {
        // 256 bytes = two 128-byte worms. Upload1 160; drain1 160..400;
        // upload2 160..320 overlaps; drain2 400..640; tail 60 -> 700.
        let w = single_send(4, 1, 256);
        let stats = WormholeSim::new(&w, &small_params(4)).run();
        assert_eq!(stats.delivered_messages, 1);
        assert_eq!(stats.makespan_ns, 700);
    }

    #[test]
    fn output_contention_serializes() {
        // Two inputs send 128B to the same output: the second worm waits
        // for the first to drain.
        let mut programs = vec![Program::new(); 4];
        programs[0].send(2, 128);
        programs[1].send(2, 128);
        let w = Workload::new("conflict", 4, programs);
        let stats = WormholeSim::new(&w, &small_params(4)).run();
        assert_eq!(stats.delivered_messages, 2);
        // Serial drains: worm1 drains 160..400, worm2 400..640 (+60 tail).
        assert_eq!(stats.makespan_ns, 700);
    }

    #[test]
    fn distinct_outputs_proceed_in_parallel() {
        let mut programs = vec![Program::new(); 4];
        programs[0].send(2, 128);
        programs[1].send(3, 128);
        let w = Workload::new("parallel", 4, programs);
        let stats = WormholeSim::new(&w, &small_params(4)).run();
        // Both drain concurrently; same finish as a single message.
        assert_eq!(stats.makespan_ns, 160 + 240 + 60);
    }

    #[test]
    fn scatter_delivers_everything() {
        let w = scatter(16, 64);
        let stats = WormholeSim::new(&w, &small_params(16)).run();
        assert_eq!(stats.delivered_messages, 15);
        assert_eq!(stats.delivered_bytes, 15 * 64);
        assert_eq!(stats.active_senders, 1);
        let eff = stats.efficiency(0.8);
        assert!(eff > 0.2 && eff < 0.7, "scatter efficiency {eff}");
    }

    #[test]
    fn ordered_mesh_is_conflict_light() {
        let w = ordered_mesh(MeshSpec { rows: 4, cols: 4 }, 64, 2, 0, 0);
        let stats = WormholeSim::new(&w, &small_params(16)).run();
        assert_eq!(stats.delivered_messages, 16 * 4 * 2);
        let eff = stats.efficiency(0.8);
        // 64B message: ~160 ns service for 80 ns of payload -> ~40 %.
        assert!(eff > 0.25 && eff < 0.55, "ordered mesh efficiency {eff}");
    }

    #[test]
    fn barrier_workload_completes() {
        let mut programs = vec![Program::new(); 4];
        programs[0].send(1, 128);
        for p in programs.iter_mut() {
            p.barrier();
        }
        programs[2].send(3, 128);
        let w = Workload::new("barrier", 4, programs);
        let stats = WormholeSim::new(&w, &small_params(4)).run();
        assert_eq!(stats.delivered_messages, 2);
        // Second message strictly after the first (barrier drained).
        assert!(stats.makespan_ns > 700);
    }

    #[test]
    fn voq_mode_bypasses_head_of_line_blocking() {
        // Input 0 queues: [to 2 (blocked by input 1), to 3 (free)].
        // SingleFifo: the message to 3 waits behind the blocked head.
        // Voq: it overtakes.
        let mk = || {
            let mut programs = vec![Program::new(); 4];
            programs[1].send(2, 128); // occupies output 2 first
            programs[0].delay(5); // ensure input 1 wins output 2
            programs[0].send(2, 128); // blocked behind input 1
            programs[0].send(3, 128); // HOL victim
            Workload::new("hol", 4, programs)
        };
        let fifo =
            WormholeSim::with_queueing(&mk(), &small_params(4), WormholeQueueing::SingleFifo).run();
        let voq = WormholeSim::with_queueing(&mk(), &small_params(4), WormholeQueueing::Voq).run();
        assert_eq!(fifo.delivered_messages, 3);
        assert_eq!(voq.delivered_messages, 3);
        assert!(
            voq.makespan_ns < fifo.makespan_ns,
            "VOQ {} must beat FIFO {}",
            voq.makespan_ns,
            fifo.makespan_ns
        );
    }

    #[test]
    fn voq_preserves_per_destination_order() {
        let mut programs = vec![Program::new(); 4];
        programs[0].send(1, 64).send(1, 64).send(1, 64);
        let w = Workload::new("order", 4, programs);
        let stats = WormholeSim::with_queueing(&w, &small_params(4), WormholeQueueing::Voq).run();
        assert_eq!(stats.delivered_messages, 3);
        assert_eq!(stats.delivered_bytes, 192);
    }

    #[test]
    fn voq_mode_helps_loaded_random_traffic() {
        // Under sustained random load, HOL blocking costs the single-FIFO
        // switch real throughput (VOQ wins by ~8-10% here; being a greedy
        // heuristic it can occasionally lose a little on light loads).
        let w = pms_workloads::uniform(32, 128, 40, 1);
        let fifo =
            WormholeSim::with_queueing(&w, &small_params(32), WormholeQueueing::SingleFifo).run();
        let voq = WormholeSim::with_queueing(&w, &small_params(32), WormholeQueueing::Voq).run();
        assert_eq!(fifo.delivered_bytes, voq.delivered_bytes);
        assert!(
            voq.makespan_ns < fifo.makespan_ns,
            "VOQ {} must beat FIFO {} under load",
            voq.makespan_ns,
            fifo.makespan_ns
        );
    }

    #[test]
    fn conservation_of_bytes() {
        let w = ordered_mesh(MeshSpec { rows: 2, cols: 4 }, 24, 3, 0, 0);
        let stats = WormholeSim::new(&w, &small_params(8)).run();
        assert_eq!(stats.delivered_bytes, w.total_bytes());
        assert_eq!(stats.delivered_messages as usize, w.message_count());
    }

    #[test]
    fn engine_wakes_are_not_duplicated() {
        // Every worm drain polls the engine; the barrier-separated phases
        // of Two Phase make those polls land between wake-ups.
        let w = two_phase(MeshSpec::for_ports(16), 8, 16, 500, 100, 11);
        let params = small_params(16);
        let mut sim = WormholeSim::new(&w, &params);
        sim.switch.wake_log = Some(Vec::new());
        let ended = sim.switch.run(&mut sim.core);
        let wakes = sim.switch.wake_log.take().expect("logging");
        let (stats, _) = sim.finish(ended);
        let mut instants = wakes.clone();
        instants.sort_unstable();
        instants.dedup();
        assert!(instants.len() > 40, "{} wake instants", instants.len());
        assert!(
            wakes.len() <= instants.len(),
            "{} EngineWake events handled for {} distinct instants",
            wakes.len(),
            instants.len()
        );
        assert_eq!(stats, WormholeSim::new(&w, &params).run());
    }
}

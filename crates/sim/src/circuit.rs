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

use crate::engine::Effect;
use crate::faultrt::NicOutcome;
use crate::params::SimParams;
use crate::simcore::{Sim, SimCore, Switch};
use crate::stats::SimStats;
use crate::voq::Voqs;
use pms_bitmat::BitMatrix;
use pms_faults::FaultKind;
use pms_sched::{Scheduler, SchedulerConfig};
use pms_trace::{EvictCause, SpanPhase};
use pms_workloads::Workload;

/// The circuit-switching simulator.
pub type CircuitSim = Sim<Circuit>;

/// The degree-1 scheduled crossbar behind [`CircuitSim`]. Circuit
/// switching has no TDM slots, so its records are stamped `slot = 0`.
///
/// With one register `B*` is a partial permutation: each input holds at
/// most one circuit, so the circuit state is kept per input port.
pub struct Circuit {
    voqs: Voqs,
    scheduler: Scheduler,
    /// Per input `u`, its established circuit `(v, t)`: output `v`, and
    /// the time `t` from which it may carry data (pass time + grant
    /// propagation). Exactly the pairs of `B*`.
    usable_from: Vec<Option<(usize, u64)>>,
    /// Circuits whose message completed: the NIC drops the request and the
    /// circuit must be torn down (and re-requested) before the next message
    /// flows — pure per-message circuit switching (§5).
    pending_release: BitMatrix,
}

impl CircuitSim {
    /// Builds the simulator for a workload.
    pub fn new(workload: &Workload, params: &SimParams) -> Self {
        let core = SimCore::new(workload, params);
        let switch = Circuit {
            voqs: Voqs::new(params.ports, core.msgs.len())
                .with_request_lines(params.request_wire_ns),
            scheduler: Scheduler::new(SchedulerConfig::new(params.ports, 1)),
            usable_from: vec![None; params.ports],
            pending_release: BitMatrix::square(params.ports),
        };
        Sim { core, switch }
    }
}

impl Switch for Circuit {
    fn run(&mut self, core: &mut SimCore) -> (u64, u32) {
        let window = core.params.sched_ns;
        let mut t = 0u64;
        loop {
            core.check_horizon(t, "circuit");
            self.poll_engine(core, t);
            self.poll_faults(core, t);
            if core.done() {
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
            if core.params.idle_skip && core.undelivered == 0 && self.scheduler.is_idle_quiescent()
            {
                if let Some(stop) = core.idle_horizon().filter(|&stop| stop > t) {
                    let n = (stop - 1 - t) / window + 1;
                    self.scheduler.skip_quiescent_passes(n);
                    t += n * window;
                    continue;
                }
            }
            // Data flows on circuits established before this window.
            self.transfer_window(core, t, t + window);
            self.pass(core, t + window);
            t += window;
        }
        (t, 0)
    }

    fn label(&self) -> String {
        "circuit".into()
    }

    fn fill_stats(&self, stats: &mut SimStats) {
        stats.sched_passes = self.scheduler.stats().passes;
        stats.connections_established = self.scheduler.stats().establishes;
    }
}

impl Circuit {
    /// One SL pass at the end of a window; newly established circuits
    /// become usable one grant-propagation later.
    fn pass(&mut self, core: &mut SimCore, at: u64) {
        // Circuits awaiting their per-message teardown drop their
        // request: the handshake restarts after the release.
        self.voqs.raise_due(&core.msgs, at);
        let mut visible = core.visible_requests(&self.voqs, at);
        for (u, v) in self.pending_release.iter_ones() {
            visible.to_mut().set(u, v, false);
        }
        let pass = core.sl_pass(&mut self.scheduler, &visible, None, &self.voqs, at, 0);
        // Circuit switching passes every window; only non-trivial passes
        // are worth a record.
        if core.tracer.enabled() && pass.active() {
            let record = pass.event(self.scheduler.stats().passes);
            core.tracer.emit(at, 0, record);
        }
        for &(u, v) in &pass.established {
            self.usable_from[u] = Some((v, at + core.params.request_wire_ns));
            core.established(at, 0, u, v);
            // Establishment ends the head message's `arrival`; `align`
            // then covers grant propagation until the first byte streams
            // in `transfer_window`.
            if let Some(head) = self.voqs.front(u, v) {
                let (spans, tracer) = (&mut core.spans, &mut core.tracer);
                spans.msg_advance(tracer, at, 0, head as u32, SpanPhase::Admit);
                spans.msg_advance(tracer, at, 0, head as u32, SpanPhase::Align);
            }
        }
        for &(u, v) in &pass.released {
            self.tear_down(u, v);
            core.evicted(at, 0, u, v, EvictCause::Drop);
        }
    }

    /// Forgets the circuit `u -> v`, if it is the one input `u` holds. A
    /// pass may release `u -> v` and establish `u -> w`; the new circuit
    /// stays.
    fn tear_down(&mut self, u: usize, v: usize) {
        if self.usable_from[u].is_some_and(|(w, _)| w == v) {
            self.usable_from[u] = None;
        }
        self.pending_release.set(u, v, false);
    }

    /// Replays fault boundaries up to `t`: teardown of circuits over
    /// links that just died. The NIC's request stays up, so a torn
    /// circuit re-establishes once the link heals. Stuck-release and NIC
    /// faults act in the pass/transfer paths.
    fn poll_faults(&mut self, core: &mut SimCore, t: u64) {
        for tr in core.fault_transitions(t) {
            let (u, v) = core.fault_boundary(&tr, 0);
            if tr.injected
                && matches!(
                    tr.kind,
                    FaultKind::LinkDown { .. } | FaultKind::StuckGrant { .. }
                )
            {
                core.break_pair(&mut self.scheduler, None, tr.t_ns, u, v);
                self.tear_down(u, v);
            }
        }
    }

    fn poll_engine(&mut self, core: &mut SimCore, now: u64) {
        core.poll_engine(now, |core, te, fx| {
            // Circuit switching has no multi-slot state to flush or
            // preload.
            if let Effect::Inject(id) = fx {
                let spec = core.msgs[id].spec;
                let new_request = self.voqs.push(spec.src, spec.dst, id);
                core.inject(id, te, 0, new_request);
            }
        });
    }

    /// Streams data over every usable circuit during `[from, to)`.
    fn transfer_window(&mut self, core: &mut SimCore, from: u64, to: u64) {
        let rate = core.params.link.bytes_per_ns();
        let path = core.params.link.path_latency_lvds_ns();
        // Inputs in ascending order: the row-major order of `B*`.
        for u in 0..self.usable_from.len() {
            let Some((v, usable)) = self.usable_from[u] else {
                continue;
            };
            debug_assert!(self.scheduler.established(u, v), "({u},{v}) not in B*");
            if self.pending_release.get(u, v) {
                continue; // circuit is logically torn down
            }
            if !core.link_ok(u, v) {
                continue; // dead link carries no data
            }
            if usable >= to {
                continue;
            }
            let start = usable.max(from);
            let Some(head) = self.voqs.front(u, v) else {
                continue;
            };
            if core.ready_at(head) > start {
                continue; // head not yet in the NIC (or backing off)
            }
            let remaining = core.msgs[head].remaining;
            let budget_bytes = ((to - start) as f64 * rate).floor() as u32;
            if budget_bytes == 0 {
                continue;
            }
            core.spans
                .msg_advance(&mut core.tracer, start, 0, head as u32, SpanPhase::Transfer);
            if remaining > budget_bytes {
                core.msgs[head].remaining = remaining - budget_bytes;
                continue;
            }
            let done = start + (remaining as f64 / rate).ceil() as u64 + path;
            match core.complete(head, u, done, 0) {
                NicOutcome::Deliver => {
                    self.voqs.pop(u, v);
                    core.trace_delivery(head, 0);
                    // Per-message circuit switching: the NIC drops the
                    // request; the circuit is torn down by the next pass.
                    self.pending_release.set(u, v, true);
                }
                // Corrupted frame: the request stays up, the circuit stays
                // closed, and the whole message retransmits after backoff.
                NicOutcome::Retry { .. } => {}
                NicOutcome::Abandon { .. } => {
                    self.voqs.pop(u, v);
                    self.pending_release.set(u, v, true);
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

//! Multi-hop buffered wormhole routing over a torus of switches (§6).
//!
//! The paper's conclusion argues that predictive multiplexed switching
//! pays off *more* in multi-hop networks, "since it avoids buffering at
//! intermediate switches". This simulator provides the buffered baseline
//! for that comparison: worms travel hop by hop along the torus's
//! dimension-order route, each hop re-arbitrating for its outgoing link
//! (one scheduler decision per hop per worm head) and re-buffering the
//! worm. The TDM counterpart is [`TdmSim`](crate::TdmSim) with a
//! `pms_multistage::TorusRouter` claiming each [`TorusNetwork`] route's
//! links: end-to-end pipes with no intermediate state.
//!
//! Model: whole-worm store-and-forward at each switch (worms are capped at
//! 128 B precisely so they fit switch buffers, §5). A worm holds its
//! incoming buffer until the next link accepts it; each directed link
//! serves one worm at a time in FIFO request order.
//!
//! [`TorusNetwork`]: pms_multistage::TorusNetwork

use crate::engine::Effect;
use crate::params::SimParams;
use crate::simcore::{EventQueue, Sim, SimCore, Switch};
use crate::stats::SimStats;
use pms_multistage::TorusNetwork;
use pms_trace::SpanPhase;
use pms_workloads::Workload;
use std::collections::VecDeque;

/// A worm in flight.
#[derive(Debug, Clone, Copy)]
struct Worm {
    msg: usize,
    bytes: u32,
    last: bool,
    /// Next hop index into the route (0 = first inter-switch link).
    hop: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    EngineWake,
    /// A worm finished traversing link `usize` (its id) and is buffered at
    /// the next switch.
    LinkDone(usize),
    /// Source injection service for input `usize` completed one worm.
    SourceDone(usize),
    /// The switch-to-host delivery link of host `usize` finished a worm.
    DestDone(usize),
}

/// Multi-hop wormhole simulator over a [`TorusNetwork`].
pub type MultihopWormholeSim = Sim<MultihopWormhole>;

/// The buffered torus of switches behind [`MultihopWormholeSim`]. It has
/// no TDM slots, so its records are stamped `slot = 0`, and it models no
/// faults: running it with a fault plan attached panics.
pub struct MultihopWormhole {
    /// Precomputed route (link ids) per message.
    routes: Vec<Vec<usize>>,
    events: EventQueue<Ev>,
    /// Per source host: worms awaiting first transmission (FIFO).
    source_fifo: Vec<VecDeque<Worm>>,
    source_busy: Vec<bool>,
    /// Per directed link: worms waiting to traverse it (FIFO).
    link_queue: Vec<VecDeque<Worm>>,
    link_busy: Vec<bool>,
    /// Per destination host: worms waiting on the switch-to-host link.
    dest_queue: Vec<VecDeque<Worm>>,
    dest_busy: Vec<bool>,
    hops_traversed: u64,
}

impl MultihopWormholeSim {
    /// Builds the simulator.
    ///
    /// # Panics
    /// Panics if the workload's port count does not match the torus or
    /// the parameters.
    pub fn new(workload: &Workload, params: &SimParams, torus: TorusNetwork) -> Self {
        assert_eq!(
            workload.ports,
            torus.ports(),
            "workload/torus port mismatch"
        );
        let core = SimCore::new(workload, params);
        let routes = core
            .msgs
            .iter()
            .map(|m| torus.route(m.spec.src, m.spec.dst))
            .collect();
        let (links, hosts) = (torus.links(), torus.ports());
        let switch = MultihopWormhole {
            routes,
            events: EventQueue::new(),
            source_fifo: vec![VecDeque::new(); hosts],
            source_busy: vec![false; hosts],
            link_queue: vec![VecDeque::new(); links],
            link_busy: vec![false; links],
            dest_queue: vec![VecDeque::new(); hosts],
            dest_busy: vec![false; hosts],
            hops_traversed: 0,
        };
        Sim { core, switch }
    }
}

impl Switch for MultihopWormhole {
    fn run(&mut self, core: &mut SimCore) -> (u64, u32) {
        assert!(
            core.faults.is_none(),
            "the multi-hop wormhole simulator models no faults"
        );
        self.poll_engine(core, 0);
        let mut end_t = 0;
        while let Some((t, ev)) = self.events.pop() {
            end_t = end_t.max(t);
            core.check_horizon(t, "multihop");
            match ev {
                Ev::EngineWake => {
                    core.engine_woke(t);
                    self.poll_engine(core, t);
                }
                Ev::SourceDone(h) => self.source_done(core, h, t),
                Ev::LinkDone(l) => self.link_done(core, l, t),
                Ev::DestDone(h) => self.dest_done(core, h, t),
            }
        }
        assert!(
            core.done(),
            "multihop simulation stalled with {} undelivered",
            core.undelivered
        );
        (end_t, 0)
    }

    fn label(&self) -> String {
        "multihop-wormhole".into()
    }

    fn fill_stats(&self, stats: &mut SimStats) {
        stats.sched_passes = self.hops_traversed;
    }
}

impl MultihopWormhole {
    fn poll_engine(&mut self, core: &mut SimCore, now: u64) {
        core.poll_engine(now, |core, t, fx| {
            if let Effect::Inject(id) = fx {
                core.inject(id, t, 0, true);
                self.queue_worms(core, id, t);
            }
        });
        core.queue_engine_wake(&mut self.events, now, Ev::EngineWake);
    }

    /// Cuts message `id` into worms at its source host; a zero-byte
    /// message is one empty worm.
    fn queue_worms(&mut self, core: &SimCore, id: usize, t: u64) {
        let (spec, max) = (core.msgs[id].spec, core.params.worm_max_bytes);
        for start in (0..spec.bytes.max(1)).step_by(max as usize) {
            let left = spec.bytes - start;
            self.source_fifo[spec.src].push_back(Worm {
                msg: id,
                bytes: left.min(max),
                last: left <= max,
                hop: 0,
            });
        }
        self.try_source(core, spec.src, t);
    }

    /// Serves the source host's injection link.
    fn try_source(&mut self, core: &SimCore, h: usize, now: u64) {
        if self.source_busy[h] || self.source_fifo[h].is_empty() {
            return;
        }
        self.source_busy[h] = true;
        let worm = self.source_fifo[h].front().copied().expect("non-empty");
        // Host-to-switch serialization + wire.
        let dur = core.params.worm_stream_ns(worm.bytes) + core.params.link.wire_ns;
        self.events.push(now + dur, Ev::SourceDone(h));
    }

    fn source_done(&mut self, core: &mut SimCore, h: usize, now: u64) {
        self.source_busy[h] = false;
        let worm = self.source_fifo[h].pop_front().expect("a worm was sending");
        // The head worm reaching the first switch buffer ends `arrival`;
        // `admit` then covers the wait for per-hop link arbitration.
        core.spans
            .msg_advance(&mut core.tracer, now, 0, worm.msg as u32, SpanPhase::Admit);
        self.forward(core, worm, now);
        self.try_source(core, h, now);
    }

    /// Routes a worm onward from its current switch buffer.
    fn forward(&mut self, core: &mut SimCore, worm: Worm, now: u64) {
        let route = &self.routes[worm.msg];
        if worm.hop >= route.len() {
            self.deliver(core, worm, now);
            return;
        }
        let link = route[worm.hop];
        self.link_queue[link].push_back(worm);
        self.try_link(core, link, now);
    }

    /// Starts the next worm on a link if it is idle.
    fn try_link(&mut self, core: &mut SimCore, link: usize, now: u64) {
        if self.link_busy[link] || self.link_queue[link].is_empty() {
            return;
        }
        self.link_busy[link] = true;
        let worm = self.link_queue[link].front().copied().expect("non-empty");
        // First link grant: no slot alignment exists in a buffered fabric,
        // so `align` is zero-length and `transfer` runs to delivery.
        let (spans, tracer) = (&mut core.spans, &mut core.tracer);
        spans.msg_advance(tracer, now, 0, worm.msg as u32, SpanPhase::Align);
        spans.msg_advance(tracer, now, 0, worm.msg as u32, SpanPhase::Transfer);
        // Per-hop arbitration (the switch schedules the head flit) + the
        // worm streaming across one inter-switch wire.
        let dur = core.params.sched_ns
            + core.params.worm_stream_ns(worm.bytes)
            + core.params.link.wire_ns;
        self.events.push(now + dur, Ev::LinkDone(link));
    }

    fn link_done(&mut self, core: &mut SimCore, link: usize, now: u64) {
        self.link_busy[link] = false;
        let mut worm = self.link_queue[link]
            .pop_front()
            .expect("a worm was crossing");
        self.hops_traversed += 1;
        worm.hop += 1;
        self.forward(core, worm, now);
        self.try_link(core, link, now);
    }

    /// Queues a worm on its destination's switch-to-host link — the final
    /// shared resource: fan-in from several links serializes here.
    fn deliver(&mut self, core: &mut SimCore, worm: Worm, now: u64) {
        let dst = core.msgs[worm.msg].spec.dst;
        self.dest_queue[dst].push_back(worm);
        self.try_dest(core, dst, now);
    }

    fn try_dest(&mut self, core: &mut SimCore, dst: usize, now: u64) {
        if self.dest_busy[dst] || self.dest_queue[dst].is_empty() {
            return;
        }
        self.dest_busy[dst] = true;
        let worm = self.dest_queue[dst].front().copied().expect("non-empty");
        // Local (hopless) deliveries never cross a link: the delivery link
        // grant is their first data movement.
        core.spans.msg_advance(
            &mut core.tracer,
            now,
            0,
            worm.msg as u32,
            SpanPhase::Transfer,
        );
        // Final switch-to-host wire (the worm streams at line rate).
        let dur = core.params.worm_stream_ns(worm.bytes) + core.params.link.wire_ns;
        self.events.push(now + dur, Ev::DestDone(dst));
    }

    fn dest_done(&mut self, core: &mut SimCore, dst: usize, now: u64) {
        self.dest_busy[dst] = false;
        let worm = self.dest_queue[dst]
            .pop_front()
            .expect("a worm was arriving");
        if worm.last {
            let tail = core.params.link.s2p_ns + core.params.nic_cycle_ns;
            let src = core.msgs[worm.msg].spec.src;
            core.complete(worm.msg, src, now + tail, 0);
            core.trace_delivery(worm.msg, 0);
            self.poll_engine(core, now);
        }
        self.try_dest(core, dst, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pms_workloads::{uniform, Program};

    fn torus() -> TorusNetwork {
        TorusNetwork::new(4, 4, 2) // 32 hosts
    }

    fn params() -> SimParams {
        SimParams::default().with_ports(32)
    }

    fn single(src: usize, dst: usize, bytes: u32) -> Workload {
        let mut programs = vec![Program::new(); 32];
        programs[src].send(dst, bytes);
        Workload::new("single", 32, programs)
    }

    #[test]
    fn local_delivery_pays_no_hop_arbitration() {
        // Hosts 0 -> 1 share switch 0: host-to-switch link, then the
        // switch-to-host delivery link — no inter-switch hops.
        let stats = MultihopWormholeSim::new(&single(0, 1, 64), &params(), torus()).run();
        assert_eq!(stats.delivered_messages, 1);
        // in: 80+20; out: 80+20; tail: 30+10 = 240.
        assert_eq!(stats.makespan_ns, 240);
        assert_eq!(stats.sched_passes, 0, "no inter-switch hops");
    }

    #[test]
    fn each_hop_adds_arbitration_and_wire() {
        let t = torus();
        let dst = 2 * 2; // switch 2, two hops east
        assert_eq!(t.hops(0, dst), 2);
        let stats = MultihopWormholeSim::new(&single(0, dst, 64), &params(), t).run();
        // Source 100 + 2 hops x (80 arb + 80 stream + 20 wire) + delivery
        // link 100 + tail 40 = 600.
        assert_eq!(stats.makespan_ns, 100 + 2 * 180 + 100 + 40);
        assert_eq!(stats.sched_passes, 2);
    }

    #[test]
    fn link_contention_serializes_worms() {
        // Hosts 0 and 1 (same switch) both send 2 hops east: they share
        // both eastbound links.
        let mut programs = vec![Program::new(); 32];
        programs[0].send(4, 128);
        programs[1].send(5, 128);
        let w = Workload::new("contend", 32, programs);
        let stats = MultihopWormholeSim::new(&w, &params(), torus()).run();
        assert_eq!(stats.delivered_messages, 2);
        // The second worm queues behind the first on the first link, but
        // pipelines behind it across the second hop.
        let solo = MultihopWormholeSim::new(&single(0, 4, 128), &params(), torus()).run();
        assert!(stats.makespan_ns > solo.makespan_ns);
    }

    #[test]
    fn fan_in_serializes_on_the_delivery_link() {
        // Hosts on two different switches send to host 0 simultaneously:
        // their worms arrive over different inter-switch links but must
        // share the one switch-to-host link.
        // Host 2 (switch 1, one hop east of switch 0) and host 8 (switch 4,
        // one hop south): equidistant, so their worms reach switch 0 at the
        // same instant over different ingress links.
        let mut programs = vec![Program::new(); 32];
        programs[2].send(0, 128);
        programs[8].send(0, 128);
        let w = Workload::new("fan-in", 32, programs);
        let both = MultihopWormholeSim::new(&w, &params(), torus()).run();
        let solo = MultihopWormholeSim::new(&single(2, 0, 128), &params(), torus()).run();
        // The second arrival waits a full worm-stream behind the first.
        assert!(
            both.makespan_ns >= solo.makespan_ns + 160,
            "delivery link must serialize fan-in: both {} vs solo {}",
            both.makespan_ns,
            solo.makespan_ns
        );
    }

    #[test]
    fn conserves_bytes_on_random_traffic() {
        let w = uniform(32, 200, 6, 13);
        let stats = MultihopWormholeSim::new(&w, &params(), torus()).run();
        assert_eq!(stats.delivered_messages as usize, w.message_count());
        assert_eq!(stats.delivered_bytes, w.total_bytes());
    }

    #[test]
    fn deterministic() {
        let w = uniform(32, 128, 8, 29);
        let a = MultihopWormholeSim::new(&w, &params(), torus()).run();
        let b = MultihopWormholeSim::new(&w, &params(), torus()).run();
        assert_eq!(a, b);
    }

    #[test]
    fn multi_worm_messages_pipeline_across_hops() {
        // 512 B = 4 worms; consecutive worms overlap on successive links,
        // so the makespan is far below 4x a single worm's end-to-end time.
        let t = torus();
        let dst = 2 * 2;
        let one = MultihopWormholeSim::new(&single(0, dst, 128), &params(), t).run();
        let four = MultihopWormholeSim::new(&single(0, dst, 512), &params(), torus()).run();
        assert!(four.makespan_ns < 4 * one.makespan_ns);
        assert_eq!(four.sched_passes, 8, "4 worms x 2 hops");
    }
}

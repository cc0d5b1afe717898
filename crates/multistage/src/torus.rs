//! The §6 multi-hop torus and slot routing over it.
//!
//! "The advantages of our approach are expected to be amplified when
//! multi-hop networks are considered since it avoids buffering at
//! intermediate switches." [`TorusNetwork`] is a 2D torus of switches, each
//! hosting a fixed number of processors. A connection `u -> v` follows the
//! deterministic dimension-order (X then Y) route between their switches,
//! claiming every inter-switch link on the way, so a slot can carry a set
//! of connections iff they form a partial permutation whose routes share
//! no directed inter-switch link — the end-to-end pipes of circuit
//! switching, with no buffering anywhere in the middle.
//!
//! A [`StageGraph`] cannot express that: one physical link can be hop 1 of
//! one route and hop 3 of another, so there is no fixed layer per link.
//! [`TorusRouter`] claims the link ids directly instead.
//!
//! [`StageGraph`]: crate::StageGraph

use pms_bitmat::BitVec;
use pms_sched::SlotRouter;

/// Link directions out of a switch, in id order.
const EAST: usize = 0;
const WEST: usize = 1;
const SOUTH: usize = 2;
const NORTH: usize = 3;

/// A 2D torus of `rows x cols` switches with `hosts_per_switch` processors
/// each.
#[derive(Debug, Clone)]
pub struct TorusNetwork {
    rows: usize,
    cols: usize,
    hosts_per_switch: usize,
}

impl TorusNetwork {
    /// Creates the torus.
    ///
    /// # Panics
    /// Panics unless both dimensions are >= 2 and `hosts_per_switch >= 1`.
    pub fn new(rows: usize, cols: usize, hosts_per_switch: usize) -> Self {
        assert!(rows >= 2 && cols >= 2, "torus needs at least 2x2 switches");
        assert!(hosts_per_switch >= 1, "each switch needs a host");
        Self {
            rows,
            cols,
            hosts_per_switch,
        }
    }

    /// Number of hosts (the fabric's port count).
    pub fn ports(&self) -> usize {
        self.switches() * self.hosts_per_switch
    }

    /// Number of switches.
    pub fn switches(&self) -> usize {
        self.rows * self.cols
    }

    /// The switch hosting processor `p`.
    pub fn switch_of(&self, p: usize) -> usize {
        p / self.hosts_per_switch
    }

    /// Total directed inter-switch links (4 per switch).
    pub fn links(&self) -> usize {
        self.switches() * 4
    }

    fn link_id(&self, switch: usize, dir: usize) -> usize {
        switch * 4 + dir
    }

    fn neighbor(&self, switch: usize, dir: usize) -> usize {
        let (r, c) = (switch / self.cols, switch % self.cols);
        match dir {
            EAST => r * self.cols + (c + 1) % self.cols,
            WEST => r * self.cols + (c + self.cols - 1) % self.cols,
            SOUTH => ((r + 1) % self.rows) * self.cols + c,
            NORTH => ((r + self.rows - 1) % self.rows) * self.cols + c,
            _ => unreachable!("bad direction"),
        }
    }

    /// The dimension-order route between two processors, as the directed
    /// link ids it claims (empty for host pairs on the same switch).
    /// X travels the shorter wrap direction first, then Y.
    pub fn route(&self, u: usize, v: usize) -> Vec<usize> {
        let (mut s, t) = (self.switch_of(u), self.switch_of(v));
        let mut links = Vec::new();
        let (tr, tc) = (t / self.cols, t % self.cols);
        // X dimension.
        loop {
            let c = s % self.cols;
            if c == tc {
                break;
            }
            let fwd = (tc + self.cols - c) % self.cols;
            let dir = if fwd <= self.cols - fwd { EAST } else { WEST };
            links.push(self.link_id(s, dir));
            s = self.neighbor(s, dir);
        }
        // Y dimension.
        loop {
            let r = s / self.cols;
            if r == tr {
                break;
            }
            let fwd = (tr + self.rows - r) % self.rows;
            let dir = if fwd <= self.rows - fwd { SOUTH } else { NORTH };
            links.push(self.link_id(s, dir));
            s = self.neighbor(s, dir);
        }
        links
    }

    /// Number of switch-to-switch hops between two processors.
    pub fn hops(&self, u: usize, v: usize) -> usize {
        self.route(u, v).len()
    }

    /// End-to-end latency of an established pipe: serialization once at
    /// each end plus one wire per hop (+1 for the host-to-switch and
    /// switch-to-host wires) — no intermediate buffering or conversion
    /// (LVDS/optical switches, §6).
    pub fn pipe_latency_ns(&self, u: usize, v: usize, wire_ns: u64, serdes_ns: u64) -> u64 {
        2 * serdes_ns + (self.hops(u, v) as u64 + 2) * wire_ns
    }

    /// End-to-end latency of a store-and-forward/wormhole head through the
    /// same path: each intermediate switch re-arbitrates (one scheduler
    /// decision) and re-serializes the head.
    pub fn hop_by_hop_latency_ns(
        &self,
        u: usize,
        v: usize,
        wire_ns: u64,
        serdes_ns: u64,
        per_hop_arbitration_ns: u64,
    ) -> u64 {
        let hops = self.hops(u, v) as u64 + 2;
        2 * serdes_ns + hops * wire_ns + (self.hops(u, v) as u64 + 1) * per_hop_arbitration_ns
    }
}

/// Admits connections over a [`TorusNetwork`], one set of link claims per
/// TDM slot.
///
/// [`stages`](SlotRouter::stages) stays at its default of 1: the torus has
/// no stage sequence to mark, so runs through it emit no route markers.
pub struct TorusRouter {
    torus: TorusNetwork,
    /// `dst[slot][u] = Some(v)` iff `u -> v` is admitted in `slot`.
    dst: Vec<Vec<Option<usize>>>,
    /// Output ports claimed per slot.
    outputs: Vec<BitVec>,
    /// Directed inter-switch links claimed per slot.
    links: Vec<BitVec>,
}

impl TorusRouter {
    /// Creates a router over `torus` with `slots` empty TDM slots.
    ///
    /// # Panics
    /// Panics if `slots == 0`.
    pub fn new(torus: TorusNetwork, slots: usize) -> Self {
        assert!(slots > 0, "router needs at least one TDM slot");
        let n = torus.ports();
        Self {
            dst: vec![vec![None; n]; slots],
            outputs: vec![BitVec::new(n); slots],
            links: vec![BitVec::new(torus.links()); slots],
            torus,
        }
    }
}

impl SlotRouter for TorusRouter {
    fn try_admit(&mut self, slot: usize, u: usize, v: usize) -> bool {
        if self.dst[slot][u].is_some() || self.outputs[slot].get(v) {
            return false;
        }
        let route = self.torus.route(u, v);
        if route.iter().any(|&l| self.links[slot].get(l)) {
            return false;
        }
        for l in route {
            self.links[slot].set(l, true);
        }
        self.dst[slot][u] = Some(v);
        self.outputs[slot].set(v, true);
        true
    }

    fn release(&mut self, slot: usize, u: usize, v: usize) {
        assert_eq!(
            self.dst[slot][u],
            Some(v),
            "({u},{v}) not admitted in slot {slot}"
        );
        for l in self.torus.route(u, v) {
            self.links[slot].set(l, false);
        }
        self.dst[slot][u] = None;
        self.outputs[slot].set(v, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t44() -> TorusRouter {
        TorusRouter::new(TorusNetwork::new(4, 4, 2), 2) // 32 hosts
    }

    #[test]
    fn link_conflicts_block_within_a_slot_only() {
        let mut r = t44();
        // Hosts 0 and 1 share switch 0; both send eastwards to switch 1:
        // they'd share the 0-EAST link.
        assert!(r.try_admit(0, 0, 2));
        assert!(!r.try_admit(0, 1, 3));
        assert!(r.try_admit(1, 1, 3), "the next slot carries it");
        // One eastbound, one westbound: disjoint links.
        assert!(r.try_admit(0, 1, 6));
    }

    #[test]
    fn intra_switch_traffic_claims_no_links() {
        let mut r = t44();
        for s in 0..16 {
            assert!(r.try_admit(0, 2 * s, 2 * s + 1));
        }
        assert!(
            r.links[0].all_zero(),
            "local pairs use no inter-switch links"
        );
    }

    #[test]
    fn endpoints_are_claimed_too() {
        let mut r = t44();
        assert!(r.try_admit(0, 0, 5));
        assert!(!r.try_admit(0, 1, 5), "output 5 busy");
        assert!(!r.try_admit(0, 0, 4), "input 0 busy");
    }

    #[test]
    fn release_frees_links_and_ports() {
        let mut r = t44();
        assert!(r.try_admit(0, 0, 2));
        r.release(0, 0, 2);
        assert!(r.links[0].all_zero() && r.outputs[0].all_zero());
        assert!(r.try_admit(0, 1, 3), "released link is reusable");
    }

    #[test]
    #[should_panic(expected = "not admitted")]
    fn releasing_an_unadmitted_pair_panics() {
        t44().release(0, 0, 2);
    }

    #[test]
    fn reports_one_stage() {
        assert_eq!(t44().stages(), 1);
    }

    fn torus44() -> TorusNetwork {
        TorusNetwork::new(4, 4, 2) // 32 hosts
    }

    #[test]
    fn same_switch_route_is_empty() {
        let t = torus44();
        assert_eq!(t.route(0, 1), Vec::<usize>::new());
        assert_eq!(t.hops(0, 1), 0);
    }

    #[test]
    fn routes_take_shortest_wrap() {
        let t = torus44();
        // Host 0 on switch 0; host on switch 3 (same row, col 3): one WEST
        // hop via wrap beats three EAST hops.
        let dst = 3 * 2; // first host of switch 3
        assert_eq!(t.hops(0, dst), 1);
        // Switch 2 is two hops either way; the route picks EAST (ties go
        // forward) and is deterministic.
        let dst2 = 2 * 2;
        assert_eq!(t.hops(0, dst2), 2);
        assert_eq!(t.route(0, dst2), t.route(0, dst2));
    }

    #[test]
    fn xy_routing_goes_x_then_y() {
        let t = torus44();
        // Switch 0 -> switch 5 (row 1, col 1): one EAST then one SOUTH.
        let dst = 5 * 2;
        let route = t.route(0, dst);
        assert_eq!(route.len(), 2);
        assert_eq!(route[0] % 4, EAST);
        assert_eq!(route[1] % 4, SOUTH);
    }

    #[test]
    fn pipe_beats_hop_by_hop_latency() {
        let t = torus44();
        let far = 2 * (2 * 4 + 2); // switch (2,2): 4 hops away
        assert_eq!(t.hops(0, far), 4);
        let pipe = t.pipe_latency_ns(0, far, 20, 30);
        let hop = t.hop_by_hop_latency_ns(0, far, 20, 30, 80);
        assert!(pipe < hop, "pipe {pipe} must beat hop-by-hop {hop}");
        // The gap is exactly the per-hop arbitration the pipe avoids.
        assert_eq!(hop - pipe, 5 * 80);
    }

    #[test]
    fn route_symmetry_of_hop_counts() {
        let t = torus44();
        for u in (0..32).step_by(3) {
            for v in (0..32).step_by(5) {
                assert_eq!(t.hops(u, v), t.hops(v, u), "({u},{v})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least 2x2")]
    fn tiny_torus_rejected() {
        TorusNetwork::new(1, 4, 2);
    }
}

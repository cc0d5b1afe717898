//! Multi-hop torus fabric (§6).
//!
//! "The advantages of our approach are expected to be amplified when
//! multi-hop networks are considered since it avoids buffering at
//! intermediate switches." This model is a 2D torus of switches, each
//! hosting a fixed number of processors. A connection `u -> v` follows the
//! deterministic dimension-order (X then Y) route between their switches,
//! claiming every inter-switch link on the way; a TDM configuration is
//! realizable iff it is a partial permutation on the hosts **and** no two
//! connections share a link — the end-to-end pipes of circuit switching,
//! with no buffering anywhere in the middle. `pms-multistage`'s
//! `TorusRouter` enforces that constraint slot by slot.

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

#[cfg(test)]
mod tests {
    use super::*;

    fn t44() -> TorusNetwork {
        TorusNetwork::new(4, 4, 2) // 32 hosts
    }

    #[test]
    fn same_switch_route_is_empty() {
        let t = t44();
        assert_eq!(t.route(0, 1), Vec::<usize>::new());
        assert_eq!(t.hops(0, 1), 0);
    }

    #[test]
    fn routes_take_shortest_wrap() {
        let t = t44();
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
        let t = t44();
        // Switch 0 -> switch 5 (row 1, col 1): one EAST then one SOUTH.
        let dst = 5 * 2;
        let route = t.route(0, dst);
        assert_eq!(route.len(), 2);
        assert_eq!(route[0] % 4, EAST);
        assert_eq!(route[1] % 4, SOUTH);
    }

    #[test]
    fn pipe_beats_hop_by_hop_latency() {
        let t = t44();
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
        let t = t44();
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

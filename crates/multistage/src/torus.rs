//! Slot routing over the §6 multi-hop torus.
//!
//! A torus connection `u -> v` is an end-to-end pipe along the
//! dimension-order route [`TorusNetwork::route`] returns, so a slot can
//! carry a set of connections iff they form a partial permutation whose
//! routes share no directed inter-switch link. A [`StageGraph`] cannot
//! express that: one physical link can be hop 1 of one route and hop 3 of
//! another, so there is no fixed layer per link. [`TorusRouter`] claims
//! the link ids directly instead.
//!
//! [`StageGraph`]: crate::StageGraph

use pms_bitmat::BitVec;
use pms_fabric::TorusNetwork;
use pms_sched::SlotRouter;

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
}

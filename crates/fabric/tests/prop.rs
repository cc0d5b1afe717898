//! Property tests for the fabric models.

use pms_bitmat::BitMatrix;
use pms_fabric::{Crossbar, Technology, TorusNetwork};
use proptest::prelude::*;

/// A random partial permutation on `n` ports.
fn partial_perm(n: usize) -> impl Strategy<Value = BitMatrix> {
    prop::collection::vec((0..n, 0..n), 0..n).prop_map(move |pairs| {
        let mut used_in = vec![false; n];
        let mut used_out = vec![false; n];
        let mut m = BitMatrix::square(n);
        for (u, v) in pairs {
            if !used_in[u] && !used_out[v] {
                used_in[u] = true;
                used_out[v] = true;
                m.set(u, v, true);
            }
        }
        m
    })
}

proptest! {
    /// The crossbar accepts exactly the partial permutations.
    #[test]
    fn crossbar_accepts_all_partial_permutations(cfg in partial_perm(16)) {
        let xb = Crossbar::new(16, Technology::Lvds);
        prop_assert!(xb.is_valid(&cfg));
    }

    /// Routes only use real link ids and have dimension-order length.
    #[test]
    fn torus_routes_are_well_formed(u in 0usize..32, v in 0usize..32) {
        let t = TorusNetwork::new(4, 4, 2);
        let route = t.route(u, v);
        for &l in &route {
            prop_assert!(l < t.links(), "link id {l} out of range");
        }
        // Hop count bounded by the torus diameter (2 + 2).
        prop_assert!(route.len() <= 4);
        // Same switch -> empty route.
        if t.switch_of(u) == t.switch_of(v) {
            prop_assert!(route.is_empty());
        } else {
            prop_assert!(!route.is_empty());
        }
        // A dimension-order route never claims a link twice.
        let mut sorted = route.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), route.len());
    }
}

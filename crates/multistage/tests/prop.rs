//! Differential tests pinning the slot routers against simple references.
//!
//! These are the correctness anchors of the fabric-constraint path:
//!
//! * greedy [`MultistageRouter`] admission agrees with an exhaustive
//!   line-disjoint path search on every partial permutation of small
//!   stage graphs (greedy is exact because Omega and butterfly paths are
//!   unique and fat-tree up-links are interchangeable);
//! * Omega admission agrees with destination-tag path conflicts, and
//!   fat-tree admission with per-leaf up-link and down-link counts;
//! * [`TorusRouter`] admission agrees with pairwise link-disjointness of
//!   the torus's dimension-order routes, which are themselves well formed.

use pms_bitmat::BitMatrix;
use pms_multistage::{MultistageRouter, StageGraph, TorusNetwork, TorusRouter};
use pms_sched::SlotRouter;
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

/// Greedily admits every connection of `cfg` into slot 0.
fn admit_all(router: &mut impl SlotRouter, cfg: &BitMatrix) -> bool {
    cfg.iter_ones().all(|(u, v)| router.try_admit(0, u, v))
}

/// Every path from `u` to `v` through `g`, one line per layer.
fn all_paths(g: &StageGraph, u: usize, v: usize) -> Vec<Vec<usize>> {
    fn extend(g: &StageGraph, v: usize, path: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        let stage = path.len() - 1;
        if stage == g.num_stages() {
            if *path.last().unwrap() == v {
                out.push(path.clone());
            }
            return;
        }
        for next in g.reach(stage).iter_row_ones(*path.last().unwrap()) {
            path.push(next);
            extend(g, v, path, out);
            path.pop();
        }
    }
    let mut out = Vec::new();
    extend(g, v, &mut vec![u], &mut out);
    out
}

/// Exhaustive reference: can every pair get a path such that no line of
/// any layer is shared? Tries every path combination, unlike the
/// router's first-fit search. Paths are stored as one single-bit line
/// mask per layer, so graphs must be at most 64 lines wide.
struct PathOracle {
    layers: usize,
    /// `paths[u][v]`: every `u -> v` path.
    paths: Vec<Vec<Vec<Vec<u64>>>>,
}

impl PathOracle {
    fn new(g: &StageGraph) -> Self {
        assert!(g.width() <= 64, "oracle packs a layer into one word");
        let n = g.ports();
        let masks = |path: Vec<usize>| path.into_iter().map(|x| 1u64 << x).collect();
        Self {
            layers: g.num_stages() + 1,
            paths: (0..n)
                .map(|u| {
                    (0..n)
                        .map(|v| all_paths(g, u, v).into_iter().map(masks).collect())
                        .collect()
                })
                .collect(),
        }
    }

    fn routable(&self, pairs: &[(usize, usize)]) -> bool {
        self.assign(pairs, &mut vec![0; self.layers])
    }

    fn assign(&self, pairs: &[(usize, usize)], used: &mut [u64]) -> bool {
        let Some((&(u, v), rest)) = pairs.split_first() else {
            return true;
        };
        for path in &self.paths[u][v] {
            if path.iter().zip(used.iter()).any(|(p, w)| p & w != 0) {
                continue;
            }
            for (w, p) in used.iter_mut().zip(path) {
                *w |= p;
            }
            let ok = self.assign(rest, used);
            for (w, p) in used.iter_mut().zip(path) {
                *w &= !p;
            }
            if ok {
                return true;
            }
        }
        false
    }
}

/// Walks every partial permutation of `g`'s ports in input order,
/// admitting pairs greedily as it goes. An admission must come with a
/// witness: the router's path must be a real path of the graph that
/// shares no line with the paths already admitted. A rejection must be
/// confirmed by the exhaustive search. A rejected configuration is not
/// extended: admission is subset-closed, so every superset is rejected
/// by both sides. Returns the configurations checked.
fn check_every_partial_permutation(g: &StageGraph) -> usize {
    struct Walk<'a> {
        n: usize,
        oracle: &'a PathOracle,
        router: MultistageRouter,
        pairs: Vec<(usize, usize)>,
        out_used: Vec<bool>,
        /// Line occupancy of the admitted witnesses, one word per layer.
        lines: Vec<u64>,
        checked: usize,
    }
    fn walk(w: &mut Walk, u: usize) {
        if u == w.n {
            return;
        }
        walk(w, u + 1); // input `u` idle
        for v in 0..w.n {
            if w.out_used[v] {
                continue;
            }
            w.pairs.push((u, v));
            w.checked += 1;
            if w.router.try_admit(0, u, v) {
                let path: Vec<u64> = w
                    .router
                    .path_of(0, u, v)
                    .unwrap()
                    .iter()
                    .map(|&x| 1 << x)
                    .collect();
                assert!(
                    w.oracle.paths[u][v].contains(&path),
                    "({u},{v}) took a path the graph lacks"
                );
                assert!(
                    path.iter().zip(&w.lines).all(|(p, l)| p & l == 0),
                    "greedy path for ({u},{v}) shares a line in {:?}",
                    w.pairs
                );
                for (l, p) in w.lines.iter_mut().zip(&path) {
                    *l |= p;
                }
                w.out_used[v] = true;
                walk(w, u + 1);
                w.out_used[v] = false;
                for (l, p) in w.lines.iter_mut().zip(&path) {
                    *l &= !p;
                }
                w.router.release(0, u, v);
            } else {
                assert!(
                    !w.oracle.routable(&w.pairs),
                    "greedy rejected the routable {:?}",
                    w.pairs
                );
            }
            w.pairs.pop();
        }
    }
    let oracle = PathOracle::new(g);
    let mut w = Walk {
        n: g.ports(),
        oracle: &oracle,
        router: MultistageRouter::new(g.clone(), 1),
        pairs: Vec::new(),
        out_used: vec![false; g.ports()],
        lines: vec![0; g.num_stages() + 1],
        checked: 0,
    };
    walk(&mut w, 0);
    w.checked
}

#[test]
fn greedy_crossbar_matches_exhaustive_search() {
    // The crossbar blocks nothing, so the walk visits every non-empty
    // partial permutation of 4 ports: sum over k of C(4,k)^2 k! - 1.
    assert_eq!(
        check_every_partial_permutation(&StageGraph::crossbar(4)),
        208
    );
}

#[test]
fn greedy_omega_matches_exhaustive_search() {
    check_every_partial_permutation(&StageGraph::omega(4));
    check_every_partial_permutation(&StageGraph::omega(8));
}

#[test]
fn greedy_butterfly_matches_exhaustive_search() {
    check_every_partial_permutation(&StageGraph::butterfly(4));
    check_every_partial_permutation(&StageGraph::butterfly(8));
}

#[test]
fn greedy_single_uplink_fat_tree_matches_exhaustive_search() {
    check_every_partial_permutation(&StageGraph::fat_tree(8, 4, 1));
}

#[test]
fn greedy_two_uplink_fat_tree_matches_exhaustive_search() {
    check_every_partial_permutation(&StageGraph::fat_tree(8, 4, 2));
}

/// Destination-tag routing through an `n`-port Omega network: the line a
/// pair occupies after each stage.
fn omega_path(n: usize, u: usize, v: usize) -> Vec<usize> {
    let k = n.trailing_zeros() as usize;
    let mut line = u;
    (0..k)
        .map(|i| {
            line = ((line << 1) | ((v >> (k - 1 - i)) & 1)) & (n - 1);
            line
        })
        .collect()
}

/// Reference Omega predicate: no two destination-tag paths share a line.
fn omega_realizable(n: usize, cfg: &BitMatrix) -> bool {
    let paths: Vec<Vec<usize>> = cfg.iter_ones().map(|(u, v)| omega_path(n, u, v)).collect();
    (0..paths.len())
        .all(|i| (i + 1..paths.len()).all(|j| paths[i].iter().zip(&paths[j]).all(|(a, b)| a != b)))
}

/// Reference fat-tree predicate: no leaf of `arity` ports sources or
/// sinks more cross-leaf connections than its `uplinks`.
fn fat_tree_realizable(n: usize, arity: usize, uplinks: usize, cfg: &BitMatrix) -> bool {
    let mut up = vec![0; n / arity];
    let mut down = vec![0; n / arity];
    for (u, v) in cfg.iter_ones() {
        if u / arity != v / arity {
            up[u / arity] += 1;
            down[v / arity] += 1;
        }
    }
    up.iter().chain(&down).all(|&c| c <= uplinks)
}

/// Reference torus predicate: no two dimension-order routes share a link.
fn torus_link_disjoint(t: &TorusNetwork, cfg: &BitMatrix) -> bool {
    let routes: Vec<Vec<usize>> = cfg.iter_ones().map(|(u, v)| t.route(u, v)).collect();
    (0..routes.len())
        .all(|i| (i + 1..routes.len()).all(|j| routes[i].iter().all(|l| !routes[j].contains(l))))
}

proptest! {
    /// The one-stage crossbar graph admits every partial permutation —
    /// the degenerate case adds no blocking.
    #[test]
    fn crossbar_graph_admits_all_partial_permutations(cfg in partial_perm(16)) {
        let mut r = MultistageRouter::new(StageGraph::crossbar(16), 1);
        prop_assert!(admit_all(&mut r, &cfg));
        r.check_invariants();
    }

    /// Omega: unique paths make greedy admission order-independent, so
    /// the router admits a configuration iff no two destination-tag
    /// paths share a line.
    #[test]
    fn omega_router_matches_destination_tag_conflicts(cfg in partial_perm(16)) {
        let mut r = MultistageRouter::new(StageGraph::omega(16), 1);
        prop_assert_eq!(admit_all(&mut r, &cfg), omega_realizable(16, &cfg));
        r.check_invariants();
    }

    /// Fat tree (oversubscribed 2:1): up-links within a leaf are
    /// interchangeable, so greedy routing through the stage graph agrees
    /// with the per-leaf counting predicate.
    #[test]
    fn fat_tree_router_matches_leaf_link_counts(cfg in partial_perm(16)) {
        let mut r = MultistageRouter::new(StageGraph::fat_tree(16, 4, 2), 1);
        prop_assert_eq!(admit_all(&mut r, &cfg), fat_tree_realizable(16, 4, 2, &cfg));
        r.check_invariants();
    }

    /// Releasing everything returns the router to a pristine state: the
    /// same configuration admits again.
    #[test]
    fn release_restores_pristine_state(cfg in partial_perm(16)) {
        prop_assume!(omega_realizable(16, &cfg));
        let mut r = MultistageRouter::new(StageGraph::omega(16), 1);
        prop_assert!(admit_all(&mut r, &cfg));
        for (u, v) in cfg.iter_ones().collect::<Vec<_>>() {
            r.release(0, u, v);
        }
        prop_assert!(r.admitted_in(0).is_empty());
        prop_assert!(admit_all(&mut r, &cfg));
        r.check_invariants();
    }

    /// Butterfly admission is subset-closed, like every physical fabric
    /// constraint: any subset of an admitted configuration also admits.
    #[test]
    fn butterfly_admission_is_subset_closed(cfg in partial_perm(16)) {
        let mut r = MultistageRouter::new(StageGraph::butterfly(16), 1);
        if admit_all(&mut r, &cfg) {
            for (u, v) in cfg.iter_ones().collect::<Vec<_>>() {
                let mut smaller = cfg.clone();
                smaller.set(u, v, false);
                let mut r2 = MultistageRouter::new(StageGraph::butterfly(16), 1);
                prop_assert!(admit_all(&mut r2, &smaller));
            }
        }
    }

    /// The torus router admits a partial permutation iff its routes are
    /// pairwise link-disjoint, and releasing it leaves the slot empty.
    #[test]
    fn torus_router_matches_pairwise_link_disjointness(cfg in partial_perm(32)) {
        let t = TorusNetwork::new(4, 4, 2);
        let mut r = TorusRouter::new(t.clone(), 1);
        let admitted = admit_all(&mut r, &cfg);
        prop_assert_eq!(admitted, torus_link_disjoint(&t, &cfg));
        if admitted {
            for (u, v) in cfg.iter_ones() {
                r.release(0, u, v);
            }
            prop_assert!(admit_all(&mut r, &cfg), "release must restore the slot");
        }
    }

    /// A single torus connection is always routable.
    #[test]
    fn torus_single_connection_admits(u in 0usize..32, v in 0usize..32) {
        let mut r = TorusRouter::new(TorusNetwork::new(4, 4, 2), 1);
        prop_assert!(r.try_admit(0, u, v));
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

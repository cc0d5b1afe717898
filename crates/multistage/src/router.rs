//! Per-stage TDM scheduling over a [`StageGraph`]: the multi-stage
//! scheduling pass.
//!
//! The router shadows the scheduler's `K` registers with `S x K`
//! per-stage configuration matrices `B_s^(0..K-1)` plus per-layer line
//! occupancy. Admitting a connection for a slot is a depth-first path
//! search through the stage graph under that slot's availability —
//! candidate lines at each hop come from word-parallel `pms-bitmat`
//! operations (`reach-row AND NOT used`) — and commits atomically: either
//! every stage gets its cross-point or nothing changes. Releases walk the
//! stored path stage by stage.
//!
//! Faults reach the router through a per-stage link mask that starts as
//! the stage's reach matrix and loses bits as internal links fail.
//! Masking only removes candidates, so admission stays subset-closed —
//! the invariant `Scheduler::pass_admitted` relies on.

use crate::graph::StageGraph;
use pms_bitmat::{BitMatrix, BitVec};
use pms_sched::SlotRouter;
use std::collections::HashMap;

/// Routes connections through a [`StageGraph`], one configuration per
/// stage per TDM slot.
pub struct MultistageRouter {
    graph: StageGraph,
    slots: usize,
    /// Per-stage live links, `reach AND link-health`: a stage accepts a
    /// configuration iff it is a partial permutation inside its mask.
    masks: Vec<BitMatrix>,
    /// `B_s^(k)`: the configuration matrix of stage `s` in slot `k`.
    stage_cfgs: Vec<Vec<BitMatrix>>,
    /// `used[slot][layer]`: lines occupied by admitted paths.
    used: Vec<Vec<BitVec>>,
    /// `(slot, u, v) -> ` full line path (layer `0..=S`).
    paths: HashMap<(usize, usize, usize), Vec<usize>>,
}

impl MultistageRouter {
    /// Creates a router over `graph` with `slots` TDM configurations per
    /// stage, all empty.
    ///
    /// # Panics
    /// Panics if `slots == 0`.
    pub fn new(graph: StageGraph, slots: usize) -> Self {
        assert!(slots > 0, "router needs at least one TDM slot");
        let w = graph.width();
        let s_count = graph.num_stages();
        Self {
            masks: (0..s_count).map(|s| graph.reach(s).clone()).collect(),
            stage_cfgs: vec![vec![BitMatrix::square(w); slots]; s_count],
            used: vec![vec![BitVec::new(w); s_count + 1]; slots],
            paths: HashMap::new(),
            graph,
            slots,
        }
    }

    /// The stage graph being routed over.
    pub fn graph(&self) -> &StageGraph {
        &self.graph
    }

    /// Number of TDM slots `K`.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// The configuration matrix `B_s^(k)` of stage `s` in slot `k`.
    pub fn stage_config(&self, stage: usize, slot: usize) -> &BitMatrix {
        &self.stage_cfgs[stage][slot]
    }

    /// The path `u -> v` currently holds in `slot`, as one line per layer
    /// (`path[0] == u`, `path[S] == v`), if admitted.
    pub fn path_of(&self, slot: usize, u: usize, v: usize) -> Option<&[usize]> {
        self.paths.get(&(slot, u, v)).map(Vec::as_slice)
    }

    /// Connections currently admitted in `slot`, sorted.
    pub fn admitted_in(&self, slot: usize) -> Vec<(usize, usize)> {
        let mut out: Vec<(usize, usize)> = self
            .paths
            .keys()
            .filter(|&&(s, _, _)| s == slot)
            .map(|&(_, u, v)| (u, v))
            .collect();
        out.sort_unstable();
        out
    }

    /// Marks the internal link `a -> b` of stage `s` as failed, evicting
    /// every admitted path that crosses it. Returns the evicted
    /// connections as `(slot, u, v)`, sorted — the caller decides whether
    /// they re-route (fat trees usually can; unique-path networks like
    /// the Omega cannot and stay blocked until healed).
    pub fn fail_stage_link(&mut self, s: usize, a: usize, b: usize) -> Vec<(usize, usize, usize)> {
        self.masks[s].set(a, b, false);
        let mut evicted: Vec<(usize, usize, usize)> = self
            .paths
            .iter()
            .filter(|(_, path)| path[s] == a && path[s + 1] == b)
            .map(|(&key, _)| key)
            .collect();
        evicted.sort_unstable();
        for &(slot, u, v) in &evicted {
            self.release(slot, u, v);
        }
        evicted
    }

    /// Heals the internal link `a -> b` of stage `s` (a no-op unless the
    /// stage graph wires that link at all — healing never grows the
    /// topology).
    pub fn heal_stage_link(&mut self, s: usize, a: usize, b: usize) {
        if self.graph.reach(s).get(a, b) {
            self.masks[s].set(a, b, true);
        }
    }

    /// Depth-first path search from `u` (layer 0) to `v` (layer `S`)
    /// under `slot`'s line availability. Returns one line per layer.
    fn search(&self, slot: usize, u: usize, v: usize) -> Option<Vec<usize>> {
        let mut prof = pms_trace::prof::ProfScope::enter(pms_trace::prof::ProfKernel::RouteDfs);
        let s_count = self.graph.num_stages();
        let mut path = vec![0usize; s_count + 1];
        path[0] = u;
        path[s_count] = v;
        // Each DFS frame builds one candidate row of the layer's width.
        prof.add_words(((s_count + 1) * self.graph.width().div_ceil(64)) as u64);
        if self.dfs(slot, 0, u, v, &mut path) {
            Some(path)
        } else {
            None
        }
    }

    /// Extends the path from `line` (a free line of layer `stage`) toward
    /// `v`, backtracking over the word-parallel candidate sets.
    fn dfs(&self, slot: usize, stage: usize, line: usize, v: usize, path: &mut [usize]) -> bool {
        let last = self.graph.num_stages() - 1;
        // Candidate next lines: reachable over live links, not yet used.
        let mut cand = self.masks[stage].row(line);
        cand.and_not_assign(&self.used[slot][stage + 1]);
        if stage == last {
            return cand.get(v);
        }
        for b in cand.iter_ones() {
            path[stage + 1] = b;
            if self.dfs(slot, stage + 1, b, v, path) {
                return true;
            }
        }
        false
    }

    /// Debug-checks the router's invariants: every stage configuration is
    /// a partial permutation over live links, and configurations agree
    /// with the stored paths and line occupancy.
    pub fn check_invariants(&self) {
        let s_count = self.graph.num_stages();
        for (stage, mask) in self.masks.iter().enumerate() {
            for (slot, cfg) in self.stage_cfgs[stage].iter().enumerate() {
                let dead = BitMatrix::zip2_with(cfg, mask, |c, m| c & !m);
                assert!(
                    cfg.is_partial_permutation() && dead.all_zero(),
                    "stage {stage} slot {slot} configuration invalid"
                );
            }
        }
        let mut cfgs = vec![vec![BitMatrix::square(self.graph.width()); self.slots]; s_count];
        let mut used = vec![vec![BitVec::new(self.graph.width()); s_count + 1]; self.slots];
        for (&(slot, u, v), path) in &self.paths {
            assert_eq!((path[0], path[s_count]), (u, v), "path endpoints drifted");
            for (layer, &line) in path.iter().enumerate() {
                assert!(!used[slot][layer].get(line), "line double-booked");
                used[slot][layer].set(line, true);
            }
            for stage in 0..s_count {
                cfgs[stage][slot].set(path[stage], path[stage + 1], true);
            }
        }
        assert_eq!(cfgs, self.stage_cfgs, "stage configs out of sync");
        assert_eq!(used, self.used, "line occupancy out of sync");
    }
}

impl SlotRouter for MultistageRouter {
    fn stages(&self) -> usize {
        self.graph.num_stages()
    }

    fn try_admit(&mut self, slot: usize, u: usize, v: usize) -> bool {
        assert!(slot < self.slots, "slot {slot} out of range");
        assert!(
            u < self.graph.ports() && v < self.graph.ports(),
            "port out of range"
        );
        assert!(
            !self.paths.contains_key(&(slot, u, v)),
            "({u},{v}) already admitted in slot {slot}"
        );
        if self.used[slot][0].get(u) || self.used[slot][self.graph.num_stages()].get(v) {
            return false;
        }
        let Some(path) = self.search(slot, u, v) else {
            return false;
        };
        for (layer, &line) in path.iter().enumerate() {
            self.used[slot][layer].set(line, true);
        }
        for stage in 0..self.graph.num_stages() {
            self.stage_cfgs[stage][slot].set(path[stage], path[stage + 1], true);
        }
        self.paths.insert((slot, u, v), path);
        true
    }

    fn release(&mut self, slot: usize, u: usize, v: usize) {
        let path = self
            .paths
            .remove(&(slot, u, v))
            .unwrap_or_else(|| panic!("({u},{v}) not admitted in slot {slot}"));
        for (layer, &line) in path.iter().enumerate() {
            self.used[slot][layer].set(line, false);
        }
        for stage in 0..self.graph.num_stages() {
            self.stage_cfgs[stage][slot].set(path[stage], path[stage + 1], false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pms_sched::{Scheduler, SchedulerConfig};

    /// Destination-tag routing through an `n`-port Omega network: the
    /// line a pair occupies after each stage (shuffle, then force the low
    /// bit to the next destination bit, most significant first).
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

    /// True if two Omega connections share a line after some stage.
    fn omega_conflict(n: usize, a: (usize, usize), b: (usize, usize)) -> bool {
        let (pa, pb) = (omega_path(n, a.0, a.1), omega_path(n, b.0, b.1));
        pa.iter().zip(&pb).any(|(x, y)| x == y)
    }

    /// The first pair of connections to outputs 0 and 1 that an `n`-port
    /// Omega network blocks.
    fn omega_blocked_pair(n: usize) -> ((usize, usize), (usize, usize)) {
        (0..n)
            .flat_map(|a| (0..n).map(move |b| ((a, 0), (b, 1))))
            .find(|&(x, y)| x.0 != y.0 && omega_conflict(n, x, y))
            .expect("omega must block some pair")
    }

    /// Runs routed passes until a full slot cycle changes nothing.
    fn settle(sched: &mut Scheduler, router: &mut MultistageRouter, r: &BitMatrix) {
        let mut quiet = 0;
        for _ in 0..64 {
            let rep = sched.pass_admitted(r, Some(&mut *router), |_| true);
            if rep.established.is_empty() && rep.released.is_empty() {
                quiet += 1;
                if quiet >= sched.slots() {
                    return;
                }
            } else {
                quiet = 0;
            }
        }
    }

    #[test]
    fn crossbar_router_admits_any_partial_permutation() {
        let mut r = MultistageRouter::new(StageGraph::crossbar(8), 2);
        for u in 0..8 {
            assert!(r.try_admit(0, u, (u + 3) % 8));
        }
        // Endpoint reuse is the only constraint.
        assert!(!r.try_admit(0, 0, 0), "input 0 already busy");
        assert!(r.try_admit(1, 0, 0), "other slot is independent");
        r.check_invariants();
    }

    #[test]
    fn omega_path_ends_at_destination() {
        for u in 0..16 {
            for v in 0..16 {
                assert_eq!(*omega_path(16, u, v).last().unwrap(), v);
            }
        }
    }

    #[test]
    fn release_frees_the_path() {
        let n = 8;
        // Find a pair whose unique path conflicts with (0 -> 0)'s.
        let (u, v) = (1..n)
            .flat_map(|u| (1..n).map(move |v| (u, v)))
            .find(|&(u, v)| omega_conflict(n, (0, 0), (u, v)))
            .expect("omega must have internal conflicts");
        let mut r = MultistageRouter::new(StageGraph::omega(n), 1);
        assert!(r.try_admit(0, 0, 0));
        assert!(!r.try_admit(0, u, v), "conflicting path must block");
        r.release(0, 0, 0);
        assert!(r.try_admit(0, u, v), "released lines must be reusable");
        r.check_invariants();
    }

    #[test]
    fn omega_admission_matches_destination_tag_conflicts() {
        // Unique paths: greedy admission of a whole configuration succeeds
        // iff no two destination-tag paths share a line, in any order.
        let n = 8;
        for seed in 0..64usize {
            let pairs: Vec<(usize, usize)> = (0..n).map(|u| (u, (u * 3 + seed) % n)).collect();
            let mut r = MultistageRouter::new(StageGraph::omega(n), 1);
            let all_admitted = pairs.iter().all(|&(u, v)| r.try_admit(0, u, v));
            let conflict =
                (0..n).any(|i| (i + 1..n).any(|j| omega_conflict(n, pairs[i], pairs[j])));
            assert_eq!(all_admitted, !conflict, "seed {seed}");
            r.check_invariants();
        }
    }

    #[test]
    fn fat_tree_reroutes_around_failed_uplink_but_omega_blocks() {
        // Fat tree: 8 hosts, arity 4, 2 up-links. A cross-leaf connection
        // survives losing one up-link — the other carries it.
        let mut ft = MultistageRouter::new(StageGraph::fat_tree(8, 4, 2), 1);
        assert!(ft.try_admit(0, 0, 5));
        let path = ft.path_of(0, 0, 5).unwrap().to_vec();
        let evicted = ft.fail_stage_link(0, path[0], path[1]);
        assert_eq!(evicted, vec![(0, 0, 5)]);
        assert!(ft.try_admit(0, 0, 5), "second up-link must carry it");
        assert_ne!(ft.path_of(0, 0, 5).unwrap()[1], path[1]);
        ft.check_invariants();

        // Omega: unique paths, so the same fault pins the pair down until
        // the link heals.
        let mut om = MultistageRouter::new(StageGraph::omega(8), 1);
        assert!(om.try_admit(0, 3, 6));
        let path = om.path_of(0, 3, 6).unwrap().to_vec();
        let evicted = om.fail_stage_link(1, path[1], path[2]);
        assert_eq!(evicted, vec![(0, 3, 6)]);
        assert!(!om.try_admit(0, 3, 6), "unique path is dead");
        om.heal_stage_link(1, path[1], path[2]);
        assert!(om.try_admit(0, 3, 6), "healed link restores the path");
        om.check_invariants();
    }

    #[test]
    fn heal_never_grows_the_topology() {
        let mut r = MultistageRouter::new(StageGraph::butterfly(8), 1);
        // (0 -> 1) at stage 0 is not wired in a butterfly (stage 0 flips
        // bit 2); healing it must not invent the link.
        r.heal_stage_link(0, 0, 1);
        assert!(!r.masks[0].get(0, 1));
    }

    #[test]
    fn slots_are_independent_resources() {
        // Two conflicting omega connections land in different slots — the
        // TDM answer to internal blocking.
        let (a, b) = omega_blocked_pair(8);
        let mut r = MultistageRouter::new(StageGraph::omega(8), 2);
        assert!(r.try_admit(0, a.0, a.1));
        assert!(!r.try_admit(0, b.0, b.1), "conflicting pair blocks in-slot");
        assert!(r.try_admit(1, b.0, b.1), "next slot carries it");
        r.check_invariants();
    }

    #[test]
    fn routed_passes_spread_omega_conflicts_across_slots() {
        let (c1, c2) = omega_blocked_pair(8);
        let mut sched = Scheduler::new(SchedulerConfig::new(8, 2));
        let mut router = MultistageRouter::new(StageGraph::omega(8), 2);
        let r = BitMatrix::from_pairs(8, 8, [c1, c2]);
        // The first pass fits only one of them; the other is revoked.
        let rep = sched.pass_admitted(&r, Some(&mut router), |_| true);
        assert_eq!(rep.established.len(), 1, "only one fits the first slot");
        assert_eq!(rep.admission_denied.len(), 1);
        settle(&mut sched, &mut router, &r);
        // Both established — but in different slots, even though a
        // crossbar would take both in one.
        assert!(sched.established(c1.0, c1.1) && sched.established(c2.0, c2.1));
        assert_ne!(sched.slots_of(c1.0, c1.1), sched.slots_of(c2.0, c2.1));
        for s in 0..2 {
            assert_eq!(
                router.admitted_in(s),
                sched.config(s).iter_ones().collect::<Vec<_>>()
            );
        }
        // Identity traffic never blocks on omega: one pass takes it all.
        let mut sched = Scheduler::new(SchedulerConfig::new(8, 2));
        let mut router = MultistageRouter::new(StageGraph::omega(8), 2);
        let identity = BitMatrix::identity(8);
        let rep = sched.pass_admitted(&identity, Some(&mut router), |_| true);
        assert_eq!(rep.established.len(), 8);
        assert!(rep.admission_denied.is_empty());
        // Dropping the requests releases every path.
        settle(&mut sched, &mut router, &BitMatrix::square(8));
        assert!(sched.b_star().all_zero());
        assert!(router.admitted_in(0).is_empty() && router.admitted_in(1).is_empty());
        router.check_invariants();
    }

    #[test]
    fn single_uplink_fat_tree_takes_one_cross_leaf_connection_per_slot() {
        // 4-port leaves with one up-link: at most one cross-leaf
        // connection out of each leaf per slot.
        let mut sched = Scheduler::new(SchedulerConfig::new(16, 4));
        let mut router = MultistageRouter::new(StageGraph::fat_tree(16, 4, 1), 4);
        // All four ports of leaf 0 want to reach leaf 1.
        let r = BitMatrix::from_pairs(16, 16, (0..4).map(|i| (i, 4 + i)));
        settle(&mut sched, &mut router, &r);
        let mut slots: Vec<usize> = (0..4).flat_map(|i| sched.slots_of(i, 4 + i)).collect();
        slots.sort_unstable();
        assert_eq!(
            slots,
            vec![0, 1, 2, 3],
            "one slot per cross-leaf connection"
        );
        router.check_invariants();
    }
}

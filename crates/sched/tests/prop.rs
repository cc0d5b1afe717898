//! Property-based fuzzing of the scheduler invariants (DESIGN.md §8) and
//! of the event-driven SL pass against its cell-by-cell reference.

use pms_bitmat::BitMatrix;
use pms_sched::{
    presched_matrix, sl_pass, slarray::reference, BandwidthMode, HoldPolicy, Priority, Scheduler,
    SchedulerConfig, SlInputs, SlPassOutput,
};
use proptest::prelude::*;

/// One step of a random scheduler workout.
#[derive(Debug, Clone)]
enum Op {
    Pass(Vec<(usize, usize)>),
    Flush,
    Preload(usize, Vec<(usize, usize)>),
    Unload(usize),
    ClearLatch(usize, usize),
}

fn op_strategy(n: usize, k: usize) -> impl Strategy<Value = Op> {
    let pair = (0..n, 0..n);
    let pairs = prop::collection::vec(pair, 0..12);
    prop_oneof![
        6 => pairs.clone().prop_map(Op::Pass),
        1 => Just(Op::Flush),
        1 => (0..k, prop::collection::vec((0..n, 0..n), 0..4))
            .prop_map(|(s, p)| Op::Preload(s, p)),
        1 => (0..k).prop_map(Op::Unload),
        1 => (0..n, 0..n).prop_map(|(u, v)| Op::ClearLatch(u, v)),
    ]
}

/// Turns arbitrary pairs into a conflict-free preload pattern by first-fit.
fn to_partial_perm(n: usize, pairs: &[(usize, usize)]) -> BitMatrix {
    let mut used_in = vec![false; n];
    let mut used_out = vec![false; n];
    let mut m = BitMatrix::square(n);
    for &(u, v) in pairs {
        if !used_in[u] && !used_out[v] {
            used_in[u] = true;
            used_out[v] = true;
            m.set(u, v, true);
        }
    }
    m
}

/// Clears `L ∧ B^(s)` on each of `rows`: such a row can never release,
/// so the pass takes its early exit there (a busy row has no event, a
/// free one at most one establishment).
fn clear_releases(l: &mut BitMatrix, b_s: &BitMatrix, rows: &[usize]) {
    for &u in rows {
        for v in b_s.iter_row_ones(u) {
            l.set(u, v, false);
        }
    }
}

/// The toggle matrix `T` a pass commits: its established and released
/// pairs.
fn toggles_of(out: &SlPassOutput, n: usize) -> BitMatrix {
    BitMatrix::from_pairs(n, n, out.established.iter().chain(&out.released).copied())
}

fn run_ops(mut sched: Scheduler, n: usize, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Pass(pairs) => {
                let r = BitMatrix::from_pairs(n, n, pairs.iter().copied());
                sched.pass(&r);
            }
            Op::Flush => {
                sched.flush_dynamic();
            }
            Op::Preload(s, pairs) => sched.preload(*s, to_partial_perm(n, pairs)),
            Op::Unload(s) => sched.unload(*s),
            Op::ClearLatch(u, v) => sched.clear_latch(*u, *v),
        }
        sched.check_invariants();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn scheduler_invariants_hold_under_random_ops(
        ops in prop::collection::vec(op_strategy(16, 4), 1..60)
    ) {
        let sched = Scheduler::new(SchedulerConfig::new(16, 4));
        run_ops(sched, 16, &ops);
    }

    #[test]
    fn scheduler_invariants_hold_with_latch_policy(
        ops in prop::collection::vec(op_strategy(12, 3), 1..60)
    ) {
        let sched = Scheduler::new(
            SchedulerConfig::new(12, 3).with_hold(HoldPolicy::Latch),
        );
        run_ops(sched, 12, &ops);
    }

    #[test]
    fn scheduler_invariants_hold_without_rotation(
        ops in prop::collection::vec(op_strategy(16, 2), 1..40)
    ) {
        let sched = Scheduler::new(
            SchedulerConfig::new(16, 2).with_rotation(false),
        );
        run_ops(sched, 16, &ops);
    }

    /// Every persistent, conflict-free request set is fully established
    /// after settling, regardless of arrival order.
    #[test]
    fn conflict_free_requests_all_establish(
        perm in prop::collection::vec(0usize..16, 16)
    ) {
        // Build a partial permutation u -> perm[u], dropping duplicates.
        let pairs = to_partial_perm(16, &perm.iter().copied().enumerate().collect::<Vec<_>>());
        let mut sched = Scheduler::new(SchedulerConfig::new(16, 4));
        let r = pairs.clone();
        sched.settle(&r, 128);
        for (u, v) in pairs.iter_ones() {
            prop_assert!(sched.established(u, v), "({u},{v}) not established");
        }
        sched.check_invariants();
    }

    /// With K slots, up to K conflicting requests per output all establish.
    #[test]
    fn k_way_conflicts_fill_k_slots(out_port in 0usize..8, senders in prop::collection::btree_set(0usize..8, 1..8)) {
        let k = 4;
        let mut sched = Scheduler::new(SchedulerConfig::new(8, k));
        let pairs: Vec<(usize, usize)> = senders.iter().map(|&u| (u, out_port)).collect();
        let r = BitMatrix::from_pairs(8, 8, pairs.iter().copied());
        sched.settle(&r, 64);
        let established = pairs.iter().filter(|&&(u, v)| sched.established(u, v)).count();
        prop_assert_eq!(established, senders.len().min(k));
        sched.check_invariants();
    }

    /// The event-driven `sl_pass` is bit-for-bit equivalent to the
    /// per-bit `reference` pass: same actions in the same ripple order,
    /// same priority rotation, same `cells_visited` — across random
    /// sizes including non-multiples of 64 (tail-word handling) and
    /// random priority origins.
    #[test]
    fn fast_sl_pass_equals_reference(
        (n, l_cells, b_cells, (pri_row, pri_col), quiet_rows) in (1usize..150).prop_flat_map(|n| {
            (
                Just(n),
                prop::collection::btree_set((0..n, 0..n), 0..80),
                prop::collection::btree_set((0..n, 0..n), 0..80),
                (0..n, 0..n),
                prop::collection::vec(0..n, 0..8),
            )
        })
    ) {
        let mut l = BitMatrix::from_pairs(n, n, l_cells.iter().copied());
        let b_s = BitMatrix::from_pairs(n, n, b_cells.iter().copied());
        clear_releases(&mut l, &b_s, &quiet_rows);
        let pri = Priority { row: pri_row, col: pri_col };
        let fast = sl_pass(&SlInputs::from_l(l.clone(), &b_s), &b_s, pri);
        let slow = reference::sl_pass(&l, &b_s, pri);
        prop_assert_eq!(&fast.established, &slow.established, "establish sets differ");
        prop_assert_eq!(&fast.released, &slow.released, "release sets differ");
        prop_assert_eq!(fast.denied, slow.denied.len(), "denial counts differ");
        prop_assert_eq!(&toggles_of(&fast, n), &slow.toggles, "toggle matrices differ");
        prop_assert_eq!(fast.cells_visited, slow.cells_visited, "cells_visited differs");
    }

    /// The `paper128` shape: a partial-permutation `B^(s)` and rows that
    /// request more than half their columns, plus one row — the first in
    /// priority order — that releases on one side of the column wrap and
    /// establishes on the other. The event-driven pass must match the
    /// cell-by-cell reference field for field, and the reference's denial
    /// list must be exactly `L ∖ (established ∪ released)`.
    #[test]
    fn fast_sl_pass_equals_reference_on_dense_rows(
        ((n, pri_row, pri_col), (b_pairs, dense_rows, quiet_rows), (c1_pick, c2_pick, extra)) in
            (16usize..200).prop_flat_map(|n| {
                (
                    (Just(n), 0..n, 1..n),
                    (
                        prop::collection::vec((0..n, 0..n), 0..n),
                        prop::collection::vec((0..n, prop::collection::btree_set(0..n, 0..n / 2)), 1..n),
                        prop::collection::vec(0..n, 0..n / 4),
                    ),
                    (0..n, 0..n, prop::collection::btree_set(0..n, 0..n)),
                )
            })
    ) {
        // The wrap row `u0` is visited first; it holds `c1` in the first
        // column segment `[pri_col, n)` and wants the free column `c2` in
        // the second segment `[0, pri_col)`.
        let u0 = pri_row;
        let c1 = pri_col + c1_pick % (n - pri_col);
        let c2 = c2_pick % pri_col;
        let others: Vec<(usize, usize)> = b_pairs
            .into_iter()
            .filter(|&(u, v)| u != u0 && v != c1 && v != c2)
            .collect();
        let mut b_s = to_partial_perm(n, &others);
        b_s.set(u0, c1, true);
        prop_assert!(b_s.is_partial_permutation());

        let mut l = BitMatrix::square(n);
        for (u, excluded) in dense_rows.into_iter().filter(|&(u, _)| u != u0) {
            for v in (0..n).filter(|v| !excluded.contains(v)) {
                l.set(u, v, true);
            }
        }
        let quiet_rows: Vec<usize> = quiet_rows.into_iter().filter(|&u| u != u0).collect();
        clear_releases(&mut l, &b_s, &quiet_rows);
        // Row u0: its release cell, its establish cell, and requests the
        // ripple must deny — columns before the release and after the
        // establishment (the input is busy) and busy columns between them.
        let busy = b_s.col_or();
        l.set(u0, c1, true);
        l.set(u0, c2, true);
        for v in extra {
            let input_busy = (pri_col..c1).contains(&v) || (c2 + 1..pri_col).contains(&v);
            let between = v > c1 || v < c2;
            if input_busy || (between && busy.get(v)) {
                l.set(u0, v, true);
            }
        }

        let pri = Priority { row: pri_row, col: pri_col };
        let fast = sl_pass(&SlInputs::from_l(l.clone(), &b_s), &b_s, pri);
        let slow = reference::sl_pass(&l, &b_s, pri);
        prop_assert!(slow.released.contains(&(u0, c1)), "no release at ({u0}, {c1})");
        prop_assert!(slow.established.contains(&(u0, c2)), "no establish at ({u0}, {c2})");
        prop_assert_eq!(&fast.established, &slow.established, "establish sets differ");
        prop_assert_eq!(&fast.released, &slow.released, "release sets differ");
        prop_assert_eq!(fast.denied, slow.denied.len(), "denial counts differ");
        prop_assert_eq!(&toggles_of(&fast, n), &slow.toggles, "toggle matrices differ");
        prop_assert_eq!(fast.cells_visited, slow.cells_visited, "cells_visited differs");

        let mut undecided = l.clone();
        for &(u, v) in slow.established.iter().chain(&slow.released) {
            undecided.set(u, v, false);
        }
        let mut denied = slow.denied.clone();
        denied.sort_unstable();
        prop_assert_eq!(denied, undecided.iter_ones().collect::<Vec<_>>(), "denials != L minus actions");
    }

    /// The fused Table 1 sweep writes the same `L` as `presched_matrix`
    /// (OR-ed with the multi-slot term `R ∧ M ∧ ¬B^(s)` when `M` is
    /// given) and the same occupancy vectors as `row_or`/`col_or`, over
    /// sizes across word boundaries. The inputs are reused between the
    /// two sweeps, so stale state from the first must not leak.
    #[test]
    fn fused_presched_sweep_equals_separate_reductions(
        (n, r_cells, bs_cells, other_cells, m_cells) in (1usize..150).prop_flat_map(|n| {
            let cells = || prop::collection::btree_set((0..n, 0..n), 0..120);
            (Just(n), cells(), cells(), cells(), cells())
        })
    ) {
        let r = BitMatrix::from_pairs(n, n, r_cells.iter().copied());
        let b_s = BitMatrix::from_pairs(n, n, bs_cells.iter().copied());
        let b_star = BitMatrix::from_pairs(n, n, bs_cells.iter().chain(&other_cells).copied());
        let m = BitMatrix::from_pairs(n, n, m_cells.iter().copied());
        let mut inputs = SlInputs::new(n);
        for multislot in [Some(&m), None] {
            inputs.presched(&r, &b_star, &b_s, multislot);
            let mut l = presched_matrix(&r, &b_star, &b_s);
            if let Some(m) = multislot {
                let extra = BitMatrix::zip3_with(&r, m, &b_s, |r, m, bs| r & m & !bs);
                l.or_assign(&extra);
            }
            prop_assert_eq!(inputs.l(), &l, "L differs");
            prop_assert_eq!(inputs.l_rows(), &l.row_or(), "L row occupancy differs");
            prop_assert_eq!(inputs.ai(), &b_s.row_or(), "AI differs");
            prop_assert_eq!(inputs.ao(), &b_s.col_or(), "AO differs");
        }
    }

    /// Multi-slot marking never breaks per-slot permutation validity.
    #[test]
    fn multislot_preserves_invariants(
        marks in prop::collection::vec((0usize..8, 0usize..8), 0..6),
        ops in prop::collection::vec(op_strategy(8, 3), 1..30),
    ) {
        let mut sched = Scheduler::new(
            SchedulerConfig::new(8, 3).with_bandwidth(BandwidthMode::PerPairMultiSlot),
        );
        for (u, v) in marks {
            sched.set_multislot(u, v, true);
        }
        run_ops(sched, 8, &ops);
    }
}

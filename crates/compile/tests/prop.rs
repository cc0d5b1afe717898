//! Property tests: coloring optimality and phase-partition coverage.

use pms_compile::{exact_coloring, greedy_coloring, partition_phases, WorkingSet};
use proptest::prelude::*;

mod support {
    use pms_bitmat::BitMatrix;
    use pms_compile::WorkingSet;

    /// Re-implementation of the decomposition validator (kept independent
    /// of the library's own `validate_decomposition` so a bug in the
    /// validator cannot mask a bug in the coloring).
    pub fn check(ws: &WorkingSet, slots: &[BitMatrix]) {
        let mut covered = 0usize;
        let mut seen = std::collections::HashSet::new();
        for slot in slots {
            assert!(slot.is_partial_permutation());
            for (u, v) in slot.iter_ones() {
                assert!(ws.contains(u, v), "foreign edge ({u},{v})");
                assert!(seen.insert((u, v)), "duplicate edge ({u},{v})");
                covered += 1;
            }
        }
        assert_eq!(covered, ws.len(), "not all edges covered");
    }
}

fn working_set(ports: usize, max_edges: usize) -> impl Strategy<Value = WorkingSet> {
    prop::collection::btree_set((0..ports, 0..ports), 0..max_edges)
        .prop_map(move |edges| WorkingSet::from_pairs(ports, edges))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn exact_coloring_uses_exactly_delta_colors(ws in working_set(24, 120)) {
        let slots = exact_coloring(&ws);
        prop_assert_eq!(slots.len(), ws.max_degree(), "König violated");
        support::check(&ws, &slots);
    }

    #[test]
    fn greedy_coloring_is_valid_and_bounded(ws in working_set(24, 120)) {
        let slots = greedy_coloring(&ws);
        support::check(&ws, &slots);
        let delta = ws.max_degree();
        if delta > 0 {
            prop_assert!(slots.len() >= delta);
            prop_assert!(slots.len() < 2 * delta, "greedy bound violated");
        } else {
            prop_assert!(slots.is_empty());
        }
    }

    #[test]
    fn exact_never_uses_more_slots_than_greedy(ws in working_set(16, 80)) {
        prop_assert!(exact_coloring(&ws).len() <= greedy_coloring(&ws).len());
    }

    #[test]
    fn partition_covers_trace_and_respects_degree(
        trace in prop::collection::vec((0usize..12, 0usize..12), 0..80),
        k_max in 1usize..5,
    ) {
        let prog = partition_phases(12, &trace, k_max);
        // Degree bound per phase (unless a single connection already
        // exceeds it, which cannot happen: one edge has degree 1).
        for phase in &prog.phases {
            prop_assert!(phase.degree() <= k_max, "phase exceeds k_max");
            prop_assert_eq!(phase.degree(), phase.working_set.max_degree());
        }
        // Every trace connection appears in at least one phase.
        for &(u, v) in &trace {
            prop_assert!(
                prog.phases.iter().any(|p| p.working_set.contains(u, v)),
                "({}, {}) lost", u, v
            );
        }
        // Phase boundaries are strictly increasing.
        for w in prog.phases.windows(2) {
            prop_assert!(w[0].first_event < w[1].first_event);
        }
        // Minimal for a left-to-right scan: the first phase opens at event
        // 0, each working set is exactly the distinct pairs of its trace
        // range, and every boundary is forced, because the next phase's
        // opening pair would push the previous working set past k_max.
        prop_assert_eq!(prog.phases.is_empty(), trace.is_empty());
        if let Some(first) = prog.phases.first() {
            prop_assert_eq!(first.first_event, 0);
        }
        for (j, phase) in prog.phases.iter().enumerate() {
            let end = prog.phases.get(j + 1).map_or(trace.len(), |p| p.first_event);
            let range = WorkingSet::from_pairs(12, trace[phase.first_event..end].iter().copied());
            prop_assert_eq!(&phase.working_set, &range);
        }
        for w in prog.phases.windows(2) {
            let (u, v) = trace[w[1].first_event];
            let mut grown = w[0].working_set.clone();
            prop_assert!(grown.insert(u, v), "phase opened on a repeated pair");
            prop_assert!(
                grown.max_degree() > k_max,
                "boundary at event {} is not forced", w[1].first_event
            );
        }
    }
}

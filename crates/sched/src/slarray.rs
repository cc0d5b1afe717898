//! The `N x N` scheduling-logic array (Figure 3) evaluated as one
//! combinational pass.
//!
//! Availability signals ripple through the array: `A` per column (output
//! port occupancy, initialized from `AO = OR of columns of B^(s)`) and `D`
//! per row (input port occupancy, initialized from `AI = OR of rows of
//! B^(s)`). Because a cell that *releases* a connection clears the ripples,
//! ports freed by a release become available to establish requests later in
//! the same pass — the hardware performs release-then-establish in a single
//! SL clock.
//!
//! The paper's fairness refinement is supported: "a more fair schedule can
//! be obtained by rotating the priority such that `A_{a,v} = AO_v` and
//! `D_{u,b} = AI_u` where `a` and `b` are selected randomly or through a
//! round robin scheme". [`Priority`] carries that `(a, b)` rotation; cells
//! are evaluated in row order `a, a+1, ... (mod N)` and column order
//! `b, b+1, ... (mod N)`, which is exactly the acyclic ripple the rotated
//! initialization induces.
//!
//! The software model evaluates the array as an event ripple. A row
//! changes state only at its first free requested column (it establishes
//! and claims both ports) or, once its input is busy, at its release cell
//! (`L ∧ B^(s)` with the output still busy, which frees both). Every
//! other `L = 1` cell passes its ripples through unchanged and is a
//! denial, so [`sl_pass`] finds the events with word-parallel searches
//! and counts the denials by popcount. The cell-by-cell evaluation
//! through [`sl_cell`] lives on as [`reference::sl_pass`].

use crate::presched::SlInputs;
use crate::slcell::{sl_cell, CellAction, CellInput};
use pms_bitmat::BitMatrix;
use pms_trace::prof::{ProfKernel, ProfScope};

/// The priority rotation `(a, b)`: the row/column where the availability
/// ripples are injected, i.e. the highest-priority requester.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Priority {
    /// First row in the ripple order.
    pub row: usize,
    /// First column in the ripple order.
    pub col: usize,
}

/// Result of one SL array pass. Commit it by toggling every established
/// and released pair of `B^(s)` (the set bits of the toggle matrix `T`).
#[derive(Debug, Clone)]
pub struct SlPassOutput {
    /// Connections established this pass, in ripple order.
    pub established: Vec<(usize, usize)>,
    /// Connections released this pass, in ripple order.
    pub released: Vec<(usize, usize)>,
    /// Requests denied this pass (port unavailable): every `L = 1` cell
    /// that neither established nor released.
    pub denied: usize,
    /// Number of `L = 1` cells the availability ripple actually visited —
    /// the dynamic ripple depth of this pass (the worst case is `2N`
    /// cells; see [`SlTimingModel`](crate::SlTimingModel)).
    pub cells_visited: usize,
}

impl SlPassOutput {
    /// True if the pass changed nothing and denied nothing.
    pub fn is_quiescent(&self) -> bool {
        self.established.is_empty() && self.released.is_empty() && self.denied == 0
    }
}

/// Storage word width of [`BitMatrix`] and
/// [`BitVec`](pms_bitmat::BitVec) rows (the packed-bit layout contract
/// the word scans rely on).
const WORD_BITS: usize = 64;

/// The lowest set bit in `[lo, hi)` of the bit string whose word `wi` is
/// `word(wi)`. Bits outside the range (including row-padding bits past
/// `hi`) are masked off word-by-word, so the scan touches only whole
/// `u64` words and stops at the first word holding a hit.
fn first_set<F: Fn(usize) -> u64>(lo: usize, hi: usize, word: F) -> Option<usize> {
    if lo >= hi {
        return None;
    }
    let (w_lo, w_hi) = (lo / WORD_BITS, (hi - 1) / WORD_BITS);
    for wi in w_lo..=w_hi {
        let mut w = word(wi);
        if wi == w_lo {
            w &= u64::MAX << (lo % WORD_BITS);
        }
        if wi == w_hi {
            let top = hi - wi * WORD_BITS;
            if top < WORD_BITS {
                w &= (1u64 << top) - 1;
            }
        }
        if w != 0 {
            return Some(wi * WORD_BITS + w.trailing_zeros() as usize);
        }
    }
    None
}

/// Runs one combinational pass of the SL array for slot matrix `b_s`
/// with the change requests and occupancy vectors in `inputs` (from
/// [`SlInputs::presched`], or [`SlInputs::from_l`] for a given `L`).
///
/// The pass is an event-driven ripple. Along a row the cell array changes
/// state only at two kinds of cell, so the pass jumps from one to the
/// next with word-parallel searches instead of evaluating every `L = 1`
/// cell through [`sl_cell`]:
///
/// * while the row's input is free (`D = 0`), the next event is the first
///   requested column whose output is free (`L ∧ ¬A`): it establishes and
///   claims both ports;
/// * while the input is busy (`D = 1`), the next event is the first
///   requested column of a connection the row holds in this slot with its
///   output still busy (`L ∧ B^(s) ∧ A`): it releases and frees both.
///
/// A row with no `L ∧ B^(s)` cell can never release, so a busy one has no
/// event and a free one at most one establishment; the pass stops
/// there. Every `L = 1` cell skipped between events is a denial;
/// denials are counted by popcount, never visited. Rows run in rotated
/// order from `priority.row` and columns in rotated order from
/// `priority.col`, and empty request rows are skipped through `L`'s row
/// occupancy, so a pass costs a few words per request row plus a few
/// per event. The result is exact for any `b_s` — not only partial
/// permutations — and every output field, including `cells_visited`
/// (the popcount of `L`), equals [`reference::sl_pass`]
/// (proptest-enforced in `tests/prop.rs`).
///
/// # Panics
/// Panics if `inputs` and `b_s` are not square matrices of equal size, or
/// if the priority indices are out of range.
pub fn sl_pass(inputs: &SlInputs, b_s: &BitMatrix, priority: Priority) -> SlPassOutput {
    let n = b_s.rows();
    let l = inputs.l();
    assert_eq!(b_s.cols(), n, "B^(s) must be square");
    assert_eq!((l.rows(), l.cols()), (n, n), "L must match B^(s)");
    assert!(
        priority.row < n && priority.col < n,
        "priority ({}, {}) out of range for {n} ports",
        priority.row,
        priority.col
    );

    let mut prof = ProfScope::enter(ProfKernel::SlPass);

    // Ripple state: A per column, D per row, injected at (a, b).
    let mut col_busy = inputs.ao().clone();
    let row_busy_init = inputs.ai();

    let mut established = Vec::new();
    let mut released = Vec::new();
    let mut cells_visited = 0usize;
    let mut rows_visited = 0usize;

    let mut visit_row = |u: usize| {
        rows_visited += 1;
        let (l_row, b_row) = (l.row_words(u), b_s.row_words(u));
        cells_visited += l_row.iter().map(|w| w.count_ones() as usize).sum::<usize>();
        let mut d = row_busy_init.get(u);
        if l_row.iter().zip(b_row).all(|(lw, bw)| lw & bw == 0) {
            if d {
                return;
            }
            let a = col_busy.words();
            let free = |lo, hi| first_set(lo, hi, |wi| l_row[wi] & !a[wi]);
            if let Some(v) = free(priority.col, n).or_else(|| free(0, priority.col)) {
                established.push((u, v));
                col_busy.set(v, true);
            }
            return;
        }
        for (lo, hi) in [(priority.col, n), (0, priority.col)] {
            let mut from = lo;
            loop {
                let a = col_busy.words();
                let next = if d {
                    first_set(from, hi, |wi| l_row[wi] & b_row[wi] & a[wi])
                } else {
                    first_set(from, hi, |wi| l_row[wi] & !a[wi])
                };
                let Some(v) = next else { break };
                if d {
                    released.push((u, v));
                } else {
                    established.push((u, v));
                }
                // Establish claims both ports; release frees both.
                d = !d;
                col_busy.set(v, d);
                from = v + 1;
            }
        }
    };
    // Rows with at least one change request, visited in rotated order.
    let active_rows = inputs.l_rows().words();
    for (lo, hi) in [(priority.row, n), (0, priority.row)] {
        let mut from = lo;
        while let Some(u) = first_set(from, hi, |wi| active_rows[wi]) {
            visit_row(u);
            from = u + 1;
        }
    }

    // The row-occupancy words plus one row of request words per visited
    // row (the event searches over that row's `B^(s)` and `A` words are
    // not counted).
    prof.add_words((n.div_ceil(WORD_BITS) * (1 + rows_visited)) as u64);

    let denied = cells_visited - established.len() - released.len();
    SlPassOutput {
        established,
        released,
        denied,
        cells_visited,
    }
}

/// The original cell-by-cell SL pass, kept verbatim as the semantic
/// reference for the event-driven [`sl_pass`] — proptests
/// assert the two produce identical outputs, and the `sl_pass_kernel`
/// criterion group times one against the other.
pub mod reference {
    use super::{sl_cell, CellAction, CellInput, Priority};
    use pms_bitmat::BitMatrix;

    /// Result of one reference pass: every cell decision, spelled out.
    #[derive(Debug, Clone)]
    pub struct ReferenceOutput {
        /// The toggle matrix `T`: apply `B^(s) ^= T` to commit the pass.
        pub toggles: BitMatrix,
        /// Connections established this pass, in ripple order.
        pub established: Vec<(usize, usize)>,
        /// Connections released this pass, in ripple order.
        pub released: Vec<(usize, usize)>,
        /// Requests denied this pass, in ripple order.
        pub denied: Vec<(usize, usize)>,
        /// Number of `L = 1` cells the ripple visited.
        pub cells_visited: usize,
    }

    /// One SL array pass, visiting each request row with a gather-and-sort
    /// over its columns and evaluating every `L = 1` cell through
    /// [`sl_cell`] (the pre-optimization implementation).
    ///
    /// # Panics
    /// Panics if `l` and `b_s` are not square matrices of equal size, or if
    /// the priority indices are out of range.
    pub fn sl_pass(l: &BitMatrix, b_s: &BitMatrix, priority: Priority) -> ReferenceOutput {
        let n = b_s.rows();
        assert_eq!(b_s.cols(), n, "B^(s) must be square");
        assert_eq!((l.rows(), l.cols()), (n, n), "L must match B^(s)");
        assert!(
            priority.row < n && priority.col < n,
            "priority ({}, {}) out of range for {n} ports",
            priority.row,
            priority.col
        );

        // Ripple state: A per column, D per row, injected at (a, b).
        let mut col_busy = b_s.col_or(); // AO
        let row_busy_init = b_s.row_or(); // AI

        let mut toggles = BitMatrix::new(n, n);
        let mut established = Vec::new();
        let mut released = Vec::new();
        let mut denied = Vec::new();
        let mut cells_visited = 0usize;

        for du in 0..n {
            let u = (priority.row + du) % n;
            // Gather this row's L=1 columns and visit them in rotated order.
            let mut cols: Vec<usize> = l.iter_row_ones(u).collect();
            if cols.is_empty() {
                continue;
            }
            cols.sort_unstable_by_key(|&v| (n + v - priority.col) % n);

            let mut d = row_busy_init.get(u);
            for v in cols {
                cells_visited += 1;
                let out = sl_cell(CellInput {
                    l: true,
                    a: col_busy.get(v),
                    d,
                    b_s: b_s.get(u, v),
                });
                col_busy.set(v, out.a_next);
                d = out.d_next;
                if out.t {
                    toggles.set(u, v, true);
                }
                match out.action {
                    CellAction::Establish => established.push((u, v)),
                    CellAction::Release => released.push((u, v)),
                    CellAction::Denied => denied.push((u, v)),
                    CellAction::NoChange => unreachable!("only L=1 cells are visited"),
                }
            }
        }

        ReferenceOutput {
            toggles,
            established,
            released,
            denied,
            cells_visited,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn commit(b_s: &mut BitMatrix, out: &SlPassOutput) {
        for &(u, v) in out.established.iter().chain(&out.released) {
            b_s.toggle(u, v);
        }
    }

    /// Helper: run pre-scheduling + one SL pass with B* == B^(s).
    fn pass(requests: &[(usize, usize)], b_s: &mut BitMatrix, priority: Priority) -> SlPassOutput {
        let n = b_s.rows();
        let r = BitMatrix::from_pairs(n, n, requests.iter().copied());
        let mut inputs = SlInputs::new(n);
        inputs.presched(&r, &b_s.clone(), b_s, None);
        let out = sl_pass(&inputs, b_s, priority);
        commit(b_s, &out);
        out
    }

    #[test]
    fn establishes_nonconflicting_requests() {
        let mut b = BitMatrix::square(8);
        let out = pass(&[(0, 1), (1, 2), (7, 0)], &mut b, Priority::default());
        assert_eq!(out.established.len(), 3);
        assert!(out.released.is_empty() && out.denied == 0);
        assert!(b.get(0, 1) && b.get(1, 2) && b.get(7, 0));
        assert!(b.is_partial_permutation());
    }

    #[test]
    fn output_conflict_denies_lower_priority() {
        let mut b = BitMatrix::square(8);
        // Inputs 0 and 3 both want output 5; row 0 has priority.
        let out = pass(&[(0, 5), (3, 5)], &mut b, Priority::default());
        assert_eq!(out.established, vec![(0, 5)]);
        assert_eq!(out.denied, 1);
        assert!(!b.get(3, 5), "the losing request stays pending");
        assert!(b.is_partial_permutation());
    }

    #[test]
    fn input_conflict_denies_lower_priority_column() {
        let mut b = BitMatrix::square(8);
        // Input 2 wants outputs 1 and 6; column 1 wins at default priority.
        let out = pass(&[(2, 1), (2, 6)], &mut b, Priority::default());
        assert_eq!(out.established, vec![(2, 1)]);
        assert_eq!(out.denied, 1);
        assert!(!b.get(2, 6), "the losing request stays pending");
    }

    #[test]
    fn rotation_changes_the_winner() {
        let mut b = BitMatrix::square(8);
        // With priority rotated to row 3, input 3 beats input 0.
        let out = pass(&[(0, 5), (3, 5)], &mut b, Priority { row: 3, col: 0 });
        assert_eq!(out.established, vec![(3, 5)]);
        assert_eq!(out.denied, 1);
        assert!(!b.get(0, 5), "the losing request stays pending");
    }

    #[test]
    fn column_rotation_changes_the_winner() {
        let mut b = BitMatrix::square(8);
        let out = pass(&[(2, 1), (2, 6)], &mut b, Priority { row: 0, col: 6 });
        assert_eq!(out.established, vec![(2, 6)]);
        assert_eq!(out.denied, 1);
        assert!(!b.get(2, 1), "the losing request stays pending");
    }

    #[test]
    fn release_frees_ports_for_later_establish_same_pass() {
        // (0,5) is established but no longer requested; (3,5) is newly
        // requested. Row 0 is scanned first, releasing output 5, so row 3
        // can claim it in the same pass.
        let mut b = BitMatrix::from_pairs(8, 8, [(0, 5)]);
        let out = pass(&[(3, 5)], &mut b, Priority::default());
        assert_eq!(out.released, vec![(0, 5)]);
        assert_eq!(out.established, vec![(3, 5)]);
        assert!(!b.get(0, 5) && b.get(3, 5));
    }

    #[test]
    fn establish_blocked_when_release_scans_later() {
        // Same as above but priority starts at row 3: the establish at
        // (3,5) is evaluated before the release at (0,5), so it is denied
        // this pass; the release still happens.
        let mut b = BitMatrix::from_pairs(8, 8, [(0, 5)]);
        let out = pass(&[(3, 5)], &mut b, Priority { row: 3, col: 0 });
        assert_eq!(out.denied, 1);
        assert!(!b.get(3, 5), "the losing request stays pending");
        assert_eq!(out.released, vec![(0, 5)]);
        // A second pass succeeds.
        let out2 = pass(&[(3, 5)], &mut b, Priority { row: 3, col: 0 });
        assert_eq!(out2.established, vec![(3, 5)]);
    }

    #[test]
    fn erratum_establish_with_busy_ports_denied_not_toggled() {
        // (0,5) and (3,1) persist (still requested); (3,5) is new but both
        // its input (row 3) and output (column 5) are busy.
        let mut b = BitMatrix::from_pairs(8, 8, [(0, 5), (3, 1)]);
        let out = pass(&[(0, 5), (3, 1), (3, 5)], &mut b, Priority::default());
        assert_eq!(out.denied, 1);
        assert!(!b.get(3, 5), "the losing request stays pending");
        assert!(out.established.is_empty() && out.released.is_empty());
        assert!(!b.get(3, 5), "erratum: spurious toggle would corrupt B");
        assert!(b.is_partial_permutation());
    }

    #[test]
    fn full_permutation_request_fills_in_one_pass() {
        let n = 64;
        let mut b = BitMatrix::square(n);
        let reqs: Vec<(usize, usize)> = (0..n).map(|u| (u, (u + 7) % n)).collect();
        let out = pass(&reqs, &mut b, Priority { row: 13, col: 40 });
        assert_eq!(out.established.len(), n);
        assert!(b.is_permutation());
    }

    #[test]
    fn quiescent_pass_reports_nothing() {
        let mut b = BitMatrix::from_pairs(8, 8, [(1, 1)]);
        let out = pass(&[(1, 1)], &mut b, Priority::default());
        assert!(out.is_quiescent());
        assert!(b.get(1, 1));
    }

    #[test]
    fn ripple_depth_counts_visited_cells() {
        let mut b = BitMatrix::square(8);
        // Quiescent request set: pre-scheduling filters everything out.
        let out = pass(&[], &mut b, Priority::default());
        assert_eq!(out.cells_visited, 0);
        // Three change requests -> three L=1 cells on the ripple path.
        let out = pass(&[(0, 1), (1, 2), (7, 0)], &mut b, Priority::default());
        assert_eq!(out.cells_visited, 3);
        // Persisting connections are not revisited; a fourth request adds
        // exactly one cell.
        let out = pass(
            &[(0, 1), (1, 2), (7, 0), (2, 4)],
            &mut b,
            Priority::default(),
        );
        assert_eq!(out.cells_visited, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_priority_panics() {
        let b = BitMatrix::square(4);
        sl_pass(&SlInputs::new(4), &b, Priority { row: 4, col: 0 });
    }

    /// The fast pass and the reference pass agree field-for-field on a
    /// wrap-heavy case (priority mid-word, cells on both wrap segments,
    /// non-multiple-of-64 size). The exhaustive check is the proptest in
    /// `tests/prop.rs`.
    #[test]
    fn fast_matches_reference_on_wrapped_priority() {
        let n = 70;
        let b = BitMatrix::from_pairs(n, n, [(0, 5), (65, 65), (30, 40)]);
        let l = BitMatrix::from_pairs(
            n,
            n,
            [
                (0, 5),
                (65, 65),
                (3, 40),
                (3, 41),
                (69, 0),
                (69, 69),
                (40, 40),
            ],
        );
        for priority in [
            Priority::default(),
            Priority { row: 66, col: 41 },
            Priority { row: 3, col: 69 },
        ] {
            let fast = sl_pass(&SlInputs::from_l(l.clone(), &b), &b, priority);
            let refr = reference::sl_pass(&l, &b, priority);
            let mut committed = b.clone();
            commit(&mut committed, &fast);
            committed.xor_assign(&b);
            assert_eq!(committed, refr.toggles);
            assert_eq!(fast.established, refr.established);
            assert_eq!(fast.released, refr.released);
            assert_eq!(fast.denied, refr.denied.len());
            assert_eq!(fast.cells_visited, refr.cells_visited);
        }
    }
}

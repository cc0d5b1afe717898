//! Naive per-bit reference kernels — the "before" side of the perf
//! harness.
//!
//! Each function here evaluates one hot-path kernel the way the original
//! scalar model did: one `get`/`set` per cell, visiting the full `N x N`
//! grid. The word-parallel library implementations in `pms-bitmat` and
//! `pms-sched` are benchmarked against these (see `benches/` and the
//! `bench_baseline` binary that writes `BENCH_*.json`), and equivalence
//! is proptest-enforced in the respective crates' test suites. Keep these
//! scalar on purpose: they are the baseline, not code to optimize.

use pms_bitmat::{BitMatrix, BitVec};
use pms_sched::{sl_cell, CellAction, CellInput, Priority, SlPassOutput};

/// Per-bit row OR reduction (`AI` vector): one `get` per cell.
pub fn row_or(m: &BitMatrix) -> BitVec {
    let mut v = BitVec::new(m.rows());
    for r in 0..m.rows() {
        for c in 0..m.cols() {
            if m.get(r, c) {
                v.set(r, true);
                break;
            }
        }
    }
    v
}

/// Per-bit column OR reduction (`AO` vector): one `get` per cell.
pub fn col_or(m: &BitMatrix) -> BitVec {
    let mut v = BitVec::new(m.cols());
    for r in 0..m.rows() {
        for c in 0..m.cols() {
            if m.get(r, c) {
                v.set(c, true);
            }
        }
    }
    v
}

/// Per-bit union `B* = OR of B^(i)`: one `get`/`set` per cell per matrix.
///
/// # Panics
/// Panics on an empty iterator, like [`BitMatrix::union`].
pub fn union<'a, I: IntoIterator<Item = &'a BitMatrix>>(mats: I) -> BitMatrix {
    let mut it = mats.into_iter();
    let first = it.next().expect("union of zero matrices");
    let mut acc = BitMatrix::new(first.rows(), first.cols());
    for m in std::iter::once(first).chain(it) {
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                if m.get(r, c) {
                    acc.set(r, c, true);
                }
            }
        }
    }
    acc
}

/// Per-bit conflict test: do `a` and `b` share any set cell?
pub fn intersects(a: &BitMatrix, b: &BitMatrix) -> bool {
    for r in 0..a.rows() {
        for c in 0..a.cols() {
            if a.get(r, c) && b.get(r, c) {
                return true;
            }
        }
    }
    false
}

/// Per-bit population count of one row.
pub fn row_count_ones(m: &BitMatrix, r: usize) -> usize {
    (0..m.cols()).filter(|&c| m.get(r, c)).count()
}

/// Per-bit toggle apply `B^(s) ^= T`: one `get`/`toggle` per set cell,
/// found by scanning the full grid.
pub fn xor_assign(b_s: &mut BitMatrix, toggles: &BitMatrix) {
    for r in 0..b_s.rows() {
        for c in 0..b_s.cols() {
            if toggles.get(r, c) {
                b_s.toggle(r, c);
            }
        }
    }
}

/// The fully scalar SL array pass: visit every one of the `N x N` cells
/// in rotated ripple order and evaluate `sl_cell` only where `L = 1`.
///
/// Output — including `cells_visited` — is identical to
/// [`pms_sched::sl_pass`] and `pms_sched::slarray::reference::sl_pass`;
/// the cost is the `O(N^2)` grid walk with a `get` per cell.
pub fn sl_pass(l: &BitMatrix, b_s: &BitMatrix, priority: Priority) -> SlPassOutput {
    let n = b_s.rows();
    assert_eq!(b_s.cols(), n, "B^(s) must be square");
    assert_eq!((l.rows(), l.cols()), (n, n), "L must match B^(s)");

    let mut col_busy = col_or(b_s);
    let row_busy_init = row_or(b_s);

    let mut established = Vec::new();
    let mut released = Vec::new();
    let mut denied = 0usize;
    let mut cells_visited = 0usize;

    for du in 0..n {
        let u = (priority.row + du) % n;
        let mut d = row_busy_init.get(u);
        for dv in 0..n {
            let v = (priority.col + dv) % n;
            if !l.get(u, v) {
                continue;
            }
            cells_visited += 1;
            let out = sl_cell(CellInput {
                l: true,
                a: col_busy.get(v),
                d,
                b_s: b_s.get(u, v),
            });
            col_busy.set(v, out.a_next);
            d = out.d_next;
            match out.action {
                CellAction::Establish => established.push((u, v)),
                CellAction::Release => released.push((u, v)),
                CellAction::Denied => denied += 1,
                CellAction::NoChange => unreachable!("only L=1 cells are evaluated"),
            }
        }
    }

    SlPassOutput {
        established,
        released,
        denied,
        cells_visited,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sparse(n: usize) -> BitMatrix {
        BitMatrix::from_pairs(n, n, (0..n).step_by(9).map(|u| (u, (u * 7 + 3) % n)))
    }

    #[test]
    fn naive_kernels_match_library_on_mixed_sizes() {
        for n in [5usize, 64, 70, 128] {
            let a = sparse(n);
            let b = BitMatrix::from_pairs(n, n, (0..n).map(|u| (u, (u + 1) % n)));
            assert_eq!(
                row_or(&a).iter_ones().collect::<Vec<_>>(),
                a.row_or().iter_ones().collect::<Vec<_>>()
            );
            assert_eq!(
                col_or(&a).iter_ones().collect::<Vec<_>>(),
                a.col_or().iter_ones().collect::<Vec<_>>()
            );
            assert_eq!(union([&a, &b]), BitMatrix::union([&a, &b]));
            assert_eq!(intersects(&a, &b), a.intersects(&b));
            for r in 0..n {
                assert_eq!(row_count_ones(&a, r), a.row_count_ones(r));
            }
            let mut x = a.clone();
            let mut y = a.clone();
            x.xor_assign(&b);
            xor_assign(&mut y, &b);
            assert_eq!(x, y);
        }
    }

    #[test]
    fn naive_sl_pass_matches_fast_pass() {
        for n in [8usize, 70, 128] {
            let l = sparse(n);
            let b_s = BitMatrix::from_pairs(n, n, (0..n / 2).map(|u| (u, (u + 2) % n)));
            for pri in [Priority::default(), Priority { row: n - 1, col: 3 }] {
                let naive = sl_pass(&l, &b_s, pri);
                let inputs = pms_sched::SlInputs::from_l(l.clone(), &b_s);
                let fast = pms_sched::sl_pass(&inputs, &b_s, pri);
                assert_eq!(naive.established, fast.established);
                assert_eq!(naive.released, fast.released);
                assert_eq!(naive.denied, fast.denied);
                assert_eq!(naive.cells_visited, fast.cells_visited);
            }
        }
    }
}

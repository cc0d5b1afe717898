//! Property-based tests for the bit-matrix kernel.

use pms_bitmat::{BitMatrix, BitVec};
use proptest::prelude::*;

/// Strategy: a list of distinct bit indices below `len`.
fn indices(len: usize) -> impl Strategy<Value = Vec<usize>> {
    prop::collection::btree_set(0..len, 0..len.min(64)).prop_map(|s| s.into_iter().collect())
}

/// Strategy: (rows, cols, set-cells) for a sparse matrix.
fn sparse_matrix() -> impl Strategy<Value = (usize, usize, Vec<(usize, usize)>)> {
    (1usize..150, 1usize..150).prop_flat_map(|(r, c)| {
        let cells = prop::collection::btree_set((0..r, 0..c), 0..64)
            .prop_map(|s| s.into_iter().collect::<Vec<_>>());
        (Just(r), Just(c), cells)
    })
}

proptest! {
    #[test]
    fn bitvec_set_then_iter_ones_roundtrips(idx in indices(300)) {
        let v = BitVec::from_indices(300, idx.iter().copied());
        let got: Vec<usize> = v.iter_ones().collect();
        prop_assert_eq!(got, idx.clone());
        prop_assert_eq!(v.count_ones(), idx.len());
    }

    #[test]
    fn bitvec_or_is_set_union(a in indices(200), b in indices(200)) {
        let mut va = BitVec::from_indices(200, a.iter().copied());
        let vb = BitVec::from_indices(200, b.iter().copied());
        va.or_assign(&vb);
        let mut expect: Vec<usize> = a.iter().chain(b.iter()).copied().collect();
        expect.sort_unstable();
        expect.dedup();
        prop_assert_eq!(va.iter_ones().collect::<Vec<_>>(), expect);
    }

    #[test]
    fn bitvec_and_not_is_set_difference(a in indices(200), b in indices(200)) {
        let mut va = BitVec::from_indices(200, a.iter().copied());
        let vb = BitVec::from_indices(200, b.iter().copied());
        va.and_not_assign(&vb);
        let expect: Vec<usize> = a.iter().copied().filter(|i| !b.contains(i)).collect();
        prop_assert_eq!(va.iter_ones().collect::<Vec<_>>(), expect);
    }

    #[test]
    fn matrix_iter_ones_roundtrips((r, c, cells) in sparse_matrix()) {
        let m = BitMatrix::from_pairs(r, c, cells.iter().copied());
        prop_assert_eq!(m.iter_ones().collect::<Vec<_>>(), cells.clone());
        prop_assert_eq!(m.count_ones(), cells.len());
    }

    #[test]
    fn matrix_row_col_or_match_naive((r, c, cells) in sparse_matrix()) {
        let m = BitMatrix::from_pairs(r, c, cells.iter().copied());
        let ai = m.row_or();
        let ao = m.col_or();
        for u in 0..r {
            let expect = cells.iter().any(|&(cr, _)| cr == u);
            prop_assert_eq!(ai.get(u), expect, "AI[{}]", u);
        }
        for v in 0..c {
            let expect = cells.iter().any(|&(_, cc)| cc == v);
            prop_assert_eq!(ao.get(v), expect, "AO[{}]", v);
        }
    }

    #[test]
    fn matrix_partial_permutation_matches_naive((r, c, cells) in sparse_matrix()) {
        let m = BitMatrix::from_pairs(r, c, cells.iter().copied());
        let naive = {
            let mut rows = vec![0usize; r];
            let mut cols = vec![0usize; c];
            for &(cr, cc) in &cells {
                rows[cr] += 1;
                cols[cc] += 1;
            }
            rows.iter().all(|&x| x <= 1) && cols.iter().all(|&x| x <= 1)
        };
        prop_assert_eq!(m.is_partial_permutation(), naive);
    }

    #[test]
    fn matrix_transpose_involution((r, c, cells) in sparse_matrix()) {
        let m = BitMatrix::from_pairs(r, c, cells);
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    /// Word-level per-row queries agree with per-bit scans, including on
    /// widths that are not multiples of 64 (tail-mask correctness).
    #[test]
    fn word_row_queries_match_naive((r, c, cells) in sparse_matrix()) {
        let m = BitMatrix::from_pairs(r, c, cells.iter().copied());
        for u in 0..r {
            let naive_any = (0..c).any(|v| m.get(u, v));
            let naive_count = (0..c).filter(|&v| m.get(u, v)).count();
            prop_assert_eq!(m.any_in_row(u), naive_any, "any_in_row[{}]", u);
            prop_assert_eq!(m.row_count_ones(u), naive_count, "row_count_ones[{}]", u);
            let row = m.row(u);
            prop_assert_eq!(row.count_ones(), naive_count);
            for v in 0..c {
                prop_assert_eq!(row.get(v), m.get(u, v));
            }
        }
        for v in 0..c {
            let naive_any = (0..r).any(|u| m.get(u, v));
            prop_assert_eq!(m.col_any(v), naive_any, "col_any[{}]", v);
        }
    }

    /// `intersects` is exactly "any cell set in both operands".
    #[test]
    fn word_intersects_matches_naive((r, c, cells) in sparse_matrix()) {
        let half = cells.len() / 2;
        let a = BitMatrix::from_pairs(r, c, cells[..half].iter().copied());
        let b = BitMatrix::from_pairs(r, c, cells[half..].iter().copied());
        // Distinct halves never intersect; overlay one shared cell to
        // exercise the true branch too.
        prop_assert!(!a.intersects(&b));
        prop_assert!(!b.intersects(&a));
        if let Some(&(u, v)) = cells.first() {
            let mut b2 = b.clone();
            b2.set(u, v, true);
            let mut a2 = a.clone();
            a2.set(u, v, true);
            prop_assert!(a2.intersects(&b2));
        }
    }

    /// Word-level `xor_assign` (the toggle-commit kernel) equals per-cell
    /// toggling.
    #[test]
    fn word_xor_assign_matches_per_cell_toggle((r, c, cells) in sparse_matrix()) {
        let half = cells.len() / 2;
        let mut base = BitMatrix::from_pairs(r, c, cells[..half].iter().copied());
        let toggles = BitMatrix::from_pairs(r, c, cells[half..].iter().copied());
        let mut expect = base.clone();
        for (u, v) in toggles.iter_ones() {
            expect.toggle(u, v);
        }
        base.xor_assign(&toggles);
        prop_assert_eq!(&base, &expect);
        // xor is an involution: applying the same toggles again restores.
        base.xor_assign(&toggles);
        let orig = BitMatrix::from_pairs(r, c, cells[..half].iter().copied());
        prop_assert_eq!(&base, &orig);
    }

    /// `BitVec::from_words` truncates stray bits beyond `len`.
    #[test]
    fn bitvec_from_words_masks_tail((len, words) in (1usize..200).prop_flat_map(|len| {
        (Just(len), prop::collection::vec(0u64..u64::MAX, len.div_ceil(64)))
    })) {
        let v = BitVec::from_words(len, words.clone());
        for i in v.iter_ones() {
            prop_assert!(i < len, "bit {} beyond len {}", i, len);
        }
        for i in 0..len {
            let expect = words[i / 64] >> (i % 64) & 1 == 1;
            prop_assert_eq!(v.get(i), expect);
        }
    }

    #[test]
    fn union_count_at_most_sum((r, c, cells) in sparse_matrix()) {
        // Three operands: two disjoint halves and every third cell, which
        // overlaps both. Every cell of the union is the OR of its operands.
        let half = cells.len() / 2;
        let a = BitMatrix::from_pairs(r, c, cells[..half].iter().copied());
        let b = BitMatrix::from_pairs(r, c, cells[half..].iter().copied());
        let third = BitMatrix::from_pairs(r, c, cells.iter().step_by(3).copied());
        let u = BitMatrix::union([&a, &b, &third]);
        prop_assert_eq!(u.count_ones(), cells.len()); // cells are distinct
        prop_assert!(u.count_ones() <= a.count_ones() + b.count_ones() + third.count_ones());
        for i in 0..r {
            for j in 0..c {
                let or = a.get(i, j) || b.get(i, j) || third.get(i, j);
                prop_assert_eq!(u.get(i, j), or, "cell ({}, {})", i, j);
            }
        }
    }
}

//! Dense Boolean matrix with word-parallel row operations.

use crate::bitvec::BitVec;
use crate::{words_for, WORD_BITS};
use std::fmt;

/// A dense `rows x cols` Boolean matrix.
///
/// Rows are stored contiguously, each padded to a whole number of `u64`
/// words, so row-wise OR/AND are word-parallel and a row can be extracted
/// as a [`BitVec`] cheaply.
///
/// In the paper's notation a crossbar configuration is a matrix `B` with at
/// most one `1` per row and per column ([`is_partial_permutation`]);
/// `B[u][v] == 1` connects input port `u` to output port `v`.
///
/// [`is_partial_permutation`]: BitMatrix::is_partial_permutation
///
/// ```
/// use pms_bitmat::BitMatrix;
/// let mut b = BitMatrix::new(4, 4);
/// b.set(0, 2, true);
/// b.set(3, 1, true);
/// assert!(b.is_partial_permutation());
/// assert_eq!(b.row_or().iter_ones().collect::<Vec<_>>(), vec![0, 3]); // AI
/// assert_eq!(b.col_or().iter_ones().collect::<Vec<_>>(), vec![1, 2]); // AO
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    row_words: usize,
    words: Vec<u64>,
}

impl BitMatrix {
    /// Creates an all-zero `rows x cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        let row_words = words_for(cols);
        Self {
            rows,
            cols,
            row_words,
            words: vec![0; rows * row_words],
        }
    }

    /// Creates a square all-zero `n x n` matrix.
    pub fn square(n: usize) -> Self {
        Self::new(n, n)
    }

    /// Creates the `n x n` identity (each input `i` connected to output `i`).
    pub fn identity(n: usize) -> Self {
        let mut m = Self::square(n);
        for i in 0..n {
            m.set(i, i, true);
        }
        m
    }

    /// Builds a matrix from `(row, col)` pairs.
    ///
    /// # Panics
    /// Panics if any pair is out of range.
    pub fn from_pairs<I: IntoIterator<Item = (usize, usize)>>(
        rows: usize,
        cols: usize,
        pairs: I,
    ) -> Self {
        let mut m = Self::new(rows, cols);
        for (r, c) in pairs {
            m.set(r, c, true);
        }
        m
    }

    /// Number of rows (input ports).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (output ports).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Reads entry `(r, c)`.
    ///
    /// # Panics
    /// Panics if out of range.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> bool {
        self.check(r, c);
        let w = self.words[r * self.row_words + c / WORD_BITS];
        (w >> (c % WORD_BITS)) & 1 == 1
    }

    /// Writes entry `(r, c)`.
    ///
    /// # Panics
    /// Panics if out of range.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, value: bool) {
        self.check(r, c);
        let w = &mut self.words[r * self.row_words + c / WORD_BITS];
        let mask = 1u64 << (c % WORD_BITS);
        if value {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    /// Flips entry `(r, c)` and returns its new value.
    ///
    /// This is the hardware `T` (toggle) signal of the paper's scheduling
    /// logic applied to a configuration register bit.
    pub fn toggle(&mut self, r: usize, c: usize) -> bool {
        let new = !self.get(r, c);
        self.set(r, c, new);
        new
    }

    #[inline]
    fn check(&self, r: usize, c: usize) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of range for {}x{} matrix",
            self.rows,
            self.cols
        );
    }

    /// Sets every entry to zero.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// True if no entry is set.
    pub fn all_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of set entries (established connections).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Copies row `r` into a new [`BitVec`] of length `cols` (a straight
    /// word copy of the packed storage).
    pub fn row(&self, r: usize) -> BitVec {
        assert!(r < self.rows, "row {r} out of range");
        BitVec::from_words(self.cols, self.row_words(r).to_vec())
    }

    /// Raw words of row `r`.
    #[inline]
    pub fn row_words(&self, r: usize) -> &[u64] {
        &self.words[r * self.row_words..(r + 1) * self.row_words]
    }

    /// ORs row `src` of `other` into row `r` (word-parallel).
    ///
    /// # Panics
    /// Panics if the column counts differ or a row is out of range.
    pub fn or_row_from(&mut self, r: usize, other: &BitMatrix, src: usize) {
        assert_eq!(self.cols, other.cols, "column count mismatch");
        assert!(r < self.rows, "row {r} out of range");
        let row = &mut self.words[r * self.row_words..(r + 1) * self.row_words];
        for (a, &b) in row.iter_mut().zip(other.row_words(src)) {
            *a |= b;
        }
    }

    /// Iterator over the set column indices of row `r`.
    pub fn iter_row_ones(&self, r: usize) -> impl Iterator<Item = usize> + '_ {
        assert!(r < self.rows, "row {r} out of range");
        let words = self.row_words(r);
        words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * WORD_BITS + bit)
                }
            })
        })
    }

    /// Iterator over all set `(row, col)` pairs in row-major order.
    pub fn iter_ones(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.rows).flat_map(move |r| self.iter_row_ones(r).map(move |c| (r, c)))
    }

    /// The `AI` vector of the paper: bit `u` is 1 iff row `u` has any entry
    /// set (input port `u` is occupied in this configuration). Each row is
    /// OR-folded word-by-word and the result bit is packed directly.
    pub fn row_or(&self) -> BitVec {
        let mut prof = pms_trace::prof::ProfScope::enter(pms_trace::prof::ProfKernel::BitmatReduce);
        prof.add_words(self.words.len() as u64);
        let mut out = vec![0u64; words_for(self.rows)];
        for r in 0..self.rows {
            let occupied = self.row_words(r).iter().fold(0u64, |a, &w| a | w);
            out[r / WORD_BITS] |= u64::from(occupied != 0) << (r % WORD_BITS);
        }
        BitVec::from_words(self.rows, out)
    }

    /// The `AO` vector of the paper: bit `v` is 1 iff column `v` has any
    /// entry set (output port `v` is occupied in this configuration) — a
    /// word-parallel OR accumulation over the rows, adopted wholesale as
    /// the result's storage.
    pub fn col_or(&self) -> BitVec {
        let mut prof = pms_trace::prof::ProfScope::enter(pms_trace::prof::ProfKernel::BitmatReduce);
        prof.add_words(self.words.len() as u64);
        let mut acc = vec![0u64; self.row_words];
        for r in 0..self.rows {
            for (a, &w) in acc.iter_mut().zip(self.row_words(r)) {
                *a |= w;
            }
        }
        BitVec::from_words(self.cols, acc)
    }

    /// True if row `r` has any entry set — the single-row `AI` query the
    /// scheduler's heal/conflict paths need, without building a vector.
    ///
    /// # Panics
    /// Panics if `r >= rows`.
    #[inline]
    pub fn any_in_row(&self, r: usize) -> bool {
        assert!(r < self.rows, "row {r} out of range");
        self.row_words(r).iter().any(|&w| w != 0)
    }

    /// Number of set entries in row `r` (word-parallel popcount).
    ///
    /// # Panics
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row_count_ones(&self, r: usize) -> usize {
        assert!(r < self.rows, "row {r} out of range");
        self.row_words(r)
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// True if column `c` has any entry set — the single-column `AO`
    /// query, probing one word per row.
    ///
    /// # Panics
    /// Panics if `c >= cols`.
    #[inline]
    pub fn col_any(&self, c: usize) -> bool {
        assert!(c < self.cols, "column {c} out of range");
        let (wi, mask) = (c / WORD_BITS, 1u64 << (c % WORD_BITS));
        (0..self.rows).any(|r| self.words[r * self.row_words + wi] & mask != 0)
    }

    /// True if any entry is set in both matrices (word-parallel AND/any) —
    /// the conflict test between a request set and a configuration.
    ///
    /// # Panics
    /// Panics if the dimensions differ.
    pub fn intersects(&self, other: &BitMatrix) -> bool {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "BitMatrix dimension mismatch"
        );
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// `self ^= other`, the word-parallel toggle apply: flips every entry
    /// set in `other` (the hardware commit of a pass's `T` matrix onto a
    /// configuration register).
    ///
    /// # Panics
    /// Panics if the dimensions differ.
    pub fn xor_assign(&mut self, other: &BitMatrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "BitMatrix dimension mismatch"
        );
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= b;
        }
    }

    /// `self |= other`, the bit-wise OR used to form `B*`.
    ///
    /// # Panics
    /// Panics if the dimensions differ.
    pub fn or_assign(&mut self, other: &BitMatrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "BitMatrix dimension mismatch"
        );
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Returns the OR of a set of matrices (the paper's `B*`).
    ///
    /// # Panics
    /// Panics if the iterator is empty or dimensions differ.
    pub fn union<'a, I: IntoIterator<Item = &'a BitMatrix>>(mats: I) -> BitMatrix {
        let mut it = mats.into_iter();
        let first = it.next().expect("union of zero matrices");
        let mut acc = first.clone();
        for m in it {
            acc.or_assign(m);
        }
        acc
    }

    /// True if the matrix has at most one set entry per row **and** per
    /// column — i.e. it is a valid crossbar configuration (a partial
    /// permutation).
    pub fn is_partial_permutation(&self) -> bool {
        // Rows: word-parallel popcount per row must be <= 1.
        for r in 0..self.rows {
            let ones: u32 = self.row_words(r).iter().map(|w| w.count_ones()).sum();
            if ones > 1 {
                return false;
            }
        }
        // Columns: accumulate OR and detect collision via AND.
        let mut seen = vec![0u64; self.row_words];
        for r in 0..self.rows {
            for (s, &w) in seen.iter_mut().zip(self.row_words(r)) {
                if *s & w != 0 {
                    return false;
                }
                *s |= w;
            }
        }
        true
    }

    /// True if the matrix is a *full* permutation: exactly one entry per row
    /// and per column (requires a square matrix).
    pub fn is_permutation(&self) -> bool {
        self.rows == self.cols && self.count_ones() == self.rows && self.is_partial_permutation()
    }

    /// Word-parallel two-operand combinator: builds a matrix whose storage
    /// words are `f(a_word, b_word)`. Tail bits beyond `cols` are cleared in
    /// the result, so `f` may produce garbage there (e.g. via `!`).
    ///
    /// # Panics
    /// Panics if the dimensions differ.
    pub fn zip2_with(a: &BitMatrix, b: &BitMatrix, f: impl Fn(u64, u64) -> u64) -> BitMatrix {
        assert_eq!(
            (a.rows, a.cols),
            (b.rows, b.cols),
            "BitMatrix dimension mismatch"
        );
        let mut out = BitMatrix::new(a.rows, a.cols);
        for (o, (&x, &y)) in out.words.iter_mut().zip(a.words.iter().zip(&b.words)) {
            *o = f(x, y);
        }
        out.mask_row_tails();
        out
    }

    /// Word-parallel three-operand combinator; see [`zip2_with`](Self::zip2_with).
    ///
    /// # Panics
    /// Panics if the dimensions differ.
    pub fn zip3_with(
        a: &BitMatrix,
        b: &BitMatrix,
        c: &BitMatrix,
        f: impl Fn(u64, u64, u64) -> u64,
    ) -> BitMatrix {
        assert_eq!(
            (a.rows, a.cols),
            (b.rows, b.cols),
            "BitMatrix dimension mismatch"
        );
        assert_eq!(
            (a.rows, a.cols),
            (c.rows, c.cols),
            "BitMatrix dimension mismatch"
        );
        let mut out = BitMatrix::new(a.rows, a.cols);
        for (i, o) in out.words.iter_mut().enumerate() {
            *o = f(a.words[i], b.words[i], c.words[i]);
        }
        out.mask_row_tails();
        out
    }

    /// Clears the padding bits at the end of each row's last word.
    fn mask_row_tails(&mut self) {
        let mask = crate::tail_mask(self.cols);
        if mask == u64::MAX || self.row_words == 0 {
            return;
        }
        for r in 0..self.rows {
            self.words[r * self.row_words + self.row_words - 1] &= mask;
        }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> BitMatrix {
        let mut t = BitMatrix::new(self.cols, self.rows);
        for (r, c) in self.iter_ones() {
            t.set(c, r, true);
        }
        t
    }
}

impl fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "BitMatrix {}x{} {{", self.rows, self.cols)?;
        for r in 0..self.rows {
            let cols: Vec<usize> = self.iter_row_ones(r).collect();
            if !cols.is_empty() {
                writeln!(f, "  {r} -> {cols:?}")?;
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_zero() {
        let m = BitMatrix::new(128, 128);
        assert!(m.all_zero());
        assert_eq!(m.count_ones(), 0);
        assert!(m.is_partial_permutation());
        assert!(!m.is_permutation());
    }

    #[test]
    fn identity_is_permutation() {
        let m = BitMatrix::identity(64);
        assert!(m.is_permutation());
        assert_eq!(m.count_ones(), 64);
        assert_eq!(m.row_or().count_ones(), 64);
        assert_eq!(m.col_or().count_ones(), 64);
    }

    #[test]
    fn set_get_toggle() {
        let mut m = BitMatrix::new(10, 130);
        m.set(3, 129, true);
        assert!(m.get(3, 129));
        assert!(!m.toggle(3, 129));
        assert!(!m.get(3, 129));
        assert!(m.toggle(3, 0));
        assert!(m.get(3, 0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range() {
        BitMatrix::new(4, 4).get(4, 0);
    }

    #[test]
    fn row_and_col_or() {
        let m = BitMatrix::from_pairs(8, 8, [(1, 2), (3, 2), (5, 7)]);
        assert_eq!(m.row_or().iter_ones().collect::<Vec<_>>(), vec![1, 3, 5]);
        assert_eq!(m.col_or().iter_ones().collect::<Vec<_>>(), vec![2, 7]);
    }

    #[test]
    fn single_row_col_queries() {
        let m = BitMatrix::from_pairs(70, 70, [(1, 2), (3, 65), (69, 7)]);
        assert!(m.any_in_row(1) && m.any_in_row(3) && m.any_in_row(69));
        assert!(!m.any_in_row(0) && !m.any_in_row(68));
        assert_eq!(m.row_count_ones(1), 1);
        assert_eq!(m.row_count_ones(2), 0);
        assert!(m.col_any(2) && m.col_any(65) && m.col_any(7));
        assert!(!m.col_any(0) && !m.col_any(69));
    }

    #[test]
    fn intersects_detects_overlap() {
        let a = BitMatrix::from_pairs(5, 70, [(0, 69), (2, 3)]);
        let b = BitMatrix::from_pairs(5, 70, [(0, 69)]);
        let c = BitMatrix::from_pairs(5, 70, [(1, 69)]);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(!a.intersects(&BitMatrix::new(5, 70)));
    }

    #[test]
    fn xor_assign_is_toggle_apply() {
        let mut cfg = BitMatrix::from_pairs(4, 4, [(0, 1), (2, 3)]);
        let toggles = BitMatrix::from_pairs(4, 4, [(0, 1), (1, 0)]);
        cfg.xor_assign(&toggles);
        assert_eq!(cfg.iter_ones().collect::<Vec<_>>(), vec![(1, 0), (2, 3)]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn xor_dimension_mismatch_panics() {
        BitMatrix::square(4).xor_assign(&BitMatrix::square(5));
    }

    #[test]
    fn partial_permutation_checks() {
        let ok = BitMatrix::from_pairs(8, 8, [(0, 1), (1, 0), (7, 7)]);
        assert!(ok.is_partial_permutation());

        let row_conflict = BitMatrix::from_pairs(8, 8, [(0, 1), (0, 2)]);
        assert!(!row_conflict.is_partial_permutation());

        let col_conflict = BitMatrix::from_pairs(8, 8, [(0, 1), (5, 1)]);
        assert!(!col_conflict.is_partial_permutation());
    }

    #[test]
    fn partial_permutation_across_word_boundary() {
        // Columns 63 and 64 land in different words; 64+64 in second word.
        let ok = BitMatrix::from_pairs(4, 130, [(0, 63), (1, 64), (2, 129)]);
        assert!(ok.is_partial_permutation());
        let bad = BitMatrix::from_pairs(4, 130, [(0, 129), (3, 129)]);
        assert!(!bad.is_partial_permutation());
    }

    #[test]
    fn union_forms_bstar() {
        let a = BitMatrix::from_pairs(4, 4, [(0, 1)]);
        let b = BitMatrix::from_pairs(4, 4, [(1, 0)]);
        let c = BitMatrix::from_pairs(4, 4, [(0, 1), (2, 3)]);
        let u = BitMatrix::union([&a, &b, &c]);
        assert_eq!(
            u.iter_ones().collect::<Vec<_>>(),
            vec![(0, 1), (1, 0), (2, 3)]
        );
    }

    #[test]
    #[should_panic(expected = "union of zero matrices")]
    fn union_empty_panics() {
        BitMatrix::union(std::iter::empty::<&BitMatrix>());
    }

    #[test]
    fn transpose_roundtrip() {
        let m = BitMatrix::from_pairs(5, 9, [(0, 8), (4, 0), (2, 3)]);
        let t = m.transpose();
        assert_eq!(t.rows(), 9);
        assert_eq!(t.cols(), 5);
        assert!(t.get(8, 0) && t.get(0, 4) && t.get(3, 2));
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn iter_ones_row_major() {
        let m = BitMatrix::from_pairs(4, 4, [(2, 1), (0, 3), (2, 0)]);
        assert_eq!(
            m.iter_ones().collect::<Vec<_>>(),
            vec![(0, 3), (2, 0), (2, 1)]
        );
    }

    #[test]
    fn row_extraction() {
        let m = BitMatrix::from_pairs(3, 70, [(1, 0), (1, 69)]);
        let r = m.row(1);
        assert_eq!(r.len(), 70);
        assert_eq!(r.iter_ones().collect::<Vec<_>>(), vec![0, 69]);
        assert!(m.row(0).all_zero());
    }

    #[test]
    fn clear_resets() {
        let mut m = BitMatrix::identity(16);
        m.clear();
        assert!(m.all_zero());
    }

    #[test]
    fn zip2_with_not_masks_tails() {
        // cols=70: row tails have 58 garbage bits after NOT; they must be 0.
        let a = BitMatrix::from_pairs(3, 70, [(0, 0), (1, 69)]);
        let b = BitMatrix::new(3, 70);
        let nand = BitMatrix::zip2_with(&a, &b, |x, y| !(x & y));
        assert_eq!(nand.count_ones(), 3 * 70);
    }

    #[test]
    fn zip3_with_computes_presched_l() {
        // L = (!R & Bs) | (R & !Bstar), the Table-1 formula.
        let n = 70;
        let r = BitMatrix::from_pairs(n, n, [(0, 1), (2, 3)]);
        let bstar = BitMatrix::from_pairs(n, n, [(0, 1), (5, 6)]);
        let bs = BitMatrix::from_pairs(n, n, [(5, 6)]);
        let l = BitMatrix::zip3_with(&r, &bstar, &bs, |rw, bst, bsw| (!rw & bsw) | (rw & !bst));
        // (0,1): requested & established -> keep (0); (2,3): requested, not
        // in B* -> establish (1); (5,6): not requested, in slot -> release (1).
        assert_eq!(l.iter_ones().collect::<Vec<_>>(), vec![(2, 3), (5, 6)]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn zip2_dimension_mismatch_panics() {
        let _ = BitMatrix::zip2_with(&BitMatrix::square(4), &BitMatrix::square(5), |a, _| a);
    }
}

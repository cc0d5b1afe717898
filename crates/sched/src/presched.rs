//! The pre-scheduling logic of Table 1.
//!
//! For every port pair `(u, v)` the pre-scheduling logic compares the
//! request bit `R[u][v]`, the union bit `B*[u][v]` (connection established
//! in *some* slot) and the slot bit `B^(s)[u][v]` (connection established in
//! the slot currently being scheduled), and emits `L[u][v] = 1` iff the SL
//! array should change the state of that pair in slot `s`:
//!
//! | `R` | `B*` | `B^(s)` | case | `L` |
//! |-----|------|---------|------|-----|
//! | 0 | x | 0 | not requested, not in slot s          | 0 |
//! | 0 | x | 1 | not requested, realized in s: release | 1 |
//! | 1 | 1 | x | requested, realized somewhere: keep   | 0 |
//! | 1 | 0 | 0 | requested, nowhere realized: establish| 1 |
//!
//! i.e. `L = (!R & B^(s)) | (R & !B*)`. [`SlInputs::presched`] evaluates
//! it for a whole register in one sweep that also gathers the occupancy
//! vectors the SL array starts from.

use pms_bitmat::{BitMatrix, BitVec};

/// Storage word width of [`BitMatrix`] rows and [`BitVec`]s.
const WORD_BITS: usize = 64;

/// The four rows of Table 1, for introspection and testing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreschedCase {
    /// Row 1: connection not requested and not realized in slot `s`.
    Idle,
    /// Row 2: connection not requested but realized in slot `s` — release it.
    ShouldRelease,
    /// Row 3: connection requested and already realized in some slot.
    AlreadyEstablished,
    /// Row 4: connection requested and realized in no slot — establish it.
    ShouldEstablish,
}

impl PreschedCase {
    /// The `L` output of Table 1 for this case.
    pub fn l(self) -> bool {
        matches!(
            self,
            PreschedCase::ShouldRelease | PreschedCase::ShouldEstablish
        )
    }
}

/// Classifies one `(R, B*, B^(s))` bit triple per Table 1.
///
/// # Panics
/// Panics on the physically impossible input `B^(s) = 1, B* = 0` (a slot
/// bit that is missing from the union of all slots).
pub fn presched_case(r: bool, b_star: bool, b_s: bool) -> PreschedCase {
    assert!(
        b_star || !b_s,
        "B*[u][v]=0 with B^(s)[u][v]=1 violates the B* = OR(B^(i)) invariant"
    );
    match (r, b_s) {
        (false, false) => PreschedCase::Idle,
        (false, true) => PreschedCase::ShouldRelease,
        (true, _) if b_star => PreschedCase::AlreadyEstablished,
        (true, _) => PreschedCase::ShouldEstablish,
    }
}

/// Computes the full `L` matrix word-parallel: `L = (!R & B^(s)) | (R & !B*)`.
///
/// # Panics
/// Panics if the matrix dimensions differ.
pub fn presched_matrix(r: &BitMatrix, b_star: &BitMatrix, b_s: &BitMatrix) -> BitMatrix {
    BitMatrix::zip3_with(r, b_star, b_s, |rw, bstw, bsw| (!rw & bsw) | (rw & !bstw))
}

/// What one SL pass reads: the change requests `L` and the three
/// occupancy vectors its ripples start from.
///
/// [`presched`](Self::presched) fills all four in one sweep over the
/// register words, so a pass does no reduction of its own and allocates
/// no matrix; a [`Scheduler`](crate::Scheduler) keeps one and rewrites
/// it every pass. Tests and benches that start from a given `L` build one
/// with [`from_l`](Self::from_l).
#[derive(Debug, Clone)]
pub struct SlInputs {
    l: BitMatrix,
    l_rows: BitVec,
    ai: BitVec,
    ao: BitVec,
}

impl SlInputs {
    /// All-zero inputs for an `n`-port array.
    pub fn new(n: usize) -> Self {
        Self {
            l: BitMatrix::square(n),
            l_rows: BitVec::new(n),
            ai: BitVec::new(n),
            ao: BitVec::new(n),
        }
    }

    /// Inputs for a given change-request matrix `l` over slot matrix
    /// `b_s`, reduced with [`BitMatrix::row_or`] and
    /// [`BitMatrix::col_or`].
    ///
    /// # Panics
    /// Panics if `l` and `b_s` differ in shape.
    pub fn from_l(l: BitMatrix, b_s: &BitMatrix) -> Self {
        assert_eq!(
            (l.rows(), l.cols()),
            (b_s.rows(), b_s.cols()),
            "L must match B^(s)"
        );
        Self {
            l_rows: l.row_or(),
            ai: b_s.row_or(),
            ao: b_s.col_or(),
            l,
        }
    }

    /// The fused Table 1 sweep. One pass over the words of `R`, `B*` and
    /// `B^(s)` writes `L = (¬R ∧ B^(s)) ∨ (R ∧ ¬B*)`, OR-ed with the
    /// multi-slot insertion term `R ∧ M ∧ ¬B^(s)` when `multislot` gives
    /// `M`, and gathers `L`'s row occupancy and `AI` and `AO` of
    /// `B^(s)` on the way. Every operand has zero row padding, so `L`
    /// does too.
    ///
    /// # Panics
    /// Panics if any matrix is not `n x n` for this array's `n`.
    pub fn presched(
        &mut self,
        r: &BitMatrix,
        b_star: &BitMatrix,
        b_s: &BitMatrix,
        multislot: Option<&BitMatrix>,
    ) {
        let n = self.l.rows();
        for m in [r, b_star, b_s].into_iter().chain(multislot) {
            assert_eq!((m.rows(), m.cols()), (n, n), "BitMatrix dimension mismatch");
        }
        self.l_rows.clear();
        self.ai.clear();
        self.ao.clear();
        let row_words = n.div_ceil(WORD_BITS);
        if row_words == 0 {
            return;
        }
        let rows = self
            .l
            .words_mut()
            .chunks_exact_mut(row_words)
            .zip(r.words().chunks_exact(row_words))
            .zip(b_star.words().chunks_exact(row_words))
            .zip(b_s.words().chunks_exact(row_words));
        let m_words = multislot.map(BitMatrix::words);
        let (l_rows, ai, ao) = (
            self.l_rows.words_mut(),
            self.ai.words_mut(),
            self.ao.words_mut(),
        );
        for (u, (((l_row, r_row), bst_row), bs_row)) in rows.enumerate() {
            let (mut any_l, mut any_b) = (0u64, 0u64);
            for ((((lw, &rw), &bst), &bs), a) in l_row
                .iter_mut()
                .zip(r_row)
                .zip(bst_row)
                .zip(bs_row)
                .zip(ao.iter_mut())
            {
                *lw = (!rw & bs) | (rw & !bst);
                any_l |= *lw;
                any_b |= bs;
                *a |= bs;
            }
            if let Some(m) = m_words {
                let m_row = &m[u * row_words..(u + 1) * row_words];
                for ((lw, &rw), (&bs, &mw)) in
                    l_row.iter_mut().zip(r_row).zip(bs_row.iter().zip(m_row))
                {
                    *lw |= rw & mw & !bs;
                    any_l |= *lw;
                }
            }
            let bit = 1u64 << (u % WORD_BITS);
            if any_l != 0 {
                l_rows[u / WORD_BITS] |= bit;
            }
            if any_b != 0 {
                ai[u / WORD_BITS] |= bit;
            }
        }
    }

    /// The change-request matrix `L`.
    pub fn l(&self) -> &BitMatrix {
        &self.l
    }

    /// `L`'s row occupancy: bit `u` is set iff row `u` has a change
    /// request.
    pub fn l_rows(&self) -> &BitVec {
        &self.l_rows
    }

    /// `AI` of `B^(s)`: the inputs busy in the slot.
    pub fn ai(&self) -> &BitVec {
        &self.ai
    }

    /// `AO` of `B^(s)`: the outputs busy in the slot.
    pub fn ao(&self) -> &BitVec {
        &self.ao
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustive check of Table 1 over all legal bit triples.
    #[test]
    fn table1_exhaustive() {
        // (R, B*, B^(s)) -> expected L; B*=0 & Bs=1 is illegal.
        let rows = [
            (false, false, false, false), // idle
            (false, true, false, false),  // idle (established elsewhere, not requested, not in s)
            (false, true, true, true),    // release
            (true, true, false, false),   // already established (in another slot)
            (true, true, true, false),    // already established (in this slot)
            (true, false, false, true),   // establish
        ];
        for (r, bstar, bs, expect_l) in rows {
            let case = presched_case(r, bstar, bs);
            assert_eq!(case.l(), expect_l, "R={r} B*={bstar} Bs={bs} -> {case:?}");
        }
    }

    #[test]
    fn table1_case_identities() {
        assert_eq!(presched_case(false, false, false), PreschedCase::Idle);
        assert_eq!(
            presched_case(false, true, true),
            PreschedCase::ShouldRelease
        );
        assert_eq!(
            presched_case(true, true, false),
            PreschedCase::AlreadyEstablished
        );
        assert_eq!(
            presched_case(true, false, false),
            PreschedCase::ShouldEstablish
        );
    }

    #[test]
    #[should_panic(expected = "violates the B*")]
    fn impossible_input_panics() {
        presched_case(false, false, true);
    }

    #[test]
    fn matrix_matches_scalar() {
        let n = 67; // crosses a word boundary
        let r = BitMatrix::from_pairs(n, n, [(0, 1), (1, 2), (3, 3), (66, 0)]);
        let b_star = BitMatrix::from_pairs(n, n, [(1, 2), (5, 5), (3, 3)]);
        let b_s = BitMatrix::from_pairs(n, n, [(5, 5), (3, 3)]);
        let l = presched_matrix(&r, &b_star, &b_s);
        for u in 0..n {
            for v in 0..n {
                let expect = presched_case(r.get(u, v), b_star.get(u, v), b_s.get(u, v)).l();
                assert_eq!(l.get(u, v), expect, "mismatch at ({u},{v})");
            }
        }
        // Spot-check the interesting cells.
        assert!(l.get(0, 1), "new request must be L=1");
        assert!(l.get(66, 0), "new request must be L=1");
        assert!(!l.get(1, 2), "request satisfied in another slot stays");
        assert!(!l.get(3, 3), "request satisfied in this slot stays");
        assert!(l.get(5, 5), "dropped request in this slot releases");
    }
}

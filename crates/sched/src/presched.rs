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
//! i.e. `L = (!R & B^(s)) | (R & !B*)`.

use pms_bitmat::BitMatrix;

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

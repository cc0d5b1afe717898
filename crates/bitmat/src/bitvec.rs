//! Fixed-length packed bit vector.

use crate::{tail_mask, words_for, WORD_BITS};
use std::fmt;

/// A fixed-length bit vector packed into `u64` words.
///
/// The length is fixed at construction; all operations preserve it.
/// Out-of-range indices panic, mirroring slice indexing.
///
/// ```
/// use pms_bitmat::BitVec;
/// let mut v = BitVec::new(128);
/// v.set(3, true);
/// v.set(100, true);
/// assert_eq!(v.count_ones(), 2);
/// assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![3, 100]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitVec {
    len: usize,
    words: Vec<u64>,
}

impl BitVec {
    /// Creates an all-zero bit vector of `len` bits.
    pub fn new(len: usize) -> Self {
        Self {
            len,
            words: vec![0; words_for(len)],
        }
    }

    /// Creates an all-one bit vector of `len` bits.
    pub fn ones(len: usize) -> Self {
        let mut v = Self {
            len,
            words: vec![u64::MAX; words_for(len)],
        };
        v.fixup_tail();
        v
    }

    /// Builds a vector of `len` bits with the given bit positions set.
    ///
    /// # Panics
    /// Panics if any index is `>= len`.
    pub fn from_indices<I: IntoIterator<Item = usize>>(len: usize, idx: I) -> Self {
        let mut v = Self::new(len);
        for i in idx {
            v.set(i, true);
        }
        v
    }

    /// Adopts pre-packed storage words as a `len`-bit vector. Bits beyond
    /// `len` in the last word are cleared, so callers may hand over words
    /// with garbage padding (e.g. an OR accumulator).
    ///
    /// # Panics
    /// Panics if `words.len()` is not exactly the storage size for `len`.
    pub fn from_words(len: usize, words: Vec<u64>) -> Self {
        assert_eq!(
            words.len(),
            words_for(len),
            "word count {} does not match {len} bits",
            words.len()
        );
        let mut v = Self { len, words };
        v.fixup_tail();
        v
    }

    /// Number of bits in the vector.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the vector has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads the bit at `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Writes the bit at `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        let mask = 1u64 << (i % WORD_BITS);
        if value {
            self.words[i / WORD_BITS] |= mask;
        } else {
            self.words[i / WORD_BITS] &= !mask;
        }
    }

    /// Sets every bit to zero.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Sets every bit to one.
    pub fn fill_ones(&mut self) {
        self.words.fill(u64::MAX);
        self.fixup_tail();
    }

    /// Number of set bits.
    #[inline]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if no bit is set.
    #[inline]
    pub fn all_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// True if at least one bit is set.
    #[inline]
    pub fn any(&self) -> bool {
        !self.all_zero()
    }

    /// Index of the lowest set bit, if any.
    pub fn first_one(&self) -> Option<usize> {
        for (wi, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some(wi * WORD_BITS + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Index of the lowest clear bit, if any.
    pub fn first_zero(&self) -> Option<usize> {
        for (wi, &w) in self.words.iter().enumerate() {
            if w != u64::MAX {
                let bit = wi * WORD_BITS + (!w).trailing_zeros() as usize;
                if bit < self.len {
                    return Some(bit);
                }
            }
        }
        None
    }

    /// `self |= other` (bitwise OR).
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn or_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "BitVec length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `self &= other` (bitwise AND).
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn and_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "BitVec length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// `self &= !other` (clear the bits set in `other`).
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn and_not_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "BitVec length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Iterator over the indices of set bits, ascending.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Raw storage words (read-only), for word-parallel callers.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable raw storage words, for word-parallel kernels that write
    /// the vector in place. The padding bits past `len` in the last word
    /// must stay zero: every other method relies on it.
    #[inline]
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Clears any bits in the last word that are beyond `len`.
    fn fixup_tail(&mut self) {
        if let Some(last) = self.words.last_mut() {
            *last &= tail_mask(self.len);
        }
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[{}; ", self.len)?;
        let ones: Vec<usize> = self.iter_ones().collect();
        write!(f, "{ones:?}]")
    }
}

/// Iterator over set-bit indices of a [`BitVec`].
pub struct IterOnes<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * WORD_BITS + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_zero() {
        let v = BitVec::new(130);
        assert_eq!(v.len(), 130);
        assert!(v.all_zero());
        assert!(!v.any());
        assert_eq!(v.count_ones(), 0);
        assert_eq!(v.first_one(), None);
        assert_eq!(v.first_zero(), Some(0));
    }

    #[test]
    fn ones_respects_tail() {
        let v = BitVec::ones(70);
        assert_eq!(v.count_ones(), 70);
        assert_eq!(v.first_zero(), None);
        assert!(v.get(69));
    }

    #[test]
    fn set_get_roundtrip() {
        let mut v = BitVec::new(200);
        for i in [0, 1, 63, 64, 65, 127, 128, 199] {
            assert!(!v.get(i));
            v.set(i, true);
            assert!(v.get(i));
        }
        assert_eq!(v.count_ones(), 8);
        v.set(64, false);
        assert!(!v.get(64));
        assert_eq!(v.count_ones(), 7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitVec::new(8).get(8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        BitVec::new(8).set(100, true);
    }

    #[test]
    fn from_indices() {
        let v = BitVec::from_indices(16, [1, 5, 9]);
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![1, 5, 9]);
    }

    #[test]
    fn from_words_masks_tail() {
        // 70 bits: the 58 padding bits of the second word must be dropped.
        let v = BitVec::from_words(70, vec![u64::MAX, u64::MAX]);
        assert_eq!(v.count_ones(), 70);
        assert_eq!(v, BitVec::ones(70));
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_words_wrong_size_panics() {
        let _ = BitVec::from_words(70, vec![0]);
    }

    #[test]
    fn first_one_and_zero() {
        let mut v = BitVec::new(128);
        v.set(77, true);
        assert_eq!(v.first_one(), Some(77));
        let mut w = BitVec::ones(128);
        w.set(3, false);
        assert_eq!(w.first_zero(), Some(3));
    }

    #[test]
    fn first_zero_beyond_tail_is_none() {
        // 65 bits: second word has only one valid bit.
        let v = BitVec::ones(65);
        assert_eq!(v.first_zero(), None);
    }

    #[test]
    fn boolean_ops() {
        let a0 = BitVec::from_indices(100, [1, 50, 99]);
        let b = BitVec::from_indices(100, [2, 50]);

        let mut a = a0.clone();
        a.or_assign(&b);
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![1, 2, 50, 99]);

        let mut a = a0.clone();
        a.and_assign(&b);
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![50]);

        let mut a = a0.clone();
        a.and_not_assign(&b);
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![1, 99]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn or_length_mismatch_panics() {
        let mut a = BitVec::new(10);
        a.or_assign(&BitVec::new(11));
    }

    #[test]
    fn iter_ones_across_words() {
        let idx = vec![0, 63, 64, 127, 128, 191];
        let v = BitVec::from_indices(192, idx.clone());
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), idx);
    }

    #[test]
    fn clear_and_fill() {
        let mut v = BitVec::from_indices(90, [0, 89]);
        v.clear();
        assert!(v.all_zero());
        v.fill_ones();
        assert_eq!(v.count_ones(), 90);
    }

    #[test]
    fn zero_length_vector() {
        let v = BitVec::new(0);
        assert!(v.is_empty());
        assert!(v.all_zero());
        assert_eq!(v.iter_ones().count(), 0);
        assert_eq!(v.first_zero(), None);
    }

    #[test]
    fn debug_format_lists_ones() {
        let v = BitVec::from_indices(8, [2, 4]);
        assert_eq!(format!("{v:?}"), "BitVec[8; [2, 4]]");
    }
}

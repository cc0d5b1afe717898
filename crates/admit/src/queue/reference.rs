//! The single ordered-map queue [`PifoQueue`](super::PifoQueue) replaced,
//! kept as the oracle for the differential test in `super::tests`.
//!
//! One `BTreeMap` keyed by `(rank, seq)` holds every entry: push and pop
//! are O(log n) in the queue length, and shed-oldest scans the whole map
//! for the minimum `seq`. The rank-bucket queue must return the same
//! value and report the same `len()` after every operation.

use std::collections::BTreeMap;

use super::{Pending, Push};

/// Bounded rank-ordered queue over one `(rank, seq)`-keyed map.
#[derive(Debug, Clone, Default)]
pub(super) struct PifoQueue {
    cap: usize,
    seq: u64,
    items: BTreeMap<(u64, u64), Pending>,
}

impl PifoQueue {
    /// Creates a queue holding at most `cap` requests.
    pub(super) fn new(cap: usize) -> Self {
        PifoQueue {
            cap,
            seq: 0,
            items: BTreeMap::new(),
        }
    }

    /// Queued request count.
    pub(super) fn len(&self) -> usize {
        self.items.len()
    }

    /// Pushes at `rank`; `shed_oldest` selects the full-queue discipline.
    pub(super) fn push(&mut self, rank: u64, pending: Pending, shed_oldest: bool) -> Push {
        let mut outcome = Push::Queued;
        if self.items.len() >= self.cap {
            if !shed_oldest {
                return Push::RejectedNew;
            }
            // Oldest = smallest sequence number, regardless of rank.
            let victim_key = self
                .items
                .iter()
                .min_by_key(|((_, seq), _)| *seq)
                .map(|(k, _)| *k)
                .expect("full queue is non-empty");
            let victim = self.items.remove(&victim_key).expect("victim key present");
            outcome = Push::ShedOldest(victim);
        }
        self.items.insert((rank, self.seq), pending);
        self.seq += 1;
        outcome
    }

    /// Pops the lowest-rank (then earliest) request.
    pub(super) fn pop(&mut self) -> Option<Pending> {
        let key = *self.items.keys().next()?;
        self.items.remove(&key)
    }

    /// Puts a denied request back at its rank. Requeues never shed: the
    /// entry was already accounted for before it was popped, and the pop
    /// guarantees a free slot.
    pub(super) fn requeue(&mut self, rank: u64, pending: Pending) {
        debug_assert!(self.items.len() < self.cap);
        self.items.insert((rank, self.seq), pending);
        self.seq += 1;
    }
}

//! The bounded PIFO ingress queue.
//!
//! Every policy is one queue ordered by `(rank, seq)`: the policy
//! chooses the rank at push time (see [`crate::policy`]), the queue
//! always pops the minimum, and the monotonically increasing sequence
//! number breaks rank ties in arrival order.
//!
//! The queue keeps one FIFO bucket per distinct rank, in an ordered map
//! keyed by rank. A fresh `seq` is always the largest issued, so
//! appending at a bucket's back keeps each bucket in `seq` order and only
//! the bucket fronts need sorting — the same observation that lets a
//! PIFO sort flow heads instead of packets. With `r` distinct ranks
//! queued:
//!
//! * push and requeue append to a bucket: O(log r);
//! * pop takes the front of the lowest bucket: O(log r);
//! * shed-oldest takes the smallest `seq` among the bucket fronts: O(r).
//!
//! FIFO has one rank and strict priority one per tenant, so both run at
//! O(1)-ish cost per operation whatever the queue length. Emptied
//! buckets are recycled, so a queue that has reached its working set of
//! ranks stops allocating.
//!
//! Capacity is enforced here too, because the two backpressure
//! disciplines are queue-shape decisions: *reject-new* refuses the push,
//! *shed-oldest* evicts the earliest-admitted entry (minimum `seq`) to
//! make room.

use std::collections::btree_map::{BTreeMap, Entry, OccupiedEntry};
use std::collections::VecDeque;

use pms_workloads::ConnRequest;

#[cfg(test)]
mod reference;

/// A queued request plus the bookkeeping the engine needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pending {
    /// Global request id (trace correlation key).
    pub req: u32,
    /// The request itself.
    pub conn: ConnRequest,
    /// Virtual time the request entered the queue.
    pub enq_ns: u64,
    /// How many batch epochs have denied this request so far.
    pub denials: u32,
}

/// What happened on a push into a full queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Push {
    /// The request was queued; nothing was displaced.
    Queued,
    /// The queue was full and the new request was refused.
    RejectedNew,
    /// The queue was full; the oldest entry was shed to admit the new
    /// one.
    ShedOldest(Pending),
}

/// One rank's entries in `seq` order, each with its sequence number.
type Bucket = VecDeque<(u64, Pending)>;

/// Bounded rank-ordered queue (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct PifoQueue {
    cap: usize,
    seq: u64,
    len: usize,
    /// Non-empty buckets, keyed by rank.
    buckets: BTreeMap<u64, Bucket>,
    /// Emptied buckets kept for reuse.
    spare: Vec<Bucket>,
}

impl PifoQueue {
    /// Creates a queue holding at most `cap` requests.
    pub fn new(cap: usize) -> Self {
        PifoQueue {
            cap,
            ..PifoQueue::default()
        }
    }

    /// Queued request count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pushes at `rank`; `shed_oldest` selects the full-queue discipline.
    pub fn push(&mut self, rank: u64, pending: Pending, shed_oldest: bool) -> Push {
        let mut outcome = Push::Queued;
        if self.len >= self.cap {
            if !shed_oldest {
                return Push::RejectedNew;
            }
            // Oldest = smallest sequence number, regardless of rank; each
            // bucket's front is its oldest entry.
            let oldest = self
                .buckets
                .iter()
                .min_by_key(|(_, bucket)| bucket[0].0)
                .map(|(&rank, _)| rank)
                .expect("full queue is non-empty");
            let Entry::Occupied(bucket) = self.buckets.entry(oldest) else {
                unreachable!("rank was just found");
            };
            self.len -= 1;
            outcome = Push::ShedOldest(take_front(bucket, &mut self.spare));
        }
        self.append(rank, pending);
        outcome
    }

    /// Pops the lowest-rank (then earliest) request.
    pub fn pop(&mut self) -> Option<Pending> {
        let bucket = self.buckets.first_entry()?;
        self.len -= 1;
        Some(take_front(bucket, &mut self.spare))
    }

    /// Puts a denied request back at its rank. Requeues never shed: the
    /// entry was already accounted for before it was popped, and the pop
    /// guarantees a free slot.
    pub fn requeue(&mut self, rank: u64, pending: Pending) {
        debug_assert!(self.len < self.cap);
        self.append(rank, pending);
    }

    fn append(&mut self, rank: u64, pending: Pending) {
        let spare = &mut self.spare;
        self.buckets
            .entry(rank)
            .or_insert_with(|| spare.pop().unwrap_or_default())
            .push_back((self.seq, pending));
        self.seq += 1;
        self.len += 1;
    }
}

/// Removes the front of `bucket`, moving the bucket to `spare` if that
/// empties it.
fn take_front(mut bucket: OccupiedEntry<'_, u64, Bucket>, spare: &mut Vec<Bucket>) -> Pending {
    let (_, pending) = bucket.get_mut().pop_front().expect("buckets are non-empty");
    if bucket.get().is_empty() {
        spare.push(bucket.remove());
    }
    pending
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pending(req: u32, t_ns: u64) -> Pending {
        Pending {
            req,
            conn: ConnRequest {
                t_ns,
                tenant: 0,
                src: req % 4,
                dst: (req + 1) % 4,
                bytes: 8,
            },
            enq_ns: t_ns,
            denials: 0,
        }
    }

    #[test]
    fn pops_by_rank_then_arrival() {
        let mut q = PifoQueue::new(8);
        q.push(5, pending(0, 0), false);
        q.push(1, pending(1, 1), false);
        q.push(5, pending(2, 2), false);
        q.push(1, pending(3, 3), false);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|p| p.req).collect();
        assert_eq!(order, vec![1, 3, 0, 2]);
    }

    #[test]
    fn reject_new_refuses_push_when_full() {
        let mut q = PifoQueue::new(2);
        assert_eq!(q.push(0, pending(0, 0), false), Push::Queued);
        assert_eq!(q.push(0, pending(1, 1), false), Push::Queued);
        assert_eq!(q.push(0, pending(2, 2), false), Push::RejectedNew);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn shed_oldest_evicts_earliest_seq_even_at_better_rank() {
        let mut q = PifoQueue::new(2);
        q.push(0, pending(0, 0), true); // oldest, best rank
        q.push(9, pending(1, 1), true);
        match q.push(5, pending(2, 2), true) {
            Push::ShedOldest(victim) => assert_eq!(victim.req, 0),
            other => panic!("expected shed, got {other:?}"),
        }
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().req, 2, "rank 5 beats rank 9");
    }

    #[test]
    fn requeue_preserves_rank_order_behind_equals() {
        let mut q = PifoQueue::new(4);
        q.push(1, pending(0, 0), false);
        q.push(1, pending(1, 1), false);
        let denied = q.pop().unwrap();
        assert_eq!(denied.req, 0);
        q.requeue(1, denied);
        // Request 0 rejoined rank 1 behind request 1.
        assert_eq!(q.pop().unwrap().req, 1);
        assert_eq!(q.pop().unwrap().req, 0);
    }

    /// Rank choice per case: one rank (FIFO), up to 8 ranks (strict
    /// priority by tenant), or a pool of wide `u64` ranks (shortest-first
    /// over arbitrary sizes), mapped from each operation's raw draw.
    fn rank_of(mode: u64, pool: &[u64], raw: u64) -> u64 {
        match mode {
            0 => 0,
            1 => raw % 8,
            _ => pool[(raw % pool.len() as u64) as usize],
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The rank-bucket queue matches the single-map reference on
        /// random push / pop / requeue sequences: the same return value
        /// and the same `len()` after every operation. Requeues put back
        /// a popped request at its own rank, as the engine does.
        #[test]
        fn matches_reference(
            cap in 1usize..17,
            shed in 0u8..2,
            mode in 0u64..3,
            pool in prop::collection::vec(0u64..u64::MAX, 1..12),
            ops in prop::collection::vec((0u8..4, 0u64..u64::MAX), 0..200),
        ) {
            let shed = shed == 1;
            let mut fast = PifoQueue::new(cap);
            let mut slow = reference::PifoQueue::new(cap);
            let mut ranks = Vec::new();
            let mut out = Vec::new();
            for (op, raw) in ops {
                match op {
                    // Pushes are drawn twice as often as pops so the
                    // queue regularly fills and exercises backpressure.
                    0 | 1 => {
                        let req = ranks.len() as u32;
                        let rank = rank_of(mode, &pool, raw);
                        ranks.push(rank);
                        let p = pending(req, raw >> 32);
                        prop_assert_eq!(fast.push(rank, p, shed), slow.push(rank, p, shed));
                    }
                    2 => {
                        let popped = fast.pop();
                        prop_assert_eq!(popped, slow.pop());
                        out.extend(popped);
                    }
                    _ => {
                        if let Some(mut p) = out.pop().filter(|_| fast.len() < cap) {
                            p.denials += 1;
                            let rank = ranks[p.req as usize];
                            fast.requeue(rank, p);
                            slow.requeue(rank, p);
                        }
                    }
                }
                prop_assert_eq!(fast.len(), slow.len());
                prop_assert_eq!(fast.is_empty(), slow.len() == 0);
            }
        }
    }
}

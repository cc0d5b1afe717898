//! The NIC output buffer: `N` logical queues per processor (§4).
//!
//! "The output buffer is used to implement N logical queues, one for each
//! destination." The request signal `R_u` is derived from which queues are
//! non-empty.
//!
//! Like the hardware's request register, the occupancy of every queue is
//! one bit of a packed `N x N` matrix, so building `R` walks set bits
//! instead of probing `N^2` queues. The queues themselves are threaded
//! through the message ids: each pair stores only the tail of a circular
//! singly-linked list, and one `next` link per message closes the ring.
//! Memory and per-pass work therefore scale with queued traffic plus an
//! `N^2`-bit bitmap; the `N^2` tail table is zero-initialized, so its
//! never-used pages are never touched.

use crate::message::MsgState;
use pms_bitmat::BitMatrix;
use pms_par::ShardPool;

/// Below this port count the O(ports^2 / 64) request scan is cheaper
/// than a scatter; purely a performance threshold, never visible in
/// outputs.
pub(crate) const PAR_MIN_PORTS: usize = 256;

/// Virtual output queues for all NICs: one FIFO of message ids per
/// `(source, destination)` pair.
#[derive(Debug, Clone)]
pub struct Voqs {
    ports: usize,
    /// Bit `(u, v)` is set iff queue `(u, v)` holds a message.
    nonempty: BitMatrix,
    /// Per pair: the id of the queue's last message plus one, 0 if empty.
    tail: Vec<u32>,
    /// Per message: the id of the next message in its queue; the tail
    /// links back to the head.
    next: Vec<u32>,
    queued: usize,
}

impl Voqs {
    /// Creates empty queues for `ports` processors, with links for
    /// message ids `0..messages` (larger ids grow the link table).
    pub fn new(ports: usize, messages: usize) -> Self {
        Self {
            ports,
            nonempty: BitMatrix::square(ports),
            tail: vec![0; ports * ports],
            next: vec![0; messages],
            queued: 0,
        }
    }

    #[inline]
    fn idx(&self, u: usize, v: usize) -> usize {
        debug_assert!(u < self.ports && v < self.ports);
        u * self.ports + v
    }

    /// Enqueues message `msg` from `u` to `v`. Returns whether the queue
    /// was empty — i.e. whether this push raises a *new* request line
    /// (the edge the tracer reports as `ConnRequested`).
    pub fn push(&mut self, u: usize, v: usize, msg: usize) -> bool {
        let i = self.idx(u, v);
        assert!(
            msg < u32::MAX as usize,
            "message id {msg} overflows the link table"
        );
        let id = msg as u32;
        if msg >= self.next.len() {
            self.next.resize(msg + 1, 0);
        }
        let was_empty = self.tail[i] == 0;
        if was_empty {
            self.next[msg] = id;
            self.nonempty.set(u, v, true);
        } else {
            let last = (self.tail[i] - 1) as usize;
            self.next[msg] = self.next[last];
            self.next[last] = id;
        }
        self.tail[i] = id + 1;
        self.queued += 1;
        was_empty
    }

    /// The message at the head of queue `(u, v)`.
    #[inline]
    pub fn front(&self, u: usize, v: usize) -> Option<usize> {
        match self.tail[self.idx(u, v)] {
            0 => None,
            t => Some(self.next[(t - 1) as usize] as usize),
        }
    }

    /// Removes and returns the head of queue `(u, v)`.
    pub fn pop(&mut self, u: usize, v: usize) -> Option<usize> {
        let i = self.idx(u, v);
        let last = self.tail[i].checked_sub(1)? as usize;
        let head = self.next[last] as usize;
        if head == last {
            self.tail[i] = 0;
            self.nonempty.set(u, v, false);
        } else {
            self.next[last] = self.next[head];
        }
        self.queued -= 1;
        Some(head)
    }

    /// Queue length for `(u, v)`: a walk of the queue's links.
    pub fn len(&self, u: usize, v: usize) -> usize {
        let Some(head) = self.front(u, v) else {
            return 0;
        };
        let mut n = 1;
        let mut m = self.next[head] as usize;
        while m != head {
            n += 1;
            m = self.next[m] as usize;
        }
        n
    }

    /// Whether queue `(u, v)` is empty.
    pub fn is_empty(&self, u: usize, v: usize) -> bool {
        self.tail[self.idx(u, v)] == 0
    }

    /// Total messages queued across all NICs.
    pub fn total_queued(&self) -> usize {
        self.queued
    }

    /// The destinations with a non-empty queue at source `u`, ascending —
    /// the bits of the request signal `R_u`.
    pub fn nonempty_dests(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        self.nonempty.iter_row_ones(u)
    }

    /// Calls `set(v)`, in ascending `v`, for every non-empty queue
    /// `(u, v)` whose head is visible at `now`.
    #[inline]
    fn visible_row(
        &self,
        u: usize,
        msgs: &[MsgState],
        wire_ns: u64,
        now: u64,
        mut set: impl FnMut(usize),
    ) {
        for v in self.nonempty_dests(u) {
            let head = self.front(u, v).expect("non-empty queue");
            let seen = msgs[head].enqueued_at.expect("queued => enqueued") + wire_ns;
            if seen <= now {
                set(v);
            }
        }
    }

    /// The request matrix `R` as the scheduler sees it at time `now`: a
    /// queue's request line is visible one `wire_ns` propagation after its
    /// head message was enqueued. Shared by the circuit and TDM simulators.
    pub fn visible_requests(&self, msgs: &[MsgState], wire_ns: u64, now: u64) -> BitMatrix {
        let mut r = BitMatrix::square(self.ports);
        for u in 0..self.ports {
            self.visible_row(u, msgs, wire_ns, now, |v| r.set(u, v, true));
        }
        r
    }

    /// [`visible_requests`](Self::visible_requests) sharded over a pool:
    /// source-port row ranges are scanned concurrently, each shard writing
    /// its disjoint rows of the packed matrix. The set bits are identical
    /// to the sequential scan at any thread count.
    pub fn visible_requests_pooled(
        &self,
        msgs: &[MsgState],
        wire_ns: u64,
        now: u64,
        pool: &ShardPool,
    ) -> BitMatrix {
        if pool.threads() <= 1 || self.ports < PAR_MIN_PORTS {
            return self.visible_requests(msgs, wire_ns, now);
        }
        let mut r = BitMatrix::square(self.ports);
        let wpr = r.words_per_row();
        let rows_per_chunk = self.ports.div_ceil(pool.threads() * 4).max(1);
        let mut chunks: Vec<(usize, &mut [u64])> =
            r.row_chunks_mut(rows_per_chunk).enumerate().collect();
        pool.scatter_mut(&mut chunks, |_, (ci, words)| {
            let u0 = *ci * rows_per_chunk;
            for lr in 0..words.len() / wpr {
                let row = &mut words[lr * wpr..(lr + 1) * wpr];
                self.visible_row(u0 + lr, msgs, wire_ns, now, |v| {
                    row[v / u64::BITS as usize] |= 1u64 << (v % u64::BITS as usize);
                });
            }
        });
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    #[test]
    fn fifo_per_destination() {
        let mut q = Voqs::new(4, 16);
        assert!(q.push(0, 1, 10), "first push raises the request line");
        assert!(!q.push(0, 1, 11), "second push is not a new request");
        assert!(q.push(0, 2, 12));
        assert_eq!(q.total_queued(), 3);
        assert_eq!(q.front(0, 1), Some(10));
        assert_eq!(q.pop(0, 1), Some(10));
        assert_eq!(q.front(0, 1), Some(11));
        assert_eq!(q.len(0, 1), 1);
        assert!(!q.is_empty(0, 2));
        assert_eq!(q.total_queued(), 2);
    }

    #[test]
    fn nonempty_dests_builds_request_row() {
        let mut q = Voqs::new(4, 16);
        q.push(1, 0, 0);
        q.push(1, 3, 1);
        assert_eq!(q.nonempty_dests(1).collect::<Vec<_>>(), vec![0, 3]);
        assert_eq!(q.nonempty_dests(0).count(), 0);
    }

    #[test]
    fn pop_empty_is_none() {
        let mut q = Voqs::new(2, 0);
        assert_eq!(q.pop(0, 1), None);
        assert_eq!(q.total_queued(), 0);
    }

    #[test]
    fn pooled_visible_requests_matches_sequential() {
        use pms_workloads::MsgSpec;
        let ports = PAR_MIN_PORTS + 17; // odd size exercises partial chunks
        let mut q = Voqs::new(ports, 0);
        let mut msgs = Vec::new();
        for u in (0..ports).step_by(3) {
            for k in 0..4usize {
                let v = (u + 7 * k + 1) % ports;
                let id = msgs.len();
                let mut m = MsgState::new(MsgSpec {
                    id,
                    src: u,
                    dst: v,
                    bytes: 8,
                });
                m.enqueued_at = Some((u as u64 * 13 + k as u64 * 90) % 400);
                msgs.push(m);
                q.push(u, v, id);
            }
        }
        let pool = ShardPool::new(4);
        for now in [0u64, 100, 250, 1_000] {
            let seq = q.visible_requests(&msgs, 80, now);
            let par = q.visible_requests_pooled(&msgs, 80, now, &pool);
            assert_eq!(seq, par, "divergence at now={now}");
        }
    }

    /// Reference model: one `VecDeque` per pair, probed in full on
    /// every scan.
    struct DenseVoqs {
        ports: usize,
        queues: Vec<VecDeque<usize>>,
    }

    impl DenseVoqs {
        fn queue(&mut self, u: usize, v: usize) -> &mut VecDeque<usize> {
            &mut self.queues[u * self.ports + v]
        }

        fn nonempty_dests(&self, u: usize) -> Vec<usize> {
            (0..self.ports)
                .filter(|&v| !self.queues[u * self.ports + v].is_empty())
                .collect()
        }

        fn visible_requests(&self, msgs: &[MsgState], wire_ns: u64, now: u64) -> BitMatrix {
            let mut r = BitMatrix::square(self.ports);
            for u in 0..self.ports {
                for v in self.nonempty_dests(u) {
                    let head = self.queues[u * self.ports + v][0];
                    if msgs[head].enqueued_at.unwrap() + wire_ns <= now {
                        r.set(u, v, true);
                    }
                }
            }
            r
        }
    }

    /// Seeded random push/pop sequences against the dense reference:
    /// ids arrive out of order, a few hot pairs drain and refill many
    /// times, and the link table starts smaller than the id space so it
    /// has to grow. Every query is compared after every operation (the
    /// request matrices every `scan_every` operations).
    fn differential(ports: usize, ids: usize, capacity: usize, scan_every: usize, seed: u64) {
        use pms_workloads::MsgSpec;
        use rand::prelude::*;

        let mut rng = StdRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..ids).collect();
        order.shuffle(&mut rng);
        let hot: Vec<(usize, usize)> = (0..4)
            .map(|_| (rng.gen_range(0..ports), rng.gen_range(0..ports)))
            .collect();
        let msgs: Vec<MsgState> = (0..ids)
            .map(|id| {
                let mut m = MsgState::new(MsgSpec {
                    id,
                    src: 0,
                    dst: 0,
                    bytes: 8,
                });
                m.enqueued_at = Some(rng.gen_range(0..1_000u64));
                m
            })
            .collect();
        let mut q = Voqs::new(ports, capacity);
        let mut dense = DenseVoqs {
            ports,
            queues: vec![VecDeque::new(); ports * ports],
        };
        let pool = ShardPool::new(3);
        let mut next_id = order.iter();
        let mut queued = 0usize;
        for step in 0..4 * ids {
            let (u, v) = if rng.gen_bool(0.5) {
                hot[rng.gen_range(0..hot.len())]
            } else {
                (rng.gen_range(0..ports), rng.gen_range(0..ports))
            };
            if rng.gen_bool(0.55) {
                if let Some(&id) = next_id.next() {
                    let was_empty = dense.queue(u, v).is_empty();
                    dense.queue(u, v).push_back(id);
                    assert_eq!(q.push(u, v, id), was_empty, "step {step}: push edge");
                    queued += 1;
                }
            } else {
                let popped = dense.queue(u, v).pop_front();
                queued -= usize::from(popped.is_some());
                assert_eq!(q.pop(u, v), popped, "step {step}: pop");
            }
            assert_eq!(q.total_queued(), queued, "step {step}: total");
            assert_eq!(q.front(u, v), dense.queue(u, v).front().copied());
            assert_eq!(q.len(u, v), dense.queue(u, v).len());
            assert_eq!(q.is_empty(u, v), dense.queue(u, v).is_empty());
            assert_eq!(
                q.nonempty_dests(u).collect::<Vec<_>>(),
                dense.nonempty_dests(u),
                "step {step}: request row {u}"
            );
            if step % scan_every == 0 {
                for w in 0..ports * ports {
                    let (a, b) = (w / ports, w % ports);
                    assert_eq!(q.front(a, b), dense.queues[w].front().copied());
                }
                let now = rng.gen_range(0..1_200u64);
                let want = dense.visible_requests(&msgs, 80, now);
                assert_eq!(q.visible_requests(&msgs, 80, now), want, "step {step}");
                let pooled = q.visible_requests_pooled(&msgs, 80, now, &pool);
                assert_eq!(pooled, want, "step {step}: pooled");
            }
        }
    }

    #[test]
    fn linked_queues_match_dense_reference() {
        for (seed, ports, scan_every) in [(1, 2, 1), (2, 5, 1), (3, 13, 1), (4, 64, 5), (5, 70, 7)]
        {
            differential(ports, 600, 100, scan_every, seed);
        }
    }

    #[test]
    fn linked_queues_match_dense_reference_above_par_threshold() {
        // Sharded request scan: only ports >= PAR_MIN_PORTS take it.
        differential(PAR_MIN_PORTS + 9, 3_000, 0, 97, 6);
    }
}

//! The NIC output buffer: `N` logical queues per processor (§4).
//!
//! "The output buffer is used to implement N logical queues, one for each
//! destination." The request signal `R_u` is derived from which queues are
//! non-empty.
//!
//! Like the hardware's request register, the occupancy of every queue is
//! one bit of a packed `N x N` matrix. The queues themselves are threaded
//! through the message ids: each pair stores only the tail of a circular
//! singly-linked list, and one `next` link per message closes the ring.
//! Memory and per-pass work therefore scale with queued traffic plus an
//! `N^2`-bit bitmap; the `N^2` tail table is zero-initialized, so its
//! never-used pages are never touched.
//!
//! A queue's request line rises one request-wire propagation after its
//! head message was enqueued. With request lines enabled
//! ([`Voqs::with_request_lines`]) the lines are kept incrementally, and
//! each message costs O(1) bookkeeping on its way to the line:
//!
//! * a message pushed into an empty queue waits in one FIFO, in push
//!   order, which is also the order of its due time (see
//!   [`Voqs::raise_due`]);
//! * a head exposed by a pop rises directly when its line is already
//!   due, which is the common case: it was enqueued behind the head it
//!   replaces;
//! * only an exposed head enqueued less than one wire delay before it
//!   was exposed waits on a small min-heap keyed by its due time.
//!
//! [`Voqs::raise_due`] moves the due heads into a persistent request
//! matrix. A scheduler pass then costs what changed since the last pass,
//! not what is queued.

use crate::message::MsgState;
use pms_bitmat::BitMatrix;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

const LINES_OFF: &str = "request lines are off; build with `with_request_lines`";

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
    /// The request lines, for owners that schedule from them.
    lines: Option<RequestLines>,
}

/// Incrementally maintained request lines (see the module docs).
#[derive(Debug, Clone)]
struct RequestLines {
    /// Request-wire propagation: a head's line rises this long after the
    /// head was enqueued.
    wire_ns: u64,
    /// Bit `(u, v)` is set iff queue `(u, v)`'s line is up.
    visible: BitMatrix,
    /// Messages pushed into an empty queue whose line has not risen, in
    /// push order (their due times never decrease). Ids only: a due time
    /// is read from the message table when the entry reaches the front,
    /// since a pushed message's `enqueued_at` is stamped after the push.
    /// An entry whose message left its queue before it was due is stale
    /// and dropped when it reaches the front.
    pushed: VecDeque<u32>,
    /// The due time of the last entry taken from `pushed`: the floor the
    /// next one must not fall below.
    pushed_due: u64,
    /// Heads exposed by a pop since the last
    /// [`raise_due`](Voqs::raise_due); a pop does not see the message
    /// table.
    exposed: Vec<u32>,
    /// `(due time, head)` min-heap of exposed heads whose line was not
    /// yet due when [`raise_due`](Voqs::raise_due) first saw them. Stale
    /// entries are dropped when they surface, as in `pushed`.
    young: BinaryHeap<Reverse<(u64, u32)>>,
    /// The heads raised by the last [`raise_due`](Voqs::raise_due), as
    /// `(u, v, head)` sorted by `(u, v)`.
    raised: Vec<(usize, usize, usize)>,
}

impl Voqs {
    /// Creates empty queues for `ports` processors, with links for
    /// message ids `0..messages` (larger ids grow the link table). No
    /// request lines are kept; see [`with_request_lines`](Self::with_request_lines).
    pub fn new(ports: usize, messages: usize) -> Self {
        Self {
            ports,
            nonempty: BitMatrix::square(ports),
            tail: vec![0; ports * ports],
            next: vec![0; messages],
            queued: 0,
            lines: None,
        }
    }

    /// Keeps the request lines a scheduler reads: each queue's line rises
    /// `wire_ns` after its head message was enqueued. Call before the
    /// first push.
    pub fn with_request_lines(mut self, wire_ns: u64) -> Self {
        assert_eq!(self.queued, 0, "request lines start from empty queues");
        self.lines = Some(RequestLines {
            wire_ns,
            visible: BitMatrix::square(self.ports),
            pushed: VecDeque::new(),
            pushed_due: 0,
            exposed: Vec::new(),
            young: BinaryHeap::new(),
            raised: Vec::new(),
        });
        self
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
            if let Some(lines) = &mut self.lines {
                lines.pushed.push_back(id);
            }
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

    /// Removes and returns the head of queue `(u, v)`. The queue's request
    /// line drops; the exposed head, if any, raises it again once due.
    pub fn pop(&mut self, u: usize, v: usize) -> Option<usize> {
        let i = self.idx(u, v);
        let last = self.tail[i].checked_sub(1)? as usize;
        let head = self.next[last] as usize;
        let exposed = if head == last {
            self.tail[i] = 0;
            self.nonempty.set(u, v, false);
            None
        } else {
            self.next[last] = self.next[head];
            Some(self.next[head])
        };
        if let Some(lines) = &mut self.lines {
            lines.visible.set(u, v, false);
            lines.exposed.extend(exposed);
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

    fn lines(&self) -> &RequestLines {
        self.lines.as_ref().expect(LINES_OFF)
    }

    /// Raises every request line due by `now`: each queue whose head was
    /// enqueued at least one request-wire propagation ago. `now` must not
    /// decrease between calls, and messages must be pushed in
    /// nondecreasing `enqueued_at` order. The heads raised by this call
    /// are then listed by [`raised`](Self::raised).
    ///
    /// The push order is the due order because every owner pushes a
    /// message as it applies the engine's `Inject` effect and stamps
    /// `enqueued_at` with the effect's time. `Engine::poll` returns each
    /// poll's effects in nondecreasing time, and no effect of a later
    /// poll is earlier than the `now` of the one before: a processor
    /// still runnable after a poll has `ready_at > now`, and a barrier
    /// release moves `ready_at` to at least `now`. So `enqueued_at +
    /// wire_ns` never decreases along `pushed`, and the FIFO stops at its
    /// first entry that is not yet due.
    ///
    /// # Panics
    /// Panics unless built [`with_request_lines`](Self::with_request_lines).
    pub fn raise_due(&mut self, msgs: &[MsgState], now: u64) {
        let mut lines = self.lines.take().expect(LINES_OFF);
        let wire_ns = lines.wire_ns;
        let due_at = |id: u32| msgs[id as usize].enqueued_at.expect("queued => enqueued") + wire_ns;
        // Raises `id`'s line if it still heads its queue.
        let raise = |lines: &mut RequestLines, id: u32| {
            let spec = msgs[id as usize].spec;
            if self.front(spec.src, spec.dst) == Some(id as usize) {
                lines.visible.set(spec.src, spec.dst, true);
                lines.raised.push((spec.src, spec.dst, id as usize));
            }
        };
        lines.raised.clear();
        while let Some(&id) = lines.pushed.front() {
            let due = due_at(id);
            if due > now {
                break;
            }
            debug_assert!(
                due >= lines.pushed_due,
                "message {id} pushed out of enqueue order"
            );
            lines.pushed_due = due;
            lines.pushed.pop_front();
            raise(&mut lines, id);
        }
        let mut exposed = std::mem::take(&mut lines.exposed);
        for id in exposed.drain(..) {
            let due = due_at(id);
            if due <= now {
                raise(&mut lines, id);
            } else {
                lines.young.push(Reverse((due, id)));
            }
        }
        lines.exposed = exposed;
        while let Some(&Reverse((due, id))) = lines.young.peek() {
            if due > now {
                break;
            }
            lines.young.pop();
            raise(&mut lines, id);
        }
        lines.raised.sort_unstable();
        self.lines = Some(lines);
    }

    /// The request matrix `R` as of the last [`raise_due`](Self::raise_due):
    /// bit `(u, v)` is set iff queue `(u, v)`'s request line is up.
    pub fn requests(&self) -> &BitMatrix {
        &self.lines().visible
    }

    /// The heads whose request line the last
    /// [`raise_due`](Self::raise_due) raised, as `(u, v, head)` sorted by
    /// `(u, v)`. Each message is listed at most once over a run: a
    /// message becomes a queue head once and stays there until popped.
    pub fn raised(&self) -> &[(usize, usize, usize)] {
        &self.lines().raised
    }
}

#[cfg(test)]
impl Voqs {
    /// The request matrix rebuilt from scratch at `now`: every non-empty
    /// queue whose head was enqueued at least `wire_ns` ago. The reference
    /// the incremental [`raise_due`](Self::raise_due) is checked against.
    fn visible_requests(&self, msgs: &[MsgState], wire_ns: u64, now: u64) -> BitMatrix {
        let mut r = BitMatrix::square(self.ports);
        for u in 0..self.ports {
            for v in self.nonempty_dests(u) {
                let head = self.front(u, v).expect("non-empty queue");
                if msgs[head].enqueued_at.expect("queued => enqueued") + wire_ns <= now {
                    r.set(u, v, true);
                }
            }
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pms_workloads::MsgSpec;
    use std::collections::VecDeque;

    const WIRE_NS: u64 = 80;

    fn msg(id: usize, src: usize, dst: usize) -> MsgState {
        MsgState::new(MsgSpec {
            id,
            src,
            dst,
            bytes: 8,
        })
    }

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

    /// A pop that exposes a head enqueued less than one request-wire
    /// propagation ago drops the line until the new head is due; the
    /// line then rises once, listing the new head.
    #[test]
    fn pop_exposing_a_young_head_waits_for_its_wire() {
        let mut msgs = vec![msg(0, 2, 1), msg(1, 2, 1)];
        let mut q = Voqs::new(4, 2).with_request_lines(WIRE_NS);
        msgs[0].enqueued_at = Some(0);
        q.push(2, 1, 0);
        q.raise_due(&msgs, 79);
        assert!(!q.requests().get(2, 1) && q.raised().is_empty());
        q.raise_due(&msgs, 80);
        assert!(q.requests().get(2, 1));
        assert_eq!(q.raised(), &[(2, 1, 0)]);
        msgs[1].enqueued_at = Some(150);
        q.push(2, 1, 1);
        q.raise_due(&msgs, 200);
        assert!(
            q.raised().is_empty(),
            "a queued second message is no new line"
        );
        assert_eq!(q.pop(2, 1), Some(0));
        for now in [200, 229] {
            q.raise_due(&msgs, now);
            assert!(!q.requests().get(2, 1), "head 1 is not visible at {now}");
            assert!(q.raised().is_empty());
            assert_eq!(*q.requests(), q.visible_requests(&msgs, WIRE_NS, now));
        }
        q.raise_due(&msgs, 230);
        assert!(q.requests().get(2, 1));
        assert_eq!(q.raised(), &[(2, 1, 1)]);
        assert_eq!(q.pop(2, 1), Some(1));
        q.raise_due(&msgs, 1_000);
        assert!(q.requests().all_zero() && q.raised().is_empty());
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

    /// Seeded random push/pop/clock sequences against the dense
    /// reference: ids arrive out of order, a few hot pairs drain and
    /// refill many times, and the link table starts smaller than the id
    /// space so it has to grow. Every message is enqueued at the current
    /// clock, so pops often expose heads whose line is not yet due. After
    /// every operation the queue queries, the incremental request matrix
    /// (against the rebuild scan) and the newly raised heads are compared;
    /// every `scan_every` operations all queue heads and the rebuild scan
    /// are checked against the dense model.
    fn differential(ports: usize, ids: usize, capacity: usize, scan_every: usize, seed: u64) {
        use rand::prelude::*;

        let mut rng = StdRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..ids).collect();
        order.shuffle(&mut rng);
        let hot: Vec<(usize, usize)> = (0..4)
            .map(|_| (rng.gen_range(0..ports), rng.gen_range(0..ports)))
            .collect();
        let mut msgs: Vec<MsgState> = (0..ids).map(|id| msg(id, 0, 0)).collect();
        let mut q = Voqs::new(ports, capacity).with_request_lines(WIRE_NS);
        let mut dense = DenseVoqs {
            ports,
            queues: vec![VecDeque::new(); ports * ports],
        };
        let mut seen = vec![false; ids];
        let mut next_id = order.iter();
        let mut queued = 0usize;
        let mut now = 0u64;
        for step in 0..5 * ids {
            let (u, v) = if rng.gen_bool(0.5) {
                hot[rng.gen_range(0..hot.len())]
            } else {
                (rng.gen_range(0..ports), rng.gen_range(0..ports))
            };
            match rng.gen_range(0..10) {
                0..=4 => {
                    if let Some(&id) = next_id.next() {
                        msgs[id] = msg(id, u, v);
                        msgs[id].enqueued_at = Some(now);
                        let was_empty = dense.queue(u, v).is_empty();
                        dense.queue(u, v).push_back(id);
                        assert_eq!(q.push(u, v, id), was_empty, "step {step}: push edge");
                        queued += 1;
                    }
                }
                5..=7 => {
                    let popped = dense.queue(u, v).pop_front();
                    queued -= usize::from(popped.is_some());
                    assert_eq!(q.pop(u, v), popped, "step {step}: pop");
                }
                _ => now += rng.gen_range(1..2 * WIRE_NS),
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

            q.raise_due(&msgs, now);
            let rebuilt = q.visible_requests(&msgs, WIRE_NS, now);
            assert_eq!(*q.requests(), rebuilt, "step {step}: request matrix");
            let newly: Vec<_> = rebuilt
                .iter_ones()
                .map(|(a, b)| (a, b, q.front(a, b).expect("visible => queued")))
                .filter(|&(_, _, h)| !seen[h])
                .collect();
            assert_eq!(q.raised(), newly.as_slice(), "step {step}: raised heads");
            for &(_, _, h) in &newly {
                seen[h] = true;
            }

            if step % scan_every == 0 {
                for w in 0..ports * ports {
                    let (a, b) = (w / ports, w % ports);
                    assert_eq!(q.front(a, b), dense.queues[w].front().copied());
                }
                let want = dense.visible_requests(&msgs, WIRE_NS, now);
                assert_eq!(rebuilt, want, "step {step}: rebuild scan");
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
        // A switch above the simulator's parallel thresholds, where the
        // request matrix spans several words per row.
        differential(265, 1_200, 0, 97, 6);
    }

    /// Dynamic TDM under the CI grant-drop plan (a healed link outage and
    /// a dropped grant line on `0 -> 3`): the working-set lookups taken
    /// from the raised request lines count exactly what the full rescan
    /// of every queue head counted.
    #[test]
    fn tdm_lookups_under_the_ci_grant_drop_plan() {
        use crate::{Paradigm, PredictorKind, RunSpec, SimParams};
        use pms_faults::FaultPlan;
        use pms_trace::Tracer;
        use pms_workloads::{scatter, uniform};

        let plan = FaultPlan::parse(
            "retry budget=2 base=100 max=1000\n\
             link-down start=500 dur=2000 src=1 dst=2\n\
             grant-drop start=0 dur=40000 src=0 dst=3\n",
        )
        .expect("valid plan");
        // (workload, predictor, ws_lookups, ws_hits, msg_retries) as the
        // rescan classification counted them.
        let cases = [
            (scatter(16, 256), PredictorKind::Drop, 15, 0, 38),
            (uniform(16, 64, 16, 7), PredictorKind::Drop, 256, 99, 39),
            (
                uniform(16, 64, 16, 7),
                PredictorKind::Timeout(400),
                256,
                99,
                39,
            ),
        ];
        for (w, predictor, lookups, hits, retries) in cases {
            let params = SimParams::default().with_ports(16);
            let spec = RunSpec {
                plan: plan.clone(),
                ..RunSpec::new(&w, params, Paradigm::DynamicTdm(predictor))
            };
            let (stats, _) = spec.validate().unwrap().run(Tracer::Null);
            let got = (stats.ws_lookups, stats.ws_hits, stats.msg_retries);
            assert_eq!(got, (lookups, hits, retries), "{} {predictor:?}", w.name);
        }
    }
}

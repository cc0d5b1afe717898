//! The processor/program execution engine shared by all paradigm
//! simulators.
//!
//! Each processor executes its command file sequentially: a `send` costs
//! one NIC cycle (10 ns) and injects a message into the VOQ; `delay` models
//! computation; `barrier` blocks until every processor reaches its barrier
//! *and* the network has drained; `flush`/`preload` raise control effects
//! the paradigm simulator forwards to the scheduler.
//!
//! ## Ready-queue scheduling
//!
//! A poll costs what runs, not how many processors exist. The engine
//! keeps every *runnable* processor (neither finished nor parked at a
//! barrier) on a monotone queue keyed by `ready_at` (see `WakeQueue`),
//! and counts the parked and finished ones. [`Engine::all_done`] is
//! `finished == n` and [`Engine::next_wake`] reads the queue's minimum,
//! which the queue keeps; both are O(1). [`Engine::poll`] takes only the
//! processors due by `now`, runs them, and re-queues the ones still
//! runnable. A barrier can open only when `parked + finished == n`; the
//! O(n) release loop runs only when one actually opens, and the released
//! processors run in the next round of the same poll.
//!
//! Effect order is part of every simulator's output, so each round runs
//! its due processors in ascending *index* order, not queue order:
//! the due list is a bitmap over processor indices, read low bit first.
//! The effects of one round are then exactly what a scan over all
//! processors would emit (processors that are not due emit nothing).
//! When the rounds' concatenated effects are out of time order, the poll
//! stable-sorts them by time, so equal times keep round order, then
//! processor order, then command order; [`Engine::poll_into`] does this
//! in a caller-owned buffer. The full-scan engine this replaced is kept
//! as the test oracle (`engine::reference`).

use pms_workloads::{Command, MsgSpec, Workload};

#[cfg(test)]
mod reference;

/// A control effect produced by program execution, timestamped with the
/// exact processor-local time at which the command executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// Message (by canonical id) entered its source NIC queue.
    Inject(usize),
    /// The processor issued a network flush request.
    Flush,
    /// The processor requested preloading workload pattern `usize`.
    Preload(usize),
}

/// Program-execution state for one processor.
struct Proc {
    cmds: Vec<Command>,
    pc: usize,
    ready_at: u64,
    at_barrier: bool,
    /// Canonical message ids originating here, in command order.
    msgs: Vec<usize>,
    next_msg: usize,
}

impl Proc {
    fn done(&self) -> bool {
        self.pc >= self.cmds.len() && !self.at_barrier
    }

    /// Executes this processor up to `now`, buffering effects; returns
    /// whether any command ran.
    fn execute(&mut self, now: u64, nic_cycle_ns: u64, effects: &mut Vec<(u64, Effect)>) -> bool {
        let mut progressed = false;
        while !self.at_barrier && self.pc < self.cmds.len() && self.ready_at <= now {
            let t = self.ready_at;
            match self.cmds[self.pc] {
                Command::Send { .. } => {
                    let id = self.msgs[self.next_msg];
                    self.next_msg += 1;
                    effects.push((t, Effect::Inject(id)));
                    self.ready_at = t + nic_cycle_ns;
                    self.pc += 1;
                }
                Command::Delay { ns } => {
                    self.ready_at = t + ns;
                    self.pc += 1;
                }
                Command::Barrier => {
                    self.at_barrier = true;
                    // pc advances at release
                    break;
                }
                Command::Flush => {
                    effects.push((t, Effect::Flush));
                    self.ready_at = t + nic_cycle_ns;
                    self.pc += 1;
                }
                Command::Preload { pattern } => {
                    effects.push((t, Effect::Preload(pattern)));
                    self.ready_at = t + nic_cycle_ns;
                    self.pc += 1;
                }
            }
            progressed = true;
        }
        progressed
    }
}

/// The runnable processors, keyed by `ready_at`: a radix heap.
///
/// Polls never go back in time, and a processor re-queued by a poll at
/// `now` is due at `now` or later, so no entry is ever earlier than the
/// last time taken out (`floor`). That lets entries sit in buckets by
/// the highest bit in which their time differs from `floor`: a push is
/// one list insert, and taking the due entries re-buckets the lowest
/// non-empty bucket around its minimum, which moves every entry at that
/// minimum into bucket 0 and every other one to a lower bucket. Entries
/// only move down, so each moves at most 64 times, and once in the
/// lockstep phases where every processor sends each NIC cycle; a binary
/// heap paid two `log n` sifts for every processor run. A processor is
/// queued at most once (the engine queues it only after taking it out
/// or releasing it from a barrier), so each bucket is a list threaded
/// through per-processor links, and the queue's memory is fixed at
/// construction.
struct WakeQueue {
    /// The last due time taken out; no entry is earlier.
    floor: u64,
    /// The first processor of each bucket's list, [`NO_PROC`] if empty.
    /// Bucket `b > 0` holds the entries whose time first differs from
    /// `floor` in bit `b - 1`; bucket 0 holds those equal to it.
    head: [u32; 65],
    /// Per processor: the next processor in its bucket's list.
    next: Vec<u32>,
    /// Per processor: the time it is queued for.
    at: Vec<u64>,
    /// The earliest queued time.
    min: Option<u64>,
}

/// The end of a [`WakeQueue`] bucket list.
const NO_PROC: u32 = u32::MAX;

impl WakeQueue {
    fn new(procs: usize) -> Self {
        assert!(procs < NO_PROC as usize, "{procs} processors");
        Self {
            floor: 0,
            head: [NO_PROC; 65],
            next: vec![NO_PROC; procs],
            at: vec![0; procs],
            min: None,
        }
    }

    fn bucket(&self, t: u64) -> usize {
        (u64::BITS - (t ^ self.floor).leading_zeros()) as usize
    }

    fn push(&mut self, t: u64, proc: usize) {
        debug_assert!(t >= self.floor, "wake {t} before {}", self.floor);
        let b = self.bucket(t);
        self.at[proc] = t;
        self.next[proc] = self.head[b];
        self.head[b] = proc as u32;
        self.min = Some(self.min.map_or(t, |m| m.min(t)));
    }

    /// Removes every entry due by `now`, handing its processor to `due`.
    fn pop_due(&mut self, now: u64, mut due: impl FnMut(usize)) {
        while let Some(min) = self.min.filter(|&m| m <= now) {
            if self.head[0] == NO_PROC {
                // Re-key the lowest non-empty bucket around its minimum.
                let b = self.bucket(min);
                self.floor = min;
                let mut p = std::mem::replace(&mut self.head[b], NO_PROC);
                while p != NO_PROC {
                    let (i, after) = (p as usize, self.next[p as usize]);
                    let to = self.bucket(self.at[i]);
                    self.next[i] = self.head[to];
                    self.head[to] = p;
                    p = after;
                }
            }
            let mut p = std::mem::replace(&mut self.head[0], NO_PROC);
            while p != NO_PROC {
                due(p as usize);
                p = self.next[p as usize];
            }
            self.min = self.head.iter().find(|&&h| h != NO_PROC).map(|&h| {
                let (mut p, mut m) = (h, u64::MAX);
                while p != NO_PROC {
                    m = m.min(self.at[p as usize]);
                    p = self.next[p as usize];
                }
                m
            });
        }
    }
}

/// Program-execution state for all processors.
pub struct Engine {
    procs: Vec<Proc>,
    nic_cycle_ns: u64,
    /// Runnable processors (neither finished nor parked), keyed by
    /// `ready_at`.
    ready: WakeQueue,
    /// Processors parked at a barrier.
    parked: usize,
    /// Processors that executed their whole program.
    finished: usize,
    /// Whether a poll has run. Before the first one every runnable
    /// processor is due at time 0, so that poll takes them straight from
    /// the program list and the queue only holds what stays runnable.
    started: bool,
    /// The processors due in the current round, one bit per processor,
    /// kept across polls. Set bits iterate in ascending index order.
    due: Vec<u64>,
}

impl Engine {
    /// Builds an engine from a workload and its canonical message table
    /// (the table must come from [`Workload::message_table`] so ids line
    /// up).
    pub fn new(workload: &Workload, table: &[MsgSpec], nic_cycle_ns: u64) -> Self {
        let n = workload.ports;
        let mut msgs_by_src = vec![Vec::new(); n];
        for m in table {
            msgs_by_src[m.src].push(m.id);
        }
        let procs: Vec<Proc> = workload
            .programs
            .iter()
            .zip(msgs_by_src)
            .map(|(p, msgs)| Proc {
                cmds: p.cmds.clone(),
                pc: 0,
                ready_at: 0,
                at_barrier: false,
                msgs,
                next_msg: 0,
            })
            .collect();
        Self {
            finished: procs.iter().filter(|p| p.done()).count(),
            procs,
            nic_cycle_ns,
            ready: WakeQueue::new(n),
            parked: 0,
            started: false,
            due: vec![0; n.div_ceil(64)],
        }
    }

    /// True when every processor has executed its whole program.
    pub fn all_done(&self) -> bool {
        self.finished == self.procs.len()
    }

    /// The earliest future time at which a processor has work to run, or
    /// `None` if all are done or blocked on a barrier.
    pub fn next_wake(&self) -> Option<u64> {
        if !self.started {
            return (self.finished < self.procs.len()).then_some(0);
        }
        self.ready.min
    }

    /// Runs every processor forward to `now`, which must not decrease
    /// between polls. `network_drained` must be true iff no injected
    /// message is still undelivered; it gates barrier release. Returns
    /// timestamped effects in nondecreasing time order.
    ///
    /// Release and execution iterate to a fixpoint, so a processor that
    /// reaches its barrier during this poll can still be released by it —
    /// but only while no message has been injected in the meantime (an
    /// injection invalidates `network_drained`).
    pub fn poll(&mut self, now: u64, network_drained: bool) -> Vec<(u64, Effect)> {
        let mut effects = Vec::new();
        self.poll_into(now, network_drained, &mut effects);
        effects
    }

    /// [`poll`](Self::poll) into a caller-owned buffer, which is cleared
    /// first, so a run that reuses one buffer allocates nothing per poll.
    ///
    /// Each round's effects are in processor order, and a barrier release
    /// round runs at `now`, after every earlier effect. So the effects
    /// are already in time order unless the poll came later than some
    /// processor's wake-up and two processors' clocks interleave; every
    /// switch polls at the engine's own wake-ups. Only then are they
    /// stable-sorted by time, and equal times keep round, processor and
    /// command order either way.
    pub fn poll_into(&mut self, now: u64, network_drained: bool, effects: &mut Vec<(u64, Effect)>) {
        effects.clear();
        loop {
            self.run_due(now, effects);
            let drained =
                network_drained && !effects.iter().any(|(_, e)| matches!(e, Effect::Inject(_)));
            if !self.try_release_barrier(now, drained) {
                break;
            }
        }
        if !effects.is_sorted_by_key(|&(t, _)| t) {
            effects.sort_by_key(|&(t, _)| t);
        }
    }

    /// Runs, in index order, every runnable processor due by `now`, then
    /// files each as parked, finished, or runnable again.
    fn run_due(&mut self, now: u64, effects: &mut Vec<(u64, Effect)>) {
        let mut due = std::mem::take(&mut self.due);
        let (mut lo, mut hi) = (due.len(), 0);
        let mut mark = |i: usize| {
            due[i / 64] |= 1 << (i % 64);
            lo = lo.min(i / 64);
            hi = hi.max(i / 64 + 1);
        };
        if !self.started {
            self.started = true;
            (0..self.procs.len())
                .filter(|&i| !self.procs[i].done())
                .for_each(&mut mark);
        } else {
            self.ready.pop_due(now, &mut mark);
        }
        for (w, word) in due.iter_mut().enumerate().take(hi).skip(lo) {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let p = &mut self.procs[i];
                p.execute(now, self.nic_cycle_ns, effects);
                if p.at_barrier {
                    self.parked += 1;
                } else if p.done() {
                    self.finished += 1;
                } else {
                    self.push_ready(i);
                }
            }
        }
        self.due = due;
    }

    /// Releases the barrier if every processor is parked (or finished) and
    /// the network is empty. Returns whether a release happened.
    fn try_release_barrier(&mut self, now: u64, network_drained: bool) -> bool {
        if !network_drained || self.parked == 0 || self.parked + self.finished < self.procs.len() {
            return false;
        }
        for i in 0..self.procs.len() {
            let p = &mut self.procs[i];
            if p.at_barrier {
                p.at_barrier = false;
                p.pc += 1;
                p.ready_at = p.ready_at.max(now);
                if p.done() {
                    self.finished += 1;
                } else {
                    self.push_ready(i);
                }
            }
        }
        self.parked = 0;
        true
    }

    /// Puts runnable processor `i` back on the ready queue.
    fn push_ready(&mut self, i: usize) {
        self.ready.push(self.procs[i].ready_at, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pms_workloads::Program;
    use proptest::prelude::*;

    fn wl(programs: Vec<Program>) -> (Workload, Vec<MsgSpec>) {
        let n = programs.len();
        let w = Workload::new("t", n, programs);
        let table = w.message_table();
        (w, table)
    }

    #[test]
    fn sends_are_paced_by_nic_cycle() {
        let mut p = Program::new();
        p.send(1, 8).send(1, 8).send(1, 8);
        let (w, table) = wl(vec![p, Program::new()]);
        let mut e = Engine::new(&w, &table, 10);
        let fx = e.poll(100, true);
        assert_eq!(
            fx,
            vec![
                (0, Effect::Inject(0)),
                (10, Effect::Inject(1)),
                (20, Effect::Inject(2)),
            ]
        );
        assert!(e.all_done());
    }

    #[test]
    fn delay_postpones_following_sends() {
        let mut p = Program::new();
        p.send(1, 8).delay(500).send(1, 8);
        let (w, table) = wl(vec![p, Program::new()]);
        let mut e = Engine::new(&w, &table, 10);
        let fx = e.poll(0, true);
        assert_eq!(fx, vec![(0, Effect::Inject(0))]);
        // The delay command itself executes at t=10 (after the send's NIC
        // cycle), pushing the next send to t=510.
        assert_eq!(e.next_wake(), Some(10));
        assert!(e.poll(509, true).is_empty());
        assert_eq!(e.next_wake(), Some(510));
        assert_eq!(e.poll(510, true), vec![(510, Effect::Inject(1))]);
    }

    #[test]
    fn barrier_waits_for_all_and_drain() {
        let mut a = Program::new();
        a.send(1, 8).barrier().send(1, 8);
        let mut b = Program::new();
        b.delay(100).barrier();
        let (w, table) = wl(vec![a, b]);
        let mut e = Engine::new(&w, &table, 10);
        // t=0: proc 0 sends then parks; proc 1 still delaying.
        let fx = e.poll(0, false);
        assert_eq!(fx, vec![(0, Effect::Inject(0))]);
        // t=100: both at barrier but network not drained.
        assert!(e.poll(100, false).is_empty());
        assert!(!e.all_done());
        // Drained: barrier releases and proc 0 continues.
        let fx = e.poll(200, true);
        assert_eq!(fx, vec![(200, Effect::Inject(1))]);
        assert!(e.all_done());
    }

    #[test]
    fn barrier_release_waits_for_stragglers_even_if_drained() {
        let mut a = Program::new();
        a.barrier();
        let mut b = Program::new();
        b.delay(1_000).barrier();
        let (w, table) = wl(vec![a, b]);
        let mut e = Engine::new(&w, &table, 10);
        assert!(e.poll(500, true).is_empty());
        assert!(!e.all_done(), "proc 1 has not reached the barrier yet");
        e.poll(1_000, true);
        assert!(e.all_done());
    }

    #[test]
    fn flush_and_preload_effects() {
        let mut p = Program::new();
        p.cmds.push(Command::Preload { pattern: 1 });
        p.cmds.push(Command::Flush);
        let (w, table) = wl(vec![p, Program::new()]);
        let mut e = Engine::new(&w, &table, 10);
        let fx = e.poll(50, true);
        assert_eq!(fx, vec![(0, Effect::Preload(1)), (10, Effect::Flush)]);
    }

    /// A poll past several wake-ups whose barrier opens: the first
    /// round's effects interleave two processors' clocks, the release
    /// round follows at `now`, and the reused buffer is sorted into
    /// exactly what a fresh `poll` returns.
    #[test]
    fn poll_into_matches_poll_across_a_barrier_release() {
        let build = || {
            let mut a = Program::new();
            a.cmds
                .extend([Command::Flush, Command::Flush, Command::Flush]);
            a.barrier();
            a.cmds
                .extend([Command::Flush, Command::Preload { pattern: 2 }]);
            let mut b = Program::new();
            b.delay(5);
            b.cmds
                .extend([Command::Preload { pattern: 1 }, Command::Flush]);
            b.barrier();
            b.cmds.push(Command::Flush);
            let (w, table) = wl(vec![a, b]);
            Engine::new(&w, &table, 10)
        };
        let (mut fresh, mut reused) = (build(), build());
        let mut buf = vec![(7, Effect::Inject(99))];
        for (now, drained) in [(0, false), (1_000, true), (1_010, true), (2_000, true)] {
            reused.poll_into(now, drained, &mut buf);
            assert_eq!(buf, fresh.poll(now, drained), "poll at {now}");
            if now == 1_000 {
                assert_eq!(
                    buf,
                    vec![
                        (5, Effect::Preload(1)),
                        (10, Effect::Flush),
                        (15, Effect::Flush),
                        (20, Effect::Flush),
                        (1_000, Effect::Flush),
                        (1_000, Effect::Flush),
                    ]
                );
            }
        }
        assert!(reused.all_done() && fresh.all_done());
    }

    #[test]
    fn finished_engine_has_no_wake() {
        let (w, table) = wl(vec![Program::new(), Program::new()]);
        let mut e = Engine::new(&w, &table, 10);
        assert!(e.all_done());
        assert_eq!(e.next_wake(), None);
        assert!(e.poll(0, true).is_empty());
    }

    /// One command of a random program. Sends and delays carry raw draws
    /// that `build` maps onto the other processors and a 10 ns grain
    /// (the NIC cycle), so effects of different processors often share
    /// a timestamp.
    #[derive(Debug, Clone)]
    enum Op {
        Send(usize),
        Delay(u64),
        Barrier,
        Flush,
        Preload(usize),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => (0usize..1_000).prop_map(Op::Send),
            3 => (0u64..12).prop_map(Op::Delay),
            2 => Just(Op::Barrier),
            2 => Just(Op::Flush),
            2 => (0usize..4).prop_map(Op::Preload),
        ]
    }

    /// 1 to 300 processors, weighted toward small counts where barriers
    /// open often.
    fn programs_strategy() -> impl Strategy<Value = Vec<Vec<Op>>> {
        prop_oneof![2 => 1usize..9, 1 => 9usize..65, 1 => 65usize..301].prop_flat_map(|n| {
            prop::collection::vec(prop::collection::vec(op_strategy(), 0..10), n)
        })
    }

    /// Poll steps: a time advance (zero repeats the last `now`) and the
    /// `network_drained` flag. Advances mostly stay on the 10 ns grain,
    /// so polls often land exactly where a processor is due.
    fn steps_strategy() -> impl Strategy<Value = Vec<(u64, bool)>> {
        let advance = prop_oneof![
            2 => Just(0u64),
            8 => (1u64..8).prop_map(|k| k * 10),
            1 => (10u64..200).prop_map(|k| k * 10),
            1 => 0u64..100,
        ];
        prop::collection::vec((advance, (0u8..3).prop_map(|d| d > 0)), 1..60)
    }

    fn build(ops: &[Vec<Op>]) -> (Workload, Vec<MsgSpec>) {
        let n = ops.len();
        let programs = ops
            .iter()
            .enumerate()
            .map(|(src, cmds)| {
                let mut p = Program::new();
                for op in cmds {
                    match *op {
                        // A lone processor has no one to send to.
                        Op::Send(_) if n == 1 => p.cmds.push(Command::Flush),
                        Op::Send(d) => {
                            p.send((src + 1 + d % (n - 1)) % n, 8);
                        }
                        Op::Delay(k) => {
                            // Mostly NIC-cycle multiples, sometimes odd.
                            p.delay(if k < 9 { k * 10 } else { k * 7 });
                        }
                        Op::Barrier => {
                            p.barrier();
                        }
                        Op::Flush => p.cmds.push(Command::Flush),
                        Op::Preload(pattern) => p.cmds.push(Command::Preload { pattern }),
                    }
                }
                p
            })
            .collect();
        wl(programs)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The ready-queue engine and the full-scan reference, driven in
        /// lockstep through random polls (repeated `now` values and random
        /// drain flags included), then run to completion, agree on every
        /// `poll`, `next_wake` and `all_done`.
        #[test]
        fn ready_heap_engine_matches_scan_reference(
            ops in programs_strategy(),
            steps in steps_strategy(),
        ) {
            let (w, table) = build(&ops);
            let mut fast = Engine::new(&w, &table, 10);
            let mut scan = reference::ScanEngine::new(&w, &table, 10);
            prop_assert_eq!(fast.next_wake(), scan.next_wake());
            prop_assert_eq!(fast.all_done(), scan.all_done());
            let mut now = 0;
            // The random steps, then drained polls far enough apart to run
            // every program to its end.
            let finish = std::iter::repeat_n((1_000_000, true), 25);
            for (i, (advance, drained)) in steps.iter().copied().chain(finish).enumerate() {
                now += advance;
                let (f, r) = (fast.poll(now, drained), scan.poll(now, drained));
                prop_assert_eq!(&f, &r, "poll {} at t={} (drained={})", i, now, drained);
                prop_assert_eq!(fast.next_wake(), scan.next_wake(), "next_wake after poll {}", i);
                prop_assert_eq!(fast.all_done(), scan.all_done(), "all_done after poll {}", i);
            }
            prop_assert!(fast.all_done(), "every program runs to its end");
        }
    }
}

//! Kernel perf counters: a zero-dep, always-compiled-in profile registry
//! for the simulator's hot kernels.
//!
//! Each kernel call site wraps its body in a [`ProfScope`]; dropping the
//! scope records one invocation, the words it touched, and — on a 1-in-64
//! sample — its wall time via [`std::time::Instant`]. Everything lands in
//! a fixed static table of relaxed atomics, so:
//!
//! * **disabled** (the default) costs one relaxed load and a predicted
//!   branch per kernel call — well inside the ≤2% Null-sink overhead
//!   budget asserted by the `trace_overhead` benchmark;
//! * **enabled** costs two relaxed `fetch_add`s per call plus a sampled
//!   `Instant` pair, and needs no registry plumbed through call sites
//!   (the kernels live in crates below the simulators).
//!
//! Counters are process-global; [`reset`] zeroes them between runs and
//! [`export_metrics`] copies a snapshot into a [`MetricsRegistry`] under
//! `prof.<kernel>.{calls,words,timed_calls,timed_ns}`.

use crate::metrics::MetricsRegistry;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// The instrumented hot kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProfKernel {
    /// One SL-array scheduling pass (`pms-sched::sl_pass`). Its words are
    /// the row-occupancy words of `L` plus one row of `L` words per
    /// request row the ripple visits; the event searches over that row's
    /// `B^(s)` and column-busy words are not counted. Denials are
    /// popcounted, so the count does not grow with them.
    SlPass = 0,
    /// A word-parallel bit-matrix reduction (`pms-bitmat`).
    BitmatReduce = 1,
    /// One multistage route search (`pms-multistage` DFS).
    RouteDfs = 2,
    /// An idle-skip boundary scan in a simulator main loop.
    IdleScan = 3,
}

/// Number of kernels (size of the static counter table).
const KERNEL_COUNT: usize = 4;

/// Time every `SAMPLE_MASK + 1`-th invocation (must be a power of two
/// minus one).
const SAMPLE_MASK: u64 = 63;

impl ProfKernel {
    /// Every kernel, in table order.
    pub const ALL: [ProfKernel; KERNEL_COUNT] = [
        ProfKernel::SlPass,
        ProfKernel::BitmatReduce,
        ProfKernel::RouteDfs,
        ProfKernel::IdleScan,
    ];

    /// Stable label used in metric names and JSON exports.
    pub fn label(self) -> &'static str {
        match self {
            ProfKernel::SlPass => "sl_pass",
            ProfKernel::BitmatReduce => "bitmat_reduce",
            ProfKernel::RouteDfs => "route_dfs",
            ProfKernel::IdleScan => "idle_scan",
        }
    }
}

/// One kernel's counters. All relaxed: per-counter totals are exact, the
/// set is only quiescently consistent, which is all a profile needs.
struct Cell {
    calls: AtomicU64,
    words: AtomicU64,
    timed_calls: AtomicU64,
    timed_ns: AtomicU64,
}

impl Cell {
    const fn new() -> Self {
        Cell {
            calls: AtomicU64::new(0),
            words: AtomicU64::new(0),
            timed_calls: AtomicU64::new(0),
            timed_ns: AtomicU64::new(0),
        }
    }
}

static CELLS: [Cell; KERNEL_COUNT] = [const { Cell::new() }; KERNEL_COUNT];
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns profiling on or off (global; off by default).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// Whether profiling is currently on.
pub fn enabled() -> bool {
    ENABLED.load(Relaxed)
}

/// Zeroes every counter (call between runs; enablement is unchanged).
pub fn reset() {
    for cell in &CELLS {
        cell.calls.store(0, Relaxed);
        cell.words.store(0, Relaxed);
        cell.timed_calls.store(0, Relaxed);
        cell.timed_ns.store(0, Relaxed);
    }
}

/// A read-only copy of one kernel's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelSnapshot {
    /// Which kernel.
    pub kernel: ProfKernel,
    /// Invocations recorded.
    pub calls: u64,
    /// Words touched, as reported by call sites via
    /// [`ProfScope::add_words`].
    pub words: u64,
    /// Invocations that were wall-time sampled (1 in 64).
    pub timed_calls: u64,
    /// Total wall time of the sampled invocations, in nanoseconds.
    pub timed_ns: u64,
}

impl KernelSnapshot {
    /// Mean nanoseconds per sampled call (`None` until something was
    /// sampled).
    pub fn mean_ns(&self) -> Option<u64> {
        (self.timed_calls > 0).then(|| self.timed_ns / self.timed_calls)
    }
}

/// Copies of all kernel counters, in [`ProfKernel::ALL`] order.
pub fn snapshot() -> Vec<KernelSnapshot> {
    ProfKernel::ALL
        .iter()
        .map(|&kernel| {
            let cell = &CELLS[kernel as usize];
            KernelSnapshot {
                kernel,
                calls: cell.calls.load(Relaxed),
                words: cell.words.load(Relaxed),
                timed_calls: cell.timed_calls.load(Relaxed),
                timed_ns: cell.timed_ns.load(Relaxed),
            }
        })
        .collect()
}

/// Exports the current counters into `reg` as
/// `prof.<kernel>.{calls,words,timed_calls,timed_ns}` counters.
pub fn export_metrics(reg: &mut MetricsRegistry) {
    for snap in snapshot() {
        let label = snap.kernel.label();
        for (suffix, value) in [
            ("calls", snap.calls),
            ("words", snap.words),
            ("timed_calls", snap.timed_calls),
            ("timed_ns", snap.timed_ns),
        ] {
            let id = reg.counter(&format!("prof.{label}.{suffix}"));
            reg.set(id, value);
        }
    }
}

/// RAII guard instrumenting one kernel invocation.
///
/// Construct with [`ProfScope::enter`] at the top of the kernel, report
/// touched words with [`ProfScope::add_words`], and let the drop record
/// everything. When profiling is disabled the scope is inert.
#[must_use = "a ProfScope records on drop; binding it to _ discards the measurement"]
pub struct ProfScope {
    kernel: ProfKernel,
    active: bool,
    words: u64,
    start: Option<Instant>,
}

impl ProfScope {
    /// Opens a scope for `kernel`; inert when profiling is off.
    #[inline]
    pub fn enter(kernel: ProfKernel) -> ProfScope {
        let active = ENABLED.load(Relaxed);
        let start = if active {
            // Sample wall time 1 call in 64, keyed off the running call
            // count so the samples spread across the run.
            let prev = CELLS[kernel as usize].calls.fetch_add(1, Relaxed);
            (prev & SAMPLE_MASK == 0).then(Instant::now)
        } else {
            None
        };
        ProfScope {
            kernel,
            active,
            words: 0,
            start,
        }
    }

    /// Adds `n` to the words-touched total recorded at drop.
    #[inline]
    pub fn add_words(&mut self, n: u64) {
        if self.active {
            self.words += n;
        }
    }
}

impl Drop for ProfScope {
    #[inline]
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let cell = &CELLS[self.kernel as usize];
        if self.words > 0 {
            cell.words.fetch_add(self.words, Relaxed);
        }
        if let Some(start) = self.start {
            cell.timed_calls.fetch_add(1, Relaxed);
            cell.timed_ns
                .fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The counters are process-global and cargo runs tests on threads,
    // so everything touching them lives in this one serialized test.
    #[test]
    fn prof_counters_record_and_export() {
        reset();
        assert!(!enabled(), "profiling is off by default");

        // Disabled scopes record nothing.
        {
            let mut s = ProfScope::enter(ProfKernel::SlPass);
            s.add_words(128);
        }
        assert_eq!(snapshot()[ProfKernel::SlPass as usize].calls, 0);

        set_enabled(true);
        for _ in 0..65 {
            let mut s = ProfScope::enter(ProfKernel::SlPass);
            s.add_words(4);
        }
        {
            let _s = ProfScope::enter(ProfKernel::RouteDfs);
        }
        set_enabled(false);

        let snaps = snapshot();
        let sl = snaps[ProfKernel::SlPass as usize];
        assert_eq!(sl.calls, 65);
        assert_eq!(sl.words, 65 * 4);
        // Calls 0 and 64 hit the 1-in-64 sample.
        assert_eq!(sl.timed_calls, 2);
        assert!(sl.mean_ns().is_some());
        assert_eq!(snaps[ProfKernel::RouteDfs as usize].calls, 1);
        assert_eq!(snaps[ProfKernel::BitmatReduce as usize].calls, 0);

        let mut reg = MetricsRegistry::new();
        export_metrics(&mut reg);
        assert_eq!(reg.counter_value("prof.sl_pass.calls"), Some(65));
        assert_eq!(reg.counter_value("prof.sl_pass.words"), Some(65 * 4));
        assert_eq!(reg.counter_value("prof.route_dfs.calls"), Some(1));

        reset();
        assert_eq!(snapshot()[ProfKernel::SlPass as usize].calls, 0);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            ProfKernel::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), ProfKernel::ALL.len());
    }
}

//! The assembled scheduler (Figure 2) with the paper's five extensions.
//!
//! Beyond the basic request/grant loop, §4 lists extensions this module
//! implements:
//!
//! 1. *multiple SL units* — callers may run [`Scheduler::pass_on_slot`] for
//!    several slots per SL clock (the simulator uses this for ablations);
//! 2. *multi-slot connections* — pairs marked via
//!    [`Scheduler::set_multislot`] are inserted into every slot with free
//!    ports, multiplying their bandwidth;
//! 3. *request latches* — with [`HoldPolicy::Latch`] a request stays
//!    asserted after the NIC drops it, keeping the connection cached until
//!    [`Scheduler::clear_latch`] (driven by a predictor time-out) or a
//!    flush;
//! 4. *flush* — [`Scheduler::flush_dynamic`] clears all dynamically
//!    scheduled connections (compiler-inserted phase boundaries);
//! 5. *preloaded configurations* — [`Scheduler::preload`] installs a
//!    predefined configuration into a register and protects it from
//!    dynamic scheduling until [`Scheduler::unload`].

use crate::presched::{presched_matrix, SlInputs};
use crate::slarray::{sl_pass, Priority};
use pms_bitmat::BitMatrix;

/// What happens to a connection when its NIC drops the request signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HoldPolicy {
    /// Release at the next scheduling pass (the base design of Table 1).
    #[default]
    Drop,
    /// Latch the request: the connection stays established until the latch
    /// is explicitly cleared (extension 3, driven by a predictor).
    Latch,
}

/// Whether a connection may occupy more than one time slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BandwidthMode {
    /// Each connection lives in exactly one slot (`L` uses `B*`).
    #[default]
    SingleSlot,
    /// Connections marked via [`Scheduler::set_multislot`] are inserted
    /// into every slot with free ports (extension 2).
    PerPairMultiSlot,
}

/// Static scheduler parameters.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Number of ports `N`.
    pub ports: usize,
    /// Number of configuration registers `K`.
    pub slots: usize,
    /// Request-drop behaviour.
    pub hold: HoldPolicy,
    /// Multi-slot bandwidth support.
    pub bandwidth: BandwidthMode,
    /// Rotate the SL-array priority after every pass (fairness, §4).
    pub rotate_priority: bool,
}

impl SchedulerConfig {
    /// A scheduler with `ports` ports and `slots` registers, default
    /// policies (drop on request removal, single slot, rotating priority).
    pub fn new(ports: usize, slots: usize) -> Self {
        assert!(ports > 0, "scheduler needs at least one port");
        assert!(slots > 0, "scheduler needs at least one slot");
        Self {
            ports,
            slots,
            hold: HoldPolicy::Drop,
            bandwidth: BandwidthMode::SingleSlot,
            rotate_priority: true,
        }
    }

    /// Sets the hold policy.
    pub fn with_hold(mut self, hold: HoldPolicy) -> Self {
        self.hold = hold;
        self
    }

    /// Sets the bandwidth mode.
    pub fn with_bandwidth(mut self, bw: BandwidthMode) -> Self {
        self.bandwidth = bw;
        self
    }

    /// Enables or disables priority rotation.
    pub fn with_rotation(mut self, rotate: bool) -> Self {
        self.rotate_priority = rotate;
        self
    }
}

/// Per-slot admission of endpoint pairs into a fabric with internal
/// state — the one way a blocking fabric (stage graphs, the multi-hop
/// torus) constrains [`Scheduler::pass_admitted`].
///
/// The router shadows the scheduler's registers with its own resource
/// model (e.g. per-stage configuration matrices and internal-line
/// occupancy). [`try_admit`](SlotRouter::try_admit) must be atomic:
/// either the connection is fully threaded through the fabric for that
/// slot (and `true` returned), or no router state changes. The scheduler
/// guarantees it never admits the same `(slot, u, v)` twice without an
/// intervening [`release`](SlotRouter::release), and only releases what
/// it admitted.
pub trait SlotRouter {
    /// Attempts to route `u -> v` through the fabric within time slot
    /// `slot`. Returns `false` (leaving no trace) if the fabric blocks.
    fn try_admit(&mut self, slot: usize, u: usize, v: usize) -> bool;

    /// Releases the resources `u -> v` holds in time slot `slot`.
    fn release(&mut self, slot: usize, u: usize, v: usize);

    /// Number of fabric stages behind this router. The default of 1
    /// marks a degenerate (single-crossbar) fabric; observability uses
    /// this to emit `route` span markers only for genuinely multi-stage
    /// routes, keeping the one-stage graph byte-identical to plain
    /// dynamic scheduling.
    fn stages(&self) -> usize {
        1
    }
}

/// Result of one scheduling pass.
#[derive(Debug, Clone)]
pub struct PassReport {
    /// The slot the pass operated on; `None` if no dynamic slot exists.
    pub slot: Option<usize>,
    /// Connections established this pass.
    pub established: Vec<(usize, usize)>,
    /// Connections released this pass.
    pub released: Vec<(usize, usize)>,
    /// Requests the SL array denied this pass (port unavailable).
    pub denied: usize,
    /// Establishments revoked by fabric or fault admission (see
    /// [`Scheduler::pass_admitted`]; empty for plain passes). These
    /// requests stay pending and retry on later passes, which target
    /// other slots.
    pub admission_denied: Vec<(usize, usize)>,
    /// Number of SL cells the availability ripple visited this pass — the
    /// dynamic ripple depth, bounded by `2N`. Feed it to
    /// [`SlTimingModel::latency_for_depth_ns`](crate::SlTimingModel::latency_for_depth_ns)
    /// for a data-dependent pass latency.
    pub ripple_depth: usize,
}

impl PassReport {
    fn empty() -> Self {
        Self {
            slot: None,
            established: Vec::new(),
            released: Vec::new(),
            denied: 0,
            admission_denied: Vec::new(),
            ripple_depth: 0,
        }
    }
}

/// Cumulative scheduler statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// SL passes executed.
    pub passes: u64,
    /// Connections established.
    pub establishes: u64,
    /// Connections released.
    pub releases: u64,
    /// Requests denied for lack of ports.
    pub denials: u64,
    /// Flush commands processed.
    pub flushes: u64,
}

/// The scheduler of Figure 2: `K` configuration registers plus the
/// scheduling logic, pre-scheduling logic, and SL/TDM counters.
///
/// ```
/// use pms_bitmat::BitMatrix;
/// use pms_sched::{Scheduler, SchedulerConfig};
///
/// let mut sched = Scheduler::new(SchedulerConfig::new(8, 2));
/// // Two NICs request the same output port: TDM resolves the conflict by
/// // placing them in different time slots.
/// let r = BitMatrix::from_pairs(8, 8, [(0, 5), (3, 5)]);
/// sched.pass(&r);
/// sched.pass(&r);
/// assert!(sched.established(0, 5) && sched.established(3, 5));
/// assert_ne!(sched.slots_of(0, 5), sched.slots_of(3, 5));
/// ```
pub struct Scheduler {
    cfg: SchedulerConfig,
    configs: Vec<BitMatrix>,
    preloaded: Vec<bool>,
    b_star: BitMatrix,
    latched: BitMatrix,
    multislot: BitMatrix,
    /// The last pass's `L` and occupancy vectors, rewritten every pass.
    inputs: SlInputs,
    sl_cursor: usize,
    priority: Priority,
    stats: SchedStats,
}

impl Scheduler {
    /// Creates a scheduler with all registers empty.
    pub fn new(cfg: SchedulerConfig) -> Self {
        let n = cfg.ports;
        let k = cfg.slots;
        Self {
            cfg,
            configs: vec![BitMatrix::square(n); k],
            preloaded: vec![false; k],
            b_star: BitMatrix::square(n),
            latched: BitMatrix::square(n),
            multislot: BitMatrix::square(n),
            inputs: SlInputs::new(n),
            sl_cursor: 0,
            priority: Priority::default(),
            stats: SchedStats::default(),
        }
    }

    /// Number of ports `N`.
    pub fn ports(&self) -> usize {
        self.cfg.ports
    }

    /// Number of configuration registers `K`.
    pub fn slots(&self) -> usize {
        self.cfg.slots
    }

    /// The configuration matrix of slot `s`.
    pub fn config(&self, s: usize) -> &BitMatrix {
        &self.configs[s]
    }

    /// All configuration matrices.
    pub fn configs(&self) -> &[BitMatrix] {
        &self.configs
    }

    /// The union matrix `B*` (every connection established in any slot).
    pub fn b_star(&self) -> &BitMatrix {
        &self.b_star
    }

    /// The latched request matrix (extension 3).
    pub fn latched(&self) -> &BitMatrix {
        &self.latched
    }

    /// Whether slot `s` holds a protected preloaded configuration.
    pub fn is_preloaded(&self, s: usize) -> bool {
        self.preloaded[s]
    }

    /// True if the connection `u -> v` is established in some slot.
    pub fn established(&self, u: usize, v: usize) -> bool {
        self.b_star.get(u, v)
    }

    /// The slots in which `u -> v` is established.
    pub fn slots_of(&self, u: usize, v: usize) -> Vec<usize> {
        (0..self.cfg.slots)
            .filter(|&s| self.configs[s].get(u, v))
            .collect()
    }

    /// The grant signal `G_u` for slot `s`: the output port input `u` may
    /// send to during that slot, if any. "At most one of `G_{u,v}` can be
    /// non-zero at any given time."
    pub fn grant(&self, s: usize, u: usize) -> Option<usize> {
        self.configs[s].iter_row_ones(u).next()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// Marks (or unmarks) `u -> v` for multi-slot insertion (extension 2).
    /// Only meaningful under [`BandwidthMode::PerPairMultiSlot`].
    pub fn set_multislot(&mut self, u: usize, v: usize, enabled: bool) {
        self.multislot.set(u, v, enabled);
    }

    /// Installs a predefined configuration into register `s` and protects
    /// it from dynamic scheduling (extension 5).
    ///
    /// # Panics
    /// Panics if `config` is not a partial permutation of the right size.
    pub fn preload(&mut self, s: usize, config: BitMatrix) {
        assert_eq!(
            (config.rows(), config.cols()),
            (self.cfg.ports, self.cfg.ports),
            "preloaded configuration has wrong dimensions"
        );
        assert!(
            config.is_partial_permutation(),
            "preloaded configuration conflicts on a port"
        );
        self.configs[s] = config;
        self.preloaded[s] = true;
        self.recompute_b_star();
    }

    /// Evicts the configuration in register `s` (preloaded or dynamic) and
    /// unprotects the slot.
    pub fn unload(&mut self, s: usize) {
        self.configs[s].clear();
        self.preloaded[s] = false;
        self.recompute_b_star();
    }

    /// Removes the single connection `u -> v` from slot `s` (used by
    /// fabric-constrained scheduling to revoke an establishment that the
    /// fabric cannot realize).
    ///
    /// # Panics
    /// Panics if the connection is not present in that slot.
    pub fn revoke(&mut self, s: usize, u: usize, v: usize) {
        assert!(
            self.configs[s].get(u, v),
            "cannot revoke absent connection ({u},{v}) in slot {s}"
        );
        self.configs[s].set(u, v, false);
        self.recompute_b_star();
    }

    /// Re-inserts connection `u -> v` into slot `s` (the inverse of
    /// [`revoke`](Self::revoke)).
    ///
    /// # Panics
    /// Panics if inserting would conflict on a port within the slot.
    pub fn restore(&mut self, s: usize, u: usize, v: usize) {
        self.configs[s].set(u, v, true);
        assert!(
            self.configs[s].is_partial_permutation(),
            "restoring ({u},{v}) conflicts in slot {s}"
        );
        self.recompute_b_star();
    }

    /// Clears every *dynamic* (non-preloaded) register and all request
    /// latches — the compiler-inserted flush of extension 4 / §3.3.
    ///
    /// Returns the connections that were cleared (sorted, deduplicated),
    /// so callers can account for or trace each eviction.
    pub fn flush_dynamic(&mut self) -> Vec<(usize, usize)> {
        let mut cleared = Vec::new();
        for s in 0..self.cfg.slots {
            if !self.preloaded[s] {
                cleared.extend(self.configs[s].iter_ones());
                self.configs[s].clear();
            }
        }
        cleared.sort_unstable();
        cleared.dedup();
        self.latched.clear();
        self.stats.flushes += 1;
        self.recompute_b_star();
        cleared
    }

    /// Clears everything, including preloaded configurations.
    pub fn flush_all(&mut self) {
        for s in 0..self.cfg.slots {
            self.configs[s].clear();
            self.preloaded[s] = false;
        }
        self.latched.clear();
        self.stats.flushes += 1;
        self.recompute_b_star();
    }

    /// Clears the request latch for `u -> v`, letting the next pass release
    /// the connection if the NIC no longer requests it (predictor-driven
    /// eviction, extension 3).
    pub fn clear_latch(&mut self, u: usize, v: usize) {
        self.latched.set(u, v, false);
    }

    /// One SL clock: pick the next dynamic slot round-robin and schedule
    /// the request matrix `R` into it.
    ///
    /// Returns an empty report (slot `None`) when every register is
    /// preloaded — dynamic requests then have nowhere to go until a slot is
    /// unloaded.
    pub fn pass(&mut self, requests: &BitMatrix) -> PassReport {
        let Some(s) = self.next_dynamic_slot() else {
            return PassReport::empty();
        };
        self.pass_on_slot(s, requests)
    }

    /// Like [`pass`](Self::pass), but constrained by the fabric (§6
    /// "fabrics other than crossbars"): after the SL array commits its
    /// establishments, they are stripped and re-admitted one by one in
    /// ripple-priority order. Each must pass the stateless `admit` filter
    /// on the slot configuration (fault masks; pass `|_| true` when
    /// unused) and, when a [`SlotRouter`] is attached, the router's atomic
    /// per-slot admission. Released connections free their router
    /// resources first, so a release-and-establish rearrangement within
    /// one pass can reuse them. Establishments that fail are revoked into
    /// [`PassReport::admission_denied`] and retry on later passes, which
    /// target other slots.
    ///
    /// Admission must be *subset-closed* (accepting a set implies
    /// accepting any subset), which holds for every physical fabric
    /// constraint and fault mask. Without a router that makes the
    /// whole-configuration check a valid fast path: when `admit` accepts
    /// the committed slot configuration, greedy re-admission would keep
    /// every establishment. A router that admits every partial
    /// permutation (the one-stage crossbar graph) makes this exactly
    /// equivalent to [`pass`](Self::pass): same report, same statistics,
    /// same register contents.
    pub fn pass_admitted(
        &mut self,
        requests: &BitMatrix,
        mut router: Option<&mut (dyn SlotRouter + '_)>,
        admit: impl Fn(&BitMatrix) -> bool,
    ) -> PassReport {
        let mut report = self.pass(requests);
        let Some(slot) = report.slot else {
            return report;
        };
        if let Some(rt) = router.as_deref_mut() {
            for &(u, v) in &report.released {
                rt.release(slot, u, v);
            }
        }
        if report.established.is_empty() || (router.is_none() && admit(&self.configs[slot])) {
            return report;
        }
        // Strip all fresh establishments, then re-admit greedily. The
        // register bits are edited directly and B* is rebuilt once at the
        // end (recomputing it per toggle would make this pass O(E) times
        // more expensive).
        for &(u, v) in &report.established {
            self.configs[slot].set(u, v, false);
        }
        let mut admitted = Vec::new();
        let mut denied = Vec::new();
        for &(u, v) in &report.established {
            self.configs[slot].set(u, v, true);
            if admit(&self.configs[slot])
                && router
                    .as_deref_mut()
                    .is_none_or(|rt| rt.try_admit(slot, u, v))
            {
                admitted.push((u, v));
            } else {
                self.configs[slot].set(u, v, false);
                denied.push((u, v));
            }
        }
        self.recompute_b_star();
        self.stats.establishes -= denied.len() as u64;
        self.stats.denials += denied.len() as u64;
        report.established = admitted;
        report.admission_denied = denied;
        report
    }

    /// One SL clock targeted at slot `s` (used by multi-SL-unit ablations
    /// and by circuit switching, where `K = 1`).
    ///
    /// # Panics
    /// Panics if `s` is preloaded (protected) or out of range.
    pub fn pass_on_slot(&mut self, s: usize, requests: &BitMatrix) -> PassReport {
        assert!(s < self.cfg.slots, "slot {s} out of range");
        assert!(
            !self.preloaded[s],
            "slot {s} is preloaded; unload it before dynamic scheduling"
        );
        assert_eq!(
            (requests.rows(), requests.cols()),
            (self.cfg.ports, self.cfg.ports),
            "request matrix has wrong dimensions"
        );
        // The effective requests: `R` itself under `Drop`, the latch with
        // `R` OR-ed in under `Latch`. Both are borrowed, not copied.
        let r_eff = match self.cfg.hold {
            HoldPolicy::Drop => requests,
            HoldPolicy::Latch => {
                self.latched.or_assign(requests);
                &self.latched
            }
        };
        // L = (!R & Bs) | (R & !B*), plus (R & M & !Bs) under multi-slot
        // bandwidth: marked pairs are (re)inserted into every slot with
        // room.
        let multislot = match self.cfg.bandwidth {
            BandwidthMode::SingleSlot => None,
            BandwidthMode::PerPairMultiSlot => Some(&self.multislot),
        };
        self.inputs
            .presched(r_eff, &self.b_star, &self.configs[s], multislot);
        let out = sl_pass(&self.inputs, &self.configs[s], self.priority);
        // Commit the pass, `B^(s) ^= T`: the toggle matrix is exactly the
        // established and released pairs. `B*` changes only at those
        // pairs: an established pair is now in slot `s`, and a released
        // one stays in `B*` only if another register still holds it.
        for &(u, v) in out.established.iter().chain(&out.released) {
            self.configs[s].toggle(u, v);
        }
        for &(u, v) in &out.established {
            self.b_star.set(u, v, true);
        }
        for &(u, v) in &out.released {
            let held = self.configs.iter().any(|c| c.get(u, v));
            self.b_star.set(u, v, held);
        }
        self.stats.passes += 1;
        self.stats.establishes += out.established.len() as u64;
        self.stats.releases += out.released.len() as u64;
        self.stats.denials += out.denied as u64;
        if self.cfg.rotate_priority {
            self.priority.row = (self.priority.row + 1) % self.cfg.ports;
            self.priority.col = (self.priority.col + 1) % self.cfg.ports;
        }
        PassReport {
            slot: Some(s),
            established: out.established,
            released: out.released,
            denied: out.denied,
            admission_denied: Vec::new(),
            ripple_depth: out.cells_visited,
        }
    }

    /// Runs passes over all dynamic slots until a full cycle changes
    /// nothing, or `max_passes` is reached. Returns the number of passes.
    pub fn settle(&mut self, requests: &BitMatrix, max_passes: usize) -> usize {
        let dynamic_slots = self.preloaded.iter().filter(|p| !**p).count();
        if dynamic_slots == 0 {
            return 0;
        }
        let mut quiet_streak = 0;
        for pass_no in 0..max_passes {
            let report = self.pass(requests);
            if report.established.is_empty() && report.released.is_empty() {
                quiet_streak += 1;
                if quiet_streak >= dynamic_slots {
                    return pass_no + 1;
                }
            } else {
                quiet_streak = 0;
            }
        }
        max_passes
    }

    /// Would a [`pass`](Self::pass) with an all-zero request matrix change
    /// nothing on every dynamic slot — no establishes, releases, *or*
    /// denials? True exactly when the idle change-request matrix `L` is
    /// zero for each dynamic register, which makes idle passes pure
    /// counter/rotation bookkeeping that
    /// [`advance_quiescent_pass`](Self::advance_quiescent_pass) and
    /// [`skip_quiescent_passes`](Self::skip_quiescent_passes) can replay
    /// without touching the matrices. Simulators use this as the gate for
    /// idle time-skipping.
    pub fn is_idle_quiescent(&self) -> bool {
        let mut prof = pms_trace::prof::ProfScope::enter(pms_trace::prof::ProfKernel::IdleScan);
        let matrix_words = (self.cfg.ports * self.cfg.ports.div_ceil(64)) as u64;
        let r_eff = match self.cfg.hold {
            // With R = 0, Table 1 gives L = B^(s), and the multi-slot
            // insertion term `R & M & !B^(s)` is zero: an idle pass changes
            // nothing exactly when every dynamic register is empty.
            HoldPolicy::Drop => {
                return (0..self.cfg.slots)
                    .filter(|&s| !self.preloaded[s])
                    .all(|s| {
                        prof.add_words(matrix_words);
                        self.configs[s].all_zero()
                    })
            }
            // An empty request matrix OR-ed into the latch changes nothing,
            // so the effective idle requests are the latch itself.
            HoldPolicy::Latch => &self.latched,
        };
        (0..self.cfg.slots)
            .filter(|&s| !self.preloaded[s])
            .all(|s| {
                prof.add_words(matrix_words);
                let l = presched_matrix(r_eff, &self.b_star, &self.configs[s]);
                if !l.all_zero() {
                    return false;
                }
                match self.cfg.bandwidth {
                    BandwidthMode::SingleSlot => true,
                    // The multi-slot insertion term `R & M & !B^(s)` must
                    // also be zero for the pass to change nothing.
                    BandwidthMode::PerPairMultiSlot => BitMatrix::zip3_with(
                        r_eff,
                        &self.multislot,
                        &self.configs[s],
                        |r, m, bs| r & m & !bs,
                    )
                    .all_zero(),
                }
            })
    }

    /// Replays the bookkeeping of one quiescent [`pass`](Self::pass) — slot
    /// cursor advance, pass counter, priority rotation — without touching
    /// any matrix. Returns the slot the pass would have targeted, or `None`
    /// (and does nothing, exactly like `pass`) when every register is
    /// preloaded.
    ///
    /// Callers must have verified [`is_idle_quiescent`](Self::is_idle_quiescent);
    /// this is debug-asserted.
    pub fn advance_quiescent_pass(&mut self) -> Option<usize> {
        debug_assert!(self.is_idle_quiescent(), "pass would not be quiescent");
        let s = self.next_dynamic_slot()?;
        self.stats.passes += 1;
        if self.cfg.rotate_priority {
            self.priority.row = (self.priority.row + 1) % self.cfg.ports;
            self.priority.col = (self.priority.col + 1) % self.cfg.ports;
        }
        Some(s)
    }

    /// Closed-form batch of [`advance_quiescent_pass`](Self::advance_quiescent_pass):
    /// replays `count` quiescent passes in O(K) — the slot cursor walks the
    /// cyclic dynamic-slot sequence, the pass counter advances by `count`,
    /// and the priority rotates `count mod N` steps. Returns the slot of
    /// the final pass (`None` if every register is preloaded or `count` is
    /// zero, in which case nothing changes).
    pub fn skip_quiescent_passes(&mut self, count: u64) -> Option<usize> {
        if count == 0 {
            return None;
        }
        debug_assert!(self.is_idle_quiescent(), "passes would not be quiescent");
        let k = self.cfg.slots;
        let dynamic: Vec<usize> = (0..k).filter(|&s| !self.preloaded[s]).collect();
        if dynamic.is_empty() {
            return None;
        }
        let m = dynamic.len() as u64;
        // The first selected slot is the first dynamic slot at or after the
        // cursor (cyclically); the rest follow the cyclic dynamic order.
        let i0 = dynamic
            .iter()
            .position(|&s| s >= self.sl_cursor)
            .unwrap_or(0) as u64;
        let last = dynamic[((i0 + (count - 1) % m) % m) as usize];
        self.sl_cursor = (last + 1) % k;
        self.stats.passes += count;
        if self.cfg.rotate_priority {
            let step = (count % self.cfg.ports as u64) as usize;
            self.priority.row = (self.priority.row + step) % self.cfg.ports;
            self.priority.col = (self.priority.col + step) % self.cfg.ports;
        }
        Some(last)
    }

    fn next_dynamic_slot(&mut self) -> Option<usize> {
        let k = self.cfg.slots;
        for step in 0..k {
            let s = (self.sl_cursor + step) % k;
            if !self.preloaded[s] {
                self.sl_cursor = (s + 1) % k;
                return Some(s);
            }
        }
        None
    }

    fn recompute_b_star(&mut self) {
        self.b_star = BitMatrix::union(self.configs.iter());
    }

    /// Debug-check the scheduler's core invariants; used by tests and
    /// property-based fuzzing.
    pub fn check_invariants(&self) {
        for (s, c) in self.configs.iter().enumerate() {
            assert!(
                c.is_partial_permutation(),
                "slot {s} is not a partial permutation"
            );
        }
        let union = BitMatrix::union(self.configs.iter());
        assert_eq!(union, self.b_star, "B* out of sync with registers");
        // A pair may occupy several slots only if it is multi-slot marked
        // or one of its copies lives in a preloaded register (a preloaded
        // pattern may legitimately duplicate a dynamically established
        // connection; the dynamic copy is released once its request drops).
        for (u, v) in self.b_star.iter_ones() {
            let slots = self.slots_of(u, v);
            if slots.len() > 1 {
                let allowed = self.multislot.get(u, v) || slots.iter().any(|&s| self.preloaded[s]);
                assert!(
                    allowed,
                    "dynamic connection ({u},{v}) duplicated across slots {slots:?}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reqs(n: usize, pairs: &[(usize, usize)]) -> BitMatrix {
        BitMatrix::from_pairs(n, n, pairs.iter().copied())
    }

    #[test]
    fn establishes_and_persists() {
        let mut s = Scheduler::new(SchedulerConfig::new(8, 4));
        let r = reqs(8, &[(0, 1), (2, 3)]);
        let rep = s.pass(&r);
        assert_eq!(rep.slot, Some(0));
        assert_eq!(rep.established.len(), 2);
        assert!(s.established(0, 1) && s.established(2, 3));
        // A second pass on another slot does not duplicate the connections.
        let rep2 = s.pass(&r);
        assert_eq!(rep2.slot, Some(1));
        assert!(rep2.established.is_empty());
        s.check_invariants();
    }

    #[test]
    fn releases_when_request_drops() {
        let mut s = Scheduler::new(SchedulerConfig::new(8, 2));
        s.pass(&reqs(8, &[(0, 1)]));
        assert!(s.established(0, 1));
        // Request gone; the connection is in slot 0, so it is released when
        // the round-robin cursor returns there.
        let empty = reqs(8, &[]);
        s.pass(&empty); // slot 1: nothing
        let rep = s.pass(&empty); // slot 0: release
        assert_eq!(rep.released, vec![(0, 1)]);
        assert!(!s.established(0, 1));
        s.check_invariants();
    }

    #[test]
    fn conflicting_requests_spread_across_slots() {
        // Two inputs want the same output: TDM puts them in different slots
        // instead of tearing either down.
        let mut s = Scheduler::new(SchedulerConfig::new(8, 4));
        let r = reqs(8, &[(0, 5), (1, 5)]);
        s.pass(&r); // slot 0 takes one
        s.pass(&r); // slot 1 takes the other
        assert!(s.established(0, 5) && s.established(1, 5));
        let s0 = s.slots_of(0, 5);
        let s1 = s.slots_of(1, 5);
        assert_eq!(s0.len(), 1);
        assert_eq!(s1.len(), 1);
        assert_ne!(s0[0], s1[0], "conflicting pairs must use distinct slots");
        s.check_invariants();
    }

    #[test]
    fn circuit_switching_is_k_equals_one() {
        // "circuit switching amounts to TDM with a multiplexing degree of
        // one": with K=1 a conflicting request waits for a release.
        let mut s = Scheduler::new(SchedulerConfig::new(8, 1).with_rotation(false));
        s.pass(&reqs(8, &[(0, 5)]));
        let rep = s.pass(&reqs(8, &[(0, 5), (1, 5)]));
        assert_eq!(rep.denied, 1);
        assert!(!s.established(1, 5));
        // First circuit torn down -> second can establish (release and
        // establish happen in the same pass thanks to the ripple).
        let rep = s.pass(&reqs(8, &[(1, 5)]));
        assert_eq!(rep.released, vec![(0, 5)]);
        assert_eq!(rep.established, vec![(1, 5)]);
        s.check_invariants();
    }

    #[test]
    fn grants_match_configs() {
        let mut s = Scheduler::new(SchedulerConfig::new(8, 2));
        s.pass(&reqs(8, &[(3, 6)]));
        assert_eq!(s.grant(0, 3), Some(6));
        assert_eq!(s.grant(0, 2), None);
        assert_eq!(s.grant(1, 3), None);
    }

    #[test]
    fn preload_protects_slot_from_dynamic_scheduling() {
        let mut s = Scheduler::new(SchedulerConfig::new(8, 3));
        let pattern = BitMatrix::from_pairs(8, 8, (0..8).map(|u| (u, (u + 1) % 8)));
        s.preload(2, pattern.clone());
        assert!(s.is_preloaded(2));
        assert_eq!(s.config(2), &pattern);
        // Dynamic passes only touch slots 0 and 1.
        for _ in 0..6 {
            s.pass(&reqs(8, &[(0, 3)]));
        }
        assert_eq!(s.config(2), &pattern, "preloaded slot must be untouched");
        assert!(s.established(0, 3));
        s.check_invariants();
    }

    #[test]
    fn preloaded_connection_suppresses_dynamic_duplicate() {
        let mut s = Scheduler::new(SchedulerConfig::new(8, 3));
        s.preload(2, BitMatrix::from_pairs(8, 8, [(0, 3)]));
        // A dynamic request for the same pair is already satisfied by B*.
        let rep = s.pass(&reqs(8, &[(0, 3)]));
        assert!(rep.established.is_empty());
        assert_eq!(s.slots_of(0, 3), vec![2]);
    }

    #[test]
    fn all_slots_preloaded_yields_empty_pass() {
        let mut s = Scheduler::new(SchedulerConfig::new(4, 2));
        s.preload(0, BitMatrix::square(4));
        s.preload(1, BitMatrix::square(4));
        let rep = s.pass(&reqs(4, &[(0, 1)]));
        assert_eq!(rep.slot, None);
        assert!(!s.established(0, 1));
    }

    #[test]
    fn flush_dynamic_keeps_preloaded() {
        let mut s = Scheduler::new(SchedulerConfig::new(8, 3));
        s.preload(2, BitMatrix::from_pairs(8, 8, [(7, 7)]));
        s.pass(&reqs(8, &[(0, 1)]));
        let cleared = s.flush_dynamic();
        assert_eq!(cleared, vec![(0, 1)], "flush reports the evicted pairs");
        assert!(!s.established(0, 1));
        assert!(s.established(7, 7));
        assert_eq!(s.stats().flushes, 1);
        s.check_invariants();
    }

    #[test]
    fn pass_reports_ripple_depth() {
        let mut s = Scheduler::new(SchedulerConfig::new(8, 2));
        // Two fresh requests: the ripple visits both L=1 cells.
        let rep = s.pass(&reqs(8, &[(0, 1), (2, 3)]));
        assert_eq!(rep.ripple_depth, 2);
        // Persisting connections produce no change requests -> no cells.
        let rep = s.pass(&reqs(8, &[(0, 1), (2, 3)]));
        assert_eq!(rep.ripple_depth, 0);
        // An all-preloaded scheduler has no dynamic pass at all.
        let mut p = Scheduler::new(SchedulerConfig::new(4, 1));
        p.preload(0, BitMatrix::square(4));
        assert_eq!(p.pass(&reqs(4, &[(0, 1)])).ripple_depth, 0);
    }

    #[test]
    fn unload_returns_register_to_dynamic_scheduling() {
        let mut s = Scheduler::new(SchedulerConfig::new(8, 2));
        s.preload(1, BitMatrix::from_pairs(8, 8, [(0, 1)]));
        s.unload(1);
        assert!(!s.is_preloaded(1));
        assert!(!s.established(0, 1), "unload evicts the register's pairs");
        // Both registers take dynamic passes again.
        let r = reqs(8, &[(2, 3)]);
        assert_eq!(s.pass(&r).slot, Some(0));
        assert_eq!(s.pass(&r).slot, Some(1));
        s.check_invariants();
    }

    #[test]
    fn flush_all_clears_everything() {
        let mut s = Scheduler::new(SchedulerConfig::new(8, 3));
        s.preload(2, BitMatrix::from_pairs(8, 8, [(7, 7)]));
        s.pass(&reqs(8, &[(0, 1)]));
        s.flush_all();
        assert!(s.b_star().all_zero());
        assert!(!s.is_preloaded(2));
    }

    #[test]
    fn latch_holds_connection_after_request_drop() {
        let mut s = Scheduler::new(SchedulerConfig::new(8, 2).with_hold(HoldPolicy::Latch));
        s.pass(&reqs(8, &[(0, 1)]));
        // Request drops, but the latch keeps it established.
        let empty = reqs(8, &[]);
        s.pass(&empty);
        s.pass(&empty);
        assert!(s.established(0, 1), "latched connection must persist");
        // Predictor clears the latch -> next visit to slot 0 releases it.
        s.clear_latch(0, 1);
        s.pass(&empty);
        s.pass(&empty);
        assert!(!s.established(0, 1));
        s.check_invariants();
    }

    #[test]
    fn multislot_pair_occupies_every_free_slot() {
        let mut s = Scheduler::new(
            SchedulerConfig::new(8, 3).with_bandwidth(BandwidthMode::PerPairMultiSlot),
        );
        s.set_multislot(0, 1, true);
        let r = reqs(8, &[(0, 1)]);
        s.pass(&r);
        s.pass(&r);
        s.pass(&r);
        assert_eq!(s.slots_of(0, 1), vec![0, 1, 2], "3x bandwidth");
        // Unmarked pairs still get exactly one slot.
        let r2 = reqs(8, &[(0, 1), (2, 3)]);
        s.pass(&r2);
        s.pass(&r2);
        assert_eq!(s.slots_of(2, 3).len(), 1);
    }

    #[test]
    fn settle_reaches_fixpoint() {
        let mut s = Scheduler::new(SchedulerConfig::new(16, 4));
        // 8 conflicting requests on one output need 4 slots; 4 fit.
        let r = reqs(16, &(0..8).map(|u| (u, 0)).collect::<Vec<_>>());
        let passes = s.settle(&r, 64);
        assert!(passes <= 64);
        let established: usize = (0..8).filter(|&u| s.established(u, 0)).count();
        assert_eq!(established, 4, "one connection to output 0 per slot");
        s.check_invariants();
    }

    #[test]
    fn rotation_gives_fairness_over_passes() {
        // Without rotation, input 0 wins output 9 forever; with rotation
        // other inputs eventually win when slot contents churn. Here we
        // verify rotation advances the priority state at all.
        let mut s = Scheduler::new(SchedulerConfig::new(4, 1));
        let before = s.priority;
        s.pass(&reqs(4, &[]));
        assert_ne!(s.priority, before);
        let mut s2 = Scheduler::new(SchedulerConfig::new(4, 1).with_rotation(false));
        let before2 = s2.priority;
        s2.pass(&reqs(4, &[]));
        assert_eq!(s2.priority, before2);
    }

    #[test]
    fn stats_accumulate() {
        let mut s = Scheduler::new(SchedulerConfig::new(8, 1));
        s.pass(&reqs(8, &[(0, 1), (1, 1)]));
        let st = s.stats();
        assert_eq!(st.passes, 1);
        assert_eq!(st.establishes, 1);
        assert_eq!(st.denials, 1);
    }

    #[test]
    fn quiescent_skip_matches_real_passes() {
        // Mixed preloaded/dynamic slots, a latched connection, rotation on:
        // `count` idle passes and one skip call must leave identical state.
        for count in [0u64, 1, 2, 3, 7, 29] {
            let build = || {
                let mut s = Scheduler::new(SchedulerConfig::new(8, 4).with_hold(HoldPolicy::Latch));
                s.preload(2, BitMatrix::from_pairs(8, 8, [(7, 7)]));
                s.pass(&reqs(8, &[(0, 1)]));
                s
            };
            let empty = reqs(8, &[]);
            let mut by_pass = build();
            assert!(by_pass.is_idle_quiescent());
            let mut last = None;
            for _ in 0..count {
                last = by_pass.pass(&empty).slot;
            }
            let mut by_skip = build();
            assert_eq!(by_skip.skip_quiescent_passes(count), last);
            assert_eq!(by_skip.stats(), by_pass.stats());
            assert_eq!(by_skip.priority, by_pass.priority);
            assert_eq!(by_skip.sl_cursor, by_pass.sl_cursor);
            // Per-tick variant agrees too.
            let mut by_tick = build();
            let mut tick_last = None;
            for _ in 0..count {
                tick_last = by_tick.advance_quiescent_pass();
            }
            assert_eq!(tick_last, last);
            assert_eq!(by_tick.priority, by_pass.priority);
            assert_eq!(by_tick.sl_cursor, by_pass.sl_cursor);
            // After the skip both schedulers react identically to traffic.
            let r = reqs(8, &[(3, 4), (5, 4)]);
            let a = by_pass.pass(&r);
            let b = by_skip.pass(&r);
            assert_eq!(a.slot, b.slot);
            assert_eq!(a.established, b.established);
            assert_eq!(a.denied, b.denied);
        }
    }

    #[test]
    fn idle_quiescence_gate() {
        // Drop policy: an established connection makes idle passes release
        // it, so the scheduler is NOT idle-quiescent until it drains.
        let mut s = Scheduler::new(SchedulerConfig::new(8, 2));
        s.pass(&reqs(8, &[(0, 1)]));
        assert!(!s.is_idle_quiescent());
        let empty = reqs(8, &[]);
        s.pass(&empty);
        s.pass(&empty);
        assert!(s.is_idle_quiescent());
        // Latch policy: the latch keeps the connection requested, so the
        // same situation IS quiescent.
        let mut l = Scheduler::new(SchedulerConfig::new(8, 2).with_hold(HoldPolicy::Latch));
        l.pass(&reqs(8, &[(0, 1)]));
        assert!(l.is_idle_quiescent());
        // ... until the predictor clears the latch.
        l.clear_latch(0, 1);
        assert!(!l.is_idle_quiescent());
    }

    #[test]
    fn all_preloaded_skip_is_noop() {
        let mut s = Scheduler::new(SchedulerConfig::new(4, 1));
        s.preload(0, BitMatrix::square(4));
        let before = s.stats();
        assert_eq!(s.skip_quiescent_passes(10), None);
        assert_eq!(s.advance_quiescent_pass(), None);
        assert_eq!(s.stats(), before, "no dynamic slot: nothing advances");
    }

    #[test]
    #[should_panic(expected = "is preloaded")]
    fn pass_on_preloaded_slot_panics() {
        let mut s = Scheduler::new(SchedulerConfig::new(4, 2));
        s.preload(1, BitMatrix::square(4));
        s.pass_on_slot(1, &BitMatrix::square(4));
    }

    #[test]
    #[should_panic(expected = "conflicts on a port")]
    fn preload_rejects_conflicting_config() {
        let mut s = Scheduler::new(SchedulerConfig::new(4, 2));
        s.preload(0, BitMatrix::from_pairs(4, 4, [(0, 1), (2, 1)]));
    }
}

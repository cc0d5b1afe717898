//! The assembled interconnection system of Figure 1.
//!
//! ```
//! use pms::{PmsSystem, SystemBuilder};
//!
//! // An 8-port system with 4 TDM slots.
//! let mut sys: PmsSystem = SystemBuilder::new(8).slots(4).build();
//! sys.request(0, 3);
//! sys.request(5, 3); // conflicts on output 3 -> lands in another slot
//! sys.sl_pass();
//! sys.sl_pass();
//! assert!(sys.established(0, 3) && sys.established(5, 3));
//! let slot = sys.advance_slot().unwrap();
//! // During this slot, exactly one of the two senders holds output 3.
//! let g0 = sys.grant(slot, 0);
//! let g5 = sys.grant(slot, 5);
//! assert!(g0 == Some(3) || g5 == Some(3));
//! assert!(!(g0 == Some(3) && g5 == Some(3)));
//! ```

use pms_bitmat::BitMatrix;
use pms_fabric::{Crossbar, FabricState, Technology};
use pms_predict::ConnectionPredictor;
use pms_sched::{BandwidthMode, HoldPolicy, PassReport, Scheduler, SchedulerConfig, TdmCounter};

/// Builder for a [`PmsSystem`].
pub struct SystemBuilder {
    ports: usize,
    slots: usize,
    technology: Technology,
    hold: HoldPolicy,
    bandwidth: BandwidthMode,
    slot_ns: u64,
    sched_ns: u64,
    predictor: Option<Box<dyn ConnectionPredictor>>,
}

impl SystemBuilder {
    /// A system with `ports` processors; defaults: 4 TDM slots, LVDS
    /// crossbar, 100 ns slots, 80 ns SL passes, no predictor.
    pub fn new(ports: usize) -> Self {
        Self {
            ports,
            slots: 4,
            technology: Technology::Lvds,
            hold: HoldPolicy::Drop,
            bandwidth: BandwidthMode::SingleSlot,
            slot_ns: 100,
            sched_ns: 80,
            predictor: None,
        }
    }

    /// Sets the number of configuration registers `K`.
    pub fn slots(mut self, k: usize) -> Self {
        self.slots = k;
        self
    }

    /// Sets the crossbar technology.
    pub fn technology(mut self, t: Technology) -> Self {
        self.technology = t;
        self
    }

    /// Installs a connection predictor; this also switches the scheduler
    /// to request-latching (extension 3), since predictive eviction only
    /// makes sense for connections held past their last request.
    pub fn predictor(mut self, p: Box<dyn ConnectionPredictor>) -> Self {
        self.predictor = Some(p);
        self.hold = HoldPolicy::Latch;
        self
    }

    /// Overrides the slot duration (ns).
    pub fn slot_ns(mut self, ns: u64) -> Self {
        self.slot_ns = ns;
        self
    }

    /// Enables per-pair multi-slot insertion (§4 extension 2): pairs
    /// marked via [`PmsSystem::set_multislot`] are established in every
    /// slot with free ports, multiplying their bandwidth.
    pub fn multislot(mut self) -> Self {
        self.bandwidth = BandwidthMode::PerPairMultiSlot;
        self
    }

    /// Builds the system.
    pub fn build(self) -> PmsSystem {
        let cfg = SchedulerConfig::new(self.ports, self.slots)
            .with_hold(self.hold)
            .with_bandwidth(self.bandwidth);
        PmsSystem {
            fabric: FabricState::new(Crossbar::new(self.ports, self.technology)),
            scheduler: Scheduler::new(cfg),
            tdm: TdmCounter::new(self.slots),
            predictor: self.predictor,
            requests: BitMatrix::square(self.ports),
            now_ns: 0,
            slot_ns: self.slot_ns,
            sched_ns: self.sched_ns,
            active_slot: None,
        }
    }
}

/// One complete interconnection system (Figure 1): NIC request lines, the
/// scheduler with its `K` configuration registers, the TDM counter, the
/// passive crossbar fabric, and an optional connection predictor.
///
/// Time advances through two explicit clocks, as in the hardware:
/// [`sl_pass`](Self::sl_pass) runs one scheduling-logic clock and
/// [`advance_slot`](Self::advance_slot) runs one time-slot clock (copying
/// the next configuration register into the fabric).
pub struct PmsSystem {
    fabric: FabricState,
    scheduler: Scheduler,
    tdm: TdmCounter,
    predictor: Option<Box<dyn ConnectionPredictor>>,
    requests: BitMatrix,
    now_ns: u64,
    slot_ns: u64,
    sched_ns: u64,
    active_slot: Option<usize>,
}

impl PmsSystem {
    /// Number of ports.
    pub fn ports(&self) -> usize {
        self.scheduler.ports()
    }

    /// Number of TDM slots `K`.
    pub fn slots(&self) -> usize {
        self.scheduler.slots()
    }

    /// Current simulation time (ns).
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Asserts NIC `u`'s request line for destination `v` (queue `u -> v`
    /// became non-empty).
    pub fn request(&mut self, u: usize, v: usize) {
        self.requests.set(u, v, true);
    }

    /// Drops the request line (queue drained).
    pub fn drop_request(&mut self, u: usize, v: usize) {
        self.requests.set(u, v, false);
    }

    /// True if `u -> v` is established in any configuration register.
    pub fn established(&self, u: usize, v: usize) -> bool {
        self.scheduler.established(u, v)
    }

    /// The grant `G_u` for slot `s`.
    pub fn grant(&self, s: usize, u: usize) -> Option<usize> {
        self.scheduler.grant(s, u)
    }

    /// The output port input `u` is wired to in the *currently loaded*
    /// fabric configuration.
    pub fn route(&self, u: usize) -> Option<usize> {
        self.fabric.route(u)
    }

    /// The slot currently driving the fabric, if any.
    pub fn active_slot(&self) -> Option<usize> {
        self.active_slot
    }

    /// The effective multiplexing degree (non-empty registers).
    pub fn effective_degree(&self) -> usize {
        TdmCounter::effective_degree(self.scheduler.configs())
    }

    /// Runs one SL clock: schedules pending requests into the next dynamic
    /// slot, informs the predictor, and applies its evictions.
    pub fn sl_pass(&mut self) -> PassReport {
        let report = self.scheduler.pass(&self.requests.clone());
        if let Some(pred) = &mut self.predictor {
            for &(u, v) in &report.established {
                pred.on_establish(u, v, self.now_ns);
            }
            for &(u, v) in &report.released {
                pred.on_release(u, v);
            }
            for (u, v) in pred.take_evictions(self.now_ns) {
                self.scheduler.clear_latch(u, v);
            }
        }
        self.now_ns += self.sched_ns;
        report
    }

    /// Runs one slot clock: the TDM counter advances to the next non-empty
    /// register, which is copied into the fabric. Returns the slot now
    /// driving the fabric, or `None` if the network is idle.
    pub fn advance_slot(&mut self) -> Option<usize> {
        self.now_ns += self.slot_ns;
        match self.tdm.advance(self.scheduler.configs()) {
            Some(s) => {
                let cfg = self.scheduler.config(s).clone();
                self.fabric.load(&cfg);
                self.active_slot = Some(s);
                Some(s)
            }
            None => {
                self.active_slot = None;
                None
            }
        }
    }

    /// Reports that connection `u -> v` carried data (drives the
    /// predictor's recency state).
    pub fn record_use(&mut self, u: usize, v: usize) {
        if let Some(pred) = &mut self.predictor {
            pred.on_use(u, v, self.now_ns);
        }
    }

    /// Marks `u -> v` for multi-slot bandwidth (extension 2); requires the
    /// system to be built with [`SystemBuilder::multislot`].
    pub fn set_multislot(&mut self, u: usize, v: usize, enabled: bool) {
        self.scheduler.set_multislot(u, v, enabled);
    }

    /// Preloads a compiled configuration into register `s` (extension 5).
    pub fn preload(&mut self, s: usize, config: BitMatrix) {
        self.scheduler.preload(s, config);
    }

    /// Evicts register `s`.
    pub fn unload(&mut self, s: usize) {
        self.scheduler.unload(s);
    }

    /// Flushes all dynamic connections (compiler phase boundary, §3.3).
    pub fn flush(&mut self) {
        self.scheduler.flush_dynamic();
    }

    /// Read-only access to the scheduler, for inspection.
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pms_predict::TimeoutPredictor;

    #[test]
    fn builder_defaults() {
        let sys = SystemBuilder::new(8).build();
        assert_eq!(sys.ports(), 8);
        assert_eq!(sys.slots(), 4);
        assert_eq!(sys.effective_degree(), 0);
        assert_eq!(sys.active_slot(), None);
    }

    #[test]
    fn request_establish_grant_cycle() {
        let mut sys = SystemBuilder::new(8).slots(2).build();
        sys.request(1, 6);
        sys.sl_pass();
        assert!(sys.established(1, 6));
        let s = sys.advance_slot().expect("one non-empty slot");
        assert_eq!(sys.grant(s, 1), Some(6));
        assert_eq!(sys.route(1), Some(6));
        assert_eq!(sys.effective_degree(), 1);
    }

    #[test]
    fn conflicting_requests_multiplex() {
        let mut sys = SystemBuilder::new(8).slots(2).build();
        sys.request(0, 3);
        sys.request(5, 3);
        sys.sl_pass();
        sys.sl_pass();
        assert!(sys.established(0, 3) && sys.established(5, 3));
        // Successive slots alternate which sender owns output 3.
        let s1 = sys.advance_slot().unwrap();
        let s2 = sys.advance_slot().unwrap();
        assert_ne!(s1, s2);
        let owners: Vec<Option<usize>> = vec![sys.grant(s1, 0), sys.grant(s2, 0)];
        assert!(owners.contains(&Some(3)) && owners.contains(&None));
    }

    #[test]
    fn drop_request_releases_connection() {
        let mut sys = SystemBuilder::new(8).slots(2).build();
        sys.request(1, 2);
        sys.sl_pass();
        sys.drop_request(1, 2);
        sys.sl_pass(); // may hit the other slot first
        sys.sl_pass();
        assert!(!sys.established(1, 2));
        assert_eq!(sys.effective_degree(), 0);
    }

    #[test]
    fn predictor_holds_then_evicts() {
        let mut sys = SystemBuilder::new(8)
            .slots(2)
            .predictor(Box::new(TimeoutPredictor::new(200)))
            .build();
        sys.request(1, 2);
        sys.sl_pass();
        sys.drop_request(1, 2);
        sys.sl_pass();
        sys.sl_pass();
        assert!(
            sys.established(1, 2),
            "latched connection survives request drop"
        );
        // 80 ns per pass: after enough idle time, the timeout evicts it.
        for _ in 0..6 {
            sys.sl_pass();
        }
        assert!(!sys.established(1, 2), "timeout eviction");
    }

    #[test]
    fn preload_and_flush() {
        let mut sys = SystemBuilder::new(8).slots(3).build();
        let pattern = BitMatrix::from_pairs(8, 8, (0..8).map(|u| (u, (u + 1) % 8)));
        sys.preload(2, pattern);
        sys.request(0, 4);
        sys.sl_pass();
        assert!(sys.established(0, 1), "preloaded");
        assert!(sys.established(0, 4), "dynamic");
        sys.flush();
        assert!(sys.established(0, 1), "flush keeps preloaded");
        assert!(!sys.established(0, 4), "flush clears dynamic");
        sys.unload(2);
        assert!(!sys.established(0, 1));
    }

    #[test]
    fn multislot_pair_gets_extra_bandwidth() {
        let mut sys = SystemBuilder::new(8).slots(3).multislot().build();
        sys.set_multislot(0, 1, true);
        sys.request(0, 1);
        sys.request(2, 3);
        for _ in 0..3 {
            sys.sl_pass();
        }
        // The marked pair occupies all three slots; the plain pair one.
        assert_eq!(sys.scheduler().slots_of(0, 1).len(), 3);
        assert_eq!(sys.scheduler().slots_of(2, 3).len(), 1);
        // Every slot grants input 0 to output 1.
        for _ in 0..3 {
            let s = sys.advance_slot().unwrap();
            assert_eq!(sys.grant(s, 0), Some(1));
        }
    }

    #[test]
    fn idle_network_has_no_active_slot() {
        let mut sys = SystemBuilder::new(4).build();
        assert_eq!(sys.advance_slot(), None);
        assert_eq!(sys.route(0), None);
    }

    #[test]
    fn time_advances_with_clocks() {
        let mut sys = SystemBuilder::new(4).build();
        sys.sl_pass();
        sys.advance_slot();
        assert_eq!(sys.now_ns(), 180);
    }
}

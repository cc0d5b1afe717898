//! Simulation timing parameters (the constants of §5).

/// Serial-link timing: 6.4 Gb/s high-speed serial over 10-foot cables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkTiming {
    /// Link rate in gigabits per second.
    pub gbps: f64,
    /// Parallel-to-serial conversion delay (ns).
    pub p2s_ns: u64,
    /// Serial-to-parallel conversion delay (ns).
    pub s2p_ns: u64,
    /// Propagation delay down one ten-foot wire (ns).
    pub wire_ns: u64,
}

impl Default for LinkTiming {
    fn default() -> Self {
        Self {
            gbps: 6.4,
            p2s_ns: 30,
            s2p_ns: 30,
            wire_ns: 20,
        }
    }
}

impl LinkTiming {
    /// Bytes the link carries per nanosecond (0.8 for 6.4 Gb/s).
    pub fn bytes_per_ns(&self) -> f64 {
        self.gbps / 8.0
    }

    /// Time to clock `bytes` onto the link, rounded up to whole ns.
    pub fn transmit_ns(&self, bytes: u64) -> u64 {
        ((bytes as f64 * 8.0) / self.gbps).ceil() as u64
    }

    /// One-way NIC-to-NIC path latency through an LVDS/optical switch
    /// (no re-serialization at the switch): p2s + wire + wire + s2p —
    /// the paper's "30+20+20+30 ns" point-to-point delay.
    pub fn path_latency_lvds_ns(&self) -> u64 {
        self.p2s_ns + 2 * self.wire_ns + self.s2p_ns
    }

    /// One-way path latency through a digital crossbar: the switch adds
    /// `switch_ns` propagation (the paper's 10 ns) but, per §5, the
    /// serial/parallel conversions at the switch are already folded into
    /// the wormhole per-flit routing cost, so we add only the switch
    /// propagation.
    pub fn path_latency_digital_ns(&self, switch_ns: u64) -> u64 {
        self.p2s_ns + 2 * self.wire_ns + switch_ns + self.s2p_ns
    }
}

/// All timing parameters of the §5 evaluation system.
#[derive(Debug, Clone, PartialEq)]
pub struct SimParams {
    /// Number of processors / ports (the paper simulates 128).
    pub ports: usize,
    /// Serial-link timing.
    pub link: LinkTiming,
    /// NIC single-cycle delay to send or receive data (ns).
    pub nic_cycle_ns: u64,
    /// Scheduler latency per SL pass (80 ns for the 128x128 ASIC).
    pub sched_ns: u64,
    /// Digital crossbar propagation delay (wormhole baseline).
    pub digital_switch_ns: u64,
    /// TDM slot duration ("each cycle is fixed at 100 ns or 80 bytes").
    pub slot_ns: u64,
    /// Usable payload per slot after the guard band and NIC turnaround
    /// ("messages between 8 and 64 bytes can be transmitted in a single
    /// cycle").
    pub slot_payload_bytes: u32,
    /// Number of TDM configuration registers `K`.
    pub tdm_slots: usize,
    /// Maximum worm size ("we set this limit to 128 bytes").
    pub worm_max_bytes: u32,
    /// Flit size ("the flit size is 8 bytes").
    pub flit_bytes: u32,
    /// Request-signal propagation from NIC to scheduler (one 80 ns
    /// serialized hop, like the circuit-switching request).
    pub request_wire_ns: u64,
    /// Cost of loading one preloaded configuration register.
    pub preload_cfg_ns: u64,
    /// Number of scheduling-logic units running in parallel (§4
    /// extension 1): each SL clock runs this many passes on consecutive
    /// dynamic registers.
    pub sl_units: usize,
    /// Safety cap: a simulation exceeding this time panics (deadlock
    /// guard), since all evaluated workloads finish well under it.
    pub max_sim_ns: u64,
    /// Fast-forward through provably idle stretches (no queued messages, a
    /// quiescent scheduler) instead of ticking every slot/pass boundary.
    /// Semantics-preserving: stats and traces are byte-identical with the
    /// flag off (CI enforces this); disable only to A/B the two paths.
    pub idle_skip: bool,
}

impl Default for SimParams {
    /// The paper's 128-processor configuration.
    fn default() -> Self {
        Self {
            ports: 128,
            link: LinkTiming::default(),
            nic_cycle_ns: 10,
            sched_ns: 80,
            digital_switch_ns: 10,
            slot_ns: 100,
            slot_payload_bytes: 64,
            tdm_slots: 4,
            worm_max_bytes: 128,
            flit_bytes: 8,
            request_wire_ns: 80,
            preload_cfg_ns: 80,
            sl_units: 1,
            max_sim_ns: 500_000_000,
            idle_skip: true,
        }
    }
}

impl SimParams {
    /// The default parameters scaled to `ports` processors.
    pub fn with_ports(mut self, ports: usize) -> Self {
        assert!(ports >= 2, "need at least two processors");
        self.ports = ports;
        self
    }

    /// Overrides the multiplexing degree `K`.
    pub fn with_tdm_slots(mut self, k: usize) -> Self {
        assert!(k >= 1, "need at least one TDM slot");
        self.tdm_slots = k;
        self
    }

    /// Overrides the number of parallel SL units (§4 extension 1).
    pub fn with_sl_units(mut self, units: usize) -> Self {
        assert!(units >= 1, "need at least one SL unit");
        self.sl_units = units;
        self
    }

    /// Enables or disables the idle time skip (on by default). The
    /// simulation outcome is identical either way; the off setting exists
    /// for byte-identity A/B checks and overhead measurements.
    pub fn with_idle_skip(mut self, enabled: bool) -> Self {
        self.idle_skip = enabled;
        self
    }

    /// Accepted for callers that still pass a lane count, and ignored:
    /// a single run is sequential. Parallelism lives at the sweep level,
    /// where independent runs fan out over threads.
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Per-worm flit count for a worm of `bytes` bytes.
    pub fn flits(&self, bytes: u32) -> u32 {
        bytes.div_ceil(self.flit_bytes)
    }

    /// Time for a worm of `bytes` bytes to stream through the crossbar at
    /// one flit per 10 ns ("all subsequent flits in the same worm are
    /// routed in 10 ns"), which equals the 6.4 Gb/s line rate.
    pub fn worm_stream_ns(&self, bytes: u32) -> u64 {
        self.flits(bytes) as u64 * 10
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_rate_matches_paper() {
        let l = LinkTiming::default();
        assert!((l.bytes_per_ns() - 0.8).abs() < 1e-12);
        // "during a 1 us slot, 125 bytes ... per serial Gb/s link":
        // at 6.4 Gb/s that is 800 bytes per us.
        assert_eq!(l.transmit_ns(800), 1_000);
        // 8-byte flit = 10 ns, 80 bytes = one 100 ns slot.
        assert_eq!(l.transmit_ns(8), 10);
        assert_eq!(l.transmit_ns(80), 100);
    }

    #[test]
    fn path_latencies_match_paper() {
        let l = LinkTiming::default();
        assert_eq!(l.path_latency_lvds_ns(), 100); // 30+20+20+30
        assert_eq!(l.path_latency_digital_ns(10), 110);
    }

    #[test]
    fn default_params_are_the_papers() {
        let p = SimParams::default();
        assert_eq!(p.ports, 128);
        assert_eq!(p.nic_cycle_ns, 10);
        assert_eq!(p.sched_ns, 80);
        assert_eq!(p.slot_ns, 100);
        assert_eq!(p.tdm_slots, 4);
        assert_eq!(p.worm_max_bytes, 128);
        assert_eq!(p.flit_bytes, 8);
    }

    #[test]
    fn worm_stream_time() {
        let p = SimParams::default();
        assert_eq!(p.flits(128), 16);
        assert_eq!(p.worm_stream_ns(128), 160);
        assert_eq!(p.worm_stream_ns(8), 10);
        // Partial flits round up.
        assert_eq!(p.flits(9), 2);
        assert_eq!(p.worm_stream_ns(9), 20);
    }
}

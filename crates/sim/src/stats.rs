//! Simulation statistics and the efficiency metric of Figure 4/5.

use crate::message::MsgState;
use pms_trace::{Histogram, Json, MetricsRegistry};

/// One step of the splitmix64 stream — the deterministic generator behind
/// the latency-sample reservoir (the sim crates carry no `rand`
/// dependency, and determinism is load-bearing for run equivalence
/// tests).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Results of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStats {
    /// Paradigm label.
    pub paradigm: String,
    /// Workload name.
    pub workload: String,
    /// Messages delivered.
    pub delivered_messages: u64,
    /// Payload bytes delivered.
    pub delivered_bytes: u64,
    /// Time from simulation start to the last delivery (ns).
    pub makespan_ns: u64,
    /// Sum of per-message end-to-end latencies (ns).
    pub total_latency_ns: u64,
    /// Largest single-message latency (ns).
    pub max_latency_ns: u64,
    /// Number of processors that sent at least one message.
    pub active_senders: usize,
    /// Scheduler SL passes executed (0 for preload-only runs).
    pub sched_passes: u64,
    /// Connections established dynamically.
    pub connections_established: u64,
    /// Connections evicted by the predictor.
    pub predictor_evictions: u64,
    /// Configuration-register preload operations.
    pub preload_loads: u64,
    /// Dynamic-working-set flushes triggered by the phase detector (§3.3).
    pub phase_flushes: u64,
    /// Working-set lookups: messages whose connection was checked against
    /// `B*` when they first became schedulable (dynamic TDM only).
    pub ws_lookups: u64,
    /// Lookups that found their connection already established — the
    /// paper's "hit rate" for dynamic scheduling of TDM (§5).
    pub ws_hits: u64,
    /// Message retransmissions forced by injected faults (dropped grants
    /// and NIC transients). Zero on fault-free runs.
    pub msg_retries: u64,
    /// Messages abandoned after exhausting their fault retry budget.
    /// Abandoned messages are excluded from every delivery aggregate.
    pub msgs_abandoned: u64,
    /// Per-message latencies, sorted ascending, for exact percentiles.
    ///
    /// Capped at [`SimStats::MAX_EXACT_SAMPLES`] to bound memory on very
    /// large runs. When a run delivers more messages than the cap, the
    /// retained set is a uniform random sample of *all* deliveries
    /// (reservoir sampling, Algorithm R, driven by a fixed-seed
    /// splitmix64 generator — the same workload always retains the same
    /// sample), and [`latency_quantile_ns`](Self::latency_quantile_ns)
    /// switches to the log2 histogram instead.
    pub latency_samples: Vec<u64>,
    /// Log2-bucketed latency histogram over *all* delivered messages
    /// (never capped); the quantile source for runs past the sample cap.
    pub latency_histogram: Histogram,
}

impl SimStats {
    /// Exact per-message latencies are kept only up to this many
    /// deliveries (64 Ki samples = 512 KiB); beyond it, quantiles come
    /// from [`latency_histogram`](Self::latency_histogram) with at most
    /// ~2x relative error (geometric-midpoint log2 buckets), while
    /// [`latency_samples`](Self::latency_samples) degrades to a
    /// deterministic uniform reservoir over all deliveries rather than
    /// silently keeping only the earliest ones.
    pub const MAX_EXACT_SAMPLES: usize = 65_536;

    /// Fixed seed for the reservoir's splitmix64 stream: sampling past
    /// the cap is deterministic, so repeated runs of the same workload
    /// (and skip-on vs skip-off runs) produce byte-identical stats.
    const RESERVOIR_SEED: u64 = 0x9aa3_8e12_c0de_5eed;

    /// Collects message-level stats; the caller fills the
    /// scheduler/predictor counters.
    pub fn from_messages(
        paradigm: impl Into<String>,
        workload: impl Into<String>,
        messages: &[MsgState],
    ) -> Self {
        let mut s = Self {
            paradigm: paradigm.into(),
            workload: workload.into(),
            delivered_messages: 0,
            delivered_bytes: 0,
            makespan_ns: 0,
            total_latency_ns: 0,
            max_latency_ns: 0,
            active_senders: 0,
            sched_passes: 0,
            connections_established: 0,
            predictor_evictions: 0,
            preload_loads: 0,
            phase_flushes: 0,
            ws_lookups: 0,
            ws_hits: 0,
            msg_retries: 0,
            msgs_abandoned: 0,
            // Exact size for a run that delivers everything: doubling
            // growth would leave up to half of the buffer unused.
            latency_samples: Vec::with_capacity(messages.len().min(Self::MAX_EXACT_SAMPLES)),
            latency_histogram: Histogram::new(),
        };
        // One bit per source port, grown to the highest one seen.
        let mut senders: Vec<u64> = Vec::new();
        let mut rng = Self::RESERVOIR_SEED;
        let mut seen = 0u64;
        for m in messages {
            if let Some(done) = m.delivered_at {
                s.delivered_messages += 1;
                s.delivered_bytes += m.spec.bytes as u64;
                s.makespan_ns = s.makespan_ns.max(done);
                let lat = m.latency_ns();
                s.total_latency_ns += lat;
                s.max_latency_ns = s.max_latency_ns.max(lat);
                s.latency_histogram.record(lat);
                // Reservoir sampling (Algorithm R): the i-th delivery
                // replaces a random slot with probability cap/i, keeping
                // the retained set uniform over every delivery so far.
                seen += 1;
                if s.latency_samples.len() < Self::MAX_EXACT_SAMPLES {
                    s.latency_samples.push(lat);
                } else {
                    let j = splitmix64(&mut rng) % seen;
                    if let Some(slot) = s.latency_samples.get_mut(j as usize) {
                        *slot = lat;
                    }
                }
                let (word, bit) = (m.spec.src / 64, m.spec.src % 64);
                if word >= senders.len() {
                    senders.resize(word + 1, 0);
                }
                senders[word] |= 1 << bit;
            }
        }
        s.latency_samples.sort_unstable();
        s.active_senders = senders.iter().map(|w| w.count_ones() as usize).sum();
        s
    }

    /// The `q`-quantile of message latency (`q` in [0, 1]). Returns 0 for
    /// an empty run.
    ///
    /// Exact (nearest-rank over the full sample set) while the run
    /// delivered at most [`MAX_EXACT_SAMPLES`](Self::MAX_EXACT_SAMPLES)
    /// messages; approximate (log2-histogram, ≤ ~2x relative error)
    /// beyond that.
    ///
    /// # Panics
    /// Panics if `q` is outside [0, 1].
    pub fn latency_quantile_ns(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.latency_samples.is_empty() {
            return 0;
        }
        let delivered = self.delivered_messages as usize;
        if delivered > Self::MAX_EXACT_SAMPLES {
            return self.latency_histogram.quantile(q);
        }
        let n = self.latency_samples.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.latency_samples[rank - 1]
    }

    /// Median message latency.
    pub fn p50_latency_ns(&self) -> u64 {
        self.latency_quantile_ns(0.50)
    }

    /// 99th-percentile message latency (tail behaviour under contention).
    pub fn p99_latency_ns(&self) -> u64 {
        self.latency_quantile_ns(0.99)
    }

    /// The dynamic working-set hit rate (§5): the fraction of messages
    /// whose connection was already cached in the network when they became
    /// schedulable. `None` when no lookups were recorded (preload-only or
    /// non-TDM runs).
    pub fn working_set_hit_rate(&self) -> Option<f64> {
        if self.ws_lookups == 0 {
            None
        } else {
            Some(self.ws_hits as f64 / self.ws_lookups as f64)
        }
    }

    /// Mean end-to-end message latency (ns).
    pub fn mean_latency_ns(&self) -> f64 {
        if self.delivered_messages == 0 {
            0.0
        } else {
            self.total_latency_ns as f64 / self.delivered_messages as f64
        }
    }

    /// The bandwidth-efficiency metric plotted in Figures 4 and 5:
    /// delivered payload divided by the aggregate capacity of the sending
    /// processors' links over the run
    /// (`bytes / (makespan * senders * link_rate)`).
    ///
    /// Scatter has one sender, so its denominator is a single link; the
    /// mesh patterns use all 128.
    pub fn efficiency(&self, link_bytes_per_ns: f64) -> f64 {
        if self.makespan_ns == 0 || self.active_senders == 0 {
            return 0.0;
        }
        self.delivered_bytes as f64
            / (self.makespan_ns as f64 * self.active_senders as f64 * link_bytes_per_ns)
    }

    /// Aggregate delivered throughput in bytes per ns.
    pub fn throughput_bytes_per_ns(&self) -> f64 {
        if self.makespan_ns == 0 {
            0.0
        } else {
            self.delivered_bytes as f64 / self.makespan_ns as f64
        }
    }

    /// Serializes the run (raw counters plus derived metrics and the
    /// latency histogram) as one JSON object — the payload behind
    /// `simulate --json`.
    pub fn to_json(&self) -> Json {
        let hit_rate = self.working_set_hit_rate().map_or(Json::Null, Json::from);
        Json::obj([
            ("paradigm", Json::str(&self.paradigm)),
            ("workload", Json::str(&self.workload)),
            ("delivered_messages", self.delivered_messages.into()),
            ("delivered_bytes", self.delivered_bytes.into()),
            ("makespan_ns", self.makespan_ns.into()),
            ("mean_latency_ns", self.mean_latency_ns().into()),
            ("p50_latency_ns", self.p50_latency_ns().into()),
            ("p99_latency_ns", self.p99_latency_ns().into()),
            ("max_latency_ns", self.max_latency_ns.into()),
            ("active_senders", self.active_senders.into()),
            ("sched_passes", self.sched_passes.into()),
            (
                "connections_established",
                self.connections_established.into(),
            ),
            ("predictor_evictions", self.predictor_evictions.into()),
            ("preload_loads", self.preload_loads.into()),
            ("phase_flushes", self.phase_flushes.into()),
            ("ws_lookups", self.ws_lookups.into()),
            ("ws_hits", self.ws_hits.into()),
            ("ws_hit_rate", hit_rate),
            ("msg_retries", self.msg_retries.into()),
            ("msgs_abandoned", self.msgs_abandoned.into()),
            (
                "throughput_bytes_per_ns",
                self.throughput_bytes_per_ns().into(),
            ),
            ("latency_histogram", self.latency_histogram.to_json()),
        ])
    }

    /// Exports the run's counters and the latency histogram into a
    /// [`MetricsRegistry`] under `sim.*` names, so simulator results and
    /// any other instrumented component share one metrics namespace.
    pub fn registry(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        for (name, value) in [
            ("sim.delivered_messages", self.delivered_messages),
            ("sim.delivered_bytes", self.delivered_bytes),
            ("sim.makespan_ns", self.makespan_ns),
            ("sim.sched_passes", self.sched_passes),
            ("sim.connections_established", self.connections_established),
            ("sim.predictor_evictions", self.predictor_evictions),
            ("sim.preload_loads", self.preload_loads),
            ("sim.phase_flushes", self.phase_flushes),
            ("sim.ws_lookups", self.ws_lookups),
            ("sim.ws_hits", self.ws_hits),
            ("sim.msg_retries", self.msg_retries),
            ("sim.msgs_abandoned", self.msgs_abandoned),
        ] {
            let id = reg.counter(name);
            reg.set(id, value);
        }
        let h = reg.histogram("sim.latency_ns");
        for &lat in &self.latency_samples {
            reg.observe(h, lat);
        }
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pms_workloads::MsgSpec;

    fn msg(id: usize, src: usize, bytes: u32, t0: u64, t1: u64) -> MsgState {
        let mut m = MsgState::new(MsgSpec {
            id,
            src,
            dst: (src + 1) % 4,
            bytes,
        });
        m.enqueued_at = Some(t0);
        m.remaining = 0;
        m.delivered_at = Some(t1);
        m
    }

    #[test]
    fn aggregates_message_stats() {
        let msgs = vec![
            msg(0, 0, 64, 0, 200),
            msg(1, 1, 64, 0, 400),
            msg(2, 0, 32, 50, 150),
        ];
        let s = SimStats::from_messages("test", "wl", &msgs);
        assert_eq!(s.delivered_messages, 3);
        assert_eq!(s.delivered_bytes, 160);
        assert_eq!(s.makespan_ns, 400);
        assert_eq!(s.active_senders, 2);
        assert_eq!(s.max_latency_ns, 400);
        assert!((s.mean_latency_ns() - (200.0 + 400.0 + 100.0) / 3.0).abs() < 1e-9);
    }

    #[test]
    fn active_senders_counts_sparse_high_ports() {
        // Ports far apart, one on each side of a word boundary, one
        // repeated, and one sender whose only message is undelivered.
        let mut msgs: Vec<MsgState> = [(0, 5), (1, 63), (2, 64), (3, 4_097), (4, 63), (5, 70_000)]
            .into_iter()
            .map(|(id, src)| msg(id, src, 8, 0, 10))
            .collect();
        let mut pending = MsgState::new(MsgSpec {
            id: 6,
            src: 9_999,
            dst: 0,
            bytes: 8,
        });
        pending.enqueued_at = Some(0);
        msgs.push(pending);
        let s = SimStats::from_messages("test", "wl", &msgs);
        assert_eq!(s.active_senders, 5);
    }

    #[test]
    fn latency_samples_are_sized_exactly_below_the_cap() {
        for n in [1, 3, 100, 1_000] {
            let msgs: Vec<MsgState> = (0..n)
                .map(|i| msg(i, i % 4, 8, 0, (i as u64 + 1) * 10))
                .collect();
            let s = SimStats::from_messages("test", "wl", &msgs);
            assert_eq!(s.latency_samples.len(), n);
            assert_eq!(s.latency_samples.capacity(), n, "{n} deliveries");
        }
    }

    #[test]
    fn efficiency_normalizes_by_senders_and_rate() {
        let msgs = vec![msg(0, 0, 640, 0, 1000)];
        let s = SimStats::from_messages("test", "wl", &msgs);
        // 640 bytes over 1000 ns on one 0.8 B/ns link = 80 %.
        assert!((s.efficiency(0.8) - 0.8).abs() < 1e-9);
        assert!((s.throughput_bytes_per_ns() - 0.64).abs() < 1e-9);
    }

    #[test]
    fn empty_run_is_zero() {
        let s = SimStats::from_messages("test", "wl", &[]);
        assert_eq!(s.efficiency(0.8), 0.0);
        assert_eq!(s.mean_latency_ns(), 0.0);
        assert_eq!(s.throughput_bytes_per_ns(), 0.0);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let msgs: Vec<MsgState> = (0..100)
            .map(|i| msg(i, i % 4, 8, 0, (i as u64 + 1) * 10))
            .collect();
        let s = SimStats::from_messages("test", "wl", &msgs);
        assert_eq!(s.p50_latency_ns(), 500);
        assert_eq!(s.p99_latency_ns(), 990);
        assert_eq!(s.latency_quantile_ns(0.0), 10);
        assert_eq!(s.latency_quantile_ns(1.0), 1000);
        assert_eq!(s.max_latency_ns, 1000);
    }

    #[test]
    fn quantiles_of_empty_run_are_zero() {
        let s = SimStats::from_messages("test", "wl", &[]);
        assert_eq!(s.p50_latency_ns(), 0);
        assert_eq!(s.p99_latency_ns(), 0);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn bad_quantile_panics() {
        SimStats::from_messages("t", "w", &[]).latency_quantile_ns(1.5);
    }

    #[test]
    fn histogram_tracks_every_delivery() {
        let msgs: Vec<MsgState> = (0..50)
            .map(|i| msg(i, i % 4, 8, 0, (i as u64 + 1) * 10))
            .collect();
        let s = SimStats::from_messages("test", "wl", &msgs);
        assert_eq!(s.latency_histogram.count(), 50);
        assert_eq!(s.latency_histogram.min(), 10);
        assert_eq!(s.latency_histogram.max(), 500);
    }

    #[test]
    fn quantiles_fall_back_to_histogram_past_the_cap() {
        // Simulate a run past the cap without building 65k messages: the
        // exact path is active iff delivered_messages <= MAX_EXACT_SAMPLES.
        let msgs: Vec<MsgState> = (0..100)
            .map(|i| msg(i, i % 4, 8, 0, (i as u64 + 1) * 10))
            .collect();
        let mut s = SimStats::from_messages("test", "wl", &msgs);
        let exact = s.p99_latency_ns();
        assert_eq!(exact, 990);
        s.delivered_messages = SimStats::MAX_EXACT_SAMPLES as u64 + 1;
        let approx = s.p99_latency_ns();
        assert_eq!(approx, s.latency_histogram.quantile(0.99));
        // Log2 buckets: the approximation stays within 2x of the truth.
        assert!(
            approx >= exact / 2 && approx <= exact * 2,
            "approx {approx}"
        );
    }

    #[test]
    fn reservoir_retains_a_uniform_deterministic_sample_past_the_cap() {
        let total = SimStats::MAX_EXACT_SAMPLES + 10_000;
        let msgs: Vec<MsgState> = (0..total)
            .map(|i| msg(i, i % 4, 8, 0, (i as u64 + 1) * 10))
            .collect();
        let a = SimStats::from_messages("test", "wl", &msgs);
        assert_eq!(a.latency_samples.len(), SimStats::MAX_EXACT_SAMPLES);
        // Fixed seed: re-running the same deliveries keeps the same set.
        let b = SimStats::from_messages("test", "wl", &msgs);
        assert_eq!(a.latency_samples, b.latency_samples);
        // Uniform over all deliveries, not first-N: some retained latency
        // must come from past the cap (probability of failure is
        // (1 - 10000/75536)^65536, i.e. zero for this fixed seed).
        let cap_latency = SimStats::MAX_EXACT_SAMPLES as u64 * 10;
        assert!(
            a.latency_samples.iter().any(|&l| l > cap_latency),
            "reservoir never sampled past the cap"
        );
        // The histogram still counts every delivery.
        assert_eq!(a.latency_histogram.count(), total as u64);
    }

    #[test]
    fn json_export_round_trips_key_fields() {
        let msgs = vec![msg(0, 0, 64, 0, 200), msg(1, 1, 64, 0, 400)];
        let s = SimStats::from_messages("circuit", "wl", &msgs);
        let j = s.to_json().render();
        assert!(j.contains(r#""paradigm":"circuit""#), "{j}");
        assert!(j.contains(r#""delivered_messages":2"#));
        assert!(j.contains(r#""ws_hit_rate":null"#), "no lookups -> null");
        assert!(j.contains(r#""latency_histogram""#));
    }

    #[test]
    fn registry_export_carries_counters_and_histogram() {
        let msgs = vec![msg(0, 0, 64, 0, 200), msg(1, 1, 64, 0, 400)];
        let mut s = SimStats::from_messages("test", "wl", &msgs);
        s.sched_passes = 7;
        let reg = s.registry();
        assert_eq!(reg.counter_value("sim.delivered_messages"), Some(2));
        assert_eq!(reg.counter_value("sim.sched_passes"), Some(7));
        let h = reg.histogram_values("sim.latency_ns").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 400);
    }

    #[test]
    fn undelivered_messages_excluded() {
        let mut pending = MsgState::new(MsgSpec {
            id: 9,
            src: 3,
            dst: 0,
            bytes: 8,
        });
        pending.enqueued_at = Some(0);
        let msgs = vec![msg(0, 0, 64, 0, 100), pending];
        let s = SimStats::from_messages("test", "wl", &msgs);
        assert_eq!(s.delivered_messages, 1);
        assert_eq!(s.delivered_bytes, 64);
    }
}

//! The batch-epoch admission engine.
//!
//! Virtual time is divided into fixed `epoch_ns` batch epochs. Each
//! epoch runs a four-step state machine:
//!
//! 1. **Ingest** — every arrival with `t_ns` before the epoch boundary
//!    is rate-limited (per-tenant token buckets on the stream's own
//!    clock) and pushed into the bounded PIFO queue; full-queue pushes
//!    resolve per the configured [`Backpressure`] discipline.
//! 2. **Select** — up to `batch` requests are popped in `(rank, seq)`
//!    order and coalesced into one word-parallel request matrix
//!    (duplicate pairs share a bit).
//! 3. **Pass** — the matrix drives one scheduler pass
//!    ([`pass`](Scheduler::pass), or
//!    [`pass_admitted`](Scheduler::pass_admitted) through the router
//!    when a multistage fabric is attached). Under
//!    [`HoldPolicy::Drop`] the pass also releases previously
//!    established pairs the matrix no longer asserts — those are the
//!    engine's evictions.
//! 4. **Resolve** — each popped request whose pair landed in `B*` is
//!    granted (fresh establishment or working-set hit); the rest are
//!    requeued at their original rank, up to `max_denials` epochs, after
//!    which they bounce with [`RejectCause::Expired`].
//!
//! After the stream ends the engine keeps running *drain* epochs (empty
//! ingest) until both the queue and `B*` are empty, so every queued
//! request resolves and every established pair is released. Decisions
//! are appended in the exact order their trace events are emitted, which
//! is what makes [`decisions_from_records`] a byte-identical inverse.

use pms_bitmat::BitMatrix;
use pms_multistage::MultistageRouter;
use pms_sched::{HoldPolicy, Scheduler, SchedulerConfig};
use pms_trace::{EvictCause, RejectCause, TraceEvent, TraceRecord, Tracer};
use pms_workloads::ConnRequest;

use crate::policy::AdmissionPolicy;
use crate::queue::{Pending, PifoQueue, Push};
use crate::ratelimit::{RateConfig, TokenBuckets};

/// Full-queue discipline for the ingress queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backpressure {
    /// Refuse the incoming request ([`RejectCause::QueueFull`]).
    #[default]
    RejectNew,
    /// Evict the oldest queued request ([`RejectCause::Shed`]) and admit
    /// the incoming one.
    ShedOldest,
}

impl Backpressure {
    /// Stable lower-case name (CLI flag value).
    pub fn name(self) -> &'static str {
        match self {
            Backpressure::RejectNew => "reject-new",
            Backpressure::ShedOldest => "shed-oldest",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<Backpressure> {
        match name {
            "reject-new" => Some(Backpressure::RejectNew),
            "shed-oldest" => Some(Backpressure::ShedOldest),
            _ => None,
        }
    }
}

/// Static engine parameters.
#[derive(Debug, Clone)]
pub struct AdmitConfig {
    /// Crossbar ports `N`.
    pub ports: usize,
    /// TDM configuration registers `K`.
    pub slots: usize,
    /// Most requests popped into one epoch's request matrix.
    pub batch: usize,
    /// Virtual length of one batch epoch.
    pub epoch_ns: u64,
    /// Ingress-queue capacity.
    pub queue_cap: usize,
    /// Full-queue discipline.
    pub backpressure: Backpressure,
    /// Per-tenant token buckets; `None` disables rate limiting.
    pub rate: Option<RateConfig>,
    /// Epochs a request may be scheduler-denied before it bounces with
    /// [`RejectCause::Expired`].
    pub max_denials: u32,
}

impl AdmitConfig {
    /// Defaults sized for an `N`-port switch: `K = 2` slots, batch =
    /// `N`, 100 ns epochs (one paper slot), queue of `4N`, reject-new,
    /// no rate limiting, 64-epoch retry budget.
    pub fn new(ports: usize) -> Self {
        AdmitConfig {
            ports,
            slots: 2,
            batch: ports,
            epoch_ns: 100,
            queue_cap: 4 * ports,
            backpressure: Backpressure::RejectNew,
            rate: None,
            max_denials: 64,
        }
    }

    /// Checks the parameters [`AdmitEngine::new`] requires to be
    /// positive: `ports`, `slots`, `batch`, `epoch_ns` and `queue_cap`,
    /// then the `burst` of a rate limit (a zero-depth bucket can never
    /// admit), reporting the first zero one in that order.
    pub fn validate(&self) -> Result<(), AdmitConfigError> {
        let fields = [
            ("ports", self.ports as u64),
            ("slots", self.slots as u64),
            ("batch", self.batch as u64),
            ("epoch_ns", self.epoch_ns),
            ("queue_cap", self.queue_cap as u64),
            ("burst", self.rate.map_or(1, |r| r.burst as u64)),
        ];
        match fields.into_iter().find(|&(_, value)| value == 0) {
            Some((field, _)) => Err(AdmitConfigError { field }),
            None => Ok(()),
        }
    }
}

/// An [`AdmitConfig`] parameter that must be positive is zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmitConfigError {
    /// The field's name, as spelled in [`AdmitConfig`] or its
    /// [`RateConfig`].
    pub field: &'static str,
}

impl std::fmt::Display for AdmitConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} must be positive", self.field)
    }
}

impl std::error::Error for AdmitConfigError {}

/// One admission decision, in emission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// The request's pair is resident in a configuration register.
    Grant {
        /// Stream-global request id.
        req: u32,
        /// Tenant.
        tenant: u32,
        /// Input port.
        src: u32,
        /// Output port.
        dst: u32,
        /// Virtual time spent queued.
        wait_ns: u64,
    },
    /// An established pair left the working set (released by a pass that
    /// no longer asserted it).
    Evict {
        /// Input port.
        src: u32,
        /// Output port.
        dst: u32,
    },
    /// The request bounced.
    Reject {
        /// Stream-global request id.
        req: u32,
        /// Tenant.
        tenant: u32,
        /// Input port.
        src: u32,
        /// Output port.
        dst: u32,
        /// Why.
        cause: RejectCause,
    },
}

impl Decision {
    /// Stable one-line rendering (the `admit` binary's stdout protocol;
    /// replay tests byte-diff these lines).
    pub fn render(&self) -> String {
        match self {
            Decision::Grant {
                req,
                tenant,
                src,
                dst,
                wait_ns,
            } => format!("grant req={req} tenant={tenant} {src}->{dst} wait_ns={wait_ns}"),
            Decision::Evict { src, dst } => format!("evict {src}->{dst}"),
            Decision::Reject {
                req,
                tenant,
                src,
                dst,
                cause,
            } => format!(
                "reject req={req} tenant={tenant} {src}->{dst} cause={}",
                cause.label()
            ),
        }
    }
}

/// Cumulative engine counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmitStats {
    /// Requests ingested from the stream.
    pub ingested: u64,
    /// Requests that entered the queue.
    pub enqueued: u64,
    /// Requests granted.
    pub granted: u64,
    /// Rejections, by cause: rate limit.
    pub rejected_rate: u64,
    /// Rejections, by cause: queue full (reject-new).
    pub rejected_queue_full: u64,
    /// Rejections, by cause: shed (shed-oldest victims).
    pub rejected_shed: u64,
    /// Rejections, by cause: retry budget exhausted.
    pub rejected_expired: u64,
    /// Pairs evicted from the working set.
    pub evicted: u64,
    /// Batch epochs that ran a scheduler pass.
    pub batches: u64,
    /// Peak ingress-queue depth.
    pub peak_queue: usize,
}

impl AdmitStats {
    /// All rejections.
    pub fn rejected(&self) -> u64 {
        self.rejected_rate + self.rejected_queue_full + self.rejected_shed + self.rejected_expired
    }
}

/// Everything one engine run produces.
#[derive(Debug, Clone)]
pub struct AdmitOutcome {
    /// The decision stream, in emission order.
    pub decisions: Vec<Decision>,
    /// Counters.
    pub stats: AdmitStats,
    /// Virtual time of the last epoch boundary processed.
    pub end_ns: u64,
}

/// Hard cap on consecutive drain epochs; the retry budget bounds the
/// real number far below this, so hitting it means an engine bug.
const DRAIN_EPOCH_CAP: u64 = 1 << 20;

/// The admission engine (see the module docs for the state machine).
pub struct AdmitEngine {
    cfg: AdmitConfig,
    policy: Box<dyn AdmissionPolicy>,
    router: Option<MultistageRouter>,
    sched: Scheduler,
    queue: PifoQueue,
    buckets: Option<TokenBuckets>,
    next_req: u32,
    epoch: u64,
    stats: AdmitStats,
    /// The epoch's coalesced request matrix; all-zero between epochs.
    requests: BitMatrix,
    /// The epoch's popped requests, in pop order; empty between epochs.
    popped: Vec<Pending>,
    /// The epoch's requests past their retry budget; empty between
    /// epochs.
    expired: Vec<Pending>,
}

impl AdmitEngine {
    /// Creates an engine over a plain crossbar.
    ///
    /// # Panics
    /// Panics if `cfg` fails [`AdmitConfig::validate`] on a zero engine
    /// parameter; a zero-depth rate bucket only rejects every request.
    /// Callers taking the configuration from user input validate it
    /// first.
    pub fn new(cfg: AdmitConfig, policy: Box<dyn AdmissionPolicy>) -> Self {
        assert!(cfg.batch > 0, "batch must be positive");
        assert!(cfg.epoch_ns > 0, "epoch_ns must be positive");
        assert!(cfg.queue_cap > 0, "queue_cap must be positive");
        let sched =
            Scheduler::new(SchedulerConfig::new(cfg.ports, cfg.slots).with_hold(HoldPolicy::Drop));
        let queue = PifoQueue::new(cfg.queue_cap);
        let buckets = cfg.rate.map(TokenBuckets::new);
        let requests = BitMatrix::square(cfg.ports);
        AdmitEngine {
            cfg,
            policy,
            router: None,
            sched,
            queue,
            buckets,
            next_req: 0,
            epoch: 0,
            stats: AdmitStats::default(),
            requests,
            popped: Vec::new(),
            expired: Vec::new(),
        }
    }

    /// Attaches a multistage fabric: passes go through
    /// [`Scheduler::pass_admitted`] with the router, so establishments
    /// must also thread the stage graph.
    pub fn with_router(mut self, router: MultistageRouter) -> Self {
        self.router = Some(router);
        self
    }

    /// The active policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Counters so far.
    pub fn stats(&self) -> AdmitStats {
        self.stats
    }

    /// Runs the engine over a whole (time-ordered) arrival stream,
    /// drains, and returns the decision stream. Trace events go to
    /// `tracer`; pass [`Tracer::vec()`] (or a JSONL tracer) as needed.
    ///
    /// # Panics
    /// Panics if the stream's `t_ns` values are not non-decreasing.
    pub fn run(
        &mut self,
        stream: impl IntoIterator<Item = ConnRequest>,
        tracer: &mut Tracer,
    ) -> AdmitOutcome {
        let mut decisions = Vec::new();
        let mut stream = stream.into_iter().peekable();
        let mut last_t = 0u64;
        loop {
            let epoch_end = (self.epoch + 1) * self.cfg.epoch_ns;
            // Step 1: ingest everything arriving before this boundary.
            while stream.peek().is_some_and(|r| r.t_ns < epoch_end) {
                let conn = stream.next().expect("peeked");
                assert!(
                    conn.t_ns >= last_t,
                    "arrival stream must be time-ordered ({} after {last_t})",
                    conn.t_ns
                );
                last_t = conn.t_ns;
                self.ingest(conn, tracer, &mut decisions);
            }
            let more_arrivals = stream.peek().is_some();
            if self.queue.is_empty() && self.sched.b_star().all_zero() {
                if !more_arrivals {
                    break;
                }
                // Idle skip: jump straight to the epoch of the next
                // arrival instead of grinding empty passes.
                let t = stream.peek().expect("checked").t_ns;
                self.epoch = t / self.cfg.epoch_ns;
                continue;
            }
            self.run_epoch(epoch_end, tracer, &mut decisions);
            self.epoch += 1;
            if !more_arrivals {
                // Drain: no new arrivals, so keep running epochs until
                // the queue and the working set are both empty.
                let drain_start = self.epoch;
                while !(self.queue.is_empty() && self.sched.b_star().all_zero()) {
                    assert!(
                        self.epoch - drain_start < DRAIN_EPOCH_CAP,
                        "drain did not converge (engine bug)"
                    );
                    let end = (self.epoch + 1) * self.cfg.epoch_ns;
                    self.run_epoch(end, tracer, &mut decisions);
                    self.epoch += 1;
                }
                break;
            }
        }
        AdmitOutcome {
            decisions,
            stats: self.stats,
            end_ns: self.epoch * self.cfg.epoch_ns,
        }
    }

    /// Step 1 for one request: rate limit, then push with backpressure.
    fn ingest(&mut self, conn: ConnRequest, tracer: &mut Tracer, decisions: &mut Vec<Decision>) {
        let req = self.next_req;
        self.next_req += 1;
        self.stats.ingested += 1;
        if let Some(buckets) = &mut self.buckets {
            if !buckets.try_take(conn.tenant, conn.t_ns) {
                Self::reject(
                    req,
                    &conn,
                    RejectCause::RateLimit,
                    conn.t_ns,
                    tracer,
                    decisions,
                );
                self.stats.rejected_rate += 1;
                return;
            }
        }
        let rank = self.policy.rank(&conn);
        let pending = Pending {
            req,
            conn,
            enq_ns: conn.t_ns,
            denials: 0,
        };
        let shed = self.cfg.backpressure == Backpressure::ShedOldest;
        match self.queue.push(rank, pending, shed) {
            Push::RejectedNew => {
                Self::reject(
                    req,
                    &conn,
                    RejectCause::QueueFull,
                    conn.t_ns,
                    tracer,
                    decisions,
                );
                self.stats.rejected_queue_full += 1;
                return;
            }
            Push::ShedOldest(victim) => {
                Self::reject(
                    victim.req,
                    &victim.conn,
                    RejectCause::Shed,
                    conn.t_ns,
                    tracer,
                    decisions,
                );
                self.stats.rejected_shed += 1;
            }
            Push::Queued => {}
        }
        self.stats.enqueued += 1;
        self.stats.peak_queue = self.stats.peak_queue.max(self.queue.len());
        tracer.emit(
            conn.t_ns,
            0,
            TraceEvent::RequestEnqueued {
                req,
                tenant: conn.tenant,
                src: conn.src,
                dst: conn.dst,
            },
        );
    }

    /// Steps 2–4 for one epoch ending at `epoch_end`. The request matrix
    /// is all-zero on entry and on exit: each popped request clears its
    /// pair's bit as it resolves, so an epoch costs O(batch) plus the
    /// scheduler pass, with no per-epoch matrix allocation.
    fn run_epoch(&mut self, epoch_end: u64, tracer: &mut Tracer, decisions: &mut Vec<Decision>) {
        debug_assert!(self.requests.all_zero() && self.popped.is_empty());
        // Step 2: select.
        let mut selected = 0u32;
        while self.popped.len() < self.cfg.batch {
            let Some(p) = self.queue.pop() else { break };
            let (src, dst) = (p.conn.src as usize, p.conn.dst as usize);
            if !self.requests.get(src, dst) {
                self.requests.set(src, dst, true);
                selected += 1;
            }
            self.popped.push(p);
        }
        if tracer.enabled() {
            for (src, dst) in self.requests.iter_ones() {
                tracer.emit(
                    epoch_end,
                    0,
                    TraceEvent::ConnRequested {
                        src: src as u32,
                        dst: dst as u32,
                    },
                );
            }
        }
        // Step 3: one pass (through the fabric router when attached).
        let report = match &mut self.router {
            Some(router) => self
                .sched
                .pass_admitted(&self.requests, Some(router), |_| true),
            None => self.sched.pass(&self.requests),
        };
        let slot = report.slot.map(|s| s as u32).unwrap_or(0);
        tracer.emit(
            epoch_end,
            slot,
            TraceEvent::SchedPass {
                passes: self.sched.stats().passes,
                ripple_depth: report.ripple_depth as u32,
                established: report.established.len() as u32,
                released: report.released.len() as u32,
                denied: (report.denied + report.admission_denied.len()) as u32,
            },
        );
        for &(src, dst) in &report.established {
            tracer.emit(
                epoch_end,
                slot,
                TraceEvent::ConnEstablished {
                    src: src as u32,
                    dst: dst as u32,
                    slot_idx: slot,
                },
            );
        }
        for &(src, dst) in &report.released {
            tracer.emit(
                epoch_end,
                slot,
                TraceEvent::ConnEvicted {
                    src: src as u32,
                    dst: dst as u32,
                    cause: EvictCause::Drop,
                },
            );
            decisions.push(Decision::Evict {
                src: src as u32,
                dst: dst as u32,
            });
            self.stats.evicted += 1;
        }
        // Step 4: resolve popped requests against the post-pass B*. The
        // first request of each pair clears its bit, so `denied` counts
        // distinct denied pairs. Denied requests requeue in pop order;
        // requeueing before the expiry rejections are emitted makes
        // `pending` in BatchAdmitted the final queue depth, and the
        // decision order (grants, evictions, expiries) is unaffected.
        let mut granted = 0u32;
        let mut denied = 0u32;
        for mut p in self.popped.drain(..) {
            let (src, dst) = (p.conn.src as usize, p.conn.dst as usize);
            let first_of_pair = self.requests.get(src, dst);
            self.requests.set(src, dst, false);
            if self.sched.established(src, dst) {
                let wait_ns = epoch_end.saturating_sub(p.enq_ns);
                tracer.emit(
                    epoch_end,
                    slot,
                    TraceEvent::RequestGranted {
                        req: p.req,
                        tenant: p.conn.tenant,
                        src: p.conn.src,
                        dst: p.conn.dst,
                        wait_ns,
                    },
                );
                decisions.push(Decision::Grant {
                    req: p.req,
                    tenant: p.conn.tenant,
                    src: p.conn.src,
                    dst: p.conn.dst,
                    wait_ns,
                });
                self.stats.granted += 1;
                granted += 1;
            } else {
                denied += u32::from(first_of_pair);
                p.denials += 1;
                if p.denials > self.cfg.max_denials {
                    self.expired.push(p);
                } else {
                    self.queue.requeue(self.policy.rank(&p.conn), p);
                }
            }
        }
        self.stats.peak_queue = self.stats.peak_queue.max(self.queue.len());
        for p in self.expired.drain(..) {
            Self::reject(
                p.req,
                &p.conn,
                RejectCause::Expired,
                epoch_end,
                tracer,
                decisions,
            );
            self.stats.rejected_expired += 1;
        }
        tracer.emit(
            epoch_end,
            slot,
            TraceEvent::BatchAdmitted {
                batch: self.epoch as u32,
                capacity: self.cfg.batch as u32,
                selected,
                granted,
                denied,
                pending: self.queue.len() as u32,
            },
        );
        self.stats.batches += 1;
    }

    fn reject(
        req: u32,
        conn: &ConnRequest,
        cause: RejectCause,
        t_ns: u64,
        tracer: &mut Tracer,
        decisions: &mut Vec<Decision>,
    ) {
        tracer.emit(
            t_ns,
            0,
            TraceEvent::RequestRejected {
                req,
                tenant: conn.tenant,
                src: conn.src,
                dst: conn.dst,
                cause,
            },
        );
        decisions.push(Decision::Reject {
            req,
            tenant: conn.tenant,
            src: conn.src,
            dst: conn.dst,
            cause,
        });
    }
}

/// Reconstructs the decision stream from a trace (live or parsed back
/// from JSONL). Decisions are emitted in the same order as their trace
/// events, so this is an exact inverse of [`AdmitEngine::run`]'s
/// decision output — the byte-identical-replay property the benchmark
/// and the property tests pin.
pub fn decisions_from_records(records: &[TraceRecord]) -> Vec<Decision> {
    records
        .iter()
        .filter_map(|rec| match rec.event {
            TraceEvent::RequestGranted {
                req,
                tenant,
                src,
                dst,
                wait_ns,
            } => Some(Decision::Grant {
                req,
                tenant,
                src,
                dst,
                wait_ns,
            }),
            TraceEvent::ConnEvicted { src, dst, .. } => Some(Decision::Evict { src, dst }),
            TraceEvent::RequestRejected {
                req,
                tenant,
                src,
                dst,
                cause,
            } => Some(Decision::Reject {
                req,
                tenant,
                src,
                dst,
                cause,
            }),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Fifo, PolicyKind, ShortestFirst, StrictPriority};

    fn req(t_ns: u64, tenant: u32, src: u32, dst: u32, bytes: u32) -> ConnRequest {
        ConnRequest {
            t_ns,
            tenant,
            src,
            dst,
            bytes,
        }
    }

    fn run(
        cfg: AdmitConfig,
        policy: Box<dyn AdmissionPolicy>,
        stream: Vec<ConnRequest>,
    ) -> (AdmitOutcome, Vec<TraceRecord>) {
        let mut engine = AdmitEngine::new(cfg, policy);
        let mut tracer = Tracer::vec();
        let outcome = engine.run(stream, &mut tracer);
        let records = tracer.records();
        (outcome, records)
    }

    #[test]
    fn validate_names_the_first_zero_parameter() {
        assert_eq!(AdmitConfig::new(4).validate(), Ok(()));
        for field in ["ports", "slots", "batch", "epoch_ns", "queue_cap"] {
            let mut cfg = AdmitConfig::new(4);
            match field {
                "ports" => cfg.ports = 0,
                "slots" => cfg.slots = 0,
                "batch" => cfg.batch = 0,
                "epoch_ns" => cfg.epoch_ns = 0,
                _ => cfg.queue_cap = 0,
            }
            let err = cfg.validate().unwrap_err();
            assert_eq!(err, AdmitConfigError { field });
            assert_eq!(err.to_string(), format!("{field} must be positive"));
        }
        // `AdmitConfig::new(0)` also zeroes the batch and queue; ports
        // is reported first.
        assert_eq!(
            AdmitConfig::new(0).validate(),
            Err(AdmitConfigError { field: "ports" })
        );
    }

    #[test]
    fn validate_rejects_a_zero_depth_rate_bucket() {
        let mut cfg = AdmitConfig::new(4);
        let rate = |burst| {
            Some(RateConfig {
                rate_per_sec: 5,
                burst,
            })
        };
        cfg.rate = rate(0);
        assert_eq!(cfg.validate(), Err(AdmitConfigError { field: "burst" }));
        cfg.rate = rate(1);
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn single_request_grants_then_evicts_on_drain() {
        let (outcome, _) = run(
            AdmitConfig::new(4),
            Box::new(Fifo),
            vec![req(0, 0, 1, 2, 8)],
        );
        assert_eq!(
            outcome.decisions,
            vec![
                Decision::Grant {
                    req: 0,
                    tenant: 0,
                    src: 1,
                    dst: 2,
                    wait_ns: 100,
                },
                Decision::Evict { src: 1, dst: 2 },
            ]
        );
        assert_eq!(outcome.stats.granted, 1);
        assert_eq!(outcome.stats.evicted, 1);
    }

    #[test]
    fn batch_summary_counts_distinct_pairs() {
        // Two requests each for (0, 2) and (1, 2): one pass can hold only
        // one pair on output 2, so the first epoch selects two pairs,
        // grants both requests of one and denies one pair.
        let stream = vec![
            req(0, 0, 0, 2, 8),
            req(0, 0, 0, 2, 8),
            req(0, 0, 1, 2, 8),
            req(0, 0, 1, 2, 8),
        ];
        let (outcome, records) = run(AdmitConfig::new(4), Box::new(Fifo), stream);
        let first = records
            .iter()
            .find_map(|r| match r.event {
                TraceEvent::BatchAdmitted {
                    selected,
                    granted,
                    denied,
                    pending,
                    ..
                } => Some((selected, granted, denied, pending)),
                _ => None,
            })
            .expect("one batch ran");
        assert_eq!(first, (2, 2, 1, 2));
        assert_eq!(outcome.stats.granted, 4);
    }

    #[test]
    fn output_conflict_retries_and_grants_in_a_later_epoch() {
        // Two inputs want output 2 in the same epoch; K = 2 slots means
        // TDM resolves it over two passes.
        let (outcome, _) = run(
            AdmitConfig::new(4),
            Box::new(Fifo),
            vec![req(0, 0, 0, 2, 8), req(0, 0, 1, 2, 8)],
        );
        let grants: Vec<u32> = outcome
            .decisions
            .iter()
            .filter_map(|d| match d {
                Decision::Grant { req, .. } => Some(*req),
                _ => None,
            })
            .collect();
        assert_eq!(grants, vec![0, 1], "both grant, FIFO order");
        assert_eq!(outcome.stats.rejected(), 0);
    }

    #[test]
    fn rate_limit_rejects_above_burst() {
        let mut cfg = AdmitConfig::new(4);
        cfg.rate = Some(RateConfig {
            rate_per_sec: 1, // effectively no refill over a short run
            burst: 2,
        });
        let stream = (0..5).map(|i| req(i, 0, 0, 1, 8)).collect();
        let (outcome, _) = run(cfg, Box::new(Fifo), stream);
        assert_eq!(outcome.stats.rejected_rate, 3);
        assert_eq!(outcome.stats.enqueued, 2);
    }

    #[test]
    fn queue_full_reject_new_vs_shed_oldest() {
        let mut cfg = AdmitConfig::new(4);
        cfg.queue_cap = 2;
        cfg.epoch_ns = 1_000_000; // everything arrives in epoch 0
        let stream: Vec<ConnRequest> = (0u32..4)
            .map(|i| req(i as u64, 0, i, (i + 1) % 4, 8))
            .collect();

        let (reject_new, _) = run(cfg.clone(), Box::new(Fifo), stream.clone());
        assert_eq!(reject_new.stats.rejected_queue_full, 2);
        let bounced: Vec<u32> = reject_new
            .decisions
            .iter()
            .filter_map(|d| match d {
                Decision::Reject {
                    req,
                    cause: RejectCause::QueueFull,
                    ..
                } => Some(*req),
                _ => None,
            })
            .collect();
        assert_eq!(bounced, vec![2, 3], "the new arrivals bounce");

        cfg.backpressure = Backpressure::ShedOldest;
        let (shed, _) = run(cfg, Box::new(Fifo), stream);
        assert_eq!(shed.stats.rejected_shed, 2);
        let bounced: Vec<u32> = shed
            .decisions
            .iter()
            .filter_map(|d| match d {
                Decision::Reject {
                    req,
                    cause: RejectCause::Shed,
                    ..
                } => Some(*req),
                _ => None,
            })
            .collect();
        assert_eq!(bounced, vec![0, 1], "the oldest queued requests bounce");
    }

    #[test]
    fn strict_priority_grants_low_tenant_first() {
        let mut cfg = AdmitConfig::new(4);
        cfg.batch = 1; // one request per epoch makes the order visible
        let stream = vec![req(0, 3, 0, 1, 8), req(1, 0, 2, 3, 8)];
        let (outcome, _) = run(cfg, Box::new(StrictPriority), stream);
        let grant_tenants: Vec<u32> = outcome
            .decisions
            .iter()
            .filter_map(|d| match d {
                Decision::Grant { tenant, .. } => Some(*tenant),
                _ => None,
            })
            .collect();
        assert_eq!(grant_tenants, vec![0, 3]);
    }

    #[test]
    fn pifo_grants_shortest_first() {
        let mut cfg = AdmitConfig::new(4);
        cfg.batch = 1;
        let stream = vec![req(0, 0, 0, 1, 4096), req(1, 0, 2, 3, 64)];
        let (outcome, _) = run(cfg, Box::new(ShortestFirst), stream);
        let grant_srcs: Vec<u32> = outcome
            .decisions
            .iter()
            .filter_map(|d| match d {
                Decision::Grant { src, .. } => Some(*src),
                _ => None,
            })
            .collect();
        assert_eq!(grant_srcs, vec![2, 0], "64-byte request overtakes");
    }

    #[test]
    fn decisions_replay_from_trace_records() {
        for kind in PolicyKind::ALL {
            let mut cfg = AdmitConfig::new(8);
            cfg.queue_cap = 4;
            cfg.rate = Some(RateConfig {
                rate_per_sec: 10_000_000,
                burst: 3,
            });
            let stream: Vec<ConnRequest> = (0u32..40)
                .map(|i| {
                    req(
                        i as u64 * 37,
                        i % 3,
                        i % 8,
                        (i * 3 + 1) % 8,
                        16 + (i % 5) * 64,
                    )
                })
                .collect();
            let (outcome, records) = run(cfg, kind.build(), stream);
            assert_eq!(
                decisions_from_records(&records),
                outcome.decisions,
                "policy {}",
                kind.name()
            );
            assert!(!outcome.decisions.is_empty());
        }
    }

    #[test]
    fn routed_engine_matches_crossbar_on_nonblocking_graph() {
        // A single-crossbar stage graph admits everything the slot
        // constraint allows, so the routed engine must equal the plain one.
        let stream: Vec<ConnRequest> = (0u32..20)
            .map(|i| req(i as u64 * 50, 0, i % 4, (i + 1) % 4, 8))
            .collect();
        let (plain, _) = run(AdmitConfig::new(4), Box::new(Fifo), stream.clone());
        let mut engine = AdmitEngine::new(AdmitConfig::new(4), Box::new(Fifo)).with_router(
            MultistageRouter::new(pms_multistage::StageGraph::crossbar(4), 2),
        );
        let mut tracer = Tracer::vec();
        let routed = engine.run(stream, &mut tracer);
        assert_eq!(plain.decisions, routed.decisions);
    }

    #[test]
    fn expired_requests_bounce_after_retry_budget() {
        let mut cfg = AdmitConfig::new(4);
        cfg.max_denials = 1;
        cfg.slots = 1; // one slot: second conflicting request starves
        cfg.batch = 4;
        // Three inputs contending for output 3 through one slot: only one
        // wins per working-set lifetime; with a 1-denial budget the others
        // expire instead of waiting out the eviction cycle.
        let stream = vec![req(0, 0, 0, 3, 8), req(0, 0, 1, 3, 8), req(0, 0, 2, 3, 8)];
        let (outcome, _) = run(cfg, Box::new(Fifo), stream);
        assert!(outcome.stats.rejected_expired > 0);
        assert!(outcome.stats.granted >= 1);
    }
}

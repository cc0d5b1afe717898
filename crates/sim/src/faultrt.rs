//! Shared fault-injection runtime for the simulators.
//!
//! Wraps [`pms_faults::FaultState`] with the NIC-side bookkeeping every
//! paradigm needs but the fault crate deliberately doesn't own: per-message
//! retry budgets for transient NIC errors and per-pair backoff state for
//! dropped grant lines. The simulators poll it as time advances, emit the
//! returned [`Transition`]s as trace events, and consult the predicates on
//! their hot paths.
//!
//! Everything here is deterministic: backoff delays come from the plan's
//! [`RetryPolicy`], attempt counters are plain integers, and transition
//! timestamps are the *scheduled* fault boundaries — so two simulators
//! polling at different cadences stamp identical fault events.

use pms_faults::{FaultPlan, FaultState, RetryPolicy, Transition};

/// What the NIC does with a message whose transmission just finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NicOutcome {
    /// Completion is clean: deliver the message.
    Deliver,
    /// The serializer corrupted the frame; the NIC retransmits the whole
    /// message, eligible again at `resume_at`.
    Retry {
        /// Earliest time the retransmission may begin.
        resume_at: u64,
        /// Retry attempt number (1 = first retry).
        attempt: u32,
    },
    /// The retry budget is exhausted: the NIC drops the message.
    Abandon {
        /// Retries spent before giving up.
        retries: u32,
    },
}

/// Per-simulation fault runtime: plan replay plus retry bookkeeping.
#[derive(Debug, Clone)]
pub struct FaultRt {
    state: FaultState,
    retry: RetryPolicy,
    ports: usize,
    /// Per-message transient-NIC retry attempts spent so far.
    nic_attempts: Vec<u32>,
    /// Per-message earliest retransmission time (0 = unconstrained).
    retry_at: Vec<u64>,
    /// Per-pair dropped-grant attempt counts (reset when the pair's
    /// grant-drop fault clears).
    drop_attempts: Vec<u32>,
    /// Per-pair request-line suppression deadline after a dropped grant.
    suppress_until: Vec<u64>,
}

impl FaultRt {
    /// Builds the runtime, or `None` for an empty plan — the caller keeps
    /// an `Option<FaultRt>` so a no-fault run takes the exact unfaulted
    /// code path (byte-identical stats and traces).
    pub fn new(ports: usize, plan: FaultPlan, n_msgs: usize) -> Option<Self> {
        if plan.is_empty() {
            return None;
        }
        let retry = plan.retry;
        Some(FaultRt {
            state: FaultState::new(ports, plan),
            retry,
            ports,
            nic_attempts: vec![0; n_msgs],
            retry_at: vec![0; n_msgs],
            drop_attempts: vec![0; ports * ports],
            suppress_until: vec![0; ports * ports],
        })
    }

    /// Advances the fault replay to `now`; see [`FaultState::poll`].
    pub fn poll(&mut self, now: u64) -> Vec<Transition> {
        self.state.poll(now)
    }

    /// The next unprocessed fault boundary, if any.
    pub fn next_change(&self) -> Option<u64> {
        self.state.next_change()
    }

    /// Is any grant-blocking fault active (i.e. should passes go through
    /// the fault admission mask)?
    pub fn any_grant_blocked(&self) -> bool {
        self.state.any_grant_blocked()
    }

    /// May `u -> v` be granted / carry data right now?
    pub fn link_ok(&self, u: usize, v: usize) -> bool {
        self.state.link_ok(u, v)
    }

    /// Is the SL cell `(u, v)` stuck at never-release?
    pub fn stuck_release(&self, u: usize, v: usize) -> bool {
        self.state.stuck_release(u, v)
    }

    /// Is the grant line for `u -> v` dropping grants?
    pub fn grant_drop(&self, u: usize, v: usize) -> bool {
        self.state.grant_drop(u, v)
    }

    /// Admission closure body: `config ⊆ grant_mask`.
    pub fn admits(&self, config: &pms_bitmat::BitMatrix) -> bool {
        self.state.admits(config)
    }

    /// Resolves a finished transmission of `msg` from `port` at `now`:
    /// clean delivery, a budgeted retry, or abandonment. The caller is
    /// responsible for the trace event and stats.
    pub fn nic_completion(&mut self, msg: usize, port: usize, now: u64) -> NicOutcome {
        if !self.state.nic_faulty(port) {
            return NicOutcome::Deliver;
        }
        let attempt = self.nic_attempts[msg] + 1;
        if attempt > self.retry.max_retries {
            return NicOutcome::Abandon {
                retries: self.retry.max_retries,
            };
        }
        self.nic_attempts[msg] = attempt;
        let resume_at = now + self.retry.backoff_ns(attempt);
        self.retry_at[msg] = resume_at;
        NicOutcome::Retry { resume_at, attempt }
    }

    /// Earliest time `msg` may (re)start transmitting (0 when it has
    /// never been retried).
    pub fn msg_ready_at(&self, msg: usize) -> u64 {
        self.retry_at[msg]
    }

    /// Records a dropped grant on `(u, v)` at `now`: bumps the pair's
    /// attempt counter and suppresses its request line for the backoff.
    /// Returns `(attempt, resume_at)`. Grant drops are never abandoned —
    /// the NIC keeps retrying until the fault clears (the plan bounds the
    /// fault window, so this terminates).
    pub fn grant_dropped(&mut self, u: usize, v: usize, now: u64) -> (u32, u64) {
        let i = u * self.ports + v;
        let attempt = self.drop_attempts[i].saturating_add(1);
        self.drop_attempts[i] = attempt;
        let resume_at = now + self.retry.backoff_ns(attempt);
        self.suppress_until[i] = resume_at;
        (attempt, resume_at)
    }

    /// Is the request line for `(u, v)` suppressed by grant-drop backoff?
    pub fn request_suppressed(&self, u: usize, v: usize, now: u64) -> bool {
        now < self.suppress_until[u * self.ports + v]
    }

    /// Resets the grant-drop backoff state for `(u, v)` — called when the
    /// pair's grant-drop fault clears so the next incident starts fresh.
    pub fn clear_drop_state(&mut self, u: usize, v: usize) {
        let i = u * self.ports + v;
        self.drop_attempts[i] = 0;
        self.suppress_until[i] = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pms_faults::FaultKind;

    #[test]
    fn empty_plan_builds_nothing() {
        assert!(FaultRt::new(4, FaultPlan::new(), 10).is_none());
    }

    #[test]
    fn nic_completion_budgets_then_abandons() {
        let mut plan = FaultPlan::new();
        plan.retry = RetryPolicy {
            max_retries: 2,
            backoff_base_ns: 100,
            backoff_max_ns: 1_000,
        };
        plan.push(0, u64::MAX, FaultKind::NicTransient { port: 1 });
        let mut rt = FaultRt::new(4, plan, 3).unwrap();
        rt.poll(0);
        assert_eq!(rt.nic_completion(0, 0, 50), NicOutcome::Deliver);
        assert_eq!(
            rt.nic_completion(1, 1, 50),
            NicOutcome::Retry {
                resume_at: 150,
                attempt: 1
            }
        );
        assert_eq!(rt.msg_ready_at(1), 150);
        assert_eq!(
            rt.nic_completion(1, 1, 200),
            NicOutcome::Retry {
                resume_at: 400,
                attempt: 2
            }
        );
        assert_eq!(
            rt.nic_completion(1, 1, 500),
            NicOutcome::Abandon { retries: 2 }
        );
        // A different message has its own budget.
        assert!(matches!(
            rt.nic_completion(2, 1, 600),
            NicOutcome::Retry { attempt: 1, .. }
        ));
    }

    #[test]
    fn grant_drop_backoff_grows_and_resets() {
        let mut plan = FaultPlan::new();
        plan.retry = RetryPolicy {
            max_retries: 4,
            backoff_base_ns: 80,
            backoff_max_ns: 10_000,
        };
        plan.push(0, 1_000, FaultKind::GrantDrop { src: 0, dst: 2 });
        let mut rt = FaultRt::new(4, plan, 1).unwrap();
        rt.poll(0);
        assert!(rt.grant_drop(0, 2));
        let (a1, r1) = rt.grant_dropped(0, 2, 100);
        assert_eq!((a1, r1), (1, 180));
        assert!(rt.request_suppressed(0, 2, 150));
        assert!(!rt.request_suppressed(0, 2, 180));
        let (a2, r2) = rt.grant_dropped(0, 2, 200);
        assert_eq!((a2, r2), (2, 360), "backoff doubles");
        rt.clear_drop_state(0, 2);
        let (a3, _) = rt.grant_dropped(0, 2, 400);
        assert_eq!(a3, 1, "cleared fault restarts the ladder");
    }
}

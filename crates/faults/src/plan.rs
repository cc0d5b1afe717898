//! The fault plan: an explicit, fully-scripted schedule of fault windows.

use pms_trace::cli::{self, Fields, LineError, Words};
use pms_trace::FaultClass;
use rand::prelude::*;

/// What misbehaves, and where. Ports are `u32` to match trace events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Link/cross-point `src -> dst` is unusable.
    LinkDown {
        /// Input port.
        src: u32,
        /// Output port.
        dst: u32,
    },
    /// SL cell `(src, dst)` can never close its cross-point (never
    /// grants). Admission effect matches [`FaultKind::LinkDown`].
    StuckGrant {
        /// Input port.
        src: u32,
        /// Output port.
        dst: u32,
    },
    /// SL cell `(src, dst)` can never open its cross-point (never
    /// releases) while the fault is active.
    StuckRelease {
        /// Input port.
        src: u32,
        /// Output port.
        dst: u32,
    },
    /// Grant line for `src -> dst` drops grants; the NIC retries with
    /// exponential backoff.
    GrantDrop {
        /// Input port.
        src: u32,
        /// Output port.
        dst: u32,
    },
    /// Transient NIC/serialization errors at `port`: message completions
    /// fail and consume per-message retry budget.
    NicTransient {
        /// Faulty source port.
        port: u32,
    },
}

impl FaultKind {
    /// The trace-event class of this kind.
    pub fn class(&self) -> FaultClass {
        match self {
            FaultKind::LinkDown { .. } => FaultClass::LinkDown,
            FaultKind::StuckGrant { .. } => FaultClass::StuckGrant,
            FaultKind::StuckRelease { .. } => FaultClass::StuckRelease,
            FaultKind::GrantDrop { .. } => FaultClass::GrantDrop,
            FaultKind::NicTransient { .. } => FaultClass::NicTransient,
        }
    }

    /// The `(src, dst)` pair this fault targets. `NicTransient` has no
    /// destination; it reports `(port, port)` so trace events stay
    /// uniformly shaped.
    pub fn pair(&self) -> (u32, u32) {
        match *self {
            FaultKind::LinkDown { src, dst }
            | FaultKind::StuckGrant { src, dst }
            | FaultKind::StuckRelease { src, dst }
            | FaultKind::GrantDrop { src, dst } => (src, dst),
            FaultKind::NicTransient { port } => (port, port),
        }
    }
}

/// One fault window: active on `[start_ns, start_ns + duration_ns)`, and
/// — when `period_ns` is set — again every period after that, forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledFault {
    /// First nanosecond the fault is active.
    pub start_ns: u64,
    /// Length of each active window. `u64::MAX` means "never clears".
    pub duration_ns: u64,
    /// Repetition period; `None` for a one-shot window. When set, must be
    /// strictly greater than `duration_ns` (validated by the builders).
    pub period_ns: Option<u64>,
    /// What misbehaves.
    pub kind: FaultKind,
}

impl ScheduledFault {
    /// Is this fault active at `t`?
    pub fn active_at(&self, t: u64) -> bool {
        if t < self.start_ns {
            return false;
        }
        let rel = t - self.start_ns;
        match self.period_ns {
            Some(p) => rel % p < self.duration_ns,
            None => rel < self.duration_ns,
        }
    }

    /// The earliest activity-boundary strictly after `t` (inject or
    /// clear), or `None` when the fault never changes again.
    pub fn next_change_after(&self, t: u64) -> Option<u64> {
        if t < self.start_ns {
            return Some(self.start_ns);
        }
        let rel = t - self.start_ns;
        match self.period_ns {
            Some(p) => {
                let in_period = rel % p;
                let period_base = self.start_ns + (rel - in_period);
                if in_period < self.duration_ns {
                    Some(period_base + self.duration_ns)
                } else {
                    period_base.checked_add(p)
                }
            }
            None => {
                if rel < self.duration_ns {
                    self.start_ns.checked_add(self.duration_ns)
                } else {
                    None
                }
            }
        }
    }
}

/// Retry discipline for dropped grants and transient NIC errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Per-message retry budget for NIC transients; exceeding it abandons
    /// the message.
    pub max_retries: u32,
    /// First backoff delay after a dropped grant / failed completion.
    pub backoff_base_ns: u64,
    /// Backoff cap: delays never exceed this.
    pub backoff_max_ns: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            backoff_base_ns: 200,
            backoff_max_ns: 10_000,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry attempt `attempt` (1-based): `base <<
    /// (attempt - 1)`, saturating, capped at `backoff_max_ns`.
    pub fn backoff_ns(&self, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1).min(63);
        // A plain `<<` discards overflowed bits silently; saturate instead.
        let raw = if shift >= self.backoff_base_ns.leading_zeros() {
            u64::MAX
        } else {
            self.backoff_base_ns << shift
        };
        raw.min(self.backoff_max_ns)
    }
}

/// Parameters for expanding a rate-based fault process into scripted
/// windows (done once, at plan-build time, from a caller-provided seed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatePlanParams {
    /// Seed for the deterministic Bernoulli process.
    pub seed: u64,
    /// Per-window, per-link probability of a fault.
    pub prob: f64,
    /// Window length: each link is (re)drawn every `period_ns`.
    pub period_ns: u64,
    /// How long a drawn fault stays active (≤ `period_ns`).
    pub duration_ns: u64,
    /// Horizon: windows starting at `0, period_ns, …` below this.
    pub horizon_ns: u64,
    /// Switch radix: links `(u, v)` with `u != v`, both `< ports`.
    pub ports: u32,
}

/// A deterministic fault schedule plus the retry discipline.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// The scripted fault windows. The index of a fault in this vector is
    /// its stable id in `FaultInjected`/`FaultCleared` trace events.
    pub faults: Vec<ScheduledFault>,
    /// Retry discipline for grant drops and NIC transients.
    pub retry: RetryPolicy,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::new()
    }
}

impl FaultPlan {
    /// An empty plan (no faults, default retry policy).
    pub fn new() -> Self {
        FaultPlan {
            faults: Vec::new(),
            retry: RetryPolicy::default(),
        }
    }

    /// True when the plan injects nothing — simulators treat such a plan
    /// exactly like no plan at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Adds a one-shot fault window `[start_ns, start_ns + duration_ns)`.
    ///
    /// # Panics
    /// Panics if `duration_ns` is zero.
    pub fn push(&mut self, start_ns: u64, duration_ns: u64, kind: FaultKind) -> &mut Self {
        assert!(duration_ns > 0, "zero-duration fault window");
        self.faults.push(ScheduledFault {
            start_ns,
            duration_ns,
            period_ns: None,
            kind,
        });
        self
    }

    /// Adds a periodic fault: active for `duration_ns` at the start of
    /// every `period_ns`, beginning at `start_ns`, forever.
    ///
    /// # Panics
    /// Panics unless `0 < duration_ns < period_ns`.
    pub fn push_periodic(
        &mut self,
        start_ns: u64,
        duration_ns: u64,
        period_ns: u64,
        kind: FaultKind,
    ) -> &mut Self {
        assert!(
            duration_ns > 0 && duration_ns < period_ns,
            "periodic fault needs 0 < duration ({duration_ns}) < period ({period_ns})"
        );
        self.faults.push(ScheduledFault {
            start_ns,
            duration_ns,
            period_ns: Some(period_ns),
            kind,
        });
        self
    }

    /// Expands a rate-based link-failure process into scripted one-shot
    /// `LinkDown` windows and appends them.
    ///
    /// For each window start `k * period_ns < horizon_ns` and each
    /// ordered link `(u, v)`, `u != v`, a Bernoulli draw with probability
    /// `prob` decides whether the link fails for `duration_ns` from the
    /// window start. Draw order is `(k, u, v)` lexicographic, so a given
    /// seed always yields the same plan.
    ///
    /// # Panics
    /// Panics if `prob` is outside `[0, 1]`, `period_ns` is zero, or
    /// `duration_ns` is zero or exceeds `period_ns`.
    pub fn push_rate_link_down(&mut self, p: RatePlanParams) -> &mut Self {
        assert!(
            (0.0..=1.0).contains(&p.prob),
            "fault probability {} outside [0, 1]",
            p.prob
        );
        assert!(p.period_ns > 0, "zero fault period");
        assert!(
            p.duration_ns > 0 && p.duration_ns <= p.period_ns,
            "rate fault needs 0 < duration ({}) <= period ({})",
            p.duration_ns,
            p.period_ns
        );
        let mut rng = StdRng::seed_from_u64(p.seed);
        let mut start = 0u64;
        while start < p.horizon_ns {
            for u in 0..p.ports {
                for v in 0..p.ports {
                    if u == v {
                        continue;
                    }
                    if rng.gen_bool(p.prob) {
                        self.push(start, p.duration_ns, FaultKind::LinkDown { src: u, dst: v });
                    }
                }
            }
            start += p.period_ns;
        }
        self
    }

    /// The largest port index any fault touches, plus one (0 for an empty
    /// plan). Simulators validate this against their own radix.
    pub fn ports_spanned(&self) -> u32 {
        self.faults
            .iter()
            .map(|f| {
                let (s, d) = f.kind.pair();
                s.max(d) + 1
            })
            .max()
            .unwrap_or(0)
    }

    /// Parses the line-based plan format (see the module docs of
    /// [`crate`] and `parse` tests for examples):
    ///
    /// ```text
    /// # comment / blank lines ignored
    /// retry budget=3 base=200 max=5000
    /// link-down start=1000 end=5000 src=0 dst=3
    /// stuck-grant start=0 dur=2000 src=1 dst=2
    /// stuck-release start=500 end=1500 src=2 dst=4
    /// grant-drop start=0 dur=1000 src=3 dst=1
    /// nic-transient start=100 end=900 port=2
    /// link-down start=0 dur=300 period=1000 src=0 dst=1
    /// rate-link-down seed=42 prob=0.05 period=1000 dur=300 horizon=20000 ports=8
    /// ```
    ///
    /// Windows take either `end=` (exclusive) or `dur=`; adding
    /// `period=` makes the window repeat. The file is read by
    /// [`cli::read_lines`]: `#` starts a comment, and a bad line is a
    /// [`LineError`] naming it.
    pub fn parse(text: &str) -> Result<FaultPlan, LineError> {
        let mut plan = FaultPlan::new();
        cli::read_lines(text, |line| plan.parse_line(line))?;
        Ok(plan)
    }

    fn parse_line(&mut self, line: &str) -> Result<(), String> {
        let mut words = Words::new(line);
        let directive = words.word("directive")?;
        let fields = Fields::parse(words)?;
        let pair =
            || -> Result<(u32, u32), String> { Ok((fields.num("src")?, fields.num("dst")?)) };
        let kind = match directive {
            "retry" => {
                self.retry = RetryPolicy {
                    max_retries: fields.num("budget")?,
                    backoff_base_ns: fields.num("base")?,
                    backoff_max_ns: fields.num("max")?,
                };
                return Ok(());
            }
            "rate-link-down" => {
                let params = RatePlanParams {
                    seed: fields.num("seed")?,
                    prob: fields.num("prob")?,
                    period_ns: fields.num("period")?,
                    duration_ns: fields.num("dur")?,
                    horizon_ns: fields.num("horizon")?,
                    ports: fields.num("ports")?,
                };
                if !(0.0..=1.0).contains(&params.prob) {
                    return Err(format!("prob={} must be in [0, 1]", params.prob));
                }
                if params.duration_ns == 0 || params.duration_ns > params.period_ns {
                    return Err(format!(
                        "rate fault needs 0 < dur ({}) <= period ({})",
                        params.duration_ns, params.period_ns
                    ));
                }
                self.push_rate_link_down(params);
                return Ok(());
            }
            "link-down" => pair().map(|(src, dst)| FaultKind::LinkDown { src, dst })?,
            "stuck-grant" => pair().map(|(src, dst)| FaultKind::StuckGrant { src, dst })?,
            "stuck-release" => pair().map(|(src, dst)| FaultKind::StuckRelease { src, dst })?,
            "grant-drop" => pair().map(|(src, dst)| FaultKind::GrantDrop { src, dst })?,
            "nic-transient" => FaultKind::NicTransient {
                port: fields.num("port")?,
            },
            other => return Err(format!("unknown directive `{other}`")),
        };
        let start: u64 = fields.num("start")?;
        let dur = match (fields.find("dur"), fields.find("end")) {
            (Some(_), Some(_)) => return Err("give either dur= or end=, not both".to_string()),
            (Some(_), None) => fields.num("dur")?,
            (None, Some(_)) => {
                let end: u64 = fields.num("end")?;
                if end <= start {
                    return Err(format!("end ({end}) must exceed start ({start})"));
                }
                end - start
            }
            (None, None) => return Err("missing dur= or end=".to_string()),
        };
        if dur == 0 {
            return Err("zero-duration fault window".to_string());
        }
        match fields.opt::<u64>("period")? {
            Some(period) if dur >= period => {
                return Err(format!(
                    "periodic fault needs dur ({dur}) < period ({period})"
                ))
            }
            Some(period) => self.push_periodic(start, dur, period, kind),
            None => self.push(start, dur, kind),
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_shot_window_activity_and_boundaries() {
        let f = ScheduledFault {
            start_ns: 100,
            duration_ns: 50,
            period_ns: None,
            kind: FaultKind::LinkDown { src: 0, dst: 1 },
        };
        assert!(!f.active_at(99));
        assert!(f.active_at(100));
        assert!(f.active_at(149));
        assert!(!f.active_at(150));
        assert_eq!(f.next_change_after(0), Some(100));
        assert_eq!(f.next_change_after(100), Some(150));
        assert_eq!(f.next_change_after(149), Some(150));
        assert_eq!(f.next_change_after(150), None);
    }

    #[test]
    fn never_clearing_window() {
        let f = ScheduledFault {
            start_ns: 10,
            duration_ns: u64::MAX,
            period_ns: None,
            kind: FaultKind::NicTransient { port: 0 },
        };
        assert!(f.active_at(u64::MAX));
        assert_eq!(f.next_change_after(10), None, "saturates, never clears");
    }

    #[test]
    fn periodic_window_repeats() {
        let f = ScheduledFault {
            start_ns: 1000,
            duration_ns: 100,
            period_ns: Some(400),
            kind: FaultKind::GrantDrop { src: 2, dst: 3 },
        };
        for k in 0..5u64 {
            let base = 1000 + k * 400;
            assert!(f.active_at(base));
            assert!(f.active_at(base + 99));
            assert!(!f.active_at(base + 100));
            assert!(!f.active_at(base + 399));
            assert_eq!(f.next_change_after(base), Some(base + 100));
            assert_eq!(f.next_change_after(base + 100), Some(base + 400));
        }
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let r = RetryPolicy {
            max_retries: 8,
            backoff_base_ns: 100,
            backoff_max_ns: 1000,
        };
        assert_eq!(r.backoff_ns(1), 100);
        assert_eq!(r.backoff_ns(2), 200);
        assert_eq!(r.backoff_ns(3), 400);
        assert_eq!(r.backoff_ns(4), 800);
        assert_eq!(r.backoff_ns(5), 1000, "capped");
        assert_eq!(r.backoff_ns(100), 1000, "shift saturates, still capped");
    }

    #[test]
    fn rate_expansion_is_seed_deterministic() {
        let params = RatePlanParams {
            seed: 42,
            prob: 0.1,
            period_ns: 1000,
            duration_ns: 300,
            horizon_ns: 10_000,
            ports: 8,
        };
        let mut a = FaultPlan::new();
        a.push_rate_link_down(params);
        let mut b = FaultPlan::new();
        b.push_rate_link_down(params);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "p=0.1 over 560 draws yields some faults");
        let mut c = FaultPlan::new();
        c.push_rate_link_down(RatePlanParams { seed: 43, ..params });
        assert_ne!(a, c, "different seed, different plan");
        for f in &a.faults {
            assert!(
                matches!(f.kind, FaultKind::LinkDown { src, dst } if src != dst && src < 8 && dst < 8)
            );
            assert_eq!(f.duration_ns, 300);
            assert_eq!(f.start_ns % 1000, 0);
            assert!(f.start_ns < 10_000);
        }
    }

    #[test]
    fn parse_accepts_every_directive() {
        let text = "\
# a comment
retry budget=3 base=200 max=5000

link-down start=1000 end=5000 src=0 dst=3
stuck-grant start=0 dur=2000 src=1 dst=2
stuck-release start=500 end=1500 src=2 dst=4
grant-drop start=0 dur=1000 src=3 dst=1
nic-transient start=100 end=900 port=2
link-down start=0 dur=300 period=1000 src=0 dst=1
rate-link-down seed=42 prob=0.05 period=1000 dur=300 horizon=5000 ports=4
";
        let plan = FaultPlan::parse(text).unwrap();
        assert_eq!(plan.retry.max_retries, 3);
        assert_eq!(plan.retry.backoff_base_ns, 200);
        assert_eq!(plan.retry.backoff_max_ns, 5000);
        assert!(plan.faults.len() >= 6);
        assert_eq!(
            plan.faults[0],
            ScheduledFault {
                start_ns: 1000,
                duration_ns: 4000,
                period_ns: None,
                kind: FaultKind::LinkDown { src: 0, dst: 3 },
            }
        );
        assert_eq!(plan.faults[5].period_ns, Some(1000));
        assert_eq!(plan.ports_spanned(), 5);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err =
            FaultPlan::parse("link-down start=0 dur=10 src=0 dst=1\nwat start=0\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(err.to_string().contains("wat"), "{err}");

        let err = FaultPlan::parse("link-down start=5 end=5 src=0 dst=1").unwrap_err();
        assert!(err.msg.contains("must exceed"), "{err}");

        let err = FaultPlan::parse("link-down start=0 src=0 dst=1").unwrap_err();
        assert!(err.msg.contains("missing dur= or end="), "{err}");

        let err = FaultPlan::parse("link-down start=0 dur=3 end=3 src=0 dst=1").unwrap_err();
        assert!(err.msg.contains("not both"), "{err}");

        let err = FaultPlan::parse("nic-transient start=0 dur=x port=1").unwrap_err();
        assert!(err.msg.contains("dur=x"), "{err}");
    }

    #[test]
    fn ports_past_u32_are_rejected_not_wrapped() {
        // 2^32 once ran as port 0.
        let err = FaultPlan::parse("link-down start=0 dur=1000 src=4294967296 dst=1").unwrap_err();
        assert_eq!(err.line, 1);
        assert_eq!(err.msg, "src=4294967296 is out of range");
        for line in [
            "nic-transient start=0 dur=1 port=4294967297",
            "retry budget=4294967296 base=1 max=2",
            "rate-link-down seed=1 prob=0.5 period=10 dur=5 horizon=10 ports=4294967296",
        ] {
            let err = FaultPlan::parse(line).unwrap_err();
            assert!(err.msg.ends_with("is out of range"), "{line}: {err}");
        }
        let plan = FaultPlan::parse("link-down start=0 dur=1 src=4294967295 dst=1").unwrap();
        assert_eq!(plan.faults[0].kind.pair(), (u32::MAX, 1));
    }

    #[test]
    fn rate_parameters_the_expansion_would_refuse_are_line_errors() {
        for (line, msg) in [
            ("prob=1.5 period=10 dur=5", "prob=1.5 must be in [0, 1]"),
            ("prob=NaN period=10 dur=5", "prob=NaN must be in [0, 1]"),
            (
                "prob=0.5 period=0 dur=5",
                "rate fault needs 0 < dur (5) <= period (0)",
            ),
            (
                "prob=0.5 period=10 dur=0",
                "rate fault needs 0 < dur (0) <= period (10)",
            ),
        ] {
            let text = format!("rate-link-down seed=1 {line} horizon=20 ports=2");
            assert_eq!(FaultPlan::parse(&text).unwrap_err().msg, msg, "{text}");
        }
    }

    #[test]
    fn trailing_comments_are_cut() {
        let plan = FaultPlan::parse(
            "link-down start=0 dur=10 src=0 dst=1 # flaky cable
",
        )
        .unwrap();
        let bare = FaultPlan::parse(
            "link-down start=0 dur=10 src=0 dst=1
",
        )
        .unwrap();
        assert_eq!(plan, bare);
    }
}

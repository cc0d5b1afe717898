//! Declarative alerting over the snapshot time-series.
//!
//! A rules file is a line-oriented `key=value` script (same shape and
//! error discipline as `pms-faults` plan files: blank lines and `#`
//! comments skipped, errors carry 1-based line numbers and the verbatim
//! line). Three rule kinds:
//!
//! ```text
//! # fire when a per-window metric crosses a level
//! threshold name=retry-storm metric=retries op=ge value=5 for=2 clear=1 clear-for=2 cooldown=4
//! # fire on the signed delta between consecutive emitted windows
//! rate name=delivery-drop metric=delivered op=lt value=-10
//! # fire when a metric departs its EWMA by more than z sigmas
//! anomaly name=setup-spike metric=setup-max-ns z=3 alpha=0.25 warmup=8
//! ```
//!
//! Hysteresis: `for=N` consecutive breaching windows raise, `clear-for=N`
//! consecutive non-breaching windows clear, `clear=V` gives threshold
//! rules a separate clear level, and `cooldown=N` suppresses re-raising
//! for N evaluated windows after a clear.
//!
//! The engine is evaluated *online* against each emitted
//! [`Snapshot`](crate::timeseries::Snapshot) and is a pure function of
//! the snapshot sequence: the same trace plus the same rules always
//! yields the same `AlertRaised`/`AlertCleared` stream, live or replayed
//! ([`replay_alerts`]). Events carry rule *indices*; names stay in the
//! rules file. Rate deltas are encoded two's-complement into the event's
//! `u64` `value`/`threshold` fields.
//!
//! Only *emitted* windows are evaluated — all-idle windows are skipped by
//! the collector, so a rule cannot clear during a stretch where nothing
//! happened at all. This is deliberate: an idle fabric has no new
//! evidence either way.

use crate::event::{MetricsWindow, TraceEvent, TraceRecord};
use crate::timeseries::Snapshot;
use std::fmt;

/// A per-window metric an alert rule can address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Messages delivered in the window.
    Delivered,
    /// Payload bytes delivered in the window.
    Bytes,
    /// Connections established in the window.
    Established,
    /// Connections evicted in the window.
    Evicted,
    /// Scheduler denials in the window.
    Denied,
    /// Message retries in the window.
    Retries,
    /// Messages abandoned in the window.
    Abandoned,
    /// Faults injected in the window.
    FaultsInjected,
    /// Faults cleared in the window.
    FaultsCleared,
    /// Setups completed in the window.
    Setups,
    /// Worst completed setup latency in the window.
    SetupMaxNs,
    /// Mean completed setup latency in the window.
    SetupMeanNs,
    /// Scheduling passes in the window.
    Passes,
    /// Admission requests enqueued in the window.
    Enqueued,
    /// Admission requests granted in the window.
    Granted,
    /// Admission requests rejected in the window.
    Rejected,
    /// Admission batch epochs completed in the window.
    Batches,
}

impl Metric {
    /// Stable kebab-case label used by rules files.
    pub fn label(self) -> &'static str {
        match self {
            Metric::Delivered => "delivered",
            Metric::Bytes => "bytes",
            Metric::Established => "established",
            Metric::Evicted => "evicted",
            Metric::Denied => "denied",
            Metric::Retries => "retries",
            Metric::Abandoned => "abandoned",
            Metric::FaultsInjected => "faults-injected",
            Metric::FaultsCleared => "faults-cleared",
            Metric::Setups => "setups",
            Metric::SetupMaxNs => "setup-max-ns",
            Metric::SetupMeanNs => "setup-mean-ns",
            Metric::Passes => "passes",
            Metric::Enqueued => "enqueued",
            Metric::Granted => "granted",
            Metric::Rejected => "rejected",
            Metric::Batches => "batches",
        }
    }

    /// Inverse of [`label`](Self::label).
    pub fn from_label(label: &str) -> Option<Metric> {
        Metric::ALL.into_iter().find(|m| m.label() == label)
    }

    /// All metrics, in snapshot-field order.
    pub const ALL: [Metric; 17] = [
        Metric::Delivered,
        Metric::Bytes,
        Metric::Established,
        Metric::Evicted,
        Metric::Denied,
        Metric::Retries,
        Metric::Abandoned,
        Metric::FaultsInjected,
        Metric::FaultsCleared,
        Metric::Setups,
        Metric::SetupMaxNs,
        Metric::SetupMeanNs,
        Metric::Passes,
        Metric::Enqueued,
        Metric::Granted,
        Metric::Rejected,
        Metric::Batches,
    ];

    /// Reads this metric out of a snapshot window.
    pub fn value(self, w: &MetricsWindow) -> u64 {
        match self {
            Metric::Delivered => w.delivered as u64,
            Metric::Bytes => w.bytes,
            Metric::Established => w.established as u64,
            Metric::Evicted => w.evicted as u64,
            Metric::Denied => w.denied as u64,
            Metric::Retries => w.retries as u64,
            Metric::Abandoned => w.abandoned as u64,
            Metric::FaultsInjected => w.faults_injected as u64,
            Metric::FaultsCleared => w.faults_cleared as u64,
            Metric::Setups => w.setups as u64,
            Metric::SetupMaxNs => w.setup_max_ns,
            Metric::SetupMeanNs => w.setup_mean_ns(),
            Metric::Passes => w.passes as u64,
            Metric::Enqueued => w.enqueued as u64,
            Metric::Granted => w.granted as u64,
            Metric::Rejected => w.rejected as u64,
            Metric::Batches => w.batches as u64,
        }
    }
}

/// Comparison operator for threshold and rate rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Strictly greater.
    Gt,
    /// Strictly less.
    Lt,
    /// Greater or equal.
    Ge,
    /// Less or equal.
    Le,
}

impl Op {
    /// Stable label used by rules files.
    pub fn label(self) -> &'static str {
        match self {
            Op::Gt => "gt",
            Op::Lt => "lt",
            Op::Ge => "ge",
            Op::Le => "le",
        }
    }

    /// Inverse of [`label`](Self::label).
    pub fn from_label(label: &str) -> Option<Op> {
        match label {
            "gt" => Some(Op::Gt),
            "lt" => Some(Op::Lt),
            "ge" => Some(Op::Ge),
            "le" => Some(Op::Le),
            _ => None,
        }
    }

    fn cmp_u64(self, a: u64, b: u64) -> bool {
        match self {
            Op::Gt => a > b,
            Op::Lt => a < b,
            Op::Ge => a >= b,
            Op::Le => a <= b,
        }
    }

    fn cmp_i64(self, a: i64, b: i64) -> bool {
        match self {
            Op::Gt => a > b,
            Op::Lt => a < b,
            Op::Ge => a >= b,
            Op::Le => a <= b,
        }
    }
}

/// What makes one rule breach.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleKind {
    /// Metric level crosses `value` (clears against `clear_value` when
    /// given, for hysteresis on the level itself).
    Threshold {
        /// Raise level.
        value: u64,
        /// Separate clear level, defaulting to the raise level.
        clear_value: Option<u64>,
    },
    /// Signed delta between consecutive *emitted* windows crosses `value`.
    Rate {
        /// Raise delta (may be negative).
        value: i64,
    },
    /// Metric sits more than `z` sigmas above its EWMA mean.
    Anomaly {
        /// Sigma multiplier.
        z: f64,
        /// EWMA smoothing factor in `(0, 1]`.
        alpha: f64,
        /// Windows observed before the detector may fire.
        warmup: u32,
    },
}

impl RuleKind {
    /// Stable directive name for this kind.
    pub fn directive(&self) -> &'static str {
        match self {
            RuleKind::Threshold { .. } => "threshold",
            RuleKind::Rate { .. } => "rate",
            RuleKind::Anomaly { .. } => "anomaly",
        }
    }
}

/// One parsed alert rule.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Rule name (unique within a file; lives only here, never in events).
    pub name: String,
    /// Watched metric.
    pub metric: Metric,
    /// Comparison for threshold/rate rules (`Op::Gt` for anomaly, unused).
    pub op: Op,
    /// Breach definition.
    pub kind: RuleKind,
    /// Consecutive breaching windows required to raise.
    pub raise_for: u32,
    /// Consecutive non-breaching windows required to clear.
    pub clear_for: u32,
    /// Evaluated windows after a clear during which re-raising is
    /// suppressed.
    pub cooldown: u32,
}

/// A parsed rules file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AlertRules {
    /// Rules in file order; [`TraceEvent::AlertRaised::rule`] indexes this.
    pub rules: Vec<AlertRule>,
}

/// A malformed rules line: which line (1-based), what it contained, and
/// what was wrong. Mirrors `pms-faults`'s `PlanParseError`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RulesParseError {
    /// 1-based line number.
    pub line: usize,
    /// The offending line, verbatim (trimmed).
    pub context: String,
    /// What was wrong with it.
    pub msg: String,
}

impl fmt::Display for RulesParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "alert rules line {}: {} in {:?}",
            self.line, self.msg, self.context
        )
    }
}

impl std::error::Error for RulesParseError {}

/// `key=value` fields of one rules line.
struct Fields<'a> {
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Fields<'a> {
    fn parse(words: impl Iterator<Item = &'a str>) -> Result<Fields<'a>, String> {
        let mut pairs = Vec::new();
        for w in words {
            let (k, v) = w
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got `{w}`"))?;
            pairs.push((k, v));
        }
        Ok(Fields { pairs })
    }

    fn find(&self, key: &str) -> Option<&'a str> {
        self.pairs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    fn get(&self, key: &str) -> Result<&'a str, String> {
        self.find(key).ok_or_else(|| format!("missing {key}="))
    }

    fn get_u64(&self, key: &str) -> Result<u64, String> {
        let v = self.get(key)?;
        v.parse::<u64>()
            .map_err(|_| format!("{key}={v} is not a non-negative integer"))
    }

    fn get_i64(&self, key: &str) -> Result<i64, String> {
        let v = self.get(key)?;
        v.parse::<i64>()
            .map_err(|_| format!("{key}={v} is not an integer"))
    }

    fn get_f64(&self, key: &str) -> Result<f64, String> {
        let v = self.get(key)?;
        v.parse::<f64>()
            .map_err(|_| format!("{key}={v} is not a number"))
    }

    fn opt_u64(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.find(key) {
            Some(_) => self.get_u64(key),
            None => Ok(default),
        }
    }

    fn opt_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.find(key) {
            Some(_) => self.get_f64(key),
            None => Ok(default),
        }
    }
}

impl AlertRules {
    /// Parses a rules file. Errors carry 1-based line numbers.
    pub fn parse(text: &str) -> Result<AlertRules, RulesParseError> {
        let mut rules = AlertRules::default();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            rules.parse_line(line).map_err(|msg| RulesParseError {
                line: idx + 1,
                context: line.to_string(),
                msg,
            })?;
        }
        Ok(rules)
    }

    /// The built-in policy `simulate --flight-recorder` uses when no
    /// `--alerts` file is given: dump on setup-latency anomalies and any
    /// message abandonment (the generalization of the old hardcoded p99
    /// trigger).
    pub fn default_flight() -> AlertRules {
        AlertRules::parse(
            "anomaly name=setup-spike metric=setup-max-ns z=3 alpha=0.25 warmup=8 cooldown=4\n\
             threshold name=msg-abandoned metric=abandoned op=ge value=1\n",
        )
        .expect("built-in flight rules parse")
    }

    fn parse_line(&mut self, line: &str) -> Result<(), String> {
        let mut words = line.split_whitespace();
        let directive = words.next().expect("non-empty line");
        let fields = Fields::parse(words)?;
        let name = fields.get("name")?.to_string();
        if self.rules.iter().any(|r| r.name == name) {
            return Err(format!("duplicate rule name `{name}`"));
        }
        let metric_label = fields.get("metric")?;
        let metric = Metric::from_label(metric_label).ok_or_else(|| {
            let known: Vec<&str> = Metric::ALL.into_iter().map(Metric::label).collect();
            format!(
                "unknown metric `{metric_label}` (one of: {})",
                known.join(", ")
            )
        })?;
        let parse_op = || -> Result<Op, String> {
            let label = fields.get("op")?;
            Op::from_label(label)
                .ok_or_else(|| format!("unknown op `{label}` (one of: gt, lt, ge, le)"))
        };
        let (op, kind) = match directive {
            "threshold" => {
                let clear_value = match fields.find("clear") {
                    Some(_) => Some(fields.get_u64("clear")?),
                    None => None,
                };
                (
                    parse_op()?,
                    RuleKind::Threshold {
                        value: fields.get_u64("value")?,
                        clear_value,
                    },
                )
            }
            "rate" => (
                parse_op()?,
                RuleKind::Rate {
                    value: fields.get_i64("value")?,
                },
            ),
            "anomaly" => {
                let z = fields.get_f64("z")?;
                if !z.is_finite() || z <= 0.0 {
                    return Err(format!("z={z} must be a positive number"));
                }
                let alpha = fields.opt_f64("alpha", 0.25)?;
                if !(0.0..=1.0).contains(&alpha) || alpha == 0.0 {
                    return Err(format!("alpha={alpha} must be in (0, 1]"));
                }
                (
                    Op::Gt,
                    RuleKind::Anomaly {
                        z,
                        alpha,
                        warmup: fields.opt_u64("warmup", 8)? as u32,
                    },
                )
            }
            other => {
                return Err(format!(
                    "unknown directive `{other}` (one of: threshold, rate, anomaly)"
                ))
            }
        };
        let raise_for = fields.opt_u64("for", 1)? as u32;
        let clear_for = fields.opt_u64("clear-for", 1)? as u32;
        if raise_for == 0 || clear_for == 0 {
            return Err("for= and clear-for= must be at least 1".to_string());
        }
        self.rules.push(AlertRule {
            name,
            metric,
            op,
            kind,
            raise_for,
            clear_for,
            cooldown: fields.opt_u64("cooldown", 0)? as u32,
        });
        Ok(())
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the file defined no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

/// Per-rule evaluation state.
#[derive(Debug, Clone, Default)]
struct RuleState {
    active: bool,
    breach_streak: u32,
    ok_streak: u32,
    cooldown_left: u32,
    /// Previous emitted-window value (rate rules).
    prev: Option<u64>,
    /// EWMA mean / variance and windows seen (anomaly rules).
    ewma_mean: f64,
    ewma_var: f64,
    seen: u32,
}

/// Evaluates [`AlertRules`] online against emitted snapshots, appending
/// `AlertRaised`/`AlertCleared` records (stamped at the snapshot's time
/// and slot) to the output stream.
#[derive(Debug, Clone)]
pub struct AlertEngine {
    rules: AlertRules,
    state: Vec<RuleState>,
    raised: u64,
    cleared: u64,
}

impl AlertEngine {
    /// An engine for the given rules, all quiet.
    pub fn new(rules: AlertRules) -> Self {
        let state = vec![RuleState::default(); rules.rules.len()];
        AlertEngine {
            rules,
            state,
            raised: 0,
            cleared: 0,
        }
    }

    /// The rules being evaluated.
    pub fn rules(&self) -> &AlertRules {
        &self.rules
    }

    /// Total raises so far.
    pub fn raised(&self) -> u64 {
        self.raised
    }

    /// Total clears so far.
    pub fn cleared(&self) -> u64 {
        self.cleared
    }

    /// Indices of currently-active rules, ascending.
    pub fn active_rules(&self) -> Vec<usize> {
        self.state
            .iter()
            .enumerate()
            .filter(|(_, s)| s.active)
            .map(|(i, _)| i)
            .collect()
    }

    /// Evaluates every rule against one emitted snapshot, pushing any
    /// raise/clear records onto `out` in rule order.
    pub fn on_snapshot(&mut self, snap: &Snapshot, out: &mut Vec<TraceRecord>) {
        for i in 0..self.rules.rules.len() {
            let rule = &self.rules.rules[i];
            let x = rule.metric.value(&snap.window);
            let st = &mut self.state[i];
            // What counts as "breaching" this window, plus the observed
            // value and threshold an eventual raise would report.
            let (breach, observed, threshold) = match &rule.kind {
                RuleKind::Threshold { value, clear_value } => {
                    let level = if st.active {
                        clear_value.unwrap_or(*value)
                    } else {
                        *value
                    };
                    (rule.op.cmp_u64(x, level), x, level)
                }
                RuleKind::Rate { value } => {
                    let prev = st.prev.replace(x);
                    match prev {
                        None => (false, 0, *value as u64),
                        Some(p) => {
                            let delta = x as i64 - p as i64;
                            (rule.op.cmp_i64(delta, *value), delta as u64, *value as u64)
                        }
                    }
                }
                RuleKind::Anomaly { z, alpha, warmup } => {
                    let sigma = st.ewma_var.max(0.0).sqrt();
                    let bound = st.ewma_mean + z * sigma;
                    let armed = st.seen >= *warmup;
                    let breach = armed && (x as f64) > bound;
                    // Update the EWMA after the test (the window under
                    // test must not vouch for itself).
                    let diff = x as f64 - st.ewma_mean;
                    let incr = alpha * diff;
                    st.ewma_mean += incr;
                    st.ewma_var = (1.0 - alpha) * (st.ewma_var + diff * incr);
                    st.seen = st.seen.saturating_add(1);
                    (breach, x, bound.max(0.0).min(u64::MAX as f64) as u64)
                }
            };
            if st.active {
                if breach {
                    st.ok_streak = 0;
                } else {
                    st.ok_streak += 1;
                    if st.ok_streak >= rule.clear_for {
                        st.active = false;
                        st.ok_streak = 0;
                        st.cooldown_left = rule.cooldown;
                        self.cleared += 1;
                        out.push(TraceRecord {
                            t_ns: snap.t_ns,
                            slot: snap.slot,
                            event: TraceEvent::AlertCleared {
                                rule: i as u32,
                                seq: snap.window.seq,
                            },
                        });
                    }
                }
            } else if st.cooldown_left > 0 {
                // Cooling down: breaches are observed but cannot re-raise.
                st.cooldown_left -= 1;
                st.breach_streak = 0;
            } else if breach {
                st.breach_streak += 1;
                if st.breach_streak >= rule.raise_for {
                    st.active = true;
                    st.breach_streak = 0;
                    self.raised += 1;
                    out.push(TraceRecord {
                        t_ns: snap.t_ns,
                        slot: snap.slot,
                        event: TraceEvent::AlertRaised {
                            rule: i as u32,
                            seq: snap.window.seq,
                            value: observed,
                            threshold,
                        },
                    });
                }
            } else {
                st.breach_streak = 0;
            }
        }
    }
}

/// Recomputes the alert stream from an already-recorded trace: feeds
/// every `MetricsSnapshot` record through a fresh engine. The result
/// equals the `AlertRaised`/`AlertCleared` records a live pipeline with
/// the same rules emitted — the determinism contract the proptests pin.
pub fn replay_alerts(records: &[TraceRecord], rules: &AlertRules) -> Vec<TraceRecord> {
    let mut engine = AlertEngine::new(rules.clone());
    let mut out = Vec::new();
    for rec in records {
        if let Some(snap) = Snapshot::from_record(rec) {
            engine.on_snapshot(&snap, &mut out);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(seq: u32, retries: u32) -> Snapshot {
        Snapshot {
            t_ns: (seq as u64 + 1) * 1000,
            slot: seq,
            window: MetricsWindow {
                seq,
                retries,
                delivered: 1,
                ..MetricsWindow::default()
            },
        }
    }

    fn raises_and_clears(out: &[TraceRecord]) -> (usize, usize) {
        let r = out
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::AlertRaised { .. }))
            .count();
        let c = out
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::AlertCleared { .. }))
            .count();
        (r, c)
    }

    #[test]
    fn parse_accepts_every_directive() {
        let rules = AlertRules::parse(
            "# comment\n\
             \n\
             threshold name=a metric=retries op=ge value=5 for=2 clear=1 clear-for=2 cooldown=4\n\
             rate name=b metric=delivered op=lt value=-10\n\
             anomaly name=c metric=setup-max-ns z=3 alpha=0.5 warmup=4\n",
        )
        .unwrap();
        assert_eq!(rules.len(), 3);
        assert_eq!(rules.rules[0].raise_for, 2);
        assert_eq!(rules.rules[0].cooldown, 4);
        assert!(matches!(rules.rules[1].kind, RuleKind::Rate { value: -10 }));
        assert!(matches!(rules.rules[2].kind, RuleKind::Anomaly { .. }));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err =
            AlertRules::parse("# fine\nthreshold name=a metric=bogus op=gt value=1\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.msg.contains("unknown metric"), "{}", err.msg);
        let msg = err.to_string();
        assert!(msg.contains("line 2") && msg.contains("bogus"), "{msg}");

        let err = AlertRules::parse("nonsense name=x metric=retries\n").unwrap_err();
        assert!(err.msg.contains("unknown directive"), "{}", err.msg);

        let err = AlertRules::parse(
            "threshold name=x metric=retries op=gt value=1\n\
             threshold name=x metric=denied op=gt value=1\n",
        )
        .unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.msg.contains("duplicate"), "{}", err.msg);
    }

    #[test]
    fn threshold_hysteresis_and_cooldown() {
        let rules = AlertRules::parse(
            "threshold name=r metric=retries op=ge value=5 for=2 clear-for=2 cooldown=2\n",
        )
        .unwrap();
        let mut eng = AlertEngine::new(rules);
        let mut out = Vec::new();
        // One breaching window is not enough (for=2).
        eng.on_snapshot(&snap(0, 9), &mut out);
        assert!(out.is_empty());
        eng.on_snapshot(&snap(1, 9), &mut out);
        assert_eq!(raises_and_clears(&out), (1, 0), "raised on 2nd breach");
        assert_eq!(eng.active_rules(), vec![0]);
        // One quiet window is not enough to clear (clear-for=2).
        eng.on_snapshot(&snap(2, 0), &mut out);
        assert_eq!(raises_and_clears(&out), (1, 0));
        eng.on_snapshot(&snap(3, 0), &mut out);
        assert_eq!(raises_and_clears(&out), (1, 1), "cleared on 2nd quiet");
        // Cooldown: the next two breaching windows cannot re-raise...
        eng.on_snapshot(&snap(4, 9), &mut out);
        eng.on_snapshot(&snap(5, 9), &mut out);
        assert_eq!(raises_and_clears(&out), (1, 1));
        // ...after which two more breaches raise again.
        eng.on_snapshot(&snap(6, 9), &mut out);
        eng.on_snapshot(&snap(7, 9), &mut out);
        assert_eq!(raises_and_clears(&out), (2, 1));
    }

    #[test]
    fn threshold_clear_level_is_separate() {
        // Raise at >=5, clear only once it drops below 2.
        let rules =
            AlertRules::parse("threshold name=r metric=retries op=ge value=5 clear=2\n").unwrap();
        let mut eng = AlertEngine::new(rules);
        let mut out = Vec::new();
        eng.on_snapshot(&snap(0, 6), &mut out);
        assert_eq!(raises_and_clears(&out), (1, 0));
        // 3 is below the raise level but still >= clear level 2: no clear.
        eng.on_snapshot(&snap(1, 3), &mut out);
        assert_eq!(raises_and_clears(&out), (1, 0));
        eng.on_snapshot(&snap(2, 1), &mut out);
        assert_eq!(raises_and_clears(&out), (1, 1));
    }

    #[test]
    fn rate_rule_fires_on_signed_delta() {
        let rules = AlertRules::parse("rate name=d metric=delivered op=le value=-3\n").unwrap();
        let mut eng = AlertEngine::new(rules);
        let mut out = Vec::new();
        let mk = |seq: u32, delivered: u32| Snapshot {
            t_ns: (seq as u64 + 1) * 1000,
            slot: 0,
            window: MetricsWindow {
                seq,
                delivered,
                ..MetricsWindow::default()
            },
        };
        eng.on_snapshot(&mk(0, 10), &mut out); // no previous window yet
        eng.on_snapshot(&mk(1, 9), &mut out); // delta -1: fine
        assert!(out.is_empty());
        eng.on_snapshot(&mk(2, 4), &mut out); // delta -5: fires
        assert_eq!(raises_and_clears(&out), (1, 0));
        match out[0].event {
            TraceEvent::AlertRaised {
                value, threshold, ..
            } => {
                assert_eq!(value as i64, -5, "delta is two's-complement encoded");
                assert_eq!(threshold as i64, -3);
            }
            _ => panic!("expected raise"),
        }
    }

    #[test]
    fn anomaly_rule_needs_warmup_then_fires_on_spike() {
        let rules =
            AlertRules::parse("anomaly name=s metric=setup-max-ns z=3 alpha=0.25 warmup=4\n")
                .unwrap();
        let mut eng = AlertEngine::new(rules);
        let mut out = Vec::new();
        let mk = |seq: u32, setup_max: u64| Snapshot {
            t_ns: (seq as u64 + 1) * 1000,
            slot: 0,
            window: MetricsWindow {
                seq,
                setups: 1,
                setup_total_ns: setup_max,
                setup_max_ns: setup_max,
                ..MetricsWindow::default()
            },
        };
        // Steady 100 ns setups through warmup and beyond.
        for i in 0..8 {
            eng.on_snapshot(&mk(i, 100), &mut out);
        }
        assert!(out.is_empty(), "steady series never fires");
        eng.on_snapshot(&mk(8, 100_000), &mut out);
        assert_eq!(raises_and_clears(&out), (1, 0), "spike fires");
    }

    #[test]
    fn replay_matches_live_stream() {
        let rules = AlertRules::parse(
            "threshold name=r metric=retries op=ge value=3 for=2 clear-for=2 cooldown=1\n\
             rate name=d metric=delivered op=lt value=0\n",
        )
        .unwrap();
        let pattern = [0u32, 5, 5, 5, 0, 0, 4, 4, 0, 0, 0, 7];
        let snaps: Vec<Snapshot> = pattern
            .iter()
            .enumerate()
            .map(|(i, &r)| Snapshot {
                t_ns: (i as u64 + 1) * 1000,
                slot: 0,
                window: MetricsWindow {
                    seq: i as u32,
                    retries: r,
                    delivered: 10 - r.min(9),
                    ..MetricsWindow::default()
                },
            })
            .collect();
        // Live: engine fed snapshot by snapshot, records interleaved.
        let mut live_records: Vec<TraceRecord> = Vec::new();
        let mut eng = AlertEngine::new(rules.clone());
        for s in &snaps {
            live_records.push(s.to_record());
            eng.on_snapshot(s, &mut live_records);
        }
        let live_alerts: Vec<TraceRecord> = live_records
            .iter()
            .filter(|r| {
                matches!(
                    r.event,
                    TraceEvent::AlertRaised { .. } | TraceEvent::AlertCleared { .. }
                )
            })
            .cloned()
            .collect();
        assert!(!live_alerts.is_empty(), "pattern must exercise the rules");
        assert_eq!(replay_alerts(&live_records, &rules), live_alerts);
    }

    #[test]
    fn default_flight_rules_parse_and_cover_abandonment() {
        let rules = AlertRules::default_flight();
        assert_eq!(rules.len(), 2);
        let mut eng = AlertEngine::new(rules);
        let mut out = Vec::new();
        let s = Snapshot {
            t_ns: 1000,
            slot: 0,
            window: MetricsWindow {
                seq: 0,
                abandoned: 1,
                ..MetricsWindow::default()
            },
        };
        eng.on_snapshot(&s, &mut out);
        assert_eq!(raises_and_clears(&out), (1, 0), "abandonment fires");
    }
}

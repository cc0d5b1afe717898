//! Metrics: named counters and log2-bucket histograms.
//!
//! The hot path is integer-only: recording a latency is a `leading_zeros`
//! plus an array increment, and counters are plain `u64` adds addressed
//! by pre-registered handles (no string hashing per event).

use crate::json::Json;

/// Number of histogram buckets: bucket `i` holds values whose bit length
/// is `i`, i.e. `[2^(i-1), 2^i)` for `i >= 1` and `{0}` for bucket 0.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-bucket log2 histogram of `u64` samples.
///
/// Quantiles are answered by nearest-rank over the buckets, returning the
/// geometric midpoint of the selected bucket — at most a 2x relative
/// error, which is exactly the trade documented on
/// [`SimStats::latency_quantile_ns`](../pms_sim) for large runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Bucket index for a value: its bit length.
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Records one sample. Integer-only; never allocates.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank quantile approximated from the buckets.
    ///
    /// Returns the geometric midpoint of the bucket holding the rank,
    /// clamped to the observed `[min, max]`.
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.count == 0 {
            return 0;
        }
        // Nearest-rank: the smallest value whose cumulative count reaches
        // ceil(q * count), with rank at least 1.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let mid = bucket_midpoint(i);
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(bucket_upper_bound_inclusive, cumulative
    /// count)` pairs — the shape Prometheus histogram `le` series want.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            cum += n;
            // Bucket i holds [2^(i-1), 2^i), so the inclusive upper
            // bound is 2^i - 1 (and bucket 0 holds exactly {0}).
            let upper = match i {
                0 => 0,
                64 => u64::MAX,
                _ => (1u64 << i) - 1,
            };
            out.push((upper, cum));
        }
        out
    }

    /// Non-empty buckets as `(bucket_lower_bound, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (bucket_lower_bound(i), n))
            .collect()
    }

    /// JSON summary of the histogram.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("count", self.count.into()),
            ("sum", self.sum.into()),
            ("min", self.min().into()),
            ("max", self.max.into()),
            ("mean", self.mean().into()),
            (
                "buckets",
                Json::Array(
                    self.nonzero_buckets()
                        .into_iter()
                        .map(|(lo, n)| Json::Array(vec![lo.into(), n.into()]))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Inclusive lower bound of bucket `i`.
fn bucket_lower_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        _ => 1u64 << (i - 1),
    }
}

/// Geometric midpoint of bucket `i` (integer approximation).
fn bucket_midpoint(i: usize) -> u64 {
    match i {
        0 => 0,
        1 => 1,
        // [2^(i-1), 2^i): midpoint 1.5 * 2^(i-1) = 3 * 2^(i-2).
        _ => 3u64 << (i - 2),
    }
}

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// A registry of named counters and histograms.
///
/// Names are resolved once at registration; the hot path works through
/// integer handles.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: Vec<(String, u64)>,
    histograms: Vec<(String, Histogram)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Registers (or finds) a counter by name.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(i) = self.counters.iter().position(|(n, _)| n == name) {
            return CounterId(i);
        }
        self.counters.push((name.to_string(), 0));
        CounterId(self.counters.len() - 1)
    }

    /// Registers (or finds) a histogram by name.
    pub fn histogram(&mut self, name: &str) -> HistogramId {
        if let Some(i) = self.histograms.iter().position(|(n, _)| n == name) {
            return HistogramId(i);
        }
        self.histograms.push((name.to_string(), Histogram::new()));
        HistogramId(self.histograms.len() - 1)
    }

    /// Adds to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, delta: u64) {
        self.counters[id.0].1 += delta;
    }

    /// Increments a counter by one.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Sets a counter to an absolute value (for importing aggregates).
    pub fn set(&mut self, id: CounterId, value: u64) {
        self.counters[id.0].1 = value;
    }

    /// Replaces a histogram with `h` (for importing aggregates).
    pub fn set_histogram(&mut self, id: HistogramId, h: Histogram) {
        self.histograms[id.0].1 = h;
    }

    /// Records a histogram sample.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, value: u64) {
        self.histograms[id.0].1.record(value);
    }

    /// Reads a counter by name, if registered.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Reads a histogram by name, if registered.
    pub fn histogram_values(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// All counters in registration order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// Renders the registry in the Prometheus text exposition format
    /// (version 0.0.4), with every series carrying the given label set.
    ///
    /// Dotted registry names become `pms_`-prefixed underscore names
    /// (`sim.delivered_messages` → `pms_sim_delivered_messages`), all
    /// counters render as `counter`, and log2 histograms render as
    /// cumulative `le` bucket series (inclusive upper bound of each
    /// non-empty bucket) plus `_sum`/`_count`. Deterministic: series
    /// appear in registration order, labels in the given order.
    pub fn to_prometheus(&self, labels: &[(&str, String)]) -> String {
        let label_str = render_labels(labels);
        let mut out = String::new();
        for (name, value) in &self.counters {
            let pname = prometheus_name(name);
            out.push_str(&format!("# TYPE {pname} counter\n"));
            out.push_str(&format!("{pname}{label_str} {value}\n"));
        }
        for (name, h) in &self.histograms {
            let pname = prometheus_name(name);
            out.push_str(&format!("# TYPE {pname} histogram\n"));
            for (le, cum) in h.cumulative_buckets() {
                out.push_str(&format!(
                    "{pname}_bucket{} {cum}\n",
                    render_labels_with(labels, "le", &le.to_string())
                ));
            }
            out.push_str(&format!(
                "{pname}_bucket{} {}\n",
                render_labels_with(labels, "le", "+Inf"),
                h.count()
            ));
            out.push_str(&format!("{pname}_sum{label_str} {}\n", h.sum()));
            out.push_str(&format!("{pname}_count{label_str} {}\n", h.count()));
        }
        out
    }

    /// JSON object with a `counters` map and a `histograms` map.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "counters",
                Json::Object(
                    self.counters
                        .iter()
                        .map(|(n, v)| (n.clone(), Json::UInt(*v)))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Object(
                    self.histograms
                        .iter()
                        .map(|(n, h)| (n.clone(), h.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// The Prometheus content type the text exposition format declares.
pub const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Maps a dotted registry name onto a valid Prometheus metric name:
/// `pms_` prefix, every non-`[a-zA-Z0-9_:]` byte replaced by `_`.
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("pms_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escapes a label value per the text format (backslash, quote, newline).
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn render_labels(labels: &[(&str, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn render_labels_with(labels: &[(&str, String)], extra_key: &str, extra_val: &str) -> String {
    let mut body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    body.push(format!("{extra_key}=\"{}\"", escape_label(extra_val)));
    format!("{{{}}}", body.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing_is_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histogram_tracks_count_sum_min_max() {
        let mut h = Histogram::new();
        for v in [5u64, 100, 3, 77] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 185);
        assert_eq!(h.min(), 3);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 46.25).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn quantiles_are_within_a_bucket() {
        let mut h = Histogram::new();
        // 1000 samples at exactly 600 ns: any quantile must come back in
        // 600's bucket [512, 1024), clamped to [600, 600].
        for _ in 0..1000 {
            h.record(600);
        }
        assert_eq!(h.quantile(0.0), 600);
        assert_eq!(h.quantile(0.5), 600);
        assert_eq!(h.quantile(1.0), 600);
    }

    #[test]
    fn quantiles_order_buckets_correctly() {
        let mut h = Histogram::new();
        for _ in 0..90 {
            h.record(10);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!(p50 < 16, "p50 = {p50} should sit in 10's bucket");
        assert!(p99 >= 524_288, "p99 = {p99} should sit in 1e6's bucket");
        assert!(h.quantile(1.0) <= h.max());
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn quantile_range_is_enforced() {
        Histogram::new().quantile(1.5);
    }

    #[test]
    fn registry_counters_and_histograms() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("sched.passes");
        let c2 = reg.counter("sched.passes");
        assert_eq!(c, c2, "same name must return the same handle");
        reg.inc(c);
        reg.add(c, 4);
        assert_eq!(reg.counter_value("sched.passes"), Some(5));
        assert_eq!(reg.counter_value("missing"), None);

        let h = reg.histogram("latency_ns");
        reg.observe(h, 300);
        reg.observe(h, 700);
        assert_eq!(reg.histogram_values("latency_ns").unwrap().count(), 2);

        let js = reg.to_json().render();
        assert!(js.contains(r#""sched.passes":5"#), "{js}");
        assert!(js.contains(r#""latency_ns""#));
    }

    #[test]
    fn prometheus_names_are_sanitized() {
        assert_eq!(
            prometheus_name("sim.delivered_messages"),
            "pms_sim_delivered_messages"
        );
        assert_eq!(
            prometheus_name("prof.sl_pass.calls"),
            "pms_prof_sl_pass_calls"
        );
    }

    #[test]
    fn cumulative_buckets_accumulate() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(3);
        h.record(3);
        h.record(600);
        let cum = h.cumulative_buckets();
        // {0} -> 1, [2,4) -> 3 cumulative, [512,1024) -> 4 cumulative.
        assert_eq!(cum, vec![(0, 1), (3, 3), (1023, 4)]);
    }

    #[test]
    fn prometheus_text_renders_counters_and_histograms() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("sim.delivered_messages");
        reg.add(c, 7);
        let h = reg.histogram("sim.latency_ns");
        reg.observe(h, 600);
        reg.observe(h, 700);
        let labels = [
            ("paradigm", "dynamic".to_string()),
            ("ports", "128".to_string()),
            ("k", "4".to_string()),
        ];
        let text = reg.to_prometheus(&labels);
        assert!(
            text.contains("# TYPE pms_sim_delivered_messages counter"),
            "{text}"
        );
        assert!(
            text.contains(
                "pms_sim_delivered_messages{paradigm=\"dynamic\",ports=\"128\",k=\"4\"} 7"
            ),
            "{text}"
        );
        assert!(
            text.contains("# TYPE pms_sim_latency_ns histogram"),
            "{text}"
        );
        assert!(
            text.contains(
                "pms_sim_latency_ns_bucket{paradigm=\"dynamic\",ports=\"128\",k=\"4\",le=\"1023\"} 2"
            ),
            "{text}"
        );
        assert!(
            text.contains(
                "pms_sim_latency_ns_bucket{paradigm=\"dynamic\",ports=\"128\",k=\"4\",le=\"+Inf\"} 2"
            ),
            "{text}"
        );
        assert!(text.contains("pms_sim_latency_ns_sum"), "{text}");
        assert!(
            text.ends_with('\n') && !text.contains("\n\n"),
            "clean line-oriented output: {text:?}"
        );
    }

    #[test]
    fn prometheus_label_values_are_escaped() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("x");
        reg.inc(c);
        let labels = [("weird", "a\"b\\c".to_string())];
        let text = reg.to_prometheus(&labels);
        assert!(text.contains("pms_x{weird=\"a\\\"b\\\\c\"} 1"), "{text}");
    }

    #[test]
    fn prometheus_without_labels_has_no_braces() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("plain");
        reg.add(c, 3);
        let text = reg.to_prometheus(&[]);
        assert!(text.contains("pms_plain 3\n"), "{text}");
    }
}

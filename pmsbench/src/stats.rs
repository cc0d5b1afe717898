//! Order statistics and the metric-name grammar.

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles, interpolated the way Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), so
/// the spreads this program reports match the ones a reader computes
/// from its output.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    // CPython's loop for n = 4 cut points, i = 1 and 3: j is the 1-based
    // lower neighbour of position i * (len + 1) / 4, clamped to the data,
    // and delta / 4 the interpolation weight (negative when clamped).
    let at = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Nearest-rank percentile (`pct` in (0, 100]) of an ascending slice; 0
/// for an empty one. The rank is computed in integer hundredths so p99
/// of 100 samples is exactly the 99th.
pub fn percentile_sorted(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let hundredths = (pct * 100.0).round() as u128;
    let rank = (hundredths * sorted.len() as u128).div_ceil(10_000).max(1) as usize;
    sorted[rank - 1]
}

/// The candidate tail percentiles, highest first.
const TAIL_PERCENTILES: [f64; 3] = [99.9, 99.0, 90.0];

/// The highest percentile of [`TAIL_PERCENTILES`] that leaves at least
/// ten samples beyond it, so a tail is never one or two lucky samples:
/// p90 for 243 samples, p99 from 1000 samples, p99.9 from 10 000. `None`
/// below 100 samples.
pub fn tail_percentile(samples: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .into_iter()
        .find(|&p| samples as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
}

#[cfg(test)]
/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 3.5));
        assert_eq!(quartiles(&[2.0]), (2.0, 2.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50);
        assert_eq!(percentile_sorted(&v, 99.0), 99);
        assert_eq!(percentile_sorted(&v, 100.0), 100);
        assert_eq!(percentile_sorted(&v, 99.9), 100);
        assert_eq!(percentile_sorted(&[], 99.0), 0);
        assert_eq!(percentile_sorted(&[5], 1.0), 5);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(243), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn metric_name_grammar() {
        for ok in ["wall_s", "sched.sl_pass.est_s", "par.laneN_s", "1s", "a-b"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".x", "_x", "a b", "a/b", "μs", long.as_str()] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
    }
}

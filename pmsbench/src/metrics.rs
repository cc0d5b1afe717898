//! The metric catalogue and the result line.
//!
//! Every workload prints the same metric names: an untraced run prints
//! [`END_TO_END`], a traced run prints [`PER_LAYER`]. A per-layer value
//! the workload never touches (say `admit.fifo_s` on `paper128`) prints
//! as 0, which is what it measures. `BENCHMARK.json` lists the same
//! names; the drift test in `main.rs` keeps the two in step.

use pms_trace::Json;
use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("efficiency", "ratio"),
    ("latency_mean_ns", "ns"),
];

/// Per-layer metrics of a traced run: `(name, unit)`. Times are host
/// seconds per round unless the name says otherwise.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.build_s", "s"),
    ("cell.ms_p50", "ms"),
    ("cell.ms_tail", "ms"),
    ("sim.wormhole_s", "s"),
    ("sim.circuit_s", "s"),
    ("sim.dynamic_tdm_s", "s"),
    ("sim.preload_tdm_s", "s"),
    ("sim.hybrid_tdm_s", "s"),
    ("sim.mstdm_crossbar_s", "s"),
    ("sim.mstdm_omega_s", "s"),
    ("sim.mstdm_butterfly_s", "s"),
    ("sim.mstdm_fattree_s", "s"),
    ("sim.sched_passes", "count"),
    ("sim.connections_established", "count"),
    ("sim.predictor_evictions", "count"),
    ("sim.preload_loads", "count"),
    ("sim.ws_hit_rate", "ratio"),
    ("sim.latency_p99_ns", "ns"),
    ("sim.idle_scan.calls", "count"),
    ("sim.idle_scan.words", "count"),
    ("sched.sl_pass.calls", "count"),
    ("sched.sl_pass.words", "count"),
    ("sched.sl_pass.mean_ns", "ns"),
    ("sched.sl_pass.est_s", "s"),
    ("bitmat.reduce.calls", "count"),
    ("bitmat.reduce.words", "count"),
    ("bitmat.reduce.mean_ns", "ns"),
    ("bitmat.reduce.est_s", "s"),
    ("multistage.route_dfs.calls", "count"),
    ("multistage.route_dfs.words", "count"),
    ("multistage.route_dfs.mean_ns", "ns"),
    ("multistage.route_dfs.est_s", "s"),
    ("multistage.route_share", "ratio"),
    ("par.lane1_s", "s"),
    ("par.laneN_s", "s"),
    ("par.speedup", "ratio"),
    ("trace.null_s", "s"),
    ("trace.vec_s", "s"),
    ("trace.pipeline_s", "s"),
    ("trace.tap_overhead", "ratio"),
    ("trace.pipeline_overhead", "ratio"),
    ("trace.records", "count"),
    ("trace.jsonl_write_s", "s"),
    ("trace.jsonl_mb", "MiB"),
    ("analyze.read_s", "s"),
    ("analyze.parse_s", "s"),
    ("analyze.report_s", "s"),
    ("analyze.render_s", "s"),
    ("analyze.occupancy_s", "s"),
    ("analyze.heatmap_s", "s"),
    ("analyze.churn_s", "s"),
    ("analyze.contention_s", "s"),
    ("analyze.spans_s", "s"),
    ("analyze.timeseries_s", "s"),
    ("analyze.alerts_s", "s"),
    ("analyze.faults_s", "s"),
    ("span.arrival_p99_ns", "ns"),
    ("span.admit_p99_ns", "ns"),
    ("span.align_p99_ns", "ns"),
    ("span.transfer_p99_ns", "ns"),
    ("admit.fifo_s", "s"),
    ("admit.pifo_s", "s"),
    ("admit.strict_s", "s"),
    ("admit.ratelimited_s", "s"),
    ("admit.batch1_s", "s"),
    ("admit.batches", "count"),
    ("admit.mean_batch_fill", "ratio"),
    ("admit.peak_queue", "count"),
    ("admit.rejected_queue_full", "count"),
    ("admit.rejected_expired", "count"),
    ("admit.evicted", "count"),
    ("admit.wait_p99_400_ns", "ns"),
    ("admit.capacity_rps", "1/s"),
    ("unattributed_s", "s"),
    ("traced.wall_s", "s"),
];

/// Metric values by name. Names outside the catalogue are a bug in this
/// program, so setting one panics.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Sets `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    /// Adds `value` to `name` (starting from 0).
    pub fn add(&mut self, name: &'static str, value: f64) {
        let sum = self.get(name) + value;
        self.set(name, sum);
    }

    /// The value of `name`, 0 when unset.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// The `catalogue`'s metrics as the result line's `metrics` object.
    pub fn to_json(&self, catalogue: &[(&'static str, &'static str)]) -> Json {
        Json::Object(
            catalogue
                .iter()
                .map(|&(name, unit)| {
                    let value = Json::obj([
                        ("value", Json::Float(self.get(name))),
                        ("unit", Json::str(unit)),
                    ]);
                    (name.to_string(), value)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_metric_name;

    #[test]
    fn catalogue_names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_metric_name(name), "{name}");
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(!unit.is_empty() && unit.len() <= 16, "{name}: {unit}");
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn unknown_metric_panics() {
        Metrics::default().set("no_such_metric", 1.0);
    }
}

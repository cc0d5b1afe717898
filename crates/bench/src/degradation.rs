//! Graceful-degradation sweep: efficiency versus fault duty cycle.
//!
//! The sweep injects periodic whole-fabric blackout windows — every
//! ordered link goes down for `duty`% of each period — and measures the
//! efficiency each switching paradigm retains. The plan is fully
//! scripted, so the curve is deterministic and CI can assert its shape:
//! efficiency falls monotonically as the duty cycle grows, for every
//! paradigm (graceful degradation, not collapse).

use pms_faults::{FaultKind, FaultPlan};
use pms_sim::{Paradigm, SimParams, SimStats};
use pms_trace::{Snapshot, SnapshotConfig, Tracer, DEFAULT_WINDOW_SLOTS};
use pms_workloads::Workload;

/// A periodic blackout plan: every ordered link `(u, v)` is down for
/// `duty_pct`% of each `period_ns` window, starting at time zero. A
/// zero duty cycle yields an empty plan (the no-fault baseline).
///
/// # Panics
/// Panics unless `duty_pct < 100` (the clean remainder of each period
/// is what lets queued traffic drain).
pub fn blackout_plan(ports: u32, duty_pct: u64, period_ns: u64) -> FaultPlan {
    assert!(duty_pct < 100, "a 100% duty cycle never heals");
    let mut plan = FaultPlan::new();
    if duty_pct == 0 {
        return plan;
    }
    let duration_ns = period_ns * duty_pct / 100;
    for u in 0..ports {
        for v in 0..ports {
            if u != v {
                plan.push_periodic(
                    0,
                    duration_ns,
                    period_ns,
                    FaultKind::LinkDown { src: u, dst: v },
                );
            }
        }
    }
    plan
}

/// One sweep row: the duty cycle and each paradigm's results at it.
#[derive(Debug, Clone)]
pub struct DegradationRow {
    /// Blackout duty cycle in percent.
    pub duty_pct: u64,
    /// Per-paradigm results, in the order the paradigms were given.
    pub cells: Vec<(String, SimStats)>,
}

/// Runs the blackout sweep, every paradigm at every duty cycle, fanned
/// over `threads` lanes. Each `(duty, paradigm)` cell is an independent
/// deterministic run; results come back in job order, so the rows are
/// identical at any lane count.
pub fn degradation_sweep(
    workload: &Workload,
    params: &SimParams,
    paradigms: &[Paradigm],
    duties: &[u64],
    period_ns: u64,
    threads: usize,
) -> Vec<DegradationRow> {
    let jobs: Vec<(u64, Paradigm)> = duties
        .iter()
        .flat_map(|&d| paradigms.iter().map(move |p| (d, p.clone())))
        .collect();
    let cells = crate::runner::run_cells(threads, jobs, |_, (duty_pct, p)| {
        let plan = blackout_plan(workload.ports as u32, duty_pct, period_ns);
        let (stats, _) = p.run_faulted(workload, params, plan, Tracer::Null);
        (p.label(), stats)
    });
    duties
        .iter()
        .zip(cells.chunks(paradigms.len().max(1)))
        .map(|(&duty_pct, row)| DegradationRow {
            duty_pct,
            cells: row.to_vec(),
        })
        .collect()
}

/// One emitted snapshot window of a paradigm's run under blackout
/// faults, with the window's link efficiency attached.
#[derive(Debug, Clone)]
pub struct DegradationWindow {
    /// Paradigm label.
    pub paradigm: String,
    /// Blackout duty cycle in percent.
    pub duty_pct: u64,
    /// The raw metrics-snapshot window.
    pub snap: Snapshot,
    /// Delivered bytes over the window's link capacity
    /// (`window_ns * active_senders * rate`). The sealed final window
    /// may cover less simulated time than a full window, so its value
    /// is a lower bound.
    pub efficiency: f64,
}

/// Runs every paradigm once at `duty_pct` with the snapshot pipeline
/// attached and returns the per-window time series: how efficiency and
/// fault exposure evolve over slot windows, not just end-to-end.
pub fn degradation_timeseries(
    workload: &Workload,
    params: &SimParams,
    paradigms: &[Paradigm],
    duty_pct: u64,
    period_ns: u64,
) -> Vec<DegradationWindow> {
    let cfg = SnapshotConfig::per_slots(params.slot_ns, DEFAULT_WINDOW_SLOTS);
    let rate = params.link.bytes_per_ns();
    let mut out = Vec::new();
    for p in paradigms {
        let plan = blackout_plan(workload.ports as u32, duty_pct, period_ns);
        let tracer = Tracer::pipeline(cfg, None, Tracer::Null);
        let (stats, tracer) = p.run_faulted(workload, params, plan, tracer);
        let capacity = cfg.window_ns as f64 * stats.active_senders.max(1) as f64 * rate;
        for snap in tracer.snapshots() {
            out.push(DegradationWindow {
                paradigm: p.label(),
                duty_pct,
                snap,
                efficiency: snap.bytes as f64 / capacity,
            });
        }
    }
    out
}

/// Renders the per-window series as CSV, one row per emitted window.
pub fn degradation_timeseries_csv(rows: &[DegradationWindow]) -> String {
    let mut out = String::from(
        "paradigm,duty_pct,seq,t_ns,delivered,bytes,faults_injected,faults_cleared,\
         retries,abandoned,efficiency\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{:.6}\n",
            r.paradigm,
            r.duty_pct,
            r.snap.seq,
            r.snap.t_ns,
            r.snap.delivered,
            r.snap.bytes,
            r.snap.faults_injected,
            r.snap.faults_cleared,
            r.snap.retries,
            r.snap.abandoned,
            r.efficiency
        ));
    }
    out
}

/// Renders the sweep as a duty-cycle x paradigm efficiency table.
pub fn render_degradation(rows: &[DegradationRow], rate: f64) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:>8}", "duty%"));
    if let Some(first) = rows.first() {
        for (label, _) in &first.cells {
            out.push_str(&format!(" {label:>14}"));
        }
    }
    out.push('\n');
    for row in rows {
        out.push_str(&format!("{:>8}", row.duty_pct));
        for (_, stats) in &row.cells {
            out.push_str(&format!(" {:>13.1}%", stats.efficiency(rate) * 100.0));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pms_sim::PredictorKind;
    use pms_workloads::scatter;

    #[test]
    fn zero_duty_is_an_empty_plan() {
        assert!(blackout_plan(8, 0, 2_000).is_empty());
        let p = blackout_plan(4, 50, 2_000);
        assert_eq!(p.faults.len(), 12, "all ordered links");
        assert!(p.faults.iter().all(|f| f.duration_ns == 1_000));
    }

    #[test]
    fn efficiency_loss_is_monotone_in_fault_rate_for_all_paradigms() {
        let w = scatter(8, 128);
        let mut params = SimParams::default().with_ports(8);
        params.tdm_slots = 8;
        params.max_sim_ns = 1_000_000;
        let paradigms = [
            Paradigm::Wormhole,
            Paradigm::Circuit,
            Paradigm::DynamicTdm(PredictorKind::Drop),
            Paradigm::PreloadTdm,
        ];
        let duties = [0, 30, 60];
        let rows = degradation_sweep(&w, &params, &paradigms, &duties, 2_000, 1);
        let rate = params.link.bytes_per_ns();
        for (col, (label, _)) in rows[0].cells.iter().enumerate() {
            let effs: Vec<f64> = rows
                .iter()
                .map(|r| r.cells[col].1.efficiency(rate))
                .collect();
            for pair in effs.windows(2) {
                assert!(
                    pair[1] <= pair[0] + 1e-9,
                    "{label}: efficiency rose with fault rate: {effs:?}"
                );
            }
            assert!(
                effs[duties.len() - 1] < effs[0],
                "{label}: no loss at 60% duty: {effs:?}"
            );
            // Degradation stays graceful: everything still gets delivered.
            for r in &rows {
                assert_eq!(r.cells[col].1.delivered_messages, 7, "{label}");
            }
        }
        let text = render_degradation(&rows, rate);
        assert!(text.contains("wormhole") && text.contains("preload-tdm"));
    }

    #[test]
    fn timeseries_tracks_fault_exposure_per_window() {
        let w = scatter(8, 128);
        let mut params = SimParams::default().with_ports(8);
        params.tdm_slots = 8;
        params.max_sim_ns = 1_000_000;
        let paradigms = [Paradigm::Wormhole, Paradigm::PreloadTdm];
        let rows = degradation_timeseries(&w, &params, &paradigms, 30, 2_000);
        assert!(!rows.is_empty(), "no snapshot windows emitted");
        for p in ["wormhole", "preload-tdm"] {
            assert!(rows.iter().any(|r| r.paradigm == p), "missing {p}");
        }
        // Faults were actually observed window-by-window, and every
        // window's efficiency is a sane fraction.
        assert!(rows.iter().any(|r| r.snap.faults_injected > 0));
        for r in &rows {
            assert!(
                (0.0..=1.0 + 1e-9).contains(&r.efficiency),
                "window efficiency out of range: {:?}",
                r
            );
        }
        // Determinism: the same sweep yields the identical CSV.
        let again = degradation_timeseries(&w, &params, &paradigms, 30, 2_000);
        assert_eq!(
            degradation_timeseries_csv(&rows),
            degradation_timeseries_csv(&again)
        );
    }
}

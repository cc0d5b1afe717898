//! Graceful-degradation sweep: efficiency versus blackout duty cycle
//! for all four switching paradigms (see `pms_bench::degradation`).
//!
//! ```text
//! cargo run --release -p pms-bench --bin degradation [--ports N] [--bytes B]
//!     [--timeseries-csv OUT.csv] [--duty D]
//! ```
//!
//! Every ordered link is taken down for `duty`% of each 2 us period by
//! a scripted `pms-faults` plan; the table shows how much efficiency
//! each paradigm retains. The curve falls monotonically with the duty
//! cycle and all traffic is still delivered — degradation, not loss.
//!
//! `--timeseries-csv` additionally reruns every paradigm at one duty
//! cycle (`--duty`, default 30) with the snapshot pipeline attached and
//! writes the per-window series — efficiency versus fault exposure over
//! slot windows, not just end-to-end.

use pms_bench::{
    degradation_sweep, degradation_timeseries, degradation_timeseries_csv, render_degradation,
};
use pms_sim::{Paradigm, PredictorKind, SimParams};
use pms_trace::cli::{self, die};
use pms_workloads::{build_pattern, DEFAULT_SEED};

const USAGE: &str = "usage: degradation [--ports N] [--bytes B] [--threads N]
                   [--timeseries-csv OUT.csv] [--duty D]";

fn main() {
    let (ports, bytes, timeseries_csv, duty, threads) = cli::parse_env(USAGE, |f| {
        Ok((
            f.get("--ports", 8)?,
            f.get("--bytes", 256)?,
            f.opt::<String>("--timeseries-csv")?,
            f.get("--duty", 30)?,
            f.threads()?,
        ))
    });

    let w = build_pattern("scatter", ports, bytes, None, DEFAULT_SEED)
        .unwrap_or_else(|e| cli::fail(format!("degradation: {e}")));
    let mut params = SimParams::default().with_ports(ports);
    params.tdm_slots = ports.max(2);
    let paradigms = [
        Paradigm::Wormhole,
        Paradigm::Circuit,
        Paradigm::DynamicTdm(PredictorKind::Drop),
        Paradigm::PreloadTdm,
    ];
    let duties = [0, 10, 20, 30, 40, 50, 60];
    let rows = degradation_sweep(&w, &params, &paradigms, &duties, 2_000, threads)
        .unwrap_or_else(|e| cli::fail(format!("degradation: {e}")));
    println!(
        "blackout degradation: {} ({} ports, {} B, 2000 ns period)",
        w.name, ports, bytes
    );
    print!("{}", render_degradation(&rows, params.link.bytes_per_ns()));
    if let Some(path) = timeseries_csv {
        let windows = degradation_timeseries(&w, &params, &paradigms, duty, 2_000)
            .unwrap_or_else(|e| cli::fail(format!("degradation: {e}")));
        std::fs::write(&path, degradation_timeseries_csv(&windows))
            .unwrap_or_else(|e| die(format!("cannot write {path}: {e}")));
        eprintln!(
            "time series  : {} window(s) at {duty}% duty -> {path}",
            windows.len()
        );
    }
}

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
    threads_flag,
};
use pms_sim::{Paradigm, PredictorKind, SimParams};
use pms_workloads::scatter;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str, default: usize| -> usize {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(|v| {
                v.parse().unwrap_or_else(|_| {
                    eprintln!("{name} needs an integer, got `{v}`");
                    std::process::exit(2);
                })
            })
            .unwrap_or(default)
    };
    let string_flag = |name: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    let ports = flag("--ports", 8);
    let bytes = flag("--bytes", 256) as u32;
    let timeseries_csv = string_flag("--timeseries-csv");
    let duty = flag("--duty", 30) as u64;
    let threads = threads_flag(&argv).unwrap_or_else(|e| e.exit());

    let w = scatter(ports, bytes);
    let mut params = SimParams::default().with_ports(ports);
    params.tdm_slots = ports.max(2);
    let paradigms = [
        Paradigm::Wormhole,
        Paradigm::Circuit,
        Paradigm::DynamicTdm(PredictorKind::Drop),
        Paradigm::PreloadTdm,
    ];
    let duties = [0, 10, 20, 30, 40, 50, 60];
    let rows = degradation_sweep(&w, &params, &paradigms, &duties, 2_000, threads);
    println!(
        "blackout degradation: {} ({} ports, {} B, 2000 ns period)",
        w.name, ports, bytes
    );
    print!("{}", render_degradation(&rows, params.link.bytes_per_ns()));
    if let Some(path) = timeseries_csv {
        let windows = degradation_timeseries(&w, &params, &paradigms, duty, 2_000);
        std::fs::write(&path, degradation_timeseries_csv(&windows)).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!(
            "time series  : {} window(s) at {duty}% duty -> {path}",
            windows.len()
        );
    }
}

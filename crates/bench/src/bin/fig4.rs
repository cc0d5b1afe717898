//! Regenerates **Figure 4**: bandwidth efficiency versus message size for
//! Wormhole, Circuit, Dynamic TDM (K=4) and Preload TDM (K=4) on the four
//! test patterns — Scatter, Random Mesh, Ordered Mesh and Two-Phase —
//! on a 128-processor system.
//!
//! ```text
//! cargo run --release -p pms-bench --bin fig4 [--quick]
//! ```
//!
//! `--quick` runs 32 processors with fewer sizes (CI-friendly). Results
//! are printed as tables and written to `results/fig4.json`.
//! `--trace OUT` additionally re-runs one representative cell
//! (Scatter, 64 B, Dynamic TDM) with the event tracer attached and
//! writes a Chrome Trace Event file (or replayable JSONL when the path
//! ends in `.jsonl`); `--report OUT.json` writes the `pms-analyze`
//! report over the same cell's events; `--alerts RULES.txt` evaluates
//! alert rules against the cell's snapshot stream; `--timeseries-csv
//! OUT.csv` exports the cell's per-window metrics series.

use pms_bench::{figures, threads_flag, trace_and_report_flags};
use pms_sim::{Paradigm, PredictorKind};
use pms_workloads::scatter;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let argv: Vec<String> = std::env::args().collect();
    let threads = threads_flag(&argv).unwrap_or_else(|e| e.exit());
    let fig = figures::fig4(quick, threads);
    let (ports, params) = (fig.params.ports, &fig.params);
    let rate = params.link.bytes_per_ns();

    for (name, table) in &fig.tables {
        println!("Figure 4 — {name} (efficiency, {ports} processors, K=4)");
        println!("{}", table.render("msg bytes", rate));
        eprintln!("{name} wall-clock per cell:");
        eprintln!("{}", table.render_wall("msg bytes"));

        // Shape checks from the §5 prose, reported inline.
        if *name == "Scatter" && !quick {
            let e = |b: u64, c: &str| table.efficiency(b, c, rate).unwrap();
            println!(
                "  shape: knee 32->64 B (dynamic-tdm {:.0}% -> {:.0}%), flat 64->2048 ({:.0}% -> {:.0}%), |pre-dyn|@64 = {:.1} pts",
                e(32, "dynamic-tdm") * 100.0,
                e(64, "dynamic-tdm") * 100.0,
                e(64, "dynamic-tdm") * 100.0,
                e(2048, "dynamic-tdm") * 100.0,
                (e(64, "preload-tdm") - e(64, "dynamic-tdm")).abs() * 100.0,
            );
        }
    }

    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/fig4.json", fig.to_json().render_pretty())
        .expect("write results/fig4.json");
    println!("results written to results/fig4.json");

    trace_and_report_flags(&argv, "scatter/64B dynamic-tdm", |tracer| {
        let (_, mut tracer) = Paradigm::DynamicTdm(PredictorKind::Drop).run_traced(
            &scatter(ports, 64),
            params,
            tracer,
        );
        pms_bench::finish(&mut tracer);
        tracer.records()
    });
}

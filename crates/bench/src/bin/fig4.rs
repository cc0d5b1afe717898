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

use pms_bench::{figures, write_results, TraceFlags};
use pms_sim::{Paradigm, PredictorKind, RunSpec};
use pms_trace::cli;
use pms_workloads::scatter;

const USAGE: &str = "usage: fig4 [--quick] [--threads N] [--trace OUT] [--report OUT.json]
            [--alerts RULES.txt] [--timeseries-csv OUT.csv]";

fn main() {
    let (quick, threads, traced) = cli::parse_env(USAGE, |f| {
        Ok((f.switch("--quick"), f.threads()?, TraceFlags::parse(f)?))
    });
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

    write_results("fig4", &fig.to_json());

    let workload = scatter(ports, 64);
    let paradigm = Paradigm::DynamicTdm(PredictorKind::Drop);
    let spec = RunSpec::new(&workload, params.clone(), paradigm);
    traced.run("scatter/64B dynamic-tdm", spec);
}

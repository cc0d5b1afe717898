//! Regenerates **Figure 5**: combining preloaded static patterns with
//! dynamic scheduling. A multiplexing degree of three is used, with `k`
//! slots preloaded (`k` from 0 to 2); the x-axis sweeps the fraction of
//! deterministic traffic from 50 % to 100 %.
//!
//! ```text
//! cargo run --release -p pms-bench --bin fig5 [--quick]
//! ```
//!
//! Efficiencies are averaged over three workload seeds; results are
//! written to `results/fig5.json`.
//! `--trace OUT` additionally re-runs one representative cell
//! (85 % determinism, 1 preloaded slot, seed 1) with the event tracer
//! attached and writes a Chrome Trace Event file (or replayable JSONL
//! when the path ends in `.jsonl`); `--report OUT.json` writes the
//! `pms-analyze` report over the same cell's events; `--alerts
//! RULES.txt` evaluates alert rules against the cell's snapshot stream;
//! `--timeseries-csv OUT.csv` exports the cell's per-window series.

use pms_bench::{figures, threads_flag, trace_and_report_flags};
use pms_sim::{Paradigm, PredictorKind};
use pms_workloads::{hybrid, HybridSpec};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let argv: Vec<String> = std::env::args().collect();
    let threads = threads_flag(&argv).unwrap_or_else(|e| e.exit());
    let fig = figures::fig5(quick, threads);
    let (ports, msgs, params) = (fig.params.ports, fig.msgs, &fig.params);
    for s in &fig.series {
        eprintln!(
            "wall-clock: {}-preload series total-cpu {:.2} ms across {} points, {threads} thread(s)",
            s.k,
            s.wall_ns as f64 / 1e6,
            s.points.len()
        );
    }

    println!("Figure 5 — k-preload / (3-k)-dynamic ({ports} processors, K=3, 64 B msgs)");
    print!("{:>12}", "determinism");
    for s in &fig.series {
        print!(" {:>14}", format!("{}p/{}d", s.k, 3 - s.k));
    }
    println!();
    for (i, &(d, _)) in fig.series[0].points.iter().enumerate() {
        print!("{:>11}%", d);
        for s in &fig.series {
            print!(" {:>13.1}%", s.points[i].1 * 100.0);
        }
        println!();
    }

    // Shape checks from §5.
    let eff = |k: usize, d: u64| {
        fig.series[k]
            .points
            .iter()
            .find(|&&(dd, _)| dd == d)
            .map(|&(_, e)| e)
            .unwrap()
    };
    if !quick {
        println!();
        println!(
            "  shape: 1p vs 0p at 50% determinism: {:+.1} pts (paper: 1-preload wins even at 50%)",
            (eff(1, 50) - eff(0, 50)) * 100.0
        );
        println!(
            "  shape: 2p vs 1p at 85%: {:+.1}% relative (paper: >10% better at >=85%)",
            (eff(2, 85) / eff(1, 85) - 1.0) * 100.0
        );
    }

    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/fig5.json", fig.to_json().render_pretty())
        .expect("write results/fig5.json");
    println!("results written to results/fig5.json");

    trace_and_report_flags(&argv, "hybrid 85%/1p", |tracer| {
        let workload = hybrid(HybridSpec {
            ports,
            determinism: 0.85,
            messages_per_proc: msgs,
            bytes: 64,
            seed: 1,
        });
        let paradigm = Paradigm::HybridTdm {
            preload_slots: 1,
            predictor: PredictorKind::Drop,
        };
        let (_, mut tracer) = paradigm.run_traced(&workload, params, tracer);
        pms_bench::finish(&mut tracer);
        tracer.records()
    });
}

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

use pms_bench::{figures, write_results, TraceFlags};
use pms_sim::{Paradigm, PredictorKind, RunSpec};
use pms_trace::cli;
use pms_workloads::{hybrid, HybridSpec};

const USAGE: &str = "usage: fig5 [--quick] [--threads N] [--trace OUT] [--report OUT.json]
            [--alerts RULES.txt] [--timeseries-csv OUT.csv]";

fn main() {
    let (quick, threads, traced) = cli::parse_env(USAGE, |f| {
        Ok((f.switch("--quick"), f.threads()?, TraceFlags::parse(f)?))
    });
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

    write_results("fig5", &fig.to_json());

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
    let spec = RunSpec::new(&workload, params.clone(), paradigm);
    traced.run("hybrid 85%/1p", spec);
}

//! Cost-aware schedule sweep: submodular solver vs coloring baseline
//! across reconfiguration cost δ, traffic skew, and port count.
//!
//! ```text
//! cargo run --release -p pms-bench --bin schedopt [--quick] [--threads N]
//! ```
//!
//! Every cell solves one seeded skewed datacenter matrix twice — with
//! the Eclipse-style submodular solver and with the duration-annotated
//! greedy-coloring baseline — validates both schedules, then drives each
//! through `TdmSim::with_config_stream` (`K = 1`, `preload_cfg_ns =
//! δ · slot_ns`) to measure *achieved* completion against the cost
//! model's prediction. A scalable-K section pages the submodular entry
//! stream through K registers against `partition_phases`. Results go to
//! `results/schedopt.json`; the file is byte-identical across reruns and
//! `--threads` counts (cells are deterministic and reassembled in job
//! order). `--quick` shrinks the grid for CI.

use pms_bench::figures::{self, schedopt_skews, SCHEDOPT_PAGED_DELTA};
use pms_bench::write_results;
use pms_trace::cli;

fn main() {
    let (quick, threads) = cli::parse_env("usage: schedopt [--quick] [--threads N]", |f| {
        Ok((f.switch("--quick"), f.threads()?))
    });
    let sweep = figures::schedopt(quick, threads);
    let grid = &sweep.grid;
    let (port_counts, deltas, solvers) = (&grid.port_counts, &grid.deltas, grid.solvers);

    // Console table: one block per (ports, skew), rows δ, columns solver.
    for &ports in port_counts {
        for (skew, _) in schedopt_skews(ports) {
            println!("schedopt — {ports} ports, {skew} skew (predicted / simulated µs)");
            print!("{:>8}", "δ slots");
            for s in solvers {
                print!(" {s:>24}");
            }
            println!();
            for &delta in deltas {
                print!("{delta:>8}");
                for s in solvers {
                    let c = sweep
                        .cells
                        .iter()
                        .find(|c| {
                            c.ports == ports && c.skew == skew && c.delta == delta && &c.solver == s
                        })
                        .expect("grid is complete");
                    print!(
                        " {:>11.1} /{:>10.1}",
                        c.predicted_ns as f64 / 1e3,
                        c.simulated_ns as f64 / 1e3
                    );
                }
                println!();
            }
            println!();
        }
    }

    // The headline comparison, checked by `figures::schedopt`: once
    // reconfiguration is expensive (δ ≥ 4), the cost-aware solver does
    // not lose to the duration-oblivious coloring baseline.
    println!("submodular ≤ coloring-greedy on every δ ≥ 4 cell (predicted and simulated)");

    // Scalable-K study: |W| ≫ K paged through the registers, cost-aware
    // pages vs the compiler's phase partition, at a mid-sweep δ.
    println!("scalable-K study (δ = {SCHEDOPT_PAGED_DELTA} slots, makespan in slots)");
    println!(
        "{:>6} {:>6} {:>5} {:>12} {:>12} {:>12} {:>12}",
        "ports", "skew", "K", "|W|", "sub pages", "submodular", "phases"
    );
    for (ports, skew, s) in &sweep.paged {
        println!(
            "{:>6} {:>6} {:>5} {:>12} {:>12} {:>12} {:>12}",
            ports,
            skew,
            s.k,
            s.working_set,
            s.submodular_pages,
            s.submodular_makespan_slots,
            s.phase_makespan_slots
        );
    }
    write_results("schedopt", &sweep.to_json());
}

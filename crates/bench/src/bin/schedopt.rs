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

use pms_bench::figures::{schedopt_demand, schedopt_skews, SchedoptGrid, SCHEDOPT_SEED};
use pms_bench::threads_flag;
use pms_schedopt::{paged_study, CostModel};
use pms_sim::SimParams;
use pms_trace::Json;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let threads = threads_flag(&std::env::args().collect::<Vec<_>>()).unwrap_or_else(|e| e.exit());
    let grid = SchedoptGrid::new(quick);
    let (port_counts, deltas, solvers) = (&grid.port_counts, &grid.deltas, grid.solvers);
    let slot_ns = SimParams::default().slot_ns;
    let cells = grid.run(threads);

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
                    let c = cells
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

    // The headline comparison: once reconfiguration is expensive
    // (δ ≥ 4), the cost-aware solver must not lose to the
    // duration-oblivious coloring baseline — predicted and achieved.
    for c in &cells {
        if c.solver != "submodular" || c.delta < 4 {
            continue;
        }
        let base = cells
            .iter()
            .find(|b| {
                b.solver == "coloring-greedy"
                    && b.ports == c.ports
                    && b.skew == c.skew
                    && b.delta == c.delta
            })
            .expect("baseline cell");
        let ctx = format!("{} ports, {} skew, δ={}", c.ports, c.skew, c.delta);
        assert!(
            c.predicted_ns <= base.predicted_ns,
            "{ctx}: submodular predicted {} > coloring {}",
            c.predicted_ns,
            base.predicted_ns
        );
        assert!(
            c.simulated_ns <= base.simulated_ns,
            "{ctx}: submodular simulated {} > coloring {}",
            c.simulated_ns,
            base.simulated_ns
        );
        // The paper-scale acceptance point is strict.
        if c.ports == 64 {
            assert!(
                c.predicted_ns < base.predicted_ns && c.simulated_ns < base.simulated_ns,
                "{ctx}: expected a strict submodular win"
            );
        }
    }
    println!("submodular ≤ coloring-greedy on every δ ≥ 4 cell (predicted and simulated)");

    // Scalable-K study: |W| ≫ K paged through the registers, cost-aware
    // pages vs the compiler's phase partition, at a mid-sweep δ.
    let paged_delta = 8u64;
    let ks: Vec<usize> = if quick { vec![4] } else { vec![2, 4, 8] };
    let mut paged_json = Vec::new();
    println!("scalable-K study (δ = {paged_delta} slots, makespan in slots)");
    println!(
        "{:>6} {:>6} {:>5} {:>12} {:>12} {:>12} {:>12}",
        "ports", "skew", "K", "|W|", "sub pages", "submodular", "phases"
    );
    for &ports in port_counts {
        for (skew, spec) in schedopt_skews(ports) {
            let demand = schedopt_demand(&spec);
            let cost = CostModel::with_delta(paged_delta);
            for &k in &ks {
                let s = paged_study(&demand, &cost, k);
                assert!(
                    s.working_set > k,
                    "study premise: the working set must exceed K"
                );
                println!(
                    "{:>6} {:>6} {:>5} {:>12} {:>12} {:>12} {:>12}",
                    ports,
                    skew,
                    k,
                    s.working_set,
                    s.submodular_pages,
                    s.submodular_makespan_slots,
                    s.phase_makespan_slots
                );
                paged_json.push(Json::obj([
                    ("ports", ports.into()),
                    ("skew", skew.into()),
                    ("delta_slots", paged_delta.into()),
                    ("k", k.into()),
                    ("working_set", s.working_set.into()),
                    ("submodular_configs", s.submodular_configs.into()),
                    ("submodular_pages", s.submodular_pages.into()),
                    (
                        "submodular_makespan_slots",
                        s.submodular_makespan_slots.into(),
                    ),
                    ("phase_count", s.phase_count.into()),
                    ("phase_configs", s.phase_configs.into()),
                    ("phase_makespan_slots", s.phase_makespan_slots.into()),
                ]));
            }
        }
    }

    let doc = Json::obj([
        ("quick", quick.into()),
        ("seed", SCHEDOPT_SEED.into()),
        ("slot_ns", slot_ns.into()),
        (
            "cells",
            Json::Array(cells.into_iter().map(|c| c.json).collect()),
        ),
        ("paged", Json::Array(paged_json)),
    ]);
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/schedopt.json", doc.render_pretty())
        .expect("write results/schedopt.json");
    println!("results written to results/schedopt.json");
}

//! Ablation studies for the design choices DESIGN.md §6 calls out:
//!
//! 1. **Eviction predictors** (`predictors`) — Drop vs Timeout vs RefCount
//!    on the Fig-4 patterns; includes the paper's Two-Phase claim
//!    ("dynamically scheduled TDM drops below Wormhole"), which holds
//!    under the §3.2 timeout predictor.
//! 2. **Coloring** (`coloring`) — greedy vs exact edge coloring: achieved
//!    multiplexing degree on random working sets.
//! 3. **Priority rotation** (`rotation`) — fairness of the SL array with
//!    and without rotating priority.
//! 4. **Wormhole queueing** (`voq`) — head-of-line blocking cost of the
//!    single-FIFO input versus virtual output queues.
//! 5. **SL units** (`slunits`) — §4 extension 1: one vs several parallel
//!    copies of the scheduling logic.
//!
//! ```text
//! cargo run --release -p pms-bench --bin ablate [all|predictors|coloring|rotation|voq|slunits]
//! ```

use pms_bitmat::BitMatrix;
use pms_compile::{exact_coloring, greedy_coloring, WorkingSet};
use pms_sched::{Scheduler, SchedulerConfig};
use pms_sim::{PredictorKind, SimParams, TdmMode, TdmSim, WormholeQueueing, WormholeSim};
use pms_trace::cli::{self, FlagError};
use pms_workloads::{random_mesh, two_phase, uniform, MeshSpec};
use rand::prelude::*;
use rand::rngs::StdRng;

/// The sections in run order; no argument (or `all`) runs every one.
const SECTIONS: [(&str, fn()); 5] = [
    ("predictors", ablate_predictors),
    ("coloring", ablate_coloring),
    ("rotation", ablate_rotation),
    ("voq", ablate_voq),
    ("slunits", ablate_sl_units),
];

fn main() {
    let usage = "usage: ablate [all|predictors|coloring|rotation|voq|slunits]";
    let which = cli::parse_env(usage, |f| match f.positional() {
        Some(s) if s != "all" && SECTIONS.iter().all(|&(name, _)| name != s) => {
            Err(FlagError::Unexpected(s))
        }
        which => Ok(which.filter(|s| s != "all")),
    });
    for (name, run) in SECTIONS {
        if which.as_ref().is_none_or(|w| w == name) {
            run();
        }
    }
}

fn ablate_sl_units() {
    println!("== Ablation: parallel SL units (extension 1) ==");
    // Churn-heavy traffic: every connection is used once, so scheduling
    // throughput (releases + establishes per SL clock) matters.
    let w = two_phase(MeshSpec::for_ports(128), 64, 4, 500, 100, 23);
    for units in [1usize, 2, 4] {
        let params = SimParams::default().with_sl_units(units);
        let s = TdmSim::new(
            &w,
            &params,
            TdmMode::Dynamic {
                predictor: PredictorKind::Drop,
            },
        )
        .run();
        println!(
            "sl_units={units}: efficiency {:>5.1}%, {} passes, mean latency {:>6.0} ns",
            s.efficiency(0.8) * 100.0,
            s.sched_passes,
            s.mean_latency_ns(),
        );
    }
    println!("extra SL units repopulate drained registers sooner on single-use traffic\n");
}

fn ablate_predictors() {
    println!("== Ablation: eviction predictors (64 B messages, 128 procs, K=4) ==");
    let params = SimParams::default();
    let mesh = MeshSpec::for_ports(128);
    let policies = [
        ("drop", PredictorKind::Drop),
        ("timeout-400", PredictorKind::Timeout(400)),
        ("timeout-1500", PredictorKind::Timeout(1500)),
        ("refcount-64", PredictorKind::RefCount(64)),
    ];
    for (wname, w) in [
        ("random-mesh", random_mesh(mesh, 64, 4, 500, 100, 17)),
        ("two-phase", two_phase(mesh, 64, 16, 500, 100, 11)),
    ] {
        let worm = WormholeSim::new(&w, &params).run();
        println!(
            "{wname:>12}: wormhole = {:5.1}%",
            worm.efficiency(0.8) * 100.0
        );
        for (name, p) in policies {
            let s = TdmSim::new(&w, &params, TdmMode::Dynamic { predictor: p }).run();
            let cmp = if s.efficiency(0.8) < worm.efficiency(0.8) {
                "below wormhole"
            } else {
                "above wormhole"
            };
            println!(
                "{wname:>12}: dynamic-tdm/{name:<12} = {:5.1}%  ({} evictions, {cmp})",
                s.efficiency(0.8) * 100.0,
                s.predictor_evictions,
            );
        }
    }
    println!(
        "paper check: Two-Phase dynamic TDM falls below Wormhole under the\n\
         time-out predictor the paper says its experiments use (SS3.2)."
    );
    println!();
}

fn ablate_coloring() {
    println!("== Ablation: greedy vs exact TDM decomposition ==");
    println!(
        "{:>8} {:>8} {:>6} {:>13} {:>12}",
        "ports", "edges", "delta", "greedy slots", "exact slots"
    );
    let mut rng = StdRng::seed_from_u64(7);
    for ports in [32usize, 64, 128] {
        for edges in [ports, 2 * ports, 4 * ports] {
            let mut ws = WorkingSet::new(ports);
            while ws.len() < edges {
                let u = rng.gen_range(0..ports);
                let v = rng.gen_range(0..ports);
                ws.insert(u, v);
            }
            let g = greedy_coloring(&ws).len();
            let e = exact_coloring(&ws).len();
            assert_eq!(e, ws.max_degree(), "exact coloring must hit delta");
            println!(
                "{ports:>8} {edges:>8} {:>6} {g:>13} {e:>12}",
                ws.max_degree()
            );
        }
    }
    println!("extra slots from greedy = directly lost per-connection bandwidth (1/k each)\n");
}

fn ablate_voq() {
    println!("== Ablation: wormhole input queueing (HOL blocking) ==");
    let params = SimParams::default();
    for (name, w) in [
        ("uniform-128B", uniform(128, 128, 24, 1)),
        (
            "random-mesh-512B",
            random_mesh(MeshSpec::for_ports(128), 512, 4, 0, 0, 17),
        ),
    ] {
        let fifo = WormholeSim::with_queueing(&w, &params, WormholeQueueing::SingleFifo).run();
        let voq = WormholeSim::with_queueing(&w, &params, WormholeQueueing::Voq).run();
        println!(
            "{name:>18}: single-fifo {:>6.1}%  voq {:>6.1}%  (VOQ gain {:+.1}%)",
            fifo.efficiency(0.8) * 100.0,
            voq.efficiency(0.8) * 100.0,
            (voq.efficiency(0.8) / fifo.efficiency(0.8) - 1.0) * 100.0,
        );
    }
    println!("the paper's wormhole baseline is the single-FIFO variant\n");
}

fn ablate_rotation() {
    println!("== Ablation: SL priority rotation fairness ==");
    // Two inputs fight for one output with K=1 over many passes; count wins.
    for rotate in [false, true] {
        let mut sched = Scheduler::new(SchedulerConfig::new(8, 1).with_rotation(rotate));
        let mut wins = [0u32; 2];
        for _ in 0..1000 {
            // Both request; whoever holds the connection keeps it this
            // pass, so alternate teardown to give the array a choice.
            let r = BitMatrix::from_pairs(8, 8, [(0, 5), (1, 5)]);
            let report = sched.pass(&r);
            for &(u, _) in &report.established {
                wins[u] += 1;
            }
            sched.flush_dynamic(); // release for the next round
        }
        println!(
            "rotation={rotate:>5}: input0 wins {:>4}, input1 wins {:>4}",
            wins[0], wins[1]
        );
    }
    println!("with rotation the SL array shares the output; without, input 0 starves input 1\n");
}

//! Topology comparison sweep: single-crossbar PMS versus multi-stage
//! fabrics (Omega, butterfly, oversubscribed fat tree) under per-stage
//! TDM scheduling.
//!
//! ```text
//! cargo run --release -p pms-bench --bin topology [--quick]
//! ```
//!
//! Columns are paradigms: plain `dynamic-tdm` (the flat crossbar, the
//! paper's switch) next to `mstdm-*` — the same scheduler with the
//! multi-stage routing pass of `pms-multistage`. `mstdm-crossbar` must
//! match `dynamic-tdm` exactly (the 1-stage degenerate case); the others
//! show what internal blocking costs on the same traffic. Results go to
//! `results/topology.json`. `--quick` shrinks the grid for CI.

use pms_bench::{run_grid_threads, write_results};
use pms_sim::{MsTopology, Paradigm, PredictorKind, SimParams};
use pms_trace::{cli, Json};
use pms_workloads::{build_pattern, Workload};

fn paradigms() -> Vec<Paradigm> {
    let pred = PredictorKind::Timeout(400);
    vec![
        Paradigm::DynamicTdm(pred),
        Paradigm::MultistageTdm {
            topology: MsTopology::Crossbar,
            predictor: pred,
        },
        Paradigm::MultistageTdm {
            topology: MsTopology::Omega,
            predictor: pred,
        },
        Paradigm::MultistageTdm {
            topology: MsTopology::Butterfly,
            predictor: pred,
        },
        Paradigm::MultistageTdm {
            topology: MsTopology::FatTree { arity: 4, ratio: 2 },
            predictor: pred,
        },
    ]
}

fn main() {
    let (quick, threads) = cli::parse_env("usage: topology [--quick] [--threads N]", |f| {
        Ok((f.switch("--quick"), f.threads()?))
    });
    let (ports, sizes): (usize, Vec<u32>) = if quick {
        (16, vec![64, 512])
    } else {
        (64, vec![8, 64, 256, 1024])
    };
    let params = SimParams::default().with_ports(ports);
    let rate = params.link.bytes_per_ns();

    // (title, registry pattern, messages per processor, seed)
    let patterns = [
        ("Scatter", "scatter", None, 0),
        ("Permutation", "permutation", Some(6), 3),
        ("Uniform", "uniform", Some(24), 7),
    ];

    let mut json: Vec<(String, Json)> = Vec::new();
    for (name, pattern, messages, seed) in patterns {
        let gen =
            |b| build_pattern(pattern, ports, b, messages, seed).expect("16 and 64 ports fit");
        let jobs: Vec<(u64, Workload, Paradigm)> = sizes
            .iter()
            .flat_map(|&b| paradigms().into_iter().map(move |p| (b as u64, gen(b), p)))
            .collect();
        let table = run_grid_threads(jobs, &params, threads);
        println!("Topology sweep — {name} (efficiency, {ports} processors, K=4)");
        println!("{}", table.render("msg bytes", rate));

        // The degenerate case is the cross-check of the whole sweep: the
        // 1-stage graph must agree with the flat crossbar on every cell.
        for &b in &sizes {
            let flat = table.efficiency(b as u64, "dynamic-tdm", rate).unwrap();
            let one_stage = table.efficiency(b as u64, "mstdm-crossbar", rate).unwrap();
            assert_eq!(
                flat.to_bits(),
                one_stage.to_bits(),
                "{name}/{b}B: mstdm-crossbar diverged from dynamic-tdm"
            );
        }

        let mut rows = Vec::new();
        for cell in &table.cells {
            rows.push(Json::obj([
                ("bytes", cell.row.into()),
                ("paradigm", cell.col.as_str().into()),
                ("efficiency", cell.stats.efficiency(rate).into()),
                ("mean_latency_ns", cell.stats.mean_latency_ns().into()),
                ("makespan_ns", cell.stats.makespan_ns.into()),
                ("delivered_bytes", cell.stats.delivered_bytes.into()),
            ]));
        }
        json.push((name.to_string(), Json::Array(rows)));
    }

    write_results("topology", &Json::Object(json));
}

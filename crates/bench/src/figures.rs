//! The grids behind the `fig4`, `fig5`, `topology` and `schedopt`
//! sweeps.
//!
//! Each function runs one sweep's full or `--quick` grid on `threads`
//! lanes, checks the sweep's own invariants, and returns its cells;
//! `to_json` renders exactly what the binary writes under `results/`.
//! The binaries add only console tables, shape notes and file output, so
//! `tests/golden.rs` pins each `--quick` document through this module,
//! at 1 and at 2 threads.

use crate::runner::run_cells;
use crate::sweep::{run_grid_threads, FigureTable};
use pms_analyze::schedule_quality;
use pms_schedopt::{
    coloring_schedule, paged_study, schedule_to_stream, submodular_schedule,
    validate_costed_schedule, ColoringKind, CostModel, DemandMatrix, PagedStudy,
};
use pms_sim::{MsTopology, Paradigm, PredictorKind, SimParams, TdmSim};
use pms_trace::Json;
use pms_workloads::{
    build_pattern, datacenter_flows, hybrid, ordered_mesh, random_mesh, scatter, two_phase,
    DatacenterSpec, HybridSpec, MeshSpec, Workload,
};
use std::time::Instant;

/// Per-round computation and per-message software gap used by the
/// Figure 4 mesh patterns (see EXPERIMENTS.md, "calibration").
const COMPUTE_NS: u64 = 500;
const SEND_GAP_NS: u64 = 100;

/// A message-size sweep with one table per pattern: Figure 4 and the
/// topology comparison.
pub struct Tables {
    /// The parameters every cell ran with.
    pub params: SimParams,
    /// `(pattern name, table)` in the sweep's pattern order.
    pub tables: Vec<(&'static str, FigureTable)>,
}

/// Runs the Figure 4 grid: Wormhole, Circuit, Dynamic TDM and Preload
/// TDM (K = 4) on Scatter, Random Mesh, Ordered Mesh and Two-Phase, at
/// 128 ports (32 with `quick`).
pub fn fig4(quick: bool, threads: usize) -> Tables {
    let (ports, sizes): (usize, Vec<u32>) = if quick {
        (32, vec![8, 64, 512])
    } else {
        (128, vec![8, 16, 32, 64, 128, 256, 512, 1024, 2048])
    };
    let mesh = MeshSpec::for_ports(ports);
    let params = SimParams::default().with_ports(ports);
    let workload = |pattern: &str, b: u32| match pattern {
        "Scatter" => scatter(ports, b),
        "Random Mesh" => random_mesh(mesh, b, 4, COMPUTE_NS, SEND_GAP_NS, 17),
        "Ordered Mesh" => ordered_mesh(mesh, b, 4, COMPUTE_NS, SEND_GAP_NS),
        _ => two_phase(mesh, b, 16, COMPUTE_NS, SEND_GAP_NS, 11),
    };
    let paradigms = [
        Paradigm::Wormhole,
        Paradigm::Circuit,
        Paradigm::DynamicTdm(PredictorKind::Drop),
        Paradigm::PreloadTdm,
    ];
    let tables = ["Scatter", "Random Mesh", "Ordered Mesh", "Two Phase"]
        .into_iter()
        .map(|name| {
            let jobs: Vec<(u64, Workload, Paradigm)> = sizes
                .iter()
                .flat_map(|&b| {
                    paradigms
                        .iter()
                        .map(move |p| (b as u64, workload(name, b), p.clone()))
                })
                .collect();
            (name, run_grid_threads(jobs, &params, threads))
        })
        .collect();
    Tables { params, tables }
}

/// Runs the topology comparison: plain dynamic TDM (the flat crossbar)
/// beside the same scheduler routing through a 1-stage crossbar, Omega,
/// butterfly and 4:2 fat-tree stage graph, on Scatter, Permutation and
/// Uniform at 64 ports (16 with `quick`).
///
/// # Panics
/// Panics if `mstdm-crossbar`, the degenerate 1-stage graph, differs
/// from `dynamic-tdm` on any cell: that cross-checks the whole sweep.
pub fn topology(quick: bool, threads: usize) -> Tables {
    let (ports, sizes): (usize, Vec<u32>) = if quick {
        (16, vec![64, 512])
    } else {
        (64, vec![8, 64, 256, 1024])
    };
    let params = SimParams::default().with_ports(ports);
    let rate = params.link.bytes_per_ns();
    let predictor = PredictorKind::Timeout(400);
    let multistage = |topology| Paradigm::MultistageTdm {
        topology,
        predictor,
    };
    let paradigms = [
        Paradigm::DynamicTdm(predictor),
        multistage(MsTopology::Crossbar),
        multistage(MsTopology::Omega),
        multistage(MsTopology::Butterfly),
        multistage(MsTopology::FatTree { arity: 4, ratio: 2 }),
    ];
    // (title, registry pattern, messages per processor, seed)
    let patterns = [
        ("Scatter", "scatter", None, 0),
        ("Permutation", "permutation", Some(6), 3),
        ("Uniform", "uniform", Some(24), 7),
    ];
    let tables = patterns
        .into_iter()
        .map(|(name, pattern, messages, seed)| {
            let jobs: Vec<(u64, Workload, Paradigm)> = sizes
                .iter()
                .flat_map(|&b| {
                    let workload = build_pattern(pattern, ports, b, messages, seed)
                        .expect("16 and 64 ports fit");
                    paradigms
                        .iter()
                        .map(move |p| (b as u64, workload.clone(), p.clone()))
                })
                .collect();
            let table = run_grid_threads(jobs, &params, threads);
            for &b in &sizes {
                let flat = table.efficiency(b as u64, "dynamic-tdm", rate);
                let one_stage = table.efficiency(b as u64, "mstdm-crossbar", rate);
                assert_eq!(
                    flat.expect("dynamic-tdm cell").to_bits(),
                    one_stage.expect("mstdm-crossbar cell").to_bits(),
                    "{name}/{b}B: mstdm-crossbar diverged from dynamic-tdm"
                );
            }
            (name, table)
        })
        .collect();
    Tables { params, tables }
}

impl Tables {
    /// The `results/fig4.json` or `results/topology.json` document.
    pub fn to_json(&self) -> Json {
        let rate = self.params.link.bytes_per_ns();
        let patterns = self.tables.iter().map(|(name, table)| {
            let rows = table.cells.iter().map(|cell| {
                Json::obj([
                    ("bytes", cell.row.into()),
                    ("paradigm", cell.col.as_str().into()),
                    ("efficiency", cell.stats.efficiency(rate).into()),
                    ("mean_latency_ns", cell.stats.mean_latency_ns().into()),
                    ("makespan_ns", cell.stats.makespan_ns.into()),
                    ("delivered_bytes", cell.stats.delivered_bytes.into()),
                ])
            });
            (name.to_string(), Json::Array(rows.collect()))
        });
        Json::Object(patterns.collect())
    }
}

/// Figure 5: hybrid preload/dynamic efficiency versus determinism.
pub struct Fig5 {
    /// Messages per processor in each hybrid workload.
    pub msgs: usize,
    /// The parameters every cell ran with (K = 3; 128 ports, 32 with
    /// `quick`).
    pub params: SimParams,
    /// One series per preloaded-slot count `k` = 0, 1, 2, each over the
    /// determinism axis 50..=100 %.
    pub series: Vec<Fig5Series>,
}

/// One Figure 5 curve: `k` preloaded slots and `3 - k` dynamic ones.
pub struct Fig5Series {
    /// Preloaded slots.
    pub k: usize,
    /// `(determinism %, efficiency averaged over the seeds)`.
    pub points: Vec<(u64, f64)>,
    /// Summed per-cell wall-clock of the series (ns).
    pub wall_ns: u64,
}

/// Runs the Figure 5 grid: every determinism level and preload count,
/// averaged over three workload seeds (one with `--quick`).
pub fn fig5(quick: bool, threads: usize) -> Fig5 {
    let (ports, msgs, seeds): (usize, usize, Vec<u64>) = if quick {
        (32, 24, vec![1])
    } else {
        (128, 96, vec![1, 2, 3])
    };
    let params = SimParams::default().with_ports(ports).with_tdm_slots(3);
    let rate = params.link.bytes_per_ns();
    let jobs: Vec<(usize, u64, u64)> = (0..=2usize)
        .flat_map(|k| (50..=100).step_by(5).map(move |d| (k, d)))
        .flat_map(|(k, d)| seeds.iter().map(move |&seed| (k, d, seed)))
        .collect();
    let cells = run_cells(threads, jobs, |_, (k, d, seed)| {
        let workload = hybrid(HybridSpec {
            ports,
            determinism: d as f64 / 100.0,
            messages_per_proc: msgs,
            bytes: 64,
            seed,
        });
        let paradigm = Paradigm::HybridTdm {
            preload_slots: k,
            predictor: PredictorKind::Drop,
        };
        let t0 = Instant::now();
        let eff = paradigm.run(&workload, &params).efficiency(rate);
        (d, eff, t0.elapsed().as_nanos() as u64)
    });
    // Jobs run k-major, so each k owns an equal run of cells; each point
    // averages its seeds in seed order.
    let series = cells
        .chunks(cells.len() / 3)
        .zip(0..)
        .map(|(run, k)| Fig5Series {
            k,
            points: run
                .chunks(seeds.len())
                .map(|c| (c[0].0, c.iter().map(|p| p.1).sum::<f64>() / c.len() as f64))
                .collect(),
            wall_ns: run.iter().map(|p| p.2).sum(),
        })
        .collect();
    Fig5 {
        msgs,
        params,
        series,
    }
}

impl Fig5 {
    /// The `results/fig5.json` document.
    pub fn to_json(&self) -> Json {
        let rows = self.series.iter().flat_map(|s| {
            s.points.iter().map(|&(d, mean)| {
                Json::obj([
                    ("determinism_pct", d.into()),
                    ("preload_slots", s.k.into()),
                    ("efficiency", mean.into()),
                ])
            })
        });
        Json::Array(rows.collect())
    }
}

/// Seed of every `schedopt` datacenter matrix.
pub const SCHEDOPT_SEED: u64 = 11;

/// Reconfiguration cost δ of the `schedopt` scalable-K study, in slots.
pub const SCHEDOPT_PAGED_DELTA: u64 = 8;

/// Skew profiles swept as the `schedopt` grid's second axis.
pub fn schedopt_skews(ports: usize) -> Vec<(&'static str, DatacenterSpec)> {
    let high = DatacenterSpec::new(ports, SCHEDOPT_SEED);
    let low = DatacenterSpec {
        mice_per_port: 8,
        elephant_bytes: 8_192,
        ..high
    };
    vec![("high", high), ("low", low)]
}

/// The demand matrix of one skew profile.
pub fn schedopt_demand(spec: &DatacenterSpec) -> DemandMatrix {
    DemandMatrix::from_flows(spec.ports, datacenter_flows(spec))
}

/// The axes of the `schedopt` cost-aware schedule sweep.
pub struct SchedoptGrid {
    /// Port counts.
    pub port_counts: Vec<usize>,
    /// Reconfiguration costs δ, in slots.
    pub deltas: Vec<u64>,
    /// Solver names, in column order.
    pub solvers: &'static [&'static str],
}

/// One solved, validated and simulated `schedopt` cell.
pub struct SchedoptCell {
    /// Port count.
    pub ports: usize,
    /// Skew profile name.
    pub skew: &'static str,
    /// Reconfiguration cost δ, in slots.
    pub delta: u64,
    /// Solver name.
    pub solver: &'static str,
    /// The cost model's predicted makespan (ns).
    pub predicted_ns: u64,
    /// The makespan the stream backend achieved (ns).
    pub simulated_ns: u64,
    /// The cell's `results/schedopt.json` entry.
    pub json: Json,
}

impl SchedoptGrid {
    /// The full grid, or the reduced CI grid with `quick`.
    pub fn new(quick: bool) -> Self {
        let (port_counts, deltas) = if quick {
            (vec![16], vec![1, 16])
        } else {
            (vec![32, 64], vec![1, 4, 16, 64])
        };
        Self {
            port_counts,
            deltas,
            solvers: &["submodular", "coloring-greedy", "coloring-exact"],
        }
    }

    /// Solves every `(ports, skew, δ, solver)` cell on `threads` lanes,
    /// validates each schedule and drives it through
    /// `TdmSim::with_config_stream` (`K = 1`, `preload_cfg_ns = δ ·
    /// slot_ns`). Cells come back in grid order.
    ///
    /// # Panics
    /// Panics if a schedule is invalid or its stream loses bytes.
    pub fn run(&self, threads: usize) -> Vec<SchedoptCell> {
        let mut jobs = Vec::new();
        for &ports in &self.port_counts {
            for (skew, spec) in schedopt_skews(ports) {
                for &delta in &self.deltas {
                    for &solver in self.solvers {
                        jobs.push((ports, skew, spec, delta, solver));
                    }
                }
            }
        }
        run_cells(threads, jobs, |_, (ports, skew, spec, delta, solver)| {
            let demand = schedopt_demand(&spec);
            let cost = CostModel::with_delta(delta);
            let sched = match solver {
                "submodular" => submodular_schedule(&demand, &cost),
                "coloring-greedy" => coloring_schedule(&demand, &cost, ColoringKind::Greedy),
                _ => coloring_schedule(&demand, &cost, ColoringKind::Exact),
            };
            validate_costed_schedule(&demand, &cost, &sched)
                .unwrap_or_else(|e| panic!("{solver} δ={delta} p={ports} {skew}: {e}"));

            // Achieved completion: drive the schedule through the
            // simulator's stream backend, one register, δ paid on every
            // load.
            let stream = schedule_to_stream(
                format!("schedopt/{skew}/p{ports}/d{delta}/{solver}"),
                &demand,
                &cost,
                &sched,
            );
            let mut params = SimParams::default().with_ports(ports).with_tdm_slots(1);
            params.preload_cfg_ns = delta * params.slot_ns;
            let stats = TdmSim::with_config_stream(
                &stream.workload,
                &params,
                stream.configs,
                stream.msg_config,
            )
            .run();
            assert_eq!(
                stats.delivered_bytes,
                demand.total_bytes(),
                "{solver} δ={delta} p={ports} {skew}: stream lost bytes"
            );

            let report = schedule_quality(
                &demand,
                &cost,
                &sched,
                params.slot_ns,
                Some(stats.makespan_ns),
            );
            let mut fields: Vec<(String, Json)> = vec![
                ("skew".to_string(), Json::from(skew)),
                ("delta_slots".to_string(), Json::from(delta)),
            ];
            if let Json::Object(rep) = report.to_json() {
                fields.extend(rep);
            }
            SchedoptCell {
                ports,
                skew,
                delta,
                solver,
                predicted_ns: report.predicted_makespan_ns,
                simulated_ns: stats.makespan_ns,
                json: Json::Object(fields),
            }
        })
    }
}

/// The `schedopt` sweep: the solved grid and the scalable-K study.
pub struct Schedopt {
    /// Whether this is the reduced CI grid.
    pub quick: bool,
    /// The grid's axes.
    pub grid: SchedoptGrid,
    /// Every cell, in grid order.
    pub cells: Vec<SchedoptCell>,
    /// `(ports, skew, study)` per port count, skew and K.
    pub paged: Vec<(usize, &'static str, PagedStudy)>,
}

/// Runs the `schedopt` grid on `threads` lanes, then pages each demand
/// matrix's submodular schedule through K registers (K = 2, 4, 8; 4 with
/// `quick`) against the compiler's phase partition at
/// [`SCHEDOPT_PAGED_DELTA`].
///
/// # Panics
/// Panics where [`SchedoptGrid::run`] does, and if on any δ ≥ 4 cell the
/// cost-aware solver loses to the greedy coloring baseline, predicted or
/// simulated (or fails to win strictly at 64 ports), or a study's
/// working set fits in K.
pub fn schedopt(quick: bool, threads: usize) -> Schedopt {
    let grid = SchedoptGrid::new(quick);
    let cells = grid.run(threads);
    for c in cells
        .iter()
        .filter(|c| c.solver == "submodular" && c.delta >= 4)
    {
        let base = cells
            .iter()
            .find(|b| {
                b.solver == "coloring-greedy"
                    && (b.ports, b.skew, b.delta) == (c.ports, c.skew, c.delta)
            })
            .expect("baseline cell");
        let ctx = format!("{} ports, {} skew, δ={}", c.ports, c.skew, c.delta);
        assert!(
            c.predicted_ns <= base.predicted_ns && c.simulated_ns <= base.simulated_ns,
            "{ctx}: submodular {}/{} ns (predicted/simulated) > coloring {}/{} ns",
            c.predicted_ns,
            c.simulated_ns,
            base.predicted_ns,
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
    let ks: &[usize] = if quick { &[4] } else { &[2, 4, 8] };
    let mut paged = Vec::new();
    for &ports in &grid.port_counts {
        for (skew, spec) in schedopt_skews(ports) {
            let demand = schedopt_demand(&spec);
            let cost = CostModel::with_delta(SCHEDOPT_PAGED_DELTA);
            for &k in ks {
                let study = paged_study(&demand, &cost, k);
                assert!(
                    study.working_set > k,
                    "study premise: the working set must exceed K"
                );
                paged.push((ports, skew, study));
            }
        }
    }
    Schedopt {
        quick,
        grid,
        cells,
        paged,
    }
}

impl Schedopt {
    /// The `results/schedopt.json` document.
    pub fn to_json(&self) -> Json {
        let paged = self.paged.iter().map(|(ports, skew, s)| {
            Json::obj([
                ("ports", (*ports).into()),
                ("skew", (*skew).into()),
                ("delta_slots", SCHEDOPT_PAGED_DELTA.into()),
                ("k", s.k.into()),
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
            ])
        });
        Json::obj([
            ("quick", self.quick.into()),
            ("seed", SCHEDOPT_SEED.into()),
            ("slot_ns", SimParams::default().slot_ns.into()),
            (
                "cells",
                Json::Array(self.cells.iter().map(|c| c.json.clone()).collect()),
            ),
            ("paged", Json::Array(paged.collect())),
        ])
    }
}

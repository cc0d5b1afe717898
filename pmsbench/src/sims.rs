//! The three simulator workloads: `paper128`, `ports4096` and
//! `multistage1024`. Each is a grid of cells, one `Paradigm::run` call
//! per cell; a round runs every cell once.

use crate::bench::{derive_seed, Ctx, Size};
use crate::probe::probe;
use crate::stats::{percentile_sorted, tail_percentile};
use pms_sim::{MsTopology, Paradigm, PredictorKind, SimParams, SimStats};
use pms_trace::prof;
use pms_workloads::{
    hybrid, ordered_mesh, permutation, random_mesh, scatter, two_phase, uniform, HybridSpec,
    MeshSpec, Workload,
};
use std::hint::black_box;

/// Per-round computation and per-message software gap of the mesh
/// patterns, as in the `fig4` binary (EXPERIMENTS.md, "calibration").
const COMPUTE_NS: u64 = 500;
const SEND_GAP_NS: u64 = 100;

const DYNAMIC: Paradigm = Paradigm::DynamicTdm(PredictorKind::Drop);

/// One simulation: a workload under a paradigm.
pub struct Cell {
    /// The per-layer metric its host time is charged to.
    pub layer: &'static str,
    /// Span name.
    pub name: String,
    /// Inputs.
    pub workload: Workload,
    /// Switching paradigm.
    pub paradigm: Paradigm,
    /// Timing parameters, sized to the workload.
    pub params: SimParams,
}

impl Cell {
    /// A cell running `workload` under `paradigm` with `params` resized
    /// to the workload's port count.
    pub fn new(workload: Workload, paradigm: Paradigm, params: &SimParams) -> Self {
        Cell {
            layer: layer_of(&paradigm),
            name: format!("{} {}", workload.name, paradigm.label()),
            params: params.clone().with_ports(workload.ports),
            workload,
            paradigm,
        }
    }
}

fn layer_of(paradigm: &Paradigm) -> &'static str {
    match paradigm {
        Paradigm::Wormhole => "sim.wormhole_s",
        Paradigm::Circuit => "sim.circuit_s",
        Paradigm::DynamicTdm(_) => "sim.dynamic_tdm_s",
        Paradigm::PreloadTdm => "sim.preload_tdm_s",
        Paradigm::HybridTdm { .. } => "sim.hybrid_tdm_s",
        Paradigm::MultistageTdm { topology, .. } => match topology {
            MsTopology::Crossbar => "sim.mstdm_crossbar_s",
            MsTopology::Omega => "sim.mstdm_omega_s",
            MsTopology::Butterfly => "sim.mstdm_butterfly_s",
            MsTopology::FatTree { .. } => "sim.mstdm_fattree_s",
        },
    }
}

/// A workload's cells and the one the trace probe runs.
pub struct Grid {
    cells: Vec<Cell>,
    probe: usize,
}

/// A short dynamic-TDM run on `params`, through the same simulator code
/// the rounds time: one random permutation of 64 B messages.
pub fn warm_up(params: &SimParams) {
    black_box(DYNAMIC.run(&permutation(params.ports, 64, 1, 1), params));
}

/// Every Figure 4 cell (4 patterns x 9 sizes x 4 paradigms, K = 4) and
/// every Figure 5 cell (hybrid k = 0..2 x 11 determinisms x 3 seeds,
/// K = 3) at 128 ports, with the figure binaries' generator seeds at
/// seed 0. Hybrid runs only on `hybrid()` workloads, which carry the
/// preload patterns hybrid mode needs.
fn paper128_grid(seed: u64, size: Size) -> Grid {
    let (ports, sizes, fig5_msgs, determinism, fig5_seeds): (usize, Vec<u32>, _, Vec<u64>, _) =
        match size {
            Size::Full => (
                128,
                vec![8, 16, 32, 64, 128, 256, 512, 1024, 2048],
                96,
                (50..=100).step_by(5).collect(),
                vec![1, 2, 3],
            ),
            Size::Tiny => (16, vec![8, 64], 8, vec![50, 100], vec![1]),
        };
    let mesh = MeshSpec::for_ports(ports);
    let fig4 = SimParams::default().with_ports(ports);
    let patterns: [&dyn Fn(u32) -> Workload; 4] = [
        &|b| scatter(ports, b),
        &|b| random_mesh(mesh, b, 4, COMPUTE_NS, SEND_GAP_NS, derive_seed(17, seed)),
        &|b| ordered_mesh(mesh, b, 4, COMPUTE_NS, SEND_GAP_NS),
        &|b| two_phase(mesh, b, 16, COMPUTE_NS, SEND_GAP_NS, derive_seed(11, seed)),
    ];
    let mut cells = Vec::new();
    let mut probe = 0;
    for (i, gen) in patterns.iter().enumerate() {
        for &bytes in &sizes {
            for paradigm in [
                Paradigm::Wormhole,
                Paradigm::Circuit,
                DYNAMIC,
                Paradigm::PreloadTdm,
            ] {
                // The probe runs Two Phase, 64 B, dynamic TDM.
                if i == 3 && bytes == 64 && matches!(paradigm, Paradigm::DynamicTdm(_)) {
                    probe = cells.len();
                }
                cells.push(Cell::new(gen(bytes), paradigm, &fig4));
            }
        }
    }
    let fig5 = SimParams::default().with_ports(ports).with_tdm_slots(3);
    for preload_slots in 0..=2 {
        for &d in &determinism {
            for &s in &fig5_seeds {
                let spec = HybridSpec {
                    ports,
                    determinism: d as f64 / 100.0,
                    messages_per_proc: fig5_msgs,
                    bytes: 64,
                    seed: derive_seed(s, seed),
                };
                let paradigm = Paradigm::HybridTdm {
                    preload_slots,
                    predictor: PredictorKind::Drop,
                };
                cells.push(Cell::new(hybrid(spec), paradigm, &fig5));
            }
        }
    }
    Grid { cells, probe }
}

/// Lanes for `ports4096`: two, or one on a one-core machine.
fn wide_lanes() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Dynamic TDM at 4096 ports on [`wide_lanes`] lanes: uniform traffic,
/// 16 messages per processor, and 8 random permutations, 64 B each.
fn ports4096_grid(seed: u64, size: Size, lanes: usize) -> Grid {
    let (ports, per_proc, rounds) = match size {
        Size::Full => (4096, 16, 8),
        Size::Tiny => (256, 2, 2),
    };
    let params = SimParams::default().with_threads(lanes);
    let cells = vec![
        Cell::new(
            uniform(ports, 64, per_proc, derive_seed(17, seed)),
            DYNAMIC,
            &params,
        ),
        Cell::new(
            permutation(ports, 64, rounds, derive_seed(23, seed)),
            DYNAMIC,
            &params,
        ),
    ];
    Grid { cells, probe: 1 }
}

/// Multistage TDM at 1024 ports on a crossbar, an omega network, a
/// butterfly and a 16-ary fat tree with 2:1 oversubscription, under
/// uniform 64 B traffic (8 per processor) and 4 permutations of 256 B.
fn multistage_grid(seed: u64, size: Size) -> Grid {
    let (ports, per_proc, rounds) = match size {
        Size::Full => (1024, 8, 4),
        Size::Tiny => (64, 2, 2),
    };
    let params = SimParams::default();
    let topologies = [
        MsTopology::Crossbar,
        MsTopology::Omega,
        MsTopology::Butterfly,
        MsTopology::FatTree {
            arity: 16,
            ratio: 2,
        },
    ];
    let workloads = [
        uniform(ports, 64, per_proc, derive_seed(17, seed)),
        permutation(ports, 256, rounds, derive_seed(23, seed)),
    ];
    let mut cells = Vec::new();
    for w in &workloads {
        for topology in topologies {
            let paradigm = Paradigm::MultistageTdm {
                topology,
                predictor: PredictorKind::Drop,
            };
            cells.push(Cell::new(w.clone(), paradigm, &params));
        }
    }
    // The probe runs the omega network under uniform traffic.
    Grid { cells, probe: 1 }
}

/// The `paper128` workload.
pub fn paper128(ctx: &mut Ctx) {
    let (seed, size) = (ctx.seed, ctx.size);
    run_grid(ctx, || paper128_grid(seed, size), |_, _, _| {});
}

/// The `ports4096` workload. Its traced run also reruns every cell on
/// one lane and checks the statistics are identical.
pub fn ports4096(ctx: &mut Ctx) {
    let (seed, size) = (ctx.seed, ctx.size);
    ctx.lanes = wide_lanes();
    let lanes = ctx.lanes;
    run_grid(ctx, || ports4096_grid(seed, size, lanes), one_lane_rerun);
}

/// The `multistage1024` workload. It also checks that the one-stage
/// crossbar graph reproduces plain dynamic TDM byte for byte.
pub fn multistage1024(ctx: &mut Ctx) {
    let (seed, size) = (ctx.seed, ctx.size);
    run_grid(
        ctx,
        || multistage_grid(seed, size),
        crossbar_matches_dynamic,
    );
}

fn run_grid(
    ctx: &mut Ctx,
    build: impl Fn() -> Grid,
    extra: impl FnOnce(&mut Ctx, &Grid, &[SimStats]),
) {
    let grid = ctx.setup(build, |g| warm_up(&g.cells[g.probe].params));
    let mut first: Option<Vec<SimStats>> = None;
    let mut diverged = Vec::new();
    let mut cell_ns = Vec::new();
    ctx.rounds(|i, spans| {
        let stats: Vec<SimStats> = grid
            .cells
            .iter()
            .map(|c| {
                let (s, secs) = spans.layer(c.layer, c.name.as_str(), || {
                    c.paradigm.run(&c.workload, &c.params)
                });
                cell_ns.push((secs * 1e9) as u64);
                s
            })
            .collect();
        match &first {
            None => first = Some(stats),
            Some(f) if *f != stats => diverged.push(i),
            Some(_) => {}
        }
    });
    let stats = first.expect("at least one round");
    for i in diverged {
        ctx.fail(format!(
            "round {i}: simulator statistics differ from round 0"
        ));
    }
    let (offered, lost) = check_conservation(ctx, &grid.cells, &stats);
    let rounds = ctx.round_secs.len() as u64;
    ctx.attempted = offered * rounds;
    ctx.failed = lost * rounds;
    sim_metrics(ctx, &grid.cells, &stats);
    cell_metrics(ctx, cell_ns);
    extra(ctx, &grid, &stats);
    if ctx.traced {
        let c = &grid.cells[grid.probe];
        probe(ctx, &c.name, |tracer| {
            c.paradigm.run_traced(&c.workload, &c.params, tracer).1
        });
    }
}

/// Every cell must deliver every message and byte it offered. Returns
/// the messages offered and the messages not delivered, per round.
pub fn check_conservation(ctx: &mut Ctx, cells: &[Cell], stats: &[SimStats]) -> (u64, u64) {
    let (mut offered_sum, mut lost_sum) = (0, 0);
    for (c, s) in cells.iter().zip(stats) {
        let offered = c.workload.message_count() as u64;
        let bytes = c.workload.total_bytes();
        offered_sum += offered;
        lost_sum += offered.saturating_sub(s.delivered_messages);
        if s.delivered_messages != offered || s.delivered_bytes != bytes || s.msgs_abandoned != 0 {
            ctx.fail(format!(
                "{}: delivered {}/{offered} messages and {}/{bytes} bytes, abandoned {}",
                c.name, s.delivered_messages, s.delivered_bytes, s.msgs_abandoned
            ));
        }
    }
    (offered_sum, lost_sum)
}

/// The simulated end-to-end metrics and `SimStats` counters over one
/// round's cells.
pub fn sim_metrics(ctx: &mut Ctx, cells: &[Cell], stats: &[SimStats]) {
    let rate = cells[0].params.link.bytes_per_ns();
    let efficiency = stats.iter().map(|s| s.efficiency(rate)).sum::<f64>() / stats.len() as f64;
    let mut p99_sum = 0.0;
    for (c, s) in cells.iter().zip(stats) {
        if s.latency_samples.len() as u64 != s.delivered_messages {
            ctx.fail(format!("{}: latency samples are not exact", c.name));
        }
        p99_sum += s.p99_latency_ns() as f64;
    }
    let sum = |f: fn(&SimStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    let (hits, lookups) = (sum(|s| s.ws_hits), sum(|s| s.ws_lookups));
    let m = &mut ctx.metrics;
    m.set("efficiency", efficiency);
    let delivered = sum(|s| s.delivered_messages);
    m.set("latency_mean_ns", sum(|s| s.total_latency_ns) / delivered);
    m.set("sim.latency_p99_ns", p99_sum / stats.len() as f64);
    m.set("sim.sched_passes", sum(|s| s.sched_passes));
    m.set(
        "sim.connections_established",
        sum(|s| s.connections_established),
    );
    m.set("sim.predictor_evictions", sum(|s| s.predictor_evictions));
    m.set("sim.preload_loads", sum(|s| s.preload_loads));
    m.set(
        "sim.ws_hit_rate",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
    );
    let multistage_s: f64 = [
        "sim.mstdm_crossbar_s",
        "sim.mstdm_omega_s",
        "sim.mstdm_butterfly_s",
        "sim.mstdm_fattree_s",
    ]
    .iter()
    .map(|name| m.get(name))
    .sum();
    if multistage_s > 0.0 {
        let share = m.get("multistage.route_dfs.est_s") / multistage_s;
        m.set("multistage.route_share", share);
    }
}

/// The host-time distribution of the workload's cells (one engine call
/// each), pooled over every round: median and the highest tail
/// percentile with ten samples beyond it, which the label line names
/// with the sample count.
pub fn cell_metrics(ctx: &mut Ctx, mut cell_ns: Vec<u64>) {
    cell_ns.sort_unstable();
    ctx.cell_tail = tail_percentile(cell_ns.len()).map(|p| (p, cell_ns.len()));
    let m = &mut ctx.metrics;
    m.set(
        "cell.ms_p50",
        percentile_sorted(&cell_ns, 50.0) as f64 / 1e6,
    );
    if let Some((p, _)) = ctx.cell_tail {
        m.set("cell.ms_tail", percentile_sorted(&cell_ns, p) as f64 / 1e6);
    }
}

/// Traced `ports4096` only: every cell again on one lane, whose
/// statistics must equal the N-lane ones byte for byte.
fn one_lane_rerun(ctx: &mut Ctx, grid: &Grid, stats: &[SimStats]) {
    if !ctx.traced {
        return;
    }
    let id = ctx.spans.open("one-lane rerun");
    // Profile as the timed rounds did, so the two lane counts compare.
    prof::set_enabled(true);
    let mut lane1_s = 0.0;
    for (c, s) in grid.cells.iter().zip(stats) {
        let one = c.params.clone().with_threads(1);
        let name = format!("{} on 1 lane", c.name);
        let (s1, secs) = ctx
            .spans
            .layer(c.layer, name, || c.paradigm.run(&c.workload, &one));
        lane1_s += secs;
        if s1.to_json().render() != s.to_json().render() {
            ctx.fail(format!(
                "{}: 1-lane statistics differ from {} lanes",
                c.name, ctx.lanes
            ));
        }
    }
    prof::set_enabled(false);
    ctx.spans.close(id);
    let lane_n = ctx.metrics.get("par.laneN_s");
    ctx.metrics.set("par.lane1_s", lane1_s);
    ctx.metrics.set("par.speedup", lane1_s / lane_n);
}

/// The one-stage crossbar graph must reproduce plain dynamic TDM on the
/// first cell, byte for byte apart from the paradigm label.
fn crossbar_matches_dynamic(ctx: &mut Ctx, grid: &Grid, stats: &[SimStats]) {
    let c = &grid.cells[0];
    let name = format!("{} dynamic-tdm reference", c.workload.name);
    let (reference, _) = ctx.spans.layer("sim.dynamic_tdm_s", name, || {
        DYNAMIC.run(&c.workload, &c.params)
    });
    let mut crossbar = stats[0].clone();
    crossbar.paradigm.clone_from(&reference.paradigm);
    if crossbar.to_json().render() != reference.to_json().render() {
        ctx.fail(format!("{}: statistics differ from dynamic TDM", c.name));
    }
}

//! Integration: the full TDM simulator over internally blocking fabrics
//! (§6 "fabrics other than crossbars") — an Omega stage graph and the
//! multi-hop torus — each attached as a slot router.

use pms::multistage::{MultistageRouter, StageGraph, TorusNetwork, TorusRouter};
use pms::sim::{PredictorKind, TdmMode, TdmSim};
use pms::workloads::{permutation, uniform};
use pms::{SimParams, Workload};

fn dynamic(w: &Workload, params: &SimParams, predictor: PredictorKind) -> TdmSim {
    TdmSim::new(w, params, TdmMode::Dynamic { predictor })
}

fn omega(n: usize, params: &SimParams) -> Box<MultistageRouter> {
    Box::new(MultistageRouter::new(
        StageGraph::omega(n),
        params.tdm_slots,
    ))
}

fn torus(params: &SimParams) -> Box<TorusRouter> {
    Box::new(TorusRouter::new(
        TorusNetwork::new(4, 4, 2),
        params.tdm_slots,
    ))
}

#[test]
fn tdm_over_omega_delivers_everything() {
    let n = 16;
    let w = permutation(n, 64, 6, 3);
    let params = SimParams::default().with_ports(n);
    let stats = dynamic(&w, &params, PredictorKind::Drop)
        .with_router(omega(n, &params))
        .run();
    assert_eq!(stats.delivered_messages as usize, w.message_count());
    assert_eq!(stats.delivered_bytes, w.total_bytes());
}

#[test]
fn omega_blocking_costs_throughput_versus_crossbar() {
    // The same random traffic on a crossbar (no router) and on an Omega
    // fabric: internal blocking must cost makespan, never correctness.
    let n = 16;
    let w = uniform(n, 64, 12, 7);
    let params = SimParams::default().with_ports(n);
    let crossbar = dynamic(&w, &params, PredictorKind::Drop).run();
    let omega = dynamic(&w, &params, PredictorKind::Drop)
        .with_router(omega(n, &params))
        .run();
    assert_eq!(crossbar.delivered_bytes, omega.delivered_bytes);
    assert!(
        omega.makespan_ns >= crossbar.makespan_ns,
        "blocking fabric cannot be faster: omega {} vs crossbar {}",
        omega.makespan_ns,
        crossbar.makespan_ns
    );
}

#[test]
fn omega_admission_is_deterministic() {
    let n = 8;
    let w = uniform(n, 64, 8, 11);
    let params = SimParams::default().with_ports(n);
    let run = || {
        dynamic(&w, &params, PredictorKind::Timeout(400))
            .with_router(omega(n, &params))
            .run()
    };
    assert_eq!(run(), run());
}

#[test]
fn tdm_over_multihop_torus_delivers_everything() {
    let n = TorusNetwork::new(4, 4, 2).ports();
    let w = uniform(n, 64, 8, 21);
    let params = SimParams::default().with_ports(n);
    let stats = dynamic(&w, &params, PredictorKind::Drop)
        .with_router(torus(&params))
        .run();
    assert_eq!(stats.delivered_messages as usize, w.message_count());
    assert_eq!(stats.delivered_bytes, w.total_bytes());
}

#[test]
fn torus_intra_switch_traffic_is_unconstrained() {
    // Local pairs use no inter-switch links: the torus behaves exactly
    // like a crossbar for them.
    let n = TorusNetwork::new(4, 4, 2).ports();
    let mut programs = vec![pms::workloads::Program::new(); n];
    for s in 0..16 {
        programs[2 * s].send(2 * s + 1, 512);
    }
    let w = Workload::new("local", n, programs);
    let params = SimParams::default().with_ports(n);
    let crossbar = dynamic(&w, &params, PredictorKind::Drop).run();
    let multihop = dynamic(&w, &params, PredictorKind::Drop)
        .with_router(torus(&params))
        .run();
    assert_eq!(crossbar.makespan_ns, multihop.makespan_ns);
}

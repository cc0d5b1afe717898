//! Integration: the multi-stage TDM paradigm end-to-end.
//!
//! The headline claims from the issue:
//!
//! * the one-stage (crossbar) stage graph is **byte-identical** —
//!   statistics and trace — to the plain dynamic TDM simulator on the
//!   same workload and seed;
//! * an Omega stage graph reproduces known internal blocking: a
//!   permutation the crossbar admits in one slot needs more than one
//!   slot on the Omega network, and blocking costs makespan but never
//!   correctness.

use pms::multistage::{MultistageRouter, StageGraph};
use pms::sched::SlotRouter;
use pms::sim::{MsTopology, Paradigm};
use pms::trace::{TraceEvent, Tracer};
use pms::workloads::{permutation, uniform, Program, Workload};
use pms::{PredictorKind, SimParams, SimStats};

fn dynamic(pred: PredictorKind) -> Paradigm {
    Paradigm::DynamicTdm(pred)
}

fn mstdm(topology: MsTopology, pred: PredictorKind) -> Paradigm {
    Paradigm::MultistageTdm {
        topology,
        predictor: pred,
    }
}

/// Strips the paradigm label so otherwise-identical runs compare equal.
fn unlabeled(mut s: SimStats) -> SimStats {
    s.paradigm = String::new();
    s
}

#[test]
fn crossbar_stage_graph_is_byte_identical_to_dynamic_tdm() {
    for (ports, msgs, seed, pred) in [
        (8, 32, 3u64, PredictorKind::Drop),
        (16, 64, 7, PredictorKind::Timeout(400)),
        (16, 48, 11, PredictorKind::RefCount(8)),
    ] {
        let w = uniform(ports, 64, msgs, seed);
        let params = SimParams::default().with_ports(ports);
        let (base_stats, base_tracer) = dynamic(pred).run_traced(&w, &params, Tracer::vec());
        let (ms_stats, ms_tracer) =
            mstdm(MsTopology::Crossbar, pred).run_traced(&w, &params, Tracer::vec());
        assert_eq!(ms_stats.paradigm, "mstdm-crossbar");
        assert_eq!(
            unlabeled(base_stats),
            unlabeled(ms_stats),
            "stats diverged (ports={ports} seed={seed})"
        );
        assert_eq!(
            base_tracer.records(),
            ms_tracer.records(),
            "trace diverged (ports={ports} seed={seed})"
        );
    }
}

/// A permutation the crossbar carries in one slot but the Omega network
/// cannot: connections of an Omega-invalid permutation must land in
/// different TDM slots.
#[test]
fn omega_blocking_spreads_a_permutation_over_slots() {
    let n = 8;
    let graph = StageGraph::omega(n);
    // Find an Omega-invalid full permutation by scanning Lehmer codes —
    // deterministic and robust against fabric parameter tweaks.
    let nth_permutation = |mut code: usize| -> Vec<(usize, usize)> {
        let mut pool: Vec<usize> = (0..n).collect();
        (0..n)
            .map(|u| {
                let radix = pool.len();
                let v = pool.remove(code % radix);
                code /= radix;
                (u, v)
            })
            .collect()
    };
    let perm = (0..40_320)
        .map(nth_permutation)
        .find(|pairs| {
            // No self-sends (the workload model forbids them) and blocked
            // within a single slot.
            let mut router = MultistageRouter::new(graph.clone(), 1);
            pairs.iter().all(|&(u, v)| u != v)
                && !pairs.iter().all(|&(u, v)| router.try_admit(0, u, v))
        })
        .expect("some derangement must block on omega");
    let mut programs = vec![Program::new(); n];
    for &(u, v) in &perm {
        programs[u].send(v, 256);
    }
    let w = Workload::new("blocked-perm", n, programs);
    let params = SimParams::default().with_ports(n);

    let slots_used = |paradigm: Paradigm| -> std::collections::BTreeSet<u32> {
        let (_, tracer) = paradigm.run_traced(&w, &params, Tracer::vec());
        tracer
            .records()
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::ConnEstablished { slot_idx, .. } => Some(slot_idx),
                _ => None,
            })
            .collect()
    };
    let crossbar = slots_used(mstdm(MsTopology::Crossbar, PredictorKind::Never));
    let omega = slots_used(mstdm(MsTopology::Omega, PredictorKind::Never));
    assert_eq!(
        crossbar.len(),
        1,
        "a crossbar admits a permutation in one slot"
    );
    assert!(
        omega.len() > 1,
        "omega must spread the blocked permutation over slots, got {omega:?}"
    );
}

#[test]
fn omega_blocking_costs_makespan_never_correctness() {
    let n = 16;
    let w = permutation(n, 64, 6, 3);
    let params = SimParams::default().with_ports(n);
    let crossbar = mstdm(MsTopology::Crossbar, PredictorKind::Drop).run(&w, &params);
    let omega = mstdm(MsTopology::Omega, PredictorKind::Drop).run(&w, &params);
    assert_eq!(crossbar.delivered_bytes, w.total_bytes());
    assert_eq!(omega.delivered_bytes, w.total_bytes());
    assert_eq!(omega.delivered_messages as usize, w.message_count());
    assert!(
        omega.makespan_ns >= crossbar.makespan_ns,
        "blocking fabric cannot be faster: omega {} vs crossbar {}",
        omega.makespan_ns,
        crossbar.makespan_ns
    );
}

#[test]
fn fat_tree_and_butterfly_deliver_everything() {
    let n = 16;
    let w = uniform(n, 64, 12, 5);
    let params = SimParams::default().with_ports(n);
    for topology in [
        MsTopology::Butterfly,
        MsTopology::FatTree { arity: 4, ratio: 2 },
    ] {
        let stats = mstdm(topology, PredictorKind::Timeout(400)).run(&w, &params);
        assert_eq!(
            stats.delivered_bytes,
            w.total_bytes(),
            "{} lost bytes",
            topology.tag()
        );
    }
}

//! Cross-crate integration: every paradigm, several workloads —
//! conservation, determinism, and termination.

use pms::predict::PhaseDetectorConfig;
use pms::sim::RunSpec;
use pms::trace::Tracer;
use pms::workloads::{butterfly, gather, ring, scatter, transpose};
use pms::{Paradigm, PredictorKind, SimParams, Workload};

fn all_paradigms() -> Vec<Paradigm> {
    vec![
        Paradigm::Wormhole,
        Paradigm::Circuit,
        Paradigm::DynamicTdm(PredictorKind::Drop),
        Paradigm::DynamicTdm(PredictorKind::Timeout(400)),
        Paradigm::PreloadTdm,
    ]
}

fn check_conservation(w: &Workload) {
    let params = SimParams::default().with_ports(w.ports);
    for paradigm in all_paradigms() {
        let stats = paradigm.run(w, &params);
        assert_eq!(
            stats.delivered_messages as usize,
            w.message_count(),
            "{} lost messages on {}",
            paradigm.label(),
            w.name
        );
        assert_eq!(
            stats.delivered_bytes,
            w.total_bytes(),
            "{} lost bytes on {}",
            paradigm.label(),
            w.name
        );
        assert!(stats.makespan_ns > 0);
        assert!(stats.max_latency_ns >= stats.mean_latency_ns() as u64);
    }
}

#[test]
fn scatter_conserves_under_all_paradigms() {
    check_conservation(&scatter(16, 96));
}

#[test]
fn gather_conserves_under_all_paradigms() {
    check_conservation(&gather(16, 128));
}

#[test]
fn ring_conserves_under_all_paradigms() {
    check_conservation(&ring(16, 64, 4));
}

#[test]
fn transpose_conserves_under_all_paradigms() {
    check_conservation(&transpose(4, 200, 2));
}

#[test]
fn butterfly_conserves_under_all_paradigms() {
    check_conservation(&butterfly(16, 48));
}

#[test]
fn same_seed_same_workload_different_seed_differs() {
    let mesh = pms::workloads::MeshSpec::for_ports(16);
    let a = pms::workloads::random_mesh(mesh, 64, 3, 0, 0, 1);
    let b = pms::workloads::random_mesh(mesh, 64, 3, 0, 0, 1);
    let c = pms::workloads::random_mesh(mesh, 64, 3, 0, 0, 2);
    assert_eq!(a.connection_trace(), b.connection_trace());
    assert_ne!(a.connection_trace(), c.connection_trace());
}

#[test]
fn gather_exposes_output_port_serialization() {
    // 15 senders to one output: no paradigm can beat the single receiving
    // link, so aggregate efficiency (per-sender) is bounded by ~1/15.
    let w = gather(16, 512);
    let params = SimParams::default().with_ports(16);
    for paradigm in all_paradigms() {
        let stats = paradigm.run(&w, &params);
        let eff = stats.efficiency(params.link.bytes_per_ns());
        assert!(
            eff <= 1.0 / 15.0 + 0.01,
            "{}: gather efficiency {eff} beats the receiver link",
            paradigm.label()
        );
    }
}

#[test]
fn trace_orders_injection_establishment_delivery() {
    // Causality in the event stream: every delivery is preceded by its
    // injection, and (for the connection-oriented paradigms) by an
    // establishment of its (src, dst) connection.
    use pms::trace::{TraceEvent, Tracer};
    use std::collections::HashSet;

    let w = scatter(16, 96);
    let params = SimParams::default().with_ports(16);
    for paradigm in all_paradigms() {
        let (stats, tracer) = paradigm.run_traced(&w, &params, Tracer::vec());
        let records = tracer.records();
        assert!(
            !records.is_empty(),
            "{} produced no trace records",
            paradigm.label()
        );
        let mut injected: HashSet<u32> = HashSet::new();
        let mut established: HashSet<(u32, u32)> = HashSet::new();
        let mut delivered = 0u64;
        for rec in &records {
            match rec.event {
                TraceEvent::MsgInjected { msg, .. } => {
                    injected.insert(msg);
                }
                TraceEvent::ConnEstablished { src, dst, .. } => {
                    established.insert((src, dst));
                }
                TraceEvent::MsgDelivered { src, dst, msg, .. } => {
                    delivered += 1;
                    assert!(
                        injected.contains(&msg),
                        "{}: msg {msg} delivered before its injection event",
                        paradigm.label()
                    );
                    assert!(
                        established.contains(&(src, dst)),
                        "{}: msg {msg} ({src} -> {dst}) delivered before its \
                         connection was established",
                        paradigm.label()
                    );
                }
                _ => {}
            }
        }
        assert_eq!(
            delivered,
            stats.delivered_messages,
            "{}: trace deliveries disagree with stats",
            paradigm.label()
        );
    }
}

#[test]
fn hybrid_paradigm_runs_with_all_preload_counts() {
    let w = pms::workloads::hybrid(pms::workloads::HybridSpec {
        ports: 16,
        determinism: 0.7,
        messages_per_proc: 12,
        bytes: 64,
        seed: 5,
    });
    let params = SimParams::default().with_ports(16).with_tdm_slots(3);
    for k in 0..=2 {
        let stats = Paradigm::HybridTdm {
            preload_slots: k,
            predictor: PredictorKind::Drop,
        }
        .run(&w, &params);
        assert_eq!(stats.delivered_messages as usize, w.message_count());
    }
}

/// `simulate --pattern scatter --ports 16 --paradigm hybrid1 --timeout
/// 400 --phase-detector` emits each of the nine simulator event kinds.
#[test]
fn hybrid_with_a_phase_detector_emits_every_simulator_event_kind() {
    let w = scatter(16, 64);
    let paradigm = Paradigm::HybridTdm {
        preload_slots: 1,
        predictor: PredictorKind::Timeout(400),
    };
    let mut detector = PhaseDetectorConfig::default();
    (detector.window, detector.miss_threshold, detector.cooldown) = (8, 0.75, 16);
    let spec = RunSpec {
        phase_detector: Some(detector),
        ..RunSpec::new(&w, SimParams::default().with_ports(16), paradigm)
    };
    let (stats, tracer) = spec.validate().unwrap().run(Tracer::vec());
    assert_eq!(stats.delivered_messages, 15);
    let records = tracer.records();
    let kinds = "msg-injected msg-delivered conn-requested conn-established conn-evicted \
                 slot-advanced sched-pass preload-applied phase-flush";
    for kind in kinds.split_whitespace() {
        assert!(records.iter().any(|r| r.event.kind() == kind), "no {kind}");
    }
}

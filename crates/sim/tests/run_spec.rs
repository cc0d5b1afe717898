//! `RunSpec::validate` rejects every run the simulators cannot take with
//! a typed `RunError`, before any cycle is simulated; and every paradigm
//! delivers a zero-byte message.

use pms_faults::FaultPlan;
use pms_multistage::TorusNetwork;
use pms_predict::PhaseDetectorConfig;
use pms_sim::{
    MsTopology, MultihopWormholeSim, Paradigm, PredictorKind, RunError, RunSpec, SimParams,
    WormholeQueueing, WormholeSim,
};
use pms_trace::Tracer;
use pms_workloads::{permutation, scatter, uniform};

const DYNAMIC: Paradigm = Paradigm::DynamicTdm(PredictorKind::Drop);

fn hybrid(preload_slots: usize) -> Paradigm {
    Paradigm::HybridTdm {
        preload_slots,
        predictor: PredictorKind::Drop,
    }
}

fn params(ports: usize, slots: usize) -> SimParams {
    SimParams::default().with_ports(ports).with_tdm_slots(slots)
}

fn rejects(spec: RunSpec) -> RunError {
    match spec.validate() {
        Ok(_) => panic!("the run validated"),
        Err(e) => e,
    }
}

#[test]
fn port_mismatch_is_rejected() {
    let w = permutation(4096, 64, 1, 1);
    let e = rejects(RunSpec::new(&w, SimParams::default(), DYNAMIC));
    assert_eq!(e, RunError::PortMismatch(4096, 128));
    assert!(e.to_string().contains("holds 4096 processors"), "{e}");
}

#[test]
fn zero_slots_are_rejected() {
    let w = scatter(8, 64);
    let mut p = params(8, 4);
    p.tdm_slots = 0;
    assert_eq!(rejects(RunSpec::new(&w, p, DYNAMIC)), RunError::NoSlots);
}

#[test]
fn hybrid_cannot_preload_more_slots_than_it_has() {
    let w = scatter(8, 64);
    let e = rejects(RunSpec::new(&w, params(8, 1), hybrid(2)));
    assert_eq!(e, RunError::PreloadSlots(2, 1));
}

#[test]
fn hybrid_needs_enough_preloadable_configurations() {
    let w = uniform(8, 64, 4, 7);
    let e = rejects(RunSpec::new(&w, params(8, 4), hybrid(1)));
    assert_eq!(e, RunError::TooFewConfigs(1, 0));
}

#[test]
fn all_preloaded_hybrid_rejects_a_stranded_message() {
    // One register, preloaded with scatter's first configuration, and
    // no `preload` command: message 1 (0 -> 2) could never move.
    let w = scatter(8, 64);
    let e = rejects(RunSpec::new(&w, params(8, 1), hybrid(1)));
    assert_eq!(e, RunError::Stranded(1, 0, 2));
}

#[test]
fn phase_detector_needs_dynamic_registers() {
    // Scatter's seven configurations fill hybrid-7p's seven registers
    // and carry every message: only the detector is wrong.
    let w = scatter(8, 64);
    for (paradigm, slots) in [
        (Paradigm::Wormhole, 4),
        (Paradigm::PreloadTdm, 4),
        (hybrid(7), 7),
    ] {
        assert!(RunSpec::new(&w, params(8, slots), paradigm.clone())
            .validate()
            .is_ok());
        let spec = RunSpec {
            phase_detector: Some(PhaseDetectorConfig::default()),
            ..RunSpec::new(&w, params(8, slots), paradigm.clone())
        };
        assert_eq!(
            rejects(spec),
            RunError::PhaseDetector,
            "{}",
            paradigm.label()
        );
    }
}

#[test]
fn stage_graphs_must_exist_at_the_port_count() {
    let w = scatter(12, 64);
    let mstdm = |topology| Paradigm::MultistageTdm {
        topology,
        predictor: PredictorKind::Drop,
    };
    let e = rejects(RunSpec::new(&w, params(12, 4), mstdm(MsTopology::Omega)));
    assert!(
        matches!(&e, RunError::Fabric(topology, 12, _) if topology == "omega"),
        "{e:?}"
    );
    let fat_tree = MsTopology::FatTree { arity: 4, ratio: 3 };
    let e = rejects(RunSpec::new(&w, params(12, 4), mstdm(fat_tree)));
    assert!(
        matches!(&e, RunError::Fabric(_, 12, need) if need.contains("ratio")),
        "{e:?}"
    );
}

#[test]
fn fault_plan_ports_must_exist() {
    let w = uniform(16, 64, 4, 7);
    let spec = RunSpec {
        plan: FaultPlan::parse("link-down start=0 dur=1000 src=0 dst=99").unwrap(),
        ..RunSpec::new(&w, params(16, 4), DYNAMIC)
    };
    assert_eq!(rejects(spec), RunError::FaultPort(99, 16));
}

#[test]
fn zero_byte_messages_deliver_under_every_paradigm() {
    let w = scatter(4, 0);
    let p = params(4, 4);
    let mstdm = Paradigm::MultistageTdm {
        topology: MsTopology::Omega,
        predictor: PredictorKind::Drop,
    };
    for paradigm in [
        Paradigm::Wormhole,
        Paradigm::Circuit,
        DYNAMIC,
        Paradigm::PreloadTdm,
        hybrid(1),
        mstdm,
    ] {
        let spec = RunSpec::new(&w, p.clone(), paradigm.clone());
        let (stats, _) = spec.validate().unwrap().run(Tracer::Null);
        assert_eq!(stats.delivered_messages, 3, "{}", paradigm.label());
        assert_eq!(stats.delivered_bytes, 0, "{}", paradigm.label());
    }
    let voq = WormholeSim::with_queueing(&w, &p, WormholeQueueing::Voq).run();
    assert_eq!(voq.delivered_messages, 3, "wormhole with VOQs");
    let torus = MultihopWormholeSim::new(&w, &p, TorusNetwork::new(2, 2, 1)).run();
    assert_eq!(torus.delivered_messages, 3, "multihop torus");
}

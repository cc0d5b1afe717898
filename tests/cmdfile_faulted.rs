//! End-to-end: a command-file schedule — the on-disk artifact the paper's
//! simulator consumed — parsed back into a workload, compiled into
//! preloaded TDM configurations by `pms-compile`, and executed by the
//! *faulted* TDM simulator.
//!
//! The chain under test: workload -> `to_command_files` ->
//! `from_command_files` -> phase partitioning / edge coloring (inside
//! `Paradigm::PreloadTdm`) -> `TdmSim` with a `FaultPlan` attached.

use pms::faults::{FaultKind, FaultPlan};
use pms::sim::RunSpec;
use pms::trace::{TraceEvent, Tracer};
use pms::workloads::{two_phase, uniform, MeshSpec, Workload};
use pms::{Paradigm, PredictorKind, SimParams, SimStats};

/// Runs `paradigm` on `w` under `plan` through the validated entry point.
fn run_with_plan(
    paradigm: &Paradigm,
    w: &Workload,
    params: &SimParams,
    plan: FaultPlan,
    tracer: Tracer,
) -> (SimStats, Tracer) {
    let spec = RunSpec {
        plan,
        ..RunSpec::new(w, params.clone(), paradigm.clone())
    };
    spec.validate().expect("valid run").run(tracer)
}

fn params(ports: usize) -> SimParams {
    let mut p = SimParams::default().with_ports(ports);
    p.tdm_slots = 8;
    p.max_sim_ns = 500_000;
    p
}

/// Round-trips a workload through the command-file text format.
fn via_command_files(w: &Workload) -> Workload {
    let files = w.to_command_files();
    Workload::from_command_files(w.name.clone(), &files)
        .unwrap_or_else(|(p, e)| panic!("processor {p} command file failed to parse: {e:?}"))
}

#[test]
fn command_file_schedule_survives_link_faults_in_preload_mode() {
    let ports = 16;
    let w = via_command_files(&two_phase(MeshSpec::for_ports(ports), 64, 4, 0, 0, 21));
    let mut plan = FaultPlan::new();
    // A link goes dark mid-run, then heals; a second window hits another
    // pair later. Both are bounded, so traffic must fully recover.
    plan.push(500, 3_000, FaultKind::LinkDown { src: 0, dst: 1 });
    plan.push(2_000, 2_500, FaultKind::LinkDown { src: 5, dst: 4 });
    let (stats, tracer) = run_with_plan(
        &Paradigm::PreloadTdm,
        &w,
        &params(ports),
        plan,
        Tracer::vec(),
    );
    assert_eq!(stats.delivered_messages as usize, w.message_count());
    assert_eq!(stats.delivered_bytes, w.total_bytes());
    assert_eq!(stats.msgs_abandoned, 0);
    // The faults were actually seen, and evictions traced.
    let records = tracer.records();
    assert!(records
        .iter()
        .any(|r| matches!(r.event, TraceEvent::FaultInjected { .. })));
    assert!(records
        .iter()
        .any(|r| matches!(r.event, TraceEvent::FaultCleared { .. })));
}

#[test]
fn command_file_round_trip_is_byte_identical_under_faults() {
    // The round-trip through the text format must not perturb a faulted
    // run in any way: same stats, same trace.
    let ports = 16;
    let original = uniform(ports, 64, 24, 7);
    let roundtrip = via_command_files(&original);
    let plan = || {
        let mut p = FaultPlan::new();
        p.push(300, 2_000, FaultKind::LinkDown { src: 1, dst: 2 });
        p.push(1_000, 1_500, FaultKind::GrantDrop { src: 3, dst: 0 });
        p
    };
    for paradigm in [
        Paradigm::PreloadTdm,
        Paradigm::DynamicTdm(PredictorKind::Timeout(400)),
    ] {
        let (a_stats, a_trace) =
            run_with_plan(&paradigm, &original, &params(ports), plan(), Tracer::vec());
        let (b_stats, b_trace) =
            run_with_plan(&paradigm, &roundtrip, &params(ports), plan(), Tracer::vec());
        assert_eq!(a_stats, b_stats, "{}: stats diverged", paradigm.label());
        assert_eq!(
            a_trace.records(),
            b_trace.records(),
            "{}: trace diverged",
            paradigm.label()
        );
    }
}

#[test]
fn command_file_schedule_through_faulted_multistage_tdm() {
    // The same artifact drives the multi-stage paradigm: a fat tree with
    // a transient link fault still delivers the compiled schedule.
    use pms::sim::MsTopology;
    let ports = 16;
    let w = via_command_files(&uniform(ports, 64, 16, 5));
    let mut plan = FaultPlan::new();
    plan.push(400, 2_000, FaultKind::LinkDown { src: 2, dst: 9 });
    let paradigm = Paradigm::MultistageTdm {
        topology: MsTopology::FatTree { arity: 4, ratio: 2 },
        predictor: PredictorKind::Timeout(400),
    };
    let (stats, _) = run_with_plan(&paradigm, &w, &params(ports), plan, Tracer::vec());
    assert_eq!(stats.delivered_messages as usize, w.message_count());
    assert_eq!(stats.delivered_bytes, w.total_bytes());
    assert_eq!(stats.msgs_abandoned, 0);
}

//! Byte-identity of the idle time skip: for every paradigm, running with
//! `idle_skip` on and off must produce identical statistics AND identical
//! trace records — the skip is a pure wall-clock optimization, invisible
//! in every observable output. Workloads here have long communication
//! gaps (tens of microseconds of compute) so the skip actually engages:
//! the step-by-step path burns hundreds of slot/pass boundaries per gap.

use pms_bitmat::BitMatrix;
use pms_faults::{FaultKind, FaultPlan};
use pms_predict::PhaseDetectorConfig;
use pms_sim::{Paradigm, PredictorKind, RunSpec, SimParams, SimStats, TdmMode, TdmSim};
use pms_trace::Tracer;
use pms_workloads::{Program, Workload};

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

const PORTS: usize = 8;

/// A workload whose senders sleep for long stretches between messages,
/// including a barrier after the first burst (the engine holds procs at
/// the barrier until the fabric drains — another all-idle stretch).
fn gappy_workload() -> Workload {
    let mut programs = vec![Program::new(); PORTS];
    programs[0]
        .send(1, 64)
        .delay(40_000)
        .send(2, 256)
        .barrier()
        .delay(60_000)
        .send(3, 64);
    programs[1]
        .delay(10_000)
        .send(4, 512)
        .barrier()
        .delay(5_000);
    programs[2].barrier().delay(25_000).send(5, 24);
    for p in programs.iter_mut().skip(3) {
        p.barrier();
    }
    // Preloadable patterns for the hybrid paradigm: the first burst's
    // pairs, split across two configurations.
    let pats = vec![vec![
        BitMatrix::from_pairs(PORTS, PORTS, [(0, 1), (1, 4)]),
        BitMatrix::from_pairs(PORTS, PORTS, [(0, 2), (2, 5)]),
    ]];
    Workload::new("gappy", PORTS, programs).with_patterns(pats)
}

/// Eight messages from four senders, 200 us of compute between sends,
/// on 128 ports: every bit-matrix row spans two words, and each gap
/// skips about 2000 slot boundaries.
fn sparse128_workload() -> Workload {
    let ports = 128;
    let mut programs = vec![Program::new(); ports];
    for m in 0..8 {
        programs[m % 4].send((m + 1) % ports, 64).delay(200_000);
    }
    Workload::new("sparse128", ports, programs)
}

fn paradigms() -> Vec<Paradigm> {
    vec![
        Paradigm::Wormhole,
        Paradigm::Circuit,
        Paradigm::DynamicTdm(PredictorKind::Drop),
        Paradigm::DynamicTdm(PredictorKind::Timeout(700)),
        Paradigm::DynamicTdm(PredictorKind::Never),
        Paradigm::DynamicTdm(PredictorKind::RefCount(3)),
        Paradigm::PreloadTdm,
        Paradigm::HybridTdm {
            preload_slots: 2,
            predictor: PredictorKind::Timeout(700),
        },
    ]
}

fn params(idle_skip: bool) -> SimParams {
    SimParams::default()
        .with_ports(PORTS)
        .with_idle_skip(idle_skip)
}

#[test]
fn stats_and_traces_identical_across_paradigms() {
    let cases = [
        (gappy_workload(), paradigms()),
        (
            sparse128_workload(),
            vec![Paradigm::Circuit, Paradigm::DynamicTdm(PredictorKind::Drop)],
        ),
    ];
    for (w, ps) in &cases {
        for p in ps {
            let skip = params(true).with_ports(w.ports);
            let stepped = params(false).with_ports(w.ports);
            let (fast_stats, fast_tracer) = p.run_traced(w, &skip, Tracer::vec());
            let (slow_stats, slow_tracer) = p.run_traced(w, &stepped, Tracer::vec());
            assert_eq!(
                fast_stats,
                slow_stats,
                "{} {}: stats diverge",
                w.name,
                p.label()
            );
            assert_eq!(
                fast_tracer.records(),
                slow_tracer.records(),
                "{} {}: trace records diverge",
                w.name,
                p.label()
            );
            assert!(
                fast_stats.delivered_messages > 0,
                "{} {}: workload delivered nothing — test is vacuous",
                w.name,
                p.label()
            );
        }
    }
}

#[test]
fn untraced_runs_match_traced_stats() {
    // The skip has two implementations (per-boundary ticks when traced,
    // closed form when not); both must agree with each other and with the
    // step-by-step path.
    let w = gappy_workload();
    for p in paradigms() {
        let untraced = p.run(&w, &params(true));
        let (traced, _) = p.run_traced(&w, &params(true), Tracer::vec());
        let seed = p.run(&w, &params(false));
        assert_eq!(untraced, traced, "{}: tracer changes outcome", p.label());
        assert_eq!(untraced, seed, "{}: skip changes outcome", p.label());
    }
}

#[test]
fn faulted_runs_identical_with_and_without_skip() {
    // Fault transitions land inside the idle gaps: the skip must stop at
    // each boundary and replay teardown/heal exactly like the seed path.
    let w = gappy_workload();
    let mut plan = FaultPlan::new();
    plan.push(15_000, 20_000, FaultKind::LinkDown { src: 0, dst: 2 });
    plan.push(30_000, 45_000, FaultKind::StuckRelease { src: 1, dst: 4 });
    plan.push(0, 200_000, FaultKind::GrantDrop { src: 0, dst: 3 });
    for p in paradigms() {
        let (fast_stats, fast_tracer) =
            run_with_plan(&p, &w, &params(true), plan.clone(), Tracer::vec());
        let (slow_stats, slow_tracer) =
            run_with_plan(&p, &w, &params(false), plan.clone(), Tracer::vec());
        assert_eq!(
            fast_stats,
            slow_stats,
            "{}: faulted stats diverge",
            p.label()
        );
        assert_eq!(
            fast_tracer.records(),
            slow_tracer.records(),
            "{}: faulted trace records diverge",
            p.label()
        );
    }
}

#[test]
fn phase_detector_runs_identical_with_and_without_skip() {
    // The phase detector only sees request-matrix lookups, which cannot
    // occur while idle — but it shares the pass path, so check the full
    // traced pipeline around it.
    let w = gappy_workload();
    let run = |skip: bool| {
        TdmSim::new(
            &w,
            &params(skip),
            TdmMode::Hybrid {
                preload_slots: 1,
                predictor: PredictorKind::Timeout(700),
            },
        )
        .with_phase_detector(PhaseDetectorConfig::default())
        .with_tracer(Tracer::vec())
        .run_traced()
    };
    let (fast_stats, fast_tracer) = run(true);
    let (slow_stats, slow_tracer) = run(false);
    assert_eq!(fast_stats, slow_stats);
    assert_eq!(fast_tracer.records(), slow_tracer.records());
}

#[test]
fn skip_reduces_main_loop_iterations_observably() {
    // Not a timing assertion (CI-safe): the skipped run must visit far
    // fewer scheduler passes than... it cannot — passes are part of the
    // semantics and must match exactly. Instead check the semantics the
    // skip preserves: a 60 us gap really does cost hundreds of passes in
    // BOTH modes (so the closed-form catch-up is exercised, not bypassed).
    let stats = Paradigm::DynamicTdm(PredictorKind::Drop).run(&gappy_workload(), &params(true));
    assert!(
        stats.sched_passes > 1_000,
        "expected >1000 passes across the gaps, got {}",
        stats.sched_passes
    );
}

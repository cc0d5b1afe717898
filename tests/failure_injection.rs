//! Failure injection: adversarial programs and configurations must fail
//! loudly (deadlock guards, validation panics) rather than silently
//! mis-simulate.

use pms::sim::{RunError, RunSpec};
use pms::workloads::{Program, Workload};
use pms::{Paradigm, PredictorKind, SimParams};

/// A short deadline so guard tests fail fast instead of simulating 500 ms.
fn tight_params(ports: usize) -> SimParams {
    let mut p = SimParams::default().with_ports(ports);
    p.max_sim_ns = 200_000;
    p
}

#[test]
fn lopsided_barriers_release_cleanly() {
    // Only processor 0 has a barrier; everyone else finishes immediately.
    // Barrier release fires when every processor is parked *or done*, so
    // finite programs can never deadlock on barriers.
    let mut programs = vec![Program::new(); 4];
    programs[0].barrier();
    programs[0].send(1, 64);
    let w = Workload::new("half-barrier", 4, programs);
    let stats = Paradigm::DynamicTdm(PredictorKind::Drop).run(&w, &tight_params(4));
    assert_eq!(stats.delivered_messages, 1);
}

#[test]
fn traffic_with_no_dynamic_slot_is_rejected_before_the_run() {
    // All K registers preloaded with a pattern that does not cover the
    // traffic: the dynamic request has nowhere to go, so validation
    // rejects the run before any cycle is simulated, instead of letting
    // it hang until the deadlock guard.
    let w = pms::workloads::hybrid(pms::workloads::HybridSpec {
        ports: 8,
        determinism: 0.0, // traffic is uniform random...
        messages_per_proc: 4,
        bytes: 64,
        seed: 2,
    });
    let mut params = tight_params(8);
    params.tdm_slots = 2; // ...and both slots are preloaded static shifts
    let paradigm = Paradigm::HybridTdm {
        preload_slots: 2,
        predictor: PredictorKind::Drop,
    };
    let err = RunSpec::new(&w, params.clone(), paradigm.clone())
        .validate()
        .err()
        .expect("must not hang or silently drop traffic");
    assert!(matches!(err, RunError::Stranded { .. }), "{err:?}");
    let result = std::panic::catch_unwind(|| paradigm.run(&w, &params));
    let panic = result.expect_err("Paradigm::run panics on a rejected run");
    let msg = panic.downcast_ref::<String>().cloned().unwrap_or_default();
    assert_eq!(msg, err.to_string());
}

#[test]
fn never_evict_overcommit_trips_the_guard_not_silence() {
    // A working set larger than K x N capacity with NeverEvict latching
    // livelocks by design (§3.2's motivation for eviction); the simulator
    // must surface that as a deadline panic.
    let n = 8;
    let mut programs = vec![Program::new(); n];
    // Every processor cycles through all destinations: working set = n*(n-1)
    // with only 2 registers.
    for round in 1..n {
        for (p, prog) in programs.iter_mut().enumerate() {
            prog.send((p + round) % n, 64);
        }
    }
    let w = Workload::new("overcommit", n, programs);
    let mut params = tight_params(n);
    params.tdm_slots = 2;
    let result =
        std::panic::catch_unwind(|| Paradigm::DynamicTdm(PredictorKind::Never).run(&w, &params));
    assert!(result.is_err(), "latched overcommit must hit the guard");
    // The same workload with the timeout predictor completes: eviction is
    // exactly what unblocks it.
    let mut ok_params = tight_params(n);
    ok_params.tdm_slots = 2;
    ok_params.max_sim_ns = 5_000_000;
    let stats = Paradigm::DynamicTdm(PredictorKind::Timeout(400)).run(&w, &ok_params);
    assert_eq!(stats.delivered_messages as usize, w.message_count());
}

#[test]
fn workload_validation_rejects_malformed_programs() {
    // Out-of-range destination.
    assert!(std::panic::catch_unwind(|| {
        let mut p = Program::new();
        p.send(9, 64);
        Workload::new(
            "bad",
            4,
            vec![p, Program::new(), Program::new(), Program::new()],
        )
    })
    .is_err());
    // Self-send.
    assert!(std::panic::catch_unwind(|| {
        let mut p = Program::new();
        p.send(0, 64);
        Workload::new(
            "self",
            4,
            vec![p, Program::new(), Program::new(), Program::new()],
        )
    })
    .is_err());
}

#[test]
fn preload_command_with_missing_pattern_is_ignored_not_fatal() {
    // A `preload 7` referencing a pattern the workload never defined is a
    // no-op (the NIC asked for a configuration that does not exist); the
    // traffic still flows dynamically.
    let text = "preload 7\nsend 1 64\n";
    let mut programs = vec![pms::workloads::parse_program(text).unwrap()];
    for _ in 1..4 {
        programs.push(Program::new());
    }
    let w = Workload::new("ghost-preload", 4, programs);
    let stats = Paradigm::DynamicTdm(PredictorKind::Drop).run(&w, &tight_params(4));
    assert_eq!(stats.delivered_messages, 1);
    assert_eq!(stats.preload_loads, 0);
}

#[test]
fn scheduler_rejects_corrupt_preload_configurations() {
    use pms::{BitMatrix, Scheduler, SchedulerConfig};
    let mut sched = Scheduler::new(SchedulerConfig::new(4, 2));
    let conflicting = BitMatrix::from_pairs(4, 4, [(0, 1), (2, 1)]);
    assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        sched.preload(0, conflicting);
    }))
    .is_err());
}

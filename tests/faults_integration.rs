//! Fault-injection integration: the `pms-faults` plan wired through every
//! simulator paradigm. Covers the subsystem's three headline guarantees:
//!
//! 1. an empty plan is a strict no-op (byte-identical stats and traces);
//! 2. fault windows degrade service but traffic recovers after the clear
//!    — preloaded TDM within one TDM period of `FaultCleared`;
//! 3. retry budgets are honored: transient NIC faults abandon messages
//!    only after the budget, dropped grants retry forever but never drop.

use pms::faults::{FaultKind, FaultPlan, RetryPolicy};
use pms::sim::RunSpec;
use pms::trace::{TraceEvent, Tracer};
use pms::workloads::scatter;
use pms::workloads::Workload;
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

/// Short deadline + a TDM period wide enough to hold scatter's stream.
fn params(ports: usize) -> SimParams {
    let mut p = SimParams::default().with_ports(ports);
    p.tdm_slots = 8;
    p.max_sim_ns = 200_000;
    p
}

fn four_paradigms() -> Vec<Paradigm> {
    vec![
        Paradigm::Wormhole,
        Paradigm::Circuit,
        Paradigm::DynamicTdm(PredictorKind::Drop),
        Paradigm::PreloadTdm,
    ]
}

#[test]
fn empty_plan_is_byte_identical_for_every_paradigm() {
    let w = scatter(8, 256);
    let p = params(8);
    let mut paradigms = four_paradigms();
    paradigms.push(Paradigm::HybridTdm {
        preload_slots: 2,
        predictor: PredictorKind::Drop,
    });
    for paradigm in paradigms {
        let (base_stats, base_trace) = paradigm.run_traced(&w, &p, Tracer::vec());
        let (stats, trace) = run_with_plan(&paradigm, &w, &p, FaultPlan::new(), Tracer::vec());
        assert_eq!(
            base_stats,
            stats,
            "{}: empty plan must not perturb stats",
            paradigm.label()
        );
        assert_eq!(
            base_trace.records(),
            trace.records(),
            "{}: empty plan must not perturb the trace",
            paradigm.label()
        );
        // And the faulted entry point itself is deterministic.
        let (again, _) = run_with_plan(&paradigm, &w, &p, FaultPlan::new(), Tracer::vec());
        assert_eq!(stats, again, "{}: nondeterministic rerun", paradigm.label());
    }
}

#[test]
fn link_down_window_delays_but_still_delivers() {
    let w = scatter(8, 256);
    let p = params(8);
    for paradigm in four_paradigms() {
        let mut plan = FaultPlan::new();
        plan.push(200, 2_000, FaultKind::LinkDown { src: 0, dst: 1 });
        let (stats, trace) = run_with_plan(&paradigm, &w, &p, plan, Tracer::vec());
        assert_eq!(
            stats.delivered_messages,
            7,
            "{}: traffic must survive a transient link fault",
            paradigm.label()
        );
        assert_eq!(stats.msgs_abandoned, 0, "{}", paradigm.label());
        let records = trace.records();
        assert!(
            records.iter().any(|r| matches!(
                r.event,
                TraceEvent::FaultInjected { src: 0, dst: 1, .. }
            ) && r.t_ns == 200),
            "{}: injection must be traced at the scheduled boundary",
            paradigm.label()
        );
        assert!(
            records.iter().any(|r| matches!(
                r.event,
                TraceEvent::FaultCleared { src: 0, dst: 1, .. }
            ) && r.t_ns == 2_200),
            "{}: clear must be traced at the scheduled boundary",
            paradigm.label()
        );
    }
}

#[test]
fn preload_tdm_recovers_a_broken_pipe_within_one_tdm_period() {
    let w = scatter(8, 256);
    let p = params(8);
    let mut plan = FaultPlan::new();
    plan.push(200, 2_000, FaultKind::LinkDown { src: 0, dst: 1 });
    let (stats, trace) = run_with_plan(&Paradigm::PreloadTdm, &w, &p, plan, Tracer::vec());
    assert_eq!(stats.delivered_messages, 7);

    let records = trace.records();
    let cleared_at = records
        .iter()
        .find(|r| matches!(r.event, TraceEvent::FaultCleared { src: 0, dst: 1, .. }))
        .expect("fault must clear")
        .t_ns;
    let period_ns = p.tdm_slots as u64 * p.slot_ns;
    let reestablished = records.iter().any(|r| {
        matches!(r.event, TraceEvent::ConnEstablished { src: 0, dst: 1, .. })
            && r.t_ns >= cleared_at
            && r.t_ns <= cleared_at + period_ns
    });
    assert!(
        reestablished,
        "preloaded pipe 0->1 must re-establish within one TDM period \
         ({period_ns} ns) of the clear at {cleared_at} ns"
    );
    // The pipe was actually torn down in between, not merely re-announced.
    assert!(records.iter().any(|r| matches!(
        r.event,
        TraceEvent::ConnEvicted {
            src: 0,
            dst: 1,
            cause: pms::trace::EvictCause::Fault,
        }
    )));
}

#[test]
fn nic_transient_abandons_only_after_the_retry_budget() {
    let w = scatter(8, 256);
    let p = params(8);
    for paradigm in four_paradigms() {
        let mut plan = FaultPlan::new();
        plan.retry = RetryPolicy {
            max_retries: 2,
            backoff_base_ns: 100,
            backoff_max_ns: 1_000,
        };
        // Never clears: every completion from port 0 fails.
        plan.push(0, u64::MAX, FaultKind::NicTransient { port: 0 });
        let (stats, trace) = run_with_plan(&paradigm, &w, &p, plan, Tracer::vec());
        assert_eq!(
            stats.delivered_messages,
            0,
            "{}: a dead NIC delivers nothing",
            paradigm.label()
        );
        assert_eq!(stats.msgs_abandoned, 7, "{}", paradigm.label());
        assert_eq!(
            stats.msg_retries,
            7 * 2,
            "{}: every message burns its full budget first",
            paradigm.label()
        );
        let records = trace.records();
        let abandoned = records
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::MsgAbandoned { retries: 2, .. }))
            .count();
        assert_eq!(abandoned, 7, "{}", paradigm.label());
    }
}

#[test]
fn grant_drops_retry_with_backoff_but_never_abandon() {
    let w = scatter(8, 256);
    let p = params(8);
    for paradigm in [
        Paradigm::Wormhole,
        Paradigm::DynamicTdm(PredictorKind::Drop),
    ] {
        let mut plan = FaultPlan::new();
        plan.push(0, 3_000, FaultKind::GrantDrop { src: 0, dst: 1 });
        let (stats, trace) = run_with_plan(&paradigm, &w, &p, plan, Tracer::vec());
        assert_eq!(stats.delivered_messages, 7, "{}", paradigm.label());
        assert_eq!(
            stats.msgs_abandoned,
            0,
            "{}: dropped grants retry, they never abandon",
            paradigm.label()
        );
        assert!(
            stats.msg_retries > 0,
            "{}: a 3 us drop window must force at least one retry",
            paradigm.label()
        );
        let attempts: Vec<u32> = trace
            .records()
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::MsgRetried { attempt, .. } => Some(attempt),
                _ => None,
            })
            .collect();
        assert_eq!(attempts.len() as u64, stats.msg_retries);
        assert!(
            attempts.windows(2).all(|w| w[1] >= w[0] || w[1] == 1),
            "{}: attempts grow monotonically until the drop state resets",
            paradigm.label()
        );
    }
}

#[test]
fn periodic_fault_windows_reuse_the_fault_id() {
    let w = scatter(8, 512);
    let p = params(8);
    let mut plan = FaultPlan::new();
    plan.push_periodic(100, 300, 1_000, FaultKind::LinkDown { src: 0, dst: 2 });
    let (stats, trace) = run_with_plan(
        &Paradigm::DynamicTdm(PredictorKind::Drop),
        &w,
        &p,
        plan,
        Tracer::vec(),
    );
    assert_eq!(stats.delivered_messages, 7);
    let ids: Vec<u32> = trace
        .records()
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::FaultInjected { fault, .. } => Some(fault),
            _ => None,
        })
        .collect();
    assert!(ids.len() > 1, "periodic fault must fire more than once");
    assert!(ids.iter().all(|&id| id == 0), "stable plan-assigned id");
}

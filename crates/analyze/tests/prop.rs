//! Property tests for the alert engine's determinism contract: the
//! alert event stream is a pure function of the trace plus the rules.
//! For random workloads, fault plans, and rule parameters, the
//! `AlertRaised`/`AlertCleared` records a live pipelined run emits must
//! be bit-identical to what JSONL round-tripping preserves AND to what
//! re-evaluating the same rules over the replayed snapshot stream
//! produces ([`pms_trace::replay_alerts`]).

use pms_analyze::parse_jsonl;
use pms_faults::{FaultKind, FaultPlan};
use pms_sim::{Paradigm, PredictorKind, RunSpec, SimParams, SimStats};
use pms_trace::{
    record_json, replay_alerts, AlertRules, SnapshotConfig, TraceEvent, TraceRecord, Tracer,
    DEFAULT_WINDOW_SLOTS,
};
use pms_workloads::{Program, Workload};
use proptest::prelude::*;

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

fn workload_strategy() -> impl Strategy<Value = Workload> {
    let cmd = prop_oneof![
        4 => (0..PORTS, prop::sample::select(vec![8u32, 64, 200, 512]))
            .prop_map(|(dst, bytes)| (Some(dst), bytes as u64)),
        1 => (1u64..2_000).prop_map(|ns| (None, ns)),
    ];
    prop::collection::vec(prop::collection::vec(cmd, 0..8), PORTS).prop_map(|proc_cmds| {
        let programs: Vec<Program> = proc_cmds
            .into_iter()
            .enumerate()
            .map(|(p, cmds)| {
                let mut prog = Program::new();
                for c in cmds {
                    match c {
                        (Some(dst), bytes) => {
                            let d = if dst == p { (dst + 1) % PORTS } else { dst };
                            prog.send(d, bytes as u32);
                        }
                        (None, ns) => {
                            prog.delay(ns);
                        }
                    }
                }
                prog
            })
            .collect();
        Workload::new("alert-prop", PORTS, programs)
    })
}

/// Random but always-parseable rules files exercising all three rule
/// kinds with varying thresholds and hysteresis.
fn rules_strategy() -> impl Strategy<Value = AlertRules> {
    (
        (1u64..6, 1u32..3, 1u32..3, 0u32..4), // value, for, clear-for, cooldown
        (1u32..4, 2u32..6),                   // anomaly z, warmup
        prop::sample::select(vec!["delivered", "retries", "established", "bytes"]),
    )
        .prop_map(
            |((value, for_n, clear_for, cooldown), (z, warmup), metric)| {
                let text = format!(
                    "threshold name=t metric={metric} op=ge value={value} for={for_n} \
                 clear-for={clear_for} cooldown={cooldown}\n\
                 rate name=r metric=delivered op=lt value=-2\n\
                 anomaly name=a metric=setup-max-ns z={z} warmup={warmup}\n"
                );
                AlertRules::parse(&text).expect("generated rules parse")
            },
        )
}

fn fault_plan(faulted: bool) -> FaultPlan {
    let mut plan = FaultPlan::new();
    if faulted {
        plan.push(300, 2_000, FaultKind::LinkDown { src: 1, dst: 2 })
            .push(0, 1_500, FaultKind::StuckGrant { src: 2, dst: 3 })
            .push(500, 800, FaultKind::NicTransient { port: 4 });
    }
    plan
}

fn alert_records(records: &[TraceRecord]) -> Vec<TraceRecord> {
    records
        .iter()
        .filter(|r| {
            matches!(
                r.event,
                TraceEvent::AlertRaised { .. } | TraceEvent::AlertCleared { .. }
            )
        })
        .cloned()
        .collect()
}

fn to_jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&record_json(r).render());
        out.push('\n');
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Same trace + same rules => identical alert event stream, live
    /// versus JSONL replay, for every paradigm with and without faults.
    #[test]
    fn alert_stream_is_identical_live_and_replayed(
        w in workload_strategy(),
        rules in rules_strategy(),
        faulted in 0u32..2,
    ) {
        let faulted = faulted == 1;
        let params = SimParams::default().with_ports(PORTS);
        let cfg = SnapshotConfig::per_slots(params.slot_ns, DEFAULT_WINDOW_SLOTS);
        let paradigms = [
            Paradigm::Wormhole,
            Paradigm::Circuit,
            Paradigm::DynamicTdm(PredictorKind::Timeout(300)),
            Paradigm::PreloadTdm,
        ];
        for p in paradigms {
            let tracer = Tracer::pipeline(cfg, Some(rules.clone()), Tracer::vec());
            let (_, tracer) = run_with_plan(&p, &w, &params, fault_plan(faulted), tracer);
            let live = tracer.records();
            let live_alerts = alert_records(&live);

            // Live reruns are bit-identical: the engine has no hidden state.
            let tracer2 = Tracer::pipeline(cfg, Some(rules.clone()), Tracer::vec());
            let (_, tracer2) = run_with_plan(&p, &w, &params, fault_plan(faulted), tracer2);
            prop_assert_eq!(
                &live_alerts,
                &alert_records(&tracer2.records()),
                "{}: live reruns disagree", p.label()
            );

            // The JSONL round trip preserves the alert stream exactly.
            let replay = parse_jsonl(&to_jsonl(&live))
                .unwrap_or_else(|e| panic!("{}: replay failed: {e}", p.label()));
            prop_assert_eq!(replay.skipped_unknown, 0, "{}", p.label());
            prop_assert_eq!(
                &live_alerts,
                &alert_records(&replay.records),
                "{}: round trip altered the alert stream", p.label()
            );

            // Re-evaluating the same rules over the replayed snapshot
            // stream regenerates the very same alert records.
            prop_assert_eq!(
                &live_alerts,
                &replay_alerts(&replay.records, &rules),
                "{}: replayed engine disagrees with live engine", p.label()
            );
        }
    }
}

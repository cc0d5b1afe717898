//! Property tests over the simulators: conservation, determinism,
//! latency sanity, and causal-span pairing for random small workloads
//! under every paradigm.

use pms_faults::{FaultKind, FaultPlan};
use pms_multistage::TorusNetwork;
use pms_sim::{
    MsTopology, MultihopWormholeSim, Paradigm, PredictorKind, RunSpec, SimParams, SimStats,
};
use pms_trace::{TraceEvent, TraceRecord, Tracer};
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

#[derive(Debug, Clone)]
enum Cmd {
    Send { dst: usize, bytes: u32 },
    Delay { ns: u64 },
}

fn cmd_strategy() -> impl Strategy<Value = Cmd> {
    prop_oneof![
        4 => (0..PORTS, prop::sample::select(vec![8u32, 24, 64, 200, 512]))
            .prop_map(|(dst, bytes)| Cmd::Send { dst, bytes }),
        1 => (1u64..2_000).prop_map(|ns| Cmd::Delay { ns }),
    ]
}

fn workload_strategy() -> impl Strategy<Value = Workload> {
    prop::collection::vec(prop::collection::vec(cmd_strategy(), 0..10), PORTS).prop_map(
        |proc_cmds| {
            let programs: Vec<Program> = proc_cmds
                .into_iter()
                .enumerate()
                .map(|(p, cmds)| {
                    let mut prog = Program::new();
                    for c in cmds {
                        match c {
                            Cmd::Send { dst, bytes } => {
                                // Skew self-sends to the next port.
                                let d = if dst == p { (dst + 1) % PORTS } else { dst };
                                prog.send(d, bytes);
                            }
                            Cmd::Delay { ns } => {
                                prog.delay(ns);
                            }
                        }
                    }
                    prog
                })
                .collect();
            Workload::new("prop", PORTS, programs)
        },
    )
}

fn paradigms() -> Vec<Paradigm> {
    vec![
        Paradigm::Wormhole,
        Paradigm::Circuit,
        Paradigm::DynamicTdm(PredictorKind::Drop),
        Paradigm::DynamicTdm(PredictorKind::Timeout(300)),
        Paradigm::PreloadTdm,
    ]
}

/// Checks the causal-span contract over one traced run's records:
/// every `SpanStart` is closed by exactly one `SpanEnd` carrying the
/// same span id at a time no earlier than the start, and no `SpanEnd`
/// is orphaned. Returns a description of the first violation.
fn check_span_pairing(records: &[TraceRecord], label: &str) -> Result<(), String> {
    use std::collections::HashMap;
    // span id -> (start t_ns, starts seen, ends seen)
    let mut spans: HashMap<u32, (u64, u32, u32)> = HashMap::new();
    for rec in records {
        match rec.event {
            TraceEvent::SpanStart { span, .. } => {
                let e = spans.entry(span).or_insert((rec.t_ns, 0, 0));
                e.1 += 1;
            }
            TraceEvent::SpanEnd { span, .. } => match spans.get_mut(&span) {
                Some(e) => {
                    if rec.t_ns < e.0 {
                        return Err(format!(
                            "{label}: span {span} ends at {} before its start at {}",
                            rec.t_ns, e.0
                        ));
                    }
                    e.2 += 1;
                }
                None => return Err(format!("{label}: span {span} ended without a start")),
            },
            _ => {}
        }
    }
    for (span, (_, starts, ends)) in spans {
        if starts != 1 || ends != 1 {
            return Err(format!(
                "{label}: span {span} has {starts} starts and {ends} ends (want 1/1)"
            ));
        }
    }
    Ok(())
}

/// A small deterministic fault plan that exercises retry, eviction, and
/// stuck-grant teardown paths without making delivery impossible.
fn span_fault_plan() -> FaultPlan {
    let mut plan = FaultPlan::new();
    plan.push(300, 2_000, FaultKind::LinkDown { src: 1, dst: 2 })
        .push(0, 1_500, FaultKind::StuckGrant { src: 2, dst: 3 })
        .push(500, 800, FaultKind::NicTransient { port: 4 });
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every paradigm delivers every byte of every message, and latencies
    /// are at least the physical path latency.
    #[test]
    fn all_paradigms_conserve_and_terminate(w in workload_strategy()) {
        let params = SimParams::default().with_ports(PORTS);
        for p in paradigms() {
            let stats = p.run(&w, &params);
            prop_assert_eq!(
                stats.delivered_messages as usize,
                w.message_count(),
                "{} lost messages", p.label()
            );
            prop_assert_eq!(stats.delivered_bytes, w.total_bytes());
            if w.message_count() > 0 {
                // No message can beat serialization + wire propagation.
                prop_assert!(
                    stats.latency_samples[0] >= params.link.path_latency_lvds_ns(),
                    "{}: latency below physical floor", p.label()
                );
            }
        }
    }

    /// Bit-identical reruns: the simulators have no hidden state.
    #[test]
    fn reruns_are_bit_identical(w in workload_strategy()) {
        let params = SimParams::default().with_ports(PORTS);
        for p in paradigms() {
            let a = p.run(&w, &params);
            let b = p.run(&w, &params);
            prop_assert_eq!(a, b, "{} differs between runs", p.label());
        }
    }

    /// With a single sender, no paradigm exceeds the sender's link rate.
    #[test]
    fn single_sender_bounded_by_link_rate(
        sends in prop::collection::vec(
            (1..PORTS, prop::sample::select(vec![64u32, 512, 2048])), 1..12)
    ) {
        let mut programs = vec![Program::new(); PORTS];
        for (dst, bytes) in sends {
            programs[0].send(dst, bytes);
        }
        let w = Workload::new("single-sender", PORTS, programs);
        let params = SimParams::default().with_ports(PORTS);
        for p in paradigms() {
            let stats = p.run(&w, &params);
            let eff = stats.efficiency(params.link.bytes_per_ns());
            prop_assert!(eff <= 1.0 + 1e-9, "{}: efficiency {eff} > 1", p.label());
        }
    }

    /// Causal spans pair exactly — one `SpanEnd` per `SpanStart`, same
    /// id, non-decreasing time — across every paradigm (including the
    /// multistage and multi-hop simulators) and under a fault plan.
    #[test]
    fn spans_pair_exactly_under_all_paradigms_and_faults(w in workload_strategy()) {
        let params = SimParams::default().with_ports(PORTS);
        let mut cases = paradigms();
        cases.push(Paradigm::MultistageTdm {
            topology: MsTopology::Omega,
            predictor: PredictorKind::Timeout(300),
        });
        for p in cases {
            for faulted in [false, true] {
                let plan = if faulted { span_fault_plan() } else { FaultPlan::new() };
                let (_, tracer) = run_with_plan(&p, &w, &params, plan, Tracer::vec());
                let res = check_span_pairing(&tracer.records(), &p.label());
                prop_assert!(res.is_ok(), "faulted={faulted}: {}", res.unwrap_err());
            }
        }
        // The multi-hop wormhole simulator sits outside `Paradigm`.
        let (_, tracer) = MultihopWormholeSim::new(&w, &params, TorusNetwork::new(2, 2, 2))
            .with_tracer(Tracer::vec())
            .run_traced();
        let res = check_span_pairing(&tracer.records(), "multihop");
        prop_assert!(res.is_ok(), "{}", res.unwrap_err());
    }
}

//! Parallel == sequential, byte for byte.
//!
//! The parallel execution contract (DESIGN.md, "Parallel execution
//! model") is that `threads` is a pure performance knob: every observable
//! output — the stats JSON, the replayable JSONL trace stream, the full
//! `pms-analyze` report, and the alert stream — must be byte-identical
//! at any thread count. These tests pin that across thread counts
//! {1, 2, 4, 8}, all four switching paradigms, with and without a fault
//! plan, on randomized workloads; plus one deterministic 256-port run.
//! The only in-run parallel threshold left is the pre-scheduling sweep's
//! 512-row gate (`PAR_MIN_ROWS` in `pms-sched::presched`), which no run
//! here reaches; its sharded path is pinned by presched's own unit test.

use pms_analyze::{build_report, ReportConfig};
use pms_faults::{FaultKind, FaultPlan};
use pms_sim::{Paradigm, PredictorKind, SimParams};
use pms_trace::{record_json, AlertRules, SnapshotConfig, TraceEvent, TraceRecord, Tracer};
use pms_workloads::{uniform, Program, Workload};
use proptest::prelude::*;

const PORTS: usize = 8;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn paradigms() -> Vec<Paradigm> {
    vec![
        Paradigm::Wormhole,
        Paradigm::Circuit,
        Paradigm::DynamicTdm(PredictorKind::Drop),
        Paradigm::PreloadTdm,
    ]
}

fn fault_plan() -> FaultPlan {
    let mut plan = FaultPlan::new();
    plan.push(300, 2_000, FaultKind::LinkDown { src: 1, dst: 2 })
        .push(0, 1_500, FaultKind::StuckGrant { src: 2, dst: 3 })
        .push(500, 800, FaultKind::NicTransient { port: 4 });
    plan
}

/// Every observable artifact of one traced run, rendered to bytes.
struct RunArtifacts {
    stats_json: String,
    trace_jsonl: String,
    report_json: String,
    alert_stream: String,
}

/// Runs `paradigm` on `workload` at `threads` lanes with the snapshot +
/// alert pipeline attached and renders every output channel.
fn run_at(
    workload: &Workload,
    paradigm: &Paradigm,
    plan: FaultPlan,
    threads: usize,
) -> RunArtifacts {
    let params = SimParams::default()
        .with_ports(workload.ports)
        .with_threads(threads);
    let snap_cfg = SnapshotConfig::per_slots(params.slot_ns, 8);
    let tracer = Tracer::pipeline(snap_cfg, Some(AlertRules::default_flight()), Tracer::vec());
    let (stats, tracer) = paradigm.run_faulted(workload, &params, plan, tracer);
    let records: Vec<TraceRecord> = tracer.records();
    let trace_jsonl: String = records
        .iter()
        .map(|r| record_json(r).render() + "\n")
        .collect();
    let alert_stream: String = records
        .iter()
        .filter(|r| {
            matches!(
                r.event,
                TraceEvent::AlertRaised { .. } | TraceEvent::AlertCleared { .. }
            )
        })
        .map(|r| record_json(r).render() + "\n")
        .collect();
    let report = build_report(&records, &ReportConfig::default());
    RunArtifacts {
        stats_json: stats.to_json().render_pretty(),
        trace_jsonl,
        report_json: report.to_json().render_pretty(),
        alert_stream,
    }
}

fn assert_identical(workload: &Workload, plan: &FaultPlan) -> Result<(), String> {
    for paradigm in paradigms() {
        let base = run_at(workload, &paradigm, plan.clone(), 1);
        for &threads in &THREAD_COUNTS[1..] {
            let got = run_at(workload, &paradigm, plan.clone(), threads);
            for (name, a, b) in [
                ("stats", &base.stats_json, &got.stats_json),
                ("trace", &base.trace_jsonl, &got.trace_jsonl),
                ("report", &base.report_json, &got.report_json),
                ("alerts", &base.alert_stream, &got.alert_stream),
            ] {
                if a != b {
                    return Err(format!(
                        "{} diverged at {threads} threads under {}",
                        name,
                        paradigm.label()
                    ));
                }
            }
        }
    }
    Ok(())
}

#[derive(Debug, Clone)]
enum Cmd {
    Send { dst: usize, bytes: u32 },
    Delay { ns: u64 },
}

fn cmd_strategy() -> impl Strategy<Value = Cmd> {
    prop_oneof![
        4 => (0..PORTS, prop::sample::select(vec![8u32, 64, 200, 512]))
            .prop_map(|(dst, bytes)| Cmd::Send { dst, bytes }),
        1 => (1u64..2_000).prop_map(|ns| Cmd::Delay { ns }),
    ]
}

fn workload_strategy() -> impl Strategy<Value = Workload> {
    prop::collection::vec(prop::collection::vec(cmd_strategy(), 0..8), PORTS).prop_map(
        |proc_cmds| {
            let programs: Vec<Program> = proc_cmds
                .into_iter()
                .enumerate()
                .map(|(p, cmds)| {
                    let mut prog = Program::new();
                    for c in cmds {
                        match c {
                            Cmd::Send { dst, bytes } => {
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
            Workload::new("par-prop", PORTS, programs)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random small workloads: every paradigm, thread counts {1,2,4,8},
    /// no faults — all four output channels byte-identical.
    #[test]
    fn parallel_outputs_identical(workload in workload_strategy()) {
        if let Err(msg) = assert_identical(&workload, &FaultPlan::new()) {
            return Err(TestCaseError::fail(msg));
        }
    }

    /// Same, under a deterministic fault plan exercising retry,
    /// eviction, and stuck-grant paths.
    #[test]
    fn parallel_outputs_identical_with_faults(workload in workload_strategy()) {
        if let Err(msg) = assert_identical(&workload, &fault_plan()) {
            return Err(TestCaseError::fail(msg));
        }
    }
}

/// A 256-port run at 1 and 4 threads must match byte for byte. The
/// name predates the removal of the engine's and the VOQ scan's
/// thresholds; 256 rows stay below the one that remains (the
/// pre-scheduling sweep's 512-row gate), so this pins that a multi-lane
/// pool changes nothing on a run of this size.
#[test]
fn large_run_crosses_parallel_thresholds() {
    let workload = uniform(256, 64, 2, 17);
    for paradigm in [Paradigm::DynamicTdm(PredictorKind::Drop), Paradigm::Circuit] {
        let base = run_at(&workload, &paradigm, FaultPlan::new(), 1);
        let par = run_at(&workload, &paradigm, FaultPlan::new(), 4);
        assert_eq!(
            base.stats_json,
            par.stats_json,
            "stats diverged ({})",
            paradigm.label()
        );
        assert_eq!(
            base.trace_jsonl,
            par.trace_jsonl,
            "trace diverged ({})",
            paradigm.label()
        );
        assert_eq!(
            base.report_json,
            par.report_json,
            "report diverged ({})",
            paradigm.label()
        );
        assert_eq!(
            base.alert_stream,
            par.alert_stream,
            "alerts diverged ({})",
            paradigm.label()
        );
    }
}

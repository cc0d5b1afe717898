//! The `replay1m` workload: one traced 128-port dynamic-TDM Two Phase
//! run of about a million records, written as JSONL (the write path) and
//! read back into the analysis report (the read path).

use crate::bench::{derive_seed, Ctx, Size};
use crate::probe::probe;
use crate::sims::{cell_metrics, check_conservation, sim_metrics, warm_up, Cell};
use pms_analyze::{build_report, parse_jsonl, ReportConfig};
use pms_sim::{Paradigm, PredictorKind, SimParams, SimStats};
use pms_trace::{write_jsonl, SnapshotConfig, TraceRecord, Tracer};
use pms_workloads::{two_phase, MeshSpec};

/// What round 0 leaves for the checks.
struct FirstRound {
    stats: SimStats,
    records: Vec<TraceRecord>,
    report: String,
    jsonl_bytes: usize,
}

/// The `replay1m` workload.
pub fn replay1m(ctx: &mut Ctx) {
    let (seed, size) = (ctx.seed, ctx.size);
    // Nearest-neighbour rounds after the all-to-all phase: 320 gives
    // about 977k records.
    let (ports, nn_rounds) = match size {
        Size::Full => (128, 320),
        Size::Tiny => (16, 2),
    };
    let cell = ctx.setup(
        || {
            let mesh = MeshSpec::for_ports(ports);
            let workload = two_phase(mesh, 64, nn_rounds, 500, 100, derive_seed(11, seed));
            let params = SimParams::default();
            Cell::new(workload, Paradigm::DynamicTdm(PredictorKind::Drop), &params)
        },
        |c| warm_up(&c.params),
    );
    let path = ctx.scratch_path("replay1m.jsonl");
    let cfg = ReportConfig::default();
    let mut first: Option<FirstRound> = None;
    let mut problems = Vec::new();
    let mut unparsed = 0;
    let mut cell_ns = Vec::new();
    ctx.rounds(|i, spans| {
        let tracer = Tracer::pipeline(SnapshotConfig::default(), None, Tracer::vec());
        let ((stats, tracer), secs) = spans.layer("sim.dynamic_tdm_s", "simulate, traced", || {
            cell.paradigm
                .run_traced(&cell.workload, &cell.params, tracer)
        });
        cell_ns.push((secs * 1e9) as u64);
        let ((records, written), _) = spans.layer("trace.jsonl_write_s", "write JSONL", || {
            let records = tracer.records();
            let written = write_jsonl(&path, &records);
            (records, written)
        });
        let lines = records.len() as u64;
        let (text, _) = spans.layer("analyze.read_s", "read JSONL", || {
            written.and_then(|()| std::fs::read_to_string(&path))
        });
        let text = match text {
            Ok(text) => text,
            Err(e) => {
                problems.push(format!("round {i}: JSONL round trip failed: {e}"));
                unparsed += lines;
                return;
            }
        };
        let jsonl_bytes = text.len();
        let (replay, _) = spans.layer("analyze.parse_s", "parse JSONL", move || parse_jsonl(&text));
        let replay = match replay {
            Ok(replay) => replay,
            Err(e) => {
                problems.push(format!("round {i}: JSONL does not parse: {e}"));
                unparsed += lines;
                return;
            }
        };
        unparsed += lines.saturating_sub(replay.records.len() as u64) + replay.skipped_unknown;
        let (report, _) = spans.layer("analyze.report_s", "build report", || {
            build_report(&replay.records, &cfg)
        });
        let (rendered, _) = spans.layer("analyze.render_s", "render report", || {
            report.to_json().render_pretty()
        });
        match &first {
            None => {
                first = Some(FirstRound {
                    stats,
                    records,
                    report: rendered,
                    jsonl_bytes,
                })
            }
            Some(f) if f.stats != stats || f.report != rendered => {
                problems.push(format!(
                    "round {i}: statistics or report differ from round 0"
                ));
            }
            Some(_) => {}
        }
    });
    let _ = std::fs::remove_file(&path);
    for p in problems {
        ctx.fail(p);
    }
    if unparsed > 0 {
        ctx.fail(format!("{unparsed} JSONL lines did not parse back"));
    }
    let Some(first) = first else {
        return;
    };
    let rounds = ctx.round_secs.len() as u64;
    ctx.attempted = first.records.len() as u64 * rounds;
    ctx.failed = unparsed;

    // The report rebuilt from the JSONL must equal the live-records one.
    let id = ctx.spans.open("live report check");
    if build_report(&first.records, &cfg).to_json().render_pretty() != first.report {
        ctx.fail("report from JSONL differs from the live-records report");
    }
    ctx.spans.close(id);

    let cells = std::slice::from_ref(&cell);
    let stats = std::slice::from_ref(&first.stats);
    check_conservation(ctx, cells, stats);
    sim_metrics(ctx, cells, stats);
    cell_metrics(ctx, cell_ns);
    ctx.metrics.set(
        "trace.jsonl_mb",
        first.jsonl_bytes as f64 / (1 << 20) as f64,
    );
    if ctx.traced {
        probe(ctx, &cell.name, |tracer| {
            cell.paradigm
                .run_traced(&cell.workload, &cell.params, tracer)
                .1
        });
    }
}

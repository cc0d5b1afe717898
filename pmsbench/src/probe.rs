//! The traced run's trace probe: one representative cell of the workload
//! run under the Null, Vec and Pipeline sinks, then every `pms-analyze`
//! section timed on the pipeline's records by calling its public
//! function directly.

use crate::bench::Ctx;
use crate::stats::median;
use pms_analyze::{
    alerts, churn, contention, faults, heatmap, infer_ports, occupancy, spans, timeseries,
    ReportConfig,
};
use pms_trace::{SnapshotConfig, Tracer};
use std::hint::black_box;

/// Sink runs per sink for cells that take under this long.
const CHEAP_CELL_S: f64 = 1.0;

/// Runs the probe on the cell `run` executes: `run(tracer)` drives the
/// cell with `tracer` attached and hands the tracer back.
pub fn probe(ctx: &mut Ctx, cell: &str, mut run: impl FnMut(Tracer) -> Tracer) {
    let id = ctx.spans.open(format!("trace probe: {cell}"));
    let sp = &mut ctx.spans;
    let (_, first) = sp.layer("trace.null_s", "null sink", || run(Tracer::Null));
    // Repeat cheap cells so each sink's median is over three runs.
    let reps = if first < CHEAP_CELL_S { 3 } else { 1 };
    let (mut null, mut vec, mut pipe) = (vec![first], Vec::new(), Vec::new());
    let mut records = Vec::new();
    for r in 0..reps {
        if r > 0 {
            null.push(
                sp.layer("trace.null_s", "null sink", || run(Tracer::Null))
                    .1,
            );
        }
        vec.push(sp.layer("trace.vec_s", "vec sink", || run(Tracer::vec())).1);
        let pipeline = || Tracer::pipeline(SnapshotConfig::default(), None, Tracer::vec());
        let (tracer, secs) = sp.layer("trace.pipeline_s", "pipeline sink", || run(pipeline()));
        pipe.push(secs);
        records = tracer.records();
    }
    let (null, vec, pipe) = (median(&null), median(&vec), median(&pipe));
    let m = &mut ctx.metrics;
    m.set("trace.null_s", null);
    m.set("trace.vec_s", vec);
    m.set("trace.pipeline_s", pipe);
    m.set("trace.tap_overhead", vec / null - 1.0);
    m.set("trace.pipeline_overhead", pipe / null - 1.0);
    m.set("trace.records", records.len() as f64);

    let cfg = ReportConfig::default();
    let ports = infer_ports(&records);
    let r = &records;
    let sections: [(&'static str, &mut dyn FnMut()); 7] = [
        ("analyze.occupancy_s", &mut || {
            black_box(occupancy(r, ports, cfg.spark_width));
        }),
        ("analyze.heatmap_s", &mut || {
            black_box(heatmap(r, ports));
        }),
        ("analyze.churn_s", &mut || {
            black_box(churn(r, cfg.premature_window_ns));
        }),
        ("analyze.contention_s", &mut || {
            black_box(contention(r, cfg.hol_factor, cfg.max_hol_stalls));
        }),
        ("analyze.timeseries_s", &mut || {
            black_box(timeseries(r));
        }),
        ("analyze.alerts_s", &mut || {
            black_box(alerts(r));
        }),
        ("analyze.faults_s", &mut || {
            black_box(faults(r));
        }),
    ];
    for (name, section) in sections {
        let secs = ctx.spans.layer(name, name, section).1;
        ctx.metrics.set(name, secs);
    }
    let (report, secs) = ctx.spans.layer("analyze.spans_s", "spans", || spans(r));
    ctx.metrics.set("analyze.spans_s", secs);
    for phase in &report.phases {
        let name = match phase.phase {
            "arrival" => "span.arrival_p99_ns",
            "admit" => "span.admit_p99_ns",
            "align" => "span.align_p99_ns",
            "transfer" => "span.transfer_p99_ns",
            _ => continue,
        };
        ctx.metrics.set(name, phase.p99_ns as f64);
    }
    ctx.spans.close(id);
}

//! Criterion bench: tracing and profiling overhead on the TDM hot loop.
//!
//! Compares the default [`Tracer::Null`] (every `emit` site is guarded by
//! `tracer.enabled()`, so disabled tracing builds no event payloads)
//! against a [`RingTracer`] that retains the most recent 4096 records,
//! and against a Null-sink run with the kernel profiler
//! ([`pms_trace::prof`]) switched on. The observability contract is that
//! the Null case stays within 1 % of an untraced run (`Paradigm::run`
//! *is* the untraced baseline here since it delegates to `run_traced`
//! with `Tracer::Null`) and that enabling the profiler on top costs at
//! most 2 % — the gate the `overhead_gate` integration test asserts.
//!
//! `jsonl_roundtrip` times the JSONL trace path on its own: rendering a
//! two-phase run's records with `write_record_line`, and reading the
//! rendered text back with `parse_jsonl`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pms_analyze::parse_jsonl;
use pms_sim::{Paradigm, PredictorKind, SimParams};
use pms_trace::{prof, write_record_line, Tracer};
use pms_workloads::{ordered_mesh, two_phase, MeshSpec};
use std::hint::black_box;

fn bench_trace_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("tdm_trace_overhead");
    group.sample_size(20);
    let mesh = MeshSpec::for_ports(32);
    let workload = ordered_mesh(mesh, 64, 2, 500, 100);
    let params = SimParams::default().with_ports(32);
    let paradigm = Paradigm::DynamicTdm(PredictorKind::Drop);
    group.throughput(Throughput::Elements(workload.message_count() as u64));

    // (name, tracer constructor, profiler on?)
    type MakeTracer = fn() -> Tracer;
    let cases: [(&str, MakeTracer, bool); 4] = [
        ("null", || Tracer::Null, false),
        ("ring4096", || Tracer::ring(4096), false),
        ("null+prof", || Tracer::Null, true),
        // Snapshot pipeline at the default slot-window cadence stacked
        // over the same ring: the marginal cost of the time-series
        // collector on a traced run.
        (
            "pipeline+ring4096",
            || {
                Tracer::pipeline(
                    pms_trace::SnapshotConfig::default(),
                    None,
                    Tracer::ring(4096),
                )
            },
            false,
        ),
    ];
    for (name, make, profiled) in cases {
        group.bench_with_input(BenchmarkId::from_parameter(name), &make, |b, make| {
            prof::reset();
            prof::set_enabled(profiled);
            b.iter(|| {
                let (stats, tracer) =
                    paradigm.run_traced(black_box(&workload), black_box(&params), make());
                black_box((stats.delivered_bytes, tracer.records().len()))
            });
            prof::set_enabled(false);
        });
    }
    group.finish();
}

fn bench_jsonl_roundtrip(c: &mut Criterion) {
    let mut group = c.benchmark_group("jsonl_roundtrip");
    group.sample_size(10);
    let workload = two_phase(MeshSpec::for_ports(56), 64, 2, 500, 100, 11);
    let params = SimParams::default().with_ports(56);
    let (_, tracer) =
        Paradigm::DynamicTdm(PredictorKind::Drop).run_traced(&workload, &params, Tracer::vec());
    let records = tracer.records();
    let mut text = String::new();
    for rec in &records {
        write_record_line(&mut text, rec);
        text.push('\n');
    }
    group.throughput(Throughput::Elements(records.len() as u64));
    group.bench_function(format!("write_record_line/{}", records.len()), |b| {
        let mut line = String::new();
        b.iter(|| {
            let mut bytes = 0;
            for rec in black_box(&records) {
                line.clear();
                write_record_line(&mut line, rec);
                bytes += line.len();
            }
            bytes
        })
    });
    group.bench_function(format!("parse_jsonl/{}", records.len()), |b| {
        b.iter(|| parse_jsonl(black_box(&text)).unwrap().records.len())
    });
    group.finish();
}

criterion_group!(benches, bench_trace_overhead, bench_jsonl_roundtrip);
criterion_main!(benches);

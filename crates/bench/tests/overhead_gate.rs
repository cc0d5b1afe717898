//! The observability overhead gates: enabling the kernel profiler
//! ([`pms_trace::prof`]) must cost at most 2 % even with the metrics
//! snapshot pipeline attached at its default cadence, the snapshot
//! pipeline itself must stay within a small measured budget of a bare
//! ring sink, and keeping every record of a run must stay within a
//! measured budget of tracing off.
//!
//! This is a wall-clock timing test, so it is `#[ignore]`d by default
//! and run explicitly — in release mode, on an otherwise idle machine —
//! by CI's `test` job:
//!
//! ```text
//! cargo test --release -p pms-bench --test overhead_gate -- --ignored
//! ```
//!
//! Methodology: the profiled and unprofiled runs are interleaved (so
//! slow drift in machine load hits both arms equally) and compared by
//! median-of-N, which discards scheduler hiccups that a mean would
//! absorb. The workload is sized so one run takes a few milliseconds —
//! long enough that timer granularity is noise, short enough for CI.

use pms_sim::{Paradigm, PredictorKind, SimParams};
use pms_trace::{prof, SnapshotConfig, Tracer};
use pms_workloads::{ordered_mesh, MeshSpec};
use std::hint::black_box;
use std::time::Instant;

/// Allowed profiler overhead with snapshotting live in both arms: 2 %.
const MAX_OVERHEAD: f64 = 1.02;
/// Allowed snapshot-pipeline overhead over a bare ring sink: 8 %.
///
/// This bound is measured, not aspirational. The gate workload is
/// tracing-stressed on purpose — a bare ring emit is ~8 ns, so the
/// whole run is dominated by emit cost and every nanosecond the
/// pipeline layer adds per record shows up as roughly a percent here.
/// The boundary check + metric fold come to ~1 ns/record after the
/// cached-boundary and multiplicative-hash optimizations; 8 % leaves
/// 2x headroom over the ~4 % observed on an idle machine. Real
/// simulations spend far more time outside the tracer, so their
/// relative cost is much smaller than this gate's.
const MAX_PIPELINE_OVERHEAD: f64 = 1.08;
/// Allowed cost of keeping every record (`Tracer::vec()`, then taking
/// the records as the CLIs do) over tracing off (`Tracer::Null`): 240 %.
///
/// Measured like [`MAX_PIPELINE_OVERHEAD`], with the same 2x headroom
/// over the overhead observed: a median ratio of 2.21 (12 alternating
/// runs on a 2-vCPU VM; 1.91 with the 104 B `Copy` records before the
/// `metrics-snapshot` payload was boxed). This gate's 17k-record trace
/// stays in cache, so halving the record saves little here, while
/// cloning and dropping the trace now visit every record instead of
/// one `memcpy` and `free`. On traces that leave the cache the smaller
/// record wins: see `trace.tap_overhead` in pmsbench's probe.
const MAX_TRACE_ON_OVERHEAD: f64 = 3.40;
/// Timed run pairs; medians are taken over this many samples per arm.
const SAMPLES: usize = 15;

fn timed_traced_run(
    paradigm: &Paradigm,
    w: &pms_workloads::Workload,
    p: &SimParams,
    make: impl Fn() -> Tracer,
) -> f64 {
    let start = Instant::now();
    let (stats, tracer) = paradigm.run_traced(black_box(w), black_box(p), make());
    black_box((stats.delivered_bytes, tracer.records().len()));
    start.elapsed().as_secs_f64()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    xs[xs.len() / 2]
}

/// The acceptance gate from the observability PR: the profiler's cost
/// is judged with the metrics snapshot pipeline running at its default
/// cadence in *both* arms, so "turning the profiler on" is measured
/// against the deployment the telemetry server actually runs.
#[test]
#[ignore = "wall-clock gate; run explicitly with --release (see CI's test job)"]
fn profiler_overhead_with_default_snapshot_cadence_is_within_two_percent() {
    let mesh = MeshSpec::for_ports(64);
    let workload = ordered_mesh(mesh, 64, 4, 500, 100);
    let params = SimParams::default().with_ports(64);
    let paradigm = Paradigm::DynamicTdm(PredictorKind::Timeout(400));
    let piped = || Tracer::pipeline(SnapshotConfig::default(), None, Tracer::Null);

    // Warm caches and the allocator before timing anything.
    for _ in 0..3 {
        timed_traced_run(&paradigm, &workload, &params, piped);
    }

    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..SAMPLES {
        prof::set_enabled(false);
        off.push(timed_traced_run(&paradigm, &workload, &params, piped));
        prof::reset();
        prof::set_enabled(true);
        on.push(timed_traced_run(&paradigm, &workload, &params, piped));
        prof::set_enabled(false);
    }
    // The profiled arm must actually have profiled something — and the
    // snapshot pipeline must actually have rolled windows — or the gate
    // is vacuous.
    prof::set_enabled(true);
    let (_, tracer) = paradigm.run_traced(&workload, &params, piped());
    prof::set_enabled(false);
    let calls: u64 = prof::snapshot().iter().map(|s| s.calls).sum();
    assert!(calls > 0, "profiler saw no kernel calls; gate is vacuous");
    assert!(
        !tracer.snapshots().is_empty(),
        "snapshot pipeline emitted no windows; gate is vacuous"
    );

    let (m_off, m_on) = (median(off), median(on));
    let ratio = m_on / m_off;
    eprintln!(
        "profiler off: {:.3} ms, on: {:.3} ms, ratio {:.4} (gate {MAX_OVERHEAD})",
        m_off * 1e3,
        m_on * 1e3,
        ratio
    );
    assert!(
        ratio <= MAX_OVERHEAD,
        "profiler overhead {:.2}% exceeds the 2% budget",
        (ratio - 1.0) * 100.0
    );
}

/// The snapshot pipeline's own cost over a bare ring sink, bounded by
/// the measured [`MAX_PIPELINE_OVERHEAD`] budget (see its doc comment
/// for why this gate is deliberately looser than 2 %).
#[test]
#[ignore = "wall-clock gate; run explicitly with --release (see CI's test job)"]
fn snapshot_pipeline_overhead_on_ring_sink_is_within_budget() {
    let mesh = MeshSpec::for_ports(64);
    let workload = ordered_mesh(mesh, 64, 4, 500, 100);
    let params = SimParams::default().with_ports(64);
    let paradigm = Paradigm::DynamicTdm(PredictorKind::Timeout(400));
    let plain = || Tracer::ring(4096);
    let piped = || Tracer::pipeline(SnapshotConfig::default(), None, Tracer::ring(4096));

    for _ in 0..3 {
        timed_traced_run(&paradigm, &workload, &params, plain);
    }

    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..SAMPLES {
        off.push(timed_traced_run(&paradigm, &workload, &params, plain));
        on.push(timed_traced_run(&paradigm, &workload, &params, piped));
    }

    // The pipelined arm must actually have collected snapshots, or the
    // gate is vacuous.
    let (_, tracer) = paradigm.run_traced(&workload, &params, piped());
    assert!(
        !tracer.snapshots().is_empty(),
        "snapshot pipeline emitted no windows; gate is vacuous"
    );

    let (m_off, m_on) = (median(off), median(on));
    let ratio = m_on / m_off;
    eprintln!(
        "pipeline off: {:.3} ms, on: {:.3} ms, ratio {:.4} (gate {MAX_PIPELINE_OVERHEAD})",
        m_off * 1e3,
        m_on * 1e3,
        ratio
    );
    assert!(
        ratio <= MAX_PIPELINE_OVERHEAD,
        "snapshot-pipeline overhead {:.2}% exceeds the {:.0}% budget",
        (ratio - 1.0) * 100.0,
        (MAX_PIPELINE_OVERHEAD - 1.0) * 100.0
    );
}

/// Tracing on against tracing off: the cost of keeping every record of
/// the run in memory, bounded by the measured [`MAX_TRACE_ON_OVERHEAD`].
#[test]
#[ignore = "wall-clock gate; run explicitly with --release (see CI's test job)"]
fn trace_on_overhead_over_trace_off_is_within_budget() {
    let mesh = MeshSpec::for_ports(64);
    let workload = ordered_mesh(mesh, 64, 4, 500, 100);
    let params = SimParams::default().with_ports(64);
    let paradigm = Paradigm::DynamicTdm(PredictorKind::Timeout(400));
    let off_tracer = || Tracer::Null;
    let on_tracer = Tracer::vec;

    for _ in 0..3 {
        timed_traced_run(&paradigm, &workload, &params, on_tracer);
    }

    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..SAMPLES {
        off.push(timed_traced_run(&paradigm, &workload, &params, off_tracer));
        on.push(timed_traced_run(&paradigm, &workload, &params, on_tracer));
    }

    // The traced arm must actually have kept records, or the gate is
    // vacuous.
    let (_, tracer) = paradigm.run_traced(&workload, &params, on_tracer());
    let records = tracer.records().len();
    assert!(records > 0, "traced run kept no records; gate is vacuous");

    let (m_off, m_on) = (median(off), median(on));
    let ratio = m_on / m_off;
    eprintln!(
        "trace off: {:.3} ms, on: {:.3} ms ({records} records), ratio {:.4} (gate {MAX_TRACE_ON_OVERHEAD})",
        m_off * 1e3,
        m_on * 1e3,
        ratio
    );
    assert!(
        ratio <= MAX_TRACE_ON_OVERHEAD,
        "trace-on overhead {:.2}% exceeds the {:.0}% budget",
        (ratio - 1.0) * 100.0,
        (MAX_TRACE_ON_OVERHEAD - 1.0) * 100.0
    );
}

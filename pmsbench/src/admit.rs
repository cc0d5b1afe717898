//! The `admit` workload: `AdmitEngine` at 128 ports, open loop in
//! virtual time, over a ladder of per-port send gaps that crosses the
//! saturation knee.

use crate::bench::{derive_seed, Ctx, Size};
use crate::probe::probe;
use crate::sims::cell_metrics;
use crate::stats::percentile_sorted;
use pms_admit::{
    decisions_from_records, AdmitConfig, AdmitEngine, AdmitStats, Decision, PolicyKind, RateConfig,
};
use pms_analyze::parse_jsonl;
use pms_trace::{write_jsonl, Tracer};
use pms_workloads::{uniform, ArrivalConfig, ConnRequest};

/// Virtual nanoseconds between one port's requests, slowest first.
const LADDER_NS: [u64; 7] = [1600, 800, 400, 300, 250, 200, 100];

/// The rung the replay gate and `admit.wait_p99_400_ns` use (400 ns):
/// fast enough to keep the queue busy, below the saturation knee.
const GATE_RUNG: usize = 2;
const _: () = assert!(LADDER_NS[GATE_RUNG] == 400);

/// Engine runs per rung: one per policy.
const POLICIES: usize = PolicyKind::ALL.len();

/// Latency limit on the p99 wait for `admit.capacity_rps`.
const WAIT_LIMIT_NS: u64 = 1_000;

struct Inputs {
    ports: usize,
    /// One arrival stream per rung of [`LADDER_NS`].
    streams: Vec<Vec<ConnRequest>>,
}

fn build(seed: u64, size: Size) -> Inputs {
    let (ports, per_port) = match size {
        Size::Full => (128, 1024),
        Size::Tiny => (16, 16),
    };
    let workload = uniform(ports, 64, per_port, derive_seed(17, seed));
    let streams = LADDER_NS
        .iter()
        .map(|&gap| {
            let cfg = ArrivalConfig {
                send_gap_ns: gap,
                tenants: 0,
            };
            workload.arrivals(&cfg).collect()
        })
        .collect();
    Inputs { ports, streams }
}

fn layer_of(kind: PolicyKind) -> &'static str {
    match kind {
        PolicyKind::Fifo => "admit.fifo_s",
        PolicyKind::Pifo => "admit.pifo_s",
        PolicyKind::Strict => "admit.strict_s",
    }
}

/// One engine run, reduced to what the checks and metrics need.
struct RunSummary {
    stats: AdmitStats,
    /// Queue waits of the granted requests, ascending.
    waits: Vec<u64>,
}

/// The queue waits of the granted requests, in decision order.
fn waits(decisions: &[Decision]) -> Vec<u64> {
    decisions
        .iter()
        .filter_map(|d| match d {
            Decision::Grant { wait_ns, .. } => Some(*wait_ns),
            _ => None,
        })
        .collect()
}

/// The `admit` workload.
pub fn admit(ctx: &mut Ctx) {
    let (seed, size) = (ctx.seed, ctx.size);
    let inputs = ctx.setup(
        || build(seed, size),
        |i| {
            let cfg = AdmitConfig::new(i.ports);
            let stream = i.streams[0].iter().copied();
            AdmitEngine::new(cfg, PolicyKind::Fifo.build()).run(stream, &mut Tracer::Null);
        },
    );
    let ports = inputs.ports;
    let mut first: Vec<RunSummary> = Vec::new();
    let mut diverged = Vec::new();
    let mut cell_ns = Vec::new();
    ctx.rounds(|i, spans| {
        let mut run = 0;
        for (gap, stream) in LADDER_NS.iter().zip(&inputs.streams) {
            for kind in PolicyKind::ALL {
                let name = format!("{} at {gap} ns", kind.name());
                let (out, secs) = spans.layer(layer_of(kind), name, || {
                    let mut engine = AdmitEngine::new(AdmitConfig::new(ports), kind.build());
                    engine.run(stream.iter().copied(), &mut Tracer::Null)
                });
                cell_ns.push((secs * 1e9) as u64);
                let waits = waits(&out.decisions);
                if i == 0 {
                    first.push(RunSummary {
                        stats: out.stats,
                        waits,
                    });
                } else if first[run].stats != out.stats || first[run].waits != waits {
                    diverged.push(format!(
                        "round {i}: {} at {gap} ns differs from round 0",
                        kind.name()
                    ));
                }
                run += 1;
            }
        }
    });
    for d in diverged {
        ctx.fail(d);
    }
    for r in &mut first {
        r.waits.sort_unstable();
    }

    let rounds = ctx.round_secs.len() as u64;
    let streams = inputs
        .streams
        .iter()
        .flat_map(|s| std::iter::repeat_n(s, POLICIES));
    for (summary, stream) in first.iter().zip(streams) {
        let s = &summary.stats;
        ctx.attempted += s.ingested * rounds;
        ctx.failed += s.ingested.saturating_sub(s.granted + s.rejected()) * rounds;
        if s.ingested != stream.len() as u64 || s.granted + s.rejected() != s.ingested {
            ctx.fail(format!(
                "{} of {} requests ingested, {} granted, {} rejected",
                s.ingested,
                stream.len(),
                s.granted,
                s.rejected()
            ));
        }
    }
    replay_gate(ctx, &inputs, &first);
    admit_metrics(ctx, ports, &first);
    cell_metrics(ctx, cell_ns);
    if ctx.traced {
        comparisons(ctx, &inputs);
        let stream = &inputs.streams[GATE_RUNG];
        probe(ctx, "fifo at 400 ns", |mut tracer| {
            let mut engine = AdmitEngine::new(AdmitConfig::new(ports), PolicyKind::Fifo.build());
            engine.run(stream.iter().copied(), &mut tracer);
            tracer
        });
    }
}

/// `admit_bench`'s gate at the 400 ns rung: every policy's decision
/// stream must be identical across a rerun and the in-memory trace
/// reconstruction, and match the timed run's counters; FIFO's must also
/// survive a JSONL write/parse round trip (one policy keeps the check
/// to seconds, and the JSONL path does not depend on the policy).
fn replay_gate(ctx: &mut Ctx, inputs: &Inputs, first: &[RunSummary]) {
    let id = ctx.spans.open("replay gate");
    let path = ctx.scratch_path("admit-gate.jsonl");
    let stream = &inputs.streams[GATE_RUNG];
    for (kind, timed) in PolicyKind::ALL
        .into_iter()
        .zip(&first[GATE_RUNG * POLICIES..])
    {
        let fresh = || AdmitEngine::new(AdmitConfig::new(inputs.ports), kind.build());
        let mut tracer = Tracer::vec();
        let live = fresh().run(stream.iter().copied(), &mut tracer);
        let records = tracer.records();
        let rerun = fresh().run(stream.iter().copied(), &mut Tracer::Null);
        let replayed = || {
            write_jsonl(&path, &records)
                .and_then(|()| std::fs::read_to_string(&path))
                .map_err(|e| e.to_string())
                .and_then(|text| parse_jsonl(&text))
        };
        let what = if rerun.decisions != live.decisions {
            Some("rerun diverged from the live run".to_string())
        } else if decisions_from_records(&records) != live.decisions {
            Some("in-memory trace reconstruction diverged".to_string())
        } else if live.stats != timed.stats {
            Some("traced run differs from the timed run".to_string())
        } else if kind != PolicyKind::Fifo {
            None
        } else {
            match replayed() {
                Err(e) => Some(format!("JSONL round trip failed: {e}")),
                Ok(r) if decisions_from_records(&r.records) != live.decisions => {
                    Some("JSONL replay diverged from the live run".to_string())
                }
                Ok(_) => None,
            }
        };
        if let Some(what) = what {
            ctx.fail(format!("{} at 400 ns: {what}", kind.name()));
        }
    }
    let _ = std::fs::remove_file(&path);
    ctx.spans.close(id);
}

fn admit_metrics(ctx: &mut Ctx, ports: usize, first: &[RunSummary]) {
    let total = |f: fn(&AdmitStats) -> u64| first.iter().map(|r| f(&r.stats)).sum::<u64>() as f64;
    let wait_sum: u64 = first.iter().flat_map(|r| &r.waits).sum();
    let mut gate_waits: Vec<u64> = first[GATE_RUNG * POLICIES..(GATE_RUNG + 1) * POLICIES]
        .iter()
        .flat_map(|r| r.waits.iter().copied())
        .collect();
    gate_waits.sort_unstable();
    // Highest offered rate at which no policy rejects anything and every
    // policy's p99 wait meets the limit.
    let capacity = LADDER_NS
        .iter()
        .zip(first.chunks(POLICIES))
        .filter(|(_, runs)| {
            runs.iter().all(|r| {
                r.stats.rejected() == 0 && percentile_sorted(&r.waits, 99.0) <= WAIT_LIMIT_NS
            })
        })
        .map(|(&gap, _)| ports as f64 * 1e9 / gap as f64)
        .fold(0.0, f64::max);
    let batches = total(|s| s.batches);
    let m = &mut ctx.metrics;
    m.set("efficiency", total(|s| s.granted) / total(|s| s.ingested));
    m.set("latency_mean_ns", wait_sum as f64 / total(|s| s.granted));
    m.set("admit.batches", batches);
    // The default batch is one request per port.
    m.set(
        "admit.mean_batch_fill",
        total(|s| s.granted) / (batches * ports as f64),
    );
    let peak = first.iter().map(|r| r.stats.peak_queue).max().unwrap_or(0);
    m.set("admit.peak_queue", peak as f64);
    m.set(
        "admit.rejected_queue_full",
        total(|s| s.rejected_queue_full),
    );
    m.set("admit.rejected_expired", total(|s| s.rejected_expired));
    m.set("admit.evicted", total(|s| s.evicted));
    m.set(
        "admit.wait_p99_400_ns",
        percentile_sorted(&gate_waits, 99.0) as f64,
    );
    m.set("admit.capacity_rps", capacity);
}

/// Traced only: FIFO over the ladder again with the default token-bucket
/// rate limit, and with a batch of one request (no coalescing).
fn comparisons(ctx: &mut Ctx, inputs: &Inputs) {
    let id = ctx.spans.open("admit comparisons");
    let base = AdmitConfig::new(inputs.ports);
    let variants = [
        (
            "admit.ratelimited_s",
            AdmitConfig {
                rate: Some(RateConfig::default()),
                ..base.clone()
            },
        ),
        ("admit.batch1_s", AdmitConfig { batch: 1, ..base }),
    ];
    for (layer, config) in variants {
        let mut secs = 0.0;
        for (gap, stream) in LADDER_NS.iter().zip(&inputs.streams) {
            let name = format!("fifo at {gap} ns");
            secs += ctx
                .spans
                .layer(layer, name, || {
                    let mut engine = AdmitEngine::new(config.clone(), PolicyKind::Fifo.build());
                    engine.run(stream.iter().copied(), &mut Tracer::Null)
                })
                .1;
        }
        ctx.metrics.set(layer, secs);
    }
    ctx.spans.close(id);
}

//! `admit_bench` — sustained admission throughput and latency, with a
//! built-in byte-identical-replay gate.
//!
//! For each built-in policy, runs the same seeded `uniform` arrival
//! stream through the admission engine and reports:
//!
//! * sustained throughput (requests ingested per wall-clock second,
//!   median of several runs);
//! * admission latency (virtual queue wait, enqueue to grant): p50,
//!   p99, max.
//!
//! Before reporting anything, the seeded run is verified three ways —
//! rerun (same inputs, fresh engine), in-memory trace reconstruction
//! ([`decisions_from_records`]), and a full JSONL write/parse/replay
//! round trip — and the binary exits non-zero if any rendered decision
//! stream differs by a single byte, so a determinism regression fails
//! loudly; `crates/admit/tests/prop.rs` checks the same three identities
//! on random streams under `cargo test`.
//!
//! Usage: `cargo run --release -p pms-admit --bin admit_bench
//! [-- --ports N] [--messages M] [--seed S] [--json OUT.json]`

use std::time::Instant;

use pms_admit::{decisions_from_records, AdmitConfig, AdmitEngine, Decision, PolicyKind};
use pms_analyze::parse_jsonl;
use pms_trace::cli::{self, die, fail, FlagError, Flags};
use pms_trace::{write_jsonl, Json, Tracer};
use pms_workloads::{build_pattern, ArrivalConfig, ConnRequest};

struct BenchArgs {
    ports: usize,
    messages: usize,
    seed: u64,
    json: Option<String>,
    threads: usize,
}

const USAGE: &str = "\
usage: admit_bench [--ports N] [--messages M] [--seed S] [--json OUT.json]
                   [--threads N]
--threads: fan the per-policy sweep over N scoped threads
           (results print in policy order at any lane count)";

fn parse_args(f: &mut Flags) -> Result<BenchArgs, FlagError> {
    Ok(BenchArgs {
        ports: f.get("--ports", 64)?,
        messages: f.get("--messages", 32)?,
        seed: f.get("--seed", 17)?,
        json: f.opt("--json")?,
        threads: f.threads()?,
    })
}

fn render_all(decisions: &[Decision]) -> String {
    let mut out = String::new();
    for d in decisions {
        out.push_str(&d.render());
        out.push('\n');
    }
    out
}

struct PolicyResult {
    policy: &'static str,
    requests: u64,
    req_per_sec: f64,
    p50_wait_ns: u64,
    p99_wait_ns: u64,
    max_wait_ns: u64,
    granted: u64,
    rejected: u64,
}

/// Runs one policy: the replay gate first, then the timed sweep.
fn bench_policy(
    kind: PolicyKind,
    stream: &[ConnRequest],
    ports: usize,
    jsonl_path: &std::path::Path,
) -> PolicyResult {
    let fresh = || AdmitEngine::new(AdmitConfig::new(ports), kind.build());

    // --- the gate: live == rerun == trace == JSONL replay ----------------
    let mut tracer = Tracer::vec();
    let live = fresh().run(stream.to_vec(), &mut tracer);
    let records = tracer.records();
    let live_text = render_all(&live.decisions);

    let rerun = fresh().run(stream.to_vec(), &mut Tracer::vec());
    if render_all(&rerun.decisions) != live_text {
        die(format!("{}: rerun diverged from the live run", kind.name()));
    }
    if render_all(&decisions_from_records(&records)) != live_text {
        die(format!(
            "{}: in-memory trace reconstruction diverged",
            kind.name()
        ));
    }
    write_jsonl(jsonl_path, &records)
        .unwrap_or_else(|e| die(format!("cannot write {}: {e}", jsonl_path.display())));
    let text = std::fs::read_to_string(jsonl_path)
        .unwrap_or_else(|e| die(format!("cannot read {}: {e}", jsonl_path.display())));
    let replay = parse_jsonl(&text)
        .unwrap_or_else(|e| die(format!("cannot parse {}: {e}", jsonl_path.display())));
    if render_all(&decisions_from_records(&replay.records)) != live_text {
        die(format!(
            "{}: JSONL replay diverged from the live run",
            kind.name()
        ));
    }

    // --- timing: median wall-clock of several untraced runs --------------
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let mut engine = fresh();
            let t0 = Instant::now();
            let outcome = engine.run(stream.to_vec(), &mut Tracer::Null);
            let dt = t0.elapsed().as_secs_f64();
            assert_eq!(outcome.stats.ingested, live.stats.ingested);
            dt
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let median = samples[samples.len() / 2];

    let mut waits: Vec<u64> = live
        .decisions
        .iter()
        .filter_map(|d| match d {
            Decision::Grant { wait_ns, .. } => Some(*wait_ns),
            _ => None,
        })
        .collect();
    waits.sort_unstable();
    let pct = |p: usize| -> u64 {
        if waits.is_empty() {
            0
        } else {
            waits[(waits.len() - 1) * p / 100]
        }
    };
    PolicyResult {
        policy: kind.name(),
        requests: live.stats.ingested,
        req_per_sec: live.stats.ingested as f64 / median,
        p50_wait_ns: pct(50),
        p99_wait_ns: pct(99),
        max_wait_ns: waits.last().copied().unwrap_or(0),
        granted: live.stats.granted,
        rejected: live.stats.rejected(),
    }
}

fn main() {
    let args = cli::parse_env(USAGE, parse_args);
    if args.messages == 0 {
        fail("admit_bench: --messages must be positive");
    }
    let stream: Vec<ConnRequest> =
        build_pattern("uniform", args.ports, 64, Some(args.messages), args.seed)
            .unwrap_or_else(|e| fail(format!("admit_bench: {e}")))
            .arrivals(&ArrivalConfig::default())
            .collect();
    // One scratch file per policy: the policies run on separate threads,
    // so the replay round trips must not share a path.
    let bench = &|kind: PolicyKind| {
        let path = std::env::temp_dir().join(format!(
            "admit_bench_{}_{}_{}_{}.jsonl",
            args.ports,
            args.messages,
            std::process::id(),
            kind.name()
        ));
        let r = bench_policy(kind, &stream, args.ports, &path);
        let _ = std::fs::remove_file(&path);
        r
    };
    // Contiguous runs of policies per thread: joining the threads in
    // spawn order returns the results in policy order.
    let per_thread = PolicyKind::ALL.len().div_ceil(args.threads);
    let results: Vec<PolicyResult> = std::thread::scope(|s| {
        let workers: Vec<_> = PolicyKind::ALL
            .chunks(per_thread)
            .map(|kinds| s.spawn(move || kinds.iter().map(|&k| bench(k)).collect::<Vec<_>>()))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });

    for r in &results {
        println!(
            "{:<8} {:>10} req  {:>14.0} req/s  wait p50 {:>6} ns  p99 {:>6} ns  max {:>6} ns  ({} granted, {} rejected)  replay byte-identical",
            r.policy,
            r.requests,
            r.req_per_sec,
            r.p50_wait_ns,
            r.p99_wait_ns,
            r.max_wait_ns,
            r.granted,
            r.rejected
        );
    }

    if let Some(path) = &args.json {
        let doc = Json::obj([
            ("bench", Json::str("admit")),
            ("ports", Json::UInt(args.ports as u64)),
            ("messages_per_proc", Json::UInt(args.messages as u64)),
            ("seed", Json::UInt(args.seed)),
            ("replay", Json::str("byte-identical")),
            (
                "policies",
                Json::Array(
                    results
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("policy", Json::str(r.policy)),
                                ("requests", Json::UInt(r.requests)),
                                ("req_per_sec", Json::Float(r.req_per_sec)),
                                ("p50_wait_ns", Json::UInt(r.p50_wait_ns)),
                                ("p99_wait_ns", Json::UInt(r.p99_wait_ns)),
                                ("max_wait_ns", Json::UInt(r.max_wait_ns)),
                                ("granted", Json::UInt(r.granted)),
                                ("rejected", Json::UInt(r.rejected)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        std::fs::write(path, doc.render_pretty())
            .unwrap_or_else(|e| die(format!("cannot write {path}: {e}")));
        println!("wrote {path}");
    }
}

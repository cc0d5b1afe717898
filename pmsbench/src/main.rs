//! `pmsbench` — the end-to-end benchmark of the PMS workspace.
//!
//! ```text
//! cargo run --release --manifest-path pmsbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run builds one named workload's inputs from `--seed`, times
//! identical rounds of it for about `--seconds`, checks its outputs, and
//! prints one JSON object as the last line of standard output:
//! `{"correct", "attempted", "failed", "metrics"}`, every metric with its
//! value and unit. A line before it labels the run with the workload,
//! seed, `nproc`, lanes, git commit and round count. A failed output
//! check prints the result with `"correct": false` and `failed` equal to
//! `attempted`, and exits 1.
//!
//! The seed reaches the workload generators only; the system under test
//! receives the generated inputs. Seed 0 reproduces the seeds `fig4` and
//! `fig5` hard-code. Every workload runs on one lane except `ports4096`,
//! which runs on `min(2, nproc)`.
//!
//! `bench_baseline` and `BENCH_pr4.json` stay as kernel
//! micro-benchmarks; they do not back end-to-end claims. This program
//! does.
//!
//! # Workloads
//!
//! | name | what one round runs | why |
//! |---|---|---|
//! | `paper128` | every `fig4` cell (4 patterns x 9 sizes x wormhole, circuit, dynamic and preload TDM) and every `fig5` cell (hybrid k = 0..2 x 11 determinisms x 3 seeds): 243 cells at 128 ports | The paper's own system. The engine, VOQ, `sched` SL pass and presched, and `compile` preloads do the work; it never reaches the `par` thresholds or `multistage`, so it is the no-change check for both. |
//! | `ports4096` | dynamic TDM on `uniform(4096, 64 B, 16 per proc)` and `permutation(4096, 64 B, 8)` on `min(2, nproc)` lanes | The only workload above the `PAR_MIN_*` thresholds. The VOQ scan, presched and bit-matrix work grow as N²/64, and the sharded engine runs. ROADMAP items 2 and 6c are decided here. |
//! | `multistage1024` | multistage TDM on a crossbar, omega, butterfly and 16-ary 2:1 fat tree, under `uniform(1024, 64 B, 8)` and `permutation(1024, 256 B, 4)` | `route_dfs` takes about half of an omega or butterfly run and nothing of a crossbar run, in one workload. It isolates the router for ROADMAP items 3 and 7. |
//! | `admit` | `AdmitEngine` at 128 ports over 1024 requests per port, for the FIFO, PIFO and strict policies at per-port send gaps of 1600, 800, 400, 300, 250, 200 and 100 virtual ns | The scheduler used through `pass_admitted` on coalesced batches, with no simulator engine. The load is open loop in virtual time: arrivals follow the gap whatever the engine does. The ladder crosses the saturation knee (no rejects at 300 ns, about a quarter rejected at 200 ns). |
//! | `replay1m` | one 128-port dynamic-TDM Two Phase 64 B run with 320 nearest-neighbour rounds, traced through the snapshot pipeline into memory (about 977k records), written with `write_jsonl`; then read back with `parse_jsonl`, `build_report` and `render_pretty` | The only workload where `trace` and `analyze` dominate. Writes sit beside reads, so a format change that speeds parsing but slows emitting shows. |
//!
//! Hybrid paradigms need a workload that carries preload patterns:
//! `simulate --paradigm hybrid1 --pattern random-mesh` panics in
//! `crates/sim/src/tdm.rs` (the workload provides no preloadable
//! configuration), so the benchmark runs hybrid only on `hybrid()`
//! workloads. Fixing that panic belongs to ROADMAP item 4.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! Every workload prints every metric. Host metrics are wall-clock;
//! simulated ones are virtual and repeat exactly for a seed.
//!
//! | metric | unit | meaning |
//! |---|---|---|
//! | `setup_s` | s | median of five set-ups: input generation plus one warm-up call |
//! | `wall_s` | s | host time of one round: each layer call's fastest time across the rounds, summed, plus the fastest remainder outside the calls |
//! | `peak_rss_mb` | MiB | the process's peak resident memory (`VmHWM`) |
//! | `efficiency` | ratio | simulated. Simulator workloads: mean over cells of the Figure 4 bandwidth efficiency. `admit`: requests granted over requests offered, over the ladder |
//! | `latency_mean_ns` | ns | simulated mean over one round: message latency, or for `admit` the queue wait of every granted request |
//!
//! `wall_s` takes per-call minima because the shared 2-vCPU machine this
//! was tuned on slows down by up to 80 % for periods of seconds to
//! minutes, and slowdowns only ever add time: on the same runs, medians
//! of whole rounds spread 1.2 to 1.5 times as wide across runs. Tail
//! latency is per-layer (`sim.latency_p99_ns`), not end to end: on
//! `replay1m` the p99 reads the same for every seed (its tail is the
//! seed-free all-to-all phase), and on `multistage1024` the pooled p99
//! swings 15 % between seeds.
//!
//! Failures are counted in the result line, not as a metric: `attempted`
//! operations and `failed` ones. An operation is a simulated message
//! offered (it fails if not delivered), a request ingested (it fails if
//! neither granted nor rejected), or a trace line written (it fails if
//! it does not parse back). An admission reject is a correct outcome
//! under overload, not a failure; the ladder's rejects show in
//! `efficiency` and `admit.capacity_rps`.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! The traced run repeats the workload with the `pms_trace::prof`
//! counters on and prints the per-layer metrics instead. Layers are
//! timed from outside, around calls into each crate's public functions,
//! and a time is host seconds per round, estimated like `wall_s`; a
//! layer the workload does not call reads 0. The layer times plus
//! `unattributed_s` add up to `traced.wall_s`, and `traced.wall_s`
//! against an untraced run's `wall_s` is the profiling overhead.
//!
//! | layer metrics | should move | on |
//! |---|---|---|
//! | `workloads.build_s` | `setup_s` | all |
//! | `sim.{wormhole,circuit,dynamic_tdm,preload_tdm,hybrid_tdm}_s` | `wall_s` | `paper128`; dynamic TDM also `ports4096`, `replay1m` |
//! | `sim.mstdm_{crossbar,omega,butterfly,fattree}_s` | `wall_s` | `multistage1024` |
//! | `cell.{ms_p50,ms_tail}`: host time per engine call over all rounds, median and the highest percentile with ten samples beyond it (the label line names it and the sample count) | `wall_s` | all |
//! | `sim.{sched_passes,connections_established,predictor_evictions,preload_loads,ws_hit_rate}` (exact) | `efficiency`, `latency_mean_ns` | simulator workloads |
//! | `sim.latency_p99_ns`: mean over cells of each cell's exact p99 | `latency_mean_ns` | simulator workloads |
//! | `sim.idle_scan.{calls,words}` | `wall_s` | `paper128` |
//! | `sched.sl_pass.*`, `bitmat.reduce.*` (`calls`, `words`, `mean_ns`, `est_s` = calls x sampled mean) | `wall_s` | `paper128`, `ports4096`, `admit` |
//! | `multistage.route_dfs.*`, `multistage.route_share` (of the multistage cells' time) | `wall_s` | `multistage1024` |
//! | `par.{lane1_s,laneN_s,speedup}`; `ports4096` reruns its cells on one lane for them | `wall_s` | `ports4096` |
//! | `trace.{null_s,vec_s,pipeline_s,tap_overhead,pipeline_overhead,records}` from the trace probe | `wall_s` on `replay1m`, elsewhere through the Null path | all |
//! | `trace.jsonl_write_s`, `trace.jsonl_mb`, `analyze.{read,parse,report,render}_s` | `wall_s` | `replay1m` |
//! | `analyze.{occupancy,heatmap,churn,contention,spans,timeseries,alerts,faults}_s` from the probe | `wall_s` | `replay1m` |
//! | `span.{arrival,admit,align,transfer}_p99_ns` (simulated, from `spans()`) | `latency_mean_ns` | simulator workloads |
//! | `admit.{fifo,pifo,strict}_s`; `admit.ratelimited_s` (FIFO with the default `RateConfig`) and `admit.batch1_s` (batch of one: no coalescing) over the ladder | `wall_s` | `admit` |
//! | `admit.{batches,mean_batch_fill,peak_queue,rejected_queue_full,rejected_expired,evicted,wait_p99_400_ns,capacity_rps}` | `efficiency`, `latency_mean_ns` | `admit` |
//! | `unattributed_s`: round time outside the layer calls | `wall_s` | all |
//!
//! The trace probe runs one representative cell (Two Phase 64 B dynamic
//! TDM, the 4096-port permutation, the omega uniform cell, FIFO at 400
//! ns, the replay cell) under the Null, Vec and Pipeline sinks, then
//! times each `pms-analyze` section on the pipeline's records.
//! `admit.capacity_rps` is the highest ladder rate, in requests per
//! simulated second, at which no policy rejects and every policy's p99
//! wait is at most 1 µs.
//!
//! A traced run also writes its spans (name, start, end, parent:
//! workload → set-up, round or probe → layer call) as a Chrome trace to
//! `$CARGO_TARGET_DIR/pmsbench/<workload>-seed<n>.spans.json`
//! (`target/pmsbench/...` without the variable); the label line names
//! the file. Open it in Perfetto.
//!
//! # Bounds
//!
//! Each `BENCHMARK.json` bound is three times the widest spread (distance
//! between the quartiles over the median) seen across ten seeds of a
//! workload, capped at 0.25, and `setup_s` carries the cap. Ten 20 s runs
//! per workload at commit 9bab9bf, on a shared x86-64 VM with 2 vCPUs
//! (`ports4096` on 2 lanes, the rest on 1), gave medians (quartiles):
//!
//! | workload | `wall_s` | `setup_s` | `peak_rss_mb` |
//! |---|---|---|---|
//! | `paper128` | 8.95 (8.48–9.36) | 0.048 (0.046–0.053) | 115 |
//! | `ports4096` | 7.27 (6.71–7.74) | 0.79 (0.72–0.81) | 552 |
//! | `multistage1024` | 3.20 (3.11–3.27) | 0.046 (0.042–0.056) | 48 |
//! | `admit` | 1.095 (1.086–1.104) | 0.125 (0.121–0.133) | 348 |
//! | `replay1m` | 4.91 (4.82–5.04) | 0.0018 (0.0018–0.0022) | 501 |
//!
//! In a noisier hour the `wall_s` spreads reached 25 % on
//! `multistage1024` and 47 % on `replay1m`, whole runs landing in slow
//! periods, so `wall_s` sits just under the cap (0.24), below `setup_s`.
//! A second set with the same seeds, run right after, read 12 to 41 %
//! slower on every host metric while every simulated metric repeated
//! exactly: on this machine, host-time comparisons need both sides run
//! interleaved.
//! Between seeds, `efficiency`
//! spreads up to 3.0 % (`ports4096`, whose makespans are a few dozen
//! slots) and `latency_mean_ns` up to 0.5 %; `peak_rss_mb` up to 0.5 %.
//! Traced runs were within noise of untraced ones (−3 % to +10 % on nine
//! of ten runs).
//!
//! # Output checks
//!
//! A fast but wrong run fails:
//!
//! * every simulator cell delivers every message and byte it offered,
//!   and every round's statistics equal round 0's;
//! * `ports4096`, traced: 1-lane statistics JSON equals N-lane JSON;
//! * `multistage1024`: the crossbar graph's statistics equal dynamic
//!   TDM's on the uniform cell, byte for byte;
//! * `admit`: every request is granted or rejected, and at the 400 ns
//!   rung every policy's decision stream is identical across a rerun
//!   and `decisions_from_records`, FIFO's also across a JSONL round
//!   trip;
//! * `replay1m`: every JSONL line parses back, and the report rebuilt
//!   from the JSONL equals the live-records report byte for byte.

mod admit;
mod bench;
mod metrics;
mod probe;
mod replay;
mod sims;
mod spans;
mod stats;

use bench::{Ctx, Size};
use metrics::{END_TO_END, PER_LAYER};
use pms_trace::Json;
use std::path::PathBuf;
use std::process::ExitCode;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Paper128,
    Ports4096,
    Multistage1024,
    Admit,
    Replay1m,
}

impl Workload {
    const ALL: [Workload; 5] = [
        Workload::Paper128,
        Workload::Ports4096,
        Workload::Multistage1024,
        Workload::Admit,
        Workload::Replay1m,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Paper128 => "paper128",
            Workload::Ports4096 => "ports4096",
            Workload::Multistage1024 => "multistage1024",
            Workload::Admit => "admit",
            Workload::Replay1m => "replay1m",
        }
    }

    fn run(self, ctx: &mut Ctx) {
        let id = ctx.spans.open(self.name());
        match self {
            Workload::Paper128 => sims::paper128(ctx),
            Workload::Ports4096 => sims::ports4096(ctx),
            Workload::Multistage1024 => sims::multistage1024(ctx),
            Workload::Admit => admit::admit(ctx),
            Workload::Replay1m => replay::replay1m(ctx),
        }
        ctx.spans.close(id);
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

const USAGE: &str =
    "usage: pmsbench --workload <paper128|ports4096|multistage1024|admit|replay1m> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut traced) = (0, 20.0, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = Workload::ALL.into_iter().find(|w| w.name() == value);
                workload = Some(w.ok_or_else(|| format!("unknown workload `{value}`"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("bad seconds `{value}`"))?;
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        traced,
    })
}

/// Runs `workload` and fills in the process-wide metrics.
fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    size: Size,
    out_dir: PathBuf,
) -> Ctx {
    let mut ctx = Ctx::new(seed, seconds, traced, size, out_dir);
    workload.run(&mut ctx);
    match peak_rss_mib() {
        Some(mib) => ctx.metrics.set("peak_rss_mb", mib),
        None => ctx.fail("cannot read VmHWM from /proc/self/status"),
    }
    ctx
}

/// The result line.
fn result_json(ctx: &Ctx) -> Json {
    let correct = ctx.errors.is_empty();
    let attempted = ctx.attempted.max(1);
    let failed = if correct { ctx.failed } else { attempted };
    let catalogue = if ctx.traced { PER_LAYER } else { END_TO_END };
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::UInt(attempted)),
        ("failed", Json::UInt(failed)),
        ("metrics", ctx.metrics.to_json(catalogue)),
    ])
}

/// Peak resident set size of this process in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Where scratch files and span files go: `pmsbench` under Cargo's
/// target directory, inside the checkout.
fn out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("pmsbench")
}

/// The checked-out commit, read from `.git` in the working directory
/// (no `git` process), or `unknown`.
fn git_sha() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let resolve = || {
        let head = read(".git/HEAD")?;
        let head = head.trim();
        let Some(reference) = head.strip_prefix("ref: ") else {
            return Some(head.to_string());
        };
        if let Some(sha) = read(&format!(".git/{reference}")) {
            return Some(sha.trim().to_string());
        }
        let packed = read(".git/packed-refs")?;
        let line = packed.lines().find(|l| l.ends_with(reference))?;
        line.split(' ').next().map(str::to_string)
    };
    resolve().unwrap_or_else(|| "unknown".to_string())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir = out_dir();
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let name = args.workload.name();
    let ctx = run(
        args.workload,
        args.seed,
        args.seconds,
        args.traced,
        Size::Full,
        out_dir.clone(),
    );

    let (q1, med, q3) = ctx.round_quartiles();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut label = format!(
        "# pmsbench workload={name} seed={} trace={} nproc={nproc} lanes={} git={} \
         rounds={} round_s_q1={q1:.4} round_s_median={med:.4} round_s_q3={q3:.4}",
        args.seed,
        u8::from(args.traced),
        ctx.lanes,
        git_sha(),
        ctx.round_secs.len(),
    );
    if let Some((p, n)) = ctx.cell_tail {
        label.push_str(&format!(" cell_ms_tail=p{p}_of_{n}"));
    }
    if args.traced {
        let path = out_dir.join(format!("{name}-seed{}.spans.json", args.seed));
        match std::fs::write(&path, ctx.spans.chrome_json().render()) {
            Ok(()) => label.push_str(&format!(" spans={}", path.display())),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    for e in &ctx.errors {
        eprintln!("check failed: {e}");
    }
    println!("{label}");
    println!("{}", result_json(&ctx).render());
    if ctx.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse_args(&argv("--workload admit --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(a.workload, Workload::Admit);
        assert_eq!((a.seed, a.seconds, a.traced), (7, 3.0, true));
        for bad in [
            "",
            "--workload nope",
            "--workload admit --trace 2",
            "--workload admit --seconds 0",
            "--workload admit --seed",
            "--workload admit --bogus 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    /// The names in a `BENCHMARK.json` list.
    fn listed(doc: &Json, section: &str) -> Vec<String> {
        match doc.get(section) {
            Some(Json::Array(items)) => items
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect(),
            _ => panic!("BENCHMARK.json has no {section} list"),
        }
    }

    /// Every workload, run at a tiny size, passes its checks and prints
    /// exactly the metric names `BENCHMARK.json` lists, untraced and
    /// traced, with every end-to-end value positive.
    #[test]
    fn printed_metric_names_match_benchmark_json() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(listed(&doc, "workloads"), names);
        let out_dir = out_dir();
        std::fs::create_dir_all(&out_dir).unwrap();
        for workload in Workload::ALL {
            for (traced, section) in [(false, "end_to_end"), (true, "per_layer")] {
                let ctx = run(workload, 3, 0.001, traced, Size::Tiny, out_dir.clone());
                assert!(
                    ctx.errors.is_empty(),
                    "{}: {:?}",
                    workload.name(),
                    ctx.errors
                );
                let line = Json::parse(&result_json(&ctx).render()).unwrap();
                let Some(Json::Object(metrics)) = line.get("metrics") else {
                    panic!("no metrics object");
                };
                let printed: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
                assert_eq!(
                    printed,
                    listed(&doc, section),
                    "{} {section}",
                    workload.name()
                );
                if !traced {
                    for (name, m) in metrics {
                        let value = match m.get("value") {
                            Some(Json::Float(v)) => *v,
                            other => panic!("{name}: {other:?}"),
                        };
                        assert!(value > 0.0, "{}: {name} = {value}", workload.name());
                    }
                }
            }
        }
    }
}

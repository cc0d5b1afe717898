//! `admit` — run the streaming admission service from the command line.
//!
//! ```text
//! cargo run --release -p pms-admit --bin admit -- \
//!     --pattern uniform --ports 16 --policy pifo --rate 2000000 --burst 8
//! ```
//!
//! Requests come from a built-in workload pattern (via the
//! `pms-workloads` arrival generator), a request file, or stdin (one
//! `req <t_ns> <tenant> <src> <dst> [bytes]` line per request). The
//! decision stream — one `grant`/`evict`/`reject` line per decision, in
//! deterministic order — goes to stdout; the summary goes to stderr.
//! `--trace out.jsonl` writes the replayable trace; `--report out.json`
//! runs the `pms-analyze` report (including its admission section) over
//! the run's records; `--serve ADDR` exposes live telemetry (including
//! `/admission`) over HTTP.

use std::io::Read as _;

use pms_admit::{
    parse_requests, AdmitConfig, AdmitEngine, AdmitOutcome, Backpressure, PolicyKind, RateConfig,
};
use pms_analyze::{build_report, ReportConfig};
use pms_multistage::{MultistageRouter, StageGraph};
use pms_telemetry::TelemetryServer;
use pms_trace::{write_jsonl, Json, SharedTracer, SnapshotConfig, Tracer, DEFAULT_WINDOW_SLOTS};
use pms_workloads::{
    butterfly, gather, hotspot, permutation, ring, scatter, transpose, uniform, ArrivalConfig,
    ConnRequest, Workload,
};

struct Args {
    pattern: String,
    from_file: Option<String>,
    stdin: bool,
    ports: usize,
    bytes: u32,
    messages: usize,
    seed: u64,
    tenants: u32,
    send_gap_ns: u64,
    slots: usize,
    batch: usize,
    epoch_ns: u64,
    queue_cap: usize,
    backpressure: Backpressure,
    policy: PolicyKind,
    rate: u64,
    burst: u32,
    max_denials: u32,
    fabric: Option<String>,
    trace: Option<String>,
    report: Option<String>,
    serve: Option<String>,
    json: bool,
    quiet: bool,
    threads: usize,
}

fn die(msg: String) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

fn usage() -> ! {
    eprintln!(
        "usage: admit [--pattern P | --from-file REQS.txt | --stdin]\n\
         \x20            [--ports N] [--bytes B] [--messages M] [--seed S]\n\
         \x20            [--tenants T] [--send-gap-ns NS]\n\
         \x20            [--slots K] [--batch B] [--epoch-ns NS]\n\
         \x20            [--queue-cap C] [--backpressure reject-new|shed-oldest]\n\
         \x20            [--policy fifo|strict|pifo] [--rate R] [--burst B]\n\
         \x20            [--max-denials D] [--fabric crossbar|omega|butterfly|fat-tree]\n\
         \x20            [--trace OUT.jsonl] [--report OUT.json] [--serve ADDR]\n\
         \x20            [--json] [--quiet] [--threads N]\n\
         patterns : scatter gather ring uniform hotspot permutation butterfly transpose\n\
         --stdin  : read `req <t_ns> <tenant> <src> <dst> [bytes]` lines from stdin\n\
         --tenants: stripe sources over T tenants (0 = one tenant per port)\n\
         --batch  : requests coalesced per epoch (0 = ports)\n\
         --rate   : per-tenant token-bucket rate, requests per virtual second\n\
         \x20          (0 = rate limiting off); --burst sets the bucket depth\n\
         --policy : PIFO rank discipline (fifo | strict tenant priority |\n\
         \x20          pifo shortest-first)\n\
         --fabric : admit through a multistage stage-graph instead of the\n\
         \x20          plain crossbar\n\
         --trace  : write the replayable JSONL record stream\n\
         --report : run the pms-analyze report (admission section included)\n\
         --serve  : live telemetry at ADDR (adds /admission to the endpoints);\n\
         \x20          lingers after the run until GET /shutdown\n\
         --json   : print the summary as one JSON object on stdout\n\
         --quiet  : suppress the per-decision stdout lines\n\
         --threads: worker lanes, recorded in headers and /metrics labels\n\
         \x20          (the single admission stream itself is serialized by\n\
         \x20          design; admit_bench fans its policy sweep over lanes)"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        pattern: "uniform".into(),
        from_file: None,
        stdin: false,
        ports: 16,
        bytes: 64,
        messages: 16,
        seed: 17,
        tenants: 0,
        send_gap_ns: 100,
        slots: 2,
        batch: 0,
        epoch_ns: 100,
        queue_cap: 0,
        backpressure: Backpressure::RejectNew,
        policy: PolicyKind::Fifo,
        rate: 0,
        burst: 16,
        max_denials: 64,
        fabric: None,
        trace: None,
        report: None,
        serve: None,
        json: false,
        quiet: false,
        threads: pms_par::available_parallelism(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let value = |i: usize| -> &str {
            argv.get(i + 1)
                .map(String::as_str)
                .unwrap_or_else(|| usage())
        };
        match argv[i].as_str() {
            "--stdin" => {
                args.stdin = true;
                i += 1;
                continue;
            }
            "--json" => {
                args.json = true;
                i += 1;
                continue;
            }
            "--quiet" => {
                args.quiet = true;
                i += 1;
                continue;
            }
            "--pattern" => args.pattern = value(i).to_string(),
            "--from-file" => args.from_file = Some(value(i).to_string()),
            "--ports" => args.ports = value(i).parse().unwrap_or_else(|_| usage()),
            "--bytes" => args.bytes = value(i).parse().unwrap_or_else(|_| usage()),
            "--messages" => args.messages = value(i).parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = value(i).parse().unwrap_or_else(|_| usage()),
            "--tenants" => args.tenants = value(i).parse().unwrap_or_else(|_| usage()),
            "--send-gap-ns" => args.send_gap_ns = value(i).parse().unwrap_or_else(|_| usage()),
            "--slots" => args.slots = value(i).parse().unwrap_or_else(|_| usage()),
            "--batch" => args.batch = value(i).parse().unwrap_or_else(|_| usage()),
            "--epoch-ns" => args.epoch_ns = value(i).parse().unwrap_or_else(|_| usage()),
            "--queue-cap" => args.queue_cap = value(i).parse().unwrap_or_else(|_| usage()),
            "--backpressure" => {
                args.backpressure = Backpressure::from_name(value(i)).unwrap_or_else(|| usage())
            }
            "--policy" => args.policy = PolicyKind::from_name(value(i)).unwrap_or_else(|| usage()),
            "--rate" => args.rate = value(i).parse().unwrap_or_else(|_| usage()),
            "--burst" => args.burst = value(i).parse().unwrap_or_else(|_| usage()),
            "--max-denials" => args.max_denials = value(i).parse().unwrap_or_else(|_| usage()),
            "--fabric" => args.fabric = Some(value(i).to_string()),
            "--trace" => args.trace = Some(value(i).to_string()),
            "--report" => args.report = Some(value(i).to_string()),
            "--serve" => args.serve = Some(value(i).to_string()),
            "--threads" => {
                args.threads = value(i).parse::<usize>().unwrap_or_else(|_| usage()).max(1)
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag `{other}`");
                usage()
            }
        }
        i += 2;
    }
    if args.stdin && args.from_file.is_some() {
        eprintln!("--stdin and --from-file are mutually exclusive");
        usage()
    }
    args
}

fn build_workload(a: &Args) -> Workload {
    match a.pattern.as_str() {
        "scatter" => scatter(a.ports, a.bytes),
        "gather" => gather(a.ports, a.bytes),
        "ring" => ring(a.ports, a.bytes, 4),
        "uniform" => uniform(a.ports, a.bytes, a.messages, a.seed),
        "hotspot" => hotspot(a.ports, a.bytes, a.messages, 0.5, a.seed),
        "permutation" => permutation(a.ports, a.bytes, a.messages, a.seed),
        "butterfly" => butterfly(a.ports, a.bytes),
        "transpose" => {
            let m = (a.ports as f64).sqrt() as usize;
            assert_eq!(m * m, a.ports, "transpose needs a square port count");
            transpose(m, a.bytes, 2)
        }
        _ => usage(),
    }
}

fn build_requests(a: &Args) -> Vec<ConnRequest> {
    if a.stdin {
        let mut text = String::new();
        std::io::stdin()
            .read_to_string(&mut text)
            .unwrap_or_else(|e| die(format!("cannot read stdin: {e}")));
        return parse_requests(&text).unwrap_or_else(|e| die(format!("stdin: {e}")));
    }
    if let Some(path) = &a.from_file {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(format!("cannot read {path}: {e}")));
        return parse_requests(&text).unwrap_or_else(|e| die(format!("{path}: {e}")));
    }
    build_workload(a)
        .arrivals(&ArrivalConfig {
            send_gap_ns: a.send_gap_ns,
            tenants: a.tenants,
        })
        .collect()
}

/// Builds the `--fabric` router, exiting 2 with a one-line message when
/// the port count does not fit the topology.
fn build_fabric(name: &str, ports: usize, slots: usize) -> MultistageRouter {
    let bad_geometry = |need: &str| {
        eprintln!("admit: --fabric {name} needs --ports {need}, got {ports}");
        std::process::exit(2)
    };
    let graph = match name {
        "omega" | "butterfly" if !(ports >= 2 && ports.is_power_of_two()) => {
            bad_geometry("a power of two >= 2")
        }
        "fat-tree" if !(ports >= 4 && ports.is_multiple_of(4)) => bad_geometry("a multiple of 4"),
        "crossbar" => StageGraph::crossbar(ports),
        "omega" => StageGraph::omega(ports),
        "butterfly" => StageGraph::butterfly(ports),
        "fat-tree" => StageGraph::fat_tree(ports, 4, 2),
        _ => usage(),
    };
    MultistageRouter::new(graph, slots)
}

fn summary_json(args: &Args, outcome: &AdmitOutcome) -> Json {
    let s = outcome.stats;
    Json::obj([
        ("policy", Json::str(args.policy.name())),
        ("backpressure", Json::str(args.backpressure.name())),
        ("ingested", Json::UInt(s.ingested)),
        ("enqueued", Json::UInt(s.enqueued)),
        ("granted", Json::UInt(s.granted)),
        ("rejected", Json::UInt(s.rejected())),
        ("rejected_rate", Json::UInt(s.rejected_rate)),
        ("rejected_queue_full", Json::UInt(s.rejected_queue_full)),
        ("rejected_shed", Json::UInt(s.rejected_shed)),
        ("rejected_expired", Json::UInt(s.rejected_expired)),
        ("evicted", Json::UInt(s.evicted)),
        ("batches", Json::UInt(s.batches)),
        ("peak_queue", Json::UInt(s.peak_queue as u64)),
        ("end_ns", Json::UInt(outcome.end_ns)),
    ])
}

fn main() {
    let args = parse_args();
    let router = args
        .fabric
        .as_deref()
        .map(|f| build_fabric(f, args.ports, args.slots));
    let requests = build_requests(&args);
    let mut cfg = AdmitConfig::new(args.ports);
    cfg.slots = args.slots;
    cfg.batch = if args.batch == 0 {
        args.ports
    } else {
        args.batch
    };
    cfg.epoch_ns = args.epoch_ns;
    cfg.queue_cap = if args.queue_cap == 0 {
        4 * args.ports
    } else {
        args.queue_cap
    };
    cfg.backpressure = args.backpressure;
    cfg.max_denials = args.max_denials;
    cfg.rate = (args.rate > 0).then_some(RateConfig {
        rate_per_sec: args.rate,
        burst: args.burst,
    });

    let server = args.serve.as_ref().map(|addr| {
        let shared = SharedTracer::new();
        let server = TelemetryServer::start(addr, shared.clone())
            .unwrap_or_else(|e| die(format!("cannot serve on {addr}: {e}")));
        eprintln!(
            "serving      : http://{}/  (/metrics /metrics.json /report /admission /alerts /timeseries /spans?msg=N /shutdown)",
            server.addr()
        );
        (shared, server)
    });
    let base = if let Some((shared, _)) = &server {
        Tracer::shared(shared.clone())
    } else if args.trace.is_some() || args.report.is_some() {
        Tracer::vec()
    } else {
        Tracer::Null
    };
    // Same pipeline stacking as `simulate`: any live sink gets the
    // slot-windowed snapshot series (one window per 64 epochs).
    let mut tracer = if base.enabled() {
        Tracer::pipeline(
            SnapshotConfig::per_slots(args.epoch_ns, DEFAULT_WINDOW_SLOTS),
            None,
            base,
        )
    } else {
        base
    };

    let mut engine = AdmitEngine::new(cfg, args.policy.build());
    if let Some(router) = router {
        engine = engine.with_router(router);
    }
    let wall_start = std::time::Instant::now();
    let outcome = engine.run(requests, &mut tracer);
    let wall = wall_start.elapsed();
    if let Tracer::Pipeline(p) = &mut tracer {
        p.seal(outcome.end_ns, 0);
    }

    if !args.quiet {
        let mut out = String::new();
        for d in &outcome.decisions {
            out.push_str(&d.render());
            out.push('\n');
        }
        print!("{out}");
    }
    if let Some(path) = &args.trace {
        let records = tracer.records();
        write_jsonl(path, &records)
            .unwrap_or_else(|e| die(format!("cannot write trace {path}: {e}")));
        eprintln!("trace        : {} events -> {path}", records.len());
    }
    if let Some(path) = &args.report {
        let report = build_report(&tracer.records(), &ReportConfig::default());
        std::fs::write(path, report.to_json().render_pretty())
            .unwrap_or_else(|e| die(format!("cannot write report {path}: {e}")));
        eprint!("{}", report.render_text());
        eprintln!("report       : -> {path}");
    }
    let s = outcome.stats;
    if args.json {
        println!("{}", summary_json(&args, &outcome).render_pretty());
    } else {
        eprintln!("policy       : {}", args.policy.name());
        eprintln!("backpressure : {}", args.backpressure.name());
        eprintln!("ingested     : {}", s.ingested);
        eprintln!("enqueued     : {}", s.enqueued);
        eprintln!("granted      : {}", s.granted);
        eprintln!(
            "rejected     : {} (rate {}, queue-full {}, shed {}, expired {})",
            s.rejected(),
            s.rejected_rate,
            s.rejected_queue_full,
            s.rejected_shed,
            s.rejected_expired
        );
        eprintln!("evicted      : {}", s.evicted);
        eprintln!("batches      : {}", s.batches);
        eprintln!("peak queue   : {}", s.peak_queue);
        eprintln!("virtual end  : {} ns", outcome.end_ns);
        eprintln!(
            "wall-clock   : {:.3} ms ({} thread{})",
            wall.as_secs_f64() * 1e3,
            args.threads,
            if args.threads == 1 { "" } else { "s" }
        );
    }
    if let Some((_, srv)) = server {
        srv.publish_labels(&[
            ("policy", args.policy.name().to_string()),
            ("ports", args.ports.to_string()),
            ("k", args.slots.to_string()),
            ("threads", args.threads.to_string()),
        ]);
        eprintln!("serving      : run complete; GET /shutdown to exit");
        srv.wait();
    }
}

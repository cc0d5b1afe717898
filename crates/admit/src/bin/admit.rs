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
use pms_trace::cli::{self, die, fail, FlagError, Flags};
use pms_trace::{write_jsonl, Json, SharedTracer, SnapshotConfig, Tracer, DEFAULT_WINDOW_SLOTS};
use pms_workloads::{build_pattern, ArrivalConfig, ConnRequest};

struct Args {
    pattern: String,
    from_file: Option<String>,
    stdin: bool,
    bytes: u32,
    messages: usize,
    seed: u64,
    tenants: u32,
    send_gap_ns: u64,
    cfg: AdmitConfig,
    policy: PolicyKind,
    fabric: Option<String>,
    trace: Option<String>,
    report: Option<String>,
    serve: Option<String>,
    json: bool,
    quiet: bool,
}

const USAGE: &str = "\
usage: admit [--pattern P | --from-file REQS.txt | --stdin]
             [--ports N] [--bytes B] [--messages M] [--seed S]
             [--tenants T] [--send-gap-ns NS]
             [--slots K] [--batch B] [--epoch-ns NS]
             [--queue-cap C] [--backpressure reject-new|shed-oldest]
             [--policy fifo|strict|pifo] [--rate R] [--burst B]
             [--max-denials D] [--fabric crossbar|omega|butterfly|fat-tree]
             [--trace OUT.jsonl] [--report OUT.json] [--serve ADDR]
             [--json] [--quiet]
patterns : scatter gather ring uniform hotspot permutation butterfly
           transpose stencil3d ordered-mesh random-mesh two-phase
--messages: per-processor messages of uniform and hotspot, rounds of
           permutation
--stdin  : read `req <t_ns> <tenant> <src> <dst> [bytes]` lines from stdin
--tenants: stripe sources over T tenants (0 = one tenant per port)
--batch  : requests coalesced per epoch (0 = ports)
--rate   : per-tenant token-bucket rate, requests per virtual second
           (0 = rate limiting off); --burst sets the bucket depth
--policy : PIFO rank discipline (fifo | strict tenant priority |
           pifo shortest-first)
--fabric : admit through a multistage stage-graph instead of the
           plain crossbar
--trace  : write the replayable JSONL record stream
--report : run the pms-analyze report (admission section included)
--serve  : live telemetry at ADDR (adds /admission to the endpoints);
           lingers after the run until GET /shutdown
--json   : print the summary as one JSON object on stdout
--quiet  : suppress the per-decision stdout lines";

fn parse_args(f: &mut Flags) -> Result<Args, FlagError> {
    let ports = f.get("--ports", 16)?;
    let (rate, burst) = (f.get("--rate", 0)?, f.get("--burst", 16)?);
    Ok(Args {
        pattern: f.get("--pattern", "uniform".into())?,
        from_file: f.opt("--from-file")?,
        stdin: f.switch("--stdin"),
        bytes: f.get("--bytes", 64)?,
        messages: f.get("--messages", 16)?,
        seed: f.get("--seed", 17)?,
        tenants: f.get("--tenants", 0)?,
        send_gap_ns: f.get("--send-gap-ns", 100)?,
        cfg: AdmitConfig {
            ports,
            slots: f.get("--slots", 2)?,
            batch: Some(f.get("--batch", 0)?)
                .filter(|&b| b > 0)
                .unwrap_or(ports),
            epoch_ns: f.get("--epoch-ns", 100)?,
            queue_cap: Some(f.get("--queue-cap", 0)?)
                .filter(|&c| c > 0)
                .unwrap_or(4 * ports),
            backpressure: f
                .parse_with(
                    "--backpressure",
                    "reject-new or shed-oldest",
                    Backpressure::from_name,
                )?
                .unwrap_or(Backpressure::RejectNew),
            rate: (rate > 0).then_some(RateConfig {
                rate_per_sec: rate,
                burst,
            }),
            max_denials: f.get("--max-denials", 64)?,
        },
        policy: f
            .parse_with("--policy", "fifo, strict or pifo", PolicyKind::from_name)?
            .unwrap_or(PolicyKind::Fifo),
        fabric: f.opt("--fabric")?,
        trace: f.opt("--trace")?,
        report: f.opt("--report")?,
        serve: f.opt("--serve")?,
        json: f.switch("--json"),
        quiet: f.switch("--quiet"),
    })
}

fn build_requests(a: &Args) -> Vec<ConnRequest> {
    let text = if a.stdin {
        let mut text = String::new();
        std::io::stdin().read_to_string(&mut text).map(|_| text)
    } else if let Some(path) = &a.from_file {
        std::fs::read_to_string(path)
    } else {
        return build_pattern(&a.pattern, a.cfg.ports, a.bytes, Some(a.messages), a.seed)
            .unwrap_or_else(|e| fail(format!("admit: {e}")))
            .arrivals(&ArrivalConfig {
                send_gap_ns: a.send_gap_ns,
                tenants: a.tenants,
            })
            .collect();
    };
    let source = a.from_file.as_deref().unwrap_or("stdin");
    let text = text.unwrap_or_else(|e| die(format!("cannot read {source}: {e}")));
    parse_requests(&text, a.cfg.ports).unwrap_or_else(|e| die(format!("{source}: {e}")))
}

/// Builds the `--fabric` router, exiting 2 with a one-line message when
/// the port count does not fit the topology.
fn build_fabric(name: &str, ports: usize, slots: usize) -> MultistageRouter {
    let bad_geometry = |need: &str| {
        fail(format!(
            "admit: --fabric {name} needs --ports {need}, got {ports}"
        ))
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
        _ => fail(FlagError::BadValue {
            flag: "--fabric".into(),
            value: name.into(),
            expected: "crossbar, omega, butterfly or fat-tree",
        }),
    };
    MultistageRouter::new(graph, slots)
}

fn summary_json(args: &Args, outcome: &AdmitOutcome) -> Json {
    let s = outcome.stats;
    Json::obj([
        ("policy", Json::str(args.policy.name())),
        ("backpressure", Json::str(args.cfg.backpressure.name())),
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
    let args = cli::parse_env(USAGE, parse_args);
    if args.stdin && args.from_file.is_some() {
        fail("admit: --stdin and --from-file are mutually exclusive");
    }
    if let Err(e) = args.cfg.validate() {
        fail(format!(
            "admit: --{} must be positive",
            e.field.replace('_', "-")
        ));
    }
    let router = args
        .fabric
        .as_deref()
        .map(|f| build_fabric(f, args.cfg.ports, args.cfg.slots));
    let requests = build_requests(&args);

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
            SnapshotConfig::per_slots(args.cfg.epoch_ns, DEFAULT_WINDOW_SLOTS),
            None,
            base,
        )
    } else {
        base
    };

    let mut engine = AdmitEngine::new(args.cfg.clone(), args.policy.build());
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
    // One copy of the trace serves both the trace file and the report.
    let records = if args.trace.is_some() || args.report.is_some() {
        tracer.records()
    } else {
        Vec::new()
    };
    if let Some(path) = &args.trace {
        write_jsonl(path, &records)
            .unwrap_or_else(|e| die(format!("cannot write trace {path}: {e}")));
        eprintln!("trace        : {} events -> {path}", records.len());
    }
    if let Some(path) = &args.report {
        let report = build_report(&records, &ReportConfig::default());
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
        eprintln!("backpressure : {}", args.cfg.backpressure.name());
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
        eprintln!("wall-clock   : {:.3} ms", wall.as_secs_f64() * 1e3);
    }
    if let Some((_, srv)) = server {
        srv.publish_labels(&[
            ("policy", args.policy.name().to_string()),
            ("ports", args.cfg.ports.to_string()),
            ("k", args.cfg.slots.to_string()),
        ]);
        eprintln!("serving      : run complete; GET /shutdown to exit");
        srv.wait();
    }
}

//! `simulate` — run any built-in pattern under any switching paradigm from
//! the command line and print the full statistics block.
//!
//! ```text
//! cargo run --release -p pms-bench --bin simulate -- \
//!     --pattern ordered-mesh --ports 128 --bytes 512 --paradigm preload
//! ```
//!
//! `simulate --help` prints every flag (`USAGE`). The `--report` JSON is
//! byte-identical to replaying the `--trace` JSONL through `analyze`, and
//! `--flight-recorder` writes nothing unless an alert fires.

use pms_analyze::ReportConfig;
use pms_bench::{write_report_file, write_trace_file};
use pms_faults::FaultPlan;
use pms_predict::PhaseDetectorConfig;
use pms_sim::{Paradigm, PredictorKind, RunSpec, SimParams};
use pms_telemetry::TelemetryServer;
use pms_trace::cli::{self, die, fail, FlagError, Flags};
use pms_trace::{
    series_to_csv, AlertRules, FlightConfig, SharedTracer, SnapshotConfig, Tracer,
    DEFAULT_WINDOW_SLOTS,
};
use pms_workloads::{build_pattern, Workload};

struct Args {
    pattern: String,
    ports: usize,
    bytes: u32,
    paradigm: String,
    slots: usize,
    timeout_ns: u64,
    seed: u64,
    trace: Option<String>,
    report: Option<String>,
    flight: Option<String>,
    faults: Option<String>,
    alerts: Option<String>,
    timeseries_csv: Option<String>,
    serve: Option<String>,
    json: bool,
    phase_detector: bool,
    idle_skip: bool,
}

fn parse_args(f: &mut Flags) -> Result<Args, FlagError> {
    Ok(Args {
        pattern: f.get("--pattern", "ordered-mesh".into())?,
        ports: f.get("--ports", 128)?,
        bytes: f.get("--bytes", 64)?,
        paradigm: f.get("--paradigm", "dynamic".into())?,
        slots: f.get("--slots", 4)?,
        timeout_ns: f.get("--timeout", 0)?,
        seed: f.get("--seed", 17)?,
        trace: f.opt("--trace")?,
        report: f.opt("--report")?,
        flight: f.opt("--flight-recorder")?,
        faults: f.opt("--faults")?,
        alerts: f.opt("--alerts")?,
        timeseries_csv: f.opt("--timeseries-csv")?,
        serve: f.opt("--serve")?,
        json: f.switch("--json"),
        phase_detector: f.switch("--phase-detector"),
        idle_skip: !f.switch("--no-idle-skip"),
    })
}

const USAGE: &str = "\
usage: simulate [--pattern P] [--ports N] [--bytes B] [--paradigm X]
                [--slots K] [--timeout NS] [--seed S]
                [--trace OUT] [--report OUT.json] [--faults PLAN.txt]
                [--alerts RULES.txt] [--timeseries-csv OUT.csv]
                [--flight-recorder OUT.jsonl] [--serve ADDR] [--json]
                [--phase-detector] [--no-idle-skip]
patterns : scatter gather ring uniform hotspot permutation butterfly
           transpose stencil3d ordered-mesh random-mesh two-phase,
           or dir:PATH for the command files dump_cmdfiles writes
paradigms: wormhole circuit dynamic preload hybrid0 hybrid1 hybrid2
--trace  : write a trace file; .jsonl -> replayable records (for the
           analyze binary), otherwise Chrome Trace Event format
--report : run the pms-analyze report over the run and write its JSON
--faults : inject the deterministic fault plan parsed from PLAN.txt
--alerts : evaluate the alert rules file against slot-window metric
           snapshots; raises/clears land in the trace stream
--timeseries-csv : write the per-window metrics-snapshot series as CSV
--flight-recorder : bounded-ring anomaly recorder; dumps the ring to
           the given JSONL when an alert fires (default rules:
           setup-latency spike / abandoned message)
--serve  : serve live telemetry over HTTP at ADDR (e.g.
           127.0.0.1:9924): /metrics /metrics.json /report /alerts
           /timeseries /flight /spans?msg=N;
           lingers after the run until GET /shutdown
--json   : print statistics as one JSON object
--phase-detector : attach the miss-rate phase detector (dynamic TDM)
--no-idle-skip : force the pre-optimization stepped main loop
           (outputs are byte-identical either way; only wall-clock
           changes — see DESIGN.md, Performance model)";

/// Builds the `--pattern` workload.
fn build_workload(a: &Args) -> Workload {
    // `dir:<path>` loads per-processor command files (as written by the
    // dump_cmdfiles tool) instead of generating a pattern.
    if let Some(dir) = a.pattern.strip_prefix("dir:") {
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .unwrap_or_else(|e| die(format!("cannot read {dir}: {e}")))
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "cmd"))
            .collect();
        paths.sort();
        if paths.is_empty() {
            die(format!("no .cmd files in {dir}"));
        }
        let files: Vec<String> = paths
            .iter()
            .map(|p| {
                std::fs::read_to_string(p)
                    .unwrap_or_else(|e| die(format!("cannot read {}: {e}", p.display())))
            })
            .collect();
        return Workload::from_command_files(format!("dir:{dir}"), &files)
            .unwrap_or_else(|(p, e)| die(format!("processor {p}: {e}")));
    }
    build_pattern(&a.pattern, a.ports, a.bytes, None, a.seed)
        .unwrap_or_else(|e| fail(format!("simulate: {e}")))
}

fn build_paradigm(a: &Args) -> Paradigm {
    let predictor = if a.timeout_ns > 0 {
        PredictorKind::Timeout(a.timeout_ns)
    } else {
        PredictorKind::Drop
    };
    match a.paradigm.as_str() {
        "wormhole" => Paradigm::Wormhole,
        "circuit" => Paradigm::Circuit,
        "dynamic" => Paradigm::DynamicTdm(predictor),
        "preload" => Paradigm::PreloadTdm,
        "hybrid0" | "hybrid1" | "hybrid2" => Paradigm::HybridTdm {
            preload_slots: (a.paradigm.as_bytes()[6] - b'0') as usize,
            predictor,
        },
        _ => fail(FlagError::BadValue {
            flag: "--paradigm".into(),
            value: a.paradigm.clone(),
            expected: "one of wormhole circuit dynamic preload hybrid0 hybrid1 hybrid2",
        }),
    }
}

fn main() {
    let args = cli::parse_env(USAGE, parse_args);
    if args.flight.is_some() && (args.trace.is_some() || args.report.is_some()) {
        fail(
            "simulate: --flight-recorder keeps only a bounded ring of recent events; \
             it cannot be combined with --trace or --report",
        );
    }
    if args.flight.is_some() && args.serve.is_some() {
        fail("simulate: --serve needs the full shared record buffer; it cannot be combined with --flight-recorder");
    }
    let workload = build_workload(&args);
    let mut params = SimParams::default()
        .with_ports(args.ports)
        .with_idle_skip(args.idle_skip);
    params.tdm_slots = args.slots;
    let rate = params.link.bytes_per_ns();
    let snap_cfg = SnapshotConfig::per_slots(params.slot_ns, DEFAULT_WINDOW_SLOTS);
    let plan = match &args.faults {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| die(format!("cannot read fault plan {path}: {e}")));
            FaultPlan::parse(&text).unwrap_or_else(|e| die(format!("{path}: {e}")))
        }
        None => FaultPlan::new(),
    };
    let run = RunSpec {
        plan,
        phase_detector: args.phase_detector.then_some(PhaseDetectorConfig {
            window: 8,
            miss_threshold: 0.75,
            cooldown: 16,
        }),
        ..RunSpec::new(&workload, params, build_paradigm(&args))
    }
    .validate()
    .unwrap_or_else(|e| fail(format!("simulate: {e}")));

    let rules = args.alerts.as_ref().map(|path| {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(format!("cannot read alert rules {path}: {e}")));
        AlertRules::parse(&text).unwrap_or_else(|e| die(format!("{path}: {e}")))
    });

    let server = args.serve.as_ref().map(|addr| {
        let shared = SharedTracer::new();
        let server = TelemetryServer::start(addr, shared.clone())
            .unwrap_or_else(|e| die(format!("cannot serve on {addr}: {e}")));
        eprintln!(
            "serving      : http://{}/  (/metrics /metrics.json /report /alerts /timeseries /flight /spans?msg=N /shutdown)",
            server.addr()
        );
        (shared, server)
    });
    let base = if let Some(path) = &args.flight {
        Tracer::flight(path.clone(), FlightConfig::default())
    } else if let Some((shared, _)) = &server {
        Tracer::shared(shared.clone())
    } else if args.trace.is_some() || args.report.is_some() {
        Tracer::vec()
    } else {
        Tracer::Null
    };
    // Stack the snapshot/alert pipeline in front of any live sink (so
    // traces, reports, and telemetry all carry the metrics-snapshot
    // series), and whenever snapshots or alerts were asked for
    // explicitly. The flight recorder dumps on alert-raised records
    // flowing through it, so it always gets a rule set.
    let want_alerts = rules.is_some();
    let tracer = if base.enabled() || want_alerts || args.timeseries_csv.is_some() {
        let rules = match (rules, args.flight.is_some()) {
            (Some(r), _) => Some(r),
            (None, true) => Some(AlertRules::default_flight()),
            (None, false) => None,
        };
        Tracer::pipeline(snap_cfg, rules, base)
    } else {
        base
    };
    let wall_start = std::time::Instant::now();
    let (stats, mut tracer) = run.run(tracer);
    eprintln!(
        "wall-clock   : {:.3} ms{}",
        wall_start.elapsed().as_secs_f64() * 1e3,
        if args.idle_skip {
            ""
        } else {
            " (idle skip off)"
        }
    );
    pms_bench::finish(&mut tracer);
    let flight_recorder = match &tracer {
        Tracer::Flight(fr) => Some(fr.as_ref()),
        Tracer::Pipeline(p) => match p.inner() {
            Tracer::Flight(fr) => Some(fr.as_ref()),
            _ => None,
        },
        _ => None,
    };
    if let Some(fr) = flight_recorder {
        if fr.triggers() > 0 {
            eprintln!(
                "flight       : {} trigger(s), {} records -> {}",
                fr.triggers(),
                fr.written(),
                args.flight.as_deref().unwrap_or("?")
            );
        } else {
            eprintln!("flight       : no anomalies; nothing written");
        }
    }
    if let (Tracer::Pipeline(p), true) = (&tracer, args.alerts.is_some()) {
        if let Some(engine) = p.engine() {
            eprintln!(
                "alerts       : {} rule(s), {} raised, {} cleared over {} window(s)",
                engine.rules().len(),
                engine.raised(),
                engine.cleared(),
                p.collector().emitted()
            );
        }
    }
    if let Some(path) = &args.timeseries_csv {
        let snaps = tracer.snapshots();
        std::fs::write(path, series_to_csv(&snaps))
            .unwrap_or_else(|e| die(format!("cannot write time series {path}: {e}")));
        eprintln!("time series  : {} window(s) -> {path}", snaps.len());
    }
    // One copy of the trace serves both the trace file and the report;
    // it moves out of the tracer, so every read of the tracer comes first.
    let records = if args.trace.is_some() || args.report.is_some() {
        tracer.into_records()
    } else {
        Vec::new()
    };
    if let Some(path) = &args.trace {
        write_trace_file(path, &records)
            .unwrap_or_else(|e| die(format!("cannot write trace {path}: {e}")));
        eprintln!("trace        : {} events -> {path}", records.len());
    }
    if let Some(path) = &args.report {
        let report = write_report_file(path, &records, &ReportConfig::default())
            .unwrap_or_else(|e| die(format!("cannot write report {path}: {e}")));
        eprint!("{}", report.render_text());
        eprintln!("report       : -> {path}");
    }
    if let Some((_, srv)) = &server {
        srv.publish_metrics(stats.registry());
        srv.publish_labels(&[
            ("paradigm", stats.paradigm.clone()),
            ("ports", args.ports.to_string()),
            ("k", args.slots.to_string()),
        ]);
    }
    if args.json {
        println!("{}", stats.to_json().render_pretty());
        linger(server);
        return;
    }
    println!("workload     : {}", stats.workload);
    println!("paradigm     : {}", stats.paradigm);
    println!("messages     : {}", stats.delivered_messages);
    println!("bytes        : {}", stats.delivered_bytes);
    println!("makespan     : {} ns", stats.makespan_ns);
    println!("efficiency   : {:.1} %", stats.efficiency(rate) * 100.0);
    println!(
        "throughput   : {:.3} B/ns aggregate",
        stats.throughput_bytes_per_ns()
    );
    println!(
        "latency      : mean {:.0} ns, p50 {} ns, p99 {} ns, max {} ns",
        stats.mean_latency_ns(),
        stats.p50_latency_ns(),
        stats.p99_latency_ns(),
        stats.max_latency_ns
    );
    println!("sched passes : {}", stats.sched_passes);
    println!("established  : {}", stats.connections_established);
    println!("evictions    : {}", stats.predictor_evictions);
    println!("preloads     : {}", stats.preload_loads);
    if stats.msg_retries > 0 || stats.msgs_abandoned > 0 {
        println!(
            "faults       : {} retries, {} abandoned",
            stats.msg_retries, stats.msgs_abandoned
        );
    }
    if let Some(rate) = stats.working_set_hit_rate() {
        println!("ws hit rate  : {:.1} %", rate * 100.0);
    }
    linger(server);
}

/// With `--serve`, keeps the telemetry endpoint answering after the run
/// until a client requests `/shutdown`.
fn linger(server: Option<(SharedTracer, TelemetryServer)>) {
    if let Some((_, srv)) = server {
        eprintln!("serving      : run complete; GET /shutdown to exit");
        srv.wait();
    }
}

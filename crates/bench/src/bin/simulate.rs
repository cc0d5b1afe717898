//! `simulate` — run any built-in pattern under any switching paradigm from
//! the command line and print the full statistics block.
//!
//! ```text
//! cargo run --release -p pms-bench --bin simulate -- \
//!     --pattern ordered-mesh --ports 128 --bytes 512 --paradigm preload
//! ```
//!
//! `--trace out.json` records every simulator event and writes a Chrome
//! Trace Event file loadable in `chrome://tracing` or Perfetto; with a
//! `.jsonl` extension it writes the replayable line-per-record format
//! consumed by the `analyze` binary instead. `--report out.json` runs
//! the full `pms-analyze` report (slot occupancy, traffic heatmap,
//! predictor churn, setup-latency attribution, fault impact) over the
//! run's events,
//! prints it, and writes the JSON — byte-identical to replaying the
//! `.jsonl` trace through `analyze`. `--flight-recorder out.jsonl`
//! attaches the bounded-ring anomaly recorder instead of a full tracer:
//! nothing is written unless a setup-latency outlier fires. `--json`
//! prints the statistics as one JSON object instead of the text block;
//! `--phase-detector` attaches the §3.3 miss-rate phase detector to
//! dynamic TDM runs. `--faults plan.txt` injects the deterministic
//! fault schedule parsed from the given `pms-faults` plan file.

use pms_analyze::ReportConfig;
use pms_bench::{write_report_file, write_trace_file};
use pms_faults::FaultPlan;
use pms_predict::PhaseDetectorConfig;
use pms_sim::{Paradigm, PredictorKind, SimParams, TdmMode, TdmSim};
use pms_telemetry::TelemetryServer;
use pms_trace::{
    series_to_csv, AlertRules, FlightConfig, SharedTracer, SnapshotConfig, Tracer,
    DEFAULT_WINDOW_SLOTS,
};
use pms_workloads::{
    butterfly, gather, hotspot, ordered_mesh, permutation, random_mesh, ring, scatter, stencil3d,
    transpose, two_phase, uniform, MeshSpec, Workload,
};

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
    threads: usize,
}

/// A CLI-level failure (unreadable file, malformed plan): report it and
/// exit non-zero instead of panicking with a backtrace.
fn die(msg: String) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

fn parse_args() -> Args {
    let mut args = Args {
        pattern: "ordered-mesh".into(),
        ports: 128,
        bytes: 64,
        paradigm: "dynamic".into(),
        slots: 4,
        timeout_ns: 0,
        seed: 17,
        trace: None,
        report: None,
        flight: None,
        faults: None,
        alerts: None,
        timeseries_csv: None,
        serve: None,
        json: false,
        phase_detector: false,
        idle_skip: true,
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
            "--json" => {
                args.json = true;
                i += 1;
                continue;
            }
            "--phase-detector" => {
                args.phase_detector = true;
                i += 1;
                continue;
            }
            "--no-idle-skip" => {
                args.idle_skip = false;
                i += 1;
                continue;
            }
            "--pattern" => args.pattern = value(i).to_string(),
            "--ports" => args.ports = value(i).parse().unwrap_or_else(|_| usage()),
            "--bytes" => args.bytes = value(i).parse().unwrap_or_else(|_| usage()),
            "--paradigm" => args.paradigm = value(i).to_string(),
            "--slots" => args.slots = value(i).parse().unwrap_or_else(|_| usage()),
            "--timeout" => args.timeout_ns = value(i).parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = value(i).parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = Some(value(i).to_string()),
            "--report" => args.report = Some(value(i).to_string()),
            "--flight-recorder" => args.flight = Some(value(i).to_string()),
            "--faults" => args.faults = Some(value(i).to_string()),
            "--alerts" => args.alerts = Some(value(i).to_string()),
            "--timeseries-csv" => args.timeseries_csv = Some(value(i).to_string()),
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
    if args.flight.is_some() && (args.trace.is_some() || args.report.is_some()) {
        eprintln!(
            "--flight-recorder keeps only a bounded ring of recent events; \
             it cannot be combined with --trace or --report"
        );
        usage()
    }
    if args.flight.is_some() && args.serve.is_some() {
        eprintln!("--serve needs the full shared record buffer; it cannot be combined with --flight-recorder");
        usage()
    }
    args
}

fn usage() -> ! {
    eprintln!(
        "usage: simulate [--pattern P] [--ports N] [--bytes B] [--paradigm X]\n\
         \x20               [--slots K] [--timeout NS] [--seed S]\n\
         \x20               [--trace OUT] [--report OUT.json] [--faults PLAN.txt]\n\
         \x20               [--alerts RULES.txt] [--timeseries-csv OUT.csv]\n\
         \x20               [--flight-recorder OUT.jsonl] [--serve ADDR] [--json]\n\
         \x20               [--phase-detector] [--no-idle-skip] [--threads N]\n\
         patterns : scatter gather ring uniform hotspot permutation butterfly\n\
         \x20          transpose stencil3d ordered-mesh random-mesh two-phase\n\
         paradigms: wormhole circuit dynamic preload hybrid0 hybrid1 hybrid2\n\
         --trace  : write a trace file; .jsonl -> replayable records (for the\n\
         \x20          analyze binary), otherwise Chrome Trace Event format\n\
         --report : run the pms-analyze report over the run and write its JSON\n\
         --faults : inject the deterministic fault plan parsed from PLAN.txt\n\
         --alerts : evaluate the alert rules file against slot-window metric\n\
         \x20          snapshots; raises/clears land in the trace stream\n\
         --timeseries-csv : write the per-window metrics-snapshot series as CSV\n\
         --flight-recorder : bounded-ring anomaly recorder; dumps the ring to\n\
         \x20          the given JSONL when an alert fires (default rules:\n\
         \x20          setup-latency spike / abandoned message)\n\
         --serve  : serve live telemetry over HTTP at ADDR (e.g.\n\
         \x20          127.0.0.1:9924): /metrics /metrics.json /report /alerts\n\
         \x20          /timeseries /flight /spans?msg=N;\n\
         \x20          lingers after the run until GET /shutdown\n\
         --json   : print statistics as one JSON object\n\
         --phase-detector : attach the miss-rate phase detector (dynamic TDM)\n\
         --no-idle-skip : force the pre-optimization stepped main loop\n\
         \x20          (outputs are byte-identical either way; only wall-clock\n\
         \x20          changes — see DESIGN.md, Performance model)\n\
         --threads: worker lanes for the sharded simulation (default: all\n\
         \x20          cores; 1 = the exact sequential path; outputs are\n\
         \x20          byte-identical at any count)"
    );
    std::process::exit(2);
}

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
    let mesh = || MeshSpec::for_ports(a.ports);
    match a.pattern.as_str() {
        "scatter" => scatter(a.ports, a.bytes),
        "gather" => gather(a.ports, a.bytes),
        "ring" => ring(a.ports, a.bytes, 4),
        "uniform" => uniform(a.ports, a.bytes, 16, a.seed),
        "hotspot" => hotspot(a.ports, a.bytes, 16, 0.5, a.seed),
        "permutation" => permutation(a.ports, a.bytes, 8, a.seed),
        "butterfly" => butterfly(a.ports, a.bytes),
        "transpose" => {
            let m = (a.ports as f64).sqrt() as usize;
            assert_eq!(m * m, a.ports, "transpose needs a square port count");
            transpose(m, a.bytes, 2)
        }
        "stencil3d" => {
            let s = (a.ports as f64).cbrt().round() as usize;
            assert_eq!(s * s * s, a.ports, "stencil3d needs a cubic port count");
            stencil3d(s, s, s, a.bytes, 2)
        }
        "ordered-mesh" => ordered_mesh(mesh(), a.bytes, 4, 500, 100),
        "random-mesh" => random_mesh(mesh(), a.bytes, 4, 500, 100, a.seed),
        "two-phase" => two_phase(mesh(), a.bytes, 16, 500, 100, a.seed),
        _ => usage(),
    }
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
        _ => usage(),
    }
}

fn main() {
    let args = parse_args();
    let workload = build_workload(&args);
    let paradigm = build_paradigm(&args);
    let params = SimParams::default()
        .with_ports(args.ports)
        .with_tdm_slots(args.slots)
        .with_idle_skip(args.idle_skip)
        .with_threads(args.threads);
    let rate = params.link.bytes_per_ns();
    let plan = match &args.faults {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| die(format!("cannot read fault plan {path}: {e}")));
            FaultPlan::parse(&text).unwrap_or_else(|e| die(format!("{path}: {e}")))
        }
        None => FaultPlan::new(),
    };

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
    let snap_cfg = SnapshotConfig::per_slots(params.slot_ns, DEFAULT_WINDOW_SLOTS);
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
    let (stats, mut tracer) = if args.phase_detector {
        // The phase detector is a `TdmSim` builder, not reachable through
        // `Paradigm`, and needs dynamically scheduled registers.
        let mode = match paradigm.tdm_mode() {
            Some(mode @ (TdmMode::Dynamic { .. } | TdmMode::Hybrid { .. })) => mode,
            _ => {
                eprintln!("--phase-detector needs a dynamic TDM paradigm (dynamic or hybrid0-2)");
                std::process::exit(2);
            }
        };
        TdmSim::new(&workload, &params, mode)
            .with_phase_detector(PhaseDetectorConfig {
                window: 8,
                miss_threshold: 0.75,
                cooldown: 16,
            })
            .with_faults(plan)
            .with_tracer(tracer)
            .run_traced()
    } else {
        paradigm.run_faulted(&workload, &params, plan, tracer)
    };
    eprintln!(
        "wall-clock   : {:.3} ms{} ({} thread{})",
        wall_start.elapsed().as_secs_f64() * 1e3,
        if args.idle_skip {
            ""
        } else {
            " (idle skip off)"
        },
        args.threads,
        if args.threads == 1 { "" } else { "s" }
    );
    pms_bench::finish(&mut tracer);
    if let Some(path) = &args.trace {
        let records = tracer.records();
        write_trace_file(path, &records)
            .unwrap_or_else(|e| die(format!("cannot write trace {path}: {e}")));
        eprintln!("trace        : {} events -> {path}", records.len());
    }
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
    if let Some(path) = &args.report {
        let report = write_report_file(path, &tracer.records(), &ReportConfig::default())
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
            ("threads", args.threads.to_string()),
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

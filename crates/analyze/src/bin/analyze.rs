//! Replay a JSONL trace into utilization/contention reports.
//!
//! ```text
//! analyze TRACE.jsonl [--report PATH] [--heatmap-csv PATH]
//!                     [--churn-csv PATH] [--setup-csv PATH]
//!                     [--timeseries-csv PATH] [--alerts-json PATH]
//!                     [--window NS] [--ports N] [--quiet]
//! analyze --diff A.jsonl B.jsonl [--epsilon FRAC] [--ports N]
//! ```
//!
//! Prints the human-readable report to stdout and optionally writes the
//! deterministic JSON report (byte-identical to what the simulator's
//! `--report` flag writes for the same trace) and the CSV exports:
//! sparse heatmap, per-cause predictor churn, setup-latency
//! attribution, and the metrics-snapshot time series.
//!
//! `--diff` compares two traces instead: it builds a report from each
//! and prints a per-metric/per-phase delta table, flagging rows whose
//! relative change is at least `--epsilon` (default 5%). Exits
//! non-zero when any significant change is found, so CI can gate on it;
//! diffing a run against itself always reports zero deltas.

use pms_analyze::{build_report, diff_reports, parse_jsonl, Replay, ReportConfig, DEFAULT_EPSILON};
use pms_trace::cli::{self, FlagError, Flags};
use std::fs;
use std::process::ExitCode;

struct Args {
    trace: String,
    diff: Option<String>,
    epsilon: f64,
    report: Option<String>,
    heatmap_csv: Option<String>,
    churn_csv: Option<String>,
    setup_csv: Option<String>,
    timeseries_csv: Option<String>,
    alerts_json: Option<String>,
    window_ns: u64,
    ports: Option<usize>,
    quiet: bool,
}

const USAGE: &str = "usage: analyze TRACE.jsonl [--report PATH] [--heatmap-csv PATH] \
                     [--churn-csv PATH] [--setup-csv PATH] [--timeseries-csv PATH] \
                     [--alerts-json PATH] [--window NS] [--ports N] [--quiet]\n\
       analyze --diff A.jsonl B.jsonl [--epsilon FRAC] [--ports N]";

fn parse_args(f: &mut Flags) -> Result<Args, FlagError> {
    let ports = f.opt("--ports")?;
    if ports == Some(0) {
        return Err(FlagError::BadValue {
            flag: "--ports".into(),
            value: "0".into(),
            expected: "a positive integer",
        });
    }
    Ok(Args {
        diff: f.opt("--diff")?,
        epsilon: f.get("--epsilon", DEFAULT_EPSILON)?,
        report: f.opt("--report")?,
        heatmap_csv: f.opt("--heatmap-csv")?,
        churn_csv: f.opt("--churn-csv")?,
        setup_csv: f.opt("--setup-csv")?,
        timeseries_csv: f.opt("--timeseries-csv")?,
        alerts_json: f.opt("--alerts-json")?,
        window_ns: f.get("--window", ReportConfig::default().premature_window_ns)?,
        ports,
        quiet: f.switch("--quiet") | f.switch("-q"),
        trace: f.required("TRACE.jsonl")?,
    })
}

/// Reads and parses the trace at `path`. A trace naming a port at or
/// past `--ports` is a geometry error: exit 2 before any report.
fn load(path: &str, cfg: &ReportConfig) -> Result<Replay, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let replay = parse_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
    if let Err(e) = cfg.check_ports(&replay.records) {
        cli::fail(format!("analyze: {path}: {e}"));
    }
    Ok(replay)
}

/// Writes `contents()` to the flag's `path`, if it gave one.
fn write_out(
    args: &Args,
    path: &Option<String>,
    what: &str,
    contents: impl FnOnce() -> String,
) -> Result<(), String> {
    let Some(path) = path else {
        return Ok(());
    };
    fs::write(path, contents()).map_err(|e| format!("cannot write {path}: {e}"))?;
    if !args.quiet {
        println!("{what} written to {path}");
    }
    Ok(())
}

/// Returns whether the run is clean: `--diff` found no significant
/// change.
fn run(args: &Args) -> Result<bool, String> {
    let cfg = ReportConfig {
        ports: args.ports,
        premature_window_ns: args.window_ns,
        ..ReportConfig::default()
    };
    if let Some(a_path) = &args.diff {
        let (a, b) = (load(a_path, &cfg)?, load(&args.trace, &cfg)?);
        let (a, b) = (
            build_report(&a.records, &cfg),
            build_report(&b.records, &cfg),
        );
        let diff = diff_reports(&a, &b, args.epsilon);
        if !args.quiet {
            print!("{}", diff.render_text());
        }
        write_out(args, &args.report, "diff JSON", || {
            diff.to_json().render_pretty()
        })?;
        return Ok(diff.significant().is_empty());
    }
    let replay = load(&args.trace, &cfg)?;
    let report = build_report(&replay.records, &cfg);
    if !args.quiet {
        print!("{}", report.render_text());
        if replay.skipped_unknown > 0 {
            println!(
                "(skipped {} record(s) of unknown kind)",
                replay.skipped_unknown
            );
        }
    }
    write_out(args, &args.report, "report", || {
        report.to_json().render_pretty()
    })?;
    write_out(args, &args.heatmap_csv, "heatmap CSV", || {
        report.heatmap.to_csv()
    })?;
    write_out(args, &args.churn_csv, "churn CSV", || report.churn.to_csv())?;
    write_out(args, &args.setup_csv, "setup CSV", || {
        report.contention.to_csv()
    })?;
    write_out(args, &args.timeseries_csv, "time-series CSV", || {
        pms_analyze::timeseries_csv(&replay.records)
    })?;
    write_out(args, &args.alerts_json, "alerts JSON", || {
        report.alerts.to_json().render_pretty()
    })?;
    Ok(true)
}

fn main() -> ExitCode {
    let args = cli::parse_env(USAGE, parse_args);
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("analyze: {msg}");
            ExitCode::FAILURE
        }
    }
}

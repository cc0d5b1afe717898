//! Shared trace/report plumbing for the experiment binaries.
//!
//! All three traced binaries (`simulate`, `fig4`, `fig5`) funnel through
//! these helpers so trace files and analysis reports come out identical
//! no matter which binary produced them.

use pms_analyze::{build_report, Report, ReportConfig};
use pms_sim::RunSpec;
use pms_trace::cli::{die, fail, FlagError, Flags};
use pms_trace::{
    series_from_records, series_to_csv, write_chrome_trace, write_jsonl, AlertRules, Json,
    SnapshotConfig, TraceRecord, Tracer,
};
use std::io;

/// Explicitly flushes a tracer's buffered output, treating failure as a
/// CLI error. Every traced binary calls this before its final
/// `std::process::exit`-reachable reporting: destructors do flush on a
/// clean drop, but `process::exit` skips them, and a drop can only
/// swallow the I/O error this surfaces.
pub fn finish(tracer: &mut Tracer) {
    tracer
        .finish()
        .unwrap_or_else(|e| die(format!("cannot flush tracer: {e}")));
}

/// Writes a sweep's results to `results/<name>.json` and says so.
pub fn write_results(name: &str, doc: &Json) {
    let path = format!("results/{name}.json");
    std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write(&path, doc.render_pretty()))
        .unwrap_or_else(|e| die(format!("cannot write {path}: {e}")));
    println!("results written to {path}");
}

/// The figure binaries' `--trace OUT` / `--report OUT` / `--alerts
/// RULES.txt` / `--timeseries-csv OUT.csv` flags.
#[derive(Debug)]
pub struct TraceFlags {
    trace: Option<String>,
    report: Option<String>,
    alerts: Option<String>,
    timeseries_csv: Option<String>,
}

impl TraceFlags {
    /// Takes the four flags from the command line.
    pub fn parse(f: &mut Flags) -> Result<Self, FlagError> {
        Ok(Self {
            trace: f.opt("--trace")?,
            report: f.opt("--report")?,
            alerts: f.opt("--alerts")?,
            timeseries_csv: f.opt("--timeseries-csv")?,
        })
    }

    /// When any flag was given, `run` runs `spec`, the figure's
    /// representative cell, once with the snapshot/alert pipeline over an
    /// in-memory sink attached, so traces and reports carry the
    /// per-window metrics-snapshot series (and any alert raises); its
    /// records are written as a trace file, analysis report, and/or
    /// time-series CSV. `label` names the cell in the progress lines.
    pub fn run(&self, label: &str, spec: RunSpec) {
        let Self {
            trace,
            report,
            alerts,
            timeseries_csv,
        } = self;
        if [trace, report, alerts, timeseries_csv]
            .iter()
            .all(|f| f.is_none())
        {
            return;
        }
        let rules = alerts.as_ref().map(|path| {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| die(format!("cannot read alert rules {path}: {e}")));
            AlertRules::parse(&text).unwrap_or_else(|e| die(format!("{path}: {e}")))
        });
        let run = spec
            .validate()
            .unwrap_or_else(|e| fail(format!("{label}: {e}")));
        let tracer = Tracer::pipeline(SnapshotConfig::default(), rules, Tracer::vec());
        let (_, mut tracer) = run.run(tracer);
        finish(&mut tracer);
        let records = tracer.records();
        if let Some(path) = trace {
            write_trace_file(path, &records)
                .unwrap_or_else(|e| die(format!("cannot write trace {path}: {e}")));
            println!("trace: {label}, {} events -> {path}", records.len());
        }
        if let Some(path) = report {
            write_report_file(path, &records, &ReportConfig::default())
                .unwrap_or_else(|e| die(format!("cannot write report {path}: {e}")));
            println!("report: {label} -> {path}");
        }
        if let Some(path) = timeseries_csv {
            let series = series_from_records(&records);
            std::fs::write(path, series_to_csv(&series))
                .unwrap_or_else(|e| die(format!("cannot write time series {path}: {e}")));
            println!("time series: {label}, {} window(s) -> {path}", series.len());
        }
        if alerts.is_some() {
            let a = pms_analyze::alerts(&records);
            println!("alerts: {label}, {} raised, {} cleared", a.raises, a.clears);
        }
    }
}

/// Writes a trace file in the format implied by the path's extension:
/// `.jsonl` gets the line-per-record replay format (readable by the
/// `analyze` binary), anything else the Chrome Trace Event format
/// (loadable in `chrome://tracing` / Perfetto).
pub fn write_trace_file(path: &str, records: &[TraceRecord]) -> io::Result<()> {
    if path.ends_with(".jsonl") {
        write_jsonl(path, records)
    } else {
        write_chrome_trace(path, records)
    }
}

/// Builds the standard analysis report over `records` and writes its
/// JSON rendering to `path`. The written bytes are identical to what
/// `analyze` produces when replaying the same records from a `.jsonl`
/// trace (reports are pure functions of the record stream).
pub fn write_report_file(
    path: &str,
    records: &[TraceRecord],
    cfg: &ReportConfig,
) -> io::Result<Report> {
    let report = build_report(records, cfg);
    std::fs::write(path, report.to_json().render_pretty())?;
    Ok(report)
}

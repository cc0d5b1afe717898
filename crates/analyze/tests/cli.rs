//! The `analyze` binary's exit status: 2 with one stderr line for a
//! command line it cannot run (including a `--ports` the trace does not
//! fit), 1 for a trace it cannot read or a `--diff` with a significant
//! change, 0 on `--help` and on a clean report. On golden traces it
//! writes the report the manifest pins.

use pms_sim::{Paradigm, PredictorKind, RunSpec, SimParams};
use pms_trace::{write_jsonl, Json, SnapshotConfig, Tracer, DEFAULT_WINDOW_SLOTS};
use pms_workloads::build_pattern;
use std::path::PathBuf;
use std::process::Command;

#[path = "../../../tests/golden/pinned.rs"]
mod pinned;

fn analyze(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_analyze"))
        .args(args)
        .output()
        .expect("analyze runs")
}

#[test]
fn usage_errors_exit_2_with_one_line() {
    for (args, need) in [
        (&["--no-such-flag"][..], "unknown flag `--no-such-flag`"),
        (&["t.jsonl", "--bogus"], "unknown flag `--bogus`"),
        (&[], "missing TRACE.jsonl"),
        (&["a.jsonl", "b.jsonl"], "unexpected argument `b.jsonl`"),
        (&["t.jsonl", "--epsilon", "x"], "--epsilon expects a number"),
        (&["t.jsonl", "--window"], "--window needs a value"),
    ] {
        let out = analyze(args);
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr:?}");
        assert!(stderr.contains(need), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}

#[test]
fn an_unreadable_trace_is_a_runtime_failure() {
    let out = analyze(&["/nonexistent/trace.jsonl"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.starts_with("analyze: cannot read"), "{stderr}");
}

#[test]
fn help_and_a_clean_report_exit_0() {
    let help = analyze(&["--help"]);
    assert_eq!(help.status.code(), Some(0));
    assert!(String::from_utf8(help.stdout)
        .unwrap()
        .starts_with("usage: analyze"));

    let path = std::env::temp_dir().join(format!("analyze-cli-{}.jsonl", std::process::id()));
    std::fs::write(&path, "").unwrap();
    let path = path.to_str().unwrap();
    let report = analyze(&[path, "--quiet"]);
    let diff = analyze(&["--diff", path, path, "--quiet"]);
    std::fs::remove_file(path).unwrap();
    assert_eq!(report.status.code(), Some(0));
    assert_eq!(
        diff.status.code(),
        Some(0),
        "a trace never differs from itself"
    );
}

#[test]
fn a_port_count_below_the_trace_exits_2_naming_its_highest_port() {
    let path = std::env::temp_dir().join(format!("analyze-ports-{}.jsonl", std::process::id()));
    std::fs::write(
        &path,
        "{\"kind\":\"msg-injected\",\"t_ns\":0,\"slot\":0,\"src\":0,\"dst\":13,\"bytes\":64,\"msg\":0}\n\
         {\"kind\":\"conn-requested\",\"t_ns\":0,\"slot\":0,\"src\":21,\"dst\":2}\n",
    )
    .unwrap();
    let path = path.to_str().unwrap();
    let report = analyze(&[path, "--ports", "16", "--quiet"]);
    let diff = analyze(&["--diff", path, path, "--ports", "16", "--quiet"]);
    let fits = analyze(&[path, "--ports", "22", "--quiet"]);
    let zero = analyze(&[path, "--ports", "0"]);
    std::fs::remove_file(path).unwrap();
    for out in [report, diff] {
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{stderr}");
        assert_eq!(stderr.lines().count(), 1, "{stderr:?}");
        assert!(
            stderr.contains("--ports 16 is below the trace's port count: it names port 21"),
            "{stderr}"
        );
        assert!(out.stdout.is_empty());
    }
    assert_eq!(fits.status.code(), Some(0));
    let stderr = String::from_utf8(zero.stderr).unwrap();
    assert_eq!(zero.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("--ports expects a positive integer"),
        "{stderr}"
    );
}

/// Writes the JSONL trace of the golden case `scatter.<paradigm>.clean`
/// into a fresh directory `tag`, checks it against the manifest, and
/// returns the directory.
fn golden_trace(tag: &str, paradigm: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("analyze-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let workload = build_pattern("scatter", 16, 256, None, 17).unwrap();
    let params = SimParams::default().with_ports(16).with_tdm_slots(4);
    let snapshots = SnapshotConfig::per_slots(params.slot_ns, DEFAULT_WINDOW_SLOTS);
    let tracer = Tracer::pipeline(snapshots, None, Tracer::vec());
    let run = match paradigm {
        "dynamic" => Paradigm::DynamicTdm(PredictorKind::Drop),
        _ => Paradigm::Wormhole,
    };
    let spec = RunSpec::new(&workload, params, run);
    let (_, mut tracer) = spec.validate().unwrap().run(tracer);
    tracer.finish().unwrap();
    let path = dir.join(format!("{paradigm}.jsonl"));
    write_jsonl(&path, &tracer.records()).unwrap();
    let trace = std::fs::read(path).unwrap();
    pinned::assert_pinned(&format!("scatter.{paradigm}.clean.trace.jsonl"), &trace);
    dir
}

#[test]
fn a_golden_trace_replays_into_the_pinned_report_and_heatmap() {
    let dir = golden_trace("golden", "dynamic");
    let path = |file: &str| dir.join(file).to_str().unwrap().to_string();
    let (trace, report, csv) = (path("dynamic.jsonl"), path("r.json"), path("h.csv"));
    let out = analyze(&[&trace, "--report", &report, "--heatmap-csv", &csv, "-q"]);
    assert_eq!(out.status.code(), Some(0));
    let report = std::fs::read_to_string(report).unwrap();
    let csv = std::fs::read_to_string(csv).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    pinned::assert_pinned("scatter.dynamic.clean.replay.json", report.as_bytes());

    // The sparse heatmap CSV sums to the report's totals.
    let report = Json::parse(&report).unwrap();
    let total = |key| report.get("heatmap").and_then(|h| h.get(key)?.as_u64());
    let mut lines = csv.lines();
    assert_eq!(lines.next(), Some("src,dst,msgs,bytes"));
    let column = |i| -> Option<u64> {
        lines
            .clone()
            .map(|l| l.split(',').nth(i)?.parse::<u64>().ok())
            .sum()
    };
    assert_eq!(column(2), total("total_msgs"));
    assert_eq!(column(3), total("total_bytes"));
}

#[test]
fn diff_reports_zero_deltas_only_for_the_same_run() {
    let dir = golden_trace("diff", "dynamic");
    golden_trace("diff", "wormhole");
    let path = |file: &str| dir.join(file).to_str().unwrap().to_string();
    let (dynamic, wormhole) = (path("dynamic.jsonl"), path("wormhole.jsonl"));
    let same = analyze(&["--diff", &dynamic, &dynamic]);
    let differ = analyze(&["--diff", &dynamic, &wormhole]);
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(same.status.code(), Some(0));
    let same = String::from_utf8(same.stdout).unwrap();
    assert!(same.contains("zero deltas across all metrics"), "{same}");
    let text = String::from_utf8(differ.stdout).unwrap();
    assert_eq!(
        differ.status.code(),
        Some(1),
        "a significant change: {text}"
    );
    assert!(!text.contains("zero deltas") && text.contains("significant change(s)"));
}

//! The `analyze` binary's exit status: 2 with one stderr line for a
//! command line it cannot run (including a `--ports` the trace does not
//! fit), 1 for a trace it cannot read, 0 on `--help` and on a clean
//! report.

use std::process::Command;

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

//! The `admit` binary rejects fabric geometries its stage graphs cannot
//! build, and engine parameters that must be positive, with a one-line
//! error and exit status 2, not a panic; a request file naming a port
//! the crossbar lacks, or one port as both ends, is a runtime failure
//! (exit 1). Its decision stream, trace and report are the bytes the
//! golden manifest pins. `admit_bench` reports each policy only after
//! its replay gate passes.

use std::process::Command;

#[path = "../../../tests/golden/pinned.rs"]
mod pinned;

fn admit(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_admit"))
        .args(args)
        .output()
        .expect("admit runs")
}

fn assert_one_line_error(args: &[&str], need: &str) {
    let out = admit(args);
    assert_eq!(out.status.code(), Some(2), "{args:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(stderr.lines().count(), 1, "one-line error, got {stderr:?}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains(need), "{stderr}");
}

fn assert_geometry_error(fabric: &str, ports: &str, need: &str) {
    assert_one_line_error(&["--fabric", fabric, "--ports", ports, "--quiet"], need);
}

#[test]
fn omega_and_butterfly_need_a_power_of_two() {
    assert_geometry_error("omega", "12", "power of two");
    assert_geometry_error("butterfly", "6", "power of two");
}

#[test]
fn fat_tree_needs_a_multiple_of_four() {
    assert_geometry_error("fat-tree", "10", "multiple of 4");
}

#[test]
fn fitting_geometries_run() {
    for (fabric, ports) in [("omega", "8"), ("fat-tree", "12"), ("crossbar", "12")] {
        let out = admit(&["--fabric", fabric, "--ports", ports, "--quiet"]);
        assert!(out.status.success(), "{fabric} on {ports} ports failed");
    }
}

#[test]
fn zero_engine_parameters_are_rejected() {
    for (flag, need) in [
        ("--epoch-ns", "admit: --epoch-ns must be positive"),
        ("--slots", "admit: --slots must be positive"),
        ("--ports", "admit: --ports must be positive"),
    ] {
        assert_one_line_error(&[flag, "0", "--quiet"], need);
    }
    // A fabric that cannot take zero ports still reports the zero first.
    assert_one_line_error(
        &["--ports", "0", "--fabric", "crossbar", "--quiet"],
        "--ports must be positive",
    );
}

#[test]
fn pattern_geometries_are_rejected() {
    for (pattern, ports, need) in [
        ("transpose", "15", "square port count"),
        ("ring", "1", "at least 2 ports"),
        ("hotspot", "1", "at least 3 ports"),
        ("butterfly", "12", "power-of-two"),
        ("bogus", "16", "unknown pattern `bogus`"),
    ] {
        assert_one_line_error(&["--pattern", pattern, "--ports", ports, "--quiet"], need);
    }
}

#[test]
fn a_rate_limit_needs_a_positive_burst() {
    assert_one_line_error(
        &["--rate", "5", "--burst", "0", "--quiet"],
        "admit: --burst must be positive",
    );
    // Without a rate the bucket depth is unused.
    let out = admit(&["--rate", "0", "--burst", "0", "--quiet"]);
    assert!(out.status.success());
}

#[test]
fn usage_errors_exit_2_and_help_exits_0() {
    for args in [
        &["--no-such-flag"][..],
        &["--threads", "2"],
        &["--policy", "lifo"],
        &["--ports", "-3"],
        &["--stdin", "--from-file", "reqs.txt"],
    ] {
        assert_one_line_error(args, "");
    }
    let help = admit(&["--help"]);
    assert_eq!(help.status.code(), Some(0));
    assert!(String::from_utf8(help.stdout)
        .unwrap()
        .starts_with("usage: admit"));
}

#[test]
fn request_file_endpoints_must_fit_the_crossbar() {
    let path = std::env::temp_dir().join(format!("admit-cli-reqs-{}.txt", std::process::id()));
    std::fs::write(&path, "req 0 0 1 2\nreq 10 0 0 99 64\n").unwrap();
    let file = path.to_str().unwrap();
    let out = admit(&["--from-file", file, "--ports", "4", "--quiet"]);
    let fits = admit(&["--from-file", file, "--ports", "100", "--quiet"]);
    std::fs::remove_file(&path).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "one-line error, got {stderr:?}");
    assert!(
        stderr.contains(&format!(
            "{file}: line 2: field 'dst' is port 99, but the crossbar has 4 ports"
        )),
        "{stderr}"
    );
    assert_eq!(fits.status.code(), Some(0));
}

#[test]
fn request_file_self_sends_are_rejected() {
    let path = std::env::temp_dir().join(format!("admit-cli-self-{}.txt", std::process::id()));
    std::fs::write(&path, "req 0 0 1 2\nreq 0 0 1 1 64\n").unwrap();
    let file = path.to_str().unwrap();
    let out = admit(&["--from-file", file, "--ports", "4"]);
    std::fs::remove_file(&path).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "one-line error, got {stderr:?}");
    assert!(
        stderr.contains(&format!("{file}: line 2: src and dst are both port 1")),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "no grant is printed");
}

#[test]
fn admit_writes_the_pinned_golden_files() {
    let dir = std::env::temp_dir().join(format!("admit-cli-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let fifo = "--tenants 2 --rate 4000000 --burst 2";
    let strict = "--policy strict --backpressure shed-oldest --queue-cap 8 --tenants 4";
    for (case, args) in [("fifo-reject-new", fifo), ("strict-shed-oldest", strict)] {
        let out = Command::new(env!("CARGO_BIN_EXE_admit"))
            .args(args.split(' '))
            .args(["--trace", "trace.jsonl", "--report", "report.json"])
            .current_dir(&dir)
            .output()
            .expect("admit runs");
        assert!(out.status.success(), "{case}: {out:?}");
        pinned::assert_pinned(&format!("admit.{case}.decisions.txt"), &out.stdout);
        for file in ["trace.jsonl", "report.json"] {
            let bytes = std::fs::read(dir.join(file)).unwrap();
            pinned::assert_pinned(&format!("admit.{case}.{file}"), &bytes);
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

fn admit_bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_admit_bench"))
        .args(args)
        .output()
        .expect("admit_bench runs")
}

#[test]
fn admit_bench_rejects_bad_arguments_before_running() {
    for (args, need) in [
        (&["--no-such-flag"][..], "unknown flag `--no-such-flag`"),
        (
            &["--threads", "lots"],
            "--threads expects a lane count, got `lots`",
        ),
        (&["--ports", "1"], "at least 2 ports"),
        (&["--messages", "0"], "--messages must be positive"),
    ] {
        let out = admit_bench(args);
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr:?}");
        assert!(stderr.contains(need), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
    let help = admit_bench(&["--help"]);
    assert_eq!(help.status.code(), Some(0));
}

#[test]
fn admit_bench_reports_every_policy_only_after_its_replay_gate() {
    let out = admit_bench(&["--ports", "8", "--messages", "4", "--threads", "2"]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    let policies: Vec<_> = stdout.lines().filter_map(|l| l.split(' ').next()).collect();
    assert_eq!(policies, ["fifo", "pifo", "strict"], "{stdout}");
    assert!(stdout.lines().all(|l| l.ends_with("replay byte-identical")));
}

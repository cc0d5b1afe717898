//! The `simulate` binary rejects geometries its patterns and paradigms
//! cannot take with a one-line error and exit status 2, not a panic; the
//! sweep binaries reject a malformed `--threads` the same way. On golden
//! cases, `simulate` and the sweep binaries write the files the golden
//! manifest pins.

use std::process::Command;

#[path = "../../../tests/golden/pinned.rs"]
mod pinned;

/// Runs `simulate --json` with the whitespace-separated `args`.
fn simulate(args: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(args.split_whitespace())
        .arg("--json")
        .output()
        .expect("simulate runs")
}

fn assert_geometry_error(args: &str, need: &str) {
    let out = simulate(args);
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(2), "{args}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "one-line error, got {stderr:?}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains(need), "{args}: {stderr}");
}

#[test]
fn hybrid_needs_preloadable_configurations() {
    assert_geometry_error(
        "--paradigm hybrid1 --pattern random-mesh --ports 16",
        "provides 0",
    );
    assert_geometry_error(
        "--paradigm hybrid2 --pattern scatter --ports 8 --slots 1",
        "cannot preload 2 TDM slots of 1",
    );
    // Every register preloaded, no preload command, and traffic outside
    // the preloaded configuration: nothing could ever schedule it.
    assert_geometry_error(
        "--paradigm hybrid1 --pattern scatter --ports 8 --slots 1",
        "message 1 (0 -> 2) is in none of the preloaded configurations",
    );
}

#[test]
fn port_counts_must_fit_the_pattern() {
    assert_geometry_error("--ports 0", "at least 2 ports");
    assert_geometry_error("--pattern uniform --ports 1", "at least 2 ports");
    assert_geometry_error("--pattern hotspot --ports 2", "at least 3 ports");
    for ports in [2, 3, 13] {
        assert_geometry_error(
            &format!("--pattern ordered-mesh --ports {ports}"),
            &format!("no 2D mesh for {ports} processors"),
        );
    }
    assert_geometry_error("--pattern two-phase --ports 7", "no 2D mesh");
    assert_geometry_error("--pattern transpose --ports 50", "square");
    assert_geometry_error("--pattern stencil3d --ports 50", "cubic");
    assert_geometry_error("--pattern butterfly --ports 12", "power-of-two");
}

#[test]
fn command_files_must_match_the_port_count() {
    let dir = std::env::temp_dir().join(format!("simulate-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (p, dst) in [(0, 1), (1, 0)] {
        std::fs::write(dir.join(format!("p{p}.cmd")), format!("send {dst} 64\n")).unwrap();
    }
    let dir_arg = format!("--pattern dir:{}", dir.display());
    assert_geometry_error(
        &format!("{dir_arg} --ports 8"),
        "workload holds 2 processors, switch has 8 ports",
    );
    let out = simulate(&format!("{dir_arg} --ports 2"));
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(out.status.success(), "matching port count failed");
}

#[test]
fn command_files_must_send_between_their_processors() {
    for (tag, p1, need) in [
        (
            "range",
            "send 5 64\n",
            "processor 1: line 1: destination 5 is not one of the 2 processors",
        ),
        (
            "self",
            "delay 10\nsend 1 64\n",
            "processor 1: line 2: a processor cannot send to itself",
        ),
        (
            "bytes",
            "send 0 4294967360\n",
            "processor 1: line 1: invalid byte count `4294967360`",
        ),
    ] {
        let dir = scratch_dir(&format!("sends-{tag}"));
        std::fs::write(dir.join("p0.cmd"), "send 1 64\n").unwrap();
        std::fs::write(dir.join("p1.cmd"), p1).unwrap();
        let out = simulate(&format!("--pattern dir:{} --ports 2", dir.display()));
        std::fs::remove_dir_all(&dir).unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{tag}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{tag}: {stderr:?}");
        assert!(stderr.contains(need), "{tag}: {stderr}");
        assert!(out.stdout.is_empty(), "{tag}");
    }
}

#[test]
fn slots_must_be_positive() {
    assert_geometry_error("--slots 0 --ports 16", "at least 1 TDM slot, got 0");
}

#[test]
fn fault_plans_must_name_existing_ports() {
    let dir = scratch_dir("fault-port");
    let plan = dir.join("plan.txt");
    std::fs::write(&plan, "link-down start=0 dur=1000 src=0 dst=99\n").unwrap();
    let args = format!("--pattern uniform --ports 16 --faults {}", plan.display());
    assert_geometry_error(&args, "fault plan names port 99, switch has 16 ports");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn out_of_range_plan_and_rule_numbers_exit_1_naming_the_line() {
    let dir = scratch_dir("overflow");
    let (plan, rules) = (dir.join("plan.txt"), dir.join("rules.txt"));
    std::fs::write(
        &plan,
        "# 2^32 once ran as port 0\nlink-down start=0 dur=1000 src=4294967296 dst=1\n",
    )
    .unwrap();
    std::fs::write(
        &rules,
        "threshold name=t metric=retries op=ge value=1 for=4294967297 # x\n",
    )
    .unwrap();
    for (flag, path, need) in [
        (
            "--faults",
            &plan,
            r#"line 2: src=4294967296 is out of range in "link-down start=0 dur=1000 src=4294967296 dst=1""#,
        ),
        (
            "--alerts",
            &rules,
            r#"line 1: for=4294967297 is out of range in "threshold name=t metric=retries op=ge value=1 for=4294967297""#,
        ),
    ] {
        let out = simulate(&format!(
            "--pattern uniform --ports 16 {flag} {}",
            path.display()
        ));
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{flag}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{flag}: {stderr:?}");
        let want = format!("{}: {need}\n", path.display());
        assert_eq!(stderr, want, "{flag}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn phase_detector_needs_dynamic_slots() {
    assert_geometry_error(
        "--paradigm preload --pattern scatter --ports 8 --phase-detector",
        "the phase detector needs a dynamically scheduled slot",
    );
}

#[test]
fn fitting_geometries_run() {
    for args in [
        "--pattern transpose --ports 16 --paradigm dynamic",
        "--pattern stencil3d --ports 8 --paradigm circuit",
        "--pattern ordered-mesh --ports 4 --paradigm preload",
        "--pattern scatter --ports 8 --paradigm hybrid1",
    ] {
        let out = simulate(args);
        assert!(out.status.success(), "{args} failed");
    }
}

/// Every `pms-bench` binary, by name.
const BINS: [(&str, &str); 12] = [
    ("ablate", env!("CARGO_BIN_EXE_ablate")),
    ("degradation", env!("CARGO_BIN_EXE_degradation")),
    ("dump_cmdfiles", env!("CARGO_BIN_EXE_dump_cmdfiles")),
    ("fig4", env!("CARGO_BIN_EXE_fig4")),
    ("fig5", env!("CARGO_BIN_EXE_fig5")),
    ("multihop", env!("CARGO_BIN_EXE_multihop")),
    ("schedopt", env!("CARGO_BIN_EXE_schedopt")),
    ("simulate", env!("CARGO_BIN_EXE_simulate")),
    ("sweep_k", env!("CARGO_BIN_EXE_sweep_k")),
    ("table3", env!("CARGO_BIN_EXE_table3")),
    ("table_logic", env!("CARGO_BIN_EXE_table_logic")),
    ("topology", env!("CARGO_BIN_EXE_topology")),
];

/// A fresh, empty working directory for one binary run.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pms-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn every_binary_rejects_an_unknown_flag_before_any_work() {
    for (name, bin) in BINS {
        let dir = scratch_dir(name);
        let out = Command::new(bin)
            .arg("--no-such-flag")
            .current_dir(&dir)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8(out.stderr).unwrap();
        let written = std::fs::read_dir(&dir).unwrap().count();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{name}: {stderr:?}");
        assert!(stderr.contains("--no-such-flag"), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
        assert!(out.stdout.is_empty(), "{name} printed to stdout");
        assert_eq!(written, 0, "{name} wrote into its working directory");
    }
}

#[test]
fn every_binary_prints_its_usage_on_help() {
    for (name, bin) in BINS {
        let out = Command::new(bin)
            .arg("--help")
            .output()
            .expect("binary runs");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert_eq!(out.status.code(), Some(0), "{name}");
        assert!(
            stdout.starts_with(&format!("usage: {name}")),
            "{name}: {stdout}"
        );
    }
}

/// The path of the `pms-bench` binary `name`.
fn bin(name: &str) -> &'static str {
    BINS.iter()
        .find(|(n, _)| *n == name)
        .expect("a pms-bench binary")
        .1
}

#[test]
fn sweep_binaries_reject_a_malformed_threads_flag() {
    for name in ["fig4", "fig5", "topology", "degradation", "schedopt"] {
        let out = Command::new(bin(name))
            .args(["--threads", "lots"])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert_eq!(stderr, "--threads expects a lane count, got `lots`\n");
    }
}

#[test]
fn misspelled_arguments_are_usage_errors() {
    for (name, args, need) in [
        ("fig4", &["--quik"][..], "unknown flag `--quik`"),
        ("ablate", &["rotaton"], "`rotaton`"),
        ("simulate", &["--ports", "lots"], "--ports expects"),
        ("simulate", &["--paradigm", "tdm"], "--paradigm expects"),
        ("simulate", &["--pattern", "mesh"], "unknown pattern `mesh`"),
        ("simulate", &["--trace"], "--trace needs a value"),
        ("simulate", &["--threads", "2"], "`--threads`"),
        ("dump_cmdfiles", &["ring", "8"], "missing <bytes>"),
        ("dump_cmdfiles", &["ring", "8", "64", "d", "e"], "`e`"),
        (
            "dump_cmdfiles",
            &["transpose", "15", "64", "d"],
            "square port count",
        ),
    ] {
        let dir = scratch_dir("misspelled");
        let out = Command::new(bin(name))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("binary runs");
        let written = std::fs::read_dir(&dir).unwrap().count();
        std::fs::remove_dir_all(&dir).unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr:?}");
        assert!(stderr.contains(need), "{args:?}: {stderr}");
        assert_eq!(written, 0, "{args:?} wrote into its working directory");
    }
}

/// `simulate --json` stats without the `workload` name line.
fn stats_without_name(out: std::process::Output, what: &str) -> String {
    assert!(
        out.status.success(),
        "{what}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .filter(|l| !l.trim_start().starts_with("\"workload\""))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn command_files_replay_the_pattern_they_were_dumped_from() {
    let patterns = [
        "scatter",
        "gather",
        "ring",
        "uniform",
        "hotspot",
        "permutation",
        "butterfly",
        "transpose",
        "stencil3d",
        "ordered-mesh",
        "random-mesh",
        "two-phase",
    ];
    for pattern in patterns {
        // 16 is neither a cube nor has a cubic root: stencil3d runs on 8.
        let ports = if pattern == "stencil3d" { "8" } else { "16" };
        let dir = scratch_dir(pattern);
        let dump = Command::new(env!("CARGO_BIN_EXE_dump_cmdfiles"))
            .args([pattern, ports, "64"])
            .arg(&dir)
            .output()
            .expect("dump_cmdfiles runs");
        assert!(dump.status.success(), "dump_cmdfiles {pattern}");
        for paradigm in ["dynamic", "circuit"] {
            let common = format!("--ports {ports} --paradigm {paradigm}");
            let direct = simulate(&format!("--pattern {pattern} --bytes 64 {common}"));
            let replayed = simulate(&format!("--pattern dir:{} {common}", dir.display()));
            assert_eq!(
                stats_without_name(replayed, pattern),
                stats_without_name(direct, pattern),
                "{pattern} under {paradigm}: command files do not replay the pattern"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Runs `simulate --json` with `args` in `dir`.
fn simulate_in(dir: &std::path::Path, args: &str) -> std::process::Output {
    let out = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(args.split_whitespace())
        .arg("--json")
        .current_dir(dir)
        .output()
        .expect("simulate runs");
    assert!(out.status.success(), "{args}: {out:?}");
    out
}

#[test]
fn simulate_writes_the_pinned_golden_files() {
    let dir = scratch_dir("golden");
    std::fs::write(dir.join("plan.txt"), pinned::FAULT_PLAN).unwrap();
    let out = simulate_in(
        &dir,
        "--pattern scatter --ports 16 --bytes 256 --paradigm dynamic \
         --faults plan.txt --trace trace.jsonl --report report.json",
    );
    let case = "scatter.dynamic.faulted";
    pinned::assert_pinned(&format!("{case}.stats.json"), &out.stdout);
    for file in ["trace.jsonl", "report.json"] {
        let bytes = std::fs::read(dir.join(file)).unwrap();
        pinned::assert_pinned(&format!("{case}.{file}"), &bytes);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn the_flight_recorder_dumps_only_when_an_alert_fires() {
    let dir = scratch_dir("flight");
    std::fs::write(dir.join("plan.txt"), pinned::FLIGHT_PLAN).unwrap();
    let args = "--pattern scatter --ports 8 --bytes 256 --paradigm dynamic --slots 8";
    let run = |flags: &str| simulate_in(&dir, &format!("{args} {flags}"));
    let out = run("--faults plan.txt --flight-recorder f.jsonl");
    pinned::assert_pinned("flight.scatter8.dynamic.stats.json", &out.stdout);
    let dump = std::fs::read(dir.join("f.jsonl")).unwrap();
    pinned::assert_pinned("flight.scatter8.dynamic.dump.jsonl", &dump);
    run("--flight-recorder clean.jsonl");
    let clean = dir.join("clean.jsonl").exists();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(!clean, "a run that raises no alert writes no dump");
}

#[test]
fn the_flight_recorder_excludes_full_record_outputs() {
    for (flags, need) in [
        ("--trace t.jsonl", "with --trace or --report"),
        ("--report r.json", "with --trace or --report"),
        ("--serve 127.0.0.1:0", "with --flight-recorder"),
    ] {
        assert_geometry_error(&format!("--flight-recorder f.jsonl {flags}"), need);
    }
}

#[test]
fn figure_binaries_write_the_pinned_results() {
    let dir = scratch_dir("sweeps");
    for name in [
        "fig4",
        "fig5",
        "schedopt",
        "topology",
        "table3",
        "table_logic",
    ] {
        let (_, bin) = BINS.iter().find(|b| b.0 == name).unwrap();
        // The tables write no results file; they must run to the end.
        let sweep = !name.starts_with("table");
        let flags = if sweep { "--quick --threads 2" } else { "" };
        let out = Command::new(bin)
            .args(flags.split_whitespace())
            .current_dir(&dir)
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{name}: {out:?}");
        if sweep {
            let results = std::fs::read(dir.join(format!("results/{name}.json"))).unwrap();
            pinned::assert_pinned(&format!("{name}.threads2.json"), &results);
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

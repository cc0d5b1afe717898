//! The `simulate` binary rejects geometries its patterns and paradigms
//! cannot take with a one-line error and exit status 2, not a panic; the
//! sweep binaries reject a malformed `--threads` the same way.

use std::process::Command;

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
        "--slots is 1",
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
        "holds 2 processors, but --ports is 8",
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
    assert_geometry_error("--slots 0 --ports 16", "--slots");
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

#[test]
fn sweep_binaries_reject_a_malformed_threads_flag() {
    let bins = [
        env!("CARGO_BIN_EXE_fig4"),
        env!("CARGO_BIN_EXE_fig5"),
        env!("CARGO_BIN_EXE_topology"),
        env!("CARGO_BIN_EXE_degradation"),
        env!("CARGO_BIN_EXE_schedopt"),
    ];
    for bin in bins {
        let out = Command::new(bin)
            .args(["--threads", "lots"])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{bin}: {stderr}");
        assert_eq!(stderr, "--threads expects a lane count, got `lots`\n");
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

#[test]
fn misspelled_arguments_are_usage_errors() {
    for (bin, args, need) in [
        (
            env!("CARGO_BIN_EXE_fig4"),
            &["--quik"][..],
            "unknown flag `--quik`",
        ),
        (env!("CARGO_BIN_EXE_ablate"), &["rotaton"], "`rotaton`"),
        (
            env!("CARGO_BIN_EXE_simulate"),
            &["--ports", "lots"],
            "--ports expects",
        ),
        (
            env!("CARGO_BIN_EXE_simulate"),
            &["--paradigm", "tdm"],
            "--paradigm expects",
        ),
        (
            env!("CARGO_BIN_EXE_simulate"),
            &["--pattern", "mesh"],
            "unknown pattern `mesh`",
        ),
        (
            env!("CARGO_BIN_EXE_simulate"),
            &["--trace"],
            "--trace needs a value",
        ),
        (
            env!("CARGO_BIN_EXE_simulate"),
            &["--threads", "2"],
            "`--threads`",
        ),
        (
            env!("CARGO_BIN_EXE_dump_cmdfiles"),
            &["ring", "8"],
            "missing <bytes>",
        ),
        (
            env!("CARGO_BIN_EXE_dump_cmdfiles"),
            &["ring", "8", "64", "d", "e"],
            "`e`",
        ),
        (
            env!("CARGO_BIN_EXE_dump_cmdfiles"),
            &["transpose", "15", "64", "d"],
            "square port count",
        ),
    ] {
        let dir = scratch_dir("misspelled");
        let out = Command::new(bin)
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

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

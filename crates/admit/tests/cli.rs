//! The `admit` binary rejects fabric geometries its stage graphs cannot
//! build, and engine parameters that must be positive, with a one-line
//! error and exit status 2, not a panic.

use std::process::Command;

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

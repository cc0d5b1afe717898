//! The golden manifest's line format and the fault plans of its cases.
//! `tests/golden.rs` and the binary tests include this file by path, so
//! a binary's files meet the same manifest lines as the library runs.

#![allow(dead_code)]

/// The plan of every `faulted` simulator case: a healed link outage (the
/// NIC retry path) and a dropped grant window (the grant path).
pub const FAULT_PLAN: &str = "\
retry budget=2 base=100 max=1000
link-down start=500 dur=2000 src=1 dst=2
grant-drop start=0 dur=40000 src=0 dst=3
";

/// The plan of the flight-recorder case. Port 0, scatter's root, never
/// recovers: its 7 messages are abandoned, which fires the default
/// `msg-abandoned` flight rule.
pub const FLIGHT_PLAN: &str = "\
retry budget=2 base=100 max=1000
link-down start=500 dur=2000 src=1 dst=2
nic-transient start=0 dur=500000000 port=0
";

/// 128-bit FNV-1a.
pub fn fnv1a128(bytes: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;
    bytes
        .iter()
        .fold(OFFSET, |h, &b| (h ^ u128::from(b)).wrapping_mul(PRIME))
}

/// The manifest line of `bytes` pinned as `name`.
pub fn manifest_line(name: &str, bytes: &[u8]) -> String {
    format!("{name} {} {:032x}", bytes.len(), fnv1a128(bytes))
}

/// Asserts that `bytes` are the output the manifest pins as `name`.
pub fn assert_pinned(name: &str, bytes: &[u8]) {
    let manifest = include_str!("manifest.txt");
    let pinned = manifest
        .lines()
        .find(|l| l.split(' ').next() == Some(name))
        .unwrap_or_else(|| panic!("the golden manifest pins no `{name}`"));
    assert_eq!(
        manifest_line(name, bytes),
        pinned,
        "`{name}` differs from the golden manifest"
    );
}

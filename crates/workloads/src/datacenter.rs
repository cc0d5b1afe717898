//! Skewed datacenter traffic matrices and communication-log replay.
//!
//! The Costly-Circuits traffic model: a few very large flows (the
//! "elephants") carry most of the bytes while many small flows (the
//! "mice") make up most of the pairs — the regime where reconfiguration
//! cost dominates naive circuit schedules. [`datacenter`] generates such
//! matrices seeded and deterministically; [`datacenter_flows`] exposes
//! the raw `(src, dst, bytes)` list for byte-weighted solvers.
//!
//! [`replay_trace_log`] is the companion real-trace path: an NPB-style
//! communication log (`trace <src> <dst> <bytes>` per line) is lowered
//! into per-processor command files and parsed through the existing
//! command-file path, so logged applications drive the same simulators
//! as synthetic patterns.

use crate::program::Program;
use crate::workload::Workload;
use pms_trace::cli::{self, LineError, Words};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Shape of a skewed datacenter matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatacenterSpec {
    /// Ports (= processors).
    pub ports: usize,
    /// Elephant count: large flows on mostly-disjoint port pairs.
    pub elephants: usize,
    /// Mice per source port: small flows to random destinations.
    pub mice_per_port: usize,
    /// Pareto scale (minimum bytes) of an elephant flow.
    pub elephant_bytes: u64,
    /// Pareto scale (minimum bytes) of a mouse flow.
    pub mouse_bytes: u64,
    /// Generator seed; equal specs generate byte-identical workloads.
    pub seed: u64,
}

impl DatacenterSpec {
    /// A skew-representative default: one elephant per eight ports, four
    /// mice per port, elephants three orders of magnitude heavier.
    pub fn new(ports: usize, seed: u64) -> Self {
        Self {
            ports,
            elephants: (ports / 8).max(1),
            mice_per_port: 4,
            elephant_bytes: 65_536,
            mouse_bytes: 64,
            seed,
        }
    }
}

/// Truncated Pareto(α = 2) sample: `scale / sqrt(U)` capped at
/// `16 · scale`. `sqrt` is IEEE-correctly-rounded, so the sample is
/// bit-deterministic on every platform.
fn pareto2(rng: &mut StdRng, scale: u64, cap_mult: u64) -> u64 {
    // Top 53 bits as a uniform in (0, 1] — never zero, so no div-by-zero.
    let u = ((rng.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64);
    let x = scale as f64 / u.sqrt();
    (x as u64).clamp(scale, scale * cap_mult)
}

/// The spec's flow list `(src, dst, bytes)`: elephants first (on
/// distinct source ports, destinations clash-free where possible), then
/// `mice_per_port` mice fanning out of every port. Flows may repeat a
/// pair; consumers accumulate.
pub fn datacenter_flows(spec: &DatacenterSpec) -> Vec<(usize, usize, u64)> {
    assert!(spec.ports >= 2, "datacenter needs at least two ports");
    assert!(
        spec.elephants <= spec.ports,
        "at most one elephant per source port"
    );
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut flows = Vec::new();

    // Elephants: distinct source ports (shuffled), each to a random
    // destination not already carrying an elephant — mostly disjoint
    // pairs, so a cost-aware solver can drain them in parallel.
    let mut srcs: Vec<usize> = (0..spec.ports).collect();
    srcs.shuffle(&mut rng);
    let mut dst_taken = vec![false; spec.ports];
    for &src in srcs.iter().take(spec.elephants) {
        let dst = (0..spec.ports * 4)
            .map(|_| rng.gen_range(0..spec.ports))
            .find(|&d| d != src && !dst_taken[d])
            .unwrap_or((src + 1) % spec.ports);
        dst_taken[dst] = true;
        flows.push((src, dst, pareto2(&mut rng, spec.elephant_bytes, 16)));
    }

    // Mice: the long tail of small transfers.
    for src in 0..spec.ports {
        for _ in 0..spec.mice_per_port {
            let mut dst = rng.gen_range(0..spec.ports - 1);
            if dst >= src {
                dst += 1;
            }
            flows.push((src, dst, pareto2(&mut rng, spec.mouse_bytes, 16)));
        }
    }
    flows
}

/// The spec as a [`Workload`]: one send per flow, in flow-list order.
pub fn datacenter(spec: &DatacenterSpec) -> Workload {
    let mut programs = vec![Program::new(); spec.ports];
    for (src, dst, bytes) in datacenter_flows(spec) {
        assert!(bytes <= u32::MAX as u64, "flow exceeds one message");
        programs[src].send(dst, bytes as u32);
    }
    Workload::new(
        format!(
            "datacenter/{}e{}m/s{}",
            spec.elephants, spec.mice_per_port, spec.seed
        ),
        spec.ports,
        programs,
    )
}

/// Parses an NPB-style communication log.
///
/// Grammar, one record per line (read by [`cli::read_lines`]: `#` starts
/// a comment, blank lines allowed):
///
/// ```text
/// trace <src> <dst> <bytes>
/// ```
///
/// Errors carry the 1-based line number and the offending line text.
pub fn parse_trace_log(text: &str) -> Result<Vec<(usize, usize, u64)>, LineError> {
    read_trace_log(text, |_, _| Ok(()))
}

/// [`parse_trace_log`], also running `check` on each record's ports: an
/// `Err` becomes a parse error on that record's line.
fn read_trace_log(
    text: &str,
    check: impl Fn(usize, usize) -> Result<(), String>,
) -> Result<Vec<(usize, usize, u64)>, LineError> {
    let mut flows = Vec::new();
    cli::read_lines(text, |line| {
        let mut words = Words::new(line);
        words.keyword("trace")?;
        let src = words.num("source")?;
        let dst = words.num("destination")?;
        let bytes: u64 = words.num("byte count")?;
        words.finish()?;
        if bytes == 0 || bytes > u32::MAX as u64 {
            return Err(format!("byte count {bytes} out of range (1..=u32::MAX)"));
        }
        check(src, dst)?;
        flows.push((src, dst, bytes));
        Ok(())
    })?;
    Ok(flows)
}

/// Replays a communication log as a [`Workload`] by lowering it into
/// per-processor command files and re-parsing them through the existing
/// command-file path — so the replay exercises exactly the pipeline a
/// hand-written command file would.
///
/// Records keep their log order within each source processor.
///
/// # Errors
/// Returns the log's parse error, or one pointing at the first record
/// whose ports do not fit `ports` (self-sends included, rejected by the
/// same rule as [`Workload::new`]).
pub fn replay_trace_log(
    name: impl Into<String>,
    ports: usize,
    text: &str,
) -> Result<Workload, LineError> {
    // Checked here, with the log's line, rather than letting
    // Workload::new panic deep in the command-file path.
    let flows = read_trace_log(text, |src, dst| {
        if src >= ports || dst >= ports || src == dst {
            Err(format!("record {src}->{dst} invalid for {ports} ports"))
        } else {
            Ok(())
        }
    })?;
    let mut files = vec![String::new(); ports];
    for (src, dst, bytes) in flows {
        files[src].push_str(&format!("send {dst} {bytes}\n"));
    }
    Workload::from_command_files(name, &files).map_err(|(_, e)| e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_seeded_and_skewed() {
        let spec = DatacenterSpec::new(64, 7);
        let a = datacenter_flows(&spec);
        let b = datacenter_flows(&spec);
        assert_eq!(a, b, "same seed, same flows");
        let c = datacenter_flows(&DatacenterSpec { seed: 8, ..spec });
        assert_ne!(a, c, "different seed, different flows");
        assert_eq!(a.len(), spec.elephants + 64 * spec.mice_per_port);
        // Few-large + many-small: elephants (first `elephants` flows)
        // carry the overwhelming majority of the bytes.
        let elephant_bytes: u64 = a[..spec.elephants].iter().map(|f| f.2).sum();
        let mouse_bytes: u64 = a[spec.elephants..].iter().map(|f| f.2).sum();
        assert!(elephant_bytes > 10 * mouse_bytes);
        // Elephant sources and destinations are distinct.
        let mut srcs: Vec<usize> = a[..spec.elephants].iter().map(|f| f.0).collect();
        srcs.sort_unstable();
        srcs.dedup();
        assert_eq!(srcs.len(), spec.elephants);
    }

    #[test]
    fn workload_matches_flows() {
        let spec = DatacenterSpec::new(16, 3);
        let w = datacenter(&spec);
        let flows = datacenter_flows(&spec);
        assert_eq!(w.ports, 16);
        assert_eq!(w.message_count(), flows.len());
        assert_eq!(w.total_bytes(), flows.iter().map(|f| f.2).sum::<u64>());
        assert!(w.name.starts_with("datacenter/"));
    }

    #[test]
    fn trace_log_roundtrips_through_command_files() {
        let log = "\
# NPB CG fragment
trace 0 1 1024
trace 1 2 64   # inline comment
trace 0 2 8
";
        let w = replay_trace_log("cg", 4, log).unwrap();
        assert_eq!(w.message_count(), 3);
        assert_eq!(w.total_bytes(), 1096);
        // Source 0's records keep their log order.
        let table = w.message_table();
        let from0: Vec<(usize, u32)> = table
            .iter()
            .filter(|m| m.src == 0)
            .map(|m| (m.dst, m.bytes))
            .collect();
        assert_eq!(from0, vec![(1, 1024), (2, 8)]);
    }

    #[test]
    fn trace_log_errors_carry_line_and_context() {
        let err = parse_trace_log("trace 0 1 64\nsend 1 2\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.context, "send 1 2");
        assert!(err.msg.contains("expected `trace`"));

        let err = parse_trace_log("trace 0 1\n").unwrap_err();
        assert!(err.msg.contains("missing byte count"));

        let err = parse_trace_log("trace 0 1 x\n").unwrap_err();
        assert!(err.msg.contains("invalid byte count"));

        let err = parse_trace_log("trace 0 1 64 9\n").unwrap_err();
        assert!(err.msg.contains("trailing"));

        let err = parse_trace_log("trace 0 1 0\n").unwrap_err();
        assert!(err.msg.contains("out of range"));

        let err = replay_trace_log("t", 4, "trace 0 9 64\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.msg.contains("invalid for 4 ports"));

        let err = replay_trace_log("t", 4, "trace 2 2 64\n").unwrap_err();
        assert!(err.msg.contains("2->2"));
    }

    #[test]
    fn replay_checks_ports_in_the_parsing_pass() {
        // The first bad line is reported, whichever way it is bad.
        let err = replay_trace_log("t", 4, "trace 0 9 64\ntrace x 1 64\n").unwrap_err();
        assert_eq!((err.line, err.context.as_str()), (1, "trace 0 9 64"));
        let err = replay_trace_log("t", 4, "trace x 1 64\ntrace 0 9 64\n").unwrap_err();
        assert_eq!(err.msg, "invalid source `x`");
    }
}

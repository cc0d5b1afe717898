//! A workload: one command program per processor plus preloadable patterns.

use crate::program::{Command, Program};
use pms_bitmat::BitMatrix;

/// A complete multi-processor workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Human-readable name (appears in reports).
    pub name: String,
    /// Number of processors / network ports.
    pub ports: usize,
    /// One command program per processor (`programs.len() == ports`).
    pub programs: Vec<Program>,
    /// Preloadable configuration patterns referenced by
    /// [`Command::Preload`].
    pub patterns: Vec<Vec<BitMatrix>>,
}

/// One message of the workload, in the canonical global order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgSpec {
    /// Index in the canonical order (used for phase mapping).
    pub id: usize,
    /// Source processor.
    pub src: usize,
    /// Destination processor.
    pub dst: usize,
    /// Payload size in bytes.
    pub bytes: u32,
}

impl Workload {
    /// Creates a workload; validates program count and destinations.
    ///
    /// # Panics
    /// Panics if `programs.len() != ports`, any destination is out of
    /// range, or a send targets its own processor.
    pub fn new(name: impl Into<String>, ports: usize, programs: Vec<Program>) -> Self {
        assert_eq!(programs.len(), ports, "need one program per processor");
        for (p, prog) in programs.iter().enumerate() {
            for cmd in &prog.cmds {
                if let Command::Send { dst, .. } = cmd {
                    assert!(*dst < ports, "processor {p} sends to invalid {dst}");
                    assert_ne!(*dst, p, "processor {p} sends to itself");
                }
            }
        }
        Self {
            name: name.into(),
            ports,
            programs,
            patterns: Vec::new(),
        }
    }

    /// Attaches preloadable patterns (each a list of conflict-free
    /// configurations).
    ///
    /// # Panics
    /// Panics if any configuration conflicts or has wrong dimensions.
    pub fn with_patterns(mut self, patterns: Vec<Vec<BitMatrix>>) -> Self {
        for (i, pat) in patterns.iter().enumerate() {
            for (j, cfg) in pat.iter().enumerate() {
                assert_eq!(
                    (cfg.rows(), cfg.cols()),
                    (self.ports, self.ports),
                    "pattern {i} config {j} has wrong dimensions"
                );
                assert!(
                    cfg.is_partial_permutation(),
                    "pattern {i} config {j} conflicts on a port"
                );
            }
        }
        self.patterns = patterns;
        self
    }

    /// All messages in the canonical global order: command index by
    /// command index, processors in port order. This interleaving
    /// approximates the parallel execution order and is what
    /// [`connection_trace`](Self::connection_trace) (and hence the
    /// compiled phase partitioning) uses.
    pub fn message_table(&self) -> Vec<MsgSpec> {
        let max_len = self
            .programs
            .iter()
            .map(|p| p.cmds.len())
            .max()
            .unwrap_or(0);
        let mut out = Vec::new();
        for round in 0..max_len {
            for (src, prog) in self.programs.iter().enumerate() {
                if let Some(Command::Send { dst, bytes }) = prog.cmds.get(round) {
                    out.push(MsgSpec {
                        id: out.len(),
                        src,
                        dst: *dst,
                        bytes: *bytes,
                    });
                }
            }
        }
        out
    }

    /// The connection trace `(src, dst)` in canonical order, for
    /// `pms_compile::partition_phases`.
    pub fn connection_trace(&self) -> Vec<(usize, usize)> {
        self.message_table()
            .iter()
            .map(|m| (m.src, m.dst))
            .collect()
    }

    /// Total payload bytes across all processors.
    pub fn total_bytes(&self) -> u64 {
        self.programs.iter().map(Program::total_bytes).sum()
    }

    /// Total number of messages.
    pub fn message_count(&self) -> usize {
        self.programs.iter().map(Program::send_count).sum()
    }

    /// Number of processors that send at least one message.
    pub fn sender_count(&self) -> usize {
        self.programs.iter().filter(|p| p.send_count() > 0).count()
    }

    /// Renders every processor's program in the command-file text format
    /// (one string per processor), each prefixed with a header comment.
    pub fn to_command_files(&self) -> Vec<String> {
        self.programs
            .iter()
            .enumerate()
            .map(|(p, prog)| {
                format!(
                    "# {} — processor {p} of {}\n{}",
                    self.name,
                    self.ports,
                    crate::dsl::format_program(prog)
                )
            })
            .collect()
    }

    /// Builds a workload from per-processor command-file texts, file `i`
    /// being processor `i`'s program.
    ///
    /// Returns the first error with its processor index: a parse error,
    /// or a `send` to a processor outside the file count or to the
    /// sender itself, each with its line.
    pub fn from_command_files<S: AsRef<str>>(
        name: impl Into<String>,
        files: &[S],
    ) -> Result<Self, (usize, pms_trace::cli::LineError)> {
        let n = files.len();
        let mut programs = Vec::with_capacity(n);
        for (i, f) in files.iter().enumerate() {
            let prog = crate::dsl::parse_checked(f.as_ref(), |cmd| match *cmd {
                Command::Send { dst, .. } if dst >= n => Err(format!(
                    "destination {dst} is not one of the {n} processors"
                )),
                Command::Send { dst, .. } if dst == i => {
                    Err("a processor cannot send to itself".to_string())
                }
                _ => Ok(()),
            });
            programs.push(prog.map_err(|e| (i, e))?);
        }
        Ok(Self::new(name, n, programs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prog(sends: &[(usize, u32)]) -> Program {
        let mut p = Program::new();
        for &(d, b) in sends {
            p.send(d, b);
        }
        p
    }

    #[test]
    fn message_table_interleaves_by_round() {
        let w = Workload::new(
            "t",
            3,
            vec![prog(&[(1, 8), (2, 8)]), prog(&[(2, 16)]), prog(&[])],
        );
        let table = w.message_table();
        assert_eq!(table.len(), 3);
        // Round 0: proc0->1, proc1->2; round 1: proc0->2.
        assert_eq!((table[0].src, table[0].dst), (0, 1));
        assert_eq!((table[1].src, table[1].dst), (1, 2));
        assert_eq!((table[2].src, table[2].dst), (0, 2));
        assert_eq!(table[2].id, 2);
    }

    #[test]
    fn totals() {
        let w = Workload::new(
            "t",
            3,
            vec![prog(&[(1, 8), (2, 8)]), prog(&[(2, 16)]), prog(&[])],
        );
        assert_eq!(w.total_bytes(), 32);
        assert_eq!(w.message_count(), 3);
        assert_eq!(w.sender_count(), 2);
        assert_eq!(w.connection_trace(), vec![(0, 1), (1, 2), (0, 2)]);
    }

    #[test]
    #[should_panic(expected = "sends to itself")]
    fn self_send_rejected() {
        Workload::new("t", 2, vec![prog(&[(0, 8)]), prog(&[])]);
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn out_of_range_dst_rejected() {
        Workload::new("t", 2, vec![prog(&[(5, 8)]), prog(&[])]);
    }

    #[test]
    #[should_panic(expected = "one program per processor")]
    fn program_count_mismatch_rejected() {
        Workload::new("t", 3, vec![prog(&[])]);
    }

    #[test]
    fn command_files_roundtrip() {
        let w = Workload::new(
            "rt",
            3,
            vec![prog(&[(1, 8), (2, 8)]), prog(&[(2, 16)]), prog(&[])],
        );
        let files = w.to_command_files();
        assert_eq!(files.len(), 3);
        assert!(files[0].starts_with("# rt"));
        let back = Workload::from_command_files("rt", &files).unwrap();
        assert_eq!(back.programs, w.programs);
        assert_eq!(back.connection_trace(), w.connection_trace());
    }

    #[test]
    fn from_command_files_reports_processor_and_line() {
        let files = ["send 1 8\n", "send 0 8\nbogus\n"];
        let (proc_idx, err) = Workload::from_command_files("bad", &files).unwrap_err();
        assert_eq!(proc_idx, 1);
        assert_eq!(err.line, 2);
    }

    #[test]
    fn from_command_files_rejects_bad_destinations_with_their_line() {
        for (files, proc_idx, line, needle) in [
            (
                ["send 1 8\n", "delay 5\nsend 5 64\n"],
                1,
                2,
                "destination 5 is not one of the 2 processors",
            ),
            (
                ["# self\nsend 0 8\n", ""],
                0,
                2,
                "a processor cannot send to itself",
            ),
        ] {
            let (p, err) = Workload::from_command_files("bad", &files).unwrap_err();
            assert_eq!((p, err.line), (proc_idx, line), "{err}");
            assert!(err.msg.contains(needle), "{err}");
        }
    }

    #[test]
    #[should_panic(expected = "conflicts on a port")]
    fn bad_pattern_rejected() {
        let bad = vec![vec![BitMatrix::from_pairs(2, 2, [(0, 1), (1, 1)])]];
        Workload::new("t", 2, vec![prog(&[]), prog(&[])]).with_patterns(bad);
    }
}

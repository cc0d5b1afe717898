//! The command-file text format.
//!
//! One command per line, read by [`cli::read_lines`]: `#` starts a
//! comment, and a bad line is a [`LineError`]. Mirrors the paper's
//! per-processor command files:
//!
//! ```text
//! # processor 17
//! preload 0
//! send 18 1024
//! send 16 1024
//! delay 500
//! barrier
//! flush
//! ```

use crate::program::{Command, Program};
use pms_trace::cli::{self, LineError, Words};

/// Parses a command file into a [`Program`].
pub fn parse_program(text: &str) -> Result<Program, LineError> {
    parse_checked(text, |_| Ok(()))
}

/// [`parse_program`], also running `check` on each command: an `Err`
/// becomes a parse error on that command's line.
pub(crate) fn parse_checked(
    text: &str,
    check: impl Fn(&Command) -> Result<(), String>,
) -> Result<Program, LineError> {
    let mut prog = Program::new();
    cli::read_lines(text, |line| {
        let cmd = parse_command(line)?;
        check(&cmd)?;
        prog.cmds.push(cmd);
        Ok(())
    })?;
    Ok(prog)
}

/// One command line. A number that does not fit its field (a byte count
/// past `u32::MAX`) is an error.
fn parse_command(line: &str) -> Result<Command, String> {
    let mut words = Words::new(line);
    let cmd = match words.word("command")? {
        "send" => Command::Send {
            dst: words.num("destination")?,
            bytes: words.num("byte count")?,
        },
        "delay" => Command::Delay {
            ns: words.num("nanoseconds")?,
        },
        "barrier" => Command::Barrier,
        "flush" => Command::Flush,
        "preload" => Command::Preload {
            pattern: words.num("pattern index")?,
        },
        other => return Err(format!("unknown command `{other}`")),
    };
    words.finish()?;
    Ok(cmd)
}

/// Renders a [`Program`] in the command-file format. The output parses
/// back to an equal program.
pub fn format_program(prog: &Program) -> String {
    let mut out = String::new();
    for cmd in &prog.cmds {
        match cmd {
            Command::Send { dst, bytes } => out.push_str(&format!("send {dst} {bytes}\n")),
            Command::Delay { ns } => out.push_str(&format!("delay {ns}\n")),
            Command::Barrier => out.push_str("barrier\n"),
            Command::Flush => out.push_str("flush\n"),
            Command::Preload { pattern } => out.push_str(&format!("preload {pattern}\n")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_commands() {
        let text = "
            # header comment
            preload 2
            send 18 1024   # inline comment
            delay 500
            barrier
            flush
        ";
        let p = parse_program(text).unwrap();
        assert_eq!(
            p.cmds,
            vec![
                Command::Preload { pattern: 2 },
                Command::Send {
                    dst: 18,
                    bytes: 1024
                },
                Command::Delay { ns: 500 },
                Command::Barrier,
                Command::Flush,
            ]
        );
    }

    #[test]
    fn roundtrip() {
        let mut p = Program::new();
        p.send(1, 8).delay(10).barrier().send(2, 2048);
        p.cmds.push(Command::Flush);
        p.cmds.push(Command::Preload { pattern: 0 });
        let text = format_program(&p);
        assert_eq!(parse_program(&text).unwrap(), p);
    }

    #[test]
    fn empty_and_comment_only_ok() {
        assert_eq!(parse_program("").unwrap(), Program::new());
        assert_eq!(
            parse_program("# nothing\n\n  # more\n").unwrap(),
            Program::new()
        );
    }

    #[test]
    fn unknown_command_rejected_with_line() {
        let err = parse_program("send 1 8\nrecv 2\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.msg.contains("recv"));
        assert_eq!(err.context, "recv 2");
    }

    #[test]
    fn errors_carry_the_offending_line_text() {
        // The context is the trimmed line with comments stripped, and the
        // Display form includes it (matching the faults plan parser).
        let err = parse_program("send 1 8\n   send x 8  # oops\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.context, "send x 8");
        let rendered = err.to_string();
        assert!(rendered.contains("line 2"), "{rendered}");
        assert!(rendered.contains("\"send x 8\""), "{rendered}");
        // Missing-field errors carry it too.
        let err = parse_program("delay").unwrap_err();
        assert_eq!(err.context, "delay");
    }

    #[test]
    fn missing_and_bad_fields_rejected() {
        assert!(parse_program("send 1").unwrap_err().msg.contains("missing"));
        assert!(parse_program("send x 8")
            .unwrap_err()
            .msg
            .contains("invalid"));
        assert!(parse_program("delay").unwrap_err().msg.contains("missing"));
    }

    #[test]
    fn byte_counts_past_u32_are_rejected_not_wrapped() {
        // 2^32 + 64 once wrapped to a 64 B send.
        let err = parse_program("send 1 8\nsend 1 4294967360\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.msg, "invalid byte count `4294967360`");
        let p = parse_program("send 1 4294967295").unwrap();
        assert_eq!(
            p.cmds,
            vec![Command::Send {
                dst: 1,
                bytes: u32::MAX
            }]
        );
    }

    #[test]
    fn trailing_tokens_rejected() {
        let err = parse_program("barrier now").unwrap_err();
        assert!(err.msg.contains("trailing"));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    fn cmd_strategy() -> impl Strategy<Value = Command> {
        prop_oneof![
            (0usize..1000, 1u32..1_000_000).prop_map(|(dst, bytes)| Command::Send { dst, bytes }),
            (0u64..1_000_000).prop_map(|ns| Command::Delay { ns }),
            Just(Command::Barrier),
            Just(Command::Flush),
            (0usize..16).prop_map(|pattern| Command::Preload { pattern }),
        ]
    }

    proptest! {
        /// format -> parse is the identity for every representable program.
        #[test]
        fn format_parse_roundtrip(cmds in prop::collection::vec(cmd_strategy(), 0..40)) {
            let prog = Program { cmds };
            let text = format_program(&prog);
            prop_assert_eq!(parse_program(&text).unwrap(), prog);
        }

        /// The parser never panics on arbitrary input.
        #[test]
        fn parser_is_total(text in "\\PC{0,200}") {
            let _ = parse_program(&text);
        }
    }
}

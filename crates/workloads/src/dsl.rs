//! The command-file text format.
//!
//! One command per line; `#` starts a comment. Mirrors the paper's
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
use std::fmt;

/// A command-file parse error with line information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// The offending line text, trimmed (same convention as the faults
    /// plan-file parser), so the message is actionable without the file
    /// open.
    pub context: String,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {}: {} in {:?}",
            self.line, self.message, self.context
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses a command file into a [`Program`].
pub fn parse_program(text: &str) -> Result<Program, ParseError> {
    parse_checked(text, |_| Ok(()))
}

/// [`parse_program`], also running `check` on each command: an `Err`
/// becomes a parse error on that command's line.
pub(crate) fn parse_checked(
    text: &str,
    check: impl Fn(&Command) -> Result<(), String>,
) -> Result<Program, ParseError> {
    let mut prog = Program::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let op = parts.next().expect("non-empty line has a token");
        let err = |msg: String| ParseError {
            line: line_no,
            context: line.to_string(),
            message: msg,
        };
        let cmd = match op {
            "send" => {
                let dst = parse_field(parts.next(), "destination", line_no, line)?;
                let bytes = parse_field(parts.next(), "byte count", line_no, line)?;
                Command::Send { dst, bytes }
            }
            "delay" => {
                let ns = parse_field(parts.next(), "nanoseconds", line_no, line)?;
                Command::Delay { ns }
            }
            "barrier" => Command::Barrier,
            "flush" => Command::Flush,
            "preload" => {
                let pattern = parse_field(parts.next(), "pattern index", line_no, line)?;
                Command::Preload { pattern }
            }
            other => return Err(err(format!("unknown command `{other}`"))),
        };
        if let Some(extra) = parts.next() {
            return Err(err(format!("unexpected trailing token `{extra}`")));
        }
        check(&cmd).map_err(err)?;
        prog.cmds.push(cmd);
    }
    Ok(prog)
}

/// Parses one field; a token that is not a number, or does not fit the
/// field's type (a byte count past `u32::MAX`), is an error.
fn parse_field<T: std::str::FromStr>(
    tok: Option<&str>,
    what: &str,
    line: usize,
    context: &str,
) -> Result<T, ParseError> {
    let tok = tok.ok_or_else(|| ParseError {
        line,
        context: context.to_string(),
        message: format!("missing {what}"),
    })?;
    tok.parse().map_err(|_| ParseError {
        line,
        context: context.to_string(),
        message: format!("invalid {what} `{tok}`"),
    })
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
        assert!(err.message.contains("recv"));
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
        assert!(parse_program("send 1")
            .unwrap_err()
            .message
            .contains("missing"));
        assert!(parse_program("send x 8")
            .unwrap_err()
            .message
            .contains("invalid"));
        assert!(parse_program("delay")
            .unwrap_err()
            .message
            .contains("missing"));
    }

    #[test]
    fn byte_counts_past_u32_are_rejected_not_wrapped() {
        // 2^32 + 64 once wrapped to a 64 B send.
        let err = parse_program("send 1 8\nsend 1 4294967360\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.message, "invalid byte count `4294967360`");
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
        assert!(err.message.contains("trailing"));
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

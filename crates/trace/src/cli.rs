//! The command-line parser every binary in the workspace shares.
//!
//! A binary declares nothing up front: it asks [`Flags`] for each flag it
//! takes, and each ask consumes the tokens it matched. [`Flags::finish`]
//! then rejects whatever is left, so a misspelled flag or a stray
//! argument is a [`FlagError`], never a silently ignored token.
//!
//! * A flag takes its value as `--flag value` or `--flag=value`; given
//!   twice, the last value wins.
//! * A switch is a bare `--flag`.
//! * Positionals are the tokens no flag consumed that do not start with
//!   `-`, in order.
//!
//! Exit status, the same for every binary:
//!
//! * `0` — success, and `--help`/`-h`, which prints the usage to stdout;
//! * `1` — a runtime failure ([`die`]): I/O, a malformed input file, or a
//!   check the binary runs on its own results;
//! * `2` — a usage or geometry error ([`fail`]): one line on stderr,
//!   before any work is done.

use std::fmt;
use std::str::FromStr;

/// A command line the binary cannot run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlagError {
    /// A flag the binary does not take.
    Unknown(String),
    /// A flag given without its value.
    MissingValue(String),
    /// A flag (or positional) whose value does not parse.
    BadValue {
        /// The flag, or the positional's name.
        flag: String,
        /// The value as given.
        value: String,
        /// What the value should have been.
        expected: &'static str,
    },
    /// A positional the binary does not take.
    Unexpected(String),
    /// A required positional that is absent.
    Missing(&'static str),
}

impl fmt::Display for FlagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Unknown(flag) => write!(f, "unknown flag `{flag}` (see --help)"),
            Self::MissingValue(flag) => write!(f, "{flag} needs a value"),
            Self::BadValue {
                flag,
                value,
                expected,
            } => write!(f, "{flag} expects {expected}, got `{value}`"),
            Self::Unexpected(arg) => write!(f, "unexpected argument `{arg}` (see --help)"),
            Self::Missing(what) => write!(f, "missing {what} (see --help)"),
        }
    }
}

impl std::error::Error for FlagError {}

/// A type a flag value parses into, with the phrase naming what a
/// malformed value should have been.
pub trait FlagValue: FromStr {
    /// Completes "`--flag` expects ...".
    const EXPECTED: &'static str;
}

macro_rules! flag_value {
    ($($t:ty => $expected:literal),*) => {
        $(impl FlagValue for $t {
            const EXPECTED: &'static str = $expected;
        })*
    };
}

flag_value!(u32 => "a non-negative integer", u64 => "a non-negative integer",
    usize => "a non-negative integer", f64 => "a number", String => "a value");

/// The tokens of one command line; a token is `None` once consumed.
#[derive(Debug)]
pub struct Flags {
    args: Vec<Option<String>>,
}

impl Flags {
    /// The command line `args`, without the program name.
    pub fn new<S: Into<String>>(args: impl IntoIterator<Item = S>) -> Self {
        Self {
            args: args.into_iter().map(|a| Some(a.into())).collect(),
        }
    }

    /// Whether the switch `name` is present.
    pub fn switch(&mut self, name: &str) -> bool {
        let mut found = false;
        for arg in self.args.iter_mut().filter(|a| a.as_deref() == Some(name)) {
            (*arg, found) = (None, true);
        }
        found
    }

    /// The value of `name`, parsed by `parse`; `expected` names the
    /// values `parse` accepts.
    pub fn parse_with<T>(
        &mut self,
        name: &str,
        expected: &'static str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, FlagError> {
        let mut last = None;
        for i in 0..self.args.len() {
            let Some(arg) = self.args[i].as_deref() else {
                continue;
            };
            let value = if arg == name {
                self.args[i] = None;
                match self.args.get_mut(i + 1).and_then(Option::take) {
                    Some(v) => v,
                    None => return Err(FlagError::MissingValue(name.to_string())),
                }
            } else if let Some(v) = arg.strip_prefix(name).and_then(|r| r.strip_prefix('=')) {
                let v = v.to_string();
                self.args[i] = None;
                v
            } else {
                continue;
            };
            last = Some(parse(&value).ok_or_else(|| FlagError::BadValue {
                flag: name.to_string(),
                value,
                expected,
            })?);
        }
        Ok(last)
    }

    /// The value of `name`, if given.
    pub fn opt<T: FlagValue>(&mut self, name: &str) -> Result<Option<T>, FlagError> {
        self.parse_with(name, T::EXPECTED, |v| v.parse().ok())
    }

    /// The value of `name`, or `default`.
    pub fn get<T: FlagValue>(&mut self, name: &str, default: T) -> Result<T, FlagError> {
        Ok(self.opt(name)?.unwrap_or(default))
    }

    /// `--threads N`, the sweep lane count: every available core by
    /// default, and `0` is read as `1`, the sequential path.
    pub fn threads(&mut self) -> Result<usize, FlagError> {
        let threads = self.parse_with("--threads", "a lane count", |v| v.parse::<usize>().ok())?;
        Ok(threads.map_or_else(available_parallelism, |n| n.max(1)))
    }

    /// The next positional, if any.
    pub fn positional(&mut self) -> Option<String> {
        let next = self
            .args
            .iter_mut()
            .find(|a| a.as_ref().is_some_and(|a| !a.starts_with('-')));
        next.and_then(Option::take)
    }

    /// The next positional, required and parsed; `what` names it. Ask
    /// for every flag first: when the positional is missing, a token
    /// nothing consumed is reported as the [`FlagError::Unknown`] flag
    /// it must be.
    pub fn required<T: FlagValue>(&mut self, what: &'static str) -> Result<T, FlagError> {
        let Some(value) = self.positional() else {
            return Err(match self.args.iter().flatten().next() {
                Some(flag) => FlagError::Unknown(flag.clone()),
                None => FlagError::Missing(what),
            });
        };
        value.parse().map_err(|_| FlagError::BadValue {
            flag: what.to_string(),
            value,
            expected: T::EXPECTED,
        })
    }

    /// Rejects the first token nothing consumed.
    pub fn finish(self) -> Result<(), FlagError> {
        match self.args.into_iter().flatten().next() {
            Some(a) if a.starts_with('-') => Err(FlagError::Unknown(a)),
            Some(a) => Err(FlagError::Unexpected(a)),
            None => Ok(()),
        }
    }
}

/// Parses this process's command line with `parse`, then
/// [`finish`](Flags::finish)es it. `--help` or `-h` prints `usage` and
/// exits 0; a [`FlagError`] is a usage error ([`fail`]).
pub fn parse_env<T>(usage: &str, parse: impl FnOnce(&mut Flags) -> Result<T, FlagError>) -> T {
    let mut flags = Flags::new(std::env::args().skip(1));
    if flags.switch("--help") | flags.switch("-h") {
        println!("{usage}");
        std::process::exit(0);
    }
    parse(&mut flags)
        .and_then(|parsed| flags.finish().map(|()| parsed))
        .unwrap_or_else(|e| fail(e))
}

/// A usage or geometry error: prints `msg` as one stderr line and exits 2.
pub fn fail(msg: impl fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// A runtime failure (I/O, a malformed input file): prints `msg` and
/// exits 1.
pub fn die(msg: impl fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(1)
}

/// The number of hardware threads available, with a floor of 1.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &str) -> Flags {
        Flags::new(args.split_whitespace())
    }

    #[test]
    fn values_parse_in_both_forms_and_the_last_wins() {
        let mut f = flags("--ports 16 --bytes=64 --ports=32 --name x");
        assert_eq!(f.get("--ports", 0usize), Ok(32));
        assert_eq!(f.get("--bytes", 0u32), Ok(64));
        assert_eq!(f.opt::<String>("--name"), Ok(Some("x".into())));
        assert_eq!(f.opt::<u64>("--seed"), Ok(None));
        assert_eq!(f.get("--seed", 17u64), Ok(17));
        assert_eq!(f.finish(), Ok(()));
    }

    #[test]
    fn a_flag_name_is_not_a_prefix_match() {
        let mut f = flags("--portsx=3");
        assert_eq!(f.opt::<usize>("--ports"), Ok(None));
        assert_eq!(f.finish(), Err(FlagError::Unknown("--portsx=3".into())));
    }

    #[test]
    fn switches_and_positionals() {
        let mut f = flags("a.jsonl --quiet --report r.json b");
        assert!(f.switch("--quiet"));
        assert!(!f.switch("--json"));
        assert_eq!(f.opt::<String>("--report"), Ok(Some("r.json".into())));
        assert_eq!(f.positional().as_deref(), Some("a.jsonl"));
        assert_eq!(f.required::<String>("<b>"), Ok("b".into()));
        assert_eq!(f.positional(), None);
        assert_eq!(f.finish(), Ok(()));
    }

    #[test]
    fn threads_flag_parses_both_forms() {
        assert_eq!(flags("--threads 3").threads(), Ok(3));
        assert_eq!(flags("--threads=5").threads(), Ok(5));
        assert_eq!(flags("--threads 0").threads(), Ok(1));
        assert_eq!(flags("").threads(), Ok(available_parallelism()));
        // A malformed or missing value is an error, not a silent default.
        for (args, value) in [("--threads lots", "lots"), ("--threads=-1", "-1")] {
            let err = flags(args).threads().unwrap_err();
            let bad = FlagError::BadValue {
                flag: "--threads".into(),
                value: value.into(),
                expected: "a lane count",
            };
            assert_eq!(err, bad);
        }
        assert_eq!(
            flags("--threads lots").threads().unwrap_err().to_string(),
            "--threads expects a lane count, got `lots`"
        );
        let missing = FlagError::MissingValue("--threads".into());
        assert_eq!(flags("--threads").threads(), Err(missing));
    }

    #[test]
    fn every_error_variant_renders_one_line() {
        let unknown = {
            let mut f = flags("--ports 16 --bogus 3");
            f.get("--ports", 0usize).unwrap();
            f.finish().unwrap_err()
        };
        assert_eq!(unknown, FlagError::Unknown("--bogus".into()));
        let missing_value = flags("--ports").opt::<usize>("--ports").unwrap_err();
        assert_eq!(missing_value, FlagError::MissingValue("--ports".into()));
        let bad = flags("--ports lots").opt::<usize>("--ports").unwrap_err();
        let unexpected = flags("extra").finish().unwrap_err();
        assert_eq!(unexpected, FlagError::Unexpected("extra".into()));
        let missing = flags("").required::<usize>("<ports>").unwrap_err();
        assert_eq!(missing, FlagError::Missing("<ports>"));
        let unknown_first = flags("--bogus").required::<usize>("<ports>");
        assert_eq!(unknown_first, Err(FlagError::Unknown("--bogus".into())));
        let bad_positional = flags("x").required::<usize>("<ports>").unwrap_err();
        for (err, text) in [
            (unknown, "unknown flag `--bogus` (see --help)"),
            (missing_value, "--ports needs a value"),
            (bad, "--ports expects a non-negative integer, got `lots`"),
            (unexpected, "unexpected argument `extra` (see --help)"),
            (missing, "missing <ports> (see --help)"),
            (
                bad_positional,
                "<ports> expects a non-negative integer, got `x`",
            ),
        ] {
            assert_eq!(err.to_string(), text);
        }
    }

    #[test]
    fn parse_with_names_the_accepted_values() {
        let pick = |v: &str| ["fifo", "pifo"].contains(&v).then(|| v.to_string());
        let mut f = flags("--policy pifo");
        assert_eq!(
            f.parse_with("--policy", "fifo or pifo", pick),
            Ok(Some("pifo".into()))
        );
        let err = flags("--policy lifo")
            .parse_with("--policy", "fifo or pifo", pick)
            .unwrap_err();
        assert_eq!(err.to_string(), "--policy expects fifo or pifo, got `lifo`");
    }
}

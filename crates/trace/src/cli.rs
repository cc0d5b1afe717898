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
//! The same module reads the line-oriented input files (command files,
//! fault plans, alert rules, trace logs, request feeds, flight dumps):
//! [`read_lines`] numbers, trims and skips blank lines, `#` starts a
//! comment that runs to the end of the line, and a line a reader rejects
//! becomes one [`LineError`], shown as `line N: MSG in "LINE"`. Within a
//! line, [`Words`] reads positional words and [`Fields`] `key=value`
//! words, both with typed getters. [`run_cells`] is the one fan-out of a
//! sweep over `--threads` lanes.
//!
//! Exit status, the same for every binary:
//!
//! * `0` — success, and `--help`/`-h`, which prints the usage to stdout;
//! * `1` — a runtime failure ([`die`]): I/O, a malformed input file, or a
//!   check the binary runs on its own results;
//! * `2` — a usage or geometry error ([`fail`]): one line on stderr,
//!   before any work is done.

use std::fmt;
use std::panic::resume_unwind;
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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

/// A type a flag or `key=value` field parses into, with the phrase
/// naming what a malformed value should have been.
pub trait FlagValue: FromStr {
    /// Completes "`--flag` expects ..." and "`key=value` is not ...".
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
    usize => "a non-negative integer", i64 => "an integer", f64 => "a number",
    String => "a value");

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

/// Runs `f` over `jobs` on up to `threads` scoped threads and returns
/// the results **in input order**, so a sweep's output is byte-identical
/// at any [`Flags::threads`] count. Threads claim the next job index
/// from a shared cursor, so a slow cell never idles the others.
/// `threads = 1` runs inline on the calling thread with zero spawns. A
/// panicking job reaches the caller with its original payload.
pub fn run_cells<T, R, F>(threads: usize, jobs: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let lanes = threads.clamp(1, jobs.len().max(1));
    if lanes == 1 {
        return jobs.into_iter().enumerate().map(|(i, j)| f(i, j)).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    // The cursor only hands out indices; each job itself moves through its
    // own mutex, so `Relaxed` publishes nothing else.
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(i) else {
                return done;
            };
            let job = slot
                .lock()
                .expect("no job runs while its slot is locked")
                .take()
                .expect("the cursor hands out each job once");
            done.push((i, f(i, job)));
        }
    };
    let mut out: Vec<(usize, R)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..lanes).map(|_| s.spawn(work)).collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|p| resume_unwind(p)))
            .collect()
    });
    out.sort_unstable_by_key(|&(i, _)| i);
    out.into_iter().map(|(_, r)| r).collect()
}

/// A malformed line of an input file: which line (1-based), what it
/// contained, and what was wrong with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineError {
    /// 1-based line number.
    pub line: usize,
    /// The offending line, trimmed (and without its comment, outside
    /// JSONL), so the message is actionable without the file open.
    pub context: String,
    /// What was wrong with it.
    pub msg: String,
}

impl fmt::Display for LineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {} in {:?}", self.line, self.msg, self.context)
    }
}

impl std::error::Error for LineError {}

/// Reads a line-oriented input file: calls `each` on every line that is
/// not blank once its comment (`#` to the end of the line) is cut and
/// it is trimmed. An `Err(msg)` from `each` stops the read as a
/// [`LineError`] naming that line.
pub fn read_lines<'a>(
    text: &'a str,
    each: impl FnMut(&'a str) -> Result<(), String>,
) -> Result<(), LineError> {
    read(
        text,
        |raw| raw.split_once('#').map_or(raw, |(body, _)| body),
        each,
    )
}

/// [`read_lines`] for JSONL, where `#` is data: no comment is cut.
pub fn read_jsonl_lines<'a>(
    text: &'a str,
    each: impl FnMut(&'a str) -> Result<(), String>,
) -> Result<(), LineError> {
    read(text, |raw| raw, each)
}

fn read<'a>(
    text: &'a str,
    body: fn(&str) -> &str,
    mut each: impl FnMut(&'a str) -> Result<(), String>,
) -> Result<(), LineError> {
    for (idx, raw) in text.lines().enumerate() {
        let line = body(raw).trim();
        if !line.is_empty() {
            each(line).map_err(|msg| LineError {
                line: idx + 1,
                context: line.to_string(),
                msg,
            })?;
        }
    }
    Ok(())
}

/// The whitespace-separated words of one line, read left to right.
#[derive(Debug, Clone)]
pub struct Words<'a>(std::str::SplitWhitespace<'a>);

impl<'a> Words<'a> {
    /// The words of `line`.
    pub fn new(line: &'a str) -> Self {
        Words(line.split_whitespace())
    }

    /// The next word; `what` names it when the line has run out.
    pub fn word(&mut self, what: &str) -> Result<&'a str, String> {
        self.0.next().ok_or_else(|| format!("missing {what}"))
    }

    /// The next word, which must be `keyword`: the one record kind a
    /// file holds.
    pub fn keyword(&mut self, keyword: &str) -> Result<(), String> {
        match self.word("record")? {
            word if word == keyword => Ok(()),
            other => Err(format!("unknown record `{other}` (expected `{keyword}`)")),
        }
    }

    /// The next word, parsed. A word that does not parse, or does not
    /// fit `T` (a byte count past `u32::MAX`), is an error.
    pub fn num<T: FromStr>(&mut self, what: &str) -> Result<T, String> {
        let word = self.word(what)?;
        word.parse().map_err(|_| format!("invalid {what} `{word}`"))
    }

    /// [`num`](Self::num) for an optional last word: `default` when the
    /// line has run out.
    pub fn num_or<T: FromStr>(&mut self, what: &str, default: T) -> Result<T, String> {
        match self.0.clone().next() {
            Some(_) => self.num(what),
            None => Ok(default),
        }
    }

    /// Rejects the first word nothing read.
    pub fn finish(mut self) -> Result<(), String> {
        match self.0.next() {
            Some(extra) => Err(format!("unexpected trailing token `{extra}`")),
            None => Ok(()),
        }
    }
}

/// The `key=value` words of one line. A key given twice keeps its first
/// value.
#[derive(Debug, Clone)]
pub struct Fields<'a> {
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Fields<'a> {
    /// Splits each word `words` has left at its first `=`.
    pub fn parse(words: Words<'a>) -> Result<Self, String> {
        let pairs = words
            .0
            .map(|w| {
                w.split_once('=')
                    .ok_or_else(|| format!("expected key=value, got `{w}`"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Fields { pairs })
    }

    /// The value of `key`, if given.
    pub fn find(&self, key: &str) -> Option<&'a str> {
        self.pairs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    /// The value of `key`, required.
    pub fn get(&self, key: &str) -> Result<&'a str, String> {
        self.find(key).ok_or_else(|| format!("missing {key}="))
    }

    /// The value of `key`, required and parsed.
    pub fn num<T: FlagValue>(&self, key: &str) -> Result<T, String> {
        let v = self.get(key)?;
        v.parse().map_err(|_| {
            // An all-digit value fails only by overflowing `T`.
            if !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit()) {
                format!("{key}={v} is out of range")
            } else {
                format!("{key}={v} is not {}", T::EXPECTED)
            }
        })
    }

    /// The value of `key`, parsed, if given.
    pub fn opt<T: FlagValue>(&self, key: &str) -> Result<Option<T>, String> {
        self.find(key).map(|_| self.num(key)).transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Condvar;
    use std::time::Duration;

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

    /// Each job waits until every lane holds a job of its round, so each
    /// lane runs one job per round: lane results concatenated without
    /// sorting by job index would come back out of order.
    #[test]
    fn run_cells_preserves_job_order() {
        for threads in [1, 2, 4] {
            let arrived = (Mutex::new(0), Condvar::new());
            let jobs = threads * 5;
            let out = run_cells(threads, (0..jobs).collect(), |i, x: usize| {
                assert_eq!(i, x);
                let (count, all_here) = &arrived;
                let mut count = count.lock().unwrap();
                *count += 1;
                all_here.notify_all();
                let round_full = (i / threads + 1) * threads;
                let (count, wait) = all_here
                    .wait_timeout_while(count, Duration::from_secs(60), |n| *n < round_full)
                    .unwrap();
                drop(count);
                assert!(!wait.timed_out(), "job {i}: lanes never all held a job");
                x * 2
            });
            assert_eq!(out, (0..jobs).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_cells_empty_job_list() {
        for threads in [1, 4] {
            let out: Vec<u8> = run_cells(threads, Vec::<u8>::new(), |_, x| x);
            assert!(out.is_empty());
        }
    }

    #[test]
    fn run_cells_more_threads_than_jobs() {
        let calls = AtomicUsize::new(0);
        let out = run_cells(16, vec![10, 20, 30], |i, x: u32| {
            calls.fetch_add(1, Ordering::Relaxed);
            x + i as u32
        });
        assert_eq!(out, vec![10, 21, 32]);
        assert_eq!(calls.load(Ordering::Relaxed), 3, "each job runs once");
    }

    #[test]
    fn run_cells_panic_reaches_the_caller() {
        let caught = std::panic::catch_unwind(|| {
            run_cells(3, (0..8).collect(), |_, x: u32| {
                if x == 5 {
                    panic!("job {x} failed");
                }
                x
            })
        });
        let payload = caught.expect_err("a panicking job must panic the caller");
        let message = payload
            .downcast_ref::<String>()
            .expect("the job's own payload reaches the caller");
        assert_eq!(message, "job 5 failed");
    }

    #[test]
    fn lines_are_numbered_trimmed_and_comments_cut() {
        let text = "# header\n\n  send 1 8  # why\n\t\nbarrier#now\n   # indented\nlast";
        let mut seen = Vec::new();
        read_lines(text, |line| {
            seen.push(line);
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, ["send 1 8", "barrier", "last"]);
        let err = read_lines(text, |line| match line {
            "barrier" => Err("no barriers".to_string()),
            _ => Ok(()),
        })
        .unwrap_err();
        let want = LineError {
            line: 5,
            context: "barrier".into(),
            msg: "no barriers".into(),
        };
        assert_eq!(err, want);
        assert_eq!(err.to_string(), r#"line 5: no barriers in "barrier""#);
    }

    #[test]
    fn jsonl_lines_keep_their_hashes() {
        let mut seen = Vec::new();
        read_jsonl_lines("{\"a\":\"#1\"}\n\n  # not a comment \n", |line| {
            seen.push(line);
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, [r##"{"a":"#1"}"##, "# not a comment"]);
    }

    #[test]
    fn words_read_typed_positionals_in_command_file_wording() {
        let mut w = Words::new("send 3 4294967296 x");
        assert_eq!(w.word("command"), Ok("send"));
        assert_eq!(w.num::<usize>("destination"), Ok(3));
        assert_eq!(
            w.num::<u32>("byte count"),
            Err("invalid byte count `4294967296`".into())
        );
        assert_eq!(
            w.clone().finish(),
            Err("unexpected trailing token `x`".into())
        );
        assert_eq!(w.num::<u64>("delay"), Err("invalid delay `x`".into()));
        assert_eq!(w.num_or("bytes", 64u32), Ok(64));
        assert_eq!(w.num::<u64>("delay"), Err("missing delay".into()));
        assert_eq!(w.finish(), Ok(()));
        assert_eq!(Words::new("req 5").keyword("req"), Ok(()));
        assert_eq!(
            Words::new("send 5").keyword("req"),
            Err("unknown record `send` (expected `req`)".into())
        );
        assert_eq!(
            Words::new("req 0 9").num_or("t", 1u64),
            Err("invalid t `req`".into())
        );
    }

    #[test]
    fn fields_read_typed_values_and_reject_overflow() {
        let fields = |line: &'static str| Fields::parse(Words::new(line)).expect("key=value words");
        let f = fields("src=4294967296 dst=7 neg=-3 z=0.5 v= src=1");
        assert_eq!(f.num::<u64>("src"), Ok(4_294_967_296), "first value wins");
        assert_eq!(
            f.num::<u32>("src"),
            Err("src=4294967296 is out of range".into())
        );
        assert_eq!(f.num::<u32>("dst"), Ok(7));
        assert_eq!(f.num::<i64>("neg"), Ok(-3));
        assert_eq!(
            f.num::<u32>("neg"),
            Err("neg=-3 is not a non-negative integer".into())
        );
        assert_eq!(f.num::<f64>("z"), Ok(0.5));
        assert_eq!(
            f.num::<u64>("v"),
            Err("v= is not a non-negative integer".into())
        );
        assert_eq!(f.num::<i64>("z"), Err("z=0.5 is not an integer".into()));
        assert_eq!(f.get("gone"), Err("missing gone=".into()));
        assert_eq!(f.opt::<u32>("gone"), Ok(None));
        assert_eq!(f.opt::<u32>("dst"), Ok(Some(7)));
        let err = Fields::parse(Words::new("a=1 b")).unwrap_err();
        assert_eq!(err, "expected key=value, got `b`");
    }
}

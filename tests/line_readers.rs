//! Robustness of the six line-oriented readers (command files, fault
//! plans, alert rules, trace logs, request feeds, flight dumps).
//!
//! Each is fed generated text built from every format's words, `=`, `#`,
//! empty fields, numbers up to `u64::MAX` and past it, and junk, mixed
//! with well-formed lines so a reader gets past its first line. Each must
//! return `Ok` or a `LineError` whose `line` lies within the text and
//! whose `context` is that line trimmed (comment cut, outside JSONL), and
//! none may panic.

use pms::faults::FaultPlan;
use pms::trace::cli::LineError;
use pms::trace::{parse_flight_dump, AlertRules};
use pms::workloads::{parse_program, parse_trace_log, replay_trace_log};
use pms_admit::parse_requests;
use proptest::prelude::*;

/// Directives, record kinds and enum values of the six formats.
const WORDS: &str = "send delay barrier flush preload trace req retry link-down stuck-grant \
    stuck-release grant-drop nic-transient rate-link-down threshold rate anomaly retries \
    delivered setup-max-ns ge lt gt le";

/// Every key of the `key=value` formats, and an empty key.
const KEYS: &str = "start dur end period src dst port budget base max seed prob horizon ports \
    name metric op value for clear clear-for cooldown z alpha warmup _";

/// Numbers around every integer width's edge, floats, and an empty value.
const NUMBERS: &str = "0 1 3 7 64 4294967295 4294967296 4294967297 9223372036854775808 \
    18446744073709551615 18446744073709551616 99999999999999999999999999999999999999999 -1 \
    -9223372036854775809 0.5 1.5 -0.0 1e400 NaN inf +5 _";

/// One word of `list`, with `_` standing for the empty string.
fn pick(list: &'static str) -> impl Strategy<Value = &'static str> {
    let words = list
        .split_whitespace()
        .map(|w| if w == "_" { "" } else { w });
    prop::sample::select(words.collect::<Vec<_>>())
}

/// Lines every reader accepts on its own.
const GOOD_LINES: &[&str] = &[
    "send 1 64",
    "delay 100",
    "barrier",
    "trace 0 1 64",
    "trace 2 3 4294967295",
    "req 0 0 1 2",
    "req 5 1 2 3 128",
    "link-down start=0 dur=10 src=0 dst=1",
    "nic-transient start=5 end=9 port=2",
    "retry budget=3 base=200 max=5000",
    "threshold name=a metric=retries op=ge value=1",
    "anomaly name=s metric=setup-max-ns z=3",
    r#"{"kind":"flight-trigger","rule":0}"#,
    r#"{"t_ns":1,"slot":0,"kind":"slot-advanced","slot_idx":0}"#,
];

fn token() -> impl Strategy<Value = String> {
    prop_oneof![
        3 => pick(WORDS).prop_map(str::to_string),
        3 => pick(NUMBERS).prop_map(str::to_string),
        4 => (pick(KEYS), pick(NUMBERS)).prop_map(|(k, v)| format!("{k}={v}")),
        1 => (pick(KEYS), pick(WORDS)).prop_map(|(k, v)| format!("{k}={v}")),
        1 => pick("= # ## a=b=c { } \" [1,").prop_map(str::to_string),
        1 => "\\PC{0,6}",
    ]
}

fn line() -> impl Strategy<Value = String> {
    let soup = (
        prop::collection::vec(token(), 0..8),
        prop::sample::select(vec![" ", "  ", "\t", " \t "]),
        prop::sample::select(vec!["", "  ", "\t"]),
    )
        .prop_map(|(words, sep, pad)| format!("{pad}{}{pad}", words.join(sep)));
    prop_oneof![
        5 => soup,
        3 => prop::sample::select(GOOD_LINES.to_vec()).prop_map(str::to_string),
        1 => (prop::sample::select(GOOD_LINES.to_vec()), token())
            .prop_map(|(good, extra)| format!("{good} {extra}")),
    ]
}

fn text() -> impl Strategy<Value = String> {
    (
        prop::collection::vec(line(), 0..10),
        prop::sample::select(vec!["\n", "\r\n"]),
    )
        .prop_map(|(lines, eol)| lines.join(eol))
}

/// `Ok(())`, or a `LineError` naming a line of `text` and carrying that
/// line as the reader saw it.
fn check<T>(
    reader: &str,
    text: &str,
    result: Result<T, LineError>,
    jsonl: bool,
) -> Result<(), TestCaseError> {
    let Err(err) = result else {
        return Ok(());
    };
    let lines: Vec<&str> = text.lines().collect();
    prop_assert!(
        (1..=lines.len()).contains(&err.line),
        "{reader}: line {} outside a {}-line text: {err}",
        err.line,
        lines.len()
    );
    let raw = lines[err.line - 1];
    let body = if jsonl {
        raw
    } else {
        raw.split('#').next().unwrap_or("")
    };
    prop_assert_eq!(&err.context, body.trim(), "{}: {}", reader, err);
    prop_assert!(!err.msg.is_empty(), "{reader}: empty message");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_reader_returns_a_value_or_a_line_error(text in text()) {
        check("command file", &text, parse_program(&text), false)?;
        check("fault plan", &text, FaultPlan::parse(&text), false)?;
        check("alert rules", &text, AlertRules::parse(&text), false)?;
        check("trace log", &text, parse_trace_log(&text), false)?;
        check("trace log replay", &text, replay_trace_log("t", 8, &text), false)?;
        check("request feed", &text, parse_requests(&text, 8), false)?;
        check("flight dump", &text, parse_flight_dump(&text), true)?;
    }
}

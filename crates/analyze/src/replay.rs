//! Replaying JSONL trace files back into typed [`TraceRecord`]s.
//!
//! The inverse of [`pms_trace::write_record_line`], driven by the same
//! per-kind schema ([`pms_trace::KindSchema`]):
//!
//! * **Fast path.** A line in exactly the writer's form — `kind`, `t_ns`,
//!   `slot`, then the kind's fields in schema order, no whitespace, no
//!   escapes, plain decimal integers, nothing after the closing `}` — is
//!   read in one pass by a byte cursor that compares each key with the
//!   schema's literal and allocates nothing.
//! * **Fallback.** Any other shape (reordered or extra fields,
//!   whitespace, escaped keys or labels, negative or fractional numbers)
//!   is parsed into a [`Json`] tree and its fields are looked up by the
//!   schema's names, so hand-edited and foreign JSONL reads the way it
//!   always has.
//!
//! Both paths build the event with [`TraceEvent::from_fields`], which
//! checks every value against its field's width: a `u32` field above
//! `u32::MAX`, a `slot` above `u32::MAX`, or an integer above `u64::MAX`
//! is an error naming the kind and the field, never a truncated value.
//!
//! Lines with an unknown kind (e.g. the flight recorder's
//! `flight-trigger` markers, or kinds added by a newer writer) are
//! *skipped and counted*, not errors — a replay tool must be able to read
//! traces from its future. Malformed JSON or a known kind with missing or
//! out-of-range fields is an error: that trace is corrupt, and silently
//! dropping records would skew every derived metric.

use pms_trace::{EventKind, Field, Json, TraceEvent, TraceRecord};

#[cfg(test)]
mod reference;

/// The outcome of replaying a JSONL document.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Records in file order.
    pub records: Vec<TraceRecord>,
    /// Lines skipped because their `kind` was not recognized.
    pub skipped_unknown: u64,
}

/// Parses one JSONL line. Returns `Ok(None)` for unknown kinds.
pub fn parse_line(line: &str) -> Result<Option<TraceRecord>, String> {
    match parse_writer_form(line) {
        Some(rec) => rec.map(Some),
        None => parse_tree(line),
    }
}

/// Reads a line in exactly the form `write_record_line` writes. `None`
/// means the line has some other shape (or an unknown kind) and must take
/// the `Json` path.
fn parse_writer_form(line: &str) -> Option<Result<TraceRecord, String>> {
    let label = line.strip_prefix("{\"kind\":\"")?.split('"').next()?;
    let kind = EventKind::from_label(label)?;
    let schema = kind.schema();
    let mut c = Cursor { line, pos: 0 };
    c.literal(schema.head)?;
    let t_ns = c.uint()?;
    c.literal(",\"slot\":")?;
    let slot = c.uint()?;
    let mut values = [Field::U(0); EventKind::MAX_FIELDS];
    for (value, spec) in values.iter_mut().zip(schema.fields) {
        c.literal(spec.key)?;
        *value = if spec.width.is_label() {
            Field::Label(c.label()?)
        } else {
            Field::U(c.uint()?)
        };
    }
    c.literal("}")?;
    (c.pos == line.len()).then(|| record(kind, t_ns, slot, &values[..schema.fields.len()]))
}

/// A byte cursor over one line.
struct Cursor<'a> {
    line: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn literal(&mut self, lit: &str) -> Option<()> {
        self.line[self.pos..]
            .starts_with(lit)
            .then(|| self.pos += lit.len())
    }

    /// A run of decimal digits; `None` if empty or above `u64::MAX`.
    fn uint(&mut self) -> Option<u64> {
        let bytes = self.line.as_bytes();
        let start = self.pos;
        let mut x = 0u64;
        while let Some(&b @ b'0'..=b'9') = bytes.get(self.pos) {
            x = x.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
            self.pos += 1;
        }
        (self.pos > start).then_some(x)
    }

    /// A quoted string without escapes.
    fn label(&mut self) -> Option<&'a str> {
        self.literal("\"")?;
        let rest = &self.line[self.pos..];
        let len = rest.find(['"', '\\'])?;
        if rest.as_bytes()[len] != b'"' {
            return None;
        }
        self.pos += len + 1;
        Some(&rest[..len])
    }
}

/// Parses any JSON object line, looking each field up by its schema name.
fn parse_tree(line: &str) -> Result<Option<TraceRecord>, String> {
    let v = Json::parse(line).map_err(|e| e.to_string())?;
    let label = v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("missing `kind` field")?;
    let Some(kind) = EventKind::from_label(label) else {
        return Ok(None);
    };
    let int = |name: &str| match v.get(name) {
        // `Json` parses an integer above `u64::MAX` as a float.
        Some(Json::Float(x)) if *x >= 18_446_744_073_709_551_616.0 => {
            Err(format!("`{label}` field `{name}` is out of range for u64"))
        }
        value => value
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("`{label}` record missing integer field `{name}`")),
    };
    let fields = kind.schema().fields;
    let mut values = [Field::U(0); EventKind::MAX_FIELDS];
    for (value, spec) in values.iter_mut().zip(fields) {
        *value = if spec.width.is_label() {
            Field::Label(
                v.get(spec.name)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("`{label}` record missing `{}`", spec.name))?,
            )
        } else {
            Field::U(int(spec.name)?)
        };
    }
    record(kind, int("t_ns")?, int("slot")?, &values[..fields.len()]).map(Some)
}

/// Builds a checked record from its header values and payload fields.
fn record(
    kind: EventKind,
    t_ns: u64,
    slot: u64,
    fields: &[Field<'_>],
) -> Result<TraceRecord, String> {
    let event = TraceEvent::from_fields(kind, fields)?;
    let slot = u32::try_from(slot).map_err(|_| {
        format!(
            "`{}` field `slot` = {slot} is out of range for u32",
            kind.label()
        )
    })?;
    Ok(TraceRecord { t_ns, slot, event })
}

/// Replays a whole JSONL document (one record per non-empty line).
/// Errors carry the 1-based line number.
pub fn parse_jsonl(text: &str) -> Result<Replay, String> {
    let mut out = Replay::default();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(line).map_err(|e| format!("line {}: {e}", i + 1))? {
            Some(rec) => out.records.push(rec),
            None => out.skipped_unknown += 1,
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pms_trace::{
        record_json, write_record_line, EvictCause, FaultClass, MetricsWindow, RejectCause,
        SpanPhase, Width,
    };
    use proptest::prelude::*;

    fn sample_records() -> Vec<TraceRecord> {
        let mk = |t_ns, slot, event| TraceRecord { t_ns, slot, event };
        vec![
            mk(
                0,
                0,
                TraceEvent::MsgInjected {
                    src: 3,
                    dst: 7,
                    bytes: 512,
                    msg: 0,
                },
            ),
            mk(80, 0, TraceEvent::ConnRequested { src: 3, dst: 7 }),
            mk(
                160,
                1,
                TraceEvent::SchedPass {
                    passes: 2,
                    ripple_depth: 5,
                    established: 1,
                    released: 0,
                    denied: 2,
                },
            ),
            mk(
                160,
                1,
                TraceEvent::ConnEstablished {
                    src: 3,
                    dst: 7,
                    slot_idx: 1,
                },
            ),
            mk(200, 1, TraceEvent::SlotAdvanced { slot_idx: 1 }),
            mk(
                u64::MAX,
                2,
                TraceEvent::MsgDelivered {
                    src: 3,
                    dst: 7,
                    bytes: 512,
                    msg: 0,
                    latency_ns: u64::MAX - 1,
                },
            ),
            mk(
                300,
                2,
                TraceEvent::PreloadApplied {
                    slot_idx: 2,
                    connections: 16,
                },
            ),
            mk(
                400,
                0,
                TraceEvent::ConnEvicted {
                    src: 3,
                    dst: 7,
                    cause: EvictCause::RefCount,
                },
            ),
            mk(500, 0, TraceEvent::PhaseFlush { cleared: 9 }),
            mk(
                600,
                1,
                TraceEvent::FaultInjected {
                    fault: 2,
                    class: pms_trace::FaultClass::LinkDown,
                    src: 3,
                    dst: 7,
                },
            ),
            mk(
                650,
                1,
                TraceEvent::MsgRetried {
                    src: 3,
                    dst: 7,
                    msg: 0,
                    attempt: 1,
                },
            ),
            mk(
                700,
                2,
                TraceEvent::MsgAbandoned {
                    src: 3,
                    dst: 7,
                    msg: 0,
                    retries: 4,
                },
            ),
            mk(
                800,
                2,
                TraceEvent::FaultCleared {
                    fault: 2,
                    class: pms_trace::FaultClass::LinkDown,
                    src: 3,
                    dst: 7,
                },
            ),
            mk(
                900,
                0,
                TraceEvent::SpanStart {
                    span: 1,
                    parent: u32::MAX,
                    phase: pms_trace::SpanPhase::Msg,
                    msg: 0,
                    src: 3,
                    dst: 7,
                },
            ),
            mk(
                950,
                0,
                TraceEvent::SpanEnd {
                    span: 1,
                    phase: pms_trace::SpanPhase::Msg,
                    msg: 0,
                },
            ),
            mk(
                960,
                0,
                TraceEvent::RequestEnqueued {
                    req: 9,
                    tenant: 2,
                    src: 3,
                    dst: 7,
                },
            ),
            mk(
                970,
                0,
                TraceEvent::RequestGranted {
                    req: 9,
                    tenant: 2,
                    src: 3,
                    dst: 7,
                    wait_ns: 10,
                },
            ),
            mk(
                980,
                0,
                TraceEvent::RequestRejected {
                    req: 10,
                    tenant: 2,
                    src: 3,
                    dst: 7,
                    cause: pms_trace::RejectCause::Shed,
                },
            ),
            mk(
                990,
                0,
                TraceEvent::BatchAdmitted {
                    batch: 4,
                    capacity: 8,
                    selected: 5,
                    granted: 4,
                    denied: 1,
                    pending: 3,
                },
            ),
            mk(
                1000,
                1,
                TraceEvent::MetricsSnapshot(Box::new(MetricsWindow {
                    seq: 3,
                    delivered: 2,
                    bytes: 1024,
                    established: 1,
                    evicted: 1,
                    denied: 2,
                    retries: 1,
                    abandoned: 1,
                    faults_injected: 1,
                    faults_cleared: 1,
                    setups: 1,
                    setup_total_ns: 80,
                    setup_max_ns: 80,
                    passes: 2,
                    enqueued: 1,
                    granted: 1,
                    rejected: 1,
                    batches: 1,
                })),
            ),
            mk(
                1000,
                1,
                TraceEvent::AlertRaised {
                    rule: 1,
                    seq: 3,
                    value: u64::MAX,
                    threshold: u64::MAX - 2,
                },
            ),
            mk(1100, 1, TraceEvent::AlertCleared { rule: 1, seq: 4 }),
        ]
    }

    #[test]
    fn every_kind_roundtrips_through_jsonl() {
        let records = sample_records();
        let mut text = String::new();
        for r in &records {
            write_record_line(&mut text, r);
            text.push('\n');
        }
        let replay = parse_jsonl(&text).unwrap();
        assert_eq!(replay.records, records);
        assert_eq!(replay.skipped_unknown, 0);
    }

    /// The line writer renders exactly the `record_json` tree: every
    /// kind, and every cause, class and phase label.
    #[test]
    fn line_writer_matches_record_json() {
        let mk = |event| TraceRecord {
            t_ns: 7,
            slot: 1,
            event,
        };
        let mut records = sample_records();
        for cause in EvictCause::ALL {
            records.push(mk(TraceEvent::ConnEvicted {
                src: 1,
                dst: 2,
                cause,
            }));
        }
        for class in FaultClass::ALL {
            for event in [
                TraceEvent::FaultInjected {
                    fault: 3,
                    class,
                    src: 1,
                    dst: 2,
                },
                TraceEvent::FaultCleared {
                    fault: 3,
                    class,
                    src: 1,
                    dst: 2,
                },
            ] {
                records.push(mk(event));
            }
        }
        for cause in RejectCause::ALL {
            records.push(mk(TraceEvent::RequestRejected {
                req: 4,
                tenant: 0,
                src: 1,
                dst: 2,
                cause,
            }));
        }
        for phase in pms_trace::SpanPhase::ALL {
            records.push(mk(TraceEvent::SpanStart {
                span: 5,
                parent: u32::MAX,
                phase,
                msg: 6,
                src: 1,
                dst: 2,
            }));
            records.push(mk(TraceEvent::SpanEnd {
                span: 5,
                phase,
                msg: 6,
            }));
        }
        let mut line = String::new();
        for rec in &records {
            line.clear();
            write_record_line(&mut line, rec);
            assert_eq!(line, record_json(rec).render());
        }
    }

    #[test]
    fn unknown_kinds_are_skipped_not_fatal() {
        let text = "{\"kind\":\"flight-trigger\",\"t_ns\":1,\"slot\":0}\n\
                    {\"kind\":\"slot-advanced\",\"t_ns\":5,\"slot\":2,\"slot_idx\":2}\n";
        let replay = parse_jsonl(text).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.skipped_unknown, 1);
    }

    #[test]
    fn corrupt_lines_are_errors_with_line_numbers() {
        let good = "{\"kind\":\"slot-advanced\",\"t_ns\":5,\"slot\":2,\"slot_idx\":2}";
        let err = parse_jsonl(&format!("{good}\n{{truncated")).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        // A known kind missing a required field is also corrupt.
        let err = parse_jsonl("{\"kind\":\"conn-requested\",\"t_ns\":1,\"slot\":0}").unwrap_err();
        assert!(err.contains("missing integer field `src`"), "{err}");
        // An unknown eviction cause is corrupt (causes are a closed set).
        let bad =
            "{\"kind\":\"conn-evicted\",\"t_ns\":1,\"slot\":0,\"src\":0,\"dst\":1,\"cause\":\"x\"}";
        assert!(parse_jsonl(bad).unwrap_err().contains("eviction cause"));
        // An unknown fault class is corrupt too (classes are a closed set).
        let bad = "{\"kind\":\"fault-injected\",\"t_ns\":1,\"slot\":0,\
                   \"fault\":0,\"class\":\"gremlin\",\"src\":0,\"dst\":1}";
        assert!(parse_jsonl(bad).unwrap_err().contains("fault class"));
        // An unknown reject cause is corrupt (causes are a closed set).
        let bad = "{\"kind\":\"request-rejected\",\"t_ns\":1,\"slot\":0,\
                   \"req\":0,\"tenant\":0,\"src\":0,\"dst\":1,\"cause\":\"vibes\"}";
        assert!(parse_jsonl(bad).unwrap_err().contains("reject cause"));
        // An unknown span phase is corrupt as well.
        let bad = "{\"kind\":\"span-end\",\"t_ns\":1,\"slot\":0,\
                   \"span\":1,\"phase\":\"warp\",\"msg\":0}";
        assert!(parse_jsonl(bad).unwrap_err().contains("span phase"));
        // A value too large for its field is corrupt, not truncated: in
        // the writer's field order (the fast path) and reordered (the
        // `Json` fallback) alike.
        let overflows = [
            (
                "{\"kind\":\"msg-injected\",\"t_ns\":1,\"slot\":0,\
                 \"src\":4294967299,\"dst\":1,\"bytes\":8,\"msg\":0}",
                "{\"dst\":1,\"src\":4294967299,\"kind\":\"msg-injected\",\
                 \"msg\":0,\"bytes\":8,\"slot\":0,\"t_ns\":1}",
                "`msg-injected` field `src` = 4294967299 is out of range for u32",
            ),
            (
                "{\"kind\":\"slot-advanced\",\"t_ns\":5,\"slot\":4294967296,\"slot_idx\":2}",
                "{\"slot_idx\":2,\"slot\":4294967296,\"t_ns\":5,\"kind\":\"slot-advanced\"}",
                "`slot-advanced` field `slot` = 4294967296 is out of range for u32",
            ),
            (
                "{\"kind\":\"msg-delivered\",\"t_ns\":9,\"slot\":0,\"src\":0,\"dst\":1,\
                 \"bytes\":8,\"msg\":0,\"latency_ns\":18446744073709551616}",
                "{\"latency_ns\":18446744073709551616,\"msg\":0,\"bytes\":8,\"dst\":1,\
                 \"src\":0,\"slot\":0,\"t_ns\":9,\"kind\":\"msg-delivered\"}",
                "`msg-delivered` field `latency_ns` is out of range for u64",
            ),
        ];
        for (writer_form, reordered, why) in overflows {
            for bad in [writer_form, reordered] {
                let err = parse_jsonl(&format!("{good}\n{bad}\n")).unwrap_err();
                assert_eq!(err, format!("line 2: {why}"));
            }
        }
    }

    /// Every label a `width` field can hold (none for integers).
    fn labels(width: Width) -> Vec<&'static str> {
        match width {
            Width::U32 | Width::U64 => vec![],
            Width::Evict => EvictCause::ALL.map(EvictCause::label).to_vec(),
            Width::Fault => FaultClass::ALL.map(FaultClass::label).to_vec(),
            Width::Phase => SpanPhase::ALL.map(SpanPhase::label).to_vec(),
            Width::Reject => RejectCause::ALL.map(RejectCause::label).to_vec(),
        }
    }

    /// A `kind` record built from `raw` values: integers cut to their
    /// field's width, labels picked by index, `t_ns` and `slot` last.
    fn record_from(kind: EventKind, raw: &[u64]) -> TraceRecord {
        let fields: Vec<Field> = kind
            .schema()
            .fields
            .iter()
            .zip(raw)
            .map(|(spec, &x)| match spec.width {
                Width::U32 => Field::U(x & u64::from(u32::MAX)),
                Width::U64 => Field::U(x),
                width => {
                    let labels = labels(width);
                    Field::Label(labels[x as usize % labels.len()])
                }
            })
            .collect();
        TraceRecord {
            t_ns: raw[raw.len() - 2],
            slot: raw[raw.len() - 1] as u32,
            event: TraceEvent::from_fields(kind, &fields).unwrap(),
        }
    }

    /// Renders `pairs` as a JSON object with `ws` around every token,
    /// optionally `\u`-escaping the first character of each key and label.
    fn render(pairs: &[(String, Json)], ws: &str, escape: bool) -> String {
        let esc = |s: &str| {
            if escape {
                format!("\\u{:04x}{}", s.as_bytes()[0], &s[1..])
            } else {
                s.to_string()
            }
        };
        let body: Vec<String> = pairs
            .iter()
            .map(|(k, v)| {
                let v = match v {
                    Json::Str(s) => format!("\"{}\"", esc(s)),
                    v => v.render(),
                };
                format!("{ws}\"{}\"{ws}:{ws}{v}{ws}", esc(k))
            })
            .collect();
        format!("{ws}{{{}}}{ws}", body.join(","))
    }

    /// `line` with the integer after `"name":` replaced by `value`.
    fn with_value(line: &str, name: &str, value: &str) -> String {
        let key = format!("\"{name}\":");
        let at = line.find(&key).unwrap() + key.len();
        let len = line[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
        format!("{}{value}{}", &line[..at], &line[at + len..])
    }

    /// Seeded Fisher-Yates shuffle (xorshift), for field orders.
    fn shuffle<T>(items: &mut [T], mut seed: u64) {
        for i in (1..items.len()).rev() {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            items.swap(i, (seed % (i as u64 + 1)) as usize);
        }
    }

    fn raw_value() -> impl Strategy<Value = u64> {
        prop_oneof![
            Just(0),
            Just(u64::from(u32::MAX)),
            Just(u64::MAX),
            0u64..1_000,
            0u64..u64::MAX,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The schema reader against the pre-schema reference on every
        /// kind and label, in the writer's form and in forms that take
        /// the fallback: shuffled fields, whitespace, `\u` escapes, an
        /// unknown extra field, and trailing bytes. Out-of-range values
        /// are errors naming the field on both paths.
        #[test]
        fn schema_reader_matches_reference(
            kind in 0..TraceEvent::KIND_COUNT,
            raw in prop::collection::vec(raw_value(), EventKind::MAX_FIELDS + 2),
            seed in 1u64..u64::MAX,
            junk in prop::sample::select(vec!["}", ",", "x", "{}", " ", "\t"]),
        ) {
            let kind = EventKind::ALL[kind];
            let rec = record_from(kind, &raw);
            let mut line = String::new();
            write_record_line(&mut line, &rec);
            let tree = record_json(&rec);
            prop_assert_eq!(&line, &tree.render());
            prop_assert_eq!(parse_line(&line), Ok(Some(rec.clone())));

            let Json::Object(pairs) = tree else { unreachable!() };
            let mut shuffled = pairs.clone();
            shuffle(&mut shuffled, seed);
            let mut extra = pairs.clone();
            let at = (seed % (pairs.len() as u64 + 1)) as usize;
            extra.insert(at, ("zz_extra".to_string(), Json::str("ignored")));
            let ws = [" ", "\t", " \t "][(seed % 3) as usize];
            let variants = [
                line.clone(),
                render(&shuffled, "", false),
                render(&pairs, ws, false),
                render(&shuffled, ws, true),
                render(&extra, "", false),
                format!("{line}{junk}"),
            ];
            for (i, v) in variants.iter().enumerate() {
                let new = parse_line(v);
                prop_assert_eq!(new.clone().ok(), reference::parse_line(v).ok(), "{}", v);
                if i == variants.len() - 1 && !junk.trim().is_empty() {
                    prop_assert!(new.is_err(), "trailing bytes accepted: {}", v);
                } else {
                    prop_assert_eq!(new, Ok(Some(rec.clone())), "{}", v);
                }
            }

            // One value past its width, in the writer's order and shuffled.
            let specs = kind.schema().fields;
            let spec = &specs[(seed % specs.len() as u64) as usize];
            let (name, big, ty) = match spec.width {
                Width::U32 => (spec.name, (u64::from(u32::MAX) + 1 + seed % 1_000).to_string(), "u32"),
                Width::U64 => (spec.name, "18446744073709551616".to_string(), "u64"),
                _ => ("slot", "4294967296".to_string(), "u32"),
            };
            for v in [&line, &render(&shuffled, "", false)] {
                let bad = with_value(v, name, &big);
                let err = parse_line(&bad).err().unwrap_or_default();
                prop_assert!(
                    err.starts_with(&format!("`{}` field `{name}`", kind.label()))
                        && err.ends_with(&format!("out of range for {ty}")),
                    "{} -> {}", bad, err
                );
            }
        }
    }

    #[test]
    fn blank_lines_are_ignored() {
        let replay = parse_jsonl("\n\n").unwrap();
        assert!(replay.records.is_empty());
    }
}

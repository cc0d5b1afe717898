//! The event taxonomy: everything the simulators can say about a run.

/// Why a cached connection was evicted from the working set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvictCause {
    /// A [`TimeoutPredictor`](../pms_predict) decided the connection was
    /// idle too long (§3.2).
    Timeout,
    /// A reference-count predictor's counter crossed its threshold
    /// (§3.2).
    RefCount,
    /// The §3.3 phase detector (or an explicit engine flush) dropped the
    /// whole dynamic working set at a phase boundary.
    PhaseFlush,
    /// The connection is torn down as soon as its message completes
    /// (non-predictive paradigms: circuit switching, `PredictorKind::Drop`).
    Drop,
    /// An injected hardware fault (dead link or stuck SL cell) forcibly
    /// tore the connection down, or a stuck-release cell held it past its
    /// natural release and the fault clearing finally freed it.
    Fault,
}

impl EvictCause {
    /// Stable lower-case label for export.
    pub fn label(self) -> &'static str {
        match self {
            EvictCause::Timeout => "timeout",
            EvictCause::RefCount => "refcount",
            EvictCause::PhaseFlush => "phase-flush",
            EvictCause::Drop => "drop",
            EvictCause::Fault => "fault",
        }
    }

    /// Inverse of [`label`](Self::label), for trace replay.
    pub fn from_label(label: &str) -> Option<EvictCause> {
        match label {
            "timeout" => Some(EvictCause::Timeout),
            "refcount" => Some(EvictCause::RefCount),
            "phase-flush" => Some(EvictCause::PhaseFlush),
            "drop" => Some(EvictCause::Drop),
            "fault" => Some(EvictCause::Fault),
            _ => None,
        }
    }

    /// All causes, in label order (report tables iterate this).
    pub const ALL: [EvictCause; 5] = [
        EvictCause::Drop,
        EvictCause::Fault,
        EvictCause::PhaseFlush,
        EvictCause::RefCount,
        EvictCause::Timeout,
    ];
}

/// The lifecycle phase a `SpanStart`/`SpanEnd` pair describes.
///
/// Message spans form a fixed two-level tree: one [`Msg`](SpanPhase::Msg)
/// root per message whose children [`Arrival`](SpanPhase::Arrival) →
/// [`Admit`](SpanPhase::Admit) → [`Align`](SpanPhase::Align) →
/// [`Transfer`](SpanPhase::Transfer) tile the root exactly (zero-length
/// phases are emitted rather than skipped, so per-phase latencies always
/// sum to the end-to-end latency). [`Route`](SpanPhase::Route) is a
/// zero-length child of `Admit` marking a multistage route admission, and
/// [`Conn`](SpanPhase::Conn) spans are parentless connection lifetimes
/// (establish → evict) covering teardown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanPhase {
    /// Root span: injection to delivery (or abandonment).
    Msg,
    /// Injection until the request is visible to the arbiter.
    Arrival,
    /// Request visibility until the connection is established
    /// (zero-length on a working-set hit).
    Admit,
    /// Establishment until the first payload moves (TDM slot alignment,
    /// circuit grant propagation).
    Align,
    /// First payload until the last byte is delivered.
    Transfer,
    /// Multistage route admission (zero-length, child of `Admit`).
    Route,
    /// Connection lifetime: establish to evict (teardown accounting).
    Conn,
}

impl SpanPhase {
    /// Stable lower-case label for export.
    pub fn label(self) -> &'static str {
        match self {
            SpanPhase::Msg => "msg",
            SpanPhase::Arrival => "arrival",
            SpanPhase::Admit => "admit",
            SpanPhase::Align => "align",
            SpanPhase::Transfer => "transfer",
            SpanPhase::Route => "route",
            SpanPhase::Conn => "conn",
        }
    }

    /// Inverse of [`label`](Self::label), for trace replay.
    pub fn from_label(label: &str) -> Option<SpanPhase> {
        match label {
            "msg" => Some(SpanPhase::Msg),
            "arrival" => Some(SpanPhase::Arrival),
            "admit" => Some(SpanPhase::Admit),
            "align" => Some(SpanPhase::Align),
            "transfer" => Some(SpanPhase::Transfer),
            "route" => Some(SpanPhase::Route),
            "conn" => Some(SpanPhase::Conn),
            _ => None,
        }
    }

    /// All phases, in lifecycle order (report tables iterate this).
    pub const ALL: [SpanPhase; 7] = [
        SpanPhase::Msg,
        SpanPhase::Arrival,
        SpanPhase::Admit,
        SpanPhase::Align,
        SpanPhase::Transfer,
        SpanPhase::Route,
        SpanPhase::Conn,
    ];
}

/// The kind of injected hardware fault a `FaultInjected`/`FaultCleared`
/// event describes. Mirrors `pms-faults`'s fault taxonomy without a
/// dependency on that crate (trace stays dependency-free).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// A link or cross-point is dead: no grant, no data, for `src -> dst`.
    LinkDown,
    /// The SL cell for `src -> dst` is stuck at "never grant": the
    /// cross-point cannot close, which also breaks an established path.
    StuckGrant,
    /// The SL cell is stuck at "never release": the connection cannot be
    /// torn down while the fault is active, wasting slot capacity.
    StuckRelease,
    /// The grant line for `src -> dst` drops grants: the switch commits
    /// the connection but the NIC never learns, forcing a retry with
    /// exponential backoff.
    GrantDrop,
    /// The source NIC's serializer produces corrupted frames: message
    /// completions from `src` fail and are retried against a per-message
    /// retry budget (`src == dst` == the faulted port).
    NicTransient,
}

impl FaultClass {
    /// Stable lower-case label for export.
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::LinkDown => "link-down",
            FaultClass::StuckGrant => "stuck-grant",
            FaultClass::StuckRelease => "stuck-release",
            FaultClass::GrantDrop => "grant-drop",
            FaultClass::NicTransient => "nic-transient",
        }
    }

    /// Inverse of [`label`](Self::label), for trace replay.
    pub fn from_label(label: &str) -> Option<FaultClass> {
        match label {
            "link-down" => Some(FaultClass::LinkDown),
            "stuck-grant" => Some(FaultClass::StuckGrant),
            "stuck-release" => Some(FaultClass::StuckRelease),
            "grant-drop" => Some(FaultClass::GrantDrop),
            "nic-transient" => Some(FaultClass::NicTransient),
            _ => None,
        }
    }

    /// All classes, in label order (report tables iterate this).
    pub const ALL: [FaultClass; 5] = [
        FaultClass::GrantDrop,
        FaultClass::LinkDown,
        FaultClass::NicTransient,
        FaultClass::StuckGrant,
        FaultClass::StuckRelease,
    ];
}

/// Why the admission service refused a connection request (see
/// `pms-admit`). Mirrors that crate's backpressure taxonomy without a
/// dependency on it (trace stays dependency-free).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RejectCause {
    /// The tenant's token bucket was empty when the request arrived.
    RateLimit,
    /// The bounded ingress queue was full and the service runs the
    /// reject-new backpressure policy: the *arriving* request bounced.
    QueueFull,
    /// The bounded ingress queue was full and the service runs the
    /// shed-oldest backpressure policy: the *oldest queued* request was
    /// dropped to make room for the arrival.
    Shed,
    /// The request sat in the queue past its retry budget (denied by the
    /// scheduler too many batch epochs in a row) and was given up on.
    Expired,
}

impl RejectCause {
    /// Stable lower-case label for export.
    pub fn label(self) -> &'static str {
        match self {
            RejectCause::RateLimit => "rate-limit",
            RejectCause::QueueFull => "queue-full",
            RejectCause::Shed => "shed",
            RejectCause::Expired => "expired",
        }
    }

    /// Inverse of [`label`](Self::label), for trace replay.
    pub fn from_label(label: &str) -> Option<RejectCause> {
        match label {
            "rate-limit" => Some(RejectCause::RateLimit),
            "queue-full" => Some(RejectCause::QueueFull),
            "shed" => Some(RejectCause::Shed),
            "expired" => Some(RejectCause::Expired),
            _ => None,
        }
    }

    /// All causes, in label order (report tables iterate this).
    pub const ALL: [RejectCause; 4] = [
        RejectCause::Expired,
        RejectCause::QueueFull,
        RejectCause::RateLimit,
        RejectCause::Shed,
    ];
}

/// How replay reads one payload field back, and the range it checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Width {
    /// An unsigned integer that must fit in `u32`.
    U32,
    /// An unsigned integer that must fit in `u64`.
    U64,
    /// An [`EvictCause`] label.
    Evict,
    /// A [`FaultClass`] label.
    Fault,
    /// A [`SpanPhase`] label.
    Phase,
    /// A [`RejectCause`] label.
    Reject,
}

impl Width {
    /// Whether the field exports as a quoted label rather than an integer.
    pub fn is_label(self) -> bool {
        !matches!(self, Width::U32 | Width::U64)
    }
}

/// One payload field of a [`KindSchema`] row.
#[derive(Debug)]
pub struct FieldSpec {
    /// Export name.
    pub name: &'static str,
    /// The JSONL key literal `,"name":` written before the value.
    pub key: &'static str,
    /// What the value is, and the range replay checks it against.
    pub width: Width,
}

/// One event kind's row of the trace schema: its label and its payload
/// fields in export order. The JSONL writer, the JSONL reader and the
/// Chrome exporter all render from these rows.
#[derive(Debug)]
pub struct KindSchema {
    /// Stable kebab-case kind label (what [`TraceEvent::kind`] returns).
    pub label: &'static str,
    /// The JSONL line head `{"kind":"label","t_ns":`.
    pub head: &'static str,
    /// Payload fields in export order.
    pub fields: &'static [FieldSpec],
    /// Whether the payload sits behind a `Box` in [`TraceEvent`]. Only a
    /// kind whose fields exceed the 24 B every other kind fits in is
    /// boxed, so that one wide kind does not widen every record.
    pub boxed: bool,
}

// Every record of a trace is this wide: a 24 B inline payload plus the
// kind tag, then the stamp. A new kind wider than 24 B must be boxed
// (`tests::inline_kinds_fit_in_24_bytes` names it).
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<TraceEvent>() == 32);
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<TraceRecord>() == 48);

/// One payload field value, matched to its [`FieldSpec`] by position.
/// Every event payload is an unsigned integer or a closed-set label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Field<'a> {
    /// An unsigned integer (every `u32`/`u64` payload field).
    U(u64),
    /// A cause, class or phase label (`EvictCause::label` and friends).
    Label(&'a str),
}

/// A payload field type: its schema width, its export form, and its
/// checked inverse.
trait Payload: Sized {
    const WIDTH: Width;
    fn to_field(self) -> Field<'static>;
    /// `None` when the value has the wrong shape or does not fit.
    fn from_field(field: Field<'_>) -> Option<Self>;
}

impl Payload for u32 {
    const WIDTH: Width = Width::U32;
    fn to_field(self) -> Field<'static> {
        Field::U(self.into())
    }
    fn from_field(field: Field<'_>) -> Option<u32> {
        match field {
            Field::U(x) => u32::try_from(x).ok(),
            Field::Label(_) => None,
        }
    }
}

impl Payload for u64 {
    const WIDTH: Width = Width::U64;
    fn to_field(self) -> Field<'static> {
        Field::U(self)
    }
    fn from_field(field: Field<'_>) -> Option<u64> {
        match field {
            Field::U(x) => Some(x),
            Field::Label(_) => None,
        }
    }
}

macro_rules! label_payload {
    ($($ty:ident => $width:ident),*) => {$(
        impl Payload for $ty {
            const WIDTH: Width = Width::$width;
            fn to_field(self) -> Field<'static> {
                Field::Label(self.label())
            }
            fn from_field(field: Field<'_>) -> Option<$ty> {
                match field {
                    Field::Label(s) => $ty::from_label(s),
                    Field::U(_) => None,
                }
            }
        }
    )*};
}

label_payload!(EvictCause => Evict, FaultClass => Fault, SpanPhase => Phase, RejectCause => Reject);

/// Why `field` cannot be the `spec` field of a `kind` record.
fn field_error(kind: &str, spec: &FieldSpec, field: Field<'_>) -> String {
    let name = spec.name;
    let what = match spec.width {
        Width::U32 | Width::U64 => {
            return match field {
                Field::U(x) => format!("`{kind}` field `{name}` = {x} is out of range for u32"),
                Field::Label(_) => format!("`{kind}` record missing integer field `{name}`"),
            }
        }
        Width::Evict => "eviction cause",
        Width::Fault => "fault class",
        Width::Phase => "span phase",
        Width::Reject => "reject cause",
    };
    match field {
        Field::U(_) => format!("`{kind}` record missing `{name}`"),
        Field::Label(label) => format!("unknown {what} `{label}`"),
    }
}

/// Checks and converts `fields[*i]`, the `schema.fields[*i]` value, and
/// steps `i` to the next field.
fn take<T: Payload>(schema: &KindSchema, fields: &[Field<'_>], i: &mut usize) -> Result<T, String> {
    let (field, spec) = (fields[*i], &schema.fields[*i]);
    *i += 1;
    T::from_field(field).ok_or_else(|| field_error(schema.label, spec, field))
}

/// Declares [`TraceEvent`] together with its schema: the [`EventKind`]
/// ids, the [`KindSchema`] table, and the two per-kind matches every
/// exporter and the replay reader go through,
/// [`TraceEvent::with_fields`] and its inverse [`TraceEvent::from_fields`].
/// Each variant is written `Name = "kind-label" { field: type, .. }`; the
/// field order is the export order.
///
/// A kind whose payload is wider than 24 B is written
/// `Name(Box<Payload>) = "kind-label" { field: type, .. }` instead: the
/// macro generates `pub struct Payload` from the field list and the
/// variant holds it boxed, so one rare wide kind does not widen every
/// record. Its schema row, export order and JSONL form are those of an
/// inline kind.
macro_rules! trace_schema {
    (
        $(#[$meta:meta])*
        pub enum TraceEvent {
            $(
                $(#[$vmeta:meta])*
                $kind:ident $((Box<$boxed:ident>))? = $label:literal {
                    $( $(#[$fmeta:meta])* $field:ident : $ty:ty, )*
                },
            )*
        }
    ) => {
        trace_schema!(@enum [$(#[$meta])*] [] $(
            [$(#[$vmeta])*] $kind [$($boxed)?] [$( $(#[$fmeta])* $field: $ty, )*]
        )*);

        $( trace_schema!(@payload $kind [$($boxed)?] [$( $(#[$fmeta])* $field: $ty, )*]); )*

        /// The kind of a [`TraceEvent`]: an index into the trace schema.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum EventKind {
            $( #[doc = concat!("`", $label, "`")] $kind, )*
        }

        static SCHEMA: [KindSchema; TraceEvent::KIND_COUNT] = [$(
            KindSchema {
                label: $label,
                head: concat!("{\"kind\":\"", $label, "\",\"t_ns\":"),
                fields: &[$(
                    FieldSpec {
                        name: stringify!($field),
                        key: concat!(",\"", stringify!($field), "\":"),
                        width: <$ty as Payload>::WIDTH,
                    },
                )*],
                boxed: trace_schema!(@boxed [$($boxed)?]),
            },
        )*];

        impl EventKind {
            /// Every kind, in schema order.
            pub const ALL: [EventKind; TraceEvent::KIND_COUNT] = [$(EventKind::$kind),*];

            /// The most payload fields any kind has.
            pub const MAX_FIELDS: usize = {
                let counts = [$([$(stringify!($field)),*].len()),*];
                let (mut max, mut i) = (0, 0);
                while i < counts.len() {
                    if counts[i] > max {
                        max = counts[i];
                    }
                    i += 1;
                }
                max
            };
        }

        impl TraceEvent {
            /// Number of distinct event kinds (exporter sanity checks).
            pub const KIND_COUNT: usize = [$($label),*].len();

            /// This event's kind.
            fn event_kind(&self) -> EventKind {
                match self {
                    $( TraceEvent::$kind { .. } => EventKind::$kind, )*
                }
            }

            /// Calls `f` with this event's kind and its payload values in
            /// export order (the order of `kind.schema().fields`). This is
            /// the one field list behind every exporter.
            pub fn with_fields<R>(&self, f: impl FnOnce(EventKind, &[Field<'static>]) -> R) -> R {
                match self {
                    $( trace_schema!(@pattern $kind [$($boxed)?] payload [$($field),*]) => {
                        trace_schema!(@unpack [$($boxed)?] payload [$($field),*]);
                        f(EventKind::$kind, &[$(Payload::to_field(*$field)),*])
                    } )*
                }
            }

            /// The inverse of [`with_fields`](Self::with_fields): builds a
            /// `kind` event from its payload values in export order. Each
            /// value is checked against its field's [`Width`]: a `u32`
            /// field above `u32::MAX`, an unknown label, or a value of the
            /// wrong shape is an error naming the kind and the field.
            pub fn from_fields(kind: EventKind, fields: &[Field<'_>]) -> Result<TraceEvent, String> {
                let schema = kind.schema();
                if fields.len() != schema.fields.len() {
                    return Err(format!(
                        "`{}` record has {} payload fields, expected {}",
                        schema.label,
                        fields.len(),
                        schema.fields.len()
                    ));
                }
                let mut i = 0;
                Ok(match kind {
                    $( EventKind::$kind => trace_schema!(@build $kind [$($boxed)?] {
                        $( $field: take(schema, fields, &mut i)?, )*
                    }), )*
                })
            }
        }
    };

    // The enum itself, one variant at a time (a variant cannot be a macro
    // call): an inline kind is a struct variant, a boxed kind a one-field
    // tuple variant.
    (@enum [$($meta:tt)*] [$($done:tt)*]) => {
        $($meta)*
        pub enum TraceEvent { $($done)* }
    };
    (@enum $meta:tt [$($done:tt)*]
        [$($vmeta:tt)*] $kind:ident [$boxed:ident] $fields:tt $($rest:tt)*) => {
        trace_schema!(@enum $meta [$($done)* $($vmeta)* $kind(Box<$boxed>),] $($rest)*);
    };
    (@enum $meta:tt [$($done:tt)*]
        [$($vmeta:tt)*] $kind:ident [] [$($fields:tt)*] $($rest:tt)*) => {
        trace_schema!(@enum $meta [$($done)* $($vmeta)* $kind { $($fields)* },] $($rest)*);
    };

    (@payload $kind:ident [] $fields:tt) => {};
    (@payload $kind:ident [$boxed:ident] [$( $(#[$fmeta:meta])* $field:ident: $ty:ty, )*]) => {
        #[doc = concat!("The payload of a [`TraceEvent::", stringify!($kind), "`], kept behind a `Box`.")]
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct $boxed {
            $( $(#[$fmeta])* pub $field: $ty, )*
        }
    };

    // `with_fields` binds every field by reference, boxed or not.
    (@pattern $kind:ident [] $payload:ident [$($field:ident),*]) => {
        TraceEvent::$kind { $($field),* }
    };
    (@pattern $kind:ident [$boxed:ident] $payload:ident [$($field:ident),*]) => {
        TraceEvent::$kind($payload)
    };
    (@unpack [] $payload:ident [$($field:ident),*]) => {};
    (@unpack [$boxed:ident] $payload:ident [$($field:ident),*]) => {
        let $boxed { $($field),* } = &**$payload;
    };

    (@boxed []) => { false };
    (@boxed [$boxed:ident]) => { true };

    (@build $kind:ident [] { $($body:tt)* }) => {
        TraceEvent::$kind { $($body)* }
    };
    (@build $kind:ident [$boxed:ident] { $($body:tt)* }) => {
        TraceEvent::$kind(Box::new($boxed { $($body)* }))
    };
}

impl EventKind {
    /// This kind's schema row.
    pub fn schema(self) -> &'static KindSchema {
        &SCHEMA[self as usize]
    }

    /// Stable kebab-case label used by the exporters.
    pub fn label(self) -> &'static str {
        self.schema().label
    }

    /// Inverse of [`label`](Self::label), for trace replay.
    pub fn from_label(label: &str) -> Option<EventKind> {
        EventKind::ALL.into_iter().find(|k| k.label() == label)
    }
}

impl TraceEvent {
    /// Stable kebab-case event name used by the exporters.
    pub fn kind(&self) -> &'static str {
        self.event_kind().label()
    }
}

trace_schema! {
/// One typed simulator event. All payloads are plain integers or labels;
/// recording an event allocates only for the one boxed kind,
/// `metrics-snapshot`, which the snapshot pipeline emits once per closed
/// window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A message entered its source NIC queue.
    MsgInjected = "msg-injected" {
        /// Source port.
        src: u32,
        /// Destination port.
        dst: u32,
        /// Payload size.
        bytes: u32,
        /// Workload-global message id.
        msg: u32,
    },
    /// A message's last byte reached its destination.
    MsgDelivered = "msg-delivered" {
        /// Source port.
        src: u32,
        /// Destination port.
        dst: u32,
        /// Payload size.
        bytes: u32,
        /// Workload-global message id.
        msg: u32,
        /// Injection-to-delivery latency.
        latency_ns: u64,
    },
    /// A connection request first became visible to the scheduler (a VOQ
    /// went non-empty, or a circuit/wormhole setup was issued).
    ConnRequested = "conn-requested" {
        /// Requesting input port.
        src: u32,
        /// Requested output port.
        dst: u32,
    },
    /// The scheduler (or a preload stream) established `src -> dst`.
    ConnEstablished = "conn-established" {
        /// Input port.
        src: u32,
        /// Output port.
        dst: u32,
        /// TDM configuration register the connection landed in.
        slot_idx: u32,
    },
    /// An established connection was removed from the working set.
    ConnEvicted = "conn-evicted" {
        /// Input port.
        src: u32,
        /// Output port.
        dst: u32,
        /// Which policy evicted it.
        cause: EvictCause,
    },
    /// The TDM counter moved to the next configuration register.
    SlotAdvanced = "slot-advanced" {
        /// The register now driving the crossbar.
        slot_idx: u32,
    },
    /// One SL array scheduling pass completed.
    SchedPass = "sched-pass" {
        /// Cumulative pass count for this run.
        passes: u64,
        /// Cells the availability ripple traversed (the combinational
        /// depth of this pass; feeds the Table-3 timing model).
        ripple_depth: u32,
        /// Connections established this pass.
        established: u32,
        /// Connections released this pass.
        released: u32,
        /// Requests denied this pass.
        denied: u32,
    },
    /// A compiled configuration was loaded into a TDM register.
    PreloadApplied = "preload-applied" {
        /// Target configuration register.
        slot_idx: u32,
        /// Connections in the loaded configuration.
        connections: u32,
    },
    /// The dynamic working set was flushed at a phase boundary.
    PhaseFlush = "phase-flush" {
        /// Connections cleared by the flush.
        cleared: u32,
    },
    /// An injected hardware fault became active.
    FaultInjected = "fault-injected" {
        /// Plan-assigned fault id (stable across repeats of a periodic
        /// fault; pairs this event with its `FaultCleared`).
        fault: u32,
        /// What broke.
        class: FaultClass,
        /// Affected input port (or the faulted NIC port).
        src: u32,
        /// Affected output port (`== src` for NIC faults).
        dst: u32,
    },
    /// A previously injected fault went away.
    FaultCleared = "fault-cleared" {
        /// Plan-assigned fault id.
        fault: u32,
        /// What had broken.
        class: FaultClass,
        /// Affected input port.
        src: u32,
        /// Affected output port.
        dst: u32,
    },
    /// A message transmission failed (dropped grant or corrupted
    /// serialization) and the NIC is retrying after backoff.
    MsgRetried = "msg-retried" {
        /// Source port.
        src: u32,
        /// Destination port.
        dst: u32,
        /// Workload-global message id.
        msg: u32,
        /// Retry attempt number (1 = first retry).
        attempt: u32,
    },
    /// A message exhausted its retry budget and was dropped by the NIC.
    MsgAbandoned = "msg-abandoned" {
        /// Source port.
        src: u32,
        /// Destination port.
        dst: u32,
        /// Workload-global message id.
        msg: u32,
        /// Retries spent before giving up.
        retries: u32,
    },
    /// A connection request entered the admission service's bounded
    /// ingress queue (see `pms-admit`).
    RequestEnqueued = "request-enqueued" {
        /// Stream-global request id, assigned in ingest order.
        req: u32,
        /// Tenant the request belongs to (rate-limit accounting key).
        tenant: u32,
        /// Requested input port.
        src: u32,
        /// Requested output port.
        dst: u32,
    },
    /// A queued connection request was granted: its pair is resident in
    /// some TDM configuration register (freshly established, or a
    /// working-set hit).
    RequestGranted = "request-granted" {
        /// Stream-global request id.
        req: u32,
        /// Tenant the request belongs to.
        tenant: u32,
        /// Input port.
        src: u32,
        /// Output port.
        dst: u32,
        /// Virtual time spent queued, enqueue to grant.
        wait_ns: u64,
    },
    /// A connection request was refused by the admission service
    /// (backpressure, rate limiting, or retry-budget exhaustion).
    RequestRejected = "request-rejected" {
        /// Stream-global request id.
        req: u32,
        /// Tenant the request belongs to.
        tenant: u32,
        /// Requested input port.
        src: u32,
        /// Requested output port.
        dst: u32,
        /// Why it bounced.
        cause: RejectCause,
    },
    /// One admission batch epoch completed: queued requests were coalesced
    /// into a word-parallel request matrix and driven through a scheduler
    /// pass (see `pms-admit`).
    BatchAdmitted = "batch-admitted" {
        /// Batch epoch index.
        batch: u32,
        /// Matrix capacity: the most pairs one epoch may select.
        capacity: u32,
        /// Distinct pairs coalesced into this epoch's request matrix.
        selected: u32,
        /// Requests granted this epoch (establishments plus hits).
        granted: u32,
        /// Pairs the scheduler denied this epoch (requeued to retry).
        denied: u32,
        /// Ingress-queue depth after the epoch.
        pending: u32,
    },
    /// A causal span opened (see [`SpanPhase`] for the taxonomy).
    SpanStart = "span-start" {
        /// Span id, unique within a run (see `pms_trace::span` for the
        /// deterministic allocation scheme).
        span: u32,
        /// Parent span id, or [`NO_PARENT`](crate::span::NO_PARENT) for
        /// roots.
        parent: u32,
        /// Which lifecycle phase this span covers.
        phase: SpanPhase,
        /// Workload-global message id, or
        /// [`NO_MSG`](crate::span::NO_MSG) for connection spans.
        msg: u32,
        /// Source port of the message or connection.
        src: u32,
        /// Destination port of the message or connection.
        dst: u32,
    },
    /// A causal span closed. Every `SpanStart` is closed exactly once,
    /// at a time no earlier than its start (run finalization closes any
    /// span still open).
    SpanEnd = "span-end" {
        /// Span id matching the `SpanStart`.
        span: u32,
        /// Phase, repeated so the record is self-describing.
        phase: SpanPhase,
        /// Message id (or `NO_MSG`), repeated for self-description.
        msg: u32,
    },
    /// Per-window metrics deltas emitted by the snapshot pipeline when a
    /// slot window closes (see `pms_trace::timeseries`). Windows are keyed
    /// to simulation time — never wall clock — so JSONL replay
    /// reconstructs the exact series. All-idle windows are skipped; gaps
    /// in `seq` are therefore meaningful, not lossy.
    MetricsSnapshot(Box<MetricsWindow>) = "metrics-snapshot" {
        /// Window index: `window_start_ns / window_ns`.
        seq: u32,
        /// Messages delivered in this window.
        delivered: u32,
        /// Payload bytes delivered in this window.
        bytes: u64,
        /// Connections established in this window.
        established: u32,
        /// Connections evicted in this window.
        evicted: u32,
        /// Scheduler denials in this window (summed over passes).
        denied: u32,
        /// Message retries in this window.
        retries: u32,
        /// Messages abandoned in this window.
        abandoned: u32,
        /// Faults injected in this window.
        faults_injected: u32,
        /// Faults cleared in this window.
        faults_cleared: u32,
        /// Request→establish setups completed in this window.
        setups: u32,
        /// Sum of setup latencies completed in this window.
        setup_total_ns: u64,
        /// Worst setup latency completed in this window.
        setup_max_ns: u64,
        /// Scheduling passes run in this window.
        passes: u32,
        /// Admission requests enqueued in this window.
        enqueued: u32,
        /// Admission requests granted in this window.
        granted: u32,
        /// Admission requests rejected in this window.
        rejected: u32,
        /// Admission batch epochs completed in this window.
        batches: u32,
    },
    /// An alert rule started firing (see `pms_trace::alerts`). Carries the
    /// rule's *index* in the rules file — names live in the file, so the
    /// event stays allocation-free and replay needs no side channel.
    AlertRaised = "alert-raised" {
        /// 0-based rule index in the rules file.
        rule: u32,
        /// Snapshot window (`MetricsSnapshot::seq`) that tripped the rule.
        seq: u32,
        /// Observed metric value (two's-complement `i64` for rate rules).
        value: u64,
        /// Threshold the value breached (same encoding as `value`).
        threshold: u64,
    },
    /// A previously raised alert rule stopped firing.
    AlertCleared = "alert-cleared" {
        /// 0-based rule index in the rules file.
        rule: u32,
        /// Snapshot window that satisfied the clear condition.
        seq: u32,
    },
}
}

/// A [`TraceEvent`] stamped with when (simulation ns) and where (active
/// TDM slot) it happened.
///
/// Paradigms without TDM slots (wormhole, circuit) stamp `slot = 0`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulation time in nanoseconds.
    pub t_ns: u64,
    /// TDM slot active when the event fired.
    pub slot: u32,
    /// The event payload.
    pub event: TraceEvent,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_distinct_and_complete() {
        let events = [
            TraceEvent::MsgInjected {
                src: 0,
                dst: 1,
                bytes: 64,
                msg: 0,
            },
            TraceEvent::MsgDelivered {
                src: 0,
                dst: 1,
                bytes: 64,
                msg: 0,
                latency_ns: 10,
            },
            TraceEvent::ConnRequested { src: 0, dst: 1 },
            TraceEvent::ConnEstablished {
                src: 0,
                dst: 1,
                slot_idx: 0,
            },
            TraceEvent::ConnEvicted {
                src: 0,
                dst: 1,
                cause: EvictCause::Timeout,
            },
            TraceEvent::SlotAdvanced { slot_idx: 1 },
            TraceEvent::SchedPass {
                passes: 1,
                ripple_depth: 3,
                established: 1,
                released: 0,
                denied: 0,
            },
            TraceEvent::PreloadApplied {
                slot_idx: 2,
                connections: 8,
            },
            TraceEvent::PhaseFlush { cleared: 5 },
            TraceEvent::FaultInjected {
                fault: 0,
                class: FaultClass::LinkDown,
                src: 0,
                dst: 1,
            },
            TraceEvent::FaultCleared {
                fault: 0,
                class: FaultClass::LinkDown,
                src: 0,
                dst: 1,
            },
            TraceEvent::MsgRetried {
                src: 0,
                dst: 1,
                msg: 0,
                attempt: 1,
            },
            TraceEvent::MsgAbandoned {
                src: 0,
                dst: 1,
                msg: 0,
                retries: 3,
            },
            TraceEvent::RequestEnqueued {
                req: 0,
                tenant: 0,
                src: 0,
                dst: 1,
            },
            TraceEvent::RequestGranted {
                req: 0,
                tenant: 0,
                src: 0,
                dst: 1,
                wait_ns: 400,
            },
            TraceEvent::RequestRejected {
                req: 1,
                tenant: 0,
                src: 0,
                dst: 1,
                cause: RejectCause::RateLimit,
            },
            TraceEvent::BatchAdmitted {
                batch: 0,
                capacity: 8,
                selected: 4,
                granted: 3,
                denied: 1,
                pending: 2,
            },
            TraceEvent::SpanStart {
                span: 1,
                parent: u32::MAX,
                phase: SpanPhase::Msg,
                msg: 0,
                src: 0,
                dst: 1,
            },
            TraceEvent::SpanEnd {
                span: 1,
                phase: SpanPhase::Msg,
                msg: 0,
            },
            TraceEvent::MetricsSnapshot(Box::new(MetricsWindow {
                seq: 0,
                delivered: 4,
                bytes: 256,
                established: 2,
                evicted: 1,
                denied: 0,
                retries: 0,
                abandoned: 0,
                faults_injected: 0,
                faults_cleared: 0,
                setups: 2,
                setup_total_ns: 160,
                setup_max_ns: 90,
                passes: 8,
                enqueued: 3,
                granted: 2,
                rejected: 1,
                batches: 1,
            })),
            TraceEvent::AlertRaised {
                rule: 0,
                seq: 0,
                value: 4,
                threshold: 2,
            },
            TraceEvent::AlertCleared { rule: 0, seq: 1 },
        ];
        let mut kinds: Vec<&str> = events.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds.len(), TraceEvent::KIND_COUNT);
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), TraceEvent::KIND_COUNT, "duplicate kind labels");
    }

    /// A kind is boxed exactly when its payload exceeds the 24 B that
    /// keeps `TraceEvent` at 32 B (see the size asserts above).
    #[test]
    fn inline_kinds_fit_in_24_bytes() {
        for kind in EventKind::ALL {
            let schema = kind.schema();
            let bytes: usize = schema
                .fields
                .iter()
                .map(|f| match f.width {
                    Width::U32 => 4,
                    Width::U64 => 8,
                    _ => 1,
                })
                .sum();
            assert_eq!(
                schema.boxed,
                bytes > 24,
                "`{}` has a {bytes} B payload: box it exactly when it exceeds 24 B",
                schema.label
            );
        }
    }

    /// The line writer pushes kind labels, field names and cause, class
    /// and phase labels into JSON strings without escaping them.
    #[test]
    fn schema_names_and_labels_are_escape_free() {
        let mut words: Vec<&str> = Vec::new();
        for kind in EventKind::ALL {
            let schema = kind.schema();
            assert_eq!(EventKind::from_label(schema.label), Some(kind));
            assert!(schema.fields.len() <= EventKind::MAX_FIELDS);
            words.push(schema.label);
            words.extend(schema.fields.iter().map(|f| f.name));
        }
        words.extend(EvictCause::ALL.map(EvictCause::label));
        words.extend(FaultClass::ALL.map(FaultClass::label));
        words.extend(SpanPhase::ALL.map(SpanPhase::label));
        words.extend(RejectCause::ALL.map(RejectCause::label));
        for word in words {
            let mut escaped = String::new();
            crate::json::write_escaped(&mut escaped, word);
            assert_eq!(escaped, format!("\"{word}\""), "{word} needs escaping");
        }
    }

    #[test]
    fn evict_cause_labels_are_distinct() {
        let labels: std::collections::BTreeSet<&str> =
            EvictCause::ALL.into_iter().map(EvictCause::label).collect();
        assert_eq!(labels.len(), EvictCause::ALL.len());
    }

    #[test]
    fn evict_cause_labels_roundtrip() {
        for cause in EvictCause::ALL {
            assert_eq!(EvictCause::from_label(cause.label()), Some(cause));
        }
        assert_eq!(EvictCause::from_label("nonsense"), None);
    }

    /// `ALL` and `from_label` are maintained by hand; this guard makes a
    /// new variant a compile error here (the exhaustive match) and a test
    /// failure if it is forgotten in `ALL` or `from_label`.
    #[test]
    fn evict_cause_all_is_exhaustive() {
        fn ordinal(cause: EvictCause) -> usize {
            // Exhaustive on purpose: adding a variant breaks this match.
            match cause {
                EvictCause::Timeout => 0,
                EvictCause::RefCount => 1,
                EvictCause::PhaseFlush => 2,
                EvictCause::Drop => 3,
                EvictCause::Fault => 4,
            }
        }
        const VARIANTS: usize = 5;
        assert_eq!(EvictCause::ALL.len(), VARIANTS, "ALL misses a variant");
        let mut seen = [false; VARIANTS];
        for cause in EvictCause::ALL {
            let i = ordinal(cause);
            assert!(!seen[i], "{cause:?} listed twice in ALL");
            seen[i] = true;
            assert_eq!(
                EvictCause::from_label(cause.label()),
                Some(cause),
                "{cause:?} desynced from from_label"
            );
        }
        assert!(seen.iter().all(|&s| s), "ALL misses a variant");
        assert!(
            EvictCause::ALL
                .windows(2)
                .all(|w| w[0].label() < w[1].label()),
            "ALL must stay in label order (report tables iterate it)"
        );
    }

    /// Same hand-maintenance guard as `evict_cause_all_is_exhaustive`,
    /// for the admission reject causes.
    #[test]
    fn reject_cause_all_is_exhaustive() {
        fn ordinal(cause: RejectCause) -> usize {
            // Exhaustive on purpose: adding a variant breaks this match.
            match cause {
                RejectCause::RateLimit => 0,
                RejectCause::QueueFull => 1,
                RejectCause::Shed => 2,
                RejectCause::Expired => 3,
            }
        }
        const VARIANTS: usize = 4;
        assert_eq!(RejectCause::ALL.len(), VARIANTS, "ALL misses a variant");
        let mut seen = [false; VARIANTS];
        for cause in RejectCause::ALL {
            let i = ordinal(cause);
            assert!(!seen[i], "{cause:?} listed twice in ALL");
            seen[i] = true;
            assert_eq!(
                RejectCause::from_label(cause.label()),
                Some(cause),
                "{cause:?} desynced from from_label"
            );
        }
        assert!(seen.iter().all(|&s| s), "ALL misses a variant");
        assert!(
            RejectCause::ALL
                .windows(2)
                .all(|w| w[0].label() < w[1].label()),
            "ALL must stay in label order (report tables iterate it)"
        );
        assert_eq!(RejectCause::from_label("nonsense"), None);
    }

    #[test]
    fn span_phase_labels_roundtrip_and_are_distinct() {
        let labels: std::collections::BTreeSet<&str> =
            SpanPhase::ALL.into_iter().map(SpanPhase::label).collect();
        assert_eq!(labels.len(), SpanPhase::ALL.len());
        for phase in SpanPhase::ALL {
            assert_eq!(SpanPhase::from_label(phase.label()), Some(phase));
        }
        assert_eq!(SpanPhase::from_label("nonsense"), None);
    }

    #[test]
    fn fault_class_labels_roundtrip_and_are_distinct() {
        let labels: std::collections::BTreeSet<&str> =
            FaultClass::ALL.into_iter().map(FaultClass::label).collect();
        assert_eq!(labels.len(), FaultClass::ALL.len());
        for class in FaultClass::ALL {
            assert_eq!(FaultClass::from_label(class.label()), Some(class));
        }
        assert_eq!(FaultClass::from_label("nonsense"), None);
    }
}

//! Contention analysis: where does a connection's setup wait go, and
//! which wormhole messages look like head-of-line victims.
//!
//! **Setup attribution.** Each `conn-requested -> conn-established`
//! interval is split into three exclusive buckets:
//!
//! * *alignment* — from the request to the first `sched-pass` after it:
//!   waiting for the SL clock edge; irreducible given the 80 ns pass
//!   period, no matter how idle the switch;
//! * *contention* — from that first pass to the establishing pass: the
//!   request was visible but passes kept denying it (a slot conflict or
//!   an availability ripple shadowing the cell — the Table 3 cost made
//!   visible);
//! * *service* — from establishment to the first `slot-advanced` of the
//!   granted register: the connection exists but its slot has not yet
//!   driven the crossbar (slot unavailability).
//!
//! The mean ripple depth of establishing passes is reported alongside,
//! tying the contention bucket back to the paper's SL timing model.
//!
//! **Head-of-line stalls.** For the wormhole baseline (single FIFO per
//! input) a message can stall behind an earlier message *to a different
//! destination*. The detector flags messages whose delivery latency
//! exceeds `hol_factor` x the run's median while an earlier-injected,
//! still-undelivered message from the same source targeted a different
//! destination at injection time. It is a heuristic — the trace does not
//! record queue positions — but on single-FIFO traces it is exactly the
//! blocked-behind-cross-traffic signature VOQs remove.

use pms_trace::{Json, TraceEvent, TraceRecord};
use std::collections::HashMap;

/// Aggregate setup-latency attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct SetupAttribution {
    /// Completed request -> establish setups observed.
    pub setups: u64,
    /// Mean end-to-end setup wait (ns).
    pub mean_wait_ns: f64,
    /// Largest end-to-end setup wait (ns).
    pub max_wait_ns: u64,
    /// Total ns spent waiting for the first scheduling pass.
    pub alignment_ns: u64,
    /// Total ns spent being denied by passes (scheduler contention).
    pub contention_ns: u64,
    /// Total ns from establishment to the slot first driving the
    /// crossbar (slot unavailability).
    pub service_ns: u64,
    /// Mean availability-ripple depth over passes that established at
    /// least one connection.
    pub mean_ripple_depth: f64,
}

/// A head-of-line stall suspect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HolStall {
    /// The stalled message's id.
    pub msg: u32,
    /// Its source port.
    pub src: u32,
    /// Its destination port.
    pub dst: u32,
    /// Its delivery latency (ns).
    pub latency_ns: u64,
    /// Earlier same-source messages to other destinations still in
    /// flight when this one was injected.
    pub blockers: u32,
}

/// Head-of-line analysis over the message stream.
#[derive(Debug, Clone, PartialEq)]
pub struct HolReport {
    /// Latency multiple of the median required to flag a message.
    pub factor: f64,
    /// Median delivery latency used as the baseline (ns).
    pub median_latency_ns: u64,
    /// Flagged messages, worst first (capped by the caller).
    pub stalls: Vec<HolStall>,
    /// Total messages examined.
    pub messages: u64,
}

/// The combined contention report.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentionReport {
    /// Setup-latency attribution.
    pub setup: SetupAttribution,
    /// Head-of-line stall detection.
    pub hol: HolReport,
}

impl ContentionReport {
    /// JSON rendering (deterministic; used by the report).
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "setup",
                Json::obj([
                    ("setups", self.setup.setups.into()),
                    ("mean_wait_ns", self.setup.mean_wait_ns.into()),
                    ("max_wait_ns", self.setup.max_wait_ns.into()),
                    ("alignment_ns", self.setup.alignment_ns.into()),
                    ("contention_ns", self.setup.contention_ns.into()),
                    ("service_ns", self.setup.service_ns.into()),
                    ("mean_ripple_depth", self.setup.mean_ripple_depth.into()),
                ]),
            ),
            (
                "hol",
                Json::obj([
                    ("factor", self.hol.factor.into()),
                    ("median_latency_ns", self.hol.median_latency_ns.into()),
                    ("messages", self.hol.messages.into()),
                    ("stall_count", self.hol.stalls.len().into()),
                    (
                        "stalls",
                        Json::Array(
                            self.hol
                                .stalls
                                .iter()
                                .map(|s| {
                                    Json::obj([
                                        ("msg", s.msg.into()),
                                        ("src", s.src.into()),
                                        ("dst", s.dst.into()),
                                        ("latency_ns", s.latency_ns.into()),
                                        ("blockers", s.blockers.into()),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ),
        ])
    }

    /// Setup-latency attribution as CSV: one row per wait component.
    /// The `share` column is the component's fraction of attributable
    /// wait (alignment + contention), matching the text report; slot
    /// service is listed with an empty share since it is pipelined
    /// rather than attributable.
    pub fn to_csv(&self) -> String {
        let s = &self.setup;
        let total = (s.alignment_ns + s.contention_ns).max(1) as f64;
        let rows = [
            ("alignment", s.alignment_ns, true),
            ("contention", s.contention_ns, true),
            ("service", s.service_ns, false),
        ]
        .into_iter()
        .map(|(component, ns, attributable)| {
            vec![
                component.to_string(),
                ns.to_string(),
                if attributable {
                    format!("{:.4}", ns as f64 / total)
                } else {
                    String::new()
                },
            ]
        });
        crate::csv::csv_table(&["component", "wait_ns", "share"], rows)
    }
}

/// Runs both analyses over an event stream.
///
/// `hol_factor` is the median-latency multiple above which a message
/// with live cross-destination blockers counts as a HOL stall;
/// `max_stalls` caps the listed suspects (the count is exact).
pub fn contention(records: &[TraceRecord], hol_factor: f64, max_stalls: usize) -> ContentionReport {
    ContentionReport {
        setup: setup_attribution(records),
        hol: hol_stalls(records, hol_factor, max_stalls),
    }
}

fn setup_attribution(records: &[TraceRecord]) -> SetupAttribution {
    // Pass times and per-slot slot-advance times for the two boundary
    // searches, plus ripple depths of establishing passes.
    let mut pass_times: Vec<u64> = Vec::new();
    let mut ripple_sum = 0u64;
    let mut ripple_n = 0u64;
    let mut slot_times: HashMap<u32, Vec<u64>> = HashMap::new();
    for rec in records {
        match rec.event {
            TraceEvent::SchedPass {
                ripple_depth,
                established,
                ..
            } => {
                pass_times.push(rec.t_ns);
                if established > 0 {
                    ripple_sum += ripple_depth as u64;
                    ripple_n += 1;
                }
            }
            TraceEvent::SlotAdvanced { slot_idx } => {
                slot_times.entry(slot_idx).or_default().push(rec.t_ns);
            }
            _ => {}
        }
    }

    let mut pending: HashMap<(u32, u32), u64> = HashMap::new();
    let mut setups = 0u64;
    let mut wait_sum = 0u64;
    let mut max_wait = 0u64;
    let (mut alignment, mut contention, mut service) = (0u64, 0u64, 0u64);
    for rec in records {
        match rec.event {
            TraceEvent::ConnRequested { src, dst } => {
                pending.entry((src, dst)).or_insert(rec.t_ns);
            }
            TraceEvent::ConnEstablished { src, dst, slot_idx } => {
                let Some(t_req) = pending.remove(&(src, dst)) else {
                    continue; // preloaded, not requested
                };
                let t_est = rec.t_ns;
                let wait = t_est.saturating_sub(t_req);
                setups += 1;
                wait_sum += wait;
                max_wait = max_wait.max(wait);
                // First pass strictly after the request, capped at the
                // establish time (wormhole/circuit traces have no
                // passes: the whole wait is alignment with the grant
                // machinery).
                let i = pass_times.partition_point(|&t| t <= t_req);
                match pass_times.get(i) {
                    Some(&t_pass) if t_pass <= t_est => {
                        alignment += t_pass - t_req;
                        contention += t_est - t_pass;
                    }
                    _ => alignment += wait,
                }
                // First visit of the granted slot at or after establish.
                if let Some(times) = slot_times.get(&slot_idx) {
                    let j = times.partition_point(|&t| t < t_est);
                    if let Some(&t_slot) = times.get(j) {
                        service += t_slot - t_est;
                    }
                }
            }
            _ => {}
        }
    }
    SetupAttribution {
        setups,
        mean_wait_ns: if setups == 0 {
            0.0
        } else {
            wait_sum as f64 / setups as f64
        },
        max_wait_ns: max_wait,
        alignment_ns: alignment,
        contention_ns: contention,
        service_ns: service,
        mean_ripple_depth: if ripple_n == 0 {
            0.0
        } else {
            ripple_sum as f64 / ripple_n as f64
        },
    }
}

/// Message lifecycle: injection time/source/destination, delivery
/// latency.
struct Life {
    t_inj: u64,
    src: u32,
    dst: u32,
    latency: Option<u64>,
    t_del: u64,
}

/// Each message id's final lifecycle (a re-injected id overwrites its
/// earlier one, and a delivery updates whichever injection is current),
/// the injection order of ids (duplicates included), and the median
/// delivery latency.
fn lifecycles(records: &[TraceRecord]) -> (HashMap<u32, Life>, Vec<u32>, u64) {
    let mut lives: HashMap<u32, Life> = HashMap::new();
    let mut order: Vec<u32> = Vec::new();
    for rec in records {
        match rec.event {
            TraceEvent::MsgInjected { src, dst, msg, .. } => {
                lives.insert(
                    msg,
                    Life {
                        t_inj: rec.t_ns,
                        src,
                        dst,
                        latency: None,
                        t_del: u64::MAX,
                    },
                );
                order.push(msg);
            }
            TraceEvent::MsgDelivered {
                msg, latency_ns, ..
            } => {
                if let Some(l) = lives.get_mut(&msg) {
                    l.latency = Some(latency_ns);
                    l.t_del = rec.t_ns;
                }
            }
            _ => {}
        }
    }
    let mut lats: Vec<u64> = lives.values().filter_map(|l| l.latency).collect();
    lats.sort_unstable();
    let median = lats.get(lats.len() / 2).copied().unwrap_or(0);
    (lives, order, median)
}

/// Flags slow messages and sorts the suspects worst first. `blockers`
/// counts, for the message at injection-order position `i`, the earlier
/// positions whose message blocked it.
fn collect_stalls(
    lives: &HashMap<u32, Life>,
    order: &[u32],
    median: u64,
    factor: f64,
    max_stalls: usize,
    mut blockers: impl FnMut(usize, &Life) -> u32,
) -> HolReport {
    let threshold = (median as f64 * factor) as u64;
    let mut stalls: Vec<HolStall> = Vec::new();
    for (i, &msg) in order.iter().enumerate() {
        let m = &lives[&msg];
        let Some(latency) = m.latency else { continue };
        if median == 0 || latency <= threshold {
            continue;
        }
        let blockers = blockers(i, m);
        if blockers > 0 {
            stalls.push(HolStall {
                msg,
                src: m.src,
                dst: m.dst,
                latency_ns: latency,
                blockers,
            });
        }
    }
    stalls.sort_by(|a, b| b.latency_ns.cmp(&a.latency_ns).then(a.msg.cmp(&b.msg)));
    stalls.truncate(max_stalls);
    HolReport {
        factor,
        median_latency_ns: median,
        stalls,
        messages: lives.len() as u64,
    }
}

fn hol_stalls(records: &[TraceRecord], factor: f64, max_stalls: usize) -> HolReport {
    let (lives, order, median) = lifecycles(records);
    // Injection-order positions grouped by source, ascending, with the
    // blocker-test fields copied out of the `Life` each position's id
    // resolves to (its last injection). A slow message scans only its
    // own source's earlier injections: O(M) plus, per slow message, the
    // number of earlier injections from its source.
    struct Inj {
        pos: u32,
        dst: u32,
        t_inj: u64,
        t_del: u64,
    }
    let mut by_src: HashMap<u32, Vec<Inj>> = HashMap::new();
    for (pos, msg) in order.iter().enumerate() {
        let l = &lives[msg];
        by_src.entry(l.src).or_default().push(Inj {
            pos: u32::try_from(pos).expect("more than 2^32 injections"),
            dst: l.dst,
            t_inj: l.t_inj,
            t_del: l.t_del,
        });
    }
    collect_stalls(&lives, &order, median, factor, max_stalls, |i, m| {
        let same_src = &by_src[&m.src];
        let earlier = &same_src[..same_src.partition_point(|b| (b.pos as usize) < i)];
        // Earlier injections from the same source, to a different
        // destination, still undelivered when this message arrived.
        earlier
            .iter()
            .filter(|b| b.dst != m.dst && b.t_inj <= m.t_inj && b.t_del > m.t_inj)
            .count() as u32
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rec(t_ns: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            t_ns,
            slot: 0,
            event,
        }
    }

    fn pass(t: u64, established: u32, ripple: u32) -> TraceRecord {
        rec(
            t,
            TraceEvent::SchedPass {
                passes: 0,
                ripple_depth: ripple,
                established,
                released: 0,
                denied: 0,
            },
        )
    }

    #[test]
    fn wait_splits_into_alignment_contention_service() {
        let records = vec![
            rec(100, TraceEvent::ConnRequested { src: 0, dst: 1 }),
            pass(160, 0, 2), // visible but denied
            pass(240, 1, 4), // established here
            rec(
                240,
                TraceEvent::ConnEstablished {
                    src: 0,
                    dst: 1,
                    slot_idx: 3,
                },
            ),
            rec(300, TraceEvent::SlotAdvanced { slot_idx: 3 }),
        ];
        let s = setup_attribution(&records);
        assert_eq!(s.setups, 1);
        assert_eq!(s.mean_wait_ns, 140.0);
        assert_eq!(s.max_wait_ns, 140);
        assert_eq!(s.alignment_ns, 60); // 100 -> 160
        assert_eq!(s.contention_ns, 80); // 160 -> 240
        assert_eq!(s.service_ns, 60); // 240 -> 300
        assert_eq!(s.mean_ripple_depth, 4.0);
    }

    #[test]
    fn no_passes_means_pure_alignment() {
        let records = vec![
            rec(0, TraceEvent::ConnRequested { src: 0, dst: 1 }),
            rec(
                80,
                TraceEvent::ConnEstablished {
                    src: 0,
                    dst: 1,
                    slot_idx: 0,
                },
            ),
        ];
        let s = setup_attribution(&records);
        assert_eq!(s.alignment_ns, 80);
        assert_eq!(s.contention_ns, 0);
    }

    #[test]
    fn preloaded_establish_without_request_is_ignored() {
        let records = vec![rec(
            0,
            TraceEvent::ConnEstablished {
                src: 0,
                dst: 1,
                slot_idx: 0,
            },
        )];
        assert_eq!(setup_attribution(&records).setups, 0);
    }

    fn inj(t: u64, msg: u32, src: u32, dst: u32) -> TraceRecord {
        rec(
            t,
            TraceEvent::MsgInjected {
                src,
                dst,
                bytes: 64,
                msg,
            },
        )
    }

    fn del(t: u64, msg: u32, src: u32, dst: u32, latency: u64) -> TraceRecord {
        rec(
            t,
            TraceEvent::MsgDelivered {
                src,
                dst,
                bytes: 64,
                msg,
                latency_ns: latency,
            },
        )
    }

    #[test]
    fn hol_victim_is_flagged_with_its_blocker() {
        // msg 0: src 0 -> dst 1, slow to deliver (occupies the FIFO head).
        // msg 1: src 0 -> dst 2, injected behind it, delivered very late.
        // msgs 2..5: fast traffic from another source fixing the median.
        let records = vec![
            inj(0, 0, 0, 1),
            inj(10, 1, 0, 2),
            inj(20, 2, 3, 1),
            del(120, 2, 3, 1, 100),
            inj(30, 3, 3, 2),
            del(130, 3, 3, 2, 100),
            inj(40, 4, 3, 0),
            del(140, 4, 3, 0, 100),
            del(5_000, 0, 0, 1, 5_000),
            del(9_000, 1, 0, 2, 8_990),
        ];
        let h = hol_stalls(&records, 2.0, 10);
        assert_eq!(h.median_latency_ns, 100);
        let victim = h.stalls.iter().find(|s| s.msg == 1).expect("msg 1 flagged");
        assert_eq!(victim.blockers, 1);
        assert_eq!((victim.src, victim.dst), (0, 2));
        // msg 0 is slow but has no earlier same-src blocker.
        assert!(!h.stalls.iter().any(|s| s.msg == 0));
    }

    #[test]
    fn fast_messages_are_never_stalls() {
        let records = vec![
            inj(0, 0, 0, 1),
            del(100, 0, 0, 1, 100),
            inj(10, 1, 0, 2),
            del(110, 1, 0, 2, 100),
        ];
        let h = hol_stalls(&records, 2.0, 10);
        assert!(h.stalls.is_empty());
        assert_eq!(h.messages, 2);
    }

    #[test]
    fn setup_csv_shares_sum_to_one() {
        let records = vec![
            rec(100, TraceEvent::ConnRequested { src: 0, dst: 1 }),
            pass(160, 0, 2),
            pass(240, 1, 4),
            rec(
                240,
                TraceEvent::ConnEstablished {
                    src: 0,
                    dst: 1,
                    slot_idx: 3,
                },
            ),
            rec(300, TraceEvent::SlotAdvanced { slot_idx: 3 }),
        ];
        let r = contention(&records, 2.0, 16);
        let csv = r.to_csv();
        assert!(csv.starts_with("component,wait_ns,share\n"), "{csv}");
        let mut share = 0.0f64;
        for line in csv.lines().skip(1) {
            let cols: Vec<&str> = line.split(',').collect();
            assert_eq!(cols.len(), 3, "{line}");
            if !cols[2].is_empty() {
                share += cols[2].parse::<f64>().unwrap();
            }
        }
        assert!((share - 1.0).abs() < 0.01, "shares sum to {share}:\n{csv}");
        assert!(csv.contains("service,"), "{csv}");
    }

    /// The original O(M^2) scan: every earlier injection, whatever its
    /// source, looked up by id. The per-source index must match it.
    fn hol_stalls_reference(records: &[TraceRecord], factor: f64, max_stalls: usize) -> HolReport {
        let (lives, order, median) = lifecycles(records);
        collect_stalls(&lives, &order, median, factor, max_stalls, |i, m| {
            order[..i]
                .iter()
                .filter(|&&e| {
                    let b = &lives[&e];
                    b.src == m.src && b.dst != m.dst && b.t_inj <= m.t_inj && b.t_del > m.t_inj
                })
                .count() as u32
        })
    }

    #[test]
    fn duplicate_ids_count_against_their_last_injection() {
        // msg 7 is injected twice; both order positions read its second
        // life (src 0 -> dst 2, injected at 30), so the first position
        // is not a blocker of msg 9 (dst 2) but msg 8 (dst 1) is.
        let records = vec![
            inj(0, 7, 0, 1),
            inj(10, 8, 0, 1),
            inj(30, 7, 0, 2),
            inj(40, 9, 0, 2),
            inj(50, 1, 1, 0),
            del(150, 1, 1, 0, 100),
            inj(60, 2, 1, 0),
            del(160, 2, 1, 0, 100),
            del(5_000, 9, 0, 2, 4_960),
        ];
        let h = hol_stalls(&records, 2.0, 10);
        assert_eq!(h, hol_stalls_reference(&records, 2.0, 10));
        assert_eq!(h.messages, 5);
        let victim = h.stalls.iter().find(|s| s.msg == 9).expect("msg 9 flagged");
        assert_eq!(victim.blockers, 1, "only msg 8 blocks msg 9");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On random injection/delivery streams (several sources, reused
        /// message ids, out-of-order and equal timestamps, undelivered
        /// messages) the per-source scan reports exactly what the
        /// quadratic reference does.
        #[test]
        fn per_source_scan_matches_quadratic_reference(
            events in prop::collection::vec(
                ((0u8..3, 0u64..40, 0u32..12), (0u32..4, 0u32..4, 0u64..400)),
                0..120,
            ),
            factor_halves in 0u32..6,
            max_stalls in 0usize..12,
        ) {
            let records: Vec<TraceRecord> = events
                .iter()
                .map(|&((kind, t, msg), (src, dst, latency))| {
                    let event = if kind < 2 {
                        TraceEvent::MsgInjected { src, dst, bytes: 64, msg }
                    } else {
                        TraceEvent::MsgDelivered { src, dst, bytes: 64, msg, latency_ns: latency }
                    };
                    TraceRecord { t_ns: t * 10, slot: 0, event }
                })
                .collect();
            let factor = factor_halves as f64 * 0.5;
            prop_assert_eq!(
                hol_stalls(&records, factor, max_stalls),
                hol_stalls_reference(&records, factor, max_stalls)
            );
        }
    }
}

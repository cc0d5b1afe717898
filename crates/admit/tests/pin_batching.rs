//! Pins the ISSUE-8 acceptance criterion: with the FIFO policy at
//! `batch = ports`, rate limiting disabled, and an unbounded-enough
//! queue, the engine's grant stream must be identical to what the
//! pre-existing `Scheduler::pass` batching produces when
//! driven by a hand-rolled FIFO reference loop. The reference below
//! shares nothing with `AdmitEngine` except the scheduler itself: it
//! keeps pending requests in a plain `VecDeque`, coalesces each batch
//! into a request matrix, runs one pass per epoch, and grants whatever
//! lands in the working set — exactly the batching contract the
//! admission service is supposed to preserve.

use pms_admit::{AdmitConfig, AdmitEngine, Decision, PolicyKind};
use pms_bitmat::BitMatrix;
use pms_sched::{HoldPolicy, Scheduler, SchedulerConfig};
use pms_trace::Tracer;
use pms_workloads::{hotspot, permutation, uniform, ArrivalConfig, ConnRequest, Workload};
use std::collections::VecDeque;

const PORTS: usize = 8;

struct RefPending {
    req: u32,
    conn: ConnRequest,
    enq_ns: u64,
    denials: u32,
}

/// Independent FIFO batching loop over the raw scheduler API. Mirrors
/// the engine's epoch clock (including the idle skip and the drain
/// phase) but none of its internals: no PIFO queue, no policy object,
/// no backpressure machinery.
fn reference_grants(stream: &[ConnRequest], cfg: &AdmitConfig) -> Vec<Decision> {
    let mut sched =
        Scheduler::new(SchedulerConfig::new(cfg.ports, cfg.slots).with_hold(HoldPolicy::Drop));
    let mut queue: VecDeque<RefPending> = VecDeque::new();
    let mut grants = Vec::new();
    let mut next_req = 0u32;
    let mut stream = stream.iter().copied().peekable();
    let mut epoch = 0u64;
    loop {
        let epoch_end = (epoch + 1) * cfg.epoch_ns;
        while stream.peek().is_some_and(|r| r.t_ns < epoch_end) {
            let conn = stream.next().expect("peeked");
            queue.push_back(RefPending {
                req: next_req,
                conn,
                enq_ns: conn.t_ns,
                denials: 0,
            });
            next_req += 1;
        }
        let more_arrivals = stream.peek().is_some();
        if queue.is_empty() && sched.b_star().all_zero() {
            if !more_arrivals {
                break;
            }
            epoch = stream.peek().expect("checked").t_ns / cfg.epoch_ns;
            continue;
        }
        run_ref_epoch(&mut sched, &mut queue, cfg, epoch_end, &mut grants);
        epoch += 1;
        if !more_arrivals {
            while !(queue.is_empty() && sched.b_star().all_zero()) {
                let end = (epoch + 1) * cfg.epoch_ns;
                run_ref_epoch(&mut sched, &mut queue, cfg, end, &mut grants);
                epoch += 1;
                assert!(epoch < 1 << 20, "reference drain did not converge");
            }
            break;
        }
    }
    grants
}

fn run_ref_epoch(
    sched: &mut Scheduler,
    queue: &mut VecDeque<RefPending>,
    cfg: &AdmitConfig,
    epoch_end: u64,
    grants: &mut Vec<Decision>,
) {
    let mut popped: Vec<RefPending> = Vec::new();
    while popped.len() < cfg.batch {
        match queue.pop_front() {
            Some(p) => popped.push(p),
            None => break,
        }
    }
    let mut requests = BitMatrix::square(cfg.ports);
    for p in &popped {
        requests.set(p.conn.src as usize, p.conn.dst as usize, true);
    }
    sched.pass(&requests);
    for mut p in popped {
        if sched.established(p.conn.src as usize, p.conn.dst as usize) {
            grants.push(Decision::Grant {
                req: p.req,
                tenant: p.conn.tenant,
                src: p.conn.src,
                dst: p.conn.dst,
                wait_ns: epoch_end.saturating_sub(p.enq_ns),
            });
        } else {
            p.denials += 1;
            if p.denials <= cfg.max_denials {
                queue.push_back(p);
            }
        }
    }
}

fn engine_grants(stream: &[ConnRequest], cfg: &AdmitConfig) -> Vec<Decision> {
    let mut engine = AdmitEngine::new(cfg.clone(), PolicyKind::Fifo.build());
    let outcome = engine.run(stream.to_vec(), &mut Tracer::vec());
    assert_eq!(
        outcome.stats.rejected(),
        0,
        "pin streams must not provoke backpressure"
    );
    outcome
        .decisions
        .into_iter()
        .filter(|d| matches!(d, Decision::Grant { .. }))
        .collect()
}

fn pin_config() -> AdmitConfig {
    let mut cfg = AdmitConfig::new(PORTS);
    // FIFO at batch = ports, rate limiting off, queue big enough that
    // no request is ever shed or rejected: the acceptance configuration.
    cfg.queue_cap = 1 << 16;
    cfg
}

fn check(stream: &[ConnRequest]) {
    let cfg = pin_config();
    let live = engine_grants(stream, &cfg);
    let reference = reference_grants(stream, &cfg);
    assert!(!live.is_empty(), "pin stream produced no grants");
    assert_eq!(
        live, reference,
        "engine grant stream diverged from the plain-pass reference"
    );
}

fn arrivals_of(w: &Workload) -> Vec<ConnRequest> {
    w.arrivals(&ArrivalConfig::default()).collect()
}

#[test]
fn fifo_full_batch_matches_pass_admitted_on_uniform_traffic() {
    for seed in [7u64, 17, 99] {
        check(&arrivals_of(&uniform(PORTS, 64, 24, seed)));
    }
}

#[test]
fn fifo_full_batch_matches_pass_admitted_on_hotspot_traffic() {
    check(&arrivals_of(&hotspot(PORTS, 64, 24, 0.6, 11)));
}

#[test]
fn fifo_full_batch_matches_pass_admitted_on_permutation_traffic() {
    check(&arrivals_of(&permutation(PORTS, 64, 24, 5)));
}

#[test]
fn fifo_full_batch_matches_pass_admitted_on_contended_burst() {
    // Every source wants the same two sinks in one burst: heavy output
    // contention forces multi-epoch retries through the requeue path.
    let stream: Vec<ConnRequest> = (0..32u32)
        .map(|i| ConnRequest {
            t_ns: (i as u64) * 10,
            tenant: i % 4,
            src: i % PORTS as u32,
            dst: if i % 2 == 0 { 1 } else { 6 },
            bytes: 64,
        })
        .collect();
    check(&stream);
}

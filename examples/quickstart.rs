//! Quickstart: drive one predictive multiplexed switch at the hardware
//! level — request lines, SL passes, TDM slots, grants.
//!
//! The switch is the scheduler's `K` configuration registers plus the TDM
//! counter: each slot the counter picks one register, and the passive
//! crossbar realizes it, so input `u` drives output `grant(slot, u)`.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use pms::sched::{HoldPolicy, PassReport, Scheduler, SchedulerConfig, TdmCounter};
use pms::{BitMatrix, ConnectionPredictor, TimeoutPredictor};

/// One scheduling-logic clock (ns).
const SL_PASS_NS: u64 = 80;
/// One TDM slot (ns).
const SLOT_NS: u64 = 100;

/// One SL clock: a scheduler pass, then the predictor glue the simulator's
/// TDM switch runs after every pass — the predictor learns what was
/// established and released, and the connections it evicts have their
/// request latch cleared, so a later pass over their register releases
/// them.
fn sl_pass(
    sched: &mut Scheduler,
    predictor: &mut TimeoutPredictor,
    requests: &BitMatrix,
    now: &mut u64,
) -> PassReport {
    let report = sched.pass(requests);
    for &(u, v) in &report.established {
        predictor.on_establish(u, v, *now);
    }
    for &(u, v) in &report.released {
        predictor.on_release(u, v);
    }
    for (u, v) in predictor.take_evictions(*now) {
        sched.clear_latch(u, v);
    }
    *now += SL_PASS_NS;
    report
}

fn main() {
    // A 16-port switch with 4 configuration registers and the paper's
    // simple time-out predictor (idle connections evicted after 500 ns).
    // Request latches hold a connection past its last request until the
    // predictor evicts it.
    let (ports, slots) = (16, 4);
    let mut sched = Scheduler::new(SchedulerConfig::new(ports, slots).with_hold(HoldPolicy::Latch));
    let mut tdm = TdmCounter::new(slots);
    let mut predictor = TimeoutPredictor::new(500);
    let mut requests = BitMatrix::square(ports);
    let mut now = 0;

    println!("== establish a working set ==");
    // Three NICs raise request lines; two of them fight for output 9.
    let pairs = [(0, 9), (7, 9), (3, 12)];
    for (u, v) in pairs {
        requests.set(u, v, true);
    }
    for _ in 0..2 {
        let report = sl_pass(&mut sched, &mut predictor, &requests, &mut now);
        // The pass reports how many requests lost; the registers say
        // which ones are still waiting for a slot.
        let waiting: Vec<_> = pairs
            .into_iter()
            .filter(|&(u, v)| !sched.established(u, v))
            .collect();
        println!(
            "SL pass on slot {:?}: established {:?}, denied {} (waiting: {:?})",
            report.slot, report.established, report.denied, waiting
        );
    }
    assert!(pairs.iter().all(|&(u, v)| sched.established(u, v)));
    println!(
        "all three connections cached; effective multiplexing degree = {}",
        TdmCounter::effective_degree(sched.configs())
    );

    println!("\n== TDM slots share the fabric ==");
    for _ in 0..4 {
        now += SLOT_NS;
        if let Some(slot) = tdm.advance(sched.configs()) {
            let owner_of_9 = (0..ports).find(|&u| sched.grant(slot, u) == Some(9));
            println!("t={now:>4} ns  slot {slot}: output 9 driven by input {owner_of_9:?}");
        }
    }

    println!("\n== the predictor evicts idle connections ==");
    // The NICs drop their requests; the latch holds the connections until
    // the 500 ns timeout expires.
    for (u, v) in pairs {
        requests.set(u, v, false);
    }
    while TdmCounter::effective_degree(sched.configs()) > 0 {
        sl_pass(&mut sched, &mut predictor, &requests, &mut now);
    }
    println!(
        "t={now} ns: idle connections evicted, effective degree = {}",
        TdmCounter::effective_degree(sched.configs())
    );
}

#[test]
fn runs() {
    main();
}

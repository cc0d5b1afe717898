//! Quickstart: drive one predictive multiplexed switch at the hardware
//! level — request lines, SL passes, TDM slots, grants.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use pms::{SystemBuilder, Technology, TimeoutPredictor};

fn main() {
    // A 16-port system: LVDS crossbar, 4 configuration registers, and the
    // paper's simple time-out predictor (idle connections evicted after
    // 500 ns).
    let mut sys = SystemBuilder::new(16)
        .slots(4)
        .technology(Technology::Lvds)
        .predictor(Box::new(TimeoutPredictor::new(500)))
        .build();

    println!("== establish a working set ==");
    // Three NICs raise request lines; two of them fight for output 9.
    let requests = [(0, 9), (7, 9), (3, 12)];
    for (u, v) in requests {
        sys.request(u, v);
    }
    for _ in 0..2 {
        let report = sys.sl_pass();
        // The pass reports how many requests lost; the registers say
        // which ones are still waiting for a slot.
        let waiting: Vec<_> = requests
            .into_iter()
            .filter(|&(u, v)| !sys.established(u, v))
            .collect();
        println!(
            "SL pass on slot {:?}: established {:?}, denied {} (waiting: {:?})",
            report.slot, report.established, report.denied, waiting
        );
    }
    assert!(sys.established(0, 9) && sys.established(7, 9) && sys.established(3, 12));
    println!(
        "all three connections cached; effective multiplexing degree = {}",
        sys.effective_degree()
    );

    println!("\n== TDM slots share the fabric ==");
    for _ in 0..4 {
        if let Some(slot) = sys.advance_slot() {
            let owner_of_9 = (0..16).find(|&u| sys.route(u) == Some(9));
            println!(
                "t={:>4} ns  slot {slot}: output 9 driven by input {:?}",
                sys.now_ns(),
                owner_of_9
            );
        }
    }

    println!("\n== the predictor evicts idle connections ==");
    // The NICs drop their requests; the latch holds the connections until
    // the 500 ns timeout expires.
    sys.drop_request(0, 9);
    sys.drop_request(7, 9);
    sys.drop_request(3, 12);
    while sys.effective_degree() > 0 {
        sys.sl_pass();
    }
    println!(
        "t={} ns: idle connections evicted, effective degree = {}",
        sys.now_ns(),
        sys.effective_degree()
    );
}

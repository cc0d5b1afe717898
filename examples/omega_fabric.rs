//! Scheduling beyond the crossbar (§6 future work): the same TDM
//! scheduler driving an Omega multistage fabric, whose internal links
//! block connection pairs a crossbar would accept — the stage-graph
//! router spreads those pairs across time slots automatically.
//!
//! ```text
//! cargo run --release --example omega_fabric
//! ```

use pms::bitmat::BitMatrix;
use pms::multistage::{MultistageRouter, StageGraph};
use pms::sched::{Scheduler, SchedulerConfig, SlotRouter};
use pms::SimParams;

fn main() {
    let n = 16;
    let graph = StageGraph::omega(n);
    let stages = graph.num_stages();
    println!(
        "Omega network: {n} ports, {stages} stages, {} ns propagation",
        stages as u64 * SimParams::default().digital_switch_ns
    );

    // Whether one slot of the fabric can carry every pair at once.
    let realizable = |pairs: &[(usize, usize)]| {
        let mut router = MultistageRouter::new(graph.clone(), 1);
        pairs.iter().all(|&(u, v)| router.try_admit(0, u, v))
    };

    // A bit-reversal permutation — the classic Omega-blocking traffic.
    let bits = n.trailing_zeros();
    let reverse =
        |x: usize| (0..bits).fold(0usize, |acc, b| acc | (((x >> b) & 1) << (bits - 1 - b)));
    let pairs: Vec<(usize, usize)> = (0..n).map(|u| (u, reverse(u))).collect();
    let config = BitMatrix::from_pairs(n, n, pairs.iter().copied());
    println!(
        "bit-reversal as ONE crossbar configuration: valid on crossbar = true, on omega = {}",
        realizable(&pairs)
    );

    // Count pairwise internal-link conflicts.
    let mut conflicts = 0;
    for i in 0..pairs.len() {
        for j in i + 1..pairs.len() {
            if !realizable(&[pairs[i], pairs[j]]) {
                conflicts += 1;
            }
        }
    }
    println!("pairwise internal-link conflicts: {conflicts}");

    // Let the routed scheduler realize the permutation with TDM: passes
    // run until a full slot cycle changes nothing.
    for k in [2usize, 4, 8] {
        let mut sched = Scheduler::new(SchedulerConfig::new(n, k));
        let mut router = MultistageRouter::new(graph.clone(), k);
        let (mut passes, mut quiet) = (0, 0);
        while passes < 256 && quiet < k {
            let rep = sched.pass_admitted(&config, Some(&mut router), |_| true);
            passes += 1;
            quiet = if rep.established.is_empty() && rep.released.is_empty() {
                quiet + 1
            } else {
                0
            };
        }
        router.check_invariants();
        let established = pairs
            .iter()
            .filter(|&&(u, v)| sched.established(u, v))
            .count();
        println!(
            "K={k}: {established}/{n} connections established after {passes} passes \
             (each slot internally conflict-free on the omega fabric)"
        );
    }
    println!("\na crossbar realizes bit-reversal in one slot; the blocking omega");
    println!("fabric needs several TDM slots — multiplexing buys back connectivity");
    println!("that the cheaper fabric gives up.");
}

#[test]
fn runs() {
    main();
}

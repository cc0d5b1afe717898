//! Multi-hop predictive multiplexed switching (§6): a 4x4 torus of
//! LVDS switches, end-to-end TDM pipes versus hop-by-hop arbitration.
//!
//! ```text
//! cargo run --release --example multihop_torus
//! ```

use pms::multistage::{TorusNetwork, TorusRouter};
use pms::sched::{Scheduler, SchedulerConfig};
use pms::sim::{PredictorKind, TdmMode, TdmSim};
use pms::workloads::uniform;
use pms::SimParams;

fn main() {
    // 4x4 switches x 2 hosts = 32 processors.
    let torus = TorusNetwork::new(4, 4, 2);
    let n = 32;

    println!("== latency: end-to-end pipes vs hop-by-hop (per §6) ==");
    println!(
        "{:>6} {:>14} {:>18} {:>10}",
        "hops", "TDM pipe (ns)", "hop-by-hop (ns)", "saved"
    );
    for &dst in &[1usize, 2, 4, 12, 20] {
        let hops = torus.hops(0, dst);
        let pipe = torus.pipe_latency_ns(0, dst, 20, 30);
        let hbh = torus.hop_by_hop_latency_ns(0, dst, 20, 30, 80);
        println!(
            "{hops:>6} {pipe:>14} {hbh:>18} {:>9}%",
            (hbh - pipe) * 100 / hbh
        );
    }
    println!("an established pipe pays serialization once; every hop of a");
    println!("buffered network pays arbitration again.\n");

    println!("== scheduling: link conflicts spread across TDM slots ==");
    // Random permutation demand across the torus.
    let demand = pms::workloads::permutation(n, 64, 1, 9);
    let requests = demand.message_table();
    let r = pms::BitMatrix::from_pairs(n, n, requests.iter().map(|m| (m.src, m.dst)));
    for k in [1usize, 2, 4, 8] {
        // Routed passes until a full slot cycle changes nothing.
        let mut sched = Scheduler::new(SchedulerConfig::new(n, k));
        let mut router = TorusRouter::new(torus.clone(), k);
        let (mut passes, mut quiet) = (0, 0);
        while passes < 256 && quiet < k {
            let rep = sched.pass_admitted(&r, Some(&mut router), |_| true);
            passes += 1;
            quiet = if rep.established.is_empty() && rep.released.is_empty() {
                quiet + 1
            } else {
                0
            };
        }
        let established = requests
            .iter()
            .filter(|m| sched.established(m.src, m.dst))
            .count();
        println!(
            "K={k}: {established}/{} connections of a random permutation routed \
             link-disjoint",
            requests.len()
        );
    }

    println!("\n== full simulation over the torus ==");
    let w = uniform(n, 64, 10, 4);
    let params = SimParams::default().with_ports(n);
    let dynamic = || {
        TdmSim::new(
            &w,
            &params,
            TdmMode::Dynamic {
                predictor: PredictorKind::Drop,
            },
        )
    };
    let crossbar = dynamic().run();
    let multihop = dynamic()
        .with_router(Box::new(TorusRouter::new(torus, params.tdm_slots)))
        .run();
    println!(
        "crossbar : {:5.1}% efficiency, makespan {} ns",
        crossbar.efficiency(0.8) * 100.0,
        crossbar.makespan_ns
    );
    println!(
        "torus    : {:5.1}% efficiency, makespan {} ns (link-disjointness costs slots)",
        multihop.efficiency(0.8) * 100.0,
        multihop.makespan_ns
    );
}

#[test]
fn runs() {
    main();
}

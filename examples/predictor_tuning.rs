//! Tune the time-out predictor (§3.2): sweep the idle threshold on a
//! bursty nearest-neighbor workload and watch the tension between caching
//! (long timeouts keep reused connections resident) and multiplexing-degree
//! pressure (stale connections block ports other traffic needs).
//!
//! ```text
//! cargo run --release --example predictor_tuning
//! ```

use pms::workloads::{random_mesh, MeshSpec};
use pms::{Paradigm, PredictorKind, SimParams};

fn main() {
    // Bursty 4-neighbor exchange: 100 ns per-message gap, 500 ns compute
    // between rounds -> a connection is re-used roughly every ~1 us.
    let mesh = MeshSpec::for_ports(64);
    let workload = random_mesh(mesh, 64, 6, 500, 100, 5);
    let params = SimParams::default().with_ports(64);
    let rate = params.link.bytes_per_ns();

    println!(
        "workload: {} ({} messages)",
        workload.name,
        workload.message_count()
    );
    println!(
        "{:<16} {:>11} {:>10} {:>13} {:>11} {:>13}",
        "policy", "efficiency", "hit rate", "established", "evictions", "mean lat (ns)"
    );
    let policies = [
        ("drop (no hold)", PredictorKind::Drop),
        ("timeout 200ns", PredictorKind::Timeout(200)),
        ("timeout 400ns", PredictorKind::Timeout(400)),
        ("timeout 800ns", PredictorKind::Timeout(800)),
        ("timeout 1500ns", PredictorKind::Timeout(1500)),
        ("refcount 64", PredictorKind::RefCount(64)),
    ];
    for (name, policy) in policies {
        let stats = Paradigm::DynamicTdm(policy).run(&workload, &params);
        println!(
            "{name:<16} {:>10.1}% {:>9.0}% {:>13} {:>11} {:>13.0}",
            stats.efficiency(rate) * 100.0,
            stats.working_set_hit_rate().unwrap_or(0.0) * 100.0,
            stats.connections_established,
            stats.predictor_evictions,
            stats.mean_latency_ns(),
        );
    }
    println!("\nfewer establishments = better connection caching; but on a working");
    println!("set at the network's capacity, holding stale connections starves");
    println!("pending requests — the eviction policy sets that balance.");
}

#[test]
fn runs() {
    main();
}

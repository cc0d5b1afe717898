//! Compare the four switching paradigms on a NAS-MG-like 3D stencil
//! exchange (the kind of workload whose locality the paper's introduction
//! motivates).
//!
//! ```text
//! cargo run --release --example nas_stencil
//! ```

use pms::workloads::stencil3d;
use pms::{Paradigm, PredictorKind, SimParams};

fn main() {
    // 4 x 4 x 4 = 64 processors, six-neighbor halo exchange, 3 rounds.
    let workload = stencil3d(4, 4, 4, 256, 3);
    // The 3D stencil working set has degree 6, so give the network six
    // TDM slots (the multiplexing degree tracks the application).
    let params = SimParams::default().with_ports(64).with_tdm_slots(6);
    let rate = params.link.bytes_per_ns();

    println!(
        "workload: {} ({} messages, {} KiB total)",
        workload.name,
        workload.message_count(),
        workload.total_bytes() / 1024
    );
    println!(
        "{:<14} {:>11} {:>14} {:>14} {:>12}",
        "paradigm", "efficiency", "mean lat (ns)", "makespan (ns)", "established"
    );
    for paradigm in [
        Paradigm::Wormhole,
        Paradigm::Circuit,
        Paradigm::DynamicTdm(PredictorKind::Drop),
        Paradigm::PreloadTdm,
    ] {
        let stats = paradigm.run(&workload, &params);
        assert_eq!(stats.delivered_bytes, workload.total_bytes());
        println!(
            "{:<14} {:>10.1}% {:>14.0} {:>14} {:>12}",
            stats.paradigm,
            stats.efficiency(rate) * 100.0,
            stats.mean_latency_ns(),
            stats.makespan_ns,
            stats.connections_established,
        );
    }
    println!("\nthe six-permutation working set fits the six slots exactly, and the");
    println!("compiled preload achieves that optimal packing (best efficiency, zero");
    println!("run-time establishment); dynamic scheduling of the same burst packs");
    println!("greedily and pays for it — the gap is the value of compilation (SS3.1).");
}

#[test]
fn runs() {
    main();
}

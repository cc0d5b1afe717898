//! Multiplexing-degree sweep (§2): "it is imperative to keep k as small as
//! possible ... TDM allows the flexibility of rapidly changing the size
//! and content of the communication cache to closely track the changes in
//! the working set."
//!
//! Sweeps the number of configuration registers `K` for a working set of
//! degree 4 (the 4-neighbor mesh). Expected shape: `K < 4` cannot cache
//! the working set (constant establish/release churn); `K >= 4` is flat —
//! the TDM counter skips empty registers, so over-provisioned registers
//! cost nothing. That flatness *is* the adaptive-degree claim.
//!
//! ```text
//! cargo run --release -p pms-bench --bin sweep_k
//! ```

use pms_sim::{Paradigm, PredictorKind, SimParams};
use pms_workloads::{ordered_mesh, MeshSpec};

fn main() {
    pms_trace::cli::parse_env("usage: sweep_k (no arguments)", |_| Ok(()));
    let mesh = MeshSpec::for_ports(64);
    let w = ordered_mesh(mesh, 512, 4, 500, 100);
    println!("K sweep — ordered mesh (Δ = 4), 64 processors, 512 B messages");
    println!(
        "{:>4} {:>22} {:>22} {:>14}",
        "K", "dynamic efficiency", "preload efficiency", "dyn establishes"
    );
    for k in 1..=8usize {
        let params = SimParams::default().with_ports(64).with_tdm_slots(k);
        let rate = params.link.bytes_per_ns();
        let dynamic = Paradigm::DynamicTdm(PredictorKind::Drop).run(&w, &params);
        let preload = Paradigm::PreloadTdm.run(&w, &params);
        println!(
            "{k:>4} {:>21.1}% {:>21.1}% {:>14}",
            dynamic.efficiency(rate) * 100.0,
            preload.efficiency(rate) * 100.0,
            dynamic.connections_established,
        );
    }
    println!(
        "\nK < Δ thrashes (every message re-establishes); K >= Δ caches the\n\
         whole working set, and extra registers are skipped by the TDM\n\
         counter instead of diluting bandwidth."
    );
}

//! Regenerates **Table 3**: latency of the scheduling circuit versus
//! system size, from the structural critical-path model calibrated against
//! the paper's Altera Stratix synthesis.
//!
//! ```text
//! cargo run --release -p pms-bench --bin table3
//! ```

use pms_sched::timing::TABLE3_PUBLISHED;
use pms_sched::{SlTimingModel, ASIC_DERATE, FPGA_STRATIX};

fn main() {
    pms_trace::cli::parse_env("usage: table3 (no arguments)", |_| Ok(()));
    println!("Table 3: Latency of the scheduling circuit");
    println!(
        "{:>12} {:>16} {:>14} {:>9} {:>14}",
        "System size", "Published (ns)", "Model (ns)", "Err (ns)", "ASIC /4.8 (ns)"
    );
    for (n, published) in TABLE3_PUBLISHED {
        let model = FPGA_STRATIX.latency_ns(n);
        let asic = FPGA_STRATIX.derated(ASIC_DERATE).latency_ns(n);
        println!(
            "{n:>12} {published:>16} {model:>14.1} {:>9.1} {asic:>14.1}",
            model - published as f64
        );
    }
    println!();
    println!(
        "model: latency(N) = {:.2} + 2N x {:.2} + ceil(log2 N) x {:.2}  [ns]",
        FPGA_STRATIX.fixed_ns, FPGA_STRATIX.cell_ns, FPGA_STRATIX.or_stage_ns
    );
    println!(
        "ASIC check: 128-port scheduler = {} ns (paper simulates 80 ns)",
        SlTimingModel::asic_latency_ns(128)
    );
    // Extrapolation beyond the published table, as a scaling aid.
    println!("\nExtrapolation (FPGA):");
    for n in [256usize, 512, 1024] {
        println!("{n:>12} {:>16.1}", FPGA_STRATIX.latency_ns(n));
    }
}

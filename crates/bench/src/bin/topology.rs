//! Topology comparison sweep: single-crossbar PMS versus multi-stage
//! fabrics (Omega, butterfly, oversubscribed fat tree) under per-stage
//! TDM scheduling.
//!
//! ```text
//! cargo run --release -p pms-bench --bin topology [--quick]
//! ```
//!
//! Columns are paradigms: plain `dynamic-tdm` (the flat crossbar, the
//! paper's switch) next to `mstdm-*` — the same scheduler with the
//! multi-stage routing pass of `pms-multistage`. `mstdm-crossbar` must
//! match `dynamic-tdm` exactly (the 1-stage degenerate case); the others
//! show what internal blocking costs on the same traffic. Results go to
//! `results/topology.json`. `--quick` shrinks the grid for CI.

use pms_bench::{figures, write_results};
use pms_trace::cli;

fn main() {
    let (quick, threads) = cli::parse_env("usage: topology [--quick] [--threads N]", |f| {
        Ok((f.switch("--quick"), f.threads()?))
    });
    let sweep = figures::topology(quick, threads);
    let (ports, rate) = (sweep.params.ports, sweep.params.link.bytes_per_ns());
    for (name, table) in &sweep.tables {
        println!("Topology sweep — {name} (efficiency, {ports} processors, K=4)");
        println!("{}", table.render("msg bytes", rate));
    }
    write_results("topology", &sweep.to_json());
}

//! The §6 multi-hop experiment (this repository's extension, not a paper
//! figure): buffered hop-by-hop wormhole versus end-to-end TDM pipes on a
//! 4x4 torus of switches, across message sizes.
//!
//! ```text
//! cargo run --release -p pms-bench --bin multihop
//! ```

use pms_multistage::{TorusNetwork, TorusRouter};
use pms_sim::{MultihopWormholeSim, PredictorKind, SimParams, TdmMode, TdmSim};
use pms_workloads::uniform;

fn main() {
    pms_trace::cli::parse_env("usage: multihop (no arguments)", |_| Ok(()));
    let torus = TorusNetwork::new(4, 4, 2);
    let n = torus.ports();
    let params = SimParams::default().with_ports(n).with_tdm_slots(8);
    let rate = params.link.bytes_per_ns();

    println!("Multi-hop (4x4 torus, 2 hosts/switch, uniform random traffic)");
    println!(
        "{:>10} {:>22} {:>22} {:>22}",
        "msg bytes", "multihop-wormhole", "tdm-pipes (K=8)", "pipe latency win"
    );
    for bytes in [64u32, 128, 256, 512, 1024] {
        let w = uniform(n, bytes, 12, 7);
        let worm = MultihopWormholeSim::new(&w, &params, torus.clone()).run();
        let tdm = TdmSim::new(
            &w,
            &params,
            TdmMode::Dynamic {
                predictor: PredictorKind::Drop,
            },
        )
        .with_router(Box::new(TorusRouter::new(torus.clone(), params.tdm_slots)))
        .run();
        println!(
            "{bytes:>10} {:>13.1}% ({:>4.0} ns) {:>13.1}% ({:>4.0} ns) {:>21.0}%",
            worm.efficiency(rate) * 100.0,
            worm.mean_latency_ns(),
            tdm.efficiency(rate) * 100.0,
            tdm.mean_latency_ns(),
            (1.0 - tdm.mean_latency_ns() / worm.mean_latency_ns()) * 100.0,
        );
    }
    println!();
    println!("head-latency arithmetic for one established pipe (no load):");
    for &dst in &[2usize, 4, 12, 20] {
        let hops = torus.hops(0, dst);
        println!(
            "  {hops} hops: pipe {} ns vs hop-by-hop {} ns",
            torus.pipe_latency_ns(0, dst, 20, 30),
            torus.hop_by_hop_latency_ns(0, dst, 20, 30, 80),
        );
    }
}

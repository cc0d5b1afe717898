//! Compiled communication end-to-end (§2-3.1): extract a program's
//! communication working sets, partition them into phases, edge-color each
//! phase into conflict-free TDM configurations, and run the preloaded
//! schedule through the simulator.
//!
//! ```text
//! cargo run --release --example compiled_comm
//! ```

use pms::compile::{partition_phases, validate_decomposition};
use pms::workloads::{two_phase, MeshSpec};
use pms::{Paradigm, SimParams};

fn main() {
    // The paper's Two-Phase test: one all-to-all followed by 16 random
    // nearest-neighbor rounds on a 32-processor mesh.
    let mesh = MeshSpec::for_ports(32);
    let workload = two_phase(mesh, 64, 16, 500, 100, 42);
    let k = 4; // network provisioned with 4 configuration registers

    // "The compiler can identify the appropriate communication working
    // sets": here the trace plays the role of the compiler's knowledge.
    let trace = workload.connection_trace();
    let program = partition_phases(workload.ports, &trace, k);

    println!(
        "trace: {} messages over {} distinct connections",
        trace.len(),
        program
            .phases
            .iter()
            .map(|p| p.working_set.len())
            .sum::<usize>()
    );
    println!(
        "compiled into {} phases, max multiplexing degree {}",
        program.phase_count(),
        program.max_degree()
    );
    for (i, phase) in program.phases.iter().enumerate().take(4) {
        validate_decomposition(&phase.working_set, &phase.configs)
            .expect("decomposition must be conflict-free");
        println!(
            "  phase {i:>2}: working set {:>3} connections, degree {} -> {} configs (first event {})",
            phase.working_set.len(),
            phase.working_set.max_degree(),
            phase.degree(),
            phase.first_event,
        );
    }
    if program.phase_count() > 4 {
        println!("  ... and {} more phases", program.phase_count() - 4);
    }

    // Run the compiled schedule against dynamic scheduling.
    let params = SimParams::default().with_ports(32).with_tdm_slots(k);
    let rate = params.link.bytes_per_ns();
    let pre = Paradigm::PreloadTdm.run(&workload, &params);
    let dynamic = Paradigm::DynamicTdm(pms::PredictorKind::Drop).run(&workload, &params);
    println!(
        "\npreload-tdm : {:>5.1}% efficiency, {} register loads",
        pre.efficiency(rate) * 100.0,
        pre.preload_loads
    );
    println!(
        "dynamic-tdm : {:>5.1}% efficiency, {} connections established at run time",
        dynamic.efficiency(rate) * 100.0,
        dynamic.connections_established
    );
}

#[test]
fn runs() {
    main();
}

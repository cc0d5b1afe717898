//! Integration: the compiled-communication pipeline — workload trace ->
//! phase partitioning -> edge coloring -> scheduler preload -> TDM
//! counter -> the grants the crossbar realizes.

use pms::compile::{partition_phases, validate_decomposition};
use pms::workloads::{two_phase, MeshSpec};
use pms::{BitMatrix, Scheduler, SchedulerConfig, TdmCounter};

#[test]
fn compiled_phases_preload_and_cycle() {
    let mesh = MeshSpec::for_ports(16);
    let w = two_phase(mesh, 64, 4, 0, 0, 21);
    let program = partition_phases(w.ports, &w.connection_trace(), 4);
    assert!(program.phase_count() >= 2, "all-to-all forces many phases");
    assert!(program.max_degree() <= 4);

    let mut sched = Scheduler::new(SchedulerConfig::new(16, 4));
    let mut tdm = TdmCounter::new(4);
    for phase in &program.phases {
        validate_decomposition(&phase.working_set, &phase.configs).unwrap();
        // Load this phase into the registers.
        for (s, cfg) in phase.configs.iter().enumerate() {
            sched.preload(s, cfg.clone());
        }
        // The TDM counter must visit exactly the loaded slots.
        let mut visited = std::collections::BTreeSet::new();
        for _ in 0..8 {
            if let Some(s) = tdm.advance(sched.configs()) {
                visited.insert(s);
            }
        }
        assert_eq!(visited.len(), phase.degree().min(4));
        // Every connection of the phase is established somewhere.
        for (u, v) in phase.working_set.iter() {
            assert!(sched.established(u, v), "({u},{v}) missing after preload");
        }
        for s in 0..4usize.min(phase.degree()) {
            sched.unload(s);
        }
    }
}

#[test]
fn preloaded_phase_grants_match_configs() {
    let mut sched = Scheduler::new(SchedulerConfig::new(8, 2));
    let mut tdm = TdmCounter::new(2);
    let shift1 = BitMatrix::from_pairs(8, 8, (0..8).map(|u| (u, (u + 1) % 8)));
    let shift2 = BitMatrix::from_pairs(8, 8, (0..8).map(|u| (u, (u + 2) % 8)));
    sched.preload(0, shift1);
    sched.preload(1, shift2);
    // Alternate slots alternate the shift the fabric realizes.
    let s1 = tdm.advance(sched.configs()).unwrap();
    let route1 = sched.grant(s1, 0).unwrap();
    let s2 = tdm.advance(sched.configs()).unwrap();
    let route2 = sched.grant(s2, 0).unwrap();
    assert_ne!(s1, s2);
    assert_ne!(route1, route2);
    assert_eq!(route1 + route2, 3, "routes are +1 and +2 from input 0");
}

#[test]
fn degree_tradeoff_matches_paper_section2() {
    // §2: more slots -> fewer phases (fewer reconfigurations), but each
    // connection gets 1/k of the bandwidth. Quantify on an all-to-all.
    let mesh = MeshSpec::for_ports(16);
    let w = two_phase(mesh, 64, 0, 0, 0, 3);
    let trace = w.connection_trace();
    let mut last_phases = usize::MAX;
    for k in [1usize, 2, 4, 8, 15] {
        let prog = partition_phases(16, &trace, k);
        assert!(prog.phase_count() <= last_phases, "k={k} grew phases");
        assert!(prog.max_degree() <= k);
        last_phases = prog.phase_count();
    }
    // Δ = 15 all-to-all fits a single phase with 15 slots.
    assert_eq!(partition_phases(16, &trace, 15).phase_count(), 1);
}

#[test]
fn two_level_working_set_swaps_into_system() {
    use pms::predict::TwoLevelWorkingSet;
    let primary: Vec<BitMatrix> = vec![BitMatrix::from_pairs(
        8,
        8,
        (0..8).map(|u| (u, (u + 1) % 8)),
    )];
    let secondary: Vec<BitMatrix> = vec![
        BitMatrix::from_pairs(8, 8, (0..8).map(|u| (u, (u + 3) % 8))),
        BitMatrix::from_pairs(8, 8, (0..8).map(|u| (u, (u + 5) % 8))),
    ];
    let mut two_level = TwoLevelWorkingSet::new(primary, secondary);
    let mut sched = Scheduler::new(SchedulerConfig::new(8, 2));

    // Condition false -> primary loaded.
    for (s, cfg) in two_level.active().iter().enumerate() {
        sched.preload(s, cfg.clone());
    }
    assert!(sched.established(0, 1));

    // Condition flips -> secondary swapped in.
    if let Some(configs) = two_level.select(true) {
        let configs: Vec<BitMatrix> = configs.to_vec();
        sched.unload(0);
        sched.unload(1);
        for (s, cfg) in configs.iter().enumerate() {
            sched.preload(s, cfg.clone());
        }
    }
    assert!(!sched.established(0, 1));
    assert!(sched.established(0, 3) && sched.established(0, 5));
}

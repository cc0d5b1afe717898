//! Phase partitioning and the compiled preload schedule.
//!
//! §2: "The partitioning of the communication requirements into phases is
//! not unique ... there is a tradeoff between the number of phases, p, and
//! the size of each working set W^(j)": more phases mean more
//! reconfigurations; larger working sets mean a larger multiplexing degree
//! and less bandwidth per connection. [`partition_phases`] walks a
//! connection trace and closes a phase exactly when admitting the next
//! connection would push the working set's degree past the target, which
//! yields the minimal number of phases for a left-to-right scan.

use crate::coloring::exact_coloring;
use crate::WorkingSet;
use pms_bitmat::BitMatrix;

#[cfg(test)]
mod reference;

/// One compiled program phase: its working set and the Δ-slot TDM
/// decomposition to preload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledPhase {
    /// The working set `W^(j)`.
    pub working_set: WorkingSet,
    /// The conflict-free configurations `C_1 ... C_{k_j}` to preload.
    pub configs: Vec<BitMatrix>,
    /// Index of the first trace entry belonging to this phase.
    pub first_event: usize,
}

impl CompiledPhase {
    /// The multiplexing degree `k_j` this phase requires.
    pub fn degree(&self) -> usize {
        self.configs.len()
    }
}

/// A compiled communication schedule: one preloadable phase per
/// working-set change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledProgram {
    /// The phases, in program order.
    pub phases: Vec<CompiledPhase>,
    /// Number of ports.
    pub ports: usize,
}

impl CompiledProgram {
    /// The largest multiplexing degree over all phases (the `K` the
    /// network must provision).
    pub fn max_degree(&self) -> usize {
        self.phases
            .iter()
            .map(CompiledPhase::degree)
            .max()
            .unwrap_or(0)
    }

    /// Number of phases `p` (equals the number of network
    /// reconfigurations).
    pub fn phase_count(&self) -> usize {
        self.phases.len()
    }

    /// The phase active at trace position `event`.
    pub fn phase_at(&self, event: usize) -> Option<&CompiledPhase> {
        let after = self.phases.partition_point(|p| p.first_event <= event);
        after.checked_sub(1).map(|j| &self.phases[j])
    }
}

/// Partitions a connection trace into phases whose working sets need at
/// most `k_max` TDM slots, then compiles each phase with the optimal
/// edge coloring.
///
/// Cost: O(1) per trace entry plus one [`exact_coloring`] per phase. The
/// open phase keeps a membership matrix and per-port degree counters, so
/// the degree test never rescans the working set.
///
/// # Panics
/// Panics if `k_max == 0` or any trace endpoint is out of range.
pub fn partition_phases(ports: usize, trace: &[(usize, usize)], k_max: usize) -> CompiledProgram {
    assert!(k_max > 0, "need at least one slot per phase");
    assert!(ports > 0, "working set needs at least one port");
    let mut phases = Vec::new();
    let mut open = OpenPhase::new(ports);

    for (i, &(u, v)) in trace.iter().enumerate() {
        assert!(
            u < ports && v < ports,
            "connection ({u},{v}) out of range for {ports} ports"
        );
        if open.member.get(u, v) {
            continue; // temporal locality: repeated connection is free
        }
        // The open phase never exceeds k_max, so admitting (u, v) pushes
        // it past k_max exactly when u or v is already saturated. An
        // empty phase has no saturated port (k_max >= 1).
        if open.out_deg[u] == k_max || open.in_deg[v] == k_max {
            // Close the phase; the new connection opens the next one.
            phases.push(open.close(ports));
            open.first_event = i;
        }
        open.member.set(u, v, true);
        open.out_deg[u] += 1;
        open.in_deg[v] += 1;
        open.edges.push((u, v));
    }
    if !open.edges.is_empty() {
        phases.push(open.close(ports));
    }
    CompiledProgram { phases, ports }
}

/// The phase [`partition_phases`] is growing: its connections in arrival
/// order, their membership matrix and the per-port degrees.
struct OpenPhase {
    member: BitMatrix,
    out_deg: Vec<usize>,
    in_deg: Vec<usize>,
    edges: Vec<(usize, usize)>,
    first_event: usize,
}

impl OpenPhase {
    fn new(ports: usize) -> Self {
        Self {
            member: BitMatrix::square(ports),
            out_deg: vec![0; ports],
            in_deg: vec![0; ports],
            edges: Vec::new(),
            first_event: 0,
        }
    }

    /// Compiles the phase and empties it, resetting only the bits and
    /// counters its connections touched.
    fn close(&mut self, ports: usize) -> CompiledPhase {
        for &(u, v) in &self.edges {
            self.member.set(u, v, false);
            self.out_deg[u] = 0;
            self.in_deg[v] = 0;
        }
        let working_set = WorkingSet::from_pairs(ports, self.edges.drain(..));
        CompiledPhase {
            configs: exact_coloring(&working_set),
            working_set,
            first_event: self.first_event,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coloring::validate_decomposition;
    use proptest::prelude::*;

    /// A port count in 1..=24 and a trace of up to 400 entries drawn from
    /// a pool of at most 48 pairs, so connections repeat.
    fn ports_and_trace() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
        (1usize..25)
            .prop_flat_map(|ports| {
                (
                    Just(ports),
                    prop::collection::vec((0..ports, 0..ports), 1..49),
                )
            })
            .prop_flat_map(|(ports, pool)| {
                let picks = prop::collection::vec(0..pool.len(), 0..401);
                let trace = picks.prop_map(move |picks| picks.iter().map(|&i| pool[i]).collect());
                (Just(ports), trace)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The incremental partitioner compiles the same program as the
        /// clone-and-recount reference: phases, boundaries, working sets
        /// and configurations in order.
        #[test]
        fn matches_reference((ports, trace) in ports_and_trace(), k_max in 1usize..7) {
            prop_assert_eq!(
                partition_phases(ports, &trace, k_max),
                reference::partition_phases(ports, &trace, k_max)
            );
        }
    }

    #[test]
    fn matches_reference_on_two_phase128() {
        use pms_workloads::{two_phase, MeshSpec};
        let trace = two_phase(MeshSpec::for_ports(128), 64, 16, 500, 100, 11).connection_trace();
        assert_eq!(trace.len(), 18_304);
        let prog = partition_phases(128, &trace, 4);
        assert_eq!(prog, reference::partition_phases(128, &trace, 4));
        assert_eq!(prog.phase_count(), 33);
    }

    #[test]
    #[should_panic(expected = "out of range for 4 ports")]
    fn out_of_range_endpoint_rejected() {
        partition_phases(4, &[(0, 1), (1, 4)], 2);
    }

    #[test]
    fn single_phase_when_degree_fits() {
        // A permutation repeated many times: Δ = 1, one phase.
        let trace: Vec<(usize, usize)> = (0..100).map(|i| (i % 8, (i + 1) % 8)).collect();
        let prog = partition_phases(8, &trace, 2);
        assert_eq!(prog.phase_count(), 1);
        assert_eq!(prog.max_degree(), 1);
        validate_decomposition(&prog.phases[0].working_set, &prog.phases[0].configs).unwrap();
    }

    #[test]
    fn phase_split_on_degree_overflow() {
        // First 3 connections fan into output 0 (Δ=3 > k_max=2 after the
        // third), so a new phase must open.
        let trace = [(0, 0), (1, 0), (2, 0), (3, 0)];
        let prog = partition_phases(8, &trace, 2);
        assert!(prog.phase_count() >= 2);
        assert!(prog.max_degree() <= 2);
        // Every trace connection is covered by some phase.
        for &(u, v) in &trace {
            assert!(
                prog.phases.iter().any(|p| p.working_set.contains(u, v)),
                "({u},{v}) missing"
            );
        }
    }

    #[test]
    fn phase_boundaries_recorded() {
        let trace = [(0, 0), (1, 0), (2, 0)];
        let prog = partition_phases(8, &trace, 2);
        assert_eq!(prog.phases[0].first_event, 0);
        assert_eq!(prog.phases[1].first_event, 2);
        assert_eq!(prog.phase_at(0).unwrap().first_event, 0);
        assert_eq!(prog.phase_at(1).unwrap().first_event, 0);
        assert_eq!(prog.phase_at(2).unwrap().first_event, 2);
    }

    #[test]
    fn two_phase_program_compiles_to_two_preloads() {
        // Phase A: all-to-one gather on output 0 (Δ=4); phase B: ring.
        // With k_max = 4 the gather fits in one phase.
        let mut trace: Vec<(usize, usize)> = (1..5).map(|u| (u, 0)).collect();
        trace.extend((0..8).map(|u| (u, (u + 1) % 8)));
        let prog = partition_phases(8, &trace, 4);
        assert_eq!(prog.phase_count(), 2, "gather then ring");
        assert_eq!(prog.phases[0].degree(), 4);
        assert_eq!(prog.phases[1].degree(), 1);
        for p in &prog.phases {
            validate_decomposition(&p.working_set, &p.configs).unwrap();
        }
    }

    #[test]
    fn empty_trace_gives_empty_program() {
        let prog = partition_phases(8, &[], 2);
        assert_eq!(prog.phase_count(), 0);
        assert_eq!(prog.max_degree(), 0);
        assert!(prog.phase_at(0).is_none());
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_kmax_rejected() {
        partition_phases(8, &[(0, 1)], 0);
    }

    #[test]
    fn more_slots_fewer_phases() {
        // The §2 tradeoff, quantified: raising k_max monotonically lowers
        // the phase count on an all-to-all trace.
        let trace: Vec<(usize, usize)> = (0..8)
            .flat_map(|u| (0..8).filter(move |&v| v != u).map(move |v| (u, v)))
            .collect();
        let p1 = partition_phases(8, &trace, 1).phase_count();
        let p3 = partition_phases(8, &trace, 3).phase_count();
        let p7 = partition_phases(8, &trace, 7).phase_count();
        assert!(p1 >= p3 && p3 >= p7);
        assert_eq!(p7, 1, "Δ=7 all-to-all fits one phase with 7 slots");
    }
}

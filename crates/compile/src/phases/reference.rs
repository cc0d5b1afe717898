//! The clone-and-recount partitioner [`partition_phases`](super::partition_phases)
//! replaced, kept as the oracle for the differential tests in
//! `super::tests`.
//!
//! For every connection not yet in the working set it clones the whole
//! set, inserts the connection and recounts the maximum degree over every
//! edge: O(|W|) work per trace entry. The incremental partitioner must
//! produce the same [`CompiledProgram`] on every trace.

use super::{CompiledPhase, CompiledProgram};
use crate::coloring::exact_coloring;
use crate::WorkingSet;

/// Partitions `trace` into phases of degree at most `k_max`, recomputing
/// the tentative working set's degree from scratch per new connection.
pub(super) fn partition_phases(
    ports: usize,
    trace: &[(usize, usize)],
    k_max: usize,
) -> CompiledProgram {
    assert!(k_max > 0, "need at least one slot per phase");
    let mut phases = Vec::new();
    let mut current = WorkingSet::new(ports);
    let mut first_event = 0;

    for (i, &(u, v)) in trace.iter().enumerate() {
        if current.contains(u, v) {
            continue;
        }
        let mut tentative = current.clone();
        tentative.insert(u, v);
        if tentative.max_degree() > k_max && !current.is_empty() {
            phases.push(CompiledPhase {
                configs: exact_coloring(&current),
                working_set: current,
                first_event,
            });
            current = WorkingSet::new(ports);
            current.insert(u, v);
            first_event = i;
        } else {
            current = tentative;
        }
    }
    if !current.is_empty() {
        phases.push(CompiledPhase {
            configs: exact_coloring(&current),
            working_set: current,
            first_event,
        });
    }
    CompiledProgram { phases, ports }
}

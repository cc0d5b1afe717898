//! Property tests for fault-mask admission (ISSUE 3 satellite).
//!
//! Two invariants the whole fault subsystem leans on:
//!
//! 1. ANDing a fault mask into scheduler admission (the stateless
//!    `admit` closure of `Scheduler::pass_admitted`, here a plain
//!    `config ⊆ mask` check) never yields an admitted connection over a
//!    dead link;
//! 2. clearing the mask restores the original grant set — faults degrade
//!    the schedule, they do not corrupt it.

use pms_bitmat::BitMatrix;
use pms_faults::{FaultKind, FaultPlan, FaultState};
use pms_sched::{Scheduler, SchedulerConfig};
use proptest::prelude::*;

const N: usize = 8;

/// A random request matrix (any Boolean matrix — the SL array resolves
/// port conflicts itself).
fn requests(n: usize) -> impl Strategy<Value = BitMatrix> {
    prop::collection::vec((0..n, 0..n), 0..2 * n)
        .prop_map(move |pairs| BitMatrix::from_pairs(n, n, pairs))
}

/// A random fault mask: `1` = usable, with a handful of dead links.
fn mask(n: usize) -> impl Strategy<Value = BitMatrix> {
    prop::collection::vec((0..n, 0..n), 0..n).prop_map(move |dead| {
        let mut m = BitMatrix::square(n);
        for u in 0..n {
            for v in 0..n {
                m.set(u, v, true);
            }
        }
        for (u, v) in dead {
            m.set(u, v, false);
        }
        m
    })
}

/// `a ∧ ¬b` has no ones.
fn subset_of(a: &BitMatrix, b: &BitMatrix) -> bool {
    BitMatrix::zip2_with(a, b, |aw, bw| aw & !bw).all_zero()
}

proptest! {
    /// No pass ever grants across a dead link, no matter how the request
    /// stream interleaves with the masking.
    #[test]
    fn admitted_grants_avoid_dead_links(reqs in requests(N), m in mask(N)) {
        let mut sched = Scheduler::new(SchedulerConfig::new(N, 2));
        for _ in 0..4 {
            sched.pass_admitted(&reqs, None, |cfg| subset_of(cfg, &m));
            prop_assert!(
                subset_of(sched.b_star(), &m),
                "granted over a dead link: B* = {:?}",
                sched.b_star().iter_ones().collect::<Vec<_>>()
            );
        }
    }

    /// The same invariant through [`FaultState::admits`] — the closure the
    /// simulators actually install — driven by a scripted plan.
    #[test]
    fn fault_state_admission_masks_grants(
        reqs in requests(N),
        dead in prop::collection::vec((0u32..N as u32, 0u32..N as u32), 1..N),
    ) {
        let mut plan = FaultPlan::new();
        for &(u, v) in &dead {
            plan.push(0, 1_000, FaultKind::LinkDown { src: u, dst: v });
        }
        let mut st = FaultState::new(N, plan);
        st.poll(0);
        let mut sched = Scheduler::new(SchedulerConfig::new(N, 2));
        for _ in 0..4 {
            sched.pass_admitted(&reqs, None, |cfg| st.admits(cfg));
            prop_assert!(subset_of(sched.b_star(), st.grant_mask()));
            for &(u, v) in &dead {
                prop_assert!(!sched.established(u as usize, v as usize));
            }
        }
    }

    /// Mask, revoke, clear, re-pass: the grant set returns to exactly what
    /// it was before the fault. (Rotation off so the SL priority — and
    /// hence the resolution of port conflicts — is identical on both
    /// passes.)
    #[test]
    fn clearing_the_mask_restores_the_grant_set(reqs in requests(N), m in mask(N)) {
        let mut sched = Scheduler::new(SchedulerConfig::new(N, 1).with_rotation(false));
        sched.pass(&reqs);
        let g0 = sched.b_star().clone();

        // Fault window opens: dead-link connections are revoked and the
        // mask keeps them out of subsequent passes.
        for (u, v) in g0.iter_ones().collect::<Vec<_>>() {
            if !m.get(u, v) {
                for s in sched.slots_of(u, v) {
                    sched.revoke(s, u, v);
                }
            }
        }
        sched.pass_admitted(&reqs, None, |cfg| subset_of(cfg, &m));
        prop_assert!(subset_of(sched.b_star(), &m));
        prop_assert!(subset_of(sched.b_star(), &g0), "masked pass grants a subset");

        // Fault clears: one plain pass with the unchanged requests brings
        // the grant set back byte-for-byte.
        sched.pass(&reqs);
        prop_assert_eq!(sched.b_star(), &g0);
    }
}

//! Integration: every configuration the scheduler emits must load into
//! the crossbar (a partial permutation); blocking fabrics (checked through
//! their stage-graph routers) accept only some of them.

use pms::bitmat::BitMatrix;
use pms::multistage::{MultistageRouter, StageGraph};
use pms::sched::{Scheduler, SchedulerConfig, SlotRouter};
use rand::prelude::*;
use rand::rngs::StdRng;

fn random_requests(n: usize, rng: &mut StdRng, density: usize) -> BitMatrix {
    let mut r = BitMatrix::square(n);
    for _ in 0..density {
        r.set(rng.gen_range(0..n), rng.gen_range(0..n), true);
    }
    r
}

/// Whether one slot of `graph` can carry every connection of `cfg`.
fn realizable(graph: &StageGraph, cfg: &BitMatrix) -> bool {
    let mut router = MultistageRouter::new(graph.clone(), 1);
    cfg.iter_ones().all(|(u, v)| router.try_admit(0, u, v))
}

#[test]
fn scheduler_output_always_loads_into_crossbar() {
    let n = 32;
    let mut rng = StdRng::seed_from_u64(42);
    let mut sched = Scheduler::new(SchedulerConfig::new(n, 4));
    for _ in 0..200 {
        let r = random_requests(n, &mut rng, 48);
        sched.pass(&r);
        for s in 0..sched.slots() {
            assert!(sched.config(s).is_partial_permutation(), "slot {s}");
        }
    }
}

#[test]
fn crossbar_accepts_everything_omega_does_not() {
    // The scheduler targets a crossbar; an Omega network accepts only a
    // subset of its configurations — quantify that gap.
    let n = 16;
    let mut rng = StdRng::seed_from_u64(7);
    let mut sched = Scheduler::new(SchedulerConfig::new(n, 2));
    let omega = StageGraph::omega(n);
    let mut omega_rejects = 0;
    let mut total = 0;
    for _ in 0..100 {
        let r = random_requests(n, &mut rng, 24);
        sched.pass(&r);
        for s in 0..sched.slots() {
            let cfg = sched.config(s);
            assert!(cfg.is_partial_permutation(), "crossbar must accept");
            total += 1;
            if !realizable(&omega, cfg) {
                omega_rejects += 1;
            }
        }
        sched.flush_dynamic();
    }
    assert!(
        omega_rejects > 0,
        "an Omega fabric must block some of {total} crossbar configurations"
    );
}

#[test]
fn full_bisection_fat_tree_accepts_all_scheduler_output() {
    let n = 16;
    let mut rng = StdRng::seed_from_u64(11);
    let mut sched = Scheduler::new(SchedulerConfig::new(n, 3));
    let ft = StageGraph::fat_tree(n, 4, 4);
    for _ in 0..100 {
        let r = random_requests(n, &mut rng, 32);
        sched.pass(&r);
        for s in 0..sched.slots() {
            assert!(realizable(&ft, sched.config(s)));
        }
    }
}

#[test]
fn oversubscribed_fat_tree_rejects_some_scheduler_output() {
    let n = 16;
    let mut rng = StdRng::seed_from_u64(13);
    let mut sched = Scheduler::new(SchedulerConfig::new(n, 2));
    let ft = StageGraph::fat_tree(n, 4, 1); // single up-link per leaf
    let mut rejects = 0;
    for _ in 0..100 {
        let r = random_requests(n, &mut rng, 32);
        sched.pass(&r);
        for s in 0..sched.slots() {
            if !realizable(&ft, sched.config(s)) {
                rejects += 1;
            }
        }
        sched.flush_dynamic();
    }
    assert!(
        rejects > 0,
        "4:1 oversubscription must reject cross traffic"
    );
}

//! Sweep runner shared by every figure/sweep binary.
//!
//! All sweeps are embarrassingly parallel grids of independent,
//! deterministic simulations. [`run_cells`] fans a job list over scoped
//! threads that claim jobs from a shared cursor, returning results in
//! **job order** regardless of which thread finished which job, so sweep
//! output is byte-identical at any thread count. The lane count comes
//! from the shared `--threads` flag ([`pms_trace::cli::Flags::threads`]).
//!
//! Each cell's *simulation* is sequential; only the order in which cells
//! run varies with the thread count. Results are re-assembled by job
//! index, so the rendered tables, CSVs, and baselines never depend on
//! `--threads`.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `f` over `jobs` on up to `threads` scoped threads and returns
/// the results **in input order**. Threads claim the next job index
/// from a shared cursor, so a slow cell never idles the others.
/// `threads = 1` runs inline on the calling thread with zero spawns. A
/// panicking job reaches the caller with its original payload.
pub fn run_cells<T, R, F>(threads: usize, jobs: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let lanes = threads.clamp(1, jobs.len().max(1));
    if lanes == 1 {
        return jobs.into_iter().enumerate().map(|(i, j)| f(i, j)).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    // The cursor only hands out indices; each job itself moves through its
    // own mutex, so `Relaxed` publishes nothing else.
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(i) else {
                return done;
            };
            let job = slot
                .lock()
                .expect("no job runs while its slot is locked")
                .take()
                .expect("the cursor hands out each job once");
            done.push((i, f(i, job)));
        }
    };
    let mut out: Vec<(usize, R)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..lanes).map(|_| s.spawn(work)).collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|p| resume_unwind(p)))
            .collect()
    });
    out.sort_unstable_by_key(|&(i, _)| i);
    out.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Condvar;
    use std::time::Duration;

    /// Each job waits until every lane holds a job of its round, so each
    /// lane runs one job per round: lane results concatenated without
    /// sorting by job index would come back out of order.
    #[test]
    fn run_cells_preserves_job_order() {
        for threads in [1, 2, 4] {
            let arrived = (Mutex::new(0), Condvar::new());
            let jobs = threads * 5;
            let out = run_cells(threads, (0..jobs).collect(), |i, x: usize| {
                assert_eq!(i, x);
                let (count, all_here) = &arrived;
                let mut count = count.lock().unwrap();
                *count += 1;
                all_here.notify_all();
                let round_full = (i / threads + 1) * threads;
                let (count, wait) = all_here
                    .wait_timeout_while(count, Duration::from_secs(60), |n| *n < round_full)
                    .unwrap();
                drop(count);
                assert!(!wait.timed_out(), "job {i}: lanes never all held a job");
                x * 2
            });
            assert_eq!(out, (0..jobs).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_cells_empty_job_list() {
        for threads in [1, 4] {
            let out: Vec<u8> = run_cells(threads, Vec::<u8>::new(), |_, x| x);
            assert!(out.is_empty());
        }
    }

    #[test]
    fn run_cells_more_threads_than_jobs() {
        let calls = AtomicUsize::new(0);
        let out = run_cells(16, vec![10, 20, 30], |i, x: u32| {
            calls.fetch_add(1, Ordering::Relaxed);
            x + i as u32
        });
        assert_eq!(out, vec![10, 21, 32]);
        assert_eq!(calls.load(Ordering::Relaxed), 3, "each job runs once");
    }

    #[test]
    fn run_cells_panic_reaches_the_caller() {
        let caught = std::panic::catch_unwind(|| {
            run_cells(3, (0..8).collect(), |_, x: u32| {
                if x == 5 {
                    panic!("job {x} failed");
                }
                x
            })
        });
        let payload = caught.expect_err("a panicking job must panic the caller");
        let message = payload
            .downcast_ref::<String>()
            .expect("the job's own payload reaches the caller");
        assert_eq!(message, "job 5 failed");
    }
}

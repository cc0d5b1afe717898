//! Sweep runner shared by every figure/sweep binary.
//!
//! All sweeps are embarrassingly parallel grids of independent,
//! deterministic simulations. This module owns the two pieces every
//! binary needs:
//!
//! * [`threads_flag`] — the common `--threads N` CLI contract (default:
//!   all available cores, `1` = fully sequential, a malformed value is a
//!   [`ThreadsFlagError`]);
//! * [`run_cells`] — fan a job list over scoped threads that claim jobs
//!   from a shared cursor, returning results in **job order** regardless
//!   of which thread finished which job, so sweep output is
//!   byte-identical at any thread count.
//!
//! Each cell's *simulation* is sequential; only the order in which cells
//! run varies with the thread count. Results are re-assembled by job
//! index, so the rendered tables, CSVs, and baselines never depend on
//! `--threads`.

use std::fmt;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The number of hardware threads available, with a floor of 1.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A `--threads` flag whose value is missing or not a lane count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadsFlagError {
    /// The value as given (empty when it is missing).
    pub value: String,
}

impl fmt::Display for ThreadsFlagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "--threads expects a lane count, got `{}`", self.value)
    }
}

impl std::error::Error for ThreadsFlagError {}

impl ThreadsFlagError {
    /// Prints the error and exits with status 2, the usage-error code
    /// every binary uses.
    pub fn exit(&self) -> ! {
        eprintln!("{self}");
        std::process::exit(2)
    }
}

/// Parses `--threads N` (or `--threads=N`) out of `argv`, defaulting to
/// every available core. `0` is read as `1`, the sequential path.
pub fn threads_flag(args: &[String]) -> Result<usize, ThreadsFlagError> {
    let mut threads = available_parallelism();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let value = if a == "--threads" {
            it.next().map_or("", String::as_str)
        } else if let Some(v) = a.strip_prefix("--threads=") {
            v
        } else {
            continue;
        };
        threads = value
            .parse::<usize>()
            .map_err(|_| ThreadsFlagError {
                value: value.to_string(),
            })?
            .max(1);
    }
    Ok(threads)
}

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

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn threads_flag_parses_both_forms() {
        assert_eq!(threads_flag(&argv(&["--threads", "3"])), Ok(3));
        assert_eq!(threads_flag(&argv(&["--threads=5"])), Ok(5));
        assert_eq!(threads_flag(&argv(&["--threads", "0"])), Ok(1));
        assert_eq!(threads_flag(&argv(&[])), Ok(available_parallelism()));
        // A malformed or missing value is an error, not a silent default.
        for (args, value) in [
            (&["--threads", "lots"][..], "lots"),
            (&["--threads"], ""),
            (&["--threads=-1"], "-1"),
        ] {
            let value = value.to_string();
            assert_eq!(threads_flag(&argv(args)), Err(ThreadsFlagError { value }));
        }
    }

    #[test]
    fn run_cells_preserves_job_order() {
        for threads in [1, 2, 4] {
            let out = run_cells(threads, (0..37).collect(), |i, x: i32| {
                assert_eq!(i as i32, x);
                x * 2
            });
            assert_eq!(out, (0..37).map(|x| x * 2).collect::<Vec<_>>());
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

//! The run context every workload shares: repeated set-up, the
//! time-bounded loop of identical rounds, layer attribution, and the
//! `pms_trace::prof` counters.

use crate::metrics::Metrics;
use crate::spans::Spans;
use crate::stats::{median, quartiles};
use pms_trace::prof::{self, ProfKernel};
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Fewest timed rounds per run, so every call has a second sample.
const MIN_ROUNDS: usize = 2;

/// How large a workload's inputs are. The command line always runs
/// `Full`; the tests run `Tiny` to check the metric names cheaply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the workload table documents.
    Full,
    /// A few ports and messages, for tests.
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// A generator seed derived from the benchmark seed: seed 0 yields
/// `base` itself, so the default run reproduces the seeds the figure
/// binaries hard-code.
pub fn derive_seed(base: u64, seed: u64) -> u64 {
    base ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// State of one benchmark run.
pub struct Ctx {
    /// Benchmark seed (`--seed`).
    pub seed: u64,
    /// Measuring budget for the timed rounds (`--seconds`).
    pub seconds: f64,
    /// Whether this is the traced run (`--trace 1`).
    pub traced: bool,
    /// Input size.
    pub size: Size,
    /// Worker lanes the simulator runs on.
    pub lanes: usize,
    /// Directory for scratch files and the span file.
    pub out_dir: PathBuf,
    /// Benchmark-side spans.
    pub spans: Spans,
    /// Metric values.
    pub metrics: Metrics,
    /// Operations attempted (messages offered, requests ingested, or
    /// trace lines written).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Output checks that failed.
    pub errors: Vec<String>,
    /// Host seconds of each timed round.
    pub round_secs: Vec<f64>,
    /// The percentile `cell.ms_tail` reports and its sample count.
    pub cell_tail: Option<(f64, usize)>,
}

impl Ctx {
    /// A fresh context.
    pub fn new(seed: u64, seconds: f64, traced: bool, size: Size, out_dir: PathBuf) -> Self {
        Ctx {
            seed,
            seconds,
            traced,
            size,
            lanes: 1,
            out_dir,
            spans: Spans::default(),
            metrics: Metrics::default(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            round_secs: Vec::new(),
            cell_tail: None,
        }
    }

    /// Records a failed output check.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.errors.push(what.into());
    }

    /// A scratch path in the output directory, unique to this process.
    pub fn scratch_path(&self, name: &str) -> PathBuf {
        self.out_dir
            .join(format!("{name}-{}.tmp", std::process::id()))
    }

    /// Builds the inputs [`SETUP_REPS`] times, each followed by `warm`
    /// (a warm-up call through the code the rounds time), and keeps the
    /// last set. Sets `setup_s` and `workloads.build_s` to the medians.
    pub fn setup<T>(&mut self, mut build: impl FnMut() -> T, mut warm: impl FnMut(&T)) -> T {
        let mut setups = Vec::new();
        let mut builds = Vec::new();
        let mut inputs = None;
        for i in 0..SETUP_REPS {
            // Drop the previous set first so peak memory holds one.
            drop(inputs.take());
            let id = self.spans.open(format!("setup {i}"));
            let (built, secs) = self
                .spans
                .layer("workloads.build_s", "build inputs", &mut build);
            builds.push(secs);
            let warm_id = self.spans.open("warm-up");
            warm(&built);
            self.spans.close(warm_id);
            setups.push(self.spans.close(id));
            inputs = Some(built);
        }
        self.metrics.set("setup_s", median(&setups));
        self.metrics.set("workloads.build_s", median(&builds));
        inputs.expect("at least one set-up")
    }

    /// Runs identical rounds until the next one would overrun
    /// `--seconds`, and at least [`MIN_ROUNDS`]. `round(i, spans)` runs
    /// round `i`, timing its layer calls through `spans`.
    ///
    /// Sets `wall_s` (and `traced.wall_s`, the same number) to the sum
    /// over the round's layer calls of each call's fastest time across
    /// the rounds, plus the fastest remainder outside the calls
    /// (`unattributed_s`). The machine's slow periods last seconds and
    /// only ever add time, so per-call minima over interleaved rounds
    /// are far steadier than any statistic of whole rounds. Each layer's
    /// metric gets its calls' share of that sum, so the layer times plus
    /// `unattributed_s` add up to `traced.wall_s`. Traced, it also
    /// exports the `prof` counters per round.
    pub fn rounds(&mut self, mut round: impl FnMut(usize, &mut Spans)) {
        if self.traced {
            prof::reset();
            prof::set_enabled(true);
        }
        let start = Instant::now();
        let mut calls: Vec<Vec<(&'static str, f64)>> = Vec::new();
        let mut rest = Vec::new();
        loop {
            let i = self.round_secs.len();
            let id = self.spans.open(format!("round {i}"));
            round(i, &mut self.spans);
            let secs = self.spans.close(id);
            let round_calls = self.spans.layer_calls(id);
            rest.push(secs - round_calls.iter().map(|c| c.1).sum::<f64>());
            calls.push(round_calls);
            self.round_secs.push(secs);
            let next = start.elapsed().as_secs_f64() + median(&self.round_secs);
            if self.round_secs.len() >= MIN_ROUNDS && next > self.seconds {
                break;
            }
        }
        prof::set_enabled(false);

        let mut wall = rest.iter().copied().fold(f64::INFINITY, f64::min);
        self.metrics.set("unattributed_s", wall);
        for (k, &(layer, _)) in calls[0].iter().enumerate() {
            let nth = calls.iter().filter_map(|c| c.get(k));
            let secs = nth.map(|c| c.1).fold(f64::INFINITY, f64::min);
            self.metrics.add(layer, secs);
            wall += secs;
        }
        self.metrics.set("wall_s", wall);
        self.metrics.set("traced.wall_s", wall);
        // On one lane the N-lane run is the 1-lane run; `ports4096`
        // overrides these after rerunning its cells on one lane.
        self.metrics.set("par.laneN_s", wall);
        self.metrics.set("par.lane1_s", wall);
        self.metrics.set("par.speedup", 1.0);
        if self.traced {
            export_prof(&mut self.metrics, self.round_secs.len() as f64);
        }
    }

    /// `(q1, median, q3)` of the round times.
    pub fn round_quartiles(&self) -> (f64, f64, f64) {
        let (q1, q3) = quartiles(&self.round_secs);
        (q1, median(&self.round_secs), q3)
    }
}

/// Copies the `prof` counters, per round, into the per-layer metrics.
/// `est_s` is calls times the mean of the 1-in-64 timed calls.
fn export_prof(m: &mut Metrics, rounds: f64) {
    for snap in prof::snapshot() {
        let mean_ns = if snap.timed_calls == 0 {
            0.0
        } else {
            snap.timed_ns as f64 / snap.timed_calls as f64
        };
        let calls = snap.calls as f64 / rounds;
        let words = snap.words as f64 / rounds;
        let est_s = calls * mean_ns / 1e9;
        let [c, w, mn, e] = match snap.kernel {
            ProfKernel::SlPass => [
                "sched.sl_pass.calls",
                "sched.sl_pass.words",
                "sched.sl_pass.mean_ns",
                "sched.sl_pass.est_s",
            ],
            ProfKernel::BitmatReduce => [
                "bitmat.reduce.calls",
                "bitmat.reduce.words",
                "bitmat.reduce.mean_ns",
                "bitmat.reduce.est_s",
            ],
            ProfKernel::RouteDfs => [
                "multistage.route_dfs.calls",
                "multistage.route_dfs.words",
                "multistage.route_dfs.mean_ns",
                "multistage.route_dfs.est_s",
            ],
            ProfKernel::IdleScan => {
                m.set("sim.idle_scan.calls", calls);
                m.set("sim.idle_scan.words", words);
                continue;
            }
        };
        m.set(c, calls);
        m.set(w, words);
        m.set(mn, mean_ns);
        m.set(e, est_s);
    }
}

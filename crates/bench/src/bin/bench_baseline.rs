//! Writes the committed perf baseline (`BENCH_pr4.json`): before/after
//! numbers for the three optimized layers at the paper's `N = 128`.
//!
//! * bit-matrix reductions — word-parallel `pms-bitmat` kernels vs the
//!   per-bit references in [`pms_bench::naive`];
//! * the SL array pass — the event-driven `pms_sched::sl_pass` vs the
//!   per-bit full-grid walk (and the gather-and-sort `reference` module
//!   as a secondary point);
//! * the simulator idle skip — sparse-workload TDM/circuit runs with
//!   `idle_skip` on vs off.
//!
//! Usage: `cargo run --release -p pms-bench --bin bench_baseline [-- out.json]`
//! (default output path `BENCH_pr4.json`). The binary asserts the PR-4
//! acceptance floors — >= 5x on the reduction and SL-pass kernels, > 1x
//! on the idle skip — so a regression fails loudly instead of silently
//! committing a stale baseline.
//!
//! `-- --check BENCH_pr4.json` re-measures and *compares against* the
//! committed baseline instead of rewriting it: each kernel's speedup must
//! reach at least [`CHECK_TOLERANCE`] of the committed speedup (timings on
//! shared CI hardware are noisy; the ratio-of-ratios is far more stable
//! than raw nanoseconds). Regressions are listed and the process exits
//! non-zero, so CI catches a perf regression without churning the file.

use pms_admit::{AdmitConfig, AdmitEngine, PolicyKind};
use pms_analyze::{render_ratio_table, worst_regression, RatioRow};
use pms_bench::{available_parallelism, naive, run_grid_threads};
use pms_bitmat::BitMatrix;
use pms_sched::{slarray::reference, Priority};
use pms_sim::{Paradigm, PredictorKind, SimParams};
use pms_trace::{Json, Tracer};
use pms_workloads::{uniform, ArrivalConfig, ConnRequest, Program, Workload};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// `--check` passes when `current_speedup >= CHECK_TOLERANCE *
/// committed_speedup` (and the absolute floors still hold).
const CHECK_TOLERANCE: f64 = 0.5;

/// Median ns per call over several samples; each sample batches calls
/// until it exceeds a minimum duration so short kernels are resolvable.
fn measure_ns<F: FnMut()>(mut f: F) -> f64 {
    let mut iters = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        if t0.elapsed() >= Duration::from_millis(5) || iters >= 1 << 24 {
            break;
        }
        iters *= 2;
    }
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_secs_f64() * 1e9 / iters as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

struct Entry {
    name: &'static str,
    before_ns: f64,
    after_ns: f64,
    floor: f64,
    /// Worker lanes the `after` measurement ran on. `0` marks a
    /// thread-independent kernel; parallel rows record the lane count so
    /// `--check` can skip them on machines with fewer cores than the
    /// baseline was generated on.
    threads: usize,
}

impl Entry {
    fn speedup(&self) -> f64 {
        self.before_ns / self.after_ns
    }
}

fn dense(n: usize, stride: usize) -> BitMatrix {
    BitMatrix::from_pairs(n, n, (0..n).map(|u| (u, (u * stride + 1) % n)))
}

fn sparse_workload(ports: usize, msgs: usize, gap_ns: u64) -> Workload {
    let mut programs = vec![Program::new(); ports];
    for m in 0..msgs {
        programs[m % 4].send((m + 1) % ports, 64).delay(gap_ns);
    }
    Workload::new("sparse", ports, programs)
}

/// Measures every kernel at the paper's `N = 128`.
fn measure_entries() -> Vec<Entry> {
    let n = 128usize;
    let mut entries: Vec<Entry> = Vec::new();

    // --- bit-matrix reductions -------------------------------------------
    let m = dense(n, 3);
    entries.push(Entry {
        name: "bitmat_col_or",
        before_ns: measure_ns(|| {
            black_box(naive::col_or(black_box(&m)));
        }),
        after_ns: measure_ns(|| {
            black_box(black_box(&m).col_or());
        }),
        floor: 5.0,
        threads: 0,
    });
    entries.push(Entry {
        name: "bitmat_row_or",
        before_ns: measure_ns(|| {
            black_box(naive::row_or(black_box(&m)));
        }),
        after_ns: measure_ns(|| {
            black_box(black_box(&m).row_or());
        }),
        floor: 5.0,
        threads: 0,
    });
    let slots: Vec<BitMatrix> = (1..5).map(|s| dense(n, s)).collect();
    entries.push(Entry {
        name: "bitmat_union_bstar",
        before_ns: measure_ns(|| {
            black_box(naive::union(black_box(&slots)));
        }),
        after_ns: measure_ns(|| {
            black_box(BitMatrix::union(black_box(&slots)));
        }),
        floor: 5.0,
        threads: 0,
    });
    // Disjoint matrices: no overlapping bit, so neither implementation can
    // short-circuit and the comparison measures the full conflict scan.
    let even = BitMatrix::from_pairs(n, n, (0..n).map(|u| (u, 2 * (u % (n / 2)))));
    let odd = BitMatrix::from_pairs(n, n, (0..n).map(|u| (u, 2 * (u % (n / 2)) + 1)));
    entries.push(Entry {
        name: "bitmat_intersects",
        before_ns: measure_ns(|| {
            black_box(naive::intersects(black_box(&even), black_box(&odd)));
        }),
        after_ns: measure_ns(|| {
            black_box(black_box(&even).intersects(black_box(&odd)));
        }),
        floor: 5.0,
        threads: 0,
    });

    // --- SL array pass ----------------------------------------------------
    let sparse_l = BitMatrix::from_pairs(n, n, (0..8).map(|i| (i * n / 8, (i * 13 + 1) % n)));
    let dense_l = BitMatrix::from_pairs(
        n,
        n,
        (0..n).flat_map(|u| (1..5).map(move |d| (u, (u + d) % n))),
    );
    let b_s = BitMatrix::from_pairs(n, n, (0..n / 3).map(|u| (3 * u % n, (3 * u + 5) % n)));
    let pri = Priority { row: n / 2, col: 7 };
    entries.push(Entry {
        name: "sl_pass_sparse",
        before_ns: measure_ns(|| {
            black_box(naive::sl_pass(black_box(&sparse_l), black_box(&b_s), pri));
        }),
        after_ns: measure_ns(|| {
            black_box(pms_sched::sl_pass(
                black_box(&sparse_l),
                black_box(&b_s),
                pri,
            ));
        }),
        floor: 5.0,
        threads: 0,
    });
    entries.push(Entry {
        name: "sl_pass_dense",
        before_ns: measure_ns(|| {
            black_box(naive::sl_pass(black_box(&dense_l), black_box(&b_s), pri));
        }),
        after_ns: measure_ns(|| {
            black_box(pms_sched::sl_pass(
                black_box(&dense_l),
                black_box(&b_s),
                pri,
            ));
        }),
        floor: 5.0,
        threads: 0,
    });
    // Secondary point: the gather-and-sort reference (the pre-PR library
    // pass, which already skipped empty rows via iterators) vs fast.
    entries.push(Entry {
        name: "sl_pass_sparse_vs_reference",
        before_ns: measure_ns(|| {
            black_box(reference::sl_pass(
                black_box(&sparse_l),
                black_box(&b_s),
                pri,
            ));
        }),
        after_ns: measure_ns(|| {
            black_box(pms_sched::sl_pass(
                black_box(&sparse_l),
                black_box(&b_s),
                pri,
            ));
        }),
        floor: 1.0,
        threads: 0,
    });

    // --- simulator idle skip ---------------------------------------------
    let w = sparse_workload(n, 8, 200_000);
    let tdm = Paradigm::DynamicTdm(PredictorKind::Drop);
    let run = |p: &Paradigm, skip: bool| {
        let params = SimParams::default().with_ports(n).with_idle_skip(skip);
        let t0 = Instant::now();
        let stats = p.run(&w, &params);
        assert_eq!(stats.delivered_messages, 8, "workload must complete");
        t0.elapsed().as_secs_f64() * 1e9
    };
    // Single runs: the seed path takes long enough that batching is
    // unnecessary, and both paths are deterministic.
    entries.push(Entry {
        name: "sim_sparse_tdm_idle_skip",
        before_ns: run(&tdm, false),
        after_ns: run(&tdm, true),
        floor: 1.0,
        threads: 0,
    });
    entries.push(Entry {
        name: "sim_sparse_circuit_idle_skip",
        before_ns: run(&Paradigm::Circuit, false),
        after_ns: run(&Paradigm::Circuit, true),
        floor: 1.0,
        threads: 0,
    });

    // --- streaming admission ---------------------------------------------
    // Word-parallel batch coalescing: admitting one request per epoch
    // (batch = 1) vs coalescing a full port-wide request matrix per
    // epoch (batch = N), same seeded stream, FIFO policy, no rate limit.
    let stream: Vec<ConnRequest> = uniform(n, 64, 32, 17)
        .arrivals(&ArrivalConfig::default())
        .collect();
    let admit_run = |batch: usize| {
        measure_ns(|| {
            let mut cfg = AdmitConfig::new(n);
            cfg.batch = batch;
            let mut engine = AdmitEngine::new(cfg, PolicyKind::Fifo.build());
            let outcome = engine.run(stream.clone(), &mut Tracer::Null);
            assert!(outcome.stats.granted > 0, "admission run must grant");
            black_box(outcome);
        })
    };
    entries.push(Entry {
        name: "admit_batch_coalesce",
        before_ns: admit_run(1),
        after_ns: admit_run(n),
        floor: 1.0,
        threads: 0,
    });

    // --- sweep fan-out ----------------------------------------------------
    // The floor scales with the lane count actually available: a
    // single-core machine records an honest ~1x row (and `--check` on
    // such a machine skips rows that were generated with more lanes than
    // it has).
    let lanes = available_parallelism();
    let lanes_floor = match lanes {
        0 | 1 => 0.5, // same code path twice; guard against timing noise only
        2 | 3 => 1.2,
        _ => 2.0,
    };

    // Sweep runner: the same grid at 1 lane vs all lanes, identical
    // tables required cell by cell.
    let grid_jobs = || -> Vec<(u64, Workload, Paradigm)> {
        [64u64, 256]
            .iter()
            .flat_map(|&b| {
                [
                    Paradigm::Wormhole,
                    Paradigm::Circuit,
                    Paradigm::DynamicTdm(PredictorKind::Drop),
                    Paradigm::PreloadTdm,
                ]
                .into_iter()
                .map(move |p| (b, uniform(64, b as u32, 8, 23), p))
            })
            .collect()
    };
    let grid_params = SimParams::default().with_ports(64);
    let grid_seq = run_grid_threads(grid_jobs(), &grid_params, 1);
    let grid_par = run_grid_threads(grid_jobs(), &grid_params, lanes);
    for (a, b) in grid_seq.cells.iter().zip(&grid_par.cells) {
        assert_eq!(a.row, b.row, "sweep rows diverged");
        assert_eq!(a.col, b.col, "sweep cols diverged");
        assert_eq!(
            a.stats.to_json().render_pretty(),
            b.stats.to_json().render_pretty(),
            "sweep cell ({}, {}) diverged across thread counts",
            a.row,
            a.col
        );
    }
    entries.push(Entry {
        name: "sweep_scaling",
        before_ns: grid_seq.elapsed_ns as f64,
        after_ns: grid_par.elapsed_ns as f64,
        floor: lanes_floor,
        threads: lanes,
    });
    entries
}

/// Committed `(name, speedup, threads)` rows from the baseline JSON;
/// `threads = 0` for thread-independent kernels (and rows written before
/// the field existed).
fn load_baseline_speedups(path: &str) -> Vec<(String, f64, u64)> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
    let doc = Json::parse(&text).unwrap_or_else(|e| panic!("bad baseline {path}: {e:?}"));
    let as_f64 = |j: &Json| -> f64 {
        match *j {
            Json::Float(f) => f,
            Json::Int(i) => i as f64,
            Json::UInt(u) => u as f64,
            _ => panic!("baseline speedup is not a number"),
        }
    };
    let Some(Json::Array(kernels)) = doc.get("kernels") else {
        panic!("baseline {path} has no kernels array");
    };
    kernels
        .iter()
        .map(|k| {
            let name = k
                .get("name")
                .and_then(Json::as_str)
                .expect("kernel name")
                .to_string();
            let speedup = as_f64(k.get("speedup").expect("kernel speedup"));
            let threads = k.get("threads").map(|t| as_f64(t) as u64).unwrap_or(0);
            (name, speedup, threads)
        })
        .collect()
}

/// Compares fresh measurements against the committed baseline through
/// the shared `pms-analyze` ratio-table formatter. Returns the number
/// of regressions (0 = pass) and names the worst offender.
fn check_against(path: &str, entries: &[Entry]) -> usize {
    let committed = load_baseline_speedups(path);
    // A regression row is one whose current/committed speedup ratio
    // falls below CHECK_TOLERANCE, i.e. below `1 - marker_tolerance`.
    let marker_tolerance = 1.0 - CHECK_TOLERANCE;
    let mut regressions = 0usize;
    let mut rows: Vec<RatioRow> = Vec::new();
    let mut skipped: Vec<String> = Vec::new();
    let lanes = available_parallelism() as u64;
    for (name, baseline, threads) in &committed {
        if *threads > lanes {
            // A parallel row generated on a bigger machine: its speedup
            // is unreachable here, so comparing it would only produce
            // false regressions on small CI runners.
            println!("  SKIP {name}: baseline used {threads} lanes, this machine has {lanes}");
            skipped.push(name.clone());
            continue;
        }
        match entries.iter().find(|e| e.name == *name) {
            Some(e) => rows.push(RatioRow {
                name: name.clone(),
                a: *baseline,
                b: e.speedup(),
            }),
            None => {
                println!("  MISSING {name}: kernel no longer measured");
                regressions += 1;
            }
        }
    }
    println!("checking against {path} (need current >= {CHECK_TOLERANCE}x of committed speedup)");
    print!(
        "{}",
        render_ratio_table(
            ("kernel", "committed(x)", "current(x)"),
            &rows,
            marker_tolerance
        )
    );
    if skipped.is_empty() {
        println!("  0 rows skipped");
    } else {
        println!("  {} row(s) skipped: {}", skipped.len(), skipped.join(", "));
    }
    regressions += rows.iter().filter(|r| r.ratio() < CHECK_TOLERANCE).count();
    for e in entries {
        match committed.iter().any(|(n, _, _)| n == e.name) {
            true if e.speedup() < e.floor => {
                println!(
                    "  FLOOR {}: {:.2}x below the {:.1}x acceptance floor",
                    e.name,
                    e.speedup(),
                    e.floor
                );
                regressions += 1;
            }
            false => println!(
                "  note: {} measured but absent from the baseline (re-generate to add it)",
                e.name
            ),
            _ => {}
        }
    }
    if let Some(worst) = worst_regression(&rows, marker_tolerance) {
        eprintln!(
            "worst offender: {} at {:.2}x of committed ({:.2}x -> {:.2}x)",
            worst.name,
            worst.ratio(),
            worst.a,
            worst.b
        );
    }
    regressions
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check_path = match args.first().map(String::as_str) {
        Some("--check") => Some(
            args.get(1)
                .cloned()
                .unwrap_or_else(|| "BENCH_pr4.json".into()),
        ),
        _ => None,
    };
    let entries = measure_entries();
    let n = 128usize;

    if let Some(path) = check_path {
        let regressions = check_against(&path, &entries);
        if regressions > 0 {
            eprintln!("{regressions} kernel(s) regressed below tolerance");
            std::process::exit(1);
        }
        println!("all kernels within tolerance of {path}");
        return;
    }

    let out_path = args
        .first()
        .cloned()
        .unwrap_or_else(|| "BENCH_pr4.json".into());

    // --- report -----------------------------------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"pr4\",\n");
    json.push_str(&format!("  \"n_ports\": {n},\n"));
    json.push_str(
        "  \"generated_by\": \"cargo run --release -p pms-bench --bin bench_baseline\",\n",
    );
    json.push_str("  \"kernels\": [\n");
    for (i, e) in entries.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"before_ns\": {:.1}, \"after_ns\": {:.1}, \"speedup\": {:.2}, \"threads\": {}}}{}\n",
            e.name,
            e.before_ns,
            e.after_ns,
            e.speedup(),
            e.threads,
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    for e in &entries {
        println!(
            "{:<32} before {:>14.1} ns  after {:>12.1} ns  speedup {:>8.2}x",
            e.name,
            e.before_ns,
            e.after_ns,
            e.speedup()
        );
    }
    std::fs::write(&out_path, &json).expect("write baseline json");
    println!("wrote {out_path}");

    for e in &entries {
        assert!(
            e.speedup() >= e.floor,
            "{}: speedup {:.2}x below the {}x acceptance floor",
            e.name,
            e.speedup(),
            e.floor
        );
    }
}

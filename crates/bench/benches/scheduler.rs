//! Criterion bench: SL scheduling-pass throughput versus system size —
//! the software companion to Table 3 (the hardware pass is one SL clock;
//! here we measure the model's cost so large sweeps stay fast).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pms_bitmat::BitMatrix;
use pms_sched::{Scheduler, SchedulerConfig};
use std::hint::black_box;

fn dense_requests(n: usize) -> BitMatrix {
    // Every input requests four destinations — mesh-like pressure.
    BitMatrix::from_pairs(
        n,
        n,
        (0..n).flat_map(|u| (1..5).map(move |d| (u, (u + d) % n))),
    )
}

fn bench_pass(c: &mut Criterion) {
    let mut group = c.benchmark_group("sl_pass");
    for n in [16usize, 32, 64, 128, 256] {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("dense", n), &n, |b, &n| {
            let requests = dense_requests(n);
            let mut sched = Scheduler::new(SchedulerConfig::new(n, 4));
            b.iter(|| {
                let report = sched.pass(black_box(&requests));
                black_box(report.established.len());
            });
        });
        group.bench_with_input(BenchmarkId::new("quiescent", n), &n, |b, &n| {
            // Steady state: everything established, nothing to change.
            let requests = BitMatrix::from_pairs(n, n, (0..n).map(|u| (u, (u + 1) % n)));
            let mut sched = Scheduler::new(SchedulerConfig::new(n, 4));
            for _ in 0..4 {
                sched.pass(&requests);
            }
            b.iter(|| {
                let report = sched.pass(black_box(&requests));
                black_box(report.slot);
            });
        });
    }
    group.finish();
}

/// The change requests of a loaded `paper128` pass: about 70 of the 128
/// inputs each request about 37 outputs.
fn paper128_requests() -> BitMatrix {
    let n = 128;
    BitMatrix::from_pairs(
        n,
        n,
        (0..70).flat_map(|i| {
            let u = i * 11 % n;
            (0..37).map(move |j| (u, (u * 5 + j * 3 + 1) % n))
        }),
    )
}

fn bench_sl_pass_kernel(c: &mut Criterion) {
    // The raw combinational pass, isolated from the scheduler wrapper:
    // the event-driven `sl_pass` vs the gather-and-sort `reference`
    // module vs the fully per-bit grid walk (`pms_bench::naive`). The
    // sparse case is the idle-heavy steady state the simulators hit most;
    // the `paper128` case is the loaded pass of the paper's own system,
    // where nearly every request is a denial.
    use pms_sched::{sl_pass, slarray::reference, Priority, SlInputs};
    let mut group = c.benchmark_group("sl_pass_kernel");
    let paper_l = paper128_requests();
    for n in [64usize, 128, 256] {
        // Sparse: a handful of change requests across the whole array.
        let sparse_l = BitMatrix::from_pairs(n, n, (0..8).map(|i| (i * n / 8, (i * 13 + 1) % n)));
        // Dense: every input has a change request on four columns.
        let dense_l = dense_requests(n);
        let b_s = BitMatrix::from_pairs(n, n, (0..n / 3).map(|u| (3 * u % n, (3 * u + 5) % n)));
        let pri = Priority { row: n / 2, col: 7 };
        let mut cases = vec![("sparse", &sparse_l), ("dense", &dense_l)];
        if n == paper_l.rows() {
            cases.push(("paper128", &paper_l));
        }
        for (tag, l) in cases {
            let inputs = SlInputs::from_l(l.clone(), &b_s);
            group.bench_with_input(
                BenchmarkId::new(format!("fast_{tag}"), n),
                &inputs,
                |bch, i| {
                    bch.iter(|| black_box(sl_pass(black_box(i), black_box(&b_s), pri)));
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("reference_{tag}"), n),
                l,
                |bch, l| {
                    bch.iter(|| black_box(reference::sl_pass(black_box(l), black_box(&b_s), pri)));
                },
            );
            group.bench_with_input(BenchmarkId::new(format!("naive_{tag}"), n), l, |bch, l| {
                bch.iter(|| {
                    black_box(pms_bench::naive::sl_pass(
                        black_box(l),
                        black_box(&b_s),
                        pri,
                    ))
                });
            });
        }
    }
    group.finish();
}

fn bench_flush(c: &mut Criterion) {
    c.bench_function("flush_dynamic_128", |b| {
        let n = 128;
        let requests = dense_requests(n);
        let mut sched = Scheduler::new(SchedulerConfig::new(n, 4));
        b.iter(|| {
            sched.pass(&requests);
            sched.flush_dynamic();
        });
    });
}

criterion_group!(benches, bench_pass, bench_sl_pass_kernel, bench_flush);
criterion_main!(benches);

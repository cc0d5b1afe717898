//! Criterion bench: the word-parallel bit-matrix kernel — the operations
//! the scheduler executes on every SL clock (`B*` union, Table-1 `L`
//! computation, row/column OR reductions and conflict tests,
//! partial-permutation checks).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pms_bitmat::BitMatrix;
use std::hint::black_box;

fn dense(n: usize, stride: usize) -> BitMatrix {
    BitMatrix::from_pairs(n, n, (0..n).map(|u| (u, (u * stride + 1) % n)))
}

fn bench_union(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitmat_union");
    for n in [64usize, 128, 256] {
        let mats: Vec<BitMatrix> = (1..5).map(|s| dense(n, s)).collect();
        group.throughput(Throughput::Elements((n * n) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &mats, |b, mats| {
            b.iter(|| black_box(BitMatrix::union(black_box(mats).iter())));
        });
    }
    group.finish();
}

fn bench_presched_formula(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitmat_presched_l");
    for n in [64usize, 128, 256] {
        let r = dense(n, 3);
        let b_star = dense(n, 5);
        let b_s = BitMatrix::square(n);
        group.throughput(Throughput::Elements((n * n) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bch, _| {
            bch.iter(|| {
                black_box(BitMatrix::zip3_with(
                    black_box(&r),
                    black_box(&b_star),
                    black_box(&b_s),
                    |rw, bst, bsw| (!rw & bsw) | (rw & !bst),
                ))
            });
        });
    }
    group.finish();
}

fn bench_reductions(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitmat_reduction");
    for n in [64usize, 128, 256] {
        let m = dense(n, 3);
        let other = dense(n, 5);
        group.throughput(Throughput::Elements((n * n) as u64));
        group.bench_with_input(BenchmarkId::new("col_or_word", n), &m, |b, m| {
            b.iter(|| black_box(black_box(m).col_or()));
        });
        group.bench_with_input(BenchmarkId::new("row_or_word", n), &m, |b, m| {
            b.iter(|| black_box(black_box(m).row_or()));
        });
        group.bench_with_input(BenchmarkId::new("intersects_word", n), &m, |b, m| {
            b.iter(|| black_box(black_box(m).intersects(black_box(&other))));
        });
    }
    group.finish();
}

fn bench_permutation_check(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitmat_perm_check");
    for n in [128usize, 256] {
        let m = dense(n, 1);
        group.bench_with_input(BenchmarkId::from_parameter(n), &m, |b, m| {
            b.iter(|| black_box(m.is_partial_permutation()));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_union,
    bench_presched_formula,
    bench_reductions,
    bench_permutation_check
);
criterion_main!(benches);

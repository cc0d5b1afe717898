//! Criterion bench: TDM decomposition (bipartite edge coloring) — greedy
//! first-fit versus the exact alternating-path algorithm, on random and
//! structured working sets — and the phase partitioner that feeds it, on
//! the paper's 128-port Two Phase trace.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pms_compile::{exact_coloring, greedy_coloring, partition_phases, WorkingSet};
use pms_workloads::{two_phase, MeshSpec};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::hint::black_box;

fn random_working_set(ports: usize, edges: usize, seed: u64) -> WorkingSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ws = WorkingSet::new(ports);
    while ws.len() < edges {
        ws.insert(rng.gen_range(0..ports), rng.gen_range(0..ports));
    }
    ws
}

fn all_to_all(ports: usize) -> WorkingSet {
    WorkingSet::from_pairs(
        ports,
        (0..ports).flat_map(|u| (0..ports).filter(move |&v| v != u).map(move |v| (u, v))),
    )
}

fn bench_random(c: &mut Criterion) {
    let mut group = c.benchmark_group("coloring_random");
    for ports in [32usize, 128] {
        let edges = ports * 4;
        let ws = random_working_set(ports, edges, 99);
        group.throughput(Throughput::Elements(edges as u64));
        group.bench_with_input(BenchmarkId::new("greedy", ports), &ws, |b, ws| {
            b.iter(|| black_box(greedy_coloring(black_box(ws))).len());
        });
        group.bench_with_input(BenchmarkId::new("exact", ports), &ws, |b, ws| {
            b.iter(|| black_box(exact_coloring(black_box(ws))).len());
        });
    }
    group.finish();
}

fn bench_all_to_all(c: &mut Criterion) {
    let mut group = c.benchmark_group("coloring_all_to_all");
    let ws = all_to_all(64);
    group.throughput(Throughput::Elements(ws.len() as u64));
    group.bench_function("greedy_64", |b| {
        b.iter(|| black_box(greedy_coloring(black_box(&ws))).len());
    });
    group.bench_function("exact_64", |b| {
        b.iter(|| black_box(exact_coloring(black_box(&ws))).len());
    });
    group.finish();
}

fn bench_partition_two_phase128(c: &mut Criterion) {
    let mut group = c.benchmark_group("partition_phases_two_phase128");
    let trace = two_phase(MeshSpec::for_ports(128), 64, 16, 500, 100, 11).connection_trace();
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.bench_function("k4", |b| {
        b.iter(|| black_box(partition_phases(128, black_box(&trace), 4)).phase_count());
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_random,
    bench_all_to_all,
    bench_partition_two_phase128
);
criterion_main!(benches);

//! Criterion bench: end-to-end simulator throughput for each switching
//! paradigm on a fixed 32-processor mesh round — the cost of one Figure-4
//! grid cell — and on the paper's 128-processor Two Phase cell, where a
//! program engine that rescans every processor per poll dominated, and
//! where (with 2048 B messages) the TDM slot walks dominate, and on two
//! Figure 5 hybrid cells, where the VOQ request lines, engine polls and
//! run statistics are paid per message.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pms_multistage::TorusNetwork;
use pms_sim::{MultihopWormholeSim, Paradigm, PredictorKind, SimParams};
use pms_workloads::{hybrid, ordered_mesh, two_phase, uniform, HybridSpec, MeshSpec};
use std::hint::black_box;

fn bench_paradigms(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate_mesh32");
    group.sample_size(20);
    let mesh = MeshSpec::for_ports(32);
    let workload = ordered_mesh(mesh, 64, 2, 500, 100);
    let params = SimParams::default().with_ports(32);
    group.throughput(Throughput::Elements(workload.message_count() as u64));
    for paradigm in [
        Paradigm::Wormhole,
        Paradigm::Circuit,
        Paradigm::DynamicTdm(PredictorKind::Drop),
        Paradigm::PreloadTdm,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(paradigm.label()),
            &paradigm,
            |b, paradigm| {
                b.iter(|| {
                    let stats = paradigm.run(black_box(&workload), black_box(&params));
                    black_box(stats.delivered_bytes)
                });
            },
        );
    }
    group.finish();
}

fn bench_two_phase128(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate_two_phase128");
    group.sample_size(10);
    let workload = two_phase(MeshSpec::for_ports(128), 64, 16, 500, 100, 11);
    let params = SimParams::default().with_ports(128);
    group.throughput(Throughput::Elements(workload.message_count() as u64));
    for paradigm in [Paradigm::Wormhole, Paradigm::Circuit] {
        group.bench_with_input(
            BenchmarkId::from_parameter(paradigm.label()),
            &paradigm,
            |b, paradigm| {
                b.iter(|| {
                    let stats = paradigm.run(black_box(&workload), black_box(&params));
                    black_box(stats.delivered_bytes)
                });
            },
        );
    }
    group.finish();
}

/// Two Phase with 2048 B messages on 128 ports: each message takes 32
/// slot visits, so walking the active register's connections every
/// 100 ns slot dominates the TDM runs.
fn bench_slot_walk(c: &mut Criterion) {
    let mut group = c.benchmark_group("tdm_slot_walk_two_phase128");
    group.sample_size(10);
    let workload = two_phase(MeshSpec::for_ports(128), 2048, 16, 500, 100, 11);
    let params = SimParams::default().with_ports(128);
    group.throughput(Throughput::Elements(workload.message_count() as u64));
    for paradigm in [
        Paradigm::DynamicTdm(PredictorKind::Drop),
        Paradigm::PreloadTdm,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(paradigm.label()),
            &paradigm,
            |b, paradigm| {
                b.iter(|| {
                    let stats = paradigm.run(black_box(&workload), black_box(&params));
                    black_box(stats.delivered_bytes)
                });
            },
        );
    }
    group.finish();
}

/// Figure 5 cells at the paper's size: 128 ports, 96 64 B messages per
/// processor at 50 % determinism, K = 3, with no and with two preloaded
/// registers.
fn bench_hybrid128(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate_hybrid128");
    group.sample_size(10);
    let workload = hybrid(HybridSpec {
        ports: 128,
        determinism: 0.5,
        messages_per_proc: 96,
        bytes: 64,
        seed: 1,
    });
    let params = SimParams::default().with_ports(128).with_tdm_slots(3);
    group.throughput(Throughput::Elements(workload.message_count() as u64));
    for preload_slots in [0, 2] {
        let paradigm = Paradigm::HybridTdm {
            preload_slots,
            predictor: PredictorKind::Drop,
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(paradigm.label()),
            &paradigm,
            |b, paradigm| {
                b.iter(|| {
                    let stats = paradigm.run(black_box(&workload), black_box(&params));
                    black_box(stats.delivered_bytes)
                });
            },
        );
    }
    group.finish();
}

fn bench_multihop(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate_multihop32");
    group.sample_size(20);
    let workload = uniform(32, 128, 8, 3);
    let params = SimParams::default().with_ports(32);
    group.throughput(Throughput::Elements(workload.message_count() as u64));
    group.bench_function("torus_4x4", |b| {
        b.iter(|| {
            let sim = MultihopWormholeSim::new(
                black_box(&workload),
                black_box(&params),
                TorusNetwork::new(4, 4, 2),
            );
            black_box(sim.run().delivered_bytes)
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_paradigms,
    bench_two_phase128,
    bench_slot_walk,
    bench_hybrid128,
    bench_multihop
);
criterion_main!(benches);

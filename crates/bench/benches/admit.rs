//! Criterion bench: one FIFO admission engine over a 128-port uniform
//! stream sent faster than the scheduler drains it, so the ingress queue
//! stays full and every epoch pops a full batch, requeues the denied
//! requests and rejects overflow — the queue and epoch work that
//! `pms-admit` adds around the scheduler pass.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pms_admit::{AdmitConfig, AdmitEngine, PolicyKind};
use pms_trace::Tracer;
use pms_workloads::{uniform, ArrivalConfig, ConnRequest};
use std::hint::black_box;

fn bench_fifo128_saturated(c: &mut Criterion) {
    let mut group = c.benchmark_group("admit_fifo128_saturated");
    group.sample_size(10);
    // 200 ns per port is past the saturation knee at 128 ports: about a
    // fifth of the requests bounce on a full queue.
    let stream: Vec<ConnRequest> = uniform(128, 64, 128, 17)
        .arrivals(&ArrivalConfig {
            send_gap_ns: 200,
            tenants: 0,
        })
        .collect();
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.bench_function("gap200", |b| {
        b.iter(|| {
            let mut engine = AdmitEngine::new(AdmitConfig::new(128), PolicyKind::Fifo.build());
            let out = engine.run(black_box(&stream).iter().copied(), &mut Tracer::Null);
            black_box(out.stats.granted)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_fifo128_saturated);
criterion_main!(benches);

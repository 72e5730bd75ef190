//! Criterion bench for the §6.2 fault-degradation artifact: measuring a
//! faulty network window (the full sweep is `metro run fault_sweep`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use metro_sim::experiment::{run_fault_point, SweepConfig};
use std::hint::black_box;

fn bench_faults(c: &mut Criterion) {
    let mut g = c.benchmark_group("fault_degradation");
    g.sample_size(10);

    for kills in [0usize, 2, 4] {
        g.bench_with_input(
            BenchmarkId::new("dead_routers", kills),
            &kills,
            |b, &kills| {
                let mut cfg = SweepConfig::figure3();
                cfg.warmup = 200;
                cfg.measure = 800;
                cfg.drain = 400;
                b.iter(|| run_fault_point(black_box(&cfg), 0.3, kills, kills))
            },
        );
    }

    g.finish();
}

criterion_group!(benches, bench_faults);
criterion_main!(benches);

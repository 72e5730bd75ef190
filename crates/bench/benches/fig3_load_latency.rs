//! Criterion bench for the Figure 3 artifact: short latency-versus-load
//! measurement windows on the paper's 64-endpoint network (the full
//! curve is produced by `metro run fig3`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use metro_sim::experiment::{run_load_point, unloaded_latency, SweepConfig};
use std::hint::black_box;

fn quick_config() -> SweepConfig {
    let mut cfg = SweepConfig::figure3();
    cfg.warmup = 200;
    cfg.measure = 800;
    cfg.drain = 400;
    cfg
}

fn bench_fig3(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig3");
    g.sample_size(10);

    g.bench_function("unloaded_latency", |b| {
        let cfg = quick_config();
        b.iter(|| unloaded_latency(black_box(&cfg)))
    });

    for load in [0.1, 0.4, 0.7] {
        g.bench_with_input(
            BenchmarkId::new("load_point", format!("{load:.1}")),
            &load,
            |b, &load| {
                let cfg = quick_config();
                b.iter(|| run_load_point(black_box(&cfg), load))
            },
        );
    }

    g.finish();
}

criterion_group!(benches, bench_fig3);
criterion_main!(benches);

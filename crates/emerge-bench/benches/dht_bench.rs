//! Criterion microbenches for the DHT world.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use emerge_dht::analytic::AnalyticSubstrate;
use emerge_dht::id::NodeId;
use emerge_dht::overlay::OverlayConfig;

fn config(n: usize) -> OverlayConfig {
    OverlayConfig {
        n_nodes: n,
        ..OverlayConfig::default()
    }
}

fn churny_config(n: usize) -> OverlayConfig {
    OverlayConfig {
        n_nodes: n,
        malicious_fraction: 0.2,
        mean_lifetime: Some(40_000),
        horizon: 200_000,
    }
}

fn bench_analytic_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("analytic_build");
    group.sample_size(10);
    for n in [1_000usize, 10_000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| AnalyticSubstrate::build(config(n), black_box(7)));
        });
    }
    group.finish();
}

fn bench_churny_world_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("churny_world_build_10000");
    group.sample_size(10);
    group.bench_function("analytic", |b| {
        b.iter(|| AnalyticSubstrate::build(churny_config(10_000), black_box(7)));
    });
    group.finish();
}

fn bench_analytic_resolve(c: &mut Criterion) {
    let mut group = c.benchmark_group("analytic_resolve_holder");
    for n in [1_000usize, 10_000] {
        let substrate = AnalyticSubstrate::build(config(n), 7);
        let target = NodeId::from_name(b"addr");
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| substrate.resolve_holder(black_box(&target)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_analytic_build,
    bench_churny_world_build,
    bench_analytic_resolve
);
criterion_main!(benches);

//! End-to-end screener benchmarks — the Criterion companion to the
//! `exp_fig10` experiment binary (which produces the actual Fig. 10
//! series; these benches give statistically robust per-variant medians at
//! one Criterion-friendly size).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use kessler_bench::experiment_population;
use kessler_core::{
    GpuScreener, GridScreener, HybridScreener, LegacyScreener, Screener, ScreeningConfig,
};

fn bench_variants(c: &mut Criterion) {
    let n = 1_000usize;
    let span = 120.0;
    let population = experiment_population(n);
    let grid_cfg = ScreeningConfig::grid_defaults(2.0, span);
    let hybrid_cfg = ScreeningConfig::hybrid_defaults(2.0, span);

    let mut group = c.benchmark_group("screen_1000");
    group.sample_size(10);

    group.bench_function(BenchmarkId::new("variant", "legacy"), |b| {
        let s = LegacyScreener::new(grid_cfg);
        b.iter(|| black_box(s.screen(&population).conjunction_count()))
    });
    group.bench_function(BenchmarkId::new("variant", "grid"), |b| {
        let s = GridScreener::new(grid_cfg);
        b.iter(|| black_box(s.screen(&population).conjunction_count()))
    });
    group.bench_function(BenchmarkId::new("variant", "hybrid"), |b| {
        let s = HybridScreener::new(hybrid_cfg);
        b.iter(|| black_box(s.screen(&population).conjunction_count()))
    });
    group.bench_function(BenchmarkId::new("variant", "grid-gpusim"), |b| {
        let s = GpuScreener::grid(grid_cfg);
        b.iter(|| black_box(s.screen(&population).conjunction_count()))
    });
    group.bench_function(BenchmarkId::new("variant", "hybrid-gpusim"), |b| {
        let s = GpuScreener::hybrid(hybrid_cfg);
        b.iter(|| black_box(s.screen(&population).conjunction_count()))
    });
    group.finish();
}

criterion_group!(benches, bench_variants);
criterion_main!(benches);

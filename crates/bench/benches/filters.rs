//! Filter-throughput ablation: aggregation cost of every registered filter
//! across (n, d) scales, including the high-dimensional regime where CWTM's
//! per-coordinate sort dominates and CGE's single norm-sort wins.

use abft_bench::gradient_bundle;
use abft_filters::{all_filters, batch_of};
use abft_linalg::Vector;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_filters(c: &mut Criterion) {
    let mut group = c.benchmark_group("filter_aggregate");
    for (n, f, dim) in [(10usize, 1usize, 10usize), (10, 1, 1000), (50, 5, 100)] {
        // One reused batch and output per shape, as the drivers run it.
        let batch = batch_of(&gradient_bundle(n, f, dim, 42)).expect("batch builds");
        let mut out = Vector::zeros(dim);
        for filter in all_filters() {
            group.bench_with_input(
                BenchmarkId::new(filter.name(), format!("n{n}_d{dim}")),
                &batch,
                |b, batch| {
                    b.iter(|| {
                        // Some filters have (n, f) preconditions; errors are
                        // still "work" worth timing consistently.
                        let _ = black_box(filter.aggregate_into(black_box(batch), f, &mut out));
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_filters);
criterion_main!(benches);

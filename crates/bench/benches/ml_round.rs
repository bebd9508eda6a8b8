//! Figure 4/5 driver bench: one D-SGD round (10 agents × batch 128 MLP
//! gradients + robust aggregation) on the synthetic-MNIST substitute.

use abft_filters::{batch_of, Cge, Cwtm, GradientFilter, Mean};
use abft_linalg::rng::seeded_rng;
use abft_linalg::Vector;
use abft_ml::{DatasetSpec, Mlp, Model};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_ml_round(c: &mut Criterion) {
    let spec = DatasetSpec {
        train: 2000,
        test: 200,
        ..DatasetSpec::synthetic_mnist()
    };
    let (train, _) = spec.generate(2024);
    let shards = train.shard(10, 7).expect("2000 samples into 10 shards");
    let model = Mlp::new(&[spec.dim, 32, spec.classes], 3).expect("valid sizes");

    // Pre-sample the batches so the bench isolates gradient + aggregation.
    let mut rng = seeded_rng(1);
    let batches: Vec<Vec<usize>> = shards
        .iter()
        .map(|s| s.sample_batch(&mut rng, 128))
        .collect();

    let mut group = c.benchmark_group("dsgd_round");
    group.sample_size(20);

    group.bench_function("gradients_only", |b| {
        b.iter(|| {
            let gs: Vec<Vector> = shards
                .iter()
                .zip(&batches)
                .map(|(shard, batch)| model.loss_and_gradient(shard, batch).1)
                .collect();
            black_box(gs.len())
        });
    });

    let gradients: Vec<Vector> = shards
        .iter()
        .zip(&batches)
        .map(|(shard, batch)| model.loss_and_gradient(shard, batch).1)
        .collect();
    let batch = batch_of(&gradients).expect("batch builds");
    let mut out = Vector::zeros(batch.dim());
    let filters: [(&str, Box<dyn GradientFilter>); 3] = [
        ("mean", Box::new(Mean::new())),
        ("cge", Box::new(Cge::averaged())),
        ("cwtm", Box::new(Cwtm::new())),
    ];
    for (name, filter) in &filters {
        group.bench_with_input(
            BenchmarkId::new("aggregate_2410d", name),
            &batch,
            |b, batch| {
                b.iter(|| {
                    filter
                        .aggregate_into(black_box(batch), 3, &mut out)
                        .expect("valid inputs");
                    black_box(&out);
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_ml_round);
criterion_main!(benches);

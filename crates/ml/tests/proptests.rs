//! Property-based tests for the ML substrate.

use abft_linalg::Vector;
use abft_ml::{Dataset, DatasetSpec, LinearSvm, Mlp, Model};
use proptest::prelude::*;

fn spec(train: usize) -> DatasetSpec {
    DatasetSpec {
        classes: 10,
        dim: 8,
        train,
        test: 20,
        noise: 0.3,
        separation: 1.0,
        correlation: 0.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sharding partitions the sample multiset: every sample appears in
    /// exactly one shard, sizes within one of each other.
    #[test]
    fn sharding_is_a_partition(
        train in 40usize..200,
        shards in 2usize..10,
        seed in 0u64..100,
    ) {
        let (data, _) = spec(train).generate(seed);
        let parts = data.shard(shards, seed).expect("shardable");
        let total: usize = parts.iter().map(Dataset::len).sum();
        prop_assert_eq!(total, data.len());
        let sizes: Vec<usize> = parts.iter().map(Dataset::len).collect();
        let spread = sizes.iter().max().expect("non-empty")
            - sizes.iter().min().expect("non-empty");
        prop_assert!(spread <= 1, "uneven shards: {sizes:?}");
        // Class counts are preserved in aggregate.
        let mut merged = vec![0usize; 10];
        for p in &parts {
            for (k, c) in p.class_histogram().iter().enumerate() {
                merged[k] += c;
            }
        }
        prop_assert_eq!(merged, data.class_histogram());
    }

    /// Label flipping is an involution: flipping twice restores the labels.
    #[test]
    fn label_flip_is_an_involution(train in 20usize..100, seed in 0u64..100) {
        let (data, _) = spec(train).generate(seed);
        let twice = data.with_flipped_labels().with_flipped_labels();
        for i in 0..data.len() {
            prop_assert_eq!(twice.label(i), data.label(i));
        }
    }

    /// MLP parameter round-trip: set_params(params()) is the identity, and
    /// perturbing one coordinate changes exactly that coordinate back.
    #[test]
    fn mlp_params_round_trip(seed in 0u64..100, k in 0usize..50, delta in -1.0..1.0f64) {
        let mut net = Mlp::new(&[8, 6, 10], seed).expect("valid sizes");
        let p = net.params();
        let k = k % p.dim();
        let mut q = p.clone();
        q[k] += delta;
        net.set_params(&q);
        let back = net.params();
        prop_assert!(back.approx_eq(&q, 0.0));
    }

    /// Mini-batch loss is the mean of single-sample losses (both models).
    #[test]
    fn batch_loss_is_mean_of_singletons(seed in 0u64..50) {
        let (data, _) = spec(40).generate(seed);
        let net = Mlp::new(&[8, 6, 10], 3).expect("valid sizes");
        let svm = LinearSvm::new(8, 10, 0.0).expect("valid");
        let batch: Vec<usize> = (0..8).collect();
        for model in [&net as &dyn Model, &svm] {
            let mut batch_grad = Vector::zeros(model.param_dim());
            let batch_loss = model.loss_and_gradient_into(&data, &batch, batch_grad.as_mut_slice());
            let mut mean_loss = 0.0;
            let mut mean_grad = Vector::zeros(model.param_dim());
            let mut g = Vector::zeros(model.param_dim());
            for &i in &batch {
                let l = model.loss_and_gradient_into(&data, &[i], g.as_mut_slice());
                mean_loss += l / batch.len() as f64;
                mean_grad.axpy(1.0 / batch.len() as f64, &g);
            }
            prop_assert!((batch_loss - mean_loss).abs() < 1e-9);
            prop_assert!(batch_grad.approx_eq(&mean_grad, 1e-9));
        }
    }

    /// Accuracy is always a valid proportion, and predictions are valid
    /// class indices.
    #[test]
    fn accuracy_and_predictions_are_well_formed(seed in 0u64..50) {
        let (train, test) = spec(30).generate(seed);
        let net = Mlp::new(&[8, 6, 10], seed).expect("valid sizes");
        let acc = net.accuracy(&test);
        prop_assert!((0.0..=1.0).contains(&acc));
        for i in 0..train.len().min(10) {
            prop_assert!(net.predict(train.feature(i)) < 10);
        }
    }
}

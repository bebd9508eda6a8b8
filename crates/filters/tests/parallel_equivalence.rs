//! Registry-wide `parallel ≡ serial` bit-identity.
//!
//! The worker-pool contract (fixed tile schedule, disjoint output slots,
//! fixed reduction order — see `abft_linalg::pool`) promises that sharding
//! aggregation across threads changes *nothing* about the output bits.
//! This suite pins that promise for every registered filter, across thread
//! counts, shapes straddling the 32-column tile boundary, adversarial
//! magnitudes, and tie-heavy inputs that exercise the deterministic
//! tie-breaking comparators.

mod common;

use abft_filters::{all_filters, batch_of};
use abft_linalg::{Vector, WorkerPool};
use common::aggregate_rows;
use std::sync::Arc;

/// A deterministic, irregular batch: values spread over signs and
/// magnitudes so order statistics, norm sorts, and distance matrices all
/// have non-trivial structure.
fn demo_gradients(n: usize, dim: usize) -> Vec<Vector> {
    (0..n)
        .map(|i| {
            Vector::from(
                (0..dim)
                    .map(|k| {
                        let base = ((i * 37 + k * 11) % 19) as f64 - 9.0;
                        base * (1.0 + 0.01 * k as f64) + 0.25 * i as f64
                    })
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

/// A batch with duplicated rows and shared norms, stressing tie-breaks.
fn tie_heavy_gradients(n: usize, dim: usize) -> Vec<Vector> {
    (0..n)
        .map(|i| {
            let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
            Vector::from(
                (0..dim)
                    .map(|k| sign * ((k % 3) as f64))
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

fn assert_bitwise_eq(a: &Vector, b: &Vector, context: &str) {
    assert_eq!(a.dim(), b.dim(), "{context}: dimensions differ");
    for (k, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{context}: coordinate {k} differs ({x} vs {y})"
        );
    }
}

fn check_grid(gradients: &[Vector], f: usize, label: &str) {
    let dim = gradients[0].dim();
    for filter in all_filters() {
        let serial_batch = batch_of(gradients).expect("batch builds");
        let mut serial = Vector::zeros(dim);
        filter
            .aggregate_into(&serial_batch, f, &mut serial)
            .unwrap_or_else(|e| panic!("{label}: {} serial failed: {e}", filter.name()));

        for threads in [1usize, 2, 4] {
            let mut batch = batch_of(gradients).expect("batch builds");
            batch.set_worker_pool(Some(Arc::new(WorkerPool::new(threads))));
            let mut parallel = Vector::zeros(dim);
            filter
                .aggregate_into(&batch, f, &mut parallel)
                .unwrap_or_else(|e| {
                    panic!(
                        "{label}: {} failed at {threads} threads: {e}",
                        filter.name()
                    )
                });
            assert_bitwise_eq(
                &serial,
                &parallel,
                &format!("{label}: {} at {threads} threads", filter.name()),
            );
        }
    }
}

#[test]
fn every_registered_filter_is_bit_identical_across_thread_counts() {
    // n = 9, f = 1 satisfies every registered filter's requirement
    // (Bulyan needs n ≥ 4f + 3 = 7; GMoM's 3 groups need n ≥ 3). The
    // small dims pin the below-floor serial fallback; 1024 and 2017 clear
    // the sharding floor so every kernel actually runs on the pool
    // (2017 is prime, so tile and chunk boundaries land awkwardly on
    // purpose).
    for dim in [1usize, 2, 31, 32, 33, 100, 1024, 2017] {
        check_grid(&demo_gradients(9, dim), 1, &format!("demo d={dim}"));
    }
}

#[test]
fn tie_heavy_inputs_break_ties_identically_in_parallel() {
    for dim in [3usize, 33, 1024] {
        check_grid(&tie_heavy_gradients(9, dim), 1, &format!("ties d={dim}"));
    }
}

#[test]
fn adversarial_magnitudes_stay_bit_identical() {
    let mut gradients = demo_gradients(9, 1200);
    gradients[0] = Vector::from(vec![1e308; 1200]);
    gradients[5] = Vector::from(vec![-1e-308; 1200]);
    check_grid(&gradients, 1, "extreme magnitudes");
}

#[test]
fn pool_reuse_across_many_aggregations_stays_identical() {
    // One pool shared by many calls (the suite-worker pattern): results
    // must match a fresh serial computation every time.
    let pool = Arc::new(WorkerPool::new(4));
    let gradients = demo_gradients(9, 1024);
    let filter = abft_filters::by_name("cwtm").expect("registered");
    let serial_batch = batch_of(&gradients).expect("batch builds");
    let mut serial = Vector::zeros(1024);
    filter
        .aggregate_into(&serial_batch, 1, &mut serial)
        .expect("serial cwtm");
    let mut batch = batch_of(&gradients).expect("batch builds");
    batch.set_worker_pool(Some(pool));
    let mut out = Vector::zeros(1024);
    for round in 0..25 {
        filter
            .aggregate_into(&batch, 1, &mut out)
            .expect("parallel cwtm");
        assert_bitwise_eq(&serial, &out, &format!("round {round}"));
    }
}

#[test]
fn parallel_batches_reject_non_finite_rows_cleanly() {
    // The NonFinite guard fires before any kernel is sharded, so the
    // parallel path surfaces the same clean error as serial.
    let mut gradients = demo_gradients(9, 33);
    gradients[3] = Vector::from(vec![f64::NAN; 33]);
    for filter in all_filters() {
        let mut batch = batch_of(&gradients).expect("batch builds");
        batch.set_worker_pool(Some(Arc::new(WorkerPool::new(4))));
        let mut out = Vector::zeros(33);
        let err = filter
            .aggregate_into(&batch, 1, &mut out)
            .expect_err("NaN row must be rejected");
        assert!(
            matches!(err, abft_filters::FilterError::NonFinite { index: 3 }),
            "{}: unexpected error {err:?}",
            filter.name()
        );
    }
}

#[test]
fn zero_dimension_gradients_are_rejected_not_panicked() {
    let gradients = vec![Vector::from(Vec::new()); 3];
    for filter in all_filters() {
        assert!(
            aggregate_rows(filter.as_ref(), &gradients, 0).is_err(),
            "{} must reject dim-0 input",
            filter.name()
        );
    }
}

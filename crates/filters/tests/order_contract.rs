//! The order contract of the coordinate-wise filters, bit for bit.
//!
//! `cwtm` and `cwmed` (and Bulyan's trim stage, held to the same
//! reference in `krum_reference.rs`) promise, per coordinate, the mean of
//! the middle order statistics under `f64::total_cmp`, **summed in
//! ascending order** — exactly `abft_linalg::stats::trimmed_mean` /
//! `stats::median` of the gathered column. That makes a filter's bits a
//! function of the column's multiset alone: not of the agents' order, not
//! of the thread count, and not of the algorithm (a sorting network over
//! 32-column tiles) or toolchain that finds the order statistics. This
//! suite holds the registered filters to it on columns built to break an
//! order-statistics kernel, at every row count the network is generated
//! for and on both sides of the tile boundary.

mod common;

use abft_filters::by_name;
use abft_linalg::{stats, GradientBatch, Vector, WorkerPool};
use common::hostile_rows;
use std::sync::Arc;

/// Refills `batch` with hostile rows and returns its columns.
fn refill(batch: &mut GradientBatch, count: usize, seed: u64) -> Vec<Vec<f64>> {
    let rows = hostile_rows(count, batch.dim(), seed);
    batch.clear();
    for row in &rows {
        batch.push_row(row.as_slice());
    }
    (0..batch.dim())
        .map(|k| rows.iter().map(|row| row[k]).collect())
        .collect()
}

/// Runs `cwmed`, and `cwtm` at every `f` in `trims`, on each pool,
/// comparing every coordinate with the sorted reference.
fn assert_order_contract(
    batch: &mut GradientBatch,
    columns: &[Vec<f64>],
    trims: impl Iterator<Item = usize>,
    pools: &[Arc<WorkerPool>],
) {
    let reference = |of: &dyn Fn(&[f64]) -> f64| columns.iter().map(|c| of(c)).collect();
    let medians: Vec<f64> = reference(&|column| stats::median(column).unwrap());
    let mut cases = vec![("cwmed", 0, medians)];
    for f in trims {
        let means = reference(&|column| stats::trimmed_mean(column, f).unwrap());
        cases.push(("cwtm", f, means));
    }
    let mut out = Vector::zeros(1);
    for pool in pools {
        batch.set_worker_pool(Some(Arc::clone(pool)));
        for (name, f, expected) in &cases {
            let filter = by_name(name).expect("registered");
            filter.aggregate_into(batch, *f, &mut out).expect(name);
            for (k, (got, want)) in out.iter().zip(expected).enumerate() {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{name} n={} d={} f={f} {}t column {k}: {got:e} vs {want:e} of {:?}",
                    batch.len(),
                    batch.dim(),
                    pool.threads(),
                    columns[k]
                );
            }
        }
    }
}

fn pools() -> [Arc<WorkerPool>; 3] {
    [1usize, 2, 4].map(|threads| Arc::new(WorkerPool::new(threads)))
}

/// Every row count `1..=70`, every legal `f`, threads 1, 2 and 4.
fn check_every_count_at(dims: &[usize]) {
    let pools = pools();
    for &dim in dims {
        // One batch per dimension, refilled for every row count: the
        // sorting schedule cached in its scratch has to follow the count
        // up — and, at the end, back down.
        let mut batch = GradientBatch::new(dim);
        for count in (1..=70usize).chain([40, 9, 2]) {
            let columns = refill(&mut batch, count, (count * 131 + dim) as u64);
            let every_legal_f = 0..=(count - 1) / 2;
            assert_order_contract(&mut batch, &columns, every_legal_f, &pools);
        }
    }
}

// Two tests, so the harness runs the debug-build kernels side by side.

#[test]
fn cwtm_and_cwmed_equal_the_sorted_references_inside_one_tile() {
    check_every_count_at(&[1, 2, 31, 32]);
}

#[test]
fn cwtm_and_cwmed_equal_the_sorted_references_across_tiles() {
    check_every_count_at(&[33, 100]);
}

#[test]
fn the_order_contract_holds_when_tiles_are_sharded_across_the_pool() {
    // `n · d` above the sharding floor, so 2 and 4 threads really split
    // the tiles (1210 columns leave a partial last tile).
    let pools = pools();
    let mut batch = GradientBatch::new(1210);
    for count in [7usize, 40, 70] {
        let columns = refill(&mut batch, count, count as u64);
        let trims = [0, 1, (count - 1) / 2].into_iter();
        assert_order_contract(&mut batch, &columns, trims, &pools);
    }
}

//! The Krum family against a slow reference in the pre-matrix formulation.
//!
//! Krum, Multi-Krum and Bulyan score out of one squared-distance matrix
//! per aggregation call, each unordered pair computed once: by the
//! four-wide walk below one 128-column block, by the column-block kernel
//! from one block up. The reference below does what the filters did before
//! that: one `rowops::dist` per *ordered* pair, again in every Bulyan
//! selection round. The two must agree on every output bit — over sizes
//! around the four-wide grouping (`n ≡ 0, 1, 3 mod 4`), every admissible
//! `f`, tie-heavy batches, and thread counts with `d` on both sides of
//! the sharding floor.

mod common;

use abft_filters::{batch_of, Bulyan, GradientFilter, Krum, MultiKrum};
use abft_linalg::stats::trimmed_mean;
use abft_linalg::{rowops, Vector, WorkerPool};
use abft_telemetry::DispatchProfile;
use std::sync::Arc;

/// `par::MIN_PARALLEL_WORK`: the pair matrix shards once `pairs · d`
/// reaches it.
const SHARDING_FLOOR: usize = 8192;

/// Irregular rows (signs, magnitudes and norms all differ).
fn irregular(n: usize, dim: usize) -> Vec<Vector> {
    (0..n)
        .map(|i| {
            (0..dim)
                .map(|k| {
                    let base = ((i * 37 + k * 11) % 19) as f64 - 9.0;
                    base * (1.0 + 0.01 * k as f64) + 0.25 * i as f64
                })
                .collect::<Vec<_>>()
                .into()
        })
        .collect()
}

/// Every distinct row three times over: scores tie exactly.
fn duplicated(n: usize, dim: usize) -> Vec<Vector> {
    let distinct = irregular(n.div_ceil(3), dim);
    (0..n).map(|i| distinct[i / 3].clone()).collect()
}

/// One row `n` times: every distance is zero.
fn identical(n: usize, dim: usize) -> Vec<Vector> {
    vec![irregular(1, dim).remove(0); n]
}

/// Krum scores of the pool members, one `dist` per ordered pair.
fn reference_scores(rows: &[Vector], pool: &[usize], neighbours: usize) -> Vec<f64> {
    pool.iter()
        .map(|&i| {
            let mut dists: Vec<f64> = pool
                .iter()
                .filter(|&&j| j != i)
                .map(|&j| {
                    let d = rowops::dist(rows[i].as_slice(), rows[j].as_slice());
                    d * d
                })
                .collect();
            dists.sort_unstable_by(f64::total_cmp);
            dists.iter().take(neighbours).sum()
        })
        .collect()
}

/// Scores of all rows against all others, as Krum and Multi-Krum use them.
fn reference_full_scores(rows: &[Vector], f: usize) -> Vec<f64> {
    let pool: Vec<usize> = (0..rows.len()).collect();
    reference_scores(rows, &pool, rows.len() - f - 2)
}

fn reference_krum(rows: &[Vector], scores: &[f64]) -> Vector {
    let best = (0..rows.len())
        .min_by(|&a, &b| scores[a].total_cmp(&scores[b]))
        .expect("non-empty");
    rows[best].clone()
}

fn reference_multi_krum(rows: &[Vector], scores: &[f64], m: usize) -> Vector {
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]).then(a.cmp(&b)));
    let mut acc = vec![0.0; rows[0].dim()];
    for &i in &order[..m] {
        rowops::add_assign(&mut acc, rows[i].as_slice());
    }
    rowops::scale(&mut acc, 1.0 / m as f64);
    acc.into()
}

fn reference_bulyan(rows: &[Vector], f: usize) -> Vector {
    let mut pool: Vec<usize> = (0..rows.len()).collect();
    let mut selection = Vec::new();
    while selection.len() < rows.len() - 2 * f {
        let neighbours = pool.len().saturating_sub(f + 2).max(1);
        let scores = reference_scores(rows, &pool, neighbours);
        let winner = (0..pool.len())
            .min_by(|&a, &b| {
                scores[a].total_cmp(&scores[b]).then_with(|| {
                    rowops::lex_cmp(rows[pool[a]].as_slice(), rows[pool[b]].as_slice())
                })
            })
            .expect("pool outlasts the selection");
        selection.push(pool.remove(winner));
    }
    (0..rows[0].dim())
        .map(|k| {
            let column: Vec<f64> = selection.iter().map(|&i| rows[i][k]).collect();
            trimmed_mean(&column, f).expect("n >= 4f + 3 keeps values")
        })
        .collect::<Vec<_>>()
        .into()
}

/// Runs `filter` on each pool (1, 2 and 4 threads), asserting every
/// output equals `expected` bit for bit. Returns the pool dispatches the
/// last call made.
fn assert_matches_reference(
    pools: &[Arc<WorkerPool>],
    filter: &dyn GradientFilter,
    rows: &[Vector],
    f: usize,
    expected: &Vector,
    label: &str,
) -> u64 {
    let mut dispatches = 0;
    for pool in pools {
        let threads = pool.threads();
        let mut batch = batch_of(rows).expect("batch builds");
        batch.set_worker_pool(Some(Arc::clone(pool)));
        batch.set_dispatch_profile(Some(DispatchProfile::new()));
        let mut out = Vector::zeros(1);
        filter
            .aggregate_into(&batch, f, &mut out)
            .unwrap_or_else(|e| panic!("{label} at {threads} threads: {e}"));
        let same = out.dim() == expected.dim()
            && out
                .iter()
                .zip(expected.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(
            same,
            "{label} at {threads} threads: {out:?} vs reference {expected:?}"
        );
        let profile = batch.take_dispatch_profile().expect("installed above");
        dispatches = profile.snapshot().dispatches;
    }
    dispatches
}

fn check_sizes(sizes: &[usize]) {
    let pools = [1usize, 2, 4].map(|threads| Arc::new(WorkerPool::new(threads)));
    for &n in sizes {
        let pairs = n * (n - 1) / 2;
        let above_floor = SHARDING_FLOOR.div_ceil(pairs);
        for (dim, sharded) in [(above_floor - 1, false), (above_floor, true)] {
            for (kind, rows) in [
                ("irregular", irregular(n, dim)),
                ("duplicated", duplicated(n, dim)),
                ("identical", identical(n, dim)),
            ] {
                for f in 0..=(n - 3) / 2 {
                    let label = format!("{kind} n={n} d={dim} f={f}");
                    let scores = reference_full_scores(&rows, f);
                    let dispatches = assert_matches_reference(
                        &pools,
                        &Krum::new(),
                        &rows,
                        f,
                        &reference_krum(&rows, &scores),
                        &format!("krum {label}"),
                    );
                    // Krum's only sharded stage is the pair matrix, so its
                    // dispatch count shows which side of the floor ran.
                    assert_eq!(dispatches, u64::from(sharded), "krum {label}");

                    for m in [1, (n - f) / 2, n - f] {
                        assert_matches_reference(
                            &pools,
                            &MultiKrum::new(m).expect("m >= 1"),
                            &rows,
                            f,
                            &reference_multi_krum(&rows, &scores, m),
                            &format!("multi-krum m={m} {label}"),
                        );
                    }
                    if n >= 4 * f + 3 {
                        assert_matches_reference(
                            &pools,
                            &Bulyan::new(),
                            &rows,
                            f,
                            &reference_bulyan(&rows, f),
                            &format!("bulyan {label}"),
                        );
                    }
                }
            }
        }
    }
}

// One test per wide size: the debug-build cost is Bulyan's θ selection
// rounds, so the harness runs them side by side.

#[test]
fn krum_family_matches_the_reference_at_minimum_sizes() {
    check_sizes(&[7, 9, 11]);
}

#[test]
fn krum_family_matches_the_reference_at_n40() {
    check_sizes(&[40]);
}

#[test]
fn krum_family_matches_the_reference_at_n41() {
    check_sizes(&[41]);
}

#[test]
fn krum_family_matches_the_reference_at_n43() {
    check_sizes(&[43]);
}

/// `par::PAIR_BLOCK`: from this many columns on, the pair matrix comes
/// from the column-block kernel at the CPU's widest vector width.
const PAIR_BLOCK: usize = 128;

#[test]
fn krum_family_matches_the_reference_across_column_blocks() {
    // The tests above run `n ≥ 40` at `d ≤ 11`, the narrow pair walk; here
    // the wide shape's `n` meets widths on both sides of one block and
    // past two, with irregular and hostile rows, serial and sharded.
    let pools = [1usize, 2, 4].map(|threads| Arc::new(WorkerPool::new(threads)));
    for n in [40usize, 41, 43] {
        for dim in [
            PAIR_BLOCK - 1,
            PAIR_BLOCK,
            PAIR_BLOCK + 1,
            2 * PAIR_BLOCK + 5,
        ] {
            let hostile = common::hostile_rows(n, dim, (n * 131 + dim) as u64);
            for (kind, rows) in [("irregular", irregular(n, dim)), ("hostile", hostile)] {
                for f in [0, 1, (n - 3) / 4, (n - 3) / 2] {
                    let label = format!("{kind} n={n} d={dim} f={f}");
                    let scores = reference_full_scores(&rows, f);
                    let expected = reference_krum(&rows, &scores);
                    let krum = format!("krum {label}");
                    assert_matches_reference(&pools, &Krum::new(), &rows, f, &expected, &krum);
                    let m = (n - f) / 2;
                    let expected = reference_multi_krum(&rows, &scores, m);
                    let multi_krum = MultiKrum::new(m).expect("m >= 1");
                    let label_m = format!("multi-krum m={m} {label}");
                    assert_matches_reference(&pools, &multi_krum, &rows, f, &expected, &label_m);
                    if n >= 4 * f + 3 {
                        let expected = reference_bulyan(&rows, f);
                        let bulyan = format!("bulyan {label}");
                        assert_matches_reference(
                            &pools,
                            &Bulyan::new(),
                            &rows,
                            f,
                            &expected,
                            &bulyan,
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn bulyan_trim_stage_matches_the_sorted_reference_on_hostile_columns() {
    // The trim stage is the order-statistics kernel of `order_contract.rs`
    // on a row *subset*: the selected rows, in selection order. Columns of
    // signed zeros, subnormals, duplicates and 600 orders of magnitude,
    // on both sides of the 32-column tile boundary, at every legal `f`.
    let pools = [1usize, 2, 4].map(|threads| Arc::new(WorkerPool::new(threads)));
    for n in [7usize, 11, 23] {
        for dim in [1usize, 2, 31, 32, 33, 100, 1210] {
            let rows = common::hostile_rows(n, dim, (n * 131 + dim) as u64);
            for f in 0..=(n - 3) / 4 {
                let expected = reference_bulyan(&rows, f);
                let label = format!("hostile bulyan n={n} d={dim} f={f}");
                assert_matches_reference(&pools, &Bulyan::new(), &rows, f, &expected, &label);
            }
        }
    }
}

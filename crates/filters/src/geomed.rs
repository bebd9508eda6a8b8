//! Geometric median (Weiszfeld) and geometric median-of-means.

use crate::error::FilterError;
use crate::par::{centre_dists_into, weighted_sum_into, Rows};
use crate::traits::{validate_batch, zeroed_out, GradientFilter};
use abft_linalg::pool::WorkerPool;
use abft_linalg::{rowops, GradientBatch, Vector};
use abft_telemetry::DispatchProfile;

/// Geometric median via the (smoothed) Weiszfeld algorithm.
///
/// The geometric median `argmin_z Σᵢ‖z − gᵢ‖` is a classic robust aggregator
/// (cited by the paper via Chen–Su–Xu's GMoM \[14\]); it tolerates strictly
/// fewer than half corrupted points.
///
/// Weiszfeld iterations run for at most 200 rounds or until the iterate
/// moves by no more than `1e-10`, and are smoothed with a small `1e-12` in
/// the denominators so the iteration is well-defined when the iterate
/// lands on an input point.
#[derive(Debug, Clone, Copy, Default)]
pub struct GeometricMedian;

/// Weiszfeld's iteration budget.
const MAX_ITERS: usize = 200;
/// Weiszfeld's convergence tolerance on the step `‖z′ − z‖`.
const TOL: f64 = 1e-10;
/// Weiszfeld's denominator smoothing.
const EPSILON: f64 = 1e-12;

impl GeometricMedian {
    /// Creates the filter.
    pub fn new() -> Self {
        GeometricMedian
    }
}

/// Smoothed Weiszfeld over the `count` contiguous rows of `rows`,
/// writing the geometric median into `out`. `weights`, `z`, and
/// `numerator` are caller-owned scratch (reused across calls); nothing
/// is allocated here beyond their first-use growth.
///
/// Each iteration makes two O(count · dim) passes: the distances
/// `‖z − g_p‖`, four rows per walk over `z`
/// ([`centre_dists_into`]), which then become the weights
/// `w_p = 1/(‖z − g_p‖ + ε)`; and the weighted accumulation. Every
/// distance equals [`rowops::dist`]`(z, g_p)` bit for bit, whatever group
/// of four its row lands in. With a `pool`, the distances shard across
/// row slots and the accumulation across column ranges — both
/// bit-identical to the serial pass (the per-coordinate addition order is
/// the row order either way, and the denominator sums the weights buffer
/// in row order).
#[expect(
    clippy::too_many_arguments,
    reason = "internal kernel: scratch plumbing"
)]
fn weiszfeld_into(
    rows: Rows<'_>,
    count: usize,
    dim: usize,
    pool: Option<&WorkerPool>,
    profile: Option<&DispatchProfile>,
    weights: &mut Vec<f64>,
    z: &mut Vec<f64>,
    numerator: &mut Vec<f64>,
    out: &mut [f64],
) {
    // Start from the coordinate-wise mean.
    z.clear();
    z.resize(dim, 0.0);
    weighted_sum_into(pool, profile, rows, None, None, count, z);
    rowops::scale(z, 1.0 / count as f64);

    numerator.clear();
    numerator.resize(dim, 0.0);
    weights.clear();
    weights.resize(count, 0.0);
    for _ in 0..MAX_ITERS {
        centre_dists_into(pool, profile, rows, None, Some(z), weights);
        for w in weights.iter_mut() {
            *w = 1.0 / (*w + EPSILON);
        }
        let denominator: f64 = weights.iter().sum();
        rowops::fill_zero(numerator);
        weighted_sum_into(pool, profile, rows, None, Some(weights), count, numerator);
        rowops::scale(numerator, 1.0 / denominator);
        let step = rowops::dist(numerator, z);
        z.copy_from_slice(numerator);
        if step <= TOL {
            break;
        }
    }
    out.copy_from_slice(z);
}

impl GradientFilter for GeometricMedian {
    fn aggregate_into(
        &self,
        batch: &GradientBatch,
        f: usize,
        out: &mut Vector,
    ) -> Result<(), FilterError> {
        let dim = validate_batch("geomed", batch, f)?;
        let mut scratch = batch.scratch();
        let s = &mut *scratch;
        let slots = zeroed_out(out, dim);
        weiszfeld_into(
            Rows::of(batch),
            batch.len(),
            dim,
            batch.worker_pool(),
            batch.dispatch_profile(),
            &mut s.keys,
            &mut s.vec_a,
            &mut s.vec_b,
            slots,
        );
        Ok(())
    }

    fn name(&self) -> &'static str {
        "geomed"
    }
}

/// Geometric median-of-means (GMoM, Chen–Su–Xu 2017 — the paper's ref \[14\]).
///
/// Partitions the `n` gradients into `groups` buckets (round-robin by
/// index), averages each bucket, and returns the geometric median of the
/// bucket means. Robust as long as fewer than half the buckets contain a
/// Byzantine gradient, so `groups` should exceed `2f`.
#[derive(Debug, Clone, Copy)]
pub struct GeometricMedianOfMeans {
    groups: usize,
}

impl GeometricMedianOfMeans {
    /// Creates the filter with the given number of buckets.
    ///
    /// # Errors
    ///
    /// Returns [`FilterError::InvalidParameter`] for zero buckets.
    pub fn new(groups: usize) -> Result<Self, FilterError> {
        if groups == 0 {
            return Err(FilterError::InvalidParameter {
                filter: "gmom",
                reason: "group count must be positive".into(),
            });
        }
        Ok(GeometricMedianOfMeans { groups })
    }

    /// The configured bucket count.
    pub fn groups(&self) -> usize {
        self.groups
    }
}

impl GradientFilter for GeometricMedianOfMeans {
    // LINT-ALLOW(panic-reach): the flat workspace is resized to
    // groups * dim and the count buffer to groups before the bucketing
    // loops, whose bucket index is always `slot % groups`.
    fn aggregate_into(
        &self,
        batch: &GradientBatch,
        f: usize,
        out: &mut Vector,
    ) -> Result<(), FilterError> {
        let dim = validate_batch("gmom", batch, f)?;
        let n = batch.len();
        if self.groups > n {
            return Err(FilterError::TooFewGradients {
                filter: "gmom",
                n,
                f,
                requirement: "n must be at least the configured group count",
            });
        }
        if self.groups <= 2 * f {
            return Err(FilterError::InvalidParameter {
                filter: "gmom",
                reason: format!(
                    "groups = {} must exceed 2f = {} for a Byzantine-minority of buckets",
                    self.groups,
                    2 * f
                ),
            });
        }
        let mut scratch = batch.scratch();
        let s = &mut *scratch;

        // Round-robin bucketing over a canonical (lexicographic) order so the
        // filter is permutation-invariant: agents are anonymous, and the
        // deterministic-algorithm framing of the paper requires the output to
        // depend only on the multiset of received gradients.
        s.order.clear();
        s.order.extend(0..n);
        s.order
            .sort_unstable_by(|&i, &j| rowops::lex_cmp(batch.row(i), batch.row(j)));

        // Bucket sums live in the flat workspace (groups × dim); counts in
        // the `pool` index buffer.
        s.flat.clear();
        s.flat.resize(self.groups * dim, 0.0);
        s.pool.clear();
        s.pool.resize(self.groups, 0);
        for (slot, &i) in s.order.iter().enumerate() {
            let b = slot % self.groups;
            rowops::add_assign(&mut s.flat[b * dim..(b + 1) * dim], batch.row(i));
            s.pool[b] += 1;
        }
        for (b, &count) in s.pool.iter().enumerate() {
            rowops::scale(&mut s.flat[b * dim..(b + 1) * dim], 1.0 / count as f64);
        }

        let slots = zeroed_out(out, dim);
        weiszfeld_into(
            Rows::new(&s.flat[..self.groups * dim], dim),
            self.groups,
            dim,
            batch.worker_pool(),
            batch.dispatch_profile(),
            &mut s.keys,
            &mut s.vec_a,
            &mut s.vec_b,
            slots,
        );
        Ok(())
    }

    fn name(&self) -> &'static str {
        "gmom"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{aggregate_rows, GradientFilter};

    #[test]
    fn median_of_collinear_points() {
        // For points on a line, the geometric median is the 1-D median.
        let gs = vec![
            Vector::from(vec![0.0, 0.0]),
            Vector::from(vec![1.0, 0.0]),
            Vector::from(vec![10.0, 0.0]),
        ];
        let out = aggregate_rows(&GeometricMedian::new(), &gs, 1).unwrap();
        assert!((out[0] - 1.0).abs() < 1e-5);
        assert!(out[1].abs() < 1e-9);
    }

    #[test]
    fn resists_one_outlier() {
        let gs = vec![
            Vector::from(vec![1.0, 1.0]),
            Vector::from(vec![1.1, 0.9]),
            Vector::from(vec![0.9, 1.1]),
            Vector::from(vec![1e9, -1e9]),
        ];
        let out = aggregate_rows(&GeometricMedian::new(), &gs, 1).unwrap();
        assert!(out.dist(&Vector::from(vec![1.0, 1.0])) < 0.5);
    }

    #[test]
    fn symmetric_input_gives_center() {
        let gs = vec![
            Vector::from(vec![1.0, 0.0]),
            Vector::from(vec![-1.0, 0.0]),
            Vector::from(vec![0.0, 1.0]),
            Vector::from(vec![0.0, -1.0]),
        ];
        let out = aggregate_rows(&GeometricMedian::new(), &gs, 1).unwrap();
        assert!(out.norm() < 1e-6);
    }

    #[test]
    fn configuration_validation() {
        assert!(GeometricMedianOfMeans::new(0).is_err());
        assert_eq!(GeometricMedianOfMeans::new(3).unwrap().groups(), 3);
    }

    #[test]
    fn gmom_requires_enough_groups_and_inputs() {
        let gs = vec![Vector::zeros(2); 5];
        // groups > n
        assert!(aggregate_rows(&GeometricMedianOfMeans::new(6).unwrap(), &gs, 1).is_err());
        // groups <= 2f
        assert!(aggregate_rows(&GeometricMedianOfMeans::new(2).unwrap(), &gs, 1).is_err());
        // valid
        assert!(aggregate_rows(&GeometricMedianOfMeans::new(3).unwrap(), &gs, 1).is_ok());
    }

    #[test]
    fn gmom_resists_bucket_minority_corruption() {
        // 9 gradients, 3 buckets; the single faulty gradient corrupts one
        // bucket, and the geometric median of bucket means ignores it.
        let mut gs = vec![Vector::from(vec![1.0]); 9];
        gs[0] = Vector::from(vec![1e9]);
        let out = aggregate_rows(&GeometricMedianOfMeans::new(3).unwrap(), &gs, 1).unwrap();
        assert!((out[0] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn identical_inputs_are_a_fixed_point() {
        let gs = vec![Vector::from(vec![2.0, -3.0]); 4];
        let out = aggregate_rows(&GeometricMedian::new(), &gs, 1).unwrap();
        assert!(out.approx_eq(&gs[0], 1e-9));
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(GeometricMedian::new().name(), "geomed");
        assert_eq!(GeometricMedianOfMeans::new(3).unwrap().name(), "gmom");
    }
}

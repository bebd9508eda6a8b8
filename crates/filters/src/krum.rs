//! Krum and Multi-Krum (Blanchard et al., NeurIPS 2017 — the paper's
//! reference \[6\]).

use crate::error::FilterError;
use crate::par::{pairwise_dist_sq_into, weighted_sum_into, Rows};
use crate::traits::{validate_batch, zeroed_out, GradientFilter};
use abft_linalg::{rowops, BatchScratch, GradientBatch, Vector};

/// Computes each pool member's Krum score — the sum of squared distances
/// to its `neighbours` nearest neighbours within the pool — into
/// `scores`, reading the batch's `n × n` squared-distance matrix
/// `dist_sq` ([`pairwise_dist_sq_into`]). `pool` holds batch row indices;
/// `dists` is reusable scratch.
///
/// Pure scalar work, `O(|pool|² log |pool|)`: no gradient row is touched.
/// Distances compare under `total_cmp`, so a NaN reaching this deep
/// orders deterministically instead of aborting.
pub(crate) fn krum_scores_into(
    dist_sq: &[f64],
    n: usize,
    pool: &[usize],
    neighbours: usize,
    dists: &mut Vec<f64>,
    scores: &mut Vec<f64>,
) {
    scores.clear();
    for &i in pool {
        let row = dist_sq.get(i * n..(i + 1) * n).unwrap_or_default();
        dists.clear();
        dists.extend(pool.iter().filter(|&&j| j != i).filter_map(|&j| row.get(j)));
        dists.sort_unstable_by(f64::total_cmp);
        scores.push(dists.iter().take(neighbours).sum());
    }
}

/// Scores every row of the batch against all others (`neighbours =
/// n − f − 2`) into `s.keys`, filling `s.dist_sq` on the way.
fn score_all_rows(batch: &GradientBatch, f: usize, s: &mut BatchScratch) {
    let n = batch.len();
    pairwise_dist_sq_into(batch, &mut s.dist_sq);
    s.pool.clear();
    s.pool.extend(0..n);
    krum_scores_into(
        &s.dist_sq,
        n,
        &s.pool,
        n - f - 2,
        &mut s.column,
        &mut s.keys,
    );
}

/// Validates Krum's `n ≥ 2f + 3` requirement on top of the shared checks.
fn validate_krum(
    filter: &'static str,
    batch: &GradientBatch,
    f: usize,
) -> Result<usize, FilterError> {
    let dim = validate_batch(filter, batch, f)?;
    if batch.len() < 2 * f + 3 {
        return Err(FilterError::TooFewGradients {
            filter,
            n: batch.len(),
            f,
            requirement: "n >= 2f + 3",
        });
    }
    Ok(dim)
}

/// The Krum gradient filter: selects the *single* received gradient whose
/// summed squared distance to its `n − f − 2` nearest neighbours is
/// smallest.
///
/// Requires `n ≥ 2f + 3`. This is the paper's reference \[6\], included as a
/// baseline for the filter-vs-attack grid.
///
/// Cost per call: `n(n−1)/2` full-`d` distance passes (each unordered pair
/// once, into the batch's squared-distance matrix) plus `O(n² log n)`
/// scalar work scoring out of it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Krum;

impl Krum {
    /// Creates the Krum filter.
    pub fn new() -> Self {
        Krum
    }

    /// The row index Krum selects (ties broken by lowest index).
    pub(crate) fn selected_row(batch: &GradientBatch, f: usize) -> Result<usize, FilterError> {
        validate_krum("krum", batch, f)?;
        let mut scratch = batch.scratch();
        score_all_rows(batch, f, &mut scratch);
        scratch
            .keys
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(i, _)| i)
            .ok_or(FilterError::Empty)
    }
}

impl GradientFilter for Krum {
    fn aggregate_into(
        &self,
        batch: &GradientBatch,
        f: usize,
        out: &mut Vector,
    ) -> Result<(), FilterError> {
        let idx = Self::selected_row(batch, f)?;
        let slots = zeroed_out(out, batch.dim());
        slots.copy_from_slice(batch.row(idx));
        Ok(())
    }

    fn name(&self) -> &'static str {
        "krum"
    }
}

/// Multi-Krum: averages the `m` gradients with the best Krum scores.
///
/// `m = 1` reduces to [`Krum`]; `m = n − f` approaches the mean over a
/// plausible honest set. Scoring costs what [`Krum`]'s does; the average
/// adds `m` row passes.
#[derive(Debug, Clone, Copy)]
pub struct MultiKrum {
    m: usize,
}

impl MultiKrum {
    /// Creates Multi-Krum selecting the best `m` gradients.
    ///
    /// # Errors
    ///
    /// Returns [`FilterError::InvalidParameter`] for `m == 0`.
    pub fn new(m: usize) -> Result<Self, FilterError> {
        if m == 0 {
            return Err(FilterError::InvalidParameter {
                filter: "multi-krum",
                reason: "selection size m must be positive".into(),
            });
        }
        Ok(MultiKrum { m })
    }
}

impl GradientFilter for MultiKrum {
    fn aggregate_into(
        &self,
        batch: &GradientBatch,
        f: usize,
        out: &mut Vector,
    ) -> Result<(), FilterError> {
        let dim = validate_krum("multi-krum", batch, f)?;
        let n = batch.len();
        if self.m > n - f {
            return Err(FilterError::InvalidParameter {
                filter: "multi-krum",
                reason: format!("m = {} exceeds the honest quorum n - f = {}", self.m, n - f),
            });
        }
        let mut scratch = batch.scratch();
        let s = &mut *scratch;
        score_all_rows(batch, f, s);
        s.order.clear();
        s.order.extend(0..n);
        let scores = &s.keys;
        let score = |i: usize| scores.get(i).copied().unwrap_or(f64::NAN);
        s.order
            .sort_unstable_by(|&i, &j| score(i).total_cmp(&score(j)).then(i.cmp(&j)));
        s.order.truncate(self.m);

        let acc = zeroed_out(out, dim);
        weighted_sum_into(
            batch.worker_pool(),
            batch.dispatch_profile(),
            Rows::of(batch),
            Some(&s.order),
            None,
            s.order.len(),
            acc,
        );
        rowops::scale(acc, 1.0 / s.order.len() as f64);
        Ok(())
    }

    fn name(&self) -> &'static str {
        "multi-krum"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{aggregate_rows, batch_of};

    /// 5 clustered honest gradients + 1 far outlier (n = 6, f = 1).
    fn clustered_with_outlier() -> Vec<Vector> {
        vec![
            Vector::from(vec![1.0, 1.0]),
            Vector::from(vec![1.1, 0.9]),
            Vector::from(vec![0.9, 1.1]),
            Vector::from(vec![1.05, 1.0]),
            Vector::from(vec![0.95, 1.0]),
            Vector::from(vec![500.0, -500.0]),
        ]
    }

    #[test]
    fn krum_picks_a_clustered_gradient() {
        let gs = clustered_with_outlier();
        let idx = Krum::selected_row(&batch_of(&gs).unwrap(), 1).unwrap();
        assert!(idx < 5, "krum selected the outlier");
        let out = aggregate_rows(&Krum::new(), &gs, 1).unwrap();
        assert!(out.dist(&Vector::from(vec![1.0, 1.0])) < 0.5);
    }

    #[test]
    fn krum_output_is_one_of_the_inputs() {
        let gs = clustered_with_outlier();
        let out = aggregate_rows(&Krum::new(), &gs, 1).unwrap();
        assert!(gs.iter().any(|g| g.approx_eq(&out, 0.0)));
    }

    #[test]
    fn krum_requires_2f_plus_3() {
        let gs = vec![Vector::zeros(1); 4];
        assert!(matches!(
            aggregate_rows(&Krum::new(), &gs, 1),
            Err(FilterError::TooFewGradients { .. })
        ));
        let gs = vec![Vector::zeros(1); 5];
        assert!(aggregate_rows(&Krum::new(), &gs, 1).is_ok());
    }

    #[test]
    fn multi_krum_averages_best_m() {
        let gs = clustered_with_outlier();
        let out = aggregate_rows(&MultiKrum::new(3).unwrap(), &gs, 1).unwrap();
        assert!(out.dist(&Vector::from(vec![1.0, 1.0])) < 0.2);
    }

    #[test]
    fn multi_krum_m1_equals_krum() {
        let gs = clustered_with_outlier();
        let krum = aggregate_rows(&Krum::new(), &gs, 1).unwrap();
        let mk = aggregate_rows(&MultiKrum::new(1).unwrap(), &gs, 1).unwrap();
        assert!(krum.approx_eq(&mk, 0.0));
    }

    #[test]
    fn multi_krum_validates_m() {
        assert!(MultiKrum::new(0).is_err());
        let gs = clustered_with_outlier();
        // m > n − f = 5.
        assert!(aggregate_rows(&MultiKrum::new(6).unwrap(), &gs, 1).is_err());
    }

    #[test]
    fn scores_prefer_dense_neighbourhoods() {
        let gs = clustered_with_outlier();
        let batch = batch_of(&gs).unwrap();
        let mut scratch = batch.scratch();
        score_all_rows(&batch, 1, &mut scratch);
        let scores = &scratch.keys;
        let outlier_score = scores[5];
        for s in &scores[..5] {
            assert!(s < &outlier_score);
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Krum::new().name(), "krum");
        assert_eq!(MultiKrum::new(2).unwrap().name(), "multi-krum");
    }
}

//! Bulyan (El Mhamdi–Guerraoui–Rouault, ICML 2018 — the paper's
//! reference \[20\]).

use crate::error::FilterError;
use crate::krum::krum_scores_into;
use crate::par::{pairwise_dist_sq_into, trimmed_mean_columns};
use crate::traits::{validate_batch, zeroed_out, GradientFilter};
use abft_linalg::{rowops, GradientBatch, Vector};

/// The Bulyan gradient filter.
///
/// Two stages:
/// 1. **Selection**: repeatedly run Krum over the remaining gradients,
///    moving each winner into a selection set, until `θ = n − 2f` gradients
///    are selected.
/// 2. **Aggregation**: output the coordinate-wise trimmed mean of the
///    selection with trim level `f` (averaging the `θ − 2f` central values
///    of each coordinate).
///
/// Requires `n ≥ 4f + 3` so that every intermediate Krum call sees at least
/// `2f + 3` gradients and the final trim keeps at least one value.
///
/// Cost per call: the batch's squared-distance matrix — `n(n−1)/2` pairs
/// over `d` columns, computed once and shared by all `θ` selection
/// rounds; from one 128-column block up, eight pairs of a row advance per
/// vector op over a column-major copy of the block — plus
/// `O(θ · n² log n)` scalar work re-scoring the shrinking pool out of it,
/// plus the trimmed mean's `O(d · θ log² θ)` sorting-network pass.
///
/// **Order contract.** Stage 2 is [`Cwtm`](crate::Cwtm)'s kernel on the
/// selected rows: coordinate `k` is bit-equal to
/// [`abft_linalg::stats::trimmed_mean`] of the selection's column `k`
/// with `trim = f` (middle order statistics under [`f64::total_cmp`],
/// summed ascending), whatever order the selection rounds picked the rows
/// in — pinned by `tests/krum_reference.rs` and the tier-1 golden digests.
#[derive(Debug, Clone, Copy, Default)]
pub struct Bulyan;

impl Bulyan {
    /// Creates the Bulyan filter.
    pub fn new() -> Self {
        Bulyan
    }
}

impl GradientFilter for Bulyan {
    fn aggregate_into(
        &self,
        batch: &GradientBatch,
        f: usize,
        out: &mut Vector,
    ) -> Result<(), FilterError> {
        let dim = validate_batch("bulyan", batch, f)?;
        let n = batch.len();
        if n < 4 * f + 3 {
            return Err(FilterError::TooFewGradients {
                filter: "bulyan",
                n,
                f,
                requirement: "n >= 4f + 3",
            });
        }
        let mut scratch = batch.scratch();
        let s = &mut *scratch;

        // Stage 1: iterative Krum selection of θ = n − 2f gradients. As the
        // pool shrinks below Krum's canonical n ≥ 2f + 3 regime, the
        // neighbour count is clamped (standard in Bulyan implementations):
        // the top-level n ≥ 4f + 3 requirement carries the guarantee. The
        // pool is a shrinking list of batch row indices — no gradient is
        // ever copied during selection, and every round scores out of the
        // one distance matrix computed here.
        let theta = n - 2 * f;
        pairwise_dist_sq_into(batch, &mut s.dist_sq);
        s.pool.clear();
        s.pool.extend(0..n);
        s.selection.clear();
        while s.selection.len() < theta {
            let neighbours = s.pool.len().saturating_sub(f + 2).max(1);
            krum_scores_into(
                &s.dist_sq,
                n,
                &s.pool,
                neighbours,
                &mut s.column,
                &mut s.keys,
            );
            // Ties are broken by the gradient's lexicographic value (not its
            // index) so the selection depends only on the received multiset,
            // keeping the filter permutation-invariant.
            let winner_in_pool = s
                .keys
                .iter()
                .zip(&s.pool)
                .enumerate()
                .min_by(|(_, (a, &i)), (_, (b, &j))| {
                    a.total_cmp(b)
                        .then_with(|| rowops::lex_cmp(batch.row(i), batch.row(j)))
                })
                .map(|(p, _)| p)
                .ok_or(FilterError::Empty)?;
            let winner = s.pool.remove(winner_in_pool);
            s.selection.push(winner);
        }

        // Stage 2: coordinate-wise trimmed mean over the selection with
        // trim f (keeps θ − 2f ≥ 3 values; n ≥ 4f+3 guarantees positivity).
        // Column tiles shard across the batch's worker pool like CWTM.
        let slots = zeroed_out(out, dim);
        let selection = Some(s.selection.as_slice());
        trimmed_mean_columns(batch, selection, f, &mut s.network, &mut s.flat, slots);
        Ok(())
    }

    fn name(&self) -> &'static str {
        "bulyan"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::aggregate_rows;

    /// n = 7, f = 1 satisfies n ≥ 4f + 3.
    fn cluster_with_outlier() -> Vec<Vector> {
        vec![
            Vector::from(vec![1.0, 1.0]),
            Vector::from(vec![1.1, 0.9]),
            Vector::from(vec![0.9, 1.1]),
            Vector::from(vec![1.05, 0.95]),
            Vector::from(vec![0.95, 1.05]),
            Vector::from(vec![1.02, 1.02]),
            Vector::from(vec![-1000.0, 1000.0]),
        ]
    }

    #[test]
    fn resists_gross_outlier() {
        let out = aggregate_rows(&Bulyan::new(), &cluster_with_outlier(), 1).unwrap();
        assert!(out.dist(&Vector::from(vec![1.0, 1.0])) < 0.2);
    }

    #[test]
    fn requires_4f_plus_3() {
        let gs = vec![Vector::zeros(1); 6];
        assert!(matches!(
            aggregate_rows(&Bulyan::new(), &gs, 1),
            Err(FilterError::TooFewGradients { .. })
        ));
        let gs = vec![Vector::zeros(1); 7];
        assert!(aggregate_rows(&Bulyan::new(), &gs, 1).is_ok());
    }

    #[test]
    fn identical_inputs_pass_through() {
        let gs = vec![Vector::from(vec![3.0, -1.0]); 7];
        let out = aggregate_rows(&Bulyan::new(), &gs, 1).unwrap();
        assert!(out.approx_eq(&Vector::from(vec![3.0, -1.0]), 1e-12));
    }

    #[test]
    fn fault_free_is_unbiased_on_symmetric_input() {
        // Symmetric spread around (0, 0) with f = 0: output ≈ centroid.
        let gs = vec![
            Vector::from(vec![1.0, 0.0]),
            Vector::from(vec![-1.0, 0.0]),
            Vector::from(vec![0.0, 1.0]),
            Vector::from(vec![0.0, -1.0]),
            Vector::from(vec![0.5, 0.5]),
            Vector::from(vec![-0.5, -0.5]),
            Vector::from(vec![0.0, 0.0]),
        ];
        let out = aggregate_rows(&Bulyan::new(), &gs, 0).unwrap();
        assert!(out.norm() < 0.3);
    }

    #[test]
    fn output_is_within_selection_hull_per_coordinate() {
        let gs = cluster_with_outlier();
        let out = aggregate_rows(&Bulyan::new(), &gs, 1).unwrap();
        // Honest cluster spans [0.9, 1.1] per coordinate; the trimmed mean of
        // any selection (which contains ≥ honest values only after trimming)
        // must stay within the full input hull at minimum.
        assert!(out[0] >= -1000.0 && out[0] <= 1.1 + 1e-9);
        assert!(out[1] >= 0.9 - 1e-9 && out[1] <= 1000.0);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(Bulyan::new().name(), "bulyan");
    }
}

//! FABA — Fast Aggregation against Byzantine Attacks (Xia et al., 2019).
//!
//! A simple outlier-peeling baseline: repeat `f` times — compute the mean
//! of the remaining gradients, discard the gradient farthest from it — then
//! average what is left. Contrast with CGE, which sorts by *norm* once: FABA
//! re-centres after every removal, so it also catches faulty gradients whose
//! norm blends in but whose direction is off.

use crate::error::FilterError;
use crate::par::{centre_dists_into, weighted_sum_into, Rows};
use crate::traits::{validate_batch, zeroed_out, GradientFilter};
use abft_linalg::{rowops, GradientBatch, Vector};

/// The FABA gradient filter.
#[derive(Debug, Clone, Copy, Default)]
pub struct Faba;

impl Faba {
    /// Creates the FABA filter.
    pub fn new() -> Self {
        Faba
    }
}

impl GradientFilter for Faba {
    fn aggregate_into(
        &self,
        batch: &GradientBatch,
        f: usize,
        out: &mut Vector,
    ) -> Result<(), FilterError> {
        let dim = validate_batch("faba", batch, f)?;
        let rows = Rows::of(batch);
        let pool = batch.worker_pool();
        let profile = batch.dispatch_profile();
        let mut scratch = batch.scratch();
        let s = &mut *scratch;
        s.pool.clear();
        s.pool.extend(0..batch.len());

        for _ in 0..f {
            // Mean of the remaining gradients (column-sharded; addition
            // order per coordinate is the pool order either way).
            s.vec_a.clear();
            s.vec_a.resize(dim, 0.0);
            weighted_sum_into(
                pool,
                profile,
                rows,
                Some(&s.pool),
                None,
                s.pool.len(),
                &mut s.vec_a,
            );
            rowops::scale(&mut s.vec_a, 1.0 / s.pool.len() as f64);

            // Distance-to-mean per remaining gradient, one slot each.
            let mean = &s.vec_a;
            let members = &s.pool;
            s.keys.clear();
            s.keys.resize(members.len(), 0.0);
            centre_dists_into(pool, profile, rows, Some(members), Some(mean), &mut s.keys);

            // Discard the farthest-from-mean gradient; ties break by the
            // gradient's lexicographic value for permutation invariance
            // (`total_cmp` keeps the comparison total on any input).
            let dists = &s.keys;
            #[expect(clippy::expect_used, reason = "peeling keeps the member set non-empty")]
            let (slot, _) = members
                .iter()
                .enumerate()
                .max_by(|(p, &i), (q, &j)| {
                    // LINT-ALLOW(panic-reach): dists holds one entry per
                    // member, so enumerate indices stay in bounds
                    dists[*p]
                        .total_cmp(&dists[*q])
                        .then_with(|| rowops::lex_cmp(rows.row(i), rows.row(j)))
                })
                .expect("remaining is non-empty while peeling");
            s.pool.remove(slot);
        }

        let acc = zeroed_out(out, dim);
        weighted_sum_into(pool, profile, rows, Some(&s.pool), None, s.pool.len(), acc);
        rowops::scale(acc, 1.0 / s.pool.len() as f64);
        Ok(())
    }

    fn name(&self) -> &'static str {
        "faba"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::aggregate_rows;

    #[test]
    fn peels_the_gross_outlier() {
        let gs = vec![
            Vector::from(vec![1.0, 1.0]),
            Vector::from(vec![1.1, 0.9]),
            Vector::from(vec![0.9, 1.1]),
            Vector::from(vec![1e6, -1e6]),
        ];
        let out = aggregate_rows(&Faba::new(), &gs, 1).unwrap();
        assert!(out.dist(&Vector::from(vec![1.0, 1.0])) < 0.2);
    }

    #[test]
    fn catches_direction_outliers_cge_misses() {
        // All gradients share the same norm; one points the opposite way.
        // CGE's norm sort cannot distinguish it — FABA's distance-to-mean
        // peeling can.
        let gs = vec![
            Vector::from(vec![1.0, 0.0]),
            Vector::from(vec![0.98, 0.199]),
            Vector::from(vec![0.98, -0.199]),
            Vector::from(vec![-1.0, 0.0]), // same norm, reversed
        ];
        let out = aggregate_rows(&Faba::new(), &gs, 1).unwrap();
        assert!(out[0] > 0.9, "reversed gradient not peeled: {out}");
    }

    #[test]
    fn f_zero_is_the_mean() {
        let gs = vec![Vector::from(vec![1.0]), Vector::from(vec![3.0])];
        let out = aggregate_rows(&Faba::new(), &gs, 0).unwrap();
        assert_eq!(out[0], 2.0);
    }

    #[test]
    fn respects_n_greater_than_2f() {
        let gs = vec![Vector::zeros(1); 4];
        assert!(aggregate_rows(&Faba::new(), &gs, 2).is_err());
        assert!(aggregate_rows(&Faba::new(), &gs, 1).is_ok());
    }

    #[test]
    fn identical_inputs_pass_through() {
        let gs = vec![Vector::from(vec![2.5, -1.5]); 5];
        let out = aggregate_rows(&Faba::new(), &gs, 2).unwrap();
        assert!(out.approx_eq(&gs[0], 1e-12));
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(Faba::new().name(), "faba");
    }
}

//! Comparative gradient elimination (CGE) — eq. (23) of the paper.

use crate::error::FilterError;
use crate::par::{centre_dists_into, weighted_sum_into, Rows};
use crate::traits::{validate_batch, zeroed_out, GradientFilter};
use abft_linalg::{rowops, BatchScratch, GradientBatch, Vector};

/// The CGE gradient filter (Gupta–Liu–Vaidya).
///
/// The server sorts the `n` received gradients by Euclidean norm and outputs
/// the **vector sum of the `n − f` smallest-norm gradients** (eq. 23). Under
/// `(2f, ε)`-redundancy and Assumptions 2–4, Theorem 4 shows DGD with CGE is
/// asymptotically `(f, Dε)`-resilient with `D = 4µf/(αγ)` provided
/// `α = 1 − (f/n)(1 + 2µ/γ) > 0`.
///
/// The [`Cge::averaged`] variant divides by `n − f` — an ablation of the
/// paper's *sum* semantics: averaging rescales the effective step size by
/// `1/(n−f)` but selects the same gradients.
#[derive(Debug, Clone, Copy)]
pub struct Cge {
    averaged: bool,
}

impl Default for Cge {
    fn default() -> Self {
        Self::new()
    }
}

impl Cge {
    /// The paper's CGE: sum of the `n − f` smallest-norm gradients.
    pub fn new() -> Self {
        Cge { averaged: false }
    }

    /// Ablation variant: mean (instead of sum) of the selected gradients.
    pub fn averaged() -> Self {
        Cge { averaged: true }
    }

    /// Indices of the `n − f` gradients CGE keeps, sorted by ascending norm
    /// (ties broken by index, matching "ties broken arbitrarily" in the
    /// paper but deterministically here).
    pub fn selected_indices(gradients: &[Vector], f: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..gradients.len()).collect();
        order.sort_by(|&i, &j| {
            gradients[i]
                .norm()
                .total_cmp(&gradients[j].norm())
                .then(i.cmp(&j))
        });
        order.truncate(gradients.len() - f);
        order
    }

    /// Batch twin of [`Cge::selected_indices`]: fills `scratch.order` with
    /// the kept row indices using `scratch.keys` for the norms.
    fn select_rows(batch: &GradientBatch, f: usize, scratch: &mut BatchScratch) {
        let n = batch.len();
        let rows = Rows::of(batch);
        scratch.keys.clear();
        scratch.keys.resize(n, 0.0);
        centre_dists_into(
            batch.worker_pool(),
            batch.dispatch_profile(),
            rows,
            None,
            None,
            &mut scratch.keys,
        );
        scratch.order.clear();
        scratch.order.extend(0..n);
        let keys = &scratch.keys;
        // LINT-ALLOW(panic-reach): order holds 0..n and keys was resized
        // to n just above, so both comparator indices are in bounds
        scratch
            .order
            .sort_unstable_by(|&i, &j| keys[i].total_cmp(&keys[j]).then(i.cmp(&j)));
        scratch.order.truncate(n - f);
    }
}

impl GradientFilter for Cge {
    fn aggregate_into(
        &self,
        batch: &GradientBatch,
        f: usize,
        out: &mut Vector,
    ) -> Result<(), FilterError> {
        let dim = validate_batch("cge", batch, f)?;
        let mut scratch = batch.scratch();
        Self::select_rows(batch, f, &mut scratch);
        let acc = zeroed_out(out, dim);
        weighted_sum_into(
            batch.worker_pool(),
            batch.dispatch_profile(),
            Rows::of(batch),
            Some(&scratch.order),
            None,
            scratch.order.len(),
            acc,
        );
        if self.averaged {
            rowops::scale(acc, 1.0 / scratch.order.len() as f64);
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        if self.averaged {
            "cge-avg"
        } else {
            "cge"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::aggregate_rows;

    #[test]
    fn sums_smallest_norm_gradients() {
        let gs = vec![
            Vector::from(vec![1.0, 0.0]),   // norm 1
            Vector::from(vec![0.0, 2.0]),   // norm 2
            Vector::from(vec![-3.0, 0.0]),  // norm 3
            Vector::from(vec![0.0, -10.0]), // norm 10 — eliminated at f = 1
        ];
        let out = aggregate_rows(&Cge::new(), &gs, 1).unwrap();
        assert!(out.approx_eq(&Vector::from(vec![-2.0, 2.0]), 1e-12));
    }

    #[test]
    fn f_zero_keeps_everything() {
        let gs = vec![Vector::from(vec![1.0]), Vector::from(vec![5.0])];
        let out = aggregate_rows(&Cge::new(), &gs, 0).unwrap();
        assert_eq!(out[0], 6.0);
    }

    #[test]
    fn averaged_variant_rescales() {
        let gs = vec![
            Vector::from(vec![1.0]),
            Vector::from(vec![2.0]),
            Vector::from(vec![100.0]),
        ];
        let sum = aggregate_rows(&Cge::new(), &gs, 1).unwrap();
        let avg = aggregate_rows(&Cge::averaged(), &gs, 1).unwrap();
        assert_eq!(sum[0], 3.0);
        assert_eq!(avg[0], 1.5);
        assert_eq!(Cge::new().name(), "cge");
        assert_eq!(Cge::averaged().name(), "cge-avg");
    }

    #[test]
    fn elimination_is_by_norm_not_value() {
        // A *small-norm* faulty gradient survives — CGE bounds its damage via
        // the norm comparison with honest gradients, as in the paper's proof.
        let gs = vec![
            Vector::from(vec![1.0, 0.0]),
            Vector::from(vec![0.9, 0.0]),
            Vector::from(vec![-0.5, 0.0]), // adversarial but small: kept
            Vector::from(vec![1.1, 0.0]),
        ];
        let kept = Cge::selected_indices(&gs, 1);
        assert!(kept.contains(&2));
        assert!(!kept.contains(&3)); // the largest norm is dropped
    }

    #[test]
    fn ties_break_deterministically() {
        let gs = vec![
            Vector::from(vec![1.0]),
            Vector::from(vec![-1.0]),
            Vector::from(vec![1.0]),
        ];
        // All norms equal: the last index is dropped.
        assert_eq!(Cge::selected_indices(&gs, 1), vec![0, 1]);
    }

    #[test]
    fn rejects_nan_gradient() {
        let gs = vec![
            Vector::from(vec![1.0]),
            Vector::from(vec![f64::NAN]),
            Vector::from(vec![2.0]),
        ];
        assert!(matches!(
            aggregate_rows(&Cge::new(), &gs, 1),
            Err(FilterError::NonFinite { index: 1 })
        ));
    }

    #[test]
    fn rejects_too_many_faults() {
        let gs = vec![Vector::zeros(1), Vector::zeros(1)];
        assert!(aggregate_rows(&Cge::new(), &gs, 1).is_err());
    }

    #[test]
    fn output_norm_bounded_by_honest_scale() {
        // With f faulty inputs of enormous norm, the output norm stays
        // bounded by (n−f)·max honest norm (Theorem 4, part 1).
        let honest_max: f64 = 2.0;
        let gs = vec![
            Vector::from(vec![1.5, 0.0]),
            Vector::from(vec![0.0, 2.0]),
            Vector::from(vec![1.0, 1.0]),
            Vector::from(vec![1e12, -1e12]),
        ];
        let out = aggregate_rows(&Cge::new(), &gs, 1).unwrap();
        assert!(out.norm() <= 3.0 * honest_max);
    }
}

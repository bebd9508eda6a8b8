//! Plain averaging — the traditional (non-robust) DGD aggregation.

use crate::error::FilterError;
use crate::par::{weighted_sum_into, Rows};
use crate::traits::{validate_batch, zeroed_out, GradientFilter};
use abft_linalg::{rowops, GradientBatch, Vector};

/// Plain gradient averaging: `(1/n)·Σᵢ gᵢ`.
///
/// This is "technically a gradient-filter" (Section 4) but is *not* robust:
/// a single Byzantine agent can drag the average arbitrarily far. It is the
/// paper's `plain GD` baseline in Figures 2–3 and the red diverging curves
/// in the ML experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mean;

impl Mean {
    /// Creates the averaging filter.
    pub fn new() -> Self {
        Mean
    }
}

impl GradientFilter for Mean {
    fn aggregate_into(
        &self,
        batch: &GradientBatch,
        f: usize,
        out: &mut Vector,
    ) -> Result<(), FilterError> {
        // Averaging has no n > 2f requirement (it offers no guarantee anyway),
        // so validate with f = 0 and ignore the declared fault bound.
        let _ = f;
        let dim = validate_batch("mean", batch, 0)?;
        let acc = zeroed_out(out, dim);
        weighted_sum_into(
            batch.worker_pool(),
            batch.dispatch_profile(),
            Rows::of(batch),
            None,
            None,
            batch.len(),
            acc,
        );
        rowops::scale(acc, 1.0 / batch.len() as f64);
        Ok(())
    }

    fn name(&self) -> &'static str {
        "mean"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::aggregate_rows;

    #[test]
    fn averages_inputs() {
        let gs = vec![Vector::from(vec![1.0, 2.0]), Vector::from(vec![3.0, 4.0])];
        let out = aggregate_rows(&Mean::new(), &gs, 0).unwrap();
        assert!(out.approx_eq(&Vector::from(vec![2.0, 3.0]), 1e-12));
    }

    #[test]
    fn single_outlier_dominates() {
        // Demonstrates the non-robustness the paper motivates: the outlier
        // shifts the mean by outlier/n.
        let mut gs = vec![Vector::zeros(1); 5];
        gs.push(Vector::from(vec![6000.0]));
        let out = aggregate_rows(&Mean::new(), &gs, 1).unwrap();
        assert!((out[0] - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_empty_and_ragged() {
        assert!(aggregate_rows(&Mean::new(), &[], 0).is_err());
        let gs = vec![Vector::zeros(1), Vector::zeros(2)];
        assert!(aggregate_rows(&Mean::new(), &gs, 0).is_err());
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(Mean::new().name(), "mean");
    }
}

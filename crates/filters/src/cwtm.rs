//! Coordinate-wise trimmed mean (CWTM, eq. 24) and coordinate-wise median.

use crate::error::FilterError;
use crate::par::trimmed_mean_columns;
use crate::traits::{validate_batch, zeroed_out, GradientFilter};
use abft_linalg::{GradientBatch, Vector};

/// The CWTM gradient filter (Su–Shahrampour; Yin et al.).
///
/// For each coordinate `k`, the server sorts the `n` received values
/// `g_1[k], …, g_n[k]`, discards the `f` largest and `f` smallest, and
/// averages the remaining `n − 2f` (eq. 24). Under `(2f, ε)`-redundancy,
/// Assumptions 2–5 and `λ < γ/(µ√d)`, Theorem 6 shows DGD with CWTM is
/// asymptotically `(f, D′ε)`-resilient with
/// `D′ = 2√d·nµλ/(γ − √d·µλ)`.
///
/// **Order contract.** Coordinate `k` of the output is bit-equal to
/// [`abft_linalg::stats::trimmed_mean`] of column `k` with `trim = f`: the
/// kept values are the middle `n − 2f` order statistics under
/// [`f64::total_cmp`], summed in ascending order, divided once. The
/// output therefore depends on each column's multiset only — permutation-
/// invariant in the agents, as eq. 24 is, and independent of the thread
/// count and of the algorithm that finds the order statistics (one
/// sorting-network pass per 32-column tile). This is what the tier-1
/// golden digests (`tests/golden_digests.rs`) pin.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cwtm;

impl Cwtm {
    /// Creates the CWTM filter.
    pub fn new() -> Self {
        Cwtm
    }
}

impl GradientFilter for Cwtm {
    fn aggregate_into(
        &self,
        batch: &GradientBatch,
        f: usize,
        out: &mut Vector,
    ) -> Result<(), FilterError> {
        let dim = validate_batch("cwtm", batch, f)?;
        let mut scratch = batch.scratch();
        let s = &mut *scratch;
        let slots = zeroed_out(out, dim);
        trimmed_mean_columns(batch, None, f, &mut s.network, &mut s.flat, slots);
        Ok(())
    }

    fn name(&self) -> &'static str {
        "cwtm"
    }
}

/// Coordinate-wise median — the `f`-independent order-statistic baseline.
///
/// Not analyzed in the paper but standard in the robust-aggregation
/// literature (Yin et al. 2018); included as a baseline for the filter grid.
///
/// **Order contract.** Coordinate `k` of the output is bit-equal to
/// [`abft_linalg::stats::median`] of column `k` — the middle order
/// statistic under [`f64::total_cmp`], or half the sum of the middle two
/// — computed as [`Cwtm`]'s trimmed mean with `trim = (n − 1) / 2` (same
/// kernel, same pins).
#[derive(Debug, Clone, Copy, Default)]
pub struct CoordinateWiseMedian;

impl CoordinateWiseMedian {
    /// Creates the coordinate-wise median filter.
    pub fn new() -> Self {
        CoordinateWiseMedian
    }
}

impl GradientFilter for CoordinateWiseMedian {
    fn aggregate_into(
        &self,
        batch: &GradientBatch,
        f: usize,
        out: &mut Vector,
    ) -> Result<(), FilterError> {
        let dim = validate_batch("cwmed", batch, f)?;
        let mut scratch = batch.scratch();
        let s = &mut *scratch;
        let slots = zeroed_out(out, dim);
        // The median is the trimmed mean that keeps only the middle one
        // (odd `n`) or two (even `n`) order statistics.
        let trim = (batch.len() - 1) / 2;
        trimmed_mean_columns(batch, None, trim, &mut s.network, &mut s.flat, slots);
        Ok(())
    }

    fn name(&self) -> &'static str {
        "cwmed"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::aggregate_rows;

    #[test]
    fn trims_extremes_per_coordinate() {
        let gs = vec![
            Vector::from(vec![1.0, -100.0]),
            Vector::from(vec![2.0, 1.0]),
            Vector::from(vec![3.0, 2.0]),
            Vector::from(vec![100.0, 3.0]),
        ];
        // f = 1: coordinate 0 keeps {2, 3}; coordinate 1 keeps {1, 2}.
        let out = aggregate_rows(&Cwtm::new(), &gs, 1).unwrap();
        assert!(out.approx_eq(&Vector::from(vec![2.5, 1.5]), 1e-12));
    }

    #[test]
    fn f_zero_equals_mean() {
        let gs = vec![Vector::from(vec![1.0, 4.0]), Vector::from(vec![3.0, 0.0])];
        let out = aggregate_rows(&Cwtm::new(), &gs, 0).unwrap();
        assert!(out.approx_eq(&Vector::from(vec![2.0, 2.0]), 1e-12));
    }

    #[test]
    fn output_within_per_coordinate_hull() {
        // The paper's eq. (119): each output coordinate lies between the min
        // and max of the received values (in fact of the honest ones, but
        // the full hull is a weaker consequence easy to assert here).
        let gs = vec![
            Vector::from(vec![0.0, 5.0]),
            Vector::from(vec![1.0, 6.0]),
            Vector::from(vec![2.0, 7.0]),
            Vector::from(vec![3.0, 8.0]),
            Vector::from(vec![4.0, 9.0]),
        ];
        let out = aggregate_rows(&Cwtm::new(), &gs, 2).unwrap();
        assert!(out[0] >= 0.0 && out[0] <= 4.0);
        assert!(out[1] >= 5.0 && out[1] <= 9.0);
    }

    #[test]
    fn requires_n_greater_than_2f() {
        let gs = vec![Vector::zeros(1); 4];
        assert!(aggregate_rows(&Cwtm::new(), &gs, 2).is_err());
        assert!(aggregate_rows(&Cwtm::new(), &gs, 1).is_ok());
    }

    #[test]
    fn median_is_middle_order_statistic() {
        let gs = vec![
            Vector::from(vec![5.0]),
            Vector::from(vec![1.0]),
            Vector::from(vec![3.0]),
        ];
        let out = aggregate_rows(&CoordinateWiseMedian::new(), &gs, 1).unwrap();
        assert_eq!(out[0], 3.0);
    }

    #[test]
    fn median_resists_minority_outliers() {
        let gs = vec![
            Vector::from(vec![1.0]),
            Vector::from(vec![1.1]),
            Vector::from(vec![0.9]),
            Vector::from(vec![1e9]),
            Vector::from(vec![-1e9]),
        ];
        let out = aggregate_rows(&CoordinateWiseMedian::new(), &gs, 2).unwrap();
        assert!((out[0] - 1.0).abs() < 0.2);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Cwtm::new().name(), "cwtm");
        assert_eq!(CoordinateWiseMedian::new().name(), "cwmed");
    }

    #[test]
    fn rejects_malformed_inputs() {
        assert!(aggregate_rows(&Cwtm::new(), &[], 0).is_err());
        let ragged = vec![Vector::zeros(1), Vector::zeros(2), Vector::zeros(1)];
        assert!(aggregate_rows(&Cwtm::new(), &ragged, 1).is_err());
        let nan = vec![
            Vector::from(vec![f64::INFINITY]),
            Vector::zeros(1),
            Vector::zeros(1),
        ];
        assert!(matches!(
            aggregate_rows(&CoordinateWiseMedian::new(), &nan, 1),
            Err(FilterError::NonFinite { index: 0 })
        ));
    }
}

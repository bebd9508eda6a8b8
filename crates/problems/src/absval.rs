//! Scalar absolute-value costs — the non-differentiable family.
//!
//! `Q_i(x) = |x − c_i|` on ℝ. The minimizer set of a subset aggregate
//! `Σ_{i∈S} |x − c_i|` is the *median interval* of the centers `{c_i}`:
//! a single point for odd `|S|`, a closed interval for even `|S|`. This is
//! the workspace's concrete example of set-valued argmins, exercising the
//! Hausdorff-distance side of Definitions 2–3 and Theorems 1–2 (which the
//! paper states for possibly non-differentiable costs).

use crate::cost::CostFunction;
use abft_linalg::Vector;

/// The scalar cost `Q(x) = |x − center|`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbsoluteCost {
    center: f64,
}

impl AbsoluteCost {
    /// Creates the cost centred at `center`.
    pub fn new(center: f64) -> Self {
        AbsoluteCost { center }
    }

    /// The center `c`.
    pub fn center(&self) -> f64 {
        self.center
    }
}

impl CostFunction for AbsoluteCost {
    fn dim(&self) -> usize {
        1
    }

    // LINT-ALLOW(panic-reach): `dim() == 1`, and the harness evaluates
    // costs at the run's validated dimension.
    fn value(&self, x: &Vector) -> f64 {
        (x[0] - self.center).abs()
    }

    /// A subgradient: `sign(x − c)`, with `0` chosen at the kink.
    // LINT-ALLOW(panic-reach): `dim() == 1`, and the harness evaluates
    // costs at the run's validated dimension.
    fn gradient_into(&self, x: &Vector, out: &mut [f64]) {
        let diff = x[0] - self.center;
        out[0] = if diff > 0.0 {
            1.0
        } else if diff < 0.0 {
            -1.0
        } else {
            0.0
        };
    }
}

/// The minimizer set of `Σ_{i∈subset} |x − c_i|` over the given centers:
/// the closed median interval `[lo, hi]` (with `lo == hi` for odd counts).
///
/// # Panics
///
/// Panics when `centers` is empty.
pub fn median_interval(centers: &[f64]) -> (f64, f64) {
    assert!(!centers.is_empty(), "median interval of no centers");
    let mut sorted = centers.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        let m = sorted[n / 2];
        (m, m)
    } else {
        (sorted[n / 2 - 1], sorted[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_and_subgradient() {
        let cost = AbsoluteCost::new(2.0);
        assert_eq!(cost.value(&Vector::from(vec![5.0])), 3.0);
        assert_eq!(cost.value(&Vector::from(vec![-1.0])), 3.0);
        assert_eq!(cost.gradient(&Vector::from(vec![5.0]))[0], 1.0);
        assert_eq!(cost.gradient(&Vector::from(vec![-1.0]))[0], -1.0);
        assert_eq!(cost.gradient(&Vector::from(vec![2.0]))[0], 0.0);
        assert_eq!(cost.center(), 2.0);
        assert_eq!(cost.dim(), 1);
    }

    #[test]
    fn odd_count_median_is_a_point() {
        assert_eq!(median_interval(&[3.0, 1.0, 2.0]), (2.0, 2.0));
        assert_eq!(median_interval(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn even_count_median_is_an_interval() {
        assert_eq!(median_interval(&[1.0, 2.0, 3.0, 4.0]), (2.0, 3.0));
        assert_eq!(median_interval(&[10.0, 0.0]), (0.0, 10.0));
    }

    #[test]
    fn interval_minimizes_the_aggregate() {
        let centers = [0.0, 1.0, 4.0, 9.0];
        let (lo, hi) = median_interval(&centers);
        let aggregate = |x: f64| centers.iter().map(|c| (x - c).abs()).sum::<f64>();
        let inside = aggregate(0.5 * (lo + hi));
        // Every point of the interval achieves the same (minimal) value.
        assert!((aggregate(lo) - inside).abs() < 1e-12);
        assert!((aggregate(hi) - inside).abs() < 1e-12);
        // Points outside are strictly worse.
        assert!(aggregate(lo - 0.5) > inside);
        assert!(aggregate(hi + 0.5) > inside);
    }

    #[test]
    #[should_panic(expected = "no centers")]
    fn empty_median_panics() {
        let _ = median_interval(&[]);
    }
}

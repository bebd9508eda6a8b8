//! Possibly set-valued argmin representations and the distances of
//! Section 1.2.
//!
//! The paper's Definition 2 measures `dist(x̂, argmin Σ Q_i)` (point-to-set,
//! eq. 3) and Definition 3 the Euclidean Hausdorff distance between two
//! argmin sets (eq. 4). For the cost families in this workspace, argmin sets
//! take three shapes: a unique point (strongly convex aggregates), a closed
//! 1-D interval (median intervals of absolute-value costs), or a finite set
//! of candidates.

use crate::error::RedundancyError;
use abft_linalg::Vector;
use std::fmt;

/// A minimizer set `argmin_x Σ_{i∈S} Q_i(x)`.
#[derive(Debug, Clone, PartialEq)]
pub enum MinimizerSet {
    /// A unique minimizer (e.g. strongly convex aggregate costs).
    Point(Vector),
    /// A closed interval `[lo, hi] ⊂ ℝ` — the median intervals arising from
    /// scalar absolute-value costs.
    Interval {
        /// Left endpoint.
        lo: f64,
        /// Right endpoint (`lo ≤ hi`).
        hi: f64,
    },
    /// A finite set of minimizers.
    Finite(Vec<Vector>),
}

impl MinimizerSet {
    /// Creates an interval minimizer set.
    ///
    /// # Panics
    ///
    /// Panics when `lo > hi` or either endpoint is non-finite.
    pub fn interval(lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "interval requires lo <= hi");
        assert!(lo.is_finite() && hi.is_finite(), "interval must be bounded");
        MinimizerSet::Interval { lo, hi }
    }

    /// The ambient dimension of the set.
    pub fn dim(&self) -> usize {
        match self {
            MinimizerSet::Point(p) => p.dim(),
            MinimizerSet::Interval { .. } => 1,
            MinimizerSet::Finite(points) => points.first().map_or(0, |p| p.dim()),
        }
    }

    /// An arbitrary member of the set — the `x_T ∈ argmin` the exact
    /// algorithm picks in its Step 2.
    ///
    /// # Panics
    ///
    /// Panics on an empty [`MinimizerSet::Finite`].
    pub fn representative(&self) -> Vector {
        match self {
            MinimizerSet::Point(p) => p.clone(),
            MinimizerSet::Interval { lo, hi } => Vector::from(vec![0.5 * (lo + hi)]),
            MinimizerSet::Finite(points) => points
                .first()
                .expect("finite minimizer set must be non-empty")
                .clone(),
        }
    }

    /// Point-to-set distance `dist(x, X) = inf_{y∈X} ‖x − y‖` (eq. 3);
    /// `+∞` for an empty finite set.
    ///
    /// # Panics
    ///
    /// Panics when an interval set meets a point outside `ℝ`. Another
    /// dimension mismatch is checked in debug builds only: the exact
    /// algorithm takes `x` and the set from one oracle.
    pub fn dist_to_point(&self, x: &Vector) -> f64 {
        match self {
            MinimizerSet::Point(p) => x.dist(p),
            MinimizerSet::Interval { lo, hi } => {
                assert_eq!(x.dim(), 1, "interval sets live in R");
                let v = x[0];
                if v < *lo {
                    lo - v
                } else if v > *hi {
                    v - hi
                } else {
                    0.0
                }
            }
            MinimizerSet::Finite(points) => points
                .iter()
                .map(|p| x.dist(p))
                .fold(f64::INFINITY, f64::min),
        }
    }

    /// Euclidean Hausdorff distance between two minimizer sets (eq. 4).
    ///
    /// Supported combinations: point–point, point–finite, finite–finite in
    /// any dimension; interval–interval and interval–point in ℝ.
    ///
    /// # Errors
    ///
    /// Returns [`RedundancyError::IncomparableSets`] for unsupported
    /// combinations (e.g. an interval vs a finite multi-point set) and for
    /// dimension mismatches.
    pub fn hausdorff(&self, other: &MinimizerSet) -> Result<f64, RedundancyError> {
        use MinimizerSet::*;
        if self.dim() != other.dim() || !self.is_uniform() || !other.is_uniform() {
            return Err(RedundancyError::IncomparableSets {
                left: format!("{self}"),
                right: format!("{other}"),
            });
        }
        match (self, other) {
            (Point(a), Point(b)) => Ok(a.dist(b)),
            (Interval { lo: a, hi: b }, Interval { lo: c, hi: d }) => {
                // For closed intervals, the Hausdorff distance is the larger
                // endpoint displacement.
                Ok((a - c).abs().max((b - d).abs()))
            }
            (Point(p), Interval { lo, hi }) | (Interval { lo, hi }, Point(p)) => {
                // sup over the interval of the distance to p is attained at
                // an endpoint; dist(p, interval) ≤ that sup, so the sup is
                // the Hausdorff distance.
                let v = p[0];
                Ok((v - lo).abs().max((v - hi).abs()))
            }
            (Finite(_), Finite(_)) | (Point(_), Finite(_)) | (Finite(_), Point(_)) => {
                let left = self.as_point_cloud();
                let right = other.as_point_cloud();
                if left.is_empty() || right.is_empty() {
                    return Err(RedundancyError::EmptyFamily {
                        what: "finite minimizer set".to_string(),
                    });
                }
                Ok(hausdorff_finite(&left, &right))
            }
            _ => Err(RedundancyError::IncomparableSets {
                left: format!("{self}"),
                right: format!("{other}"),
            }),
        }
    }

    /// `true` unless a finite set mixes dimensions.
    fn is_uniform(&self) -> bool {
        match self {
            MinimizerSet::Finite(points) => points.iter().all(|p| p.dim() == self.dim()),
            _ => true,
        }
    }

    /// Materializes point-shaped variants as a point cloud (empty for
    /// intervals, which are not finite).
    fn as_point_cloud(&self) -> Vec<Vector> {
        match self {
            MinimizerSet::Point(p) => vec![p.clone()],
            MinimizerSet::Finite(points) => points.clone(),
            MinimizerSet::Interval { .. } => Vec::new(),
        }
    }
}

impl fmt::Display for MinimizerSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MinimizerSet::Point(p) => write!(f, "point {p}"),
            MinimizerSet::Interval { lo, hi } => write!(f, "interval [{lo:.6}, {hi:.6}]"),
            MinimizerSet::Finite(points) => write!(f, "finite set of {} points", points.len()),
        }
    }
}

/// Hausdorff distance between two non-empty finite point clouds.
fn hausdorff_finite(a: &[Vector], b: &[Vector]) -> f64 {
    let directed = |from: &[Vector], to: &[Vector]| {
        from.iter()
            .map(|x| to.iter().map(|y| x.dist(y)).fold(f64::INFINITY, f64::min))
            .fold(0.0, f64::max)
    };
    directed(a, b).max(directed(b, a))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_to_point() {
        let a = MinimizerSet::Point(Vector::from(vec![0.0, 0.0]));
        let b = MinimizerSet::Point(Vector::from(vec![3.0, 4.0]));
        assert_eq!(a.hausdorff(&b).unwrap(), 5.0);
        assert_eq!(a.dist_to_point(&Vector::from(vec![3.0, 4.0])), 5.0);
    }

    #[test]
    fn interval_distances() {
        let i = MinimizerSet::interval(1.0, 3.0);
        assert_eq!(i.dist_to_point(&Vector::from(vec![0.0])), 1.0);
        assert_eq!(i.dist_to_point(&Vector::from(vec![2.0])), 0.0);
        assert_eq!(i.dist_to_point(&Vector::from(vec![5.0])), 2.0);
        let j = MinimizerSet::interval(2.0, 7.0);
        // max(|1−2|, |3−7|) = 4.
        assert_eq!(i.hausdorff(&j).unwrap(), 4.0);
        // Hausdorff axioms on intervals: identity and symmetry.
        assert_eq!(i.hausdorff(&i).unwrap(), 0.0);
        assert_eq!(j.hausdorff(&i).unwrap(), 4.0);
    }

    #[test]
    fn point_interval_mixed() {
        let i = MinimizerSet::interval(0.0, 2.0);
        let p = MinimizerSet::Point(Vector::from(vec![1.0]));
        // Point inside: Hausdorff = max distance to endpoints = 1.
        assert_eq!(i.hausdorff(&p).unwrap(), 1.0);
        assert_eq!(p.hausdorff(&i).unwrap(), 1.0);
        let far = MinimizerSet::Point(Vector::from(vec![5.0]));
        assert_eq!(i.hausdorff(&far).unwrap(), 5.0);
    }

    #[test]
    fn finite_sets() {
        let a = MinimizerSet::Finite(vec![Vector::from(vec![0.0]), Vector::from(vec![1.0])]);
        let b = MinimizerSet::Finite(vec![Vector::from(vec![0.0])]);
        // sup over a of dist to b = 1 (from the point 1); reverse = 0.
        assert_eq!(a.hausdorff(&b).unwrap(), 1.0);
        assert_eq!(a.dist_to_point(&Vector::from(vec![0.4])), 0.4);
    }

    #[test]
    fn dimension_mismatch_is_an_error() {
        let a = MinimizerSet::Point(Vector::zeros(2));
        let b = MinimizerSet::interval(0.0, 1.0);
        assert!(a.hausdorff(&b).is_err());
    }

    #[test]
    fn a_finite_set_mixing_dimensions_is_an_error() {
        let mixed = MinimizerSet::Finite(vec![Vector::zeros(2), Vector::zeros(3)]);
        let point = MinimizerSet::Point(Vector::zeros(2));
        assert!(mixed.hausdorff(&point).is_err());
        assert!(point.hausdorff(&mixed).is_err());
    }

    #[test]
    fn interval_vs_finite_is_unsupported() {
        let i = MinimizerSet::interval(0.0, 1.0);
        let s = MinimizerSet::Finite(vec![Vector::from(vec![0.5]), Vector::from(vec![0.7])]);
        assert!(matches!(
            i.hausdorff(&s),
            Err(RedundancyError::IncomparableSets { .. })
        ));
    }

    #[test]
    fn representatives_belong_to_their_sets() {
        let p = MinimizerSet::Point(Vector::from(vec![2.0, 3.0]));
        assert_eq!(p.dist_to_point(&p.representative()), 0.0);
        let i = MinimizerSet::interval(1.0, 5.0);
        assert_eq!(i.dist_to_point(&i.representative()), 0.0);
        let f = MinimizerSet::Finite(vec![Vector::from(vec![9.0])]);
        assert_eq!(f.dist_to_point(&f.representative()), 0.0);
    }

    #[test]
    #[should_panic(expected = "lo <= hi")]
    fn malformed_interval_panics() {
        let _ = MinimizerSet::interval(2.0, 1.0);
    }

    #[test]
    fn degenerate_interval_is_a_point() {
        let i = MinimizerSet::interval(3.0, 3.0);
        let p = MinimizerSet::Point(Vector::from(vec![3.0]));
        assert_eq!(i.hausdorff(&p).unwrap(), 0.0);
    }

    #[test]
    fn display_formats() {
        assert!(MinimizerSet::interval(0.0, 1.0)
            .to_string()
            .contains("interval"));
        assert!(MinimizerSet::Point(Vector::zeros(1))
            .to_string()
            .contains("point"));
        assert!(MinimizerSet::Finite(vec![Vector::zeros(1)])
            .to_string()
            .contains("1 points"));
    }
}

//! Projection onto the compact convex constraint set `W` (eq. 20).

use abft_linalg::Vector;

/// The compact convex set `W` the server projects onto in update rule (21).
#[derive(Debug, Clone, PartialEq)]
pub enum ProjectionSet {
    /// The hypercube `[lo, hi]^d` — the paper uses `[−1000, 1000]²`.
    Box {
        /// Lower corner value.
        lo: f64,
        /// Upper corner value.
        hi: f64,
    },
    /// The Euclidean ball of the given radius around a center.
    Ball {
        /// Ball center, in the run's dimension: [`crate::RoundEngine::new`]
        /// rejects another with [`crate::DgdError::Dimension`], and the
        /// distance to it is checked in debug builds only.
        center: Vector,
        /// Ball radius (must be positive).
        radius: f64,
    },
}

impl ProjectionSet {
    /// The paper's constraint set: `[−1000, 1000]^d` (Appendix J).
    pub fn paper() -> Self {
        ProjectionSet::Box {
            lo: -1000.0,
            hi: 1000.0,
        }
    }

    /// Creates a box set.
    ///
    /// # Panics
    ///
    /// Panics when `lo > hi` or either bound is non-finite.
    pub fn centered_box(lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "box requires lo <= hi");
        assert!(lo.is_finite() && hi.is_finite(), "box must be compact");
        ProjectionSet::Box { lo, hi }
    }

    /// Creates a ball set.
    ///
    /// # Panics
    ///
    /// Panics when `radius` is not positive and finite.
    pub fn ball(center: Vector, radius: f64) -> Self {
        assert!(
            radius > 0.0 && radius.is_finite(),
            "ball radius must be positive and finite"
        );
        ProjectionSet::Ball { center, radius }
    }

    /// The Euclidean projection `[x]_W` (eq. 20) — unique because `W` is
    /// convex and compact.
    pub fn project(&self, x: &Vector) -> Vector {
        let mut out = x.clone();
        self.project_in_place(&mut out);
        out
    }

    /// In-place variant of [`ProjectionSet::project`] — the DGD hot loop
    /// projects the running estimate every iteration without allocating.
    pub fn project_in_place(&self, x: &mut Vector) {
        match self {
            ProjectionSet::Box { lo, hi } => x.clamp_box_mut(*lo, *hi),
            ProjectionSet::Ball { center, radius } => {
                let d = x.dist(center);
                if d > *radius {
                    let factor = radius / d;
                    for (xi, ci) in x.as_mut_slice().iter_mut().zip(center.iter()) {
                        *xi = ci + (*xi - ci) * factor;
                    }
                }
            }
        }
    }

    /// `true` when `x ∈ W` (within `1e-12` slack).
    pub fn contains(&self, x: &Vector) -> bool {
        match self {
            ProjectionSet::Box { lo, hi } => x.iter().all(|&v| v >= lo - 1e-12 && v <= hi + 1e-12),
            ProjectionSet::Ball { center, radius } => x.dist(center) <= radius + 1e-12,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn box_projection_clamps() {
        let w = ProjectionSet::paper();
        let x = Vector::from(vec![2000.0, -0.5]);
        let p = w.project(&x);
        assert_eq!(p.as_slice(), &[1000.0, -0.5]);
        assert!(w.contains(&p));
        assert!(!w.contains(&x));
    }

    #[test]
    fn interior_points_are_fixed() {
        let w = ProjectionSet::centered_box(-1.0, 1.0);
        let x = Vector::from(vec![0.3, -0.7]);
        assert!(w.project(&x).approx_eq(&x, 0.0));
    }

    #[test]
    fn ball_projection_rescales() {
        let w = ProjectionSet::ball(Vector::zeros(2), 1.0);
        let x = Vector::from(vec![3.0, 4.0]);
        let p = w.project(&x);
        assert!((p.norm() - 1.0).abs() < 1e-12);
        // Direction preserved.
        assert!((p[0] / p[1] - 0.75).abs() < 1e-12);
        assert!(w.contains(&p));
    }

    #[test]
    fn off_center_ball() {
        let c = Vector::from(vec![5.0, 5.0]);
        let w = ProjectionSet::ball(c.clone(), 2.0);
        let inside = Vector::from(vec![6.0, 5.0]);
        assert!(w.project(&inside).approx_eq(&inside, 0.0));
        let outside = Vector::from(vec![10.0, 5.0]);
        let p = w.project(&outside);
        assert!(p.approx_eq(&Vector::from(vec![7.0, 5.0]), 1e-12));
    }

    #[test]
    fn in_place_projection_matches_allocating() {
        let sets = [
            ProjectionSet::paper(),
            ProjectionSet::centered_box(-1.0, 1.0),
            ProjectionSet::ball(Vector::from(vec![5.0, 5.0]), 2.0),
        ];
        for w in sets {
            for x in [
                Vector::from(vec![2000.0, -0.5]),
                Vector::from(vec![0.3, -0.7]),
                Vector::from(vec![10.0, 5.0]),
            ] {
                let mut y = x.clone();
                w.project_in_place(&mut y);
                assert!(y.approx_eq(&w.project(&x), 0.0), "{w:?} at {x}");
            }
        }
    }

    #[test]
    fn projection_is_non_expansive() {
        // ‖[x]_W − [y]_W‖ ≤ ‖x − y‖ — the property the proof of Theorem 3
        // leans on.
        let w = ProjectionSet::centered_box(-1.0, 1.0);
        let x = Vector::from(vec![5.0, 0.2]);
        let y = Vector::from(vec![-3.0, 0.4]);
        assert!(w.project(&x).dist(&w.project(&y)) <= x.dist(&y) + 1e-12);
        let b = ProjectionSet::ball(Vector::zeros(2), 1.5);
        assert!(b.project(&x).dist(&b.project(&y)) <= x.dist(&y) + 1e-12);
    }

    #[test]
    #[should_panic(expected = "lo <= hi")]
    fn malformed_box_panics() {
        let _ = ProjectionSet::centered_box(1.0, -1.0);
    }

    #[test]
    #[should_panic(expected = "radius must be positive")]
    fn malformed_ball_panics() {
        let _ = ProjectionSet::ball(Vector::zeros(1), 0.0);
    }
}

//! Clipping-based filters: centered clipping (Karimireddy–He–Jaggi, the
//! paper's reference \[28\]) and norm clipping.

use crate::error::FilterError;
use crate::par::{centre_dists_into, Rows};
use crate::traits::{validate_batch, zeroed_out, GradientFilter};
use abft_linalg::{rowops, GradientBatch, Vector};

/// Centered clipping: iteratively refines an aggregate `v` by averaging
/// *clipped* deviations,
///
/// `v ← v + (1/n)·Σᵢ clip(gᵢ − v, τ)`
///
/// where `clip(u, τ)` rescales `u` to norm at most `τ`. A few iterations
/// from `v₀ = 0` suffice in practice; the clip radius bounds the influence
/// any single Byzantine gradient can exert to `τ/n` per iteration.
#[derive(Debug, Clone, Copy)]
pub struct CenteredClipping {
    radius: f64,
    iterations: usize,
}

impl CenteredClipping {
    /// Creates the filter with clip radius `radius` and `iterations`
    /// refinement steps.
    ///
    /// # Errors
    ///
    /// Returns [`FilterError::InvalidParameter`] for non-positive radius or
    /// zero iterations.
    pub fn new(radius: f64, iterations: usize) -> Result<Self, FilterError> {
        if radius <= 0.0 || !radius.is_finite() {
            return Err(FilterError::InvalidParameter {
                filter: "centered-clipping",
                reason: format!("clip radius must be positive and finite, got {radius}"),
            });
        }
        if iterations == 0 {
            return Err(FilterError::InvalidParameter {
                filter: "centered-clipping",
                reason: "iteration count must be positive".into(),
            });
        }
        Ok(CenteredClipping { radius, iterations })
    }

    /// Clips `u` to Euclidean norm at most `radius` (reference semantics
    /// for `clip_factor`, exercised by the unit tests).
    #[cfg(test)]
    fn clip(u: &Vector, radius: f64) -> Vector {
        let n = u.norm();
        if n <= radius || n == 0.0 {
            u.clone()
        } else {
            u.scale(radius / n)
        }
    }

    /// The rescaling factor `min(1, radius/‖u‖)` of norm clipping,
    /// computed from the norm so batch rows can be clipped without
    /// materializing `u`.
    fn clip_factor(norm: f64, radius: f64) -> f64 {
        if norm <= radius || norm == 0.0 {
            1.0
        } else {
            radius / norm
        }
    }
}

impl GradientFilter for CenteredClipping {
    fn aggregate_into(
        &self,
        batch: &GradientBatch,
        f: usize,
        out: &mut Vector,
    ) -> Result<(), FilterError> {
        let dim = validate_batch("centered-clipping", batch, f)?;
        let mut scratch = batch.scratch();
        let s = &mut *scratch;
        let v = &mut s.vec_a;
        v.clear();
        v.resize(dim, 0.0);
        let correction = &mut s.vec_b;
        correction.clear();
        correction.resize(dim, 0.0);
        let dists = &mut s.keys;
        dists.clear();
        dists.resize(batch.len(), 0.0);
        for _ in 0..self.iterations {
            // ‖row − v‖ for every row, four rows per walk over `v`: the
            // iteration's correction loop reads the same fixed `v`.
            centre_dists(batch, Some(v), dists);
            rowops::fill_zero(correction);
            for (row, &dist) in batch.rows_iter().zip(dists.iter()) {
                // correction += clip(row − v, radius), without building the
                // difference: the clip factor only needs ‖row − v‖.
                let factor = Self::clip_factor(dist, self.radius);
                for (c, (g, vi)) in correction.iter_mut().zip(row.iter().zip(v.iter())) {
                    *c += (g - vi) * factor;
                }
            }
            rowops::scale(correction, 1.0 / batch.len() as f64);
            rowops::add_assign(v, correction);
        }
        zeroed_out(out, dim).copy_from_slice(v);
        Ok(())
    }

    fn name(&self) -> &'static str {
        "centered-clipping"
    }
}

/// `slots[p] = ‖row_p − centre‖` (`‖row_p‖` without a centre) for every
/// row of the batch, sharded like the other filters' row passes.
fn centre_dists(batch: &GradientBatch, centre: Option<&[f64]>, slots: &mut [f64]) {
    let (pool, profile) = (batch.worker_pool(), batch.dispatch_profile());
    centre_dists_into(pool, profile, Rows::of(batch), None, centre, slots);
}

/// Norm clipping: rescales every gradient to norm at most `radius`, then
/// averages. A simple robustness baseline — bounded influence but biased
/// when honest gradients exceed the radius.
#[derive(Debug, Clone, Copy)]
pub struct NormClipping {
    radius: f64,
}

impl NormClipping {
    /// Creates the filter with the given clip radius.
    ///
    /// # Errors
    ///
    /// Returns [`FilterError::InvalidParameter`] for a non-positive radius.
    pub fn new(radius: f64) -> Result<Self, FilterError> {
        if radius <= 0.0 || !radius.is_finite() {
            return Err(FilterError::InvalidParameter {
                filter: "norm-clipping",
                reason: format!("clip radius must be positive and finite, got {radius}"),
            });
        }
        Ok(NormClipping { radius })
    }
}

impl GradientFilter for NormClipping {
    fn aggregate_into(
        &self,
        batch: &GradientBatch,
        f: usize,
        out: &mut Vector,
    ) -> Result<(), FilterError> {
        let dim = validate_batch("norm-clipping", batch, f)?;
        let mut scratch = batch.scratch();
        let norms = &mut scratch.keys;
        norms.clear();
        norms.resize(batch.len(), 0.0);
        centre_dists(batch, None, norms);
        let acc = zeroed_out(out, dim);
        for (row, &norm) in batch.rows_iter().zip(norms.iter()) {
            let factor = CenteredClipping::clip_factor(norm, self.radius);
            rowops::axpy(acc, factor, row);
        }
        rowops::scale(acc, 1.0 / batch.len() as f64);
        Ok(())
    }

    fn name(&self) -> &'static str {
        "norm-clipping"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::aggregate_rows;

    #[test]
    fn construction_validates() {
        assert!(CenteredClipping::new(0.0, 3).is_err());
        assert!(CenteredClipping::new(-1.0, 3).is_err());
        assert!(CenteredClipping::new(1.0, 0).is_err());
        assert!(CenteredClipping::new(f64::NAN, 1).is_err());
        assert!(CenteredClipping::new(1.0, 3).is_ok());
        assert!(NormClipping::new(0.0).is_err());
        assert!(NormClipping::new(2.0).is_ok());
    }

    #[test]
    fn clip_preserves_small_and_rescales_large() {
        let small = Vector::from(vec![0.3, 0.4]);
        assert!(CenteredClipping::clip(&small, 1.0).approx_eq(&small, 0.0));
        let large = Vector::from(vec![3.0, 4.0]);
        let clipped = CenteredClipping::clip(&large, 1.0);
        assert!((clipped.norm() - 1.0).abs() < 1e-12);
        // Direction preserved.
        assert!((clipped[0] / clipped[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn centered_clipping_bounds_outlier_influence() {
        let mut gs = vec![Vector::from(vec![1.0, 1.0]); 9];
        gs.push(Vector::from(vec![1e9, -1e9]));
        let out = aggregate_rows(&CenteredClipping::new(1.0, 5).unwrap(), &gs, 1).unwrap();
        // The outlier contributes at most radius/n per iteration.
        assert!(out.dist(&Vector::from(vec![1.0, 1.0])) < 1.0);
    }

    #[test]
    fn centered_clipping_exact_on_identical_inputs() {
        let gs = vec![Vector::from(vec![0.4, -0.2]); 5];
        let out = aggregate_rows(&CenteredClipping::new(1.0, 10).unwrap(), &gs, 1).unwrap();
        assert!(out.approx_eq(&gs[0], 1e-9));
    }

    #[test]
    fn norm_clipping_averages_clipped() {
        let gs = vec![
            Vector::from(vec![10.0, 0.0]), // clipped to (1, 0)
            Vector::from(vec![0.0, 0.5]),  // untouched
        ];
        let out = aggregate_rows(&NormClipping::new(1.0).unwrap(), &gs, 0).unwrap();
        assert!(out.approx_eq(&Vector::from(vec![0.5, 0.25]), 1e-12));
    }

    #[test]
    fn norm_clipping_bounds_output() {
        let gs = vec![
            Vector::from(vec![1e12, 0.0]),
            Vector::from(vec![0.0, -1e12]),
            Vector::from(vec![1e12, 1e12]),
        ];
        let out = aggregate_rows(&NormClipping::new(2.0).unwrap(), &gs, 1).unwrap();
        assert!(out.norm() <= 2.0 + 1e-9);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(
            CenteredClipping::new(1.0, 1).unwrap().name(),
            "centered-clipping"
        );
        assert_eq!(NormClipping::new(1.0).unwrap().name(), "norm-clipping");
    }
}

//! Sign-majority aggregation (signSGD with majority vote — the paper's
//! reference \[3\], Bernstein et al.).

use crate::error::FilterError;
use crate::par::{for_each_slot_range, Rows};
use crate::traits::{validate_batch, zeroed_out, GradientFilter};
use abft_linalg::{GradientBatch, Vector};

/// Coordinate-wise sign-majority vote, scaled by a fixed magnitude.
///
/// Each coordinate of the output is `scale · sign(Σᵢ sign(gᵢ[k]))`. Majority
/// voting is Byzantine-robust as long as honest agents dominate and agree in
/// sign; magnitudes are discarded entirely, so convergence is to a
/// neighbourhood whose size scales with `scale`.
#[derive(Debug, Clone, Copy)]
pub struct SignMajority {
    scale: f64,
}

impl SignMajority {
    /// Creates the filter with output magnitude `scale` per coordinate.
    ///
    /// # Errors
    ///
    /// Returns [`FilterError::InvalidParameter`] for a non-positive scale.
    pub fn new(scale: f64) -> Result<Self, FilterError> {
        if scale <= 0.0 || !scale.is_finite() {
            return Err(FilterError::InvalidParameter {
                filter: "sign-majority",
                reason: format!("scale must be positive and finite, got {scale}"),
            });
        }
        Ok(SignMajority { scale })
    }
}

impl GradientFilter for SignMajority {
    fn aggregate_into(
        &self,
        batch: &GradientBatch,
        f: usize,
        out: &mut Vector,
    ) -> Result<(), FilterError> {
        let dim = validate_batch("sign-majority", batch, f)?;
        // f64::signum maps ±0.0 to ±1.0; majority voting needs a true
        // three-valued sign so that zero entries and tied votes stay zero.
        fn sign(x: f64) -> f64 {
            if x > 0.0 {
                1.0
            } else if x < 0.0 {
                -1.0
            } else {
                0.0
            }
        }
        // Votes are small integers, so the row-major sum is exact in any
        // order: no transposition, and each column range is independent.
        let rows = Rows::of(batch);
        let pool = batch.worker_pool();
        let work = batch.len() * dim;
        let votes = zeroed_out(out, dim);
        for_each_slot_range(
            pool,
            batch.dispatch_profile(),
            work,
            votes,
            |columns, votes| {
                for row in rows.iter() {
                    let segment = row.get(columns.clone()).unwrap_or_default();
                    for (vote, &v) in votes.iter_mut().zip(segment) {
                        *vote += sign(v);
                    }
                }
                for vote in votes {
                    *vote = self.scale * sign(*vote);
                }
            },
        );
        Ok(())
    }

    fn name(&self) -> &'static str {
        "sign-majority"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::aggregate_rows;

    #[test]
    fn majority_sign_wins() {
        let gs = vec![
            Vector::from(vec![1.0, -5.0]),
            Vector::from(vec![0.2, -0.1]),
            Vector::from(vec![-9.0, -2.0]), // dissenter in coordinate 0
        ];
        let out = aggregate_rows(&SignMajority::new(0.5).unwrap(), &gs, 1).unwrap();
        assert_eq!(out.as_slice(), &[0.5, -0.5]);
    }

    #[test]
    fn magnitude_is_ignored() {
        let gs = vec![
            Vector::from(vec![1e-9]),
            Vector::from(vec![1e-9]),
            Vector::from(vec![-1e12]),
        ];
        let out = aggregate_rows(&SignMajority::new(1.0).unwrap(), &gs, 1).unwrap();
        assert_eq!(out[0], 1.0);
    }

    #[test]
    fn tie_votes_zero() {
        let gs = vec![
            Vector::from(vec![1.0]),
            Vector::from(vec![-1.0]),
            Vector::from(vec![0.0]),
        ];
        let out = aggregate_rows(&SignMajority::new(1.0).unwrap(), &gs, 1).unwrap();
        assert_eq!(out[0], 0.0);
    }

    #[test]
    fn construction_validates() {
        assert!(SignMajority::new(0.0).is_err());
        assert!(SignMajority::new(-1.0).is_err());
        assert!(SignMajority::new(f64::INFINITY).is_err());
        assert_eq!(SignMajority::new(1.0).unwrap().name(), "sign-majority");
    }
}

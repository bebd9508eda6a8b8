//! The [`GradientFilter`] trait and shared input validation.
//!
//! A filter has exactly one way to produce its value: `aggregate_into`
//! over a [`GradientBatch`]. Callers that hold gradients as `&[Vector]`
//! copy them in with [`batch_of`] first; there is no second, allocating
//! form of the map to keep equal to the first.

use crate::error::FilterError;
use abft_linalg::{GradientBatch, Vector};

/// A Byzantine-robust gradient aggregation rule
/// `GradFilter : (ℝᵈ)ⁿ → ℝᵈ` (Section 4 of the paper).
///
/// Implementations must be deterministic — the paper's resilience notions
/// are defined for deterministic algorithms — and must treat the input
/// rows as unordered data from `n` agents of which up to `f` may be
/// Byzantine.
///
/// The one entry point is [`GradientFilter::aggregate_into`]: it reads a
/// contiguous [`GradientBatch`], works out of the batch's scratch arena,
/// and writes the result into a caller-owned [`Vector`] — zero heap
/// allocation per call once the scratch has warmed up. There is no
/// allocating `&[Vector]` twin: a caller holding a slice builds the batch
/// with [`batch_of`] and calls `aggregate_into` like every driver does.
pub trait GradientFilter: Send + Sync {
    /// Aggregates the batch rows, tolerating up to `f` faults, writing
    /// the `d`-dimensional result into `out` (resized as needed).
    ///
    /// # Errors
    ///
    /// Returns a [`FilterError`] when the batch is empty, contains
    /// non-finite entries, or is too small for the filter's `(n, f)`
    /// requirement.
    fn aggregate_into(
        &self,
        batch: &GradientBatch,
        f: usize,
        out: &mut Vector,
    ) -> Result<(), FilterError>;

    /// A stable, lowercase identifier (used by the registry and reports).
    fn name(&self) -> &'static str;
}

/// Copies a gradient slice into a fresh batch, reporting dimension
/// mismatches in filter terms.
pub fn batch_of(gradients: &[Vector]) -> Result<GradientBatch, FilterError> {
    let first = gradients.first().ok_or(FilterError::Empty)?;
    let dim = first.dim();
    if dim == 0 {
        // Zero-dimension gradients carry nothing to aggregate; rejecting
        // them here (instead of panicking in `GradientBatch` construction)
        // keeps the copy total on arbitrary caller input.
        return Err(FilterError::Empty);
    }
    let mut batch = GradientBatch::with_capacity(gradients.len(), dim);
    for g in gradients {
        if g.dim() != dim {
            return Err(FilterError::DimensionMismatch {
                expected: dim,
                actual: g.dim(),
            });
        }
        batch.push_row(g.as_slice());
    }
    Ok(batch)
}

/// Validates common input requirements shared by all filters: non-empty,
/// finite, and `n > 2f` (no filter can promise anything once half the
/// inputs may be faulty — Lemma 1). Dimensional consistency is guaranteed
/// by [`GradientBatch`] construction.
///
/// Returns the common dimension.
pub(crate) fn validate_batch(
    filter: &'static str,
    batch: &GradientBatch,
    f: usize,
) -> Result<usize, FilterError> {
    if batch.is_empty() {
        return Err(FilterError::Empty);
    }
    if let Some(index) = batch.first_non_finite_row() {
        return Err(FilterError::NonFinite { index });
    }
    if batch.len() <= 2 * f {
        return Err(FilterError::TooFewGradients {
            filter,
            n: batch.len(),
            f,
            requirement: "n > 2f",
        });
    }
    Ok(batch.dim())
}

/// Resizes `out` to `dim` zeros without reallocating when the dimension
/// is unchanged, returning the writable slice.
pub(crate) fn zeroed_out(out: &mut Vector, dim: usize) -> &mut [f64] {
    if out.dim() != dim {
        *out = Vector::zeros(dim);
    } else {
        out.as_mut_slice().fill(0.0);
    }
    out.as_mut_slice()
}

/// `filter` applied to `rows` through [`batch_of`] and
/// [`GradientFilter::aggregate_into`] — the unit tests' shorthand for a
/// one-off aggregation of literal gradients.
#[cfg(test)]
pub(crate) fn aggregate_rows(
    filter: &dyn GradientFilter,
    rows: &[Vector],
    f: usize,
) -> Result<Vector, FilterError> {
    let batch = batch_of(rows)?;
    let mut out = Vector::zeros(batch.dim());
    filter.aggregate_into(&batch, f, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_well_formed() {
        let gs = vec![Vector::zeros(2), Vector::ones(2), Vector::zeros(2)];
        let batch = batch_of(&gs).unwrap();
        assert_eq!(validate_batch("test", &batch, 1).unwrap(), 2);
    }

    #[test]
    fn validate_rejects_empty() {
        assert_eq!(batch_of(&[]).unwrap_err(), FilterError::Empty);
        let batch = GradientBatch::new(2);
        assert_eq!(
            validate_batch("test", &batch, 0).unwrap_err(),
            FilterError::Empty
        );
    }

    #[test]
    fn batch_of_rejects_dimension_mismatch() {
        let gs = vec![Vector::zeros(2), Vector::zeros(3)];
        assert_eq!(
            batch_of(&gs).unwrap_err(),
            FilterError::DimensionMismatch {
                expected: 2,
                actual: 3
            }
        );
    }

    #[test]
    fn validate_rejects_nan() {
        let gs = vec![Vector::zeros(1), Vector::from(vec![f64::NAN])];
        let batch = batch_of(&gs).unwrap();
        assert_eq!(
            validate_batch("test", &batch, 0).unwrap_err(),
            FilterError::NonFinite { index: 1 }
        );
    }

    #[test]
    fn validate_rejects_half_faulty() {
        let gs = vec![Vector::zeros(1), Vector::zeros(1)];
        let batch = batch_of(&gs).unwrap();
        assert!(matches!(
            validate_batch("test", &batch, 1),
            Err(FilterError::TooFewGradients { .. })
        ));
    }

    #[test]
    fn zeroed_out_reuses_storage() {
        let mut out = Vector::from(vec![1.0, 2.0]);
        {
            let slice = zeroed_out(&mut out, 2);
            assert_eq!(slice, &[0.0, 0.0]);
            slice[0] = 9.0;
        }
        assert_eq!(out.as_slice(), &[9.0, 0.0]);
        let slice = zeroed_out(&mut out, 3);
        assert_eq!(slice.len(), 3);
    }
}

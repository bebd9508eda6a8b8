//! Inputs and shorthand shared by the integration tests. Each test target
//! uses a subset of them.
#![allow(
    dead_code,
    reason = "each test target uses a subset; an `expect` would go unfulfilled in a target that uses them all"
)]

use abft_filters::{batch_of, FilterError, GradientFilter};
use abft_linalg::Vector;

mod hostile;

/// `filter` applied to `rows` through [`batch_of`] and
/// [`GradientFilter::aggregate_into`]: one-off aggregation of literal
/// gradients, the way a caller holding `&[Vector]` does it.
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

/// `n` finite rows of dimension `dim` whose columns are built to break an
/// order-statistics kernel: see [`hostile::hostile_rows`].
pub fn hostile_rows(n: usize, dim: usize, seed: u64) -> Vec<Vector> {
    hostile::hostile_rows(n, dim, seed)
}

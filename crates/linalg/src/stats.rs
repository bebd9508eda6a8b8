//! Scalar descriptive statistics.
//!
//! The coordinate-wise trimmed mean filter (CWTM, eq. 24 of the paper)
//! reduces to [`trimmed_mean`] applied per coordinate; the coordinate-wise
//! median baseline reduces to [`median`].

use crate::error::LinalgError;

/// Arithmetic mean.
///
/// # Errors
///
/// Returns [`LinalgError::Empty`] for an empty slice.
pub fn mean(values: &[f64]) -> Result<f64, LinalgError> {
    if values.is_empty() {
        return Err(LinalgError::Empty);
    }
    Ok(values.iter().sum::<f64>() / values.len() as f64)
}

/// Unbiased sample variance (divides by `n − 1`; returns `0` for `n = 1`).
///
/// # Errors
///
/// Returns [`LinalgError::Empty`] for an empty slice.
pub fn variance(values: &[f64]) -> Result<f64, LinalgError> {
    let m = mean(values)?;
    if values.len() == 1 {
        return Ok(0.0);
    }
    Ok(values.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (values.len() - 1) as f64)
}

/// Median (average of the two middle order statistics for even length).
///
/// # Errors
///
/// Returns [`LinalgError::Empty`] for an empty slice.
pub fn median(values: &[f64]) -> Result<f64, LinalgError> {
    if values.is_empty() {
        return Err(LinalgError::Empty);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        Ok(sorted[n / 2])
    } else {
        Ok(0.5 * (sorted[n / 2 - 1] + sorted[n / 2]))
    }
}

/// Trimmed mean: drops the `trim` smallest and `trim` largest values, then
/// averages the remainder.
///
/// With `trim = f` over `n` per-coordinate gradient entries this is exactly
/// the CWTM aggregation rule of the paper's eq. (24): average of the middle
/// `n − 2f` order statistics.
///
/// # Errors
///
/// Returns [`LinalgError::Empty`] when `values.len() <= 2 * trim` (nothing
/// would remain).
pub fn trimmed_mean(values: &[f64], trim: usize) -> Result<f64, LinalgError> {
    if values.len() <= 2 * trim {
        return Err(LinalgError::Empty);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let kept = &sorted[trim..sorted.len() - trim];
    mean(kept)
}

/// Allocation-free trimmed mean over a scratch buffer the caller owns:
/// drops the `trim` smallest and `trim` largest values via partial
/// selection (`O(n)` instead of a full sort) and averages the remainder.
/// The buffer is reordered arbitrarily.
///
/// This is the hot-path variant of [`trimmed_mean`] used by the CWTM
/// filter once per coordinate. The two keep exactly the same multiset of
/// values (the middle `n − 2·trim` order statistics), but the sum runs in
/// partition order rather than sorted order, so results may differ from
/// [`trimmed_mean`] by floating-point rounding on ill-conditioned inputs
/// (catastrophic-cancellation magnitudes). Within the batch pipeline this
/// is irrelevant — both the slice adapter and the batch path call this
/// function, so they stay bit-identical to each other.
///
/// Order statistics use [`f64::total_cmp`], so a NaN that reaches this
/// far sorts deterministically (to the extremes) instead of aborting —
/// aggregation callers still validate finiteness at the boundary, where a
/// clean `FilterError` is produced.
///
/// # Errors
///
/// Returns [`LinalgError::Empty`] when `values.len() <= 2 * trim`.
pub fn trimmed_mean_in_place(values: &mut [f64], trim: usize) -> Result<f64, LinalgError> {
    let n = values.len();
    if n <= 2 * trim {
        return Err(LinalgError::Empty);
    }
    let kept: &mut [f64] = if trim == 0 {
        values
    } else {
        // Partition the `trim` smallest off the front…
        let (_, _, upper) = values.select_nth_unstable_by(trim - 1, f64::total_cmp);
        // …then the `trim` largest off the back of what remains.
        let cut = upper.len() - trim;
        let (kept, _, _) = upper.select_nth_unstable_by(cut, f64::total_cmp);
        kept
    };
    Ok(kept.iter().sum::<f64>() / kept.len() as f64)
}

/// Allocation-free median over a scratch buffer the caller owns (partial
/// selection; the buffer is reordered arbitrarily). Agrees exactly with
/// [`median`].
///
/// Order statistics use [`f64::total_cmp`] (see [`trimmed_mean_in_place`]
/// for the NaN behaviour).
///
/// # Errors
///
/// Returns [`LinalgError::Empty`] for an empty slice.
pub fn median_in_place(values: &mut [f64]) -> Result<f64, LinalgError> {
    let n = values.len();
    if n == 0 {
        return Err(LinalgError::Empty);
    }
    let (lower, mid, _) = values.select_nth_unstable_by(n / 2, f64::total_cmp);
    let mid = *mid;
    if n % 2 == 1 {
        Ok(mid)
    } else {
        let below = lower.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Ok(0.5 * (below + mid))
    }
}

/// `q`-quantile (linear interpolation between order statistics), `q ∈ [0,1]`.
///
/// # Errors
///
/// Returns [`LinalgError::InvalidQuantile`] when `q` is outside `[0, 1]`
/// (NaN included) and [`LinalgError::Empty`] for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Result<f64, LinalgError> {
    if !(0.0..=1.0).contains(&q) {
        return Err(LinalgError::InvalidQuantile { q });
    }
    if values.is_empty() {
        return Err(LinalgError::Empty);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        Ok(sorted[lo])
    } else {
        let w = pos - lo as f64;
        Ok(sorted[lo] * (1.0 - w) + sorted[hi] * w)
    }
}

/// Minimum of a non-empty slice.
///
/// # Errors
///
/// Returns [`LinalgError::Empty`] for an empty slice.
pub fn min(values: &[f64]) -> Result<f64, LinalgError> {
    values
        .iter()
        .copied()
        .reduce(f64::min)
        .ok_or(LinalgError::Empty)
}

/// Maximum of a non-empty slice.
///
/// # Errors
///
/// Returns [`LinalgError::Empty`] for an empty slice.
pub fn max(values: &[f64]) -> Result<f64, LinalgError> {
    values
        .iter()
        .copied()
        .reduce(f64::max)
        .ok_or(LinalgError::Empty)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs).unwrap(), 5.0);
        assert!((variance(&xs).unwrap() - 32.0 / 7.0).abs() < 1e-12);
        assert!(mean(&[]).is_err());
        assert_eq!(variance(&[3.0]).unwrap(), 0.0);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]).unwrap(), 2.5);
        assert_eq!(median(&[5.0]).unwrap(), 5.0);
        assert!(median(&[]).is_err());
    }

    #[test]
    fn trimmed_mean_drops_extremes() {
        // 100 and -100 are trimmed away.
        let xs = [1.0, 2.0, 3.0, 100.0, -100.0];
        assert_eq!(trimmed_mean(&xs, 1).unwrap(), 2.0);
        // trim = 0 is the plain mean.
        assert_eq!(trimmed_mean(&[1.0, 2.0, 3.0], 0).unwrap(), 2.0);
        // Nothing left after trimming.
        assert!(trimmed_mean(&[1.0, 2.0], 1).is_err());
        assert!(trimmed_mean(&[], 0).is_err());
    }

    #[test]
    fn trimmed_mean_matches_cwtm_semantics() {
        // n = 6, f = 1: average of the middle 4 order statistics.
        let xs = [6.0, 1.0, 3.0, 4.0, 2.0, 5.0];
        assert_eq!(trimmed_mean(&xs, 1).unwrap(), (2.0 + 3.0 + 4.0 + 5.0) / 4.0);
    }

    #[test]
    fn in_place_variants_agree_with_sorting_versions() {
        let xs = [6.0, 1.0, 3.0, 4.0, 2.0, 5.0, -9.0, 100.0];
        for trim in 0..=3 {
            let mut buf = xs.to_vec();
            // Same kept multiset; summation order may differ, so compare
            // up to floating-point rounding rather than bitwise.
            let in_place = trimmed_mean_in_place(&mut buf, trim).unwrap();
            let sorted = trimmed_mean(&xs, trim).unwrap();
            assert!(
                (in_place - sorted).abs() <= 1e-12 * sorted.abs().max(1.0),
                "trim = {trim}: {in_place} vs {sorted}"
            );
        }
        let mut buf = xs.to_vec();
        assert_eq!(median_in_place(&mut buf).unwrap(), median(&xs).unwrap());
        let odd = [3.0, 1.0, 2.0];
        let mut buf = odd.to_vec();
        assert_eq!(median_in_place(&mut buf).unwrap(), 2.0);
        let mut single = vec![5.0];
        assert_eq!(median_in_place(&mut single).unwrap(), 5.0);
    }

    #[test]
    fn in_place_variants_reject_degenerate_input() {
        assert!(trimmed_mean_in_place(&mut [1.0, 2.0], 1).is_err());
        assert!(trimmed_mean_in_place(&mut [], 0).is_err());
        assert!(median_in_place(&mut []).is_err());
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0).unwrap(), 1.0);
        assert_eq!(quantile(&xs, 1.0).unwrap(), 4.0);
        assert_eq!(quantile(&xs, 0.5).unwrap(), 2.5);
        assert!(quantile(&[], 0.5).is_err());
    }

    #[test]
    fn quantile_rejects_out_of_range_as_an_error() {
        for bad in [1.5, -0.1, f64::NAN, f64::INFINITY] {
            match quantile(&[1.0], bad) {
                Err(LinalgError::InvalidQuantile { q }) => {
                    assert!(q.is_nan() == bad.is_nan() && (q == bad || bad.is_nan()));
                }
                other => panic!("q = {bad} must be InvalidQuantile, got {other:?}"),
            }
        }
        // The range check fires before the emptiness check, so even a
        // degenerate call site gets the more specific error.
        assert!(matches!(
            quantile(&[], 2.0),
            Err(LinalgError::InvalidQuantile { .. })
        ));
    }

    #[test]
    fn order_statistics_tolerate_non_finite_values_without_panicking() {
        // Finiteness is validated at the aggregation boundary; these calls
        // exist to pin that a NaN reaching this far degrades to a value,
        // never to a process abort.
        let _ = median(&[f64::NAN, 1.0, 2.0]).unwrap();
        let _ = trimmed_mean(&[f64::NAN, 1.0, 2.0], 1).unwrap();
        let _ = trimmed_mean_in_place(&mut [f64::NAN, 1.0, 2.0], 1).unwrap();
        let _ = median_in_place(&mut [f64::NAN, 1.0, 2.0]).unwrap();
        let _ = quantile(&[f64::NAN, 1.0], 0.5).unwrap();
    }

    #[test]
    fn min_max() {
        let xs = [3.0, -1.0, 2.0];
        assert_eq!(min(&xs).unwrap(), -1.0);
        assert_eq!(max(&xs).unwrap(), 3.0);
        assert!(min(&[]).is_err());
        assert!(max(&[]).is_err());
    }
}

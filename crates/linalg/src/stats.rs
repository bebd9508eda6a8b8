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
/// **Order contract.** The kept values are the middle order statistics
/// under [`f64::total_cmp`] (so `-0.0` sorts before `+0.0`, and a NaN that
/// reaches this far sorts to an extreme instead of aborting), and they are
/// summed **in ascending order** from [`Iterator::sum`]'s identity before
/// the one division. The result is therefore a function of the multiset
/// alone — permutation-invariant in the agents, as eq. (24) is — and this
/// function is the reference the batch filters (`cwtm`, `cwmed` with
/// `trim = (n − 1) / 2`, Bulyan's trim stage) are held to bit for bit: it
/// is what the tier-1 golden digests pin, whichever algorithm computes it.
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
    fn trimmed_mean_sums_the_kept_values_in_ascending_order() {
        // Ill-conditioned on purpose: the kept values cancel, so every
        // summation order rounds differently and only the ascending one
        // matches. Input order must not matter.
        let xs = [1e16, 3.0, -1e16, 1.0, 2.0, 9e300, -9e300];
        let ascending: f64 = (((-1e16 + 1.0) + 2.0) + 3.0) + 1e16;
        let want = ascending / 5.0;
        assert_eq!(trimmed_mean(&xs, 1).unwrap().to_bits(), want.to_bits());
        let mut reversed = xs;
        reversed.reverse();
        assert_eq!(
            trimmed_mean(&reversed, 1).unwrap().to_bits(),
            want.to_bits()
        );
        assert_ne!(want, ((1e16 + 3.0) + -1e16 + 1.0 + 2.0) / 5.0);
        // `-0.0` orders below `+0.0`: trimming one of each side of
        // [-0.0, -0.0, 0.0, 0.0] keeps one of each, which sum to `+0.0`…
        let zeros = [0.0, -0.0, 0.0, -0.0];
        assert_eq!(trimmed_mean(&zeros, 1).unwrap().to_bits(), 0.0f64.to_bits());
        // …and trimming [-0.0, -0.0, 0.0] keeps the negative one.
        let kept_negative = trimmed_mean(&[0.0, -0.0, -0.0], 1).unwrap();
        assert_eq!(kept_negative.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn median_is_the_trimmed_mean_of_the_middle_bit_for_bit() {
        // The identity the batch filters' median rests on: one kept value
        // divides by 1, two kept values halve their sum.
        let columns: [&[f64]; 6] = [
            &[5.0],
            &[3.0, 1.0, 2.0],
            &[4.0, 1.0, 2.0, 3.0],
            &[0.0, -0.0],
            &[5e-324, 1e-310, -2e-310, 5e-324],
            &[1.7e308, 1.7e308, -1.0, 1.7e308],
        ];
        for xs in columns {
            let trimmed = trimmed_mean(xs, (xs.len() - 1) / 2).unwrap();
            assert_eq!(median(xs).unwrap().to_bits(), trimmed.to_bits(), "{xs:?}");
        }
        assert!(trimmed_mean(&[1.0, 2.0], 1).is_err());
        assert!(trimmed_mean(&[], 0).is_err());
        assert!(median(&[]).is_err());
    }

    #[test]
    fn order_statistics_tolerate_non_finite_values_without_panicking() {
        // Finiteness is validated at the aggregation boundary; these calls
        // exist to pin that a NaN reaching this far degrades to a value,
        // never to a process abort.
        let _ = median(&[f64::NAN, 1.0, 2.0]).unwrap();
        let _ = trimmed_mean(&[f64::NAN, 1.0, 2.0], 1).unwrap();
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

//! Order statistics the benchmark reports: medians, quartiles, and the
//! tail percentile rule.

/// How many samples must lie beyond the reported tail percentile.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// Sorts ascending with the total order (no NaN panics).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// The median (mean of the two middle values for an even count); `0.0`
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The *quiet* value of repeated timings of the same work: their first
/// decile (`0.0` for an empty slice).
///
/// On a shared host other tenants only ever add time to a sample, and how
/// much they add drifts over minutes: while sizing, the medians of
/// back-to-back runs moved by 6–30% with the host's load while their
/// first deciles moved by 1–6%. The first decile is what the work costs
/// when nothing interferes — the number two commits can be compared on —
/// and it still needs one run in ten to be undisturbed, where the minimum
/// would trust a single sample.
pub fn quiet(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => 0.0,
        n => s[(n - 1) / 10],
    }
}

/// `(q1, q2, q3)` exactly as Python's `statistics.quantiles(values, n=4)`
/// (the default *exclusive* method) computes them — the rule the
/// acceptance driver applies to ten runs. `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let s = sorted(values);
    let m = s.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// The interquartile range as a share of the median (`0.0` when it is
/// undefined: fewer than two samples or a zero median).
pub fn relative_iqr(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q2, q3)) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

/// The tail of a sample set: the highest percentile that still has
/// [`TAIL_SAMPLES_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile, in `[0, 100]`.
    pub percentile: f64,
    /// Samples strictly beyond `value`'s rank.
    pub beyond: usize,
}

/// Applies the tail rule. With too few samples to leave ten beyond any
/// rank the maximum is reported (`beyond = 0`), so short smoke runs still
/// print a number; `None` only for an empty set.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let s = sorted(values);
    let n = s.len();
    if n == 0 {
        return None;
    }
    let beyond = if n > TAIL_SAMPLES_BEYOND {
        TAIL_SAMPLES_BEYOND
    } else {
        0
    };
    let rank = n - 1 - beyond;
    Some(Tail {
        value: s[rank],
        percentile: 100.0 * (rank + 1) as f64 / n as f64,
        beyond,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quiet_is_the_first_decile_and_ignores_slow_samples() {
        let v: Vec<f64> = (1..=101).rev().map(f64::from).collect();
        assert_eq!(quiet(&v), 11.0);
        // Nine disturbed runs in ten leave it where it was.
        assert_eq!(
            quiet(&[5.0, 50.0, 70.0, 60.0, 90.0, 80.0, 55.0, 65.0, 75.0, 85.0]),
            5.0
        );
        assert_eq!(quiet(&[3.0, 2.0]), 2.0);
        assert_eq!(quiet(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some((1.5, 4.0, 12.0))
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_iqr_is_a_share_of_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_iqr(&v) - 1.0).abs() < 1e-12);
        assert_eq!(relative_iqr(&[5.0]), 0.0);
        assert_eq!(relative_iqr(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.value, 190.0);
        assert_eq!(t.beyond, 10);
        assert!((t.percentile - 95.0).abs() < 1e-12);
        // Eleven samples: the minimum is the only rank with ten beyond it.
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap().value, 1.0);
    }

    #[test]
    fn tail_of_a_short_run_is_the_maximum() {
        let t = tail(&[2.0, 9.0, 4.0]).unwrap();
        assert_eq!((t.value, t.beyond), (9.0, 0));
        assert_eq!(tail(&[]), None);
    }
}

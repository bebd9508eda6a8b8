//! The contract of `GradientFilter::aggregate_into(&batch, f, &mut out)`,
//! the one way a filter produces its value:
//!
//! * **Errors are typed and exact.** An empty batch is
//!   `FilterError::Empty`; a batch holding a non-finite entry is
//!   `FilterError::NonFinite { index }` of the first such row, checked
//!   before any size requirement; a batch too small for the filter's
//!   `(n, f)` requirement is `FilterError::TooFewGradients`.
//! * **`out` is resized on demand**, so one output vector serves rounds of
//!   any dimension.
//! * **Scratch is per call.** A batch aggregated twice gives the same
//!   bits twice: nothing a call leaves in the batch's scratch arena leaks
//!   into the next.

use abft_filters::traits::batch_of;
use abft_filters::{all_filters, by_name, FilterError};
use abft_linalg::{GradientBatch, Vector};

/// Deterministic pseudo-random gradients (splitmix64-driven, no RNG dep).
fn pseudo_gradients(n: usize, dim: usize, seed: u64) -> Vec<Vector> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64 * 20.0 - 10.0
    };
    (0..n).map(|_| Vector::from_fn(dim, |_| next())).collect()
}

/// What each registered filter returns on two rows at `f = 1`: every
/// filter but `mean` requires `n > 2f` (`cge-avg` reports the `cge` it
/// configures); `mean` trims nothing and averages the two rows.
fn expected_on_two_rows(name: &'static str) -> Result<Vector, FilterError> {
    match name {
        "mean" => Ok(Vector::from(vec![
            -0.2723995858065047,
            -5.307698104603755,
            1.5019220288962671,
        ])),
        _ => Err(FilterError::TooFewGradients {
            filter: if name == "cge-avg" { "cge" } else { name },
            n: 2,
            f: 1,
            requirement: "n > 2f",
        }),
    }
}

/// A result with its output coordinates as bit patterns, so `==` is
/// bit-exact.
fn bits(result: Result<Vector, FilterError>) -> Result<Vec<u64>, FilterError> {
    result.map(|v| v.iter().map(|x| x.to_bits()).collect())
}

#[test]
fn error_cases_return_the_recorded_results() {
    let nan = batch_of(&[
        Vector::from(vec![1.0]),
        Vector::from(vec![f64::NAN]),
        Vector::from(vec![2.0]),
    ])
    .expect("well-formed");
    let tiny = batch_of(&pseudo_gradients(2, 3, 7)).expect("well-formed");
    for filter in all_filters() {
        let name = filter.name();
        let mut out = Vector::zeros(1);
        assert_eq!(
            filter.aggregate_into(&nan, 1, &mut out),
            Err(FilterError::NonFinite { index: 1 }),
            "{name}: NaN batch"
        );
        let mut out = Vector::zeros(1);
        let result = filter.aggregate_into(&tiny, 1, &mut out).map(|()| out);
        assert_eq!(
            bits(result),
            bits(expected_on_two_rows(name)),
            "{name}: two rows at f = 1"
        );
    }
}

#[test]
fn batch_reuse_does_not_leak_state_between_calls() {
    // Aggregating twice on the same warmed-up batch must reproduce the
    // first result exactly — scratch contents are per-call by contract.
    let gs = pseudo_gradients(9, 6, 42);
    let batch = batch_of(&gs).expect("well-formed");
    for filter in all_filters() {
        let mut first = Vector::zeros(batch.dim());
        let mut second = Vector::zeros(batch.dim());
        filter
            .aggregate_into(&batch, 1, &mut first)
            .expect("n = 9, f = 1 is valid for every registered filter");
        filter
            .aggregate_into(&batch, 1, &mut second)
            .expect("second call");
        assert!(
            first.approx_eq(&second, 0.0),
            "{}: warmed-up call diverged",
            filter.name()
        );
    }
}

#[test]
fn aggregate_into_accepts_wrongly_sized_out() {
    // The out vector is resized on demand — callers reuse one vector
    // across rounds whose dimension may change after eliminations.
    let gs = pseudo_gradients(5, 4, 3);
    let batch = batch_of(&gs).expect("well-formed");
    let filter = by_name("cge").expect("registered");
    let mut out = Vector::zeros(9);
    filter.aggregate_into(&batch, 1, &mut out).expect("runs");
    assert_eq!(out.dim(), 4);
}

#[test]
fn empty_batch_is_rejected() {
    let batch = GradientBatch::new(3);
    let filter = by_name("mean").expect("registered");
    let mut out = Vector::zeros(3);
    assert_eq!(
        filter.aggregate_into(&batch, 0, &mut out).unwrap_err(),
        FilterError::Empty
    );
}

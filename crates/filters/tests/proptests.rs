//! Property-based tests for gradient filters.

mod common;

use abft_filters::{all_filters, Cge, Cwtm, Mean};
use abft_linalg::Vector;
use common::aggregate_rows;
use proptest::prelude::*;

/// Strategy: `count` gradient vectors of dimension `dim` with bounded entries.
fn gradients(count: usize, dim: usize) -> impl Strategy<Value = Vec<Vector>> {
    prop::collection::vec(
        prop::collection::vec(-100.0..100.0f64, dim).prop_map(Vector::from),
        count,
    )
}

/// Applies a permutation to a vector of gradients.
fn permute(gs: &[Vector], perm: &[usize]) -> Vec<Vector> {
    perm.iter().map(|&i| gs[i].clone()).collect()
}

proptest! {
    /// Every filter is permutation-invariant: agents are anonymous.
    #[test]
    fn filters_are_permutation_invariant(
        gs in gradients(7, 3),
        seed in 0u64..1000,
    ) {
        // Derive a deterministic permutation from the seed.
        let mut perm: Vec<usize> = (0..7).collect();
        let mut state = seed;
        for i in (1..7).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        let shuffled = permute(&gs, &perm);
        for filter in all_filters() {
            let a = aggregate_rows(filter.as_ref(), &gs, 1);
            let b = aggregate_rows(filter.as_ref(), &shuffled, 1);
            match (a, b) {
                (Ok(x), Ok(y)) => prop_assert!(
                    x.approx_eq(&y, 1e-9),
                    "{} not permutation invariant: {x} vs {y}",
                    filter.name()
                ),
                (Err(_), Err(_)) => {}
                (x, y) => prop_assert!(false, "{}: inconsistent {x:?} vs {y:?}", filter.name()),
            }
        }
    }

    /// CGE at f = 0 sums all gradients; CWTM and Mean at f = 0 average them.
    #[test]
    fn fault_free_reductions(gs in gradients(5, 2)) {
        let total = Vector::sum_of(&gs).expect("non-empty");
        let mean = total.scale(1.0 / gs.len() as f64);
        let cge = aggregate_rows(&Cge::new(), &gs, 0).expect("valid");
        prop_assert!(cge.approx_eq(&total, 1e-9));
        let cwtm = aggregate_rows(&Cwtm::new(), &gs, 0).expect("valid");
        prop_assert!(cwtm.approx_eq(&mean, 1e-9));
        let avg = aggregate_rows(&Mean::new(), &gs, 0).expect("valid");
        prop_assert!(avg.approx_eq(&mean, 1e-9));
    }

    /// CGE's output equals the sum over its selected index set, and the
    /// selected set has exactly n − f members whose norms are the smallest.
    #[test]
    fn cge_selection_is_smallest_norms(gs in gradients(6, 2), f in 0usize..3) {
        let kept = Cge::selected_indices(&gs, f);
        prop_assert_eq!(kept.len(), gs.len() - f);
        let max_kept = kept
            .iter()
            .map(|&i| gs[i].norm())
            .fold(0.0f64, f64::max);
        let dropped: Vec<usize> = (0..gs.len()).filter(|i| !kept.contains(i)).collect();
        for &i in &dropped {
            prop_assert!(gs[i].norm() >= max_kept - 1e-12);
        }
    }

    /// Each CWTM output coordinate lies within the trimmed hull of that
    /// coordinate's values (hence within the full hull).
    #[test]
    fn cwtm_within_coordinate_hull(gs in gradients(7, 3), f in 0usize..3) {
        let out = aggregate_rows(&Cwtm::new(), &gs, f).expect("n > 2f holds");
        for k in 0..3 {
            let mut column: Vec<f64> = gs.iter().map(|g| g[k]).collect();
            column.sort_by(|a, b| a.total_cmp(b));
            let lo = column[f];
            let hi = column[column.len() - 1 - f];
            prop_assert!(out[k] >= lo - 1e-9 && out[k] <= hi + 1e-9);
        }
    }

    /// Robust filters keep their output inside a ball proportional to the
    /// honest spread even when the f Byzantine inputs are enormous.
    #[test]
    fn bounded_outputs_under_gross_outliers(
        honest in gradients(6, 2),
        outlier_scale in 1e6..1e12f64,
    ) {
        let mut gs = honest.clone();
        gs.push(Vector::from(vec![outlier_scale, -outlier_scale]));
        let honest_bound = honest.iter().map(|g| g.norm()).fold(0.0f64, f64::max);
        for name in ["cge", "cwtm", "cwmed", "geomed", "krum", "multi-krum", "bulyan"] {
            let filter = abft_filters::by_name(name).expect("registered");
            let out = aggregate_rows(filter.as_ref(), &gs, 1).expect("7 gradients, f = 1");
            // Generous bound: n times the max honest norm (CGE sums n − f
            // gradients; the others stay inside hulls).
            prop_assert!(
                out.norm() <= honest_bound * gs.len() as f64 + 1e-6,
                "{name} produced {out} with honest bound {honest_bound}"
            );
        }
    }

    /// Filters are deterministic: equal inputs give equal outputs.
    #[test]
    fn filters_are_deterministic(gs in gradients(7, 2)) {
        for filter in all_filters() {
            let a = aggregate_rows(filter.as_ref(), &gs, 1);
            let b = aggregate_rows(filter.as_ref(), &gs, 1);
            match (a, b) {
                (Ok(x), Ok(y)) => prop_assert!(x.approx_eq(&y, 0.0), "{}", filter.name()),
                (Err(x), Err(y)) => prop_assert_eq!(x, y),
                _ => prop_assert!(false, "{} nondeterministic error", filter.name()),
            }
        }
    }

    /// Translation equivariance of mean, CWTM and coordinate-wise median:
    /// shifting every input by t shifts the output by t.
    #[test]
    fn translation_equivariance(gs in gradients(7, 2), shift in -50.0..50.0f64) {
        let t = Vector::from(vec![shift, -shift]);
        let shifted: Vec<Vector> = gs.iter().map(|g| g + &t).collect();
        for name in ["mean", "cwtm", "cwmed", "geomed"] {
            let filter = abft_filters::by_name(name).expect("registered");
            let base = aggregate_rows(filter.as_ref(), &gs, 1).expect("valid");
            let moved = aggregate_rows(filter.as_ref(), &shifted, 1).expect("valid");
            let tol = if name == "geomed" { 1e-4 } else { 1e-9 };
            prop_assert!(
                moved.approx_eq(&(&base + &t), tol),
                "{name}: {moved} != {base} + {t}"
            );
        }
    }
}

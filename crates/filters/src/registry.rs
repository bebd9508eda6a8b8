//! Name-based filter registry used by the experiment grid and the scenario
//! layer.

use crate::bulyan::Bulyan;
use crate::cge::Cge;
use crate::clipping::{CenteredClipping, NormClipping};
use crate::cwtm::{CoordinateWiseMedian, Cwtm};
use crate::error::FilterError;
use crate::faba::Faba;
use crate::geomed::{GeometricMedian, GeometricMedianOfMeans};
use crate::krum::{Krum, MultiKrum};
use crate::mean::Mean;
use crate::sign::SignMajority;
use crate::traits::GradientFilter;

/// Default clip radius for the clipping filters in the registry. Experiments
/// that need a tuned radius construct the filters directly.
const DEFAULT_CLIP_RADIUS: f64 = 10.0;

/// Default refinement iterations for centered clipping.
const DEFAULT_CLIP_ITERS: usize = 5;

/// Looks a filter up by its stable name (case-insensitively).
///
/// The recognized names are exactly [`filter_names`] (parameterized
/// filters use their canonical configurations: `gmom` runs 3 groups,
/// `multi-krum` m = 3, the clipping filters radius 10).
///
/// # Errors
///
/// Returns [`FilterError::Unknown`] — carrying the full list of registered
/// names — when `name` does not resolve.
///
/// # Example
///
/// ```
/// let filter = abft_filters::by_name("cge").expect("cge is registered");
/// assert_eq!(filter.name(), "cge");
/// // Lookups are case-insensitive…
/// assert!(abft_filters::by_name("CWTM").is_ok());
/// // …and a miss names the valid alternatives instead of a bare `None`.
/// let err = abft_filters::by_name("nonsense").err().expect("unknown");
/// assert!(err.to_string().contains("cwtm"));
/// ```
pub fn by_name(name: &str) -> Result<Box<dyn GradientFilter>, FilterError> {
    match name.to_ascii_lowercase().as_str() {
        "mean" => Ok(Box::new(Mean::new())),
        "cge" => Ok(Box::new(Cge::new())),
        "cge-avg" => Ok(Box::new(Cge::averaged())),
        "cwtm" => Ok(Box::new(Cwtm::new())),
        "cwmed" => Ok(Box::new(CoordinateWiseMedian::new())),
        "geomed" => Ok(Box::new(GeometricMedian::new())),
        #[expect(
            clippy::expect_used,
            reason = "registry constant, valid by construction"
        )]
        "gmom" => Ok(Box::new(
            GeometricMedianOfMeans::new(3).expect("3 groups is valid"),
        )),
        "krum" => Ok(Box::new(Krum::new())),
        #[expect(
            clippy::expect_used,
            reason = "registry constant, valid by construction"
        )]
        "multi-krum" => Ok(Box::new(MultiKrum::new(3).expect("m = 3 is valid"))),
        "bulyan" => Ok(Box::new(Bulyan::new())),
        "faba" => Ok(Box::new(Faba::new())),
        #[expect(
            clippy::expect_used,
            reason = "registry constant, valid by construction"
        )]
        "centered-clipping" => Ok(Box::new(
            CenteredClipping::new(DEFAULT_CLIP_RADIUS, DEFAULT_CLIP_ITERS)
                .expect("default radius is valid"),
        )),
        #[expect(
            clippy::expect_used,
            reason = "registry constant, valid by construction"
        )]
        "norm-clipping" => Ok(Box::new(
            NormClipping::new(DEFAULT_CLIP_RADIUS).expect("default radius is valid"),
        )),
        #[expect(
            clippy::expect_used,
            reason = "registry constant, valid by construction"
        )]
        "sign-majority" => Ok(Box::new(SignMajority::new(1.0).expect("scale 1 is valid"))),
        _ => Err(FilterError::Unknown {
            name: name.to_string(),
            known: &ALL_NAMES,
        }),
    }
}

/// All registered filters, in a stable order. The grid experiments iterate
/// this list.
#[expect(
    clippy::expect_used,
    reason = "ALL_NAMES mirrors by_name; pinned by the registry tests"
)]
pub fn all_filters() -> Vec<Box<dyn GradientFilter>> {
    ALL_NAMES
        .iter()
        .map(|name| by_name(name).expect("registry names are self-consistent"))
        .collect()
}

/// Every registered filter name, in the registry's stable order — the one
/// list error messages, docs, and grid experiments should consult instead
/// of hand-maintaining their own.
///
/// ```
/// assert!(abft_filters::filter_names().contains(&"cge"));
/// for name in abft_filters::filter_names() {
///     assert!(abft_filters::by_name(name).is_ok());
/// }
/// ```
pub fn filter_names() -> &'static [&'static str] {
    &ALL_NAMES
}

/// The stable list of registered filter names.
pub const ALL_NAMES: [&str; 14] = [
    "mean",
    "cge",
    "cge-avg",
    "cwtm",
    "cwmed",
    "geomed",
    "gmom",
    "krum",
    "multi-krum",
    "bulyan",
    "faba",
    "centered-clipping",
    "norm-clipping",
    "sign-majority",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::aggregate_rows;

    #[test]
    fn every_registered_name_resolves() {
        for name in ALL_NAMES {
            let filter = by_name(name).unwrap_or_else(|e| panic!("{name} missing: {e}"));
            assert_eq!(filter.name(), name, "name mismatch for {name}");
        }
    }

    #[test]
    fn lookups_are_case_insensitive() {
        for spelled in ["CGE", "Cwtm", "Sign-Majority", "MULTI-KRUM"] {
            let filter = by_name(spelled).unwrap_or_else(|e| panic!("{spelled}: {e}"));
            assert_eq!(filter.name(), spelled.to_ascii_lowercase());
        }
    }

    #[test]
    fn unknown_names_list_the_valid_ones() {
        for bad in ["", "average", "cge2"] {
            let err = match by_name(bad) {
                Err(err) => err,
                Ok(filter) => panic!("'{bad}' resolved to {}", filter.name()),
            };
            match &err {
                FilterError::Unknown { name, known } => {
                    assert_eq!(name, bad);
                    assert_eq!(*known, &ALL_NAMES);
                }
                other => panic!("expected Unknown, got {other:?}"),
            }
            let msg = err.to_string();
            assert!(msg.contains("cge"), "message lists names: {msg}");
            assert!(msg.contains("sign-majority"), "message lists names: {msg}");
        }
    }

    #[test]
    fn all_filters_matches_name_list() {
        let filters = all_filters();
        assert_eq!(filters.len(), ALL_NAMES.len());
        for (filter, name) in filters.iter().zip(ALL_NAMES) {
            assert_eq!(filter.name(), name);
        }
    }

    #[test]
    fn registry_filters_aggregate_on_a_common_instance() {
        use abft_linalg::Vector;
        // n = 7, f = 1 satisfies every filter's requirement (Bulyan needs 4f+3).
        let gs: Vec<Vector> = (0..7)
            .map(|i| Vector::from(vec![1.0 + 0.01 * i as f64, -1.0]))
            .collect();
        for filter in all_filters() {
            let out = aggregate_rows(filter.as_ref(), &gs, 1)
                .unwrap_or_else(|e| panic!("{} failed: {e}", filter.name()));
            assert_eq!(out.dim(), 2, "{} output dimension", filter.name());
            assert!(!out.has_non_finite(), "{} produced NaN", filter.name());
        }
    }
}

//! Property-based tests for the core configuration and subset enumeration.

use abft_core::subsets::{complement, is_subset, k_subsets, KSubsets};
use abft_core::SystemConfig;
use proptest::prelude::*;

/// Binomial coefficient for cross-checking enumeration counts.
fn binomial(n: usize, k: usize) -> usize {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: usize = 1;
    for i in 0..k {
        acc = acc * (n - i) / (i + 1);
    }
    acc
}

proptest! {
    /// The k-subset iterator yields exactly C(n, k) sorted, unique subsets.
    #[test]
    fn k_subsets_enumerate_completely(n in 0usize..12, k in 0usize..12) {
        let all = k_subsets(n, k);
        prop_assert_eq!(all.len(), binomial(n, k));
        for s in &all {
            prop_assert_eq!(s.len(), k.min(if k <= n { k } else { 0 }));
            prop_assert!(s.windows(2).all(|w| w[0] < w[1]), "unsorted subset {s:?}");
            prop_assert!(s.iter().all(|&x| x < n));
        }
        let mut dedup = all.clone();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), all.len(), "duplicates emitted");
    }

    /// Complementation partitions the ground set.
    #[test]
    fn complement_partitions_ground_set(n in 1usize..12, k in 0usize..12) {
        prop_assume!(k <= n);
        for s in KSubsets::new(n, k) {
            let c = complement(n, &s);
            prop_assert_eq!(c.len(), n - k);
            let mut merged: Vec<usize> = s.iter().chain(c.iter()).copied().collect();
            merged.sort_unstable();
            prop_assert_eq!(merged, (0..n).collect::<Vec<_>>());
            prop_assert!(is_subset(&s, &(0..n).collect::<Vec<_>>()));
        }
    }

    /// Admissible configurations expose consistent quorum arithmetic; Lemma-1
    /// violations are always rejected.
    #[test]
    fn config_invariants(n in 1usize..50, f in 0usize..30) {
        match SystemConfig::new(n, f) {
            Ok(cfg) => {
                prop_assert!(2 * f < n, "Lemma 1 violated by accepted config");
                prop_assert_eq!(cfg.honest_quorum(), n - f);
                prop_assert_eq!(cfg.redundancy_quorum(), n - 2 * f);
                prop_assert!(cfg.honest_quorum() > cfg.f());
                prop_assert_eq!(cfg.supports_peer_to_peer(), 3 * f < n);
            }
            Err(_) => prop_assert!(n == 0 || 2 * f >= n),
        }
    }

    /// Every (n−f)-subset pair overlaps in at least n−2f agents — the
    /// counting fact behind the redundancy quorum.
    #[test]
    fn quorum_intersections(n in 2usize..9, f in 0usize..4) {
        prop_assume!(2 * f < n);
        let quorums = k_subsets(n, n - f);
        for a in &quorums {
            for b in &quorums {
                let overlap = a.iter().filter(|x| b.contains(x)).count();
                prop_assert!(overlap >= n - 2 * f);
            }
        }
    }
}

//! Enumeration of k-element subsets.
//!
//! The paper's definitions quantify over all subsets `S` with `|S| = n − f`
//! and all `Ŝ ⊆ S` with `|Ŝ| = n − 2f` (Definitions 2 and 3), and the exact
//! algorithm of Theorem 2 enumerates the same families. This module provides
//! a lexicographic k-subset iterator shared by the redundancy measurement,
//! the exact algorithm, and the convexity analysis.

/// Iterator over all `k`-element subsets of `{0, …, n−1}` in lexicographic
/// order. Each item is a sorted index vector.
///
/// # Example
///
/// ```
/// use abft_core::subsets::KSubsets;
///
/// let all: Vec<Vec<usize>> = KSubsets::new(4, 2).collect();
/// assert_eq!(all.len(), 6); // C(4, 2)
/// assert_eq!(all[0], vec![0, 1]);
/// assert_eq!(all[5], vec![2, 3]);
/// ```
#[derive(Debug, Clone)]
pub struct KSubsets {
    n: usize,
    k: usize,
    current: Option<Vec<usize>>,
}

impl KSubsets {
    /// Creates the iterator. Yields nothing when `k > n`; yields the single
    /// empty subset when `k == 0`.
    pub fn new(n: usize, k: usize) -> Self {
        let current = if k <= n { Some((0..k).collect()) } else { None };
        KSubsets { n, k, current }
    }
}

impl Iterator for KSubsets {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        let current = self.current.take()?;
        // The rightmost position that can still be incremented (position
        // `i` holds at most `n − k + i`); it and every position after it
        // then count up from its old value plus one. None: exhausted.
        let limit = self.n - self.k;
        let mut positions = current.iter().enumerate().rev();
        if let Some((i, &value)) = positions.find(|&(i, &value)| value < limit + i) {
            let mut next = current.clone();
            for (slot, value) in next.iter_mut().skip(i).zip(value + 1..) {
                *slot = value;
            }
            self.current = Some(next);
        }
        Some(current)
    }
}

/// Collects all `k`-element subsets of `{0, …, n−1}`.
///
/// Prefer the iterator [`KSubsets`] in hot paths; this allocates the full
/// family up front.
pub fn k_subsets(n: usize, k: usize) -> Vec<Vec<usize>> {
    KSubsets::new(n, k).collect()
}

/// All `k`-element subsets of an arbitrary (sorted or unsorted) ground set,
/// preserving the ground set's element order within each subset.
pub fn k_subsets_of(ground: &[usize], k: usize) -> Vec<Vec<usize>> {
    KSubsets::new(ground.len(), k)
        .map(|positions| positions.iter().map(|&p| ground[p]).collect())
        .collect()
}

/// The complement of `subset` within `{0, …, n−1}`. `subset` must be sorted.
pub fn complement(n: usize, subset: &[usize]) -> Vec<usize> {
    debug_assert!(
        subset.windows(2).all(|w| w[0] < w[1]),
        "subset must be sorted"
    );
    let mut out = Vec::with_capacity(n - subset.len());
    let mut it = subset.iter().peekable();
    for i in 0..n {
        if it.peek() == Some(&&i) {
            it.next();
        } else {
            out.push(i);
        }
    }
    out
}

/// `true` when sorted slice `sub` is a subset of sorted slice `sup`.
pub fn is_subset(sub: &[usize], sup: &[usize]) -> bool {
    let mut it = sup.iter();
    'outer: for x in sub {
        for y in it.by_ref() {
            if y == x {
                continue 'outer;
            }
            if y > x {
                return false;
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumerates_choose_2_of_4() {
        let all = k_subsets(4, 2);
        assert_eq!(
            all,
            vec![
                vec![0, 1],
                vec![0, 2],
                vec![0, 3],
                vec![1, 2],
                vec![1, 3],
                vec![2, 3],
            ]
        );
    }

    #[test]
    fn edge_cases() {
        assert_eq!(k_subsets(3, 0), vec![Vec::<usize>::new()]);
        assert_eq!(k_subsets(3, 3), vec![vec![0, 1, 2]]);
        assert!(k_subsets(2, 3).is_empty());
        assert_eq!(k_subsets(0, 0), vec![Vec::<usize>::new()]);
    }

    #[test]
    fn counts_match_binomial() {
        assert_eq!(k_subsets(6, 5).len(), 6); // C(6,5): the paper's |S| = n−f sets
        assert_eq!(k_subsets(6, 4).len(), 15); // C(6,4): the |Ŝ| = n−2f sets
        assert_eq!(k_subsets(10, 3).len(), 120);
    }

    #[test]
    fn subsets_of_ground_set() {
        let ground = vec![2, 5, 9];
        let subs = k_subsets_of(&ground, 2);
        assert_eq!(subs, vec![vec![2, 5], vec![2, 9], vec![5, 9]]);
    }

    #[test]
    fn complement_partitions() {
        assert_eq!(complement(5, &[1, 3]), vec![0, 2, 4]);
        assert_eq!(complement(3, &[]), vec![0, 1, 2]);
        assert_eq!(complement(3, &[0, 1, 2]), Vec::<usize>::new());
    }

    #[test]
    fn subset_relation() {
        assert!(is_subset(&[1, 3], &[0, 1, 2, 3]));
        assert!(is_subset(&[], &[0]));
        assert!(!is_subset(&[4], &[0, 1, 2, 3]));
        assert!(!is_subset(&[0, 1], &[1, 2]));
    }

    #[test]
    fn every_emitted_subset_is_sorted_and_unique() {
        let all = k_subsets(7, 3);
        for s in &all {
            assert!(s.windows(2).all(|w| w[0] < w[1]));
        }
        let mut dedup = all.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
    }
}

//! Permutation enumeration and unbiased sampling.
//!
//! The RAGE paper contrasts a naive `O(k!)` permutation sampler (generate every
//! permutation, then sample) with an `O(k·s)` sampler that invokes the Fisher–Yates
//! shuffle `s` times. The latter is implemented here, together with full enumeration
//! (Heap's algorithm) and the similarity-ordered enumeration of the permutation
//! counterfactual search.

use rand::seq::SliceRandom;
use rand::Rng;

/// Iterator over all permutations of `0..n` using Heap's algorithm.
///
/// The first yielded permutation is the identity; the full sequence contains `n!`
/// distinct permutations.
#[derive(Debug, Clone)]
pub struct PermutationIter {
    items: Vec<usize>,
    stack: Vec<usize>,
    i: usize,
    first: bool,
    done: bool,
}

impl PermutationIter {
    /// Create an iterator over the permutations of `0..n`.
    pub fn new(n: usize) -> Self {
        Self {
            items: (0..n).collect(),
            stack: vec![0; n],
            i: 0,
            first: true,
            done: false,
        }
    }
}

impl Iterator for PermutationIter {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        if self.first {
            self.first = false;
            if self.items.is_empty() {
                self.done = true;
                return Some(Vec::new());
            }
            return Some(self.items.clone());
        }
        let n = self.items.len();
        while self.i < n {
            if self.stack[self.i] < self.i {
                if self.i.is_multiple_of(2) {
                    self.items.swap(0, self.i);
                } else {
                    self.items.swap(self.stack[self.i], self.i);
                }
                self.stack[self.i] += 1;
                self.i = 0;
                return Some(self.items.clone());
            } else {
                self.stack[self.i] = 0;
                self.i += 1;
            }
        }
        self.done = true;
        None
    }
}

/// In-place unbiased Fisher–Yates shuffle of a slice, using the provided RNG.
///
/// Runs in `O(n)` time and produces every permutation with equal probability, which is
/// the property the paper relies on for its `O(k·s)` permutation sampler.
pub fn fisher_yates_shuffle<T, R: Rng + ?Sized>(items: &mut [T], rng: &mut R) {
    // `SliceRandom::shuffle` is the modern Fisher–Yates ("Durstenfeld") algorithm; we
    // keep an explicit wrapper so the algorithmic provenance is visible at call sites.
    items.shuffle(rng);
}

/// Draw `s` independent uniformly-random permutations of `0..k` in `O(k·s)` time.
///
/// This is the efficient sampler of §II-C.
pub fn sample_permutations<R: Rng + ?Sized>(k: usize, s: usize, rng: &mut R) -> Vec<Vec<usize>> {
    (0..s)
        .map(|_| {
            let mut perm: Vec<usize> = (0..k).collect();
            fisher_yates_shuffle(&mut perm, rng);
            perm
        })
        .collect()
}

/// Lazy enumeration of the permutations of `0..k` in order of decreasing similarity to
/// the identity (i.e. increasing inversion count / decreasing Kendall's tau), starting
/// with the identity itself.
///
/// This is the enumeration order of RAGE's permutation counterfactual search: the most
/// similar reorderings are evaluated first. Within one inversion level (equal tau) the
/// order is lexicographic, which keeps the search deterministic.
///
/// The enumeration is breadth-first over inversion levels: every permutation with `m+1`
/// inversions is reachable from some permutation with `m` inversions by swapping one
/// adjacent ascending pair, so level-by-level expansion with deduplication visits each
/// permutation exactly once and never skips a level. Unlike a full materialisation, the
/// iterator only ever holds the **frontier** (the current inversion level, plus the
/// next one while expanding) — consumers that stop early, like a budgeted
/// counterfactual search, never pay for the deeper levels, and nothing retains the
/// already-yielded prefix. Peak memory is the widest visited level instead of the whole
/// `k!` enumeration.
#[derive(Debug, Clone)]
pub struct SimilarityPermutations {
    k: usize,
    /// The current inversion level, lexicographically sorted.
    level: Vec<Vec<usize>>,
    /// Next index within `level` to yield.
    pos: usize,
}

impl SimilarityPermutations {
    /// Start the enumeration at the identity permutation of `0..k`.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            level: vec![(0..k).collect()],
            pos: 0,
        }
    }

    /// Expand the current level into the next inversion level. Returns `false` when the
    /// enumeration is exhausted (the current level is the reverse-sorted permutation).
    fn advance_level(&mut self) -> bool {
        use std::collections::BTreeSet;

        let mut next: BTreeSet<Vec<usize>> = BTreeSet::new();
        for perm in &self.level {
            for i in 0..self.k.saturating_sub(1) {
                if perm[i] < perm[i + 1] {
                    let mut swapped = perm.clone();
                    swapped.swap(i, i + 1);
                    next.insert(swapped);
                }
            }
        }
        if next.is_empty() {
            return false;
        }
        self.level = next.into_iter().collect();
        self.pos = 0;
        true
    }
}

impl Iterator for SimilarityPermutations {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos == self.level.len() && !self.advance_level() {
            return None;
        }
        let item = self.level[self.pos].clone();
        self.pos += 1;
        Some(item)
    }
}

/// Check that `perm` is a valid permutation of `0..n`.
pub fn is_permutation(perm: &[usize], n: usize) -> bool {
    if perm.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    for &p in perm {
        if p >= n || seen[p] {
            return false;
        }
        seen[p] = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numeric::factorial;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    /// The first `limit` permutations in similarity order.
    fn by_similarity(k: usize, limit: usize) -> Vec<Vec<usize>> {
        SimilarityPermutations::new(k).take(limit).collect()
    }

    #[test]
    fn enumerates_all_permutations() {
        for n in 0..7usize {
            let perms: Vec<_> = PermutationIter::new(n).collect();
            assert_eq!(perms.len() as u128, factorial(n), "n={n}");
            let unique: HashSet<_> = perms.iter().cloned().collect();
            assert_eq!(unique.len(), perms.len(), "all permutations distinct");
            assert!(perms.iter().all(|p| is_permutation(p, n)));
        }
    }

    #[test]
    fn first_permutation_is_identity() {
        let mut it = PermutationIter::new(4);
        assert_eq!(it.next().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_permutation() {
        let perms: Vec<_> = PermutationIter::new(0).collect();
        assert_eq!(perms, vec![Vec::<usize>::new()]);
    }

    #[test]
    fn fisher_yates_produces_valid_permutations() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let mut items: Vec<usize> = (0..10).collect();
            fisher_yates_shuffle(&mut items, &mut rng);
            assert!(is_permutation(&items, 10));
        }
    }

    #[test]
    fn fisher_yates_is_unbiased_enough() {
        // Chi-square style sanity check: over many shuffles of 3 elements each of the
        // 6 permutations should appear roughly 1/6 of the time.
        let mut rng = StdRng::seed_from_u64(42);
        let trials = 6000;
        let mut counts: std::collections::HashMap<Vec<usize>, usize> =
            std::collections::HashMap::new();
        for _ in 0..trials {
            let mut items: Vec<usize> = vec![0, 1, 2];
            fisher_yates_shuffle(&mut items, &mut rng);
            *counts.entry(items).or_insert(0) += 1;
        }
        assert_eq!(counts.len(), 6);
        for &count in counts.values() {
            let frequency = count as f64 / trials as f64;
            assert!(
                (frequency - 1.0 / 6.0).abs() < 0.03,
                "frequency {frequency}"
            );
        }
    }

    #[test]
    fn sample_permutations_counts_and_validity() {
        let mut rng = StdRng::seed_from_u64(3);
        let sample = sample_permutations(8, 25, &mut rng);
        assert_eq!(sample.len(), 25);
        assert!(sample.iter().all(|p| is_permutation(p, 8)));
    }

    #[test]
    fn sampling_zero_or_degenerate() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(sample_permutations(5, 0, &mut rng).is_empty());
        let single = sample_permutations(1, 3, &mut rng);
        assert_eq!(single, vec![vec![0], vec![0], vec![0]]);
        let empty = sample_permutations(0, 2, &mut rng);
        assert_eq!(empty, vec![Vec::<usize>::new(), Vec::<usize>::new()]);
    }

    #[test]
    fn similarity_enumeration_starts_with_identity_and_is_monotone() {
        let perms = by_similarity(5, 40);
        assert_eq!(perms[0], vec![0, 1, 2, 3, 4]);
        assert_eq!(perms.len(), 40);
        let inversion_counts: Vec<u64> = perms
            .iter()
            .map(|p| crate::kendall::kendall_tau_distance(p))
            .collect();
        assert!(inversion_counts.windows(2).all(|w| w[0] <= w[1]));
        // The first level after the identity contains exactly the k-1 adjacent swaps.
        assert!(inversion_counts[1..5].iter().all(|&c| c == 1));
        assert_eq!(inversion_counts[5], 2);
    }

    #[test]
    fn similarity_enumeration_covers_everything_when_unbounded() {
        for k in 0..6usize {
            let perms = by_similarity(k, 1000);
            assert_eq!(perms.len() as u128, factorial(k));
            let unique: HashSet<_> = perms.iter().cloned().collect();
            assert_eq!(unique.len(), perms.len());
        }
    }

    #[test]
    fn similarity_enumeration_respects_limit() {
        assert_eq!(by_similarity(6, 10).len(), 10);
        assert!(by_similarity(4, 0).is_empty());
        assert_eq!(by_similarity(0, 5), vec![Vec::<usize>::new()]);
    }

    #[test]
    fn is_permutation_rejects_invalid() {
        assert!(is_permutation(&[0, 1, 2], 3));
        assert!(!is_permutation(&[0, 1, 1], 3));
        assert!(!is_permutation(&[0, 1, 3], 3));
        assert!(!is_permutation(&[0, 1], 3));
    }
}

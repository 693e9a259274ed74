//! Combination (subset) iteration.
//!
//! The combination counterfactual search of the RAGE paper evaluates candidate subsets
//! "in increasing order of subset size", breaking ties between equal-size subsets by
//! their estimated relevance. [`CombinationIter`] provides the lexicographic k-subset
//! enumeration of one size class; `rage-core` walks the sizes in increasing order and
//! sorts each class by relevance before evaluating it.

/// Iterator over all k-element subsets of `{0, 1, .., n-1}` in lexicographic order.
#[derive(Debug, Clone)]
pub struct CombinationIter {
    n: usize,
    k: usize,
    current: Option<Vec<usize>>,
}

impl CombinationIter {
    /// Create an iterator over the `C(n, k)` subsets of size `k`.
    pub fn new(n: usize, k: usize) -> Self {
        let current = if k <= n { Some((0..k).collect()) } else { None };
        Self { n, k, current }
    }
}

impl Iterator for CombinationIter {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Self::Item> {
        let current = self.current.clone()?;
        // Compute the successor before returning the current subset.
        let mut next = current.clone();
        let mut i = self.k;
        loop {
            if i == 0 {
                self.current = None;
                break;
            }
            i -= 1;
            if next[i] < self.n - (self.k - i) {
                next[i] += 1;
                for j in i + 1..self.k {
                    next[j] = next[j - 1] + 1;
                }
                self.current = Some(next);
                break;
            }
        }
        Some(current)
    }
}

/// The complement of a subset of `{0, .., n-1}` (indices not present in `subset`).
///
/// `subset` must be sorted ascending; the result is sorted ascending too.
pub fn complement(n: usize, subset: &[usize]) -> Vec<usize> {
    let mut result = Vec::with_capacity(n - subset.len());
    let mut iter = subset.iter().copied().peekable();
    for i in 0..n {
        if iter.peek() == Some(&i) {
            iter.next();
        } else {
            result.push(i);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numeric::binomial;

    #[test]
    fn lexicographic_enumeration() {
        let combos: Vec<_> = CombinationIter::new(4, 2).collect();
        assert_eq!(
            combos,
            vec![
                vec![0, 1],
                vec![0, 2],
                vec![0, 3],
                vec![1, 2],
                vec![1, 3],
                vec![2, 3]
            ]
        );
    }

    #[test]
    fn counts_match_binomial() {
        for n in 0..9usize {
            for k in 0..=n {
                let count = CombinationIter::new(n, k).count() as u128;
                assert_eq!(count, binomial(n, k), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn k_zero_yields_single_empty_set() {
        let combos: Vec<_> = CombinationIter::new(5, 0).collect();
        assert_eq!(combos, vec![Vec::<usize>::new()]);
    }

    #[test]
    fn k_larger_than_n_is_empty() {
        assert_eq!(CombinationIter::new(3, 4).count(), 0);
    }

    #[test]
    fn size_ordered_traversal() {
        // The counterfactual search's walk: sizes in increasing order, each
        // size class lexicographic.
        let subsets: Vec<_> = (1..=3)
            .flat_map(|size| CombinationIter::new(3, size))
            .collect();
        assert_eq!(
            subsets,
            vec![
                vec![0],
                vec![1],
                vec![2],
                vec![0, 1],
                vec![0, 2],
                vec![1, 2],
                vec![0, 1, 2],
            ]
        );
    }

    #[test]
    fn size_ordered_counts() {
        // Walking every size visits each of the 2^n − 1 non-empty subsets.
        for n in 1..10usize {
            let count: usize = (1..=n)
                .map(|size| CombinationIter::new(n, size).count())
                .sum();
            assert_eq!(count as u128, (1u128 << n) - 1);
        }
    }

    #[test]
    fn empty_ground_set() {
        // One empty subset of size 0, none larger.
        assert_eq!(CombinationIter::new(0, 0).count(), 1);
        assert_eq!(CombinationIter::new(0, 1).count(), 0);
    }

    #[test]
    fn complement_partition() {
        let subset = vec![1, 3];
        let comp = complement(5, &subset);
        assert_eq!(comp, vec![0, 2, 4]);
        // Union reconstructs the ground set.
        let mut all: Vec<_> = subset.iter().chain(comp.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn complement_of_everything_and_nothing() {
        assert_eq!(complement(3, &[0, 1, 2]), Vec::<usize>::new());
        assert_eq!(complement(3, &[]), vec![0, 1, 2]);
    }
}

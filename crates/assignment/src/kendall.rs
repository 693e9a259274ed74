//! Kendall's tau rank correlation.
//!
//! RAGE's permutation counterfactual search sorts candidate permutations by decreasing
//! Kendall's tau with respect to the original context order, so that the most similar
//! reorderings are evaluated first. Two implementations are provided: a direct `O(k²)`
//! pair count (`kendall_tau_naive`) and an `O(k log k)` merge-sort inversion counter
//! (`kendall_tau`); they agree exactly on permutations and are cross-checked by tests.

/// Number of discordant pairs (inversions) between a permutation and the identity.
///
/// Counted with a merge-sort in `O(k log k)`.
pub fn inversions(perm: &[usize]) -> u64 {
    fn merge_count(data: &mut Vec<usize>, buf: &mut Vec<usize>, lo: usize, hi: usize) -> u64 {
        if hi - lo <= 1 {
            return 0;
        }
        let mid = (lo + hi) / 2;
        let mut count = merge_count(data, buf, lo, mid) + merge_count(data, buf, mid, hi);
        buf.clear();
        let (mut i, mut j) = (lo, mid);
        while i < mid && j < hi {
            if data[i] <= data[j] {
                buf.push(data[i]);
                i += 1;
            } else {
                // data[i..mid] are all greater than data[j]: each forms an inversion.
                count += (mid - i) as u64;
                buf.push(data[j]);
                j += 1;
            }
        }
        buf.extend_from_slice(&data[i..mid]);
        buf.extend_from_slice(&data[j..hi]);
        data[lo..hi].copy_from_slice(buf);
        count
    }

    let mut data = perm.to_vec();
    let mut buf = Vec::with_capacity(data.len());
    let len = data.len();
    merge_count(&mut data, &mut buf, 0, len)
}

/// Kendall's tau between a permutation of `0..k` and the identity permutation.
///
/// Returns a value in `[-1, 1]`: `1` for the identity, `-1` for the full reversal.
/// For `k < 2` the correlation is defined as `1.0` (there are no pairs to discord).
pub fn kendall_tau(perm: &[usize]) -> f64 {
    let k = perm.len();
    if k < 2 {
        return 1.0;
    }
    let total_pairs = (k * (k - 1) / 2) as f64;
    let discordant = inversions(perm) as f64;
    let concordant = total_pairs - discordant;
    (concordant - discordant) / total_pairs
}

/// Kendall tau *distance*: the number of discordant pairs between a permutation and the
/// identity (0 = identical order, `k·(k−1)/2` = reversed).
pub fn kendall_tau_distance(perm: &[usize]) -> u64 {
    inversions(perm)
}

/// Reference `O(k²)` implementation used to validate [`kendall_tau`].
pub fn kendall_tau_naive(perm: &[usize]) -> f64 {
    let k = perm.len();
    if k < 2 {
        return 1.0;
    }
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    for i in 0..k {
        for j in i + 1..k {
            if perm[i] < perm[j] {
                concordant += 1;
            } else {
                discordant += 1;
            }
        }
    }
    (concordant - discordant) as f64 / (concordant + discordant) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::permutations::PermutationIter;

    #[test]
    fn identity_has_tau_one() {
        assert_eq!(kendall_tau(&[0, 1, 2, 3, 4]), 1.0);
        assert_eq!(kendall_tau_distance(&[0, 1, 2, 3, 4]), 0);
    }

    #[test]
    fn reversal_has_tau_minus_one() {
        assert_eq!(kendall_tau(&[4, 3, 2, 1, 0]), -1.0);
        assert_eq!(kendall_tau_distance(&[4, 3, 2, 1, 0]), 10);
    }

    #[test]
    fn single_swap_of_adjacent_items() {
        // One discordant pair out of 10: tau = (9 - 1) / 10 = 0.8.
        assert!((kendall_tau(&[1, 0, 2, 3, 4]) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn degenerate_lengths() {
        assert_eq!(kendall_tau(&[]), 1.0);
        assert_eq!(kendall_tau(&[0]), 1.0);
    }

    #[test]
    fn fast_matches_naive_on_all_small_permutations() {
        for n in 2..7usize {
            for perm in PermutationIter::new(n) {
                let fast = kendall_tau(&perm);
                let naive = kendall_tau_naive(&perm);
                assert!((fast - naive).abs() < 1e-12, "perm {perm:?}");
            }
        }
    }

    #[test]
    fn tau_is_bounded() {
        for perm in PermutationIter::new(6) {
            let tau = kendall_tau(&perm);
            assert!((-1.0..=1.0).contains(&tau));
        }
    }

    #[test]
    fn inversions_of_known_sequences() {
        assert_eq!(inversions(&[0, 1, 2]), 0);
        assert_eq!(inversions(&[2, 1, 0]), 3);
        assert_eq!(inversions(&[1, 3, 0, 2]), 3);
    }
}

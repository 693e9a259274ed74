//! Property-style tests for the combinatorics substrate: the fast algorithms
//! must agree with their brute-force counterparts on randomly generated
//! instances, and the rank-correlation primitives must satisfy their
//! mathematical invariants.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use rage_assignment::hungarian::{brute_force_assignment, solve_assignment, CostMatrix};
use rage_assignment::kbest::{brute_force_k_best, k_best_assignments};
use rage_assignment::kendall::{kendall_tau, kendall_tau_naive};
use rage_assignment::numeric::factorial;
use rage_assignment::permutations::is_permutation;

fn random_matrix(rng: &mut StdRng, n: usize, lo: f64, hi: f64) -> CostMatrix {
    CostMatrix::from_fn(n, |_, _| rng.gen_range(lo..hi))
}

fn random_permutation(rng: &mut StdRng, n: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    perm.shuffle(rng);
    perm
}

#[test]
fn hungarian_equals_brute_force_minimum_on_random_matrices() {
    let mut rng = StdRng::seed_from_u64(0xA55A);
    for n in 1..=6usize {
        for case in 0..25 {
            let costs = random_matrix(&mut rng, n, -25.0, 25.0);
            let fast = solve_assignment(&costs);
            let brute = brute_force_assignment(&costs);
            assert!(is_permutation(&fast.assignment, n), "n={n} case={case}");
            assert!(
                (fast.total - brute.total).abs() < 1e-9,
                "n={n} case={case}: hungarian {} vs brute force {}",
                fast.total,
                brute.total
            );
        }
    }
}

#[test]
fn k_best_costs_are_non_decreasing() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for n in 2..=6usize {
        let costs = random_matrix(&mut rng, n, 0.0, 100.0);
        let s = 50.min(factorial(n) as usize);
        let ranked = k_best_assignments(&costs, s);
        assert_eq!(ranked.len(), s, "n={n}");
        for (i, pair) in ranked.windows(2).enumerate() {
            assert!(
                pair[0].total <= pair[1].total + 1e-9,
                "n={n}: rank {i} cost {} > rank {} cost {}",
                pair[0].total,
                i + 1,
                pair[1].total
            );
        }
        // All returned assignments are valid and distinct.
        let mut seen = std::collections::HashSet::new();
        for a in &ranked {
            assert!(is_permutation(&a.assignment, n));
            assert!(seen.insert(a.assignment.clone()), "duplicate assignment");
        }
    }
}

#[test]
fn k_best_agrees_with_brute_force_ranking() {
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    for n in 2..=5usize {
        for _ in 0..10 {
            let costs = random_matrix(&mut rng, n, -10.0, 10.0);
            let s = 12.min(factorial(n) as usize);
            let ranked = k_best_assignments(&costs, s);
            let brute = brute_force_k_best(&costs, s);
            assert_eq!(ranked.len(), brute.len(), "n={n}");
            for (r, b) in ranked.iter().zip(brute.iter()) {
                assert!((r.total - b.total).abs() < 1e-9, "n={n}");
            }
        }
    }
}

#[test]
fn kendall_tau_is_symmetric() {
    // The correlation of two rankings does not depend on which one is the
    // reference: a permutation and its inverse have the same tau.
    let mut rng = StdRng::seed_from_u64(0xF00D);
    for n in 2..=8usize {
        for _ in 0..20 {
            let perm = random_permutation(&mut rng, n);
            let mut inverse = vec![0; n];
            for (position, &item) in perm.iter().enumerate() {
                inverse[item] = position;
            }
            let forward = kendall_tau(&perm);
            let backward = kendall_tau(&inverse);
            assert_eq!(forward, backward, "tau({perm:?}) != tau({inverse:?})");
        }
    }
}

#[test]
fn kendall_tau_is_bounded_and_extremal_at_the_extremes() {
    let mut rng = StdRng::seed_from_u64(0xFACE);
    for n in 2..=9usize {
        let identity: Vec<usize> = (0..n).collect();
        let reversed: Vec<usize> = (0..n).rev().collect();
        assert_eq!(kendall_tau(&identity), 1.0);
        assert_eq!(kendall_tau(&reversed), -1.0);
        for _ in 0..20 {
            let perm = random_permutation(&mut rng, n);
            let tau = kendall_tau(&perm);
            assert!((-1.0..=1.0).contains(&tau), "tau({perm:?}) = {tau}");
            // The fast inversion counter agrees with the O(k²) definition.
            assert!((tau - kendall_tau_naive(&perm)).abs() < 1e-12);
        }
    }
}

/// The original breadth-first materialisation of the similarity enumeration,
/// kept verbatim as the oracle for the lazy frontier iterator.
fn materialised_permutations_by_similarity(k: usize, limit: usize) -> Vec<Vec<usize>> {
    use std::collections::BTreeSet;

    if limit == 0 {
        return Vec::new();
    }
    let identity: Vec<usize> = (0..k).collect();
    let mut result = vec![identity.clone()];
    let mut current_level: BTreeSet<Vec<usize>> = BTreeSet::new();
    current_level.insert(identity);

    while result.len() < limit {
        let mut next_level: BTreeSet<Vec<usize>> = BTreeSet::new();
        for perm in &current_level {
            for i in 0..k.saturating_sub(1) {
                if perm[i] < perm[i + 1] {
                    let mut swapped = perm.clone();
                    swapped.swap(i, i + 1);
                    next_level.insert(swapped);
                }
            }
        }
        if next_level.is_empty() {
            break;
        }
        for perm in &next_level {
            if result.len() >= limit {
                break;
            }
            result.push(perm.clone());
        }
        current_level = next_level;
    }
    result
}

#[test]
fn lazy_similarity_iterator_matches_materialised_enumeration() {
    use rage_assignment::permutations::SimilarityPermutations;

    for k in 0..=8usize {
        // Everything for small k; a deep prefix (past several inversion
        // levels) for k = 7 and 8, where the full k! materialisation is what
        // the iterator exists to avoid.
        let total = factorial(k) as usize;
        let prefixes: &[usize] = if k <= 6 {
            &[0, 1, 2, 5, usize::MAX]
        } else {
            &[0, 1, 17, 500, 2000]
        };
        for &prefix in prefixes {
            let n = prefix.min(total);
            let lazy: Vec<Vec<usize>> = SimilarityPermutations::new(k).take(n).collect();
            let oracle = materialised_permutations_by_similarity(k, n);
            assert_eq!(lazy, oracle, "k={k} n={n}");
        }
    }
}

#[test]
fn lazy_similarity_iterator_is_fused_with_take_and_resumable() {
    use rage_assignment::permutations::SimilarityPermutations;

    // Splitting one enumeration across multiple take() calls must agree with
    // one uninterrupted enumeration — the search windows its consumption.
    let mut windowed = SimilarityPermutations::new(6);
    let mut collected = Vec::new();
    for window in [1usize, 3, 8, 17, 40] {
        collected.extend(windowed.by_ref().take(window));
    }
    let oracle = materialised_permutations_by_similarity(6, collected.len());
    assert_eq!(collected, oracle);
}

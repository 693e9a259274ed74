//! Kuhn–Munkres (Hungarian) optimal assignment in `O(k³)`.
//!
//! RAGE's "optimal permutations" feature assigns `k` sources to `k` context positions so
//! that the total `relevance × expected-position-attention` is maximised. That is an
//! instance of the linear assignment problem; this module solves it with the classic
//! shortest-augmenting-path formulation of the Hungarian algorithm using row/column
//! potentials.

use serde::{Deserialize, Serialize};

/// Sentinel cost for forbidden cells. Kept large but finite so the potential-based
/// algorithm stays numerically well behaved; feasibility is checked after solving.
pub const FORBIDDEN: f64 = 1.0e15;

/// A square cost (or profit) matrix stored row-major.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostMatrix {
    n: usize,
    data: Vec<f64>,
}

impl CostMatrix {
    /// Create an `n × n` matrix filled with `value`.
    pub fn filled(n: usize, value: f64) -> Self {
        Self {
            n,
            data: vec![value; n * n],
        }
    }

    /// Build from a row-major slice of length `n²`.
    pub fn from_rows(n: usize, rows: &[f64]) -> Self {
        assert_eq!(rows.len(), n * n, "cost matrix must be n x n");
        Self {
            n,
            data: rows.to_vec(),
        }
    }

    /// Build from a function of `(row, column)`.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(n * n);
        for r in 0..n {
            for c in 0..n {
                data.push(f(r, c));
            }
        }
        Self { n, data }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Cost of assigning row `r` to column `c`.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.n + c]
    }

    /// Overwrite one cell.
    pub fn set(&mut self, r: usize, c: usize, value: f64) {
        self.data[r * self.n + c] = value;
    }

    /// Negate every entry (turns a maximisation profit matrix into a minimisation one).
    pub fn negated(&self) -> Self {
        Self {
            n: self.n,
            data: self.data.iter().map(|v| -v).collect(),
        }
    }
}

/// The result of an assignment solve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Assignment {
    /// `assignment[r]` is the column assigned to row `r`.
    pub assignment: Vec<usize>,
    /// Total cost (for [`solve_assignment`]) or total profit (for
    /// [`k_best_max_assignments`](crate::kbest::k_best_max_assignments)).
    pub total: f64,
}

impl Assignment {
    /// Whether any forbidden cell participates in the assignment.
    pub fn uses_forbidden(&self, costs: &CostMatrix) -> bool {
        self.assignment
            .iter()
            .enumerate()
            .any(|(r, &c)| costs.get(r, c) >= FORBIDDEN / 2.0)
    }
}

/// Solve the minimum-cost assignment problem for a square cost matrix.
///
/// Runs the shortest-augmenting-path Hungarian algorithm with potentials in `O(n³)`.
pub fn solve_assignment(costs: &CostMatrix) -> Assignment {
    let n = costs.n;
    if n == 0 {
        return Assignment {
            assignment: Vec::new(),
            total: 0.0,
        };
    }

    // 1-indexed potentials and matchings, following the classic formulation.
    let mut u = vec![0.0f64; n + 1];
    let mut v = vec![0.0f64; n + 1];
    // p[j] = row matched to column j (0 = unmatched); p[0] is the row being inserted.
    let mut p = vec![0usize; n + 1];
    let mut way = vec![0usize; n + 1];

    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![f64::INFINITY; n + 1];
        let mut used = vec![false; n + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = f64::INFINITY;
            let mut j1 = 0usize;
            for j in 1..=n {
                if used[j] {
                    continue;
                }
                let cur = costs.get(i0 - 1, j - 1) - u[i0] - v[j];
                if cur < minv[j] {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if minv[j] < delta {
                    delta = minv[j];
                    j1 = j;
                }
            }
            for j in 0..=n {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        // Augment along the alternating path.
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    let mut assignment = vec![0usize; n];
    for j in 1..=n {
        if p[j] > 0 {
            assignment[p[j] - 1] = j - 1;
        }
    }
    let total = assignment
        .iter()
        .enumerate()
        .map(|(r, &c)| costs.get(r, c))
        .sum();
    Assignment { assignment, total }
}

/// Brute-force minimum-cost assignment by enumerating all `n!` permutations.
///
/// Only used by tests and the naive baseline of experiment E6.
pub fn brute_force_assignment(costs: &CostMatrix) -> Assignment {
    let n = costs.n;
    let mut best: Option<Assignment> = None;
    for perm in crate::permutations::PermutationIter::new(n) {
        let total: f64 = perm.iter().enumerate().map(|(r, &c)| costs.get(r, c)).sum();
        if best.as_ref().is_none_or(|b| total < b.total) {
            best = Some(Assignment {
                assignment: perm,
                total,
            });
        }
    }
    best.unwrap_or(Assignment {
        assignment: Vec::new(),
        total: 0.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kbest::k_best_max_assignments;

    fn is_valid_assignment(a: &Assignment, n: usize) -> bool {
        crate::permutations::is_permutation(&a.assignment, n)
    }

    #[test]
    fn solves_hand_computed_example() {
        // Classic 3x3 example: optimal assignment is (0->1), (1->0), (2->2) with cost 5.
        let costs = CostMatrix::from_rows(3, &[4.0, 1.0, 3.0, 2.0, 0.0, 5.0, 3.0, 2.0, 2.0]);
        let solution = solve_assignment(&costs);
        assert!(is_valid_assignment(&solution, 3));
        assert_eq!(solution.total, 5.0);
    }

    #[test]
    fn identity_optimal_when_diagonal_is_cheapest() {
        let costs = CostMatrix::from_fn(4, |r, c| if r == c { 0.0 } else { 10.0 });
        let solution = solve_assignment(&costs);
        assert_eq!(solution.assignment, vec![0, 1, 2, 3]);
        assert_eq!(solution.total, 0.0);
    }

    #[test]
    fn matches_brute_force_on_random_matrices() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for n in 1..=6usize {
            for _ in 0..20 {
                let costs = CostMatrix::from_fn(n, |_, _| rng.gen_range(-10.0..10.0));
                let fast = solve_assignment(&costs);
                let brute = brute_force_assignment(&costs);
                assert!(is_valid_assignment(&fast, n));
                assert!(
                    (fast.total - brute.total).abs() < 1e-9,
                    "n={n} fast={} brute={}",
                    fast.total,
                    brute.total
                );
            }
        }
    }

    #[test]
    fn max_assignment_picks_largest_profits() {
        let profits = CostMatrix::from_rows(2, &[5.0, 1.0, 2.0, 4.0]);
        let solution = k_best_max_assignments(&profits, 1).remove(0);
        assert_eq!(solution.assignment, vec![0, 1]);
        assert_eq!(solution.total, 9.0);
    }

    #[test]
    fn max_assignment_matches_negated_min() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let profits = CostMatrix::from_fn(5, |_, _| rng.gen_range(0.0..100.0));
            let max = k_best_max_assignments(&profits, 1).remove(0);
            let brute = brute_force_assignment(&profits.negated());
            assert!((max.total + brute.total).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_matrix() {
        let solution = solve_assignment(&CostMatrix::filled(0, 0.0));
        assert!(solution.assignment.is_empty());
        assert_eq!(solution.total, 0.0);
    }

    #[test]
    fn single_cell() {
        let solution = solve_assignment(&CostMatrix::from_rows(1, &[7.5]));
        assert_eq!(solution.assignment, vec![0]);
        assert_eq!(solution.total, 7.5);
    }

    #[test]
    fn forbidden_cells_are_avoided_when_possible() {
        let mut costs = CostMatrix::filled(3, 1.0);
        costs.set(0, 0, FORBIDDEN);
        let solution = solve_assignment(&costs);
        assert!(is_valid_assignment(&solution, 3));
        assert_ne!(solution.assignment[0], 0);
        assert!(!solution.uses_forbidden(&costs));
    }

    #[test]
    fn infeasible_forced_structure_is_detectable() {
        // Row 0 can only take column 0, row 1 can only take column 0 as well:
        // any perfect assignment must use a forbidden cell.
        let mut costs = CostMatrix::filled(2, FORBIDDEN);
        costs.set(0, 0, 1.0);
        costs.set(1, 0, 1.0);
        let solution = solve_assignment(&costs);
        assert!(solution.uses_forbidden(&costs));
    }

    #[test]
    fn cost_matrix_accessors() {
        let mut m = CostMatrix::filled(2, 0.0);
        m.set(0, 1, 3.0);
        assert_eq!(m.get(0, 1), 3.0);
        assert_eq!(m.n(), 2);
        assert_eq!(m.negated().get(0, 1), -3.0);
    }

    #[test]
    #[should_panic(expected = "cost matrix must be n x n")]
    fn from_rows_checks_dimensions() {
        CostMatrix::from_rows(2, &[1.0, 2.0, 3.0]);
    }
}

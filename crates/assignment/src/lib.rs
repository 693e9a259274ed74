//! # rage-assignment
//!
//! Combinatorics substrate for the RAGE explanation engine.
//!
//! RAGE's perturbation searches (§II-C of the paper) are built on a handful of classic
//! combinatorial primitives, all implemented here from scratch:
//!
//! * [`combinations`] — lexicographic k-subset iteration, one size class at a time, for
//!   the combination counterfactual search.
//! * [`permutations`] — full permutation enumeration (Heap's algorithm), the
//!   similarity-ordered enumeration of the permutation counterfactual search, and the
//!   unbiased Fisher–Yates shuffle that powers the paper's `O(k·s)` permutation
//!   sampler.
//! * [`kendall`] — Kendall's tau rank-correlation coefficient, used to order candidate
//!   permutations by similarity to the original context order.
//! * [`hungarian`] — the Kuhn–Munkres `O(k³)` optimal-assignment algorithm.
//! * [`kbest`] — the s-best assignments via solution-space partitioning
//!   (Murty's scheme, the same output as the Chegireddy–Hamacher k-best perfect
//!   matchings the paper cites), giving the `O(s·k³)` optimal-permutation search.
//! * [`numeric`] — factorials and binomials with saturating overflow behaviour.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod combinations;
pub mod hungarian;
pub mod kbest;
pub mod kendall;
pub mod numeric;
pub mod permutations;

pub use combinations::CombinationIter;
pub use hungarian::{solve_assignment, Assignment};
pub use kbest::k_best_assignments;
pub use kendall::{kendall_tau, kendall_tau_distance};
pub use numeric::{binomial, factorial};
pub use permutations::{
    fisher_yates_shuffle, sample_permutations, PermutationIter, SimilarityPermutations,
};

//! Counterfactual search over combinations and permutations (§II-C).
//!
//! A *combination counterfactual* is a set of sources whose removal (top-down)
//! or retention (bottom-up) changes the model's answer; it acts as a citation
//! for the original answer. A *permutation counterfactual* is a re-ordering of
//! the full context that changes the answer; it exposes position bias.
//!
//! Both candidate spaces are exponential (`2^k` subsets, `k!` orders), so the
//! searches prune exactly the way the paper prescribes:
//!
//! * combinations are evaluated in **increasing size**, and inside one size
//!   class in **decreasing estimated relevance** (attention- or
//!   retrieval-score-based, [`ScoringMethod`]) — the sources most relevant to
//!   the answer are the most likely to flip it;
//! * permutations are evaluated in **decreasing Kendall-tau similarity** to the
//!   original order — the least disruptive re-orderings first;
//! * every search runs under a [`SearchBudget`] — an evaluation cap plus an
//!   optional monotonic [`Deadline`](crate::budget::Deadline) — checked
//!   before each candidate; the [`Evaluator`] caches and counts the
//!   underlying LLM calls (cost metric of experiment E7);
//! * with [`CounterfactualConfig::with_pruning`], the combination search may
//!   additionally *prune* candidates under a monotonicity bound: a candidate
//!   set whose superset already failed to flip the answer is assumed unable to
//!   flip it either, so the covered frontier is skipped and **counted**
//!   (reported in [`Completeness::BudgetTruncated`]) instead of evaluated.
//!   The bound is admissible only for *perturbation-monotone* models. Real
//!   models (including the simulated ranking scenarios) are not monotone — an
//!   answer can flip under a partial removal even when removing everything
//!   restores the prior answer — so pruning is opt-in, never enabled on the
//!   report or anytime paths, and its behaviour on both monotone and
//!   non-monotone evaluators is pinned by the differential suite
//!   (`crates/core/tests/differential.rs`).
//!
//! Every outcome carries a [`Completeness`] marker stating whether the search
//! resolved its whole space or was truncated by the cap, the deadline or the
//! pruning bound.

use serde::{Deserialize, Serialize};

use rage_assignment::combinations::{complement, CombinationIter};
use rage_assignment::kendall::kendall_tau;
use rage_assignment::numeric::{binomial, factorial};
use rage_assignment::permutations::SimilarityPermutations;

use crate::answer::answers_equal;
use crate::budget::{Completeness, SearchBudget};
use crate::error::RageError;
use crate::evaluator::Evaluator;
use crate::perturbation::Perturbation;
use crate::scoring::ScoringMethod;

/// Which end of the subset lattice the combination search starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SearchDirection {
    /// Start from the full context and *remove* sources: a counterfactual is a
    /// minimal removal set that changes the full-context answer.
    #[default]
    TopDown,
    /// Start from the empty context and *retain* sources: a counterfactual is a
    /// minimal retained set that changes the empty-context (prior) answer.
    BottomUp,
}

/// Configuration of the combination counterfactual search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct CounterfactualConfig {
    /// Search direction (top-down removal by default).
    pub direction: SearchDirection,
    /// Relevance estimator used to order equal-size candidates.
    pub scoring: ScoringMethod,
    /// Largest candidate set size to consider (defaults to `k`).
    pub max_size: Option<usize>,
    /// Evaluation cap and optional deadline ([`SearchBudget::UNLIMITED`] by
    /// default; the baseline answers are not counted against it).
    pub budget: SearchBudget,
    /// Enable the monotonicity pruning bound: when the lattice-maximal
    /// perturbation (remove everything for top-down, retain everything for
    /// bottom-up) already fails to flip the answer, every candidate — each a
    /// subset of it — is pruned and counted instead of evaluated.
    ///
    /// Admissible only for perturbation-monotone models; off by default and
    /// never enabled by the report or anytime paths (see the module docs).
    pub prune: bool,
}

impl CounterfactualConfig {
    /// A top-down (removal) configuration.
    pub fn top_down() -> Self {
        Self {
            direction: SearchDirection::TopDown,
            ..Self::default()
        }
    }

    /// A bottom-up (retention) configuration.
    pub fn bottom_up() -> Self {
        Self {
            direction: SearchDirection::BottomUp,
            ..Self::default()
        }
    }

    /// Set the relevance estimator (builder style).
    pub fn with_scoring(mut self, scoring: ScoringMethod) -> Self {
        self.scoring = scoring;
        self
    }

    /// Bound the number of candidate evaluations (builder style).
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.budget.max_evaluations = Some(budget);
        self
    }

    /// Attach a wall-clock deadline (builder style).
    pub fn with_deadline(mut self, deadline: crate::budget::Deadline) -> Self {
        self.budget.deadline = Some(deadline);
        self
    }

    /// Enable the monotonicity pruning bound (builder style).
    pub fn with_pruning(mut self) -> Self {
        self.prune = true;
        self
    }
}

/// Cost accounting for one search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct SearchStats {
    /// Number of candidate perturbations evaluated (cache hits included).
    pub candidates: usize,
    /// Number of *new* LLM inferences the search caused.
    pub llm_calls: usize,
}

/// A combination whose removal/retention changes the answer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CombinationCounterfactual {
    /// Context positions removed relative to the full context.
    pub removed: Vec<usize>,
    /// Context positions retained (the evaluated combination).
    pub kept: Vec<usize>,
    /// The answer being explained (full-context for top-down, empty-context
    /// for bottom-up).
    pub baseline_answer: String,
    /// The answer after the perturbation — different from the baseline.
    pub answer: String,
}

impl CombinationCounterfactual {
    /// The counterfactual's *active* positions: the removed set for top-down
    /// searches, the retained set for bottom-up searches. These are the sources
    /// the explanation cites.
    pub fn cited_positions(&self, direction: SearchDirection) -> &[usize] {
        match direction {
            SearchDirection::TopDown => &self.removed,
            SearchDirection::BottomUp => &self.kept,
        }
    }
}

/// Result of a combination counterfactual search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CombinationOutcome {
    /// The first (smallest, most relevant) counterfactual found, if any.
    pub counterfactual: Option<CombinationCounterfactual>,
    /// Whether the search stopped early because the evaluation budget (cap or
    /// deadline) ran out.
    pub exhausted_budget: bool,
    /// How completely the candidate space was resolved.
    pub completeness: Completeness,
    /// Cost accounting.
    pub stats: SearchStats,
}

/// A full-context re-ordering that changes the answer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PermutationCounterfactual {
    /// The counterfactual order: entry `p` is the context position of the
    /// source placed at prompt position `p`.
    pub order: Vec<usize>,
    /// Kendall's tau between the counterfactual order and the original one
    /// (high tau = small disruption).
    pub tau: f64,
    /// The full-context answer being explained.
    pub baseline_answer: String,
    /// The answer under the re-ordered context — different from the baseline.
    pub answer: String,
}

/// Result of a permutation counterfactual search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PermutationOutcome {
    /// The most-similar answer-changing re-ordering found, if any.
    pub counterfactual: Option<PermutationCounterfactual>,
    /// Whether the search stopped early because the evaluation budget (cap or
    /// deadline) ran out.
    pub exhausted_budget: bool,
    /// How completely the candidate space was resolved.
    pub completeness: Completeness,
    /// Cost accounting.
    pub stats: SearchStats,
}

/// Default cap on permutation candidates when no explicit budget is given
/// (6! = 720; beyond that the similarity frontier is too wide to enumerate
/// blindly and callers should set a budget).
pub const DEFAULT_PERMUTATION_BUDGET: usize = 720;

/// Search for the smallest, most relevant combination counterfactual.
///
/// Candidates are enumerated in increasing set size; equal-size candidates are
/// evaluated in decreasing estimated relevance. The search stops at the first
/// answer change, after the whole (size-bounded) space has been evaluated, or
/// when the [`SearchBudget`] (evaluation cap or deadline) runs out — the
/// returned [`CombinationOutcome::completeness`] marker distinguishes the
/// cases, and [`CombinationOutcome::exhausted_budget`] stays as the boolean
/// summary.
///
/// Candidates are evaluated one at a time, so the search never evaluates a
/// candidate past the first flip, and its cost is the same at every
/// evaluator width.
pub fn find_combination_counterfactual(
    evaluator: &Evaluator,
    config: &CounterfactualConfig,
) -> Result<CombinationOutcome, RageError> {
    let k = evaluator.k();
    let llm_calls_before = evaluator.llm_calls();
    let baseline = match config.direction {
        SearchDirection::TopDown => evaluator.full_context_answer()?,
        SearchDirection::BottomUp => evaluator.empty_context_answer()?,
    };
    let scores = config.scoring.source_scores(evaluator)?;
    let max_size = config.max_size.unwrap_or(k).min(k);

    if config.prune {
        // Monotonicity bound at the lattice-maximal perturbation: every
        // candidate set is a subset of the full removal (top-down) / full
        // retention (bottom-up), so — for a perturbation-monotone model — if
        // even that endpoint leaves the baseline answer unchanged, no candidate
        // in the frontier can flip it. The endpoint is the *other* cached
        // baseline, so the check costs at most one LLM call and no candidate
        // evaluations. Non-monotone models can defeat the bound (see the
        // module docs), which is why nothing enables it implicitly.
        let endpoint = match config.direction {
            SearchDirection::TopDown => evaluator.empty_context_answer()?,
            SearchDirection::BottomUp => evaluator.full_context_answer()?,
        };
        if answers_equal(&endpoint, &baseline) {
            let pruned: u128 = (1..=max_size).map(|size| binomial(k, size)).sum();
            let pruned = usize::try_from(pruned).unwrap_or(usize::MAX);
            return Ok(CombinationOutcome {
                counterfactual: None,
                exhausted_budget: false,
                completeness: Completeness::BudgetTruncated {
                    evaluated: 0,
                    pruned,
                },
                stats: SearchStats {
                    candidates: 0,
                    llm_calls: evaluator.llm_calls() - llm_calls_before,
                },
            });
        }
    }

    let mut candidates = 0usize;
    for size in 1..=max_size {
        // The candidate sets of this size: removal sets for top-down,
        // retained sets for bottom-up. Either way the set's relevance is the
        // sum of its members' scores, and more relevant sets go first.
        let mut sets: Vec<Vec<usize>> = CombinationIter::new(k, size).collect();
        sets.sort_by(|a, b| {
            let sa = ScoringMethod::combination_score(&scores, a);
            let sb = ScoringMethod::combination_score(&scores, b);
            sb.partial_cmp(&sa).unwrap_or(std::cmp::Ordering::Equal)
        });

        for set in sets {
            if let Some(stop) = config.budget.check(candidates) {
                return Ok(CombinationOutcome {
                    counterfactual: None,
                    exhausted_budget: true,
                    completeness: Completeness::from_stop(stop, candidates, 0),
                    stats: SearchStats {
                        candidates,
                        llm_calls: evaluator.llm_calls() - llm_calls_before,
                    },
                });
            }
            let (kept, removed) = match config.direction {
                SearchDirection::TopDown => (complement(k, &set), set),
                SearchDirection::BottomUp => {
                    let removed = complement(k, &set);
                    (set, removed)
                }
            };
            let answer = evaluator.answer_for(&Perturbation::Combination(kept.clone()))?;
            candidates += 1;
            if !answers_equal(&answer, &baseline) {
                return Ok(CombinationOutcome {
                    counterfactual: Some(CombinationCounterfactual {
                        removed,
                        kept,
                        baseline_answer: baseline,
                        answer,
                    }),
                    exhausted_budget: false,
                    completeness: Completeness::Exact,
                    stats: SearchStats {
                        candidates,
                        llm_calls: evaluator.llm_calls() - llm_calls_before,
                    },
                });
            }
        }
    }

    Ok(CombinationOutcome {
        counterfactual: None,
        exhausted_budget: false,
        completeness: Completeness::Exact,
        stats: SearchStats {
            candidates,
            llm_calls: evaluator.llm_calls() - llm_calls_before,
        },
    })
}

/// Search for the answer-changing re-ordering most similar to the original.
///
/// Candidate permutations are enumerated in decreasing Kendall-tau similarity
/// (increasing inversion count) and evaluated until the answer changes. At most
/// `budget.max_evaluations` candidates — [`DEFAULT_PERMUTATION_BUDGET`] when
/// unset — are evaluated, the budget's deadline (if any) is checked before
/// each candidate, and the identity order is not a candidate. Like
/// [`find_combination_counterfactual`], the search evaluates one candidate at
/// a time.
pub fn find_permutation_counterfactual(
    evaluator: &Evaluator,
    budget: &SearchBudget,
) -> Result<PermutationOutcome, RageError> {
    let k = evaluator.k();
    let llm_calls_before = evaluator.llm_calls();
    let baseline = evaluator.full_context_answer()?;
    let cap = budget.max_evaluations.unwrap_or(DEFAULT_PERMUTATION_BUDGET);

    // Total non-identity permutations; saturating, only compared against the
    // cap to decide whether the space (not just the budget) was exhausted.
    let space = factorial(k).saturating_sub(1);
    let limit = (cap as u128).min(space) as usize;

    // The lazy frontier iterator yields the identity first; skip it. Orders
    // are pulled one at a time, so only the iterator's current inversion
    // level is ever materialised: an early answer flip never pays for the
    // deeper levels.
    let mut candidates = 0usize;
    for order in SimilarityPermutations::new(k).skip(1).take(limit) {
        // `take(limit)` already enforces the evaluation cap, so only the
        // deadline can stop us here.
        if let Some(stop) = budget.check(candidates) {
            return Ok(PermutationOutcome {
                counterfactual: None,
                exhausted_budget: true,
                completeness: Completeness::from_stop(stop, candidates, 0),
                stats: SearchStats {
                    candidates,
                    llm_calls: evaluator.llm_calls() - llm_calls_before,
                },
            });
        }
        let answer = evaluator.answer_for(&Perturbation::Permutation(order.clone()))?;
        candidates += 1;
        if !answers_equal(&answer, &baseline) {
            let tau = kendall_tau(&order);
            return Ok(PermutationOutcome {
                counterfactual: Some(PermutationCounterfactual {
                    order,
                    tau,
                    baseline_answer: baseline,
                    answer,
                }),
                exhausted_budget: false,
                completeness: Completeness::Exact,
                stats: SearchStats {
                    candidates,
                    llm_calls: evaluator.llm_calls() - llm_calls_before,
                },
            });
        }
    }

    let exhausted_budget = (candidates as u128) < space;
    Ok(PermutationOutcome {
        counterfactual: None,
        exhausted_budget,
        completeness: if exhausted_budget {
            Completeness::BudgetTruncated {
                evaluated: candidates,
                pruned: 0,
            }
        } else {
            Completeness::Exact
        },
        stats: SearchStats {
            candidates,
            llm_calls: evaluator.llm_calls() - llm_calls_before,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Context;
    use rage_llm::{Generation, LanguageModel, LlmInput};
    use rage_retrieval::Document;
    use std::sync::Arc;
    use std::sync::Mutex;

    /// Answers with the id of the first source ("nothing" on empty context)
    /// and reports the given attention profile over the full context.
    struct FirstSourceLlm {
        attention: Vec<f64>,
        calls: Mutex<Vec<Vec<String>>>,
    }

    impl FirstSourceLlm {
        fn uniform(k: usize) -> Self {
            Self {
                attention: vec![1.0 / k as f64; k],
                calls: Mutex::new(Vec::new()),
            }
        }

        fn with_attention(attention: Vec<f64>) -> Self {
            Self {
                attention,
                calls: Mutex::new(Vec::new()),
            }
        }
    }

    impl LanguageModel for FirstSourceLlm {
        fn generate(&self, input: &LlmInput) -> Generation {
            self.calls
                .lock()
                .unwrap()
                .push(input.sources.iter().map(|s| s.id.clone()).collect());
            let answer = input
                .sources
                .first()
                .map(|s| s.id.clone())
                .unwrap_or_else(|| "nothing".to_string());
            let attention = if input.sources.len() == self.attention.len() {
                self.attention.clone()
            } else {
                vec![1.0; input.sources.len()]
            };
            Generation {
                answer: answer.clone(),
                text: answer,
                source_attention: attention,
                prompt_tokens: 1,
            }
        }
        fn name(&self) -> &str {
            "first-source"
        }
    }

    /// Always answers the same thing regardless of context.
    struct ConstantLlm;

    impl LanguageModel for ConstantLlm {
        fn generate(&self, input: &LlmInput) -> Generation {
            Generation {
                answer: "same".into(),
                text: "same".into(),
                source_attention: vec![1.0; input.sources.len()],
                prompt_tokens: 1,
            }
        }
    }

    fn context(k: usize) -> Context {
        let docs: Vec<Document> = (0..k)
            .map(|i| {
                let id = char::from(b'a' + i as u8).to_string();
                Document::new(id.clone(), "", format!("text {id}"))
            })
            .collect();
        Context::from_documents("which one?", &docs)
    }

    #[test]
    fn top_down_finds_the_first_source_removal() {
        let evaluator = Evaluator::new(Arc::new(FirstSourceLlm::uniform(3)), context(3));
        let outcome =
            find_combination_counterfactual(&evaluator, &CounterfactualConfig::top_down()).unwrap();
        let cf = outcome.counterfactual.expect("counterfactual exists");
        assert_eq!(cf.removed, vec![0]);
        assert_eq!(cf.kept, vec![1, 2]);
        assert_eq!(cf.baseline_answer, "a");
        assert_eq!(cf.answer, "b");
        assert_eq!(cf.cited_positions(SearchDirection::TopDown), &[0]);
        assert!(!outcome.exhausted_budget);
        assert!(outcome.stats.candidates >= 1);
    }

    #[test]
    fn bottom_up_finds_the_smallest_retained_set() {
        let evaluator = Evaluator::new(Arc::new(FirstSourceLlm::uniform(3)), context(3));
        let outcome =
            find_combination_counterfactual(&evaluator, &CounterfactualConfig::bottom_up())
                .unwrap();
        let cf = outcome.counterfactual.expect("counterfactual exists");
        assert_eq!(cf.kept.len(), 1);
        assert_eq!(cf.baseline_answer, "nothing");
        assert_ne!(cf.answer, "nothing");
        assert_eq!(cf.removed.len(), 2);
        assert_eq!(
            cf.cited_positions(SearchDirection::BottomUp),
            cf.kept.as_slice()
        );
    }

    #[test]
    fn relevance_orders_equal_size_candidates() {
        // Source 1 has the highest attention, so the first top-down candidate
        // must be the removal of source 1 (context without "b").
        let llm = Arc::new(FirstSourceLlm::with_attention(vec![0.2, 0.5, 0.3]));
        let evaluator = Evaluator::new(llm.clone(), context(3));
        // ConstantLlm-like behaviour is not needed; we only inspect call order.
        let config = CounterfactualConfig {
            max_size: Some(1),
            ..CounterfactualConfig::top_down()
        };
        find_combination_counterfactual(&evaluator, &config).unwrap();
        let calls = llm.calls.lock().unwrap();
        // Call 0 is the full-context baseline (also provides attention);
        // call 1 is the first candidate: sources {a, c} (source b removed).
        assert_eq!(calls[0], vec!["a", "b", "c"]);
        assert_eq!(calls[1], vec!["a", "c"]);
    }

    #[test]
    fn no_counterfactual_in_the_searched_space_is_ok_none() {
        let evaluator = Evaluator::new(Arc::new(ConstantLlm), context(3));
        let outcome =
            find_combination_counterfactual(&evaluator, &CounterfactualConfig::top_down()).unwrap();
        assert!(outcome.counterfactual.is_none());
        assert!(!outcome.exhausted_budget);
        assert_eq!(outcome.completeness, Completeness::Exact);
        // All 2^3 - 1 = 7 non-full subsets of removals == 7 candidates.
        assert_eq!(outcome.stats.candidates, 7);
    }

    #[test]
    fn budget_stops_the_search_early() {
        let evaluator = Evaluator::new(Arc::new(ConstantLlm), context(4));
        let config = CounterfactualConfig::top_down().with_budget(3);
        let outcome = find_combination_counterfactual(&evaluator, &config).unwrap();
        assert!(outcome.counterfactual.is_none());
        assert!(outcome.exhausted_budget);
        assert_eq!(outcome.stats.candidates, 3);
        assert_eq!(
            outcome.completeness,
            Completeness::BudgetTruncated {
                evaluated: 3,
                pruned: 0
            }
        );
    }

    #[test]
    fn space_exhaustion_is_reported_as_such() {
        // ConstantLlm never flips. Unbounded, the search covers all 7
        // candidates and reports that the *space* ran out (a larger budget
        // cannot help); capped at 3 evaluations, it reports that the budget
        // stopped it first.
        let evaluator = Evaluator::new(Arc::new(ConstantLlm), context(3));
        let config = CounterfactualConfig::top_down();
        let space = find_combination_counterfactual(&evaluator, &config).unwrap();
        assert!(space.counterfactual.is_none());
        assert!(!space.exhausted_budget);
        assert_eq!(space.completeness, Completeness::Exact);
        assert_eq!(space.stats.candidates, 7);

        let capped = find_combination_counterfactual(&evaluator, &config.with_budget(3)).unwrap();
        assert!(capped.counterfactual.is_none());
        assert!(capped.exhausted_budget);
        assert!(!capped.completeness.is_exact());
    }

    #[test]
    fn pruning_skips_a_provably_flip_free_frontier() {
        // ConstantLlm: the empty-context answer equals the full-context answer,
        // so the lattice-maximal removal fails to flip and the whole top-down
        // frontier (2^4 - 1 = 15 sets) is pruned without a single evaluation.
        let evaluator = Evaluator::new(Arc::new(ConstantLlm), context(4));
        let config = CounterfactualConfig::top_down().with_pruning();
        let outcome = find_combination_counterfactual(&evaluator, &config).unwrap();
        assert!(outcome.counterfactual.is_none());
        assert!(!outcome.exhausted_budget);
        assert_eq!(outcome.stats.candidates, 0);
        assert_eq!(
            outcome.completeness,
            Completeness::BudgetTruncated {
                evaluated: 0,
                pruned: 15
            }
        );
    }

    #[test]
    fn pruning_preserves_the_answer_when_a_flip_exists() {
        // FirstSourceLlm flips at the endpoint (empty context answers
        // "nothing" != "a"), so pruning must not trigger and both runs must
        // find the identical counterfactual at the identical cost.
        let plain = Evaluator::new(Arc::new(FirstSourceLlm::uniform(3)), context(3));
        let unpruned =
            find_combination_counterfactual(&plain, &CounterfactualConfig::top_down()).unwrap();
        let gated = Evaluator::new(Arc::new(FirstSourceLlm::uniform(3)), context(3));
        let pruned = find_combination_counterfactual(
            &gated,
            &CounterfactualConfig::top_down().with_pruning(),
        )
        .unwrap();
        assert_eq!(pruned.counterfactual, unpruned.counterfactual);
        assert_eq!(pruned.stats.candidates, unpruned.stats.candidates);
        assert_eq!(pruned.completeness, Completeness::Exact);
    }

    #[test]
    fn expired_deadline_truncates_the_combination_search() {
        let evaluator = Evaluator::new(Arc::new(ConstantLlm), context(3));
        let deadline = crate::budget::Deadline::after_ms(0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let config = CounterfactualConfig::top_down().with_deadline(deadline);
        let outcome = find_combination_counterfactual(&evaluator, &config).unwrap();
        assert!(outcome.counterfactual.is_none());
        assert!(outcome.exhausted_budget);
        assert_eq!(outcome.stats.candidates, 0);
        assert!(matches!(
            outcome.completeness,
            Completeness::DeadlineTruncated { .. }
        ));
    }

    #[test]
    fn expired_deadline_truncates_the_permutation_search() {
        let evaluator = Evaluator::new(Arc::new(ConstantLlm), context(3));
        let deadline = crate::budget::Deadline::after_ms(0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let budget = SearchBudget::UNLIMITED.with_deadline(deadline);
        let outcome = find_permutation_counterfactual(&evaluator, &budget).unwrap();
        assert!(outcome.counterfactual.is_none());
        assert!(outcome.exhausted_budget);
        assert_eq!(outcome.stats.candidates, 0);
        assert!(matches!(
            outcome.completeness,
            Completeness::DeadlineTruncated { .. }
        ));
    }

    #[test]
    fn cache_makes_repeated_searches_free() {
        let evaluator = Evaluator::new(Arc::new(ConstantLlm), context(3));
        let config = CounterfactualConfig::top_down();
        let first = find_combination_counterfactual(&evaluator, &config).unwrap();
        assert!(first.stats.llm_calls > 0);
        let second = find_combination_counterfactual(&evaluator, &config).unwrap();
        assert_eq!(second.stats.llm_calls, 0);
        assert_eq!(second.stats.candidates, first.stats.candidates);
    }

    #[test]
    fn permutation_search_finds_the_most_similar_flip() {
        let evaluator = Evaluator::new(Arc::new(FirstSourceLlm::uniform(3)), context(3));
        let outcome =
            find_permutation_counterfactual(&evaluator, &SearchBudget::UNLIMITED).unwrap();
        let cf = outcome.counterfactual.expect("counterfactual exists");
        // The single-inversion orders are [0,2,1] (same first source, same
        // answer) and [1,0,2] (answer flips to "b"); the search must find the
        // latter and never report the identity.
        assert_eq!(cf.order, vec![1, 0, 2]);
        assert_eq!(cf.baseline_answer, "a");
        assert_eq!(cf.answer, "b");
        assert!((cf.tau - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn permutation_search_exhausts_small_spaces() {
        let evaluator = Evaluator::new(Arc::new(ConstantLlm), context(3));
        let outcome =
            find_permutation_counterfactual(&evaluator, &SearchBudget::UNLIMITED).unwrap();
        assert!(outcome.counterfactual.is_none());
        assert!(!outcome.exhausted_budget);
        assert_eq!(outcome.completeness, Completeness::Exact);
        // 3! - 1 = 5 non-identity orders.
        assert_eq!(outcome.stats.candidates, 5);
    }

    #[test]
    fn permutation_budget_is_respected() {
        let evaluator = Evaluator::new(Arc::new(ConstantLlm), context(4));
        let budget = SearchBudget::max_evaluations(4);
        let outcome = find_permutation_counterfactual(&evaluator, &budget).unwrap();
        assert!(outcome.counterfactual.is_none());
        assert!(outcome.exhausted_budget);
        assert_eq!(outcome.stats.candidates, 4);
        assert_eq!(
            outcome.completeness,
            Completeness::BudgetTruncated {
                evaluated: 4,
                pruned: 0
            }
        );
    }

    #[test]
    fn parallel_searches_find_the_same_counterfactuals() {
        let sequential =
            Evaluator::new(Arc::new(FirstSourceLlm::uniform(4)), context(4)).with_width(1);
        let combo_seq =
            find_combination_counterfactual(&sequential, &CounterfactualConfig::top_down())
                .unwrap();
        let perm_seq =
            find_permutation_counterfactual(&sequential, &SearchBudget::UNLIMITED).unwrap();

        for width in [1, 2, 4] {
            let parallel =
                Evaluator::new(Arc::new(FirstSourceLlm::uniform(4)), context(4)).with_width(width);
            let combo =
                find_combination_counterfactual(&parallel, &CounterfactualConfig::top_down())
                    .unwrap();
            let perm =
                find_permutation_counterfactual(&parallel, &SearchBudget::UNLIMITED).unwrap();
            // Identical explanations at identical cost: the searches never
            // evaluate past a flip, whatever the width.
            assert_eq!(combo.counterfactual, combo_seq.counterfactual);
            assert_eq!(combo.stats, combo_seq.stats, "width={width}");
            assert_eq!(perm.counterfactual, perm_seq.counterfactual);
            assert_eq!(perm.stats, perm_seq.stats, "width={width}");
        }
    }

    #[test]
    fn retrieval_scoring_skips_the_attention_call() {
        let llm = Arc::new(ConstantLlm);
        let evaluator = Evaluator::new(llm, context(3));
        let config = CounterfactualConfig::top_down()
            .with_scoring(ScoringMethod::RetrievalScore)
            .with_budget(1);
        let outcome = find_combination_counterfactual(&evaluator, &config).unwrap();
        // One baseline + one candidate; no extra attention read-out call.
        assert_eq!(outcome.stats.llm_calls, 2);
    }
}

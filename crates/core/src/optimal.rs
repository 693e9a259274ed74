//! Optimal permutations via k-best assignment (§II-C, experiment E6).
//!
//! Placing `k` sources into `k` context positions to maximise (or minimise)
//! the total `relevance × expected-position-attention` is an instance of the
//! linear assignment problem. The top-`s` placements are found with ranked
//! enumeration over the Hungarian algorithm
//! ([`rage_assignment::kbest`]) in `O(s·k³)` — against a naive `O(k!)`
//! baseline ([`naive_orders`]) that scores every permutation, used for
//! cross-checking and as the benchmark strawman.
//!
//! Relevance comes from a [`ScoringMethod`]; expected attention per position
//! comes from a [`PositionBiasProfile`] (the paper's "predefined V-shaped
//! distribution" knob).

use serde::{Deserialize, Serialize};

use rage_assignment::hungarian::CostMatrix;
use rage_assignment::kbest::{k_best_assignments, k_best_max_assignments};
use rage_assignment::kendall::kendall_tau;
use rage_assignment::permutations::PermutationIter;

use rage_llm::position_bias::PositionBiasProfile;

use crate::budget::{Completeness, SearchBudget};
use crate::error::RageError;
use crate::evaluator::Evaluator;
use crate::perturbation::Perturbation;
use crate::scoring::ScoringMethod;

/// Whether to maximise or minimise the placement objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum OrderObjective {
    /// The most answer-supporting placements (relevant sources in
    /// high-attention positions).
    #[default]
    Best,
    /// The most answer-degrading placements (relevant sources buried in
    /// low-attention positions) — the adversarial diagnostic.
    Worst,
}

/// Configuration of the optimal-permutation search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimalConfig {
    /// Relevance estimator for the sources.
    pub scoring: ScoringMethod,
    /// Expected attention per context position.
    pub position_bias: PositionBiasProfile,
    /// How many ranked placements to return (`s`).
    pub num_orders: usize,
}

impl Default for OptimalConfig {
    fn default() -> Self {
        Self {
            scoring: ScoringMethod::default(),
            position_bias: PositionBiasProfile::default(),
            num_orders: 3,
        }
    }
}

impl OptimalConfig {
    /// Set the relevance estimator (builder style).
    pub fn with_scoring(mut self, scoring: ScoringMethod) -> Self {
        self.scoring = scoring;
        self
    }

    /// Set the number of ranked placements (builder style).
    pub fn with_num_orders(mut self, s: usize) -> Self {
        self.num_orders = s;
        self
    }
}

/// One ranked placement of the sources into context positions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimalPermutation {
    /// Entry `p` is the context position of the source placed at prompt
    /// position `p` (the [`Perturbation::Permutation`] convention).
    pub order: Vec<usize>,
    /// Total `relevance × position-weight` of this placement.
    pub objective: f64,
    /// The model's answer under this placement.
    pub answer: String,
    /// Kendall's tau between this order and the original context order.
    pub tau: f64,
}

/// The per-position weights of a profile for a context of `k` sources.
pub fn position_weights(profile: &PositionBiasProfile, k: usize) -> Vec<f64> {
    (0..k).map(|p| profile.weight(p, k)).collect()
}

/// The placement profit matrix: `profit[source][position] =
/// score[source] × weight[position]`.
pub fn placement_profits(scores: &[f64], weights: &[f64]) -> CostMatrix {
    let k = scores.len();
    debug_assert_eq!(weights.len(), k);
    CostMatrix::from_fn(k, |source, position| scores[source] * weights[position])
}

/// The objective value of one explicit order under given scores and weights.
pub fn order_objective(scores: &[f64], weights: &[f64], order: &[usize]) -> f64 {
    order
        .iter()
        .enumerate()
        .map(|(position, &source)| scores[source] * weights[position])
        .sum()
}

fn assignment_to_order(assignment: &[usize]) -> Vec<usize> {
    // assignment[source] = position  →  order[position] = source.
    let mut order = vec![0usize; assignment.len()];
    for (source, &position) in assignment.iter().enumerate() {
        order[position] = source;
    }
    order
}

/// Evaluate the prefix of the `(objective, order)` pairs that `budget`
/// affords (see [`Evaluator::evaluate_within`]) and assemble the ranked
/// results, with a [`Completeness`] marker for the prefix.
fn evaluate_orders(
    evaluator: &Evaluator,
    scored_orders: Vec<(f64, Vec<usize>)>,
    budget: &SearchBudget,
) -> Result<(Vec<OptimalPermutation>, Completeness), RageError> {
    let batch: Vec<Perturbation> = scored_orders
        .iter()
        .map(|(_, order)| Perturbation::Permutation(order.clone()))
        .collect();
    let (generations, stop) = evaluator.evaluate_within(&batch, budget)?;
    let completeness = stop.map_or(Completeness::Exact, |stop| {
        Completeness::from_stop(stop, generations.len(), 0)
    });
    let orders = scored_orders
        .into_iter()
        .zip(generations)
        .map(|((objective, order), generation)| OptimalPermutation {
            tau: kendall_tau(&order),
            order,
            objective,
            answer: generation.answer,
        })
        .collect();
    Ok((orders, completeness))
}

/// The top-`s` placements by ranked assignment enumeration (`O(s·k³)`), under
/// a [`SearchBudget`]: the ranked prefix the budget affords, with a
/// [`Completeness`] marker. Orders arrive best-first for
/// [`OrderObjective::Best`] and worst-first for [`OrderObjective::Worst`].
///
/// Each returned order is evaluated against the model (answers come from the
/// evaluator's cache when repeated). Without a deadline the ranking (cut to
/// the evaluation cap) is submitted as one evaluation batch. Under a deadline
/// the ranking is evaluated in windows of the evaluator's
/// [`width`](Evaluator::width), the deadline is checked before each window,
/// and a truncated run returns the prefix evaluated so far.
pub fn ranked_orders_with_budget(
    evaluator: &Evaluator,
    config: &OptimalConfig,
    objective: OrderObjective,
    budget: &SearchBudget,
) -> Result<(Vec<OptimalPermutation>, Completeness), RageError> {
    let k = evaluator.k();
    if k == 0 || config.num_orders == 0 {
        return Ok((Vec::new(), Completeness::Exact));
    }
    let scores = config.scoring.source_scores(evaluator)?;
    let weights = position_weights(&config.position_bias, k);
    let profits = placement_profits(&scores, &weights);
    let assignments = match objective {
        OrderObjective::Best => k_best_max_assignments(&profits, config.num_orders),
        OrderObjective::Worst => k_best_assignments(&profits, config.num_orders),
    };
    let scored_orders: Vec<(f64, Vec<usize>)> = assignments
        .into_iter()
        .map(|a| (a.total, assignment_to_order(&a.assignment)))
        .collect();

    evaluate_orders(evaluator, scored_orders, budget)
}

/// The naive `O(k!)` baseline: score every permutation and sort.
///
/// The oracle of [`ranked_orders_with_budget`]: under an unlimited budget both
/// produce the same objective sequence; only usable for small `k`. Ties between
/// equal-objective orders are broken lexicographically, so the *orders* may
/// differ from the ranked enumeration's tie order while the *objectives* always
/// agree.
pub fn naive_orders(
    evaluator: &Evaluator,
    config: &OptimalConfig,
    objective: OrderObjective,
) -> Result<Vec<OptimalPermutation>, RageError> {
    let k = evaluator.k();
    if k == 0 || config.num_orders == 0 {
        return Ok(Vec::new());
    }
    let scores = config.scoring.source_scores(evaluator)?;
    let weights = position_weights(&config.position_bias, k);

    let mut all: Vec<(f64, Vec<usize>)> = PermutationIter::new(k)
        .map(|order| (order_objective(&scores, &weights, &order), order))
        .collect();
    all.sort_by(|a, b| {
        let primary = match objective {
            OrderObjective::Best => b.0.total_cmp(&a.0),
            OrderObjective::Worst => a.0.total_cmp(&b.0),
        };
        primary.then_with(|| a.1.cmp(&b.1))
    });
    all.truncate(config.num_orders);

    evaluate_orders(evaluator, all, &SearchBudget::UNLIMITED).map(|(orders, _)| orders)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Context;
    use crate::evaluator::Evaluator;
    use rage_assignment::permutations::is_permutation;
    use rage_llm::{Generation, LanguageModel, LlmInput};
    use rage_retrieval::Document;
    use std::sync::Arc;

    struct FirstSourceLlm;

    impl LanguageModel for FirstSourceLlm {
        fn generate(&self, input: &LlmInput) -> Generation {
            let answer = input
                .sources
                .first()
                .map(|s| s.id.clone())
                .unwrap_or_else(|| "nothing".to_string());
            Generation {
                answer: answer.clone(),
                text: answer,
                source_attention: vec![1.0; input.sources.len()],
                prompt_tokens: 1,
            }
        }
    }

    fn evaluator(k: usize) -> Evaluator {
        let docs: Vec<Document> = (0..k)
            .map(|i| {
                let id = char::from(b'a' + i as u8).to_string();
                Document::new(id.clone(), "", format!("text {id}"))
            })
            .collect();
        // from_documents assigns descending retrieval scores k, k-1, .., 1.
        Evaluator::new(
            Arc::new(FirstSourceLlm),
            Context::from_documents("q", &docs),
        )
    }

    fn config() -> OptimalConfig {
        OptimalConfig {
            position_bias: PositionBiasProfile::LostInTheMiddle { depth: 0.7 },
            ..OptimalConfig::default().with_scoring(ScoringMethod::RetrievalScore)
        }
    }

    /// The unbudgeted ranking: every placement the configuration asks for.
    fn ranking(
        ev: &Evaluator,
        cfg: &OptimalConfig,
        objective: OrderObjective,
    ) -> Vec<OptimalPermutation> {
        let (orders, marker) =
            ranked_orders_with_budget(ev, cfg, objective, &SearchBudget::UNLIMITED).unwrap();
        assert_eq!(marker, Completeness::Exact);
        orders
    }

    #[test]
    fn best_orders_are_ranked_and_valid() {
        let ev = evaluator(4);
        let best = ranking(&ev, &config().with_num_orders(6), OrderObjective::Best);
        assert_eq!(best.len(), 6);
        for pair in best.windows(2) {
            assert!(pair[0].objective >= pair[1].objective - 1e-9);
        }
        for op in &best {
            assert!(is_permutation(&op.order, 4));
            assert!((-1.0..=1.0).contains(&op.tau));
            assert!(!op.answer.is_empty());
        }
    }

    #[test]
    fn best_beats_worst() {
        let ev = evaluator(5);
        let best = ranking(&ev, &config(), OrderObjective::Best);
        let worst = ranking(&ev, &config(), OrderObjective::Worst);
        assert!(best[0].objective >= worst[0].objective);
        // Worst-first ordering is non-decreasing.
        for pair in worst.windows(2) {
            assert!(pair[0].objective <= pair[1].objective + 1e-9);
        }
    }

    #[test]
    fn ranked_agrees_with_naive_on_objectives() {
        for k in 2..=6usize {
            let ev = evaluator(k);
            let cfg = config().with_num_orders(8);
            for objective in [OrderObjective::Best, OrderObjective::Worst] {
                let ranked = ranking(&ev, &cfg, objective);
                let naive = naive_orders(&ev, &cfg, objective).unwrap();
                assert_eq!(ranked.len(), naive.len(), "k={k}");
                for (r, n) in ranked.iter().zip(naive.iter()) {
                    assert!(
                        (r.objective - n.objective).abs() < 1e-9,
                        "k={k}: ranked {} vs naive {}",
                        r.objective,
                        n.objective
                    );
                }
            }
        }
    }

    #[test]
    fn u_shaped_bias_places_top_sources_at_the_edges() {
        // Descending scores [5,4,3,2,1] and a deep U-shape: the best placement
        // puts the two strongest sources at the two ends.
        let ev = evaluator(5);
        let best = ranking(&ev, &config().with_num_orders(1), OrderObjective::Best);
        let order = &best[0].order;
        let edge_sources = [order[0], order[4]];
        assert!(edge_sources.contains(&0), "order {order:?}");
        assert!(edge_sources.contains(&1), "order {order:?}");
    }

    #[test]
    fn uniform_bias_makes_every_order_equal() {
        let ev = evaluator(3);
        let cfg = OptimalConfig {
            position_bias: PositionBiasProfile::Uniform,
            ..config().with_num_orders(6)
        };
        let best = ranking(&ev, &cfg, OrderObjective::Best);
        assert_eq!(best.len(), 6);
        let first = best[0].objective;
        assert!(best.iter().all(|op| (op.objective - first).abs() < 1e-9));
    }

    #[test]
    fn answers_follow_the_placement() {
        let ev = evaluator(3);
        let best = ranking(&ev, &config().with_num_orders(2), OrderObjective::Best);
        for op in &best {
            // FirstSourceLlm answers with the id of the source in position 0.
            let expected = char::from(b'a' + op.order[0] as u8).to_string();
            assert_eq!(op.answer, expected);
        }
    }

    #[test]
    fn degenerate_requests() {
        let ev = evaluator(3);
        assert!(ranking(&ev, &config().with_num_orders(0), OrderObjective::Best).is_empty());
        // More orders than 3! exist.
        let all = ranking(&ev, &config().with_num_orders(100), OrderObjective::Best);
        assert_eq!(all.len(), 6);
    }

    #[test]
    fn budgeted_ranking_matches_the_unlimited_prefix() {
        let ev = evaluator(4);
        let cfg = config().with_num_orders(6);
        let full = ranking(&ev, &cfg, OrderObjective::Best);
        let (capped, marker) = ranked_orders_with_budget(
            &evaluator(4),
            &cfg,
            OrderObjective::Best,
            &SearchBudget::max_evaluations(2),
        )
        .unwrap();
        assert_eq!(capped.len(), 2);
        assert_eq!(capped.as_slice(), &full[..2]);
        assert_eq!(
            marker,
            Completeness::BudgetTruncated {
                evaluated: 2,
                pruned: 0
            }
        );

        // A deadline that never fires takes the windowed path, which must
        // reproduce the one-batch ranking exactly.
        let (all, marker) = ranked_orders_with_budget(
            &evaluator(4),
            &cfg,
            OrderObjective::Best,
            &SearchBudget::UNLIMITED.with_deadline(crate::budget::Deadline::after_ms(600_000)),
        )
        .unwrap();
        assert_eq!(all, full);
        assert_eq!(marker, Completeness::Exact);
    }

    #[test]
    fn expired_deadline_returns_an_empty_ranking() {
        let ev = evaluator(3);
        let deadline = crate::budget::Deadline::after_ms(0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let budget = SearchBudget::UNLIMITED.with_deadline(deadline);
        let (orders, marker) =
            ranked_orders_with_budget(&ev, &config(), OrderObjective::Best, &budget).unwrap();
        assert!(orders.is_empty());
        assert!(matches!(marker, Completeness::DeadlineTruncated { .. }));
    }

    #[test]
    fn objective_helper_matches_matrix_total() {
        let scores = [3.0, 1.0, 2.0];
        let weights = [1.0, 0.5, 0.9];
        let identity = [0, 1, 2];
        let expected = 3.0 * 1.0 + 1.0 * 0.5 + 2.0 * 0.9;
        assert!((order_objective(&scores, &weights, &identity) - expected).abs() < 1e-12);
    }
}

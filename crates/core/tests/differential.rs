//! Differential suite for the combination-search monotonicity prune: over
//! every registry scenario (and a seeded sweep of synthetic ranking
//! scenarios), searching with pruning enabled must return *exactly* the
//! counterfactual the unpruned search returns — the prune may only skip work
//! that is genuinely flip-free, never change an answer.
//!
//! The bound is only admissible for perturbation-monotone models, and the
//! last test pins a live counterexample — a ranking scenario whose answer
//! flips under a partial removal even though the full removal restores the
//! prior — which is exactly why nothing in the report or anytime paths
//! enables pruning implicitly.

use std::sync::Arc;

use rage_core::counterfactual::{find_combination_counterfactual, CounterfactualConfig};
use rage_core::{Evaluator, RagPipeline, ScoringMethod};
use rage_datasets::synthetic::{ranking_scenario, RankingConfig};
use rage_datasets::{Scenario, ScenarioRegistry};
use rage_llm::model::{SimLlm, SimLlmConfig};
use rage_retrieval::Searcher;

fn evaluator_for(scenario: &Scenario) -> Evaluator {
    let searcher = Searcher::from_corpus(&scenario.corpus, 1);
    let llm = SimLlm::new(SimLlmConfig::default().with_prior(scenario.prior.clone()));
    let pipeline = RagPipeline::new(searcher, Arc::new(llm));
    let (_, evaluator) = pipeline
        .ask_and_explain(&scenario.question, scenario.retrieval_k)
        .expect("scenario retrieves a context");
    evaluator
}

/// Assert pruned ≡ unpruned for one evaluator under one base config.
fn assert_prune_preserves_answers(name: &str, evaluator: &Evaluator, base: CounterfactualConfig) {
    let plain = find_combination_counterfactual(evaluator, &base).unwrap();
    let pruned_outcome = find_combination_counterfactual(evaluator, &base.with_pruning()).unwrap();

    // The counterfactual itself — the answer the user sees — must be
    // identical, found or not.
    assert_eq!(
        pruned_outcome.counterfactual, plain.counterfactual,
        "{name}: pruning changed the counterfactual"
    );
    if pruned_outcome.stats.candidates == 0 && !pruned_outcome.completeness.is_exact() {
        // The prune fired: the frontier it skipped must indeed be flip-free,
        // which the unpruned search proves by exhausting it empty-handed.
        assert!(
            plain.counterfactual.is_none(),
            "{name}: prune skipped a frontier that held a flip"
        );
        assert!(
            !plain.exhausted_budget,
            "{name}: prune may only stand in for a space-exhausted search"
        );
    } else {
        // The prune did not fire: the searches must be indistinguishable.
        assert_eq!(
            pruned_outcome.stats.candidates, plain.stats.candidates,
            "{name}: pruning changed the evaluation count without firing"
        );
        assert_eq!(
            pruned_outcome.exhausted_budget, plain.exhausted_budget,
            "{name}: pruning changed budget exhaustion"
        );
        assert_eq!(
            pruned_outcome.completeness, plain.completeness,
            "{name}: pruning changed the completeness marker"
        );
    }
}

fn sweep(name: &str, scenario: &Scenario) {
    let evaluator = evaluator_for(scenario);
    for scoring in [ScoringMethod::Attention, ScoringMethod::RetrievalScore] {
        for base in [
            CounterfactualConfig::top_down(),
            CounterfactualConfig::bottom_up(),
        ] {
            assert_prune_preserves_answers(
                &format!("{name}/{scoring:?}"),
                &evaluator,
                base.with_scoring(scoring),
            );
        }
    }
}

#[test]
fn pruned_equals_unpruned_on_every_registry_scenario() {
    let registry = ScenarioRegistry::builtin();
    let mut covered = 0;
    for entry in registry.iter() {
        let scenario = entry.build();
        sweep(entry.name(), &scenario);
        covered += 1;
    }
    assert!(covered >= 5, "registry unexpectedly small: {covered}");
}

#[test]
fn pruned_equals_unpruned_on_seeded_synthetic_sweeps() {
    for seed in [1, 7, 42, 1234] {
        for (num_sources, num_entities) in [(4, 2), (5, 3), (6, 3)] {
            let scenario = ranking_scenario(RankingConfig {
                num_sources,
                num_entities,
                seed,
                ..RankingConfig::default()
            });
            sweep(
                &format!("ranking(k={num_sources},e={num_entities},seed={seed})"),
                &scenario,
            );
        }
    }
}

/// The scoped-out case, pinned: an 8-source ranking scenario where the prior
/// and the full context agree on the answer ("Boris Blake") yet removing two
/// sources flips it — a non-monotone model defeats the endpoint bound, the
/// prune discards a findable flip, and the outcome says so (`pruned` counted,
/// marker non-exact). This is the reason `RageReport::generate_with_deadline`
/// never turns pruning on.
#[test]
fn non_monotone_ranking_defeats_the_monotonicity_bound() {
    let scenario = ranking_scenario(RankingConfig {
        num_sources: 8,
        ..RankingConfig::default()
    });
    let evaluator = evaluator_for(&scenario);
    let base = CounterfactualConfig::top_down();

    let plain = find_combination_counterfactual(&evaluator, &base).unwrap();
    let flip = plain
        .counterfactual
        .expect("the unpruned search finds a flip");
    assert_eq!(
        flip.baseline_answer,
        evaluator.empty_context_answer().unwrap()
    );

    let pruned = find_combination_counterfactual(&evaluator, &base.with_pruning()).unwrap();
    assert!(
        pruned.counterfactual.is_none(),
        "the endpoint bound misfires here"
    );
    assert!(!pruned.completeness.is_exact());
    assert_eq!(pruned.stats.candidates, 0);
}

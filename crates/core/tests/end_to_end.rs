//! End-to-end tests: retrieval → pipeline → counterfactual search → optimal
//! permutations over the demonstration scenarios, asserting the paper's
//! narratives — most importantly that *removing the cited source flips the
//! answer*.

use std::sync::Arc;

use rage_core::counterfactual::{
    find_combination_counterfactual, find_permutation_counterfactual,
    require_combination_counterfactual, CounterfactualConfig,
};
use rage_core::explanation::ReportConfig;
use rage_core::insights::{random_permutations, Insights};
use rage_core::optimal::{best_orders, naive_orders, ranked_orders, OptimalConfig, OrderObjective};
use rage_core::{
    answers_equal, Evaluator, Perturbation, RagPipeline, RageError, RageReport, ScoringMethod,
    SearchBudget,
};
use rage_datasets::synthetic::{ranking_scenario, RankingConfig};
use rage_datasets::{us_open, Scenario};
use rage_llm::model::{SimLlm, SimLlmConfig};
use rage_retrieval::Searcher;

fn pipeline_for(scenario: &Scenario) -> RagPipeline {
    let searcher = Searcher::from_corpus(&scenario.corpus, 1);
    let llm = SimLlm::new(SimLlmConfig::default().with_prior(scenario.prior.clone()));
    RagPipeline::new(searcher, Arc::new(llm))
}

fn explain(scenario: &Scenario) -> (String, Evaluator) {
    let pipeline = pipeline_for(scenario);
    let (response, evaluator) = pipeline
        .ask_and_explain(&scenario.question, scenario.retrieval_k)
        .expect("scenario retrieves a context");
    (response.answer().to_string(), evaluator)
}

fn synthetic_k6() -> Scenario {
    ranking_scenario(RankingConfig {
        num_sources: 6,
        num_entities: 3,
        ..RankingConfig::default()
    })
}

#[test]
fn us_open_answers_match_the_paper_narrative() {
    let scenario = us_open::scenario();
    let (answer, evaluator) = explain(&scenario);
    assert_eq!(answer, scenario.expected_full_context_answer);
    assert_eq!(
        evaluator.empty_context_answer().unwrap(),
        scenario.expected_empty_context_answer
    );
}

#[test]
fn us_open_removing_the_cited_source_flips_the_answer() {
    let scenario = us_open::scenario();
    let (answer, evaluator) = explain(&scenario);
    assert_eq!(answer, "Coco Gauff");

    let outcome =
        find_combination_counterfactual(&evaluator, &CounterfactualConfig::top_down()).unwrap();
    let cf = outcome.counterfactual.expect("a citation exists");

    // The citation is exactly the up-to-date 2023 document: the only source
    // supporting "Coco Gauff".
    let up_to_date = evaluator
        .context()
        .position_of(us_open::UP_TO_DATE_DOC)
        .expect("2023 document is in the context");
    assert_eq!(cf.removed, vec![up_to_date]);
    assert_eq!(cf.baseline_answer, "Coco Gauff");
    assert_eq!(cf.answer, "Iga Swiatek");

    // Re-evaluating the removal independently reproduces the flip.
    let replay = evaluator
        .answer_for(&Perturbation::removal(evaluator.k(), &cf.removed))
        .unwrap();
    assert!(!answers_equal(&replay, &answer));
    assert!(answers_equal(&replay, &cf.answer));
}

#[test]
fn us_open_bottom_up_counterfactual_beats_the_prior() {
    let scenario = us_open::scenario();
    let (_, evaluator) = explain(&scenario);
    let outcome =
        find_combination_counterfactual(&evaluator, &CounterfactualConfig::bottom_up()).unwrap();
    let cf = outcome.counterfactual.expect("a retained set exists");
    // A single retained source already overrides the stale prior memory.
    assert_eq!(cf.kept.len(), 1);
    assert_eq!(cf.baseline_answer, "Serena Williams");
    assert_ne!(cf.answer, "Serena Williams");
}

#[test]
fn us_open_reordering_resurfaces_the_stale_champion() {
    let scenario = us_open::scenario();
    let (answer, evaluator) = explain(&scenario);
    let outcome =
        find_permutation_counterfactual(&evaluator, &SearchBudget::max_evaluations(200)).unwrap();
    let cf = outcome.counterfactual.expect("order matters here");
    assert_eq!(cf.baseline_answer, answer);
    assert_eq!(cf.answer, "Iga Swiatek");
    assert!(cf.tau < 1.0);
    // The search evaluates most-similar orders first, so the flip it returns
    // is within the first candidates, far below the budget.
    assert!(outcome.stats.candidates <= 200);
}

#[test]
fn us_open_insights_expose_order_sensitivity() {
    let scenario = us_open::scenario();
    let (_, evaluator) = explain(&scenario);
    let samples = random_permutations(evaluator.k(), 40, 3);
    let insights = Insights::from_perturbations(&evaluator, &samples).unwrap();
    assert_eq!(insights.num_samples, 40);
    // Both the up-to-date and the stale champion appear across orders.
    assert!(insights.distribution.share_of("Coco Gauff") > 0.5);
    assert!(insights.distribution.share_of("Iga Swiatek") > 0.0);
    assert!(insights.distribution.num_answers() >= 2);
}

#[test]
fn synthetic_top_down_counterfactual_flips_the_answer() {
    let scenario = synthetic_k6();
    let (answer, evaluator) = explain(&scenario);
    assert_eq!(answer, scenario.expected_full_context_answer);

    let config = CounterfactualConfig::top_down().with_scoring(ScoringMethod::RetrievalScore);
    let cf = require_combination_counterfactual(&evaluator, &config).unwrap();
    assert!(!answers_equal(&cf.answer, &answer));
    // Increasing-size enumeration means the citation is minimal-size: no
    // single removal smaller than it could have been skipped.
    assert!(!cf.removed.is_empty());
    let replay = evaluator
        .answer_for(&Perturbation::Combination(cf.kept.clone()))
        .unwrap();
    assert!(answers_equal(&replay, &cf.answer));
}

#[test]
fn synthetic_budget_exhaustion_is_reported() {
    let scenario = synthetic_k6();
    let (_, evaluator) = explain(&scenario);
    let config = CounterfactualConfig::top_down()
        .with_scoring(ScoringMethod::RetrievalScore)
        .with_budget(0);
    let outcome = find_combination_counterfactual(&evaluator, &config).unwrap();
    assert!(outcome.counterfactual.is_none());
    assert!(outcome.exhausted_budget);
    assert_eq!(outcome.stats.candidates, 0);
    assert!(matches!(
        require_combination_counterfactual(&evaluator, &config),
        Err(RageError::BudgetExhausted {
            evaluated: 0,
            space_exhausted: false
        })
    ));
}

#[test]
fn optimal_k_best_agrees_with_the_naive_baseline_up_to_k6() {
    // Acceptance criterion: ranked enumeration == brute force for k ≤ 6,
    // on both the synthetic (k = 6) and us_open (k = 5) contexts.
    for scenario in [synthetic_k6(), us_open::scenario()] {
        let (_, evaluator) = explain(&scenario);
        assert!(evaluator.k() <= 6);
        let config = OptimalConfig::default()
            .with_scoring(ScoringMethod::RetrievalScore)
            .with_num_orders(10);
        for objective in [OrderObjective::Best, OrderObjective::Worst] {
            let ranked = ranked_orders(&evaluator, &config, objective).unwrap();
            let naive = naive_orders(&evaluator, &config, objective).unwrap();
            assert_eq!(ranked.len(), naive.len());
            for (r, n) in ranked.iter().zip(naive.iter()) {
                assert!(
                    (r.objective - n.objective).abs() < 1e-9,
                    "scenario {}: ranked {} vs naive {}",
                    scenario.name,
                    r.objective,
                    n.objective
                );
            }
        }
    }
}

#[test]
fn optimal_orders_are_ranked_and_answerable() {
    let scenario = us_open::scenario();
    let (_, evaluator) = explain(&scenario);
    let config = OptimalConfig::default()
        .with_scoring(ScoringMethod::RetrievalScore)
        .with_num_orders(5);
    let best = best_orders(&evaluator, &config).unwrap();
    assert_eq!(best.len(), 5);
    for pair in best.windows(2) {
        assert!(pair[0].objective >= pair[1].objective - 1e-9);
    }
    for op in &best {
        assert!(!op.answer.is_empty());
        assert_eq!(op.order.len(), evaluator.k());
    }
}

#[test]
fn full_report_over_us_open_ties_everything_together() {
    let scenario = us_open::scenario();
    let (_, evaluator) = explain(&scenario);
    let report = RageReport::generate(&evaluator, &ReportConfig::default()).unwrap();

    assert_eq!(report.full_context_answer, "Coco Gauff");
    assert_eq!(report.empty_context_answer, "Serena Williams");
    assert_eq!(report.citations(), vec![us_open::UP_TO_DATE_DOC]);
    assert!(report.order_sensitive());
    // The evaluator cache means each distinct perturbation is paid exactly once.
    assert_eq!(report.llm_calls, report.evaluations);
    let summary = report.summary();
    assert!(summary.contains("Coco Gauff"));
    assert!(summary.contains("us-open-2023"));
}

//! Equivalence suite: an evaluator must explain exactly alike at every
//! fan-out width.
//!
//! Over the demonstration scenarios (`us_open`, `big_three`) and a synthetic
//! ranking scenario, a report generated at width 2, 4 or 8 must equal the
//! width-1 report *fully*: every explanation (answers, counterfactuals,
//! optimal placements, insight distribution/table/rules, source scores)
//! **and** every cost counter (`llm_calls`, `evaluations`, per-search
//! `stats`). Only lists known up front fan out, and the early-exit searches
//! evaluate one candidate at a time, so nothing is evaluated speculatively.
//!
//! A second axis rides along: enabling the `SimLlm` prefix cache must leave a
//! report bit-for-bit unchanged.

use std::sync::Arc;

use rage_core::explanation::ReportConfig;
use rage_core::{Evaluator, RagPipeline, RageReport};
use rage_datasets::synthetic::{ranking_scenario, RankingConfig};
use rage_datasets::{big_three, us_open, Scenario};
use rage_llm::cache::PrefixCache;
use rage_llm::model::{SimLlm, SimLlmConfig};
use rage_retrieval::{IndexBuilder, Searcher};

fn pipeline_for(scenario: &Scenario, prefix_cache: bool) -> RagPipeline {
    let searcher = Searcher::new(IndexBuilder::default().build(&scenario.corpus));
    let mut llm = SimLlm::new(SimLlmConfig::default().with_prior(scenario.prior.clone()));
    if prefix_cache {
        llm = llm.with_prefix_cache(Arc::new(PrefixCache::default()));
    }
    RagPipeline::new(searcher, Arc::new(llm))
}

fn evaluator_for(scenario: &Scenario, prefix_cache: bool, width: usize) -> Evaluator {
    let pipeline = pipeline_for(scenario, prefix_cache);
    let (_, evaluator) = pipeline
        .ask_and_explain(&scenario.question, scenario.retrieval_k)
        .expect("scenario question retrieves a context");
    evaluator.with_width(width)
}

/// A trimmed config that still exercises every search (both combination
/// directions, the permutation search, rankings and insights).
fn report_config() -> ReportConfig {
    ReportConfig {
        num_optimal_orders: 2,
        combination_budget: Some(24),
        permutation_budget: Some(16),
        insight_samples: 8,
        seed: 7,
        ..ReportConfig::default()
    }
}

fn scenarios() -> Vec<Scenario> {
    vec![
        us_open::scenario(),
        big_three::scenario(),
        ranking_scenario(RankingConfig {
            num_sources: 5,
            ..RankingConfig::default()
        }),
    ]
}

#[test]
fn parallel_reports_match_sequential_reports_on_every_scenario() {
    let config = report_config();
    for (scenario_index, scenario) in scenarios().into_iter().enumerate() {
        let reference = RageReport::generate(&evaluator_for(&scenario, false, 1), &config).unwrap();

        // The full 1/2/4/8 sweep runs on the first scenario; the others get a
        // two-point sweep to keep the suite fast.
        let sweep: &[usize] = if scenario_index == 0 {
            &[1, 2, 4, 8]
        } else {
            &[2, 8]
        };
        for &width in sweep {
            let report =
                RageReport::generate(&evaluator_for(&scenario, false, width), &config).unwrap();
            // Full equality: explanations and cost counters alike.
            assert_eq!(
                report, reference,
                "{}: report at width {width} differs from width 1",
                scenario.name
            );
        }
    }
}

#[test]
fn prefix_cache_leaves_sequential_reports_unchanged() {
    // One full-report check here; per-generation bit-identity across permuted
    // and truncated contexts is covered exhaustively in rage-llm's
    // prefix_cache integration tests.
    let config = report_config();
    let scenario = big_three::scenario();
    let plain = RageReport::generate(&evaluator_for(&scenario, false, 1), &config).unwrap();
    let cached = RageReport::generate(&evaluator_for(&scenario, true, 1), &config).unwrap();
    // The cache is invisible to results: the reports must be fully identical,
    // counters included.
    assert_eq!(
        plain, cached,
        "{}: prefix cache changed a report",
        scenario.name
    );
}

#[test]
fn prefix_cached_parallel_report_matches_sequential() {
    // The production configuration: prefix-cached model at width 4, against
    // the plain width-1 baseline.
    let config = report_config();
    let scenario = us_open::scenario();
    let reference = RageReport::generate(&evaluator_for(&scenario, false, 1), &config).unwrap();
    let report = RageReport::generate(&evaluator_for(&scenario, true, 4), &config).unwrap();
    assert_eq!(report, reference, "us_open cached at width 4 vs width 1");
}

#[test]
fn repeated_parallel_reports_are_deterministic() {
    let config = report_config();
    let scenario = big_three::scenario();
    let a = RageReport::generate(&evaluator_for(&scenario, true, 4), &config).unwrap();
    let b = RageReport::generate(&evaluator_for(&scenario, true, 4), &config).unwrap();
    assert_eq!(a, b);
}

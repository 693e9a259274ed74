//! Demonstration-scenario plumbing shared by the `report` binary and tests.
//!
//! All scenario wiring is registry-driven: the shared
//! [`ScenarioRegistry`] (see [`registry`]) maps CLI
//! names onto [`rage_datasets`] generators with their metadata, so the binary, the
//! smoke job and the golden tests enumerate one source of truth instead of a hardcoded
//! list. [`report_for`] runs a full explanation over a scenario with the standard
//! pipeline (BM25 retrieval + prior-seeded [`SimLlm`]), exactly like the paper's demo
//! backend; [`report_for_sharded`] does the same over an index of several shards and —
//! because the shard count never changes a ranking — produces an *equal* report, which
//! `tests/sharded.rs` pins.

use std::sync::Arc;

use rage_core::explanation::ReportConfig;
use rage_core::{RagPipeline, RageError, RageReport};
use rage_datasets::{Scenario, ScenarioRegistry};
use rage_llm::model::{SimLlm, SimLlmConfig};
use rage_retrieval::Searcher;

/// The shared scenario registry (a fixed table, in presentation order).
pub fn registry() -> &'static ScenarioRegistry {
    &ScenarioRegistry
}

/// The scenario names the CLI accepts, in presentation order.
pub fn scenario_names() -> Vec<&'static str> {
    registry().names()
}

/// Look up a demonstration scenario by CLI name.
///
/// Accepts `-` and `_` interchangeably (`us-open` == `us_open`). Returns `None` for
/// unknown names; the registry's [`names`](ScenarioRegistry::names) make a good
/// suggestion list in that case.
pub fn scenario_by_name(name: &str) -> Option<Scenario> {
    registry().build(name)
}

/// Run the full RAGE explanation over a scenario and assemble its report.
///
/// Deterministic: the retrieval, the simulated LLM and the report's insight
/// sample are all seeded, so the same scenario and config always produce an
/// identical report (this is what the golden-snapshot tests pin).
pub fn report_for(scenario: &Scenario, config: &ReportConfig) -> Result<RageReport, RageError> {
    report_for_sharded(scenario, config, 1)
}

/// Like [`report_for`], but retrieving through a [`Searcher`] over `num_shards`
/// partitions.
///
/// The searcher returns bit-identical scores and identical orderings at every shard
/// count, so the resulting report is equal to [`report_for`]'s — sharding is a
/// deployment decision, not a behaviour change.
pub fn report_for_sharded(
    scenario: &Scenario,
    config: &ReportConfig,
    num_shards: usize,
) -> Result<RageReport, RageError> {
    let llm = SimLlm::new(SimLlmConfig::default().with_prior(scenario.prior.clone()));
    let searcher = Searcher::from_corpus(&scenario.corpus, num_shards);
    let pipeline = RagPipeline::new(searcher, Arc::new(llm));
    let (_, report) =
        pipeline.ask_and_report(&scenario.question, scenario.retrieval_k, config, None)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cli_name_resolves() {
        for name in scenario_names() {
            assert!(scenario_by_name(name).is_some(), "{name}");
        }
        assert!(scenario_by_name("us-open").is_some());
        assert!(scenario_by_name("nope").is_none());
    }

    #[test]
    fn registry_lists_old_and_new_scenarios() {
        let names = scenario_names();
        for expected in [
            "us_open",
            "big_three",
            "timeline",
            "synthetic",
            "large_corpus",
            "multi_hop",
            "adversarial",
        ] {
            assert!(
                names.contains(&expected),
                "{expected} missing from registry"
            );
        }
    }

    #[test]
    fn reports_generate_for_every_scenario() {
        let config = ReportConfig {
            insight_samples: 4,
            permutation_budget: Some(16),
            ..ReportConfig::default()
        };
        for name in scenario_names() {
            let scenario = scenario_by_name(name).unwrap();
            let report = report_for(&scenario, &config).unwrap();
            assert!(!report.full_context_answer.is_empty(), "{name}");
        }
    }

    #[test]
    fn sharded_report_equals_single_index_report() {
        let config = ReportConfig {
            insight_samples: 4,
            permutation_budget: Some(16),
            ..ReportConfig::default()
        };
        let scenario = scenario_by_name("us_open").unwrap();
        let single = report_for(&scenario, &config).unwrap();
        let sharded = report_for_sharded(&scenario, &config, 3).unwrap();
        assert_eq!(single, sharded);
    }
}

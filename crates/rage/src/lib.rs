//! # rage
//!
//! Umbrella crate for the RAGE explanation engine — one dependency that
//! re-exports the whole workspace: retrieval ([`retrieval`]), the simulated
//! LLM ([`llm`]), the explanation engine ([`explain`]), the combinatorics
//! substrate ([`assignment`]), the demonstration scenarios ([`datasets`]),
//! report rendering ([`report`]) and the HTTP explanation service
//! ([`server`]).
//!
//! ## Quick start
//!
//! ```
//! use rage::prelude::*;
//! use std::sync::Arc;
//!
//! // A tiny corpus and a retrieval-augmented pipeline over it.
//! let mut corpus = Corpus::new();
//! corpus.push(Document::new(
//!     "slams",
//!     "Grand slams",
//!     "Novak Djokovic holds the most grand slam titles.",
//! ));
//! corpus.push(Document::new("wins", "Match wins", "Roger Federer leads total match wins."));
//! let searcher = Searcher::from_corpus(&corpus, 1);
//! let pipeline = RagPipeline::new(searcher, Arc::new(SimLlm::new(SimLlmConfig::default())));
//!
//! // Ask, then explain the answer end to end.
//! let (response, evaluator) = pipeline
//!     .ask_and_explain("Who holds the most grand slam titles?", 2)
//!     .unwrap();
//! assert_eq!(response.answer(), "Novak Djokovic");
//!
//! let report = RageReport::generate(&evaluator, &ReportConfig::default()).unwrap();
//! assert_eq!(report.full_context_answer, "Novak Djokovic");
//! assert!(report.summary().contains("question:"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Combinatorics substrate (combinations, permutations, assignment, k-best).
pub use rage_assignment as assignment;
/// The explanation engine (pipeline, counterfactuals, insights, optimal orders).
pub use rage_core as explain;
/// Demonstration scenarios and synthetic corpus generators.
pub use rage_datasets as datasets;
/// The deterministic simulated LLM substrate.
pub use rage_llm as llm;
/// Report rendering (markdown, versioned JSON, HTML) and diffing.
pub use rage_report as report;
/// The BM25 retrieval substrate.
pub use rage_retrieval as retrieval;
/// The HTTP explanation service (`rage-server`).
pub use rage_server as server;

/// The commonly-used types, importable in one line.
pub mod prelude {
    pub use rage_core::counterfactual::{
        find_combination_counterfactual, find_permutation_counterfactual, CounterfactualConfig,
        SearchDirection,
    };
    pub use rage_core::explanation::ReportConfig;
    pub use rage_core::insights::Insights;
    pub use rage_core::optimal::{
        naive_orders, ranked_orders_with_budget, OptimalConfig, OrderObjective,
    };
    pub use rage_core::scoring::ScoringMethod;
    pub use rage_core::{
        CacheStats, Completeness, Context, Deadline, Evaluator, Perturbation, RagPipeline,
        RagResponse, RageError, RageReport, SearchBudget,
    };
    pub use rage_datasets::{Scenario, ScenarioEntry, ScenarioRegistry};
    pub use rage_llm::cache::PrefixCache;
    pub use rage_llm::model::{SimLlm, SimLlmConfig};
    pub use rage_llm::position_bias::PositionBiasProfile;
    pub use rage_llm::{Generation, LanguageModel, LlmInput, SourceText};
    pub use rage_report::{diff, from_json, render_html, render_markdown, to_json, ReportDiff};
    pub use rage_retrieval::{Corpus, Document, Retriever, Searcher, ShardedIndex};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::Arc;

    #[test]
    fn scenario_runs_through_the_umbrella_api() {
        let scenario = rage_datasets::us_open::scenario();
        let searcher = Searcher::from_corpus(&scenario.corpus, 1);
        let llm = SimLlm::new(SimLlmConfig::default().with_prior(scenario.prior.clone()));
        let pipeline = RagPipeline::new(searcher, Arc::new(llm));
        let response = pipeline
            .ask(&scenario.question, scenario.retrieval_k)
            .unwrap();
        assert_eq!(response.answer(), scenario.expected_full_context_answer);
    }
}

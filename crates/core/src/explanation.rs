//! The assembled explanation report.
//!
//! [`RageReport`] runs every explanation the engine offers over one
//! (question, context) pair — top-down and bottom-up combination
//! counterfactuals, the permutation counterfactual, best/worst optimal
//! permutations and permutation insights — sharing a single [`Evaluator`]
//! cache so overlapping perturbations are never paid for twice. This is the
//! object the demonstration UI of the paper renders, and what `rage-report`
//! turns into markdown.

use serde::{Deserialize, Serialize};

use rage_llm::position_bias::PositionBiasProfile;

use crate::budget::{Completeness, Deadline, SearchBudget};
use crate::context::Context;
use crate::counterfactual::{
    find_combination_counterfactual, find_permutation_counterfactual, CombinationOutcome,
    CounterfactualConfig, PermutationOutcome, SearchDirection, DEFAULT_PERMUTATION_BUDGET,
};
use crate::error::RageError;
use crate::evaluator::Evaluator;
use crate::insights::{random_permutations, Insights, DEFAULT_MIN_CONFIDENCE};
use crate::optimal::{
    ranked_orders_with_budget, OptimalConfig, OptimalPermutation, OrderObjective,
};
use crate::perturbation::Perturbation;
use crate::scoring::ScoringMethod;

/// Configuration for [`RageReport::generate`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReportConfig {
    /// Relevance estimator used by every search.
    pub scoring: ScoringMethod,
    /// Expected position-attention profile for the optimal permutations.
    pub position_bias: PositionBiasProfile,
    /// How many best (and worst) placements to rank.
    pub num_optimal_orders: usize,
    /// Evaluation budget per combination search.
    pub combination_budget: Option<usize>,
    /// Evaluation budget for the permutation counterfactual search.
    pub permutation_budget: Option<usize>,
    /// Number of random permutations sampled for the insights section.
    pub insight_samples: usize,
    /// RNG seed for the insight sample (the report is deterministic in it).
    pub seed: u64,
}

impl Default for ReportConfig {
    fn default() -> Self {
        Self {
            scoring: ScoringMethod::default(),
            position_bias: PositionBiasProfile::default(),
            num_optimal_orders: 3,
            combination_budget: Some(256),
            permutation_budget: Some(128),
            insight_samples: 24,
            seed: 7,
        }
    }
}

impl ReportConfig {
    /// The budget the permutation counterfactual search actually runs under:
    /// the explicit [`ReportConfig::permutation_budget`], or the engine-wide
    /// [`DEFAULT_PERMUTATION_BUDGET`] when unset. Reports surface this so a
    /// served report always states what bound it ran under.
    pub fn effective_permutation_budget(&self) -> usize {
        self.permutation_budget
            .unwrap_or(DEFAULT_PERMUTATION_BUDGET)
    }
}

/// Identity of the corpus a report was generated against.
///
/// Stamped by services that track mutable corpora (`rage_report::Service`): the
/// monotonically increasing corpus version, the order-independent content
/// fingerprint and the live document count at generation time. Library paths that
/// explain over an anonymous, immutable corpus leave it `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CorpusProvenance {
    /// Monotonically increasing mutation counter of the corpus (1 = as built).
    pub version: u64,
    /// Order-independent content hash of the corpus at generation time.
    pub fingerprint: u64,
    /// Number of live documents at generation time.
    pub num_docs: usize,
}

/// The complete explanation of one RAG answer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RageReport {
    /// The question being explained.
    pub question: String,
    /// The retrieved context `Dq`.
    pub context: Context,
    /// The answer over the full context (`a = L(q, Dq)`).
    pub full_context_answer: String,
    /// The answer with no context (prior knowledge only).
    pub empty_context_answer: String,
    /// Per-source relevance scores under the configured [`ScoringMethod`].
    pub source_scores: Vec<f64>,
    /// Top-down combination counterfactual (minimal answer-changing removal).
    pub top_down: CombinationOutcome,
    /// Bottom-up combination counterfactual (minimal answer-changing retention).
    pub bottom_up: CombinationOutcome,
    /// Permutation counterfactual (most similar answer-changing re-ordering).
    pub permutation: PermutationOutcome,
    /// The effective evaluation budget of the permutation counterfactual
    /// search — the configured value or [`DEFAULT_PERMUTATION_BUDGET`] when
    /// none was given — so the report states the bound it ran under.
    pub permutation_budget: usize,
    /// Best source placements, best-first.
    pub best_orders: Vec<OptimalPermutation>,
    /// Worst source placements, worst-first.
    pub worst_orders: Vec<OptimalPermutation>,
    /// Whether both placement rankings were fully evaluated, or a deadline cut
    /// them to a prefix (the markers of the two rankings merged).
    pub placements_completeness: Completeness,
    /// Insights over a random permutation sample.
    pub insights: Insights,
    /// Total distinct perturbations evaluated while building the report.
    pub evaluations: usize,
    /// Total LLM inferences paid for (cache hits excluded).
    pub llm_calls: usize,
    /// Identity of the corpus the report describes, when the generator tracks one.
    ///
    /// `None` on the library generation path ([`RageReport::generate`]); services
    /// with versioned corpora stamp it after generation.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub corpus: Option<CorpusProvenance>,
}

impl RageReport {
    /// Run every search over the evaluator's context and assemble the report.
    ///
    /// The lists known up front (the two baseline answers, each placement
    /// ranking and the insight sample) fan out across the evaluator's
    /// [`width`](Evaluator::width); the early-exit searches evaluate one
    /// candidate at a time. The report, cost counters included, is therefore
    /// the same at every width.
    pub fn generate(evaluator: &Evaluator, config: &ReportConfig) -> Result<Self, RageError> {
        Self::generate_with_deadline(evaluator, config, None)
    }

    /// Like [`RageReport::generate`] under an optional wall-clock [`Deadline`]
    /// — the *anytime* path.
    ///
    /// The deadline is shared by every section: each search checks it at its
    /// batch boundaries and stops with a
    /// [`Completeness::DeadlineTruncated`] marker instead of running on, so
    /// the report returns in bounded time with whatever each section resolved.
    /// The baseline answers and source scores are always computed (an anytime
    /// report still answers the question). The combination searches run
    /// *without* the [`CounterfactualConfig::with_pruning`] bound: that bound
    /// assumes perturbation-monotone evaluators, which served scenarios are
    /// not (see the counterfactual module docs), so an anytime report only
    /// ever truncates — it never skips work that could change an answer.
    /// With `deadline = None` this is exactly [`RageReport::generate`].
    pub fn generate_with_deadline(
        evaluator: &Evaluator,
        config: &ReportConfig,
        deadline: Option<Deadline>,
    ) -> Result<Self, RageError> {
        let evaluations_before = evaluator.evaluations();
        let llm_calls_before = evaluator.llm_calls();
        let baselines = [
            Perturbation::identity_combination(evaluator.k()),
            Perturbation::Combination(Vec::new()),
        ];
        let (generations, _) = evaluator.evaluate_within(&baselines, &SearchBudget::UNLIMITED)?;
        let [full, empty]: [_; 2] = generations.try_into().expect("one generation per baseline");
        let full_context_answer = full.answer;
        let empty_context_answer = empty.answer;
        let source_scores = config.scoring.source_scores(evaluator)?;

        let combination_config = CounterfactualConfig {
            direction: SearchDirection::TopDown,
            scoring: config.scoring,
            max_size: None,
            budget: SearchBudget::from(config.combination_budget).with_deadline_opt(deadline),
            // Never pruned, even under a deadline: the pruning bound is only
            // admissible for monotone evaluators, and a ranking scenario can
            // flip under a partial removal even when the full removal restores
            // the baseline answer.
            prune: false,
        };
        let top_down = find_combination_counterfactual(evaluator, &combination_config)?;
        let bottom_up = find_combination_counterfactual(
            evaluator,
            &CounterfactualConfig {
                direction: SearchDirection::BottomUp,
                ..combination_config
            },
        )?;
        let permutation_search_budget =
            SearchBudget::from(config.permutation_budget).with_deadline_opt(deadline);
        let permutation = find_permutation_counterfactual(evaluator, &permutation_search_budget)?;

        let optimal_config = OptimalConfig {
            scoring: config.scoring,
            position_bias: config.position_bias,
            num_orders: config.num_optimal_orders,
        };
        let placement_budget = SearchBudget::UNLIMITED.with_deadline_opt(deadline);
        let (best_orders, best_marker) = ranked_orders_with_budget(
            evaluator,
            &optimal_config,
            OrderObjective::Best,
            &placement_budget,
        )?;
        let (worst_orders, worst_marker) = ranked_orders_with_budget(
            evaluator,
            &optimal_config,
            OrderObjective::Worst,
            &placement_budget,
        )?;
        let placements_completeness = best_marker.merge(worst_marker);

        let samples = random_permutations(evaluator.k(), config.insight_samples, config.seed);
        let insights = Insights::with_budget(
            evaluator,
            &samples,
            DEFAULT_MIN_CONFIDENCE,
            &SearchBudget::UNLIMITED.with_deadline_opt(deadline),
        )?;

        Ok(RageReport {
            question: evaluator.question().to_string(),
            context: evaluator.context().clone(),
            full_context_answer,
            empty_context_answer,
            source_scores,
            top_down,
            bottom_up,
            permutation,
            permutation_budget: config.effective_permutation_budget(),
            best_orders,
            worst_orders,
            placements_completeness,
            insights,
            evaluations: evaluator.evaluations() - evaluations_before,
            llm_calls: evaluator.llm_calls() - llm_calls_before,
            corpus: None,
        })
    }

    /// Whether every section of the report resolved its whole search space.
    pub fn all_sections_exact(&self) -> bool {
        self.section_completeness().iter().all(|c| c.is_exact())
    }

    /// Whether a wall-clock deadline cut any section short. Such a report
    /// depends on timing, not only on its inputs; any other report equals the
    /// one generated without a deadline.
    pub fn deadline_truncated(&self) -> bool {
        self.section_completeness()
            .iter()
            .any(|c| matches!(c, Completeness::DeadlineTruncated { .. }))
    }

    /// The completeness marker of every section, in report order.
    fn section_completeness(&self) -> [&Completeness; 5] {
        [
            &self.top_down.completeness,
            &self.bottom_up.completeness,
            &self.permutation.completeness,
            &self.placements_completeness,
            &self.insights.completeness,
        ]
    }

    /// The document ids the explanation cites: the sources whose removal
    /// changes the answer (top-down counterfactual).
    pub fn citations(&self) -> Vec<&str> {
        self.top_down
            .counterfactual
            .as_ref()
            .map(|cf| self.context.doc_ids(&cf.removed))
            .unwrap_or_default()
    }

    /// Whether re-ordering the context can change the answer.
    pub fn order_sensitive(&self) -> bool {
        self.permutation.counterfactual.is_some()
    }

    /// A compact human-readable summary (one fact per line).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("question: {}\n", self.question));
        out.push_str(&format!("answer: {}\n", self.full_context_answer));
        out.push_str(&format!(
            "answer without context: {}\n",
            self.empty_context_answer
        ));
        match &self.top_down.counterfactual {
            Some(cf) => out.push_str(&format!(
                "citation (remove to change the answer): {:?} -> {}\n",
                self.citations(),
                cf.answer
            )),
            None => out.push_str("citation: none found\n"),
        }
        match &self.bottom_up.counterfactual {
            Some(cf) => out.push_str(&format!(
                "minimal supporting context: {} source(s) -> {}\n",
                cf.kept.len(),
                cf.answer
            )),
            None => out.push_str("minimal supporting context: none found\n"),
        }
        match &self.permutation.counterfactual {
            Some(cf) => out.push_str(&format!(
                "order sensitivity: re-ordering (tau {:.2}) changes the answer to {}\n",
                cf.tau, cf.answer
            )),
            None => out.push_str("order sensitivity: stable under tested re-orderings\n"),
        }
        if let Some(best) = self.best_orders.first() {
            out.push_str(&format!(
                "best placement: {:?} (objective {:.3}) -> {}\n",
                best.order, best.objective, best.answer
            ));
        }
        if let Some(top) = self.insights.distribution.top() {
            out.push_str(&format!(
                "answer share over {} sampled orders: {} at {:.0}%\n",
                self.insights.num_samples,
                top.answer,
                top.share * 100.0
            ));
        }
        out.push_str(&format!(
            "cost: {} evaluations, {} llm calls\n",
            self.evaluations, self.llm_calls
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rage_llm::model::{SimLlm, SimLlmConfig};
    use rage_retrieval::{Corpus, Document, Searcher};
    use std::sync::Arc;

    use crate::pipeline::RagPipeline;

    fn pipeline() -> RagPipeline {
        let mut corpus = Corpus::new();
        corpus.push(Document::new(
            "slams",
            "Grand slams",
            "Novak Djokovic holds the most grand slam titles with 24 championships.",
        ));
        corpus.push(Document::new(
            "wins",
            "Match wins",
            "Roger Federer leads total match wins with 369 victories on tour.",
        ));
        corpus.push(Document::new(
            "weeks",
            "Weeks at number one",
            "Novak Djokovic spent the most weeks ranked number one in tennis.",
        ));
        let searcher = Searcher::from_corpus(&corpus, 1);
        RagPipeline::new(searcher, Arc::new(SimLlm::new(SimLlmConfig::default())))
    }

    #[test]
    fn report_assembles_every_section() {
        let p = pipeline();
        let (response, evaluator) = p
            .ask_and_explain("Who holds the most grand slam titles?", 3)
            .unwrap();
        let report = RageReport::generate(&evaluator, &ReportConfig::default()).unwrap();

        assert_eq!(report.full_context_answer, response.answer());
        assert_eq!(report.question, "Who holds the most grand slam titles?");
        assert_eq!(report.source_scores.len(), report.context.len());
        // At most 3 ranked orders were requested; with a small retrieved
        // context there are only k! distinct orders in total.
        let expected_orders =
            3.min(rage_assignment::numeric::factorial(report.context.len()) as usize);
        assert_eq!(report.best_orders.len(), expected_orders);
        assert_eq!(report.worst_orders.len(), expected_orders);
        assert!(report.insights.num_samples > 0);
        assert!(report.llm_calls > 0);
        assert!(report.evaluations >= report.llm_calls);
    }

    #[test]
    fn report_is_deterministic() {
        let p = pipeline();
        let config = ReportConfig::default();
        let (_, ev1) = p
            .ask_and_explain("Who holds the most grand slam titles?", 3)
            .unwrap();
        let (_, ev2) = p
            .ask_and_explain("Who holds the most grand slam titles?", 3)
            .unwrap();
        let a = RageReport::generate(&ev1, &config).unwrap();
        let b = RageReport::generate(&ev2, &config).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn citations_name_the_counterfactual_documents() {
        let p = pipeline();
        let (_, evaluator) = p
            .ask_and_explain("Who holds the most grand slam titles?", 3)
            .unwrap();
        let report = RageReport::generate(&evaluator, &ReportConfig::default()).unwrap();
        if report.top_down.counterfactual.is_some() {
            assert!(!report.citations().is_empty());
            for id in report.citations() {
                assert!(report.context.position_of(id).is_some());
            }
        }
    }

    #[test]
    fn summary_mentions_the_headline_facts() {
        let p = pipeline();
        let (_, evaluator) = p
            .ask_and_explain("Who holds the most grand slam titles?", 3)
            .unwrap();
        let report = RageReport::generate(&evaluator, &ReportConfig::default()).unwrap();
        let summary = report.summary();
        assert!(summary.contains("question: Who holds the most grand slam titles?"));
        assert!(summary.contains(&format!("answer: {}", report.full_context_answer)));
        assert!(summary.contains("cost:"));
    }

    #[test]
    fn no_deadline_is_exactly_the_default_generation() {
        let p = pipeline();
        let config = ReportConfig::default();
        let (_, ev1) = p
            .ask_and_explain("Who holds the most grand slam titles?", 3)
            .unwrap();
        let (_, ev2) = p
            .ask_and_explain("Who holds the most grand slam titles?", 3)
            .unwrap();
        let plain = RageReport::generate(&ev1, &config).unwrap();
        let anytime = RageReport::generate_with_deadline(&ev2, &config, None).unwrap();
        assert_eq!(plain, anytime);
        assert!(plain.all_sections_exact());
        assert_eq!(
            plain.permutation_budget,
            config.effective_permutation_budget()
        );
    }

    #[test]
    fn a_deadline_that_never_fires_is_exactly_the_default_generation() {
        // What lets a service store a complete anytime report under the
        // exact report's cache key.
        let p = pipeline();
        let config = ReportConfig::default();
        let (_, ev1) = p
            .ask_and_explain("Who holds the most grand slam titles?", 3)
            .unwrap();
        let (_, ev2) = p
            .ask_and_explain("Who holds the most grand slam titles?", 3)
            .unwrap();
        let plain = RageReport::generate(&ev1, &config).unwrap();
        let generous =
            RageReport::generate_with_deadline(&ev2, &config, Some(Deadline::after_ms(600_000)))
                .unwrap();
        assert!(!generous.deadline_truncated());
        assert_eq!(plain, generous);
    }

    #[test]
    fn effective_permutation_budget_falls_back_to_the_default() {
        let explicit = ReportConfig::default();
        assert_eq!(explicit.effective_permutation_budget(), 128);
        let defaulted = ReportConfig {
            permutation_budget: None,
            ..ReportConfig::default()
        };
        assert_eq!(
            defaulted.effective_permutation_budget(),
            crate::counterfactual::DEFAULT_PERMUTATION_BUDGET
        );
    }

    #[test]
    fn expired_deadline_yields_a_bounded_truncated_report() {
        let p = pipeline();
        let (_, evaluator) = p
            .ask_and_explain("Who holds the most grand slam titles?", 3)
            .unwrap();
        let deadline = Deadline::after_ms(0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let report = RageReport::generate_with_deadline(
            &evaluator,
            &ReportConfig::default(),
            Some(deadline),
        )
        .unwrap();
        // The anytime report still answers the question...
        assert!(!report.full_context_answer.is_empty());
        assert_eq!(report.source_scores.len(), report.context.len());
        // ...but every search stopped at its first batch boundary.
        assert!(!report.all_sections_exact());
        assert!(report.deadline_truncated());
        assert!(matches!(
            report.permutation.completeness,
            Completeness::DeadlineTruncated { .. }
        ));
        assert!(matches!(
            report.placements_completeness,
            Completeness::DeadlineTruncated { .. }
        ));
        assert!(matches!(
            report.insights.completeness,
            Completeness::DeadlineTruncated { .. }
        ));
        assert!(report.best_orders.is_empty());
        assert_eq!(report.insights.num_samples, 0);
    }

    #[test]
    fn shared_cache_keeps_report_cost_sublinear() {
        let p = pipeline();
        let (_, evaluator) = p
            .ask_and_explain("Who holds the most grand slam titles?", 3)
            .unwrap();
        let report = RageReport::generate(&evaluator, &ReportConfig::default()).unwrap();
        // Every evaluation is an LLM call at most once.
        assert_eq!(report.llm_calls, report.evaluations);
        // Re-generating the report from the same evaluator is free.
        let calls_before = evaluator.llm_calls();
        RageReport::generate(&evaluator, &ReportConfig::default()).unwrap();
        assert_eq!(evaluator.llm_calls(), calls_before);
    }
}

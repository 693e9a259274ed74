//! Source-relevance scoring `S(q, d, Dq)`.
//!
//! RAGE lets the user pick between two relevance estimators for a source relative to the
//! query and the rest of the context (§II-C):
//!
//! 1. **Attention** — the LLM's attention values summed over all layers, heads and the
//!    tokens of the source (read out of the full-context generation).
//! 2. **Retrieval score** — the relevance score the retrieval model assigned.
//!
//! Both are used to order equal-size combinations during the counterfactual search and
//! to weight sources in the optimal-permutation objective. "Since we only compare scores
//! for combinations of equal size, there is no need to normalise combination scores by
//! the number of sources."

use serde::{Deserialize, Serialize};

use crate::error::RageError;
use crate::evaluator::Evaluator;

/// Which relevance estimator to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ScoringMethod {
    /// The LLM's aggregated attention over each source (one extra full-context call,
    /// answered from the evaluator's cache thereafter).
    #[default]
    Attention,
    /// The retrieval model's relevance scores.
    RetrievalScore,
}

impl ScoringMethod {
    /// Per-source relevance scores, in context order.
    pub fn source_scores(&self, evaluator: &Evaluator) -> Result<Vec<f64>, RageError> {
        match self {
            ScoringMethod::Attention => {
                let generation = evaluator.full_context_generation()?;
                let mut scores = generation.source_attention;
                // Defensive: an adapter model might not report attention; fall back to
                // uniform scores rather than biasing the search towards "no" sources.
                if scores.len() != evaluator.k() {
                    scores = vec![1.0; evaluator.k()];
                }
                Ok(scores)
            }
            ScoringMethod::RetrievalScore => Ok(evaluator.context().retrieval_scores()),
        }
    }

    /// The estimated relevance of a combination: the sum of its member sources' scores.
    pub fn combination_score(scores: &[f64], combination: &[usize]) -> f64 {
        combination
            .iter()
            .map(|&i| scores.get(i).copied().unwrap_or(0.0))
            .sum()
    }

    /// Short name used in reports and benchmark labels.
    pub fn label(&self) -> &'static str {
        match self {
            ScoringMethod::Attention => "attention",
            ScoringMethod::RetrievalScore => "retrieval-score",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Context;
    use crate::evaluator::Evaluator;
    use rage_llm::model::{SimLlm, SimLlmConfig};
    use rage_retrieval::{Corpus, Document, IndexBuilder, Searcher};
    use std::sync::Arc;

    fn evaluator() -> Evaluator {
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
            "Novak Djokovic spent the most weeks ranked number one.",
        ));
        let searcher = Searcher::new(IndexBuilder::default().build(&corpus));
        let query = "Who holds the most grand slam titles?";
        let hits = searcher.search(query, 3);
        let context = Context::from_ranked(query, &hits);
        Evaluator::new(Arc::new(SimLlm::new(SimLlmConfig::default())), context)
    }

    #[test]
    fn retrieval_scores_match_the_context() {
        let ev = evaluator();
        let scores = ScoringMethod::RetrievalScore.source_scores(&ev).unwrap();
        assert_eq!(scores, ev.context().retrieval_scores());
        assert_eq!(scores.len(), ev.k());
        // Retrieval scores arrive rank-ordered.
        for pair in scores.windows(2) {
            assert!(pair[0] >= pair[1]);
        }
    }

    #[test]
    fn attention_scores_have_one_entry_per_source() {
        let ev = evaluator();
        let scores = ScoringMethod::Attention.source_scores(&ev).unwrap();
        assert_eq!(scores.len(), ev.k());
        assert!(scores.iter().all(|&s| s >= 0.0));
        let total: f64 = scores.iter().sum();
        assert!(total > 0.0);
    }

    #[test]
    fn attention_scoring_reuses_the_cached_full_context_call() {
        let ev = evaluator();
        ScoringMethod::Attention.source_scores(&ev).unwrap();
        ScoringMethod::Attention.source_scores(&ev).unwrap();
        // One full-context generation only.
        assert_eq!(ev.llm_calls(), 1);
    }

    #[test]
    fn combination_scores_sum_member_scores() {
        let scores = vec![3.0, 1.0, 2.0];
        assert_eq!(ScoringMethod::combination_score(&scores, &[0, 2]), 5.0);
        assert_eq!(ScoringMethod::combination_score(&scores, &[]), 0.0);
        assert_eq!(ScoringMethod::combination_score(&scores, &[9]), 0.0);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ScoringMethod::Attention.label(), "attention");
        assert_eq!(ScoringMethod::RetrievalScore.label(), "retrieval-score");
        assert_eq!(ScoringMethod::default(), ScoringMethod::Attention);
    }
}

//! Prior ("pre-trained") knowledge of the simulated model.
//!
//! Open-book question answering combines retrieved context with the model's own trained
//! knowledge. RAGE's bottom-up counterfactuals hinge on the *empty-context* answer — the
//! answer the LLM gives from its prior knowledge alone — and its hallucination scenarios
//! hinge on that prior sometimes being stale or wrong. [`PriorKnowledge`] models this as
//! a weighted list of keyword-triggered facts.

use serde::{Deserialize, Serialize};

use crate::tokenizer::SimTokenizer;

/// One remembered fact: an answer triggered by question keywords.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PriorFact {
    /// Lowercased keywords; the fact fires when enough of them occur in the question.
    pub keywords: Vec<String>,
    /// The answer the model "remembers".
    pub answer: String,
    /// Strength of the memory in `[0, 1]`; competes against context evidence.
    pub weight: f64,
}

impl PriorFact {
    /// Create a fact from keywords, an answer and a weight.
    pub fn new(keywords: &[&str], answer: impl Into<String>, weight: f64) -> Self {
        Self {
            keywords: keywords.iter().map(|k| k.to_lowercase()).collect(),
            answer: answer.into(),
            weight,
        }
    }
}

/// A match of a prior fact against a question.
#[derive(Debug, Clone, PartialEq)]
pub struct PriorMatch {
    /// The remembered answer.
    pub answer: String,
    /// The fact's weight scaled by how completely its keywords matched.
    pub score: f64,
}

/// The model's store of prior facts.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PriorKnowledge {
    facts: Vec<PriorFact>,
}

impl PriorKnowledge {
    /// An empty prior (the model knows nothing beyond its context).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Add a fact (builder style).
    pub fn with_fact(mut self, fact: PriorFact) -> Self {
        self.facts.push(fact);
        self
    }

    /// Number of stored facts.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// Whether the store holds no facts.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// The best-matching fact for a question, if any fact matches at least half of its
    /// keywords.
    pub fn recall(&self, question: &str) -> Option<PriorMatch> {
        let tokenizer = SimTokenizer::new();
        let question_words: Vec<String> = tokenizer.words(question);
        let mut best: Option<PriorMatch> = None;
        for fact in &self.facts {
            if fact.keywords.is_empty() {
                continue;
            }
            let matched = fact
                .keywords
                .iter()
                .filter(|k| question_words.iter().any(|w| w == *k))
                .count();
            let coverage = matched as f64 / fact.keywords.len() as f64;
            if coverage < 0.5 {
                continue;
            }
            let score = fact.weight * coverage;
            if best.as_ref().is_none_or(|b| score > b.score) {
                best = Some(PriorMatch {
                    answer: fact.answer.clone(),
                    score,
                });
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prior() -> PriorKnowledge {
        PriorKnowledge::empty()
            .with_fact(PriorFact::new(
                &["best", "tennis", "player"],
                "Novak Djokovic",
                0.3,
            ))
            .with_fact(PriorFact::new(
                &["us", "open", "women", "champion"],
                "Serena Williams",
                0.25,
            ))
            .with_fact(PriorFact::new(&["capital", "france"], "Paris", 0.9))
    }

    #[test]
    fn recalls_matching_fact() {
        let p = prior();
        let m = p
            .recall("Who is the best tennis player of all time?")
            .unwrap();
        assert_eq!(m.answer, "Novak Djokovic");
        assert!((m.score - 0.3).abs() < 1e-9);
    }

    #[test]
    fn partial_matches_scale_the_score() {
        let p = prior();
        // Only 3 of the 4 keywords match.
        let m = p.recall("who won the us open women's final").unwrap();
        assert_eq!(m.answer, "Serena Williams");
        assert!(m.score < 0.25);
        assert!(m.score >= 0.25 * 0.5);
    }

    #[test]
    fn below_half_coverage_does_not_fire() {
        let p = prior();
        assert!(p.recall("tell me about football transfers").is_none());
        // One of three keywords is not enough.
        assert!(p.recall("what is the best pizza topping").is_none());
    }

    #[test]
    fn picks_highest_scoring_fact() {
        let p = PriorKnowledge::empty()
            .with_fact(PriorFact::new(&["winner"], "Weak Answer", 0.1))
            .with_fact(PriorFact::new(&["winner", "race"], "Strong Answer", 0.8));
        let m = p.recall("who is the winner of the race").unwrap();
        assert_eq!(m.answer, "Strong Answer");
    }

    #[test]
    fn empty_prior_recalls_nothing() {
        assert!(PriorKnowledge::empty()
            .recall("any question at all")
            .is_none());
        assert!(PriorKnowledge::empty().is_empty());
        assert_eq!(prior().len(), 3);
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let p =
            PriorKnowledge::empty().with_fact(PriorFact::new(&["FRANCE", "Capital"], "Paris", 1.0));
        assert_eq!(
            p.recall("What is the CAPITAL of France?").unwrap().answer,
            "Paris"
        );
    }
}

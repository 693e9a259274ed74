//! Per-source attention aggregation.
//!
//! RAGE's first relevance-scoring method "aggregate\[s\] the LLM's attention values,
//! summing them over all internal layers, attention heads, and tokens corresponding to a
//! combination's constituent sources" (§II-C). This module performs that aggregation
//! over the [`AttentionRecord`] produced by the simulated transformer.

use crate::tokenizer::TokenizedPrompt;
use crate::transformer::AttentionRecord;

/// Attention mass attributed to each source of a prompt.
///
/// `masses[i]` is the attention received by source `i` (in prompt order), summed over
/// every layer, every head and every question token, restricted to key positions inside
/// the source's token span. The `normalised` form divides by the total mass over all
/// sources, yielding a distribution when at least one source received attention.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceAttention {
    /// Raw summed attention mass per source.
    pub masses: Vec<f64>,
}

impl SourceAttention {
    /// Normalise to a distribution over sources (empty if there are no sources or the
    /// total mass is zero).
    pub fn normalised(&self) -> Vec<f64> {
        let total: f64 = self.masses.iter().sum();
        if total <= 0.0 {
            return vec![0.0; self.masses.len()];
        }
        self.masses.iter().map(|m| m / total).collect()
    }
}

/// Sum the attention of the question-token queries into each source's key span, over
/// all layers and heads.
///
/// This measures how much the *question* attends to each source; query rows inside the
/// sources would favour long sources merely for their span size. It reads only the
/// question rows, so a
/// [`ReadOut::QuestionRows`](crate::transformer::ReadOut::QuestionRows) record suffices.
pub fn aggregate_question_to_source_attention(
    record: &AttentionRecord,
    prompt: &TokenizedPrompt,
) -> SourceAttention {
    let mut masses = vec![0.0; prompt.source_spans.len()];
    if record.seq_len == 0 || prompt.source_spans.is_empty() {
        return SourceAttention { masses };
    }
    let (q_start, q_end) = prompt.question_span;
    for layer in &record.layers {
        for head in &layer.heads {
            for q in q_start..q_end.min(record.seq_len) {
                let row = head.row(q);
                for (source_idx, &(start, end)) in prompt.source_spans.iter().enumerate() {
                    let span_mass: f64 = row[start..end.min(row.len())].iter().sum();
                    masses[source_idx] += span_mass;
                }
            }
        }
    }
    SourceAttention { masses }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::SimTokenizer;
    use crate::transformer::{Transformer, TransformerConfig};
    use crate::{LlmInput, SourceText};

    fn setup(question: &str, sources: Vec<SourceText>) -> (AttentionRecord, TokenizedPrompt) {
        let tok = SimTokenizer::new();
        let prompt = tok.tokenize_prompt(&LlmInput::new(question, sources));
        let record = Transformer::new(TransformerConfig::default()).forward(&prompt);
        (record, prompt)
    }

    #[test]
    fn aggregation_produces_one_mass_per_source() {
        let (record, prompt) = setup(
            "who is the champion",
            vec![
                SourceText::new("a", "gauff is the champion"),
                SourceText::new("b", "swiatek won earlier"),
                SourceText::new("c", "completely unrelated cooking text"),
            ],
        );
        let attention = aggregate_question_to_source_attention(&record, &prompt);
        assert_eq!(attention.masses.len(), 3);
        assert!(attention.masses.iter().all(|&m| m > 0.0));
    }

    #[test]
    fn normalised_masses_sum_to_one() {
        let (record, prompt) = setup(
            "question words",
            vec![
                SourceText::new("a", "alpha beta"),
                SourceText::new("b", "gamma delta epsilon"),
            ],
        );
        let attention = aggregate_question_to_source_attention(&record, &prompt);
        let normalised = attention.normalised();
        let total: f64 = normalised.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn question_to_source_prefers_lexically_matching_source() {
        let (record, prompt) = setup(
            "who holds the most grand slam titles in tennis history",
            vec![
                SourceText::new(
                    "match",
                    "djokovic holds the most grand slam titles in tennis",
                ),
                SourceText::new("noise", "chop the carrots and simmer the broth with thyme"),
            ],
        );
        let attention = aggregate_question_to_source_attention(&record, &prompt);
        assert!(
            attention.masses[0] > attention.masses[1],
            "{:?}",
            attention.masses
        );
    }

    #[test]
    fn no_sources_yields_empty_masses() {
        let (record, prompt) = setup("only a question", vec![]);
        let attention = aggregate_question_to_source_attention(&record, &prompt);
        assert!(attention.masses.is_empty());
        assert!(attention.normalised().is_empty());
    }

    #[test]
    fn zero_mass_normalisation_is_safe() {
        let attention = SourceAttention {
            masses: vec![0.0, 0.0],
        };
        assert_eq!(attention.normalised(), vec![0.0, 0.0]);
    }
}

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
/// every layer, every head and every query token, restricted to key positions inside the
/// source's token span. The `normalised` form divides by the total mass over all
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

    /// Index of the source with the highest mass, if any.
    pub fn argmax(&self) -> Option<usize> {
        self.masses
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
    }
}

/// Sum attention over all layers, heads and query tokens into each source's key span.
///
/// Reads every row, so the record must come from a
/// [`ReadOut::AllRows`](crate::transformer::ReadOut::AllRows) forward; a
/// record missing rows panics instead of under-counting.
pub fn aggregate_source_attention(
    record: &AttentionRecord,
    prompt: &TokenizedPrompt,
) -> SourceAttention {
    let mut masses = vec![0.0; prompt.source_spans.len()];
    if record.seq_len == 0 || prompt.source_spans.is_empty() {
        return SourceAttention { masses };
    }
    for layer in &record.layers {
        for head in &layer.heads {
            assert_eq!(
                head.rows, record.seq_len,
                "whole-prompt aggregation reads every row of every layer"
            );
            for q in 0..record.seq_len {
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

/// Sum attention restricted to question-token queries only.
///
/// This variant measures how much the *question* attends to each source, which is a
/// sharper relevance signal than whole-prompt aggregation when sources are long. It
/// reads only the question rows, so a
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
        let attention = aggregate_source_attention(&record, &prompt);
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
        let attention = aggregate_source_attention(&record, &prompt);
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
        assert_eq!(attention.argmax(), Some(0));
    }

    #[test]
    fn no_sources_yields_empty_masses() {
        let (record, prompt) = setup("only a question", vec![]);
        let attention = aggregate_source_attention(&record, &prompt);
        assert!(attention.masses.is_empty());
        assert!(attention.normalised().is_empty());
        assert_eq!(attention.argmax(), None);
    }

    #[test]
    #[should_panic(expected = "reads every row")]
    fn whole_prompt_aggregation_rejects_a_question_rows_record() {
        use crate::transformer::ReadOut;
        let tok = SimTokenizer::new();
        let prompt = tok.tokenize_prompt(&LlmInput::new(
            "who is the champion",
            vec![SourceText::new("a", "gauff is the champion")],
        ));
        let record = Transformer::new(TransformerConfig::default()).forward_cached(
            &prompt,
            None,
            ReadOut::QuestionRows,
        );
        aggregate_source_attention(&record, &prompt);
    }

    #[test]
    fn zero_mass_normalisation_is_safe() {
        let attention = SourceAttention {
            masses: vec![0.0, 0.0],
        };
        assert_eq!(attention.normalised(), vec![0.0, 0.0]);
    }

    #[test]
    fn longer_sources_receive_more_whole_prompt_mass() {
        // Whole-prompt aggregation is span-size sensitive (more key positions), which is
        // exactly why the model also exposes the question-restricted variant.
        let (record, prompt) = setup(
            "short question",
            vec![
                SourceText::new("long", "one two three four five six seven eight nine ten"),
                SourceText::new("short", "one"),
            ],
        );
        let attention = aggregate_source_attention(&record, &prompt);
        assert!(attention.masses[0] > attention.masses[1]);
    }
}

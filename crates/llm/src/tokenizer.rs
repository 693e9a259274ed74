//! Word-level tokenisation with a hashing vocabulary.
//!
//! The simulated model does not need a learned BPE vocabulary; it needs (a) a stable
//! mapping from surface tokens to ids so identical words share embeddings, and (b) exact
//! knowledge of which token positions belong to which context source so attention mass
//! can be attributed per source. [`SimTokenizer`] provides both.

use serde::{Deserialize, Serialize};

use crate::LlmInput;

/// Hash space size for token ids (also the embedding table size).
pub const VOCAB_SIZE: usize = 32_768;

/// Reserved id for the source delimiter token inserted between context sources.
pub const DELIMITER_TOKEN_ID: u32 = 0;
/// Reserved id for the question/introduction marker token.
pub const QUESTION_TOKEN_ID: u32 = 1;
/// First id available to hashed vocabulary tokens.
const FIRST_HASH_ID: u32 = 8;

/// A single prompt token: its vocabulary id and the segment it came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PromptToken {
    /// Vocabulary id (stable hash of the lowercased surface form).
    pub id: u32,
    /// Which part of the prompt this token belongs to.
    pub segment: Segment,
}

/// The prompt segment a token belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Segment {
    /// Question tokens (including the instruction preamble marker).
    Question,
    /// A delimiter between sources.
    Delimiter,
    /// Token of the source with the given index in the prompt's source order.
    Source(u16),
}

/// The tokenised prompt: the flat token sequence plus per-source span bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TokenizedPrompt {
    /// Flat token sequence (question first, then delimited sources in order).
    pub tokens: Vec<PromptToken>,
    /// Half-open token ranges `[start, end)` of each source, in prompt source order.
    pub source_spans: Vec<(usize, usize)>,
    /// Half-open token range of the question segment.
    pub question_span: (usize, usize),
}

impl TokenizedPrompt {
    /// Total number of tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the prompt tokenised to nothing (only possible for an empty question and
    /// no sources).
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }
}

/// Whether `ch` belongs to a word; every other character separates words.
fn is_word_char(ch: char) -> bool {
    ch.is_alphanumeric() || ch == '\''
}

/// The number of words [`SimTokenizer::words`] splits `text` into.
fn count_words(text: &str) -> usize {
    let mut count = 0;
    let mut in_word = false;
    for ch in text.chars() {
        let word_char = is_word_char(ch);
        count += usize::from(word_char && !in_word);
        in_word = word_char;
    }
    count
}

/// Word-level tokenizer with deterministic hashed ids.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SimTokenizer;

impl SimTokenizer {
    /// Create the tokenizer.
    pub fn new() -> Self {
        Self
    }

    /// Split text into lowercase word tokens (alphanumerics and apostrophes).
    pub fn words(&self, text: &str) -> Vec<String> {
        let mut words = Vec::new();
        let mut current = String::new();
        for ch in text.chars() {
            if is_word_char(ch) {
                current.extend(ch.to_lowercase());
            } else if !current.is_empty() {
                words.push(std::mem::take(&mut current));
            }
        }
        if !current.is_empty() {
            words.push(current);
        }
        words
    }

    /// The number of tokens [`SimTokenizer::tokenize_prompt`] produces for a
    /// question and the texts of its sources, counted without tokenising or
    /// allocating: the question marker and words, then a delimiter and the
    /// words of each source.
    pub fn prompt_len<'a>(
        &self,
        question: &str,
        sources: impl IntoIterator<Item = &'a str>,
    ) -> usize {
        1 + count_words(question)
            + sources
                .into_iter()
                .map(|text| 1 + count_words(text))
                .sum::<usize>()
    }

    /// Deterministic vocabulary id of a word (FNV-1a hash folded into the vocab space).
    pub fn token_id(&self, word: &str) -> u32 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x1000_0000_01b3;
        let mut hash = FNV_OFFSET;
        for byte in word.as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        FIRST_HASH_ID + (hash % (VOCAB_SIZE as u64 - u64::from(FIRST_HASH_ID))) as u32
    }

    /// Tokenise a full structured prompt, recording source spans.
    pub fn tokenize_prompt(&self, input: &LlmInput) -> TokenizedPrompt {
        let mut tokens = Vec::new();

        // Question segment, prefixed by a question marker token.
        tokens.push(PromptToken {
            id: QUESTION_TOKEN_ID,
            segment: Segment::Question,
        });
        for word in self.words(&input.question) {
            tokens.push(PromptToken {
                id: self.token_id(&word),
                segment: Segment::Question,
            });
        }
        let question_span = (0, tokens.len());

        // Delimited sources.
        let mut source_spans = Vec::with_capacity(input.sources.len());
        for (idx, source) in input.sources.iter().enumerate() {
            tokens.push(PromptToken {
                id: DELIMITER_TOKEN_ID,
                segment: Segment::Delimiter,
            });
            let start = tokens.len();
            for word in self.words(&source.text) {
                tokens.push(PromptToken {
                    id: self.token_id(&word),
                    segment: Segment::Source(idx as u16),
                });
            }
            source_spans.push((start, tokens.len()));
        }

        TokenizedPrompt {
            tokens,
            source_spans,
            question_span,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SourceText;

    fn input() -> LlmInput {
        LlmInput::new(
            "Who is the best tennis player?",
            vec![
                SourceText::new("d1", "Federer leads match wins."),
                SourceText::new("d2", "Djokovic has the most slams."),
            ],
        )
    }

    #[test]
    fn words_are_lowercased_and_split() {
        let tok = SimTokenizer::new();
        assert_eq!(
            tok.words("Coco Gauff won, in 2023!"),
            vec!["coco", "gauff", "won", "in", "2023"]
        );
    }

    #[test]
    fn token_ids_are_stable_and_distinct() {
        let tok = SimTokenizer::new();
        assert_eq!(tok.token_id("federer"), tok.token_id("federer"));
        assert_ne!(tok.token_id("federer"), tok.token_id("djokovic"));
        assert!(tok.token_id("anything") >= 8);
        assert!((tok.token_id("anything") as usize) < VOCAB_SIZE);
    }

    #[test]
    fn prompt_spans_cover_sources() {
        let tok = SimTokenizer::new();
        let prompt = tok.tokenize_prompt(&input());
        assert_eq!(prompt.source_spans.len(), 2);
        // Every token inside a span belongs to that source.
        for (idx, &(start, end)) in prompt.source_spans.iter().enumerate() {
            assert!(start < end);
            for token in &prompt.tokens[start..end] {
                assert_eq!(token.segment, Segment::Source(idx as u16));
            }
        }
        // Question span starts at zero and has the marker plus six words.
        assert_eq!(prompt.question_span.0, 0);
        assert_eq!(prompt.question_span.1, 7);
    }

    #[test]
    fn delimiters_are_not_attributed_to_sources() {
        let tok = SimTokenizer::new();
        let prompt = tok.tokenize_prompt(&input());
        let delimiter_positions: Vec<usize> = prompt
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.segment == Segment::Delimiter)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(delimiter_positions.len(), 2);
        for pos in delimiter_positions {
            assert!(prompt
                .source_spans
                .iter()
                .all(|&(start, end)| !(start..end).contains(&pos)));
        }
    }

    #[test]
    fn empty_context_prompt() {
        let tok = SimTokenizer::new();
        let prompt = tok.tokenize_prompt(&LlmInput::without_context("Who won?"));
        assert!(prompt.source_spans.is_empty());
        assert!(!prompt.is_empty());
        assert_eq!(prompt.len(), 3); // marker + "who" + "won"
    }

    #[test]
    fn prompt_len_counts_what_tokenize_prompt_builds() {
        let tok = SimTokenizer::new();
        let inputs = [
            input(),
            LlmInput::without_context(""),
            LlmInput::without_context("  ...  "),
            LlmInput::new(
                "Who's the 2023 champion, Coco?",
                vec![
                    SourceText::new("a", "Gauff—champion; Świątek: runner-up!"),
                    SourceText::new("b", ""),
                    SourceText::new("c", "it's  O'Neill's   turn\n\tnow"),
                ],
            ),
        ];
        for input in &inputs {
            let texts = input.sources.iter().map(|s| s.text.as_str());
            assert_eq!(
                tok.prompt_len(&input.question, texts),
                tok.tokenize_prompt(input).len(),
                "{input:?}"
            );
        }
    }

    #[test]
    fn identical_words_share_ids_across_segments() {
        let tok = SimTokenizer::new();
        let prompt = tok.tokenize_prompt(&LlmInput::new(
            "federer wins",
            vec![SourceText::new("d", "federer wins again")],
        ));
        let question_ids: Vec<u32> = prompt.tokens
            [prompt.question_span.0 + 1..prompt.question_span.1]
            .iter()
            .map(|t| t.id)
            .collect();
        let (s, e) = prompt.source_spans[0];
        let source_ids: Vec<u32> = prompt.tokens[s..e].iter().map(|t| t.id).collect();
        assert_eq!(question_ids[0], source_ids[0]);
        assert_eq!(question_ids[1], source_ids[1]);
    }
}

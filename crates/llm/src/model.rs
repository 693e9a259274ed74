//! The simulated grounded-QA language model.
//!
//! [`SimLlm`] ties the substrate together: it tokenises the structured prompt, runs the
//! attention stack, aggregates per-source attention, applies the positional prior,
//! extracts candidate answers from each source and aggregates the evidence into a final
//! answer. Its externally visible behaviour is calibrated to the phenomena the RAGE
//! paper studies (see the crate-level documentation); everything is deterministic for a
//! fixed configuration.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

use crate::attention::aggregate_question_to_source_attention;
use crate::cache::PrefixCache;
use crate::extraction::{classify_question, extract_candidates, QuestionKind};
use crate::knowledge::PriorKnowledge;
use crate::position_bias::PositionBiasProfile;
use crate::tokenizer::SimTokenizer;
use crate::transformer::{ReadOut, Transformer, TransformerConfig};
use crate::{Generation, LanguageModel, LlmInput};

/// Human-readable model name used in reports.
const MODEL_NAME: &str = "sim-llama-chat";

/// Linear primacy tilt on top of the position prior: position `x ∈ [0, 1]` is scaled
/// by `1 − PRIMACY_TILT·x`, reflecting the observation that primacy slightly outweighs
/// recency.
const PRIMACY_TILT: f64 = 0.15;

/// For "most recent" questions: a source participates only if its effective attention
/// is at least this fraction of the maximum (models sources being overlooked when
/// buried in the middle of the context).
const RECENT_THRESHOLD: f64 = 0.55;

/// For counting questions: minimum fraction of the maximum effective attention a
/// source needs to be counted (low, so counting is robust to ordering).
const COUNT_THRESHOLD: f64 = 0.05;

/// Configuration of the simulated model.
///
/// The model's position prior is [`PositionBiasProfile::default`] ("lost in the
/// middle"), and evidence for one answer from several sources counts as its single
/// strongest piece: that is what makes the answer follow the most-attended source, as
/// in the paper's Big Three narrative.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimLlmConfig {
    /// Attention-stack configuration.
    pub transformer: TransformerConfig,
    /// Prior (pre-trained) knowledge store.
    pub prior: PriorKnowledge,
}

impl SimLlmConfig {
    /// A configuration with prior knowledge attached (builder style).
    pub fn with_prior(mut self, prior: PriorKnowledge) -> Self {
        self.prior = prior;
        self
    }
}

/// The simulated grounded-QA model.
#[derive(Debug, Clone)]
pub struct SimLlm {
    config: SimLlmConfig,
    tokenizer: SimTokenizer,
    transformer: Transformer,
    prefix_cache: Option<Arc<PrefixCache>>,
    use_reference_forward: bool,
}

impl SimLlm {
    /// Build the model from a configuration.
    pub fn new(config: SimLlmConfig) -> Self {
        let transformer = Transformer::new(config.transformer);
        Self {
            config,
            tokenizer: SimTokenizer::new(),
            transformer,
            prefix_cache: None,
            use_reference_forward: false,
        }
    }

    /// Attach a [`PrefixCache`] so forward passes reuse per-`(token, position)`
    /// input embeddings across perturbed prompts.
    ///
    /// Caching never changes outputs (see the `cache` module invariants); it
    /// only trades memory for recomputation. The cache entries are functions
    /// of this model's seed and dimensions, so **never** share one cache
    /// between models built from different [`TransformerConfig`]s. Both
    /// forward paths fill embeddings identically, so a
    /// [`SimLlm::with_reference_forward`] model of the same configuration may
    /// share the cache. Cloning the model shares the cache handle, which is
    /// the intended way to hand the same model to multiple worker threads.
    pub fn with_prefix_cache(mut self, cache: Arc<PrefixCache>) -> Self {
        self.prefix_cache = Some(cache);
        self
    }

    /// The attached prefix cache, if any.
    pub fn prefix_cache(&self) -> Option<&Arc<PrefixCache>> {
        self.prefix_cache.as_ref()
    }

    /// Hit/miss/eviction counters of the attached prefix cache, if any.
    ///
    /// Surfaced so harnesses and benches can report cache effectiveness
    /// alongside timings without reaching into the cache handle themselves.
    pub fn prefix_cache_stats(&self) -> Option<crate::cache::CacheStats> {
        self.prefix_cache.as_ref().map(|cache| cache.stats())
    }

    /// Route forward passes through the straight-line
    /// [`Transformer::forward_reference`] oracle instead of the fused
    /// kernels.
    ///
    /// The fused path stays within a documented ULP bound of the oracle (see
    /// the [`kernels`](crate::kernels) module docs). This switch exists so
    /// the differential test suite can run whole pipelines and evaluators
    /// against the reference implementation and compare what the reports
    /// explain. Production code has no reason to turn it on: the reference
    /// path allocates per query position and is several times slower.
    pub fn with_reference_forward(mut self) -> Self {
        self.use_reference_forward = true;
        self
    }

    /// Effective per-source attention: content attention (from the transformer) scaled
    /// by the positional prior and the primacy tilt, normalised to sum to one.
    fn effective_attention(&self, input: &LlmInput) -> (Vec<f64>, usize) {
        let prompt = self.tokenizer.tokenize_prompt(input);
        let k = input.sources.len();
        if k == 0 {
            return (Vec::new(), prompt.len());
        }
        // The read-out is the question rows' attention into each source, so
        // the fused forward computes only those rows of its last layer.
        let record = if self.use_reference_forward {
            self.transformer
                .forward_reference(&prompt, self.prefix_cache.as_deref())
        } else {
            self.transformer.forward_cached(
                &prompt,
                self.prefix_cache.as_deref(),
                ReadOut::QuestionRows,
            )
        };
        let content = aggregate_question_to_source_attention(&record, &prompt).normalised();
        // The record is fully aggregated; hand its matrices back so the next
        // forward reuses their allocations instead of faulting fresh pages.
        self.transformer.recycle(record);

        let position_bias = PositionBiasProfile::default();
        let mut effective: Vec<f64> = (0..k)
            .map(|i| {
                let x = if k <= 1 {
                    0.0
                } else {
                    i as f64 / (k - 1) as f64
                };
                let tilt = 1.0 - PRIMACY_TILT * x;
                content[i] * position_bias.weight(i, k) * tilt
            })
            .collect();
        let total: f64 = effective.iter().sum();
        if total > 0.0 {
            for value in effective.iter_mut() {
                *value /= total;
            }
        }
        (effective, prompt.len())
    }

    /// Answer a counting question.
    fn answer_count(
        &self,
        input: &LlmInput,
        effective: &[f64],
        entity: &Option<String>,
        year_range: &Option<(i32, i32)>,
        kind: &QuestionKind,
    ) -> String {
        let max_eff = effective.iter().cloned().fold(0.0_f64, f64::max);
        let threshold = COUNT_THRESHOLD * max_eff;
        let mut years: Vec<i32> = Vec::new();
        let mut yearless_hits = 0usize;
        for (i, source) in input.sources.iter().enumerate() {
            if effective[i] < threshold {
                continue;
            }
            let candidates = extract_candidates(kind, &input.question, &source.text);
            for candidate in candidates {
                let entity_matches = match entity {
                    Some(target) => {
                        let cand = candidate.answer.to_lowercase();
                        cand.contains(target.as_str()) || target.contains(cand.as_str())
                    }
                    None => true,
                };
                if !entity_matches {
                    continue;
                }
                match candidate.year {
                    Some(year) => {
                        let in_range = year_range.is_none_or(|(lo, hi)| year >= lo && year <= hi);
                        if in_range && !years.contains(&year) {
                            years.push(year);
                        }
                    }
                    None => yearless_hits += 1,
                }
            }
        }
        let count = if years.is_empty() {
            // Without years, fall back to counting supporting sources.
            yearless_hits
        } else {
            years.len()
        };
        count.to_string()
    }

    /// Answer a "most recent" question.
    fn answer_most_recent(
        &self,
        input: &LlmInput,
        effective: &[f64],
        kind: &QuestionKind,
    ) -> Option<String> {
        let max_eff = effective.iter().cloned().fold(0.0_f64, f64::max);
        let threshold = RECENT_THRESHOLD * max_eff;
        let mut best: Option<(i32, f64, String)> = None;
        for (i, source) in input.sources.iter().enumerate() {
            if effective[i] < threshold {
                continue;
            }
            for candidate in extract_candidates(kind, &input.question, &source.text) {
                let Some(year) = candidate.year else { continue };
                let strength = effective[i] * candidate.confidence;
                let better = match &best {
                    None => true,
                    Some((by, bs, _)) => year > *by || (year == *by && strength > *bs),
                };
                if better {
                    best = Some((year, strength, candidate.answer.clone()));
                }
            }
        }
        best.map(|(_, _, answer)| answer)
    }

    /// Answer a superlative or factoid question: each answer scores its strongest
    /// piece of evidence, from a source or from prior knowledge.
    fn answer_scored(
        &self,
        input: &LlmInput,
        effective: &[f64],
        kind: &QuestionKind,
    ) -> Option<String> {
        // answer key (lowercased) -> (score, surface form)
        let mut scores: BTreeMap<String, (f64, String)> = BTreeMap::new();
        let mut support = |answer: &str, contribution: f64| {
            let entry = scores
                .entry(answer.to_lowercase())
                .or_insert((0.0, answer.to_string()));
            if contribution > entry.0 {
                entry.0 = contribution;
            }
        };
        for (i, source) in input.sources.iter().enumerate() {
            for candidate in extract_candidates(kind, &input.question, &source.text) {
                support(&candidate.answer, effective[i] * candidate.confidence);
            }
        }
        if let Some(prior) = self.config.prior.recall(&input.question) {
            support(&prior.answer, prior.score);
        }
        // BTreeMap iteration is key-ascending; keeping only strictly-greater scores makes
        // ties resolve to the lexicographically smallest answer, deterministically.
        let mut best: Option<(f64, String)> = None;
        for (_, (score, surface)) in scores {
            if best.as_ref().is_none_or(|(bs, _)| score > *bs) {
                best = Some((score, surface));
            }
        }
        best.map(|(_, surface)| surface)
    }

    /// The answer the model gives with *no* context at all (prior knowledge only).
    fn empty_context_answer(&self, question: &str, kind: &QuestionKind) -> String {
        if let Some(prior) = self.config.prior.recall(question) {
            return prior.answer;
        }
        match kind {
            QuestionKind::Count { .. } => "0".to_string(),
            _ => "I do not know".to_string(),
        }
    }
}

impl LanguageModel for SimLlm {
    fn generate(&self, input: &LlmInput) -> Generation {
        let kind = classify_question(&input.question);
        let (effective, prompt_tokens) = self.effective_attention(input);

        let answer = if input.sources.is_empty() {
            self.empty_context_answer(&input.question, &kind)
        } else {
            match &kind {
                QuestionKind::Count { entity, year_range } => {
                    self.answer_count(input, &effective, entity, year_range, &kind)
                }
                QuestionKind::MostRecent => self
                    .answer_most_recent(input, &effective, &kind)
                    .or_else(|| self.answer_scored(input, &effective, &kind))
                    .unwrap_or_else(|| self.empty_context_answer(&input.question, &kind)),
                QuestionKind::Superlative | QuestionKind::Factoid => self
                    .answer_scored(input, &effective, &kind)
                    .unwrap_or_else(|| self.empty_context_answer(&input.question, &kind)),
            }
        };

        let text = if input.sources.is_empty() {
            format!("From my training knowledge, the answer is {answer}.")
        } else {
            format!("Based on the provided sources, the answer is {answer}.")
        };

        Generation {
            answer,
            text,
            source_attention: effective,
            prompt_tokens,
        }
    }

    fn name(&self) -> &str {
        MODEL_NAME
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knowledge::PriorFact;
    use crate::SourceText;

    fn big_three_sources() -> Vec<SourceText> {
        vec![
            SourceText::new(
                "wins",
                "Roger Federer ranks first in total match wins with 369 victories, ahead of Novak Djokovic and Rafael Nadal.",
            ),
            SourceText::new(
                "slams",
                "Novak Djokovic holds the most grand slam titles among the big three with 24.",
            ),
            SourceText::new(
                "weeks",
                "Novak Djokovic leads the ranking for most weeks ranked number one in tennis.",
            ),
            SourceText::new(
                "clay",
                "Rafael Nadal is the greatest clay court player with fourteen French Open titles.",
            ),
            SourceText::new(
                "finals",
                "Novak Djokovic won the most tour finals titles among the big three.",
            ),
        ]
    }

    fn model_with_prior() -> SimLlm {
        let prior = PriorKnowledge::empty()
            .with_fact(PriorFact::new(
                &["best", "tennis", "player"],
                "Novak Djokovic",
                0.2,
            ))
            .with_fact(PriorFact::new(
                &["recent", "us", "open", "champion"],
                "Serena Williams",
                0.2,
            ));
        SimLlm::new(SimLlmConfig::default().with_prior(prior))
    }

    const BIG_THREE_QUESTION: &str =
        "Who is the best tennis player among Novak Djokovic, Roger Federer and Rafael Nadal?";

    #[test]
    fn full_context_answer_follows_the_first_source() {
        let llm = model_with_prior();
        let generation = llm.generate(&LlmInput::new(BIG_THREE_QUESTION, big_three_sources()));
        assert_eq!(generation.answer, "Roger Federer");
        assert_eq!(generation.source_attention.len(), 5);
    }

    #[test]
    fn moving_the_key_source_to_the_middle_changes_the_answer() {
        let llm = model_with_prior();
        let mut sources = big_three_sources();
        // Move the match-wins document from position 0 to position 2 (the middle).
        let wins = sources.remove(0);
        sources.insert(2, wins);
        let generation = llm.generate(&LlmInput::new(BIG_THREE_QUESTION, sources));
        assert_eq!(generation.answer, "Novak Djokovic");
    }

    #[test]
    fn removing_the_key_source_changes_the_answer() {
        let llm = model_with_prior();
        let sources: Vec<SourceText> = big_three_sources().into_iter().skip(1).collect();
        let generation = llm.generate(&LlmInput::new(BIG_THREE_QUESTION, sources));
        assert_ne!(generation.answer, "Roger Federer");
    }

    #[test]
    fn empty_context_uses_prior_knowledge() {
        let llm = model_with_prior();
        let generation = llm.generate(&LlmInput::without_context(BIG_THREE_QUESTION));
        assert_eq!(generation.answer, "Novak Djokovic");
        assert!(generation.text.contains("training knowledge"));
        assert!(generation.source_attention.is_empty());
    }

    #[test]
    fn empty_context_without_prior_is_unknown() {
        let llm = SimLlm::new(SimLlmConfig::default());
        let generation = llm.generate(&LlmInput::without_context("Who won the 1937 chess open?"));
        assert_eq!(generation.answer, "I do not know");
    }

    fn us_open_sources() -> Vec<SourceText> {
        vec![
            SourceText::new(
                "y2019",
                "Bianca Andreescu won the US Open women's singles championship in 2019.",
            ),
            SourceText::new(
                "y2020",
                "Naomi Osaka won the US Open women's singles championship in 2020.",
            ),
            SourceText::new(
                "y2021",
                "Emma Raducanu won the US Open women's singles championship in 2021.",
            ),
            SourceText::new(
                "y2022",
                "Iga Swiatek won the US Open women's singles championship in 2022.",
            ),
            SourceText::new(
                "y2023",
                "Coco Gauff won the US Open women's singles championship in 2023.",
            ),
        ]
    }

    const US_OPEN_QUESTION: &str = "Who is the most recent US Open women's singles champion?";

    #[test]
    fn most_recent_question_prefers_latest_year() {
        let llm = model_with_prior();
        let generation = llm.generate(&LlmInput::new(US_OPEN_QUESTION, us_open_sources()));
        assert_eq!(generation.answer, "Coco Gauff");
    }

    #[test]
    fn burying_the_up_to_date_source_causes_a_stale_answer() {
        let llm = model_with_prior();
        let mut sources = us_open_sources();
        // Move the 2023 document from the last position into the middle.
        let latest = sources.remove(4);
        sources.insert(2, latest);
        let generation = llm.generate(&LlmInput::new(US_OPEN_QUESTION, sources));
        assert_eq!(generation.answer, "Iga Swiatek");
    }

    fn timeline_sources() -> Vec<SourceText> {
        let winners = [
            (2010, "Rafael Nadal"),
            (2011, "Novak Djokovic"),
            (2012, "Novak Djokovic"),
            (2013, "Rafael Nadal"),
            (2014, "Novak Djokovic"),
            (2015, "Novak Djokovic"),
            (2016, "Andy Murray"),
            (2017, "Rafael Nadal"),
            (2018, "Novak Djokovic"),
            (2019, "Rafael Nadal"),
        ];
        winners
            .iter()
            .map(|(year, name)| {
                SourceText::new(
                    format!("y{year}"),
                    format!("{name} was named Tennis Player of the Year in {year}."),
                )
            })
            .collect()
    }

    const TIMELINE_QUESTION: &str =
        "How many times did Novak Djokovic win the Tennis Player of the Year award between 2010 and 2019?";

    #[test]
    fn count_question_counts_supporting_years() {
        let llm = model_with_prior();
        let generation = llm.generate(&LlmInput::new(TIMELINE_QUESTION, timeline_sources()));
        assert_eq!(generation.answer, "5");
    }

    #[test]
    fn count_is_stable_under_reordering() {
        let llm = model_with_prior();
        let mut sources = timeline_sources();
        sources.reverse();
        let generation = llm.generate(&LlmInput::new(TIMELINE_QUESTION, sources));
        assert_eq!(generation.answer, "5");
    }

    #[test]
    fn count_drops_when_supporting_sources_are_removed() {
        let llm = model_with_prior();
        let sources: Vec<SourceText> = timeline_sources()
            .into_iter()
            .filter(|s| s.id != "y2015")
            .collect();
        let generation = llm.generate(&LlmInput::new(TIMELINE_QUESTION, sources));
        assert_eq!(generation.answer, "4");
    }

    #[test]
    fn count_with_empty_context_is_zero_without_prior() {
        let llm = SimLlm::new(SimLlmConfig::default());
        let generation = llm.generate(&LlmInput::without_context(TIMELINE_QUESTION));
        assert_eq!(generation.answer, "0");
    }

    #[test]
    fn source_attention_is_a_distribution() {
        let llm = model_with_prior();
        let generation = llm.generate(&LlmInput::new(BIG_THREE_QUESTION, big_three_sources()));
        let total: f64 = generation.source_attention.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(generation.source_attention.iter().all(|&a| a >= 0.0));
    }

    #[test]
    fn generation_is_deterministic() {
        let llm = model_with_prior();
        let input = LlmInput::new(BIG_THREE_QUESTION, big_three_sources());
        assert_eq!(llm.generate(&input), llm.generate(&input));
    }

    #[test]
    fn model_name_is_reported() {
        let llm = SimLlm::new(SimLlmConfig::default());
        assert_eq!(llm.name(), "sim-llama-chat");
    }
}

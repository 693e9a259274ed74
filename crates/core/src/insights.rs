//! Perturbation insights: answer distributions, frequency tables and rules.
//!
//! Counterfactuals pinpoint one answer-changing perturbation; *insights*
//! characterise the model's behaviour over a whole *sample* of perturbations
//! (§II-B): how the answers distribute, how often each source appears in the
//! contexts producing each answer and at which prompt position, and which
//! simple presence/absence rules ("whenever source `d` is present the answer
//! is `a`") hold with high confidence. Samples are evaluated through the
//! [`Evaluator`], so repeated perturbations cost nothing.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use rand::rngs::StdRng;
use rand::SeedableRng;

use rage_assignment::permutations::sample_permutations;

use crate::answer::normalize_answer;
use crate::budget::{Completeness, SearchBudget};
use crate::counterfactual::SearchStats;
use crate::error::RageError;
use crate::evaluator::Evaluator;
use crate::perturbation::Perturbation;

/// A normal-approximation 95% confidence interval for an answer share,
/// attached when a budget truncated the sample (the evaluated prefix is then
/// an estimate of the full seeded sample's distribution).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShareInterval {
    /// Lower bound of the interval (clamped to 0).
    pub lower: f64,
    /// Upper bound of the interval (clamped to 1).
    pub upper: f64,
}

impl ShareInterval {
    /// The Wald interval `p ± 1.96·sqrt(p(1−p)/n)` clamped to `[0, 1]`.
    pub fn normal_approx(share: f64, n: usize) -> Self {
        let half = 1.96 * (share * (1.0 - share) / n.max(1) as f64).sqrt();
        ShareInterval {
            lower: (share - half).max(0.0),
            upper: (share + half).min(1.0),
        }
    }
}

/// One answer and its share of the sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnswerShare {
    /// A representative surface form of the answer.
    pub answer: String,
    /// The normalised form used for grouping.
    pub normalized: String,
    /// Number of samples producing this answer.
    pub count: usize,
    /// Fraction of all samples producing this answer.
    pub share: f64,
    /// 95% confidence interval for the share, present only when the sample was
    /// budget- or deadline-truncated (an exact sample needs no interval).
    pub interval: Option<ShareInterval>,
}

/// The distribution of answers over a perturbation sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct AnswerDistribution {
    /// Total number of samples.
    pub total: usize,
    /// Entries sorted by descending count (ties by normalised answer).
    pub entries: Vec<AnswerShare>,
}

impl AnswerDistribution {
    /// The most frequent answer, if the sample is non-empty.
    pub fn top(&self) -> Option<&AnswerShare> {
        self.entries.first()
    }

    /// Number of distinct (normalised) answers.
    pub fn num_answers(&self) -> usize {
        self.entries.len()
    }

    /// The share of a given answer (0 when absent), compared normalised.
    pub fn share_of(&self, answer: &str) -> f64 {
        let needle = normalize_answer(answer);
        self.entries
            .iter()
            .find(|e| e.normalized == needle)
            .map(|e| e.share)
            .unwrap_or(0.0)
    }
}

/// Per-source, per-answer occurrence statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrequencyCell {
    /// The normalised answer this cell describes.
    pub answer: String,
    /// Samples with this answer in which the source was present.
    pub present: usize,
    /// Samples with this answer overall.
    pub out_of: usize,
    /// Mean prompt position of the source when present (0 = first), if ever.
    pub mean_position: Option<f64>,
}

/// One source's row of the frequency table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrequencyRow {
    /// Context position of the source.
    pub source: usize,
    /// Document id of the source.
    pub doc_id: String,
    /// Samples in which the source was present at all.
    pub present_in: usize,
    /// Per-answer occurrence cells, one per distinct answer.
    pub cells: Vec<FrequencyCell>,
}

/// The source × answer frequency table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct FrequencyTable {
    /// One row per context source.
    pub rows: Vec<FrequencyRow>,
}

/// A mined presence/absence rule: "when source `s` is present (absent), the
/// answer is `a`".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PresenceRule {
    /// Context position of the source.
    pub source: usize,
    /// Document id of the source.
    pub doc_id: String,
    /// `true` for a presence rule, `false` for an absence rule.
    pub present: bool,
    /// The implied (normalised) answer.
    pub answer: String,
    /// Fraction of *all* samples matching both the condition and the answer.
    pub support: f64,
    /// Fraction of condition-matching samples that produce the answer.
    pub confidence: f64,
}

/// Insights computed over one perturbation sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Insights {
    /// Number of perturbations in the sample.
    pub num_samples: usize,
    /// Whether the whole requested sample was evaluated, or a budget/deadline
    /// truncated it to a prefix (the unevaluated tail is counted as `pruned`).
    pub completeness: Completeness,
    /// The answer distribution.
    pub distribution: AnswerDistribution,
    /// The source × answer frequency table.
    pub table: FrequencyTable,
    /// Rules meeting the confidence threshold, strongest first.
    pub rules: Vec<PresenceRule>,
    /// Cost accounting for evaluating the sample.
    pub stats: SearchStats,
}

/// Minimum confidence for a rule to be reported: the threshold every report
/// passes to [`Insights::with_budget`].
pub const DEFAULT_MIN_CONFIDENCE: f64 = 0.8;

/// `s` uniformly random permutations of `k` sources (deterministic in `seed`),
/// sampled with the `O(k·s)` Fisher–Yates sampler.
pub fn random_permutations(k: usize, s: usize, seed: u64) -> Vec<Perturbation> {
    let mut rng = StdRng::seed_from_u64(seed);
    sample_permutations(k, s, &mut rng)
        .into_iter()
        .map(Perturbation::Permutation)
        .collect()
}

impl Insights {
    /// Evaluate the prefix of `perturbations` that `budget` affords and
    /// aggregate distribution, table and rules (rules need `min_confidence`,
    /// in `[0, 1]`).
    ///
    /// An evaluation cap keeps the *prefix* of the (seeded, deterministic)
    /// sample, so two runs with the same seed and cap see identical
    /// perturbations. The whole sample is needed (no early exit): without a
    /// deadline the kept sample is submitted as one batch, which fans out
    /// across the evaluator's width; with a deadline it is evaluated in
    /// windows of the evaluator's [`width`](Evaluator::width), with the
    /// deadline checked before each window, so it still fans out across the
    /// cores and overshoots the deadline by at most one window. When the
    /// sample is truncated, the returned [`Insights::completeness`] is
    /// non-`Exact` (counting the unevaluated tail as `pruned`) and every
    /// [`AnswerShare`] carries a normal-approximation 95% confidence interval
    /// for its share.
    pub fn with_budget(
        evaluator: &Evaluator,
        perturbations: &[Perturbation],
        min_confidence: f64,
        budget: &SearchBudget,
    ) -> Result<Self, RageError> {
        let k = evaluator.k();
        let llm_calls_before = evaluator.llm_calls();

        // Evaluate the affordable prefix of the deterministic sample:
        // (perturbation, normalised answer, surface form).
        let (generations, stop) = evaluator.evaluate_within(perturbations, budget)?;
        let samples: Vec<(&Perturbation, String, String)> = perturbations
            .iter()
            .zip(generations)
            .map(|(perturbation, generation)| {
                let answer = generation.answer;
                (perturbation, normalize_answer(&answer), answer)
            })
            .collect();
        let total = samples.len();
        let completeness = match stop {
            Some(stop) => Completeness::from_stop(stop, total, perturbations.len() - total),
            None => Completeness::Exact,
        };

        // Distribution.
        let mut counts: BTreeMap<String, (usize, String)> = BTreeMap::new();
        for (_, normalized, surface) in &samples {
            let entry = counts
                .entry(normalized.clone())
                .or_insert((0, surface.clone()));
            entry.0 += 1;
        }
        let mut entries: Vec<AnswerShare> = counts
            .into_iter()
            .map(|(normalized, (count, answer))| AnswerShare {
                answer,
                normalized,
                count,
                share: if total == 0 {
                    0.0
                } else {
                    count as f64 / total as f64
                },
                interval: None,
            })
            .collect();
        entries.sort_by(|a, b| {
            b.count
                .cmp(&a.count)
                .then_with(|| a.normalized.cmp(&b.normalized))
        });
        if !completeness.is_exact() && total > 0 {
            // A truncated sample only estimates the full sample's shares:
            // attach the uncertainty.
            for entry in &mut entries {
                entry.interval = Some(ShareInterval::normal_approx(entry.share, total));
            }
        }
        let distribution = AnswerDistribution { total, entries };

        // Presence and position of each source in each sample.
        // position_of[source] = Some(prompt position) when present.
        let positions_per_sample: Vec<Vec<Option<usize>>> = samples
            .iter()
            .map(|(perturbation, _, _)| {
                let mut positions = vec![None; k];
                let indices: &[usize] = match perturbation {
                    Perturbation::Combination(kept) => kept,
                    Perturbation::Permutation(order) => order,
                };
                for (prompt_pos, &source) in indices.iter().enumerate() {
                    positions[source] = Some(prompt_pos);
                }
                positions
            })
            .collect();

        // Frequency table.
        let answers: Vec<&str> = distribution
            .entries
            .iter()
            .map(|e| e.normalized.as_str())
            .collect();
        let mut rows = Vec::with_capacity(k);
        for source in 0..k {
            let doc_id = evaluator
                .context()
                .get(source)
                .map(|s| s.doc_id.clone())
                .unwrap_or_default();
            let present_in = positions_per_sample
                .iter()
                .filter(|positions| positions[source].is_some())
                .count();
            let mut cells = Vec::with_capacity(answers.len());
            for &answer in &answers {
                let mut present = 0usize;
                let mut out_of = 0usize;
                let mut position_sum = 0usize;
                for ((_, normalized, _), positions) in
                    samples.iter().zip(positions_per_sample.iter())
                {
                    if normalized != answer {
                        continue;
                    }
                    out_of += 1;
                    if let Some(position) = positions[source] {
                        present += 1;
                        position_sum += position;
                    }
                }
                cells.push(FrequencyCell {
                    answer: answer.to_string(),
                    present,
                    out_of,
                    mean_position: (present > 0).then(|| position_sum as f64 / present as f64),
                });
            }
            rows.push(FrequencyRow {
                source,
                doc_id,
                present_in,
                cells,
            });
        }
        let table = FrequencyTable { rows };

        // Rules: for each source and condition (present/absent), the answer
        // distribution conditioned on it.
        let mut rules = Vec::new();
        for row in &table.rows {
            for present in [true, false] {
                let condition_count = if present {
                    row.present_in
                } else {
                    total - row.present_in
                };
                if condition_count == 0 {
                    continue;
                }
                for cell in &row.cells {
                    let matching = if present {
                        cell.present
                    } else {
                        cell.out_of - cell.present
                    };
                    if matching == 0 {
                        continue;
                    }
                    let confidence = matching as f64 / condition_count as f64;
                    if confidence < min_confidence {
                        continue;
                    }
                    rules.push(PresenceRule {
                        source: row.source,
                        doc_id: row.doc_id.clone(),
                        present,
                        answer: cell.answer.clone(),
                        support: matching as f64 / total.max(1) as f64,
                        confidence,
                    });
                }
            }
        }
        rules.sort_by(|a, b| {
            b.confidence
                .total_cmp(&a.confidence)
                .then_with(|| b.support.total_cmp(&a.support))
                .then_with(|| a.source.cmp(&b.source))
        });

        Ok(Insights {
            num_samples: total,
            completeness,
            distribution,
            table,
            rules,
            stats: SearchStats {
                candidates: total,
                llm_calls: evaluator.llm_calls() - llm_calls_before,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Context;
    use crate::evaluator::Evaluator;
    use rage_assignment::combinations::CombinationIter;
    use rage_assignment::permutations::is_permutation;
    use rage_llm::{Generation, LanguageModel, LlmInput};
    use rage_retrieval::Document;
    use std::sync::Arc;

    struct FirstSourceLlm;

    impl LanguageModel for FirstSourceLlm {
        fn generate(&self, input: &LlmInput) -> Generation {
            let answer = input
                .sources
                .first()
                .map(|s| s.id.clone())
                .unwrap_or_else(|| "nothing".to_string());
            Generation {
                answer: answer.clone(),
                text: answer,
                source_attention: vec![1.0; input.sources.len()],
                prompt_tokens: 1,
            }
        }
    }

    /// Every non-empty combination of `k` sources, in size-then-lexicographic
    /// order.
    fn all_combinations(k: usize) -> Vec<Perturbation> {
        (1..=k)
            .flat_map(|size| CombinationIter::new(k, size))
            .map(Perturbation::Combination)
            .collect()
    }

    /// The insights over the whole sample, with the report's rule threshold.
    fn insights(ev: &Evaluator, perturbations: &[Perturbation]) -> Insights {
        Insights::with_budget(
            ev,
            perturbations,
            DEFAULT_MIN_CONFIDENCE,
            &SearchBudget::UNLIMITED,
        )
        .unwrap()
    }

    fn evaluator() -> Evaluator {
        Evaluator::new(
            Arc::new(FirstSourceLlm),
            Context::from_documents(
                "q",
                &[
                    Document::new("a", "", "alpha"),
                    Document::new("b", "", "beta"),
                    Document::new("c", "", "gamma"),
                ],
            ),
        )
    }

    #[test]
    fn sample_helpers_enumerate_and_sample() {
        let perms = random_permutations(4, 10, 42);
        assert_eq!(perms.len(), 10);
        for p in &perms {
            match p {
                Perturbation::Permutation(order) => assert!(is_permutation(order, 4)),
                other => panic!("unexpected {other:?}"),
            }
        }
        // Deterministic in the seed.
        assert_eq!(perms, random_permutations(4, 10, 42));
    }

    #[test]
    fn permutation_sampling_matches_golden_values() {
        // Pins the whole sampling chain — vendored SplitMix64 stream →
        // widening-multiply index draw → Durstenfeld shuffle — so perturbation
        // samples (and therefore report insights) stay reproducible across
        // refactors of any link. The raw RNG stream has its own golden test in
        // the vendored `rand` crate.
        assert_eq!(
            random_permutations(4, 3, 42),
            vec![
                Perturbation::Permutation(vec![1, 3, 0, 2]),
                Perturbation::Permutation(vec![2, 3, 0, 1]),
                Perturbation::Permutation(vec![1, 3, 2, 0]),
            ]
        );
        assert_eq!(
            random_permutations(5, 2, 7),
            vec![
                Perturbation::Permutation(vec![3, 4, 2, 0, 1]),
                Perturbation::Permutation(vec![4, 3, 1, 0, 2]),
            ]
        );
    }

    #[test]
    fn distribution_counts_first_source_answers() {
        let ev = evaluator();
        let insights = insights(&ev, &all_combinations(3));
        assert_eq!(insights.num_samples, 7);
        // Subsets led by source 0: {0}, {0,1}, {0,2}, {0,1,2} → 4 × "a";
        // led by source 1: {1}, {1,2} → 2 × "b"; {2} → 1 × "c".
        assert_eq!(insights.distribution.top().unwrap().normalized, "a");
        assert_eq!(insights.distribution.top().unwrap().count, 4);
        assert_eq!(insights.distribution.num_answers(), 3);
        assert!((insights.distribution.share_of("A!") - 4.0 / 7.0).abs() < 1e-12);
        assert_eq!(insights.distribution.share_of("zzz"), 0.0);
    }

    #[test]
    fn frequency_table_tracks_presence_and_position() {
        let ev = evaluator();
        let insights = insights(&ev, &all_combinations(3));
        let row0 = &insights.table.rows[0];
        assert_eq!(row0.doc_id, "a");
        assert_eq!(row0.present_in, 4);
        // Source 0 appears in every "a"-answering sample, always at position 0.
        let cell_a = row0.cells.iter().find(|c| c.answer == "a").unwrap();
        assert_eq!(cell_a.present, 4);
        assert_eq!(cell_a.out_of, 4);
        assert_eq!(cell_a.mean_position, Some(0.0));
        // Source 0 never appears in a "b"-answering sample.
        let cell_b = row0.cells.iter().find(|c| c.answer == "b").unwrap();
        assert_eq!(cell_b.present, 0);
        assert!(cell_b.mean_position.is_none());
    }

    #[test]
    fn rules_capture_the_deciding_source() {
        let ev = evaluator();
        let insights = insights(&ev, &all_combinations(3));
        // "source a present → answer a" holds with confidence 1.
        let rule = insights
            .rules
            .iter()
            .find(|r| r.source == 0 && r.present)
            .expect("presence rule for source 0");
        assert_eq!(rule.answer, "a");
        assert_eq!(rule.doc_id, "a");
        assert!((rule.confidence - 1.0).abs() < 1e-12);
        assert!((rule.support - 4.0 / 7.0).abs() < 1e-12);
        // Low-confidence associations are filtered out.
        assert!(insights
            .rules
            .iter()
            .all(|r| r.confidence >= DEFAULT_MIN_CONFIDENCE));
    }

    #[test]
    fn permutation_samples_have_full_presence() {
        let ev = evaluator();
        let perms = random_permutations(3, 12, 7);
        let insights = insights(&ev, &perms);
        assert_eq!(insights.num_samples, 12);
        for row in &insights.table.rows {
            assert_eq!(row.present_in, 12);
        }
        // Every answer is some source id (never "nothing").
        assert!(insights
            .distribution
            .entries
            .iter()
            .all(|e| ["a", "b", "c"].contains(&e.normalized.as_str())));
    }

    #[test]
    fn cache_is_shared_with_other_searches() {
        let ev = evaluator();
        let combos = all_combinations(3);
        let first = insights(&ev, &combos);
        assert_eq!(first.stats.llm_calls, 7);
        let second = insights(&ev, &combos);
        assert_eq!(second.stats.llm_calls, 0);
        assert_eq!(second.distribution, first.distribution);
    }

    #[test]
    fn empty_sample_is_well_formed() {
        let ev = evaluator();
        let insights = insights(&ev, &[]);
        assert_eq!(insights.num_samples, 0);
        assert_eq!(insights.completeness, Completeness::Exact);
        assert!(insights.distribution.top().is_none());
        assert!(insights.rules.is_empty());
        assert_eq!(insights.table.rows.len(), 3);
    }

    #[test]
    fn unlimited_budget_reproduces_the_plain_sample() {
        // A deadline that never fires takes the windowed path, which must
        // reproduce the one-batch sample exactly.
        let combos = all_combinations(3);
        let plain = insights(&evaluator(), &combos);
        let budgeted = Insights::with_budget(
            &evaluator(),
            &combos,
            DEFAULT_MIN_CONFIDENCE,
            &SearchBudget::UNLIMITED.with_deadline(crate::budget::Deadline::after_ms(600_000)),
        )
        .unwrap();
        assert_eq!(budgeted, plain);
        assert_eq!(budgeted.completeness, Completeness::Exact);
        assert!(budgeted
            .distribution
            .entries
            .iter()
            .all(|e| e.interval.is_none()));
    }

    #[test]
    fn evaluation_cap_keeps_the_sample_prefix_with_intervals() {
        let combos = all_combinations(3);
        let insights = Insights::with_budget(
            &evaluator(),
            &combos,
            DEFAULT_MIN_CONFIDENCE,
            &SearchBudget::max_evaluations(4),
        )
        .unwrap();
        assert_eq!(insights.num_samples, 4);
        assert_eq!(
            insights.completeness,
            Completeness::BudgetTruncated {
                evaluated: 4,
                pruned: 3
            }
        );
        // Prefix of the size-ordered subsets: {0}, {1}, {2}, {0,1} → answers
        // a, b, c, a.
        assert_eq!(insights.distribution.top().unwrap().normalized, "a");
        assert_eq!(insights.distribution.top().unwrap().count, 2);
        for entry in &insights.distribution.entries {
            let interval = entry.interval.expect("truncated shares carry intervals");
            assert!(interval.lower <= entry.share && entry.share <= interval.upper);
            assert!((0.0..=1.0).contains(&interval.lower));
            assert!((0.0..=1.0).contains(&interval.upper));
        }
    }

    #[test]
    fn expired_deadline_truncates_the_sample() {
        let combos = all_combinations(3);
        let deadline = crate::budget::Deadline::after_ms(0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let insights = Insights::with_budget(
            &evaluator(),
            &combos,
            DEFAULT_MIN_CONFIDENCE,
            &SearchBudget::UNLIMITED.with_deadline(deadline),
        )
        .unwrap();
        assert_eq!(insights.num_samples, 0);
        assert!(matches!(
            insights.completeness,
            Completeness::DeadlineTruncated { .. }
        ));
    }

    #[test]
    fn share_interval_is_clamped_and_symmetric_inside() {
        let wide = ShareInterval::normal_approx(0.5, 4);
        assert!(wide.lower < 0.5 && wide.upper > 0.5);
        let edge = ShareInterval::normal_approx(1.0, 10);
        assert_eq!(edge.lower, 1.0);
        assert_eq!(edge.upper, 1.0);
        let zero = ShareInterval::normal_approx(0.0, 10);
        assert_eq!(zero.lower, 0.0);
        assert_eq!(zero.upper, 0.0);
    }
}

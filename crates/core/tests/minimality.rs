//! The paper's minimality definition, checked by brute force.
//!
//! A combination counterfactual is a *minimal* set of sources whose removal
//! (top-down) or retention (bottom-up) changes the answer, and among the
//! minimal sets the search prefers the most relevant one. For every
//! registered scenario whose retrieved context is small enough to enumerate
//! (k ≤ 7), this suite generates the default report, evaluates every subset
//! through the report's own [`Evaluator`], and requires each cited set to be
//! exactly the expected one:
//!
//! * it flips the baseline answer;
//! * no smaller set flips it;
//! * among flipping sets of its size it has the highest
//!   [`ScoringMethod::combination_score`] over the report's source scores,
//!   exact ties going to the set [`CombinationIter`] yields first;
//! * the report cites nothing only when no subset flips.
//!
//! The permutation counterfactual is the *most Kendall-similar* flipping
//! order: it flips the full-context answer, its `tau` is
//! [`kendall_tau_naive`] of its order, no order [`PermutationIter`] yields
//! with a strictly higher τ flips, and the report cites nothing only when no
//! order flips.

use std::sync::Arc;

use rage_assignment::combinations::{complement, CombinationIter};
use rage_assignment::kendall::kendall_tau_naive;
use rage_assignment::PermutationIter;
use rage_core::counterfactual::SearchDirection;
use rage_core::explanation::ReportConfig;
use rage_core::{answers_equal, Evaluator, Perturbation, RagPipeline, RageReport, ScoringMethod};
use rage_datasets::ScenarioRegistry;
use rage_llm::model::{SimLlm, SimLlmConfig};
use rage_retrieval::Searcher;

/// Largest context whose `2^k` subsets the suite enumerates.
const MAX_K: usize = 7;

/// The counterfactual the definition demands, found by brute force: the cited
/// set, the set the model evaluates, and the answer it gives. `None` when no
/// subset flips the baseline.
fn expected_counterfactual(
    evaluator: &Evaluator,
    direction: SearchDirection,
    baseline: &str,
    scores: &[f64],
) -> Option<(Vec<usize>, Vec<usize>, String)> {
    let k = evaluator.k();
    for size in 1..=k {
        let mut best: Option<(f64, Vec<usize>, Vec<usize>, String)> = None;
        for cited in CombinationIter::new(k, size) {
            let kept = match direction {
                SearchDirection::TopDown => complement(k, &cited),
                SearchDirection::BottomUp => cited.clone(),
            };
            let answer = evaluator
                .answer_for(&Perturbation::Combination(kept.clone()))
                .expect("every subset evaluates");
            if answers_equal(&answer, baseline) {
                continue;
            }
            let score = ScoringMethod::combination_score(scores, &cited);
            if best.as_ref().is_none_or(|(top, ..)| score > *top) {
                best = Some((score, cited, kept, answer));
            }
        }
        if let Some((_, cited, kept, answer)) = best {
            return Some((cited, kept, answer));
        }
    }
    None
}

fn assert_minimal(
    label: &str,
    evaluator: &Evaluator,
    report: &RageReport,
    direction: SearchDirection,
) {
    let (baseline, outcome) = match direction {
        SearchDirection::TopDown => (&report.full_context_answer, &report.top_down),
        SearchDirection::BottomUp => (&report.empty_context_answer, &report.bottom_up),
    };
    let expected = expected_counterfactual(evaluator, direction, baseline, &report.source_scores);
    let got = outcome.counterfactual.as_ref().map(|cf| {
        assert_eq!(&cf.baseline_answer, baseline, "{label}: baseline answer");
        assert_eq!(
            complement(evaluator.k(), &cf.kept),
            cf.removed,
            "{label}: kept and removed partition the context"
        );
        (
            cf.cited_positions(direction).to_vec(),
            cf.kept.clone(),
            cf.answer.clone(),
        )
    });
    assert_eq!(got, expected, "{label}: cited set, kept set and answer");
}

/// Checks the permutation counterfactual against every order of the context.
/// The orders the search passed on its way are memo hits, so only orders
/// above the cited τ are looked up (every order when nothing is cited).
fn assert_most_kendall_similar(label: &str, evaluator: &Evaluator, report: &RageReport) {
    let baseline = &report.full_context_answer;
    let cited_tau = match &report.permutation.counterfactual {
        Some(cf) => {
            assert_eq!(&cf.baseline_answer, baseline, "{label}: baseline answer");
            let answer = evaluator
                .answer_for(&Perturbation::Permutation(cf.order.clone()))
                .expect("the cited order evaluates");
            assert_eq!(answer, cf.answer, "{label}: cited answer");
            assert!(
                !answers_equal(&answer, baseline),
                "{label}: cited order flips"
            );
            assert_eq!(cf.tau, kendall_tau_naive(&cf.order), "{label}: cited tau");
            cf.tau
        }
        None => f64::NEG_INFINITY,
    };
    for order in PermutationIter::new(evaluator.k()) {
        if kendall_tau_naive(&order) <= cited_tau {
            continue;
        }
        let answer = evaluator
            .answer_for(&Perturbation::Permutation(order.clone()))
            .expect("every order evaluates");
        assert!(
            answers_equal(&answer, baseline),
            "{label}: {order:?} flips to {answer:?} above the cited tau {cited_tau}"
        );
    }
}

/// Every registered scenario whose context has at most [`MAX_K`] sources,
/// with its default report and the evaluator that report ran on.
fn enumerable_reports() -> Vec<(&'static str, Evaluator, RageReport)> {
    let reports: Vec<_> = ScenarioRegistry::builtin()
        .iter()
        .filter_map(|entry| {
            let scenario = entry.build();
            let llm = SimLlm::new(SimLlmConfig::default().with_prior(scenario.prior.clone()));
            let pipeline =
                RagPipeline::new(Searcher::from_corpus(&scenario.corpus, 1), Arc::new(llm));
            let (_, evaluator) = pipeline
                .ask_and_explain(&scenario.question, scenario.retrieval_k)
                .expect("scenario question retrieves a context");
            if evaluator.k() > MAX_K {
                return None;
            }
            let report = RageReport::generate(&evaluator, &ReportConfig::default()).unwrap();
            let name = entry.name();
            assert!(report.all_sections_exact(), "{name}: every section exact");
            Some((name, evaluator, report))
        })
        .collect();
    assert!(
        !reports.is_empty(),
        "no registered scenario has k <= {MAX_K}"
    );
    reports
}

#[test]
fn combination_counterfactuals_are_minimal_and_most_relevant_on_registered_scenarios() {
    for (name, evaluator, report) in enumerable_reports() {
        for direction in [SearchDirection::TopDown, SearchDirection::BottomUp] {
            let label = format!("{name} {direction:?}");
            assert_minimal(&label, &evaluator, &report, direction);
        }
    }
}

#[test]
fn permutation_counterfactuals_are_the_most_kendall_similar_flips_on_registered_scenarios() {
    for (name, evaluator, report) in enumerable_reports() {
        assert_most_kendall_similar(name, &evaluator, &report);
    }
}

//! Pins the end-to-end behaviour of the three stress scenarios against the standard
//! model configuration (seeded retrieval + prior-seeded `SimLlm`), so the
//! `expected_full_context_answer` fields stay honest.
//!
//! These tests drive the same path the report pipeline uses — BM25 retrieval, then one
//! `SimLlm` generation over the retrieved sources in rank order — without depending on
//! `rage-core` (which depends on this crate).

use rage_datasets::entity_registry::{self, EntityRegistryConfig};
use rage_datasets::large_corpus::{self, LargeCorpusConfig};
use rage_datasets::{adversarial, multi_hop, Scenario};
use rage_llm::model::{SimLlm, SimLlmConfig};
use rage_llm::{LanguageModel, LlmInput, SourceText};
use rage_retrieval::Searcher;

/// Retrieval order and model answer for a scenario, optionally with some documents
/// removed from the corpus before indexing.
fn retrieval_and_answer(scenario: &Scenario, drop_ids: &[&str]) -> (Vec<String>, String) {
    let mut corpus = rage_retrieval::Corpus::new();
    for doc in scenario.corpus.iter() {
        if !drop_ids.contains(&doc.id.as_str()) {
            corpus.push(doc.clone());
        }
    }
    let searcher = Searcher::from_corpus(&corpus, 1);
    let llm = SimLlm::new(SimLlmConfig::default().with_prior(scenario.prior.clone()));
    let hits = searcher.search(&scenario.question, scenario.retrieval_k);
    let order: Vec<String> = hits.iter().map(|h| h.doc_id.clone()).collect();
    let sources: Vec<SourceText> = hits
        .iter()
        .map(|h| SourceText::new(h.doc_id.clone(), h.document.full_text()))
        .collect();
    let generation = llm.generate(&LlmInput::new(scenario.question.clone(), sources));
    (order, generation.answer)
}

#[test]
fn multi_hop_composes_bridge_and_link() {
    let scenario = multi_hop::scenario();
    let (order, answer) = retrieval_and_answer(&scenario, &[]);
    // The bridge opens the context, the link closes it, and the answer is the coach —
    // an entity that only the link document mentions, selected because the bridge
    // names his player as the champion.
    assert_eq!(order.first().unwrap(), multi_hop::BRIDGE_DOC);
    assert_eq!(order.last().unwrap(), multi_hop::LINK_DOC);
    assert_eq!(answer, scenario.expected_full_context_answer);
    assert_eq!(answer, "Daniel Okafor");
}

#[test]
fn multi_hop_link_removal_flips_to_the_distractor_coach() {
    let scenario = multi_hop::scenario();
    let (_, answer) = retrieval_and_answer(&scenario, &[multi_hop::LINK_DOC]);
    assert_eq!(answer, "Viktor Brandt");
}

#[test]
fn multi_hop_without_any_coach_falls_back_to_the_champion() {
    let scenario = multi_hop::scenario();
    let (_, answer) =
        retrieval_and_answer(&scenario, &[multi_hop::LINK_DOC, multi_hop::DISTRACTOR_DOC]);
    assert_eq!(answer, "Mira Solis");
}

#[test]
fn multi_hop_empty_context_uses_the_stale_prior() {
    let scenario = multi_hop::scenario();
    let llm = SimLlm::new(SimLlmConfig::default().with_prior(scenario.prior.clone()));
    let generation = llm.generate(&LlmInput::without_context(scenario.question.clone()));
    assert_eq!(generation.answer, scenario.expected_empty_context_answer);
}

#[test]
fn adversarial_answer_follows_the_canonical_tie_broken_layout() {
    let scenario = adversarial::scenario();
    let (order, answer) = retrieval_and_answer(&scenario, &[]);
    // Twin claims tie exactly, ids break the ties, and the camp holding the prime
    // position wins the contradiction.
    assert_eq!(order[0], "claim-1-marin");
    assert_eq!(order[1], "claim-1-voss");
    assert_eq!(answer, scenario.expected_full_context_answer);
    assert_eq!(answer, adversarial::CAMP_MARIN);
}

#[test]
fn adversarial_removing_the_winning_camp_flips_the_answer() {
    let scenario = adversarial::scenario();
    let (_, answer) = retrieval_and_answer(
        &scenario,
        &["claim-0-marin", "claim-1-marin", "claim-2-marin"],
    );
    assert_eq!(answer, adversarial::CAMP_VOSS);
}

#[test]
fn entity_registry_affiliation_resolves_to_the_canonical_name() {
    let scenario = entity_registry::scenario(EntityRegistryConfig::default());
    assert!(scenario.corpus_size() >= 4096);
    let (order, answer) = retrieval_and_answer(&scenario, &[]);
    assert_eq!(order.len(), scenario.retrieval_k);
    // The target record ranks first and the model reads its canonical name off it.
    let target = entity_registry::org_record(scenario.corpus_size() / 2);
    assert_eq!(order[0], target.doc_id);
    assert_eq!(answer, scenario.expected_full_context_answer);
    assert_eq!(answer, target.canonical);
}

#[test]
fn entity_registry_empty_context_uses_the_prior() {
    let scenario = entity_registry::scenario(EntityRegistryConfig::default());
    let llm = SimLlm::new(SimLlmConfig::default().with_prior(scenario.prior.clone()));
    let generation = llm.generate(&LlmInput::without_context(scenario.question.clone()));
    assert_eq!(generation.answer, scenario.expected_empty_context_answer);
}

#[test]
fn large_corpus_needles_are_found_and_answered_at_full_size() {
    let scenario = large_corpus::scenario(LargeCorpusConfig::default());
    assert!(scenario.corpus_size() >= 2048);
    let (order, answer) = retrieval_and_answer(&scenario, &[]);
    assert_eq!(order.len(), scenario.retrieval_k);
    assert!(order.iter().all(|id| id.starts_with("synthetic-")));
    assert_eq!(answer, scenario.expected_full_context_answer);
    assert_eq!(answer, "Alice Archer");
}

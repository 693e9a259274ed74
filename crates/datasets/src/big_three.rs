//! Use case #1 — "Ambiguous Answers": who is the best of The Big Three?
//!
//! The user retrieves documents ranking Novak Djokovic, Roger Federer and Rafael Nadal
//! under different metrics. The paper's narrative: with the full context the LLM answers
//! "Roger Federer" because the first-ranked document reports Federer's lead in total
//! match wins; combination insights reveal that this document appears in every
//! combination yielding that answer, and moving it to the second position flips the
//! answer to "Novak Djokovic".

use rage_llm::knowledge::{PriorFact, PriorKnowledge};
use rage_retrieval::{Corpus, Document};

use crate::scenario::Scenario;

/// The question posed to the system.
pub const QUESTION: &str =
    "Who is the best tennis player among Novak Djokovic, Roger Federer and Rafael Nadal?";

/// Document id of the match-wins ranking (the counterfactually decisive source).
pub const MATCH_WINS_DOC: &str = "ranking-match-wins";

/// The corpus of ranking documents.
///
/// The match-wins document is written to be the most relevant to the question under
/// BM25 (it repeats the "best tennis player" phrasing and names all three players), so
/// it lands in the first context position — the premise of the paper's narrative.
pub fn corpus() -> Corpus {
    let mut corpus = Corpus::new();
    corpus.push(
        Document::new(
            MATCH_WINS_DOC,
            "Total match wins",
            "Roger Federer ranks first in total match wins with 369 victories, a record many fans \
             cite when naming the best tennis player among Novak Djokovic, Roger Federer and Rafael Nadal.",
        )
        .with_field("metric", "match_wins")
        .with_field("ranked_first", "Roger Federer"),
    );
    corpus.push(
        Document::new(
            "ranking-grand-slams",
            "Grand slam titles",
            "Novak Djokovic holds the most grand slam titles with 24, ahead of Rafael Nadal with 22 \
             and Roger Federer with 20.",
        )
        .with_field("metric", "grand_slams")
        .with_field("ranked_first", "Novak Djokovic"),
    );
    corpus.push(
        Document::new(
            "ranking-weeks-no1",
            "Weeks ranked number one",
            "Novak Djokovic leads the weeks ranked number one statistic, spending over 400 weeks at \
             the top of the tennis rankings.",
        )
        .with_field("metric", "weeks_no1")
        .with_field("ranked_first", "Novak Djokovic"),
    );
    corpus.push(
        Document::new(
            "ranking-clay",
            "Clay court dominance",
            "Rafael Nadal is the greatest clay court competitor in history, winning the French Open \
             championship fourteen times.",
        )
        .with_field("metric", "clay_titles")
        .with_field("ranked_first", "Rafael Nadal"),
    );
    corpus.push(
        Document::new(
            "ranking-tour-finals",
            "Tour finals titles",
            "Novak Djokovic won the most season ending tour finals trophies of the trio, lifting the \
             trophy seven times.",
        )
        .with_field("metric", "tour_finals")
        .with_field("ranked_first", "Novak Djokovic"),
    );
    corpus
}

/// Prior (pre-trained) knowledge the simulated model holds about the question.
///
/// The paper's user "expects that Novak Djokovic … might be the LLM's choice"; giving
/// the model a weak Djokovic prior reproduces both that expectation (it is the
/// empty-context answer) and the surprise when the full context answers Federer.
pub fn prior() -> PriorKnowledge {
    PriorKnowledge::empty().with_fact(PriorFact::new(
        &["best", "tennis", "player"],
        "Novak Djokovic",
        0.2,
    ))
}

/// The complete scenario bundle.
pub fn scenario() -> Scenario {
    Scenario {
        name: "big-three".to_string(),
        question: QUESTION.to_string(),
        corpus: corpus(),
        retrieval_k: 5,
        prior: prior(),
        expected_full_context_answer: "Roger Federer".to_string(),
        expected_empty_context_answer: "Novak Djokovic".to_string(),
        description: "Use case #1 (Ambiguous Answers): subjective ranking of The Big Three, \
                      answered differently depending on which ranking documents are present and \
                      where they sit in the context."
            .to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rage_retrieval::Searcher;

    #[test]
    fn corpus_has_five_ranking_documents() {
        let c = corpus();
        assert_eq!(c.len(), 5);
        assert!(c.get(MATCH_WINS_DOC).is_some());
    }

    #[test]
    fn match_wins_document_ranks_first_under_bm25() {
        let c = corpus();
        let searcher = Searcher::from_corpus(&c, 1);
        let hits = searcher.search(QUESTION, 5);
        assert_eq!(hits.len(), 5, "all five documents should be retrieved");
        assert_eq!(hits[0].doc_id, MATCH_WINS_DOC);
    }

    #[test]
    fn majority_of_documents_favour_djokovic() {
        let c = corpus();
        let djokovic_docs = c
            .iter()
            .filter(|d| d.fields.get("ranked_first").map(String::as_str) == Some("Novak Djokovic"))
            .count();
        assert_eq!(djokovic_docs, 3);
    }

    #[test]
    fn prior_recalls_djokovic() {
        let m = prior().recall(QUESTION).unwrap();
        assert_eq!(m.answer, "Novak Djokovic");
    }

    #[test]
    fn scenario_is_consistent_with_corpus() {
        let s = scenario();
        assert_eq!(s.retrieval_k, 5);
        assert_eq!(s.corpus_size(), 5);
        assert_eq!(s.expected_full_context_answer, "Roger Federer");
    }
}

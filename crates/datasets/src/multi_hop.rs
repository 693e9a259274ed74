//! A multi-hop question: the answer composes two documents.
//!
//! "Who is the coach of the Riverton Open winner?" cannot be answered from any single
//! source: one document (the *bridge*) establishes who won the Riverton Open, and a
//! second (the *link*) connects that champion to her coach. A distractor coach with
//! equally strong credentials — but for the wrong tournament — sits in the middle of
//! the context, so the hop structure is load-bearing:
//!
//! * remove the **link** document and the model falls for the distractor — it answers
//!   with the wrong tournament's coach;
//! * remove both coach documents and the answer collapses to the champion herself (a
//!   single-hop reading of the question).
//!
//! Those flips are exactly the structure RAGE's combination counterfactuals and
//! presence/absence insight rules are built to surface.

use rage_llm::knowledge::{PriorFact, PriorKnowledge};
use rage_retrieval::{Corpus, Document};

use crate::scenario::Scenario;

/// The question posed to the system.
pub const QUESTION: &str = "Who is the coach of the Riverton Open winner?";

/// Document id of the bridge source (who won the tournament).
pub const BRIDGE_DOC: &str = "riverton-2024-final";

/// Document id of the link source (champion → coach).
pub const LINK_DOC: &str = "coach-okafor";

/// Document id of the distractor coach source (right profession, wrong tournament).
pub const DISTRACTOR_DOC: &str = "coach-brandt";

/// The corpus: bridge + link + distractor + two background documents.
pub fn corpus() -> Corpus {
    let mut corpus = Corpus::new();
    corpus.push(
        Document::new(
            BRIDGE_DOC,
            "Riverton Open 2024",
            "Mira Solis won the Riverton Open in 2024, defeating the field at Riverton \
             Park without dropping a set.",
        )
        .with_field("role", "bridge")
        .with_field("champion", "Mira Solis"),
    );
    corpus.push(
        Document::new(
            DISTRACTOR_DOC,
            "Coach of the year",
            "Viktor Brandt was named top coach after the winner of the Silver Masters \
             praised his tactical preparation.",
        )
        .with_field("role", "distractor")
        .with_field("coaches", "Silver Masters champion"),
    );
    corpus.push(
        Document::new(
            "riverton-history",
            "About the tournament",
            "The Riverton Open is held each spring on outdoor hard courts beside the \
             lake and draws a strong field.",
        )
        .with_field("role", "background"),
    );
    corpus.push(
        Document::new(
            "solis-profile",
            "Player profile",
            "Mira Solis is a baseline winner who turned professional in 2019 and has \
             climbed steadily since.",
        )
        .with_field("role", "background"),
    );
    corpus.push(
        Document::new(
            LINK_DOC,
            "Staff notes from the tour",
            "Daniel Okafor was named top coach this year for guiding the career of \
             Mira Solis across several dominant seasons.",
        )
        .with_field("role", "link")
        .with_field("coaches", "Mira Solis"),
    );
    corpus
}

/// Prior knowledge: a stale memory of a long-retired Riverton coach.
pub fn prior() -> PriorKnowledge {
    PriorKnowledge::empty().with_fact(PriorFact::new(&["riverton", "winner"], "Patrick Mora", 0.2))
}

/// The complete scenario bundle.
pub fn scenario() -> Scenario {
    Scenario {
        name: "multi-hop".to_string(),
        question: QUESTION.to_string(),
        corpus: corpus(),
        retrieval_k: 5,
        prior: prior(),
        expected_full_context_answer: "Daniel Okafor".to_string(),
        expected_empty_context_answer: "Patrick Mora".to_string(),
        description: "Multi-hop composition: one document names the Riverton champion, \
                      another links that champion to coach Daniel Okafor, and a \
                      distractor coach takes over as the answer when the link document \
                      is removed."
            .to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rage_retrieval::Searcher;

    #[test]
    fn all_documents_are_retrieved() {
        let c = corpus();
        let searcher = Searcher::from_corpus(&c, 1);
        let hits = searcher.search(QUESTION, 5);
        assert_eq!(hits.len(), 5);
    }

    #[test]
    fn bridge_ranks_first_and_link_ranks_last() {
        // The composition depends on the context layout: the bridge (dense in
        // tournament terms) must open the context and the link (one matching term,
        // longer body) must close it, with the distractor buried in between.
        let c = corpus();
        let searcher = Searcher::from_corpus(&c, 1);
        let hits = searcher.search(QUESTION, 5);
        assert_eq!(hits.first().unwrap().doc_id, BRIDGE_DOC);
        assert_eq!(hits.last().unwrap().doc_id, LINK_DOC);
        let rank_of = |id: &str| hits.iter().position(|h| h.doc_id == id).unwrap();
        assert!(rank_of(DISTRACTOR_DOC) > 0);
        assert!(rank_of(DISTRACTOR_DOC) < 4);
    }

    #[test]
    fn prior_recalls_the_stale_coach() {
        assert_eq!(prior().recall(QUESTION).unwrap().answer, "Patrick Mora");
    }

    #[test]
    fn scenario_expectations() {
        let s = scenario();
        assert_eq!(s.expected_full_context_answer, "Daniel Okafor");
        assert_eq!(s.expected_empty_context_answer, "Patrick Mora");
        assert_eq!(s.corpus_size(), 5);
    }
}

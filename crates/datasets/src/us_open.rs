//! Use case #2 — "Inconsistent Sources": the most recent US Open women's champion.
//!
//! The retrieved documents all describe US Open women's singles championships, but they
//! differ in recency. The paper's narrative: the full context yields "Coco Gauff"
//! (supported by the *last* context document, which covers 2023), while permutation
//! insights reveal that pushing that document towards the middle of the context makes
//! the model answer with the stale 2022 champion "Iga Swiatek".

use rage_llm::knowledge::{PriorFact, PriorKnowledge};
use rage_retrieval::{Corpus, Document};

use crate::scenario::Scenario;

/// The question posed to the system.
pub const QUESTION: &str = "Who is the most recent US Open women's singles champion?";

/// Document id of the up-to-date (2023) source.
pub const UP_TO_DATE_DOC: &str = "us-open-2023";

/// Document id of the strongest stale (2022) source.
pub const STALE_DOC: &str = "us-open-2022";

/// The corpus of championship documents.
///
/// The 2019–2022 documents share the question's "US Open women's singles champion"
/// phrasing, so BM25 ranks them ahead of the 2023 document, which is phrased around
/// "title" instead — that places the up-to-date source in the *last* context position,
/// exactly the situation the paper describes.
pub fn corpus() -> Corpus {
    let mut corpus = Corpus::new();
    corpus.push(
        Document::new(
            "us-open-2019",
            "US Open 2019",
            "Bianca Andreescu was crowned US Open women's singles champion in 2019, the most recent \
             Canadian winner of the tournament.",
        )
        .with_field("year", "2019")
        .with_field("champion", "Bianca Andreescu"),
    );
    corpus.push(
        Document::new(
            "us-open-2020",
            "US Open 2020",
            "Naomi Osaka was crowned US Open women's singles champion in 2020, her most recent major \
             win in New York.",
        )
        .with_field("year", "2020")
        .with_field("champion", "Naomi Osaka"),
    );
    corpus.push(
        Document::new(
            "us-open-2021",
            "US Open 2021",
            "Emma Raducanu was crowned US Open women's singles champion in 2021, the most recent \
             qualifier ever to win the title.",
        )
        .with_field("year", "2021")
        .with_field("champion", "Emma Raducanu"),
    );
    corpus.push(
        Document::new(
            STALE_DOC,
            "US Open 2022",
            "Iga Swiatek was crowned US Open women's singles champion in 2022, the most recent of her \
             hard court major championships.",
        )
        .with_field("year", "2022")
        .with_field("champion", "Iga Swiatek"),
    );
    corpus.push(
        Document::new(
            UP_TO_DATE_DOC,
            "US Open 2023",
            "Coco Gauff won the 2023 title in New York, defeating Aryna Sabalenka in the final to \
             claim her first major trophy.",
        )
        .with_field("year", "2023")
        .with_field("champion", "Coco Gauff"),
    );
    corpus
}

/// Prior knowledge: a stale memory of an earlier champion, modelling the hallucination
/// risk the retrieval context is meant to correct.
pub fn prior() -> PriorKnowledge {
    PriorKnowledge::empty().with_fact(PriorFact::new(
        &["us", "open", "women", "champion"],
        "Serena Williams",
        0.2,
    ))
}

/// The complete scenario bundle.
pub fn scenario() -> Scenario {
    Scenario {
        name: "us-open".to_string(),
        question: QUESTION.to_string(),
        corpus: corpus(),
        retrieval_k: 5,
        prior: prior(),
        expected_full_context_answer: "Coco Gauff".to_string(),
        expected_empty_context_answer: "Serena Williams".to_string(),
        description: "Use case #2 (Inconsistent Sources): championship documents of mixed recency; \
                      the up-to-date document sits last in the context and out-of-date documents can \
                      mislead the model when it is buried in the middle."
            .to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rage_retrieval::Searcher;

    #[test]
    fn corpus_covers_2019_to_2023() {
        let c = corpus();
        assert_eq!(c.len(), 5);
        let years: Vec<&str> = c
            .iter()
            .filter_map(|d| d.fields.get("year").map(String::as_str))
            .collect();
        assert_eq!(years, vec!["2019", "2020", "2021", "2022", "2023"]);
    }

    #[test]
    fn up_to_date_document_ranks_last_under_bm25() {
        let c = corpus();
        let searcher = Searcher::from_corpus(&c, 1);
        let hits = searcher.search(QUESTION, 5);
        assert_eq!(hits.len(), 5);
        assert_eq!(hits.last().unwrap().doc_id, UP_TO_DATE_DOC);
    }

    #[test]
    fn stale_document_ranks_before_the_up_to_date_one() {
        let c = corpus();
        let searcher = Searcher::from_corpus(&c, 1);
        let hits = searcher.search(QUESTION, 5);
        let rank_of = |id: &str| hits.iter().position(|h| h.doc_id == id).unwrap();
        assert!(rank_of(STALE_DOC) < rank_of(UP_TO_DATE_DOC));
    }

    #[test]
    fn prior_recalls_a_stale_champion() {
        assert_eq!(prior().recall(QUESTION).unwrap().answer, "Serena Williams");
    }

    #[test]
    fn scenario_expectations() {
        let s = scenario();
        assert_eq!(s.expected_full_context_answer, "Coco Gauff");
        assert_eq!(s.expected_empty_context_answer, "Serena Williams");
    }
}

//! Use case #3 — "Timelines": counting Player-of-the-Year awards 2010–2019.
//!
//! The documents form a timeline, one per season, naming that year's Tennis Player of
//! the Year: Rafael Nadal (2010, 2013, 2017, 2019), Novak Djokovic (2011, 2012, 2014,
//! 2015, 2018) and Andy Murray (2016). The paper's narrative: the full context yields
//! the expected answer 5; the combination counterfactual cites exactly the five
//! Djokovic-year documents; permutation insights show a stable answer with no rules.

use rage_llm::knowledge::{PriorFact, PriorKnowledge};
use rage_retrieval::{Corpus, Document};

use crate::scenario::Scenario;

/// The question posed to the system.
pub const QUESTION: &str =
    "How many times did Novak Djokovic win the Tennis Player of the Year award between 2010 and 2019?";

/// The award winner of each season covered by the timeline.
pub const WINNERS: &[(i32, &str)] = &[
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

/// Document id for one season of the timeline.
pub fn doc_id(year: i32) -> String {
    format!("player-of-the-year-{year}")
}

/// The years in which Djokovic won (the documents a correct citation must include).
pub fn djokovic_years() -> Vec<i32> {
    WINNERS
        .iter()
        .filter(|(_, name)| *name == "Novak Djokovic")
        .map(|(year, _)| *year)
        .collect()
}

/// The corpus: one document per season.
pub fn corpus() -> Corpus {
    let mut corpus = Corpus::new();
    for &(year, winner) in WINNERS {
        corpus.push(
            Document::new(
                doc_id(year),
                format!("Player of the Year {year}"),
                format!(
                    "{winner} was named Tennis Player of the Year for the {year} season, the award \
                     recognising the outstanding player of that year."
                ),
            )
            .with_field("year", year.to_string())
            .with_field("winner", winner),
        );
    }
    corpus
}

/// Prior knowledge: a miscounted memory (4 instead of 5), so the empty-context answer
/// differs from the grounded one and bottom-up counterfactuals have something to flip.
pub fn prior() -> PriorKnowledge {
    PriorKnowledge::empty().with_fact(PriorFact::new(
        &["djokovic", "player", "year", "award"],
        "4",
        0.3,
    ))
}

/// The complete scenario bundle.
pub fn scenario() -> Scenario {
    Scenario {
        name: "timeline".to_string(),
        question: QUESTION.to_string(),
        corpus: corpus(),
        retrieval_k: 10,
        prior: prior(),
        expected_full_context_answer: "5".to_string(),
        expected_empty_context_answer: "4".to_string(),
        description:
            "Use case #3 (Timelines): one document per season 2010-2019; the correct count \
                      of Djokovic's awards is 5 and the counterfactual citation names exactly the \
                      five supporting seasons."
                .to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rage_retrieval::Searcher;

    #[test]
    fn corpus_covers_every_season_once() {
        let c = corpus();
        assert_eq!(c.len(), 10);
        for &(year, winner) in WINNERS {
            let doc = c.get(&doc_id(year)).expect("season document present");
            assert_eq!(doc.fields.get("winner").unwrap(), winner);
            assert!(doc.text.contains(&year.to_string()));
        }
    }

    #[test]
    fn djokovic_won_five_times() {
        assert_eq!(djokovic_years(), vec![2011, 2012, 2014, 2015, 2018]);
    }

    #[test]
    fn all_ten_documents_are_retrievable() {
        let c = corpus();
        let searcher = Searcher::from_corpus(&c, 1);
        let hits = searcher.search(QUESTION, 10);
        assert_eq!(hits.len(), 10);
    }

    #[test]
    fn djokovic_documents_outrank_unrelated_seasons() {
        let c = corpus();
        let searcher = Searcher::from_corpus(&c, 1);
        let hits = searcher.search(QUESTION, 10);
        let rank_of = |year: i32| {
            hits.iter()
                .position(|h| h.doc_id == doc_id(year))
                .unwrap_or_else(|| panic!("{year} not retrieved"))
        };
        // Djokovic seasons match the player name in the query, so they must outrank the
        // seasons that match neither the player nor the year range endpoints (2010 and
        // 2019 appear literally in the question and legitimately score higher).
        for djokovic_year in djokovic_years() {
            for unrelated_year in [2013, 2016, 2017] {
                assert!(
                    rank_of(djokovic_year) < rank_of(unrelated_year),
                    "{djokovic_year} should outrank {unrelated_year}"
                );
            }
        }
    }

    #[test]
    fn prior_miscounts() {
        assert_eq!(prior().recall(QUESTION).unwrap().answer, "4");
    }

    #[test]
    fn scenario_expectations() {
        let s = scenario();
        assert_eq!(s.retrieval_k, 10);
        assert_eq!(s.expected_full_context_answer, "5");
    }
}

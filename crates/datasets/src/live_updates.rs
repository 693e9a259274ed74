//! Live-updates scenario: a breaking-news corpus built to be *mutated*.
//!
//! Every other scenario in this crate is a frozen corpus. This one ships two
//! halves: a seed corpus of past "Coastal Classic" champions (2020–2024) and a
//! scripted sequence of corpus mutations — a breaking 2025 result lands, gets
//! corrected, and is finally retracted — with the grounded answer the pipeline
//! must give once each step is applied. The question is a *most recent* one, so
//! the answer tracks the latest championship document alive in the corpus:
//! add a newer result and the answer moves; remove it and the answer falls
//! back to the previous season.
//!
//! Consumers replay the script through whatever mutation surface they are
//! exercising — [`Corpus`] edits plus a rebuild, the incremental
//! `ShardedIndex` delta path, the report `Service`, or the HTTP
//! `/corpus/docs` endpoints — and assert the answer after every step matches
//! [`ScriptStep::expected_answer`]. That makes the scenario the standard
//! fixture for "does a corpus mutation actually invalidate what is served?"
//! tests.

use rage_llm::knowledge::{PriorFact, PriorKnowledge};
use rage_retrieval::{Corpus, Document};

use crate::scenario::Scenario;

/// The question posed to the system.
pub const QUESTION: &str = "Who is the most recent Coastal Classic champion?";

/// Document id of the breaking-news document the script adds, corrects and
/// finally retracts.
pub const BREAKING_DOC: &str = "coastal-classic-2025";

/// Document id of the newest champion in the *seed* corpus — the answer both
/// before the script starts and after the breaking result is retracted.
pub const SEED_LATEST_DOC: &str = "coastal-classic-2024";

/// The champions of each season covered by the seed corpus.
pub const SEED_CHAMPIONS: &[(i32, &str)] = &[
    (2020, "Sofia Kenin"),
    (2021, "Ashleigh Barty"),
    (2022, "Ons Jabeur"),
    (2023, "Marketa Vondrousova"),
    (2024, "Qinwen Zheng"),
];

/// One corpus mutation, expressed in dataset terms so every mutation surface
/// (plain [`Corpus`], incremental index, report service, HTTP endpoint) can
/// replay it through its own API.
#[derive(Debug, Clone)]
pub enum Mutation {
    /// Add a brand-new document (fails on surfaces that reject duplicates if
    /// the id is already live).
    Add(Document),
    /// Replace the live document carrying the same id.
    Update(Document),
    /// Remove the document with this id.
    Remove(String),
}

impl Mutation {
    /// The id of the document this mutation touches.
    pub fn doc_id(&self) -> &str {
        match self {
            Mutation::Add(doc) | Mutation::Update(doc) => &doc.id,
            Mutation::Remove(id) => id,
        }
    }

    /// Replay this mutation against a plain [`Corpus`].
    ///
    /// Returns `false` when the operation does not apply (adding a live id,
    /// updating or removing a missing one) and leaves the corpus untouched, so
    /// callers can assert a well-formed script applies cleanly end to end.
    pub fn apply_to(&self, corpus: &mut Corpus) -> bool {
        match self {
            Mutation::Add(doc) => corpus.try_push(doc.clone()).is_ok(),
            Mutation::Update(doc) => corpus.replace(doc.clone()).is_ok(),
            Mutation::Remove(id) => corpus.remove(id).is_some(),
        }
    }
}

/// One step of the mutation script: the mutation to apply, the grounded
/// answer to [`QUESTION`] once it has been applied, and the newsroom story it
/// models.
#[derive(Debug, Clone)]
pub struct ScriptStep {
    /// The corpus mutation to apply.
    pub mutation: Mutation,
    /// The full-context answer the pipeline must give *after* this step.
    pub expected_answer: &'static str,
    /// What just happened in the newsroom (used by walkthroughs and logs).
    pub note: &'static str,
}

/// A champion document, phrased like the seed corpus so BM25 treats scripted
/// documents and seed documents alike.
fn champion_doc(year: i32, champion: &str, tail: &str) -> Document {
    Document::new(
        format!("coastal-classic-{year}"),
        format!("Coastal Classic {year}"),
        format!("{champion} was crowned Coastal Classic champion in {year}{tail}"),
    )
    .with_field("year", year.to_string())
    .with_field("champion", champion)
}

/// The seed corpus: one championship document per season 2020–2024.
pub fn corpus() -> Corpus {
    let tails = [
        ", lifting the trophy in her first final by the bay.",
        ", adding the seaside title to her grass season.",
        ", the first champion from north Africa.",
        ", saving a match point along the way.",
        ", her maiden title on an outdoor hard court.",
    ];
    let mut corpus = Corpus::new();
    for (&(year, champion), tail) in SEED_CHAMPIONS.iter().zip(tails) {
        corpus.push(champion_doc(year, champion, tail));
    }
    corpus
}

/// The scripted mutation sequence: a breaking result lands, is corrected, and
/// is finally retracted.
pub fn mutation_script() -> Vec<ScriptStep> {
    vec![
        ScriptStep {
            mutation: Mutation::Add(champion_doc(
                2025,
                "Mirra Andreeva",
                ", according to a provisional wire flash.",
            )),
            expected_answer: "Mirra Andreeva",
            note: "A breaking 2025 result lands: the wire names Mirra Andreeva.",
        },
        ScriptStep {
            mutation: Mutation::Update(champion_doc(
                2025,
                "Emma Navarro",
                ", the most recent final, after a scoring review.",
            )),
            expected_answer: "Emma Navarro",
            note: "Correction: the review awards the 2025 final to Emma Navarro.",
        },
        ScriptStep {
            mutation: Mutation::Remove(BREAKING_DOC.to_string()),
            expected_answer: "Qinwen Zheng",
            note: "Retraction: the 2025 result is withdrawn pending appeal.",
        },
    ]
}

/// Prior knowledge: a stale memory of a champion from before the seed corpus,
/// so the empty-context answer differs from every grounded one.
pub fn prior() -> PriorKnowledge {
    PriorKnowledge::empty().with_fact(PriorFact::new(
        &["coastal", "classic", "champion"],
        "Naomi Osaka",
        0.2,
    ))
}

/// The complete scenario bundle (the *seed* corpus; apply
/// [`mutation_script`] to exercise the live-update behaviour).
pub fn scenario() -> Scenario {
    Scenario {
        name: "live-updates".to_string(),
        question: QUESTION.to_string(),
        corpus: corpus(),
        retrieval_k: 5,
        prior: prior(),
        expected_full_context_answer: "Qinwen Zheng".to_string(),
        expected_empty_context_answer: "Naomi Osaka".to_string(),
        description: "Live updates: a champions corpus paired with a scripted mutation \
                      sequence (breaking result, correction, retraction); the most-recent \
                      answer must track every corpus version."
            .to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rage_retrieval::Searcher;

    fn search_ids(corpus: &Corpus, k: usize) -> Vec<String> {
        let searcher = Searcher::from_corpus(corpus, 1);
        searcher
            .search(QUESTION, k)
            .into_iter()
            .map(|h| h.doc_id)
            .collect()
    }

    #[test]
    fn seed_corpus_covers_2020_to_2024() {
        let c = corpus();
        assert_eq!(c.len(), 5);
        for &(year, champion) in SEED_CHAMPIONS {
            let doc = c
                .get(&format!("coastal-classic-{year}"))
                .expect("season doc");
            assert_eq!(doc.fields.get("champion").unwrap(), champion);
            assert!(doc.text.contains(&year.to_string()));
        }
        assert!(c.get(BREAKING_DOC).is_none());
    }

    #[test]
    fn every_seed_document_is_retrieved() {
        let ids = search_ids(&corpus(), 5);
        assert_eq!(ids.len(), 5);
        assert!(ids.contains(&SEED_LATEST_DOC.to_string()));
    }

    #[test]
    fn script_applies_cleanly_and_keeps_the_breaking_doc_retrievable() {
        let mut c = corpus();
        let script = mutation_script();
        assert_eq!(script.len(), 3);

        // Step 1: the breaking result lands and must make the context.
        assert!(script[0].mutation.apply_to(&mut c));
        assert_eq!(c.len(), 6);
        assert!(search_ids(&c, 5).contains(&BREAKING_DOC.to_string()));
        assert!(c.get(BREAKING_DOC).unwrap().text.contains("Mirra Andreeva"));

        // Step 2: the correction replaces the same document in place.
        assert!(script[1].mutation.apply_to(&mut c));
        assert_eq!(c.len(), 6);
        assert!(search_ids(&c, 5).contains(&BREAKING_DOC.to_string()));
        assert!(c.get(BREAKING_DOC).unwrap().text.contains("Emma Navarro"));

        // Step 3: the retraction restores the seed corpus document set.
        assert!(script[2].mutation.apply_to(&mut c));
        assert_eq!(c.len(), 5);
        assert!(c.get(BREAKING_DOC).is_none());
        assert!(search_ids(&c, 5).contains(&SEED_LATEST_DOC.to_string()));
    }

    #[test]
    fn misapplied_mutations_report_failure_and_leave_the_corpus_alone() {
        let mut c = corpus();
        let add_live = Mutation::Add(champion_doc(2024, "Nobody", "."));
        let update_missing = Mutation::Update(champion_doc(2031, "Nobody", "."));
        let remove_missing = Mutation::Remove("coastal-classic-2031".to_string());
        for mutation in [&add_live, &update_missing, &remove_missing] {
            assert!(!mutation.apply_to(&mut c), "{mutation:?}");
        }
        assert_eq!(c, corpus());
    }

    #[test]
    fn script_touches_only_the_breaking_doc() {
        for step in mutation_script() {
            assert_eq!(step.mutation.doc_id(), BREAKING_DOC);
            assert!(!step.note.is_empty());
        }
    }

    #[test]
    fn prior_recalls_a_stale_champion() {
        assert_eq!(prior().recall(QUESTION).unwrap().answer, "Naomi Osaka");
    }

    #[test]
    fn scenario_expectations() {
        let s = scenario();
        assert_eq!(s.retrieval_k, 5);
        assert_eq!(s.expected_full_context_answer, "Qinwen Zheng");
        assert_eq!(s.expected_empty_context_answer, "Naomi Osaka");
    }
}

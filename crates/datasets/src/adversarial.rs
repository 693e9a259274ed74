//! An adversarial corpus: near-duplicate sources asserting contradictory facts.
//!
//! Two camps of documents make irreconcilable claims about who won the Meridian Cup —
//! three assert Lara Voss, three assert Tessa Marin — and each claim in one camp has a
//! *textual twin* in the other that differs only in the champion's name. Because the
//! twins match the query's terms identically, their BM25 scores are **exactly tied**,
//! which stresses two things at once:
//!
//! * **Deterministic ranking.** Tied scores are broken by ascending document id
//!   everywhere (single and sharded retrieval alike), so the contradictory context has
//!   one canonical layout. The interleaved ids in this corpus make any
//!   insertion-order or shard-order leak visible immediately.
//! * **Explanation under contradiction.** With evidence perfectly balanced, the answer
//!   is decided by context position alone, so RAGE's counterfactual sets, permutation
//!   sensitivity and presence/absence rules all fire: removing or demoting a camp's
//!   documents flips the answer to the other camp's champion.

use rage_llm::knowledge::{PriorFact, PriorKnowledge};
use rage_retrieval::{Corpus, Document};

use crate::scenario::Scenario;

/// The question posed to the system.
pub const QUESTION: &str = "Who won the Meridian Cup final?";

/// The champion asserted by the `voss` camp.
pub const CAMP_VOSS: &str = "Lara Voss";

/// The champion asserted by the `marin` camp.
pub const CAMP_MARIN: &str = "Tessa Marin";

/// Claim phrasings shared verbatim by both camps (`{}` holds the champion's name).
///
/// Each phrasing mentions every query term exactly once, and both champion names
/// analyse to the same number of tokens, so twin documents tie exactly under BM25.
const CLAIMS: &[&str] = &[
    "The champion {} won the Meridian Cup final after a dominant week.",
    "The Meridian Cup final was won by champion {}, the bulletin confirms.",
    "Observers crowned {} the winner of the Meridian Cup final on Sunday.",
];

/// The corpus of contradictory near-duplicates.
///
/// Ids interleave the camps (`claim-0-marin`, `claim-0-voss`, ...) and insertion order
/// deliberately *disagrees* with id order: within each twin pair the `voss` document is
/// inserted first but the `marin` id sorts first, so any ranking that leaks insertion
/// (or shard) order instead of the id tie-break reorders the context — and flips the
/// answer.
pub fn corpus() -> Corpus {
    let mut corpus = Corpus::new();
    for (i, claim) in CLAIMS.iter().enumerate() {
        corpus.push(
            Document::new(
                format!("claim-{i}-voss"),
                String::new(),
                claim.replace("{}", CAMP_VOSS),
            )
            .with_field("camp", "voss"),
        );
        corpus.push(
            Document::new(
                format!("claim-{i}-marin"),
                String::new(),
                claim.replace("{}", CAMP_MARIN),
            )
            .with_field("camp", "marin"),
        );
    }
    corpus
}

/// Prior knowledge: a third champion neither camp supports.
pub fn prior() -> PriorKnowledge {
    PriorKnowledge::empty().with_fact(PriorFact::new(&["meridian", "cup"], "Nadia Kovic", 0.08))
}

/// The complete scenario bundle.
pub fn scenario() -> Scenario {
    Scenario {
        name: "adversarial".to_string(),
        question: QUESTION.to_string(),
        corpus: corpus(),
        retrieval_k: 6,
        prior: prior(),
        expected_full_context_answer: CAMP_MARIN.to_string(),
        expected_empty_context_answer: "Nadia Kovic".to_string(),
        description: "Contradictory near-duplicates: three documents assert Lara Voss \
                      won the Meridian Cup, three textual twins assert Tessa Marin did. \
                      Twin documents tie exactly under BM25, so ranking determinism and \
                      position effects decide — and explain — the answer."
            .to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rage_retrieval::Searcher;

    #[test]
    fn twin_documents_tie_exactly_and_ids_break_the_tie() {
        let searcher = Searcher::from_corpus(&corpus(), 1);
        let hits = searcher.search(QUESTION, 6);
        assert_eq!(hits.len(), 6);
        // Twin pairs carry bit-identical scores...
        for pair in hits.chunks(2) {
            assert_eq!(pair[0].score.to_bits(), pair[1].score.to_bits());
            // ...and within a pair the lexicographically smaller id ranks first, even
            // though the voss twin was inserted first.
            assert!(pair[0].doc_id < pair[1].doc_id);
            assert!(pair[0].doc_id.ends_with("marin"));
            assert!(pair[1].doc_id.ends_with("voss"));
        }
    }

    #[test]
    fn camps_are_balanced() {
        let c = corpus();
        let marin = c.iter().filter(|d| d.fields["camp"] == "marin").count();
        let voss = c.iter().filter(|d| d.fields["camp"] == "voss").count();
        assert_eq!(marin, 3);
        assert_eq!(voss, 3);
        for doc in c.iter() {
            let name = if doc.fields["camp"] == "marin" {
                CAMP_MARIN
            } else {
                CAMP_VOSS
            };
            assert!(doc.text.contains(name));
        }
    }

    #[test]
    fn prior_recalls_a_third_party() {
        assert_eq!(prior().recall(QUESTION).unwrap().answer, "Nadia Kovic");
    }
}

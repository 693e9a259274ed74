//! Parameterised synthetic corpora for benchmarks and property tests.
//!
//! Two families of generators are provided:
//!
//! * [`ranking_scenario`] — a scaled-up analogue of the Big Three use case: `k` sources,
//!   each endorsing one of `num_entities` candidates with cue-worded text, plus filler
//!   vocabulary. Used by the counterfactual-search and optimal-permutation experiments
//!   (E5–E7, E11), where the answer must genuinely depend on which sources are present
//!   and where they sit.
//! * [`filler_corpus`] — a large corpus of random filler documents with a Zipf-like
//!   vocabulary, used by the retrieval benchmarks (E9) to measure index build and query
//!   latency at realistic corpus sizes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rage_llm::knowledge::{PriorFact, PriorKnowledge};
use rage_retrieval::{Corpus, Document};

use crate::scenario::Scenario;

/// Candidate entity names used by the synthetic ranking scenario.
///
/// First names are distinct so that capitalised-span extraction yields unambiguous
/// candidates.
const ENTITY_NAMES: &[&str] = &[
    "Alice Archer",
    "Boris Blake",
    "Clara Chen",
    "Dmitri Duval",
    "Elena Estrada",
    "Felix Ferreira",
    "Greta Gruber",
    "Hassan Haddad",
    "Ingrid Ito",
    "Jonas Jansen",
    "Katya Kim",
    "Lucas Lindgren",
];

/// Filler vocabulary for padding documents to a target length.
const FILLER_WORDS: &[&str] = &[
    "season",
    "tournament",
    "statistics",
    "analysts",
    "observers",
    "performance",
    "record",
    "career",
    "surface",
    "ranking",
    "points",
    "margin",
    "period",
    "historical",
    "debate",
    "metric",
    "measure",
    "figure",
    "report",
    "summary",
    "coverage",
    "commentary",
    "archive",
    "database",
    "chronicle",
    "review",
    "analysis",
    "comparison",
    "study",
];

/// Configuration of the synthetic ranking scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankingConfig {
    /// Number of sources to generate (the context size `k`).
    pub num_sources: usize,
    /// Number of distinct candidate entities endorsed by the sources.
    pub num_entities: usize,
    /// Extra filler words appended to every document.
    pub filler_words: usize,
    /// RNG seed (the whole scenario is deterministic in this seed).
    pub seed: u64,
}

impl Default for RankingConfig {
    fn default() -> Self {
        Self {
            num_sources: 6,
            num_entities: 3,
            filler_words: 6,
            seed: 7,
        }
    }
}

/// The question used by every synthetic ranking scenario.
pub const RANKING_QUESTION: &str = "Who is the best overall candidate this season?";

/// Generate a synthetic ranking scenario with `k` sources endorsing `num_entities`
/// candidates.
///
/// Source `i` endorses entity `i % num_entities`; the first source's endorsement is the
/// expected full-context answer under the default (primacy-tilted) model, mirroring the
/// structure of use case #1 at arbitrary scale.
pub fn ranking_scenario(config: RankingConfig) -> Scenario {
    assert!(config.num_sources >= 1, "at least one source required");
    let num_entities = config.num_entities.clamp(1, ENTITY_NAMES.len());
    let mut rng = StdRng::seed_from_u64(config.seed);

    let mut corpus = Corpus::new();
    for i in 0..config.num_sources {
        let entity = ENTITY_NAMES[i % num_entities];
        let metric = FILLER_WORDS[i % FILLER_WORDS.len()];
        let filler: Vec<&str> = (0..config.filler_words)
            .map(|_| FILLER_WORDS[rng.gen_range(0..FILLER_WORDS.len())])
            .collect();
        let text = format!(
            "{entity} ranks first on the {metric} metric and leads the candidate table this season. {}",
            filler.join(" ")
        );
        corpus.push(
            Document::new(
                format!("synthetic-{i}"),
                format!("Ranking by {metric}"),
                text,
            )
            .with_field("endorses", entity)
            .with_field("position_hint", i.to_string()),
        );
    }

    let expected = ENTITY_NAMES[0].to_string();
    let prior_answer = ENTITY_NAMES[1 % num_entities].to_string();
    Scenario {
        name: format!("synthetic-ranking-k{}", config.num_sources),
        question: RANKING_QUESTION.to_string(),
        corpus,
        retrieval_k: config.num_sources,
        prior: PriorKnowledge::empty().with_fact(PriorFact::new(
            &["best", "overall", "candidate"],
            prior_answer.clone(),
            0.2,
        )),
        expected_full_context_answer: expected,
        expected_empty_context_answer: prior_answer,
        description: format!(
            "Synthetic ranking scenario with {} sources endorsing {} entities (seed {}).",
            config.num_sources, num_entities, config.seed
        ),
    }
}

/// Configuration of the filler corpus generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FillerConfig {
    /// Number of documents.
    pub num_docs: usize,
    /// Words per document.
    pub words_per_doc: usize,
    /// Vocabulary size; term frequencies follow a Zipf-like distribution over it.
    pub vocabulary: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FillerConfig {
    fn default() -> Self {
        Self {
            num_docs: 1000,
            words_per_doc: 40,
            vocabulary: 5000,
            seed: 11,
        }
    }
}

/// Generate a corpus of random filler documents with a skewed term distribution.
pub fn filler_corpus(config: FillerConfig) -> Corpus {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut corpus = Corpus::new();
    for d in 0..config.num_docs {
        let mut words = Vec::with_capacity(config.words_per_doc);
        for _ in 0..config.words_per_doc {
            // Zipf-ish skew: squaring a uniform sample concentrates mass on low ranks.
            let u: f64 = rng.gen::<f64>();
            let rank = ((u * u) * config.vocabulary as f64) as usize;
            words.push(format!("term{rank}"));
        }
        corpus.push(Document::new(
            format!("filler-{d}"),
            String::new(),
            words.join(" "),
        ));
    }
    corpus
}

/// A set of queries matching the filler corpus vocabulary (for retrieval benchmarks).
pub fn filler_queries(config: FillerConfig, num_queries: usize) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xFACE);
    (0..num_queries)
        .map(|_| {
            let terms: Vec<String> = (0..4)
                .map(|_| {
                    let u: f64 = rng.gen::<f64>();
                    let rank = ((u * u) * config.vocabulary as f64) as usize;
                    format!("term{rank}")
                })
                .collect();
            terms.join(" ")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rage_retrieval::Searcher;

    #[test]
    fn ranking_scenario_has_requested_size() {
        let s = ranking_scenario(RankingConfig {
            num_sources: 8,
            ..RankingConfig::default()
        });
        assert_eq!(s.corpus_size(), 8);
        assert_eq!(s.retrieval_k, 8);
        assert!(s.expected_full_context_answer.contains("Alice"));
    }

    #[test]
    fn ranking_scenario_is_deterministic() {
        let a = ranking_scenario(RankingConfig::default());
        let b = ranking_scenario(RankingConfig::default());
        assert_eq!(a.corpus, b.corpus);
    }

    #[test]
    fn different_seeds_vary_filler_text() {
        let a = ranking_scenario(RankingConfig {
            seed: 1,
            ..RankingConfig::default()
        });
        let b = ranking_scenario(RankingConfig {
            seed: 2,
            ..RankingConfig::default()
        });
        assert_ne!(a.corpus, b.corpus);
    }

    #[test]
    fn every_source_endorses_an_entity() {
        let s = ranking_scenario(RankingConfig {
            num_sources: 10,
            num_entities: 4,
            ..RankingConfig::default()
        });
        for doc in s.corpus.iter() {
            let endorsed = doc.fields.get("endorses").unwrap();
            assert!(doc.text.contains(endorsed.as_str()));
        }
    }

    #[test]
    fn ranking_documents_are_retrievable() {
        let s = ranking_scenario(RankingConfig::default());
        let searcher = Searcher::from_corpus(&s.corpus, 1);
        let hits = searcher.search(&s.question, s.retrieval_k);
        assert_eq!(hits.len(), s.retrieval_k);
    }

    #[test]
    fn filler_corpus_size_and_determinism() {
        let config = FillerConfig {
            num_docs: 50,
            ..FillerConfig::default()
        };
        let a = filler_corpus(config);
        let b = filler_corpus(config);
        assert_eq!(a.len(), 50);
        assert_eq!(a, b);
    }

    #[test]
    fn filler_queries_match_vocabulary() {
        let config = FillerConfig {
            num_docs: 20,
            ..FillerConfig::default()
        };
        let queries = filler_queries(config, 5);
        assert_eq!(queries.len(), 5);
        assert!(queries.iter().all(|q| q.contains("term")));
    }

    #[test]
    #[should_panic(expected = "at least one source")]
    fn zero_sources_rejected() {
        ranking_scenario(RankingConfig {
            num_sources: 0,
            ..RankingConfig::default()
        });
    }
}

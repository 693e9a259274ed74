//! A seeded organisation registry: entity resolution over names, aliases and acronyms.
//!
//! Real research-organisation registries (ROR, GRID) hold one record per institution —
//! canonical name, alias word-order variants, an acronym, a city and a stable registry
//! identifier — and the standard workload against them is *affiliation matching*:
//! resolving a free-text affiliation string ("CHI Varenmoor, hydrology dept") to the
//! registry record it denotes. This generator reproduces that shape at arbitrary scale:
//!
//! * Organisation `i`'s identity (descriptor, field, institution type, city) is a
//!   bijective mixing of `i` over a 2^19 identity space, so every organisation of a
//!   registry up to 524 288 entries has a **distinct** canonical name — lookups have
//!   exactly one right answer.
//! * Each record lists the canonical name, two alias word-order variants, the acronym
//!   (initials of the canonical words), the city and a unique `ror{i}` registry
//!   identifier, plus a seeded tail of research-topic words that varies document
//!   lengths.
//! * [`resolution_queries`] generates a deterministic batch of affiliation-style
//!   lookups rotating through acronym+city, alias and registry-identifier forms, each
//!   paired with the document id it must resolve to — the batch workload the retrieval
//!   benchmark and the server loadtest replay.
//!
//! The default registry holds a few thousand organisations (cheap enough for report
//! smoke tests); the retrieval benchmark builds the same generator at 100k+ documents.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rage_llm::knowledge::{PriorFact, PriorKnowledge};
use rage_retrieval::{Corpus, Document};

use crate::scenario::Scenario;

/// Leading descriptor of a canonical organisation name (16 entries — 4 identity bits).
const DESCRIPTORS: &[&str] = &[
    "National",
    "Royal",
    "Federal",
    "Coastal",
    "Northern",
    "Central",
    "Pacific",
    "Metropolitan",
    "Continental",
    "Imperial",
    "Eastern",
    "Western",
    "Highland",
    "Maritime",
    "Alpine",
    "Polar",
];

/// Research field of a canonical organisation name (16 entries — 4 identity bits).
const FIELDS: &[&str] = &[
    "Oceanography",
    "Informatics",
    "Astronomy",
    "Genetics",
    "Metallurgy",
    "Hydrology",
    "Linguistics",
    "Robotics",
    "Meteorology",
    "Agronomy",
    "Toxicology",
    "Cartography",
    "Seismology",
    "Virology",
    "Photonics",
    "Glaciology",
];

/// Institution type of a canonical organisation name (8 entries — 3 identity bits).
const TYPES: &[&str] = &[
    "Institute",
    "University",
    "Laboratory",
    "Academy",
    "Observatory",
    "Foundation",
    "College",
    "Polytechnic",
];

/// City-name syllables; a city is one leading and one trailing syllable (16 × 16
/// entries — 8 identity bits).
const CITY_HEADS: &[&str] = &[
    "Varen", "Oster", "Quil", "Bram", "Tel", "Mar", "Hol", "Dun", "Kess", "Lor", "Nav", "Gri",
    "Sel", "Thorn", "Wyn", "Eber",
];
const CITY_TAILS: &[&str] = &[
    "moor", "wick", "holm", "stad", "bury", "ford", "haven", "gate", "mere", "field", "port",
    "dale", "cliff", "marsh", "bourne", "ridge",
];

/// Research-topic filler appended to records to vary document lengths.
const TOPICS: &[&str] = &[
    "sediment",
    "corpora",
    "telescopes",
    "genomes",
    "alloys",
    "aquifers",
    "syntax",
    "actuators",
    "cyclones",
    "soils",
    "toxins",
    "surveys",
    "faults",
    "vaccines",
    "lasers",
    "glaciers",
    "archives",
    "sensors",
    "reagents",
    "catalogues",
];

/// One organisation of the registry: the decoded identity behind a record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrgRecord {
    /// Document id of the record (`org-{i:06}`).
    pub doc_id: String,
    /// Distinct canonical name, e.g. `Coastal Hydrology Institute`.
    pub canonical: String,
    /// Acronym formed from the canonical name's initials, e.g. `CHI`.
    pub acronym: String,
    /// City the organisation is based in, e.g. `Varenmoor`.
    pub city: String,
    /// Field word of the canonical name, e.g. `Hydrology`.
    pub field: String,
    /// Institution type of the canonical name, e.g. `Institute`.
    pub institution: String,
    /// Unique registry identifier token, e.g. `ror000123`.
    pub registry_id: String,
}

/// Configuration of the entity-registry scenario family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EntityRegistryConfig {
    /// Number of organisations (one record document each). At most 524 288 — the
    /// identity space guaranteeing distinct canonical names.
    pub num_orgs: usize,
    /// Retrieval depth `k` for the scenario's resolution question.
    pub retrieval_k: usize,
    /// RNG seed for the topic tails (identities are seed-independent).
    pub seed: u64,
}

impl Default for EntityRegistryConfig {
    fn default() -> Self {
        Self {
            num_orgs: 4096,
            retrieval_k: 6,
            seed: 29,
        }
    }
}

/// The identity space: 4 descriptor bits + 4 field bits + 3 type bits + 8 city bits.
const IDENTITY_BITS: u32 = 19;
const IDENTITY_SPACE: usize = 1 << IDENTITY_BITS;

/// Decode organisation `i`'s identity.
///
/// Multiplying by an odd constant modulo a power of two is a bijection, so every
/// `i < 2^19` maps to a distinct (descriptor, field, type, city) tuple — canonical
/// names never collide — while consecutive indexes scatter across cities and fields.
pub fn org_record(i: usize) -> OrgRecord {
    assert!(
        i < IDENTITY_SPACE,
        "registry capped at {IDENTITY_SPACE} organisations"
    );
    let mix = i.wrapping_mul(0x9E37_79B1) & (IDENTITY_SPACE - 1);
    let descriptor = DESCRIPTORS[mix & 15];
    let field = FIELDS[(mix >> 4) & 15];
    let institution = TYPES[(mix >> 8) & 7];
    let city = format!(
        "{}{}",
        CITY_HEADS[(mix >> 11) & 15],
        CITY_TAILS[(mix >> 15) & 15]
    );
    let canonical = format!("{descriptor} {field} {institution}");
    let acronym: String = [descriptor, field, institution]
        .iter()
        .filter_map(|w| w.chars().next())
        .collect();
    OrgRecord {
        doc_id: format!("org-{i:06}"),
        canonical,
        acronym,
        city,
        field: field.to_string(),
        institution: institution.to_string(),
        registry_id: format!("ror{i:06}"),
    }
}

/// Generate the registry corpus: one record document per organisation.
pub fn registry_corpus(config: EntityRegistryConfig) -> Corpus {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut corpus = Corpus::new();
    for i in 0..config.num_orgs {
        let org = org_record(i);
        let num_topics = rng.gen_range(2..8);
        let topics: Vec<&str> = (0..num_topics)
            .map(|_| TOPICS[rng.gen_range(0..TOPICS.len())])
            .collect();
        // Wording is chosen so capitalised entity spans stay clean for extraction: the
        // canonical name is always followed by a lowercase word, sentences start with
        // blocklisted words ("The"), and the acronym never abuts another capital.
        let text = format!(
            "{canonical} is a registered research organisation based in {city} under the \
             acronym {acronym} serving {city}. The register also lists the alias \
             {field} {institution} {city} for this organisation. The registry identifier \
             {rid} denotes this record. The research groups study {topics}.",
            canonical = org.canonical,
            acronym = org.acronym,
            city = org.city,
            field = org.field,
            institution = org.institution,
            rid = org.registry_id,
            topics = topics.join(" and "),
        );
        // Title stays empty: `full_text()` concatenates title and body, and a
        // canonical-name title would merge with the body's leading canonical name
        // into one doubled entity span.
        corpus.push(
            Document::new(org.doc_id.clone(), String::new(), text)
                .with_field("acronym", org.acronym.clone())
                .with_field("city", org.city.clone())
                .with_field("registry_id", org.registry_id.clone()),
        );
    }
    corpus
}

/// One affiliation-resolution lookup: a free-text query plus the record document id it
/// must resolve to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolutionQuery {
    /// The affiliation-style query string.
    pub query: String,
    /// Document id of the registry record the query denotes.
    pub expected_doc_id: String,
}

/// A deterministic batch of affiliation lookups against the registry.
///
/// Targets stride through the registry and the phrasing rotates through the three
/// classic affiliation shapes: acronym + city, alias word-order variant, and registry
/// identifier + city. Every form mixes boilerplate words that appear in each record
/// with at least one selective term, the shape real affiliation strings have. This is
/// the batch workload the retrieval benchmark's entity-resolution bucket and the
/// server loadtest replay.
pub fn resolution_queries(
    config: EntityRegistryConfig,
    num_queries: usize,
) -> Vec<ResolutionQuery> {
    assert!(
        config.num_orgs > 0,
        "registry must hold at least one organisation"
    );
    (0..num_queries)
        .map(|q| {
            // A large odd stride scatters targets over the whole registry.
            let org = org_record(q.wrapping_mul(7919) % config.num_orgs);
            let query = match q % 3 {
                0 => format!(
                    "which organisation is the affiliation {} {} {}",
                    org.acronym, org.city, org.field
                ),
                1 => format!(
                    "resolve the affiliation {} {} {}",
                    org.field, org.institution, org.city
                ),
                _ => format!(
                    "identify the registry record {} of {}",
                    org.registry_id, org.city
                ),
            };
            ResolutionQuery {
                query,
                expected_doc_id: org.doc_id,
            }
        })
        .collect()
}

/// The complete scenario bundle: the registry corpus plus one representative
/// affiliation-resolution question.
pub fn scenario(config: EntityRegistryConfig) -> Scenario {
    assert!(
        config.num_orgs >= 2,
        "registry needs at least two organisations"
    );
    let corpus = registry_corpus(config);
    // A mid-registry target keeps the needle away from both corpus ends, so contiguous
    // shard partitions never get it for free.
    let target = org_record(config.num_orgs / 2);
    let question = format!(
        "Which organisation does the affiliation {} {} {} refer to?",
        target.acronym, target.city, target.field
    );
    Scenario {
        name: format!("entity-registry-n{}", config.num_orgs),
        question,
        corpus,
        retrieval_k: config.retrieval_k,
        prior: PriorKnowledge::empty().with_fact(PriorFact::new(
            &["affiliation", "organisation"],
            "Helix Syndicate",
            0.1,
        )),
        expected_full_context_answer: target.canonical,
        expected_empty_context_answer: "Helix Syndicate".to_string(),
        description: format!(
            "Entity-resolution registry: {} organisation records with distinct canonical \
             names, aliases, acronyms and registry identifiers (seed {}); the question \
             resolves an affiliation string to its record, and batch lookups drive the \
             retrieval benchmark and loadtest entity-resolution buckets.",
            config.num_orgs, config.seed
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rage_retrieval::Searcher;

    #[test]
    fn identities_are_distinct() {
        let mut names = std::collections::HashSet::new();
        for i in 0..5000 {
            let org = org_record(i);
            assert!(
                names.insert(format!("{} {}", org.canonical, org.city)),
                "collision at {i}"
            );
            assert_eq!(org.acronym.len(), 3);
        }
    }

    #[test]
    fn corpus_is_deterministic_and_seed_sensitive() {
        let small = EntityRegistryConfig {
            num_orgs: 64,
            ..EntityRegistryConfig::default()
        };
        assert_eq!(registry_corpus(small), registry_corpus(small));
        let reseeded = EntityRegistryConfig { seed: 99, ..small };
        assert_ne!(registry_corpus(small), registry_corpus(reseeded));
    }

    #[test]
    fn resolution_queries_hit_their_target_record() {
        let config = EntityRegistryConfig {
            num_orgs: 512,
            ..EntityRegistryConfig::default()
        };
        let searcher = Searcher::from_corpus(&registry_corpus(config), 1);
        for rq in resolution_queries(config, 12) {
            let hits = searcher.search(&rq.query, 1);
            assert_eq!(hits[0].doc_id, rq.expected_doc_id, "{:?}", rq.query);
        }
    }

    #[test]
    fn scenario_question_retrieves_the_target_first() {
        let config = EntityRegistryConfig {
            num_orgs: 512,
            ..EntityRegistryConfig::default()
        };
        let s = scenario(config);
        assert_eq!(s.corpus_size(), 512);
        let searcher = Searcher::from_corpus(&s.corpus, 1);
        let hits = searcher.search(&s.question, s.retrieval_k);
        let target = org_record(config.num_orgs / 2);
        assert_eq!(hits[0].doc_id, target.doc_id);
        assert!(s.expected_full_context_answer.contains(&target.field));
    }

    #[test]
    #[should_panic(expected = "registry capped")]
    fn oversized_registry_rejected() {
        org_record(IDENTITY_SPACE);
    }
}

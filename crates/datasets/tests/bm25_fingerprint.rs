//! Pins the BM25 scores retrieval hands to the explanation engine, bit for bit.
//!
//! The retrieval suites compare the pruned searcher against exhaustive scoring and a
//! dense reference, but every one of those oracles calls the same scoring kernel
//! (`bm25::term_score_dl`) with the same constants. A change that moves a score bit
//! in the shared kernel (an operand reordered, a constant retyped) therefore passes
//! all of them. This test hashes, with FNV-1a, the document ids and `f64::to_bits`
//! of the `Searcher::search` top-10 at 1 and 3 shards for 1,200 entity-registry
//! resolution queries and every registered scenario's question, plus
//! `Searcher::score_document` for each hit, and compares the hash with a constant.
//! A change that means to move scores re-pins the constant and says why.

use rage_datasets::entity_registry::{self, EntityRegistryConfig};
use rage_datasets::ScenarioRegistry;
use rage_retrieval::{Corpus, Searcher};

/// The fingerprint of every hashed id and score bit.
const EXPECTED_FINGERPRINT: u64 = 0x50f0_b465_2eae_9d66;

/// The number of hits hashed (a mismatch here points at ranking, not scores).
const EXPECTED_HITS: usize = 24_116;

/// FNV-1a over bytes, 64-bit.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Hash the top-10 of every query at 1 and 3 shards, each hit's id, its ranked
/// score and its `score_document` score; returns the number of hits hashed.
fn hash_searches(hash: &mut Fnv1a, corpus: &Corpus, queries: &[String]) -> usize {
    let mut hits = 0;
    for shards in [1, 3] {
        let searcher = Searcher::from_corpus(corpus, shards);
        for query in queries {
            let top = searcher.search(query, 10);
            hash.word(top.len() as u64);
            for hit in &top {
                hash.str(&hit.doc_id);
                hash.word(hit.score.to_bits());
                let direct = searcher
                    .score_document(query, &hit.doc_id)
                    .expect("a ranked document scores");
                hash.word(direct.to_bits());
            }
            hits += top.len();
        }
    }
    hits
}

#[test]
fn bm25_score_fingerprint_is_pinned() {
    let config = EntityRegistryConfig::default();
    let queries: Vec<String> = entity_registry::resolution_queries(config, 1200)
        .into_iter()
        .map(|q| q.query)
        .collect();
    let mut hash = Fnv1a::new();
    let mut hits = hash_searches(
        &mut hash,
        &entity_registry::registry_corpus(config),
        &queries,
    );
    for entry in ScenarioRegistry::builtin().iter() {
        let scenario = entry.build();
        hash.str(entry.name());
        hits += hash_searches(&mut hash, &scenario.corpus, &[scenario.question]);
    }
    assert_eq!(hits, EXPECTED_HITS, "hits hashed");
    assert_eq!(
        hash.0, EXPECTED_FINGERPRINT,
        "BM25 fingerprint {:#018x} moved",
        hash.0
    );
}

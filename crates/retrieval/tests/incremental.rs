//! The incremental-equivalence suite: a mutated [`ShardedIndex`] must be
//! indistinguishable — identical rankings, bit-identical scores, identical global
//! statistics — from a fresh [`ShardedIndexBuilder::build`] over the same live
//! document set, at every step of any interleaving of add/remove/update/compact, for
//! every shard count.
//!
//! This is the mutation half of the sharding contract; `crates/retrieval/tests/
//! sharding.rs` pins the read-only half and `crates/report/tests/` prove both survive
//! the whole explanation engine.

mod common;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use common::{assert_same_ranking, DenseReference};
use rage_retrieval::{
    corpus_fingerprint, Bm25Params, Corpus, Document, Searcher, ShardedIndex, ShardedIndexBuilder,
};

const SHARD_COUNTS: &[usize] = &[1, 2, 3, 7, 16];

const VOCABULARY: &[&str] = &[
    "grand", "slam", "title", "match", "win", "clay", "court", "rank", "week", "final", "serve",
    "rally", "season", "open", "tour", "point", "record", "champion",
];

fn random_text(rng: &mut StdRng) -> String {
    let len = rng.gen_range(3..9);
    let words: Vec<&str> = (0..len)
        .map(|_| VOCABULARY[rng.gen_range(0..VOCABULARY.len())])
        .collect();
    words.join(" ")
}

fn random_corpus(seed: u64, num_docs: usize) -> Corpus {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut corpus = Corpus::new();
    for i in 0..num_docs {
        corpus.push(Document::new(
            format!("doc-{:03}", num_docs - 1 - i),
            String::new(),
            random_text(&mut rng),
        ));
    }
    corpus
}

fn random_query(rng: &mut StdRng) -> String {
    let len = rng.gen_range(1..5);
    let words: Vec<&str> = (0..len)
        .map(|_| VOCABULARY[rng.gen_range(0..VOCABULARY.len())])
        .collect();
    words.join(" ")
}

/// Assert the mutated index is bit-equal to a from-scratch rebuild of `mirror` and to
/// the unpartitioned dense reference over it: rankings, score bits, `score_document`
/// bits and the global statistics.
fn assert_equals_rebuild(index: &ShardedIndex, mirror: &Corpus, shards: usize, context: &str) {
    let live = Searcher::new(index.clone());
    let rebuilt = Searcher::new(ShardedIndexBuilder::new(shards).build(mirror));
    let reference = DenseReference::new(mirror, Bm25Params::default());

    assert_eq!(index.num_docs(), mirror.len(), "{context}: num_docs");
    assert_eq!(
        index.avg_doc_len().to_bits(),
        rebuilt.index().avg_doc_len().to_bits(),
        "{context}: avg_doc_len bits"
    );
    assert_eq!(
        index.corpus_version().fingerprint,
        corpus_fingerprint(mirror),
        "{context}: fingerprint"
    );
    for term in VOCABULARY {
        assert_eq!(
            index.doc_freq(term),
            rebuilt.index().doc_freq(term),
            "{context}: doc_freq({term})"
        );
    }

    let mut rng = StdRng::seed_from_u64(0x5eed ^ mirror.len() as u64 ^ (shards as u64) << 32);
    for _ in 0..4 {
        let query = random_query(&mut rng);
        for k in [1, 3, mirror.len() / 2 + 1, mirror.len() + 5] {
            let expected = reference.search(&query, k);
            let context = format!("{context}: {query:?} k={k}");
            assert_same_ranking(&expected, &rebuilt.search(&query, k), &context);
            assert_same_ranking(&expected, &live.search(&query, k), &context);
        }
        for doc in mirror.iter() {
            let a = reference.score_document(&query, &doc.id);
            let b = live.score_document(&query, &doc.id).unwrap();
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{context}: score_document bits for {query:?} on {}",
                doc.id
            );
        }
    }
}

#[test]
fn property_random_mutation_interleavings_equal_rebuild_at_every_step() {
    for &shards in SHARD_COUNTS {
        let mut mirror = random_corpus(77, 24);
        let mut index = ShardedIndexBuilder::new(shards).build(&mirror);
        let mut rng = StdRng::seed_from_u64(0xFACE ^ shards as u64);
        let mut next_id = 0usize;
        let mut expected_version = 1u64;

        assert_equals_rebuild(&index, &mirror, shards, &format!("shards={shards} initial"));
        for step in 0..30 {
            let context = format!("shards={shards} step={step}");
            match rng.gen_range(0..10) {
                // add (weight 3)
                0..=2 => {
                    let doc = Document::new(
                        format!("new-{next_id:03}"),
                        String::new(),
                        random_text(&mut rng),
                    );
                    next_id += 1;
                    mirror.push(doc.clone());
                    index.add(doc).unwrap();
                    expected_version += 1;
                }
                // remove (weight 3)
                3..=5 if !mirror.is_empty() => {
                    let victim = mirror.documents()[rng.gen_range(0..mirror.len())]
                        .id
                        .clone();
                    let removed = index.remove(&victim).unwrap();
                    let mirrored = mirror.remove(&victim).unwrap();
                    assert_eq!(removed, mirrored, "{context}: removed document");
                    expected_version += 1;
                }
                // update (weight 3)
                6..=8 if !mirror.is_empty() => {
                    let target = mirror.documents()[rng.gen_range(0..mirror.len())]
                        .id
                        .clone();
                    let doc = Document::new(target, String::new(), random_text(&mut rng));
                    index.update(doc.clone()).unwrap();
                    mirror.replace(doc).unwrap();
                    expected_version += 1;
                }
                // explicit compaction (weight 1, plus the no-op arms above)
                _ => index.compact(),
            }
            assert_eq!(
                index.corpus_version().version,
                expected_version,
                "{context}: version"
            );
            assert_equals_rebuild(&index, &mirror, shards, &context);
        }
    }
}

#[test]
fn removing_every_document_guards_the_avg_doc_len_zero_path() {
    for &shards in SHARD_COUNTS {
        let mirror = random_corpus(88, 6);
        let mut index = ShardedIndexBuilder::new(shards).build(&mirror);
        let ids: Vec<String> = mirror.iter().map(|d| d.id.clone()).collect();
        let mut remaining = mirror.clone();
        for id in &ids {
            index.remove(id).unwrap();
            remaining.remove(id).unwrap();
            assert_equals_rebuild(
                &index,
                &remaining,
                shards,
                &format!("shards={shards} removed={id}"),
            );
        }
        assert_eq!(index.num_docs(), 0, "shards={shards}");
        assert_eq!(
            index.avg_doc_len().to_bits(),
            0f64.to_bits(),
            "shards={shards}"
        );
        assert!(Searcher::new(index.clone())
            .search("grand slam", 5)
            .is_empty());

        // The empty index accepts new documents and matches a fresh build again.
        let reborn = Document::new("reborn", "", "grand slam champion record");
        index.add(reborn.clone()).unwrap();
        let mut mirror = Corpus::new();
        mirror.push(reborn);
        assert_equals_rebuild(&index, &mirror, shards, &format!("shards={shards} reborn"));
    }
}

#[test]
fn mutations_on_mostly_empty_shards_stay_exact() {
    // 4 documents across 16 shards: at least 12 shards start empty, and additions
    // land in empty shards first (the least-loaded placement rule).
    let mut mirror = random_corpus(99, 4);
    let mut index = ShardedIndexBuilder::new(16).build(&mirror);
    for i in 0..6 {
        let doc = Document::new(format!("fill-{i}"), String::new(), "serve rally point");
        mirror.push(doc.clone());
        index.add(doc).unwrap();
        assert_equals_rebuild(&index, &mirror, 16, &format!("empty-shards add {i}"));
    }
    let victim = mirror.documents()[0].id.clone();
    index.remove(&victim).unwrap();
    mirror.remove(&victim).unwrap();
    assert_equals_rebuild(&index, &mirror, 16, "empty-shards remove");
    index.compact();
    assert_equals_rebuild(&index, &mirror, 16, "empty-shards compacted");
}

#[test]
fn compaction_folds_tombstones_and_deltas_without_changing_results() {
    let mut mirror = random_corpus(111, 40);
    let mut index = ShardedIndexBuilder::new(3).build(&mirror);
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    // Enough removals to trip the tombstone-ratio auto-compaction on some shards.
    for _ in 0..18 {
        let victim = mirror.documents()[rng.gen_range(0..mirror.len())]
            .id
            .clone();
        index.remove(&victim).unwrap();
        mirror.remove(&victim).unwrap();
    }
    for i in 0..10 {
        let doc = Document::new(format!("delta-{i}"), String::new(), random_text(&mut rng));
        mirror.push(doc.clone());
        index.add(doc).unwrap();
    }
    assert_equals_rebuild(&index, &mirror, 3, "before explicit compaction");
    let version = index.corpus_version();
    index.compact();
    assert_eq!(
        index.corpus_version(),
        version,
        "compaction must not move the version"
    );
    assert_equals_rebuild(&index, &mirror, 3, "after explicit compaction");
}

//! The sharding equivalence suite: at every shard count, `Searcher` must be
//! indistinguishable from the unpartitioned dense reference (`common`) — identical
//! document sets, identical order, bit-identical scores — for every corpus shape and
//! query, including the edge cases (k larger than a shard or the corpus, empty
//! shards, exact score ties).
//!
//! This is the retrieval half of the sharding contract; `crates/report/tests/sharded.rs`
//! proves the property survives the whole explanation engine.

mod common;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use common::{assert_same_ranking, DenseReference};
use rage_retrieval::{Bm25Params, Corpus, Document, Retriever, Searcher};

const SHARD_COUNTS: &[usize] = &[1, 2, 3, 7, 16];

/// A small shared vocabulary so random documents overlap heavily (plenty of partial
/// matches) and duplicates arise (exact score ties).
const VOCABULARY: &[&str] = &[
    "grand", "slam", "title", "match", "win", "clay", "court", "rank", "week", "final", "serve",
    "rally", "season", "open", "tour", "point", "record", "champion",
];

/// A seeded random corpus of `num_docs` documents with 3-8 words each.
///
/// Ids are assigned in *reverse* numeric order (`doc-099`, `doc-098`, ...), so id
/// order disagrees with insertion order and any tie broken by corpus layout instead
/// of document id shows up as a mismatch.
fn random_corpus(seed: u64, num_docs: usize) -> Corpus {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut corpus = Corpus::new();
    for i in 0..num_docs {
        let len = rng.gen_range(3..9);
        let words: Vec<&str> = (0..len)
            .map(|_| VOCABULARY[rng.gen_range(0..VOCABULARY.len())])
            .collect();
        corpus.push(Document::new(
            format!("doc-{:03}", num_docs - 1 - i),
            String::new(),
            words.join(" "),
        ));
    }
    corpus
}

/// A seeded random query over the same vocabulary.
fn random_query(rng: &mut StdRng) -> String {
    let len = rng.gen_range(1..5);
    let words: Vec<&str> = (0..len)
        .map(|_| VOCABULARY[rng.gen_range(0..VOCABULARY.len())])
        .collect();
    words.join(" ")
}

/// Full equivalence with the reference: same ids, same ranks, bit-identical scores,
/// same documents.
fn assert_hits_identical(
    reference: &DenseReference,
    sharded: &Searcher,
    query: &str,
    k: usize,
    context: &str,
) {
    assert_same_ranking(
        &reference.search(query, k),
        &sharded.search(query, k),
        &format!("{context} {query:?} k={k}"),
    );
}

#[test]
fn property_sharded_top_k_equals_single_top_k() {
    // 3 corpus shapes × 5 shard counts × 12 queries × 4 depths, scores compared
    // bit-for-bit. Corpus sizes are chosen so shards are uneven and, for the smallest
    // corpus, some of the 16 shards are empty.
    for (seed, num_docs) in [(11u64, 10usize), (12, 57), (13, 200)] {
        let corpus = random_corpus(seed, num_docs);
        let reference = DenseReference::new(&corpus, Bm25Params::default());
        for &shards in SHARD_COUNTS {
            let sharded = Searcher::from_corpus(&corpus, shards);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
            for _ in 0..12 {
                let query = random_query(&mut rng);
                for k in [1, 3, num_docs / 2 + 1, num_docs + 7] {
                    assert_hits_identical(
                        &reference,
                        &sharded,
                        &query,
                        k,
                        &format!("docs={num_docs} shards={shards}"),
                    );
                }
            }
        }
    }
}

#[test]
fn k_larger_than_any_shard_still_merges_exactly() {
    // Each of 7 shards holds at most 5 documents, but k = 20 spans many shards; the
    // merge must pull deep results from every shard, not just shard-local winners.
    let corpus = random_corpus(21, 33);
    let reference = DenseReference::new(&corpus, Bm25Params::default());
    let sharded = Searcher::from_corpus(&corpus, 7);
    for query in ["grand slam", "clay court rank", "win"] {
        assert_hits_identical(&reference, &sharded, query, 20, "k > shard size");
        assert_hits_identical(&reference, &sharded, query, 40, "k > corpus size");
    }
}

#[test]
fn empty_shards_do_not_disturb_results() {
    // 4 documents across 16 shards: at least 12 shards are empty.
    let corpus = random_corpus(31, 4);
    let reference = DenseReference::new(&corpus, Bm25Params::default());
    let sharded = Searcher::from_corpus(&corpus, 16);
    assert_eq!(sharded.index().num_shards(), 16);
    assert_eq!(
        sharded
            .index()
            .shard_sizes()
            .iter()
            .filter(|&&n| n == 0)
            .count(),
        12
    );
    for query in ["grand slam title", "serve rally", "champion"] {
        assert_hits_identical(&reference, &sharded, query, 4, "empty shards");
    }
}

#[test]
fn equal_score_duplicates_merge_in_id_order_for_every_shard_count() {
    // Regression for the tie-break satellite: identical documents (exactly tied
    // scores) inserted in an id order that disagrees with insertion order. Whatever
    // the partitioning, ties must come back in ascending id order — the shard merge
    // can never reorder equal-score documents.
    let mut corpus = Corpus::new();
    for id in ["tie-f", "tie-b", "tie-d", "tie-a", "tie-e", "tie-c"] {
        corpus.push(Document::new(id, "", "grand slam title match"));
    }
    // A couple of non-tied documents so the ties sit in the middle of a real ranking.
    corpus.push(Document::new(
        "strong",
        "",
        "grand slam title match grand slam title match",
    ));
    corpus.push(Document::new("weak", "", "match point"));

    let reference = DenseReference::new(&corpus, Bm25Params::default());
    for &shards in SHARD_COUNTS {
        let sharded = Searcher::from_corpus(&corpus, shards);
        let hits = sharded.search("grand slam title match", 8);
        let ids: Vec<&str> = hits.iter().map(|h| h.doc_id.as_str()).collect();
        assert_eq!(
            ids,
            vec!["strong", "tie-a", "tie-b", "tie-c", "tie-d", "tie-e", "tie-f", "weak"],
            "shards={shards}"
        );
        let tie_scores: Vec<u64> = hits[1..7].iter().map(|h| h.score.to_bits()).collect();
        assert!(
            tie_scores.windows(2).all(|w| w[0] == w[1]),
            "shards={shards}: duplicates must tie exactly"
        );
        assert_hits_identical(&reference, &sharded, "grand slam title match", 8, "ties");
        // The tie group also behaves at a k that cuts through it.
        assert_hits_identical(
            &reference,
            &sharded,
            "grand slam title match",
            4,
            "ties cut",
        );
    }
}

#[test]
fn score_document_is_bit_identical_for_every_shard_count() {
    let corpus = random_corpus(41, 30);
    let reference = DenseReference::new(&corpus, Bm25Params::default());
    for &shards in SHARD_COUNTS {
        let sharded = Searcher::from_corpus(&corpus, shards);
        for doc in corpus.iter() {
            let a = reference.score_document("grand slam win", &doc.id);
            let b = sharded.score_document("grand slam win", &doc.id).unwrap();
            assert_eq!(a.to_bits(), b.to_bits(), "shards={shards} doc={}", doc.id);
        }
    }
}

#[test]
fn equivalence_holds_under_custom_params() {
    let corpus = random_corpus(51, 64);
    let reference = DenseReference::new(&corpus, Bm25Params::robertson());
    for &shards in SHARD_COUNTS {
        let sharded = Searcher::from_corpus(&corpus, shards).with_params(Bm25Params::robertson());
        assert_hits_identical(&reference, &sharded, "clay court final", 10, "robertson");
    }
}

#[test]
fn searcher_agrees_with_the_reference_through_the_retriever_trait() {
    let corpus = random_corpus(61, 40);
    let expected =
        DenseReference::new(&corpus, Bm25Params::default()).search("grand slam title", 10);
    for shards in [1, 5] {
        let retriever: Box<dyn Retriever> = Box::new(Searcher::from_corpus(&corpus, shards));
        assert_eq!(retriever.num_docs(), 40);
        assert_same_ranking(
            &expected,
            &retriever.search("grand slam title", 10),
            &format!("dyn shards={shards}"),
        );
    }
}

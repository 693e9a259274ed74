//! The pruning-equivalence suite: the dynamically pruned production query path must
//! be indistinguishable — identical result sets, identical orderings, bit-identical
//! scores — from exhaustive dense scoring, over seeded corpora, every shard count,
//! random mutation interleavings, and `k` up to and beyond the corpus size.
//!
//! This is the exactness half of the pruning contract (the speed half is measured by
//! `crates/bench/benches/retrieval.rs`). The pruned path takes MaxScore-style
//! shortcuts — admissible per-term upper bounds, OR→AND switching, a cross-segment
//! threshold — and this suite pins that none of them ever shows up in the output.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rage_retrieval::searcher::RankedSource;
use rage_retrieval::{Bm25Params, Corpus, Document, Searcher, ShardedIndexBuilder};

const SHARD_COUNTS: &[usize] = &[1, 2, 3, 7, 16];

/// A skewed vocabulary: the leading words appear in most documents (long postings
/// lists the pruner wants to skip), the trailing words are rare (high-idf terms that
/// dominate the bounds). That mix is what makes pruning decisions non-trivial.
const COMMON: &[&str] = &["the", "data", "query", "system", "model", "result"];
const MID: &[&str] = &[
    "index", "shard", "score", "rank", "merge", "budget", "engine", "search",
];
const RARE: &[&str] = &[
    "zanzibar",
    "quasar",
    "obelisk",
    "palindrome",
    "rhubarb",
    "katabatic",
    "vermilion",
    "syzygy",
];

fn random_text(rng: &mut StdRng) -> String {
    let len = rng.gen_range(4..40);
    let words: Vec<&str> = (0..len)
        .map(|_| {
            let roll = rng.gen_range(0..10);
            if roll < 6 {
                COMMON[rng.gen_range(0..COMMON.len())]
            } else if roll < 9 {
                MID[rng.gen_range(0..MID.len())]
            } else {
                RARE[rng.gen_range(0..RARE.len())]
            }
        })
        .collect();
    words.join(" ")
}

fn random_corpus(seed: u64, num_docs: usize) -> Corpus {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut corpus = Corpus::new();
    for i in 0..num_docs {
        corpus.push(Document::new(
            format!("doc-{i:04}"),
            String::new(),
            random_text(&mut rng),
        ));
    }
    corpus
}

/// Queries that stress distinct pruning regimes: single rare term (one essential
/// list), all-common (every list long, θ rises fast), mixed, duplicated terms
/// (repeat accumulation), and an unknown term (df = 0 skip).
fn queries() -> Vec<String> {
    vec![
        "quasar".to_string(),
        "the data query system".to_string(),
        "zanzibar index the".to_string(),
        "score score score shard".to_string(),
        "rhubarb syzygy vermilion".to_string(),
        "data nonexistentterm quasar".to_string(),
    ]
}

fn assert_same_ranking(oracle: &[RankedSource], pruned: &[RankedSource], context: &str) {
    assert_eq!(oracle.len(), pruned.len(), "{context}: result length");
    for (o, p) in oracle.iter().zip(pruned) {
        assert_eq!(o.doc_id, p.doc_id, "{context}: order");
        assert_eq!(o.rank, p.rank, "{context}: rank of {}", o.doc_id);
        assert_eq!(
            o.score.to_bits(),
            p.score.to_bits(),
            "{context}: score bits of {}",
            o.doc_id
        );
        assert_eq!(
            o.document, p.document,
            "{context}: document of {}",
            o.doc_id
        );
    }
}

fn check_sharded(searcher: &Searcher, n: usize, context: &str) {
    for query in queries() {
        for k in [1, 3, 10, n / 2 + 1, n, n + 13] {
            let oracle = searcher.try_search_exhaustive(&query, k).unwrap();
            let pruned = searcher.try_search(&query, k).unwrap();
            assert_same_ranking(&oracle, &pruned, &format!("{context} {query:?} k={k}"));
        }
    }
}

#[test]
fn property_pruned_equals_exhaustive_across_shard_counts() {
    for &shards in SHARD_COUNTS {
        for (seed, n) in [(41, 30), (42, 120), (43, 500)] {
            let corpus = random_corpus(seed, n);
            let searcher = Searcher::new(ShardedIndexBuilder::new(shards).build(&corpus));
            check_sharded(&searcher, n, &format!("shards={shards} n={n}"));
        }
    }
}

#[test]
fn property_single_index_pruned_equals_exhaustive() {
    for (seed, n) in [(7, 60), (8, 400)] {
        let corpus = random_corpus(seed, n);
        for params in [Bm25Params::default(), Bm25Params::robertson()] {
            let searcher = Searcher::from_corpus(&corpus, 1).with_params(params);
            for query in queries() {
                for k in [1, 5, n / 2 + 1, n + 13] {
                    let oracle = searcher.try_search_exhaustive(&query, k).unwrap();
                    let pruned = searcher.try_search(&query, k).unwrap();
                    assert_same_ranking(
                        &oracle,
                        &pruned,
                        &format!("single n={n} {params:?} {query:?} k={k}"),
                    );
                }
            }
        }
    }
}

#[test]
fn property_pruned_equals_exhaustive_under_mutation_interleavings() {
    // Random add/remove/update/compact interleavings populate tombstones and delta
    // segments; the pruned path must stay exact at every step. (The rebuild
    // equivalence of the mutated index itself is pinned by tests/incremental.rs.)
    for &shards in [1, 3, 16].iter() {
        let mut searcher =
            Searcher::new(ShardedIndexBuilder::new(shards).build(&random_corpus(1234, 50)));
        let mut rng = StdRng::seed_from_u64(0xBEEF ^ shards as u64);
        let mut next_id = 0usize;
        let mut live_ids: Vec<String> = (0..50).map(|i| format!("doc-{i:04}")).collect();

        for step in 0..25 {
            match rng.gen_range(0..8) {
                0..=2 => {
                    let id = format!("new-{next_id:03}");
                    next_id += 1;
                    let text = random_text(&mut rng);
                    searcher
                        .index_mut()
                        .add(Document::new(id.clone(), String::new(), text))
                        .unwrap();
                    live_ids.push(id);
                }
                3..=4 if !live_ids.is_empty() => {
                    let victim = live_ids.swap_remove(rng.gen_range(0..live_ids.len()));
                    searcher.index_mut().remove(&victim).unwrap();
                }
                5..=6 if !live_ids.is_empty() => {
                    let target = live_ids[rng.gen_range(0..live_ids.len())].clone();
                    let text = random_text(&mut rng);
                    searcher
                        .index_mut()
                        .update(Document::new(target, String::new(), text))
                        .unwrap();
                }
                _ => searcher.index_mut().compact(),
            }
            let n = searcher.index().num_docs();
            check_sharded(&searcher, n.max(1), &format!("shards={shards} step={step}"));
        }
    }
}

#[test]
fn tie_saturated_corpora_rank_identically() {
    // Dozens of documents with byte-identical text produce dense score ties at every
    // heap boundary; ordering must come out of the id tie-break alone, identically on
    // both paths, for every shard count.
    let mut corpus = Corpus::new();
    for i in [23, 7, 41, 2, 38, 15, 30, 9, 47, 4, 19, 33, 11, 26, 44, 0] {
        corpus.push(Document::new(
            format!("tie-{i:02}"),
            String::new(),
            "quasar index data query",
        ));
    }
    for i in 0..4 {
        corpus.push(Document::new(
            format!("heavy-{i}"),
            String::new(),
            "quasar quasar index data query",
        ));
    }
    for &shards in SHARD_COUNTS {
        let searcher = Searcher::new(ShardedIndexBuilder::new(shards).build(&corpus));
        for k in [1, 3, 4, 5, 16, 19, 20, 21, 40] {
            let oracle = searcher.try_search_exhaustive("quasar index", k).unwrap();
            let pruned = searcher.try_search("quasar index", k).unwrap();
            assert_same_ranking(&oracle, &pruned, &format!("ties shards={shards} k={k}"));
        }
    }
}

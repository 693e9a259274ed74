//! Top-k BM25 search over the segmented index.
//!
//! [`Searcher`] is the facade RAGE's pipeline talks to. Its [`Searcher::search`] method
//! plays the role of the paper's retrieval model `M`: given a query `q` and a relevance
//! threshold `k` it returns the ranked context `Dq`, each entry carrying the retrieval
//! relevance score used by one of RAGE's two source-scoring methods.
//!
//! A searcher queries a [`ShardedIndex`]: one shard for a corpus of the paper's scale
//! ([`Searcher::from_corpus`] with `num_shards = 1`), or `N` contiguous shards for large
//! corpora. Each segment (a shard's base and its delta, see the [`sharded`] module docs)
//! is searched with the pruned engine of [`crate::topk`], and the per-segment selections
//! merge exactly into one ranking, so the shard count never changes a result.
//!
//! A pruned query accumulates into a sparse [`ScoreWorkspace`] sized by the largest
//! segment it scores (about 13 bytes per document). The searcher keeps a pool of
//! idle workspaces: a query takes one, or creates one when every workspace is in use,
//! and returns it afterwards. The pool therefore grows to the peak number of
//! concurrent queries, and every query after the first few reuses a warm workspace
//! that is already sized instead of allocating and zeroing a new one. Results do not
//! depend on which workspace a query gets, because every query starts a new epoch.
//!
//! [`sharded`]: crate::sharded

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::bm25::{score_all_with, score_doc_with, CollectionStats};
use crate::document::{Corpus, Document};
use crate::error::RetrievalError;
use crate::index::InvertedIndex;
use crate::retriever::{CorpusVersion, Retriever};
use crate::sharded::ShardedIndex;
use crate::tokenize::analyze;
use crate::topk::{pruned_top_k, ScoreWorkspace};

/// One retrieved source: a document plus its rank and BM25 score for the query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankedSource {
    /// Id of the retrieved document.
    pub doc_id: String,
    /// 0-based rank in the retrieved list (0 = most relevant).
    pub rank: usize,
    /// BM25 relevance score with respect to the query.
    pub score: f64,
    /// The retrieved document itself.
    pub document: Document,
}

/// The rank ordering shared by every retriever implementation: descending score under
/// `f64::total_cmp` (total and deterministic even for NaN), ties broken by *ascending
/// document id*. Breaking ties on the id — rather than on an index-local ordinal —
/// makes the final ranking a pure function of the (document, score) set, so no
/// partitioning or merge order can ever reorder equal-score documents.
pub(crate) fn rank_cmp(score_a: f64, id_a: &str, score_b: f64, id_b: &str) -> Ordering {
    score_b.total_cmp(&score_a).then_with(|| id_a.cmp(id_b))
}

/// Min-heap entry used while selecting the top-k scores.
#[derive(Debug, PartialEq)]
struct HeapEntry<'a> {
    score: f64,
    doc_id: &'a str,
    ordinal: u32,
}

impl Eq for HeapEntry<'_> {}

impl Ord for HeapEntry<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        // `Greater` means "ranks later", so BinaryHeap::pop evicts the worst-ranked
        // entry: the lower score, or on ties the lexicographically larger id.
        rank_cmp(self.score, self.doc_id, other.score, other.doc_id)
    }
}

impl PartialOrd for HeapEntry<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Bounded top-k selection over `(ordinal, score)` entries.
///
/// Keeps the `k` best entries with strictly positive scores under [`rank_cmp`] and
/// returns them in final rank order. Shared by every selection site — the dense
/// [`select_top_k`], the sparse pruned path in [`crate::topk`] — so all of them
/// select and order by exactly the same rule.
///
/// Once the heap is full, a candidate whose score is *strictly below* the current
/// worst entry's score is dropped before its document id is even materialised: it
/// ranks after the worst entry no matter what its id is. Equal scores still go
/// through the heap, because the id tie-break can evict the worst entry.
pub(crate) fn select_top_k_entries<'a>(
    entries: impl Iterator<Item = (u32, f64)>,
    k: usize,
    id_of: impl Fn(u32) -> &'a str,
) -> Vec<(u32, f64)> {
    if k == 0 {
        return Vec::new();
    }
    let mut heap: BinaryHeap<HeapEntry<'a>> = BinaryHeap::with_capacity(k + 1);
    for (ordinal, score) in entries {
        if score <= 0.0 {
            continue;
        }
        if heap.len() == k {
            let worst = heap.peek().expect("k > 0 and heap full");
            if score < worst.score {
                continue;
            }
        }
        heap.push(HeapEntry {
            score,
            doc_id: id_of(ordinal),
            ordinal,
        });
        if heap.len() > k {
            heap.pop();
        }
    }
    let mut selected = heap.into_vec();
    selected.sort_by(|a, b| rank_cmp(a.score, a.doc_id, b.score, b.doc_id));
    selected
        .into_iter()
        .map(|entry| (entry.ordinal, entry.score))
        .collect()
}

/// Bounded top-k selection over a dense score vector (the exhaustive oracle path).
pub(crate) fn select_top_k<'a>(
    scores: &[f64],
    k: usize,
    id_of: impl Fn(u32) -> &'a str,
) -> Vec<(u32, f64)> {
    select_top_k_entries(
        scores
            .iter()
            .enumerate()
            .map(|(ordinal, &score)| (ordinal as u32, score)),
        k,
        id_of,
    )
}

/// One selected candidate: its score, id, segment and segment-local ordinal.
type Candidate<'a> = (f64, &'a str, &'a InvertedIndex, u32);

/// BM25 searcher over a [`ShardedIndex`] (see the [module docs](self)).
///
/// Queries run on the pruned sparse path ([`crate::topk`]), bit-identical to dense
/// scoring of every document, which remains available as
/// [`Searcher::try_search_exhaustive`] — the differential oracle the pruning property
/// suite and the retrieval bench compare against.
#[derive(Debug)]
pub struct Searcher {
    index: ShardedIndex,
    /// Idle sparse scoring workspaces (see the [module docs](self)): a query pops
    /// one or creates one, and pushes it back when it is done.
    workspaces: Mutex<Vec<ScoreWorkspace>>,
}

impl Clone for Searcher {
    fn clone(&self) -> Self {
        Self::new(self.index.clone())
    }
}

impl Searcher {
    /// Create a searcher over an index.
    pub fn new(index: ShardedIndex) -> Self {
        Self {
            index,
            workspaces: Mutex::new(Vec::new()),
        }
    }

    /// Partition, index and wrap a corpus in one step ([`ShardedIndex::build`]). The
    /// corpus is borrowed, so each shard's index owns a copy of its documents. One
    /// shard is the right choice for the demonstration corpora; more shards build in
    /// parallel and return the same rankings.
    pub fn from_corpus(corpus: &Corpus, num_shards: usize) -> Self {
        Self::new(ShardedIndex::build(corpus, num_shards))
    }

    /// The underlying segmented index.
    pub fn index(&self) -> &ShardedIndex {
        &self.index
    }

    /// Mutable access to the underlying index, for incremental mutations.
    pub fn index_mut(&mut self) -> &mut ShardedIndex {
        &mut self.index
    }

    /// Retrieve the `k` most relevant sources for `query`, most relevant first.
    ///
    /// Documents scoring exactly zero (no query term matches) are never returned, so the
    /// result may be shorter than `k`. Ties are broken by ascending document id (see
    /// [`Retriever`]), which keeps results deterministic and independent of how the
    /// corpus is partitioned or merged.
    pub fn search(&self, query: &str, k: usize) -> Vec<RankedSource> {
        self.try_search(query, k).unwrap_or_default()
    }

    /// Like [`Searcher::search`] but reports empty/unanalysable queries as errors.
    ///
    /// Runs the exact dynamic-pruning engine over every segment, bit-identical to
    /// [`try_search_exhaustive`](Self::try_search_exhaustive). `k` is clamped to the live
    /// document count before anything is sized from it: no more documents can match,
    /// and a caller-supplied `k` must not size an allocation.
    pub fn try_search(&self, query: &str, k: usize) -> Result<Vec<RankedSource>, RetrievalError> {
        let terms = analyze(query);
        if terms.is_empty() {
            return Err(RetrievalError::EmptyQuery);
        }
        let k = k.min(self.index.num_docs());
        if k == 0 {
            return Ok(Vec::new());
        }
        let doc_freqs = self.index.doc_freqs(&terms);
        let stats = self.index.stats(&doc_freqs);
        let pool = || self.workspaces.lock().unwrap_or_else(|e| e.into_inner());
        let mut ws = pool().pop().unwrap_or_default();
        let ranked = self.pruned_with_terms(&terms, k, &stats, &mut ws);
        pool().push(ws);
        Ok(ranked)
    }

    /// The exhaustive dense-scoring path: identical results (bit-for-bit scores) to
    /// [`Searcher::try_search`], at O(corpus) cost per query.
    ///
    /// This is the differential oracle the pruning property suite
    /// (`crates/retrieval/tests/pruning.rs`) and the retrieval bench
    /// (`query/docs=100k/exhaustive`) run against; it is not a serving path. Every
    /// segment is scored densely, and tombstoned base ordinals are zeroed before
    /// selection (`select_top_k` never returns non-positive scores), so dead documents
    /// are indistinguishable from absent ones. `k` is clamped as in
    /// [`Searcher::try_search`].
    pub fn try_search_exhaustive(
        &self,
        query: &str,
        k: usize,
    ) -> Result<Vec<RankedSource>, RetrievalError> {
        let terms = analyze(query);
        if terms.is_empty() {
            return Err(RetrievalError::EmptyQuery);
        }
        let k = k.min(self.index.num_docs());
        if k == 0 {
            return Ok(Vec::new());
        }
        let doc_freqs = self.index.doc_freqs(&terms);
        let stats = self.index.stats(&doc_freqs);
        let mut candidates: Vec<Candidate<'_>> = Vec::new();
        for (segment, dead) in self.index.segments() {
            let mut scores = score_all_with(segment, &terms, &stats);
            for &ordinal in dead.into_iter().flatten() {
                scores[ordinal as usize] = 0.0;
            }
            for (local, score) in select_top_k(&scores, k, |o| id_in(segment, o)) {
                candidates.push((score, id_in(segment, local), segment, local));
            }
        }
        candidates.sort_by(|a, b| rank_cmp(a.0, a.1, b.0, b.1));
        candidates.truncate(k);
        Ok(to_ranked(candidates))
    }

    /// Pruned per-segment top-k with a running cross-segment threshold, then an exact
    /// merge of the candidates under the shared rank order.
    fn pruned_with_terms(
        &self,
        terms: &[String],
        k: usize,
        stats: &CollectionStats<'_>,
        ws: &mut ScoreWorkspace,
    ) -> Vec<RankedSource> {
        let mut candidates: Vec<Candidate<'_>> = Vec::new();
        // Once k candidates exist globally, their k-th best (exact) score is a valid
        // initial pruning threshold for every later segment: a document scoring
        // strictly below it cannot displace any of them in the merged ranking.
        let mut floor: Option<f64> = None;
        for (segment, dead) in self.index.segments() {
            let selected = pruned_top_k(segment, terms, stats, k, dead, floor, ws);
            for (local, score) in selected {
                candidates.push((score, id_in(segment, local), segment, local));
            }
            candidates.sort_by(|a, b| rank_cmp(a.0, a.1, b.0, b.1));
            candidates.truncate(k);
            if candidates.len() == k {
                floor = Some(candidates[k - 1].0);
            }
        }
        to_ranked(candidates)
    }

    /// Score a single document (by id) against a query, even if it would not rank
    /// top-k.
    ///
    /// Bit-identical to the document's entry in the dense score vector, computed
    /// directly by probing each query term's postings (O(terms · log postings)
    /// instead of O(corpus); see [`score_doc_with`]).
    pub fn score_document(&self, query: &str, doc_id: &str) -> Result<f64, RetrievalError> {
        let terms = analyze(query);
        if terms.is_empty() {
            return Err(RetrievalError::EmptyQuery);
        }
        let (segment, local) = self
            .index
            .locate(doc_id)
            .ok_or_else(|| RetrievalError::UnknownDocument(doc_id.to_string()))?;
        let doc_freqs = self.index.doc_freqs(&terms);
        let stats = self.index.stats(&doc_freqs);
        Ok(score_doc_with(segment, &terms, &stats, local))
    }
}

/// The id of a segment-local ordinal that scoring produced.
fn id_in(segment: &InvertedIndex, ordinal: u32) -> &str {
    segment
        .doc_id(ordinal)
        .expect("ordinal produced by scoring must exist")
}

fn to_ranked(candidates: Vec<Candidate<'_>>) -> Vec<RankedSource> {
    candidates
        .into_iter()
        .enumerate()
        .map(|(rank, (score, _, segment, local))| {
            let document = segment
                .document(local)
                .expect("ordinal produced by scoring must exist")
                .clone();
            RankedSource {
                doc_id: document.id.clone(),
                rank,
                score,
                document,
            }
        })
        .collect()
}

impl Retriever for Searcher {
    fn try_search(&self, query: &str, k: usize) -> Result<Vec<RankedSource>, RetrievalError> {
        Searcher::try_search(self, query, k)
    }

    fn search(&self, query: &str, k: usize) -> Vec<RankedSource> {
        Searcher::search(self, query, k)
    }

    fn score_document(&self, query: &str, doc_id: &str) -> Result<f64, RetrievalError> {
        Searcher::score_document(self, query, doc_id)
    }

    fn num_docs(&self) -> usize {
        self.index.num_docs()
    }

    fn corpus_version(&self) -> Option<CorpusVersion> {
        Some(self.index.corpus_version())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn searcher() -> Searcher {
        let mut corpus = Corpus::new();
        corpus.push(Document::new(
            "wins",
            "Match wins",
            "Roger Federer leads with 369 total match wins in his career",
        ));
        corpus.push(Document::new(
            "slams",
            "Grand slams",
            "Novak Djokovic holds 24 grand slam titles, the most of the big three",
        ));
        corpus.push(Document::new(
            "weeks",
            "Weeks at number one",
            "Novak Djokovic spent the most weeks ranked number one",
        ));
        corpus.push(Document::new(
            "clay",
            "Clay courts",
            "Rafael Nadal dominates on clay with fourteen French Open titles",
        ));
        corpus.push(Document::new(
            "cooking",
            "Pasta",
            "Boil water, add salt, cook the pasta until al dente",
        ));
        Searcher::from_corpus(&corpus, 1)
    }

    #[test]
    fn retrieves_relevant_documents_first() {
        let s = searcher();
        let hits = s.search("grand slam titles", 3);
        assert!(!hits.is_empty());
        assert_eq!(hits[0].doc_id, "slams");
        assert!(hits.iter().all(|h| h.doc_id != "cooking"));
    }

    #[test]
    fn ranks_are_sequential_and_scores_descending() {
        let s = searcher();
        let hits = s.search("djokovic federer nadal titles wins", 5);
        for (i, hit) in hits.iter().enumerate() {
            assert_eq!(hit.rank, i);
        }
        for pair in hits.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
    }

    #[test]
    fn huge_k_is_clamped_to_the_live_document_count() {
        // Regression: both paths sized a heap from the caller's k, so a huge k
        // panicked (capacity overflow) instead of returning every match.
        let mut s = searcher();
        s.index_mut().remove("weeks").unwrap();
        let n = s.index().num_docs();
        let query = "djokovic federer nadal titles wins";
        let all = s.try_search(query, n).unwrap();
        assert_eq!(all.len(), 3);
        assert_eq!(s.try_search(query, 1 << 60).unwrap(), all);
        assert_eq!(s.try_search_exhaustive(query, 1 << 60).unwrap(), all);
        assert_eq!(s.try_search_exhaustive(query, n).unwrap(), all);
    }

    #[test]
    fn k_limits_result_size() {
        let s = searcher();
        let hits = s.search("djokovic federer nadal", 2);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn zero_score_documents_are_excluded() {
        let s = searcher();
        let hits = s.search("federer", 10);
        assert!(hits.iter().all(|h| h.score > 0.0));
        assert!(hits.len() < 5);
    }

    #[test]
    fn empty_query_is_an_error() {
        let s = searcher();
        assert!(matches!(
            s.try_search("", 3),
            Err(RetrievalError::EmptyQuery)
        ));
        assert!(matches!(
            s.try_search("the of and", 3),
            Err(RetrievalError::EmptyQuery)
        ));
        // The panic-free wrapper returns an empty list instead.
        assert!(s.search("", 3).is_empty());
    }

    #[test]
    fn k_zero_returns_empty() {
        let s = searcher();
        assert!(s.search("federer", 0).is_empty());
    }

    #[test]
    fn tie_break_is_deterministic() {
        let mut corpus = Corpus::new();
        corpus.push(Document::new("first", "", "identical text here"));
        corpus.push(Document::new("second", "", "identical text here"));
        let s = Searcher::from_corpus(&corpus, 1);
        let hits = s.search("identical text", 2);
        assert_eq!(hits[0].doc_id, "first");
        assert_eq!(hits[1].doc_id, "second");
    }

    #[test]
    fn equal_scores_tie_break_on_doc_id_not_insertion_order() {
        // Equal-score duplicates inserted in reverse id order must come back in
        // ascending id order: the ranking is a function of (score, id) alone, never of
        // the corpus layout. This is the invariant that makes sharded retrieval unable
        // to reorder ties (see crates/retrieval/tests/sharding.rs).
        let mut corpus = Corpus::new();
        for id in ["dup-d", "dup-b", "dup-c", "dup-a"] {
            corpus.push(Document::new(id, "", "identical text here"));
        }
        let s = Searcher::from_corpus(&corpus, 1);
        let hits = s.search("identical text", 4);
        let ids: Vec<&str> = hits.iter().map(|h| h.doc_id.as_str()).collect();
        assert_eq!(ids, vec!["dup-a", "dup-b", "dup-c", "dup-d"]);
        assert!(hits.windows(2).all(|w| w[0].score == w[1].score));
    }

    #[test]
    fn pruned_and_exhaustive_paths_are_bit_identical() {
        let s = searcher();
        for query in [
            "grand slam titles",
            "djokovic federer nadal titles wins",
            "federer",
            "pasta salt water",
        ] {
            for k in [1, 2, 5, 100] {
                let pruned = s.search(query, k);
                let exhaustive = s.try_search_exhaustive(query, k).unwrap();
                assert_eq!(pruned.len(), exhaustive.len(), "{query:?} k={k}");
                for (p, e) in pruned.iter().zip(&exhaustive) {
                    assert_eq!(p.doc_id, e.doc_id, "{query:?} k={k}");
                    assert_eq!(p.rank, e.rank);
                    assert_eq!(p.score.to_bits(), e.score.to_bits(), "{query:?} k={k}");
                }
            }
        }
    }

    #[test]
    fn heap_full_precheck_keeps_tie_heavy_selection_identical() {
        // Satellite regression: many duplicate scores around the heap boundary. The
        // pre-check ("skip when strictly below the current worst") must not change
        // selection when candidates tie with the worst entry — those go through the
        // heap so the ascending-id tie-break still applies. Compare against a naive
        // full sort of the dense score vector.
        let mut corpus = Corpus::new();
        // 40 identical docs (all the same score) plus a couple of better and worse
        // ones, inserted in scrambled id order.
        for i in [17, 3, 29, 8, 35, 1, 22, 40, 11, 6] {
            corpus.push(Document::new(
                format!("tie-{i:02}"),
                "",
                "identical registry entry text",
            ));
        }
        for i in [5, 2, 9] {
            corpus.push(Document::new(
                format!("strong-{i}"),
                "",
                "identical registry entry text registry entry",
            ));
        }
        corpus.push(Document::new(
            "weak",
            "",
            "registry and much other filler text here",
        ));
        let index = InvertedIndex::build(&corpus);

        let terms = analyze("identical registry entry");
        let dense = crate::bm25::score_all(&index, &terms);
        for k in [1, 2, 3, 4, 5, 9, 13, 14, 20] {
            // Naive oracle: full sort under the shared rank order.
            let mut all: Vec<(u32, f64)> = dense
                .iter()
                .enumerate()
                .filter(|(_, &sc)| sc > 0.0)
                .map(|(o, &sc)| (o as u32, sc))
                .collect();
            all.sort_by(|a, b| {
                rank_cmp(
                    a.1,
                    index.doc_id(a.0).unwrap(),
                    b.1,
                    index.doc_id(b.0).unwrap(),
                )
            });
            all.truncate(k);
            let got = select_top_k(&dense, k, |o| index.doc_id(o).unwrap());
            assert_eq!(got.len(), all.len(), "k={k}");
            for (g, e) in got.iter().zip(&all) {
                assert_eq!(g.0, e.0, "k={k}");
                assert_eq!(g.1.to_bits(), e.1.to_bits(), "k={k}");
            }
        }
    }

    #[test]
    fn score_document_matches_search_score() {
        let s = searcher();
        let hits = s.search("grand slam titles", 5);
        let direct = s.score_document("grand slam titles", "slams").unwrap();
        let from_search = hits.iter().find(|h| h.doc_id == "slams").unwrap().score;
        assert!((direct - from_search).abs() < 1e-12);
    }

    #[test]
    fn score_document_unknown_id() {
        let s = searcher();
        assert!(matches!(
            s.score_document("federer", "nope"),
            Err(RetrievalError::UnknownDocument(_))
        ));
    }

    #[test]
    fn search_on_empty_index() {
        let s = Searcher::from_corpus(&Corpus::new(), 1);
        assert!(s.search("anything", 5).is_empty());
    }
}

//! Sparse accumulation and exact dynamic pruning for top-k queries.
//!
//! This module is the pruned hot path behind [`Searcher::search`], run once per
//! segment of the index: a term-at-a-time scorer that (a) accumulates into a reusable
//! **sparse accumulator** so per-query cost scales with postings touched rather than
//! corpus size, and (b) uses per-term **admissible score upper bounds** to skip
//! non-essential postings lists MaxScore-style — while returning a top-k whose set,
//! order and score *bits* are provably identical to the exhaustive dense path
//! ([`score_all_with`] + full selection).
//!
//! [`Searcher::search`]: crate::Searcher::search
//! [`score_all_with`]: crate::bm25::score_all_with
//!
//! ## How exactness survives pruning
//!
//! 1. **Admissible bounds.** For every term the index stores the maximum term
//!    frequency and minimum document length over its postings
//!    ([`InvertedIndex::term_max_tf`]/[`term_min_dl`]). The BM25 per-term
//!    contribution is monotone non-decreasing in `tf` and non-increasing in document
//!    length whenever `k1 ≥ 0` and `0 ≤ b ≤ 1` (checked by `prunable`; other
//!    parameterisations fall back to the exhaustive path), so evaluating the term
//!    score at `(max_tf, min_dl)` bounds the term's contribution to *any* document.
//! 2. **Candidate-generation order is free.** Query-term occurrences are processed in
//!    descending bound order, so rare, high-impact terms establish the top-k
//!    threshold before the long common lists are reached. Once the accumulator holds
//!    `k` documents whose partial scores all exceed the *remaining* suffix bound sum,
//!    no unseen document can reach the top-k: every partial score is a lower bound on
//!    its final score (contributions are non-negative), and an unseen document's
//!    whole score is at most the remaining bound sum. From that point the scorer
//!    stops admitting new documents (OR → AND mode) and only updates existing
//!    candidates — probing each candidate by binary search when the candidate set is
//!    much smaller than the postings list, which is what actually skips the long
//!    lists.
//! 3. **Emitted bits come from a query-order rescore.** Accumulating in
//!    descending-bound order changes floating-point summation order, so accumulator
//!    values are only used as *selection* evidence, never emitted. Surviving
//!    candidates that matched more than one query-term occurrence are rescored in
//!    original query order with exactly the operands the dense path uses
//!    (single-occurrence candidates already carry exact bits — their score is one
//!    unsummed [`term_score_dl`] value). The rescore probes each term's
//!    ordinal-sorted postings by binary search: O(terms · log postings) per
//!    candidate, and only the handful of candidates at or above the final threshold
//!    pay it.
//! 4. **Slack absorbs rounding.** Every pruning comparison goes through
//!    `definitely_less`, which demands a relative margin of `1e-9` — about five
//!    orders of magnitude wider than the worst-case accumulated rounding error of
//!    these sums, and applied only in the conservative direction. Pruning needs
//!    admissibility, not tightness: a slightly loose bound can only *reduce* how much
//!    is skipped, never change the result. Equal-score ties are safe for the same
//!    reason: a document is discarded only when its score is *strictly* below the
//!    threshold by the margin, and tie-breaking among surviving candidates uses the
//!    exact shared rank order (`rank_cmp`).
//!
//! [`InvertedIndex::term_max_tf`]: crate::index::InvertedIndex::term_max_tf
//! [`term_min_dl`]: crate::index::InvertedIndex::term_min_dl
//! [`term_score_dl`]: crate::bm25::term_score_dl
//!
//! The differential property suite (`crates/retrieval/tests/pruning.rs`) pins
//! pruned ≡ exhaustive — set, order and score bits — across seeded corpora, shard
//! counts, mutation interleavings and `k` beyond corpus size.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use crate::bm25::{idf, term_score_dl, Bm25Params, CollectionStats};
use crate::index::InvertedIndex;
use crate::searcher::select_top_k_entries;

/// Relative slack for pruning comparisons. Worst-case relative rounding error of the
/// bound sums involved is on the order of `terms · 2⁻⁵²` (≈ 1e-14 even for very long
/// queries); `1e-9` leaves five orders of magnitude of headroom while being far too
/// small to forgo meaningful pruning.
const RELATIVE_SLACK: f64 = 1e-9;

/// Conservative strict comparison: `a` is below `b` by more than the combined
/// rounding slack. Operands are non-negative in every call site.
fn definitely_less(a: f64, b: f64) -> bool {
    a * (1.0 + RELATIVE_SLACK) < b * (1.0 - RELATIVE_SLACK)
}

/// Whether the admissibility argument holds for these parameters (see the [module
/// docs](self)): the BM25 term score is monotone non-decreasing in `tf` and
/// non-increasing in document length only for `k1 ≥ 0` and `0 ≤ b ≤ 1`. Exotic
/// parameterisations are scored exhaustively instead.
pub(crate) fn prunable(params: Bm25Params) -> bool {
    params.k1 >= 0.0 && (0.0..=1.0).contains(&params.b)
}

/// A reusable sparse score accumulator: ordinal → partial score for the documents a
/// query actually touches.
///
/// Backed by dense arrays stamped with a query epoch, so clearing between queries is
/// a counter increment — per query the cost is O(postings touched), with no O(corpus)
/// zeroing or scanning. One workspace serves any number of sequential queries (and
/// any number of segments within one query); searchers keep one behind a `Mutex` and
/// fall back to a fresh one under contention.
#[derive(Debug, Default)]
pub struct ScoreWorkspace {
    /// Partial score per ordinal; valid only where `stamp` matches `epoch`.
    scores: Vec<f64>,
    /// Epoch stamp per ordinal.
    stamp: Vec<u32>,
    /// Whether the ordinal accumulated more than one occurrence this epoch (single
    /// contributions are exact; sums need the query-order rescore).
    multi: Vec<bool>,
    epoch: u32,
    /// Ordinals touched this epoch, in first-touch order.
    touched: Vec<u32>,
}

impl ScoreWorkspace {
    /// Create an empty workspace; it grows to the largest segment it scores.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a new accumulation over `n` ordinals.
    fn begin(&mut self, n: usize) {
        if self.scores.len() < n {
            self.scores.resize(n, 0.0);
            self.stamp.resize(n, 0);
            self.multi.resize(n, false);
        }
        if self.epoch == u32::MAX {
            // Epoch wrap: re-zero the stamps once every u32::MAX queries.
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.touched.clear();
    }

    /// Accumulate onto `doc`, admitting it if unseen this epoch.
    fn add(&mut self, doc: u32, value: f64) {
        let i = doc as usize;
        if self.stamp[i] == self.epoch {
            self.scores[i] += value;
            self.multi[i] = true;
        } else {
            self.stamp[i] = self.epoch;
            // `0.0 + value` is bitwise `value`, so first touches match the dense
            // path's accumulation onto a zeroed vector exactly.
            self.scores[i] = value;
            self.multi[i] = false;
            self.touched.push(doc);
        }
    }

    /// Accumulate onto `doc` only if it was already admitted this epoch (AND mode).
    fn add_existing(&mut self, doc: u32, value: f64) {
        let i = doc as usize;
        if self.stamp[i] == self.epoch {
            self.scores[i] += value;
            self.multi[i] = true;
        }
    }

    fn score(&self, doc: u32) -> f64 {
        self.scores[doc as usize]
    }

    /// Drop candidates whose partial score fails `keep`, un-stamping them so later
    /// scans skip them too. `begin` always leaves `epoch ≥ 1`, so stamp `0` is free.
    fn retain_touched(&mut self, mut keep: impl FnMut(f64) -> bool) {
        let scores = &self.scores;
        let stamp = &mut self.stamp;
        self.touched.retain(|&doc| {
            let i = doc as usize;
            if keep(scores[i]) {
                true
            } else {
                stamp[i] = 0;
                false
            }
        });
    }

    fn is_multi(&self, doc: u32) -> bool {
        self.multi[doc as usize]
    }
}

/// Total-order f64 wrapper so score thresholds can live in a heap.
#[derive(PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// The k-th best partial score in the accumulator (requires ≥ k touched documents).
/// Partial scores only grow, so this is a valid (lazy) lower bound on the final k-th
/// best score.
fn kth_best_score(ws: &ScoreWorkspace, k: usize) -> f64 {
    debug_assert!(ws.touched.len() >= k && k > 0);
    let mut heap: BinaryHeap<Reverse<OrdF64>> = BinaryHeap::with_capacity(k + 1);
    for &doc in &ws.touched {
        let s = ws.score(doc);
        if heap.len() < k {
            heap.push(Reverse(OrdF64(s)));
        } else if s > heap.peek().expect("non-empty").0 .0 {
            heap.pop();
            heap.push(Reverse(OrdF64(s)));
        }
    }
    heap.peek().expect("k > 0").0 .0
}

/// One live query-term occurrence: its dictionary id in the segment being scored,
/// its global idf, and its admissible score upper bound. Kept in original query
/// order so the exact rescore replays the dense path's accumulation order.
struct Occurrence {
    term_id: u32,
    idf: f64,
    bound: f64,
}

/// Exact rescore of one candidate in original query order — the same contributions,
/// added in the same order, as `score_all_with` produces for this ordinal.
fn rescore(
    index: &InvertedIndex,
    occurrences: &[Occurrence],
    params: Bm25Params,
    avg_doc_len: f64,
    doc: u32,
) -> f64 {
    let dl = index.doc_norm_len(doc);
    let mut score = 0.0;
    for occ in occurrences {
        let postings = index.postings_by_id(occ.term_id);
        if let Ok(pos) = postings.binary_search_by_key(&doc, |p| p.doc) {
            score += term_score_dl(params, occ.idf, postings[pos].tf, dl, avg_doc_len);
        }
    }
    score
}

/// Top-k selection over one index segment with exact dynamic pruning (see the
/// [module docs](self) for the algorithm and its exactness argument).
///
/// * `dead` — tombstoned ordinals to exclude (a sharded base segment's removals).
/// * `floor` — an optional external score threshold: the k-th best *final* score
///   among candidates already collected from other segments of the same logical
///   query. Documents provably below it cannot survive the global merge, so
///   cross-segment search prunes harder than scoring each segment in isolation.
///
/// Returns `(ordinal, score)` pairs in final rank order; scores are bit-identical to
/// `score_all_with(index, ..)[ordinal]`. Only documents with positive scores are
/// returned, matching the dense selection.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pruned_top_k(
    index: &InvertedIndex,
    query_terms: &[String],
    params: Bm25Params,
    stats: &CollectionStats<'_>,
    k: usize,
    dead: Option<&HashSet<u32>>,
    floor: Option<f64>,
    ws: &mut ScoreWorkspace,
) -> Vec<(u32, f64)> {
    debug_assert_eq!(query_terms.len(), stats.doc_freqs.len());
    debug_assert!(prunable(params));
    if k == 0 || index.num_docs() == 0 {
        return Vec::new();
    }

    // Resolve live occurrences in query order: global df > 0 and present in this
    // segment. Duplicate query terms stay duplicated — the dense path accumulates
    // them twice and so must we.
    let mut occurrences: Vec<Occurrence> = Vec::with_capacity(query_terms.len());
    for (term, &df) in query_terms.iter().zip(stats.doc_freqs) {
        if df == 0 {
            continue;
        }
        let Some(term_id) = index.term_id(term) else {
            continue;
        };
        let idf = idf(stats.num_docs, df);
        let bound = term_score_dl(
            params,
            idf,
            index.term_max_tf(term_id),
            f64::from(index.term_min_dl(term_id)),
            stats.avg_doc_len,
        );
        occurrences.push(Occurrence {
            term_id,
            idf,
            bound,
        });
    }
    if occurrences.is_empty() {
        return Vec::new();
    }

    // Candidate generation runs in descending bound order (ties by query position)
    // so that selective terms establish the threshold before the long lists.
    let mut order: Vec<usize> = (0..occurrences.len()).collect();
    order.sort_by(|&a, &b| {
        occurrences[b]
            .bound
            .total_cmp(&occurrences[a].bound)
            .then(a.cmp(&b))
    });
    // suffix[p] = Σ bounds of occurrences from processing position p onward.
    let mut suffix = vec![0.0f64; order.len() + 1];
    for p in (0..order.len()).rev() {
        suffix[p] = suffix[p + 1] + occurrences[order[p]].bound;
    }

    let is_dead = |doc: u32| dead.is_some_and(|set| set.contains(&doc));
    ws.begin(index.num_docs());

    let mut theta: Option<f64> = floor;
    let mut inserting = true;
    for (p, &oi) in order.iter().enumerate() {
        let occ = &occurrences[oi];
        if inserting && theta.is_some_and(|t| definitely_less(suffix[p], t)) {
            // No unseen document can accumulate enough from the remaining
            // occurrences to displace the current k candidates: stop admitting.
            inserting = false;
        }
        let postings = index.postings_by_id(occ.term_id);
        if inserting {
            for posting in postings {
                if is_dead(posting.doc) {
                    continue;
                }
                let dl = index.doc_norm_len(posting.doc);
                ws.add(
                    posting.doc,
                    term_score_dl(params, occ.idf, posting.tf, dl, stats.avg_doc_len),
                );
            }
            if ws.touched.len() >= k {
                let kth = kth_best_score(ws, k);
                theta = Some(theta.map_or(kth, |t| t.max(kth)));
            }
        } else {
            // AND mode: update existing candidates only. First evict candidates that
            // cannot reach the threshold even if every remaining occurrence paid its
            // full bound — their final score is at most `partial + suffix[p]`, and a
            // document strictly below θ (which only grows) can never rank top-k. The
            // handful of survivors is then cheap to probe by binary search, which is
            // where a long common list gets skipped almost entirely.
            if let Some(t) = theta {
                let max_remaining = suffix[p];
                ws.retain_touched(|partial| !definitely_less(partial + max_remaining, t));
            }
            let candidates = ws.touched.len();
            let log_len = (usize::BITS - postings.len().leading_zeros()) as usize;
            if candidates * (log_len + 2) < postings.len() {
                for i in 0..candidates {
                    let doc = ws.touched[i];
                    if let Ok(pos) = postings.binary_search_by_key(&doc, |p| p.doc) {
                        let dl = index.doc_norm_len(doc);
                        ws.add(
                            doc,
                            term_score_dl(params, occ.idf, postings[pos].tf, dl, stats.avg_doc_len),
                        );
                    }
                }
            } else {
                for posting in postings {
                    let dl = index.doc_norm_len(posting.doc);
                    ws.add_existing(
                        posting.doc,
                        term_score_dl(params, occ.idf, posting.tf, dl, stats.avg_doc_len),
                    );
                }
            }
            // Partial scores only grow, so the k-th best among survivors keeps θ a
            // valid lower bound on the final k-th best score — raising it tightens
            // the eviction before the next (even longer) list.
            if ws.touched.len() >= k {
                let kth = kth_best_score(ws, k);
                theta = Some(theta.map_or(kth, |t| t.max(kth)));
            }
        }
    }

    // Final threshold: candidates provably below it cannot rank top-k (locally or in
    // the caller's merge), so only the survivors pay the exact rescore.
    let tau = if ws.touched.len() >= k {
        let kth = kth_best_score(ws, k);
        Some(floor.map_or(kth, |f| f.max(kth)))
    } else {
        floor
    };

    let mut exact: Vec<(u32, f64)> = Vec::new();
    for i in 0..ws.touched.len() {
        let doc = ws.touched[i];
        let approx = ws.score(doc);
        if let Some(tau) = tau {
            if definitely_less(approx, tau) {
                continue;
            }
        }
        let score = if ws.is_multi(doc) {
            rescore(index, &occurrences, params, stats.avg_doc_len, doc)
        } else {
            approx
        };
        if score > 0.0 {
            exact.push((doc, score));
        }
    }

    select_top_k_entries(exact.into_iter(), k, |ordinal| {
        index
            .doc_id(ordinal)
            .expect("ordinal produced by scoring must exist")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bm25::score_all_with;
    use crate::document::{Corpus, Document};
    use crate::index::IndexBuilder;
    use crate::searcher::select_top_k;

    /// Deterministic toy corpus mixing rare and common terms, duplicates and ties.
    fn corpus(n: usize) -> Corpus {
        let mut corpus = Corpus::new();
        for i in 0..n {
            let common = "shared registry entry";
            let rare = match i % 7 {
                0 => "alpha laboratory",
                1 => "beta institute",
                2 => "gamma university",
                3 => "delta polytechnic",
                4 => "epsilon academy",
                5 => "zeta observatory",
                _ => "eta consortium",
            };
            let filler = "filler ".repeat(i % 5);
            corpus.push(Document::new(
                format!("doc-{i:04}"),
                "",
                format!("{common} {rare} {filler}"),
            ));
        }
        corpus
    }

    fn check_equivalence(corpus: &Corpus, query: &str, k: usize) {
        let index = IndexBuilder::default().build(corpus);
        let params = Bm25Params::default();
        let terms = index.tokenizer().tokenize(query);
        let doc_freqs: Vec<usize> = terms.iter().map(|t| index.doc_freq(t)).collect();
        let stats = CollectionStats {
            num_docs: index.num_docs(),
            avg_doc_len: index.avg_doc_len(),
            doc_freqs: &doc_freqs,
        };

        let dense = score_all_with(&index, &terms, params, &stats);
        let expected = select_top_k(&dense, k, |o| index.doc_id(o).unwrap());

        let mut ws = ScoreWorkspace::new();
        let pruned = pruned_top_k(&index, &terms, params, &stats, k, None, None, &mut ws);

        assert_eq!(expected.len(), pruned.len(), "query {query:?} k {k}");
        for (e, p) in expected.iter().zip(&pruned) {
            assert_eq!(e.0, p.0, "ordinal for {query:?} k {k}");
            assert_eq!(
                e.1.to_bits(),
                p.1.to_bits(),
                "score bits for {query:?} k {k}"
            );
        }
    }

    #[test]
    fn pruned_matches_dense_selection() {
        let corpus = corpus(200);
        for query in [
            "alpha laboratory",
            "shared registry",
            "gamma university shared",
            "registry registry registry", // duplicate occurrences count twice
            "zeta observatory filler shared entry",
            "unknownterm alpha",
        ] {
            for k in [1, 3, 10, 50, 1000] {
                check_equivalence(&corpus, query, k);
            }
        }
    }

    #[test]
    fn tie_heavy_corpus_is_exact() {
        let mut corpus = Corpus::new();
        for i in 0..64 {
            corpus.push(Document::new(
                format!("tie-{i:02}"),
                "",
                "identical registry entry text",
            ));
        }
        for k in [1, 5, 63, 64, 65, 200] {
            check_equivalence(&corpus, "identical registry entry", k);
        }
    }

    #[test]
    fn dead_ordinals_are_never_candidates() {
        let corpus = corpus(50);
        let index = IndexBuilder::default().build(&corpus);
        let params = Bm25Params::default();
        let terms = index.tokenizer().tokenize("shared registry entry");
        let doc_freqs: Vec<usize> = terms.iter().map(|t| index.doc_freq(t)).collect();
        let stats = CollectionStats {
            num_docs: index.num_docs(),
            avg_doc_len: index.avg_doc_len(),
            doc_freqs: &doc_freqs,
        };
        let dead: HashSet<u32> = (0..25).collect();
        let mut ws = ScoreWorkspace::new();
        let got = pruned_top_k(
            &index,
            &terms,
            params,
            &stats,
            100,
            Some(&dead),
            None,
            &mut ws,
        );
        assert!(!got.is_empty());
        assert!(got.iter().all(|&(o, _)| o >= 25));

        // Dense equivalent: score everything, zero the dead, select.
        let mut dense = score_all_with(&index, &terms, params, &stats);
        for &d in &dead {
            dense[d as usize] = 0.0;
        }
        let expected = select_top_k(&dense, 100, |o| index.doc_id(o).unwrap());
        assert_eq!(expected.len(), got.len());
        for (e, p) in expected.iter().zip(&got) {
            assert_eq!(e.0, p.0);
            assert_eq!(e.1.to_bits(), p.1.to_bits());
        }
    }

    #[test]
    fn floor_only_prunes_below_merged_threshold() {
        // With a floor far above every score, nothing survives; with a floor of
        // zero, results match the floorless run exactly.
        let corpus = corpus(80);
        let index = IndexBuilder::default().build(&corpus);
        let params = Bm25Params::default();
        let terms = index.tokenizer().tokenize("alpha laboratory shared");
        let doc_freqs: Vec<usize> = terms.iter().map(|t| index.doc_freq(t)).collect();
        let stats = CollectionStats {
            num_docs: index.num_docs(),
            avg_doc_len: index.avg_doc_len(),
            doc_freqs: &doc_freqs,
        };
        let mut ws = ScoreWorkspace::new();
        let no_floor = pruned_top_k(&index, &terms, params, &stats, 5, None, None, &mut ws);
        assert!(!no_floor.is_empty());
        let zero_floor = pruned_top_k(&index, &terms, params, &stats, 5, None, Some(0.0), &mut ws);
        assert_eq!(no_floor, zero_floor);
        let sky_floor = pruned_top_k(&index, &terms, params, &stats, 5, None, Some(1e9), &mut ws);
        assert!(sky_floor.is_empty());
    }

    #[test]
    fn workspace_is_reusable_across_queries_and_segments() {
        let big = corpus(120);
        let small = corpus(30);
        let big_index = IndexBuilder::default().build(&big);
        let small_index = IndexBuilder::default().build(&small);
        let params = Bm25Params::default();
        let mut ws = ScoreWorkspace::new();
        for _ in 0..3 {
            for (index, label) in [(&big_index, "big"), (&small_index, "small")] {
                let terms = index.tokenizer().tokenize("gamma university shared entry");
                let doc_freqs: Vec<usize> = terms.iter().map(|t| index.doc_freq(t)).collect();
                let stats = CollectionStats {
                    num_docs: index.num_docs(),
                    avg_doc_len: index.avg_doc_len(),
                    doc_freqs: &doc_freqs,
                };
                let dense = score_all_with(index, &terms, params, &stats);
                let expected = select_top_k(&dense, 7, |o| index.doc_id(o).unwrap());
                let got = pruned_top_k(index, &terms, params, &stats, 7, None, None, &mut ws);
                assert_eq!(expected.len(), got.len(), "{label}");
                for (e, p) in expected.iter().zip(&got) {
                    assert_eq!(e.0, p.0, "{label}");
                    assert_eq!(e.1.to_bits(), p.1.to_bits(), "{label}");
                }
            }
        }
    }

    #[test]
    fn prunable_rejects_exotic_parameters() {
        assert!(prunable(Bm25Params::default()));
        assert!(prunable(Bm25Params::robertson()));
        assert!(prunable(Bm25Params { k1: 0.0, b: 0.0 }));
        assert!(prunable(Bm25Params { k1: 2.0, b: 1.0 }));
        assert!(!prunable(Bm25Params { k1: -0.1, b: 0.4 }));
        assert!(!prunable(Bm25Params { k1: 0.9, b: 1.5 }));
        assert!(!prunable(Bm25Params { k1: 0.9, b: -0.2 }));
    }

    #[test]
    fn definitely_less_requires_margin() {
        assert!(definitely_less(1.0, 2.0));
        assert!(!definitely_less(2.0, 1.0));
        // Within the slack band nothing is "definitely" less.
        assert!(!definitely_less(1.0, 1.0));
        assert!(!definitely_less(1.0 - 1e-12, 1.0));
        assert!(definitely_less(1.0 - 1e-6, 1.0));
    }
}

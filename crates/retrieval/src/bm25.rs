//! Okapi BM25 scoring.
//!
//! The scoring function matches Lucene's `BM25Similarity` (and therefore Pyserini's
//! default ranker): for a query `q` with terms `t` and a document `d`,
//!
//! ```text
//! score(q, d) = Σ_t idf(t) · tf(t, d) · (k1 + 1) / (tf(t, d) + k1 · (1 − b + b · |d| / avgdl))
//! idf(t)      = ln(1 + (N − df(t) + 0.5) / (df(t) + 0.5))
//! ```
//!
//! with the Lucene/Pyserini defaults `k1 = 0.9` ([`K1`]) and `b = 0.4` ([`B`]), the
//! one configuration RAGE retrieves with.

use crate::index::InvertedIndex;

/// Term-frequency saturation parameter (Pyserini's default).
pub const K1: f64 = 0.9;

/// Length-normalisation parameter (Pyserini's default).
pub const B: f64 = 0.4;

// The pruned query path's admissible bounds (see `crate::topk`) need the term score
// to be monotone non-decreasing in `tf` and non-increasing in document length, which
// holds for `k1 ≥ 0` and `0 ≤ b ≤ 1`. Constants outside that envelope fail the build
// instead of silently voiding the pruning argument.
const _: () = assert!(K1 >= 0.0 && 0.0 <= B && B <= 1.0);

/// Inverse document frequency with the Lucene +1 smoothing (always non-negative).
pub fn idf(num_docs: usize, doc_freq: usize) -> f64 {
    let n = num_docs as f64;
    let df = doc_freq as f64;
    (1.0 + (n - df + 0.5) / (df + 0.5)).ln()
}

/// Per-term BM25 contribution for a document of length `dl`.
///
/// `dl` is the document's analysed length as `f64`; the index precomputes it
/// ([`InvertedIndex::doc_norm_len`]), sparing the hot loop one `u32 → f64` convert
/// per posting. This is the single scoring kernel every query path bottoms out in —
/// exhaustive, pruned, and per-document alike — so operand order here *defines* the
/// bit-identity contract.
pub fn term_score_dl(idf: f64, tf: u32, dl: f64, avg_doc_len: f64) -> f64 {
    let tf = f64::from(tf);
    let avgdl = if avg_doc_len > 0.0 { avg_doc_len } else { 1.0 };
    let denom = tf + K1 * (1.0 - B + B * dl / avgdl);
    if denom == 0.0 {
        0.0
    } else {
        idf * tf * (K1 + 1.0) / denom
    }
}

/// Collection-level statistics used when scoring an index as *part of* a larger
/// collection.
///
/// BM25 is not a purely per-document function: `idf` depends on the collection's
/// document count and per-term document frequencies, and length normalisation depends
/// on the collection's average document length. A sharded deployment that scored each
/// shard against its own local statistics would rank differently from a single index
/// over the same corpus. Passing the *global* statistics here makes per-document scores
/// bit-identical to the unsharded ones, because [`term_score_dl`] is invoked with exactly
/// the same operands in exactly the same order.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectionStats<'a> {
    /// Total number of documents in the (logical) collection.
    pub num_docs: usize,
    /// Average analysed document length across the whole collection.
    pub avg_doc_len: f64,
    /// Document frequency of each query term across the whole collection, parallel to
    /// the `query_terms` slice passed alongside these stats.
    pub doc_freqs: &'a [usize],
}

/// Scores every document of the index against analysed query terms.
///
/// Returns a dense vector of scores indexed by document ordinal; documents matching no
/// query term score exactly `0.0`.
pub fn score_all(index: &InvertedIndex, query_terms: &[String]) -> Vec<f64> {
    let doc_freqs: Vec<usize> = query_terms.iter().map(|t| index.doc_freq(t)).collect();
    let stats = CollectionStats {
        num_docs: index.num_docs(),
        avg_doc_len: index.avg_doc_len(),
        doc_freqs: &doc_freqs,
    };
    score_all_with(index, query_terms, &stats)
}

/// Like [`score_all`], but with explicitly supplied collection statistics.
///
/// This is the shard-scoring primitive: an index over one partition of a corpus is
/// scored with the statistics of the *whole* corpus, which keeps every per-document
/// score bit-identical to what a single index over the full corpus would produce (see
/// [`CollectionStats`]). `stats.doc_freqs` must be parallel to `query_terms`.
pub fn score_all_with(
    index: &InvertedIndex,
    query_terms: &[String],
    stats: &CollectionStats<'_>,
) -> Vec<f64> {
    debug_assert_eq!(query_terms.len(), stats.doc_freqs.len());
    let mut scores = vec![0.0; index.num_docs()];
    for (term, &df) in query_terms.iter().zip(stats.doc_freqs) {
        if df == 0 {
            continue;
        }
        let idf = idf(stats.num_docs, df);
        if let Some(postings) = index.postings(term) {
            for posting in postings {
                let dl = index.doc_norm_len(posting.doc);
                scores[posting.doc as usize] +=
                    term_score_dl(idf, posting.tf, dl, stats.avg_doc_len);
            }
        }
    }
    scores
}

/// Score one document (by ordinal) against analysed query terms, bit-identical to
/// `score_all_with(..)[ordinal]`.
///
/// Instead of scoring the whole corpus densely, each query term's posting for the
/// document is found by binary search in its ordinal-sorted list — O(terms · log
/// postings) per document. The per-document accumulation visits query terms in
/// exactly the order [`score_all_with`] does, with identical [`term_score_dl`]
/// operands, so the sum carries the same bits.
pub fn score_doc_with(
    index: &InvertedIndex,
    query_terms: &[String],
    stats: &CollectionStats<'_>,
    ordinal: u32,
) -> f64 {
    debug_assert_eq!(query_terms.len(), stats.doc_freqs.len());
    let mut score = 0.0;
    for (term, &df) in query_terms.iter().zip(stats.doc_freqs) {
        if df == 0 {
            continue;
        }
        let idf = idf(stats.num_docs, df);
        let Some(term_id) = index.term_id(term) else {
            continue;
        };
        let postings = index.postings_by_id(term_id);
        if let Ok(pos) = postings.binary_search_by_key(&ordinal, |p| p.doc) {
            let dl = index.doc_norm_len(ordinal);
            score += term_score_dl(idf, postings[pos].tf, dl, stats.avg_doc_len);
        }
    }
    score
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::{Corpus, Document};
    use crate::tokenize::analyze;

    fn index() -> InvertedIndex {
        let mut corpus = Corpus::new();
        corpus.push(Document::new("a", "", "federer grand slam wins"));
        corpus.push(Document::new(
            "b",
            "",
            "djokovic grand slam grand slam titles",
        ));
        corpus.push(Document::new(
            "c",
            "",
            "completely unrelated text about cooking",
        ));
        InvertedIndex::build(&corpus)
    }

    #[test]
    fn idf_is_decreasing_in_document_frequency() {
        let n = 1000;
        assert!(idf(n, 1) > idf(n, 10));
        assert!(idf(n, 10) > idf(n, 100));
        assert!(idf(n, 100) > idf(n, 999));
    }

    #[test]
    fn idf_never_negative() {
        // Even when the term appears in every document (Lucene +1 smoothing).
        assert!(idf(10, 10) >= 0.0);
        assert!(idf(1, 1) >= 0.0);
    }

    #[test]
    fn term_score_increases_with_tf_but_saturates() {
        let s1 = term_score_dl(1.0, 1, 10.0, 10.0);
        let s2 = term_score_dl(1.0, 2, 10.0, 10.0);
        let s10 = term_score_dl(1.0, 10, 10.0, 10.0);
        let s11 = term_score_dl(1.0, 11, 10.0, 10.0);
        assert!(s2 > s1);
        assert!(s10 > s2);
        // Saturation: marginal gain shrinks.
        assert!(s11 - s10 < s2 - s1);
    }

    #[test]
    fn longer_documents_are_penalised() {
        let short = term_score_dl(1.0, 2, 5.0, 10.0);
        let long = term_score_dl(1.0, 2, 50.0, 10.0);
        assert!(short > long);
    }

    #[test]
    fn zero_tf_scores_zero() {
        assert_eq!(term_score_dl(2.0, 0, 10.0, 10.0), 0.0);
    }

    #[test]
    fn score_all_ranks_matching_documents() {
        let idx = index();
        let terms = analyze("grand slam");
        let scores = score_all(&idx, &terms);
        assert_eq!(scores.len(), 3);
        // Document b repeats "grand slam" and should outrank a; c matches nothing.
        assert!(scores[1] > scores[0]);
        assert!(scores[0] > 0.0);
        assert_eq!(scores[2], 0.0);
    }

    #[test]
    fn score_all_ignores_unknown_terms() {
        let idx = index();
        let scores = score_all(&idx, &["nonexistentterm".to_string()]);
        assert!(scores.iter().all(|&s| s == 0.0));
    }

    #[test]
    fn empty_index_scores_nothing() {
        let idx = InvertedIndex::build(&Corpus::new());
        let scores = score_all(&idx, &["anything".into()]);
        assert!(scores.is_empty());
    }
}

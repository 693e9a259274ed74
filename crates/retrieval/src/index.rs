//! The inverted index, in a compact arena layout.
//!
//! [`InvertedIndex`] stores, for every analysed term, a postings list of
//! `(document ordinal, term frequency)` pairs, plus per-document lengths and the corpus
//! itself. It is the in-memory stand-in for the Lucene index RAGE's prototype queried
//! through Pyserini.
//!
//! ## Layout
//!
//! The dictionary and the postings both live in contiguous arenas rather than a
//! per-term `BTreeMap<String, Vec<Posting>>`:
//!
//! * **Term dictionary** — every distinct term is interned into one sorted string
//!   arena (`InvertedIndex::term_str` slices it through an offset table). A term id
//!   is the term's rank in that sorted order, so lookups are a binary search over
//!   arena slices and [`InvertedIndex::terms`] is a linear walk — no per-term `String`
//!   allocations, no tree nodes.
//! * **Postings arena** — all postings lists are concatenated into a single
//!   `Vec<Posting>`; per term the dictionary stores an `(offset, len)` slice. Each
//!   list is ordered by ascending document ordinal (documents are indexed in corpus
//!   order), which the pruned query path relies on for per-candidate binary probes.
//! * **Document stats** — ids, integer token counts, and the counts pre-converted to
//!   `f64` (the BM25 length norm operand) are split into parallel arrays, so the
//!   scoring loop touches a dense `f64` array instead of striding over structs, and an
//!   id → ordinal map replaces the former linear scan in
//!   [`ordinal_of`](InvertedIndex::ordinal_of).
//!
//! ## Per-term score bound statistics
//!
//! At build time every term also records the **maximum term frequency** and the
//! **minimum analysed document length** over its postings. Because the BM25 per-term
//! contribution is monotone non-decreasing in `tf` and non-increasing in document
//! length (for `k1 ≥ 0`, `0 ≤ b ≤ 1`), evaluating the term score at `(max_tf,
//! min_dl)` yields an *admissible upper bound* on the term's contribution to any
//! document in this index — the quantity that drives the exact dynamic pruning in
//! [`crate::topk`]. The bounds are recomputed whenever an index is (re)built — which
//! is exactly when a delta segment mutates or a shard compacts — and they stay
//! admissible under tombstoned removals without recomputation, because a maximum over
//! a superset of the live documents can only over-estimate, never under-estimate (see
//! the crate docs for the full contract).

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::document::{Corpus, Document};
use crate::tokenize::Tokenizer;

/// One posting: a document ordinal and the term's frequency inside that document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Posting {
    /// Ordinal of the document inside the indexed corpus (0-based, insertion order).
    pub doc: u32,
    /// Number of occurrences of the term in the document.
    pub tf: u32,
}

/// Builder for [`InvertedIndex`].
#[derive(Debug, Clone, Default)]
pub struct IndexBuilder {
    tokenizer: Tokenizer,
}

impl IndexBuilder {
    /// Use a custom tokenizer for analysis.
    pub fn with_tokenizer(mut self, tokenizer: Tokenizer) -> Self {
        self.tokenizer = tokenizer;
        self
    }

    /// Analyse and index every document of the corpus.
    pub fn build(&self, corpus: &Corpus) -> InvertedIndex {
        let analysed: Vec<Vec<String>> = corpus
            .iter()
            .map(|doc| self.tokenizer.tokenize(&doc.full_text()))
            .collect();
        self.build_analysed(corpus.clone(), &analysed)
    }

    /// Index documents whose token streams were already analysed. The corpus moves
    /// into the index, so a caller that assembled it for this index pays no copy.
    ///
    /// `analysed` must be parallel to the corpus and hold, per document, exactly the
    /// tokens this builder's tokenizer would produce for
    /// [`Document::full_text`] — analysis is deterministic, so callers that cache
    /// token streams (the sharded delta segments do) get an index bit-identical to
    /// [`IndexBuilder::build`] without re-analysing unchanged documents.
    ///
    /// # Panics
    /// If `analysed` and the corpus differ in length.
    pub fn build_analysed(&self, corpus: Corpus, analysed: &[Vec<String>]) -> InvertedIndex {
        assert_eq!(
            corpus.len(),
            analysed.len(),
            "one analysed token stream per document"
        );

        // Accumulate per-term postings. Documents are visited in corpus order and each
        // contributes at most one posting per term, so every list is already sorted by
        // ascending ordinal — no per-list sort needed.
        let mut dict: HashMap<String, Vec<Posting>> = HashMap::new();
        let mut doc_ids = Vec::with_capacity(corpus.len());
        let mut doc_lens = Vec::with_capacity(corpus.len());
        let mut total_len: u64 = 0;

        for (ordinal, (doc, terms)) in corpus.iter().zip(analysed).enumerate() {
            let mut freqs: HashMap<&str, u32> = HashMap::new();
            for term in terms {
                *freqs.entry(term.as_str()).or_insert(0) += 1;
            }
            for (term, tf) in freqs {
                let posting = Posting {
                    doc: ordinal as u32,
                    tf,
                };
                match dict.get_mut(term) {
                    Some(list) => list.push(posting),
                    None => {
                        dict.insert(term.to_string(), vec![posting]);
                    }
                }
            }
            let len = terms.len() as u32;
            total_len += u64::from(len);
            doc_ids.push(doc.id.clone());
            doc_lens.push(len);
        }

        let avg_doc_len = if doc_ids.is_empty() {
            0.0
        } else {
            total_len as f64 / doc_ids.len() as f64
        };

        // Intern the dictionary in sorted order and concatenate the postings arena.
        let mut sorted_terms: Vec<(String, Vec<Posting>)> = dict.into_iter().collect();
        sorted_terms.sort_by(|a, b| a.0.cmp(&b.0));

        let num_terms = sorted_terms.len();
        let mut term_arena = String::new();
        let mut term_offsets = Vec::with_capacity(num_terms + 1);
        let mut posting_offsets = Vec::with_capacity(num_terms + 1);
        let mut postings = Vec::with_capacity(sorted_terms.iter().map(|(_, l)| l.len()).sum());
        let mut term_max_tf = Vec::with_capacity(num_terms);
        let mut term_min_dl = Vec::with_capacity(num_terms);
        term_offsets.push(0u32);
        posting_offsets.push(0u32);
        for (term, list) in sorted_terms {
            term_arena.push_str(&term);
            term_offsets.push(term_arena.len() as u32);
            let mut max_tf = 0u32;
            let mut min_dl = u32::MAX;
            for p in &list {
                max_tf = max_tf.max(p.tf);
                min_dl = min_dl.min(doc_lens[p.doc as usize]);
            }
            term_max_tf.push(max_tf);
            term_min_dl.push(min_dl);
            postings.extend_from_slice(&list);
            posting_offsets.push(postings.len() as u32);
        }

        let doc_norm_lens = doc_lens.iter().map(|&len| f64::from(len)).collect();
        let ordinals = doc_ids
            .iter()
            .enumerate()
            .map(|(ordinal, id)| (id.clone(), ordinal as u32))
            .collect();

        InvertedIndex {
            term_arena,
            term_offsets,
            posting_offsets,
            postings,
            term_max_tf,
            term_min_dl,
            doc_ids,
            doc_lens,
            doc_norm_lens,
            ordinals,
            avg_doc_len,
            tokenizer: self.tokenizer.clone(),
            corpus,
        }
    }
}

/// An immutable in-memory inverted index over a [`Corpus`] (see the [module
/// docs](self) for the arena layout).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InvertedIndex {
    /// All distinct terms, sorted, concatenated.
    term_arena: String,
    /// `num_terms + 1` byte offsets into `term_arena`; term `i` is the slice
    /// `term_arena[term_offsets[i]..term_offsets[i + 1]]`.
    term_offsets: Vec<u32>,
    /// `num_terms + 1` offsets into `postings`; term `i`'s list is the slice
    /// `postings[posting_offsets[i]..posting_offsets[i + 1]]`.
    posting_offsets: Vec<u32>,
    /// One contiguous arena of all postings lists, each sorted by ascending ordinal.
    postings: Vec<Posting>,
    /// Per term: the maximum `tf` over its postings (admissible bound operand).
    term_max_tf: Vec<u32>,
    /// Per term: the minimum analysed length over its posting documents (admissible
    /// bound operand).
    term_min_dl: Vec<u32>,
    /// Document ids by ordinal.
    doc_ids: Vec<String>,
    /// Analysed token counts by ordinal.
    doc_lens: Vec<u32>,
    /// `doc_lens` pre-converted to `f64` — the BM25 length-norm operand, precomputed
    /// once at build time instead of per posting per query.
    doc_norm_lens: Vec<f64>,
    /// Document id → ordinal.
    ordinals: HashMap<String, u32>,
    avg_doc_len: f64,
    tokenizer: Tokenizer,
    corpus: Corpus,
}

impl InvertedIndex {
    /// Number of indexed documents.
    pub fn num_docs(&self) -> usize {
        self.doc_ids.len()
    }

    /// Number of distinct terms in the dictionary.
    pub fn num_terms(&self) -> usize {
        self.term_max_tf.len()
    }

    /// Average analysed document length (in tokens).
    pub fn avg_doc_len(&self) -> f64 {
        self.avg_doc_len
    }

    /// The tokenizer that analysed this index (queries must use the same one).
    pub fn tokenizer(&self) -> &Tokenizer {
        &self.tokenizer
    }

    /// The corpus backing the index.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// The interned term with the given id (its rank in the sorted dictionary).
    fn term_str(&self, term_id: usize) -> &str {
        let start = self.term_offsets[term_id] as usize;
        let end = self.term_offsets[term_id + 1] as usize;
        &self.term_arena[start..end]
    }

    /// Dictionary lookup: the id of a term, if it occurs in the corpus. A binary
    /// search over the sorted term arena.
    pub fn term_id(&self, term: &str) -> Option<u32> {
        let mut lo = 0usize;
        let mut hi = self.num_terms();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.term_str(mid).cmp(term) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(mid as u32),
            }
        }
        None
    }

    /// Postings list for a term id (ascending document ordinal).
    pub fn postings_by_id(&self, term_id: u32) -> &[Posting] {
        let start = self.posting_offsets[term_id as usize] as usize;
        let end = self.posting_offsets[term_id as usize + 1] as usize;
        &self.postings[start..end]
    }

    /// Maximum term frequency over the term's postings (bound operand; see the
    /// [module docs](self)).
    pub fn term_max_tf(&self, term_id: u32) -> u32 {
        self.term_max_tf[term_id as usize]
    }

    /// Minimum analysed document length over the term's posting documents (bound
    /// operand; see the [module docs](self)).
    pub fn term_min_dl(&self, term_id: u32) -> u32 {
        self.term_min_dl[term_id as usize]
    }

    /// Postings list for a term, if the term occurs in the corpus.
    pub fn postings(&self, term: &str) -> Option<&[Posting]> {
        self.term_id(term).map(|id| self.postings_by_id(id))
    }

    /// Document frequency: the number of documents containing the term.
    pub fn doc_freq(&self, term: &str) -> usize {
        self.term_id(term)
            .map_or(0, |id| self.postings_by_id(id).len())
    }

    /// Length (analysed token count) of the document with the given ordinal.
    pub fn doc_len(&self, ordinal: u32) -> u32 {
        self.doc_lens.get(ordinal as usize).copied().unwrap_or(0)
    }

    /// Length of the document with the given ordinal as `f64` — precomputed at build
    /// time, bit-identical to `f64::from(self.doc_len(ordinal))`.
    ///
    /// # Panics
    /// If the ordinal is out of range.
    pub fn doc_norm_len(&self, ordinal: u32) -> f64 {
        self.doc_norm_lens[ordinal as usize]
    }

    /// Id of the document with the given ordinal.
    pub fn doc_id(&self, ordinal: u32) -> Option<&str> {
        self.doc_ids.get(ordinal as usize).map(String::as_str)
    }

    /// The full document with the given ordinal.
    pub fn document(&self, ordinal: u32) -> Option<&Document> {
        self.corpus.documents().get(ordinal as usize)
    }

    /// Ordinal of a document id, if indexed. A hash lookup (the former linear scan
    /// made every by-id operation O(corpus)).
    pub fn ordinal_of(&self, doc_id: &str) -> Option<u32> {
        self.ordinals.get(doc_id).copied()
    }

    /// Iterate over the dictionary in sorted term order (terms and their document
    /// frequencies).
    pub fn terms(&self) -> impl Iterator<Item = (&str, usize)> {
        (0..self.num_terms()).map(|id| (self.term_str(id), self.postings_by_id(id as u32).len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::Document;

    fn index() -> InvertedIndex {
        let mut corpus = Corpus::new();
        corpus.push(Document::new("a", "", "federer wins match wins"));
        corpus.push(Document::new("b", "", "djokovic wins slam"));
        corpus.push(Document::new("c", "", "nadal clay"));
        IndexBuilder::default().build(&corpus)
    }

    #[test]
    fn counts_documents_and_terms() {
        let idx = index();
        assert_eq!(idx.num_docs(), 3);
        assert!(idx.num_terms() >= 6);
    }

    #[test]
    fn postings_carry_term_frequencies() {
        let idx = index();
        // "wins" stems to "win"; appears twice in doc a and once in doc b.
        let postings = idx.postings("win").expect("term indexed");
        assert_eq!(postings.len(), 2);
        assert_eq!(postings[0], Posting { doc: 0, tf: 2 });
        assert_eq!(postings[1], Posting { doc: 1, tf: 1 });
    }

    #[test]
    fn doc_freq_and_lengths() {
        let idx = index();
        assert_eq!(idx.doc_freq("win"), 2);
        assert_eq!(idx.doc_freq("clay"), 1);
        assert_eq!(idx.doc_freq("absent"), 0);
        assert_eq!(idx.doc_len(0), 4);
        assert_eq!(idx.doc_len(2), 2);
    }

    #[test]
    fn average_length() {
        let idx = index();
        let expected = (4.0 + 3.0 + 2.0) / 3.0;
        assert!((idx.avg_doc_len() - expected).abs() < 1e-9);
    }

    #[test]
    fn ordinal_and_id_round_trip() {
        let idx = index();
        assert_eq!(idx.doc_id(1), Some("b"));
        assert_eq!(idx.ordinal_of("b"), Some(1));
        assert_eq!(idx.ordinal_of("zzz"), None);
        assert_eq!(idx.document(2).unwrap().id, "c");
        assert!(idx.document(9).is_none());
    }

    #[test]
    fn empty_corpus_index() {
        let idx = IndexBuilder::default().build(&Corpus::new());
        assert_eq!(idx.num_docs(), 0);
        assert_eq!(idx.num_terms(), 0);
        assert_eq!(idx.avg_doc_len(), 0.0);
        assert!(idx.postings("anything").is_none());
        assert!(idx.terms().next().is_none());
    }

    #[test]
    fn title_is_indexed() {
        let mut corpus = Corpus::new();
        corpus.push(Document::new("t", "Wimbledon Final", "the match"));
        let idx = IndexBuilder::default().build(&corpus);
        assert_eq!(idx.doc_freq("wimbledon"), 1);
    }

    #[test]
    fn terms_iterator_is_sorted() {
        let idx = index();
        let terms: Vec<_> = idx.terms().map(|(t, _)| t.to_string()).collect();
        let mut sorted = terms.clone();
        sorted.sort();
        assert_eq!(terms, sorted);
    }

    #[test]
    fn term_id_round_trips_the_dictionary() {
        let idx = index();
        for (term, df) in idx.terms() {
            let id = idx.term_id(term).expect("term in dictionary");
            assert_eq!(idx.postings_by_id(id).len(), df);
            assert_eq!(idx.postings(term).unwrap(), idx.postings_by_id(id));
        }
        assert_eq!(idx.term_id("zzz-absent"), None);
        assert_eq!(idx.term_id(""), None);
    }

    #[test]
    fn norm_lens_match_integer_lengths() {
        let idx = index();
        for ordinal in 0..idx.num_docs() as u32 {
            assert_eq!(
                idx.doc_norm_len(ordinal).to_bits(),
                f64::from(idx.doc_len(ordinal)).to_bits()
            );
        }
    }

    #[test]
    fn bound_stats_cover_every_posting() {
        let idx = index();
        for (term, _) in idx.terms() {
            let id = idx.term_id(term).unwrap();
            let list = idx.postings_by_id(id);
            let max_tf = list.iter().map(|p| p.tf).max().unwrap();
            let min_dl = list.iter().map(|p| idx.doc_len(p.doc)).min().unwrap();
            assert_eq!(idx.term_max_tf(id), max_tf, "{term}");
            assert_eq!(idx.term_min_dl(id), min_dl, "{term}");
        }
        // "win" has tf 2 in doc a (len 4) and tf 1 in doc b (len 3).
        let win = idx.term_id("win").unwrap();
        assert_eq!(idx.term_max_tf(win), 2);
        assert_eq!(idx.term_min_dl(win), 3);
    }

    #[test]
    fn postings_lists_are_ordinal_sorted() {
        let idx = index();
        for (term, _) in idx.terms() {
            let list = idx.postings(term).unwrap();
            assert!(list.windows(2).all(|w| w[0].doc < w[1].doc), "{term}");
        }
    }

    #[test]
    fn build_analysed_matches_build() {
        let mut corpus = Corpus::new();
        corpus.push(Document::new("a", "Match wins", "federer wins match wins"));
        corpus.push(Document::new("b", "", "djokovic wins slam"));
        let builder = IndexBuilder::default();
        let tokens: Vec<Vec<String>> = corpus
            .iter()
            .map(|d| builder.tokenizer.tokenize(&d.full_text()))
            .collect();
        let from_tokens = builder.build_analysed(corpus.clone(), &tokens);
        let from_scratch = builder.build(&corpus);
        assert_eq!(from_tokens.num_terms(), from_scratch.num_terms());
        assert_eq!(
            from_tokens.avg_doc_len().to_bits(),
            from_scratch.avg_doc_len().to_bits()
        );
        for (term, df) in from_scratch.terms() {
            assert_eq!(from_tokens.doc_freq(term), df);
            assert_eq!(from_tokens.postings(term), from_scratch.postings(term));
        }
    }

    #[test]
    #[should_panic(expected = "one analysed token stream per document")]
    fn build_analysed_rejects_length_mismatch() {
        let mut corpus = Corpus::new();
        corpus.push(Document::new("a", "", "text"));
        IndexBuilder::default().build_analysed(corpus, &[]);
    }
}

//! The inverted index, in a compact arena layout.
//!
//! [`InvertedIndex`] stores, for every analysed term, a postings list of
//! `(document ordinal, term frequency)` pairs, plus per-document lengths and the indexed
//! documents, which [`InvertedIndex::document`] returns by ordinal. It is the in-memory
//! stand-in for the Lucene index RAGE's prototype queried through Pyserini.
//!
//! ## Layout
//!
//! The dictionary and the postings both live in contiguous arenas rather than a
//! per-term `BTreeMap<String, Vec<Posting>>`:
//!
//! * **Term dictionary** — every distinct term is interned into one sorted string
//!   arena (`Arenas::term_str` slices it through an offset table). A term id
//!   is the term's rank in that sorted order, so lookups are a binary search over
//!   arena slices and [`InvertedIndex::terms`] is a linear walk — no per-term `String`
//!   allocations, no tree nodes.
//! * **Postings arena** — all postings lists are concatenated into a single
//!   `Vec<Posting>`; per term the dictionary stores an `(offset, len)` slice. Each
//!   list is ordered by ascending document ordinal (documents are indexed in corpus
//!   order), which the pruned query path relies on for per-candidate binary probes.
//! * **Document stats** — integer token counts and the counts pre-converted to `f64`
//!   (the BM25 length norm operand) are split into parallel arrays, so the scoring
//!   loop touches a dense `f64` array instead of striding over structs.
//! * **Documents** — the index owns its one copy of its documents, by ordinal, which
//!   [`doc_id`](InvertedIndex::doc_id) and [`document`](InvertedIndex::document)
//!   read. One id → ordinal map, built once per index, answers
//!   [`ordinal_of`](InvertedIndex::ordinal_of) and checks that the ids are unique.
//!
//! ## The one build
//!
//! Every index — a whole corpus, a shard, a delta segment, a compaction — is built
//! by one streaming pass that never holds a token as a `String`:
//!
//! 1. **Analyse once, into term ids.** Each document's title, then its text, runs
//!    through [`for_each_term`](crate::tokenize::for_each_term), which yields exactly
//!    the terms of [`Document::full_text`] without building that string. Each term
//!    is interned on arrival (one `String` per *distinct* term) and the document
//!    keeps only its term ids.
//! 2. **Count by sorting.** Sorting a document's ids puts equal terms side by side,
//!    so each run of equal ids is one posting `(ordinal, tf)` and the id count is
//!    the document's length.
//! 3. **Sort the dictionary once.** At the end the distinct terms are sorted, which
//!    gives every term its final id, and a counting sort places each posting in its
//!    term's list. Documents were visited in ordinal order, so every list is
//!    ascending without a per-list sort; the bounds below are taken in the same
//!    pass.
//!
//! A large corpus splits into contiguous chunks of documents, one per core and
//! none smaller than a measured minimum (below twice that the build stays on the
//! calling thread). Each chunk runs the pass above on a scoped thread, and the
//! chunks merge in ordinal order: the sorted dictionaries merge, and each term's
//! lists concatenate chunk by chunk. A term's list is then exactly the one-chunk
//! list, its bounds are the maximum and minimum of the chunks' bounds, and the
//! average length is an integer sum divided once, so every arena, bound and score
//! bit is the same at any chunk count.
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
use std::sync::OnceLock;
use std::thread;

use serde::{Deserialize, Serialize};

use crate::document::{Corpus, Document};
use crate::tokenize::for_each_term_in;

/// The fewest documents a build gives one chunk thread. Below twice this a build runs
/// on the calling thread alone, so delta rebuilds and the scenario corpora (at most
/// 4,096 documents) never spawn one. On entity-registry documents and two cores, a
/// two-chunk build lost 3–5% at 1,024 and 2,048 documents, won 11% (2 ms) at 4,096
/// and 35% at 8,192.
const MIN_CHUNK_DOCS: usize = 4_096;

/// One posting: a document ordinal and the term's frequency inside that document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Posting {
    /// Ordinal of the document inside the indexed corpus (0-based, insertion order).
    pub doc: u32,
    /// Number of occurrences of the term in the document.
    pub tf: u32,
}

/// An immutable in-memory inverted index over a [`Corpus`] (see the [module
/// docs](self) for the arena layout).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InvertedIndex {
    /// The dictionary, the postings and the document lengths.
    arenas: Arenas,
    /// `doc_lens` pre-converted to `f64` — the BM25 length-norm operand, precomputed
    /// once at build time instead of per posting per query.
    doc_norm_lens: Vec<f64>,
    /// The indexed documents, by ordinal.
    docs: Vec<Document>,
    /// Document id → ordinal.
    ordinals: HashMap<String, u32>,
    avg_doc_len: f64,
}

/// The term dictionary, the postings and the document lengths of a run of
/// consecutive documents: a whole index, or one chunk of a split build.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct Arenas {
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
    /// Analysed token counts, in ordinal order.
    doc_lens: Vec<u32>,
}

/// Analyse a document as its [`Document::full_text`]: the title's terms, then the
/// text's. The separator `full_text` puts between them splits tokens anyway, so the
/// terms are the same without building that string.
pub(crate) fn for_each_document_term(doc: &Document, buf: &mut String, mut emit: impl FnMut(&str)) {
    for_each_term_in(&doc.title, buf, &mut emit);
    for_each_term_in(&doc.text, buf, &mut emit);
}

/// Balanced contiguous partition of `n` items into `parts` ranges (the first
/// `n % parts` ranges are one longer).
pub(crate) fn partition_bounds(n: usize, parts: usize) -> Vec<(usize, usize)> {
    let base = n / parts;
    let remainder = n % parts;
    let mut bounds = Vec::with_capacity(parts);
    let mut start = 0;
    for s in 0..parts {
        let len = base + usize::from(s < remainder);
        bounds.push((start, start + len));
        start += len;
    }
    bounds
}

/// How many chunks a build of `num_docs` documents splits into: one per core
/// (`available_parallelism()`, read once per process), and none smaller than
/// [`MIN_CHUNK_DOCS`].
pub(crate) fn chunk_count(num_docs: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()));
    (num_docs / MIN_CHUNK_DOCS).clamp(1, cores)
}

impl Arenas {
    /// Index `docs`, whose ordinals start at `first`. Each document is analysed once,
    /// straight into interned term ids, and its term frequencies are counted by
    /// sorting its ids; the dictionary is sorted once at the end.
    fn index(docs: &[Document], first: u32) -> Self {
        let mut ids: HashMap<String, u32> = HashMap::new();
        // (term id, posting), in document order.
        let mut entries: Vec<(u32, Posting)> = Vec::new();
        let mut doc_lens = Vec::with_capacity(docs.len());
        let mut doc_terms: Vec<u32> = Vec::new();
        let mut buf = String::new();
        for (doc, ordinal) in docs.iter().zip(first..) {
            doc_terms.clear();
            for_each_document_term(doc, &mut buf, |term| {
                let id = match ids.get(term) {
                    Some(&id) => id,
                    None => {
                        let id = ids.len() as u32;
                        ids.insert(term.to_owned(), id);
                        id
                    }
                };
                doc_terms.push(id);
            });
            doc_lens.push(doc_terms.len() as u32);
            doc_terms.sort_unstable();
            for run in doc_terms.chunk_by(|a, b| a == b) {
                let tf = run.len() as u32;
                entries.push((run[0], Posting { doc: ordinal, tf }));
            }
        }

        // Intern the dictionary in sorted order: a term's rank becomes its id.
        let mut dict: Vec<(String, u32)> = ids.into_iter().collect();
        dict.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let num_terms = dict.len();
        let mut rank = vec![0u32; num_terms];
        let mut term_arena = String::with_capacity(dict.iter().map(|(t, _)| t.len()).sum());
        let mut term_offsets = Vec::with_capacity(num_terms + 1);
        term_offsets.push(0u32);
        for (r, (term, id)) in dict.iter().enumerate() {
            rank[*id as usize] = r as u32;
            term_arena.push_str(term);
            term_offsets.push(term_arena.len() as u32);
        }

        // Place each posting in its term's list (a counting sort by rank). Documents
        // were visited in ordinal order, so every list is already ascending.
        let mut posting_offsets = vec![0u32; num_terms + 1];
        for &(id, _) in &entries {
            posting_offsets[rank[id as usize] as usize + 1] += 1;
        }
        for t in 0..num_terms {
            posting_offsets[t + 1] += posting_offsets[t];
        }
        let mut next = posting_offsets[..num_terms].to_vec();
        let mut postings = vec![Posting { doc: 0, tf: 0 }; entries.len()];
        let mut term_max_tf = vec![0u32; num_terms];
        let mut term_min_dl = vec![u32::MAX; num_terms];
        for (id, posting) in entries {
            let t = rank[id as usize] as usize;
            postings[next[t] as usize] = posting;
            next[t] += 1;
            term_max_tf[t] = term_max_tf[t].max(posting.tf);
            term_min_dl[t] = term_min_dl[t].min(doc_lens[(posting.doc - first) as usize]);
        }

        Self {
            term_arena,
            term_offsets,
            posting_offsets,
            postings,
            term_max_tf,
            term_min_dl,
            doc_lens,
        }
    }

    /// Merge the chunks of consecutive ordinal ranges, given in ordinal order. The
    /// sorted dictionaries merge, and each term's lists and bounds concatenate chunk
    /// by chunk, so the result equals one [`Arenas::index`] over all the documents.
    fn merge(chunks: &[Arenas]) -> Self {
        let mut merged = Self {
            term_offsets: vec![0],
            posting_offsets: vec![0],
            postings: Vec::with_capacity(chunks.iter().map(|c| c.postings.len()).sum()),
            ..Self::default()
        };
        let mut cursors = vec![0usize; chunks.len()];
        loop {
            let least = chunks
                .iter()
                .zip(&cursors)
                .filter(|(chunk, &at)| at < chunk.num_terms())
                .map(|(chunk, &at)| chunk.term_str(at))
                .min();
            let Some(term) = least else { break };
            merged.term_arena.push_str(term);
            merged.term_offsets.push(merged.term_arena.len() as u32);
            let mut max_tf = 0u32;
            let mut min_dl = u32::MAX;
            for (chunk, at) in chunks.iter().zip(&mut cursors) {
                if *at < chunk.num_terms() && chunk.term_str(*at) == term {
                    merged.postings.extend_from_slice(chunk.postings(*at));
                    max_tf = max_tf.max(chunk.term_max_tf[*at]);
                    min_dl = min_dl.min(chunk.term_min_dl[*at]);
                    *at += 1;
                }
            }
            merged.posting_offsets.push(merged.postings.len() as u32);
            merged.term_max_tf.push(max_tf);
            merged.term_min_dl.push(min_dl);
        }
        for chunk in chunks {
            merged.doc_lens.extend_from_slice(&chunk.doc_lens);
        }
        merged
    }

    fn num_terms(&self) -> usize {
        self.term_max_tf.len()
    }

    /// The interned term with the given id (its rank in the sorted dictionary).
    fn term_str(&self, term_id: usize) -> &str {
        let start = self.term_offsets[term_id] as usize;
        let end = self.term_offsets[term_id + 1] as usize;
        &self.term_arena[start..end]
    }

    fn postings(&self, term_id: usize) -> &[Posting] {
        let start = self.posting_offsets[term_id] as usize;
        let end = self.posting_offsets[term_id + 1] as usize;
        &self.postings[start..end]
    }
}

impl InvertedIndex {
    /// Analyse and index every document of the corpus (a copy of its documents moves
    /// into the index). A corpus of at least twice the minimum chunk size splits into
    /// one chunk per core (see [the one build](self#the-one-build)).
    pub fn build(corpus: &Corpus) -> Self {
        Self::build_in_chunks(corpus.documents().to_vec(), chunk_count(corpus.len()))
    }

    /// Index documents that move into the index, split into `chunks` contiguous runs
    /// indexed on scoped threads (the caller indexes the first) and merged in ordinal
    /// order. Every arena, bound and length is the same at any chunk count.
    ///
    /// # Panics
    /// If two documents share an id.
    pub(crate) fn build_in_chunks(docs: Vec<Document>, chunks: usize) -> Self {
        let mut ordinals = HashMap::with_capacity(docs.len());
        for (ordinal, doc) in (0u32..).zip(&docs) {
            let fresh = ordinals.insert(doc.id.clone(), ordinal).is_none();
            assert!(fresh, "duplicate document id {:?}", doc.id);
        }
        let bounds = partition_bounds(docs.len(), chunks.max(1));
        let arenas = if bounds.len() == 1 {
            Arenas::index(&docs, 0)
        } else {
            let docs = &docs;
            let parts: Vec<Arenas> = thread::scope(|scope| {
                let helpers: Vec<_> = bounds[1..]
                    .iter()
                    .map(|&(start, end)| {
                        scope.spawn(move || Arenas::index(&docs[start..end], start as u32))
                    })
                    .collect();
                let first = Arenas::index(&docs[..bounds[0].1], 0);
                std::iter::once(first)
                    .chain(
                        helpers
                            .into_iter()
                            .map(|h| h.join().expect("index chunk build panicked")),
                    )
                    .collect()
            });
            Arenas::merge(&parts)
        };

        // Summing integer token counts is exact, so the average does not depend on
        // the chunking (or, in a sharded index, on the partition).
        let total_len: u64 = arenas.doc_lens.iter().map(|&len| u64::from(len)).sum();
        let avg_doc_len = if docs.is_empty() {
            0.0
        } else {
            total_len as f64 / docs.len() as f64
        };
        let doc_norm_lens = arenas.doc_lens.iter().map(|&len| f64::from(len)).collect();

        Self {
            arenas,
            doc_norm_lens,
            docs,
            ordinals,
            avg_doc_len,
        }
    }

    /// Number of indexed documents.
    pub fn num_docs(&self) -> usize {
        self.docs.len()
    }

    /// Number of distinct terms in the dictionary.
    pub fn num_terms(&self) -> usize {
        self.arenas.num_terms()
    }

    /// Average analysed document length (in tokens).
    pub fn avg_doc_len(&self) -> f64 {
        self.avg_doc_len
    }

    /// Dictionary lookup: the id of a term, if it occurs in the corpus. A binary
    /// search over the sorted term arena.
    pub fn term_id(&self, term: &str) -> Option<u32> {
        let mut lo = 0usize;
        let mut hi = self.num_terms();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.arenas.term_str(mid).cmp(term) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(mid as u32),
            }
        }
        None
    }

    /// Postings list for a term id (ascending document ordinal).
    pub fn postings_by_id(&self, term_id: u32) -> &[Posting] {
        self.arenas.postings(term_id as usize)
    }

    /// Maximum term frequency over the term's postings (bound operand; see the
    /// [module docs](self)).
    pub fn term_max_tf(&self, term_id: u32) -> u32 {
        self.arenas.term_max_tf[term_id as usize]
    }

    /// Minimum analysed document length over the term's posting documents (bound
    /// operand; see the [module docs](self)).
    pub fn term_min_dl(&self, term_id: u32) -> u32 {
        self.arenas.term_min_dl[term_id as usize]
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
    ///
    /// # Panics
    /// If the ordinal is out of range.
    pub fn doc_len(&self, ordinal: u32) -> u32 {
        self.arenas.doc_lens[ordinal as usize]
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
        self.document(ordinal).map(|doc| doc.id.as_str())
    }

    /// The full document with the given ordinal.
    pub fn document(&self, ordinal: u32) -> Option<&Document> {
        self.docs.get(ordinal as usize)
    }

    /// Every indexed document, in ordinal order.
    pub(crate) fn documents(&self) -> &[Document] {
        &self.docs
    }

    /// Ordinal of a document id, if indexed: one hash lookup.
    pub fn ordinal_of(&self, doc_id: &str) -> Option<u32> {
        self.ordinals.get(doc_id).copied()
    }

    /// Iterate over the dictionary in sorted term order (terms and their document
    /// frequencies).
    pub fn terms(&self) -> impl Iterator<Item = (&str, usize)> {
        (0..self.num_terms()).map(|id| (self.arenas.term_str(id), self.arenas.postings(id).len()))
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
        InvertedIndex::build(&corpus)
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
        let idx = InvertedIndex::build(&Corpus::new());
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
        let idx = InvertedIndex::build(&corpus);
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

    /// A seeded corpus with repeated terms, titles, empty texts, non-ASCII tokens and
    /// every stem rule.
    fn seeded_corpus(num_docs: usize) -> Corpus {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const WORDS: &[&str] = &[
            "federer",
            "wins",
            "match",
            "matches",
            "ranking",
            "rankings",
            "ranked",
            "titles",
            "classes",
            "ladies",
            "the",
            "of",
            "Zürich",
            "ΟΔΟΣ",
            "İstanbul",
            "Straße",
            "Gaël's",
            "2023s",
            "Djokovic's",
            "''s",
            "ror000123",
            "clay",
            "grand",
            "slam",
            "東京",
        ];
        let mut rng = StdRng::seed_from_u64(28);
        let words = |rng: &mut StdRng, max: usize| -> String {
            let n = rng.gen_range(0..max);
            (0..n)
                .map(|_| WORDS[rng.gen_range(0..WORDS.len())])
                .collect::<Vec<_>>()
                .join(" ")
        };
        let mut corpus = Corpus::new();
        for i in 0..num_docs {
            let title = if rng.gen_range(0..3) == 0 {
                words(&mut rng, 4)
            } else {
                String::new()
            };
            let text = words(&mut rng, 40);
            corpus.push(Document::new(format!("doc-{i:03}"), title, text));
        }
        corpus
    }

    #[test]
    fn every_chunk_count_builds_the_same_index() {
        for corpus in [seeded_corpus(300), seeded_corpus(5), Corpus::new()] {
            let one = InvertedIndex::build_in_chunks(corpus.documents().to_vec(), 1);
            if corpus.len() == 300 {
                assert!(corpus.iter().any(|d| d.text.is_empty()));
                assert!(corpus.iter().any(|d| !d.title.is_empty()));
                assert!(one.arenas.term_max_tf.iter().any(|&tf| tf > 1));
            }
            for chunks in [2, 3, 7] {
                let split = InvertedIndex::build_in_chunks(corpus.documents().to_vec(), chunks);
                let (a, b) = (&one.arenas, &split.arenas);
                let at = format!("{} docs, {chunks} chunks", corpus.len());
                assert_eq!(a.term_arena, b.term_arena, "term arena, {at}");
                assert_eq!(a.term_offsets, b.term_offsets, "term offsets, {at}");
                assert_eq!(
                    a.posting_offsets, b.posting_offsets,
                    "posting offsets, {at}"
                );
                assert_eq!(a.postings, b.postings, "postings, {at}");
                assert_eq!(a.term_max_tf, b.term_max_tf, "term_max_tf, {at}");
                assert_eq!(a.term_min_dl, b.term_min_dl, "term_min_dl, {at}");
                assert_eq!(a.doc_lens, b.doc_lens, "document lengths, {at}");
                assert_eq!(
                    one.avg_doc_len.to_bits(),
                    split.avg_doc_len.to_bits(),
                    "avg_doc_len, {at}"
                );
                assert_eq!(one.docs, split.docs, "{at}");
                assert_eq!(one.ordinals, split.ordinals, "{at}");
            }
        }
    }
}

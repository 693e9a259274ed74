//! The segmented index behind [`Searcher`]: per-shard base and delta segments, global
//! collection statistics, and incremental mutation.
//!
//! [`ShardedIndex::build`] partitions a corpus into `N` contiguous shards — one for a
//! corpus of the paper's scale — and copies each shard's documents straight into its
//! one [`InvertedIndex`]. Several shards build on one thread per shard. One shard
//! builds its documents in contiguous chunks on up to `available_parallelism()`
//! threads, none below a measured minimum size (see the [`index`](crate::index) module
//! docs), and merges them into exactly the index one thread would build, so a
//! one-shard build already uses every core and a small corpus never spawns a thread.
//! [`Searcher`] answers a query by merging per-segment top-k selections. The merged
//! ranking does not depend on `N`: it is bit-identical to dense scoring of one
//! unpartitioned index, which the sharding suite (`crates/retrieval/tests/sharding.rs`)
//! checks at 1, 2, 3, 7 and 16 shards.
//!
//! Two mechanisms make exactness possible:
//!
//! 1. **Global statistics.** BM25's `idf` and length normalisation depend on
//!    collection-level statistics (document count, per-term document frequencies,
//!    average document length). Each shard is therefore scored with the statistics of
//!    the *whole* corpus, so every per-document score is computed from exactly the
//!    same operands in exactly the same order as in an unpartitioned index.
//! 2. **Layout-free tie-breaking.** All rankings order by descending score under
//!    `f64::total_cmp` with ties broken by ascending document id (never by an
//!    index-local ordinal), so the ranking is a pure function of the `(document,
//!    score)` set. Each shard's local top-k necessarily contains every member of the
//!    global top-k that lives in that shard, which makes the merge exact rather than
//!    approximate.
//!
//! Queries run through the exact dynamic-pruning engine
//! ([`pruned_top_k`](crate::topk)): each segment is searched term-at-a-time with
//! admissible per-term upper bounds, tombstoned ordinals excluded at candidate
//! generation, and — because segments are visited in sequence — the running global
//! k-th best candidate score is handed to later segments as an initial pruning
//! threshold (a document scoring strictly below it cannot enter the merged top-k, so
//! skipping it is exact). Every emitted score is still produced by the shared
//! query-order rescoring kernel, preserving bit-identity with exhaustive scoring
//! ([`Searcher::try_search_exhaustive`], the differential oracle the pruning suite
//! compares against).
//!
//! ## The delta/compaction contract
//!
//! [`ShardedIndex`] is mutable: [`add`](ShardedIndex::add),
//! [`remove`](ShardedIndex::remove) and [`update`](ShardedIndex::update) change the
//! live document set without rebuilding the whole index. Each shard holds two
//! segments:
//!
//! * a **base** segment — the immutable index built at construction (or at the last
//!   compaction), with a set of *tombstoned* ordinals for documents removed since;
//! * a **delta** segment — a small index over the documents added since. Each segment
//!   owns the one copy of its documents, so a delta edit copies the delta's documents,
//!   edits the copy and rebuilds the delta from it (the delta holds at most 64
//!   documents, so re-analysing them is cheap and nothing caches their tokens).
//!
//! The global collection statistics (`num_docs` and the total analysed length, which
//! [`avg_doc_len`](ShardedIndex::avg_doc_len) divides when it is read, and per-term
//! `doc_freq`) are maintained **exactly** on every mutation: integer token counts are
//! added/subtracted (order-independent), and a tombstoned document is subtracted from
//! the document frequency of each distinct term it holds, counted per base term id.
//! Queries score every segment with these global stats and exclude tombstoned
//! ordinals from candidacy, so by the two mechanisms above the ranking and every
//! score are **bit-identical to a from-scratch [`ShardedIndex::build`]** of the
//! current live document set — at every version. The incremental-equivalence suite
//! (`crates/retrieval/tests/incremental.rs`) pins this across random interleavings of
//! mutations and compactions.
//!
//! **Compaction** merges a shard's live base documents and delta documents into a new
//! base segment and clears the tombstones. It is a pure layout change: scores,
//! rankings, statistics, the [`CorpusVersion`] and the fingerprint are all unchanged.
//! Compaction runs automatically when a shard's delta grows past a fixed bound or
//! tombstones outnumber half its base, and on demand via
//! [`compact`](ShardedIndex::compact).
//!
//! Every mutation increments the index's [`CorpusVersion`] (a fresh build is
//! version 1), so the version counts the index's own mutations since its build, and
//! maintains an order-independent content fingerprint.

use std::collections::{HashMap, HashSet};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread;

use crate::bm25::CollectionStats;
use crate::document::{Corpus, Document};
use crate::error::RetrievalError;
use crate::index::{chunk_count, for_each_document_term, partition_bounds, InvertedIndex};
use crate::retriever::{CorpusVersion, Retriever};
use crate::searcher::{RankedSource, Searcher};

/// A delta segment larger than this triggers automatic compaction of its shard.
const DELTA_COMPACT_LIMIT: usize = 64;

/// FNV-1a 64-bit offset basis / prime.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
    // Field separator so concatenation ambiguities cannot collide trivially.
    *hash ^= 0xff;
    *hash = hash.wrapping_mul(FNV_PRIME);
}

/// Content hash of one document (id, title, text and metadata fields).
pub fn document_fingerprint(doc: &Document) -> u64 {
    let mut hash = FNV_OFFSET;
    fnv1a(&mut hash, doc.id.as_bytes());
    fnv1a(&mut hash, doc.title.as_bytes());
    fnv1a(&mut hash, doc.text.as_bytes());
    for (key, value) in &doc.fields {
        fnv1a(&mut hash, key.as_bytes());
        fnv1a(&mut hash, value.as_bytes());
    }
    hash
}

/// Order-independent content fingerprint of a whole corpus: the wrapping sum of its
/// [`document_fingerprint`]s. Two corpora holding the same documents in any order
/// fingerprint identically; it is what [`CorpusVersion::fingerprint`] carries.
pub fn corpus_fingerprint(corpus: &Corpus) -> u64 {
    corpus
        .iter()
        .fold(0u64, |acc, doc| acc.wrapping_add(document_fingerprint(doc)))
}

/// One shard: an immutable base segment with tombstones plus a small delta segment of
/// documents added since the last compaction (see the
/// [delta/compaction contract](self)).
#[derive(Debug, Clone)]
struct Shard {
    base: InvertedIndex,
    /// Tombstoned *ordinals* of the base segment. Ordinal-level (not id-level)
    /// tombstones mean a removed-then-re-added id can never resurrect old content.
    dead: HashSet<u32>,
    /// Per base term id: how many tombstoned base documents contain the term — the
    /// exact correction applied to the base segment's document frequencies.
    dead_doc_freqs: HashMap<u32, usize>,
    /// The documents added since the last compaction, rebuilt on each edit.
    delta: InvertedIndex,
}

impl Shard {
    fn new(base: InvertedIndex) -> Self {
        Self {
            base,
            dead: HashSet::new(),
            dead_doc_freqs: HashMap::new(),
            delta: InvertedIndex::build_in_chunks(Vec::new(), 1),
        }
    }

    /// Live documents in this shard (base minus tombstones, plus delta).
    fn live_docs(&self) -> usize {
        self.base.num_docs() - self.dead.len() + self.delta.num_docs()
    }

    /// Exact live document frequency of a term within this shard.
    fn doc_freq(&self, term: &str) -> usize {
        let base = self.base.term_id(term).map_or(0, |id| {
            self.base.postings_by_id(id).len() - self.dead_doc_freqs.get(&id).copied().unwrap_or(0)
        });
        base + self.delta.doc_freq(term)
    }

    /// Edit a copy of the delta's documents and rebuild the delta from it: at most
    /// [`DELTA_COMPACT_LIMIT`] documents, so the rebuild stays on the calling thread.
    fn edit_delta<R>(&mut self, edit: impl FnOnce(&mut Vec<Document>) -> R) -> R {
        let mut docs = self.delta.documents().to_vec();
        let edited = edit(&mut docs);
        self.delta = InvertedIndex::build_in_chunks(docs, 1);
        edited
    }

    /// Tombstone a live base ordinal: each distinct term of its document counts once
    /// more against the base document frequencies. Returns a copy of the document.
    fn tombstone(&mut self, ordinal: u32) -> Document {
        let doc = self
            .base
            .document(ordinal)
            .expect("ordinal in range")
            .clone();
        let mut term_ids = Vec::new();
        for_each_document_term(&doc, &mut String::new(), |term| {
            term_ids.push(
                self.base
                    .term_id(term)
                    .expect("an indexed term is in the dictionary"),
            );
        });
        term_ids.sort_unstable();
        term_ids.dedup();
        for id in term_ids {
            *self.dead_doc_freqs.entry(id).or_insert(0) += 1;
        }
        self.dead.insert(ordinal);
        doc
    }

    /// Whether this shard's pending state warrants folding into a new base segment.
    fn wants_compaction(&self) -> bool {
        self.delta.num_docs() >= DELTA_COMPACT_LIMIT || self.dead.len() * 2 > self.base.num_docs()
    }

    /// Merge live base documents and delta documents into a fresh base segment; a
    /// pure layout change (no statistic, version or fingerprint moves).
    fn compact(&mut self) {
        if self.dead.is_empty() && self.delta.num_docs() == 0 {
            return;
        }
        let live_base = (0u32..)
            .zip(self.base.documents())
            .filter(|(ordinal, _)| !self.dead.contains(ordinal))
            .map(|(_, doc)| doc);
        let docs: Vec<Document> = live_base.chain(self.delta.documents()).cloned().collect();
        let chunks = chunk_count(docs.len());
        *self = Self::new(InvertedIndex::build_in_chunks(docs, chunks));
    }
}

/// A corpus partitioned into per-shard segmented indexes plus the global collection
/// statistics needed to score each shard exactly as part of the whole.
///
/// The index is mutable — see the [delta/compaction contract](self) for how
/// [`add`](Self::add)/[`remove`](Self::remove)/[`update`](Self::update) keep every
/// score bit-identical to a from-scratch rebuild while the [`CorpusVersion`] tracks
/// each mutation.
#[derive(Debug, Clone)]
pub struct ShardedIndex {
    shards: Vec<Shard>,
    num_docs: usize,
    total_len: u64,
    version: u64,
    fingerprint: u64,
}

impl ShardedIndex {
    /// Partition a corpus into `num_shards` contiguous shards and index each, copying
    /// its documents straight into its index.
    ///
    /// Shard sizes are balanced (they differ by at most one document); when
    /// `num_shards` exceeds the corpus size the trailing shards are simply empty. One
    /// shard builds in chunks across cores (see the [module docs](self)); several
    /// shards build on one scoped thread each, collected in shard order, so the index
    /// does not depend on scheduling.
    ///
    /// # Panics
    /// If `num_shards` is zero.
    pub fn build(corpus: &Corpus, num_shards: usize) -> Self {
        assert!(num_shards >= 1, "at least one shard required");
        let docs = corpus.documents();
        let bounds = partition_bounds(docs.len(), num_shards);
        let build_one = |(start, end): (usize, usize), chunks: usize| {
            InvertedIndex::build_in_chunks(docs[start..end].to_vec(), chunks)
        };

        let indexes: Vec<InvertedIndex> = if num_shards == 1 {
            vec![build_one(bounds[0], chunk_count(docs.len()))]
        } else {
            thread::scope(|scope| {
                let build_one = &build_one;
                let handles: Vec<_> = bounds
                    .iter()
                    .map(|&b| scope.spawn(move || build_one(b, 1)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard index build panicked"))
                    .collect()
            })
        };

        // Summing integer token counts is order-independent, so the average equals an
        // unpartitioned index's bit for bit.
        let total_len = indexes
            .iter()
            .flat_map(|index| (0..index.num_docs()).map(|o| u64::from(index.doc_len(o as u32))))
            .sum();
        Self {
            shards: indexes.into_iter().map(Shard::new).collect(),
            num_docs: docs.len(),
            total_len,
            version: 1,
            fingerprint: corpus_fingerprint(corpus),
        }
    }

    /// Number of shards (including empty ones).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total number of live documents across all shards.
    pub fn num_docs(&self) -> usize {
        self.num_docs
    }

    /// Global average analysed document length (identical to an unpartitioned index's).
    pub fn avg_doc_len(&self) -> f64 {
        if self.num_docs == 0 {
            0.0
        } else {
            self.total_len as f64 / self.num_docs as f64
        }
    }

    /// Live documents per shard, in shard order.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.live_docs()).collect()
    }

    /// Global document frequency of an analysed term over live documents.
    pub fn doc_freq(&self, term: &str) -> usize {
        self.shards.iter().map(|s| s.doc_freq(term)).sum()
    }

    /// The current corpus identity: mutation counter plus content fingerprint.
    pub fn corpus_version(&self) -> CorpusVersion {
        CorpusVersion {
            version: self.version,
            fingerprint: self.fingerprint,
        }
    }

    /// Whether a live document with this id exists.
    pub fn contains(&self, doc_id: &str) -> bool {
        self.locate(doc_id).is_some()
    }

    /// Add a new document. Fails with [`RetrievalError::DuplicateDocumentId`] when a
    /// live document with the same id exists; increments the version on success.
    pub fn add(&mut self, doc: Document) -> Result<(), RetrievalError> {
        if self.contains(&doc.id) {
            return Err(RetrievalError::DuplicateDocumentId(doc.id));
        }
        self.add_internal(doc);
        self.version += 1;
        Ok(())
    }

    /// Remove a live document by id, returning it. Fails with
    /// [`RetrievalError::UnknownDocument`] when absent; increments the version on
    /// success.
    pub fn remove(&mut self, doc_id: &str) -> Result<Document, RetrievalError> {
        let doc = self.remove_internal(doc_id)?;
        self.version += 1;
        Ok(doc)
    }

    /// Replace the live document carrying `doc.id` with `doc`, returning the previous
    /// version. Fails with [`RetrievalError::UnknownDocument`] when absent; counts as
    /// one mutation (the version increments once).
    pub fn update(&mut self, doc: Document) -> Result<Document, RetrievalError> {
        let old = self.remove_internal(&doc.id)?;
        self.add_internal(doc);
        self.version += 1;
        Ok(old)
    }

    /// Compact every shard (see the [delta/compaction contract](self)). Scores,
    /// statistics, version and fingerprint are unchanged — only the layout moves.
    pub fn compact(&mut self) {
        for shard in &mut self.shards {
            shard.compact();
        }
    }

    fn add_internal(&mut self, doc: Document) {
        self.fingerprint = self.fingerprint.wrapping_add(document_fingerprint(&doc));
        let target = (0..self.shards.len())
            .min_by_key(|&s| (self.shards[s].live_docs(), s))
            .expect("at least one shard");
        let shard = &mut self.shards[target];
        shard.edit_delta(|docs| docs.push(doc));
        // The new document is the delta's last; its analysed length feeds the global
        // statistics.
        let len = u64::from(shard.delta.doc_len(shard.delta.num_docs() as u32 - 1));
        self.num_docs += 1;
        self.total_len += len;
        if self.shards[target].wants_compaction() {
            self.shards[target].compact();
        }
    }

    fn remove_internal(&mut self, doc_id: &str) -> Result<Document, RetrievalError> {
        for s in 0..self.shards.len() {
            let shard = &mut self.shards[s];
            // The live copy may sit in the delta segment, or in the base segment, where
            // removal is a tombstone plus an exact correction of the per-term document
            // frequencies it contributed to.
            let (doc, len) = if let Some(ordinal) = shard.delta.ordinal_of(doc_id) {
                let len = shard.delta.doc_len(ordinal);
                (shard.edit_delta(|docs| docs.remove(ordinal as usize)), len)
            } else if let Some(ordinal) = shard
                .base
                .ordinal_of(doc_id)
                .filter(|ordinal| !shard.dead.contains(ordinal))
            {
                (shard.tombstone(ordinal), shard.base.doc_len(ordinal))
            } else {
                // Absent here, or tombstoned here with any live copy elsewhere.
                continue;
            };
            self.fingerprint = self.fingerprint.wrapping_sub(document_fingerprint(&doc));
            self.num_docs -= 1;
            self.total_len -= u64::from(len);
            if self.shards[s].wants_compaction() {
                self.shards[s].compact();
            }
            return Ok(doc);
        }
        Err(RetrievalError::UnknownDocument(doc_id.to_string()))
    }

    /// Global document frequencies for a whole query, parallel to `terms`.
    pub(crate) fn doc_freqs(&self, terms: &[String]) -> Vec<usize> {
        terms.iter().map(|t| self.doc_freq(t)).collect()
    }

    /// The global collection statistics every segment must be scored with. Every
    /// query path of [`Searcher`] assembles its stats here, so the bit-identity
    /// contract has a single implementation to keep correct.
    pub(crate) fn stats<'a>(&self, doc_freqs: &'a [usize]) -> CollectionStats<'a> {
        CollectionStats {
            num_docs: self.num_docs,
            avg_doc_len: self.avg_doc_len(),
            doc_freqs,
        }
    }

    /// Every non-empty segment in shard order, each shard's base (with its tombstoned
    /// ordinals, if any) before its delta.
    pub(crate) fn segments(
        &self,
    ) -> impl Iterator<Item = (&InvertedIndex, Option<&HashSet<u32>>)> + '_ {
        self.shards
            .iter()
            .flat_map(|shard| {
                let dead = (!shard.dead.is_empty()).then_some(&shard.dead);
                [(&shard.base, dead), (&shard.delta, None)]
            })
            .filter(|(segment, _)| segment.num_docs() > 0)
    }

    /// Find the segment holding the *live* copy of a document id, with the document's
    /// segment-local ordinal. Tombstoned base entries never match.
    pub(crate) fn locate(&self, doc_id: &str) -> Option<(&InvertedIndex, u32)> {
        for shard in &self.shards {
            if let Some(local) = shard.delta.ordinal_of(doc_id) {
                return Some((&shard.delta, local));
            }
            if let Some(local) = shard.base.ordinal_of(doc_id) {
                if !shard.dead.contains(&local) {
                    return Some((&shard.base, local));
                }
            }
        }
        None
    }
}

/// A thread-safe, mutable retrieval backend: a [`Searcher`] behind a `RwLock`.
///
/// Queries take a read lock (and so run concurrently); mutations take the write lock
/// and apply incrementally through the [delta/compaction contract](self). A pipeline
/// holding an `Arc<LiveSearcher>` observes every mutation on its next query — no
/// rebuild, no re-wiring. Its [`CorpusVersion`] counts the mutations applied to this
/// searcher since it was built; a caller that numbers corpus states across several
/// searchers keeps its own counter.
#[derive(Debug)]
pub struct LiveSearcher {
    inner: RwLock<Searcher>,
}

impl LiveSearcher {
    /// Wrap an existing searcher.
    pub fn new(searcher: Searcher) -> Self {
        Self {
            inner: RwLock::new(searcher),
        }
    }

    /// Partition, index and wrap a corpus in one step with defaults.
    pub fn from_corpus(corpus: &Corpus, num_shards: usize) -> Self {
        Self::new(Searcher::from_corpus(corpus, num_shards))
    }

    fn read(&self) -> RwLockReadGuard<'_, Searcher> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, Searcher> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Add a new document; returns the new corpus version. Fails with
    /// [`RetrievalError::DuplicateDocumentId`] when the id is already live.
    pub fn add(&self, doc: Document) -> Result<CorpusVersion, RetrievalError> {
        let mut inner = self.write();
        inner.index_mut().add(doc)?;
        Ok(inner.index().corpus_version())
    }

    /// Remove a live document by id; returns it with the new corpus version. Fails
    /// with [`RetrievalError::UnknownDocument`] when absent.
    pub fn remove(&self, doc_id: &str) -> Result<(Document, CorpusVersion), RetrievalError> {
        let mut inner = self.write();
        let doc = inner.index_mut().remove(doc_id)?;
        Ok((doc, inner.index().corpus_version()))
    }

    /// Replace the live document carrying `doc.id`; returns the previous version of
    /// the document with the new corpus version. Fails with
    /// [`RetrievalError::UnknownDocument`] when absent.
    pub fn update(&self, doc: Document) -> Result<(Document, CorpusVersion), RetrievalError> {
        let mut inner = self.write();
        let old = inner.index_mut().update(doc)?;
        Ok((old, inner.index().corpus_version()))
    }

    /// Update the document if its id is live, add it otherwise; one mutation either
    /// way. Returns the new corpus version.
    pub fn upsert(&self, doc: Document) -> Result<CorpusVersion, RetrievalError> {
        let mut inner = self.write();
        if inner.index().contains(&doc.id) {
            inner.index_mut().update(doc)?;
        } else {
            inner.index_mut().add(doc)?;
        }
        Ok(inner.index().corpus_version())
    }

    /// Compact every shard (a pure layout change; the version does not move).
    pub fn compact(&self) {
        self.write().index_mut().compact();
    }

    /// The current corpus identity.
    pub fn version(&self) -> CorpusVersion {
        self.read().index().corpus_version()
    }
}

impl Retriever for LiveSearcher {
    fn try_search(&self, query: &str, k: usize) -> Result<Vec<RankedSource>, RetrievalError> {
        self.read().try_search(query, k)
    }

    fn search(&self, query: &str, k: usize) -> Vec<RankedSource> {
        self.read().search(query, k)
    }

    fn score_document(&self, query: &str, doc_id: &str) -> Result<f64, RetrievalError> {
        self.read().score_document(query, doc_id)
    }

    fn num_docs(&self) -> usize {
        self.read().index().num_docs()
    }

    fn corpus_version(&self) -> Option<CorpusVersion> {
        Some(self.read().index().corpus_version())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bm25::score_all;
    use crate::tokenize::analyze;

    fn corpus() -> Corpus {
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
        corpus
    }

    /// The unpartitioned dense reference's score vector, in corpus order:
    /// `bm25::score_all` over one index of the whole corpus.
    fn reference_scores(corpus: &Corpus, query: &str) -> Vec<f64> {
        let index = InvertedIndex::build(corpus);
        score_all(&index, &analyze(query))
    }

    /// The reference ranking: positive dense scores only, fully sorted by descending
    /// score (`total_cmp`) then ascending id, truncated to `k`.
    fn reference(corpus: &Corpus, query: &str, k: usize) -> Vec<RankedSource> {
        let scores = reference_scores(corpus, query);
        let mut hits: Vec<(f64, &Document)> = scores
            .into_iter()
            .zip(corpus.iter())
            .filter(|(score, _)| *score > 0.0)
            .collect();
        hits.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.id.cmp(&b.1.id)));
        hits.truncate(k);
        hits.into_iter()
            .enumerate()
            .map(|(rank, (score, doc))| RankedSource {
                doc_id: doc.id.clone(),
                rank,
                score,
                document: doc.clone(),
            })
            .collect()
    }

    fn assert_same_hits(expected: &[RankedSource], got: &[RankedSource]) {
        assert_eq!(expected.len(), got.len());
        for (a, b) in expected.iter().zip(got) {
            assert_eq!(a.doc_id, b.doc_id);
            assert_eq!(a.rank, b.rank);
            assert_eq!(
                a.score.to_bits(),
                b.score.to_bits(),
                "score drift on {}",
                a.doc_id
            );
            assert_eq!(a.document, b.document);
        }
    }

    #[test]
    fn matches_single_index_for_every_shard_count() {
        let corpus = corpus();
        for shards in [1, 2, 3, 7, 16] {
            let sharded = Searcher::from_corpus(&corpus, shards);
            for query in [
                "grand slam titles",
                "djokovic federer nadal titles wins",
                "pasta",
            ] {
                for k in [1, 2, 5, 10] {
                    assert_same_hits(&reference(&corpus, query, k), &sharded.search(query, k));
                }
            }
        }
    }

    #[test]
    fn partition_is_balanced_and_complete() {
        assert_eq!(partition_bounds(5, 2), vec![(0, 3), (3, 5)]);
        assert_eq!(partition_bounds(6, 3), vec![(0, 2), (2, 4), (4, 6)]);
        assert_eq!(partition_bounds(2, 4), vec![(0, 1), (1, 2), (2, 2), (2, 2)]);
        assert_eq!(partition_bounds(0, 3), vec![(0, 0), (0, 0), (0, 0)]);
    }

    #[test]
    fn empty_shards_are_harmless() {
        let corpus = corpus();
        let sharded = Searcher::from_corpus(&corpus, 9);
        assert_eq!(sharded.index().num_shards(), 9);
        assert!(sharded.index().shard_sizes().contains(&0));
        let hits = sharded.search("grand slam titles", 3);
        assert_eq!(hits[0].doc_id, "slams");
    }

    #[test]
    fn global_stats_match_single_index() {
        let corpus = corpus();
        let single = InvertedIndex::build(&corpus);
        let sharded = ShardedIndex::build(&corpus, 3);
        assert_eq!(sharded.num_docs(), single.num_docs());
        assert_eq!(
            sharded.avg_doc_len().to_bits(),
            single.avg_doc_len().to_bits()
        );
        for term in ["djokovic", "titl", "most", "absent"] {
            assert_eq!(sharded.doc_freq(term), single.doc_freq(term), "{term}");
        }
    }

    #[test]
    fn score_document_matches_single_index_bitwise() {
        let corpus = corpus();
        let query = "most grand slam titles";
        let dense = reference_scores(&corpus, query);
        let sharded = Searcher::from_corpus(&corpus, 4);
        for (doc, expected) in corpus.iter().zip(&dense) {
            let got = sharded.score_document(query, &doc.id).unwrap();
            assert_eq!(got.to_bits(), expected.to_bits(), "{}", doc.id);
        }
        assert!(matches!(
            sharded.score_document("titles", "nope"),
            Err(RetrievalError::UnknownDocument(_))
        ));
        assert!(matches!(
            sharded.score_document("", "wins"),
            Err(RetrievalError::EmptyQuery)
        ));
    }

    #[test]
    fn empty_query_and_empty_corpus() {
        let sharded = Searcher::from_corpus(&corpus(), 2);
        assert!(matches!(
            sharded.try_search("the of and", 3),
            Err(RetrievalError::EmptyQuery)
        ));
        assert!(sharded.search("anything", 0).is_empty());
        let empty = Searcher::from_corpus(&Corpus::new(), 4);
        assert!(empty.search("anything", 5).is_empty());
        assert_eq!(empty.index().num_docs(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        ShardedIndex::build(&corpus(), 0);
    }

    #[test]
    fn mutations_match_a_fresh_rebuild() {
        let mut index = ShardedIndex::build(&corpus(), 3);
        index
            .add(Document::new(
                "doubles",
                "Doubles",
                "The Bryan brothers dominated doubles for a decade",
            ))
            .unwrap();
        index.remove("cooking").unwrap();
        index
            .update(Document::new(
                "clay",
                "Clay courts",
                "Rafael Nadal won a record fourteenth French Open title on clay",
            ))
            .unwrap();

        let mut mirror = corpus();
        mirror.push(Document::new(
            "doubles",
            "Doubles",
            "The Bryan brothers dominated doubles for a decade",
        ));
        mirror.remove("cooking").unwrap();
        mirror
            .replace(Document::new(
                "clay",
                "Clay courts",
                "Rafael Nadal won a record fourteenth French Open title on clay",
            ))
            .unwrap();

        let live = Searcher::new(index.clone());
        let rebuilt = Searcher::new(ShardedIndex::build(&mirror, 3));
        assert_same_hits(
            &live.search("french open clay titles", 5),
            &rebuilt.search("french open clay titles", 5),
        );
        assert_eq!(
            live.index().avg_doc_len().to_bits(),
            rebuilt.index().avg_doc_len().to_bits()
        );
        assert_eq!(
            live.index().corpus_version().fingerprint,
            rebuilt.index().corpus_version().fingerprint
        );

        // Compaction changes layout only.
        index.compact();
        let compacted = Searcher::new(index);
        assert_same_hits(
            &compacted.search("french open clay titles", 5),
            &rebuilt.search("french open clay titles", 5),
        );
    }

    #[test]
    fn pruned_matches_exhaustive_through_mutations() {
        // The production (pruned) path and the dense oracle must agree bit-for-bit at
        // every mutation step — including with tombstones in the base segments and
        // live delta segments. The full property suite lives in tests/pruning.rs;
        // this pins the wiring.
        let mut searcher = Searcher::from_corpus(&corpus(), 3);
        let queries = [
            "grand slam titles",
            "djokovic federer nadal titles wins",
            "pasta",
            "most most most weeks", // duplicate terms exercise repeat accumulation
        ];
        let check = |s: &Searcher| {
            for query in queries {
                for k in [1, 2, 3, 10] {
                    let pruned = s.try_search(query, k).unwrap();
                    let oracle = s.try_search_exhaustive(query, k).unwrap();
                    assert_same_hits(&oracle, &pruned);
                }
            }
        };
        check(&searcher);
        searcher
            .index_mut()
            .add(Document::new(
                "doubles",
                "Doubles",
                "The Bryan brothers dominated doubles grand slam draws",
            ))
            .unwrap();
        check(&searcher);
        searcher.index_mut().remove("weeks").unwrap();
        check(&searcher);
        searcher
            .index_mut()
            .update(Document::new(
                "clay",
                "Clay",
                "Nadal took a fourteenth French Open title on clay",
            ))
            .unwrap();
        check(&searcher);
        searcher.index_mut().compact();
        check(&searcher);
    }

    #[test]
    fn duplicate_add_and_unknown_removal_are_typed_errors() {
        let mut index = ShardedIndex::build(&corpus(), 2);
        assert!(matches!(
            index.add(Document::new("slams", "", "dup")),
            Err(RetrievalError::DuplicateDocumentId(_))
        ));
        assert!(matches!(
            index.remove("ghost"),
            Err(RetrievalError::UnknownDocument(_))
        ));
        assert!(matches!(
            index.update(Document::new("ghost", "", "x")),
            Err(RetrievalError::UnknownDocument(_))
        ));
        // Failed mutations never move the version.
        assert_eq!(index.corpus_version().version, 1);
    }

    #[test]
    fn version_counts_mutations_and_compaction_is_free() {
        let mut index = ShardedIndex::build(&corpus(), 2);
        assert_eq!(index.corpus_version().version, 1);
        index
            .add(Document::new("extra", "", "one more doc"))
            .unwrap();
        assert_eq!(index.corpus_version().version, 2);
        index.remove("extra").unwrap();
        assert_eq!(index.corpus_version().version, 3);
        index
            .update(Document::new("wins", "Match wins", "Federer match wins"))
            .unwrap();
        assert_eq!(index.corpus_version().version, 4);
        let before = index.corpus_version();
        index.compact();
        assert_eq!(index.corpus_version(), before);
    }

    #[test]
    fn removed_then_readded_id_serves_the_new_content() {
        let mut index = ShardedIndex::build(&corpus(), 2);
        index.remove("weeks").unwrap();
        index
            .add(Document::new(
                "weeks",
                "Weeks",
                "A completely different text",
            ))
            .unwrap();
        let searcher = Searcher::new(index);
        let score = searcher
            .score_document("completely different", "weeks")
            .unwrap();
        assert!(score > 0.0);
        let hits = searcher.search("djokovic ranked number one", 5);
        assert!(hits.iter().all(|h| h.doc_id != "weeks"));
    }

    #[test]
    fn fingerprint_is_order_independent() {
        let forward = corpus_fingerprint(&corpus());
        let mut reversed = Corpus::new();
        for doc in corpus().documents().iter().rev() {
            reversed.push(doc.clone());
        }
        assert_eq!(forward, corpus_fingerprint(&reversed));
        assert_ne!(forward, corpus_fingerprint(&Corpus::new()));
    }

    #[test]
    fn live_searcher_mutates_through_shared_references() {
        let live = std::sync::Arc::new(LiveSearcher::from_corpus(&corpus(), 3));
        let retriever: Box<dyn Retriever> = Box::new(std::sync::Arc::clone(&live));
        assert_eq!(retriever.corpus_version().unwrap().version, 1);
        assert_eq!(retriever.num_docs(), 5);

        let version = live
            .add(Document::new("extra", "", "brand new document text"))
            .unwrap();
        assert_eq!(version.version, 2);
        // The pipeline-side handle observes the mutation immediately.
        assert_eq!(retriever.num_docs(), 6);
        assert_eq!(retriever.corpus_version().unwrap().version, 2);
        assert!(retriever.score_document("brand new", "extra").unwrap() > 0.0);

        let (doc, version) = live.remove("extra").unwrap();
        assert_eq!(doc.id, "extra");
        assert_eq!(version.version, 3);
        assert!(matches!(
            retriever.score_document("brand new", "extra"),
            Err(RetrievalError::UnknownDocument(_))
        ));

        live.upsert(Document::new("upserted", "", "inserted fresh"))
            .unwrap();
        let (old, _) = live
            .update(Document::new("upserted", "", "replaced body"))
            .unwrap();
        assert_eq!(old.text, "inserted fresh");
        live.upsert(Document::new("upserted", "", "replaced again"))
            .unwrap();
        assert_eq!(live.version().version, 6);
        live.compact();
        assert_eq!(live.version().version, 6);
    }
}

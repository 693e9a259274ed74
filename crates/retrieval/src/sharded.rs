//! The segmented index behind [`Searcher`]: per-shard base and delta segments, global
//! collection statistics, and incremental mutation.
//!
//! [`ShardedIndex`] partitions a corpus into `N` contiguous shards — one for a corpus
//! of the paper's scale — and builds one [`InvertedIndex`] per shard, on one thread per
//! shard. [`Searcher`] answers a query by merging per-segment top-k selections. The
//! merged ranking does not depend on `N`: it is bit-identical to dense scoring of one
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
//! query-order rescoring kernel, preserving bit-identity; parameter settings outside
//! the bounds' admissibility envelope fall back to exhaustive scoring
//! ([`Searcher::try_search_exhaustive`], which is also the differential oracle the
//! pruning suite compares against).
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
//! * a **delta** segment — a small index over the documents added since, rebuilt on
//!   each mutation (the delta is bounded, so this is cheap).
//!
//! The global collection statistics (`num_docs`, total analysed length and therefore
//! `avg_doc_len`, per-term `doc_freq`) are maintained **exactly** on every mutation:
//! integer token counts are added/subtracted (order-independent), and tombstoned
//! documents are subtracted from the per-term document frequencies they contributed
//! to. Queries score every segment with these global stats and exclude tombstoned
//! ordinals from candidacy, so by the two mechanisms above the ranking and every
//! score are **bit-identical to a from-scratch [`ShardedIndexBuilder::build`]** of the
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
//! version 1) and maintains an order-independent content fingerprint; downstream
//! caches key on the version to invalidate stale results.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread;

use crate::bm25::CollectionStats;
use crate::document::{Corpus, Document};
use crate::error::RetrievalError;
use crate::index::{IndexBuilder, InvertedIndex};
use crate::retriever::{CorpusVersion, Retriever};
use crate::searcher::{RankedSource, Searcher};
use crate::tokenize::Tokenizer;

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

/// Builder for [`ShardedIndex`]: how many shards and which tokenizer.
#[derive(Debug, Clone)]
pub struct ShardedIndexBuilder {
    tokenizer: Tokenizer,
    num_shards: usize,
}

impl ShardedIndexBuilder {
    /// Create a builder that partitions corpora into `num_shards` contiguous shards.
    ///
    /// Shard sizes are balanced (they differ by at most one document); when
    /// `num_shards` exceeds the corpus size the trailing shards are simply empty.
    ///
    /// # Panics
    /// If `num_shards` is zero.
    pub fn new(num_shards: usize) -> Self {
        assert!(num_shards >= 1, "at least one shard required");
        Self {
            tokenizer: Tokenizer::default(),
            num_shards,
        }
    }

    /// Use a custom tokenizer for analysis (all shards share it).
    pub fn with_tokenizer(mut self, tokenizer: Tokenizer) -> Self {
        self.tokenizer = tokenizer;
        self
    }

    /// Analyse and index every document of the corpus, one index per shard. Several
    /// shards build on one scoped thread each, collected in shard order, so the index
    /// does not depend on scheduling.
    pub fn build(&self, corpus: &Corpus) -> ShardedIndex {
        let docs = corpus.documents();
        let bounds = partition_bounds(docs.len(), self.num_shards);
        let index_builder = IndexBuilder::default().with_tokenizer(self.tokenizer.clone());

        // Each shard's documents are copied once, into the shard corpus that then
        // moves into its index.
        let build_one = |(start, end): (usize, usize)| -> InvertedIndex {
            let shard_docs = &docs[start..end];
            let analysed: Vec<Vec<String>> = shard_docs
                .iter()
                .map(|doc| self.tokenizer.tokenize(&doc.full_text()))
                .collect();
            let shard =
                Corpus::from_documents(shard_docs.to_vec()).expect("parent corpus ids are unique");
            index_builder.build_analysed(shard, &analysed)
        };

        let indexes: Vec<InvertedIndex> = if self.num_shards == 1 {
            vec![build_one(bounds[0])]
        } else {
            thread::scope(|scope| {
                let build_one = &build_one;
                let handles: Vec<_> = bounds
                    .iter()
                    .map(|&b| scope.spawn(move || build_one(b)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard index build panicked"))
                    .collect()
            })
        };

        // Exact global statistics: summing integer token counts is order-independent,
        // so the average equals an unpartitioned index's bit-for-bit.
        let num_docs = docs.len();
        let total_len: u64 = indexes
            .iter()
            .flat_map(|index| (0..index.num_docs()).map(|o| u64::from(index.doc_len(o as u32))))
            .sum();
        let avg_doc_len = if num_docs == 0 {
            0.0
        } else {
            total_len as f64 / num_docs as f64
        };

        let empty_delta = index_builder.build(&Corpus::new());
        let shards = indexes
            .into_iter()
            .map(|base| Shard {
                base,
                dead: HashSet::new(),
                dead_terms: HashMap::new(),
                delta_docs: Vec::new(),
                delta_tokens: Vec::new(),
                delta: empty_delta.clone(),
            })
            .collect();

        ShardedIndex {
            shards,
            num_docs,
            total_len,
            avg_doc_len,
            tokenizer: self.tokenizer.clone(),
            version: 1,
            fingerprint: corpus_fingerprint(corpus),
        }
    }
}

/// Balanced contiguous partition of `n` documents into `shards` ranges.
fn partition_bounds(n: usize, shards: usize) -> Vec<(usize, usize)> {
    let base = n / shards;
    let remainder = n % shards;
    let mut bounds = Vec::with_capacity(shards);
    let mut start = 0;
    for s in 0..shards {
        let len = base + usize::from(s < remainder);
        bounds.push((start, start + len));
        start += len;
    }
    bounds
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
    /// Per-term count of tombstoned base documents containing the term — the exact
    /// correction applied to the base segment's document frequencies.
    dead_terms: HashMap<String, usize>,
    /// The live documents of the delta segment, in insertion order.
    delta_docs: Vec<Document>,
    /// Cached analysed token streams, parallel to `delta_docs`. Analysis is
    /// deterministic, so re-indexing from the cache is bit-identical to re-analysing —
    /// it just spares every rebuild a full tokenizer pass over the whole delta.
    delta_tokens: Vec<Vec<String>>,
    /// Index over `delta_docs`, rebuilt on each mutation of this shard.
    delta: InvertedIndex,
}

impl Shard {
    /// Live documents in this shard (base minus tombstones, plus delta).
    fn live_docs(&self) -> usize {
        self.base.num_docs() - self.dead.len() + self.delta.num_docs()
    }

    /// Exact live document frequency of a term within this shard.
    fn doc_freq(&self, term: &str) -> usize {
        self.base.doc_freq(term) - self.dead_terms.get(term).copied().unwrap_or(0)
            + self.delta.doc_freq(term)
    }

    fn rebuild_delta(&mut self, builder: &IndexBuilder) {
        let corpus =
            Corpus::from_documents(self.delta_docs.clone()).expect("delta document ids are unique");
        self.delta = builder.build_analysed(corpus, &self.delta_tokens);
    }

    /// Whether this shard's pending state warrants folding into a new base segment.
    fn wants_compaction(&self) -> bool {
        self.delta_docs.len() >= DELTA_COMPACT_LIMIT || self.dead.len() * 2 > self.base.num_docs()
    }

    /// Merge live base documents and delta documents into a fresh base segment; a
    /// pure layout change (no statistic, version or fingerprint moves).
    fn compact(&mut self, builder: &IndexBuilder) {
        if self.dead.is_empty() && self.delta_docs.is_empty() {
            return;
        }
        let mut docs: Vec<Document> = (0..self.base.num_docs() as u32)
            .filter(|ordinal| !self.dead.contains(ordinal))
            .map(|ordinal| {
                self.base
                    .document(ordinal)
                    .expect("ordinal in range")
                    .clone()
            })
            .collect();
        docs.append(&mut self.delta_docs);
        self.delta_tokens.clear();
        let corpus = Corpus::from_documents(docs).expect("live ids are unique");
        self.base = builder.build(&corpus);
        self.dead.clear();
        self.dead_terms.clear();
        self.delta = builder.build(&Corpus::new());
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
    avg_doc_len: f64,
    tokenizer: Tokenizer,
    version: u64,
    fingerprint: u64,
}

impl ShardedIndex {
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
        self.avg_doc_len
    }

    /// Live documents per shard, in shard order.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.live_docs()).collect()
    }

    /// The tokenizer shared by every shard (queries must use the same one).
    pub fn tokenizer(&self) -> &Tokenizer {
        &self.tokenizer
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

    /// Override the version counter (the fingerprint is content-derived and cannot be
    /// set). Services holding one authoritative version per corpus use this to align
    /// a freshly built index with the corpus's true mutation count.
    pub fn set_version(&mut self, version: u64) {
        self.version = version;
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
        let builder = self.index_builder();
        for shard in &mut self.shards {
            shard.compact(&builder);
        }
    }

    fn index_builder(&self) -> IndexBuilder {
        IndexBuilder::default().with_tokenizer(self.tokenizer.clone())
    }

    fn recompute_avg(&mut self) {
        self.avg_doc_len = if self.num_docs == 0 {
            0.0
        } else {
            self.total_len as f64 / self.num_docs as f64
        };
    }

    fn add_internal(&mut self, doc: Document) {
        // Analyse exactly once: the token stream feeds both the global length
        // statistics and (via the shard's token cache) every delta rebuild.
        let tokens = self.tokenizer.tokenize(&doc.full_text());
        let len = tokens.len() as u64;
        self.fingerprint = self.fingerprint.wrapping_add(document_fingerprint(&doc));
        let target = (0..self.shards.len())
            .min_by_key(|&s| (self.shards[s].live_docs(), s))
            .expect("at least one shard");
        let builder = self.index_builder();
        let shard = &mut self.shards[target];
        shard.delta_docs.push(doc);
        shard.delta_tokens.push(tokens);
        shard.rebuild_delta(&builder);
        self.num_docs += 1;
        self.total_len += len;
        self.recompute_avg();
        if self.shards[target].wants_compaction() {
            self.shards[target].compact(&builder);
        }
    }

    fn remove_internal(&mut self, doc_id: &str) -> Result<Document, RetrievalError> {
        let builder = self.index_builder();
        for s in 0..self.shards.len() {
            // The live copy may sit in the delta segment...
            if let Some(pos) = self.shards[s]
                .delta_docs
                .iter()
                .position(|d| d.id == doc_id)
            {
                let shard = &mut self.shards[s];
                let ordinal = shard
                    .delta
                    .ordinal_of(doc_id)
                    .expect("delta index mirrors delta_docs");
                let len = u64::from(shard.delta.doc_len(ordinal));
                let doc = shard.delta_docs.remove(pos);
                shard.delta_tokens.remove(pos);
                shard.rebuild_delta(&builder);
                self.finish_removal(&doc, len);
                return Ok(doc);
            }
            // ...or in the base segment, where removal is a tombstone plus an exact
            // correction of the per-term document frequencies it contributed to.
            if let Some(ordinal) = self.shards[s].base.ordinal_of(doc_id) {
                if !self.shards[s].dead.contains(&ordinal) {
                    let shard = &mut self.shards[s];
                    let doc = shard
                        .base
                        .document(ordinal)
                        .expect("ordinal in range")
                        .clone();
                    let len = u64::from(shard.base.doc_len(ordinal));
                    shard.dead.insert(ordinal);
                    let terms: BTreeSet<String> = shard
                        .base
                        .tokenizer()
                        .tokenize(&doc.full_text())
                        .into_iter()
                        .collect();
                    for term in terms {
                        *shard.dead_terms.entry(term).or_insert(0) += 1;
                    }
                    self.finish_removal(&doc, len);
                    if self.shards[s].wants_compaction() {
                        self.shards[s].compact(&builder);
                    }
                    return Ok(doc);
                }
                // Tombstoned here — the live copy (if any) lives elsewhere.
            }
        }
        Err(RetrievalError::UnknownDocument(doc_id.to_string()))
    }

    fn finish_removal(&mut self, doc: &Document, len: u64) {
        self.fingerprint = self.fingerprint.wrapping_sub(document_fingerprint(doc));
        self.num_docs -= 1;
        self.total_len -= len;
        self.recompute_avg();
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
            avg_doc_len: self.avg_doc_len,
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
/// rebuild, no re-wiring — and can read the current [`CorpusVersion`] through
/// [`Retriever::corpus_version`] to invalidate anything it cached.
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

    /// Override the version counter (see [`ShardedIndex::set_version`]).
    pub fn set_version(&self, version: u64) {
        self.write().index_mut().set_version(version);
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
    use crate::bm25::{score_all, Bm25Params};

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
    fn reference_scores(corpus: &Corpus, params: Bm25Params, query: &str) -> Vec<f64> {
        let index = IndexBuilder::default().build(corpus);
        let terms = index.tokenizer().tokenize(query);
        score_all(&index, &terms, params)
    }

    /// The reference ranking: positive dense scores only, fully sorted by descending
    /// score (`total_cmp`) then ascending id, truncated to `k`.
    fn reference(corpus: &Corpus, params: Bm25Params, query: &str, k: usize) -> Vec<RankedSource> {
        let scores = reference_scores(corpus, params, query);
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
                    assert_same_hits(
                        &reference(&corpus, Bm25Params::default(), query, k),
                        &sharded.search(query, k),
                    );
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
        let single = IndexBuilder::default().build(&corpus);
        let sharded = ShardedIndexBuilder::new(3).build(&corpus);
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
        let dense = reference_scores(&corpus, Bm25Params::default(), query);
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
    fn custom_params_are_respected() {
        let corpus = corpus();
        let sharded = Searcher::from_corpus(&corpus, 3).with_params(Bm25Params::robertson());
        assert_same_hits(
            &reference(&corpus, Bm25Params::robertson(), "grand slam titles", 5),
            &sharded.search("grand slam titles", 5),
        );
        assert_eq!(sharded.params(), Bm25Params::robertson());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        ShardedIndexBuilder::new(0);
    }

    #[test]
    fn mutations_match_a_fresh_rebuild() {
        let mut index = ShardedIndexBuilder::new(3).build(&corpus());
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
        let rebuilt = Searcher::new(ShardedIndexBuilder::new(3).build(&mirror));
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
    fn exotic_params_still_answer_via_fallback() {
        let exotic = Bm25Params { k1: 0.9, b: 1.5 };
        let searcher = Searcher::from_corpus(&corpus(), 2).with_params(exotic);
        let hits = searcher.try_search("grand slam titles", 3).unwrap();
        let oracle = searcher
            .try_search_exhaustive("grand slam titles", 3)
            .unwrap();
        assert_same_hits(&oracle, &hits);
        assert!(!hits.is_empty());
    }

    #[test]
    fn duplicate_add_and_unknown_removal_are_typed_errors() {
        let mut index = ShardedIndexBuilder::new(2).build(&corpus());
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
        let mut index = ShardedIndexBuilder::new(2).build(&corpus());
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
        let mut index = ShardedIndexBuilder::new(2).build(&corpus());
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
        live.set_version(41);
        live.upsert(Document::new("upserted", "", "replaced again"))
            .unwrap();
        assert_eq!(live.version().version, 42);
        live.compact();
        assert_eq!(live.version().version, 42);
    }
}

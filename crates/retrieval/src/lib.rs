//! # rage-retrieval
//!
//! A self-contained BM25 retrieval substrate for the RAGE explanation engine.
//!
//! The RAGE paper (ICDE 2024) retrieves its context sources with a BM25 model from the
//! Pyserini toolkit backed by a Lucene inverted index. This crate reproduces that
//! substrate from scratch in safe Rust:
//!
//! * [`tokenize`] — the one analysis chain ([`tokenize::for_each_term`], collected
//!   by [`tokenize::analyze`]): lowercasing word segmentation, stopword list and
//!   light suffix stemmer, mirroring Lucene's `EnglishAnalyzer` defaults closely
//!   enough for ranking parity. It streams terms through one reused buffer; indexing
//!   and queries both run it, so they always agree on the terms.
//! * [`document`] — the [`Document`] and [`Corpus`] types plus JSONL
//!   (one-JSON-object-per-line) persistence, the same interchange format Pyserini uses
//!   for its document collections.
//! * [`index`] — an in-memory inverted index in a compact arena layout (interned term
//!   dictionary, contiguous postings arena, precomputed per-document BM25 length
//!   norms), built by one streaming pass ([`InvertedIndex::build`]) that splits a
//!   large corpus across cores. Each index owns the one copy of its documents and one
//!   id → ordinal map.
//! * [`bm25`] — Okapi BM25 scoring at Pyserini's defaults, `k1 = 0.9` and `b = 0.4`
//!   (the constants [`bm25::K1`] and [`bm25::B`]).
//! * [`topk`] — the pruned query hot path: sparse accumulation plus MaxScore-style
//!   exact dynamic pruning over per-term score upper bounds.
//! * [`searcher`] — the [`Searcher`] facade producing the ranked context `Dq` (a
//!   sequence of [`RankedSource`]) that RAGE perturbs.
//! * [`retriever`] — the [`Retriever`] trait the pipeline is generic over.
//! * [`sharded`] — the segmented [`ShardedIndex`] a [`Searcher`] queries: one or more
//!   contiguous shards ([`ShardedIndex::build`]), with incremental mutation
//!   ([`ShardedIndex::add`]/`remove`/`update`) through per-shard delta segments and
//!   base tombstones, and the thread-safe mutable [`LiveSearcher`]. Every mutation
//!   advances the index's [`CorpusVersion`] (a monotonic count of its own mutations
//!   plus an order-independent content fingerprint); see the `sharded` module docs
//!   for the delta/compaction contract.
//!
//! ## One searcher, any shard count
//!
//! RAGE's pipeline is generic over [`Retriever`]: anything that can return a ranked,
//! scored top-`k` context (plus score an individual document) can serve as the paper's
//! retrieval model `M`. This crate ships one BM25 implementation, [`Searcher`]. It
//! queries a [`ShardedIndex`] of `N` contiguous shards — one for the paper-scale
//! demonstration corpora — and merges the per-shard top-k selections into one ranking.
//!
//! Sharding is **exact**, not approximate: every shard is scored with the *global*
//! collection statistics ([`bm25::CollectionStats`]), and every ranking orders by
//! descending score under `f64::total_cmp` with ties broken by ascending document id.
//! Together these make the ranking and every score bit-identical at every shard
//! count, to each other and to dense scoring of one unpartitioned index, which the
//! equivalence suite in `crates/retrieval/tests/sharding.rs` pins:
//!
//! ```
//! use rage_retrieval::{Corpus, Document, Searcher};
//!
//! let mut corpus = Corpus::new();
//! corpus.push(Document::new("d1", "Tennis rankings", "Federer leads total match wins"));
//! corpus.push(Document::new("d2", "Grand slams", "Djokovic holds the most grand slam titles"));
//! corpus.push(Document::new("d3", "Clay", "Nadal dominates the French Open on clay"));
//!
//! let one = Searcher::from_corpus(&corpus, 1);
//! let two = Searcher::from_corpus(&corpus, 2);
//! let query = "who has the most grand slam titles";
//! assert_eq!(one.search(query, 2), two.search(query, 2));
//! assert_eq!(one.search(query, 2)[0].doc_id, "d2");
//! ```
//!
//! ## The query hot path: compact layout + exact dynamic pruning
//!
//! Top-k queries do **not** score every document. The hot path is built from three
//! layers, each preserving the public API and the exact ranking:
//!
//! 1. **Layout** ([`index`]) — the searchable term dictionary is a sorted string
//!    arena addressed by interned term ids, postings lists live in one contiguous
//!    arena ordered by ascending document ordinal, and per-document BM25 length
//!    norms are precomputed into a dense `f64` array.
//! 2. **Sparse scoring** ([`topk::ScoreWorkspace`]) — term-at-a-time accumulation
//!    into a reusable epoch-stamped sparse accumulator, so per-query cost scales
//!    with postings touched rather than corpus size.
//! 3. **Exact pruning** ([`topk`]) — per-term admissible score upper bounds drive
//!    MaxScore-style skipping of long, low-impact postings lists.
//!
//! ### The upper-bound admissibility contract
//!
//! For every term the index records the maximum term frequency and minimum analysed
//! document length over its postings ([`InvertedIndex::term_max_tf`] /
//! [`InvertedIndex::term_min_dl`]). The BM25 per-term contribution is monotone
//! non-decreasing in `tf` and non-increasing in document length whenever `k1 ≥ 0` and
//! `0 ≤ b ≤ 1`, so the term score evaluated at `(max_tf, min_dl)` bounds the term's
//! contribution to *any* document of the segment. The contract has three clauses:
//!
//! * **Recomputation** — bounds are recomputed at every index (re)build, including
//!   every delta-segment rebuild and shard compaction; there is no code path that
//!   mutates a postings list without rebuilding its bound statistics.
//! * **Tombstones** — a base segment's bounds are *not* recomputed on tombstoned
//!   removals. They remain admissible because a bound over a superset of the live
//!   documents can only over-estimate; a loose bound reduces how much is skipped but
//!   can never change the result.
//! * **Parameter guard** — the monotonicity argument (and therefore pruning) only
//!   holds for `k1 ≥ 0`, `0 ≤ b ≤ 1`. A compile-time assertion beside [`bm25::K1`]
//!   and [`bm25::B`] holds the constants to that envelope, so a build with other
//!   values fails instead of pruning inexactly.
//!
//! Pruned and exhaustive paths return identical rankings down to the score *bits*;
//! [`Searcher::try_search_exhaustive`] exposes the dense oracle the differential suite
//! (`crates/retrieval/tests/pruning.rs`) compares against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bm25;
pub mod document;
pub mod error;
pub mod index;
pub mod retriever;
pub mod searcher;
pub mod sharded;
pub mod tokenize;
pub mod topk;

pub use document::{Corpus, Document};
pub use error::RetrievalError;
pub use index::InvertedIndex;
pub use retriever::{CorpusVersion, Retriever};
pub use searcher::{RankedSource, Searcher};
pub use sharded::{corpus_fingerprint, document_fingerprint, LiveSearcher, ShardedIndex};

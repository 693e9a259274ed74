//! The [`Retriever`] abstraction: anything that can play the paper's retrieval model
//! `M`.
//!
//! RAGE only needs three things from retrieval: a ranked top-`k` context for a query,
//! a way to score an individual document against a query (for the retrieval-based
//! source-scoring method), and the collection size. This trait captures exactly that
//! surface so the RAG pipeline can be wired onto *any* backend — the BM25
//! [`Searcher`](crate::Searcher), its mutable [`LiveSearcher`](crate::LiveSearcher),
//! or a future remote/vector backend — without touching the explanation engine.
//!
//! ## The ranking contract
//!
//! Every implementation must rank by **descending score under `f64::total_cmp`, ties
//! broken by ascending document id**, and must never return zero-score documents. Under
//! this contract a ranking is a pure function of the `(document, score)` set: two
//! retrievers that assign the same scores return the *same* ranking, regardless of
//! corpus layout, partitioning or merge order. The sharding equivalence suite
//! (`crates/retrieval/tests/sharding.rs`) locks this in bit-for-bit.

use serde::{Deserialize, Serialize};

use crate::error::RetrievalError;
use crate::searcher::RankedSource;

/// The identity of one index's corpus state: a monotonically increasing version number
/// plus an order-independent content fingerprint.
///
/// The version counts that index's own mutations since its build: a freshly built
/// index is version 1, every mutation (`add`/`remove`/`update`) increments it, and
/// compaction — which only reorganises the layout — never does. Two indexes built at
/// different times over one evolving corpus therefore number its states differently.
/// The fingerprint is a wrapping sum of per-document FNV-1a hashes, so two corpora
/// holding the same documents (in any order) fingerprint identically, whichever index
/// holds them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CorpusVersion {
    /// Monotonically increasing mutation counter (1 = as built).
    pub version: u64,
    /// Order-independent content hash of the live documents.
    pub fingerprint: u64,
}

/// A retrieval backend producing the ranked context `Dq` for a query `q`.
///
/// See the [module docs](self) for the ranking contract implementations must uphold.
/// The trait is object safe; `Box<dyn Retriever>` and `Arc<dyn Retriever>` are
/// retrievers themselves, so pipelines can be either monomorphised or dynamic.
pub trait Retriever: Send + Sync {
    /// Retrieve the `k` most relevant sources for `query`, most relevant first,
    /// reporting empty/unanalysable queries as errors.
    ///
    /// Documents scoring exactly zero are never returned, so the result may be shorter
    /// than `k`.
    fn try_search(&self, query: &str, k: usize) -> Result<Vec<RankedSource>, RetrievalError>;

    /// Panic-free variant of [`Retriever::try_search`]: retrieval failures yield an
    /// empty context.
    fn search(&self, query: &str, k: usize) -> Vec<RankedSource> {
        self.try_search(query, k).unwrap_or_default()
    }

    /// Score a single document (by id) against a query, even if it would not rank
    /// top-k.
    fn score_document(&self, query: &str, doc_id: &str) -> Result<f64, RetrievalError>;

    /// Number of documents in the indexed collection.
    fn num_docs(&self) -> usize;

    /// The identity of the corpus state this retriever answers from, if the backend
    /// tracks one.
    ///
    /// The BM25 backends ([`Searcher`](crate::Searcher),
    /// [`LiveSearcher`](crate::LiveSearcher)) return the current [`CorpusVersion`];
    /// backends that track no corpus state keep the `None` default. It is a read-out
    /// for callers of the backend; nothing in the pipeline reads it.
    fn corpus_version(&self) -> Option<CorpusVersion> {
        None
    }
}

impl<R: Retriever + ?Sized> Retriever for &R {
    fn try_search(&self, query: &str, k: usize) -> Result<Vec<RankedSource>, RetrievalError> {
        (**self).try_search(query, k)
    }

    fn score_document(&self, query: &str, doc_id: &str) -> Result<f64, RetrievalError> {
        (**self).score_document(query, doc_id)
    }

    fn num_docs(&self) -> usize {
        (**self).num_docs()
    }

    fn corpus_version(&self) -> Option<CorpusVersion> {
        (**self).corpus_version()
    }
}

impl<R: Retriever + ?Sized> Retriever for Box<R> {
    fn try_search(&self, query: &str, k: usize) -> Result<Vec<RankedSource>, RetrievalError> {
        (**self).try_search(query, k)
    }

    fn score_document(&self, query: &str, doc_id: &str) -> Result<f64, RetrievalError> {
        (**self).score_document(query, doc_id)
    }

    fn num_docs(&self) -> usize {
        (**self).num_docs()
    }

    fn corpus_version(&self) -> Option<CorpusVersion> {
        (**self).corpus_version()
    }
}

impl<R: Retriever + ?Sized> Retriever for std::sync::Arc<R> {
    fn try_search(&self, query: &str, k: usize) -> Result<Vec<RankedSource>, RetrievalError> {
        (**self).try_search(query, k)
    }

    fn score_document(&self, query: &str, doc_id: &str) -> Result<f64, RetrievalError> {
        (**self).score_document(query, doc_id)
    }

    fn num_docs(&self) -> usize {
        (**self).num_docs()
    }

    fn corpus_version(&self) -> Option<CorpusVersion> {
        (**self).corpus_version()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::{Corpus, Document};
    use crate::searcher::Searcher;

    fn searcher() -> Searcher {
        let mut corpus = Corpus::new();
        corpus.push(Document::new(
            "slams",
            "",
            "djokovic holds the most grand slam titles",
        ));
        corpus.push(Document::new("wins", "", "federer leads total match wins"));
        Searcher::from_corpus(&corpus, 1)
    }

    #[test]
    fn searcher_is_a_retriever_through_dyn() {
        let boxed: Box<dyn Retriever> = Box::new(searcher());
        let hits = boxed.search("grand slam titles", 2);
        assert_eq!(hits[0].doc_id, "slams");
        assert_eq!(boxed.num_docs(), 2);
        assert!(boxed.score_document("grand slam", "slams").unwrap() > 0.0);
    }

    #[test]
    fn arc_and_reference_forward() {
        let arc = std::sync::Arc::new(searcher());
        assert_eq!(arc.num_docs(), 2);
        let by_ref: &dyn Retriever = &*arc;
        assert_eq!((&by_ref).num_docs(), 2);
        assert!(matches!(
            arc.try_search("", 2),
            Err(RetrievalError::EmptyQuery)
        ));
    }
}

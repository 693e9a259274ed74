//! The retrieved context `Dq`.
//!
//! A [`Context`] is the ordered sequence of sources the retrieval model returned for a
//! query, each with its retrieval score. It is the object RAGE perturbs: combinations
//! keep a subset of its sources (preserving relative order), permutations reorder all of
//! them.

use serde::{Deserialize, Serialize};

use rage_llm::SourceText;
use rage_retrieval::searcher::RankedSource;
use rage_retrieval::Document;

/// One source inside a retrieved context.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContextSource {
    /// Document id of the source.
    pub doc_id: String,
    /// Human-readable title.
    pub title: String,
    /// The text placed into the prompt.
    pub text: String,
    /// Rank in the original retrieval (0 = most relevant).
    pub rank: usize,
    /// Retrieval (BM25) relevance score with respect to the query.
    pub retrieval_score: f64,
}

impl ContextSource {
    /// The structured form handed to the language model.
    pub fn to_source_text(&self) -> SourceText {
        SourceText::new(self.doc_id.clone(), self.text.clone())
    }
}

/// The ordered retrieved context `Dq` for a query `q`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Context {
    /// The query that produced this context.
    pub query: String,
    /// The ordered sources, most relevant first.
    pub sources: Vec<ContextSource>,
}

impl Context {
    /// Build a context from retrieval results.
    pub fn from_ranked(query: impl Into<String>, hits: &[RankedSource]) -> Self {
        Self {
            query: query.into(),
            sources: hits
                .iter()
                .map(|hit| ContextSource {
                    doc_id: hit.doc_id.clone(),
                    title: hit.document.title.clone(),
                    text: hit.document.full_text(),
                    rank: hit.rank,
                    retrieval_score: hit.score,
                })
                .collect(),
        }
    }

    /// Build a context directly from documents (bypassing retrieval), preserving the
    /// given order and assigning synthetic descending scores.
    ///
    /// Useful for tests, for user-supplied contexts, and for replaying a context
    /// captured elsewhere.
    pub fn from_documents(query: impl Into<String>, documents: &[Document]) -> Self {
        let n = documents.len();
        Self {
            query: query.into(),
            sources: documents
                .iter()
                .enumerate()
                .map(|(rank, doc)| ContextSource {
                    doc_id: doc.id.clone(),
                    title: doc.title.clone(),
                    text: doc.full_text(),
                    rank,
                    retrieval_score: (n - rank) as f64,
                })
                .collect(),
        }
    }

    /// Number of sources `k` in the context.
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// Whether the context holds no sources.
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }

    /// The source at a given position, if any.
    pub fn get(&self, index: usize) -> Option<&ContextSource> {
        self.sources.get(index)
    }

    /// Position of a document id within the context.
    pub fn position_of(&self, doc_id: &str) -> Option<usize> {
        self.sources.iter().position(|s| s.doc_id == doc_id)
    }

    /// The retrieval scores of all sources, in context order.
    pub fn retrieval_scores(&self) -> Vec<f64> {
        self.sources.iter().map(|s| s.retrieval_score).collect()
    }

    /// The document ids at the given context positions, preserving the given
    /// order; out-of-range positions are skipped.
    pub fn doc_ids(&self, positions: &[usize]) -> Vec<&str> {
        positions
            .iter()
            .filter_map(|&i| self.get(i).map(|s| s.doc_id.as_str()))
            .collect()
    }

    /// The structured source list handed to the language model for the *unperturbed*
    /// context.
    pub fn to_source_texts(&self) -> Vec<SourceText> {
        self.sources.iter().map(|s| s.to_source_text()).collect()
    }

    /// The source texts for a subset of positions, preserving the given order.
    ///
    /// Panics if an index is out of range; the [`crate::perturbation`] layer validates
    /// indices before calling this.
    pub fn select(&self, indices: &[usize]) -> Vec<SourceText> {
        indices
            .iter()
            .map(|&i| self.sources[i].to_source_text())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rage_retrieval::{Corpus, Document, Searcher};

    fn documents() -> Vec<Document> {
        vec![
            Document::new("a", "Title A", "Alpha text about tennis"),
            Document::new("b", "Title B", "Beta text about champions"),
            Document::new("c", "", "Gamma text"),
        ]
    }

    #[test]
    fn from_documents_preserves_order_and_assigns_scores() {
        let ctx = Context::from_documents("q", &documents());
        assert_eq!(ctx.len(), 3);
        assert_eq!(ctx.sources[0].doc_id, "a");
        assert_eq!(ctx.sources[0].rank, 0);
        assert!(ctx.sources[0].retrieval_score > ctx.sources[1].retrieval_score);
        assert_eq!(ctx.position_of("c"), Some(2));
        assert_eq!(ctx.position_of("zzz"), None);
    }

    #[test]
    fn from_ranked_uses_retrieval_scores() {
        let mut corpus = Corpus::new();
        for doc in documents() {
            corpus.push(doc);
        }
        let searcher = Searcher::from_corpus(&corpus, 1);
        let hits = searcher.search("tennis champions", 3);
        let ctx = Context::from_ranked("tennis champions", &hits);
        assert_eq!(ctx.len(), hits.len());
        for (source, hit) in ctx.sources.iter().zip(hits.iter()) {
            assert_eq!(source.doc_id, hit.doc_id);
            assert_eq!(source.retrieval_score, hit.score);
        }
    }

    #[test]
    fn full_text_includes_title() {
        let ctx = Context::from_documents("q", &documents());
        assert!(ctx.sources[0].text.starts_with("Title A."));
        assert_eq!(ctx.sources[2].text, "Gamma text");
    }

    #[test]
    fn select_projects_and_orders() {
        let ctx = Context::from_documents("q", &documents());
        let selected = ctx.select(&[2, 0]);
        assert_eq!(selected.len(), 2);
        assert_eq!(selected[0].id, "c");
        assert_eq!(selected[1].id, "a");
    }

    #[test]
    fn to_source_texts_matches_context_order() {
        let ctx = Context::from_documents("q", &documents());
        let texts = ctx.to_source_texts();
        assert_eq!(texts.len(), 3);
        assert_eq!(texts[1].id, "b");
    }

    #[test]
    fn empty_context() {
        let ctx = Context::from_documents("q", &[]);
        assert!(ctx.is_empty());
        assert!(ctx.get(0).is_none());
        assert!(ctx.retrieval_scores().is_empty());
    }
}

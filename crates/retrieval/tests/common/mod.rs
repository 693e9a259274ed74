//! The unpartitioned dense reference the retrieval suites compare [`Searcher`] against.
//!
//! It shares no query code with the searcher: every document of one
//! [`IndexBuilder`] index over the whole corpus is scored by [`bm25::score_all`],
//! documents with a positive score are fully sorted by descending score
//! (`f64::total_cmp`) then ascending id, and the ranking is truncated to `k`.
//!
//! [`Searcher`]: rage_retrieval::Searcher

use rage_retrieval::bm25;
use rage_retrieval::searcher::RankedSource;
use rage_retrieval::{Bm25Params, Corpus, IndexBuilder, InvertedIndex};

pub struct DenseReference {
    index: InvertedIndex,
    params: Bm25Params,
}

impl DenseReference {
    pub fn new(corpus: &Corpus, params: Bm25Params) -> Self {
        Self {
            index: IndexBuilder::default().build(corpus),
            params,
        }
    }

    /// The dense score vector, indexed by corpus position.
    fn scores(&self, query: &str) -> Vec<f64> {
        let terms = self.index.tokenizer().tokenize(query);
        bm25::score_all(&self.index, &terms, self.params)
    }

    /// The reference top-`k` ranking for `query`.
    pub fn search(&self, query: &str, k: usize) -> Vec<RankedSource> {
        let mut hits: Vec<(f64, usize)> = self
            .scores(query)
            .into_iter()
            .enumerate()
            .filter(|&(_, score)| score > 0.0)
            .map(|(ordinal, score)| (score, ordinal))
            .collect();
        let id = |ordinal: usize| self.index.doc_id(ordinal as u32).unwrap();
        hits.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| id(a.1).cmp(id(b.1))));
        hits.truncate(k);
        hits.into_iter()
            .enumerate()
            .map(|(rank, (score, ordinal))| {
                let document = self.index.document(ordinal as u32).unwrap().clone();
                RankedSource {
                    doc_id: document.id.clone(),
                    rank,
                    score,
                    document,
                }
            })
            .collect()
    }

    /// The dense score vector's entry for one document.
    pub fn score_document(&self, query: &str, doc_id: &str) -> f64 {
        let ordinal = self.index.ordinal_of(doc_id).unwrap();
        self.scores(query)[ordinal as usize]
    }
}

/// Same ids, ranks, score bits and documents, in the same order.
pub fn assert_same_ranking(expected: &[RankedSource], got: &[RankedSource], context: &str) {
    assert_eq!(expected.len(), got.len(), "{context}: result length");
    for (e, g) in expected.iter().zip(got) {
        assert_eq!(e.doc_id, g.doc_id, "{context}: order");
        assert_eq!(e.rank, g.rank, "{context}: rank of {}", e.doc_id);
        assert_eq!(
            e.score.to_bits(),
            g.score.to_bits(),
            "{context}: score bits of {}",
            e.doc_id
        );
        assert_eq!(
            e.document, g.document,
            "{context}: document of {}",
            e.doc_id
        );
    }
}

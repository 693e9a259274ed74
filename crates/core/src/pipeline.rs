//! The retrieval-augmented generation pipeline.
//!
//! [`RagPipeline`] wires the paper's components together (Figure 1): the retrieval
//! model `M` (BM25 over the local index) and the LLM `L`, which receives the question
//! and the ordered retrieved sources. Its
//! [`ask`](RagPipeline::ask) method performs one full RAG round trip and returns the
//! retrieved context alongside the model's answer, ready for explanation.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use rage_llm::{Generation, LanguageModel, LlmInput};
use rage_retrieval::{Retriever, Searcher};

use crate::context::Context;
use crate::error::RageError;
use crate::evaluator::Evaluator;

/// The answer of one RAG round trip, with full provenance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RagResponse {
    /// The retrieved context `Dq`.
    pub context: Context,
    /// The model's generation (answer, response text, attention read-out).
    pub generation: Generation,
}

impl RagResponse {
    /// The short answer string.
    pub fn answer(&self) -> &str {
        &self.generation.answer
    }

    /// Number of retrieved sources.
    pub fn k(&self) -> usize {
        self.context.len()
    }
}

/// Retrieval + LLM inference.
///
/// Generic over the retrieval backend: any [`Retriever`] plugs in — the BM25
/// [`Searcher`] (the default type parameter) at any shard count, the mutable
/// [`LiveSearcher`](rage_retrieval::LiveSearcher), or a boxed `dyn Retriever` when the
/// backend is chosen at runtime. The shard count never changes a ranking (see the
/// `rage_retrieval::sharded` docs), so explanations are equal at every shard count.
pub struct RagPipeline<R: Retriever = Searcher> {
    retriever: R,
    llm: Arc<dyn LanguageModel>,
}

impl<R: Retriever> RagPipeline<R> {
    /// Build a pipeline from a retrieval backend and a language model.
    pub fn new(retriever: R, llm: Arc<dyn LanguageModel>) -> Self {
        Self { retriever, llm }
    }

    /// The retrieval component.
    pub fn retriever(&self) -> &R {
        &self.retriever
    }

    /// The language model (shared handle).
    pub fn llm(&self) -> Arc<dyn LanguageModel> {
        Arc::clone(&self.llm)
    }

    /// Retrieve the top-`k` sources for `query` and answer from them.
    ///
    /// Fails as [`RagPipeline::retrieve`] does.
    pub fn ask(&self, query: &str, k: usize) -> Result<RagResponse, RageError> {
        let context = self.retrieve(query, k)?;
        self.answer_with_context(context)
    }

    /// Retrieve the top-`k` sources for `query` as the context `Dq`, without
    /// running the model.
    ///
    /// Fails with [`RageError::InvalidArgument`] when `k` is zero (an explanation needs
    /// at least one source, so asking for none is a caller error — not a retrieval
    /// miss) and with [`RageError::EmptyContext`] when nothing relevant is retrieved,
    /// since there would be no context to explain.
    pub fn retrieve(&self, query: &str, k: usize) -> Result<Context, RageError> {
        Self::validate_k(k)?;
        let hits = self.retriever.try_search(query, k)?;
        if hits.is_empty() {
            return Err(RageError::EmptyContext {
                query: query.to_string(),
            });
        }
        Ok(Context::from_ranked(query, &hits))
    }

    /// Reject `k = 0` up front: retrieval would dutifully return zero hits and
    /// surface as [`RageError::EmptyContext`], misdiagnosing a malformed request
    /// as "nothing relevant was retrieved".
    fn validate_k(k: usize) -> Result<(), RageError> {
        if k == 0 {
            return Err(RageError::InvalidArgument {
                reason: "retrieval count k must be at least 1".to_string(),
            });
        }
        Ok(())
    }

    /// Answer over a caller-supplied context (bypassing retrieval).
    pub fn answer_with_context(&self, context: Context) -> Result<RagResponse, RageError> {
        let input = LlmInput::new(context.query.clone(), context.to_source_texts());
        let generation = self.llm.generate(&input);
        Ok(RagResponse {
            context,
            generation,
        })
    }

    /// An [`Evaluator`] for the given context, sharing this pipeline's LLM — the
    /// entry point into the explanation searches. It fans out at the default
    /// width; [`Evaluator::with_width`] overrides that.
    pub fn evaluator(&self, context: Context) -> Evaluator {
        Evaluator::new(Arc::clone(&self.llm), context)
    }

    /// Convenience: retrieve, answer and build the evaluator in one step.
    pub fn ask_and_explain(
        &self,
        query: &str,
        k: usize,
    ) -> Result<(RagResponse, Evaluator), RageError> {
        let response = self.ask(query, k)?;
        let evaluator = self.evaluator(response.context.clone());
        Ok((response, evaluator))
    }

    /// The anytime end-to-end path: retrieve, answer and assemble a full
    /// [`RageReport`](crate::explanation::RageReport) under an optional
    /// wall-clock deadline.
    ///
    /// The retrieval round trip and baseline answers always complete (the
    /// response is never truncated); the deadline bounds the explanation
    /// searches, whose per-section
    /// [`Completeness`](crate::budget::Completeness) markers state how far
    /// each got. With `deadline = None` this is `ask` followed by
    /// [`RageReport::generate`](crate::explanation::RageReport::generate).
    pub fn ask_and_report(
        &self,
        query: &str,
        k: usize,
        config: &crate::explanation::ReportConfig,
        deadline: Option<crate::budget::Deadline>,
    ) -> Result<(RagResponse, crate::explanation::RageReport), RageError> {
        let response = self.ask(query, k)?;
        let evaluator = self.evaluator(response.context.clone());
        let report =
            crate::explanation::RageReport::generate_with_deadline(&evaluator, config, deadline)?;
        Ok((response, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rage_llm::model::{SimLlm, SimLlmConfig};
    use rage_retrieval::{Corpus, Document};

    fn pipeline() -> RagPipeline {
        let mut corpus = Corpus::new();
        corpus.push(Document::new(
            "slams",
            "Grand slams",
            "Novak Djokovic holds the most grand slam titles with 24.",
        ));
        corpus.push(Document::new(
            "wins",
            "Match wins",
            "Roger Federer leads total match wins with 369 victories.",
        ));
        corpus.push(Document::new(
            "pasta",
            "Cooking",
            "Boil the pasta in salted water until al dente.",
        ));
        let searcher = Searcher::from_corpus(&corpus, 1);
        RagPipeline::new(searcher, Arc::new(SimLlm::new(SimLlmConfig::default())))
    }

    #[test]
    fn ask_retrieves_and_answers() {
        let p = pipeline();
        let response = p.ask("Who holds the most grand slam titles?", 2).unwrap();
        assert_eq!(response.answer(), "Novak Djokovic");
        assert!(response.k() >= 1);
        assert_eq!(response.context.sources[0].doc_id, "slams");
        // `retrieve` is the retrieval half of `ask`.
        assert_eq!(
            p.retrieve("Who holds the most grand slam titles?", 2)
                .unwrap(),
            response.context
        );
    }

    #[test]
    fn irrelevant_documents_are_not_retrieved() {
        let p = pipeline();
        let response = p.ask("Who holds the most grand slam titles?", 3).unwrap();
        assert!(response.context.sources.iter().all(|s| s.doc_id != "pasta"));
    }

    #[test]
    fn zero_k_is_an_invalid_argument_not_an_empty_context() {
        // Regression: `ask(query, 0)` used to fall through retrieval into
        // EmptyContext, blaming the corpus for a malformed request.
        let p = pipeline();
        let err = p
            .ask("Who holds the most grand slam titles?", 0)
            .unwrap_err();
        assert!(matches!(err, RageError::InvalidArgument { .. }), "{err}");
        assert!(err.to_string().contains("at least 1"));

        // ask_and_explain goes through ask, so it is covered too.
        assert!(matches!(
            p.ask_and_explain("anything", 0).err(),
            Some(RageError::InvalidArgument { .. })
        ));
    }

    #[test]
    fn unmatched_query_is_an_empty_context_error() {
        let p = pipeline();
        let err = p
            .ask("completely unrelated quantum chromodynamics", 3)
            .unwrap_err();
        assert!(matches!(err, RageError::EmptyContext { .. }));
    }

    #[test]
    fn empty_query_propagates_retrieval_error() {
        let p = pipeline();
        assert!(matches!(p.ask("", 3), Err(RageError::Retrieval(_))));
    }

    #[test]
    fn answer_with_supplied_context_bypasses_retrieval() {
        let p = pipeline();
        let context = Context::from_documents(
            "Who leads total match wins?",
            &[Document::new(
                "only",
                "Match wins",
                "Roger Federer leads total match wins with 369 victories.",
            )],
        );
        let response = p.answer_with_context(context).unwrap();
        assert_eq!(response.answer(), "Roger Federer");
    }

    #[test]
    fn sharded_retriever_is_a_drop_in_replacement() {
        let mut corpus = Corpus::new();
        corpus.push(Document::new(
            "slams",
            "Grand slams",
            "Novak Djokovic holds the most grand slam titles with 24.",
        ));
        corpus.push(Document::new(
            "wins",
            "Match wins",
            "Roger Federer leads total match wins with 369 victories.",
        ));
        corpus.push(Document::new(
            "pasta",
            "Cooking",
            "Boil the pasta in salted water until al dente.",
        ));
        let llm = Arc::new(SimLlm::new(SimLlmConfig::default()));
        let single = RagPipeline::new(Searcher::from_corpus(&corpus, 1), llm.clone());
        for shards in [2, 3, 5] {
            let sharded = RagPipeline::new(Searcher::from_corpus(&corpus, shards), llm.clone());
            let query = "Who holds the most grand slam titles?";
            assert_eq!(
                single.ask(query, 2).unwrap(),
                sharded.ask(query, 2).unwrap(),
                "shards={shards}"
            );
        }
        // A boxed dynamic retriever works too (backend chosen at runtime).
        let boxed: Box<dyn rage_retrieval::Retriever> = Box::new(Searcher::from_corpus(&corpus, 2));
        let dynamic = RagPipeline::new(boxed, llm.clone());
        assert_eq!(
            dynamic
                .ask("Who leads total match wins?", 1)
                .unwrap()
                .answer(),
            "Roger Federer"
        );
    }

    #[test]
    fn ask_and_report_is_the_anytime_round_trip() {
        let p = pipeline();
        let config = crate::explanation::ReportConfig::default();
        let (response, report) = p
            .ask_and_report("Who holds the most grand slam titles?", 2, &config, None)
            .unwrap();
        assert_eq!(report.full_context_answer, response.answer());
        assert!(report.all_sections_exact());

        // An already-expired deadline still answers, with truncated sections.
        let deadline = crate::budget::Deadline::after_ms(0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let (response, report) = p
            .ask_and_report(
                "Who holds the most grand slam titles?",
                2,
                &config,
                Some(deadline),
            )
            .unwrap();
        assert_eq!(report.full_context_answer, response.answer());
        assert!(!report.all_sections_exact());
    }

    #[test]
    fn evaluator_shares_llm_and_prompt() {
        let p = pipeline();
        let (response, evaluator) = p
            .ask_and_explain("Who holds the most grand slam titles?", 2)
            .unwrap();
        assert_eq!(evaluator.full_context_answer().unwrap(), response.answer());
        assert_eq!(evaluator.k(), response.k());
    }
}

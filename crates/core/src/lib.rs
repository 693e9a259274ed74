//! # rage-core
//!
//! The RAGE explanation engine: counterfactual explanations and perturbation insights
//! for retrieval-augmented LLM question answering, reproducing *"RAGE Against the
//! Machine: Retrieval-Augmented LLM Explanations"* (ICDE 2024).
//!
//! ## The problem
//!
//! In open-book QA with retrieval-augmented generation, a retrieval model `M` ranks the
//! `k` most relevant sources `Dq` for a query `q`; the LLM `L` answers from the prompt
//! assembled out of `q` and `Dq`: `a = L(q, Dq)`. RAGE explains *where that answer came
//! from* by perturbing the context:
//!
//! * **Combinations** — which sources must be removed (top-down) or retained
//!   (bottom-up) to change the answer; these counterfactuals act as citations.
//! * **Permutations** — how stable the answer is under re-ordering of the sources,
//!   exposing "lost in the middle" position bias.
//!
//! Because the candidate space is exponential (`2^k` subsets, `k!` orders), RAGE prunes
//! it: combinations are evaluated in increasing size with ties broken by estimated
//! relevance (attention-based or retrieval-score-based), permutations in decreasing
//! Kendall-tau similarity, and "optimal permutations" are found by casting source-to-
//! position placement as an assignment problem solved in `O(s·k³)`.
//!
//! ## Crate layout
//!
//! * [`context`] — the retrieved context `Dq` ([`Context`], [`ContextSource`]).
//! * [`prompt`] — natural-language prompt assembly with delimited sources.
//! * [`answer`] — answer normalisation (lowercase, strip punctuation, trim).
//! * [`budget`] — the unified cost-control layer: [`SearchBudget`], monotonic
//!   [`Deadline`]s and per-search [`Completeness`] markers.
//! * [`pipeline`] — [`RagPipeline`]: retrieval + LLM end to end.
//! * [`perturbation`] — combination/permutation perturbations and their application.
//! * [`evaluator`] — cached, counted evaluation of perturbed contexts against the LLM:
//!   the [`Evaluator`], which runs each batch on up to its
//!   fan-out width of threads (the available cores by default), with results and
//!   cost counters identical to width 1.
//! * [`scoring`] — the two source-relevance estimators `S(q, d, Dq)`.
//! * [`counterfactual`] — top-down, bottom-up and permutation counterfactual search.
//! * [`insights`] — answer distributions, rules and tables over perturbation samples.
//! * [`optimal`] — optimal permutations via k-best assignment (and the naive baseline).
//! * [`explanation`] — the assembled [`RageReport`].
//!
//! ## Quick start
//!
//! ```
//! use rage_core::pipeline::RagPipeline;
//! use rage_core::counterfactual::{CounterfactualConfig, SearchDirection};
//! use rage_core::scoring::ScoringMethod;
//! use rage_llm::model::{SimLlm, SimLlmConfig};
//! use rage_retrieval::{Corpus, Document, Searcher};
//! use std::sync::Arc;
//!
//! let mut corpus = Corpus::new();
//! corpus.push(Document::new(
//!     "slams",
//!     "Grand slams",
//!     "Novak Djokovic holds the most grand slam titles.",
//! ));
//! corpus.push(Document::new("wins", "Match wins", "Roger Federer leads total match wins."));
//! let searcher = Searcher::from_corpus(&corpus, 1);
//! let llm = Arc::new(SimLlm::new(SimLlmConfig::default()));
//!
//! let pipeline = RagPipeline::new(searcher, llm);
//! let response = pipeline.ask("Who holds the most grand slam titles?", 2).unwrap();
//! assert_eq!(response.answer(), "Novak Djokovic");
//!
//! // Explain it: the smallest source removal that changes the answer.
//! let evaluator = pipeline.evaluator(response.context.clone());
//! let outcome = rage_core::counterfactual::find_combination_counterfactual(
//!     &evaluator,
//!     &CounterfactualConfig::top_down().with_scoring(ScoringMethod::RetrievalScore),
//! )
//! .unwrap();
//! let citation = outcome.counterfactual.expect("an answer-changing removal exists");
//! assert!(citation.removed.contains(&0));
//! assert_ne!(citation.answer, "Novak Djokovic");
//! # let _ = SearchDirection::TopDown;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod answer;
pub mod budget;
pub mod context;
pub mod counterfactual;
pub mod error;
pub mod evaluator;
pub mod explanation;
pub mod insights;
pub mod optimal;
pub mod perturbation;
pub mod pipeline;
pub mod prompt;
pub mod scoring;

pub use answer::{answers_equal, normalize_answer};
pub use budget::{Completeness, Deadline, SearchBudget};
pub use context::{Context, ContextSource};
pub use error::RageError;
pub use evaluator::{CacheStats, Evaluator};
pub use explanation::{CorpusProvenance, RageReport};
pub use perturbation::Perturbation;
pub use pipeline::{RagPipeline, RagResponse};
pub use scoring::ScoringMethod;

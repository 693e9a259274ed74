//! # rage-llm
//!
//! A deterministic, CPU-only *simulated* large language model substrate for the RAGE
//! explanation engine.
//!
//! ## Why a simulator
//!
//! The RAGE prototype runs `meta-llama/Llama-2-7b-chat-hf` on an RTX 4090 through the
//! HuggingFace Transformers stack. Neither the model weights nor the GPU are available
//! in this reproduction environment, so this crate substitutes the closest synthetic
//! equivalent that exercises the same code paths RAGE depends on (the substitution is
//! documented in `DESIGN.md`). RAGE treats the LLM as:
//!
//! 1. a black-box answer function `a = L(q, Dq)` over a question and an *ordered*
//!    sequence of context sources, and
//! 2. an attention read-out, summed over layers, heads and tokens, used as one of the
//!    two source-relevance scoring methods.
//!
//! [`SimLlm`](model::SimLlm) provides exactly that interface with behaviours calibrated
//! to the phenomena the paper studies:
//!
//! * answers are grounded in the context sources through candidate-answer extraction and
//!   evidence aggregation, so removing a supporting source can flip the answer
//!   (combination counterfactuals);
//! * a positional prior reproduces the "lost in the middle" bias of ref.
//!   \[2\] of the paper, so re-ordering sources can flip the answer (permutation
//!   counterfactuals and optimal permutations);
//! * a prior-knowledge store answers the empty-context case (bottom-up counterfactuals)
//!   and competes with weak context evidence (hallucination-style behaviour);
//! * attention is computed by a real multi-layer, multi-head scaled-dot-product
//!   attention forward pass over shared token embeddings ([`transformer`]), so the
//!   attention-aggregation scoring path ([`attention`]) is exercised honestly rather
//!   than faked.
//!
//! Everything is deterministic given the model seed, which keeps explanations and tests
//! reproducible.
//!
//! ## The kernel layer and its ULP contract
//!
//! Explanation search evaluates hundreds of perturbed prompts per report, and each
//! forward pass is dominated by the `O(tokens²)` attention score/softmax/mix loops.
//! Those loops live in [`kernels`]: one fused implementation over flat row-major
//! buffers, written as four-lane blocks and plain element loops that stable Rust
//! auto-vectorises (no `unsafe`, no intrinsics), which the production
//! [`Transformer::forward_cached`](transformer::Transformer::forward_cached) path runs
//! on. The repository builds for `x86-64-v3` (`.cargo/config.toml` at its root), so
//! they run on AVX2 vectors; `RUSTFLAGS="-C target-cpu=x86-64"` builds for plain
//! x86-64 and SSE2 instead, with bit-identical results (see
//! [`kernels`](kernels#build-baseline)).
//!
//! The production path is also *demand-driven*: it computes only what its caller
//! reads. Every layer before the last runs in full, because its rows feed the next
//! layer's keys; the last layer scores and normalises only the rows the read-out
//! consumes (the question rows [`SimLlm`](model::SimLlm) aggregates — see
//! [`ReadOut`](transformer::ReadOut)). Unread last-layer rows are never computed or
//! stored, and neither is the final hidden state (the last layer has no value mix and
//! no residual), because nothing reads it.
//!
//! The oracle is the straight-line reference implementation
//! ([`Transformer::forward_reference`](transformer::Transformer::forward_reference),
//! kept compiled, which still computes everything). The fused path trades strict
//! bit-identity with it for speed in four documented, deterministic ways — tree-reduced
//! dots, a polynomial `exp`, reciprocal weight normalisation, and head-average weight
//! folding (see [`kernels::simd`]) — and every attention weight stays within
//! [`SIMD_ULP_BOUND`](kernels::SIMD_ULP_BOUND) ULPs of the reference's. Within the
//! fused path, caching, the demand-driven read-out and the scratch pool are bit-exact:
//! they never change a single bit of what the model reads.
//!
//! Three suites enforce the contract in debug and release codegen:
//!
//! * `tests/simd_equivalence.rs` pins each kernel's lane order, the `exp` and weight
//!   bounds, and the forward-level ULP bound across model shapes;
//! * `tests/kernel_equivalence.rs` compares fused and reference forwards with the
//!   prefix cache off, cold and warm, compares the demand-driven record row by row with
//!   the full one down to `f64::to_bits`, pins a fingerprint of the fused attention
//!   weights and read-outs, and runs every registered scenario's report
//!   through a fused and a reference-forward model, requiring equal answers,
//!   counterfactuals and insight distributions, and scores and placement objectives
//!   within `1e-12` relative;
//! * `tests/prefix_cache.rs` keeps cached and uncached generations bit-identical.
//!
//! Any behavioural change to the forward pass must therefore be made in *both*
//! implementations — the suites fail loudly otherwise.
//!
//! ## Crate layout
//!
//! * [`tokenizer`] — word-level tokenizer with a hashing vocabulary.
//! * [`embedding`] — deterministic token and positional embeddings.
//! * [`cache`] — the prefix embedding cache shared across perturbed forwards.
//! * [`kernels`] — fused, four-lane inner loops for the attention hot path (within a
//!   documented ULP bound of the reference).
//! * [`transformer`] — the attention stack and its recorded attention tensors.
//! * [`attention`] — per-source attention aggregation (sum over layers/heads/tokens).
//! * [`position_bias`] — parametric context-position priors ("lost in the middle" et al.).
//! * [`knowledge`] — prior (pre-trained) knowledge facts.
//! * [`extraction`] — question typing and candidate-answer extraction from sources.
//! * [`model`] — [`SimLlm`](model::SimLlm), the [`LanguageModel`] implementation.
//!
//! ## Example
//!
//! ```
//! use rage_llm::model::{SimLlm, SimLlmConfig};
//! use rage_llm::{LanguageModel, LlmInput, SourceText};
//!
//! let llm = SimLlm::new(SimLlmConfig::default());
//! let input = LlmInput::new(
//!     "Who won the most grand slam titles?",
//!     vec![
//!         SourceText::new("d1", "Novak Djokovic won 24 grand slam titles, the most in history."),
//!         SourceText::new("d2", "Roger Federer won 20 grand slam titles."),
//!     ],
//! );
//! let generation = llm.generate(&input);
//! assert_eq!(generation.answer.to_lowercase(), "novak djokovic");
//! assert_eq!(generation.source_attention.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attention;
pub mod cache;
pub mod embedding;
pub mod extraction;
pub mod kernels;
pub mod knowledge;
pub mod model;
pub mod position_bias;
pub mod tokenizer;
pub mod transformer;

use serde::{Deserialize, Serialize};

pub use cache::{CacheStats, PrefixCache};

/// One context source as seen by the LLM: an identifier and its text.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SourceText {
    /// Stable identifier of the source (document id).
    pub id: String,
    /// The source text placed into the prompt.
    pub text: String,
}

impl SourceText {
    /// Create a source from an id and its text.
    pub fn new(id: impl Into<String>, text: impl Into<String>) -> Self {
        Self {
            id: id.into(),
            text: text.into(),
        }
    }
}

/// Structured input to the language model: the question plus the ordered context `Dq`.
///
/// The paper assembles a single natural-language prompt `p` from these parts; the
/// model consumes the structured form so that source token spans are known exactly
/// (the tokenizer lays the prompt out question first, then the delimited sources).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LlmInput {
    /// The user's question `q`.
    pub question: String,
    /// The ordered context sources `Dq` (possibly empty).
    pub sources: Vec<SourceText>,
}

impl LlmInput {
    /// Create an input from a question and ordered sources.
    pub fn new(question: impl Into<String>, sources: Vec<SourceText>) -> Self {
        Self {
            question: question.into(),
            sources,
        }
    }

    /// An input with no context sources (the "empty context" case of bottom-up search).
    pub fn without_context(question: impl Into<String>) -> Self {
        Self::new(question, Vec::new())
    }

    /// Number of context sources.
    pub fn num_sources(&self) -> usize {
        self.sources.len()
    }
}

/// The model's output for one prompt.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Generation {
    /// The short answer extracted from the model's response (already trimmed).
    pub answer: String,
    /// A chat-style full response text.
    pub text: String,
    /// Aggregate attention mass attributed to each context source, in prompt order.
    ///
    /// This is the quantity RAGE's attention-based relevance scoring sums: attention
    /// summed over all layers, heads and tokens belonging to each source, then scaled by
    /// the model's positional prior.
    pub source_attention: Vec<f64>,
    /// Number of tokens in the assembled prompt (question + delimiters + sources).
    pub prompt_tokens: usize,
}

impl Generation {
    /// Attention mass of the source at `index`, or `0.0` if out of range.
    pub fn attention_for(&self, index: usize) -> f64 {
        self.source_attention.get(index).copied().unwrap_or(0.0)
    }
}

/// The behavioural interface RAGE needs from any language model.
///
/// The simulated model implements it; an adapter around a real transformer checkpoint
/// could implement it equally well, which is what keeps `rage-core` model-agnostic (the
/// paper notes its tool is "fully compatible with any similar transformer-based LLM").
pub trait LanguageModel: Send + Sync {
    /// Produce an answer (and attention read-out) for the given question and context.
    fn generate(&self, input: &LlmInput) -> Generation;

    /// A short human-readable name for reports.
    fn name(&self) -> &str {
        "unnamed-llm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn llm_input_constructors() {
        let input = LlmInput::new("q", vec![SourceText::new("a", "text")]);
        assert_eq!(input.num_sources(), 1);
        let empty = LlmInput::without_context("q");
        assert_eq!(empty.num_sources(), 0);
        assert_eq!(empty.question, "q");
    }

    #[test]
    fn generation_attention_accessor() {
        let generation = Generation {
            answer: "x".into(),
            text: "x".into(),
            source_attention: vec![0.5, 0.25],
            prompt_tokens: 10,
        };
        assert_eq!(generation.attention_for(1), 0.25);
        assert_eq!(generation.attention_for(9), 0.0);
    }
}

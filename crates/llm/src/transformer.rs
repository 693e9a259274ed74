//! A small, honest multi-head attention stack.
//!
//! The simulator does not pretend to be a 7B-parameter chat model, but the one thing
//! RAGE reads *out of* the model — attention, summed over layers, heads and tokens —
//! must come from a real attention computation for the attention-based relevance
//! scoring path to be meaningful. This module implements exactly that: token
//! embeddings are projected per head, scaled dot-product attention is computed with a
//! softmax per query position, hidden states are updated through a residual mix of the
//! attended values, and every layer's per-head attention matrix is recorded. The fused
//! forward stores only the rows its caller reads, and the last layer computes only
//! those (see [`ReadOut`]).

use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use crate::cache::PrefixCache;
use crate::embedding::{dot, normalize, splitmix64, unit_float, Embedder, EmbeddingConfig};
use crate::kernels::{self, simd};
use crate::tokenizer::TokenizedPrompt;

/// Configuration of the attention stack.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransformerConfig {
    /// Number of attention layers.
    pub layers: usize,
    /// Number of attention heads per layer.
    pub heads: usize,
    /// Model (embedding) dimensionality.
    pub dim: usize,
    /// Softmax temperature; lower values sharpen attention onto matching tokens.
    pub temperature: f64,
    /// Seed for the deterministic projection matrices and embeddings.
    pub seed: u64,
}

impl Default for TransformerConfig {
    fn default() -> Self {
        Self {
            layers: 2,
            heads: 2,
            dim: 32,
            temperature: 0.35,
            seed: 0x5eed_1234,
        }
    }
}

/// A dense row-major `rows × cols` matrix of attention weights or projections.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major data.
    pub data: Vec<f64>,
}

impl Matrix {
    /// A zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Element access.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Element overwrite.
    pub fn set(&mut self, r: usize, c: usize, value: f64) {
        self.data[r * self.cols + c] = value;
    }

    /// One row as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// One row as a mutable slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }
}

/// Attention matrices of one layer, one entry per head. Each matrix is `rows × n` with
/// rows = query positions `0..rows`, columns = key positions, rows summing to 1.
/// `rows == n` except in a [`ReadOut::QuestionRows`] forward, whose every layer stores
/// only the question rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerAttention {
    /// Per-head attention matrices.
    pub heads: Vec<Matrix>,
}

/// The recorded attention of a forward pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttentionRecord {
    /// Per-layer attention.
    pub layers: Vec<LayerAttention>,
    /// Sequence length the attention was computed over (the key count of every
    /// matrix).
    pub seq_len: usize,
}

/// Which attention rows a caller of [`Transformer::forward_cached`] reads.
///
/// Every layer stores only these rows, and the last layer computes only them;
/// every earlier layer computes all `n` rows, because its hidden states feed
/// the next layer's keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOut {
    /// Every row of every layer: the full record.
    AllRows,
    /// Every layer keeps only the prompt prefix `0..question_span.1`, which
    /// under the tokenizer's question-first layout is exactly the question rows
    /// that [`aggregate_question_to_source_attention`] reads.
    ///
    /// [`aggregate_question_to_source_attention`]: crate::attention::aggregate_question_to_source_attention
    QuestionRows,
}

impl ReadOut {
    /// Number of rows per layer (a prefix of the prompt) this read-out needs.
    pub fn rows(self, prompt: &TokenizedPrompt) -> usize {
        match self {
            ReadOut::AllRows => prompt.len(),
            ReadOut::QuestionRows => prompt.question_span.1.min(prompt.len()),
        }
    }
}

/// The simulated attention stack.
#[derive(Debug, Clone)]
pub struct Transformer {
    config: TransformerConfig,
    embedder: Embedder,
    /// Per layer, per head: a `head_dim × dim` projection applied to both queries and keys.
    projections: Vec<Vec<Matrix>>,
    /// Recycled buffers for attention matrices and combined-weight scratch.
    /// At report-scale prompts these allocations are large enough that the
    /// system allocator hands them back to the OS on every drop, and the
    /// page faults of re-touching fresh pages cost more than an entire
    /// softmax pass per forward. Callers that are done reading an
    /// [`AttentionRecord`] return its matrices via [`Transformer::recycle`];
    /// clones share the pool.
    scratch: Arc<Mutex<Vec<Vec<f64>>>>,
}

/// Upper bound on pooled scratch buffers: enough for a full record (layers ×
/// heads) plus the combined-weight matrix from concurrent forwards, while
/// capping idle memory at `SCRATCH_CAP · n²` doubles.
const SCRATCH_CAP: usize = 12;

/// Add `buf` to a scratch pool. A full pool keeps its largest buffers: `buf`
/// replaces the smallest pooled buffer when it holds more, so the short
/// last-layer matrices never crowd out the `n × n` ones.
fn pool_push(pool: &mut Vec<Vec<f64>>, buf: Vec<f64>) {
    if pool.len() < SCRATCH_CAP {
        pool.push(buf);
    } else if let Some(smallest) = pool.iter_mut().min_by_key(|b| b.capacity()) {
        if smallest.capacity() < buf.capacity() {
            *smallest = buf;
        }
    }
}

/// Add one head's weights into the head-combined weights `sum`, or, with
/// `average = Some(1/heads)`, close each element with `(sum + w) · (1/heads)`.
fn fold_head(sum: &mut [f64], weights: &[f64], average: Option<f64>) {
    match average {
        Some(inv_heads) => {
            for (c, w) in sum.iter_mut().zip(weights) {
                *c = (*c + *w) * inv_heads;
            }
        }
        None => {
            for (c, w) in sum.iter_mut().zip(weights) {
                *c += *w;
            }
        }
    }
}

impl Transformer {
    /// Build a transformer with deterministic projection weights.
    pub fn new(config: TransformerConfig) -> Self {
        assert!(config.layers > 0, "at least one layer required");
        assert!(config.heads > 0, "at least one head required");
        assert!(config.dim > 0, "positive dimension required");
        let head_dim = (config.dim / config.heads).max(1);
        let embedder = Embedder::new(EmbeddingConfig {
            dim: config.dim,
            seed: config.seed,
            ..EmbeddingConfig::default()
        });
        let mut projections = Vec::with_capacity(config.layers);
        let mut state = config.seed ^ 0xABCD_EF01_2345_6789;
        for _layer in 0..config.layers {
            let mut heads = Vec::with_capacity(config.heads);
            for _head in 0..config.heads {
                let mut m = Matrix::zeros(head_dim, config.dim);
                for value in m.data.iter_mut() {
                    // Scaled random projection: approximately preserves dot products
                    // (Johnson–Lindenstrauss style), so lexical overlap between the
                    // question and a source still yields the highest attention scores.
                    *value = unit_float(splitmix64(&mut state)) / (head_dim as f64).sqrt();
                }
                heads.push(m);
            }
            projections.push(heads);
        }
        Self {
            config,
            embedder,
            projections,
            scratch: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// A buffer of `len` elements: the smallest pooled buffer whose
    /// capacity already holds `len`, resized in place, or a fresh one. A
    /// buffer that would have to grow is never taken — regrowing reallocates
    /// and faults in fresh pages, the cost the pool exists to avoid. The
    /// contents are stale, so the caller must overwrite every element.
    fn take_scratch(&self, len: usize) -> Vec<f64> {
        let mut pool = self.scratch.lock().expect("scratch pool poisoned");
        let fit = (0..pool.len())
            .filter(|&i| pool[i].capacity() >= len)
            .min_by_key(|&i| pool[i].capacity());
        let Some(index) = fit else {
            return vec![0.0; len];
        };
        let mut buf = pool.swap_remove(index);
        drop(pool);
        buf.resize(len, 0.0);
        buf
    }

    /// Return one buffer to the pool (bounded by [`SCRATCH_CAP`]).
    fn give_scratch(&self, buf: Vec<f64>) {
        pool_push(
            &mut self.scratch.lock().expect("scratch pool poisoned"),
            buf,
        );
    }

    /// Return a fully-read [`AttentionRecord`]'s matrices to the scratch
    /// pool so the next forward pass reuses their allocations instead of
    /// faulting in fresh pages. Purely an allocation-lifetime optimisation:
    /// recycling is optional, never changes results, and records that are
    /// simply dropped cost nothing beyond the lost reuse.
    pub fn recycle(&self, record: AttentionRecord) {
        let mut pool = self.scratch.lock().expect("scratch pool poisoned");
        for layer in record.layers {
            for matrix in layer.heads {
                pool_push(&mut pool, matrix.data);
            }
        }
    }

    /// Project a hidden-state vector with one head's projection matrix —
    /// reference operation order (sequential row dots), used by
    /// [`Transformer::forward_reference`].
    fn project(&self, layer: usize, head: usize, hidden: &[f64]) -> Vec<f64> {
        let proj = &self.projections[layer][head];
        (0..proj.rows).map(|r| dot(proj.row(r), hidden)).collect()
    }

    /// Run the forward pass over a tokenised prompt and record every attention matrix.
    ///
    /// Equivalent to [`Transformer::forward_cached`] with no cache and
    /// [`ReadOut::AllRows`].
    pub fn forward(&self, prompt: &TokenizedPrompt) -> AttentionRecord {
        self.forward_cached(prompt, None, ReadOut::AllRows)
    }

    /// Run the fused forward pass, storing only the attention rows
    /// `read_out` names and reusing input embeddings from a [`PrefixCache`]
    /// when one is supplied.
    ///
    /// Every layer stores `read_out.rows(prompt) × n` matrices. Every layer
    /// before the last still computes all `n` rows, because every row feeds
    /// the value mix and so the next layer's keys; when the record keeps only
    /// the question rows, each head's full matrix is folded into the
    /// head-combined mix weights and handed back to the scratch pool as soon
    /// as its rows are copied out, so a forward holds two `n × n` buffers
    /// rather than one per head plus the combined weights. The last layer
    /// projects all `n` keys but scores and normalises only the read-out
    /// rows, and it computes neither a value mix nor a residual: no caller
    /// reads the final hidden state. Rows that are not stored can never be
    /// read as if they were valid.
    ///
    /// Only the input embeddings are taken from the cache: they are a pure
    /// function of `(token id, position)`. Everything else is recomputed, so
    /// the returned [`AttentionRecord`] is bit-identical to an uncached
    /// forward pass.
    ///
    /// This is the production path, implemented on the fused [`kernels`]:
    /// flat row-major buffers, four-lane inner loops, the per-head value
    /// mixes folded into one tiled pass over head-averaged weights, and a
    /// mirrored score matrix (the pre-softmax score `dot(pᵩ, pₖ)·scale` is
    /// bit-symmetric in `q`/`k`, so only the upper triangle is computed —
    /// which also holds inside a row prefix, since row `q` mirrors only rows
    /// `k < q`). Every attention value it computes runs through the same
    /// kernels in the same operation order as the full computation, so each
    /// stored row is bit-identical to the same row of the
    /// [`ReadOut::AllRows`] record. Against [`Transformer::forward_reference`]
    /// every weight is within [`SIMD_ULP_BOUND`](kernels::SIMD_ULP_BOUND)
    /// ULPs — see the [`kernels`] module docs for the contract.
    pub fn forward_cached(
        &self,
        prompt: &TokenizedPrompt,
        cache: Option<&PrefixCache>,
        read_out: ReadOut,
    ) -> AttentionRecord {
        let n = prompt.len();
        if n == 0 {
            return AttentionRecord {
                layers: Vec::new(),
                seq_len: 0,
            };
        }
        let dim = self.config.dim;
        let heads_f = self.config.heads as f64;
        let head_dim = self.projections[0][0].rows;
        // Layers `0..last` mix values into the next layer's hidden states;
        // the last layer only scores its read-out rows.
        let last = self.config.layers - 1;
        let read_rows = read_out.rows(prompt);

        // Flat row-major hidden states, one `dim` row per token.
        let mut hidden = vec![0.0f64; n * dim];
        match cache {
            Some(cache) => {
                for (pos, token) in prompt.tokens.iter().enumerate() {
                    let row = cache.embedding(token.id, pos, || self.embedder.embed(token.id, pos));
                    hidden[pos * dim..(pos + 1) * dim].copy_from_slice(&row);
                }
            }
            None => {
                for (pos, token) in prompt.tokens.iter().enumerate() {
                    let row = self.embedder.embed(token.id, pos);
                    hidden[pos * dim..(pos + 1) * dim].copy_from_slice(&row);
                }
            }
        }

        // Scratch buffers reused across layers and heads.
        let mut projected = vec![0.0f64; n * head_dim];
        let mut mixed = vec![0.0f64; if last > 0 { n * dim } else { 0 }];

        // The per-head value mixes fold into one combined pass per layer:
        // the head weights are summed first, then the values are traversed
        // once instead of once per head. Same math, reassociated — part of
        // the documented ULP divergence. (With one head the fold is the
        // identity, and the tiled mix rounds exactly like the per-query
        // `simd::mix_accumulate`.)
        let inv_heads = kernels::exact_reciprocal(heads_f).unwrap_or(1.0 / heads_f);

        let mut layers = Vec::with_capacity(self.config.layers);
        for layer in 0..self.config.layers {
            let mixes = layer < last;
            // A mixing layer scores every row, because every row feeds the
            // value mix; the last layer scores only the read-out rows.
            let rows = if mixes { n } else { read_rows };
            let mut head_matrices = Vec::with_capacity(self.config.heads);
            // The head-combined mix weights, `n × n`, folded in one head at
            // a time: when the record keeps only read-out rows, at most one
            // other `n × n` head matrix is live beside them.
            let mut combined: Option<Vec<f64>> = None;

            for head in 0..self.config.heads {
                // Every position is projected, also in the last layer: each
                // computed row scores against all `n` keys.
                let proj = &self.projections[layer][head];
                for pos in 0..n {
                    simd::matvec_into(
                        &proj.data,
                        proj.rows,
                        proj.cols,
                        &hidden[pos * dim..(pos + 1) * dim],
                        &mut projected[pos * head_dim..(pos + 1) * head_dim],
                    );
                }
                let scale = 1.0 / ((head_dim as f64).sqrt() * self.config.temperature);

                // Pre-softmax scores for rows `0..rows`: `dot(pᵩ, pₖ)`
                // performs the same multiply/add sequence as `dot(pₖ, pᵩ)`,
                // so the matrix is bit-symmetric — compute the upper
                // triangle, mirror the rest (row `q` mirrors only rows
                // `k < q`, all inside the computed prefix). Scores are
                // computed straight into the attention matrix, which comes
                // from the scratch pool: the mirror plus the kernel row
                // overwrite every element. The mirror reads earlier rows of
                // `attn` itself, which still hold raw scores because the
                // softmax pass below only starts once every row is written.
                let mut attn = Matrix {
                    rows,
                    cols: n,
                    data: self.take_scratch(rows * n),
                };
                for q in 0..rows {
                    let row_start = q * n;
                    for k in 0..q {
                        attn.data[row_start + k] = attn.data[k * n + q];
                    }
                    simd::scores_into(
                        &projected[q * head_dim..(q + 1) * head_dim],
                        &projected[q * head_dim..n * head_dim],
                        head_dim,
                        scale,
                        &mut attn.data[row_start + q..row_start + n],
                    );
                }
                for q in 0..rows {
                    let row = attn.row_mut(q);
                    let sum = simd::softmax_exp_inplace(row);
                    simd::weights_inplace(row, sum);
                }
                if !mixes {
                    head_matrices.push(attn);
                    continue;
                }
                if let Some(sum) = combined.as_mut() {
                    // Average with the last head: the same
                    // `(w₀ + w₁ + …) · (1/heads)` product per key that
                    // `simd::mix_accumulate` forms, so the tiled mix below
                    // rounds exactly like the per-query kernel.
                    let last_head = head + 1 == self.config.heads;
                    fold_head(sum, &attn.data, last_head.then_some(inv_heads));
                }
                if read_rows == n {
                    // The record keeps the whole matrix, so the combined
                    // weights start from a copy of the first head's.
                    if combined.is_none() {
                        let mut sum = self.take_scratch(n * n);
                        sum.copy_from_slice(&attn.data);
                        combined = Some(sum);
                    }
                    head_matrices.push(attn);
                } else {
                    // The record keeps a copy of the read-out rows; the full
                    // matrix then becomes the combined weights (first head)
                    // or goes back to the pool.
                    let mut kept = self.take_scratch(read_rows * n);
                    kept.copy_from_slice(&attn.data[..read_rows * n]);
                    head_matrices.push(Matrix {
                        rows: read_rows,
                        cols: n,
                        data: kept,
                    });
                    if combined.is_none() {
                        combined = Some(attn.data);
                    } else {
                        self.give_scratch(attn.data);
                    }
                }
            }

            let Some(combined) = combined else {
                // Only a mixing layer folds head weights. This is the last
                // layer: its hidden states are never read, so no value mix
                // and no residual.
                layers.push(LayerAttention {
                    heads: head_matrices,
                });
                break;
            };
            // One tiled mix over the whole layer, so the hidden buffer
            // streams through L1-sized key tiles exactly once instead of
            // once per query.
            mixed.fill(0.0);
            simd::mix_tiled(&combined, &hidden, dim, &mut mixed);
            self.give_scratch(combined);

            kernels::residual_normalize(&mut hidden, &mixed, dim);
            layers.push(LayerAttention {
                heads: head_matrices,
            });
        }

        AttentionRecord { layers, seq_len: n }
    }

    /// The straight-line reference forward pass — the oracle the fused
    /// kernels are differentially tested against.
    ///
    /// This is the original (pre-kernel) implementation, kept compiled and
    /// public on purpose: `tests/kernel_equivalence.rs` and
    /// `tests/simd_equivalence.rs` assert that every weight of
    /// [`Transformer::forward_cached`] stays within
    /// [`SIMD_ULP_BOUND`](kernels::SIMD_ULP_BOUND) ULPs of it for every
    /// prompt, configuration and cache state. It is not intended for
    /// production use — it allocates per query position and chases
    /// `Vec<Vec<f64>>` pointers — but any behavioural change to the forward
    /// pass must be made here *and* in the kernels, keeping both in lockstep.
    pub fn forward_reference(
        &self,
        prompt: &TokenizedPrompt,
        cache: Option<&PrefixCache>,
    ) -> AttentionRecord {
        let n = prompt.len();
        if n == 0 {
            return AttentionRecord {
                layers: Vec::new(),
                seq_len: 0,
            };
        }
        let mut hidden: Vec<Vec<f64>> = match cache {
            Some(cache) => prompt
                .tokens
                .iter()
                .enumerate()
                .map(|(pos, token)| {
                    (*cache.embedding(token.id, pos, || self.embedder.embed(token.id, pos))).clone()
                })
                .collect(),
            None => self
                .embedder
                .embed_sequence(&prompt.tokens.iter().map(|t| t.id).collect::<Vec<_>>()),
        };

        let mut layers = Vec::with_capacity(self.config.layers);
        for layer in 0..self.config.layers {
            let mut head_matrices = Vec::with_capacity(self.config.heads);
            // Mixed value accumulator for the residual update, averaged over heads.
            let mut mixed: Vec<Vec<f64>> = vec![vec![0.0; self.config.dim]; n];

            for head in 0..self.config.heads {
                let projected: Vec<Vec<f64>> = hidden
                    .iter()
                    .map(|h| self.project(layer, head, h))
                    .collect();
                let head_dim = projected[0].len() as f64;
                let scale = 1.0 / (head_dim.sqrt() * self.config.temperature);

                let mut attn = Matrix::zeros(n, n);
                for q in 0..n {
                    // Scores for query q against every key.
                    let mut scores: Vec<f64> = (0..n)
                        .map(|k| dot(&projected[q], &projected[k]) * scale)
                        .collect();
                    // Numerically-stable softmax.
                    let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                    let mut sum = 0.0;
                    for s in scores.iter_mut() {
                        *s = (*s - max).exp();
                        sum += *s;
                    }
                    for (k, s) in scores.iter().enumerate() {
                        let weight = s / sum;
                        attn.set(q, k, weight);
                        for d in 0..self.config.dim {
                            mixed[q][d] += weight * hidden[k][d] / self.config.heads as f64;
                        }
                    }
                }
                head_matrices.push(attn);
            }

            // Residual update + renormalisation keeps hidden states bounded across layers.
            for (h, m) in hidden.iter_mut().zip(mixed.iter()) {
                for d in 0..self.config.dim {
                    h[d] = 0.5 * h[d] + 0.5 * m[d];
                }
                normalize(h);
            }

            layers.push(LayerAttention {
                heads: head_matrices,
            });
        }

        AttentionRecord { layers, seq_len: n }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::SimTokenizer;
    use crate::{LlmInput, SourceText};

    fn record_for(question: &str, sources: Vec<SourceText>) -> (AttentionRecord, TokenizedPrompt) {
        let tok = SimTokenizer::new();
        let prompt = tok.tokenize_prompt(&LlmInput::new(question, sources));
        let transformer = Transformer::new(TransformerConfig::default());
        (transformer.forward(&prompt), prompt)
    }

    #[test]
    fn records_expected_shapes() {
        let (record, prompt) = record_for(
            "who wins",
            vec![
                SourceText::new("a", "federer wins"),
                SourceText::new("b", "nadal clay"),
            ],
        );
        let config = TransformerConfig::default();
        assert_eq!(record.layers.len(), config.layers);
        assert!(record.layers.iter().all(|l| l.heads.len() == config.heads));
        assert_eq!(record.seq_len, prompt.len());
        for layer in &record.layers {
            for head in &layer.heads {
                assert_eq!(head.rows, prompt.len());
                assert_eq!(head.cols, prompt.len());
            }
        }
    }

    #[test]
    fn attention_rows_sum_to_one() {
        let (record, prompt) = record_for(
            "who has the most grand slam titles",
            vec![
                SourceText::new("a", "djokovic holds the most grand slam titles"),
                SourceText::new("b", "the pasta should boil for nine minutes"),
            ],
        );
        for layer in &record.layers {
            for head in &layer.heads {
                for q in 0..prompt.len() {
                    let row_sum: f64 = (0..prompt.len()).map(|k| head.get(q, k)).sum();
                    assert!((row_sum - 1.0).abs() < 1e-9, "row {q} sums to {row_sum}");
                }
            }
        }
    }

    #[test]
    fn attention_is_nonnegative() {
        let (record, _) = record_for("q", vec![SourceText::new("a", "alpha beta gamma")]);
        for layer in &record.layers {
            for head in &layer.heads {
                assert!(head.data.iter().all(|&w| w >= 0.0));
            }
        }
    }

    #[test]
    fn lexical_overlap_attracts_attention() {
        // A source sharing the question's words should receive more first-layer
        // attention from the question tokens than an unrelated source of equal length.
        let tok = SimTokenizer::new();
        // Both sources tokenise to the same length so span size cannot confound the
        // comparison; only lexical overlap with the question differs.
        let input = LlmInput::new(
            "who holds the most grand slam titles",
            vec![
                SourceText::new("match", "djokovic holds the most grand slam titles overall"),
                SourceText::new(
                    "noise",
                    "recipe simmers garlic onions beside fresh basil leaves",
                ),
            ],
        );
        let prompt = tok.tokenize_prompt(&input);
        let transformer = Transformer::new(TransformerConfig::default());
        let record = transformer.forward(&prompt);

        let (q_start, q_end) = prompt.question_span;
        let mass = |span: (usize, usize)| -> f64 {
            let mut total = 0.0;
            for layer in &record.layers {
                for head in &layer.heads {
                    for q in q_start..q_end {
                        for k in span.0..span.1 {
                            total += head.get(q, k);
                        }
                    }
                }
            }
            total
        };
        let matching = mass(prompt.source_spans[0]);
        let unrelated = mass(prompt.source_spans[1]);
        assert!(
            matching > unrelated,
            "matching source got {matching}, unrelated got {unrelated}"
        );
    }

    #[test]
    fn cached_forward_is_bit_identical_to_uncached() {
        let tok = SimTokenizer::new();
        let transformer = Transformer::new(TransformerConfig::default());
        let cache = PrefixCache::default();
        for sources in [
            vec![
                SourceText::new("a", "federer leads match wins"),
                SourceText::new("b", "djokovic holds the most slams"),
            ],
            // Swapped order and a truncated context reuse the question prefix.
            vec![
                SourceText::new("b", "djokovic holds the most slams"),
                SourceText::new("a", "federer leads match wins"),
            ],
            vec![SourceText::new("a", "federer leads match wins")],
        ] {
            let prompt = tok.tokenize_prompt(&LlmInput::new("who wins the most", sources));
            let plain = transformer.forward(&prompt);
            let cached = transformer.forward_cached(&prompt, Some(&cache), ReadOut::AllRows);
            assert_eq!(plain, cached);
        }
        let stats = cache.stats();
        assert!(stats.hits > 0, "prefix reuse must produce hits");
    }

    #[test]
    fn question_rows_record_stores_only_the_question_rows_of_every_layer() {
        let tok = SimTokenizer::new();
        let prompt = tok.tokenize_prompt(&LlmInput::new(
            "who wins",
            vec![SourceText::new("a", "federer wins on grass")],
        ));
        let transformer = Transformer::new(TransformerConfig::default());
        let full = transformer.forward(&prompt);
        let record = transformer.forward_cached(&prompt, None, ReadOut::QuestionRows);
        let (n, question_rows) = (prompt.len(), prompt.question_span.1);
        assert!(question_rows < n);
        assert_eq!(ReadOut::QuestionRows.rows(&prompt), question_rows);
        assert_eq!(ReadOut::AllRows.rows(&prompt), n);
        assert_eq!(record.layers.len(), full.layers.len());
        for (layer, full_layer) in record.layers.iter().zip(&full.layers) {
            for (head, full_head) in layer.heads.iter().zip(&full_layer.heads) {
                assert_eq!(
                    (head.rows, head.cols, head.data.len()),
                    (question_rows, n, question_rows * n)
                );
                let bits = |data: &[f64]| data.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&head.data), bits(&full_head.data[..question_rows * n]));
            }
        }
    }

    #[test]
    fn scratch_pool_never_hands_out_a_buffer_that_must_grow() {
        let transformer = Transformer::new(TransformerConfig::default());
        transformer.give_scratch(vec![7.0; 4]);
        let big = transformer.take_scratch(16);
        assert_eq!(big.len(), 16);
        // The short buffer stays pooled for a request it fits.
        let pool = transformer.scratch.lock().unwrap();
        assert_eq!(pool.len(), 1);
        assert!(pool[0].capacity() < 16);
    }

    #[test]
    fn scratch_pool_resizes_in_place() {
        let transformer = Transformer::new(TransformerConfig::default());
        transformer.give_scratch(vec![7.0; 16]);
        // A shorter request reuses the longer buffer in place …
        let stale = transformer.take_scratch(9);
        assert_eq!(stale.len(), 9);
        let ptr = stale.as_ptr();
        transformer.give_scratch(stale);
        // … and so does a longer one that still fits its capacity.
        let longer = transformer.take_scratch(12);
        assert_eq!(longer.as_ptr(), ptr);
        assert_eq!(longer.len(), 12);
    }

    #[test]
    fn full_scratch_pool_keeps_its_largest_buffers() {
        let transformer = Transformer::new(TransformerConfig::default());
        for _ in 0..SCRATCH_CAP {
            transformer.give_scratch(vec![0.0; 2]);
        }
        transformer.give_scratch(vec![0.0; 64]);
        let pool = transformer.scratch.lock().unwrap();
        assert_eq!(pool.len(), SCRATCH_CAP);
        assert!(pool.iter().any(|buf| buf.capacity() >= 64));
    }

    #[test]
    fn forward_is_deterministic() {
        let (a, _) = record_for("question", vec![SourceText::new("s", "some text here")]);
        let (b, _) = record_for("question", vec![SourceText::new("s", "some text here")]);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_different_attention() {
        let tok = SimTokenizer::new();
        let prompt = tok.tokenize_prompt(&LlmInput::new(
            "q",
            vec![SourceText::new("s", "alpha beta gamma delta")],
        ));
        let a = Transformer::new(TransformerConfig {
            seed: 1,
            ..TransformerConfig::default()
        })
        .forward(&prompt);
        let b = Transformer::new(TransformerConfig {
            seed: 2,
            ..TransformerConfig::default()
        })
        .forward(&prompt);
        assert_ne!(a, b);
    }

    #[test]
    fn empty_prompt_yields_empty_record() {
        let tok = SimTokenizer::new();
        let prompt = tok.tokenize_prompt(&LlmInput::without_context(""));
        // The question marker token is always present, so force a truly empty prompt.
        let empty = TokenizedPrompt {
            tokens: Vec::new(),
            source_spans: Vec::new(),
            question_span: (0, 0),
        };
        assert_eq!(prompt.len(), 1);
        let record = Transformer::new(TransformerConfig::default()).forward(&empty);
        assert_eq!(record.seq_len, 0);
        assert!(record.layers.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn zero_layers_rejected() {
        Transformer::new(TransformerConfig {
            layers: 0,
            ..TransformerConfig::default()
        });
    }

    #[test]
    fn matrix_accessors() {
        let mut m = Matrix::zeros(2, 3);
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(0), &[0.0, 0.0, 0.0]);
    }
}

//! Fused-kernel forward pass vs the straight-line reference, across context
//! sizes — the microbench behind the `kernels` module's existence.
//!
//! The two paths agree within a documented ULP bound (`tests/simd_equivalence.rs`
//! and `tests/kernel_equivalence.rs` in `rage-llm` enforce it); this target
//! tracks the *speed* side: how much the flat buffers, four-lane kernels,
//! combined head mix and mirrored score matrix buy at each sequence length,
//! what the prefix cache adds on top, and what computing only the question
//! rows of the last layer (the read-out `SimLlm` runs) adds on top of that
//! (`forward/read_out_speedup/k=*`).
//!
//! ```text
//! cargo bench --bench kernels [-- --json KERNELS.json]
//! ```

use rage_bench::{black_box, scaled, section, Runner};
use rage_llm::cache::PrefixCache;
use rage_llm::tokenizer::SimTokenizer;
use rage_llm::transformer::{ReadOut, Transformer, TransformerConfig};
use rage_llm::{LlmInput, SourceText};

/// A deterministic prompt with `k` sources (tennis-flavoured filler so token
/// overlap with the question is realistic).
fn prompt_for(tokenizer: &SimTokenizer, k: usize) -> rage_llm::tokenizer::TokenizedPrompt {
    let sources = (0..k)
        .map(|i| {
            SourceText::new(
                format!("s{i}"),
                format!(
                    "player number {i} won the open championship title in year {}",
                    2000 + i
                ),
            )
        })
        .collect();
    tokenizer.tokenize_prompt(&LlmInput::new(
        "who won the most open championship titles",
        sources,
    ))
}

fn main() {
    let mut runner = Runner::from_args();
    let tokenizer = SimTokenizer::new();
    let transformer = Transformer::new(TransformerConfig::default());

    for k in [2usize, 5, 10, 20] {
        let prompt = prompt_for(&tokenizer, k);
        let tokens = prompt.len();
        section(&format!("kernels: forward, k={k} ({tokens} tokens)"));

        let fused = runner.bench(&format!("forward/fused/k={k}"), scaled(300), || {
            black_box(transformer.forward(&prompt));
        });
        let reference = runner.bench(&format!("forward/reference/k={k}"), scaled(100), || {
            black_box(transformer.forward_reference(&prompt, None));
        });
        runner.ratio(&format!("forward/fused_speedup/k={k}"), &reference, &fused);

        // Warm prefix cache on top of the fused path.
        let cache = PrefixCache::default();
        transformer.forward_cached(&prompt, Some(&cache), ReadOut::AllRows);
        let cached = runner.bench(&format!("forward/fused+cache/k={k}"), scaled(300), || {
            black_box(transformer.forward_cached(&prompt, Some(&cache), ReadOut::AllRows));
        });
        runner.ratio(&format!("forward/cache_speedup/k={k}"), &fused, &cached);
        runner.cache_counters(&format!("forward/prefix_cache/k={k}"), cache.stats());

        // The production setup: warm cache, last layer limited to the
        // question rows the default read-out consumes.
        let question_rows = runner.bench(
            &format!("forward/question_rows+cache/k={k}"),
            scaled(300),
            || {
                black_box(transformer.forward_cached(&prompt, Some(&cache), ReadOut::QuestionRows));
            },
        );
        runner.ratio(
            &format!("forward/read_out_speedup/k={k}"),
            &cached,
            &question_rows,
        );
    }

    runner.finish();
}

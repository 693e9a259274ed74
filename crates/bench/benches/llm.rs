//! Latency of one simulated-LLM inference at growing context sizes, with and
//! without the prefix/attention KV cache.

use std::sync::Arc;

use rage_bench::workloads::synthetic;
use rage_bench::{black_box, scaled, section, Runner};
use rage_llm::cache::PrefixCache;
use rage_llm::model::{SimLlm, SimLlmConfig};
use rage_llm::{LanguageModel, LlmInput, SourceText};

fn input_for(k: usize) -> LlmInput {
    let scenario = synthetic(k);
    let sources: Vec<SourceText> = scenario
        .corpus
        .iter()
        .map(|d| SourceText::new(d.id.clone(), d.full_text()))
        .collect();
    LlmInput::new(scenario.question.clone(), sources)
}

fn main() {
    let mut runner = Runner::from_args();

    section("llm: single inference (uncached)");
    let llm = SimLlm::new(SimLlmConfig::default());
    let mut uncached_results = Vec::new();
    for k in [2usize, 5, 10, 20] {
        let input = input_for(k);
        let result = runner.bench(&format!("generate/k={k}"), scaled(50), || {
            black_box(llm.generate(&input));
        });
        uncached_results.push((k, result));
    }

    section("llm: single inference (warm prefix cache)");
    let cached_llm =
        SimLlm::new(SimLlmConfig::default()).with_prefix_cache(Arc::new(PrefixCache::default()));
    for (k, uncached) in &uncached_results {
        let input = input_for(*k);
        cached_llm.generate(&input); // warm the (token, position) state
        let cached = runner.bench(&format!("generate-cached/k={k}"), scaled(50), || {
            black_box(cached_llm.generate(&input));
        });
        runner.ratio(&format!("generate/k={k}/cache-speedup"), uncached, &cached);
    }

    runner.finish();
}

//! Prefix-cache correctness: cached and uncached `SimLlm` outputs must be
//! bit-identical over every perturbation shape RAGE generates (permuted and
//! truncated contexts), and the cache's memory must stay bounded under
//! eviction pressure.

use std::sync::Arc;

use rage_llm::cache::PrefixCache;
use rage_llm::model::{SimLlm, SimLlmConfig};
use rage_llm::{Generation, LanguageModel, LlmInput, SourceText};

fn sources() -> Vec<SourceText> {
    vec![
        SourceText::new(
            "wins",
            "Roger Federer ranks first in total match wins with 369 victories.",
        ),
        SourceText::new(
            "slams",
            "Novak Djokovic holds the most grand slam titles among the big three with 24.",
        ),
        SourceText::new(
            "weeks",
            "Novak Djokovic leads the ranking for most weeks ranked number one in tennis.",
        ),
        SourceText::new(
            "clay",
            "Rafael Nadal is the greatest clay court player with fourteen French Open titles.",
        ),
    ]
}

const QUESTION: &str =
    "Who is the best tennis player among Novak Djokovic, Roger Federer and Rafael Nadal?";

/// Every permutation of 4 sources (prompt order differs, token multiset is
/// shared) and every non-empty truncation (prefixes repeat across subsets).
fn perturbed_inputs() -> Vec<LlmInput> {
    let base = sources();
    let mut inputs = Vec::new();
    // All 4! orders via a tiny iterative Heap's algorithm replacement: simple
    // index recursion keeps the test dependency-free.
    fn permute(prefix: &mut Vec<usize>, rest: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if rest.is_empty() {
            out.push(prefix.clone());
            return;
        }
        for i in 0..rest.len() {
            let item = rest.remove(i);
            prefix.push(item);
            permute(prefix, rest, out);
            prefix.pop();
            rest.insert(i, item);
        }
    }
    let mut orders = Vec::new();
    permute(&mut Vec::new(), &mut (0..base.len()).collect(), &mut orders);
    for order in orders {
        inputs.push(LlmInput::new(
            QUESTION,
            order.iter().map(|&i| base[i].clone()).collect(),
        ));
    }
    // All non-empty subsets in original relative order (combinations).
    for mask in 1u32..(1 << base.len()) {
        let subset: Vec<SourceText> = base
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, s)| s.clone())
            .collect();
        inputs.push(LlmInput::new(QUESTION, subset));
    }
    // The empty context.
    inputs.push(LlmInput::without_context(QUESTION));
    inputs
}

/// Bitwise comparison of generations: every attention value must agree down
/// to the `f64` bit pattern, not just approximately.
fn assert_bit_identical(label: &str, a: &Generation, b: &Generation) {
    assert_eq!(a.answer, b.answer, "{label}: answer");
    assert_eq!(a.text, b.text, "{label}: text");
    assert_eq!(a.prompt_tokens, b.prompt_tokens, "{label}: prompt tokens");
    assert_eq!(
        a.source_attention.len(),
        b.source_attention.len(),
        "{label}: attention length"
    );
    for (i, (x, y)) in a
        .source_attention
        .iter()
        .zip(b.source_attention.iter())
        .enumerate()
    {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{label}: attention[{i}] {x} vs {y} differ in bits"
        );
    }
}

#[test]
fn cached_generations_are_bit_identical_across_permutations_and_truncations() {
    let uncached = SimLlm::new(SimLlmConfig::default());
    let cache = Arc::new(PrefixCache::default());
    let cached = SimLlm::new(SimLlmConfig::default()).with_prefix_cache(Arc::clone(&cache));

    for (index, input) in perturbed_inputs().iter().enumerate() {
        let plain = uncached.generate(input);
        let via_cache = cached.generate(input);
        assert_bit_identical(&format!("input {index}"), &plain, &via_cache);
    }

    let stats = cache.stats();
    assert!(stats.hits > 0, "shared prefixes must produce cache hits");
    assert!(stats.misses > 0);
    // The question prefix repeats in all 40 prompts, so reuse dominates.
    assert!(
        stats.hit_rate() > 0.5,
        "expected prefix-dominated reuse, hit rate {}",
        stats.hit_rate()
    );
}

#[test]
fn cache_warm_reruns_stay_bit_identical() {
    // Second pass over the same inputs: everything is a hit, results must not
    // drift from the uncached model.
    let uncached = SimLlm::new(SimLlmConfig::default());
    let cached =
        SimLlm::new(SimLlmConfig::default()).with_prefix_cache(Arc::new(PrefixCache::default()));
    let inputs = perturbed_inputs();
    for input in &inputs {
        cached.generate(input); // warm
    }
    for (index, input) in inputs.iter().enumerate() {
        assert_bit_identical(
            &format!("warm input {index}"),
            &uncached.generate(input),
            &cached.generate(input),
        );
    }
}

#[test]
fn eviction_bounds_cache_memory_without_changing_results() {
    // A capacity far below the working set forces constant eviction; results
    // must still match the uncached model and the entry count must respect the
    // bound.
    let capacity = 32;
    let cache = Arc::new(PrefixCache::with_capacity(capacity));
    let uncached = SimLlm::new(SimLlmConfig::default());
    let cached = SimLlm::new(SimLlmConfig::default()).with_prefix_cache(Arc::clone(&cache));

    for (index, input) in perturbed_inputs().iter().enumerate() {
        assert_bit_identical(
            &format!("evicting input {index}"),
            &uncached.generate(input),
            &cached.generate(input),
        );
        assert!(
            cache.len() <= capacity,
            "cache grew past its bound: {} entries",
            cache.len()
        );
    }
    assert!(
        cache.stats().evictions > 0,
        "the working set must overflow a capacity of {capacity}"
    );
}

#[test]
fn prefix_cache_is_shared_across_clones_and_threads() {
    let cache = Arc::new(PrefixCache::default());
    let model = SimLlm::new(SimLlmConfig::default()).with_prefix_cache(Arc::clone(&cache));
    let model = Arc::new(model);
    let inputs = perturbed_inputs();
    let expected: Vec<Generation> = inputs.iter().map(|i| model.generate(i)).collect();

    let handles: Vec<_> = (0..4)
        .map(|_| {
            let model = Arc::clone(&model);
            let inputs = inputs.clone();
            std::thread::spawn(move || inputs.iter().map(|i| model.generate(i)).collect::<Vec<_>>())
        })
        .collect();
    for handle in handles {
        let got = handle.join().expect("worker thread panicked");
        for (index, (g, e)) in got.iter().zip(expected.iter()).enumerate() {
            assert_bit_identical(&format!("threaded input {index}"), e, g);
        }
    }
}

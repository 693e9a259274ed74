//! Differential suite for the lane-parallel kernels.
//!
//! Two layers of guarantees, complementing `kernel_equivalence.rs` (which
//! pins the demand-driven read-out, the prefix cache and whole reports):
//!
//! 1. **Remainder-lane sweep** — every kernel over exhaustive small shapes
//!    (`dim`/`key_dim`/context length `0..=17`, covering 1, primes, and the
//!    4-lane block boundaries), bit-compared against its own fixed-order
//!    lane oracle and bounded against the straight-line formula. Tail
//!    handling is where vector ports rot; this pins it.
//! 2. **Divergence bound** — the fused forward is deliberately *not*
//!    bit-identical to `Transformer::forward_reference` (tree-reduced dots,
//!    polynomial `exp`, combined-head mix). This suite measures the
//!    divergence of whole forward passes across the configuration sweep and
//!    asserts [`SIMD_ULP_BOUND`], so any regression that widens the gap fails
//!    loudly — in debug and (via CI) release codegen.

use rage_llm::cache::PrefixCache;
use rage_llm::kernels::{self, simd, SIMD_ULP_BOUND};
use rage_llm::tokenizer::{PromptToken, Segment, SimTokenizer, TokenizedPrompt};
use rage_llm::transformer::{AttentionRecord, ReadOut, Transformer, TransformerConfig};
use rage_llm::{LlmInput, SourceText};

/// SplitMix64 step — the workspace's standard deterministic mixer.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn random_vec(state: &mut u64, len: usize) -> Vec<f64> {
    (0..len)
        .map(|_| (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0)
        .collect()
}

/// ULP distance between two finite doubles of the same sign (0 for equal).
fn ulp_distance(a: f64, b: f64) -> u64 {
    if a == b {
        return 0;
    }
    (a.to_bits() as i64 - b.to_bits() as i64).unsigned_abs()
}

/// The same configuration sweep `kernel_equivalence.rs` uses.
fn config_sweep() -> Vec<TransformerConfig> {
    let mut configs = Vec::new();
    for (dim, heads, layers) in [
        (32, 2, 2),
        (32, 3, 2),
        (8, 1, 1),
        (16, 1, 2),
        (5, 1, 3),
        (17, 4, 3),
        (3, 2, 2),
        (64, 8, 1),
    ] {
        configs.push(TransformerConfig {
            layers,
            heads,
            dim,
            temperature: 0.35,
            seed: 0x5eed_1234 ^ ((dim as u64) << 8) ^ heads as u64,
        });
    }
    configs.push(TransformerConfig {
        temperature: 0.05,
        ..TransformerConfig::default()
    });
    configs.push(TransformerConfig {
        temperature: 3.0,
        ..TransformerConfig::default()
    });
    configs
}

const VOCABULARY: &[&str] = &[
    "who", "won", "the", "most", "titles", "federer", "djokovic", "nadal", "open", "grand", "slam",
    "in", "wins", "clay", "court", "year", "champion", "recent", "first", "weeks",
];

fn random_words(state: &mut u64, len: usize) -> String {
    (0..len)
        .map(|_| VOCABULARY[(splitmix64(state) % VOCABULARY.len() as u64) as usize])
        .collect::<Vec<_>>()
        .join(" ")
}

fn random_input(state: &mut u64) -> LlmInput {
    let question_len = 2 + (splitmix64(state) % 5) as usize;
    let question = random_words(state, question_len);
    let num_sources = (splitmix64(state) % 6) as usize;
    let sources = (0..num_sources)
        .map(|i| {
            let len = 1 + (splitmix64(state) % 9) as usize;
            SourceText::new(format!("s{i}"), random_words(state, len))
        })
        .collect();
    LlmInput::new(question, sources)
}

/// A synthetic prompt of exactly `n` tokens (no tokenizer involved), so
/// context length can be swept exhaustively including 0 and 1.
fn prompt_of_len(n: usize, state: &mut u64) -> TokenizedPrompt {
    let tokens = (0..n)
        .map(|_| PromptToken {
            id: 8 + (splitmix64(state) % 40) as u32,
            segment: Segment::Question,
        })
        .collect();
    TokenizedPrompt {
        tokens,
        source_spans: Vec::new(),
        question_span: (0, n),
    }
}

// --------------------------------------------------------------------------
// 1. Remainder-lane sweep: exhaustive small shapes for every kernel.
// --------------------------------------------------------------------------

/// Straight-line oracle for the SIMD tree reduction: lane `l` accumulates
/// elements `l, l+4, l+8, …` (remainder elements land in lanes `0..rem`),
/// partials combine as `(a0+a1)+(a2+a3)`. Any change to the lane order in
/// `kernels::simd` shows up here as a bit difference.
fn tree_dot_oracle(a: &[f64], b: &[f64]) -> f64 {
    // Lanes start at `-0.0`, the float-sum identity, matching the kernel.
    let mut acc = [-0.0f64; 4];
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        acc[i % 4] += x * y;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

#[test]
fn small_dimension_sweep_scores_and_matvec() {
    let mut state = 0x5111;
    for n in 0..=17usize {
        for key_dim in 0..=17usize {
            let query = random_vec(&mut state, key_dim);
            let keys = random_vec(&mut state, n * key_dim);
            let scale = 1.25;

            let mut scores = vec![f64::NAN; n];
            simd::scores_into(&query, &keys, key_dim, scale, &mut scores);

            for k in 0..n {
                let row = &keys[k * key_dim..(k + 1) * key_dim];
                let tree = tree_dot_oracle(&query, row) * scale;
                assert_eq!(
                    scores[k].to_bits(),
                    tree.to_bits(),
                    "lane order n={n} key_dim={key_dim} k={k}"
                );
            }

            // matvec is the same computation with rows/cols naming.
            if n > 0 {
                let mut out = vec![f64::NAN; n];
                simd::matvec_into(&keys, n, key_dim, &query, &mut out);
                for (k, o) in out.iter().enumerate() {
                    let tree = tree_dot_oracle(&query, &keys[k * key_dim..(k + 1) * key_dim]);
                    assert_eq!(
                        o.to_bits(),
                        tree.to_bits(),
                        "matvec n={n} key_dim={key_dim}"
                    );
                }
            }
        }
    }
}

#[test]
fn small_dimension_sweep_softmax() {
    let mut state = 0x50F;
    for n in 0..=17usize {
        let scores = random_vec(&mut state, n)
            .iter()
            .map(|x| x * 9.0)
            .collect::<Vec<_>>();

        // The straight-line reference: libm `exp` after the row maximum.
        let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let reference: Vec<f64> = scores.iter().map(|s| (s - max).exp()).collect();

        // Same maximum (order-insensitive), each exponential within the
        // polynomial's ULP bound, weights still a distribution.
        let mut exps = scores.clone();
        let sum = simd::softmax_exp_inplace(&mut exps);
        if n == 0 {
            assert_eq!(sum, 0.0);
            continue;
        }
        for (k, (a, b)) in exps.iter().zip(&reference).enumerate() {
            assert!(
                ulp_distance(*a, *b) <= 8,
                "n={n} k={k}: polynomial exp {a:e} vs libm {b:e}"
            );
        }
        let mut weights = exps.clone();
        simd::weights_inplace(&mut weights, sum);
        let total: f64 = weights.iter().sum();
        assert!((total - 1.0).abs() < 1e-12, "n={n}: {total}");
    }
}

#[test]
fn small_dimension_sweep_mix_and_residual() {
    let mut state = 0x3117;
    for n in 0..=17usize {
        for dim in 1..=17usize {
            let weights = random_vec(&mut state, n)
                .iter()
                .map(|x| x.abs())
                .collect::<Vec<_>>();
            let values = random_vec(&mut state, n * dim);
            for heads in [1.0f64, 2.0, 3.0] {
                let mut reference = random_vec(&mut state, dim);
                let mut fused = reference.clone();
                for k in 0..n {
                    for d in 0..dim {
                        reference[d] += weights[k] * values[k * dim + d] / heads;
                    }
                }
                // The kernel folds `1/heads` into the weights: exact (so
                // bitwise the reference) for the power-of-two counts,
                // ULP-divergent for heads=3 where the fold itself rounds.
                let divergent = heads.log2().fract() != 0.0;
                simd::mix_accumulate(&weights, &values, dim, heads, &mut fused);
                for d in 0..dim {
                    if divergent {
                        // The weight fold rounds once per key, so the
                        // accumulated error is bounded by ~1 ULP of each
                        // |term| — an absolute bound, because the sum
                        // itself may cancel to any magnitude.
                        assert!(
                            (fused[d] - reference[d]).abs() <= 1e-13,
                            "n={n} dim={dim} heads={heads} d={d}: {} vs {}",
                            fused[d],
                            reference[d]
                        );
                    } else {
                        assert_eq!(
                            fused[d].to_bits(),
                            reference[d].to_bits(),
                            "n={n} dim={dim} heads={heads} d={d}"
                        );
                    }
                }
            }

            // residual_normalize over n rows of width dim: the reference's
            // operation order, bit for bit.
            let hidden = random_vec(&mut state, n * dim);
            let mixed = random_vec(&mut state, n * dim);
            let mut reference = hidden.clone();
            for t in 0..n {
                let row = &mut reference[t * dim..(t + 1) * dim];
                for d in 0..dim {
                    row[d] = 0.5 * row[d] + 0.5 * mixed[t * dim + d];
                }
                rage_llm::embedding::normalize(row);
            }
            let mut out = hidden.clone();
            kernels::residual_normalize(&mut out, &mixed, dim);
            for (a, b) in out.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits(), "n={n} dim={dim}");
            }
        }
    }
}

// --------------------------------------------------------------------------
// 2. The divergence bound over whole forward passes.
// --------------------------------------------------------------------------

/// Maximum ULP distance between corresponding attention weights.
fn max_attention_ulp(a: &AttentionRecord, b: &AttentionRecord) -> u64 {
    assert_eq!(a.seq_len, b.seq_len);
    assert_eq!(a.layers.len(), b.layers.len());
    let mut worst = 0u64;
    for (la, lb) in a.layers.iter().zip(&b.layers) {
        for (ha, hb) in la.heads.iter().zip(&lb.heads) {
            for (x, y) in ha.data.iter().zip(&hb.data) {
                assert!(x.is_finite() && y.is_finite(), "{x} vs {y}");
                worst = worst.max(ulp_distance(*x, *y));
            }
        }
    }
    worst
}

#[test]
fn simd_forward_divergence_from_scalar_is_ulp_bounded() {
    // Across the configuration sweep × randomised prompts, fused attention
    // weights stay within SIMD_ULP_BOUND of the scalar straight-line oracle,
    // `forward_reference`.
    let tokenizer = SimTokenizer::new();
    let mut state = 0xD1FF_B0B0;
    let mut worst = 0u64;
    for config in config_sweep() {
        let transformer = Transformer::new(config);
        for round in 0..6 {
            let input = random_input(&mut state);
            let prompt = tokenizer.tokenize_prompt(&input);
            let a = transformer.forward_reference(&prompt, None);
            let b = transformer.forward(&prompt);
            let ulp = max_attention_ulp(&a, &b);
            worst = worst.max(ulp);
            assert!(
                ulp <= SIMD_ULP_BOUND,
                "dim={} heads={} layers={} round={round}: {ulp} ULP",
                config.dim,
                config.heads,
                config.layers
            );
        }
    }
    // The bound must stay *meaningful*: if the fused forward ever became
    // bit-identical to the reference, the bound should tighten to zero.
    assert!(worst > 0, "fused forward unexpectedly bit-identical");
}

#[test]
fn simd_forward_is_deterministic_and_cache_invariant() {
    // Cached and uncached fused forwards must be bit-identical to each other
    // (cache fills use the same tree-reduced projection as the uncached
    // path).
    let tokenizer = SimTokenizer::new();
    let transformer = Transformer::new(TransformerConfig::default());
    let cache = PrefixCache::default();
    let mut state = 0xCAC4E;
    for round in 0..8 {
        let input = random_input(&mut state);
        let prompt = tokenizer.tokenize_prompt(&input);
        let plain = transformer.forward(&prompt);
        let cached = transformer.forward_cached(&prompt, Some(&cache), ReadOut::AllRows);
        let again = transformer.forward_cached(&prompt, Some(&cache), ReadOut::AllRows);
        assert_eq!(plain, cached, "round {round}: cold cache changed bits");
        assert_eq!(plain, again, "round {round}: warm cache changed bits");
    }
    assert!(cache.stats().hits > 0, "warm rounds must hit the cache");
}

#[test]
fn context_length_sweep_small_prompts_both_backends() {
    // Context lengths 0..=17 (empty prompt, single token, block boundaries,
    // primes) through both forward paths, fused and reference: the fused
    // forward stays within the divergence bound of the reference, and the
    // attention rows of both remain distributions.
    let mut state = 0xC047EC7;
    let transformer = Transformer::new(TransformerConfig::default());
    for n in 0..=17usize {
        let prompt = prompt_of_len(n, &mut state);
        let reference = transformer.forward_reference(&prompt, None);
        let fused = transformer.forward(&prompt);
        if n == 0 {
            assert_eq!((fused.seq_len, reference.seq_len), (0, 0));
            continue;
        }
        assert!(
            max_attention_ulp(&reference, &fused) <= SIMD_ULP_BOUND,
            "n={n}"
        );
        for layer in fused.layers.iter().chain(&reference.layers) {
            for head in &layer.heads {
                for q in 0..n {
                    let sum: f64 = head.row(q).iter().sum();
                    assert!((sum - 1.0).abs() < 1e-9, "n={n} q={q}");
                }
            }
        }
    }
}

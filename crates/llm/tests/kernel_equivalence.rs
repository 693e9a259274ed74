//! Differential suite: the fused kernel forward pass versus the
//! straight-line reference implementation.
//!
//! The `kernels` module promises that every attention weight of
//! [`Transformer::forward_cached`] stays within [`SIMD_ULP_BOUND`] ULPs of
//! [`Transformer::forward_reference`], and that caching and the demand-driven
//! read-out never move a bit inside the fused path. This suite enforces that
//! promise at three levels:
//!
//! 1. **Transformer level** — every attention weight within the ULP bound
//!    over SplitMix64-randomised prompts × transformer configurations (dims,
//!    heads, layers, temperature, seed), with the prefix cache off,
//!    on-and-cold, and on-and-warm. The demand-driven forward
//!    ([`ReadOut::QuestionRows`]) must store exactly the rows it computes,
//!    each bit-identical to the full fused record's, so the aggregated
//!    `SourceAttention` the model reads never moves.
//! 2. **Model level** — `SimLlm` generations match between a fused and a
//!    reference-forward model across the configuration sweep: equal answers,
//!    and attention read-outs within `1e-12` relative.
//! 3. **Report level** — every registered scenario's report, through
//!    evaluators of fan-out width 1, 2 and 4 over a fused model, explains
//!    what the reference model's report explains (see
//!    [`assert_reports_agree`]).
//!
//! Beside the three levels, [`fused_attention_fingerprint_is_pinned`] pins
//! the fused path's own bits: a hash of every attention weight and read-out
//! over a seeded sweep must equal a constant, so a kernel or codegen change
//! that claims to keep every bit is checked against the commit before it.
//!
//! Everything is seeded; failures reproduce deterministically.

use std::sync::{Arc, OnceLock};

use rage_core::explanation::ReportConfig;
use rage_core::{Evaluator, Perturbation, RagPipeline, RageReport};
use rage_datasets::{Scenario, ScenarioRegistry};
use rage_llm::attention::{aggregate_question_to_source_attention, SourceAttention};
use rage_llm::cache::PrefixCache;
use rage_llm::kernels::SIMD_ULP_BOUND;
use rage_llm::model::{SimLlm, SimLlmConfig};
use rage_llm::tokenizer::{SimTokenizer, TokenizedPrompt};
use rage_llm::transformer::{AttentionRecord, ReadOut, Transformer, TransformerConfig};
use rage_llm::{LanguageModel, LlmInput, SourceText};
use rage_retrieval::Searcher;

/// Relative tolerance for values derived from attention weights (source
/// read-outs, report scores, placement objectives). The forward-level bound
/// is a few parts in 1e12 at worst; the measured drift of these derived
/// values is below 1e-15.
const RELATIVE_TOLERANCE: f64 = 1e-12;

fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= RELATIVE_TOLERANCE * a.abs().max(b.abs())
}

/// SplitMix64 step — the workspace's standard deterministic mixer.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small vocabulary with deliberate overlap so random prompts contain
/// repeated tokens (the prefix cache's bread and butter) and question/source
/// lexical matches.
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

/// A randomised prompt: 2–6 question words, 0–5 sources of 1–9 words each.
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

/// Hand-picked edge prompts: one-token sources, a question that is most of
/// the prompt, and a question with no sources at all (every row is a
/// question row).
fn edge_inputs() -> Vec<LlmInput> {
    vec![
        LlmInput::new(
            "who won the most titles",
            vec![
                SourceText::new("a", "federer"),
                SourceText::new("b", "djokovic"),
                SourceText::new("c", "nadal"),
            ],
        ),
        LlmInput::new(
            "who won the most grand slam titles on clay court in the most recent year of the open",
            vec![
                SourceText::new("a", "nadal"),
                SourceText::new("b", "clay court"),
            ],
        ),
        LlmInput::without_context("who won the most recent open"),
    ]
}

/// Seeded random prompts followed by the edge prompts.
fn inputs(state: &mut u64, random: usize) -> Vec<LlmInput> {
    let mut inputs: Vec<LlmInput> = (0..random).map(|_| random_input(state)).collect();
    inputs.extend(edge_inputs());
    inputs
}

/// Assert two aggregated read-outs are identical down to the last bit.
fn assert_masses_identical(label: &str, got: &SourceAttention, want: &SourceAttention) {
    assert_eq!(got.masses.len(), want.masses.len(), "{label}: source count");
    for (i, (g, w)) in got.masses.iter().zip(&want.masses).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{label}: source {i}: {g:e} vs full record {w:e}"
        );
    }
}

/// Assert a demand-driven record stores exactly the rows `read_out` names in
/// every layer, each bit-identical to the same row of the full record, and
/// that the aggregated read-out matches the full record's bit for bit.
fn assert_read_out_matches_full(
    label: &str,
    prompt: &TokenizedPrompt,
    read_out: ReadOut,
    got: &AttentionRecord,
    full: &AttentionRecord,
) {
    assert_eq!(got.seq_len, full.seq_len, "{label}: seq_len");
    assert_eq!(got.layers.len(), full.layers.len(), "{label}: layer count");
    let rows = read_out.rows(prompt);
    for (l, (gl, fl)) in got.layers.iter().zip(&full.layers).enumerate() {
        for (h, (gm, fm)) in gl.heads.iter().zip(&fl.heads).enumerate() {
            assert_eq!(
                (gm.rows, gm.cols, gm.data.len()),
                (rows, full.seq_len, rows * full.seq_len),
                "{label}: shape at layer {l} head {h}"
            );
            for (i, (g, f)) in gm.data.iter().zip(&fm.data).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    f.to_bits(),
                    "{label}: layer {l} head {h} entry {i}: {g:e} vs full record {f:e}"
                );
            }
        }
    }
    assert_masses_identical(
        &format!("{label}: question read-out"),
        &aggregate_question_to_source_attention(got, prompt),
        &aggregate_question_to_source_attention(full, prompt),
    );
}

/// Assert two attention records are identical down to the last bit.
fn assert_bit_identical(label: &str, fused: &AttentionRecord, reference: &AttentionRecord) {
    assert_eq!(fused.seq_len, reference.seq_len, "{label}: seq_len");
    assert_eq!(
        fused.layers.len(),
        reference.layers.len(),
        "{label}: layer count"
    );
    for (l, (fl, rl)) in fused.layers.iter().zip(reference.layers.iter()).enumerate() {
        assert_eq!(
            fl.heads.len(),
            rl.heads.len(),
            "{label}: heads at layer {l}"
        );
        for (h, (fm, rm)) in fl.heads.iter().zip(rl.heads.iter()).enumerate() {
            assert_eq!(
                (fm.rows, fm.cols),
                (rm.rows, rm.cols),
                "{label}: shape at layer {l} head {h}"
            );
            for (i, (f, r)) in fm.data.iter().zip(rm.data.iter()).enumerate() {
                assert_eq!(
                    f.to_bits(),
                    r.to_bits(),
                    "{label}: layer {l} head {h} entry {i}: fused {f:e} vs reference {r:e}"
                );
            }
        }
    }
}

/// ULP distance between two finite doubles of the same sign (0 for equal).
fn ulp_distance(a: f64, b: f64) -> u64 {
    if a == b {
        return 0;
    }
    (a.to_bits() as i64 - b.to_bits() as i64).unsigned_abs()
}

/// Assert two attention records have the same shape and every weight of
/// `fused` is finite and within [`SIMD_ULP_BOUND`] ULPs of `reference`'s.
fn assert_within_ulp_bound(label: &str, fused: &AttentionRecord, reference: &AttentionRecord) {
    assert_eq!(fused.seq_len, reference.seq_len, "{label}: seq_len");
    assert_eq!(
        fused.layers.len(),
        reference.layers.len(),
        "{label}: layer count"
    );
    for (l, (fl, rl)) in fused.layers.iter().zip(&reference.layers).enumerate() {
        assert_eq!(
            fl.heads.len(),
            rl.heads.len(),
            "{label}: heads at layer {l}"
        );
        for (h, (fm, rm)) in fl.heads.iter().zip(&rl.heads).enumerate() {
            assert_eq!(
                (fm.rows, fm.cols),
                (rm.rows, rm.cols),
                "{label}: shape at layer {l} head {h}"
            );
            for (i, (f, r)) in fm.data.iter().zip(&rm.data).enumerate() {
                assert!(f.is_finite(), "{label}: layer {l} head {h} entry {i}: {f}");
                let ulp = ulp_distance(*f, *r);
                assert!(
                    ulp <= SIMD_ULP_BOUND,
                    "{label}: layer {l} head {h} entry {i}: fused {f:e} vs reference {r:e} ({ulp} ULP)"
                );
            }
        }
    }
}

/// The configuration sweep: every dim/head/layer shape the kernels must
/// handle, including non-power-of-two head counts (where the head-averaging
/// division must stay a division), one-head stacks that mix values, dims that
/// don't divide evenly, and a single-token-block dimension smaller than the
/// kernel block size.
fn config_sweep() -> Vec<TransformerConfig> {
    let mut configs = Vec::new();
    for (dim, heads, layers) in [
        (32, 2, 2), // the default shape
        (32, 3, 2), // heads don't divide dim; head-average is a true division
        (8, 1, 1),  // minimal shape
        (16, 1, 2), // one head, one mixing layer
        (5, 1, 3),  // one head, two mixing layers, dim % 4 != 0
        (17, 4, 3), // odd dim, deeper stack
        (3, 2, 2),  // head_dim == 1
        (64, 8, 1), // wide and shallow
    ] {
        configs.push(TransformerConfig {
            layers,
            heads,
            dim,
            temperature: 0.35,
            seed: 0x5eed_1234 ^ ((dim as u64) << 8) ^ heads as u64,
        });
    }
    // Temperature extremes sharpen/flatten the softmax.
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

#[test]
fn fused_forward_is_bit_identical_to_reference_across_configs_and_prompts() {
    // The name predates the ULP contract: the full fused record now stays
    // within SIMD_ULP_BOUND of the reference across the sweep.
    let tokenizer = SimTokenizer::new();
    let mut state = 0x1234_5678_9ABC_DEF0;
    for config in config_sweep() {
        let transformer = Transformer::new(config);
        for round in 0..8 {
            let input = random_input(&mut state);
            let prompt = tokenizer.tokenize_prompt(&input);
            let fused = transformer.forward(&prompt);
            let reference = transformer.forward_reference(&prompt, None);
            assert_within_ulp_bound(
                &format!(
                    "dim={} heads={} layers={} t={} round={round}",
                    config.dim, config.heads, config.layers, config.temperature
                ),
                &fused,
                &reference,
            );
        }
    }
}

#[test]
fn fused_forward_matches_reference_with_prefix_cache_cold_and_warm() {
    let tokenizer = SimTokenizer::new();
    let mut state = 0xFEED_FACE_CAFE_BEEF;
    for config in [
        TransformerConfig::default(),
        TransformerConfig {
            heads: 3,
            dim: 24,
            ..TransformerConfig::default()
        },
    ] {
        let transformer = Transformer::new(config);
        // Separate caches per path: stats differ by construction, values may
        // not. Warmth builds up across rounds as prompts share tokens.
        let fused_cache = PrefixCache::default();
        let reference_cache = PrefixCache::default();
        for round in 0..10 {
            let input = random_input(&mut state);
            let prompt = tokenizer.tokenize_prompt(&input);
            let uncached = transformer.forward(&prompt);
            let fused_cached =
                transformer.forward_cached(&prompt, Some(&fused_cache), ReadOut::AllRows);
            let reference_cached = transformer.forward_reference(&prompt, Some(&reference_cache));
            let label = format!("dim={} heads={} round={round}", config.dim, config.heads);
            // Inside the fused path the cache never moves a bit.
            assert_bit_identical(
                &format!("{label} fused+cache vs fused"),
                &fused_cached,
                &uncached,
            );
            assert_within_ulp_bound(
                &format!("{label} fused+cache vs reference+cache"),
                &fused_cached,
                &reference_cached,
            );
        }
        assert!(
            fused_cache.stats().hits > 0,
            "warm rounds must produce cache hits"
        );
    }
}

#[test]
fn fused_and_reference_caches_are_interchangeable() {
    // The cache holds only input embeddings, which `Embedder::embed` fills
    // identically for either path, so a cache warmed by one path serves the
    // other without moving a bit: each path with the shared cache equals the
    // same path without a cache.
    let tokenizer = SimTokenizer::new();
    let transformer = Transformer::new(TransformerConfig::default());
    let shared = PrefixCache::default();
    let mut state = 0x0BAD_F00D;
    for round in 0..6 {
        let input = random_input(&mut state);
        let prompt = tokenizer.tokenize_prompt(&input);
        let plain_fused = transformer.forward(&prompt);
        let plain_reference = transformer.forward_reference(&prompt, None);
        // Alternate which path fills the entries first.
        let (fused, reference) = if round % 2 == 0 {
            let fused = transformer.forward_cached(&prompt, Some(&shared), ReadOut::AllRows);
            (fused, transformer.forward_reference(&prompt, Some(&shared)))
        } else {
            let reference = transformer.forward_reference(&prompt, Some(&shared));
            (
                transformer.forward_cached(&prompt, Some(&shared), ReadOut::AllRows),
                reference,
            )
        };
        assert_bit_identical(&format!("round {round}: fused"), &fused, &plain_fused);
        assert_bit_identical(
            &format!("round {round}: reference"),
            &reference,
            &plain_reference,
        );
    }
    assert!(shared.stats().hits > 0, "the shared cache must hit");
}

#[test]
fn demand_driven_read_out_matches_the_full_record_bitwise() {
    // Both read-outs, with the cache off, cold and warm: each stored row
    // equals the fused full record's, so the aggregated SourceAttention
    // SimLlm reads cannot move; the full record itself stays within the ULP
    // bound of the reference.
    let tokenizer = SimTokenizer::new();
    let mut state = 0xD3A4_0DD0;
    for config in config_sweep() {
        let transformer = Transformer::new(config);
        let warm = PrefixCache::default();
        for (round, input) in inputs(&mut state, 4).iter().enumerate() {
            let prompt = tokenizer.tokenize_prompt(input);
            let full = transformer.forward(&prompt);
            let label = format!(
                "dim={} heads={} layers={} t={} round={round}",
                config.dim, config.heads, config.layers, config.temperature
            );
            assert_within_ulp_bound(
                &format!("{label} full record vs reference"),
                &full,
                &transformer.forward_reference(&prompt, None),
            );
            // Prime the warm cache so the second pass below hits it.
            transformer.forward_cached(&prompt, Some(&warm), ReadOut::QuestionRows);
            for read_out in [ReadOut::QuestionRows, ReadOut::AllRows] {
                let cold = PrefixCache::default();
                for (cache_label, cache) in [
                    ("no cache", None),
                    ("cold cache", Some(&cold)),
                    ("warm cache", Some(&warm)),
                ] {
                    let got = transformer.forward_cached(&prompt, cache, read_out);
                    assert_read_out_matches_full(
                        &format!("{label} {read_out:?} {cache_label}"),
                        &prompt,
                        read_out,
                        &got,
                        &full,
                    );
                }
            }
        }
        assert!(warm.stats().hits > 0, "the warm cache must hit");
    }
}

#[test]
fn forward_after_a_shorter_prompt_on_a_shared_pool_matches_a_fresh_model() {
    // The scratch pool hands recycled buffers to later forwards of other
    // shapes; stale contents must never leak into a record. One model runs a
    // sequence of prompt lengths
    // on its shared pool — a buffer sized by the long prompt, rewritten by
    // the short one, is then reused by the medium one — and every forward
    // must match the same forward on a fresh model.
    let tokenizer = SimTokenizer::new();
    let prompt = |question: &str, sources: &[&str]| {
        tokenizer.tokenize_prompt(&LlmInput::new(
            question,
            sources
                .iter()
                .enumerate()
                .map(|(i, text)| SourceText::new(format!("s{i}"), *text))
                .collect(),
        ))
    };
    let short = prompt("who won", &["federer won"]);
    let medium = prompt("who won the most", &["federer won the most wins on grass"]);
    let long = prompt(
        "who won the most grand slam titles",
        &[
            "federer won the most wins on grass",
            "djokovic holds the most grand slam titles",
            "nadal won the most titles on clay court",
        ],
    );
    let config = TransformerConfig::default();
    let shared = Transformer::new(config);
    for (step, prompt) in [&long, &short, &medium, &short, &long].iter().enumerate() {
        for read_out in [ReadOut::QuestionRows, ReadOut::AllRows] {
            let got = shared.forward_cached(prompt, None, read_out);
            assert_bit_identical(
                &format!("step={step} {read_out:?}"),
                &got,
                &Transformer::new(config).forward_cached(prompt, None, read_out),
            );
            shared.recycle(got);
        }
    }
}

#[test]
fn sim_llm_generations_match_reference_forward_bitwise() {
    // The name predates the ULP contract: answers, texts and prompt lengths
    // are equal, and each source's attention read-out is within
    // RELATIVE_TOLERANCE of the reference model's.
    let mut state = 0x5EED_0001;
    for transformer in config_sweep() {
        let config = SimLlmConfig {
            transformer,
            ..SimLlmConfig::default()
        };
        let fused = SimLlm::new(config.clone());
        let reference = SimLlm::new(config).with_reference_forward();
        let shape = format!(
            "dim={} heads={} layers={} t={}",
            transformer.dim, transformer.heads, transformer.layers, transformer.temperature
        );
        for (round, input) in inputs(&mut state, 6).iter().enumerate() {
            let f = fused.generate(input);
            let r = reference.generate(input);
            assert_eq!(f.answer, r.answer, "{shape} round={round}: answer");
            assert_eq!(f.text, r.text, "{shape} round={round}: text");
            assert_eq!(
                f.prompt_tokens, r.prompt_tokens,
                "{shape} round={round}: prompt tokens"
            );
            assert_eq!(
                f.source_attention.len(),
                r.source_attention.len(),
                "{shape} round={round}: attention length"
            );
            for (i, (a, b)) in f
                .source_attention
                .iter()
                .zip(r.source_attention.iter())
                .enumerate()
            {
                assert!(
                    close(*a, *b),
                    "{shape} round={round}: attention[{i}] {a:e} vs {b:e}"
                );
            }
        }
    }
}

/// FNV-1a (64-bit) over the little-endian bytes of each folded word.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold a record's shape and the bits of every stored weight; returns
    /// how many weights it folded.
    fn record(&mut self, record: &AttentionRecord) -> usize {
        self.word(record.seq_len as u64);
        let mut weights = 0;
        for layer in &record.layers {
            for matrix in &layer.heads {
                self.word(matrix.rows as u64);
                self.word(matrix.cols as u64);
                for w in &matrix.data {
                    self.word(w.to_bits());
                }
                weights += matrix.data.len();
            }
        }
        weights
    }
}

/// The fingerprint [`fused_attention_fingerprint_is_pinned`] must reproduce,
/// computed on a plain `x86-64` build before the kernels were widened for
/// `x86-64-v3`. Any build of a change that keeps every bit reproduces it.
const FUSED_ATTENTION_FINGERPRINT: u64 = 0x729f_c4d2_bbbf_c710;

#[test]
fn fused_attention_fingerprint_is_pinned() {
    // "Wide lanes without changing a bit": the kernels may be rescheduled,
    // retiled or compiled for wider vectors, but every attention weight the
    // fused forward stores and every source read-out `SimLlm::generate`
    // returns must keep its exact bits. The hash folds `f64::to_bits` of all
    // of them over shapes that cover the value mix's dim tiles and tails,
    // one-head stacks and a non-power-of-two head count, on seeded prompts
    // long enough to cross the mix's key tile, with both read-outs served
    // from a warm prefix cache. Any one-bit drift changes the hash; a change
    // that moves weights on purpose must say so and re-pin the constant. The
    // positional embeddings call `libm`'s `sin`, `cos` and `powf`, so the
    // constant holds for the libm it was computed with, as the goldens do.
    let tokenizer = SimTokenizer::new();
    let mut state = 0xF1_4E_A7_7E;
    let mut hash = Fnv1a::new();
    let mut weights = 0usize;
    for (dim, heads, layers) in [
        (32, 2, 2),
        (16, 1, 2),
        (5, 1, 3),
        (32, 3, 2),
        (17, 4, 3),
        (8, 1, 1),
        (12, 2, 1),
        (33, 2, 2),
    ] {
        let transformer = TransformerConfig {
            layers,
            heads,
            dim,
            temperature: 0.35,
            seed: 0x5eed_1234 ^ ((dim as u64) << 8) ^ heads as u64,
        };
        let mut prompts = inputs(&mut state, 6);
        for _ in 0..3 {
            let question = random_words(&mut state, 6);
            let sources = (0..10)
                .map(|i| {
                    let len = 8 + (splitmix64(&mut state) % 7) as usize;
                    SourceText::new(format!("s{i}"), random_words(&mut state, len))
                })
                .collect();
            prompts.push(LlmInput::new(question, sources));
        }
        let model = Transformer::new(transformer);
        let warm = PrefixCache::default();
        for input in &prompts {
            let prompt = tokenizer.tokenize_prompt(input);
            model.forward_cached(&prompt, Some(&warm), ReadOut::QuestionRows);
            for read_out in [ReadOut::QuestionRows, ReadOut::AllRows] {
                weights += hash.record(&model.forward_cached(&prompt, Some(&warm), read_out));
            }
        }
        assert!(warm.stats().hits > 0, "the warm cache must hit");
        let llm = SimLlm::new(SimLlmConfig {
            transformer,
            ..SimLlmConfig::default()
        });
        for input in prompts.iter().take(5) {
            let generation = llm.generate(input);
            hash.word(generation.source_attention.len() as u64);
            for mass in &generation.source_attention {
                hash.word(mass.to_bits());
            }
        }
    }
    assert_eq!(
        hash.0, FUSED_ATTENTION_FINGERPRINT,
        "fused attention fingerprint {:#018x} over {weights} weights: a kernel or \
         codegen change moved at least one attention bit",
        hash.0
    );
}

/// A pipeline over a scenario whose model uses the fused or reference
/// forward, with or without a prefix cache.
fn pipeline_for(scenario: &Scenario, reference: bool, prefix_cache: bool) -> RagPipeline {
    let searcher = Searcher::from_corpus(&scenario.corpus, 1);
    let mut llm = SimLlm::new(SimLlmConfig::default().with_prior(scenario.prior.clone()));
    if reference {
        llm = llm.with_reference_forward();
    }
    if prefix_cache {
        llm = llm.with_prefix_cache(Arc::new(PrefixCache::default()));
    }
    RagPipeline::new(searcher, Arc::new(llm))
}

fn evaluator_for(scenario: &Scenario, reference: bool, prefix_cache: bool) -> Evaluator {
    let (_, evaluator) = pipeline_for(scenario, reference, prefix_cache)
        .ask_and_explain(&scenario.question, scenario.retrieval_k)
        .expect("scenario question retrieves a context");
    evaluator
}

/// The semantic report oracle: a fused-model report explains what the
/// reference-model report explains.
///
/// Answers, counterfactuals and the insights (distribution, frequency table,
/// rules) must be equal; source
/// scores and each ranked placement's objective (rank by rank) must agree
/// within [`RELATIVE_TOLERANCE`]. Placements whose objectives tie may be
/// listed in a different order — the ranked placement search returns ties in
/// discovery order, which ULP-level score differences can permute — so each
/// listed order's answer is checked against the reference model's answer for
/// that same order. Cost counters are not compared: a permuted tie can cost
/// an evaluation more or less.
fn assert_reports_agree(
    label: &str,
    fused: &RageReport,
    reference: &RageReport,
    reference_model: &Evaluator,
) {
    assert_eq!(fused.question, reference.question, "{label}: question");
    assert_eq!(
        fused.full_context_answer, reference.full_context_answer,
        "{label}: answer"
    );
    assert_eq!(
        fused.empty_context_answer, reference.empty_context_answer,
        "{label}: empty-context answer"
    );
    assert_eq!(
        fused.top_down.counterfactual, reference.top_down.counterfactual,
        "{label}: top-down"
    );
    assert_eq!(
        fused.bottom_up.counterfactual, reference.bottom_up.counterfactual,
        "{label}: bottom-up"
    );
    assert_eq!(
        fused.permutation.counterfactual, reference.permutation.counterfactual,
        "{label}: permutation"
    );
    assert_eq!(
        fused.insights.distribution, reference.insights.distribution,
        "{label}: insight distribution"
    );
    assert_eq!(
        fused.insights.table, reference.insights.table,
        "{label}: insight table"
    );
    assert_eq!(
        fused.insights.rules, reference.insights.rules,
        "{label}: insight rules"
    );
    assert_eq!(
        fused.source_scores.len(),
        reference.source_scores.len(),
        "{label}: source count"
    );
    for (i, (f, r)) in fused
        .source_scores
        .iter()
        .zip(&reference.source_scores)
        .enumerate()
    {
        assert!(close(*f, *r), "{label}: source score {i}: {f:e} vs {r:e}");
    }
    for (ranking, got, want) in [
        ("best", &fused.best_orders, &reference.best_orders),
        ("worst", &fused.worst_orders, &reference.worst_orders),
    ] {
        assert_eq!(got.len(), want.len(), "{label}: {ranking} placement count");
        for (rank, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                close(g.objective, w.objective),
                "{label}: {ranking} placement {rank}: objective {:e} vs {:e}",
                g.objective,
                w.objective
            );
            let answer = reference_model
                .answer_for(&Perturbation::Permutation(g.order.clone()))
                .expect("a listed order evaluates");
            assert_eq!(
                g.answer, answer,
                "{label}: {ranking} placement {rank}: order {:?}",
                g.order
            );
        }
    }
}

/// One registered scenario with its reference-forward evaluator and that
/// evaluator's report.
struct ReferenceReport {
    name: String,
    scenario: Scenario,
    model: Evaluator,
    report: RageReport,
}

/// The reference report of every registered scenario, computed once and
/// shared by the report-level tests: the reference forward dominates their
/// cost.
fn reference_reports() -> &'static [ReferenceReport] {
    static REPORTS: OnceLock<Vec<ReferenceReport>> = OnceLock::new();
    REPORTS.get_or_init(|| {
        let registry = ScenarioRegistry::builtin();
        assert!(!registry.is_empty());
        registry
            .iter()
            .map(|entry| {
                let scenario = entry.build();
                let model = evaluator_for(&scenario, true, false);
                let report = RageReport::generate(&model, &ReportConfig::default()).unwrap();
                ReferenceReport {
                    name: entry.name().to_string(),
                    scenario,
                    model,
                    report,
                }
            })
            .collect()
    })
}

#[test]
fn sequential_fused_report_equals_reference_report_exactly() {
    // The whole explanation stack — counterfactual searches, permutation
    // sensitivity, optimal placements, insights — over the fused kernels,
    // through a width-1 evaluator, explains exactly what the reference
    // model's report explains on every registered scenario: equal answers,
    // counterfactuals and insights, scores within the relative tolerance.
    // `entity_registry` is the scenario the `explain` benchmark runs.
    for reference in reference_reports() {
        let fused = RageReport::generate(
            &evaluator_for(&reference.scenario, false, false).with_width(1),
            &ReportConfig::default(),
        )
        .unwrap();
        assert_reports_agree(
            &format!("{} sequential", reference.name),
            &fused,
            &reference.report,
            &reference.model,
        );
    }
}

#[test]
fn parallel_evaluator_reports_match_reference_model_across_thread_counts() {
    // The same report oracle at fan-out widths 1, 2 and 4, cache off and
    // on, on every registered scenario.
    for reference in reference_reports() {
        for width in [1usize, 2, 4] {
            for prefix_cache in [false, true] {
                let parallel =
                    evaluator_for(&reference.scenario, false, prefix_cache).with_width(width);
                let report = RageReport::generate(&parallel, &ReportConfig::default()).unwrap();
                assert_reports_agree(
                    &format!("{} @width {width} cache={prefix_cache}", reference.name),
                    &report,
                    &reference.report,
                    &reference.model,
                );
            }
        }
    }
}

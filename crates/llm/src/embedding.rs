//! Deterministic token and positional embeddings.
//!
//! The simulated transformer needs embeddings with two properties:
//!
//! 1. identical surface tokens map to identical vectors, so question/source lexical
//!    overlap produces genuinely higher dot-product attention (this is what makes the
//!    attention read-out content-sensitive rather than arbitrary), and
//! 2. the whole thing is deterministic given the model seed, so explanations and tests
//!    are reproducible.
//!
//! Token vectors are generated lazily from a per-token SplitMix64 stream seeded by
//! `(model seed, token id)`, and positions use the standard sinusoidal encoding.

use serde::{Deserialize, Serialize};

/// Configuration of the embedding layer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EmbeddingConfig {
    /// Embedding (and model) dimensionality.
    pub dim: usize,
    /// Scale of the sinusoidal positional component added to token vectors.
    pub positional_scale: f64,
    /// Seed mixed into every token vector.
    pub seed: u64,
}

impl Default for EmbeddingConfig {
    fn default() -> Self {
        Self {
            dim: 32,
            positional_scale: 0.15,
            seed: 0x5eed_1234,
        }
    }
}

/// Deterministic embedding generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Embedder {
    config: EmbeddingConfig,
}

/// SplitMix64 step — a tiny, high-quality deterministic mixer.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Map a u64 to a float uniformly distributed in `[-1, 1)`.
pub(crate) fn unit_float(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
}

impl Embedder {
    /// Create an embedder with the given configuration.
    pub fn new(config: EmbeddingConfig) -> Self {
        assert!(config.dim > 0, "embedding dimension must be positive");
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &EmbeddingConfig {
        &self.config
    }

    /// The (unit-normalised) content vector of a token id.
    pub fn token_vector(&self, token_id: u32) -> Vec<f64> {
        let mut state = self
            .config
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(token_id).wrapping_mul(0xD6E8_FEB8_6659_FD93));
        let mut v: Vec<f64> = (0..self.config.dim)
            .map(|_| unit_float(splitmix64(&mut state)))
            .collect();
        normalize(&mut v);
        v
    }

    /// The sinusoidal positional encoding for a position.
    pub fn positional_vector(&self, position: usize) -> Vec<f64> {
        let dim = self.config.dim;
        let mut v = vec![0.0; dim];
        for (i, slot) in v.iter_mut().enumerate() {
            let exponent = (2 * (i / 2)) as f64 / dim as f64;
            let rate = 10_000f64.powf(exponent);
            let angle = position as f64 / rate;
            *slot = if i % 2 == 0 { angle.sin() } else { angle.cos() };
        }
        v
    }

    /// The full input embedding of a token at a position: content + scaled position.
    pub fn embed(&self, token_id: u32, position: usize) -> Vec<f64> {
        let mut v = self.token_vector(token_id);
        let pos = self.positional_vector(position);
        for (a, b) in v.iter_mut().zip(pos.iter()) {
            *a += self.config.positional_scale * b;
        }
        v
    }

    /// Embed an entire token-id sequence.
    pub fn embed_sequence(&self, token_ids: &[u32]) -> Vec<Vec<f64>> {
        token_ids
            .iter()
            .enumerate()
            .map(|(pos, &id)| self.embed(id, pos))
            .collect()
    }
}

/// Normalise a vector to unit L2 norm.
///
/// The division is guarded by an epsilon: vectors whose norm is `<= 1e-12`
/// — the zero vector, and vectors of subnormal components whose squared
/// norm underflows — are returned unchanged rather than divided by
/// (near-)zero. The guard is what keeps `0/0 = NaN` out of the residual
/// path (see [`residual_normalize`](crate::kernels::residual_normalize));
/// `1e-12` is far below any norm a real embedding row can reach (unit-norm
/// embeddings halved once per layer bottom out around `0.5`), so the guard
/// can only fire on degenerate input, never on the hot path.
pub fn normalize(v: &mut [f64]) {
    let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 1e-12 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

/// Dot product of two equal-length vectors.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_vectors_are_deterministic_and_unit_norm() {
        let e = Embedder::new(EmbeddingConfig::default());
        let a = e.token_vector(42);
        let b = e.token_vector(42);
        assert_eq!(a, b);
        let norm: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn different_tokens_get_different_vectors() {
        let e = Embedder::new(EmbeddingConfig::default());
        assert_ne!(e.token_vector(1), e.token_vector(2));
    }

    #[test]
    fn different_seeds_change_vectors() {
        let a = Embedder::new(EmbeddingConfig {
            seed: 1,
            ..EmbeddingConfig::default()
        });
        let b = Embedder::new(EmbeddingConfig {
            seed: 2,
            ..EmbeddingConfig::default()
        });
        assert_ne!(a.token_vector(5), b.token_vector(5));
    }

    #[test]
    fn identical_token_similarity_dominates() {
        // The self-similarity of a token vector must exceed its similarity to other
        // tokens by a wide margin — this is what makes attention content-sensitive.
        let e = Embedder::new(EmbeddingConfig::default());
        let target = e.token_vector(100);
        let self_sim = dot(&target, &e.token_vector(100));
        for other in 101..130u32 {
            let sim = dot(&target, &e.token_vector(other));
            assert!(
                self_sim > sim + 0.3,
                "token {other}: self {self_sim} vs {sim}"
            );
        }
    }

    #[test]
    fn positional_encoding_varies_with_position() {
        let e = Embedder::new(EmbeddingConfig::default());
        assert_ne!(e.positional_vector(0), e.positional_vector(1));
        assert_ne!(e.positional_vector(1), e.positional_vector(50));
        assert_eq!(e.positional_vector(3), e.positional_vector(3));
    }

    #[test]
    fn embed_adds_positional_component() {
        let e = Embedder::new(EmbeddingConfig::default());
        let plain = e.token_vector(7);
        let embedded = e.embed(7, 5);
        assert_ne!(plain, embedded);
        // With zero positional scale they coincide.
        let e0 = Embedder::new(EmbeddingConfig {
            positional_scale: 0.0,
            ..EmbeddingConfig::default()
        });
        assert_eq!(e0.embed(7, 5), e0.token_vector(7));
    }

    #[test]
    fn embed_sequence_length() {
        let e = Embedder::new(EmbeddingConfig::default());
        let seq = e.embed_sequence(&[1, 2, 3, 4]);
        assert_eq!(seq.len(), 4);
        assert!(seq.iter().all(|v| v.len() == 32));
    }

    #[test]
    fn normalize_handles_zero_vector() {
        let mut v = vec![0.0, 0.0];
        normalize(&mut v);
        assert_eq!(v, vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "embedding dimension must be positive")]
    fn zero_dim_rejected() {
        Embedder::new(EmbeddingConfig {
            dim: 0,
            ..EmbeddingConfig::default()
        });
    }
}

//! Context-position priors ("lost in the middle" and friends).
//!
//! Liu et al. (ref. \[2\] of the RAGE paper) show that chat LLMs pay more attention to
//! sources at the beginning and end of a long context than to those in the middle. RAGE
//! both *explains* the consequences of this bias (permutation counterfactuals) and
//! *counteracts* it (optimal permutations that place relevant sources in high-attention
//! positions, optionally calibrated with "a predefined V-shaped distribution").
//!
//! [`PositionBiasProfile`] maps a context position `0..k` to a multiplicative attention
//! weight. It is the analyst's placement knob: the optimal-permutation solver uses the
//! chosen profile as the expected-attention distribution over positions. The simulated
//! model's own prior is fixed: it multiplies its content-based attention by the
//! [default](PositionBiasProfile::default) profile.

use serde::{Deserialize, Serialize};

/// A parametric prior over context positions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PositionBiasProfile {
    /// No positional preference: every position weighs 1.
    Uniform,
    /// The "lost in the middle" U-shape: the first and last positions weigh 1, the
    /// middle sinks to `1 − depth` (with `0 ≤ depth ≤ 1`).
    LostInTheMiddle {
        /// How deep the middle of the context sinks (0 = uniform, 1 = middle ignored).
        depth: f64,
    },
    /// The predefined V-shaped calibration the paper's UI offers: linear descent from the
    /// first position to the middle and symmetric ascent back to the last position.
    VShaped {
        /// Weight at the bottom of the V (the middle position); ends weigh 1.
        floor: f64,
    },
    /// Primacy-only bias: weight decays linearly from 1 at the first position to `floor`
    /// at the last.
    Primacy {
        /// Weight of the last position.
        floor: f64,
    },
    /// Recency-only bias: weight grows linearly from `floor` at the first position to 1
    /// at the last.
    Recency {
        /// Weight of the first position.
        floor: f64,
    },
}

impl Default for PositionBiasProfile {
    fn default() -> Self {
        // The default mirrors the behaviour the paper's narratives rely on: strong
        // primacy, noticeable recency, weak middle.
        PositionBiasProfile::LostInTheMiddle { depth: 0.7 }
    }
}

impl PositionBiasProfile {
    /// The weight of context position `position` out of `k` positions (0-based).
    ///
    /// Weights are in `(0, 1]`; `k == 0` or an out-of-range position yields `1.0` so the
    /// profile is harmless for empty contexts.
    pub fn weight(&self, position: usize, k: usize) -> f64 {
        if k == 0 || position >= k {
            return 1.0;
        }
        if k == 1 {
            return 1.0;
        }
        // Normalised position in [0, 1].
        let x = position as f64 / (k - 1) as f64;
        let w = match *self {
            PositionBiasProfile::Uniform => 1.0,
            PositionBiasProfile::LostInTheMiddle { depth } => {
                let depth = depth.clamp(0.0, 1.0);
                // Smooth U-shape: cosine bump subtracted in the middle.
                1.0 - depth * (std::f64::consts::PI * x).sin().powi(2)
            }
            PositionBiasProfile::VShaped { floor } => {
                let floor = floor.clamp(0.0, 1.0);
                let distance_from_edge = 1.0 - (2.0 * x - 1.0).abs();
                1.0 - (1.0 - floor) * distance_from_edge
            }
            PositionBiasProfile::Primacy { floor } => {
                let floor = floor.clamp(0.0, 1.0);
                1.0 - (1.0 - floor) * x
            }
            PositionBiasProfile::Recency { floor } => {
                let floor = floor.clamp(0.0, 1.0);
                floor + (1.0 - floor) * x
            }
        };
        w.max(1e-6)
    }

    /// The full weight vector for a context of `k` sources.
    pub fn weights(&self, k: usize) -> Vec<f64> {
        (0..k).map(|p| self.weight(p, k)).collect()
    }

    /// The expected attention *distribution* over `k` positions (weights normalised to
    /// sum to 1), which is what the optimal-permutation objective consumes.
    pub fn distribution(&self, k: usize) -> Vec<f64> {
        let weights = self.weights(k);
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return vec![0.0; k];
        }
        weights.into_iter().map(|w| w / total).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_flat() {
        let p = PositionBiasProfile::Uniform;
        for k in 1..10 {
            for pos in 0..k {
                assert_eq!(p.weight(pos, k), 1.0);
            }
        }
    }

    #[test]
    fn lost_in_the_middle_sinks_the_middle() {
        let p = PositionBiasProfile::LostInTheMiddle { depth: 0.8 };
        let k = 9;
        let first = p.weight(0, k);
        let middle = p.weight(4, k);
        let last = p.weight(8, k);
        assert_eq!(first, 1.0);
        assert_eq!(last, 1.0);
        assert!(middle < 0.5);
        // Symmetry around the centre.
        for pos in 0..k {
            let mirrored = k - 1 - pos;
            assert!((p.weight(pos, k) - p.weight(mirrored, k)).abs() < 1e-9);
        }
    }

    #[test]
    fn depth_zero_is_uniform() {
        let p = PositionBiasProfile::LostInTheMiddle { depth: 0.0 };
        for pos in 0..7 {
            assert!((p.weight(pos, 7) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn v_shape_has_floor_at_the_middle() {
        let p = PositionBiasProfile::VShaped { floor: 0.25 };
        let k = 11;
        assert_eq!(p.weight(0, k), 1.0);
        assert_eq!(p.weight(k - 1, k), 1.0);
        assert!((p.weight(5, k) - 0.25).abs() < 1e-9);
        // Monotone decrease to the middle and increase after.
        for pos in 0..5 {
            assert!(p.weight(pos, k) >= p.weight(pos + 1, k));
        }
        for pos in 5..k - 1 {
            assert!(p.weight(pos, k) <= p.weight(pos + 1, k));
        }
    }

    #[test]
    fn primacy_and_recency_are_mirror_images() {
        let primacy = PositionBiasProfile::Primacy { floor: 0.2 };
        let recency = PositionBiasProfile::Recency { floor: 0.2 };
        let k = 6;
        for pos in 0..k {
            let mirrored = k - 1 - pos;
            assert!((primacy.weight(pos, k) - recency.weight(mirrored, k)).abs() < 1e-9);
        }
        assert!(primacy.weight(0, k) > primacy.weight(k - 1, k));
        assert!(recency.weight(k - 1, k) > recency.weight(0, k));
    }

    #[test]
    fn single_source_and_empty_context_weigh_one() {
        let p = PositionBiasProfile::default();
        assert_eq!(p.weight(0, 1), 1.0);
        assert_eq!(p.weight(0, 0), 1.0);
        assert_eq!(p.weight(5, 3), 1.0);
    }

    #[test]
    fn weights_are_positive_and_bounded() {
        let profiles = [
            PositionBiasProfile::Uniform,
            PositionBiasProfile::LostInTheMiddle { depth: 1.0 },
            PositionBiasProfile::VShaped { floor: 0.0 },
            PositionBiasProfile::Primacy { floor: 0.0 },
            PositionBiasProfile::Recency { floor: 0.0 },
        ];
        for p in profiles {
            for k in 1..12 {
                for pos in 0..k {
                    let w = p.weight(pos, k);
                    assert!(w > 0.0 && w <= 1.0, "{p:?} pos {pos} k {k} -> {w}");
                }
            }
        }
    }

    #[test]
    fn distribution_sums_to_one() {
        let p = PositionBiasProfile::default();
        for k in 1..10 {
            let d = p.distribution(k);
            assert_eq!(d.len(), k);
            let total: f64 = d.iter().sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn out_of_range_depth_is_clamped() {
        let p = PositionBiasProfile::LostInTheMiddle { depth: 5.0 };
        for pos in 0..9 {
            assert!(p.weight(pos, 9) > 0.0);
        }
    }
}

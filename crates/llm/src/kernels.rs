//! Fused inner-loop kernels for the transformer hot path.
//!
//! RAGE's explanation search spends essentially all of its time in repeated
//! [`Transformer::forward`](crate::transformer::Transformer::forward) passes,
//! and within one pass the `O(tokens²)` attention score/softmax/mix loops
//! dominate. This module holds the one fused implementation of those loops
//! that [`Transformer::forward_cached`](crate::transformer::Transformer::forward_cached)
//! runs on: flat row-major buffers instead of `Vec<Vec<f64>>` pointer chasing,
//! no per-query allocations, and the four-lane kernels in [`simd`], which
//! stable Rust auto-vectorises without `unsafe` or intrinsics.
//!
//! ## Build baseline
//!
//! The repository builds for `x86-64-v3` (AVX2 and FMA; `.cargo/config.toml`
//! at its root), so the kernels run on 256-bit vectors, four `f64` lanes
//! each. `RUSTFLAGS="-C target-cpu=x86-64"` replaces that flag and builds
//! for plain x86-64, where the same kernels lower to packed SSE2. The two
//! builds compute the same bits: Rust never contracts `a * b + c` into an
//! FMA, and no kernel's per-element operation sequence depends on the
//! vector width. `tests/kernel_equivalence.rs` pins an FNV-1a fingerprint of
//! every attention weight over a seeded sweep, so a one-bit drift from a
//! kernel or codegen change fails it on either build.
//!
//! ## The ULP contract
//!
//! [`Transformer::forward_reference`](crate::transformer::Transformer::forward_reference)
//! is the oracle: straight-line loops with sequential dot products, `libm`'s
//! `exp` and one division per weight. The fused forward is deterministic but
//! not bit-identical to it. It diverges in the four places [`simd`]
//! enumerates — tree-reduced dot products, a polynomial softmax `exp`,
//! reciprocal weight normalisation, and head averaging folded into the
//! weights (the forward also sums the head weights before one combined value
//! mix) — and every attention weight it computes stays within
//! [`SIMD_ULP_BOUND`] = 16 384 ULPs of the reference's. The measured worst case
//! over the differential sweep's shapes, on randomised prompts of up to ~400
//! tokens, is 62 ULPs (≈ 8e-15 relative);
//! `tests/simd_equivalence.rs` and `tests/kernel_equivalence.rs` assert the
//! bound over randomised prompts and model shapes, with the prefix cache off,
//! cold and warm.
//!
//! Within the fused path the results are bit-exact: a cached forward equals
//! an uncached one, a [`ReadOut::QuestionRows`](crate::transformer::ReadOut::QuestionRows)
//! record stores exactly the rows of the full record, and a forward on a
//! recycled scratch buffer equals one on a fresh model. [`residual_normalize`]
//! is shared with the reference's operation order, and [`exact_reciprocal`]
//! only replaces a division where the two round identically.
//!
//! At report level the ULP divergence does not change what a report
//! explains: `tests/kernel_equivalence.rs` runs every registered scenario
//! through the fused model and a reference-forward model and requires equal
//! answers, counterfactuals and insight distributions, and scores and
//! placement objectives within `1e-12` relative.

pub mod simd;

/// Largest ULP distance allowed between an attention weight of the fused
/// forward and the same weight of
/// [`Transformer::forward_reference`](crate::transformer::Transformer::forward_reference).
///
/// The measured worst case over the differential sweep is 62 ULPs; the bound
/// leaves headroom for codegen variation and longer prompts without letting
/// a real defect through (a wrong lane order moves weights by millions of
/// ULPs).
pub const SIMD_ULP_BOUND: u64 = 16_384;

/// `Some(1/d)` when multiplying by it is bit-identical to dividing by `d`.
///
/// That holds exactly when `d` is a (normal, finite) power of two: the
/// reciprocal is then exactly representable, `x / d` and `x * (1/d)` name
/// the same real number, and IEEE-754 round-to-nearest maps equal reals to
/// equal bit patterns. For any other divisor the rounded reciprocal would
/// introduce a second rounding step, so the caller must keep dividing.
pub fn exact_reciprocal(d: f64) -> Option<f64> {
    const MANTISSA_MASK: u64 = (1u64 << 52) - 1;
    if d.is_normal() && d > 0.0 && (d.to_bits() & MANTISSA_MASK) == 0 {
        let inv = 1.0 / d;
        // The reciprocal of a finite power of two can be infinite (d =
        // 2^-1022 has no normal reciprocal partner at the top of the range —
        // it does, 2^1022, but 2^1023 * 2 overflows); guard anyway.
        if inv.is_normal() {
            return Some(inv);
        }
    }
    None
}

/// Fused residual update + renormalisation over all token rows:
/// `hidden[t][d] = 0.5 * hidden[t][d] + 0.5 * mixed[t][d]`, then each row is
/// normalised to unit L2 norm with the shared
/// [`normalize`](crate::embedding::normalize) (identical operation order to
/// the reference's per-row loop).
///
/// ## Zero- and subnormal-norm rows
///
/// `normalize` guards its division with an epsilon: rows whose L2 norm is
/// `<= 1e-12` (all-zero rows, or rows of subnormal residuals whose squares
/// underflow) are left unscaled instead of being divided by (near-)zero.
/// A divide-by-zero here would send NaN through every downstream score and
/// defeat the report layer's `total_cmp` hardening, so the guard is part of
/// the kernel contract and pinned by `residual_normalize_never_produces_nan`
/// below. The same guard runs in the reference path (shared function), so
/// the two stay bit-identical even on degenerate rows.
///
/// ## Shape requirements
///
/// `dim` must be positive and divide the buffer length exactly; both are
/// asserted. (A non-dividing `dim` would previously skip the trailing
/// partial row silently — making it loud is part of the remainder-lane
/// hardening.) Empty buffers are a no-op for any positive `dim`.
pub fn residual_normalize(hidden: &mut [f64], mixed: &[f64], dim: usize) {
    assert_eq!(hidden.len(), mixed.len(), "buffer length mismatch");
    if hidden.is_empty() {
        return;
    }
    assert!(dim > 0, "row dimension must be positive");
    assert_eq!(
        hidden.len() % dim,
        0,
        "buffer length must be a multiple of dim"
    );
    for (h, m) in hidden.chunks_exact_mut(dim).zip(mixed.chunks_exact(dim)) {
        for d in 0..dim {
            h[d] = 0.5 * h[d] + 0.5 * m[d];
        }
        crate::embedding::normalize(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64 step for test data generation.
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

    #[test]
    fn exact_reciprocal_accepts_only_powers_of_two() {
        assert_eq!(exact_reciprocal(2.0), Some(0.5));
        assert_eq!(exact_reciprocal(8.0), Some(0.125));
        assert_eq!(exact_reciprocal(1.0), Some(1.0));
        assert_eq!(exact_reciprocal(3.0), None);
        assert_eq!(exact_reciprocal(6.0), None);
        assert_eq!(exact_reciprocal(0.0), None);
        assert_eq!(exact_reciprocal(-2.0), None);
        assert_eq!(exact_reciprocal(f64::INFINITY), None);
        assert_eq!(exact_reciprocal(f64::NAN), None);
    }

    #[test]
    fn reciprocal_multiplication_matches_division_bitwise() {
        let mut state = 0xDEAD_BEEF;
        for heads in [1.0f64, 2.0, 4.0, 8.0] {
            let inv = exact_reciprocal(heads).unwrap();
            for x in random_vec(&mut state, 1000) {
                assert_eq!((x / heads).to_bits(), (x * inv).to_bits(), "x={x}");
            }
        }
    }

    #[test]
    fn residual_normalize_matches_reference_bitwise() {
        let mut state = 5678;
        let (n, dim) = (7, 32);
        let hidden = random_vec(&mut state, n * dim);
        let mixed = random_vec(&mut state, n * dim);

        let mut reference = hidden.clone();
        for t in 0..n {
            let row = &mut reference[t * dim..(t + 1) * dim];
            for d in 0..dim {
                row[d] = 0.5 * row[d] + 0.5 * mixed[t * dim + d];
            }
            crate::embedding::normalize(row);
        }

        let mut fused = hidden.clone();
        residual_normalize(&mut fused, &mixed, dim);
        for (f, r) in fused.iter().zip(reference.iter()) {
            assert_eq!(f.to_bits(), r.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "keys buffer shape mismatch")]
    fn scores_rejects_bad_shapes() {
        let mut out = vec![0.0; 2];
        simd::scores_into(&[1.0, 2.0], &[1.0, 2.0, 3.0], 2, 1.0, &mut out);
    }

    #[test]
    fn residual_normalize_never_produces_nan() {
        // Zero rows: residual of two zero rows has zero norm; the epsilon
        // guard in `normalize` must leave the row at zero, not NaN.
        let mut hidden = vec![0.0; 8];
        let mixed = vec![0.0; 8];
        residual_normalize(&mut hidden, &mixed, 4);
        assert!(hidden.iter().all(|x| *x == 0.0));

        // Subnormal rows: the squared norm underflows to ~0, tripping the
        // same guard; the row must come back finite (unscaled), never NaN.
        let tiny = f64::MIN_POSITIVE / 4.0; // subnormal
        let mut hidden = vec![tiny; 6];
        let mixed = vec![-tiny; 6];
        residual_normalize(&mut hidden, &mixed, 3);
        assert!(hidden.iter().all(|x| x.is_finite()), "{hidden:?}");

        // Opposite rows cancel exactly: 0.5*h + 0.5*(-h) == 0 per element.
        let mut hidden = vec![1.0, -2.0, 3.0];
        let mixed = vec![-1.0, 2.0, -3.0];
        residual_normalize(&mut hidden, &mixed, 3);
        assert_eq!(hidden, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn residual_normalize_empty_is_noop_for_any_dim() {
        let mut hidden: Vec<f64> = Vec::new();
        residual_normalize(&mut hidden, &[], 0);
        residual_normalize(&mut hidden, &[], 7);
        assert!(hidden.is_empty());
    }

    #[test]
    #[should_panic(expected = "row dimension must be positive")]
    fn residual_normalize_rejects_zero_dim_with_data() {
        let mut hidden = vec![1.0, 2.0];
        residual_normalize(&mut hidden, &[3.0, 4.0], 0);
    }

    #[test]
    #[should_panic(expected = "multiple of dim")]
    fn residual_normalize_rejects_partial_rows() {
        // A trailing partial row used to be skipped silently; now it's loud.
        let mut hidden = vec![1.0; 7];
        let mixed = vec![0.0; 7];
        residual_normalize(&mut hidden, &mixed, 4);
    }
}

//! Lane-parallel (SIMD-shaped) kernel implementations.
//!
//! The toolchain is stable Rust, `rage-llm` forbids `unsafe`, and the target
//! baseline is plain x86-64 — so this module does not call vector intrinsics
//! or `std::simd`. Instead every kernel is written as **fixed-width 4-lane
//! blocks of straight-line scalar code** (`chunks_exact`, no data-dependent
//! branches in the hot loops) that LLVM's auto-vectoriser lowers to packed
//! SSE2 instructions at the default target, and to wider AVX vectors when the
//! build opts into `-C target-cpu`. The lane shape — not the instruction set —
//! is the contract, which keeps results identical across machines.
//!
//! ## Divergence contract (vs. the reference forward)
//!
//! `Transformer::forward_reference` computes every scalar with sequential
//! straight-line loops. These kernels deliberately trade bit-identity with it
//! for throughput in a small, enumerated set of places, every one
//! deterministic and ULP-bounded (see [`super::SIMD_ULP_BOUND`] and
//! `tests/simd_equivalence.rs`):
//!
//! * **Dot-product reductions** ([`scores_into`], [`matvec_into`]): the
//!   accumulation is a fixed 4-lane tree — lane `l` sums elements
//!   `l, l+4, l+8, …` and the four partials combine as
//!   `(a0+a1) + (a2+a3)`. Deterministic, but a different rounding order than
//!   the reference's sequential sum.
//! * **`exp` in the softmax** ([`softmax_exp_inplace`]): a branch-free
//!   degree-12 polynomial (Cody–Waite range reduction, Estrin evaluation)
//!   replaces `libm`'s `exp`, and the row sum is a 4-lane tree. The
//!   polynomial is within a few ULP of `libm` on the softmax domain
//!   `x ∈ [-708, 0]` (the exact bound is measured and asserted in
//!   `kernels::simd::tests`); inputs below `-708` flush to zero where `libm`
//!   would return a subnormal `< 1e-307`.
//! * **Weight normalisation** ([`weights_inplace`]): one division computes
//!   the reciprocal of the row sum, then every weight multiplies by it. The
//!   reference divides each weight individually; the reciprocal form is
//!   within ~2 ULP of it per weight but turns `n` long-latency divisions per
//!   row into one.
//! * **Value-mix head averaging** (the weights [`mix_tiled`] consumes, and
//!   [`mix_accumulate`]): the `1/heads` factor is folded into each weight
//!   once per key rather than applied per element. Exact — and therefore
//!   still bit-identical — when `heads` is a power of two (every default
//!   model); ULP-divergent otherwise.
//!
//! The residual update ([`super::residual_normalize`]) is shared with the
//! reference's operation order: it is already lane-parallel across
//! independent outputs, the auto-vectoriser handles it well, and keeping it
//! exact keeps the divergence surface small.

/// Lane width of the hand-unrolled blocks. Four `f64` lanes = two SSE2
/// vectors (the stable-Rust baseline) or one AVX2 vector.
const LANES: usize = 4;

/// Tree-reduced dot product: 4 striped lane accumulators combined as
/// `(a0+a1) + (a2+a3)`. Remainder elements (when `len % 4 != 0`) land in
/// lanes `0..len%4`, so every length has one fixed, documented order.
///
/// Lanes start at `-0.0`, the float-sum identity, so degenerate all-zero
/// dots carry the same sign bit as the `.sum()` reference (empty sum is
/// `-0.0`, not `+0.0`).
#[inline(always)]
fn dot_tree(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = [-0.0f64; LANES];
    let mut ac = a.chunks_exact(LANES);
    let mut bc = b.chunks_exact(LANES);
    for (ca, cb) in (&mut ac).zip(&mut bc) {
        acc[0] += ca[0] * cb[0];
        acc[1] += ca[1] * cb[1];
        acc[2] += ca[2] * cb[2];
        acc[3] += ca[3] * cb[3];
    }
    for (l, (x, y)) in ac.remainder().iter().zip(bc.remainder()).enumerate() {
        acc[l] += x * y;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Scaled dot-product scores of one query row against a block of key rows:
/// `out[k] = dot(query, keys[k]) * scale` for every row `k` of `keys`, where
/// `keys` is a flat row-major `out.len() × key_dim` buffer. The dots are
/// tree-reduced (see the module docs for the divergence bound).
///
/// One key row per `dot_tree` call. A four-row-blocked variant (sixteen
/// interleaved accumulator chains) was measured *slower* on the forward
/// pass — the extra register pressure costs more than the amortised loop
/// overhead buys at head-sized `key_dim` — so the simple form stays.
pub fn scores_into(query: &[f64], keys: &[f64], key_dim: usize, scale: f64, out: &mut [f64]) {
    let n = out.len();
    assert_eq!(keys.len(), n * key_dim, "keys buffer shape mismatch");
    assert_eq!(query.len(), key_dim, "query length mismatch");
    if key_dim == 0 {
        // Zero-dimension keys: every dot product is the empty sum, whose
        // identity element (matching `Iterator::sum`) is `-0.0`.
        out.fill(-0.0);
        return;
    }
    for (o, row) in out.iter_mut().zip(keys.chunks_exact(key_dim)) {
        *o = dot_tree(query, row) * scale;
    }
}

/// Dense row-major matrix–vector product, `out[r] = dot(matrix.row(r), x)`,
/// used for the per-head query/key projection of one token's hidden state. A
/// matvec is one unscaled score row with the matrix rows as keys.
pub fn matvec_into(matrix: &[f64], rows: usize, cols: usize, x: &[f64], out: &mut [f64]) {
    assert_eq!(matrix.len(), rows * cols, "matrix shape mismatch");
    assert_eq!(x.len(), cols, "input length mismatch");
    assert_eq!(out.len(), rows, "output length mismatch");
    scores_into(x, matrix, cols, 1.0, out);
}

// --- Branch-free polynomial exp over the softmax domain ---------------------

const LOG2_E: f64 = std::f64::consts::LOG2_E;
/// High/low split of ln(2) for Cody–Waite range reduction: `LN2_HI` carries
/// the leading bits exactly, so `x - k*LN2_HI` is exact for the `k` range in
/// play, and `LN2_LO` corrects the truncation.
const LN2_HI: f64 = 6.931_471_803_691_238e-1;
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
/// Inputs below this flush to zero. `exp(-708)` ≈ 3.3e-308 is still a normal
/// double, so the power-of-two scale `2^k` below never needs the subnormal
/// exponent range (which would cost a branch or a two-step scale per lane).
/// The true `exp` of anything in `(-745, -708)` is below `1e-307`; flushing
/// it to zero changes a softmax weight by less than `1e-290` relative to any
/// row whose maximum defines the scale.
const EXP_FLUSH: f64 = -708.0;
/// `1.5 · 2^52`. Adding it to a double in `[-2^51, 2^51]` forces rounding at
/// the integer ulp (the sum lands in the `[2^52, 2^53)` binade, where the
/// mantissa step is exactly 1), so `(y + MAGIC) - MAGIC` is
/// round-to-nearest-even of `y` — and `(kf + MAGIC).to_bits()` is `MAGIC`'s
/// bit pattern plus the integer `kf`, which hands the exponent to the scale
/// step as pure integer lane arithmetic.
const MAGIC: f64 = 6_755_399_441_055_744.0;

// Taylor coefficients 1/n! for the degree-12 `exp(r)` polynomial, shared by
// the scalar-call and four-lane forms below.
const C3: f64 = 1.0 / 6.0;
const C4: f64 = 1.0 / 24.0;
const C5: f64 = 1.0 / 120.0;
const C6: f64 = 1.0 / 720.0;
const C7: f64 = 1.0 / 5040.0;
const C8: f64 = 1.0 / 40320.0;
const C9: f64 = 1.0 / 362_880.0;
const C10: f64 = 1.0 / 3_628_800.0;
const C11: f64 = 1.0 / 39_916_800.0;
const C12: f64 = 1.0 / 479_001_600.0;

/// Branch-free `exp(x)` for `x <= 0`, within a few ULP of `libm` on
/// `[EXP_FLUSH, 0]` (bound measured and asserted in tests), flushing to `0.0`
/// below `EXP_FLUSH`. NaN inputs are clamped to `EXP_FLUSH` (the softmax
/// never produces them: scores are finite by construction).
///
/// Shape: Cody–Waite reduction `x = k·ln2 + r` with `|r| ≤ ln2/2`, a
/// degree-12 Taylor polynomial for `exp(r)` evaluated in Estrin form (short
/// dependency chains so four interleaved lanes pipeline), and an exact
/// power-of-two scale built directly from the exponent bits.
///
/// There is deliberately no `f64 → i32` cast anywhere: Rust's saturating
/// float casts lower to scalar `cvttsd2si` plus clamp logic at the SSE2
/// baseline, which serialises the whole four-lane pipeline. The [`MAGIC`]
/// binade-shift trick keeps both the rounding and the exponent extraction in
/// packed float/integer ops.
#[inline(always)]
fn exp_lane(x: f64) -> f64 {
    // Comparison select rather than `f64::max`: one `maxsd`, and the exact
    // clamp the four-lane form uses, keeping the two bit-identical.
    let xc = if x > EXP_FLUSH { x } else { EXP_FLUSH };
    let y = xc * LOG2_E;
    // round-to-nearest-even of y, no float→int cast (see MAGIC).
    let kf = (y + MAGIC) - MAGIC;
    let r = (xc - kf * LN2_HI) - kf * LN2_LO;
    let r2 = r * r;
    let r4 = r2 * r2;
    let r8 = r4 * r4;
    let p0123 = (1.0 + r) + (0.5 + C3 * r) * r2;
    let p4567 = (C4 + C5 * r) + (C6 + C7 * r) * r2;
    let p89ab = (C8 + C9 * r) + (C10 + C11 * r) * r2;
    let p = (p0123 + p4567 * r4) + (p89ab + C12 * r4) * r8;
    // kf ∈ [-1021, 0] here, so the biased exponent 1023 + kf stays in range
    // and the scale is a normal power of two; the final multiply is exact.
    // (kf + MAGIC) has MAGIC's bits plus kf; strip MAGIC's mantissa (2^51),
    // add the bias, and shift the exponent into place — the binade bits of
    // MAGIC fall off the top of the 52-bit shift.
    let k_bits = (kf + MAGIC).to_bits();
    let scale = f64::from_bits(
        k_bits
            .wrapping_sub(1u64 << 51)
            .wrapping_add(1023)
            .wrapping_shl(52),
    );
    let v = scale * p;
    if x < EXP_FLUSH {
        0.0
    } else {
        v
    }
}

/// Four [`exp_lane`]s in lockstep: every stage is a lane loop over
/// `[f64; LANES]` arrays, so the vectoriser emits packed ops stage by stage.
///
/// Calling `exp_lane` four times in a row does *not* get there — superword
/// vectorisation gives up on the select/bit-cast tails of the four inlined
/// bodies and leaves most of the polynomial scalar (measured ~2× slower than
/// this form on the softmax hot loop). Per lane the operation sequence here
/// is exactly [`exp_lane`]'s, so the two are bit-identical for every input —
/// asserted in tests, and what lets the remainder path below fall back to
/// [`exp_lane`] without a divergence seam at `len % 4` boundaries.
#[inline(always)]
fn exp4(x: [f64; LANES]) -> [f64; LANES] {
    let mut xc = [0.0f64; LANES];
    for l in 0..LANES {
        xc[l] = if x[l] > EXP_FLUSH { x[l] } else { EXP_FLUSH };
    }
    let mut kf = [0.0f64; LANES];
    for l in 0..LANES {
        kf[l] = (xc[l] * LOG2_E + MAGIC) - MAGIC;
    }
    let mut p = [0.0f64; LANES];
    for l in 0..LANES {
        let r = (xc[l] - kf[l] * LN2_HI) - kf[l] * LN2_LO;
        let r2 = r * r;
        let r4 = r2 * r2;
        let r8 = r4 * r4;
        let p0123 = (1.0 + r) + (0.5 + C3 * r) * r2;
        let p4567 = (C4 + C5 * r) + (C6 + C7 * r) * r2;
        let p89ab = (C8 + C9 * r) + (C10 + C11 * r) * r2;
        p[l] = (p0123 + p4567 * r4) + (p89ab + C12 * r4) * r8;
    }
    let mut v = [0.0f64; LANES];
    for l in 0..LANES {
        let k_bits = (kf[l] + MAGIC).to_bits();
        let scale = f64::from_bits(
            k_bits
                .wrapping_sub(1u64 << 51)
                .wrapping_add(1023)
                .wrapping_shl(52),
        );
        v[l] = scale * p[l];
    }
    for l in 0..LANES {
        v[l] = if x[l] < EXP_FLUSH { 0.0 } else { v[l] };
    }
    v
}

/// Numerically-stable softmax, first half: subtract the row maximum and
/// exponentiate in place, returning the sum of the exponentials. 4-lane
/// striped maximum (order-insensitive for the finite scores the transformer
/// produces), polynomial `exp` (see `exp_lane`) and a 4-lane tree sum.
pub fn softmax_exp_inplace(scores: &mut [f64]) -> f64 {
    // Striped maximum. Max is associative and commutative over non-NaN
    // inputs, so the lane order cannot change the result. The comparison
    // select (rather than `f64::max`) matters: `f64::max`'s NaN-propagation
    // semantics cost a five-instruction compare/blend sequence per lane,
    // while `if a > b { a } else { b }` is exactly one packed `maxpd`.
    let mut m = [f64::NEG_INFINITY; LANES];
    let mut it = scores.chunks_exact(LANES);
    for ch in &mut it {
        for (lane, &v) in m.iter_mut().zip(ch) {
            *lane = if v > *lane { v } else { *lane };
        }
    }
    let mut max = {
        let m01 = if m[0] > m[1] { m[0] } else { m[1] };
        let m23 = if m[2] > m[3] { m[2] } else { m[3] };
        if m01 > m23 {
            m01
        } else {
            m23
        }
    };
    for &v in it.remainder() {
        if v > max {
            max = v;
        }
    }

    let mut sum = [0.0f64; LANES];
    let mut it = scores.chunks_exact_mut(LANES);
    for ch in &mut it {
        let e = exp4([ch[0] - max, ch[1] - max, ch[2] - max, ch[3] - max]);
        ch.copy_from_slice(&e);
        for (s, ev) in sum.iter_mut().zip(e) {
            *s += ev;
        }
    }
    for (l, v) in it.into_remainder().iter_mut().enumerate() {
        let e = exp_lane(*v - max);
        *v = e;
        sum[l] += e;
    }
    (sum[0] + sum[1]) + (sum[2] + sum[3])
}

/// Softmax, second half: turn the exponentiated row into attention weights
/// by multiplying every entry by the reciprocal of `sum` instead of dividing
/// each one.
///
/// One division (the reciprocal) replaces `n` — division is the longest
/// latency/lowest throughput float op on every x86-64 generation, and the
/// reference's softmax second half is pure division. The cost is
/// divergence: `w * (1/s)` rounds twice where `w / s` rounds once, so each
/// weight may differ from the reference's by ~2 ULP (asserted in tests). Degenerate sums (`0`, `inf`, NaN) propagate through the
/// reciprocal exactly as they would through per-element division signwise —
/// the transformer never produces them (row sums of positive finite
/// exponentials), and rows stay finite for every finite positive `sum`.
pub fn weights_inplace(weights: &mut [f64], sum: f64) {
    let inv = 1.0 / sum;
    for w in weights.iter_mut() {
        *w *= inv;
    }
}

/// Per-query value mix: accumulate the attention-weighted, head-averaged
/// value rows into one query's mixed vector. The head average is folded into
/// each weight once per key (`w' = w/heads`, then `out[d] += w' * v[d]`)
/// instead of once per element; the additions keep the reference's
/// ascending-`k` order per scalar.
///
/// When `heads` is a power of two the fold is exact — scaling by `2^-k`
/// commutes with the product's single rounding — so the result is
/// bit-identical to the reference's per-element `(w*v)/heads`, which covers
/// every default model configuration. For other head counts the weight fold
/// rounds once (`w * (1/heads)` via reciprocal), making each output
/// ULP-divergent; `tests/simd_equivalence.rs` pins both cases.
///
/// This kernel is not on the forward path:
/// [`Transformer::forward_cached`](crate::transformer::Transformer::forward_cached)
/// mixes every layer with [`mix_tiled`] over head-folded weights. It stays as
/// the per-query oracle that `mix_tiled` must match bit for bit.
pub fn mix_accumulate(weights: &[f64], values: &[f64], dim: usize, heads: f64, out: &mut [f64]) {
    let n = weights.len();
    assert_eq!(values.len(), n * dim, "values buffer shape mismatch");
    assert_eq!(out.len(), dim, "output row length mismatch");
    let inv = super::exact_reciprocal(heads).unwrap_or(1.0 / heads);
    let mut k = 0;
    while k + LANES <= n {
        let base = k * dim;
        let r0 = &values[base..base + dim];
        let r1 = &values[base + dim..base + 2 * dim];
        let r2 = &values[base + 2 * dim..base + 3 * dim];
        let r3 = &values[base + 3 * dim..base + 4 * dim];
        let (w0, w1, w2, w3) = (
            weights[k] * inv,
            weights[k + 1] * inv,
            weights[k + 2] * inv,
            weights[k + 3] * inv,
        );
        for d in 0..dim {
            // One load/store of out[d] per four keys, ascending-k addition
            // order per scalar, exactly as in the reference — only the
            // weight fold differs.
            let mut acc = out[d];
            acc += w0 * r0[d];
            acc += w1 * r1[d];
            acc += w2 * r2[d];
            acc += w3 * r3[d];
            out[d] = acc;
        }
        k += LANES;
    }
    while k < n {
        let row = &values[k * dim..(k + 1) * dim];
        let w = weights[k] * inv;
        for d in 0..dim {
            out[d] += w * row[d];
        }
        k += 1;
    }
}

/// Keys per tile of the blocked value mix: 64 value rows of the default
/// 32-dim hidden state are 16 KB — half of a typical L1d — so a tile stays
/// resident while every query block consumes it.
const MIX_KEY_TILE: usize = 64;

/// Tiled whole-matrix value mix: `weights` is `q_rows` contiguous `n`-wide
/// weight rows **already averaged over heads by the caller**, `values` the
/// `n × dim` hidden buffer, and every output element accumulates
/// `out[q][d] += Σ_k weights[q][k] · values[k][d]` in ascending-`k` order.
///
/// Per element this is exactly the operation sequence of one
/// [`mix_accumulate`] call per query (the caller's weight fold stands in for
/// the per-key fold there): the key loop is split into ascending
/// `MIX_KEY_TILE`-sized tiles and the queries into blocks of four, but
/// each `out` element still sees one ascending-`k` addition chain, so the
/// tiling is bit-identical to the per-query kernel — asserted in tests.
/// What changes is the memory schedule: the values (every token's hidden
/// row, `n·dim` doubles — the largest working set in the forward pass) no
/// longer stream through L2 once per query; a key tile is read once and
/// reused from L1 by all query blocks, and register-tiled 4×4 accumulation
/// keeps the inner loop FLOP-bound. At report-sized contexts that cuts the
/// mix's L2 traffic several-fold, which is worth more than any further
/// arithmetic tuning.
pub fn mix_tiled(weights: &[f64], values: &[f64], dim: usize, out: &mut [f64]) {
    assert!(dim > 0, "mix_tiled requires dim > 0");
    assert_eq!(values.len() % dim, 0, "values buffer shape mismatch");
    assert_eq!(out.len() % dim, 0, "out buffer shape mismatch");
    let n = values.len() / dim;
    let q_rows = out.len() / dim;
    assert_eq!(weights.len(), q_rows * n, "weights buffer shape mismatch");
    let d_tiles = dim / LANES;
    let mut k0 = 0;
    while k0 < n {
        let kt = MIX_KEY_TILE.min(n - k0);
        let mut q0 = 0;
        while q0 + 4 <= q_rows {
            let wr0 = &weights[q0 * n + k0..q0 * n + k0 + kt];
            let wr1 = &weights[(q0 + 1) * n + k0..(q0 + 1) * n + k0 + kt];
            let wr2 = &weights[(q0 + 2) * n + k0..(q0 + 2) * n + k0 + kt];
            let wr3 = &weights[(q0 + 3) * n + k0..(q0 + 3) * n + k0 + kt];
            for t in 0..d_tiles {
                let d0 = t * LANES;
                // 4 queries × 4 dims of accumulators live in registers
                // across the key tile; out is read and written once per
                // (key tile, dim tile) pair.
                let mut acc = [[0.0f64; LANES]; 4];
                for (q, a) in acc.iter_mut().enumerate() {
                    a.copy_from_slice(&out[(q0 + q) * dim + d0..(q0 + q) * dim + d0 + LANES]);
                }
                for j in 0..kt {
                    let row = &values[(k0 + j) * dim + d0..(k0 + j) * dim + d0 + LANES];
                    let (w0, w1, w2, w3) = (wr0[j], wr1[j], wr2[j], wr3[j]);
                    for l in 0..LANES {
                        acc[0][l] += w0 * row[l];
                        acc[1][l] += w1 * row[l];
                        acc[2][l] += w2 * row[l];
                        acc[3][l] += w3 * row[l];
                    }
                }
                for (q, a) in acc.iter().enumerate() {
                    out[(q0 + q) * dim + d0..(q0 + q) * dim + d0 + LANES].copy_from_slice(a);
                }
            }
            // dim % 4 tail: plain per-element accumulation over the tile,
            // same ascending-k order.
            for d in d_tiles * LANES..dim {
                for (q, ws) in [wr0, wr1, wr2, wr3].iter().enumerate() {
                    let mut a = out[(q0 + q) * dim + d];
                    for (j, w) in ws.iter().enumerate() {
                        a += w * values[(k0 + j) * dim + d];
                    }
                    out[(q0 + q) * dim + d] = a;
                }
            }
            q0 += 4;
        }
        // q_rows % 4 tail: one query at a time over the same key tile.
        for q in q0..q_rows {
            let ws = &weights[q * n + k0..q * n + k0 + kt];
            for (j, w) in ws.iter().enumerate() {
                let row = &values[(k0 + j) * dim..(k0 + j + 1) * dim];
                let dst = &mut out[q * dim..(q + 1) * dim];
                for (o, v) in dst.iter_mut().zip(row) {
                    *o += w * v;
                }
            }
        }
        k0 += kt;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(state: &mut u64) -> f64 {
        (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn ulp_distance(a: f64, b: f64) -> u64 {
        (a.to_bits() as i64 - b.to_bits() as i64).unsigned_abs()
    }

    /// The documented accuracy bound of the polynomial exp on the softmax
    /// domain. Measured max over 500k random points is 3 ULP; asserted at 8
    /// so an unrelated codegen change has headroom without silencing a real
    /// regression.
    #[test]
    fn exp_lane_is_within_ulp_bound_of_libm() {
        let mut state = 0x5EED_0E21 ^ 0xA5A5;
        let mut worst = 0u64;
        for _ in 0..500_000 {
            let x = -unit(&mut state) * 708.0;
            let ours = exp_lane(x);
            let libm = x.exp();
            worst = worst.max(ulp_distance(ours, libm));
        }
        assert!(worst <= 8, "exp_lane diverged by {worst} ULP from libm");
    }

    #[test]
    fn exp_lane_edge_cases() {
        // Exact at zero (both signed zeros), monotone flush below the cutoff,
        // and total on non-finite garbage.
        assert_eq!(exp_lane(0.0), 1.0);
        assert_eq!(exp_lane(-0.0), 1.0);
        assert_eq!(exp_lane(-1e-300), 1.0);
        assert!(exp_lane(EXP_FLUSH) > 0.0);
        assert_eq!(exp_lane(EXP_FLUSH - 0.001), 0.0);
        assert_eq!(exp_lane(-1e9), 0.0);
        assert_eq!(exp_lane(f64::NEG_INFINITY), 0.0);
        assert!(exp_lane(f64::NAN).is_finite());
    }

    #[test]
    fn exp4_is_bit_identical_to_exp_lane() {
        // The four-lane form must be a pure re-layout of exp_lane — any
        // per-lane arithmetic drift would make softmax results depend on a
        // score's position modulo 4.
        let mut state = 0xE4;
        for _ in 0..100_000 {
            let xs = [
                -unit(&mut state) * 800.0,
                -unit(&mut state) * 800.0,
                -unit(&mut state) * 800.0,
                -unit(&mut state) * 800.0,
            ];
            let lanes = exp4(xs);
            for (x, got) in xs.iter().zip(lanes) {
                assert_eq!(got.to_bits(), exp_lane(*x).to_bits(), "x={x}");
            }
        }
        let edges = [0.0, -0.0, EXP_FLUSH, EXP_FLUSH - 0.001, f64::NEG_INFINITY];
        let lanes = exp4([edges[0], edges[1], edges[2], edges[3]]);
        for (x, got) in edges.iter().take(LANES).zip(lanes) {
            assert_eq!(got.to_bits(), exp_lane(*x).to_bits(), "edge x={x}");
        }
    }

    #[test]
    fn tree_dot_matches_sequential_within_tolerance() {
        let mut state = 0xD07;
        for len in 0..=33usize {
            let a: Vec<f64> = (0..len).map(|_| unit(&mut state) * 2.0 - 1.0).collect();
            let b: Vec<f64> = (0..len).map(|_| unit(&mut state) * 2.0 - 1.0).collect();
            let seq: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            let tree = dot_tree(&a, &b);
            assert!(
                (seq - tree).abs() <= 1e-12 * (1.0 + seq.abs()),
                "len={len}: {seq} vs {tree}"
            );
        }
    }

    #[test]
    fn softmax_rows_stay_distributions() {
        let mut state = 0x50F7;
        for len in 1..=33usize {
            let mut row: Vec<f64> = (0..len).map(|_| (unit(&mut state) - 0.5) * 40.0).collect();
            let sum = softmax_exp_inplace(&mut row);
            assert!(sum > 0.0);
            let total: f64 = row.iter().map(|e| e / sum).sum();
            assert!((total - 1.0).abs() < 1e-12, "len={len}: {total}");
            assert!(row.iter().all(|e| *e >= 0.0 && e.is_finite()));
        }
    }

    #[test]
    fn reciprocal_weights_are_within_two_ulp_of_division() {
        // The documented divergence bound of the reciprocal normalisation:
        // `w * (1/s)` rounds twice where the reference's `w / s` rounds
        // once, which keeps each weight within 2 ULP of the division result.
        let mut state = 0x1E1C;
        for len in 1..=33usize {
            let mut row: Vec<f64> = (0..len).map(|_| (unit(&mut state) - 0.5) * 40.0).collect();
            let sum = softmax_exp_inplace(&mut row);
            let divided: Vec<f64> = row.iter().map(|w| w / sum).collect();
            weights_inplace(&mut row, sum);
            for (i, (ours, oracle)) in row.iter().zip(&divided).enumerate() {
                let ulp = ulp_distance(*ours, *oracle);
                assert!(ulp <= 2, "len={len} i={i}: {ours} vs {oracle} ({ulp} ULP)");
            }
        }
    }

    #[test]
    fn mix_tiled_is_bit_identical_to_per_query_mix_accumulate() {
        // The tiled mix must round exactly like one `mix_accumulate` call
        // per query whose weights were pre-averaged the same way: the key
        // tiling and query blocking reschedule memory, not arithmetic, so
        // every output element keeps the same ascending-k addition chain.
        // Sweep every boundary: dim % 4 tail, q_rows % 4 tail, and key
        // counts straddling MIX_KEY_TILE.
        let mut state = 0xB10C;
        for &n in &[1usize, 2, 5, 8, 63, 64, 65, 104, 130] {
            for &q_rows in &[1usize, 3, 4, 5, 8] {
                for &dim in &[1usize, 4, 7, 8, 10] {
                    let values: Vec<f64> = (0..n * dim)
                        .map(|_| (unit(&mut state) - 0.5) * 2.0)
                        .collect();
                    let weights: Vec<f64> = (0..q_rows * n).map(|_| unit(&mut state)).collect();
                    let mut tiled = vec![0.0f64; q_rows * dim];
                    mix_tiled(&weights, &values, dim, &mut tiled);
                    for q in 0..q_rows {
                        // `mix_accumulate` folds `1/heads` into each weight;
                        // with heads = 1 the fold is the identity, so the
                        // oracle consumes the pre-averaged weights untouched.
                        let mut reference = vec![0.0f64; dim];
                        mix_accumulate(
                            &weights[q * n..(q + 1) * n],
                            &values,
                            dim,
                            1.0,
                            &mut reference,
                        );
                        for d in 0..dim {
                            assert_eq!(
                                tiled[q * dim + d].to_bits(),
                                reference[d].to_bits(),
                                "n={n} q_rows={q_rows} dim={dim} q={q} d={d}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn extreme_score_rows_flush_not_nan() {
        // A row whose minimum is far below the maximum exercises the
        // flush-to-zero tail without producing NaN or Inf anywhere.
        let mut row = vec![0.0, -500.0, -720.0, -1e6, 3.0];
        let sum = softmax_exp_inplace(&mut row);
        assert!(sum.is_finite() && sum > 0.0);
        assert_eq!(row[3], 0.0);
        assert!(row.iter().all(|e| e.is_finite()));
    }
}

//! AVX2 instantiation of the shared kernel driver: 4 residues per
//! instruction.
//!
//! Every slice kernel, NTT butterfly, vector-wide NTT pass and stage
//! schedule, and the base conversion, comes from
//! [`simd_driver!`](super::driver); this file holds only what is particular
//! to 256-bit AVX2. The ISA has no 64-bit unsigned
//! compare, no 64-bit full multiply and no cross-lane two-source permute,
//! so the element helpers build everything from `vpmuludq` 32×32→64
//! partial products and sign-flipped signed compares, and the sub-vector
//! NTT stages (strides 2 and 1) shuffle with 128-bit lane permutes. All of it runs the exact
//! scalar algorithms lane-parallel, so even lazy intermediates match the
//! scalar backend word-for-word.

use core::arch::x86_64::*;

use super::scalar;
use crate::{Modulus, NttTable};

simd_driver! {
    feature: "avx2",
    vector: __m256i,
    lanes: 4,
    load: _mm256_loadu_si256,
    store: _mm256_storeu_si256,
    add: _mm256_add_epi64,
    sub: _mm256_sub_epi64,
    products: [{
        feature: "avx2",
        when: any_modulus,
        consts: barrett,
        mul: barrett_mul,
        mul_acc: barrett_mul_acc,
        shoup_bits: 64,
        shoup_lazy: barrett_shoup_lazy,
    }],
}

// ---------------------------------------------------------------------------
// Element helpers.
// ---------------------------------------------------------------------------

#[inline]
#[target_feature(enable = "avx2")]
fn splat(x: u64) -> __m256i {
    _mm256_set1_epi64x(x as i64)
}

/// Subtracts `b` from lanes where `x >= b` (unsigned, via sign-flipped signed
/// compare). `bs` must be `b ^ sign`, `sign` the broadcast top bit.
#[inline]
#[target_feature(enable = "avx2")]
fn cond_sub(x: __m256i, b: __m256i, bs: __m256i, sign: __m256i) -> __m256i {
    let xs = _mm256_xor_si256(x, sign);
    let lt = _mm256_cmpgt_epi64(bs, xs); // b > x (unsigned)
    _mm256_sub_epi64(x, _mm256_andnot_si256(lt, b))
}

/// Lane bitmask of `v >= bound` (unsigned): flipping both sign bits turns
/// the signed `bound > v` into the unsigned one, whose complement it is.
#[inline]
#[target_feature(enable = "avx2")]
fn ge_mask(v: __m256i, bound: __m256i) -> u32 {
    let sign = splat(1u64 << 63);
    let lt = _mm256_cmpgt_epi64(_mm256_xor_si256(bound, sign), _mm256_xor_si256(v, sign));
    !(_mm256_movemask_pd(_mm256_castsi256_pd(lt)) as u32) & 0xf
}

/// High 64 bits of the unsigned 64×64 product via four 32×32 partials.
#[inline]
#[target_feature(enable = "avx2")]
fn mulhi64(a: __m256i, b: __m256i) -> __m256i {
    let mask32 = splat(0xffff_ffff);
    let a_hi = _mm256_srli_epi64::<32>(a);
    let b_hi = _mm256_srli_epi64::<32>(b);
    // vpmuludq reads only the low 32 bits of each lane, so `a`/`b` stand in
    // for their own low halves.
    let ll = _mm256_mul_epu32(a, b);
    let lh = _mm256_mul_epu32(a, b_hi);
    let hl = _mm256_mul_epu32(a_hi, b);
    let hh = _mm256_mul_epu32(a_hi, b_hi);
    let cross = _mm256_add_epi64(hl, _mm256_srli_epi64::<32>(ll));
    let cross2 = _mm256_add_epi64(lh, _mm256_and_si256(cross, mask32));
    _mm256_add_epi64(
        hh,
        _mm256_add_epi64(_mm256_srli_epi64::<32>(cross), _mm256_srli_epi64::<32>(cross2)),
    )
}

/// Low 64 bits of the unsigned 64×64 product.
#[inline]
#[target_feature(enable = "avx2")]
fn mullo64(a: __m256i, b: __m256i) -> __m256i {
    let a_hi = _mm256_srli_epi64::<32>(a);
    let b_hi = _mm256_srli_epi64::<32>(b);
    let ll = _mm256_mul_epu32(a, b);
    let mid = _mm256_add_epi64(_mm256_mul_epu32(a, b_hi), _mm256_mul_epu32(a_hi, b));
    _mm256_add_epi64(ll, _mm256_slli_epi64::<32>(mid))
}

/// Broadcast reduction constants: `q`, `2q` and their sign-flipped copies
/// for [`cond_sub`].
#[derive(Clone, Copy)]
struct Consts {
    q: __m256i,
    q_s: __m256i,
    two_q: __m256i,
    two_q_s: __m256i,
    sign: __m256i,
}

#[inline]
#[target_feature(enable = "avx2")]
fn consts(m: &Modulus) -> Consts {
    let sign = splat(1u64 << 63);
    let q = splat(m.value());
    let two_q = splat(m.two_q());
    Consts {
        q,
        q_s: _mm256_xor_si256(q, sign),
        two_q,
        two_q_s: _mm256_xor_si256(two_q, sign),
        sign,
    }
}

#[inline]
#[target_feature(enable = "avx2")]
fn csub_q(c: Consts, x: __m256i) -> __m256i {
    cond_sub(x, c.q, c.q_s, c.sign)
}

#[inline]
#[target_feature(enable = "avx2")]
fn csub_2q(c: Consts, x: __m256i) -> __m256i {
    cond_sub(x, c.two_q, c.two_q_s, c.sign)
}

/// Broadcast constants for lane-parallel Barrett reduction (see
/// `Modulus::barrett_mu`): `qhat = ((x >> (k-1)) * mu) >> (k+1)` with
/// `mu = floor(2^2k / q)` leaves `x - qhat*q` below `3q`.
#[derive(Clone, Copy)]
struct Barrett {
    r: Consts,
    mu: __m256i,
    sh_lo: __m256i,  // k - 1
    sh_hi: __m256i,  // 65 - k
    sh_qlo: __m256i, // k + 1
    sh_qhi: __m256i, // 63 - k
}

#[inline]
#[target_feature(enable = "avx2")]
fn barrett(m: &Modulus) -> Barrett {
    let k = m.barrett_k() as u64;
    Barrett {
        r: consts(m),
        mu: splat(m.barrett_mu()),
        sh_lo: splat(k - 1),
        sh_hi: splat(65 - k),
        sh_qlo: splat(k + 1),
        sh_qhi: splat(63 - k),
    }
}

/// Canonical product `a * b mod q` for canonical lanes.
#[inline]
#[target_feature(enable = "avx2")]
fn barrett_mul(c: Barrett, a: __m256i, b: __m256i) -> __m256i {
    let lo = mullo64(a, b);
    let hi = mulhi64(a, b);
    // c1 = floor(x / 2^(k-1)), a (k+1)-bit quotient seed.
    let c1 = _mm256_or_si256(_mm256_sllv_epi64(hi, c.sh_hi), _mm256_srlv_epi64(lo, c.sh_lo));
    let mlo = mullo64(c1, c.mu);
    let mhi = mulhi64(c1, c.mu);
    // qhat = floor(c1 * mu / 2^(k+1)) >= floor(x/q) - 2.
    let qhat = _mm256_or_si256(_mm256_sllv_epi64(mhi, c.sh_qhi), _mm256_srlv_epi64(mlo, c.sh_qlo));
    // x - qhat*q < 3q fits u64, so low-64 arithmetic is exact.
    let r = _mm256_sub_epi64(lo, mullo64(qhat, c.r.q));
    csub_q(c.r, csub_2q(c.r, r))
}

/// Canonical `s + a * b mod q` for canonical lanes.
#[inline]
#[target_feature(enable = "avx2")]
fn barrett_mul_acc(c: Barrett, s: __m256i, a: __m256i, b: __m256i) -> __m256i {
    csub_q(c.r, _mm256_add_epi64(s, barrett_mul(c, a, b)))
}

/// Shoup product without correction: `a*w - floor(a*ws / 2^64) * q` in
/// `[0, 2q)` for any `a` — the scalar `mul_shoup_lazy`, lane-parallel.
#[inline]
#[target_feature(enable = "avx2")]
fn barrett_shoup_lazy(c: Barrett, a: __m256i, w: __m256i, ws: __m256i) -> __m256i {
    _mm256_sub_epi64(mullo64(a, w), mullo64(mulhi64(a, ws), c.r.q))
}

/// `y as f64` per lane, rounded exactly as the scalar conversion rounds
/// (AVX2 has no 64-bit integer conversion): the halves become the exact
/// doubles `2^84 + hi * 2^32` and `2^52 + lo`; subtracting `2^84 + 2^52`
/// from the first is exact, so the closing add rounds `y` once.
#[inline]
#[target_feature(enable = "avx2")]
fn u64_to_f64(y: __m256i) -> __m256d {
    let hi = _mm256_or_si256(_mm256_srli_epi64::<32>(y), splat(0x4530_0000_0000_0000));
    let lo = _mm256_blend_epi32::<0b1010_1010>(y, splat(0x4330_0000_0000_0000));
    let hi = _mm256_sub_pd(
        _mm256_castsi256_pd(hi),
        _mm256_set1_pd(f64::from_bits(0x4530_0000_0010_0000)),
    );
    _mm256_add_pd(hi, _mm256_castsi256_pd(lo))
}

/// The exact base conversion's `alpha = floor(Σ_i y_i * inv_q[i] + 1/2)`
/// per lane, for `B` vectors of coefficients (`ys[i]` holds `y_i`):
/// [`u64_to_f64`], then separately rounded multiplies and adds in source
/// order from `0.0` — the scalar loop's arithmetic, so bit-identical to
/// it. `alpha` is at most the source limb count, so the 32-bit truncating
/// conversion is exact.
#[inline]
#[target_feature(enable = "avx2")]
fn hps_alpha<const B: usize>(ys: &[[__m256i; B]], inv_q: &[f64]) -> [__m256i; B] {
    let mut v = [_mm256_setzero_pd(); B];
    for (y, &inv) in ys.iter().zip(inv_q) {
        let inv = _mm256_set1_pd(inv);
        for (v, &y) in v.iter_mut().zip(y) {
            *v = _mm256_add_pd(*v, _mm256_mul_pd(u64_to_f64(y), inv));
        }
    }
    // The sums are non-negative, so truncating is the floor.
    let mut alpha = [splat(0); B];
    for (a, v) in alpha.iter_mut().zip(v) {
        *a = _mm256_cvtepi32_epi64(_mm256_cvttpd_epi32(_mm256_add_pd(v, _mm256_set1_pd(0.5))));
    }
    alpha
}

/// # Safety
///
/// `i + LANES <= perm.len()` and those indices are below `src.len()`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn gather(src: &[u64], perm: &[u32], i: usize) -> __m256i {
    // SAFETY: the index load is in bounds and every gathered address lies
    // inside src, both by the caller's contract.
    unsafe {
        let idx = _mm_loadu_si128(perm.as_ptr().add(i).cast());
        _mm256_i32gather_epi64::<8>(src.as_ptr().cast(), idx)
    }
}

// ---------------------------------------------------------------------------
// NTT lane shuffles for the sub-vector stages.
// ---------------------------------------------------------------------------

/// The AVX2 shuffles need no precomputed index vectors: the sub-vector
/// stride `t` alone picks them.
type SmallIdx = usize;

#[inline]
fn small_idx(t: usize) -> SmallIdx {
    t
}

/// Splits an 8-element run `(v0, v1)` into all-`x`/all-`y` vectors for
/// sub-vector stride `t in {1, 2}` and loads the matching per-lane
/// twiddles (AVX2 has no `permutex2var`, hence the 128-bit lane permutes).
/// Its products are all 64-bit, so the companions stay in radix `2^64`.
///
/// # Safety
///
/// `k0 + 4/t <= w.len()` and likewise for `sh` (the stage reads one twiddle
/// per group, `4/t` groups per run).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn sub_split(
    v0: __m256i,
    v1: __m256i,
    &t: &SmallIdx,
    w: &[u64],
    sh: &[u64],
    bits: u32,
    k0: usize,
) -> (__m256i, __m256i, Tw) {
    debug_assert!(matches!(t, 1 | 2));
    debug_assert!(k0 + LANES / t <= w.len() && k0 + LANES / t <= sh.len());
    debug_assert_eq!(bits, 64, "AVX2 lists only 64-bit products");
    // SAFETY: caller guarantees the twiddle loads are in-bounds.
    unsafe {
        if t == 1 {
            // v0 = [x0 y0 x1 y1], v1 = [x2 y2 x3 y3]: unpack gives
            // x = [x0 x2 x1 x3] — twiddles follow with the matching
            // [0 2 1 3] permutation.
            let x = _mm256_unpacklo_epi64(v0, v1);
            let y = _mm256_unpackhi_epi64(v0, v1);
            let tw = Tw {
                w: _mm256_permute4x64_epi64::<0xD8>(ld(w, k0)),
                sh: _mm256_permute4x64_epi64::<0xD8>(ld(sh, k0)),
            };
            (x, y, tw)
        } else {
            // v0 = [x0 x1 y0 y1] (one group), v1 = the next group.
            let x = _mm256_permute2x128_si256::<0x20>(v0, v1);
            let y = _mm256_permute2x128_si256::<0x31>(v0, v1);
            let wpair = _mm256_castsi128_si256(_mm_loadu_si128(w.as_ptr().add(k0).cast()));
            let spair = _mm256_castsi128_si256(_mm_loadu_si128(sh.as_ptr().add(k0).cast()));
            let tw = Tw {
                w: _mm256_permute4x64_epi64::<0x50>(wpair),
                sh: _mm256_permute4x64_epi64::<0x50>(spair),
            };
            (x, y, tw)
        }
    }
}

/// Inverse shuffle of [`sub_split`]: knits butterfly outputs back into run
/// order.
#[inline]
#[target_feature(enable = "avx2")]
fn sub_knit(nx: __m256i, ny: __m256i, &t: &SmallIdx) -> (__m256i, __m256i) {
    if t == 1 {
        (_mm256_unpacklo_epi64(nx, ny), _mm256_unpackhi_epi64(nx, ny))
    } else {
        (
            _mm256_permute2x128_si256::<0x20>(nx, ny),
            _mm256_permute2x128_si256::<0x31>(nx, ny),
        )
    }
}

//! AVX-512 instantiation of the shared kernel driver: 8 residues per
//! instruction.
//!
//! Every slice kernel, NTT butterfly, vector-wide NTT pass and stage
//! schedule, and the base conversion, comes from
//! [`simd_driver!`](super::driver); this file holds only what is particular
//! to 512-bit AVX-512 (`avx512f + avx512dq + avx512vl`): unsigned-min
//! conditional subtracts, `vpmullq`, the `permutex2var` lane shuffles of
//! the three sub-vector NTT strides (4, 2, 1), the `f64` conversions of the
//! base conversion's `alpha`, and two products.
//!
//! Which product runs is decided per call from the moduli and the CPU:
//!
//! - `q < 2^50` on a CPU with `avx512ifma`: every multiply — the NTT
//!   butterflies, the Barrett slice products, the Shoup slice product and
//!   the base conversion — runs on the 52-bit `vpmadd52{lo,hi}uq`
//!   multipliers (the Shoup products only when the kernel's operand bound
//!   is below `2^52`; the butterflies' bound is `4q`). Its base conversion
//!   sums 52-bit halves without reducing ([`ifma_crb_mac`]) while the high
//!   half provably stays below `2^52` ([`ifma_crb_fits`]).
//! - `q >= 2^50`, or no `avx512ifma`: the 64-bit products, each high word
//!   built from four `vpmuludq` partials.
//!
//! The kernel runs one body compiled with the chosen product's features
//! (the IFMA body adds `avx512ifma`), so the product — and, in a transform,
//! every butterfly — is inlined rather than called; the helpers below need
//! only the module's features and inline into either body.
//!
//! Bit-exactness: the 64-bit products run the exact scalar algorithms
//! lane-parallel, so even lazy intermediates match the scalar backend. The
//! 52-bit products use a different radix (`2^52` instead of `2^64`), so a
//! lazy result — an NTT intermediate, or a base conversion's `[0, 2q)`
//! Shoup-lazy sum — may be a different representative, but it keeps the
//! same `[0, 4q)` / `[0, 2q)` bound and congruence, and the final
//! corrections land canonical outputs — which are unique mod q — on the
//! same words.

use core::arch::x86_64::*;

use super::scalar;
use crate::{Modulus, NttTable};

simd_driver! {
    feature: "avx512f,avx512dq,avx512vl",
    vector: __m512i,
    lanes: 8,
    load: _mm512_loadu_si512,
    store: _mm512_storeu_si512,
    add: _mm512_add_epi64,
    sub: _mm512_sub_epi64,
    products: [
        {
            feature: "avx512f,avx512dq,avx512vl,avx512ifma",
            when: ifma_ok,
            consts: barrett_ifma,
            mul: barrett_ifma_mul,
            mul_acc: barrett_ifma_mul_acc,
            shoup_bits: 52,
            shoup_lazy: ifma_shoup_lazy,
            crb_fits: ifma_crb_fits,
            crb_mac: ifma_crb_mac,
            crb_reduce: ifma_crb_reduce,
        },
        {
            feature: "avx512f,avx512dq,avx512vl",
            when: any_modulus,
            consts: barrett,
            mul: barrett_mul,
            mul_acc: barrett_mul_acc,
            shoup_bits: 64,
            shoup_lazy: barrett_shoup_lazy,
        },
    ],
}

// ---------------------------------------------------------------------------
// Element helpers (pure register arithmetic — safe under target_feature 1.1).
// ---------------------------------------------------------------------------

#[inline]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn splat(x: u64) -> __m512i {
    _mm512_set1_epi64(x as i64)
}

/// `min_u(x, x - b)`: subtracts `b` exactly when `x >= b` (the wrapped
/// difference is huge otherwise), i.e. one conditional-subtract step.
#[inline]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn cond_sub(x: __m512i, b: __m512i) -> __m512i {
    _mm512_min_epu64(x, _mm512_sub_epi64(x, b))
}

/// Lane bitmask of `v >= bound` (unsigned).
#[inline]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn ge_mask(v: __m512i, bound: __m512i) -> u32 {
    u32::from(_mm512_cmpge_epu64_mask(v, bound))
}

/// High 64 bits of the unsigned 64×64 product, via four 32×32 partials.
#[inline]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn mulhi64(a: __m512i, b: __m512i) -> __m512i {
    let mask32 = splat(0xffff_ffff);
    let a_hi = _mm512_srli_epi64::<32>(a);
    let b_hi = _mm512_srli_epi64::<32>(b);
    // vpmuludq reads only the low 32 bits of each lane, so `a`/`b` stand in
    // for their own low halves.
    let ll = _mm512_mul_epu32(a, b);
    let lh = _mm512_mul_epu32(a, b_hi);
    let hl = _mm512_mul_epu32(a_hi, b);
    let hh = _mm512_mul_epu32(a_hi, b_hi);
    let cross = _mm512_add_epi64(hl, _mm512_srli_epi64::<32>(ll));
    let cross2 = _mm512_add_epi64(lh, _mm512_and_si512(cross, mask32));
    _mm512_add_epi64(
        hh,
        _mm512_add_epi64(_mm512_srli_epi64::<32>(cross), _mm512_srli_epi64::<32>(cross2)),
    )
}

/// Low 64 bits of the unsigned 64×64 product (`vpmullq`).
#[inline]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn mullo64(a: __m512i, b: __m512i) -> __m512i {
    _mm512_mullo_epi64(a, b)
}

/// Broadcast reduction constants.
#[derive(Clone, Copy)]
struct Consts {
    q: __m512i,
    two_q: __m512i,
}

#[inline]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn consts(m: &Modulus) -> Consts {
    Consts {
        q: splat(m.value()),
        two_q: splat(m.two_q()),
    }
}

#[inline]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn csub_q(c: Consts, x: __m512i) -> __m512i {
    cond_sub(x, c.q)
}

#[inline]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn csub_2q(c: Consts, x: __m512i) -> __m512i {
    cond_sub(x, c.two_q)
}

/// Broadcast constants for lane-parallel Barrett reduction (see
/// `Modulus::barrett_mu`): `qhat = ((x >> (k-1)) * mu) >> (k+1)` with
/// `mu = floor(2^2k / q)` leaves `x - qhat*q` below `3q`.
#[derive(Clone, Copy)]
struct Barrett {
    q: __m512i,
    two_q: __m512i,
    mu: __m512i,
    sh_lo: __m512i,  // k - 1
    sh_hi: __m512i,  // 65 - k
    sh_qlo: __m512i, // k + 1
    sh_qhi: __m512i, // 63 - k
}

#[inline]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn barrett(m: &Modulus) -> Barrett {
    let k = m.barrett_k() as u64;
    Barrett {
        q: splat(m.value()),
        two_q: splat(m.two_q()),
        mu: splat(m.barrett_mu()),
        sh_lo: splat(k - 1),
        sh_hi: splat(65 - k),
        sh_qlo: splat(k + 1),
        sh_qhi: splat(63 - k),
    }
}

/// Canonical product `a * b mod q` for canonical lanes.
#[inline]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn barrett_mul(c: Barrett, a: __m512i, b: __m512i) -> __m512i {
    let lo = mullo64(a, b);
    let hi = mulhi64(a, b);
    // c1 = floor(x / 2^(k-1)), a (k+1)-bit quotient seed.
    let c1 = _mm512_or_si512(_mm512_sllv_epi64(hi, c.sh_hi), _mm512_srlv_epi64(lo, c.sh_lo));
    let mlo = mullo64(c1, c.mu);
    let mhi = mulhi64(c1, c.mu);
    // qhat = floor(c1 * mu / 2^(k+1)) >= floor(x/q) - 2.
    let qhat = _mm512_or_si512(_mm512_sllv_epi64(mhi, c.sh_qhi), _mm512_srlv_epi64(mlo, c.sh_qlo));
    // x - qhat*q < 3q fits u64, so low-64 arithmetic is exact.
    let r = _mm512_sub_epi64(lo, mullo64(qhat, c.q));
    cond_sub(cond_sub(r, c.two_q), c.q)
}

/// Canonical `s + a * b mod q` for canonical lanes.
#[inline]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn barrett_mul_acc(c: Barrett, s: __m512i, a: __m512i, b: __m512i) -> __m512i {
    cond_sub(_mm512_add_epi64(s, barrett_mul(c, a, b)), c.q)
}

/// Shoup product without correction: `a*w - floor(a*ws / 2^64) * q`, in
/// `[0, 2q)` for any `a` (the scalar `mul_shoup_lazy`, lane-parallel).
#[inline]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn barrett_shoup_lazy(c: Barrett, a: __m512i, w: __m512i, ws: __m512i) -> __m512i {
    _mm512_sub_epi64(mullo64(a, w), mullo64(mulhi64(a, ws), c.q))
}

/// Broadcast constants for the IFMA products: the full `a*b` product is
/// formed as two 52-bit halves with `vpmadd52`, and the Barrett quotient is
/// estimated from `mu = floor((2^(k+51) - 1) / q)`, `k` the bit width of `q`.
#[derive(Clone, Copy)]
struct BarrettIfma {
    q: __m512i,
    two_q: __m512i,
    mu: __m512i,
    mask52: __m512i,
    sh_hi: __m512i, // 53 - k
    sh_lo: __m512i, // k - 1
}

/// True when the IFMA products apply: `q < 2^50` (so `3q`, the lazy Barrett
/// bound, and `4q`, the Shoup kernels' operand bound, fit 52 bits) and the
/// CPU has AVX-512 IFMA.
#[inline]
fn ifma_ok(m: &Modulus) -> bool {
    m.value() < (1u64 << 50) && is_x86_feature_detected!("avx512ifma")
}

#[inline]
#[target_feature(enable = "avx512f,avx512dq,avx512vl,avx512ifma")]
fn barrett_ifma(m: &Modulus) -> BarrettIfma {
    let q = m.value();
    let k = m.barrett_k() as u64;
    BarrettIfma {
        q: splat(q),
        two_q: splat(m.two_q()),
        // floor(2^(k+51) / q) for every q that is not a power of two; the
        // -1 keeps a power of two (where the quotient is exactly 2^52) in
        // 52 bits without weakening the error bound below.
        mu: splat((((1u128 << (k + 51)) - 1) / q as u128) as u64),
        mask52: splat((1u64 << 52) - 1),
        sh_hi: splat(53 - k),
        sh_lo: splat(k - 1),
    }
}

/// Lazy IFMA Barrett product `a * b - qhat * q` in `[0, 3q)` for canonical
/// lanes, `q < 2^50` of bit width `k`.
///
/// With `p = a*b < 2^(2k)` split into 52-bit halves, `d = floor(p /
/// 2^(k-1))` fits `k + 1 <= 51` bits and `mu >= 2^(k+51)/q - 1` fits 52, so
/// `d * mu / 2^52 >= p/q - p/2^(k+51) - 2^(k-1)/q > p/q - 3/2` (the two
/// error terms are below 1/2 and at most 1). Hence `floor(p/q) - 2 <= qhat
/// = floor(d * mu / 2^52) <= floor(p/q)`, the remainder is below
/// `3q < 2^52` and the masked low 52-bit difference is exact. At `k = 50`
/// the shifts are 3 and 49 and `mu = floor(2^101 / q)`.
#[inline]
#[target_feature(enable = "avx512f,avx512dq,avx512vl,avx512ifma")]
fn barrett_ifma_mul_lazy(c: BarrettIfma, a: __m512i, b: __m512i) -> __m512i {
    let z = _mm512_setzero_si512();
    let lo = _mm512_madd52lo_epu64(z, a, b);
    let hi = _mm512_madd52hi_epu64(z, a, b);
    let d = _mm512_or_si512(_mm512_sllv_epi64(hi, c.sh_hi), _mm512_srlv_epi64(lo, c.sh_lo));
    let qhat = _mm512_madd52hi_epu64(z, d, c.mu);
    _mm512_and_si512(
        _mm512_sub_epi64(lo, _mm512_madd52lo_epu64(z, qhat, c.q)),
        c.mask52,
    )
}

/// Canonical IFMA product: the lazy product plus the two conditional
/// subtracts mapping `[0, 3q)` to `[0, q)`.
#[inline]
#[target_feature(enable = "avx512f,avx512dq,avx512vl,avx512ifma")]
fn barrett_ifma_mul(c: BarrettIfma, a: __m512i, b: __m512i) -> __m512i {
    cond_sub(cond_sub(barrett_ifma_mul_lazy(c, a, b), c.two_q), c.q)
}

/// Canonical IFMA `s + a * b mod q`: `s < q` plus the lazy product `< 3q`
/// stays under `4q`, so the same two conditional subtracts canonicalize.
#[inline]
#[target_feature(enable = "avx512f,avx512dq,avx512vl,avx512ifma")]
fn barrett_ifma_mul_acc(c: BarrettIfma, s: __m512i, a: __m512i, b: __m512i) -> __m512i {
    let r = _mm512_add_epi64(s, barrett_ifma_mul_lazy(c, a, b));
    cond_sub(cond_sub(r, c.two_q), c.q)
}

/// 52-bit-radix Shoup product: `a*w - floor(a*ws52 / 2^52) * q` in `[0, 2q)`,
/// `ws52 = floor(w * 2^52 / q)`, valid when `a < 2^52` and `2q <= 2^52`.
#[inline]
#[target_feature(enable = "avx512f,avx512dq,avx512vl,avx512ifma")]
fn ifma_shoup_lazy(c: BarrettIfma, a: __m512i, w: __m512i, ws52: __m512i) -> __m512i {
    let z = _mm512_setzero_si512();
    let hi = _mm512_madd52hi_epu64(z, a, ws52);
    let t = _mm512_madd52lo_epu64(z, a, w);
    let u = _mm512_madd52lo_epu64(z, hi, c.q);
    // The true value fits 52 bits, so the wrapped difference masked to the
    // radix is exact.
    _mm512_and_si512(_mm512_sub_epi64(t, u), c.mask52)
}

/// Whether the IFMA CRB sums stay exact: `terms` low halves below `2^52`
/// each fit a 64-bit lane, and a total below `bound < 2^104` keeps its
/// high half — the Shoup operand of [`ifma_crb_reduce`] — below `2^52`.
/// With 50-bit moduli that allows about 15 source limbs.
#[inline]
fn ifma_crb_fits(bound: u128, terms: usize) -> bool {
    bound >> 104 == 0 && terms < 1 << 12
}

/// Adds the 52-bit low and high halves of `y * w` to the two sums: two
/// instructions per term and no reduction. `y`, `w` below `2^52`.
#[inline]
#[target_feature(enable = "avx512f,avx512dq,avx512vl,avx512ifma")]
fn ifma_crb_mac(_c: Consts, acc: (__m512i, __m512i), y: __m512i, w: __m512i, _ws: __m512i) -> (__m512i, __m512i) {
    (_mm512_madd52lo_epu64(acc.0, y, w), _mm512_madd52hi_epu64(acc.1, y, w))
}

/// The canonical residue mod `b` of an [`ifma_crb_mac`] sum
/// `V = acc.1 * 2^52 + acc.0`, reduced once: after carrying the low sum's
/// overflow, `V = hi * 2^52 + lo` with both halves below `2^52`
/// ([`ifma_crb_fits`]), so `hi * (2^52 mod b)` by a radix-`2^52` Shoup
/// product (`fold`) and `lo * 1` by another (`one_sh`, the companion of 1)
/// each land in `[0, 2b)`, and two conditional subtracts canonicalize
/// their sum.
#[inline]
#[target_feature(enable = "avx512f,avx512dq,avx512vl,avx512ifma")]
fn ifma_crb_reduce(c: Consts, acc: (__m512i, __m512i), fold: Tw, one_sh: __m512i) -> __m512i {
    let z = _mm512_setzero_si512();
    let mask52 = splat((1u64 << 52) - 1);
    let hi = _mm512_add_epi64(acc.1, _mm512_srli_epi64::<52>(acc.0));
    let lo = _mm512_and_si512(acc.0, mask52);
    // hi * 2^52 mod b: the true value is below 2b < 2^52, so the masked
    // low-52 difference is exact (as in ifma_shoup_lazy).
    let qh = _mm512_madd52hi_epu64(z, hi, fold.sh);
    let h = _mm512_and_si512(
        _mm512_sub_epi64(_mm512_madd52lo_epu64(z, hi, fold.w), _mm512_madd52lo_epu64(z, qh, c.q)),
        mask52,
    );
    // lo mod b: the quotient estimate never overshoots, so ql * b <= lo
    // and the plain difference is exact.
    let ql = _mm512_madd52hi_epu64(z, lo, one_sh);
    let l = _mm512_sub_epi64(lo, _mm512_madd52lo_epu64(z, ql, c.q));
    cond_sub(cond_sub(_mm512_add_epi64(h, l), c.two_q), c.q)
}

/// The exact base conversion's `alpha = floor(Σ_i y_i * inv_q[i] + 1/2)`
/// per lane, for `B` vectors of coefficients (`ys[i]` holds `y_i`): each
/// `y_i` converted to `f64` as `as f64` rounds it, multiplied and added
/// as separately rounded operations in source order from `0.0` — the
/// scalar loop's arithmetic, so bit-identical to it.
#[inline]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn hps_alpha<const B: usize>(ys: &[[__m512i; B]], inv_q: &[f64]) -> [__m512i; B] {
    let mut v = [_mm512_setzero_pd(); B];
    for (y, &inv) in ys.iter().zip(inv_q) {
        let inv = _mm512_set1_pd(inv);
        for (v, &y) in v.iter_mut().zip(y) {
            *v = _mm512_add_pd(*v, _mm512_mul_pd(_mm512_cvtepu64_pd(y), inv));
        }
    }
    // The sums are non-negative, so truncating is the floor.
    let mut alpha = [splat(0); B];
    for (a, v) in alpha.iter_mut().zip(v) {
        *a = _mm512_cvttpd_epu64(_mm512_add_pd(v, _mm512_set1_pd(0.5)));
    }
    alpha
}

/// # Safety
///
/// `i + LANES <= perm.len()` and those indices are below `src.len()`.
#[inline]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
unsafe fn gather(src: &[u64], perm: &[u32], i: usize) -> __m512i {
    // SAFETY: the index load is in bounds and every gathered address lies
    // inside src, both by the caller's contract.
    unsafe {
        let idx = _mm256_loadu_si256(perm.as_ptr().add(i).cast());
        _mm512_i32gather_epi64::<8>(idx, src.as_ptr().cast())
    }
}

// ---------------------------------------------------------------------------
// NTT lane shuffles for the sub-vector stages.
// ---------------------------------------------------------------------------

/// Lane shuffles for sub-vector strides `t in {1, 2, 4}`: a 16-element run
/// holds `8/t` whole butterfly groups; `permutex2var` splits it into an
/// all-`x` and an all-`y` vector and knits the results back.
#[derive(Clone, Copy)]
struct SmallIdx {
    ix: __m512i,   // x-half lanes from (v0, v1)
    iy: __m512i,   // y-half lanes from (v0, v1)
    out0: __m512i, // first output vector from (x', y')
    out1: __m512i, // second output vector from (x', y')
    rep: __m512i,  // twiddle replication: lane l reads twiddle l/t
}

#[inline]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn small_idx(t: usize) -> SmallIdx {
    let mut ix = [0u64; LANES];
    let mut iy = [0u64; LANES];
    let mut out = [0u64; 2 * LANES];
    let mut rep = [0u64; LANES];
    for l in 0..LANES {
        ix[l] = ((l / t) * 2 * t + l % t) as u64;
        iy[l] = ix[l] + t as u64;
        rep[l] = (l / t) as u64;
    }
    for (e, lane) in out.iter_mut().enumerate() {
        let (g, r) = (e / (2 * t), e % (2 * t));
        // Element e of the run came from x-lane g*t+r (r < t) or y-lane
        // g*t+r-t; permutex2var selects the second operand via lane | 8.
        let from = if r < t { g * t + r } else { g * t + r - t + LANES };
        *lane = from as u64;
    }
    // SAFETY: every load reads LANES words of a local array.
    unsafe {
        SmallIdx {
            ix: ld(&ix, 0),
            iy: ld(&iy, 0),
            out0: ld(&out, 0),
            out1: ld(&out, LANES),
            rep: ld(&rep, 0),
        }
    }
}

/// Splits a 16-element run `(v0, v1)` into all-`x`/all-`y` vectors for one
/// sub-vector stride and loads the matching per-lane twiddles, their
/// companions taken into radix `2^bits`.
///
/// # Safety
///
/// `k0 + 8 <= w.len()` and `k0 + 8 <= sh.len()` (the replication permute may
/// skip trailing lanes of the 8-entry twiddle load, but the load itself must
/// stay inside the tables).
#[inline]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
unsafe fn sub_split(
    v0: __m512i,
    v1: __m512i,
    idx: &SmallIdx,
    w: &[u64],
    sh: &[u64],
    bits: u32,
    k0: usize,
) -> (__m512i, __m512i, Tw) {
    let radix = _mm_cvtsi64_si128(i64::from(64 - bits));
    // SAFETY: caller guarantees 8 entries from k0 are in-bounds.
    let tw = unsafe {
        Tw {
            w: _mm512_permutexvar_epi64(idx.rep, ld(w, k0)),
            sh: _mm512_permutexvar_epi64(idx.rep, _mm512_srl_epi64(ld(sh, k0), radix)),
        }
    };
    (
        _mm512_permutex2var_epi64(v0, idx.ix, v1),
        _mm512_permutex2var_epi64(v0, idx.iy, v1),
        tw,
    )
}

/// Inverse shuffle of [`sub_split`]: knits butterfly outputs back into run
/// order.
#[inline]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn sub_knit(nx: __m512i, ny: __m512i, idx: &SmallIdx) -> (__m512i, __m512i) {
    (
        _mm512_permutex2var_epi64(nx, idx.out0, ny),
        _mm512_permutex2var_epi64(nx, idx.out1, ny),
    )
}

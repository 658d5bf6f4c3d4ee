//! Prime-field arithmetic over a word-sized modulus.

use crate::AutomorphismTable;

/// A prime modulus `q < 2^60` with precomputed constants for fast reduction.
///
/// The strict arithmetic methods expect operands already reduced to `[0, q)`
/// and produce results in `[0, q)`. The `*_lazy` methods implement the
/// relaxed-range ("lazy reduction") arithmetic the NTT kernels use: values
/// are allowed to drift up to `[0, 4q)` between corrections, which is why
/// the modulus is capped at `2^60` — `4q` must fit in a `u64` with headroom
/// for one addition.
///
/// # Example
///
/// ```
/// use cl_math::Modulus;
/// let q = Modulus::new(268_369_921).unwrap(); // 28-bit NTT-friendly prime
/// let a = q.mul(123_456_789, 987_654_321 % q.value());
/// assert!(a < q.value());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Modulus {
    q: u64,
    /// floor(2^128 / q), split into hi/lo 64-bit words (Barrett constant).
    barrett_hi: u64,
    barrett_lo: u64,
    /// bit width of `q` (the `k` of the word-sized Barrett constant below).
    barrett_k: u32,
    /// floor(2^{2k} / q) — single-word Barrett constant used by the vector
    /// backends, where the 128-bit constant above would need four extra
    /// multiplies per lane.
    barrett_mu: u64,
}

impl Modulus {
    /// Creates a modulus. Returns `None` if `q < 2` or `q >= 2^60`.
    ///
    /// The `2^60` cap (rather than the `2^62` a plain Barrett reduction would
    /// allow) guarantees the lazy-reduction NTT invariant: butterfly operands
    /// stay in `[0, 4q)` and `x + 2q - t` with `x, t < 4q` never overflows.
    ///
    /// Primality is not checked here; use [`crate::is_prime`] when a prime is
    /// required.
    pub fn new(q: u64) -> Option<Self> {
        if !(2..(1u64 << 60)).contains(&q) {
            return None;
        }
        // floor(2^128 / q) computed via 128-bit long division in two steps.
        let hi = u128::MAX / q as u128; // floor((2^128 - 1)/q); adjust below
        // (2^128 - 1)/q == (2^128)/q unless q divides 2^128, impossible for q>1 odd;
        // for even q it could differ by at most 0 since 2^128 mod q != 0 when q has
        // an odd factor. q=2^k would be the only problem and is not prime for k>1.
        let barrett_hi = (hi >> 64) as u64;
        let barrett_lo = hi as u64;
        let barrett_k = 64 - q.leading_zeros();
        let barrett_mu = ((1u128 << (2 * barrett_k)) / q as u128) as u64;
        Some(Self {
            q,
            barrett_hi,
            barrett_lo,
            barrett_k,
            barrett_mu,
        })
    }

    /// The modulus value.
    #[inline]
    pub fn value(&self) -> u64 {
        self.q
    }

    /// Number of bits in `q`.
    #[inline]
    pub fn bits(&self) -> u32 {
        64 - self.q.leading_zeros()
    }

    /// Twice the modulus — the reduction bound for lazy operands.
    #[inline]
    pub fn two_q(&self) -> u64 {
        self.q << 1
    }

    /// Conditionally subtracts `2q`, mapping `[0, 4q)` into `[0, 2q)`.
    #[inline]
    pub fn reduce_lazy(&self, a: u64) -> u64 {
        debug_assert!(a < 4 * self.q);
        let two_q = self.two_q();
        if a >= two_q {
            a - two_q
        } else {
            a
        }
    }

    /// Final correction: maps a lazy value in `[0, 4q)` to canonical `[0, q)`.
    #[inline]
    pub fn correct_lazy(&self, a: u64) -> u64 {
        debug_assert!(a < 4 * self.q);
        let mut r = self.reduce_lazy(a);
        if r >= self.q {
            r -= self.q;
        }
        r
    }

    /// Modular addition.
    #[inline]
    pub fn add(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        let s = a + b;
        if s >= self.q {
            s - self.q
        } else {
            s
        }
    }

    /// Modular subtraction.
    #[inline]
    pub fn sub(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        if a >= b {
            a - b
        } else {
            a + self.q - b
        }
    }

    /// Modular negation.
    #[inline]
    pub fn neg(&self, a: u64) -> u64 {
        debug_assert!(a < self.q);
        if a == 0 {
            0
        } else {
            self.q - a
        }
    }

    /// Modular multiplication via Barrett reduction.
    #[inline]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        self.reduce_u128(a as u128 * b as u128)
    }

    /// Reduces a 128-bit value modulo `q` using the Barrett constant.
    #[inline]
    pub fn reduce_u128(&self, x: u128) -> u64 {
        // Estimate quotient: qhat = floor(x * floor(2^128/q) / 2^128).
        // Using only the pieces that matter: with x = x1*2^64 + x0 and
        // m = m1*2^64 + m0 (the Barrett constant), the top 128 bits of x*m are
        //   x1*m1 + ((x1*m0 + x0*m1 + carry_of(x0*m0)) >> 64)
        let x0 = x as u64 as u128;
        let x1 = (x >> 64) as u64 as u128;
        let m0 = self.barrett_lo as u128;
        let m1 = self.barrett_hi as u128;
        let lo = x0 * m0;
        let mid1 = x1 * m0;
        let mid2 = x0 * m1;
        let carry = ((lo >> 64) + (mid1 as u64 as u128) + (mid2 as u64 as u128)) >> 64;
        let qhat = x1 * m1 + (mid1 >> 64) + (mid2 >> 64) + carry;
        let r = x.wrapping_sub(qhat.wrapping_mul(self.q as u128)) as u64;
        // qhat may underestimate by at most 2.
        let mut r = r;
        while r >= self.q {
            r -= self.q;
        }
        r
    }

    /// Modular exponentiation.
    pub fn pow(&self, mut base: u64, mut exp: u64) -> u64 {
        debug_assert!(base < self.q);
        let mut acc = 1u64 % self.q;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            exp >>= 1;
        }
        acc
    }

    /// Modular inverse of `a` (requires `q` prime and `a != 0`).
    ///
    /// # Panics
    ///
    /// Panics if `a == 0`.
    pub fn inv(&self, a: u64) -> u64 {
        assert!(a != 0, "zero has no modular inverse");
        self.pow(a, self.q - 2)
    }

    /// Precomputes the Shoup constant `floor(w * 2^64 / q)` for repeated
    /// multiplications by the fixed operand `w`.
    #[inline]
    pub fn shoup_precompute(&self, w: u64) -> u64 {
        debug_assert!(w < self.q);
        (((w as u128) << 64) / self.q as u128) as u64
    }

    /// Multiplies `a` by the fixed operand `w` using its precomputed Shoup
    /// constant `w_shoup`. Roughly 2-3x faster than [`Modulus::mul`].
    #[inline]
    pub fn mul_shoup(&self, a: u64, w: u64, w_shoup: u64) -> u64 {
        debug_assert!(a < self.q && w < self.q);
        let hi = ((a as u128 * w_shoup as u128) >> 64) as u64;
        let r = a
            .wrapping_mul(w)
            .wrapping_sub(hi.wrapping_mul(self.q));
        if r >= self.q {
            r - self.q
        } else {
            r
        }
    }

    /// Shoup multiplication without the final conditional subtraction.
    ///
    /// Accepts *any* `a < 2^64` (in particular lazy operands in `[0, 4q)`)
    /// and returns a value congruent to `a * w (mod q)` in `[0, 2q)`: with
    /// `hi = floor(a * w_shoup / 2^64)` the returned `a*w - hi*q` is
    /// non-negative and bounded by `q * (1 + a/2^64) < 2q`.
    #[inline]
    pub fn mul_shoup_lazy(&self, a: u64, w: u64, w_shoup: u64) -> u64 {
        debug_assert!(w < self.q);
        let hi = ((a as u128 * w_shoup as u128) >> 64) as u64;
        a.wrapping_mul(w).wrapping_sub(hi.wrapping_mul(self.q))
    }

    /// Reduces an arbitrary `u64` into `[0, q)`.
    #[inline]
    pub fn reduce(&self, a: u64) -> u64 {
        if a < self.q {
            a
        } else {
            self.reduce_u128(a as u128)
        }
    }

    /// Centered lift: maps `a` in `[0, q)` to the signed representative in
    /// `(-q/2, q/2]`.
    #[inline]
    pub fn lift_centered(&self, a: u64) -> i64 {
        debug_assert!(a < self.q);
        if a > self.q / 2 {
            a as i64 - self.q as i64
        } else {
            a as i64
        }
    }

    /// Reduces a signed integer into `[0, q)`.
    #[inline]
    pub fn from_i64(&self, a: i64) -> u64 {
        let r = a.rem_euclid(self.q as i64);
        r as u64
    }

    /// Bit width of `q` — the `k` in the word-sized Barrett constant.
    #[inline]
    pub(crate) fn barrett_k(&self) -> u32 {
        self.barrett_k
    }

    /// `floor(2^{2k} / q)` for the vector Barrett reduction.
    #[inline]
    pub(crate) fn barrett_mu(&self) -> u64 {
        self.barrett_mu
    }

    // -----------------------------------------------------------------------
    // Slice kernels. These dispatch to the active SIMD backend
    // ([`crate::backend`]); the scalar backend applies the element methods
    // above in a plain loop, and every vector backend is bit-exact against
    // it. Canonical-range kernels expect and produce `[0, q)`; the `lazy`
    // kernels document their own ranges.
    // -----------------------------------------------------------------------

    /// Element-wise `a[i] = (a[i] + b[i]) mod q`, canonical operands.
    #[inline]
    pub fn add_mod_slice(&self, a: &mut [u64], b: &[u64]) {
        crate::backend::add_mod_slice(self, a, b);
    }

    /// Element-wise `a[i] = (a[i] - b[i]) mod q`, canonical operands.
    #[inline]
    pub fn sub_mod_slice(&self, a: &mut [u64], b: &[u64]) {
        crate::backend::sub_mod_slice(self, a, b);
    }

    /// Element-wise `a[i] = -a[i] mod q`, canonical operands.
    #[inline]
    pub fn neg_mod_slice(&self, a: &mut [u64]) {
        crate::backend::neg_mod_slice(self, a);
    }

    /// Element-wise `a[i] = a[i] * b[i] mod q`, canonical operands.
    #[inline]
    pub fn mul_mod_slice(&self, a: &mut [u64], b: &[u64]) {
        crate::backend::mul_mod_slice(self, a, b);
    }

    /// Element-wise `acc[i] = (acc[i] + a[i] * b[i]) mod q`, canonical
    /// operands.
    #[inline]
    pub fn mul_acc_mod_slice(&self, acc: &mut [u64], a: &[u64], b: &[u64]) {
        crate::backend::mul_acc_mod_slice(self, acc, a, b);
    }

    /// Element-wise `a[i] = a[i] * w mod q` by Shoup multiplication with the
    /// fixed operand `w` and its precomputed constant
    /// ([`Modulus::shoup_precompute`]). Every `a[i]` must be below `4q`
    /// (canonical, or lazy from an NTT); the output is canonical.
    #[inline]
    pub fn mul_scalar_shoup_slice(&self, a: &mut [u64], w: u64, w_shoup: u64) {
        crate::backend::mul_scalar_shoup_slice(self, a, w, w_shoup);
    }

    /// Element-wise reduction of *arbitrary* `u64` words into canonical
    /// `[0, q)` — the seeded hint-expansion kernel: a raw PRG word stream is
    /// reduced into residues in one vectorized pass.
    #[inline]
    pub fn reduce_raw_slice(&self, a: &mut [u64]) {
        crate::backend::reduce_raw_slice(self, a);
    }

    /// Element-wise reduction of signed words into canonical `[0, q)`:
    /// `out[i]` is the Euclidean residue of `a[i]`, the word
    /// [`Modulus::from_i64`] returns, in one vectorized pass.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `out` differ in length.
    #[inline]
    pub fn reduce_signed_slice(&self, a: &[i64], out: &mut [u64]) {
        crate::backend::reduce_signed_slice(self, a, out);
    }

    /// The index of the first word of `x` that is not a canonical residue
    /// (`x[i] >= q`), or `None` if every word is below `q` — the residue
    /// range check, one lane-parallel pass over `x`.
    #[inline]
    pub fn first_unreduced(&self, x: &[u64]) -> Option<usize> {
        crate::backend::first_at_or_above(x, self.q)
    }

    /// `acc0[i] = (acc0[i] + src[perm[i]] * b0[i]) mod q` and likewise
    /// `acc1` with `b1`, for `perm` the permutation of `table` — fused
    /// gather + multiply-accumulate feeding one gather into two
    /// accumulators (the two halves of a key-switch key), the automorphism
    /// hot path. All values canonical.
    ///
    /// # Panics
    ///
    /// Panics unless every slice has the table's ring degree.
    #[inline]
    pub fn gather_mul_acc_pair_slice(
        &self,
        acc0: &mut [u64],
        acc1: &mut [u64],
        src: &[u64],
        table: &AutomorphismTable,
        b0: &[u64],
        b1: &[u64],
    ) {
        crate::backend::gather_mul_acc_pair_slice(self, acc0, acc1, src, table.permutation(), b0, b1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const Q28: u64 = 268_369_921; // 28-bit, q ≡ 1 (mod 2^17)
    const Q59: u64 = 576_460_752_308_273_153; // 59-bit NTT-friendly prime

    #[test]
    fn new_rejects_out_of_range() {
        assert!(Modulus::new(0).is_none());
        assert!(Modulus::new(1).is_none());
        assert!(Modulus::new(1u64 << 60).is_none());
        assert!(Modulus::new(1u64 << 62).is_none());
        assert!(Modulus::new((1u64 << 60) - 1).is_some());
        assert!(Modulus::new(2).is_some());
    }

    #[test]
    fn basic_ops() {
        let m = Modulus::new(17).unwrap();
        assert_eq!(m.add(16, 16), 15);
        assert_eq!(m.sub(3, 5), 15);
        assert_eq!(m.neg(0), 0);
        assert_eq!(m.neg(5), 12);
        assert_eq!(m.mul(10, 10), 100 % 17);
        assert_eq!(m.pow(2, 4), 16);
        assert_eq!(m.mul(m.inv(7), 7), 1);
    }

    #[test]
    fn lift_and_from_i64_roundtrip() {
        let m = Modulus::new(Q28).unwrap();
        for v in [0i64, 1, -1, 12345, -12345, (Q28 / 2) as i64] {
            assert_eq!(m.lift_centered(m.from_i64(v)), v);
        }
    }

    proptest! {
        #[test]
        fn mul_matches_u128(a in 0u64..Q59, b in 0u64..Q59) {
            let m = Modulus::new(Q59).unwrap();
            prop_assert_eq!(m.mul(a, b) as u128, (a as u128 * b as u128) % Q59 as u128);
        }

        #[test]
        fn reduce_u128_matches(x in any::<u128>()) {
            let m = Modulus::new(Q28).unwrap();
            prop_assert_eq!(m.reduce_u128(x) as u128, x % Q28 as u128);
        }

        #[test]
        fn shoup_matches_mul(a in 0u64..Q59, w in 0u64..Q59) {
            let m = Modulus::new(Q59).unwrap();
            let ws = m.shoup_precompute(w);
            prop_assert_eq!(m.mul_shoup(a, w, ws), m.mul(a, w));
        }

        #[test]
        fn inv_is_inverse(a in 1u64..Q28) {
            let m = Modulus::new(Q28).unwrap();
            prop_assert_eq!(m.mul(a, m.inv(a)), 1);
        }

        #[test]
        fn add_sub_roundtrip(a in 0u64..Q28, b in 0u64..Q28) {
            let m = Modulus::new(Q28).unwrap();
            prop_assert_eq!(m.sub(m.add(a, b), b), a);
        }

        #[test]
        fn mul_shoup_lazy_bound_and_congruence(a in 0u64..4 * Q59, w in 0u64..Q59) {
            let m = Modulus::new(Q59).unwrap();
            let ws = m.shoup_precompute(w);
            let r = m.mul_shoup_lazy(a, w, ws);
            prop_assert!(r < m.two_q());
            prop_assert_eq!(r as u128 % Q59 as u128, (a as u128 * w as u128) % Q59 as u128);
        }

        #[test]
        fn correct_lazy_canonicalizes(a in 0u64..4 * Q59) {
            let m = Modulus::new(Q59).unwrap();
            let r = m.correct_lazy(a);
            prop_assert!(r < Q59);
            prop_assert_eq!(r % Q59, a % Q59);
        }
    }

    // -----------------------------------------------------------------------
    // Backend slice-kernel invariants (one run per compiled backend).
    //
    // Canonical kernels must match the scalar reference word-for-word;
    // lazy kernels must additionally respect the documented drift bounds
    // ([0, 2q) after reduce_lazy, [0, q) after correction). Every kernel
    // runs on every route of `forced::routes()`, so on an IFMA host both
    // AVX-512 products are checked for every modulus below 2^50.
    // -----------------------------------------------------------------------

    use crate::backend::{active_backend, forced, set_active_backend, supported_backends, BackendKind};
    use crate::AlignedVec;
    use std::ops::{Deref, DerefMut};
    use std::sync::OnceLock;

    // NTT-friendly (q ≡ 1 mod 2^17) primes at the AVX-512 IFMA edge
    // q < 2^50: the two ends of the 50-bit width, and the first prime past
    // it, which must fall back to the 64-bit products.
    const Q50_LOW: u64 = 562_949_955_125_249; // smallest above 2^49
    const Q50_TOP: u64 = 1_125_899_903_827_969; // largest below 2^50
    const Q51_LOW: u64 = 1_125_899_908_022_273; // smallest above 2^50

    /// Every modulus the slice-kernel tests run: the edge primes above, a
    /// 28-, a 59- and a 60-bit one, and the smallest and largest
    /// NTT-friendly (q ≡ 1 mod 2^13) prime of each width from 20 to 50 bits
    /// that the workloads or the IFMA products single out — every IFMA
    /// shift pair is a different code path in effect.
    fn kernel_moduli() -> &'static [u64] {
        static QS: OnceLock<Vec<u64>> = OnceLock::new();
        QS.get_or_init(|| {
            let n = 1usize << 12;
            let mut qs = vec![Q28, Q59, (1u64 << 60) - 93, Q50_LOW, Q50_TOP, Q51_LOW];
            for bits in [20, 28, 36, 45, 49, 50] {
                let top = crate::generate_ntt_primes(n, bits, 1).expect("a prime of every width")[0];
                let low = (0u64..)
                    .map(|k| (1u64 << (bits - 1)) + 1 + k * 2 * n as u64)
                    .find(|&c| crate::is_prime(c))
                    .expect("a prime of every width");
                assert!(low < top && top < 1u64 << bits);
                qs.extend([low, top]);
            }
            qs
        })
    }

    /// A kernel operand living `off` words into a 64-byte-aligned buffer:
    /// `off = 0` is cache-line aligned, `off = 1, 3` start the vector loops
    /// on addresses no vector width divides.
    #[derive(Clone, Debug, PartialEq)]
    struct Operand {
        buf: AlignedVec<u64>,
        off: usize,
    }

    impl Operand {
        fn new(off: usize, words: impl IntoIterator<Item = u64>) -> Self {
            let buf = std::iter::repeat_n(0, off).chain(words).collect();
            Operand { buf, off }
        }
    }

    impl Deref for Operand {
        type Target = [u64];
        fn deref(&self) -> &[u64] {
            &self.buf[self.off..]
        }
    }

    impl DerefMut for Operand {
        fn deref_mut(&mut self) -> &mut [u64] {
            &mut self.buf[self.off..]
        }
    }

    /// The operand shapes every slice-kernel test runs: the drawn length at
    /// natural alignment, then every length up to three whole vectors of the
    /// widest backend plus a one-word tail, one and three words off it.
    fn shapes(len: usize) -> impl Iterator<Item = (usize, usize)> {
        let sweep = [1, 3].into_iter().flat_map(|off| (0..=3 * 8 + 1).map(move |l| (l, off)));
        std::iter::once((len, 0)).chain(sweep)
    }

    /// A drawn vector cycled to `len` words (each lap rotated, so laps
    /// differ); at `len == drawn.len()` it is the draw itself.
    fn stretched(drawn: &[u64], len: usize) -> impl Iterator<Item = u64> + '_ {
        let lap = drawn.len().max(1);
        (0..len).map(move |i| drawn.get(i % lap).map_or(i as u64, |&x| x.rotate_left((i / lap) as u32)))
    }

    proptest! {
        #[test]
        fn backends_match_scalar_canonical_kernels(
            seed in any::<u64>(),
            // Lengths off the lane multiple force the vector kernels through
            // their scalar tails.
            len in 0usize..67,
        ) {
            for &q in kernel_moduli() {
                let m = Modulus::new(q).unwrap();
                for (len, off) in shapes(len) {
                    let gen = |salt: u64| {
                        Operand::new(off, (0..len as u64).map(|i| {
                            (seed ^ salt).wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i.wrapping_mul(0x2545_f491_4f6c_dd1d)) % q
                        }))
                    };
                    let a0 = gen(1);
                    let b = gen(2);
                    let acc0 = gen(3);
                    for route in forced::routes() {
                        // add
                        let mut a = a0.clone();
                        let mut r = a0.clone();
                        forced::add_mod_slice(BackendKind::Scalar, &m, &mut r, &b);
                        forced::add_mod_slice(route, &m, &mut a, &b);
                        prop_assert_eq!(&a, &r, "add_mod_slice diverged on {} at q = {}", route, q);
                        // sub
                        let mut a = a0.clone();
                        let mut r = a0.clone();
                        forced::sub_mod_slice(BackendKind::Scalar, &m, &mut r, &b);
                        forced::sub_mod_slice(route, &m, &mut a, &b);
                        prop_assert_eq!(&a, &r, "sub_mod_slice diverged on {} at q = {}", route, q);
                        // neg
                        let mut a = a0.clone();
                        let mut r = a0.clone();
                        forced::neg_mod_slice(BackendKind::Scalar, &m, &mut r);
                        forced::neg_mod_slice(route, &m, &mut a);
                        prop_assert_eq!(&a, &r, "neg_mod_slice diverged on {} at q = {}", route, q);
                        // mul
                        let mut a = a0.clone();
                        let mut r = a0.clone();
                        forced::mul_mod_slice(BackendKind::Scalar, &m, &mut r, &b);
                        forced::mul_mod_slice(route, &m, &mut a, &b);
                        prop_assert_eq!(&a, &r, "mul_mod_slice diverged on {} at q = {}", route, q);
                        for (x, (&ai, &bi)) in a.iter().zip(a0.iter().zip(b.iter())) {
                            prop_assert_eq!(*x as u128, (ai as u128 * bi as u128) % q as u128);
                        }
                        // mul_acc
                        let mut acc = acc0.clone();
                        let mut r = acc0.clone();
                        forced::mul_acc_mod_slice(BackendKind::Scalar, &m, &mut r, &a0, &b);
                        forced::mul_acc_mod_slice(route, &m, &mut acc, &a0, &b);
                        prop_assert_eq!(&acc, &r, "mul_acc_mod_slice diverged on {} at q = {}", route, q);
                        prop_assert!(acc.iter().all(|&x| x < q));
                    }
                }
            }
        }

        #[test]
        fn backends_match_scalar_shoup_kernels(
            drawn in collection::vec(any::<u64>(), 0..67),
            w_raw in any::<u64>(),
        ) {
            for &q in kernel_moduli() {
                let m = Modulus::new(q).unwrap();
                let w = w_raw % q;
                let ws = m.shoup_precompute(w);
                for (len, off) in shapes(drawn.len()) {
                    // The drawn vector at natural alignment; the misaligned
                    // sweep stretches or trims it to each length. Operands
                    // over the whole [0, 4q) the contract allows.
                    let raw = Operand::new(off, stretched(&drawn, len));
                    let x0 = Operand::new(off, raw.iter().map(|&x| x.wrapping_mul(7) % (4 * q)));
                    for route in forced::routes() {
                        // mul_scalar_shoup: canonical output, bit-equal to scalar.
                        let mut a = x0.clone();
                        let mut r = x0.clone();
                        forced::mul_scalar_shoup_slice(BackendKind::Scalar, &m, &mut r, w, ws);
                        forced::mul_scalar_shoup_slice(route, &m, &mut a, w, ws);
                        prop_assert_eq!(&a, &r, "mul_scalar_shoup_slice diverged on {} at q = {}", route, q);
                        prop_assert!(a.iter().all(|&x| x < q), "canonical bound violated on {}", route);
                        for (&out, &x) in a.iter().zip(x0.iter()) {
                            prop_assert_eq!(out as u128, x as u128 * w as u128 % q as u128);
                        }
                    }
                }
            }
        }

        #[test]
        fn backends_match_scalar_reduce_raw(
            q_idx in 0usize..kernel_moduli().len() + 1,
            raw in collection::vec(any::<u64>(), 0..67),
        ) {
            // Full-range u64 inputs, including moduli whose word-sized
            // Barrett constant could not cover 2^64 (k < 32).
            let q = kernel_moduli().get(q_idx).copied().unwrap_or(0x3fff_c001);
            let m = Modulus::new(q).unwrap();
            for (len, off) in shapes(raw.len()) {
                let raw = Operand::new(off, stretched(&raw, len));
                for kind in supported_backends() {
                    let mut a = raw.clone();
                    let mut r = raw.clone();
                    forced::reduce_raw_slice(BackendKind::Scalar, &m, &mut r);
                    forced::reduce_raw_slice(kind, &m, &mut a);
                    prop_assert_eq!(&a, &r, "reduce_raw_slice diverged on {}", kind);
                    for (&out, &x) in a.iter().zip(raw.iter()) {
                        prop_assert_eq!(out, x % q);
                    }
                }
            }
        }

        #[test]
        fn backends_match_scalar_gather_kernels(
            seed in any::<u64>(),
            len in 0usize..67,
        ) {
            for &q in kernel_moduli() {
                let m = Modulus::new(q).unwrap();
                for (len, off) in shapes(len) {
                    let src = Operand::new(off, (0..len.max(1) as u64).map(|i| seed.wrapping_mul(0x9e37).wrapping_add(i * 0x85eb) % q));
                    let perm: Vec<u32> = (0..len as u64)
                        .map(|i| ((seed.wrapping_add(i * 31)) % src.len() as u64) as u32)
                        .collect();
                    let b = Operand::new(off, (0..len as u64).map(|i| (seed ^ i).wrapping_mul(11) % q));
                    let b1 = Operand::new(off, (0..len as u64).map(|i| (seed ^ i).wrapping_mul(13) % q));
                    let acc_init = Operand::new(off, (0..len as u64).map(|i| (seed ^ i).wrapping_mul(17) % q));
                    for route in forced::routes() {
                        let mut out = Operand::new(off, vec![0u64; len]);
                        let mut r = out.clone();
                        forced::gather_slice(BackendKind::Scalar, &mut r, &src, &perm);
                        forced::gather_slice(route, &mut out, &src, &perm);
                        prop_assert_eq!(&out, &r, "gather_slice diverged on {}", route);

                        let mut p0 = acc_init.clone();
                        let mut p1 = b1.clone();
                        let mut r0 = acc_init.clone();
                        let mut r1 = b1.clone();
                        forced::gather_mul_acc_pair_slice(BackendKind::Scalar, &m, &mut r0, &mut r1, &src, &perm, &b, &b1);
                        forced::gather_mul_acc_pair_slice(route, &m, &mut p0, &mut p1, &src, &perm, &b, &b1);
                        prop_assert_eq!(&p0, &r0, "gather_mul_acc_pair_slice acc0 diverged on {} at q = {}", route, q);
                        prop_assert_eq!(&p1, &r1, "gather_mul_acc_pair_slice acc1 diverged on {} at q = {}", route, q);
                    }
                }
            }
        }
    }

    /// The signed reduction on every route, and through the dispatcher
    /// (whichever backend `CL_BACKEND` pins), against `rem_euclid`: the
    /// words at both ends of the `i64` range, around zero, around `±q` and
    /// at `±2^52`, then a pseudo-random stream, over every kernel modulus
    /// and a 30-bit one; every length through three vectors of the widest
    /// backend plus a tail, and one ring degree.
    #[test]
    fn reduce_signed_matches_rem_euclid_on_every_route() {
        let mut qs = kernel_moduli().to_vec();
        qs.push(0x3fff_c001);
        for q in qs {
            let m = Modulus::new(q).unwrap();
            let qi = q as i64;
            let edges = [
                i64::MIN, i64::MAX, 0, 1, -1, qi, -qi, qi - 1, 1 - qi, qi + 1, -qi - 1,
                1 << 52, -(1 << 52), i64::MIN + 1, i64::MAX - 1,
            ];
            let mut state = q;
            let random = std::iter::repeat_with(|| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                state as i64 >> (state % 13)
            });
            let words: Vec<i64> = edges.iter().copied().chain(random.take(1024)).collect();
            for len in (0..=3 * 8 + 1).chain([words.len()]) {
                // Rotate the edges through every lane position.
                for start in [0, 1, 7] {
                    let a: Vec<i64> = words.iter().cycle().skip(start).take(len).copied().collect();
                    let want: Vec<u64> = a.iter().map(|&x| x.rem_euclid(qi) as u64).collect();
                    for route in forced::routes() {
                        let mut out = vec![u64::MAX; len];
                        forced::reduce_signed_slice(route, &m, &a, &mut out);
                        assert_eq!(out, want, "{route}, q = {q}, len {len}, start {start}");
                    }
                    let mut out = vec![u64::MAX; len];
                    m.reduce_signed_slice(&a, &mut out);
                    assert_eq!(out, want, "{}, q = {q}, len {len}, start {start}", active_backend());
                }
            }
        }
    }

    /// Runs `call` with a source one word shorter than the automorphism
    /// table under every supported backend and reports the panic message of
    /// the last refusal; a backend that accepts the short source (at the
    /// parent commit: an out-of-bounds vector gather) fails here instead.
    fn short_src_refusal(call: fn(&Modulus, &mut [u64], &[u64], &AutomorphismTable, &[u64])) -> String {
        let n = 64;
        let m = Modulus::new(Q28).unwrap();
        let table = AutomorphismTable::new(n, 5);
        let (src, b) = (vec![1u64; n - 1], vec![1u64; n]);
        let prev = active_backend();
        let mut message = String::new();
        for kind in supported_backends() {
            set_active_backend(kind).expect("supported backend");
            let refusal = std::panic::catch_unwind(|| call(&m, &mut vec![0u64; n], &src, &table, &b));
            set_active_backend(prev).expect("restoring the previous backend");
            let payload = refusal.expect_err(&format!("{kind} accepted a source shorter than the table"));
            message = payload.downcast_ref::<String>().cloned().unwrap_or_default();
        }
        message
    }

    #[test]
    #[should_panic(expected = "gather source length mismatch")]
    fn gather_mul_acc_pair_rejects_short_src_on_every_backend() {
        let message = short_src_refusal(|m, acc, src, table, b| {
            m.gather_mul_acc_pair_slice(acc, &mut vec![0u64; b.len()], src, table, b, b)
        });
        panic!("{message}");
    }
}

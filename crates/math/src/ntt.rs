//! Negacyclic number-theoretic transform.
//!
//! FHE implementations keep polynomials in the NTT (evaluation) domain so
//! that polynomial multiplication — the convolution at the heart of
//! homomorphic multiplication — becomes element-wise (Sec. 2.4). CraterLake
//! devotes two dedicated functional units to this transform.
//!
//! The default [`NttTable::forward`]/[`NttTable::inverse`] kernels use
//! Harvey-style lazy reduction: butterfly operands drift through `[0, 4q)`
//! (forward) and `[0, 2q)` (inverse), with a single correction sweep at the
//! end instead of per-butterfly conditional subtractions. The fully reduced
//! reference kernels survive as [`NttTable::forward_strict`] and
//! [`NttTable::inverse_strict`]; differential tests assert both paths are
//! bit-identical.

use std::sync::{Arc, LazyLock};

use crate::{bit_reverse, AlignedVec, Cache, Modulus};

/// Precomputed tables for the degree-`N` negacyclic NTT over one modulus.
///
/// The forward transform maps a polynomial in `Z_q[X]/(X^N + 1)` from
/// coefficient representation (natural order) to evaluation representation
/// (bit-reversed order); the inverse undoes it. In the evaluation domain,
/// negacyclic polynomial multiplication is element-wise.
///
/// # Example
///
/// ```
/// use cl_math::NttTable;
/// let t = NttTable::new(8, 257).unwrap(); // 257 ≡ 1 (mod 16)
/// let mut a = vec![1u64, 2, 3, 4, 5, 6, 7, 8];
/// let orig = a.clone();
/// t.forward(&mut a);
/// t.inverse(&mut a);
/// assert_eq!(a, orig);
/// ```
#[derive(Debug, Clone)]
pub struct NttTable {
    n: usize,
    modulus: Modulus,
    /// psi^br(i) in bit-reversed order, psi a primitive 2N-th root of unity.
    /// All twiddle tables are 64-byte aligned ([`AlignedVec`]) so the vector
    /// backends stream them with aligned full-width loads.
    root_pows: AlignedVec<u64>,
    root_pows_shoup: AlignedVec<u64>,
    /// psi^{-br(i)} in bit-reversed order.
    inv_root_pows: AlignedVec<u64>,
    inv_root_pows_shoup: AlignedVec<u64>,
    /// n^{-1} mod q and its Shoup constant.
    n_inv: u64,
    n_inv_shoup: u64,
}

impl NttTable {
    /// Builds NTT tables for ring degree `n` and modulus `q`.
    ///
    /// Returns `None` if `n` is not a power of two, `q` is not an NTT-friendly
    /// prime for this degree (`q ≡ 1 mod 2n`), or `q` is out of range.
    pub fn new(n: usize, q: u64) -> Option<Self> {
        if !n.is_power_of_two() || n < 2 {
            return None;
        }
        let modulus = Modulus::new(q)?;
        if !(q - 1).is_multiple_of(2 * n as u64) || !crate::is_prime(q) {
            return None;
        }
        let psi = find_primitive_root(&modulus, 2 * n as u64)?;
        let psi_inv = modulus.inv(psi);
        let bits = n.trailing_zeros();
        let mut root_pows = vec![0u64; n];
        let mut inv_root_pows = vec![0u64; n];
        let mut pow = 1u64;
        let mut inv_pow = 1u64;
        let mut pows = vec![0u64; n];
        let mut inv_pows = vec![0u64; n];
        for i in 0..n {
            pows[i] = pow;
            inv_pows[i] = inv_pow;
            pow = modulus.mul(pow, psi);
            inv_pow = modulus.mul(inv_pow, psi_inv);
        }
        for i in 0..n {
            let j = bit_reverse(i, bits);
            root_pows[i] = pows[j];
            inv_root_pows[i] = inv_pows[j];
        }
        let root_pows_shoup: AlignedVec<u64> =
            root_pows.iter().map(|&w| modulus.shoup_precompute(w)).collect();
        let inv_root_pows_shoup: AlignedVec<u64> = inv_root_pows
            .iter()
            .map(|&w| modulus.shoup_precompute(w))
            .collect();
        let n_inv = modulus.inv(n as u64 % q);
        let n_inv_shoup = modulus.shoup_precompute(n_inv);
        Some(Self {
            n,
            modulus,
            root_pows: AlignedVec::from(root_pows),
            root_pows_shoup,
            inv_root_pows: AlignedVec::from(inv_root_pows),
            inv_root_pows_shoup,
            n_inv,
            n_inv_shoup,
        })
    }

    /// Returns the process-wide cached table for `(n, q)`, building it on
    /// first use.
    ///
    /// RNS contexts at the same ring degree share moduli constantly (every
    /// `CkksContext`, `BaseConverter`, and test fixture re-derives the same
    /// primes), and table construction is `O(n log n)` modular arithmetic —
    /// caching makes repeated context setup cheap and lets contexts share one
    /// allocation per modulus.
    ///
    /// Returns `None` under the same conditions as [`NttTable::new`]. Failed
    /// lookups are not cached.
    pub fn cached(n: usize, q: u64) -> Option<Arc<NttTable>> {
        static CACHE: LazyLock<Cache<(usize, u64), NttTable>> = LazyLock::new(Cache::unbounded);
        CACHE
            .get_or_try_insert_with((n, q), || NttTable::new(n, q).ok_or(()))
            .ok()
    }

    /// Ring degree.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The modulus these tables were built for.
    #[inline]
    pub fn modulus(&self) -> &Modulus {
        &self.modulus
    }

    // Table accessors for the backend kernels ([`crate::backend`]).

    #[inline]
    pub(crate) fn root_pows(&self) -> &[u64] {
        &self.root_pows
    }

    #[inline]
    pub(crate) fn root_pows_shoup(&self) -> &[u64] {
        &self.root_pows_shoup
    }

    #[inline]
    pub(crate) fn inv_root_pows(&self) -> &[u64] {
        &self.inv_root_pows
    }

    #[inline]
    pub(crate) fn inv_root_pows_shoup(&self) -> &[u64] {
        &self.inv_root_pows_shoup
    }

    #[inline]
    pub(crate) fn n_inv(&self) -> u64 {
        self.n_inv
    }

    #[inline]
    pub(crate) fn n_inv_shoup(&self) -> u64 {
        self.n_inv_shoup
    }

    /// Forward negacyclic NTT, in place (Cooley-Tukey, decimation in time,
    /// Harvey lazy reduction).
    ///
    /// Input in natural coefficient order, output in bit-reversed evaluation
    /// order. Intermediate values drift through `[0, 4q)`: each butterfly
    /// conditionally reduces its top operand into `[0, 2q)`, computes the
    /// twiddle product with [`Modulus::mul_shoup_lazy`] (result in `[0, 2q)`),
    /// and writes `x + t` / `x + 2q - t` — both below `4q`, which fits in a
    /// `u64` because [`Modulus::new`] caps `q` below `2^60`. A final sweep
    /// restores canonical `[0, q)`, so output is bit-identical to
    /// [`NttTable::forward_strict`].
    ///
    /// Routed through the active SIMD backend ([`crate::backend`]); every
    /// backend produces identical output words. Telemetry is recorded here,
    /// above the dispatch, so op counts are backend-invariant.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.n()`.
    pub fn forward(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "polynomial length mismatch");
        cl_trace::record_ntt(1, self.n);
        crate::backend::ntt_forward(self, a);
    }

    /// Fully reduced forward NTT — the pre-lazy reference kernel, kept for
    /// differential testing against [`NttTable::forward`].
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.n()`.
    pub fn forward_strict(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "polynomial length mismatch");
        cl_trace::record_ntt(1, self.n);
        let m = &self.modulus;
        let n = self.n;
        let mut t = n;
        let mut len = 1usize;
        while len < n {
            t >>= 1;
            for i in 0..len {
                let w = self.root_pows[len + i];
                let ws = self.root_pows_shoup[len + i];
                let j0 = 2 * i * t;
                for j in j0..j0 + t {
                    let u = a[j];
                    let v = m.mul_shoup(a[j + t], w, ws);
                    a[j] = m.add(u, v);
                    a[j + t] = m.sub(u, v);
                }
            }
            len <<= 1;
        }
    }

    /// Inverse negacyclic NTT, in place (Gentleman-Sande, decimation in
    /// frequency, Harvey lazy reduction), including the `n^{-1}` scaling.
    ///
    /// Input in bit-reversed evaluation order, output in natural coefficient
    /// order. Intermediate values stay in `[0, 2q)`: each butterfly writes the
    /// conditionally reduced sum `u + v` and the lazy twiddle product of
    /// `u - v + 2q`. The closing `n^{-1}` sweep uses
    /// [`Modulus::mul_shoup_lazy`] plus one conditional subtraction, so the
    /// output is canonical and bit-identical to [`NttTable::inverse_strict`].
    ///
    /// Routed through the active SIMD backend ([`crate::backend`]), like
    /// [`NttTable::forward`].
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.n()`.
    pub fn inverse(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "polynomial length mismatch");
        cl_trace::record_intt(1, self.n);
        crate::backend::ntt_inverse(self, a);
    }

    /// Fully reduced inverse NTT — the pre-lazy reference kernel, kept for
    /// differential testing against [`NttTable::inverse`].
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.n()`.
    pub fn inverse_strict(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "polynomial length mismatch");
        cl_trace::record_intt(1, self.n);
        let m = &self.modulus;
        let n = self.n;
        let mut t = 1usize;
        let mut len = n >> 1;
        while len >= 1 {
            let mut j0 = 0usize;
            for i in 0..len {
                let w = self.inv_root_pows[len + i];
                let ws = self.inv_root_pows_shoup[len + i];
                for j in j0..j0 + t {
                    let u = a[j];
                    let v = a[j + t];
                    a[j] = m.add(u, v);
                    a[j + t] = m.mul_shoup(m.sub(u, v), w, ws);
                }
                j0 += 2 * t;
            }
            t <<= 1;
            len >>= 1;
        }
        for x in a.iter_mut() {
            *x = m.mul_shoup(*x, self.n_inv, self.n_inv_shoup);
        }
    }

    /// Element-wise product in the evaluation domain: `a[i] = a[i] * b[i]`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ from the ring degree.
    pub fn pointwise_mul(&self, a: &mut [u64], b: &[u64]) {
        assert_eq!(a.len(), self.n);
        assert_eq!(b.len(), self.n);
        cl_trace::record_mult(1, self.n);
        crate::backend::mul_mod_slice(&self.modulus, a, b);
    }

    /// Reference negacyclic convolution in the coefficient domain, `O(N^2)`.
    /// Used by tests to validate the NTT-based path.
    pub fn negacyclic_convolution_reference(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        assert_eq!(a.len(), self.n);
        assert_eq!(b.len(), self.n);
        let m = &self.modulus;
        let mut c = vec![0u64; self.n];
        for (i, &ai) in a.iter().enumerate() {
            if ai == 0 {
                continue;
            }
            for (j, &bj) in b.iter().enumerate() {
                let k = i + j;
                let prod = m.mul(ai, bj);
                if k < self.n {
                    c[k] = m.add(c[k], prod);
                } else {
                    c[k - self.n] = m.sub(c[k - self.n], prod);
                }
            }
        }
        c
    }
}

/// Finds a primitive `order`-th root of unity modulo a prime.
fn find_primitive_root(m: &Modulus, order: u64) -> Option<u64> {
    let q = m.value();
    if !(q - 1).is_multiple_of(order) {
        return None;
    }
    let cofactor = (q - 1) / order;
    // Try small candidates; g^cofactor has order dividing `order`, and has
    // order exactly `order` iff raising to order/2 is not 1.
    for g in 2..u64::min(q, 1 << 20) {
        let cand = m.pow(g, cofactor);
        if cand != 1 && m.pow(cand, order / 2) == q - 1 {
            return Some(cand);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate_ntt_primes;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn table(n: usize, bits: u32) -> NttTable {
        let q = generate_ntt_primes(n, bits, 1).unwrap()[0];
        NttTable::new(n, q).unwrap()
    }

    #[test]
    fn rejects_non_ntt_friendly_modulus() {
        assert!(NttTable::new(8, 17).is_some()); // 17 ≡ 1 (mod 16), prime
        assert!(NttTable::new(8, 19).is_none()); // 19 ≢ 1 (mod 16)
        assert!(NttTable::new(7, 257).is_none()); // not a power of two
        assert!(NttTable::new(8, 255).is_none()); // not prime
    }

    #[test]
    fn forward_inverse_roundtrip() {
        for n in [4usize, 64, 1024] {
            let t = table(n, 28);
            let mut rng = rand::rngs::StdRng::seed_from_u64(42);
            let mut a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..t.modulus().value())).collect();
            let orig = a.clone();
            t.forward(&mut a);
            assert_ne!(a, orig, "transform should change the vector");
            t.inverse(&mut a);
            assert_eq!(a, orig);
        }
    }

    #[test]
    fn convolution_theorem() {
        let n = 64;
        let t = table(n, 30);
        let q = t.modulus().value();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        let b: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        let expect = t.negacyclic_convolution_reference(&a, &b);
        let mut fa = a.clone();
        let mut fb = b.clone();
        t.forward(&mut fa);
        t.forward(&mut fb);
        t.pointwise_mul(&mut fa, &fb);
        t.inverse(&mut fa);
        assert_eq!(fa, expect);
    }

    #[test]
    fn x_to_the_n_is_minus_one() {
        // (X^{N/2})^2 = X^N = -1 in the negacyclic ring.
        let n = 16;
        let t = table(n, 28);
        let mut a = vec![0u64; n];
        a[n / 2] = 1;
        let mut fa = a.clone();
        t.forward(&mut fa);
        let fa_copy = fa.clone();
        t.pointwise_mul(&mut fa, &fa_copy);
        t.inverse(&mut fa);
        let mut expect = vec![0u64; n];
        expect[0] = t.modulus().value() - 1; // -1
        assert_eq!(fa, expect);
    }

    #[test]
    fn cached_returns_shared_table() {
        let q = generate_ntt_primes(64, 28, 1).unwrap()[0];
        let a = NttTable::cached(64, q).unwrap();
        let b = NttTable::cached(64, q).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(NttTable::cached(64, 19).is_none());
        // The cached table matches a freshly built one.
        let fresh = NttTable::new(64, q).unwrap();
        let mut x: Vec<u64> = (0..64).collect();
        let mut y = x.clone();
        a.forward(&mut x);
        fresh.forward(&mut y);
        assert_eq!(x, y);
    }

    /// Every compiled route must produce words identical to the strict
    /// reference kernels at every log2(n) from 3 to 15, so each width's
    /// instantiation of the shared driver sees all of its structural
    /// regimes: pure scalar fallback (n below two vectors: 8 at 4 lanes, 8
    /// and 16 at 8 lanes), fused-tail-only transforms (n exactly two
    /// vectors), and every triple/pair/single landing of the greedy
    /// schedule. 28-, 45- (every workload's width) and 50-bit moduli take
    /// the IFMA product where available, and the 64-bit one on the portable
    /// route; 59-bit takes the 64-bit product everywhere.
    #[test]
    fn backends_match_strict() {
        use crate::backend::forced;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0FFEE);
        for (n, bits) in (3..=15).flat_map(|log_n| [28u32, 45, 50, 59].map(|bits| (1usize << log_n, bits))) {
            let t = table(n, bits);
            let q = t.modulus().value();
            let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
            let mut strict_f = a.clone();
            t.forward_strict(&mut strict_f);
            let mut strict_i = strict_f.clone();
            t.inverse_strict(&mut strict_i);
            assert_eq!(strict_i, a);
            for route in forced::routes() {
                let mut x = a.clone();
                forced::ntt_forward(route, &t, &mut x);
                assert_eq!(x, strict_f, "forward diverged on {route} at n={n}/{bits}b");
                forced::ntt_inverse(route, &t, &mut x);
                assert_eq!(x, a, "roundtrip diverged on {route} at n={n}/{bits}b");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn lazy_matches_strict(seed in any::<u64>()) {
            for n in [8usize, 64, 256] {
                let t = table(n, 40);
                let q = t.modulus().value();
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
                let mut lazy = a.clone();
                let mut strict = a.clone();
                t.forward(&mut lazy);
                t.forward_strict(&mut strict);
                prop_assert_eq!(&lazy, &strict, "forward mismatch at n={}", n);
                t.inverse(&mut lazy);
                t.inverse_strict(&mut strict);
                prop_assert_eq!(&lazy, &strict, "inverse mismatch at n={}", n);
                prop_assert_eq!(&lazy, &a, "roundtrip mismatch at n={}", n);
            }
        }

        #[test]
        fn ntt_is_linear(seed in any::<u64>()) {
            let n = 32;
            let t = table(n, 28);
            let q = t.modulus().value();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
            let b: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
            let sum: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| t.modulus().add(x, y)).collect();
            let mut fa = a.clone();
            let mut fb = b.clone();
            let mut fsum = sum.clone();
            t.forward(&mut fa);
            t.forward(&mut fb);
            t.forward(&mut fsum);
            let sum_of_transforms: Vec<u64> =
                fa.iter().zip(&fb).map(|(&x, &y)| t.modulus().add(x, y)).collect();
            prop_assert_eq!(fsum, sum_of_transforms);
        }
    }
}

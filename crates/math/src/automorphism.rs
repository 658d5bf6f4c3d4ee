//! Polynomial automorphisms.
//!
//! A homomorphic rotation is implemented by the ring automorphism
//! `σ_k : a(X) → a(X^k)` for odd `k` (Sec. 2.2), followed by a keyswitch.
//! CraterLake implements automorphisms with a dedicated functional unit fed
//! through the transpose network; this module provides the exact index maps
//! that unit realizes, in both coefficient and NTT (evaluation) domain.

use std::sync::{Arc, LazyLock};

use crate::{bit_reverse, AlignedVec, Cache, Modulus};

/// Returns the Galois element implementing a cyclic rotation of the CKKS
/// slot vector by `steps` positions (positive = rotate toward lower slot
/// indices), for ring degree `n`.
///
/// The rotation group of the `n/2` slots is generated by 5 modulo `2n`.
///
/// # Panics
///
/// Panics if `n` is not a power of two `>= 4`.
pub fn galois_element_for_rotation(steps: i64, n: usize) -> u64 {
    assert!(n.is_power_of_two() && n >= 4);
    let two_n = 2 * n as u64;
    let order = (n / 2) as i64; // order of 5 in Z_{2n}^* / {±1}
    let e = steps.rem_euclid(order) as u64;
    let mut g = 1u64;
    for _ in 0..e {
        g = (g * 5) % two_n;
    }
    g
}

/// Canonicalizes a rotation step into `[0, slots)` — the congruence class
/// every spelling of the same rotation shares (`-k` and `slots - k` rotate
/// identically, since the slot group has order `slots = n/2`). Key stores
/// and compiled programs normalize through this exactly once, so a
/// negative step always resolves to the same key and slot permutation as
/// its canonical congruent step.
///
/// # Panics
///
/// Panics if `slots` is zero.
pub fn canonical_rotation_step(steps: i64, slots: usize) -> i64 {
    assert!(slots > 0, "slot count must be positive");
    steps.rem_euclid(slots as i64)
}

/// Returns the Galois element implementing complex conjugation of the slots
/// (`X → X^{2n-1}`).
///
/// # Panics
///
/// Panics if `n` is not a power of two `>= 4`.
pub fn galois_element_conjugate(n: usize) -> u64 {
    assert!(n.is_power_of_two() && n >= 4);
    2 * n as u64 - 1
}

/// Applies `σ_k` to a polynomial in coefficient representation.
///
/// Coefficient `a_i` of `X^i` moves to `X^{ik mod 2n}`; exponents in
/// `[n, 2n)` wrap with a sign flip because `X^n = -1`.
///
/// # Panics
///
/// Panics if `k` is even, or `a.len()` is not a power of two.
pub fn apply_automorphism_coeff(a: &[u64], k: u64, modulus: &Modulus) -> Vec<u64> {
    let n = a.len();
    assert!(n.is_power_of_two());
    assert!(k % 2 == 1, "Galois element must be odd");
    cl_trace::record_automorph(1, n);
    let two_n = 2 * n as u64;
    let k = k % two_n;
    let mut out = vec![0u64; n];
    let mut exp = 0u64; // i*k mod 2n, updated incrementally
    for &coeff in a.iter() {
        let idx = (exp % two_n) as usize;
        if idx < n {
            out[idx] = modulus.add(out[idx], coeff);
        } else {
            out[idx - n] = modulus.sub(out[idx - n], coeff);
        }
        exp = (exp + k) % two_n;
    }
    out
}

/// Precomputed NTT-domain permutation for one `(n, k)` automorphism.
///
/// In the evaluation domain an automorphism is a pure permutation of slot
/// values (no sign flips), which is what lets hardware implement it with the
/// same transpose network as the NTT (Sec. 5.3).
#[derive(Debug, Clone)]
pub struct AutomorphismTable {
    /// `perm[i]` = source index for destination slot `i`. Aligned so the
    /// vector gather path loads index octets with aligned 256-bit reads.
    perm: AlignedVec<u32>,
}

impl AutomorphismTable {
    /// Builds the permutation table for ring degree `n` and Galois element
    /// `k` (odd), matching the bit-reversed NTT ordering of [`crate::NttTable`].
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or `k` is even.
    pub fn new(n: usize, k: u64) -> Self {
        assert!(n.is_power_of_two() && n >= 2);
        assert!(k % 2 == 1, "Galois element must be odd");
        let bits = n.trailing_zeros();
        let two_n = 2 * n as u64;
        let k = k % two_n;
        let mut perm = vec![0u32; n];
        for (i, p) in perm.iter_mut().enumerate() {
            // Storage slot i holds the evaluation at psi^{2*br(i)+1}.
            // sigma_k(a) at that point equals a at psi^{k*(2*br(i)+1) mod 2n},
            // which lives at storage slot br((raw-1)/2).
            let raw = (k * (2 * bit_reverse(i, bits) as u64 + 1)) % two_n;
            let src_natural = ((raw - 1) / 2) as usize;
            *p = bit_reverse(src_natural, bits) as u32;
        }
        Self {
            perm: AlignedVec::from(perm),
        }
    }

    /// Returns the process-wide cached table for `(n, k)`, building it on
    /// first use.
    ///
    /// Rotations reuse a small set of Galois elements over and over (every
    /// `rotate` call and every keyswitch hoisting path hits the same `k`),
    /// and each table is an `O(n)` build — caching removes the per-call
    /// construction that used to dominate `apply_automorphism` on short
    /// polynomials.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`AutomorphismTable::new`].
    pub fn cached(n: usize, k: u64) -> Arc<AutomorphismTable> {
        static CACHE: LazyLock<Cache<(usize, u64), AutomorphismTable>> =
            LazyLock::new(Cache::unbounded);
        CACHE.get_or_insert_with((n, k), || AutomorphismTable::new(n, k))
    }

    /// The raw permutation (`perm[i]` = source slot of destination `i`).
    #[inline]
    pub fn permutation(&self) -> &[u32] {
        &self.perm
    }
}

/// Applies an automorphism to a polynomial in NTT representation using a
/// precomputed table.
///
/// # Panics
///
/// Panics if `a.len()` differs from the table's ring degree.
pub fn apply_automorphism_ntt(a: &[u64], table: &AutomorphismTable) -> Vec<u64> {
    assert_eq!(a.len(), table.perm.len(), "ring degree mismatch");
    cl_trace::record_automorph(1, a.len());
    let mut out = vec![0u64; a.len()];
    crate::backend::gather_slice(&mut out, a, &table.perm);
    out
}

/// Allocation-free variant of [`apply_automorphism_ntt`]: writes the permuted
/// limb into `out`.
///
/// # Panics
///
/// Panics if `a.len()` or `out.len()` differs from the table's ring degree.
pub fn apply_automorphism_ntt_into(a: &[u64], table: &AutomorphismTable, out: &mut [u64]) {
    assert_eq!(a.len(), table.perm.len(), "ring degree mismatch");
    assert_eq!(out.len(), table.perm.len(), "output length mismatch");
    cl_trace::record_automorph(1, a.len());
    crate::backend::gather_slice(out, a, &table.perm);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_ntt_primes, NttTable};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn setup(n: usize) -> NttTable {
        let q = generate_ntt_primes(n, 28, 1).unwrap()[0];
        NttTable::new(n, q).unwrap()
    }

    #[test]
    fn identity_automorphism() {
        let t = setup(16);
        let a: Vec<u64> = (0..16).collect();
        assert_eq!(apply_automorphism_coeff(&a, 1, t.modulus()), a);
        let tab = AutomorphismTable::new(16, 1);
        assert_eq!(apply_automorphism_ntt(&a, &tab), a);
    }

    #[test]
    fn coeff_automorphism_k3_by_hand() {
        // n=4: a(X) = a0 + a1 X + a2 X^2 + a3 X^3, sigma_3 maps
        // X -> X^3, X^2 -> X^6 = -X^2, X^3 -> X^9 = X^1.
        let q = Modulus::new(97).unwrap();
        let a = vec![1u64, 2, 3, 4];
        let out = apply_automorphism_coeff(&a, 3, &q);
        assert_eq!(out, vec![1, 4, 97 - 3, 2]);
    }

    #[test]
    fn ntt_domain_matches_coeff_domain() {
        let n = 64;
        let t = setup(n);
        let q = t.modulus().value();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        for k in [3u64, 5, 25, galois_element_conjugate(n)] {
            let coeff_path = apply_automorphism_coeff(&a, k, t.modulus());
            let mut ntt_in = a.clone();
            t.forward(&mut ntt_in);
            let tab = AutomorphismTable::new(n, k);
            let mut ntt_out = apply_automorphism_ntt(&ntt_in, &tab);
            t.inverse(&mut ntt_out);
            assert_eq!(ntt_out, coeff_path, "k={k}");
        }
    }

    #[test]
    fn cached_and_into_match_plain() {
        let n = 32;
        let k = galois_element_for_rotation(2, n);
        let tab = AutomorphismTable::cached(n, k);
        let tab2 = AutomorphismTable::cached(n, k);
        assert!(Arc::ptr_eq(&tab, &tab2));
        assert_eq!(tab.permutation(), AutomorphismTable::new(n, k).permutation());
        let a: Vec<u64> = (0..n as u64).collect();
        let plain = apply_automorphism_ntt(&a, &tab);
        let mut into = vec![0u64; n];
        apply_automorphism_ntt_into(&a, &tab, &mut into);
        assert_eq!(plain, into);
    }

    #[test]
    fn rotation_elements_compose() {
        let n = 32;
        let two_n = 2 * n as u64;
        let g1 = galois_element_for_rotation(3, n);
        let g2 = galois_element_for_rotation(5, n);
        let g12 = galois_element_for_rotation(8, n);
        assert_eq!((g1 * g2) % two_n, g12);
        // Full cycle is the identity.
        assert_eq!(galois_element_for_rotation(n as i64 / 2, n), 1);
        // Negative steps invert.
        let gneg = galois_element_for_rotation(-3, n);
        assert_eq!((g1 * gneg) % two_n, 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn automorphism_group_law(seed in any::<u64>(), k1_idx in 0usize..8, k2_idx in 0usize..8) {
            let n = 32;
            let t = setup(n);
            let q = t.modulus().value();
            let two_n = 2 * n as u64;
            let odd: Vec<u64> = (0..two_n).filter(|k| k % 2 == 1).collect();
            let k1 = odd[k1_idx * 3 % odd.len()];
            let k2 = odd[k2_idx * 5 % odd.len()];
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
            let one_step = apply_automorphism_coeff(&a, (k1 * k2) % two_n, t.modulus());
            let two_step =
                apply_automorphism_coeff(&apply_automorphism_coeff(&a, k2, t.modulus()), k1, t.modulus());
            prop_assert_eq!(one_step, two_step);
        }
    }
}

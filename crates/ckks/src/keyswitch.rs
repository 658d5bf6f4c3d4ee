//! Keyswitching: standard and boosted (Sec. 3, Listing 1).
//!
//! Keyswitching re-encrypts a polynomial `c` that is implicitly multiplied
//! by some other secret `s'` (e.g. `s^2` after a tensor product, or `σ(s)`
//! after an automorphism) back under the original secret `s`. It dominates
//! FHE runtime — "in practice over 90% of all operations" (Sec. 2.2) — and
//! its algorithm choice drives CraterLake's entire design.
//!
//! Two algorithms are implemented behind one interface:
//!
//! - **Standard** ([`KeySwitchKind::Standard`]): per-limb digit
//!   decomposition over `Q` only. `L^2` NTT cost, `O(L^2)`-sized hints; the
//!   algorithm F1 was optimized for. Efficient only at small `L`.
//! - **Boosted** ([`KeySwitchKind::Boosted`]): the Gentry-Halevi-Smart
//!   "hybrid" algorithm with `t` digits and special moduli `P`. Expands the
//!   input to base `Q·P` via fast base conversion, applies a hint that is
//!   only `t+1` ciphertexts big, and divides by `P`. `O(L)` NTTs.

use cl_rns::{mod_down_ntt, Basis, RnsPoly};
use rand::Rng;
use rayon::prelude::*;

use crate::error::{FheError, FheResult};
use crate::noise::SIGMA;
use crate::{CkksContext, KeySwitchKey, SecretKey};

/// Which keyswitching algorithm to use (and, for boosted, how many digits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeySwitchKind {
    /// Standard RNS keyswitching: one digit per limb, a single special
    /// modulus.
    Standard,
    /// Boosted keyswitching with `digits` digits (Sec. 3.1). `digits = 1`
    /// is the most efficient variant; higher digit counts trade hint size
    /// for a smaller special-modulus footprint (better security at a given
    /// `log QP`).
    Boosted {
        /// Number of digits `t >= 1`.
        digits: usize,
    },
}

impl CkksContext {
    /// Partition of the full modulus chain into digit limb-groups for the
    /// given keyswitch kind.
    fn digit_partition(&self, kind: KeySwitchKind) -> Vec<Vec<u32>> {
        let l_max = self.params().levels();
        match kind {
            KeySwitchKind::Standard => {
                assert!(
                    self.params().special_limbs() >= 1,
                    "standard keyswitching needs 1 special limb (its rescaling modulus), have 0"
                );
                (0..l_max as u32).map(|i| vec![i]).collect()
            }
            KeySwitchKind::Boosted { digits } => {
                assert!(digits >= 1, "digit count must be >= 1");
                let alpha = l_max.div_ceil(digits);
                assert!(
                    self.params().special_limbs() >= alpha,
                    "boosted keyswitching with {digits} digits needs {alpha} special limbs, \
                     have {}",
                    self.params().special_limbs()
                );
                (0..l_max)
                    .step_by(alpha)
                    .map(|start| (start as u32..(start + alpha).min(l_max) as u32).collect())
                    .collect()
            }
        }
    }

    /// Number of special limbs a keyswitch kind uses.
    pub(crate) fn special_for(&self, kind: KeySwitchKind) -> usize {
        match kind {
            // Standard RNS keyswitching uses a single rescaling modulus
            // (this matches the paper's standard-keyswitch cost accounting:
            // L digits x (L+1)-limb hints ≈ 2L^2 N words, L^2 NTTs).
            KeySwitchKind::Standard => 1,
            KeySwitchKind::Boosted { digits } => self.params().levels().div_ceil(digits),
        }
    }

    /// Generates a keyswitch key (hint) that moves ciphertexts from secret
    /// `s_prime` to secret `sk`.
    ///
    /// The pseudo-random halves are derived from `seed` so they never need
    /// to be stored or transferred (the KSHGen optimization).
    ///
    /// # Panics
    ///
    /// Panics if the parameters do not provide enough special limbs for the
    /// requested digit count.
    pub fn keyswitch_keygen<R: Rng + ?Sized>(
        &self,
        s_prime: &RnsPoly,
        sk: &SecretKey,
        kind: KeySwitchKind,
        rng: &mut R,
    ) -> KeySwitchKey {
        self.keyswitch_keygen_with_error_scale(s_prime, sk, kind, 1, rng)
    }

    /// Like [`CkksContext::keyswitch_keygen`], with the hint errors scaled
    /// by `error_scale`. BGV requires hints whose noise is a multiple of
    /// the plaintext modulus `t` so keyswitching stays exact mod `t`; such
    /// hints remain valid for CKKS (the noise is merely `t` times larger).
    pub fn keyswitch_keygen_with_error_scale<R: Rng + ?Sized>(
        &self,
        s_prime: &RnsPoly,
        sk: &SecretKey,
        kind: KeySwitchKind,
        error_scale: u64,
        rng: &mut R,
    ) -> KeySwitchKey {
        let rns = self.rns();
        let digit_limbs = self.digit_partition(kind);
        let special = self.special_for(kind);
        let key_basis = rns
            .q_basis(self.params().levels())
            .union(&rns.p_basis(special));
        let s = rns.restrict(&sk.s, &key_basis);
        let s_p = rns.restrict(s_prime, &key_basis);
        let seed: u64 = rng.gen();
        let mut elems = Vec::with_capacity(digit_limbs.len());
        for (d, limbs) in digit_limbs.iter().enumerate() {
            // Pseudo-random half from the seed (KSHGen).
            let k1 = prandom_poly(rns, &key_basis, seed, d as u64);
            let mut e = rns.sample_error(&key_basis, rng);
            rns.to_ntt(&mut e);
            if error_scale != 1 {
                e = rns.scalar_mul(&e, error_scale);
            }
            // k0 = -k1*s + e + w_d * s_prime, where w_d is P mod q_i on the
            // digit's limbs and 0 elsewhere (P = 1 for standard keyswitching,
            // where w_d is the CRT indicator itself).
            let w: Vec<u64> = key_basis
                .0
                .iter()
                .map(|&limb| {
                    if limbs.contains(&limb) {
                        let m = rns.modulus(limb);
                        let mut p_mod = 1u64;
                        for k in 0..special {
                            let pl = rns.p_basis(special).0[k];
                            p_mod = m.mul(p_mod, m.reduce(rns.modulus_value(pl)));
                        }
                        p_mod
                    } else {
                        0
                    }
                })
                .collect();
            let mut k0 = rns.neg(&rns.mul(&k1, &s));
            rns.add_assign(&mut k0, &e);
            let payload = rns.scalar_mul_per_limb(&s_p, &w);
            rns.add_assign(&mut k0, &payload);
            elems.push((k0, k1));
        }
        let mut key = KeySwitchKey {
            kind,
            elems,
            digit_limbs,
            seed,
            error_bits: (SIGMA * error_scale as f64).log2(),
            digest: 0,
        };
        key.digest = key.compute_digest();
        key
    }

    /// Regenerates the pseudo-random half of digit `d` of a keyswitch key
    /// from its seed — the operation the KSHGen unit performs on the fly.
    pub fn regenerate_prandom_half(&self, ksk: &KeySwitchKey, d: usize) -> RnsPoly {
        let basis = ksk.elems[d].1.basis().clone();
        prandom_poly(self.rns(), &basis, ksk.seed, d as u64)
    }

    /// Fallible keyswitch of a single polynomial `c` (NTT form, level-`L`
    /// basis), returning the pair `(ks0, ks1)` such that
    /// `ks0 + ks1·s ≈ c·s'`.
    ///
    /// This is Listing 1 of the paper (for the boosted kinds).
    ///
    /// # Errors
    ///
    /// [`FheError::InvalidParams`] when `c` is not in NTT form or not over
    /// a prefix of the ciphertext-modulus chain;
    /// [`FheError::CorruptKey`] when the hint fails its integrity check
    /// under [`crate::GuardrailPolicy::Strict`].
    pub fn try_keyswitch(
        &self,
        c: &RnsPoly,
        ksk: &KeySwitchKey,
    ) -> FheResult<(RnsPoly, RnsPoly)> {
        self.keyswitch_impl("keyswitch", c, ksk)
    }

    /// [`CkksContext::try_keyswitch`] with the caller's operation name on
    /// error reports, so a hint that fails its check under `try_mul` is
    /// reported as `mul`.
    pub(crate) fn keyswitch_impl(
        &self,
        op: &'static str,
        c: &RnsPoly,
        ksk: &KeySwitchKey,
    ) -> FheResult<(RnsPoly, RnsPoly)> {
        self.hoist_impl(op, c, ksk.kind)?
            .apply_impl(self, op, None, ksk)
    }

    /// Phase one of keyswitching, split out so it can be *hoisted*: digit
    /// decomposition plus ModUp base extension of `c` (NTT form, level-`L`
    /// prefix basis). The result depends only on the polynomial and the
    /// keyswitch kind — not on which key is applied — so one decomposition
    /// can feed many [`HoistedDecomposition::apply`] calls.
    ///
    /// This is Listing 1, lines 1-3, amortized the way CraterLake amortizes
    /// boosted keyswitching across the BSGS rotations of its bootstrapping
    /// linear transforms (Sec. 6).
    ///
    /// # Errors
    ///
    /// [`FheError::InvalidParams`] when `c` is not in NTT form or not over
    /// a prefix of the ciphertext-modulus chain.
    ///
    /// # Panics
    ///
    /// Panics if the parameters do not provide enough special limbs for
    /// `kind` (the same precondition as key generation).
    pub fn try_hoist(
        &self,
        c: &RnsPoly,
        kind: KeySwitchKind,
    ) -> FheResult<HoistedDecomposition> {
        self.hoist_impl("hoist", c, kind)
    }

    /// [`CkksContext::try_hoist`] with the caller's operation name on error
    /// reports.
    pub(crate) fn hoist_impl(
        &self,
        op: &'static str,
        c: &RnsPoly,
        kind: KeySwitchKind,
    ) -> FheResult<HoistedDecomposition> {
        if !c.ntt_form() {
            return Err(FheError::InvalidParams {
                op,
                reason: "input must be in NTT form".into(),
            });
        }
        let rns = self.rns();
        let level = c.num_limbs();
        let qb = rns.q_basis(level);
        if c.basis() != &qb {
            return Err(FheError::InvalidParams {
                op,
                reason: format!(
                    "input basis {:?} is not the q_1..q_{level} prefix",
                    c.basis()
                ),
            });
        }
        let digit_limbs = self.digit_partition(kind);
        let special = self.special_for(kind);
        let target = qb.union(&rns.p_basis(special));
        let mut c_coeff = c.clone();
        rns.from_ntt(&mut c_coeff);
        // ModUp each digit in parallel: every digit's restrict + base
        // conversion + NTT is independent of the others (the CraterLake
        // schedule overlaps them across functional units the same way).
        let digits: Vec<Option<RnsPoly>> = (0..digit_limbs.len())
            .into_par_iter()
            .map(|d| {
                let limbs = &digit_limbs[d];
                let present: Vec<u32> =
                    limbs.iter().copied().filter(|&l| (l as usize) < level).collect();
                if present.is_empty() {
                    return None;
                }
                let digit_basis = Basis(present.clone());
                let ext_basis = Basis(
                    target
                        .0
                        .iter()
                        .copied()
                        .filter(|l| !present.contains(l))
                        .collect(),
                );
                // ModUp: fast base conversion to the rest of the target basis
                // (this is the changeRNSBase of Listing 1, line 3). The
                // extension is never empty: the target holds at least one
                // special limb, which no digit contains. Only the converted
                // extension limbs need a forward NTT: the digit's own limbs
                // are copied from the original NTT-form input — the INTT→NTT
                // roundtrip is exact, so this is bit-identical and brings
                // the ModUp NTT count down to the paper's t·L.
                // The full-basis slab is reserved before the conversion
                // writes anything: in the other order a freed temporary
                // fragments the worker's arena, and `lola_mlp_8k`'s peak
                // RSS rose by 1 %.
                let coeffs = if digit_basis == qb {
                    // The digit is the whole input (every single-digit
                    // keyswitch, and a multi-digit one at a low level): the
                    // slab is the input's limbs followed by the special
                    // limbs, so the conversion reads the coefficient-form
                    // input as it is, with no restricted copy, and appends
                    // straight into the slab.
                    let mut coeffs = Vec::with_capacity(c.n() * target.len());
                    coeffs.extend_from_slice(c.coeffs());
                    self.converter(&digit_basis, &ext_basis)
                        .convert_append(rns, &c_coeff, &mut coeffs);
                    rns.to_ntt_limbs(&ext_basis.0, &mut coeffs[level * c.n()..]);
                    coeffs
                } else {
                    let c_d = rns.restrict(&c_coeff, &digit_basis);
                    let mut coeffs = Vec::with_capacity(c.n() * target.len());
                    let conv = self.converter(&digit_basis, &ext_basis);
                    let mut c_ext = conv.convert(rns, &c_d);
                    rns.to_ntt(&mut c_ext);
                    for &limb in &target.0 {
                        let src = if digit_basis.0.contains(&limb) {
                            let k = qb.0.iter().position(|&l| l == limb).expect(
                                "every digit limb lies in the level-L prefix basis",
                            );
                            c.limb(k)
                        } else {
                            let k = ext_basis.0.iter().position(|&l| l == limb).expect(
                                "target basis is the disjoint union of digit and extension bases",
                            );
                            c_ext.limb(k)
                        };
                        coeffs.extend_from_slice(src);
                    }
                    coeffs
                };
                Some(
                    RnsPoly::from_raw_parts(c.n(), target.clone(), coeffs, true)
                        .expect("one limb of the ring degree per target-basis entry"),
                )
            })
            .collect();
        Ok(HoistedDecomposition {
            kind,
            level,
            target,
            digits,
        })
    }

    /// Closing ModDown of a pair of extended-basis accumulators (Listing
    /// 1, lines 7-10), entirely in the NTT domain: divides by the special
    /// modulus of `kind` and returns the pair over the level-`level`
    /// prefix basis. Each accumulator becomes its result in place.
    pub(crate) fn mod_down_pair(
        &self,
        level: usize,
        kind: KeySwitchKind,
        acc0: RnsPoly,
        acc1: RnsPoly,
    ) -> (RnsPoly, RnsPoly) {
        let rns = self.rns();
        let qb = rns.q_basis(level);
        let pb = rns.p_basis(self.special_for(kind));
        let conv = self.converter(&pb, &qb);
        let ks0 = mod_down_ntt(rns, acc0, &qb, &pb, &conv);
        let ks1 = mod_down_ntt(rns, acc1, &qb, &pb, &conv);
        (ks0, ks1)
    }

    /// Generates a relinearization key (keyswitch key for `s^2 → s`).
    pub fn relin_keygen<R: Rng + ?Sized>(
        &self,
        sk: &SecretKey,
        kind: KeySwitchKind,
        rng: &mut R,
    ) -> KeySwitchKey {
        let rns = self.rns();
        let s2 = rns.mul(&sk.s, &sk.s);
        self.keyswitch_keygen(&s2, sk, kind, rng)
    }

    /// Generates a rotation key for `steps` slots (keyswitch key for
    /// `σ_g(s) → s` with `g = 5^steps mod 2N`).
    pub fn rotation_keygen<R: Rng + ?Sized>(
        &self,
        sk: &SecretKey,
        steps: i64,
        kind: KeySwitchKind,
        rng: &mut R,
    ) -> KeySwitchKey {
        let g = cl_math::galois_element_for_rotation(steps, self.params().ring_degree());
        let s_rot = self.rns().apply_automorphism(&sk.s, g);
        self.keyswitch_keygen(&s_rot, sk, kind, rng)
    }

    /// Generates a conjugation key (keyswitch key for `σ_{2N-1}(s) → s`).
    pub fn conjugation_keygen<R: Rng + ?Sized>(
        &self,
        sk: &SecretKey,
        kind: KeySwitchKind,
        rng: &mut R,
    ) -> KeySwitchKey {
        let g = cl_math::galois_element_conjugate(self.params().ring_degree());
        let s_conj = self.rns().apply_automorphism(&sk.s, g);
        self.keyswitch_keygen(&s_conj, sk, kind, rng)
    }

}

/// Phase one of the two-phase keyswitch: the digit decomposition and ModUp
/// base extension of one polynomial, reusable across many keyswitch
/// applications (*hoisting*).
///
/// Validity of rotating *after* decomposition: an automorphism `σ` is a
/// ring automorphism of `R_{QP}` and each extended digit represents
/// `x_d + α·Q_d` as a ring element, so `σ(x_d + α·Q_d) = σ(x_d) + σ(α)·Q_d`
/// — still the digit value plus a multiple of `Q_d`, which is exactly the
/// ambiguity class the hint construction and the closing ModDown absorb.
/// The noise bound is unchanged because `σ` permutes coefficients without
/// growing them. In the NTT domain `σ` is a pure index permutation, fused
/// into the hint inner product as a gather
/// ([`cl_rns::RnsContext::mul_acc_superset_automorph`]).
///
/// Obtain one via [`CkksContext::try_hoist`]; apply it with
/// [`HoistedDecomposition::apply`], once per key (a plain keyswitch, or a
/// Galois keyswitch with the automorphism applied per limb to the
/// already-decomposed digits).
#[derive(Debug, Clone)]
pub struct HoistedDecomposition {
    kind: KeySwitchKind,
    level: usize,
    target: Basis,
    /// ModUp'd digit polynomials over `target`, NTT form; `None` for
    /// digits whose limbs all lie above `level`.
    digits: Vec<Option<RnsPoly>>,
}

impl HoistedDecomposition {
    /// The keyswitch kind this decomposition was computed for.
    pub fn kind(&self) -> KeySwitchKind {
        self.kind
    }

    /// The level (limb count) of the decomposed polynomial.
    pub fn level(&self) -> usize {
        self.level
    }

    fn check_key(&self, op: &'static str, ksk: &KeySwitchKey) -> FheResult<()> {
        if ksk.kind != self.kind || ksk.digit_limbs.len() != self.digits.len() {
            return Err(FheError::InvalidParams {
                op,
                reason: format!(
                    "keyswitch key kind {:?} does not match the hoisted decomposition kind {:?}",
                    ksk.kind, self.kind
                ),
            });
        }
        Ok(())
    }

    /// A zeroed pair of extended-basis (`Q·P`) accumulators in NTT form,
    /// the shape [`HoistedDecomposition::apply_ext_into`] accumulates into.
    pub(crate) fn zero_ext_pair(&self, ctx: &CkksContext) -> (RnsPoly, RnsPoly) {
        let mut acc0 = ctx.rns().zero(&self.target);
        acc0.set_ntt_form(true);
        let acc1 = acc0.clone();
        (acc0, acc1)
    }

    /// Phase two: hint inner product plus the single closing ModDown.
    ///
    /// With `galois: None` this is a plain keyswitch, bit-identical to
    /// [`CkksContext::try_keyswitch`] on the same polynomial. With
    /// `Some(g)` the automorphism `σ_g` (a rotation or conjugation) is
    /// applied per limb to the already-decomposed digits, as a gather fused
    /// into the inner product; the result is the keyswitched pair for
    /// `σ_g(c)`, and the caller adds `σ_g(c0)` separately.
    ///
    /// # Errors
    ///
    /// [`FheError::InvalidParams`] when the key's kind does not match the
    /// decomposition; [`FheError::CorruptKey`] under
    /// [`crate::GuardrailPolicy::Strict`] for a tampered hint.
    pub fn apply(
        &self,
        ctx: &CkksContext,
        galois: Option<u64>,
        ksk: &KeySwitchKey,
    ) -> FheResult<(RnsPoly, RnsPoly)> {
        self.apply_impl(ctx, "keyswitch_hoisted", galois, ksk)
    }

    /// Phase two with the caller's operation name on error reports.
    pub(crate) fn apply_impl(
        &self,
        ctx: &CkksContext,
        op: &'static str,
        galois: Option<u64>,
        ksk: &KeySwitchKey,
    ) -> FheResult<(RnsPoly, RnsPoly)> {
        let (acc0, acc1) = self.apply_ext(ctx, op, galois, ksk)?;
        Ok(ctx.mod_down_pair(self.level, self.kind, acc0, acc1))
    }

    /// Phase two *without* the closing ModDown, into fresh accumulators:
    /// the allocating form of [`HoistedDecomposition::apply_ext_into`].
    pub(crate) fn apply_ext(
        &self,
        ctx: &CkksContext,
        op: &'static str,
        galois: Option<u64>,
        ksk: &KeySwitchKey,
    ) -> FheResult<(RnsPoly, RnsPoly)> {
        let (mut acc0, mut acc1) = self.zero_ext_pair(ctx);
        self.apply_ext_into(ctx, op, galois, ksk, &mut acc0, &mut acc1)?;
        Ok((acc0, acc1))
    }

    /// Phase two *without* the closing ModDown, accumulated into a
    /// caller-owned pair: `(acc0, acc1) += Σ_d σ(digit_d)·hint_d` over the
    /// extended basis `Q·P`, still scaled by `P`. The pair must have this
    /// decomposition's shape ([`HoistedDecomposition::zero_ext_pair`]: its
    /// level's `Q` limbs, then its kind's special limbs, NTT form).
    ///
    /// Double hoisting sums many terms into one pair (ModDown is linear up
    /// to the ±1 conversion rounding, which the noise model's rounding
    /// floor already covers) and pays one ModDown for the whole sum, so a
    /// rotate-sum allocates no extended-basis polynomial per term. The
    /// MACs accumulate serially in digit order, so the result is
    /// bit-identical at any thread count; the limb loops inside each
    /// kernel still run on the worker pool.
    ///
    /// Every CKKS hint application passes through here, so this is where
    /// the Strict policy checks the hint — once per application. The key
    /// is checked before the first MAC: on error the pair is unchanged.
    pub(crate) fn apply_ext_into(
        &self,
        ctx: &CkksContext,
        op: &'static str,
        galois: Option<u64>,
        ksk: &KeySwitchKey,
        acc0: &mut RnsPoly,
        acc1: &mut RnsPoly,
    ) -> FheResult<()> {
        ctx.guard_key(op, ksk)?;
        self.check_key(op, ksk)?;
        let rns = ctx.rns();
        for (d, digit) in self.digits.iter().enumerate() {
            let Some(c_full) = digit else { continue };
            rns.mul_acc_pair_superset(acc0, acc1, c_full, galois, &ksk.elems[d].0, &ksk.elems[d].1);
        }
        Ok(())
    }
}

/// Deterministic uniform polynomial from `(seed, digit)` over `basis`, NTT
/// form — the pseudo-random hint half.
///
/// Every consumer of a hint seed funnels through here — keygen, the
/// serialization loader, and lazy hot-cache expansion — so they all agree on
/// the generator: per-limb splitmix64 counter streams reduced through the
/// vectorized [`cl_math::Modulus::reduce_raw_slice`] backend kernel
/// ([`cl_rns::RnsContext::sample_uniform_seeded`]). The expansion is
/// bit-identical across backends and thread counts, and each call records a
/// `hint_regen` pass per limb in `cl-trace`.
pub(crate) fn prandom_poly(
    rns: &cl_rns::RnsContext,
    basis: &Basis,
    seed: u64,
    digit: u64,
) -> RnsPoly {
    rns.sample_uniform_seeded(basis, seed, digit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CkksParams;
    use rand::SeedableRng;

    fn ctx(levels: usize, special: usize) -> CkksContext {
        let params = CkksParams::builder()
            .ring_degree(128)
            .levels(levels)
            .special_limbs(special)
            .limb_bits(40)
            .scale_bits(32)
            .build()
            .unwrap();
        CkksContext::new(params).unwrap()
    }

    /// Checks that keyswitching a polynomial known to equal `d2` (implicitly
    /// multiplied by s') produces a valid encryption of `d2*s'` under `s`.
    fn check_keyswitch(kind: KeySwitchKind, levels: usize, special: usize) {
        let c = ctx(levels, special);
        let rns = c.rns();
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let sk = c.keygen(&mut rng);
        // s' = an independent ternary secret.
        let s_prime = {
            let basis = c.full_basis();
            let mut s = rns.sample_ternary(&basis, &mut rng);
            rns.to_ntt(&mut s);
            s
        };
        let ksk = c.keyswitch_keygen(&s_prime, &sk, kind, &mut rng);
        // A small "message-like" polynomial c (bounded coefficients).
        let qb = rns.q_basis(levels);
        let signed: Vec<i64> = (0..c.params().ring_degree())
            .map(|i| ((i as i64 * 37 + 11) % 1000) - 500)
            .collect();
        let mut msg = rns.from_signed_coeffs(&signed, &qb);
        rns.to_ntt(&mut msg);
        let (ks0, ks1) = c.try_keyswitch(&msg, &ksk).unwrap();
        // Decrypt: ks0 + ks1*s should equal msg*s' up to small noise.
        let s = rns.restrict(&sk.s, &qb);
        let sp = rns.restrict(&s_prime, &qb);
        let mut got = rns.mul(&ks1, &s);
        rns.add_assign(&mut got, &ks0);
        let expect = rns.mul(&msg, &sp);
        let mut diff = rns.sub(&got, &expect);
        rns.from_ntt(&mut diff);
        // The noise must be small relative to Q: reconstruct the exact
        // centered magnitude of each coefficient and compare against Q.
        let moduli: Vec<u64> = qb.0.iter().map(|&l| rns.modulus_value(l)).collect();
        let q_big = cl_math::BigUint::product(&moduli);
        let q_f64 = q_big.to_f64();
        let mut max_noise = 0f64;
        for i in 0..c.params().ring_degree() {
            let residues: Vec<u64> = (0..diff.num_limbs()).map(|k| diff.limb(k)[i]).collect();
            let big = cl_math::BigUint::crt_combine(&residues, &moduli);
            let (_, mag) = big.centered(&q_big);
            max_noise = max_noise.max(mag.to_f64());
        }
        assert!(
            max_noise < q_f64 / 2f64.powi(50),
            "keyswitch noise too large for {kind:?}: {max_noise:e} vs Q={q_f64:e}"
        );
    }

    #[test]
    fn boosted_1digit_keyswitch_is_correct() {
        check_keyswitch(KeySwitchKind::Boosted { digits: 1 }, 3, 3);
    }

    #[test]
    fn boosted_2digit_keyswitch_is_correct() {
        check_keyswitch(KeySwitchKind::Boosted { digits: 2 }, 4, 2);
    }

    #[test]
    fn boosted_3digit_keyswitch_is_correct() {
        check_keyswitch(KeySwitchKind::Boosted { digits: 3 }, 6, 2);
    }

    #[test]
    fn standard_keyswitch_is_correct() {
        check_keyswitch(KeySwitchKind::Standard, 3, 1);
    }

    #[test]
    fn keyswitch_below_max_level() {
        // Keys are generated once at max level but must work lower.
        let c = ctx(4, 4);
        let rns = c.rns();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let sk = c.keygen(&mut rng);
        let s_prime = {
            let mut s = rns.sample_ternary(&c.full_basis(), &mut rng);
            rns.to_ntt(&mut s);
            s
        };
        let ksk = c.keyswitch_keygen(&s_prime, &sk, KeySwitchKind::Boosted { digits: 2 }, &mut rng);
        for level in 1..=4 {
            let qb = rns.q_basis(level);
            let signed: Vec<i64> = (0..128).map(|i| (i % 17) - 8).collect();
            let mut msg = rns.from_signed_coeffs(&signed, &qb);
            rns.to_ntt(&mut msg);
            let (ks0, ks1) = c.try_keyswitch(&msg, &ksk).unwrap();
            let s = rns.restrict(&sk.s, &qb);
            let sp = rns.restrict(&s_prime, &qb);
            let mut got = rns.mul(&ks1, &s);
            rns.add_assign(&mut got, &ks0);
            let expect = rns.mul(&msg, &sp);
            let mut diff = rns.sub(&got, &expect);
            rns.from_ntt(&mut diff);
            let m0 = rns.modulus(0);
            let max_noise = diff
                .limb(0)
                .iter()
                .map(|&x| m0.lift_centered(x).abs())
                .max()
                .unwrap();
            assert!(max_noise < 1 << 30, "level {level}: noise {max_noise}");
        }
    }

    #[test]
    fn prandom_half_regenerates_exactly() {
        let c = ctx(3, 3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let sk = c.keygen(&mut rng);
        let ksk = c.relin_keygen(&sk, KeySwitchKind::Boosted { digits: 1 }, &mut rng);
        for d in 0..ksk.num_digits() {
            let regen = c.regenerate_prandom_half(&ksk, d);
            assert_eq!(&regen, &ksk.elems[d].1, "digit {d}");
        }
        // Seeded storage is half of full storage.
        assert_eq!(ksk.num_words_seeded() * 2, ksk.num_words_full());
    }

    #[test]
    fn hint_sizes_match_paper_ratios() {
        // Sec. 3.1: with 1-digit keyswitching each KSH is the size of 2
        // ciphertexts; with t digits, t+1 ciphertexts.
        for digits in 1..=3usize {
            let levels = 6;
            let c = ctx(levels, levels.div_ceil(digits));
            let mut rng = rand::rngs::StdRng::seed_from_u64(17);
            let sk = c.keygen(&mut rng);
            let ksk = c.relin_keygen(&sk, KeySwitchKind::Boosted { digits }, &mut rng);
            let ct_words = 2 * levels * c.params().ring_degree();
            let ratio = ksk.num_words_full() as f64 / ct_words as f64;
            // t digits x 2 polys x (L + ceil(L/t)) limbs over 2 x L limbs.
            let expect = (digits as f64)
                * (levels as f64 + (levels as f64 / digits as f64).ceil())
                / levels as f64;
            assert!(
                (ratio - expect).abs() < 1e-9,
                "digits={digits}: ratio {ratio} vs {expect}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "special limbs")]
    fn boosted_needs_enough_special_limbs() {
        let c = ctx(4, 1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let sk = c.keygen(&mut rng);
        let _ = c.relin_keygen(&sk, KeySwitchKind::Boosted { digits: 1 }, &mut rng);
    }
}

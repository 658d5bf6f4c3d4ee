//! The CKKS context: parameters, RNS machinery, encoder, and key/ct I/O.

use std::fmt;
use std::sync::{Arc, OnceLock};

use cl_math::{Cache, Complex, CrtBasis, SpecialFft};
use cl_rns::{BaseConverter, Basis, RnsContext, RnsError, RnsPoly};
use rand::Rng;

use crate::error::{FheError, FheResult};
use crate::params::ParamsError;
use crate::serialize::{FNV_OFFSET, FNV_PRIME};
use crate::{Ciphertext, CkksParams, KeySwitchKey, Plaintext, PublicKey, SecretKey};

/// Errors produced by CKKS operations.
#[derive(Debug)]
pub enum CkksError {
    /// Parameter validation failed.
    Params(ParamsError),
    /// RNS-layer failure (e.g. not enough NTT-friendly primes).
    Rns(RnsError),
    /// An operation was applied to incompatible operands.
    Incompatible(String),
}

impl fmt::Display for CkksError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkksError::Params(e) => write!(f, "{e}"),
            CkksError::Rns(e) => write!(f, "{e}"),
            CkksError::Incompatible(msg) => write!(f, "incompatible operands: {msg}"),
        }
    }
}

impl std::error::Error for CkksError {}

impl From<RnsError> for CkksError {
    fn from(e: RnsError) -> Self {
        CkksError::Rns(e)
    }
}

impl From<ParamsError> for CkksError {
    fn from(e: ParamsError) -> Self {
        CkksError::Params(e)
    }
}

/// Maximum relative deviation two scales may have and still be treated as
/// equal by addition-family operations; beyond it they fail with
/// [`FheError::ScaleMismatch`].
pub(crate) const SCALE_REL_TOLERANCE: f64 = 1e-6;

/// Runtime guardrail policy: what a context checks on every fallible
/// (`try_*`) homomorphic operation. Every context validates operand
/// conformance (residue ranges, bases, NTT form, scales) and verifies
/// keyswitch-hint integrity digests; the policy sets only the noise-budget
/// floor. Levels and rescales are the caller's (or the compiler's) to
/// manage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GuardrailPolicy {
    /// Fail with [`FheError::BudgetExhausted`](crate::FheError::BudgetExhausted)
    /// when an operation's result would have less than `min_budget_bits`
    /// of estimated (signed) noise budget left, or a NaN budget.
    Strict {
        /// Minimum acceptable signed budget (bits) after each operation;
        /// a new context starts at `f64::NEG_INFINITY` (no floor).
        min_budget_bits: f64,
    },
}

/// A fully initialized CKKS instance.
///
/// Owns the RNS context (modulus chains and NTT tables), the encoder FFT,
/// and a cache of base converters keyed by `(source, destination)` basis —
/// the software analogue of the CRB unit's constant buffers.
pub struct CkksContext {
    params: CkksParams,
    rns: RnsContext,
    fft: SpecialFft,
    converters: Cache<(Vec<u32>, Vec<u32>), BaseConverter>,
    policy: GuardrailPolicy,
    /// NTT image of the monomial `X^{N/2}` over the full ciphertext chain,
    /// built on first use (see [`CkksContext::try_mul_by_i`]).
    i_monomial: OnceLock<RnsPoly>,
}

impl fmt::Debug for CkksContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CkksContext")
            .field("params", &self.params)
            .finish_non_exhaustive()
    }
}

impl CkksContext {
    /// Initializes a context from validated parameters: generates the
    /// modulus chains and precomputes NTT/FFT tables.
    ///
    /// # Errors
    ///
    /// Fails if not enough NTT-friendly primes of the requested width exist
    /// for this ring degree.
    pub fn new(params: CkksParams) -> Result<Self, CkksError> {
        let rns = RnsContext::generate(
            params.n,
            params.levels,
            params.special_limbs,
            params.limb_bits,
        )?;
        let fft = SpecialFft::new(params.n / 2);
        Ok(Self {
            params,
            rns,
            fft,
            converters: Cache::unbounded(),
            policy: GuardrailPolicy::Strict {
                min_budget_bits: f64::NEG_INFINITY,
            },
            i_monomial: OnceLock::new(),
        })
    }

    /// The parameter set.
    pub fn params(&self) -> &CkksParams {
        &self.params
    }

    /// Sets the guardrail policy for all subsequent `try_*` operations.
    pub fn set_policy(&mut self, policy: GuardrailPolicy) {
        self.policy = policy;
    }

    /// Builder-style [`CkksContext::set_policy`].
    #[must_use]
    pub fn with_policy(mut self, policy: GuardrailPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The underlying RNS context.
    pub fn rns(&self) -> &RnsContext {
        &self.rns
    }

    /// The default encoding scale.
    pub fn default_scale(&self) -> f64 {
        self.params.scale()
    }

    /// The maximum level (multiplicative budget) of fresh ciphertexts.
    pub fn max_level(&self) -> usize {
        self.params.levels
    }

    /// A 64-bit fingerprint of the parameters that determine wire-format
    /// compatibility: ring degree, the full modulus chain (ciphertext and
    /// special limbs, in order), the default scale, and the digit budget
    /// implied by the special-limb count.
    ///
    /// Serialized blobs record this fingerprint; load paths reject blobs
    /// whose fingerprint differs from the loading context's
    /// ([`FheError::ParamsMismatch`]). FNV-1a over the 32-bit halves of the
    /// parameter words, one chain (a few dozen words, so the serial chain
    /// costs nothing here).
    pub fn params_fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        let mut mix = |word: u64| {
            for half in [word as u32 as u64, word >> 32] {
                h ^= half;
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        mix(self.params.n as u64);
        mix(self.params.levels as u64);
        mix(self.params.special_limbs as u64);
        mix(self.params.scale().to_bits());
        for limb in 0..self.rns.num_q() + self.rns.num_p() {
            mix(self.rns.modulus_value(limb as u32));
        }
        h
    }

    /// Fetches (or builds and caches) the base converter from `src` to
    /// `dst`.
    pub fn converter(&self, src: &Basis, dst: &Basis) -> Arc<BaseConverter> {
        self.converters.get_or_insert_with((src.0.clone(), dst.0.clone()), || {
            BaseConverter::new(&self.rns, src.clone(), dst.clone())
        })
    }

    /// The NTT image of `X^{N/2}` over the full ciphertext chain, built
    /// once from the exact integer monomial (never through the
    /// floating-point encoder).
    pub(crate) fn i_monomial(&self) -> &RnsPoly {
        self.i_monomial.get_or_init(|| {
            let n = self.params.n;
            let mut coeffs = vec![0i64; n];
            coeffs[n / 2] = 1;
            let mut poly = self
                .rns
                .from_signed_coeffs(&coeffs, &self.rns.q_basis(self.params.levels));
            self.rns.to_ntt(&mut poly);
            poly
        })
    }

    // ------------------------------------------------------------------
    // Encoding
    // ------------------------------------------------------------------

    /// Encodes complex slot values into a plaintext at the given scale and
    /// level. Unfilled slots are zero. The composition of
    /// [`CkksContext::encode_coeffs`] and
    /// [`CkksContext::plaintext_from_coeffs`].
    ///
    /// # Panics
    ///
    /// Panics if more than `N/2` values are supplied or `level` is out of
    /// range.
    pub fn encode_complex(&self, vals: &[Complex], scale: f64, level: usize) -> Plaintext {
        self.plaintext_from_coeffs(&self.encode_coeffs(vals, scale), scale, level)
    }

    /// The first half of encoding: the inverse canonical embedding of the
    /// slot values, scaled and rounded to the `N` signed integer
    /// coefficients of the plaintext polynomial. It depends only on the
    /// values, the scale and the ring degree, not on the level, so a caller
    /// that encodes the same operand again can keep the coefficients.
    ///
    /// # Panics
    ///
    /// Panics if more than `N/2` values are supplied.
    pub fn encode_coeffs(&self, vals: &[Complex], scale: f64) -> Vec<i64> {
        let slots = self.params.slots();
        assert!(vals.len() <= slots, "too many values for {slots} slots");
        let mut v = vec![Complex::default(); slots];
        v[..vals.len()].copy_from_slice(vals);
        self.fft.inverse(&mut v);
        v.iter()
            .map(|c| (c.re * scale).round() as i64)
            .chain(v.iter().map(|c| (c.im * scale).round() as i64))
            .collect()
    }

    /// The second half of encoding: the coefficients of
    /// [`CkksContext::encode_coeffs`] reduced into each limb of `level`'s
    /// basis and taken to NTT form, as a plaintext at `scale`.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs` does not hold `N` coefficients or `level` is out
    /// of range.
    pub fn plaintext_from_coeffs(&self, coeffs: &[i64], scale: f64, level: usize) -> Plaintext {
        assert!((1..=self.params.levels).contains(&level), "bad level");
        let basis = self.rns.q_basis(level);
        let mut poly = self.rns.from_signed_coeffs(coeffs, &basis);
        self.rns.to_ntt(&mut poly);
        Plaintext { poly, level, scale }
    }

    /// Encodes real slot values (imaginary parts zero).
    ///
    /// # Panics
    ///
    /// Panics if more than `N/2` values are supplied or `level` is out of
    /// range.
    pub fn encode(&self, vals: &[f64], scale: f64, level: usize) -> Plaintext {
        let cvals: Vec<Complex> = vals.iter().map(|&r| Complex::new(r, 0.0)).collect();
        self.encode_complex(&cvals, scale, level)
    }

    /// Decodes a plaintext back to `count` complex slot values.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds the slot count.
    pub fn decode_complex(&self, pt: &Plaintext, count: usize) -> Vec<Complex> {
        let slots = self.params.slots();
        assert!(count <= slots);
        let mut poly = pt.poly.clone();
        self.rns.from_ntt(&mut poly);
        let n = self.params.n;
        let mut signed = vec![0f64; n];
        let num_limbs = poly.num_limbs();
        // Fast path for a single limb; exact CRT otherwise.
        if num_limbs == 1 {
            let m = self.rns.modulus(poly.basis().0[0]);
            for (i, s) in signed.iter_mut().enumerate() {
                *s = m.lift_centered(poly.limb(0)[i]) as f64;
            }
        } else {
            let moduli: Vec<u64> = poly.basis().0.iter().map(|&l| self.rns.modulus_value(l)).collect();
            let crt = CrtBasis::new(&moduli);
            let mut residues = vec![0u64; num_limbs];
            for (i, s) in signed.iter_mut().enumerate() {
                for (k, r) in residues.iter_mut().enumerate() {
                    *r = poly.limb(k)[i];
                }
                let (neg, mag) = crt.combine(&residues).centered(crt.product());
                *s = if neg { -mag.to_f64() } else { mag.to_f64() };
            }
        }
        let mut v: Vec<Complex> = (0..slots)
            .map(|j| Complex::new(signed[j] / pt.scale, signed[j + slots] / pt.scale))
            .collect();
        self.fft.forward(&mut v);
        v.truncate(count);
        v
    }

    /// Decodes a plaintext back to `count` real values (imaginary parts are
    /// discarded).
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds the slot count.
    pub fn decode(&self, pt: &Plaintext, count: usize) -> Vec<f64> {
        self.decode_complex(pt, count).iter().map(|c| c.re).collect()
    }

    // ------------------------------------------------------------------
    // Keys, encryption, decryption
    // ------------------------------------------------------------------

    /// The full basis (all ciphertext moduli plus all special moduli).
    pub(crate) fn full_basis(&self) -> Basis {
        self.rns
            .q_basis(self.params.levels)
            .union(&self.rns.p_basis(self.params.special_limbs))
    }

    /// Generates a fresh ternary secret key.
    pub fn keygen<R: Rng + ?Sized>(&self, rng: &mut R) -> SecretKey {
        let basis = self.full_basis();
        let mut s = self.rns.sample_ternary(&basis, rng);
        self.rns.to_ntt(&mut s);
        SecretKey { s }
    }

    /// Generates a sparse ternary secret key with Hamming weight `h`.
    ///
    /// Sparse keys bound the integer overflow polynomial of bootstrapping's
    /// ModRaise (`|I| <= (h+1)/2`), keeping the EvalMod approximation range
    /// small. (The paper's evaluation uses non-sparse keys with newer
    /// range-extension techniques; our functional bootstrapping uses sparse
    /// keys for the classic algorithm.)
    ///
    /// # Panics
    ///
    /// Panics if `h` is zero or exceeds the ring degree.
    pub fn keygen_sparse<R: Rng + ?Sized>(&self, h: usize, rng: &mut R) -> SecretKey {
        let n = self.params.n;
        assert!(h >= 1 && h <= n, "Hamming weight out of range");
        let mut signed = vec![0i64; n];
        let mut placed = 0;
        while placed < h {
            let pos = rng.gen_range(0..n);
            if signed[pos] == 0 {
                signed[pos] = if rng.gen_bool(0.5) { 1 } else { -1 };
                placed += 1;
            }
        }
        let basis = self.full_basis();
        let mut s = self.rns.from_signed_coeffs(&signed, &basis);
        self.rns.to_ntt(&mut s);
        SecretKey { s }
    }

    /// Derives a public encryption key from a secret key.
    pub fn keygen_public<R: Rng + ?Sized>(&self, sk: &SecretKey, rng: &mut R) -> PublicKey {
        let basis = self.rns.q_basis(self.params.levels);
        let a = self.rns.sample_uniform(&basis, rng);
        let mut e = self.rns.sample_error(&basis, rng);
        self.rns.to_ntt(&mut e);
        let s = self.rns.restrict(&sk.s, &basis);
        let mut pk0 = self.rns.neg(&self.rns.mul(&a, &s));
        self.rns.add_assign(&mut pk0, &e);
        PublicKey { pk0, pk1: a }
    }

    /// Encrypts a plaintext under the secret key (symmetric encryption).
    pub fn encrypt<R: Rng + ?Sized>(
        &self,
        pt: &Plaintext,
        sk: &SecretKey,
        rng: &mut R,
    ) -> Ciphertext {
        let basis = self.rns.q_basis(pt.level);
        let a = self.rns.sample_uniform(&basis, rng);
        let mut e = self.rns.sample_error(&basis, rng);
        self.rns.to_ntt(&mut e);
        let s = self.rns.restrict(&sk.s, &basis);
        let mut c0 = self.rns.neg(&self.rns.mul(&a, &s));
        self.rns.add_assign(&mut c0, &e);
        self.rns.add_assign(&mut c0, &pt.poly);
        Ciphertext {
            c0,
            c1: a,
            level: pt.level,
            scale: pt.scale,
            noise_bits_est: self.est_fresh_bits(),
        }
    }

    /// Encrypts a plaintext under a public key.
    pub fn encrypt_public<R: Rng + ?Sized>(
        &self,
        pt: &Plaintext,
        pk: &PublicKey,
        rng: &mut R,
    ) -> Ciphertext {
        let basis = self.rns.q_basis(pt.level);
        let mut u = self.rns.sample_ternary(&basis, rng);
        self.rns.to_ntt(&mut u);
        let mut e0 = self.rns.sample_error(&basis, rng);
        let mut e1 = self.rns.sample_error(&basis, rng);
        self.rns.to_ntt(&mut e0);
        self.rns.to_ntt(&mut e1);
        let pk0 = self.rns.restrict(&pk.pk0, &basis);
        let pk1 = self.rns.restrict(&pk.pk1, &basis);
        let mut c0 = self.rns.mul(&pk0, &u);
        self.rns.add_assign(&mut c0, &e0);
        self.rns.add_assign(&mut c0, &pt.poly);
        let mut c1 = self.rns.mul(&pk1, &u);
        self.rns.add_assign(&mut c1, &e1);
        Ciphertext {
            c0,
            c1,
            level: pt.level,
            scale: pt.scale,
            noise_bits_est: self.est_public_bits(),
        }
    }

    /// Decrypts a ciphertext: `m = c0 + c1·s`.
    pub fn decrypt(&self, ct: &Ciphertext, sk: &SecretKey) -> Plaintext {
        let basis = self.rns.q_basis(ct.level);
        let s = self.rns.restrict(&sk.s, &basis);
        let mut m = self.rns.mul(&ct.c1, &s);
        self.rns.add_assign(&mut m, &ct.c0);
        Plaintext {
            poly: m,
            level: ct.level,
            scale: ct.scale,
        }
    }

    /// Assembles a ciphertext from raw polynomials (advanced; used by
    /// bootstrapping's ModRaise to re-express a ciphertext over a larger
    /// modulus chain).
    ///
    /// The noise estimate is initialized to the fresh-encryption figure;
    /// callers who know better (e.g. ModRaise, whose "noise" includes the
    /// intentional `q0·I` term) should follow up with
    /// [`Ciphertext::with_noise_bits`].
    ///
    /// # Panics
    ///
    /// Panics if the polynomials are not NTT-form level-`level` pairs.
    pub fn ciphertext_from_parts(
        &self,
        c0: cl_rns::RnsPoly,
        c1: cl_rns::RnsPoly,
        level: usize,
        scale: f64,
    ) -> Ciphertext {
        let expected = self.rns.q_basis(level);
        assert_eq!(c0.basis(), &expected, "c0 basis mismatch");
        assert_eq!(c1.basis(), &expected, "c1 basis mismatch");
        assert!(c0.ntt_form() && c1.ntt_form(), "parts must be in NTT form");
        Ciphertext {
            c0,
            c1,
            level,
            scale,
            noise_bits_est: self.est_fresh_bits(),
        }
    }

    /// Builds a trivial (noiseless, insecure) ciphertext of a plaintext,
    /// for tests.
    #[cfg(test)]
    pub fn trivial_encrypt(&self, pt: &Plaintext) -> Ciphertext {
        let basis = self.rns.q_basis(pt.level);
        let mut c1 = self.rns.zero(&basis);
        c1.set_ntt_form(true);
        Ciphertext {
            c0: pt.poly.clone(),
            c1,
            level: pt.level,
            scale: pt.scale,
            noise_bits_est: 0.0,
        }
    }

    // ------------------------------------------------------------------
    // Guardrails
    // ------------------------------------------------------------------

    /// Checks that two ciphertext operands sit at one level. Every
    /// two-ciphertext operation runs it before it scans its operands, so
    /// operands at different levels — a level-0 (limbless) one included —
    /// fail as a [`FheError::LevelMismatch`], not as the out-of-range level
    /// the scan would report.
    pub(crate) fn try_check_same_level(
        &self,
        op: &'static str,
        a: &Ciphertext,
        b: &Ciphertext,
    ) -> FheResult<()> {
        if a.level != b.level {
            return Err(FheError::LevelMismatch {
                op,
                got: b.level,
                want: a.level,
            });
        }
        Ok(())
    }

    /// Checks that `got` is within [`SCALE_REL_TOLERANCE`] of `want`.
    pub(crate) fn try_check_scale(&self, op: &'static str, got: f64, want: f64) -> FheResult<()> {
        let rel = (got - want).abs() / got.max(want);
        // A NaN scale makes `rel` NaN; treat any non-finite comparison as
        // a mismatch so corrupted bookkeeping cannot pass the guard.
        if rel < SCALE_REL_TOLERANCE && rel.is_finite() {
            Ok(())
        } else {
            Err(FheError::ScaleMismatch { op, got, want, rel })
        }
    }

    /// Full conformance validation of a ciphertext: level range, bases,
    /// NTT form, scale sanity, and — the expensive part — every residue
    /// below its modulus. A random bit flip in a limb word is
    /// overwhelmingly likely to push the residue out of range, so this
    /// scan is the guardrails' detector for payload corruption. Each
    /// limb is scanned by [`cl_math::Modulus::first_unreduced`], one
    /// lane-parallel pass on the active SIMD backend.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::CorruptCiphertext`] describing the first
    /// violation found: `c0` before `c1`, limbs in basis order, and within
    /// a limb the lowest coefficient index, with its value and modulus —
    /// the same report on every backend.
    pub fn validate_ciphertext(&self, op: &'static str, ct: &Ciphertext) -> FheResult<()> {
        let corrupt = |reason: String| FheError::CorruptCiphertext { op, reason };
        self.validate_metadata(op, ct.level, ct.scale)?;
        let expected = self.rns.q_basis(ct.level);
        for (name, poly) in [("c0", &ct.c0), ("c1", &ct.c1)] {
            if poly.basis() != &expected {
                return Err(corrupt(format!("{name} basis does not match level {}", ct.level)));
            }
            if !poly.ntt_form() {
                return Err(corrupt(format!("{name} is not in NTT form")));
            }
            for (k, &limb) in expected.0.iter().enumerate() {
                let m = self.rns.modulus(limb);
                if let Some(i) = m.first_unreduced(poly.limb(k)) {
                    return Err(corrupt(format!(
                        "{name} limb {k} coefficient {i} = {} exceeds modulus {}",
                        poly.limb(k)[i],
                        m.value()
                    )));
                }
            }
        }
        Ok(())
    }

    /// The bookkeeping half of [`CkksContext::validate_ciphertext`]: the
    /// level lies in the chain and the scale is a positive finite value.
    pub(crate) fn validate_metadata(
        &self,
        op: &'static str,
        level: usize,
        scale: f64,
    ) -> FheResult<()> {
        let corrupt = |reason: String| FheError::CorruptCiphertext { op, reason };
        if !(1..=self.params.levels).contains(&level) {
            return Err(corrupt(format!("level {level} out of range")));
        }
        if !(scale.is_finite() && scale > 0.0) {
            return Err(corrupt(format!("scale {scale} is not a positive finite value")));
        }
        Ok(())
    }

    /// Operand validation: conformance-checks every operand ciphertext.
    pub(crate) fn guard_operands(&self, op: &'static str, cts: &[&Ciphertext]) -> FheResult<()> {
        for ct in cts {
            self.validate_ciphertext(op, ct)?;
        }
        Ok(())
    }

    /// Key validation: verifies the hint's integrity digest. Called once
    /// per hint application, where the hint is consumed
    /// (`HoistedDecomposition::apply_ext`, which every CKKS keyswitch
    /// passes through, and BGV `try_mul`), never by the operations above
    /// it.
    pub(crate) fn guard_key(&self, op: &'static str, ksk: &KeySwitchKey) -> FheResult<()> {
        if !ksk.verify_integrity() {
            return Err(FheError::CorruptKey {
                op,
                reason: "integrity digest does not match the payload".into(),
            });
        }
        Ok(())
    }

    /// Budget check on an operation's result: errors when the estimated
    /// signed budget falls below the policy's floor or is NaN.
    pub(crate) fn guard_budget(&self, op: &'static str, ct: &Ciphertext) -> FheResult<()> {
        self.guard_budget_of(op, ct.level, ct.scale, ct.noise_bits_est)
    }

    /// [`CkksContext::guard_budget`] on a result's level, scale and noise
    /// estimate, checked before the result is built.
    pub(crate) fn guard_budget_of(
        &self,
        op: &'static str,
        level: usize,
        scale: f64,
        noise_bits: f64,
    ) -> FheResult<()> {
        let GuardrailPolicy::Strict { min_budget_bits } = self.policy;
        let budget_bits = self.budget_bits_signed_of(level, scale, noise_bits);
        if budget_bits < min_budget_bits || budget_bits.is_nan() {
            return Err(FheError::BudgetExhausted {
                op,
                budget_bits,
                required_bits: min_budget_bits,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn ctx() -> CkksContext {
        let params = CkksParams::builder()
            .ring_degree(128)
            .levels(3)
            .special_limbs(3)
            .limb_bits(40)
            .scale_bits(32)
            .build()
            .unwrap();
        CkksContext::new(params).unwrap()
    }

    #[test]
    fn encode_decode_roundtrip() {
        let c = ctx();
        let vals: Vec<f64> = (0..c.params().slots()).map(|i| (i as f64) / 7.0 - 3.0).collect();
        let pt = c.encode(&vals, c.default_scale(), 3);
        let back = c.decode(&pt, vals.len());
        for (a, b) in back.iter().zip(&vals) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn encode_decode_complex_roundtrip() {
        let c = ctx();
        let vals = vec![Complex::new(1.25, -0.5), Complex::new(-2.0, 3.75)];
        let pt = c.encode_complex(&vals, c.default_scale(), 2);
        let back = c.decode_complex(&pt, 2);
        for (a, b) in back.iter().zip(&vals) {
            assert!((*a - *b).abs() < 1e-6);
        }
    }

    #[test]
    fn encrypt_decrypt_symmetric() {
        let c = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let sk = c.keygen(&mut rng);
        let vals = vec![3.5, -1.25, 0.0, 42.0];
        let pt = c.encode(&vals, c.default_scale(), 3);
        let ct = c.encrypt(&pt, &sk, &mut rng);
        let back = c.decode(&c.decrypt(&ct, &sk), 4);
        for (a, b) in back.iter().zip(&vals) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn encrypt_decrypt_public() {
        let c = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let sk = c.keygen(&mut rng);
        let pk = c.keygen_public(&sk, &mut rng);
        let vals = vec![0.5, -0.25, 8.0];
        let pt = c.encode(&vals, c.default_scale(), 3);
        let ct = c.encrypt_public(&pt, &pk, &mut rng);
        let back = c.decode(&c.decrypt(&ct, &sk), 3);
        for (a, b) in back.iter().zip(&vals) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    /// One word at the modulus itself — the smallest out-of-range residue —
    /// in the last coefficient of `c1`'s last limb: every backend's scan
    /// reports the same op, limb, coefficient and value.
    #[test]
    fn validate_reports_the_same_violation_on_every_backend() {
        let c = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let sk = c.keygen(&mut rng);
        let mut ct = c.encrypt(&c.encode(&[1.0, -2.0], c.default_scale(), 3), &sk, &mut rng);
        let (last, n) = (ct.c1.num_limbs() - 1, c.params().ring_degree());
        let q = c.rns().modulus_value(c.rns().q_basis(3).0[last]);
        ct.c1.limb_mut(last)[n - 1] = q;
        let want = format!("c1 limb {last} coefficient {} = {q} exceeds modulus {q}", n - 1);
        let prev = cl_math::active_backend();
        for kind in cl_math::supported_backends() {
            cl_math::set_active_backend(kind).expect("supported backend");
            let got = c.validate_ciphertext("audit", &ct);
            cl_math::set_active_backend(prev).expect("restoring the previous backend");
            match got {
                Err(FheError::CorruptCiphertext { op: "audit", reason }) => assert_eq!(reason, want, "on {kind}"),
                other => panic!("expected CorruptCiphertext on {kind}, got {other:?}"),
            }
        }
    }

    #[test]
    fn ciphertexts_are_randomized() {
        let c = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let sk = c.keygen(&mut rng);
        let pt = c.encode(&[1.0], c.default_scale(), 2);
        let ct1 = c.encrypt(&pt, &sk, &mut rng);
        let ct2 = c.encrypt(&pt, &sk, &mut rng);
        assert_ne!(ct1.c1(), ct2.c1(), "fresh randomness per encryption");
    }

    #[test]
    fn trivial_encrypt_decrypts_without_key_material() {
        let c = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let sk = c.keygen(&mut rng);
        let pt = c.encode(&[7.0, -7.0], c.default_scale(), 1);
        let ct = c.trivial_encrypt(&pt);
        let back = c.decode(&c.decrypt(&ct, &sk), 2);
        assert!((back[0] - 7.0).abs() < 1e-6);
        assert!((back[1] + 7.0).abs() < 1e-6);
    }
}

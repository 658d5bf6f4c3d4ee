//! Noise measurement, analytic estimation, and budget accounting.
//!
//! A ciphertext's *multiplicative budget* (Sec. 2.3, Fig. 2) is the depth
//! it can still absorb before decryption fails. This module provides the
//! tools implementations use to reason about it:
//!
//! - [`CkksContext::noise_bits`]: the *exact* current noise, measured with
//!   the secret key (a debugging/validation tool — it decrypts).
//! - The **analytic noise model**: per-operation estimates of
//!   `log2(noise)` maintained on every [`Ciphertext`] without any secret
//!   material ([`Ciphertext::noise_estimate_bits`]). The model assumes
//!   slot values of magnitude `O(1)` and is validated against the exact
//!   oracle in tests (within 5 bits over a depth-3
//!   multiply/rotate/rescale circuit).
//! - [`CkksContext::budget_bits`]: the remaining headroom
//!   `log2(Q) - log2(scale) - noise_estimate`, the saw-tooth of Fig. 2.
//!
//! # The analytic model
//!
//! All estimates are in the `log2` domain; `⊕` below is
//! `log2(2^a + 2^b)` (a soft max). With `n` the ring degree,
//! `σ ≈ 3.2` the error sampler's deviation, and `Δ` the scale:
//!
//! | operation        | estimate                                          |
//! |------------------|---------------------------------------------------|
//! | fresh encrypt    | `log2(σ·sqrt(2·ln 2n))`                           |
//! | public encrypt   | fresh `+ log2(n)/2` (error–ephemeral convolution) |
//! | trivial encrypt  | `0` (noiseless)                                   |
//! | add / sub        | `ν_a ⊕ ν_b`                                       |
//! | add_plain        | unchanged                                         |
//! | mul_plain        | `ν_a + log2 Δ_p ⊕ log2 Δ_a − 1`                   |
//! | mul / square     | `log2 Δ_a + ν_b ⊕ log2 Δ_b + ν_a ⊕ ν_a+ν_b ⊕ ν_ks`|
//! | rescale          | `(ν − log2 q_drop) ⊕ log2(n)/2`                   |
//! | mod_drop         | unchanged                                         |
//! | rotate/conjugate | `ν ⊕ ν_ks`                                        |
//!
//! The model is *average-case*: the message polynomial behaves like a
//! random signal of total mass `O(Δ)` (slot values of magnitude `O(1)`),
//! so convolving it with an error polynomial grows the error by the
//! message magnitude `Δ` with no extra `sqrt(n)` factor — the incoherent
//! cross terms cancel on average. Worst-case (canonical-embedding) bounds
//! would add `log2(n)/2` per multiplication; the oracle-validation test
//! below shows the average-case model stays within 5 bits of measured
//! noise while the worst-case bound drifts ever further upward with depth.
//!
//! The keyswitch term `ν_ks` is
//! `max_d(log2 q_d) + log2(#digits) + log2(σ·e_scale) + log2(n)/2 − log2 P
//! ⊕ log2(n)/2`: the hint-error product divided by the special modulus,
//! floored by the same rounding floor as rescale (the ModDown division).

use cl_math::CrtBasis;

use crate::{Ciphertext, CkksContext, KeySwitchKey, Plaintext, SecretKey};

/// Standard deviation of the centered-binomial error sampler.
pub(crate) const SIGMA: f64 = 3.2;

/// `log2(2^a + 2^b)` — the soft maximum used to combine noise terms.
pub(crate) fn log2_add(a: f64, b: f64) -> f64 {
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    hi + (1.0 + 2f64.powf(lo - hi)).log2()
}

impl CkksContext {
    /// Measures the exact noise of `ct` relative to the expected plaintext
    /// `expected`, in bits: `log2(max_coeff |phase - m|)`.
    ///
    /// Requires the secret key; intended for tests, noise studies and
    /// parameter debugging (real deployments use the analytic estimate
    /// carried by every [`Ciphertext`] instead).
    pub fn noise_bits(&self, ct: &Ciphertext, expected: &Plaintext, sk: &SecretKey) -> f64 {
        let rns = self.rns();
        let basis = rns.q_basis(ct.level());
        let s = rns.restrict(sk.poly(), &basis);
        let mut phase = rns.mul(ct.c1(), &s);
        rns.add_assign(&mut phase, ct.c0());
        let mut diff = rns.sub(&phase, expected.poly());
        rns.from_ntt(&mut diff);
        let moduli: Vec<u64> = basis.0.iter().map(|&l| rns.modulus_value(l)).collect();
        let crt = CrtBasis::new(&moduli);
        let mut max_noise = 0f64;
        let mut residues = vec![0u64; diff.num_limbs()];
        for i in 0..self.params().ring_degree() {
            for (k, r) in residues.iter_mut().enumerate() {
                *r = diff.limb(k)[i];
            }
            let (_, mag) = crt.combine(&residues).centered(crt.product());
            max_noise = max_noise.max(mag.to_f64());
        }
        max_noise.max(1.0).log2()
    }

    /// Estimated remaining multiplicative budget of `ct`, in bits:
    /// `log2(Q_level) - log2(scale) - noise_estimate` headroom above the
    /// message, clamped at zero. One homomorphic multiplication consumes
    /// roughly `log2(scale)` bits, so `budget_bits / log2(scale)`
    /// approximates the remaining depth — the quantity Fig. 2 plots.
    ///
    /// Unlike the pre-noise-tracking accounting (`log2 Q - log2 scale`
    /// alone), this subtracts the analytically tracked noise estimate, so
    /// a ciphertext that has accumulated keyswitch/rescale noise no longer
    /// over-reports its remaining depth.
    pub fn budget_bits(&self, ct: &Ciphertext) -> f64 {
        self.budget_bits_signed(ct).max(0.0)
    }

    /// The unclamped budget: negative values mean the noise has overtaken
    /// the modulus headroom and decryption is already unreliable. The
    /// guardrails compare this signed figure against the policy's
    /// floor so exhaustion is observable (the public
    /// [`CkksContext::budget_bits`] clamps at zero).
    pub(crate) fn budget_bits_signed(&self, ct: &Ciphertext) -> f64 {
        self.budget_bits_signed_of(ct.level(), ct.scale(), ct.noise_bits_est)
    }

    /// [`CkksContext::budget_bits_signed`] of a ciphertext with this level,
    /// scale and noise estimate — the budget depends on nothing else, so an
    /// operation can check its result's budget before building it.
    pub(crate) fn budget_bits_signed_of(&self, level: usize, scale: f64, noise_bits: f64) -> f64 {
        let rns = self.rns();
        let log_q: f64 = (0..level)
            .map(|l| (rns.modulus_value(l as u32) as f64).log2())
            .sum();
        log_q - scale.log2() - noise_bits.max(0.0)
    }

    // ------------------------------------------------------------------
    // Analytic per-operation estimates (no secret key required)
    // ------------------------------------------------------------------

    /// Noise of a fresh symmetric encryption: the error sample's expected
    /// maximum over `n` coefficients.
    pub(crate) fn est_fresh_bits(&self) -> f64 {
        let n = self.params().ring_degree() as f64;
        (SIGMA * (2.0 * (2.0 * n).ln()).sqrt()).log2()
    }

    /// Noise after adding/subtracting two ciphertexts.
    pub(crate) fn est_add(a: &Ciphertext, b: &Ciphertext) -> f64 {
        log2_add(a.noise_bits_est, b.noise_bits_est)
    }

    /// Noise after a plaintext multiplication at plaintext scale
    /// `p_scale`: the ciphertext noise grows by the plaintext magnitude,
    /// soft-maxed with the plaintext's integer rounding (±0.5 per
    /// coefficient) riding on the `Δ`-sized message.
    pub(crate) fn est_mul_plain(&self, a: &Ciphertext, p_scale: f64) -> f64 {
        log2_add(
            a.noise_bits_est + p_scale.log2(),
            a.scale.log2() - 1.0,
        )
    }

    /// Noise after a ciphertext-ciphertext multiplication (tensor +
    /// relinearization). Average-case: slot values of magnitude `O(1)`
    /// give a message of total mass `≈ Δ`, so each cross term is the other
    /// operand's scale plus this operand's noise.
    pub(crate) fn est_mul(&self, a: &Ciphertext, b: &Ciphertext, ksk: &KeySwitchKey) -> f64 {
        let cross = log2_add(
            a.scale.log2() + b.noise_bits_est,
            b.scale.log2() + a.noise_bits_est,
        );
        let quadratic = a.noise_bits_est + b.noise_bits_est;
        log2_add(
            log2_add(cross, quadratic),
            self.est_keyswitch_bits(a.level, ksk),
        )
    }

    /// Noise after rescaling: division by the dropped modulus, floored by
    /// the rounding error propagated through the ternary secret.
    pub(crate) fn est_rescale(&self, a: &Ciphertext) -> f64 {
        let rns = self.rns();
        let dropped = (rns.modulus_value((a.level - 1) as u32) as f64).log2();
        log2_add(a.noise_bits_est - dropped, self.est_round_floor())
    }

    /// The rounding floor `log2(sqrt n)` shared by rescale and ModDown:
    /// the ±0.5 division rounding convolved with the ternary secret, whose
    /// incoherent contributions average out to `sqrt(n)`-ish mass (the
    /// worst-case `‖s‖₁/2 ≈ n/3` is never approached in practice).
    pub(crate) fn est_round_floor(&self) -> f64 {
        0.5 * (self.params().ring_degree() as f64).log2()
    }

    /// Noise a keyswitch (relinearization, rotation, conjugation) adds at
    /// `level`: per-digit hint-error products scaled down by the special
    /// modulus `P`, floored by the ModDown rounding.
    pub(crate) fn est_keyswitch_bits(&self, level: usize, ksk: &KeySwitchKey) -> f64 {
        let rns = self.rns();
        let special = self.special_for(ksk.kind());
        let log_p: f64 = (0..special)
            .map(|k| {
                let pl = rns.p_basis(special).0[k];
                (rns.modulus_value(pl) as f64).log2()
            })
            .sum();
        let conv = 0.5 * (self.params().ring_degree() as f64).log2();
        let mut digits = 0usize;
        let mut max_log_qd = f64::NEG_INFINITY;
        for limbs in &ksk.digit_limbs {
            let log_qd: f64 = limbs
                .iter()
                .filter(|&&l| (l as usize) < level)
                .map(|&l| (rns.modulus_value(l) as f64).log2())
                .sum();
            if log_qd > 0.0 {
                digits += 1;
                max_log_qd = max_log_qd.max(log_qd);
            }
        }
        if digits == 0 {
            return self.est_round_floor();
        }
        let hint_term =
            max_log_qd + (digits as f64).log2() + ksk.error_bits + conv - log_p;
        log2_add(hint_term, self.est_round_floor())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CkksParams, KeySwitchKind};
    use rand::SeedableRng;

    fn setup() -> (CkksContext, SecretKey, rand::rngs::StdRng) {
        let params = CkksParams::builder()
            .ring_degree(128)
            .levels(4)
            .special_limbs(4)
            .limb_bits(45)
            .scale_bits(45)
            .build()
            .unwrap();
        let ctx = CkksContext::new(params).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let sk = ctx.keygen(&mut rng);
        (ctx, sk, rng)
    }

    #[test]
    fn fresh_ciphertext_noise_is_small() {
        let (ctx, sk, mut rng) = setup();
        let pt = ctx.encode(&[1.0, -2.0], ctx.default_scale(), 4);
        let ct = ctx.encrypt(&pt, &sk, &mut rng);
        let noise = ctx.noise_bits(&ct, &pt, &sk);
        // Fresh noise is the sampled error: a handful of bits, far below
        // the 45-bit scale.
        assert!(noise < 20.0, "fresh noise {noise} bits");
        // The analytic estimate agrees without the secret key.
        assert!(
            (ct.noise_estimate_bits() - noise).abs() <= 5.0,
            "estimate {} vs oracle {noise}",
            ct.noise_estimate_bits()
        );
    }

    #[test]
    fn noise_grows_with_multiplication() {
        let (ctx, sk, mut rng) = setup();
        let relin = ctx.relin_keygen(&sk, KeySwitchKind::Boosted { digits: 1 }, &mut rng);
        let vals = vec![1.5, 0.5, -1.0];
        let pt = ctx.encode(&vals, ctx.default_scale(), 4);
        let ct = ctx.encrypt(&pt, &sk, &mut rng);
        let fresh_noise = ctx.noise_bits(&ct, &pt, &sk);
        let sq = ctx.try_square(&ct, &relin).unwrap();
        let sq_vals: Vec<f64> = vals.iter().map(|v| v * v).collect();
        let expected_sq = ctx.encode(&sq_vals, sq.scale(), sq.level());
        let sq_noise = ctx.noise_bits(&sq, &expected_sq, &sk);
        assert!(
            sq_noise > fresh_noise + 10.0,
            "multiplication should grow noise substantially: {fresh_noise} -> {sq_noise}"
        );
        // The tracked estimate follows the growth.
        assert!(
            sq.noise_estimate_bits() > ct.noise_estimate_bits() + 10.0,
            "estimate must track multiplicative growth: {} -> {}",
            ct.noise_estimate_bits(),
            sq.noise_estimate_bits()
        );
    }

    #[test]
    fn budget_saw_tooths_like_fig2() {
        // Consuming levels shrinks the budget by about one limb per
        // rescale.
        let (ctx, sk, mut rng) = setup();
        let relin = ctx.relin_keygen(&sk, KeySwitchKind::Boosted { digits: 1 }, &mut rng);
        let pt = ctx.encode(&[1.01], ctx.default_scale(), 4);
        let mut ct = ctx.encrypt(&pt, &sk, &mut rng);
        let mut budgets = vec![ctx.budget_bits(&ct)];
        for _ in 0..3 {
            ct = ctx
                .try_rescale(&ctx.try_square(&ct, &relin).unwrap())
                .unwrap();
            budgets.push(ctx.budget_bits(&ct));
        }
        // Strictly decreasing until exhausted, then pinned at 0.
        assert!(
            budgets.windows(2).all(|w| w[1] < w[0] || (w[0] == 0.0 && w[1] == 0.0)),
            "budget must decrease monotonically: {budgets:?}"
        );
        // 4 limbs just under 2^45 minus a 2^45 scale and the fresh noise:
        // between two and three levels of headroom.
        assert!((90.0..135.0).contains(&budgets[0]), "{budgets:?}");
        assert_eq!(*budgets.last().unwrap(), 0.0);
    }

    #[test]
    fn budget_estimate_matches_level_accounting() {
        // One more limb adds exactly its modulus bits; 2 limbs just under
        // 2^45 minus the 2^45 scale leave fractionally under one level.
        let (ctx, _, _) = setup();
        let scale = ctx.default_scale();
        let budget = |l| ctx.budget_bits(&ctx.trivial_encrypt(&ctx.encode(&[0.5], scale, l)));
        let (b2, b3, q2) = (budget(2), budget(3), (ctx.rns().modulus_value(2) as f64).log2());
        assert!(b2 < 45.0 && (45.0..90.0).contains(&b3), "{b2} {b3}");
        assert!((b3 - b2 - q2).abs() < 1e-9, "{b2} {b3} {q2}");
    }

    #[test]
    fn budget_subtracts_tracked_noise() {
        // Two ciphertexts with identical level/scale but different noise
        // histories must report different budgets: the noisier one has
        // less headroom left.
        let (ctx, _, _) = setup();
        let pt = ctx.encode(&[0.5], ctx.default_scale(), 4);
        let quiet = ctx.trivial_encrypt(&pt); // noiseless
        let noisy = ctx.trivial_encrypt(&pt).with_noise_bits(40.0);
        assert!(
            ctx.budget_bits(&noisy) < ctx.budget_bits(&quiet) - 30.0,
            "budget must subtract the tracked noise estimate: quiet {} vs noisy {}",
            ctx.budget_bits(&quiet),
            ctx.budget_bits(&noisy)
        );
    }

    #[test]
    fn analytic_estimate_tracks_oracle_through_depth3_circuit() {
        // The acceptance circuit: depth-3 multiply/rotate/rescale at
        // test-scale parameters. At every step the secret-key-free
        // estimate must stay within 5 bits of the exact oracle.
        //
        // 30-bit limbs and scale: the oracle re-encodes the expected values
        // at the ciphertext's current scale, and `encode` represents
        // coefficients as `i64` — so every intermediate scale (at most Δ²
        // = 2^60 between a multiply and its rescale) must stay below 2^62
        // for the oracle itself to be exact.
        let params = CkksParams::builder()
            .ring_degree(128)
            .levels(4)
            .special_limbs(4)
            .limb_bits(30)
            .scale_bits(30)
            .build()
            .unwrap();
        let ctx = CkksContext::new(params).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let sk = ctx.keygen(&mut rng);
        let kind = KeySwitchKind::Boosted { digits: 1 };
        let relin = ctx.relin_keygen(&sk, kind, &mut rng);
        let rot = ctx.rotation_keygen(&sk, 1, kind, &mut rng);
        let slots = ctx.params().slots();
        let vals: Vec<f64> = (0..slots)
            .map(|i| 0.4 + 0.5 * ((i as f64 * 0.37).sin()))
            .collect();
        let pt = ctx.encode(&vals, ctx.default_scale(), 4);
        let mut ct = ctx.encrypt(&pt, &sk, &mut rng);
        let mut expect = vals.clone();

        let check = |label: &str, ct: &Ciphertext, expect: &[f64], sk: &SecretKey| {
            let expected_pt = ctx.encode(expect, ct.scale(), ct.level());
            let oracle = ctx.noise_bits(ct, &expected_pt, sk);
            let est = ct.noise_estimate_bits();
            assert!(
                (est - oracle).abs() <= 5.0,
                "{label}: analytic estimate {est:.1} vs oracle {oracle:.1} \
                 (must agree within 5 bits)"
            );
        };

        check("fresh", &ct, &expect, &sk);
        for depth in 0..3 {
            // Multiply (square), then rotate, then rescale — one level.
            ct = ctx.try_square(&ct, &relin).unwrap();
            for v in expect.iter_mut() {
                *v = *v * *v;
            }
            check(&format!("square@{depth}"), &ct, &expect, &sk);
            ct = ctx.try_rotate(&ct, 1, &rot).unwrap();
            let mut rotated: Vec<f64> = expect[1..].to_vec();
            rotated.push(expect[0]);
            expect = rotated;
            check(&format!("rotate@{depth}"), &ct, &expect, &sk);
            ct = ctx.try_rescale(&ct).unwrap();
            check(&format!("rescale@{depth}"), &ct, &expect, &sk);
        }
        assert_eq!(ct.level(), 1);
    }

    #[test]
    fn log2_add_soft_maxes() {
        assert!((log2_add(10.0, 10.0) - 11.0).abs() < 1e-12);
        assert!((log2_add(20.0, 0.0) - 20.0).abs() < 1e-3);
        assert!((log2_add(0.0, 20.0) - 20.0).abs() < 1e-3);
    }
}

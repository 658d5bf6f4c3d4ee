//! The BGV scheme over the same RNS substrate.
//!
//! CraterLake is not CKKS-specific: "the commonalities in their underlying
//! implementation make it possible for the same hardware to accelerate
//! many schemes efficiently — CraterLake supports CKKS, BGV, and GSW"
//! (Sec. 2). This module demonstrates that claim on the software side: BGV
//! (exact integer arithmetic modulo a plaintext prime `t`) built from the
//! same residue polynomials, NTTs, and keyswitching as CKKS.
//!
//! Differences from CKKS, all at the edges:
//! - plaintexts are vectors over `Z_t` packed via an NTT over `t` (slots
//!   require `t ≡ 1 mod 2N`),
//! - encryption scales the noise by `t` (`c0 + c1·s = m + t·e`),
//! - instead of rescaling, BGV uses *modulus switching* with a
//!   `t`-correction that keeps the plaintext exact while dividing the
//!   noise by the dropped modulus.

use cl_math::NttTable;
use cl_rns::RnsPoly;
use rand::Rng;

use crate::error::{FheError, FheResult};
use crate::noise::log2_add;
use crate::{Ciphertext, CkksContext, KeySwitchKey, SecretKey};

/// A BGV instance layered over a [`CkksContext`]'s ring and keyswitching.
#[derive(Debug)]
pub struct BgvContext<'a> {
    inner: &'a CkksContext,
    t: u64,
    /// NTT over the plaintext modulus, for slot packing.
    pt_ntt: NttTable,
}

impl<'a> BgvContext<'a> {
    /// Creates a BGV view with plaintext modulus `t`.
    ///
    /// # Errors
    ///
    /// [`FheError::InvalidParams`] if `t` is not an NTT-friendly prime for
    /// the ring degree (required for slot packing) or collides with a
    /// ciphertext modulus.
    pub fn new(inner: &'a CkksContext, t: u64) -> FheResult<Self> {
        let n = inner.params().ring_degree();
        let pt_ntt = NttTable::new(n, t).ok_or_else(|| FheError::InvalidParams {
            op: "bgv_new",
            reason: format!("{t} is not an NTT-friendly prime for N={n}"),
        })?;
        for limb in inner.rns().q_basis(inner.max_level()).0 {
            if inner.rns().modulus_value(limb) == t {
                return Err(FheError::InvalidParams {
                    op: "bgv_new",
                    reason: format!("plaintext modulus {t} collides with ciphertext limb {limb}"),
                });
            }
        }
        Ok(Self { inner, t, pt_ntt })
    }

    /// The plaintext modulus.
    pub fn plaintext_modulus(&self) -> u64 {
        self.t
    }

    /// Packs a vector over `Z_t` into a plaintext polynomial (slot
    /// encoding via the inverse plaintext NTT), lifted into the ciphertext
    /// ring at `level`.
    ///
    /// # Panics
    ///
    /// Panics if more than `N` values are supplied or any is `>= t`.
    pub fn encode(&self, vals: &[u64], level: usize) -> RnsPoly {
        let n = self.inner.params().ring_degree();
        assert!(vals.len() <= n, "too many values");
        assert!(vals.iter().all(|&v| v < self.t), "value out of Z_t");
        let mut slots = vec![0u64; n];
        slots[..vals.len()].copy_from_slice(vals);
        // Slots live in the NTT domain over t; inverse-transform to get
        // polynomial coefficients.
        self.pt_ntt.inverse(&mut slots);
        let tm = self.pt_ntt.modulus();
        let signed: Vec<i64> = slots.iter().map(|&c| tm.lift_centered(c)).collect();
        let rns = self.inner.rns();
        let mut poly = rns.from_signed_coeffs(&signed, &rns.q_basis(level));
        rns.to_ntt(&mut poly);
        poly
    }

    /// Unpacks a plaintext polynomial (given as signed coefficients mod
    /// `t`) back to slot values.
    fn decode_coeffs(&self, signed: &[i64]) -> Vec<u64> {
        let tm = *self.pt_ntt.modulus();
        let mut slots: Vec<u64> = signed.iter().map(|&c| tm.from_i64(c)).collect();
        self.pt_ntt.forward(&mut slots);
        slots
    }

    /// Encrypts packed values at `level` under `sk`: `c0 + c1·s = m + t·e`.
    pub fn encrypt<R: Rng + ?Sized>(
        &self,
        vals: &[u64],
        level: usize,
        sk: &SecretKey,
        rng: &mut R,
    ) -> Ciphertext {
        let rns = self.inner.rns();
        let basis = rns.q_basis(level);
        let m = self.encode(vals, level);
        let a = rns.sample_uniform(&basis, rng);
        let mut e = rns.sample_error(&basis, rng);
        rns.to_ntt(&mut e);
        let e_t = rns.scalar_mul(&e, self.t);
        let s = rns.restrict(sk.poly(), &basis);
        let mut c0 = rns.neg(&rns.mul(&a, &s));
        rns.add_assign(&mut c0, &e_t);
        rns.add_assign(&mut c0, &m);
        // BGV noise is the error scaled by t: t·e.
        self.inner
            .ciphertext_from_parts(c0, a, level, 1.0)
            .with_noise_bits(self.inner.est_fresh_bits() + (self.t as f64).log2())
    }

    /// Decrypts to slot values over `Z_t`.
    ///
    /// # Panics
    ///
    /// Panics if the noise has overflowed the ciphertext modulus (the
    /// centered lift would no longer be `m + t·e`).
    pub fn decrypt(&self, ct: &Ciphertext, sk: &SecretKey) -> Vec<u64> {
        let rns = self.inner.rns();
        let basis = rns.q_basis(ct.level());
        let s = rns.restrict(sk.poly(), &basis);
        let mut phase = rns.mul(ct.c1(), &s);
        rns.add_assign(&mut phase, ct.c0());
        rns.from_ntt(&mut phase);
        // Centered lift of each coefficient, then reduce mod t.
        let n = self.inner.params().ring_degree();
        let mut signed = vec![0i64; n];
        if phase.num_limbs() == 1 {
            let m0 = rns.modulus(basis.0[0]);
            for (i, s) in signed.iter_mut().enumerate() {
                *s = m0.lift_centered(phase.limb(0)[i]);
            }
        } else {
            let moduli: Vec<u64> = basis.0.iter().map(|&l| rns.modulus_value(l)).collect();
            let crt = cl_math::CrtBasis::new(&moduli);
            let mut residues = vec![0u64; phase.num_limbs()];
            for (i, out) in signed.iter_mut().enumerate() {
                for (k, r) in residues.iter_mut().enumerate() {
                    *r = phase.limb(k)[i];
                }
                let (neg, mag) = crt.combine(&residues).centered(crt.product());
                let r = mag.rem_u64(self.t) as i64;
                *out = if neg { -r } else { r };
            }
        }
        self.decode_coeffs(&signed)
    }

    /// Generates a relinearization key whose noise is a multiple of `t`
    /// (required for exact BGV multiplication; also usable by CKKS).
    pub fn relin_keygen<R: Rng + ?Sized>(
        &self,
        sk: &SecretKey,
        kind: crate::KeySwitchKind,
        rng: &mut R,
    ) -> KeySwitchKey {
        let rns = self.inner.rns();
        let s2 = rns.mul(sk.poly(), sk.poly());
        self.inner
            .keyswitch_keygen_with_error_scale(&s2, sk, kind, self.t, rng)
    }

    /// Fallible homomorphic addition (exact over `Z_t`).
    ///
    /// # Errors
    ///
    /// [`FheError::LevelMismatch`] when the operand levels differ, plus
    /// any guardrail failure of the underlying context.
    pub fn try_add(&self, a: &Ciphertext, b: &Ciphertext) -> FheResult<Ciphertext> {
        self.inner.try_add(a, b)
    }

    /// Fallible homomorphic multiplication with relinearization (exact
    /// over `Z_t`).
    ///
    /// The digit decomposition, hint products and accumulation are the
    /// CKKS keyswitch's own (the hardware-sharing claim of Sec. 2); only
    /// the closing ModDown differs — BGV divides by `P` with a
    /// `t`-congruent correction so the injected rounding stays
    /// `≡ 0 (mod t)`.
    ///
    /// # Errors
    ///
    /// [`FheError::LevelMismatch`] when levels differ, plus any guardrail
    /// failure (including [`FheError::CorruptKey`] for a tampered hint
    /// under the strict policy).
    pub fn try_mul(
        &self,
        a: &Ciphertext,
        b: &Ciphertext,
        relin: &KeySwitchKey,
    ) -> FheResult<Ciphertext> {
        self.inner.guard_operands("bgv_mul", &[a, b])?;
        if a.level() != b.level() {
            return Err(FheError::LevelMismatch {
                op: "bgv_mul",
                got: b.level(),
                want: a.level(),
            });
        }
        let rns = self.inner.rns();
        let d0 = rns.mul(a.c0(), b.c0());
        let mut d1 = rns.mul(a.c0(), b.c1());
        rns.mul_acc(&mut d1, a.c1(), b.c0());
        let d2 = rns.mul(a.c1(), b.c1());
        // ModUp and the hint inner product (which checks the hint once)
        // are the CKKS path's; the division by P is BGV's own.
        let (acc0, acc1) = self
            .inner
            .hoist_impl("bgv_mul", &d2, relin.kind())?
            .apply_ext(self.inner, "bgv_mul", None, relin)?;
        let special = self.inner.special_for(relin.kind());
        let (mut c0, mut c1) = self.mod_down_exact(acc0, acc1, a.level(), special);
        rns.add_assign(&mut c0, &d0);
        rns.add_assign(&mut c1, &d1);
        // Coarse BGV noise model: the noise product t·e_a·t·e_b dominated
        // by each operand's noise riding on the other's t-bounded message,
        // soft-maxed with the (t-scaled) keyswitch error.
        let t_bits = (self.t as f64).log2();
        let est = log2_add(
            log2_add(a.noise_estimate_bits() + t_bits, b.noise_estimate_bits() + t_bits),
            self.inner.est_keyswitch_bits(a.level(), relin),
        );
        let out = self
            .inner
            .ciphertext_from_parts(c0, c1, a.level(), 1.0)
            .with_noise_bits(est);
        self.inner.guard_budget("bgv_mul", &out)?;
        Ok(out)
    }

    /// The exact, `t`-corrected ModDown of both keyswitch accumulators
    /// (NTT form over `Q·P`: `level` limbs of `Q`, then `special` limbs of
    /// `P`). The division by `P` is done per coefficient over the integers
    /// (CRT), with the dropped part corrected to be `≡ 0 (mod t)` as in
    /// BGV modulus switching. Suitable for test-scale rings.
    fn mod_down_exact(
        &self,
        mut acc0: RnsPoly,
        mut acc1: RnsPoly,
        level: usize,
        special: usize,
    ) -> (RnsPoly, RnsPoly) {
        use cl_math::{BigUint, CrtBasis};
        let rns = self.inner.rns();
        let qb = rns.q_basis(level);
        let pb = rns.p_basis(special);
        let target = acc0.basis().clone();
        let tm = cl_math::Modulus::new(self.t).expect("t in range");
        let all_moduli: Vec<u64> = target.0.iter().map(|&l| rns.modulus_value(l)).collect();
        let p_moduli: Vec<u64> = pb.0.iter().map(|&l| rns.modulus_value(l)).collect();
        let crt = CrtBasis::new(&all_moduli);
        let p_big = BigUint::product(&p_moduli);
        let p_mod_t = p_big.rem_u64(self.t);
        let p_inv_t = tm.inv(tm.reduce(p_mod_t));
        let n = acc0.n();
        let divide = |poly: &mut RnsPoly| -> RnsPoly {
            rns.from_ntt(poly);
            let mut out = rns.zero(&qb);
            let mut residues = vec![0u64; target.len()];
            for i in 0..n {
                for (k, r) in residues.iter_mut().enumerate() {
                    *r = poly.limb(k)[i];
                }
                let (neg, mag) = crt.combine(&residues).centered(crt.product());
                // delta = v mod P, centered; then corrected to be ≡ 0 mod t.
                let v_mod_p_raw = {
                    let r = mag.rem_big(&p_big);
                    if neg && !r.is_zero() {
                        // (-mag) mod P = P - r.
                        let mut x = p_big.clone();
                        x.sub_assign(&r);
                        x
                    } else {
                        r
                    }
                };
                let (d_neg, d_mag) = v_mod_p_raw.centered(&p_big);
                // delta as value mod t (signed).
                let d_mod_t = {
                    let r = d_mag.rem_u64(self.t);
                    if d_neg {
                        tm.neg(r)
                    } else {
                        r
                    }
                };
                // k = (-delta)*P^{-1} mod t, centered.
                let k_t = tm.mul(tm.neg(d_mod_t), p_inv_t);
                let k_c = tm.lift_centered(k_t);
                // quotient = (v - delta - P*k_c)/P = (v - delta)/P - k_c.
                // Compute (v - delta) as signed big-integer arithmetic:
                // v = (neg ? -mag : mag); delta = (d_neg ? -d_mag : d_mag).
                let (diff_neg, diff_mag) = match (neg, d_neg) {
                    (false, false) => {
                        if mag >= d_mag {
                            let mut x = mag.clone();
                            x.sub_assign(&d_mag);
                            (false, x)
                        } else {
                            let mut x = d_mag.clone();
                            x.sub_assign(&mag);
                            (true, x)
                        }
                    }
                    (false, true) => {
                        let mut x = mag.clone();
                        x.add_assign(&d_mag);
                        (false, x)
                    }
                    (true, false) => {
                        let mut x = mag.clone();
                        x.add_assign(&d_mag);
                        (true, x)
                    }
                    (true, true) => {
                        if mag >= d_mag {
                            let mut x = mag.clone();
                            x.sub_assign(&d_mag);
                            (true, x)
                        } else {
                            let mut x = d_mag.clone();
                            x.sub_assign(&mag);
                            (false, x)
                        }
                    }
                };
                // diff is divisible by P exactly.
                let mut quot = diff_mag.clone();
                let mut exact = true;
                for &pm in &p_moduli {
                    let (q2, r2) = quot.div_rem_u64(pm);
                    quot = q2;
                    exact &= r2 == 0;
                }
                debug_assert!(exact, "ModDown division must be exact");
                // result = (diff_sign)quot - k_c, then store mod each q.
                for (k, &limb) in qb.0.iter().enumerate() {
                    let m = rns.modulus(limb);
                    let q_res = quot.rem_u64(m.value());
                    let mut r = if diff_neg { m.neg(q_res) } else { q_res };
                    r = m.sub(r, m.from_i64(k_c));
                    out.limb_mut(k)[i] = r;
                }
            }
            rns.to_ntt(&mut out);
            out
        };
        let ks0 = divide(&mut acc0);
        let ks1 = divide(&mut acc1);
        (ks0, ks1)
    }

    /// Fallible BGV modulus switching: drops the top modulus `q_L`,
    /// dividing the noise by it while keeping the plaintext exact. The
    /// correction adds the multiple of `q_L` that makes the dropped part
    /// divisible *and* congruent to 0 mod t.
    ///
    /// # Errors
    ///
    /// [`FheError::InvalidParams`] at level 1 (no modulus left to drop),
    /// plus any guardrail failure.
    pub fn try_mod_switch(&self, ct: &Ciphertext) -> FheResult<Ciphertext> {
        self.inner.guard_operands("bgv_mod_switch", &[ct])?;
        if ct.level() < 2 {
            return Err(FheError::InvalidParams {
                op: "bgv_mod_switch",
                reason: "cannot switch a level-1 ciphertext".into(),
            });
        }
        let rns = self.inner.rns();
        let level = ct.level();
        let drop_limb = (level - 1) as u32;
        let q_last = rns.modulus_value(drop_limb);
        let keep = rns.q_basis(level - 1);
        let tm = cl_math::Modulus::new(self.t).expect("t in range");
        // q_last^{-1} mod t, for the congruence correction.
        let q_last_inv_t = tm.inv(tm.reduce(q_last));
        let switch_poly = |poly: &RnsPoly| -> RnsPoly {
            let mut p = poly.clone();
            rns.from_ntt(&mut p);
            // d = [c]_{q_last}, centered.
            let m_last = rns.modulus(drop_limb);
            let last_idx = p
                .basis()
                .0
                .iter()
                .position(|&l| l == drop_limb)
                .expect("top limb present");
            let d: Vec<i64> = p.limb(last_idx).iter().map(|&x| m_last.lift_centered(x)).collect();
            // delta = d + q_last * [(-d) * q_last^{-1} mod t], centered so
            // |delta| <= q_last * t / 2; delta ≡ d (mod q_last) and ≡ 0
            // (mod t), so (c - delta)/q_last is exact and preserves m mod t.
            let delta: Vec<i64> = d
                .iter()
                .map(|&di| {
                    let r = tm.from_i64(-di);
                    let k = tm.mul(r, q_last_inv_t);
                    let k_c = tm.lift_centered(k);
                    di + q_last as i64 * k_c
                })
                .collect();
            // out = (c - delta) / q_last over the kept limbs.
            let delta_poly = rns.from_signed_coeffs(&delta, &keep);
            let c_keep = rns.restrict(&p, &keep);
            let diff = rns.sub(&c_keep, &delta_poly);
            let inv: Vec<u64> = keep
                .0
                .iter()
                .map(|&l| {
                    let m = rns.modulus(l);
                    m.inv(m.reduce(q_last))
                })
                .collect();
            let mut out = rns.scalar_mul_per_limb(&diff, &inv);
            // The division multiplied the plaintext by q_last^{-1} mod t;
            // undo it with a scalar multiply by [q_last mod t].
            out = rns.scalar_mul(&out, tm.reduce(q_last));
            rns.to_ntt(&mut out);
            out
        };
        // The noise divides by the dropped modulus, floored by the
        // t-congruent correction (|delta| <= q_last·t/2 before division)
        // propagated through the secret.
        let est = log2_add(
            ct.noise_estimate_bits() - (q_last as f64).log2(),
            (self.t as f64 / 2.0).log2() + self.inner.est_round_floor(),
        );
        let out = self
            .inner
            .ciphertext_from_parts(switch_poly(ct.c0()), switch_poly(ct.c1()), level - 1, 1.0)
            .with_noise_bits(est);
        self.inner.guard_budget("bgv_mod_switch", &out)?;
        Ok(out)
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CkksParams, KeySwitchKind};
    use rand::SeedableRng;

    const T: u64 = 65537; // 2^16 + 1: NTT-friendly for all N <= 2^15.

    fn setup(levels: usize) -> (CkksContext, SecretKey, rand::rngs::StdRng) {
        let params = CkksParams::builder()
            .ring_degree(128)
            .levels(levels)
            .special_limbs(levels)
            .limb_bits(45)
            .scale_bits(40)
            .build()
            .unwrap();
        let ctx = CkksContext::new(params).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let sk = ctx.keygen(&mut rng);
        (ctx, sk, rng)
    }

    #[test]
    fn encode_decode_roundtrip() {
        let (ctx, sk, mut rng) = setup(2);
        let bgv = BgvContext::new(&ctx, T).unwrap();
        let vals: Vec<u64> = (0..128).map(|i| (i * i + 7) % T).collect();
        let ct = bgv.encrypt(&vals, 2, &sk, &mut rng);
        assert_eq!(bgv.decrypt(&ct, &sk), vals);
    }

    #[test]
    fn addition_is_exact_mod_t() {
        let (ctx, sk, mut rng) = setup(2);
        let bgv = BgvContext::new(&ctx, T).unwrap();
        let a: Vec<u64> = (0..64).map(|i| (i * 31) % T).collect();
        let b: Vec<u64> = (0..64).map(|i| (T - 1 - i as u64) % T).collect();
        let ca = bgv.encrypt(&a, 2, &sk, &mut rng);
        let cb = bgv.encrypt(&b, 2, &sk, &mut rng);
        let sum = bgv.decrypt(&bgv.try_add(&ca, &cb).unwrap(), &sk);
        for i in 0..64 {
            assert_eq!(sum[i], (a[i] + b[i]) % T);
        }
    }

    #[test]
    fn multiplication_is_exact_mod_t() {
        // Every keyswitch kind: one special limb, one digit, and one digit
        // per limb at 3 levels.
        for kind in [
            KeySwitchKind::Standard,
            KeySwitchKind::Boosted { digits: 1 },
            KeySwitchKind::Boosted { digits: 3 },
        ] {
            let (ctx, sk, mut rng) = setup(3);
            let bgv = BgvContext::new(&ctx, T).unwrap();
            let relin = bgv.relin_keygen(&sk, kind, &mut rng);
            let a: Vec<u64> = (0..32).map(|i| 3 + i as u64 * 1009).collect();
            let b: Vec<u64> = (0..32).map(|i| 5 + i as u64 * 2003).collect();
            let ca = bgv.encrypt(&a, 3, &sk, &mut rng);
            let cb = bgv.encrypt(&b, 3, &sk, &mut rng);
            let prod = bgv.decrypt(&bgv.try_mul(&ca, &cb, &relin).unwrap(), &sk);
            for i in 0..32 {
                assert_eq!(prod[i], a[i] * b[i] % T, "{kind:?}, slot {i}");
            }
        }
    }

    #[test]
    fn mod_switch_preserves_plaintext() {
        let (ctx, sk, mut rng) = setup(3);
        let bgv = BgvContext::new(&ctx, T).unwrap();
        let vals: Vec<u64> = (0..128).map(|i| (i * 12345) % T).collect();
        let ct = bgv.encrypt(&vals, 3, &sk, &mut rng);
        let switched = bgv.try_mod_switch(&ct).unwrap();
        assert_eq!(switched.level(), 2);
        assert_eq!(bgv.decrypt(&switched, &sk), vals);
        let twice = bgv.try_mod_switch(&switched).unwrap();
        assert_eq!(twice.level(), 1);
        assert_eq!(bgv.decrypt(&twice, &sk), vals);
    }

    #[test]
    fn multiplication_chain_with_mod_switching() {
        // Depth-3 chain: x^(2^3) over Z_t, switching after each product to
        // control noise — BGV's analogue of CKKS's Fig. 2 budget story.
        let (ctx, sk, mut rng) = setup(5);
        let bgv = BgvContext::new(&ctx, T).unwrap();
        let relin = bgv.relin_keygen(&sk, KeySwitchKind::Boosted { digits: 1 }, &mut rng);
        let x: Vec<u64> = (0..16).map(|i| 2 + i as u64).collect();
        let mut ct = bgv.encrypt(&x, 5, &sk, &mut rng);
        let mut expect = x.clone();
        for _ in 0..3 {
            ct = bgv
                .try_mod_switch(&bgv.try_mul(&ct, &ct, &relin).unwrap())
                .unwrap();
            for v in expect.iter_mut() {
                *v = *v * *v % T;
            }
        }
        assert_eq!(ct.level(), 2);
        let got = bgv.decrypt(&ct, &sk);
        assert_eq!(&got[..16], &expect[..]);
    }

    #[test]
    fn fallible_api_reports_structured_errors() {
        let (ctx, sk, mut rng) = setup(3);
        // 65539 is prime, but 65539 - 1 is not divisible by 2N = 256.
        match BgvContext::new(&ctx, 65539) {
            Err(crate::FheError::InvalidParams {
                op: "bgv_new",
                reason,
            }) => {
                assert!(reason.contains("NTT-friendly"), "reason: {reason}");
            }
            other => panic!("expected InvalidParams, got {other:?}"),
        }
        let bgv = BgvContext::new(&ctx, T).unwrap();
        let relin = bgv.relin_keygen(&sk, KeySwitchKind::Boosted { digits: 1 }, &mut rng);
        let a = bgv.encrypt(&[1, 2], 3, &sk, &mut rng);
        let b = bgv.encrypt(&[3, 4], 2, &sk, &mut rng);
        assert!(matches!(
            bgv.try_mul(&a, &b, &relin),
            Err(crate::FheError::LevelMismatch { op: "bgv_mul", got: 2, want: 3 })
        ));
        assert!(matches!(
            bgv.try_add(&a, &b),
            Err(crate::FheError::LevelMismatch { .. })
        ));
        let floor = bgv.try_mod_switch(&bgv.try_mod_switch(&b).unwrap());
        assert!(matches!(
            floor,
            Err(crate::FheError::InvalidParams { op: "bgv_mod_switch", .. })
        ));
    }

    #[test]
    fn bgv_noise_tracking_feeds_the_budget() {
        // The t-scaled noise must be reflected in the estimate so the
        // budget accounting (and the strict guardrails) see it.
        let (ctx, sk, mut rng) = setup(3);
        let bgv = BgvContext::new(&ctx, T).unwrap();
        let relin = bgv.relin_keygen(&sk, KeySwitchKind::Boosted { digits: 1 }, &mut rng);
        let ct = bgv.encrypt(&[5, 6], 3, &sk, &mut rng);
        assert!(ct.noise_estimate_bits() > (T as f64).log2());
        let prod = bgv.try_mul(&ct, &ct, &relin).unwrap();
        assert!(prod.noise_estimate_bits() > ct.noise_estimate_bits() + 10.0);
        // mod_switch divides the noise back down (to the t-correction
        // floor, ~log2(t/2·sqrt n)).
        let switched = bgv.try_mod_switch(&prod).unwrap();
        assert!(switched.noise_estimate_bits() < prod.noise_estimate_bits() - 10.0);
    }

    #[test]
    fn bgv_and_ckks_share_keyswitching_machinery() {
        // The same relinearization key object serves both schemes.
        let (ctx, sk, mut rng) = setup(3);
        let bgv = BgvContext::new(&ctx, T).unwrap();
        // A t-scaled-noise key works for BOTH schemes.
        let relin = bgv.relin_keygen(&sk, KeySwitchKind::Boosted { digits: 2 }, &mut rng);
        // CKKS use.
        let pt = ctx.encode(&[1.5, -2.0], ctx.default_scale(), 3);
        let ckks_ct = ctx.encrypt(&pt, &sk, &mut rng);
        let ckks_prod = ctx
            .try_rescale(&ctx.try_mul(&ckks_ct, &ckks_ct, &relin).unwrap())
            .unwrap();
        let ckks_out = ctx.decode(&ctx.decrypt(&ckks_prod, &sk), 2);
        assert!((ckks_out[0] - 2.25).abs() < 1e-2);
        // BGV use of the very same key.
        let ct = bgv.encrypt(&[9, 11], 3, &sk, &mut rng);
        let got = bgv.decrypt(&bgv.try_mul(&ct, &ct, &relin).unwrap(), &sk);
        assert_eq!(&got[..2], &[81, 121]);
    }
}

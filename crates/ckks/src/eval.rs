//! Homomorphic operations on ciphertexts.
//!
//! Every operation has one entry point, named `try_*`: it returns
//! [`FheResult`], never panics on operand mismatch, and runs the context's
//! guardrail checks (operand conformance, hint integrity and the
//! [`GuardrailPolicy`](crate::GuardrailPolicy)'s budget floor). Levels and
//! rescales are explicit: operands at different levels are rejected, never
//! aligned, and no operation rescales on its own. A caller that treats a
//! failure as a bug says why with `.expect(..)`.
//!
//! All operations update the ciphertext's analytic noise estimate (see
//! [`crate::Ciphertext::noise_estimate_bits`] and the model documented in
//! `noise.rs`).

use cl_rns::{mod_down_ntt, Basis, RnsPoly};

use crate::error::{FheError, FheResult};
use crate::noise::log2_add;
use crate::{
    Ciphertext, CkksContext, HoistedDecomposition, KeySwitchKey, KeySwitchKind, Plaintext,
};

impl CkksContext {
    /// Fallible homomorphic addition.
    ///
    /// # Errors
    ///
    /// [`FheError::LevelMismatch`] / [`FheError::ScaleMismatch`] when the
    /// operand shapes differ, plus any guardrail failure.
    pub fn try_add(&self, a: &Ciphertext, b: &Ciphertext) -> FheResult<Ciphertext> {
        self.try_check_same_level("add", a, b)?;
        self.guard_operands("add", &[a, b])?;
        self.try_check_scale("add", b.scale, a.scale)?;
        let out = Ciphertext {
            c0: self.rns().add(&a.c0, &b.c0),
            c1: self.rns().add(&a.c1, &b.c1),
            level: a.level,
            scale: a.scale,
            noise_bits_est: Self::est_add(a, b),
        };
        self.guard_budget("add", &out)?;
        Ok(out)
    }

    /// Fallible homomorphic subtraction.
    ///
    /// # Errors
    ///
    /// Same contract as [`CkksContext::try_add`].
    pub fn try_sub(&self, a: &Ciphertext, b: &Ciphertext) -> FheResult<Ciphertext> {
        self.try_check_same_level("sub", a, b)?;
        self.guard_operands("sub", &[a, b])?;
        self.try_check_scale("sub", b.scale, a.scale)?;
        let out = Ciphertext {
            c0: self.rns().sub(&a.c0, &b.c0),
            c1: self.rns().sub(&a.c1, &b.c1),
            level: a.level,
            scale: a.scale,
            noise_bits_est: Self::est_add(a, b),
        };
        self.guard_budget("sub", &out)?;
        Ok(out)
    }

    /// Fallible homomorphic negation.
    ///
    /// # Errors
    ///
    /// Only guardrail failures (negation itself cannot fail).
    pub fn try_neg_ct(&self, a: &Ciphertext) -> FheResult<Ciphertext> {
        self.guard_operands("neg", &[a])?;
        Ok(Ciphertext {
            c0: self.rns().neg(&a.c0),
            c1: self.rns().neg(&a.c1),
            level: a.level,
            scale: a.scale,
            noise_bits_est: a.noise_bits_est,
        })
    }

    /// Fallible exact multiplication of every slot by the imaginary unit.
    ///
    /// "`i` in every slot" is the monomial `X^{N/2}`: slot `j` evaluates
    /// the plaintext at `ζ^{5^j}` (`ζ` a primitive `2N`-th root of unity)
    /// and `5^j ≡ 1 (mod 4)`, so `X^{N/2}` evaluates to `ζ^{N/2} = i` at
    /// every slot. Each limb is multiplied by the monomial's NTT image; in
    /// the coefficient domain that is a negacyclic shift, so the result
    /// carries the input's noise magnitude exactly. No level is consumed,
    /// the scale and the noise estimate are unchanged, and applying it
    /// twice is [`CkksContext::try_neg_ct`] bit for bit.
    ///
    /// # Errors
    ///
    /// Only guardrail failures.
    pub fn try_mul_by_i(&self, a: &Ciphertext) -> FheResult<Ciphertext> {
        self.guard_operands("mul_by_i", &[a])?;
        let rns = self.rns();
        let i = rns.restrict(self.i_monomial(), a.c0.basis());
        Ok(Ciphertext {
            c0: rns.mul(&a.c0, &i),
            c1: rns.mul(&a.c1, &i),
            level: a.level,
            scale: a.scale,
            noise_bits_est: a.noise_bits_est,
        })
    }

    /// Fallible plaintext addition.
    ///
    /// # Errors
    ///
    /// [`FheError::LevelMismatch`] when the plaintext's level differs;
    /// [`FheError::ScaleMismatch`] when the scales deviate by a relative
    /// `1e-6` or more.
    pub fn try_add_plain(&self, a: &Ciphertext, p: &Plaintext) -> FheResult<Ciphertext> {
        self.guard_operands("add_plain", &[a])?;
        if a.level != p.level {
            return Err(FheError::LevelMismatch {
                op: "add_plain",
                got: p.level,
                want: a.level,
            });
        }
        self.try_check_scale("add_plain", p.scale, a.scale)?;
        let out = Ciphertext {
            c0: self.rns().add(&a.c0, &p.poly),
            c1: a.c1.clone(),
            level: a.level,
            scale: a.scale,
            noise_bits_est: a.noise_bits_est,
        };
        self.guard_budget("add_plain", &out)?;
        Ok(out)
    }

    /// Fallible plaintext multiplication. The scales multiply; a rescale
    /// typically follows.
    ///
    /// # Errors
    ///
    /// [`FheError::LevelMismatch`] when the plaintext's level differs,
    /// plus any guardrail failure.
    pub fn try_mul_plain(&self, a: &Ciphertext, p: &Plaintext) -> FheResult<Ciphertext> {
        cl_trace::record_pt_mult();
        self.guard_operands("mul_plain", &[a])?;
        if a.level != p.level {
            return Err(FheError::LevelMismatch {
                op: "mul_plain",
                got: p.level,
                want: a.level,
            });
        }
        let out = Ciphertext {
            c0: self.rns().mul(&a.c0, &p.poly),
            c1: self.rns().mul(&a.c1, &p.poly),
            level: a.level,
            scale: a.scale * p.scale,
            noise_bits_est: self.est_mul_plain(a, p.scale),
        };
        self.guard_budget("mul_plain", &out)?;
        Ok(out)
    }

    /// Fallible plaintext multiply-accumulate: `acc = a·p + acc` in place,
    /// one `mul_acc` pass per polynomial, where
    /// `*acc = try_add(&try_mul_plain(a, p)?, acc)?` builds a product
    /// ciphertext and then a sum ciphertext per term. The sums of
    /// plaintext products that bootstrapping's linear transforms, EvalMod's
    /// Taylor sum and a compiled program's BSGS inner sums run on
    /// accumulate this way into one caller-owned ciphertext, as CraterLake
    /// chains its multiplier into its adder instead of writing each term
    /// back (Sec. 5).
    ///
    /// Bit-identical to that pair of calls, with the product as `add`'s
    /// left operand (a compiled `AddSlot` adds the running sum in its slot
    /// to the product in the accumulator): the same checks in the same
    /// order with the same errors (`mul_plain`'s for the operand `a`, the
    /// plaintext's level and the product's budget; `add`'s for the levels,
    /// the product's bookkeeping, `acc`, the scales and the sum's budget),
    /// the same trace counts, and the sum's limbs, scale (the product's) and
    /// noise estimate. Every check runs before the first limb is written,
    /// so on error `acc` is unchanged. The product is never built: of the
    /// checks `try_add` runs on it only the bookkeeping ones apply (its
    /// residues are canonical by the multiply kernel's contract).
    ///
    /// # Errors
    ///
    /// [`FheError::LevelMismatch`] (`mul_plain`) when the plaintext's level
    /// differs from `a`'s; [`FheError::LevelMismatch`] /
    /// [`FheError::ScaleMismatch`] (`add`) when `acc`'s shape differs from
    /// the product's; plus any guardrail failure of either step.
    pub fn try_mul_plain_acc(
        &self,
        acc: &mut Ciphertext,
        a: &Ciphertext,
        p: &Plaintext,
    ) -> FheResult<()> {
        cl_trace::record_pt_mult();
        self.guard_operands("mul_plain", &[a])?;
        if a.level != p.level {
            return Err(FheError::LevelMismatch {
                op: "mul_plain",
                got: p.level,
                want: a.level,
            });
        }
        let scale = a.scale * p.scale;
        let term_noise = self.est_mul_plain(a, p.scale);
        self.guard_budget_of("mul_plain", a.level, scale, term_noise)?;
        if acc.level != a.level {
            return Err(FheError::LevelMismatch {
                op: "add",
                got: acc.level,
                want: a.level,
            });
        }
        self.validate_metadata("add", a.level, scale)?;
        self.guard_operands("add", &[acc])?;
        self.try_check_scale("add", acc.scale, scale)?;
        let noise = log2_add(term_noise, acc.noise_bits_est);
        self.guard_budget_of("add", a.level, scale, noise)?;
        let rns = self.rns();
        rns.mul_acc(&mut acc.c0, &a.c0, &p.poly);
        rns.mul_acc(&mut acc.c1, &a.c1, &p.poly);
        acc.scale = scale;
        acc.noise_bits_est = noise;
        Ok(())
    }

    /// Fallible homomorphic multiplication with relinearization (Sec.
    /// 2.2): tensor the two ciphertexts, then keyswitch the degree-2
    /// component back to a 2-polynomial ciphertext.
    ///
    /// The output scale is the product of the input scales; a rescale
    /// typically follows.
    ///
    /// # Errors
    ///
    /// [`FheError::LevelMismatch`] when levels differ, plus any guardrail
    /// failure (including [`FheError::CorruptKey`] for a tampered
    /// relinearization key).
    pub fn try_mul(
        &self,
        a: &Ciphertext,
        b: &Ciphertext,
        relin_key: &KeySwitchKey,
    ) -> FheResult<Ciphertext> {
        cl_trace::record_ct_mult();
        self.try_check_same_level("mul", a, b)?;
        self.guard_operands("mul", &[a, b])?;
        let rns = self.rns();
        // Tensor: (d0, d1, d2) = (a0 b0, a0 b1 + a1 b0, a1 b1).
        let d0 = rns.mul(&a.c0, &b.c0);
        let mut d1 = rns.mul(&a.c0, &b.c1);
        rns.mul_acc(&mut d1, &a.c1, &b.c0);
        let d2 = rns.mul(&a.c1, &b.c1);
        // Relinearize d2 (implicitly multiplied by s^2).
        let (mut ks0, mut ks1) = self.keyswitch_impl("mul", &d2, relin_key)?;
        rns.add_assign(&mut ks0, &d0);
        rns.add_assign(&mut ks1, &d1);
        let out = Ciphertext {
            c0: ks0,
            c1: ks1,
            level: a.level,
            scale: a.scale * b.scale,
            noise_bits_est: self.est_mul(a, b, relin_key),
        };
        self.guard_budget("mul", &out)?;
        Ok(out)
    }

    /// Fallible squaring (saves one polynomial product over
    /// [`CkksContext::try_mul`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`CkksContext::try_mul`].
    pub fn try_square(&self, a: &Ciphertext, relin_key: &KeySwitchKey) -> FheResult<Ciphertext> {
        cl_trace::record_ct_mult();
        self.guard_operands("square", &[a])?;
        let rns = self.rns();
        let d0 = rns.mul(&a.c0, &a.c0);
        let cross = rns.mul(&a.c0, &a.c1);
        let d1 = rns.add(&cross, &cross);
        let d2 = rns.mul(&a.c1, &a.c1);
        let (mut ks0, mut ks1) = self.keyswitch_impl("square", &d2, relin_key)?;
        rns.add_assign(&mut ks0, &d0);
        rns.add_assign(&mut ks1, &d1);
        let out = Ciphertext {
            c0: ks0,
            c1: ks1,
            level: a.level,
            scale: a.scale * a.scale,
            noise_bits_est: self.est_mul(a, a, relin_key),
        };
        self.guard_budget("square", &out)?;
        Ok(out)
    }

    /// Fallible rescale: divides by the last modulus in the chain and
    /// drops a level (Sec. 2.3). The scale shrinks by exactly that
    /// modulus.
    ///
    /// # Errors
    ///
    /// [`FheError::InvalidParams`] at level 1 (no modulus left to drop),
    /// plus any guardrail failure.
    pub fn try_rescale(&self, a: &Ciphertext) -> FheResult<Ciphertext> {
        self.guard_operands("rescale", &[a])?;
        if a.level < 2 {
            return Err(FheError::InvalidParams {
                op: "rescale",
                reason: "cannot rescale a level-1 ciphertext".into(),
            });
        }
        let rns = self.rns();
        let dropped = rns.modulus_value((a.level - 1) as u32) as f64;
        // NTT-domain rescale through the cached drop-limb -> kept-limbs
        // converter: only the dropped limb leaves the NTT domain and only
        // the converted correction re-enters it, instead of round-tripping
        // all `level` limbs per polynomial. The two polynomials are
        // independent, so they run as the two tasks of one
        // [`cl_rns::par_map`] region.
        let keep = rns.q_basis(a.level - 1);
        let drop = Basis(vec![(a.level - 1) as u32]);
        let conv = self.converter(&drop, &keep);
        let [r0, r1]: [RnsPoly; 2] = cl_rns::par_map(2, |i| {
            let c = if i == 0 { &a.c0 } else { &a.c1 };
            mod_down_ntt(rns, c.clone(), &keep, &drop, &conv)
        })
        .try_into()
        .expect("one result per polynomial");
        let out = Ciphertext {
            c0: r0,
            c1: r1,
            level: a.level - 1,
            scale: a.scale / dropped,
            noise_bits_est: self.est_rescale(a),
        };
        self.guard_budget("rescale", &out)?;
        Ok(out)
    }

    /// Fallible modulus drop to a lower level without dividing (used to
    /// align operand levels). The scale is unchanged.
    ///
    /// # Errors
    ///
    /// [`FheError::InvalidParams`] when `level` is zero or above the
    /// current level.
    pub fn try_mod_drop(&self, a: &Ciphertext, level: usize) -> FheResult<Ciphertext> {
        self.guard_operands("mod_drop", &[a])?;
        if !(1..=a.level).contains(&level) {
            return Err(FheError::InvalidParams {
                op: "mod_drop",
                reason: format!("target level {level} not in [1, {}]", a.level),
            });
        }
        if level == a.level {
            return Ok(a.clone());
        }
        let rns = self.rns();
        let target = rns.q_basis(level);
        Ok(Ciphertext {
            c0: rns.restrict(&a.c0, &target),
            c1: rns.restrict(&a.c1, &target),
            level,
            scale: a.scale,
            noise_bits_est: a.noise_bits_est,
        })
    }

    /// Fallible homomorphic slot rotation by `steps` (Sec. 2.2):
    /// automorphism on both polynomials, then a keyswitch of `c1` with the
    /// matching rotation key.
    ///
    /// # Errors
    ///
    /// Guardrail failures (including [`FheError::CorruptKey`] for a
    /// tampered rotation key). A key
    /// generated for a different rotation amount is not detectable here —
    /// the result simply decrypts wrong.
    pub fn try_rotate(
        &self,
        a: &Ciphertext,
        steps: i64,
        rot_key: &KeySwitchKey,
    ) -> FheResult<Ciphertext> {
        let g = cl_math::galois_element_for_rotation(steps, self.params().ring_degree());
        self.try_apply_galois("rotate", a, g, rot_key)
    }

    /// Fallible homomorphic complex conjugation of all slots.
    ///
    /// # Errors
    ///
    /// Same contract as [`CkksContext::try_rotate`].
    pub fn try_conjugate(&self, a: &Ciphertext, conj_key: &KeySwitchKey) -> FheResult<Ciphertext> {
        let g = cl_math::galois_element_conjugate(self.params().ring_degree());
        self.try_apply_galois("conjugate", a, g, conj_key)
    }

    fn try_apply_galois(
        &self,
        op: &'static str,
        a: &Ciphertext,
        g: u64,
        key: &KeySwitchKey,
    ) -> FheResult<Ciphertext> {
        self.guard_operands(op, &[a])?;
        // Hoisted order: decompose `c1` first, then apply the automorphism
        // to the already-decomposed digits. A single rotation costs the
        // same either way, but routing everything through one path keeps
        // `try_rotate` bit-identical to the batched
        // [`CkksContext::try_rotate_hoisted_many`] (the approximate ModUp
        // conversion does not commute bit-exactly with the automorphism,
        // so the two orders differ in the low noise bits).
        let dec = self.hoist_impl(op, &a.c1, key.kind())?;
        self.galois_from_decomposition(op, a, &dec, g, key)
    }

    /// The one epilogue of every rotation and conjugation: keyswitches the
    /// hoisted decomposition `dec` of `a.c1` under `σ_g`, and returns
    /// `(ks0 + σ_g(a.c0), ks1)` with the keyswitch noise added to `a`'s.
    /// `σ_g(a.c0)` is added into `ks0` in place (modular addition is
    /// commutative, so this is bit-identical to a fresh sum).
    fn galois_from_decomposition(
        &self,
        op: &'static str,
        a: &Ciphertext,
        dec: &HoistedDecomposition,
        g: u64,
        key: &KeySwitchKey,
    ) -> FheResult<Ciphertext> {
        cl_trace::record_rotation();
        let rns = self.rns();
        let (mut ks0, ks1) = dec.apply_impl(self, op, Some(g), key)?;
        rns.add_assign(&mut ks0, &rns.apply_automorphism(&a.c0, g));
        let out = Ciphertext {
            c0: ks0,
            c1: ks1,
            level: a.level,
            scale: a.scale,
            noise_bits_est: log2_add(a.noise_bits_est, self.est_keyswitch_bits(a.level, key)),
        };
        self.guard_budget(op, &out)?;
        Ok(out)
    }

    /// Fallible batch rotation from a single hoisted decomposition: all
    /// `steps` rotations of `a` share one ModUp (digit decomposition + base
    /// extension) instead of paying it once per rotation — the dominant
    /// saving of CraterLake's amortized boosted keyswitching across BSGS
    /// rotations (Sec. 6).
    ///
    /// `keys[i]` must be the rotation key for `steps[i]`, and all keys must
    /// share one keyswitch kind (they apply to the same decomposition).
    /// Results are bit-identical to calling [`CkksContext::try_rotate`]
    /// once per step, noise estimates included.
    ///
    /// The steps are independent keyswitches over one shared
    /// decomposition, so they fan out across the worker pool
    /// ([`cl_rns::try_par_map`]); results, trace counts and the first error
    /// (in step order) are the serial run's.
    ///
    /// # Errors
    ///
    /// [`FheError::InvalidParams`] when `steps` and `keys` have different
    /// lengths or a key's kind differs from the first key's, plus the
    /// per-rotation contract of [`CkksContext::try_rotate`].
    pub fn try_rotate_hoisted_many(
        &self,
        a: &Ciphertext,
        steps: &[i64],
        keys: &[&KeySwitchKey],
    ) -> FheResult<Vec<Ciphertext>> {
        const OP: &str = "rotate_hoisted";
        if steps.len() != keys.len() {
            return Err(FheError::InvalidParams {
                op: OP,
                reason: format!("{} steps but {} keys", steps.len(), keys.len()),
            });
        }
        self.guard_operands(OP, &[a])?;
        let Some(first) = keys.first() else {
            return Ok(Vec::new());
        };
        let n = self.params().ring_degree();
        let dec = self.hoist_impl(OP, &a.c1, first.kind())?;
        // The steps share only the read-only decomposition: each is an
        // independent keyswitch writing one ciphertext.
        cl_rns::try_par_map(steps.len(), |i| {
            let g = cl_math::galois_element_for_rotation(steps[i], n);
            self.galois_from_decomposition(OP, a, &dec, g, keys[i])
        })
    }

    /// Fallible rotate-and-sum `Σ_j rot_{k_j}(ct_j)` with *double
    /// hoisting*: every nonzero-step term is hoisted, its automorphism
    /// applied to the decomposed digits, and its hint inner product
    /// accumulated in the extended basis `Q·P`; a single closing ModDown
    /// serves the whole sum. ModDown is linear up to the ±1 conversion
    /// rounding per term, which the noise model's rounding floor already
    /// covers — this is the extended-basis accumulation the BSGS
    /// giant-step loop of `cl-boot` runs on.
    ///
    /// Every term's checks run first, in term order. Then the
    /// nonzero-step terms run as two contiguous half-sums, the two tasks
    /// of one [`cl_rns::try_par_map`] region: each half takes its terms'
    /// hint inner products into one extended-basis pair of its own (the
    /// hint MACs write straight into it) and sums their `σ(c0)`. The
    /// halves are added and pay one ModDown. Every sum is of canonical
    /// residues modulo each limb, so the result is bit-identical to one
    /// serial sum in term order, and the split is fixed (the first
    /// `⌈m/2⌉` of `m` terms, then the rest), so the output and the op
    /// counts do not depend on the thread count. Each further term
    /// allocates only its own hoisted decomposition and its `σ(c0)`,
    /// never an extended-basis polynomial.
    ///
    /// Terms with step 0 are added directly (no key needed; a key given
    /// for step 0 is ignored). All terms must share level and scale, and
    /// all keys one keyswitch kind; a key of another kind is rejected
    /// before its term is hoisted or touches an extended-basis pair. The
    /// error returned is the serial run's first: a failed check at term
    /// `f` is returned only after the terms before `f` have run without
    /// error, and the noise estimate adds the terms in term order.
    ///
    /// # Errors
    ///
    /// [`FheError::InvalidParams`] on an empty term list or mixed key
    /// kinds; [`FheError::MissingKey`] when a nonzero step has no key;
    /// [`FheError::LevelMismatch`] / [`FheError::ScaleMismatch`] when the
    /// term shapes differ; plus any guardrail failure.
    pub fn try_rotate_sum(
        &self,
        terms: &[(&Ciphertext, i64, Option<&KeySwitchKey>)],
    ) -> FheResult<Ciphertext> {
        const OP: &str = "rotate_sum";
        let Some(&(head, ..)) = terms.first() else {
            return Err(FheError::InvalidParams {
                op: OP,
                reason: "empty term list".into(),
            });
        };
        let rns = self.rns();
        let level = head.level;
        let qb = rns.q_basis(level);
        let mut base0 = rns.zero(&qb);
        base0.set_ntt_form(true);
        let mut base1 = base0.clone();
        let mut noise = f64::NEG_INFINITY;
        // The nonzero-step terms before the first failed check.
        let mut rotated: Vec<(&Ciphertext, i64, &KeySwitchKey)> = Vec::new();
        let mut failed = None;
        for &(ct, k, key) in terms {
            let kind = rotated.first().map(|&(.., first)| first.kind());
            match self.check_rotate_sum_term(head, ct, k, key, kind) {
                Err(e) => {
                    failed = Some(e);
                    break;
                }
                Ok(None) => {
                    rns.add_assign(&mut base0, &ct.c0);
                    rns.add_assign(&mut base1, &ct.c1);
                    noise = log2_add(noise, ct.noise_bits_est);
                }
                Ok(Some(key)) => {
                    rotated.push((ct, k, key));
                    noise = log2_add(
                        noise,
                        log2_add(ct.noise_bits_est, self.est_keyswitch_bits(level, key)),
                    );
                }
            }
        }
        let (lo, hi) = rotated.split_at(rotated.len().div_ceil(2));
        let halves: Vec<_> = [lo, hi].into_iter().filter(|h| !h.is_empty()).collect();
        let mut sums =
            cl_rns::try_par_map(halves.len(), |h| self.rotate_sum_half(OP, level, halves[h]))?
                .into_iter();
        if let Some(e) = failed {
            return Err(e);
        }
        if let Some((sigma, mut acc0, mut acc1)) = sums.next() {
            rns.add_assign(&mut base0, &sigma);
            for (sigma, a0, a1) in sums {
                rns.add_assign(&mut base0, &sigma);
                rns.add_assign(&mut acc0, &a0);
                rns.add_assign(&mut acc1, &a1);
            }
            let (ks0, ks1) = self.mod_down_pair(level, rotated[0].2.kind(), acc0, acc1);
            rns.add_assign(&mut base0, &ks0);
            rns.add_assign(&mut base1, &ks1);
        }
        let out = Ciphertext {
            c0: base0,
            c1: base1,
            level,
            scale: head.scale,
            noise_bits_est: noise,
        };
        self.guard_budget(OP, &out)?;
        Ok(out)
    }

    /// The checks one rotate-sum term passes before any work, in the order
    /// the serial run meets them: level, operand scan and scale against
    /// the head term, then (for a nonzero step) a key, of `kind` once an
    /// earlier nonzero-step term has fixed one. Returns the key a
    /// nonzero-step term is rotated with, `None` for a step-0 term.
    fn check_rotate_sum_term<'k>(
        &self,
        head: &Ciphertext,
        ct: &Ciphertext,
        k: i64,
        key: Option<&'k KeySwitchKey>,
        kind: Option<KeySwitchKind>,
    ) -> FheResult<Option<&'k KeySwitchKey>> {
        const OP: &str = "rotate_sum";
        self.try_check_same_level(OP, head, ct)?;
        self.guard_operands(OP, &[ct])?;
        self.try_check_scale(OP, ct.scale, head.scale)?;
        if k == 0 {
            return Ok(None);
        }
        let Some(key) = key else {
            return Err(FheError::MissingKey {
                what: format!("rotation key for step {k}"),
            });
        };
        if let Some(kind) = kind.filter(|&kind| kind != key.kind()) {
            return Err(FheError::InvalidParams {
                op: OP,
                reason: format!(
                    "mixed keyswitch kinds {kind:?} and {:?} in one rotate-sum",
                    key.kind()
                ),
            });
        }
        Ok(Some(key))
    }

    /// One half-sum of [`CkksContext::try_rotate_sum`] over checked
    /// nonzero-step terms, in term order: each term's hint inner product
    /// accumulated into one extended-basis pair, allocated at the first
    /// term, and the sum of the terms' `σ(c0)`. Returns `(Σ σ(c0), acc0,
    /// acc1)`, or the first term's error.
    fn rotate_sum_half(
        &self,
        op: &'static str,
        level: usize,
        terms: &[(&Ciphertext, i64, &KeySwitchKey)],
    ) -> FheResult<(RnsPoly, RnsPoly, RnsPoly)> {
        let rns = self.rns();
        let n = self.params().ring_degree();
        let mut sigma = rns.zero(&rns.q_basis(level));
        sigma.set_ntt_form(true);
        let mut ext: Option<(RnsPoly, RnsPoly)> = None;
        for &(ct, k, key) in terms {
            cl_trace::record_rotation();
            let g = cl_math::galois_element_for_rotation(k, n);
            let dec = self.hoist_impl(op, &ct.c1, key.kind())?;
            let (acc0, acc1) = ext.get_or_insert_with(|| dec.zero_ext_pair(self));
            dec.apply_ext_into(self, op, Some(g), key, acc0, acc1)?;
            rns.add_assign(&mut sigma, &rns.apply_automorphism(&ct.c0, g));
        }
        let (acc0, acc1) = ext.expect("a half-sum holds at least one term");
        Ok((sigma, acc0, acc1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CkksParams, KeySwitchKind, SecretKey};
    use rand::SeedableRng;

    fn setup(levels: usize) -> (CkksContext, SecretKey, rand::rngs::StdRng) {
        let params = CkksParams::builder()
            .ring_degree(128)
            .levels(levels)
            .special_limbs(levels)
            .limb_bits(40)
            .scale_bits(32)
            .build()
            .unwrap();
        let ctx = CkksContext::new(params).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(123);
        let sk = ctx.keygen(&mut rng);
        (ctx, sk, rng)
    }

    const KIND: KeySwitchKind = KeySwitchKind::Boosted { digits: 1 };

    #[test]
    fn homomorphic_add_sub() {
        let (ctx, sk, mut rng) = setup(2);
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![0.5, -2.0, 10.0];
        let cta = ctx.encrypt(&ctx.encode(&a, ctx.default_scale(), 2), &sk, &mut rng);
        let ctb = ctx.encrypt(&ctx.encode(&b, ctx.default_scale(), 2), &sk, &mut rng);
        let sum = ctx.decode(&ctx.decrypt(&ctx.try_add(&cta, &ctb).unwrap(), &sk), 3);
        let diff = ctx.decode(&ctx.decrypt(&ctx.try_sub(&cta, &ctb).unwrap(), &sk), 3);
        for i in 0..3 {
            assert!((sum[i] - (a[i] + b[i])).abs() < 1e-3);
            assert!((diff[i] - (a[i] - b[i])).abs() < 1e-3);
        }
    }

    #[test]
    fn homomorphic_mul_with_rescale() {
        let (ctx, sk, mut rng) = setup(3);
        let rlk = ctx.relin_keygen(&sk, KIND, &mut rng);
        let a = vec![1.5, -2.0, 0.25];
        let b = vec![4.0, 3.0, -8.0];
        let cta = ctx.encrypt(&ctx.encode(&a, ctx.default_scale(), 3), &sk, &mut rng);
        let ctb = ctx.encrypt(&ctx.encode(&b, ctx.default_scale(), 3), &sk, &mut rng);
        let prod = ctx
            .try_rescale(&ctx.try_mul(&cta, &ctb, &rlk).unwrap())
            .unwrap();
        assert_eq!(prod.level(), 2);
        let got = ctx.decode(&ctx.decrypt(&prod, &sk), 3);
        for i in 0..3 {
            assert!((got[i] - a[i] * b[i]).abs() < 1e-2, "{} vs {}", got[i], a[i] * b[i]);
        }
    }

    #[test]
    fn homomorphic_square() {
        let (ctx, sk, mut rng) = setup(3);
        let rlk = ctx.relin_keygen(&sk, KIND, &mut rng);
        let a = vec![1.5, -2.0, 0.25, 7.0];
        let ct = ctx.encrypt(&ctx.encode(&a, ctx.default_scale(), 3), &sk, &mut rng);
        let sq = ctx
            .try_rescale(&ctx.try_square(&ct, &rlk).unwrap())
            .unwrap();
        let got = ctx.decode(&ctx.decrypt(&sq, &sk), 4);
        for i in 0..4 {
            assert!((got[i] - a[i] * a[i]).abs() < 1e-2);
        }
    }

    #[test]
    fn multiplication_chain_consumes_levels() {
        // Scale must track the limb width for the scale to survive repeated
        // rescaling (standard CKKS practice: Δ ≈ q_i).
        let params = CkksParams::builder()
            .ring_degree(128)
            .levels(4)
            .special_limbs(4)
            .limb_bits(40)
            .scale_bits(40)
            .build()
            .unwrap();
        let ctx = CkksContext::new(params).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(123);
        let sk = ctx.keygen(&mut rng);
        let rlk = ctx.relin_keygen(&sk, KIND, &mut rng);
        let x = vec![1.1, 0.9, -1.05];
        let mut ct = ctx.encrypt(&ctx.encode(&x, ctx.default_scale(), 4), &sk, &mut rng);
        let mut expect: Vec<f64> = x.clone();
        for _ in 0..3 {
            ct = ctx
                .try_rescale(&ctx.try_square(&ct, &rlk).unwrap())
                .unwrap();
            for v in expect.iter_mut() {
                *v = *v * *v;
            }
        }
        assert_eq!(ct.level(), 1);
        let got = ctx.decode(&ctx.decrypt(&ct, &sk), 3);
        for i in 0..3 {
            assert!(
                (got[i] - expect[i]).abs() < 0.05,
                "{} vs {}",
                got[i],
                expect[i]
            );
        }
    }

    #[test]
    fn mul_plain_and_add_plain() {
        let (ctx, sk, mut rng) = setup(3);
        let a = vec![2.0, -3.0, 0.5];
        let w = vec![1.5, 2.0, -4.0];
        let c = vec![10.0, 20.0, 30.0];
        let ct = ctx.encrypt(&ctx.encode(&a, ctx.default_scale(), 3), &sk, &mut rng);
        let wp = ctx.encode(&w, ctx.default_scale(), 3);
        let prod = ctx
            .try_rescale(&ctx.try_mul_plain(&ct, &wp).unwrap())
            .unwrap();
        let cp = ctx.encode(&c, prod.scale(), prod.level());
        let res = ctx.try_add_plain(&prod, &cp).unwrap();
        let got = ctx.decode(&ctx.decrypt(&res, &sk), 3);
        for i in 0..3 {
            assert!((got[i] - (a[i] * w[i] + c[i])).abs() < 1e-2);
        }
    }

    #[test]
    fn rotation_moves_slots_left() {
        let (ctx, sk, mut rng) = setup(2);
        let slots = ctx.params().slots();
        let vals: Vec<f64> = (0..slots).map(|i| i as f64).collect();
        let rk = ctx.rotation_keygen(&sk, 1, KIND, &mut rng);
        let ct = ctx.encrypt(&ctx.encode(&vals, ctx.default_scale(), 2), &sk, &mut rng);
        let rot = ctx.try_rotate(&ct, 1, &rk).unwrap();
        let got = ctx.decode(&ctx.decrypt(&rot, &sk), slots);
        // Rotation by 1: slot i takes the value of slot i+1 (cyclically).
        for i in 0..slots {
            let expect = vals[(i + 1) % slots];
            assert!(
                (got[i] - expect).abs() < 1e-2,
                "slot {i}: {} vs {expect}",
                got[i]
            );
        }
    }

    #[test]
    fn conjugation_flips_imaginary_parts() {
        let (ctx, sk, mut rng) = setup(2);
        let vals = vec![
            cl_math::Complex::new(1.0, 2.0),
            cl_math::Complex::new(-3.0, 0.5),
        ];
        let ck = ctx.conjugation_keygen(&sk, KIND, &mut rng);
        let ct = ctx.encrypt(&ctx.encode_complex(&vals, ctx.default_scale(), 2), &sk, &mut rng);
        let conj = ctx.try_conjugate(&ct, &ck).unwrap();
        let got = ctx.decode_complex(&ctx.decrypt(&conj, &sk), 2);
        for (g, v) in got.iter().zip(&vals) {
            assert!((*g - v.conj()).abs() < 1e-2);
        }
    }

    #[test]
    fn mod_drop_preserves_value() {
        let (ctx, sk, mut rng) = setup(3);
        let vals = vec![5.0, -6.0];
        let ct = ctx.encrypt(&ctx.encode(&vals, ctx.default_scale(), 3), &sk, &mut rng);
        let dropped = ctx.try_mod_drop(&ct, 1).unwrap();
        assert_eq!(dropped.level(), 1);
        let got = ctx.decode(&ctx.decrypt(&dropped, &sk), 2);
        assert!((got[0] - 5.0).abs() < 1e-3);
        assert!((got[1] + 6.0).abs() < 1e-3);
    }

    #[test]
    fn mul_by_i_is_the_exact_monomial() {
        use cl_math::Complex;
        let (ctx, sk, mut rng) = setup(3);
        let vals = vec![
            Complex::new(1.0, 2.0),
            Complex::new(-3.0, 0.5),
            Complex::new(0.25, -1.0),
        ];
        let ct = ctx.encrypt(&ctx.encode_complex(&vals, ctx.default_scale(), 3), &sk, &mut rng);
        let out = ctx.try_mul_by_i(&ct).unwrap();
        assert_eq!(out.level(), ct.level());
        assert_eq!(out.scale(), ct.scale());
        assert_eq!(
            out.noise_estimate_bits().to_bits(),
            ct.noise_estimate_bits().to_bits()
        );
        // decrypt(out) = X^{N/2}·decrypt(in), coefficient for coefficient:
        // coefficient j moves to j + N/2, negated where it wraps.
        let rns = ctx.rns();
        let mut before = ctx.decrypt(&ct, &sk).poly().clone();
        let mut after = ctx.decrypt(&out, &sk).poly().clone();
        rns.from_ntt(&mut before);
        rns.from_ntt(&mut after);
        let n = ctx.params().ring_degree();
        for (k, &limb) in before.basis().0.iter().enumerate() {
            let q = rns.modulus_value(limb);
            for j in 0..n {
                let want = if j >= n / 2 {
                    before.limb(k)[j - n / 2]
                } else {
                    (q - before.limb(k)[j + n / 2]) % q
                };
                assert_eq!(after.limb(k)[j], want, "limb {k}, coefficient {j}");
            }
        }
        let got = ctx.decode_complex(&ctx.decrypt(&out, &sk), vals.len());
        for (g, v) in got.iter().zip(&vals) {
            assert!((*g - *v * Complex::new(0.0, 1.0)).abs() < 1e-3, "{g:?} vs i·{v:?}");
        }
        // Twice is negation, bit for bit.
        assert_eq!(
            ctx.try_mul_by_i(&out).unwrap(),
            ctx.try_neg_ct(&ct).unwrap()
        );
    }

    #[test]
    fn mul_by_i_passes_strict_where_a_plaintext_i_does_not() {
        use crate::GuardrailPolicy;
        use cl_math::Complex;
        let (mut ctx, sk, mut rng) = setup(3);
        let ct = ctx.encrypt(&ctx.encode(&[0.5, -0.25], ctx.default_scale(), 3), &sk, &mut rng);
        // The same monomial through the encoder at scale 1: an identical
        // payload, but `mul_plain` charges the plaintext's Δ/2 rounding.
        let i_pt = ctx.encode_complex(&vec![Complex::new(0.0, 1.0); ctx.params().slots()], 1.0, 3);
        let via_plain = ctx.try_mul_plain(&ct, &i_pt).unwrap();
        assert_eq!(via_plain, ctx.try_mul_by_i(&ct).unwrap());
        let budget = ctx.budget_bits(&ct);
        assert!(ctx.budget_bits(&via_plain) < budget - 1.0);
        // A real threshold: one bit under the fresh budget.
        ctx.set_policy(GuardrailPolicy::Strict {
            min_budget_bits: budget - 1.0,
        });
        let out = ctx.try_mul_by_i(&ct).expect("the exact monomial costs no budget");
        assert_eq!(ctx.budget_bits(&out), budget);
        assert!(matches!(
            ctx.try_mul_plain(&ct, &i_pt),
            Err(crate::FheError::BudgetExhausted { op: "mul_plain", .. })
        ));
    }

    #[test]
    fn rotations_with_standard_keyswitching_also_work() {
        let (ctx, sk, mut rng) = setup(3);
        let slots = ctx.params().slots();
        let vals: Vec<f64> = (0..slots).map(|i| (i % 5) as f64).collect();
        let rk = ctx.rotation_keygen(&sk, 2, KeySwitchKind::Standard, &mut rng);
        let ct = ctx.encrypt(&ctx.encode(&vals, ctx.default_scale(), 3), &sk, &mut rng);
        let rot = ctx.try_rotate(&ct, 2, &rk).unwrap();
        let got = ctx.decode(&ctx.decrypt(&rot, &sk), slots);
        for i in 0..slots {
            let expect = vals[(i + 2) % slots];
            assert!((got[i] - expect).abs() < 0.1, "slot {i}: {} vs {expect}", got[i]);
        }
    }

    #[test]
    fn hoisted_many_matches_naive_rotations() {
        let (ctx, sk, mut rng) = setup(3);
        let slots = ctx.params().slots();
        let vals: Vec<f64> = (0..slots).map(|i| (i as f64) * 0.5 - 3.0).collect();
        let steps = [1i64, -2, 5, 0];
        let ct = ctx.encrypt(&ctx.encode(&vals, ctx.default_scale(), 3), &sk, &mut rng);
        for kind in [KeySwitchKind::Standard, KIND] {
            let keys: Vec<_> = steps
                .iter()
                .map(|&s| ctx.rotation_keygen(&sk, s, kind, &mut rng))
                .collect();
            let key_refs: Vec<&crate::KeySwitchKey> = keys.iter().collect();
            let batch = ctx.try_rotate_hoisted_many(&ct, &steps, &key_refs).unwrap();
            assert_eq!(batch.len(), steps.len());
            for ((&s, key), hoisted) in steps.iter().zip(&keys).zip(&batch) {
                let naive = ctx.try_rotate(&ct, s, key).unwrap();
                assert_eq!(hoisted.c0(), naive.c0(), "{kind:?} step {s}: c0 differs");
                assert_eq!(hoisted.c1(), naive.c1(), "{kind:?} step {s}: c1 differs");
                assert_eq!(
                    hoisted.noise_estimate_bits(),
                    naive.noise_estimate_bits(),
                    "{kind:?} step {s}: noise estimate differs"
                );
            }
        }
    }

    #[test]
    fn hoisted_many_rejects_length_mismatch() {
        let (ctx, sk, mut rng) = setup(2);
        let key = ctx.rotation_keygen(&sk, 1, KIND, &mut rng);
        let ct = ctx.encrypt(&ctx.encode(&[1.0], ctx.default_scale(), 2), &sk, &mut rng);
        assert!(matches!(
            ctx.try_rotate_hoisted_many(&ct, &[1, 2], &[&key]),
            Err(crate::FheError::InvalidParams { op: "rotate_hoisted", .. })
        ));
    }

    #[test]
    fn rotate_sum_matches_sum_of_rotations() {
        let (ctx, sk, mut rng) = setup(3);
        let slots = ctx.params().slots();
        let vals: Vec<f64> = (0..slots).map(|i| ((i * 7 % 5) as f64) - 2.0).collect();
        let k1 = ctx.rotation_keygen(&sk, 1, KIND, &mut rng);
        let k3 = ctx.rotation_keygen(&sk, 3, KIND, &mut rng);
        let ct = ctx.encrypt(&ctx.encode(&vals, ctx.default_scale(), 3), &sk, &mut rng);
        let sum = ctx
            .try_rotate_sum(&[(&ct, 0, None), (&ct, 1, Some(&k1)), (&ct, 3, Some(&k3))])
            .unwrap();
        let got = ctx.decode(&ctx.decrypt(&sum, &sk), slots);
        for i in 0..slots {
            let expect = vals[i] + vals[(i + 1) % slots] + vals[(i + 3) % slots];
            assert!(
                (got[i] - expect).abs() < 1e-2,
                "slot {i}: {} vs {expect}",
                got[i]
            );
        }
    }

    #[test]
    fn rotate_sum_requires_key_for_nonzero_step() {
        let (ctx, sk, mut rng) = setup(2);
        let ct = ctx.encrypt(&ctx.encode(&[1.0], ctx.default_scale(), 2), &sk, &mut rng);
        match ctx.try_rotate_sum(&[(&ct, 2, None)]) {
            Err(crate::FheError::MissingKey { what }) => {
                assert!(what.contains("step 2"), "message: {what}");
            }
            other => panic!("expected MissingKey, got {other:?}"),
        }
    }

    /// `try_mul_plain_acc` against the two calls it fuses, the product on
    /// the left: the same sum (limbs, scale and noise estimate, bit for
    /// bit) or the same error, with `acc` untouched. Returns the reference
    /// outcome.
    fn check_mul_plain_acc(
        ctx: &CkksContext,
        acc: &Ciphertext,
        a: &Ciphertext,
        p: &Plaintext,
    ) -> FheResult<Ciphertext> {
        let reference = ctx.try_mul_plain(a, p).and_then(|t| ctx.try_add(&t, acc));
        let mut fused = acc.clone();
        let got = ctx.try_mul_plain_acc(&mut fused, a, p);
        match (&reference, got) {
            (Ok(want), Ok(())) => {
                assert_eq!(&fused, want, "limbs differ");
                assert_eq!(fused.scale().to_bits(), want.scale().to_bits(), "scale");
                assert_eq!(
                    fused.noise_estimate_bits().to_bits(),
                    want.noise_estimate_bits().to_bits(),
                    "noise estimate"
                );
            }
            (Err(want), Err(e)) => {
                assert_eq!(format!("{e:?}"), format!("{want:?}"), "error differs");
                assert_eq!(&fused, acc, "a failed accumulation must leave acc unchanged");
                assert_eq!(
                    fused.noise_estimate_bits().to_bits(),
                    acc.noise_estimate_bits().to_bits()
                );
            }
            (want, got) => panic!("reference {want:?} but fused {got:?}"),
        }
        reference
    }

    #[test]
    fn mul_plain_acc_matches_mul_plain_then_add() {
        use crate::{FheError, GuardrailPolicy};
        let (mut ctx, sk, mut rng) = setup(3);
        let scale = ctx.default_scale();
        let enc = |vals: &[f64], level, rng: &mut rand::rngs::StdRng| {
            ctx.encrypt(&ctx.encode(vals, scale, level), &sk, rng)
        };
        let a = enc(&[0.5, -1.25, 2.0], 3, &mut rng);
        let b = enc(&[1.5, 0.75, -0.5], 3, &mut rng);
        let a_low = enc(&[0.5], 2, &mut rng);
        let w = ctx.encode(&[0.25, 2.0, -1.0], scale, 3);
        let v = ctx.encode(&[-3.0, 0.5, 1.0], scale, 3);
        let w_low = ctx.encode(&[0.25], scale, 2);
        let w_wide = ctx.encode(&[0.25], scale * 2.0, 3);
        let acc = ctx.try_mul_plain(&b, &v).unwrap();
        let acc_low = ctx.try_mul_plain(&a_low, &w_low).unwrap();

        // A chain of accumulations, each step against the reference.
        let mut chain = acc.clone();
        for (ct, pt) in [(&a, &w), (&b, &w), (&a, &v)] {
            chain = check_mul_plain_acc(&ctx, &chain, ct, pt).expect("shapes agree");
        }
        // The plaintext's level differs from `a`'s: mul_plain's error.
        let e = check_mul_plain_acc(&ctx, &acc, &a, &w_low).unwrap_err();
        assert!(matches!(e, FheError::LevelMismatch { op: "mul_plain", .. }), "{e:?}");
        // The product's level differs from `acc`'s: add's error.
        let e = check_mul_plain_acc(&ctx, &acc_low, &a, &w).unwrap_err();
        assert!(matches!(e, FheError::LevelMismatch { op: "add", .. }), "{e:?}");
        // The product's scale differs from `acc`'s.
        let e = check_mul_plain_acc(&ctx, &acc, &a, &w_wide).unwrap_err();
        assert!(matches!(e, FheError::ScaleMismatch { op: "add", .. }), "{e:?}");

        ctx.set_policy(GuardrailPolicy::Strict {
            min_budget_bits: -1e9,
        });
        check_mul_plain_acc(&ctx, &acc, &a, &w).expect("clean operands pass Strict");
        // A residue at its modulus: caught on `a` by mul_plain, on `acc`
        // by add.
        let corrupt = |ct: &Ciphertext| {
            let mut bad = ct.clone();
            bad.c1.limb_mut(1)[5] = ctx.rns().modulus_value(1);
            bad
        };
        let e = check_mul_plain_acc(&ctx, &acc, &corrupt(&a), &w).unwrap_err();
        assert!(matches!(e, FheError::CorruptCiphertext { op: "mul_plain", .. }), "{e:?}");
        let e = check_mul_plain_acc(&ctx, &corrupt(&acc), &a, &w).unwrap_err();
        assert!(matches!(e, FheError::CorruptCiphertext { op: "add", .. }), "{e:?}");
        // A zero-scale plaintext: the product `try_add` would validate has
        // a scale that is not positive.
        let w_zero = ctx.encode(&[0.25], 0.0, 3);
        let e = check_mul_plain_acc(&ctx, &acc, &a, &w_zero).unwrap_err();
        assert!(matches!(e, FheError::CorruptCiphertext { op: "add", .. }), "{e:?}");

        // Budget exhaustion, once on the product and once on the sum: an
        // accumulator 20 bits noisier than the product puts the sum's
        // budget 20 bits under the product's.
        let product = ctx.try_mul_plain(&a, &w).unwrap();
        let noisy = acc.clone().with_noise_bits(product.noise_estimate_bits() + 20.0);
        let product_budget = ctx.budget_bits_signed(&product);
        let thresholds = [(product_budget + 1.0, "mul_plain"), (product_budget - 10.0, "add")];
        for (threshold, op) in thresholds {
            ctx.set_policy(GuardrailPolicy::Strict {
                min_budget_bits: threshold,
            });
            match check_mul_plain_acc(&ctx, &noisy, &a, &w) {
                Err(FheError::BudgetExhausted { op: got, .. }) => assert_eq!(got, op),
                other => panic!("expected BudgetExhausted from {op}, got {other:?}"),
            }
        }
    }

    /// A product and a running sum whose scales sit apart by less than
    /// [`SCALE_REL_TOLERANCE`](crate::context::SCALE_REL_TOLERANCE) add
    /// without error, and the sum takes the left operand's scale: the
    /// accumulate's result and errors are those of
    /// `try_add(&product, &sum)`, the order a compiled `AddSlot` runs, not
    /// those of `try_add(&sum, &product)`.
    #[test]
    fn mul_plain_acc_takes_the_products_scale_and_errors() {
        use crate::context::SCALE_REL_TOLERANCE;
        use crate::FheError;
        let (ctx, sk, mut rng) = setup(3);
        let scale = ctx.default_scale();
        let a = ctx.encrypt(&ctx.encode(&[0.5, -1.25], scale, 3), &sk, &mut rng);
        let b = ctx.encrypt(&ctx.encode(&[1.5, 0.75], scale, 3), &sk, &mut rng);
        let w = ctx.encode(&[0.25, 2.0], scale, 3);
        let product_scale = scale * scale;
        let nudge = 1.0 + SCALE_REL_TOLERANCE / 4.0;
        let apart = |mut sum: Ciphertext, factor: f64| {
            sum.scale *= factor;
            sum
        };
        let sum = apart(ctx.try_mul_plain(&b, &w).unwrap(), nudge);
        assert_ne!(sum.scale().to_bits(), product_scale.to_bits());

        let out = check_mul_plain_acc(&ctx, &sum, &a, &w).expect("within tolerance");
        assert_eq!(
            out.scale().to_bits(),
            product_scale.to_bits(),
            "the product's scale"
        );

        // Out of tolerance: `got` is the sum's scale, `want` the product's.
        let wide = apart(sum.clone(), 2.0);
        match check_mul_plain_acc(&ctx, &wide, &a, &w) {
            Err(FheError::ScaleMismatch {
                op: "add",
                got,
                want,
                ..
            }) => {
                assert_eq!(
                    got.to_bits(),
                    wide.scale().to_bits(),
                    "got: the sum's scale"
                );
                assert_eq!(
                    want.to_bits(),
                    product_scale.to_bits(),
                    "want: the product's"
                );
            }
            other => panic!("expected add's ScaleMismatch, got {other:?}"),
        }
        // Another level: `got` is the sum's level, `want` the product's.
        let low = ctx.encrypt(&ctx.encode(&[0.5], scale, 2), &sk, &mut rng);
        let w_low = ctx.encode(&[0.25], scale, 2);
        let sum_low = apart(ctx.try_mul_plain(&low, &w_low).unwrap(), nudge);
        match check_mul_plain_acc(&ctx, &sum_low, &a, &w) {
            Err(FheError::LevelMismatch {
                op: "add",
                got: 2,
                want: 3,
            }) => {}
            other => panic!("expected add's LevelMismatch from the sum's level, got {other:?}"),
        }
    }

    /// The rotate-sum as it was before its terms shared one extended-basis
    /// pair: a fresh pair per term from `apply_ext`, added into the first
    /// term's, and one closing ModDown.
    fn rotate_sum_reference(
        ctx: &CkksContext,
        terms: &[(&Ciphertext, i64, &crate::KeySwitchKey)],
    ) -> (RnsPoly, RnsPoly) {
        let rns = ctx.rns();
        let level = terms[0].0.level();
        let n = ctx.params().ring_degree();
        let mut base0 = rns.zero(&rns.q_basis(level));
        base0.set_ntt_form(true);
        let mut base1 = base0.clone();
        let mut ext: Option<(RnsPoly, RnsPoly)> = None;
        for &(ct, k, key) in terms {
            if k == 0 {
                rns.add_assign(&mut base0, &ct.c0);
                rns.add_assign(&mut base1, &ct.c1);
                continue;
            }
            let g = cl_math::galois_element_for_rotation(k, n);
            let dec = ctx.try_hoist(&ct.c1, key.kind()).unwrap();
            let (e0, e1) = dec.apply_ext(ctx, "rotate_sum", Some(g), key).unwrap();
            match &mut ext {
                None => ext = Some((e0, e1)),
                Some((a0, a1)) => {
                    rns.add_assign(a0, &e0);
                    rns.add_assign(a1, &e1);
                }
            }
            rns.add_assign(&mut base0, &rns.apply_automorphism(&ct.c0, g));
        }
        let (a0, a1) = ext.expect("at least one nonzero step");
        let (ks0, ks1) = ctx.mod_down_pair(level, terms[0].2.kind(), a0, a1);
        rns.add_assign(&mut base0, &ks0);
        rns.add_assign(&mut base1, &ks1);
        (base0, base1)
    }

    #[test]
    fn rotate_sum_matches_per_term_extended_pairs() {
        let (ctx, sk, mut rng) = setup(3);
        let slots = ctx.params().slots();
        let steps = [1i64, 0, -2, 5, 3];
        for kind in [KIND, KeySwitchKind::Standard] {
            let keys: Vec<_> = steps
                .iter()
                .map(|&s| ctx.rotation_keygen(&sk, s, kind, &mut rng))
                .collect();
            for level in [3, 2] {
                let cts: Vec<Ciphertext> = (0..steps.len())
                    .map(|t| {
                        let vals: Vec<f64> =
                            (0..slots).map(|i| ((i * 3 + t) % 7) as f64 - 3.0).collect();
                        ctx.encrypt(&ctx.encode(&vals, ctx.default_scale(), level), &sk, &mut rng)
                    })
                    .collect();
                let terms: Vec<(&Ciphertext, i64, &crate::KeySwitchKey)> = cts
                    .iter()
                    .zip(&steps)
                    .zip(&keys)
                    .map(|((ct, &s), key)| (ct, s, key))
                    .collect();
                let fused = ctx
                    .try_rotate_sum(
                        &terms.iter().map(|&(ct, s, key)| (ct, s, Some(key))).collect::<Vec<_>>(),
                    )
                    .unwrap();
                let (c0, c1) = rotate_sum_reference(&ctx, &terms);
                assert_eq!(fused.c0, c0, "{kind:?} level {level}: c0 differs");
                assert_eq!(fused.c1, c1, "{kind:?} level {level}: c1 differs");
                assert_eq!(fused.level(), level);
            }
        }
    }

    #[test]
    fn rotate_sum_rejects_mixed_kinds_before_touching_the_pair() {
        // The two kinds extend to different special bases (1 limb and 3),
        // so a term of the second kind reaching the shared pair would trip
        // the kernel's basis assertion instead of returning an error.
        let (ctx, sk, mut rng) = setup(3);
        let boosted = ctx.rotation_keygen(&sk, 1, KIND, &mut rng);
        let standard = ctx.rotation_keygen(&sk, 2, KeySwitchKind::Standard, &mut rng);
        let ct = ctx.encrypt(&ctx.encode(&[1.0], ctx.default_scale(), 3), &sk, &mut rng);
        for terms in [
            [(&ct, 1, Some(&boosted)), (&ct, 2, Some(&standard))],
            [(&ct, 2, Some(&standard)), (&ct, 1, Some(&boosted))],
        ] {
            match ctx.try_rotate_sum(&terms) {
                Err(crate::FheError::InvalidParams { op, reason }) => {
                    assert_eq!(op, "rotate_sum");
                    assert!(reason.contains("mixed keyswitch kinds"), "{reason}");
                }
                other => panic!("expected InvalidParams, got {other:?}"),
            }
        }
    }

    /// The rotate-sum as one serial loop in term order: each term's
    /// checks, then its hoist and hint product into one extended-basis
    /// pair and its `σ(c0)` into the sum, and one ModDown at the end. The
    /// two half-sums must reproduce its output bit for bit, its noise
    /// estimate, its first error and, where it fails, its op counts.
    fn serial_rotate_sum(
        ctx: &CkksContext,
        terms: &[(&Ciphertext, i64, Option<&KeySwitchKey>)],
    ) -> FheResult<Ciphertext> {
        const OP: &str = "rotate_sum";
        let rns = ctx.rns();
        let head = terms[0].0;
        let level = head.level;
        let mut base0 = rns.zero(&rns.q_basis(level));
        base0.set_ntt_form(true);
        let mut base1 = base0.clone();
        let mut noise = f64::NEG_INFINITY;
        let mut ext: Option<(RnsPoly, RnsPoly)> = None;
        let mut first: Option<&KeySwitchKey> = None;
        for &(ct, k, key) in terms {
            let kind = first.map(KeySwitchKey::kind);
            let Some(key) = ctx.check_rotate_sum_term(head, ct, k, key, kind)? else {
                rns.add_assign(&mut base0, &ct.c0);
                rns.add_assign(&mut base1, &ct.c1);
                noise = log2_add(noise, ct.noise_bits_est);
                continue;
            };
            first.get_or_insert(key);
            cl_trace::record_rotation();
            let g = cl_math::galois_element_for_rotation(k, ctx.params().ring_degree());
            let dec = ctx.hoist_impl(OP, &ct.c1, key.kind())?;
            let (acc0, acc1) = ext.get_or_insert_with(|| dec.zero_ext_pair(ctx));
            dec.apply_ext_into(ctx, OP, Some(g), key, acc0, acc1)?;
            rns.add_assign(&mut base0, &rns.apply_automorphism(&ct.c0, g));
            noise = log2_add(
                noise,
                log2_add(ct.noise_bits_est, ctx.est_keyswitch_bits(level, key)),
            );
        }
        if let (Some((acc0, acc1)), Some(key)) = (ext, first) {
            let (ks0, ks1) = ctx.mod_down_pair(level, key.kind(), acc0, acc1);
            rns.add_assign(&mut base0, &ks0);
            rns.add_assign(&mut base1, &ks1);
        }
        let out = Ciphertext {
            c0: base0,
            c1: base1,
            level,
            scale: head.scale,
            noise_bits_est: noise,
        };
        ctx.guard_budget(OP, &out)?;
        Ok(out)
    }

    /// Held by the tests that set the worker pool's thread count, a
    /// process-wide setting.
    static THREADS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Everything a ciphertext carries, bit for bit (its equality leaves
    /// out the noise estimate).
    fn ct_bits(ct: &Ciphertext) -> (RnsPoly, RnsPoly, usize, u64, u64) {
        (
            ct.c0.clone(),
            ct.c1.clone(),
            ct.level,
            ct.scale.to_bits(),
            ct.noise_bits_est.to_bits(),
        )
    }

    /// Seven terms at level 3, two of them step 0, with a rotation key per
    /// nonzero step.
    fn rotate_sum_terms(
        ctx: &CkksContext,
        sk: &SecretKey,
        rng: &mut rand::rngs::StdRng,
    ) -> (Vec<i64>, Vec<Ciphertext>, Vec<Option<KeySwitchKey>>) {
        let steps = vec![1i64, 0, -2, 5, 0, 3, 2];
        let slots = ctx.params().slots();
        let cts = (0..steps.len())
            .map(|t| {
                let vals: Vec<f64> = (0..slots)
                    .map(|i| ((i * 5 + t) % 9) as f64 / 4.0 - 1.0)
                    .collect();
                ctx.encrypt(&ctx.encode(&vals, ctx.default_scale(), 3), sk, rng)
            })
            .collect();
        let keys = steps
            .iter()
            .map(|&s| (s != 0).then(|| ctx.rotation_keygen(sk, s, KIND, rng)))
            .collect();
        (steps, cts, keys)
    }

    #[test]
    fn rotate_sum_halves_match_the_serial_sum() {
        let _held = THREADS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let previous = rayon::current_num_threads();
        let (ctx, sk, mut rng) = setup(3);
        let (steps, cts, keys) = rotate_sum_terms(&ctx, &sk, &mut rng);
        for len in 1..=steps.len() {
            let terms: Vec<_> = (0..len)
                .map(|t| (&cts[t], steps[t], keys[t].as_ref()))
                .collect();
            let want = ct_bits(&serial_rotate_sum(&ctx, &terms).unwrap());
            for threads in [1, 2] {
                rayon::set_num_threads(threads);
                let got = ct_bits(&ctx.try_rotate_sum(&terms).unwrap());
                assert_eq!(got, want, "{len} terms at {threads} threads");
            }
        }
        rayon::set_num_threads(previous);
    }

    /// A corrupt hint at the first term of the second half (the fourth of
    /// five nonzero steps), and a missing key at its last term: at two
    /// threads the rotate-sum fails with the serial run's error; at one
    /// thread it also stops where the serial run stops, with its op counts
    /// and hint digests (the terms before the failure ran, none after it).
    #[test]
    fn a_failure_in_the_second_half_is_the_serial_runs() {
        let _held = THREADS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let previous = rayon::current_num_threads();
        let (ctx, sk, mut rng) = setup(3);
        let (steps, cts, mut keys) = rotate_sum_terms(&ctx, &sk, &mut rng);
        let corrupt = {
            let mut keys = keys.clone();
            let key = keys[5].as_mut().expect("step 3 has a key");
            crate::faults::corrupt_hint_word(key, 0, 0, 1, 7);
            keys
        };
        keys[6] = None;
        for (case, keys) in [("corrupt hint", &corrupt), ("missing key", &keys)] {
            let terms: Vec<_> = (0..steps.len())
                .map(|t| (&cts[t], steps[t], keys[t].as_ref()))
                .collect();
            let counted = |f: &dyn Fn() -> FheResult<Ciphertext>| {
                let (ops, digests) = (cl_trace::OpSnapshot::capture(), cl_trace::hint_digests());
                let err = f().expect_err("the sum fails");
                (
                    err.to_string(),
                    cl_trace::OpSnapshot::capture().delta_since(&ops),
                    cl_trace::hint_digests() - digests,
                )
            };
            let serial = counted(&|| serial_rotate_sum(&ctx, &terms));
            rayon::set_num_threads(2);
            let fanned = counted(&|| ctx.try_rotate_sum(&terms));
            rayon::set_num_threads(1);
            let inline = counted(&|| ctx.try_rotate_sum(&terms));
            assert_eq!(fanned.0, serial.0, "{case}: two threads");
            assert_eq!(inline, serial, "{case}: one thread");
        }
        rayon::set_num_threads(previous);
    }

    // ------------------------------------------------------------------
    // Error paths of the fallible API
    // ------------------------------------------------------------------

    #[test]
    fn try_add_reports_level_mismatch() {
        let (ctx, sk, mut rng) = setup(3);
        let a = ctx.encrypt(&ctx.encode(&[1.0], ctx.default_scale(), 3), &sk, &mut rng);
        let b = ctx.encrypt(&ctx.encode(&[1.0], ctx.default_scale(), 2), &sk, &mut rng);
        match ctx.try_add(&a, &b) {
            Err(crate::FheError::LevelMismatch { op, got, want }) => {
                assert_eq!(op, "add");
                assert_eq!((got, want), (2, 3));
            }
            other => panic!("expected LevelMismatch, got {other:?}"),
        }
    }

    #[test]
    fn try_add_reports_scale_mismatch() {
        let (ctx, sk, mut rng) = setup(2);
        let a = ctx.encrypt(&ctx.encode(&[1.0], ctx.default_scale(), 2), &sk, &mut rng);
        let b = ctx.encrypt(&ctx.encode(&[1.0], ctx.default_scale() * 2.0, 2), &sk, &mut rng);
        match ctx.try_add(&a, &b) {
            Err(crate::FheError::ScaleMismatch { rel, .. }) => {
                assert!(rel > 0.4, "relative deviation {rel}");
            }
            other => panic!("expected ScaleMismatch, got {other:?}"),
        }
    }

    #[test]
    fn try_add_plain_reports_scale_drift_beyond_tolerance() {
        // A 1e-4 relative deviation fails the 1e-6 tolerance; a 1e-8 one
        // passes.
        let (ctx, sk, mut rng) = setup(2);
        let scale = ctx.default_scale();
        let ct = ctx.encrypt(&ctx.encode(&[1.0], scale, 2), &sk, &mut rng);
        let p = ctx.encode(&[1.0], scale * (1.0 + 1e-4), 2);
        match ctx.try_add_plain(&ct, &p) {
            Err(crate::FheError::ScaleMismatch { got, want, rel, .. }) => {
                assert!((got / want - 1.0).abs() < 1e-3);
                assert!(rel > 5e-5 && rel < 2e-4, "rel {rel}");
            }
            other => panic!("expected ScaleMismatch, got {other:?}"),
        }
        let close = ctx.encode(&[1.0], scale * (1.0 + 1e-8), 2);
        assert!(ctx.try_add_plain(&ct, &close).is_ok());
    }

    #[test]
    fn try_mul_reports_level_mismatch() {
        let (ctx, sk, mut rng) = setup(3);
        let rlk = ctx.relin_keygen(&sk, KIND, &mut rng);
        let a = ctx.encrypt(&ctx.encode(&[1.0], ctx.default_scale(), 3), &sk, &mut rng);
        let b = ctx.encrypt(&ctx.encode(&[1.0], ctx.default_scale(), 2), &sk, &mut rng);
        assert!(matches!(
            ctx.try_mul(&a, &b, &rlk),
            Err(crate::FheError::LevelMismatch { op: "mul", .. })
        ));
    }

    #[test]
    fn try_rescale_and_mod_drop_report_invalid_params() {
        let (ctx, sk, mut rng) = setup(2);
        let ct = ctx.encrypt(&ctx.encode(&[1.0], ctx.default_scale(), 1), &sk, &mut rng);
        assert!(matches!(
            ctx.try_rescale(&ct),
            Err(crate::FheError::InvalidParams { op: "rescale", .. })
        ));
        assert!(matches!(
            ctx.try_mod_drop(&ct, 0),
            Err(crate::FheError::InvalidParams { op: "mod_drop", .. })
        ));
        assert!(matches!(
            ctx.try_mod_drop(&ct, 2),
            Err(crate::FheError::InvalidParams { op: "mod_drop", .. })
        ));
    }

    #[test]
    fn strict_policy_flags_budget_exhaustion() {
        use crate::GuardrailPolicy;
        let (mut ctx, sk, mut rng) = setup(3);
        ctx.set_policy(GuardrailPolicy::Strict { min_budget_bits: 0.0 });
        let rlk = ctx.relin_keygen(&sk, KIND, &mut rng);
        let ct = ctx.encrypt(&ctx.encode(&[0.9], ctx.default_scale(), 3), &sk, &mut rng);
        // Squaring without rescaling squares the scale each time; the
        // estimated budget collapses and a 0-bit floor reports it
        // before the result decrypts to garbage.
        let once = ctx.try_square(&ct, &rlk).expect("one un-rescaled square fits");
        match ctx.try_square(&once, &rlk) {
            Err(crate::FheError::BudgetExhausted { op, budget_bits, .. }) => {
                assert_eq!(op, "square");
                assert!(budget_bits < 0.0, "budget {budget_bits} should be negative");
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
    }
}

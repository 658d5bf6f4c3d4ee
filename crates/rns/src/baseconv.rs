//! Fast RNS base conversion — `changeRNSBase()` of Listing 1.
//!
//! Boosted keyswitching (Sec. 3) is dominated by conversions of residue
//! polynomials between RNS bases: expanding the `L`-limb input to `2L` limbs
//! (`ModUp`) and shrinking the product back (`ModDown`). In hardware this is
//! the CRB functional unit's job; here we implement the arithmetic it
//! performs, in two flavors:
//!
//! - [`BaseConverter::convert`]: the *approximate* (floor) conversion used
//!   for `ModUp`, which may be off by a small multiple of the source modulus
//!   `Q` — harmless there, because the extra `alpha*Q` term is annihilated
//!   by the subsequent `ModDown`-by-`P` up to a small noise term.
//! - [`BaseConverter::convert_exact`]: the corrected conversion (with the
//!   floating-point `alpha` estimate of [Halevi-Polyakov-Shoup]) used for
//!   `ModDown` and rescaling, where the result must be the centered value.

use cl_math::BigUint;
use rayon::prelude::*;

use crate::scratch::with_scratch;
use crate::{Basis, RnsContext, RnsPoly};

/// Precomputed constants for converting polynomials from one RNS basis to
/// another (disjoint or overlapping is irrelevant — the destination is
/// computed fresh).
///
/// # Example
///
/// ```
/// use cl_rns::{BaseConverter, RnsContext};
/// let ctx = RnsContext::generate(16, 2, 2, 28).unwrap();
/// let conv = BaseConverter::new(&ctx, ctx.q_basis(2), ctx.p_basis(2));
/// let x = ctx.from_signed_coeffs(&vec![42; 16], &ctx.q_basis(2));
/// let y = conv.convert_exact(&ctx, &x);
/// // 42 is tiny, so the converted value is exactly 42 in the new basis.
/// assert_eq!(y.limb(0)[0], 42);
/// ```
#[derive(Debug)]
pub struct BaseConverter {
    src: Basis,
    dst: Basis,
    /// `[(Q/q_i)^{-1}]_{q_i}` for each source limb.
    inv_punctured: Vec<u64>,
    /// Shoup companions of `inv_punctured` (w.r.t. `q_i`).
    inv_punctured_shoup: Vec<u64>,
    /// `(Q/q_i) mod b_j`, indexed `[i][j]`.
    punctured_mod_dst: Vec<Vec<u64>>,
    /// Shoup companions of `punctured_mod_dst` (w.r.t. `b_j`).
    punctured_shoup_dst: Vec<Vec<u64>>,
    /// `Q mod b_j` for the alpha correction.
    q_mod_dst: Vec<u64>,
    /// Shoup companions of `q_mod_dst` (w.r.t. `b_j`).
    q_mod_dst_shoup: Vec<u64>,
    /// `[Q^{-1}]_{b_j}` — the source-product inverse `ModDown` multiplies by.
    inv_q_mod_dst: Vec<u64>,
    /// `1/q_i` as f64 for the alpha estimate.
    inv_q_f64: Vec<f64>,
}

impl BaseConverter {
    /// Precomputes conversion constants from `src` to `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `src` is empty.
    pub fn new(ctx: &RnsContext, src: Basis, dst: Basis) -> Self {
        assert!(!src.is_empty(), "source basis must be nonempty");
        let src_moduli: Vec<u64> = src.0.iter().map(|&l| ctx.modulus_value(l)).collect();
        let q_big = BigUint::product(&src_moduli);
        let mut inv_punctured = Vec::with_capacity(src.len());
        let mut inv_punctured_shoup = Vec::with_capacity(src.len());
        let mut punctured_mod_dst: Vec<Vec<u64>> = Vec::with_capacity(src.len());
        let mut punctured_shoup_dst = Vec::with_capacity(src.len());
        for (i, &qi) in src_moduli.iter().enumerate() {
            let (qi_hat, rem) = q_big.div_rem_u64(qi);
            debug_assert_eq!(rem, 0);
            let m = ctx.modulus(src.0[i]);
            let inv = m.inv(qi_hat.rem_u64(qi));
            inv_punctured.push(inv);
            inv_punctured_shoup.push(m.shoup_precompute(inv));
            punctured_mod_dst.push(
                dst.0
                    .iter()
                    .map(|&l| qi_hat.rem_u64(ctx.modulus_value(l)))
                    .collect(),
            );
            punctured_shoup_dst.push(
                dst.0
                    .iter()
                    .zip(punctured_mod_dst[i].iter())
                    .map(|(&l, &w)| ctx.modulus(l).shoup_precompute(w))
                    .collect(),
            );
        }
        let q_mod_dst: Vec<u64> = dst
            .0
            .iter()
            .map(|&l| q_big.rem_u64(ctx.modulus_value(l)))
            .collect();
        let q_mod_dst_shoup: Vec<u64> = dst
            .0
            .iter()
            .zip(&q_mod_dst)
            .map(|(&l, &w)| ctx.modulus(l).shoup_precompute(w))
            .collect();
        // When the bases are disjoint (the only configuration ModDown uses),
        // Q is coprime to every destination modulus and the inverse exists;
        // an overlapping destination limb divides Q, recorded as 0.
        let inv_q_mod_dst = dst
            .0
            .iter()
            .zip(&q_mod_dst)
            .map(|(&l, &qm)| if qm == 0 { 0 } else { ctx.modulus(l).inv(qm) })
            .collect();
        let inv_q_f64 = src_moduli.iter().map(|&q| 1.0 / q as f64).collect();
        Self {
            src,
            dst,
            inv_punctured,
            inv_punctured_shoup,
            punctured_mod_dst,
            punctured_shoup_dst,
            q_mod_dst,
            q_mod_dst_shoup,
            inv_q_mod_dst,
            inv_q_f64,
        }
    }

    /// The source basis.
    pub fn src_basis(&self) -> &Basis {
        &self.src
    }

    /// The destination basis.
    pub fn dst_basis(&self) -> &Basis {
        &self.dst
    }

    /// `[Q^{-1}]_{b_j}` per destination limb (`Q` the source-basis product),
    /// or 0 where a destination limb divides `Q`. Precomputed so `ModDown`
    /// does not re-derive the inverses by modular exponentiation per call.
    pub fn src_prod_inv_mod_dst(&self) -> &[u64] {
        &self.inv_q_mod_dst
    }

    fn convert_inner(&self, ctx: &RnsContext, poly: &RnsPoly, exact: bool) -> RnsPoly {
        assert_eq!(poly.basis(), &self.src, "polynomial not in source basis");
        assert!(
            !poly.ntt_form(),
            "base conversion operates in the coefficient domain"
        );
        let n = poly.n();
        let l_src = self.src.len();
        let l_dst = self.dst.len();
        // The y-scaling pass is an element-wise mult per source limb; the
        // inner-product matrix is the CRB unit's workload (one pass per
        // (src, dst) limb pair); the exact correction is a fused mult+sub
        // per destination limb.
        cl_trace::record_mult(l_src as u64, n);
        cl_trace::record_base_conv((l_src * l_dst) as u64, n);
        if exact {
            cl_trace::record_mult(l_dst as u64, n);
            cl_trace::record_add(l_dst as u64, n);
        }
        // Both temporaries come from the thread-local scratch pool: the
        // punctured-product matrix `y` and the alpha row are the allocation
        // hot spots of every keyswitch and rescale. Operand bounds of the
        // Shoup kernels: `poly`'s limbs are canonical (below 4q_i), each
        // `y_i` is canonical mod q_i (the bound passed below), and alpha is at
        // most l_src (below 4b_j for any destination modulus b_j >= 17).
        with_scratch(l_src * n, |y| {
            // y_i = [x_i * (Q/q_i)^{-1}]_{q_i}, one task per source limb.
            y.par_chunks_mut(n).enumerate().for_each(|(i, yi)| {
                let m = ctx.modulus(self.src.0[i]);
                yi.copy_from_slice(poly.limb(i));
                m.mul_scalar_shoup_slice(yi, self.inv_punctured[i], self.inv_punctured_shoup[i]);
            });
            let y = &*y;
            with_scratch(if exact { n } else { 0 }, |alpha| {
                // alpha_c estimate (how many multiples of Q the floor sum
                // overshoots by), via the Halevi-Polyakov-Shoup float trick.
                if exact {
                    for (c, a) in alpha.iter_mut().enumerate() {
                        let mut v = 0.0f64;
                        for i in 0..l_src {
                            v += y[i * n + c] as f64 * self.inv_q_f64[i];
                        }
                        *a = (v + 0.5).floor() as u64;
                    }
                }
                let alpha = &*alpha;
                let mut out = RnsPoly::zero(n, self.dst.clone());
                {
                    // One task per destination limb: the O(L_src * L_dst * n)
                    // inner-product matrix is the dominant cost (the CRB
                    // unit's workload).
                    let (dst_basis, coeffs) = out.parts_mut();
                    let dst_limbs = &dst_basis.0;
                    coeffs.par_chunks_mut(n).enumerate().for_each(|(j, out_limb)| {
                        let m = ctx.modulus(dst_limbs[j]);
                        // Shoup-lazy accumulation keeps the running sum in
                        // [0, 2q) across all source limbs; a single fused
                        // corrective pass canonicalizes at the end (and
                        // subtracts the alpha*Q term on the exact path)
                        // instead of reducing per term.
                        for i in 0..l_src {
                            m.mul_shoup_lazy_acc_slice(
                                out_limb,
                                &y[i * n..(i + 1) * n],
                                ctx.modulus_value(self.src.0[i]),
                                self.punctured_mod_dst[i][j],
                                self.punctured_shoup_dst[i][j],
                            );
                        }
                        if exact {
                            m.mul_shoup_sub_correct_slice(
                                out_limb,
                                alpha,
                                self.q_mod_dst[j],
                                self.q_mod_dst_shoup[j],
                            );
                        } else {
                            m.correct_lazy_slice(out_limb);
                        }
                    });
                }
                out
            })
        })
    }

    /// Approximate fast base conversion (the CRB operation): the result
    /// represents `x + alpha*Q` for some small `alpha in [0, L)`.
    ///
    /// # Panics
    ///
    /// Panics if `poly` is not in the source basis or is in NTT form.
    pub fn convert(&self, ctx: &RnsContext, poly: &RnsPoly) -> RnsPoly {
        self.convert_inner(ctx, poly, false)
    }

    /// Exact base conversion of the *centered* value: for
    /// `|x|_centered < Q/2 (1 - eps)` the result is exactly `x` in the new
    /// basis.
    ///
    /// # Panics
    ///
    /// Panics if `poly` is not in the source basis or is in NTT form.
    pub fn convert_exact(&self, ctx: &RnsContext, poly: &RnsPoly) -> RnsPoly {
        self.convert_inner(ctx, poly, true)
    }

    /// Number of scalar multiplications one conversion performs per
    /// coefficient: `L_src` (for `y`) plus `L_src * L_dst` (the matrix);
    /// this is the `3L^2`-type term of Table 1.
    pub fn scalar_muls_per_coeff(&self) -> usize {
        self.src.len() + self.src.len() * self.dst.len()
    }
}

/// Divides a polynomial over basis `Q ∪ P` by `P = prod(p_basis)` with
/// rounding, returning the result over `q_basis` (the `ModDown` of boosted
/// keyswitching). Operates in the coefficient domain.
///
/// The result differs from the true rounded quotient by at most 1 in each
/// coefficient (the standard fast-base-conversion bound).
///
/// # Panics
///
/// Panics if `poly`'s basis is not exactly `q_basis ∪ p_basis`, or if the
/// polynomial is in NTT form.
pub fn mod_down(
    ctx: &RnsContext,
    poly: &RnsPoly,
    q_basis: &Basis,
    p_basis: &Basis,
    conv_p_to_q: &BaseConverter,
) -> RnsPoly {
    assert!(!poly.ntt_form(), "mod_down operates in the coefficient domain");
    assert_eq!(poly.basis(), &q_basis.union(p_basis), "basis mismatch");
    assert_eq!(conv_p_to_q.src_basis(), p_basis);
    assert_eq!(conv_p_to_q.dst_basis(), q_basis);
    // c mod P, converted to base Q (centered representative).
    let c_p = ctx.restrict(poly, p_basis);
    let c_p_in_q = conv_p_to_q.convert_exact(ctx, &c_p);
    let mut diff = ctx.restrict(poly, q_basis);
    ctx.sub_assign(&mut diff, &c_p_in_q);
    // Multiply by P^{-1} mod each q_j (precomputed by the converter).
    ctx.scalar_mul_per_limb_assign(&mut diff, conv_p_to_q.src_prod_inv_mod_dst());
    diff
}

/// NTT-domain [`mod_down`]: same arithmetic, bit-for-bit, but takes and
/// returns NTT-form polynomials. Only the `P` limbs are transformed down to
/// the coefficient domain (the exact conversion needs true coefficients)
/// and only the converted `Q`-limb correction is transformed back up, so
/// the full-width inverse NTT over `Q ∪ P` that the coefficient path pays
/// per accumulator disappears: `|P|` inverse + `|Q|` forward NTTs instead
/// of `|Q|+|P|` inverse + `|Q|` forward.
///
/// Bit-exactness with `to_ntt(mod_down(from_ntt(x)))` follows from the NTT
/// being a `Z_q`-linear bijection: subtraction and the per-limb scalar
/// multiplication by `P^{-1}` commute with it exactly.
///
/// # Panics
///
/// Panics if `poly`'s basis is not exactly `q_basis ∪ p_basis`, or if the
/// polynomial is not in NTT form.
pub fn mod_down_ntt(
    ctx: &RnsContext,
    poly: &RnsPoly,
    q_basis: &Basis,
    p_basis: &Basis,
    conv_p_to_q: &BaseConverter,
) -> RnsPoly {
    assert!(poly.ntt_form(), "mod_down_ntt operates in the NTT domain");
    assert_eq!(poly.basis(), &q_basis.union(p_basis), "basis mismatch");
    assert_eq!(conv_p_to_q.src_basis(), p_basis);
    assert_eq!(conv_p_to_q.dst_basis(), q_basis);
    let mut c_p = ctx.restrict(poly, p_basis);
    ctx.from_ntt(&mut c_p);
    let mut c_p_in_q = conv_p_to_q.convert_exact(ctx, &c_p);
    ctx.to_ntt(&mut c_p_in_q);
    let mut diff = ctx.restrict(poly, q_basis);
    ctx.sub_assign(&mut diff, &c_p_in_q);
    ctx.scalar_mul_per_limb_assign(&mut diff, conv_p_to_q.src_prod_inv_mod_dst());
    diff
}

/// Rescales a polynomial: divides by its last limb's modulus with rounding
/// and drops that limb (the CKKS rescale of Sec. 2.3). Coefficient domain.
///
/// # Panics
///
/// Panics if the polynomial has fewer than 2 limbs or is in NTT form.
pub fn rescale(ctx: &RnsContext, poly: &RnsPoly) -> RnsPoly {
    assert!(poly.num_limbs() >= 2, "cannot rescale a 1-limb polynomial");
    let basis = poly.basis();
    let keep = Basis(basis.0[..basis.len() - 1].to_vec());
    let drop = Basis(vec![basis.0[basis.len() - 1]]);
    let conv = BaseConverter::new(ctx, drop.clone(), keep.clone());
    mod_down(ctx, poly, &keep, &drop, &conv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cl_math::BigUint;
    use rand::{Rng, SeedableRng};

    fn ctx() -> RnsContext {
        RnsContext::generate(8, 3, 3, 28).unwrap()
    }

    /// Reconstructs coefficient `c` of `poly` as an exact integer.
    fn coeff_big(ctx: &RnsContext, poly: &RnsPoly, c: usize) -> BigUint {
        let residues: Vec<u64> = (0..poly.num_limbs()).map(|k| poly.limb(k)[c]).collect();
        let moduli: Vec<u64> = poly.basis().0.iter().map(|&l| ctx.modulus_value(l)).collect();
        BigUint::crt_combine(&residues, &moduli)
    }

    #[test]
    fn exact_conversion_matches_crt() {
        let c = ctx();
        let src = c.q_basis(3);
        let dst = c.p_basis(3);
        let conv = BaseConverter::new(&c, src.clone(), dst);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        // Keep |x| < Q/4 so the centered conversion is exact.
        let signed: Vec<i64> = (0..8).map(|_| rng.gen_range(-(1i64 << 40)..(1i64 << 40))).collect();
        let x = c.from_signed_coeffs(&signed, &src);
        let y = conv.convert_exact(&c, &x);
        for i in 0..8 {
            for (k, &limb) in y.basis().0.iter().enumerate() {
                let m = c.modulus(limb);
                assert_eq!(
                    y.limb(k)[i],
                    m.from_i64(signed[i]),
                    "coefficient {i}, limb {limb}"
                );
            }
        }
    }

    #[test]
    fn approximate_conversion_off_by_multiple_of_q() {
        let c = ctx();
        let src = c.q_basis(3);
        let dst = c.p_basis(2);
        let conv = BaseConverter::new(&c, src.clone(), dst.clone());
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let x = {
            let mut p = c.sample_uniform(&src, &mut rng);
            p.set_ntt_form(false);
            p
        };
        let y = conv.convert(&c, &x);
        let src_moduli: Vec<u64> = src.0.iter().map(|&l| c.modulus_value(l)).collect();
        let q_big = BigUint::product(&src_moduli);
        for i in 0..8 {
            let true_x = coeff_big(&c, &x, i);
            for (k, &limb) in dst.0.iter().enumerate() {
                let b = c.modulus_value(limb);
                let got = y.limb(k)[i];
                // got ≡ x + alpha*Q (mod b) for some alpha in [0, L).
                let mut ok = false;
                let mut cand = true_x.clone();
                for _ in 0..src.len() + 1 {
                    if cand.rem_u64(b) == got {
                        ok = true;
                        break;
                    }
                    cand.add_assign(&q_big);
                }
                assert!(ok, "coefficient {i} limb {limb} not within alpha*Q");
            }
        }
    }

    #[test]
    fn mod_down_is_rounded_division() {
        let c = ctx();
        let qb = c.q_basis(2);
        let pb = c.p_basis(2);
        let full = qb.union(&pb);
        let conv = BaseConverter::new(&c, pb.clone(), qb.clone());
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut x = c.sample_uniform(&full, &mut rng);
        x.set_ntt_form(false);
        let y = mod_down(&c, &x, &qb, &pb, &conv);
        let p_moduli: Vec<u64> = pb.0.iter().map(|&l| c.modulus_value(l)).collect();
        let p_big = BigUint::product(&p_moduli);
        let q_moduli: Vec<u64> = qb.0.iter().map(|&l| c.modulus_value(l)).collect();
        let q_big = BigUint::product(&q_moduli);
        let qp_big = {
            let mut t = q_big.clone();
            t = p_moduli.iter().fold(t, |acc, &p| acc.mul_u64(p));
            t
        };
        for i in 0..8 {
            let true_x = coeff_big(&c, &x, i);
            // Centered value of x over QP.
            let (neg, mag) = true_x.centered(&qp_big);
            // floor-division of the magnitude, sign-adjusted (within ±1 is accepted).
            let (q_mag, _r) = {
                // mag / P via repeated div by each p (exact division not needed: do bigint / u64 chain)
                let mut quot = mag.clone();
                let mut rem_nonzero = false;
                for &p in &p_moduli {
                    let (q2, r2) = quot.div_rem_u64(p);
                    quot = q2;
                    rem_nonzero |= r2 != 0;
                }
                (quot, rem_nonzero)
            };
            for (k, &limb) in qb.0.iter().enumerate() {
                let m = c.modulus(limb);
                let got = y.limb(k)[i];
                // Expected residue of the (sign-adjusted) quotient mod q_j.
                let mag_res = q_mag.rem_u64(m.value());
                let expect = if neg { m.neg(mag_res) } else { mag_res };
                // Allow |difference| <= 1 (floor vs round, conversion bound).
                let ok = got == expect
                    || got == m.add(expect, 1)
                    || got == m.sub(expect, 1);
                assert!(ok, "coefficient {i} limb {limb}: got {got}, expect ~{expect}");
            }
        }
    }

    #[test]
    fn mod_down_ntt_matches_coefficient_path() {
        let c = ctx();
        let qb = c.q_basis(3);
        let pb = c.p_basis(2);
        let full = qb.union(&pb);
        let conv = BaseConverter::new(&c, pb.clone(), qb.clone());
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let x_ntt = c.sample_uniform(&full, &mut rng);
        let mut x_coeff = x_ntt.clone();
        c.from_ntt(&mut x_coeff);
        let mut expect = mod_down(&c, &x_coeff, &qb, &pb, &conv);
        c.to_ntt(&mut expect);
        let got = mod_down_ntt(&c, &x_ntt, &qb, &pb, &conv);
        assert!(got.ntt_form());
        assert_eq!(got, expect, "NTT-domain ModDown must be bit-exact");
    }

    #[test]
    fn rescale_divides_small_values() {
        let c = ctx();
        let basis = c.q_basis(3);
        let q_last = c.modulus_value(2);
        // x = q_last * 7: rescale must give exactly 7.
        let signed: Vec<i64> = vec![7 * q_last as i64; 8];
        let x = c.from_signed_coeffs(&signed, &basis);
        let y = rescale(&c, &x);
        assert_eq!(y.num_limbs(), 2);
        for k in 0..2 {
            let m = c.modulus(y.basis().0[k]);
            for &v in y.limb(k) {
                assert_eq!(m.lift_centered(v), 7);
            }
        }
    }

    #[test]
    fn scalar_muls_formula() {
        let c = ctx();
        let conv = BaseConverter::new(&c, c.q_basis(3), c.p_basis(3));
        assert_eq!(conv.scalar_muls_per_coeff(), 3 + 9);
    }
}

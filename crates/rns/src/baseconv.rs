//! Fast RNS base conversion — `changeRNSBase()` of Listing 1.
//!
//! Boosted keyswitching (Sec. 3) is dominated by conversions of residue
//! polynomials between RNS bases: expanding the `L`-limb input to `2L` limbs
//! (`ModUp`) and shrinking the product back (`ModDown`). In hardware this is
//! the CRB functional unit's job: it streams each input residue in once and
//! keeps the partial sums inside the unit. Here the same shape is one product
//! kernel ([`cl_math::BaseConvTable`]) that reads each source limb once per
//! block of coefficients, accumulates every destination word in registers
//! and reduces and stores it once, in two flavors:
//!
//! - [`BaseConverter::convert`]: the *approximate* (floor) conversion used
//!   for `ModUp`, which may be off by a small multiple of the source modulus
//!   `Q` — harmless there, because the extra `alpha*Q` term is annihilated
//!   by the subsequent `ModDown`-by-`P` up to a small noise term.
//! - [`BaseConverter::convert_exact`]: the corrected conversion (with the
//!   floating-point `alpha` estimate of [Halevi-Polyakov-Shoup]) used for
//!   `ModDown` and rescaling, where the result must be the centered value.
//!   The `alpha*[−Q]` correction is one more term of the same sum.

use cl_math::{BaseConvTable, BigUint};

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
    /// The kernel's constants: the destination-major `[Q/q_i]_{b_j}`
    /// matrix, `[−Q]_{b_j}` and the reduction constants.
    table: BaseConvTable,
    /// `[Q^{-1}]_{b_j}` — the source-product inverse `ModDown` multiplies by.
    inv_q_mod_dst: Vec<u64>,
}

impl BaseConverter {
    /// Precomputes conversion constants from `src` to `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `src` is empty, or if either basis has more than 64 limbs
    /// (see [`BaseConvTable::new`]).
    pub fn new(ctx: &RnsContext, src: Basis, dst: Basis) -> Self {
        assert!(!src.is_empty(), "source basis must be nonempty");
        let src_moduli: Vec<_> = src.0.iter().map(|&l| *ctx.modulus(l)).collect();
        let dst_moduli: Vec<_> = dst.0.iter().map(|&l| *ctx.modulus(l)).collect();
        let q_big = BigUint::product(&src.0.iter().map(|&l| ctx.modulus_value(l)).collect::<Vec<_>>());
        // When the bases are disjoint (the only configuration ModDown uses),
        // Q is coprime to every destination modulus and the inverse exists;
        // an overlapping destination limb divides Q, recorded as 0.
        let inv_q_mod_dst = dst_moduli
            .iter()
            .map(|m| match q_big.rem_u64(m.value()) {
                0 => 0,
                qm => m.inv(qm),
            })
            .collect();
        Self {
            table: BaseConvTable::new(&src_moduli, &dst_moduli),
            src,
            dst,
            inv_q_mod_dst,
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
        self.check_source(ctx, poly);
        self.convert_slab(ctx, poly.coeffs(), exact)
    }

    fn check_source(&self, ctx: &RnsContext, poly: &RnsPoly) {
        assert_eq!(poly.basis(), &self.src, "polynomial not in source basis");
        assert_eq!(poly.n(), ctx.n(), "polynomial not of the context's ring degree");
        assert!(
            !poly.ntt_form(),
            "base conversion operates in the coefficient domain"
        );
    }

    /// The conversion of a bare limb-major source slab (coefficient form,
    /// source-basis order) as a fresh polynomial.
    fn convert_slab(&self, ctx: &RnsContext, src: &[u64], exact: bool) -> RnsPoly {
        let mut coeffs = Vec::new();
        self.append_slab(ctx, src, exact, &mut coeffs);
        RnsPoly::from_raw_parts(ctx.n(), self.dst.clone(), coeffs, false)
            .expect("the converter's output covers its destination basis")
    }

    /// [`BaseConverter::convert_slab`], appended to `out`.
    fn append_slab(&self, ctx: &RnsContext, src: &[u64], exact: bool, out: &mut Vec<u64>) {
        let n = ctx.n();
        assert_eq!(src.len(), self.src.len() * n, "source slab is not the source basis");
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
        // Every source word is canonical (below q_i), the kernel's operand
        // contract; each output word is written once, canonical.
        self.table.convert_append(src, out, exact);
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

    /// [`BaseConverter::convert`] appending the destination limbs
    /// (coefficient form, destination-basis order) to a caller-owned
    /// limb-major buffer instead of returning a fresh polynomial. ModUp
    /// uses it to write the extension limbs straight into the slab of the
    /// extended polynomial.
    ///
    /// # Panics
    ///
    /// Same contract as [`BaseConverter::convert`].
    pub fn convert_append(&self, ctx: &RnsContext, poly: &RnsPoly, out: &mut Vec<u64>) {
        self.check_source(ctx, poly);
        self.append_slab(ctx, poly.coeffs(), false, out);
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
/// The input is consumed and becomes the output in place: its `P` limbs
/// are inverse-transformed where they lie and read by the conversion, then
/// released, and the correction is subtracted from its `Q` limbs. A caller
/// that still needs its input passes a clone — the same bytes the two
/// restricted copies of the input used to cost, in one allocation.
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
    mut poly: RnsPoly,
    q_basis: &Basis,
    p_basis: &Basis,
    conv_p_to_q: &BaseConverter,
) -> RnsPoly {
    assert!(poly.ntt_form(), "mod_down_ntt operates in the NTT domain");
    assert_eq!(poly.basis(), &q_basis.union(p_basis), "basis mismatch");
    assert_eq!(conv_p_to_q.src_basis(), p_basis);
    assert_eq!(conv_p_to_q.dst_basis(), q_basis);
    let split = q_basis.len() * ctx.n();
    let c_p = &mut poly.parts_mut().1[split..];
    ctx.from_ntt_limbs(&p_basis.0, c_p);
    let mut c_p_in_q = conv_p_to_q.convert_slab(ctx, c_p, true);
    ctx.to_ntt(&mut c_p_in_q);
    poly.truncate_limbs(q_basis.len());
    ctx.sub_assign(&mut poly, &c_p_in_q);
    ctx.scalar_mul_per_limb_assign(&mut poly, conv_p_to_q.src_prod_inv_mod_dst());
    poly
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
        let got = mod_down_ntt(&c, x_ntt, &qb, &pb, &conv);
        assert!(got.ntt_form());
        assert_eq!(got, expect, "NTT-domain ModDown must be bit-exact");
    }
}

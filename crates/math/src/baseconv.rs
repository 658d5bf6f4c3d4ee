//! Constants of one fast RNS base conversion, laid out for the CRB kernel.
//!
//! Converting `x` from the basis `q_0..q_{L-1}` (product `Q`) to the basis
//! `b_0..b_{L'-1}` computes, per coefficient,
//! `y_i = [x_i (Q/q_i)^{-1}]_{q_i}` and then
//! `out_j = [Σ_i y_i [Q/q_i]_{b_j} + α [−Q]_{b_j}]_{b_j}` — `α = 0` for the
//! approximate conversion (the result represents `x + αQ` for some
//! `α < L`), and the Halevi–Polyakov–Shoup estimate
//! `α = ⌊Σ_i y_i / q_i + 1/2⌋` for the exact one. [`BaseConvTable`] holds
//! every constant of that computation; [`BaseConvTable::convert`] runs it as
//! one product kernel (`backend`'s `base_conv`), the software form of the
//! paper's CRB unit: each source limb is read once, each output word is
//! reduced and stored once.

use crate::backend::CRB_MAX_LIMBS;
use crate::{BigUint, Modulus};

/// Precomputed constants for converting residue polynomials from one RNS
/// basis to another.
///
/// # Example
///
/// ```
/// use cl_math::{generate_ntt_primes, BaseConvTable, Modulus};
/// let moduli: Vec<Modulus> = generate_ntt_primes(16, 28, 3)
///     .unwrap()
///     .into_iter()
///     .map(|q| Modulus::new(q).unwrap())
///     .collect();
/// let table = BaseConvTable::new(&moduli[..2], &moduli[2..]);
/// // x = 42 in the source basis, two coefficients (limb-major).
/// let out = table.convert(&[42, 42, 42, 42], true);
/// assert_eq!(out, vec![42, 42]);
/// ```
#[derive(Debug, Clone)]
pub struct BaseConvTable {
    src: Vec<Modulus>,
    dst: Vec<Modulus>,
    /// `[(Q/q_i)^{-1}]_{q_i}` per source limb.
    y_w: Vec<u64>,
    /// Shoup companions of `y_w` (w.r.t. `q_i`).
    y_ws: Vec<u64>,
    /// `1/q_i` per source limb, for the `α` estimate.
    inv_q_f64: Vec<f64>,
    /// Destination-major, `L + 1` words per destination limb `b_j`:
    /// `[Q/q_i]_{b_j}` for each source limb `i`, then `[−Q]_{b_j}`, the
    /// constant of the exact path's `α` term.
    mat: Vec<u64>,
    /// Shoup companions of `mat` (w.r.t. `b_j`).
    mat_shoup: Vec<u64>,
    /// Per destination limb, the constants that reduce its sum once.
    fold: Vec<Fold>,
    /// Bound on every unreduced sum `Σ_i y_i [Q/q_i]_{b_j} + α [−Q]_{b_j}`
    /// (with `α <= L`), over all destination limbs.
    sum_bound: u128,
}

/// The constants that reduce one destination limb's double-word sum `S`
/// once, by folding its high half: `S = h 2^r + l` gives
/// `S ≡ h (2^r mod b) + l`, two Shoup products in `[0, 2b)` each.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fold {
    /// `2^52 mod b` and its Shoup companion: the high half of a
    /// 52-bit-radix (IFMA) sum.
    pub(crate) r52: u64,
    pub(crate) r52_shoup: u64,
    /// `2^64 mod b` and its Shoup companion: the high word of a `u128` sum.
    pub(crate) r64: u64,
    pub(crate) r64_shoup: u64,
    /// `⌊2^64 / b⌋`, the Shoup companion of 1: the low half.
    pub(crate) one_shoup: u64,
}

impl BaseConvTable {
    /// Precomputes the conversion constants from `src` to `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `src` is empty, or if either basis has more than 64
    /// limbs (the kernels keep per-limb constants in stack arrays).
    pub fn new(src: &[Modulus], dst: &[Modulus]) -> Self {
        assert!(!src.is_empty(), "source basis must be nonempty");
        assert!(
            src.len() <= CRB_MAX_LIMBS && dst.len() <= CRB_MAX_LIMBS,
            "at most {CRB_MAX_LIMBS} limbs per basis"
        );
        let src_values: Vec<u64> = src.iter().map(Modulus::value).collect();
        let q_big = BigUint::product(&src_values);
        let punctured: Vec<BigUint> = src_values
            .iter()
            .map(|&qi| {
                let (qi_hat, rem) = q_big.div_rem_u64(qi);
                debug_assert_eq!(rem, 0);
                qi_hat
            })
            .collect();
        let y_w: Vec<u64> = src
            .iter()
            .zip(&punctured)
            .map(|(m, qi_hat)| m.inv(qi_hat.rem_u64(m.value())))
            .collect();
        let y_ws = src
            .iter()
            .zip(&y_w)
            .map(|(m, &w)| m.shoup_precompute(w))
            .collect();
        let mut mat = Vec::with_capacity(dst.len() * (src.len() + 1));
        for b in dst {
            mat.extend(punctured.iter().map(|qi_hat| qi_hat.rem_u64(b.value())));
            mat.push(b.neg(q_big.rem_u64(b.value())));
        }
        let mat_shoup = dst
            .iter()
            .flat_map(|b| std::iter::repeat_n(b, src.len() + 1))
            .zip(&mat)
            .map(|(b, &w)| b.shoup_precompute(w))
            .collect();
        // y_i <= q_i - 1 and alpha <= L, each times a constant <= b - 1.
        let y_sum: u128 =
            src_values.iter().map(|&q| u128::from(q - 1)).sum::<u128>() + src.len() as u128;
        let b_max = dst.iter().map(Modulus::value).max().unwrap_or(1);
        let sum_bound = y_sum * u128::from(b_max - 1);
        let fold = dst
            .iter()
            .map(|b| {
                let power = |bits: u32| ((1u128 << bits) % u128::from(b.value())) as u64;
                let (r52, r64) = (power(52), power(64));
                Fold {
                    r52,
                    r52_shoup: b.shoup_precompute(r52),
                    r64,
                    r64_shoup: b.shoup_precompute(r64),
                    one_shoup: b.shoup_precompute(1),
                }
            })
            .collect();
        Self {
            src: src.to_vec(),
            dst: dst.to_vec(),
            y_w,
            y_ws,
            inv_q_f64: src_values.iter().map(|&q| 1.0 / q as f64).collect(),
            mat,
            mat_shoup,
            fold,
            sum_bound,
        }
    }

    /// The source moduli `q_i`.
    pub fn src(&self) -> &[Modulus] {
        &self.src
    }

    /// The destination moduli `b_j`.
    pub fn dst(&self) -> &[Modulus] {
        &self.dst
    }

    /// Converts `x` — the source limbs of `x.len() / L` canonical words
    /// each, limb-major — to the destination basis, limb-major and
    /// canonical. `exact` selects the `α`-corrected conversion of the
    /// centered value; otherwise the result represents `x + αQ` for some
    /// `0 <= α < L`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` is not a multiple of the source limb count.
    pub fn convert(&self, x: &[u64], exact: bool) -> Vec<u64> {
        let mut out = Vec::new();
        self.convert_append(x, &mut out, exact);
        out
    }

    /// [`BaseConvTable::convert`] into a caller-owned buffer: the
    /// destination limbs are appended to `out`, which grows only when its
    /// spare capacity is short of them. A caller assembling a wider
    /// polynomial reserves it whole and lets the kernel write its tail.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` is not a multiple of the source limb count.
    pub fn convert_append(&self, x: &[u64], out: &mut Vec<u64>, exact: bool) {
        let len = x.len() / self.src.len() * self.dst.len();
        let start = out.len();
        out.reserve_exact(len);
        crate::backend::base_conv(self, x, &mut out.spare_capacity_mut()[..len], exact);
        // SAFETY: `base_conv` writes every word of the `len`-word slice it
        // is given, which begins at `out`'s old length.
        unsafe { out.set_len(start + len) };
    }

    /// `[(Q/q_i)^{-1}]_{q_i}` and its Shoup companion, per source limb.
    pub(crate) fn y_consts(&self) -> (&[u64], &[u64]) {
        (&self.y_w, &self.y_ws)
    }

    /// `1/q_i` per source limb.
    pub(crate) fn inv_q_f64(&self) -> &[f64] {
        &self.inv_q_f64
    }

    /// Destination limb `j`'s `L + 1` term constants (`[Q/q_i]_{b_j}`, then
    /// `[−Q]_{b_j}`) and their Shoup companions.
    pub(crate) fn row(&self, j: usize) -> (&[u64], &[u64]) {
        let w = self.src.len() + 1;
        (
            &self.mat[j * w..(j + 1) * w],
            &self.mat_shoup[j * w..(j + 1) * w],
        )
    }

    /// Destination limb `j`'s reduction constants.
    pub(crate) fn fold(&self, j: usize) -> &Fold {
        &self.fold[j]
    }

    /// Bound on every unreduced destination sum, `α` term included.
    pub(crate) fn sum_bound(&self) -> u128 {
        self.sum_bound
    }
}

#[cfg(test)]
mod tests {
    use std::mem::MaybeUninit;

    use super::*;
    use crate::backend::{forced, BackendKind, Route};
    use crate::{generate_ntt_primes, CrtBasis};

    /// `count` distinct primes of `bits` bits.
    fn primes(bits: u32, count: usize) -> Vec<Modulus> {
        generate_ntt_primes(2, bits, count)
            .expect("enough primes of every width")
            .into_iter()
            .map(|q| Modulus::new(q).expect("below 2^60"))
            .collect()
    }

    /// One conversion on `route`, into an output poisoned with a word no
    /// modulus reaches, so a word the kernel skips shows.
    fn convert_on(route: impl Into<Route>, t: &BaseConvTable, x: &[u64], exact: bool) -> Vec<u64> {
        let len = x.len() / t.src().len() * t.dst().len();
        let mut out = vec![MaybeUninit::new(u64::MAX); len];
        forced::base_conv(route, t, x, &mut out, exact);
        // SAFETY: every word was initialized with the poison.
        out.into_iter()
            .map(|w| unsafe { w.assume_init() })
            .collect()
    }

    /// Source limbs of `n` coefficients: column 0 all zero, column 1 all
    /// `q_i - 1` (the kernel's operand bound is canonical), then the
    /// near-tie columns `floor(Q/2) + d` for `d` in `-3..=3`, where the
    /// exact path's `alpha` estimate is closest to a rounding boundary —
    /// the same nine again at the end of the ring, in the scalar tail of
    /// the vector kernels — and pseudorandom residues elsewhere.
    fn input(src: &[Modulus], n: usize, seed: u64) -> Vec<u64> {
        let values: Vec<u64> = src.iter().map(Modulus::value).collect();
        let half = BigUint::product(&values).shr1();
        let special = |k: usize, m: &Modulus| match k {
            0 => 0,
            1 => m.value() - 1,
            _ => {
                let d = k as i64 - 5;
                let base = half.rem_u64(m.value());
                m.add(base, m.from_i64(d))
            }
        };
        let mut x = Vec::with_capacity(src.len() * n);
        for (i, m) in src.iter().enumerate() {
            for c in 0..n {
                let k = if c < 9 {
                    Some(c)
                } else if n - c <= 9 && n >= 18 {
                    Some(n - 1 - c)
                } else {
                    None
                };
                x.push(match k {
                    Some(k) => special(k, m),
                    None => {
                        (seed ^ (i * n + c) as u64)
                            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                            .rotate_left(17)
                            % m.value()
                    }
                });
            }
        }
        x
    }

    /// The conversion from its definition, in exact integers: with
    /// `S = Σ_i y_i Q/q_i` (`y_i` by `Modulus::mul`), the approximate word
    /// is `S mod b_j`. `S = X + aQ` for the input's value `X < Q`, so the
    /// exact word is the centered `X`: `X mod b_j`, or `(X - Q) mod b_j`
    /// when `2X >= Q`. Within `Q / 2^30` of the tie both roundings are
    /// accepted (the kernel's `f64` estimate may take either side; the
    /// routes must still agree with each other bit for bit).
    fn check_oracle(t: &BaseConvTable, x: &[u64], out: &[u64], exact: bool, what: &str) {
        let (src, dst) = (t.src(), t.dst());
        let values: Vec<u64> = src.iter().map(Modulus::value).collect();
        let basis = CrtBasis::new(&values);
        let q = basis.product();
        let n = x.len() / src.len();
        let punctured: Vec<BigUint> = values.iter().map(|&v| q.div_rem_u64(v).0).collect();
        let inv: Vec<u64> = src
            .iter()
            .zip(&punctured)
            .map(|(m, p)| m.inv(p.rem_u64(m.value())))
            .collect();
        for c in 0..n {
            let column: Vec<u64> = (0..src.len()).map(|i| x[i * n + c]).collect();
            let mut s = BigUint::zero();
            for (i, m) in src.iter().enumerate() {
                s.add_assign(&punctured[i].mul_u64(m.mul(column[i], inv[i])));
            }
            let xv = basis.combine(&column);
            let twice = xv.shl_bits(1);
            let mut gap = if twice > *q { twice.clone() } else { q.clone() };
            gap.sub_assign(if twice > *q { q } else { &twice });
            let near_tie = gap.shl_bits(30) < *q;
            for (j, b) in dst.iter().enumerate() {
                let got = out[j * n + c];
                assert!(got < b.value(), "{what}: word ({j}, {c}) not canonical");
                let low = xv.rem_u64(b.value());
                let centered_up = b.sub(low, q.rem_u64(b.value()));
                if !exact {
                    assert_eq!(
                        got,
                        s.rem_u64(b.value()),
                        "{what}: approximate word ({j}, {c})"
                    );
                } else if near_tie {
                    assert!(
                        got == low || got == centered_up,
                        "{what}: near-tie word ({j}, {c})"
                    );
                } else {
                    let want = if twice >= *q { centered_up } else { low };
                    assert_eq!(got, want, "{what}: exact word ({j}, {c})");
                }
            }
        }
    }

    /// The CRB kernel on every route of `forced::routes()` (AVX-512 also
    /// pinned to its portable 64-bit products, so the IFMA sum and the
    /// Shoup-lazy accumulator both run on an IFMA host) against the scalar
    /// reference bit for bit, and the scalar reference against the exact
    /// integer oracle: shapes `1 -> L`, `L -> 1`, `7 -> 7` and `20 -> 20`
    /// at 28, 45, 49, 50 and 59 bits plus `24 -> 24` at 50 bits (beyond the
    /// IFMA sum's reach: the dispatcher must fall back), one source width
    /// above IFMA's `2^50` with destinations below it, ring degrees 8,
    /// 1024 and 37 (no multiple of any lane count), both conversions, and
    /// the zero / `q - 1` / near-tie columns of [`input`].
    #[test]
    fn crb_kernel_matches_scalar_and_crt_on_every_route() {
        let mut cases: Vec<(Vec<Modulus>, Vec<Modulus>)> = Vec::new();
        for bits in [28, 45, 49, 50, 59] {
            let p = primes(bits, 40);
            for (ls, ld) in [(1, 20), (20, 1), (7, 7), (20, 20)] {
                cases.push((p[..ls].to_vec(), p[20..20 + ld].to_vec()));
            }
        }
        let p50 = primes(50, 48);
        cases.push((p50[..24].to_vec(), p50[24..].to_vec()));
        cases.push((primes(59, 3), primes(45, 4)));
        let routes = forced::routes();
        for (k, (src, dst)) in cases.iter().enumerate() {
            let t = BaseConvTable::new(src, dst);
            for n in [8, 1024, 37] {
                let x = input(src, n, k as u64);
                for exact in [false, true] {
                    let what = format!(
                        "{} -> {} at {} -> {} bits, n = {n}, exact = {exact}",
                        src.len(),
                        dst.len(),
                        src[0].bits(),
                        dst[0].bits()
                    );
                    let want = convert_on(BackendKind::Scalar, &t, &x, exact);
                    check_oracle(&t, &x, &want, exact, &what);
                    for &route in &routes {
                        let got = convert_on(route, &t, &x, exact);
                        if let Some(k) = got.iter().zip(&want).position(|(g, w)| g != w) {
                            let (j, c) = (k / n, k % n);
                            panic!(
                                "{what} on {route}: word ({j}, {c}) is {}, scalar {}",
                                got[k], want[k]
                            );
                        }
                    }
                }
            }
        }
    }

    /// The IFMA product stops where its high half could reach `2^52`: with
    /// 50-bit moduli the sum bound stays below `2^104` up to 15 source
    /// limbs, not at 24.
    #[test]
    fn sum_bound_marks_the_ifma_edge() {
        let p = primes(50, 48);
        assert!(BaseConvTable::new(&p[..15], &p[24..39]).sum_bound() >> 104 == 0);
        assert!(BaseConvTable::new(&p[..24], &p[24..]).sum_bound() >> 104 != 0);
    }
}

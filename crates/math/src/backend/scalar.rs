//! Portable scalar kernels — the semantic reference for every backend.
//!
//! These are the exact loops the pre-backend code ran element-at-a-time;
//! the vector backends must match them word-for-word on canonical outputs
//! and bound-for-bound on lazy outputs.

use std::mem::MaybeUninit;
use std::ops::Range;

use super::{CRB_LAZY_TERMS, CRB_MAX_LIMBS};
use crate::baseconv::Fold;
use crate::{BaseConvTable, Modulus, NttTable};

pub(crate) fn add_mod_slice(m: &Modulus, a: &mut [u64], b: &[u64]) {
    for (x, &y) in a.iter_mut().zip(b) {
        *x = m.add(*x, y);
    }
}

pub(crate) fn sub_mod_slice(m: &Modulus, a: &mut [u64], b: &[u64]) {
    for (x, &y) in a.iter_mut().zip(b) {
        *x = m.sub(*x, y);
    }
}

pub(crate) fn neg_mod_slice(m: &Modulus, a: &mut [u64]) {
    for x in a.iter_mut() {
        *x = m.neg(*x);
    }
}

pub(crate) fn mul_mod_slice(m: &Modulus, a: &mut [u64], b: &[u64]) {
    for (x, &y) in a.iter_mut().zip(b) {
        *x = m.mul(*x, y);
    }
}

pub(crate) fn mul_acc_mod_slice(m: &Modulus, acc: &mut [u64], a: &[u64], b: &[u64]) {
    for ((acc, &x), &y) in acc.iter_mut().zip(a).zip(b) {
        *acc = m.add(*acc, m.mul(x, y));
    }
}

pub(crate) fn mul_scalar_shoup_slice(m: &Modulus, a: &mut [u64], w: u64, w_shoup: u64) {
    let q = m.value();
    for x in a.iter_mut() {
        let mut v = m.mul_shoup_lazy(*x, w, w_shoup);
        if v >= q {
            v -= q;
        }
        *x = v;
    }
}

pub(crate) fn reduce_raw_slice(m: &Modulus, a: &mut [u64]) {
    for x in a.iter_mut() {
        *x = m.reduce(*x);
    }
}

pub(crate) fn reduce_signed_slice(m: &Modulus, a: &[i64], out: &mut [u64]) {
    for (o, &x) in out.iter_mut().zip(a) {
        *o = m.from_i64(x);
    }
}

pub(crate) fn gather_slice(out: &mut [u64], src: &[u64], perm: &[u32]) {
    for (dst, &s) in out.iter_mut().zip(perm) {
        *dst = src[s as usize];
    }
}

pub(crate) fn first_at_or_above(x: &[u64], bound: u64) -> Option<usize> {
    x.iter().position(|&w| w >= bound)
}

pub(crate) fn gather_mul_acc_slice(m: &Modulus, acc: &mut [u64], src: &[u64], perm: &[u32], b: &[u64]) {
    for ((acc, &s), &y) in acc.iter_mut().zip(perm).zip(b) {
        *acc = m.add(*acc, m.mul(src[s as usize], y));
    }
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn gather_mul_acc_pair_slice(
    m: &Modulus,
    acc0: &mut [u64],
    acc1: &mut [u64],
    src: &[u64],
    perm: &[u32],
    b0: &[u64],
    b1: &[u64],
) {
    for i in 0..perm.len() {
        let v = src[perm[i] as usize];
        acc0[i] = m.add(acc0[i], m.mul(v, b0[i]));
        acc1[i] = m.add(acc1[i], m.mul(v, b1[i]));
    }
}

/// Coefficients per block of the scalar base conversion.
const CRB_BLOCK: usize = 8;

/// Fast RNS base conversion (the CRB), a block of coefficients at a time
/// like the vector kernels: each `y_i` canonical by Shoup, the exact
/// path's `alpha` summed in `f64` in source order, then every destination
/// word as one `u128` sum of its `L` (exact: `L + 1`) products, reduced
/// once ([`reduce_sum`]) — or, for at most [`CRB_LAZY_TERMS`] terms, as a
/// Shoup-lazy sum in `[0, 2b)`.
pub(crate) fn base_conv(t: &BaseConvTable, x: &[u64], out: &mut [MaybeUninit<u64>], exact: bool) {
    base_conv_cols(t, x, out, exact, 0..x.len() / t.src().len());
}

/// [`base_conv`] over the coefficients `cols` only: the vector kernels'
/// tail.
pub(crate) fn base_conv_cols(t: &BaseConvTable, x: &[u64], out: &mut [MaybeUninit<u64>], exact: bool, cols: Range<usize>) {
    let (src, dst) = (t.src(), t.dst());
    let ls = src.len();
    let n = x.len() / ls;
    let terms = ls + usize::from(exact);
    let ((w, ws), inv_q) = (t.y_consts(), t.inv_q_f64());
    // One block's y_0..y_{L-1}, then alpha, term-major.
    let mut tile = [[0u64; CRB_BLOCK]; CRB_MAX_LIMBS + 1];
    let mut c0 = cols.start;
    while c0 < cols.end {
        let width = (cols.end - c0).min(CRB_BLOCK);
        for (i, m) in src.iter().enumerate() {
            for (y, &xv) in tile[i].iter_mut().zip(&x[i * n + c0..i * n + c0 + width]) {
                *y = csub(m.mul_shoup_lazy(xv, w[i], ws[i]), m.value());
            }
        }
        if exact {
            for c in 0..width {
                let mut v = 0.0f64;
                for (ys, &inv) in tile[..ls].iter().zip(inv_q) {
                    v += ys[c] as f64 * inv;
                }
                // The sum is non-negative, so truncating is the floor.
                tile[ls][c] = (v + 0.5) as u64;
            }
        }
        for (j, b) in dst.iter().enumerate() {
            let (row, row_s) = t.row(j);
            let out = out[j * n + c0..j * n + c0 + width].iter_mut();
            // One pass per word: loops over an accumulator array here mix
            // scalar and vector accesses, and each mixed access stalls
            // store forwarding.
            if terms > CRB_LAZY_TERMS {
                let fold = t.fold(j);
                for (c, o) in out.enumerate() {
                    let s: u128 = tile[..terms].iter().zip(row).map(|(ys, &w)| u128::from(ys[c]) * u128::from(w)).sum();
                    o.write(reduce_sum(b, fold, s));
                }
            } else {
                let (bv, two_b) = (b.value(), b.two_q());
                for (c, o) in out.enumerate() {
                    let mut a = b.mul_shoup_lazy(tile[0][c], row[0], row_s[0]);
                    for i in 1..ls {
                        a = csub(a + b.mul_shoup_lazy(tile[i][c], row[i], row_s[i]), two_b);
                    }
                    if exact {
                        // Two terms with alpha among them means L = 1, so
                        // alpha is 0 or 1 and its product is a select.
                        let alpha = tile[ls][c];
                        debug_assert!(alpha <= 1);
                        a = csub(a + (row[ls] & alpha.wrapping_neg()), two_b);
                    }
                    o.write(csub(a, bv));
                }
            }
        }
        c0 += width;
    }
}

/// `s mod b`, canonical: `s = h 2^64 + l` folds to `h (2^64 mod b) + l`,
/// and each of the two Shoup products lands in `[0, 2b)`.
#[inline]
fn reduce_sum(b: &Modulus, f: &Fold, s: u128) -> u64 {
    let h = b.mul_shoup_lazy((s >> 64) as u64, f.r64, f.r64_shoup);
    let l = b.mul_shoup_lazy(s as u64, 1, f.one_shoup);
    csub(csub(h + l, b.two_q()), b.value())
}

/// `x - m` if `x >= m`, else `x`, without a branch on the data (a
/// conditional-subtract branch mispredicts about half the time here).
#[inline]
fn csub(x: u64, m: u64) -> u64 {
    x.min(x.wrapping_sub(m))
}

/// Forward lazy NTT (Cooley-Tukey DIT, Harvey lazy reduction), canonical
/// output. This is the pre-backend `NttTable::forward` body verbatim.
pub(crate) fn ntt_forward(table: &NttTable, a: &mut [u64]) {
    let m = table.modulus();
    let two_q = m.two_q();
    let n = table.n();
    let root_pows = table.root_pows();
    let root_pows_shoup = table.root_pows_shoup();
    let mut t = n;
    let mut len = 1usize;
    while len < n {
        t >>= 1;
        for i in 0..len {
            // SAFETY: len + i < 2*len <= n == root_pows.len().
            let (w, ws) = unsafe {
                (
                    *root_pows.get_unchecked(len + i),
                    *root_pows_shoup.get_unchecked(len + i),
                )
            };
            let j0 = 2 * i * t;
            for j in j0..j0 + t {
                // SAFETY: j + t <= j0 + 2t - 1 = (2i + 2)t - 1 < 2*len*t = n.
                unsafe {
                    let mut x = *a.get_unchecked(j);
                    if x >= two_q {
                        x -= two_q;
                    }
                    let v = m.mul_shoup_lazy(*a.get_unchecked(j + t), w, ws);
                    *a.get_unchecked_mut(j) = x + v;
                    *a.get_unchecked_mut(j + t) = x + two_q - v;
                }
            }
        }
        len <<= 1;
    }
    for x in a.iter_mut() {
        *x = m.correct_lazy(*x);
    }
}

/// Inverse lazy NTT (Gentleman-Sande DIF, Harvey lazy reduction) including
/// the `n^{-1}` sweep, canonical output. Pre-backend `NttTable::inverse`.
pub(crate) fn ntt_inverse(table: &NttTable, a: &mut [u64]) {
    let m = table.modulus();
    let two_q = m.two_q();
    let n = table.n();
    let inv_root_pows = table.inv_root_pows();
    let inv_root_pows_shoup = table.inv_root_pows_shoup();
    let mut t = 1usize;
    let mut len = n >> 1;
    while len >= 1 {
        let mut j0 = 0usize;
        for i in 0..len {
            // SAFETY: len + i < 2*len <= n == inv_root_pows.len().
            let (w, ws) = unsafe {
                (
                    *inv_root_pows.get_unchecked(len + i),
                    *inv_root_pows_shoup.get_unchecked(len + i),
                )
            };
            for j in j0..j0 + t {
                // SAFETY: the stage partitions [0, n) into disjoint
                // (j, j + t) pairs, so j + t < n.
                unsafe {
                    let u = *a.get_unchecked(j);
                    let v = *a.get_unchecked(j + t);
                    let mut s = u + v;
                    if s >= two_q {
                        s -= two_q;
                    }
                    *a.get_unchecked_mut(j) = s;
                    *a.get_unchecked_mut(j + t) = m.mul_shoup_lazy(u + two_q - v, w, ws);
                }
            }
            j0 += 2 * t;
        }
        t <<= 1;
        len >>= 1;
    }
    mul_scalar_shoup_slice(m, a, table.n_inv(), table.n_inv_shoup());
}

//! Portable scalar kernels — the semantic reference for every backend.
//!
//! These are the exact loops the pre-backend code ran element-at-a-time;
//! the vector backends must match them word-for-word on canonical outputs
//! and bound-for-bound on lazy outputs.

use crate::{Modulus, NttTable};

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

/// `x_bound` picks a vector product; the 64-bit scalar product accepts any
/// `x`.
pub(crate) fn mul_shoup_lazy_acc_slice(m: &Modulus, acc: &mut [u64], x: &[u64], _x_bound: u64, w: u64, w_shoup: u64) {
    for (acc, &xi) in acc.iter_mut().zip(x) {
        *acc = m.reduce_lazy(m.add_lazy(*acc, m.mul_shoup_lazy(xi, w, w_shoup)));
    }
}

pub(crate) fn mul_shoup_sub_correct_slice(m: &Modulus, out: &mut [u64], alpha: &[u64], w: u64, w_shoup: u64) {
    let two_q = m.two_q();
    for (o, &al) in out.iter_mut().zip(alpha) {
        let v = m.mul_shoup_lazy(al, w, w_shoup);
        *o = m.correct_lazy(*o + two_q - v);
    }
}

pub(crate) fn correct_lazy_slice(m: &Modulus, a: &mut [u64]) {
    for x in a.iter_mut() {
        *x = m.correct_lazy(*x);
    }
}

pub(crate) fn reduce_raw_slice(m: &Modulus, a: &mut [u64]) {
    for x in a.iter_mut() {
        *x = m.reduce(*x);
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
    correct_lazy_slice(m, a);
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

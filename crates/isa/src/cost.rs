//! Closed-form cost and footprint formulas (Table 1, Fig. 4, object sizes).
//!
//! Counts are at residue-polynomial granularity: a "mult" is one
//! element-wise multiplication of two `N`-element residue polynomials, an
//! "NTT" is one transform of a residue polynomial, and so on. Multiply by
//! `N` for scalar-operation counts.

/// Operation counts for one keyswitch (both output polynomials).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCounts {
    /// Element-wise residue-polynomial multiplications.
    pub mult: u64,
    /// Element-wise residue-polynomial additions.
    pub add: u64,
    /// NTT / inverse-NTT passes.
    pub ntt: u64,
}

impl OpCounts {
    /// Scalar multiplications for ring degree `n` (NTTs cost
    /// `(n/2)·log2(n)` butterflies, one multiply each).
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a power of two: negacyclic NTTs only exist for
    /// power-of-two ring degrees, and the butterfly count `(n/2)·log2(n)`
    /// is meaningless otherwise (`trailing_zeros` would silently
    /// undercount).
    pub fn scalar_muls(&self, n: usize) -> u64 {
        assert!(
            n.is_power_of_two(),
            "ring degree must be a power of two, got {n}"
        );
        let ntt_muls = (n as u64 / 2) * (n.trailing_zeros() as u64);
        self.mult * n as u64 + self.ntt * ntt_muls
    }
}

/// Operation counts for boosted keyswitching with `digits` digits at
/// multiplicative budget `l` (Table 1 for `digits = 1`; Sec. 3.1 for the
/// generalization).
///
/// `alpha = ceil(l / digits)` special limbs are used. For `digits = 1` this
/// reduces exactly to Table 1: `mult = 3L^2 + 4L`, `add = 3L^2 + 2L`,
/// `ntt = 6L`.
pub fn boosted_keyswitch_ops(l: usize, digits: usize) -> OpCounts {
    assert!(l >= 1 && digits >= 1);
    let l = l as u64;
    let t = digits as u64;
    let alpha = l.div_ceil(t);
    // changeRNSBase work: ModUp converts each digit (alpha limbs) to the
    // rest of the target basis (~L limbs): L*L total across digits; ModDown
    // converts the P part (alpha limbs) to Q (L limbs) for both output
    // polynomials: 2*alpha*L.
    let crb_mult = l * l + 2 * alpha * l;
    let crb_add = crb_mult;
    // Work outside changeRNSBase: hint products (2 output polys x t digits x
    // (L + alpha) limbs); accumulation adds for digits beyond the first and
    // the final ModDown additions.
    let other_mult = 2 * t * (l + alpha);
    let other_add = 2 * (t - 1) * (l + alpha) + 2 * l;
    // NTTs: ModUp INTTs the L source limbs and NTTs the t*L extended limbs;
    // ModDown INTTs the 2*alpha P-part limbs and NTTs the 2*L results
    // (Listing 1 lines 2, 4, 7, 9).
    let ntt = l + t * l + 2 * alpha + 2 * l;
    OpCounts {
        mult: crb_mult + other_mult,
        add: crb_add + other_add,
        ntt,
    }
}

/// The portion of boosted-keyswitch multiplies that happen inside
/// `changeRNSBase` (Table 1 splits them out because the CRB unit absorbs
/// them).
pub fn boosted_keyswitch_crb_mult(l: usize, digits: usize) -> u64 {
    let l = l as u64;
    let alpha = l.div_ceil(digits as u64);
    l * l + 2 * alpha * l
}

/// Operation counts for standard keyswitching at budget `l` (Table 1):
/// `mult = 2L^2`, `add = 2L^2`, `ntt = L^2`.
pub fn standard_keyswitch_ops(l: usize) -> OpCounts {
    let l = l as u64;
    OpCounts {
        mult: 2 * l * l,
        add: 2 * l * l,
        ntt: l * l,
    }
}

/// Bytes of one ciphertext: 2 polynomials x `l` limbs x `n` coefficients at
/// `word_bits` per coefficient.
pub fn ciphertext_bytes(n: usize, l: usize, word_bits: u32) -> u64 {
    2 * l as u64 * n as u64 * word_bits as u64 / 8
}

/// Bytes of one keyswitch hint for boosted keyswitching with `digits`
/// digits at budget `l`: `digits` pairs of polynomials over `l + alpha`
/// limbs. With `seeded = true` (the KSHGen optimization) only half is
/// stored.
pub fn boosted_ksh_bytes(n: usize, l: usize, digits: usize, word_bits: u32, seeded: bool) -> u64 {
    let alpha = (l as u64).div_ceil(digits as u64);
    let polys = if seeded { 1 } else { 2 };
    digits as u64 * polys * (l as u64 + alpha) * n as u64 * word_bits as u64 / 8
}

/// Bytes of one standard keyswitch hint at budget `l`: `l` digit pairs over
/// `l + 1` limbs each.
pub fn standard_ksh_bytes(n: usize, l: usize, word_bits: u32, seeded: bool) -> u64 {
    let polys = if seeded { 1 } else { 2 };
    l as u64 * polys * (l as u64 + 1) * n as u64 * word_bits as u64 / 8
}

/// Fig. 4 (left): keyswitch-hint footprint in bytes as a function of `l`,
/// for the standard and 1-digit boosted algorithms (full hints, no
/// seeding).
pub fn fig4_footprint(n: usize, l: usize, word_bits: u32) -> (u64, u64) {
    (
        standard_ksh_bytes(n, l, word_bits, false),
        boosted_ksh_bytes(n, l, 1, word_bits, false),
    )
}

/// Fig. 4 (right): scalar 28-bit multiplies per keyswitch as a function of
/// `l`, for the standard and 1-digit boosted algorithms.
pub fn fig4_compute(n: usize, l: usize) -> (u64, u64) {
    (
        standard_keyswitch_ops(l).scalar_muls(n),
        boosted_keyswitch_ops(l, 1).scalar_muls(n),
    )
}

/// The crossover budget above which boosted keyswitching needs fewer scalar
/// multiplies than standard (the paper cites `L > 14`, Sec. 8).
pub fn boosted_crossover_level(n: usize) -> usize {
    (1..=128)
        .find(|&l| {
            boosted_keyswitch_ops(l, 1).scalar_muls(n) < standard_keyswitch_ops(l).scalar_muls(n)
        })
        .unwrap_or(128)
}

/// Residue-polynomial passes of the tensor product of two ciphertexts at
/// budget `l`: 4 limb-wise products (d0, two cross terms, d2) plus the
/// additions that fold the cross terms and the keyswitched `d2` back in.
pub fn tensor_ops(l: usize) -> OpCounts {
    let l = l as u64;
    OpCounts {
        mult: 4 * l,
        add: 3 * l,
        ntt: 0,
    }
}

/// Residue-polynomial passes of one rescale from budget `l` (both
/// ciphertext polynomials), outside its base conversion: the subtraction
/// of the converted dropped limb and the multiply by `q^{-1}` on each of
/// the `l - 1` kept limbs, plus 2 INTT of the dropped limb and 2(L-1)
/// NTT-equivalents bringing the correction back.
///
/// # Panics
///
/// Panics when `l = 0`: a rescale needs at least one limb, and the term
/// `2(l-1)` would otherwise underflow.
pub fn rescale_ops(l: usize) -> OpCounts {
    assert!(l >= 1, "multiplicative budget must be >= 1, got 0");
    let l = l as u64;
    OpCounts {
        mult: 2 * (l - 1),
        add: 2 * (l - 1),
        ntt: 2 + 2 * (l - 1),
    }
}

/// Residue-polynomial passes of auxiliary (non-keyswitch) work in one
/// homomorphic multiplication at budget `l`: [`tensor_ops`] plus
/// [`rescale_ops`].
///
/// # Panics
///
/// Panics when `l = 0` (see [`rescale_ops`]).
pub fn mul_aux_ops(l: usize) -> OpCounts {
    let (t, r) = (tensor_ops(l), rescale_ops(l));
    OpCounts {
        mult: t.mult + r.mult,
        add: t.add + r.add,
        ntt: t.ntt + r.ntt,
    }
}

/// Words transferred between lane groups for one homomorphic multiplication
/// / rotation on CraterLake's fixed transpose network (Sec. 4.3): `8·N·L`
/// and `10·N·L` respectively.
pub fn craterlake_net_words_mul(n: usize, l: usize) -> u64 {
    8 * n as u64 * l as u64
}

/// See [`craterlake_net_words_mul`]; rotations move `10·N·L` words.
pub fn craterlake_net_words_rot(n: usize, l: usize) -> u64 {
    10 * n as u64 * l as u64
}

/// Words crossing the cluster interconnect per homomorphic operation on a
/// cluster architecture with `g` clusters (Sec. 4.3): `3·G·N·L`.
pub fn cluster_net_words(n: usize, l: usize, g: usize) -> u64 {
    3 * g as u64 * n as u64 * l as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_formulas_at_l60() {
        // Table 1's L=60 column.
        let b = boosted_keyswitch_ops(60, 1);
        assert_eq!(b.mult, 10_800 + 240);
        assert_eq!(b.add, 10_800 + 120);
        assert_eq!(b.ntt, 360);
        assert_eq!(boosted_keyswitch_crb_mult(60, 1), 10_800);
        let s = standard_keyswitch_ops(60);
        assert_eq!(s.mult, 7_200);
        assert_eq!(s.add, 7_200);
        assert_eq!(s.ntt, 3_600);
    }

    #[test]
    fn boosted_uses_10x_fewer_ntts_at_l60() {
        // Sec. 3: "a 10x reduction for L=60".
        let b = boosted_keyswitch_ops(60, 1).ntt;
        let s = standard_keyswitch_ops(60).ntt;
        assert_eq!(s / b, 10);
    }

    #[test]
    fn ksh_sizes_match_paper() {
        // Sec. 3: at N=64K, L=60, a boosted hint takes ~52.5 MB vs ~1.7 GB
        // standard.
        let n = 1 << 16;
        let boosted = boosted_ksh_bytes(n, 60, 1, 28, false) as f64 / (1024.0 * 1024.0);
        assert!((50.0..58.0).contains(&boosted), "boosted: {boosted} MB");
        let standard = standard_ksh_bytes(n, 60, 28, false) as f64 / (1024.0 * 1024.0 * 1024.0);
        assert!((1.5..1.8).contains(&standard), "standard: {standard} GB");
        // Seeding halves it (Sec. 5.2: 50 MB -> 25 MB).
        assert_eq!(
            boosted_ksh_bytes(n, 60, 1, 28, true) * 2,
            boosted_ksh_bytes(n, 60, 1, 28, false)
        );
    }

    #[test]
    fn ksh_grows_with_digits() {
        // Sec. 3.1: hints are t+1 ciphertexts for t digits.
        let n = 1 << 16;
        let l = 60;
        let ct = ciphertext_bytes(n, l, 28) as f64;
        for t in 1..=4usize {
            let ksh = boosted_ksh_bytes(n, l, t, 28, false) as f64;
            let expect = (t as f64) * (l as f64 + (l as f64 / t as f64).ceil()) / l as f64;
            assert!(
                (ksh / ct - expect).abs() < 0.05,
                "t={t}: {} vs {expect}",
                ksh / ct
            );
            assert!((ksh / ct - (t as f64 + 1.0)).abs() < 0.25);
        }
    }

    #[test]
    fn ciphertext_size_matches_paper() {
        // 25-27 MB ciphertexts at N=64K, L=60 (Sec. 1: "tens of MBs",
        // Sec. 6: 26 MB).
        let mb = ciphertext_bytes(1 << 16, 60, 28) as f64 / (1024.0 * 1024.0);
        assert!((25.0..28.0).contains(&mb), "{mb} MB");
        // F1's regime: 2 MB at N=16K, L=16.
        let f1 = ciphertext_bytes(1 << 14, 16, 32) as f64 / (1024.0 * 1024.0);
        assert!((1.8..2.2).contains(&f1), "{f1} MB");
    }

    #[test]
    fn crossover_near_l14() {
        // Sec. 8: "boosted keyswitching becomes more efficient for L > 14".
        let x = boosted_crossover_level(1 << 16);
        assert!((8..=20).contains(&x), "crossover at {x}");
    }

    #[test]
    fn fig4_shapes() {
        // Standard grows quadratically, boosted linearly in footprint; both
        // grow in compute but standard much faster at high L.
        let n = 1 << 16;
        let (s20, b20) = fig4_footprint(n, 20, 28);
        let (s60, b60) = fig4_footprint(n, 60, 28);
        assert!(s60 as f64 / s20 as f64 > 8.0, "standard footprint ~quadratic");
        assert!((b60 as f64 / b20 as f64) < 3.5, "boosted footprint ~linear");
        let (sc20, bc20) = fig4_compute(n, 20);
        let (sc60, bc60) = fig4_compute(n, 60);
        assert!(sc60 > bc60, "standard compute worse at L=60");
        // At small L they are comparable (Fig. 4: similar costs for small L).
        let ratio = sc20 as f64 / bc20 as f64;
        assert!((0.3..3.0).contains(&ratio));
        let _ = (s20, b20);
    }

    #[test]
    fn scalar_mul_accounting() {
        let c = OpCounts {
            mult: 2,
            add: 5,
            ntt: 1,
        };
        // n=16: 2*16 + 1*(8*4) = 64.
        assert_eq!(c.scalar_muls(16), 64);
    }

    #[test]
    fn mul_aux_is_defined_down_to_one_limb() {
        // l=1: tensor still runs; the rescale terms 2(l-1) vanish.
        let c = mul_aux_ops(1);
        assert_eq!(c.mult, 4);
        assert_eq!(c.add, 3);
        assert_eq!(c.ntt, 2);
    }

    #[test]
    #[should_panic(expected = "budget must be >= 1")]
    fn mul_aux_rejects_zero_limbs() {
        // Regression: l=0 used to underflow `l - 1` in release-mode wrapping
        // (and panic only in debug) instead of reporting the misuse.
        let _ = mul_aux_ops(0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn scalar_muls_rejects_non_power_of_two_degree() {
        // Regression: trailing_zeros(24) = 3 silently stood in for log2.
        let c = OpCounts {
            mult: 1,
            add: 1,
            ntt: 1,
        };
        let _ = c.scalar_muls(24);
    }

    #[test]
    fn higher_digit_variants_cost_more_outside_crb() {
        // Sec. 3.1: multiplications outside changeRNSBase grow ~(1+t).
        let l = 60;
        let base = boosted_keyswitch_ops(l, 1);
        let four = boosted_keyswitch_ops(l, 4);
        let outside1 = base.mult - boosted_keyswitch_crb_mult(l, 1);
        let outside4 = four.mult - boosted_keyswitch_crb_mult(l, 4);
        let growth = outside4 as f64 / outside1 as f64;
        assert!((2.0..3.0).contains(&growth), "growth {growth}");
        // But CRB work shrinks (smaller alpha).
        assert!(boosted_keyswitch_crb_mult(l, 4) < boosted_keyswitch_crb_mult(l, 1));
    }
}

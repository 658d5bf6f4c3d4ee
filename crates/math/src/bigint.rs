//! A minimal arbitrary-precision unsigned integer.
//!
//! RNS arithmetic (Sec. 2.4) never materializes wide integers at runtime,
//! but tests need an exact reference to validate base conversion, rescaling
//! and CRT round-trips. This type provides just the operations those checks
//! need; it is not a general-purpose bignum.

use std::cmp::Ordering;

/// An unsigned big integer stored as little-endian 64-bit limbs.
///
/// # Example
///
/// ```
/// use cl_math::BigUint;
/// let q = [268369921u64, 268361729];
/// let x = BigUint::crt_combine(&[123, 456], &q);
/// assert_eq!(x.rem_u64(q[0]), 123);
/// assert_eq!(x.rem_u64(q[1]), 456);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BigUint {
    /// Little-endian limbs; no trailing zero limbs (canonical form).
    limbs: Vec<u64>,
}

impl BigUint {
    /// The value zero.
    pub fn zero() -> Self {
        Self { limbs: Vec::new() }
    }

    /// Creates a big integer from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            Self { limbs: vec![v] }
        }
    }

    /// True if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Number of significant bits.
    pub fn bits(&self) -> u32 {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() as u32 - 1) * 64 + (64 - top.leading_zeros()),
        }
    }

    fn trim(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Adds `other` to `self`.
    pub fn add_assign(&mut self, other: &BigUint) {
        let mut carry = 0u64;
        let max_len = self.limbs.len().max(other.limbs.len());
        self.limbs.resize(max_len, 0);
        for i in 0..max_len {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (s1, c1) = self.limbs[i].overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            self.limbs[i] = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry > 0 {
            self.limbs.push(carry);
        }
    }

    /// Subtracts `other` from `self`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self`.
    pub fn sub_assign(&mut self, other: &BigUint) {
        assert!(*self >= *other, "BigUint subtraction underflow");
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            self.limbs[i] = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        self.trim();
    }

    /// Returns `self * m`.
    pub fn mul_u64(&self, m: u64) -> BigUint {
        if m == 0 || self.is_zero() {
            return BigUint::zero();
        }
        let mut out = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry = 0u128;
        for &l in &self.limbs {
            let prod = l as u128 * m as u128 + carry;
            out.push(prod as u64);
            carry = prod >> 64;
        }
        if carry > 0 {
            out.push(carry as u64);
        }
        BigUint { limbs: out }
    }

    /// Divides by a `u64`, returning quotient and remainder.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn div_rem_u64(&self, d: u64) -> (BigUint, u64) {
        assert!(d != 0, "division by zero");
        let mut quot = vec![0u64; self.limbs.len()];
        let mut rem = 0u128;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | self.limbs[i] as u128;
            quot[i] = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        let mut q = BigUint { limbs: quot };
        q.trim();
        (q, rem as u64)
    }

    /// Remainder modulo a `u64`.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn rem_u64(&self, d: u64) -> u64 {
        self.div_rem_u64(d).1
    }

    /// Reduces `self` modulo `m` by repeated subtraction of shifted copies.
    ///
    /// Efficient when `self / m` is small (the only case our tests need).
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn rem_big(&self, m: &BigUint) -> BigUint {
        assert!(!m.is_zero(), "modulus must be nonzero");
        let mut r = self.clone();
        while r >= *m {
            // Subtract the largest m * 2^k that fits.
            let shift = r.bits().saturating_sub(m.bits());
            let mut candidate = m.shl_bits(shift);
            if candidate > r {
                candidate = m.shl_bits(shift - 1);
            }
            r.sub_assign(&candidate);
        }
        r
    }

    /// Returns `self << bits`.
    pub fn shl_bits(&self, bits: u32) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = (bits / 64) as usize;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry > 0 {
                out.push(carry);
            }
        }
        let mut r = BigUint { limbs: out };
        r.trim();
        r
    }

    /// Returns `self >> 1`.
    pub fn shr1(&self) -> BigUint {
        let mut out = vec![0u64; self.limbs.len()];
        let mut carry = 0u64;
        for i in (0..self.limbs.len()).rev() {
            out[i] = (self.limbs[i] >> 1) | (carry << 63);
            carry = self.limbs[i] & 1;
        }
        let mut r = BigUint { limbs: out };
        r.trim();
        r
    }

    /// Approximate conversion to `f64` (for tolerance-based test checks).
    pub fn to_f64(&self) -> f64 {
        let mut acc = 0.0f64;
        for &l in self.limbs.iter().rev() {
            acc = acc * 2f64.powi(64) + l as f64;
        }
        acc
    }

    /// Product of a list of word-sized moduli.
    pub fn product(moduli: &[u64]) -> BigUint {
        let mut acc = BigUint::from_u64(1);
        for &q in moduli {
            acc = acc.mul_u64(q);
        }
        acc
    }

    /// Reconstructs the unique `x in [0, prod(moduli))` with
    /// `x ≡ residues[i] (mod moduli[i])` via the CRT. For more than one
    /// value over the same moduli, build their [`CrtBasis`] once.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ or the moduli are not pairwise coprime
    /// primes (the inverse computation would fail).
    pub fn crt_combine(residues: &[u64], moduli: &[u64]) -> BigUint {
        CrtBasis::new(moduli).combine(residues)
    }

    /// Interprets `self` (a residue mod `q`) as a centered value and returns
    /// `(negative, magnitude)` where the value is `magnitude` or
    /// `-magnitude`.
    pub fn centered(&self, q: &BigUint) -> (bool, BigUint) {
        let half = q.shr1();
        if *self > half {
            let mut mag = q.clone();
            mag.sub_assign(self);
            (true, mag)
        } else {
            (false, self.clone())
        }
    }
}

/// The CRT constants of one basis of word-sized primes `q_i`: their product
/// `Q`, and per prime `Q / q_i` and `(Q / q_i)^{-1} mod q_i`. They depend
/// only on the basis, so a decoder builds them once and
/// [`combine`](CrtBasis::combine) does only the per-value work.
///
/// # Example
///
/// ```
/// use cl_math::{BigUint, CrtBasis};
/// let basis = CrtBasis::new(&[268369921, 268361729]);
/// let x = basis.combine(&[123, 456]);
/// assert_eq!(x, BigUint::crt_combine(&[123, 456], &[268369921, 268361729]));
/// assert!(x < *basis.product());
/// ```
#[derive(Debug, Clone)]
pub struct CrtBasis {
    q: BigUint,
    /// Per prime: its `Modulus`, `Q / q_i` and `(Q / q_i)^{-1} mod q_i`.
    terms: Vec<(crate::Modulus, BigUint, u64)>,
}

impl CrtBasis {
    /// Precomputes the constants of `moduli`.
    ///
    /// # Panics
    ///
    /// Panics unless the moduli are pairwise coprime primes in
    /// [`Modulus`](crate::Modulus)'s range (the inverses would not exist).
    pub fn new(moduli: &[u64]) -> Self {
        let q = BigUint::product(moduli);
        let terms = moduli
            .iter()
            .map(|&qi| {
                let (qi_hat, rem) = q.div_rem_u64(qi); // Q / qi
                debug_assert_eq!(rem, 0);
                let m = crate::Modulus::new(qi).expect("modulus in range");
                let inv = m.inv(qi_hat.rem_u64(qi));
                (m, qi_hat, inv)
            })
            .collect();
        CrtBasis { q, terms }
    }

    /// The product `Q` of the basis.
    pub fn product(&self) -> &BigUint {
        &self.q
    }

    /// The unique `x in [0, Q)` with `x ≡ residues[i] (mod q_i)`.
    ///
    /// # Panics
    ///
    /// Panics unless there is one residue per prime.
    pub fn combine(&self, residues: &[u64]) -> BigUint {
        assert_eq!(residues.len(), self.terms.len());
        let mut acc = BigUint::zero();
        for (&r, (m, qi_hat, inv)) in residues.iter().zip(&self.terms) {
            let coeff = m.mul(r % m.value(), *inv);
            acc.add_assign(&qi_hat.mul_u64(coeff));
        }
        acc.rem_big(&self.q)
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for i in (0..self.limbs.len()).rev() {
                    match self.limbs[i].cmp(&other.limbs[i]) {
                        Ordering::Equal => continue,
                        o => return o,
                    }
                }
                Ordering::Equal
            }
            o => o,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn add_sub_roundtrip_u128_scale() {
        let a = BigUint::from_u64(u64::MAX).mul_u64(u64::MAX);
        let b = BigUint::from_u64(12345);
        let mut c = a.clone();
        c.add_assign(&b);
        c.sub_assign(&b);
        assert_eq!(c, a);
    }

    #[test]
    fn div_rem_matches_u128() {
        let a = BigUint::from_u64(0xDEAD_BEEF_CAFE_BABE).mul_u64(0x1234_5678_9ABC_DEF0);
        let d = 1_000_000_007u64;
        let (q, r) = a.div_rem_u64(d);
        let a128 = 0xDEAD_BEEF_CAFE_BABEu128 * 0x1234_5678_9ABC_DEF0u128;
        assert_eq!(r as u128, a128 % d as u128);
        let mut recomposed = q.mul_u64(d);
        recomposed.add_assign(&BigUint::from_u64(r));
        assert_eq!(recomposed, a);
    }

    #[test]
    fn shifts() {
        let a = BigUint::from_u64(1).shl_bits(130);
        assert_eq!(a.bits(), 131);
        assert_eq!(a.shr1().bits(), 130);
        assert_eq!(BigUint::from_u64(6).shr1(), BigUint::from_u64(3));
    }

    #[test]
    fn crt_roundtrip_three_moduli() {
        let moduli = [268369921u64, 268361729, 268271617];
        let residues = [1234567u64, 89101112, 13141516];
        let x = BigUint::crt_combine(&residues, &moduli);
        for (&r, &q) in residues.iter().zip(&moduli) {
            assert_eq!(x.rem_u64(q), r);
        }
        let prod = BigUint::product(&moduli);
        assert!(x < prod);
    }

    #[test]
    fn centered_lift() {
        let q = BigUint::from_u64(17);
        let (neg, mag) = BigUint::from_u64(15).centered(&q);
        assert!(neg);
        assert_eq!(mag, BigUint::from_u64(2));
        let (neg, mag) = BigUint::from_u64(3).centered(&q);
        assert!(!neg);
        assert_eq!(mag, BigUint::from_u64(3));
    }

    proptest! {
        #[test]
        fn mul_div_roundtrip(v in any::<u64>(), m in 1u64..u64::MAX) {
            let a = BigUint::from_u64(v).mul_u64(m);
            let (q, r) = a.div_rem_u64(m);
            prop_assert_eq!(r, 0);
            prop_assert_eq!(q, BigUint::from_u64(v));
        }

        /// `CrtBasis::combine` against Garner's incremental CRT, written
        /// independently below: over 2–8 distinct primes of one width in
        /// 28–59 bits, the unique `x < Q` with every residue.
        #[test]
        fn crt_basis_matches_garner(
            bits in 28u32..60,
            count in 2usize..9,
            seed in any::<u64>(),
        ) {
            let moduli = crate::generate_ntt_primes(16, bits, count).expect("enough primes of each width");
            let residues: Vec<u64> = moduli
                .iter()
                .enumerate()
                .map(|(i, &q)| seed.rotate_left(7 * i as u32).wrapping_mul(0x9e37_79b9_7f4a_7c15) % q)
                .collect();
            // Garner: x stays the CRT lift over the primes so far, and each
            // step adds the multiple t * M of their product M that also
            // fixes the next residue.
            let mut x = BigUint::zero();
            let mut m_big = BigUint::from_u64(1);
            for (&r, &q) in residues.iter().zip(&moduli) {
                let m = crate::Modulus::new(q).expect("prime in range");
                let t = m.mul(m.sub(r, x.rem_u64(q)), m.inv(m_big.rem_u64(q)));
                x.add_assign(&m_big.mul_u64(t));
                m_big = m_big.mul_u64(q);
            }
            let basis = CrtBasis::new(&moduli);
            prop_assert_eq!(basis.product(), &m_big);
            prop_assert_eq!(basis.combine(&residues), x.clone());
            prop_assert_eq!(BigUint::crt_combine(&residues, &moduli), x);
        }

        #[test]
        fn crt_two_moduli(a in 0u64..268369921, b in 0u64..268361729) {
            let moduli = [268369921u64, 268361729];
            let x = BigUint::crt_combine(&[a, b], &moduli);
            prop_assert_eq!(x.rem_u64(moduli[0]), a);
            prop_assert_eq!(x.rem_u64(moduli[1]), b);
        }

        #[test]
        fn ordering_consistent_with_u128(a in any::<u64>(), b in any::<u64>(), c in any::<u64>(), d in any::<u64>()) {
            let x = BigUint::from_u64(a).mul_u64(b);
            let y = BigUint::from_u64(c).mul_u64(d);
            let x128 = a as u128 * b as u128;
            let y128 = c as u128 * d as u128;
            prop_assert_eq!(x.cmp(&y), x128.cmp(&y128));
        }
    }
}

//! The residue polynomial container.

use crate::{Basis, RnsError};

/// A polynomial over a sub-basis of an [`crate::RnsContext`]'s moduli.
///
/// Storage is limb-major: all `n` coefficients of the first residue
/// polynomial, then the second, and so on — matching how CraterLake streams
/// one residue polynomial at a time through its vector functional units.
///
/// The `ntt_form` flag records which domain the data is in; operations that
/// require a particular domain assert it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RnsPoly {
    n: usize,
    basis: Basis,
    coeffs: Vec<u64>,
    ntt_form: bool,
}

impl RnsPoly {
    /// An all-zero polynomial over `basis` in coefficient form.
    pub fn zero(n: usize, basis: Basis) -> Self {
        let len = n * basis.len();
        Self {
            n,
            basis,
            coeffs: vec![0; len],
            ntt_form: false,
        }
    }

    /// Rebuilds a polynomial from previously extracted raw parts.
    ///
    /// This is the fallible constructor used by deserialization: it validates
    /// that the coefficient slab length matches `n * basis.len()` and that the
    /// basis contains no duplicate limbs, returning
    /// [`RnsError::InvalidParameter`] otherwise. It does **not** check residue
    /// ranges — callers that need that (e.g. ciphertext loaders) validate
    /// against their modulus chain separately.
    pub fn from_raw_parts(
        n: usize,
        basis: Basis,
        coeffs: Vec<u64>,
        ntt_form: bool,
    ) -> Result<Self, RnsError> {
        if n == 0 {
            return Err(RnsError::InvalidParameter(
                "ring degree must be non-zero".into(),
            ));
        }
        if coeffs.len() != n * basis.len() {
            return Err(RnsError::InvalidParameter(format!(
                "coefficient slab has {} words, expected {} (n={} x {} limbs)",
                coeffs.len(),
                n * basis.len(),
                n,
                basis.len()
            )));
        }
        // A bitmap of the global indices < 128: a duplicate collapses two
        // bits into one, so a popcount mismatch detects it. Indices >= 128
        // (never produced by our parameter sets) get an exact scan.
        let small = || basis.0.iter().filter(|&&l| l < 128);
        let mask = small().fold(0u128, |acc, &l| acc | (1u128 << l));
        let mut dup = mask.count_ones() as usize != small().count();
        if !dup && small().count() != basis.len() {
            let mut seen = basis.0.clone();
            seen.sort_unstable();
            dup = seen.windows(2).any(|w| w[0] == w[1]);
        }
        if dup {
            return Err(RnsError::InvalidParameter(
                "basis contains a duplicate limb".into(),
            ));
        }
        Ok(Self {
            n,
            basis,
            coeffs,
            ntt_form,
        })
    }

    /// Ring degree.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The basis this polynomial lives in.
    #[inline]
    pub fn basis(&self) -> &Basis {
        &self.basis
    }

    /// Number of residue polynomials (limbs).
    #[inline]
    pub fn num_limbs(&self) -> usize {
        self.basis.len()
    }

    /// Whether the data is in the NTT (evaluation) domain.
    #[inline]
    pub fn ntt_form(&self) -> bool {
        self.ntt_form
    }

    /// Sets the domain flag (used by the context's transform routines).
    #[inline]
    pub fn set_ntt_form(&mut self, ntt: bool) {
        self.ntt_form = ntt;
    }

    /// The `k`-th residue polynomial (by position within the basis).
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[inline]
    pub fn limb(&self, k: usize) -> &[u64] {
        &self.coeffs[k * self.n..(k + 1) * self.n]
    }

    /// Mutable access to the `k`-th residue polynomial.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[inline]
    pub fn limb_mut(&mut self, k: usize) -> &mut [u64] {
        &mut self.coeffs[k * self.n..(k + 1) * self.n]
    }

    /// Iterator over `(global limb index, residue polynomial)` pairs.
    pub fn limbs(&self) -> impl Iterator<Item = (u32, &[u64])> {
        self.basis
            .0
            .iter()
            .copied()
            .zip(self.coeffs.chunks_exact(self.n))
    }

    /// The full limb-major coefficient slab.
    #[inline]
    pub fn coeffs(&self) -> &[u64] {
        &self.coeffs
    }

    /// Splits the polynomial into its basis and the mutable coefficient slab.
    ///
    /// The parallel execution engine needs to read the basis (to look up
    /// per-limb moduli) while handing disjoint `n`-word chunks of the slab to
    /// worker threads; a plain `&mut self` borrow would forbid that.
    #[inline]
    pub fn parts_mut(&mut self) -> (&Basis, &mut [u64]) {
        (&self.basis, &mut self.coeffs)
    }

    /// Keeps the first `limbs` limbs and releases the rest, storage
    /// included: the slab is shrunk in place, so a polynomial built over a
    /// wide basis (an extended-basis accumulator) can become its own
    /// narrower result without a copy.
    ///
    /// # Panics
    ///
    /// Panics if `limbs` exceeds the limb count.
    pub fn truncate_limbs(&mut self, limbs: usize) {
        assert!(limbs <= self.basis.len(), "cannot keep more limbs than present");
        self.basis.0.truncate(limbs);
        self.coeffs.truncate(limbs * self.n);
        self.coeffs.shrink_to_fit();
    }

    /// Total number of machine words of payload (used by footprint
    /// accounting).
    #[inline]
    pub fn num_words(&self) -> usize {
        self.coeffs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_has_requested_shape() {
        let p = RnsPoly::zero(16, Basis(vec![0, 2, 5]));
        assert_eq!(p.n(), 16);
        assert_eq!(p.num_limbs(), 3);
        assert_eq!(p.num_words(), 48);
        assert!(!p.ntt_form());
        assert!(p.limb(2).iter().all(|&x| x == 0));
    }

    #[test]
    fn limb_views_are_disjoint() {
        let mut p = RnsPoly::zero(4, Basis(vec![0, 1]));
        p.limb_mut(0).copy_from_slice(&[1, 2, 3, 4]);
        p.limb_mut(1).copy_from_slice(&[5, 6, 7, 8]);
        assert_eq!(p.limb(0), &[1, 2, 3, 4]);
        assert_eq!(p.limb(1), &[5, 6, 7, 8]);
    }

    #[test]
    fn from_raw_parts_validates_shape() {
        let p = RnsPoly::from_raw_parts(2, Basis(vec![0, 3]), vec![1, 2, 3, 4], true).unwrap();
        assert_eq!(p.limb(1), &[3, 4]);
        assert!(p.ntt_form());
        // Wrong slab length.
        assert!(RnsPoly::from_raw_parts(2, Basis(vec![0, 3]), vec![1, 2, 3], true).is_err());
        // Duplicate limb.
        assert!(RnsPoly::from_raw_parts(2, Basis(vec![3, 3]), vec![1, 2, 3, 4], false).is_err());
        // Zero degree.
        assert!(RnsPoly::from_raw_parts(0, Basis(vec![]), vec![], false).is_err());
    }

    #[test]
    fn truncate_limbs_keeps_the_leading_limbs() {
        let mut p =
            RnsPoly::from_raw_parts(2, Basis(vec![0, 3, 5]), vec![1, 2, 3, 4, 5, 6], true).unwrap();
        p.truncate_limbs(2);
        let want = RnsPoly::from_raw_parts(2, Basis(vec![0, 3]), vec![1, 2, 3, 4], true).unwrap();
        assert_eq!(p, want);
    }

    #[test]
    fn limbs_iterator_pairs_indices() {
        let mut p = RnsPoly::zero(2, Basis(vec![7, 9]));
        p.limb_mut(0).copy_from_slice(&[1, 2]);
        p.limb_mut(1).copy_from_slice(&[3, 4]);
        let pairs: Vec<(u32, Vec<u64>)> = p.limbs().map(|(i, s)| (i, s.to_vec())).collect();
        assert_eq!(pairs, vec![(7, vec![1, 2]), (9, vec![3, 4])]);
    }
}

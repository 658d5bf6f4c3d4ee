//! The RNS context: ring degree, modulus chains, and NTT tables.
//!
//! Every per-limb operation dispatches its limbs across the global worker
//! pool (`CL_THREADS` threads; see `vendor/rayon`): limbs are fully
//! data-independent — exactly the parallelism CraterLake exploits by
//! streaming one residue polynomial per vector-lane group — so results are
//! bit-identical at every thread count.

use std::fmt;
use std::sync::Arc;

use cl_math::{generate_ntt_primes, MathError, Modulus, NttTable};
use rand::Rng;
use rayon::prelude::*;

use crate::RnsPoly;

/// Errors produced by RNS operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RnsError {
    /// Underlying math error (e.g. prime generation).
    Math(MathError),
    /// Two polynomials had incompatible bases.
    BasisMismatch {
        /// Basis of the left operand.
        left: Vec<u32>,
        /// Basis of the right operand.
        right: Vec<u32>,
    },
    /// A parameter was outside the supported range.
    InvalidParameter(String),
}

impl fmt::Display for RnsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RnsError::Math(e) => write!(f, "math error: {e}"),
            RnsError::BasisMismatch { left, right } => {
                write!(f, "basis mismatch: {left:?} vs {right:?}")
            }
            RnsError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl std::error::Error for RnsError {}

impl From<MathError> for RnsError {
    fn from(e: MathError) -> Self {
        RnsError::Math(e)
    }
}

/// An ordered set of limb indices into an [`RnsContext`]'s global modulus
/// list, identifying the basis a polynomial lives in.
///
/// Indices `0..num_q` are ciphertext moduli `q_1..q_L`; indices `num_q..`
/// are the special moduli `p_1..p_k` used by boosted keyswitching.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Basis(pub Vec<u32>);

impl Basis {
    /// Number of limbs.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the basis has no limbs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Concatenation of two disjoint bases.
    ///
    /// # Panics
    ///
    /// Panics if the bases share a limb.
    pub fn union(&self, other: &Basis) -> Basis {
        let mut v = self.0.clone();
        for &i in &other.0 {
            assert!(!v.contains(&i), "bases must be disjoint");
            v.push(i);
        }
        Basis(v)
    }
}

/// Shared parameters for a family of RNS polynomials: the ring degree `n`,
/// the ciphertext modulus chain, the special moduli, and NTT tables for all
/// of them.
#[derive(Debug)]
pub struct RnsContext {
    n: usize,
    moduli: Vec<u64>,
    modulus_structs: Vec<Modulus>,
    /// Shared via the process-wide `(n, q)` cache: contexts over the same
    /// chain (every test fixture, every `CkksContext`) reuse one table
    /// allocation per modulus instead of rebuilding `O(n log n)` twiddles.
    tables: Vec<Arc<NttTable>>,
    num_q: usize,
}

impl RnsContext {
    /// Builds a context from explicit moduli lists.
    ///
    /// # Errors
    ///
    /// Returns [`RnsError::InvalidParameter`] if any modulus is not an
    /// NTT-friendly prime for ring degree `n`, or if moduli repeat.
    pub fn new(n: usize, q_moduli: &[u64], p_moduli: &[u64]) -> Result<Self, RnsError> {
        let mut moduli: Vec<u64> = q_moduli.to_vec();
        moduli.extend_from_slice(p_moduli);
        if moduli.is_empty() {
            return Err(RnsError::InvalidParameter("empty modulus list".into()));
        }
        let mut seen = moduli.clone();
        seen.sort_unstable();
        if seen.windows(2).any(|w| w[0] == w[1]) {
            return Err(RnsError::InvalidParameter("repeated modulus".into()));
        }
        let mut tables = Vec::with_capacity(moduli.len());
        let mut modulus_structs = Vec::with_capacity(moduli.len());
        for &q in &moduli {
            let t = NttTable::cached(n, q).ok_or_else(|| {
                RnsError::InvalidParameter(format!("{q} is not an NTT-friendly prime for n={n}"))
            })?;
            modulus_structs.push(*t.modulus());
            tables.push(t);
        }
        Ok(Self {
            n,
            moduli,
            modulus_structs,
            tables,
            num_q: q_moduli.len(),
        })
    }

    /// Generates a context with `q_count` ciphertext moduli and `p_count`
    /// special moduli, all primes of `bits` bits.
    ///
    /// # Errors
    ///
    /// Propagates prime-generation failures (e.g. not enough primes of the
    /// requested width).
    pub fn generate(n: usize, q_count: usize, p_count: usize, bits: u32) -> Result<Self, RnsError> {
        let primes = generate_ntt_primes(n, bits, q_count + p_count)?;
        Self::new(n, &primes[..q_count], &primes[q_count..])
    }

    /// Ring degree.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of ciphertext moduli (`L_max`).
    #[inline]
    pub fn num_q(&self) -> usize {
        self.num_q
    }

    /// Number of special moduli.
    #[inline]
    pub fn num_p(&self) -> usize {
        self.moduli.len() - self.num_q
    }

    /// The modulus value for a global limb index.
    ///
    /// # Panics
    ///
    /// Panics if `limb` is out of range.
    #[inline]
    pub fn modulus_value(&self, limb: u32) -> u64 {
        self.moduli[limb as usize]
    }

    /// The [`Modulus`] arithmetic helper for a global limb index.
    #[inline]
    pub fn modulus(&self, limb: u32) -> &Modulus {
        &self.modulus_structs[limb as usize]
    }

    /// The NTT table for a global limb index.
    #[inline]
    pub fn ntt_table(&self, limb: u32) -> &NttTable {
        &self.tables[limb as usize]
    }

    /// The basis `q_1..q_level` (the first `level` ciphertext moduli).
    ///
    /// # Panics
    ///
    /// Panics if `level` exceeds the number of ciphertext moduli.
    pub fn q_basis(&self, level: usize) -> Basis {
        assert!(level <= self.num_q, "level exceeds modulus chain");
        Basis((0..level as u32).collect())
    }

    /// The basis of the first `count` special moduli.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds the number of special moduli.
    pub fn p_basis(&self, count: usize) -> Basis {
        assert!(count <= self.num_p(), "not enough special moduli");
        Basis((self.num_q as u32..(self.num_q + count) as u32).collect())
    }

    /// Allocates an all-zero polynomial over `basis`, in NTT form.
    pub fn zero(&self, basis: &Basis) -> RnsPoly {
        RnsPoly::zero(self.n, basis.clone())
    }

    /// Runs `f(local index, global limb, limb data)` for every limb of `p`,
    /// dispatching the disjoint `n`-word limb chunks across the worker pool.
    ///
    /// This is the limb-level execution engine: one task per residue
    /// polynomial, mirroring how CraterLake schedules whole residue
    /// polynomials onto its lane groups. Items are data-independent, so the
    /// result is bit-identical at any thread count.
    fn par_limbs(&self, p: &mut RnsPoly, f: impl Fn(usize, u32, &mut [u64]) + Sync) {
        let n = self.n;
        let (basis, coeffs) = p.parts_mut();
        let limbs = &basis.0;
        coeffs
            .par_chunks_mut(n)
            .enumerate()
            .for_each(|(k, chunk)| f(k, limbs[k], chunk));
    }

    /// Samples a polynomial with uniformly random residues (NTT form —
    /// uniform is uniform in either domain).
    pub fn sample_uniform<R: Rng + ?Sized>(&self, basis: &Basis, rng: &mut R) -> RnsPoly {
        let mut p = RnsPoly::zero(self.n, basis.clone());
        for (k, &limb) in basis.0.iter().enumerate() {
            let q = self.moduli[limb as usize];
            for c in p.limb_mut(k) {
                *c = rng.gen_range(0..q);
            }
        }
        p.set_ntt_form(true);
        p
    }

    /// Deterministically expands `(seed, domain)` into a polynomial with
    /// uniformly pseudorandom residues (NTT form) — the software KSHGen
    /// generator.
    ///
    /// Each limb's residues come from an independent splitmix64 counter
    /// stream keyed by `(seed, domain, global limb index)`, so the output is
    /// bit-identical at any thread count and for any basis containing the
    /// same global limbs. The raw 64-bit words are reduced into `[0, q)` by
    /// the vectorized [`cl_math::Modulus::reduce_raw_slice`] kernel; the
    /// modulo bias is at most `q / 2^64 < 2^-4` per residue *probability*
    /// deviation — negligible against the `2^-40`-grade uniformity the hint
    /// half needs, and identical on every backend.
    ///
    /// `domain` separates independent streams drawn from one seed (the
    /// keyswitch digit index).
    pub fn sample_uniform_seeded(&self, basis: &Basis, seed: u64, domain: u64) -> RnsPoly {
        let mut p = RnsPoly::zero(self.n, basis.clone());
        self.par_limbs(&mut p, |_, limb, data| {
            let mut state = stream_key(seed, domain, limb);
            for c in data.iter_mut() {
                *c = splitmix64(&mut state);
            }
            self.modulus_structs[limb as usize].reduce_raw_slice(data);
        });
        p.set_ntt_form(true);
        cl_trace::record_hint_regen(basis.len() as u64);
        p
    }

    /// Samples a polynomial with ternary coefficients in `{-1, 0, 1}`
    /// (coefficient form). Used for secret keys.
    pub fn sample_ternary<R: Rng + ?Sized>(&self, basis: &Basis, rng: &mut R) -> RnsPoly {
        let signed: Vec<i64> = (0..self.n).map(|_| rng.gen_range(-1i64..=1)).collect();
        self.from_signed_coeffs(&signed, basis)
    }

    /// Samples a polynomial with centered-binomial error coefficients of
    /// standard deviation ~3.2 (coefficient form). Used for encryption noise.
    pub fn sample_error<R: Rng + ?Sized>(&self, basis: &Basis, rng: &mut R) -> RnsPoly {
        // Sum of 21 signed coin flips: variance 21/2 ≈ 10.5, sigma ≈ 3.24.
        let signed: Vec<i64> = (0..self.n)
            .map(|_| {
                let mut s = 0i64;
                for _ in 0..21 {
                    s += rng.gen_range(0..=1) as i64 * 2 - 1;
                }
                s / 2
            })
            .collect();
        self.from_signed_coeffs(&signed, basis)
    }

    /// Builds a polynomial (coefficient form) from signed integer
    /// coefficients, reduced into each modulus of `basis`.
    ///
    /// # Panics
    ///
    /// Panics if `signed.len() != self.n()`.
    pub fn from_signed_coeffs(&self, signed: &[i64], basis: &Basis) -> RnsPoly {
        assert_eq!(signed.len(), self.n);
        let mut p = RnsPoly::zero(self.n, basis.clone());
        self.par_limbs(&mut p, |_, limb, data| {
            self.modulus_structs[limb as usize].reduce_signed_slice(signed, data);
        });
        p
    }

    /// Converts a polynomial to NTT form in place (no-op if already there).
    pub fn to_ntt(&self, p: &mut RnsPoly) {
        if p.ntt_form() {
            return;
        }
        let (basis, coeffs) = p.parts_mut();
        self.to_ntt_limbs(&basis.0, coeffs);
        p.set_ntt_form(true);
    }

    /// [`RnsContext::to_ntt`] of a bare limb-major slab: the `k`-th
    /// `n`-word limb of `data` is transformed under global limb
    /// `limbs[k]`. For limbs of a polynomial under construction whose
    /// limbs are in different domains (ModUp appends its converted
    /// extension limbs after limbs already in NTT form).
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly `limbs.len()` limbs of the ring
    /// degree.
    pub fn to_ntt_limbs(&self, limbs: &[u32], data: &mut [u64]) {
        assert_eq!(data.len(), limbs.len() * self.n, "slab is not one limb per entry");
        data.par_chunks_mut(self.n)
            .enumerate()
            .for_each(|(k, chunk)| self.tables[limbs[k] as usize].forward(chunk));
    }

    /// [`RnsContext::from_ntt`] of a bare limb-major slab, as
    /// [`RnsContext::to_ntt_limbs`] (ModDown inverse-transforms only the
    /// special limbs of its input).
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly `limbs.len()` limbs of the ring
    /// degree.
    pub fn from_ntt_limbs(&self, limbs: &[u32], data: &mut [u64]) {
        assert_eq!(data.len(), limbs.len() * self.n, "slab is not one limb per entry");
        data.par_chunks_mut(self.n)
            .enumerate()
            .for_each(|(k, chunk)| self.tables[limbs[k] as usize].inverse(chunk));
    }

    /// Converts a polynomial to coefficient form in place (no-op if already
    /// there).
    pub fn from_ntt(&self, p: &mut RnsPoly) {
        if !p.ntt_form() {
            return;
        }
        let (basis, coeffs) = p.parts_mut();
        self.from_ntt_limbs(&basis.0, coeffs);
        p.set_ntt_form(false);
    }

    fn check_compatible(&self, a: &RnsPoly, b: &RnsPoly) {
        assert_eq!(
            a.basis(),
            b.basis(),
            "RNS operation on polynomials with different bases"
        );
        assert_eq!(
            a.ntt_form(),
            b.ntt_form(),
            "RNS operation on polynomials in different domains"
        );
    }

    /// Element-wise sum of two polynomials over the same basis and domain.
    ///
    /// # Panics
    ///
    /// Panics if bases or domains differ.
    pub fn add(&self, a: &RnsPoly, b: &RnsPoly) -> RnsPoly {
        self.check_compatible(a, b);
        let mut out = a.clone();
        self.add_assign(&mut out, b);
        out
    }

    /// In-place element-wise sum.
    ///
    /// # Panics
    ///
    /// Panics if bases or domains differ.
    pub fn add_assign(&self, a: &mut RnsPoly, b: &RnsPoly) {
        self.check_compatible(a, b);
        cl_trace::record_add(a.basis().len() as u64, self.n);
        self.par_limbs(a, |k, limb, data| {
            let m = self.modulus_structs[limb as usize];
            m.add_mod_slice(data, b.limb(k));
        });
    }

    /// Element-wise difference.
    ///
    /// # Panics
    ///
    /// Panics if bases or domains differ.
    pub fn sub(&self, a: &RnsPoly, b: &RnsPoly) -> RnsPoly {
        let mut out = a.clone();
        self.sub_assign(&mut out, b);
        out
    }

    /// In-place element-wise difference.
    ///
    /// # Panics
    ///
    /// Panics if bases or domains differ.
    pub fn sub_assign(&self, a: &mut RnsPoly, b: &RnsPoly) {
        self.check_compatible(a, b);
        cl_trace::record_add(a.basis().len() as u64, self.n);
        self.par_limbs(a, |k, limb, data| {
            let m = self.modulus_structs[limb as usize];
            m.sub_mod_slice(data, b.limb(k));
        });
    }

    /// Element-wise negation.
    pub fn neg(&self, a: &RnsPoly) -> RnsPoly {
        let mut out = a.clone();
        self.neg_assign(&mut out);
        out
    }

    /// In-place element-wise negation.
    pub fn neg_assign(&self, a: &mut RnsPoly) {
        cl_trace::record_add(a.basis().len() as u64, self.n);
        self.par_limbs(a, |_, limb, data| {
            let m = self.modulus_structs[limb as usize];
            m.neg_mod_slice(data);
        });
    }

    /// Polynomial product. Both operands must be in NTT form.
    ///
    /// # Panics
    ///
    /// Panics if bases differ or either operand is in coefficient form.
    pub fn mul(&self, a: &RnsPoly, b: &RnsPoly) -> RnsPoly {
        self.check_compatible(a, b);
        assert!(a.ntt_form(), "polynomial product requires NTT form");
        let mut out = a.clone();
        self.mul_assign(&mut out, b);
        out
    }

    /// In-place polynomial product (NTT form).
    ///
    /// # Panics
    ///
    /// Panics if bases differ or either operand is in coefficient form.
    pub fn mul_assign(&self, a: &mut RnsPoly, b: &RnsPoly) {
        self.check_compatible(a, b);
        assert!(a.ntt_form(), "polynomial product requires NTT form");
        cl_trace::record_mult(a.basis().len() as u64, self.n);
        self.par_limbs(a, |k, limb, data| {
            let m = self.modulus_structs[limb as usize];
            m.mul_mod_slice(data, b.limb(k));
        });
    }

    /// Multiply-accumulate: `acc += a * b` (all NTT form, same basis).
    ///
    /// # Panics
    ///
    /// Panics if bases differ or any operand is in coefficient form.
    pub fn mul_acc(&self, acc: &mut RnsPoly, a: &RnsPoly, b: &RnsPoly) {
        self.check_compatible(a, b);
        self.check_compatible(acc, a);
        assert!(acc.ntt_form(), "mul_acc requires NTT form");
        cl_trace::record_mult(acc.basis().len() as u64, self.n);
        cl_trace::record_add(acc.basis().len() as u64, self.n);
        self.par_limbs(acc, |k, limb, data| {
            let m = self.modulus_structs[limb as usize];
            m.mul_acc_mod_slice(data, a.limb(k), b.limb(k));
        });
    }

    /// Multiply-accumulate against a wider polynomial: `acc += a * b`,
    /// where `b` lives in a superset of `acc`'s basis (e.g. a keyswitch
    /// hint over the full chain applied at a lower level). Avoids
    /// materializing `b`'s restriction to the narrower basis.
    ///
    /// # Panics
    ///
    /// Panics if `acc` and `a` differ in basis or domain, any operand is in
    /// coefficient form, or `b` is missing one of `acc`'s limbs.
    pub fn mul_acc_superset(&self, acc: &mut RnsPoly, a: &RnsPoly, b: &RnsPoly) {
        self.check_compatible(acc, a);
        assert!(acc.ntt_form() && b.ntt_form(), "mul_acc requires NTT form");
        cl_trace::record_mult(acc.basis().len() as u64, self.n);
        cl_trace::record_add(acc.basis().len() as u64, self.n);
        let b_basis = &b.basis().0;
        self.par_limbs(acc, |k, limb, data| {
            let m = self.modulus_structs[limb as usize];
            let bk = b_basis
                .iter()
                .position(|&l| l == limb)
                .expect("b's basis must contain every limb of acc");
            m.mul_acc_mod_slice(data, a.limb(k), b.limb(bk));
        });
    }

    /// Like [`RnsContext::mul_acc_superset`], but multiplies the hint by
    /// `σ_galois(a)` instead of `a`, with the automorphism fused into the
    /// accumulation as a gather (`acc[i] += a[perm[i]] * b[i]`).
    ///
    /// In NTT form an automorphism is a pure index permutation, so hoisted
    /// rotation keyswitching can rotate the already-decomposed digit
    /// polynomials without ever materializing the permuted copies. The
    /// result is bit-identical to `mul_acc_superset(acc,
    /// apply_automorphism(a, galois), b)`.
    ///
    /// # Panics
    ///
    /// Same contract as [`RnsContext::mul_acc_superset`].
    pub fn mul_acc_superset_automorph(
        &self,
        acc: &mut RnsPoly,
        a: &RnsPoly,
        galois: u64,
        b: &RnsPoly,
    ) {
        self.check_compatible(acc, a);
        assert!(acc.ntt_form() && b.ntt_form(), "mul_acc requires NTT form");
        cl_trace::record_mult(acc.basis().len() as u64, self.n);
        cl_trace::record_add(acc.basis().len() as u64, self.n);
        cl_trace::record_automorph(acc.basis().len() as u64, self.n);
        let table = cl_math::AutomorphismTable::cached(self.n, galois);
        let b_basis = &b.basis().0;
        self.par_limbs(acc, |k, limb, data| {
            let m = self.modulus_structs[limb as usize];
            let bk = b_basis
                .iter()
                .position(|&l| l == limb)
                .expect("b's basis must contain every limb of acc");
            m.gather_mul_acc_slice(data, a.limb(k), &table, b.limb(bk));
        });
    }

    /// Fused pair accumulation `acc0[i] += σ(a)[i]·b0[i]` and
    /// `acc1[i] += σ(a)[i]·b1[i]` — the keyswitch inner-product shape,
    /// where both hint halves multiply the *same* decomposed digit. One
    /// pass per limb shares the (scattered, cache-unfriendly) gather of
    /// `σ(a)` between both accumulators instead of paying it twice.
    /// `galois` of `None` means the identity automorphism. Bit-identical
    /// to two [`RnsContext::mul_acc_superset`] /
    /// [`RnsContext::mul_acc_superset_automorph`] calls.
    ///
    /// # Panics
    ///
    /// Same contract as [`RnsContext::mul_acc_superset`] for each
    /// accumulator; additionally `acc0` and `acc1` must share a basis, and
    /// every operand must have the context's ring degree.
    pub fn mul_acc_pair_superset(
        &self,
        acc0: &mut RnsPoly,
        acc1: &mut RnsPoly,
        a: &RnsPoly,
        galois: Option<u64>,
        b0: &RnsPoly,
        b1: &RnsPoly,
    ) {
        self.check_compatible(acc0, a);
        self.check_compatible(acc1, a);
        assert_eq!(acc0.basis(), acc1.basis(), "accumulators must share a basis");
        // `acc1` is written through a raw pointer at `self.n`-word strides
        // and the kernels index `a`, `b0` and `b1` by the same stride: a
        // shorter operand over the same basis would run out of bounds.
        let operands = [("acc0", &*acc0), ("acc1", &*acc1), ("a", a), ("b0", b0), ("b1", b1)];
        for (name, p) in operands {
            assert_eq!(p.n(), self.n, "{name} is not of the context's ring degree");
        }
        assert!(
            acc0.ntt_form() && acc1.ntt_form() && b0.ntt_form() && b1.ntt_form(),
            "mul_acc requires NTT form"
        );
        cl_trace::record_mult(2 * acc0.basis().len() as u64, self.n);
        cl_trace::record_add(2 * acc0.basis().len() as u64, self.n);
        if galois.is_some() {
            cl_trace::record_automorph(acc0.basis().len() as u64, self.n);
        }
        let table = galois.map(|g| cl_math::AutomorphismTable::cached(self.n, g));
        let n = self.n;
        let b0_basis = &b0.basis().0;
        let b1_basis = &b1.basis().0;
        /// `*mut u64` wrapper the limb tasks can capture (the vendored
        /// rayon subset has no `zip`, so the second accumulator is reached
        /// through a raw pointer into its disjoint per-limb chunks).
        struct SyncPtr(*mut u64);
        unsafe impl Send for SyncPtr {}
        unsafe impl Sync for SyncPtr {}
        impl SyncPtr {
            fn get(&self) -> *mut u64 {
                self.0
            }
        }
        let ptr1 = SyncPtr(acc1.parts_mut().1.as_mut_ptr());
        self.par_limbs(acc0, |k, limb, d0| {
            let m = self.modulus_structs[limb as usize];
            let bk0 = b0_basis
                .iter()
                .position(|&l| l == limb)
                .expect("b0's basis must contain every limb of acc");
            let bk1 = b1_basis
                .iter()
                .position(|&l| l == limb)
                .expect("b1's basis must contain every limb of acc");
            let (a_limb, b0_limb, b1_limb) = (a.limb(k), b0.limb(bk0), b1.limb(bk1));
            // SAFETY: acc0 and acc1 share a basis and the ring degree
            // `n`, so acc1's limb `k` is a disjoint in-bounds n-word chunk
            // owned by exactly this task.
            let d1 = unsafe { std::slice::from_raw_parts_mut(ptr1.get().add(k * n), n) };
            match &table {
                Some(t) => {
                    m.gather_mul_acc_pair_slice(d0, d1, a_limb, t, b0_limb, b1_limb);
                }
                None => {
                    m.mul_acc_mod_slice(d0, a_limb, b0_limb);
                    m.mul_acc_mod_slice(d1, a_limb, b1_limb);
                }
            }
        });
    }

    /// Multiplies every coefficient by a small scalar.
    pub fn scalar_mul(&self, a: &RnsPoly, s: u64) -> RnsPoly {
        let mut out = a.clone();
        self.scalar_mul_assign(&mut out, s);
        out
    }

    /// In-place scalar multiplication.
    pub fn scalar_mul_assign(&self, a: &mut RnsPoly, s: u64) {
        cl_trace::record_mult(a.basis().len() as u64, self.n);
        self.par_limbs(a, |_, limb, data| {
            let m = self.modulus_structs[limb as usize];
            let s_red = m.reduce(s);
            m.mul_scalar_shoup_slice(data, s_red, m.shoup_precompute(s_red));
        });
    }

    /// Multiplies limb `k` of `a` by a per-limb constant already reduced
    /// modulo that limb.
    pub fn scalar_mul_per_limb(&self, a: &RnsPoly, consts: &[u64]) -> RnsPoly {
        let mut out = a.clone();
        self.scalar_mul_per_limb_assign(&mut out, consts);
        out
    }

    /// In-place per-limb scalar multiplication.
    ///
    /// # Panics
    ///
    /// Panics if `consts.len()` differs from the number of limbs.
    pub fn scalar_mul_per_limb_assign(&self, a: &mut RnsPoly, consts: &[u64]) {
        assert_eq!(consts.len(), a.basis().len());
        cl_trace::record_mult(a.basis().len() as u64, self.n);
        self.par_limbs(a, |k, limb, data| {
            let m = self.modulus_structs[limb as usize];
            m.mul_scalar_shoup_slice(data, consts[k], m.shoup_precompute(consts[k]));
        });
    }

    /// Applies the automorphism `X → X^k` to a polynomial, in either domain.
    pub fn apply_automorphism(&self, a: &RnsPoly, galois: u64) -> RnsPoly {
        let mut out = RnsPoly::zero(self.n, a.basis().clone());
        out.set_ntt_form(a.ntt_form());
        self.apply_automorphism_into(a, galois, &mut out);
        out
    }

    /// Allocation-free automorphism: writes `σ_galois(a)` into `out`, which
    /// must have the same basis and ring degree (its domain flag is set to
    /// match `a`).
    ///
    /// # Panics
    ///
    /// Panics if `out`'s basis differs from `a`'s.
    pub fn apply_automorphism_into(&self, a: &RnsPoly, galois: u64, out: &mut RnsPoly) {
        assert_eq!(a.basis(), out.basis(), "automorphism output basis mismatch");
        out.set_ntt_form(a.ntt_form());
        if a.ntt_form() {
            let table = cl_math::AutomorphismTable::cached(self.n, galois);
            self.par_limbs(out, |k, _, data| {
                cl_math::apply_automorphism_ntt_into(a.limb(k), &table, data);
            });
        } else {
            self.par_limbs(out, |k, limb, data| {
                let m = &self.modulus_structs[limb as usize];
                let mapped = cl_math::apply_automorphism_coeff(a.limb(k), galois, m);
                data.copy_from_slice(&mapped);
            });
        }
    }

    /// Restricts a polynomial to a sub-basis (drops limbs not in `target`).
    ///
    /// # Panics
    ///
    /// Panics if `target` is not a subset of the polynomial's basis or
    /// repeats a limb.
    pub fn restrict(&self, a: &RnsPoly, target: &Basis) -> RnsPoly {
        let mut coeffs = Vec::with_capacity(self.n * target.len());
        for &limb in &target.0 {
            let src_k = a
                .basis()
                .0
                .iter()
                .position(|&l| l == limb)
                .expect("target basis must be a subset");
            coeffs.extend_from_slice(a.limb(src_k));
        }
        RnsPoly::from_raw_parts(self.n, target.clone(), coeffs, a.ntt_form())
            .expect("a subset of a basis has one limb per entry and no duplicate")
    }
}

/// The initial splitmix64 state for the `(seed, domain, limb)` stream.
///
/// Each component is pre-whitened with a distinct odd multiplier so that
/// nearby seeds / domains / limb indices land in unrelated stream positions.
/// This keying is part of the hint wire format: serialized keyswitch keys
/// store only `(seed, digit)` and regenerate the pseudorandom half through
/// this exact function, so it must never change silently.
#[inline]
fn stream_key(seed: u64, domain: u64, limb: u32) -> u64 {
    seed ^ (domain.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (u64::from(limb).wrapping_add(1)).wrapping_mul(0xD6E8_FEB8_6659_FD93)
}

/// One step of the splitmix64 sequence (Steele, Lea & Flood's generator) —
/// a counter-mode stream with full 64-bit avalanche per output word.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn ctx() -> RnsContext {
        RnsContext::generate(32, 3, 2, 28).unwrap()
    }

    #[test]
    fn mul_acc_superset_automorph_matches_unfused() {
        let c = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let sub = c.q_basis(2);
        let full = c.q_basis(3).union(&c.p_basis(2));
        let a = c.sample_uniform(&sub, &mut rng);
        let b = c.sample_uniform(&full, &mut rng);
        let mut fused = c.zero(&sub);
        fused.set_ntt_form(true);
        let mut unfused = fused.clone();
        c.mul_acc_superset_automorph(&mut fused, &a, 5, &b);
        let rotated = c.apply_automorphism(&a, 5);
        c.mul_acc_superset(&mut unfused, &rotated, &b);
        assert_eq!(fused, unfused, "fused automorphism gather must be bit-exact");
    }

    #[test]
    fn mul_acc_pair_matches_two_single_calls() {
        let c = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let sub = c.q_basis(2);
        let full = c.q_basis(3).union(&c.p_basis(2));
        let a = c.sample_uniform(&sub, &mut rng);
        let b0 = c.sample_uniform(&full, &mut rng);
        let b1 = c.sample_uniform(&full, &mut rng);
        for galois in [None, Some(5u64)] {
            let mut p0 = c.zero(&sub);
            p0.set_ntt_form(true);
            let mut p1 = p0.clone();
            let mut s0 = p0.clone();
            let mut s1 = p0.clone();
            c.mul_acc_pair_superset(&mut p0, &mut p1, &a, galois, &b0, &b1);
            match galois {
                Some(g) => {
                    c.mul_acc_superset_automorph(&mut s0, &a, g, &b0);
                    c.mul_acc_superset_automorph(&mut s1, &a, g, &b1);
                }
                None => {
                    c.mul_acc_superset(&mut s0, &a, &b0);
                    c.mul_acc_superset(&mut s1, &a, &b1);
                }
            }
            assert_eq!(p0, s0, "paired acc0 must be bit-exact (galois={galois:?})");
            assert_eq!(p1, s1, "paired acc1 must be bit-exact (galois={galois:?})");
        }
    }

    #[test]
    #[should_panic(expected = "acc1 is not of the context's ring degree")]
    fn mul_acc_pair_rejects_a_short_accumulator() {
        let c = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(19);
        let sub = c.q_basis(2);
        let full = c.q_basis(3).union(&c.p_basis(2));
        let a = c.sample_uniform(&sub, &mut rng);
        let b0 = c.sample_uniform(&full, &mut rng);
        let b1 = c.sample_uniform(&full, &mut rng);
        let mut acc0 = c.zero(&sub);
        acc0.set_ntt_form(true);
        // Same basis and domain, half the ring degree: the second
        // accumulator's limbs are too short for the kernel's stride.
        let mut acc1 = RnsPoly::zero(c.n() / 2, sub.clone());
        acc1.set_ntt_form(true);
        c.mul_acc_pair_superset(&mut acc0, &mut acc1, &a, Some(5), &b0, &b1);
    }

    #[test]
    fn slab_ntts_match_the_polynomial_ones() {
        let c = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let basis = c.q_basis(1).union(&c.p_basis(2));
        let want = c.sample_uniform(&basis, &mut rng);
        let mut coeff = want.clone();
        c.from_ntt(&mut coeff);
        let mut slab = coeff.coeffs().to_vec();
        c.to_ntt_limbs(&basis.0, &mut slab);
        assert_eq!(slab, want.coeffs());
        c.from_ntt_limbs(&basis.0, &mut slab);
        assert_eq!(slab, coeff.coeffs());
    }

    #[test]
    fn generate_splits_q_and_p() {
        let c = ctx();
        assert_eq!(c.num_q(), 3);
        assert_eq!(c.num_p(), 2);
        assert_eq!(c.q_basis(2).0, vec![0, 1]);
        assert_eq!(c.p_basis(2).0, vec![3, 4]);
    }

    #[test]
    fn rejects_bad_moduli() {
        assert!(RnsContext::new(32, &[15], &[]).is_err()); // not prime
        assert!(RnsContext::new(32, &[], &[]).is_err()); // empty
        let q = generate_ntt_primes(32, 28, 1).unwrap()[0];
        assert!(RnsContext::new(32, &[q, q], &[]).is_err()); // repeated
    }

    #[test]
    fn ntt_roundtrip_on_poly() {
        let c = ctx();
        let basis = c.q_basis(3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let p = c.sample_uniform(&basis, &mut rng);
        let mut q = p.clone();
        c.from_ntt(&mut q);
        assert!(!q.ntt_form());
        c.to_ntt(&mut q);
        assert_eq!(p, q);
    }

    #[test]
    fn add_sub_neg_identities() {
        let c = ctx();
        let basis = c.q_basis(2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let a = c.sample_uniform(&basis, &mut rng);
        let b = c.sample_uniform(&basis, &mut rng);
        assert_eq!(c.sub(&c.add(&a, &b), &b), a);
        assert_eq!(c.add(&a, &c.neg(&a)), c.zero_like(&a));
    }

    #[test]
    fn mul_distributes_over_add() {
        let c = ctx();
        let basis = c.q_basis(3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let a = c.sample_uniform(&basis, &mut rng);
        let b = c.sample_uniform(&basis, &mut rng);
        let x = c.sample_uniform(&basis, &mut rng);
        let lhs = c.mul(&x, &c.add(&a, &b));
        let rhs = c.add(&c.mul(&x, &a), &c.mul(&x, &b));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn mul_acc_matches_mul_then_add() {
        let c = ctx();
        let basis = c.q_basis(2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let a = c.sample_uniform(&basis, &mut rng);
        let b = c.sample_uniform(&basis, &mut rng);
        let mut acc = c.sample_uniform(&basis, &mut rng);
        let expect = c.add(&acc, &c.mul(&a, &b));
        c.mul_acc(&mut acc, &a, &b);
        assert_eq!(acc, expect);
    }

    #[test]
    fn ternary_and_error_sampling_are_small() {
        let c = ctx();
        let basis = c.q_basis(1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let t = c.sample_ternary(&basis, &mut rng);
        let m = c.modulus(0);
        for &x in t.limb(0) {
            assert!(m.lift_centered(x).abs() <= 1);
        }
        let e = c.sample_error(&basis, &mut rng);
        for &x in e.limb(0) {
            assert!(m.lift_centered(x).abs() <= 11, "error sample too large");
        }
    }

    #[test]
    fn automorphism_consistent_between_domains() {
        let c = ctx();
        let basis = c.q_basis(2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut a = c.sample_uniform(&basis, &mut rng);
        let via_ntt = c.apply_automorphism(&a, 3);
        c.from_ntt(&mut a);
        let mut via_coeff = c.apply_automorphism(&a, 3);
        c.to_ntt(&mut via_coeff);
        assert_eq!(via_ntt, via_coeff);
    }

    #[test]
    fn seeded_sampling_is_deterministic_and_basis_stable() {
        let c = ctx();
        let full = c.q_basis(3).union(&c.p_basis(2));
        let a = c.sample_uniform_seeded(&full, 42, 7);
        let b = c.sample_uniform_seeded(&full, 42, 7);
        assert_eq!(a, b, "same (seed, domain) must expand identically");
        assert!(a.ntt_form());
        for (k, &limb) in full.0.iter().enumerate() {
            let q = c.modulus_value(limb);
            assert!(a.limb(k).iter().all(|&x| x < q), "residues canonical");
        }
        // A sub-basis sharing global limbs reproduces the same residues —
        // the property serialization regen relies on.
        let sub = c.q_basis(2);
        let s = c.sample_uniform_seeded(&sub, 42, 7);
        for (k, _) in sub.0.iter().enumerate() {
            assert_eq!(s.limb(k), a.limb(k), "limb {k} stream diverged");
        }
        // Distinct domains and seeds give distinct streams.
        assert_ne!(c.sample_uniform_seeded(&full, 42, 8), a);
        assert_ne!(c.sample_uniform_seeded(&full, 43, 7), a);
    }

    impl RnsContext {
        fn zero_like(&self, a: &RnsPoly) -> RnsPoly {
            let mut z = self.zero(a.basis());
            z.set_ntt_form(a.ntt_form());
            z
        }
    }
}

//! Mathematical substrate for the CraterLake reproduction.
//!
//! This crate implements the low-level kernels that everything else is built
//! on: prime-field arithmetic over word-sized moduli, NTT-friendly prime
//! generation, the negacyclic number-theoretic transform (NTT), polynomial
//! automorphisms (the implementation of homomorphic rotations), the complex
//! "special" FFT used by the CKKS encoder, and a small arbitrary-precision
//! integer used for exact CRT cross-checks in tests.
//!
//! The hardware described in the paper operates on 28-bit residues; this
//! crate is generic over the modulus width (any prime below 2^60 — the cap
//! that keeps the lazy-reduction NTT's `[0, 4q)` operand range overflow-free)
//! so that the functional library can also run at higher-precision parameters
//! in tests.
//!
//! # Example
//!
//! ```
//! use cl_math::{generate_ntt_primes, NttTable};
//!
//! // Two 28-bit NTT-friendly primes for degree-1024 negacyclic polynomials.
//! let primes = generate_ntt_primes(1024, 28, 2).unwrap();
//! let table = NttTable::new(1024, primes[0]).unwrap();
//! let mut poly = vec![0u64; 1024];
//! poly[1] = 1; // X
//! table.forward(&mut poly);
//! table.inverse(&mut poly);
//! assert_eq!(poly[1], 1);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod aligned;
mod automorphism;
pub mod backend;
mod baseconv;
mod bigint;
mod cache;
mod cfft;
mod modulus;
mod ntt;
mod primes;

pub use aligned::{AlignedVec, SIMD_ALIGN};
pub use automorphism::{
    apply_automorphism_coeff, apply_automorphism_ntt, apply_automorphism_ntt_into,
    canonical_rotation_step, galois_element_conjugate, galois_element_for_rotation,
    AutomorphismTable,
};
pub use baseconv::BaseConvTable;
pub use backend::{active_backend, cpu_features, set_active_backend, supported_backends, BackendKind};
pub use bigint::{BigUint, CrtBasis};
pub use cache::{Cache, CacheStats};
pub use cfft::{Complex, SpecialFft};
pub use modulus::Modulus;
pub use ntt::NttTable;
pub use primes::{generate_ntt_primes, is_prime, MathError};

/// Reverses the lowest `bits` bits of `x`.
///
/// Used for the bit-reversed orderings of NTT and FFT tables.
#[inline]
pub fn bit_reverse(x: usize, bits: u32) -> usize {
    if bits == 0 {
        return 0;
    }
    x.reverse_bits() >> (usize::BITS - bits)
}

/// Permutes `data` into bit-reversed order in place.
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
pub fn bit_reverse_permute<T>(data: &mut [T]) {
    let n = data.len();
    assert!(n.is_power_of_two(), "length must be a power of two");
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = bit_reverse(i, bits);
        if i < j {
            data.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_reverse_small() {
        assert_eq!(bit_reverse(0b001, 3), 0b100);
        assert_eq!(bit_reverse(0b110, 3), 0b011);
        assert_eq!(bit_reverse(0, 1), 0);
    }

    #[test]
    fn bit_reverse_permute_involution() {
        let mut v: Vec<u32> = (0..16).collect();
        let orig = v.clone();
        bit_reverse_permute(&mut v);
        assert_ne!(v, orig);
        bit_reverse_permute(&mut v);
        assert_eq!(v, orig);
    }
}

//! Residue-number-system (RNS) polynomial arithmetic.
//!
//! FHE ciphertext polynomials have coefficients modulo a very wide modulus
//! `Q = q_1 q_2 ... q_L` (up to ~1,700 bits for deep programs). RNS
//! representation (Sec. 2.4) stores such a polynomial as `L` *residue
//! polynomials* with word-sized coefficients — the unit of work of every
//! CraterLake functional unit. This crate provides:
//!
//! - [`RnsContext`]: a ring degree plus the global chain of ciphertext
//!   moduli (`q_i`) and special moduli (`p_j`) with their NTT tables,
//! - [`RnsPoly`]: a polynomial over an arbitrary sub-basis of those moduli,
//! - [`BaseConverter`]: the fast base conversion `changeRNSBase()` of
//!   Listing 1 — the kernel the CRB functional unit accelerates — plus the
//!   exact division-and-round used by rescaling and `ModDown`.
//!
//! # Example
//!
//! ```
//! use cl_rns::RnsContext;
//! let ctx = RnsContext::generate(64, 3, 2, 28).unwrap();
//! let basis = ctx.q_basis(3);
//! let a = ctx.sample_uniform(&basis, &mut rand::thread_rng());
//! let sum = ctx.add(&a, &a);
//! let two_a = ctx.scalar_mul(&a, 2);
//! assert_eq!(sum, two_a);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod baseconv;
mod context;
mod poly;

pub use baseconv::{mod_down, mod_down_ntt, BaseConverter};
pub use context::{Basis, RnsContext, RnsError};
pub use poly::RnsPoly;

//! The CKKS approximate-FHE scheme.
//!
//! This crate implements the workload CraterLake accelerates: CKKS
//! (Cheon-Kim-Kim-Song) over RNS polynomials, including
//!
//! - encoding/decoding via the canonical embedding (Sec. 2.2),
//! - key generation, encryption, decryption,
//! - homomorphic addition, multiplication, rotation, conjugation and
//!   rescaling,
//! - **standard** keyswitching (the algorithm prior accelerators like F1
//!   were built around) and **boosted** keyswitching with a configurable
//!   number of digits `t` (Sec. 3, Listing 1) — the algorithm CraterLake is
//!   designed for,
//! - seeded generation of the pseudo-random half of each keyswitch hint
//!   (the software analogue of the KSHGen unit, Sec. 5.2), with a compact
//!   resident key form ([`CompactKeySwitchKey`]) and a bytes-bounded
//!   hot-hint cache ([`HintCache`]) that materializes hints lazily,
//! - the security model mapping `(N, security level)` to a maximum
//!   ciphertext-modulus width (our stand-in for the LWE estimator),
//! - a fallible `try_*` evaluation API with a unified error type
//!   ([`FheError`]), per-ciphertext analytic noise tracking, runtime
//!   guardrails that every context runs on every `try_*` operation
//!   (operand conformance scans, hint integrity digests, and the noise
//!   budget floor a [`GuardrailPolicy`] sets), and a fault-injection
//!   harness (the [`faults`] module) that validates the guardrails catch
//!   corrupted ciphertexts, dropped rescales and tampered hints.
//!
//! # Example
//!
//! ```
//! use cl_ckks::{CkksContext, CkksParams, KeySwitchKind};
//! let params = CkksParams::builder()
//!     .ring_degree(64)
//!     .levels(3)
//!     .special_limbs(3)
//!     .limb_bits(36)
//!     .scale_bits(30)
//!     .build()
//!     .unwrap();
//! let mut rng = rand::thread_rng();
//! let ctx = CkksContext::new(params).unwrap();
//! let sk = ctx.keygen(&mut rng);
//! let vals = vec![1.5, -2.25, 3.0];
//! let pt = ctx.encode(&vals, ctx.default_scale(), ctx.max_level());
//! let ct = ctx.encrypt(&pt, &sk, &mut rng);
//! let back = ctx.decode(&ctx.decrypt(&ct, &sk), vals.len());
//! assert!((back[0] - 1.5).abs() < 1e-3);
//! # let _ = KeySwitchKind::Boosted { digits: 1 };
//! ```

#![warn(missing_docs)]
// Library code must propagate failures (`FheResult`/`?`) or `expect` with
// the violated invariant; tests are exempt. Enforced by scripts/verify.sh.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod bgv;
mod ciphertext;
mod context;
mod error;
mod eval;
pub mod faults;
mod hint_cache;
mod keys;
mod keyswitch;
mod noise;
mod params;
pub mod security;
pub mod serialize;

pub use ciphertext::{Ciphertext, Plaintext};
pub use context::{CkksContext, CkksError, GuardrailPolicy};
pub use error::{FheError, FheResult};
/// The shared cache type under [`HintCache`], for the crates above this one.
pub use cl_math::{Cache, CacheStats};
pub use hint_cache::{HintCache, HintCacheStats, DEFAULT_HINT_CACHE_BYTES};
pub use keys::{CompactKeySwitchKey, KeySwitchKey, PublicKey, SecretKey};
pub use keyswitch::{HoistedDecomposition, KeySwitchKind};
pub use params::{CkksParams, CkksParamsBuilder};

//! Packed CKKS bootstrapping.
//!
//! Bootstrapping refreshes a ciphertext's multiplicative budget (Sec. 2.3,
//! Fig. 2) and is what makes *unbounded* computation possible. This crate
//! provides both sides of it:
//!
//! - [`BootstrapPlan`]: the state-of-the-art packed bootstrapping pipeline
//!   (ModRaise → CoeffToSlot → EvalMod → SlotToCoeff, following Bossuat et
//!   al. \[11\] / Lattigo \[53\]) expressed as homomorphic-operation counts and
//!   expandable into an [`cl_isa::HeGraph`] fragment for the performance
//!   model. The CoeffToSlot/SlotToCoeff transforms use the FFT-like radix
//!   decomposition into on-chip-sized partitions the paper's compiler
//!   applies (Sec. 6, "a 4x4 tile").
//! - [`functional`]: an executable bootstrapping implementation over the
//!   `cl-ckks` library at reduced (test-scale) parameters. It runs the
//!   plan's four phases but not its shape: two radix stages per transform
//!   with uncapped baby steps, where the plan models three stages of 20
//!   diagonals with a capped baby set. The [`functional`] module docs list
//!   the differences; one shape for both is ROADMAP.md item 5.

#![warn(missing_docs)]
// Library code must propagate failures (`FheResult`/`?`) or `expect` with
// the violated invariant; tests are exempt. Enforced by scripts/verify.sh.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod functional;
mod plan;

pub use functional::{
    try_bsgs_transform, BootState, BootstrapKeys, BootstrapPrecompute, Bootstrapper,
    PrecomputedTransform, TransformStage,
};
pub use plan::BootstrapPlan;

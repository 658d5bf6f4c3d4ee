//! Packed CKKS bootstrapping.
//!
//! Bootstrapping refreshes a ciphertext's multiplicative budget (Sec. 2.3,
//! Fig. 2) and is what makes *unbounded* computation possible. This crate
//! provides both sides of it:
//!
//! - [`BootstrapPlan`]: the state-of-the-art packed bootstrapping pipeline
//!   (ModRaise → CoeffToSlot → EvalMod → SlotToCoeff, following Bossuat et
//!   al. \[11\] / Lattigo \[53\]) as stage parameters that expand into an
//!   [`cl_isa::HeGraph`] fragment for the performance model. The
//!   CoeffToSlot/SlotToCoeff transforms use the FFT-like radix
//!   decomposition into on-chip-sized partitions the paper's compiler
//!   applies (Sec. 6, "a 4x4 tile"), each emitted by
//!   [`cl_isa::HeGraph::bsgs_sum`].
//! - [`functional`]: an executable bootstrap over the `cl-ckks` library
//!   at test-scale parameters, run from one stage table built by
//!   [`Bootstrapper::new`] in five checkpointable [`BootState`] steps, the
//!   real and imaginary EvalMod chains side by side in one of them.

#![warn(missing_docs)]
// Library code must propagate failures (`FheResult`/`?`) or `expect` with
// the violated invariant; tests are exempt. Enforced by scripts/verify.sh.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod functional;
mod plan;

pub use functional::{
    try_bsgs_transform, BootState, BootstrapKeys, BootstrapPrecompute, Bootstrapper,
    PrecomputedTransform, RadixStage,
};
pub use plan::BootstrapPlan;

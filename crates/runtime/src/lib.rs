//! Resilient pipeline execution for unbounded FHE workloads.
//!
//! CraterLake's core claim is *unbounded* computation on encrypted data
//! (Secs. 2, 6): bootstrapped pipelines deep enough that, deployed as a
//! service, a single job outlives process restarts, DRAM bit flips, and
//! operator error. This crate supplies the robustness layer that story
//! needs on top of `cl-ckks`/`cl-boot`:
//!
//! - [`Program`]/[`PipelineOp`]: a declared sequence of homomorphic ops,
//!   with bootstrap expanded into its checkpointable
//!   [`cl_boot::BootState`] stages;
//! - [`CheckpointStore`]: durable, atomically-written checkpoint records
//!   (two rotating slots, tmp-file + rename) in the integrity-checked wire
//!   format of [`cl_ckks::serialize`] — corrupt or torn records are
//!   *rejected at load time* by checksum/fingerprint checks, never
//!   resumed from;
//! - [`PreparedProgram`]: a program with its micro-op schedule and a
//!   memo of its plaintext operands' rounded coefficients, built once and
//!   shared by every run of the program;
//! - [`PipelineExecutor`]: runs a program under
//!   [`GuardrailPolicy::Strict`], checkpoints every N micro-ops, and on
//!   any detected fault (corrupt limb, exhausted budget, tampered hint)
//!   restores the last good checkpoint and retries within a bounded
//!   budget, recording per-event [`RecoveryTelemetry`];
//! - crash/resume: a simulated kill (see `cl_ckks::faults::FaultPlan`)
//!   abandons in-memory state; [`PipelineExecutor::resume`] reloads the
//!   newest valid on-disk checkpoint and continues from its program
//!   counter.
//!
//! The recovery loop is validated end-to-end in `tests/recovery.rs`: a
//! ≥16-level bootstrapped pipeline under seeded bit flips plus a mid-run
//! kill converges to the limb-bit-identical result of a fault-free run.

#![warn(missing_docs)]
// Library code must propagate failures (`FheResult`/`?`) or `expect` with
// the violated invariant; tests are exempt. Enforced by scripts/verify.sh.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod checkpoint;
mod executor;
mod prepared;
mod program;

pub use checkpoint::{sweep_checkpoint_dir, Checkpoint, CheckpointStore, WorkState};
pub use executor::{
    ExecutorConfig, PipelineExecutor, RecoveryTelemetry, RunControl, RunOutcome,
};
pub use prepared::{PreparedProgram, COEFF_MEMO_BYTES};
pub use program::{PipelineOp, Program, MAX_PLAIN_VALUES, MAX_PROGRAM_OPS};

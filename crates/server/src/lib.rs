//! Multi-tenant FHE job serving for the CraterLake reproduction.
//!
//! CraterLake's deployment story (Sec. 2 of the paper) is an accelerator
//! *shared* by mutually distrusting clients: many tenants stream deep,
//! bootstrapped pipelines at one machine, and the operator must bound
//! memory, bound latency, and guarantee that one tenant's hostile or
//! unlucky job cannot perturb another's results. This crate supplies
//! that serving layer over the `cl-runtime` executor:
//!
//! - [`JobServer`]: a fixed worker pool over a *bounded*, tenant-fair
//!   [`AdmissionQueue`] — overload is shed synchronously with
//!   [`cl_ckks::FheError::Overloaded`] and a retry-after hint, never
//!   absorbed as unbounded queue growth;
//! - per-job [`RunControl`] deadlines (the clock starts at admission, so
//!   queue wait counts) and cancellation, enforced at micro-op
//!   boundaries inside the executor;
//! - server-level retry with exponential backoff layered on the
//!   executor's restore-and-retry, metered by a per-tenant retry budget;
//! - tenant isolation: per-tenant params fingerprints (checked at
//!   admission *and* on every deep parse), per-tenant bytes-bounded
//!   [`KeyCache`]s of compact key bundles and caches of prepared
//!   programs (parsed once per blob digest, their plaintext operands
//!   rounded once), and disjoint per-`(tenant, worker)` checkpoint
//!   directories guarded by the `CheckpointStore`
//!   owner lock. Materialized hints live in the process-wide
//!   `cl_ckks::HintCache`, shared across tenants. All three caches are
//!   the one `cl_math::Cache` type; the key and hint caches sit behind a
//!   thin wrapper that parses or expands its format;
//! - structured outcomes: every failure maps to a stable
//!   [`OutcomeCode`], with per-tenant [`TenantReport`] accounting
//!   (job counts, shed counts, retry spend, recovery telemetry, op
//!   deltas, breaker state);
//! - **crash durability**: a write-ahead [`Journal`] of job lifecycle
//!   transitions (torn-write tolerant, checksum-framed, compacted), so
//!   [`JobServer::recover`] restarts a killed server and resumes every
//!   acknowledged job bit-identically from its durable checkpoint;
//! - **self-healing**: a watchdog aborts runs whose heartbeat stalls
//!   past a budget (re-dispatched from the last checkpoint), and a
//!   per-tenant circuit [`breaker`](BreakerReport) quarantines tenants
//!   whose jobs keep failing destructively.
//!
//! The isolation contract is validated in `tests/server_chaos.rs`: under
//! seeded fault injection, cancellations, deadline kills, mid-flight
//! server kills, and a poisoned tenant, every surviving job's output is
//! limb-bit-identical to a serial fault-free run.
//!
//! [`RunControl`]: cl_runtime::RunControl

#![warn(missing_docs)]
// Library code must propagate failures (`FheResult`/`?`) or `expect` with
// the violated invariant; tests are exempt. Enforced by scripts/verify.sh.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod breaker;
mod job;
mod journal;
mod queue;
mod server;
mod tenant;

pub use breaker::BreakerReport;
pub use job::{Blob, JobId, JobOutcome, JobSpec, OutcomeCode};
pub use journal::{FsyncPolicy, Journal, JournalReplay, ReplayedJob, ReplayedOutcome};
pub use queue::{AdmissionQueue, ShedReason};
pub use server::{JobHandle, JobServer, RecoveryReport, ServerConfig, TenantSetup};
pub use tenant::{KeyCache, KeyCacheStats, TenantReport, TenantState, PROGRAM_CACHE_BYTES};

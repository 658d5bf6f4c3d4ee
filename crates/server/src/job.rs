//! Job specifications and structured outcomes.
//!
//! Every job a tenant submits either completes with an output ciphertext
//! blob or fails with a *stable, machine-readable* [`OutcomeCode`]. A
//! serving deployment keys billing, alerting, and client retry logic off
//! these codes, so the mapping from [`FheError`] must never silently
//! change meaning: codes are explicit numeric constants, and unknown
//! future error variants collapse to [`OutcomeCode::Internal`] rather
//! than being renumbered.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use cl_ckks::serialize::fnv1a_fast;
use cl_ckks::FheError;
use cl_runtime::RecoveryTelemetry;

#[cfg(feature = "faults")]
use cl_ckks::faults::FaultPlan;

/// An immutable, reference-counted payload blob with a lazily computed,
/// shared content digest.
///
/// Jobs from one tenant typically carry the *identical* key (and often
/// program) blob, and those blobs are megabytes at serving shapes. Sharing
/// the allocation makes per-job submission O(1) in blob size instead of a
/// full memcpy, and caching the `fnv1a_fast` digest across clones lets the
/// per-tenant key cache and the write-ahead journal key their dedup maps
/// without re-hashing the same megabytes on every job.
#[derive(Debug, Clone)]
pub struct Blob {
    data: Arc<[u8]>,
    digest: Arc<OnceLock<u64>>,
}

impl Blob {
    /// Wraps `data` in a shared blob with an unset digest.
    pub fn new(data: impl Into<Arc<[u8]>>) -> Self {
        Self {
            data: data.into(),
            digest: Arc::new(OnceLock::new()),
        }
    }

    /// Wraps `data` with a digest already known to be `fnv1a_fast(data)`
    /// — journal replay knows every blob's digest (the records are keyed
    /// by it), so recovery never re-hashes.
    pub fn with_digest(data: impl Into<Arc<[u8]>>, digest: u64) -> Self {
        let lock = OnceLock::new();
        let _ = lock.set(digest);
        Self {
            data: data.into(),
            digest: Arc::new(lock),
        }
    }

    /// The `fnv1a_fast` content digest, computed on first use and shared
    /// by every clone of this blob.
    pub fn digest(&self) -> u64 {
        *self.digest.get_or_init(|| fnv1a_fast(&self.data))
    }
}

impl std::ops::Deref for Blob {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for Blob {
    fn from(data: Vec<u8>) -> Self {
        Self::new(data)
    }
}

impl From<&[u8]> for Blob {
    fn from(data: &[u8]) -> Self {
        Self::new(data)
    }
}

/// Server-assigned identifier for one submitted job, unique for the
/// lifetime of a [`crate::JobServer`] and monotonically increasing in
/// submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// One unit of work a tenant submits: a serialized [`cl_runtime::Program`]
/// to run over a serialized input ciphertext, under that tenant's key
/// bundle. All three blobs are *untrusted* — the worker validates
/// headers, fingerprints, and checksums before any compute, and a
/// malformed blob fails only this job.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Tenant the job belongs to (must be registered).
    pub tenant: String,
    /// Serialized program (see `Program::serialize`), written under the
    /// tenant's params fingerprint.
    pub program_blob: Blob,
    /// Serialized input ciphertext in the tenant's parameter set.
    pub input_blob: Blob,
    /// Serialized `BootstrapKeys` bundle. Jobs from one tenant typically
    /// share the identical blob; submitting clones of one [`Blob`] shares
    /// the allocation and digest, and the per-tenant LRU key cache
    /// deserializes it once and reuses the parsed bundle by digest.
    pub key_blob: Blob,
    /// Wall-clock budget measured from *admission* (queue wait counts).
    /// `None` uses the server's default; `Some(Duration::ZERO)` is legal
    /// and expires immediately.
    pub deadline: Option<Duration>,
    /// Seeded fault plan injected into this job's executor, for chaos
    /// testing. The plan's op counter advances across server-level
    /// retries, so the fault stream is one deterministic sequence.
    #[cfg(feature = "faults")]
    pub fault_plan: Option<FaultPlan>,
}

impl JobSpec {
    /// A job with no deadline override and no fault plan. Accepts owned
    /// `Vec<u8>` blobs or pre-shared [`Blob`]s; pass clones of one `Blob`
    /// when many jobs carry the same payload.
    pub fn new(
        tenant: &str,
        program_blob: impl Into<Blob>,
        input_blob: impl Into<Blob>,
        key_blob: impl Into<Blob>,
    ) -> Self {
        Self {
            tenant: tenant.to_string(),
            program_blob: program_blob.into(),
            input_blob: input_blob.into(),
            key_blob: key_blob.into(),
            deadline: None,
            #[cfg(feature = "faults")]
            fault_plan: None,
        }
    }
}

/// Stable numeric outcome classification. The discriminants are part of
/// the serving contract (clients switch on them), so existing values must
/// never be reused or renumbered — append only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum OutcomeCode {
    /// Completed; `output` holds the serialized result ciphertext.
    Ok = 0,
    /// Shed at admission: queue at capacity (global or per-tenant bound).
    Overloaded = 1,
    /// Wall-clock budget exhausted (queue wait included).
    DeadlineExceeded = 2,
    /// Cancelled by the submitter.
    Cancelled = 3,
    /// A blob failed structural validation (bad magic/version/tag,
    /// truncation, hostile lengths, non-finite values).
    Malformed = 4,
    /// A blob or checkpoint failed an integrity checksum, and the retry
    /// budget could not mask it.
    IntegrityFailure = 5,
    /// A blob was written for a different parameter set than the
    /// tenant's registered fingerprint.
    ParamsMismatch = 6,
    /// The context's guardrails rejected the computation (noise budget
    /// exhausted, level underflow, scale drift) beyond what retries fixed.
    GuardrailRejected = 7,
    /// The program references a key the bundle does not hold.
    MissingKey = 8,
    /// The request is structurally valid but unservable (e.g. a program
    /// needing a bootstrapper the server does not host).
    Unsupported = 9,
    /// The tenant's retry budget ran out before the job converged.
    RetryBudgetExhausted = 10,
    /// The watchdog declared the run stalled (heartbeat stale past the
    /// stall budget) and aborted it for re-dispatch.
    Stalled = 11,
    /// Admission refused by the tenant's circuit breaker: the tenant's
    /// recent jobs kept failing with breaker-class outcomes, so new work
    /// is quarantined until a half-open probe succeeds.
    TenantQuarantined = 12,
    /// Any error the server cannot classify (future `FheError` variants;
    /// the enum is `#[non_exhaustive]`).
    Internal = 99,
}

impl OutcomeCode {
    /// Maps an [`FheError`] to its stable outcome code.
    pub fn from_error(err: &FheError) -> Self {
        match err {
            FheError::Overloaded { .. } => OutcomeCode::Overloaded,
            FheError::DeadlineExceeded { .. } => OutcomeCode::DeadlineExceeded,
            FheError::Cancelled { .. } => OutcomeCode::Cancelled,
            FheError::Serialization { .. } => OutcomeCode::Malformed,
            FheError::ChecksumMismatch { .. } | FheError::CorruptCiphertext { .. }
            | FheError::CorruptKey { .. } => OutcomeCode::IntegrityFailure,
            FheError::ParamsMismatch { .. } => OutcomeCode::ParamsMismatch,
            FheError::BudgetExhausted { .. } | FheError::LevelMismatch { .. }
            | FheError::ScaleMismatch { .. } => OutcomeCode::GuardrailRejected,
            FheError::MissingKey { .. } => OutcomeCode::MissingKey,
            FheError::InvalidParams { .. } => OutcomeCode::Unsupported,
            FheError::Stalled { .. } => OutcomeCode::Stalled,
            FheError::TenantQuarantined { .. } => OutcomeCode::TenantQuarantined,
            // `FheError` is non_exhaustive: new variants classify as
            // Internal until given a code of their own.
            _ => OutcomeCode::Internal,
        }
    }

    /// Whether a failure with this code is worth a server-level retry
    /// (restore-and-resume on a fresh executor). Deterministic rejections
    /// — malformed input, wrong params, guardrail verdicts on clean data,
    /// cancellation — would fail identically again. A stall is transient
    /// by definition (the watchdog aborted a run that stopped making
    /// progress), so it earns a retry from the last durable checkpoint.
    pub fn retryable(self) -> bool {
        matches!(self, OutcomeCode::IntegrityFailure | OutcomeCode::Stalled)
    }

    /// The stable numeric value (`u16`) of this code.
    pub fn as_u16(self) -> u16 {
        self as u16
    }

    /// Inverse of [`OutcomeCode::as_u16`], for reconstructing outcomes
    /// from journal replay. Unknown values (a journal written by a newer
    /// server) return `None` rather than guessing.
    pub fn from_u16(v: u16) -> Option<Self> {
        match v {
            0 => Some(OutcomeCode::Ok),
            1 => Some(OutcomeCode::Overloaded),
            2 => Some(OutcomeCode::DeadlineExceeded),
            3 => Some(OutcomeCode::Cancelled),
            4 => Some(OutcomeCode::Malformed),
            5 => Some(OutcomeCode::IntegrityFailure),
            6 => Some(OutcomeCode::ParamsMismatch),
            7 => Some(OutcomeCode::GuardrailRejected),
            8 => Some(OutcomeCode::MissingKey),
            9 => Some(OutcomeCode::Unsupported),
            10 => Some(OutcomeCode::RetryBudgetExhausted),
            11 => Some(OutcomeCode::Stalled),
            12 => Some(OutcomeCode::TenantQuarantined),
            99 => Some(OutcomeCode::Internal),
            _ => None,
        }
    }
}

/// The structured result of one job, success or failure. Failures carry
/// the originating error's display string for operators, but clients
/// should branch on [`OutcomeCode`] only.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The job this outcome belongs to.
    pub id: JobId,
    /// Owning tenant.
    pub tenant: String,
    /// Stable classification.
    pub code: OutcomeCode,
    /// Serialized result ciphertext when `code == Ok`.
    pub output: Option<Vec<u8>>,
    /// Human-readable failure detail (empty for `Ok`).
    pub detail: String,
    /// Recovery counters accumulated over every attempt of this job.
    pub recovery: RecoveryTelemetry,
    /// Server-level attempts consumed (0 = first try succeeded or failed
    /// terminally; each increment burned one unit of tenant retry budget).
    pub retries: u32,
}

impl JobOutcome {
    /// Whether the job completed and produced an output.
    pub fn is_ok(&self) -> bool {
        self.code == OutcomeCode::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_error_variant_maps_to_a_stable_code() {
        let cases: Vec<(FheError, OutcomeCode)> = vec![
            (
                FheError::Overloaded { op: "t", retry_after_ms: 5 },
                OutcomeCode::Overloaded,
            ),
            (
                FheError::DeadlineExceeded { op: "t", deadline_ms: 1, elapsed_ms: 2 },
                OutcomeCode::DeadlineExceeded,
            ),
            (FheError::Cancelled { op: "t" }, OutcomeCode::Cancelled),
            (
                FheError::Serialization { op: "t", reason: "x".into() },
                OutcomeCode::Malformed,
            ),
            (
                FheError::ChecksumMismatch {
                    op: "t",
                    section: "s".into(),
                    stored: 1,
                    computed: 2,
                },
                OutcomeCode::IntegrityFailure,
            ),
            (
                FheError::CorruptCiphertext { op: "t", reason: "x".into() },
                OutcomeCode::IntegrityFailure,
            ),
            (
                FheError::CorruptKey { op: "t", reason: "x".into() },
                OutcomeCode::IntegrityFailure,
            ),
            (
                FheError::ParamsMismatch { op: "t", got: 1, want: 2 },
                OutcomeCode::ParamsMismatch,
            ),
            (
                FheError::BudgetExhausted { op: "t", budget_bits: -1.0, required_bits: 2.0 },
                OutcomeCode::GuardrailRejected,
            ),
            (
                FheError::LevelMismatch { op: "t", got: 1, want: 2 },
                OutcomeCode::GuardrailRejected,
            ),
            (
                FheError::ScaleMismatch { op: "t", got: 1.0, want: 2.0, rel: 0.5 },
                OutcomeCode::GuardrailRejected,
            ),
            (
                FheError::MissingKey { what: "k".into() },
                OutcomeCode::MissingKey,
            ),
            (
                FheError::InvalidParams { op: "t", reason: "x".into() },
                OutcomeCode::Unsupported,
            ),
            (
                FheError::Stalled { op: "t", stalled_ms: 750 },
                OutcomeCode::Stalled,
            ),
            (
                FheError::TenantQuarantined { op: "t", retry_after_ms: 200 },
                OutcomeCode::TenantQuarantined,
            ),
        ];
        for (err, want) in cases {
            assert_eq!(OutcomeCode::from_error(&err), want, "for {err}");
        }
    }

    #[test]
    fn discriminants_are_the_documented_contract() {
        assert_eq!(OutcomeCode::Ok.as_u16(), 0);
        assert_eq!(OutcomeCode::Overloaded.as_u16(), 1);
        assert_eq!(OutcomeCode::DeadlineExceeded.as_u16(), 2);
        assert_eq!(OutcomeCode::Cancelled.as_u16(), 3);
        assert_eq!(OutcomeCode::Malformed.as_u16(), 4);
        assert_eq!(OutcomeCode::IntegrityFailure.as_u16(), 5);
        assert_eq!(OutcomeCode::ParamsMismatch.as_u16(), 6);
        assert_eq!(OutcomeCode::GuardrailRejected.as_u16(), 7);
        assert_eq!(OutcomeCode::MissingKey.as_u16(), 8);
        assert_eq!(OutcomeCode::Unsupported.as_u16(), 9);
        assert_eq!(OutcomeCode::RetryBudgetExhausted.as_u16(), 10);
        assert_eq!(OutcomeCode::Stalled.as_u16(), 11);
        assert_eq!(OutcomeCode::TenantQuarantined.as_u16(), 12);
        assert_eq!(OutcomeCode::Internal.as_u16(), 99);
    }

    #[test]
    fn from_u16_round_trips_every_code() {
        let all = [
            OutcomeCode::Ok,
            OutcomeCode::Overloaded,
            OutcomeCode::DeadlineExceeded,
            OutcomeCode::Cancelled,
            OutcomeCode::Malformed,
            OutcomeCode::IntegrityFailure,
            OutcomeCode::ParamsMismatch,
            OutcomeCode::GuardrailRejected,
            OutcomeCode::MissingKey,
            OutcomeCode::Unsupported,
            OutcomeCode::RetryBudgetExhausted,
            OutcomeCode::Stalled,
            OutcomeCode::TenantQuarantined,
            OutcomeCode::Internal,
        ];
        for code in all {
            assert_eq!(OutcomeCode::from_u16(code.as_u16()), Some(code));
        }
        assert_eq!(OutcomeCode::from_u16(13), None);
        assert_eq!(OutcomeCode::from_u16(u16::MAX), None);
    }

    #[test]
    fn only_transient_failures_earn_a_retry() {
        for code in [
            OutcomeCode::Overloaded,
            OutcomeCode::DeadlineExceeded,
            OutcomeCode::Cancelled,
            OutcomeCode::Malformed,
            OutcomeCode::ParamsMismatch,
            OutcomeCode::GuardrailRejected,
            OutcomeCode::MissingKey,
            OutcomeCode::Unsupported,
            OutcomeCode::TenantQuarantined,
            OutcomeCode::Internal,
        ] {
            assert!(!code.retryable(), "{code:?} must not retry");
        }
        assert!(OutcomeCode::IntegrityFailure.retryable());
        assert!(OutcomeCode::Stalled.retryable());
    }
}

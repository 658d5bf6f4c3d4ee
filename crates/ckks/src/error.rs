//! The unified error hierarchy for fallible homomorphic evaluation.
//!
//! Every `try_*` operation returns [`FheError`], which wraps the layer
//! errors ([`CkksError`], [`RnsError`], [`MathError`], [`ParamsError`]) and
//! adds structured operation-level failures: level/scale mismatches, noise
//! budget exhaustion, and integrity violations detected by every
//! context's runtime guardrails.

use std::fmt;

use cl_math::MathError;
use cl_rns::RnsError;

use crate::context::CkksError;
use crate::params::ParamsError;

/// Result alias for fallible homomorphic operations.
pub type FheResult<T> = Result<T, FheError>;

/// Errors from fallible (`try_*`) homomorphic evaluation.
///
/// Each variant carries enough structured context (operation name, expected
/// vs. actual levels/scales, budget figures) for a caller to decide whether
/// to realign operands, insert a rescale or bootstrap, or abort.
#[derive(Debug)]
#[non_exhaustive]
pub enum FheError {
    /// A wrapped CKKS-layer error (parameters or operand incompatibility).
    Ckks(CkksError),
    /// A wrapped RNS-layer error (modulus chains, NTT tables).
    Rns(RnsError),
    /// A wrapped math-layer error (prime generation, modulus construction).
    Math(MathError),
    /// Operand levels differ (or a target level is out of range).
    LevelMismatch {
        /// The operation that detected the mismatch.
        op: &'static str,
        /// The level actually seen.
        got: usize,
        /// The level required.
        want: usize,
    },
    /// Operand scales differ by a relative `1e-6` or more.
    ScaleMismatch {
        /// The operation that detected the mismatch.
        op: &'static str,
        /// The scale actually seen.
        got: f64,
        /// The scale required.
        want: f64,
        /// The relative deviation `|got - want| / max(got, want)`.
        rel: f64,
    },
    /// The estimated noise budget dropped below the policy's floor (or
    /// became NaN): further computation would decrypt incorrectly.
    BudgetExhausted {
        /// The operation whose output exhausted the budget.
        op: &'static str,
        /// The (signed) estimated budget of the result, in bits.
        budget_bits: f64,
        /// The policy's minimum acceptable budget, in bits.
        required_bits: f64,
    },
    /// An operation was invoked with arguments that no parameter set could
    /// make valid (e.g. rescaling a level-1 ciphertext).
    InvalidParams {
        /// The rejecting operation.
        op: &'static str,
        /// Why the arguments are invalid.
        reason: String,
    },
    /// A ciphertext failed the guardrails' conformance validation
    /// (out-of-range residue, wrong basis, non-NTT form, bad scale).
    CorruptCiphertext {
        /// The operation that validated the ciphertext.
        op: &'static str,
        /// What the validation found.
        reason: String,
    },
    /// A keyswitch hint failed its integrity-digest check.
    CorruptKey {
        /// The operation that verified the key.
        op: &'static str,
        /// What the verification found.
        reason: String,
    },
    /// Required key material was not supplied (e.g. a rotation key for a
    /// step the bootstrap transform needs).
    MissingKey {
        /// Description of the missing key.
        what: String,
    },
    /// A serialized blob is structurally invalid: bad magic, unsupported
    /// format version, truncated payload, or a malformed section.
    Serialization {
        /// The load or store operation that failed.
        op: &'static str,
        /// What the codec found.
        reason: String,
    },
    /// A stored checksum does not match the recomputed one — the blob was
    /// corrupted after it was written.
    ChecksumMismatch {
        /// The load operation that detected the corruption.
        op: &'static str,
        /// Which section failed (header metadata, or a specific limb).
        section: String,
        /// The checksum recorded in the blob.
        stored: u64,
        /// The checksum recomputed over the payload.
        computed: u64,
    },
    /// A serialized object was produced under different CKKS parameters
    /// (ring degree, moduli chain, scale, or decomposition digits).
    ParamsMismatch {
        /// The load operation that detected the mismatch.
        op: &'static str,
        /// The fingerprint recorded in the blob.
        got: u64,
        /// The fingerprint of the loading context.
        want: u64,
    },
    /// A serving layer refused new work because its admission queue is at
    /// capacity. The request was *not* enqueued; retry after the hinted
    /// delay (explicit backpressure, never unbounded memory growth).
    Overloaded {
        /// The admitting component that shed the request.
        op: &'static str,
        /// Suggested client backoff before resubmitting, in milliseconds.
        retry_after_ms: u64,
    },
    /// A job ran past its deadline and was aborted at a micro-op boundary.
    DeadlineExceeded {
        /// The component that enforced the deadline.
        op: &'static str,
        /// The configured deadline, in milliseconds.
        deadline_ms: u64,
        /// Wall time actually elapsed when the check fired, in milliseconds.
        elapsed_ms: u64,
    },
    /// The job was cancelled by an explicit request; execution stopped at
    /// the next micro-op boundary.
    Cancelled {
        /// The component that observed the cancellation.
        op: &'static str,
    },
    /// A supervisor marked the job stalled: its heartbeat went stale past
    /// the stall budget (a hung worker, a wedged I/O path). The run aborts
    /// at the next micro-op boundary; the job is retryable from its last
    /// durable checkpoint.
    Stalled {
        /// The component that observed the stall mark.
        op: &'static str,
        /// How long the heartbeat had been stale when the watchdog fired,
        /// in milliseconds.
        stalled_ms: u64,
    },
    /// The tenant's circuit breaker is open: repeated integrity failures
    /// or panics quarantined the tenant, and admission rejects new work
    /// until the breaker half-opens for a probe.
    TenantQuarantined {
        /// The admitting component that rejected the submission.
        op: &'static str,
        /// Suggested client backoff before resubmitting, in milliseconds.
        retry_after_ms: u64,
    },
}

impl fmt::Display for FheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FheError::Ckks(e) => write!(f, "{e}"),
            FheError::Rns(e) => write!(f, "{e}"),
            FheError::Math(e) => write!(f, "{e}"),
            FheError::LevelMismatch { op, got, want } => {
                write!(f, "{op}: level mismatch (got {got}, want {want})")
            }
            FheError::ScaleMismatch { op, got, want, rel } => write!(
                f,
                "{op}: scale mismatch (got {got:.6e}, want {want:.6e}, relative deviation {rel:.3e})"
            ),
            FheError::BudgetExhausted {
                op,
                budget_bits,
                required_bits,
            } => write!(
                f,
                "{op}: noise budget exhausted (estimated {budget_bits:.1} bits, \
                 policy requires {required_bits:.1})"
            ),
            FheError::InvalidParams { op, reason } => {
                write!(f, "{op}: invalid arguments: {reason}")
            }
            FheError::CorruptCiphertext { op, reason } => {
                write!(f, "{op}: corrupt ciphertext: {reason}")
            }
            FheError::CorruptKey { op, reason } => {
                write!(f, "{op}: corrupt keyswitch hint: {reason}")
            }
            FheError::MissingKey { what } => write!(f, "missing key material: {what}"),
            FheError::Serialization { op, reason } => {
                write!(f, "{op}: serialization failure: {reason}")
            }
            FheError::ChecksumMismatch {
                op,
                section,
                stored,
                computed,
            } => write!(
                f,
                "{op}: checksum mismatch in {section} \
                 (stored {stored:#018x}, computed {computed:#018x})"
            ),
            FheError::ParamsMismatch { op, got, want } => write!(
                f,
                "{op}: params fingerprint mismatch \
                 (blob written under {got:#018x}, context is {want:#018x})"
            ),
            FheError::Overloaded { op, retry_after_ms } => write!(
                f,
                "{op}: overloaded, request shed (retry after {retry_after_ms} ms)"
            ),
            FheError::DeadlineExceeded {
                op,
                deadline_ms,
                elapsed_ms,
            } => write!(
                f,
                "{op}: deadline exceeded ({elapsed_ms} ms elapsed, deadline {deadline_ms} ms)"
            ),
            FheError::Cancelled { op } => write!(f, "{op}: cancelled"),
            FheError::Stalled { op, stalled_ms } => write!(
                f,
                "{op}: stalled (heartbeat stale for {stalled_ms} ms, watchdog aborted the run)"
            ),
            FheError::TenantQuarantined { op, retry_after_ms } => write!(
                f,
                "{op}: tenant quarantined by circuit breaker (retry after {retry_after_ms} ms)"
            ),
        }
    }
}

impl std::error::Error for FheError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FheError::Ckks(e) => Some(e),
            FheError::Rns(e) => Some(e),
            FheError::Math(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CkksError> for FheError {
    fn from(e: CkksError) -> Self {
        FheError::Ckks(e)
    }
}

impl From<RnsError> for FheError {
    fn from(e: RnsError) -> Self {
        FheError::Rns(e)
    }
}

impl From<MathError> for FheError {
    fn from(e: MathError) -> Self {
        FheError::Math(e)
    }
}

impl From<ParamsError> for FheError {
    fn from(e: ParamsError) -> Self {
        FheError::Ckks(CkksError::Params(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_structured_context() {
        let e = FheError::LevelMismatch {
            op: "add",
            got: 3,
            want: 2,
        };
        let s = e.to_string();
        assert!(s.contains("add") && s.contains('3') && s.contains('2'), "{s}");

        let e = FheError::BudgetExhausted {
            op: "mul",
            budget_bits: -4.5,
            required_bits: 10.0,
        };
        assert!(e.to_string().contains("-4.5"));
    }

    #[test]
    fn every_variant_display_names_failing_component() {
        // One instance of every variant, paired with the component keyword
        // its message must name. Adding a variant without extending this list
        // is caught by review, not the compiler (`#[non_exhaustive]` enums
        // cannot be exhaustively enumerated by value), so keep it current.
        let cases: Vec<(FheError, &str)> = vec![
            (
                FheError::Ckks(CkksError::Params(ParamsError("bad levels".into()))),
                "bad levels",
            ),
            (
                FheError::Rns(RnsError::InvalidParameter("bad basis".into())),
                "bad basis",
            ),
            (
                FheError::Math(cl_math::MathError::NotEnoughPrimes {
                    requested: 3,
                    found: 1,
                    bits: 28,
                }),
                "prime",
            ),
            (
                FheError::LevelMismatch {
                    op: "add",
                    got: 3,
                    want: 2,
                },
                "add",
            ),
            (
                FheError::ScaleMismatch {
                    op: "mul",
                    got: 1.0,
                    want: 2.0,
                    rel: 0.5,
                },
                "mul",
            ),
            (
                FheError::BudgetExhausted {
                    op: "square",
                    budget_bits: -1.0,
                    required_bits: 0.0,
                },
                "square",
            ),
            (
                FheError::InvalidParams {
                    op: "rescale",
                    reason: "level 1".into(),
                },
                "rescale",
            ),
            (
                FheError::CorruptCiphertext {
                    op: "validate",
                    reason: "residue out of range".into(),
                },
                "ciphertext",
            ),
            (
                FheError::CorruptKey {
                    op: "keyswitch",
                    reason: "digest".into(),
                },
                "keyswitch",
            ),
            (
                FheError::MissingKey {
                    what: "rotation key 5".into(),
                },
                "key",
            ),
            (
                FheError::Serialization {
                    op: "load_ciphertext",
                    reason: "truncated".into(),
                },
                "load_ciphertext",
            ),
            (
                FheError::ChecksumMismatch {
                    op: "load_ciphertext",
                    section: "limb 3".into(),
                    stored: 1,
                    computed: 2,
                },
                "limb 3",
            ),
            (
                FheError::ParamsMismatch {
                    op: "load_key",
                    got: 0xdead,
                    want: 0xbeef,
                },
                "fingerprint",
            ),
            (
                FheError::Overloaded {
                    op: "submit",
                    retry_after_ms: 40,
                },
                "retry after 40 ms",
            ),
            (
                FheError::DeadlineExceeded {
                    op: "pipeline",
                    deadline_ms: 100,
                    elapsed_ms: 250,
                },
                "deadline",
            ),
            (
                FheError::Cancelled { op: "pipeline" },
                "cancelled",
            ),
            (
                FheError::Stalled {
                    op: "pipeline",
                    stalled_ms: 750,
                },
                "stalled",
            ),
            (
                FheError::TenantQuarantined {
                    op: "submit",
                    retry_after_ms: 200,
                },
                "quarantined",
            ),
        ];
        for (err, component) in cases {
            let msg = err.to_string();
            assert!(!msg.is_empty(), "{err:?} renders empty");
            assert!(
                msg.contains(component),
                "{err:?} message {msg:?} does not name {component:?}"
            );
        }
    }

    #[test]
    fn layer_errors_convert() {
        let p: FheError = ParamsError("levels must be >= 1".into()).into();
        assert!(matches!(p, FheError::Ckks(CkksError::Params(_))));
        assert!(std::error::Error::source(&p).is_some());
    }
}

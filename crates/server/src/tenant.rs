//! Tenant state: parameter fingerprints, key caches, and accounting.
//!
//! Isolation between tenants is structural, not cooperative:
//!
//! - every tenant's blobs are validated against *its own* registered
//!   params fingerprint, so a blob from tenant A (or a stale deployment)
//!   can never be decoded into tenant B's job;
//! - key bundles live in a per-tenant [`KeyCache`] keyed by blob digest,
//!   so one tenant's churn evicts only its own entries. It is the
//!   workspace's one cache type ([`cl_ckks::Cache`]) with a byte budget:
//!   least-recently-used eviction, a miss billed per successful parse,
//!   and a rejected blob never cached;
//! - programs live in a per-tenant cache of [`PreparedProgram`]s keyed by
//!   program blob digest and length, the same cache type under
//!   [`PROGRAM_CACHE_BYTES`]: a program blob is parsed once while its
//!   prepared form stays resident, the rounded plaintext operands it
//!   memoizes are only ever read by that tenant's jobs, and a rejected
//!   blob is never cached. Like the key cache, a hit trusts the digest
//!   and skips the blob's checksum: a tenant that crafts a colliding
//!   blob reaches only its own cached program;
//! - checkpoint directories are disjoint per `(tenant, job)` pair, so the
//!   `CheckpointStore` owner lock never contends across tenants, a
//!   corrupt checkpoint poisons at most one job's retry path, and a
//!   restarted server can resume any journaled job from its own dir;
//! - a per-tenant [`CircuitBreaker`](crate::breaker) quarantines tenants
//!   whose jobs keep failing destructively, without touching the
//!   admission path of healthy tenants.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cl_boot::{BootstrapKeys, Bootstrapper};
use cl_ckks::{Cache, CacheStats, CkksContext, FheResult};
use cl_runtime::{PreparedProgram, Program, RecoveryTelemetry};
use cl_trace::OpSnapshot;

use crate::breaker::{BreakerReport, CircuitBreaker};
use crate::{Blob, OutcomeCode};

/// Byte budget of each tenant's cache of prepared programs, counted by
/// [`PreparedProgram::resident_bytes`]: the parsed ops plus a full memo of
/// rounded plaintext operands, itself capped at
/// [`cl_runtime::COEFF_MEMO_BYTES`]. A program at `lola_mlp_8k`'s shape
/// (N = 8K, 105 plaintext operands) weighs about 10 MiB. Like every
/// bounded cache, it still holds its most recent program when that program
/// alone exceeds the budget.
pub const PROGRAM_CACHE_BYTES: usize = 32 << 20;

/// Key-cache counters for one tenant: the shared [`CacheStats`].
pub type KeyCacheStats = CacheStats;

/// A **bytes-bounded** cache of parsed [`BootstrapKeys`] bundles, keyed by
/// the FNV-1a digest of the serialized blob and evicted
/// least-recently-used ([`cl_ckks::Cache`]). Deserialization (with full
/// checksum/fingerprint verification) is paid once per distinct blob while
/// it stays resident.
///
/// Bundles are resident in their *compact* form (seed + `k0` halves; see
/// [`cl_ckks::CompactKeySwitchKey`]), so the budget counts
/// [`BootstrapKeys::compact_resident_bytes`] — materialized hints live in
/// the process-wide [`cl_ckks::HintCache`] shared across tenants, with
/// per-tenant regen cost attributed through the `hint_regen` op counter.
#[derive(Debug)]
pub struct KeyCache {
    cache: Cache<u64, BootstrapKeys>,
}

impl KeyCache {
    /// A cache bounded to `capacity_bytes` of compact key payload (a
    /// budget of 0 still holds one bundle at a time).
    pub fn new(capacity_bytes: usize) -> Self {
        Self {
            cache: Cache::bounded(capacity_bytes, BootstrapKeys::compact_resident_bytes),
        }
    }

    /// Returns the parsed bundle for `blob`, deserializing on a miss. A hit
    /// costs one map lookup by the blob's digest, not a re-hash of a
    /// megabyte bundle.
    ///
    /// # Errors
    ///
    /// Whatever [`BootstrapKeys::try_deserialize`] rejects: structural
    /// damage, checksum mismatch, or a foreign params fingerprint. A
    /// rejected blob is neither cached nor billed — the next attempt
    /// revalidates.
    pub fn get_or_load(&self, ctx: &CkksContext, blob: &Blob) -> FheResult<Arc<BootstrapKeys>> {
        self.cache
            .get_or_try_insert_with(blob.digest(), || BootstrapKeys::try_deserialize(ctx, blob))
    }

    /// Current counters, with `bytes_resident` reflecting this instant.
    pub fn stats(&self) -> KeyCacheStats {
        self.cache.stats()
    }
}

/// Everything the server holds for one registered tenant.
#[derive(Debug)]
pub struct TenantState {
    /// Tenant identifier (directory-name safe by registration check).
    pub id: String,
    /// The tenant's parameter context (shared with its workers).
    pub ctx: Arc<CkksContext>,
    /// Fingerprint every one of this tenant's blobs must carry.
    pub fingerprint: u64,
    /// Parsed compact key bundles, bytes-bounded and LRU-evicted.
    pub keys: KeyCache,
    /// Prepared programs by blob digest and length, bytes-bounded and
    /// LRU-evicted.
    programs: Cache<(u64, usize), PreparedProgram<'static>>,
    /// Root under which this tenant's per-job checkpoint dirs live.
    pub checkpoint_root: PathBuf,
    /// Server-level retry units remaining (shared across the tenant's
    /// jobs; each restore-and-resume attempt burns one).
    pub retry_budget: AtomicU32,
    /// Bootstrapper hosted for this tenant, when registered with one;
    /// programs containing bootstrap ops are unservable without it.
    pub(crate) booter: Option<Arc<Bootstrapper>>,
    breaker: Mutex<CircuitBreaker>,
    breaker_rejections: AtomicU64,
    watchdog_stalls: AtomicU64,
    jobs_ok: AtomicU64,
    jobs_failed: AtomicU64,
    jobs_shed: AtomicU64,
    retries_spent: AtomicU64,
    recovery: Mutex<RecoveryTelemetry>,
    ops: Mutex<OpSnapshot>,
}

impl TenantState {
    pub(crate) fn new(
        id: String,
        ctx: Arc<CkksContext>,
        checkpoint_root: PathBuf,
        key_cache_bytes: usize,
        program_cache_bytes: usize,
        retry_budget: u32,
    ) -> Self {
        let fingerprint = ctx.params_fingerprint();
        Self {
            id,
            ctx,
            fingerprint,
            keys: KeyCache::new(key_cache_bytes),
            programs: Cache::bounded(program_cache_bytes, PreparedProgram::resident_bytes),
            checkpoint_root,
            retry_budget: AtomicU32::new(retry_budget),
            booter: None,
            breaker: Mutex::new(CircuitBreaker::new(0, 0)),
            breaker_rejections: AtomicU64::new(0),
            watchdog_stalls: AtomicU64::new(0),
            jobs_ok: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            jobs_shed: AtomicU64::new(0),
            retries_spent: AtomicU64::new(0),
            recovery: Mutex::new(RecoveryTelemetry::default()),
            ops: Mutex::new(OpSnapshot::default()),
        }
    }

    /// The prepared form of the program in `blob`, parsed and prepared on
    /// a miss. A hit costs one map lookup by the blob's digest and length.
    ///
    /// # Errors
    ///
    /// Whatever [`Program::try_deserialize`] rejects under this tenant's
    /// fingerprint. A rejected blob is neither cached nor billed — the next
    /// attempt revalidates.
    pub(crate) fn program(&self, blob: &Blob) -> FheResult<Arc<PreparedProgram<'static>>> {
        self.programs
            .get_or_try_insert_with((blob.digest(), blob.len()), || {
                Program::try_deserialize(blob, self.fingerprint)
                    .map(|program| PreparedProgram::new(&self.ctx, program))
            })
    }

    /// Hosts a bootstrapper for this tenant (set before registration).
    pub(crate) fn set_booter(&mut self, booter: Arc<Bootstrapper>) {
        self.booter = Some(booter);
    }

    /// Configures the circuit breaker (set before registration;
    /// `threshold == 0` leaves it disabled).
    pub(crate) fn set_breaker(&mut self, threshold: u32, backoff_ms: u64) {
        self.breaker = Mutex::new(CircuitBreaker::new(threshold, backoff_ms));
    }

    /// Breaker gate at admission: `Err(retry_after_ms)` quarantines the
    /// submission. Rejections are counted here.
    pub(crate) fn breaker_admit(&self) -> Result<(), u64> {
        let verdict = self
            .breaker
            .lock()
            .expect("breaker poisoned: a holder panicked mid-update")
            .admit();
        if verdict.is_err() {
            self.breaker_rejections.fetch_add(1, Ordering::Relaxed);
        }
        verdict
    }

    /// Feeds a finished job's outcome to the breaker.
    pub(crate) fn breaker_record(&self, code: OutcomeCode) {
        self.breaker
            .lock()
            .expect("breaker poisoned: a holder panicked mid-update")
            .record(code);
    }

    /// Counts one watchdog stall verdict against this tenant.
    pub(crate) fn record_stall(&self) {
        self.watchdog_stalls.fetch_add(1, Ordering::Relaxed);
    }

    /// Tries to consume one retry unit; `false` when the budget is spent.
    pub fn try_spend_retry(&self) -> bool {
        self.retry_budget
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |b| b.checked_sub(1))
            .map(|_| {
                self.retries_spent.fetch_add(1, Ordering::Relaxed);
            })
            .is_ok()
    }

    pub(crate) fn record_ok(&self) {
        self.jobs_ok.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_failed(&self) {
        self.jobs_failed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_shed(&self) {
        self.jobs_shed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn absorb(&self, recovery: RecoveryTelemetry, ops: OpSnapshot) {
        let mut agg = self
            .recovery
            .lock()
            .expect("tenant telemetry poisoned: a holder panicked mid-update");
        agg.merge(&recovery);
        drop(agg);
        let mut agg_ops = self
            .ops
            .lock()
            .expect("tenant op ledger poisoned: a holder panicked mid-update");
        *agg_ops = agg_ops.plus(&ops);
    }

    /// A point-in-time accounting snapshot for this tenant.
    pub fn report(&self) -> TenantReport {
        TenantReport {
            tenant: self.id.clone(),
            jobs_ok: self.jobs_ok.load(Ordering::Relaxed),
            jobs_failed: self.jobs_failed.load(Ordering::Relaxed),
            jobs_shed: self.jobs_shed.load(Ordering::Relaxed),
            retries_spent: self.retries_spent.load(Ordering::Relaxed),
            retry_budget_left: self.retry_budget.load(Ordering::Acquire),
            recovery: *self
                .recovery
                .lock()
                .expect("tenant telemetry poisoned: a holder panicked mid-update"),
            ops: *self
                .ops
                .lock()
                .expect("tenant op ledger poisoned: a holder panicked mid-update"),
            key_cache: self.keys.stats(),
            program_cache: self.programs.stats(),
            breaker: self
                .breaker
                .lock()
                .expect("breaker poisoned: a holder panicked mid-update")
                .report(),
            breaker_rejections: self.breaker_rejections.load(Ordering::Relaxed),
            watchdog_stalls: self.watchdog_stalls.load(Ordering::Relaxed),
        }
    }
}

/// Per-tenant accounting: job counts, retry spend, recovery counters,
/// and (with `cl-trace`'s `trace` feature) homomorphic-op deltas
/// attributed to this tenant's jobs.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant identifier.
    pub tenant: String,
    /// Jobs that completed with an output.
    pub jobs_ok: u64,
    /// Jobs that ended with a failure outcome.
    pub jobs_failed: u64,
    /// Submissions refused at admission (overload shedding).
    pub jobs_shed: u64,
    /// Server-level retry units consumed.
    pub retries_spent: u64,
    /// Retry units remaining.
    pub retry_budget_left: u32,
    /// Executor recovery counters summed over every attempt.
    pub recovery: RecoveryTelemetry,
    /// Homomorphic-op counters attributed to this tenant (zeros unless
    /// built with `cl-trace/trace`).
    pub ops: OpSnapshot,
    /// Key-cache behaviour.
    pub key_cache: KeyCacheStats,
    /// Program-cache behaviour: a hit per job whose program was already
    /// parsed and prepared.
    pub program_cache: CacheStats,
    /// Circuit-breaker state at this instant.
    pub breaker: BreakerReport,
    /// Submissions refused by the breaker over the tenant's lifetime.
    pub breaker_rejections: u64,
    /// Watchdog stall verdicts charged to this tenant's jobs.
    pub watchdog_stalls: u64,
}

/// The registry mapping tenant ids to their state.
#[derive(Debug, Default)]
pub(crate) struct TenantRegistry {
    tenants: Mutex<HashMap<String, Arc<TenantState>>>,
}

impl TenantRegistry {
    pub(crate) fn insert(&self, state: Arc<TenantState>) -> bool {
        let mut map = self.lock();
        if map.contains_key(&state.id) {
            return false;
        }
        map.insert(state.id.clone(), state);
        true
    }

    pub(crate) fn get(&self, id: &str) -> Option<Arc<TenantState>> {
        self.lock().get(id).cloned()
    }

    pub(crate) fn ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self.lock().keys().cloned().collect();
        ids.sort_unstable();
        ids
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<String, Arc<TenantState>>> {
        self.tenants
            .lock()
            .expect("tenant registry poisoned: a holder panicked mid-update")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cl_ckks::{CkksParams, GuardrailPolicy, KeySwitchKind};
    use rand::SeedableRng;

    fn ctx() -> CkksContext {
        let params = CkksParams::builder()
            .ring_degree(64)
            .levels(4)
            .special_limbs(4)
            .limb_bits(45)
            .scale_bits(40)
            .build()
            .unwrap();
        CkksContext::new(params)
            .unwrap()
            .with_policy(GuardrailPolicy::Strict {
                min_budget_bits: -60.0,
            })
    }

    fn key_blob(ctx: &CkksContext, seed: u64) -> Vec<u8> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let sk = ctx.keygen_sparse(8, &mut rng);
        let keys = BootstrapKeys::generate(ctx, &sk, KeySwitchKind::Standard, &[1], &mut rng);
        keys.serialize(ctx)
    }

    #[test]
    fn corrupt_key_blob_is_rejected_and_never_cached() {
        let ctx = ctx();
        let mut blob = key_blob(&ctx, 7);
        let mid = blob.len() / 2;
        blob[mid] ^= 0x40;
        let blob = Blob::new(blob);
        let cache = KeyCache::new(1 << 20);
        assert!(cache.get_or_load(&ctx, &blob).is_err());
        // Misses only count *successful* parses; the reject is not billed
        // as cache traffic, and nothing is resident.
        assert_eq!(cache.stats(), CacheStats::default());
        // The next attempt revalidates instead of serving a cached reject.
        assert!(cache.get_or_load(&ctx, &blob).is_err());
        // A sound bundle loads once and then hits by its digest.
        let sound = Blob::new(key_blob(&ctx, 7));
        let a = cache.get_or_load(&ctx, &sound).unwrap();
        let b = cache.get_or_load(&ctx, &sound).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.bytes_resident), (1, 1, a.compact_resident_bytes()));
    }

    #[test]
    fn retry_budget_is_finite_and_thread_safe() {
        let t = TenantState::new(
            "t0".into(),
            Arc::new(ctx()),
            std::env::temp_dir().join("cl-server-tenant-test"),
            1 << 20,
            PROGRAM_CACHE_BYTES,
            3,
        );
        assert!(t.try_spend_retry());
        assert!(t.try_spend_retry());
        assert!(t.try_spend_retry());
        assert!(!t.try_spend_retry(), "budget of 3 allows exactly 3 spends");
        let report = t.report();
        assert_eq!(report.retries_spent, 3);
        assert_eq!(report.retry_budget_left, 0);
    }
}

//! Tenant state: parameter fingerprints, key caches, and accounting.
//!
//! Isolation between tenants is structural, not cooperative:
//!
//! - every tenant's blobs are validated against *its own* registered
//!   params fingerprint, so a blob from tenant A (or a stale deployment)
//!   can never be decoded into tenant B's job;
//! - key bundles live in a per-tenant LRU cache keyed by blob digest —
//!   one tenant's churn evicts only its own entries;
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
use cl_ckks::serialize::fnv1a_fast;
use cl_ckks::{CkksContext, FheResult};
use cl_runtime::RecoveryTelemetry;
use cl_trace::OpSnapshot;

use crate::breaker::{BreakerReport, CircuitBreaker};
use crate::OutcomeCode;

/// Key-cache counters for one tenant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KeyCacheStats {
    /// Lookups served from the parsed cache.
    pub hits: u64,
    /// Lookups that had to deserialize (and integrity-check) the blob.
    pub misses: u64,
    /// Parsed bundles dropped to stay within the cache bound.
    pub evictions: u64,
    /// Bytes of compact key payload currently resident (gauge, not a
    /// counter).
    pub bytes_resident: usize,
}

/// A **bytes-bounded** cache of parsed [`BootstrapKeys`] bundles, keyed by
/// the FNV-1a digest of the serialized blob and evicted
/// least-recently-used. Deserialization (with full checksum/fingerprint
/// verification) is paid once per distinct blob while it stays resident.
///
/// Bundles are resident in their *compact* form (seed + `k0` halves; see
/// [`cl_ckks::CompactKeySwitchKey`]), so the budget counts
/// [`BootstrapKeys::compact_resident_bytes`] — materialized hints live in
/// the process-wide [`cl_ckks::HintCache`] shared across tenants, with
/// per-tenant regen cost attributed through the `hint_regen` op counter.
///
/// Lookups are O(1): a digest-keyed `HashMap` whose nodes form an
/// intrusive doubly-linked recency list (no `Vec` scan, no allocation on
/// a hit).
#[derive(Debug)]
pub struct KeyCache {
    inner: Mutex<KeyCacheInner>,
}

#[derive(Debug)]
struct Node {
    keys: Arc<BootstrapKeys>,
    bytes: usize,
    /// Neighbor toward the MRU end (`None` = this is the head).
    prev: Option<u64>,
    /// Neighbor toward the LRU end (`None` = this is the tail).
    next: Option<u64>,
}

#[derive(Debug)]
struct KeyCacheInner {
    entries: HashMap<u64, Node>,
    /// Most-recently-used digest.
    head: Option<u64>,
    /// Least-recently-used digest (first eviction victim).
    tail: Option<u64>,
    capacity_bytes: usize,
    bytes: usize,
    stats: KeyCacheStats,
}

impl KeyCacheInner {
    /// Detaches `digest` from the recency list (the node stays in the map).
    fn unlink(&mut self, digest: u64) {
        let (prev, next) = {
            let n = &self.entries[&digest];
            (n.prev, n.next)
        };
        match prev {
            Some(p) => {
                if let Some(node) = self.entries.get_mut(&p) {
                    node.next = next;
                }
            }
            None => self.head = next,
        }
        match next {
            Some(nx) => {
                if let Some(node) = self.entries.get_mut(&nx) {
                    node.prev = prev;
                }
            }
            None => self.tail = prev,
        }
    }

    /// Links `digest` in as the new head (must currently be detached).
    fn push_front(&mut self, digest: u64) {
        let old_head = self.head;
        if let Some(node) = self.entries.get_mut(&digest) {
            node.prev = None;
            node.next = old_head;
        }
        if let Some(h) = old_head {
            if let Some(node) = self.entries.get_mut(&h) {
                node.prev = Some(digest);
            }
        }
        self.head = Some(digest);
        if self.tail.is_none() {
            self.tail = Some(digest);
        }
    }

    fn touch(&mut self, digest: u64) {
        if self.head == Some(digest) {
            return;
        }
        self.unlink(digest);
        self.push_front(digest);
    }

    /// Evicts LRU-first until the byte budget holds, always keeping at
    /// least one bundle — a single bundle larger than the whole budget
    /// must still be usable.
    fn evict_to_fit(&mut self) {
        while self.bytes > self.capacity_bytes && self.entries.len() > 1 {
            let Some(victim) = self.tail else { break };
            self.unlink(victim);
            if let Some(node) = self.entries.remove(&victim) {
                self.bytes -= node.bytes;
                self.stats.evictions += 1;
            }
        }
    }
}

impl KeyCache {
    /// A cache bounded to `capacity_bytes` of compact key payload (a
    /// budget of 0 still holds one bundle at a time).
    pub fn new(capacity_bytes: usize) -> Self {
        Self {
            inner: Mutex::new(KeyCacheInner {
                entries: HashMap::new(),
                head: None,
                tail: None,
                capacity_bytes,
                bytes: 0,
                stats: KeyCacheStats::default(),
            }),
        }
    }

    /// Returns the parsed bundle for `blob`, deserializing on a miss.
    ///
    /// # Errors
    ///
    /// Whatever [`BootstrapKeys::try_deserialize`] rejects: structural
    /// damage, checksum mismatch, or a foreign params fingerprint. A
    /// rejected blob is *not* cached — the next attempt revalidates.
    pub fn get_or_load(&self, ctx: &CkksContext, blob: &[u8]) -> FheResult<Arc<BootstrapKeys>> {
        self.get_or_load_with_digest(ctx, blob, fnv1a_fast(blob))
    }

    /// [`KeyCache::get_or_load`] with the `fnv1a_fast(blob)` digest
    /// already in hand (e.g. cached on a [`crate::Blob`]): a cache hit
    /// then costs one map lookup, not a re-hash of a megabyte bundle.
    ///
    /// # Errors
    ///
    /// Same as [`KeyCache::get_or_load`].
    pub fn get_or_load_with_digest(
        &self,
        ctx: &CkksContext,
        blob: &[u8],
        digest: u64,
    ) -> FheResult<Arc<BootstrapKeys>> {
        {
            let mut inner = self.lock();
            if let Some(node) = inner.entries.get(&digest) {
                let keys = Arc::clone(&node.keys);
                inner.stats.hits += 1;
                inner.touch(digest);
                return Ok(keys);
            }
        }
        // Parse outside the lock: deserialization verifies every nested
        // key and dominates the cost; other jobs keep hitting the cache.
        let keys = Arc::new(BootstrapKeys::try_deserialize(ctx, blob)?);
        let bytes = keys.compact_resident_bytes();
        let mut inner = self.lock();
        inner.stats.misses += 1;
        if let Some(node) = inner.entries.get(&digest) {
            // Another worker parsed the same blob concurrently; keep the
            // resident copy and refresh its recency.
            let resident = Arc::clone(&node.keys);
            inner.touch(digest);
            return Ok(resident);
        }
        inner.entries.insert(
            digest,
            Node {
                keys: Arc::clone(&keys),
                bytes,
                prev: None,
                next: None,
            },
        );
        inner.push_front(digest);
        inner.bytes += bytes;
        inner.evict_to_fit();
        Ok(keys)
    }

    /// Current counters, with `bytes_resident` reflecting this instant.
    pub fn stats(&self) -> KeyCacheStats {
        let inner = self.lock();
        KeyCacheStats {
            bytes_resident: inner.bytes,
            ..inner.stats
        }
    }

    /// Parsed bundles currently resident.
    pub fn resident(&self) -> usize {
        self.lock().entries.len()
    }

    /// Compact key bytes currently resident.
    pub fn bytes_resident(&self) -> usize {
        self.lock().bytes
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, KeyCacheInner> {
        self.inner
            .lock()
            .expect("key cache poisoned: a holder panicked mid-update")
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
        retry_budget: u32,
    ) -> Self {
        let fingerprint = ctx.params_fingerprint();
        Self {
            id,
            ctx,
            fingerprint,
            keys: KeyCache::new(key_cache_bytes),
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
    fn key_cache_hits_after_first_load_and_evicts_lru() {
        let ctx = ctx();
        let blob_a = key_blob(&ctx, 1);
        let blob_b = key_blob(&ctx, 2);
        let blob_c = key_blob(&ctx, 3);
        // Every bundle has the same shape, so one parse prices them all;
        // budget for exactly two resident bundles.
        let one = BootstrapKeys::try_deserialize(&ctx, &blob_a)
            .unwrap()
            .compact_resident_bytes();
        let cache = KeyCache::new(2 * one);

        cache.get_or_load(&ctx, &blob_a).unwrap();
        cache.get_or_load(&ctx, &blob_a).unwrap();
        assert_eq!(
            cache.stats(),
            KeyCacheStats { hits: 1, misses: 1, evictions: 0, bytes_resident: one }
        );

        cache.get_or_load(&ctx, &blob_b).unwrap();
        // `a` was touched more recently than nothing — order is now b, a.
        // Loading `c` exceeds the byte budget and evicts the least recent
        // (`a`).
        cache.get_or_load(&ctx, &blob_c).unwrap();
        assert_eq!(cache.resident(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.bytes_resident(), 2 * one);
        // `a` must be reparsed (a fresh miss), `c` is a hit.
        cache.get_or_load(&ctx, &blob_c).unwrap();
        cache.get_or_load(&ctx, &blob_a).unwrap();
        assert_eq!(cache.stats().misses, 4);
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn corrupt_key_blob_is_rejected_and_never_cached() {
        let ctx = ctx();
        let mut blob = key_blob(&ctx, 7);
        let mid = blob.len() / 2;
        blob[mid] ^= 0x40;
        let cache = KeyCache::new(1 << 20);
        assert!(cache.get_or_load(&ctx, &blob).is_err());
        assert_eq!(cache.resident(), 0);
        assert_eq!(cache.bytes_resident(), 0);
        // Misses only count *successful* parses; the reject is not billed
        // as cache traffic.
        assert_eq!(cache.stats().misses, 0);
    }

    #[test]
    fn oversized_single_bundle_stays_usable() {
        let ctx = ctx();
        let blob_a = key_blob(&ctx, 1);
        let blob_b = key_blob(&ctx, 2);
        // Budget smaller than any bundle: the cache still holds exactly
        // one at a time instead of thrashing to empty.
        let cache = KeyCache::new(1);
        cache.get_or_load(&ctx, &blob_a).unwrap();
        assert_eq!(cache.resident(), 1);
        cache.get_or_load(&ctx, &blob_b).unwrap();
        assert_eq!(cache.resident(), 1);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn retry_budget_is_finite_and_thread_safe() {
        let t = TenantState::new(
            "t0".into(),
            Arc::new(ctx()),
            std::env::temp_dir().join("cl-server-tenant-test"),
            1 << 20,
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

//! Bounded hot cache of materialized keyswitch hints — the software
//! analogue of CraterLake's on-chip hint storage fed by the KSHGen unit.
//!
//! Compact keys ([`CompactKeySwitchKey`]) keep only the seed and the
//! non-random `k0` halves resident; applying one requires the full
//! materialized [`KeySwitchKey`]. This cache bounds how many materialized
//! hints exist at once. It is a bytes-bounded [`cl_math::Cache`] keyed by
//! [`HintId`]: a hit returns the shared `Arc`, a miss expands through the
//! seeded generator outside the lock, and eviction is least recently used
//! or, while a caller's rotation schedule is installed ([`HintCache::plan`]),
//! Belady's MIN rule over it. The wrapper adds only the hint format: the
//! identity of a compact key and its seeded expansion.
//!
//! Evicting an entry only drops the cache's reference: callers holding the
//! `Arc` keep computing with it, and a later re-expansion regenerates a
//! bit-identical key (the integrity digest proves it), so eviction can
//! never change results — only regen cost, which `cl-trace` attributes via
//! the `hint_regen` counter.

use std::sync::{Arc, OnceLock};

use cl_math::{Cache, CacheStats};

use crate::error::FheResult;
use crate::keys::{CompactKeySwitchKey, KeySwitchKey};
use crate::CkksContext;

/// Identity of a cached hint: the parameter fingerprint (two tenants with
/// different parameter sets never share an entry even on a digest
/// collision) plus the key's integrity digest.
pub type HintId = (u64, u64);

/// Hint cache counters: the shared [`CacheStats`].
pub type HintCacheStats = CacheStats;

/// A bytes-bounded, thread-safe cache of materialized keyswitch hints,
/// shareable across tenants (entries are keyed by parameter fingerprint and
/// integrity digest, so tenants with identical keys deduplicate and tenants
/// with different parameters never collide).
#[derive(Debug)]
pub struct HintCache {
    cache: Cache<HintId, KeySwitchKey>,
}

/// Default hot-hint budget when `CL_HINT_CACHE_BYTES` is unset: 64 MiB,
/// comfortably above one bootstrap-capable working set at bench shapes.
pub const DEFAULT_HINT_CACHE_BYTES: usize = 64 << 20;

impl HintCache {
    /// A cache bounded to `capacity_bytes` of materialized hint payload
    /// (a budget of 0 still holds one entry at a time).
    pub fn new(capacity_bytes: usize) -> Self {
        Self {
            cache: Cache::bounded(capacity_bytes, KeySwitchKey::resident_bytes),
        }
    }

    /// The process-wide shared cache, sized once from `CL_HINT_CACHE_BYTES`
    /// (bytes; defaults to [`DEFAULT_HINT_CACHE_BYTES`]).
    pub fn global() -> &'static HintCache {
        static GLOBAL: OnceLock<HintCache> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let cap = std::env::var("CL_HINT_CACHE_BYTES")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .unwrap_or(DEFAULT_HINT_CACHE_BYTES);
            HintCache::new(cap)
        })
    }

    /// Returns the materialized hint for `compact`, expanding it through
    /// the seeded generator on a miss.
    ///
    /// # Errors
    ///
    /// [`crate::FheError::CorruptKey`] when expansion fails the integrity
    /// digest ([`CompactKeySwitchKey::expand`]); the failure is neither
    /// cached nor billed.
    pub fn get_or_expand(
        &self,
        ctx: &CkksContext,
        compact: &CompactKeySwitchKey,
    ) -> FheResult<Arc<KeySwitchKey>> {
        self.cache
            .get_or_try_insert_with(Self::hint_id(ctx, compact), || compact.expand(ctx))
    }

    /// Expands `compact` into the cache if absent, without counting a hit
    /// or miss — used to warm the hints an upcoming hoisted-rotation group
    /// needs while earlier work is still executing.
    ///
    /// # Errors
    ///
    /// Same contract as [`HintCache::get_or_expand`].
    pub fn prefetch(&self, ctx: &CkksContext, compact: &CompactKeySwitchKey) -> FheResult<()> {
        self.cache
            .prefetch(Self::hint_id(ctx, compact), || compact.expand(ctx))
    }

    /// Installs the future access schedule (a sequence of
    /// [`HintCache::hint_id`] values in execution order) as the Belady
    /// eviction oracle, replacing any previous plan.
    pub fn plan(&self, schedule: Vec<HintId>) {
        self.cache.plan(schedule);
    }

    /// Clears the Belady plan, returning to pure LRU.
    pub fn clear_plan(&self) {
        self.cache.clear_plan();
    }

    /// The cache identity of a compact key under `ctx` — the value
    /// [`HintCache::plan`] schedules are built from.
    pub fn hint_id(ctx: &CkksContext, compact: &CompactKeySwitchKey) -> HintId {
        (ctx.params_fingerprint(), compact.integrity_digest())
    }

    /// Current counters.
    pub fn stats(&self) -> HintCacheStats {
        self.cache.stats()
    }

    /// Zeroes the hit/miss/eviction counters (resident bytes are a gauge
    /// and unaffected).
    pub fn reset_stats(&self) {
        self.cache.reset_stats();
    }

    /// Drops every resident entry and the plan (outstanding `Arc`s keep
    /// their keys).
    pub fn clear(&self) {
        self.cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CkksParams, KeySwitchKind};
    use rand::SeedableRng;

    fn ctx() -> CkksContext {
        let params = CkksParams::builder()
            .ring_degree(64)
            .levels(3)
            .special_limbs(3)
            .limb_bits(36)
            .scale_bits(30)
            .build()
            .unwrap();
        CkksContext::new(params).unwrap()
    }

    fn compact_keys(c: &CkksContext, n: usize) -> Vec<CompactKeySwitchKey> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let sk = c.keygen(&mut rng);
        (0..n)
            .map(|i| {
                c.rotation_keygen(&sk, i as i64 + 1, KeySwitchKind::Boosted { digits: 1 }, &mut rng)
                    .to_compact()
            })
            .collect()
    }

    #[test]
    fn hit_miss_and_bit_exact_reexpansion() {
        let c = ctx();
        let keys = compact_keys(&c, 1);
        let cache = HintCache::new(usize::MAX);
        let a = cache.get_or_expand(&c, &keys[0]).unwrap();
        let b = cache.get_or_expand(&c, &keys[0]).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hit must share the resident Arc");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.bytes_resident, a.resident_bytes());
        // Eviction then re-expansion reproduces the identical key.
        cache.clear();
        let c2 = cache.get_or_expand(&c, &keys[0]).unwrap();
        assert_eq!(c2.integrity_digest(), a.integrity_digest());
        assert!(c2.verify_integrity());
    }
}

//! One keyed, thread-safe cache of shared values. Every cache in the
//! workspace is one of these: NTT and automorphism tables, base
//! converters, bootstrap transform plaintexts, materialized keyswitch
//! hints and parsed key bundles.
//!
//! A lookup returns an `Arc` of the value. The caller's closure builds a
//! missing value outside the lock, so builds of different keys overlap and
//! no lookup waits on a build. Two callers that miss on the same key both
//! build; the first insert wins, and both get the resident value.
//!
//! **Billing.** A lookup that finds its key is a hit. A build that
//! succeeds is a miss, also one that loses the insert race: its work was
//! done. A build that fails is neither inserted nor billed, so the next
//! lookup builds again.
//!
//! **Budget.** A [`Cache::bounded`] cache weighs each value once, before
//! inserting it, and then evicts until the resident bytes fit the budget.
//! It never evicts the entry being inserted and always keeps one entry, so
//! a value larger than the whole budget is still usable. The victim is the
//! least recently used entry, always: a cache shared by concurrent callers
//! has no one schedule to plan eviction over. (CraterLake's compiler
//! applies Belady's MIN to on-chip storage because it owns the whole
//! static schedule (Sec. 6); the machine model in `cl-core` keeps that
//! rule.) A [`Cache::unbounded`] cache weighs nothing and never evicts.
//! Eviction drops only the cache's reference; holders of the `Arc` keep
//! using the value.
//!
//! **Poisoning.** The lock guards only the cache's own bookkeeping: no
//! build and no weighing runs under it. A panic while it is held can come
//! only from the key's `Hash` or `Eq`, so a poisoned lock is taken over as
//! it is ([`PoisonError::into_inner`]) instead of passed on. One panicking
//! caller never disables a process-wide cache.

use std::collections::HashMap;
use std::convert::Infallible;
use std::fmt;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Counters of one [`Cache`] since construction or the last
/// [`Cache::reset_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a resident entry.
    pub hits: u64,
    /// Successful builds, one that lost the insert race included.
    pub misses: u64,
    /// Entries dropped to fit the byte budget.
    pub evictions: u64,
    /// Bytes resident now (a gauge; always 0 in an unbounded cache).
    pub bytes_resident: usize,
}

/// A keyed, thread-safe cache of shared values (see the module docs).
pub struct Cache<K, V> {
    capacity_bytes: usize,
    weigh: fn(&V) -> usize,
    inner: Mutex<Inner<K, V>>,
}

struct Entry<V> {
    value: Arc<V>,
    bytes: usize,
    last_used: u64,
}

struct Inner<K, V> {
    entries: HashMap<K, Entry<V>>,
    tick: u64,
    stats: CacheStats,
}

impl<K: Eq + Hash + Clone, V> Inner<K, V> {
    /// The resident value of `key`, stamped as used now.
    fn touch(&mut self, key: &K) -> Option<Arc<V>> {
        let entry = self.entries.get_mut(key)?;
        self.tick += 1;
        entry.last_used = self.tick;
        Some(Arc::clone(&entry.value))
    }

    fn insert(&mut self, key: K, value: Arc<V>, bytes: usize) {
        self.tick += 1;
        let last_used = self.tick;
        self.entries.insert(
            key,
            Entry {
                value,
                bytes,
                last_used,
            },
        );
        self.stats.bytes_resident += bytes;
    }

    fn evict_to_fit(&mut self, capacity_bytes: usize, keep: &K) {
        while self.stats.bytes_resident > capacity_bytes && self.entries.len() > 1 {
            let Some(victim) = self.victim(keep) else {
                break;
            };
            if let Some(entry) = self.entries.remove(&victim) {
                self.stats.bytes_resident -= entry.bytes;
                self.stats.evictions += 1;
            }
        }
    }

    /// The least recently used entry other than `keep`.
    fn victim(&self, keep: &K) -> Option<K> {
        self.entries
            .iter()
            .filter(|(k, _)| *k != keep)
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| k.clone())
    }
}

impl<K: Eq + Hash + Clone, V> Cache<K, V> {
    /// A cache that never evicts.
    pub fn unbounded() -> Self {
        Self::bounded(usize::MAX, |_| 0)
    }

    /// A cache holding at most `capacity_bytes` of values, each priced by
    /// `weigh` (a budget of 0 still holds one entry).
    pub fn bounded(capacity_bytes: usize, weigh: fn(&V) -> usize) -> Self {
        Self {
            capacity_bytes,
            weigh,
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                tick: 0,
                stats: CacheStats::default(),
            }),
        }
    }

    /// The value of `key`, built by `build` on a miss.
    pub fn get_or_insert_with(&self, key: K, build: impl FnOnce() -> V) -> Arc<V> {
        let Ok(value) = self.get_or_try_insert_with(key, || Ok::<_, Infallible>(build()));
        value
    }

    /// The value of `key`, built by `build` on a miss.
    ///
    /// # Errors
    ///
    /// Whatever `build` returns; the failed build leaves no entry and no
    /// bill behind.
    pub fn get_or_try_insert_with<E>(
        &self,
        key: K,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        let mut inner = self.lock();
        if let Some(value) = inner.touch(&key) {
            inner.stats.hits += 1;
            return Ok(value);
        }
        drop(inner);
        let value = Arc::new(build()?);
        let bytes = (self.weigh)(&value);
        let mut inner = self.lock();
        inner.stats.misses += 1;
        if let Some(resident) = inner.touch(&key) {
            return Ok(resident);
        }
        inner.insert(key.clone(), Arc::clone(&value), bytes);
        inner.touch(&key);
        inner.evict_to_fit(self.capacity_bytes, &key);
        Ok(value)
    }

    /// Whether `key` is resident.
    #[cfg(test)]
    fn contains(&self, key: &K) -> bool {
        self.lock().entries.contains_key(key)
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }

    /// Zeroes the hit, miss and eviction counters (resident bytes are a
    /// gauge and stay).
    pub fn reset_stats(&self) {
        let stats = &mut self.lock().stats;
        *stats = CacheStats {
            bytes_resident: stats.bytes_resident,
            ..CacheStats::default()
        };
    }

    /// Drops every entry (outstanding `Arc`s keep their values).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.entries.clear();
        inner.stats.bytes_resident = 0;
    }

    fn lock(&self) -> MutexGuard<'_, Inner<K, V>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<K, V> fmt::Debug for Cache<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        f.debug_struct("Cache")
            .field("capacity_bytes", &self.capacity_bytes)
            .field("entries", &inner.entries.len())
            .field("stats", &inner.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    /// Values weigh their length in bytes.
    fn bounded(capacity_bytes: usize) -> Cache<u32, Vec<u8>> {
        Cache::bounded(capacity_bytes, Vec::len)
    }

    /// A lookup of `key` whose build makes a 10-byte value.
    fn get(cache: &Cache<u32, Vec<u8>>, key: u32) -> Arc<Vec<u8>> {
        cache.get_or_insert_with(key, || vec![key as u8; 10])
    }

    #[test]
    fn racing_first_lookups_share_one_value() {
        // Every build waits until all threads are building, so every
        // lookup misses and all but the first insert lose the race.
        const THREADS: usize = 6;
        let cache = bounded(usize::MAX);
        let all_building = Barrier::new(THREADS);
        let values: Vec<Arc<Vec<u8>>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        cache.get_or_insert_with(7, || {
                            all_building.wait();
                            vec![7; 10]
                        })
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert!(
            values.iter().all(|v| Arc::ptr_eq(v, &values[0])),
            "one shared value"
        );
        let s = cache.stats();
        assert_eq!(
            (s.hits, s.misses),
            (0, THREADS as u64),
            "one miss per build"
        );
        assert_eq!(cache.len(), 1);
        assert_eq!(s.bytes_resident, 10, "a lost race inserts nothing");
        assert!(Arc::ptr_eq(&get(&cache, 7), &values[0]));
        let s = cache.stats();
        assert_eq!(
            s.hits + s.misses,
            THREADS as u64 + 1,
            "every lookup billed once"
        );
    }

    #[test]
    fn failing_build_is_neither_inserted_nor_billed() {
        let cache = bounded(usize::MAX);
        assert_eq!(
            cache.get_or_try_insert_with(1, || Err("corrupt")),
            Err("corrupt")
        );
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
        // The next lookup builds again.
        get(&cache, 1);
        assert_eq!((cache.stats().hits, cache.stats().misses), (0, 1));
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        // Room for two values: touching 0 leaves 1 the coldest, so
        // inserting 2 evicts 1.
        let cache = bounded(20);
        get(&cache, 0);
        get(&cache, 1);
        get(&cache, 0);
        get(&cache, 2);
        assert!(cache.contains(&0) && !cache.contains(&1) && cache.contains(&2));
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.stats().bytes_resident <= 20);
    }

    #[test]
    fn lru_bills_hits_misses_and_evictions() {
        let cache = bounded(20);
        get(&cache, 0);
        get(&cache, 0);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0,
                bytes_resident: 10
            }
        );
        // Recency is now 1, 0: inserting 2 evicts 0.
        get(&cache, 1);
        get(&cache, 2);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().bytes_resident, 20);
        // 0 is built again (a fresh miss), 2 is a hit.
        get(&cache, 2);
        get(&cache, 0);
        assert_eq!(cache.stats().misses, 4);
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn oversized_entry_stays_usable() {
        // A budget smaller than any value still holds exactly one entry.
        let cache = bounded(1);
        let a = get(&cache, 0);
        assert_eq!(a.len(), 10);
        assert!(cache.contains(&0));
        get(&cache, 1);
        assert!(cache.contains(&1) && !cache.contains(&0));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn unbounded_cache_never_evicts_and_resets_counters() {
        let cache: Cache<u32, Vec<u8>> = Cache::unbounded();
        for key in 0..100 {
            get(&cache, key);
        }
        assert_eq!(cache.len(), 100);
        let s = cache.stats();
        assert_eq!((s.misses, s.evictions, s.bytes_resident), (100, 0, 0));
        cache.reset_stats();
        assert_eq!(cache.stats(), CacheStats::default());
        cache.clear();
        assert!(cache.is_empty());
    }
}

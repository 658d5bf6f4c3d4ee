//! Bounded, tenant-fair admission queue.
//!
//! Backpressure is *explicit*: admission fails with a capacity verdict —
//! it never blocks and never grows without bound — so a caller under
//! overload gets an immediate [`crate::OutcomeCode::Overloaded`]-class
//! rejection with a retry hint instead of latency creep followed by OOM.
//!
//! Two bounds are enforced, both deterministic:
//!
//! - a **global** capacity on queued jobs across all tenants (the memory
//!   bound: queued blobs are the dominant held allocation), and
//! - a **per-tenant** capacity, so one chatty tenant saturating the
//!   server sheds *its own* excess first and cannot crowd quieter
//!   tenants out of the shared capacity (tenant-fair shedding).
//!
//! Dequeue is round-robin over tenants in lexicographic order, one job
//! per visit, so service order is independent of arrival interleaving
//! beyond each tenant's own FIFO.

use std::collections::{BTreeMap, VecDeque};

/// Why an admission attempt was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The global queue bound is reached; every tenant is affected.
    GlobalFull,
    /// This tenant's own slice of the queue is full; other tenants are
    /// still being admitted.
    TenantFull,
}

/// A bounded multi-tenant FIFO with round-robin dequeue.
///
/// Not internally synchronized — the server wraps it in a mutex alongside
/// its condition variable.
#[derive(Debug)]
pub struct AdmissionQueue<T> {
    per_tenant: BTreeMap<String, VecDeque<T>>,
    /// Tenant served most recently; the next pop starts strictly after it.
    cursor: Option<String>,
    len: usize,
    capacity: usize,
    tenant_capacity: usize,
}

impl<T> AdmissionQueue<T> {
    /// A queue holding at most `capacity` jobs total and
    /// `tenant_capacity` jobs per tenant.
    ///
    /// # Panics
    ///
    /// Panics when either bound is zero — a queue that can never admit is
    /// a configuration error, not a load condition.
    pub fn new(capacity: usize, tenant_capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        assert!(tenant_capacity > 0, "per-tenant capacity must be positive");
        Self {
            per_tenant: BTreeMap::new(),
            cursor: None,
            len: 0,
            capacity,
            tenant_capacity: tenant_capacity.min(capacity),
        }
    }

    /// Jobs currently queued (all tenants).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no jobs are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Jobs currently queued for `tenant`.
    #[cfg(test)]
    pub fn tenant_len(&self, tenant: &str) -> usize {
        self.per_tenant.get(tenant).map_or(0, VecDeque::len)
    }

    /// Attempts to admit a job for `tenant`. On refusal the job is handed
    /// back untouched along with the shed reason — nothing was enqueued
    /// and no memory is retained.
    ///
    /// # Errors
    ///
    /// [`ShedReason::GlobalFull`] at the global bound,
    /// [`ShedReason::TenantFull`] at the tenant bound.
    pub fn try_push(&mut self, tenant: &str, job: T) -> Result<(), (T, ShedReason)> {
        if self.len >= self.capacity {
            return Err((job, ShedReason::GlobalFull));
        }
        let slot = self.per_tenant.entry(tenant.to_string()).or_default();
        if slot.len() >= self.tenant_capacity {
            return Err((job, ShedReason::TenantFull));
        }
        slot.push_back(job);
        self.len += 1;
        Ok(())
    }

    /// Admits a job for `tenant` bypassing both capacity bounds. Reserved
    /// for restart recovery: a journaled job already passed admission in
    /// its first life, so re-admitting it must never shed — the durability
    /// contract ("acknowledged means it will run") outranks the bounds for
    /// the one burst that replay produces.
    pub fn force_push(&mut self, tenant: &str, job: T) {
        self.per_tenant
            .entry(tenant.to_string())
            .or_default()
            .push_back(job);
        self.len += 1;
    }

    /// Dequeues the next job, round-robin across tenants: the first
    /// non-empty tenant strictly after the previously served one in
    /// lexicographic order (wrapping), then that tenant's oldest job.
    pub fn pop_fair(&mut self) -> Option<(String, T)> {
        if self.len == 0 {
            return None;
        }
        let next_tenant = {
            let after = self
                .cursor
                .as_ref()
                .map_or_else(
                    || self.first_nonempty_from_start(),
                    |served| self.first_nonempty_after(served),
                )?;
            after
        };
        let slot = self
            .per_tenant
            .get_mut(&next_tenant)
            .expect("selected tenant exists: chosen from this map's keys");
        let job = slot
            .pop_front()
            .expect("selected tenant is non-empty by construction");
        self.len -= 1;
        if slot.is_empty() {
            // Keep the map sparse so round-robin scans stay proportional
            // to *active* tenants, not every tenant ever seen.
            self.per_tenant.remove(&next_tenant);
        }
        self.cursor = Some(next_tenant.clone());
        Some((next_tenant, job))
    }

    fn first_nonempty_from_start(&self) -> Option<String> {
        self.per_tenant
            .iter()
            .find(|(_, q)| !q.is_empty())
            .map(|(t, _)| t.clone())
    }

    fn first_nonempty_after(&self, served: &str) -> Option<String> {
        use std::ops::Bound::{Excluded, Unbounded};
        self.per_tenant
            .range::<str, _>((Excluded(served), Unbounded))
            .find(|(_, q)| !q.is_empty())
            .map(|(t, _)| t.clone())
            .or_else(|| self.first_nonempty_from_start())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_bound_is_enforced_and_reported() {
        let mut q = AdmissionQueue::new(3, 3);
        q.try_push("a", 1).unwrap();
        q.try_push("a", 2).unwrap();
        q.try_push("b", 3).unwrap();
        let (job, why) = q.try_push("c", 4).unwrap_err();
        assert_eq!(job, 4);
        assert_eq!(why, ShedReason::GlobalFull);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn tenant_bound_sheds_the_noisy_tenant_only() {
        let mut q = AdmissionQueue::new(100, 2);
        q.try_push("noisy", 1).unwrap();
        q.try_push("noisy", 2).unwrap();
        let (_, why) = q.try_push("noisy", 3).unwrap_err();
        assert_eq!(why, ShedReason::TenantFull);
        // A quiet tenant is still admitted at the same instant.
        q.try_push("quiet", 10).unwrap();
        assert_eq!(q.tenant_len("noisy"), 2);
        assert_eq!(q.tenant_len("quiet"), 1);
    }

    #[test]
    fn dequeue_is_round_robin_across_tenants() {
        let mut q = AdmissionQueue::new(10, 10);
        for j in 0..3 {
            q.try_push("a", ("a", j)).unwrap();
            q.try_push("b", ("b", j)).unwrap();
        }
        q.try_push("c", ("c", 0)).unwrap();
        let order: Vec<_> = std::iter::from_fn(|| q.pop_fair()).map(|(_, j)| j).collect();
        assert_eq!(
            order,
            vec![
                ("a", 0),
                ("b", 0),
                ("c", 0),
                ("a", 1),
                ("b", 1),
                ("a", 2),
                ("b", 2),
            ]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn force_push_bypasses_both_bounds() {
        let mut q = AdmissionQueue::new(1, 1);
        q.try_push("a", 1).unwrap();
        q.try_push("a", 2).unwrap_err();
        q.force_push("a", 3);
        q.force_push("b", 4);
        assert_eq!(q.len(), 3);
        assert_eq!(q.tenant_len("a"), 2);
        // Recovered jobs still drain in fair order.
        let order: Vec<_> = std::iter::from_fn(|| q.pop_fair()).map(|(_, j)| j).collect();
        assert_eq!(order, vec![1, 4, 3]);
    }

    #[test]
    fn round_robin_survives_tenants_draining_out() {
        let mut q = AdmissionQueue::new(10, 10);
        q.try_push("a", 1).unwrap();
        q.try_push("b", 2).unwrap();
        assert_eq!(q.pop_fair().unwrap().0, "a");
        assert_eq!(q.pop_fair().unwrap().0, "b");
        // Both drained; new work for a later tenant still pops.
        q.try_push("z", 3).unwrap();
        assert_eq!(q.pop_fair().unwrap(), ("z".to_string(), 3));
        assert!(q.pop_fair().is_none());
    }
}

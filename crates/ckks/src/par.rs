//! The worker pool's fan-out over independent homomorphic operations:
//! `cl-rns`'s [`cl_rns::try_par_map`], re-exported for the crates above
//! this one.
//!
//! The hoisted steps of [`crate::CkksContext::try_rotate_hoisted_many`]
//! fan out here, and so do `cl-boot`'s BSGS inner sums and EvalMod power
//! tree. Results come back in index order, so values, noise estimates,
//! trace counts and the first error are the serial run's. Under the fault
//! harness each task's hint digests are counted on the calling thread, as
//! if it had run inline.

/// `f(0), …, f(len − 1)`, independent operations offered to the worker
/// pool: all results in index order, or the first error in index order
/// (see [`cl_rns::try_par_map`]).
pub fn try_par_map<T: Send, E: Send>(
    len: usize,
    f: impl Fn(usize) -> Result<T, E> + Sync + Send,
) -> Result<Vec<T>, E> {
    #[cfg(any(test, feature = "faults"))]
    {
        use std::sync::atomic::{AtomicU64, Ordering};
        let digests = AtomicU64::new(0);
        let out = cl_rns::try_par_map(len, |i| {
            let (r, counted) = crate::faults::take_digests(|| f(i));
            digests.fetch_add(counted, Ordering::Relaxed);
            r
        });
        crate::faults::add_digests(digests.into_inner());
        out
    }
    #[cfg(not(any(test, feature = "faults")))]
    cl_rns::try_par_map(len, f)
}

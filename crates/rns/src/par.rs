//! Where the worker pool fans out: limb loops under one grain rule, and
//! independent operations.
//!
//! A limb loop ([`par_chunks_mut`]) fans out only when each of its chunks
//! is at least [`PAR_GRAIN_WORDS`] words; otherwise its chunks run inline
//! on the caller, in index order. Below the grain a pool dispatch
//! (publish, wake, claim, join) costs about as much as the limb, so a limb
//! loop at N = 1K runs serially and the pool is left to independent
//! operations ([`par_map`], [`try_par_map`]), which always offer their
//! tasks to it: the digits of a ModUp, the two ModDown halves closing a
//! keyswitch and the two polynomials of a rescale ([`mod_down_ntt`]
//! each), the steps of a hoisted rotation batch, the two half-sums of a
//! rotate-sum, the giant-group inner sums of a BSGS transform, a
//! bootstrap's two EvalMod chains and each one's power tree, and the
//! bodies of a compiled program's wave (`cl-runtime`'s executor: each
//! body a run of ops, on a lowered layer one giant group's inner sum and
//! rotation). Each of those is a whole keyswitch, multiply, base extension
//! or ModDown, far above a dispatch at every shape the workloads run.
//!
//! [`mod_down_ntt`]: crate::mod_down_ntt This is the CPU form of CraterLake's
//! schedule (Sec. 6): one instruction stream over wide lanes, with
//! independent homomorphic operations overlapped.
//!
//! Results are collected in index order and tasks share no state, so a
//! region's output is the serial run's at any thread count. Work leaves
//! the calling thread only here, so here its `cl-trace` counts come back:
//! the caller's captures count a region as if it had run inline.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use cl_trace::Counts;

/// Words (64-bit residues) each chunk of a limb loop must hold for the
/// loop to fan out. Read off `bench_kernels`' grain sweep
/// (EXPERIMENTS.md, "The grain sweep": 2-core host, 4 to 40 limbs per
/// region, two threads against one): element-wise and MAC limbs at
/// N = 1K, tasks of 2K–3K words, ran 0.75–1.13×, mostly slower; NTT
/// limbs at N = 1K ran 1.02–1.11×; tasks of 5K words or more — every
/// class at N = 8K, and a CRB destination limb at N = 1K, which reads
/// every source limb — ran 1.04–3.1×. The grain sits between the two,
/// and leaves the near-even N = 1K NTT inline: at that size the pool is
/// worth more to independent operations.
///
/// A chunk is the `n`-word limb a task writes, so limb loops fan out from
/// N = 4K.
pub const PAR_GRAIN_WORDS: usize = 4096;

/// The `cl-trace` counts of one region's tasks, summed on whichever
/// threads ran them and added to the thread that started the region.
#[derive(Default)]
struct Carry(Mutex<Counts>);

impl Carry {
    /// Runs one task, taking its counts off the thread that ran it.
    fn task<T>(&self, f: impl FnOnce() -> T) -> T {
        let (out, counts) = cl_trace::take_counts(f);
        let mut sum = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        *sum = sum.plus(&counts);
        out
    }

    /// Adds the tasks' counts to the calling thread's.
    fn land(self) {
        cl_trace::add_counts(self.0.into_inner().unwrap_or_else(PoisonError::into_inner));
    }
}

/// `f(0), …, f(len − 1)` in index order: independent operations, offered
/// to the worker pool (which runs them inline at one thread, from inside
/// another region, or while another thread's region is in flight).
pub fn par_map<T: Send>(len: usize, f: impl Fn(usize) -> T + Sync + Send) -> Vec<T> {
    let carry = Carry::default();
    let out = rayon::map_collect(len, |i| carry.task(|| f(i)));
    carry.land();
    out
}

/// [`par_map`] for fallible operations: all results in index order, or
/// the first error in index order — the serial run's. No task above a
/// failed one is started once the failure is seen, so at one thread the
/// work done is the serial run's; fanned out, a task above the failure
/// that had already started still finishes.
pub fn try_par_map<T: Send, E: Send>(
    len: usize,
    f: impl Fn(usize) -> Result<T, E> + Sync + Send,
) -> Result<Vec<T>, E> {
    let first_failed = AtomicUsize::new(usize::MAX);
    // A task is skipped only when a lower index has failed, so every task
    // up to the lowest failure runs, and the walk in index order below
    // reaches that failure before any skipped task.
    let results: Vec<Option<Result<T, E>>> = par_map(len, |i| {
        if i > first_failed.load(Ordering::Relaxed) {
            return None;
        }
        let r = f(i);
        if r.is_err() {
            first_failed.fetch_min(i, Ordering::Relaxed);
        }
        Some(r)
    });
    results
        .into_iter()
        .map(|r| r.expect("no task below the first failure is skipped"))
        .collect()
}

/// `f(k, chunk)` for each `chunk`-sized piece `k` of `data` (the last may
/// be shorter): a limb loop, fanned out across the pool when `chunk`
/// reaches [`PAR_GRAIN_WORDS`] and run inline below it.
pub fn par_chunks_mut<T: Send + Sync>(
    data: &mut [T],
    chunk: usize,
    f: impl Fn(usize, &mut [T]) + Sync + Send,
) {
    if chunk >= PAR_GRAIN_WORDS {
        let carry = Carry::default();
        rayon::for_each_chunk_mut(data, chunk, |k, c| carry.task(|| f(k, c)));
        carry.land();
    } else {
        for (k, c) in data.chunks_mut(chunk).enumerate() {
            f(k, c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// The thread count is process-global: tests that set it hold this for
    /// their whole body, so one test's count never leaks into another's.
    static THREADS: Mutex<()> = Mutex::new(());

    fn hold_threads(n: usize) -> MutexGuard<'static, ()> {
        let held = THREADS.lock().unwrap_or_else(PoisonError::into_inner);
        rayon::set_num_threads(n);
        held
    }

    #[test]
    fn map_keeps_index_order() {
        let _held = hold_threads(2);
        for len in [37, 257] {
            assert_eq!(
                par_map(len, |i| i * i),
                (0..len).map(|i| i * i).collect::<Vec<_>>()
            );
        }
        rayon::set_num_threads(1);
    }

    #[test]
    fn fallible_map_returns_the_first_error_in_index_order() {
        let got = try_par_map(16, |i| if i % 5 == 3 { Err(i) } else { Ok(i) });
        assert_eq!(got, Err(3));
        assert_eq!(try_par_map::<_, ()>(5, Ok), Ok(vec![0, 1, 2, 3, 4]));
    }

    #[test]
    fn chunks_cover_every_word_once() {
        let _held = hold_threads(2);
        for (len, chunk) in [(100, 8), (3 * PAR_GRAIN_WORDS + 5, PAR_GRAIN_WORDS)] {
            let mut data = vec![0u64; len];
            par_chunks_mut(&mut data, chunk, |k, c| {
                for (i, x) in c.iter_mut().enumerate() {
                    *x += (k * chunk + i) as u64;
                }
            });
            assert_eq!(data, (0..len as u64).collect::<Vec<u64>>());
        }
        rayon::set_num_threads(1);
    }
}

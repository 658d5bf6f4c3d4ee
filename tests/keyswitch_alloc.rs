//! Allocation bounds for the accumulate-in-place keyswitch datapath: a
//! rotate-sum keeps one extended-basis accumulator pair for all of its
//! terms, so each further term allocates only its own hoisted
//! decomposition and its `σ(c0)`; and a plaintext multiply-accumulate
//! chain writes into its caller's ciphertext without allocating any
//! limb-sized buffer.
//!
//! The whole binary runs under a counting allocator, so it holds exactly
//! one test: a concurrently scheduled test would bill its allocations here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use craterlake::ckks::{CkksContext, CkksParams, KeySwitchKey, KeySwitchKind};
use rand::SeedableRng;

/// Bytes requested from the system allocator so far (frees not subtracted:
/// the bound is on traffic, not on the high-water mark).
static ALLOCATED: AtomicU64 = AtomicU64::new(0);
/// Requests of at least [`LIMB_BYTES`] bytes so far.
static LIMB_SIZED: AtomicU64 = AtomicU64::new(0);
/// One residue polynomial's bytes (`n` words); set before anything is
/// measured.
static LIMB_BYTES: AtomicUsize = AtomicUsize::new(usize::MAX);

fn count(size: usize) {
    ALLOCATED.fetch_add(size as u64, Ordering::Relaxed);
    if size >= LIMB_BYTES.load(Ordering::Relaxed) {
        LIMB_SIZED.fetch_add(1, Ordering::Relaxed);
    }
}

struct Counting;

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is relaxed counter bumps.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations pass through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator with `layout`, i.e. from
        // `System` with the same layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` twice — the first run warms one-time state (the worker pool,
/// cached converters and automorphism tables) — and returns the second
/// run's result with the bytes and limb-sized requests it allocated.
fn steady<R>(mut f: impl FnMut() -> R) -> (R, u64, u64) {
    drop(f());
    let (bytes, limbs) = (ALLOCATED.load(Ordering::Relaxed), LIMB_SIZED.load(Ordering::Relaxed));
    let out = f();
    (
        out,
        ALLOCATED.load(Ordering::Relaxed) - bytes,
        LIMB_SIZED.load(Ordering::Relaxed) - limbs,
    )
}

#[test]
fn rotate_sum_terms_and_mul_plain_acc_chains_allocate_no_accumulators() {
    // Ring 2048 × 4 limbs + 4 special limbs: a limb is 16 KiB, so
    // bookkeeping allocations (bases, digit lists, task handles) stay far
    // below one limb.
    let n = 2048;
    let params = CkksParams::builder()
        .ring_degree(n)
        .levels(4)
        .special_limbs(4)
        .limb_bits(45)
        .scale_bits(40)
        .build()
        .unwrap();
    let ctx = CkksContext::new(params).unwrap();
    let kind = KeySwitchKind::Boosted { digits: 1 };
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let sk = ctx.keygen(&mut rng);
    let steps: Vec<i64> = (1..=5).collect();
    let keys: Vec<KeySwitchKey> = steps
        .iter()
        .map(|&s| ctx.rotation_keygen(&sk, s, kind, &mut rng))
        .collect();
    let level = ctx.max_level();
    let scale = ctx.default_scale();
    let cts: Vec<_> = steps
        .iter()
        .map(|&s| ctx.encrypt(&ctx.encode(&[0.25 * s as f64, -0.5], scale, level), &sk, &mut rng))
        .collect();
    let limb_bytes = n * 8;
    LIMB_BYTES.store(limb_bytes, Ordering::Relaxed);

    // One hoisted decomposition, and one σ(c0): a level-L polynomial.
    let (_, hoist_bytes, _) = steady(|| ctx.try_hoist(cts[0].c1(), kind).unwrap());
    let sigma_bytes = (level * limb_bytes) as u64;
    let rotate_sum = |terms: usize| {
        let list: Vec<_> = (0..terms)
            .map(|t| (&cts[t], steps[t], Some(&keys[t])))
            .collect();
        steady(|| ctx.try_rotate_sum(&list).unwrap()).1
    };
    let (two, five) = (rotate_sum(2), rotate_sum(5));
    let per_term = (five - two) / 3;
    // Slack for the per-term bookkeeping: a quarter of one limb.
    let bound = hoist_bytes + sigma_bytes + (limb_bytes / 4) as u64;
    assert!(
        per_term <= bound,
        "each further rotate-sum term allocated {per_term} bytes = {:.2} limbs; \
         bound is one hoisted decomposition ({:.2} limbs) + one σ(c0) ({level} limbs) \
         + a quarter limb",
        per_term as f64 / limb_bytes as f64,
        hoist_bytes as f64 / limb_bytes as f64,
    );

    // A multiply-accumulate chain: after its first product, no term
    // allocates a limb-sized buffer.
    let pts: Vec<_> = (0..8)
        .map(|k| ctx.encode(&[0.5, 0.125 * k as f64], scale, level))
        .collect();
    let first = ctx.try_mul_plain(&cts[0], &pts[0]).unwrap();
    let chain = || {
        let mut acc = first.clone();
        let before = (ALLOCATED.load(Ordering::Relaxed), LIMB_SIZED.load(Ordering::Relaxed));
        for (t, pt) in pts.iter().enumerate() {
            ctx.try_mul_plain_acc(&mut acc, &cts[t % cts.len()], pt).unwrap();
        }
        (
            acc,
            ALLOCATED.load(Ordering::Relaxed) - before.0,
            LIMB_SIZED.load(Ordering::Relaxed) - before.1,
        )
    };
    drop(chain());
    let (acc, chain_bytes, limb_sized) = chain();
    assert_eq!(
        limb_sized, 0,
        "a try_mul_plain_acc chain of {} terms made {limb_sized} limb-sized allocations \
         ({chain_bytes} bytes in all)",
        pts.len()
    );
    assert_eq!(acc.level(), level);
}

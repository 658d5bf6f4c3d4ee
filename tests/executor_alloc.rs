//! Allocation bound for the pipeline executor: its state is shared by
//! reference count, so a run allocates payload bytes only for what it
//! computes or is handed — one ciphertext per compute op, one per bound
//! input — and nothing for `Store`/`Load`/`Free` or for the per-op
//! `last_good` boundary, however many slots are live. A BSGS inner sum,
//! which the executor runs as one step accumulating in place, allocates
//! one ciphertext for the whole sum and one plaintext per term.
//!
//! The whole binary runs under a counting allocator, so it holds exactly
//! one test: a concurrently scheduled test would bill its allocations here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use craterlake::apps::inner_sum_runnable;
use craterlake::boot::BootstrapKeys;
use craterlake::ckks::{CkksContext, CkksParams, GuardrailPolicy, KeySwitchKind};
use craterlake::compiler::{lower_to_program, LowerOptions};
use craterlake::runtime::{
    ExecutorConfig, PipelineExecutor, PipelineOp, PreparedProgram, Program, RunOutcome,
};
use rand::SeedableRng;

/// Bytes requested from the system allocator so far (frees not subtracted:
/// the bound is on traffic, not on the high-water mark).
static ALLOCATED: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a relaxed counter bump.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
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

const LIVE_SLOTS: u16 = 10;

/// Parks ten distinct values, sums them back, frees them: ten live slots
/// plus the accumulator at the peak. Returns the program and how many of
/// its ops compute a fresh ciphertext (`AddSlot`); the rest only move
/// references.
fn slot_heavy_program() -> (Program, u64) {
    let mut program = Program::new();
    let mut compute = 0;
    for slot in 0..LIVE_SLOTS {
        program = program
            .then(PipelineOp::Store(slot))
            .then(PipelineOp::AddSlot(slot));
        compute += 1;
    }
    program = program.then(PipelineOp::Load(0));
    for slot in 1..LIVE_SLOTS {
        program = program.then(PipelineOp::AddSlot(slot));
        compute += 1;
    }
    for slot in 0..LIVE_SLOTS {
        program = program.then(PipelineOp::Free(slot));
    }
    (program, compute)
}

#[test]
fn a_run_allocates_one_ciphertext_per_compute_op_not_per_boundary() {
    // Ring 2048 × 4 limbs: a ciphertext is 128 KiB, so bookkeeping
    // allocations (map nodes, reference counts) vanish inside the slack.
    let params = CkksParams::builder()
        .ring_degree(2048)
        .levels(4)
        .special_limbs(4)
        .limb_bits(45)
        .scale_bits(40)
        .build()
        .unwrap();
    let ctx = CkksContext::new(params)
        .unwrap()
        .with_policy(GuardrailPolicy::Strict {
            min_budget_bits: -60.0,
        });
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let sk = ctx.keygen_sparse(16, &mut rng);
    let keys = BootstrapKeys::generate(&ctx, &sk, KeySwitchKind::Standard, &[], &mut rng);
    let input = ctx.encrypt(
        &ctx.encode(
            &[0.001, -0.002, 0.003],
            ctx.default_scale(),
            ctx.max_level(),
        ),
        &sk,
        &mut rng,
    );
    let ct_bytes = (input.num_words() * 8) as u64;
    let (program, compute_ops) = slot_heavy_program();

    let config = ExecutorConfig {
        checkpoint_every: 0,
        max_retries: 1,
        checkpoint_dir: None,
    };
    let mut exec = PipelineExecutor::new(&ctx, &keys, config).unwrap();
    let mut run = || {
        let before = ALLOCATED.load(Ordering::Relaxed);
        let outcome = exec
            .run_graph(std::slice::from_ref(&input), &program)
            .unwrap();
        let spent = ALLOCATED.load(Ordering::Relaxed) - before;
        let RunOutcome::Completed(out) = outcome else {
            unreachable!("no fault plan attached")
        };
        (out, spent)
    };
    // First run warms one-time state (kernel scratch arenas); the second
    // is the steady state the bound is about.
    let (warm, _) = run();
    let (out, spent) = run();
    assert_eq!(out, warm);
    assert_eq!(exec.telemetry().peak_live_cts, u64::from(LIVE_SLOTS) + 1);

    let inputs = 1;
    let bound = (compute_ops + inputs + 2) * ct_bytes;
    assert!(
        spent <= bound,
        "run_graph allocated {spent} bytes = {:.1} ciphertexts; bound is {} \
         ({compute_ops} compute ops + {inputs} input + 2)",
        spent as f64 / ct_bytes as f64,
        bound / ct_bytes,
    );

    // A lowered 8-diagonal inner sum, run through a prepared program whose
    // memo holds every operand's coefficients: the step allocates the sum
    // once and a plaintext (one polynomial, half a ciphertext) per term,
    // where op by op each term built a product and a new sum.
    const TERMS: u64 = 8;
    let slots = ctx.params().slots();
    let w = inner_sum_runnable(slots, ctx.max_level(), TERMS as usize);
    let lowered = lower_to_program(
        &w.graph,
        &LowerOptions {
            slots,
            plain: w.plain.clone(),
            reorder: true,
            auto_bootstrap: None,
            max_live_cts: None,
        },
    )
    .unwrap();
    let prepared = PreparedProgram::new(&ctx, lowered.program);
    assert_eq!(
        prepared.inner_sums().len(),
        1,
        "the diagonals form one inner sum"
    );
    let mut run_sum = || {
        let before = ALLOCATED.load(Ordering::Relaxed);
        let outcome = exec
            .run_prepared(std::slice::from_ref(&input), &prepared)
            .unwrap();
        let spent = ALLOCATED.load(Ordering::Relaxed) - before;
        let RunOutcome::Completed(out) = outcome else {
            unreachable!("no fault plan attached")
        };
        (out, spent)
    };
    // The first run fills the coefficient memo.
    let (warm, _) = run_sum();
    let (out, spent) = run_sum();
    assert_eq!(out, warm);
    let pt_bytes = ct_bytes / 2;
    let bound = (inputs + 1) * ct_bytes + TERMS * pt_bytes + ct_bytes / 8;
    assert!(
        spent <= bound,
        "an 8-term inner sum allocated {spent} bytes = {:.2} ciphertexts; bound is {:.2} \
         ({inputs} input + 1 sum + {TERMS} plaintexts + 1/8 for bookkeeping)",
        spent as f64 / ct_bytes as f64,
        bound as f64 / ct_bytes as f64,
    );
}

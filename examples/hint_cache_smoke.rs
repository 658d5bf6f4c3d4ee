//! Hint-cache smoke: the same BSGS linear transform and the same executor
//! pipeline run twice — once with a hint cache roomy enough to hold every
//! materialized keyswitch hint, once with a 1-byte cache that evicts and
//! lazily re-expands a hint at nearly every fetch. The outputs must be
//! limb-bit-identical, and the tight cache must actually have thrashed
//! (hits and evictions both observed), proving eviction only ever costs
//! regeneration time, never correctness.
//!
//! `scripts/verify.sh` runs this as a tier-1 gate.
//!
//! Run with: `cargo run --release --example hint_cache_smoke`

use std::sync::Arc;

use craterlake::boot::{try_bsgs_transform, BootstrapKeys, PrecomputedTransform};
use craterlake::ckks::{CkksContext, CkksParams, GuardrailPolicy, HintCache, KeySwitchKind};
use craterlake::math::Complex;
use craterlake::runtime::{ExecutorConfig, PipelineExecutor, PipelineOp, Program, RunOutcome};
use rand::SeedableRng;

fn keys_with_cache(
    ctx: &CkksContext,
    steps: &[i64],
    cache: Arc<HintCache>,
) -> BootstrapKeys {
    // Regenerating from the same seed yields bit-identical key material, so
    // the two runs differ only in hint-cache residency policy.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DE);
    let sk = ctx.keygen(&mut rng);
    BootstrapKeys::generate(ctx, &sk, KeySwitchKind::Boosted { digits: 1 }, steps, &mut rng)
        .with_cache(cache)
}

fn main() {
    let params = CkksParams::builder()
        .ring_degree(256)
        .levels(3)
        .special_limbs(3)
        .limb_bits(36)
        .scale_bits(30)
        .build()
        .expect("params");
    let ctx = CkksContext::new(params)
        .expect("ckks context")
        .with_policy(GuardrailPolicy::Strict {
            min_budget_bits: -200.0,
        });
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DE);
    let sk = ctx.keygen(&mut rng);

    // A small banded linear transform (one CoeffToSlot-shaped stage).
    let slots = ctx.params().slots();
    let level = ctx.max_level();
    let mut drng = rand::rngs::StdRng::seed_from_u64(11);
    let diags: Vec<(i64, Vec<Complex>)> = (0..8i64)
        .map(|d| {
            let v: Vec<Complex> = (0..slots)
                .map(|_| {
                    Complex::new(
                        rand::Rng::gen_range(&mut drng, -0.5..0.5),
                        rand::Rng::gen_range(&mut drng, -0.5..0.5),
                    )
                })
                .collect();
            (d, v)
        })
        .collect();
    let pre = PrecomputedTransform::new(&ctx, &diags, level);
    let mut steps = pre.required_steps();
    steps.extend([1, 2]);
    steps.sort_unstable();
    steps.dedup();

    let pt = ctx.encode(&[0.5, -0.25, 0.125], ctx.default_scale(), level);
    let ct = ctx.encrypt(&pt, &sk, &mut rng);

    let roomy_cache = Arc::new(HintCache::new(usize::MAX));
    let tight_cache = Arc::new(HintCache::new(1));
    let roomy = keys_with_cache(&ctx, &steps, Arc::clone(&roomy_cache));
    let tight = keys_with_cache(&ctx, &steps, Arc::clone(&tight_cache));

    // BSGS transform: exercises the hoisted baby steps and the giant-step
    // hint fetches under both residency regimes.
    let out_roomy = try_bsgs_transform(&ctx, &ct, &pre, &roomy).expect("bsgs roomy");
    let out_tight = try_bsgs_transform(&ctx, &ct, &pre, &tight).expect("bsgs tight");
    assert_eq!(
        ctx.serialize_ciphertext(&out_roomy),
        ctx.serialize_ciphertext(&out_tight),
        "BSGS output must be bit-identical under hint-cache thrashing"
    );

    // Executor pipeline: square/rotate/conjugate fetch relin, rotation, and
    // conjugation hints mid-pipeline.
    let program = Program::new()
        .then(PipelineOp::Square)
        .then(PipelineOp::Rescale)
        .then(PipelineOp::Rotate(1))
        .then(PipelineOp::Conjugate)
        .then(PipelineOp::Rotate(2));
    let run = |keys: &BootstrapKeys| {
        let config = ExecutorConfig {
            checkpoint_every: 0,
            max_retries: 0,
            checkpoint_dir: None,
        };
        let mut exec = PipelineExecutor::new(&ctx, keys, config).expect("executor");
        match exec.run(&ct, &program).expect("pipeline run") {
            RunOutcome::Completed(out) => ctx.serialize_ciphertext(&out),
            RunOutcome::Crashed => unreachable!("no fault plan"),
        }
    };
    assert_eq!(
        run(&roomy),
        run(&tight),
        "pipeline output must be bit-identical under hint-cache thrashing"
    );

    let rs = roomy_cache.stats();
    let ts = tight_cache.stats();
    assert!(rs.hits > 0, "roomy cache must serve warm hits");
    assert_eq!(rs.evictions, 0, "roomy cache must never evict");
    assert!(ts.evictions > 0, "tight cache must have thrashed");
    // Over-budget caches keep exactly the one entry in flight resident.
    assert!(ts.bytes_resident > 0, "tight cache holds its single live hint");
    assert!(
        ts.bytes_resident < rs.bytes_resident,
        "tight cache must be bounded well below the roomy working set"
    );
    println!(
        "hint_cache_smoke: outputs bit-identical; roomy {} hits / {} misses / {} KiB resident, \
         tight {} hits / {} misses / {} evictions",
        rs.hits,
        rs.misses,
        rs.bytes_resident / 1024,
        ts.hits,
        ts.misses,
        ts.evictions
    );
}

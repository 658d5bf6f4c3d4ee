//! Workspace-level integration tests for the fallible evaluation API,
//! the runtime guardrails, and the fault-injection harness —
//! exercised through the public `cl-ckks` surface exactly as an external
//! consumer would.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use cl_apps::inner_sum_runnable;
use cl_boot::{try_bsgs_transform, BootstrapKeys, PrecomputedTransform};
use cl_ckks::bgv::BgvContext;
use cl_ckks::{
    faults, CkksContext, CkksParams, FheError, FheResult, GuardrailPolicy, HintCache,
    KeySwitchKey, KeySwitchKind, SecretKey,
};
use cl_compiler::{lower_to_program, LowerOptions};
use cl_math::Complex;
use cl_runtime::{ExecutorConfig, PipelineExecutor, PreparedProgram};
use rand::SeedableRng;

fn setup() -> (CkksContext, SecretKey, rand::rngs::StdRng) {
    let params = CkksParams::builder()
        .ring_degree(128)
        .levels(3)
        .special_limbs(3)
        .limb_bits(40)
        .scale_bits(32)
        .build()
        .expect("test parameters are valid");
    let ctx = CkksContext::new(params).expect("test context builds");
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let sk = ctx.keygen(&mut rng);
    (ctx, sk, rng)
}

#[test]
fn a_new_context_runs_every_check_with_no_budget_floor() {
    // No policy call: the context as `CkksContext::new` builds it.
    let (mut ctx, sk, mut rng) = setup();
    let relin = ctx.relin_keygen(&sk, KeySwitchKind::Boosted { digits: 1 }, &mut rng);
    let pt = ctx.encode(&[1.0, -2.0, 0.5], ctx.default_scale(), 3);
    let clean = ctx.encrypt(&pt, &sk, &mut rng);

    // One flipped limb word is caught by the operand scan.
    let mut flipped = clean.clone();
    faults::flip_ciphertext_word(&mut flipped, 0, 1, 7);
    assert!(matches!(
        ctx.try_add(&clean, &flipped),
        Err(FheError::CorruptCiphertext { op: "add", .. })
    ));

    // One flipped hint word is caught by the integrity digest.
    let mut bad_key = relin.clone();
    faults::corrupt_hint_word(&mut bad_key, 0, 0, 0, 0);
    assert!(matches!(
        ctx.try_keyswitch(clean.c1(), &bad_key),
        Err(FheError::CorruptKey {
            op: "keyswitch",
            ..
        })
    ));

    // A multiply chain that never rescales starves its budget, yet runs:
    // the default floor is -inf.
    let mut starved = clean;
    for _ in 0..3 {
        starved = ctx
            .try_square(&starved, &relin)
            .expect("no budget floor by default");
    }
    assert_eq!(ctx.budget_bits(&starved), 0.0, "the chain is starved");
    // The same step under a floor of 0 bits is refused.
    ctx.set_policy(GuardrailPolicy::Strict {
        min_budget_bits: 0.0,
    });
    assert!(matches!(
        ctx.try_square(&starved, &relin),
        Err(FheError::BudgetExhausted { op: "square", .. })
    ));
}

#[test]
fn strict_policy_catches_every_fault_class_through_the_public_api() {
    let (mut ctx, sk, mut rng) = setup();
    let relin = ctx.relin_keygen(&sk, KeySwitchKind::Boosted { digits: 1 }, &mut rng);
    let pt = ctx.encode(&[1.0, -2.0, 0.5], ctx.default_scale(), 3);
    let clean = ctx.encrypt(&pt, &sk, &mut rng);
    ctx.set_policy(GuardrailPolicy::Strict {
        min_budget_bits: 0.0,
    });

    // Class 1: limb-word bit flip -> conformance scan.
    let mut flipped = clean.clone();
    faults::flip_ciphertext_word(&mut flipped, 0, 1, 7);
    assert!(matches!(
        ctx.try_add(&clean, &flipped),
        Err(FheError::CorruptCiphertext { op: "add", .. })
    ));

    // Class 2: tampered scale (a dropped rescale's bookkeeping state)
    // -> signed-budget threshold.
    let mut drifted = clean.clone();
    faults::corrupt_scale(&mut drifted, 2f64.powi(60));
    assert!(matches!(
        ctx.try_square(&drifted, &relin),
        Err(FheError::BudgetExhausted { .. })
    ));

    // Class 3: corrupted keyswitch hint -> integrity digest.
    let mut bad_key = ctx.relin_keygen(&sk, KeySwitchKind::Boosted { digits: 1 }, &mut rng);
    faults::corrupt_hint_word(&mut bad_key, 0, 0, 0, 0);
    assert!(!bad_key.verify_integrity());
    assert!(matches!(
        ctx.try_mul(&clean, &clean, &bad_key),
        Err(FheError::CorruptKey { op: "mul", .. })
    ));

    // The pristine pipeline still passes under a 0-bit floor.
    let sq = ctx
        .try_square(&clean, &relin)
        .expect("clean square passes strict guardrails");
    let down = ctx.try_rescale(&sq).expect("rescale passes");
    assert!(ctx.budget_bits(&down) >= 0.0);
}

#[test]
fn strict_checks_each_hint_application_once_at_every_entry_point() {
    let (mut ctx, sk, mut rng) = setup();
    let kind = KeySwitchKind::Boosted { digits: 2 };
    let relin = ctx.relin_keygen(&sk, kind, &mut rng);
    let rot = ctx.rotation_keygen(&sk, 1, kind, &mut rng);
    let conj = ctx.conjugation_keygen(&sk, kind, &mut rng);
    let t = 65537;
    let bgv_relin = BgvContext::new(&ctx, t)
        .expect("65537 is an NTT-friendly plaintext prime")
        .relin_keygen(&sk, kind, &mut rng);
    let bgv_ct = BgvContext::new(&ctx, t)
        .expect("65537 is an NTT-friendly plaintext prime")
        .encrypt(&[3, 4], 3, &sk, &mut rng);
    let pt = ctx.encode(&[0.5, -0.25], ctx.default_scale(), 3);
    let ct = ctx.encrypt(&pt, &sk, &mut rng);
    ctx.set_policy(GuardrailPolicy::Strict {
        min_budget_bits: 0.0,
    });
    let bgv = BgvContext::new(&ctx, t).expect("65537 is an NTT-friendly plaintext prime");
    let n = ctx.params().ring_degree();
    let g = cl_math::galois_element_for_rotation(1, n);
    let dec = ctx.try_hoist(ct.c1(), kind).expect("hoist");

    // Calls one entry point with `k` in place of its key.
    let apply = |entry: &str, k: &KeySwitchKey| -> FheResult<()> {
        match entry {
            "try_keyswitch" => ctx.try_keyswitch(ct.c1(), k).map(drop),
            "apply(None)" => dec.apply(&ctx, None, k).map(drop),
            "apply(Some(g))" => dec.apply(&ctx, Some(g), k).map(drop),
            "try_mul" => ctx.try_mul(&ct, &ct, k).map(drop),
            "try_square" => ctx.try_square(&ct, k).map(drop),
            "try_rotate" => ctx.try_rotate(&ct, 1, k).map(drop),
            "try_conjugate" => ctx.try_conjugate(&ct, k).map(drop),
            "try_rotate_hoisted_many" => {
                ctx.try_rotate_hoisted_many(&ct, &[1, 1], &[k, k]).map(drop)
            }
            "try_rotate_sum" => ctx
                .try_rotate_sum(&[(&ct, 1, Some(k)), (&ct, 1, Some(k))])
                .map(drop),
            "bgv try_mul" => bgv.try_mul(&bgv_ct, &bgv_ct, k).map(drop),
            other => unreachable!("no entry point {other}"),
        }
    };
    // (entry point, op name its errors carry, hint applications per call,
    // clean hint)
    let entry_points: [(&str, &str, u64, &KeySwitchKey); 10] = [
        ("try_keyswitch", "keyswitch", 1, &relin),
        ("apply(None)", "keyswitch_hoisted", 1, &relin),
        ("apply(Some(g))", "keyswitch_hoisted", 1, &rot),
        ("try_mul", "mul", 1, &relin),
        ("try_square", "square", 1, &relin),
        ("try_rotate", "rotate", 1, &rot),
        ("try_conjugate", "conjugate", 1, &conj),
        ("try_rotate_hoisted_many", "rotate_hoisted", 2, &rot),
        ("try_rotate_sum", "rotate_sum", 2, &rot),
        ("bgv try_mul", "bgv_mul", 1, &bgv_relin),
    ];
    for (entry, op, applications, key) in entry_points {
        // Exactly one digest per hint application: the operation and the
        // keyswitch under it must not both check the hint.
        let before = cl_trace::hint_digests();
        apply(entry, key).unwrap_or_else(|e| panic!("{entry}: clean hint rejected: {e}"));
        assert_eq!(
            cl_trace::hint_digests() - before,
            applications,
            "{entry}: digests per call"
        );
        let limbs = key.num_words_seeded() / (key.num_digits() * n);
        for digit in 0..key.num_digits() {
            for half in 0..2 {
                for (limb, coeff) in [(0, 0), (limbs / 2, n / 2), (limbs - 1, n - 1)] {
                    let mut bad = key.clone();
                    faults::corrupt_hint_word(&mut bad, digit, half, limb, coeff);
                    match apply(entry, &bad) {
                        Err(FheError::CorruptKey { op: got, .. }) => assert_eq!(
                            got, op,
                            "{entry}: digit {digit} half {half} limb {limb} coeff {coeff}"
                        ),
                        other => panic!(
                            "{entry}: flip at digit {digit} half {half} limb {limb} coeff \
                             {coeff} gave {other:?}, expected CorruptKey"
                        ),
                    }
                }
            }
        }
    }
}

/// Held by every test in this binary that sets the process-global thread
/// count, which it restores before releasing the lock.
static THREADS: Mutex<()> = Mutex::new(());

/// The row above the pool's grain: at N = 1K with 16 limbs a ciphertext
/// is 32K words, and `try_rotate_hoisted_many` fans its steps out across
/// the worker pool, so each hint check may run on a pool thread. The
/// counts still land on the calling thread: one digest per application
/// and one rotation per step.
///
/// Whether a given call fans out is up to the pool (it runs a region
/// inline while another thread's is in flight), so the batch also runs as
/// the second task of a two-task region whose first task waits for the
/// second to start: that task runs on a pool worker, which the test
/// checks, retrying a region that stayed inline. Its digests and
/// rotations must still land on the test thread.
#[test]
fn strict_counts_fanned_out_hint_checks_on_the_calling_thread() {
    let _threads = THREADS.lock().unwrap_or_else(PoisonError::into_inner);
    let params = CkksParams::builder()
        .ring_degree(1024)
        .levels(16)
        .special_limbs(16)
        .limb_bits(40)
        .scale_bits(32)
        .build()
        .expect("test parameters are valid");
    let mut ctx = CkksContext::new(params).expect("test context builds");
    let mut rng = rand::rngs::StdRng::seed_from_u64(1024);
    let sk = ctx.keygen(&mut rng);
    let rot = ctx.rotation_keygen(&sk, 1, KeySwitchKind::Boosted { digits: 1 }, &mut rng);
    let pt = ctx.encode(&[0.5, -0.25], ctx.default_scale(), 16);
    let ct = ctx.encrypt(&pt, &sk, &mut rng);
    assert!(2 * ct.c0().num_words() >= cl_rns::PAR_GRAIN_WORDS);
    ctx.set_policy(GuardrailPolicy::Strict {
        min_budget_bits: 0.0,
    });
    let batch = || ctx.try_rotate_hoisted_many(&ct, &[1, 1], &[&rot, &rot]);
    // (hint digests, rotations) counted on this thread.
    let counts = || (cl_trace::hint_digests(), cl_trace::OpSnapshot::capture().rotations);
    let since = |(d, r): (u64, u64)| (counts().0 - d, counts().1 - r);
    let previous = rayon::current_num_threads();
    rayon::set_num_threads(2);
    let before = counts();
    batch().expect("clean hints pass");
    let direct = since(before);
    let caller = thread::current().id();
    let mut on_worker = None;
    for _ in 0..20 {
        let started = AtomicBool::new(false);
        let before = counts();
        let ran_on = cl_rns::try_par_map(2, |i| {
            if i == 0 {
                let deadline = Instant::now() + Duration::from_millis(500);
                while !started.load(Ordering::Acquire) && Instant::now() < deadline {
                    thread::yield_now();
                }
                return Ok(None);
            }
            started.store(true, Ordering::Release);
            batch().map(|_| Some(thread::current().id()))
        })
        .expect("clean hints pass")[1];
        if ran_on != Some(caller) {
            on_worker = Some(since(before));
            break;
        }
    }
    rayon::set_num_threads(previous);
    assert_eq!(direct, (2, 2), "digests and rotations per call");
    assert_eq!(
        on_worker,
        Some((2, 2)),
        "digests and rotations per call run on a pool worker (None: the region never \
         fanned out)"
    );
}

/// A BSGS transform that fails partway leaves nothing of its own behind
/// in the hint cache it shares: eviction stays least recently used. The
/// cache holds two hints. The transform fetches its baby hints and then
/// fails its first inner sum under Strict; a giant-step hint and two hints
/// outside the transform are fetched next, and the first of those two is
/// still resident when it is fetched again.
#[test]
fn failed_bsgs_transform_leaves_the_hint_cache_least_recently_used() {
    let (mut ctx, sk, mut rng) = setup();
    let m = ctx.params().slots();
    let level = 3;
    // Nine consecutive diagonals: babies 0, 1, 2 and giants 0, 3, 6.
    let diags: Vec<(i64, Vec<Complex>)> = (0..9i64)
        .map(|d| {
            let diag = (0..m as i64)
                .map(|s| Complex::new(((d * 7 + s) % 5) as f64 * 0.1, 0.0))
                .collect();
            (d, diag)
        })
        .collect();
    let pre = PrecomputedTransform::new(&ctx, &diags, level);
    assert_eq!(pre.required_steps(), vec![1, 2, 3, 6]);
    let (giant, x, y) = (6, 5, 7);
    let keys = BootstrapKeys::generate(
        &ctx,
        &sk,
        KeySwitchKind::Boosted { digits: 1 },
        &[1, 2, 3, 6, x, y],
        &mut rng,
    );
    let expand = |step| {
        keys.rot_compact(step)
            .and_then(|k| k.expand(&ctx))
            .expect("hint expands")
    };
    let cache = Arc::new(HintCache::new(2 * expand(x).resident_bytes()));
    let pt = ctx.encode(&[0.5, -0.25, 0.125], ctx.default_scale(), level);
    let ct = ctx.encrypt(&pt, &sk, &mut rng);
    // One bit under the baby rotations' budget: they pass, and the first
    // plaintext product of the inner sums does not.
    let babies = [expand(1), expand(2)];
    let rotated = ctx
        .try_rotate_hoisted_many(&ct, &[1, 2], &[&babies[0], &babies[1]])
        .expect("baby rotations");
    let floor = rotated
        .iter()
        .map(|r| ctx.budget_bits(r))
        .fold(f64::INFINITY, f64::min);
    let keys = keys.with_cache(Arc::clone(&cache));
    ctx.set_policy(GuardrailPolicy::Strict {
        min_budget_bits: floor - 1.0,
    });
    let failed = try_bsgs_transform(&ctx, &ct, &pre, &keys);
    assert!(
        matches!(failed, Err(FheError::BudgetExhausted { op: "mul_plain", .. })),
        "{failed:?}"
    );
    let fetch = |step| keys.try_rot_key(&ctx, step).expect("hint expands");
    fetch(giant);
    fetch(x);
    fetch(y);
    let before = cache.stats();
    fetch(x);
    let after = cache.stats();
    assert_eq!(
        (after.hits - before.hits, after.misses - before.misses),
        (1, 0),
        "the hint used second most recently must still be resident"
    );
}

#[test]
fn fallible_api_reports_structured_errors_across_the_workspace() {
    let (ctx, sk, mut rng) = setup();
    let a = ctx.encrypt(&ctx.encode(&[1.0], ctx.default_scale(), 3), &sk, &mut rng);
    let b = ctx.encrypt(&ctx.encode(&[1.0], ctx.default_scale(), 2), &sk, &mut rng);
    match ctx.try_add(&a, &b) {
        Err(FheError::LevelMismatch { op, got, want }) => {
            assert_eq!(op, "add");
            // `got` is the second operand's level, `want` the first's.
            assert_eq!((got, want), (2, 3));
        }
        other => panic!("expected LevelMismatch, got {other:?}"),
    }
    let low = ctx.encrypt(&ctx.encode(&[1.0], ctx.default_scale(), 1), &sk, &mut rng);
    assert!(matches!(
        ctx.try_rescale(&low),
        Err(FheError::InvalidParams { op: "rescale", .. })
    ));

    // A level-0 operand (no limbs left) is a level mismatch like any
    // other: a structured error, not an unwind out of the `try_*` call.
    let relin = ctx.relin_keygen(&sk, KeySwitchKind::Boosted { digits: 1 }, &mut rng);
    let mut empty = ctx.rns().zero(&ctx.rns().q_basis(0));
    empty.set_ntt_form(true);
    let zero = ctx.ciphertext_from_parts(empty.clone(), empty, 0, ctx.default_scale());
    let results = [
        ("add", ctx.try_add(&a, &zero)),
        ("sub", ctx.try_sub(&a, &zero)),
        ("mul", ctx.try_mul(&a, &zero, &relin)),
    ];
    for (op, result) in results {
        assert!(
            matches!(result, Err(FheError::LevelMismatch { op: seen, got: 0, want: 3 }) if seen == op),
            "try_{op} on a level-0 operand gave {result:?}"
        );
    }
}

/// A Strict `min_budget_bits` that the k-th term of an inner sum crosses:
/// the executor, which runs the sum as one fused step, fails with the
/// `BudgetExhausted` the graph's direct evaluation returns, field for
/// field, whichever term k is.
#[test]
fn budget_crossed_inside_an_inner_sum_fails_as_direct_evaluation_does() {
    let params = CkksParams::builder()
        .ring_degree(128)
        .levels(4)
        .special_limbs(4)
        .limb_bits(45)
        .scale_bits(40)
        .build()
        .expect("test parameters are valid");
    let mut ctx = CkksContext::new(params).expect("test context builds");
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let sk = ctx.keygen(&mut rng);
    let keys = BootstrapKeys::generate(&ctx, &sk, KeySwitchKind::Standard, &[], &mut rng);
    let level = 4;
    let slots = ctx.params().slots();
    let w = inner_sum_runnable(slots, level, 6);
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
    .expect("inner sum lowers");
    assert_eq!(
        PreparedProgram::borrowed(&ctx, &lowered.program)
            .inner_sums()
            .len(),
        1
    );
    let vals: Vec<f64> = (0..slots).map(|i| (i % 9) as f64 / 9.0 - 0.4).collect();
    let x = ctx.encrypt(
        &ctx.encode(&vals, ctx.default_scale(), level),
        &sk,
        &mut rng,
    );

    // The graph's direct evaluation, `sum = try_add(sum, term)` per
    // diagonal, returning every partial sum.
    let direct = |ctx: &CkksContext| -> FheResult<Vec<cl_ckks::Ciphertext>> {
        let q_drop = ctx.rns().modulus_value((level - 1) as u32) as f64;
        let mut sums: Vec<cl_ckks::Ciphertext> = Vec::new();
        for diag in w.plain.values() {
            let term = ctx.try_mul_plain(&x, &ctx.encode(diag, q_drop, level))?;
            let next = match sums.last() {
                None => term,
                Some(sum) => ctx.try_add(sum, &term)?,
            };
            sums.push(next);
        }
        Ok(sums)
    };
    let budgets: Vec<f64> = direct(&ctx)
        .expect("no threshold yet")
        .iter()
        .map(|sum| ctx.budget_bits(sum))
        .collect();
    assert!(
        budgets.windows(2).all(|b| b[1] < b[0]),
        "each term spends budget: {budgets:?}"
    );
    assert!(
        budgets.last().is_some_and(|&b| b > 0.0),
        "budgets stay positive: {budgets:?}"
    );

    for k in 1..budgets.len() {
        ctx.set_policy(GuardrailPolicy::Strict {
            min_budget_bits: (budgets[k - 1] + budgets[k]) / 2.0,
        });
        let want = direct(&ctx).expect_err("the k-th term crosses the threshold");
        assert!(
            matches!(want, FheError::BudgetExhausted { op: "add", .. }),
            "{want:?}"
        );
        let config = ExecutorConfig {
            checkpoint_every: 0,
            max_retries: 1,
            checkpoint_dir: None,
        };
        let mut exec = PipelineExecutor::new(&ctx, &keys, config).expect("strict executor");
        let got = exec
            .run_graph(std::slice::from_ref(&x), &lowered.program)
            .expect_err("the executor crosses it too");
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "term {k}");
    }
}

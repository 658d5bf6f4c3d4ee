//! End-to-end acceptance for compiler-driven execution: a real workload
//! graph (`cl-apps`' runnable LoLa-MNIST layer) is lowered by
//! `cl-compiler::lower_to_program` into a `cl-runtime` `Program` and run
//! through the pipeline executor, and three promises the compiler makes
//! are checked against reality:
//!
//! 1. **Bit-identity** — the compiled program's output ciphertext equals a
//!    hand-written direct homomorphic evaluation of the same layer limb
//!    for limb, and its decryption matches the unencrypted
//!    [`eval_plain`] reference.
//! 2. **Predicted = measured** — [`predict_program`]'s closed-form
//!    `OpSnapshot` equals the live `cl-trace` counter delta of a
//!    warm-cache run *exactly*, field by field, and the schedule's
//!    high-level counts (rotations / ct-mults / pt-mults) match too.
//! 3. **Residency** — the Belady-style residency replay's predicted
//!    live-ciphertext high-water mark equals the executor's measured
//!    `peak_live_cts`.
//!
//! The `trace` feature is lit for this binary through the root crate's
//! dev-dependency on `cl-trace`, so the counters are live here.

use std::sync::{Mutex, MutexGuard};

use craterlake::apps::{
    eval_plain, lola_layer_runnable, lola_mlp_runnable, DenseLayer, RunnableWorkload,
};
use craterlake::boot::BootstrapKeys;
use craterlake::ckks::{Ciphertext, CkksContext, CkksParams, GuardrailPolicy, KeySwitchKind};
use craterlake::compiler::{lower_to_program, predict_program, LowerOptions, LoweredProgram};
use craterlake::isa::{HeOp, NodeId};
use craterlake::runtime::{ExecutorConfig, PipelineExecutor, RunOutcome};
use cl_trace::OpSnapshot;
use rand::SeedableRng;

/// Counters are process-global; every test in this binary holds this lock
/// for its entire body so a concurrently scheduled test cannot leak passes
/// into another test's measured delta.
static COUNTERS: Mutex<()> = Mutex::new(());

fn counter_lock() -> MutexGuard<'static, ()> {
    assert!(
        cl_trace::enabled(),
        "compiled-program validation needs live counters; the root crate's \
         dev-dependency must enable cl-trace/trace"
    );
    COUNTERS.lock().unwrap_or_else(|p| p.into_inner())
}

/// Ring-64 strict context: 32 slots, 6 limbs — the executor fixture
/// geometry. Strict policy is required by `PipelineExecutor`.
fn strict_ctx() -> CkksContext {
    let params = CkksParams::builder()
        .ring_degree(64)
        .levels(6)
        .special_limbs(6)
        .limb_bits(45)
        .scale_bits(40)
        .build()
        .unwrap();
    CkksContext::new(params)
        .unwrap()
        .with_policy(GuardrailPolicy::Strict { min_budget_bits: -60.0 })
}

const SLOTS: usize = 32;
const INPUT_LEVEL: usize = 4;

/// The workload under test: 9 diagonals at stride 1 with the square
/// activation — baby = giant = 3, so the lowering gets a 2-step hoisting
/// batch, two singleton giant rotations, a plaintext-multiply fan-in and
/// one relinearized square.
fn layer() -> RunnableWorkload {
    lola_layer_runnable(SLOTS, INPUT_LEVEL, 9, 1, true)
}

fn compile(w: &RunnableWorkload) -> LoweredProgram {
    lower_to_program(
        &w.graph,
        &LowerOptions {
            slots: SLOTS,
            plain: w.plain.clone(),
            reorder: true,
            auto_bootstrap: None,
            max_live_cts: None,
        },
    )
    .expect("layer graph lowers")
}

/// Deterministic input image: 32 slot values in roughly `[-0.4, 0.55)`.
fn input_slots() -> Vec<f64> {
    (0..SLOTS).map(|i| ((i * 5) % 17) as f64 / 17.0 - 0.4).collect()
}

fn keys_for(
    ctx: &CkksContext,
    lowered: &LoweredProgram,
) -> (craterlake::ckks::SecretKey, BootstrapKeys) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    let sk = ctx.keygen_sparse(8, &mut rng);
    let keys = BootstrapKeys::generate(
        ctx,
        &sk,
        KeySwitchKind::Standard,
        &lowered.rotation_steps,
        &mut rng,
    );
    (sk, keys)
}

fn encrypt_input(ctx: &CkksContext, sk: &craterlake::ckks::SecretKey) -> Ciphertext {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    ctx.encrypt(
        &ctx.encode(&input_slots(), ctx.default_scale(), INPUT_LEVEL),
        sk,
        &mut rng,
    )
}

fn run_compiled(
    ctx: &CkksContext,
    keys: &BootstrapKeys,
    x: &Ciphertext,
    lowered: &LoweredProgram,
) -> (Ciphertext, u64) {
    let config = ExecutorConfig {
        checkpoint_every: 0,
        max_retries: 1,
        checkpoint_dir: None,
    };
    let mut exec = PipelineExecutor::new(ctx, keys, config).unwrap();
    let out = match exec.run_graph(std::slice::from_ref(x), &lowered.program).unwrap() {
        RunOutcome::Completed(ct) => ct,
        RunOutcome::Crashed => unreachable!("no fault plan attached"),
    };
    (out, exec.telemetry().peak_live_cts)
}

/// Hand-written direct evaluation of the layer with the same primitives
/// the executor uses: one hoisted batch for the baby rotations, plaintext
/// multiplies encoded at the to-be-dropped modulus (the executor's
/// `MulPlain` convention), singleton giant rotations, one rescale, the
/// relinearized square, one rescale.
fn direct_layer(
    ctx: &CkksContext,
    keys: &BootstrapKeys,
    w: &RunnableWorkload,
    x: &Ciphertext,
) -> Ciphertext {
    let weights: Vec<&Vec<f64>> = w.plain.values().collect();
    let k1 = keys.try_rot_key(ctx, 1).unwrap();
    let k2 = keys.try_rot_key(ctx, 2).unwrap();
    let rotated = ctx
        .try_rotate_hoisted_many(x, &[1, 2], &[k1.as_ref(), k2.as_ref()])
        .unwrap();
    let babies = [x.clone(), rotated[0].clone(), rotated[1].clone()];
    let q_drop = ctx.rns().modulus_value((INPUT_LEVEL - 1) as u32) as f64;
    let mut acc: Option<Ciphertext> = None;
    for j in 0..3usize {
        let mut inner: Option<Ciphertext> = None;
        for (b, baby) in babies.iter().enumerate() {
            let p = ctx.encode(weights[j * 3 + b], q_drop, INPUT_LEVEL);
            let term = ctx.try_mul_plain(baby, &p).unwrap();
            inner = Some(match inner {
                None => term,
                Some(a) => ctx.try_add(&a, &term).unwrap(),
            });
        }
        let inner = inner.unwrap();
        let shifted = if j == 0 {
            inner
        } else {
            let step = 3 * j as i64;
            let key = keys.try_rot_key(ctx, step).unwrap();
            ctx.try_rotate(&inner, step, key.as_ref()).unwrap()
        };
        acc = Some(match acc {
            None => shifted,
            Some(a) => ctx.try_add(&a, &shifted).unwrap(),
        });
    }
    let y = ctx.try_rescale(&acc.unwrap()).unwrap();
    let relin = keys.try_relin(ctx).unwrap();
    let sq = ctx.try_square(&y, relin.as_ref()).unwrap();
    ctx.try_rescale(&sq).unwrap()
}

#[test]
fn compiled_layer_is_bit_identical_to_direct_evaluation() {
    let _g = counter_lock();
    let ctx = strict_ctx();
    let w = layer();
    let lowered = compile(&w);
    assert_eq!(lowered.input_nodes, w.inputs, "one encrypted input, bound in graph order");
    assert!(!lowered.needs_conjugation);
    let (sk, keys) = keys_for(&ctx, &lowered);
    let x = encrypt_input(&ctx, &sk);

    let (out, _) = run_compiled(&ctx, &keys, &x, &lowered);
    let expect = direct_layer(&ctx, &keys, &w, &x);
    assert_eq!(out, expect, "compiled program must be bit-identical to direct evaluation");

    // And both must approximate the unencrypted reference.
    let reference = eval_plain(&w, &[input_slots()]);
    let got = ctx.decode(&ctx.decrypt(&out, &sk), SLOTS);
    for (i, (g, r)) in got.iter().zip(&reference).enumerate() {
        assert!(
            (g - r).abs() < 1e-3,
            "slot {i}: decrypted {g} vs plain reference {r}"
        );
    }
}

#[test]
fn predicted_op_counts_match_measured_exactly() {
    let _g = counter_lock();
    let ctx = strict_ctx();
    let w = layer();
    let lowered = compile(&w);
    let (sk, keys) = keys_for(&ctx, &lowered);
    let x = encrypt_input(&ctx, &sk);

    // Warm run: materializes every seeded hint (hint expansion does real
    // NTT work the cost model deliberately excludes).
    let (warm, _) = run_compiled(&ctx, &keys, &x, &lowered);
    // Measured run: cache hits only, so the delta is pure compute.
    let before = OpSnapshot::capture();
    let (out, _) = run_compiled(&ctx, &keys, &x, &lowered);
    let measured = OpSnapshot::capture().delta_since(&before);
    assert_eq!(out, warm, "warm and measured runs must agree");

    let predicted = predict_program(
        ctx.max_level(),
        KeySwitchKind::Standard,
        &[INPUT_LEVEL],
        &lowered.program,
    )
    .expect("program predicts");

    assert_eq!(measured.ntt, predicted.ntt, "ntt");
    assert_eq!(measured.intt, predicted.intt, "intt");
    assert_eq!(measured.mult, predicted.mult, "mult");
    assert_eq!(measured.add, predicted.add, "add");
    assert_eq!(measured.base_conv, predicted.base_conv, "base_conv");
    assert_eq!(measured.automorph, predicted.automorph, "automorph");
    assert_eq!(measured.rotations, predicted.rotations, "rotations");
    assert_eq!(measured.ct_mults, predicted.ct_mults, "ct_mults");
    assert_eq!(measured.pt_mults, predicted.pt_mults, "pt_mults");
    assert_eq!(measured.hint_regen, 0, "warm run must not regenerate hints");

    // The schedule-level counts the compiler promises match both sides.
    assert_eq!(lowered.counts.rotations, measured.rotations);
    assert_eq!(lowered.counts.ct_mults, measured.ct_mults);
    assert_eq!(lowered.counts.pt_mults, measured.pt_mults);
    assert_eq!(lowered.counts.bootstraps, 0);
    // BSGS shape at 9 diagonals: 2 baby + 2 giant rotations, 9 diagonal
    // multiplies, 1 square.
    assert_eq!(measured.rotations, 4);
    assert_eq!(measured.pt_mults, 9);
    assert_eq!(measured.ct_mults, 1);
}

#[test]
fn residency_plan_matches_executor_high_water_mark() {
    let _g = counter_lock();
    let ctx = strict_ctx();
    let w = layer();
    let lowered = compile(&w);
    let (sk, keys) = keys_for(&ctx, &lowered);
    let x = encrypt_input(&ctx, &sk);
    let (_, peak) = run_compiled(&ctx, &keys, &x, &lowered);
    assert_eq!(
        peak, lowered.predicted_peak_live,
        "Belady residency replay must predict the executor's live-ciphertext peak"
    );
    // The BSGS middle is the high-water mark: the input and its two
    // hoisted baby rotations stay resident across all three giant steps,
    // alongside the parked matvec partial sum, a parked inner term and
    // the accumulator.
    assert_eq!(peak, 6);
}

#[test]
fn prediction_holds_on_a_second_layer_shape() {
    let _g = counter_lock();
    let ctx = strict_ctx();
    // 4 diagonals at stride 2, no activation: baby = giant = 2, different
    // rotation steps (2 and 4), one rescale only.
    let w = lola_layer_runnable(SLOTS, 3, 4, 2, false);
    let lowered = lower_to_program(
        &w.graph,
        &LowerOptions {
            slots: SLOTS,
            plain: w.plain.clone(),
            reorder: true,
            auto_bootstrap: None,
            max_live_cts: None,
        },
    )
    .unwrap();
    let (sk, keys) = keys_for(&ctx, &lowered);
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let x = ctx.encrypt(&ctx.encode(&input_slots(), ctx.default_scale(), 3), &sk, &mut rng);

    let (_, peak) = run_compiled(&ctx, &keys, &x, &lowered);
    assert_eq!(peak, lowered.predicted_peak_live);

    let before = OpSnapshot::capture();
    let (out, _) = run_compiled(&ctx, &keys, &x, &lowered);
    let measured = OpSnapshot::capture().delta_since(&before);
    let predicted =
        predict_program(ctx.max_level(), KeySwitchKind::Standard, &[3], &lowered.program).unwrap();
    assert_eq!(measured.ntt, predicted.ntt, "ntt");
    assert_eq!(measured.intt, predicted.intt, "intt");
    assert_eq!(measured.mult, predicted.mult, "mult");
    assert_eq!(measured.add, predicted.add, "add");
    assert_eq!(measured.base_conv, predicted.base_conv, "base_conv");
    assert_eq!(measured.automorph, predicted.automorph, "automorph");
    assert_eq!(measured.rotations, predicted.rotations, "rotations");
    assert_eq!(measured.ct_mults, predicted.ct_mults, "ct_mults");
    assert_eq!(measured.pt_mults, predicted.pt_mults, "pt_mults");

    let reference = eval_plain(&w, &[input_slots()]);
    let got = ctx.decode(&ctx.decrypt(&out, &sk), SLOTS);
    for (i, (g, r)) in got.iter().zip(&reference).enumerate() {
        assert!((g - r).abs() < 1e-3, "slot {i}: {g} vs {r}");
    }
}

/// Evaluates the *graph* node by node in construction order with the
/// public `try_*` ops — no lowering, no reordering, no hoisting, no slots,
/// no executor. Plaintexts are encoded at the to-be-dropped modulus, the
/// convention `MulPlain` documents.
fn eval_graph_direct(
    ctx: &CkksContext,
    keys: &BootstrapKeys,
    w: &RunnableWorkload,
    x: &Ciphertext,
) -> Ciphertext {
    let mut vals: Vec<Option<Ciphertext>> = Vec::with_capacity(w.graph.num_nodes());
    for (_, node) in w.graph.iter() {
        let at = |id: NodeId| vals[id.0 as usize].as_ref().expect("ciphertext operand");
        let v = match node.op {
            HeOp::Input => Some(x.clone()),
            HeOp::PlainInput => None,
            HeOp::Add(a, b) => Some(ctx.try_add(at(a), at(b)).unwrap()),
            HeOp::MulPlain(a, p) => {
                let ct = at(a);
                let q_drop = ctx.rns().modulus_value((ct.level() - 1) as u32) as f64;
                let pt = ctx.encode(&w.plain[&p], q_drop, ct.level());
                Some(ctx.try_mul_plain(ct, &pt).unwrap())
            }
            HeOp::Rotate(a, step) => {
                let key = keys.try_rot_key(ctx, step).unwrap();
                Some(ctx.try_rotate(at(a), step, key.as_ref()).unwrap())
            }
            HeOp::Rescale(a) => Some(ctx.try_rescale(at(a)).unwrap()),
            HeOp::MulCt(a, b) if a == b => {
                Some(ctx.try_square(at(a), keys.try_relin(ctx).unwrap().as_ref()).unwrap())
            }
            HeOp::Output(a) => return at(a).clone(),
            ref other => panic!("the MLP graph does not use {other:?}"),
        };
        vals.push(v);
    }
    panic!("graph has no Output node")
}

#[test]
fn compiled_three_layer_mlp_is_bit_identical_to_node_by_node_evaluation() {
    let _g = counter_lock();
    const MLP_SLOTS: usize = 128;
    let params = CkksParams::builder()
        .ring_degree(2 * MLP_SLOTS)
        .levels(7)
        .special_limbs(7)
        .limb_bits(45)
        .scale_bits(40)
        .build()
        .unwrap();
    let ctx = CkksContext::new(params)
        .unwrap()
        .with_policy(GuardrailPolicy::Strict { min_budget_bits: -60.0 });
    // 9 / 16 / 4 diagonals at strides 1 / 2 / 4, square activation after
    // the first two layers: five levels.
    let layer = |diags, stride, activate| DenseLayer { diags, stride, activate };
    let layers = [layer(9, 1, true), layer(16, 2, true), layer(4, 4, false)];
    let w = lola_mlp_runnable(MLP_SLOTS, 6, &layers);
    let lowered = lower_to_program(
        &w.graph,
        &LowerOptions {
            slots: MLP_SLOTS,
            plain: w.plain.clone(),
            reorder: true,
            auto_bootstrap: None,
            max_live_cts: None,
        },
    )
    .expect("MLP graph lowers");
    let (sk, keys) = keys_for(&ctx, &lowered);
    let image: Vec<f64> = (0..MLP_SLOTS).map(|i| ((i * 5) % 17) as f64 / 17.0 - 0.4).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let x = ctx.encrypt(&ctx.encode(&image, ctx.default_scale(), w.input_level), &sk, &mut rng);

    let (out, peak) = run_compiled(&ctx, &keys, &x, &lowered);
    let expect = eval_graph_direct(&ctx, &keys, &w, &x);
    assert_eq!(out, expect, "compiled MLP must equal node-by-node evaluation bit for bit");
    assert_eq!(peak, lowered.predicted_peak_live, "residency plan vs executor high-water mark");
    // The 16-diagonal layer is the high-water mark: its input and three
    // hoisted baby rotations, the parked partial sum and inner term, and
    // the accumulator.
    assert_eq!(peak, 7);

    let reference = eval_plain(&w, &[image]);
    let got = ctx.decode(&ctx.decrypt(&out, &sk), MLP_SLOTS);
    for (i, (g, r)) in got.iter().zip(&reference).enumerate() {
        assert!((g - r).abs() < 1e-3, "slot {i}: decrypted {g} vs plain reference {r}");
    }
}

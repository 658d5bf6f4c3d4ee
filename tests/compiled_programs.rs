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
//! 3. **Residency** — the predicted live-ciphertext high-water mark
//!    (`cl_runtime::peak_live_cts`, waves included) equals the executor's
//!    `peak_live_cts`.
//!
//! The executor runs each layer's giant groups side by side as a wave and
//! each BSGS inner sum as one fused step; a run killed at any micro-op
//! inside one resumes to the same output with the op-by-op run's counts,
//! and a wave that fails (a missing key, a crossed budget floor) fails as
//! the op-by-op run does.

use craterlake::apps::{
    eval_plain, lola_layer_runnable, lola_mlp_runnable, DenseLayer, RunnableWorkload,
};
use craterlake::boot::BootstrapKeys;
use craterlake::ckks::faults::FaultPlan;
use craterlake::ckks::{Ciphertext, CkksContext, CkksParams, GuardrailPolicy, KeySwitchKind};
use craterlake::compiler::{lower_to_program, predict_program, LowerOptions, LoweredProgram};
use craterlake::isa::{HeOp, NodeId};
use craterlake::runtime::{ExecutorConfig, PipelineExecutor, PipelineOp, PreparedProgram, RunOutcome};
use cl_trace::OpSnapshot;
use rand::SeedableRng;

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
    // The wave of the three giant groups is the high-water mark: the
    // input, its two hoisted baby rotations and the accumulator the wave
    // starts from stay held while the groups run side by side; the first
    // group's sum and its parked slot, the second's rotated sum, and the
    // third's running sum with its parked slot are held beside them (six
    // op by op, where one group ran at a time).
    assert_eq!(peak, 9);
}

#[test]
fn prediction_holds_on_a_second_layer_shape() {
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

/// Boosted keyswitching below the top level: the layer's rotations run at
/// level 4 and its relinearized square at level 3 of a 6-level chain, so
/// with one digit each keyswitch extends into `l + 1` of the hints' six
/// special limbs after a pre-scale (with two digits only the 1-limb
/// extension of level 1 would shrink, and none runs there). Predicted ==
/// measured, field by field, for both digit counts.
#[test]
fn prediction_holds_for_boosted_keyswitches_below_the_top() {
    let ctx = strict_ctx();
    let w = layer();
    let lowered = compile(&w);
    for kind in [
        KeySwitchKind::Boosted { digits: 1 },
        KeySwitchKind::Boosted { digits: 2 },
    ] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(78);
        let sk = ctx.keygen_sparse(8, &mut rng);
        let keys = BootstrapKeys::generate(&ctx, &sk, kind, &lowered.rotation_steps, &mut rng);
        let x = encrypt_input(&ctx, &sk);
        let (warm, _) = run_compiled(&ctx, &keys, &x, &lowered);
        let before = OpSnapshot::capture();
        let (out, _) = run_compiled(&ctx, &keys, &x, &lowered);
        let measured = OpSnapshot::capture().delta_since(&before);
        assert_eq!(out, warm, "{kind:?}: warm and measured runs must agree");
        let predicted =
            predict_program(ctx.max_level(), kind, &[INPUT_LEVEL], &lowered.program).unwrap();
        assert_eq!(measured.ntt, predicted.ntt, "{kind:?}: ntt");
        assert_eq!(measured.intt, predicted.intt, "{kind:?}: intt");
        assert_eq!(measured.mult, predicted.mult, "{kind:?}: mult");
        assert_eq!(measured.add, predicted.add, "{kind:?}: add");
        assert_eq!(
            measured.base_conv, predicted.base_conv,
            "{kind:?}: base_conv"
        );
        assert_eq!(
            measured.automorph, predicted.automorph,
            "{kind:?}: automorph"
        );
        assert_eq!(
            measured.rotations, predicted.rotations,
            "{kind:?}: rotations"
        );
        assert_eq!(measured.ct_mults, predicted.ct_mults, "{kind:?}: ct_mults");
        assert_eq!(measured.pt_mults, predicted.pt_mults, "{kind:?}: pt_mults");
        assert_eq!(
            measured.hint_regen, 0,
            "{kind:?}: warm run must not regenerate hints"
        );

        let reference = eval_plain(&w, &[input_slots()]);
        let got = ctx.decode(&ctx.decrypt(&out, &sk), SLOTS);
        for (i, (g, r)) in got.iter().zip(&reference).enumerate() {
            assert!((g - r).abs() < 1e-3, "{kind:?} slot {i}: {g} vs {r}");
        }
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

const MLP_SLOTS: usize = 128;

fn mlp_image() -> Vec<f64> {
    (0..MLP_SLOTS).map(|i| ((i * 5) % 17) as f64 / 17.0 - 0.4).collect()
}

/// A three-layer MLP at ring 256: 9 / 16 / 4 diagonals at strides 1 / 2 /
/// 4, square activation after the first two layers (five levels), lowered,
/// with its keys and its encrypted input image.
fn mlp() -> (
    CkksContext,
    RunnableWorkload,
    LoweredProgram,
    craterlake::ckks::SecretKey,
    BootstrapKeys,
    Ciphertext,
) {
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
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let x = ctx.encrypt(&ctx.encode(&mlp_image(), ctx.default_scale(), w.input_level), &sk, &mut rng);
    (ctx, w, lowered, sk, keys, x)
}

#[test]
fn compiled_three_layer_mlp_is_bit_identical_to_node_by_node_evaluation() {
    let (ctx, w, lowered, sk, keys, x) = mlp();
    let image = mlp_image();
    let (out, peak) = run_compiled(&ctx, &keys, &x, &lowered);
    let expect = eval_graph_direct(&ctx, &keys, &w, &x);
    assert_eq!(out, expect, "compiled MLP must equal node-by-node evaluation bit for bit");
    assert_eq!(peak, lowered.predicted_peak_live, "residency plan vs executor high-water mark");
    // The 16-diagonal layer's wave is the high-water mark: its input,
    // three hoisted baby rotations and starting accumulator, the first
    // group's sum and its parked slot, the next two groups' rotated sums,
    // and the last group's running sum with its parked slot (seven op by
    // op).
    assert_eq!(peak, 11);

    let reference = eval_plain(&w, &[image]);
    let got = ctx.decode(&ctx.decrypt(&out, &sk), MLP_SLOTS);
    for (i, (g, r)) in got.iter().zip(&reference).enumerate() {
        assert!((g - r).abs() < 1e-3, "slot {i}: decrypted {g} vs plain reference {r}");
    }
}

/// A run killed before every micro-op inside each of the layer's three
/// inner sums, then resumed without the fault plan (so later sums run as
/// fused steps again), lands on the uninterrupted output bit for bit at
/// every checkpoint cadence — none, every boundary, and two cadences that
/// put checkpoints inside some sums but not others — with the op-by-op
/// run's counts: each micro-op executed once per pass over it, the
/// uninterrupted run's checkpoint count and the predicted peak.
#[test]
fn runs_killed_inside_an_inner_sum_resume_bit_identically() {
    let ctx = strict_ctx();
    let w = layer();
    let lowered = compile(&w);
    let (sk, keys) = keys_for(&ctx, &lowered);
    let x = encrypt_input(&ctx, &sk);
    let (want, _) = run_compiled(&ctx, &keys, &x, &lowered);
    let prepared = PreparedProgram::borrowed(&ctx, &lowered.program);
    let sums = prepared.inner_sums();
    assert_eq!(sums.len(), 3, "one inner sum per giant group");
    let n = lowered.program.num_micro_ops() as u64;
    let inputs = std::slice::from_ref(&x);
    let dir = std::env::temp_dir().join(format!("cl-inner-sum-kill-{}", std::process::id()));
    for every in [0u64, 1, 7, 16] {
        for kill_at in sums.iter().flat_map(|r| r.clone()) {
            let _ = std::fs::remove_dir_all(&dir);
            let config = ExecutorConfig {
                checkpoint_every: every,
                max_retries: 1,
                checkpoint_dir: (every > 0).then(|| dir.clone()),
            };
            let mut exec = PipelineExecutor::new(&ctx, &keys, config).unwrap();
            exec.set_fault_plan(FaultPlan::new(kill_at, 0.0).with_kill_point(kill_at));
            assert!(matches!(
                exec.run_prepared(inputs, &prepared).unwrap(),
                RunOutcome::Crashed
            ));
            exec.take_fault_plan();
            let got = match exec.resume_prepared(inputs, &prepared).unwrap() {
                RunOutcome::Completed(ct) => ct,
                RunOutcome::Crashed => unreachable!("the plan is detached"),
            };
            let at = format!("cadence {every}, killed before micro-op {kill_at}");
            assert_eq!(got, want, "{at}");
            assert_eq!(
                got.noise_estimate_bits().to_bits(),
                want.noise_estimate_bits().to_bits()
            );
            assert_eq!(got.scale().to_bits(), want.scale().to_bits());
            let t = exec.telemetry();
            let resumed_at = kill_at.checked_div(every).map_or(0, |k| k * every);
            assert_eq!(t.ops_executed, kill_at + n - resumed_at, "{at}");
            assert_eq!(
                t.checkpoints_written,
                if every == 0 { 0 } else { n.div_ceil(every) },
                "{at}"
            );
            assert_eq!(t.peak_live_cts, lowered.predicted_peak_live, "{at}");
            assert_eq!(t.faults_detected, 0, "{at}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The lowered `lola_mlp_8k` network (25 / 64 / 16 diagonals at strides
/// 1 / 2 / 4) forms one wave per layer, of 5, 8 and 4 bodies: each body a
/// giant group's inner sum, and every group's but the layer's first its
/// giant rotation; each later tail starts at the `AddSlot` into the layer
/// sum.
#[test]
fn lowered_lola_mlp_forms_one_wave_per_layer() {
    let layer = |diags, stride, activate| DenseLayer { diags, stride, activate };
    let layers = [layer(25, 1, true), layer(64, 2, true), layer(16, 4, false)];
    let w = lola_mlp_runnable(4096, 7, &layers);
    let lowered = lower_to_program(
        &w.graph,
        &LowerOptions {
            slots: 4096,
            plain: w.plain.clone(),
            reorder: true,
            auto_bootstrap: None,
            max_live_cts: None,
        },
    )
    .expect("MLP graph lowers");
    let ctx = strict_ctx();
    let prepared = PreparedProgram::borrowed(&ctx, &lowered.program);
    let ops = lowered.program.ops();
    let bodies: Vec<usize> = prepared.waves().iter().map(|w| w.bodies().count()).collect();
    assert_eq!(bodies, [5, 8, 4]);
    for wave in prepared.waves() {
        for (k, (body, tail)) in wave.bodies().zip(wave.tails()).enumerate() {
            assert!(
                prepared.inner_sums().iter().any(|s| s.start == body.start),
                "body {body:?} starts at an inner sum"
            );
            if k > 0 {
                assert!(matches!(ops[body.end as usize - 1], PipelineOp::Rotate(_)));
                assert!(matches!(ops[tail.start as usize], PipelineOp::AddSlot(_)));
            }
        }
    }
    // Op by op the peak was 11; the 64-diagonal layer's wave holds its
    // nine wave-start values, the first group's sum and slot, six rotated
    // sums and the last group's running sum and slot.
    assert_eq!(lowered.predicted_peak_live, 19);
}

/// The compiled layer under `FaultPlan`-free execution (waves and inner
/// sums fused) and op by op (an attached plan that injects nothing):
/// output digest or error, and the run's counters.
fn run_both_ways(
    ctx: &CkksContext,
    keys: &BootstrapKeys,
    x: &Ciphertext,
    prepared: &PreparedProgram<'_>,
    max_retries: u32,
) -> [(String, [u64; 4]); 2] {
    [false, true].map(|op_by_op| {
        let config = ExecutorConfig {
            checkpoint_every: 0,
            max_retries,
            checkpoint_dir: None,
        };
        let mut exec = PipelineExecutor::new(ctx, keys, config).unwrap();
        if op_by_op {
            exec.set_fault_plan(FaultPlan::new(0, 0.0));
        }
        let outcome = match exec.run_prepared(std::slice::from_ref(x), prepared) {
            Ok(RunOutcome::Completed(ct)) => format!("{:?}", ctx.serialize_ciphertext(&ct)),
            Ok(RunOutcome::Crashed) => unreachable!("no kill point"),
            Err(e) => format!("{e:?}"),
        };
        let t = exec.telemetry();
        (outcome, [t.ops_executed, t.faults_detected, t.retries, t.peak_live_cts])
    })
}

/// Without the rotation key of the last giant step, the wave's last body
/// fails: the wave is discarded and re-run op by op, so the error, the
/// retry and every counter are the op-by-op run's.
#[test]
fn a_missing_giant_step_key_fails_as_the_op_by_op_run_does() {
    let ctx = strict_ctx();
    let w = layer();
    let mut lowered = compile(&w);
    let prepared = PreparedProgram::borrowed(&ctx, &lowered.program);
    assert_eq!(prepared.waves().len(), 1);
    assert_eq!(lowered.rotation_steps.iter().max(), Some(&6));
    lowered.rotation_steps.retain(|&s| s != 6);
    let (sk, keys) = keys_for(&ctx, &lowered);
    let x = encrypt_input(&ctx, &sk);
    let [waved, op_by_op] = run_both_ways(&ctx, &keys, &x, &prepared, 1);
    assert!(waved.0.contains("rotation"), "{}", waved.0);
    assert_eq!(waved, op_by_op);
    assert_eq!(waved.1[2], 1, "one retry, then the error");
}

/// Budget floors swept down from above the input's budget until the run
/// completes: with waves, each run fails (or completes) exactly as the
/// op-by-op run does, and some floors are first crossed inside a body
/// past the wave's first op.
#[test]
fn a_budget_crossed_in_a_body_fails_as_the_op_by_op_run_does() {
    let mut ctx = strict_ctx();
    let w = layer();
    let lowered = compile(&w);
    let (sk, keys) = keys_for(&ctx, &lowered);
    let x = encrypt_input(&ctx, &sk);
    let prepared = PreparedProgram::borrowed(&ctx, &lowered.program);
    let wave = prepared.waves()[0].clone();
    let mut floor = ctx.budget_bits(&x) + 1.0;
    let mut in_a_body = 0;
    loop {
        ctx.set_policy(GuardrailPolicy::Strict { min_budget_bits: floor });
        let [waved, op_by_op] = run_both_ways(&ctx, &keys, &x, &prepared, 0);
        assert_eq!(waved, op_by_op, "floor {floor}");
        if !op_by_op.0.contains("BudgetExhausted") {
            break;
        }
        let failed_at = op_by_op.1[0];
        if failed_at > wave.range().start && wave.bodies().any(|b| b.contains(&failed_at)) {
            in_a_body += 1;
        }
        floor -= 0.25;
    }
    assert!(in_a_body > 0, "some floor must be crossed inside a body");
}

/// A `RunControl` cancelled from another thread while the wave runs: the
/// run returns `Cancelled` with no retry and no fault, the wave's work
/// discarded (the run stops at the wave's first boundary).
#[test]
fn a_run_cancelled_inside_a_wave_returns_cancelled_without_retry() {
    use craterlake::ckks::FheError;
    use craterlake::runtime::RunControl;
    use std::time::{Duration, Instant};
    let ctx = strict_ctx();
    let w = layer();
    let lowered = compile(&w);
    let (sk, keys) = keys_for(&ctx, &lowered);
    let x = encrypt_input(&ctx, &sk);
    let prepared = PreparedProgram::borrowed(&ctx, &lowered.program);
    let wave = prepared.waves()[0].range();
    let config = ExecutorConfig {
        checkpoint_every: 0,
        max_retries: 4,
        checkpoint_dir: None,
    };
    run_compiled(&ctx, &keys, &x, &lowered);
    let mut inside = 0;
    for attempt in 0..10 {
        // Re-timed per sweep: the cancels spread over one whole run.
        let t0 = Instant::now();
        run_compiled(&ctx, &keys, &x, &lowered);
        let whole = t0.elapsed();
        for k in 1..20u32 {
            let control = RunControl::new();
            let mut exec = PipelineExecutor::new(&ctx, &keys, config.clone()).unwrap();
            exec.set_control(control.clone());
            let got = std::thread::scope(|s| {
                s.spawn(|| {
                    std::thread::sleep(whole * k / 20);
                    control.cancel();
                });
                exec.run_prepared(std::slice::from_ref(&x), &prepared)
            });
            let t = exec.telemetry();
            match got {
                Err(FheError::Cancelled { .. }) => {
                    assert_eq!((t.retries, t.faults_detected), (0, 0), "attempt {attempt}, {k}/20");
                    inside += u64::from(t.ops_executed == wave.start);
                }
                Ok(RunOutcome::Completed(_)) => {
                    assert_eq!(t.ops_executed, lowered.program.num_micro_ops() as u64)
                }
                other => panic!("expected Cancelled or a completed run, got {other:?}"),
            }
        }
        if inside > 0 {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("no cancellation landed inside the wave");
}

/// The three-layer MLP (three waves, back to back) killed at each wave's
/// edges and inside it, then resumed without the fault plan, at cadences
/// that put checkpoint boundaries at wave edges (53, the first wave's
/// end; 142, the second's), inside waves, and nowhere: the output is the
/// uninterrupted run's bit for bit, with the op-by-op counts and the
/// predicted peak. (A resume inside a wave, or a checkpoint due inside
/// it, runs that wave op by op.)
#[test]
fn runs_killed_around_waves_resume_bit_identically() {
    let (ctx, _w, lowered, _sk, keys, x) = mlp();
    let (want, _) = run_compiled(&ctx, &keys, &x, &lowered);
    let want = ctx.serialize_ciphertext(&want);
    let prepared = PreparedProgram::borrowed(&ctx, &lowered.program);
    let waves: Vec<_> = prepared.waves().iter().map(|w| w.range()).collect();
    assert_eq!(waves, [2..53, 53..142, 142..163]);
    let n = lowered.program.num_micro_ops() as u64;
    let kills: Vec<u64> = waves
        .iter()
        .flat_map(|r| [r.start - 1, r.start, r.start + 1, (r.start + r.end) / 2, r.end - 1])
        .collect();
    let inputs = std::slice::from_ref(&x);
    let dir = std::env::temp_dir().join(format!("cl-wave-kill-{}", std::process::id()));
    for every in [0, 53, 71, 7] {
        for &kill_at in &kills {
            let _ = std::fs::remove_dir_all(&dir);
            let config = ExecutorConfig {
                checkpoint_every: every,
                max_retries: 1,
                checkpoint_dir: (every > 0).then(|| dir.clone()),
            };
            let mut exec = PipelineExecutor::new(&ctx, &keys, config).unwrap();
            exec.set_fault_plan(FaultPlan::new(kill_at, 0.0).with_kill_point(kill_at));
            assert!(matches!(
                exec.run_prepared(inputs, &prepared).unwrap(),
                RunOutcome::Crashed
            ));
            exec.take_fault_plan();
            let got = match exec.resume_prepared(inputs, &prepared).unwrap() {
                RunOutcome::Completed(ct) => ct,
                RunOutcome::Crashed => unreachable!("the plan is detached"),
            };
            let at = format!("cadence {every}, killed before micro-op {kill_at}");
            assert_eq!(ctx.serialize_ciphertext(&got), want, "{at}");
            let t = exec.telemetry();
            let resumed_at = kill_at.checked_div(every).map_or(0, |k| k * every);
            assert_eq!(t.ops_executed, kill_at + n - resumed_at, "{at}");
            assert_eq!(
                t.checkpoints_written,
                if every == 0 { 0 } else { n.div_ceil(every) },
                "{at}"
            );
            assert_eq!(t.peak_live_cts, lowered.predicted_peak_live, "{at}");
            assert_eq!(t.faults_detected, 0, "{at}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

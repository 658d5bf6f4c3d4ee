//! Compile-and-run smoke: a LoLa-MNIST layer graph (16 diagonals, BSGS
//! packing, square activation) is compiled by `lower_to_program` into a
//! pipeline `Program` and executed at N = 8K, twice through one
//! `PreparedProgram` (as a server runs a program it has seen before), and
//! the compiler's three promises are checked against the second run:
//!
//!   1. `predict_program`'s closed-form op counts equal the live
//!      `cl-trace` counter delta of a warm-cache run *exactly* — the run
//!      whose plaintext operands all come from the prepared program's
//!      coefficient memo, so the memo saves work without changing a
//!      count;
//!   2. the residency plan's predicted live-ciphertext high-water mark
//!      equals the executor's measured peak, with every BSGS inner sum
//!      run as one fused step (the prepared program finds one per giant
//!      group) whose interior boundaries still count;
//!   3. the decrypted output matches the unencrypted reference
//!      evaluation of the same graph.
//!
//! Then runs killed inside an inner sum, one before any checkpoint and one
//! after a checkpoint inside the sum, resume to the uninterrupted run's
//! output bit for bit.
//!
//! `scripts/verify.sh` runs this as a tier-1 gate.
//!
//! Run with: `cargo run --release --example compile_run_smoke`

use craterlake::apps::{eval_plain, lola_layer_runnable};
use craterlake::boot::BootstrapKeys;
use craterlake::ckks::faults::FaultPlan;
use craterlake::ckks::{CkksContext, CkksParams, GuardrailPolicy, KeySwitchKind};
use craterlake::compiler::{lower_to_program, predict_program, LowerOptions};
use craterlake::runtime::{ExecutorConfig, PipelineExecutor, PreparedProgram, RunOutcome};
use cl_trace::OpSnapshot;
use rand::SeedableRng;

const RING: usize = 8192;
const LEVELS: usize = 6;
const INPUT_LEVEL: usize = 4;
const DIAGS: usize = 16;

fn main() {
    assert!(
        cl_trace::enabled(),
        "compile_run_smoke needs live counters; the root crate's \
         dev-dependency enables cl-trace/trace for examples"
    );
    let params = CkksParams::builder()
        .ring_degree(RING)
        .levels(LEVELS)
        .special_limbs(LEVELS)
        .limb_bits(45)
        .scale_bits(40)
        .build()
        .expect("params");
    let ctx = CkksContext::new(params)
        .expect("ckks context")
        .with_policy(GuardrailPolicy::Strict { min_budget_bits: -60.0 });
    let slots = ctx.params().slots();

    // The workload: one BSGS matvec layer with the square activation.
    let w = lola_layer_runnable(slots, INPUT_LEVEL, DIAGS, 1, true);
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
    .expect("layer graph lowers");
    println!(
        "compiled {}: {} graph nodes -> {} pipeline ops, rotation keys {:?}",
        w.name,
        w.graph.num_nodes(),
        lowered.program.len(),
        lowered.rotation_steps,
    );

    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DE);
    let sk = ctx.keygen_sparse(64, &mut rng);
    let keys = BootstrapKeys::generate(
        &ctx,
        &sk,
        KeySwitchKind::Standard,
        &lowered.rotation_steps,
        &mut rng,
    );
    let image: Vec<f64> = (0..slots).map(|i| ((i * 5) % 17) as f64 / 17.0 - 0.4).collect();
    let x = ctx.encrypt(&ctx.encode(&image, ctx.default_scale(), INPUT_LEVEL), &sk, &mut rng);

    let config = ExecutorConfig { checkpoint_every: 0, max_retries: 1, checkpoint_dir: None };
    let prepared = PreparedProgram::borrowed(&ctx, &lowered.program);
    let operands =
        lowered.program.ops().iter().filter(|op| op.plain_values().is_some()).count() as u64;
    assert!(operands > 0, "the layer multiplies by plaintext diagonals");
    // The layer's BSGS split: one inner sum per giant group.
    let giants = DIAGS.div_ceil((DIAGS as f64).sqrt().ceil() as usize);
    assert_eq!(
        prepared.inner_sums().len(),
        giants,
        "the prepared program must find one inner sum per giant group"
    );
    println!("  inner sums run as one step each: {giants} (one per giant group)");
    let run = |warm: &str| {
        let mut exec = PipelineExecutor::new(&ctx, &keys, config.clone()).expect("executor");
        let out = match exec.run_prepared(std::slice::from_ref(&x), &prepared).expect(warm) {
            RunOutcome::Completed(ct) => ct,
            RunOutcome::Crashed => unreachable!("no fault plan attached"),
        };
        (out, exec.telemetry().peak_live_cts)
    };

    // Warm run: materializes every seeded keyswitch hint (regeneration
    // work the cost model deliberately excludes) and rounds every
    // plaintext operand into the memo, then measure.
    let (warm_out, peak) = run("warm run");
    let warm_memo = prepared.memo_stats();
    assert_eq!((warm_memo.hits, warm_memo.misses), (0, operands), "warm run rounds each operand");
    let before = OpSnapshot::capture();
    let (out, _) = run("measured run");
    let measured = OpSnapshot::capture().delta_since(&before);
    assert_eq!(out, warm_out, "warm and measured runs must be bit-identical");
    let memo = prepared.memo_stats();
    assert_eq!(
        (memo.hits, memo.misses),
        (operands, operands),
        "the measured run must take every operand from the memo"
    );
    println!("  plaintext operands: {operands}, all from the memo on the measured run");

    // Promise 1: predicted == measured, field by field.
    let predicted =
        predict_program(LEVELS, KeySwitchKind::Standard, &[INPUT_LEVEL], &lowered.program)
            .expect("program predicts");
    for (name, m, p) in [
        ("ntt", measured.ntt, predicted.ntt),
        ("intt", measured.intt, predicted.intt),
        ("mult", measured.mult, predicted.mult),
        ("add", measured.add, predicted.add),
        ("base_conv", measured.base_conv, predicted.base_conv),
        ("automorph", measured.automorph, predicted.automorph),
        ("rotations", measured.rotations, predicted.rotations),
        ("ct_mults", measured.ct_mults, predicted.ct_mults),
        ("pt_mults", measured.pt_mults, predicted.pt_mults),
    ] {
        assert_eq!(m, p, "{name}: measured {m} != predicted {p}");
        println!("  {name:>10}: predicted = measured = {m}");
    }
    assert_eq!(measured.hint_regen, 0, "warm run must not regenerate hints");
    assert_eq!(lowered.counts.rotations, measured.rotations);
    assert_eq!(lowered.counts.ct_mults, measured.ct_mults);
    assert_eq!(lowered.counts.pt_mults, measured.pt_mults);

    // Promise 2: the residency plan bounds live ciphertext memory; the
    // fused inner sums' interior boundaries count like any other.
    assert_eq!(
        peak, lowered.predicted_peak_live,
        "residency plan must predict the executor's live-ciphertext peak with inner sums fused"
    );
    println!("  peak live ciphertexts: predicted = measured = {peak}");

    // Promise 3: the compiled run computes the layer.
    let reference = eval_plain(&w, &[image]);
    let got = ctx.decode(&ctx.decrypt(&out, &sk), slots);
    let mut worst = 0.0f64;
    for (g, r) in got.iter().zip(&reference) {
        worst = worst.max((g - r).abs());
    }
    assert!(worst < 1e-3, "decrypted output drifted {worst} from the plain reference");
    println!("  max |decrypt - reference| = {worst:.2e} over {slots} slots");

    // Kills inside inner sums, with checkpoints due one micro-op into the
    // last sum (and nowhere else), so that sum always runs op by op. A
    // kill inside the first sum finds no checkpoint: the resume starts
    // over with every other sum run as one step. A kill inside the last
    // sum resumes from the checkpoint inside it and runs the rest op by
    // op. Both land on the uninterrupted output with the op-by-op counts.
    let sums = prepared.inner_sums();
    let micro_ops = lowered.program.num_micro_ops() as u64;
    let last = sums.last().expect("the layer has inner sums").clone();
    let every = last.start + 1;
    assert!(
        2 * every > micro_ops,
        "one checkpoint inside the last sum, then the end"
    );
    let dir = std::env::temp_dir().join(format!("cl_compile_run_smoke_{}", std::process::id()));
    for kill_at in [sums[0].start + 3, every + 2] {
        assert!(sums.iter().any(|r| r.start < kill_at && kill_at < r.end));
        let _ = std::fs::remove_dir_all(&dir);
        let durable = ExecutorConfig {
            checkpoint_every: every,
            max_retries: 1,
            checkpoint_dir: Some(dir.clone()),
        };
        let mut exec = PipelineExecutor::new(&ctx, &keys, durable).expect("executor");
        exec.set_fault_plan(FaultPlan::new(0, 0.0).with_kill_point(kill_at));
        let inputs = std::slice::from_ref(&x);
        assert!(matches!(
            exec.run_prepared(inputs, &prepared).expect("killed run"),
            RunOutcome::Crashed
        ));
        exec.take_fault_plan();
        let resumed = match exec
            .resume_prepared(inputs, &prepared)
            .expect("resumed run")
        {
            RunOutcome::Completed(ct) => ct,
            RunOutcome::Crashed => unreachable!("the kill point fired once"),
        };
        assert_eq!(
            resumed, out,
            "killed at micro-op {kill_at}: the resume must be bit-identical"
        );
        let resumed_at = if kill_at > every { every } else { 0 };
        let t = exec.telemetry();
        assert_eq!(
            t.restores,
            u64::from(resumed_at > 0),
            "killed at micro-op {kill_at}"
        );
        assert_eq!(
            t.ops_executed,
            kill_at + micro_ops - resumed_at,
            "killed at {kill_at}"
        );
        assert_eq!(
            t.peak_live_cts, lowered.predicted_peak_live,
            "killed at {kill_at}"
        );
        println!("  killed at micro-op {kill_at}, resumed from {resumed_at}: bit-identical");
    }
    let _ = std::fs::remove_dir_all(&dir);
    println!("compile_run_smoke: OK");
}

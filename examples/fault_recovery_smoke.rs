//! Fault-recovery smoke: a short bootstrapped pipeline, run clean and then
//! under a fixed-seed fault plan that flips ciphertext bits mid-run. The
//! executor must detect every hit through the context's guardrails, restore
//! its last good checkpoint, retry, and land on a final ciphertext that is
//! limb-bit-identical to the clean run's.
//!
//! `scripts/verify.sh` runs this as a tier-1 gate.
//!
//! Run with: `cargo run --release --example fault_recovery_smoke`

use craterlake::boot::Bootstrapper;
use craterlake::ckks::faults::FaultPlan;
use craterlake::ckks::{CkksContext, CkksParams, GuardrailPolicy, KeySwitchKind};
use craterlake::runtime::{ExecutorConfig, PipelineExecutor, PipelineOp, Program, RunOutcome};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = CkksParams::builder()
        .ring_degree(64)
        .levels(20)
        .special_limbs(20)
        .limb_bits(45)
        .scale_bits(45)
        .build()?;
    // Operand validation is what turns an injected bit flip into a
    // *detected* fault; the generous budget floor keeps the deep
    // squaring chain itself legal at these test-scale parameters.
    let ctx = CkksContext::new(params)?.with_policy(GuardrailPolicy::Strict {
        min_budget_bits: -5000.0,
    });
    let mut rng = rand::thread_rng();
    let sk = ctx.keygen_sparse(8, &mut rng);
    let booter = Bootstrapper::new(&ctx, 8);
    let keys = booter.keygen(&ctx, &sk, KeySwitchKind::Boosted { digits: 1 }, &mut rng);

    let pt = ctx.encode(&[0.6, -0.4, 0.2], ctx.default_scale(), ctx.max_level());
    let ct = ctx.encrypt(&pt, &sk, &mut rng);

    // Two squaring levels, a bootstrap (5 checkpointable stages), one more
    // squaring level: 11 micro-ops.
    let program = Program::new()
        .then_repeat(PipelineOp::Square, 1)
        .then(PipelineOp::Rescale)
        .then(PipelineOp::Square)
        .then(PipelineOp::Rescale)
        .then(PipelineOp::Bootstrap)
        .then(PipelineOp::Square)
        .then(PipelineOp::Rescale);

    let dir = std::env::temp_dir().join(format!("cl_fault_smoke_{}", std::process::id()));
    let config = |sub: &str| ExecutorConfig {
        checkpoint_every: 2,
        max_retries: 16,
        checkpoint_dir: Some(dir.join(sub)),
    };

    println!("clean run ...");
    let mut clean = PipelineExecutor::new(&ctx, &keys, config("clean"))?.with_bootstrapper(&booter);
    let expected = match clean.run(&ct, &program)? {
        RunOutcome::Completed(out) => out,
        RunOutcome::Crashed => unreachable!("clean run has no fault plan"),
    };

    println!("faulty run (seeded bit flips) ...");
    let mut faulty =
        PipelineExecutor::new(&ctx, &keys, config("faulty"))?.with_bootstrapper(&booter);
    faulty.set_fault_plan(FaultPlan::new(0xFA017, 0.25));
    let recovered = match faulty.run(&ct, &program)? {
        RunOutcome::Completed(out) => out,
        RunOutcome::Crashed => unreachable!("this plan has no kill points"),
    };
    let t = faulty.telemetry();
    println!(
        "telemetry: {} injected, {} detected, {} retries, {} restores, \
         {} checkpoints ({} bytes)",
        t.faults_injected,
        t.faults_detected,
        t.retries,
        t.restores,
        t.checkpoints_written,
        t.bytes_written
    );

    let _ = std::fs::remove_dir_all(&dir);
    assert!(t.faults_injected >= 1, "plan never fired — smoke is vacuous");
    assert!(t.retries >= 1, "no recovery was recorded");
    assert!(
        t.faults_detected >= t.faults_injected,
        "some injected faults went undetected"
    );
    assert_eq!(
        recovered, expected,
        "recovered output differs from the clean run"
    );
    println!("fault recovery smoke: OK (recovered output is bit-identical)");
    Ok(())
}

//! Quickstart: encrypt a vector, compute on it homomorphically, decrypt —
//! then compile the same computation onto the simulated CraterLake
//! accelerator and report its execution time.
//!
//! Run with: `cargo run --release --example quickstart`

use craterlake::baselines::craterlake_options;
use craterlake::ckks::{CkksContext, CkksParams, GuardrailPolicy, KeySwitchKind};
use craterlake::compiler::compile_and_run;
use craterlake::isa::HeGraph;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ------------------------------------------------------------------
    // Part 1: functional FHE — the mathematics actually runs.
    // ------------------------------------------------------------------
    let params = CkksParams::builder()
        .ring_degree(1 << 10)
        .levels(4)
        .special_limbs(4)
        .limb_bits(45)
        .scale_bits(45)
        .build()?;
    // Every `try_*` op validates its operands and verifies keyswitch-hint
    // integrity; with a 0-bit budget floor it also fails cleanly (instead
    // of decrypting garbage) if the tracked noise budget runs out.
    let ctx = CkksContext::new(params)?.with_policy(GuardrailPolicy::Strict {
        min_budget_bits: 0.0,
    });
    let mut rng = rand::thread_rng();
    let sk = ctx.keygen(&mut rng);
    let relin = ctx.relin_keygen(&sk, KeySwitchKind::Boosted { digits: 1 }, &mut rng);
    let rot1 = ctx.rotation_keygen(&sk, 1, KeySwitchKind::Boosted { digits: 1 }, &mut rng);

    let xs = vec![1.0, 2.0, 3.0, 4.0];
    let ws = vec![0.5, -1.0, 2.0, 0.25];
    let pt_x = ctx.encode(&xs, ctx.default_scale(), ctx.max_level());
    let pt_w = ctx.encode(&ws, ctx.default_scale(), ctx.max_level());
    let ct_x = ctx.encrypt(&pt_x, &sk, &mut rng);
    let ct_w = ctx.encrypt(&pt_w, &sk, &mut rng);

    // y = (x * w) rotated by one slot, plus x. The fallible API (`try_*`)
    // propagates structured `FheError`s through `?`.
    let prod = ctx.try_rescale(&ctx.try_mul(&ct_x, &ct_w, &relin)?)?;
    let rotated = ctx.try_rotate(&prod, 1, &rot1)?;
    let x_aligned = ctx.try_mod_drop(&ct_x, rotated.level())?;
    let sum = ctx.try_add(&rotated, &x_aligned.with_scale(rotated.scale()))?;

    let out = ctx.decode(&ctx.decrypt(&sum, &sk), 4);
    println!("homomorphic (x*w <<1) + x = {out:.3?}");
    println!(
        "remaining noise budget: {:.1} bits (estimated noise {:.1} bits)",
        ctx.budget_bits(&sum),
        sum.noise_estimate_bits()
    );
    // The rotation is over all N/2 slots; the unfilled ones are zero, so
    // slot 3 receives the zero padding rather than wrapping to slot 0.
    let expect: Vec<f64> = (0..4)
        .map(|i| {
            let shifted = if i + 1 < 4 { xs[i + 1] * ws[i + 1] } else { 0.0 };
            shifted + xs[i]
        })
        .collect();
    println!("plaintext reference       = {expect:.3?}");
    for (a, b) in out.iter().zip(&expect) {
        assert!((a - b).abs() < 1e-3, "homomorphic result mismatch");
    }

    // ------------------------------------------------------------------
    // Part 2: the same computation on the CraterLake machine model.
    // ------------------------------------------------------------------
    let mut g = HeGraph::new();
    let x = g.input(30);
    let w = g.input(30);
    let p = g.mul_ct(x, w);
    let r = g.rescale(p);
    let rot = g.rotate(r, 1);
    let xd = g.mod_drop(x, g.node(rot).level);
    let s = g.add(rot, xd);
    g.output(s);

    let (arch, opts) = craterlake_options(1 << 16);
    let stats = compile_and_run(&g, &arch, &opts);
    println!();
    println!(
        "on CraterLake (N=64K, L=30): {:.1} us, {:.0}% memory-bandwidth utilization",
        stats.exec_ms(&arch) * 1e3,
        100.0 * stats.bw_utilization()
    );
    println!(
        "off-chip traffic: {:.1} MB (of which keyswitch hints {:.1} MB)",
        stats.total_traffic_bytes() / 1e6,
        stats.traffic_of(craterlake::isa::TrafficClass::Ksh) / 1e6
    );
    Ok(())
}

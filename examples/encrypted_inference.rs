//! Encrypted inference: run a small logistic-regression classifier on
//! encrypted inputs and verify the result against the plaintext model —
//! the privacy-preserving machine-learning use case that motivates the
//! paper (Fig. 1: the server computes on data it cannot read).
//!
//! Run with: `cargo run --release --example encrypted_inference`

use craterlake::ckks::{CkksContext, CkksParams, GuardrailPolicy, KeySwitchKind};

/// Degree-3 least-squares approximation of the logistic function on
/// [-4, 4]: sigma(x) ~ 0.5 + 0.197x - 0.004x^3.
fn sigmoid_approx(x: f64) -> f64 {
    0.5 + 0.197 * x - 0.004 * x * x * x
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two spare levels beyond the circuit's depth: the guardrails
    // account the budget at each op's (pre-rescale) result, so the chain
    // needs headroom above the scale even at the deepest multiply.
    let params = CkksParams::builder()
        .ring_degree(1 << 10)
        .levels(8)
        .special_limbs(8)
        .limb_bits(45)
        .scale_bits(45)
        .build()?;
    // A production server wants structured errors, not panics: the
    // guardrails validate operands and keys on every fallible op, and a
    // 0-bit floor refuses a result whose noise budget has run out.
    let ctx = CkksContext::new(params)?.with_policy(GuardrailPolicy::Strict {
        min_budget_bits: 0.0,
    });
    let mut rng = rand::thread_rng();
    let sk = ctx.keygen(&mut rng);
    let kind = KeySwitchKind::Boosted { digits: 1 };
    let relin = ctx.relin_keygen(&sk, kind, &mut rng);

    // A tiny trained model: 8 features. The weights stay in plaintext
    // (Sec. 2.1: unencrypted weights trade no input privacy away).
    let weights = [0.8, -0.5, 0.3, 0.1, -0.9, 0.4, 0.2, -0.3];
    let bias = 0.1;
    // The client's private feature vector, packed with rotations in mind:
    // we lay features across slots and reduce with rotations.
    let features = [1.2, 0.7, -0.3, 0.9, 0.1, -1.1, 0.6, 0.2];

    // Client encrypts.
    let pt = ctx.encode(&features, ctx.default_scale(), ctx.max_level());
    let ct = ctx.encrypt(&pt, &sk, &mut rng);

    // Server: dot product = elementwise multiply + log-tree reduction.
    // All compute goes through the fallible API: any level/scale misuse,
    // corrupted operand, or exhausted budget surfaces as an `FheError`
    // through `?` instead of a panic deep in the pipeline.
    let w_pt = ctx.encode(&weights, ctx.default_scale(), ct.level());
    let mut acc = ctx.try_rescale(&ctx.try_mul_plain(&ct, &w_pt)?)?;
    let mut step = 4usize;
    while step >= 1 {
        let key = ctx.rotation_keygen(&sk, step as i64, kind, &mut rng);
        let rot = ctx.try_rotate(&acc, step as i64, &key)?;
        acc = ctx.try_add(&acc, &rot)?;
        if step == 1 {
            break;
        }
        step /= 2;
    }
    // Add the bias.
    let bias_pt = ctx.encode(&vec![bias; 8], acc.scale(), acc.level());
    let z = ctx.try_add_plain(&acc, &bias_pt)?;

    // sigma(z) via the polynomial, factored for scale stability:
    // 0.5 + z * (0.197 - 0.004 z^2).
    let z2 = ctx.try_rescale(&ctx.try_square(&z, &relin)?)?;
    // -0.004 z^2, encoding the constant at the scale of the modulus the
    // rescale drops so the ciphertext scale is preserved exactly.
    let q_drop = ctx.rns().modulus_value((z2.level() - 1) as u32) as f64;
    let c_pt = ctx.encode(&vec![-0.004; 8], q_drop, z2.level());
    let w = ctx.try_rescale(&ctx.try_mul_plain(&z2, &c_pt)?)?;
    let lin_pt = ctx.encode(&vec![0.197; 8], w.scale(), w.level());
    let inner = ctx.try_add_plain(&w, &lin_pt)?;
    let z_d = ctx.try_mod_drop(&z, inner.level())?;
    let poly = ctx.try_rescale(&ctx.try_mul(&inner, &z_d, &relin)?)?;
    let half_pt = ctx.encode(&vec![0.5; 8], poly.scale(), poly.level());
    let score_ct = ctx.try_add_plain(&poly, &half_pt)?;
    println!(
        "server-side noise budget after inference: {:.1} bits",
        ctx.budget_bits(&score_ct)
    );

    // Client decrypts. Slot 0 holds the full reduction.
    let score = ctx.decode(&ctx.decrypt(&score_ct, &sk), 1)[0];
    let z_plain: f64 =
        features.iter().zip(&weights).map(|(f, w)| f * w).sum::<f64>() + bias;
    let expect = sigmoid_approx(z_plain);
    println!("encrypted inference score: {score:.4}");
    println!("plaintext reference:       {expect:.4}");
    println!("classification:            {}", if score > 0.5 { "positive" } else { "negative" });
    assert!(
        (score - expect).abs() < 1e-2,
        "homomorphic result deviates from reference"
    );
    println!("(match within 1e-2 — the server never saw the features)");
    Ok(())
}

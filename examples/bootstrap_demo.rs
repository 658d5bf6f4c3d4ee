//! Unbounded computation: run a multiplication chain far deeper than the
//! multiplicative budget by bootstrapping whenever the budget runs out —
//! the capability that gives the paper its title.
//!
//! Uses the functional bootstrapping implementation at test-scale
//! parameters: every value below is really encrypted, really computed on,
//! and really refreshed.
//!
//! Run with: `cargo run --release --example bootstrap_demo`

use craterlake::boot::Bootstrapper;
use craterlake::ckks::{CkksContext, CkksParams, KeySwitchKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = CkksParams::builder()
        .ring_degree(64)
        .levels(20)
        .special_limbs(20)
        .limb_bits(45)
        .scale_bits(45)
        .build()?;
    let ctx = CkksContext::new(params)?;
    let mut rng = rand::thread_rng();
    // Sparse secret: bounds bootstrapping's mod-raise overflow (see
    // cl-boot docs; the paper's non-sparse-key techniques are modeled in
    // the performance plan instead).
    let sk = ctx.keygen_sparse(8, &mut rng);
    let kind = KeySwitchKind::Boosted { digits: 1 };
    let relin = ctx.relin_keygen(&sk, kind, &mut rng);
    let booter = Bootstrapper::new(&ctx, 8);
    let keys = booter.keygen(&ctx, &sk, kind, &mut rng);

    // Iterate x <- x * (2 - x): converges to 1 for x in (0, 2) and needs
    // one level per iteration — far more iterations than the budget.
    let slots = ctx.params().slots();
    let mut truth: Vec<f64> = (0..slots).map(|i| 0.2 + 0.05 * (i % 12) as f64).collect();
    let pt = ctx.encode(&truth, ctx.default_scale(), ctx.max_level());
    let mut ct = ctx.encrypt(&pt, &sk, &mut rng);

    let iterations = 24; // far beyond the 20-level budget
    let mut bootstraps = 0;
    for step in 0..iterations {
        if ct.level() < 2 {
            print!("  [budget exhausted at level {} -> bootstrapping...", ct.level());
            // MissingKey / InvalidParams / budget failures come back as a
            // structured error.
            ct = booter.try_bootstrap(&ctx, &ct, &keys)?;
            bootstraps += 1;
            println!(" refreshed to level {}]", ct.level());
        }
        // two_minus_x = 2 - x, computed as plaintext constant minus ct.
        let two = ctx.encode(&vec![2.0; slots], ct.scale(), ct.level());
        let neg = ctx.try_neg_ct(&ct)?;
        let two_minus = ctx.try_add_plain(&neg, &two)?;
        ct = ctx.try_rescale(&ctx.try_mul(&ct, &two_minus, &relin)?)?;
        for t in truth.iter_mut() {
            *t = *t * (2.0 - *t);
        }
        if step % 6 == 5 {
            let got = ctx.decode(&ctx.decrypt(&ct, &sk), 3);
            println!(
                "after {:>2} muls (level {:>2}): {:.4?}  (truth {:.4?})",
                step + 1,
                ct.level(),
                &got[..3],
                &truth[..3]
            );
        }
    }
    let got = ctx.decode(&ctx.decrypt(&ct, &sk), slots);
    let max_err = got
        .iter()
        .zip(&truth)
        .map(|(g, t)| (g - t).abs())
        .fold(0.0f64, f64::max);
    println!();
    println!(
        "{iterations} multiplications on a {}-level budget via {bootstraps} bootstraps; \
         max error {max_err:.4}",
        ctx.max_level()
    );
    assert!(max_err < 0.1, "drift too large");
    println!("unbounded-depth computation: works.");
    Ok(())
}

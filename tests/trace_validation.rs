//! Cross-validation of the op-level telemetry (`cl-trace`) against the
//! paper's closed-form cost model (`cl_isa::cost`, Table 1).
//!
//! These tests close the loop between the two op-accounting systems in the
//! repo: the *measured* side (relaxed atomic counters bumped by the
//! functional substrate as it executes) and the *analytic* side (the
//! closed-form residue-polynomial counts the accelerator model is built
//! on). Where the formulas are exact, the measured counts must match them
//! **exactly** up to a stated linear slack term — derived below per
//! algorithm, not a tolerance — and a full functional bootstrap's
//! high-level op totals must equal, exactly, the counts its radix-stage
//! diagonals and its EvalMod imply.
//!
//! Accounting convention: the formulas fold `changeRNSBase` multiply-
//! accumulates into their `mult` column (Table 1 calls them out via the
//! CRB split); the counters report them separately as `base_conv`, because
//! that is the CRB functional unit's workload. The assertions therefore
//! compare `base_conv` against `boosted_keyswitch_crb_mult` and `mult`
//! against the formula's *non-CRB* multiplies.
//!
//! The `trace` feature is lit for this binary through the root crate's
//! dev-dependency on `cl-trace`, so the counters are live here even though
//! release builds compile them out.

use std::sync::{Mutex, MutexGuard};

mod common;

use craterlake::boot::{Bootstrapper, PrecomputedTransform};
use craterlake::ckks::{CkksContext, CkksParams, GuardrailPolicy, KeySwitchKind};
use craterlake::isa::cost::{
    boosted_keyswitch_crb_mult, boosted_keyswitch_ops, mul_aux_ops, standard_keyswitch_ops,
};
use cl_trace::OpSnapshot;
use rand::SeedableRng;

/// Counters are process-global; every test in this binary holds this lock
/// for its entire body so a concurrently scheduled test cannot leak passes
/// into another test's measured delta.
static COUNTERS: Mutex<()> = Mutex::new(());

fn counter_lock() -> MutexGuard<'static, ()> {
    assert!(
        cl_trace::enabled(),
        "cross-validation needs live counters; the root crate's \
         dev-dependency must enable cl-trace/trace"
    );
    COUNTERS.lock().unwrap_or_else(|p| p.into_inner())
}

/// Runs `f` and returns its result plus the counter delta it produced.
/// Call only while holding [`counter_lock`].
fn measure<R>(f: impl FnOnce() -> R) -> (R, OpSnapshot) {
    let before = OpSnapshot::capture();
    let out = f();
    (out, OpSnapshot::capture().delta_since(&before))
}

/// Multiplicative budget the keyswitch fixtures run at. Chosen so every
/// digit count tested divides it exactly (`alpha = L/t` with no ceiling
/// slack), which is where the Table 1 formulas are exact.
const L: usize = 8;

/// A context whose full budget is [`L`] so a full-level polynomial
/// keyswitches with every digit complete (`l = l_max`), matching the
/// formulas' operating point. The context's guardrails (residue scans, hint
/// digests, budget checks) run on the measured paths and add no counted op.
fn ks_ctx() -> CkksContext {
    let params = CkksParams::builder()
        .ring_degree(64)
        .levels(L)
        .special_limbs(L)
        .limb_bits(36)
        .scale_bits(30)
        .build()
        .expect("valid params");
    CkksContext::new(params).expect("context")
}

#[test]
fn standard_keyswitch_counts_cross_validate() {
    let _g = counter_lock();
    let ctx = ks_ctx();
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let sk = ctx.keygen(&mut rng);
    let ksk = ctx.relin_keygen(&sk, KeySwitchKind::Standard, &mut rng);
    let c = ctx.rns().sample_uniform(&ctx.rns().q_basis(L), &mut rng);

    let (res, d) = measure(|| ctx.try_keyswitch(&c, &ksk));
    res.expect("standard keyswitch");

    let l = L as u64;
    let f = standard_keyswitch_ops(L);
    // Table 1's standard row counts the quadratic hint-product core
    // (`L` digits x 2 output polynomials x ~`L` limbs). The functional
    // path adds a linear fringe the asymptotic formula drops — the input's
    // INTTs, the special limb's handling, the closing ModDown — and does
    // its digit extensions through the CRB unit, which the standard row
    // does not model at all (`base_conv` is asserted on its own below).
    // Asserting the exact fringe is a far stronger check than a percentage
    // tolerance: any miscount, measured or analytic, breaks the equality.
    assert_eq!(d.ntt_total(), f.ntt + 3 * l + 2, "NTT passes");
    assert_eq!(d.mult, f.mult + 7 * l + 2, "mult passes");
    assert_eq!(d.add, f.add + 6 * l, "add passes");
    assert_eq!(d.base_conv, l * l + 2 * l, "CRB conversions");
    assert_eq!(d.rotations, 0);
    assert_eq!(d.ct_mults, 0);
}

#[test]
fn boosted_keyswitch_counts_cross_validate_digits_1_4_and_max() {
    let _g = counter_lock();
    let ctx = ks_ctx();
    let mut rng = rand::rngs::StdRng::seed_from_u64(12);
    let sk = ctx.keygen(&mut rng);
    let c = ctx.rns().sample_uniform(&ctx.rns().q_basis(L), &mut rng);

    // `L` digits is the one-limb-per-digit extreme (`alpha = 1`).
    for digits in [1usize, 4, L] {
        let ksk = ctx.relin_keygen(&sk, KeySwitchKind::Boosted { digits }, &mut rng);
        let (res, d) = measure(|| ctx.try_keyswitch(&c, &ksk));
        res.expect("boosted keyswitch");

        let l = L as u64;
        let alpha = (L / digits) as u64; // exact: digits divides L
        let f = boosted_keyswitch_ops(L, digits);
        let crb = boosted_keyswitch_crb_mult(L, digits);
        // The NTT and CRB columns are exact — no fringe at all. (The NTT
        // count is only this tight because the hoisted ModUp skips the
        // redundant extension-then-transform of each digit's own limbs.)
        assert_eq!(d.ntt_total(), f.ntt, "digits {digits}: NTT passes");
        assert_eq!(d.base_conv, crb, "digits {digits}: CRB conversions");
        // Non-CRB multiplies/adds carry a linear fringe: the fast-base-
        // conversion scaling of each source limb (l + 2*alpha across ModUp
        // and the two ModDowns), the exact-reduction correction row, and
        // the final subtraction — all O(l), none modeled by Table 1.
        assert_eq!(
            d.mult,
            (f.mult - crb) + 5 * l + 2 * alpha,
            "digits {digits}: non-CRB mult passes"
        );
        assert_eq!(
            d.add,
            (f.add - crb) + 4 * l + 2 * alpha,
            "digits {digits}: non-CRB add passes"
        );
        assert_eq!(d.rotations, 0, "digits {digits}");
        assert_eq!(d.automorph, 0, "digits {digits}");
    }
}

#[test]
fn rescale_counts_match_mul_aux_formula() {
    let _g = counter_lock();
    let ctx = ks_ctx();
    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    let sk = ctx.keygen(&mut rng);
    let scale = ctx.default_scale() * ctx.default_scale();
    let pt = ctx.encode(&[0.5, -0.25, 0.125], scale, L);
    let ct = ctx.encrypt(&pt, &sk, &mut rng);

    let (res, d) = measure(|| ctx.try_rescale(&ct));
    res.expect("rescale");

    let l = L as u64;
    // `mul_aux_ops` models one tensor + one rescale; its NTT column is
    // entirely the rescale's (the tensor is NTT-domain pointwise work), so
    // the measured rescale must reproduce it exactly: 2 INTTs of the
    // dropped limb plus 2(L-1) NTTs of the correction.
    assert_eq!(d.ntt_total(), mul_aux_ops(L).ntt, "NTT passes");
    assert_eq!(d.mult, 4 * l - 2, "mult passes");
    assert_eq!(d.add, 4 * l - 4, "add passes");
    assert_eq!(d.base_conv, 2 * (l - 1), "CRB conversions");
    assert_eq!(d.ct_mults, 0);
    assert_eq!(d.pt_mults, 0);
}

#[test]
fn mul_decomposes_into_tensor_plus_keyswitch_and_matches_formulas() {
    let _g = counter_lock();
    let ctx = ks_ctx();
    let mut rng = rand::rngs::StdRng::seed_from_u64(14);
    let sk = ctx.keygen(&mut rng);
    let digits = 4;
    let ksk = ctx.relin_keygen(&sk, KeySwitchKind::Boosted { digits }, &mut rng);
    let pt = ctx.encode(&[0.5, -0.25, 0.125], ctx.default_scale(), L);
    let ct = ctx.encrypt(&pt, &sk, &mut rng);

    // Reference: the keyswitch alone, on the same degree-2 component the
    // multiplication relinearizes.
    let (ks_res, ks) = measure(|| ctx.try_keyswitch(ct.c1(), &ksk));
    ks_res.expect("reference keyswitch");

    let (res, d) = measure(|| {
        ctx.try_rescale(&ctx.try_mul(&ct, &ct, &ksk)?)
    });
    res.expect("mul + rescale");

    let l = L as u64;
    // mult = tensor (4L) + keyswitch + rescale; add = tensor combines (3L)
    // + keyswitch + rescale.
    assert_eq!(d.mult, ks.mult + 4 * l + (4 * l - 2), "mult passes");
    assert_eq!(d.add, ks.add + 3 * l + (4 * l - 4), "add passes");
    // NTT passes: exactly the formulas' keyswitch + aux totals — the
    // acceptance identity for one full homomorphic multiplication.
    assert_eq!(
        d.ntt_total(),
        boosted_keyswitch_ops(L, digits).ntt + mul_aux_ops(L).ntt,
        "NTT passes of mul+rescale"
    );
    assert_eq!(
        d.base_conv,
        boosted_keyswitch_crb_mult(L, digits) + 2 * (l - 1),
        "CRB conversions of mul+rescale"
    );
    assert_eq!(d.ct_mults, 1);
    assert_eq!(d.rotations, 0);
}

#[test]
fn mul_plain_acc_counts_match_mul_plain_then_add() {
    let _g = counter_lock();
    let ctx = ks_ctx();
    let mut rng = rand::rngs::StdRng::seed_from_u64(15);
    let sk = ctx.keygen(&mut rng);
    let scale = ctx.default_scale();
    let a = ctx.encrypt(&ctx.encode(&[0.5, -0.25], scale, L), &sk, &mut rng);
    let w = ctx.encode(&[1.5, 0.75], scale, L);
    let acc = ctx
        .try_mul_plain(&a, &ctx.encode(&[-2.0, 0.5], scale, L))
        .expect("mul_plain");

    let (want, reference) = measure(|| ctx.try_add(&acc, &ctx.try_mul_plain(&a, &w)?));
    let (got, fused) = measure(|| {
        let mut sum = acc.clone();
        ctx.try_mul_plain_acc(&mut sum, &a, &w).map(|()| sum)
    });
    assert_eq!(got.expect("fused"), want.expect("reference"));
    // The fused pass is one multiply and one add per limb of each
    // polynomial, exactly what the product and the sum count.
    assert_eq!(fused, reference);
    let l = L as u64;
    assert_eq!((fused.mult, fused.add, fused.pt_mults), (2 * l, 2 * l, 1));
}

#[test]
fn bootstrap_counts_match_stage_diagonals_exactly() {
    let _g = counter_lock();
    let params = CkksParams::builder()
        .ring_degree(64)
        .levels(20)
        .special_limbs(20)
        .limb_bits(45)
        .scale_bits(45)
        .build()
        .expect("valid params");
    let ctx = CkksContext::new(params)
        .expect("context")
        .with_policy(GuardrailPolicy::Strict {
            min_budget_bits: -5000.0,
        });
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xB007);
    let sk = ctx.keygen_sparse(8, &mut rng);
    let booter = Bootstrapper::new(&ctx, 8);
    let keys = booter.keygen(&ctx, &sk, KeySwitchKind::Boosted { digits: 1 }, &mut rng);
    let pt = ctx.encode(&[0.4, -0.3, 0.2], ctx.default_scale(), 1);
    let ct = ctx.encrypt(&pt, &sk, &mut rng);

    let (res, d) = measure(|| booter.try_bootstrap(&ctx, &ct, &keys));
    res.expect("bootstrap");

    // Each transform is two radix stages of the special FFT — the coarse
    // and the fine half of its butterfly levels — and a BSGS stage costs
    // one plaintext multiply per diagonal and one rotation per nonzero
    // baby offset and giant step. The diagonals are read densely off the
    // FFT's own stage-range butterflies, independently of how the library
    // composes them, and the bootstrapper's stage table must hold the same
    // diagonal counts and key steps.
    let (mut stage_rotations, mut stage_pt_muls) = (0u64, 0u64);
    let derived = common::fft_stage_diagonals(ctx.params().slots());
    for (diags, stage) in derived.iter().zip(booter.stages()) {
        let steps = PrecomputedTransform::new(&ctx, diags, 2).required_steps();
        assert_eq!(stage.diagonals().len(), diags.len(), "stage diagonals");
        assert_eq!(stage.required_steps(), steps, "stage key steps");
        stage_pt_muls += diags.len() as u64;
        stage_rotations += steps.len() as u64;
    }
    // EvalMod runs twice (real and imaginary halves), each with 6 ct-muls
    // for the degree-7 Taylor power basis plus `r` double-angle squarings,
    // 7 Taylor-coefficient plaintext muls and one closing 1/(2π) mul, and
    // one conjugation. The split adds one more conjugation; it and the
    // recombine multiply by i exactly, with no plaintext.
    let r = u64::from(booter.r());
    assert_eq!(d.rotations, stage_rotations + 3, "rotations");
    assert_eq!(d.pt_mults, stage_pt_muls + 2 * 8, "pt muls");
    assert_eq!(d.ct_mults, 2 * (6 + r), "ct muls");
    // At 32 slots: stages of 8, 7, 7 and 8 diagonals, four rotations each.
    assert_eq!((stage_pt_muls, stage_rotations), (30, 16));
    // The low-level counters must have moved too — a bootstrap is mostly
    // keyswitch traffic.
    assert!(d.ntt_total() > 0 && d.base_conv > 0 && d.automorph > 0);
}

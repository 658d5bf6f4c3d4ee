//! Workspace-level integration tests for the fallible evaluation API,
//! the runtime guardrail policies, and the fault-injection harness —
//! exercised through the public `cl-ckks` surface (with the `faults`
//! feature) exactly as an external consumer would.

use cl_ckks::bgv::BgvContext;
use cl_ckks::{
    faults, CkksContext, CkksParams, FheError, FheResult, GuardrailPolicy, KeySwitchKey,
    KeySwitchKind, SecretKey,
};
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

    // The pristine pipeline still passes under Strict.
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
        let before = faults::digests_computed();
        apply(entry, key).unwrap_or_else(|e| panic!("{entry}: clean hint rejected: {e}"));
        assert_eq!(
            faults::digests_computed() - before,
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

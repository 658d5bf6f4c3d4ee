//! Differential tests for the parallel limb-level execution engine and the
//! lazy-reduction NTT kernels.
//!
//! The performance paths introduced alongside the execution engine must be
//! *bit-exact* with their reference counterparts:
//!
//! - every `RnsContext` operation dispatched over the worker pool must
//!   produce byte-identical polynomials at any thread count (limb-level work
//!   is data-independent, so scheduling cannot change results),
//! - the lazy `[0,4q)` Harvey butterflies must match the strict
//!   always-canonical kernels exactly after the final correction sweep,
//! - a full encrypt → mul → rotate → rescale → decrypt pipeline must be
//!   deterministic across thread settings (given a fixed RNG seed),
//! - lazily materialized keyswitch hints (compact seed + k0 form, k1
//!   regenerated on demand) must be bit-identical to eager generation on
//!   every backend and thread count, including under hint-cache eviction
//!   and re-expansion mid-pipeline,
//! - a bootstrapper shared by two parameter sets must refresh each one
//!   exactly as a bootstrapper of its own does.
//!
//! Thread count, backend selection and the `cl-trace` op counters are all
//! process-global, so every test in this binary holds [`THREADS`] for its
//! whole body — set-up included: a keygen or NTT running beside
//! `op_counters_are_thread_invariant` would leak into its measured delta.

use std::sync::{Mutex, MutexGuard};

use cl_boot::{try_bsgs_transform, BootstrapKeys, Bootstrapper, PrecomputedTransform};
use cl_ckks::{Ciphertext, CkksContext, CkksParams, KeySwitchKey, KeySwitchKind};
use cl_math::{set_active_backend, supported_backends, BackendKind, Complex, NttTable};
use cl_rns::{Basis, RnsContext, RnsPoly};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// Guards the process-global state (see the module docs) for the length of
/// one test. Poisoning is irrelevant — the guard only sequences tests.
static THREADS: Mutex<()> = Mutex::new(());

/// Proof that the caller's test holds [`THREADS`].
type Held = MutexGuard<'static, ()>;

/// Taken first thing in every test body, before any set-up.
fn hold_threads() -> Held {
    THREADS.lock().unwrap_or_else(|p| p.into_inner())
}

/// Runs `f` once with 1 thread and once with `n` threads, returning both
/// results, with the global thread count restored to 1 afterwards.
fn serial_vs_parallel<R>(_held: &Held, n: usize, mut f: impl FnMut() -> R) -> (R, R) {
    rayon::set_num_threads(1);
    let serial = f();
    rayon::set_num_threads(n);
    let parallel = f();
    rayon::set_num_threads(1);
    (serial, parallel)
}

/// Contexts at a few degrees; NTT tables are shared via the process-wide
/// `(n, q)` cache, so regenerating per test case is cheap.
fn rns_ctx(n: usize) -> RnsContext {
    RnsContext::generate(n, 6, 3, 36).expect("test context")
}

/// An arbitrary but deterministic polynomial over `basis`.
fn poly_from_seed(ctx: &RnsContext, basis: &Basis, seed: u64) -> RnsPoly {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    ctx.sample_uniform(basis, &mut rng)
}

/// One step of an RNS op sequence, chosen by a small opcode. Both operands
/// stay in NTT form throughout ([`RnsContext::sample_uniform`] yields NTT
/// form); opcode 5 roundtrips through the coefficient domain.
fn apply_op(ctx: &RnsContext, acc: &mut RnsPoly, other: &RnsPoly, op: u8) {
    match op % 6 {
        0 => ctx.add_assign(acc, other),
        1 => ctx.sub_assign(acc, other),
        2 => ctx.neg_assign(acc),
        3 => ctx.mul_assign(acc, other),
        4 => ctx.scalar_mul_assign(acc, 0x1234_5678_9abc),
        _ => {
            ctx.from_ntt(acc);
            ctx.to_ntt(acc);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any sequence of RNS ops, over random degrees and bases, is
    /// bit-identical at 1 vs 4 threads.
    #[test]
    fn rns_op_sequence_thread_invariant(
        seed in any::<u64>(),
        n_log in 5u32..9,
        limbs in 1usize..7,
        ops in proptest::collection::vec(0u8..6, 1..12),
    ) {
        let held = hold_threads();
        let ctx = rns_ctx(1 << n_log);
        let basis = ctx.q_basis(limbs);
        let (serial, parallel) = serial_vs_parallel(&held, 4, || {
            let mut acc = poly_from_seed(&ctx, &basis, seed);
            let other = poly_from_seed(&ctx, &basis, seed ^ 0xdead_beef);
            for &op in &ops {
                apply_op(&ctx, &mut acc, &other, op);
            }
            acc
        });
        prop_assert_eq!(serial, parallel);
    }

    /// Lazy-reduction NTT kernels match the strict reference kernels
    /// bit-for-bit at production-like shapes.
    #[test]
    fn lazy_ntt_matches_strict_large(seed in any::<u64>()) {
        let _held = hold_threads();
        for n in [1usize << 10, 1 << 12] {
            let q = cl_math::generate_ntt_primes(n, 59, 1).expect("59-bit prime")[0];
            let table = NttTable::cached(n, q).expect("NTT-friendly prime");
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let data: Vec<u64> = (0..n).map(|_| rand::Rng::gen_range(&mut rng, 0..q)).collect();

            let mut lazy = data.clone();
            let mut strict = data.clone();
            table.forward(&mut lazy);
            table.forward_strict(&mut strict);
            prop_assert_eq!(&lazy, &strict, "forward mismatch at n={}", n);

            table.inverse(&mut lazy);
            table.inverse_strict(&mut strict);
            prop_assert_eq!(&lazy, &strict, "inverse mismatch at n={}", n);
            prop_assert_eq!(&lazy, &data, "roundtrip mismatch at n={}", n);
        }
    }
}

/// A small CKKS context for the hoisting/BSGS differential tests.
fn hoist_ctx() -> CkksContext {
    ctx_with_limb_bits(36)
}

/// [`hoist_ctx`] at another limb width.
fn ctx_with_limb_bits(bits: u32) -> CkksContext {
    let params = CkksParams::builder()
        .ring_degree(128)
        .levels(4)
        .special_limbs(4)
        .limb_bits(bits)
        .scale_bits(30)
        .build()
        .expect("valid params");
    CkksContext::new(params).expect("context")
}

/// The limb widths of the backend × thread matrix's keyswitch and
/// bootstrap-step cases: the suite's usual 36 bits, and the 45 bits every
/// end-to-end workload runs (on an AVX-512 IFMA host, the width where
/// every slice product takes the 52-bit multipliers).
const MATRIX_LIMB_BITS: [u32; 2] = [36, 45];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `try_rotate_hoisted_many` (one shared ModUp) is *bit-identical* to
    /// the naive one-keyswitch-per-rotation path — ciphertext polynomials
    /// and analytic noise estimates — across random steps, levels, digit
    /// counts and thread counts.
    #[test]
    fn hoisted_rotations_match_naive(
        seed in any::<u64>(),
        level in 2usize..5,
        digits in 1usize..3,
        raw_steps in proptest::collection::vec(-8i64..9, 1..5),
    ) {
        let held = hold_threads();
        // Map the raw draws to nonzero rotation steps (0 needs no key).
        let steps: Vec<i64> = raw_steps.iter().map(|&s| if s == 0 { 1 } else { s }).collect();
        let run = || {
            let ctx = hoist_ctx();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let sk = ctx.keygen(&mut rng);
            let kind = KeySwitchKind::Boosted { digits };
            let keys: Vec<KeySwitchKey> = steps
                .iter()
                .map(|&s| ctx.rotation_keygen(&sk, s, kind, &mut rng))
                .collect();
            let vals: Vec<f64> = (0..64).map(|i| ((i * 13 % 29) as f64) / 29.0 - 0.5).collect();
            let pt = ctx.encode(&vals, ctx.default_scale(), level);
            let ct = ctx.encrypt(&pt, &sk, &mut rng);
            let key_refs: Vec<&KeySwitchKey> = keys.iter().collect();
            let hoisted = ctx
                .try_rotate_hoisted_many(&ct, &steps, &key_refs)
                .expect("hoisted rotations");
            let naive: Vec<Ciphertext> = steps
                .iter()
                .zip(&keys)
                .map(|(&s, k)| ctx.try_rotate(&ct, s, k).expect("naive rotation"))
                .collect();
            (hoisted, naive)
        };
        let ((h_s, n_s), (h_p, n_p)) = serial_vs_parallel(&held, 4, run);
        for i in 0..steps.len() {
            prop_assert_eq!(h_s[i].c0(), n_s[i].c0(), "hoisted c0 != naive c0 at step {}", steps[i]);
            prop_assert_eq!(h_s[i].c1(), n_s[i].c1(), "hoisted c1 != naive c1 at step {}", steps[i]);
            prop_assert_eq!(
                h_s[i].noise_estimate_bits().to_bits(),
                n_s[i].noise_estimate_bits().to_bits(),
                "noise estimates must be identical at step {}", steps[i]
            );
            // Thread invariance of both paths.
            prop_assert_eq!(h_s[i].c0(), h_p[i].c0());
            prop_assert_eq!(h_s[i].c1(), h_p[i].c1());
            prop_assert_eq!(n_s[i].c0(), n_p[i].c0());
        }
    }

    /// The double-hoisted BSGS linear transform computes the same map as
    /// the naive per-diagonal rotate-multiply-accumulate, on random sparse
    /// matrices — strided, negative and wrapping offsets included, the
    /// shapes of the bootstrap's radix stages — and is thread-invariant.
    #[test]
    fn bsgs_transform_matches_naive_diagonal_sum(
        seed in any::<u64>(),
        stride_log in 0u32..5,
        raw_idx in proptest::collection::vec(-16i64..16, 1..6),
    ) {
        let held = hold_threads();
        let mut diag_idx: Vec<i64> = raw_idx.iter().map(|&k| k << stride_log).collect();
        diag_idx.sort_unstable();
        diag_idx.dedup();
        let level = 3usize;
        let run = || {
            let ctx = hoist_ctx();
            let m = ctx.params().slots();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let sk = ctx.keygen(&mut rng);
            let diags: Vec<(i64, Vec<Complex>)> = diag_idx
                .iter()
                .map(|&d| {
                    let v: Vec<Complex> = (0..m)
                        .map(|_| Complex::new(rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5)))
                        .collect();
                    (d, v)
                })
                .collect();
            let pre = PrecomputedTransform::new(&ctx, &diags, level);
            // The BSGS path needs baby/giant keys; the naive reference
            // needs one key per diagonal. Generate the union.
            let mut steps = pre.required_steps();
            steps.extend(diags.iter().map(|(d, _)| *d));
            let keys = BootstrapKeys::generate(
                &ctx, &sk, KeySwitchKind::Boosted { digits: 1 }, &steps, &mut rng);
            let vals: Vec<Complex> = (0..m)
                .map(|_| Complex::new(rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5)))
                .collect();
            let pt = ctx.encode_complex(&vals, ctx.default_scale(), level);
            let ct = ctx.encrypt(&pt, &sk, &mut rng);

            let bsgs = try_bsgs_transform(&ctx, &ct, &pre, &keys).expect("bsgs transform");

            // Naive reference: Σ_d diag_d ⊙ rot_d(ct), then rescale.
            let pt_scale = ctx.rns().modulus_value((level - 1) as u32) as f64;
            let mut acc: Option<Ciphertext> = None;
            for (d, diag) in &diags {
                let rotated = if d.rem_euclid(m as i64) == 0 {
                    ct.clone()
                } else {
                    ctx.try_rotate(&ct, *d, keys.try_rot_key(&ctx, *d).expect("diag key").as_ref())
                        .expect("naive rotation")
                };
                let ptd = ctx.encode_complex(diag, pt_scale, level);
                let term = ctx.try_mul_plain(&rotated, &ptd).expect("mul_plain");
                acc = Some(match acc {
                    None => term,
                    Some(a) => ctx.try_add(&a, &term).expect("add"),
                });
            }
            let naive = ctx.try_rescale(&acc.expect("nonempty diags")).expect("rescale");

            // Plaintext reference: out[t] = Σ_d diag_d[t] · v[(t+d) mod m].
            let expect: Vec<Complex> = (0..m)
                .map(|t| {
                    diags.iter().fold(Complex::default(), |s, (d, diag)| {
                        s + diag[t] * vals[(t as i64 + d).rem_euclid(m as i64) as usize]
                    })
                })
                .collect();
            let got_bsgs = ctx.decode_complex(&ctx.decrypt(&bsgs, &sk), m);
            let got_naive = ctx.decode_complex(&ctx.decrypt(&naive, &sk), m);
            (bsgs, got_bsgs, got_naive, expect)
        };
        let ((ct_s, bsgs_s, naive_s, expect), (ct_p, _, _, _)) = serial_vs_parallel(&held, 4, run);
        assert_eq!(ct_s.c0(), ct_p.c0(), "BSGS output differs across thread counts");
        assert_eq!(ct_s.c1(), ct_p.c1(), "BSGS output differs across thread counts");
        for t in 0..expect.len() {
            prop_assert!(
                (bsgs_s[t] - naive_s[t]).abs() < 1e-2,
                "BSGS vs naive mismatch at slot {}: {:?} vs {:?}", t, bsgs_s[t], naive_s[t]
            );
            prop_assert!(
                (bsgs_s[t] - expect[t]).abs() < 1e-2,
                "BSGS vs plaintext reference mismatch at slot {}: {:?} vs {:?}",
                t, bsgs_s[t], expect[t]
            );
        }
    }
}

/// Full CKKS pipeline (encrypt → mul → rotate → rescale → decrypt) produces
/// byte-identical ciphertexts and identical decodes at 1 vs 4 threads.
#[test]
fn ckks_pipeline_thread_invariant() {
    let held = hold_threads();
    let run = || {
        let params = CkksParams::builder()
            .ring_degree(256)
            .levels(4)
            .special_limbs(4)
            .limb_bits(36)
            .scale_bits(30)
            .build()
            .expect("valid params");
        let ctx = CkksContext::new(params).expect("context");
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0FFEE);
        let sk = ctx.keygen(&mut rng);
        let relin = ctx.relin_keygen(&sk, KeySwitchKind::Boosted { digits: 2 }, &mut rng);
        let rot = ctx.rotation_keygen(&sk, 1, KeySwitchKind::Boosted { digits: 2 }, &mut rng);

        let vals: Vec<f64> = (0..8).map(|i| (i as f64) * 0.25 - 1.0).collect();
        let pt = ctx.encode(&vals, ctx.default_scale(), ctx.max_level());
        let ct = ctx.encrypt(&pt, &sk, &mut rng);
        let prod = ctx.try_mul(&ct, &ct, &relin).unwrap();
        let rotated = ctx.try_rotate(&prod, 1, &rot).unwrap();
        let rescaled = ctx.try_rescale(&rotated).unwrap();
        let decoded = ctx.decode(&ctx.decrypt(&rescaled, &sk), vals.len());
        (rescaled, decoded)
    };
    let ((ct_s, dec_s), (ct_p, dec_p)) = serial_vs_parallel(&held, 4, run);
    assert_eq!(ct_s.c0(), ct_p.c0(), "c0 differs across thread counts");
    assert_eq!(ct_s.c1(), ct_p.c1(), "c1 differs across thread counts");
    assert_eq!(dec_s, dec_p, "decoded values differ across thread counts");
}

/// The op-level telemetry totals are bit-identical at any thread count:
/// every counted pass is data-independent limb work dispatched over the
/// worker pool, so scheduling changes the interleaving but never the
/// counts. (Relies on every test in this binary doing all of its work
/// under the [`THREADS`] lock.)
#[test]
fn op_counters_are_thread_invariant() {
    let held = hold_threads();
    let run = || {
        let ctx = hoist_ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x7AC3);
        let sk = ctx.keygen(&mut rng);
        let kind = KeySwitchKind::Boosted { digits: 2 };
        let relin = ctx.relin_keygen(&sk, kind, &mut rng);
        let rot = ctx.rotation_keygen(&sk, 3, kind, &mut rng);
        let pt = ctx.encode(&[0.5, -0.25, 0.125], ctx.default_scale(), ctx.max_level());
        let ct = ctx.encrypt(&pt, &sk, &mut rng);
        // Measure only the fixed homomorphic workload, not the setup.
        let before = cl_trace::OpSnapshot::capture();
        let prod = ctx.try_mul(&ct, &ct, &relin).expect("mul");
        let rescaled = ctx.try_rescale(&prod).expect("rescale");
        let _ = ctx.try_rotate(&rescaled, 3, &rot).expect("rotate");
        cl_trace::OpSnapshot::capture().delta_since(&before)
    };
    let (serial, parallel) = serial_vs_parallel(&held, 4, run);
    assert_eq!(
        serial, parallel,
        "op counters must not depend on the thread count"
    );
    if cl_trace::enabled() {
        assert!(!serial.is_zero(), "the workload must have been counted");
        assert!(serial.ntt + serial.intt > 0);
        assert!(serial.mult > 0 && serial.add > 0 && serial.base_conv > 0);
        assert_eq!(serial.ct_mults, 1);
        assert_eq!(serial.rotations, 1);
    }
}

/// Runs `f` once with the scalar backend at 1 thread (the reference), then
/// re-runs it under every supported SIMD backend at 1 and 4 threads,
/// asserting every result is bit-identical to the reference.
///
/// Backend selection is process-global like the thread count, so the whole
/// matrix runs under the caller's [`THREADS`] hold and restores the default
/// backend before returning.
fn assert_backend_invariant<R: PartialEq + std::fmt::Debug>(_held: &Held, f: impl Fn() -> R) {
    let supported = supported_backends();
    set_active_backend(BackendKind::Scalar).expect("scalar is always supported");
    rayon::set_num_threads(1);
    let reference = f();
    for &kind in &supported {
        for threads in [1usize, 4] {
            set_active_backend(kind).expect("listed backend must be supported");
            rayon::set_num_threads(threads);
            let got = f();
            assert_eq!(
                got, reference,
                "backend {kind} at {threads} threads diverged from the scalar serial reference"
            );
        }
    }
    rayon::set_num_threads(1);
    set_active_backend(supported[0]).expect("default backend must be supported");
}

/// NTT forward / inverse outputs are bit-identical on every backend, at
/// both a 50-bit modulus (exercising the AVX-512 IFMA 52-bit path) and a
/// 59-bit modulus (the generic vector path), across thread counts.
#[test]
fn ntt_roundtrip_backend_invariant() {
    let held = hold_threads();
    for (n, bits) in [(1usize << 10, 50u32), (1 << 13, 50), (1 << 12, 59)] {
        let q = cl_math::generate_ntt_primes(n, bits, 1).expect("prime")[0];
        let table = NttTable::cached(n, q).expect("NTT-friendly prime");
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xBACC ^ n as u64);
        let data: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        assert_backend_invariant(&held, || {
            let mut fwd = data.clone();
            table.forward(&mut fwd);
            let mut inv = fwd.clone();
            table.inverse(&mut inv);
            assert_eq!(inv, data, "roundtrip must recover the input");
            fwd
        });
    }
}

/// A keyswitch (ModUp, digit inner product over the gather/mul-acc kernels,
/// ModDown) lands on identical polynomials on every backend and thread
/// count, at each of [`MATRIX_LIMB_BITS`].
#[test]
fn keyswitch_backend_invariant() {
    let held = hold_threads();
    for bits in MATRIX_LIMB_BITS {
        let params = CkksParams::builder()
            .ring_degree(128)
            .levels(4)
            .special_limbs(2)
            .limb_bits(bits)
            .scale_bits(30)
            .build()
            .expect("valid params");
        let ctx = CkksContext::new(params).expect("context");
        let rns = ctx.rns();
        let mut rng = rand::rngs::StdRng::seed_from_u64(43);
        let sk = ctx.keygen(&mut rng);
        let ksk = ctx.relin_keygen(&sk, KeySwitchKind::Boosted { digits: 2 }, &mut rng);
        let qb = rns.q_basis(3);
        let signed: Vec<i64> = (0..128).map(|i| (i % 31) - 15).collect();
        let mut msg = rns.from_signed_coeffs(&signed, &qb);
        rns.to_ntt(&mut msg);
        assert_backend_invariant(&held, || ctx.try_keyswitch(&msg, &ksk).expect("keyswitch"));
    }
}

/// One bootstrap step (EvalMod square + rescale) is bit-identical across
/// backends and thread counts, at each of [`MATRIX_LIMB_BITS`], and its
/// op-level telemetry counts are backend-invariant (counters are recorded
/// above the dispatch layer).
#[test]
fn bootstrap_step_backend_invariant() {
    let held = hold_threads();
    for bits in MATRIX_LIMB_BITS {
        let ctx = ctx_with_limb_bits(bits);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xB007);
        let sk = ctx.keygen(&mut rng);
        let relin = ctx.relin_keygen(&sk, KeySwitchKind::Boosted { digits: 2 }, &mut rng);
        let pt = ctx.encode(&[0.5, -0.25, 0.125, 0.375], ctx.default_scale(), ctx.max_level());
        let ct = ctx.encrypt(&pt, &sk, &mut rng);
        assert_backend_invariant(&held, || {
            let before = cl_trace::OpSnapshot::capture();
            let stepped = ctx
                .try_rescale(&ctx.try_mul(&ct, &ct, &relin).expect("square"))
                .expect("rescale");
            let ops = cl_trace::OpSnapshot::capture().delta_since(&before);
            (stepped.c0().clone(), stepped.c1().clone(), ops)
        });
    }
}

/// One bootstrapper shared by two contexts with the same ring degree and
/// level count but different moduli (a server tenant registers an
/// `Arc<Bootstrapper>`, which may serve several contexts) refreshes each
/// context's ciphertext bit-identically to a bootstrapper of its own: the
/// cached transform plaintexts are keyed by the params fingerprint.
#[test]
fn shared_bootstrapper_matches_per_context_bootstrapper() {
    let _held = hold_threads();
    let boot_ctx = |bits: u32| {
        let params = CkksParams::builder()
            .ring_degree(64)
            .levels(20)
            .special_limbs(20)
            .limb_bits(bits)
            .scale_bits(bits)
            .build()
            .expect("valid params");
        CkksContext::new(params).expect("context")
    };
    let (a, b) = (boot_ctx(45), boot_ctx(46));
    assert_ne!(a.params_fingerprint(), b.params_fingerprint());
    let shared = Bootstrapper::new(&a, 8);
    let mut rng = rand::rngs::StdRng::seed_from_u64(29);
    for ctx in [&a, &b] {
        let sk = ctx.keygen_sparse(8, &mut rng);
        let keys = shared.keygen(ctx, &sk, KeySwitchKind::Boosted { digits: 1 }, &mut rng);
        let pt = ctx.encode(&vec![0.25; ctx.params().slots()], ctx.default_scale(), 1);
        let ct = ctx.encrypt(&pt, &sk, &mut rng);
        let own = Bootstrapper::new(ctx, 8)
            .try_bootstrap(ctx, &ct, &keys)
            .expect("per-context bootstrap");
        let got = shared.try_bootstrap(ctx, &ct, &keys).expect("shared bootstrap");
        assert!(got == own, "a shared bootstrapper must refresh like a per-context one");
    }
    assert_eq!(shared.precompute().len(), 8, "four stage levels per context");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Lazily materialized keyswitch hints are bit-identical to eager
    /// generation: expanding a compact (seed + k0) key regenerates the same
    /// k1 halves the original keygen drew (enforced by the end-to-end
    /// digest), and keyswitching with the lazy key produces byte-identical
    /// ciphertext polynomials — across random levels, digit layouts, every
    /// supported backend, and 1 vs 4 threads.
    #[test]
    fn lazy_hint_expansion_matches_eager(
        seed in any::<u64>(),
        level in 2usize..5,
        digits in 1usize..4,
    ) {
        let held = hold_threads();
        let ctx = hoist_ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let sk = ctx.keygen(&mut rng);
        // Cover Standard (one digit per limb) alongside the boosted layouts.
        let kind = if digits == 3 {
            KeySwitchKind::Standard
        } else {
            KeySwitchKind::Boosted { digits }
        };
        let eager = ctx.relin_keygen(&sk, kind, &mut rng);
        let compact = eager.to_compact();
        let qb = ctx.rns().q_basis(level);
        let signed: Vec<i64> = (0..128).map(|i| (i % 29) - 14).collect();
        let mut msg = ctx.rns().from_signed_coeffs(&signed, &qb);
        ctx.rns().to_ntt(&mut msg);
        assert_backend_invariant(&held, || {
            let lazy = compact.expand(&ctx).expect("lazy hint expansion");
            assert!(lazy.verify_integrity(), "regenerated hint digest must match");
            let from_eager = ctx.try_keyswitch(&msg, &eager).expect("eager keyswitch");
            let from_lazy = ctx.try_keyswitch(&msg, &lazy).expect("lazy keyswitch");
            assert_eq!(
                from_eager, from_lazy,
                "lazy hint must keyswitch identically to the eager key"
            );
            from_eager
        });
    }
}

/// The exact multiply-by-i (a multiply by the NTT image of `X^{N/2}`) lands
/// on identical polynomials on every backend and thread count, and twice
/// is negation.
#[test]
fn mul_by_i_backend_invariant() {
    let held = hold_threads();
    let ctx = hoist_ctx();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xA1);
    let sk = ctx.keygen(&mut rng);
    let vals: Vec<Complex> = (0..64)
        .map(|i| Complex::new((i as f64 * 0.3).sin(), (i as f64 * 0.7).cos()))
        .collect();
    let ct = ctx.encrypt(&ctx.encode_complex(&vals, ctx.default_scale(), 3), &sk, &mut rng);
    assert_backend_invariant(&held, || {
        let once = ctx.try_mul_by_i(&ct).expect("mul_by_i");
        let twice = ctx.try_mul_by_i(&once).expect("mul_by_i");
        assert_eq!(twice, ctx.try_neg_ct(&ct).expect("neg"), "i·i must be −1");
        once
    });
}

/// Mid-pipeline hint-cache eviction and re-expansion is invisible to the
/// computation: the BSGS transform through a 1-byte hint cache (a hint is
/// evicted and lazily regenerated at nearly every fetch) matches the
/// roomy-cache run bit-for-bit on every backend and thread count.
#[test]
fn hint_cache_thrash_backend_invariant() {
    let held = hold_threads();
    use std::sync::Arc;

    use cl_ckks::HintCache;

    let diag_idx: Vec<i64> = vec![0, 1, 3, 9];
    let level = 3usize;
    let run_with_capacity = |capacity: usize| {
        let ctx = hoist_ctx();
        let m = ctx.params().slots();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x1A2B);
        let sk = ctx.keygen(&mut rng);
        let diags: Vec<(i64, Vec<Complex>)> = diag_idx
            .iter()
            .map(|&d| {
                let v: Vec<Complex> = (0..m)
                    .map(|_| Complex::new(rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5)))
                    .collect();
                (d, v)
            })
            .collect();
        let pre = PrecomputedTransform::new(&ctx, &diags, level);
        let cache = Arc::new(HintCache::new(capacity));
        let keys = BootstrapKeys::generate(
            &ctx,
            &sk,
            KeySwitchKind::Boosted { digits: 1 },
            &pre.required_steps(),
            &mut rng,
        )
        .with_cache(Arc::clone(&cache));
        let vals: Vec<Complex> = (0..m)
            .map(|_| Complex::new(rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5)))
            .collect();
        let pt = ctx.encode_complex(&vals, ctx.default_scale(), level);
        let ct = ctx.encrypt(&pt, &sk, &mut rng);
        let out = try_bsgs_transform(&ctx, &ct, &pre, &keys).expect("bsgs transform");
        (out, cache.stats())
    };
    assert_backend_invariant(&held, || {
        let (roomy, roomy_stats) = run_with_capacity(usize::MAX);
        let (tight, tight_stats) = run_with_capacity(1);
        assert_eq!(roomy_stats.evictions, 0, "roomy cache must never evict");
        assert!(tight_stats.evictions > 0, "tight cache must evict mid-pipeline");
        assert_eq!(
            roomy.c0(),
            tight.c0(),
            "eviction + re-expansion must be bit-invisible"
        );
        assert_eq!(roomy.c1(), tight.c1());
        (roomy.c0().clone(), roomy.c1().clone())
    });
}

/// The keyswitch digit loop (parallel ModUp + superset accumulate) is
/// thread-invariant even below the key's max level, where the hint basis is
/// a strict superset of the target basis.
#[test]
fn keyswitch_below_max_level_thread_invariant() {
    let held = hold_threads();
    let run = || {
        let params = CkksParams::builder()
            .ring_degree(128)
            .levels(4)
            .special_limbs(2)
            .limb_bits(36)
            .scale_bits(30)
            .build()
            .expect("valid params");
        let ctx = CkksContext::new(params).expect("context");
        let rns = ctx.rns();
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let sk = ctx.keygen(&mut rng);
        let ksk = ctx.relin_keygen(&sk, KeySwitchKind::Boosted { digits: 2 }, &mut rng);
        let qb = rns.q_basis(2); // below max level 4
        let signed: Vec<i64> = (0..128).map(|i| (i % 23) - 11).collect();
        let mut msg = rns.from_signed_coeffs(&signed, &qb);
        rns.to_ntt(&mut msg);
        ctx.try_keyswitch(&msg, &ksk).expect("keyswitch")
    };
    let (serial, parallel) = serial_vs_parallel(&held, 4, run);
    assert_eq!(serial, parallel);
}

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
//!   exactly as a bootstrapper of its own does,
//! - where the worker pool fans out — limb loops above its grain
//!   (`cl_rns::PAR_GRAIN_WORDS`), and independent operations: hoisted
//!   steps, BSGS inner sums, EvalMod's power tree, a rotate-sum's two
//!   half-sums — results, noise estimates, trace counts and the first
//!   error are the serial run's,
//! - a compiled BSGS layer, and a three-layer MLP, whose giant groups the
//!   executor runs side by side as waves (each group's inner sum a fused
//!   step) compute the graph's node-by-node evaluation bit for bit, with
//!   the op-by-op run's counts, `ops_executed` and live peak.
//!
//! Thread count and backend selection are process-global, so every test
//! in this binary holds [`THREADS`] for its whole body. The `cl-trace` op
//! counters are not: each thread counts its own work, its pool tasks
//! included.

use std::sync::{Barrier, Mutex, MutexGuard};
use std::thread;

use cl_apps::{lola_layer_runnable, lola_mlp_runnable, DenseLayer, RunnableWorkload};
use cl_boot::{try_bsgs_transform, BootState, BootstrapKeys, Bootstrapper, PrecomputedTransform};
use cl_ckks::{
    faults, Ciphertext, CkksContext, CkksParams, FheResult, GuardrailPolicy, KeySwitchKey,
    KeySwitchKind,
};
use cl_compiler::{lower_to_program, predict_program, LowerOptions};
use cl_isa::{HeOp, NodeId};
use cl_math::{set_active_backend, supported_backends, BackendKind, Complex, NttTable};
use cl_rns::{Basis, RnsContext, RnsPoly, PAR_GRAIN_WORDS};
use cl_runtime::{ExecutorConfig, PipelineExecutor, PreparedProgram, RunOutcome};
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
/// counts. And a capture is its own thread's: two threads running the
/// pipeline at once, sharing the pool, each count the serial run's work.
#[test]
fn op_counters_are_thread_invariant() {
    let held = hold_threads();
    // `ready` runs after set-up, just before the measured workload.
    let run = |ready: &dyn Fn()| {
        let ctx = hoist_ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x7AC3);
        let sk = ctx.keygen(&mut rng);
        let kind = KeySwitchKind::Boosted { digits: 2 };
        let relin = ctx.relin_keygen(&sk, kind, &mut rng);
        let rot = ctx.rotation_keygen(&sk, 3, kind, &mut rng);
        let pt = ctx.encode(&[0.5, -0.25, 0.125], ctx.default_scale(), ctx.max_level());
        let ct = ctx.encrypt(&pt, &sk, &mut rng);
        ready();
        // Measure only the fixed homomorphic workload, not the setup.
        let before = cl_trace::OpSnapshot::capture();
        let prod = ctx.try_mul(&ct, &ct, &relin).expect("mul");
        let rescaled = ctx.try_rescale(&prod).expect("rescale");
        let _ = ctx.try_rotate(&rescaled, 3, &rot).expect("rotate");
        cl_trace::OpSnapshot::capture().delta_since(&before)
    };
    let (serial, parallel) = serial_vs_parallel(&held, 4, || run(&|| ()));
    assert_eq!(
        serial, parallel,
        "op counters must not depend on the thread count"
    );
    rayon::set_num_threads(2);
    let both_set_up = Barrier::new(2);
    let wait = || drop(both_set_up.wait());
    let concurrent = thread::scope(|s| {
        let pipelines = [(); 2].map(|()| s.spawn(|| run(&wait)));
        pipelines.map(|p| p.join().expect("pipeline thread finishes"))
    });
    rayon::set_num_threads(1);
    assert_eq!(
        concurrent,
        [serial; 2],
        "each thread's counts must be its own work, with another thread counting beside it"
    );
    assert!(!serial.is_zero(), "the workload must have been counted");
    assert!(serial.ntt + serial.intt > 0);
    assert!(serial.mult > 0 && serial.add > 0 && serial.base_conv > 0);
    assert_eq!(serial.ct_mults, 1);
    assert_eq!(serial.rotations, 1);
}

/// Runs `f` once with the scalar backend at 1 thread (the reference), then
/// re-runs it under every supported SIMD backend at 1, 2 and 4 threads,
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
        for threads in [1usize, 2, 4] {
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

// ---------------------------------------------------------------------------
// Above the grain: the shapes where the worker pool fans out
// ---------------------------------------------------------------------------

/// A context at N = 256: a ciphertext of `levels` limbs is `2 · 256 ·
/// levels` words, at or above [`PAR_GRAIN_WORDS`] from 8 limbs, the size
/// of operation the benchmarks fan out. Operation-level regions (hoisted
/// steps, BSGS inner sums, EvalMod's power tree, a keyswitch's digits) fan
/// out at any size; its limb loops stay inline.
fn grain_ctx(levels: usize, special: usize) -> CkksContext {
    let params = CkksParams::builder()
        .ring_degree(256)
        .levels(levels)
        .special_limbs(special)
        .limb_bits(45)
        .scale_bits(45)
        .build()
        .expect("valid params");
    const { assert!(2 * 256 * 8 >= PAR_GRAIN_WORDS, "8 limbs must reach the grain") };
    CkksContext::new(params).expect("context")
}

/// Everything a ciphertext carries, bit for bit: limbs, level, scale and
/// the noise estimate (which `Ciphertext`'s equality leaves out).
type CtBits = (RnsPoly, RnsPoly, usize, u64, u64);

fn ct_bits(ct: &Ciphertext) -> CtBits {
    (
        ct.c0().clone(),
        ct.c1().clone(),
        ct.level(),
        ct.scale().to_bits(),
        ct.noise_estimate_bits().to_bits(),
    )
}

/// Limb loops at a ring degree of [`PAR_GRAIN_WORDS`] fan out one limb per
/// task: every `par_limbs` kernel, both NTT directions and the fused pair
/// MAC (written through a raw pointer) stay bit-identical at 1, 2 and 4
/// threads, and the calling thread counts the same ops.
#[test]
fn limb_loops_at_the_grain_are_thread_invariant() {
    let held = hold_threads();
    let ctx = RnsContext::generate(PAR_GRAIN_WORDS, 3, 1, 36).expect("test context");
    let basis = ctx.q_basis(3);
    let a = poly_from_seed(&ctx, &basis, 1);
    let b = poly_from_seed(&ctx, &basis, 2);
    let g = cl_math::galois_element_for_rotation(3, PAR_GRAIN_WORDS);
    let run = || {
        let before = cl_trace::OpSnapshot::capture();
        let mut acc = a.clone();
        for op in 0..6 {
            apply_op(&ctx, &mut acc, &b, op);
        }
        ctx.mul_acc(&mut acc, &a, &b);
        let mut acc1 = b.clone();
        ctx.mul_acc_pair_superset(&mut acc, &mut acc1, &a, Some(g), &b, &a);
        let rotated = ctx.apply_automorphism(&acc, g);
        let ops = cl_trace::OpSnapshot::capture().delta_since(&before);
        (acc, acc1, rotated, ops)
    };
    let reference = serial_vs_parallel(&held, 2, run).0;
    for threads in [2, 4] {
        let (serial, parallel) = serial_vs_parallel(&held, threads, run);
        assert_eq!(serial, reference);
        assert_eq!(
            parallel, reference,
            "limb loops diverged at {threads} threads"
        );
    }
}

/// A hoisted rotation batch above the grain — its steps fan out, and at
/// two digits so do the digits of its ModUp — is bit-identical to one
/// `try_rotate` per step, with the same trace counts at every backend and
/// thread count.
#[test]
fn hoisted_batch_above_the_grain_matches_serial_everywhere() {
    let held = hold_threads();
    let ctx = grain_ctx(8, 4);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x6A1);
    let sk = ctx.keygen(&mut rng);
    let kind = KeySwitchKind::Boosted { digits: 2 };
    let steps = [1i64, 2, 3, 5, -4];
    let keys: Vec<KeySwitchKey> = steps
        .iter()
        .map(|&s| ctx.rotation_keygen(&sk, s, kind, &mut rng))
        .collect();
    let key_refs: Vec<&KeySwitchKey> = keys.iter().collect();
    let vals: Vec<f64> = (0..128)
        .map(|i| ((i * 7 % 31) as f64) / 31.0 - 0.5)
        .collect();
    let ct = ctx.encrypt(&ctx.encode(&vals, ctx.default_scale(), 8), &sk, &mut rng);
    let naive: Vec<CtBits> = steps
        .iter()
        .zip(&keys)
        .map(|(&s, k)| ct_bits(&ctx.try_rotate(&ct, s, k).expect("naive rotation")))
        .collect();
    assert_backend_invariant(&held, || {
        let before = cl_trace::OpSnapshot::capture();
        let hoisted = ctx
            .try_rotate_hoisted_many(&ct, &steps, &key_refs)
            .expect("hoisted rotations");
        let ops = cl_trace::OpSnapshot::capture().delta_since(&before);
        let bits: Vec<CtBits> = hoisted.iter().map(ct_bits).collect();
        assert_eq!(
            bits, naive,
            "hoisted batch must match one try_rotate per step"
        );
        (bits, ops)
    });
}

/// A BSGS transform above the grain, with several giant groups whose inner
/// sums fan out: bit-identical output and trace counts on every backend
/// and thread count, and the matrix it computes is the plaintext one (a
/// group summed under another group's giant step fails here).
#[test]
fn bsgs_transform_above_the_grain_matches_serial_everywhere() {
    let held = hold_threads();
    let level = 8;
    let ctx = grain_ctx(level, 8);
    let m = ctx.params().slots();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xB565);
    let sk = ctx.keygen(&mut rng);
    let diags: Vec<(i64, Vec<Complex>)> = [0i64, 1, 2, 5, 9, 17, 30, 44, 63, 100]
        .iter()
        .map(|&d| {
            let v: Vec<Complex> = (0..m)
                .map(|_| Complex::new(rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5)))
                .collect();
            (d, v)
        })
        .collect();
    let pre = PrecomputedTransform::new(&ctx, &diags, level);
    let keys = BootstrapKeys::generate(
        &ctx,
        &sk,
        KeySwitchKind::Boosted { digits: 1 },
        &pre.required_steps(),
        &mut rng,
    );
    let vals: Vec<Complex> = (0..m)
        .map(|_| Complex::new(rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5)))
        .collect();
    let ct = ctx.encrypt(
        &ctx.encode_complex(&vals, ctx.default_scale(), level),
        &sk,
        &mut rng,
    );
    let expect: Vec<Complex> = (0..m)
        .map(|t| {
            diags.iter().fold(Complex::default(), |s, (d, diag)| {
                s + diag[t] * vals[(t as i64 + d).rem_euclid(m as i64) as usize]
            })
        })
        .collect();
    // One warm-up run materializes every hint, so no run below counts a
    // hint expansion the others do not.
    try_bsgs_transform(&ctx, &ct, &pre, &keys).expect("warm-up transform");
    assert_backend_invariant(&held, || {
        let before = cl_trace::OpSnapshot::capture();
        let out = try_bsgs_transform(&ctx, &ct, &pre, &keys).expect("bsgs transform");
        let ops = cl_trace::OpSnapshot::capture().delta_since(&before);
        let got = ctx.decode_complex(&ctx.decrypt(&out, &sk), m);
        for t in 0..m {
            assert!(
                (got[t] - expect[t]).abs() < 1e-2,
                "slot {t}: {:?} vs the plaintext matrix's {:?}",
                got[t],
                expect[t]
            );
        }
        (ct_bits(&out), ops)
    });
}

/// A rotate-sum over one to seven terms, two of them step 0, at a level
/// below the top (so its keyswitches extend into fewer special limbs than
/// the hints carry): its two half-sums and the ModDown pair are the tasks
/// of pool regions, and the sum is bit-identical, noise estimate and trace
/// counts included, on every backend and thread count.
#[test]
fn rotate_sum_halves_are_backend_and_thread_invariant() {
    let held = hold_threads();
    let ctx = grain_ctx(8, 8);
    let level = 5;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5A17);
    let sk = ctx.keygen(&mut rng);
    let kind = KeySwitchKind::Boosted { digits: 1 };
    let steps = [3i64, 0, 1, -7, 0, 12, 2];
    let keys: Vec<Option<KeySwitchKey>> = steps
        .iter()
        .map(|&s| (s != 0).then(|| ctx.rotation_keygen(&sk, s, kind, &mut rng)))
        .collect();
    let cts: Vec<Ciphertext> = (0..steps.len())
        .map(|t| {
            let vals: Vec<f64> = (0..128)
                .map(|i| ((i * 3 + t) % 11) as f64 / 11.0 - 0.5)
                .collect();
            ctx.encrypt(
                &ctx.encode(&vals, ctx.default_scale(), level),
                &sk,
                &mut rng,
            )
        })
        .collect();
    for len in 1..=steps.len() {
        let terms: Vec<(&Ciphertext, i64, Option<&KeySwitchKey>)> = (0..len)
            .map(|t| (&cts[t], steps[t], keys[t].as_ref()))
            .collect();
        assert_backend_invariant(&held, || {
            let before = cl_trace::OpSnapshot::capture();
            let out = ctx.try_rotate_sum(&terms).expect("rotate-sum");
            (
                ct_bits(&out),
                cl_trace::OpSnapshot::capture().delta_since(&before),
            )
        });
    }
}

/// Evaluates a runnable graph node by node in construction order with the
/// public `try_*` ops, each rotation on its own and each sum as the graph
/// writes it (`try_add(sum, term)`): no lowering, no slots, no executor.
/// Plaintexts are encoded at the to-be-dropped modulus, the `MulPlain`
/// convention.
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
            HeOp::Add(a, b) => Some(ctx.try_add(at(a), at(b)).expect("add")),
            HeOp::MulPlain(a, p) => {
                let ct = at(a);
                let q_drop = ctx.rns().modulus_value((ct.level() - 1) as u32) as f64;
                let pt = ctx.encode(&w.plain[&p], q_drop, ct.level());
                Some(ctx.try_mul_plain(ct, &pt).expect("mul_plain"))
            }
            HeOp::Rotate(a, step) => {
                let key = keys.try_rot_key(ctx, step).expect("rotation key");
                Some(ctx.try_rotate(at(a), step, key.as_ref()).expect("rotate"))
            }
            HeOp::Rescale(a) => Some(ctx.try_rescale(at(a)).expect("rescale")),
            HeOp::MulCt(a, b) if a == b => {
                let relin = keys.try_relin(ctx).expect("relinearization key");
                Some(ctx.try_square(at(a), relin.as_ref()).expect("square"))
            }
            HeOp::Output(a) => return at(a).clone(),
            ref other => panic!("the MLP graphs do not use {other:?}"),
        };
        vals.push(v);
    }
    panic!("graph has no Output node")
}

/// A compiled BSGS layer above the grain — 16 diagonals in four giant
/// groups, run by the executor as one wave whose bodies each run their
/// group's inner sum as one fused step — gives the graph's node-by-node
/// evaluation in limbs, level, scale and noise estimate, with the trace
/// counts `predict_program` charges for the op-by-op run, every micro-op
/// executed once and the predicted peak, on every backend at 1, 2 and 4
/// threads.
#[test]
fn fused_inner_sums_above_the_grain_match_node_by_node_everywhere() {
    let held = hold_threads();
    let level = 8;
    let ctx = grain_ctx(level, 8).with_policy(GuardrailPolicy::Strict {
        min_budget_bits: -60.0,
    });
    let w = lola_layer_runnable(ctx.params().slots(), level, 16, 1, false);
    assert_compiled_matches_node_by_node(&held, &ctx, &w, 4, &[4]);
}

/// The three-layer MLP (9 / 16 / 4 diagonals, square activations) above
/// the grain, its three waves of 3, 4 and 2 bodies run side by side:
/// bit for bit the graph's node-by-node evaluation, with the op-by-op
/// run's trace counts, `ops_executed` and the predicted peak, on every
/// backend at 1, 2 and 4 threads.
#[test]
fn waves_above_the_grain_match_node_by_node_everywhere() {
    let held = hold_threads();
    let level = 6;
    // Scale = limb (45 bits), so the squares spend more budget than the
    // layer test's floor allows; the floor still runs every check.
    let ctx = grain_ctx(level, 8).with_policy(GuardrailPolicy::Strict {
        min_budget_bits: -200.0,
    });
    let layer = |diags, stride, activate| DenseLayer { diags, stride, activate };
    let layers = [layer(9, 1, true), layer(16, 2, true), layer(4, 4, false)];
    let w = lola_mlp_runnable(ctx.params().slots(), level, &layers);
    assert_compiled_matches_node_by_node(&held, &ctx, &w, 3 + 4 + 2, &[3, 4, 2]);
}

/// Lowers `w`, checks its inner-sum count and the bodies of its waves, and
/// runs it through a prepared program under the backend × thread matrix,
/// comparing against `eval_graph_direct` and `predict_program`.
fn assert_compiled_matches_node_by_node(
    held: &Held,
    ctx: &CkksContext,
    w: &RunnableWorkload,
    inner_sums: usize,
    bodies: &[usize],
) {
    let slots = ctx.params().slots();
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
    .expect("graph lowers");
    let prepared = PreparedProgram::borrowed(ctx, &lowered.program);
    assert_eq!(
        prepared.inner_sums().len(),
        inner_sums,
        "one inner sum per giant group"
    );
    let got: Vec<usize> = prepared.waves().iter().map(|w| w.bodies().count()).collect();
    assert_eq!(got, bodies, "one wave per layer, one body per giant group");
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x1A5);
    let sk = ctx.keygen(&mut rng);
    let kind = KeySwitchKind::Standard;
    let keys = BootstrapKeys::generate(&ctx, &sk, kind, &lowered.rotation_steps, &mut rng);
    let vals: Vec<f64> = (0..slots)
        .map(|i| ((i * 5) % 17) as f64 / 17.0 - 0.4)
        .collect();
    let x = ctx.encrypt(
        &ctx.encode(&vals, ctx.default_scale(), w.input_level),
        &sk,
        &mut rng,
    );
    let direct = ct_bits(&eval_graph_direct(&ctx, &keys, w, &x));
    let predicted = predict_program(ctx.max_level(), kind, &[w.input_level], &lowered.program)
        .expect("program predicts");
    let run = || {
        let config = ExecutorConfig {
            checkpoint_every: 0,
            max_retries: 0,
            checkpoint_dir: None,
        };
        let mut exec = PipelineExecutor::new(&ctx, &keys, config).expect("executor");
        match exec
            .run_prepared(std::slice::from_ref(&x), &prepared)
            .expect("compiled run")
        {
            RunOutcome::Completed(out) => (out, exec.telemetry()),
            RunOutcome::Crashed => unreachable!("no fault plan attached"),
        }
    };
    // One warm-up run materializes every hint.
    run();
    assert_backend_invariant(held, || {
        let before = cl_trace::OpSnapshot::capture();
        let (out, t) = run();
        let ops = cl_trace::OpSnapshot::capture().delta_since(&before);
        assert_eq!(
            ct_bits(&out),
            direct,
            "the compiled run must match node-by-node evaluation"
        );
        assert_eq!(t.peak_live_cts, lowered.predicted_peak_live, "live-ciphertext peak");
        assert_eq!(
            t.ops_executed,
            lowered.program.num_micro_ops() as u64,
            "every micro-op once"
        );
        let fields = |s: &cl_trace::OpSnapshot| {
            [
                s.ntt,
                s.intt,
                s.mult,
                s.add,
                s.base_conv,
                s.automorph,
                s.rotations,
                s.ct_mults,
                s.pt_mults,
            ]
        };
        assert_eq!(
            fields(&ops),
            fields(&predicted),
            "trace counts vs the op-by-op prediction"
        );
        (ct_bits(&out), ops, t.ops_executed, t.peak_live_cts)
    });
}

/// The five bootstrap stages, stepped one `try_step` at a time above the
/// grain (hoisted baby steps, inner sums, the power tree and a two-digit
/// ModUp all fan out): every stage's ciphertexts — limbs, level, scale,
/// noise estimate — and the run's trace counts are identical on every
/// backend at 1, 2 and 4 threads.
#[test]
fn bootstrap_stages_above_the_grain_match_serial_everywhere() {
    let held = hold_threads();
    let ctx = grain_ctx(22, 11);
    let boot = Bootstrapper::new(&ctx, 8);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xB0075);
    let sk = ctx.keygen_sparse(8, &mut rng);
    let keys = boot.keygen(&ctx, &sk, KeySwitchKind::Boosted { digits: 2 }, &mut rng);
    let vals: Vec<f64> = (0..ctx.params().slots())
        .map(|i| ((i % 9) as f64) / 20.0 - 0.2)
        .collect();
    let ct = ctx.encrypt(&ctx.encode(&vals, ctx.default_scale(), 1), &sk, &mut rng);
    // As in the transform test above: materialize every hint first.
    boot.try_bootstrap(&ctx, &ct, &keys)
        .expect("warm-up bootstrap");
    assert_backend_invariant(&held, || {
        let before = cl_trace::OpSnapshot::capture();
        let mut state = BootState::Start { ct: ct.clone() };
        let mut stages: Vec<Vec<CtBits>> = Vec::new();
        for _ in 0..BootState::NUM_STAGES {
            state = boot.try_step(&ctx, state, &keys).expect("bootstrap stage");
            stages.push(state.ciphertexts().into_iter().map(ct_bits).collect());
        }
        assert!(state.is_done());
        (stages, cl_trace::OpSnapshot::capture().delta_since(&before))
    });
}

/// A corrupt hint in the middle of a hoisted batch above the grain fails
/// the batch with the serial run's error — the first failing step's, in
/// step order — on every backend and thread count, whichever step a
/// worker reaches first; at one thread it also stops where the serial run
/// stops.
#[test]
fn corrupt_hint_mid_batch_fails_as_the_serial_run_does() {
    let held = hold_threads();
    let mut ctx = grain_ctx(8, 8);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xBAD);
    let sk = ctx.keygen(&mut rng);
    let kind = KeySwitchKind::Boosted { digits: 1 };
    let steps = [1i64, 2, 3, 4];
    let keys: Vec<KeySwitchKey> = steps
        .iter()
        .map(|&s| ctx.rotation_keygen(&sk, s, kind, &mut rng))
        .collect();
    // A corrupt hint fails its Strict digest check; a key of another kind
    // fails the decomposition's kind check. Each batch puts one of them at
    // step 1 and the other at step 3.
    let mut corrupt = keys[1].clone();
    faults::corrupt_hint_word(&mut corrupt, 0, 1, 3, 17);
    let other_kind = ctx.rotation_keygen(&sk, 4, KeySwitchKind::Boosted { digits: 2 }, &mut rng);
    let ct = ctx.encrypt(
        &ctx.encode(&[0.5, -0.25], ctx.default_scale(), 8),
        &sk,
        &mut rng,
    );
    ctx.set_policy(GuardrailPolicy::Strict {
        min_budget_bits: 0.0,
    });
    let batches: [([&KeySwitchKey; 4], &str); 2] = [
        (
            [&keys[0], &corrupt, &keys[2], &other_kind],
            "rotate_hoisted: corrupt keyswitch hint",
        ),
        (
            [&keys[0], &other_kind, &keys[2], &corrupt],
            "rotate_hoisted: invalid arguments",
        ),
    ];
    for (batch, want) in batches {
        let first_error = |r: FheResult<Vec<Ciphertext>>| match r {
            Ok(_) => panic!("a batch holding a bad key must fail"),
            Err(e) => e.to_string(),
        };
        let serial = first_error(ctx.try_rotate_hoisted_many(&ct, &steps, &batch));
        assert!(
            serial.starts_with(want),
            "serial run failed with {serial:?}"
        );
        assert_backend_invariant(&held, || {
            first_error(ctx.try_rotate_hoisted_many(&ct, &steps, &batch))
        });
    }
    // At one thread a failed batch does the serial run's work and no more:
    // no step after the failing one starts, so its op counts and digests
    // are those of the batch cut just past the failure.
    rayon::set_num_threads(1);
    let cost = |keys: &[&KeySwitchKey]| {
        let ops = cl_trace::OpSnapshot::capture();
        let digests = cl_trace::hint_digests();
        let result = ctx.try_rotate_hoisted_many(&ct, &steps[..keys.len()], keys);
        assert!(result.is_err(), "a batch holding a bad key must fail");
        (
            cl_trace::OpSnapshot::capture().delta_since(&ops),
            cl_trace::hint_digests() - digests,
        )
    };
    let failing = batches[0].0;
    assert_eq!(
        cost(&failing),
        cost(&failing[..2]),
        "steps after the failing one ran"
    );
}

//! Kernel-level wall-clock benchmark emitting `BENCH_kernels.json`.
//!
//! Times the functional hot paths the parallel execution engine targets —
//! NTT, RNS element-wise ops, base conversion, keyswitch, the hint integrity
//! digest, the ciphertext residue scan, rescale, one bootstrap step (an
//! EvalMod square+rescale), one compiled BSGS inner sum through the
//! executor (`exec_inner_sum_{1k,8k}`), one compiled layer whose eight
//! giant groups run as a wave (`exec_wave_8k`) and the bootstrap's EvalMod
//! step, both sine chains side by side (`eval_mod_1k`) — and writes ns/op
//! as JSON so `scripts/bench.sh` can track the serial-vs-parallel
//! trajectory across commits. Both transforms are also reported as a
//! roofline rate: radix-2 butterflies per ns,
//! `(n/2) * log2(n) * limbs` over the timed call, the guardrails' residue
//! scan (`ct_validate`) as GB/s over the ciphertext it reads, and base
//! conversion at the N = 1K shapes as eight-word multiply-accumulate
//! vectors per ns. A grain sweep (`grain_*` rows) times four kernel
//! classes with their limbs fanned out over the worker pool at two ring
//! degrees and five limb counts; `scripts/bench.sh` runs it at one thread
//! and at `nproc`, which places `cl_rns::PAR_GRAIN_WORDS`.
//!
//! Usage:
//!   bench_kernels [--smoke] [--label NAME] [--out PATH]
//!
//! `--smoke` runs tiny shapes with one timed iteration each — just enough
//! for `scripts/verify.sh` to prove the harness still builds and runs.
//!
//! Every `CkksContext` runs its guardrails on every `try_*` call, so the
//! CKKS rows (`keyswitch`, `rotate`, `rescale`, the hoisted and
//! linear-transform rows, `bootstrap_step`) include the operand residue
//! scans, the hint digest and the budget check; `key_verify` and
//! `ct_validate` are the rows that price those checks on their own.

use std::fmt::Write as _;
use std::time::Instant;

use cl_boot::{try_bsgs_transform, BootState, BootstrapKeys, Bootstrapper, PrecomputedTransform};
use cl_ckks::{Ciphertext, CkksContext, CkksParams, HintCache, KeySwitchKey, KeySwitchKind};
use cl_math::Complex;
use cl_rns::{BaseConverter, Basis, RnsContext};
use rand::SeedableRng;

struct Config {
    smoke: bool,
    label: String,
    out: Option<String>,
}

fn parse_args() -> Config {
    let mut cfg = Config {
        smoke: false,
        label: "current".to_string(),
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => cfg.smoke = true,
            "--label" => cfg.label = args.next().expect("--label needs a value"),
            "--out" => cfg.out = Some(args.next().expect("--out needs a value")),
            other => panic!("unknown argument: {other}"),
        }
    }
    cfg
}

/// Times `f` adaptively: warm up once, then run batches until the total
/// exceeds ~0.3 s (or `min_iters`), reporting the *minimum* ns per call.
/// The kernels are deterministic, so the minimum is the measurement and
/// everything above it is interference (scheduler preemption, disk-sync
/// stalls on the checkpoint/server kernels); the mean let a single slow
/// iteration move the recorded number by several percent, enough to trip
/// the `bench.sh --check` overhead-ratio gates run-to-run on identical
/// code.
fn time_ns(smoke: bool, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    if smoke {
        let t = Instant::now();
        f();
        return t.elapsed().as_nanos() as f64;
    }
    let mut iters = 0u64;
    let mut total_ns = 0u128;
    let mut best_ns = u128::MAX;
    let min_total: u128 = 300_000_000; // 0.3 s
    while total_ns < min_total || iters < 5 {
        let t = Instant::now();
        f();
        let ns = t.elapsed().as_nanos();
        total_ns += ns;
        best_ns = best_ns.min(ns);
        iters += 1;
        if iters >= 1000 {
            break;
        }
    }
    best_ns as f64
}

/// One shape of the grain sweep: a row per kernel class, named
/// `grain_{class}_{N/1024}k_l{limbs}`, each limb (CRB: each destination
/// limb) one task of a region offered to the pool whatever its size
/// (`cl_rns::par_map`, the operation-level form; the limb-loop form would
/// run every N = 1K region inline). A task takes its limb through an
/// uncontended mutex, about 20 ns in both passes.
fn grain_sweep(
    results: &mut Vec<(&'static str, f64)>,
    smoke: bool,
    n: usize,
    limbs: usize,
    bits: u32,
) {
    use cl_rns::par_map;
    use std::sync::Mutex;

    let ctx = RnsContext::generate(n, limbs, limbs, bits).expect("rns context");
    let mut rng = rand::rngs::StdRng::seed_from_u64(44);
    let a = ctx.sample_uniform(&ctx.q_basis(limbs), &mut rng);
    let b = ctx.sample_uniform(&ctx.q_basis(limbs), &mut rng);
    let moduli: Vec<cl_math::Modulus> = (0..limbs as u32).map(|l| *ctx.modulus(l)).collect();
    let specials: Vec<cl_math::Modulus> = ctx
        .p_basis(limbs)
        .0
        .iter()
        .map(|&l| *ctx.modulus(l))
        .collect();
    let tables: Vec<cl_math::BaseConvTable> = specials
        .iter()
        .map(|p| cl_math::BaseConvTable::new(&moduli, std::slice::from_ref(p)))
        .collect();
    let mut row = |class: &str, ns: f64| {
        let name = format!("grain_{class}_{}k_l{limbs}", n >> 10);
        results.push((Box::leak(name.into_boxed_str()), ns));
    };
    let mut data = a.coeffs().to_vec();
    let data: Vec<Mutex<&mut [u64]>> = data.chunks_mut(n).map(Mutex::new).collect();
    let limb = |k: usize| data[k].lock().expect("one task per limb");
    row(
        "ew",
        time_ns(smoke, || {
            par_map(limbs, |k| moduli[k].mul_mod_slice(&mut limb(k), b.limb(k)));
            std::hint::black_box(&data);
        }),
    );
    row(
        "ntt",
        time_ns(smoke, || {
            par_map(limbs, |k| ctx.ntt_table(k as u32).forward(&mut limb(k)));
            std::hint::black_box(&data);
        }),
    );
    let outs: Vec<Mutex<Vec<u64>>> = (0..limbs)
        .map(|_| Mutex::new(Vec::with_capacity(n)))
        .collect();
    row(
        "crb",
        time_ns(smoke, || {
            par_map(limbs, |k| {
                let mut out = outs[k].lock().expect("one task per limb");
                out.clear();
                tables[k].convert_append(a.coeffs(), &mut out, false);
            });
            std::hint::black_box(&outs);
        }),
    );
    row(
        "mac",
        time_ns(smoke, || {
            par_map(limbs, |k| {
                moduli[k].mul_acc_mod_slice(&mut limb(k), a.limb(k), b.limb(k))
            });
            std::hint::black_box(&data);
        }),
    );
}

fn main() {
    let cfg = parse_args();
    // Acceptance shapes: N >= 2^13, >= 8 limbs, at the 45-bit limb width
    // every end-to-end workload runs, so the kernels timed here take the
    // products those workloads take. Smoke: tiny.
    let (n, limbs, bits) = if cfg.smoke { (256, 3, 30) } else { (1 << 13, 8, 45) };
    let threads = std::env::var("CL_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
        });
    eprintln!(
        "bench_kernels: label={} n={n} limbs={limbs} bits={bits} threads={threads} backend={} smoke={}",
        cfg.label,
        cl_math::active_backend(),
        cfg.smoke
    );

    let mut results: Vec<(&'static str, f64)> = Vec::new();
    let mut crb_rates: Vec<(&'static str, f64)> = Vec::new();

    // --- RNS-level kernels -------------------------------------------------
    {
        let ctx = RnsContext::generate(n, limbs, limbs, bits).expect("rns context");
        let basis = ctx.q_basis(limbs);
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let a = ctx.sample_uniform(&basis, &mut rng);
        let b = ctx.sample_uniform(&basis, &mut rng);
        let mut coeff = a.clone();
        ctx.from_ntt(&mut coeff);

        results.push((
            "ntt_forward",
            time_ns(cfg.smoke, || {
                let mut p = coeff.clone();
                ctx.to_ntt(&mut p);
                std::hint::black_box(&p);
            }),
        ));
        results.push((
            "ntt_inverse",
            time_ns(cfg.smoke, || {
                let mut p = a.clone();
                ctx.from_ntt(&mut p);
                std::hint::black_box(&p);
            }),
        ));
        results.push((
            "rns_add",
            time_ns(cfg.smoke, || {
                std::hint::black_box(ctx.add(&a, &b));
            }),
        ));
        results.push((
            "rns_mul",
            time_ns(cfg.smoke, || {
                std::hint::black_box(ctx.mul(&a, &b));
            }),
        ));
        {
            let mut acc = a.clone();
            results.push((
                "rns_mul_acc",
                time_ns(cfg.smoke, || {
                    ctx.mul_acc(&mut acc, &a, &b);
                    std::hint::black_box(&acc);
                }),
            ));
        }
        let g = cl_math::galois_element_for_rotation(1, n);
        results.push((
            "automorphism_ntt",
            time_ns(cfg.smoke, || {
                std::hint::black_box(ctx.apply_automorphism(&a, g));
            }),
        ));
        let conv = BaseConverter::new(&ctx, ctx.q_basis(limbs), ctx.p_basis(limbs));
        results.push((
            "base_conv",
            time_ns(cfg.smoke, || {
                std::hint::black_box(conv.convert(&ctx, &coeff));
            }),
        ));
        results.push((
            "base_conv_exact",
            time_ns(cfg.smoke, || {
                std::hint::black_box(conv.convert_exact(&ctx, &coeff));
            }),
        ));
    }

    // --- Base conversion at the boot_chain_1k shapes -----------------------
    // N = 1K with 20 limbs each way (ModUp / ModDown of a bootstrap), and
    // one limb to 20 (a rescale's conversion; a Standard-keyswitch ModUp
    // digit when approximate). Smoke: tiny.
    {
        let (n1, l1) = if cfg.smoke { (256, 3) } else { (1 << 10, 20) };
        let ctx = RnsContext::generate(n1, l1, l1, bits).expect("rns context");
        let mut rng = rand::rngs::StdRng::seed_from_u64(43);
        let shapes = [
            ("base_conv_1k_l_to_l", "base_conv_exact_1k_l_to_l", ctx.q_basis(l1), ctx.p_basis(l1)),
            ("base_conv_1k_1_to_l", "base_conv_exact_1k_1_to_l", Basis(vec![ctx.p_basis(1).0[0]]), ctx.q_basis(l1)),
        ];
        for (approx_name, exact_name, src, dst) in shapes {
            let conv = BaseConverter::new(&ctx, src.clone(), dst.clone());
            let mut x = ctx.sample_uniform(&src, &mut rng);
            x.set_ntt_form(false);
            for (name, exact) in [(approx_name, false), (exact_name, true)] {
                let ns = time_ns(cfg.smoke, || {
                    std::hint::black_box(if exact { conv.convert_exact(&ctx, &x) } else { conv.convert(&ctx, &x) });
                });
                results.push((name, ns));
                // Eight-word vectors of multiply-accumulates, one per
                // (source limb, destination limb) pair and the exact path's
                // alpha term per destination limb.
                let macs = ((src.len() + usize::from(exact)) * dst.len() * n1) as f64 / 8.0;
                crb_rates.push((name, macs / ns));
            }
        }
    }

    // --- Grain sweep ---------------------------------------------------------
    // What a limb's worth of each kernel class costs when its limbs fan
    // out over the worker pool, at N ∈ {1K, 8K} × limbs ∈ {1, 4, 8, 20,
    // 40}: element-wise (`mul_mod_slice`), NTT (`forward`), CRB (one
    // destination limb from every source limb) and MAC (`mul_acc`). Every
    // region is offered to the pool, below the grain too; the serial pass (`CL_THREADS=1`) against the `nproc` pass shows where
    // fan-out pays, which is where `cl_rns::PAR_GRAIN_WORDS` sits
    // (EXPERIMENTS.md, "The grain sweep").
    for n_sweep in [1usize << 10, 1 << 13] {
        for limbs_sweep in [1usize, 4, 8, 20, 40] {
            grain_sweep(&mut results, cfg.smoke, n_sweep, limbs_sweep, bits);
        }
    }

    // --- CKKS-level kernels ------------------------------------------------
    {
        let params = CkksParams::builder()
            .ring_degree(n)
            .levels(limbs)
            .special_limbs(limbs)
            .limb_bits(bits)
            .scale_bits(bits - 4)
            .build()
            .expect("params");
        let ctx = CkksContext::new(params).expect("ckks context");
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let sk = ctx.keygen(&mut rng);
        let relin = ctx.relin_keygen(&sk, KeySwitchKind::Boosted { digits: 1 }, &mut rng);
        let rot = ctx.rotation_keygen(&sk, 1, KeySwitchKind::Boosted { digits: 1 }, &mut rng);
        let vals: Vec<f64> = (0..16).map(|i| 0.01 * i as f64).collect();
        let pt = ctx.encode(&vals, ctx.default_scale(), limbs);
        let ct = ctx.encrypt(&pt, &sk, &mut rng);

        let qb = ctx.rns().q_basis(limbs);
        let signed: Vec<i64> = (0..n).map(|i| ((i as i64 * 37 + 11) % 1000) - 500).collect();
        let mut msg = ctx.rns().from_signed_coeffs(&signed, &qb);
        ctx.rns().to_ntt(&mut msg);
        results.push((
            "keyswitch",
            time_ns(cfg.smoke, || {
                std::hint::black_box(ctx.try_keyswitch(&msg, &relin).expect("keyswitch"));
            }),
        ));
        // The check every context runs once per hint application: the
        // integrity digest over the whole relinearization hint.
        results.push((
            "key_verify",
            time_ns(cfg.smoke, || {
                std::hint::black_box(relin.verify_integrity());
            }),
        ));
        // The check every context runs on every operand and every
        // result: the residue-range scan over one level-L ciphertext.
        results.push((
            "ct_validate",
            time_ns(cfg.smoke, || {
                std::hint::black_box(ctx.validate_ciphertext("bench", &ct)).expect("clean ciphertext");
            }),
        ));
        results.push((
            "rotate",
            time_ns(cfg.smoke, || {
                std::hint::black_box(ctx.try_rotate(&ct, 1, &rot).expect("rotate"));
            }),
        ));
        results.push((
            "rescale",
            time_ns(cfg.smoke, || {
                std::hint::black_box(ctx.try_rescale(&ct).expect("rescale"));
            }),
        ));
        // Hoisted vs naive batch rotation: the same 8 rotations of one
        // ciphertext, naively (one ModUp per rotation) and hoisted (one
        // shared ModUp). Standard keyswitching decomposes into one digit
        // per limb, so its ModUp is O(L^2) NTT work and dominates each
        // rotation — the classic setting where hoisting pays.
        {
            let hoist_kind = KeySwitchKind::Standard;
            let steps: Vec<i64> = (1..=8).collect();
            let keys: Vec<KeySwitchKey> = steps
                .iter()
                .map(|&s| ctx.rotation_keygen(&sk, s, hoist_kind, &mut rng))
                .collect();
            let key_refs: Vec<&KeySwitchKey> = keys.iter().collect();
            results.push((
                "rotate_naive_x8",
                time_ns(cfg.smoke, || {
                    for (&s, k) in steps.iter().zip(&keys) {
                        std::hint::black_box(ctx.try_rotate(&ct, s, k).expect("rotate"));
                    }
                }),
            ));
            results.push((
                "rotate_hoisted_x8",
                time_ns(cfg.smoke, || {
                    std::hint::black_box(
                        ctx.try_rotate_hoisted_many(&ct, &steps, &key_refs)
                            .expect("hoisted rotations"),
                    );
                }),
            ));
            // The same hoisted batch with every hint fetched from a warm
            // `HintCache` (compact keys, lazily materialized on first use).
            // `scripts/bench.sh --check` gates the ratio vs the eager-key
            // kernel above at <= ~10%: warm-cache fetches must stay a hash
            // lookup, not a regeneration.
            {
                let compacts: Vec<cl_ckks::CompactKeySwitchKey> =
                    keys.iter().map(KeySwitchKey::to_compact).collect();
                let cache = HintCache::new(1 << 30);
                for ck in &compacts {
                    cache.get_or_expand(&ctx, ck).expect("warm hint cache");
                }
                results.push((
                    "rotate_hoisted_x8_cached",
                    time_ns(cfg.smoke, || {
                        let arcs: Vec<_> = compacts
                            .iter()
                            .map(|ck| cache.get_or_expand(&ctx, ck).expect("warm hint"))
                            .collect();
                        let refs: Vec<&KeySwitchKey> =
                            arcs.iter().map(std::convert::AsRef::as_ref).collect();
                        std::hint::black_box(
                            ctx.try_rotate_hoisted_many(&ct, &steps, &refs)
                                .expect("hoisted rotations"),
                        );
                    }),
                ));
            }
        }
        // BSGS vs naive linear transform: a 16-diagonal band matrix (the
        // shape of one bootstrap CoeffToSlot radix stage) applied with
        // per-diagonal rotations vs the precomputed double-hoisted BSGS
        // path.
        {
            let m = ctx.params().slots();
            let level = limbs;
            let kind = KeySwitchKind::Standard;
            let n_diags = 16.min(m);
            let mut drng = rand::rngs::StdRng::seed_from_u64(11);
            let diags: Vec<(i64, Vec<Complex>)> = (0..n_diags as i64)
                .map(|d| {
                    let v: Vec<Complex> = (0..m)
                        .map(|_| {
                            Complex::new(
                                rand::Rng::gen_range(&mut drng, -0.5..0.5),
                                rand::Rng::gen_range(&mut drng, -0.5..0.5),
                            )
                        })
                        .collect();
                    (d, v)
                })
                .collect();
            let pre = PrecomputedTransform::new(&ctx, &diags, level);
            let mut steps = pre.required_steps();
            steps.extend(diags.iter().map(|(d, _)| *d));
            let keys = BootstrapKeys::generate(&ctx, &sk, kind, &steps, &mut rng);
            let pt_scale = ctx.rns().modulus_value((level - 1) as u32) as f64;
            let diag_pts: Vec<(i64, cl_ckks::Plaintext)> = diags
                .iter()
                .map(|(d, v)| (*d, ctx.encode_complex(v, pt_scale, level)))
                .collect();
            results.push((
                "linear_transform_naive",
                time_ns(cfg.smoke, || {
                    let mut acc: Option<Ciphertext> = None;
                    for (d, pt) in &diag_pts {
                        let rotated = if *d == 0 {
                            ct.clone()
                        } else {
                            ctx.try_rotate(&ct, *d, keys.try_rot_key(&ctx, *d).expect("diag key").as_ref())
                                .expect("rotate")
                        };
                        let term = ctx.try_mul_plain(&rotated, pt).expect("mul_plain");
                        acc = Some(match acc {
                            None => term,
                            Some(a) => ctx.try_add(&a, &term).expect("add"),
                        });
                    }
                    let out = ctx.try_rescale(&acc.expect("diags")).expect("rescale");
                    std::hint::black_box(out);
                }),
            ));
            results.push((
                "linear_transform_bsgs",
                time_ns(cfg.smoke, || {
                    std::hint::black_box(
                        try_bsgs_transform(&ctx, &ct, &pre, &keys).expect("bsgs transform"),
                    );
                }),
            ));
        }
        // One bootstrap step: the EvalMod inner loop is a squaring chain;
        // each step is square + rescale.
        results.push((
            "bootstrap_step",
            time_ns(cfg.smoke, || {
                let sq = ctx.try_square(&ct, &relin).expect("square");
                std::hint::black_box(ctx.try_rescale(&sq).expect("rescale"));
            }),
        ));
        // The same step with the relin hint fetched warm from a `HintCache`
        // each iteration; gated vs the eager kernel at <= ~10% by
        // `scripts/bench.sh --check`.
        {
            let relin_compact = relin.to_compact();
            let cache = HintCache::new(1 << 30);
            cache
                .get_or_expand(&ctx, &relin_compact)
                .expect("warm hint cache");
            results.push((
                "bootstrap_step_cached",
                time_ns(cfg.smoke, || {
                    let r = cache.get_or_expand(&ctx, &relin_compact).expect("warm relin hint");
                    let sq = ctx.try_square(&ct, r.as_ref()).expect("square");
                    std::hint::black_box(ctx.try_rescale(&sq).expect("rescale"));
                }),
            ));
        }
        // --- Key memory: software KSHGen residency tiers -------------------
        // A bootstrap-capable key set (relin + conjugation + the full
        // ± power-of-two rotation ladder) sized three ways: every hint
        // materialized (how PR-7 held keys), the compact seeded form, and
        // the hot-hint cache capped at an eighth of the eager footprint.
        // `scripts/bench.sh --check` gates eager/hot at >= 4x; the compact
        // tier and the single-hint regeneration cost are recorded alongside.
        {
            let slots = ctx.params().slots() as i64;
            let mut ladder: Vec<i64> = Vec::new();
            let mut s = 1i64;
            while s < slots {
                ladder.push(s);
                ladder.push(-s);
                s <<= 1;
            }
            let bkeys = BootstrapKeys::generate(
                &ctx,
                &sk,
                KeySwitchKind::Boosted { digits: 1 },
                &ladder,
                &mut rng,
            );
            let compact_bytes = bkeys.compact_resident_bytes();
            let mut compacts: Vec<&cl_ckks::CompactKeySwitchKey> =
                vec![bkeys.relin_compact(), bkeys.conj_compact()];
            for &st in &ladder {
                compacts.push(bkeys.rot_compact(st).expect("ladder key"));
            }
            let eager_bytes: usize = compacts
                .iter()
                .map(|ck| ck.expand(&ctx).expect("expand hint").resident_bytes())
                .sum();
            let cache = HintCache::new(eager_bytes / 8);
            for ck in &compacts {
                cache.get_or_expand(&ctx, ck).expect("hot tier");
            }
            let hot_bytes = cache.stats().bytes_resident;
            results.push(("key_memory_eager_bytes", eager_bytes as f64));
            results.push(("key_memory_compact_bytes", compact_bytes as f64));
            results.push(("key_memory_hot_bytes", hot_bytes as f64));
            let regen = bkeys.rot_compact(1).expect("ladder key");
            results.push((
                "key_memory_regen",
                time_ns(cfg.smoke, || {
                    std::hint::black_box(regen.expand(&ctx).expect("regen hint"));
                }),
            ));
        }
    }

    // --- Pipeline executor: checkpointing overhead ------------------------
    // The same declared program through the cl-runtime executor with
    // durable checkpoints every 4 micro-ops vs checkpoints disabled.
    // `scripts/bench.sh --check` gates the ratio at <= ~10%.
    {
        use cl_ckks::GuardrailPolicy;
        use cl_runtime::{ExecutorConfig, PipelineExecutor, PipelineOp, Program, RunOutcome};

        let params = CkksParams::builder()
            .ring_degree(n)
            .levels(limbs)
            .special_limbs(limbs)
            .limb_bits(bits)
            .scale_bits(bits - 4)
            .build()
            .expect("params");
        // Arc'd because the job-server kernels below register the same
        // context as a tenant.
        let ctx = std::sync::Arc::new(
            CkksContext::new(params)
                .expect("ckks context")
                .with_policy(GuardrailPolicy::Strict {
                    min_budget_bits: -200.0,
                }),
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let sk = ctx.keygen(&mut rng);
        let keys = cl_boot::BootstrapKeys::generate(
            &ctx,
            &sk,
            KeySwitchKind::Boosted { digits: 1 },
            &[1],
            &mut rng,
        );
        let pt = ctx.encode(&[0.5, -0.25], ctx.default_scale(), ctx.max_level());
        let ct = ctx.encrypt(&pt, &sk, &mut rng);
        let mut program = Program::new();
        for _ in 0..(limbs - 1).min(3) {
            program = program
                .then(PipelineOp::Square)
                .then(PipelineOp::Rescale)
                .then(PipelineOp::Rotate(1))
                .then(PipelineOp::AddPlain(vec![0.1, 0.2]));
        }
        let ckpt_dir = std::env::temp_dir().join(format!("cl_bench_ckpt_{}", std::process::id()));
        let run = |config: ExecutorConfig| {
            let mut exec = PipelineExecutor::new(&ctx, &keys, config).expect("executor");
            match exec.run(&ct, &program).expect("pipeline run") {
                RunOutcome::Completed(out) => out,
                RunOutcome::Crashed => unreachable!("no fault plan"),
            }
        };
        results.push((
            "pipeline_baseline",
            time_ns(cfg.smoke, || {
                std::hint::black_box(run(ExecutorConfig {
                    checkpoint_every: 0,
                    max_retries: 0,
                    checkpoint_dir: None,
                }));
            }),
        ));
        results.push((
            "pipeline_checkpoint",
            time_ns(cfg.smoke, || {
                std::hint::black_box(run(ExecutorConfig {
                    checkpoint_every: 4,
                    max_retries: 0,
                    checkpoint_dir: Some(ckpt_dir.clone()),
                }));
            }),
        ));
        let _ = std::fs::remove_dir_all(&ckpt_dir);

        // --- Compiler-driven execution ------------------------------------
        // A BSGS LoLa layer graph lowered to a pipeline Program
        // (`compile_lola_layer` is the graph->Program compile itself) and
        // executed warm through the executor (`compiled_layer_run`).
        {
            let slots = ctx.params().slots();
            let w = cl_apps::lola_layer_runnable(slots, limbs, 8, 1, false);
            let opts = cl_compiler::LowerOptions {
                slots,
                plain: w.plain.clone(),
                reorder: true,
                auto_bootstrap: None,
                max_live_cts: None,
            };
            results.push((
                "compile_lola_layer",
                time_ns(cfg.smoke, || {
                    std::hint::black_box(
                        cl_compiler::lower_to_program(&w.graph, &opts).expect("layer lowers"),
                    );
                }),
            ));
            let lowered = cl_compiler::lower_to_program(&w.graph, &opts).expect("layer lowers");
            let ckeys = cl_boot::BootstrapKeys::generate(
                &ctx,
                &sk,
                KeySwitchKind::Boosted { digits: 1 },
                &lowered.rotation_steps,
                &mut rng,
            );
            let img: Vec<f64> = (0..slots).map(|i| (i % 7) as f64 * 0.1 - 0.3).collect();
            let cx = ctx.encrypt(&ctx.encode(&img, ctx.default_scale(), limbs), &sk, &mut rng);
            let run_compiled = || {
                let mut exec = PipelineExecutor::new(
                    &ctx,
                    &ckeys,
                    ExecutorConfig {
                        checkpoint_every: 0,
                        max_retries: 0,
                        checkpoint_dir: None,
                    },
                )
                .expect("executor");
                match exec
                    .run_graph(std::slice::from_ref(&cx), &lowered.program)
                    .expect("compiled run")
                {
                    RunOutcome::Completed(out) => out,
                    RunOutcome::Crashed => unreachable!("no fault plan"),
                }
            };
            results.push((
                "compiled_layer_run",
                time_ns(cfg.smoke, || {
                    std::hint::black_box(run_compiled());
                }),
            ));
        }

        // --- One BSGS inner sum through the executor ----------------------
        // A lowered 8-diagonal giant group (`cl_apps::inner_sum_runnable`:
        // no rotation, so the row is the sum alone) through `run_graph`
        // under Strict at N = 1K and 8K, `limbs` levels: the executor runs
        // it as one step accumulating in place. Smoke: one tiny shape
        // under both names.
        for (name, n_sum) in [
            ("exec_inner_sum_1k", 1usize << 10),
            ("exec_inner_sum_8k", 1 << 13),
        ] {
            let n_sum = if cfg.smoke { n } else { n_sum };
            let params = CkksParams::builder()
                .ring_degree(n_sum)
                .levels(limbs)
                .special_limbs(limbs)
                .limb_bits(bits)
                .scale_bits(bits - 4)
                .build()
                .expect("params");
            let ctx = CkksContext::new(params).expect("ckks context").with_policy(
                GuardrailPolicy::Strict {
                    min_budget_bits: -200.0,
                },
            );
            let slots = ctx.params().slots();
            let w = cl_apps::inner_sum_runnable(slots, limbs, 8);
            let lowered = cl_compiler::lower_to_program(
                &w.graph,
                &cl_compiler::LowerOptions {
                    slots,
                    plain: w.plain.clone(),
                    reorder: true,
                    auto_bootstrap: None,
                    max_live_cts: None,
                },
            )
            .expect("inner sum lowers");
            let mut rng = rand::rngs::StdRng::seed_from_u64(15);
            let sk = ctx.keygen(&mut rng);
            let skeys = cl_boot::BootstrapKeys::generate(
                &ctx,
                &sk,
                KeySwitchKind::Boosted { digits: 1 },
                &[],
                &mut rng,
            );
            let img: Vec<f64> = (0..slots).map(|i| (i % 7) as f64 * 0.1 - 0.3).collect();
            let sx = ctx.encrypt(&ctx.encode(&img, ctx.default_scale(), limbs), &sk, &mut rng);
            let mut exec = PipelineExecutor::new(
                &ctx,
                &skeys,
                ExecutorConfig {
                    checkpoint_every: 0,
                    max_retries: 0,
                    checkpoint_dir: None,
                },
            )
            .expect("executor");
            results.push((
                name,
                time_ns(cfg.smoke, || {
                    std::hint::black_box(
                        exec.run_graph(std::slice::from_ref(&sx), &lowered.program)
                            .expect("inner sum run"),
                    );
                }),
            ));
        }

        // --- One wave of giant groups through the executor ----------------
        // A lowered 64-diagonal BSGS layer (8 baby steps, 8 giant groups,
        // no activation) at N = 8K, `limbs` levels, prepared once and run
        // through `run_prepared`: one hoisted baby batch, then one wave
        // whose 8 bodies (a group's inner sum and giant rotation each) run
        // side by side on the pool. Smoke: the same layer at the smoke
        // ring.
        {
            let n_wave = if cfg.smoke { n } else { 1 << 13 };
            let params = CkksParams::builder()
                .ring_degree(n_wave)
                .levels(limbs)
                .special_limbs(limbs)
                .limb_bits(bits)
                .scale_bits(bits - 4)
                .build()
                .expect("params");
            let ctx = CkksContext::new(params).expect("ckks context").with_policy(
                GuardrailPolicy::Strict {
                    min_budget_bits: -200.0,
                },
            );
            let slots = ctx.params().slots();
            let w = cl_apps::lola_layer_runnable(slots, limbs, 64, 1, false);
            let lowered = cl_compiler::lower_to_program(
                &w.graph,
                &cl_compiler::LowerOptions {
                    slots,
                    plain: w.plain.clone(),
                    reorder: true,
                    auto_bootstrap: None,
                    max_live_cts: None,
                },
            )
            .expect("layer lowers");
            let prepared = cl_runtime::PreparedProgram::new(&ctx, lowered.program);
            assert_eq!(
                prepared.waves().iter().map(|w| w.bodies().count()).collect::<Vec<_>>(),
                [8],
                "the layer's giant groups form one wave"
            );
            let mut rng = rand::rngs::StdRng::seed_from_u64(16);
            let sk = ctx.keygen(&mut rng);
            let wkeys = cl_boot::BootstrapKeys::generate(
                &ctx,
                &sk,
                KeySwitchKind::Boosted { digits: 1 },
                &lowered.rotation_steps,
                &mut rng,
            );
            let img: Vec<f64> = (0..slots).map(|i| (i % 7) as f64 * 0.1 - 0.3).collect();
            let wx = ctx.encrypt(&ctx.encode(&img, ctx.default_scale(), limbs), &sk, &mut rng);
            let mut exec = PipelineExecutor::new(
                &ctx,
                &wkeys,
                ExecutorConfig {
                    checkpoint_every: 0,
                    max_retries: 0,
                    checkpoint_dir: None,
                },
            )
            .expect("executor");
            results.push((
                "exec_wave_8k",
                time_ns(cfg.smoke, || {
                    std::hint::black_box(
                        exec.run_prepared(std::slice::from_ref(&wx), &prepared)
                            .expect("wave run"),
                    );
                }),
            ));
        }

        // --- EvalMod: the bootstrap's two sine chains ----------------------
        // The `Split → EvalBoth` step at the boot_chain_1k shape (N = 1K,
        // 20 + 20 45-bit limbs, a sparse secret of weight 8): the real and
        // imaginary chains are the two tasks of one pool region, so the
        // serial pass against the `nproc` pass shows what running them
        // side by side buys. Smoke: N = 256.
        {
            let n_boot = if cfg.smoke { 1 << 8 } else { 1 << 10 };
            let params = CkksParams::builder()
                .ring_degree(n_boot)
                .levels(20)
                .special_limbs(20)
                .limb_bits(45)
                .scale_bits(45)
                .build()
                .expect("params");
            let ctx = CkksContext::new(params).expect("ckks context");
            let mut rng = rand::rngs::StdRng::seed_from_u64(17);
            let sk = ctx.keygen_sparse(8, &mut rng);
            let booter = Bootstrapper::new(&ctx, 8);
            let keys = booter.keygen(&ctx, &sk, KeySwitchKind::Boosted { digits: 1 }, &mut rng);
            let slots = ctx.params().slots();
            let vals: Vec<f64> = (0..slots).map(|i| (i % 13) as f64 / 13.0 - 0.5).collect();
            let ct = ctx.encrypt(&ctx.encode(&vals, ctx.default_scale(), 1), &sk, &mut rng);
            let mut split = BootState::Start { ct };
            for _ in 0..2 {
                split = booter.try_step(&ctx, split, &keys).expect("bootstrap stage");
            }
            results.push((
                "eval_mod_1k",
                time_ns(cfg.smoke, || {
                    std::hint::black_box(
                        booter.try_step(&ctx, split.clone(), &keys).expect("EvalMod step"),
                    );
                }),
            ));
        }

        // --- Job server: scheduling overhead and scaling -------------------
        // The same batch of jobs three ways: straight through the executor
        // (no server), through a 1-worker JobServer (pure admission/queue/
        // dispatch overhead — `scripts/bench.sh --check` gates this ratio at
        // <= ~10%), and through a CL_THREADS-worker server (throughput
        // scaling). Checkpointing is off in all three so the delta is
        // scheduling alone. Each timed call is a full server lifecycle:
        // start, register, submit the batch, drain, shut down.
        {
            use std::sync::Arc;

            use cl_server::{Blob, FsyncPolicy, JobServer, JobSpec, ServerConfig};

            // Full mode uses a 16-job batch so per-lifecycle fixed costs
            // (worker/supervisor spawn, first-job key-blob parse, journal
            // open) amortize out and the gated ratios measure steady-state
            // per-job overhead, not lifecycle setup.
            let jobs = if cfg.smoke { 2 } else { 16 };
            let fp = ctx.params_fingerprint();
            // One shared Blob per payload: each submitted clone shares the
            // allocation and the cached content digest, which is how a real
            // client submits a batch under one key bundle.
            let program_blob = Blob::new(program.serialize(fp));
            let input_blob = Blob::new(ctx.serialize_ciphertext(&ct));
            let key_blob = Blob::new(keys.serialize(&ctx));
            // Prefer tmpfs for the server root: the journal-overhead gate
            // exists to catch *code* regressions (framing, hashing, extra
            // copies, fsync discipline), and on a contended ext4 the ~15 MB
            // a 16-job lifecycle flushes costs 60-90 ms of pure device
            // time with run-to-run swings larger than the overhead being
            // gated. Durability on real disks is proven by the chaos tests;
            // here the device must not drown the measurement.
            let shm = std::path::Path::new("/dev/shm");
            let root = if shm.is_dir() {
                shm.to_path_buf()
            } else {
                std::env::temp_dir()
            }
            .join(format!("cl_bench_server_{}", std::process::id()));
            let serve = |workers: usize, journal: bool| {
                let server = JobServer::start(ServerConfig {
                    workers,
                    queue_capacity: jobs.max(16),
                    tenant_queue_capacity: jobs.max(16),
                    checkpoint_root: root.clone(),
                    checkpoint_every: 0,
                    backoff_base_ms: 0,
                    // Scheduling kernels journal nothing so the 1-worker
                    // delta over the sequential baseline is queueing alone;
                    // `server_journal` turns it on (at the production
                    // default batch fsync) to price crash durability.
                    journal,
                    journal_fsync: FsyncPolicy::Batch(32),
                    ..ServerConfig::default()
                })
                .expect("server start");
                server
                    .register_tenant("bench", Arc::clone(&ctx))
                    .expect("register tenant");
                for _ in 0..jobs {
                    server
                        .submit(JobSpec::new(
                            "bench",
                            program_blob.clone(),
                            input_blob.clone(),
                            key_blob.clone(),
                        ))
                        .expect("queue sized for the whole batch");
                }
                let outcomes = server.shutdown();
                assert!(
                    outcomes.iter().all(cl_server::JobOutcome::is_ok),
                    "bench jobs must all complete"
                );
                // Each timed lifecycle starts from a fresh journal — an
                // inherited file would grow across iterations and drift
                // the open/replay cost.
                let _ = std::fs::remove_dir_all(root.join("journal"));
            };
            let run_seq = || {
                for _ in 0..jobs {
                    std::hint::black_box(run(ExecutorConfig {
                        checkpoint_every: 0,
                        max_retries: 0,
                        checkpoint_dir: None,
                    }));
                }
            };
            // `bench.sh --check` gates the 1w/seq and journal/1w ratios at
            // <= ~10% each. Timed independently (one kernel's iterations
            // back to back, then the next), the two sides of a ratio run
            // minutes apart — long enough for thermal/background drift to
            // dwarf the few-percent overheads being gated, which made the
            // gates flap on identical code. Interleave the four variants
            // round-robin and take per-variant minima instead: drift then
            // lands on every variant equally and cancels out of the ratios.
            let variants: [(&'static str, &dyn Fn()); 4] = [
                ("server_seq_baseline", &run_seq),
                ("server_jobs_1w", &|| serve(1, false)),
                ("server_jobs_mt", &|| serve(threads.max(1), false)),
                ("server_journal", &|| serve(1, true)),
            ];
            // More rounds than time_ns would use: the journal variant's
            // fsync cost rides on disk state, so its minimum needs more
            // samples to converge.
            let rounds = if cfg.smoke { 1 } else { 9 };
            let mut best = [f64::INFINITY; 4];
            for (_, f) in &variants {
                f(); // warm-up
            }
            for _ in 0..rounds {
                for (i, (_, f)) in variants.iter().enumerate() {
                    let t = Instant::now();
                    f();
                    best[i] = best[i].min(t.elapsed().as_nanos() as f64);
                }
            }
            for (i, (name, _)) in variants.iter().enumerate() {
                results.push((name, best[i]));
            }
            let _ = std::fs::remove_dir_all(&root);
        }
    }

    let butterflies = (n / 2 * n.trailing_zeros() as usize * limbs) as f64;
    let rates: Vec<(&str, f64)> = ["ntt_forward", "ntt_inverse"]
        .into_iter()
        .filter_map(|k| results.iter().find(|(name, _)| *name == k))
        .map(|&(name, ns)| (name, butterflies / ns))
        .collect();
    // The scan reads both polynomials of the ciphertext once: bytes per ns
    // is GB/s.
    let ct_bytes = (2 * limbs * n * std::mem::size_of::<u64>()) as f64;
    let scans: Vec<(&str, f64)> = results
        .iter()
        .filter(|(name, _)| *name == "ct_validate")
        .map(|&(name, ns)| (name, ct_bytes / ns))
        .collect();

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"label\": \"{}\",", cfg.label);
    let _ = writeln!(json, "  \"n\": {n},");
    let _ = writeln!(json, "  \"limbs\": {limbs},");
    let _ = writeln!(json, "  \"limb_bits\": {bits},");
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"backend\": \"{}\",", cl_math::active_backend());
    let feats: Vec<String> = cl_math::cpu_features()
        .iter()
        .map(|(name, on)| format!("\"{name}\": {on}"))
        .collect();
    let _ = writeln!(json, "  \"cpu_features\": {{{}}},", feats.join(", "));
    let _ = writeln!(json, "  \"smoke\": {},", cfg.smoke);
    let _ = writeln!(json, "  \"kernels_ns\": {{");
    for (i, (name, ns)) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        let _ = writeln!(json, "    \"{name}\": {ns:.0}{comma}");
    }
    let _ = writeln!(json, "  }},");
    let rates_json: Vec<String> = rates.iter().map(|(name, r)| format!("\"{name}\": {r:.4}")).collect();
    let _ = writeln!(json, "  \"butterflies_per_ns\": {{{}}},", rates_json.join(", "));
    let scans_json: Vec<String> = scans.iter().map(|(name, r)| format!("\"{name}\": {r:.3}")).collect();
    let _ = writeln!(json, "  \"gb_per_s\": {{{}}},", scans_json.join(", "));
    let crb_json: Vec<String> = crb_rates.iter().map(|(name, r)| format!("\"{name}\": {r:.4}")).collect();
    let _ = writeln!(json, "  \"mac_vectors_per_ns\": {{{}}}", crb_json.join(", "));
    let _ = writeln!(json, "}}");

    for (name, ns) in &results {
        if name.ends_with("_bytes") {
            println!("{name:>16}: {:>12.1} KiB resident", ns / 1024.0);
        } else {
            println!("{name:>16}: {:>12.1} us/op", ns / 1000.0);
        }
    }
    for (name, r) in &rates {
        println!("{name:>16}: {r:>12.3} butterflies/ns");
    }
    for (name, r) in &scans {
        println!("{name:>16}: {r:>12.3} GB/s");
    }
    for (name, r) in &crb_rates {
        println!("{name:>16}: {r:>12.3} MAC vectors/ns");
    }
    if let Some(path) = &cfg.out {
        std::fs::write(path, &json).expect("write JSON output");
        eprintln!("bench_kernels: wrote {path}");
    } else {
        println!("{json}");
    }
}

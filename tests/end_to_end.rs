//! Cross-crate integration tests: the functional library, the analytic
//! cost model, the compiler, and the machine model agree with each other
//! and with the paper's headline claims.

use craterlake::apps::{
    deep_benchmarks, lola_mnist_uw, packed_bootstrapping, unpacked_bootstrapping,
};
use craterlake::baselines::{craterlake_options, f1_plus_options, CpuModel};
use craterlake::ckks::{CkksContext, CkksParams, KeySwitchKind};
use craterlake::compiler::{compile_and_run, CompileOptions, KsPolicy};
use craterlake::core::{energy, ArchConfig};
use craterlake::isa::{FuKind, HeGraph, TrafficClass};

#[test]
fn simulator_ntt_accounting_matches_cost_formulas() {
    // One rotation at level L with 1-digit boosted keyswitching must charge
    // exactly (3+t)L + 2a logical NTTs (x2 unit passes) plus the rescale-free
    // automorphism work.
    let l = 20usize;
    let mut g = HeGraph::new();
    let x = g.input(l);
    let r = g.rotate(x, 5);
    g.output(r);
    let arch = ArchConfig::craterlake();
    let opts = CompileOptions {
        reorder: false,
        n: 1 << 16,
        ks_policy: KsPolicy::Fixed(craterlake::isa::KsAlgorithm::Boosted(1)),
    };
    let stats = compile_and_run(&g, &arch, &opts);
    let counts = craterlake::isa::cost::boosted_keyswitch_ops(l, 1);
    // NTT instance-busy cycles = 2 unit passes x logical NTTs x N/E.
    let expect = 2.0 * counts.ntt as f64 * (1 << 16) as f64 / arch.lanes as f64;
    let got = stats.fu_busy[&FuKind::Ntt];
    assert!(
        (got - expect).abs() < 1e-6,
        "NTT accounting: got {got}, expected {expect}"
    );
}

#[test]
fn keyswitch_hint_traffic_matches_size_formulas() {
    // A single rotation fetches exactly one seeded 1-digit hint.
    let l = 30usize;
    let n = 1 << 16;
    let mut g = HeGraph::new();
    let x = g.input(l);
    let r = g.rotate(x, 1);
    g.output(r);
    let (arch, _) = craterlake_options(n);
    let opts = CompileOptions {
        reorder: false,
        n,
        ks_policy: KsPolicy::Fixed(craterlake::isa::KsAlgorithm::Boosted(1)),
    };
    let stats = compile_and_run(&g, &arch, &opts);
    let expect = craterlake::isa::cost::boosted_ksh_bytes(n, l, 1, 28, true) as f64;
    let got = stats.traffic_of(TrafficClass::Ksh);
    assert!((got - expect).abs() < 1.0, "hint bytes: {got} vs {expect}");
}

#[test]
fn packed_bootstrapping_headline_shape() {
    // The paper's headline: milliseconds on CraterLake, seconds on the CPU.
    let b = packed_bootstrapping();
    let (arch, opts) = craterlake_options(b.n);
    let stats = compile_and_run(&b.graph, &arch, &opts);
    let ms = stats.exec_ms(&arch);
    assert!(
        (1.0..10.0).contains(&ms),
        "packed bootstrapping should take single-digit ms, got {ms}"
    );
    let cpu = CpuModel::paper_calibrated();
    let cpu_s = cpu.time_for_graph(&b.graph, b.n, &opts.ks_policy);
    assert!(cpu_s > 5.0, "CPU bootstrapping takes many seconds, got {cpu_s}");
    let speedup = cpu_s * 1e3 / ms;
    assert!(
        speedup > 1000.0,
        "CraterLake must be >1,000x the CPU on bootstrapping, got {speedup}"
    );
}

#[test]
fn craterlake_beats_f1_plus_on_deep_not_much_on_shallow() {
    let deep = packed_bootstrapping();
    let shallow = lola_mnist_uw();
    let deep_cl = {
        let (a, o) = craterlake_options(deep.n);
        compile_and_run(&deep.graph, &a, &o).cycles
    };
    let deep_f1 = {
        let (a, o) = f1_plus_options(deep.n);
        compile_and_run(&deep.graph, &a, &o).cycles
    };
    let shallow_cl = {
        let (a, o) = craterlake_options(shallow.n);
        compile_and_run(&shallow.graph, &a, &o).cycles
    };
    let shallow_f1 = {
        let (a, o) = f1_plus_options(shallow.n);
        compile_and_run(&shallow.graph, &a, &o).cycles
    };
    // Every deep benchmark runs faster on CraterLake (the e2e benchmark's
    // own sanity rule for a Table 3 sweep).
    for b in deep_benchmarks() {
        let (a, o) = craterlake_options(b.n);
        let cl = compile_and_run(&b.graph, &a, &o).cycles;
        let (a, o) = f1_plus_options(b.n);
        let f1 = compile_and_run(&b.graph, &a, &o).cycles;
        assert!(cl < f1, "{}: CraterLake {cl} vs F1+ {f1} cycles", b.name);
    }
    let deep_ratio = deep_f1 / deep_cl;
    let shallow_ratio = shallow_f1 / shallow_cl;
    assert!(deep_ratio > 2.0, "deep speedup vs F1+ too small: {deep_ratio}");
    assert!(
        shallow_ratio < deep_ratio,
        "F1+ must be comparatively better on shallow work: {shallow_ratio} vs {deep_ratio}"
    );
}

#[test]
fn power_stays_within_the_paper_envelope() {
    // Sec. 9.2: power stays within a 320 W envelope.
    for b in [packed_bootstrapping(), unpacked_bootstrapping(), lola_mnist_uw()] {
        let (arch, opts) = craterlake_options(b.n);
        let stats = compile_and_run(&b.graph, &arch, &opts);
        let p = energy::power_breakdown(&arch, &stats);
        assert!(
            p.total() < 320.0,
            "{} exceeds the 320 W envelope: {:.0} W",
            b.name,
            p.total()
        );
    }
}

#[test]
fn smaller_register_file_hurts_deep_benchmarks() {
    // Fig. 11: every deep benchmark suffers with less on-chip storage
    // (0.47-0.66x at 100 MB in EXPERIMENTS.md).
    for b in deep_benchmarks() {
        let (_, opts) = craterlake_options(b.n);
        let base = compile_and_run(&b.graph, &ArchConfig::craterlake(), &opts).cycles;
        let small = compile_and_run(
            &b.graph,
            &ArchConfig::craterlake().with_rf_bytes(100 << 20),
            &opts,
        )
        .cycles;
        assert!(
            small > base,
            "{}: a 100 MB register file must cost time ({small} vs {base} cycles)",
            b.name
        );
    }
}

#[test]
fn functional_and_modeled_keyswitching_share_op_structure() {
    // The functional library's hint sizes obey the same formulas the
    // performance model uses.
    let params = CkksParams::builder()
        .ring_degree(64)
        .levels(6)
        .special_limbs(6)
        .limb_bits(40)
        .scale_bits(36)
        .build()
        .unwrap();
    let ctx = CkksContext::new(params).unwrap();
    let mut rng = rand::thread_rng();
    let sk = ctx.keygen(&mut rng);
    for digits in 1..=3usize {
        let ksk = ctx.relin_keygen(&sk, KeySwitchKind::Boosted { digits }, &mut rng);
        let words_model =
            craterlake::isa::cost::boosted_ksh_bytes(64, 6, digits, 64, false) / 8;
        assert_eq!(
            ksk.num_words_full() as u64,
            words_model,
            "hint words mismatch at t={digits}"
        );
    }
}

#[test]
fn homomorphic_pipeline_matches_plaintext_reference() {
    // A small dot-product + polynomial pipeline computed homomorphically
    // equals the plaintext computation (the core privacy claim of Fig. 1).
    let params = CkksParams::builder()
        .ring_degree(256)
        .levels(5)
        .special_limbs(5)
        .limb_bits(45)
        .scale_bits(45)
        .build()
        .unwrap();
    let ctx = CkksContext::new(params).unwrap();
    let mut rng = rand::thread_rng();
    let sk = ctx.keygen(&mut rng);
    let kind = KeySwitchKind::Boosted { digits: 1 };
    let relin = ctx.relin_keygen(&sk, kind, &mut rng);
    let xs: Vec<f64> = (0..8).map(|i| (i as f64) / 4.0 - 1.0).collect();
    let pt = ctx.encode(&xs, ctx.default_scale(), ctx.max_level());
    let ct = ctx.encrypt(&pt, &sk, &mut rng);
    // y = x^2 - x  homomorphically.
    let sq = ctx
        .try_rescale(&ctx.try_square(&ct, &relin).unwrap())
        .unwrap();
    let x_d = ctx.try_mod_drop(&ct, sq.level()).unwrap();
    let y = ctx.try_sub(&sq, &x_d.with_scale(sq.scale())).unwrap();
    let got = ctx.decode(&ctx.decrypt(&y, &sk), 8);
    for (g, &x) in got.iter().zip(&xs) {
        assert!((g - (x * x - x)).abs() < 1e-4, "{g} vs {}", x * x - x);
    }
}

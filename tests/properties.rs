//! Property-based tests on cross-crate invariants: random programs through
//! the compiler and machine model must respect physical laws (no negative
//! times, monotone resource usage, conservation of traffic), and random
//! data through the functional library must round-trip.

use proptest::prelude::*;
use rand::SeedableRng as _;

use craterlake::baselines::craterlake_options;
use craterlake::compiler::{compile_and_run, CompileOptions};
use craterlake::core::ArchConfig;
use craterlake::isa::{HeGraph, NodeId};

/// Builds a random but well-formed HE graph from a compact recipe.
fn random_graph(ops: &[(u8, u8)], level: usize) -> HeGraph {
    let mut g = HeGraph::new();
    let mut pool: Vec<NodeId> = vec![g.input(level), g.input(level)];
    for &(kind, sel) in ops {
        let a = pool[sel as usize % pool.len()];
        let la = g.node(a).level;
        let new = match kind % 6 {
            0 => {
                let b = pool[(sel as usize / 2) % pool.len()];
                let b = g.mod_drop(b, la.min(g.node(b).level));
                let a = g.mod_drop(a, g.node(b).level);
                g.add(a, b)
            }
            1 if la >= 2 => {
                let m = g.mul_ct(a, a);
                g.rescale(m)
            }
            2 => g.rotate(a, (sel % 7) as i64 + 1),
            3 => {
                let p = g.plain_input(la);
                g.mul_plain(a, p)
            }
            4 if la >= 2 => g.rescale(a),
            _ => g.conjugate(a),
        };
        pool.push(new);
        if pool.len() > 6 {
            pool.remove(0);
        }
    }
    let last = *pool.last().unwrap();
    g.output(last);
    g
}

/// Small context shared by the serialization properties: 4 levels so
/// random ciphertext levels and digit counts have room to vary.
fn serialization_ctx() -> craterlake::ckks::CkksContext {
    use craterlake::ckks::{CkksContext, CkksParams};
    let params = CkksParams::builder()
        .ring_degree(128)
        .levels(4)
        .special_limbs(4)
        .limb_bits(45)
        .scale_bits(40)
        .build()
        .unwrap();
    CkksContext::new(params).unwrap()
}

/// A load result counts as an integrity rejection only for the three
/// serialization error variants — damage must be *diagnosed*, not just
/// fail somehow.
fn is_integrity_rejection<T>(r: &Result<T, craterlake::ckks::FheError>) -> bool {
    use craterlake::ckks::FheError;
    matches!(
        r,
        Err(FheError::Serialization { .. }
            | FheError::ChecksumMismatch { .. }
            | FheError::ParamsMismatch { .. })
    )
}

/// Exhaustive companion to the sampled corruption property: *every* byte
/// position of one ciphertext blob, flipped one at a time, must be
/// rejected. This nails the sections random sampling rarely lands on
/// (magic, version, reserved byte, the checksum fields themselves).
#[test]
fn every_single_byte_flip_of_a_ciphertext_blob_is_rejected() {
    use rand::SeedableRng;
    let ctx = serialization_ctx();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xD15C);
    let sk = ctx.keygen(&mut rng);
    let pt = ctx.encode(&[0.25, -0.75, 3.0], ctx.default_scale(), 2);
    let ct = ctx.encrypt(&pt, &sk, &mut rng);
    let blob = ctx.serialize_ciphertext(&ct);
    for i in 0..blob.len() {
        let mut bad = blob.clone();
        bad[i] ^= 0x01;
        let r = ctx.try_deserialize_ciphertext(&bad);
        assert!(
            is_integrity_rejection(&r),
            "byte {i} of {} flipped without rejection",
            blob.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_programs_schedule_sanely(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..40),
        level in 8usize..40,
    ) {
        let g = random_graph(&ops, level);
        g.validate();
        let (arch, opts) = craterlake_options(1 << 16);
        let stats = compile_and_run(&g, &arch, &opts);
        // Physical sanity.
        prop_assert!(stats.cycles >= 0.0);
        prop_assert!(stats.hbm_busy <= stats.cycles + 1e-6);
        prop_assert!(stats.fu_utilization(&arch) <= 1.0 + 1e-9);
        prop_assert!(stats.bw_utilization() <= 1.0 + 1e-9);
        // Traffic is conserved: every byte belongs to a class.
        let sum: f64 = [
            craterlake::isa::TrafficClass::Ksh,
            craterlake::isa::TrafficClass::Input,
            craterlake::isa::TrafficClass::IntermLoad,
            craterlake::isa::TrafficClass::IntermStore,
        ]
        .iter()
        .map(|&c| stats.traffic_of(c))
        .sum();
        prop_assert!((sum - stats.total_traffic_bytes()).abs() < 1.0);
    }

    #[test]
    fn reordering_never_breaks_or_inflates_cycles_unboundedly(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..30),
    ) {
        let g = random_graph(&ops, 20);
        let (arch, base) = craterlake_options(1 << 16);
        let reordered_opts = CompileOptions { reorder: true, ..base.clone() };
        let a = compile_and_run(&g, &arch, &base);
        let b = compile_and_run(&g, &arch, &reordered_opts);
        // Reordering changes locality, not work: FU busy time is identical.
        prop_assert!((a.total_fu_busy() - b.total_fu_busy()).abs() < 1e-6);
    }

    #[test]
    fn more_bandwidth_never_hurts(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..25),
    ) {
        let g = random_graph(&ops, 30);
        let (_, opts) = craterlake_options(1 << 16);
        let slow = {
            let mut a = ArchConfig::craterlake();
            a.hbm_bytes_per_cycle = 512.0;
            compile_and_run(&g, &a, &opts).cycles
        };
        let fast = {
            let mut a = ArchConfig::craterlake();
            a.hbm_bytes_per_cycle = 2048.0;
            compile_and_run(&g, &a, &opts).cycles
        };
        prop_assert!(fast <= slow + 1e-6, "more bandwidth slowed things down");
    }

    #[test]
    fn ckks_roundtrip_random_vectors(seed in any::<u64>()) {
        use craterlake::ckks::{CkksContext, CkksParams};
        use rand::SeedableRng;
        let params = CkksParams::builder()
            .ring_degree(128)
            .levels(2)
            .special_limbs(2)
            .limb_bits(45)
            .scale_bits(40)
            .build()
            .unwrap();
        let ctx = CkksContext::new(params).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let sk = ctx.keygen(&mut rng);
        let vals: Vec<f64> = (0..64)
            .map(|_| rand::Rng::gen_range(&mut rng, -100.0..100.0))
            .collect();
        let pt = ctx.encode(&vals, ctx.default_scale(), 2);
        let ct = ctx.encrypt(&pt, &sk, &mut rng);
        let back = ctx.decode(&ctx.decrypt(&ct, &sk), 64);
        for (a, b) in back.iter().zip(&vals) {
            prop_assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn serialized_ciphertexts_roundtrip_bit_identically(
        seed in any::<u64>(),
        level in 1usize..5,
    ) {
        let ctx = serialization_ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let sk = ctx.keygen(&mut rng);
        let vals: Vec<f64> = (0..32)
            .map(|_| rand::Rng::gen_range(&mut rng, -10.0..10.0))
            .collect();
        let pt = ctx.encode(&vals, ctx.default_scale(), level);
        let ct = ctx.encrypt(&pt, &sk, &mut rng);
        let blob = ctx.serialize_ciphertext(&ct);
        let back = ctx.try_deserialize_ciphertext(&blob).unwrap();
        prop_assert_eq!(&back, &ct, "limb words, level, scale, and noise must survive");
        // Re-serialization is byte-identical: the format has one encoding.
        prop_assert_eq!(ctx.serialize_ciphertext(&back), blob);
    }

    #[test]
    fn serialized_keyswitch_hints_roundtrip(
        seed in any::<u64>(),
        digits in 1usize..4,
        standard in any::<bool>(),
    ) {
        use craterlake::ckks::KeySwitchKind;
        let ctx = serialization_ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let sk = ctx.keygen(&mut rng);
        let kind = if standard {
            KeySwitchKind::Standard
        } else {
            KeySwitchKind::Boosted { digits }
        };
        let ksk = ctx.relin_keygen(&sk, kind, &mut rng);
        // One wire path: compact form out, compact load, expand in.
        let blob = ctx.serialize_compact_keyswitch_key(&ksk.to_compact());
        let back = ctx
            .try_deserialize_compact_keyswitch_key(&blob)
            .unwrap()
            .expand(&ctx)
            .unwrap();
        prop_assert!(back.verify_integrity(), "regenerated hint must pass its digest");
        prop_assert_eq!(ctx.serialize_compact_keyswitch_key(&back.to_compact()), blob);
    }

    #[test]
    fn corrupting_any_single_byte_of_a_blob_is_rejected(
        seed in any::<u64>(),
        ct_byte in any::<u64>(),
        ksk_byte in any::<u64>(),
    ) {
        let ctx = serialization_ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let sk = ctx.keygen(&mut rng);
        let pt = ctx.encode(&[1.5, -2.5], ctx.default_scale(), 2);
        let ct = ctx.encrypt(&pt, &sk, &mut rng);
        let mut blob = ctx.serialize_ciphertext(&ct);
        let i = (ct_byte as usize) % blob.len();
        blob[i] ^= 0x01;
        prop_assert!(
            is_integrity_rejection(&ctx.try_deserialize_ciphertext(&blob)),
            "flipping ciphertext byte {i} was not rejected"
        );

        let ksk = ctx.relin_keygen(&sk, craterlake::ckks::KeySwitchKind::Standard, &mut rng);
        let mut blob = ctx.serialize_compact_keyswitch_key(&ksk.to_compact());
        let i = (ksk_byte as usize) % blob.len();
        blob[i] ^= 0x01;
        // Every byte sits under a sealed section or a limb checksum, so the
        // compact load itself rejects the flip; expand never sees it.
        prop_assert!(
            is_integrity_rejection(&ctx.try_deserialize_compact_keyswitch_key(&blob)),
            "flipping keyswitch-hint byte {i} was not rejected"
        );
    }
}

// ---------------------------------------------------------------------------
// Write-ahead journal damage tolerance (crash-durable serving).
// ---------------------------------------------------------------------------

/// Writes a small but representative journal — shared blobs, four jobs in
/// different lifecycle states — and returns its on-disk bytes plus the
/// set of job ids it contains.
fn seeded_journal_bytes() -> (Vec<u8>, Vec<u64>) {
    use craterlake::server::{FsyncPolicy, Journal};
    let dir = std::env::temp_dir().join(format!(
        "cl-journal-prop-seed-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut journal, _) = Journal::open(&dir, FsyncPolicy::Never, 1_000).unwrap();
    let program = vec![0xA5u8; 24];
    let keys = vec![0x5Au8; 48];
    let ids = vec![10u64, 11, 12, 13];
    for (i, &id) in ids.iter().enumerate() {
        let p = journal.append_blob(&program).unwrap();
        let input = vec![i as u8; 32];
        let inp = journal.append_blob(&input).unwrap();
        let k = journal.append_blob(&keys).unwrap();
        journal
            .append_admitted(id, "tenant-x", Some(5_000), p, inp, k)
            .unwrap();
    }
    journal.append_dispatched(10).unwrap();
    journal.append_dispatched(11).unwrap();
    journal.append_completed(10, &[1, 2, 3, 4]).unwrap();
    journal.append_failed(11, 4, "integrity failure").unwrap();
    journal.sync().unwrap();
    let path = journal.path().to_path_buf();
    drop(journal);
    let bytes = std::fs::read(path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    (bytes, ids)
}

/// Reopens journal bytes written to a fresh directory, asserting the
/// replay machinery's damage contract: no panic, no error, and —
/// because every record body is checksummed — anything replayed is a
/// byte-identical original record, so replayed job ids are always a
/// subset of the originals.
fn assert_journal_damage_tolerated(tag: &str, bytes: &[u8], original_ids: &[u64]) {
    use craterlake::server::{FsyncPolicy, Journal};
    let dir = std::env::temp_dir().join(format!(
        "cl-journal-prop-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("journal-0.wal"), bytes).unwrap();
    let (_, replay) =
        Journal::open(&dir, FsyncPolicy::Never, 1_000).expect("damage must never be fatal");
    for job in &replay.jobs {
        assert!(
            original_ids.contains(&job.id),
            "{tag}: replayed id {} never existed (checksum let damage through)",
            job.id
        );
        // A damaged `Admitted` record may leave a partial entry (merged
        // from later lifecycle records) with an empty tenant; an entry
        // that *claims* admission must carry the original tenant intact.
        if job.admitted {
            assert_eq!(job.tenant, "tenant-x", "{tag}: tenant field damaged");
        } else {
            assert!(job.tenant.is_empty(), "{tag}: fabricated tenant");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Exhaustive sweep: every single-byte flip and every truncation length
/// of a journal file is absorbed — damaged records are skipped (and the
/// scan resyncs to later intact records), never a panic, never an error,
/// never a fabricated job.
#[test]
fn journal_survives_every_single_byte_flip_and_truncation() {
    let (bytes, ids) = seeded_journal_bytes();
    for i in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[i] ^= 0x01;
        assert_journal_damage_tolerated("flip", &bad, &ids);
    }
    for cut in 0..bytes.len() {
        assert_journal_damage_tolerated("cut", &bytes[..cut], &ids);
    }
}

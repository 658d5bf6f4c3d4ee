//! Golden record of the wire format: the length and a 64-bit FNV-1a digest
//! of one fixed-seed blob per object and record kind.
//!
//! Every blob a release writes — ciphertexts, keyswitch hints, key
//! bundles, bootstrap states, checkpoint records, programs — may outlive
//! the process that wrote it (journals, checkpoint directories, key
//! stores), so a codec refactor must leave each byte where it was. The
//! digests below were recorded with `FORMAT_VERSION` 3; they are
//! re-recorded only together with a `FORMAT_VERSION` bump.

use std::path::PathBuf;

use craterlake::boot::{BootState, BootstrapKeys};
use craterlake::ckks::serialize::FORMAT_VERSION;
use craterlake::ckks::{CkksContext, CkksParams, KeySwitchKind};
use craterlake::runtime::{Checkpoint, CheckpointStore, PipelineOp, Program, WorkState};
use rand::SeedableRng;

/// Byte-wise FNV-1a, kept local so the record does not depend on the
/// library's own checksum helpers.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

fn ctx() -> CkksContext {
    let params = CkksParams::builder()
        .ring_degree(64)
        .levels(4)
        .special_limbs(4)
        .limb_bits(40)
        .scale_bits(32)
        .build()
        .unwrap();
    CkksContext::new(params).unwrap()
}

/// A program holding every op tag (0..=16) once.
fn every_op_program() -> Program {
    Program::new()
        .then(PipelineOp::Square)
        .then(PipelineOp::Rescale)
        .then(PipelineOp::AddPlain(vec![0.25, -1.5]))
        .then(PipelineOp::MulPlainRescale(vec![2.0]))
        .then(PipelineOp::Rotate(-3))
        .then(PipelineOp::Conjugate)
        .then(PipelineOp::Bootstrap)
        .then(PipelineOp::Load(4))
        .then(PipelineOp::Store(4))
        .then(PipelineOp::Free(4))
        .then(PipelineOp::Input(1))
        .then(PipelineOp::AddSlot(4))
        .then(PipelineOp::SubSlot(2))
        .then(PipelineOp::MulCtSlot(7))
        .then(PipelineOp::MulPlain(vec![0.5, 3.25]))
        .then(PipelineOp::RotateHoisted {
            steps: vec![1, -2, 5],
            dsts: vec![9, 10, 11],
        })
        .then(PipelineOp::ModDropTo(3))
}

/// The on-disk record a [`CheckpointStore`] writes for `cp` (its first
/// write lands in slot `a`).
fn checkpoint_record(ctx: &CkksContext, cp: &Checkpoint, tag: &str) -> Vec<u8> {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("cl-wire-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = CheckpointStore::open(&dir).unwrap();
    store.write(ctx, cp).unwrap();
    store.sync().unwrap();
    let bytes = std::fs::read(dir.join("ckpt_a.bin")).unwrap();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

/// One `(kind, blob)` per object and record kind, in a fixed order.
fn wire_blobs() -> Vec<(&'static str, Vec<u8>)> {
    let c = ctx();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x3117E);
    let sk = c.keygen(&mut rng);
    let enc = |vals: &[f64], level: usize, rng: &mut rand::rngs::StdRng| {
        c.encrypt(&c.encode(vals, c.default_scale(), level), &sk, rng)
    };
    let ct = enc(&[1.25, -0.5, 3.0], 3, &mut rng);
    let y_re = enc(&[0.125], 4, &mut rng);
    let y_im = enc(&[-0.75], 4, &mut rng);
    let slot = enc(&[2.0], 2, &mut rng);
    let hint = c
        .relin_keygen(&sk, KeySwitchKind::Boosted { digits: 2 }, &mut rng)
        .to_compact();
    let keys = BootstrapKeys::generate(&c, &sk, KeySwitchKind::Standard, &[1, -2], &mut rng);

    let start = BootState::Start { ct: ct.clone() };
    let split = BootState::Split {
        y_re,
        y_im,
        orig_scale: c.default_scale(),
    };
    let record = |state: WorkState, slots: Vec<(u16, _)>, tag| {
        let cp = Checkpoint {
            pc: 11,
            binding: 0xB1D1,
            state,
            slots,
        };
        checkpoint_record(&c, &cp, tag)
    };
    vec![
        ("ciphertext", c.serialize_ciphertext(&ct)),
        ("compact hint", c.serialize_compact_keyswitch_key(&hint)),
        ("bootstrap keys", keys.serialize(&c)),
        ("boot state Start", start.serialize(&c)),
        ("boot state Split", split.serialize(&c)),
        (
            "checkpoint kind 0",
            record(WorkState::Ct(ct.clone()), Vec::new(), "k0"),
        ),
        (
            "checkpoint kind 1",
            record(WorkState::Boot(Box::new(split)), Vec::new(), "k1"),
        ),
        (
            "checkpoint kind 2",
            record(WorkState::Ct(ct.clone()), vec![(3, slot), (9, ct)], "k2"),
        ),
        (
            "program",
            every_op_program().serialize(c.params_fingerprint()),
        ),
    ]
}

/// `(kind, length, FNV-1a digest)`, recorded at format version 3.
#[rustfmt::skip]
const GOLDEN: [(&str, usize, u64); 9] = [
    ("ciphertext", 3222, 0x17394e6a5764c2b6),
    ("compact hint", 6403, 0xf36d50a90a2d658d),
    ("bootstrap keys", 42608, 0x10dcf79e78e65735),
    ("boot state Start", 3244, 0x93ed73cab181b4f0),
    ("boot state Split", 8566, 0x3a8d4e7014880796),
    ("checkpoint kind 0", 3267, 0xa593ad1a41a943b1),
    ("checkpoint kind 1", 8611, 0x0199dc7efa8bc671),
    ("checkpoint kind 2", 8696, 0x483e177273600074),
    ("program", 177, 0xa669d9a310a8e3ed),
];

#[test]
fn every_blob_kind_matches_the_golden_record_byte_for_byte() {
    assert_eq!(FORMAT_VERSION, 3, "a format bump re-records this table");
    let got: Vec<(&str, usize, u64)> = wire_blobs()
        .iter()
        .map(|(kind, blob)| (*kind, blob.len(), digest(blob)))
        .collect();
    for (g, want) in got.iter().zip(GOLDEN.iter()) {
        assert_eq!(g, want, "wire bytes of {} moved", want.0);
    }
    assert_eq!(got.len(), GOLDEN.len());
}

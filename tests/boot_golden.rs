//! Golden record of the functional bootstrap: the length and a 64-bit
//! FNV-1a digest of everything a fixed-seed bootstrap writes, plus the
//! level and key steps of each radix stage's precompute.
//!
//! A refactor of `cl-boot` that leaves the arithmetic alone leaves every
//! number here where it was. A change that means to move bootstrap
//! arithmetic (a different split, level plan or EvalMod) re-records this
//! table and says so.

use craterlake::boot::{BootState, Bootstrapper, PrecomputedTransform};
use craterlake::ckks::{CkksContext, CkksParams, KeySwitchKind};
use rand::SeedableRng;

mod common;

/// Byte-wise FNV-1a, kept local so the record does not depend on the
/// library's own checksum helpers.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// N = 64, twenty 45-bit limbs.
fn ctx() -> CkksContext {
    let params = CkksParams::builder()
        .ring_degree(64)
        .levels(20)
        .special_limbs(20)
        .limb_bits(45)
        .scale_bits(45)
        .build()
        .unwrap();
    CkksContext::new(params).unwrap()
}

/// `(length, FNV-1a digest)` of the serialized bundle `keygen` returns.
const BUNDLE: (usize, u64) = (211312, 0x5854219eaef12989);

/// `(level, required steps)` of the four precompute entries `keygen`
/// fills, in the order the stages run: CoeffToSlot's coarse and fine
/// stage, then SlotToCoeff's fine and coarse one.
#[rustfmt::skip]
const PRECOMPUTE: [(usize, &[i64]); 4] = [
    (20, &[-12, 4, 8, 12]),
    (19, &[-3, 1, 2, 3]),
    (7, &[-3, 1, 2, 3]),
    (6, &[-12, 4, 8, 12]),
];

/// `(length, FNV-1a digest)` of the serialized state after each
/// `try_step`.
#[rustfmt::skip]
const STATES: [(&str, usize, u64); BootState::NUM_STAGES] = [
    ("Raised", 21060, 0x6daddad1229623e7),
    ("Split", 37910, 0xe306a6eca5e927f4),
    ("EvalBoth", 14854, 0xb57a8152b9cd0009),
    ("SlotHalf", 6388, 0xc84b113e6c7b4959),
    ("Done", 5340, 0xd4b76ef89046b2fc),
];

#[test]
fn bootstrap_matches_the_golden_record() {
    let ctx = ctx();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xB0075);
    let sk = ctx.keygen_sparse(8, &mut rng);
    let booter = Bootstrapper::new(&ctx, 8);
    let keys = booter.keygen(&ctx, &sk, KeySwitchKind::Boosted { digits: 1 }, &mut rng);
    let bundle = keys.serialize(&ctx);
    assert_eq!((bundle.len(), digest(&bundle)), BUNDLE, "key bundle");

    // The precompute cache lists no entries, so each stage is rebuilt
    // here from the special FFT at its level; the cache checks below show
    // the bootstrap runs on the four entries `keygen` encoded and no other.
    let slots = ctx.params().slots();
    for (diags, &(level, steps)) in common::fft_stage_diagonals(slots).iter().zip(&PRECOMPUTE) {
        let pre = PrecomputedTransform::new(&ctx, diags, level);
        assert_eq!(
            (pre.level(), pre.required_steps().as_slice()),
            (level, steps)
        );
    }
    assert_eq!(booter.precompute().len(), PRECOMPUTE.len());
    booter.precompute().reset_stats();

    let vals: Vec<f64> = (0..slots)
        .map(|i| ((i * 7 % 13) as f64 / 13.0) - 0.5)
        .collect();
    let ct = ctx.encrypt(&ctx.encode(&vals, ctx.default_scale(), 1), &sk, &mut rng);
    let mut state = BootState::Start { ct };
    for &(name, len, want) in &STATES {
        state = booter.try_step(&ctx, state, &keys).unwrap();
        assert_eq!(state.stage_name(), name);
        let blob = state.serialize(&ctx);
        assert_eq!((blob.len(), digest(&blob)), (len, want), "state {name}");
    }
    let stats = booter.precompute().stats();
    assert_eq!(
        (stats.hits, stats.misses),
        (4, 0),
        "one hit per stage, no encode"
    );
}

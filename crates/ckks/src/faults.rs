//! Fault-injection harness (test-only).
//!
//! Deliberately corrupts ciphertexts and keyswitch hints so tests can
//! verify that the runtime guardrails every context runs catch each
//! corruption class instead of silently producing garbage:
//!
//! | injected fault | detector | reported as |
//! |---|---|---|
//! | flipped limb word ([`flip_ciphertext_word`]) | residue-range scan in `validate_ciphertext` | [`FheError::CorruptCiphertext`](crate::FheError) |
//! | dropped rescale / tampered scale ([`corrupt_scale`]) | signed noise-budget threshold | [`FheError::BudgetExhausted`](crate::FheError) |
//! | corrupted hint ([`corrupt_hint_word`]) | keygen-time integrity digest, re-checked once per hint application | [`FheError::CorruptKey`](crate::FheError) |
//!
//! [`digests_computed`] counts hint digests per calling thread (a fanned-out
//! operation's digests included), so tests can pin that each hint
//! application checks its hint exactly once.
//!
//! On top of the deterministic primitives, [`FaultPlan`] is a seeded
//! probabilistic injector for soak-style testing: intermittent bit flips at
//! a configurable per-op rate plus *kill points* that simulate a process
//! crash between ops — the fault model the cl-runtime pipeline executor's
//! checkpoint/restore loop is validated against.
//!
//! The module is compiled only for tests and under the `faults` cargo
//! feature; production builds carry none of this code.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};

use crate::{Ciphertext, KeySwitchKey};

thread_local! {
    static DIGESTS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one hint digest on the calling thread.
pub(crate) fn count_digest() {
    DIGESTS.with(|c| c.set(c.get() + 1));
}

/// Keyswitch-hint integrity digests computed on the calling thread so far
/// (keygen, expansion, loading and every hint check). Per thread, so
/// concurrently running tests do not see each other's digests; an
/// operation fanned out across the worker pool ([`crate::try_par_map`]) counts
/// its tasks' digests on the thread that called it.
pub fn digests_computed() -> u64 {
    DIGESTS.with(Cell::get)
}

/// Runs `f` and returns its result with the digests it computed, taken
/// back off the running thread's count: a fanned-out task's digests
/// belong to the thread that fanned it out.
pub(crate) fn take_digests<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = digests_computed();
    let out = f();
    let counted = digests_computed() - before;
    DIGESTS.with(|c| c.set(before));
    (out, counted)
}

/// Adds `n` digests to the calling thread's count.
pub(crate) fn add_digests(n: u64) {
    DIGESTS.with(|c| c.set(c.get() + n));
}

/// Bit flipped into a 64-bit residue word. Bit 62 is above every modulus
/// this crate accepts (limb widths are < 62 bits), so the flipped residue
/// always lands out of range — the worst case for silent corruption, and
/// exactly what the conformance scan must catch.
pub const FLIP_MASK: u64 = 1 << 62;

/// Flips one residue word of a ciphertext polynomial in place.
///
/// `poly` selects `c0` (0) or `c1` (any other value); `limb` and `coeff`
/// address the word. Models an SEU / DRAM bit flip in the ciphertext
/// payload.
///
/// # Panics
///
/// Panics if `limb` or `coeff` is out of range.
pub fn flip_ciphertext_word(ct: &mut Ciphertext, poly: usize, limb: usize, coeff: usize) {
    let p = if poly == 0 { &mut ct.c0 } else { &mut ct.c1 };
    p.limb_mut(limb)[coeff] ^= FLIP_MASK;
}

/// Multiplies the recorded scale by `factor` without touching the payload
/// — the bookkeeping state a program is left with when a rescale is
/// dropped (the payload scale and the recorded scale agree, but both are a
/// factor `q_l` too large for the remaining modulus chain).
pub fn corrupt_scale(ct: &mut Ciphertext, factor: f64) {
    ct.scale *= factor;
}

/// Flips one residue word of a keyswitch hint in place.
///
/// `digit` selects the hint element, `half` selects `k0` (0) or `k1` (any
/// other value). The keygen-time integrity digest is deliberately NOT
/// recomputed — this models post-generation corruption (bit rot in hint
/// storage, a truncated transfer), which
/// [`KeySwitchKey::verify_integrity`] must detect.
///
/// # Panics
///
/// Panics if `digit`, `limb` or `coeff` is out of range.
pub fn corrupt_hint_word(
    ksk: &mut KeySwitchKey,
    digit: usize,
    half: usize,
    limb: usize,
    coeff: usize,
) {
    let (k0, k1) = &mut ksk.elems[digit];
    let p = if half == 0 { k0 } else { k1 };
    p.limb_mut(limb)[coeff] ^= FLIP_MASK;
}

/// What a [`FaultPlan`] did to the ciphertext it was consulted about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// No fault this op.
    None,
    /// One residue word was flipped in place (an intermittent SEU).
    Flipped {
        /// `c0` (0) or `c1` (1).
        poly: usize,
        /// Limb position within the polynomial.
        limb: usize,
        /// Coefficient index within the limb.
        coeff: usize,
    },
    /// A kill point fired: the process "crashes" between ops. The caller
    /// must abandon in-memory state and resume from durable checkpoints.
    Kill,
    /// A stall point fired: the op slept past any reasonable budget (a
    /// hung worker, a wedged I/O path). A supervising watchdog should have
    /// observed the stale heartbeat while the sleep ran.
    Stalled {
        /// How long the injected hang slept, in milliseconds.
        slept_ms: u64,
    },
}

/// A seeded probabilistic fault injector.
///
/// Each call to [`FaultPlan::on_op`] advances a deterministic splitmix64
/// stream, so a given `(seed, flip_rate, kill points)` triple replays the
/// exact same fault schedule on every run — tests can assert precise
/// telemetry. The op counter is monotonic across retries: a retried op sees
/// fresh draws, so a bounded retry loop converges with probability 1 for
/// any `flip_rate < 1`.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    state: u64,
    flip_rate: f64,
    kill_points: BTreeSet<u64>,
    stall_points: BTreeMap<u64, u64>,
    ops_seen: u64,
    injected: u64,
    kills: u64,
    stalls: u64,
}

impl FaultPlan {
    /// A plan flipping one ciphertext word per op with probability
    /// `flip_rate`, driven by `seed`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= flip_rate < 1.0` (a rate of 1 would defeat
    /// any retry budget).
    pub fn new(seed: u64, flip_rate: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&flip_rate),
            "flip_rate must be in [0, 1)"
        );
        Self {
            state: seed,
            flip_rate,
            kill_points: BTreeSet::new(),
            stall_points: BTreeMap::new(),
            ops_seen: 0,
            injected: 0,
            kills: 0,
            stalls: 0,
        }
    }

    /// Adds a kill point: the `op`-th consultation (0-based, counting
    /// every retry) simulates a crash instead of running. Each kill point
    /// fires once.
    #[must_use]
    pub fn with_kill_point(mut self, op: u64) -> Self {
        self.kill_points.insert(op);
        self
    }

    /// Adds a stall point: the `op`-th consultation (0-based, counting
    /// every retry) sleeps for `millis` before returning — a hung worker
    /// whose heartbeat goes stale while the sleep runs. Each stall point
    /// fires once.
    #[must_use]
    pub fn with_stall_point(mut self, op: u64, millis: u64) -> Self {
        self.stall_points.insert(op, millis);
        self
    }

    fn next_u64(&mut self) -> u64 {
        // splitmix64: tiny, seedable, and good enough for fault schedules.
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Consults the plan before an op on `ct`: possibly flips one word in
    /// place, or fires a pending kill point. Returns what happened.
    pub fn on_op(&mut self, ct: &mut Ciphertext) -> FaultAction {
        let op = self.ops_seen;
        self.ops_seen += 1;
        if self.kill_points.remove(&op) {
            self.kills += 1;
            return FaultAction::Kill;
        }
        if let Some(millis) = self.stall_points.remove(&op) {
            self.stalls += 1;
            std::thread::sleep(std::time::Duration::from_millis(millis));
            return FaultAction::Stalled { slept_ms: millis };
        }
        let draw = self.next_u64() as f64 / (u64::MAX as f64 + 1.0);
        if draw >= self.flip_rate {
            return FaultAction::None;
        }
        let poly = (self.next_u64() % 2) as usize;
        let target = if poly == 0 { &ct.c0 } else { &ct.c1 };
        let limb = (self.next_u64() % target.num_limbs() as u64) as usize;
        let coeff = (self.next_u64() % target.n() as u64) as usize;
        flip_ciphertext_word(ct, poly, limb, coeff);
        self.injected += 1;
        FaultAction::Flipped { poly, limb, coeff }
    }

    /// Total consultations so far (including retried ops).
    pub fn ops_seen(&self) -> u64 {
        self.ops_seen
    }

    /// Number of bit flips injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Number of kill points fired so far.
    pub fn kills(&self) -> u64 {
        self.kills
    }

    /// Number of stall points fired so far.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CkksContext, CkksParams, FheError, GuardrailPolicy, KeySwitchKind, SecretKey};
    use rand::SeedableRng;

    fn setup(levels: usize) -> (CkksContext, SecretKey, rand::rngs::StdRng) {
        let params = CkksParams::builder()
            .ring_degree(128)
            .levels(levels)
            .special_limbs(levels)
            .limb_bits(40)
            .scale_bits(32)
            .build()
            .unwrap();
        let ctx = CkksContext::new(params).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4242);
        let sk = ctx.keygen(&mut rng);
        (ctx, sk, rng)
    }

    const STRICT: GuardrailPolicy = GuardrailPolicy::Strict {
        min_budget_bits: 0.0,
    };

    #[test]
    fn bit_flip_in_ciphertext_is_caught_by_strict_guardrails() {
        let (ctx, sk, mut rng) = setup(2);
        let clean = ctx.encrypt(&ctx.encode(&[1.0, 2.0], ctx.default_scale(), 2), &sk, &mut rng);
        let mut bad = clean.clone();
        flip_ciphertext_word(&mut bad, 1, 0, 3);
        // The conformance scan pinpoints the corruption...
        assert!(matches!(
            ctx.validate_ciphertext("audit", &bad),
            Err(FheError::CorruptCiphertext { op: "audit", .. })
        ));
        // ...and every op runs it on its operands.
        match ctx.try_add(&clean, &bad) {
            Err(FheError::CorruptCiphertext { op, reason }) => {
                assert_eq!(op, "add");
                assert!(reason.contains("limb"), "reason should locate the fault: {reason}");
            }
            other => panic!("expected CorruptCiphertext, got {other:?}"),
        }
    }

    #[test]
    fn flip_is_reversible_and_flips_one_word() {
        let (ctx, sk, mut rng) = setup(2);
        let clean = ctx.encrypt(&ctx.encode(&[1.0], ctx.default_scale(), 2), &sk, &mut rng);
        let mut ct = clean.clone();
        flip_ciphertext_word(&mut ct, 1, 1, 7);
        assert_ne!(ct, clean);
        flip_ciphertext_word(&mut ct, 1, 1, 7);
        assert_eq!(ct, clean);
    }

    #[test]
    fn dropped_rescale_is_caught_as_budget_exhaustion() {
        // 45-bit limbs over a 30-bit scale leave ample per-level headroom,
        // so the properly rescaled pipeline keeps a comfortably positive
        // budget while the faulty one collapses.
        let params = CkksParams::builder()
            .ring_degree(128)
            .levels(3)
            .special_limbs(3)
            .limb_bits(45)
            .scale_bits(30)
            .build()
            .unwrap();
        let mut ctx = CkksContext::new(params).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4242);
        let sk = ctx.keygen(&mut rng);
        ctx.set_policy(STRICT);
        let rlk = ctx.relin_keygen(&sk, KeySwitchKind::Boosted { digits: 1 }, &mut rng);
        let ct = ctx.encrypt(&ctx.encode(&[0.5, 0.25], ctx.default_scale(), 3), &sk, &mut rng);
        // Fault: the circuit "forgets" the rescale after a multiply. The
        // first product fits; compounding it without rescaling pushes the
        // scale past what the remaining modulus chain can represent, and
        // the budget tracker reports exhaustion instead of wrapping.
        let unrescaled = ctx.try_square(&ct, &rlk).expect("first square fits");
        match ctx.try_square(&unrescaled, &rlk) {
            Err(FheError::BudgetExhausted { op: "square", budget_bits, .. }) => {
                assert!(budget_bits < 0.0);
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        // The properly rescaled pipeline sails through the same guardrails.
        let rescaled = ctx.try_rescale(&unrescaled).unwrap();
        assert!(ctx.try_square(&rescaled, &rlk).is_ok());
    }

    #[test]
    fn tampered_scale_is_caught_as_budget_exhaustion() {
        let (mut ctx, sk, mut rng) = setup(2);
        ctx.set_policy(STRICT);
        let clean = ctx.encrypt(&ctx.encode(&[1.0], ctx.default_scale(), 2), &sk, &mut rng);
        let mut bad = clean.clone();
        // A scale inflated by 2^50 claims far more precision than the
        // modulus chain holds; the signed budget goes deeply negative.
        corrupt_scale(&mut bad, (1u64 << 50) as f64);
        assert!(ctx.try_add(&clean, &clean).is_ok(), "clean baseline must pass");
        assert!(matches!(
            ctx.try_neg_ct(&bad).and_then(|ct| ctx.guard_budget("audit", &ct)),
            Err(FheError::BudgetExhausted { .. })
        ));
    }

    #[test]
    fn corrupted_hint_is_caught_by_integrity_digest() {
        let (ctx, sk, mut rng) = setup(3);
        let rlk = ctx.relin_keygen(&sk, KeySwitchKind::Boosted { digits: 1 }, &mut rng);
        let ct = ctx.encrypt(&ctx.encode(&[1.0, -1.0], ctx.default_scale(), 3), &sk, &mut rng);
        let mut bad_key = rlk.clone();
        corrupt_hint_word(&mut bad_key, 0, 0, 2, 5);
        assert!(rlk.verify_integrity());
        assert!(!bad_key.verify_integrity());
        // The guardrails refuse to use the tampered hint...
        match ctx.try_mul(&ct, &ct, &bad_key) {
            Err(FheError::CorruptKey { op, .. }) => assert_eq!(op, "mul"),
            other => panic!("expected CorruptKey, got {other:?}"),
        }
        // ...and the pristine key still passes the same checks.
        assert!(ctx.try_mul(&ct, &ct, &rlk).is_ok());
    }

    #[test]
    fn fault_plan_is_deterministic_and_counts_events() {
        let (ctx, sk, mut rng) = setup(2);
        let clean = ctx.encrypt(&ctx.encode(&[1.0], ctx.default_scale(), 2), &sk, &mut rng);
        let run = |seed: u64| {
            let mut plan = FaultPlan::new(seed, 0.5).with_kill_point(3);
            let mut ct = clean.clone();
            let actions: Vec<FaultAction> = (0..16).map(|_| plan.on_op(&mut ct)).collect();
            (actions, plan.injected(), plan.kills(), ct)
        };
        let (a1, inj1, kills1, ct1) = run(99);
        let (a2, inj2, kills2, ct2) = run(99);
        assert_eq!(a1, a2, "same seed must replay the same schedule");
        assert_eq!((inj1, kills1), (inj2, kills2));
        assert_eq!(ct1, ct2);
        assert_eq!(a1[3], FaultAction::Kill);
        assert_eq!(kills1, 1);
        assert!(inj1 > 0, "rate 0.5 over 15 draws should flip at least once");
        assert_eq!(
            inj1,
            a1.iter()
                .filter(|a| matches!(a, FaultAction::Flipped { .. }))
                .count() as u64
        );
        let (a3, ..) = run(100);
        assert_ne!(a1, a3, "different seeds should differ");
    }

    #[test]
    fn fault_plan_flips_are_caught_by_strict_validation() {
        let (ctx, sk, mut rng) = setup(2);
        let clean = ctx.encrypt(&ctx.encode(&[1.0], ctx.default_scale(), 2), &sk, &mut rng);
        let mut plan = FaultPlan::new(7, 0.999);
        let mut ct = clean.clone();
        match plan.on_op(&mut ct) {
            FaultAction::Flipped { .. } => {
                assert!(ctx.validate_ciphertext("audit", &ct).is_err());
            }
            other => panic!("rate ~1 must flip on the first op, got {other:?}"),
        }
    }

    #[test]
    fn zero_rate_plan_never_flips() {
        let (ctx, sk, mut rng) = setup(2);
        let clean = ctx.encrypt(&ctx.encode(&[1.0], ctx.default_scale(), 2), &sk, &mut rng);
        let mut plan = FaultPlan::new(1, 0.0);
        let mut ct = clean.clone();
        for _ in 0..64 {
            assert_eq!(plan.on_op(&mut ct), FaultAction::None);
        }
        assert_eq!(ct, clean);
        assert_eq!(plan.injected(), 0);
    }

    #[test]
    fn corrupted_rotation_key_is_caught_too() {
        let (mut ctx, sk, mut rng) = setup(2);
        ctx.set_policy(STRICT);
        let mut rk = ctx.rotation_keygen(&sk, 1, KeySwitchKind::Boosted { digits: 1 }, &mut rng);
        let ct = ctx.encrypt(&ctx.encode(&[1.0, 2.0], ctx.default_scale(), 2), &sk, &mut rng);
        assert!(ctx.try_rotate(&ct, 1, &rk).is_ok());
        corrupt_hint_word(&mut rk, 0, 1, 0, 0);
        assert!(matches!(
            ctx.try_rotate(&ct, 1, &rk),
            Err(FheError::CorruptKey { op: "rotate", .. })
        ));
    }
}

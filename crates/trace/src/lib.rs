//! Op-level counters for the CraterLake reproduction.
//!
//! The paper's entire evaluation rests on *operation accounting*: Table 1's
//! keyswitch formulas and the cycle-level machine model assume the workload
//! performs exactly the operation counts the closed forms predict. This
//! crate is the measurement side of that story: eleven counters of
//! primitive operations at residue-polynomial granularity, bumped as the
//! functional substrate (`cl-math`/`cl-rns`/`cl-ckks`/`cl-runtime`)
//! executes and read back as an [`OpSnapshot`]:
//!
//! - forward NTT passes, inverse NTT passes, element-wise multiplication
//!   passes, addition/subtraction passes, base-conversion limb conversions
//!   (the CRB unit's workload), automorphism applications and bytes of
//!   polynomial data touched. One "pass" is one sweep over one
//!   `N`-coefficient residue polynomial, the unit `cl_isa::cost` counts in;
//! - whole homomorphic operations: rotations, ciphertext and plaintext
//!   multiplications;
//! - seeded keyswitch-hint regeneration passes.
//!
//! Scoped counts are two captures and a [`OpSnapshot::delta_since`].
//! `tests/trace_validation.rs` checks them against the Table 1 formulas,
//! `tests/compiled_programs.rs` against `cl_compiler::predict_program`, and
//! the end-to-end benchmark's traced run reports them per job. Beside the
//! eleven, the thread's ledger keeps a twelfth count, the keyswitch-hint
//! integrity digests ([`hint_digests`]), outside [`OpSnapshot`]: a cold
//! hint's digests depend on cache state, and a snapshot is compared for
//! equality against closed-form predictions.
//!
//! # Always on
//!
//! The counters count in every build: there is no feature that turns them
//! off, so the library a test checks is the one the benchmark times. A
//! recorder is one add to a field of a thread-local ledger.
//!
//! # Thread-awareness and determinism
//!
//! Every thread keeps its own ledger, and a capture reads the calling
//! thread's. Work leaves the calling thread only through the worker pool
//! (`cl_rns::par_map`, `try_par_map` and the fanned-out branch of
//! `par_chunks_mut`), which runs each task under [`take_counts`] wherever
//! the pool ran it and hands the sum to [`add_counts`] on the thread that
//! started the region. So a capture counts everything the calling thread
//! asked for, its pool tasks included, and nothing another thread did:
//! two server workers, or two tests, running at once each read their own
//! work. Every counted pass is data-independent work, so the counts are
//! the same at any `CL_THREADS` setting; `tests/differential.rs` checks
//! both (serial against fanned out, and two threads at once).

#![warn(missing_docs)]
// Library code must propagate failures or `expect` with the violated
// invariant; tests are exempt. Enforced by scripts/verify.sh.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::cell::Cell;

/// Accumulated operation counts, captured with [`OpSnapshot::capture`].
///
/// All fields count *residue-polynomial passes* (one pass = one sweep over
/// one `N`-coefficient residue polynomial) except `bytes`, which counts
/// `8·N` bytes per pass, and the high-level `rotations`/`ct_mults`/
/// `pt_mults`, which count whole homomorphic operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpSnapshot {
    /// Forward NTT passes.
    pub ntt: u64,
    /// Inverse NTT passes.
    pub intt: u64,
    /// Element-wise multiplication passes (including scalar and per-limb
    /// constant multiplications; excluding base-conversion matrix work,
    /// which is counted in `base_conv`).
    pub mult: u64,
    /// Element-wise addition/subtraction/negation passes (excluding
    /// base-conversion matrix work).
    pub add: u64,
    /// Base-conversion limb conversions: one per (source limb → destination
    /// limb) multiply-accumulate pass of `changeRNSBase` — the CRB
    /// functional unit's workload, `cl_isa::cost::boosted_keyswitch_crb_mult`.
    pub base_conv: u64,
    /// Automorphism applications (per residue polynomial, including gathers
    /// fused into keyswitch inner products).
    pub automorph: u64,
    /// Bytes of polynomial data touched: `8·N` per counted pass.
    pub bytes: u64,
    /// Homomorphic rotations/conjugations (whole-ciphertext ops).
    pub rotations: u64,
    /// Homomorphic ciphertext-ciphertext multiplications (incl. squares).
    pub ct_mults: u64,
    /// Homomorphic plaintext multiplications.
    pub pt_mults: u64,
    /// Seeded keyswitch-hint regeneration passes: one per residue polynomial
    /// whose pseudorandom half was re-expanded from its seed (the software
    /// KSHGen workload). Counted separately from the compute fields so
    /// per-tenant reports can attribute regen cost apart from compute, and
    /// *not* folded into `bytes` (which tracks compute-touched polynomial
    /// data, the unit the cost-model cross-validation gates on).
    pub hint_regen: u64,
}

impl OpSnapshot {
    /// Field-wise difference `self - earlier` (saturating, though counters
    /// are monotone so a later capture is never smaller).
    #[must_use]
    pub fn delta_since(&self, earlier: &OpSnapshot) -> OpSnapshot {
        OpSnapshot {
            ntt: self.ntt.saturating_sub(earlier.ntt),
            intt: self.intt.saturating_sub(earlier.intt),
            mult: self.mult.saturating_sub(earlier.mult),
            add: self.add.saturating_sub(earlier.add),
            base_conv: self.base_conv.saturating_sub(earlier.base_conv),
            automorph: self.automorph.saturating_sub(earlier.automorph),
            bytes: self.bytes.saturating_sub(earlier.bytes),
            rotations: self.rotations.saturating_sub(earlier.rotations),
            ct_mults: self.ct_mults.saturating_sub(earlier.ct_mults),
            pt_mults: self.pt_mults.saturating_sub(earlier.pt_mults),
            hint_regen: self.hint_regen.saturating_sub(earlier.hint_regen),
        }
    }

    /// Field-wise sum.
    #[must_use]
    pub fn plus(&self, other: &OpSnapshot) -> OpSnapshot {
        OpSnapshot {
            ntt: self.ntt + other.ntt,
            intt: self.intt + other.intt,
            mult: self.mult + other.mult,
            add: self.add + other.add,
            base_conv: self.base_conv + other.base_conv,
            automorph: self.automorph + other.automorph,
            bytes: self.bytes + other.bytes,
            rotations: self.rotations + other.rotations,
            ct_mults: self.ct_mults + other.ct_mults,
            pt_mults: self.pt_mults + other.pt_mults,
            hint_regen: self.hint_regen + other.hint_regen,
        }
    }

    /// True when every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == OpSnapshot::default()
    }

    /// Total NTT passes in either direction (`ntt + intt`) — the unit the
    /// `cl_isa::cost` formulas call "ntt".
    pub fn ntt_total(&self) -> u64 {
        self.ntt + self.intt
    }

    /// The snapshot as a JSON object string (stable key order).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"ntt\": {}, \"intt\": {}, \"mult\": {}, \"add\": {}, \
             \"base_conv\": {}, \"automorph\": {}, \"bytes\": {}, \
             \"rotations\": {}, \"ct_mults\": {}, \"pt_mults\": {}, \
             \"hint_regen\": {}}}",
            self.ntt,
            self.intt,
            self.mult,
            self.add,
            self.base_conv,
            self.automorph,
            self.bytes,
            self.rotations,
            self.ct_mults,
            self.pt_mults,
            self.hint_regen
        )
    }

    /// The calling thread's counts so far, the pool tasks it fanned out
    /// included.
    pub fn capture() -> OpSnapshot {
        LEDGER.with(Cell::get).ops
    }
}

/// Always `true`: the counters count in every build. Kept only because the
/// detached benchmark package (`benchmarks/e2e`) still asserts it before a
/// traced run; it goes when that package next changes.
pub const fn enabled() -> bool {
    true
}

/// Everything one thread's ledger holds: the [`OpSnapshot`] counters and
/// the hint-digest count. The worker pool moves it from the thread that
/// ran a task to the thread that asked for it ([`take_counts`],
/// [`add_counts`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    ops: OpSnapshot,
    hint_digests: u64,
}

impl Counts {
    /// Field-wise sum.
    #[must_use]
    pub fn plus(&self, other: &Counts) -> Counts {
        Counts {
            ops: self.ops.plus(&other.ops),
            hint_digests: self.hint_digests + other.hint_digests,
        }
    }
}

thread_local! {
    static LEDGER: Cell<Counts> = Cell::default();
}

#[inline(always)]
fn bump(f: impl FnOnce(&mut Counts)) {
    LEDGER.with(|ledger| {
        let mut counts = ledger.get();
        f(&mut counts);
        ledger.set(counts);
    });
}

/// Runs `f` and returns its result with the counts it made, taken back off
/// the running thread's ledger: a pool task's counts belong to the thread
/// that fanned it out, which adds them with [`add_counts`].
pub fn take_counts<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    let before = LEDGER.with(Cell::take);
    let out = f();
    (out, LEDGER.with(|ledger| ledger.replace(before)))
}

/// Adds `counts` to the calling thread's ledger.
pub fn add_counts(counts: Counts) {
    bump(|c| *c = c.plus(&counts));
}

/// Keyswitch-hint integrity digests computed on the calling thread so far
/// (keygen, expansion, loading and every hint check), its pool tasks'
/// included.
pub fn hint_digests() -> u64 {
    LEDGER.with(Cell::get).hint_digests
}

/// Counts `passes` compute passes over `n`-coefficient polynomials in the
/// field `field` picks, and their bytes.
#[inline(always)]
fn count_passes(passes: u64, n: usize, field: impl FnOnce(&mut OpSnapshot) -> &mut u64) {
    bump(|c| {
        *field(&mut c.ops) += passes;
        c.ops.bytes += passes * 8 * n as u64;
    });
}

/// Records `passes` forward-NTT passes over `n`-coefficient polynomials.
#[inline(always)]
pub fn record_ntt(passes: u64, n: usize) {
    count_passes(passes, n, |o| &mut o.ntt);
}

/// Records `passes` inverse-NTT passes over `n`-coefficient polynomials.
#[inline(always)]
pub fn record_intt(passes: u64, n: usize) {
    count_passes(passes, n, |o| &mut o.intt);
}

/// Records `passes` element-wise multiplication passes.
#[inline(always)]
pub fn record_mult(passes: u64, n: usize) {
    count_passes(passes, n, |o| &mut o.mult);
}

/// Records `passes` element-wise addition/subtraction passes.
#[inline(always)]
pub fn record_add(passes: u64, n: usize) {
    count_passes(passes, n, |o| &mut o.add);
}

/// Records `passes` base-conversion limb conversions (source limb →
/// destination limb multiply-accumulate passes).
#[inline(always)]
pub fn record_base_conv(passes: u64, n: usize) {
    count_passes(passes, n, |o| &mut o.base_conv);
}

/// Records `passes` automorphism applications.
#[inline(always)]
pub fn record_automorph(passes: u64, n: usize) {
    count_passes(passes, n, |o| &mut o.automorph);
}

/// Records one homomorphic rotation or conjugation.
#[inline(always)]
pub fn record_rotation() {
    bump(|c| c.ops.rotations += 1);
}

/// Records one homomorphic ciphertext-ciphertext multiplication.
#[inline(always)]
pub fn record_ct_mult() {
    bump(|c| c.ops.ct_mults += 1);
}

/// Records one homomorphic plaintext multiplication.
#[inline(always)]
pub fn record_pt_mult() {
    bump(|c| c.ops.pt_mults += 1);
}

/// Records `passes` seeded hint-regeneration passes (one per residue
/// polynomial re-expanded from its seed). Deliberately does not contribute
/// to `bytes`: regen is accounted as key-management work, not compute.
#[inline(always)]
pub fn record_hint_regen(passes: u64) {
    bump(|c| c.ops.hint_regen += passes);
}

/// Records one keyswitch-hint integrity digest.
#[inline(always)]
pub fn record_hint_digest() {
    bump(|c| c.hint_digests += 1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_delta() {
        let before = OpSnapshot::capture();
        record_ntt(3, 16);
        record_intt(1, 16);
        record_mult(5, 16);
        record_add(2, 16);
        record_base_conv(7, 16);
        record_automorph(4, 16);
        record_rotation();
        record_ct_mult();
        record_pt_mult();
        record_hint_regen(6);
        let d = OpSnapshot::capture().delta_since(&before);
        assert_eq!(
            (d.ntt, d.intt, d.mult, d.add, d.base_conv, d.automorph),
            (3, 1, 5, 2, 7, 4)
        );
        assert_eq!((d.rotations, d.ct_mults, d.pt_mults), (1, 1, 1));
        assert_eq!(d.hint_regen, 6);
        // Regen passes must not leak into the compute byte counter.
        assert_eq!(d.bytes, (3 + 1 + 5 + 2 + 7 + 4) * 8 * 16);
        assert_eq!(d.ntt_total(), 4);
    }

    #[test]
    fn taken_counts_leave_the_thread_until_added_back() {
        let (before, digests) = (OpSnapshot::capture(), hint_digests());
        let ((), taken) = take_counts(|| {
            record_rotation();
            record_hint_digest();
        });
        assert_eq!((OpSnapshot::capture(), hint_digests()), (before, digests));
        // Another thread's ledger is its own.
        std::thread::spawn(move || add_counts(taken)).join().expect("joins");
        assert_eq!((OpSnapshot::capture(), hint_digests()), (before, digests));
        add_counts(taken);
        assert_eq!(OpSnapshot::capture().delta_since(&before).rotations, 1);
        assert_eq!(hint_digests() - digests, 1);
    }
}

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
//! the end-to-end benchmark's traced run reports them per job.
//!
//! # The `trace` feature
//!
//! This crate's `trace` feature is the one switch. Without it every
//! `record_*` function is an empty `#[inline(always)]` body and
//! [`OpSnapshot::capture`] returns zeros, so the call sites stay in the hot
//! paths at no cost.
//!
//! # Thread-awareness and determinism
//!
//! Counters are process-global relaxed atomics. Every counted pass is
//! data-independent work dispatched over the `cl-rns` limb engine, so the
//! *totals* are bit-identical at any `CL_THREADS` setting: only the
//! interleaving differs, which relaxed addition is insensitive to. This is
//! tested in `tests/differential.rs`. A delta attributes the global totals
//! to a scope; it is exact when no other homomorphic work runs
//! concurrently (one op at a time, limb-parallel inside).

#![warn(missing_docs)]
// Library code must propagate failures or `expect` with the violated
// invariant; tests are exempt. Enforced by scripts/verify.sh.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::sync::atomic::{AtomicU64, Ordering};

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

    /// True when every counter is zero (always the case with `trace` off).
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

    /// Captures the current global counter values (all zero with `trace`
    /// disabled).
    pub fn capture() -> OpSnapshot {
        OpSnapshot {
            ntt: load(&NTT),
            intt: load(&INTT),
            mult: load(&MULT),
            add: load(&ADD),
            base_conv: load(&BASE_CONV),
            automorph: load(&AUTOMORPH),
            bytes: load(&BYTES),
            rotations: load(&ROTATIONS),
            ct_mults: load(&CT_MULTS),
            pt_mults: load(&PT_MULTS),
            hint_regen: load(&HINT_REGEN),
        }
    }
}

/// True when the crate was compiled with the `trace` feature.
pub const fn enabled() -> bool {
    cfg!(feature = "trace")
}

// The counters, one per `OpSnapshot` field. Untraced builds never touch
// them: every access below sits behind `enabled()`, a compile-time constant.
static NTT: AtomicU64 = AtomicU64::new(0);
static INTT: AtomicU64 = AtomicU64::new(0);
static MULT: AtomicU64 = AtomicU64::new(0);
static ADD: AtomicU64 = AtomicU64::new(0);
static BASE_CONV: AtomicU64 = AtomicU64::new(0);
static AUTOMORPH: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static ROTATIONS: AtomicU64 = AtomicU64::new(0);
static CT_MULTS: AtomicU64 = AtomicU64::new(0);
static PT_MULTS: AtomicU64 = AtomicU64::new(0);
static HINT_REGEN: AtomicU64 = AtomicU64::new(0);

#[inline(always)]
fn count(counter: &AtomicU64, k: u64) {
    if enabled() {
        counter.fetch_add(k, Ordering::Relaxed);
    }
}

/// Counts `passes` compute passes over `n`-coefficient polynomials, and
/// their bytes.
#[inline(always)]
fn count_passes(counter: &AtomicU64, passes: u64, n: usize) {
    count(counter, passes);
    count(&BYTES, passes * 8 * n as u64);
}

fn load(counter: &AtomicU64) -> u64 {
    if enabled() {
        counter.load(Ordering::Relaxed)
    } else {
        0
    }
}

/// Records `passes` forward-NTT passes over `n`-coefficient polynomials.
#[inline(always)]
pub fn record_ntt(passes: u64, n: usize) {
    count_passes(&NTT, passes, n);
}

/// Records `passes` inverse-NTT passes over `n`-coefficient polynomials.
#[inline(always)]
pub fn record_intt(passes: u64, n: usize) {
    count_passes(&INTT, passes, n);
}

/// Records `passes` element-wise multiplication passes.
#[inline(always)]
pub fn record_mult(passes: u64, n: usize) {
    count_passes(&MULT, passes, n);
}

/// Records `passes` element-wise addition/subtraction passes.
#[inline(always)]
pub fn record_add(passes: u64, n: usize) {
    count_passes(&ADD, passes, n);
}

/// Records `passes` base-conversion limb conversions (source limb →
/// destination limb multiply-accumulate passes).
#[inline(always)]
pub fn record_base_conv(passes: u64, n: usize) {
    count_passes(&BASE_CONV, passes, n);
}

/// Records `passes` automorphism applications.
#[inline(always)]
pub fn record_automorph(passes: u64, n: usize) {
    count_passes(&AUTOMORPH, passes, n);
}

/// Records one homomorphic rotation or conjugation.
#[inline(always)]
pub fn record_rotation() {
    count(&ROTATIONS, 1);
}

/// Records one homomorphic ciphertext-ciphertext multiplication.
#[inline(always)]
pub fn record_ct_mult() {
    count(&CT_MULTS, 1);
}

/// Records one homomorphic plaintext multiplication.
#[inline(always)]
pub fn record_pt_mult() {
    count(&PT_MULTS, 1);
}

/// Records `passes` seeded hint-regeneration passes (one per residue
/// polynomial re-expanded from its seed). Deliberately does not contribute
/// to `bytes`: regen is accounted as key-management work, not compute.
#[inline(always)]
pub fn record_hint_regen(passes: u64) {
    count(&HINT_REGEN, passes);
}

#[cfg(test)]
mod tests {
    use super::*;

    // Exactly one of these runs per build: `cargo test -p cl-trace` checks
    // the disabled path, `--features trace` the enabled one.

    #[test]
    #[cfg(not(feature = "trace"))]
    fn recording_is_a_no_op() {
        record_ntt(10, 64);
        record_mult(10, 64);
        record_rotation();
        record_hint_regen(3);
        assert!(OpSnapshot::capture().is_zero());
        assert!(!enabled());
    }

    #[test]
    #[cfg(feature = "trace")]
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
        assert!(enabled());
    }
}

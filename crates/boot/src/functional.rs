//! Functional CKKS bootstrapping.
//!
//! An executable packed bootstrapping over the `cl-ckks` library at
//! test-scale parameters. It runs the four phases [`crate::BootstrapPlan`]
//! models, but not the plan's shape. The packed plan gives the machine model
//! three radix stages of 20 diagonals per transform, at two levels each,
//! with baby steps capped by an on-chip budget. This module runs two radix
//! stages per transform (32 + 31 diagonals at `N = 1024`), at one level
//! each, with `⌈√d⌉` baby steps and no cap, and a Taylor EvalMod where the
//! plan counts a Chebyshev one. One shape that drives both is ROADMAP.md
//! item 5.
//!
//! 1. **ModRaise** — lift the exhausted level-1 ciphertext to the full
//!    modulus chain. Decryption then yields `m + q0·I(X)` for an integer
//!    polynomial `I` bounded by the secret key's Hamming weight.
//! 2. **CoeffToSlot** — the inverse special FFT as a homomorphic linear
//!    transform, moving polynomial coefficients into slots (the encoder's
//!    coefficient layout makes it C-linear). The FFT's `log2(slots)`
//!    butterfly levels are split into two radix stages — the coarse half,
//!    then the fine half (the `⌊log2(slots)/2⌋` levels with the smallest
//!    butterfly distance) — each a sparse BSGS transform of at most
//!    `2^{s+1} − 1` diagonals for `s` levels. The FFT's bit reversal is
//!    dropped, so the slots come out in bit-reversed order; the real /
//!    imaginary split then multiplies by `i` exactly, through the monomial
//!    `X^{N/2}` ([`CkksContext::try_mul_by_i`]), at no level.
//! 3. **EvalMod** — remove the `q0·I` term by evaluating
//!    `(q0/2π)·sin(2πx/q0)` on each slot: a degree-7 Taylor expansion of
//!    `exp(2πi·x/(q0·2^r))` followed by `r` repeated squarings (the
//!    double-angle iteration of the state-of-the-art algorithm \[11\]),
//!    applied separately to the real and imaginary slot components. It
//!    works slot by slot, so the bit-reversed order does not matter.
//! 4. **SlotToCoeff** — recombine `m_re + i·m_im` (again the exact
//!    monomial), then the forward special FFT back to coefficients: fine
//!    stage, then coarse stage, on bit-reversed input, so the two
//!    permutations cancel.
//!
//! A second radix stage per transform costs a level; the exact
//! multiplications by `i` cost none, where plaintext `±i` multiplications
//! would cost one each, so [`Bootstrapper::depth`] is that of one stage
//! per transform with plaintext `±i`. The result is a ciphertext of the
//! *same message* at a much higher level — a refreshed multiplicative
//! budget (Fig. 2).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Range;
use std::sync::Arc;

use cl_ckks::{
    Ciphertext, CkksContext, CompactKeySwitchKey, FheError, FheResult, HintCache, HintId,
    KeySwitchKey, Plaintext, SecretKey,
};
use cl_math::{Cache, Complex, SpecialFft};
use rand::Rng;

/// Key material for one bootstrapping configuration: rotation keys for the
/// BSGS baby/giant steps, a conjugation key, and a relinearization key.
///
/// Every key is held in its **compact** resident form
/// ([`CompactKeySwitchKey`]: seed + `k0` halves); the materialized form a
/// keyswitch actually consumes is expanded on demand through a bounded
/// [`HintCache`] — by default the process-wide [`HintCache::global`], so
/// concurrent bootstraps (and tenants) share one hot-hint budget. The
/// accessors therefore return `Arc<KeySwitchKey>` and are fallible: a
/// cache miss runs the seeded generator and re-verifies the integrity
/// digest end to end.
#[derive(Debug)]
pub struct BootstrapKeys {
    relin: CompactKeySwitchKey,
    conj: CompactKeySwitchKey,
    /// Keyed by **canonical** step (`step.rem_euclid(slots)`), so every
    /// congruent spelling of a rotation — `-k`, `slots - k`, `k + slots` —
    /// resolves to the same key.
    rotations: HashMap<i64, CompactKeySwitchKey>,
    /// Rotation-group order (`n/2`), the modulus of step canonicalization.
    /// Derived from the context at construction, not serialized.
    slots: usize,
    /// `None` = the process-wide [`HintCache::global`].
    cache: Option<Arc<HintCache>>,
}

impl BootstrapKeys {
    /// Generates keyswitch keys for an explicit set of rotation steps (plus
    /// the relinearization and conjugation keys every bootstrap needs),
    /// keeping only the compact form resident. Steps are canonicalized to
    /// `[0, slots)` first — congruent spellings (`-k` vs `slots - k`) share
    /// one key — and step 0 is skipped (the identity rotation needs no
    /// key).
    pub fn generate<R: Rng + ?Sized>(
        ctx: &CkksContext,
        sk: &SecretKey,
        kind: cl_ckks::KeySwitchKind,
        steps: &[i64],
        rng: &mut R,
    ) -> Self {
        let slots = ctx.params().slots();
        let mut uniq: Vec<i64> = steps
            .iter()
            .map(|&d| cl_math::canonical_rotation_step(d, slots))
            .filter(|&d| d != 0)
            .collect();
        uniq.sort_unstable();
        uniq.dedup();
        let rotations = uniq
            .into_iter()
            .map(|d| (d, ctx.rotation_keygen(sk, d, kind, rng).to_compact()))
            .collect();
        Self {
            relin: ctx.relin_keygen(sk, kind, rng).to_compact(),
            conj: ctx.conjugation_keygen(sk, kind, rng).to_compact(),
            rotations,
            slots,
            cache: None,
        }
    }

    /// Routes this bundle's expansions through `cache` instead of the
    /// process-wide [`HintCache::global`] — for tests and benches that need
    /// an isolated budget.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<HintCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The hot-hint cache this bundle expands through.
    pub fn hint_cache(&self) -> &HintCache {
        match &self.cache {
            Some(c) => c,
            None => HintCache::global(),
        }
    }

    /// The materialized rotation key for `step`, from the hot-hint cache.
    ///
    /// # Errors
    ///
    /// [`FheError::MissingKey`] naming the step when no key was generated
    /// for it; [`FheError::CorruptKey`] when expansion fails the integrity
    /// digest.
    pub fn try_rot_key(&self, ctx: &CkksContext, step: i64) -> FheResult<Arc<KeySwitchKey>> {
        self.hint_cache().get_or_expand(ctx, self.rot_compact(step)?)
    }

    /// The materialized relinearization key, from the hot-hint cache.
    ///
    /// # Errors
    ///
    /// [`FheError::CorruptKey`] when expansion fails the integrity digest.
    pub fn try_relin(&self, ctx: &CkksContext) -> FheResult<Arc<KeySwitchKey>> {
        self.hint_cache().get_or_expand(ctx, &self.relin)
    }

    /// The materialized conjugation key, from the hot-hint cache.
    ///
    /// # Errors
    ///
    /// [`FheError::CorruptKey`] when expansion fails the integrity digest.
    pub fn try_conj(&self, ctx: &CkksContext) -> FheResult<Arc<KeySwitchKey>> {
        self.hint_cache().get_or_expand(ctx, &self.conj)
    }

    /// The compact relinearization key.
    pub fn relin_compact(&self) -> &CompactKeySwitchKey {
        &self.relin
    }

    /// The compact conjugation key.
    pub fn conj_compact(&self) -> &CompactKeySwitchKey {
        &self.conj
    }

    /// The compact rotation key for `step`, in O(1). The lookup
    /// canonicalizes first, so any congruent spelling of a held rotation —
    /// negative, or offset by a multiple of the slot count — resolves to
    /// the same key.
    ///
    /// # Errors
    ///
    /// [`FheError::MissingKey`] naming the step when no key was generated
    /// for its congruence class.
    pub fn rot_compact(&self, step: i64) -> FheResult<&CompactKeySwitchKey> {
        let canon = cl_math::canonical_rotation_step(step, self.slots);
        self.rotations
            .get(&canon)
            .ok_or_else(|| FheError::MissingKey {
                what: format!("rotation key for step {step} (canonical {canon})"),
            })
    }

    /// Every rotation step this bundle holds a key for, sorted.
    pub fn rotation_steps(&self) -> Vec<i64> {
        let mut steps: Vec<i64> = self.rotations.keys().copied().collect();
        steps.sort_unstable();
        steps
    }

    /// Bytes the bundle keeps resident in compact form (`k0` halves only,
    /// across every key). The materialized working set on top of this is
    /// whatever the hot-hint cache currently holds.
    pub fn compact_resident_bytes(&self) -> usize {
        self.relin.resident_bytes()
            + self.conj.resident_bytes()
            + self.rotations.values().map(|k| k.resident_bytes()).sum::<usize>()
    }

    /// Serializes the bundle: a checksummed framing section (rotation
    /// steps and nested blob lengths) followed by one seeded
    /// [`KeySwitchKey`] blob per key (relin, conjugation, then rotations in
    /// step order). Every nested blob carries its own header, fingerprint,
    /// and per-limb checksums.
    pub fn serialize(&self, ctx: &CkksContext) -> Vec<u8> {
        use cl_ckks::serialize::{fnv1a, put_i64, put_u32, put_u64, write_header, ObjectTag};
        let steps = self.rotation_steps();
        let relin = ctx.serialize_compact_keyswitch_key(&self.relin);
        let conj = ctx.serialize_compact_keyswitch_key(&self.conj);
        let rots: Vec<Vec<u8>> = steps
            .iter()
            .map(|s| {
                ctx.serialize_compact_keyswitch_key(
                    self.rotations
                        .get(s)
                        .expect("steps enumerate this map's keys"),
                )
            })
            .collect();
        let mut out = Vec::new();
        write_header(&mut out, ObjectTag::BootstrapKeys, ctx.params_fingerprint());
        let meta_start = out.len();
        put_u32(&mut out, steps.len() as u32);
        for &s in &steps {
            put_i64(&mut out, s);
        }
        put_u32(&mut out, relin.len() as u32);
        put_u32(&mut out, conj.len() as u32);
        for blob in &rots {
            put_u32(&mut out, blob.len() as u32);
        }
        let cksum = fnv1a(&out[meta_start..]);
        put_u64(&mut out, cksum);
        out.extend_from_slice(&relin);
        out.extend_from_slice(&conj);
        for blob in &rots {
            out.extend_from_slice(blob);
        }
        out
    }

    /// Loads a bundle written by [`BootstrapKeys::serialize`], verifying
    /// the framing checksum and every nested key's fingerprint and limb
    /// checksums. Keys load straight into compact form — no pseudo-random
    /// half is regenerated here; each key's end-to-end integrity digest is
    /// verified on first expansion instead.
    ///
    /// # Errors
    ///
    /// [`cl_ckks::FheError::Serialization`],
    /// [`cl_ckks::FheError::ChecksumMismatch`], or
    /// [`cl_ckks::FheError::ParamsMismatch`].
    pub fn try_deserialize(ctx: &CkksContext, bytes: &[u8]) -> FheResult<Self> {
        use cl_ckks::serialize::{fnv1a, ObjectTag, Reader};
        let mut r = Reader::new("load_bootstrap_keys", bytes);
        r.read_header(ObjectTag::BootstrapKeys, ctx.params_fingerprint())?;
        let meta_start = r.pos();
        let num_rot = r.u32()? as usize;
        let mut steps = Vec::with_capacity(num_rot);
        for _ in 0..num_rot {
            steps.push(r.i64()?);
        }
        let relin_len = r.u32()? as usize;
        let conj_len = r.u32()? as usize;
        let mut rot_lens = Vec::with_capacity(num_rot);
        for _ in 0..num_rot {
            rot_lens.push(r.u32()? as usize);
        }
        let computed = fnv1a(r.region_since(meta_start));
        let stored = r.u64()?;
        if stored != computed {
            return Err(FheError::ChecksumMismatch {
                op: "load_bootstrap_keys",
                section: "bundle framing".into(),
                stored,
                computed,
            });
        }
        let relin = ctx.try_deserialize_compact_keyswitch_key(r.take(relin_len)?)?;
        let conj = ctx.try_deserialize_compact_keyswitch_key(r.take(conj_len)?)?;
        let slots = ctx.params().slots();
        let mut rotations = HashMap::with_capacity(num_rot);
        for (step, len) in steps.into_iter().zip(rot_lens) {
            // Canonicalize on load: bundles written before steps were
            // normalized may carry negative spellings; congruent duplicates
            // collapse onto one key (they implement the same automorphism).
            rotations.insert(
                cl_math::canonical_rotation_step(step, slots),
                ctx.try_deserialize_compact_keyswitch_key(r.take(len)?)?,
            );
        }
        r.finish()?;
        Ok(Self {
            relin,
            conj,
            rotations,
            slots,
            cache: None,
        })
    }
}

/// The bootstrap pipeline as an explicit state machine.
///
/// [`Bootstrapper::try_step`] advances one stage per call:
///
/// `Start → Raised → Split → EvalRe → EvalBoth → Done`
///
/// Each state owns only ciphertexts plus the input scale, so it can be
/// serialized at any stage boundary ([`BootState::serialize`]) — the unit
/// of progress the cl-runtime checkpoint/resume executor persists, letting
/// a killed process resume a half-finished bootstrap instead of repeating
/// its full depth.
#[derive(Debug, Clone)]
pub enum BootState {
    /// Input: an exhausted ciphertext awaiting ModRaise.
    Start {
        /// The level-1 ciphertext to refresh.
        ct: Ciphertext,
    },
    /// After ModRaise: lifted to the full modulus chain.
    Raised {
        /// The raised ciphertext (decrypts to `m·Δ + q0·I`).
        raised: Ciphertext,
        /// The input ciphertext's scale `Δ` (needed to undo the `q0`
        /// normalization at the end).
        orig_scale: f64,
    },
    /// After CoeffToSlot and the real/imaginary split.
    Split {
        /// Real slot component, normalized to `y = value/q0`.
        y_re: Ciphertext,
        /// Imaginary slot component, same normalization.
        y_im: Ciphertext,
        /// The input scale.
        orig_scale: f64,
    },
    /// After EvalMod on the real component.
    EvalRe {
        /// `sin`-reduced real component.
        m_re: Ciphertext,
        /// Imaginary component still awaiting EvalMod.
        y_im: Ciphertext,
        /// The input scale.
        orig_scale: f64,
    },
    /// After EvalMod on both components.
    EvalBoth {
        /// `sin`-reduced real component.
        m_re: Ciphertext,
        /// `sin`-reduced imaginary component.
        m_im: Ciphertext,
        /// The input scale.
        orig_scale: f64,
    },
    /// Pipeline complete.
    Done {
        /// The refreshed ciphertext.
        ct: Ciphertext,
    },
}

impl BootState {
    /// Number of `try_step` transitions from [`BootState::Start`] to
    /// [`BootState::Done`].
    pub const NUM_STAGES: usize = 5;

    /// 0-based index of the current stage (`Start` = 0, `Done` = 5).
    pub fn stage_index(&self) -> usize {
        match self {
            BootState::Start { .. } => 0,
            BootState::Raised { .. } => 1,
            BootState::Split { .. } => 2,
            BootState::EvalRe { .. } => 3,
            BootState::EvalBoth { .. } => 4,
            BootState::Done { .. } => 5,
        }
    }

    /// Human-readable stage name for telemetry and errors.
    pub fn stage_name(&self) -> &'static str {
        match self {
            BootState::Start { .. } => "Start",
            BootState::Raised { .. } => "Raised",
            BootState::Split { .. } => "Split",
            BootState::EvalRe { .. } => "EvalRe",
            BootState::EvalBoth { .. } => "EvalBoth",
            BootState::Done { .. } => "Done",
        }
    }

    /// Whether the pipeline has produced its output.
    pub fn is_done(&self) -> bool {
        matches!(self, BootState::Done { .. })
    }

    /// The ciphertexts this state owns, in a stage-defined order.
    pub fn ciphertexts(&self) -> Vec<&Ciphertext> {
        match self {
            BootState::Start { ct } | BootState::Done { ct } => vec![ct],
            BootState::Raised { raised, .. } => vec![raised],
            BootState::Split { y_re, y_im, .. } => vec![y_re, y_im],
            BootState::EvalRe { m_re, y_im, .. } => vec![m_re, y_im],
            BootState::EvalBoth { m_re, m_im, .. } => vec![m_re, m_im],
        }
    }

    /// Mutable access to the state's ciphertexts (same order as
    /// [`BootState::ciphertexts`]). Exists for fault-injection harnesses
    /// that corrupt in-flight bootstrap state.
    pub fn ciphertexts_mut(&mut self) -> Vec<&mut Ciphertext> {
        match self {
            BootState::Start { ct } | BootState::Done { ct } => vec![ct],
            BootState::Raised { raised, .. } => vec![raised],
            BootState::Split { y_re, y_im, .. } => vec![y_re, y_im],
            BootState::EvalRe { m_re, y_im, .. } => vec![m_re, y_im],
            BootState::EvalBoth { m_re, m_im, .. } => vec![m_re, m_im],
        }
    }

    fn orig_scale(&self) -> f64 {
        match self {
            BootState::Start { .. } | BootState::Done { .. } => 0.0,
            BootState::Raised { orig_scale, .. }
            | BootState::Split { orig_scale, .. }
            | BootState::EvalRe { orig_scale, .. }
            | BootState::EvalBoth { orig_scale, .. } => *orig_scale,
        }
    }

    /// Serializes the state: a checksummed `(stage, orig_scale, blob
    /// lengths)` framing section followed by the stage's ciphertext blobs
    /// (each self-checking; see [`CkksContext::serialize_ciphertext`]).
    /// Headerless — designed to be embedded in a larger checkpoint record.
    pub fn serialize(&self, ctx: &CkksContext) -> Vec<u8> {
        use cl_ckks::serialize::{fnv1a, put_f64, put_u32, put_u64, put_u8};
        let blobs: Vec<Vec<u8>> = self
            .ciphertexts()
            .iter()
            .map(|ct| ctx.serialize_ciphertext(ct))
            .collect();
        let mut out = Vec::new();
        let meta_start = out.len();
        put_u8(&mut out, self.stage_index() as u8);
        put_f64(&mut out, self.orig_scale());
        put_u8(&mut out, blobs.len() as u8);
        for blob in &blobs {
            put_u32(&mut out, blob.len() as u32);
        }
        let cksum = fnv1a(&out[meta_start..]);
        put_u64(&mut out, cksum);
        for blob in &blobs {
            out.extend_from_slice(blob);
        }
        out
    }

    /// Loads a state written by [`BootState::serialize`].
    ///
    /// # Errors
    ///
    /// [`FheError::Serialization`], [`FheError::ChecksumMismatch`], or
    /// [`FheError::ParamsMismatch`].
    pub fn try_deserialize(ctx: &CkksContext, bytes: &[u8]) -> FheResult<Self> {
        use cl_ckks::serialize::{fnv1a, Reader};
        let mut r = Reader::new("load_boot_state", bytes);
        let meta_start = r.pos();
        let stage = r.u8()?;
        let orig_scale = r.f64()?;
        let count = r.u8()? as usize;
        let mut lens = Vec::with_capacity(count);
        for _ in 0..count {
            lens.push(r.u32()? as usize);
        }
        let computed = fnv1a(r.region_since(meta_start));
        let stored = r.u64()?;
        if stored != computed {
            return Err(FheError::ChecksumMismatch {
                op: "load_boot_state",
                section: "boot-state framing".into(),
                stored,
                computed,
            });
        }
        let mut cts = Vec::with_capacity(count);
        for len in lens {
            cts.push(ctx.try_deserialize_ciphertext(r.take(len)?)?);
        }
        r.finish()?;
        let want = match stage {
            0 | 5 => 1,
            1 => 1,
            2..=4 => 2,
            _ => {
                return Err(FheError::Serialization {
                    op: "load_boot_state",
                    reason: format!("unknown bootstrap stage {stage}"),
                })
            }
        };
        if cts.len() != want {
            return Err(FheError::Serialization {
                op: "load_boot_state",
                reason: format!(
                    "stage {stage} carries {} ciphertexts, expected {want}",
                    cts.len()
                ),
            });
        }
        let mut it = cts.into_iter();
        let mut next = || it.next().expect("count checked above");
        Ok(match stage {
            0 => BootState::Start { ct: next() },
            1 => BootState::Raised {
                raised: next(),
                orig_scale,
            },
            2 => BootState::Split {
                y_re: next(),
                y_im: next(),
                orig_scale,
            },
            3 => BootState::EvalRe {
                m_re: next(),
                y_im: next(),
                orig_scale,
            },
            4 => BootState::EvalBoth {
                m_re: next(),
                m_im: next(),
                orig_scale,
            },
            _ => BootState::Done { ct: next() },
        })
    }
}

/// A linear map on the slot vector in generalized-diagonal form:
/// `(d, diag)` pairs with `out[j] = Σ_d diag[j] · v[(j + d) mod slots]`.
type Diagonals = Vec<(i64, Vec<Complex>)>;

/// A functional bootstrapper: the radix stages of the two transforms plus
/// the EvalMod configuration.
pub struct Bootstrapper {
    /// CoeffToSlot's radix stages in application order (coarse, fine).
    cts: [Diagonals; 2],
    /// SlotToCoeff's radix stages in application order (fine, coarse).
    sts: [Diagonals; 2],
    /// Double-angle iterations.
    r: u32,
    /// Taylor degree for `exp(2πi·y/2^r)`.
    taylor_degree: usize,
    /// Input range bound `|y| <= k` for EvalMod.
    k_bound: f64,
    /// Encoded transform plaintexts, cached per context, stage, part and
    /// level.
    precompute: BootstrapPrecompute,
}

impl std::fmt::Debug for Bootstrapper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bootstrapper")
            .field("r", &self.r)
            .field("taylor_degree", &self.taylor_degree)
            .field("k_bound", &self.k_bound)
            .finish()
    }
}

/// Which of the two bootstrap linear transforms a cached precompute
/// belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransformStage {
    /// The inverse special-FFT (coefficients into slots).
    CoeffToSlot,
    /// The forward special-FFT (slots back into coefficients).
    SlotToCoeff,
}

/// A linear transform arranged for baby-step/giant-step evaluation, with
/// every diagonal plaintext already encoded at a fixed level.
///
/// [`bsgs_split`] writes each diagonal offset as `d ≡ G + B (mod m)` with a
/// baby offset `B` and a giant step `G`, so the sum
/// `Σ_d diag_d ⊙ rot_d(v)` regroups as
/// `Σ_G rot_G( Σ_B pt_{G,B} ⊙ rot_B(v) )` where
/// `pt_{G,B}[s] = diag_{G+B}[(s − G) mod m]` — one rotation per distinct
/// baby offset plus one per giant group, instead of one per diagonal. The
/// plaintexts are encoded once at construction (scale = the modulus the
/// closing rescale drops), so applying the transform does no encoding at
/// all.
pub struct PrecomputedTransform {
    level: usize,
    /// Distinct baby offsets (may include 0 = the input itself).
    baby_steps: Vec<i64>,
    /// Giant groups: `(giant step, [(baby offset, plaintext)])`.
    giants: Vec<(i64, Vec<(i64, Plaintext)>)>,
}

impl std::fmt::Debug for PrecomputedTransform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrecomputedTransform")
            .field("level", &self.level)
            .field("baby_steps", &self.baby_steps)
            .field("giants", &self.giants.len())
            .finish()
    }
}

/// The BSGS baby-step count for a transform with `n_diags` nonzero
/// diagonals: `ceil(sqrt(n_diags))`, independent of level so the
/// rotation-key set is stable across the modulus chain.
/// `BootstrapPlan::bsgs_rotations` starts from the same count but caps it
/// so the live baby set fits on chip; this one has no cap (ROADMAP.md
/// item 5).
fn bsgs_baby(n_diags: usize) -> i64 {
    ((n_diags as f64).sqrt().ceil() as i64).max(1)
}

/// The baby-step/giant-step split of a transform's diagonal offsets over
/// `m` slots: one `(baby, giant)` pair per offset, with
/// `baby + giant ≡ d (mod m)`. [`PrecomputedTransform::new`] and
/// [`Bootstrapper::keygen`] both use this one rule, so the key set is the
/// union of the precomputes' [`PrecomputedTransform::required_steps`].
///
/// The offsets' common stride `g = gcd(m, d, …)` is factored out and each
/// offset is centred into `(−m/2, m/2]`, so `k = d/g` is a small signed
/// index; with `b = ⌈√#offsets⌉` the baby offset is `(k mod b)·g` and the
/// giant step `(k − k mod b)·g`. A radix stage whose offsets are multiples
/// of 16, or straddle zero, then needs about `2√#offsets` rotations instead
/// of one per diagonal.
fn bsgs_split(offsets: &[i64], m: usize) -> Vec<(i64, i64)> {
    fn gcd(a: i64, b: i64) -> i64 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    let m = m as i64;
    let canon: Vec<i64> = offsets.iter().map(|d| d.rem_euclid(m)).collect();
    let g = canon.iter().fold(m, |g, &d| gcd(g, d));
    let b = bsgs_baby(canon.iter().collect::<BTreeSet<_>>().len());
    canon
        .iter()
        .map(|&d| {
            let k = (if d > m / 2 { d - m } else { d }) / g;
            let i = k.rem_euclid(b);
            (i * g, (k - i) * g)
        })
        .collect()
}

impl PrecomputedTransform {
    /// Encodes `diags` (generalized diagonals; any offset, taken mod the
    /// slot count) for BSGS evaluation on level-`level` ciphertexts.
    ///
    /// # Panics
    ///
    /// Panics if `level < 2` (the transform's closing rescale needs a
    /// modulus to drop) or a diagonal's length differs from the slot count.
    pub fn new(ctx: &CkksContext, diags: &[(i64, Vec<Complex>)], level: usize) -> Self {
        assert!(level >= 2, "BSGS transform needs a level to rescale into");
        let m = ctx.params().slots();
        let offsets: Vec<i64> = diags.iter().map(|(d, _)| *d).collect();
        // Encoded at exactly the scale of the modulus the closing rescale
        // drops: the transform then preserves the ciphertext scale exactly
        // (any deviation would be amplified exponentially by EvalMod's
        // squaring chain).
        let scale = ctx.rns().modulus_value((level - 1) as u32) as f64;
        let mut baby_set = BTreeSet::new();
        let mut groups: BTreeMap<i64, Vec<(i64, Plaintext)>> = BTreeMap::new();
        for ((_, diag), (baby, giant)) in diags.iter().zip(bsgs_split(&offsets, m)) {
            assert_eq!(diag.len(), m, "diagonal length must equal the slot count");
            baby_set.insert(baby);
            // pt[s] = diag[(s − giant) mod m]: the giant rotation moves the
            // plaintext weights back over the right slots.
            let shift = giant.rem_euclid(m as i64) as usize;
            let rot: Vec<Complex> = (0..m).map(|s| diag[(s + m - shift) % m]).collect();
            groups
                .entry(giant)
                .or_default()
                .push((baby, ctx.encode_complex(&rot, scale, level)));
        }
        Self {
            level,
            baby_steps: baby_set.into_iter().collect(),
            giants: groups.into_iter().collect(),
        }
    }

    /// The ciphertext level this precompute was encoded for.
    pub fn level(&self) -> usize {
        self.level
    }

    /// Every nonzero rotation step the transform needs a key for (baby
    /// offsets plus giant steps), sorted.
    pub fn required_steps(&self) -> Vec<i64> {
        let mut steps: BTreeSet<i64> = self.baby_steps.iter().copied().collect();
        steps.extend(self.giants.iter().map(|(jb, _)| *jb));
        steps.remove(&0);
        steps.into_iter().collect()
    }
}

/// Encoded transform plaintexts keyed by `(params fingerprint, stage,
/// part, level)`: the context they were encoded under, which transform,
/// which of its two radix stages (0 = the first applied), and the level it
/// runs at. A bootstrapper shared by contexts with different moduli thus
/// never serves one context's plaintexts to another. Filled eagerly at
/// [`Bootstrapper::keygen`] for the four stage levels
/// [`Bootstrapper::try_bootstrap`] visits; other levels build lazily.
pub type BootstrapPrecompute = Cache<(u64, TransformStage, usize, usize), PrecomputedTransform>;

/// Applies a precomputed BSGS linear transform to `ct` and rescales.
/// Consumes one level.
///
/// All baby rotations share one hoisted decomposition of the input
/// ([`CkksContext::try_rotate_hoisted_many`]), and the giant-step outputs
/// are accumulated in the extended basis with a single closing ModDown
/// ([`CkksContext::try_rotate_sum`]) — the double-hoisted evaluation
/// CraterLake's bootstrap schedule amortizes its keyswitch traffic with
/// (Sec. 6).
///
/// The sums accumulate in place: each giant group's inner sum is one
/// ciphertext that takes every further plaintext product through
/// [`CkksContext::try_mul_plain_acc`], and the giant steps' hint inner
/// products share one extended-basis pair. What still allocates per term
/// is the first product of each group, each giant step's hoisted
/// decomposition and its `σ(c0)`, and each baby rotation's output.
///
/// The transform's rotation schedule is known up front (babies, then
/// giants), so it is installed into the bundle's [`HintCache`] as a Belady
/// eviction oracle, and the giant-group hints are prefetched right after
/// the hoisted baby rotations fetch theirs — the next hoisted-rotation
/// group's hints are warm before the inner sums ask for them, and eviction
/// under pressure discards hints the remaining schedule proves dead.
///
/// # Errors
///
/// [`FheError::LevelMismatch`] when `ct.level() != pre.level()`;
/// [`FheError::MissingKey`] when `keys` lacks a needed baby/giant step;
/// [`FheError::InvalidParams`] on a transform with no diagonals;
/// [`FheError::CorruptKey`] when a hint expansion fails its integrity
/// digest; plus any guardrail failure from the underlying ops.
pub fn try_bsgs_transform(
    ctx: &CkksContext,
    ct: &Ciphertext,
    pre: &PrecomputedTransform,
    keys: &BootstrapKeys,
) -> FheResult<Ciphertext> {
    const OP: &str = "linear_transform";
    if ct.level() != pre.level {
        return Err(FheError::LevelMismatch {
            op: OP,
            got: ct.level(),
            want: pre.level,
        });
    }
    if pre.giants.is_empty() {
        return Err(FheError::InvalidParams {
            op: OP,
            reason: "transform has no nonzero diagonals".into(),
        });
    }
    let nonzero: Vec<i64> = pre.baby_steps.iter().copied().filter(|&i| i != 0).collect();
    let giant_steps: Vec<i64> = pre
        .giants
        .iter()
        .map(|(jb, _)| *jb)
        .filter(|&jb| jb != 0)
        .collect();
    // The full access schedule is known before the first fetch: install it
    // as the cache's Belady oracle.
    let cache = keys.hint_cache();
    let mut schedule: Vec<HintId> = Vec::with_capacity(nonzero.len() + giant_steps.len());
    for &step in nonzero.iter().chain(&giant_steps) {
        schedule.push(HintCache::hint_id(ctx, keys.rot_compact(step)?));
    }
    cache.plan(schedule);
    // Baby rotations: one hoisted ModUp serves every step.
    let baby_arcs: Vec<Arc<KeySwitchKey>> = nonzero
        .iter()
        .map(|&i| keys.try_rot_key(ctx, i))
        .collect::<FheResult<_>>()?;
    let baby_keys: Vec<&KeySwitchKey> = baby_arcs.iter().map(Arc::as_ref).collect();
    let rotated = ctx.try_rotate_hoisted_many(ct, &nonzero, &baby_keys)?;
    drop(baby_keys);
    drop(baby_arcs);
    // The babies are done with their hints; warm the next hoisted-rotation
    // group (the giant steps) before the inner sums run.
    for &jb in &giant_steps {
        cache.prefetch(ctx, keys.rot_compact(jb)?)?;
    }
    let mut babies: HashMap<i64, &Ciphertext> =
        nonzero.iter().copied().zip(rotated.iter()).collect();
    babies.insert(0, ct);
    // Inner sums: plaintext-multiply each baby into its giant group, the
    // first product in a fresh ciphertext and the rest accumulated into it
    // in place.
    let mut inners: Vec<(Ciphertext, i64)> = Vec::with_capacity(pre.giants.len());
    for (jb, terms) in &pre.giants {
        let mut terms = terms.iter().map(|(i, pt)| {
            let baby = babies
                .get(i)
                .expect("baby offsets and giant groups come from the same diagonal split");
            (*baby, pt)
        });
        let (baby, pt) = terms
            .next()
            .expect("giant groups are non-empty by construction");
        let mut inner = ctx.try_mul_plain(baby, pt)?;
        for (baby, pt) in terms {
            ctx.try_mul_plain_acc(&mut inner, baby, pt)?;
        }
        inners.push((inner, *jb));
    }
    // Giant rotations: extended-basis accumulation, one closing ModDown.
    let giant_arcs: Vec<Option<Arc<KeySwitchKey>>> = inners
        .iter()
        .map(|(_, jb)| {
            Ok(if *jb == 0 {
                None
            } else {
                Some(keys.try_rot_key(ctx, *jb)?)
            })
        })
        .collect::<FheResult<_>>()?;
    let giant_terms: Vec<(&Ciphertext, i64, Option<&KeySwitchKey>)> = inners
        .iter()
        .zip(&giant_arcs)
        .map(|((inner, jb), key)| (inner, *jb, key.as_deref()))
        .collect();
    let summed = ctx.try_rotate_sum(&giant_terms)?;
    cache.clear_plan();
    ctx.try_rescale(&summed)
}

/// One radix stage of a bootstrap transform in generalized-diagonal form:
/// the special-FFT butterfly levels `levels`, in the order given, times
/// `scale`. `butterfly` is a stage-range form of [`SpecialFft`]
/// ([`SpecialFft::forward_levels`] / [`SpecialFft::inverse_levels`]): each
/// level is read off the FFT's own loop and the levels are multiplied
/// diagonal by diagonal, so `s` levels give at most `2^{s+1} − 1`
/// diagonals (fewer once the offsets wrap modulo the slot count).
fn radix_stage(
    m: usize,
    levels: impl Iterator<Item = u32>,
    butterfly: &dyn Fn(&mut [Complex], Range<u32>),
    scale: f64,
) -> Diagonals {
    let mut stage = BTreeMap::from([(0, vec![Complex::new(scale, 0.0); m])]);
    for k in levels {
        stage = compose(&butterfly_level(m, k, butterfly), &stage, m);
    }
    stage.into_iter().map(|(d, diag)| (d as i64, diag)).collect()
}

/// Butterfly level `k` as diagonals over `m` slots. The level pairs entry
/// `j` with its partner `h = 2^k` away (above `j` when bit `k` of `j` is
/// 0, below it otherwise), so two probes determine it: probe `b` is 1 on
/// the entries whose bit `k` is `b`, and its image at `j` is the weight of
/// `j`'s own input (`b` = bit `k` of `j`) or of its partner's.
fn butterfly_level(
    m: usize,
    k: u32,
    butterfly: &dyn Fn(&mut [Complex], Range<u32>),
) -> BTreeMap<usize, Vec<Complex>> {
    let h = 1usize << k;
    let side = |j: usize| (j >> k) & 1;
    let images = [0, 1].map(|b| {
        let mut v: Vec<Complex> = (0..m)
            .map(|j| Complex::new(if side(j) == b { 1.0 } else { 0.0 }, 0.0))
            .collect();
        butterfly(&mut v, k..k + 1);
        v
    });
    let [lower, upper] = &images;
    let mut diags: BTreeMap<usize, Vec<Complex>> = BTreeMap::new();
    for (j, (&w0, &w1)) in lower.iter().zip(upper).enumerate() {
        // At h = m/2 both partner offsets are m/2: one diagonal, each row
        // written once.
        let (own, partner, offset) = if side(j) == 0 {
            (w0, w1, h)
        } else {
            (w1, w0, m - h)
        };
        for (d, weight) in [(0, own), (offset, partner)] {
            diags.entry(d).or_insert_with(|| vec![Complex::default(); m])[j] = weight;
        }
    }
    diags
}

/// The product `a·b` (apply `b`, then `a`) of two maps in diagonal form:
/// `(a·b)_{x+y}[j] += a_x[j] · b_y[j + x]`, offsets mod `m`.
fn compose(
    a: &BTreeMap<usize, Vec<Complex>>,
    b: &BTreeMap<usize, Vec<Complex>>,
    m: usize,
) -> BTreeMap<usize, Vec<Complex>> {
    let mut out: BTreeMap<usize, Vec<Complex>> = BTreeMap::new();
    for (&x, ax) in a {
        for (&y, by) in b {
            let acc = out
                .entry((x + y) % m)
                .or_insert_with(|| vec![Complex::default(); m]);
            for (j, v) in acc.iter_mut().enumerate() {
                *v += ax[j] * by[(j + x) % m];
            }
        }
    }
    out
}

/// CoeffToSlot's and SlotToCoeff's radix stages over `slots` slots, each
/// pair in application order. The fine half is the `⌊log2(slots)/2⌋`
/// butterfly levels with the smallest distance, the coarse half the rest.
fn transform_stages(slots: usize) -> ([Diagonals; 2], [Diagonals; 2]) {
    let fft = SpecialFft::new(slots);
    let inverse = |v: &mut [Complex], r: Range<u32>| fft.inverse_levels(v, r);
    let forward = |v: &mut [Complex], r: Range<u32>| fft.forward_levels(v, r);
    let levels = slots.trailing_zeros();
    let fine = levels / 2;
    // CoeffToSlot: the inverse FFT's butterflies (coarse, then fine)
    // without its closing bit reversal, the `1/n` folded into the fine
    // stage (either stage would do: the refresh's precision is set by
    // EvalMod).
    let cts = [
        radix_stage(slots, (fine..levels).rev(), &inverse, 1.0),
        radix_stage(slots, (0..fine).rev(), &inverse, 1.0 / slots as f64),
    ];
    // SlotToCoeff: the forward FFT's butterflies (fine, then coarse)
    // without its leading bit reversal — the input is in the bit-reversed
    // order CoeffToSlot left it in.
    let sts = [
        radix_stage(slots, 0..fine, &forward, 1.0),
        radix_stage(slots, fine..levels, &forward, 1.0),
    ];
    (cts, sts)
}

impl Bootstrapper {
    /// Builds a bootstrapper for the given context. `h` is the secret key's
    /// Hamming weight (bounds the EvalMod range).
    pub fn new(ctx: &CkksContext, h: usize) -> Self {
        let (cts, sts) = transform_stages(ctx.params().slots());
        // |I| <= (h+1)/2 plus the message's q0 fraction.
        let k_bound = (h as f64 + 1.0) / 2.0 + 1.0;
        // Choose r so the Taylor argument 2π·k/2^r stays below ~0.8.
        let mut r = 0u32;
        while 2.0 * std::f64::consts::PI * k_bound / 2f64.powi(r as i32) > 0.8 {
            r += 1;
        }
        Self {
            cts,
            sts,
            r,
            taylor_degree: 7,
            k_bound,
            precompute: BootstrapPrecompute::unbounded(),
        }
    }

    /// Levels the pipeline consumes before SlotToCoeff: CoeffToSlot's two
    /// radix stages (2) + EvalMod's Taylor powers (3), Taylor sum (1), `r`
    /// squarings and final constant (1). SlotToCoeff's two stages follow,
    /// so a bootstrap from `l_max` exits at level `l_max − depth() − 2`.
    pub fn depth(&self) -> usize {
        7 + self.r as usize
    }

    /// The two radix stages of `stage`, in application order.
    fn radix_stages(&self, stage: TransformStage) -> &[Diagonals; 2] {
        match stage {
            TransformStage::CoeffToSlot => &self.cts,
            TransformStage::SlotToCoeff => &self.sts,
        }
    }

    /// Generates the keyswitch keys bootstrapping needs — only the BSGS
    /// baby/giant steps of the four radix stages ([`bsgs_split`]), not one
    /// key per diagonal — and eagerly fills the [`BootstrapPrecompute`]
    /// cache for the four stage levels [`Bootstrapper::try_bootstrap`]
    /// visits, so no transform plaintext is encoded on the bootstrap hot
    /// path.
    pub fn keygen<R: Rng + ?Sized>(
        &self,
        ctx: &CkksContext,
        sk: &SecretKey,
        kind: cl_ckks::KeySwitchKind,
        rng: &mut R,
    ) -> BootstrapKeys {
        let slots = ctx.params().slots();
        let mut steps = BTreeSet::new();
        for diags in self.cts.iter().chain(&self.sts) {
            let offsets: Vec<i64> = diags.iter().map(|(d, _)| *d).collect();
            for (baby, giant) in bsgs_split(&offsets, slots) {
                steps.insert(baby);
                steps.insert(giant);
            }
        }
        steps.remove(&0);
        let l_max = ctx.max_level();
        if l_max > self.depth() + 2 {
            // CoeffToSlot runs on the raised ciphertext at `l_max`,
            // SlotToCoeff after `depth()` levels; each radix stage one
            // level below the one before it.
            for (stage, top) in [
                (TransformStage::CoeffToSlot, l_max),
                (TransformStage::SlotToCoeff, l_max - self.depth()),
            ] {
                for part in 0..2 {
                    self.precomputed(ctx, stage, part, top - part);
                }
            }
        }
        let steps: Vec<i64> = steps.into_iter().collect();
        BootstrapKeys::generate(ctx, sk, kind, &steps, rng)
    }

    /// Read access to the transform plaintext cache.
    pub fn precompute(&self) -> &BootstrapPrecompute {
        &self.precompute
    }

    /// The plaintexts of radix stage `part` of `stage` at `level` under
    /// `ctx`, encoded on a miss.
    fn precomputed(
        &self,
        ctx: &CkksContext,
        stage: TransformStage,
        part: usize,
        level: usize,
    ) -> Arc<PrecomputedTransform> {
        let key = (ctx.params_fingerprint(), stage, part, level);
        self.precompute.get_or_insert_with(key, || {
            PrecomputedTransform::new(ctx, &self.radix_stages(stage)[part], level)
        })
    }

    /// The special-FFT transform `stage` as its two radix stages in turn,
    /// each a BSGS transform over cached precomputed plaintexts. Consumes
    /// two levels.
    fn try_linear_transform(
        &self,
        ctx: &CkksContext,
        ct: &Ciphertext,
        stage: TransformStage,
        keys: &BootstrapKeys,
    ) -> FheResult<Ciphertext> {
        let pre = self.precomputed(ctx, stage, 0, ct.level());
        let mid = try_bsgs_transform(ctx, ct, &pre, keys)?;
        let pre = self.precomputed(ctx, stage, 1, mid.level());
        try_bsgs_transform(ctx, &mid, &pre, keys)
    }

    /// EvalMod on the *real part* interpretation: input `ct` decodes to
    /// real slot values `y` with `|y| <= k_bound`; output decodes to
    /// `(1/2π)·sin(2π y)` at the same scale.
    fn try_eval_sin(
        &self,
        ctx: &CkksContext,
        ct: &Ciphertext,
        keys: &BootstrapKeys,
    ) -> FheResult<Ciphertext> {
        // One cache fetch serves the whole squaring chain.
        let relin = keys.try_relin(ctx)?;
        let relin = relin.as_ref();
        let two_pi = 2.0 * std::f64::consts::PI;
        let theta = two_pi / 2f64.powi(self.r as i32);
        // Taylor coefficients of exp(i·theta·y) in y.
        let mut coeffs = Vec::with_capacity(self.taylor_degree + 1);
        let mut term = Complex::new(1.0, 0.0);
        coeffs.push(term);
        for k in 1..=self.taylor_degree {
            term = term * Complex::new(0.0, theta) / k as f64;
            coeffs.push(term);
        }
        // Powers y^1..y^7 with depth 3: y2=y*y, y3=y*y2, y4=y2*y2,
        // y5=y2*y3, y6=y3*y3, y7=y3*y4.
        let y1 = ct.clone();
        let y2 = ctx.try_rescale(&ctx.try_mul(&y1, &y1, relin)?)?;
        let y3 =
            ctx.try_rescale(&ctx.try_mul(&ctx.try_mod_drop(&y1, y2.level())?, &y2, relin)?)?;
        let y4 =
            ctx.try_rescale(&ctx.try_mul(&ctx.try_mod_drop(&y2, y2.level())?, &y2, relin)?)?;
        let y5 =
            ctx.try_rescale(&ctx.try_mul(&ctx.try_mod_drop(&y2, y3.level())?, &y3, relin)?)?;
        let y6 =
            ctx.try_rescale(&ctx.try_mul(&ctx.try_mod_drop(&y3, y3.level())?, &y3, relin)?)?;
        let y7 =
            ctx.try_rescale(&ctx.try_mul(&ctx.try_mod_drop(&y3, y4.level())?, &y4, relin)?)?;
        // Align all powers at the deepest level/scale and combine:
        // E0 = sum_k coeffs[k] * y^k.
        let target_level = y7.level();
        let powers = [y1, y2, y3, y4, y5, y6, y7];
        // The first term is a fresh product; the rest accumulate into it.
        let mut acc: Option<Ciphertext> = None;
        for (k, p) in powers.iter().enumerate() {
            let p = ctx.try_mod_drop(p, target_level)?;
            // Encode each Taylor coefficient at the scale that makes the
            // product land, after the closing rescale, exactly on the
            // default scale — the squaring chain then cannot drift.
            let q_drop = ctx.rns().modulus_value((target_level - 1) as u32) as f64;
            let desired = ctx.default_scale() * q_drop;
            let coeff_scale = desired / p.scale();
            let slots = ctx.params().slots();
            let cvec = vec![coeffs[k + 1]; slots];
            let pt = ctx.encode_complex(&cvec, coeff_scale, target_level);
            match &mut acc {
                None => acc = Some(ctx.try_mul_plain(&p, &pt)?),
                Some(sum) => ctx.try_mul_plain_acc(sum, &p, &pt)?,
            }
        }
        let acc = acc.expect("Taylor sum over a non-empty power basis");
        let mut e = ctx.try_rescale(&acc)?;
        // + coeffs[0] (the constant 1).
        let ones = vec![coeffs[0]; ctx.params().slots()];
        let pt1 = ctx.encode_complex(&ones, e.scale(), e.level());
        e = ctx.try_add_plain(&e, &pt1)?;
        // Double-angle: square r times => exp(2πi·y).
        for _ in 0..self.r {
            e = ctx.try_rescale(&ctx.try_square(&e, relin)?)?;
        }
        // sin(2πy)/(2π) = Re(E * (-i/2π)) * 2 = w + conj(w),
        // w = E * (-i/(4π))... : sin = (E - conj E)/(2i);
        // k*sin = w + conj(w) with w = k·E/(2i) for real k = 1/(2π).
        let k_const = 1.0 / two_pi;
        let w_coeff = Complex::new(0.0, -k_const / 2.0); // k/(2i)
        let slots = ctx.params().slots();
        let q_drop = ctx.rns().modulus_value((e.level() - 1) as u32) as f64;
        let pt = ctx.encode_complex(
            &vec![w_coeff; slots],
            ctx.default_scale() * q_drop / e.scale(),
            e.level(),
        );
        let w = ctx.try_rescale(&ctx.try_mul_plain(&e, &pt)?)?;
        let wc = ctx.try_conjugate(&w, keys.try_conj(ctx)?.as_ref())?;
        ctx.try_add(&w, &wc)
    }

    /// Advances a bootstrap by exactly one stage.
    ///
    /// This is the checkpointable unit of the pipeline: a caller (e.g. the
    /// cl-runtime executor) can serialize the returned [`BootState`]
    /// between stages, survive a crash mid-bootstrap, and resume at the
    /// stage boundary instead of restarting the whole pipeline. Passing a
    /// [`BootState::Done`] state returns it unchanged.
    ///
    /// # Errors
    ///
    /// - [`FheError::InvalidParams`] if the context's budget cannot cover
    ///   the pipeline's depth (see [`Bootstrapper::depth`]).
    /// - [`FheError::MissingKey`] if a rotation key for a transform
    ///   diagonal is absent from `keys`.
    /// - Any error the underlying homomorphic ops report under the
    ///   context's guardrail policy.
    pub fn try_step(
        &self,
        ctx: &CkksContext,
        state: BootState,
        keys: &BootstrapKeys,
    ) -> FheResult<BootState> {
        match state {
            BootState::Start { ct } => self.step_mod_raise(ctx, ct),
            BootState::Raised { raised, orig_scale } => {
                self.step_coeff_to_slot_split(ctx, raised, orig_scale, keys)
            }
            BootState::Split {
                y_re,
                y_im,
                orig_scale,
            } => {
                // ---- EvalMod on the real component.
                let m_re = self.try_eval_sin(ctx, &y_re, keys)?;
                Ok(BootState::EvalRe {
                    m_re,
                    y_im,
                    orig_scale,
                })
            }
            BootState::EvalRe {
                m_re,
                y_im,
                orig_scale,
            } => {
                // ---- EvalMod on the imaginary component, at the level
                // the real one started from.
                let m_im = self.try_eval_sin(ctx, &y_im, keys)?;
                Ok(BootState::EvalBoth {
                    m_re,
                    m_im,
                    orig_scale,
                })
            }
            BootState::EvalBoth {
                m_re,
                m_im,
                orig_scale,
            } => self.step_recombine(ctx, m_re, m_im, orig_scale, keys),
            done @ BootState::Done { .. } => Ok(done),
        }
    }

    /// Stage 1 — ModRaise: lift residues mod q0 to the full chain.
    fn step_mod_raise(&self, ctx: &CkksContext, ct: Ciphertext) -> FheResult<BootState> {
        let l_max = ctx.max_level();
        if l_max <= self.depth() + 2 {
            return Err(FheError::InvalidParams {
                op: "bootstrap",
                reason: format!(
                    "budget {l_max} cannot cover bootstrap depth {} plus the \
                     two SlotToCoeff stages and an output level",
                    self.depth()
                ),
            });
        }
        let rns = ctx.rns();
        let q0 = rns.modulus_value(0) as f64;
        let raise = |poly: &cl_rns::RnsPoly| {
            let mut p = poly.clone();
            rns.from_ntt(&mut p);
            let m0 = rns.modulus(0);
            let signed: Vec<i64> = p.limb(0).iter().map(|&x| m0.lift_centered(x)).collect();
            let mut out = rns.from_signed_coeffs(&signed, &rns.q_basis(l_max));
            rns.to_ntt(&mut out);
            out
        };
        // The raised ciphertext decrypts to `m·Δ + q0·I` with `|I|` bounded
        // by the EvalMod range: its dominant "noise" term is the `q0·I`
        // component EvalMod will remove, so seed the tracked estimate with
        // that magnitude rather than the fresh-encryption default.
        let raised = ctx
            .ciphertext_from_parts(raise(ct.c0()), raise(ct.c1()), l_max, ct.scale())
            .with_noise_bits(
                ct.noise_estimate_bits()
                    .max(q0.log2() + self.k_bound.log2()),
            );
        Ok(BootState::Raised {
            raised,
            orig_scale: ct.scale(),
        })
    }

    /// Stage 2 — CoeffToSlot, reinterpretation, and the real/imaginary
    /// split.
    fn step_coeff_to_slot_split(
        &self,
        ctx: &CkksContext,
        raised: Ciphertext,
        orig_scale: f64,
        keys: &BootstrapKeys,
    ) -> FheResult<BootState> {
        let q0 = ctx.rns().modulus_value(0) as f64;
        // ---- CoeffToSlot: slot bitrev(j) becomes u_j = c_j + i·c_{j+slots},
        // where c are the raised polynomial's coefficients (value
        // m·Δ + q0·I). The factor n/2 from the unnormalized embedding is
        // absorbed by the transform itself (it is the encoder's iFFT).
        let u = self.try_linear_transform(ctx, &raised, TransformStage::CoeffToSlot, keys)?;
        // Reinterpret: the true slot values are (m·Δ + q0·I) and EvalMod
        // wants y = true/q0, so record the scale as u.scale·q0/Δ_in.
        let scale = u.scale() * q0 / orig_scale;
        let y_full = u.with_scale(scale);
        // ---- Split real/imaginary parts; both halves keep u's level.
        let conj = ctx.try_conjugate(&y_full, keys.try_conj(ctx)?.as_ref())?;
        // y_re = (u + conj)/2: the division by 2 is a free scale bump.
        let y_re = ctx.try_add(&y_full, &conj)?.with_scale(scale * 2.0);
        // y_im = (u − conj)/(2i) = i·(conj − u)/2: the exact monomial i,
        // and the same free scale bump.
        let y_im = ctx
            .try_mul_by_i(&ctx.try_sub(&conj, &y_full)?)?
            .with_scale(scale * 2.0);
        Ok(BootState::Split {
            y_re,
            y_im,
            orig_scale,
        })
    }

    /// Stage 5 — recombine the EvalMod outputs and SlotToCoeff back.
    fn step_recombine(
        &self,
        ctx: &CkksContext,
        m_re: Ciphertext,
        m_im: Ciphertext,
        orig_scale: f64,
        keys: &BootstrapKeys,
    ) -> FheResult<BootState> {
        let q0 = ctx.rns().modulus_value(0) as f64;
        // Recombine: m = m_re + i·m_im, with the exact monomial i.
        let lvl = m_re.level().min(m_im.level());
        let m_re = ctx.try_mod_drop(&m_re, lvl)?;
        let m_im_i = ctx.try_mul_by_i(&ctx.try_mod_drop(&m_im, lvl)?)?;
        // Align scales exactly before adding.
        let combined = ctx.try_add(&m_re.with_scale(m_im_i.scale()), &m_im_i)?;
        // Undo the /q0 normalization: the slots now hold (m·Δ)/q0 at the
        // recorded scale; restore by dividing the recorded scale by q0 and
        // multiplying by the input scale.
        let scale = combined.scale() * orig_scale / q0;
        let restored = combined.with_scale(scale);
        // ---- SlotToCoeff (bit-reversed slots in, coefficients out).
        let out = self.try_linear_transform(ctx, &restored, TransformStage::SlotToCoeff, keys)?;
        // EvalMod removed the `q0·I` term the analytic estimate has been
        // carrying since ModRaise; the refreshed ciphertext's error is
        // dominated by the sine-approximation instead (a degree-d Taylor
        // expansion leaves a relative error around 2^-d on the unit-scaled
        // slots). Re-seed the tracked estimate so downstream budget
        // accounting reflects the refreshed state, not the pre-EvalMod
        // bound.
        let approx_bits = out.scale().log2() - self.taylor_degree as f64;
        let est = out.noise_estimate_bits().min(approx_bits);
        Ok(BootState::Done {
            ct: out.with_noise_bits(est),
        })
    }

    /// Bootstraps `ct` (level 1, fully consumed) back to a high level by
    /// running the [`BootState`] machine to completion.
    ///
    /// # Errors
    ///
    /// As for [`Bootstrapper::try_step`].
    pub fn try_bootstrap(
        &self,
        ctx: &CkksContext,
        ct: &Ciphertext,
        keys: &BootstrapKeys,
    ) -> FheResult<Ciphertext> {
        let mut state = BootState::Start { ct: ct.clone() };
        for _ in 0..BootState::NUM_STAGES {
            state = self.try_step(ctx, state, keys)?;
        }
        match state {
            BootState::Done { ct } => Ok(ct),
            other => Err(FheError::InvalidParams {
                op: "bootstrap",
                reason: format!(
                    "state machine did not reach Done after {} stages (at {})",
                    BootState::NUM_STAGES,
                    other.stage_name()
                ),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cl_ckks::{CkksParams, KeySwitchKind};
    use rand::SeedableRng;

    fn boot_ctx() -> CkksContext {
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

    /// `Σ_d diag_d ⊙ rot_d(v)` in plain arithmetic, no encryption.
    fn apply_diagonals(diags: &[(i64, Vec<Complex>)], v: &[Complex]) -> Vec<Complex> {
        let m = v.len() as i64;
        (0..v.len())
            .map(|j| {
                diags.iter().fold(Complex::default(), |acc, (d, diag)| {
                    acc + diag[j] * v[(j as i64 + d).rem_euclid(m) as usize]
                })
            })
            .collect()
    }

    #[test]
    fn empty_radix_stage_is_the_scaled_identity() {
        let fft = SpecialFft::new(4);
        let stage = radix_stage(4, 0..0, &|v, r| fft.forward_levels(v, r), 0.5);
        assert_eq!(stage.len(), 1);
        assert_eq!(stage[0].0, 0);
        for v in &stage[0].1 {
            assert_eq!(*v, Complex::new(0.5, 0.0));
        }
    }

    #[test]
    fn radix_stages_factor_the_special_fft() {
        // The plain-arithmetic oracle: the stages applied in sequence are
        // the special FFT with its bit reversal moved to the slot order,
        // at every power-of-two slot count up to 4096 (1 and 2 slots have
        // an identity stage).
        for levels in 0..=12u32 {
            let slots = 1usize << levels;
            let fine = levels / 2;
            let (cts, sts) = transform_stages(slots);
            // A stage of `s` butterfly levels has at most 2^{s+1} − 1
            // diagonals.
            let bound = |s: u32| (1usize << (s + 1)) - 1;
            for (stage, s) in [
                (&cts[0], levels - fine),
                (&cts[1], fine),
                (&sts[0], fine),
                (&sts[1], levels - fine),
            ] {
                assert!(
                    stage.len() <= bound(s),
                    "slots {slots}: {} diagonals for {s} levels",
                    stage.len()
                );
            }
            if slots == 512 {
                let counts = [&cts[0], &cts[1], &sts[0], &sts[1]].map(Vec::len);
                assert_eq!(counts, [32, 31, 31, 32], "coarse stages wrap mod 512");
            }
            let fft = SpecialFft::new(slots);
            let v: Vec<Complex> = (0..slots)
                .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
                .collect();
            let close = |got: &[Complex], want: &[Complex], what: &str| {
                for (j, (g, w)) in got.iter().zip(want).enumerate() {
                    assert!(
                        (*g - *w).abs() <= 1e-9 * (1.0 + w.abs()),
                        "{what}, slots {slots}, slot {j}: {g:?} vs {w:?}"
                    );
                }
            };
            // CoeffToSlot = inverse, then bit reversal.
            let mut want = v.clone();
            fft.inverse(&mut want);
            cl_math::bit_reverse_permute(&mut want);
            let got = apply_diagonals(&cts[1], &apply_diagonals(&cts[0], &v));
            close(&got, &want, "CoeffToSlot");
            // SlotToCoeff = bit reversal, then forward.
            let mut want = v.clone();
            cl_math::bit_reverse_permute(&mut want);
            fft.forward(&mut want);
            let got = apply_diagonals(&sts[1], &apply_diagonals(&sts[0], &v));
            close(&got, &want, "SlotToCoeff");
        }
    }

    #[test]
    fn linear_transform_applies_fft_matrix() {
        // Applying CoeffToSlot to an encryption of z yields iFFT(z) in
        // bit-reversed slot order — checked against the plain FFT — and
        // costs one level per radix stage.
        let ctx = boot_ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let sk = ctx.keygen_sparse(8, &mut rng);
        let booter = Bootstrapper::new(&ctx, 8);
        let keys = booter.keygen(&ctx, &sk, KeySwitchKind::Boosted { digits: 1 }, &mut rng);
        let slots = ctx.params().slots();
        let vals: Vec<Complex> = (0..slots)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let pt = ctx.encode_complex(&vals, ctx.default_scale(), 5);
        let ct = ctx.encrypt(&pt, &sk, &mut rng);
        let out = booter
            .try_linear_transform(&ctx, &ct, TransformStage::CoeffToSlot, &keys)
            .expect("transform on well-formed inputs");
        assert_eq!(out.level(), 3);
        let got = ctx.decode_complex(&ctx.decrypt(&out, &sk), slots);
        let fft = cl_math::SpecialFft::new(slots);
        let mut expect = vals.clone();
        fft.inverse(&mut expect);
        cl_math::bit_reverse_permute(&mut expect);
        for (g, e) in got.iter().zip(&expect) {
            assert!((*g - *e).abs() < 1e-2, "{g:?} vs {e:?}");
        }
    }

    #[test]
    fn bsgs_split_handles_strided_and_negative_offsets() {
        // The coarse stage at N = 1024: 32 diagonals at stride 16 over 512
        // slots. Splitting raw indices as `d % b` (b = 6) gave 31 rotation
        // steps — a baby set of {0} and one giant per diagonal; factoring
        // the stride out needs at most 2⌈√32⌉.
        let params = CkksParams::builder()
            .ring_degree(1024)
            .levels(2)
            .special_limbs(1)
            .limb_bits(40)
            .scale_bits(30)
            .build()
            .unwrap();
        let ctx = CkksContext::new(params).unwrap();
        let m = ctx.params().slots() as i64;
        let ones = vec![Complex::new(1.0, 0.0); m as usize];
        let strided: Vec<(i64, Vec<Complex>)> = (0..32).map(|k| (16 * k, ones.clone())).collect();
        let steps = PrecomputedTransform::new(&ctx, &strided, 2).required_steps();
        assert!(steps.len() <= 2 * 6, "stride-16 stage needs {} steps", steps.len());
        // The fine stage spelled with negative offsets −15..=15 (and once
        // more as their canonical residues): same bound.
        for spelling in [0, m] {
            let fine: Vec<(i64, Vec<Complex>)> =
                (-15..=15).map(|d| (d + spelling, ones.clone())).collect();
            let steps = PrecomputedTransform::new(&ctx, &fine, 2).required_steps();
            assert!(steps.len() <= 2 * 6, "fine stage needs {} steps", steps.len());
        }
        // Every split recombines to its offset.
        let offsets: Vec<i64> = (-40..40).map(|k| 16 * k + 3).collect();
        for (d, (baby, giant)) in offsets.iter().zip(bsgs_split(&offsets, 512)) {
            assert_eq!((baby + giant).rem_euclid(512), d.rem_euclid(512));
        }
    }

    #[test]
    fn radix_stages_keep_the_level_budget() {
        // Two stages per transform cost two extra levels; the exact
        // monomial i gives them back: depth 7 + r, exit level
        // l_max − depth − 2, and the refreshed value within 0.05.
        for n in [64usize, 256] {
            let params = CkksParams::builder()
                .ring_degree(n)
                .levels(20)
                .special_limbs(20)
                .limb_bits(45)
                .scale_bits(45)
                .build()
                .unwrap();
            let ctx = CkksContext::new(params).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64);
            let sk = ctx.keygen_sparse(8, &mut rng);
            let booter = Bootstrapper::new(&ctx, 8);
            assert_eq!(booter.depth(), 7 + booter.r as usize);
            assert_eq!(booter.depth(), 13, "h = 8 takes r = 6");
            let keys = booter.keygen(&ctx, &sk, KeySwitchKind::Boosted { digits: 1 }, &mut rng);
            let slots = ctx.params().slots();
            let vals: Vec<f64> = (0..slots).map(|i| ((i * 7 % 13) as f64 / 13.0) - 0.5).collect();
            let ct = ctx.encrypt(&ctx.encode(&vals, ctx.default_scale(), 1), &sk, &mut rng);
            let mut state = BootState::Start { ct };
            while !state.is_done() {
                state = booter.try_step(&ctx, state, &keys).unwrap();
                if let BootState::Split { y_re, y_im, .. } = &state {
                    assert_eq!(y_re.level(), ctx.max_level() - 2, "N = {n}");
                    assert_eq!(y_im.level(), y_re.level(), "N = {n}: EvalIm at EvalRe's level");
                }
            }
            let BootState::Done { ct: out } = state else {
                unreachable!("loop runs to Done")
            };
            assert_eq!(out.level(), ctx.max_level() - booter.depth() - 2, "N = {n}");
            assert_eq!(out.level(), 5, "N = {n}");
            let got = ctx.decode(&ctx.decrypt(&out, &sk), slots);
            for (g, e) in got.iter().zip(&vals) {
                assert!((g - e).abs() < 0.05, "N = {n}: {g} vs {e}");
            }
        }
    }

    #[test]
    fn negative_rotation_step_resolves_to_its_canonical_key_and_slots() {
        // Regression (aliased rotation steps): a bundle generated for the
        // canonical step `slots - k` must serve a lookup spelled `-k`, and
        // the two spellings must rotate bit-identically — before step
        // canonicalization, `try_rot_key(-k)` was a MissingKey even though
        // the congruent key existed.
        let ctx = boot_ctx();
        let slots = ctx.params().slots() as i64;
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let sk = ctx.keygen_sparse(8, &mut rng);
        let keys = BootstrapKeys::generate(
            &ctx,
            &sk,
            KeySwitchKind::Standard,
            &[slots - 3],
            &mut rng,
        );
        // Canonicalized key set: one key, at the canonical step.
        assert_eq!(keys.rotation_steps(), vec![slots - 3]);
        let k_neg = keys
            .try_rot_key(&ctx, -3)
            .expect("-3 must resolve to the congruent canonical key");
        let k_pos = keys.try_rot_key(&ctx, slots - 3).unwrap();
        assert!(Arc::ptr_eq(&k_neg, &k_pos), "one congruence class, one key");
        // And the rotations themselves are the same slot permutation.
        let pt = ctx.encode(&[1.0, 2.0, 3.0, 4.0], ctx.default_scale(), ctx.max_level());
        let ct = ctx.encrypt(&pt, &sk, &mut rng);
        let r_neg = ctx.try_rotate(&ct, -3, k_neg.as_ref()).unwrap();
        let r_pos = ctx.try_rotate(&ct, slots - 3, k_pos.as_ref()).unwrap();
        assert_eq!(r_neg, r_pos, "congruent steps must rotate bit-identically");
        // A generate() fed *both* spellings collapses them onto one key.
        let both = BootstrapKeys::generate(
            &ctx,
            &sk,
            KeySwitchKind::Standard,
            &[-3, slots - 3, slots + 5, 5],
            &mut rng,
        );
        assert_eq!(both.rotation_steps(), vec![5, slots - 3]);
    }

    #[test]
    fn keygen_fills_precompute_and_shrinks_key_set() {
        let ctx = boot_ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let sk = ctx.keygen_sparse(8, &mut rng);
        let booter = Bootstrapper::new(&ctx, 8);
        assert!(booter.precompute().is_empty());
        let keys = booter.keygen(&ctx, &sk, KeySwitchKind::Boosted { digits: 1 }, &mut rng);
        // All four radix-stage levels are encoded eagerly at keygen.
        assert_eq!(booter.precompute().len(), 4);
        // The key set is the union of the four precomputes' BSGS steps:
        // nothing missing, nothing extra.
        let m = ctx.params().slots();
        let mut want = BTreeSet::new();
        let l_max = ctx.max_level();
        for (stage, top) in [
            (TransformStage::CoeffToSlot, l_max),
            (TransformStage::SlotToCoeff, l_max - booter.depth()),
        ] {
            for part in 0..2 {
                let pre = booter.precomputed(&ctx, stage, part, top - part);
                let diags: usize = pre.giants.iter().map(|(_, terms)| terms.len()).sum();
                let steps = pre.required_steps();
                assert!(steps.len() <= 2 * bsgs_baby(diags) as usize);
                want.extend(steps.iter().map(|&s| cl_math::canonical_rotation_step(s, m)));
            }
        }
        assert_eq!(booter.precompute().stats().hits, 4, "keygen filled all four");
        assert_eq!(keys.rotation_steps(), want.into_iter().collect::<Vec<_>>());
        // CoeffToSlot's and SlotToCoeff's stages share offset sets, so the
        // whole bundle needs at most 2⌈√d⌉ keys per stage shape — against
        // m − 1 for one key per diagonal of a dense special-FFT matrix.
        let bound: usize = booter.cts.iter().map(|d| 2 * bsgs_baby(d.len()) as usize).sum();
        assert!(
            keys.rotations.len() <= bound && bound < m - 1,
            "{} keys, bound {bound}, per-diagonal {}",
            keys.rotations.len(),
            m - 1
        );
    }

    #[test]
    fn eval_sin_matches_reference() {
        let ctx = boot_ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let sk = ctx.keygen_sparse(8, &mut rng);
        let booter = Bootstrapper::new(&ctx, 8);
        let keys = booter.keygen(&ctx, &sk, KeySwitchKind::Boosted { digits: 1 }, &mut rng);
        let slots = ctx.params().slots();
        // Real inputs within the bound.
        let vals: Vec<f64> = (0..slots)
            .map(|i| (i as f64 / slots as f64 - 0.5) * 2.0 * booter.k_bound * 0.9)
            .collect();
        let pt = ctx.encode(&vals, ctx.default_scale(), ctx.max_level());
        let ct = ctx.encrypt(&pt, &sk, &mut rng);
        let out = booter
            .try_eval_sin(&ctx, &ct, &keys)
            .expect("eval_sin on in-range inputs");
        let got = ctx.decode(&ctx.decrypt(&out, &sk), slots);
        for (g, &x) in got.iter().zip(&vals) {
            let expect = (2.0 * std::f64::consts::PI * x).sin() / (2.0 * std::f64::consts::PI);
            assert!(
                (g - expect).abs() < 1e-2,
                "sin mismatch at x={x}: {g} vs {expect}"
            );
        }
    }

    #[test]
    fn try_bootstrap_reports_missing_rotation_key() {
        let ctx = boot_ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let sk = ctx.keygen_sparse(8, &mut rng);
        let booter = Bootstrapper::new(&ctx, 8);
        let mut keys = booter.keygen(&ctx, &sk, KeySwitchKind::Boosted { digits: 1 }, &mut rng);
        // Drop one rotation key the CoeffToSlot transform needs (the
        // smallest step is a baby step of its fine radix stage).
        let dropped = *keys.rotations.keys().min().expect("bootstrap needs rotation keys");
        keys.rotations.remove(&dropped);
        let slots = ctx.params().slots();
        let pt = ctx.encode(&vec![0.25; slots], ctx.default_scale(), 1);
        let ct = ctx.encrypt(&pt, &sk, &mut rng);
        let err = booter
            .try_bootstrap(&ctx, &ct, &keys)
            .expect_err("bootstrap must fail without its rotation keys");
        match err {
            FheError::MissingKey { what } => {
                assert!(
                    what.contains(&format!("step {dropped}")),
                    "error must name the missing step: {what}"
                );
            }
            other => panic!("expected MissingKey, got {other:?}"),
        }
    }

    #[test]
    fn try_bootstrap_rejects_shallow_budget() {
        // A chain too short for the pipeline's depth.
        let params = CkksParams::builder()
            .ring_degree(64)
            .levels(6)
            .special_limbs(6)
            .limb_bits(45)
            .scale_bits(45)
            .build()
            .unwrap();
        let ctx = CkksContext::new(params).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        let sk = ctx.keygen_sparse(8, &mut rng);
        let booter = Bootstrapper::new(&ctx, 8);
        let keys = booter.keygen(&ctx, &sk, KeySwitchKind::Boosted { digits: 1 }, &mut rng);
        let slots = ctx.params().slots();
        let pt = ctx.encode(&vec![0.25; slots], ctx.default_scale(), 1);
        let ct = ctx.encrypt(&pt, &sk, &mut rng);
        match booter.try_bootstrap(&ctx, &ct, &keys) {
            Err(FheError::InvalidParams { op: "bootstrap", reason }) => {
                assert!(reason.contains("cannot cover"), "{reason}");
            }
            other => panic!("expected InvalidParams for shallow budget, got {other:?}"),
        }
    }

    #[test]
    fn stepwise_bootstrap_matches_monolithic_and_roundtrips_state() {
        let ctx = boot_ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let sk = ctx.keygen_sparse(8, &mut rng);
        let booter = Bootstrapper::new(&ctx, 8);
        let keys = booter.keygen(&ctx, &sk, KeySwitchKind::Boosted { digits: 1 }, &mut rng);
        let slots = ctx.params().slots();
        let vals: Vec<f64> = (0..slots).map(|i| ((i * 5 % 11) as f64 / 11.0) - 0.5).collect();
        let pt = ctx.encode(&vals, ctx.default_scale(), 1);
        let ct = ctx.encrypt(&pt, &sk, &mut rng);
        let direct = booter.try_bootstrap(&ctx, &ct, &keys).unwrap();
        // Drive the machine manually, serializing the state at every stage
        // boundary — the exact path the checkpointing executor takes.
        let mut state = BootState::Start { ct: ct.clone() };
        let mut stages = Vec::new();
        while !state.is_done() {
            stages.push(state.stage_index());
            let blob = state.serialize(&ctx);
            let restored = BootState::try_deserialize(&ctx, &blob).unwrap();
            assert_eq!(restored.stage_index(), state.stage_index());
            for (a, b) in state.ciphertexts().iter().zip(restored.ciphertexts()) {
                assert_eq!(*a, b, "roundtrip must be bit-identical");
            }
            state = booter.try_step(&ctx, restored, &keys).unwrap();
        }
        assert_eq!(stages, vec![0, 1, 2, 3, 4]);
        match state {
            BootState::Done { ct: stepped } => {
                assert_eq!(stepped, direct, "stepwise result must be bit-identical");
            }
            other => panic!("expected Done, got {}", other.stage_name()),
        }
    }

    #[test]
    fn boot_state_rejects_corrupted_blob() {
        let ctx = boot_ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(18);
        let sk = ctx.keygen_sparse(8, &mut rng);
        let pt = ctx.encode(&[0.5], ctx.default_scale(), 1);
        let ct = ctx.encrypt(&pt, &sk, &mut rng);
        let state = BootState::Start { ct };
        let blob = state.serialize(&ctx);
        // Framing byte.
        let mut bad = blob.clone();
        bad[0] ^= 1;
        assert!(BootState::try_deserialize(&ctx, &bad).is_err());
        // Payload byte deep in the ciphertext blob.
        let mut bad = blob.clone();
        let off = blob.len() - 20;
        bad[off] ^= 0x10;
        assert!(BootState::try_deserialize(&ctx, &bad).is_err());
    }

    #[test]
    fn bootstrap_keys_roundtrip_through_serialization() {
        let ctx = boot_ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(19);
        let sk = ctx.keygen_sparse(8, &mut rng);
        let booter = Bootstrapper::new(&ctx, 8);
        let keys = booter.keygen(&ctx, &sk, KeySwitchKind::Boosted { digits: 1 }, &mut rng);
        let blob = keys.serialize(&ctx);
        let back = BootstrapKeys::try_deserialize(&ctx, &blob).unwrap();
        assert_eq!(back.rotation_steps(), keys.rotation_steps());
        // Compact load defers the end-to-end digest check to expansion.
        assert!(back.try_relin(&ctx).unwrap().verify_integrity());
        assert!(back.try_conj(&ctx).unwrap().verify_integrity());
        assert_eq!(
            back.relin_compact().integrity_digest(),
            keys.relin_compact().integrity_digest()
        );
        assert_eq!(
            back.conj_compact().integrity_digest(),
            keys.conj_compact().integrity_digest()
        );
        for step in keys.rotation_steps() {
            assert_eq!(
                back.rot_compact(step).unwrap().integrity_digest(),
                keys.rot_compact(step).unwrap().integrity_digest()
            );
        }
        // The loaded bundle actually bootstraps.
        let slots = ctx.params().slots();
        let pt = ctx.encode(&vec![0.25; slots], ctx.default_scale(), 1);
        let ct = ctx.encrypt(&pt, &sk, &mut rng);
        let a = booter.try_bootstrap(&ctx, &ct, &keys).unwrap();
        let b = booter.try_bootstrap(&ctx, &ct, &back).unwrap();
        assert_eq!(a, b);
        // Single-byte corruption anywhere in the bundle is rejected.
        let mut bad = blob.clone();
        bad[30] ^= 0x80; // framing region
        assert!(BootstrapKeys::try_deserialize(&ctx, &bad).is_err());
        let mut bad = blob.clone();
        let off = blob.len() / 2; // some nested key's payload
        bad[off] ^= 0x01;
        assert!(BootstrapKeys::try_deserialize(&ctx, &bad).is_err());
    }

    #[test]
    fn bootstrap_under_thrashing_hint_cache_is_bit_identical() {
        // A budget of 1 byte forces every hint to be evicted and
        // re-expanded mid-pipeline (one resident at a time); the result
        // must be bit-identical to a cache that never evicts.
        let ctx = boot_ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let sk = ctx.keygen_sparse(8, &mut rng);
        let booter = Bootstrapper::new(&ctx, 8);
        let keys = booter
            .keygen(&ctx, &sk, KeySwitchKind::Boosted { digits: 1 }, &mut rng)
            .with_cache(Arc::new(HintCache::new(usize::MAX)));
        let slots = ctx.params().slots();
        let pt = ctx.encode(&vec![0.125; slots], ctx.default_scale(), 1);
        let ct = ctx.encrypt(&pt, &sk, &mut rng);
        let roomy = booter.try_bootstrap(&ctx, &ct, &keys).unwrap();
        let tiny_cache = Arc::new(HintCache::new(1));
        let keys = keys.with_cache(tiny_cache.clone());
        let thrashed = booter.try_bootstrap(&ctx, &ct, &keys).unwrap();
        assert_eq!(thrashed, roomy, "eviction must never change results");
        let stats = tiny_cache.stats();
        assert!(
            stats.evictions > 0,
            "a 1-byte budget must actually thrash: {stats:?}"
        );
    }

    #[test]
    fn bootstrap_end_to_end_refreshes_budget() {
        let ctx = boot_ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let sk = ctx.keygen_sparse(8, &mut rng);
        let booter = Bootstrapper::new(&ctx, 8);
        let keys = booter.keygen(&ctx, &sk, KeySwitchKind::Boosted { digits: 1 }, &mut rng);
        let slots = ctx.params().slots();
        let vals: Vec<f64> = (0..slots).map(|i| ((i * 7 % 13) as f64 / 13.0) - 0.5).collect();
        // An exhausted ciphertext at level 1.
        let pt = ctx.encode(&vals, ctx.default_scale(), 1);
        let ct = ctx.encrypt(&pt, &sk, &mut rng);
        assert_eq!(ct.level(), 1);
        let refreshed = booter.try_bootstrap(&ctx, &ct, &keys).unwrap();
        assert!(
            refreshed.level() > ct.level() + 2,
            "bootstrap must refresh the budget: got level {}",
            refreshed.level()
        );
        // The analytic noise estimate must survive the pipeline (finite and
        // accounted against the refreshed chain's budget).
        assert!(refreshed.noise_estimate_bits().is_finite());
        assert!(
            ctx.budget_bits(&refreshed) > 0.0,
            "refreshed ciphertext must report usable budget"
        );
        let got = ctx.decode(&ctx.decrypt(&refreshed, &sk), slots);
        for (g, e) in got.iter().zip(&vals) {
            assert!(
                (g - e).abs() < 0.05,
                "bootstrapped value mismatch: {g} vs {e}"
            );
        }
    }
}


//! Functional CKKS bootstrapping.
//!
//! An executable packed bootstrap at test-scale parameters, run as a fixed
//! schedule: [`Bootstrapper::new`] builds one stage table (the four radix
//! stages with their diagonals, BSGS splits and levels, and EvalMod's `r`)
//! that key generation, the precompute and every step read. It runs the
//! four phases [`crate::BootstrapPlan`] models, not its shape: two uncapped
//! radix stages per transform and a Taylor EvalMod, where the plan counts
//! three capped stages and a Chebyshev one (ROADMAP.md item 2).
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
//!    applied to the real and imaginary slot components as two independent
//!    chains that run side by side on the worker pool. It works slot by
//!    slot, so the bit-reversed order does not matter.
//! 4. **SlotToCoeff** — recombine `m_re + i·m_im` (again the exact
//!    monomial), then the forward special FFT back to coefficients: fine
//!    stage, then coarse stage, on bit-reversed input, so the two
//!    permutations cancel.
//!
//! [`Bootstrapper::try_step`] runs these as five checkpointable steps
//! (see [`BootState`]): ModRaise; CoeffToSlot with the split; both
//! EvalMod chains; the recombine with SlotToCoeff's fine stage; its
//! coarse stage.
//!
//! The exact multiplications by `i` cost no level, so the two radix
//! stages per transform cost what one stage with plaintext `±i` products
//! would. The result is a ciphertext of the *same message* at a much
//! higher level — a refreshed multiplicative budget (Fig. 2).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Range;
use std::sync::Arc;

use cl_ckks::{
    Ciphertext, CkksContext, CompactKeySwitchKey, FheError, FheResult, HintCache, KeySwitchKey,
    Plaintext, SecretKey,
};
use cl_isa::cost::bsgs_baby_steps;
use cl_math::{Cache, Complex, SpecialFft};
use rand::Rng;

/// Taylor degree of EvalMod's `exp(2πi·y/2^r)`. Tied to the power tree in
/// `try_eval_sin`, which builds exactly `y^1..y^7` (its power array is
/// typed by this constant, so a different value fails to compile there).
const TAYLOR_DEGREE: usize = 7;

/// Multiplicative depth of the power tree: `y^d` needs `⌈log2 d⌉` levels.
const POWER_TREE_DEPTH: usize = TAYLOR_DEGREE.next_power_of_two().trailing_zeros() as usize;

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
        use cl_ckks::serialize::{put_i64, put_u32, seal, write_header, ObjectTag};
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
        seal(&mut out, meta_start);
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
        use cl_ckks::serialize::{ObjectTag, Reader};
        let mut r = Reader::new("load_bootstrap_keys", bytes);
        r.read_header(ObjectTag::BootstrapKeys, ctx.params_fingerprint())?;
        let meta_start = r.pos();
        // Each rotation declares a step (i64) and a blob length (u32).
        let num_rot = r.count(12)?;
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
        r.verify_section(meta_start, "bundle framing")?;
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
/// `Start → Raised → Split → EvalBoth → SlotHalf → Done`
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
    /// After EvalMod on both components.
    EvalBoth {
        /// `sin`-reduced real component.
        m_re: Ciphertext,
        /// `sin`-reduced imaginary component.
        m_im: Ciphertext,
        /// The input scale.
        orig_scale: f64,
    },
    /// After the recombine and SlotToCoeff's fine radix stage.
    SlotHalf {
        /// The recombined ciphertext, at the input scale, one radix stage
        /// into SlotToCoeff.
        ct: Ciphertext,
    },
    /// Pipeline complete.
    Done {
        /// The refreshed ciphertext.
        ct: Ciphertext,
    },
}

/// The wire tag a retired state carried: EvalMod's real half alone, from
/// when the two halves ran as two stages. Refused on load, so a checkpoint
/// that holds one restarts its job instead of resuming it.
const RETIRED_EVAL_RE_TAG: u8 = 3;

impl BootState {
    /// Number of `try_step` transitions from [`BootState::Start`] to
    /// [`BootState::Done`].
    pub const NUM_STAGES: usize = 5;

    /// The state's wire tag: one fixed byte per state kind, never reused
    /// for another kind.
    fn tag(&self) -> u8 {
        match self {
            BootState::Start { .. } => 0,
            BootState::Raised { .. } => 1,
            BootState::Split { .. } => 2,
            BootState::EvalBoth { .. } => 4,
            BootState::Done { .. } => 5,
            BootState::SlotHalf { .. } => 6,
        }
    }

    /// Human-readable stage name for telemetry and errors.
    pub fn stage_name(&self) -> &'static str {
        match self {
            BootState::Start { .. } => "Start",
            BootState::Raised { .. } => "Raised",
            BootState::Split { .. } => "Split",
            BootState::EvalBoth { .. } => "EvalBoth",
            BootState::SlotHalf { .. } => "SlotHalf",
            BootState::Done { .. } => "Done",
        }
    }

    /// The number of [`Bootstrapper::try_step`] transitions that led
    /// from [`BootState::Start`] (0) to this state
    /// ([`BootState::NUM_STAGES`] for [`BootState::Done`]).
    pub fn steps_taken(&self) -> usize {
        match self {
            BootState::Start { .. } => 0,
            BootState::Raised { .. } => 1,
            BootState::Split { .. } => 2,
            BootState::EvalBoth { .. } => 3,
            BootState::SlotHalf { .. } => 4,
            BootState::Done { .. } => 5,
        }
    }

    /// Whether the pipeline has produced its output.
    pub fn is_done(&self) -> bool {
        matches!(self, BootState::Done { .. })
    }

    /// The ciphertexts this state owns, in a stage-defined order.
    pub fn ciphertexts(&self) -> Vec<&Ciphertext> {
        match self {
            BootState::Start { ct } | BootState::SlotHalf { ct } | BootState::Done { ct } => {
                vec![ct]
            }
            BootState::Raised { raised, .. } => vec![raised],
            BootState::Split { y_re, y_im, .. } => vec![y_re, y_im],
            BootState::EvalBoth { m_re, m_im, .. } => vec![m_re, m_im],
        }
    }

    /// Mutable access to the state's ciphertexts (same order as
    /// [`BootState::ciphertexts`]). Exists for fault-injection harnesses
    /// that corrupt in-flight bootstrap state.
    pub fn ciphertexts_mut(&mut self) -> Vec<&mut Ciphertext> {
        match self {
            BootState::Start { ct } | BootState::SlotHalf { ct } | BootState::Done { ct } => {
                vec![ct]
            }
            BootState::Raised { raised, .. } => vec![raised],
            BootState::Split { y_re, y_im, .. } => vec![y_re, y_im],
            BootState::EvalBoth { m_re, m_im, .. } => vec![m_re, m_im],
        }
    }

    fn orig_scale(&self) -> f64 {
        match self {
            BootState::Start { .. } | BootState::SlotHalf { .. } | BootState::Done { .. } => 0.0,
            BootState::Raised { orig_scale, .. }
            | BootState::Split { orig_scale, .. }
            | BootState::EvalBoth { orig_scale, .. } => *orig_scale,
        }
    }

    /// Serializes the state: a checksummed `(tag, orig_scale, blob
    /// lengths)` framing section followed by the stage's ciphertext blobs
    /// (each self-checking; see [`CkksContext::serialize_ciphertext`]).
    /// Headerless — designed to be embedded in a larger checkpoint record.
    pub fn serialize(&self, ctx: &CkksContext) -> Vec<u8> {
        use cl_ckks::serialize::{put_f64, put_u32, put_u8, seal};
        let blobs: Vec<Vec<u8>> = self
            .ciphertexts()
            .iter()
            .map(|ct| ctx.serialize_ciphertext(ct))
            .collect();
        let mut out = Vec::new();
        let meta_start = out.len();
        put_u8(&mut out, self.tag());
        put_f64(&mut out, self.orig_scale());
        put_u8(&mut out, blobs.len() as u8);
        for blob in &blobs {
            put_u32(&mut out, blob.len() as u32);
        }
        seal(&mut out, meta_start);
        for blob in &blobs {
            out.extend_from_slice(blob);
        }
        out
    }

    /// Loads a state written by [`BootState::serialize`].
    ///
    /// # Errors
    ///
    /// [`FheError::Serialization`] (an unknown or retired tag among them),
    /// [`FheError::ChecksumMismatch`], or [`FheError::ParamsMismatch`].
    pub fn try_deserialize(ctx: &CkksContext, bytes: &[u8]) -> FheResult<Self> {
        use cl_ckks::serialize::Reader;
        let mut r = Reader::new("load_boot_state", bytes);
        let meta_start = r.pos();
        let tag = r.u8()?;
        let orig_scale = r.f64()?;
        let count = r.u8()? as usize;
        let mut lens = Vec::with_capacity(count);
        for _ in 0..count {
            lens.push(r.u32()? as usize);
        }
        r.verify_section(meta_start, "boot-state framing")?;
        let refuse = |reason: String| FheError::Serialization {
            op: "load_boot_state",
            reason,
        };
        let want = match tag {
            0 | 1 | 5 | 6 => 1,
            2 | 4 => 2,
            RETIRED_EVAL_RE_TAG => {
                return Err(refuse(format!(
                    "bootstrap stage tag {tag} is retired (EvalMod's real half alone, \
                     from before both halves ran as one stage)"
                )))
            }
            _ => return Err(refuse(format!("unknown bootstrap stage tag {tag}"))),
        };
        if count != want {
            return Err(refuse(format!(
                "stage tag {tag} carries {count} ciphertexts, expected {want}"
            )));
        }
        let mut cts = Vec::with_capacity(count);
        for len in lens {
            cts.push(ctx.try_deserialize_ciphertext(r.take(len)?)?);
        }
        r.finish()?;
        let mut it = cts.into_iter();
        let mut next = || it.next().expect("count checked above");
        Ok(match tag {
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
            4 => BootState::EvalBoth {
                m_re: next(),
                m_im: next(),
                orig_scale,
            },
            6 => BootState::SlotHalf { ct: next() },
            _ => BootState::Done { ct: next() },
        })
    }
}

/// A linear map on the slot vector in generalized-diagonal form:
/// `(d, diag)` pairs with `out[j] = Σ_d diag[j] · v[(j + d) mod slots]`.
type Diagonals = Vec<(i64, Vec<Complex>)>;

/// A functional bootstrapper: its stage table (the radix stages of the two
/// transforms with their level plan, plus the EvalMod configuration) and
/// the transform plaintexts encoded from it.
pub struct Bootstrapper {
    /// The radix stages in application order: CoeffToSlot's coarse and
    /// fine stage, then SlotToCoeff's fine and coarse one.
    stages: [RadixStage; 4],
    /// Double-angle iterations.
    r: u32,
    /// Input range bound `|y| <= k` for EvalMod.
    k_bound: f64,
    /// Encoded transform plaintexts, cached per context, stage and level.
    precompute: BootstrapPrecompute,
}

// CoeffToSlot's and SlotToCoeff's stages, as indices into the table.
const COEFF_TO_SLOT: [usize; 2] = [0, 1];
const SLOT_TO_COEFF: [usize; 2] = [2, 3];

/// One radix stage of a bootstrap transform, as [`Bootstrapper::new`]
/// computes it once.
#[derive(Debug)]
pub struct RadixStage {
    diagonals: Diagonals,
    /// One `(baby, giant)` pair per diagonal (see [`PrecomputedTransform`]).
    split: Vec<(i64, i64)>,
    /// Levels the pipeline consumes before the stage runs: a bootstrap
    /// from `l_max` runs it at `l_max - levels_before`.
    levels_before: usize,
}

impl RadixStage {
    /// The nonzero generalized diagonals `(offset, diagonal)`, offsets in
    /// `[0, slots)`.
    pub fn diagonals(&self) -> &[(i64, Vec<Complex>)] {
        &self.diagonals
    }

    /// Every nonzero rotation step the stage needs a key for (baby
    /// offsets plus giant steps), sorted, as its precompute's
    /// [`PrecomputedTransform::required_steps`].
    pub fn required_steps(&self) -> Vec<i64> {
        let mut steps: BTreeSet<i64> = self.split.iter().flat_map(|&(b, g)| [b, g]).collect();
        steps.remove(&0);
        steps.into_iter().collect()
    }
}

impl std::fmt::Debug for Bootstrapper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bootstrapper")
            .field("r", &self.r)
            .field("k_bound", &self.k_bound)
            .finish()
    }
}

/// A linear transform arranged for baby-step/giant-step evaluation, with
/// every diagonal plaintext already encoded at a fixed level.
///
/// Each diagonal offset is split as `d ≡ G + B (mod m)` with a baby offset
/// `B` and a giant step `G` (see [`RadixStage`]), so the sum
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

/// The baby-step/giant-step split of a transform's diagonal offsets over
/// `m` slots: one `(baby, giant)` pair per offset, with
/// `baby + giant ≡ d (mod m)`. Every [`PrecomputedTransform`] and every
/// [`RadixStage`] uses this one rule, so a bootstrap's key set is the union
/// of its stages' [`RadixStage::required_steps`].
///
/// The offsets' common stride `g = gcd(m, d, …)` is factored out and each
/// offset is centred into `(−m/2, m/2]`, so `k = d/g` is a small signed
/// index; with `b = ⌈√#offsets⌉` the baby offset is `(k mod b)·g` and the
/// giant step `(k − k mod b)·g`. A radix stage whose offsets are multiples
/// of 16, or straddle zero, then needs about `2√#offsets` rotations instead
/// of one per diagonal. The baby count is [`bsgs_baby_steps`] with no cap,
/// independent of level so the key set is stable across the modulus chain;
/// `BootstrapPlan` caps the same rule so the live baby set fits on chip.
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
    let b = bsgs_baby_steps(canon.iter().collect::<BTreeSet<_>>().len(), usize::MAX) as i64;
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
        let offsets: Vec<i64> = diags.iter().map(|(d, _)| *d).collect();
        Self::encode(ctx, diags, &bsgs_split(&offsets, ctx.params().slots()), level)
    }

    /// [`PrecomputedTransform::new`] over a computed split.
    fn encode(
        ctx: &CkksContext,
        diags: &[(i64, Vec<Complex>)],
        split: &[(i64, i64)],
        level: usize,
    ) -> Self {
        assert!(level >= 2, "BSGS transform needs a level to rescale into");
        let m = ctx.params().slots();
        // Encoded at exactly the scale of the modulus the closing rescale
        // drops: the transform then preserves the ciphertext scale exactly
        // (any deviation would be amplified exponentially by EvalMod's
        // squaring chain).
        let scale = ctx.rns().modulus_value((level - 1) as u32) as f64;
        let mut baby_set = BTreeSet::new();
        let mut groups: BTreeMap<i64, Vec<(i64, Plaintext)>> = BTreeMap::new();
        for ((_, diag), &(baby, giant)) in diags.iter().zip(split) {
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
/// level)`: the context they were encoded under, the radix stage (an index
/// into [`Bootstrapper::stages`]), and the level it runs at. A
/// bootstrapper shared by contexts with different moduli thus never serves
/// one context's plaintexts to another. Filled eagerly at
/// [`Bootstrapper::keygen`] for the four stage levels
/// [`Bootstrapper::try_bootstrap`] visits; other levels build lazily.
pub type BootstrapPrecompute = Cache<(u64, usize, usize), PrecomputedTransform>;

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
/// The baby steps and the giant groups' inner sums are independent
/// operations, so both fan out across the worker pool
/// ([`cl_rns::try_par_map`]); results come back in step and group order,
/// so the output, its noise estimate and the op counts are the serial
/// run's.
///
/// Every baby and giant step's compact key is looked up before any work,
/// so a missing key fails first. Each hint is fetched from the bundle's
/// [`HintCache`] when its hoisted-rotation group runs, under the cache's
/// one eviction rule (least recently used).
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
    // A missing key fails before any work is done.
    for &step in nonzero.iter().chain(&giant_steps) {
        keys.rot_compact(step)?;
    }
    // Baby rotations: one hoisted ModUp serves every step.
    let baby_arcs: Vec<Arc<KeySwitchKey>> = nonzero
        .iter()
        .map(|&i| keys.try_rot_key(ctx, i))
        .collect::<FheResult<_>>()?;
    let baby_keys: Vec<&KeySwitchKey> = baby_arcs.iter().map(Arc::as_ref).collect();
    let rotated = ctx.try_rotate_hoisted_many(ct, &nonzero, &baby_keys)?;
    drop(baby_keys);
    drop(baby_arcs);
    let mut babies: HashMap<i64, &Ciphertext> =
        nonzero.iter().copied().zip(rotated.iter()).collect();
    babies.insert(0, ct);
    // Inner sums: plaintext-multiply each baby into its giant group, the
    // first product in a fresh ciphertext and the rest accumulated into it
    // in place. The groups are independent (each reads the shared babies
    // and writes its own sum), so they fan out across the worker pool, and
    // come back in group order.
    let inners: Vec<(Ciphertext, i64)> = cl_rns::try_par_map(pre.giants.len(), |g| {
        let (jb, terms) = &pre.giants[g];
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
        Ok::<_, FheError>((inner, *jb))
    })?;
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
    ctx.try_rescale(&summed)
}

/// One depth of EvalMod's power tree: each `a·b`, with `a` dropped to
/// `b`'s level first, relinearized and rescaled. The products are
/// independent, so they fan out across the worker pool; the results and
/// the first error are in the order given.
fn power_products<const K: usize>(
    ctx: &CkksContext,
    relin: &KeySwitchKey,
    pairs: [(&Ciphertext, &Ciphertext); K],
) -> FheResult<[Ciphertext; K]> {
    let products: Vec<Ciphertext> = cl_rns::try_par_map(K, |i| {
        let (a, b) = pairs[i];
        ctx.try_rescale(&ctx.try_mul(&ctx.try_mod_drop(a, b.level())?, b, relin)?)
    })?;
    Ok(products.try_into().expect("one product per pair"))
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

/// The four radix stages' diagonals over `slots` slots, in application
/// order: CoeffToSlot's coarse and fine stage, then SlotToCoeff's fine and
/// coarse one. The fine half is the `⌊log2(slots)/2⌋` butterfly levels
/// with the smallest distance, the coarse half the rest.
fn transform_stages(slots: usize) -> [Diagonals; 4] {
    let fft = SpecialFft::new(slots);
    let inverse = |v: &mut [Complex], r: Range<u32>| fft.inverse_levels(v, r);
    let forward = |v: &mut [Complex], r: Range<u32>| fft.forward_levels(v, r);
    let levels = slots.trailing_zeros();
    let fine = levels / 2;
    [
        // CoeffToSlot: the inverse FFT's butterflies (coarse, then fine)
        // without its closing bit reversal, the `1/n` folded into the fine
        // stage (either stage would do: the refresh's precision is set by
        // EvalMod).
        radix_stage(slots, (fine..levels).rev(), &inverse, 1.0),
        radix_stage(slots, (0..fine).rev(), &inverse, 1.0 / slots as f64),
        // SlotToCoeff: the forward FFT's butterflies (fine, then coarse)
        // without its leading bit reversal — the input is in the
        // bit-reversed order CoeffToSlot left it in.
        radix_stage(slots, 0..fine, &forward, 1.0),
        radix_stage(slots, fine..levels, &forward, 1.0),
    ]
}

impl Bootstrapper {
    /// Builds a bootstrapper for the given context. `h` is the secret key's
    /// Hamming weight (bounds the EvalMod range).
    pub fn new(ctx: &CkksContext, h: usize) -> Self {
        // |I| <= (h+1)/2 plus the message's q0 fraction.
        let k_bound = (h as f64 + 1.0) / 2.0 + 1.0;
        // Choose r so the Taylor argument 2π·k/2^r stays below ~0.8.
        let mut r = 0u32;
        while 2.0 * std::f64::consts::PI * k_bound / 2f64.powi(r as i32) > 0.8 {
            r += 1;
        }
        // The level plan: CoeffToSlot runs on the raised ciphertext, then
        // EvalMod takes its Taylor powers (`POWER_TREE_DEPTH`), Taylor sum
        // (1), `r` squarings and final constant (1); each radix stage runs
        // one level below the one before it.
        let slot_to_coeff = 2 + POWER_TREE_DEPTH + 1 + r as usize + 1;
        let slots = ctx.params().slots();
        let stage = |diagonals: Diagonals, levels_before| {
            let offsets: Vec<i64> = diagonals.iter().map(|(d, _)| *d).collect();
            let split = bsgs_split(&offsets, slots);
            RadixStage { diagonals, split, levels_before }
        };
        let [coarse_in, fine_in, fine_out, coarse_out] = transform_stages(slots);
        Self {
            stages: [
                stage(coarse_in, 0),
                stage(fine_in, 1),
                stage(fine_out, slot_to_coeff),
                stage(coarse_out, slot_to_coeff + 1),
            ],
            r,
            k_bound,
            precompute: BootstrapPrecompute::unbounded(),
        }
    }

    /// The radix stages in application order: CoeffToSlot's coarse and
    /// fine stage, then SlotToCoeff's fine and coarse one.
    pub fn stages(&self) -> &[RadixStage; 4] {
        &self.stages
    }

    /// EvalMod's double-angle iterations: `exp(2πi·y)` is the Taylor
    /// expansion of `exp(2πi·y/2^r)` squared `r` times.
    pub fn r(&self) -> u32 {
        self.r
    }

    /// The level a bootstrap from a chain of `l_max` levels exits at, one
    /// below its last radix stage. This is the one budget rule for a
    /// bootstrap: every stage needs a level to rescale into.
    ///
    /// # Errors
    ///
    /// [`FheError::InvalidParams`] when `l_max` cannot cover the pipeline.
    pub fn try_exit_level(&self, l_max: usize) -> FheResult<usize> {
        let below_last = self.stages[SLOT_TO_COEFF[1]].levels_before + 1;
        match l_max.checked_sub(below_last) {
            Some(exit) if exit >= 1 => Ok(exit),
            _ => Err(FheError::InvalidParams {
                op: "bootstrap",
                reason: format!("budget {l_max} cannot cover {} bootstrap levels", below_last + 1),
            }),
        }
    }

    /// Generates the keyswitch keys bootstrapping needs — only the
    /// [`RadixStage::required_steps`] of the four stages, not one key per
    /// diagonal — and eagerly fills the [`BootstrapPrecompute`] cache for
    /// the four stage levels [`Bootstrapper::try_bootstrap`] visits, so no
    /// transform plaintext is encoded on the bootstrap hot path.
    pub fn keygen<R: Rng + ?Sized>(
        &self,
        ctx: &CkksContext,
        sk: &SecretKey,
        kind: cl_ckks::KeySwitchKind,
        rng: &mut R,
    ) -> BootstrapKeys {
        let l_max = ctx.max_level();
        if self.try_exit_level(l_max).is_ok() {
            for (i, stage) in self.stages.iter().enumerate() {
                self.precomputed(ctx, i, l_max - stage.levels_before);
            }
        }
        let steps: Vec<i64> = self.stages.iter().flat_map(RadixStage::required_steps).collect();
        BootstrapKeys::generate(ctx, sk, kind, &steps, rng)
    }

    /// Read access to the transform plaintext cache.
    pub fn precompute(&self) -> &BootstrapPrecompute {
        &self.precompute
    }

    /// The plaintexts of radix stage `i` at `level` under `ctx`, encoded on
    /// a miss.
    fn precomputed(&self, ctx: &CkksContext, i: usize, level: usize) -> Arc<PrecomputedTransform> {
        self.precompute.get_or_insert_with((ctx.params_fingerprint(), i, level), || {
            let stage = &self.stages[i];
            PrecomputedTransform::encode(ctx, &stage.diagonals, &stage.split, level)
        })
    }

    /// Radix stage `i` of the stage table on `ct`: a BSGS transform over
    /// the stage's cached plaintexts at `ct`'s level. Consumes one level.
    fn try_radix_stage(
        &self,
        ctx: &CkksContext,
        ct: &Ciphertext,
        i: usize,
        keys: &BootstrapKeys,
    ) -> FheResult<Ciphertext> {
        try_bsgs_transform(ctx, ct, &self.precomputed(ctx, i, ct.level()), keys)
    }

    /// A special-FFT transform as its two radix stages in turn. Consumes
    /// two levels.
    fn try_linear_transform(
        &self,
        ctx: &CkksContext,
        ct: &Ciphertext,
        [first, second]: [usize; 2],
        keys: &BootstrapKeys,
    ) -> FheResult<Ciphertext> {
        let mid = self.try_radix_stage(ctx, ct, first, keys)?;
        self.try_radix_stage(ctx, &mid, second, keys)
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
        // One cache fetch per hint serves the whole chain; both come
        // before the first operation, so a bad hint fails the chain
        // before it computes anything.
        let relin = keys.try_relin(ctx)?;
        let relin = relin.as_ref();
        let conj = keys.try_conj(ctx)?;
        let two_pi = 2.0 * std::f64::consts::PI;
        let theta = two_pi / 2f64.powi(self.r as i32);
        // Taylor coefficients of exp(i·theta·y) in y.
        let mut coeffs = Vec::with_capacity(TAYLOR_DEGREE + 1);
        let mut term = Complex::new(1.0, 0.0);
        coeffs.push(term);
        for k in 1..=TAYLOR_DEGREE {
            term = term * Complex::new(0.0, theta) / k as f64;
            coeffs.push(term);
        }
        // Powers y^1..y^7 with depth 3: y2=y*y, then y3=y*y2 ‖ y4=y2*y2,
        // then y5=y2*y3 ‖ y6=y3*y3 ‖ y7=y3*y4. The products of one depth
        // are independent relinearized multiplications, so each depth fans
        // out across the worker pool (results in the order written).
        let y1 = ct.clone();
        let y2 = ctx.try_rescale(&ctx.try_mul(&y1, &y1, relin)?)?;
        let [y3, y4] = power_products(ctx, relin, [(&y1, &y2), (&y2, &y2)])?;
        let [y5, y6, y7] = power_products(ctx, relin, [(&y2, &y3), (&y3, &y3), (&y3, &y4)])?;
        // Align all powers at the deepest level/scale and combine:
        // E0 = sum_k coeffs[k] * y^k.
        let target_level = y7.level();
        let powers: [Ciphertext; TAYLOR_DEGREE] = [y1, y2, y3, y4, y5, y6, y7];
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
        let wc = ctx.try_conjugate(&w, conj.as_ref())?;
        ctx.try_add(&w, &wc)
    }

    /// Advances a bootstrap by exactly one stage:
    ///
    /// 1. `Start → Raised`: ModRaise.
    /// 2. `Raised → Split`: CoeffToSlot and the real/imaginary split.
    /// 3. `Split → EvalBoth`: EvalMod on both halves, two independent
    ///    chains side by side on the worker pool (one after the other at
    ///    one thread; a failed real chain starts no imaginary one).
    /// 4. `EvalBoth → SlotHalf`: the recombine, then SlotToCoeff's fine
    ///    radix stage.
    /// 5. `SlotHalf → Done`: SlotToCoeff's coarse radix stage, then the
    ///    noise-estimate re-seed.
    ///
    /// This is the checkpointable unit of the pipeline: a caller (e.g. the
    /// cl-runtime executor) can serialize the returned [`BootState`]
    /// between stages, survive a crash mid-bootstrap, and resume at the
    /// stage boundary instead of restarting the whole pipeline. Passing a
    /// [`BootState::Done`] state returns it unchanged. Every result is
    /// bit-identical at any thread count.
    ///
    /// # Errors
    ///
    /// - [`FheError::InvalidParams`] if the context's budget cannot cover
    ///   the pipeline's levels (see [`Bootstrapper::try_exit_level`]).
    /// - [`FheError::MissingKey`] if a rotation key for a transform
    ///   diagonal is absent from `keys`.
    /// - Any error the underlying homomorphic ops report under the
    ///   context's guardrail policy; from step 3, the real chain's error
    ///   when both chains fail.
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
                let halves = [&y_re, &y_im];
                let [m_re, m_im]: [Ciphertext; 2] =
                    cl_rns::try_par_map(2, |i| self.try_eval_sin(ctx, halves[i], keys))?
                        .try_into()
                        .expect("one chain per half");
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
            BootState::SlotHalf { ct } => self.step_slot_to_coeff_coarse(ctx, ct, keys),
            done @ BootState::Done { .. } => Ok(done),
        }
    }

    /// Stage 1 — ModRaise: lift residues mod q0 to the full chain.
    fn step_mod_raise(&self, ctx: &CkksContext, ct: Ciphertext) -> FheResult<BootState> {
        let l_max = ctx.max_level();
        self.try_exit_level(l_max)?;
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
        let u = self.try_linear_transform(ctx, &raised, COEFF_TO_SLOT, keys)?;
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

    /// Stage 4 — recombine the EvalMod outputs, then SlotToCoeff's fine
    /// radix stage.
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
        Ok(BootState::SlotHalf {
            ct: self.try_radix_stage(ctx, &restored, SLOT_TO_COEFF[0], keys)?,
        })
    }

    /// Stage 5 — SlotToCoeff's coarse radix stage, then the noise re-seed.
    fn step_slot_to_coeff_coarse(
        &self,
        ctx: &CkksContext,
        half: Ciphertext,
        keys: &BootstrapKeys,
    ) -> FheResult<BootState> {
        let out = self.try_radix_stage(ctx, &half, SLOT_TO_COEFF[1], keys)?;
        // EvalMod removed the `q0·I` term the analytic estimate has been
        // carrying since ModRaise; the refreshed ciphertext's error is
        // dominated by the sine-approximation instead (a degree-d Taylor
        // expansion leaves a relative error around 2^-d on the unit-scaled
        // slots). Re-seed the tracked estimate so downstream budget
        // accounting reflects the refreshed state, not the pre-EvalMod
        // bound.
        let approx_bits = out.scale().log2() - TAYLOR_DEGREE as f64;
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
        // Every step advances one stage, so this ends at Done.
        let mut state = BootState::Start { ct: ct.clone() };
        loop {
            state = match self.try_step(ctx, state, keys)? {
                BootState::Done { ct } => return Ok(ct),
                next => next,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cl_ckks::{CkksParams, KeySwitchKind};
    use rand::SeedableRng;

    /// Whether a load failed as a diagnosed integrity rejection.
    fn is_integrity_rejection<T>(r: &FheResult<T>) -> bool {
        matches!(
            r,
            Err(FheError::Serialization { .. }
                | FheError::ChecksumMismatch { .. }
                | FheError::ParamsMismatch { .. })
        )
    }

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
    fn transform_stages_factor_the_special_fft() {
        // The plain-arithmetic oracle: the stages applied in sequence are
        // the special FFT with its bit reversal moved to the slot order,
        // at every power-of-two slot count up to 4096 (1 and 2 slots have
        // an identity stage).
        for levels in 0..=12u32 {
            let slots = 1usize << levels;
            let fine = levels / 2;
            let stages = transform_stages(slots);
            // A stage of `s` butterfly levels has at most 2^{s+1} − 1
            // diagonals.
            let bound = |s: u32| (1usize << (s + 1)) - 1;
            for (stage, s) in stages.iter().zip([levels - fine, fine, fine, levels - fine]) {
                assert!(
                    stage.len() <= bound(s),
                    "slots {slots}: {} diagonals for {s} levels",
                    stage.len()
                );
            }
            if slots == 512 {
                let counts = stages.each_ref().map(Vec::len);
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
            let got = apply_diagonals(&stages[1], &apply_diagonals(&stages[0], &v));
            close(&got, &want, "CoeffToSlot");
            // SlotToCoeff = bit reversal, then forward.
            let mut want = v.clone();
            cl_math::bit_reverse_permute(&mut want);
            fft.forward(&mut want);
            let got = apply_diagonals(&stages[3], &apply_diagonals(&stages[2], &v));
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
            .try_linear_transform(&ctx, &ct, COEFF_TO_SLOT, &keys)
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
    fn run_visits_the_stage_table_levels() {
        // The run visits the levels the stage table plans: each radix
        // stage one level, EvalMod between the transforms, the exit one
        // below the last stage. The refreshed value is within 0.05 and its
        // tracked noise leaves a usable budget.
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
            assert_eq!(booter.r, 6, "h = 8");
            let l_max = ctx.max_level();
            let levels = booter.stages.each_ref().map(|stage| l_max - stage.levels_before);
            assert_eq!(levels, [20, 19, 7, 6], "N = {n}");
            let keys = booter.keygen(&ctx, &sk, KeySwitchKind::Boosted { digits: 1 }, &mut rng);
            let slots = ctx.params().slots();
            let vals: Vec<f64> = (0..slots).map(|i| ((i * 7 % 13) as f64 / 13.0) - 0.5).collect();
            let ct = ctx.encrypt(&ctx.encode(&vals, ctx.default_scale(), 1), &sk, &mut rng);
            let mut state = BootState::Start { ct };
            while !state.is_done() {
                state = booter.try_step(&ctx, state, &keys).unwrap();
                match &state {
                    BootState::Split { y_re, y_im, .. } => {
                        assert_eq!(y_re.level(), levels[1] - 1, "N = {n}");
                        let both = "both halves at Split's level";
                        assert_eq!(y_im.level(), y_re.level(), "N = {n}: {both}");
                    }
                    BootState::EvalBoth { m_re, m_im, .. } => {
                        assert_eq!([m_re.level(), m_im.level()], [levels[2]; 2], "N = {n}");
                    }
                    BootState::SlotHalf { ct } => {
                        assert_eq!(ct.level(), levels[3], "N = {n}");
                    }
                    _ => {}
                }
            }
            let BootState::Done { ct: out } = state else {
                unreachable!("loop runs to Done")
            };
            assert_eq!(out.level(), booter.try_exit_level(l_max).unwrap(), "N = {n}");
            assert_eq!(out.level(), 5, "N = {n}");
            assert!(out.noise_estimate_bits().is_finite() && ctx.budget_bits(&out) > 0.0);
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
        // Each precompute encodes its stage's diagonals under the table's
        // split, and the key set is the union of the four precomputes'
        // BSGS steps: nothing missing, nothing extra.
        let m = ctx.params().slots();
        let mut want = BTreeSet::new();
        let l_max = ctx.max_level();
        for (i, stage) in booter.stages.iter().enumerate() {
            let pre = booter.precomputed(&ctx, i, l_max - stage.levels_before);
            let diags: usize = pre.giants.iter().map(|(_, terms)| terms.len()).sum();
            assert_eq!(diags, stage.diagonals.len());
            let steps = pre.required_steps();
            assert_eq!(steps, stage.required_steps());
            assert!(steps.len() <= 2 * bsgs_baby_steps(diags, usize::MAX));
            want.extend(steps.iter().map(|&s| cl_math::canonical_rotation_step(s, m)));
        }
        assert_eq!(booter.precompute().stats().hits, 4, "keygen filled all four");
        assert_eq!(keys.rotation_steps(), want.into_iter().collect::<Vec<_>>());
        // CoeffToSlot's and SlotToCoeff's stages share offset sets, so the
        // whole bundle needs at most 2⌈√d⌉ keys per stage shape — against
        // m − 1 for one key per diagonal of a dense special-FFT matrix.
        let bound: usize = COEFF_TO_SLOT
            .map(|i| 2 * bsgs_baby_steps(booter.stages[i].diagonals.len(), usize::MAX))
            .iter()
            .sum();
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
        // The rule's edge: a chain of 16 exits at level 1, one of 15 cannot.
        assert_eq!([16, 15].map(|l| booter.try_exit_level(l).ok()), [Some(1), None]);
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
        loop {
            stages.push((state.stage_name(), state.tag()));
            let blob = state.serialize(&ctx);
            let restored = BootState::try_deserialize(&ctx, &blob).unwrap();
            assert_eq!(restored.tag(), state.tag());
            let cts = state.ciphertexts();
            assert_eq!(restored.ciphertexts(), cts, "roundtrip must be bit-identical");
            if state.is_done() {
                break;
            }
            state = booter.try_step(&ctx, restored, &keys).unwrap();
        }
        assert_eq!(
            stages,
            [
                ("Start", 0),
                ("Raised", 1),
                ("Split", 2),
                ("EvalBoth", 4),
                ("SlotHalf", 6),
                ("Done", 5)
            ]
        );
        assert_eq!(stages.len(), BootState::NUM_STAGES + 1);
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
        // Every byte of the sealed framing section: stage, scale, count,
        // one blob length, checksum.
        for i in 0..1 + 8 + 1 + 4 + 8 {
            let mut bad = blob.clone();
            bad[i] ^= 1;
            assert!(
                is_integrity_rejection(&BootState::try_deserialize(&ctx, &bad)),
                "framing byte {i} flipped without rejection"
            );
        }
        // Payload byte deep in the ciphertext blob.
        let mut bad = blob.clone();
        let off = blob.len() - 20;
        bad[off] ^= 0x10;
        assert!(BootState::try_deserialize(&ctx, &bad).is_err());
    }

    #[test]
    fn boot_state_refuses_the_retired_eval_re_tag() {
        // A sealed, well-formed state under tag 3 — two ciphertexts, the
        // shape the retired real-half-only state had — is refused as a
        // typed error, not decoded as the two-ciphertext state beside it.
        let ctx = boot_ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(20);
        let sk = ctx.keygen_sparse(8, &mut rng);
        let mut ct = |v: f64| ctx.encrypt(&ctx.encode(&[v], ctx.default_scale(), 7), &sk, &mut rng);
        let state = BootState::EvalBoth {
            m_re: ct(0.25),
            m_im: ct(-0.5),
            orig_scale: ctx.default_scale(),
        };
        let mut blob = state.serialize(&ctx);
        assert!(BootState::try_deserialize(&ctx, &blob).is_ok());
        // Re-seal the framing (tag, scale, count, two lengths) under tag 3.
        let framing = 1 + 8 + 1 + 2 * 4;
        let mut resealed = vec![RETIRED_EVAL_RE_TAG];
        resealed.extend_from_slice(&blob[1..framing]);
        cl_ckks::serialize::seal(&mut resealed, 0);
        blob.splice(..framing + 8, resealed);
        match BootState::try_deserialize(&ctx, &blob) {
            Err(FheError::Serialization { op: "load_boot_state", reason }) => {
                assert!(reason.contains("retired"), "{reason}");
            }
            other => panic!("tag 3 must be refused, got {other:?}"),
        }
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
        // Every byte of the header and the sealed framing section: rotation
        // count, steps, blob lengths, checksum.
        let framing_end = 16 + 4 + 12 * keys.rotation_steps().len() + 8 + 8;
        for i in 0..framing_end {
            let mut bad = blob.clone();
            bad[i] ^= 0x80;
            assert!(
                is_integrity_rejection(&BootstrapKeys::try_deserialize(&ctx, &bad)),
                "framing byte {i} flipped without rejection"
            );
        }
        // A rotation count beyond the bytes present (20-byte blob) fails
        // before it sizes anything.
        for count in [u32::MAX, 1 << 31] {
            let mut hostile = blob[..16].to_vec();
            hostile.extend_from_slice(&count.to_le_bytes());
            assert!(matches!(
                BootstrapKeys::try_deserialize(&ctx, &hostile),
                Err(FheError::Serialization { op: "load_bootstrap_keys", .. })
            ));
        }
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
}


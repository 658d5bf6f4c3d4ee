//! Key material: secret keys, public keys, and keyswitch keys (hints) in
//! both materialized and compact (seeded) resident forms.

use cl_rns::RnsPoly;

use crate::error::{FheError, FheResult};
use crate::keyswitch::KeySwitchKind;
use crate::serialize::{FNV_OFFSET, FNV_PRIME};
use crate::CkksContext;

/// A secret key: a ternary polynomial over the full modulus chain
/// (ciphertext moduli and special moduli), kept in NTT form.
#[derive(Debug, Clone)]
pub struct SecretKey {
    pub(crate) s: RnsPoly,
}

impl SecretKey {
    /// The secret polynomial (NTT form, full basis).
    pub fn poly(&self) -> &RnsPoly {
        &self.s
    }
}

/// A public encryption key `(pk0, pk1) = (-a·s + e, a)` over the full
/// ciphertext-modulus chain.
#[derive(Debug, Clone)]
pub struct PublicKey {
    pub(crate) pk0: RnsPoly,
    pub(crate) pk1: RnsPoly,
}

/// A keyswitch key — the paper's *keyswitch hint* (KSH).
///
/// For boosted keyswitching with `t` digits this is `t` pairs of
/// polynomials over the extended basis `Q·P`; for standard keyswitching it
/// is `L` pairs (one per limb) over `Q` extended by a single rescaling
/// modulus. The second element of every pair is
/// pseudo-random and is regenerated on demand from `seed` — the software
/// equivalent of the KSHGen functional unit (Sec. 5.2), which halves the
/// hint's storage and memory traffic.
#[derive(Debug, Clone)]
pub struct KeySwitchKey {
    pub(crate) kind: KeySwitchKind,
    /// `(k0, k1)` per digit, NTT form, over the key basis.
    pub(crate) elems: Vec<(RnsPoly, RnsPoly)>,
    /// Ciphertext-modulus limbs covered by each digit.
    pub(crate) digit_limbs: Vec<Vec<u32>>,
    /// Seed regenerating every `k1` (the pseudo-random half).
    pub(crate) seed: u64,
    /// `log2` of the hint error magnitude (the sampler's σ times any
    /// error scaling, e.g. BGV's plaintext modulus `t`) — consumed by the
    /// analytic noise model.
    pub(crate) error_bits: f64,
    /// Integrity digest over the hint payload and every metadata field
    /// above, computed at keygen; the strict guardrail policy re-verifies
    /// it once per hint application, where the keyswitch consumes the
    /// hint, so a corrupted hint is caught instead of silently destroying
    /// the result.
    pub(crate) digest: u64,
}

/// Independent digest chains per residue limb.
const DIGEST_LANES: usize = 8;

/// One digest step: FNV-1a's xor-multiply on a whole word, then a
/// down-shift so every input bit reaches the low state bits (without it two
/// flips of the same high bit cancel). The xor, the odd multiply and the
/// xorshift are each a bijection of the state, so for a fixed state every
/// word leads to a different next state, and for a fixed word every state
/// does.
#[inline(always)]
fn absorb(h: u64, w: u64) -> u64 {
    let x = (h ^ w).wrapping_mul(FNV_PRIME);
    x ^ (x >> 32)
}

/// Digest of one residue limb: word `i` feeds chain `i % DIGEST_LANES`, and
/// the chains are folded in order with the same step. The chains do not
/// wait on one another, so their multiplies overlap and the digest runs at
/// about a word per cycle instead of one multiply latency per word. Plain
/// scalar code: the value is the same on every backend.
fn limb_digest(words: &[u64]) -> u64 {
    let mut lanes = [FNV_OFFSET; DIGEST_LANES];
    let (rows, tail) = words.as_chunks::<DIGEST_LANES>();
    for row in rows {
        for (h, &w) in lanes.iter_mut().zip(row) {
            *h = absorb(*h, w);
        }
    }
    for (h, &w) in lanes.iter_mut().zip(tail) {
        *h = absorb(*h, w);
    }
    lanes.iter().fold(FNV_OFFSET, |h, &lane| absorb(h, lane))
}

impl KeySwitchKey {
    /// The keyswitching algorithm this key is for.
    pub fn kind(&self) -> KeySwitchKind {
        self.kind
    }

    /// Number of digits.
    pub fn num_digits(&self) -> usize {
        self.elems.len()
    }

    /// The seed from which the pseudo-random halves (`k1`) are derived.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Total size in machine words if the hint is stored in full.
    pub fn num_words_full(&self) -> usize {
        self.elems
            .iter()
            .map(|(k0, k1)| k0.num_words() + k1.num_words())
            .sum()
    }

    /// Size in machine words when the pseudo-random half is regenerated
    /// from the seed (the KSHGen optimization): only `k0` is stored.
    pub fn num_words_seeded(&self) -> usize {
        self.elems.iter().map(|(k0, _)| k0.num_words()).sum()
    }

    /// The limbs of the ciphertext-modulus chain covered by digit `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range.
    pub fn digit_limbs(&self, d: usize) -> &[u32] {
        &self.digit_limbs[d]
    }

    /// The integrity digest computed over the hint payload at keygen.
    pub fn integrity_digest(&self) -> u64 {
        self.digest
    }

    /// Recomputes the payload digest and compares it against the one
    /// stored at keygen. `false` means the hint was modified after
    /// generation (bit flips, truncation, tampering).
    pub fn verify_integrity(&self) -> bool {
        self.compute_digest() == self.digest
    }

    /// Bytes this key keeps resident when fully materialized (both hint
    /// halves).
    pub fn resident_bytes(&self) -> usize {
        self.num_words_full() * 8
    }

    /// Drops the pseudo-random halves, keeping only what cannot be
    /// regenerated: the seed, the `k0` halves, and the digit metadata. The
    /// inverse is [`CompactKeySwitchKey::expand`], which reproduces this key
    /// bit-for-bit (verified through the integrity digest).
    pub fn to_compact(&self) -> CompactKeySwitchKey {
        CompactKeySwitchKey {
            kind: self.kind,
            k0: self.elems.iter().map(|(k0, _)| k0.clone()).collect(),
            digit_limbs: self.digit_limbs.clone(),
            seed: self.seed,
            error_bits: self.error_bits,
            digest: self.digest,
        }
    }

    /// The metadata (seed, kind, error model, digit partition) chained
    /// step by step, then one [`limb_digest`] per residue limb of the
    /// payload, in digit, half and limb order. Every step is a bijection,
    /// so a change to any single word or field always changes the digest.
    pub(crate) fn compute_digest(&self) -> u64 {
        #[cfg(any(test, feature = "faults"))]
        crate::faults::count_digest();
        let kind = match self.kind {
            KeySwitchKind::Standard => 0,
            KeySwitchKind::Boosted { digits } => 1 + digits as u64,
        };
        let mut h = [self.seed, kind, self.error_bits.to_bits()]
            .into_iter()
            .fold(FNV_OFFSET, absorb);
        for limbs in &self.digit_limbs {
            h = absorb(h, limbs.len() as u64);
            h = limbs.iter().fold(h, |h, &l| absorb(h, l as u64));
        }
        for (k0, k1) in &self.elems {
            for poly in [k0, k1] {
                for k in 0..poly.num_limbs() {
                    h = absorb(h, limb_digest(poly.limb(k)));
                }
            }
        }
        h
    }
}

/// The compact resident form of a keyswitch hint: the seed, the non-random
/// `k0` halves, and the digit metadata — everything the pseudorandom halves
/// can be regenerated *from*, and nothing they can be regenerated *to*.
///
/// This is the form keys live in at rest (ARK's compressed keys, the
/// payload CraterLake streams from HBM); [`CompactKeySwitchKey::expand`]
/// plays the KSHGen functional unit, materializing the `k1` halves through
/// the vectorized seeded generator on demand. The stored `digest` is the
/// digest of the *materialized* key, so expansion re-verifies end to end
/// that regeneration reproduced exactly the hint keygen produced.
#[derive(Debug, Clone)]
pub struct CompactKeySwitchKey {
    pub(crate) kind: KeySwitchKind,
    /// The non-random halves (`k0` per digit), NTT form, over the key basis.
    pub(crate) k0: Vec<RnsPoly>,
    /// Ciphertext-modulus limbs covered by each digit.
    pub(crate) digit_limbs: Vec<Vec<u32>>,
    /// Seed regenerating every `k1`.
    pub(crate) seed: u64,
    /// `log2` of the hint error magnitude (see [`KeySwitchKey`]).
    pub(crate) error_bits: f64,
    /// Integrity digest of the fully materialized key.
    pub(crate) digest: u64,
}

impl CompactKeySwitchKey {
    /// The keyswitching algorithm this key is for.
    pub fn kind(&self) -> KeySwitchKind {
        self.kind
    }

    /// Number of digits.
    pub fn num_digits(&self) -> usize {
        self.k0.len()
    }

    /// The seed from which the pseudo-random halves are derived.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The integrity digest of the materialized key this compact form
    /// expands to.
    pub fn integrity_digest(&self) -> u64 {
        self.digest
    }

    /// Total size in machine words of the resident payload (`k0` only).
    pub fn num_words(&self) -> usize {
        self.k0.iter().map(RnsPoly::num_words).sum()
    }

    /// Bytes this compact key keeps resident.
    pub fn resident_bytes(&self) -> usize {
        self.num_words() * 8
    }

    /// Materializes the full keyswitch key: regenerates every pseudo-random
    /// half from the seed through the vectorized seeded generator, then
    /// verifies the result against the stored integrity digest.
    ///
    /// # Errors
    ///
    /// [`FheError::CorruptKey`] when the materialized key's digest does not
    /// match — either the compact payload was corrupted or the generator
    /// diverged from the one keygen used.
    pub fn expand(&self, ctx: &CkksContext) -> FheResult<KeySwitchKey> {
        let rns = ctx.rns();
        let elems = self
            .k0
            .iter()
            .enumerate()
            .map(|(d, k0)| {
                let k1 = crate::keyswitch::prandom_poly(rns, k0.basis(), self.seed, d as u64);
                (k0.clone(), k1)
            })
            .collect();
        let key = KeySwitchKey {
            kind: self.kind,
            elems,
            digit_limbs: self.digit_limbs.clone(),
            seed: self.seed,
            error_bits: self.error_bits,
            digest: self.digest,
        };
        if !key.verify_integrity() {
            return Err(FheError::CorruptKey {
                op: "expand_compact_key",
                reason: format!(
                    "materialized hint digest {:#018x} does not match the stored {:#018x}: \
                     compact payload corrupted or generator mismatch",
                    key.compute_digest(),
                    self.digest
                ),
            });
        }
        Ok(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{corrupt_hint_word, FLIP_MASK};
    use crate::CkksParams;
    use rand::SeedableRng;

    /// Two levels and two special limbs admit boosted d = 1, boosted d = 2
    /// and Standard keys; 128 coefficients put 16 words in every lane.
    fn ctx() -> CkksContext {
        let params = CkksParams::builder()
            .ring_degree(128)
            .levels(2)
            .special_limbs(2)
            .limb_bits(40)
            .scale_bits(32)
            .build()
            .unwrap();
        CkksContext::new(params).unwrap()
    }

    fn relin_key(c: &CkksContext, kind: KeySwitchKind) -> KeySwitchKey {
        let mut rng = rand::rngs::StdRng::seed_from_u64(25);
        let sk = c.keygen(&mut rng);
        c.relin_keygen(&sk, kind, &mut rng)
    }

    const KINDS: [KeySwitchKind; 3] = [
        KeySwitchKind::Boosted { digits: 1 },
        KeySwitchKind::Boosted { digits: 2 },
        KeySwitchKind::Standard,
    ];

    #[test]
    fn every_single_word_flip_is_detected() {
        let c = ctx();
        for kind in KINDS {
            let mut k = relin_key(&c, kind);
            let limbs = k.elems[0].0.num_limbs();
            let n = k.elems[0].0.n();
            for digit in 0..k.num_digits() {
                for half in 0..2 {
                    for limb in 0..limbs {
                        for coeff in 0..n {
                            corrupt_hint_word(&mut k, digit, half, limb, coeff);
                            assert!(
                                !k.verify_integrity(),
                                "{kind:?}: flip at digit {digit} half {half} limb {limb} \
                                 coeff {coeff} undetected"
                            );
                            corrupt_hint_word(&mut k, digit, half, limb, coeff);
                        }
                    }
                }
            }
            assert!(k.verify_integrity(), "{kind:?}: flips must be undone");
        }
    }

    #[test]
    fn same_lane_pairs_of_high_bit_flips_do_not_cancel() {
        // Without the down-shift two flips of bit 63 in one chain always
        // cancel (the multiply only carries upward), and bit-62 pairs
        // cancel whenever the carries line up.
        let c = ctx();
        let mut k = relin_key(&c, KeySwitchKind::Boosted { digits: 1 });
        let n = k.elems[0].0.n();
        for mask in [FLIP_MASK, 1 << 63] {
            for lane in 0..DIGEST_LANES {
                let words: Vec<usize> = (lane..n).step_by(DIGEST_LANES).collect();
                for (x, &i) in words.iter().enumerate() {
                    for &j in &words[x + 1..] {
                        let flip = |k: &mut KeySwitchKey| {
                            let limb = k.elems[0].0.limb_mut(0);
                            limb[i] ^= mask;
                            limb[j] ^= mask;
                        };
                        flip(&mut k);
                        assert!(
                            !k.verify_integrity(),
                            "flips of {mask:#x} at words {i} and {j} cancel"
                        );
                        flip(&mut k);
                    }
                }
            }
        }
        assert!(k.verify_integrity());
    }

    #[test]
    fn every_metadata_field_is_covered() {
        let c = ctx();
        let k = relin_key(&c, KeySwitchKind::Boosted { digits: 2 });
        let mut tampered: Vec<KeySwitchKey> = vec![k.clone(); 4];
        tampered[0].seed ^= 1;
        tampered[1].error_bits += 1.0;
        tampered[2].kind = KeySwitchKind::Boosted { digits: 3 };
        tampered[3].digit_limbs.swap(0, 1);
        for (i, t) in tampered.iter().enumerate() {
            assert!(!t.verify_integrity(), "metadata change {i} undetected");
        }
    }

    #[test]
    fn digest_of_a_fixed_seed_key_is_pinned() {
        // The digest travels in every key blob. Changing its construction
        // must come with a `serialize::FORMAT_VERSION` bump and a new
        // value here.
        let c = ctx();
        let k = relin_key(&c, KeySwitchKind::Boosted { digits: 2 });
        assert_eq!(k.integrity_digest(), 0x3941_62a9_9df0_3243);
    }
}

//! Versioned, integrity-checked binary serialization for ciphertext state.
//!
//! CraterLake's unbounded-computation story implies jobs that outlive a
//! process: checkpoints on disk, key material shipped between machines,
//! results archived for later pipelines. This module defines the hand-rolled
//! wire format those paths share — no external codec crates, every byte
//! little-endian and covered by an integrity check:
//!
//! - a 16-byte header: magic `CLFH`, format version, an object tag, and a
//!   64-bit **params fingerprint** binding the blob to the producing
//!   context's `(N, moduli chain, scale, special limbs)`
//!   ([`CkksContext::params_fingerprint`]);
//! - object metadata guarded by an FNV-1a checksum over its bytes;
//! - residue-polynomial payloads with a **per-limb checksum**, mirroring
//!   BASALISC's per-residue conformance checking in hardware.
//!
//! Load paths are fallible: structural damage reports
//! [`FheError::Serialization`], payload corruption reports
//! [`FheError::ChecksumMismatch`] naming the failing section, and a blob
//! from a different parameter set reports [`FheError::ParamsMismatch`].
//! Single-byte corruption anywhere in a blob is rejected (property-tested
//! in `tests/properties.rs`).
//!
//! Keyswitch hints are stored *seeded*: only the `k0` halves travel on the
//! wire, and the pseudo-random `k1` halves are regenerated from the seed at
//! load time — the serialization analogue of the KSHGen unit (Sec. 5.2),
//! halving hint blobs.

use cl_rns::{Basis, RnsPoly};

use crate::ciphertext::Ciphertext;
use crate::context::CkksContext;
use crate::error::{FheError, FheResult};
use crate::keys::{CompactKeySwitchKey, KeySwitchKey};
use crate::keyswitch::{self, KeySwitchKind};

/// File magic: the first four bytes of every blob.
pub const MAGIC: [u8; 4] = *b"CLFH";

/// Current wire-format version. Bump on any layout change; loaders reject
/// versions they do not understand instead of misparsing.
///
/// v2: residue-limb payload checksums switched from byte-wise FNV-1a to
/// the word-wise variant ([`fnv1a_words_chain`]) — 8 bytes per step
/// instead of 1, which takes the checksum off the checkpoint hot path
/// while still rejecting any single-byte corruption.
///
/// v3: the keyswitch-hint integrity digest carried in key blobs switched
/// from serial FNV-1a over 32-bit halves to eight interleaved whole-word
/// chains per limb with a down-shift, and now covers `error_bits` — so a v2
/// key blob is refused by version instead of failing its digest.
pub const FORMAT_VERSION: u16 = 3;

/// Discriminates what a blob contains, so a ciphertext cannot be loaded as
/// a key (or vice versa) even when the sizes happen to line up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ObjectTag {
    /// A bare residue polynomial.
    RnsPoly = 1,
    /// A ciphertext (two polynomials plus level/scale/noise metadata).
    Ciphertext = 2,
    /// A keyswitch hint, stored seeded (only the `k0` halves).
    KeySwitchKey = 3,
    /// A bootstrapping key bundle (relin + conjugation + rotation hints).
    BootstrapKeys = 4,
    /// A pipeline-executor checkpoint (cl-runtime).
    Checkpoint = 5,
    /// A declared pipeline program (cl-runtime).
    Program = 6,
    /// A write-ahead job journal (cl-server).
    Journal = 7,
}

impl ObjectTag {
    /// Maps a wire byte back to its tag, or `None` for unknown bytes.
    pub fn from_u8(b: u8) -> Option<Self> {
        match b {
            1 => Some(ObjectTag::RnsPoly),
            2 => Some(ObjectTag::Ciphertext),
            3 => Some(ObjectTag::KeySwitchKey),
            4 => Some(ObjectTag::BootstrapKeys),
            5 => Some(ObjectTag::Checkpoint),
            6 => Some(ObjectTag::Program),
            7 => Some(ObjectTag::Journal),
            _ => None,
        }
    }
}

/// FNV-1a's 64-bit offset basis and prime, shared with the keyswitch-hint
/// digest and the params fingerprint.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
pub(crate) const FNV_PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a over a byte slice — the integrity checksum used throughout the
/// wire format.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_chain(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a accumulation from a prior state, for checksums over
/// logically concatenated regions.
pub fn fnv1a_chain(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Word-wise FNV-1a continuation: absorbs one little-endian `u64` per
/// step instead of one byte. ~8x fewer serial multiply steps than
/// [`fnv1a_chain`] over the same data, so it is the checksum for the
/// megabyte-scale residue-limb payloads (format v2); any single flipped
/// byte still changes the absorbed word and therefore the digest.
/// Byte-wise FNV-1a remains in use for the small metadata regions.
pub fn fnv1a_words_chain(mut h: u64, words: &[u64]) -> u64 {
    for &w in words {
        h ^= w;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Fast digest over an arbitrary byte slice: word-wise FNV-1a over the
/// 8-byte-aligned prefix, byte-wise over the tail. NOT equal to
/// [`fnv1a`] over the same bytes — use it for internal content digests
/// (job bindings, cache keys), never where the wire format specifies the
/// byte-wise checksum.
pub fn fnv1a_fast(bytes: &[u8]) -> u64 {
    let (words, tail) = bytes.as_chunks::<8>();
    let mut h = FNV_OFFSET;
    for c in words {
        h ^= u64::from_le_bytes(*c);
        h = h.wrapping_mul(FNV_PRIME);
    }
    fnv1a_chain(h, tail)
}

// ---------------------------------------------------------------------
// Little-endian write helpers
// ---------------------------------------------------------------------

/// Appends a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a little-endian `u16`.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `i64`.
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a slice of `u64` words, little-endian, in one bulk copy on
/// little-endian hosts (a per-word loop elsewhere). The limb payloads
/// this serves are the bulk of every ciphertext/checkpoint blob, so this
/// runs at memcpy speed instead of one `Vec` push per word.
pub fn put_u64_slice(out: &mut Vec<u8>, words: &[u64]) {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: `u64` has no padding, every byte pattern is a valid
        // `u8`, and on a little-endian host the in-memory bytes of the
        // slice are exactly the wire encoding.
        let bytes: &[u8] = unsafe {
            std::slice::from_raw_parts(words.as_ptr().cast::<u8>(), std::mem::size_of_val(words))
        };
        out.extend_from_slice(bytes);
    }
    #[cfg(not(target_endian = "little"))]
    for &w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

/// Appends an `f64` as its IEEE-754 bit pattern (little-endian).
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Writes the 16-byte blob header: magic, version, tag, reserved byte,
/// params fingerprint.
pub fn write_header(out: &mut Vec<u8>, tag: ObjectTag, fingerprint: u64) {
    out.extend_from_slice(&MAGIC);
    put_u16(out, FORMAT_VERSION);
    put_u8(out, tag as u8);
    put_u8(out, 0); // reserved
    put_u64(out, fingerprint);
}

/// Inspects an untrusted blob's header without parsing the payload:
/// returns `(tag, fingerprint)` after validating magic, format version,
/// and the reserved byte. This is the cheap admission-path pre-check a
/// serving front-end runs before accepting a blob into a queue — it
/// classifies the object and lets the caller match the fingerprint
/// against the submitting tenant's parameters, while full structural and
/// checksum validation stays deferred to the real load.
///
/// # Errors
///
/// [`FheError::Serialization`] for a blob too short to hold a header, bad
/// magic, an unsupported version, an unknown object tag, or a nonzero
/// reserved byte.
pub fn peek_header(op: &'static str, bytes: &[u8]) -> FheResult<(ObjectTag, u64)> {
    let mut r = Reader::new(op, bytes);
    let magic = r.take(4)?;
    if magic != MAGIC {
        return Err(r.err(format!("bad magic {magic:02x?}, expected {MAGIC:02x?}")));
    }
    let version = r.u16()?;
    if version != FORMAT_VERSION {
        return Err(r.err(format!(
            "unsupported format version {version} (this build reads {FORMAT_VERSION})"
        )));
    }
    let tag_byte = r.u8()?;
    let tag = ObjectTag::from_u8(tag_byte)
        .ok_or_else(|| r.err(format!("unknown object tag {tag_byte}")))?;
    let reserved = r.u8()?;
    if reserved != 0 {
        return Err(r.err(format!("reserved header byte is {reserved}, must be 0")));
    }
    let fp = r.u64()?;
    Ok((tag, fp))
}

// ---------------------------------------------------------------------
// Fallible reader
// ---------------------------------------------------------------------

/// A bounds-checked cursor over a blob. Every accessor fails with
/// [`FheError::Serialization`] (naming the loading operation) instead of
/// panicking on truncated input.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    op: &'static str,
}

impl<'a> Reader<'a> {
    /// Starts reading `buf` on behalf of operation `op` (used in error
    /// messages).
    pub fn new(op: &'static str, buf: &'a [u8]) -> Self {
        Self { buf, pos: 0, op }
    }

    /// The operation name this reader reports in errors.
    pub fn op(&self) -> &'static str {
        self.op
    }

    /// Builds a [`FheError::Serialization`] for this reader's operation.
    pub fn err(&self, reason: String) -> FheError {
        FheError::Serialization {
            op: self.op,
            reason,
        }
    }

    /// Current offset into the blob.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The raw bytes between `start` and the current position — used to
    /// recompute checksums over a just-parsed region.
    pub fn region_since(&self, start: usize) -> &'a [u8] {
        &self.buf[start..self.pos]
    }

    /// Consumes exactly `len` bytes.
    pub fn take(&mut self, len: usize) -> FheResult<&'a [u8]> {
        if self.remaining() < len {
            return Err(self.err(format!(
                "truncated blob: wanted {len} bytes at offset {}, {} remain",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> FheResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> FheResult<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> FheResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> FheResult<u64> {
        let b = self.take(8)?;
        let mut w = [0u8; 8];
        w.copy_from_slice(b);
        Ok(u64::from_le_bytes(w))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> FheResult<i64> {
        Ok(self.u64()? as i64)
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> FheResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Asserts the whole blob was consumed — trailing garbage is rejected,
    /// not ignored.
    pub fn finish(self) -> FheResult<()> {
        if self.remaining() != 0 {
            return Err(self.err(format!(
                "{} trailing bytes after payload",
                self.remaining()
            )));
        }
        Ok(())
    }

    /// Parses and validates the 16-byte header: magic, version, expected
    /// object tag, reserved byte, and the params fingerprint against
    /// `want_fingerprint` ([`FheError::ParamsMismatch`] on deviation).
    pub fn read_header(&mut self, tag: ObjectTag, want_fingerprint: u64) -> FheResult<()> {
        let magic = self.take(4)?;
        if magic != MAGIC {
            return Err(self.err(format!("bad magic {magic:02x?}, expected {MAGIC:02x?}")));
        }
        let version = self.u16()?;
        if version != FORMAT_VERSION {
            return Err(self.err(format!(
                "unsupported format version {version} (this build reads {FORMAT_VERSION})"
            )));
        }
        let got_tag = self.u8()?;
        if got_tag != tag as u8 {
            return Err(self.err(format!(
                "object tag {got_tag} is not the expected {} ({tag:?})",
                tag as u8
            )));
        }
        let reserved = self.u8()?;
        if reserved != 0 {
            return Err(self.err(format!("reserved header byte is {reserved}, must be 0")));
        }
        let fp = self.u64()?;
        if fp != want_fingerprint {
            return Err(FheError::ParamsMismatch {
                op: self.op,
                got: fp,
                want: want_fingerprint,
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Residue-polynomial blocks
// ---------------------------------------------------------------------

/// Serializes one polynomial as a self-checking block: a checksummed
/// `(n, limbs, ntt)` preamble followed by per-limb
/// `(global index, words, checksum)` sections. The limb checksum also mixes
/// the limb's *position* so two intact limb sections cannot be swapped
/// undetected.
pub fn write_poly(out: &mut Vec<u8>, p: &RnsPoly) {
    let meta_start = out.len();
    put_u32(out, p.n() as u32);
    put_u32(out, p.num_limbs() as u32);
    put_u8(out, p.ntt_form() as u8);
    let meta_cksum = fnv1a(&out[meta_start..]);
    put_u64(out, meta_cksum);
    for (k, (idx, words)) in p.limbs().enumerate() {
        put_u32(out, idx);
        put_u64_slice(out, words);
        let h = fnv1a_chain(fnv1a(&(k as u32).to_le_bytes()), &idx.to_le_bytes());
        put_u64(out, fnv1a_words_chain(h, words));
    }
}

/// Parses a polynomial block written by [`write_poly`], verifying the
/// preamble and every per-limb checksum before constructing the polynomial.
pub fn read_poly(r: &mut Reader<'_>) -> FheResult<RnsPoly> {
    let meta_start = r.pos();
    let n = r.u32()? as usize;
    let num_limbs = r.u32()? as usize;
    let ntt_byte = r.u8()?;
    let computed = fnv1a(r.region_since(meta_start));
    let stored = r.u64()?;
    if stored != computed {
        return Err(FheError::ChecksumMismatch {
            op: r.op(),
            section: "poly metadata".into(),
            stored,
            computed,
        });
    }
    if ntt_byte > 1 {
        return Err(r.err(format!("ntt_form byte is {ntt_byte}, must be 0 or 1")));
    }
    let mut basis = Vec::with_capacity(num_limbs);
    let mut coeffs = Vec::with_capacity(n * num_limbs);
    for k in 0..num_limbs {
        let idx = r.u32()?;
        let words = r.take(n * 8)?;
        // Decode the words first, then checksum the decoded form — one
        // pass over the limb instead of a byte-wise pass plus a decode.
        let limb_start = coeffs.len();
        coeffs.extend(words.chunks_exact(8).map(|c| {
            let mut w = [0u8; 8];
            w.copy_from_slice(c);
            u64::from_le_bytes(w)
        }));
        let h = fnv1a_chain(fnv1a(&(k as u32).to_le_bytes()), &idx.to_le_bytes());
        let computed = fnv1a_words_chain(h, &coeffs[limb_start..]);
        let stored = r.u64()?;
        if stored != computed {
            return Err(FheError::ChecksumMismatch {
                op: r.op(),
                section: format!("limb {k} (global index {idx})"),
                stored,
                computed,
            });
        }
        basis.push(idx);
    }
    RnsPoly::from_raw_parts(n, Basis(basis), coeffs, ntt_byte == 1)
        .map_err(|e| r.err(format!("rejected polynomial parts: {e}")))
}

// ---------------------------------------------------------------------
// Context-bound object (de)serialization
// ---------------------------------------------------------------------

impl CkksContext {
    /// Serializes a bare residue polynomial.
    pub fn serialize_rns_poly(&self, p: &RnsPoly) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + p.num_words() * 8 + p.num_limbs() * 12);
        write_header(&mut out, ObjectTag::RnsPoly, self.params_fingerprint());
        write_poly(&mut out, p);
        out
    }

    /// Loads a residue polynomial written by
    /// [`CkksContext::serialize_rns_poly`].
    ///
    /// # Errors
    ///
    /// [`FheError::Serialization`], [`FheError::ChecksumMismatch`], or
    /// [`FheError::ParamsMismatch`] as described in the module docs.
    pub fn try_deserialize_rns_poly(&self, bytes: &[u8]) -> FheResult<RnsPoly> {
        let mut r = Reader::new("load_rns_poly", bytes);
        r.read_header(ObjectTag::RnsPoly, self.params_fingerprint())?;
        let p = read_poly(&mut r)?;
        r.finish()?;
        Ok(p)
    }

    /// Serializes a ciphertext: checksummed `(level, scale, noise)`
    /// metadata followed by the `c0` and `c1` polynomial blocks.
    pub fn serialize_ciphertext(&self, ct: &Ciphertext) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + ct.num_words() * 8);
        write_header(&mut out, ObjectTag::Ciphertext, self.params_fingerprint());
        let meta_start = out.len();
        put_u32(&mut out, ct.level as u32);
        put_f64(&mut out, ct.scale);
        put_f64(&mut out, ct.noise_bits_est);
        let cksum = fnv1a(&out[meta_start..]);
        put_u64(&mut out, cksum);
        write_poly(&mut out, &ct.c0);
        write_poly(&mut out, &ct.c1);
        out
    }

    /// Loads a ciphertext written by [`CkksContext::serialize_ciphertext`],
    /// verifying the fingerprint, the metadata checksum, and every limb
    /// checksum, then validating the shape against this context's modulus
    /// chain.
    ///
    /// # Errors
    ///
    /// [`FheError::Serialization`], [`FheError::ChecksumMismatch`], or
    /// [`FheError::ParamsMismatch`] as described in the module docs.
    pub fn try_deserialize_ciphertext(&self, bytes: &[u8]) -> FheResult<Ciphertext> {
        let mut r = Reader::new("load_ciphertext", bytes);
        r.read_header(ObjectTag::Ciphertext, self.params_fingerprint())?;
        let meta_start = r.pos();
        let level = r.u32()? as usize;
        let scale = r.f64()?;
        let noise_bits_est = r.f64()?;
        let computed = fnv1a(r.region_since(meta_start));
        let stored = r.u64()?;
        if stored != computed {
            return Err(FheError::ChecksumMismatch {
                op: r.op(),
                section: "ciphertext metadata".into(),
                stored,
                computed,
            });
        }
        if !(1..=self.params().levels).contains(&level) {
            return Err(r.err(format!("level {level} out of range")));
        }
        if !scale.is_finite() || scale <= 0.0 {
            return Err(r.err(format!("scale {scale} is not a positive finite value")));
        }
        let c0 = read_poly(&mut r)?;
        let c1 = read_poly(&mut r)?;
        r.finish()?;
        let want_basis = self.rns().q_basis(level);
        for (name, p) in [("c0", &c0), ("c1", &c1)] {
            if p.n() != self.params().n {
                return Err(FheError::Serialization {
                    op: "load_ciphertext",
                    reason: format!("{name} ring degree {} != context {}", p.n(), self.params().n),
                });
            }
            if p.basis() != &want_basis {
                return Err(FheError::Serialization {
                    op: "load_ciphertext",
                    reason: format!("{name} basis does not match the level-{level} chain"),
                });
            }
        }
        Ok(Ciphertext {
            c0,
            c1,
            level,
            scale,
            noise_bits_est,
        })
    }

    /// Serializes a keyswitch hint **seeded**: checksummed metadata (kind,
    /// seed, error model, digit partition, integrity digest) plus only the
    /// `k0` polynomial per digit — the pseudo-random `k1` halves are
    /// regenerated from the seed at load time (KSHGen, Sec. 5.2), roughly
    /// halving the blob.
    pub fn serialize_keyswitch_key(&self, ksk: &KeySwitchKey) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + ksk.num_words_seeded() * 8);
        write_header(&mut out, ObjectTag::KeySwitchKey, self.params_fingerprint());
        write_ksk_metadata(
            &mut out,
            ksk.kind,
            ksk.seed,
            ksk.error_bits,
            ksk.digest,
            &ksk.digit_limbs,
        );
        for (k0, _) in &ksk.elems {
            write_poly(&mut out, k0);
        }
        out
    }

    /// Serializes a compact keyswitch hint. The wire bytes are **identical**
    /// to [`CkksContext::serialize_keyswitch_key`] of the materialized key —
    /// the seeded wire format already carries exactly the compact payload —
    /// so full and compact blobs are interchangeable; only the load path
    /// differs (a compact load defers `k1` regeneration to
    /// [`CompactKeySwitchKey::expand`]).
    pub fn serialize_compact_keyswitch_key(&self, key: &CompactKeySwitchKey) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + key.num_words() * 8);
        write_header(&mut out, ObjectTag::KeySwitchKey, self.params_fingerprint());
        write_ksk_metadata(
            &mut out,
            key.kind,
            key.seed,
            key.error_bits,
            key.digest,
            &key.digit_limbs,
        );
        for k0 in &key.k0 {
            write_poly(&mut out, k0);
        }
        out
    }

    /// Loads a keyswitch hint written by
    /// [`CkksContext::serialize_keyswitch_key`], regenerating the
    /// pseudo-random halves from the stored seed and re-verifying the
    /// hint's integrity digest over the reconstructed payload.
    ///
    /// # Errors
    ///
    /// [`FheError::Serialization`], [`FheError::ChecksumMismatch`], or
    /// [`FheError::ParamsMismatch`] as described in the module docs.
    pub fn try_deserialize_keyswitch_key(&self, bytes: &[u8]) -> FheResult<KeySwitchKey> {
        let mut r = Reader::new("load_keyswitch_key", bytes);
        r.read_header(ObjectTag::KeySwitchKey, self.params_fingerprint())?;
        let meta = read_ksk_metadata(&mut r)?;
        let mut elems = Vec::with_capacity(meta.digit_limbs.len());
        for d in 0..meta.digit_limbs.len() {
            let k0 = read_poly(&mut r)?;
            let k1 = keyswitch::prandom_poly(self.rns(), k0.basis(), meta.seed, d as u64);
            elems.push((k0, k1));
        }
        r.finish()?;
        let ksk = KeySwitchKey {
            kind: meta.kind,
            elems,
            digit_limbs: meta.digit_limbs,
            seed: meta.seed,
            error_bits: meta.error_bits,
            digest: meta.digest,
        };
        let computed = ksk.compute_digest();
        if computed != ksk.digest {
            return Err(FheError::ChecksumMismatch {
                op: "load_keyswitch_key",
                section: "keyswitch integrity digest".into(),
                stored: ksk.digest,
                computed,
            });
        }
        Ok(ksk)
    }

    /// Loads a keyswitch hint blob into its **compact** resident form
    /// without regenerating the pseudo-random halves — the cheap load path
    /// for a key cache that materializes lazily. Structural validation, the
    /// metadata checksum, and every per-limb payload checksum still run
    /// (single-byte corruption is rejected here); the end-to-end integrity
    /// digest is deferred to [`CompactKeySwitchKey::expand`], which is the
    /// first point the materialized payload exists to digest.
    ///
    /// # Errors
    ///
    /// [`FheError::Serialization`], [`FheError::ChecksumMismatch`], or
    /// [`FheError::ParamsMismatch`] as described in the module docs.
    pub fn try_deserialize_compact_keyswitch_key(
        &self,
        bytes: &[u8],
    ) -> FheResult<CompactKeySwitchKey> {
        let mut r = Reader::new("load_compact_keyswitch_key", bytes);
        r.read_header(ObjectTag::KeySwitchKey, self.params_fingerprint())?;
        let meta = read_ksk_metadata(&mut r)?;
        let mut k0 = Vec::with_capacity(meta.digit_limbs.len());
        for _ in 0..meta.digit_limbs.len() {
            k0.push(read_poly(&mut r)?);
        }
        r.finish()?;
        Ok(CompactKeySwitchKey {
            kind: meta.kind,
            k0,
            digit_limbs: meta.digit_limbs,
            seed: meta.seed,
            error_bits: meta.error_bits,
            digest: meta.digest,
        })
    }
}

/// The checksummed metadata region shared by the full and compact
/// keyswitch-hint blobs.
struct KskMetadata {
    kind: KeySwitchKind,
    seed: u64,
    error_bits: f64,
    digest: u64,
    digit_limbs: Vec<Vec<u32>>,
}

fn write_ksk_metadata(
    out: &mut Vec<u8>,
    kind: KeySwitchKind,
    seed: u64,
    error_bits: f64,
    digest: u64,
    digit_limbs: &[Vec<u32>],
) {
    let meta_start = out.len();
    match kind {
        KeySwitchKind::Standard => {
            put_u8(out, 0);
            put_u32(out, 0);
        }
        KeySwitchKind::Boosted { digits } => {
            put_u8(out, 1);
            put_u32(out, digits as u32);
        }
    }
    put_u32(out, digit_limbs.len() as u32);
    put_u64(out, seed);
    put_f64(out, error_bits);
    put_u64(out, digest);
    for limbs in digit_limbs {
        put_u32(out, limbs.len() as u32);
        for &l in limbs {
            put_u32(out, l);
        }
    }
    let cksum = fnv1a(&out[meta_start..]);
    put_u64(out, cksum);
}

fn read_ksk_metadata(r: &mut Reader<'_>) -> FheResult<KskMetadata> {
    let meta_start = r.pos();
    let kind_byte = r.u8()?;
    let digits = r.u32()? as usize;
    let num_digits = r.u32()? as usize;
    let seed = r.u64()?;
    let error_bits = r.f64()?;
    let digest = r.u64()?;
    let mut digit_limbs = Vec::with_capacity(num_digits);
    for _ in 0..num_digits {
        let count = r.u32()? as usize;
        let mut limbs = Vec::with_capacity(count);
        for _ in 0..count {
            limbs.push(r.u32()?);
        }
        digit_limbs.push(limbs);
    }
    let computed = fnv1a(r.region_since(meta_start));
    let stored = r.u64()?;
    if stored != computed {
        return Err(FheError::ChecksumMismatch {
            op: r.op(),
            section: "keyswitch metadata".into(),
            stored,
            computed,
        });
    }
    let kind = match (kind_byte, digits) {
        (0, 0) => KeySwitchKind::Standard,
        (1, d) if d >= 1 => KeySwitchKind::Boosted { digits: d },
        _ => {
            return Err(r.err(format!(
                "invalid kind encoding (kind byte {kind_byte}, digits {digits})"
            )))
        }
    };
    Ok(KskMetadata {
        kind,
        seed,
        error_bits,
        digest,
        digit_limbs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CkksParams;
    use rand::SeedableRng;

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

    #[test]
    fn peek_header_classifies_without_full_parse() {
        let c = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let sk = c.keygen(&mut rng);
        let ct = c.encrypt(&c.encode(&[1.0], c.default_scale(), 2), &sk, &mut rng);
        let blob = c.serialize_ciphertext(&ct);
        let (tag, fp) = peek_header("peek", &blob).unwrap();
        assert_eq!(tag, ObjectTag::Ciphertext);
        assert_eq!(fp, c.params_fingerprint());
        // A flipped *payload* byte is invisible to the peek (full loads
        // catch it); a damaged header is not.
        let mut payload_flip = blob.clone();
        let last = payload_flip.len() - 1;
        payload_flip[last] ^= 0xff;
        assert!(peek_header("peek", &payload_flip).is_ok());
        for (i, expect_kind) in [(0usize, "magic"), (4, "version"), (6, "tag"), (7, "reserved")] {
            let mut bad = blob.clone();
            bad[i] ^= 0xff;
            let err = peek_header("peek", &bad).expect_err(expect_kind);
            assert!(matches!(err, FheError::Serialization { op: "peek", .. }), "{expect_kind}");
        }
        // Truncation anywhere inside the 16-byte header is a structured error.
        for len in 0..16 {
            assert!(peek_header("peek", &blob[..len]).is_err());
        }
    }

    #[test]
    fn fingerprint_separates_parameter_sets() {
        let a = ctx();
        let params = CkksParams::builder()
            .ring_degree(64)
            .levels(3)
            .special_limbs(3)
            .limb_bits(40)
            .scale_bits(32)
            .build()
            .unwrap();
        let b = CkksContext::new(params).unwrap();
        assert_ne!(a.params_fingerprint(), b.params_fingerprint());
        assert_eq!(a.params_fingerprint(), ctx().params_fingerprint());
    }

    #[test]
    fn ciphertext_roundtrip_is_bit_identical() {
        let c = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let sk = c.keygen(&mut rng);
        let pt = c.encode(&[1.25, -0.5, 3.0], c.default_scale(), 3);
        let ct = c.encrypt(&pt, &sk, &mut rng);
        let blob = c.serialize_ciphertext(&ct);
        let back = c.try_deserialize_ciphertext(&blob).unwrap();
        assert_eq!(ct, back);
        assert_eq!(
            ct.noise_estimate_bits().to_bits(),
            back.noise_estimate_bits().to_bits()
        );
    }

    #[test]
    fn rns_poly_roundtrip() {
        let c = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let basis = c.rns().q_basis(2);
        let p = c.rns().sample_uniform(&basis, &mut rng);
        let blob = c.serialize_rns_poly(&p);
        assert_eq!(c.try_deserialize_rns_poly(&blob).unwrap(), p);
    }

    #[test]
    fn seeded_keyswitch_key_roundtrip_reconstructs_prandom_half() {
        let c = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let sk = c.keygen(&mut rng);
        let s2 = c.keygen(&mut rng);
        for kind in [
            KeySwitchKind::Standard,
            KeySwitchKind::Boosted { digits: 2 },
        ] {
            let ksk = c.keyswitch_keygen(&s2.s, &sk, kind, &mut rng);
            let blob = c.serialize_keyswitch_key(&ksk);
            assert!(blob.len() < 16 + ksk.num_words_full() * 8, "not seeded");
            let back = c.try_deserialize_keyswitch_key(&blob).unwrap();
            assert!(back.verify_integrity());
            assert_eq!(back.seed(), ksk.seed());
            assert_eq!(back.num_digits(), ksk.num_digits());
            for (a, b) in ksk.elems.iter().zip(back.elems.iter()) {
                assert_eq!(a.0, b.0);
                assert_eq!(a.1, b.1);
            }
        }
    }

    #[test]
    fn v2_keyswitch_blob_is_refused_by_version_not_by_digest() {
        let c = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(15);
        let sk = c.keygen(&mut rng);
        let ksk = c.relin_keygen(&sk, KeySwitchKind::Boosted { digits: 2 }, &mut rng);
        let mut blob = c.serialize_keyswitch_key(&ksk);
        blob[4..6].copy_from_slice(&2u16.to_le_bytes());
        for err in [
            c.try_deserialize_keyswitch_key(&blob)
                .expect_err("v2 full load"),
            c.try_deserialize_compact_keyswitch_key(&blob)
                .expect_err("v2 compact load"),
            peek_header("peek", &blob).expect_err("v2 peek"),
        ] {
            match err {
                FheError::Serialization { reason, .. } => assert!(
                    reason.contains("unsupported format version 2"),
                    "wrong reason: {reason}"
                ),
                other => panic!("expected a version Serialization error, got {other:?}"),
            }
        }
    }

    #[test]
    fn compact_blob_is_bytes_identical_and_interchangeable() {
        let c = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let sk = c.keygen(&mut rng);
        let ksk = c.relin_keygen(&sk, KeySwitchKind::Boosted { digits: 2 }, &mut rng);
        let compact = ksk.to_compact();
        let full_blob = c.serialize_keyswitch_key(&ksk);
        let compact_blob = c.serialize_compact_keyswitch_key(&compact);
        assert_eq!(full_blob, compact_blob, "one wire format, two load paths");
        // Compact load skips k1 regen; expansion then reproduces the key.
        let back = c.try_deserialize_compact_keyswitch_key(&full_blob).unwrap();
        assert_eq!(back.integrity_digest(), ksk.integrity_digest());
        assert_eq!(back.resident_bytes() * 2, ksk.resident_bytes());
        let expanded = back.expand(&c).unwrap();
        assert!(expanded.verify_integrity());
        for (a, b) in ksk.elems.iter().zip(expanded.elems.iter()) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1, b.1);
        }
    }

    #[test]
    fn corrupted_compact_payload_is_rejected_at_load_or_expand() {
        let c = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let sk = c.keygen(&mut rng);
        let ksk = c.relin_keygen(&sk, KeySwitchKind::Boosted { digits: 2 }, &mut rng);
        let blob = c.serialize_compact_keyswitch_key(&ksk.to_compact());
        // A flipped payload byte trips the per-limb checksum at load time.
        let mut flipped = blob.clone();
        let off = flipped.len() - 64;
        flipped[off] ^= 0x01;
        assert!(matches!(
            c.try_deserialize_compact_keyswitch_key(&flipped),
            Err(FheError::ChecksumMismatch { .. })
        ));
        // A compact key whose digest no longer matches its payload (e.g. a
        // wrong seed smuggled past the wire checks) fails at expand.
        let mut tampered = c.try_deserialize_compact_keyswitch_key(&blob).unwrap();
        tampered.seed ^= 1;
        assert!(matches!(
            tampered.expand(&c),
            Err(FheError::CorruptKey { .. })
        ));
    }

    #[test]
    fn wrong_context_is_rejected_with_params_mismatch() {
        let c = ctx();
        let params = CkksParams::builder()
            .ring_degree(64)
            .levels(4)
            .special_limbs(4)
            .limb_bits(40)
            .scale_bits(30) // different scale only
            .build()
            .unwrap();
        let other = CkksContext::new(params).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let sk = c.keygen(&mut rng);
        let pt = c.encode(&[1.0], c.default_scale(), 2);
        let ct = c.encrypt(&pt, &sk, &mut rng);
        let blob = c.serialize_ciphertext(&ct);
        assert!(matches!(
            other.try_deserialize_ciphertext(&blob),
            Err(FheError::ParamsMismatch { .. })
        ));
    }

    #[test]
    fn flipped_limb_word_is_rejected_with_checksum_mismatch() {
        let c = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let sk = c.keygen(&mut rng);
        let pt = c.encode(&[2.0], c.default_scale(), 3);
        let ct = c.encrypt(&pt, &sk, &mut rng);
        let mut blob = c.serialize_ciphertext(&ct);
        let off = blob.len() - 64; // inside c1's last limb words
        blob[off] ^= 0x40;
        assert!(matches!(
            c.try_deserialize_ciphertext(&blob),
            Err(FheError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncation_is_rejected_with_serialization_error() {
        let c = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let sk = c.keygen(&mut rng);
        let pt = c.encode(&[2.0], c.default_scale(), 2);
        let ct = c.encrypt(&pt, &sk, &mut rng);
        let blob = c.serialize_ciphertext(&ct);
        assert!(matches!(
            c.try_deserialize_ciphertext(&blob[..blob.len() - 1]),
            Err(FheError::Serialization { .. })
        ));
        // Trailing garbage is equally structural.
        let mut padded = blob.clone();
        padded.push(0);
        assert!(matches!(
            c.try_deserialize_ciphertext(&padded),
            Err(FheError::Serialization { .. })
        ));
    }
}

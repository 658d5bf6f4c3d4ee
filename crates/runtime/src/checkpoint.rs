//! Durable, integrity-checked checkpoint records.

use std::fs;
use std::path::{Path, PathBuf};

use cl_boot::BootState;
use cl_ckks::serialize::{fnv1a, put_u32, put_u64, put_u8, write_header, ObjectTag, Reader};
use cl_ckks::{Ciphertext, CkksContext, FheError, FheResult};

/// The in-flight state of a pipeline at a micro-op boundary: either a
/// plain ciphertext or a mid-bootstrap [`BootState`].
#[derive(Debug, Clone)]
pub enum WorkState {
    /// Between ordinary ops.
    Ct(Ciphertext),
    /// Mid-bootstrap, at a stage boundary (boxed: a bootstrap stage
    /// carries up to two ciphertexts, dwarfing the `Ct` variant).
    Boot(Box<BootState>),
}

impl WorkState {
    /// The ciphertext a fault injector corrupts and integrity checks
    /// validate first: the plain ciphertext, or the first ciphertext of a
    /// bootstrap stage.
    pub fn primary_mut(&mut self) -> &mut Ciphertext {
        match self {
            WorkState::Ct(ct) => ct,
            WorkState::Boot(state) => {
                let mut cts = state.ciphertexts_mut();
                cts.swap_remove(0)
            }
        }
    }

    /// Conformance-validates every ciphertext this state carries against
    /// the context (residue ranges, basis, NTT form). The executor runs
    /// this *before* persisting a checkpoint, so a corrupted state is
    /// never written as "good".
    pub fn validate(&self, ctx: &CkksContext) -> FheResult<()> {
        match self {
            WorkState::Ct(ct) => ctx.validate_ciphertext("checkpoint", ct),
            WorkState::Boot(state) => validate_boot_state(ctx, state),
        }
    }

    fn kind_byte(&self) -> u8 {
        match self {
            WorkState::Ct(_) => 0,
            WorkState::Boot(_) => 1,
        }
    }

    fn serialize(&self, ctx: &CkksContext) -> Vec<u8> {
        match self {
            WorkState::Ct(ct) => ctx.serialize_ciphertext(ct),
            WorkState::Boot(state) => state.serialize(ctx),
        }
    }
}

/// Conformance-validates every ciphertext a bootstrap stage carries.
pub(crate) fn validate_boot_state(ctx: &CkksContext, state: &BootState) -> FheResult<()> {
    state
        .ciphertexts()
        .into_iter()
        .try_for_each(|ct| ctx.validate_ciphertext("checkpoint", ct))
}

/// One checkpoint record: the micro program counter plus the work state at
/// that boundary, bound to the job that wrote it.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Micro-op index the pipeline resumes at.
    pub pc: u64,
    /// Content digest of the `(program, input)` pair this record belongs
    /// to. A store directory outlives individual jobs (a server reuses
    /// one per worker), and a resume must never splice a *different*
    /// job's mid-state into the current program — loads filter on this
    /// binding, so stale records are skipped, not resumed.
    pub binding: u64,
    /// The state to resume from.
    pub state: WorkState,
    /// Live named value slots of a compiler-lowered dataflow program at
    /// this boundary (sorted by slot id; empty for linear-chain programs,
    /// which keeps their records bit-compatible with the pre-dataflow
    /// wire format).
    pub slots: Vec<(u16, Ciphertext)>,
}

/// Hard cap on the slot count of one deserialized checkpoint — hostile
/// counts must not drive allocation. Slot ids are `u16`, so this is the
/// natural ceiling.
pub const MAX_CHECKPOINT_SLOTS: usize = 1 << 16;

/// Durable checkpoint storage: two rotating slot files in a directory,
/// each written atomically (tmp file + rename) so a crash mid-write never
/// corrupts the previous good record. Loads verify the wire format's
/// fingerprint and checksums and fall back to the other slot when one is
/// damaged.
///
/// Writes are **overlapped**: [`CheckpointStore::write`] encodes
/// synchronously (the record is a consistent snapshot no matter what the
/// pipeline does next) but hands the file I/O to a background thread, so
/// the compute path pays encode cost, not disk cost — the software
/// analogue of the paper's decoupled data orchestration. At most one
/// write is in flight: the next `write` (or any load, [`sync`], or drop)
/// joins it first, which both bounds memory and keeps slot rotation
/// strictly ordered. The durability contract weakens only by that one
/// in-flight record: a crash can lose the newest checkpoint, never a
/// previously acknowledged one — exactly the window the executor's
/// in-memory `last_good` fallback already covers. A failed background
/// write surfaces on the *next* store call.
///
/// [`sync`]: CheckpointStore::sync
/// A store *owns* its directory for its lifetime: [`CheckpointStore::open`]
/// takes an exclusive advisory lock (an owner file recording this process'
/// pid) so two live executors can never interleave writes into the same
/// slot files. Locks abandoned by a dead process are detected (the pid no
/// longer exists) and reclaimed; orphaned `ckpt.tmp` files left by a crash
/// mid-write are swept at open.
#[derive(Debug)]
pub struct CheckpointStore {
    slots: [PathBuf; 2],
    tmp: PathBuf,
    lock: PathBuf,
    next_slot: usize,
    bytes_written: u64,
    writes: u64,
    /// The at-most-one in-flight background write (its tmp-write + rename),
    /// carrying any I/O error to the next store call.
    inflight: Option<std::thread::JoinHandle<Result<(), String>>>,
}

/// Whether `pid` names a process that is currently alive. Used to decide
/// if an owner file is a live conflict or a stale leftover. On platforms
/// without a procfs we cannot tell, so we conservatively report alive —
/// a crashed owner then requires manual lock removal rather than risking
/// two live writers.
fn pid_alive(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        Path::new(&format!("/proc/{pid}")).exists()
    } else {
        true
    }
}

impl CheckpointStore {
    /// Opens (creating if needed) a store in `dir`, sweeping any orphaned
    /// tmp file and taking the directory's owner lock.
    ///
    /// # Errors
    ///
    /// [`FheError::Serialization`] when the directory cannot be created,
    /// or when another *live* store already owns it (two executors must
    /// never share slot files — each job needs its own directory).
    pub fn open(dir: &Path) -> FheResult<Self> {
        fs::create_dir_all(dir).map_err(|e| FheError::Serialization {
            op: "checkpoint_open",
            reason: format!("cannot create {}: {e}", dir.display()),
        })?;
        let tmp = dir.join("ckpt.tmp");
        let lock = dir.join("ckpt.lock");
        Self::acquire_lock(&lock)?;
        // With the lock held, a leftover tmp file can only be debris from
        // a previous owner that died mid-`write` (the atomic rename never
        // ran). The slot files are still intact; the debris just wastes
        // space and could mask a future torn write, so sweep it.
        if tmp.exists() {
            let _ = fs::remove_file(&tmp);
        }
        Ok(Self {
            slots: [dir.join("ckpt_a.bin"), dir.join("ckpt_b.bin")],
            tmp,
            lock,
            next_slot: 0,
            bytes_written: 0,
            writes: 0,
            inflight: None,
        })
    }

    /// Creates the owner file exclusively, stealing it only from a holder
    /// whose pid is provably dead.
    fn acquire_lock(lock: &Path) -> FheResult<()> {
        use std::io::Write as _;
        // Two rounds: create, or (stale holder) reclaim once and re-create.
        for attempt in 0..2 {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(lock)
            {
                Ok(mut f) => {
                    let _ = write!(f, "{}", std::process::id());
                    return Ok(());
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let holder = fs::read_to_string(lock)
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok());
                    let stale = match holder {
                        // Our own pid means a live store in this process
                        // owns the directory — that is exactly the
                        // double-open this lock exists to prevent.
                        Some(pid) => pid != std::process::id() && !pid_alive(pid),
                        // Unreadable/empty owner file: a crash between
                        // create and write. No live holder can exist
                        // (they write before returning), so reclaim.
                        None => true,
                    };
                    if stale && attempt == 0 {
                        let _ = fs::remove_file(lock);
                        continue;
                    }
                    return Err(FheError::Serialization {
                        op: "checkpoint_open",
                        reason: format!(
                            "checkpoint dir is locked by live owner {} ({}); every \
                             executor needs its own checkpoint directory",
                            holder.map_or_else(|| "unknown".into(), |p| p.to_string()),
                            lock.display()
                        ),
                    });
                }
                Err(e) => {
                    return Err(FheError::Serialization {
                        op: "checkpoint_open",
                        reason: format!("cannot create lock {}: {e}", lock.display()),
                    })
                }
            }
        }
        unreachable!("acquire_lock: both attempts fell through without returning")
    }

    /// Total bytes written across all checkpoints.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Number of checkpoint records written.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    fn encode(ctx: &CkksContext, cp: &Checkpoint) -> Vec<u8> {
        // Slot-free states keep the original kind-0/1 record layout, so
        // every checkpoint written before the dataflow ops existed still
        // loads. A state with live slots is kind 2: a framed bundle of the
        // accumulator state plus each slot ciphertext.
        let (kind, payload) = if cp.slots.is_empty() {
            (cp.state.kind_byte(), cp.state.serialize(ctx))
        } else {
            let cur = cp.state.serialize(ctx);
            let blobs: Vec<(u16, Vec<u8>)> = cp
                .slots
                .iter()
                .map(|(id, ct)| (*id, ctx.serialize_ciphertext(ct)))
                .collect();
            let mut p = Vec::with_capacity(32 + cur.len() + blobs.len() * 8);
            put_u8(&mut p, cp.state.kind_byte());
            put_u32(&mut p, blobs.len() as u32);
            put_u32(&mut p, cur.len() as u32);
            for (id, b) in &blobs {
                put_u32(&mut p, u32::from(*id));
                put_u32(&mut p, b.len() as u32);
            }
            let cksum = fnv1a(&p);
            put_u64(&mut p, cksum);
            p.extend_from_slice(&cur);
            for (_, b) in &blobs {
                p.extend_from_slice(b);
            }
            (2u8, p)
        };
        let mut out = Vec::with_capacity(32 + payload.len());
        write_header(&mut out, ObjectTag::Checkpoint, ctx.params_fingerprint());
        let meta_start = out.len();
        put_u64(&mut out, cp.pc);
        put_u64(&mut out, cp.binding);
        put_u8(&mut out, kind);
        put_u32(&mut out, payload.len() as u32);
        let cksum = fnv1a(&out[meta_start..]);
        put_u64(&mut out, cksum);
        out.extend_from_slice(&payload);
        out
    }

    /// Decodes a kind-2 (dataflow) payload: framed accumulator state plus
    /// named slot ciphertexts.
    fn decode_slots(ctx: &CkksContext, payload: &[u8]) -> FheResult<(WorkState, Vec<(u16, Ciphertext)>)> {
        let mut r = Reader::new("load_checkpoint", payload);
        let frame_start = r.pos();
        let cur_kind = r.u8()?;
        let nslots = r.u32()? as usize;
        if nslots == 0 || nslots > MAX_CHECKPOINT_SLOTS {
            return Err(r.err(format!(
                "slot count {nslots} outside 1..={MAX_CHECKPOINT_SLOTS}"
            )));
        }
        let cur_len = r.u32()? as usize;
        let mut meta = Vec::with_capacity(nslots);
        for j in 0..nslots {
            let raw = r.u32()?;
            let id = u16::try_from(raw)
                .map_err(|_| r.err(format!("slot {j}: id {raw} exceeds u16")))?;
            let len = r.u32()? as usize;
            meta.push((id, len));
        }
        let computed = fnv1a(r.region_since(frame_start));
        let stored = r.u64()?;
        if stored != computed {
            return Err(FheError::ChecksumMismatch {
                op: "load_checkpoint",
                section: "slot framing".into(),
                stored,
                computed,
            });
        }
        let cur_blob = r.take(cur_len)?;
        let state = match cur_kind {
            0 => WorkState::Ct(ctx.try_deserialize_ciphertext(cur_blob)?),
            1 => WorkState::Boot(Box::new(BootState::try_deserialize(ctx, cur_blob)?)),
            other => {
                return Err(FheError::Serialization {
                    op: "load_checkpoint",
                    reason: format!("unknown accumulator kind {other} in slot bundle"),
                })
            }
        };
        let mut slots = Vec::with_capacity(nslots);
        let mut prev: Option<u16> = None;
        for (id, len) in meta {
            // Strictly increasing ids: rejects duplicates and gives the
            // record one canonical byte form.
            if prev.is_some_and(|p| p >= id) {
                return Err(FheError::Serialization {
                    op: "load_checkpoint",
                    reason: format!("slot ids not strictly increasing at {id}"),
                });
            }
            prev = Some(id);
            let blob = r.take(len)?;
            slots.push((id, ctx.try_deserialize_ciphertext(blob)?));
        }
        r.finish()?;
        Ok((state, slots))
    }

    fn decode(ctx: &CkksContext, bytes: &[u8]) -> FheResult<Checkpoint> {
        let mut r = Reader::new("load_checkpoint", bytes);
        r.read_header(ObjectTag::Checkpoint, ctx.params_fingerprint())?;
        let meta_start = r.pos();
        let pc = r.u64()?;
        let binding = r.u64()?;
        let kind = r.u8()?;
        let payload_len = r.u32()? as usize;
        let computed = fnv1a(r.region_since(meta_start));
        let stored = r.u64()?;
        if stored != computed {
            return Err(FheError::ChecksumMismatch {
                op: "load_checkpoint",
                section: "checkpoint metadata".into(),
                stored,
                computed,
            });
        }
        let payload = r.take(payload_len)?;
        r.finish()?;
        let (state, slots) = match kind {
            0 => (WorkState::Ct(ctx.try_deserialize_ciphertext(payload)?), Vec::new()),
            1 => (
                WorkState::Boot(Box::new(BootState::try_deserialize(ctx, payload)?)),
                Vec::new(),
            ),
            2 => Self::decode_slots(ctx, payload)?,
            other => {
                return Err(FheError::Serialization {
                    op: "load_checkpoint",
                    reason: format!("unknown work-state kind {other}"),
                })
            }
        };
        Ok(Checkpoint {
            pc,
            binding,
            state,
            slots,
        })
    }

    /// Persists a checkpoint into the next rotating slot: the record is
    /// encoded now (a consistent snapshot), the atomic tmp-write + rename
    /// runs on a background thread and is joined by the next store call.
    /// Returns the record size in bytes.
    ///
    /// # Errors
    ///
    /// [`FheError::Serialization`] on any I/O failure — of the *previous*
    /// write, which is joined before this one is handed off. This write's
    /// own I/O outcome surfaces on the next `write`/load/[`sync`].
    ///
    /// [`sync`]: CheckpointStore::sync
    pub fn write(&mut self, ctx: &CkksContext, cp: &Checkpoint) -> FheResult<u64> {
        let bytes = Self::encode(ctx, cp);
        // One outstanding write max: also guarantees exclusive use of the
        // shared tmp path and in-order slot rotation.
        self.join_inflight()?;
        let tmp = self.tmp.clone();
        let slot = self.slots[self.next_slot].clone();
        let len = bytes.len() as u64;
        self.inflight = Some(std::thread::spawn(move || {
            fs::write(&tmp, &bytes).map_err(|e| format!("write tmp: {e}"))?;
            fs::rename(&tmp, &slot).map_err(|e| format!("rename into slot: {e}"))
        }));
        self.next_slot = 1 - self.next_slot;
        self.bytes_written += len;
        self.writes += 1;
        Ok(len)
    }

    /// Blocks until the last accepted checkpoint is durably in its slot.
    ///
    /// # Errors
    ///
    /// [`FheError::Serialization`] if that background write failed.
    pub fn sync(&mut self) -> FheResult<()> {
        self.join_inflight()
    }

    fn join_inflight(&mut self) -> FheResult<()> {
        let Some(handle) = self.inflight.take() else {
            return Ok(());
        };
        let outcome = handle.join().unwrap_or_else(|_| {
            Err("background checkpoint writer panicked".into())
        });
        outcome.map_err(|reason| FheError::Serialization {
            op: "checkpoint_write",
            reason,
        })
    }

    /// Loads one slot file, end to end (header, fingerprint, checksums).
    fn load_slot(&self, ctx: &CkksContext, path: &Path) -> FheResult<Checkpoint> {
        let bytes = fs::read(path).map_err(|e| FheError::Serialization {
            op: "load_checkpoint",
            reason: format!("cannot read {}: {e}", path.display()),
        })?;
        Self::decode(ctx, &bytes)
    }

    /// Returns the newest (highest program counter) valid checkpoint
    /// *belonging to* `binding`, plus the number of slots that existed
    /// but were *rejected* by integrity checks. `Ok(None)` means no slot
    /// file exists yet. Intact records written by a different job (their
    /// binding differs) are skipped silently — they are healthy leftovers
    /// in a reused directory, not corruption.
    ///
    /// # Errors
    ///
    /// [`FheError::ChecksumMismatch`]/[`FheError::ParamsMismatch`]/
    /// [`FheError::Serialization`] only when every existing slot is
    /// damaged — a damaged slot with a healthy sibling is skipped (and
    /// counted), not fatal.
    pub fn load_latest(
        &mut self,
        ctx: &CkksContext,
        binding: u64,
    ) -> FheResult<(Option<Checkpoint>, u64)> {
        // Reads must observe every accepted write: drain the in-flight one
        // (a failed background write is reported here rather than lost).
        self.sync()?;
        let mut best: Option<Checkpoint> = None;
        let mut rejects = 0u64;
        let mut first_err: Option<FheError> = None;
        let mut existing = 0;
        for path in &self.slots {
            if !path.exists() {
                continue;
            }
            existing += 1;
            match self.load_slot(ctx, path) {
                Ok(cp) => {
                    if cp.binding == binding && best.as_ref().is_none_or(|b| cp.pc > b.pc) {
                        best = Some(cp);
                    }
                }
                Err(e) => {
                    rejects += 1;
                    first_err.get_or_insert(e);
                }
            }
        }
        match (best, first_err) {
            (Some(cp), _) => Ok((Some(cp), rejects)),
            (None, Some(e)) if existing > 0 => Err(e),
            _ => Ok((None, rejects)),
        }
    }
}

/// Removes a checkpoint directory left behind by a finished or dead job:
/// slot files, tmp debris, lock file, and the directory itself. Returns
/// `true` when the directory is gone afterwards (including "was never
/// there").
///
/// Refuses (returns `false`) when the directory's owner lock is held by a
/// *live* process — this one included: a [`CheckpointStore`] in this
/// process still owns the slot files, and its `Drop` must release the
/// lock before the directory can be reclaimed. Sweeping under a live
/// writer would tear its rotation out from underneath it.
pub fn sweep_checkpoint_dir(dir: &Path) -> bool {
    if !dir.exists() {
        return true;
    }
    if let Ok(holder) = fs::read_to_string(dir.join("ckpt.lock")) {
        if let Ok(pid) = holder.trim().parse::<u32>() {
            if pid == std::process::id() || pid_alive(pid) {
                return false;
            }
        }
    }
    fs::remove_dir_all(dir).is_ok()
}

impl Drop for CheckpointStore {
    /// Joins any in-flight background write (the lock must not be released
    /// while a writer still owns the slot files), then releases the
    /// directory's owner lock. The slot files stay — they are the durable
    /// state a later store (or a resume after a crash) loads.
    fn drop(&mut self) {
        let _ = self.join_inflight();
        let _ = fs::remove_file(&self.lock);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cl_ckks::CkksParams;
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

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("cl-runtime-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn checkpoint_roundtrip_and_rotation() {
        let c = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let sk = c.keygen(&mut rng);
        let ct = c.encrypt(&c.encode(&[1.0, 2.0], c.default_scale(), 3), &sk, &mut rng);
        let dir = tmpdir("rotation");
        let mut store = CheckpointStore::open(&dir).unwrap();
        assert!(store.load_latest(&c, 0xB1D1).unwrap().0.is_none());
        for pc in 0..3u64 {
            store
                .write(
                    &c,
                    &Checkpoint {
                        pc,
                        binding: 0xB1D1,
                        state: WorkState::Ct(ct.clone()),
                        slots: Vec::new(),
                    },
                )
                .unwrap();
        }
        let (latest, rejects) = store.load_latest(&c, 0xB1D1).unwrap();
        assert_eq!(rejects, 0);
        let latest = latest.unwrap();
        assert_eq!(latest.pc, 2);
        match latest.state {
            WorkState::Ct(back) => assert_eq!(back, ct),
            WorkState::Boot(_) => panic!("expected Ct state"),
        }
        assert_eq!(store.writes(), 3);
        assert!(store.bytes_written() > 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_with_slots_roundtrips_and_rejects_flips() {
        let c = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let sk = c.keygen(&mut rng);
        let cur = c.encrypt(&c.encode(&[1.0], c.default_scale(), 3), &sk, &mut rng);
        let s3 = c.encrypt(&c.encode(&[2.0], c.default_scale(), 3), &sk, &mut rng);
        let s9 = c.encrypt(&c.encode(&[-0.5], c.default_scale(), 2), &sk, &mut rng);
        let cp = Checkpoint {
            pc: 7,
            binding: 0xB1D1,
            state: WorkState::Ct(cur.clone()),
            slots: vec![(3, s3.clone()), (9, s9.clone())],
        };
        let blob = CheckpointStore::encode(&c, &cp);
        let back = CheckpointStore::decode(&c, &blob).unwrap();
        assert_eq!(back.pc, 7);
        match &back.state {
            WorkState::Ct(ct) => assert_eq!(*ct, cur),
            WorkState::Boot(_) => panic!("expected Ct accumulator"),
        }
        assert_eq!(back.slots.len(), 2);
        assert_eq!(back.slots[0], (3, s3));
        assert_eq!(back.slots[1], (9, s9));
        // Every single-byte flip anywhere in the record must be rejected:
        // the slot framing, the accumulator blob, and each slot blob all
        // sit under a checksum.
        for i in (0..blob.len()).step_by(97) {
            let mut bad = blob.clone();
            bad[i] ^= 0xff;
            assert!(
                CheckpointStore::decode(&c, &bad).is_err(),
                "flip at byte {i} must not load"
            );
        }
        // A slot-free record keeps the legacy kind-0 layout byte-for-byte.
        let legacy = Checkpoint {
            pc: 1,
            binding: 2,
            state: WorkState::Ct(cur.clone()),
            slots: Vec::new(),
        };
        let legacy_blob = CheckpointStore::encode(&c, &legacy);
        // kind byte sits after header + pc + binding.
        let back = CheckpointStore::decode(&c, &legacy_blob).unwrap();
        assert!(back.slots.is_empty());
    }

    #[test]
    fn lock_file_prevents_two_live_stores_on_one_dir() {
        let dir = tmpdir("lock");
        let first = CheckpointStore::open(&dir).unwrap();
        // A second open while the first store is alive must fail and must
        // say why.
        let err = CheckpointStore::open(&dir).expect_err("double open");
        assert!(
            err.to_string().contains("locked"),
            "error should name the lock: {err}"
        );
        // The failed open must not have broken the holder's lock.
        assert!(dir.join("ckpt.lock").exists());
        // Dropping the owner releases the directory for the next store.
        drop(first);
        assert!(!dir.join("ckpt.lock").exists());
        let _second = CheckpointStore::open(&dir).unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_lock_from_dead_owner_is_reclaimed() {
        let dir = tmpdir("stale-lock");
        fs::create_dir_all(&dir).unwrap();
        // Far above any real pid_max: provably not a live process.
        fs::write(dir.join("ckpt.lock"), format!("{}", u32::MAX)).unwrap();
        let store = CheckpointStore::open(&dir).expect("stale lock must be reclaimed");
        drop(store);
        // An owner file that never got its pid written (crash between
        // create and write) is also reclaimable.
        fs::write(dir.join("ckpt.lock"), "").unwrap();
        assert!(CheckpointStore::open(&dir).is_ok());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn orphaned_tmp_file_is_swept_at_open() {
        let c = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let sk = c.keygen(&mut rng);
        let ct = c.encrypt(&c.encode(&[1.5], c.default_scale(), 2), &sk, &mut rng);
        let dir = tmpdir("orphan-tmp");
        // A crash mid-`write` leaves a partial tmp file behind (and, with
        // the owner dead, a stale lock). The next open must sweep the
        // debris and still load the intact slots.
        {
            let mut store = CheckpointStore::open(&dir).unwrap();
            store
                .write(
                    &c,
                    &Checkpoint {
                        pc: 9,
                        binding: 0xB1D1,
                        state: WorkState::Ct(ct.clone()),
                        slots: Vec::new(),
                    },
                )
                .unwrap();
        }
        fs::write(dir.join("ckpt.tmp"), b"torn half-written checkpoint").unwrap();
        fs::write(dir.join("ckpt.lock"), format!("{}", u32::MAX)).unwrap();
        let mut store = CheckpointStore::open(&dir).unwrap();
        assert!(
            !dir.join("ckpt.tmp").exists(),
            "orphaned tmp must be swept at open"
        );
        let (latest, rejects) = store.load_latest(&c, 0xB1D1).unwrap();
        assert_eq!(rejects, 0);
        assert_eq!(latest.unwrap().pc, 9);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_respects_live_owners_and_reclaims_dead_dirs() {
        let dir = tmpdir("sweep");
        // Never-existed directory: trivially swept.
        assert!(sweep_checkpoint_dir(&dir));
        // Live owner in this process: refused until the store drops.
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(!sweep_checkpoint_dir(&dir), "live lock must refuse sweep");
        assert!(dir.exists());
        drop(store);
        // Simulate a dead owner's leftovers: stale lock + slot debris.
        fs::write(dir.join("ckpt.lock"), format!("{}", u32::MAX)).unwrap();
        fs::write(dir.join("ckpt_a.bin"), b"leftover slot").unwrap();
        assert!(sweep_checkpoint_dir(&dir));
        assert!(!dir.exists(), "swept directory must be gone");
    }

    #[test]
    fn corrupt_slot_falls_back_to_sibling() {
        let c = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let sk = c.keygen(&mut rng);
        let ct = c.encrypt(&c.encode(&[3.0], c.default_scale(), 2), &sk, &mut rng);
        let dir = tmpdir("fallback");
        let mut store = CheckpointStore::open(&dir).unwrap();
        for pc in [5u64, 6u64] {
            store
                .write(
                    &c,
                    &Checkpoint {
                        pc,
                        binding: 0xB1D1,
                        state: WorkState::Ct(ct.clone()),
                        slots: Vec::new(),
                    },
                )
                .unwrap();
        }
        // Writes are durable only after sync — required before touching
        // the slot files behind the store's back.
        store.sync().unwrap();
        // pc=6 landed in slot b (second write). Corrupt it: the load must
        // reject it and fall back to pc=5 in slot a.
        let victim = dir.join("ckpt_b.bin");
        let mut bytes = fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&victim, &bytes).unwrap();
        let (latest, rejects) = store.load_latest(&c, 0xB1D1).unwrap();
        assert_eq!(rejects, 1);
        assert_eq!(latest.unwrap().pc, 5);
        // Both slots corrupted: the load surfaces the integrity error.
        let victim = dir.join("ckpt_a.bin");
        let mut bytes = fs::read(&victim).unwrap();
        bytes[10] ^= 0xff;
        fs::write(&victim, &bytes).unwrap();
        assert!(store.load_latest(&c, 0xB1D1).is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}

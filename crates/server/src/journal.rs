//! Write-ahead job journal: crash-durable job lifecycle records.
//!
//! The server appends one integrity-checked record per job lifecycle
//! transition (admitted, dispatched, completed, failed) to an append-only
//! file, so a process that dies mid-flight can be restarted and replay
//! exactly which jobs were acknowledged but never finished. The file
//! reuses the `CLFH` wire-format machinery from [`cl_ckks::serialize`]: a
//! 16-byte `CLFH` header tags the file ([`ObjectTag::Journal`]), and every
//! record is framed as
//!
//! ```text
//! "CLJR" (4) | body_len u32 | body | fnv1a_fast(body) u64
//! ```
//!
//! Torn or flipped records are tolerated, not fatal: replay re-syncs by
//! scanning forward for the next `CLJR` marker, so a single damaged record
//! costs only itself. Job input/program/key blobs are journaled once each
//! as digest-keyed `Blob` records and referenced by digest from `Admitted`
//! records, keeping steady-state append cost to a few dozen bytes per
//! transition. Completed entries are compacted away on a configurable
//! cadence by rewriting live records into the next generation file
//! (`journal-<gen>.wal`, tmp + fsync + rename), bounding journal growth
//! for long-lived servers. The journal keeps an index of where each blob
//! payload sits in the current generation, so compaction copies exactly
//! the blobs live jobs reference and never reads finished jobs' outputs:
//! its cost follows the live bytes, not the generation size.

use std::collections::{HashMap, HashSet};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use cl_ckks::serialize::{
    fnv1a_fast, peek_header, put_u16, put_u32, put_u64, put_u8, write_header, ObjectTag, Reader,
};
use cl_ckks::{FheError, FheResult};

/// Per-record frame marker; distinct from the file-level `CLFH` magic so a
/// resync scan cannot mistake the file header for a record.
const REC_MAGIC: [u8; 4] = *b"CLJR";
/// Frame overhead: marker + body length + checksum trailer.
const FRAME_BYTES: usize = 4 + 4 + 8;
/// Hostile-length cap on a single record body (same spirit as
/// `cl_runtime::MAX_PROGRAM_OPS`): a flipped length field must not drive a
/// multi-gigabyte allocation during replay.
const MAX_RECORD_BYTES: u32 = 1 << 26;
/// Failure detail strings are truncated to this many bytes on append.
const MAX_DETAIL_BYTES: usize = 512;
/// Frame bytes ahead of a record body: marker + body length.
const FRAME_HEAD_BYTES: usize = 8;
/// `Blob` body bytes ahead of the payload: seq + kind + digest + length.
const BLOB_PREFIX_BYTES: usize = 8 + 1 + 8 + 4;

/// Where one blob payload sits in a generation file.
#[derive(Debug, Clone, Copy)]
struct BlobSpan {
    at: u64,
    len: u32,
}

/// When appended records are flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every append: no acknowledged record is ever lost,
    /// at the cost of one disk round-trip per transition.
    Always,
    /// `fsync` every N appends (and on shutdown/compaction). The default,
    /// `Batch(32)`: a crash loses at most the last N-1 transitions.
    Batch(u32),
    /// Never `fsync` explicitly; durability is whatever the OS page cache
    /// provides. For benchmarks and tests.
    Never,
}

/// Record kinds (the first byte of every record body after the sequence
/// number). Stable on-disk contract: append-only, never renumber.
const KIND_ADMITTED: u8 = 0;
const KIND_DISPATCHED: u8 = 1;
const KIND_COMPLETED: u8 = 2;
const KIND_FAILED: u8 = 3;
const KIND_BLOB: u8 = 4;

/// One job reconstructed from replay, merged across its lifecycle records.
#[derive(Debug, Clone)]
pub struct ReplayedJob {
    /// Original job id (recovered jobs keep their pre-crash identity).
    pub id: u64,
    /// Owning tenant id, empty until the `Admitted` record is seen.
    pub tenant: String,
    /// Deadline budget in milliseconds (`None` = no deadline).
    pub deadline_ms: Option<u64>,
    /// `fnv1a_fast` digest of the serialized program blob.
    pub program_digest: u64,
    /// `fnv1a_fast` digest of the serialized input ciphertext blob.
    pub input_digest: u64,
    /// `fnv1a_fast` digest of the serialized key bundle blob.
    pub key_digest: u64,
    /// Whether the job was seen admitted (an `Admitted` record survived).
    pub admitted: bool,
    /// Whether a worker picked the job up before the crash.
    pub dispatched: bool,
    /// Terminal outcome, when the job finished before the crash.
    pub outcome: Option<ReplayedOutcome>,
}

/// Terminal outcome reconstructed from a `Completed`/`Failed` record.
#[derive(Debug, Clone)]
pub struct ReplayedOutcome {
    /// Stable [`crate::OutcomeCode`] discriminant (`0` = ok).
    pub code: u16,
    /// Truncated failure detail (empty for completions).
    pub detail: String,
    /// Serialized output ciphertext for completed jobs.
    pub output: Option<Vec<u8>>,
}

/// Everything recovered from one journal file.
#[derive(Debug, Default)]
pub struct JournalReplay {
    /// Jobs merged by id, in first-seen order.
    pub jobs: Vec<ReplayedJob>,
    /// Deduplicated blobs keyed by `fnv1a_fast` digest.
    pub blobs: HashMap<u64, Vec<u8>>,
    /// Records accepted (checksum verified).
    pub records_replayed: u64,
    /// Records skipped: torn tails, flipped bytes, bad lengths.
    pub records_skipped: u64,
    /// File position of every payload in `blobs`, seeding the journal's
    /// compaction index.
    blob_spans: HashMap<u64, BlobSpan>,
}

/// Append-only write-ahead journal for job lifecycle transitions.
pub struct Journal {
    dir: PathBuf,
    gen: u64,
    file: File,
    path: PathBuf,
    fsync: FsyncPolicy,
    unsynced: u32,
    seq: u64,
    /// Every blob in the current generation file and where its payload
    /// sits: the dedup set for appends, and the index compaction copies
    /// live blobs through.
    blobs: HashMap<u64, BlobSpan>,
    /// Live (admitted, not finished) jobs in the current generation; used
    /// to decide what survives compaction.
    live: HashMap<u64, ReplayedJob>,
    done_since_compact: u64,
    compact_threshold: u64,
    compactions: u64,
    compaction_bytes_read: u64,
}

impl Journal {
    /// Opens the journal in `dir` (created if missing), replaying the
    /// newest generation file. Returns the journal (positioned for
    /// appending) plus everything replayed. Damaged records are skipped
    /// and counted, never fatal; a file with a damaged `CLFH` header is
    /// abandoned entirely (counted as one skipped record) and a fresh
    /// generation is started.
    ///
    /// # Errors
    ///
    /// [`FheError::Serialization`] when the directory or journal file
    /// cannot be created or written.
    pub fn open(
        dir: &Path,
        fsync: FsyncPolicy,
        compact_threshold: u64,
    ) -> FheResult<(Self, JournalReplay)> {
        fs::create_dir_all(dir).map_err(|e| io_err("journal_open", &e.to_string()))?;
        let newest = newest_generation(dir);
        let mut replay = JournalReplay::default();
        let (gen, path) = match newest {
            Some((gen, path)) => {
                let bytes =
                    fs::read(&path).map_err(|e| io_err("journal_open", &e.to_string()))?;
                replay_bytes(&bytes, &mut replay);
                (gen, path)
            }
            None => {
                let gen = 0;
                let path = gen_path(dir, gen);
                create_generation(dir, &path)?;
                (gen, path)
            }
        };
        let file = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| io_err("journal_open", &e.to_string()))?;
        let live = replay
            .jobs
            .iter()
            .filter(|j| j.outcome.is_none())
            .map(|j| (j.id, j.clone()))
            .collect();
        let journal = Self {
            dir: dir.to_path_buf(),
            gen,
            file,
            path,
            fsync,
            unsynced: 0,
            seq: replay.records_replayed,
            blobs: std::mem::take(&mut replay.blob_spans),
            live,
            done_since_compact: 0,
            compact_threshold,
            compactions: 0,
            compaction_bytes_read: 0,
        };
        Ok((journal, replay))
    }

    /// Journals `blob` as a digest-keyed `Blob` record unless this
    /// generation already holds it, and returns the digest for the
    /// `Admitted` record to reference. Deduplication keeps steady-state
    /// append cost independent of blob size: a tenant's jobs typically
    /// share the identical key bundle (and often program), which is
    /// journaled once.
    ///
    /// # Errors
    ///
    /// [`FheError::Serialization`] on write failure.
    pub fn append_blob(&mut self, blob: &[u8]) -> FheResult<u64> {
        self.append_blob_with_digest(blob, fnv1a_fast(blob))
    }

    /// [`Journal::append_blob`] with the `fnv1a_fast(blob)` digest already
    /// in hand (e.g. cached on a [`crate::Blob`]), so deduplicated repeat
    /// submissions skip re-hashing the payload entirely.
    ///
    /// # Errors
    ///
    /// [`FheError::Serialization`] on write failure.
    pub fn append_blob_with_digest(&mut self, blob: &[u8], digest: u64) -> FheResult<u64> {
        if !self.blobs.contains_key(&digest) {
            // The file is only ever appended through this handle, so its
            // length is where the record lands.
            let record_at = self
                .file
                .metadata()
                .map_err(|e| io_err("journal_append", &e.to_string()))?
                .len();
            let len = blob.len() as u32;
            let mut body = Vec::with_capacity(BLOB_PREFIX_BYTES + blob.len());
            blob_prefix(&mut body, self.next_seq(), digest, len);
            body.extend_from_slice(blob);
            self.append_record(&body)?;
            let at = record_at + (FRAME_HEAD_BYTES + BLOB_PREFIX_BYTES) as u64;
            self.blobs.insert(digest, BlobSpan { at, len });
        }
        Ok(digest)
    }

    /// Journals a job admission referencing blobs previously written with
    /// [`Journal::append_blob`].
    ///
    /// # Errors
    ///
    /// [`FheError::Serialization`] on write failure.
    pub fn append_admitted(
        &mut self,
        id: u64,
        tenant: &str,
        deadline_ms: Option<u64>,
        program_digest: u64,
        input_digest: u64,
        key_digest: u64,
    ) -> FheResult<()> {
        let job = ReplayedJob {
            id,
            tenant: tenant.to_string(),
            deadline_ms,
            program_digest,
            input_digest,
            key_digest,
            admitted: true,
            dispatched: false,
            outcome: None,
        };
        let body = admitted_body(self.next_seq(), &job);
        self.append_record(&body)?;
        self.live.insert(id, job);
        Ok(())
    }

    /// Journals a worker picking the job up.
    ///
    /// # Errors
    ///
    /// [`FheError::Serialization`] on write failure.
    pub fn append_dispatched(&mut self, id: u64) -> FheResult<()> {
        let body = dispatched_body(self.next_seq(), id);
        self.append_record(&body)?;
        if let Some(job) = self.live.get_mut(&id) {
            job.dispatched = true;
        }
        Ok(())
    }

    /// Journals a successful completion (with the serialized output), then
    /// compacts when enough finished entries have accumulated.
    ///
    /// # Errors
    ///
    /// [`FheError::Serialization`] on write failure.
    pub fn append_completed(&mut self, id: u64, output: &[u8]) -> FheResult<()> {
        let mut body = Vec::with_capacity(24 + output.len());
        self.body_prefix(&mut body, KIND_COMPLETED);
        put_u64(&mut body, id);
        put_u32(&mut body, output.len() as u32);
        body.extend_from_slice(output);
        self.append_record(&body)?;
        self.finish(id)
    }

    /// Journals a terminal failure with its stable outcome code.
    ///
    /// # Errors
    ///
    /// [`FheError::Serialization`] on write failure.
    pub fn append_failed(&mut self, id: u64, code: u16, detail: &str) -> FheResult<()> {
        let detail = truncate_utf8(detail, MAX_DETAIL_BYTES);
        let mut body = Vec::with_capacity(32 + detail.len());
        self.body_prefix(&mut body, KIND_FAILED);
        put_u64(&mut body, id);
        put_u16(&mut body, code);
        put_u16(&mut body, detail.len() as u16);
        body.extend_from_slice(detail.as_bytes());
        self.append_record(&body)?;
        self.finish(id)
    }

    /// Flushes appended records to stable storage regardless of policy.
    ///
    /// # Errors
    ///
    /// [`FheError::Serialization`] when the `fsync` fails.
    pub fn sync(&mut self) -> FheResult<()> {
        self.unsynced = 0;
        self.file
            .sync_data()
            .map_err(|e| io_err("journal_sync", &e.to_string()))
    }

    /// Number of generation rollovers performed by compaction.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Blob payload bytes compactions have read back from retired
    /// generations — bounded by the blobs live jobs referenced, whatever
    /// the generations' size.
    pub fn compaction_bytes_read(&self) -> u64 {
        self.compaction_bytes_read
    }

    /// Path of the current generation file (tests damage it directly).
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn finish(&mut self, id: u64) -> FheResult<()> {
        self.live.remove(&id);
        self.done_since_compact += 1;
        if self.compact_threshold > 0 && self.done_since_compact >= self.compact_threshold {
            self.compact()?;
        }
        Ok(())
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    fn body_prefix(&mut self, body: &mut Vec<u8>, kind: u8) {
        put_u64(body, self.next_seq());
        put_u8(body, kind);
    }

    fn append_record(&mut self, body: &[u8]) -> FheResult<()> {
        write_frame(&mut self.file, body).map_err(|e| io_err("journal_append", &e.to_string()))?;
        match self.fsync {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::Batch(n) => {
                self.unsynced += 1;
                if self.unsynced >= n {
                    self.sync()?;
                }
            }
            FsyncPolicy::Never => {}
        }
        Ok(())
    }

    /// Rewrites live records into the next generation file and retires the
    /// current one: blobs still referenced by a live job, then an
    /// `Admitted` (and `Dispatched`, when seen) record per live job.
    /// Finished jobs and their outputs are dropped — a restart after
    /// compaction no longer reconstructs their outcomes, which is the
    /// price of a bounded journal.
    ///
    /// Runs under the journal lock every `submit` and worker append needs,
    /// so it touches only live bytes: each referenced blob is read back
    /// through the index and re-checked against its digest. A blob damaged
    /// on disk is left out — the restart then reports it lost, exactly as
    /// replaying the damaged generation would have.
    fn compact(&mut self) -> FheResult<()> {
        self.sync()?;
        let err = |e: io::Error| io_err("journal_compact", &e.to_string());
        let next_gen = self.gen + 1;
        let tmp = self.dir.join("journal.tmp");
        let next_path = gen_path(&self.dir, next_gen);
        let mut src = File::open(&self.path).map_err(err)?;
        let mut header = Vec::with_capacity(16);
        write_header(&mut header, ObjectTag::Journal, 0);
        let mut dst = NextGeneration {
            file: File::create(&tmp).map_err(err)?,
            at: header.len() as u64,
            seq: 0,
        };
        dst.file.write_all(&header).map_err(err)?;

        let mut kept: HashMap<u64, BlobSpan> = HashMap::new();
        let mut visited: HashSet<u64> = HashSet::new();
        // One buffer for every blob record: peak memory is the largest live
        // blob, not their sum.
        let mut body = Vec::new();
        let mut live: Vec<&ReplayedJob> = self.live.values().collect();
        live.sort_by_key(|j| j.id);
        for job in live {
            for digest in [job.program_digest, job.input_digest, job.key_digest] {
                if !visited.insert(digest) {
                    continue;
                }
                let Some(span) = self.blobs.get(&digest) else { continue };
                body.clear();
                blob_prefix(&mut body, dst.seq, digest, span.len);
                body.resize(BLOB_PREFIX_BYTES + span.len as usize, 0);
                src.seek(SeekFrom::Start(span.at)).map_err(err)?;
                match src.read_exact(&mut body[BLOB_PREFIX_BYTES..]) {
                    Ok(()) => {}
                    // The generation was cut short under us: the blob is
                    // as lost as a torn record is to replay.
                    Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => continue,
                    Err(e) => return Err(err(e)),
                }
                self.compaction_bytes_read += u64::from(span.len);
                if fnv1a_fast(&body[BLOB_PREFIX_BYTES..]) != digest {
                    continue;
                }
                let record_at = dst.emit(&body).map_err(err)?;
                let at = record_at + (FRAME_HEAD_BYTES + BLOB_PREFIX_BYTES) as u64;
                kept.insert(digest, BlobSpan { at, len: span.len });
            }
            dst.emit(&admitted_body(dst.seq, job)).map_err(err)?;
            if job.dispatched {
                dst.emit(&dispatched_body(dst.seq, job.id)).map_err(err)?;
            }
        }
        dst.file.sync_data().map_err(err)?;
        fs::rename(&tmp, &next_path).map_err(err)?;
        // The rename itself must be durable before the old generation goes.
        File::open(&self.dir).and_then(|d| d.sync_all()).map_err(err)?;
        let old_path = std::mem::replace(&mut self.path, next_path);
        self.file = OpenOptions::new().append(true).open(&self.path).map_err(err)?;
        let _ = fs::remove_file(&old_path);
        self.gen = next_gen;
        self.seq = dst.seq;
        self.blobs = kept;
        self.done_since_compact = 0;
        self.unsynced = 0;
        self.compactions += 1;
        Ok(())
    }
}

/// The generation file a compaction is writing: its write position and
/// next sequence number.
struct NextGeneration {
    file: File,
    at: u64,
    seq: u64,
}

impl NextGeneration {
    /// Appends one record; returns the file position its frame starts at.
    fn emit(&mut self, body: &[u8]) -> io::Result<u64> {
        write_frame(&mut self.file, body)?;
        let record_at = self.at;
        self.at += (FRAME_BYTES + body.len()) as u64;
        self.seq += 1;
        Ok(record_at)
    }
}

/// Writes one framed record. Word-wise trailer checksum: `Completed` bodies
/// carry whole output ciphertext blobs, and the byte-wise FNV serial
/// dependency chain is the dominant journaling cost at megabyte payloads.
/// Large bodies are written in place rather than copied into a frame
/// buffer; torn writes between the parts are tolerated by the replay
/// resync scan.
fn write_frame(file: &mut File, body: &[u8]) -> io::Result<()> {
    let checksum = fnv1a_fast(body);
    let mut head = [0u8; FRAME_HEAD_BYTES];
    head[..4].copy_from_slice(&REC_MAGIC);
    head[4..].copy_from_slice(&(body.len() as u32).to_le_bytes());
    if body.len() <= 4096 {
        let mut frame = Vec::with_capacity(FRAME_BYTES + body.len());
        frame.extend_from_slice(&head);
        frame.extend_from_slice(body);
        put_u64(&mut frame, checksum);
        file.write_all(&frame)
    } else {
        file.write_all(&head)?;
        file.write_all(body)?;
        file.write_all(&checksum.to_le_bytes())
    }
}

/// Starts a `Blob` record body; the payload follows.
fn blob_prefix(body: &mut Vec<u8>, seq: u64, digest: u64, len: u32) {
    put_u64(body, seq);
    put_u8(body, KIND_BLOB);
    put_u64(body, digest);
    put_u32(body, len);
}

fn admitted_body(seq: u64, job: &ReplayedJob) -> Vec<u8> {
    let mut body = Vec::with_capacity(64 + job.tenant.len());
    put_u64(&mut body, seq);
    put_u8(&mut body, KIND_ADMITTED);
    put_u64(&mut body, job.id);
    put_u64(&mut body, job.deadline_ms.unwrap_or(u64::MAX));
    put_u64(&mut body, job.program_digest);
    put_u64(&mut body, job.input_digest);
    put_u64(&mut body, job.key_digest);
    put_u16(&mut body, job.tenant.len() as u16);
    body.extend_from_slice(job.tenant.as_bytes());
    body
}

fn dispatched_body(seq: u64, id: u64) -> Vec<u8> {
    let mut body = Vec::with_capacity(24);
    put_u64(&mut body, seq);
    put_u8(&mut body, KIND_DISPATCHED);
    put_u64(&mut body, id);
    body
}

/// Returns the `journal-<gen>.wal` path for a generation number.
fn gen_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("journal-{gen}.wal"))
}

/// Finds the highest-numbered `journal-<gen>.wal` in `dir`.
fn newest_generation(dir: &Path) -> Option<(u64, PathBuf)> {
    let entries = fs::read_dir(dir).ok()?;
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(gen) = name
            .strip_prefix("journal-")
            .and_then(|s| s.strip_suffix(".wal"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            if best.as_ref().is_none_or(|(g, _)| gen > *g) {
                best = Some((gen, entry.path()));
            }
        }
    }
    best
}

/// Creates the first generation file in `dir`, holding only its header,
/// and syncs both the file and the directory entry, as compaction does for
/// the generation it renames into place: a record acknowledged under
/// `FsyncPolicy::Always` must not land in a file a power loss can drop.
fn create_generation(dir: &Path, path: &Path) -> FheResult<()> {
    let mut out = Vec::with_capacity(16);
    write_header(&mut out, ObjectTag::Journal, 0);
    let err = |e: io::Error| io_err("journal_open", &e.to_string());
    let mut file = File::create(path).map_err(err)?;
    file.write_all(&out).map_err(err)?;
    file.sync_data().map_err(err)?;
    File::open(dir).and_then(|d| d.sync_all()).map_err(err)
}

fn io_err(op: &'static str, reason: &str) -> FheError {
    FheError::Serialization {
        op,
        reason: reason.to_string(),
    }
}

/// UTF-8-safe prefix truncation for failure details.
fn truncate_utf8(s: &str, max: usize) -> &str {
    if s.len() <= max {
        return s;
    }
    let mut end = max;
    while end > 0 && !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

/// Replays one journal file's bytes into `replay`. Never panics and never
/// fails: damaged regions are skipped by scanning forward for the next
/// record marker, and whatever checksums clean is accepted.
fn replay_bytes(bytes: &[u8], replay: &mut JournalReplay) {
    // A file too short for a header, or with a damaged one, contributes
    // nothing; count the damage so operators see it in the replay stats.
    match peek_header("journal_replay", bytes) {
        Ok((ObjectTag::Journal, _)) => {}
        _ => {
            replay.records_skipped += 1;
            return;
        }
    }
    let mut jobs: HashMap<u64, usize> = HashMap::new();
    let mut pos = 16usize;
    while pos + FRAME_BYTES <= bytes.len() {
        if bytes[pos..pos + 4] != REC_MAGIC {
            pos = resync(bytes, pos + 1, replay);
            continue;
        }
        let len = u32::from_le_bytes([
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
        ]);
        if len > MAX_RECORD_BYTES {
            pos = resync(bytes, pos + 1, replay);
            continue;
        }
        let body_start = pos + 8;
        let body_end = body_start + len as usize;
        let frame_end = body_end + 8;
        if frame_end > bytes.len() {
            // Torn tail: the record extends past EOF.
            replay.records_skipped += 1;
            return;
        }
        let body = &bytes[body_start..body_end];
        let want = u64::from_le_bytes(
            bytes[body_end..frame_end]
                .try_into()
                .unwrap_or([0u8; 8]),
        );
        if fnv1a_fast(body) != want {
            pos = resync(bytes, pos + 1, replay);
            continue;
        }
        if apply_record(body, body_start as u64, replay, &mut jobs).is_some() {
            replay.records_replayed += 1;
        } else {
            replay.records_skipped += 1;
        }
        pos = frame_end;
    }
    if pos < bytes.len() {
        // Trailing bytes too short to hold a frame: a torn final record.
        replay.records_skipped += 1;
    }
}

/// Scans forward from `from` for the next record marker; counts the
/// damaged region as one skipped record. Returns the next scan position.
fn resync(bytes: &[u8], from: usize, replay: &mut JournalReplay) -> usize {
    replay.records_skipped += 1;
    let mut pos = from;
    while pos + 4 <= bytes.len() {
        if bytes[pos..pos + 4] == REC_MAGIC {
            return pos;
        }
        pos += 1;
    }
    bytes.len()
}

/// Applies one checksum-verified record body. Records are merged by job id
/// order-insensitively: `Dispatched`/`Completed` may land before their
/// `Admitted` (appends from concurrent workers are not globally ordered).
/// `body_at` is the body's position in the file (blob payloads are indexed).
/// Returns `None` when the body is structurally malformed despite a clean
/// checksum (only reachable via a hostile writer): a short read skips the
/// record, it is never an error to surface.
fn apply_record(
    body: &[u8],
    body_at: u64,
    replay: &mut JournalReplay,
    jobs: &mut HashMap<u64, usize>,
) -> Option<()> {
    let mut r = Reader::new("journal_replay", body);
    let _seq = r.u64().ok()?;
    match r.u8().ok()? {
        KIND_ADMITTED => {
            let id = r.u64().ok()?;
            let deadline = r.u64().ok()?;
            let pd = r.u64().ok()?;
            let ind = r.u64().ok()?;
            let kd = r.u64().ok()?;
            let tlen = r.u16().ok()?;
            let tenant = std::str::from_utf8(r.take(tlen as usize).ok()?).ok()?;
            let job = entry(replay, jobs, id);
            job.tenant = tenant.to_string();
            job.deadline_ms = (deadline != u64::MAX).then_some(deadline);
            job.program_digest = pd;
            job.input_digest = ind;
            job.key_digest = kd;
            job.admitted = true;
        }
        KIND_DISPATCHED => {
            let id = r.u64().ok()?;
            entry(replay, jobs, id).dispatched = true;
        }
        KIND_COMPLETED => {
            let id = r.u64().ok()?;
            let len = r.u32().ok()?;
            let output = r.take(len as usize).ok()?;
            entry(replay, jobs, id).outcome = Some(ReplayedOutcome {
                code: 0,
                detail: String::new(),
                output: Some(output.to_vec()),
            });
        }
        KIND_FAILED => {
            let id = r.u64().ok()?;
            let code = r.u16().ok()?;
            let dlen = r.u16().ok()?;
            let detail = r.take(dlen as usize).ok()?;
            entry(replay, jobs, id).outcome = Some(ReplayedOutcome {
                code,
                detail: String::from_utf8_lossy(detail).into_owned(),
                output: None,
            });
        }
        KIND_BLOB => {
            let digest = r.u64().ok()?;
            let len = r.u32().ok()?;
            let blob = r.take(len as usize).ok()?;
            // A flipped blob *payload* byte still checksums clean at the
            // record layer only if the flip predates the append; verify
            // the content digest so a blob can never lie about itself.
            if fnv1a_fast(blob) != digest {
                return None;
            }
            replay.blobs.insert(digest, blob.to_vec());
            let at = body_at + BLOB_PREFIX_BYTES as u64;
            replay.blob_spans.insert(digest, BlobSpan { at, len });
        }
        _ => return None,
    }
    Some(())
}

fn entry<'a>(
    replay: &'a mut JournalReplay,
    jobs: &mut HashMap<u64, usize>,
    id: u64,
) -> &'a mut ReplayedJob {
    let idx = *jobs.entry(id).or_insert_with(|| {
        replay.jobs.push(ReplayedJob {
            id,
            tenant: String::new(),
            deadline_ms: None,
            program_digest: 0,
            input_digest: 0,
            key_digest: 0,
            admitted: false,
            dispatched: false,
            outcome: None,
        });
        replay.jobs.len() - 1
    });
    &mut replay.jobs[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cl-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn admit(j: &mut Journal, id: u64, deadline_ms: Option<u64>) {
        let pd = j.append_blob(b"prog").expect("blob");
        let ind = j.append_blob(b"input").expect("blob");
        let kd = j.append_blob(b"keys").expect("blob");
        j.append_admitted(id, "acme", deadline_ms, pd, ind, kd)
            .expect("admit");
    }

    fn journaled_lifecycle(dir: &Path, ids: &[u64], finish: bool) -> Journal {
        let (mut j, _) = Journal::open(dir, FsyncPolicy::Never, 0).expect("open");
        for &id in ids {
            admit(&mut j, id, Some(5_000));
            j.append_dispatched(id).expect("dispatch");
            if finish {
                j.append_completed(id, b"output-bytes").expect("complete");
            }
        }
        j
    }

    #[test]
    fn roundtrips_lifecycle_records_and_dedups_blobs() {
        let dir = tmp_dir("roundtrip");
        let j = journaled_lifecycle(&dir, &[1, 2], false);
        drop(j);
        let (_, replay) = Journal::open(&dir, FsyncPolicy::Never, 0).expect("reopen");
        assert_eq!(replay.records_skipped, 0);
        // 3 blobs written once (deduped across both jobs) + 2 admits + 2
        // dispatches.
        assert_eq!(replay.records_replayed, 7);
        assert_eq!(replay.blobs.len(), 3);
        assert_eq!(replay.jobs.len(), 2);
        for job in &replay.jobs {
            assert!(job.admitted && job.dispatched);
            assert!(job.outcome.is_none());
            assert_eq!(job.tenant, "acme");
            assert_eq!(job.deadline_ms, Some(5_000));
            assert_eq!(replay.blobs[&job.input_digest], b"input");
        }
        assert_eq!(replay.jobs.iter().map(|j| j.id).collect::<Vec<_>>(), [1, 2]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn completed_jobs_replay_their_outcome() {
        let dir = tmp_dir("completed");
        drop(journaled_lifecycle(&dir, &[7], true));
        let (mut j, replay) = Journal::open(&dir, FsyncPolicy::Never, 0).expect("reopen");
        let outcome = replay.jobs[0].outcome.as_ref().expect("outcome");
        assert_eq!(outcome.code, 0);
        assert_eq!(outcome.output.as_deref(), Some(&b"output-bytes"[..]));
        j.append_failed(8, 3, "guardrail said no").expect("fail");
        drop(j);
        let (_, replay) = Journal::open(&dir, FsyncPolicy::Never, 0).expect("reopen2");
        let failed = replay.jobs.iter().find(|x| x.id == 8).expect("job 8");
        let outcome = failed.outcome.as_ref().expect("outcome");
        assert_eq!(outcome.code, 3);
        assert_eq!(outcome.detail, "guardrail said no");
        assert!(outcome.output.is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_skipped_but_prior_records_survive() {
        let dir = tmp_dir("torn");
        let j = journaled_lifecycle(&dir, &[1], false);
        let path = j.path().to_path_buf();
        drop(j);
        let full = fs::read(&path).expect("read");
        // Truncate mid-way through the final record.
        fs::write(&path, &full[..full.len() - 5]).expect("truncate");
        let (_, replay) = Journal::open(&dir, FsyncPolicy::Never, 0).expect("reopen");
        assert_eq!(replay.records_skipped, 1);
        assert_eq!(replay.records_replayed, 4);
        let job = &replay.jobs[0];
        assert!(job.admitted);
        assert!(!job.dispatched, "torn dispatch record must not apply");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_byte_loses_one_record_and_resyncs() {
        let dir = tmp_dir("flip");
        let j = journaled_lifecycle(&dir, &[1, 2], false);
        let path = j.path().to_path_buf();
        drop(j);
        let mut bytes = fs::read(&path).expect("read");
        // Flip one byte inside the first record after the file header; the
        // replay must resync and still recover the later records.
        bytes[20] ^= 0x40;
        fs::write(&path, &bytes).expect("write");
        let (_, replay) = Journal::open(&dir, FsyncPolicy::Never, 0).expect("reopen");
        assert!(replay.records_skipped >= 1);
        assert!(replay.records_replayed >= 5);
        assert!(replay.jobs.iter().any(|job| job.id == 2 && job.admitted));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_file_header_abandons_the_file_without_panicking() {
        let dir = tmp_dir("header");
        let j = journaled_lifecycle(&dir, &[1], false);
        let path = j.path().to_path_buf();
        drop(j);
        let mut bytes = fs::read(&path).expect("read");
        bytes[0] ^= 0xff;
        fs::write(&path, &bytes).expect("write");
        let (_, replay) = Journal::open(&dir, FsyncPolicy::Never, 0).expect("reopen");
        assert_eq!(replay.records_replayed, 0);
        assert_eq!(replay.records_skipped, 1);
        assert!(replay.jobs.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_rolls_the_generation_and_keeps_live_jobs() {
        let dir = tmp_dir("compact");
        let (mut j, _) = Journal::open(&dir, FsyncPolicy::Never, 2).expect("open");
        for id in 1..=3u64 {
            admit(&mut j, id, None);
        }
        j.append_completed(1, b"out1").expect("c1");
        assert_eq!(j.compactions(), 0);
        j.append_completed(2, b"out2").expect("c2");
        assert_eq!(j.compactions(), 1, "threshold 2 must trigger compaction");
        assert!(j.path().ends_with("journal-1.wal"));
        assert!(!gen_path(&dir, 0).exists(), "old generation retired");
        // Job 3 (live) must survive compaction with its blobs; jobs 1-2
        // and their outputs are gone.
        drop(j);
        let (_, replay) = Journal::open(&dir, FsyncPolicy::Never, 2).expect("reopen");
        assert_eq!(replay.jobs.len(), 1);
        assert_eq!(replay.jobs[0].id, 3);
        assert!(replay.jobs[0].admitted);
        assert_eq!(replay.blobs.len(), 3);
        assert_eq!(replay.records_skipped, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn appends_keep_working_across_a_compaction() {
        let dir = tmp_dir("compact-append");
        let (mut j, _) = Journal::open(&dir, FsyncPolicy::Always, 1).expect("open");
        admit(&mut j, 1, None);
        j.append_completed(1, b"o1").expect("c1"); // triggers compaction
        assert_eq!(j.compactions(), 1);
        admit(&mut j, 2, None);
        j.append_dispatched(2).expect("d2");
        drop(j);
        let (_, replay) = Journal::open(&dir, FsyncPolicy::Never, 1).expect("reopen");
        assert_eq!(replay.records_skipped, 0);
        assert_eq!(replay.jobs.len(), 1);
        assert!(replay.jobs[0].dispatched);
        // Blobs were re-deduplicated into the fresh generation.
        assert_eq!(replay.blobs.len(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    /// 64 finished jobs with 64 KiB outputs (a 4 MiB generation), then
    /// live jobs 100 and 101 with 8 KiB blobs of their own: a shared
    /// program and key bundle, one input each. Returns the journal one
    /// completion short of compacting, and the live blobs by role.
    fn generation_with_large_outputs(dir: &Path) -> (Journal, [Vec<u8>; 4]) {
        const FINISHED: u64 = 64;
        let (mut j, _) = Journal::open(dir, FsyncPolicy::Never, FINISHED + 1).expect("open");
        let output = vec![0xA5u8; 64 << 10];
        for id in 1..=FINISHED {
            admit(&mut j, id, None);
            j.append_completed(id, &output).expect("complete");
        }
        let blob = |tag: u8| -> Vec<u8> { (0..8192u32).map(|i| tag ^ (i % 251) as u8).collect() };
        let live = [blob(0x10), blob(0x20), blob(0x30), blob(0x40)];
        let [program, keys, input_100, input_101] = &live;
        let pd = j.append_blob(program).expect("blob");
        let kd = j.append_blob(keys).expect("blob");
        for (id, input) in [(100, input_100), (101, input_101)] {
            let ind = j.append_blob(input).expect("blob");
            j.append_admitted(id, "acme", None, pd, ind, kd).expect("admit");
        }
        j.append_dispatched(100).expect("dispatch");
        admit(&mut j, 65, None);
        assert_eq!(j.compactions(), 0);
        (j, live)
    }

    #[test]
    fn compaction_cost_follows_live_bytes_not_generation_size() {
        let dir = tmp_dir("compact-live-bytes");
        let (mut j, live) = generation_with_large_outputs(&dir);
        let live_bytes: u64 = live.iter().map(|b| b.len() as u64).sum();
        let generation_bytes = fs::metadata(j.path()).expect("stat").len();
        assert!(generation_bytes > 100 * live_bytes, "outputs must dwarf the live blobs");

        j.append_completed(65, b"last").expect("complete"); // compacts
        assert_eq!(j.compactions(), 1);
        assert_eq!(j.compaction_bytes_read(), live_bytes, "exactly the live blobs are read");
        let next_bytes = fs::metadata(j.path()).expect("stat").len();
        assert!(
            next_bytes < live_bytes + 1024,
            "next generation holds the live blobs plus a few small records, got {next_bytes}"
        );

        // Appends after the rollover dedup against the carried-over blobs.
        j.append_blob(&live[0]).expect("dedup");
        assert_eq!(fs::metadata(j.path()).expect("stat").len(), next_bytes);
        drop(j);
        let (_, replay) = Journal::open(&dir, FsyncPolicy::Never, 0).expect("reopen");
        assert_eq!(replay.records_skipped, 0);
        let ids: Vec<u64> = replay.jobs.iter().map(|job| job.id).collect();
        assert_eq!(ids, [100, 101], "exactly the live jobs survive");
        assert!(replay.jobs[0].dispatched && !replay.jobs[1].dispatched);
        assert_eq!(replay.blobs.len(), live.len());
        for (job, input) in replay.jobs.iter().zip(&live[2..]) {
            assert!(job.admitted && job.outcome.is_none());
            assert_eq!(&replay.blobs[&job.program_digest], &live[0]);
            assert_eq!(&replay.blobs[&job.key_digest], &live[1]);
            assert_eq!(&replay.blobs[&job.input_digest], input);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_drops_a_live_blob_damaged_on_disk() {
        let dir = tmp_dir("compact-damaged-blob");
        let (mut j, live) = generation_with_large_outputs(&dir);
        let damaged = &live[3]; // job 101's input
        let mut bytes = fs::read(j.path()).expect("read");
        let at = bytes
            .windows(64)
            .position(|w| w == &damaged[..64])
            .expect("payload is in the file");
        bytes[at + 4000] ^= 0x01;
        // Rewritten in place: the journal's append handle stays valid.
        OpenOptions::new()
            .write(true)
            .open(j.path())
            .and_then(|mut f| f.write_all(&bytes))
            .expect("damage");

        j.append_completed(65, b"last").expect("complete"); // compacts
        assert_eq!(j.compactions(), 1);
        // The damaged blob was read, failed its digest and was left out —
        // so it is no longer deduplicated against either.
        let lost = fnv1a_fast(damaged);
        assert!(!j.blobs.contains_key(&lost));
        drop(j);
        let (mut j, replay) = Journal::open(&dir, FsyncPolicy::Never, 0).expect("reopen");
        // What replaying the damaged generation itself reports: both jobs
        // admitted, job 101's input digest resolving to no blob.
        assert_eq!(replay.records_skipped, 0);
        assert_eq!(replay.jobs.len(), 2);
        assert!(replay.blobs.contains_key(&replay.jobs[0].input_digest));
        assert_eq!(replay.jobs[1].input_digest, lost);
        assert!(!replay.blobs.contains_key(&lost));
        assert_eq!(replay.blobs.len(), live.len() - 1);
        // A resubmission journals the payload afresh.
        j.append_blob(damaged).expect("re-journal");
        drop(j);
        let (_, replay) = Journal::open(&dir, FsyncPolicy::Never, 0).expect("reopen");
        assert_eq!(&replay.blobs[&lost], damaged);
        let _ = fs::remove_dir_all(&dir);
    }
}

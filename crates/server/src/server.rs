//! The multi-tenant job server.
//!
//! A fixed pool of worker threads drains a bounded, tenant-fair
//! [`AdmissionQueue`]; every job runs on a [`PipelineExecutor`] under its
//! tenant context's guardrails with durable checkpoints, an
//! attached [`RunControl`] (cancellation + deadline), and a server-level
//! retry loop on top of the executor's own restore-and-retry:
//!
//! - an executor attempt that *crashes* (fault-plan kill point) or gives
//!   up with an integrity failure is resumed on a fresh executor from the
//!   newest durable checkpoint, after an exponential backoff, while the
//!   tenant's retry budget lasts;
//! - deterministic rejections (malformed blobs, foreign fingerprints,
//!   guardrail verdicts, cancellation, deadline expiry) fail exactly
//!   once — retrying them would burn budget to reproduce the verdict.
//!
//! Worker threads submit *nothing* across tenant boundaries: the job
//! carries its tenant's context, key cache, and per-`(tenant, job)`
//! checkpoint directory, so one tenant's corrupt blob, injected faults,
//! or mid-job kill cannot perturb another tenant's results (asserted
//! bit-exactly in `tests/server_chaos.rs`).
//!
//! The serving layer is **crash-durable and self-healing**:
//!
//! - every job lifecycle transition is appended to a write-ahead
//!   [`Journal`] before it is acted on, so [`JobServer::recover`] can
//!   restart a killed server, re-admit every acknowledged-but-unfinished
//!   job, and resume each from its durable checkpoint — converging
//!   limb-bit-identically to an uninterrupted run;
//! - a supervisor thread (the **watchdog**) watches per-job heartbeats
//!   and aborts runs whose heartbeat goes stale past the stall budget;
//!   stalled jobs are re-dispatched from their last checkpoint within the
//!   retry budget;
//! - a per-tenant **circuit breaker** quarantines tenants whose jobs keep
//!   failing destructively (integrity failures, panics), rejecting their
//!   submissions at the door with [`FheError::TenantQuarantined`] until a
//!   half-open probe proves them healthy again.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use cl_boot::Bootstrapper;
use cl_ckks::serialize::{check_header, ObjectTag};
use cl_ckks::{CkksContext, FheError, FheResult};
use cl_runtime::{
    sweep_checkpoint_dir, ExecutorConfig, PipelineExecutor, RecoveryTelemetry, RunControl,
    RunOutcome,
};
use cl_trace::OpSnapshot;

use crate::job::{Blob, JobId, JobOutcome, JobSpec, OutcomeCode};
use crate::journal::{FsyncPolicy, Journal, JournalReplay};
use crate::queue::{AdmissionQueue, ShedReason};
use crate::tenant::{TenantRegistry, TenantReport, TenantState, PROGRAM_CACHE_BYTES};

/// Base unit for the retry-after hint returned with an
/// [`FheError::Overloaded`] rejection; scaled by queue pressure.
const RETRY_AFTER_BASE_MS: u64 = 10;

/// Server configuration. The defaults suit tests and smoke runs; a real
/// deployment sizes the queue and budgets to its SLO.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads draining the queue (min 1).
    pub workers: usize,
    /// Global admission bound: queued jobs across all tenants. With the
    /// per-tenant caches it bounds the server's memory: input blobs are
    /// only held while queued or running, while parsed key bundles
    /// (`key_cache_bytes`) and prepared programs
    /// ([`PROGRAM_CACHE_BYTES`](crate::PROGRAM_CACHE_BYTES)) stay resident
    /// per tenant within their budgets — except that each cache keeps its
    /// most recent entry even when that entry alone is over budget, so one
    /// oversized program or bundle per tenant outlives its job.
    pub queue_capacity: usize,
    /// Per-tenant admission bound (tenant-fair shedding).
    pub tenant_queue_capacity: usize,
    /// Root directory; tenant checkpoint dirs are created beneath it.
    pub checkpoint_root: PathBuf,
    /// Checkpoint cadence forwarded to [`ExecutorConfig`]. `0` disables
    /// durable checkpoints (server retries then restart from the input).
    pub checkpoint_every: u64,
    /// Restore-and-retry budget *inside* one executor attempt.
    pub executor_retries: u32,
    /// Server-level retry units granted to each tenant at registration
    /// (shared across that tenant's jobs).
    pub tenant_retry_budget: u32,
    /// Cap on server-level attempts for a single job, independent of the
    /// tenant budget.
    pub max_job_retries: u32,
    /// Byte budget for each tenant's compact key-bundle cache
    /// (LRU-evicted beyond this). Defaults to 32 MiB.
    pub key_cache_bytes: usize,
    /// Deadline applied when a [`JobSpec`] does not set one. `None`
    /// means no deadline.
    pub default_deadline: Option<Duration>,
    /// First backoff sleep before a server-level retry; doubles per
    /// attempt (capped at 2^6 multiples).
    pub backoff_base_ms: u64,
    /// Whether to keep the write-ahead job journal (under
    /// `checkpoint_root/journal`). Disabling it trades crash recovery
    /// for zero journaling overhead (benchmark baselines do this).
    pub journal: bool,
    /// When journal appends reach stable storage. Defaults to batches of
    /// 32.
    pub journal_fsync: FsyncPolicy,
    /// Completed/failed journal entries tolerated before compaction
    /// rewrites live records into a fresh generation file. `0` disables
    /// compaction (the journal grows until restart).
    pub journal_compact_threshold: u64,
    /// Heartbeat staleness past which the watchdog declares a running job
    /// stalled and aborts it for re-dispatch. `Duration::ZERO` disables
    /// the watchdog. Defaults to 30 s. Must
    /// exceed the longest single micro-op: the watchdog is cooperative
    /// (heartbeats tick at micro-op boundaries), so a genuinely hung
    /// op is detected but only aborted at the next boundary it reaches.
    pub stall_budget: Duration,
    /// Consecutive breaker-class failures (integrity failures, retry
    /// exhaustion, panics) that trip a tenant's circuit breaker. `0`
    /// disables the breaker (the default).
    pub breaker_threshold: u32,
    /// Base quarantine after a breaker trip; doubles per consecutive
    /// trip (capped at 64×).
    pub breaker_backoff_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 1,
            queue_capacity: 64,
            tenant_queue_capacity: 16,
            checkpoint_root: std::env::temp_dir().join("cl-server"),
            checkpoint_every: 4,
            executor_retries: 8,
            tenant_retry_budget: 16,
            max_job_retries: 3,
            key_cache_bytes: 32 << 20,
            default_deadline: None,
            backoff_base_ms: 1,
            journal: true,
            journal_fsync: FsyncPolicy::Batch(32),
            journal_compact_threshold: 256,
            stall_budget: Duration::from_secs(30),
            breaker_threshold: 0,
            breaker_backoff_ms: 100,
        }
    }
}

/// A submitted job's handle: its id plus the shared [`RunControl`], so
/// the submitter can cancel while the job is queued or mid-run.
#[derive(Debug, Clone)]
pub struct JobHandle {
    /// The server-assigned job id.
    pub id: JobId,
    control: RunControl,
}

impl JobHandle {
    /// Requests cancellation; takes effect at the next micro-op boundary
    /// (or immediately if the job is still queued).
    pub fn cancel(&self) {
        self.control.cancel();
    }
}

struct QueuedJob {
    id: JobId,
    spec: JobSpec,
    control: RunControl,
    tenant: Arc<TenantState>,
    /// Set for journal-recovered jobs: the first attempt resumes from the
    /// durable checkpoint instead of running from pc 0.
    resume_first: bool,
}

/// What the watchdog needs to know about a job a worker is executing.
struct RunningJob {
    control: RunControl,
    tenant: Arc<TenantState>,
}

struct Shared {
    config: ServerConfig,
    queue: Mutex<AdmissionQueue<QueuedJob>>,
    work_cv: Condvar,
    registry: TenantRegistry,
    /// Completed outcomes by raw job id; pending decrements happen under
    /// this lock so `wait`/`wait_idle` never miss a wakeup.
    outcomes: Mutex<HashMap<u64, JobOutcome>>,
    done_cv: Condvar,
    /// Jobs admitted but not yet finished (queued + running).
    pending: AtomicUsize,
    shutdown: AtomicBool,
    /// Simulated crash ([`JobServer::kill`]): workers stop immediately
    /// and discard in-flight work without journaling or publishing it.
    crashed: AtomicBool,
    /// The write-ahead job journal, when enabled.
    journal: Option<Mutex<Journal>>,
    /// Jobs currently executing, by raw id — the watchdog's scan set.
    running: Mutex<HashMap<u64, RunningJob>>,
    /// Parked supervisor thread; notified at shutdown so it exits without
    /// waiting out its tick.
    supervisor_lock: Mutex<()>,
    supervisor_cv: Condvar,
}

/// The multi-tenant job server. See the module docs for the scheduling
/// and isolation model.
pub struct JobServer {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
    next_id: AtomicU64,
}

/// One tenant's identity for [`JobServer::recover`]: contexts (and
/// hosted bootstrappers) are process resources that cannot be journaled,
/// so the operator supplies them again at restart.
pub struct TenantSetup {
    /// Tenant id, as originally registered.
    pub id: String,
    /// The tenant's parameter context (must match the original:
    /// fingerprint checks reject recovered blobs otherwise).
    pub ctx: Arc<CkksContext>,
    /// Bootstrapper hosted for the tenant, when it serves bootstrap
    /// programs.
    pub bootstrapper: Option<Arc<Bootstrapper>>,
}

/// What [`JobServer::recover`] found and did.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Journal records replayed (checksum-verified).
    pub records_replayed: u64,
    /// Journal records skipped as torn or corrupt.
    pub records_skipped: u64,
    /// Unfinished jobs re-admitted for execution.
    pub jobs_resumed: u64,
    /// Jobs whose terminal outcome was reconstructed from the journal.
    pub jobs_already_complete: u64,
    /// Unfinished jobs that could not be re-admitted (tenant not
    /// re-registered, or referenced blobs lost); each gets a structured
    /// failure outcome instead of silently vanishing.
    pub jobs_orphaned: u64,
    /// Orphaned per-job checkpoint directories garbage-collected.
    pub checkpoint_dirs_swept: u64,
}

impl JobServer {
    /// Starts the worker pool. An existing journal under the checkpoint
    /// root is kept and appended to but **not** replayed — restarting
    /// after a crash goes through [`JobServer::recover`] instead.
    ///
    /// # Errors
    ///
    /// [`FheError::Serialization`] when the checkpoint root or journal
    /// cannot be created.
    pub fn start(config: ServerConfig) -> FheResult<Self> {
        Self::start_inner(config).map(|(server, _)| server)
    }

    fn start_inner(config: ServerConfig) -> FheResult<(Self, JournalReplay)> {
        std::fs::create_dir_all(&config.checkpoint_root).map_err(|e| {
            FheError::Serialization {
                op: "server_start",
                reason: format!(
                    "cannot create checkpoint root {}: {e}",
                    config.checkpoint_root.display()
                ),
            }
        })?;
        let (journal, replay) = if config.journal {
            let (journal, replay) = Journal::open(
                &config.checkpoint_root.join("journal"),
                config.journal_fsync,
                config.journal_compact_threshold,
            )?;
            (Some(Mutex::new(journal)), replay)
        } else {
            (None, JournalReplay::default())
        };
        let workers = config.workers.max(1);
        let watchdog = config.stall_budget > Duration::ZERO;
        let shared = Arc::new(Shared {
            queue: Mutex::new(AdmissionQueue::new(
                config.queue_capacity,
                config.tenant_queue_capacity,
            )),
            work_cv: Condvar::new(),
            registry: TenantRegistry::default(),
            outcomes: Mutex::new(HashMap::new()),
            done_cv: Condvar::new(),
            pending: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
            journal,
            running: Mutex::new(HashMap::new()),
            supervisor_lock: Mutex::new(()),
            supervisor_cv: Condvar::new(),
            config,
        });
        let handles = (0..workers)
            .map(|widx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cl-server-w{widx}"))
                    .spawn(move || worker_loop(&shared, widx))
                    .map_err(|e| FheError::Serialization {
                        op: "server_start",
                        reason: format!("cannot spawn worker {widx}: {e}"),
                    })
            })
            .collect::<FheResult<Vec<_>>>()?;
        let supervisor = if watchdog {
            let shared = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("cl-server-watchdog".to_string())
                    .spawn(move || supervisor_loop(&shared))
                    .map_err(|e| FheError::Serialization {
                        op: "server_start",
                        reason: format!("cannot spawn watchdog: {e}"),
                    })?,
            )
        } else {
            None
        };
        Ok((
            Self {
                shared,
                workers: handles,
                supervisor,
                next_id: AtomicU64::new(0),
            },
            replay,
        ))
    }

    /// Restarts a server from its durable state: replays the write-ahead
    /// journal under `config.checkpoint_root`, reconstructs outcomes for
    /// jobs that finished before the crash, re-admits every
    /// acknowledged-but-unfinished job (keeping its original [`JobId`]),
    /// and resumes each from its durable checkpoint via the executor's
    /// binding-digest machinery — converging limb-bit-identically to an
    /// uninterrupted run. Orphaned per-job checkpoint directories (jobs
    /// the journal shows finished, or that no longer exist) are swept.
    ///
    /// Tenants must be re-registered through `tenants`: contexts and
    /// bootstrappers are process resources the journal cannot carry.
    /// Unfinished jobs of tenants *not* in `tenants` get a structured
    /// [`OutcomeCode::Internal`] failure outcome. Recovered deadlines
    /// re-arm with their full original budget (wall-clock spent before
    /// the crash is not charged).
    ///
    /// # Errors
    ///
    /// [`FheError::Serialization`] when the root or journal cannot be
    /// opened, plus anything [`JobServer::register_tenant`] rejects.
    /// Journal damage is *not* an error: torn or flipped records are
    /// skipped and counted in the report.
    pub fn recover(
        config: ServerConfig,
        tenants: &[TenantSetup],
    ) -> FheResult<(Self, RecoveryReport)> {
        let (server, replay) = Self::start_inner(config)?;
        let mut report = RecoveryReport {
            records_replayed: replay.records_replayed,
            records_skipped: replay.records_skipped,
            ..RecoveryReport::default()
        };
        for setup in tenants {
            let (ctx, booter) = (Arc::clone(&setup.ctx), setup.bootstrapper.clone());
            if let Err(e) = server.register_tenant_inner(&setup.id, ctx, booter) {
                // Nothing is re-admitted yet: stop the workers and leave
                // the journal and checkpoints for a corrected retry.
                server.kill();
                return Err(e);
            }
        }
        let shared = &server.shared;
        let mut live_by_tenant: HashMap<String, HashSet<u64>> = HashMap::new();
        let mut max_id = 0u64;
        let mut resumed = 0usize;
        for job in &replay.jobs {
            max_id = max_id.max(job.id);
            if let Some(done) = &job.outcome {
                let code = OutcomeCode::from_u16(done.code).unwrap_or(OutcomeCode::Internal);
                insert_recovered_outcome(
                    shared,
                    job.id,
                    &job.tenant,
                    code,
                    done.output.clone(),
                    done.detail.clone(),
                );
                report.jobs_already_complete += 1;
                continue;
            }
            let Some(tenant) = (job.admitted).then(|| shared.registry.get(&job.tenant)).flatten()
            else {
                insert_recovered_outcome(
                    shared,
                    job.id,
                    &job.tenant,
                    OutcomeCode::Internal,
                    None,
                    "job could not be recovered: tenant not re-registered after restart"
                        .to_string(),
                );
                report.jobs_orphaned += 1;
                continue;
            };
            let (Some(program_blob), Some(input_blob), Some(key_blob)) = (
                replay.blobs.get(&job.program_digest),
                replay.blobs.get(&job.input_digest),
                replay.blobs.get(&job.key_digest),
            ) else {
                insert_recovered_outcome(
                    shared,
                    job.id,
                    &job.tenant,
                    OutcomeCode::IntegrityFailure,
                    None,
                    "job could not be recovered: a journaled blob was lost to corruption"
                        .to_string(),
                );
                report.jobs_orphaned += 1;
                continue;
            };
            let deadline = job.deadline_ms.map(Duration::from_millis);
            let control = match deadline {
                Some(d) => RunControl::with_deadline(d),
                None => RunControl::new(),
            };
            // Replay already verified each blob against its digest key, so
            // the reconstructed blobs carry their digests pre-seeded and
            // resumed jobs never re-hash them.
            let spec = JobSpec {
                tenant: job.tenant.clone(),
                program_blob: Blob::with_digest(program_blob.clone(), job.program_digest),
                input_blob: Blob::with_digest(input_blob.clone(), job.input_digest),
                key_blob: Blob::with_digest(key_blob.clone(), job.key_digest),
                deadline,
                fault_plan: None,
            };
            live_by_tenant
                .entry(job.tenant.clone())
                .or_default()
                .insert(job.id);
            let queued = QueuedJob {
                id: JobId(job.id),
                spec,
                control,
                tenant: Arc::clone(&tenant),
                // Never dispatched = no checkpoint can exist; a fresh run
                // skips the (harmless but pointless) store probe.
                resume_first: job.dispatched,
            };
            // Capacity bounds do not apply: these jobs were already
            // admitted (and acknowledged) in their first life. Counted
            // under the queue lock, as in `submit`.
            let mut queue = lock_queue(shared);
            queue.force_push(&tenant.id, queued);
            shared.pending.fetch_add(1, Ordering::AcqRel);
            drop(queue);
            resumed += 1;
            report.jobs_resumed += 1;
        }
        server.next_id.store(max_id + 1, Ordering::Release);
        // GC: any `job-<id>` checkpoint dir not owned by a re-admitted
        // job belongs to a finished or vanished one.
        for setup in tenants {
            if let Some(tenant) = shared.registry.get(&setup.id) {
                let keep = live_by_tenant.get(&setup.id);
                report.checkpoint_dirs_swept += sweep_job_dirs(&tenant.checkpoint_root, keep);
            }
        }
        if resumed > 0 {
            shared.work_cv.notify_all();
        }
        Ok((server, report))
    }

    /// Registers a tenant under `id` with its parameter context. The
    /// context fixes the fingerprint every blob the tenant submits must
    /// carry.
    ///
    /// # Errors
    ///
    /// [`FheError::InvalidParams`] for a duplicate id or an id that is not
    /// directory-name safe (`[A-Za-z0-9._-]+`).
    /// [`FheError::Serialization`] when the tenant checkpoint directory
    /// cannot be created.
    pub fn register_tenant(&self, id: &str, ctx: Arc<CkksContext>) -> FheResult<()> {
        self.register_tenant_inner(id, ctx, None)
    }

    /// Like [`JobServer::register_tenant`], additionally hosting a
    /// bootstrapper for the tenant so its programs may contain bootstrap
    /// ops (without one they are rejected as
    /// [`OutcomeCode::Unsupported`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`JobServer::register_tenant`], plus
    /// [`FheError::InvalidParams`] when the context's chain cannot cover
    /// the bootstrap ([`Bootstrapper::try_exit_level`]): every bootstrap
    /// job of the tenant would fail at ModRaise.
    pub fn register_tenant_with_bootstrapper(
        &self,
        id: &str,
        ctx: Arc<CkksContext>,
        booter: Arc<Bootstrapper>,
    ) -> FheResult<()> {
        self.register_tenant_inner(id, ctx, Some(booter))
    }

    fn register_tenant_inner(
        &self,
        id: &str,
        ctx: Arc<CkksContext>,
        booter: Option<Arc<Bootstrapper>>,
    ) -> FheResult<()> {
        if id.is_empty()
            || !id
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
        {
            return Err(FheError::InvalidParams {
                op: "register_tenant",
                reason: format!("tenant id {id:?} is not directory-name safe"),
            });
        }
        if let Some(booter) = &booter {
            booter.try_exit_level(ctx.max_level())?;
        }
        let root = self.shared.config.checkpoint_root.join(id);
        std::fs::create_dir_all(&root).map_err(|e| FheError::Serialization {
            op: "register_tenant",
            reason: format!("cannot create tenant dir {}: {e}", root.display()),
        })?;
        let mut state = TenantState::new(
            id.to_string(),
            ctx,
            root,
            self.shared.config.key_cache_bytes,
            PROGRAM_CACHE_BYTES,
            self.shared.config.tenant_retry_budget,
        );
        if let Some(booter) = booter {
            state.set_booter(booter);
        }
        state.set_breaker(
            self.shared.config.breaker_threshold,
            self.shared.config.breaker_backoff_ms,
        );
        if !self.shared.registry.insert(Arc::new(state)) {
            return Err(FheError::InvalidParams {
                op: "register_tenant",
                reason: format!("tenant {id:?} is already registered"),
            });
        }
        Ok(())
    }

    /// Submits a job. Admission is synchronous and cheap: tenant lookup,
    /// header pre-checks on all three blobs (magic, tag, fingerprint —
    /// no payload parse), then a bounded enqueue. The deadline clock
    /// starts *now*, so queue wait counts against it.
    ///
    /// # Errors
    ///
    /// [`FheError::Overloaded`] with a retry-after hint when the global
    /// or per-tenant queue bound is hit (the job was not enqueued and no
    /// memory is retained); [`FheError::TenantQuarantined`] when the
    /// tenant's circuit breaker is open; [`FheError::InvalidParams`] for
    /// an unknown tenant; [`FheError::Serialization`] /
    /// [`FheError::ParamsMismatch`] when a blob header fails the
    /// pre-check.
    pub fn submit(&self, spec: JobSpec) -> FheResult<JobHandle> {
        let shared = &self.shared;
        let tenant = shared.registry.get(&spec.tenant).ok_or_else(|| {
            FheError::InvalidParams {
                op: "submit",
                reason: format!("unknown tenant {:?}", spec.tenant),
            }
        })?;
        if let Err(retry_after_ms) = tenant.breaker_admit() {
            return Err(FheError::TenantQuarantined {
                op: "submit",
                retry_after_ms,
            });
        }
        let fp = tenant.fingerprint;
        check_header("peek_program", &spec.program_blob, ObjectTag::Program, fp)?;
        check_header("submit_input", &spec.input_blob, ObjectTag::Ciphertext, fp)?;
        check_header("submit_keys", &spec.key_blob, ObjectTag::BootstrapKeys, fp)?;

        let budget = spec.deadline.or(shared.config.default_deadline);
        let control = match budget {
            Some(d) => RunControl::with_deadline(d),
            None => RunControl::new(),
        };
        let id = JobId(self.next_id.fetch_add(1, Ordering::Relaxed));
        // Write-ahead: the admission is durable *before* the handle is
        // returned, so an acknowledged job survives a crash. Blobs are
        // journaled digest-deduplicated (a tenant's jobs typically share
        // key/program blobs, priced once).
        if let Some(journal) = &shared.journal {
            let mut j = lock_journal(journal);
            let program_digest =
                j.append_blob_with_digest(&spec.program_blob, spec.program_blob.digest())?;
            let input_digest =
                j.append_blob_with_digest(&spec.input_blob, spec.input_blob.digest())?;
            let key_digest = j.append_blob_with_digest(&spec.key_blob, spec.key_blob.digest())?;
            j.append_admitted(
                id.0,
                &tenant.id,
                budget.map(|d| d.as_millis() as u64),
                program_digest,
                input_digest,
                key_digest,
            )?;
        }
        let job = QueuedJob {
            id,
            spec,
            control: control.clone(),
            tenant: Arc::clone(&tenant),
            resume_first: false,
        };
        {
            let mut queue = lock_queue(shared);
            if let Err((_, reason)) = queue.try_push(&tenant.id, job) {
                let qlen = queue.len();
                drop(queue);
                tenant.record_shed();
                let op = match reason {
                    ShedReason::GlobalFull => "submit",
                    ShedReason::TenantFull => "submit_tenant",
                };
                let err = FheError::Overloaded {
                    op,
                    retry_after_ms: retry_after_hint(qlen, shared.config.workers),
                };
                // Close the journal entry out so replay does not
                // resurrect a job the client was told was shed.
                if let Some(journal) = &shared.journal {
                    let _ = lock_journal(journal).append_failed(
                        id.0,
                        OutcomeCode::Overloaded.as_u16(),
                        &err.to_string(),
                    );
                }
                return Err(err);
            }
            // Counted before the queue lock is released: a worker can pop
            // the job only after that, so its decrement never runs first.
            shared.pending.fetch_add(1, Ordering::AcqRel);
        }
        shared.work_cv.notify_one();
        Ok(JobHandle { id, control })
    }

    /// Blocks until job `id` finishes and returns its outcome. Returns
    /// immediately if it already finished. Panics-free: an id this server
    /// never issued blocks forever, so callers pass handles they got from
    /// [`JobServer::submit`].
    pub fn wait(&self, id: JobId) -> JobOutcome {
        let mut outcomes = lock_outcomes(&self.shared);
        loop {
            if let Some(out) = outcomes.get(&id.0) {
                return out.clone();
            }
            outcomes = self
                .shared
                .done_cv
                .wait(outcomes)
                .expect("outcome map poisoned: a holder panicked mid-update");
        }
    }

    /// Blocks until every admitted job has an outcome.
    pub fn wait_idle(&self) {
        let mut outcomes = lock_outcomes(&self.shared);
        while self.shared.pending.load(Ordering::Acquire) > 0 {
            outcomes = self
                .shared
                .done_cv
                .wait(outcomes)
                .expect("outcome map poisoned: a holder panicked mid-update");
        }
        drop(outcomes);
    }

    /// The outcome of `id`, if it has finished.
    pub fn outcome(&self, id: JobId) -> Option<JobOutcome> {
        lock_outcomes(&self.shared).get(&id.0).cloned()
    }

    /// Jobs admitted but not yet finished.
    pub fn pending(&self) -> usize {
        self.shared.pending.load(Ordering::Acquire)
    }

    /// Jobs currently queued (admitted, not yet picked up).
    pub fn queued(&self) -> usize {
        lock_queue(&self.shared).len()
    }

    /// The accounting report for `tenant`, if registered.
    pub fn tenant_report(&self, tenant: &str) -> Option<TenantReport> {
        self.shared.registry.get(tenant).map(|t| t.report())
    }

    /// All registered tenant ids, sorted.
    pub fn tenants(&self) -> Vec<String> {
        self.shared.registry.ids()
    }

    /// Graceful shutdown: waits for every admitted job to finish, stops
    /// the workers and watchdog, flushes the journal, sweeps leftover
    /// per-job checkpoint directories, and returns all outcomes in
    /// submission order.
    pub fn shutdown(mut self) -> Vec<JobOutcome> {
        self.wait_idle();
        stop_threads(&self.shared, false);
        for handle in self.workers.drain(..) {
            // A worker that panicked outside the catch_unwind guard has
            // already lost its jobs; joining the poisoned handle must not
            // take the server down with it.
            let _ = handle.join();
        }
        if let Some(handle) = self.supervisor.take() {
            let _ = handle.join();
        }
        if let Some(journal) = &self.shared.journal {
            let _ = lock_journal(journal).sync();
        }
        // Every admitted job has an outcome, so every per-job checkpoint
        // dir is garbage (the per-completion sweep handles the common
        // case; this catches dirs left by a *previous* incarnation whose
        // jobs have since been journaled complete).
        for id in self.shared.registry.ids() {
            if let Some(tenant) = self.shared.registry.get(&id) {
                sweep_job_dirs(&tenant.checkpoint_root, None);
            }
        }
        let outcomes = lock_outcomes(&self.shared);
        let mut all: Vec<JobOutcome> = outcomes.values().cloned().collect();
        all.sort_by_key(|o| o.id);
        all
    }

    /// Simulated hard crash, for chaos tests: stops the server *without*
    /// draining the queue, publishing in-flight outcomes, journaling
    /// completions, or sweeping checkpoints — exactly the state a
    /// `kill -9` would leave on disk, minus the process exit. In-flight
    /// jobs are cancelled so their worker threads can be joined (a real
    /// crash would not wait even for that). Follow with
    /// [`JobServer::recover`] on the same checkpoint root.
    pub fn kill(mut self) {
        stop_threads(&self.shared, true);
        {
            let running = lock_running(&self.shared);
            for entry in running.values() {
                entry.control.cancel();
            }
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        if let Some(handle) = self.supervisor.take() {
            let _ = handle.join();
        }
        // The journal file is left exactly as-is: an unsynced tail may be
        // torn, which is the condition recover() is built to absorb.
    }
}

/// Raises the stop flags (`crashed` too for a simulated crash) and wakes
/// the parked workers and supervisor. Each waiter checks the flags under
/// its mutex before it parks, so they are raised and signalled under that
/// mutex: a thread between its check and its wait cannot miss the wakeup
/// and park forever.
fn stop_threads(shared: &Shared, crashed: bool) {
    {
        let _queue = lock_queue(shared);
        if crashed {
            shared.crashed.store(true, Ordering::Release);
        }
        shared.shutdown.store(true, Ordering::Release);
        shared.work_cv.notify_all();
    }
    let _parked = shared
        .supervisor_lock
        .lock()
        .expect("supervisor lock poisoned: a holder panicked mid-wait");
    shared.supervisor_cv.notify_all();
}

/// Publishes an outcome reconstructed at recovery (journal-replayed
/// terminal records and orphaned jobs). Pending is untouched: these jobs
/// are born terminal in this incarnation.
fn insert_recovered_outcome(
    shared: &Shared,
    id: u64,
    tenant: &str,
    code: OutcomeCode,
    output: Option<Vec<u8>>,
    detail: String,
) {
    let outcome = JobOutcome {
        id: JobId(id),
        tenant: tenant.to_string(),
        code,
        output,
        detail,
        recovery: RecoveryTelemetry::default(),
        ops: OpSnapshot::default(),
        retries: 0,
    };
    lock_outcomes(shared).insert(id, outcome);
}

fn retry_after_hint(queue_len: usize, workers: usize) -> u64 {
    // Deterministic pressure-proportional hint: one base unit per queued
    // job per worker. Clients treat it as a floor, not a promise.
    RETRY_AFTER_BASE_MS * (1 + queue_len as u64 / workers.max(1) as u64)
}

fn lock_queue(shared: &Shared) -> std::sync::MutexGuard<'_, AdmissionQueue<QueuedJob>> {
    shared
        .queue
        .lock()
        .expect("admission queue poisoned: a holder panicked mid-update")
}

fn lock_outcomes(shared: &Shared) -> std::sync::MutexGuard<'_, HashMap<u64, JobOutcome>> {
    shared
        .outcomes
        .lock()
        .expect("outcome map poisoned: a holder panicked mid-update")
}

fn lock_journal(journal: &Mutex<Journal>) -> std::sync::MutexGuard<'_, Journal> {
    journal
        .lock()
        .expect("journal poisoned: a holder panicked mid-append")
}

fn lock_running(shared: &Shared) -> std::sync::MutexGuard<'_, HashMap<u64, RunningJob>> {
    shared
        .running
        .lock()
        .expect("running set poisoned: a holder panicked mid-update")
}

/// Removes `job-<id>` checkpoint directories under `root`, keeping those
/// whose id is in `keep`. Returns how many were actually removed
/// ([`sweep_checkpoint_dir`] refuses dirs whose owner lock names a live
/// process).
fn sweep_job_dirs(root: &Path, keep: Option<&HashSet<u64>>) -> u64 {
    let Ok(entries) = std::fs::read_dir(root) else {
        return 0;
    };
    let mut swept = 0;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(id) = name
            .to_string_lossy()
            .strip_prefix("job-")
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        if keep.is_some_and(|live| live.contains(&id)) {
            continue;
        }
        let path = entry.path();
        if path.is_dir() && sweep_checkpoint_dir(&path) {
            swept += 1;
        }
    }
    swept
}

/// The watchdog: periodically scans running jobs' heartbeats and marks
/// any stale past the stall budget as stalled (aborting the run at its
/// next micro-op boundary; the server-level retry loop then re-dispatches
/// from the last durable checkpoint).
fn supervisor_loop(shared: &Shared) {
    let budget_ms = (shared.config.stall_budget.as_millis() as u64).max(1);
    let tick = Duration::from_millis((budget_ms / 4).clamp(5, 1_000));
    let mut guard = shared
        .supervisor_lock
        .lock()
        .expect("supervisor lock poisoned: a holder panicked mid-wait");
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        guard = shared
            .supervisor_cv
            .wait_timeout(guard, tick)
            .expect("supervisor lock poisoned: a holder panicked mid-wait")
            .0;
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let running = lock_running(shared);
        for entry in running.values() {
            let stale = entry.control.millis_since_heartbeat();
            if stale >= budget_ms && entry.control.mark_stalled(stale) {
                entry.tenant.record_stall();
            }
        }
    }
}

fn worker_loop(shared: &Shared, _widx: usize) {
    loop {
        let job = {
            let mut queue = lock_queue(shared);
            loop {
                // A simulated crash abandons the queue mid-flight; a
                // graceful shutdown only stops once the queue is drained.
                if shared.crashed.load(Ordering::Acquire) {
                    return;
                }
                if let Some((_, job)) = queue.pop_fair() {
                    break job;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                queue = shared
                    .work_cv
                    .wait(queue)
                    .expect("admission queue poisoned: a holder panicked mid-update");
            }
        };
        let id = job.id;
        let tenant = Arc::clone(&job.tenant);
        let ckpt_dir = tenant.checkpoint_root.join(format!("job-{}", id.0));
        if let Some(journal) = &shared.journal {
            // Best-effort: a failed dispatch append degrades recovery
            // precision (the job replays from pc 0), never correctness.
            let _ = lock_journal(journal).append_dispatched(id.0);
        }
        // First heartbeat *before* the watchdog can see the job: a job
        // that waited in the queue longer than the stall budget must not
        // be born stalled.
        job.control.beat();
        lock_running(shared).insert(
            id.0,
            RunningJob {
                control: job.control.clone(),
                tenant: Arc::clone(&tenant),
            },
        );
        let outcome = execute_job(shared, job);
        lock_running(shared).remove(&id.0);
        if shared.crashed.load(Ordering::Acquire) {
            // Simulated crash: in-memory results die with the process.
            // Nothing is journaled or published; recover() re-runs the
            // job from its durable checkpoint.
            return;
        }
        // Write-ahead ordering: the terminal record is durable before the
        // outcome becomes observable. A crash between the two re-runs the
        // job's outcome reconstruction at recovery, never loses it.
        if let Some(journal) = &shared.journal {
            let mut j = lock_journal(journal);
            let res = match (&outcome.code, &outcome.output) {
                (OutcomeCode::Ok, Some(output)) => j.append_completed(id.0, output),
                _ => j.append_failed(id.0, outcome.code.as_u16(), &outcome.detail),
            };
            let _ = res; // journal write failure must not strand the job
        }
        tenant.breaker_record(outcome.code);
        // The job is terminal; its checkpoints are garbage.
        let _ = sweep_checkpoint_dir(&ckpt_dir);
        let mut outcomes = lock_outcomes(shared);
        outcomes.insert(outcome.id.0, outcome);
        shared.pending.fetch_sub(1, Ordering::AcqRel);
        shared.done_cv.notify_all();
    }
}

/// Runs one job to a structured outcome. Nothing escapes: errors map to
/// outcome codes, and a panic in the FHE stack (which would otherwise
/// kill the worker and strand the queue) is contained as
/// [`OutcomeCode::Internal`].
fn execute_job(shared: &Shared, job: QueuedJob) -> JobOutcome {
    let tenant = Arc::clone(&job.tenant);
    let id = job.id;
    let ops_before = OpSnapshot::capture();
    let mut recovery = RecoveryTelemetry::default();
    let mut retries = 0u32;
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_attempts(shared, &job, &mut recovery, &mut retries)
    }))
    .unwrap_or_else(|_| {
        Err((
            OutcomeCode::Internal,
            "worker panicked while executing the job; contained".to_string(),
        ))
    });
    // The job's one op ledger: the counters are this worker thread's, and
    // its pool tasks' counts land here too, so the delta is this job's
    // alone however many workers run beside it.
    let ops = OpSnapshot::capture().delta_since(&ops_before);
    tenant.absorb(recovery, ops);
    match result {
        Ok(output) => {
            tenant.record_ok();
            JobOutcome {
                id,
                tenant: tenant.id.clone(),
                code: OutcomeCode::Ok,
                output: Some(output),
                detail: String::new(),
                recovery,
                ops,
                retries,
            }
        }
        Err((code, detail)) => {
            tenant.record_failed();
            JobOutcome {
                id,
                tenant: tenant.id.clone(),
                code,
                output: None,
                detail,
                recovery,
                ops,
                retries,
            }
        }
    }
}

type AttemptError = (OutcomeCode, String);

fn classify(err: &FheError) -> AttemptError {
    (OutcomeCode::from_error(err), err.to_string())
}

fn run_attempts(
    shared: &Shared,
    job: &QueuedJob,
    recovery: &mut RecoveryTelemetry,
    retries: &mut u32,
) -> Result<Vec<u8>, AttemptError> {
    let tenant = &job.tenant;
    let ctx = &*tenant.ctx;
    // The control is checked before any parsing: a job cancelled while
    // queued, or whose deadline elapsed waiting, spends no compute.
    job.control.check("dequeue").map_err(|e| classify(&e))?;

    let prepared = tenant
        .program(&job.spec.program_blob)
        .map_err(|e| classify(&e))?;
    if prepared.program().needs_bootstrapper() && tenant.booter.is_none() {
        return Err((
            OutcomeCode::Unsupported,
            "this tenant does not host a bootstrapper; bootstrap programs are not served"
                .to_string(),
        ));
    }
    let input = ctx
        .try_deserialize_ciphertext(&job.spec.input_blob)
        .map_err(|e| classify(&e))?;
    let keys = tenant
        .keys
        .get_or_load(ctx, &job.spec.key_blob)
        .map_err(|e| classify(&e))?;

    // Disjoint per-(tenant, job) directory: the CheckpointStore owner
    // lock never contends, each job's corruption blast radius is itself,
    // and a restarted server can resume exactly this job's checkpoints.
    let dir = tenant.checkpoint_root.join(format!("job-{}", job.id.0));
    let mut plan = job.spec.fault_plan.clone();

    let mut attempt = 0u32;
    loop {
        job.control.check("attempt").map_err(|e| classify(&e))?;
        let config = ExecutorConfig {
            checkpoint_every: shared.config.checkpoint_every,
            max_retries: shared.config.executor_retries,
            checkpoint_dir: (shared.config.checkpoint_every > 0).then(|| dir.clone()),
        };
        let mut exec =
            PipelineExecutor::new(ctx, &keys, config).map_err(|e| classify(&e))?;
        if let Some(booter) = tenant.booter.as_deref() {
            exec = exec.with_bootstrapper(booter);
        }
        exec.set_control(job.control.clone());
        if let Some(p) = plan.take() {
            exec.set_fault_plan(p);
        }
        let inputs = std::slice::from_ref(&input);
        let res = if attempt == 0 && !job.resume_first {
            exec.run_prepared(inputs, &prepared)
        } else {
            exec.resume_prepared(inputs, &prepared)
        };
        // Preserve the advanced fault stream across attempts; fired kill
        // points stay fired.
        plan = exec.take_fault_plan();
        recovery.merge(&exec.take_telemetry());
        drop(exec); // releases the checkpoint-dir owner lock

        let verdict: Option<AttemptError> = match res {
            Ok(RunOutcome::Completed(ct)) => return Ok(ctx.serialize_ciphertext(&ct)),
            Ok(RunOutcome::Crashed) => None, // always worth a resume
            Err(err) => {
                let classified = classify(&err);
                if !classified.0.retryable() {
                    return Err(classified);
                }
                Some(classified)
            }
        };
        let exhausted = |why: &str, last: Option<AttemptError>| {
            last.map_or_else(
                || {
                    (
                        OutcomeCode::RetryBudgetExhausted,
                        format!("crashed and {why} before converging"),
                    )
                },
                |(_, detail)| {
                    (
                        OutcomeCode::RetryBudgetExhausted,
                        format!("{why}; last error: {detail}"),
                    )
                },
            )
        };
        if attempt >= shared.config.max_job_retries {
            return Err(exhausted("hit the per-job retry cap", verdict));
        }
        if !tenant.try_spend_retry() {
            return Err(exhausted("exhausted the tenant retry budget", verdict));
        }
        *retries += 1;
        // Exponential backoff, attempt-indexed and bounded; the deadline
        // check at the top of the loop bounds the total wait.
        let backoff = shared.config.backoff_base_ms << attempt.min(6);
        if backoff > 0 {
            std::thread::sleep(Duration::from_millis(backoff));
        }
        // A watchdog stall verdict is consumed by this retry: the mark is
        // cleared (and the heartbeat refreshed) so the resumed attempt
        // starts with a clean slate instead of instantly re-aborting.
        job.control.clear_stall();
        attempt += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cl_boot::BootstrapKeys;
    use cl_ckks::{CkksParams, GuardrailPolicy, KeySwitchKind};
    use cl_runtime::{PipelineOp, Program};
    use rand::SeedableRng;

    fn strict_ctx(limb_bits: u32) -> CkksContext {
        let params = CkksParams::builder()
            .ring_degree(64)
            .levels(4)
            .special_limbs(4)
            .limb_bits(limb_bits)
            .scale_bits(40)
            .build()
            .unwrap();
        CkksContext::new(params)
            .unwrap()
            .with_policy(GuardrailPolicy::Strict {
                min_budget_bits: -60.0,
            })
    }

    fn tmp_root(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("cl-server-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    struct Fixture {
        ctx: Arc<CkksContext>,
        program: Program,
        program_blob: Vec<u8>,
        input_blob: Vec<u8>,
        key_blob: Vec<u8>,
        expected: Vec<u8>,
    }

    fn fixture(seed: u64) -> Fixture {
        fixture_with(
            seed,
            Program::new()
                .then(PipelineOp::Square)
                .then(PipelineOp::Rescale)
                .then(PipelineOp::Rotate(1)),
        )
    }

    /// A program with plaintext operands of every form, so a served run
    /// reads the prepared program's coefficient memo.
    fn plain_operand_program(offset: f64) -> Program {
        Program::new()
            .then(PipelineOp::Square)
            .then(PipelineOp::Rescale)
            .then(PipelineOp::AddPlain(vec![0.25 + offset, -0.5]))
            .then(PipelineOp::MulPlainRescale(vec![1.5, 0.5 - offset]))
            .then(PipelineOp::MulPlain(vec![2.0 * offset]))
            .then(PipelineOp::Rotate(1))
    }

    fn fixture_with(seed: u64, program: Program) -> Fixture {
        let ctx = Arc::new(strict_ctx(45));
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let sk = ctx.keygen_sparse(8, &mut rng);
        let keys = BootstrapKeys::generate(&ctx, &sk, KeySwitchKind::Standard, &[1], &mut rng);
        let pt = ctx.encode(&[0.5, -0.25, 0.125], ctx.default_scale(), ctx.max_level());
        let ct = ctx.encrypt(&pt, &sk, &mut rng);
        // Serial clean reference on a private executor.
        let mut exec = PipelineExecutor::new(
            &ctx,
            &keys,
            ExecutorConfig {
                checkpoint_every: 0,
                max_retries: 1,
                checkpoint_dir: None,
            },
        )
        .unwrap();
        let expected = match exec.run(&ct, &program).unwrap() {
            RunOutcome::Completed(out) => ctx.serialize_ciphertext(&out),
            other => panic!("reference run did not complete: {other:?}"),
        };
        Fixture {
            program_blob: program.serialize(ctx.params_fingerprint()),
            input_blob: ctx.serialize_ciphertext(&ct),
            key_blob: keys.serialize(&ctx),
            expected,
            ctx,
            program,
        }
    }

    /// Right after `start` every worker checks the stop flags and parks,
    /// so stopping a fresh server races each of them into its first wait.
    /// A stop signalled between a worker's check and its wait must still
    /// wake it, or `shutdown` / `kill` joins it forever; the time limit
    /// turns that hang into a failure.
    #[test]
    fn stopping_a_fresh_server_never_strands_a_worker() {
        // Enough rounds to hit the window most runs when it is open.
        const STOP_ROUNDS: usize = 4_000;
        let root = tmp_root("stop");
        let (done_tx, done) = std::sync::mpsc::channel();
        let dir = root.clone();
        std::thread::spawn(move || {
            for i in 0..STOP_ROUNDS {
                let server = JobServer::start(ServerConfig {
                    workers: 4,
                    checkpoint_root: dir.clone(),
                    ..ServerConfig::default()
                })
                .unwrap();
                if i % 2 == 0 {
                    assert!(server.shutdown().is_empty());
                } else {
                    server.kill();
                }
            }
            done_tx.send(()).unwrap();
        });
        assert!(
            done.recv_timeout(Duration::from_secs(120)).is_ok(),
            "stopping a fresh server hung (or failed) within {STOP_ROUNDS} rounds"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn submitted_job_completes_bit_identical_to_serial_run() {
        let fx = fixture(11);
        let root = tmp_root("e2e");
        let server = JobServer::start(ServerConfig {
            workers: 2,
            checkpoint_root: root.clone(),
            ..ServerConfig::default()
        })
        .unwrap();
        server.register_tenant("alice", Arc::clone(&fx.ctx)).unwrap();
        let handle = server
            .submit(JobSpec::new(
                "alice",
                fx.program_blob.clone(),
                fx.input_blob.clone(),
                fx.key_blob.clone(),
            ))
            .unwrap();
        let outcome = server.wait(handle.id);
        assert_eq!(outcome.code, OutcomeCode::Ok, "{}", outcome.detail);
        assert_eq!(outcome.output.as_deref(), Some(fx.expected.as_slice()));
        assert_eq!(
            outcome.recovery.ops_executed,
            fx.program.num_micro_ops() as u64
        );
        let report = server.tenant_report("alice").unwrap();
        assert_eq!(report.jobs_ok, 1);
        assert_eq!(report.jobs_failed, 0);
        assert_eq!(report.key_cache.misses, 1);
        let all = server.shutdown();
        assert_eq!(all.len(), 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn repeated_program_digest_is_parsed_once_and_served_bit_identically() {
        let fx = fixture_with(17, plain_operand_program(0.125));
        let root = tmp_root("program-hit");
        let server = JobServer::start(ServerConfig {
            checkpoint_root: root.clone(),
            ..ServerConfig::default()
        })
        .unwrap();
        server.register_tenant("alice", Arc::clone(&fx.ctx)).unwrap();
        for job in 0..3u64 {
            // A fresh allocation each time: the cache keys on content.
            let handle = server
                .submit(JobSpec::new(
                    "alice",
                    fx.program_blob.clone(),
                    fx.input_blob.clone(),
                    fx.key_blob.clone(),
                ))
                .unwrap();
            let outcome = server.wait(handle.id);
            assert_eq!(outcome.code, OutcomeCode::Ok, "{}", outcome.detail);
            assert_eq!(
                outcome.output.as_deref(),
                Some(fx.expected.as_slice()),
                "job {job} must match the direct run"
            );
        }
        let report = server.tenant_report("alice").unwrap();
        let s = report.program_cache;
        assert_eq!((s.hits, s.misses, s.evictions), (2, 1, 0), "{s:?}");
        assert!(s.bytes_resident > 0);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_program_blob_fails_as_before_and_is_never_cached() {
        let fx = fixture_with(19, plain_operand_program(0.25));
        let root = tmp_root("program-corrupt");
        let server = JobServer::start(ServerConfig {
            checkpoint_root: root.clone(),
            ..ServerConfig::default()
        })
        .unwrap();
        server.register_tenant("alice", Arc::clone(&fx.ctx)).unwrap();
        // A damaged checksum and a truncated body both pass the header
        // peek at admission and fail the worker's parse: the first as an
        // integrity failure, the second as malformed — twice each, since a
        // rejected blob is parsed again, never served from the cache.
        let mut flipped = fx.program_blob.clone();
        *flipped.last_mut().unwrap() ^= 0x01;
        let truncated = fx.program_blob[..fx.program_blob.len() - 9].to_vec();
        for (bad, code) in [
            (flipped, OutcomeCode::IntegrityFailure),
            (truncated, OutcomeCode::Malformed),
        ] {
            let parsed = Program::try_deserialize(&bad, fx.ctx.params_fingerprint());
            assert_eq!(OutcomeCode::from_error(&parsed.unwrap_err()), code);
            for _ in 0..2 {
                let handle = server
                    .submit(JobSpec::new(
                        "alice",
                        bad.clone(),
                        fx.input_blob.clone(),
                        fx.key_blob.clone(),
                    ))
                    .unwrap();
                let outcome = server.wait(handle.id);
                assert_eq!(outcome.code, code, "{}", outcome.detail);
                assert_eq!(outcome.retries, 0, "a parse failure is not retried");
            }
        }
        let report = server.tenant_report("alice").unwrap();
        assert_eq!(report.program_cache, cl_ckks::CacheStats::default());
        assert_eq!(report.jobs_failed, 4);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn zero_budget_program_cache_stays_bit_identical_under_eviction() {
        // Two tenants' worth of programs through one tenant whose program
        // cache holds a single entry: every lookup evicts the other one.
        let fixtures = [
            fixture_with(23, plain_operand_program(0.5)),
            fixture_with(23, plain_operand_program(-0.75)),
        ];
        let ctx = Arc::clone(&fixtures[0].ctx);
        let tenant = TenantState::new(
            "t0".into(),
            Arc::clone(&ctx),
            tmp_root("program-zero"),
            1 << 20,
            0,
            0,
        );
        let blobs = fixtures
            .each_ref()
            .map(|fx| Blob::new(fx.program_blob.clone()));
        for round in 0..3 {
            for (fx, blob) in fixtures.iter().zip(&blobs) {
                let prepared = tenant.program(blob).unwrap();
                let keys = tenant
                    .keys
                    .get_or_load(&ctx, &Blob::new(fx.key_blob.clone()))
                    .unwrap();
                let input = ctx.try_deserialize_ciphertext(&fx.input_blob).unwrap();
                let config = ExecutorConfig {
                    checkpoint_every: 0,
                    max_retries: 1,
                    checkpoint_dir: None,
                };
                let mut exec = PipelineExecutor::new(&ctx, &keys, config).unwrap();
                let out = match exec.run_prepared(std::slice::from_ref(&input), &prepared) {
                    Ok(RunOutcome::Completed(out)) => ctx.serialize_ciphertext(&out),
                    other => panic!("round {round}: run did not complete: {other:?}"),
                };
                assert_eq!(out, fx.expected, "round {round}");
            }
        }
        let s = tenant.report().program_cache;
        assert_eq!((s.hits, s.misses, s.evictions), (0, 6, 5), "{s:?}");
    }

    #[test]
    fn admission_rejects_unknown_tenants_and_foreign_blobs() {
        let fx = fixture(13);
        let root = tmp_root("admission");
        let server = JobServer::start(ServerConfig {
            checkpoint_root: root.clone(),
            ..ServerConfig::default()
        })
        .unwrap();
        server.register_tenant("alice", Arc::clone(&fx.ctx)).unwrap();

        let spec = JobSpec::new(
            "nobody",
            fx.program_blob.clone(),
            fx.input_blob.clone(),
            fx.key_blob.clone(),
        );
        assert!(matches!(
            server.submit(spec),
            Err(FheError::InvalidParams { .. })
        ));

        // A program written under another parameter set is refused at the
        // front door, before any payload parse.
        let foreign = fx.program.serialize(fx.ctx.params_fingerprint() ^ 1);
        let spec = JobSpec::new("alice", foreign, fx.input_blob.clone(), fx.key_blob.clone());
        assert!(matches!(
            server.submit(spec),
            Err(FheError::ParamsMismatch { .. })
        ));

        // A ciphertext blob in the program slot is a tag mismatch.
        let spec = JobSpec::new(
            "alice",
            fx.input_blob.clone(),
            fx.input_blob.clone(),
            fx.key_blob.clone(),
        );
        assert!(matches!(
            server.submit(spec),
            Err(FheError::Serialization { .. })
        ));

        assert!(server.shutdown().is_empty());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn tenant_registration_enforces_ids_and_uniqueness() {
        let root = tmp_root("register");
        let server = JobServer::start(ServerConfig {
            checkpoint_root: root.clone(),
            ..ServerConfig::default()
        })
        .unwrap();
        let strict = Arc::new(strict_ctx(45));
        server.register_tenant("t-1", Arc::clone(&strict)).unwrap();
        assert!(matches!(
            server.register_tenant("t-1", Arc::clone(&strict)),
            Err(FheError::InvalidParams { .. })
        ));
        assert!(matches!(
            server.register_tenant("../escape", Arc::clone(&strict)),
            Err(FheError::InvalidParams { .. })
        ));
        // Four levels cannot hold a bootstrap, so every bootstrap job would
        // fail at ModRaise: refused at registration and on recovery alike.
        let booter = Arc::new(Bootstrapper::new(&strict, 8));
        let refused = |r: FheResult<()>| {
            matches!(r, Err(FheError::InvalidParams { op: "bootstrap", reason })
                if reason.contains("cannot cover"))
        };
        let r = server.register_tenant_with_bootstrapper("t-2", strict.clone(), booter.clone());
        assert!(refused(r));
        assert_eq!(server.tenants(), vec!["t-1".to_string()]);
        server.shutdown();
        let config = ServerConfig { checkpoint_root: root.clone(), ..ServerConfig::default() };
        let setup = TenantSetup { id: "t-2".into(), ctx: strict, bootstrapper: Some(booter) };
        assert!(refused(JobServer::recover(config, &[setup]).map(|_| ())));
        let _ = std::fs::remove_dir_all(&root);
    }
}

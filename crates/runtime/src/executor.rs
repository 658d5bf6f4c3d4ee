//! The resilient pipeline executor: guarded ops, periodic durable
//! checkpoints, and restore-and-retry recovery with a bounded budget.
//!
//! A program runs in steps from one micro-op boundary to the next: one
//! micro-op, or one of the fused steps its [`PreparedProgram`] lists.
//!
//! - A *wave* ([`PreparedProgram::waves`]) runs as one step: each body
//!   from the wave-start state on its own copy of the slot map (payloads
//!   shared), side by side through `cl_rns::try_par_map` (inline at one
//!   thread, in program order), limb loops inside a body inline; then, in
//!   program order, each body's slot writes land, its accumulator becomes
//!   current and its tail runs. A body reads nothing an earlier segment of
//!   the wave writes, so the result is the op-by-op run's, bit for bit, at
//!   any thread count. On `lola_mlp_8k` a wave is one layer's giant
//!   groups, each body a group's inner sum and giant rotation.
//! - An *inner sum* ([`PreparedProgram::inner_sums`]), inside a body or
//!   on its own, runs as one step that accumulates a BSGS giant group's
//!   plaintext products in place into one private ciphertext
//!   ([`CkksContext::try_mul_plain_acc`]), as the bootstrap's transforms
//!   do, instead of building a product and a new sum per term. It keeps
//!   every check the op-by-op run makes on a value it builds — each baby's
//!   `Load` boundary validation and `mul_plain` guard, `add`'s guard on the
//!   running sum at every term, the published sum's boundary validation —
//!   and skips only those on values it never builds: the products and the
//!   interior copies of the sum.
//!
//! Inside a fused step every op's output is validated and the
//! [`RunControl`] is consulted at each op, and the step counts all its
//! micro-ops toward `ops_executed`. A fused step runs only where it may:
//! no fault plan attached, no checkpoint due strictly inside it, and not
//! entered mid-way by a resume; otherwise it runs op by op. A step that
//! fails with a control's verdict (cancelled, past the deadline, stalled)
//! returns it; any other failure discards the step and runs its range
//! again op by op, which reports the error, so errors, retries and
//! telemetry are the op-by-op run's in every field (the discarded step's
//! work still shows in the trace counters).
//!
//! `peak_live_cts` follows one function of the program, not the path a
//! run takes: at each boundary a run passes it records the live count of
//! the prepared program's schedule ([`crate::peak_live_cts`] is its
//! maximum, the figure the compiler predicts). Outside waves that is every
//! slot plus the accumulator; at a wave's interior boundaries it is the
//! wave's peak, with every body's accumulator and writes held. So a wave
//! run op by op reports the same figure, and the figure is the same at
//! any thread count.

use std::collections::BTreeMap;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cl_boot::{BootState, Bootstrapper, BootstrapKeys};
use cl_ckks::{Ciphertext, CkksContext, FheError, FheResult, Plaintext};
use cl_math::Complex;

use cl_ckks::faults::{FaultAction, FaultPlan};

use crate::checkpoint::{validate_boot_state, Checkpoint, CheckpointStore, WorkState};
use crate::prepared::{PreparedProgram, Wave};
use crate::program::{PipelineOp, Program};

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Checkpoint every N micro-ops (plus once at completion). `0`
    /// disables durable checkpoints; recovery then uses only the
    /// in-memory last-good state and [`PipelineExecutor::resume`] restarts
    /// from the input.
    pub checkpoint_every: u64,
    /// Total restore-and-retry attempts allowed per run before the
    /// executor gives up and surfaces the fault.
    pub max_retries: u32,
    /// Directory for checkpoint slot files. Required when
    /// `checkpoint_every > 0`.
    pub checkpoint_dir: Option<PathBuf>,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        Self {
            checkpoint_every: 4,
            max_retries: 8,
            checkpoint_dir: None,
        }
    }
}

/// A shared handle controlling one job's execution from outside: cancel it,
/// bound its wall time with a deadline, or (for a supervising watchdog)
/// observe its heartbeat and mark it stalled. The executor consults the
/// control at every micro-op boundary, so an abort lands within one op of
/// the request and never mid-kernel.
///
/// Cancellation, deadline expiry, and stall marks are *not* faults: they
/// bypass the restore-and-retry machinery and surface immediately as
/// [`FheError::Cancelled`] / [`FheError::DeadlineExceeded`] /
/// [`FheError::Stalled`]. Cloning shares the same underlying state (a
/// queue can hold one clone, the executor another, a watchdog a third).
#[derive(Debug, Clone, Default)]
pub struct RunControl {
    inner: Arc<ControlState>,
}

#[derive(Debug)]
struct ControlState {
    cancelled: AtomicBool,
    /// `(armed_at, budget)` — fixed when the control is created, so the
    /// deadline clock includes time spent queued, not just executing.
    deadline: Option<(Instant, Duration)>,
    /// Epoch for the heartbeat clock (control creation time).
    epoch: Instant,
    /// Milliseconds since `epoch` at the last [`RunControl::check`] — the
    /// liveness signal a watchdog compares against its stall budget.
    heartbeat_ms: AtomicU64,
    /// Set by a watchdog; the next boundary check aborts with
    /// [`FheError::Stalled`].
    stalled: AtomicBool,
    /// How stale the heartbeat was when the watchdog fired, for the error.
    stalled_for_ms: AtomicU64,
}

impl Default for ControlState {
    fn default() -> Self {
        Self {
            cancelled: AtomicBool::new(false),
            deadline: None,
            epoch: Instant::now(),
            heartbeat_ms: AtomicU64::new(0),
            stalled: AtomicBool::new(false),
            stalled_for_ms: AtomicU64::new(0),
        }
    }
}

impl RunControl {
    /// A control with no deadline.
    pub fn new() -> Self {
        Self::default()
    }

    /// A control whose job must finish within `budget` of *now*.
    pub fn with_deadline(budget: Duration) -> Self {
        Self {
            inner: Arc::new(ControlState {
                deadline: Some((Instant::now(), budget)),
                ..ControlState::default()
            }),
        }
    }

    /// Requests cancellation: the next micro-op boundary aborts the run.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
    }

    /// Records a liveness beat *now*. [`RunControl::check`] beats
    /// implicitly; long-running callers without a control loop can beat
    /// explicitly.
    pub fn beat(&self) {
        let now_ms = self.inner.epoch.elapsed().as_millis() as u64;
        self.inner.heartbeat_ms.store(now_ms, Ordering::Release);
    }

    /// Milliseconds since the last heartbeat — the staleness a watchdog
    /// compares against its stall budget. A control that never beat reads
    /// as stale since its creation, so a job wedged before its first
    /// micro-op is still caught.
    pub fn millis_since_heartbeat(&self) -> u64 {
        let now_ms = self.inner.epoch.elapsed().as_millis() as u64;
        now_ms.saturating_sub(self.inner.heartbeat_ms.load(Ordering::Acquire))
    }

    /// Marks the run stalled (watchdog verdict): the next micro-op
    /// boundary aborts with [`FheError::Stalled`]. Returns `true` only for
    /// the marking that actually flipped the flag, so a periodic
    /// supervisor counts each stall exactly once. Cooperative by design —
    /// a genuinely wedged kernel is only *observed* here; the abort lands
    /// when the run next reaches a boundary.
    pub fn mark_stalled(&self, stale_ms: u64) -> bool {
        let newly = self
            .inner
            .stalled
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok();
        if newly {
            self.inner.stalled_for_ms.store(stale_ms, Ordering::Release);
        }
        newly
    }

    /// Whether a watchdog has marked this run stalled.
    pub fn is_stalled(&self) -> bool {
        self.inner.stalled.load(Ordering::Acquire)
    }

    /// Clears a stall mark (and freshens the heartbeat) before a retry
    /// attempt resumes from the last durable checkpoint.
    pub fn clear_stall(&self) {
        self.inner.stalled.store(false, Ordering::Release);
        self.beat();
    }

    /// The abort check the executor runs at every micro-op boundary. Also
    /// freshens the heartbeat: reaching a boundary *is* the liveness
    /// signal.
    ///
    /// # Errors
    ///
    /// [`FheError::Cancelled`] after [`RunControl::cancel`];
    /// [`FheError::DeadlineExceeded`] once the wall clock passes the
    /// deadline; [`FheError::Stalled`] after [`RunControl::mark_stalled`].
    pub fn check(&self, op: &'static str) -> FheResult<()> {
        self.beat();
        if self.is_cancelled() {
            return Err(FheError::Cancelled { op });
        }
        if self.is_stalled() {
            return Err(FheError::Stalled {
                op,
                stalled_ms: self.inner.stalled_for_ms.load(Ordering::Acquire),
            });
        }
        if let Some((armed, budget)) = self.inner.deadline {
            let elapsed = armed.elapsed();
            if elapsed > budget {
                return Err(FheError::DeadlineExceeded {
                    op,
                    deadline_ms: budget.as_millis() as u64,
                    elapsed_ms: elapsed.as_millis() as u64,
                });
            }
        }
        Ok(())
    }
}

/// Counters describing what the recovery machinery did during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryTelemetry {
    /// Faults injected by the attached `cl_ckks::faults::FaultPlan` (0
    /// without one).
    pub faults_injected: u64,
    /// Faults *detected*: op failures the context's guardrails report, plus
    /// pre-checkpoint validation failures.
    pub faults_detected: u64,
    /// Restore-and-retry attempts consumed.
    pub retries: u64,
    /// Restores satisfied from a durable on-disk checkpoint (the rest
    /// fell back to the in-memory last-good state).
    pub restores: u64,
    /// Checkpoint records written to disk.
    pub checkpoints_written: u64,
    /// Total checkpoint bytes written to disk.
    pub bytes_written: u64,
    /// Simulated crashes (fault-plan kill points) honoured.
    pub crashes: u64,
    /// Micro-ops that executed successfully (including re-executions
    /// after a restore).
    pub ops_executed: u64,
    /// High-water mark of live ciphertexts over the micro-op boundaries
    /// the run passed, as the executor's schedule holds them: named slots
    /// plus the accumulator, and at a wave's interior boundaries the
    /// wave's peak. A run that passes every boundary reports
    /// [`crate::peak_live_cts`] of its program, which the compiler
    /// predicts.
    pub peak_live_cts: u64,
}

impl RecoveryTelemetry {
    /// Accumulates `other` into `self` — e.g. a job server summing the
    /// per-attempt telemetry of one job, or per-job telemetry into a
    /// per-tenant aggregate.
    pub fn merge(&mut self, other: &RecoveryTelemetry) {
        self.faults_injected += other.faults_injected;
        self.faults_detected += other.faults_detected;
        self.retries += other.retries;
        self.restores += other.restores;
        self.checkpoints_written += other.checkpoints_written;
        self.bytes_written += other.bytes_written;
        self.crashes += other.crashes;
        self.ops_executed += other.ops_executed;
        // A high-water mark aggregates by max, not sum.
        self.peak_live_cts = self.peak_live_cts.max(other.peak_live_cts);
    }
}

/// How a run ended (when it did not fail outright).
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// The program ran to completion; here is the final ciphertext.
    Completed(Ciphertext),
    /// A fault-plan kill point fired: the process "died", abandoning all
    /// in-memory state. Call [`PipelineExecutor::resume`] to pick the
    /// pipeline back up from the newest durable checkpoint.
    Crashed,
}

/// The accumulator at a micro-op boundary, held by reference count: the
/// in-memory form of [`WorkState`]. The driving loop, `last_good` and any
/// slot a `Store`/`Load` aliased it with all point at one payload; the
/// payload itself is never written after it is wrapped. (An inner-sum step
/// writes its sum in place before wrapping it, while nothing else holds
/// it.)
#[derive(Clone)]
enum Acc {
    Ct(Arc<Ciphertext>),
    Boot(Arc<BootState>),
}

/// The named-slot environment, sharing payloads with [`Acc`].
type Slots = BTreeMap<u16, Arc<Ciphertext>>;

/// One execution point: `(pc, accumulator, slots)`. Cloning it is a
/// handful of reference-count bumps, never a ciphertext copy.
type Boundary = (u64, Acc, Slots);

impl Acc {
    fn ct(ct: Ciphertext) -> Self {
        Acc::Ct(Arc::new(ct))
    }

    /// The ciphertext a fault injector corrupts. Copy-on-write: whoever
    /// else holds the payload (`last_good`, an aliasing slot) keeps the
    /// clean one, so an injected flip can only ever reach the state it was
    /// aimed at.
    fn primary_mut(&mut self) -> &mut Ciphertext {
        match self {
            Acc::Ct(ct) => Arc::make_mut(ct),
            Acc::Boot(state) => Arc::make_mut(state).ciphertexts_mut().swap_remove(0),
        }
    }

    /// Conformance-validates every ciphertext this state carries against
    /// the context (residue ranges, basis, NTT form). The executor runs
    /// this *before* persisting a checkpoint, so a corrupted state is
    /// never written as "good".
    fn validate(&self, ctx: &CkksContext) -> FheResult<()> {
        match self {
            Acc::Ct(ct) => ctx.validate_ciphertext("checkpoint", ct),
            Acc::Boot(state) => validate_boot_state(ctx, state),
        }
    }

    /// Deep copy into the owned form a [`Checkpoint`] carries.
    fn to_work_state(&self) -> WorkState {
        match self {
            Acc::Ct(ct) => WorkState::Ct(Ciphertext::clone(ct)),
            Acc::Boot(state) => WorkState::Boot(Box::new(BootState::clone(state))),
        }
    }
}

/// Whether `e` is a run control's verdict (cancelled, past the deadline,
/// stalled) rather than a fault: it ends the run, never retried.
fn is_verdict(e: &FheError) -> bool {
    matches!(
        e,
        FheError::Cancelled { .. } | FheError::DeadlineExceeded { .. } | FheError::Stalled { .. }
    )
}

/// Whether a loaded checkpoint's state is what the micro-op at its pc
/// expects: a plain ciphertext before an ordinary op, a bootstrap's first
/// stage or the program's end, and a bootstrap state that has taken
/// exactly `s` steps before a bootstrap's stage `s > 0`. A record that
/// does not fit (a pc past the end, or a bootstrap state written under
/// another stage layout) would fail every retry, so the load skips it as
/// damaged.
fn fits(prepared: &PreparedProgram<'_>, cp: &Checkpoint) -> bool {
    let stage = match prepared.schedule().get(cp.pc as usize) {
        Some(&(op, stage)) => match prepared.program().ops()[op] {
            PipelineOp::Bootstrap => stage,
            _ => 0,
        },
        None if cp.pc == prepared.schedule().len() as u64 => 0,
        None => return false,
    };
    match &cp.state {
        WorkState::Ct(_) => stage == 0,
        WorkState::Boot(state) => stage > 0 && state.steps_taken() == stage,
    }
}

/// Takes ownership of a loaded record's payloads (no copy).
fn boundary_of(cp: Checkpoint) -> Boundary {
    let acc = match cp.state {
        WorkState::Ct(ct) => Acc::ct(ct),
        WorkState::Boot(state) => Acc::Boot(Arc::from(state)),
    };
    let slots = cp.slots.into_iter().map(|(id, ct)| (id, Arc::new(ct))).collect();
    (cp.pc, acc, slots)
}

/// Runs a declared [`Program`] under its context's guardrails,
/// checkpointing to disk and recovering from detected faults by restoring
/// the last good state and re-executing (deterministic ops make the retry
/// converge bit-identically).
pub struct PipelineExecutor<'a> {
    ctx: &'a CkksContext,
    keys: &'a BootstrapKeys,
    booter: Option<&'a Bootstrapper>,
    config: ExecutorConfig,
    store: Option<CheckpointStore>,
    telemetry: RecoveryTelemetry,
    control: Option<RunControl>,
    /// Digest of the `(program, input)` pair currently driving; written
    /// into every checkpoint and required back at load, so a reused
    /// checkpoint directory can never resume another job's state.
    binding: u64,
    plan: Option<FaultPlan>,
}

impl<'a> PipelineExecutor<'a> {
    /// Creates an executor for `ctx` using the key bundle `keys`.
    ///
    /// # Errors
    ///
    /// [`FheError::InvalidParams`] when durable checkpointing is requested
    /// without a directory. [`FheError::Serialization`] when the checkpoint
    /// directory cannot be created.
    pub fn new(
        ctx: &'a CkksContext,
        keys: &'a BootstrapKeys,
        config: ExecutorConfig,
    ) -> FheResult<Self> {
        let store = match (&config.checkpoint_dir, config.checkpoint_every) {
            (_, 0) => None,
            (Some(dir), _) => Some(CheckpointStore::open(dir)?),
            (None, _) => {
                return Err(FheError::InvalidParams {
                    op: "executor",
                    reason: "checkpoint_every > 0 requires a checkpoint_dir".into(),
                })
            }
        };
        Ok(Self {
            ctx,
            keys,
            booter: None,
            config,
            store,
            telemetry: RecoveryTelemetry::default(),
            control: None,
            binding: 0,
            plan: None,
        })
    }

    /// Attaches an external control handle (cancellation + deadline),
    /// consulted at every micro-op boundary. A job server hands one clone
    /// to the executor and keeps another to cancel the job from outside.
    pub fn set_control(&mut self, control: RunControl) {
        self.control = Some(control);
    }

    /// Attaches the bootstrapper required for programs containing
    /// [`PipelineOp::Bootstrap`].
    #[must_use]
    pub fn with_bootstrapper(mut self, booter: &'a Bootstrapper) -> Self {
        self.booter = Some(booter);
        self
    }

    /// Attaches a seeded fault plan. The plan is consulted before every
    /// micro-op and survives a simulated crash, so the fault stream is one
    /// continuous deterministic sequence across run + resume.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.plan = Some(plan);
    }

    /// Detaches the fault plan, preserving its advanced op counter. A
    /// server retrying a job on a fresh executor re-attaches the returned
    /// plan so the fault stream stays one continuous deterministic
    /// sequence across attempts (fired kill points do not re-fire).
    pub fn take_fault_plan(&mut self) -> Option<FaultPlan> {
        self.plan.take()
    }

    /// Recovery counters accumulated so far (across run *and* resume).
    pub fn telemetry(&self) -> RecoveryTelemetry {
        self.telemetry
    }

    /// Returns the accumulated telemetry and resets the counters — the
    /// handover point when one executor is reused across jobs (the open
    /// checkpoint store, its directory lock, and the attached key material
    /// all stay warm; only the per-job accounting restarts).
    pub fn take_telemetry(&mut self) -> RecoveryTelemetry {
        std::mem::take(&mut self.telemetry)
    }

    /// Runs `program` on `input` from the start.
    ///
    /// # Errors
    ///
    /// [`FheError::InvalidParams`] for a program needing a bootstrapper
    /// when none is attached; otherwise the fault that exhausted the retry
    /// budget, or a checkpoint I/O failure.
    pub fn run(&mut self, input: &Ciphertext, program: &Program) -> FheResult<RunOutcome> {
        self.run_graph(std::slice::from_ref(input), program)
    }

    /// Runs a (possibly multi-input) dataflow program from the start.
    /// `inputs[0]` seeds the accumulator; [`PipelineOp::Input`] ops fetch
    /// the others by index.
    ///
    /// # Errors
    ///
    /// Same contract as [`PipelineExecutor::run`], plus
    /// [`FheError::InvalidParams`] for an empty input slice.
    pub fn run_graph(&mut self, inputs: &[Ciphertext], program: &Program) -> FheResult<RunOutcome> {
        self.run_prepared(
            inputs,
            &PreparedProgram::borrowed_with_memo(self.ctx, program, 0),
        )
    }

    /// [`PipelineExecutor::run_graph`] of a program prepared once for many
    /// runs: its schedule is reused and its memoized plaintext operands
    /// are rounded only on the first run that reaches them at a scale. The output is
    /// bit-identical to an unprepared run.
    ///
    /// # Errors
    ///
    /// Same contract as [`PipelineExecutor::run_graph`], plus
    /// [`FheError::InvalidParams`] for a program prepared for another ring
    /// degree.
    pub fn run_prepared(
        &mut self,
        inputs: &[Ciphertext],
        prepared: &PreparedProgram<'_>,
    ) -> FheResult<RunOutcome> {
        let first = self.check_graph(inputs, prepared)?;
        self.binding = self.job_binding(inputs, prepared.program());
        self.drive((0, Acc::ct(first.clone()), Slots::new()), prepared, inputs)
    }

    /// Resumes `program` after a crash: reloads the newest valid durable
    /// checkpoint and continues from its program counter, restarting from
    /// `input` when no usable checkpoint exists. Slots rejected by the
    /// integrity checks are counted as detected faults.
    ///
    /// # Errors
    ///
    /// Same contract as [`PipelineExecutor::run`].
    pub fn resume(&mut self, input: &Ciphertext, program: &Program) -> FheResult<RunOutcome> {
        self.resume_prepared(
            std::slice::from_ref(input),
            &PreparedProgram::borrowed_with_memo(self.ctx, program, 0),
        )
    }

    /// [`PipelineExecutor::resume`] of a prepared, possibly multi-input
    /// program (see [`PipelineExecutor::run_prepared`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`PipelineExecutor::run_prepared`].
    pub fn resume_prepared(
        &mut self,
        inputs: &[Ciphertext],
        prepared: &PreparedProgram<'_>,
    ) -> FheResult<RunOutcome> {
        let first = self.check_graph(inputs, prepared)?;
        self.binding = self.job_binding(inputs, prepared.program());
        let fresh = || (0, Acc::ct(first.clone()), Slots::new());
        let start = match &mut self.store {
            Some(store) => match store.load_latest(self.ctx, self.binding, |cp| fits(prepared, cp))
            {
                Ok((found, rejects)) => {
                    self.telemetry.faults_detected += rejects;
                    match found {
                        Some(cp) => {
                            self.telemetry.restores += 1;
                            boundary_of(cp)
                        }
                        None => fresh(),
                    }
                }
                // Every slot on disk is damaged: surface it as a detected
                // fault and restart from the input.
                Err(_) => {
                    self.telemetry.faults_detected += 1;
                    fresh()
                }
            },
            None => fresh(),
        };
        self.drive(start, prepared, inputs)
    }

    /// Content digest binding checkpoints to this exact `(program,
    /// input)` pair. Derived from the serialized forms (which carry the
    /// params fingerprint), so it is stable across processes — a genuine
    /// crash/restart of the same job still resumes its own checkpoints.
    /// Only the store ever reads it, so without one (`checkpoint_every =
    /// 0`) nothing is serialized or hashed.
    fn job_binding(&self, inputs: &[Ciphertext], program: &Program) -> u64 {
        use cl_ckks::serialize::{fnv1a_chain, fnv1a_fast};
        if self.store.is_none() {
            return 0;
        }
        // fnv1a_fast: this digest is internal to the store, not part of
        // the wire format, so it can take the word-wise fast path over the
        // megabyte-scale ciphertext blobs.
        let mut h = 0u64;
        for input in inputs {
            h = h.wrapping_mul(0x100000001b3).wrapping_add(fnv1a_fast(
                &self.ctx.serialize_ciphertext(input),
            ));
        }
        fnv1a_chain(h, &program.serialize(self.ctx.params_fingerprint()))
    }

    /// Shared admission checks for graph runs; returns the accumulator
    /// seed (`inputs[0]`).
    fn check_graph<'i>(
        &self,
        inputs: &'i [Ciphertext],
        prepared: &PreparedProgram<'_>,
    ) -> FheResult<&'i Ciphertext> {
        let n = self.ctx.params().ring_degree();
        if prepared.ring_degree() != n {
            return Err(FheError::InvalidParams {
                op: "executor",
                reason: format!(
                    "program prepared for ring degree {}, context has {n}",
                    prepared.ring_degree()
                ),
            });
        }
        if prepared.program().needs_bootstrapper() && self.booter.is_none() {
            return Err(FheError::InvalidParams {
                op: "executor",
                reason: "program contains a bootstrap but no Bootstrapper is attached".into(),
            });
        }
        inputs.first().ok_or_else(|| FheError::InvalidParams {
            op: "executor",
            reason: "a run needs at least one input ciphertext".into(),
        })
    }

    /// The main loop: execute micro-ops from `pc`, checkpointing on the
    /// configured cadence and recovering detected faults by restoring the
    /// last good state (preferring the durable copy) and re-executing.
    fn drive(
        &mut self,
        start: Boundary,
        prepared: &PreparedProgram<'_>,
        inputs: &[Ciphertext],
    ) -> FheResult<RunOutcome> {
        let schedule = prepared.schedule();
        let end = schedule.len() as u64;
        // A loaded checkpoint's pc and state were checked to fit the
        // schedule (`fits`).
        let (mut pc, mut state, mut slots) = start;
        // The boundary to fall back to shares its payloads with the live
        // state; an op never writes a payload in place (it wraps a fresh
        // output, or moves references; an inner-sum step writes only its
        // private sum, which nothing else holds until the step publishes
        // it), so holding a reference *is* the snapshot.
        let mut last_good: Boundary = (pc, state.clone(), slots.clone());
        let mut retries_left = self.config.max_retries;
        // Steps starting before this pc run op by op: a wave or inner sum
        // whose step failed is run again that way, so the error is the
        // op-by-op one.
        let mut op_by_op_until = 0u64;
        self.note_peak(prepared.live_peak(pc, pc));

        while pc < end {
            // Abort requests are checked first, before any fault injection
            // or execution: cancellation and deadline expiry are verdicts,
            // not faults, so they return directly instead of burning the
            // retry budget.
            if let Some(control) = &self.control {
                control.check("pipeline")?;
            }

            if let Some(plan) = self.plan.as_mut() {
                let action = plan.on_op(state.primary_mut());
                self.telemetry.faults_injected = plan.injected();
                if matches!(action, FaultAction::Kill) {
                    // Simulated process death: everything in memory is
                    // gone; only the durable slots survive for resume().
                    self.telemetry.crashes += 1;
                    return Ok(RunOutcome::Crashed);
                }
            }

            let fused =
                self.try_fused(prepared, pc, &state, &slots, inputs, &mut op_by_op_until)?;
            let step = match fused {
                Some((next, next_slots, ran)) => {
                    slots = next_slots;
                    Ok((next, ran))
                }
                None => {
                    let (op_idx, stage) = schedule[pc as usize];
                    self.exec_micro(prepared, op_idx, stage, &state, &mut slots, inputs)
                        // A successful op can still hand a corrupted state
                        // to the *next* op; validating here bounds detection
                        // latency to one micro-op and keeps checkpoints
                        // clean.
                        .and_then(|next| {
                            next.validate(self.ctx)?;
                            Ok((next, 1))
                        })
                }
            };
            match step {
                Ok((next, ran)) => {
                    state = next;
                    self.note_peak(prepared.live_peak(pc + 1, pc + ran));
                    pc += ran;
                    self.telemetry.ops_executed += ran;
                    let due = self.config.checkpoint_every > 0
                        && (pc.is_multiple_of(self.config.checkpoint_every) || pc == end);
                    if due {
                        self.persist(pc, &state, &slots)?;
                    }
                    last_good = (pc, state.clone(), slots.clone());
                }
                Err(fault) => {
                    // Abort verdicts escaping through an op are terminal,
                    // never retried locally (a stall mark persists until
                    // the *owner* clears it, so retrying here would spin).
                    if is_verdict(&fault) {
                        return Err(fault);
                    }
                    self.telemetry.faults_detected += 1;
                    if retries_left == 0 {
                        return Err(fault);
                    }
                    retries_left -= 1;
                    self.telemetry.retries += 1;
                    (pc, state, slots) = self.restore(&last_good, prepared);
                }
            }
        }
        // Release every other holder so the result is normally unwrapped,
        // not copied (a program ending on `Store` still aliases a slot).
        drop((last_good, slots));
        match state {
            Acc::Ct(ct) => Ok(RunOutcome::Completed(
                Arc::try_unwrap(ct).unwrap_or_else(|shared| Ciphertext::clone(&shared)),
            )),
            Acc::Boot(_) => Err(FheError::InvalidParams {
                op: "executor",
                reason: "program ended mid-bootstrap".into(),
            }),
        }
    }

    fn note_peak(&mut self, live: u64) {
        self.telemetry.peak_live_cts = self.telemetry.peak_live_cts.max(live);
    }

    /// Runs the wave or, failing that, the inner sum starting at `pc` as
    /// one step ([`PipelineExecutor::exec_wave`],
    /// [`PipelineExecutor::exec_inner_sum`]) when it may: no fault plan is
    /// attached, no checkpoint falls due at one of its interior boundaries,
    /// and it starts at or after `op_by_op_until`. On success returns the
    /// accumulator and slots it leaves and the micro-ops it ran, with the
    /// accumulator validated as any step's output is. On any failure but
    /// a verdict (cancelled, past the deadline, stalled), which it returns,
    /// it leaves the state untouched, marks the range to run op by op and
    /// returns `None`, as for a pc that starts neither.
    fn try_fused(
        &mut self,
        prepared: &PreparedProgram<'_>,
        pc: u64,
        state: &Acc,
        slots: &Slots,
        inputs: &[Ciphertext],
        op_by_op_until: &mut u64,
    ) -> FheResult<Option<(Acc, Slots, u64)>> {
        if self.plan.is_some() || pc < *op_by_op_until {
            return Ok(None);
        }
        // A range with a checkpoint due strictly inside runs op by op; a
        // wave's first inner sum may still fit.
        let every = self.config.checkpoint_every;
        let fits = |r: &Range<u64>| every == 0 || (r.start / every + 1) * every >= r.end;
        let wave = prepared.wave_at(pc).filter(|w| fits(&w.range()));
        let range = match (wave, prepared.inner_sum_at(pc).filter(|r| fits(r))) {
            (Some(wave), _) => wave.range(),
            (None, Some(sum)) => sum.clone(),
            (None, None) => return Ok(None),
        };
        let step = match wave {
            Some(wave) => self.exec_wave(prepared, wave, state, slots, inputs),
            None => self.exec_inner_sum(prepared, range.clone(), state, slots),
        }
        .and_then(|(next, slots)| {
            next.validate(self.ctx)?;
            Ok((next, slots))
        });
        match step {
            Ok((next, slots)) => Ok(Some((next, slots, range.end - range.start))),
            Err(verdict) if is_verdict(&verdict) => Err(verdict),
            Err(_) => {
                *op_by_op_until = range.end;
                Ok(None)
            }
        }
    }

    /// Executes `wave` ([`PreparedProgram::waves`]) as one step: each body
    /// from the wave-start state on its own copy of the slots (payloads
    /// shared), side by side through the worker pool; then, in program
    /// order, each body's slot writes land on the wave's slots, its
    /// accumulator becomes current and its tail runs. The first error in
    /// program order among the bodies, else the first among the tails, is
    /// returned, and the caller runs the wave again op by op.
    fn exec_wave(
        &self,
        prepared: &PreparedProgram<'_>,
        wave: &Wave,
        state: &Acc,
        slots: &Slots,
        inputs: &[Ciphertext],
    ) -> FheResult<(Acc, Slots)> {
        let segments = wave.segments();
        let bodies = cl_rns::try_par_map(segments.len(), |i| -> FheResult<(Acc, Slots)> {
            let mut own = slots.clone();
            let acc =
                self.exec_range(prepared, segments[i].body.clone(), state, &mut own, inputs)?;
            Ok((acc, own))
        })?;
        let mut slots = slots.clone();
        let mut state = state.clone();
        for (segment, (acc, own)) in segments.iter().zip(bodies) {
            for s in &segment.writes {
                match own.get(s) {
                    Some(ct) => slots.insert(*s, Arc::clone(ct)),
                    None => slots.remove(s),
                };
            }
            state = self.exec_range(prepared, segment.tail.clone(), &acc, &mut slots, inputs)?;
        }
        Ok((state, slots))
    }

    /// Runs the micro-ops `range` from `state` on `slots`, consulting the
    /// run control before each: each inner sum that lies inside the range
    /// as one step, every other micro-op as the op-by-op run does, each
    /// output validated. Returns the accumulator it leaves.
    fn exec_range(
        &self,
        prepared: &PreparedProgram<'_>,
        range: Range<u64>,
        state: &Acc,
        slots: &mut Slots,
        inputs: &[Ciphertext],
    ) -> FheResult<Acc> {
        let mut state = state.clone();
        let mut pc = range.start;
        while pc < range.end {
            if let Some(control) = &self.control {
                control.check("pipeline")?;
            }
            match prepared.inner_sum_at(pc).filter(|sum| sum.end <= range.end) {
                Some(sum) => {
                    (state, *slots) = self.exec_inner_sum(prepared, sum.clone(), &state, slots)?;
                    pc = sum.end;
                }
                None => {
                    let (op_idx, stage) = prepared.schedule()[pc as usize];
                    state = self.exec_micro(prepared, op_idx, stage, &state, slots, inputs)?;
                    pc += 1;
                }
            }
            state.validate(self.ctx)?;
        }
        Ok(state)
    }

    /// Executes the inner sum at `range` of the schedule as one step:
    /// checks each baby as its `Load` boundary does, builds the head
    /// product, accumulates every later term into it in place in program
    /// order ([`CkksContext::try_mul_plain_acc`], the product as `add`'s
    /// left operand, as `AddSlot` runs), and applies the slot ops. The
    /// running sum stays private: a slot that holds it between terms is
    /// tracked by id, and only the sum the step publishes is wrapped (and
    /// stored, when the last term parks it). Returns the new accumulator
    /// and the new slots; each interior boundary consults the run control.
    fn exec_inner_sum(
        &self,
        prepared: &PreparedProgram<'_>,
        range: Range<u64>,
        state: &Acc,
        slots: &Slots,
    ) -> FheResult<(Acc, Slots)> {
        let Acc::Ct(outer) = state else {
            return Err(FheError::InvalidParams {
                op: "executor",
                reason: "inner sum reached mid-bootstrap".into(),
            });
        };
        let ops = prepared.program().ops();
        let mut slots = slots.clone();
        // The accumulator while it is not the sum: the outer value, then
        // each loaded baby.
        let mut operand = Arc::clone(outer);
        let mut sum: Option<Ciphertext> = None;
        let mut sum_slot: Option<u16> = None;
        let mut term: Option<Plaintext> = None;
        for pc in range.clone() {
            let op_idx = prepared.schedule()[pc as usize].0;
            match (&ops[op_idx], sum.as_mut()) {
                (PipelineOp::Load(b), _) => {
                    operand = Arc::clone(Self::slot_get(&slots, *b, "load")?);
                    self.ctx.validate_ciphertext("checkpoint", &operand)?;
                }
                (PipelineOp::MulPlain(vals), running) => {
                    let p =
                        self.mul_plain_operand(prepared, op_idx, vals, &operand, "mul_plain")?;
                    match running {
                        None => sum = Some(self.ctx.try_mul_plain(&operand, &p)?),
                        Some(_) => term = Some(p),
                    }
                }
                (PipelineOp::AddSlot(s), Some(running)) if sum_slot == Some(*s) => {
                    let p = term.take().ok_or_else(|| Self::off_pattern("add_slot"))?;
                    self.ctx.try_mul_plain_acc(running, &operand, &p)?;
                }
                (PipelineOp::Free(s), _) if sum_slot == Some(*s) => sum_slot = None,
                (PipelineOp::Free(b), _) => {
                    slots.remove(b).ok_or_else(|| Self::off_pattern("free"))?;
                }
                (PipelineOp::Store(s), Some(_)) => {
                    slots.remove(s);
                    sum_slot = Some(*s);
                }
                (op, _) => return Err(Self::off_pattern(op.name())),
            }
            if pc + 1 < range.end {
                if let Some(control) = &self.control {
                    control.check("pipeline")?;
                }
            }
        }
        let sum = Arc::new(sum.ok_or_else(|| Self::off_pattern("inner sum"))?);
        if let Some(s) = sum_slot {
            slots.insert(s, Arc::clone(&sum));
        }
        Ok((Acc::Ct(sum), slots))
    }

    /// An op the inner-sum pattern does not allow where it stands. Never
    /// surfaces: a failed step is run again op by op, which reports the
    /// op-by-op error.
    fn off_pattern(op: &str) -> FheError {
        FheError::InvalidParams {
            op: "executor",
            reason: format!("{op} out of place in an inner sum"),
        }
    }

    /// Restores the last good execution point, preferring the durable
    /// on-disk copy when it is at least as fresh (this exercises the full
    /// load path — fingerprint and checksum verification — on every
    /// recovery), falling back to the in-memory boundary.
    fn restore(&mut self, last_good: &Boundary, prepared: &PreparedProgram<'_>) -> Boundary {
        if let Some(store) = &mut self.store {
            if let Ok((Some(cp), _)) =
                store.load_latest(self.ctx, self.binding, |cp| fits(prepared, cp))
            {
                if cp.pc >= last_good.0 {
                    self.telemetry.restores += 1;
                    return boundary_of(cp);
                }
            }
        }
        last_good.clone()
    }

    /// Validates and durably writes a checkpoint. A state that fails
    /// validation is *not* written (the previous slots stay intact) —
    /// the caller sees the validation error through the normal fault path.
    /// The one boundary where payload bytes must exist on their own: the
    /// record owns deep copies of everything live.
    fn persist(&mut self, pc: u64, state: &Acc, slots: &Slots) -> FheResult<()> {
        let store = self
            .store
            .as_mut()
            .expect("persist is only called when checkpointing is configured");
        let bytes = store.write(
            self.ctx,
            &Checkpoint {
                pc,
                binding: self.binding,
                state: state.to_work_state(),
                // BTreeMap iteration is id-sorted — the strictly
                // increasing order the record format requires.
                slots: slots
                    .iter()
                    .map(|(id, ct)| (*id, Ciphertext::clone(ct)))
                    .collect(),
            },
        )?;
        self.telemetry.checkpoints_written += 1;
        self.telemetry.bytes_written += bytes;
        Ok(())
    }

    /// Executes one micro-op. Dataflow ops read/write the named-slot
    /// environment `slots` and the immutable `inputs`; on failure the
    /// caller restores `slots` wholesale from the last good boundary, so
    /// partial mutations never leak into a retry.
    fn exec_micro(
        &self,
        prepared: &PreparedProgram<'_>,
        op_idx: usize,
        stage: usize,
        state: &Acc,
        slots: &mut Slots,
        inputs: &[Ciphertext],
    ) -> FheResult<Acc> {
        let op = &prepared.program().ops()[op_idx];
        // Bootstrap stages operate on (and may produce) a BootState; every
        // other op needs a plain ciphertext.
        if let PipelineOp::Bootstrap = op {
            let booter = self.booter.ok_or(FheError::InvalidParams {
                op: "executor",
                reason: "bootstrap stage without a Bootstrapper".into(),
            })?;
            // `try_step` consumes its stage by value while `last_good`
            // keeps the boundary alive for a retry: the hand-off copies.
            let boot_state = match (stage, state) {
                (0, Acc::Ct(ct)) => BootState::Start {
                    ct: Ciphertext::clone(ct),
                },
                (_, Acc::Boot(s)) => BootState::clone(s),
                (s, Acc::Ct(_)) => {
                    return Err(FheError::InvalidParams {
                        op: "executor",
                        reason: format!("bootstrap stage {s} reached with a plain ciphertext"),
                    })
                }
            };
            let next = booter.try_step(self.ctx, boot_state, self.keys)?;
            return Ok(match next {
                BootState::Done { ct } => Acc::ct(ct),
                mid => Acc::Boot(Arc::new(mid)),
            });
        }

        let ct: &Arc<Ciphertext> = match state {
            Acc::Ct(ct) => ct,
            Acc::Boot(_) => {
                return Err(FheError::InvalidParams {
                    op: "executor",
                    reason: format!("op {} reached mid-bootstrap", op.name()),
                })
            }
        };
        // Arms that only move references return early; compute arms fall
        // through with a fresh output, wrapped once at the end.
        let shared = |ct: &Arc<Ciphertext>| Ok(Acc::Ct(Arc::clone(ct)));
        let out = match op {
            PipelineOp::Square => self
                .ctx
                .try_square(ct, self.keys.try_relin(self.ctx)?.as_ref())?,
            PipelineOp::Rescale => self.ctx.try_rescale(ct)?,
            PipelineOp::AddPlain(vals) => {
                let p = self.plaintext(prepared, op_idx, vals, ct.scale(), ct.level());
                self.ctx.try_add_plain(ct, &p)?
            }
            PipelineOp::MulPlainRescale(vals) => {
                let p = self.mul_plain_operand(prepared, op_idx, vals, ct, "mul_plain_rescale")?;
                let prod = self.ctx.try_mul_plain(ct, &p)?;
                self.ctx.try_rescale(&prod)?
            }
            PipelineOp::Rotate(steps) => {
                let key = self.keys.try_rot_key(self.ctx, *steps)?;
                self.ctx.try_rotate(ct, *steps, key.as_ref())?
            }
            PipelineOp::Conjugate => self
                .ctx
                .try_conjugate(ct, self.keys.try_conj(self.ctx)?.as_ref())?,
            PipelineOp::Load(slot) => return shared(Self::slot_get(slots, *slot, "load")?),
            PipelineOp::Store(slot) => {
                slots.insert(*slot, Arc::clone(ct));
                return shared(ct);
            }
            PipelineOp::Free(slot) => {
                if slots.remove(slot).is_none() {
                    return Err(FheError::InvalidParams {
                        op: "executor",
                        reason: format!("free of empty slot {slot}"),
                    });
                }
                return shared(ct);
            }
            PipelineOp::Input(idx) => {
                inputs
                    .get(usize::from(*idx))
                    .ok_or_else(|| FheError::InvalidParams {
                        op: "executor",
                        reason: format!(
                            "program reads input {idx} but only {} inputs were bound",
                            inputs.len()
                        ),
                    })?
                    .clone()
            }
            PipelineOp::AddSlot(slot) => {
                self.ctx.try_add(ct, Self::slot_get(slots, *slot, "add_slot")?)?
            }
            PipelineOp::SubSlot(slot) => {
                self.ctx.try_sub(ct, Self::slot_get(slots, *slot, "sub_slot")?)?
            }
            PipelineOp::MulCtSlot(slot) => {
                let rhs = Self::slot_get(slots, *slot, "mul_ct_slot")?;
                self.ctx
                    .try_mul(ct, rhs, self.keys.try_relin(self.ctx)?.as_ref())?
            }
            PipelineOp::MulPlain(vals) => {
                let p = self.mul_plain_operand(prepared, op_idx, vals, ct, "mul_plain")?;
                self.ctx.try_mul_plain(ct, &p)?
            }
            PipelineOp::RotateHoisted { steps, dsts } => {
                if steps.len() != dsts.len() {
                    return Err(FheError::InvalidParams {
                        op: "executor",
                        reason: format!(
                            "hoisted batch has {} steps but {} destinations",
                            steps.len(),
                            dsts.len()
                        ),
                    });
                }
                let keys = steps
                    .iter()
                    .map(|s| self.keys.try_rot_key(self.ctx, *s))
                    .collect::<FheResult<Vec<_>>>()?;
                let key_refs: Vec<&cl_ckks::KeySwitchKey> =
                    keys.iter().map(|k| k.as_ref()).collect();
                let outs = self.ctx.try_rotate_hoisted_many(ct, steps, &key_refs)?;
                for (dst, rotated) in dsts.iter().zip(outs) {
                    // Slot writes bypass the boundary validation of the
                    // accumulator, so validate them here — a corrupted
                    // rotation output must never be checkpointed as good.
                    self.ctx.validate_ciphertext("rotate_hoisted", &rotated)?;
                    slots.insert(*dst, Arc::new(rotated));
                }
                return shared(ct);
            }
            PipelineOp::ModDropTo(level) => self.ctx.try_mod_drop(ct, *level as usize)?,
            PipelineOp::Bootstrap => unreachable!("handled above"),
        };
        Ok(Acc::ct(out))
    }

    /// The plaintext operand `vals` of op `op_idx`, encoded at `scale` and
    /// `level`. Its rounded coefficients come from the prepared program's
    /// memo, so only the first run to reach the op at this scale pays the
    /// inverse embedding; every run reduces and transforms them.
    fn plaintext(
        &self,
        prepared: &PreparedProgram<'_>,
        op_idx: usize,
        vals: &[f64],
        scale: f64,
        level: usize,
    ) -> Plaintext {
        let coeffs = prepared.coeffs(op_idx, scale, || {
            let slots: Vec<Complex> = vals.iter().map(|&r| Complex::new(r, 0.0)).collect();
            self.ctx.encode_coeffs(&slots, scale)
        });
        self.ctx.plaintext_from_coeffs(&coeffs, scale, level)
    }

    /// The operand of a `MulPlain` or `MulPlainRescale` op: encoded at the
    /// value of the next modulus to drop, so the rescale that follows lands
    /// back on the ciphertext's scale exactly.
    fn mul_plain_operand(
        &self,
        prepared: &PreparedProgram<'_>,
        op_idx: usize,
        vals: &[f64],
        ct: &Ciphertext,
        op: &'static str,
    ) -> FheResult<Plaintext> {
        let level = ct.level();
        if level < 2 {
            return Err(FheError::LevelMismatch {
                op,
                got: level,
                want: 2,
            });
        }
        let q_drop = self.ctx.rns().modulus_value((level - 1) as u32) as f64;
        Ok(self.plaintext(prepared, op_idx, vals, q_drop, level))
    }

    /// Reads a named slot, or fails with the op that needed it.
    fn slot_get<'s>(
        slots: &'s Slots,
        slot: u16,
        what: &'static str,
    ) -> FheResult<&'s Arc<Ciphertext>> {
        slots.get(&slot).ok_or_else(|| FheError::InvalidParams {
            op: "executor",
            reason: format!("{what} reads empty slot {slot}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepared::COEFF_MEMO_BYTES;
    use cl_boot::Bootstrapper;
    use cl_ckks::faults::flip_ciphertext_word;
    use cl_ckks::{CkksParams, GuardrailPolicy};
    use rand::SeedableRng;
    use std::path::Path;

    fn strict_ctx() -> CkksContext {
        let params = CkksParams::builder()
            .ring_degree(64)
            .levels(6)
            .special_limbs(6)
            .limb_bits(45)
            .scale_bits(40)
            .build()
            .unwrap();
        CkksContext::new(params)
            .unwrap()
            .with_policy(GuardrailPolicy::Strict {
                min_budget_bits: -60.0,
            })
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("cl-exec-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn setup(
        ctx: &CkksContext,
        dir: &Path,
        every: u64,
    ) -> (cl_ckks::SecretKey, BootstrapKeys, Ciphertext, ExecutorConfig) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let sk = ctx.keygen_sparse(8, &mut rng);
        let booter = Bootstrapper::new(ctx, 8);
        let keys = booter.keygen(ctx, &sk, cl_ckks::KeySwitchKind::Standard, &mut rng);
        let pt = ctx.encode(&[0.5, -0.25, 0.125], ctx.default_scale(), ctx.max_level());
        let ct = ctx.encrypt(&pt, &sk, &mut rng);
        let config = ExecutorConfig {
            checkpoint_every: every,
            max_retries: 8,
            checkpoint_dir: Some(dir.to_path_buf()),
        };
        (sk, keys, ct, config)
    }

    #[test]
    fn clean_run_matches_direct_evaluation() {
        let ctx = strict_ctx();
        let dir = tmpdir("clean");
        let (_sk, keys, ct, config) = setup(&ctx, &dir, 2);
        let program = Program::new()
            .then(PipelineOp::Square)
            .then(PipelineOp::Rescale)
            .then(PipelineOp::AddPlain(vec![0.1, 0.2, 0.3]))
            .then(PipelineOp::Rotate(1))
            .then(PipelineOp::Conjugate);

        let mut exec = PipelineExecutor::new(&ctx, &keys, config).unwrap();
        let out = match exec.run(&ct, &program).unwrap() {
            RunOutcome::Completed(ct) => ct,
            RunOutcome::Crashed => panic!("no fault plan attached"),
        };

        // Direct evaluation with the same ops must agree bit-for-bit.
        let sq = ctx.try_square(&ct, keys.try_relin(&ctx).unwrap().as_ref()).unwrap();
        let rs = ctx.try_rescale(&sq).unwrap();
        let p = ctx.encode(&[0.1, 0.2, 0.3], rs.scale(), rs.level());
        let added = ctx.try_add_plain(&rs, &p).unwrap();
        let rot = ctx
            .try_rotate(&added, 1, keys.try_rot_key(&ctx, 1).unwrap().as_ref())
            .unwrap();
        let expect = ctx.try_conjugate(&rot, keys.try_conj(&ctx).unwrap().as_ref()).unwrap();
        assert_eq!(out, expect);

        let t = exec.telemetry();
        assert_eq!(t.faults_detected, 0);
        assert_eq!(t.ops_executed, 5);
        // pc 2, 4, and the end (5).
        assert_eq!(t.checkpoints_written, 3);
        assert!(t.bytes_written > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_flips_are_detected_and_retried_to_the_clean_result() {
        let ctx = strict_ctx();
        let dir_clean = tmpdir("flips-clean");
        let dir_faulty = tmpdir("flips-faulty");
        let (_sk, keys, ct, config) = setup(&ctx, &dir_clean, 2);
        let program = Program::new()
            .then(PipelineOp::Square)
            .then(PipelineOp::Rescale)
            .then(PipelineOp::Square)
            .then(PipelineOp::Rescale)
            .then(PipelineOp::AddPlain(vec![1.0]));

        let mut clean = PipelineExecutor::new(&ctx, &keys, config.clone()).unwrap();
        let want = match clean.run(&ct, &program).unwrap() {
            RunOutcome::Completed(c) => c,
            RunOutcome::Crashed => unreachable!(),
        };

        let mut faulty_config = config;
        faulty_config.checkpoint_dir = Some(dir_faulty.clone());
        let mut faulty = PipelineExecutor::new(&ctx, &keys, faulty_config).unwrap();
        faulty.set_fault_plan(FaultPlan::new(0xC0FFEE, 0.45));
        let got = match faulty.run(&ct, &program).unwrap() {
            RunOutcome::Completed(c) => c,
            RunOutcome::Crashed => unreachable!("no kill points in this plan"),
        };
        assert_eq!(got, want, "recovered run must be bit-identical");
        let t = faulty.telemetry();
        assert!(t.faults_injected > 0, "plan at 30% should fire: {t:?}");
        assert!(t.faults_detected >= t.faults_injected);
        assert!(t.retries >= 1);
        let _ = std::fs::remove_dir_all(&dir_clean);
        let _ = std::fs::remove_dir_all(&dir_faulty);
    }

    #[test]
    fn kill_point_crashes_and_resume_completes_from_disk() {
        let ctx = strict_ctx();
        let dir = tmpdir("kill");
        let (_sk, keys, ct, config) = setup(&ctx, &dir, 1);
        let program = Program::new()
            .then(PipelineOp::Square)
            .then(PipelineOp::Rescale)
            .then(PipelineOp::Square)
            .then(PipelineOp::Rescale);

        let dir_clean = tmpdir("kill-clean");
        let mut clean_config = config.clone();
        clean_config.checkpoint_dir = Some(dir_clean.clone());
        let mut clean = PipelineExecutor::new(&ctx, &keys, clean_config).unwrap();
        let want = match clean.run(&ct, &program).unwrap() {
            RunOutcome::Completed(c) => c,
            RunOutcome::Crashed => unreachable!(),
        };

        let mut exec = PipelineExecutor::new(&ctx, &keys, config).unwrap();
        exec.set_fault_plan(FaultPlan::new(7, 0.0).with_kill_point(2));
        assert!(matches!(
            exec.run(&ct, &program).unwrap(),
            RunOutcome::Crashed
        ));
        assert_eq!(exec.telemetry().crashes, 1);

        // The resumed run must pick up the pc=2 checkpoint, not restart.
        let got = match exec.resume(&ct, &program).unwrap() {
            RunOutcome::Completed(c) => c,
            RunOutcome::Crashed => panic!("kill point already consumed"),
        };
        assert_eq!(got, want);
        let t = exec.telemetry();
        assert!(t.restores >= 1, "resume must load the durable checkpoint");
        assert_eq!(t.ops_executed, 4, "2 before the crash + 2 after resume");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir_clean);
    }

    #[test]
    fn stale_checkpoint_from_a_previous_job_is_never_resumed() {
        let ctx = strict_ctx();
        let dir = tmpdir("stale-binding");
        let (_sk, keys, ct, config) = setup(&ctx, &dir, 1);
        // Job A: runs to completion, leaving durable slots at its final pc.
        let program_a = Program::new()
            .then(PipelineOp::Square)
            .then(PipelineOp::Rescale)
            .then(PipelineOp::Rotate(1));
        {
            let mut exec = PipelineExecutor::new(&ctx, &keys, config.clone()).unwrap();
            assert!(matches!(
                exec.run(&ct, &program_a).unwrap(),
                RunOutcome::Completed(_)
            ));
        }
        // Job B: different program, same directory, entered via resume()
        // (the server's crash-retry path). It must ignore job A's
        // leftover records — resuming A's pc-3 state into B would both
        // skip B's ops and splice in foreign data.
        let program_b = Program::new().then(PipelineOp::Conjugate);
        let expected = {
            let mut clean = PipelineExecutor::new(
                &ctx,
                &keys,
                ExecutorConfig {
                    checkpoint_every: 0,
                    max_retries: 1,
                    checkpoint_dir: None,
                },
            )
            .unwrap();
            match clean.run(&ct, &program_b).unwrap() {
                RunOutcome::Completed(out) => out,
                other => panic!("clean run did not complete: {other:?}"),
            }
        };
        let mut exec = PipelineExecutor::new(&ctx, &keys, config).unwrap();
        let got = match exec.resume(&ct, &program_b).unwrap() {
            RunOutcome::Completed(out) => out,
            other => panic!("resume did not complete: {other:?}"),
        };
        assert_eq!(
            ctx.serialize_ciphertext(&got),
            ctx.serialize_ciphertext(&expected),
            "job B must restart from its own input, not job A's checkpoint"
        );
        assert_eq!(
            exec.telemetry().restores,
            0,
            "no checkpoint of job B exists, so nothing may be restored"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancellation_aborts_without_consuming_retries() {
        let ctx = strict_ctx();
        let dir = tmpdir("cancel");
        let (_sk, keys, ct, mut config) = setup(&ctx, &dir, 0);
        config.checkpoint_dir = None;
        let program = Program::new()
            .then(PipelineOp::Square)
            .then(PipelineOp::Rescale);
        let mut exec = PipelineExecutor::new(&ctx, &keys, config).unwrap();
        let control = RunControl::new();
        control.cancel();
        exec.set_control(control.clone());
        assert!(control.is_cancelled());
        match exec.run(&ct, &program) {
            Err(FheError::Cancelled { .. }) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
        let t = exec.telemetry();
        assert_eq!(t.ops_executed, 0, "cancel before op 0 must run nothing");
        assert_eq!(t.retries, 0, "cancellation is a verdict, not a fault");
        assert_eq!(t.faults_detected, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn expired_deadline_aborts_at_an_op_boundary() {
        let ctx = strict_ctx();
        let dir = tmpdir("deadline");
        let (_sk, keys, ct, mut config) = setup(&ctx, &dir, 0);
        config.checkpoint_dir = None;
        let program = Program::new()
            .then(PipelineOp::Square)
            .then(PipelineOp::Rescale);
        let mut exec = PipelineExecutor::new(&ctx, &keys, config).unwrap();
        let control = RunControl::with_deadline(Duration::ZERO);
        // A zero budget armed in the past is already expired by the first
        // boundary check.
        std::thread::sleep(Duration::from_millis(2));
        exec.set_control(control);
        match exec.run(&ct, &program) {
            Err(FheError::DeadlineExceeded { elapsed_ms, .. }) => {
                assert!(elapsed_ms >= 1, "elapsed clock must be reported");
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert_eq!(exec.telemetry().retries, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generous_deadline_does_not_disturb_a_clean_run() {
        let ctx = strict_ctx();
        let dir = tmpdir("deadline-ok");
        let (_sk, keys, ct, config) = setup(&ctx, &dir, 2);
        let program = Program::new()
            .then(PipelineOp::Square)
            .then(PipelineOp::Rescale);
        let mut exec = PipelineExecutor::new(&ctx, &keys, config).unwrap();
        exec.set_control(RunControl::with_deadline(Duration::from_secs(3600)));
        assert!(matches!(
            exec.run(&ct, &program).unwrap(),
            RunOutcome::Completed(_)
        ));
        // take_telemetry hands the counters over and resets for the next
        // job on a reused executor.
        let t = exec.take_telemetry();
        assert_eq!(t.ops_executed, 2);
        assert_eq!(exec.telemetry(), RecoveryTelemetry::default());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Key bundle with explicit rotation steps (no bootstrap plan), for
    /// dataflow programs.
    fn graph_keys(ctx: &CkksContext, steps: &[i64]) -> (cl_ckks::SecretKey, BootstrapKeys) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let sk = ctx.keygen_sparse(8, &mut rng);
        let keys =
            BootstrapKeys::generate(ctx, &sk, cl_ckks::KeySwitchKind::Standard, steps, &mut rng);
        (sk, keys)
    }

    /// y·(rot(x,1) + rot(x,-1) − x), rescaled — touches every dataflow op
    /// form: slots, a hoisted batch, binary ops, a second input, frees.
    fn dataflow_program() -> Program {
        Program::new()
            .then(PipelineOp::Store(0))
            .then(PipelineOp::RotateHoisted {
                steps: vec![1, -1],
                dsts: vec![1, 2],
            })
            .then(PipelineOp::Load(1))
            .then(PipelineOp::AddSlot(2))
            .then(PipelineOp::Free(1))
            .then(PipelineOp::Free(2))
            .then(PipelineOp::SubSlot(0))
            .then(PipelineOp::Free(0))
            .then(PipelineOp::Store(3))
            .then(PipelineOp::Input(1))
            .then(PipelineOp::MulCtSlot(3))
            .then(PipelineOp::Free(3))
            .then(PipelineOp::Rescale)
    }

    fn dataflow_direct(
        ctx: &CkksContext,
        keys: &BootstrapKeys,
        x: &Ciphertext,
        y: &Ciphertext,
    ) -> Ciphertext {
        let r1 = ctx
            .try_rotate(x, 1, keys.try_rot_key(ctx, 1).unwrap().as_ref())
            .unwrap();
        let rm1 = ctx
            .try_rotate(x, -1, keys.try_rot_key(ctx, -1).unwrap().as_ref())
            .unwrap();
        let sum = ctx.try_add(&r1, &rm1).unwrap();
        let diff = ctx.try_sub(&sum, x).unwrap();
        let prod = ctx
            .try_mul(y, &diff, keys.try_relin(ctx).unwrap().as_ref())
            .unwrap();
        ctx.try_rescale(&prod).unwrap()
    }

    #[test]
    fn dataflow_program_matches_direct_evaluation_and_tracks_peak() {
        let ctx = strict_ctx();
        let dir = tmpdir("dataflow");
        let (sk, keys) = graph_keys(&ctx, &[1, -1]);
        let inputs = dataflow_inputs(&ctx, &sk, 5);
        let program = dataflow_program();
        let config = ExecutorConfig {
            checkpoint_every: 4,
            max_retries: 8,
            checkpoint_dir: Some(dir.clone()),
        };
        let mut exec = PipelineExecutor::new(&ctx, &keys, config).unwrap();
        let out = match exec.run_graph(&inputs, &program).unwrap() {
            RunOutcome::Completed(ct) => ct,
            RunOutcome::Crashed => panic!("no fault plan attached"),
        };
        let expect = dataflow_direct(&ctx, &keys, &inputs[0], &inputs[1]);
        assert_eq!(out, expect, "lowered dataflow must be bit-identical");
        let t = exec.telemetry();
        assert_eq!(t.ops_executed, program.len() as u64);
        // Live-set trace: {0}+acc → {0,1,2}+acc (peak 4) → … → {}+acc.
        assert_eq!(t.peak_live_cts, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn dataflow_inputs(ctx: &CkksContext, sk: &cl_ckks::SecretKey, seed: u64) -> Vec<Ciphertext> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        [[0.5, -0.25, 0.125, 0.75], [0.3, 0.6, -0.2, 0.1]]
            .iter()
            .map(|vals| {
                ctx.encrypt(
                    &ctx.encode(vals, ctx.default_scale(), ctx.max_level()),
                    sk,
                    &mut rng,
                )
            })
            .collect()
    }

    /// `checkpoint_every = 0` runs without a store (and so without a dir).
    fn cadence_config(dir: &Path, every: u64) -> ExecutorConfig {
        ExecutorConfig {
            checkpoint_every: every,
            max_retries: 64,
            checkpoint_dir: (every > 0).then(|| dir.to_path_buf()),
        }
    }

    #[test]
    fn fault_injection_copies_on_write_and_spares_every_other_holder() {
        let ctx = strict_ctx();
        let (sk, _keys) = graph_keys(&ctx, &[]);
        let clean = dataflow_inputs(&ctx, &sk, 5).remove(0);

        // The accumulator as the loop holds it right after a `Store`:
        // aliased by `last_good` and by a slot.
        let mut state = Acc::ct(clean.clone());
        let last_good = state.clone();
        let Acc::Ct(slot) = state.clone() else { unreachable!() };
        flip_ciphertext_word(state.primary_mut(), 0, 0, 3);

        let (Acc::Ct(flipped), Acc::Ct(kept)) = (&state, &last_good) else { unreachable!() };
        assert_ne!(**flipped, clean, "the flip must land in the live state");
        assert!(!Arc::ptr_eq(flipped, kept), "a shared payload must be copied first");
        assert_eq!(**kept, clean, "last_good must keep the clean payload");
        assert_eq!(*slot, clean, "an aliasing slot must keep the clean payload");

        // Mid-bootstrap the same rule holds one level down.
        let mut boot = Acc::Boot(Arc::new(BootState::Start { ct: clean.clone() }));
        let boot_good = boot.clone();
        flip_ciphertext_word(boot.primary_mut(), 1, 0, 0);
        let Acc::Boot(kept) = &boot_good else { unreachable!() };
        assert_eq!(kept.ciphertexts()[0], &clean);
        assert!(boot.validate(&ctx).is_err() && boot_good.validate(&ctx).is_ok());
    }

    #[test]
    fn flipped_dataflow_runs_converge_bit_identically_at_every_cadence() {
        let ctx = strict_ctx();
        let (sk, keys) = graph_keys(&ctx, &[1, -1]);
        let inputs = dataflow_inputs(&ctx, &sk, 5);
        let program = dataflow_program();
        let want = dataflow_direct(&ctx, &keys, &inputs[0], &inputs[1]);
        // Cadence 0 recovers from the in-memory `last_good` alone — the
        // one copy a flip leaking through a shared payload would corrupt.
        for every in [0u64, 1, 4] {
            let mut injected = 0;
            for seed in 0..8u64 {
                let dir = tmpdir(&format!("cow-{every}-{seed}"));
                let mut exec =
                    PipelineExecutor::new(&ctx, &keys, cadence_config(&dir, every)).unwrap();
                let rate = 0.30 + 0.05 * (seed % 4) as f64;
                exec.set_fault_plan(FaultPlan::new(0xC0DE + seed, rate));
                let got = match exec.run_graph(&inputs, &program).unwrap() {
                    RunOutcome::Completed(c) => c,
                    RunOutcome::Crashed => unreachable!("no kill points in this plan"),
                };
                assert_eq!(got, want, "cadence {every}, seed {seed}");
                let t = exec.telemetry();
                // (A flip landing just before `Load`/`Input` is overwritten
                // unseen, so detections can trail injections here.)
                assert_eq!(t.retries, t.faults_detected, "every detection is retried");
                injected += t.faults_injected;
                let _ = std::fs::remove_dir_all(&dir);
            }
            assert!(injected >= 8, "cadence {every}: plans must actually fire ({injected})");
        }
    }

    /// Kills a run before each of `program`'s micro-ops in turn and
    /// resumes it from what the checkpoint cadence made durable: every
    /// resume lands on `want` bit for bit, and at cadence 1 it reloads the
    /// boundary it was killed at and re-executes nothing.
    fn kill_at_every_pc(
        ctx: &CkksContext,
        keys: &BootstrapKeys,
        booter: Option<&Bootstrapper>,
        inputs: &[Ciphertext],
        program: &Program,
        want: &Ciphertext,
    ) {
        let n = program.num_micro_ops() as u64;
        for every in [0u64, 1, 4] {
            for kill_at in 0..n {
                let dir = tmpdir(&format!("kill-{n}-{every}-{kill_at}"));
                let mut exec =
                    PipelineExecutor::new(ctx, keys, cadence_config(&dir, every)).unwrap();
                if let Some(booter) = booter {
                    exec = exec.with_bootstrapper(booter);
                }
                exec.set_fault_plan(FaultPlan::new(kill_at, 0.0).with_kill_point(kill_at));
                assert!(matches!(
                    exec.run_graph(inputs, program).unwrap(),
                    RunOutcome::Crashed
                ));
                let prepared = PreparedProgram::borrowed_with_memo(ctx, program, 0);
                let got = match exec.resume_prepared(inputs, &prepared).unwrap() {
                    RunOutcome::Completed(c) => c,
                    RunOutcome::Crashed => panic!("kill point already consumed"),
                };
                assert_eq!(&got, want, "cadence {every}, killed before micro-op {kill_at}");
                if every == 1 {
                    let t = exec.telemetry();
                    assert_eq!(t.restores >= 1, kill_at > 0);
                    assert_eq!(t.ops_executed, n);
                }
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }

    /// The dataflow program (at cadence 1 a resume reloads the whole
    /// live-slot environment, three slots at pc 4), then a chain whose
    /// bootstrap puts a kill before each of its five stages and a resume
    /// at each of the four boundaries inside it.
    #[test]
    fn kill_at_every_pc_resumes_bit_identically() {
        let ctx = strict_ctx();
        let (sk, keys) = graph_keys(&ctx, &[1, -1]);
        let inputs = dataflow_inputs(&ctx, &sk, 6);
        let want = dataflow_direct(&ctx, &keys, &inputs[0], &inputs[1]);
        kill_at_every_pc(&ctx, &keys, None, &inputs, &dataflow_program(), &want);

        let (ctx, booter, keys, input, program, want) = boot_chain();
        kill_at_every_pc(&ctx, &keys, Some(&booter), &[input], &program, &want);
    }

    /// A Square, Rescale, Bootstrap, Square, Rescale chain at N = 64 with
    /// 20 levels: its context, bootstrapper, keys, input and clean output.
    /// Its micro-ops are Square 0, Rescale 1, the bootstrap's five stages
    /// 2..=6, Square 7 and Rescale 8.
    fn boot_chain() -> (
        CkksContext,
        Bootstrapper,
        BootstrapKeys,
        Ciphertext,
        Program,
        Ciphertext,
    ) {
        let params = CkksParams::builder()
            .ring_degree(64)
            .levels(20)
            .special_limbs(20)
            .limb_bits(45)
            .scale_bits(45)
            .build()
            .unwrap();
        // The floor sits below the refresh's tracked worst case at these
        // test-scale parameters.
        let ctx = CkksContext::new(params)
            .unwrap()
            .with_policy(GuardrailPolicy::Strict {
                min_budget_bits: -5000.0,
            });
        let mut rng = rand::rngs::StdRng::seed_from_u64(78);
        let sk = ctx.keygen_sparse(8, &mut rng);
        let booter = Bootstrapper::new(&ctx, 8);
        let kind = cl_ckks::KeySwitchKind::Boosted { digits: 1 };
        let keys = booter.keygen(&ctx, &sk, kind, &mut rng);
        let pt = ctx.encode(&[0.5, -0.25, 0.125], ctx.default_scale(), 2);
        let input = ctx.encrypt(&pt, &sk, &mut rng);
        let program = Program::new()
            .then(PipelineOp::Square)
            .then(PipelineOp::Rescale)
            .then(PipelineOp::Bootstrap)
            .then(PipelineOp::Square)
            .then(PipelineOp::Rescale);
        assert_eq!(program.num_micro_ops(), 4 + BootState::NUM_STAGES);
        let relin = keys.try_relin(&ctx).unwrap();
        let square = |ct: &Ciphertext| {
            ctx.try_rescale(&ctx.try_square(ct, &relin).unwrap())
                .unwrap()
        };
        let refreshed = booter.try_bootstrap(&ctx, &square(&input), &keys).unwrap();
        let want = square(&refreshed);
        (ctx, booter, keys, input, program, want)
    }

    /// A record whose state does not fit its pc — an `EvalBoth` at the
    /// bootstrap's fourth boundary (pc 6), which expects `SlotHalf`: what
    /// a record written under the older stage layout holds there — is
    /// skipped as damaged. The resume takes the other slot (`EvalBoth` at
    /// pc 5), or restarts from the input when neither slot fits, and
    /// matches the clean run bit for bit.
    #[test]
    fn a_checkpoint_that_does_not_fit_its_pc_is_skipped_as_damaged() {
        let (ctx, booter, keys, input, program, want) = boot_chain();
        let inputs = std::slice::from_ref(&input);
        for neither_fits in [false, true] {
            let dir = tmpdir(&format!("misfit-{neither_fits}"));
            let mut exec = PipelineExecutor::new(&ctx, &keys, cadence_config(&dir, 1))
                .unwrap()
                .with_bootstrapper(&booter);
            // Killed before pc 5: the slots hold Split at pc 4 and
            // EvalBoth at pc 5, and the next write replaces pc 4.
            exec.set_fault_plan(FaultPlan::new(5, 0.0).with_kill_point(5));
            assert!(matches!(
                exec.run_graph(inputs, &program).unwrap(),
                RunOutcome::Crashed
            ));
            let binding = exec.binding;
            let store = exec.store.as_mut().unwrap();
            let mut cp = store
                .load_latest(&ctx, binding, |_| true)
                .unwrap()
                .0
                .unwrap();
            assert_eq!((cp.pc, cp.state.name()), (5, "EvalBoth"));
            cp.pc = 6;
            store.write(&ctx, &cp).unwrap();
            if neither_fits {
                store.write(&ctx, &cp).unwrap();
            }
            store.sync().unwrap();
            let prepared = PreparedProgram::borrowed_with_memo(&ctx, &program, 0);
            let got = completed(exec.resume_prepared(inputs, &prepared));
            assert_eq!(got, want, "neither slot fits: {neither_fits}");
            let t = exec.telemetry();
            assert_eq!(
                (t.faults_detected, t.restores),
                (1, u64::from(!neither_fits))
            );
            assert_eq!(t.retries, 0);
            drop(exec);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Every plaintext-operand op form: `AddPlain` (twice) at the
    /// ciphertext's scale, `MulPlain` and `MulPlainRescale` at the value of
    /// the next modulus to drop.
    fn plain_operand_program() -> Program {
        Program::new()
            .then(PipelineOp::MulPlainRescale(vec![0.5, -1.25, 2.0]))
            .then(PipelineOp::AddPlain(vec![0.1, 0.2, -0.3]))
            .then(PipelineOp::MulPlain(vec![1.5, 0.75]))
            .then(PipelineOp::Rescale)
            .then(PipelineOp::AddPlain(vec![-0.05; 7]))
    }

    fn completed(out: FheResult<RunOutcome>) -> Ciphertext {
        match out.unwrap() {
            RunOutcome::Completed(ct) => ct,
            RunOutcome::Crashed => panic!("no fault plan attached"),
        }
    }

    fn no_ckpt() -> ExecutorConfig {
        ExecutorConfig {
            checkpoint_every: 0,
            max_retries: 1,
            checkpoint_dir: None,
        }
    }

    #[test]
    fn prepared_run_is_bit_identical_to_unprepared_run() {
        let ctx = strict_ctx();
        let (sk, keys) = graph_keys(&ctx, &[]);
        let input = dataflow_inputs(&ctx, &sk, 9).remove(0);
        let program = plain_operand_program();
        let mut exec = PipelineExecutor::new(&ctx, &keys, no_ckpt()).unwrap();
        let want = completed(exec.run(&input, &program));

        let prepared = PreparedProgram::new(&ctx, program.clone());
        let inputs = std::slice::from_ref(&input);
        let first = completed(exec.run_prepared(inputs, &prepared));
        let s = prepared.memo_stats();
        assert_eq!(
            (s.hits, s.misses),
            (0, 4),
            "the first run rounds every operand"
        );
        let second = completed(exec.run_prepared(inputs, &prepared));
        let s = prepared.memo_stats();
        assert_eq!((s.hits, s.misses), (4, 4), "the second run rounds none");
        assert_eq!(s.evictions, 0, "one scale's worth fits the memo");
        assert_eq!(first, want, "a prepared run must match the unprepared one");
        assert_eq!(second, want, "a memo-hit run must match the unprepared one");
        assert_eq!(exec.telemetry().ops_executed, 3 * program.len() as u64);

        // A program prepared for another ring degree is refused, not run.
        let wide = CkksContext::new(
            CkksParams::builder()
                .ring_degree(128)
                .levels(6)
                .special_limbs(6)
                .limb_bits(45)
                .scale_bits(40)
                .build()
                .unwrap(),
        )
        .unwrap();
        let foreign = PreparedProgram::borrowed(&wide, &program);
        assert!(matches!(
            exec.run_prepared(inputs, &foreign),
            Err(FheError::InvalidParams { .. })
        ));
    }

    #[test]
    fn coefficient_memo_is_capped_whatever_the_operand_count() {
        let ctx = strict_ctx();
        let (sk, keys) = graph_keys(&ctx, &[]);
        let input = dataflow_inputs(&ctx, &sk, 11).remove(0);
        let vector_bytes = ctx.params().ring_degree() * std::mem::size_of::<i64>();
        // Many one-value operands, ten times more than a small cap holds:
        // the first ten are memoized, the rest round on every run.
        let program = (0..100).fold(Program::new(), |p, i| {
            p.then(PipelineOp::AddPlain(vec![f64::from(i) / 512.0]))
        });
        let mut exec = PipelineExecutor::new(&ctx, &keys, no_ckpt()).unwrap();
        let want = completed(exec.run(&input, &program));
        let prepared = PreparedProgram::borrowed_with_memo(&ctx, &program, 10 * vector_bytes);
        for run in 0..2u64 {
            let got = completed(exec.run_prepared(std::slice::from_ref(&input), &prepared));
            assert_eq!(got, want, "run {run} must match the unprepared run");
            let s = prepared.memo_stats();
            assert_eq!((s.hits, s.misses, s.evictions), (10 * run, 10, 0), "{s:?}");
            assert_eq!(s.bytes_resident, 10 * vector_bytes);
        }

        // The public constructors weigh no more than COEFF_MEMO_BYTES of
        // memo, however many operands the program carries.
        let operands = COEFF_MEMO_BYTES / vector_bytes + 100;
        let program = (0..operands).fold(Program::new(), |p, _| {
            p.then(PipelineOp::AddPlain(vec![0.5]))
        });
        let ops = std::mem::size_of::<PipelineOp>() + std::mem::size_of::<f64>();
        assert_eq!(
            PreparedProgram::new(&ctx, program).resident_bytes(),
            operands * ops + COEFF_MEMO_BYTES
        );
    }

    #[test]
    fn one_prepared_program_at_two_alternating_scales_stays_bit_identical() {
        let ctx = strict_ctx();
        let (sk, keys) = graph_keys(&ctx, &[]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let vals = [0.5, -0.25, 0.125, 0.75];
        // Another scale and another level: every operand's memo key moves.
        let inputs = [
            (ctx.default_scale(), ctx.max_level()),
            (2f64.powi(35), ctx.max_level() - 1),
        ]
        .map(|(scale, level)| ctx.encrypt(&ctx.encode(&vals, scale, level), &sk, &mut rng));
        let program = plain_operand_program();
        let mut exec = PipelineExecutor::new(&ctx, &keys, no_ckpt()).unwrap();
        let want = inputs
            .clone()
            .map(|input| completed(exec.run(&input, &program)));
        assert_ne!(want[0], want[1]);

        let prepared = PreparedProgram::borrowed(&ctx, &program);
        for round in 0..3 {
            for (input, want) in inputs.iter().zip(&want) {
                let got = completed(exec.run_prepared(std::slice::from_ref(input), &prepared));
                assert_eq!(&got, want, "round {round}, scale {}", input.scale());
            }
        }
        let s = prepared.memo_stats();
        assert!(
            s.evictions > 0,
            "two scales overflow a one-scale memo: {s:?}"
        );
        assert_eq!(s.hits + s.misses, 6 * 4, "one lookup per operand per run");
    }

    #[test]
    fn threads_sharing_one_prepared_program_agree_bit_for_bit() {
        let ctx = strict_ctx();
        let (sk, keys) = graph_keys(&ctx, &[]);
        let input = dataflow_inputs(&ctx, &sk, 13).remove(0);
        let program = plain_operand_program();
        let want = completed(
            PipelineExecutor::new(&ctx, &keys, no_ckpt())
                .unwrap()
                .run(&input, &program),
        );
        let prepared = PreparedProgram::new(&ctx, program);
        let outs: Vec<Ciphertext> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let mut exec = PipelineExecutor::new(&ctx, &keys, no_ckpt()).unwrap();
                        (0..3)
                            .map(|_| {
                                completed(
                                    exec.run_prepared(std::slice::from_ref(&input), &prepared),
                                )
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        assert_eq!(outs.len(), 6);
        assert!(
            outs.iter().all(|out| *out == want),
            "every shared run must match"
        );
        let s = prepared.memo_stats();
        assert_eq!(s.hits + s.misses, 6 * 4, "one lookup per operand per run");
        assert_eq!(prepared.memo_stats().bytes_resident, 4 * 64 * 8);
    }

    /// Each hand-built wave (`prepared::tests`) runs as a wave and lands
    /// on the op-by-op run (forced by an attached fault plan that injects
    /// nothing) in limbs, scale, noise estimate, `ops_executed`, trace
    /// counts and peak: a wave that fell back to op by op would count its
    /// discarded work twice.
    #[test]
    fn hand_built_waves_run_as_their_op_by_op_runs_do() {
        use crate::prepared::tests::{input_opens_a_segment, read_after_write, write_after_read};
        let ctx = strict_ctx();
        let (sk, keys) = graph_keys(&ctx, &[1, 2, 3, 5]);
        let inputs = dataflow_inputs(&ctx, &sk, 17);
        for program in [write_after_read(), read_after_write(), input_opens_a_segment()] {
            let prepared = PreparedProgram::borrowed(&ctx, &program);
            assert_eq!(prepared.waves().len(), 1, "{program:?}");
            let run = |op_by_op: bool| {
                let mut exec = PipelineExecutor::new(&ctx, &keys, no_ckpt()).unwrap();
                if op_by_op {
                    exec.set_fault_plan(FaultPlan::new(0, 0.0));
                }
                let before = cl_trace::OpSnapshot::capture();
                let out = completed(exec.run_prepared(&inputs, &prepared));
                let ops = cl_trace::OpSnapshot::capture().delta_since(&before);
                let t = exec.telemetry();
                let digest = cl_ckks::serialize::fnv1a_fast(&ctx.serialize_ciphertext(&out));
                let bits = (out.scale().to_bits(), out.noise_estimate_bits().to_bits());
                (digest, bits, ops, t.ops_executed, t.peak_live_cts)
            };
            // The first run materializes the seeded hints.
            run(true);
            let (waved, op_by_op) = (run(false), run(true));
            assert_eq!(waved, op_by_op, "{program:?}");
            assert_eq!(waved.3, program.len() as u64);
        }
    }

    #[test]
    fn retry_budget_exhaustion_surfaces_the_fault() {
        let ctx = strict_ctx();
        let dir = tmpdir("budget");
        let (_sk, keys, ct, mut config) = setup(&ctx, &dir, 0);
        config.checkpoint_dir = None;
        config.max_retries = 2;
        let program = Program::new().then(PipelineOp::Square);
        let mut exec = PipelineExecutor::new(&ctx, &keys, config).unwrap();
        // Flip on (essentially) every op: each retry is re-corrupted, so
        // the budget must run out and the underlying fault must surface.
        exec.set_fault_plan(FaultPlan::new(3, 0.999));
        let err = exec.run(&ct, &program);
        assert!(err.is_err(), "retry budget of 2 cannot beat a 99.9% rate");
        assert_eq!(exec.telemetry().retries, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

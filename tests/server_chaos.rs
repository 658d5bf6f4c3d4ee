//! Acceptance test for the multi-tenant job server: 8 tenants × 16 jobs
//! under seeded fault injection, with one poisoned tenant (bit flips,
//! simulated crashes, corrupted input blobs), random cancellations, a
//! deadline-zero job, and a deliberately undersized admission queue.
//!
//! The contract under test:
//! - every *surviving* job's output is limb-bit-identical to a serial,
//!   fault-free reference run;
//! - every failure is a structured outcome (a stable code + detail),
//!   never a panic and never `Internal`;
//! - clean tenants are completely unaffected by the poisoned tenant;
//! - the queue never holds more than its configured capacity, and every
//!   overload rejection is an `FheError::Overloaded` with a retry hint.
//!
//! This suite is also where ROADMAP item 1's synthetic-load goal lives:
//! the 128-job multi-tenant storm above plus the crash/recover rounds
//! below (randomized kill points, torn journal tails, watchdog stalls,
//! breaker quarantine) exercise the serving stack's concurrency under
//! hostile conditions; a dedicated thousands-of-jobs fairness soak
//! remains future headroom.

use std::sync::Arc;
use std::time::Duration;

use craterlake::boot::{BootstrapKeys, Bootstrapper};
use craterlake::ckks::faults::FaultPlan;
use craterlake::ckks::serialize::seal;
use craterlake::ckks::{CkksContext, CkksParams, FheError, GuardrailPolicy, KeySwitchKind};
use craterlake::runtime::{ExecutorConfig, PipelineExecutor, PipelineOp, Program, RunOutcome};
use craterlake::server::{
    FsyncPolicy, JobId, JobServer, JobSpec, OutcomeCode, ServerConfig, TenantSetup,
};
use rand::SeedableRng;

const NUM_TENANTS: usize = 8;
const JOBS_PER_TENANT: usize = 16;
/// Tenant 0 is poisoned: its jobs carry fault plans, and some of its
/// input blobs are corrupted in flight.
const POISONED: usize = 0;
/// Tenant 1's job 0 is submitted with a zero deadline.
const DEADLINE_TENANT: usize = 1;
/// Tenant 2 has a subset of its jobs cancelled right after submission.
const CANCEL_TENANT: usize = 2;
/// Tenant 7 runs a *different* parameter set (distinct fingerprint).
const FOREIGN_PARAMS: usize = 7;

fn strict_ctx(levels: usize) -> CkksContext {
    let params = CkksParams::builder()
        .ring_degree(64)
        .levels(levels)
        .special_limbs(levels)
        .limb_bits(45)
        .scale_bits(40)
        .build()
        .unwrap();
    CkksContext::new(params)
        .unwrap()
        .with_policy(GuardrailPolicy::Strict {
            min_budget_bits: -200.0,
        })
}

/// Four program shapes cycled by `(tenant + job)`; all need only
/// rotation steps {1, 2} and at most one rescale.
fn program_for(t: usize, j: usize) -> Program {
    match (t + j) % 4 {
        0 => Program::new()
            .then(PipelineOp::Square)
            .then(PipelineOp::Rescale)
            .then(PipelineOp::Rotate(1)),
        1 => Program::new()
            .then(PipelineOp::AddPlain(vec![0.1, -0.2]))
            .then(PipelineOp::Conjugate)
            .then(PipelineOp::Rotate(2)),
        2 => Program::new()
            .then(PipelineOp::Square)
            .then(PipelineOp::Rescale)
            .then(PipelineOp::AddPlain(vec![0.05]))
            .then(PipelineOp::Rotate(1)),
        _ => Program::new()
            .then(PipelineOp::Rotate(2))
            .then(PipelineOp::Conjugate)
            .then(PipelineOp::AddPlain(vec![0.3, 0.3, 0.3])),
    }
}

struct TenantFx {
    id: String,
    ctx: Arc<CkksContext>,
    key_blob: Vec<u8>,
    input_blob: Vec<u8>,
    /// Serial fault-free reference output per job, serialized.
    expected: Vec<Vec<u8>>,
}

fn build_tenant(t: usize) -> TenantFx {
    let levels = if t == FOREIGN_PARAMS { 5 } else { 4 };
    let ctx = Arc::new(strict_ctx(levels));
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x7E4A + t as u64);
    let sk = ctx.keygen_sparse(8, &mut rng);
    let keys = BootstrapKeys::generate(&ctx, &sk, KeySwitchKind::Standard, &[1, 2], &mut rng);
    let pt = ctx.encode(
        &[0.4 - 0.01 * t as f64, -0.3, 0.2],
        ctx.default_scale(),
        ctx.max_level(),
    );
    let ct = ctx.encrypt(&pt, &sk, &mut rng);

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
    let expected = (0..JOBS_PER_TENANT)
        .map(|j| match exec.run(&ct, &program_for(t, j)).unwrap() {
            RunOutcome::Completed(out) => ctx.serialize_ciphertext(&out),
            other => panic!("reference run t{t} j{j} did not complete: {other:?}"),
        })
        .collect();
    TenantFx {
        id: format!("tenant-{t}"),
        key_blob: keys.serialize(&ctx),
        input_blob: ctx.serialize_ciphertext(&ct),
        expected,
        ctx,
    }
}

fn flip_body_byte(blob: &[u8]) -> Vec<u8> {
    let mut out = blob.to_vec();
    // Past the 16-byte header, so the admission peek still passes and the
    // corruption is caught by the worker's deep parse.
    let pos = 16 + (out.len() - 16) / 2;
    out[pos] ^= 0x20;
    out
}

#[test]
fn chaos_multi_tenant_isolation_and_bit_exactness() {
    let tenants: Vec<TenantFx> = (0..NUM_TENANTS).map(build_tenant).collect();

    let root = std::env::temp_dir().join(format!("cl-server-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let queue_capacity = 24;
    let server = JobServer::start(ServerConfig {
        workers: 3,
        queue_capacity,
        tenant_queue_capacity: 6,
        checkpoint_root: root.clone(),
        checkpoint_every: 2,
        executor_retries: 6,
        tenant_retry_budget: 24,
        max_job_retries: 4,
        key_cache_bytes: 1 << 20,
        default_deadline: None,
        backoff_base_ms: 0,
        ..ServerConfig::default()
    })
    .unwrap();
    for fx in &tenants {
        server.register_tenant(&fx.id, Arc::clone(&fx.ctx)).unwrap();
    }

    // Cross-tenant fingerprint isolation: tenant-7's params differ, so a
    // blob serialized under tenant-0's context is refused at admission.
    {
        let fx0 = &tenants[0];
        let spec = JobSpec::new(
            &tenants[FOREIGN_PARAMS].id,
            program_for(0, 0).serialize(fx0.ctx.params_fingerprint()),
            fx0.input_blob.clone(),
            fx0.key_blob.clone(),
        );
        assert!(matches!(
            server.submit(spec),
            Err(FheError::ParamsMismatch { .. })
        ));
    }

    let mut handles: Vec<Vec<(JobId, Kind)>> = (0..NUM_TENANTS).map(|_| Vec::new()).collect();
    let mut overloads = 0u64;
    let mut max_queued = 0usize;

    #[derive(Clone, Copy, PartialEq)]
    enum Kind {
        Clean,
        Faulted,
        CorruptBlob,
        DeadlineZero,
        Cancelled,
    }

    // Interleave submissions job-major so every tenant competes for the
    // undersized queue at the same time.
    for j in 0..JOBS_PER_TENANT {
        for (t, fx) in tenants.iter().enumerate() {
            let mut kind = Kind::Clean;
            let mut spec = JobSpec::new(
                &fx.id,
                program_for(t, j).serialize(fx.ctx.params_fingerprint()),
                fx.input_blob.clone(),
                fx.key_blob.clone(),
            );
            if t == POISONED {
                if j % 7 == 3 {
                    kind = Kind::CorruptBlob;
                    spec.input_blob = flip_body_byte(&fx.input_blob).into();
                } else {
                    kind = Kind::Faulted;
                    let seed = 0x5EED ^ (t as u64 * 1000 + j as u64);
                    let mut plan = FaultPlan::new(seed, 0.2);
                    if j % 5 == 0 {
                        plan = plan.with_kill_point(2);
                    }
                    spec.fault_plan = Some(plan);
                }
            }
            if t == DEADLINE_TENANT && j == 0 {
                kind = Kind::DeadlineZero;
                spec.deadline = Some(Duration::ZERO);
            }
            if t == CANCEL_TENANT && j % 5 == 4 {
                kind = Kind::Cancelled;
            }
            // Admission with explicit backpressure: shed submissions are
            // retried until a slot frees up. The queue bound holds the
            // whole time.
            let handle = loop {
                max_queued = max_queued.max(server.queued());
                match server.submit(spec.clone()) {
                    Ok(h) => break h,
                    Err(FheError::Overloaded { retry_after_ms, .. }) => {
                        overloads += 1;
                        assert!(retry_after_ms > 0, "retry hint must be actionable");
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(other) => panic!("unexpected admission error: {other}"),
                }
            };
            if kind == Kind::Cancelled {
                handle.cancel();
            }
            handles[t].push((handle.id, kind));
        }
    }
    assert!(
        max_queued <= queue_capacity,
        "queue grew past its bound: {max_queued} > {queue_capacity}"
    );
    assert!(
        overloads > 0,
        "an undersized queue under 128 rapid submissions must shed at least once"
    );

    server.wait_idle();
    let reports: Vec<_> = tenants
        .iter()
        .map(|fx| server.tenant_report(&fx.id).unwrap())
        .collect();
    let outcomes = server.shutdown();
    assert_eq!(outcomes.len(), NUM_TENANTS * JOBS_PER_TENANT);

    let mut cancelled_seen = 0u64;
    for (t, fx) in tenants.iter().enumerate() {
        for (j, &(id, kind)) in handles[t].iter().enumerate() {
            let outcome = outcomes
                .iter()
                .find(|o| o.id == id)
                .unwrap_or_else(|| panic!("missing outcome for t{t} j{j}"));
            assert_eq!(outcome.tenant, fx.id);
            // Universal invariants: failures are structured, successes
            // are bit-exact.
            assert_ne!(
                outcome.code,
                OutcomeCode::Internal,
                "t{t} j{j}: unstructured failure: {}",
                outcome.detail
            );
            if outcome.is_ok() {
                assert_eq!(
                    outcome.output.as_deref(),
                    Some(fx.expected[j].as_slice()),
                    "t{t} j{j}: surviving output must be limb-bit-identical to the serial reference"
                );
            } else {
                assert!(outcome.output.is_none());
                assert!(!outcome.detail.is_empty(), "t{t} j{j}: failure needs detail");
            }
            match kind {
                Kind::Clean => assert!(
                    outcome.is_ok(),
                    "t{t} j{j}: clean job failed: {:?} {}",
                    outcome.code,
                    outcome.detail
                ),
                Kind::CorruptBlob => assert!(
                    matches!(
                        outcome.code,
                        OutcomeCode::IntegrityFailure | OutcomeCode::Malformed
                    ),
                    "t{t} j{j}: corrupt blob classified as {:?}",
                    outcome.code
                ),
                Kind::DeadlineZero => assert_eq!(
                    outcome.code,
                    OutcomeCode::DeadlineExceeded,
                    "a zero deadline can never be met"
                ),
                Kind::Cancelled => {
                    // The cancel races the workers: either it landed
                    // (Cancelled) or the job finished first (then it must
                    // still be bit-exact, which the block above checked).
                    if outcome.code == OutcomeCode::Cancelled {
                        cancelled_seen += 1;
                    } else {
                        assert!(outcome.is_ok(), "t{t} j{j}: {:?}", outcome.code);
                    }
                }
                Kind::Faulted => {
                    // A faulted job either converged (bit-exact, checked
                    // above) or died structured after its retries.
                    if !outcome.is_ok() {
                        assert!(
                            matches!(
                                outcome.code,
                                OutcomeCode::RetryBudgetExhausted
                                    | OutcomeCode::IntegrityFailure
                                    | OutcomeCode::GuardrailRejected
                            ),
                            "t{t} j{j}: fault surfaced as {:?}",
                            outcome.code
                        );
                    }
                }
            }
        }
    }
    // `cancelled_seen` is informational: with 3 busy workers and a full
    // queue most cancels land, but the test only requires that whichever
    // side wins the race, the result is structured/correct.
    let _ = cancelled_seen;

    // Per-tenant accounting and isolation.
    let poisoned_report = &reports[POISONED];
    assert!(
        poisoned_report.recovery.faults_injected > 0,
        "the fault plans must actually have fired"
    );
    assert!(
        poisoned_report.recovery.faults_detected > 0,
        "injected faults must be detected, not absorbed"
    );
    for (t, report) in reports.iter().enumerate() {
        assert_eq!(
            report.jobs_ok + report.jobs_failed,
            JOBS_PER_TENANT as u64,
            "t{t}: every job must be accounted exactly once"
        );
        if t != POISONED {
            assert_eq!(
                report.recovery.faults_injected, 0,
                "t{t}: fault injection must stay inside the poisoned tenant"
            );
            assert_eq!(report.key_cache.misses, 1, "t{t}: one key blob, parsed once");
        }
        if t != POISONED && t != DEADLINE_TENANT && t != CANCEL_TENANT {
            assert_eq!(
                report.jobs_failed, 0,
                "t{t}: clean tenant must be untouched by the chaos"
            );
        }
    }

    let _ = std::fs::remove_dir_all(&root);
}

/// Fuzz-style untrusted-input sweep: truncations, bit flips, and foreign
/// fingerprints across all three blob kinds are rejected structurally —
/// at admission (header damage) or in the worker (payload damage) —
/// while an interleaved stream of good jobs completes bit-exactly.
#[test]
fn fuzzed_blobs_are_rejected_without_collateral_damage() {
    let fx = build_tenant(3);
    let root = std::env::temp_dir().join(format!("cl-server-fuzz-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let server = JobServer::start(ServerConfig {
        workers: 2,
        queue_capacity: 256,
        tenant_queue_capacity: 256,
        checkpoint_root: root.clone(),
        backoff_base_ms: 0,
        ..ServerConfig::default()
    })
    .unwrap();
    server.register_tenant(&fx.id, Arc::clone(&fx.ctx)).unwrap();

    let program_blob = program_for(3, 0).serialize(fx.ctx.params_fingerprint());
    let good = || {
        JobSpec::new(
            &fx.id,
            program_blob.clone(),
            fx.input_blob.clone(),
            fx.key_blob.clone(),
        )
    };

    // Background stream of good jobs, interleaved with the hostile ones.
    let mut good_ids = vec![server.submit(good()).unwrap().id];

    let blobs: [(&str, &[u8]); 3] = [
        ("program", &program_blob),
        ("input", &fx.input_blob),
        ("keys", &fx.key_blob),
    ];
    let mut hostile = 0u64;
    for (slot, blob) in blobs {
        // Truncations: a header-length prefix sweep plus payload cuts.
        let cuts = [0usize, 1, 7, 15, 16, 17, blob.len() / 2, blob.len() - 1];
        for &cut in cuts.iter().filter(|&&c| c < blob.len()) {
            let mut spec = good();
            let truncated = blob[..cut].to_vec();
            match slot {
                "program" => spec.program_blob = truncated.into(),
                "input" => spec.input_blob = truncated.into(),
                _ => spec.key_blob = truncated.into(),
            }
            submit_hostile(&server, spec, &mut hostile, &mut good_ids, &good);
        }
        // Bit flips spread across the blob, including header bytes.
        for i in 0..8 {
            let pos = (blob.len() - 1) * i / 7;
            let mut flipped = blob.to_vec();
            flipped[pos] ^= 1 << (i % 8);
            let mut spec = good();
            match slot {
                "program" => spec.program_blob = flipped.into(),
                "input" => spec.input_blob = flipped.into(),
                _ => spec.key_blob = flipped.into(),
            }
            submit_hostile(&server, spec, &mut hostile, &mut good_ids, &good);
        }
    }
    // Foreign fingerprint on the program blob.
    {
        let mut spec = good();
        spec.program_blob = program_for(3, 0).serialize(fx.ctx.params_fingerprint() ^ 0xFFFF).into();
        submit_hostile(&server, spec, &mut hostile, &mut good_ids, &good);
    }
    // Crafted counts: every count field of the input and key blobs set
    // to a huge value inside a validly resealed section, so only the
    // count-against-bytes rule stands between the blob and an allocation.
    for (slot, blob, fields) in [
        ("input", &fx.input_blob, ciphertext_count_fields(&fx.input_blob)),
        ("keys", &fx.key_blob, key_bundle_count_fields(&fx.key_blob)),
    ] {
        for field in fields {
            // Resealing the count it already holds reproduces the blob:
            // the section bounds, and so the crafted checksums, are right.
            assert_eq!(field.rewrite(blob, u32_at(blob, field.at) as u32), **blob);
            for value in [u32::MAX, 1 << 31] {
                let crafted = field.rewrite(blob, value);
                let mut spec = good();
                match slot {
                    "input" => spec.input_blob = crafted.into(),
                    _ => spec.key_blob = crafted.into(),
                }
                // The header is intact, so the job is admitted and its
                // parse fails as a typed outcome.
                let id = server.submit(spec).expect("crafted count passes admission").id;
                let outcome = server.wait(id);
                assert_eq!(outcome.code, OutcomeCode::Malformed, "{}", outcome.detail);
                hostile += 1;
                good_ids.push(server.submit(good()).unwrap().id);
            }
        }
    }
    assert!(hostile >= 58, "sweep must cover a meaningful surface: {hostile}");

    let outcomes = server.shutdown();
    for id in good_ids {
        let outcome = outcomes.iter().find(|o| o.id == id).expect("good job outcome");
        assert!(
            outcome.is_ok(),
            "good job {id} collateral-damaged: {:?} {}",
            outcome.code,
            outcome.detail
        );
        assert_eq!(
            outcome.output.as_deref(),
            Some(fx.expected[0].as_slice()),
            "good job {id} must stay bit-exact amid hostile traffic"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// A `u32` count at byte `at` inside the sealed section `[start, end)`
/// (its checksum follows at `end`).
struct CountField {
    start: usize,
    end: usize,
    at: usize,
}

impl CountField {
    /// `blob` with the count set to `value` and the section resealed.
    fn rewrite(&self, blob: &[u8], value: u32) -> Vec<u8> {
        let mut out = blob[..self.end].to_vec();
        out[self.at..self.at + 4].copy_from_slice(&value.to_le_bytes());
        seal(&mut out, self.start);
        out.extend_from_slice(&blob[self.end + 8..]);
        out
    }
}

fn u32_at(blob: &[u8], at: usize) -> usize {
    u32::from_le_bytes(blob[at..at + 4].try_into().unwrap()) as usize
}

/// The ring-degree and limb-count fields of the polynomial block at `at`;
/// returns them and the offset just past the block.
fn poly_count_fields(blob: &[u8], at: usize) -> ([CountField; 2], usize) {
    let (n, limbs) = (u32_at(blob, at), u32_at(blob, at + 4));
    let field = |off| CountField { start: at, end: at + 9, at: at + off };
    ([field(0), field(4)], at + 9 + 8 + limbs * (4 + 8 * n + 8))
}

/// The count fields of a ciphertext blob: `n` and the limb count of `c0`
/// and of `c1`.
fn ciphertext_count_fields(blob: &[u8]) -> Vec<CountField> {
    let (c0, c1_at) = poly_count_fields(blob, 16 + 20 + 8);
    let (c1, _) = poly_count_fields(blob, c1_at);
    c0.into_iter().chain(c1).collect()
}

/// The count fields of a key bundle: the rotation count, and the digit
/// count, first per-digit limb count, and first `k0` block's `n` and limb
/// count of the relinearization key.
fn key_bundle_count_fields(blob: &[u8]) -> Vec<CountField> {
    let rotations = u32_at(blob, 16);
    let framing_end = 16 + 4 + 12 * rotations + 8;
    let meta = framing_end + 8 + 16;
    let mut end = meta + 1 + 4 + 4 + 8 + 8 + 8;
    for _ in 0..u32_at(blob, meta + 5) {
        end += 4 + 4 * u32_at(blob, end);
    }
    let ksk_field = |at| CountField { start: meta, end, at };
    let (k0, _) = poly_count_fields(blob, end + 8);
    let mut fields = vec![
        CountField { start: 16, end: framing_end, at: 16 },
        ksk_field(meta + 5),
        ksk_field(meta + 33),
    ];
    fields.extend(k0);
    fields
}

/// Submits one hostile spec: it must be refused at admission or fail as a
/// structured non-`Ok`, non-`Internal` outcome — and never disturb the
/// good jobs interleaved after it.
fn submit_hostile(
    server: &JobServer,
    spec: JobSpec,
    hostile: &mut u64,
    good_ids: &mut Vec<JobId>,
    good: &impl Fn() -> JobSpec,
) {
    *hostile += 1;
    match server.submit(spec) {
        // Rejected at the front door: structured error, nothing queued.
        Err(
            FheError::Serialization { .. }
            | FheError::ChecksumMismatch { .. }
            | FheError::ParamsMismatch { .. },
        ) => {}
        Err(other) => panic!("hostile blob rejected with unexpected class: {other}"),
        // Admitted: the deep parse in the worker must fail it cleanly.
        Ok(handle) => {
            let outcome = server.wait(handle.id);
            assert!(
                matches!(
                    outcome.code,
                    OutcomeCode::Malformed
                        | OutcomeCode::IntegrityFailure
                        | OutcomeCode::ParamsMismatch
                ),
                "hostile blob produced {:?}: {}",
                outcome.code,
                outcome.detail
            );
        }
    }
    // Interleave a fresh good job behind every hostile one.
    good_ids.push(server.submit(good()).unwrap().id);
}

// ---------------------------------------------------------------------------
// Crash durability: kill/recover, watchdog, circuit breaker, checkpoint GC.
// ---------------------------------------------------------------------------

/// A tenant that hosts a bootstrapper: deep parameters, a bootstrapped
/// program, and a serial fault-free reference output.
struct BootFx {
    id: String,
    ctx: Arc<CkksContext>,
    booter: Arc<Bootstrapper>,
    key_blob: Vec<u8>,
    input_blob: Vec<u8>,
    programs: Vec<Program>,
    expected: Vec<Vec<u8>>,
}

fn build_boot_tenant() -> BootFx {
    let params = CkksParams::builder()
        .ring_degree(64)
        .levels(20)
        .special_limbs(20)
        .limb_bits(45)
        .scale_bits(45)
        .build()
        .unwrap();
    let ctx = Arc::new(CkksContext::new(params).unwrap().with_policy(
        GuardrailPolicy::Strict {
            min_budget_bits: -5000.0,
        },
    ));
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xB007);
    let sk = ctx.keygen_sparse(8, &mut rng);
    let booter = Arc::new(Bootstrapper::new(&ctx, 8));
    let keys = booter.keygen(&ctx, &sk, KeySwitchKind::Standard, &mut rng);
    let pt = ctx.encode(&[0.9, -0.8, 0.7], ctx.default_scale(), ctx.max_level());
    let ct = ctx.encrypt(&pt, &sk, &mut rng);

    // Two program shapes with the bootstrap at different depths, so a
    // randomized kill can land before, inside, or after the bootstrap.
    let mut p0 = Program::new();
    for _ in 0..4 {
        p0 = p0.then(PipelineOp::Square).then(PipelineOp::Rescale);
    }
    p0 = p0.then(PipelineOp::Bootstrap).then(PipelineOp::Square).then(PipelineOp::Rescale);
    let mut p1 = Program::new()
        .then(PipelineOp::Square)
        .then(PipelineOp::Rescale)
        .then(PipelineOp::Bootstrap);
    for _ in 0..2 {
        p1 = p1.then(PipelineOp::Square).then(PipelineOp::Rescale);
    }
    let programs = vec![p0, p1];

    let mut exec = PipelineExecutor::new(
        &ctx,
        &keys,
        ExecutorConfig {
            checkpoint_every: 0,
            max_retries: 0,
            checkpoint_dir: None,
        },
    )
    .unwrap()
    .with_bootstrapper(&booter);
    let expected = programs
        .iter()
        .map(|p| match exec.run(&ct, p).unwrap() {
            RunOutcome::Completed(out) => ctx.serialize_ciphertext(&out),
            other => panic!("boot reference run did not complete: {other:?}"),
        })
        .collect();
    BootFx {
        id: "tenant-boot".to_string(),
        key_blob: keys.serialize(&ctx),
        input_blob: ctx.serialize_ciphertext(&ct),
        programs,
        expected,
        booter,
        ctx,
    }
}

fn restart_config(root: &std::path::Path) -> ServerConfig {
    ServerConfig {
        workers: 2,
        queue_capacity: 64,
        tenant_queue_capacity: 64,
        checkpoint_root: root.to_path_buf(),
        checkpoint_every: 1,
        backoff_base_ms: 0,
        // Every record durable before the call returns: the acknowledged-
        // implies-recoverable contract holds at any kill point.
        journal_fsync: FsyncPolicy::Always,
        ..ServerConfig::default()
    }
}

/// Appends a partial garbage record to the newest journal generation —
/// the on-disk state of a crash that died mid-append.
fn tear_journal_tail(root: &std::path::Path) {
    let dir = root.join("journal");
    let newest = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "wal"))
        .max()
        .expect("a journal generation must exist");
    let mut bytes = std::fs::read(&newest).unwrap();
    // A record header whose promised body never made it to disk.
    bytes.extend_from_slice(b"CLJR\xff\x00\x00\x00torn");
    std::fs::write(&newest, &bytes).unwrap();
}

/// The tentpole acceptance test: a multi-tenant workload (two plain
/// tenants plus one hosting a bootstrapper) is killed at randomized
/// points — before dispatch, mid-plain-pipeline, mid-bootstrap — and
/// once with a torn journal tail. Recovery must give *every*
/// acknowledged job an outcome limb-bit-identical to an uninterrupted
/// run, with exact accounting and no leaked checkpoint directories.
#[test]
fn killed_server_recovers_every_acknowledged_job_bit_identically() {
    let plain: Vec<TenantFx> = vec![build_tenant(3), build_tenant(4)];
    let boot = build_boot_tenant();
    const PLAIN_JOBS: usize = 4;

    // Kill points: fixed delays land before dispatch (0ms) or mid-flight
    // (bootstraps at these parameters straddle the longer ones); `None`
    // waits until at least two jobs have durably completed, so the sweep
    // always exercises the replayed-outcome path regardless of how slow
    // the build is.
    let kill_delays_ms = [Some(0u64), Some(8), Some(25), None];
    let torn_iteration = 2;
    let mut total_resumed = 0u64;
    let mut total_complete = 0u64;

    for (iter, &delay) in kill_delays_ms.iter().enumerate() {
        let root = std::env::temp_dir().join(format!(
            "cl-server-restart-{}-{iter}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let server = JobServer::start(restart_config(&root)).unwrap();
        for fx in &plain {
            server.register_tenant(&fx.id, Arc::clone(&fx.ctx)).unwrap();
        }
        server
            .register_tenant_with_bootstrapper(
                &boot.id,
                Arc::clone(&boot.ctx),
                Arc::clone(&boot.booter),
            )
            .unwrap();

        // (id, tenant index: 0/1 plain, 2 boot, job index)
        let mut submitted: Vec<(JobId, usize, usize)> = Vec::new();
        for (pi, program) in boot.programs.iter().enumerate() {
            let spec = JobSpec::new(
                &boot.id,
                program.serialize(boot.ctx.params_fingerprint()),
                boot.input_blob.clone(),
                boot.key_blob.clone(),
            );
            submitted.push((server.submit(spec).unwrap().id, 2, pi));
        }
        for (t, fx) in plain.iter().enumerate() {
            for j in 0..PLAIN_JOBS {
                let spec = JobSpec::new(
                    &fx.id,
                    program_for(t + 3, j).serialize(fx.ctx.params_fingerprint()),
                    fx.input_blob.clone(),
                    fx.key_blob.clone(),
                );
                submitted.push((server.submit(spec).unwrap().id, t, j));
            }
        }
        let num_jobs = submitted.len() as u64;

        match delay {
            Some(ms) => std::thread::sleep(Duration::from_millis(ms)),
            None => {
                // Outcomes are journaled (and durable) before they are
                // published, so two published outcomes guarantee two
                // replayable terminal records.
                while server.pending() > submitted.len() - 2 {
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
        server.kill();
        if iter == torn_iteration {
            tear_journal_tail(&root);
        }

        let setups = vec![
            TenantSetup {
                id: plain[0].id.clone(),
                ctx: Arc::clone(&plain[0].ctx),
                bootstrapper: None,
            },
            TenantSetup {
                id: plain[1].id.clone(),
                ctx: Arc::clone(&plain[1].ctx),
                bootstrapper: None,
            },
            TenantSetup {
                id: boot.id.clone(),
                ctx: Arc::clone(&boot.ctx),
                bootstrapper: Some(Arc::clone(&boot.booter)),
            },
        ];
        let (server, report) = JobServer::recover(restart_config(&root), &setups).unwrap();

        // Accounting: every acknowledged job is either already complete
        // (outcome reconstructed from the journal) or re-admitted; none
        // vanish, none are orphaned, and the torn tail is absorbed as
        // skipped — never an error.
        assert_eq!(
            report.jobs_resumed + report.jobs_already_complete,
            num_jobs,
            "iter {iter}: every acknowledged job must be accounted: {report:?}"
        );
        assert_eq!(report.jobs_orphaned, 0, "iter {iter}: {report:?}");
        if iter == torn_iteration {
            assert!(
                report.records_skipped >= 1,
                "iter {iter}: the torn tail must be counted: {report:?}"
            );
        } else {
            assert_eq!(report.records_skipped, 0, "iter {iter}: {report:?}");
        }
        total_resumed += report.jobs_resumed;
        total_complete += report.jobs_already_complete;

        for &(id, t, j) in &submitted {
            let outcome = server.wait(id);
            let expected = match t {
                2 => &boot.expected[j],
                _ => &plain[t].expected[j],
            };
            assert_eq!(
                outcome.code,
                OutcomeCode::Ok,
                "iter {iter}, t{t} j{j}: recovered job failed: {}",
                outcome.detail
            );
            assert_eq!(
                outcome.output.as_deref(),
                Some(expected.as_slice()),
                "iter {iter}, t{t} j{j}: recovered output must be \
                 limb-bit-identical to an uninterrupted run"
            );
        }
        server.shutdown();

        // Checkpoint GC: after a graceful shutdown no per-job directory
        // survives, only the journal and the tenant roots.
        for fx_id in [&plain[0].id, &plain[1].id, &boot.id] {
            let tenant_root = root.join(fx_id);
            let leftovers: Vec<_> = std::fs::read_dir(&tenant_root)
                .map(|rd| {
                    rd.flatten()
                        .filter(|e| e.file_name().to_string_lossy().starts_with("job-"))
                        .collect()
                })
                .unwrap_or_default();
            assert!(
                leftovers.is_empty(),
                "iter {iter}: leaked checkpoint dirs for {fx_id}: {leftovers:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }
    // Across the sweep, the kill must have caught jobs in both states:
    // some mid-flight (resumed from checkpoints) and — at the longer
    // delays — some already durably complete.
    assert!(total_resumed > 0, "no kill point caught a job mid-flight");
    assert!(
        total_complete > 0,
        "no kill point let any job finish first; delays are miscalibrated"
    );
}

/// Watchdog acceptance: a job whose fault plan stalls one micro-op far
/// past the stall budget is detected by the supervisor, aborted at the
/// next heartbeat check, and re-dispatched from its checkpoint — still
/// converging bit-identically.
#[test]
fn watchdog_detects_stalled_job_and_redispatches_it() {
    let fx = build_tenant(5);
    let root = std::env::temp_dir().join(format!("cl-server-stall-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let server = JobServer::start(ServerConfig {
        workers: 1,
        checkpoint_root: root.clone(),
        checkpoint_every: 1,
        backoff_base_ms: 0,
        max_job_retries: 3,
        stall_budget: Duration::from_millis(60),
        ..ServerConfig::default()
    })
    .unwrap();
    server.register_tenant(&fx.id, Arc::clone(&fx.ctx)).unwrap();

    // program_for(5, 1) has four micro-ops; the stall must *not* hit the
    // last one — the stall verdict only surfaces at the next micro-op's
    // heartbeat check, so a job that hangs on its final op just finishes.
    let mut spec = JobSpec::new(
        &fx.id,
        program_for(5, 1).serialize(fx.ctx.params_fingerprint()),
        fx.input_blob.clone(),
        fx.key_blob.clone(),
    );
    // No bit flips — only a 400ms hang at the second micro-op, nearly 7x
    // the stall budget, so the supervisor (ticking at budget/4) cannot
    // miss it even on a slow machine.
    spec.fault_plan = Some(FaultPlan::new(0x57A11, 0.0).with_stall_point(1, 400));
    let handle = server.submit(spec).unwrap();
    let outcome = server.wait(handle.id);

    assert_eq!(
        outcome.code,
        OutcomeCode::Ok,
        "stalled job must be re-dispatched to completion: {}",
        outcome.detail
    );
    assert_eq!(
        outcome.output.as_deref(),
        Some(fx.expected[1].as_slice()),
        "re-dispatched output must be limb-bit-identical"
    );
    assert!(
        outcome.retries >= 1,
        "the stall verdict must consume a server-level retry"
    );
    let report = server.tenant_report(&fx.id).unwrap();
    assert!(
        report.watchdog_stalls >= 1,
        "the watchdog must have charged the stall: {report:?}"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Circuit-breaker acceptance: a tenant whose jobs keep failing with
/// integrity faults is quarantined at admission after the configured
/// threshold, while a clean tenant on the same server is untouched.
#[test]
fn poisoned_tenant_trips_breaker_without_collateral_damage() {
    let bad = build_tenant(5);
    let good = build_tenant(6);
    let root = std::env::temp_dir().join(format!("cl-server-breaker-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let server = JobServer::start(ServerConfig {
        workers: 1,
        checkpoint_root: root.clone(),
        backoff_base_ms: 0,
        executor_retries: 0,
        max_job_retries: 0,
        breaker_threshold: 2,
        // Long enough that the test never races the half-open transition.
        breaker_backoff_ms: 60_000,
        ..ServerConfig::default()
    })
    .unwrap();
    server.register_tenant(&bad.id, Arc::clone(&bad.ctx)).unwrap();
    server.register_tenant(&good.id, Arc::clone(&good.ctx)).unwrap();

    // A flipped limb-payload byte: passes the admission header peek,
    // fails the worker's checksummed deep parse as an integrity fault.
    let corrupt_input = {
        let mut blob = bad.input_blob.clone();
        let pos = blob.len() - 16;
        blob[pos] ^= 1 << 3;
        blob
    };
    let corrupt_spec = || {
        let mut spec = JobSpec::new(
            &bad.id,
            program_for(5, 0).serialize(bad.ctx.params_fingerprint()),
            bad.input_blob.clone(),
            bad.key_blob.clone(),
        );
        spec.input_blob = corrupt_input.clone().into();
        spec
    };

    // Two consecutive breaker-class failures reach the threshold.
    for i in 0..2 {
        let outcome = server.wait(server.submit(corrupt_spec()).unwrap().id);
        assert_eq!(
            outcome.code,
            OutcomeCode::IntegrityFailure,
            "poison job {i} must fail as an integrity fault: {}",
            outcome.detail
        );
    }
    // The third submission is refused at the door.
    match server.submit(corrupt_spec()) {
        Err(FheError::TenantQuarantined { retry_after_ms, .. }) => {
            assert!(retry_after_ms > 0, "quarantine needs an actionable hint");
        }
        other => panic!("tripped breaker must quarantine, got {other:?}"),
    }

    // The clean tenant is completely unaffected — before and after.
    for j in 0..2 {
        let spec = JobSpec::new(
            &good.id,
            program_for(6, j).serialize(good.ctx.params_fingerprint()),
            good.input_blob.clone(),
            good.key_blob.clone(),
        );
        let outcome = server.wait(server.submit(spec).unwrap().id);
        assert!(outcome.is_ok(), "clean tenant hit: {}", outcome.detail);
        assert_eq!(outcome.output.as_deref(), Some(good.expected[j].as_slice()));
    }

    let bad_report = server.tenant_report(&bad.id).unwrap();
    assert_eq!(bad_report.breaker.state, "open", "{bad_report:?}");
    assert_eq!(bad_report.breaker.trips, 1);
    assert_eq!(bad_report.breaker_rejections, 1);
    let good_report = server.tenant_report(&good.id).unwrap();
    assert_eq!(good_report.breaker.state, "closed");
    assert_eq!(good_report.breaker_rejections, 0);
    assert_eq!(good_report.jobs_failed, 0);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Checkpoint GC regression: `recover()` sweeps `job-<id>` directories
/// that no longer correspond to a live job, and `shutdown()` leaves no
/// per-job directories behind.
#[test]
fn recover_sweeps_orphaned_checkpoint_dirs() {
    let fx = build_tenant(5);
    let root = std::env::temp_dir().join(format!("cl-server-gc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let server = JobServer::start(restart_config(&root)).unwrap();
    server.register_tenant(&fx.id, Arc::clone(&fx.ctx)).unwrap();
    let ids: Vec<JobId> = (0..2)
        .map(|j| {
            let spec = JobSpec::new(
                &fx.id,
                program_for(5, j).serialize(fx.ctx.params_fingerprint()),
                fx.input_blob.clone(),
                fx.key_blob.clone(),
            );
            server.submit(spec).unwrap().id
        })
        .collect();
    for &id in &ids {
        assert!(server.wait(id).is_ok());
    }
    server.kill();

    // Debris from a hypothetical previous incarnation: directories for
    // jobs the journal knows nothing about.
    let tenant_root = root.join(&fx.id);
    for orphan in [777u64, 778] {
        std::fs::create_dir_all(tenant_root.join(format!("job-{orphan}"))).unwrap();
    }

    let setups = [TenantSetup {
        id: fx.id.clone(),
        ctx: Arc::clone(&fx.ctx),
        bootstrapper: None,
    }];
    let (server, report) = JobServer::recover(restart_config(&root), &setups).unwrap();
    assert_eq!(report.jobs_already_complete, 2, "{report:?}");
    assert_eq!(report.jobs_resumed, 0, "{report:?}");
    assert!(
        report.checkpoint_dirs_swept >= 2,
        "both orphan dirs must be collected: {report:?}"
    );
    assert!(!tenant_root.join("job-777").exists());
    assert!(!tenant_root.join("job-778").exists());

    // Replayed outcomes carry the original payloads bit-identically.
    for (j, &id) in ids.iter().enumerate() {
        let outcome = server.outcome(id).expect("replayed outcome");
        assert_eq!(outcome.output.as_deref(), Some(fx.expected[j].as_slice()));
    }
    server.shutdown();
    let leftovers = std::fs::read_dir(&tenant_root)
        .unwrap()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("job-"))
        .count();
    assert_eq!(leftovers, 0, "shutdown must leave no per-job dirs");
    let _ = std::fs::remove_dir_all(&root);
}

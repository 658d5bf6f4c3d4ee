//! Server smoke: a multi-tenant load against the job server — three
//! clean tenants plus one poisoned tenant whose jobs carry a seeded
//! fault plan and the occasional corrupted input blob. Every surviving
//! job must come back limb-bit-identical to a serial fault-free run, every
//! poisoned failure must surface as a structured outcome code, and every
//! clean tenant's op ledger must equal its jobs' serial counts although
//! two workers run at once.
//!
//! `scripts/verify.sh` runs this as a tier-1 gate.
//!
//! Run with: `cargo run --release --example server_smoke`

use std::sync::Arc;

use craterlake::boot::BootstrapKeys;
use craterlake::ckks::faults::FaultPlan;
use craterlake::ckks::{CkksContext, CkksParams, FheError, GuardrailPolicy, KeySwitchKind};
use craterlake::runtime::{ExecutorConfig, PipelineExecutor, PipelineOp, Program, RunOutcome};
use craterlake::server::{JobServer, JobSpec, OutcomeCode, ServerConfig};
use cl_trace::OpSnapshot;

const TENANTS: usize = 4;
const JOBS: usize = 6;
const POISONED: usize = 0;

fn program_for(j: usize) -> Program {
    match j % 3 {
        0 => Program::new()
            .then(PipelineOp::Square)
            .then(PipelineOp::Rescale)
            .then(PipelineOp::Rotate(1)),
        1 => Program::new()
            .then(PipelineOp::AddPlain(vec![0.25, -0.125]))
            .then(PipelineOp::Conjugate),
        _ => Program::new()
            .then(PipelineOp::Rotate(2))
            .then(PipelineOp::Square)
            .then(PipelineOp::Rescale),
    }
}

struct Tenant {
    id: String,
    ctx: Arc<CkksContext>,
    key_blob: Vec<u8>,
    input_blob: Vec<u8>,
    expected: Vec<Vec<u8>>,
    /// The op counts of the serial reference runs, summed.
    serial_ops: OpSnapshot,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = rand::thread_rng();
    let mut tenants = Vec::with_capacity(TENANTS);
    for t in 0..TENANTS {
        let params = CkksParams::builder()
            .ring_degree(64)
            .levels(4)
            .special_limbs(4)
            .limb_bits(45)
            .scale_bits(40)
            .build()?;
        let ctx = Arc::new(CkksContext::new(params)?.with_policy(GuardrailPolicy::Strict {
            min_budget_bits: -200.0,
        }));
        let sk = ctx.keygen_sparse(8, &mut rng);
        let keys = BootstrapKeys::generate(&ctx, &sk, KeySwitchKind::Standard, &[1, 2], &mut rng);
        let pt = ctx.encode(&[0.5, -0.25, 0.1 * t as f64], ctx.default_scale(), ctx.max_level());
        let ct = ctx.encrypt(&pt, &sk, &mut rng);
        // Serial fault-free references, one per job shape.
        let mut reference = PipelineExecutor::new(
            &ctx,
            &keys,
            ExecutorConfig {
                checkpoint_every: 0,
                max_retries: 1,
                checkpoint_dir: None,
            },
        )?;
        let mut expected = Vec::with_capacity(JOBS);
        let mut serial_ops = OpSnapshot::default();
        for j in 0..JOBS {
            let before = OpSnapshot::capture();
            let run = reference.run(&ct, &program_for(j))?;
            serial_ops = serial_ops.plus(&OpSnapshot::capture().delta_since(&before));
            match run {
                RunOutcome::Completed(out) => expected.push(ctx.serialize_ciphertext(&out)),
                RunOutcome::Crashed => unreachable!("reference runs have no fault plan"),
            }
        }
        tenants.push(Tenant {
            id: format!("tenant-{t}"),
            key_blob: keys.serialize(&ctx),
            input_blob: ctx.serialize_ciphertext(&ct),
            expected,
            serial_ops,
            ctx,
        });
    }

    let root = std::env::temp_dir().join(format!("cl_server_smoke_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let server = JobServer::start(ServerConfig {
        workers: 2,
        checkpoint_root: root.clone(),
        checkpoint_every: 2,
        backoff_base_ms: 0,
        ..ServerConfig::default()
    })?;
    for tenant in &tenants {
        server.register_tenant(&tenant.id, Arc::clone(&tenant.ctx))?;
    }

    println!(
        "submitting {} jobs across {TENANTS} tenants (tenant-{POISONED} is poisoned) ...",
        TENANTS * JOBS
    );
    let mut handles = Vec::new();
    for j in 0..JOBS {
        for (t, tenant) in tenants.iter().enumerate() {
            let mut spec = JobSpec::new(
                &tenant.id,
                program_for(j).serialize(tenant.ctx.params_fingerprint()),
                tenant.input_blob.clone(),
                tenant.key_blob.clone(),
            );
            if t == POISONED {
                if j % 3 == 2 {
                    // Corrupt the input payload past the header: admission
                    // passes, the worker's deep parse must reject it.
                    let mut corrupted = tenant.input_blob.clone();
                    let mid = 16 + (corrupted.len() - 16) / 2;
                    corrupted[mid] ^= 0x10;
                    spec.input_blob = corrupted.into();
                } else {
                    spec.fault_plan =
                        Some(FaultPlan::new(0xFA_u64 + j as u64, 0.25).with_kill_point(2));
                }
            }
            let handle = loop {
                match server.submit(spec.clone()) {
                    Ok(h) => break h,
                    Err(FheError::Overloaded { retry_after_ms, .. }) => {
                        std::thread::sleep(std::time::Duration::from_millis(retry_after_ms.min(5)));
                    }
                    Err(other) => return Err(other.into()),
                }
            };
            handles.push((t, j, handle.id));
        }
    }

    server.wait_idle();
    let reports: Vec<_> = tenants
        .iter()
        .map(|tenant| {
            server
                .tenant_report(&tenant.id)
                .expect("tenant is registered")
        })
        .collect();
    let outcomes = server.shutdown();
    let mut ok = 0u64;
    let mut contained = 0u64;
    for (t, j, id) in handles {
        let outcome = outcomes
            .iter()
            .find(|o| o.id == id)
            .expect("every admitted job has an outcome");
        assert_ne!(
            outcome.code,
            OutcomeCode::Internal,
            "unstructured failure: {}",
            outcome.detail
        );
        if outcome.is_ok() {
            ok += 1;
            assert_eq!(
                outcome.output.as_deref(),
                Some(tenants[t].expected[j].as_slice()),
                "tenant-{t} job {j}: output must be bit-identical to the serial reference"
            );
        } else {
            contained += 1;
            assert_eq!(t, POISONED, "only the poisoned tenant may fail");
        }
    }
    for (t, report) in reports.iter().enumerate() {
        if t != POISONED {
            assert_eq!(report.jobs_failed, 0, "clean tenant {t} was damaged");
            assert_eq!(report.recovery.faults_injected, 0);
            // Each job's counts are its own however many workers run
            // beside it. Hint regeneration follows the shared hint cache's
            // state, not the job, so it is left out.
            let compute = |ops: OpSnapshot| OpSnapshot { hint_regen: 0, ..ops };
            assert_eq!(
                compute(report.ops),
                compute(tenants[t].serial_ops),
                "clean tenant {t}: op ledger must equal its jobs' serial counts"
            );
        }
        println!(
            "  {}: ok={} failed={} shed={} retries={} injected={} detected={} \
             checkpoints={} cache hit/miss={}/{}",
            report.tenant,
            report.jobs_ok,
            report.jobs_failed,
            report.jobs_shed,
            report.retries_spent,
            report.recovery.faults_injected,
            report.recovery.faults_detected,
            report.recovery.checkpoints_written,
            report.key_cache.hits,
            report.key_cache.misses,
        );
    }
    assert!(
        ok >= ((TENANTS - 1) * JOBS) as u64,
        "all clean-tenant jobs must survive"
    );
    assert!(
        contained >= 1,
        "the poisoned tenant never failed — the smoke is vacuous"
    );
    let _ = std::fs::remove_dir_all(&root);
    println!(
        "server smoke: OK ({ok} bit-identical completions, {contained} contained failures)"
    );
    Ok(())
}

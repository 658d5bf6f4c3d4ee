//! What the three functional workloads share: a served identity (context,
//! program, keys, blobs), the client side of one job, and seeded inputs.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use cl_boot::{BootstrapKeys, Bootstrapper};
use cl_ckks::{CkksContext, CkksParams, GuardrailPolicy, KeySwitchKind, SecretKey};
use cl_runtime::{ExecutorConfig, PipelineExecutor, Program, RunOutcome};
use cl_server::{Blob, JobServer, JobSpec, ServerConfig};
use rand::rngs::StdRng;
use rand::Rng;

use crate::spans::SpanLog;
use crate::stats::ms;

/// One tenant identity: everything needed to submit its jobs to a server
/// and to replay them on a direct executor.
pub struct Served {
    pub tenant: String,
    pub ctx: Arc<CkksContext>,
    pub booter: Option<Arc<Bootstrapper>>,
    pub kind: KeySwitchKind,
    pub sk: SecretKey,
    pub keys: BootstrapKeys,
    pub key_blob: Blob,
    pub program: Program,
    pub program_blob: Blob,
    pub input_level: usize,
}

pub fn strict_ctx(
    ring: usize,
    levels: usize,
    limb_bits: u32,
    scale_bits: u32,
    min_budget_bits: f64,
) -> Arc<CkksContext> {
    let params = CkksParams::builder()
        .ring_degree(ring)
        .levels(levels)
        .special_limbs(levels)
        .limb_bits(limb_bits)
        .scale_bits(scale_bits)
        .build()
        .expect("benchmark parameter set is valid");
    Arc::new(
        CkksContext::new(params)
            .expect("benchmark context builds")
            .with_policy(GuardrailPolicy::Strict { min_budget_bits }),
    )
}

impl Served {
    /// Generates the secret key and the key bundle (the bootstrapper's own
    /// steps plus `steps`), and serializes program and keys — the client
    /// side of tenant set-up.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        tenant: &str,
        ctx: Arc<CkksContext>,
        booter: Option<Arc<Bootstrapper>>,
        kind: KeySwitchKind,
        sparse_h: usize,
        steps: &[i64],
        program: Program,
        input_level: usize,
        rng: &mut StdRng,
        spans: &SpanLog,
    ) -> Self {
        let (sk, _) = spans.time("setup.keygen_secret", 0, || {
            ctx.keygen_sparse(sparse_h, rng)
        });
        let (keys, _) = spans.time("setup.keygen_bundle", 0, || match &booter {
            // `Bootstrapper::keygen` also fills the transform precompute.
            Some(b) => {
                let boot_keys = b.keygen(&ctx, &sk, kind, rng);
                let mut all = boot_keys.rotation_steps();
                if steps.iter().all(|s| all.contains(s)) {
                    boot_keys
                } else {
                    all.extend_from_slice(steps);
                    BootstrapKeys::generate(&ctx, &sk, kind, &all, rng)
                }
            }
            None => BootstrapKeys::generate(&ctx, &sk, kind, steps, rng),
        });
        let ((key_blob, program_blob), _) = spans.time("setup.serialize", 0, || {
            (
                Blob::new(keys.serialize(&ctx)),
                Blob::new(program.serialize(ctx.params_fingerprint())),
            )
        });
        Self {
            tenant: tenant.to_string(),
            ctx,
            booter,
            kind,
            sk,
            keys,
            key_blob,
            program,
            program_blob,
            input_level,
        }
    }

    pub fn register(&self, server: &JobServer) {
        match &self.booter {
            Some(b) => server.register_tenant_with_bootstrapper(
                &self.tenant,
                Arc::clone(&self.ctx),
                Arc::clone(b),
            ),
            None => server.register_tenant(&self.tenant, Arc::clone(&self.ctx)),
        }
        .expect("tenant registers");
    }

    pub fn slots(&self) -> usize {
        self.ctx.params().slots()
    }

    /// Client side, before the server: encode, encrypt, serialize.
    pub fn seal(&self, values: &[f64], rng: &mut StdRng, spans: &SpanLog, job: u64) -> Blob {
        let ctx = &self.ctx;
        let (pt, _) = spans.time("client.encode", job, || {
            ctx.encode(values, ctx.default_scale(), self.input_level)
        });
        let (ct, _) = spans.time("client.encrypt", job, || ctx.encrypt(&pt, &self.sk, rng));
        let (blob, _) = spans.time("client.serialize", job, || ctx.serialize_ciphertext(&ct));
        Blob::new(blob)
    }

    /// Client side, after the server: deserialize, decrypt, decode.
    pub fn open(&self, blob: &[u8], spans: &SpanLog, job: u64) -> Option<Vec<f64>> {
        let ctx = &self.ctx;
        let (ct, _) = spans.time("client.deserialize", job, || {
            ctx.try_deserialize_ciphertext(blob).ok()
        });
        let ct = ct?;
        let (pt, _) = spans.time("client.decrypt", job, || ctx.decrypt(&ct, &self.sk));
        let (vals, _) = spans.time("client.decode", job, || ctx.decode(&pt, self.slots()));
        Some(vals)
    }

    pub fn spec(&self, input: Blob) -> JobSpec {
        JobSpec::new(
            &self.tenant,
            self.program_blob.clone(),
            input,
            self.key_blob.clone(),
        )
    }

    /// A direct executor over this identity's parsed keys (no server, no
    /// journal), with durable checkpoints every `checkpoint_every` micro-ops
    /// under `dir` when non-zero.
    pub fn executor(&self, checkpoint_every: u64, dir: Option<PathBuf>) -> PipelineExecutor<'_> {
        let exec = PipelineExecutor::new(
            &self.ctx,
            &self.keys,
            ExecutorConfig {
                checkpoint_every,
                max_retries: 1,
                checkpoint_dir: dir,
            },
        )
        .expect("direct executor builds");
        match &self.booter {
            Some(b) => exec.with_bootstrapper(b),
            None => exec,
        }
    }

    /// Runs the program on a direct executor; the serialized output is the
    /// bit-exact reference a served job must reproduce.
    pub fn run_direct(&self, exec: &mut PipelineExecutor<'_>, input: &[u8]) -> Vec<u8> {
        let ct = self
            .ctx
            .try_deserialize_ciphertext(input)
            .expect("own input blob parses");
        match exec.run_graph(std::slice::from_ref(&ct), &self.program) {
            Ok(RunOutcome::Completed(out)) => self.ctx.serialize_ciphertext(&out),
            other => panic!("direct run of {} did not complete: {other:?}", self.tenant),
        }
    }
}

/// What the client observed for one job.
pub struct JobSample {
    /// Whole job, `encode` through `decode`.
    pub total_ms: f64,
    /// `submit` + `wait`: the part spent in the server.
    pub served_ms: f64,
    pub submit_us: f64,
    /// max |decrypt − plain reference|; `None` when the job failed.
    pub max_err: Option<f64>,
}

/// One closed-loop client job: seal, submit, wait, open, compare against the
/// plain reference.
pub fn client_job(
    server: &JobServer,
    served: &Served,
    values: &[f64],
    reference: &[f64],
    rng: &mut StdRng,
    spans: &SpanLog,
    job: u64,
) -> JobSample {
    let (sample, total) = spans.time("job", job, || {
        let input = served.seal(values, rng, spans, job);
        let t = Instant::now();
        let (handle, submit) =
            spans.time("server.submit", job, || server.submit(served.spec(input)));
        let outcome = handle
            .ok()
            .map(|h| spans.time("server.wait", job, || server.wait(h.id)).0);
        let served_ms = ms(t.elapsed());
        let max_err = outcome
            .and_then(|o| o.output)
            .and_then(|blob| served.open(&blob, spans, job))
            .map(|got| max_abs_diff(&got, reference));
        (served_ms, crate::stats::us(submit), max_err)
    });
    JobSample {
        total_ms: ms(total),
        served_ms: sample.0,
        submit_us: sample.1,
        max_err: sample.2,
    }
}

pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

pub fn precision_bits(max_err: f64) -> f64 {
    -max_err.max(f64::MIN_POSITIVE).log2()
}

/// `slots` values uniform in `[-bound, bound]`.
pub fn seeded_vector(rng: &mut StdRng, slots: usize, bound: f64) -> Vec<f64> {
    (0..slots).map(|_| rng.gen_range(-bound..bound)).collect()
}

/// Where a run keeps its journal and checkpoints: inside the checkout, under
/// the build directory (so `.gitignore` already covers it). A fresh
/// directory per process, removed on drop.
pub struct WorkRoot(pub PathBuf);

impl WorkRoot {
    pub fn new(workload: &str) -> Self {
        let base = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
        let dir = base
            .join("work")
            .join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("work root is creatable inside the checkout");
        Self(dir)
    }

    pub fn sub(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Server configuration with only the named fields moved off their
/// defaults; the environment overrides the defaults read (`CL_*`) are
/// cleared by `run.sh`.
pub fn server_config(
    root: PathBuf,
    workers: usize,
    checkpoint_every: u64,
    journal: bool,
) -> ServerConfig {
    ServerConfig {
        workers,
        checkpoint_root: root,
        checkpoint_every,
        journal,
        ..ServerConfig::default()
    }
}

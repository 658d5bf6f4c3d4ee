//! `boot_chain_1k`: unbounded depth, the paper's title claim.
//!
//! Why this workload: `cl-boot` (dense BSGS transforms and EvalMod at 20
//! limbs of 8 KiB) is almost all of the job. Per-call overhead and
//! allocation dominate here where `lola_mlp_8k` is bandwidth-bound, so a
//! kernel change tuned for big N that hurts small N shows on this one.

use std::sync::Arc;

use std::time::Instant;

use cl_boot::{BootstrapKeys, Bootstrapper};
use cl_ckks::KeySwitchKind;
use cl_runtime::{PipelineOp, Program};
use cl_server::JobServer;

use crate::closed::Closed;
use crate::functional::{
    max_abs_diff, precision_bits, seeded_vector, server_config, strict_ctx, Served, WorkRoot,
};
use crate::metrics::Metrics;
use crate::spans::SpanLog;
use crate::stats::{ms, rng_for};
use crate::RunArgs;

pub struct Shape {
    pub ring: usize,
    /// Refreshes in the chain: `[2 iterations → Bootstrap] × refreshes → 2
    /// iterations`.
    pub refreshes: usize,
}

/// 20 levels, 45-bit limbs and scale, sparse secret of weight 8: the
/// smallest budget the bootstrapper's depth (13) fits in with four usable
/// levels per refresh.
pub const LEVELS: usize = 20;
pub const SPARSE_H: usize = 8;
/// Input level: two iterations (two levels each) land on level 1, where a
/// bootstrap is due.
pub const INPUT_LEVEL: usize = 5;
/// The server default, named because this workload pays for it per job.
pub const CHECKPOINT_EVERY: u64 = 4;

impl Shape {
    pub fn full() -> Self {
        Self {
            ring: 1024,
            refreshes: 3,
        }
    }

    pub fn smoke() -> Self {
        Self {
            ring: 128,
            refreshes: 1,
        }
    }

    pub fn iterations(&self) -> usize {
        2 * (self.refreshes + 1)
    }
}

/// Per-slot multiplier in `[0.8, 1.0]` and offset in `[-0.3, -0.1]`: they
/// keep every iterate inside ±0.5, the range the sine approximation in
/// EvalMod supports.
pub fn weights(slots: usize) -> (Vec<f64>, Vec<f64>) {
    let w = (0..slots)
        .map(|k| 0.8 + 0.2 * ((k * 7) % 11) as f64 / 10.0)
        .collect();
    let b = (0..slots)
        .map(|k| -0.3 + 0.2 * ((k * 5) % 13) as f64 / 12.0)
        .collect();
    (w, b)
}

/// One iteration: `x ← (rot₁(w ⊙ x) + b)²`, two levels.
pub fn iteration(program: Program, w: &[f64], b: &[f64]) -> Program {
    program
        .then(PipelineOp::MulPlainRescale(w.to_vec()))
        .then(PipelineOp::Rotate(1))
        .then(PipelineOp::AddPlain(b.to_vec()))
        .then(PipelineOp::Square)
        .then(PipelineOp::Rescale)
}

/// The chain, with `PipelineOp::Bootstrap` declared explicitly.
pub fn program(shape: &Shape) -> Program {
    let (w, b) = weights(shape.ring / 2);
    let mut p = Program::new();
    for _ in 0..shape.refreshes {
        p = iteration(iteration(p, &w, &b), &w, &b).then(PipelineOp::Bootstrap);
    }
    iteration(iteration(p, &w, &b), &w, &b)
}

/// `iterations` of the same iteration over plain slot vectors (bootstrap is
/// the identity).
pub fn iterate_plain(input: &[f64], iterations: usize) -> Vec<f64> {
    let slots = input.len();
    let (w, b) = weights(slots);
    let mut x = input.to_vec();
    for _ in 0..iterations {
        x = (0..slots)
            .map(|i| {
                let j = (i + 1) % slots;
                let v = w[j] * x[j] + b[i];
                v * v
            })
            .collect();
    }
    x
}

fn setup(
    shape: &Shape,
    args: &RunArgs,
    root: &WorkRoot,
    rep: usize,
    spans: &SpanLog,
) -> (Served, JobServer) {
    let (ctx, _) = spans.time("setup.context", 0, || {
        strict_ctx(shape.ring, LEVELS, 45, 45, -1e9)
    });
    let (booter, _) = spans.time("setup.bootstrapper", 0, || {
        Arc::new(Bootstrapper::new(&ctx, SPARSE_H))
    });
    let served = Served::new(
        "boot",
        ctx,
        Some(booter),
        KeySwitchKind::Boosted { digits: 1 },
        SPARSE_H,
        &[1],
        program(shape),
        INPUT_LEVEL,
        &mut rng_for(args.seed, 1),
        spans,
    );
    let (server, _) = spans.time("setup.server_start", 0, || {
        let server = JobServer::start(server_config(
            root.sub(&format!("srv{rep}")),
            1,
            CHECKPOINT_EVERY,
            args.journal,
        ))
        .expect("server starts");
        served.register(&server);
        server
    });
    (served, server)
}

/// `cl-boot` outside the job: what the transform precompute costs in time
/// and memory, and the precision of one standalone refresh.
fn boot_metrics(served: &Served, m: &mut Metrics) {
    let ctx = &*served.ctx;
    let mut rng = rng_for(0, 7);
    // Precompute = building the transform diagonals plus encoding them for
    // the two levels a bootstrap visits, which `keygen` does eagerly: time
    // `keygen` against key generation alone over the same steps.
    let rss_before = crate::host::rss_mib();
    let t = Instant::now();
    let fresh = Bootstrapper::new(ctx, SPARSE_H);
    let keys = fresh.keygen(ctx, &served.sk, served.kind, &mut rng);
    let with_precompute = ms(t.elapsed());
    m.set(
        "boot.precompute_mib",
        (crate::host::rss_mib() - rss_before).max(0.0),
    );
    let t = Instant::now();
    let keys_only = BootstrapKeys::generate(
        ctx,
        &served.sk,
        served.kind,
        &keys.rotation_steps(),
        &mut rng,
    );
    m.set(
        "boot.precompute_ms",
        (with_precompute - ms(t.elapsed())).max(0.0),
    );
    drop(keys_only);

    // One refresh of an exhausted (level-1) ciphertext.
    let values = seeded_vector(&mut rng, served.slots(), 0.5);
    let ct = ctx.encrypt(
        &ctx.encode(&values, ctx.default_scale(), 1),
        &served.sk,
        &mut rng,
    );
    let booter = served
        .booter
        .as_ref()
        .expect("this workload hosts a bootstrapper");
    let refreshed = booter
        .try_bootstrap(ctx, &ct, &served.keys)
        .expect("standalone bootstrap");
    let got = ctx.decode(&ctx.decrypt(&refreshed, &served.sk), served.slots());
    m.set(
        "boot.precision_bits",
        precision_bits(max_abs_diff(&got, &values)),
    );
}

pub fn workload(smoke: bool) -> Closed {
    let shape = std::rc::Rc::new(if smoke { Shape::smoke() } else { Shape::full() });
    let s1 = std::rc::Rc::clone(&shape);
    Closed {
        name: "boot_chain_1k",
        // 1.3 s per job at the seed commit on the 2-core reference host.
        jobs_per_run_second: 0.77,
        err_bound: 2e-3,
        checkpoint_every: CHECKPOINT_EVERY,
        trace_jobs: 4,
        setup: Box::new(move |args, root, rep, spans| setup(&s1, args, root, rep, spans)),
        reference: Box::new(move |input| iterate_plain(input, shape.iterations())),
        // `predict_program` rejects `PipelineOp::Bootstrap`, so
        // compiler.predict_exact reads 0 here until it learns to.
        extra: Box::new(|served, _, _, m| boot_metrics(served, m)),
    }
}

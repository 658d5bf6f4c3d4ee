//! `serve_mix`: many tenants on one evaluator, the deployment shape of the
//! paper's Sec. 2.
//!
//! Why this workload: it is the only one where `cl-server` (admission,
//! queue wait, journal, key load) and `cl-runtime` (checkpoint encode and
//! write) do real work, and where the keyswitch layer is used differently —
//! Standard digits, and hints regenerated per use because sixteen client
//! identities cycle through caches sized for fewer. A keyswitch or caching
//! change that helps the warm Boosted path of `lola_mlp_8k` and costs the
//! cold or Standard path shows here.
//!
//! Every server setting is the default except `workers = nproc` and the
//! checkpoint cadence (see `CHECKPOINT_EVERY`); the limb pool is pinned to
//! one thread, so parallelism comes from workers only.
//!
//! Two phases over the same seeded job mix, every output checked bit for
//! bit against a serial direct-executor reference computed in set-up:
//! `sat` (closed loop, `2 × workers` clients) gives `jobs_per_s`; `rate`
//! (open loop, Poisson arrivals at a frozen rate, latency counted from the
//! scheduled send time) gives `job_p50_ms`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cl_apps::{eval_plain, lola_layer_runnable};
use cl_boot::Bootstrapper;
use cl_ckks::{HintCache, KeySwitchKind};
use cl_compiler::{lower_to_program, LowerOptions};
use cl_runtime::{PipelineOp, Program};
use cl_server::{Blob, JobServer};
use rand::rngs::StdRng;
use rand::Rng;

use crate::closed::untraced_metric;
use crate::functional::{max_abs_diff, seeded_vector, server_config, strict_ctx, Served, WorkRoot};
use crate::json::Json;
use crate::metrics::Metrics;
use crate::probes::{self, Reps};
use crate::spans::SpanLog;
use crate::stats::{median, ms, percentile, rng_for};
use crate::{Outcome, RunArgs};

/// Open-loop arrival rate, jobs per second: calibrated once to about 35 %
/// of this host's saturation throughput at the seed commit, then frozen.
pub const RATE_PER_S: f64 = 12.0;
/// Jobs per second of `--seconds` in each phase (frozen; a third of the
/// run saturates, two thirds run at `RATE_PER_S`).
const SAT_JOBS_PER_RUN_SECOND: f64 = 11.2;
const RATE_JOBS_PER_RUN_SECOND: f64 = 8.0;
/// `jobs_per_s` is the median over this many consecutive blocks of
/// completions, so that one machine stall cannot move it.
const BLOCKS: usize = 4;
const SETUP_REPS: usize = 3;
/// Checkpoint cadence in micro-ops: one checkpoint mid-run for tenant `a`
/// (about 70 micro-ops) and one at completion for every job. Not the
/// server default of 4: at 4 this mix writes 18 MiB of checkpoints per job
/// — some 450 MB/s — and every rewrite of a checkpoint slot is flushed to
/// the checkout's disk (137 MB/s on the reference host). Throughput then
/// follows the state of the disk (13 to 28 jobs/s from one run to the next)
/// and the benchmark may not write outside its checkout. `boot_chain_1k`
/// keeps the default cadence, where it costs 1.7 MiB per job.
const CHECKPOINT_EVERY: u64 = 64;

struct Shape {
    /// Tenant `a`: one compiled LoLa layer, cycling `bundles` identities.
    a_ring: usize,
    a_diags: usize,
    bundles: usize,
    /// Tenant `b`: linear chain under Standard keyswitching.
    b_ring: usize,
    /// Tenant `c`: squarings around a bootstrap.
    c_ring: usize,
    /// Distinct inputs of tenants `b` and `c`.
    inputs: usize,
}

impl Shape {
    fn full() -> Self {
        Self {
            a_ring: 4096,
            a_diags: 16,
            bundles: 16,
            b_ring: 4096,
            c_ring: 256,
            inputs: 4,
        }
    }

    fn smoke() -> Self {
        Self {
            a_ring: 256,
            a_diags: 4,
            bundles: 3,
            b_ring: 256,
            c_ring: 64,
            inputs: 2,
        }
    }
}

const A_LEVELS: usize = 6;
/// The layer spends two levels; entering at 4 (as the repo's own
/// compile-and-run smoke does) keeps the three tenants' service times of
/// the same order.
const A_INPUT_LEVEL: usize = 4;
const B_LEVELS: usize = 8;
const C_LEVELS: usize = 20;
const C_INPUT_LEVEL: usize = 3;
const TENANTS: [&str; 3] = ["a", "b", "c"];

/// One kind of job the mix can send: an identity, an input, and the output
/// the serial reference produced for them.
struct JobType {
    identity: usize,
    tenant: usize,
    input: Blob,
    expected: Vec<u8>,
}

/// The three tenants, set up: identities (sixteen for `a`, one each for `b`
/// and `c`), job types, and the per-tenant round-robin order of types.
struct Mix {
    identities: Vec<Served>,
    types: Vec<JobType>,
    by_tenant: [Vec<usize>; 3],
    /// Worst |decrypt − plain| of the references: the outputs the run is
    /// compared against are themselves checked against plain evaluation.
    reference_err: f64,
}

impl Mix {
    fn build(shape: &Shape, seed: u64, spans: &SpanLog) -> Self {
        let mut key_rng = rng_for(seed, 1);
        let mut input_rng = rng_for(seed, 2);
        let mut identities = Vec::new();
        let mut types = Vec::new();
        let mut by_tenant: [Vec<usize>; 3] = Default::default();
        let mut reference_err = 0.0f64;
        // Adds one job type: seals `values` under `identity`, runs the
        // serial reference, checks it against `plain`.
        let mut add_type = |identities: &[Served],
                            identity: usize,
                            tenant: usize,
                            plain: Vec<f64>,
                            values: &[f64],
                            rng: &mut StdRng| {
            let served = &identities[identity];
            let input = served.seal(values, rng, spans, 0);
            let mut exec = served.executor(0, None);
            let (expected, _) = spans.time("setup.reference_run", 0, || {
                served.run_direct(&mut exec, &input)
            });
            let got = served
                .open(&expected, spans, 0)
                .expect("reference output parses");
            reference_err = reference_err.max(max_abs_diff(&got, &plain));
            by_tenant[tenant].push(types.len());
            types.push(JobType {
                identity,
                tenant,
                input,
                expected,
            });
        };

        // --- a: compiled LoLa layer, Boosted d = 1, one identity per bundle.
        let a_ctx = strict_ctx(shape.a_ring, A_LEVELS, 45, 40, -60.0);
        let a_slots = shape.a_ring / 2;
        let layer = lola_layer_runnable(a_slots, A_INPUT_LEVEL, shape.a_diags, 1, true);
        let (lowered, _) = spans.time("setup.lower_to_program", 0, || {
            lower_to_program(
                &layer.graph,
                &LowerOptions {
                    slots: a_slots,
                    plain: layer.plain.clone(),
                    reorder: true,
                    ..LowerOptions::default()
                },
            )
            .expect("the layer graph lowers")
        });
        for _ in 0..shape.bundles {
            identities.push(Served::new(
                TENANTS[0],
                Arc::clone(&a_ctx),
                None,
                KeySwitchKind::Boosted { digits: 1 },
                64.min(shape.a_ring / 4),
                &lowered.rotation_steps,
                lowered.program.clone(),
                A_INPUT_LEVEL,
                &mut key_rng,
                spans,
            ));
            let values = seeded_vector(&mut input_rng, a_slots, 0.5);
            let plain = eval_plain(&layer, std::slice::from_ref(&values));
            add_type(
                &identities,
                identities.len() - 1,
                0,
                plain,
                &values,
                &mut input_rng,
            );
        }

        // --- b: three-iteration chain under Standard keyswitching.
        let b_ctx = strict_ctx(shape.b_ring, B_LEVELS, 45, 45, -1e9);
        let b_slots = shape.b_ring / 2;
        let (w, b) = crate::boot::weights(b_slots);
        let chain = (0..3).fold(Program::new(), |p, _| crate::boot::iteration(p, &w, &b));
        identities.push(Served::new(
            TENANTS[1],
            b_ctx,
            None,
            KeySwitchKind::Standard,
            64.min(shape.b_ring / 4),
            &[1],
            chain,
            B_LEVELS,
            &mut key_rng,
            spans,
        ));
        let b_identity = identities.len() - 1;
        for _ in 0..shape.inputs {
            let values = seeded_vector(&mut input_rng, b_slots, 0.5);
            let plain = crate::boot::iterate_plain(&values, 3);
            add_type(&identities, b_identity, 1, plain, &values, &mut input_rng);
        }

        // --- c: two squarings, a bootstrap, two squarings.
        let c_ctx = strict_ctx(shape.c_ring, C_LEVELS, 45, 45, -1e9);
        let booter = Arc::new(Bootstrapper::new(&c_ctx, crate::boot::SPARSE_H));
        let square = |p: Program| p.then(PipelineOp::Square).then(PipelineOp::Rescale);
        let squarings = square(square(
            square(square(Program::new())).then(PipelineOp::Bootstrap),
        ));
        identities.push(Served::new(
            TENANTS[2],
            c_ctx,
            Some(booter),
            KeySwitchKind::Boosted { digits: 1 },
            crate::boot::SPARSE_H,
            &[],
            squarings,
            C_INPUT_LEVEL,
            &mut key_rng,
            spans,
        ));
        let c_identity = identities.len() - 1;
        for _ in 0..shape.inputs {
            let values = seeded_vector(&mut input_rng, shape.c_ring / 2, 0.7);
            let plain = values.iter().map(|v| v.powi(16)).collect();
            add_type(&identities, c_identity, 2, plain, &values, &mut input_rng);
        }

        Self {
            identities,
            types,
            by_tenant,
            reference_err,
        }
    }

    fn register(&self, server: &JobServer) {
        for tenant in TENANTS {
            self.identities
                .iter()
                .find(|s| s.tenant == tenant)
                .expect("every tenant has an identity")
                .register(server);
        }
    }

    /// `n` job types drawn from stream `stream` of the seed: the tenant
    /// uniformly at random, then that tenant's types round-robin (so `a`
    /// cycles its sixteen identities).
    fn stream(&self, seed: u64, stream: u64, n: usize) -> Vec<usize> {
        let mut rng = rng_for(seed, stream);
        let mut next = [0usize; 3];
        (0..n)
            .map(|_| {
                let t = rng.gen_range(0..3usize);
                let ty = self.by_tenant[t][next[t] % self.by_tenant[t].len()];
                next[t] += 1;
                ty
            })
            .collect()
    }

    fn spec(&self, ty: usize) -> cl_server::JobSpec {
        let t = &self.types[ty];
        self.identities[t.identity].spec(t.input.clone())
    }

    /// Submits job type `ty` and waits for it; the time it took, or `None`
    /// when it was refused or its output is not the reference's.
    fn serve_one(&self, server: &JobServer, ty: usize) -> Option<Duration> {
        let t = Instant::now();
        let handle = server.submit(self.spec(ty)).ok()?;
        let out = server.wait(handle.id);
        let took = t.elapsed();
        (out.output.as_deref() == Some(&self.types[ty].expected[..])).then_some(took)
    }
}

struct SatResult {
    /// Completion time of each verified job since the phase began, seconds,
    /// sorted.
    done_s: Vec<f64>,
    /// How long each verified job took, `submit` to result, ms.
    took_ms: Vec<f64>,
    failed: usize,
}

/// Closed loop: `clients` threads each keep one job outstanding until the
/// stream is consumed.
fn sat_phase(mix: &Mix, server: &JobServer, stream: &[usize], clients: usize) -> SatResult {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(stream.len()));
    let failed = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&ty) = stream.get(i) else { break };
                match mix.serve_one(server, ty) {
                    Some(took) => done
                        .lock()
                        .expect("no holder panics")
                        .push((start.elapsed().as_secs_f64(), ms(took))),
                    None => {
                        failed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let mut done = done.into_inner().expect("no holder panics");
    done.sort_by(|a, b| a.0.total_cmp(&b.0));
    SatResult {
        done_s: done.iter().map(|d| d.0).collect(),
        took_ms: done.iter().map(|d| d.1).collect(),
        failed: failed.into_inner(),
    }
}

impl SatResult {
    /// Verified jobs per second: the median over `BLOCKS` consecutive
    /// blocks of completions.
    fn jobs_per_s(&self) -> f64 {
        let block = (self.done_s.len() / BLOCKS).max(1);
        let rates: Vec<f64> = self
            .done_s
            .chunks_exact(block)
            .scan(0.0, |prev, chunk| {
                let end = *chunk.last().expect("chunks are non-empty");
                let rate = chunk.len() as f64 / (end - *prev);
                *prev = end;
                Some(rate)
            })
            .collect();
        median(&rates)
    }
}

struct RateResult {
    /// Latency of each verified job from its *scheduled* send time, ms, in
    /// arrival order, with its job type.
    latency_ms: Vec<(usize, f64)>,
    /// How late the generator sent each job, ms.
    lag_ms: Vec<f64>,
    failed: usize,
}

/// Open loop: jobs are sent on a seeded Poisson schedule whether or not
/// earlier ones have finished; one waiter thread per job records when its
/// result arrived.
fn rate_phase(mix: &Mix, server: &JobServer, stream: &[usize], seed: u64) -> RateResult {
    let mut rng = rng_for(seed, 6);
    let mut due = 0.0f64;
    let schedule: Vec<f64> = stream
        .iter()
        .map(|_| {
            due += -(1.0 - rng.gen::<f64>()).ln() / RATE_PER_S;
            due
        })
        .collect();
    let results = Mutex::new(vec![None; stream.len()]);
    let mut lag_ms = Vec::with_capacity(stream.len());
    let mut failed = 0usize;
    let start = Instant::now();
    std::thread::scope(|s| {
        for (i, (&ty, &due_s)) in stream.iter().zip(&schedule).enumerate() {
            let due_at = Duration::from_secs_f64(due_s);
            if let Some(wait) = due_at.checked_sub(start.elapsed()) {
                std::thread::sleep(wait);
            }
            lag_ms.push(ms(start.elapsed().saturating_sub(due_at)));
            // A refused job has failed; it is not retried.
            let Ok(handle) = server.submit(mix.spec(ty)) else {
                failed += 1;
                continue;
            };
            let results = &results;
            s.spawn(move || {
                let out = server.wait(handle.id);
                let latency = ms(start.elapsed().saturating_sub(due_at));
                let ok = out.output.as_deref() == Some(&mix.types[ty].expected[..]);
                results.lock().expect("no holder panics")[i] = Some((ok, latency));
            });
        }
    });
    let mut latency_ms = Vec::new();
    for (i, r) in results
        .into_inner()
        .expect("no holder panics")
        .into_iter()
        .enumerate()
    {
        match r {
            Some((true, latency)) => latency_ms.push((stream[i], latency)),
            Some((false, _)) => failed += 1,
            None => {} // refused at submit, counted above
        }
    }
    RateResult {
        latency_ms,
        lag_ms,
        failed,
    }
}

impl RateResult {
    fn latencies(&self) -> Vec<f64> {
        self.latency_ms.iter().map(|(_, l)| *l).collect()
    }
}

struct Live {
    mix: Mix,
    server: JobServer,
}

/// One full set-up: contexts, compile, keys, references, server, tenants,
/// and one warm-up job per distinct key bundle.
fn set_up(
    shape: &Shape,
    args: &RunArgs,
    root: &WorkRoot,
    rep: usize,
    workers: usize,
    spans: &SpanLog,
) -> (Live, f64, bool) {
    HintCache::global().clear();
    let t = Instant::now();
    let mix = Mix::build(shape, args.seed, spans);
    let (server, _) = spans.time("setup.server_start", 0, || {
        // Defaults throughout (journal on with batched fsync, 32 MiB key
        // cache, 64 MiB hint cache) except workers and checkpoint cadence.
        let server = JobServer::start(server_config(
            root.sub(&format!("srv{rep}-w{workers}")),
            workers,
            CHECKPOINT_EVERY,
            args.journal,
        ))
        .expect("server starts");
        mix.register(&server);
        server
    });
    let (ok, _) = spans.time("setup.warm_up", 0, || {
        let mut seen = Vec::new();
        mix.types.iter().enumerate().all(|(ty, t)| {
            if seen.contains(&t.identity) {
                return true;
            }
            seen.push(t.identity);
            mix.serve_one(&server, ty).is_some()
        })
    });
    let ok = ok && mix.reference_err < 2e-3;
    (Live { mix, server }, t.elapsed().as_secs_f64(), ok)
}

pub fn run(args: &RunArgs) -> Outcome {
    // Parallelism comes from the server's workers, not the limb pool.
    rayon::set_num_threads(1);
    let shape = if args.smoke {
        Shape::smoke()
    } else {
        Shape::full()
    };
    let workers = crate::host::nproc();
    if args.trace {
        return run_traced(&shape, args, workers);
    }
    let spans = SpanLog::new(false);
    let root = WorkRoot::new("serve_mix");
    let probe = args.probe_jobs.is_some();
    let (Live { mix, server }, first_setup_s, mut warm_ok) =
        set_up(&shape, args, &root, 0, workers, &spans);

    let scaled = |per_second: f64| ((args.seconds * per_second).round() as usize).max(4 * BLOCKS);
    let (n_sat, n_rate) = match (args.probe_jobs, args.smoke) {
        (Some(n), _) => (n, 0),
        (None, true) => (4 * BLOCKS, 4 * BLOCKS),
        (None, false) => (
            scaled(SAT_JOBS_PER_RUN_SECOND),
            scaled(RATE_JOBS_PER_RUN_SECOND),
        ),
    };
    let sat = sat_phase(&mix, &server, &mix.stream(args.seed, 3, n_sat), 2 * workers);
    let rate = rate_phase(&mix, &server, &mix.stream(args.seed, 4, n_rate), args.seed);
    server.shutdown();
    // Read before the repeated set-ups (see `Closed::run_untraced`).
    let peak_rss_mib = crate::host::peak_rss_mib();
    let reference_err = mix.reference_err;
    drop(mix);
    let mut setup_s = vec![first_setup_s];
    let reps = if args.smoke || probe { 1 } else { SETUP_REPS };
    for rep in 1..reps {
        let (live, secs, ok) = set_up(&shape, args, &root, rep, workers, &spans);
        live.server.shutdown();
        setup_s.push(secs);
        warm_ok &= ok;
    }

    let failed = sat.failed + rate.failed;
    let mut m = Metrics::default();
    m.set("setup_s", median(&setup_s));
    m.set("jobs_per_s", sat.jobs_per_s());
    // The probe run has no rate phase: its latency is the sat phase's
    // per-job time (not compared with a full run's).
    let latencies = if probe {
        sat.took_ms.clone()
    } else {
        rate.latencies()
    };
    m.set("job_p50_ms", median(&latencies));
    m.set("peak_rss_mib", peak_rss_mib);
    Outcome {
        correct: warm_ok && failed == 0,
        attempted: (n_sat + n_rate) as u64,
        failed: failed as u64,
        metrics: m,
        detail: Json::obj(vec![
            ("sat_jobs", Json::Num(n_sat as f64)),
            ("sat_clients", Json::Num((2 * workers) as f64)),
            ("rate_jobs", Json::Num(n_rate as f64)),
            ("rate_per_s", Json::Num(RATE_PER_S)),
            ("blocks", Json::Num(BLOCKS as f64)),
            ("workers", Json::Num(workers as f64)),
            ("setup_reps", Json::Num(reps as f64)),
            ("generator_lag_ms_p50", Json::Num(median(&rate.lag_ms))),
            (
                "generator_lag_ms_max",
                Json::Num(rate.lag_ms.iter().copied().fold(0.0, f64::max)),
            ),
            (
                "reference_precision_bits",
                Json::Num(crate::functional::precision_bits(reference_err)),
            ),
            ("rate_p90_ms", Json::Num(percentile(&rate.latencies(), 0.9))),
        ]),
        work_root: root.0.clone(),
    }
}

/// The traced run: the mix one job at a time on one worker (the `cl-trace`
/// counters are process-global), then short `rate` and `sat` phases for the
/// waiting and scaling figures.
fn run_traced(shape: &Shape, args: &RunArgs, workers: usize) -> Outcome {
    assert!(
        cl_trace::enabled(),
        "a traced run needs the cl-trace counters: build with --features trace (run.sh does)"
    );
    let spans = SpanLog::new(true);
    let root = WorkRoot::new("serve_mix");
    let reps = if args.smoke {
        Reps::smoke()
    } else {
        Reps::full()
    };
    let hints = HintCache::global();
    let mut m = Metrics::default();
    let n_idle = if args.smoke { 6 } else { 48 };
    let n_phase = if args.smoke { 4 * BLOCKS } else { 96 };

    // --- idle service: one worker, one job at a time, the seeded mix.
    let (Live { mix, server }, _, warm_ok) = set_up(shape, args, &root, 0, 1, &spans);
    let stream = mix.stream(args.seed, 3, n_idle);
    let journal_dir = root.sub("srv0-w1").join("journal");
    let journal_before = crate::host::dir_bytes(&journal_dir);
    hints.reset_stats();
    let mut idle_ms: [Vec<f64>; 3] = Default::default();
    let mut submit_us = Vec::new();
    let mut failed = 0usize;
    for (j, &ty) in stream.iter().enumerate() {
        let job = j as u64 + 1;
        let ((handle, submit), total) = spans.time("job", job, || {
            let (handle, submit) = spans.time("server.submit", job, || server.submit(mix.spec(ty)));
            let out = handle
                .ok()
                .map(|h| spans.time("server.wait", job, || server.wait(h.id)).0);
            (out, submit)
        });
        submit_us.push(crate::stats::us(submit));
        match handle {
            Some(out) if out.output.as_deref() == Some(&mix.types[ty].expected[..]) => {
                idle_ms[mix.types[ty].tenant].push(ms(total));
            }
            _ => failed += 1,
        }
    }
    let hint_stats = hints.stats();
    let idle_service: Vec<f64> = idle_ms.iter().map(|v| median(v)).collect();
    let served_ms = idle_service.iter().sum::<f64>() / 3.0;
    let reports: Vec<_> = TENANTS
        .iter()
        .map(|t| server.tenant_report(t).expect("tenant is registered"))
        .collect();
    // The warm-up jobs (one per identity) count in the reports.
    let report_jobs = (n_idle + mix.identities.len()) as f64;
    let sum =
        |f: &dyn Fn(&cl_server::TenantReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let ops = reports
        .iter()
        .fold(cl_trace::OpSnapshot::default(), |acc, r| acc.plus(&r.ops));
    m.set("server.submit_us", median(&submit_us));
    m.set(
        "server.journal_kib_per_job",
        (crate::host::dir_bytes(&journal_dir) - journal_before) as f64 / 1024.0 / n_idle as f64,
    );
    let (key_hits, key_misses) = (sum(&|r| r.key_cache.hits), sum(&|r| r.key_cache.misses));
    m.set(
        "server.key_hit_ratio",
        key_hits / (key_hits + key_misses).max(1.0),
    );
    m.set(
        "server.shed_share",
        sum(&|r| r.jobs_shed) / (report_jobs + sum(&|r| r.jobs_shed)),
    );
    m.set(
        "server.retries_per_job",
        sum(&|r| r.retries_spent) / report_jobs,
    );
    m.set(
        "runtime.ckpts_per_job",
        sum(&|r| r.recovery.checkpoints_written) / report_jobs,
    );
    m.set(
        "runtime.ckpt_mib_per_job",
        sum(&|r| r.recovery.bytes_written) / (1u64 << 20) as f64 / report_jobs,
    );
    m.set(
        "runtime.peak_live_cts",
        reports
            .iter()
            .map(|r| r.recovery.peak_live_cts)
            .max()
            .unwrap_or(0) as f64,
    );
    m.set(
        "ckks.hint_hit_ratio",
        hint_stats.hits as f64 / ((hint_stats.hits + hint_stats.misses) as f64).max(1.0),
    );
    m.set(
        "ckks.hint_regen_per_job",
        hint_stats.misses as f64 / n_idle as f64,
    );
    m.set(
        "ckks.hint_resident_mib",
        hint_stats.bytes_resident as f64 / (1u64 << 20) as f64,
    );
    m.set(
        "ckks.precision_bits",
        crate::functional::precision_bits(mix.reference_err),
    );
    // Mix averages of the exact per-job counts (one worker: attributable).
    m.set(
        "math.ntt_passes_per_job",
        (ops.ntt + ops.intt) as f64 / report_jobs,
    );
    m.set("math.automorph_per_job", ops.automorph as f64 / report_jobs);
    m.set("rns.mult_per_job", ops.mult as f64 / report_jobs);
    m.set("rns.add_per_job", ops.add as f64 / report_jobs);
    m.set("rns.baseconv_per_job", ops.base_conv as f64 / report_jobs);
    m.set(
        "ckks.keyswitches_per_job",
        (ops.rotations + ops.ct_mults) as f64 / report_jobs,
    );

    // --- direct replays of one job type per tenant: with the server's
    // checkpoint cadence, and without.
    let mut direct = Vec::new();
    let mut direct_0 = Vec::new();
    for tenant in 0..3 {
        let ty = &mix.types[mix.by_tenant[tenant][0]];
        let served = &mix.identities[ty.identity];
        let mut with = served.executor(
            CHECKPOINT_EVERY,
            Some(root.sub(&format!("replay-ckpt-{tenant}"))),
        );
        let mut without = served.executor(0, None);
        let time = |exec: &mut cl_runtime::PipelineExecutor<'_>, name: &'static str| {
            median(
                &(0..3)
                    .map(|_| ms(spans.time(name, 0, || served.run_direct(exec, &ty.input)).1))
                    .collect::<Vec<_>>(),
            )
        };
        direct.push(time(&mut with, "replay.direct"));
        direct_0.push(time(&mut without, "replay.direct_no_ckpt"));
    }
    let direct_ms = direct.iter().sum::<f64>() / 3.0;
    let direct_0_ms = direct_0.iter().sum::<f64>() / 3.0;
    m.set("runtime.direct_run_ms", direct_ms);
    m.set("runtime.ckpt_share", (direct_ms - direct_0_ms) / direct_ms);
    m.set("server.overhead_ms", served_ms - direct_ms);
    m.set("server.overhead_share", (served_ms - direct_ms) / served_ms);

    // --- probes at tenant a's shape (the warm path's cold twin) and the
    // Standard keyswitch of tenant b.
    let a = &mix.identities[0];
    let a_type = &mix.types[mix.by_tenant[0][0]];
    let a_input = a
        .ctx
        .try_deserialize_ciphertext(&a_type.input)
        .expect("own input parses");
    let a_output = a
        .ctx
        .try_deserialize_ciphertext(&a_type.expected)
        .expect("own output parses");
    let mut rng = rng_for(args.seed, 5);
    let values = seeded_vector(&mut rng, a.slots(), 0.5);
    probes::ckks(a, &values, &a_output, &reps, &mut rng, &mut m);
    probes::runtime_server(a, &a_input, &a_type.expected, &root.0, &reps, &mut m);
    let (ks_us, ks_ops) = probes::keyswitch(a, &a_input, &reps);
    let costs = probes::kernel_costs(a, a.input_level, &reps, &mut rng);
    m.set("ckks.keyswitch_us", ks_us);
    m.set("ckks.keyswitch_scaling", 1.0); // the limb pool is pinned to one thread here
    m.set("runtime.direct_run_scaling", 1.0);
    m.set("math.ntt_fwd_us", costs.ntt_fwd);
    m.set("math.ntt_inv_us", costs.ntt_inv);
    m.set("math.automorph_us", costs.automorph);
    m.set("rns.mul_us", costs.mul);
    m.set("rns.add_us", costs.add);
    m.set("rns.baseconv_us", costs.baseconv);
    m.set("ckks.key_verify_us", costs.key_verify);
    let (ks_math, ks_rns) = costs.attribute(&ks_ops);
    m.set(
        "trace.unattributed_share",
        1.0 - (ks_math + ks_rns + costs.key_verify) / ks_us,
    );
    server.shutdown();

    // --- waiting: a short rate phase on nproc workers, each latency minus
    // its tenant's idle service time.
    let (Live { mix, server }, _, warm_ok_n) = set_up(shape, args, &root, 1, workers, &spans);
    let rate = rate_phase(&mix, &server, &mix.stream(args.seed, 4, n_phase), args.seed);
    let waits: Vec<f64> = rate
        .latency_ms
        .iter()
        .map(|(ty, latency)| latency - idle_service[mix.types[*ty].tenant])
        .collect();
    m.set("server.wait_ms_p50", median(&waits));
    m.set("server.rate_p90_ms", percentile(&rate.latencies(), 0.9));
    m.set("server.generator_lag_ms", median(&rate.lag_ms));
    // --- scaling: the sat phase on nproc workers against one worker.
    let sat_stream = mix.stream(args.seed, 3, n_phase);
    let sat_n = sat_phase(&mix, &server, &sat_stream, 2 * workers);
    server.shutdown();
    let (Live { mix, server }, _, warm_ok_1) = set_up(shape, args, &root, 2, 1, &spans);
    let sat_1 = sat_phase(&mix, &server, &sat_stream, 2);
    server.shutdown();
    m.set(
        "server.worker_scaling",
        sat_n.jobs_per_s() / sat_1.jobs_per_s(),
    );
    failed += rate.failed + sat_n.failed + sat_1.failed;

    // --- the cost of tracing and of the journal: the same sat phase on the
    // untraced build, journal on and off.
    if let Some(bin) = &args.untraced_bin {
        let on = untraced_metric(bin, "serve_mix", "jobs_per_s", args, n_phase, &[]);
        let off = untraced_metric(
            bin,
            "serve_mix",
            "jobs_per_s",
            args,
            n_phase,
            &["--no-journal"],
        );
        m.set("trace.overhead_share", on / sat_n.jobs_per_s() - 1.0);
        m.set("server.journal_share", 1.0 - on / off);
    }

    Outcome {
        correct: warm_ok && warm_ok_n && warm_ok_1 && failed == 0,
        attempted: (n_idle + 3 * n_phase) as u64,
        failed: failed as u64,
        metrics: m,
        detail: Json::obj(vec![
            ("idle_jobs", Json::Num(n_idle as f64)),
            ("phase_jobs", Json::Num(n_phase as f64)),
            (
                "idle_service_ms",
                Json::Arr(idle_service.iter().map(|v| Json::Num(*v)).collect()),
            ),
            (
                "direct_ms",
                Json::Arr(direct.iter().map(|v| Json::Num(*v)).collect()),
            ),
            (
                "direct_no_ckpt_ms",
                Json::Arr(direct_0.iter().map(|v| Json::Num(*v)).collect()),
            ),
            ("sat_jobs_per_s_workers_n", Json::Num(sat_n.jobs_per_s())),
            ("sat_jobs_per_s_workers_1", Json::Num(sat_1.jobs_per_s())),
            ("spans", spans.to_json()),
        ]),
        work_root: root.0.clone(),
    }
}

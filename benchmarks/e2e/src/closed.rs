//! The closed-loop runner shared by `lola_mlp_8k` and `boot_chain_1k`: one
//! client, one job outstanding, `encode → encrypt → serialize → submit →
//! wait → deserialize → decrypt → decode`, every output checked against the
//! workload's plain reference.
//!
//! The untraced run gives the end-to-end metrics. The traced run replays
//! the same job three more ways — on a direct executor, through the op
//! walker, and as micro-probes — and derives the per-layer metrics.

use std::path::PathBuf;
use std::time::Instant;

use cl_ckks::HintCache;
use cl_server::JobServer;
use cl_trace::OpSnapshot;

use crate::functional::{client_job, precision_bits, seeded_vector, JobSample, Served, WorkRoot};
use crate::json::Json;
use crate::metrics::Metrics;
use crate::probes::{self, Reps};
use crate::spans::SpanLog;
use crate::stats::{median, ms, rng_for};
use crate::walker::{self, Walk};
use crate::{Outcome, RunArgs};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

pub struct Closed {
    pub name: &'static str,
    /// Jobs per second of `--seconds` this host completes at the seed
    /// commit. Frozen, so a run measures a fixed amount of work: a faster
    /// program finishes sooner instead of doing more (and allocating more).
    pub jobs_per_run_second: f64,
    /// A job whose decrypt error exceeds this has failed.
    pub err_bound: f64,
    /// The server's checkpoint cadence in this workload.
    pub checkpoint_every: u64,
    /// Jobs of the traced run's served and untraced-comparison phases.
    pub trace_jobs: usize,
    pub setup: SetupFn,
    pub reference: ReferenceFn,
    /// Per-layer metrics only this workload has (compiler, bootstrap
    /// precompute).
    pub extra: ExtraFn,
}

/// `(run arguments, work root, repetition, spans)` → a registered identity
/// and the server it is registered with.
pub type SetupFn = Box<dyn Fn(&RunArgs, &WorkRoot, usize, &SpanLog) -> (Served, JobServer)>;
/// Plain evaluation of the workload on one input vector.
pub type ReferenceFn = Box<dyn Fn(&[f64]) -> Vec<f64>>;
/// `(identity, exact op counts of one warm direct run, spans, metrics)`.
pub type ExtraFn = Box<dyn Fn(&Served, &OpSnapshot, &SpanLog, &mut Metrics)>;

struct Job {
    values: Vec<f64>,
    reference: Vec<f64>,
}

impl Closed {
    /// Inputs made from the seed, with their plain references.
    fn jobs(&self, served: &Served, seed: u64, n: usize) -> Vec<Job> {
        let mut rng = rng_for(seed, 2);
        (0..n)
            .map(|_| {
                let values = seeded_vector(&mut rng, served.slots(), 0.5);
                let reference = (self.reference)(&values);
                Job { values, reference }
            })
            .collect()
    }

    /// One full set-up ending with the warm-up job (one per distinct key
    /// bundle — one here), which materializes every hint and fills the key
    /// cache. Returns the set-up time and whether the warm-up verified.
    fn set_up(
        &self,
        args: &RunArgs,
        root: &WorkRoot,
        rep: usize,
        spans: &SpanLog,
    ) -> (Served, JobServer, f64, bool) {
        // Every repetition starts as the first does: no materialized hints.
        HintCache::global().clear();
        let t = Instant::now();
        let (served, server) = (self.setup)(args, root, rep, spans);
        let warm = &self.jobs(&served, args.seed ^ 0x5eed, 1)[0];
        let sample = spans.time("setup.warm_up", 0, || {
            client_job(
                &server,
                &served,
                &warm.values,
                &warm.reference,
                &mut rng_for(args.seed, 4),
                spans,
                0,
            )
        });
        let ok = self.verified(&sample.0);
        (served, server, t.elapsed().as_secs_f64(), ok)
    }

    fn verified(&self, sample: &JobSample) -> bool {
        sample.max_err.is_some_and(|e| e < self.err_bound)
    }

    pub fn run(&self, args: &RunArgs) -> Outcome {
        if args.trace {
            self.run_traced(args)
        } else {
            self.run_untraced(args)
        }
    }

    fn run_untraced(&self, args: &RunArgs) -> Outcome {
        let spans = SpanLog::new(false);
        let root = WorkRoot::new(self.name);
        let (served, server, first_setup_s, mut warm_ok) = self.set_up(args, &root, 0, &spans);

        let n = args.probe_jobs.unwrap_or_else(|| {
            if args.smoke {
                3
            } else {
                ((args.seconds * self.jobs_per_run_second).round() as usize).max(5)
            }
        });
        let jobs = self.jobs(&served, args.seed, n);
        let mut rng = rng_for(args.seed, 3);
        let t = Instant::now();
        let samples: Vec<JobSample> = jobs
            .iter()
            .enumerate()
            .map(|(j, job)| {
                client_job(
                    &server,
                    &served,
                    &job.values,
                    &job.reference,
                    &mut rng,
                    &spans,
                    j as u64 + 1,
                )
            })
            .collect();
        let elapsed = t.elapsed().as_secs_f64();
        server.shutdown();
        // One set-up and the measured jobs: the memory a user of this
        // workload needs. Read before the repeated set-ups below, whose
        // leftovers in the allocator would otherwise decide the peak.
        let peak_rss_mib = crate::host::peak_rss_mib();
        drop(served);

        // `setup_s` is the median over repeated set-ups; the extra ones run
        // after the measurement and are torn down at once.
        let mut setup_s = vec![first_setup_s];
        let reps = if args.smoke || args.probe_jobs.is_some() {
            1
        } else {
            SETUP_REPS
        };
        for rep in 1..reps {
            let (_, server, secs, ok) = self.set_up(args, &root, rep, &spans);
            server.shutdown();
            setup_s.push(secs);
            warm_ok &= ok;
        }

        let failed = samples.iter().filter(|s| !self.verified(s)).count();
        let times: Vec<f64> = samples.iter().map(|s| s.total_ms).collect();
        let mut m = Metrics::default();
        m.set("setup_s", median(&setup_s));
        m.set("job_p50_ms", median(&times));
        m.set("jobs_per_s", (n - failed) as f64 / elapsed);
        m.set("peak_rss_mib", peak_rss_mib);
        Outcome {
            correct: warm_ok && failed == 0,
            attempted: n as u64,
            failed: failed as u64,
            metrics: m,
            detail: Json::obj(vec![
                ("jobs", Json::Num(n as f64)),
                ("setup_reps", Json::Num(reps as f64)),
                ("measured_s", Json::Num(elapsed)),
                ("precision_bits", Json::Num(worst_precision(&samples))),
                (
                    "samples_ms",
                    Json::Arr(times.iter().map(|t| Json::Num(*t)).collect()),
                ),
            ]),
            work_root: root.0.clone(),
        }
    }

    fn run_traced(&self, args: &RunArgs) -> Outcome {
        assert!(
            cl_trace::enabled(),
            "a traced run needs the cl-trace counters: build with --features trace (run.sh does)"
        );
        let spans = SpanLog::new(true);
        let root = WorkRoot::new(self.name);
        let reps = if args.smoke {
            Reps::smoke()
        } else {
            Reps::full()
        };
        let n = if args.smoke { 2 } else { self.trace_jobs };
        let mut m = Metrics::default();

        let (served, server, _, warm_ok) = self.set_up(args, &root, 0, &spans);
        let ctx = &*served.ctx;
        let hints = HintCache::global();
        let jobs = self.jobs(&served, args.seed, n);
        let mut rng = rng_for(args.seed, 3);

        // One input for every replay (the served jobs encrypt their own).
        let input = ctx.encrypt(
            &ctx.encode(&jobs[0].values, ctx.default_scale(), served.input_level),
            &served.sk,
            &mut rng,
        );
        let input_blob = ctx.serialize_ciphertext(&input);
        let mut exec = served.executor(
            self.checkpoint_every,
            (self.checkpoint_every > 0).then(|| root.sub("replay-ckpt")),
        );
        let mut exec_no_ckpt = served.executor(0, None);

        // --- the same job four ways, interleaved so that a slow spell of
        // the machine falls on all of them alike: served through the
        // server; on a direct executor at the workload's checkpoint
        // cadence; on a direct executor without checkpoints; through the op
        // walker.
        let journal_dir = root.sub("srv0").join("journal");
        let journal_before = crate::host::dir_bytes(&journal_dir);
        let (mut samples, mut direct, mut direct_0, mut walks) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::<Walk>::new());
        let (mut hint_hits, mut hint_misses) = (0, 0);
        let mut job_ops = OpSnapshot::default();
        let mut hint_regens = 0;
        let mut direct_out = Vec::new();
        for (j, job) in jobs.iter().enumerate() {
            let before = hints.stats();
            samples.push(client_job(
                &server,
                &served,
                &job.values,
                &job.reference,
                &mut rng,
                &spans,
                j as u64 + 1,
            ));
            let after = hints.stats();
            hint_hits += after.hits - before.hits;
            hint_misses += after.misses - before.misses;

            let ops_before = OpSnapshot::capture();
            let (out, d) = spans.time("replay.direct", 0, || {
                served.run_direct(&mut exec, &input_blob)
            });
            job_ops = OpSnapshot::capture().delta_since(&ops_before);
            hint_regens = hints.stats().misses - after.misses;
            direct.push(ms(d));
            direct_out = out;
            if self.checkpoint_every > 0 {
                let (_, d) = spans.time("replay.direct_no_ckpt", 0, || {
                    served.run_direct(&mut exec_no_ckpt, &input_blob)
                });
                direct_0.push(ms(d));
            }
            let (out, w) = spans
                .time("replay.walker", 0, || {
                    walker::walk(&served, &input, &spans, 0)
                })
                .0
                .expect("the walker replays a program the executor just ran");
            assert_eq!(
                ctx.serialize_ciphertext(&out),
                direct_out,
                "op walker and executor must agree bit for bit"
            );
            walks.push(w);
        }
        let failed = samples.iter().filter(|s| !self.verified(s)).count();
        let med = |xs: Vec<f64>| median(&xs);
        let wall_ms = med(samples.iter().map(|s| s.total_ms).collect());
        let served_ms = med(samples.iter().map(|s| s.served_ms).collect());
        let client_ms = wall_ms - served_ms;
        let direct_ms = median(&direct);
        let direct_0_ms = if direct_0.is_empty() {
            direct_ms
        } else {
            median(&direct_0)
        };
        let class = |name: &str| med(walks.iter().map(|w| w.class(name)).collect());
        let walker_ms = med(walks.iter().map(Walk::total_ms).collect());
        let w0 = &walks[0];

        // The server's own public counters (the warm-up job counts in them).
        let report = server
            .tenant_report(&served.tenant)
            .expect("tenant is registered");
        let served_jobs = (n + 1) as f64;
        m.set(
            "server.submit_us",
            med(samples.iter().map(|s| s.submit_us).collect()),
        );
        m.set(
            "server.journal_kib_per_job",
            (crate::host::dir_bytes(&journal_dir) - journal_before) as f64 / 1024.0 / n as f64,
        );
        m.set(
            "server.key_hit_ratio",
            ratio(report.key_cache.hits, report.key_cache.misses),
        );
        m.set(
            "server.shed_share",
            report.jobs_shed as f64 / (served_jobs + report.jobs_shed as f64),
        );
        m.set(
            "server.retries_per_job",
            report.retries_spent as f64 / served_jobs,
        );
        m.set(
            "runtime.ckpts_per_job",
            report.recovery.checkpoints_written as f64 / served_jobs,
        );
        m.set(
            "runtime.ckpt_mib_per_job",
            report.recovery.bytes_written as f64 / (1u64 << 20) as f64 / served_jobs,
        );
        m.set(
            "runtime.peak_live_cts",
            report.recovery.peak_live_cts as f64,
        );
        m.set("ckks.hint_hit_ratio", ratio(hint_hits, hint_misses));
        m.set(
            "ckks.hint_resident_mib",
            hints.stats().bytes_resident as f64 / (1u64 << 20) as f64,
        );
        m.set("ckks.precision_bits", worst_precision(&samples));

        m.set("runtime.direct_run_ms", direct_ms);
        m.set("runtime.ckpt_share", (direct_ms - direct_0_ms) / direct_ms);
        m.set(
            "runtime.exec_overhead_share",
            (direct_0_ms - walker_ms) / direct_ms,
        );
        m.set(
            "math.ntt_passes_per_job",
            (job_ops.ntt + job_ops.intt) as f64,
        );
        m.set("math.automorph_per_job", job_ops.automorph as f64);
        m.set("rns.mult_per_job", job_ops.mult as f64);
        m.set("rns.add_per_job", job_ops.add as f64);
        m.set("rns.baseconv_per_job", job_ops.base_conv as f64);
        m.set(
            "ckks.keyswitches_per_job",
            (job_ops.rotations + job_ops.ct_mults) as f64,
        );
        m.set("ckks.hint_regen_per_job", hint_regens as f64);
        m.set("ckks.encodes_per_job", w0.encodes as f64);
        for (metric, classes) in [
            ("ckks.encode_share", &["encode"][..]),
            ("ckks.rotate_hoisted_share", &["rotate_hoisted"]),
            ("ckks.rotate_share", &["rotate"]),
            ("ckks.mul_ct_share", &["mul_ct"]),
            ("ckks.mul_plain_share", &["mul_plain"]),
            ("ckks.rescale_share", &["rescale"]),
            // Ops that carry a keyswitch. The keyswitches inside a
            // bootstrap are part of boot.share, not of this.
            (
                "ckks.keyswitch_share",
                &["rotate_hoisted", "rotate", "mul_ct"],
            ),
        ] {
            m.set(
                metric,
                classes.iter().map(|c| class(c)).sum::<f64>() / direct_ms,
            );
        }
        if w0.bootstraps > 0 {
            let stage_ms = |stage: usize| {
                med(walks.iter().map(|w| w.boot_stage_ms[stage]).collect()) / w0.bootstraps as f64
            };
            for (stage, name) in walker::BOOT_STAGES.iter().enumerate() {
                m.set(&format!("{name}_ms"), stage_ms(stage));
            }
            m.set(
                "boot.total_ms",
                (0..walker::BOOT_STAGES.len()).map(stage_ms).sum(),
            );
            m.set(
                "boot.share",
                med(walks.iter().map(Walk::boot_ms).collect()) / direct_ms,
            );
            m.set("boot.exit_level", w0.boot_exit_level as f64);
        }

        // --- micro-probes at the workload's shape.
        let output = ctx
            .try_deserialize_ciphertext(&direct_out)
            .expect("own output parses");
        probes::ckks(&served, &jobs[0].values, &output, &reps, &mut rng, &mut m);
        probes::runtime_server(&served, &input, &direct_out, &root.0, &reps, &mut m);
        let (ks_us, ks_ops) = probes::keyswitch(&served, &input, &reps);
        m.set("ckks.keyswitch_us", ks_us);

        // --- one limb-pool thread: serial unit costs, and what the pool
        // buys. Kernel classes of one keyswitch, `count × serial unit
        // cost`, are set against the serial keyswitch in the same round;
        // what they leave is not attributed. Median of three rounds.
        let threads = rayon::current_num_threads();
        rayon::set_num_threads(1);
        let direct_t1_ms = med((0..2)
            .map(|_| {
                ms(spans
                    .time("replay.direct_one_thread", 0, || {
                        served.run_direct(&mut exec_no_ckpt, &input_blob)
                    })
                    .1)
            })
            .collect());
        let rounds: Vec<(f64, probes::UnitCosts, f64)> = (0..3)
            .map(|_| {
                let (ks_t1_us, _) = probes::keyswitch(&served, &input, &reps);
                let costs = probes::kernel_costs(&served, served.input_level, &reps, &mut rng);
                let (math_us, rns_us) = costs.attribute(&ks_ops);
                (
                    ks_t1_us,
                    costs,
                    1.0 - (math_us + rns_us + costs.key_verify) / ks_t1_us,
                )
            })
            .collect();
        rayon::set_num_threads(threads);
        let costs = probes::UnitCosts::medians(&rounds.iter().map(|r| r.1).collect::<Vec<_>>());
        let ks_t1_us = med(rounds.iter().map(|r| r.0).collect());
        let unattributed = med(rounds.iter().map(|r| r.2).collect());
        m.set("ckks.keyswitch_scaling", ks_t1_us / ks_us);
        m.set("runtime.direct_run_scaling", direct_t1_ms / direct_0_ms);
        m.set("math.ntt_fwd_us", costs.ntt_fwd);
        m.set("math.ntt_inv_us", costs.ntt_inv);
        m.set("math.automorph_us", costs.automorph);
        m.set("rns.mul_us", costs.mul);
        m.set("rns.add_us", costs.add);
        m.set("rns.baseconv_us", costs.baseconv);
        m.set("ckks.key_verify_us", costs.key_verify);
        let (math_us, rns_us) = costs.attribute(&job_ops);
        m.set("math.ntt_share", math_us / 1e3 / direct_t1_ms);
        m.set("rns.share", rns_us / 1e3 / direct_t1_ms);
        m.set("trace.unattributed_share", unattributed);

        // --- workload-specific layers.
        (self.extra)(&served, &job_ops, &spans, &mut m);

        // --- closure: the parts measured above against the job the client
        // saw. A part that comes out negative is a replay that ran slower
        // than the thing it is part of, which the clamp turns into a gap.
        let server_overhead_ms = served_ms - direct_ms;
        m.set("server.overhead_ms", server_overhead_ms);
        m.set("server.overhead_share", server_overhead_ms / served_ms);
        let parts = client_ms.max(0.0)
            + server_overhead_ms.max(0.0)
            + (direct_ms - walker_ms).max(0.0)
            + walker_ms;
        let closure = (wall_ms - parts).abs() / wall_ms;
        m.set("trace.closure_residual", closure);

        // --- the cost of tracing, and of the journal: the same jobs on the
        // untraced build, with the journal on and off.
        drop((exec, exec_no_ckpt));
        server.shutdown();
        let mut untraced = None;
        if let Some(bin) = &args.untraced_bin {
            let on = untraced_metric(bin, self.name, "job_p50_ms", args, n, &[]);
            let off = untraced_metric(bin, self.name, "job_p50_ms", args, n, &["--no-journal"]);
            m.set("trace.overhead_share", wall_ms / on - 1.0);
            m.set("server.journal_share", (on - off) / on);
            untraced = Some((on, off));
        }

        Outcome {
            correct: warm_ok && failed == 0,
            attempted: n as u64,
            failed: failed as u64,
            metrics: m,
            detail: Json::obj(vec![
                ("jobs", Json::Num(n as f64)),
                ("wall_ms", Json::Num(wall_ms)),
                ("client_ms", Json::Num(client_ms)),
                ("served_ms", Json::Num(served_ms)),
                ("direct_ms", Json::Num(direct_ms)),
                ("direct_no_ckpt_ms", Json::Num(direct_0_ms)),
                ("direct_one_thread_ms", Json::Num(direct_t1_ms)),
                ("walker_ms", Json::Num(walker_ms)),
                ("keyswitch_one_thread_us", Json::Num(ks_t1_us)),
                (
                    "untraced_p50_ms",
                    untraced.map_or(Json::Null, |u| Json::Num(u.0)),
                ),
                (
                    "untraced_no_journal_p50_ms",
                    untraced.map_or(Json::Null, |u| Json::Num(u.1)),
                ),
                (
                    "walker_class_ms",
                    Json::Obj(
                        w0.class_ms
                            .keys()
                            .map(|k| (k.to_string(), Json::Num(class(k))))
                            .collect(),
                    ),
                ),
                (
                    "job_ops",
                    Json::parse(&job_ops.to_json()).unwrap_or(Json::Null),
                ),
                (
                    "keyswitch_ops",
                    Json::parse(&ks_ops.to_json()).unwrap_or(Json::Null),
                ),
                ("spans", spans.to_json()),
            ]),
            work_root: root.0.clone(),
        }
    }
}

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

fn worst_precision(samples: &[JobSample]) -> f64 {
    precision_bits(samples.iter().filter_map(|s| s.max_err).fold(0.0, f64::max))
}

/// End-to-end `metric` of `jobs` jobs of `workload` on the untraced build,
/// run as a child process once this process is idle.
pub fn untraced_metric(
    bin: &PathBuf,
    workload: &str,
    metric: &str,
    args: &RunArgs,
    jobs: usize,
    extra: &[&str],
) -> f64 {
    let out = std::process::Command::new(bin)
        .args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
        .args(["--probe-jobs", &jobs.to_string()])
        .args(if args.smoke { &["--smoke"][..] } else { &[] })
        .args(extra)
        .output()
        .expect("the untraced build runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .last()
        .and_then(|line| Json::parse(line).ok())
        .and_then(|j| j.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .unwrap_or_else(|| panic!("untraced run of {workload} printed no result: {stdout}"))
}

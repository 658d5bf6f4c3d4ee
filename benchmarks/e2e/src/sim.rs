//! `sim_table3`: the accelerator model — a sweep of the paper's Table 3.
//!
//! Why this workload: it is the only one that executes `cl-isa`,
//! `cl-compiler::{lower, schedule}`, `cl-core` and `cl-baselines`; none of
//! the functional layers run. A refactor of the cost recipes shows here
//! (host time and simulated drift) and nowhere else.
//!
//! Two kinds of time, never mixed: *host* time is what the simulator takes
//! to run (`job_*`, `compiler.*`); *simulated* time is what the modelled
//! chip would take (`core.*`). Simulated figures are exact and must repeat
//! bit for bit; any change in them is drift.

use std::time::Instant;

use cl_apps::{all_benchmarks, Benchmark};
use cl_baselines::{craterlake_options, f1_plus_options, CpuModel};
use cl_compiler::compile_and_run;
use cl_core::{ArchConfig, Stats};
use cl_isa::FuKind;
use rand::Rng;

use crate::json::Json;
use crate::metrics::Metrics;
use crate::stats::{median, ms, rng_for};
use crate::{Outcome, RunArgs};

/// Table 3 of the paper, CraterLake column, in `all_benchmarks()` order:
/// metric key and execution time in milliseconds.
const PAPER_TABLE3_MS: [(&str, f64); 8] = [
    ("resnet20", 249.0),
    ("logreg", 120.0),
    ("lstm", 138.0),
    ("packed_boot", 3.91),
    ("unpacked_boot", 0.10),
    ("cifar", 50.5),
    ("mnist_uw", 0.14),
    ("mnist_ew", 0.24),
];

/// Index of the LSTM row. Its two simulations take ~28 s of host time
/// (ten times the other fourteen together), so the timed sweep of the
/// untraced run leaves it out and the traced run measures it once.
const LSTM: usize = 2;

/// Mean |log2(simulated ÷ paper)| at the seed commit, over all eight rows
/// and over the seven timed ones. The model may drift from the paper by at
/// most `MODEL_ERROR_SLACK` octaves beyond this before a sweep fails.
const MODEL_ERROR_ALL: f64 = 1.3213;
const MODEL_ERROR_TIMED: f64 = 1.4808;
const MODEL_ERROR_SLACK: f64 = 0.05;

/// Timed sweeps per second of `--seconds` at the seed commit (3.4 s each).
const SWEEPS_PER_RUN_SECOND: f64 = 0.29;

/// One Table 3 row as simulated.
struct Row {
    index: usize,
    deep: bool,
    nodes: usize,
    cl_ms: f64,
    f1_ms: f64,
    cpu_ms: f64,
    cl_host_ms: f64,
    f1_host_ms: f64,
    cl_stats: Stats,
    cl_arch: ArchConfig,
}

fn simulate(index: usize, bench: &Benchmark) -> Row {
    let (cl_arch, cl_opts) = craterlake_options(bench.n);
    let (f1_arch, f1_opts) = f1_plus_options(bench.n);
    let t = Instant::now();
    let cl_stats = compile_and_run(&bench.graph, &cl_arch, &cl_opts);
    let cl_host_ms = ms(t.elapsed());
    let t = Instant::now();
    let f1_stats = compile_and_run(&bench.graph, &f1_arch, &f1_opts);
    let f1_host_ms = ms(t.elapsed());
    let cpu_s =
        CpuModel::paper_calibrated().time_for_graph(&bench.graph, bench.n, &cl_opts.ks_policy);
    Row {
        index,
        deep: bench.deep,
        nodes: bench.graph.num_nodes(),
        cl_ms: cl_stats.exec_ms(&cl_arch),
        f1_ms: f1_stats.exec_ms(&f1_arch),
        cpu_ms: cpu_s * 1e3,
        cl_host_ms,
        f1_host_ms,
        cl_stats,
        cl_arch,
    }
}

fn model_error_log2(rows: &[Row]) -> f64 {
    rows.iter()
        .map(|r| (r.cl_ms / PAPER_TABLE3_MS[r.index].1).log2().abs())
        .sum::<f64>()
        / rows.len() as f64
}

/// Model sanity of one sweep: every figure finite and positive, CraterLake
/// faster than F1+ on every deep benchmark, and the distance to the
/// paper's Table 3 no larger than recorded.
fn sane(rows: &[Row], recorded_error: f64) -> bool {
    rows.iter().all(|r| {
        [r.cl_ms, r.f1_ms, r.cpu_ms]
            .iter()
            .all(|v| v.is_finite() && *v > 0.0)
            && (!r.deep || r.cl_ms < r.f1_ms)
    }) && model_error_log2(rows) <= recorded_error + MODEL_ERROR_SLACK
}

fn gmean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x.ln(), n + 1));
    (sum / n.max(1) as f64).exp()
}

pub fn run(args: &RunArgs) -> Outcome {
    // Set-up is generating the benchmark graphs: milliseconds, so many
    // repetitions for a steady median.
    let setup_reps = if args.smoke { 1 } else { 15 };
    let mut setup_s = Vec::new();
    let mut benches = Vec::new();
    for _ in 0..setup_reps {
        let t = Instant::now();
        benches = all_benchmarks();
        setup_s.push(t.elapsed().as_secs_f64());
    }
    // The simulator takes no random input; the seed picks the order the
    // sweep visits the benchmarks in.
    let order = |salt: u64, set: &[usize]| {
        let mut rng = rng_for(args.seed, salt);
        let mut v = set.to_vec();
        for i in (1..v.len()).rev() {
            v.swap(i, rng.gen_range(0..=i));
        }
        v
    };
    // Smoke: the two cheapest rows that still cover a deep and a shallow
    // benchmark (packed bootstrapping, MNIST).
    let timed: Vec<usize> = if args.smoke {
        vec![3, 6]
    } else {
        (0..8).filter(|&i| i != LSTM).collect()
    };
    let mut m = Metrics::default();
    m.set("setup_s", median(&setup_s));

    if args.trace {
        let set: Vec<usize> = if args.smoke {
            timed.clone()
        } else {
            (0..8).collect()
        };
        let t = Instant::now();
        let mut rows: Vec<Row> = order(1, &set)
            .into_iter()
            .map(|i| simulate(i, &benches[i]))
            .collect();
        let sweep_s = t.elapsed().as_secs_f64();
        rows.sort_by_key(|r| r.index);
        let recorded = if args.smoke {
            f64::INFINITY
        } else {
            MODEL_ERROR_ALL
        };
        let ok = sane(&rows, recorded);
        let row = |i: usize| rows.iter().find(|r| r.index == i);
        for r in &rows {
            let key = PAPER_TABLE3_MS[r.index].0;
            if PER_ROW_SIM_MS.contains(&key) {
                m.set(&format!("core.sim_ms.{key}"), r.cl_ms);
            }
        }
        let deep = || rows.iter().filter(|r| r.deep);
        m.set(
            "core.f1_speedup_deep",
            gmean(deep().map(|r| r.f1_ms / r.cl_ms)),
        );
        m.set(
            "core.cpu_speedup_deep",
            gmean(deep().map(|r| r.cpu_ms / r.cl_ms)),
        );
        m.set("core.model_error_log2", model_error_log2(&rows));
        if let Some(lstm) = row(LSTM) {
            m.set("core.macro_ops.lstm", lstm.cl_stats.macro_ops as f64);
            m.set("core.evictions.lstm", lstm.cl_stats.evictions as f64);
            m.set("compiler.sim_host_ms.lstm", lstm.cl_host_ms);
        }
        if let Some(resnet) = row(0) {
            m.set("core.hbm_util.resnet20", resnet.cl_stats.bw_utilization());
            m.set(
                "core.fu_util.resnet20",
                fu_utilization(&resnet.cl_stats, &resnet.cl_arch),
            );
            m.set("compiler.sim_host_ms.resnet20", resnet.cl_host_ms);
        }
        m.set("compiler.sweep_s", sweep_s);
        let host_us: f64 = rows
            .iter()
            .map(|r| (r.cl_host_ms + r.f1_host_ms) * 1e3)
            .sum();
        let nodes: usize = rows.iter().map(|r| 2 * r.nodes).sum();
        m.set("compiler.sim_host_us_per_node", host_us / nodes as f64);
        return Outcome {
            correct: ok,
            attempted: 1,
            failed: u64::from(!ok),
            metrics: m,
            detail: Json::obj(vec![
                ("sweeps", Json::Num(1.0)),
                ("simulations", Json::Num(2.0 * rows.len() as f64)),
                ("rows", rows_json(&rows)),
            ]),
            work_root: ".".into(),
        };
    }

    let sweeps = if args.smoke {
        2
    } else {
        ((args.seconds * SWEEPS_PER_RUN_SECOND).round() as usize).max(3)
    };
    let recorded = if args.smoke {
        f64::INFINITY
    } else {
        MODEL_ERROR_TIMED
    };
    let mut times = Vec::new();
    let mut failed = 0usize;
    let mut first: Option<Vec<(f64, f64)>> = None;
    let mut last_rows = Vec::new();
    let t = Instant::now();
    for s in 0..sweeps {
        let t_sweep = Instant::now();
        let mut rows: Vec<Row> = order(s as u64 + 1, &timed)
            .into_iter()
            .map(|i| simulate(i, &benches[i]))
            .collect();
        times.push(ms(t_sweep.elapsed()));
        rows.sort_by_key(|r| r.index);
        // Simulated time is exact: every sweep must reproduce the first.
        let sims: Vec<(f64, f64)> = rows.iter().map(|r| (r.cl_ms, r.f1_ms)).collect();
        let repeats = *first.get_or_insert_with(|| sims.clone()) == sims;
        if !(repeats && sane(&rows, recorded)) {
            failed += 1;
        }
        last_rows = rows;
    }
    let elapsed = t.elapsed().as_secs_f64();
    m.set("job_p50_ms", median(&times));
    m.set("jobs_per_s", (sweeps - failed) as f64 / elapsed);
    m.set("peak_rss_mib", crate::host::peak_rss_mib());
    Outcome {
        correct: failed == 0,
        attempted: sweeps as u64,
        failed: failed as u64,
        metrics: m,
        detail: Json::obj(vec![
            ("sweeps", Json::Num(sweeps as f64)),
            ("simulations_per_sweep", Json::Num(2.0 * timed.len() as f64)),
            ("setup_reps", Json::Num(setup_reps as f64)),
            ("measured_s", Json::Num(elapsed)),
            (
                "samples_ms",
                Json::Arr(times.iter().map(|t| Json::Num(*t)).collect()),
            ),
            ("model_error_log2", Json::Num(model_error_log2(&last_rows))),
            ("rows", rows_json(&last_rows)),
        ]),
        work_root: ".".into(),
    }
}

/// Rows that have a `core.sim_ms.*` metric of their own.
const PER_ROW_SIM_MS: [&str; 6] = [
    "resnet20",
    "logreg",
    "lstm",
    "packed_boot",
    "cifar",
    "mnist_uw",
];

/// `Stats::fu_utilization` summed in a fixed order (its `HashMap` iterates
/// in a different order every run, which moves the last bit).
fn fu_utilization(stats: &Stats, arch: &ArchConfig) -> f64 {
    let busy: f64 = FuKind::ALL
        .iter()
        .map(|k| stats.fu_busy.get(k).copied().unwrap_or(0.0))
        .sum();
    busy / (arch.total_fus() * stats.cycles)
}

fn rows_json(rows: &[Row]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj(vec![
                    ("benchmark", Json::str(PAPER_TABLE3_MS[r.index].0)),
                    ("paper_ms", Json::Num(PAPER_TABLE3_MS[r.index].1)),
                    ("craterlake_ms", Json::Num(r.cl_ms)),
                    ("f1_plus_ms", Json::Num(r.f1_ms)),
                    ("cpu_ms", Json::Num(r.cpu_ms)),
                    ("host_ms", Json::Num(r.cl_host_ms + r.f1_host_ms)),
                    ("nodes", Json::Num(r.nodes as f64)),
                ])
            })
            .collect(),
    )
}

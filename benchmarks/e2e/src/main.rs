//! The repo's end-to-end benchmark. See `README.md` for the workloads, the
//! metrics and how to run; `../../BENCHMARK.json` is the contract.
//!
//! With `--workload W` this process runs that one workload and prints, as
//! the last line of stdout, one JSON object `{correct, attempted, failed,
//! metrics}`. Without it, it runs the suite: every workload in a process
//! of its own (see `suite.rs`).

mod boot;
mod closed;
mod functional;
mod host;
mod json;
mod lola;
mod metrics;
mod probes;
mod serve;
mod sim;
mod spans;
mod stats;
mod suite;
mod walker;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use metrics::{Metrics, END_TO_END, PER_LAYER};

/// `run_seconds` of `BENCHMARK.json`: the default measuring time.
const DEFAULT_SECONDS: f64 = 15.0;

/// Arguments of one workload run.
pub struct RunArgs {
    pub seed: u64,
    /// Sizes the measured work (see `Closed::jobs_per_run_second`).
    pub seconds: f64,
    pub trace: bool,
    /// Toy shapes, a handful of jobs: same code paths, same schema.
    pub smoke: bool,
    /// Serve with the write-ahead journal on (every workload's setting;
    /// off only in the traced run's journal-cost comparison).
    pub journal: bool,
    /// Run one set-up and exactly this many jobs (the traced run's
    /// untraced comparison).
    pub probe_jobs: Option<usize>,
    /// The untraced build, for the traced run's comparisons.
    pub untraced_bin: Option<PathBuf>,
}

/// What one workload run measured.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Sample counts, intermediate figures and (traced) the span list: kept
    /// in result files, not part of the contract line.
    pub detail: Json,
    pub work_root: PathBuf,
}

pub fn run_workload(name: &str, args: &RunArgs) -> Option<Outcome> {
    Some(match name {
        "lola_mlp_8k" => lola::workload(args.smoke).run(args),
        "boot_chain_1k" => boot::workload(args.smoke).run(args),
        "serve_mix" => serve::run(args),
        "sim_table3" => sim::run(args),
        _ => return None,
    })
}

struct Cli {
    workload: Option<String>,
    run: RunArgs,
    repeat: usize,
    label: Option<String>,
    traced_bin: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        run: RunArgs {
            seed: 1,
            seconds: DEFAULT_SECONDS,
            trace: false,
            smoke: false,
            journal: true,
            probe_jobs: None,
            untraced_bin: None,
        },
        repeat: 1,
        label: None,
        traced_bin: None,
        compare: None,
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.run.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.run.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--repeat" => {
                cli.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--label" => cli.label = Some(value("a label")?),
            "--probe-jobs" => {
                cli.run.probe_jobs = Some(
                    value("a count")?
                        .parse()
                        .map_err(|e| format!("--probe-jobs: {e}"))?,
                )
            }
            "--untraced-bin" => cli.run.untraced_bin = Some(value("a path")?.into()),
            "--traced-bin" => cli.traced_bin = Some(value("a path")?.into()),
            "--compare" => {
                cli.compare = Some((value("two files")?.into(), value("two files")?.into()))
            }
            "--smoke" => cli.run.smoke = true,
            "--no-journal" => cli.run.journal = false,
            // `--trace 0|1` (the driver's form) or bare `--trace`.
            "--trace" => {
                cli.run.trace = match argv.peek().map(String::as_str) {
                    Some("0") => {
                        argv.next();
                        false
                    }
                    Some("1") => {
                        argv.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("cl-e2e: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &cli.compare {
        return suite::compare(a, b);
    }
    let Some(workload) = &cli.workload else {
        return suite::run(
            &cli.run,
            cli.repeat,
            cli.label.as_deref(),
            cli.traced_bin.as_deref(),
        );
    };
    let Some(outcome) = run_workload(workload, &cli.run) else {
        eprintln!(
            "cl-e2e: unknown workload {workload} (one of {:?})",
            metrics::WORKLOADS
        );
        return ExitCode::from(2);
    };

    let table = if cli.run.trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in table {
        if let Some(v) = outcome.metrics.get(name) {
            println!("{workload:>14}  {name:<32} {v:>14.4} {unit}");
        }
    }
    if cli.run.trace {
        // Spans and intermediate figures of the traced run, for reading by
        // hand.
        let path = PathBuf::from("benchmarks/e2e/results").join(format!("trace_{workload}.json"));
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let file = Json::obj(vec![
            ("workload", Json::str(workload.as_str())),
            ("host", host::facts(cli.run.seed, &outcome.work_root)),
            ("metrics", outcome.metrics.to_json(PER_LAYER, false)),
            ("detail", outcome.detail.clone()),
        ]);
        if let Err(e) = std::fs::write(&path, file.to_pretty()) {
            eprintln!("cl-e2e: cannot write {}: {e}", path.display());
        }
    }
    let line = Json::obj(vec![
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", outcome.metrics.to_json(table, !cli.run.trace)),
    ]);
    // Sample counts and host facts go to stderr so the suite can keep them.
    eprintln!(
        "{}",
        Json::obj(vec![
            ("host", host::facts(cli.run.seed, &outcome.work_root)),
            ("detail", strip_spans(&outcome.detail)),
        ])
        .to_line()
    );
    println!("{}", line.to_line());
    ExitCode::SUCCESS
}

/// `detail` without the span list (kept in the trace file only).
fn strip_spans(detail: &Json) -> Json {
    match detail {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .filter(|(k, _)| k != "spans")
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    }
}

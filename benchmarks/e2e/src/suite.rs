//! The suite: every workload in a process of its own (so `peak_rss_mib` is
//! that workload's), all metrics printed by name, one result file written.
//!
//! `--repeat K` runs K sets back to back, each on the next seed, and prints
//! the spread of every end-to-end metric against its bound — the tool for
//! the repeatability criterion. `--compare A B` sets two result files side
//! by side and refuses when their host facts differ.

use std::path::Path;
use std::process::{Command, ExitCode};

use crate::host::COMPARABLE_FACTS;
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{iqr_share, median};
use crate::RunArgs;

const RESULTS_DIR: &str = "benchmarks/e2e/results";

/// The closure check on the traced closed-loop workloads: the parts of a
/// job must sum to the job within `CLOSURE_LIMIT` of it, and a keyswitch's
/// kernel classes must account for all but `UNATTRIBUTED_LIMIT` of it. The
/// contract line reports both residuals as metrics (`correct` there is
/// about outputs only); the suite fails on them.
const CLOSURE_WORKLOADS: [&str; 2] = ["lola_mlp_8k", "boot_chain_1k"];
const CLOSURE_LIMIT: f64 = 0.05;
const UNATTRIBUTED_LIMIT: f64 = 0.10;

/// One child run: the contract line plus what the child said on stderr.
struct Run {
    line: Json,
    side: Json,
}

fn spawn(
    bin: &Path,
    workload: &str,
    seed: u64,
    args: &RunArgs,
    trace: bool,
) -> Result<Run, String> {
    let mut cmd = Command::new(bin);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    if let (true, Ok(untraced)) = (trace, std::env::current_exe()) {
        cmd.arg("--untraced-bin").arg(untraced);
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    // The child prints every metric by name, then the contract line.
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for l in lines {
        println!("{l}");
    }
    let line = Json::parse(last).map_err(|e| {
        format!(
            "{workload} printed no result line ({e}); exit {:?}\n{stderr}",
            out.status.code()
        )
    })?;
    let side = stderr
        .lines()
        .rev()
        .find_map(|l| Json::parse(l).ok())
        .unwrap_or(Json::Null);
    for l in stderr.lines().filter(|l| !l.starts_with('{')) {
        eprintln!("{l}");
    }
    Ok(Run { line, side })
}

fn value(run: &Json, metric: &str) -> Option<f64> {
    run.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

/// `(name, better, bound)` of every end-to-end metric in `BENCHMARK.json`,
/// and the names of its per-layer metrics and workloads.
struct Contract {
    end_to_end: Vec<(String, String, f64)>,
    per_layer: Vec<String>,
    workloads: Vec<String>,
}

fn contract() -> Result<Contract, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the checkout's root): {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let names = |key: &str| -> Vec<&Json> {
        json.get(key)
            .and_then(Json::as_arr)
            .map(|a| a.iter().collect())
            .unwrap_or_default()
    };
    let name = |j: &Json| {
        j.get("name")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string()
    };
    Ok(Contract {
        end_to_end: names("end_to_end")
            .into_iter()
            .map(|j| {
                let better = j
                    .get("better")
                    .and_then(Json::as_str)
                    .unwrap_or("lower")
                    .to_string();
                (
                    name(j),
                    better,
                    j.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
                )
            })
            .collect(),
        per_layer: names("per_layer").into_iter().map(name).collect(),
        workloads: names("workloads").into_iter().map(name).collect(),
    })
}

pub fn run(
    args: &RunArgs,
    repeat: usize,
    label: Option<&str>,
    traced_bin: Option<&Path>,
) -> ExitCode {
    let contract = match contract() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cl-e2e: {e}");
            return ExitCode::from(2);
        }
    };
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("cl-e2e: cannot find this executable to run the workloads with");
        return ExitCode::from(2);
    };
    let mut problems: Vec<String> = Vec::new();
    // The declared tables, the contract file and the workload list must
    // name the same things.
    let declared =
        |table: &[(&str, &str)]| table.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
    let e2e_names: Vec<String> = contract
        .end_to_end
        .iter()
        .map(|(n, ..)| n.clone())
        .collect();
    if e2e_names != declared(END_TO_END) || contract.per_layer != declared(PER_LAYER) {
        problems.push("BENCHMARK.json and src/metrics.rs name different metrics".into());
    }
    if contract.workloads != WORKLOADS {
        problems.push("BENCHMARK.json and src/metrics.rs name different workloads".into());
    }

    let mut sets = Vec::new();
    let mut host = Json::Null;
    for set in 0..repeat.max(1) {
        let seed = args.seed + set as u64;
        let mut per_workload = Vec::new();
        for workload in WORKLOADS {
            let mut entry = vec![];
            // The smoke suite covers the per-layer metrics too. Repeated sets
            // are for the spread of the end-to-end metrics: only the first
            // set is also traced.
            let traced = (args.trace || args.smoke) && set == 0;
            let modes: &[bool] = if traced { &[false, true] } else { &[false] };
            for &trace in modes {
                let bin = match (trace, traced_bin) {
                    (true, Some(t)) => t,
                    (true, None) => {
                        problems.push("--trace needs the traced build (run.sh passes it)".into());
                        continue;
                    }
                    (false, _) => exe.as_path(),
                };
                let run = match spawn(bin, workload, seed, args, trace) {
                    Ok(r) => r,
                    Err(e) => {
                        problems.push(e);
                        continue;
                    }
                };
                if run.line.get("correct") != Some(&Json::Bool(true)) {
                    problems.push(format!(
                        "{workload} (seed {seed}, trace {trace}): outputs not correct"
                    ));
                }
                let wanted: Vec<&String> = if trace {
                    contract.per_layer.iter().collect()
                } else {
                    e2e_names.iter().collect()
                };
                for name in wanted {
                    if value(&run.line, name).is_none() {
                        problems.push(format!("{workload}: metric {name} missing from the output"));
                    }
                }
                // (Not on smoke shapes: at toy rings fixed costs dominate a
                // keyswitch and the kernel classes cannot account for it.)
                if trace && !args.smoke && CLOSURE_WORKLOADS.contains(&workload) {
                    let residual = value(&run.line, "trace.closure_residual").unwrap_or(f64::NAN);
                    let unattributed =
                        value(&run.line, "trace.unattributed_share").unwrap_or(f64::NAN);
                    if !(residual <= CLOSURE_LIMIT && unattributed.abs() <= UNATTRIBUTED_LIMIT) {
                        problems.push(format!(
                            "{workload}: closure check failed: residual {residual:.3} (limit \
                             {CLOSURE_LIMIT}), unattributed keyswitch share {unattributed:.3} \
                             (limit {UNATTRIBUTED_LIMIT})"
                        ));
                    }
                }
                if host == Json::Null {
                    host = run.side.get("host").cloned().unwrap_or(Json::Null);
                }
                let key = if trace { "per_layer" } else { "end_to_end" };
                entry.push((key, run.line.get("metrics").cloned().unwrap_or(Json::Null)));
                entry.push((
                    if trace { "traced_run" } else { "run" },
                    Json::obj(vec![
                        (
                            "correct",
                            run.line.get("correct").cloned().unwrap_or(Json::Null),
                        ),
                        (
                            "attempted",
                            run.line.get("attempted").cloned().unwrap_or(Json::Null),
                        ),
                        (
                            "failed",
                            run.line.get("failed").cloned().unwrap_or(Json::Null),
                        ),
                        (
                            "detail",
                            run.side.get("detail").cloned().unwrap_or(Json::Null),
                        ),
                    ]),
                ));
            }
            per_workload.push((workload.to_string(), Json::obj(entry)));
        }
        sets.push(Json::obj(vec![
            ("seed", Json::Num(seed as f64)),
            ("workloads", Json::Obj(per_workload)),
        ]));
    }

    if repeat > 1 {
        println!("\nspread over {repeat} sets (interquartile range ÷ median) against each bound:");
        for workload in WORKLOADS {
            for (name, _, bound) in &contract.end_to_end {
                let values: Vec<f64> = sets
                    .iter()
                    .filter_map(|s| value_at(s, workload, "end_to_end", name))
                    .collect();
                let spread = iqr_share(&values);
                let verdict = if name == "setup_s" {
                    "(not gated)"
                } else if spread > *bound {
                    problems.push(format!(
                        "{workload} {name}: spread {spread:.3} above bound {bound}"
                    ));
                    "ABOVE BOUND"
                } else if spread > bound / 3.0 {
                    "above a third of the bound"
                } else {
                    "ok"
                };
                println!(
                    "{workload:>14}  {name:<14} median {:>12.4}  spread {:>6.2}%  bound {:>5.1}%  {verdict}",
                    median(&values),
                    spread * 100.0,
                    bound * 100.0
                );
            }
        }
    }

    let label = label.unwrap_or(if args.smoke { "smoke" } else { "latest" });
    let file = Json::obj(vec![
        ("label", Json::str(label)),
        ("host", host),
        ("seconds", Json::Num(args.seconds)),
        ("smoke", Json::Bool(args.smoke)),
        ("sets", Json::Arr(sets)),
    ]);
    let path = Path::new(RESULTS_DIR).join(format!("{label}.json"));
    match std::fs::create_dir_all(RESULTS_DIR)
        .and_then(|()| std::fs::write(&path, file.to_pretty()))
    {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => problems.push(format!("cannot write {}: {e}", path.display())),
    }
    for p in &problems {
        eprintln!("cl-e2e: FAILED: {p}");
    }
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn value_at(set: &Json, workload: &str, table: &str, metric: &str) -> Option<f64> {
    set.get("workloads")?
        .get(workload)?
        .get(table)?
        .get(metric)?
        .get("value")?
        .as_f64()
}

pub fn compare(a: &Path, b: &Path) -> ExitCode {
    let load = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (ja, jb, contract) = match (load(a), load(b), contract()) {
        (Ok(ja), Ok(jb), Ok(c)) => (ja, jb, c),
        (ra, rb, rc) => {
            for e in [ra.err(), rb.err(), rc.err().map(|e| e.to_string())]
                .into_iter()
                .flatten()
            {
                eprintln!("cl-e2e: {e}");
            }
            return ExitCode::from(2);
        }
    };
    // Different hosts measure different things: refuse.
    let fact = |j: &Json, k: &str| {
        j.get("host")
            .and_then(|h| h.get(k))
            .cloned()
            .unwrap_or(Json::Null)
    };
    let differing: Vec<&&str> = COMPARABLE_FACTS
        .iter()
        .filter(|k| fact(&ja, k) != fact(&jb, k))
        .collect();
    if !differing.is_empty() {
        for k in differing {
            eprintln!(
                "cl-e2e: host fact {k} differs: {} vs {}",
                fact(&ja, k).to_line(),
                fact(&jb, k).to_line()
            );
        }
        eprintln!("cl-e2e: refusing to compare results from different hosts");
        return ExitCode::FAILURE;
    }
    let medians = |j: &Json, workload: &str, metric: &str| -> Option<f64> {
        let values: Vec<f64> = j
            .get("sets")?
            .as_arr()?
            .iter()
            .filter_map(|s| value_at(s, workload, "end_to_end", metric))
            .collect();
        (!values.is_empty()).then(|| median(&values))
    };
    let mut worse = 0;
    println!(
        "{:>14}  {:<14} {:>12} {:>12} {:>8}  bound",
        "workload", "metric", "A", "B", "change"
    );
    for workload in WORKLOADS {
        for (name, better, bound) in &contract.end_to_end {
            let (Some(va), Some(vb)) = (medians(&ja, workload, name), medians(&jb, workload, name))
            else {
                continue;
            };
            let change = (vb - va) / va;
            let worsening = if better == "lower" { change } else { -change };
            let verdict = if worsening > *bound {
                worse += 1;
                "WORSE THAN BOUND"
            } else {
                ""
            };
            println!(
                "{workload:>14}  {name:<14} {va:>12.4} {vb:>12.4} {:>+7.2}%  {:>4.1}%  {verdict}",
                change * 100.0,
                bound * 100.0
            );
        }
    }
    if worse > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

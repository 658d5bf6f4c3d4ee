//! Host facts recorded in every result file, and the process-level gauges.
//!
//! Two result files are only comparable when their host facts agree
//! (`--compare` refuses otherwise): the same numbers on a different core
//! count, SIMD backend or checkpoint filesystem measure a different thing.

use std::path::{Path, PathBuf};

use crate::json::Json;

/// Facts that decide whether two results may be compared (`seed` and
/// `git_commit` identify the run but do not block a comparison).
pub const COMPARABLE_FACTS: &[&str] = &[
    "nproc",
    "limb_pool_threads",
    "backend",
    "cpu_features",
    "work_root_fs",
];

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

pub fn facts(seed: u64, work_root: &Path) -> Json {
    let features: Vec<Json> = cl_math::cpu_features()
        .into_iter()
        .filter(|(_, on)| *on)
        .map(|(name, _)| Json::str(name))
        .collect();
    Json::obj(vec![
        ("nproc", Json::Num(nproc() as f64)),
        (
            "limb_pool_threads",
            Json::Num(rayon::current_num_threads() as f64),
        ),
        ("backend", Json::str(cl_math::active_backend().name())),
        ("cpu_features", Json::Arr(features)),
        ("work_root_fs", Json::str(fs_type(work_root))),
        ("git_commit", Json::str(git_commit())),
        ("seed", Json::Num(seed as f64)),
    ])
}

/// Filesystem type of the mount holding `path` (longest mount-point prefix
/// in `/proc/mounts`), or "unknown".
fn fs_type(path: &Path) -> String {
    // The work root is removed when its run ends; its nearest surviving
    // ancestor is on the same mount.
    let Some(path) = path.ancestors().find_map(|p| {
        (if p.as_os_str().is_empty() {
            Path::new(".")
        } else {
            p
        })
        .canonicalize()
        .ok()
    }) else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (_, point, ty) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), ty.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, ty)| ty)
}

/// The checkout's commit, read from `.git` directly (no subprocess); the
/// driver's checkouts are not git repositories and report "unknown".
fn git_commit() -> String {
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(PathBuf::from(".git/HEAD")) else {
        return "unknown".into();
    };
    match head.strip_prefix("ref: ") {
        Some(r) => read(Path::new(".git").join(r)).unwrap_or_else(|| "unknown".into()),
        None => head,
    }
}

fn status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Resident set of this process now (`VmRSS`), in MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}

/// Total size of the regular files under `dir`, in bytes.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

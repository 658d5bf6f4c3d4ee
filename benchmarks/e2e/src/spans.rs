//! Harness-side spans: the traced run records one span around every call
//! the benchmark makes into a layer (name, start, end, parent, job id),
//! keeps them in memory, and writes them out when the run ends. Spans
//! inside the program are a later change (ROADMAP item 2).

use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::json::Json;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    job: u64,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    /// Indices of the spans currently open on the recording thread. Traced
    /// runs issue one call at a time, so one stack suffices.
    open: Vec<usize>,
}

pub struct SpanLog {
    /// `None` in untraced runs: `time` then only times.
    inner: Option<Mutex<Inner>>,
    epoch: Instant,
}

impl SpanLog {
    pub fn new(enabled: bool) -> Self {
        Self {
            inner: enabled.then(|| Mutex::new(Inner::default())),
            epoch: Instant::now(),
        }
    }

    fn lock(&self) -> Option<std::sync::MutexGuard<'_, Inner>> {
        self.inner
            .as_ref()
            .map(|m| m.lock().expect("span log poisoned"))
    }

    /// Runs `f`, returning its result and wall time; in a traced run also
    /// records the call as a span of job `job`, child of whichever span is
    /// open.
    pub fn time<R>(&self, name: &'static str, job: u64, f: impl FnOnce() -> R) -> (R, Duration) {
        let idx = self.lock().map(|mut inner| {
            let idx = inner.spans.len();
            let parent = inner.open.last().copied();
            let start_ns = self.epoch.elapsed().as_nanos() as u64;
            inner.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                job,
            });
            inner.open.push(idx);
            idx
        });
        let t = Instant::now();
        let out = f();
        let dur = t.elapsed();
        if let (Some(idx), Some(mut inner)) = (idx, self.lock()) {
            inner.spans[idx].end_ns = inner.spans[idx].start_ns + dur.as_nanos() as u64;
            inner.open.pop();
        }
        (out, dur)
    }

    pub fn to_json(&self) -> Json {
        let Some(inner) = self.lock() else {
            return Json::Arr(Vec::new());
        };
        Json::Arr(
            inner
                .spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj(vec![
                        ("id", Json::Num(id as f64)),
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("job", Json::Num(s.job as f64)),
                    ])
                })
                .collect(),
        )
    }
}

//! The span recorder of the traced run. A span is one timed call into
//! a layer, made from the benchmark's own code; spans stay in
//! memory and are written out once, as Chrome trace-event JSON (opens
//! in Perfetto or `chrome://tracing`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Stream index of the job the call served (`None`: engine-wide).
    pub job: Option<usize>,
    /// The crate (layer) called into.
    pub layer: &'static str,
    /// The call.
    pub name: &'static str,
    /// Start, relative to the recorder's origin.
    pub start: Duration,
    pub dur: Duration,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Chrome `tid`: 0 is the main thread, shard `i` is `i + 1`.
    pub lane: u32,
    /// A side measurement (a call the program itself does not make):
    /// kept out of the residual and the tracing overhead.
    pub side: bool,
}

/// Records spans. Spans on lane 0 (the main thread) nest under the
/// innermost lane-0 span still open; spans on other lanes are
/// top-level.
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    open: Mutex<Vec<usize>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            open: Mutex::new(Vec::new()),
        }
    }

    /// Time `f` as a span of `layer.name` on the main thread.
    pub fn span<T>(
        &self,
        job: Option<usize>,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        self.timed(0, job, layer, name, false, f)
    }

    /// [`Recorder::span`] for a side measurement.
    pub fn side<T>(
        &self,
        job: Option<usize>,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        self.timed(0, job, layer, name, true, f)
    }

    /// [`Recorder::span`] on `lane`.
    pub fn on_lane<T>(
        &self,
        lane: u32,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        self.timed(lane, None, layer, name, false, f)
    }

    fn timed<T>(
        &self,
        lane: u32,
        job: Option<usize>,
        layer: &'static str,
        name: &'static str,
        side: bool,
        f: impl FnOnce() -> T,
    ) -> T {
        let ix = {
            let mut spans = self.spans.lock().expect("span list poisoned");
            let parent = match lane {
                0 => self
                    .open
                    .lock()
                    .expect("span stack poisoned")
                    .last()
                    .copied(),
                _ => None,
            };
            spans.push(Span {
                job,
                layer,
                name,
                start: Duration::ZERO,
                dur: Duration::ZERO,
                parent,
                lane,
                side,
            });
            spans.len() - 1
        };
        if lane == 0 {
            self.open.lock().expect("span stack poisoned").push(ix);
        }
        let t = Instant::now();
        let out = f();
        let dur = t.elapsed();
        if lane == 0 {
            self.open.lock().expect("span stack poisoned").pop();
        }
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans[ix].start = t - self.origin;
        spans[ix].dur = dur;
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span list poisoned")
    }
}

/// Per-`layer.name` totals derived from a span list.
#[derive(Debug, Default)]
pub struct Breakdown {
    /// Self time (duration minus direct children) and span count.
    pub layers: BTreeMap<String, (Duration, u64)>,
    /// Total duration of top-level non-side spans on the main lane.
    pub top_level: Duration,
    /// Total duration of top-level side spans.
    pub side: Duration,
}

impl Breakdown {
    pub fn of(spans: &[Span]) -> Breakdown {
        let mut child = vec![Duration::ZERO; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child[p] += s.dur;
            }
        }
        let mut out = Breakdown::default();
        for (s, c) in spans.iter().zip(child) {
            let e = out
                .layers
                .entry(format!("{}.{}", s.layer, s.name))
                .or_default();
            e.0 += s.dur.saturating_sub(c);
            e.1 += 1;
            if s.parent.is_none() && s.lane == 0 {
                if s.side {
                    out.side += s.dur;
                } else {
                    out.top_level += s.dur;
                }
            }
        }
        out
    }

    /// Self time of `key` (`layer.name`), zero when never recorded.
    pub fn time(&self, key: &str) -> Duration {
        self.layers.get(key).map_or(Duration::ZERO, |e| e.0)
    }

    /// Span count of `key`.
    pub fn count(&self, key: &str) -> u64 {
        self.layers.get(key).map_or(0, |e| e.1)
    }
}

/// Render spans as Chrome trace-event JSON (complete `X` events, µs).
pub fn chrome_json(spans: &[Span], workload: &str) -> String {
    let mut out = String::with_capacity(spans.len() * 140 + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let _ = write!(
        out,
        "{{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{{\"name\":\"{workload}\"}}}}"
    );
    for (ix, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"cat\":\"{}\",\"name\":\"{}.{}\",\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{ix},\"job\":{},\"parent\":{},\
             \"side\":{}}}}}",
            s.lane,
            s.layer,
            s.layer,
            s.name,
            s.start.as_secs_f64() * 1e6,
            s.dur.as_secs_f64() * 1e6,
            s.job.map_or("null".to_string(), |j| j.to_string()),
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.side,
        );
    }
    out.push_str("\n]}\n");
    out
}

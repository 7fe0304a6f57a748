//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer (it changes nothing in the program). Each thread owns a
//! [`Recorder`]; spans stay in memory until the run ends and are then
//! written once as Chrome trace-event JSON, so recording costs one
//! `Instant::now` pair and a `Vec` push per call.

use quma_serve::Json;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified call name, e.g. `serve.submit`.
    pub name: &'static str,
    /// Job sequence number the call belongs to (shared by a job's spans).
    pub job: u64,
    /// Recording thread (one per client).
    pub tid: u32,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// A per-thread span buffer; a disabled recorder records nothing.
pub struct Recorder {
    epoch: Instant,
    tid: u32,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder for thread `tid`, timing against `epoch`.
    pub fn new(epoch: Instant, tid: u32, enabled: bool) -> Self {
        Self {
            epoch,
            tid,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Records a span from `start` to now.
    pub fn record(&mut self, name: &'static str, job: u64, start: Instant) {
        if self.enabled {
            let end = Instant::now();
            self.spans.push(Span {
                name,
                job,
                tid: self.tid,
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                dur_ns: end.duration_since(start).as_nanos() as u64,
            });
        }
    }

    /// Runs `f`, recording it as a span.
    pub fn time<T>(&mut self, name: &'static str, job: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, job, start);
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// (`ph: X`) event per span; nesting follows from time containment on a
/// thread.
pub fn chrome_json(spans: &[Span]) -> String {
    let events = spans
        .iter()
        .map(|s| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("cat", Json::str(s.name.split('.').next().unwrap_or(s.name))),
                ("ph", Json::str("X")),
                ("ts", Json::Float(s.start_ns as f64 / 1e3)),
                ("dur", Json::Float(s.dur_ns as f64 / 1e3)),
                ("pid", Json::Int(1)),
                ("tid", Json::Int(i64::from(s.tid))),
                ("args", Json::obj([("job", Json::Int(s.job as i64))])),
            ])
        })
        .collect();
    Json::obj([("traceEvents", Json::Arr(events))]).encode()
}

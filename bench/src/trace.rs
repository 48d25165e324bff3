//! Spans recorded by the benchmark's own code around every call into a
//! crate's public functions. Spans stay in memory and are written out once,
//! when the benchmark ends.
//!
//! The load is closed-loop from one thread, so the open spans form a stack
//! and a span's parent is whatever was open when it started.

use crate::stats::Json;
use std::time::Instant;

struct Span {
    parent: Option<u32>,
    /// Rep index; negative for set-up iterations (`-1` is the first).
    rep: i32,
    layer: &'static str,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// An open interval. The clock is read whether or not spans are kept,
/// because the untraced run takes its timings from the same call sites.
pub struct Mark {
    id: Option<u32>,
    t0: Instant,
}

pub struct Tracer {
    on: bool,
    rep: i32,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            rep: 0,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Switches span recording for the rep (or set-up iteration) that starts
    /// now. Spans a failed rep left open do not become parents of later ones.
    pub fn begin(&mut self, on: bool, rep: i32) {
        self.on = on;
        self.rep = rep;
        self.stack.clear();
    }

    pub fn open(&mut self, layer: &'static str, name: &'static str) -> Mark {
        let t0 = Instant::now();
        let id = self.on.then(|| {
            let id = self.spans.len() as u32;
            let start_ns = t0.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                parent: self.stack.last().copied(),
                rep: self.rep,
                layer,
                name,
                start_ns,
                end_ns: start_ns,
            });
            self.stack.push(id);
            id
        });
        Mark { id, t0 }
    }

    /// Closes the interval and returns its length in seconds.
    pub fn close(&mut self, mark: Mark) -> f64 {
        let dt = mark.t0.elapsed();
        if let Some(id) = mark.id {
            let span = &mut self.spans[id as usize];
            span.end_ns = span.start_ns + dt.as_nanos() as u64;
            self.stack.pop();
        }
        dt.as_secs_f64()
    }

    /// Times one leaf call: `(result, seconds)`.
    pub fn timed<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let mark = self.open(layer, name);
        let value = f();
        (value, self.close(mark))
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Every span with its self time (duration minus the part its children cover).
    pub fn to_json(&self) -> Json {
        let mut self_ns: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let dur = s.end_ns - s.start_ns;
                self_ns[p as usize] = self_ns[p as usize].saturating_sub(dur);
            }
        }
        Json::Arr(
            self.spans
                .iter()
                .zip(self_ns)
                .enumerate()
                .map(|(id, (s, self_ns))| {
                    Json::obj([
                        ("id", Json::Int(id as i64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Int(i64::from(p))),
                        ),
                        ("rep", Json::Int(i64::from(s.rep))),
                        ("layer", Json::str(s.layer)),
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Int(s.start_ns as i64)),
                        ("end_ns", Json::Int(s.end_ns as i64)),
                        ("self_ns", Json::Int(self_ns as i64)),
                    ])
                })
                .collect(),
        )
    }
}

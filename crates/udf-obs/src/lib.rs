//! Dependency-free observability layer for the UDF-consolidation workspace.
//!
//! The paper's evaluation (Figures 9 and 10 of *Consolidation of Queries
//! with User-Defined Functions*, PLDI 2014) turns on *why* consolidation
//! wins: which rewrite rules fired, how many SMT entailment checks were
//! paid, where the solver spent its time. This crate is the measurement
//! substrate the rest of the workspace reports through:
//!
//! * [`RecorderCell`] — a cloneable handle to one of two sinks: the
//!   default no-op sink (drops everything, `enabled() == false`), so
//!   instrumented hot paths cost ~one predicted branch, or a
//!   [`MemoryRecorder`] (`RecorderCell::memory`). The handle embeds
//!   in configuration structs (`consolidate::Options`, `udf_smt::Solver`,
//!   `naiad_lite::EngineConfig`) without breaking their derived
//!   `Clone`/`Debug`/`Default`.
//! * [`Histogram`] — 65-bucket log₂ latency histogram with atomic updates.
//! * [`SpanTimer`] — RAII timer that records elapsed nanoseconds into a
//!   histogram metric on drop.
//! * [`MetricsSnapshot`] — plain-data copy of all counters/histograms with
//!   a hand-rolled JSON writer (`to_json`; no serde). The dump is
//!   write-only: people and scripts read it, nothing here parses it back.
//!
//! Metric names are centralized in [`names`]; `OBSERVABILITY.md` at the
//! workspace root documents every name, unit, and emission site.
//!
//! # Entry points
//!
//! ```
//! use udf_obs::{names, RecorderCell};
//!
//! let rec = RecorderCell::memory();        // or RecorderCell::noop()
//! rec.add(names::SMT_CHECKS, 1);           // counter
//! rec.observe(names::SMT_CHECK_NS, 1250);  // histogram sample
//! {
//!     let _span = rec.span(names::ENTAIL_NS); // records elapsed ns on drop
//! }
//! let snap = rec.snapshot().unwrap();
//! assert_eq!(snap.counter(names::SMT_CHECKS), 1);
//! let json = snap.to_json();               // machine-readable dump
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod histogram;
pub mod names;
mod recorder;
mod snapshot;

pub use histogram::{bucket_bounds, bucket_index, Histogram, HistogramSnapshot, BUCKETS};
pub use recorder::MemoryRecorder;
use recorder::{NoopRecorder, Recorder};
pub use snapshot::{write_json_string, MetricsSnapshot};

use std::sync::Arc;
use std::time::Instant;

/// A cloneable handle to a metrics sink, designed to live inside
/// configuration structs.
///
/// `RecorderCell` implements `Clone` (shares the sink), `Debug` (does not
/// require the sink to be `Debug`), and `Default` (the no-op sink), so
/// structs like `consolidate::Options` keep their `#[derive(Clone, Debug)]`
/// after gaining a recorder field. Cloning a cell never forks the data:
/// every clone feeds the same underlying sink, which is what lets per-pair
/// solver clones and per-shard engine workers aggregate into one snapshot.
pub struct RecorderCell(Arc<dyn Recorder>);

impl RecorderCell {
    /// The disabled default sink.
    pub fn noop() -> RecorderCell {
        RecorderCell(Arc::new(NoopRecorder))
    }

    /// A fresh in-memory sink (see [`MemoryRecorder`]).
    pub fn memory() -> RecorderCell {
        RecorderCell(Arc::new(MemoryRecorder::new()))
    }

    /// Whether the sink keeps data; use to skip collection-side work.
    pub fn enabled(&self) -> bool {
        self.0.enabled()
    }

    /// Increments counter `metric` by `delta`.
    pub fn add(&self, metric: &'static str, delta: u64) {
        self.0.add(metric, delta);
    }

    /// Records `value` into histogram `metric`.
    pub fn observe(&self, metric: &'static str, value: u64) {
        self.0.observe(metric, value);
    }

    /// A point-in-time copy of everything recorded (`None` for no-op sinks).
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.0.snapshot()
    }

    /// Starts an RAII span: elapsed nanoseconds are recorded into histogram
    /// `metric` when the returned [`SpanTimer`] drops. When the sink is
    /// disabled the timer never reads the clock.
    pub fn span(&self, metric: &'static str) -> SpanTimer {
        SpanTimer {
            recorder: self.clone(),
            metric,
            start: self.enabled().then(Instant::now),
        }
    }
}

impl Clone for RecorderCell {
    fn clone(&self) -> RecorderCell {
        RecorderCell(Arc::clone(&self.0))
    }
}

impl Default for RecorderCell {
    fn default() -> RecorderCell {
        RecorderCell::noop()
    }
}

impl std::fmt::Debug for RecorderCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecorderCell")
            .field("enabled", &self.enabled())
            .finish()
    }
}

/// RAII timer: records elapsed nanoseconds into a histogram metric on drop.
///
/// Construct via [`RecorderCell::span`]. The clock is only read when the
/// sink is enabled, so spans are safe to leave on hot paths.
#[derive(Debug)]
pub struct SpanTimer {
    recorder: RecorderCell,
    metric: &'static str,
    start: Option<Instant>,
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.recorder.observe(self.metric, ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_cell_is_disabled() {
        let cell = RecorderCell::default();
        assert!(!cell.enabled());
        cell.add(names::SMT_CHECKS, 1);
        assert!(cell.snapshot().is_none());
    }

    #[test]
    fn clones_share_one_sink() {
        let a = RecorderCell::memory();
        let b = a.clone();
        a.add(names::PAIRS, 1);
        b.add(names::PAIRS, 2);
        assert_eq!(a.snapshot().unwrap().counter(names::PAIRS), 3);
    }

    #[test]
    fn span_records_into_histogram() {
        let cell = RecorderCell::memory();
        {
            let _span = cell.span(names::SMT_CHECK_NS);
            std::hint::black_box(0u64);
        }
        let snap = cell.snapshot().unwrap();
        assert_eq!(snap.histogram(names::SMT_CHECK_NS).unwrap().count, 1);
    }

    #[test]
    fn noop_span_skips_the_clock() {
        let cell = RecorderCell::noop();
        let span = cell.span(names::SMT_CHECK_NS);
        assert!(span.start.is_none());
    }

    #[test]
    fn debug_does_not_require_sink_debug() {
        let cell = RecorderCell::memory();
        let text = format!("{cell:?}");
        assert!(text.contains("enabled: true"));
    }
}

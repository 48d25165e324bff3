//! The [`Recorder`] sink trait and its two canonical implementations.
//!
//! Instrumented code holds a [`crate::RecorderCell`] and calls
//! `add`/`observe`/`span` unconditionally; the default sink is
//! [`NoopRecorder`], whose methods compile to nothing observable, so
//! instrumentation costs ~one predicted branch unless a user installs a
//! [`MemoryRecorder`].

use crate::histogram::Histogram;
use crate::snapshot::MetricsSnapshot;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A metrics sink. Implementations must be cheap and thread-safe: recorders
/// are shared across pair-consolidation threads and engine worker shards.
pub(crate) trait Recorder: Send + Sync {
    /// Whether this sink keeps data. Callers use this to skip *collection*
    /// work (e.g. reading the clock); they may still call `add`/`observe`.
    fn enabled(&self) -> bool {
        true
    }

    /// Increments counter `metric` by `delta`.
    fn add(&self, metric: &'static str, delta: u64);

    /// Records `value` into histogram `metric`.
    fn observe(&self, metric: &'static str, value: u64);

    /// A point-in-time copy of everything recorded, if this sink keeps data.
    fn snapshot(&self) -> Option<MetricsSnapshot> {
        None
    }
}

/// The default sink: drops everything, reports [`Recorder::enabled`] `false`.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn add(&self, _metric: &'static str, _delta: u64) {}

    fn observe(&self, _metric: &'static str, _value: u64) {}
}

/// An in-memory sink: lock-free atomic updates on the hot path (a read lock
/// plus a relaxed `fetch_add`), a write lock only the first time a metric
/// name is seen.
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    counters: RwLock<BTreeMap<&'static str, Arc<AtomicU64>>>,
    histograms: RwLock<BTreeMap<&'static str, Arc<Histogram>>>,
}

impl MemoryRecorder {
    /// An empty recorder.
    pub(crate) fn new() -> MemoryRecorder {
        MemoryRecorder::default()
    }

    fn counter_cell(&self, metric: &'static str) -> Arc<AtomicU64> {
        if let Some(c) = self.counters.read().expect("poisoned").get(metric) {
            return Arc::clone(c);
        }
        let mut w = self.counters.write().expect("poisoned");
        Arc::clone(w.entry(metric).or_default())
    }

    fn histogram_cell(&self, metric: &'static str) -> Arc<Histogram> {
        if let Some(h) = self.histograms.read().expect("poisoned").get(metric) {
            return Arc::clone(h);
        }
        let mut w = self.histograms.write().expect("poisoned");
        Arc::clone(w.entry(metric).or_default())
    }
}

impl Recorder for MemoryRecorder {
    fn add(&self, metric: &'static str, delta: u64) {
        self.counter_cell(metric)
            .fetch_add(delta, Ordering::Relaxed);
    }

    fn observe(&self, metric: &'static str, value: u64) {
        self.histogram_cell(metric).record(value);
    }

    fn snapshot(&self) -> Option<MetricsSnapshot> {
        let mut snap = MetricsSnapshot::default();
        for (&k, v) in self.counters.read().expect("poisoned").iter() {
            snap.counters
                .insert(k.to_string(), v.load(Ordering::Relaxed));
        }
        for (&k, h) in self.histograms.read().expect("poisoned").iter() {
            snap.histograms.insert(k.to_string(), h.snapshot());
        }
        Some(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_records_nothing() {
        let r = NoopRecorder;
        r.add("x", 1);
        r.observe("y", 2);
        assert!(!r.enabled());
        assert!(r.snapshot().is_none());
    }

    #[test]
    fn memory_counts_and_observes() {
        let r = MemoryRecorder::new();
        r.add("a", 2);
        r.add("a", 3);
        r.observe("h", 7);
        let s = r.snapshot().unwrap();
        assert_eq!(s.counter("a"), 5);
        assert_eq!(s.histogram("h").unwrap().count, 1);
        assert_eq!(s.histogram("h").unwrap().sum, 7);
    }

    #[test]
    fn memory_is_shareable_across_threads() {
        let r = Arc::new(MemoryRecorder::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let r = Arc::clone(&r);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        r.add("n", 1);
                        r.observe("v", 3);
                    }
                });
            }
        });
        let s = r.snapshot().unwrap();
        assert_eq!(s.counter("n"), 4000);
        assert_eq!(s.histogram("v").unwrap().count, 4000);
    }
}

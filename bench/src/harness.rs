//! What every workload shares: the run configuration, the rep variants of
//! the traced run, and the per-rep result a workload fills in.

use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use udf_obs::RecorderCell;

/// Named values of one rep or one set-up iteration (sums, counts, ratios).
pub type Layers = BTreeMap<&'static str, f64>;

pub fn add(layers: &mut Layers, key: &'static str, value: f64) {
    *layers.entry(key).or_insert(0.0) += value;
}

/// The value under `key`, 0 when a failed rep never got that far.
pub fn get(layers: &Layers, key: &str) -> f64 {
    layers.get(key).copied().unwrap_or(0.0)
}

pub fn ratio(acc: &Layers, num: &str, den: &str) -> f64 {
    match get(acc, den) {
        0.0 => 0.0,
        den => get(acc, num) / den,
    }
}

pub struct Config {
    /// Reseeds datasets, record streams and op schedules.
    pub seed: u64,
    /// Seeds the query families of `udf-data`. Held fixed across `--seed`
    /// values: Ω cost swings about 3× with the drawn constants, which would
    /// drown every bound (see the README).
    pub query_seed: u64,
    pub smoke: bool,
    /// Engine workers: `min(nproc, 2)`.
    pub workers: usize,
    /// Directory for journal directories and the plan-cache snapshot.
    pub scratch: PathBuf,
}

/// How one rep is instrumented. The untraced run uses `Plain` only; the
/// traced run rotates through all that apply to the workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Variant {
    /// No spans, no-op recorder: the end-to-end numbers.
    Plain,
    /// Spans on, no-op recorder: the per-layer numbers.
    Spans,
    /// Spans on and a memory `RecorderCell` threaded through the existing
    /// recorder fields: the `smt.check_ns` numbers and the recorder overhead.
    Full,
    /// `Service::new` in place of `Service::open` (serve workloads only):
    /// the journal-off baseline for `udf-serve.journal_ms_per_round`.
    NoJournal,
}

impl Variant {
    pub fn spans(self) -> bool {
        matches!(self, Variant::Spans | Variant::Full)
    }

    pub fn recorder(self) -> RecorderCell {
        if self == Variant::Full {
            RecorderCell::memory()
        } else {
            RecorderCell::noop()
        }
    }
}

/// One rep's result.
#[derive(Default)]
pub struct RepOut {
    /// Wall of the rep's timed region, seconds.
    pub wall_s: f64,
    /// Wall of each operation (cell, engine pass or round), milliseconds.
    pub ops_ms: Vec<f64>,
    /// Records evaluated, and the wall they took, for `records_per_s`.
    pub records: u64,
    pub records_wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub layers: Layers,
}

impl RepOut {
    /// Counts one attempted operation; a failed one keeps its reason.
    pub fn attempt(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.errors.push(e);
        }
    }
}

/// What a workload's rep works with.
pub struct Cx<'a> {
    pub tr: &'a mut Tracer,
    pub recorder: RecorderCell,
    pub workers: usize,
    pub out: &'a mut RepOut,
    /// Raw sums the rep turns into ratios at its end.
    pub acc: Layers,
}

pub trait Workload {
    /// Which variants the traced run rotates through.
    fn variants(&self) -> &'static [Variant] {
        &[Variant::Plain, Variant::Spans, Variant::Full]
    }

    /// Runs one rep of the workload's fixed seeded schedule.
    fn rep(&mut self, index: usize, variant: Variant, tr: &mut Tracer, out: &mut RepOut);
}

/// Stores the solver time of a rep and, from `udf-smt.checks`, the time per check.
pub fn record_smt_ms(layers: &mut Layers, ms: f64) {
    layers.insert("udf-smt.check_ms_total", ms);
    layers.insert(
        "udf-smt.ms_per_check",
        ratio(layers, "udf-smt.check_ms_total", "udf-smt.checks"),
    );
}

/// Milliseconds the memory recorder saw inside `smt.check_ns`.
pub fn smt_check_ms(recorder: &RecorderCell) -> Option<f64> {
    let snap = recorder.snapshot()?;
    let sum = snap
        .histogram(udf_obs::names::SMT_CHECK_NS)
        .map_or(0, |h| h.sum);
    Some(sum as f64 / 1e6)
}

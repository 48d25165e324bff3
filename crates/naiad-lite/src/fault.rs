//! Deterministic fault injection for exercising the engine's failure model.
//!
//! A [`FaultPlan`] maps record indices to [`FaultKind`]s; wrapping any
//! [`UdfEnv`] in a [`FaultyEnv`] makes a designated *trigger function*
//! misbehave on exactly the planned records:
//!
//! * [`FaultKind::LibError`] — the trigger call returns a library error,
//!   which the VM surfaces as [`crate::VmError::Lib`];
//! * [`FaultKind::Panic`] — the trigger call panics (message prefixed with
//!   `INJECTED_PANIC_MARKER`), exercising the engine's per-record
//!   `catch_unwind` isolation;
//! * [`FaultKind::FuelBurn`] — the trigger call returns
//!   a huge loop bound instead of the healthy value; a UDF that
//!   loops on the result then exhausts a suitably small step budget,
//!   producing [`crate::VmError::OutOfFuel`];
//! * [`FaultKind::Transient`] — the trigger call fails with
//!   [`LibError::Transient`] for the first `k` calls on that record and
//!   succeeds afterwards, exercising the engine's retry path (see
//!   [`crate::engine::EngineConfig::max_retries`]).
//!
//! Faults key on the *record index*, not on execution order, so `Many` and
//! `Consolidated` runs over the same records fault identically — the
//! property the quarantine parity tests rely on.

use crate::env::UdfEnv;
use std::collections::BTreeMap;
use udf_lang::cost::Cost;
use udf_lang::intern::Symbol;
use udf_lang::library::LibError;

/// What the trigger function does on a faulted record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Return a [`LibError`] from the trigger call.
    LibError,
    /// Panic inside the trigger call.
    Panic,
    /// Return the environment's burn value (a huge loop bound) so the UDF
    /// exhausts its fuel.
    FuelBurn,
    /// Fail the first `k` trigger calls for the record with
    /// [`LibError::Transient`], then succeed. While a record keeps failing,
    /// each evaluation attempt consumes exactly one trigger call (the first
    /// failing call aborts the attempt), so `Transient(k)` models a fault
    /// that clears after `k` retries: an engine retrying at least `k` times
    /// recovers the record, fewer retries quarantine it.
    Transient(u32),
}

/// Prefix of every injected panic message; panic hooks installed by
/// [`silence_injected_panics`] use it to tell injected panics from real ones.
pub(crate) const INJECTED_PANIC_MARKER: &str = "injected fault:";

/// A deterministic record-index → fault mapping.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: BTreeMap<usize, FaultKind>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan faulting exactly one record.
    pub fn single(record: usize, kind: FaultKind) -> FaultPlan {
        let mut p = FaultPlan::default();
        p.insert(record, kind);
        p
    }

    /// A seeded plan faulting `count` distinct records out of `n_records`,
    /// cycling through the three permanent fault kinds. The same `(seed,
    /// n_records, count)` always yields the same plan.
    pub fn seeded(seed: u64, n_records: usize, count: usize) -> FaultPlan {
        FaultPlan::seeded_kinds(
            seed,
            n_records,
            count,
            &[FaultKind::LibError, FaultKind::Panic, FaultKind::FuelBurn],
        )
    }

    /// Like [`FaultPlan::seeded`] but cycling through an explicit kind list
    /// (e.g. a mix of [`FaultKind::Transient`] depths for retry tests).
    /// Record placement depends only on `(seed, n_records, count)`, so two
    /// plans over the same population fault the same records regardless of
    /// which kinds they assign.
    pub fn seeded_kinds(
        seed: u64,
        n_records: usize,
        count: usize,
        kinds: &[FaultKind],
    ) -> FaultPlan {
        let mut plan = FaultPlan::default();
        if n_records == 0 || kinds.is_empty() {
            return plan;
        }
        let mut state = seed ^ 0xa076_1d64_78bd_642f;
        let mut k = 0usize;
        while plan.faults.len() < count.min(n_records) {
            let record = (splitmix64(&mut state) % n_records as u64) as usize;
            if plan.faults.contains_key(&record) {
                continue;
            }
            plan.faults.insert(record, kinds[k % kinds.len()]);
            k += 1;
        }
        plan
    }

    /// Adds one fault.
    pub fn insert(&mut self, record: usize, kind: FaultKind) {
        self.faults.insert(record, kind);
    }

    /// The planned fault for `record`, if any.
    pub fn kind(&self, record: usize) -> Option<FaultKind> {
        self.faults.get(&record).copied()
    }

    /// Sorted indices of all planned records.
    pub fn records(&self) -> Vec<usize> {
        self.faults.keys().copied().collect()
    }

    /// Number of planned faults.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.faults.len()
    }
}

/// Wraps an environment so a designated trigger function misbehaves on the
/// planned records. Records carry their global index: the wrapped record
/// type is `(usize, E::Rec)`.
#[derive(Debug)]
pub struct FaultyEnv<E: UdfEnv> {
    inner: E,
    plan: FaultPlan,
    trigger: Symbol,
    burn_value: i64,
    /// Per-record count of trigger calls already failed with
    /// [`FaultKind::Transient`]; once a record's count reaches its planned
    /// depth the fault has "cleared" and calls pass through.
    transient_failures: std::sync::Mutex<BTreeMap<usize, u32>>,
}

impl<E: UdfEnv> FaultyEnv<E> {
    /// Creates the wrapper. `trigger` is the external function the plan
    /// intercepts; all other functions pass through untouched.
    pub fn new(inner: E, trigger: Symbol, plan: FaultPlan) -> FaultyEnv<E> {
        FaultyEnv {
            inner,
            plan,
            trigger,
            burn_value: 1_000_000_000,
            transient_failures: std::sync::Mutex::new(BTreeMap::new()),
        }
    }

    /// Forgets all transient-failure progress, as if every planned
    /// [`FaultKind::Transient`] fault were fresh again. Call between engine
    /// runs that reuse one environment so each run sees the same faults.
    pub fn reset_transients(&self) {
        self.transient_failures
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
    }

    /// Overrides the value returned on [`FaultKind::FuelBurn`] faults.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn with_burn_value(mut self, v: i64) -> FaultyEnv<E> {
        self.burn_value = v;
        self
    }

    /// Pairs each record with its global index, producing the record type
    /// this environment evaluates.
    pub fn index_records<I: IntoIterator<Item = E::Rec>>(records: I) -> Vec<(usize, E::Rec)> {
        records.into_iter().enumerate().collect()
    }
}

impl<E: UdfEnv> UdfEnv for FaultyEnv<E> {
    type Rec = (usize, E::Rec);

    fn arity(&self) -> usize {
        self.inner.arity()
    }

    fn args(&self, rec: &Self::Rec, out: &mut Vec<i64>) {
        self.inner.args(&rec.1, out);
    }

    fn call(&self, rec: &Self::Rec, f: Symbol, args: &[i64]) -> Result<i64, LibError> {
        if f == self.trigger {
            match self.plan.kind(rec.0) {
                Some(FaultKind::LibError) => {
                    return Err(LibError::UnknownFunction(format!(
                        "injected lib fault on record {}",
                        rec.0
                    )));
                }
                Some(FaultKind::Panic) => {
                    panic!("{INJECTED_PANIC_MARKER} record {}", rec.0);
                }
                Some(FaultKind::FuelBurn) => return Ok(self.burn_value),
                Some(FaultKind::Transient(depth)) => {
                    let mut failed = self
                        .transient_failures
                        .lock()
                        .unwrap_or_else(|e| e.into_inner());
                    let count = failed.entry(rec.0).or_insert(0);
                    if *count < depth {
                        *count += 1;
                        return Err(LibError::Transient(format!(
                            "injected transient fault on record {} ({}/{depth})",
                            rec.0, *count
                        )));
                    }
                }
                None => {}
            }
        }
        self.inner.call(&rec.1, f, args)
    }

    fn fn_cost(&self, f: Symbol) -> Cost {
        self.inner.fn_cost(f)
    }
}

/// Installs (once per process) a panic hook that suppresses the output of
/// injected panics — those whose message starts with
/// `INJECTED_PANIC_MARKER` — and forwards everything else to the previous
/// hook. Call from tests that exercise [`FaultKind::Panic`] so expected
/// unwinds don't spam stderr.
pub fn silence_injected_panics() {
    use std::sync::Once;
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.starts_with(INJECTED_PANIC_MARKER))
                || info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|m| m.starts_with(INJECTED_PANIC_MARKER));
            if !injected {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic_and_distinct() {
        let a = FaultPlan::seeded(7, 1000, 10);
        let b = FaultPlan::seeded(7, 1000, 10);
        let c = FaultPlan::seeded(8, 1000, 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 10);
        assert!(a.records().iter().all(|&r| r < 1000));
    }

    #[test]
    fn seeded_plan_caps_at_population() {
        let p = FaultPlan::seeded(1, 3, 10);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn seeded_kinds_places_records_independently_of_kinds() {
        let a = FaultPlan::seeded(9, 500, 8);
        let b = FaultPlan::seeded_kinds(9, 500, 8, &[FaultKind::Transient(2)]);
        assert_eq!(a.records(), b.records());
        assert!(b
            .records()
            .iter()
            .all(|&r| b.kind(r) == Some(FaultKind::Transient(2))));
    }

    #[test]
    fn transient_faults_clear_after_depth_failures() {
        use crate::env::{ScalarEnv, UdfEnv};
        let mut i = udf_lang::intern::Interner::new();
        let probe = i.intern("probe");
        let mut lib = udf_lang::FnLibrary::new();
        lib.register(probe, "probe", 1, 10, |a| a[0]);
        let env = FaultyEnv::new(
            ScalarEnv::new(1, lib),
            probe,
            FaultPlan::single(4, FaultKind::Transient(2)),
        );
        let rec = (4usize, vec![7i64]);
        for _ in 0..2 {
            assert!(matches!(
                env.call(&rec, probe, &[7]),
                Err(LibError::Transient(_))
            ));
        }
        assert_eq!(env.call(&rec, probe, &[7]), Ok(7));
        // Other records are untouched, and a reset re-arms the fault.
        assert_eq!(env.call(&(5, vec![1]), probe, &[1]), Ok(1));
        env.reset_transients();
        assert!(matches!(
            env.call(&rec, probe, &[7]),
            Err(LibError::Transient(_))
        ));
    }
}

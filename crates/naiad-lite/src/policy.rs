//! The failure policy both executors share.
//!
//! A record shard of [`crate::engine`] and a fold chunk of [`crate::agg`]
//! make the same four decisions, and make them here, once:
//!
//! * **task runner** — [`run_tasks`] runs `n` tasks on `min(workers, n)`
//!   scoped threads and returns their results in task order; a task that
//!   panics yields its own `Err(payload)`;
//! * **isolated attempt** — [`attempt`] runs one program on [`RegVm`] with
//!   its unwinds caught, replacing the machine after one;
//! * **transient retry** — [`QuarantineReport::retry`] re-runs a transient
//!   fault up to [`EngineConfig::max_retries`] times and tallies it;
//! * **admission** — [`QuarantineReport::admit`] turns a final fault into
//!   the [`ErrorPolicy::FailFast`] error or a quarantine entry, with a
//!   payload sample while fewer than [`EngineConfig::max_payload_samples`]
//!   entries are held. [`finalize_quarantine`] then applies the one global
//!   cap.

use crate::compile::VmError;
use crate::engine::{
    EngineConfig, EngineError, ErrorKind, ErrorPolicy, QuarantineEntry, QuarantineReport,
};
use crate::env::UdfEnv;
use crate::regcode::{RegProgram, RegVm};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use udf_lang::ast::ProgId;

/// Renders a caught panic payload as text.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs `f`, turning a panic into its payload text.
fn isolate<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| panic_message(p.as_ref()))
}

/// Runs tasks `0..n` on `min(workers, n)` scoped threads and returns the
/// results in task order. Thread `t` runs task `t` first, so every thread
/// has work even when there are as many tasks as threads, then claims the
/// next unclaimed task until none is left. A task that panics yields `Err`
/// with its payload; its thread goes on with the next task. One thread's
/// worth of tasks runs on the calling thread instead of a spawned one.
pub(crate) fn run_tasks<T: Send>(
    workers: usize,
    n: usize,
    task: impl Fn(usize) -> T + Sync,
) -> Vec<Result<T, String>> {
    let threads = workers.min(n);
    if threads <= 1 {
        return (0..n).map(|i| isolate(|| task(i))).collect();
    }
    // Relaxed: the counter only hands out indices; results come back
    // through `join`.
    let next = AtomicUsize::new(threads);
    let claim = || Some(next.fetch_add(1, Ordering::Relaxed)).filter(|&i| i < n);
    let task = &task;
    let mut done: Vec<(usize, Result<T, String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    std::iter::once(t)
                        .chain(std::iter::from_fn(claim))
                        .map(|i| (i, isolate(|| task(i))))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        // Every task is isolated, so a thread itself cannot unwind.
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| resume_unwind(p)))
            .collect()
    });
    done.sort_unstable_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// How one evaluation ended, before policy classifies it: a record's UDFs
/// and an aggregation's fold both run on [`RegVm`].
pub(crate) enum RecordFault {
    Vm(VmError),
    Panic(String),
}

impl RecordFault {
    pub(crate) fn kind(&self) -> ErrorKind {
        match self {
            RecordFault::Vm(e) => ErrorKind::of(e),
            RecordFault::Panic(_) => ErrorKind::Panic,
        }
    }

    /// Whether a retry of the same evaluation may succeed.
    pub(crate) fn is_transient(&self) -> bool {
        matches!(self, RecordFault::Vm(e) if e.is_transient())
    }

    /// The [`EngineError`] this fault raises under
    /// [`ErrorPolicy::FailFast`].
    fn fail_fast(self, record: usize) -> EngineError {
        match self {
            RecordFault::Panic(message) => EngineError::RecordPanic { record, message },
            RecordFault::Vm(error) => EngineError::Record { record, error },
        }
    }

    /// The entry this fault leaves under [`ErrorPolicy::Quarantine`].
    fn quarantine(
        self,
        record: usize,
        query: Option<ProgId>,
        sample: Option<Vec<i64>>,
        retries: u32,
    ) -> QuarantineEntry {
        QuarantineEntry {
            record,
            query,
            kind: self.kind(),
            detail: match self {
                RecordFault::Vm(e) => e.to_string(),
                RecordFault::Panic(m) => m,
            },
            sample,
            retries,
        }
    }
}

/// One evaluation's end: its cost, or the query or aggregation whose
/// program faulted (`None` for the consolidated program) and the fault.
pub(crate) type Outcome = Result<u64, (Option<ProgId>, RecordFault)>;

/// Runs `prog` on `rec` once, with a panic caught as a fault. The machine's
/// state is unspecified after an unwind through [`RegVm::run`], so `vm` is
/// replaced by a fresh one of budget `fuel`.
pub(crate) fn attempt<E: UdfEnv>(
    vm: &mut RegVm,
    fuel: u64,
    prog: &RegProgram,
    env: &E,
    rec: &E::Rec,
    notify: &mut [i8],
    track_cost: bool,
) -> Result<u64, RecordFault> {
    match isolate(|| vm.run(prog, env, rec, notify, track_cost)) {
        Ok(run) => run.map_err(RecordFault::Vm),
        Err(message) => {
            *vm = RegVm::new().with_fuel(fuel);
            Err(RecordFault::Panic(message))
        }
    }
}

impl QuarantineReport {
    /// Retries a fault: re-runs `again` while the outcome is a transient
    /// fault and fewer than `max_retries` retries were spent, and tallies a
    /// retried evaluation in `records_retried` / `retry_attempts` /
    /// `records_recovered`. Returns the final outcome and the retries spent
    /// on it. Callers come here only on a fault, which keeps a fault-free
    /// evaluation free of the call.
    pub(crate) fn retry(
        &mut self,
        max_retries: u32,
        fault: (Option<ProgId>, RecordFault),
        mut again: impl FnMut() -> Outcome,
    ) -> (Outcome, u32) {
        let mut outcome: Outcome = Err(fault);
        let mut retries = 0u32;
        while retries < max_retries && outcome.as_ref().is_err_and(|(_, f)| f.is_transient()) {
            retries += 1;
            outcome = again();
        }
        if retries > 0 {
            self.records_retried += 1;
            self.retry_attempts += u64::from(retries);
            self.records_recovered += usize::from(outcome.is_ok());
        }
        (outcome, retries)
    }

    /// Admits a final fault of `record`: the job's error under
    /// [`ErrorPolicy::FailFast`], otherwise an entry, carrying `args()` as
    /// its payload sample while fewer than
    /// [`EngineConfig::max_payload_samples`] entries are held.
    ///
    /// # Errors
    ///
    /// The fault's [`EngineError`] under [`ErrorPolicy::FailFast`].
    pub(crate) fn admit(
        &mut self,
        config: &EngineConfig,
        record: usize,
        (query, fault): (Option<ProgId>, RecordFault),
        retries: u32,
        args: impl FnOnce() -> Vec<i64>,
    ) -> Result<(), EngineError> {
        if config.error_policy == ErrorPolicy::FailFast {
            return Err(fault.fail_fast(record));
        }
        let sample = (self.entries.len() < config.max_payload_samples).then(args);
        self.entries
            .push(fault.quarantine(record, query, sample, retries));
        Ok(())
    }

    /// Adds a partial report's entries and retry tally (a shard's, a
    /// chunk's, a definition's).
    pub(crate) fn absorb(&mut self, part: QuarantineReport) {
        self.entries.extend(part.entries);
        self.records_retried += part.records_retried;
        self.retry_attempts += part.retry_attempts;
        self.records_recovered += part.records_recovered;
    }
}

/// Closes a job's quarantine report: entries in record order, payload
/// samples capped, overflow raised. The sort is stable, so a caller that
/// appends same-record entries in its tie-break order keeps that order.
///
/// Admission samples up to the global cap per partial report, so any entry
/// landing in the global first-N has one; the excess is stripped after the
/// sort so the report is identical for every worker count.
pub(crate) fn finalize_quarantine(
    mut quarantine: QuarantineReport,
    config: &EngineConfig,
) -> Result<QuarantineReport, EngineError> {
    quarantine.entries.sort_by_key(|e| e.record);
    quarantine.records_quarantined = quarantine.entries.len();
    for e in quarantine
        .entries
        .iter_mut()
        .skip(config.max_payload_samples)
    {
        e.sample = None;
    }
    match config.error_policy {
        ErrorPolicy::Quarantine { max_errors } if quarantine.records_quarantined > max_errors => {
            Err(EngineError::TooManyErrors {
                limit: max_errors,
                observed: quarantine.records_quarantined,
            })
        }
        _ => Ok(quarantine),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tasks_come_back_in_task_order_at_every_worker_count() {
        for workers in [1usize, 2, 3, 8] {
            for n in [0usize, 1, 5, 17] {
                let got: Vec<usize> = run_tasks(workers, n, |i| i * 10)
                    .into_iter()
                    .map(|r| r.expect("no task panics"))
                    .collect();
                assert_eq!(
                    got,
                    (0..n).map(|i| i * 10).collect::<Vec<_>>(),
                    "{workers}w {n}"
                );
            }
        }
    }

    #[test]
    fn a_panicking_task_yields_its_payload_and_spares_the_rest() {
        crate::fault::silence_injected_panics();
        for workers in [1usize, 2, 8] {
            let got = run_tasks(workers, 6, |i| {
                if i == 3 {
                    panic!("{} task {i} died", crate::fault::INJECTED_PANIC_MARKER);
                }
                i
            });
            assert_eq!(got.len(), 6);
            for (i, r) in got.into_iter().enumerate() {
                match r {
                    Ok(v) => assert_eq!(v, i),
                    Err(message) => {
                        assert_eq!(i, 3, "{workers}w");
                        assert!(message.contains("task 3 died"), "{message}");
                    }
                }
            }
        }
    }
}

//! Differential plan validation: runtime cross-checking of the consolidated
//! plan against the sequential semantics.
//!
//! Consolidation is proved observationally equivalent on paper (Theorem 1),
//! but a deployed engine also faces hazards the proof does not cover: a
//! plan-cache entry rotted on disk, a miscompiled merged program, or a
//! library whose behaviour drifted between consolidation time and run time.
//! The *plan guard* defends against all of them by shadow-executing a
//! deterministic sample of records through the sequential `Many` path while
//! a `Consolidated` job runs, comparing both the per-query notifications and
//! the quarantine decision:
//!
//! * agree → nothing happens beyond a `guard.shadow_runs` tick;
//! * diverge → the mismatch is counted, an example captured, and the job
//!   *trips*: the configured [`GuardAction`] decides what happens next. The
//!   first divergence trips — Theorem 1 promises the *same* notifications,
//!   so a plan that differed once is not trusted for another record.
//!
//! On a trip with [`GuardAction::Demote`], the engine discards the
//! consolidated results mid-stream (workers abort at the next record), runs
//! the whole job again through the sequential path — so no record is
//! dropped and the output is bit-identical to a pure-`Many` run — and
//! invalidates the plan's entry in the attached plan cache so the next
//! compile re-consolidates instead of re-serving the poisoned plan. The
//! structured [`PlanIncident`] lands in [`crate::engine::JobReport::guard`]
//! (or in [`crate::engine::EngineError::GuardTripped`] under
//! [`GuardAction::FailFast`]).
//!
//! Sampling is keyed on the *record index* with a splitmix64 hash under a
//! fixed seed, so which records are shadowed is independent of worker
//! count and scheduling — the same job shape always audits the same
//! records.

use crate::compile::NOTIFY_NONE;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// What the engine does when a shadowed record diverges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GuardAction {
    /// Discard the consolidated results, rerun the job through the
    /// sequential `Many` path, and invalidate the plan in the cache. The
    /// job still succeeds, with outputs identical to a pure-sequential run.
    #[default]
    Demote,
    /// Abort the job with [`crate::engine::EngineError::GuardTripped`]
    /// (still invalidating the cached plan).
    FailFast,
    /// Record the incident in the report but keep the consolidated results
    /// and the cached plan. For observation in environments where the
    /// sequential rerun is too expensive.
    LogOnly,
}

impl GuardAction {
    /// Short lowercase label for reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            GuardAction::Demote => "demote",
            GuardAction::FailFast => "fail-fast",
            GuardAction::LogOnly => "log-only",
        }
    }
}

/// Configuration of the plan guard (see the module docs).
///
/// The default is disabled (`sample_rate == 0.0`): no shadow runs, no
/// comparisons, no overhead beyond one predicate per job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardPolicy {
    /// Fraction of records shadow-executed through the sequential path,
    /// in `[0.0, 1.0]`. `0.0` disables the guard; `1.0` audits every
    /// record.
    pub sample_rate: f64,
    /// Reaction to a trip.
    pub on_mismatch: GuardAction,
}

impl Default for GuardPolicy {
    fn default() -> GuardPolicy {
        GuardPolicy {
            sample_rate: 0.0,
            on_mismatch: GuardAction::Demote,
        }
    }
}

/// Seed of the deterministic sampling hash: two jobs with the same rate and
/// record count audit the same record indices regardless of worker count.
const SAMPLE_SEED: u64 = 0x9b1d_eb4d_b743_fa2c;

impl GuardPolicy {
    /// A guard auditing every record and demoting on the first divergence —
    /// the strictest setting, used by the validation tests.
    pub fn audit_all() -> GuardPolicy {
        GuardPolicy {
            sample_rate: 1.0,
            ..GuardPolicy::default()
        }
    }

    /// Whether the policy performs any shadow runs at all.
    pub fn is_active(&self) -> bool {
        self.sample_rate > 0.0
    }

    /// Deterministically decides whether `record` is shadow-executed.
    /// Depends only on `(record, sample_rate)` — never on worker count or
    /// scheduling.
    pub fn samples(&self, record: usize) -> bool {
        if self.sample_rate >= 1.0 {
            return true;
        }
        if self.sample_rate <= 0.0 {
            return false;
        }
        let mut state = SAMPLE_SEED ^ (record as u64).wrapping_mul(0xff51_afd7_ed55_8ccd);
        let hash = crate::fault::splitmix64(&mut state);
        // Map the rate to a threshold over the full u64 range; the hash is
        // uniform, so P(hash < threshold) == sample_rate up to rounding.
        let threshold = (self.sample_rate * (u64::MAX as f64)) as u64;
        hash < threshold
    }
}

/// One side of a divergence: what a path decided for a sampled record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GuardObservation {
    /// The path evaluated the record; per-query broadcast decisions, in
    /// query order (`None` = no broadcast).
    Notified(Vec<Option<bool>>),
    /// The path faulted on the record (it would be quarantined).
    Quarantined,
}

impl GuardObservation {
    /// Builds the `Notified` observation from a raw VM notify buffer.
    pub(crate) fn from_notify(notify: &[i8]) -> GuardObservation {
        GuardObservation::Notified(
            notify
                .iter()
                .map(|&v| match v {
                    0 => Some(false),
                    1 => Some(true),
                    _ => {
                        debug_assert_eq!(v, NOTIFY_NONE);
                        None
                    }
                })
                .collect(),
        )
    }
}

/// A captured example of one record where the two paths disagreed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuardMismatch {
    /// Global index of the divergent record.
    pub record: usize,
    /// What the consolidated plan produced.
    pub consolidated: GuardObservation,
    /// What the sequential shadow run produced.
    pub sequential: GuardObservation,
}

/// Structured account of a tripped guard, attached to the job report (or
/// the [`crate::engine::EngineError::GuardTripped`] error).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanIncident {
    /// Records in the job.
    pub records: usize,
    /// Shadow runs performed before the verdict.
    pub shadow_runs: u64,
    /// Divergent records observed.
    pub mismatches: u64,
    /// The action the policy prescribed.
    pub action: GuardAction,
    /// Up to [`MAX_MISMATCH_EXAMPLES`] captured divergences.
    pub examples: Vec<GuardMismatch>,
    /// Whether a cached plan entry was invalidated in response.
    pub plan_invalidated: bool,
}

impl std::fmt::Display for PlanIncident {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "plan guard tripped: {}/{} shadowed records diverged (action {})",
            self.mismatches,
            self.shadow_runs,
            self.action.as_str()
        )
    }
}

/// Guard outcome attached to every guarded job's report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuardReport {
    /// Records shadow-executed through the sequential path.
    pub shadow_runs: u64,
    /// Divergent records observed.
    pub mismatches: u64,
    /// Whether the job was demoted to sequential execution.
    pub demoted: bool,
    /// The structured incident, when any shadowed record diverged.
    pub incident: Option<PlanIncident>,
}

/// Examples kept per incident; later divergences are counted but not
/// captured, bounding report size on pathological plans.
pub const MAX_MISMATCH_EXAMPLES: usize = 8;

/// Shared per-job guard state, updated lock-free by every worker (examples
/// take a mutex, but only on the cold mismatch path).
#[derive(Debug, Default)]
pub(crate) struct GuardRun {
    shadow_runs: AtomicU64,
    mismatches: AtomicU64,
    tripped: AtomicBool,
    examples: Mutex<Vec<GuardMismatch>>,
}

impl GuardRun {
    pub(crate) fn new() -> GuardRun {
        GuardRun::default()
    }

    /// Counts one shadow run.
    pub(crate) fn record_shadow(&self) {
        self.shadow_runs.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one divergence and captures it (up to the example cap). Trips
    /// the run unless the action is [`GuardAction::LogOnly`], which never
    /// trips, so workers run to completion and outputs are untouched.
    pub(crate) fn record_mismatch(&self, policy: &GuardPolicy, mismatch: GuardMismatch) {
        self.mismatches.fetch_add(1, Ordering::Relaxed);
        {
            let mut ex = self.examples.lock().unwrap_or_else(|e| e.into_inner());
            if ex.len() < MAX_MISMATCH_EXAMPLES {
                ex.push(mismatch);
            }
        }
        if policy.on_mismatch != GuardAction::LogOnly {
            self.tripped.store(true, Ordering::Relaxed);
        }
    }

    /// Whether the run has tripped; workers poll this to abort early.
    pub(crate) fn tripped(&self) -> bool {
        self.tripped.load(Ordering::Relaxed)
    }

    pub(crate) fn shadow_runs(&self) -> u64 {
        self.shadow_runs.load(Ordering::Relaxed)
    }

    pub(crate) fn mismatches(&self) -> u64 {
        self.mismatches.load(Ordering::Relaxed)
    }

    /// Assembles the structured incident. Examples are sorted by record so
    /// the report is deterministic across worker counts.
    pub(crate) fn incident(
        &self,
        policy: &GuardPolicy,
        records: usize,
        plan_invalidated: bool,
    ) -> PlanIncident {
        let mut examples = self
            .examples
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        examples.sort_by_key(|m| m.record);
        PlanIncident {
            records,
            shadow_runs: self.shadow_runs(),
            mismatches: self.mismatches(),
            action: policy.on_mismatch,
            examples,
            plan_invalidated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_disabled() {
        let p = GuardPolicy::default();
        assert!(!p.is_active());
        assert!((0..10_000).all(|r| !p.samples(r)));
    }

    #[test]
    fn full_rate_samples_everything() {
        let p = GuardPolicy::audit_all();
        assert!(p.is_active());
        assert!((0..10_000).all(|r| p.samples(r)));
    }

    #[test]
    fn sampling_tracks_the_rate_and_is_deterministic() {
        let p = GuardPolicy {
            sample_rate: 0.25,
            ..GuardPolicy::default()
        };
        let picked: Vec<usize> = (0..100_000).filter(|&r| p.samples(r)).collect();
        let again: Vec<usize> = (0..100_000).filter(|&r| p.samples(r)).collect();
        assert_eq!(picked, again, "sampling must be a pure function of the index");
        let rate = picked.len() as f64 / 100_000.0;
        assert!(
            (rate - 0.25).abs() < 0.02,
            "observed rate {rate} too far from 0.25"
        );
    }

    #[test]
    fn trips_on_the_first_divergence() {
        let policy = GuardPolicy::audit_all();
        let run = GuardRun::new();
        run.record_shadow();
        assert!(!run.tripped(), "an agreeing shadow run never trips");
        run.record_mismatch(
            &policy,
            GuardMismatch {
                record: 0,
                consolidated: GuardObservation::Quarantined,
                sequential: GuardObservation::Notified(vec![Some(true)]),
            },
        );
        assert!(run.tripped(), "one divergence trips the run");
        let incident = run.incident(&policy, 100, true);
        assert_eq!(incident.mismatches, 1);
        assert_eq!(incident.examples.len(), 1);
        assert!(incident.plan_invalidated);
    }

    #[test]
    fn log_only_reaches_threshold_without_tripping() {
        let policy = GuardPolicy {
            sample_rate: 1.0,
            on_mismatch: GuardAction::LogOnly,
        };
        let run = GuardRun::new();
        run.record_mismatch(
            &policy,
            GuardMismatch {
                record: 0,
                consolidated: GuardObservation::Quarantined,
                sequential: GuardObservation::Quarantined,
            },
        );
        assert!(!run.tripped());
        assert_eq!(run.mismatches(), 1, "the divergence is still reported");
        let incident = run.incident(&policy, 1, false);
        assert_eq!(incident.action, GuardAction::LogOnly);
        assert_eq!(incident.examples.len(), 1);
    }

    #[test]
    fn example_capture_is_capped() {
        let policy = GuardPolicy {
            sample_rate: 1.0,
            on_mismatch: GuardAction::LogOnly,
        };
        let run = GuardRun::new();
        for r in 0..MAX_MISMATCH_EXAMPLES + 5 {
            run.record_mismatch(
                &policy,
                GuardMismatch {
                    record: r,
                    consolidated: GuardObservation::Quarantined,
                    sequential: GuardObservation::Notified(vec![]),
                },
            );
        }
        let incident = run.incident(&policy, 0, false);
        assert_eq!(incident.mismatches as usize, MAX_MISMATCH_EXAMPLES + 5);
        assert_eq!(incident.examples.len(), MAX_MISMATCH_EXAMPLES);
    }

    #[test]
    fn observation_from_notify_decodes_all_states() {
        assert_eq!(
            GuardObservation::from_notify(&[1, 0, NOTIFY_NONE]),
            GuardObservation::Notified(vec![Some(true), Some(false), None])
        );
    }
}

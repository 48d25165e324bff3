//! Differential plan validation: runtime cross-checking of the consolidated
//! plan against the sequential semantics.
//!
//! Consolidation is proved observationally equivalent on paper (Theorem 1),
//! but a deployed engine also faces hazards the proof does not cover: a
//! cached plan rotted on disk, a miscompiled merged program, or a
//! library whose behaviour drifted between consolidation time and run time.
//! The *plan guard* defends against all of them by shadow-executing every
//! record through the sequential `Many` path while a `Consolidated` job
//! runs, comparing both the per-query notifications and the quarantine
//! decision:
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
//! dropped and the output is bit-identical to a pure-`Many` run. The
//! structured [`PlanIncident`] lands in [`crate::engine::JobReport::guard`]
//! (or in [`crate::engine::EngineError::GuardTripped`] under
//! [`GuardAction::FailFast`]). The engine knows nothing of where the plan
//! came from, and a trip costs that job its consolidation, never a wrong
//! answer.

use crate::compile::NOTIFY_NONE;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// What the engine does when a shadowed record diverges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GuardAction {
    /// Discard the consolidated results and rerun the job through the
    /// sequential `Many` path. The job still succeeds, with outputs
    /// identical to a pure-sequential run.
    #[default]
    Demote,
    /// Abort the job with [`crate::engine::EngineError::GuardTripped`].
    FailFast,
    /// Record the incident in the report but keep the consolidated results.
    /// The job does not trip, so a cached plan stays cached. For
    /// observation in environments where the sequential rerun is too
    /// expensive.
    LogOnly,
}

impl GuardAction {
    /// Short lowercase label for reports.
    pub(crate) fn as_str(&self) -> &'static str {
        match self {
            GuardAction::Demote => "demote",
            GuardAction::FailFast => "fail-fast",
            GuardAction::LogOnly => "log-only",
        }
    }
}

/// Configuration of the plan guard (see the module docs).
///
/// The default is off: no shadow runs, no comparisons, no overhead beyond
/// one predicate per job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardPolicy {
    /// Whether consolidated runs shadow-execute every record through the
    /// sequential path.
    pub audit: bool,
    /// Reaction to a trip.
    pub on_mismatch: GuardAction,
}

impl Default for GuardPolicy {
    fn default() -> GuardPolicy {
        GuardPolicy {
            audit: false,
            on_mismatch: GuardAction::Demote,
        }
    }
}

impl GuardPolicy {
    /// A guard auditing every record and demoting on the first divergence.
    pub fn audit_all() -> GuardPolicy {
        GuardPolicy {
            audit: true,
            ..GuardPolicy::default()
        }
    }

    /// Whether the policy performs any shadow runs at all.
    pub(crate) fn is_active(&self) -> bool {
        self.audit
    }
}

/// One side of a divergence: what a path decided for a shadowed record.
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
    /// Up to `MAX_MISMATCH_EXAMPLES` captured divergences.
    pub examples: Vec<GuardMismatch>,
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
pub(crate) const MAX_MISMATCH_EXAMPLES: usize = 8;

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

    /// Counts `n` shadow runs (a shard's, added once when it ends).
    pub(crate) fn record_shadows(&self, n: u64) {
        self.shadow_runs.fetch_add(n, Ordering::Relaxed);
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
    pub(crate) fn incident(&self, policy: &GuardPolicy, records: usize) -> PlanIncident {
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
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_disabled() {
        assert!(!GuardPolicy::default().is_active());
    }

    #[test]
    fn full_rate_samples_everything() {
        let p = GuardPolicy::audit_all();
        assert!(p.is_active());
        assert_eq!(p.on_mismatch, GuardAction::Demote);
    }

    #[test]
    fn trips_on_the_first_divergence() {
        let policy = GuardPolicy::audit_all();
        let run = GuardRun::new();
        run.record_shadows(1);
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
        let incident = run.incident(&policy, 100);
        assert_eq!(incident.mismatches, 1);
        assert_eq!(incident.examples.len(), 1);
    }

    #[test]
    fn log_only_reaches_threshold_without_tripping() {
        let policy = GuardPolicy {
            audit: true,
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
        let incident = run.incident(&policy, 1);
        assert_eq!(incident.action, GuardAction::LogOnly);
        assert_eq!(incident.examples.len(), 1);
    }

    #[test]
    fn example_capture_is_capped() {
        let policy = GuardPolicy {
            audit: true,
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
        let incident = run.incident(&policy, 0);
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

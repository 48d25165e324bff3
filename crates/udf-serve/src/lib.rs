//! Consolidation-as-a-service.
//!
//! A long-lived runtime over `naiad-lite` that keeps one shared
//! consolidated plan alive across query churn. Where the batch pipeline
//! consolidates a fixed query set once (PLDI'14 §5, Ω over all pairs), the
//! service must absorb *register/deregister at runtime* without paying a
//! full re-consolidation per op — and must keep tenants isolated when one
//! of them ships a hostile UDF.
//!
//! Three mechanisms, one module each:
//!
//! - **Delta consolidation** ([`consolidate::DeltaPlan`], driven from
//!   [`Service::register`] / [`Service::deregister`]): the merged plan is
//!   the root of a binary merge tree; adding or removing one query
//!   re-consolidates only the `O(log n)` spine above its leaf, reusing
//!   entailment verdicts from the plan's scoped memo.
//! - **Admission control & backpressure** (`admission`): a bounded
//!   ingest queue with explicit admit/reject decisions and deadline-aware
//!   shedding; pressure watermarks (75 % and 90 % of the queue) defer
//!   churn and degrade execution to the sequential reference semantics,
//!   then shed expired batches. Nothing is ever dropped silently:
//!   `admitted == processed + shed + queued` holds after every epoch.
//! - **Per-tenant isolation** (`tenant`, [`Service::run_epoch`]): guard
//!   trips and quarantine overruns are attributed to the owning tenant,
//!   which is demoted alone — its queries leave the shared plan, its memo
//!   verdicts are invalidated, and every other tenant's results are
//!   unchanged. Every consolidated epoch audits every record against the
//!   per-query programs and stops at the first divergence.
//!
//! The service is clocked by explicit [`Service::run_epoch`] calls, never
//! wall time, so seeded runs are byte-reproducible (chaos CI relies on
//! this).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod admission;
pub mod framing;
mod journal;
mod service;
mod tenant;

pub use admission::{Admission, RejectReason, ShedBatch};
pub use journal::{CrashPoint, JournalError, JournalRec, RecoveryReport, SimCrash};
pub use service::{
    Accounting, EpochMode, EpochReport, ServeConfig, ServeError, Service, ServiceStatus,
    TenantEpochReport,
};
pub use tenant::{ChurnOutcome, TenantId, TenantState};

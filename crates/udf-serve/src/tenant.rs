//! Tenant identity, state, and the churn operations applied at epoch
//! boundaries.

use udf_lang::ast::{ProgId, Program};

/// A tenant of the service. Ordering is the service's deterministic
/// iteration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// Everything the service tracks per tenant.
#[derive(Debug, Clone)]
pub struct TenantState {
    /// The tenant's registered programs, as supplied (the solo execution
    /// path and the guard's culprit attribution compile from these).
    pub programs: Vec<Program>,
    /// Whether the tenant has been demoted out of the shared consolidated
    /// plan. A demoted tenant's queries run solo and sequential; its
    /// registrations never re-enter the shared plan within this service
    /// instance.
    pub demoted: bool,
    /// Records attributed to this tenant's quarantine across all epochs.
    /// Crossing [`crate::ServeConfig::tenant_quarantine_budget`] demotes
    /// the tenant.
    pub quarantined_records: u64,
}

impl TenantState {
    pub(crate) fn new() -> TenantState {
        TenantState {
            programs: Vec::new(),
            demoted: false,
            quarantined_records: 0,
        }
    }

    /// Ids of the tenant's registered queries, in registration order.
    pub fn query_ids(&self) -> Vec<ProgId> {
        self.programs.iter().map(|p| p.id).collect()
    }
}

/// A register/deregister waiting for a calm epoch (see
/// [`crate::Service::register`]: churn is deferred while queue pressure is
/// above the degrade watermark, so plan surgery never competes with a
/// backlog for the epoch's time).
#[derive(Debug, Clone)]
pub(crate) enum ChurnOp {
    Register { tenant: TenantId, program: Program },
    Deregister { tenant: TenantId, query: ProgId },
}

/// How a register/deregister call was handled.
#[derive(Debug, Clone)]
pub enum ChurnOutcome {
    /// Applied immediately via a delta operation on the shared plan.
    Applied(Box<consolidate::DeltaReport>),
    /// Applied immediately, but outside the shared plan (the tenant is
    /// demoted, so its queries run solo).
    AppliedSolo,
    /// Queued: pressure is above the degrade watermark; the op will apply
    /// at the start of the first calm epoch, in submission order.
    Deferred,
    /// A deregistration cancelled a still-pending registration of the same
    /// query before it ever reached the plan.
    Cancelled,
}

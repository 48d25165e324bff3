//! Resource budgets for consolidation and the graceful-degradation lattice.
//!
//! Consolidation quality is a *soundness-free* variable: every entailment
//! the engine fails to prove only loses a rewrite, never correctness
//! (`Unknown ⇒ not proved` is the same fallback the solver already takes on
//! its own limits). A [`ConsolidationBudget`] exploits that to bound the
//! optimizer's latency: when the deadline or the solver-query ceiling is
//! hit, every subsequent entailment answers "not proved", the Ω engine
//! emits remaining statements verbatim, and outstanding pairs of the n-way
//! reduction are merged by plain concatenation. The output degrades along
//! the lattice
//!
//! ```text
//! Full  ⊒  Partial (consolidated prefix, sequential rest)  ⊒  Sequential
//! ```
//!
//! recorded as the run's [`DegradationTier`] — but it always compiles, is
//! always sound, and never costs more than `where_many` (Theorem 1's
//! cost-non-increase argument holds pointwise for every applied rewrite,
//! and concatenation is exactly the sequential cost).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Resource ceilings for one consolidation run. `None` fields are unlimited;
/// the default budget is fully unlimited (original behaviour).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConsolidationBudget {
    /// Wall-clock ceiling for the whole run, measured from its start.
    pub deadline: Option<Duration>,
    /// Ceiling on SMT entailment queries across the whole run (shared by
    /// all pair threads of an n-way consolidation).
    pub max_solver_queries: Option<u64>,
}

impl ConsolidationBudget {
    /// An unlimited budget.
    pub const UNLIMITED: ConsolidationBudget = ConsolidationBudget {
        deadline: None,
        max_solver_queries: None,
    };

    /// Sets the wall-clock deadline.
    #[must_use]
    pub fn with_deadline(mut self, d: Duration) -> ConsolidationBudget {
        self.deadline = Some(d);
        self
    }

    /// Sets the solver-query ceiling.
    #[must_use]
    pub fn with_max_solver_queries(mut self, n: u64) -> ConsolidationBudget {
        self.max_solver_queries = Some(n);
        self
    }

    /// Whether every ceiling is absent.
    pub(crate) fn is_unlimited(&self) -> bool {
        *self == ConsolidationBudget::UNLIMITED
    }
}

/// Shared mutable budget accounting for one run. Cheap to consult from
/// several pair-consolidation threads; exhaustion is sticky.
#[derive(Debug)]
pub(crate) struct BudgetState {
    deadline_at: Option<Instant>,
    max_queries: u64,
    queries: AtomicU64,
    exhausted: AtomicBool,
}

impl BudgetState {
    /// Starts accounting for `budget` now (the deadline clock begins here).
    pub(crate) fn new(budget: &ConsolidationBudget) -> BudgetState {
        BudgetState {
            deadline_at: budget.deadline.map(|d| Instant::now() + d),
            max_queries: budget.max_solver_queries.unwrap_or(u64::MAX),
            queries: AtomicU64::new(0),
            exhausted: AtomicBool::new(false),
        }
    }

    /// Charges one solver query. Returns `false` — without charging — once
    /// the budget is exhausted; the caller must then treat the query as
    /// unproved.
    pub(crate) fn charge_query(&self) -> bool {
        if self.exhausted() {
            return false;
        }
        let used = self.queries.fetch_add(1, Ordering::Relaxed) + 1;
        if used > self.max_queries {
            self.exhausted.store(true, Ordering::Relaxed);
            return false;
        }
        true
    }

    /// Whether the budget has run out (also trips on a passed deadline).
    pub(crate) fn exhausted(&self) -> bool {
        if self.exhausted.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(d) = self.deadline_at {
            if Instant::now() >= d {
                self.exhausted.store(true, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// Queries charged so far.
    #[cfg(test)]
    pub(crate) fn queries_charged(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }
}

/// How much of a consolidation completed before its budget ran out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradationTier {
    /// The budget never ran out; the full Ω engine processed everything.
    #[default]
    Full,
    /// The budget ran out mid-run: a prefix is consolidated, the rest is
    /// emitted sequentially.
    Partial,
    /// The budget ran out before any rewrite landed: the output is the
    /// plain sequential concatenation, semantically `where_many` in one
    /// program.
    Sequential,
}

impl DegradationTier {
    /// Short stable label for reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            DegradationTier::Full => "full",
            DegradationTier::Partial => "partial",
            DegradationTier::Sequential => "sequential",
        }
    }
}

/// Parses the labels [`DegradationTier::as_str`] writes.
impl std::str::FromStr for DegradationTier {
    type Err = String;

    fn from_str(s: &str) -> Result<DegradationTier, String> {
        match s {
            "full" => Ok(DegradationTier::Full),
            "partial" => Ok(DegradationTier::Partial),
            "sequential" => Ok(DegradationTier::Sequential),
            other => Err(format!("unknown tier {other:?}")),
        }
    }
}

impl std::fmt::Display for DegradationTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_exhausts() {
        let st = BudgetState::new(&ConsolidationBudget::UNLIMITED);
        for _ in 0..10_000 {
            assert!(st.charge_query());
        }
        assert!(!st.exhausted());
    }

    #[test]
    fn query_ceiling_is_sticky() {
        let b = ConsolidationBudget::default().with_max_solver_queries(3);
        let st = BudgetState::new(&b);
        assert!(st.charge_query());
        assert!(st.charge_query());
        assert!(st.charge_query());
        assert!(!st.charge_query());
        assert!(st.exhausted());
        assert!(!st.charge_query());
    }

    #[test]
    fn zero_deadline_exhausts_immediately() {
        let b = ConsolidationBudget::default().with_deadline(Duration::ZERO);
        let st = BudgetState::new(&b);
        assert!(st.exhausted());
        assert!(!st.charge_query());
    }
}

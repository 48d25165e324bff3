//! Program consolidation — the core contribution of *Consolidation of
//! Queries with User-Defined Functions* (PLDI 2014).
//!
//! Given `n` UDFs `Π₁ … Πₙ` over the same input, consolidation produces one
//! program `Π₁ ⊗ … ⊗ Πₙ` with the same observable behaviour (final
//! environments and notification broadcasts) whose execution cost never
//! exceeds — and usually greatly undercuts — running the UDFs sequentially
//! (Definition 1 / Theorem 1 of the paper).
//!
//! The crate decomposes the paper's machinery into:
//!
//! * `symbolic` — contexts `Ψ` as SMT formulas over SSA-versioned
//!   variables, with `sp` for every statement form;
//! * [`simplify`] — the cross-simplification judgements of Figure 3,
//!   model-guided and confirmed by validity queries;
//! * [`invariants`] — `LoopInv`: Houdini inference of linear loop invariants
//!   for the fused loop, powering Loop 2/Loop 3;
//! * [`rules`] — the Ω engine of Figure 8 applying Com/Skip/Assign/Step/
//!   Seq/If 1–5/Loop 2–3;
//! * [`api`] — pairwise and parallel divide-and-conquer n-way consolidation;
//! * [`prefilter`] — cross-query predicate pushdown: synthesis of a sound,
//!   parameter-only pre-filter whose failure proves every query notifies
//!   `false`, letting the engine skip the merged program per record
//!   (fail-open; see `DESIGN.md`);
//! * `explain` — opt-in rule-derivation trees recording which rule fired
//!   where and which entailments justified it (see `OBSERVABILITY.md`).
//!
//! Metrics: every layer emits counters/latency histograms through the
//! [`udf_obs::RecorderCell`] installed in [`Options`] (`recorder` field,
//! no-op by default).
//!
//! # Example
//!
//! The paper's Example 1 (two flight filters sharing the airline lookup):
//!
//! ```
//! use consolidate::{consolidate_pair, Options};
//! use udf_lang::{parse::parse_program, Interner, CostModel};
//! use udf_lang::cost::UniformFnCost;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut interner = Interner::new();
//! let f1 = parse_program(
//!     "program f1 @1 (airline, price) {
//!          name := toLower(airline);
//!          if (name == 7) { notify true; } else { notify false; }
//!      }", &mut interner)?;
//! let f2 = parse_program(
//!     "program f2 @2 (airline, price) {
//!          if (price >= 200) { notify false; }
//!          else { if (toLower(airline) == 7) { notify true; } else { notify false; } }
//!      }", &mut interner)?;
//! let out = consolidate_pair(&f1, &f2, &mut interner,
//!                            &CostModel::default(), &UniformFnCost(50),
//!                            &Options::default())?;
//! // The merged program calls toLower once; both notifications survive.
//! let printed = udf_lang::pretty::program(&out.program, &interner);
//! assert_eq!(printed.matches("toLower").count(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
// Production code must justify fallibility; tests may unwrap freely.
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod api;
pub mod budget;
mod delta;
mod explain;
pub mod homomorphism;
pub mod invariants;
mod memo;
pub mod prefilter;
pub mod rules;
pub mod simplify;
mod symbolic;

pub use api::{
    consolidate_many, consolidate_pair, consolidate_pair_prerenamed, ConsolidateError,
    Consolidated, ConsolidationStats,
};
pub use budget::{ConsolidationBudget, DegradationTier};
pub use delta::{DeltaError, DeltaPlan, DeltaReport, LeafImage, NodeImage, PlanImage};
pub use explain::ExplainReport;
pub use homomorphism::{consolidate_aggs, AggConsolidation, AggProofStats, ProofOutcome};
pub use memo::EntailmentMemo;
pub use prefilter::Prefilter;
pub use rules::{IfPolicy, Options, RuleStats};
pub use symbolic::EntailmentMode;

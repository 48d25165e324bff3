//! A single-machine, multi-worker dataflow substrate modeled on the role
//! Naiad plays in *Consolidation of Queries with UDFs* (PLDI 2014, §6.1).
//!
//! The paper extends Naiad with two operators over a shared input
//! collection:
//!
//! * `whereMany`  — evaluates every query's UDF sequentially per record
//!   (the fair baseline: data is read once, so the comparison isolates UDF
//!   execution cost);
//! * `whereConsolidated` — evaluates the single consolidated UDF and
//!   demultiplexes its notifications back into per-query outputs.
//!
//! This crate provides the same pair:
//!
//! * [`mod@env`] — the binding between records and the UDF language: a
//!   [`env::UdfEnv`] exposes each record's scalar fields as UDF arguments and
//!   its accessor methods as pure external functions;
//! * [`compile`] / [`regcode`] — the one executable IR: a UDF program is
//!   compiled once per plan, in one pass over its AST, into basic-block
//!   register bytecode (constant folding + copy propagation, exact
//!   cost/fuel accounting). The tree-walking interpreter in
//!   `udf-lang` remains the semantic reference, and the machines below are
//!   differentially tested against it;
//! * [`regcode::RegVm`] / [`batch`] — the two loops over that IR: the
//!   scalar machine runs a program a record at a time, and a
//!   struct-of-arrays [`batch::RecordBatch`] executor runs each basic block
//!   across a whole batch of records; selected per job by
//!   [`engine::ExecBackend`] with bit-identical observables either way;
//! * [`engine`] — sharded parallel execution across worker threads with the
//!   `where_many` / `where_consolidated` operators and the timing breakdown
//!   (UDF time vs total time) the paper's Figures 9 and 10 report. The
//!   engine is fail-soft: under [`engine::ErrorPolicy::Quarantine`],
//!   faulting or panicking records are excluded from every query's output
//!   and accounted in a [`engine::QuarantineReport`] instead of aborting
//!   the job;
//! * [`agg`] — user-defined aggregations, their folds and merges compiled
//!   to the same register bytecode: homomorphism-proved UDAFs fold
//!   in parallel over a fixed chunk grid and merge in a deterministic tree
//!   (bit-identical at every worker count); unproved definitions fall back
//!   to a sequential shard, and consolidated mode shares one scan and one
//!   record decode across every UDAF;
//! * [`fault`] — deterministic fault injection ([`fault::FaultPlan`] /
//!   [`fault::FaultyEnv`]) for exercising the failure model in tests;
//! * [`guard`] — differential plan validation: a [`guard::GuardPolicy`]
//!   shadow-executes every record through the sequential path during
//!   consolidated runs, and on divergence demotes the job to sequential
//!   execution (self-healing) and invalidates the cached plan.
//!
//! Record shards and aggregation chunks share one failure policy: one task
//! runner, one isolated evaluation, one transient-fault retry (immediate,
//! up to [`engine::EngineConfig::max_retries`] times) and one quarantine
//! admission rule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Production code must justify fallibility; tests may unwrap freely.
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod agg;
pub mod batch;
pub mod compile;
pub mod digest;
pub mod engine;
pub mod env;
pub mod fastpred;
pub mod fault;
pub mod guard;
mod policy;
pub mod regcode;

pub use agg::{AggMode, AggQuerySet, AggReport, AGG_CHUNK};
pub use batch::{BatchVm, RecordBatch};
pub use compile::{CompileError, VmError, DEFAULT_FUEL};
pub use engine::{
    Engine, EngineConfig, EngineError, ErrorKind, ErrorPolicy, ExecBackend, ExecMode, JobReport,
    QuarantineEntry, QuarantineReport, QuerySet, QuerySetError,
};
pub use regcode::{RegProgram, RegVm};
pub use env::{ScalarEnv, UdfEnv};
pub use fault::{FaultKind, FaultPlan, FaultyEnv};
pub use guard::{
    GuardAction, GuardMismatch, GuardObservation, GuardPolicy, GuardReport, PlanIncident,
};

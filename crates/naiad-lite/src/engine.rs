//! Sharded multi-worker execution of query sets: the `where_many` /
//! `where_consolidated` operators of the paper's §6.1.
//!
//! Records are split into contiguous shards, one per worker thread; each
//! worker evaluates either every query's UDF per record (`Many`) or the
//! single consolidated UDF (`Consolidated`), demultiplexing notifications
//! into per-query selection counts. Every plan is one [`RegProgram`]; the
//! two backends are two loops over it — [`RegVm`] a record at a time,
//! [`BatchVm`] a batch at a time. The report separates the
//! UDF-phase wall time from everything else, matching the paper's
//! "UDF time" vs "total time" columns.
//!
//! # Failure model
//!
//! A long-running job over millions of records should not die because one
//! record trips a library error or exhausts its step budget. The engine's
//! [`ErrorPolicy`] chooses between two behaviours:
//!
//! * [`ErrorPolicy::FailFast`] (the default) aborts the job on the first
//!   faulting record, as the original engine did;
//! * [`ErrorPolicy::Quarantine`] excludes the faulting record from *every*
//!   query's output, records it in the job's [`QuarantineReport`], and keeps
//!   going.
//!
//! Either way every evaluation is isolated — a panicking UDF environment
//! poisons only the record that triggered it, not the worker or the
//! process — and a transient library fault is retried first, up to
//! [`EngineConfig::max_retries`] times. Shards run on the crate's one task
//! runner; isolation, retry and admission are the same code that runs an
//! aggregation's folds ([`crate::agg`]), so the two paths cannot drift.
//!
//! Because a quarantined record is dropped from all queries in both
//! [`ExecMode::Many`] and [`ExecMode::Consolidated`], the two modes stay
//! notification-equivalent on the surviving records — the consolidation
//! correctness story (Theorem 1) is unaffected by which policy runs.

use crate::batch::{BatchVm, LaneFault, RecordBatch};
use crate::compile::{VmError, DEFAULT_FUEL, NOTIFY_NONE};
use crate::env::UdfEnv;
use crate::fastpred::FastPred;
use crate::guard::{GuardAction, GuardMismatch, GuardObservation, GuardPolicy, GuardReport, GuardRun};
use crate::policy::{attempt, finalize_quarantine, run_tasks, Outcome, RecordFault};
use crate::regcode::{RegProgram, RegVm};
pub use plan_cache::ExecBackend;
use std::fmt;
use std::time::{Duration, Instant};
use udf_lang::ast::ProgId;
use udf_obs::names;
use udf_lang::cost::{Cost, CostModel};
use udf_lang::intern::Symbol;

/// Which operator to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExecMode {
    /// `where_many`: every query's own UDF runs per record, sequentially.
    Many,
    /// `where_consolidated`: the merged UDF runs once per record.
    Consolidated,
}

/// A synthesized pre-filter compiled for execution (see
/// [`consolidate::Prefilter`]). The condition is evaluated over a record's
/// parameters: `false` means *no* query of the set can notify `true` on
/// this record, so the consolidated UDF may be skipped.
///
/// # Soundness of skipping
///
/// The verifier admitted the condition only after proving that, under its
/// negation, the merged program reaches no external call, no loop, and
/// notifies exactly `false` for every query on every path. A skipped record
/// therefore (a) observes the same library-call sequence as a real run —
/// none — so stateful or fault-injecting environments stay in lockstep, and
/// (b) could only have faulted on fuel. The loop-free path executes each
/// instruction at most once, so requiring the run's fuel budget to be at
/// least [`PrefilterExec::min_fuel`] (the consolidated program's total
/// steps) rules that out too; smaller budgets disable skipping entirely
/// (fail-open). The evaluator itself is total (see [`crate::fastpred`]).
#[derive(Debug, Clone)]
pub struct PrefilterExec {
    /// Direct evaluator for the condition. Synthesized conditions always
    /// stay in the pure call-free fragment it supports; see
    /// [`crate::fastpred`] for why a VM is too slow here.
    pub fast: FastPred,
    /// Minimum per-record fuel budget for which skipping is sound: the
    /// consolidated program's [`RegProgram::total_steps`] (an upper bound
    /// on its longest loop-free path).
    pub min_fuel: u64,
}

/// A compiled set of queries over one dataset.
#[derive(Debug, Clone)]
pub struct QuerySet {
    /// Dense query ids (broadcast targets), in output order.
    pub query_ids: Vec<ProgId>,
    /// Per-query compiled UDFs, in [`QuerySet::query_ids`] order. Both
    /// backends execute these same programs.
    pub many: Vec<RegProgram>,
    /// The consolidated UDF, when available.
    pub consolidated: Option<RegProgram>,
    /// Synthesized pre-filter, executed before the consolidated UDF when the
    /// fuel budget allows (see [`PrefilterExec`]). Never applies to
    /// [`ExecMode::Many`], whose sequential semantics *is* the reference.
    pub prefilter: Option<PrefilterExec>,
    /// Time spent consolidating (reported separately, as in Figure 10).
    pub consolidation_time: Duration,
    /// Cache key of the consolidated plan, when it came through a
    /// [`plan_cache::PlanCache`]. The plan guard invalidates this key on a
    /// trip so the poisoned entry is never re-served.
    pub plan_key: Option<plan_cache::PlanKey>,
}

impl QuerySet {
    /// Compiles one UDF per query. Query `k` must notify exactly
    /// `programs[k].id`.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::compile::CompileError`].
    pub fn compile_many(
        programs: &[udf_lang::ast::Program],
        cm: &CostModel,
        fn_cost: &dyn Fn(Symbol) -> Cost,
    ) -> Result<QuerySet, crate::compile::CompileError> {
        let query_ids: Vec<ProgId> = programs.iter().map(|p| p.id).collect();
        let many = programs
            .iter()
            .map(|p| RegProgram::compile(p, &query_ids, cm, fn_cost))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(QuerySet {
            query_ids,
            many,
            consolidated: None,
            prefilter: None,
            consolidation_time: Duration::ZERO,
            plan_key: None,
        })
    }

    /// Total nanoseconds spent lowering this set to register bytecode
    /// (reported through the `regcode.fold_ns` metric).
    pub fn fold_ns(&self) -> u64 {
        self.many.iter().map(|r| r.fold_ns).sum::<u64>()
            + self.consolidated.as_ref().map_or(0, |r| r.fold_ns)
    }

    /// Records the plan-cache key of the consolidated program, enabling
    /// guard-driven invalidation (set automatically by
    /// [`QuerySet::compile_consolidated_cached`]).
    #[must_use]
    pub fn with_plan_key(mut self, key: plan_cache::PlanKey) -> QuerySet {
        self.plan_key = Some(key);
        self
    }

    /// Attaches a consolidated program (it must notify exactly the ids in
    /// `query_ids`).
    ///
    /// # Errors
    ///
    /// Propagates [`crate::compile::CompileError`].
    pub fn with_consolidated(
        mut self,
        merged: &udf_lang::ast::Program,
        cm: &CostModel,
        fn_cost: &dyn Fn(Symbol) -> Cost,
        consolidation_time: Duration,
    ) -> Result<QuerySet, crate::compile::CompileError> {
        self.consolidated = Some(RegProgram::compile(merged, &self.query_ids, cm, fn_cost)?);
        self.consolidation_time = consolidation_time;
        Ok(self)
    }

    /// Attaches a verified pre-filter condition (from
    /// [`consolidate::Prefilter::cond`]). `merged` must be the same program
    /// passed to [`QuerySet::with_consolidated`], which must have been
    /// called first — the skip-soundness fuel floor is derived from its
    /// total steps.
    ///
    /// A condition outside the [`FastPred`] fragment (a library call, a
    /// non-parameter variable — nothing the synthesis pass produces)
    /// attaches **no** pre-filter: the set runs every record in full, like
    /// after any other rejection.
    ///
    /// `_cm` and `_fn_cost` are unused — nothing is compiled here any more
    /// — and stay only because the benchmark under `bench/` calls this
    /// signature; a later `benchmark` PR can drop them, and the `Result`.
    ///
    /// # Errors
    ///
    /// None today.
    pub fn with_prefilter(
        mut self,
        cond: &udf_lang::ast::BoolExpr,
        merged: &udf_lang::ast::Program,
        _cm: &CostModel,
        _fn_cost: &dyn Fn(Symbol) -> Cost,
    ) -> Result<QuerySet, crate::compile::CompileError> {
        debug_assert!(
            self.consolidated.is_some(),
            "with_prefilter requires with_consolidated first"
        );
        let min_fuel = self
            .consolidated
            .as_ref()
            .map_or(u64::MAX, RegProgram::total_steps);
        self.prefilter =
            FastPred::build(cond, &merged.params).map(|fast| PrefilterExec { fast, min_fuel });
        Ok(self)
    }

    /// Compiles the per-query UDFs *and* a consolidated program obtained
    /// through `cache`: a stored plan is served when the tier-upgrade rule
    /// allows (skipping the Ω engine and the SMT solver entirely),
    /// otherwise the set is consolidated fresh and the cache is filled.
    ///
    /// Returns the query set, the consolidation result (cache hits carry
    /// zeroed solver statistics) and how the cache satisfied the request.
    ///
    /// # Errors
    ///
    /// Propagates compilation and consolidation failures as
    /// [`QuerySetError`].
    #[allow(clippy::too_many_arguments)]
    pub fn compile_consolidated_cached(
        programs: &[udf_lang::ast::Program],
        interner: &mut udf_lang::intern::Interner,
        cm: &CostModel,
        fns: &(dyn udf_lang::cost::FnCost + Sync),
        fn_cost: &dyn Fn(Symbol) -> Cost,
        opts: &consolidate::Options,
        parallel: bool,
        cache: &plan_cache::PlanCache,
        backend: ExecBackend,
    ) -> Result<(QuerySet, consolidate::Consolidated, plan_cache::PlanOutcome), QuerySetError>
    {
        let (merged, outcome) = plan_cache::consolidate_many_cached(
            cache, programs, interner, cm, fns, opts, parallel, backend,
        )?;
        let key = plan_cache::PlanKey::derive(programs, interner, opts, cm, backend);
        let mut qs = QuerySet::compile_many(programs, cm, fn_cost)?
            .with_consolidated(&merged.program, cm, fn_cost, merged.elapsed)?
            .with_plan_key(key);
        if let Some(pf) = &merged.prefilter {
            qs = qs.with_prefilter(&pf.cond, &merged.program, cm, fn_cost)?;
        }
        opts.recorder.observe(names::REGCODE_FOLD_NS, qs.fold_ns());
        Ok((qs, merged, outcome))
    }
}

/// Failure while building a cached consolidated query set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuerySetError {
    /// A UDF (per-query or merged) failed to compile.
    Compile(crate::compile::CompileError),
    /// The consolidation itself failed (incompatible programs, empty set).
    Consolidate(consolidate::ConsolidateError),
}

impl fmt::Display for QuerySetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuerySetError::Compile(e) => write!(f, "compile: {e}"),
            QuerySetError::Consolidate(e) => write!(f, "consolidate: {e}"),
        }
    }
}

impl std::error::Error for QuerySetError {}

impl From<crate::compile::CompileError> for QuerySetError {
    fn from(e: crate::compile::CompileError) -> QuerySetError {
        QuerySetError::Compile(e)
    }
}

impl From<consolidate::ConsolidateError> for QuerySetError {
    fn from(e: consolidate::ConsolidateError) -> QuerySetError {
        QuerySetError::Consolidate(e)
    }
}

/// How the engine reacts to per-record execution failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorPolicy {
    /// Abort the whole job on the first faulting record (original behaviour).
    FailFast,
    /// Keep running: faulting records are excluded from every query's output
    /// and recorded in the job's [`QuarantineReport`]. The job still fails
    /// with [`EngineError::TooManyErrors`] once more than `max_errors`
    /// records have been quarantined, bounding error floods.
    Quarantine {
        /// Maximum records allowed into quarantine before the job fails.
        max_errors: usize,
    },
}

/// Engine-wide execution configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Per-record failure handling.
    pub error_policy: ErrorPolicy,
    /// Which loop evaluates the plan's register bytecode: a record at a
    /// time on [`RegVm`], or a batch at a time on the columnar [`BatchVm`].
    /// Observables — notifications, costs, quarantine reports, guard
    /// verdicts — are bit-identical either way; only throughput differs.
    pub backend: ExecBackend,
    /// Retry attempts per record for a [`VmError`] that classifies as
    /// transient ([`VmError::is_transient`] — today exactly
    /// [`udf_lang::library::LibError::Transient`]) before the record is
    /// quarantined or the job fails. Retries run immediately, on the
    /// driver's own [`RegVm`]. `0` (the default) disables them.
    pub max_retries: u32,
    /// Differential plan validation (disabled by default). Only applies to
    /// [`ExecMode::Consolidated`] runs — the sequential path *is* the
    /// reference semantics and needs no guarding.
    pub guard: GuardPolicy,
    /// Per-record VM step budget (`None` uses [`DEFAULT_FUEL`]). The one
    /// fuel knob: aggregation folds and merges read it too.
    pub fuel: Option<u64>,
    /// How many quarantine entries keep a copy of the record's scalar
    /// arguments (the sample payload); later entries record only the index,
    /// query and error kind, keeping report size bounded.
    pub max_payload_samples: usize,
    /// The cache the query set's plan came from, for eviction only: when
    /// the guard trips, the entry under [`QuerySet::plan_key`] is removed
    /// ([`plan_cache::PlanCache::invalidate`]) so the next compile of the
    /// same set re-consolidates instead of re-serving the diverging plan.
    pub plan_cache: Option<std::sync::Arc<plan_cache::PlanCache>>,
    /// Metrics sink. No-op by default; install
    /// [`udf_obs::RecorderCell::memory`] to collect per-record latency,
    /// record/quarantine counters and (when the same cell is shared with
    /// `consolidate::Options`) the full consolidation metrics surface.
    /// [`JobReport::metrics`] snapshots it at the end of every run.
    pub recorder: udf_obs::RecorderCell,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            error_policy: ErrorPolicy::FailFast,
            backend: ExecBackend::default(),
            max_retries: 0,
            guard: GuardPolicy::default(),
            fuel: None,
            max_payload_samples: 8,
            plan_cache: None,
            recorder: udf_obs::RecorderCell::noop(),
        }
    }
}

/// Classification of a quarantined record's failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The UDF broadcast twice for the same query.
    DuplicateNotify,
    /// An external library call failed.
    Lib,
    /// The record exceeded the VM step budget.
    OutOfFuel,
    /// The UDF environment panicked while evaluating the record.
    Panic,
}

impl ErrorKind {
    /// Classifies a [`VmError`].
    pub fn of(e: &VmError) -> ErrorKind {
        match e {
            VmError::DuplicateNotify(_) => ErrorKind::DuplicateNotify,
            VmError::Lib(_) => ErrorKind::Lib,
            VmError::OutOfFuel => ErrorKind::OutOfFuel,
        }
    }

    /// The `engine.quarantined.<kind>` counter this kind increments.
    pub(crate) fn counter(self) -> &'static str {
        match self {
            ErrorKind::DuplicateNotify => names::ENGINE_QUARANTINED_DUPLICATE_NOTIFY,
            ErrorKind::Lib => names::ENGINE_QUARANTINED_LIB,
            ErrorKind::OutOfFuel => names::ENGINE_QUARANTINED_OUT_OF_FUEL,
            ErrorKind::Panic => names::ENGINE_QUARANTINED_PANIC,
        }
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ErrorKind::DuplicateNotify => "duplicate-notify",
            ErrorKind::Lib => "lib-error",
            ErrorKind::OutOfFuel => "out-of-fuel",
            ErrorKind::Panic => "panic",
        })
    }
}

/// One quarantined record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineEntry {
    /// Global index of the faulting record.
    pub record: usize,
    /// The query whose UDF faulted (`None` for the consolidated program,
    /// which evaluates all queries at once).
    pub query: Option<ProgId>,
    /// Failure classification.
    pub kind: ErrorKind,
    /// Human-readable failure detail (error display or panic message).
    pub detail: String,
    /// The record's scalar arguments, captured for the first
    /// [`EngineConfig::max_payload_samples`] entries only.
    pub sample: Option<Vec<i64>>,
    /// Retry attempts spent on this record before it was quarantined
    /// (non-zero only for transient faults under
    /// [`EngineConfig::max_retries`]).
    pub retries: u32,
}

/// Per-run account of everything the engine dropped instead of failing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuarantineReport {
    /// One entry per quarantined record, in record order.
    pub entries: Vec<QuarantineEntry>,
    /// Total quarantined records (equals `entries.len()`).
    pub records_quarantined: usize,
    /// Worker shards lost to a panic outside per-record execution.
    pub shards_lost: usize,
    /// Records in lost shards (not individually attributable).
    pub records_lost: usize,
    /// Records that needed at least one transient-fault retry.
    pub records_retried: usize,
    /// Total retry attempts across all records.
    pub retry_attempts: u64,
    /// Retried records that ultimately succeeded (the rest are among
    /// `entries`, each carrying its [`QuarantineEntry::retries`] count).
    pub records_recovered: usize,
}

impl QuarantineReport {
    /// `true` when nothing was dropped.
    pub fn is_clean(&self) -> bool {
        self.records_quarantined == 0 && self.shards_lost == 0
    }

    /// Sorted indices of the quarantined records.
    pub fn records(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.entries.iter().map(|e| e.record).collect();
        v.sort_unstable();
        v
    }
}

/// Job-level execution failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A record's UDF failed under [`ErrorPolicy::FailFast`].
    Record {
        /// Index of the offending record.
        record: usize,
        /// Underlying VM error.
        error: VmError,
    },
    /// A record's UDF panicked under [`ErrorPolicy::FailFast`].
    RecordPanic {
        /// Index of the offending record.
        record: usize,
        /// Panic payload rendered as text.
        message: String,
    },
    /// A record shard or an aggregation chunk panicked outside per-record
    /// execution.
    WorkerPanicked {
        /// Index of the shard or chunk.
        shard: usize,
        /// Panic payload rendered as text.
        message: String,
    },
    /// [`ErrorPolicy::Quarantine`] saw more faulting records than allowed.
    TooManyErrors {
        /// The configured `max_errors` bound.
        limit: usize,
        /// Quarantined records observed (may undercount: shards stop early).
        observed: usize,
    },
    /// `ExecMode::Consolidated` was requested on a [`QuerySet`] without a
    /// consolidated program.
    MissingConsolidated,
    /// The plan guard tripped under [`GuardAction::FailFast`]: the
    /// consolidated plan diverged from the sequential semantics on a
    /// shadowed record.
    GuardTripped {
        /// Structured account of the divergence.
        incident: crate::guard::PlanIncident,
    },
    /// An aggregation body does not fit the register bytecode's field
    /// widths (see [`crate::compile::CompileError`]).
    Compile {
        /// The definition whose fold or merge failed to compile.
        query: ProgId,
        /// Why.
        error: crate::compile::CompileError,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Record { record, error } => write!(f, "record {record}: {error}"),
            EngineError::RecordPanic { record, message } => {
                write!(f, "record {record}: UDF panicked: {message}")
            }
            EngineError::WorkerPanicked { shard, message } => {
                write!(f, "worker for shard {shard} panicked: {message}")
            }
            EngineError::TooManyErrors { limit, observed } => write!(
                f,
                "quarantine overflow: {observed} faulting records exceed the limit of {limit}"
            ),
            EngineError::MissingConsolidated => write!(
                f,
                "ExecMode::Consolidated requires QuerySet::with_consolidated"
            ),
            EngineError::GuardTripped { incident } => write!(f, "{incident}"),
            EngineError::Compile { query, error } => {
                write!(f, "aggregation {query} does not compile: {error}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Outcome of one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobReport {
    /// Per-query number of records selected (broadcast `true`).
    pub counts: Vec<u64>,
    /// Per-query number of records with *no* broadcast (0 for well-formed
    /// UDFs; surfaced so malformed query sets are visible).
    pub missing: Vec<u64>,
    /// Wall-clock time of the UDF evaluation phase.
    pub udf_time: Duration,
    /// Total abstract cost (only when cost tracking was requested).
    /// Quarantined records contribute nothing, so Many/Consolidated cost
    /// comparisons stay apples-to-apples on the surviving records.
    pub cost: Option<u64>,
    /// Records processed (including quarantined ones).
    pub records: usize,
    /// Records the synthesized pre-filter skipped (0 when no pre-filter is
    /// attached, the mode is [`ExecMode::Many`], or the fuel budget is below
    /// [`PrefilterExec::min_fuel`]). Skipped records still count toward
    /// [`JobReport::records`] and contribute an all-`false` broadcast to
    /// every query; only their evaluation cost is saved.
    pub prefilter_skipped: u64,
    /// What was dropped instead of failing (empty under
    /// [`ErrorPolicy::FailFast`]).
    pub quarantine: QuarantineReport,
    /// Snapshot of [`EngineConfig::recorder`] at job end (`None` when the
    /// recorder is the no-op default). Note the recorder accumulates across
    /// runs sharing one config, so per-run deltas require a fresh cell.
    pub metrics: Option<udf_obs::MetricsSnapshot>,
    /// Plan-guard outcome (`None` when the guard is disabled or the run was
    /// not [`ExecMode::Consolidated`]). When `demoted` is set, every other
    /// field of this report describes the sequential rerun, not the
    /// abandoned consolidated pass.
    pub guard: Option<GuardReport>,
}

/// The execution engine: a worker pool plus failure-handling configuration.
#[derive(Debug, Clone)]
pub struct Engine {
    workers: usize,
    config: EngineConfig,
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }
}

impl Engine {
    /// Creates an engine with a fixed worker count (min 1) and the default
    /// fail-fast configuration.
    pub fn new(workers: usize) -> Engine {
        Engine {
            workers: workers.max(1),
            config: EngineConfig::default(),
        }
    }

    /// Replaces the execution configuration.
    #[must_use]
    pub fn with_config(mut self, config: EngineConfig) -> Engine {
        self.config = config;
        self
    }

    /// Replaces only the error policy.
    #[must_use]
    pub fn with_error_policy(mut self, policy: ErrorPolicy) -> Engine {
        self.config.error_policy = policy;
        self
    }

    /// Selects the execution backend for all runs (default
    /// [`ExecBackend::PerRecord`]).
    #[must_use]
    pub fn with_backend(mut self, backend: ExecBackend) -> Engine {
        self.config.backend = backend;
        self
    }

    /// Overrides the per-record VM step budget for all runs.
    #[must_use]
    pub fn with_fuel(mut self, fuel: u64) -> Engine {
        self.config.fuel = Some(fuel);
        self
    }

    /// Replaces only the plan-guard policy.
    #[must_use]
    pub fn with_guard(mut self, guard: GuardPolicy) -> Engine {
        self.config.guard = guard;
        self
    }

    /// Replaces only the transient-fault retry count
    /// ([`EngineConfig::max_retries`]).
    #[must_use]
    pub fn with_retry(mut self, max_retries: u32) -> Engine {
        self.config.max_retries = max_retries;
        self
    }

    /// Installs a metrics sink; [`JobReport::metrics`] snapshots it after
    /// every run. Pass the same cell the consolidation layer uses so engine,
    /// Ω, and solver counters land in one place.
    #[must_use]
    pub fn with_recorder(mut self, recorder: udf_obs::RecorderCell) -> Engine {
        self.config.recorder = recorder;
        self
    }

    /// Number of worker threads used per job.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The active execution configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Runs `queries` over `records` in the given mode.
    ///
    /// When [`EngineConfig::guard`] is active and `mode` is
    /// [`ExecMode::Consolidated`], every record is shadow-executed through
    /// the sequential path; on the first divergence the configured
    /// [`GuardAction`] applies (see [`crate::guard`]). A
    /// demotion discards the consolidated pass entirely and reruns the job
    /// in [`ExecMode::Many`], so the returned report is bit-identical to a
    /// pure-sequential run — no records are dropped by the switch.
    ///
    /// # Errors
    ///
    /// Under [`ErrorPolicy::FailFast`], returns the first failure raised by
    /// any worker (duplicate notification, library failure, fuel exhaustion,
    /// or a panicking UDF environment). Under [`ErrorPolicy::Quarantine`],
    /// per-record failures are absorbed into the report and only
    /// [`EngineError::TooManyErrors`] aborts the job. Requesting
    /// `Consolidated` without a consolidated program is
    /// [`EngineError::MissingConsolidated`] in either policy. A guard trip
    /// under [`GuardAction::FailFast`] is [`EngineError::GuardTripped`].
    pub fn run<E: UdfEnv>(
        &self,
        env: &E,
        records: &[E::Rec],
        queries: &QuerySet,
        mode: ExecMode,
        track_cost: bool,
    ) -> Result<JobReport, EngineError> {
        if mode == ExecMode::Consolidated && queries.consolidated.is_none() {
            return Err(EngineError::MissingConsolidated);
        }
        let policy = self.config.guard;
        if mode != ExecMode::Consolidated || !policy.is_active() {
            return self.run_once(env, records, queries, mode, track_cost, None);
        }
        let grun = GuardRun::new();
        let primary = self.run_once(env, records, queries, mode, track_cost, Some(&grun));
        if !grun.tripped() {
            // Healthy plan — or LogOnly, which reports without tripping.
            let mut report = primary?;
            let incident =
                (grun.mismatches() > 0).then(|| grun.incident(&policy, records.len(), false));
            report.guard = Some(GuardReport {
                shadow_runs: grun.shadow_runs(),
                mismatches: grun.mismatches(),
                demoted: false,
                incident,
            });
            return Ok(report);
        }
        // The consolidated plan diverged from the sequential semantics: its
        // results (even a nominal success) are untrustworthy. Evict the
        // plan from the cache so the divergence cannot recur on the next
        // compile, then apply the policy.
        let invalidated = self.invalidate_plan(queries);
        let incident = grun.incident(&policy, records.len(), invalidated);
        match policy.on_mismatch {
            GuardAction::FailFast => Err(EngineError::GuardTripped { incident }),
            // LogOnly never trips (see GuardRun::record_mismatch); Demote
            // self-heals by rerunning the whole job sequentially.
            GuardAction::Demote | GuardAction::LogOnly => {
                self.config.recorder.add(names::GUARD_DEMOTIONS, 1);
                let mut report =
                    self.run_once(env, records, queries, ExecMode::Many, track_cost, None)?;
                report.guard = Some(GuardReport {
                    shadow_runs: grun.shadow_runs(),
                    mismatches: grun.mismatches(),
                    demoted: true,
                    incident: Some(incident),
                });
                Ok(report)
            }
        }
    }

    /// Removes the query set's plan from the attached cache, if both exist.
    /// Returns whether a cached plan was evicted.
    fn invalidate_plan(&self, queries: &QuerySet) -> bool {
        match (&self.config.plan_cache, queries.plan_key) {
            (Some(cache), Some(key)) => cache.invalidate(key),
            _ => false,
        }
    }

    /// One execution pass in one mode, with optional guard instrumentation.
    fn run_once<E: UdfEnv>(
        &self,
        env: &E,
        records: &[E::Rec],
        queries: &QuerySet,
        mode: ExecMode,
        track_cost: bool,
        guard: Option<&GuardRun>,
    ) -> Result<JobReport, EngineError> {
        let n_q = queries.query_ids.len();
        let config = &self.config;
        let ctx = &ShardCtx {
            env,
            queries,
            mode,
            track_cost,
            fuel: config.fuel.unwrap_or(DEFAULT_FUEL),
            config,
            guard,
        };
        let shard_len = records.len().div_ceil(self.workers).max(1);
        let shards: Vec<&[E::Rec]> = records.chunks(shard_len).collect();
        let start = Instant::now();
        let shard_results = run_tasks(self.workers, shards.len(), |k| match config.backend {
            ExecBackend::PerRecord => run_shard(ctx, ScalarExec::new(ctx), shards[k], k * shard_len),
            ExecBackend::Columnar => run_shard(ctx, ColumnarExec::new(ctx), shards[k], k * shard_len),
        });
        let udf_time = start.elapsed();
        let mut counts = vec![0u64; n_q];
        let mut missing = vec![0u64; n_q];
        let mut cost = 0u64;
        let mut prefilter_skipped = 0u64;
        let mut quarantine = QuarantineReport::default();
        for (k, joined) in shard_results.into_iter().enumerate() {
            let s = match joined {
                Ok(r) => r?,
                // A panic outside per-record isolation means the engine
                // itself is poisoned for that shard.
                Err(message) => match config.error_policy {
                    ErrorPolicy::FailFast => {
                        return Err(EngineError::WorkerPanicked { shard: k, message });
                    }
                    ErrorPolicy::Quarantine { .. } => {
                        quarantine.shards_lost += 1;
                        quarantine.records_lost += shards[k].len();
                        continue;
                    }
                },
            };
            for q in 0..n_q {
                counts[q] += s.counts[q];
                missing[q] += s.missing[q];
            }
            cost += s.cost;
            prefilter_skipped += s.prefilter_skipped;
            quarantine.absorb(s.quarantine);
        }
        Ok(JobReport {
            counts,
            missing,
            udf_time,
            cost: track_cost.then_some(cost),
            records: records.len(),
            prefilter_skipped,
            quarantine: finalize_quarantine(quarantine, config)?,
            metrics: self.config.recorder.snapshot(),
            guard: None,
        })
    }
}

struct ShardOut {
    counts: Vec<u64>,
    missing: Vec<u64>,
    cost: u64,
    /// Entries and retry tally; finalised once for the whole job.
    quarantine: QuarantineReport,
    prefilter_skipped: u64,
}

/// What one shard's evaluation and policy read but never write.
struct ShardCtx<'a, E: UdfEnv> {
    env: &'a E,
    queries: &'a QuerySet,
    mode: ExecMode,
    track_cost: bool,
    /// Per-record step budget: [`EngineConfig::fuel`], else [`DEFAULT_FUEL`].
    fuel: u64,
    config: &'a EngineConfig,
    guard: Option<&'a GuardRun>,
}

/// Evaluates every program `mode` requires for one record on the scalar
/// [`RegVm`], one isolated [`attempt`] each. On the first failure the whole
/// record is abandoned: its partial notifications and cost are discarded by
/// the caller.
fn eval_record<E: UdfEnv>(
    ctx: &ShardCtx<'_, E>,
    vm: &mut RegVm,
    rec: &E::Rec,
    mode: ExecMode,
    track_cost: bool,
    notify: &mut [i8],
) -> Outcome {
    let mut run = |c: &RegProgram, query: Option<ProgId>| {
        attempt(vm, ctx.fuel, c, ctx.env, rec, notify, track_cost).map_err(|f| (query, f))
    };
    match mode {
        ExecMode::Many => {
            let mut cost = 0u64;
            for (c, &id) in ctx.queries.many.iter().zip(&ctx.queries.query_ids) {
                cost += run(c, Some(id))?;
            }
            Ok(cost)
        }
        ExecMode::Consolidated => run(
            ctx.queries
                .consolidated
                .as_ref()
                .expect("checked by Engine::run"),
            None,
        ),
    }
}

/// The seam between policy and evaluation. [`run_shard`] owns every policy
/// decision; an implementation only evaluates records, a span at a time.
/// A new backend implements this and nothing else.
trait ShardExec<E: UdfEnv> {
    /// Records evaluated per [`ShardExec::eval`] call. Everything in a span
    /// is evaluated before policy sees its first record, so a span of one
    /// evaluates nothing past a guard trip or a quarantine overflow.
    const SPAN: usize;

    /// Evaluates `recs` (at most [`ShardExec::SPAN`]) into the lane-major
    /// `notify` buffer (`lane * n_queries + q`, pre-filled with
    /// [`NOTIFY_NONE`]). Lanes `live` marks `false` must not run; their
    /// `notify` slots stay untouched and their outcome is never asked for.
    fn eval(&mut self, recs: &[E::Rec], live: Option<&[bool]>, notify: &mut [i8]);

    /// Takes a live `lane`'s outcome of the last [`ShardExec::eval`].
    fn outcome(&mut self, lane: usize) -> Outcome;
}

/// [`ExecBackend::PerRecord`]: the scalar [`RegVm`], one record per span.
struct ScalarExec<'a, E: UdfEnv> {
    ctx: &'a ShardCtx<'a, E>,
    vm: RegVm,
    last: Outcome,
}

impl<'a, E: UdfEnv> ScalarExec<'a, E> {
    fn new(ctx: &'a ShardCtx<'a, E>) -> Self {
        ScalarExec {
            ctx,
            vm: RegVm::new().with_fuel(ctx.fuel),
            last: Ok(0),
        }
    }
}

impl<E: UdfEnv> ShardExec<E> for ScalarExec<'_, E> {
    const SPAN: usize = 1;

    fn eval(&mut self, recs: &[E::Rec], live: Option<&[bool]>, notify: &mut [i8]) {
        let (ctx, rec) = (self.ctx, &recs[0]);
        if live.is_none_or(|m| m[0]) {
            self.last = eval_record(ctx, &mut self.vm, rec, ctx.mode, ctx.track_cost, notify);
        }
    }

    fn outcome(&mut self, _lane: usize) -> Outcome {
        std::mem::replace(&mut self.last, Ok(0))
    }
}

/// Records per [`BatchVm`] batch under [`ExecBackend::Columnar`]. Sized so a
/// typical register file (tens of registers × 8 bytes × lanes) stays
/// cache-resident.
const COLUMNAR_BATCH: usize = 256;

/// [`ExecBackend::Columnar`]: records are gathered into a [`RecordBatch`]
/// and the same programs run a batch at a time on [`BatchVm`].
struct ColumnarExec<'a, E: UdfEnv> {
    ctx: &'a ShardCtx<'a, E>,
    progs: Vec<&'a RegProgram>,
    bvm: BatchVm,
    batch: RecordBatch,
    row: Vec<i64>,
}

impl<'a, E: UdfEnv> ColumnarExec<'a, E> {
    fn new(ctx: &'a ShardCtx<'a, E>) -> Self {
        let progs = match ctx.mode {
            ExecMode::Many => ctx.queries.many.iter().collect(),
            ExecMode::Consolidated => vec![ctx
                .queries
                .consolidated
                .as_ref()
                .expect("checked by Engine::run")],
        };
        ColumnarExec {
            ctx,
            progs,
            bvm: BatchVm::new(ctx.fuel),
            batch: RecordBatch::default(),
            row: Vec::new(),
        }
    }
}

impl<E: UdfEnv> ShardExec<E> for ColumnarExec<'_, E> {
    const SPAN: usize = COLUMNAR_BATCH;

    fn eval(&mut self, recs: &[E::Rec], live: Option<&[bool]>, notify: &mut [i8]) {
        let ctx = self.ctx;
        let _batch_span = ctx.config.recorder.span(names::ENGINE_BATCH_NS);
        self.batch.regather(ctx.env, recs, &mut self.row);
        self.bvm.run_masked(
            &self.progs,
            &self.batch,
            ctx.env,
            recs,
            notify,
            ctx.track_cost,
            live,
        );
    }

    fn outcome(&mut self, lane: usize) -> Outcome {
        match self.bvm.take_fault(lane) {
            None => Ok(self.bvm.cost(lane)),
            Some((pi, fault)) => Err((
                match self.ctx.mode {
                    ExecMode::Many => Some(self.ctx.queries.query_ids[pi]),
                    ExecMode::Consolidated => None,
                },
                match fault {
                    LaneFault::Vm(e) => RecordFault::Vm(e),
                    LaneFault::Panic(m) => RecordFault::Panic(m),
                },
            )),
        }
    }
}

/// The policy driver: one shard, any backend. `exec` evaluates a span of
/// records; every *policy* decision — pre-filter skipping, retries, guard
/// shadowing, quarantine accounting, fail-fast ordering, early termination
/// — then replays lane by lane in record order, so reports are
/// bit-identical between backends. Retries and guard shadows run on a
/// driver-owned scalar [`RegVm`], which also keeps stateful fault
/// environments observing the same call sequence whichever backend made the
/// first attempt.
fn run_shard<E: UdfEnv, X: ShardExec<E>>(
    ctx: &ShardCtx<'_, E>,
    mut exec: X,
    shard: &[E::Rec],
    base: usize,
) -> Result<ShardOut, EngineError> {
    let &ShardCtx {
        env,
        queries,
        mode,
        track_cost,
        fuel,
        config,
        guard,
    } = ctx;
    let n_q = queries.query_ids.len();
    let recorder = &config.recorder;
    // Read the clock only when the sink is enabled, so the disabled-default
    // hot path stays timer-free.
    let timed = recorder.enabled();
    // Kept apart from the backend's own machine so a retry or a shadow run
    // never disturbs its state.
    let mut reference = RegVm::new().with_fuel(fuel);
    // The pre-filter applies only to the consolidated operator and only
    // when the fuel budget clears its soundness floor (see PrefilterExec).
    let prefilter = queries
        .prefilter
        .as_ref()
        .filter(|pf| mode == ExecMode::Consolidated && fuel >= pf.min_fuel);
    let mut live: Vec<bool> = Vec::new();
    let mut pf_args: Vec<i64> = Vec::new();
    let mut notify_buf = vec![NOTIFY_NONE; X::SPAN * n_q];
    let mut shadow_notify = vec![NOTIFY_NONE; n_q];
    let mut counts = vec![0u64; n_q];
    let mut missing = vec![0u64; n_q];
    let mut cost = 0u64;
    let mut processed = 0u64;
    let mut prefilter_skipped = 0u64;
    let mut quarantine = QuarantineReport::default();
    'shard: for (si, span) in shard.chunks(X::SPAN).enumerate() {
        if guard.is_some_and(|g| g.tripped()) {
            // Mid-stream demotion: every worker abandons the consolidated
            // pass at its next span; the engine reruns the whole job
            // sequentially, so nothing produced here is kept or dropped.
            break;
        }
        // `engine.record_ns` is a record's evaluation plus its policy. A
        // one-record span opens it here, ahead of evaluation; a batched
        // span's evaluation is timed by its backend, leaving the per-lane
        // policy replay below.
        let mut span_timer =
            (timed && X::SPAN == 1).then(|| recorder.span(names::ENGINE_RECORD_NS));
        let notify = &mut notify_buf[..span.len() * n_q];
        notify.fill(NOTIFY_NONE);
        // Pre-filter: a verdict of `false` proves every query broadcasts
        // `false` on this record without touching the environment, so the
        // lane is masked out of the evaluation and assigned its proven
        // outcome below.
        if let Some(pf) = prefilter {
            live.clear();
            live.extend(span.iter().map(|rec| {
                pf_args.clear();
                env.args(rec, &mut pf_args);
                pf.fast.eval(&pf_args)
            }));
        }
        exec.eval(span, prefilter.map(|_| live.as_slice()), notify);
        for (k, rec) in span.iter().enumerate() {
            // Lane 0 was checked just above, before the span ran. Later
            // lanes a batch already evaluated are simply not accumulated,
            // matching a one-record span (which would not have evaluated
            // them at all).
            if k > 0 && guard.is_some_and(|g| g.tripped()) {
                break 'shard;
            }
            let record = base + si * X::SPAN + k;
            processed += 1;
            let _record_span = span_timer
                .take()
                .or_else(|| timed.then(|| recorder.span(names::ENGINE_RECORD_NS)));
            let lane_notify = &mut notify[k * n_q..(k + 1) * n_q];
            // Per-lane pre-filter accounting happens here, in record order,
            // so early termination (guard trip, quarantine overflow) leaves
            // the counters independent of the span length.
            let skipped = prefilter.is_some() && !live[k];
            let first = if skipped {
                prefilter_skipped += 1;
                // The proven outcome: every query notified `false`, no
                // calls were made, no cost accrued.
                lane_notify.fill(0);
                Ok(0)
            } else {
                exec.outcome(k)
            };
            let (outcome, retries) = match first {
                Err(fault) => quarantine.retry(config.max_retries, fault, || {
                    lane_notify.fill(NOTIFY_NONE);
                    eval_record(ctx, &mut reference, rec, mode, track_cost, lane_notify)
                }),
                ok => (ok, 0),
            };
            if retries > 0 {
                recorder.add(names::ENGINE_RETRIES, u64::from(retries));
            }
            if let Some(g) = guard {
                // Shadow-execute the record through the sequential path and
                // compare observable behaviour: per-query broadcast
                // decisions on success, or the fact of quarantine on
                // failure. Records that exercised transient faults are
                // skipped — their outcome depends on attempt counts shared
                // with the shadow run, so a comparison would report phantom
                // divergence.
                let transient_involved =
                    retries > 0 || outcome.as_ref().is_err_and(|(_, f)| f.is_transient());
                if !transient_involved {
                    let _guard_span = recorder.span(names::GUARD_NS);
                    g.record_shadow();
                    recorder.add(names::GUARD_SHADOW_RUNS, 1);
                    shadow_notify.fill(NOTIFY_NONE);
                    let shadow = eval_record(
                        ctx,
                        &mut reference,
                        rec,
                        ExecMode::Many,
                        false,
                        &mut shadow_notify,
                    );
                    let consolidated = match &outcome {
                        Ok(_) => GuardObservation::from_notify(lane_notify),
                        Err(_) => GuardObservation::Quarantined,
                    };
                    let sequential = match &shadow {
                        Ok(_) => GuardObservation::from_notify(&shadow_notify),
                        Err(_) => GuardObservation::Quarantined,
                    };
                    if consolidated != sequential {
                        recorder.add(names::GUARD_MISMATCHES, 1);
                        g.record_mismatch(
                            &config.guard,
                            GuardMismatch {
                                record,
                                consolidated,
                                sequential,
                            },
                        );
                    }
                }
            }
            match outcome {
                Ok(c) => {
                    cost += c;
                    // A skipped record's notification vector is all-`false`
                    // by construction: nothing to count, nothing missing.
                    if !skipped {
                        for q in 0..n_q {
                            match lane_notify[q] {
                                1 => counts[q] += 1,
                                0 => {}
                                _ => missing[q] += 1,
                            }
                        }
                    }
                }
                Err(fault) => {
                    let kind = fault.1.kind();
                    quarantine.admit(config, record, fault, retries, || {
                        let mut args = Vec::new();
                        env.args(rec, &mut args);
                        args
                    })?;
                    recorder.add(names::ENGINE_QUARANTINED, 1);
                    recorder.add(kind.counter(), 1);
                    if matches!(
                        config.error_policy,
                        ErrorPolicy::Quarantine { max_errors } if quarantine.entries.len() > max_errors
                    ) {
                        // The job is doomed to TooManyErrors; stop burning
                        // CPU on this shard. (Local count lower-bounds the
                        // global one.)
                        break 'shard;
                    }
                }
            }
        }
    }
    recorder.add(names::ENGINE_RECORDS, processed);
    if prefilter.is_some() {
        // Emitted as shard totals, not per record: the counters are
        // aggregated sums either way, and a virtual-dispatch sink call per
        // record would cost a measurable slice of the skip path it meters.
        recorder.add(names::PREFILTER_RECORDS_SKIPPED, prefilter_skipped);
        recorder.add(
            names::PREFILTER_RECORDS_PASSED,
            processed - prefilter_skipped,
        );
    }
    Ok(ShardOut {
        counts,
        missing,
        cost,
        quarantine,
        prefilter_skipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::ScalarEnv;
    use udf_lang::ast::Program;
    use udf_lang::intern::Interner;
    use udf_lang::parse::parse_program;
    use udf_lang::FnLibrary;

    fn threshold_queries(interner: &mut Interner, n: u32) -> Vec<Program> {
        (0..n)
            .map(|k| {
                parse_program(
                    &format!(
                        "program q{k} @{k} (v) {{ if (v > {}) {{ notify true; }} else {{ notify false; }} }}",
                        k * 10
                    ),
                    interner,
                )
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn where_many_counts_are_exact() {
        let mut i = Interner::new();
        let programs = threshold_queries(&mut i, 3); // thresholds 0, 10, 20
        let env = ScalarEnv::new(1, FnLibrary::new());
        let cm = CostModel::default();
        let qs = QuerySet::compile_many(&programs, &cm, &|f| {
            udf_lang::library::Library::cost(&FnLibrary::new(), f)
        })
        .unwrap();
        let records: Vec<Vec<i64>> = (0..100).map(|v| vec![v]).collect();
        let engine = Engine::new(4);
        let r = engine.run(&env, &records, &qs, ExecMode::Many, true).unwrap();
        assert_eq!(r.counts, vec![99, 89, 79]);
        assert_eq!(r.missing, vec![0, 0, 0]);
        assert_eq!(r.records, 100);
        assert!(r.cost.unwrap() > 0);
    }

    #[test]
    fn consolidated_mode_matches_many() {
        let mut i = Interner::new();
        let programs = threshold_queries(&mut i, 4);
        let env = ScalarEnv::new(1, FnLibrary::new());
        let cm = CostModel::default();
        let lib = FnLibrary::new();
        let merged = consolidate::consolidate_many(
            &programs,
            &mut i,
            &cm,
            &lib,
            &consolidate::Options::default(),
            false,
        )
        .unwrap();
        let qs = QuerySet::compile_many(&programs, &cm, &|f| {
            udf_lang::library::Library::cost(&lib, f)
        })
        .unwrap()
        .with_consolidated(&merged.program, &cm, &|f| {
            udf_lang::library::Library::cost(&lib, f)
        }, merged.elapsed)
        .unwrap();
        let records: Vec<Vec<i64>> = (-20..120).map(|v| vec![v]).collect();
        let engine = Engine::new(3);
        let many = engine.run(&env, &records, &qs, ExecMode::Many, true).unwrap();
        let cons = engine
            .run(&env, &records, &qs, ExecMode::Consolidated, true)
            .unwrap();
        assert_eq!(many.counts, cons.counts);
        assert_eq!(cons.missing, vec![0; 4]);
        assert!(
            cons.cost.unwrap() <= many.cost.unwrap(),
            "consolidated cost {} must not exceed sequential {}",
            cons.cost.unwrap(),
            many.cost.unwrap()
        );
    }

    #[test]
    fn single_worker_and_many_workers_agree() {
        let mut i = Interner::new();
        let programs = threshold_queries(&mut i, 2);
        let env = ScalarEnv::new(1, FnLibrary::new());
        let cm = CostModel::default();
        let qs = QuerySet::compile_many(&programs, &cm, &|_| 10).unwrap();
        let records: Vec<Vec<i64>> = (0..1000).map(|v| vec![v % 37]).collect();
        let a = Engine::new(1).run(&env, &records, &qs, ExecMode::Many, false).unwrap();
        let b = Engine::new(8).run(&env, &records, &qs, ExecMode::Many, false).unwrap();
        assert_eq!(a.counts, b.counts);
    }

    #[test]
    fn empty_input_is_fine() {
        let mut i = Interner::new();
        let programs = threshold_queries(&mut i, 2);
        let env = ScalarEnv::new(1, FnLibrary::new());
        let cm = CostModel::default();
        let qs = QuerySet::compile_many(&programs, &cm, &|_| 10).unwrap();
        let records: Vec<Vec<i64>> = Vec::new();
        let r = Engine::new(4)
            .run(&env, &records, &qs, ExecMode::Many, false)
            .unwrap();
        assert_eq!(r.counts, vec![0, 0]);
        assert_eq!(r.records, 0);
    }
}

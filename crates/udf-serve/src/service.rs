//! The service runtime: epochs, admission, the live delta-consolidated
//! plan, and tenant-granular failure isolation.

use crate::admission::{Admission, IngestQueue, PendingBatch, ShedBatch};
use crate::journal::{self, Journal, JournalError, JournalRec, RecoveryReport, SimCrash};
use crate::tenant::{ChurnOp, ChurnOutcome, TenantId, TenantState};
use consolidate::{
    DegradationTier, DeltaError, DeltaPlan, DeltaReport, LeafImage, NodeImage, PlanImage,
};
use naiad_lite::engine::{
    Engine, EngineConfig, EngineError, ErrorPolicy, ExecMode, JobReport, QuerySet,
};
use naiad_lite::guard::{GuardAction, GuardObservation, GuardPolicy, PlanIncident};
use naiad_lite::UdfEnv;
use plan_cache::{read_program, write_program};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;
use udf_lang::analysis::notify_ids;
use udf_lang::ast::{ProgId, Program};
use udf_lang::cost::{Cost, CostModel, FnCost};
use udf_lang::intern::{Interner, Symbol};
use udf_obs::names;

/// [`FnCost`] view of a [`UdfEnv`], so delta consolidation prices library
/// calls exactly as the engine will execute them.
struct EnvCost<'a, E: UdfEnv>(&'a E);

impl<E: UdfEnv> FnCost for EnvCost<'_, E> {
    fn fn_cost(&self, f: Symbol) -> Cost {
        self.0.fn_cost(f)
    }
}

/// Queue pressure (`queued records / queue_capacity`) at or above which
/// the service degrades: churn is deferred and the epoch executes
/// sequentially (per-tenant `Many` runs — the reference semantics, no guard
/// overhead, no solver work).
const DEGRADE_WATERMARK: f64 = 0.75;

/// Queue pressure at or above which batches older than
/// [`ServeConfig::deadline_epochs`] are shed (explicitly accounted in the
/// epoch report).
const SHED_WATERMARK: f64 = 0.90;

/// The plan guard of every consolidated epoch: each record is audited
/// against the per-query programs, and the first divergence aborts the run
/// ([`GuardAction::FailFast`]) so the service demotes at tenant granularity
/// itself instead of the engine's job granularity. Not configurable:
/// [`Service::recover`] installs a checkpointed plan without re-proving it
/// on the promise that this audit runs.
const EPOCH_GUARD: GuardPolicy = GuardPolicy {
    audit: true,
    on_mismatch: GuardAction::FailFast,
};

/// Service configuration. Time is measured in epochs, never wall clock, so
/// every run with the same inputs reproduces exactly. Epochs run on the
/// per-record backend, degrade at 75 % queue pressure and shed at 90 %.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bounded ingest capacity in records; submissions that would exceed it
    /// are rejected (never silently dropped).
    pub queue_capacity: usize,
    /// Records processed per epoch (batches are atomic: the first queued
    /// batch always runs, even when it alone exceeds the limit).
    pub epoch_batch_limit: usize,
    /// Batch age (in epochs) beyond which it is sheddable under pressure.
    pub deadline_epochs: u64,
    /// Transient-fault retries per record, forwarded to the engine
    /// ([`EngineConfig::max_retries`]).
    pub max_retries: u32,
    /// Quarantined records attributed to one tenant before it is demoted
    /// out of the shared plan.
    pub tenant_quarantine_budget: u64,
    /// Consolidation options for delta plan surgery (its budget bounds each
    /// register/deregister operation).
    pub consolidation: consolidate::Options,
    /// Engine worker threads per epoch run.
    pub workers: usize,
    /// Metrics sink for the `serve.*` counters (and, shared with
    /// `consolidation.recorder`, the whole stack's).
    pub recorder: udf_obs::RecorderCell,
    /// Journal frames appended between checkpoint compactions (journaled
    /// services only; see [`Service::open`]). After this many frames the
    /// next epoch commit folds the journal into a full-state checkpoint.
    pub journal_checkpoint_every: u64,
    /// Armed simulated crash for chaos testing (journaled services only).
    /// When the chosen [`crate::CrashPoint`] fires, the journal performs
    /// the partial write a real crash could leave and the service poisons
    /// itself; recover from the directory to continue.
    pub sim_crash: Option<SimCrash>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            queue_capacity: 4096,
            epoch_batch_limit: 1024,
            deadline_epochs: 4,
            max_retries: 0,
            tenant_quarantine_budget: 16,
            consolidation: consolidate::Options::default(),
            workers: 1,
            recorder: udf_obs::RecorderCell::noop(),
            journal_checkpoint_every: 64,
            sim_crash: None,
        }
    }
}

/// Errors surfaced by service operations.
#[derive(Debug, Clone)]
pub enum ServeError {
    /// A query with this id is already registered (ids are service-global).
    DuplicateQuery(ProgId),
    /// No registered query has this id.
    UnknownQuery(ProgId),
    /// The query exists but belongs to a different tenant.
    NotOwner {
        /// The calling tenant.
        tenant: TenantId,
        /// The contested query.
        query: ProgId,
    },
    /// The program notifies an id other than (or besides) its own.
    MultiNotify(ProgId),
    /// Delta plan surgery failed (e.g. parameter mismatch with the live
    /// set); the plan is unchanged.
    Delta(DeltaError),
    /// A program failed to compile for execution.
    Compile(String),
    /// The engine failed in a way the quarantine policy cannot absorb.
    Engine(String),
    /// The zero-silent-drop invariant `admitted == processed + shed +
    /// queued` broke — checked (in release builds too) before every epoch
    /// commit, because a service that silently miscounts is exactly the
    /// failure durability must not journal as truth.
    AccountingDrift(Accounting),
    /// The durability layer failed (I/O, corruption, or a simulated
    /// crash); the service is poisoned.
    Journal(JournalError),
    /// A call on a service already poisoned by a journal failure. Treat
    /// the in-memory instance as dead and [`Service::recover`] from disk.
    Poisoned,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::DuplicateQuery(id) => write!(f, "query id {} already registered", id.0),
            ServeError::UnknownQuery(id) => write!(f, "no registered query with id {}", id.0),
            ServeError::NotOwner { tenant, query } => {
                write!(f, "{tenant} does not own query {}", query.0)
            }
            ServeError::MultiNotify(id) => write!(
                f,
                "program must notify exactly its own id {} (and nothing else)",
                id.0
            ),
            ServeError::Delta(e) => write!(f, "delta consolidation: {e}"),
            ServeError::Compile(e) => write!(f, "compile: {e}"),
            ServeError::Engine(e) => write!(f, "engine: {e}"),
            ServeError::AccountingDrift(a) => write!(
                f,
                "accounting drift: admitted {} != processed {} + shed {} + queued {}",
                a.admitted, a.processed, a.shed, a.queued
            ),
            ServeError::Journal(e) => write!(f, "{e}"),
            ServeError::Poisoned => {
                write!(f, "service poisoned by an earlier journal failure; recover from disk")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<DeltaError> for ServeError {
    fn from(e: DeltaError) -> ServeError {
        ServeError::Delta(e)
    }
}

impl From<naiad_lite::CompileError> for ServeError {
    fn from(e: naiad_lite::CompileError) -> ServeError {
        ServeError::Compile(e.to_string())
    }
}

impl From<JournalError> for ServeError {
    fn from(e: JournalError) -> ServeError {
        ServeError::Journal(e)
    }
}

/// How one epoch executed its drained records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochMode {
    /// No records were queued.
    Idle,
    /// The shared consolidated plan ran (demoted tenants still ran solo).
    Consolidated,
    /// Every tenant ran solo and sequential: pressure at or above the
    /// degrade watermark, an unattributable guard trip, or an empty shared
    /// plan.
    Sequential,
}

/// One tenant's slice of an epoch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantEpochReport {
    /// Selected-record count per query id (`ProgId.0`), for every query the
    /// tenant had registered when the epoch ran.
    pub counts: BTreeMap<u32, u64>,
    /// Global record sequence numbers quarantined *for this tenant* (its
    /// own UDFs faulted on them), sorted.
    pub quarantined: Vec<u64>,
    /// Whether the tenant's queries ran outside the shared plan this epoch.
    pub solo: bool,
}

/// What one [`Service::run_epoch`] call did. Every drained record is
/// accounted here exactly once — in `processed` or inside `shed`.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// The epoch that ran (monotone from 1).
    pub epoch: u64,
    /// How the drained records executed.
    pub mode: EpochMode,
    /// Records fully processed this epoch.
    pub processed: usize,
    /// Batches shed by deadline-aware load shedding.
    pub shed: Vec<ShedBatch>,
    /// Deferred churn ops applied at this epoch's start.
    pub applied_churn: usize,
    /// Churn ops still deferred (pressure at or above the degrade
    /// watermark).
    pub deferred_churn: usize,
    /// Deferred churn ops that failed at apply time, with their errors.
    pub churn_errors: Vec<(TenantId, ServeError)>,
    /// Tenants demoted out of the shared plan during this epoch.
    pub demoted: Vec<TenantId>,
    /// Per-tenant results.
    pub tenants: BTreeMap<TenantId, TenantEpochReport>,
    /// Records still queued when the epoch ended.
    pub queued_after: usize,
    /// Tier of the shared plan after the epoch.
    pub plan_tier: DegradationTier,
    /// FNV-64 digest of the epoch's observable effects (mode, per-tenant
    /// counts and quarantined sequences, demotions, shed batches). The
    /// journal stamps this into the commit frame; the chaos CI diffs a
    /// recovered run's digests against the uncrashed reference.
    pub output_digest: u64,
}

/// What the deterministic start of an epoch did (see
/// `Service::begin_epoch`).
struct EpochStart<R> {
    /// Queue pressure when the epoch began; also decides the epoch's mode.
    pressure: f64,
    applied_churn: usize,
    deferred_churn: usize,
    churn_errors: Vec<(TenantId, ServeError)>,
    shed: Vec<ShedBatch>,
    drained: Vec<PendingBatch<R>>,
}

/// Monotone service-lifetime record accounting. The zero-silent-drop
/// invariant is `admitted == processed + shed + queued` — checked after
/// every epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Accounting {
    /// Records accepted into the queue.
    pub admitted: u64,
    /// Records refused at admission (returned to the submitter).
    pub rejected: u64,
    /// Records shed after admission (reported per batch).
    pub shed: u64,
    /// Records fully processed.
    pub processed: u64,
    /// Records currently queued.
    pub queued: u64,
}

impl Accounting {
    /// Whether every admitted record is accounted for.
    pub fn balanced(&self) -> bool {
        self.admitted == self.processed + self.shed + self.queued
    }
}

/// Point-in-time view of the service.
#[derive(Debug, Clone, Copy)]
pub struct ServiceStatus {
    /// Epochs executed so far.
    pub epoch: u64,
    /// Records queued.
    pub queued_records: usize,
    /// Queue pressure (`queued / capacity`).
    pub pressure: f64,
    /// Queries in the shared consolidated plan.
    pub plan_queries: usize,
    /// Tier of the shared plan.
    pub plan_tier: DegradationTier,
    /// Registered tenants.
    pub tenants: usize,
    /// Tenants demoted out of the shared plan.
    pub demoted_tenants: usize,
}

/// A long-lived consolidation service over one dataset environment.
///
/// Drive it explicitly: [`Service::submit`] record batches,
/// [`Service::register`] / [`Service::deregister`] queries per tenant, and
/// call [`Service::run_epoch`] to make progress. Epochs — not wall-clock
/// time — are the service's only clock, which is what makes every seeded
/// run byte-reproducible (the chaos CI diffs two same-seed runs).
pub struct Service<E: UdfEnv> {
    env: E,
    interner: Interner,
    cm: CostModel,
    config: ServeConfig,
    plan: DeltaPlan,
    tenants: BTreeMap<TenantId, TenantState>,
    owner: HashMap<u32, TenantId>,
    pending_churn: VecDeque<ChurnOp>,
    queue: IngestQueue<E::Rec>,
    epoch: u64,
    shared_qs: Option<QuerySet>,
    /// Pre-filter synthesized for the *current* shared plan (see
    /// [`consolidate::prefilter`]). Cleared on every churn — a condition
    /// proved against yesterday's query set says nothing about today's —
    /// and re-synthesized by [`Service::rebuild_shared`] when
    /// `consolidation.prefilter` is on.
    shared_prefilter: Option<consolidate::Prefilter>,
    qs_dirty: bool,
    counters: Accounting,
    /// Solver checks this instance has spent on delta operations (register,
    /// deregister, demotion). Not durable: [`Service::recover`] reads it
    /// after replay to report what recovery itself cost the solver.
    delta_solver_checks: u64,
    journal: Option<Journal<E::Rec>>,
    poisoned: bool,
}

impl<E: UdfEnv> fmt::Debug for Service<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Service").field("status", &self.status()).finish()
    }
}

impl<E: UdfEnv> Service<E> {
    /// Creates a service over `env` with its own interner and cost model.
    pub fn new(env: E, config: ServeConfig) -> Service<E> {
        let queue = IngestQueue::new(config.queue_capacity);
        Service {
            env,
            interner: Interner::new(),
            cm: CostModel::default(),
            config,
            plan: DeltaPlan::new(),
            tenants: BTreeMap::new(),
            owner: HashMap::new(),
            pending_churn: VecDeque::new(),
            queue,
            epoch: 0,
            shared_qs: None,
            shared_prefilter: None,
            qs_dirty: false,
            counters: Accounting::default(),
            delta_solver_checks: 0,
            journal: None,
            poisoned: false,
        }
    }

    /// Creates a *journaled* service whose durable state lives in `dir`:
    /// every state transition appends a write-ahead frame before the call
    /// returns, and epoch commits periodically fold the journal into a
    /// checkpoint (see [`ServeConfig::journal_checkpoint_every`]). The
    /// directory must not already hold durable state — restart an existing
    /// service with [`Service::recover`] instead.
    ///
    /// `interner` must be the interner the environment's function library
    /// was built against (the same one [`Service::interner_mut`] would
    /// hand out) — recovery parses checkpointed programs into it, so
    /// library symbols must already resolve.
    ///
    /// # Errors
    ///
    /// [`ServeError::Journal`] when the directory already has a journal or
    /// checkpoint, or on I/O failure creating the journal.
    pub fn open(
        env: E,
        interner: Interner,
        config: ServeConfig,
        dir: &Path,
    ) -> Result<Service<E>, ServeError>
    where
        E::Rec: JournalRec,
    {
        let sim = config.sim_crash;
        let recorder = config.recorder.clone();
        let mut svc = Service::new(env, config);
        svc.interner = interner;
        svc.journal = Some(Journal::create(dir, sim, recorder)?);
        Ok(svc)
    }

    /// Rebuilds a journaled service from `dir`: orphan temp files are
    /// removed, the checkpoint (if any) is restored, the journal tail is
    /// replayed with exactly-once semantics (frames the checkpoint already
    /// covers are skipped), a torn tail is truncated and reported, and a
    /// fresh checkpoint is published so the recovered state is durable
    /// before the first new operation. The result is bit-identical to the
    /// uncrashed service: same tenants, queue, pending churn, accounting,
    /// plan tree, and next-epoch behavior.
    ///
    /// The checkpointed plan is *installed*, not re-derived: no Ω, no
    /// solver (it is validated first — see `restore_checkpoint` — and the
    /// epoch guard keeps auditing it against the per-query programs on
    /// every record). Only plan operations in the journal tail are redone,
    /// against an empty entailment memo, as in a freshly started process;
    /// [`RecoveryReport::solver_checks`] is their bill and is 0 when the
    /// tail holds none.
    ///
    /// # Errors
    ///
    /// [`ServeError::Journal`] on I/O failure or when an atomically
    /// published artifact (checkpoint, journal header) is corrupt — torn
    /// *tails* are salvaged, but rot in state that was durably acknowledged
    /// must not be guessed around. A checkpoint in any format but the
    /// current one, or whose plan tree is inconsistent with itself or with
    /// the tenants, is corrupt in this sense.
    pub fn recover(
        env: E,
        interner: Interner,
        config: ServeConfig,
        dir: &Path,
    ) -> Result<(Service<E>, RecoveryReport), ServeError>
    where
        E::Rec: JournalRec,
    {
        journal::clean_orphan_temps(dir)
            .map_err(|e| JournalError::Io(e.to_string()))?;
        let sim = config.sim_crash;
        let recorder = config.recorder.clone();
        let mut svc = Service::new(env, config);
        svc.interner = interner;
        let mut report = RecoveryReport::default();
        let mut next_seq = 0u64;
        if let Some(ckpt) = journal::load_checkpoint(dir)? {
            next_seq = ckpt.next_seq;
            report.plan_nodes_restored = svc
                .restore_checkpoint(&ckpt.payload)
                .map_err(|e| JournalError::Corrupt(format!("checkpoint: {e}")))?;
        }
        let loaded = journal::load_journal(dir)?;
        report.frames_salvaged = loaded.salvaged;
        report.truncated_tail = loaded.truncated_tail;
        report.incidents = loaded.incidents;
        for frame in &loaded.frames {
            if frame.seq < next_seq {
                report.frames_skipped += 1;
                continue;
            }
            if frame.seq != next_seq {
                return Err(ServeError::Journal(JournalError::Corrupt(format!(
                    "frame seq {} leaves a gap (expected {next_seq})",
                    frame.seq
                ))));
            }
            svc.replay_frame(frame, &mut report)
                .map_err(|e| JournalError::Corrupt(format!("frame {}: {e}", frame.seq)))?;
            next_seq = frame.seq + 1;
            report.frames_replayed += 1;
        }
        report.solver_checks = svc.delta_solver_checks;
        svc.journal = Some(Journal::resume(dir, next_seq, sim, recorder.clone())?);
        // Publish the recovered state before accepting new work: the torn
        // tail is folded away and a second crash re-recovers from here.
        svc.checkpoint()?;
        recorder.add(names::SERVE_RECOVERIES, 1);
        recorder.add(names::JOURNAL_FRAMES_REPLAYED, report.frames_replayed);
        recorder.add(names::JOURNAL_FRAMES_SKIPPED, report.frames_skipped);
        recorder.add(names::JOURNAL_FRAMES_SALVAGED, report.frames_salvaged);
        recorder.add(names::SERVE_RECOVERY_PLAN_NODES_RESTORED, report.plan_nodes_restored);
        recorder.add(names::SERVE_RECOVERY_SOLVER_CHECKS, report.solver_checks);
        Ok((svc, report))
    }

    /// The interner programs submitted to this service must be parsed with.
    pub fn interner_mut(&mut self) -> &mut Interner {
        &mut self.interner
    }

    /// The dataset environment.
    pub fn env(&self) -> &E {
        &self.env
    }

    /// The active configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Current point-in-time view.
    pub fn status(&self) -> ServiceStatus {
        ServiceStatus {
            epoch: self.epoch,
            queued_records: self.queue.queued_records(),
            pressure: self.queue.pressure(),
            plan_queries: self.plan.len(),
            plan_tier: self.plan.tier(),
            tenants: self.tenants.len(),
            demoted_tenants: self.tenants.values().filter(|t| t.demoted).count(),
        }
    }

    /// Lifetime record accounting (see [`Accounting::balanced`]).
    pub fn accounting(&self) -> Accounting {
        Accounting {
            queued: self.queue.queued_records() as u64,
            ..self.counters
        }
    }

    /// The shared consolidated plan (read-only; churn goes through
    /// [`Service::register`] / [`Service::deregister`]).
    pub fn plan(&self) -> &DeltaPlan {
        &self.plan
    }

    /// A tenant's state, if registered.
    pub fn tenant(&self, tenant: TenantId) -> Option<&TenantState> {
        self.tenants.get(&tenant)
    }

    /// Offers a record batch to the bounded ingest queue. An
    /// [`Admission::Rejected`] batch never enters the service — the caller
    /// keeps the records and the decision is explicit. On a journaled
    /// service the admission decision (batch contents included) is durable
    /// before this returns.
    ///
    /// # Errors
    ///
    /// [`ServeError::Journal`] when the write-ahead append fails (the
    /// service is then poisoned); [`ServeError::Poisoned`] thereafter.
    /// Non-journaled services never error.
    pub fn submit(&mut self, records: Vec<E::Rec>) -> Result<Admission, ServeError> {
        self.check_poisoned()?;
        let n = records.len() as u64;
        let admission = self.queue.offer(records, self.epoch);
        match &admission {
            Admission::Admitted { .. } => {
                self.counters.admitted += n;
                self.config.recorder.add(names::SERVE_ADMITTED, n);
            }
            Admission::Rejected { .. } => {
                self.counters.rejected += n;
                self.config.recorder.add(names::SERVE_REJECTED, n);
            }
        }
        if let Some(j) = &self.journal {
            let enc = j.encode;
            let (kind, payload) = match &admission {
                Admission::Admitted { .. } => {
                    let b = self.queue.back().expect("batch was just admitted");
                    let mut p = format!(
                        "batch {} epoch {} seq {} n {}\n",
                        b.id,
                        b.submitted_epoch,
                        b.start_seq,
                        b.records.len()
                    );
                    for r in &b.records {
                        let _ = writeln!(p, "rec {}", enc(r));
                    }
                    ("sub", p)
                }
                Admission::Rejected { .. } => ("rej", format!("n {n}\n")),
            };
            self.journal_append(kind, &payload)?;
        }
        Ok(admission)
    }

    /// Registers one query for `tenant` (created on first use). Under calm
    /// pressure the shared plan is updated in place by a delta operation —
    /// only the `O(log n)` spine above the new leaf re-consolidates; below
    /// the degrade watermark nothing else is touched. Under pressure the op
    /// is deferred to the next calm epoch.
    ///
    /// # Errors
    ///
    /// [`ServeError::DuplicateQuery`] / [`ServeError::MultiNotify`] for
    /// malformed registrations; [`ServeError::Delta`] when plan surgery
    /// fails (the plan is rolled back); [`ServeError::Compile`] when the
    /// program does not compile for execution.
    pub fn register(
        &mut self,
        tenant: TenantId,
        program: &Program,
    ) -> Result<ChurnOutcome, ServeError> {
        self.check_poisoned()?;
        if self.owner.contains_key(&program.id.0) || self.pending_register(program.id).is_some() {
            return Err(ServeError::DuplicateQuery(program.id));
        }
        let ids = notify_ids(&program.body);
        if ids.len() != 1 || !ids.contains(&program.id) {
            return Err(ServeError::MultiNotify(program.id));
        }
        // Compile now so malformed programs fail at the submission boundary,
        // not inside a later epoch.
        let fc = |f: Symbol| self.env.fn_cost(f);
        QuerySet::compile_many(std::slice::from_ref(program), &self.cm, &fc)?;
        let outcome = if self.queue.pressure() >= DEGRADE_WATERMARK {
            self.pending_churn.push_back(ChurnOp::Register {
                tenant,
                program: program.clone(),
            });
            ChurnOutcome::Deferred
        } else {
            self.apply_register(tenant, program)?
        };
        if self.journal.is_some() {
            let sexpr = write_program(program, None, &self.interner);
            let payload =
                format!("tenant {} outcome {}\n{sexpr}\n", tenant.0, churn_tag(&outcome));
            self.journal_append("reg", &payload)?;
        }
        Ok(outcome)
    }

    /// Deregisters one of `tenant`'s queries. Calm epochs apply the removal
    /// immediately (spine-only re-consolidation); under pressure it is
    /// deferred like a registration.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownQuery`] / [`ServeError::NotOwner`] for bad
    /// handles; [`ServeError::Delta`] when plan surgery fails.
    pub fn deregister(
        &mut self,
        tenant: TenantId,
        query: ProgId,
    ) -> Result<ChurnOutcome, ServeError> {
        self.check_poisoned()?;
        let outcome = 'outcome: {
            match self.owner.get(&query.0) {
                None => {
                    // A still-deferred registration can be withdrawn before
                    // it ever reaches the plan.
                    let Some(at) = self.pending_register(query) else {
                        return Err(ServeError::UnknownQuery(query));
                    };
                    match &self.pending_churn[at] {
                        ChurnOp::Register { tenant: t, .. } if *t != tenant => {
                            return Err(ServeError::NotOwner { tenant, query });
                        }
                        _ => {}
                    }
                    self.pending_churn.remove(at);
                    break 'outcome ChurnOutcome::Cancelled;
                }
                Some(t) if *t != tenant => {
                    return Err(ServeError::NotOwner { tenant, query });
                }
                Some(_) => {}
            }
            if self.queue.pressure() >= DEGRADE_WATERMARK {
                self.pending_churn
                    .push_back(ChurnOp::Deregister { tenant, query });
                break 'outcome ChurnOutcome::Deferred;
            }
            self.apply_deregister(tenant, query)?
        };
        if self.journal.is_some() {
            let payload = format!(
                "tenant {} query {} outcome {}\n",
                tenant.0,
                query.0,
                churn_tag(&outcome)
            );
            self.journal_append("dereg", &payload)?;
        }
        Ok(outcome)
    }

    /// Position of a still-pending registration of `query`, if any.
    fn pending_register(&self, query: ProgId) -> Option<usize> {
        self.pending_churn.iter().position(|op| {
            matches!(op, ChurnOp::Register { program, .. } if program.id == query)
        })
    }

    fn apply_register(
        &mut self,
        tenant: TenantId,
        program: &Program,
    ) -> Result<ChurnOutcome, ServeError> {
        if self.owner.contains_key(&program.id.0) {
            // Re-checked here because deferred ops apply later.
            return Err(ServeError::DuplicateQuery(program.id));
        }
        let demoted = self.tenants.get(&tenant).is_some_and(|t| t.demoted);
        let outcome = if demoted {
            ChurnOutcome::AppliedSolo
        } else {
            let report = self
                .plan
                .add(
                    program,
                    &mut self.interner,
                    &self.cm,
                    &EnvCost(&self.env),
                    &self.config.consolidation,
                )?;
            self.note_delta(&report);
            ChurnOutcome::Applied(Box::new(report))
        };
        let state = self.tenants.entry(tenant).or_insert_with(TenantState::new);
        state.programs.push(program.clone());
        self.owner.insert(program.id.0, tenant);
        self.qs_dirty = true;
        // The old pre-filter was proved against the previous query set;
        // drop it now and let the next rebuild synthesize a fresh one.
        self.shared_prefilter = None;
        Ok(outcome)
    }

    fn apply_deregister(
        &mut self,
        tenant: TenantId,
        query: ProgId,
    ) -> Result<ChurnOutcome, ServeError> {
        match self.owner.get(&query.0) {
            None => return Err(ServeError::UnknownQuery(query)),
            Some(t) if *t != tenant => {
                return Err(ServeError::NotOwner { tenant, query });
            }
            Some(_) => {}
        }
        let outcome = if self.plan.contains(query) {
            let report = self.plan.remove(
                query,
                &self.interner,
                &self.cm,
                &EnvCost(&self.env),
                &self.config.consolidation,
            )?;
            self.note_delta(&report);
            ChurnOutcome::Applied(Box::new(report))
        } else {
            ChurnOutcome::AppliedSolo
        };
        if let Some(state) = self.tenants.get_mut(&tenant) {
            state.programs.retain(|p| p.id != query);
        }
        self.owner.remove(&query.0);
        self.qs_dirty = true;
        // The old pre-filter was proved against the previous query set;
        // drop it now and let the next rebuild synthesize a fresh one.
        self.shared_prefilter = None;
        Ok(outcome)
    }

    /// Books one delta operation on the shared plan.
    fn note_delta(&mut self, report: &DeltaReport) {
        self.config.recorder.add(names::SERVE_DELTA_RECONSOLIDATIONS, 1);
        self.delta_solver_checks += report.stats.solver.checks;
    }

    /// Removes `tenant`'s queries from the shared plan (delta removals) and
    /// drops every entailment-memo verdict their predicates touched. Only
    /// this tenant's artifacts are invalidated — other tenants keep their
    /// plans, verdicts, and tiers.
    fn demote_tenant(&mut self, tenant: TenantId) -> Result<(), ServeError> {
        let ids = match self.tenants.get(&tenant) {
            Some(t) if !t.demoted => t.query_ids(),
            _ => return Ok(()),
        };
        let mut memo_dropped = 0usize;
        for id in ids {
            if self.plan.contains(id) {
                let report = self.plan.remove(
                    id,
                    &self.interner,
                    &self.cm,
                    &EnvCost(&self.env),
                    &self.config.consolidation,
                )?;
                self.note_delta(&report);
            }
            memo_dropped += self.plan.memo().invalidate_query(id.0);
        }
        self.config
            .recorder
            .add(names::ENTAIL_MEMO_INVALIDATED, memo_dropped as u64);
        if let Some(state) = self.tenants.get_mut(&tenant) {
            state.demoted = true;
        }
        self.config.recorder.add(names::SERVE_TENANT_DEMOTIONS, 1);
        self.qs_dirty = true;
        // The old pre-filter was proved against the previous query set;
        // drop it now and let the next rebuild synthesize a fresh one.
        self.shared_prefilter = None;
        Ok(())
    }

    /// Engine for one run: per-record backend, default fuel, no plan cache.
    /// The quarantine ceiling is effectively unbounded: the service's own
    /// tenant budgets decide demotion, and a job abort would turn per-record
    /// faults into lost records.
    fn engine(&self, guard: GuardPolicy) -> Engine {
        Engine::new(self.config.workers).with_config(EngineConfig {
            error_policy: ErrorPolicy::Quarantine {
                max_errors: usize::MAX / 2,
            },
            max_retries: self.config.max_retries,
            guard,
            max_payload_samples: 0,
            recorder: self.config.recorder.clone(),
            ..EngineConfig::default()
        })
    }

    /// Rebuilds the shared query set from the plan when dirty. When
    /// `consolidation.prefilter` is on, a fresh pre-filter is synthesized
    /// and verified against the *current* plan (churn invalidated the old
    /// one); a rejected synthesis simply leaves the set unfiltered —
    /// fail-open.
    fn rebuild_shared(&mut self) -> Result<(), ServeError> {
        if !self.qs_dirty {
            return Ok(());
        }
        let programs = self.plan.programs();
        let merged = self.plan.program().cloned();
        self.shared_qs = match (programs.is_empty(), merged) {
            (false, Some(merged)) => {
                let fc = |f: Symbol| self.env.fn_cost(f);
                let mut qs = QuerySet::compile_many(&programs, &self.cm, &fc)?
                    .with_consolidated(&merged, &self.cm, &fc, Duration::ZERO)?;
                if self.config.consolidation.prefilter {
                    self.shared_prefilter = consolidate::prefilter::synthesize(
                        &programs,
                        &merged,
                        &self.interner,
                        &self.cm,
                        &EnvCost(&self.env),
                        &self.config.consolidation,
                    )
                    .ok();
                    if let Some(pf) = &self.shared_prefilter {
                        qs = qs.with_prefilter(&pf.cond, &merged, &self.cm, &fc)?;
                    }
                }
                Some(qs)
            }
            _ => None,
        };
        self.qs_dirty = false;
        Ok(())
    }

    /// The pre-filter protecting the current shared plan, if one survived
    /// synthesis for the *rebuilt* query set (`None` while churn is pending
    /// a rebuild, when the knob is off, or when every candidate was
    /// rejected).
    pub fn prefilter(&self) -> Option<&consolidate::Prefilter> {
        self.shared_prefilter.as_ref()
    }

    /// Compiles one tenant's programs for solo (sequential) execution.
    fn solo_queryset(&self, state: &TenantState) -> Result<QuerySet, ServeError> {
        let fc = |f: Symbol| self.env.fn_cost(f);
        Ok(QuerySet::compile_many(&state.programs, &self.cm, &fc)?)
    }

    /// Runs one tenant solo over `records`, merging counts and per-tenant
    /// quarantine into `out`.
    fn run_solo(
        &self,
        state: &TenantState,
        records: &[E::Rec],
        seqs: &[u64],
        out: &mut TenantEpochReport,
    ) -> Result<(), ServeError> {
        if state.programs.is_empty() {
            return Ok(());
        }
        let qs = self.solo_queryset(state)?;
        let engine = self.engine(GuardPolicy::default());
        let job = engine
            .run(&self.env, records, &qs, ExecMode::Many, false)
            .map_err(|e| ServeError::Engine(e.to_string()))?;
        for (idx, pid) in qs.query_ids.iter().enumerate() {
            *out.counts.entry(pid.0).or_insert(0) += job.counts[idx];
        }
        for entry in &job.quarantine.entries {
            out.quarantined.push(seqs[entry.record]);
        }
        Ok(())
    }

    /// Distributes a consolidated run's results per tenant. Quarantined
    /// records (the consolidated program evaluates all queries at once, so
    /// the engine cannot attribute them) are re-run per tenant solo: each
    /// tenant's outcome on those records then depends only on its own
    /// queries — one tenant's faulting UDF never erases another tenant's
    /// notifications.
    fn distribute_consolidated(
        &self,
        job: &JobReport,
        query_ids: &[ProgId],
        records: &[E::Rec],
        seqs: &[u64],
        out: &mut BTreeMap<TenantId, TenantEpochReport>,
    ) -> Result<(), ServeError> {
        for (idx, pid) in query_ids.iter().enumerate() {
            if let Some(t) = self.owner.get(&pid.0) {
                if let Some(rep) = out.get_mut(t) {
                    rep.counts.insert(pid.0, job.counts[idx]);
                }
            }
        }
        for rec in job.quarantine.records() {
            for (tenant, state) in &self.tenants {
                if state.demoted || state.programs.is_empty() {
                    continue; // demoted tenants run solo over the whole batch
                }
                if let Some(rep) = out.get_mut(tenant) {
                    self.run_solo(
                        state,
                        &records[rec..=rec],
                        &seqs[rec..=rec],
                        rep,
                    )?;
                }
            }
        }
        Ok(())
    }

    /// Maps a guard incident to the tenants whose UDFs caused it.
    ///
    /// Broadcast-side divergences name the query index directly. Fault-side
    /// divergences (one path quarantined) are attributed by re-running each
    /// tenant's queries solo on the divergent record: tenants whose own
    /// UDFs fault there are the culprits. An empty result means the
    /// incident could not be pinned on anyone — the caller then degrades
    /// the whole epoch to sequential execution instead of demoting blindly.
    fn attribute(
        &self,
        incident: &PlanIncident,
        records: &[E::Rec],
        query_ids: &[ProgId],
    ) -> BTreeSet<TenantId> {
        let mut culprits = BTreeSet::new();
        for m in &incident.examples {
            match (&m.consolidated, &m.sequential) {
                (GuardObservation::Notified(a), GuardObservation::Notified(b)) => {
                    for i in 0..a.len().min(b.len()) {
                        if a[i] != b[i] {
                            if let Some(pid) = query_ids.get(i) {
                                if let Some(t) = self.owner.get(&pid.0) {
                                    culprits.insert(*t);
                                }
                            }
                        }
                    }
                }
                _ => {
                    let Some(rec) = records.get(m.record) else {
                        continue;
                    };
                    for (tenant, state) in &self.tenants {
                        if state.demoted || state.programs.is_empty() {
                            continue;
                        }
                        let Ok(qs) = self.solo_queryset(state) else {
                            continue;
                        };
                        let engine = self.engine(GuardPolicy::default());
                        if let Ok(job) = engine.run(
                            &self.env,
                            std::slice::from_ref(rec),
                            &qs,
                            ExecMode::Many,
                            false,
                        ) {
                            if job.quarantine.records_quarantined > 0 {
                                culprits.insert(*tenant);
                            }
                        }
                    }
                }
            }
        }
        culprits
    }

    /// The epoch-start transition, shared by live epochs and journal replay
    /// so a recovered service re-derives exactly the state the original
    /// reached: advance the epoch counter, apply deferred churn when
    /// pressure is below the degrade watermark, shed expired batches when it
    /// is at the shed watermark, drain up to the epoch limit. A function of
    /// the service state alone; emits no metrics (the live path reports
    /// from what this returns, recovery counts nothing).
    fn begin_epoch(&mut self) -> EpochStart<E::Rec> {
        self.epoch += 1;
        let pressure = self.queue.pressure();
        let mut start = EpochStart {
            pressure,
            applied_churn: 0,
            deferred_churn: 0,
            churn_errors: Vec::new(),
            shed: Vec::new(),
            drained: Vec::new(),
        };
        if pressure < DEGRADE_WATERMARK {
            while let Some(op) = self.pending_churn.pop_front() {
                let (tenant, result) = match op {
                    ChurnOp::Register { tenant, program } => {
                        (tenant, self.apply_register(tenant, &program).map(|_| ()))
                    }
                    ChurnOp::Deregister { tenant, query } => {
                        (tenant, self.apply_deregister(tenant, query).map(|_| ()))
                    }
                };
                match result {
                    Ok(()) => start.applied_churn += 1,
                    Err(e) => start.churn_errors.push((tenant, e)),
                }
            }
        } else {
            start.deferred_churn = self.pending_churn.len();
        }
        if pressure >= SHED_WATERMARK {
            for (shed, _records) in self
                .queue
                .shed_expired(self.epoch, self.config.deadline_epochs)
            {
                self.counters.shed += shed.records as u64;
                start.shed.push(shed);
            }
        }
        start.drained = self.queue.drain_up_to(self.config.epoch_batch_limit);
        start
    }

    /// Executes one epoch: apply (or defer) churn, shed expired batches
    /// under pressure, drain up to the epoch limit, and run the drained
    /// records — consolidated when calm, per-tenant sequential when
    /// pressured or when the shared plan cannot be trusted this epoch.
    ///
    /// # Errors
    ///
    /// Propagates compile/engine failures; per-record faults and guard
    /// trips are absorbed (quarantine accounting, tenant demotion) rather
    /// than erroring.
    pub fn run_epoch(&mut self) -> Result<EpochReport, ServeError> {
        self.check_poisoned()?;
        let start = self.begin_epoch();
        self.config.recorder.add(names::SERVE_EPOCHS, 1);
        for shed in &start.shed {
            let records = shed.records as u64;
            self.config.recorder.add(names::SERVE_SHED, records);
        }
        let pressure = start.pressure;
        let mut report = EpochReport {
            epoch: self.epoch,
            mode: EpochMode::Idle,
            processed: 0,
            shed: start.shed,
            applied_churn: start.applied_churn,
            deferred_churn: start.deferred_churn,
            churn_errors: start.churn_errors,
            demoted: Vec::new(),
            tenants: BTreeMap::new(),
            queued_after: 0,
            plan_tier: self.plan.tier(),
            output_digest: 0,
        };
        let mut records: Vec<E::Rec> = Vec::new();
        let mut seqs: Vec<u64> = Vec::new();
        for b in start.drained {
            let start = b.start_seq;
            for (i, r) in b.records.into_iter().enumerate() {
                seqs.push(start + i as u64);
                records.push(r);
            }
        }
        if records.is_empty() {
            report.queued_after = self.queue.queued_records();
            report.plan_tier = self.plan.tier();
            self.commit_epoch(&mut report)?;
            return Ok(report);
        }
        // Seed every owning tenant's report with zeroed counts so the shape
        // is identical whichever path fills it.
        for (tenant, state) in &self.tenants {
            if state.programs.is_empty() {
                continue;
            }
            let mut rep = TenantEpochReport {
                solo: state.demoted,
                ..TenantEpochReport::default()
            };
            for p in &state.programs {
                rep.counts.insert(p.id.0, 0);
            }
            report.tenants.insert(*tenant, rep);
        }
        let mut sequential_epoch = pressure >= DEGRADE_WATERMARK;
        let mut consolidated_ran = false;
        if !sequential_epoch {
            // Consolidated attempt loop: a guard trip demotes the culprit
            // tenants and retries with the reduced plan. Bounded by the
            // tenant count; an unattributable trip degrades the epoch.
            loop {
                if self.plan.is_empty() {
                    break;
                }
                self.rebuild_shared()?;
                let Some(query_ids) = self.shared_qs.as_ref().map(|q| q.query_ids.clone())
                else {
                    break;
                };
                let engine = self.engine(EPOCH_GUARD);
                let outcome = {
                    let Some(qs) = self.shared_qs.as_ref() else {
                        break;
                    };
                    engine.run(&self.env, &records, qs, ExecMode::Consolidated, false)
                };
                match outcome {
                    Ok(job) => {
                        self.distribute_consolidated(
                            &job,
                            &query_ids,
                            &records,
                            &seqs,
                            &mut report.tenants,
                        )?;
                        consolidated_ran = true;
                        break;
                    }
                    Err(EngineError::GuardTripped { incident }) => {
                        let culprits = self.attribute(&incident, &records, &query_ids);
                        if culprits.is_empty() {
                            sequential_epoch = true;
                            break;
                        }
                        for t in culprits {
                            self.demote_tenant(t)?;
                            report.demoted.push(t);
                            if let Some(rep) = report.tenants.get_mut(&t) {
                                rep.solo = true;
                            }
                        }
                    }
                    Err(e) => {
                        // Fail-soft: fall back to the reference semantics
                        // rather than losing the epoch's records.
                        report
                            .churn_errors
                            .push((TenantId(u32::MAX), ServeError::Engine(e.to_string())));
                        sequential_epoch = true;
                        break;
                    }
                }
            }
        }
        // Solo passes: demoted tenants always; every tenant when the epoch
        // degraded to sequential.
        for (tenant, state) in &self.tenants {
            if state.programs.is_empty() {
                continue;
            }
            let in_shared = !state.demoted && consolidated_ran;
            if in_shared && !sequential_epoch {
                continue;
            }
            if let Some(rep) = report.tenants.get_mut(tenant) {
                rep.solo = true;
                self.run_solo(state, &records, &seqs, rep)?;
            }
        }
        // Tenant quarantine budgets: demote over-budget tenants so the next
        // epoch's shared plan excludes them.
        let mut over_budget: Vec<TenantId> = Vec::new();
        for (tenant, rep) in &mut report.tenants {
            rep.quarantined.sort_unstable();
            rep.quarantined.dedup();
            if let Some(state) = self.tenants.get_mut(tenant) {
                state.quarantined_records += rep.quarantined.len() as u64;
                if !state.demoted
                    && state.quarantined_records > self.config.tenant_quarantine_budget
                {
                    over_budget.push(*tenant);
                }
            }
        }
        for t in over_budget {
            self.demote_tenant(t)?;
            report.demoted.push(t);
        }
        report.mode = if consolidated_ran && !sequential_epoch {
            EpochMode::Consolidated
        } else {
            EpochMode::Sequential
        };
        report.processed = records.len();
        self.counters.processed += records.len() as u64;
        self.config
            .recorder
            .add(names::SERVE_PROCESSED, records.len() as u64);
        report.queued_after = self.queue.queued_records();
        report.plan_tier = self.plan.tier();
        self.commit_epoch(&mut report)?;
        Ok(report)
    }

    /// Seals one epoch: stamp the output digest, enforce the
    /// zero-silent-drop invariant (in release builds too — drift must
    /// never be journaled as truth), append the commit frame, and compact
    /// the journal when due.
    fn commit_epoch(&mut self, report: &mut EpochReport) -> Result<(), ServeError> {
        report.output_digest = epoch_digest(report);
        let acc = self.accounting();
        if !acc.balanced() {
            return Err(ServeError::AccountingDrift(acc));
        }
        if self.journal.is_some() {
            let mut payload = format!(
                "epoch {} mode {} processed {} applied {} errors {} digest {:016x}\n",
                report.epoch,
                mode_tag(report.mode),
                report.processed,
                report.applied_churn,
                report.churn_errors.len(),
                report.output_digest
            );
            for t in &report.demoted {
                let _ = writeln!(payload, "demote {}", t.0);
            }
            for (t, rep) in &report.tenants {
                if !rep.quarantined.is_empty() {
                    let _ = writeln!(payload, "tq {} {}", t.0, rep.quarantined.len());
                }
            }
            self.journal_append("epoch", &payload)?;
            let due = self
                .journal
                .as_ref()
                .is_some_and(|j| j.appends_since_checkpoint() >= self.config.journal_checkpoint_every);
            if due {
                self.checkpoint()?;
            }
        }
        Ok(())
    }

    /// Fails every call once the journal has failed: the in-memory state
    /// may be ahead of the durable state, so the instance must be treated
    /// as dead and rebuilt with [`Service::recover`].
    fn check_poisoned(&self) -> Result<(), ServeError> {
        if self.poisoned {
            Err(ServeError::Poisoned)
        } else {
            Ok(())
        }
    }

    fn journal_append(&mut self, kind: &str, payload: &str) -> Result<(), ServeError> {
        let Some(j) = self.journal.as_mut() else {
            return Ok(());
        };
        match j.append(kind, payload) {
            Ok(_) => Ok(()),
            Err(e) => {
                self.poisoned = true;
                Err(ServeError::Journal(e))
            }
        }
    }

    /// Forces a checkpoint compaction now (journaled services only): the
    /// full service state is published atomically and the journal is
    /// truncated back to its header.
    ///
    /// # Errors
    ///
    /// [`ServeError::Journal`] on failure; the service is then poisoned.
    pub fn checkpoint(&mut self) -> Result<(), ServeError> {
        self.check_poisoned()?;
        if self.journal.is_none() {
            return Ok(());
        }
        let payload = self.checkpoint_payload();
        let Some(j) = self.journal.as_mut() else {
            return Ok(());
        };
        match j.checkpoint(&payload) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.poisoned = true;
                Err(ServeError::Journal(e))
            }
        }
    }

    /// Sequence number the next journal frame will carry — the count of
    /// durably acknowledged frames (monotone across truncations), or
    /// `None` for non-journaled services. Chaos harnesses use this to
    /// probe whether a crashed operation's frame landed.
    pub fn journal_seq(&self) -> Option<u64> {
        self.journal.as_ref().map(Journal::next_seq)
    }

    /// Whether a journal failure has poisoned this instance.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Renders the full-state checkpoint payload: epoch, counters, queue
    /// contents, tenants (programs as [`plan_cache::write_program`] text),
    /// pending churn, and the shared plan's tree ([`DeltaPlan::export`]):
    /// one `plan <cap> <renames>` line, the `free` list in order, a `leaf
    /// <slot> <renamed program>` per live leaf and a `node <index> <tier>
    /// <merged program>` per internal node with two live children. A leaf's
    /// program as registered is not repeated: it is its tenant's `prog`
    /// line with the same id.
    fn checkpoint_payload(&self) -> String {
        let enc = self.journal.as_ref().expect("journaled").encode;
        let mut p = String::new();
        let _ = writeln!(p, "epoch {}", self.epoch);
        let _ = writeln!(
            p,
            "counters {} {} {} {}",
            self.counters.admitted, self.counters.rejected, self.counters.shed,
            self.counters.processed
        );
        let _ = writeln!(p, "queue {} {}", self.queue.next_batch(), self.queue.next_seq());
        for b in self.queue.batches() {
            let _ = writeln!(
                p,
                "batch {} {} {} {}",
                b.id,
                b.submitted_epoch,
                b.start_seq,
                b.records.len()
            );
            for r in &b.records {
                let _ = writeln!(p, "rec {}", enc(r));
            }
        }
        for (id, st) in &self.tenants {
            let _ = writeln!(
                p,
                "tenant {} {} {} {}",
                id.0,
                u8::from(st.demoted),
                st.quarantined_records,
                st.programs.len()
            );
            for prog in &st.programs {
                let _ = writeln!(p, "prog {}", write_program(prog, None, &self.interner));
            }
        }
        for op in &self.pending_churn {
            match op {
                ChurnOp::Register { tenant, program } => {
                    let _ = writeln!(
                        p,
                        "pend reg {} {}",
                        tenant.0,
                        write_program(program, None, &self.interner)
                    );
                }
                ChurnOp::Deregister { tenant, query } => {
                    let _ = writeln!(p, "pend dereg {} {}", tenant.0, query.0);
                }
            }
        }
        let plan = self.plan.export();
        let _ = writeln!(p, "plan {} {}", plan.cap, plan.renames);
        p.push_str("free");
        for slot in &plan.free {
            let _ = write!(p, " {slot}");
        }
        p.push('\n');
        for leaf in &plan.leaves {
            let renamed = write_program(&leaf.renamed, None, &self.interner);
            let _ = writeln!(p, "leaf {} {renamed}", leaf.slot);
        }
        for node in &plan.nodes {
            let merged = write_program(&node.program, None, &self.interner);
            let _ = writeln!(p, "node {} {} {merged}", node.index, node.tier.as_str());
        }
        p
    }

    /// Restores checkpointed state into a fresh service (inverse of
    /// [`Service::checkpoint_payload`]) and returns how many plan-tree
    /// nodes (leaves and stored merges) it installed. The plan is installed
    /// as written — no delta operation, no solver — so the frame checksum is
    /// not what vouches for it: every plan leaf must be a query of a tenant
    /// that is not demoted and every such query a leaf, and
    /// [`DeltaPlan::restore`] checks the tree against itself. Any violation
    /// is an error and [`Service::recover`] then returns no service at all.
    fn restore_checkpoint(&mut self, payload: &str) -> Result<u64, String>
    where
        E::Rec: JournalRec,
    {
        let mut shape: Option<(usize, u64)> = None;
        let mut free: Vec<usize> = Vec::new();
        let mut renamed_leaves: Vec<(usize, Program)> = Vec::new();
        let mut nodes: Vec<NodeImage> = Vec::new();
        let mut lines = payload.lines().peekable();
        while let Some(line) = lines.next() {
            let mut words = line.split_ascii_whitespace();
            match words.next() {
                Some("epoch") => {
                    self.epoch = parse_field(words.next(), "epoch")?;
                }
                Some("counters") => {
                    self.counters.admitted = parse_field(words.next(), "admitted")?;
                    self.counters.rejected = parse_field(words.next(), "rejected")?;
                    self.counters.shed = parse_field(words.next(), "shed")?;
                    self.counters.processed = parse_field(words.next(), "processed")?;
                }
                Some("queue") => {
                    let next_batch = parse_field(words.next(), "next_batch")?;
                    let next_seq = parse_field(words.next(), "next_seq")?;
                    self.queue.set_counters(next_batch, next_seq);
                }
                Some("batch") => {
                    let id = parse_field(words.next(), "batch id")?;
                    let submitted_epoch = parse_field(words.next(), "batch epoch")?;
                    let start_seq = parse_field(words.next(), "batch seq")?;
                    let n: usize = parse_field(words.next(), "batch n")?;
                    let mut records = Vec::with_capacity(n);
                    for _ in 0..n {
                        let rec_line = lines.next().ok_or("batch records truncated")?;
                        records.push(parse_rec::<E::Rec>(rec_line)?);
                    }
                    self.queue.restore_batch(PendingBatch {
                        id,
                        submitted_epoch,
                        start_seq,
                        records,
                    });
                }
                Some("tenant") => {
                    let id: u32 = parse_field(words.next(), "tenant id")?;
                    let demoted: u8 = parse_field(words.next(), "tenant demoted")?;
                    let quarantined: u64 = parse_field(words.next(), "tenant tq")?;
                    let nprogs: usize = parse_field(words.next(), "tenant nprogs")?;
                    let mut programs = Vec::with_capacity(nprogs);
                    for _ in 0..nprogs {
                        let prog_line = lines.next().ok_or("tenant programs truncated")?;
                        let src = prog_line
                            .strip_prefix("prog ")
                            .ok_or("expected prog line")?;
                        let prog = read_program(src, &mut self.interner)?.0;
                        self.owner.insert(prog.id.0, TenantId(id));
                        programs.push(prog);
                    }
                    self.tenants.insert(
                        TenantId(id),
                        TenantState {
                            programs,
                            demoted: demoted != 0,
                            quarantined_records: quarantined,
                        },
                    );
                }
                Some("pend") => match words.next() {
                    Some("reg") => {
                        let tenant: u32 = parse_field(words.next(), "pend tenant")?;
                        let program = read_program(rest_after(line, 3)?, &mut self.interner)?.0;
                        self.pending_churn.push_back(ChurnOp::Register {
                            tenant: TenantId(tenant),
                            program,
                        });
                    }
                    Some("dereg") => {
                        let tenant: u32 = parse_field(words.next(), "pend tenant")?;
                        let query: u32 = parse_field(words.next(), "pend query")?;
                        self.pending_churn.push_back(ChurnOp::Deregister {
                            tenant: TenantId(tenant),
                            query: ProgId(query),
                        });
                    }
                    _ => return Err(format!("bad pend line {line:?}")),
                },
                Some("plan") => {
                    let cap = parse_field(words.next(), "plan cap")?;
                    shape = Some((cap, parse_field(words.next(), "plan renames")?));
                }
                Some("free") => {
                    free = words
                        .map(|w| parse_field(Some(w), "free slot"))
                        .collect::<Result<_, _>>()?;
                }
                Some("leaf") => {
                    let slot = parse_field(words.next(), "leaf slot")?;
                    let renamed = read_program(rest_after(line, 2)?, &mut self.interner)?.0;
                    renamed_leaves.push((slot, renamed));
                }
                Some("node") => {
                    let index = parse_field(words.next(), "node index")?;
                    let tier = parse_field(words.next(), "node tier")?;
                    let program = read_program(rest_after(line, 3)?, &mut self.interner)?.0;
                    nodes.push(NodeImage { index, program, tier });
                }
                _ => return Err(format!("unrecognized checkpoint line {line:?}")),
            }
        }
        let (cap, renames) = shape.ok_or("checkpoint carries no plan line")?;
        let shared = |id: ProgId| {
            let tenant = self.tenants.get(self.owner.get(&id.0)?)?;
            let program = tenant.programs.iter().find(|p| p.id == id)?;
            (!tenant.demoted).then(|| program.clone())
        };
        let leaves = renamed_leaves
            .into_iter()
            .map(|(slot, renamed)| match shared(renamed.id) {
                Some(original) => Ok(LeafImage { slot, original, renamed }),
                None => Err(format!(
                    "plan leaf {} is not a query of any tenant in the shared plan",
                    renamed.id.0
                )),
            })
            .collect::<Result<Vec<_>, String>>()?;
        let undemoted = self.tenants.values().filter(|t| !t.demoted);
        let queries: usize = undemoted.map(|t| t.programs.len()).sum();
        if queries != leaves.len() {
            return Err(format!(
                "{queries} queries belong in the shared plan but it has {} leaves",
                leaves.len()
            ));
        }
        let installed = (leaves.len() + nodes.len()) as u64;
        let image = PlanImage { cap, renames, free, leaves, nodes };
        self.plan = DeltaPlan::restore(image).map_err(|e| e.to_string())?;
        self.qs_dirty = true;
        Ok(installed)
    }

    /// Replays one journal frame into service state. Deterministic parts
    /// (admission arithmetic, churn application, epoch-start drains) are
    /// re-derived; engine-dependent effects come from the frame. Records
    /// are never re-executed.
    fn replay_frame(
        &mut self,
        frame: &journal::LoadedFrame,
        report: &mut RecoveryReport,
    ) -> Result<(), String>
    where
        E::Rec: JournalRec,
    {
        match frame.kind.as_str() {
            "sub" => {
                let mut lines = frame.payload.lines();
                let head = lines.next().ok_or("empty sub frame")?;
                let mut words = head.split_ascii_whitespace();
                expect_word(&mut words, "batch")?;
                let id = parse_field(words.next(), "batch id")?;
                expect_word(&mut words, "epoch")?;
                let submitted_epoch = parse_field(words.next(), "batch epoch")?;
                expect_word(&mut words, "seq")?;
                let start_seq = parse_field(words.next(), "batch seq")?;
                expect_word(&mut words, "n")?;
                let n: usize = parse_field(words.next(), "batch n")?;
                let mut records = Vec::with_capacity(n);
                for _ in 0..n {
                    let rec_line = lines.next().ok_or("sub frame records truncated")?;
                    records.push(parse_rec::<E::Rec>(rec_line)?);
                }
                self.counters.admitted += n as u64;
                self.queue.restore_batch(PendingBatch {
                    id,
                    submitted_epoch,
                    start_seq,
                    records,
                });
                Ok(())
            }
            "rej" => {
                let mut words = frame.payload.split_ascii_whitespace();
                expect_word(&mut words, "n")?;
                let n: u64 = parse_field(words.next(), "rejected n")?;
                self.counters.rejected += n;
                Ok(())
            }
            "reg" => {
                let mut lines = frame.payload.lines();
                let head = lines.next().ok_or("empty reg frame")?;
                let mut words = head.split_ascii_whitespace();
                expect_word(&mut words, "tenant")?;
                let tenant = TenantId(parse_field(words.next(), "tenant")?);
                expect_word(&mut words, "outcome")?;
                let tag = words.next().ok_or("reg frame missing outcome")?;
                let src = lines.next().ok_or("reg frame missing program")?;
                let program = read_program(src, &mut self.interner)?.0;
                match tag {
                    "deferred" => {
                        self.pending_churn.push_back(ChurnOp::Register { tenant, program });
                        Ok(())
                    }
                    "applied" | "solo" => self
                        .apply_register(tenant, &program)
                        .map(|_| ())
                        .map_err(|e| format!("reg replay: {e}")),
                    other => Err(format!("bad reg outcome {other:?}")),
                }
            }
            "dereg" => {
                let head = frame.payload.lines().next().ok_or("empty dereg frame")?;
                let mut words = head.split_ascii_whitespace();
                expect_word(&mut words, "tenant")?;
                let tenant = TenantId(parse_field(words.next(), "tenant")?);
                expect_word(&mut words, "query")?;
                let query = ProgId(parse_field(words.next(), "query")?);
                expect_word(&mut words, "outcome")?;
                let tag = words.next().ok_or("dereg frame missing outcome")?;
                match tag {
                    "cancelled" => {
                        let at = self
                            .pending_register(query)
                            .ok_or("cancelled dereg has no pending registration")?;
                        self.pending_churn.remove(at);
                        Ok(())
                    }
                    "deferred" => {
                        self.pending_churn.push_back(ChurnOp::Deregister { tenant, query });
                        Ok(())
                    }
                    "applied" | "solo" => self
                        .apply_deregister(tenant, query)
                        .map(|_| ())
                        .map_err(|e| format!("dereg replay: {e}")),
                    other => Err(format!("bad dereg outcome {other:?}")),
                }
            }
            "epoch" => {
                let (epoch, digest) = self.replay_epoch(&frame.payload)?;
                report.replayed_epoch_digests.push((epoch, digest));
                Ok(())
            }
            other => Err(format!("unknown frame kind {other:?}")),
        }
    }

    /// Replays one committed epoch without re-executing any record: the
    /// deterministic epoch-start transitions (churn drain, deadline shed,
    /// batch drain) are recomputed from the reconstructed queue, and the
    /// engine-dependent effects (demotions, quarantine deltas) are applied
    /// from the commit frame. Cross-checks the drained record count
    /// against the journaled one.
    fn replay_epoch(&mut self, payload: &str) -> Result<(u64, u64), String> {
        let mut lines = payload.lines();
        let head = lines.next().ok_or("empty epoch frame")?;
        let mut words = head.split_ascii_whitespace();
        expect_word(&mut words, "epoch")?;
        let epoch: u64 = parse_field(words.next(), "epoch")?;
        expect_word(&mut words, "mode")?;
        let _mode = words.next().ok_or("epoch frame missing mode")?;
        expect_word(&mut words, "processed")?;
        let processed: usize = parse_field(words.next(), "processed")?;
        expect_word(&mut words, "applied")?;
        let _applied: usize = parse_field(words.next(), "applied")?;
        expect_word(&mut words, "errors")?;
        let _errors: usize = parse_field(words.next(), "errors")?;
        expect_word(&mut words, "digest")?;
        let digest = u64::from_str_radix(words.next().ok_or("epoch frame missing digest")?, 16)
            .map_err(|_| "bad epoch digest".to_owned())?;
        if self.epoch + 1 != epoch {
            return Err(format!(
                "epoch frame {epoch} replayed at service epoch {}",
                self.epoch + 1
            ));
        }
        // The same transition the original epoch made; its churn errors
        // reproduce identically and were report-only.
        let start = self.begin_epoch();
        let drained: usize = start.drained.iter().map(|b| b.records.len()).sum();
        if drained != processed {
            return Err(format!(
                "epoch {epoch} drained {drained} records on replay but journaled {processed}"
            ));
        }
        self.counters.processed += processed as u64;
        for line in lines {
            let mut words = line.split_ascii_whitespace();
            match words.next() {
                Some("demote") => {
                    let t: u32 = parse_field(words.next(), "demote tenant")?;
                    self.demote_tenant(TenantId(t))
                        .map_err(|e| format!("demote replay: {e}"))?;
                }
                Some("tq") => {
                    let t: u32 = parse_field(words.next(), "tq tenant")?;
                    let delta: u64 = parse_field(words.next(), "tq delta")?;
                    let state = self
                        .tenants
                        .get_mut(&TenantId(t))
                        .ok_or("tq for unknown tenant")?;
                    state.quarantined_records += delta;
                }
                other => return Err(format!("bad epoch effect line {other:?}")),
            }
        }
        Ok((epoch, digest))
    }
}

/// Wire tag for a churn outcome in journal frames.
fn churn_tag(outcome: &ChurnOutcome) -> &'static str {
    match outcome {
        ChurnOutcome::Applied(_) => "applied",
        ChurnOutcome::AppliedSolo => "solo",
        ChurnOutcome::Deferred => "deferred",
        ChurnOutcome::Cancelled => "cancelled",
    }
}

/// Wire tag for an epoch mode in journal frames.
fn mode_tag(mode: EpochMode) -> &'static str {
    match mode {
        EpochMode::Idle => "idle",
        EpochMode::Consolidated => "cons",
        EpochMode::Sequential => "seq",
    }
}

/// FNV-64 digest of an epoch's observable effects (see
/// [`EpochReport::output_digest`]).
fn epoch_digest(report: &EpochReport) -> u64 {
    let mut h = naiad_lite::digest::Fnv64::new();
    h.u64(report.epoch);
    h.u64(match report.mode {
        EpochMode::Idle => 0,
        EpochMode::Consolidated => 1,
        EpochMode::Sequential => 2,
    });
    h.u64(report.processed as u64);
    h.u64(report.applied_churn as u64);
    h.u64(report.churn_errors.len() as u64);
    for s in &report.shed {
        h.u64(s.batch);
        h.u64(s.records as u64);
        h.u64(s.waited_epochs);
    }
    for t in &report.demoted {
        h.u64(u64::from(t.0));
    }
    for (t, rep) in &report.tenants {
        h.u64(u64::from(t.0));
        h.u64(u64::from(rep.solo));
        for (q, c) in &rep.counts {
            h.u64(u64::from(*q));
            h.u64(*c);
        }
        for &s in &rep.quarantined {
            h.u64(s);
        }
    }
    h.finish()
}

/// Parses one whitespace-delimited field, naming it in the error.
fn parse_field<T: std::str::FromStr>(word: Option<&str>, what: &str) -> Result<T, String> {
    word.ok_or_else(|| format!("missing {what}"))?
        .parse()
        .map_err(|_| format!("bad {what}"))
}

/// The rest of a checkpoint line after its first `fields` single-space-
/// separated words — a program's wire text, exactly as it was written.
fn rest_after(line: &str, fields: usize) -> Result<&str, String> {
    line.splitn(fields + 1, ' ')
        .nth(fields)
        .ok_or_else(|| format!("line {line:?} ends before its program"))
}

/// Consumes one expected literal word from a frame line.
fn expect_word(
    words: &mut std::str::SplitAsciiWhitespace<'_>,
    expected: &str,
) -> Result<(), String> {
    match words.next() {
        Some(w) if w == expected => Ok(()),
        other => Err(format!("expected {expected:?}, got {other:?}")),
    }
}

/// Decodes one `rec <payload>` line back into a record.
fn parse_rec<R: JournalRec>(line: &str) -> Result<R, String> {
    let src = line.strip_prefix("rec").ok_or("expected rec line")?;
    R::decode_rec(src.strip_prefix(' ').unwrap_or(src))
}

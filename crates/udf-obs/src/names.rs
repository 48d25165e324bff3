//! The canonical registry of metric names emitted by the workspace.
//!
//! Every instrumented crate takes its metric names from here so that the
//! documented surface (`OBSERVABILITY.md`), the emission sites, and any
//! downstream consumer agree on spelling. Counters are dimensionless event
//! counts; histogram metrics end in a unit suffix (`_ns` = nanoseconds).

// ---- udf-smt: solver layer ------------------------------------------------

/// Counter: top-level solver satisfiability checks (`Solver::check*`).
pub const SMT_CHECKS: &str = "smt.checks";
/// Counter: theory final-checks over full propositional models.
pub const SMT_THEORY_CHECKS: &str = "smt.theory_checks";
/// Counter: theory conflicts that produced a blocking clause.
pub const SMT_THEORY_CONFLICTS: &str = "smt.theory_conflicts";
/// Counter: literals greedy deletion removed from confirmed candidate cores
/// (the gap between what the theories blamed and what was needed).
pub const SMT_MINIMIZED_LITERALS: &str = "smt.minimized_literals";
/// Counter: literals in learned blocking clauses; over
/// `smt.theory_conflicts` this is the mean core length.
pub const SMT_CORE_LITERALS: &str = "smt.core_literals";
/// Counter: candidate cores the theory did not refute on their own, so the
/// full assignment was blocked instead.
pub const SMT_CORE_FALLBACKS: &str = "smt.core_fallbacks";
/// Counter: checks that ended `Unknown` (budget, overflow, or injected).
pub const SMT_UNKNOWN: &str = "smt.unknown";
/// Counter: CDCL decisions across all SAT searches.
pub const SMT_SAT_DECISIONS: &str = "smt.sat.decisions";
/// Counter: CDCL conflicts across all SAT searches.
pub const SMT_SAT_CONFLICTS: &str = "smt.sat.conflicts";
/// Counter: unit propagations across all SAT searches.
pub const SMT_SAT_PROPAGATIONS: &str = "smt.sat.propagations";
/// Counter: simplex pivot operations (rational feasibility restoration),
/// summed over every branch-and-bound node and Nelson–Oppen probe.
pub const SMT_SIMPLEX_PIVOTS: &str = "smt.simplex.pivots";
/// Counter: Nelson–Oppen equality-exchange rounds executed.
pub const SMT_THEORY_ROUNDS: &str = "smt.theory.rounds";
/// Histogram (ns): wall-clock latency of one `Solver::check*` call.
pub const SMT_CHECK_NS: &str = "smt.check_ns";
/// Histogram (ns): Tseitin CNF conversion, once per non-trivial check.
pub const SMT_CNF_NS: &str = "smt.cnf_ns";
/// Histogram (ns): one boolean search (`SatSolver::solve`), first or resumed.
pub const SMT_SAT_NS: &str = "smt.sat_ns";
/// Histogram (ns): one theory final-check over a full propositional model.
pub const SMT_THEORY_NS: &str = "smt.theory_ns";
/// Histogram (ns): confirming and shrinking one conflict's candidate core
/// (theory checks over subsets), once per theory conflict.
pub const SMT_MINIMIZE_NS: &str = "smt.minimize_ns";

// ---- consolidate: rule engine ---------------------------------------------

/// Counter: Com rule — operands commuted to expose a reducible head.
pub const RULE_COM: &str = "consolidate.rule.com";
/// Counter: Skip rule — a fully-consumed side dropped.
pub const RULE_SKIP: &str = "consolidate.rule.skip";
/// Counter: Assign rule — assignment absorbed into the context.
pub const RULE_ASSIGN: &str = "consolidate.rule.assign";
/// Counter: Step rule — a `notify` stepped over into the context.
pub const RULE_STEP: &str = "consolidate.rule.step";
/// Counter: Seq rule — a sequence head split off for consolidation.
pub const RULE_SEQ: &str = "consolidate.rule.seq";
/// Counter: If1 — conditional eliminated because the guard is implied true.
pub const RULE_IF1: &str = "consolidate.rule.if1";
/// Counter: If2 — conditional eliminated because the guard is implied false.
pub const RULE_IF2: &str = "consolidate.rule.if2";
/// Counter: If3 — both branches consolidated against the other program.
pub const RULE_IF3: &str = "consolidate.rule.if3";
/// Counter: If4 — other program embedded into the conditional's branches.
pub const RULE_IF4: &str = "consolidate.rule.if4";
/// Counter: If5 — conditional emitted as-is, consolidation continues after.
pub const RULE_IF5: &str = "consolidate.rule.if5";
/// Counter: Loop1 — a single remaining loop self-simplified against the
/// context.
pub const RULE_LOOP1: &str = "consolidate.rule.loop1";
/// Counter: Loop2 — loop pair fused (trip counts proved equal).
pub const RULE_LOOP2: &str = "consolidate.rule.loop2";
/// Counter: Loop3 — loop pair fused with residual loop (trip counts ordered).
pub const RULE_LOOP3: &str = "consolidate.rule.loop3";
/// Counter: loop pair emitted sequentially (fusion premises not proved).
pub const RULE_LOOP_SEQ: &str = "consolidate.rule.loop_seq";
/// Counter: recursion-depth cap hit; remainder emitted sequentially.
pub const RULE_DEPTH_FALLBACK: &str = "consolidate.rule.depth_fallback";
/// Counter: consolidation budget exhausted; remainder emitted sequentially.
pub const RULE_BUDGET_FALLBACK: &str = "consolidate.rule.budget_fallback";

/// Counter: entailment queries asked of the symbolic context (`Ψ ⊨ φ`).
pub const ENTAIL_QUERIES: &str = "consolidate.entail.queries";
/// Counter: entailment queries answered by the cross-pair memo.
pub const ENTAIL_MEMO_HITS: &str = "consolidate.entail.memo_hits";
/// Counter: entailment queries answered by the per-pair validity cache.
pub const ENTAIL_CACHE_HITS: &str = "consolidate.entail.cache_hits";
/// Counter: entailment queries answered "not valid" by a kept countermodel
/// that evaluates `Ψ` true and `φ` false — no solver call, no budget charge.
pub const ENTAIL_COUNTERMODEL_HITS: &str = "consolidate.entail.countermodel_hits";
/// Counter: solver `Sat` models refused by the countermodel pool because
/// their own query does not evaluate true under them — `Sat` answers that
/// hold only in the solver's abstraction (opaque products, an application
/// table that is not a function).
pub const ENTAIL_COUNTERMODEL_REJECTED: &str = "consolidate.entail.countermodel_rejected";
/// Histogram (ns): time one entailment query spent evaluating formulas
/// under kept countermodels (pool look-up on every solver-bound query,
/// admission check after a `Sat`).
pub const ENTAIL_COUNTERMODEL_NS: &str = "consolidate.entail.countermodel_ns";
/// Histogram (ns): wall-clock latency of one entailment query (all paths:
/// syntactic, cached, memoized, countermodel, solver).
pub const ENTAIL_NS: &str = "consolidate.entail_ns";
/// Counter: cross-simplification hits — a model-guided rewrite (Fig. 3)
/// confirmed by the solver and applied.
pub const SIMPLIFY_HITS: &str = "consolidate.simplify.hits";
/// Counter: program pairs consolidated (one per Ω run).
pub const PAIRS: &str = "consolidate.pairs";
/// Counter: pairs that degraded to a sequential merge (budget/panic).
pub const PAIRS_DEGRADED: &str = "consolidate.pairs_degraded";
/// Histogram: cumulative budget queries charged, observed at the end of each
/// pair — the budget consumption timeline across a `consolidate_many` run.
pub const BUDGET_QUERIES: &str = "consolidate.budget.queries_charged";
/// Histogram (ns): wall-clock latency of one pair consolidation.
pub const PAIR_NS: &str = "consolidate.pair_ns";

// ---- naiad-lite / plan-cache: execution layer -----------------------------

/// Counter: records evaluated by the engine (per mode invocation).
pub const ENGINE_RECORDS: &str = "engine.records";
/// Histogram (ns): per-record UDF evaluation latency (all queries on that
/// record, one mode). Only collected when the recorder is enabled.
pub const ENGINE_RECORD_NS: &str = "engine.record_ns";
/// Counter: records quarantined (any error kind).
pub const ENGINE_QUARANTINED: &str = "engine.quarantined.records";
/// Counter: records quarantined by a duplicate `notify`.
pub const ENGINE_QUARANTINED_DUPLICATE_NOTIFY: &str = "engine.quarantined.duplicate_notify";
/// Counter: records quarantined by a library-function error.
pub const ENGINE_QUARANTINED_LIB: &str = "engine.quarantined.lib";
/// Counter: records quarantined by fuel exhaustion.
pub const ENGINE_QUARANTINED_OUT_OF_FUEL: &str = "engine.quarantined.out_of_fuel";
/// Counter: records quarantined by a caught UDF panic.
pub const ENGINE_QUARANTINED_PANIC: &str = "engine.quarantined.panic";
/// Counter: retry attempts made on transiently-faulting records before
/// quarantine (primary execution path only; guard shadow runs retry
/// silently).
pub const ENGINE_RETRIES: &str = "engine.retries";
/// Counter: records shadow-executed through the sequential `Many` path by
/// the plan guard for cross-validation against the consolidated plan.
pub const GUARD_SHADOW_RUNS: &str = "guard.shadow_runs";
/// Counter: shadowed records whose sequential outputs or quarantine
/// decision diverged from the consolidated plan.
pub const GUARD_MISMATCHES: &str = "guard.mismatches";
/// Counter: jobs demoted to sequential execution after the guard's
/// mismatch threshold was breached.
pub const GUARD_DEMOTIONS: &str = "guard.demotions";
/// Histogram (ns): wall-clock latency of one guard shadow run (the
/// sequential re-evaluation plus the comparison).
pub const GUARD_NS: &str = "engine.guard_ns";
/// Histogram (ns): wall-clock latency of evaluating one record batch under
/// the columnar backend (gather + all programs over every lane; policy
/// handling of the lanes is accounted separately under
/// [`ENGINE_RECORD_NS`]).
pub const ENGINE_BATCH_NS: &str = "engine.batch_ns";
/// Counter: plan-cache requests served from a stored `Full` plan.
pub const PLAN_CACHE_HIT: &str = "plan_cache.hit";
/// Counter: plan-cache requests consolidated fresh (the result is stored
/// when it is `Full`).
pub const PLAN_CACHE_MISS: &str = "plan_cache.miss";
/// Counter: entailment-memo verdicts dropped because a query they were
/// derived from was demoted or quarantined at runtime.
pub const ENTAIL_MEMO_INVALIDATED: &str = "consolidate.entail.memo_invalidated";

// ---- prefilter: cross-query predicate pushdown ----------------------------

/// Counter: pre-filters synthesized, verified sound and attached to a plan.
pub const PREFILTER_SYNTHESIZED: &str = "prefilter.synthesized";
/// Counter: candidate pre-filters rejected by the verifier or the cost
/// ceiling (fail-open: the plan runs unfiltered).
pub const PREFILTER_REJECTED: &str = "prefilter.rejected";
/// Counter: candidate extraction produced `true` — no cheap-field atom
/// bounds any query, nothing to push down.
pub const PREFILTER_TRIVIAL: &str = "prefilter.trivial";
/// Histogram: symbolic paths of the merged program discharged by one
/// successful verification.
pub const PREFILTER_PATHS: &str = "prefilter.verify.paths";
/// Histogram (ns): wall-clock latency of one synthesis attempt (candidate
/// extraction plus verification, successful or not).
pub const PREFILTER_NS: &str = "prefilter.synth_ns";
/// Counter: records skipped by a verified pre-filter (the merged program
/// never ran; all queries were notified `false` by construction).
pub const PREFILTER_RECORDS_SKIPPED: &str = "prefilter.records.skipped";
/// Counter: records that passed the pre-filter and ran the merged program.
pub const PREFILTER_RECORDS_PASSED: &str = "prefilter.records.passed";

// ---- user-defined aggregations --------------------------------------------

/// Counter: per-record fold steps executed by the aggregation engine
/// (one per surviving (record, UDAF) pair, both modes).
pub const AGG_FOLDS: &str = "agg.folds";
/// Counter: partial-state merges executed by the deterministic merge tree.
pub const AGG_MERGES: &str = "agg.merges";
/// Counter: homomorphism obligations actually discharged against the
/// solver (memo hits and refused-loop definitions are not counted here).
pub const AGG_HOMOMORPHISM_CHECKS: &str = "agg.homomorphism_checks";
/// Counter: homomorphism verdicts answered from the shared proof memo
/// without re-proving.
pub const AGG_PROOF_MEMO_HITS: &str = "agg.proof_memo_hits";
/// Histogram (ns): wall-clock latency of one per-record fold step (all
/// consolidated UDAFs on that record). Only collected when the recorder is
/// enabled.
pub const ENGINE_FOLD_NS: &str = "engine.fold_ns";

// ---- udf-serve: consolidation-as-a-service --------------------------------

/// Counter: records admitted into the service's bounded ingest queue.
pub const SERVE_ADMITTED: &str = "serve.admitted";
/// Counter: records rejected at admission (queue full, tenant quarantined);
/// rejections are explicit — the submitter is told, nothing is dropped
/// silently.
pub const SERVE_REJECTED: &str = "serve.rejected";
/// Counter: admitted records shed by deadline-aware load shedding (queue
/// pressure above the shed watermark and the batch past its deadline).
/// Every shed record is accounted in the epoch report.
pub const SERVE_SHED: &str = "serve.shed";
/// Counter: records fully processed by the service (notified or accounted
/// in quarantine). `admitted == processed + shed + still-queued` always.
pub const SERVE_PROCESSED: &str = "serve.processed";
/// Counter: delta-consolidation operations applied to the live plan (one
/// per register/deregister that re-consolidated a spine).
pub const SERVE_DELTA_RECONSOLIDATIONS: &str = "serve.delta_reconsolidations";
/// Counter: tenants demoted out of the shared consolidated plan after their
/// UDF tripped the plan guard or blew their quarantine budget.
pub const SERVE_TENANT_DEMOTIONS: &str = "serve.tenant_demotions";
/// Counter: epochs executed by the service loop.
pub const SERVE_EPOCHS: &str = "serve.epochs";
/// Counter: times a service was reconstructed from its journal via
/// `Service::recover` (each successful recovery bumps this once).
pub const SERVE_RECOVERIES: &str = "serve.recoveries";
/// Counter: plan-tree nodes (live leaves + stored merges) recoveries
/// installed from a checkpoint as written, with no solver work.
pub const SERVE_RECOVERY_PLAN_NODES_RESTORED: &str = "serve.recovery.plan_nodes_restored";
/// Counter: SMT checks issued *during* recoveries — the delta operations the
/// journal tail made them redo. 0 when every recovery found its query set
/// unchanged since the checkpoint: "recovery is solver-free" as a number.
pub const SERVE_RECOVERY_SOLVER_CHECKS: &str = "serve.recovery.solver_checks";

// ---- udf-serve: write-ahead epoch journal ---------------------------------

/// Counter: frames appended to the write-ahead journal (one per durable
/// state transition: register, deregister, submit, reject, epoch commit).
pub const JOURNAL_APPENDS: &str = "journal.appends";
/// Counter: checkpoint compactions (journal prefix folded into a full-state
/// snapshot published via atomic tmp+fsync+rename).
pub const JOURNAL_CHECKPOINTS: &str = "journal.checkpoints";
/// Counter: journal frames replayed into service state during recovery.
pub const JOURNAL_FRAMES_REPLAYED: &str = "journal.frames_replayed";
/// Counter: journal frames skipped during recovery because the checkpoint
/// already covered them (`seq <= checkpoint.last_seq`) — the exactly-once
/// guard for a crash between checkpoint rename and journal truncation.
pub const JOURNAL_FRAMES_SKIPPED: &str = "journal.frames_skipped";
/// Counter: torn or corrupt tail frames salvaged (truncated away) during
/// recovery. Anything beyond the first bad frame is unreachable by
/// append-only writing, so salvage stops there.
pub const JOURNAL_FRAMES_SALVAGED: &str = "journal.frames_salvaged";

//! Guarded-execution matrix: differential plan validation, self-healing
//! demotion, and transient-fault retry.
//!
//! The invariants under test:
//!
//! 1. **Corruption detection** — a consolidated plan whose bytecode was
//!    mutated behind the optimizer's back is caught by the shadow sampler,
//!    the job self-heals by demoting to sequential execution (output
//!    bit-identical to a pure-sequential run), and the poisoned plan is
//!    evicted from the plan cache so it cannot be re-served.
//! 2. **Retry drains transients** — `Transient(k)` faults recover with zero
//!    quarantines when `k ≤ max_retries`, and quarantine with exact retry
//!    accounting when `k > max_retries`.
//! 3. **LogOnly is read-only** — an auditing guard never changes job
//!    outputs, even over a corrupted plan.
//! 4. **Disabled guard is free** — `audit: false` performs no shadow
//!    runs and leaves reports identical to an unguarded engine's.
//!
//! The corruption scenarios (1 and 3) run under both execution backends and
//! must report the same `GuardReport { shadow_runs, mismatches, demoted }`
//! and counts: the query set holds one copy of each plan, so there is no
//! second copy for a backend to run healthy while the first is corrupted.

use naiad_lite::engine::{
    Engine, EngineConfig, EngineError, ErrorPolicy, ExecBackend, ExecMode, JobReport, QuerySet,
};
use naiad_lite::fault::{silence_injected_panics, FaultKind, FaultPlan, FaultyEnv};
use naiad_lite::{ErrorKind, GuardAction, GuardPolicy, ScalarEnv};
use plan_cache::PlanCache;
use std::sync::Arc;
use udf_lang::ast::Program;
use udf_lang::cost::CostModel;
use udf_lang::intern::Interner;
use udf_lang::library::Library;
use udf_lang::FnLibrary;
use udf_obs::names;

/// Same sizing as `fault_matrix`: burn records exhaust it, healthy records
/// never come close.
const TEST_FUEL: u64 = 50_000;

fn library(interner: &mut Interner) -> FnLibrary {
    let probe = interner.intern("probe");
    let half = interner.intern("half");
    let mut lib = FnLibrary::new();
    lib.register(probe, "probe", 1, 20, |a| a[0]);
    lib.register(half, "half", 1, 10, |a| a[0] / 2);
    lib
}

fn probing_queries(interner: &mut Interner, n: u32) -> Vec<Program> {
    (0..n)
        .map(|k| {
            udf_lang::parse::parse_program(
                &format!(
                    "program q{k} @{k} (v) {{
                         p := probe(v);
                         spin := half(p);
                         while (spin > 50) {{ spin := spin - 1; }}
                         if (p > {}) {{ notify true; }} else {{ notify false; }}
                     }}",
                    k * 10
                ),
                interner,
            )
            .expect("test program parses")
        })
        .collect()
}

/// Folds the `CHAOS_SEED` environment variable (see `ci/chaos.sh`) into a
/// base seed; identical to the helper in `fault_matrix`.
fn chaos(seed: u64) -> u64 {
    match std::env::var("CHAOS_SEED") {
        Ok(s) => seed ^ s.trim().parse::<u64>().unwrap_or(0),
        Err(_) => seed,
    }
}

struct Harness {
    env: FaultyEnv<ScalarEnv>,
    records: Vec<(usize, Vec<i64>)>,
    queries: QuerySet,
}

const BACKENDS: [ExecBackend; 2] = [ExecBackend::PerRecord, ExecBackend::Columnar];

/// Builds the standard harness with consolidation routed through `cache`
/// (so the query set carries a plan key the guard can invalidate).
fn harness(cache: &PlanCache, plan: FaultPlan) -> Harness {
    harness_for(cache, plan, ExecBackend::PerRecord)
}

/// [`harness`] with the plan keyed for `backend`.
fn harness_for(cache: &PlanCache, plan: FaultPlan, backend: ExecBackend) -> Harness {
    let mut interner = Interner::new();
    let lib = library(&mut interner);
    let programs = probing_queries(&mut interner, 3);
    let cm = CostModel::default();
    let opts = consolidate::Options::default();
    let (queries, _merged, _outcome) = QuerySet::compile_consolidated_cached(
        &programs,
        &mut interner,
        &cm,
        &lib,
        &|f| lib.cost(f),
        &opts,
        false,
        cache,
        backend,
    )
    .expect("cached consolidation succeeds");
    let trigger = interner.intern("probe");
    let env =
        FaultyEnv::new(ScalarEnv::new(1, lib), trigger, plan).with_burn_value(1_000_000_000);
    let records = FaultyEnv::<ScalarEnv>::index_records((0..200).map(|v| vec![v]));
    Harness {
        env,
        records,
        queries,
    }
}

/// Flips the broadcast value of the first `Notify` instruction in the
/// consolidated bytecode — the minimal "plan corrupted in the cache / by a
/// miscompile" simulation: still a perfectly well-formed program, just one
/// that disagrees with the sequential semantics on some records.
fn corrupt_consolidated(queries: &mut QuerySet) {
    let plan = queries
        .consolidated
        .as_mut()
        .expect("harness always attaches a consolidated program");
    let notify = plan
        .code
        .iter_mut()
        .find_map(|i| match &mut i.op {
            naiad_lite::regcode::ROp::Notify { value, .. } => Some(value),
            _ => None,
        })
        .expect("a consolidated program notifies");
    *notify = !*notify;
}

fn guarded_engine(cache: &Arc<PlanCache>, guard: GuardPolicy) -> Engine {
    guarded_engine_on(cache, guard, ExecBackend::PerRecord, 4)
}

fn guarded_engine_on(
    cache: &Arc<PlanCache>,
    guard: GuardPolicy,
    backend: ExecBackend,
    workers: usize,
) -> Engine {
    Engine::new(workers).with_config(EngineConfig {
        error_policy: ErrorPolicy::Quarantine { max_errors: 64 },
        backend,
        guard,
        fuel: Some(TEST_FUEL),
        plan_cache: Some(Arc::clone(cache)),
        recorder: udf_obs::RecorderCell::memory(),
        ..EngineConfig::default()
    })
}

/// The guard's verdict on one run, as the two backends must agree on it.
fn verdict(report: &JobReport) -> (u64, u64, bool) {
    let g = report.guard.as_ref().expect("guard report present");
    (g.shadow_runs, g.mismatches, g.demoted)
}

/// Corruption → detection → demotion → cache eviction, on `backend`.
fn corrupted_plan_scenario(backend: ExecBackend, workers: usize) -> JobReport {
    let ctx = format!("{backend:?}, {workers} workers");
    let cache = Arc::new(PlanCache::default());
    let mut h = harness_for(&cache, FaultPlan::none(), backend);
    assert_eq!(cache.len(), 1, "{ctx}: consolidation filled the cache");
    corrupt_consolidated(&mut h.queries);

    let engine = guarded_engine_on(&cache, GuardPolicy::audit_all(), backend, workers);
    let guarded = engine
        .run(&h.env, &h.records, &h.queries, ExecMode::Consolidated, false)
        .expect("Demote self-heals instead of failing");
    let guard = guarded.guard.clone().expect("guarded consolidated run reports");
    assert!(guard.demoted, "{ctx}: divergence must demote the job");
    assert!(guard.mismatches >= 1, "{ctx}");
    let incident = guard.incident.expect("a demotion carries its incident");
    assert!(incident.plan_invalidated, "{ctx}: the cached plan must be evicted");
    assert!(!incident.examples.is_empty(), "{ctx}: incident names the records");

    // Self-healing: the demoted report is identical to a pure-sequential
    // run of the same job — no dropped records, no count drift.
    let sequential = Engine::new(workers)
        .with_error_policy(ErrorPolicy::Quarantine { max_errors: 64 })
        .with_backend(backend)
        .with_fuel(TEST_FUEL)
        .run(&h.env, &h.records, &h.queries, ExecMode::Many, false)
        .expect("sequential reference run");
    assert_eq!(guarded.counts, sequential.counts, "{ctx}");
    assert_eq!(guarded.missing, sequential.missing, "{ctx}");
    assert_eq!(guarded.quarantine, sequential.quarantine, "{ctx}");

    // Eviction: the poisoned entry is gone, accounted as an invalidation.
    assert_eq!(cache.len(), 0, "{ctx}: poisoned plan must not be re-served");
    assert_eq!(cache.stats().invalidations, 1, "{ctx}");

    // The same corruption under FailFast is a structured error instead.
    let failfast = guarded_engine_on(
        &cache,
        GuardPolicy {
            on_mismatch: GuardAction::FailFast,
            ..GuardPolicy::audit_all()
        },
        backend,
        workers,
    );
    match failfast.run(&h.env, &h.records, &h.queries, ExecMode::Consolidated, false) {
        Err(EngineError::GuardTripped { incident }) => {
            assert!(incident.mismatches >= 1, "{ctx}");
            assert_eq!(incident.action, GuardAction::FailFast, "{ctx}");
        }
        other => panic!("{ctx}: expected GuardTripped, got {other:?}"),
    }
    guarded
}

#[test]
fn corrupted_plan_is_detected_demoted_and_evicted() {
    for workers in [1usize, 4] {
        let [p, c] = BACKENDS.map(|b| corrupted_plan_scenario(b, workers));
        // After a trip the other shards stop at a timing-dependent record,
        // so the shadow and mismatch totals are exact only for one worker.
        if workers == 1 {
            assert_eq!(verdict(&p), verdict(&c), "guard verdict across backends");
        }
        assert_eq!((&p.counts, &p.missing), (&c.counts, &c.missing));
    }
}

#[test]
fn retry_drains_transient_faults_below_the_retry_budget() {
    silence_injected_panics();
    let depth = 2u32; // succeeds on the 3rd attempt
    let max_retries = 3u32;
    let mut plan = FaultPlan::none();
    for record in [7usize, 42, 113] {
        plan.insert(record, FaultKind::Transient(depth));
    }
    let cache = Arc::new(PlanCache::default());
    let h = harness(&cache, plan);
    let clean = harness(&cache, FaultPlan::none());

    let engine = Engine::new(4)
        .with_error_policy(ErrorPolicy::Quarantine { max_errors: 64 })
        .with_retry(max_retries)
        .with_fuel(TEST_FUEL)
        .with_recorder(udf_obs::RecorderCell::memory());
    for mode in [ExecMode::Many, ExecMode::Consolidated] {
        h.env.reset_transients();
        let run = engine
            .run(&h.env, &h.records, &h.queries, mode, false)
            .expect("transients drain within the budget");
        assert!(
            run.quarantine.is_clean(),
            "k ≤ max_retries must quarantine nothing ({mode:?})"
        );
        assert_eq!(run.quarantine.records_retried, 3, "{mode:?}");
        assert_eq!(run.quarantine.records_recovered, 3, "{mode:?}");
        assert_eq!(
            run.quarantine.retry_attempts,
            u64::from(depth) * 3,
            "each record needs exactly `depth` retries ({mode:?})"
        );
        let baseline = engine
            .run(&clean.env, &clean.records, &clean.queries, mode, false)
            .expect("clean reference run");
        assert_eq!(run.counts, baseline.counts, "{mode:?}");
    }
    let snapshot = engine
        .config()
        .recorder
        .snapshot()
        .expect("memory recorder snapshots");
    assert_eq!(
        snapshot.counter(names::ENGINE_RETRIES),
        u64::from(depth) * 3 * 2,
        "both modes recorded"
    );
}

#[test]
fn retry_budget_exhaustion_quarantines_with_exact_accounting() {
    silence_injected_panics();
    let depth = 5u32;
    let max_retries = 2u32; // depth > max_retries: the record cannot recover
    let faulted = [7usize, 42, 113];
    let mut plan = FaultPlan::none();
    for record in faulted {
        plan.insert(record, FaultKind::Transient(depth));
    }
    let cache = Arc::new(PlanCache::default());
    let h = harness(&cache, plan);

    let engine = Engine::new(4)
        .with_error_policy(ErrorPolicy::Quarantine { max_errors: 64 })
        .with_retry(max_retries)
        .with_fuel(TEST_FUEL);
    for mode in [ExecMode::Many, ExecMode::Consolidated] {
        h.env.reset_transients();
        let run = engine
            .run(&h.env, &h.records, &h.queries, mode, false)
            .expect("quarantine absorbs the exhausted records");
        assert_eq!(
            run.quarantine.records(),
            faulted.to_vec(),
            "exactly the transient records quarantine ({mode:?})"
        );
        assert_eq!(run.quarantine.records_retried, 3, "{mode:?}");
        assert_eq!(run.quarantine.records_recovered, 0, "{mode:?}");
        assert_eq!(
            run.quarantine.retry_attempts,
            u64::from(max_retries) * 3,
            "{mode:?}"
        );
        for entry in &run.quarantine.entries {
            assert_eq!(entry.retries, max_retries, "record {}", entry.record);
            assert_eq!(entry.kind, ErrorKind::Lib, "record {}", entry.record);
        }
    }
}

/// A `LogOnly` audit over a corrupted plan on `backend`: observes, never
/// intervenes.
fn log_only_scenario(backend: ExecBackend) -> JobReport {
    let ctx = format!("{backend:?}");
    let cache = Arc::new(PlanCache::default());
    let mut h = harness_for(&cache, FaultPlan::none(), backend);
    corrupt_consolidated(&mut h.queries);

    // Reference: the corrupted plan run with no guard at all.
    let unguarded = Engine::new(4)
        .with_error_policy(ErrorPolicy::Quarantine { max_errors: 64 })
        .with_backend(backend)
        .with_fuel(TEST_FUEL)
        .run(&h.env, &h.records, &h.queries, ExecMode::Consolidated, false)
        .expect("unguarded run");

    let engine = guarded_engine_on(
        &cache,
        GuardPolicy {
            on_mismatch: GuardAction::LogOnly,
            ..GuardPolicy::audit_all()
        },
        backend,
        4,
    );
    let audited = engine
        .run(&h.env, &h.records, &h.queries, ExecMode::Consolidated, false)
        .expect("LogOnly never fails the job");
    let guard = audited.guard.clone().expect("guard report present");
    assert!(!guard.demoted, "{ctx}: LogOnly must not demote");
    assert!(guard.mismatches >= 1, "{ctx}: the divergence is still observed");
    let incident = guard.incident.expect("threshold reached => incident");
    assert_eq!(incident.action, GuardAction::LogOnly, "{ctx}");
    assert!(!incident.plan_invalidated, "{ctx}: LogOnly must not evict");
    assert_eq!(cache.len(), 1, "{ctx}: plan stays cached under LogOnly");

    // Identical consolidated outputs: the audit is purely observational.
    assert_eq!(audited.counts, unguarded.counts, "{ctx}");
    assert_eq!(audited.missing, unguarded.missing, "{ctx}");
    assert_eq!(audited.quarantine, unguarded.quarantine, "{ctx}");
    audited
}

#[test]
fn log_only_guard_never_changes_outputs() {
    // LogOnly never trips, so every record is audited whatever the worker
    // count and the whole verdict is deterministic.
    let [p, c] = BACKENDS.map(log_only_scenario);
    assert_eq!(verdict(&p), verdict(&c), "guard verdict across backends");
    assert_eq!((&p.counts, &p.missing), (&c.counts, &c.missing));
    assert_eq!(p.quarantine, c.quarantine);
}

#[test]
fn disabled_guard_runs_zero_shadows_and_changes_nothing() {
    silence_injected_panics();
    let cache = Arc::new(PlanCache::default());
    let h = harness(&cache, FaultPlan::seeded(chaos(0xfa06), 200, 8));

    let plain = Engine::new(4)
        .with_error_policy(ErrorPolicy::Quarantine { max_errors: 64 })
        .with_fuel(TEST_FUEL)
        .run(&h.env, &h.records, &h.queries, ExecMode::Consolidated, false)
        .expect("plain run");

    let engine = guarded_engine(
        &cache,
        GuardPolicy {
            audit: false,
            ..GuardPolicy::default()
        },
    );
    let guarded = engine
        .run(&h.env, &h.records, &h.queries, ExecMode::Consolidated, false)
        .expect("unaudited run");
    assert!(
        guarded.guard.is_none(),
        "an inactive guard must not even report"
    );
    assert_eq!(guarded.counts, plain.counts);
    assert_eq!(guarded.missing, plain.missing);
    assert_eq!(guarded.quarantine, plain.quarantine);

    let snapshot = engine
        .config()
        .recorder
        .snapshot()
        .expect("memory recorder snapshots");
    assert_eq!(snapshot.counter(names::GUARD_SHADOW_RUNS), 0);
    assert_eq!(snapshot.counter(names::GUARD_MISMATCHES), 0);
    assert_eq!(snapshot.counter(names::GUARD_DEMOTIONS), 0);
}

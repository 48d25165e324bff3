//! Guarded-execution matrix: differential plan validation, self-healing
//! demotion, and transient-fault retry.
//!
//! The invariants under test:
//!
//! 1. **Corruption detection** — a consolidated plan whose bytecode was
//!    mutated behind the optimizer's back is caught by the shadow sampler,
//!    the job self-heals by demoting to sequential execution (output
//!    bit-identical to a pure-sequential run), and under `FailFast` the
//!    same trip is a structured error.
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

mod common;

use common::{chaos, check, library, probing_queries, quarantine_engine, Harness, TEST_FUEL};
use naiad_lite::engine::{
    Engine, EngineConfig, EngineError, ErrorPolicy, ExecBackend, ExecMode, JobReport, QuerySet,
};
use naiad_lite::fault::{silence_injected_panics, FaultKind, FaultPlan};
use naiad_lite::{ErrorKind, GuardAction, GuardPolicy};
use udf_lang::cost::CostModel;
use udf_lang::intern::Interner;
use udf_lang::library::Library;
use udf_obs::names;

const BACKENDS: [ExecBackend; 2] = [ExecBackend::PerRecord, ExecBackend::Columnar];

/// Builds the standard harness: three probing queries and their
/// consolidated plan.
fn harness(plan: FaultPlan) -> Harness {
    let mut interner = Interner::new();
    let lib = library(&mut interner);
    let programs = probing_queries(&mut interner, 3);
    let cm = CostModel::default();
    let opts = consolidate::Options::default();
    let merged = consolidate::consolidate_many(&programs, &mut interner, &cm, &lib, &opts, false)
        .expect("consolidation succeeds");
    let queries = QuerySet::compile_many(&programs, &cm, &|f| lib.cost(f))
        .and_then(|qs| qs.with_consolidated(&merged.program, &cm, &|f| lib.cost(f), merged.elapsed))
        .expect("the query set compiles");
    Harness::new(&mut interner, &programs, queries, plan)
}

/// Flips the broadcast value of the first `Notify` instruction in the
/// consolidated bytecode — the minimal "plan corrupted in storage / by a
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

fn guarded_engine(guard: GuardPolicy) -> Engine {
    guarded_engine_on(guard, ExecBackend::PerRecord, 4)
}

fn guarded_engine_on(guard: GuardPolicy, backend: ExecBackend, workers: usize) -> Engine {
    Engine::new(workers).with_config(EngineConfig {
        error_policy: ErrorPolicy::Quarantine { max_errors: 64 },
        backend,
        guard,
        fuel: Some(TEST_FUEL),
        recorder: udf_obs::RecorderCell::memory(),
        ..EngineConfig::default()
    })
}

/// The guard's verdict on one run, as the two backends must agree on it.
fn verdict(report: &JobReport) -> (u64, u64, bool) {
    let g = report.guard.as_ref().expect("guard report present");
    (g.shadow_runs, g.mismatches, g.demoted)
}

/// Corruption → detection → demotion, on `backend`.
fn corrupted_plan_scenario(backend: ExecBackend, workers: usize) -> JobReport {
    let ctx = format!("{backend:?}, {workers} workers");
    let mut h = harness(FaultPlan::none());
    corrupt_consolidated(&mut h.queries);

    let engine = guarded_engine_on(GuardPolicy::audit_all(), backend, workers);
    let guarded = h
        .run(&engine, ExecMode::Consolidated)
        .expect("Demote self-heals instead of failing");
    check(&guarded, &h.oracle, &ctx);
    let guard = guarded
        .guard
        .clone()
        .expect("guarded consolidated run reports");
    assert!(guard.demoted, "{ctx}: divergence must demote the job");
    assert!(guard.mismatches >= 1, "{ctx}");
    let incident = guard.incident.expect("a demotion carries its incident");
    assert!(
        !incident.examples.is_empty(),
        "{ctx}: incident names the records"
    );

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

    // The same corruption under FailFast is a structured error instead.
    let failfast = guarded_engine_on(
        GuardPolicy {
            on_mismatch: GuardAction::FailFast,
            ..GuardPolicy::audit_all()
        },
        backend,
        workers,
    );
    match h.run(&failfast, ExecMode::Consolidated) {
        Err(EngineError::GuardTripped { incident }) => {
            assert!(incident.mismatches >= 1, "{ctx}");
            assert_eq!(incident.action, GuardAction::FailFast, "{ctx}");
        }
        other => panic!("{ctx}: expected GuardTripped, got {other:?}"),
    }
    guarded
}

#[test]
fn corrupted_plan_is_detected_and_demoted() {
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
    let h = harness(plan);

    let engine = quarantine_engine()
        .with_retry(max_retries)
        .with_recorder(udf_obs::RecorderCell::memory());
    for mode in [ExecMode::Many, ExecMode::Consolidated] {
        h.env.reset_transients();
        let run = h
            .run(&engine, mode)
            .expect("transients drain within the budget");
        check(&run, &h.oracle, &format!("{mode:?}"));
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
    let h = harness(plan);

    let engine = quarantine_engine().with_retry(max_retries);
    for mode in [ExecMode::Many, ExecMode::Consolidated] {
        h.env.reset_transients();
        let run = h
            .run(&engine, mode)
            .expect("quarantine absorbs the exhausted records");
        check(&run, &h.oracle, &format!("{mode:?}"));
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
    let mut h = harness(FaultPlan::none());
    corrupt_consolidated(&mut h.queries);

    // Reference: the corrupted plan run with no guard at all.
    let plain = quarantine_engine().with_backend(backend);
    let unguarded = h
        .run(&plain, ExecMode::Consolidated)
        .expect("unguarded run");

    let engine = guarded_engine_on(
        GuardPolicy {
            on_mismatch: GuardAction::LogOnly,
            ..GuardPolicy::audit_all()
        },
        backend,
        4,
    );
    let audited = h
        .run(&engine, ExecMode::Consolidated)
        .expect("LogOnly never fails the job");
    let guard = audited.guard.clone().expect("guard report present");
    assert!(!guard.demoted, "{ctx}: LogOnly must not demote");
    assert!(
        guard.mismatches >= 1,
        "{ctx}: the divergence is still observed"
    );
    let incident = guard.incident.expect("threshold reached => incident");
    assert_eq!(incident.action, GuardAction::LogOnly, "{ctx}");

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
    let h = harness(FaultPlan::seeded(chaos(0xfa06), 200, 8));

    let plain = h
        .run(&quarantine_engine(), ExecMode::Consolidated)
        .expect("plain run");

    let engine = guarded_engine(GuardPolicy {
        audit: false,
        ..GuardPolicy::default()
    });
    let guarded = h
        .run(&engine, ExecMode::Consolidated)
        .expect("unaudited run");
    check(&guarded, &h.oracle, "unaudited");
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

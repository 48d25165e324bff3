//! Warm-start parity: serving a consolidated plan from the cache must be
//! observationally identical to consolidating from scratch.
//!
//! The invariants under test:
//!
//! 1. **Plan identity** — the cached program pretty-prints identically to a
//!    freshly consolidated one, even though it crossed the cache as
//!    interner-independent wire text (simulated here by rebuilding
//!    the whole pipeline against a brand-new interner).
//! 2. **Zero solver work on a hit** — the second submission of the same
//!    query set performs no SMT `check` calls at all.
//! 3. **Execution parity on survivors** — under fault injection, the warm
//!    `where_consolidated` run selects the same records and quarantines the
//!    same records as the cold run (and as `where_many`).

mod common;

use common::{check, library, probing_queries, quarantine_engine, Harness, TEST_FUEL};
use naiad_lite::engine::{Engine, ExecBackend, ExecMode, QuerySet};
use naiad_lite::fault::{silence_injected_panics, FaultPlan};
use plan_cache::{PlanCache, PlanOutcome};
use udf_lang::cost::CostModel;
use udf_lang::intern::Interner;
use udf_lang::library::Library;
use udf_obs::{names, RecorderCell};

struct Run {
    h: Harness,
    merged_text: String,
    outcome: PlanOutcome,
    solver_checks: u64,
}

/// One full "job submission": fresh interner (as a new process would have),
/// queries rebuilt from source, consolidation routed through `cache` and
/// its hits and misses counted on `recorder`.
fn submit(cache: &PlanCache, recorder: &RecorderCell, plan: FaultPlan) -> Run {
    let mut interner = Interner::new();
    let lib = library(&mut interner);
    let programs = probing_queries(&mut interner, 4);
    let cm = CostModel::default();
    let opts = consolidate::Options {
        recorder: recorder.clone(),
        ..consolidate::Options::default()
    };
    let (merged, outcome) = plan_cache::consolidate_many_cached(
        cache,
        &programs,
        &mut interner,
        &cm,
        &lib,
        &opts,
        false,
        ExecBackend::PerRecord,
    )
    .expect("cached consolidation succeeds");
    let queries = QuerySet::compile_many(&programs, &cm, &|f| lib.cost(f))
        .and_then(|qs| qs.with_consolidated(&merged.program, &cm, &|f| lib.cost(f), merged.elapsed))
        .expect("the query set compiles");
    let merged_text = udf_lang::pretty::program(&merged.program, &interner);
    Run {
        h: Harness::new(&mut interner, &programs, queries, plan),
        merged_text,
        outcome,
        solver_checks: merged.stats.solver.checks,
    }
}

#[test]
fn warm_cache_run_is_indistinguishable_from_cold() {
    silence_injected_panics();
    let cache = PlanCache::default();
    let recorder = RecorderCell::memory();
    let plan = FaultPlan::seeded(0xca9e, 200, 12);

    let cold = submit(&cache, &recorder, plan.clone());
    assert_eq!(
        cold.outcome,
        PlanOutcome::Miss,
        "first submission consolidates"
    );
    assert!(
        cold.solver_checks > 0,
        "cold consolidation does solver work"
    );

    let warm = submit(&cache, &recorder, plan);
    assert_eq!(
        warm.outcome,
        PlanOutcome::Hit,
        "second submission is served"
    );
    assert_eq!(
        warm.solver_checks, 0,
        "a cache hit must perform zero SMT checks"
    );
    assert_eq!(
        cold.merged_text, warm.merged_text,
        "the cached plan must pretty-print identically to the fresh one"
    );

    // Execution parity on the fault-matrix survivors: cold consolidated,
    // warm consolidated, and warm many quarantine the same records and each
    // holds to Thm. 1 on the rest.
    let engine = quarantine_engine();
    let cold_cons = cold
        .h
        .run(&engine, ExecMode::Consolidated)
        .expect("cold consolidated run");
    let warm_cons = warm
        .h
        .run(&engine, ExecMode::Consolidated)
        .expect("warm consolidated run");
    let warm_many = warm.h.run(&engine, ExecMode::Many).expect("warm many run");
    check(&cold_cons, &cold.h.oracle, "cold consolidated");
    check(&warm_cons, &warm.h.oracle, "warm consolidated");
    check(&warm_many, &warm.h.oracle, "warm many");

    assert_eq!(
        cold_cons.quarantine.records(),
        warm_cons.quarantine.records(),
        "warm run must quarantine exactly the records the cold run did"
    );
    assert_eq!(
        warm_many.quarantine.records(),
        warm_cons.quarantine.records()
    );

    let counters = recorder.snapshot().expect("a memory recorder");
    assert_eq!(counters.counter(names::PLAN_CACHE_HIT), 1);
    assert_eq!(counters.counter(names::PLAN_CACHE_MISS), 1);
    assert_eq!(cache.len(), 1);
}

#[test]
fn healthy_records_select_identically_through_the_cache() {
    let cache = PlanCache::default();
    let recorder = RecorderCell::noop();
    let cold = submit(&cache, &recorder, FaultPlan::none());
    let warm = submit(&cache, &recorder, FaultPlan::none());
    assert_eq!(warm.outcome, PlanOutcome::Hit);

    let engine = Engine::new(2).with_fuel(TEST_FUEL);
    let a = cold
        .h
        .run(&engine, ExecMode::Consolidated)
        .expect("cold run");
    let b = warm
        .h
        .run(&engine, ExecMode::Consolidated)
        .expect("warm run");
    check(&a, &cold.h.oracle, "cold");
    check(&b, &warm.h.oracle, "warm");
    assert_eq!(a.quarantine.records_quarantined, 0);
    assert_eq!(b.quarantine.records_quarantined, 0);
}

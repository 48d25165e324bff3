//! Fail-soft execution matrix: deterministic fault injection across every
//! failure mode the engine isolates, plus budgeted-consolidation
//! degradation.
//!
//! The invariants under test:
//!
//! 1. **Quarantine exactness** — a run quarantines exactly the faulted
//!    records, and every other record's notifications are untouched.
//! 2. **Mode parity on survivors** — `where_many` and `where_consolidated`
//!    quarantine the same records and agree on all surviving counts.
//! 3. **Graceful degradation** — budget-starved `consolidate_many` returns
//!    (never hangs, never errors) a compilable, sound program, reporting
//!    its tier; solver `Unknown`s (injected or budget-induced) only lose
//!    rewrites, never flip verdicts.

mod common;

use common::{
    chaos, check, check_merged, judge_merged, library, probing_queries, quarantine_engine,
    scalar_records, Harness, Oracle, TEST_FUEL,
};
use consolidate::{consolidate_many, ConsolidationBudget, DegradationTier, Options};
use naiad_lite::engine::{Engine, EngineError, ErrorKind, ErrorPolicy, ExecMode, QuerySet};
use naiad_lite::fault::{silence_injected_panics, FaultKind, FaultPlan};
use naiad_lite::{ScalarEnv, DEFAULT_FUEL};
use std::time::Duration;
use udf_lang::ast::{IntExpr, Program, Stmt};
use udf_lang::cost::CostModel;
use udf_lang::intern::Interner;
use udf_lang::library::Library;
use udf_lang::FnLibrary;

/// The standard harness: `n_queries` probing queries compiled in both
/// Many and Consolidated form over records `0..200`, with the given fault
/// plan on `probe`.
fn harness(n_queries: u32, plan: FaultPlan) -> Harness {
    let mut interner = Interner::new();
    let lib = library(&mut interner);
    let programs = probing_queries(&mut interner, n_queries);
    let cm = CostModel::default();
    let merged = consolidate_many(
        &programs,
        &mut interner,
        &cm,
        &lib,
        &Options::default(),
        false,
    )
    .expect("consolidation succeeds");
    let queries = QuerySet::compile_many(&programs, &cm, &|f| lib.cost(f))
        .expect("many compiles")
        .with_consolidated(&merged.program, &cm, &|f| lib.cost(f), merged.elapsed)
        .expect("merged compiles");
    Harness::new(&mut interner, &programs, queries, plan)
}

#[test]
fn quarantine_hits_exactly_the_faulted_records_in_both_modes() {
    silence_injected_panics();
    let plan = FaultPlan::seeded(chaos(0xfa01), 200, 12);
    let expected = plan.records();
    let h = harness(4, plan.clone());
    let engine = quarantine_engine();

    for mode in [ExecMode::Many, ExecMode::Consolidated] {
        let run = h
            .run(&engine, mode)
            .expect("quarantine policy absorbs record faults");
        assert_eq!(
            run.quarantine.records(),
            expected,
            "{mode:?} must quarantine exactly the planned records"
        );
        assert_eq!(run.records, 200);
        assert!(run.quarantine.shards_lost == 0);

        // Every quarantined entry carries the right classification.
        for e in &run.quarantine.entries {
            let planned = plan.kind(e.record).expect("entry must be planned");
            let expected_kind = match planned {
                FaultKind::LibError | FaultKind::Transient(_) => ErrorKind::Lib,
                FaultKind::Panic => ErrorKind::Panic,
                FaultKind::FuelBurn => ErrorKind::OutOfFuel,
            };
            assert_eq!(e.kind, expected_kind, "record {}: {}", e.record, e.detail);
        }

        // Survivors count exactly as the sources do on them alone.
        check(&run, &h.oracle, &format!("{mode:?}"));
    }
}

#[test]
fn many_and_consolidated_agree_on_survivors() {
    silence_injected_panics();
    let h = harness(5, FaultPlan::seeded(chaos(0xfa02), 200, 15));
    let engine = quarantine_engine();
    let many = h.run(&engine, ExecMode::Many).expect("many runs");
    let cons = h
        .run(&engine, ExecMode::Consolidated)
        .expect("consolidated runs");
    assert_eq!(many.quarantine.records(), cons.quarantine.records());
    check(&many, &h.oracle, "many");
    check(&cons, &h.oracle, "consolidated");
}

#[test]
fn fail_fast_policy_reports_the_first_fault() {
    silence_injected_panics();
    let h = harness(3, FaultPlan::single(17, FaultKind::LibError));
    let engine = Engine::new(1).with_fuel(TEST_FUEL); // default FailFast
    let err = h
        .run(&engine, ExecMode::Many)
        .expect_err("fail-fast must abort");
    match err {
        EngineError::Record { record, .. } => assert_eq!(record, 17),
        other => panic!("expected Record error, got {other:?}"),
    }

    let h = harness(3, FaultPlan::single(23, FaultKind::Panic));
    let err = h
        .run(&engine, ExecMode::Many)
        .expect_err("fail-fast must abort on panic");
    match err {
        EngineError::RecordPanic { record, message } => {
            assert_eq!(record, 23);
            assert!(message.contains("injected fault"), "{message}");
        }
        other => panic!("expected RecordPanic, got {other:?}"),
    }
}

#[test]
fn max_errors_bounds_error_floods() {
    silence_injected_panics();
    let h = harness(2, FaultPlan::seeded(chaos(0xfa03), 200, 40));
    let engine = Engine::new(4)
        .with_error_policy(ErrorPolicy::Quarantine { max_errors: 5 })
        .with_fuel(TEST_FUEL);
    let err = h
        .run(&engine, ExecMode::Many)
        .expect_err("40 faults exceed a limit of 5");
    match err {
        EngineError::TooManyErrors { limit, observed } => {
            assert_eq!(limit, 5);
            assert!(observed > 5);
        }
        other => panic!("expected TooManyErrors, got {other:?}"),
    }
}

#[test]
fn sample_payloads_are_capped_and_correct() {
    silence_injected_panics();
    let plan = FaultPlan::seeded(chaos(0xfa04), 200, 10);
    let h = harness(2, plan);
    let engine = Engine::new(1).with_config(naiad_lite::EngineConfig {
        error_policy: ErrorPolicy::Quarantine { max_errors: 64 },
        fuel: Some(TEST_FUEL),
        max_payload_samples: 3,
        ..Default::default()
    });
    let run = h.run(&engine, ExecMode::Many).expect("runs");
    let with_sample: Vec<_> = run
        .quarantine
        .entries
        .iter()
        .filter(|e| e.sample.is_some())
        .collect();
    assert_eq!(with_sample.len(), 3, "payload samples capped at 3");
    for e in with_sample {
        assert_eq!(
            e.sample.as_deref(),
            Some(&[e.record as i64][..]),
            "sample must be the record's scalar args"
        );
    }
}

#[test]
fn quarantine_report_is_identical_across_worker_counts() {
    // Regression: payload samples used to be capped per *shard*, so which
    // entries carried samples depended on the worker count. The report —
    // entries, ordering, samples, and retry accounting — must now be a pure
    // function of the input.
    silence_injected_panics();
    let plan = FaultPlan::seeded(chaos(0xfa05), 200, 12);
    let mut baseline: Option<(naiad_lite::QuarantineReport, Vec<u64>)> = None;
    for workers in [1usize, 2, 8] {
        let h = harness(3, plan.clone());
        let engine = Engine::new(workers)
            .with_error_policy(ErrorPolicy::Quarantine { max_errors: 64 })
            .with_fuel(TEST_FUEL);
        let run = h
            .run(&engine, ExecMode::Many)
            .expect("quarantine absorbs the faults");
        assert!(
            run.quarantine
                .entries
                .iter()
                .filter(|e| e.sample.is_some())
                .count()
                <= 8,
            "default payload-sample cap"
        );
        match &baseline {
            None => baseline = Some((run.quarantine, run.counts)),
            Some((q, c)) => {
                assert_eq!(
                    &run.quarantine, q,
                    "quarantine report must not depend on worker count ({workers} workers)"
                );
                assert_eq!(&run.counts, c, "{workers} workers");
            }
        }
    }
}

/// One quarantine round-trip per VmError variant plus the panic path,
/// table-driven.
#[test]
fn every_error_kind_round_trips_through_quarantine() {
    silence_injected_panics();
    let cases = [
        (FaultKind::LibError, ErrorKind::Lib),
        (FaultKind::Panic, ErrorKind::Panic),
        (FaultKind::FuelBurn, ErrorKind::OutOfFuel),
    ];
    for (fault, expected_kind) in cases {
        let h = harness(2, FaultPlan::single(31, fault));
        let run = h
            .run(&quarantine_engine(), ExecMode::Many)
            .expect("quarantine absorbs the fault");
        assert_eq!(run.quarantine.records(), vec![31], "{fault:?}");
        let e = &run.quarantine.entries[0];
        assert_eq!(e.kind, expected_kind, "{fault:?}: {}", e.detail);
        assert_eq!(e.query, Some(h.queries.query_ids[0]), "first query faults");
    }

    // DuplicateNotify needs a malformed program rather than an env fault.
    let mut interner = Interner::new();
    let bad = udf_lang::parse::parse_program(
        "program dup @0 (v) { notify true; notify false; }",
        &mut interner,
    )
    .expect("parses");
    let cm = CostModel::default();
    let qs = QuerySet::compile_many(std::slice::from_ref(&bad), &cm, &|_| 10).expect("compiles");
    let env = ScalarEnv::new(1, FnLibrary::new());
    let records: Vec<Vec<i64>> = (0..10).map(|v| vec![v]).collect();
    let run = Engine::new(2)
        .with_error_policy(ErrorPolicy::Quarantine { max_errors: 64 })
        .run(&env, &records, &qs, ExecMode::Many, false)
        .expect("quarantine absorbs duplicate notifications");
    assert_eq!(run.quarantine.records_quarantined, 10, "every record dups");
    assert!(run
        .quarantine
        .entries
        .iter()
        .all(|e| e.kind == ErrorKind::DuplicateNotify));
    assert_eq!(run.counts, vec![0]);
}

#[test]
fn consolidated_mode_without_program_is_an_error_not_a_panic() {
    let mut interner = Interner::new();
    let programs = probing_queries(&mut interner, 2);
    let cm = CostModel::default();
    let lib = library(&mut interner);
    let qs = QuerySet::compile_many(&programs, &cm, &|f| lib.cost(f)).expect("compiles");
    let env = ScalarEnv::new(1, lib);
    let records: Vec<Vec<i64>> = vec![vec![1]];
    let err = Engine::new(1)
        .run(&env, &records, &qs, ExecMode::Consolidated, false)
        .expect_err("no consolidated program attached");
    assert_eq!(err, EngineError::MissingConsolidated);
}

// ---------------------------------------------------------------------------
// Budgeted consolidation: the degradation lattice.
// ---------------------------------------------------------------------------

/// Both halves of Thm. 1 for a degraded plan, on a value sweep covering
/// every threshold.
fn check_sweep(programs: &[Program], merged: &Program, interner: &mut Interner) {
    let env = ScalarEnv::new(1, library(interner));
    check_merged(programs, merged, &env, &scalar_records(-5..60), interner);
}

#[test]
fn starved_query_budget_degrades_to_sequential_but_sound() {
    let mut interner = Interner::new();
    let lib = library(&mut interner);
    let programs = probing_queries(&mut interner, 6);
    let cm = CostModel::default();
    let opts = Options {
        budget: ConsolidationBudget::default().with_max_solver_queries(0),
        ..Options::default()
    };
    let merged = consolidate_many(&programs, &mut interner, &cm, &lib, &opts, false)
        .expect("budget exhaustion must not error");
    assert_eq!(merged.stats.tier, DegradationTier::Sequential);
    assert_eq!(merged.stats.rules.if3 + merged.stats.rules.if4, 0);
    check_sweep(&programs, &merged.program, &mut interner);
}

#[test]
fn partial_budget_consolidates_a_prefix_and_stays_sound() {
    let mut interner = Interner::new();
    let lib = library(&mut interner);
    let programs = probing_queries(&mut interner, 6);
    let cm = CostModel::default();
    // Generous enough for the first pairs, starved for the rest.
    let opts = Options {
        budget: ConsolidationBudget::default().with_max_solver_queries(40),
        ..Options::default()
    };
    let merged = consolidate_many(&programs, &mut interner, &cm, &lib, &opts, false)
        .expect("budget exhaustion must not error");
    assert!(
        merged.stats.tier >= DegradationTier::Partial,
        "40 queries cannot fully consolidate 6 programs: {:?}",
        merged.stats
    );
    check_sweep(&programs, &merged.program, &mut interner);

    // An unlimited run of the same family reports Full.
    let mut interner2 = Interner::new();
    let lib2 = library(&mut interner2);
    let programs2 = probing_queries(&mut interner2, 6);
    let full = consolidate_many(
        &programs2,
        &mut interner2,
        &cm,
        &lib2,
        &Options::default(),
        false,
    )
    .expect("unlimited run");
    assert_eq!(full.stats.tier, DegradationTier::Full);
    assert!(full.stats.entailment_queries > 0);
}

#[test]
fn zero_deadline_returns_immediately_with_sequential_plan() {
    let mut interner = Interner::new();
    let lib = library(&mut interner);
    let programs = probing_queries(&mut interner, 8);
    let cm = CostModel::default();
    let opts = Options {
        budget: ConsolidationBudget::default().with_deadline(Duration::ZERO),
        ..Options::default()
    };
    let start = std::time::Instant::now();
    let merged = consolidate_many(&programs, &mut interner, &cm, &lib, &opts, true)
        .expect("deadline exhaustion must not error");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "an expired deadline must not hang"
    );
    assert_eq!(merged.stats.tier, DegradationTier::Sequential);
    assert_eq!(merged.stats.pairs_degraded, 7, "all pairs concatenate");
    let qs = QuerySet::compile_many(&programs, &cm, &|f| lib.cost(f))
        .expect("many compiles")
        .with_consolidated(&merged.program, &cm, &|f| lib.cost(f), merged.elapsed)
        .expect("degraded plan compiles");
    check_sweep(&programs, &merged.program, &mut interner);

    // The degraded plan still compiles and runs on the engine.
    let env = ScalarEnv::new(1, lib);
    let records = scalar_records(0..50);
    let oracle = Oracle::new(&env, &records, &programs, &interner, DEFAULT_FUEL);
    for mode in [ExecMode::Many, ExecMode::Consolidated] {
        let run = Engine::new(2)
            .run(&env, &records, &qs, mode, true)
            .expect("the sequential plan runs");
        check(&run, &oracle, &format!("{mode:?}"));
    }
}

#[test]
fn budgeted_pair_never_exceeds_query_ceiling_by_much() {
    // The ceiling is enforced at charge time, so the total charged is
    // exactly the ceiling; cached entailments answered afterwards are free
    // and sound.
    let mut interner = Interner::new();
    let lib = library(&mut interner);
    let programs = probing_queries(&mut interner, 4);
    let cm = CostModel::default();
    for ceiling in [0u64, 5, 25, 100] {
        let opts = Options {
            budget: ConsolidationBudget::default().with_max_solver_queries(ceiling),
            ..Options::default()
        };
        let merged = consolidate_many(&programs.clone(), &mut interner, &cm, &lib, &opts, false)
            .expect("never errors");
        check_sweep(&programs, &merged.program, &mut interner);
    }
}

// ---------------------------------------------------------------------------
// Solver Unknowns (injected or budget-induced) never flip verdicts.
// ---------------------------------------------------------------------------

#[test]
fn injected_unknowns_only_lose_rewrites_never_soundness() {
    let mut interner = Interner::new();
    let lib = library(&mut interner);
    let cm = CostModel::default();
    // Force Unknown on a sweep of early check indices; whatever entailments
    // those checks backed are simply not proved, so the merged program may
    // share less — but must behave identically.
    for k in 0..12u64 {
        let programs = probing_queries(&mut interner, 3);
        let opts = Options {
            solver: udf_smt::Solver::new().with_unknown_at([k, k + 1, k + 2]),
            ..Options::default()
        };
        let merged = consolidate_many(&programs, &mut interner, &cm, &lib, &opts, false)
            .expect("unknown injection must not error");
        check_sweep(&programs, &merged.program, &mut interner);
    }
}

#[test]
fn starved_theory_limits_never_flip_entailment_verdicts() {
    // The consolidation-layer extension of the solver's
    // `unknown_on_tiny_budgets_never_unsound` test: with starved theory
    // budgets every entailment may come back unproved, but the merged
    // program still satisfies the notification-equivalence oracle.
    let mut interner = Interner::new();
    let lib = library(&mut interner);
    let cm = CostModel::default();
    let mut starved = udf_smt::Solver::new();
    starved.theory_limits.lia_budget = 1;
    starved.max_final_checks = 2;
    let programs = probing_queries(&mut interner, 4);
    let opts = Options {
        solver: starved,
        ..Options::default()
    };
    let merged = consolidate_many(&programs, &mut interner, &cm, &lib, &opts, false)
        .expect("starved solver must not error");
    check_sweep(&programs, &merged.program, &mut interner);
}

// ---------------------------------------------------------------------------
// The oracle's cost half bites on its own.
// ---------------------------------------------------------------------------

/// A merged plan that notifies correctly but re-does work is still wrong by
/// Thm. 1. The family shares nothing (`probe` in one query, `half` in the
/// other), so its merged plan costs exactly Σ and has no slack to hide a
/// redundant call in: prepending one `probe(v)` keeps every notification
/// and must fail the cost half alone.
#[test]
fn a_redundant_call_in_a_zero_slack_plan_fails_only_the_cost_half() {
    let mut interner = Interner::new();
    let lib = library(&mut interner);
    let programs: Vec<Program> = [
        "program a @0 (v) { x := probe(v); if (x > 10) { notify true; } else { notify false; } }",
        "program b @1 (v) { y := half(v); if (y > 5) { notify true; } else { notify false; } }",
    ]
    .iter()
    .map(|src| udf_lang::parse::parse_program(src, &mut interner).expect("parses"))
    .collect();
    let cm = CostModel::default();
    let merged = consolidate_many(
        &programs,
        &mut interner,
        &cm,
        &lib,
        &Options::default(),
        false,
    )
    .expect("consolidates")
    .program;
    let env = ScalarEnv::new(1, lib);
    let records = scalar_records(-5..60);
    let costs = check_merged(&programs, &merged, &env, &records, &interner);
    assert!(costs.iter().all(|(m, s)| m == s), "zero slack: {costs:?}");

    let mut mutated = merged.clone();
    let call = IntExpr::Call(
        interner.intern("probe"),
        vec![IntExpr::Var(merged.params[0])],
    );
    let redundant = Stmt::Assign(interner.intern("redundant"), call);
    mutated.body = redundant.then(merged.body);
    let verdict = judge_merged(&programs, &mutated, &env, &records, &interner);
    assert_eq!(
        verdict.notify, None,
        "the redundant call changes no notification"
    );
    assert!(
        verdict.cost.is_some(),
        "the cost half must catch the redundant call"
    );
}

//! The observability layer must agree with the structured results it
//! shadows: recorder counters are incremented at the same sites as
//! [`consolidate::ConsolidationStats`] and the engine's
//! [`naiad_lite::engine::QuarantineReport`], so any drift between the two is
//! an instrumentation bug. These tests pin the contract, and also pin that
//! turning `--explain` tracing on does not change the consolidated plan.

// Integration tests may unwrap freely; the clippy gate denies it in src/.
#![allow(clippy::unwrap_used)]

use consolidate::Options;
use naiad_lite::engine::{Engine, ExecMode, QuerySet};
use naiad_lite::env::ScalarEnv;
use naiad_lite::{FaultKind, FaultPlan, FaultyEnv};
use udf_lang::ast::Program;
use udf_lang::cost::{CostModel, UniformFnCost};
use udf_lang::intern::Interner;
use udf_lang::parse::parse_programs;
use udf_lang::FnLibrary;
use udf_obs::{names, RecorderCell};

/// A small family with shared structure: overlapping thresholds trigger
/// If3/If5 merging, repeated guards hit the entailment memo, and the guard
/// pairs exercise the solver.
fn family(interner: &mut Interner) -> Vec<Program> {
    parse_programs(
        "program q0 @0 (v, w) {
             if (v > 10) { notify true; } else { notify false; }
         }
         program q1 @1 (v, w) {
             if (v > 10) { if (w > 3) { notify true; } else { notify false; } }
             else { notify false; }
         }
         program q2 @2 (v, w) {
             if (v > 25) { notify true; } else { notify false; }
         }
         program q3 @3 (v, w) {
             x := v + w;
             if (x > 10) { notify true; } else { notify false; }
         }",
        interner,
    )
    .expect("family parses")
}

fn consolidate_with(opts: &Options) -> (consolidate::Consolidated, String) {
    let mut interner = Interner::new();
    let programs = family(&mut interner);
    let cm = CostModel::default();
    let merged = consolidate::consolidate_many(
        &programs,
        &mut interner,
        &cm,
        &UniformFnCost(20),
        opts,
        false,
    )
    .expect("family consolidates");
    let text = udf_lang::pretty::program(&merged.program, &interner);
    (merged, text)
}

#[test]
fn recorder_counters_match_consolidation_stats() {
    let opts = Options {
        recorder: RecorderCell::memory(),
        ..Options::default()
    };
    let (merged, _) = consolidate_with(&opts);
    let snap = opts.recorder.snapshot().expect("memory recorder snapshots");
    let s = &merged.stats;

    // Every pair below is (recorder metric, stats field) incremented at the
    // same source line; the assertion failing means an emission site moved.
    let pairs: &[(&str, u64)] = &[
        (names::PAIRS, s.pairs_consolidated),
        (names::PAIRS_DEGRADED, s.pairs_degraded),
        (names::ENTAIL_QUERIES, s.entailment_queries),
        (names::ENTAIL_MEMO_HITS, s.memo_hits),
        (names::ENTAIL_COUNTERMODEL_HITS, s.countermodel_hits),
        (names::ENTAIL_COUNTERMODEL_REJECTED, s.countermodel_rejected),
        (names::SMT_CHECKS, s.solver.checks),
        (names::SMT_THEORY_CHECKS, s.solver.theory_checks),
        (names::SMT_THEORY_CONFLICTS, s.solver.theory_conflicts),
        (names::SMT_MINIMIZED_LITERALS, s.solver.minimized_literals),
        (names::SMT_CORE_LITERALS, s.solver.core_literals),
        (names::SMT_CORE_FALLBACKS, s.solver.core_fallbacks),
        (names::SMT_UNKNOWN, s.solver.unknowns),
        (names::SMT_SAT_DECISIONS, s.solver.sat_decisions),
        (names::SMT_SAT_CONFLICTS, s.solver.sat_conflicts),
        (names::SMT_SAT_PROPAGATIONS, s.solver.sat_propagations),
        (names::SMT_SIMPLEX_PIVOTS, s.solver.simplex_pivots),
        (names::SMT_THEORY_ROUNDS, s.solver.theory_rounds),
        (names::RULE_IF3, s.rules.if3),
        (names::RULE_IF4, s.rules.if4),
        (names::RULE_IF5, s.rules.if5),
        (names::RULE_LOOP2, s.rules.loop2),
        (names::RULE_LOOP3, s.rules.loop3),
        (names::RULE_LOOP_SEQ, s.rules.loop_seq),
        (names::RULE_DEPTH_FALLBACK, s.rules.depth_fallbacks),
        (names::RULE_BUDGET_FALLBACK, s.rules.budget_fallbacks),
    ];
    for (metric, stat) in pairs {
        assert_eq!(
            snap.counter(metric),
            *stat,
            "recorder counter {metric} drifted from ConsolidationStats"
        );
    }
    // If1 and If2 share one stats field.
    assert_eq!(
        snap.counter(names::RULE_IF1) + snap.counter(names::RULE_IF2),
        s.rules.if_eliminated,
        "if1+if2 counters drifted from rules.if_eliminated"
    );
    // The four solver-phase histograms nest under `smt.check_ns`: one
    // sample per event the matching counter counts, and together no more
    // time than the checks they ran inside.
    let hist = |name: &str| snap.histogram(name).cloned().unwrap_or_default();
    let check = hist(names::SMT_CHECK_NS);
    assert_eq!(check.count, s.solver.checks);
    assert_eq!(hist(names::SMT_THEORY_NS).count, s.solver.theory_checks);
    assert_eq!(
        hist(names::SMT_MINIMIZE_NS).count,
        s.solver.theory_conflicts
    );
    let (cnf, sat) = (hist(names::SMT_CNF_NS), hist(names::SMT_SAT_NS));
    assert!(
        cnf.count > 0 && cnf.count <= check.count,
        "one CNF per non-trivial check"
    );
    assert!(
        sat.count >= cnf.count,
        "every compiled check searches at least once"
    );
    let phases: u64 = [
        names::SMT_CNF_NS,
        names::SMT_SAT_NS,
        names::SMT_THEORY_NS,
        names::SMT_MINIMIZE_NS,
    ]
    .iter()
    .map(|n| hist(n).sum)
    .sum();
    assert!(
        phases <= check.sum,
        "phases {phases} ns exceed checks {} ns",
        check.sum
    );
    // Each blocking clause has at least one literal; none fell back here.
    assert!(s.solver.core_literals >= s.solver.theory_conflicts);
    assert_eq!(
        s.solver.core_fallbacks, 0,
        "an explanation was not refuted on its own"
    );
    // Sanity: the family is non-trivial — work actually happened.
    assert!(s.entailment_queries > 0, "family produced no queries");
    assert!(s.solver.checks > 0, "family never reached the solver");
    assert!(
        s.solver.theory_conflicts > 0,
        "family never hit a theory conflict"
    );
}

#[test]
fn engine_quarantine_counters_match_report() {
    naiad_lite::fault::silence_injected_panics();
    let mut interner = Interner::new();
    let probe = interner.intern("probe");
    let mut lib = FnLibrary::new();
    lib.register(probe, "probe", 1, 10, |args| args[0]);
    let programs = parse_programs(
        "program p0 @0 (v) {
             if (probe(v) > 4) { notify true; } else { notify false; }
         }",
        &mut interner,
    )
    .unwrap();
    let cm = CostModel::default();
    let qs = QuerySet::compile_many(&programs, &cm, &|_| 10).unwrap();

    // Records 3 and 5 fault (library error / panic); everything else is
    // healthy. The recorder's quarantine counters must mirror the report.
    let mut plan = FaultPlan::none();
    plan.insert(3, FaultKind::LibError);
    plan.insert(5, FaultKind::Panic);
    let env = FaultyEnv::new(ScalarEnv::new(1, lib), probe, plan);
    let records = FaultyEnv::<ScalarEnv>::index_records((0..16).map(|v| vec![v]));

    let recorder = RecorderCell::memory();
    let engine = Engine::new(2)
        .with_error_policy(naiad_lite::ErrorPolicy::Quarantine {
            max_errors: usize::MAX,
        })
        .with_recorder(recorder.clone());
    let report = engine
        .run(&env, &records, &qs, ExecMode::Many, false)
        .expect("quarantine policy absorbs the faults");

    assert_eq!(report.quarantine.records_quarantined, 2);
    assert_eq!(report.quarantine.records(), vec![3, 5]);

    // JobReport::metrics is the same snapshot the recorder cell yields.
    let snap = report.metrics.expect("engine had a live recorder");
    assert_eq!(
        snap.counter(names::ENGINE_QUARANTINED),
        report.quarantine.records_quarantined as u64,
        "engine.quarantined.records drifted from the QuarantineReport"
    );
    assert_eq!(snap.counter(names::ENGINE_QUARANTINED_LIB), 1);
    assert_eq!(snap.counter(names::ENGINE_QUARANTINED_PANIC), 1);
    assert_eq!(snap.counter(names::ENGINE_QUARANTINED_OUT_OF_FUEL), 0);
    // Every record was attempted exactly once (quarantined ones included).
    assert_eq!(snap.counter(names::ENGINE_RECORDS), records.len() as u64);
    assert_eq!(
        snap.histogram(names::ENGINE_RECORD_NS).map(|h| h.count),
        Some(records.len() as u64)
    );
}

#[test]
fn explain_toggle_does_not_change_the_plan() {
    let (plain, plain_text) = consolidate_with(&Options::default());
    let explain_opts = Options {
        explain: true,
        ..Options::default()
    };
    let (traced, traced_text) = consolidate_with(&explain_opts);

    assert!(
        plain.explain.is_none(),
        "explain off must not build a report"
    );
    let report = traced.explain.expect("explain on must build a report");
    assert!(
        !report.rules_fired().is_empty(),
        "derivation must name rules"
    );

    // Tracing is observation only: the merged program and every counter the
    // Ω engine drives must be identical. Solver-internal search counters
    // (pivots, propagations) legitimately vary across runs with hash-map
    // iteration order, so they are excluded — but the number of checks the
    // engine issued is not allowed to move.
    assert_eq!(plain_text, traced_text, "explain changed the merged plan");
    assert_eq!(
        plain.stats.rules, traced.stats.rules,
        "explain changed the rules fired"
    );
    assert_eq!(
        plain.stats.entailment_queries,
        traced.stats.entailment_queries
    );
    assert_eq!(plain.stats.memo_hits, traced.stats.memo_hits);
    assert_eq!(
        plain.stats.countermodel_hits,
        traced.stats.countermodel_hits
    );
    assert_eq!(
        plain.stats.pairs_consolidated,
        traced.stats.pairs_consolidated
    );
    assert_eq!(plain.stats.pairs_degraded, traced.stats.pairs_degraded);
    assert_eq!(plain.stats.tier, traced.stats.tier);
    assert_eq!(plain.stats.solver.checks, traced.stats.solver.checks);
}

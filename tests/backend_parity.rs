// Integration tests may unwrap freely; the clippy gate denies it in src/.
#![allow(clippy::unwrap_used)]

//! Backend parity: the columnar batch executor is observationally
//! indistinguishable from the per-record reference interpreter.
//!
//! The engine's contract for [`naiad_lite::engine::ExecBackend`] is that the
//! backend knob changes *throughput only*. Every observable of a job —
//! per-query notification counts, missing totals, exact abstract cost,
//! quarantine report (entries, ordering, kinds, details, retry accounting),
//! and plan-guard verdicts — must be bit-identical between
//! `ExecBackend::PerRecord` and `ExecBackend::Columnar`, including under
//! injected library errors, UDF panics, fuel exhaustion mid-batch, and
//! transient faults drained by retry — and on every early exit of the policy
//! driver (fail-fast, quarantine overflow, a guard trip), where a batch has
//! already evaluated lanes the per-record path never reaches.

mod common;

use common::{check, library, probe_env, Oracle};
use naiad_lite::engine::{
    Engine, EngineConfig, EngineError, ErrorPolicy, ExecBackend, ExecMode, JobReport, QuerySet,
};
use naiad_lite::fault::{silence_injected_panics, FaultKind, FaultPlan, FaultyEnv};
use naiad_lite::{GuardAction, GuardPolicy, ScalarEnv, DEFAULT_FUEL};
use proptest::prelude::*;
use udf_lang::ast::Program;
use udf_lang::cost::CostModel;
use udf_lang::intern::{Interner, Symbol};
use udf_lang::library::Library;
use udf_obs::names;

/// Threshold queries with a data-dependent spin loop, so lanes of one batch
/// diverge (different trip counts) and fuel exhaustion can strike mid-loop.
fn queries(interner: &mut Interner, n: u32) -> Vec<Program> {
    (0..n)
        .map(|k| {
            udf_lang::parse::parse_program(
                &format!(
                    "program q{k} @{k} (v) {{
                         p := probe(v);
                         spin := half(p);
                         while (spin > 40) {{ spin := spin - 1; }}
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

/// Two queries whose only call sits under a parameter guard, so a
/// pre-filter (`v >= 40`) is synthesized when asked for and skips the
/// records below it under either backend.
fn guarded_queries(interner: &mut Interner, n: u32) -> Vec<Program> {
    (0..n)
        .map(|k| {
            udf_lang::parse::parse_program(
                &format!(
                    "program g{k} @{k} (v) {{
                         if (v >= {}) {{
                             p := probe(v);
                             if (p > 70) {{ notify true; }} else {{ notify false; }}
                         }} else {{ notify false; }}
                     }}",
                    40 + k * 10
                ),
                interner,
            )
            .expect("test program parses")
        })
        .collect()
}

/// A hand-merged plan for `guarded_queries(_, 2)` that is wrong on exactly
/// one input, `v == 96`, where it answers `false` for query 0.
const DIVERGENT_PLAN: &str = "program wrong @9 (v) {
    if (v >= 40) {
        p := probe(v);
        if (v == 96) { notify @0 false; } else {
            if (p > 70) { notify @0 true; } else { notify @0 false; }
        }
        if (v >= 50) {
            if (p > 70) { notify @1 true; } else { notify @1 false; }
        } else { notify @1 false; }
    } else { notify @0 false; notify @1 false; }
}";

struct Workload {
    env: FaultyEnv<ScalarEnv>,
    records: Vec<(usize, Vec<i64>)>,
    queries: QuerySet,
    /// The program `queries.consolidated` was compiled from.
    plan: Program,
    /// The `probe` library function.
    probe: Symbol,
    /// The sources, for the oracle.
    programs: Vec<Program>,
    interner: Interner,
}

impl Workload {
    /// The sources on the interpreter at `fuel` (the engine's default when
    /// `None`). [`run_both`] resets the transient faults it consumes.
    fn oracle(&self, fuel: Option<u64>) -> Oracle {
        let fuel = fuel.unwrap_or(DEFAULT_FUEL);
        Oracle::new(
            &self.env,
            &self.records,
            &self.programs,
            &self.interner,
            fuel,
        )
    }
}

fn workload(n_queries: u32, n_records: usize, faults: FaultPlan) -> Workload {
    build(queries, n_queries, n_records, faults, false, None)
}

/// `guarded_queries` over 600 records (several batches per shard at one or
/// two workers), with or without a pre-filter, optionally executing `plan`
/// in place of the consolidated program.
fn guarded_workload(faults: FaultPlan, prefilter: bool, plan: Option<&str>) -> Workload {
    let w = build(guarded_queries, 2, 600, faults, prefilter, plan);
    assert_eq!(
        w.queries.prefilter.is_some(),
        prefilter,
        "pre-filter attached"
    );
    w
}

fn build(
    make: fn(&mut Interner, u32) -> Vec<Program>,
    n_queries: u32,
    n_records: usize,
    faults: FaultPlan,
    prefilter: bool,
    plan: Option<&str>,
) -> Workload {
    let mut interner = Interner::new();
    let lib = library(&mut interner);
    let programs = make(&mut interner, n_queries);
    let cm = CostModel::default();
    let merged = consolidate::consolidate_many(
        &programs,
        &mut interner,
        &cm,
        &lib,
        &consolidate::Options {
            prefilter,
            ..consolidate::Options::default()
        },
        false,
    )
    .expect("test queries consolidate");
    let plan = match plan {
        Some(src) => udf_lang::parse::parse_program(src, &mut interner).expect("plan parses"),
        None => merged.program.clone(),
    };
    let mut queries = QuerySet::compile_many(&programs, &cm, &|f| lib.cost(f))
        .expect("many compiles")
        .with_consolidated(&plan, &cm, &|f| lib.cost(f), Default::default())
        .expect("merged compiles");
    if let Some(pf) = &merged.prefilter {
        queries = queries
            .with_prefilter(&pf.cond, &plan, &cm, &|f| lib.cost(f))
            .expect("pre-filter compiles");
    }
    let probe = interner.intern("probe");
    let env = probe_env(&mut interner, faults);
    let records =
        FaultyEnv::<ScalarEnv>::index_records((0..n_records as i64).map(|v| vec![v % 97]));
    Workload {
        env,
        records,
        queries,
        plan,
        probe,
        programs,
        interner,
    }
}

/// Runs the workload once per backend with otherwise identical
/// configuration, resetting the environment's transient-fault counters in
/// between (they are consumable state, not part of the workload).
fn run_both(
    w: &Workload,
    mode: ExecMode,
    fuel: Option<u64>,
    max_retries: u32,
    guard: GuardPolicy,
) -> (JobReport, JobReport) {
    let run = |backend: ExecBackend| {
        w.env.reset_transients();
        Engine::new(3)
            .with_config(EngineConfig {
                error_policy: ErrorPolicy::Quarantine { max_errors: 4096 },
                backend,
                max_retries,
                guard,
                fuel,
                ..EngineConfig::default()
            })
            .run(&w.env, &w.records, &w.queries, mode, true)
            .expect("quarantine policy never fails the job")
    };
    (run(ExecBackend::PerRecord), run(ExecBackend::Columnar))
}

/// Asserts every observable of the two reports is bit-identical. Wall-clock
/// and metrics snapshots are excluded by construction (neither is part of
/// the backend contract).
fn assert_parity(per_record: &JobReport, columnar: &JobReport, ctx: &str) {
    assert_eq!(per_record.counts, columnar.counts, "{ctx}: counts");
    assert_eq!(per_record.missing, columnar.missing, "{ctx}: missing");
    assert_eq!(per_record.cost, columnar.cost, "{ctx}: cost");
    assert_eq!(per_record.records, columnar.records, "{ctx}: records");
    assert_eq!(
        per_record.quarantine, columnar.quarantine,
        "{ctx}: quarantine report"
    );
    let g = |r: &JobReport| {
        r.guard
            .as_ref()
            .map(|g| (g.shadow_runs, g.mismatches, g.demoted))
    };
    assert_eq!(g(per_record), g(columnar), "{ctx}: guard verdict");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6 })]

    /// Seeded chaos sweep: random fault plans over all four fault kinds, a
    /// fuel budget tight enough that burn records exhaust it mid-batch, and
    /// retries that drain some (not all) transients. Both execution modes,
    /// both backends, every observable identical.
    #[test]
    fn backends_agree_under_chaos(
        seed in any::<u64>(),
        n_faults in 0usize..24,
        fuel in prop_oneof![Just(600u64), Just(5_000u64), Just(50_000u64)],
        retries in 0u32..3,
    ) {
        silence_injected_panics();
        let faults = FaultPlan::seeded_kinds(
            seed,
            96,
            n_faults,
            &[
                FaultKind::LibError,
                FaultKind::Panic,
                FaultKind::FuelBurn,
                FaultKind::Transient(2),
            ],
        );
        let w = workload(4, 96, faults);
        let oracle = w.oracle(Some(fuel));
        for mode in [ExecMode::Many, ExecMode::Consolidated] {
            let (p, c) = run_both(
                &w,
                mode,
                Some(fuel),
                retries,
                GuardPolicy::default(),
            );
            let ctx = format!("seed {seed} mode {mode:?}");
            assert_parity(&p, &c, &ctx);
            check(&p, &oracle, &ctx);
        }
    }

    /// The plan guard's shadow sampler sees the same records and reaches the
    /// same verdicts whichever backend produced the primary outputs (the
    /// shadow itself always runs the sequential reference).
    #[test]
    fn guard_verdicts_agree(seed in any::<u64>(), n_faults in 0usize..12) {
        silence_injected_panics();
        let faults = FaultPlan::seeded_kinds(
            seed,
            64,
            n_faults,
            &[FaultKind::LibError, FaultKind::Transient(1)],
        );
        let w = workload(3, 64, faults);
        let guard = GuardPolicy {
            on_mismatch: GuardAction::LogOnly,
            ..GuardPolicy::audit_all()
        };
        let (p, c) = run_both(
            &w,
            ExecMode::Consolidated,
            None,
            2,
            guard,
        );
        assert_parity(&p, &c, &format!("guarded seed {seed}"));
        check(&p, &w.oracle(None), &format!("guarded seed {seed}"));
        let g = p.guard.expect("guard was active");
        prop_assert!(g.shadow_runs > 0, "audit_all must shadow records");
        prop_assert_eq!(g.mismatches, 0, "Theorem 1: consolidated == sequential");
    }
}

/// Deterministic spot check: a fuel budget that lands *inside* the spin
/// loop quarantines the same records with the same per-entry detail under
/// both backends — the batch executor's fuel accounting is exact, not
/// approximate.
#[test]
fn fuel_exhaustion_mid_batch_is_exact() {
    let w = workload(4, 128, FaultPlan::none());
    let mut quarantined = 0usize;
    for fuel in [5, 12, 20, 35, 60, 100, 350] {
        let (p, c) = run_both(&w, ExecMode::Many, Some(fuel), 0, GuardPolicy::default());
        assert_parity(&p, &c, &format!("fuel {fuel}"));
        check(&p, &w.oracle(Some(fuel)), &format!("fuel {fuel}"));
        quarantined += p.quarantine.records_quarantined;
    }
    assert!(quarantined > 0, "the sweep must actually exhaust fuel");
}

/// Deterministic spot check: transients that exhaust the retry budget carry
/// exact per-entry retry counts; transients that drain recover with
/// identical recovery accounting.
#[test]
fn retry_accounting_is_identical() {
    silence_injected_panics();
    let mut plan = FaultPlan::none();
    for r in [3usize, 17, 18, 40, 77] {
        plan.insert(r, FaultKind::Transient(2));
    }
    plan.insert(50, FaultKind::Panic);
    let w = workload(3, 96, plan);
    for retries in [0u32, 1, 2, 3] {
        let (p, c) = run_both(
            &w,
            ExecMode::Consolidated,
            None,
            retries,
            GuardPolicy::default(),
        );
        assert_parity(&p, &c, &format!("retries {retries}"));
        check(&p, &w.oracle(None), &format!("retries {retries}"));
        assert_eq!(
            p.quarantine.retry_attempts, c.quarantine.retry_attempts,
            "retries {retries}: attempts"
        );
        assert_eq!(
            p.quarantine.records_recovered, c.quarantine.records_recovered,
            "retries {retries}: recovered"
        );
    }
}

/// The recorder counters the policy driver emits on every exit path.
const DRIVER_COUNTERS: [&str; 4] = [
    names::ENGINE_RECORDS,
    names::PREFILTER_RECORDS_SKIPPED,
    names::PREFILTER_RECORDS_PASSED,
    names::ENGINE_RETRIES,
];
const SKIPPED: usize = 1;
const RETRIES: usize = 3;

/// Runs a job that is expected to end early and returns its error with the
/// driver's counters at that point.
fn run_to_error(
    w: &Workload,
    backend: ExecBackend,
    workers: usize,
    error_policy: ErrorPolicy,
    guard: GuardPolicy,
) -> (EngineError, [u64; 4]) {
    w.env.reset_transients();
    let recorder = udf_obs::RecorderCell::memory();
    let err = Engine::new(workers)
        .with_config(EngineConfig {
            error_policy,
            backend,
            max_retries: 1,
            guard,
            recorder: recorder.clone(),
            ..EngineConfig::default()
        })
        .run(&w.env, &w.records, &w.queries, ExecMode::Consolidated, true)
        .expect_err("the job must end early");
    let snap = recorder.snapshot().expect("memory recorder snapshots");
    (err, DRIVER_COUNTERS.map(|c| snap.counter(c)))
}

/// Faults on every fifth record that reaches `probe` (`v >= 40`): some
/// recover within the single retry, the rest fault for good.
fn reachable_faults() -> FaultPlan {
    let kinds = [
        FaultKind::Transient(1),
        FaultKind::LibError,
        FaultKind::Transient(2),
        FaultKind::Panic,
    ];
    let mut plan = FaultPlan::none();
    for (i, r) in (0..600usize)
        .filter(|r| r % 97 >= 40)
        .step_by(5)
        .enumerate()
    {
        plan.insert(r, kinds[i % kinds.len()]);
    }
    plan
}

/// Fail-fast and quarantine overflow leave a columnar batch half replayed:
/// the error (same first record, same overflow count) and the driver's
/// counters must not show it.
#[test]
fn early_exits_are_identical() {
    silence_injected_panics();
    for prefilter in [false, true] {
        let w = guarded_workload(reachable_faults(), prefilter, None);
        for workers in [1usize, 2, 8] {
            for policy in [
                ErrorPolicy::FailFast,
                ErrorPolicy::Quarantine { max_errors: 3 },
            ] {
                let run = |b| run_to_error(&w, b, workers, policy, GuardPolicy::default());
                let (p, c) = (run(ExecBackend::PerRecord), run(ExecBackend::Columnar));
                let ctx = format!("prefilter {prefilter} workers {workers} {policy:?}");
                assert_eq!(p, c, "{ctx}");
                match (policy, &p.0) {
                    (ErrorPolicy::FailFast, EngineError::Record { .. })
                    | (ErrorPolicy::Quarantine { .. }, EngineError::TooManyErrors { .. }) => {}
                    (_, other) => panic!("{ctx}: unexpected error {other:?}"),
                }
                assert!(p.1[RETRIES] > 0, "{ctx}: transient faults were retried");
                // (A shard that fails fast returns before its end-of-shard
                // counters; an overflowing one emits them.)
                if policy != ErrorPolicy::FailFast {
                    assert_eq!(p.1[SKIPPED] > 0, prefilter, "{ctx}: records skipped");
                }
            }
        }
    }
}

/// A guard trip under `FailFast` stops the driver mid-batch. The plan
/// diverges on exactly one record, so the incident is the same for every
/// worker count — except `shadow_runs` and the counters, which depend on
/// how far the other shards got before they saw the trip and are compared
/// only for the single-worker run.
#[test]
fn guard_fail_fast_trip_is_identical() {
    let guard = GuardPolicy {
        on_mismatch: GuardAction::FailFast,
        ..GuardPolicy::audit_all()
    };
    for prefilter in [false, true] {
        let mut w = guarded_workload(FaultPlan::none(), prefilter, Some(DIVERGENT_PLAN));
        for (r, (_, rec)) in w.records.iter_mut().enumerate() {
            rec[0] = if r == 333 { 96 } else { r as i64 % 90 };
        }
        for workers in [1usize, 2, 8] {
            let run = |b| {
                let (err, counters) = run_to_error(&w, b, workers, ErrorPolicy::FailFast, guard);
                let EngineError::GuardTripped { mut incident } = err else {
                    panic!("expected GuardTripped, got {err:?}");
                };
                if workers > 1 {
                    incident.shadow_runs = 0;
                }
                (incident, (workers == 1).then_some(counters))
            };
            let (p, c) = (run(ExecBackend::PerRecord), run(ExecBackend::Columnar));
            assert_eq!(p, c, "prefilter {prefilter} workers {workers}");
            assert_eq!(p.0.mismatches, 1);
            assert_eq!(p.0.examples[0].record, 333);
        }
    }
}

/// A hand-made pre-filter condition outside the direct evaluator's
/// fragment (here: it calls the library) attaches no pre-filter at all, and
/// the run is bit-identical to one that never asked for a pre-filter.
#[test]
fn call_bearing_prefilter_condition_fails_open() {
    use udf_lang::ast::{BoolExpr, CmpOp, IntExpr};
    silence_injected_panics();
    let off = guarded_workload(reachable_faults(), false, None);
    let mut hand_made = guarded_workload(reachable_faults(), false, None);
    let cond = BoolExpr::Cmp(
        CmpOp::Le,
        IntExpr::Const(40),
        IntExpr::Call(
            hand_made.probe,
            vec![IntExpr::Var(hand_made.plan.params[0])],
        ),
    );
    hand_made.queries = hand_made
        .queries
        .with_prefilter(&cond, &hand_made.plan, &CostModel::default(), &|_| 20)
        .expect("rejection is not an error");
    assert!(
        hand_made.queries.prefilter.is_none(),
        "no pre-filter attached"
    );
    let run = |w: &Workload| run_both(w, ExecMode::Consolidated, None, 1, GuardPolicy::default());
    let (op, oc) = run(&off);
    let (hp, hc) = run(&hand_made);
    assert!(!op.quarantine.is_clean(), "the faults must bite");
    check(&op, &off.oracle(None), "off per-record");
    for (r, ctx) in [
        (&oc, "off columnar"),
        (&hp, "hand-made per-record"),
        (&hc, "hand-made columnar"),
    ] {
        assert_parity(&op, r, ctx);
        assert_eq!(r.prefilter_skipped, 0, "{ctx}: skipped");
    }
}

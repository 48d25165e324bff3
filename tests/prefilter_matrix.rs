// Integration tests may unwrap freely; the clippy gate denies it in src/.
#![allow(clippy::unwrap_used)]

//! The pushdown matrix: a synthesized pre-filter must be *unobservable*.
//!
//! For random query mixes (param-only guards, guarded library calls, and
//! unguarded calls that force the verifier to reject), random records, and a
//! seeded fault plan, executing with pushdown on must reproduce pushdown-off
//! bit-for-bit on every observable — per-query counts, missing totals, the
//! quarantine report, and the plan-guard verdict (a full `audit_all` shadow
//! audit with zero mismatches) — across both execution backends and worker
//! counts 1, 2, and 8. Only `prefilter_skipped` and the saved cost may
//! differ.
//!
//! Also here: the unsound-candidate regression (a family whose notify-true
//! paths sit under *negated* guards must either get a correctly negated
//! pre-filter or none at all — never the naive one), and the cache
//! round-trip (a plan-cache hit rehydrates the pre-filter bit-for-bit).

mod common;

use common::{check, Oracle};

use proptest::prelude::*;
use udf_lang::cost::CostModel;
use udf_lang::intern::Interner;
use udf_lang::parse::parse_program;
use udf_lang::FnLibrary;

use naiad_lite::engine::{Engine, EngineConfig, ExecBackend, ExecMode, JobReport, QuerySet};
use naiad_lite::fault::{FaultKind, FaultPlan, FaultyEnv};
use naiad_lite::{ErrorPolicy, GuardAction, GuardPolicy, ScalarEnv, DEFAULT_FUEL};
use plan_cache::{consolidate_many_cached, PlanCache, PlanOutcome};
use udf_lang::library::Library;

/// Consolidates `programs` through `cache` for `backend`, then compiles the
/// per-query programs, the merged plan and its pre-filter into one set.
fn compile_cached(
    cache: &PlanCache,
    programs: &[udf_lang::ast::Program],
    interner: &mut Interner,
    lib: &FnLibrary,
    opts: &consolidate::Options,
    backend: ExecBackend,
) -> (QuerySet, consolidate::Consolidated, PlanOutcome) {
    let cm = CostModel::default();
    let (merged, outcome) =
        consolidate_many_cached(cache, programs, interner, &cm, lib, opts, false, backend).unwrap();
    let fn_cost = |f| lib.cost(f);
    let mut qs = QuerySet::compile_many(programs, &cm, &fn_cost)
        .and_then(|qs| qs.with_consolidated(&merged.program, &cm, &fn_cost, merged.elapsed))
        .unwrap();
    if let Some(pf) = &merged.prefilter {
        qs = qs
            .with_prefilter(&pf.cond, &merged.program, &cm, &fn_cost)
            .unwrap();
    }
    (qs, merged, outcome)
}

/// One query of the mix. `a` and `b` are the two record fields.
#[derive(Clone, Debug)]
enum Shape {
    /// `a >= k` — param-only, always skippable.
    ParamOnly { k: i64 },
    /// `a >= k` nesting `probe(b) > t` — the PLDI shape: the guard keeps the
    /// call unreachable, so the verifier can prove the skip sound.
    GuardedCall { k: i64, t: i64 },
    /// `probe(a) > t` with no guard — every path reaches the call, so the
    /// record-wide candidate collapses to `true` and synthesis must reject
    /// (fail open: no pre-filter, zero behavior change).
    UnguardedCall { t: i64 },
}

fn shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        (-30i64..30).prop_map(|k| Shape::ParamOnly { k }),
        (-30i64..30, -50i64..50).prop_map(|(k, t)| Shape::GuardedCall { k, t }),
        (-50i64..50).prop_map(|t| Shape::UnguardedCall { t }),
    ]
}

fn source(id: usize, s: &Shape) -> String {
    match s {
        Shape::ParamOnly { k } => format!(
            "program p{id} @{id} (a, b) {{
                 if (a >= {k}) {{ notify true; }} else {{ notify false; }}
             }}"
        ),
        Shape::GuardedCall { k, t } => format!(
            "program p{id} @{id} (a, b) {{
                 if (a >= {k}) {{
                     if (probe(b) > {t}) {{ notify true; }} else {{ notify false; }}
                 }} else {{ notify false; }}
             }}"
        ),
        Shape::UnguardedCall { t } => format!(
            "program p{id} @{id} (a, b) {{
                 if (probe(a) > {t}) {{ notify true; }} else {{ notify false; }}
             }}"
        ),
    }
}

fn library(interner: &mut Interner) -> FnLibrary {
    let probe = interner.intern("probe");
    let mut lib = FnLibrary::new();
    lib.register(probe, "probe", 1, 20, |a| {
        a[0].wrapping_mul(3).wrapping_sub(7)
    });
    lib
}

/// Compiles the mix (pushdown on or off) and runs it under the fault plan.
/// Returns the report plus whether a pre-filter was attached.
#[allow(clippy::too_many_arguments)]
fn run(
    shapes: &[Shape],
    records: &[(usize, Vec<i64>)],
    faults: &[(usize, FaultKind)],
    prefilter: bool,
    backend: ExecBackend,
    workers: usize,
) -> (JobReport, bool) {
    let mut interner = Interner::new();
    let lib = library(&mut interner);
    let probe = interner.intern("probe");
    let programs: Vec<udf_lang::ast::Program> = shapes
        .iter()
        .enumerate()
        .map(|(id, s)| parse_program(&source(id, s), &mut interner).unwrap())
        .collect();
    let opts = consolidate::Options {
        prefilter,
        ..consolidate::Options::default()
    };
    let (qs, _, _) = compile_cached(
        &PlanCache::default(),
        &programs,
        &mut interner,
        &lib,
        &opts,
        backend,
    );
    let attached = qs.prefilter.is_some();

    let mut plan = FaultPlan::none();
    for &(r, kind) in faults {
        plan.insert(r, kind);
    }
    let env = FaultyEnv::new(ScalarEnv::new(2, lib), probe, plan);
    let oracle = Oracle::new(&env, records, &programs, &interner, DEFAULT_FUEL);
    env.reset_transients();
    let report = Engine::new(workers)
        .with_config(EngineConfig {
            error_policy: ErrorPolicy::Quarantine { max_errors: 1024 },
            // Full shadow audit: every record is differentially validated
            // against the sequential path; a pre-filter that changed any
            // verdict would surface here as a mismatch.
            guard: GuardPolicy {
                on_mismatch: GuardAction::LogOnly,
                ..GuardPolicy::audit_all()
            },
            max_retries: 3,
            backend,
            ..EngineConfig::default()
        })
        .run(&env, records, &qs, ExecMode::Consolidated, true)
        .unwrap();
    check(
        &report,
        &oracle,
        &format!("pushdown {prefilter}, {backend:?}, {workers} workers"),
    );
    (report, attached)
}

/// The observables that must be bit-identical between pushdown off and on.
fn observables(r: &JobReport) -> (Vec<u64>, Vec<u64>, usize, Vec<usize>, u64, u64, bool) {
    (
        r.counts.clone(),
        r.missing.clone(),
        r.records,
        r.quarantine.entries.iter().map(|e| e.record).collect(),
        r.guard.as_ref().map_or(0, |g| g.shadow_runs),
        r.guard.as_ref().map_or(0, |g| g.mismatches),
        r.guard.as_ref().is_some_and(|g| g.demoted),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pushdown_is_unobservable(
        shapes in prop::collection::vec(shape(), 2..6),
        recs in prop::collection::vec((-40i64..40, -40i64..40), 30..80),
        fault_at in prop::collection::vec((0usize..80, 0u8..4), 0..4),
        workers in prop_oneof![Just(1usize), Just(2), Just(8)],
    ) {
        let records = FaultyEnv::<ScalarEnv>::index_records(
            recs.iter().map(|&(a, b)| vec![a, b]),
        );
        let faults: Vec<(usize, FaultKind)> = fault_at
            .iter()
            .filter(|&&(r, _)| r < recs.len())
            .map(|&(r, kind)| {
                (r, match kind {
                    0 => FaultKind::LibError,
                    1 => FaultKind::Panic,
                    2 => FaultKind::FuelBurn,
                    _ => FaultKind::Transient(2),
                })
            })
            .collect();
        let skippable = shapes
            .iter()
            .all(|s| !matches!(s, Shape::UnguardedCall { .. }));
        for backend in [ExecBackend::PerRecord, ExecBackend::Columnar] {
            let (off, off_attached) = run(&shapes, &records, &faults, false, backend, workers);
            let (on, on_attached) = run(&shapes, &records, &faults, true, backend, workers);
            prop_assert!(!off_attached, "pushdown off must not attach a pre-filter");
            prop_assert_eq!(off.prefilter_skipped, 0);
            prop_assert_eq!(
                observables(&off),
                observables(&on),
                "backend {:?} workers {}",
                backend,
                workers
            );
            // Every mix containing an unguarded call must fail open; a
            // pure guarded mix gets a pre-filter (it may still skip zero
            // records if every record passes some guard).
            if !skippable {
                prop_assert!(!on_attached, "unguarded call must reject the candidate");
                prop_assert_eq!(on.prefilter_skipped, 0);
            } else {
                prop_assert!(on_attached, "guarded mix must synthesize a pre-filter");
            }
        }
    }
}

/// Unsound-candidate regression: notify-true under a *negated* guard. The
/// naive pre-filter `a >= 25` would skip exactly the records this query
/// selects; polarity-aware extraction must produce the complement instead,
/// and the verifier must agree — pushdown stays unobservable.
#[test]
fn negated_guard_is_not_skipped_wrongly() {
    let mut interner = Interner::new();
    let lib = library(&mut interner);
    let programs = vec![parse_program(
        "program neg @0 (a, b) {
             if (a >= 25) { notify false; } else { notify true; }
         }",
        &mut interner,
    )
    .unwrap()];
    let opts = consolidate::Options {
        prefilter: true,
        ..consolidate::Options::default()
    };
    let (qs, merged, _) = compile_cached(
        &PlanCache::default(),
        &programs,
        &mut interner,
        &lib,
        &opts,
        ExecBackend::PerRecord,
    );
    let records: Vec<Vec<i64>> = (0..60).map(|a| vec![a, 0]).collect();
    let env = ScalarEnv::new(2, library(&mut Interner::new()));
    let report = Engine::new(2)
        .run(&env, &records, &qs, ExecMode::Consolidated, true)
        .unwrap();
    let oracle = Oracle::new(&env, &records, &programs, &interner, DEFAULT_FUEL);
    check(&report, &oracle, "negated guard");
    // Records 0..25 notify true; a wrongly-polarized pre-filter would have
    // skipped them (skips broadcast all-false) and counted 0 here.
    assert_eq!(report.counts, vec![25]);
    if merged.prefilter.is_some() {
        // If a pre-filter verified, it may only have skipped records with
        // a >= 25 — i.e. at most 35 of the 60.
        assert!(
            report.prefilter_skipped <= 35,
            "{}",
            report.prefilter_skipped
        );
    } else {
        assert_eq!(report.prefilter_skipped, 0);
    }
}

/// A plan-cache hit must rehydrate the pre-filter: the second compile is
/// served from the cache (zero solver work) yet still attaches a guard
/// program that skips the same records.
#[test]
fn cache_hit_rehydrates_prefilter() {
    let shapes = [
        Shape::GuardedCall { k: 10, t: 0 },
        Shape::GuardedCall { k: 20, t: 5 },
        Shape::ParamOnly { k: 15 },
    ];
    let mut interner = Interner::new();
    let lib = library(&mut interner);
    let programs: Vec<udf_lang::ast::Program> = shapes
        .iter()
        .enumerate()
        .map(|(id, s)| parse_program(&source(id, s), &mut interner).unwrap())
        .collect();
    let opts = consolidate::Options {
        prefilter: true,
        ..consolidate::Options::default()
    };
    let cache = PlanCache::default();
    let compile = |interner: &mut Interner| {
        compile_cached(
            &cache,
            &programs,
            interner,
            &lib,
            &opts,
            ExecBackend::PerRecord,
        )
    };
    let (qs_cold, merged_cold, outcome_cold) = compile(&mut interner);
    assert_eq!(outcome_cold, PlanOutcome::Miss);
    assert!(qs_cold.prefilter.is_some(), "cold compile synthesizes");
    let (qs_warm, merged_warm, outcome_warm) = compile(&mut interner);
    assert_eq!(outcome_warm, PlanOutcome::Hit);
    assert!(
        qs_warm.prefilter.is_some(),
        "cache hit rehydrates the pre-filter"
    );
    assert_eq!(
        merged_warm.stats.solver.checks, 0,
        "hit does no solver work"
    );
    assert_eq!(
        merged_cold.prefilter.as_ref().map(|p| &p.cond),
        merged_warm.prefilter.as_ref().map(|p| &p.cond),
        "rehydrated condition is bit-identical"
    );

    // And the rehydrated guard behaves identically to the fresh one.
    let records: Vec<Vec<i64>> = (-40..40).map(|a| vec![a, a]).collect();
    let env = ScalarEnv::new(2, library(&mut Interner::new()));
    let run = |qs: &QuerySet| {
        Engine::new(2)
            .run(&env, &records, qs, ExecMode::Consolidated, false)
            .unwrap()
    };
    let cold = run(&qs_cold);
    let warm = run(&qs_warm);
    assert_eq!(cold.counts, warm.counts);
    assert_eq!(cold.prefilter_skipped, warm.prefilter_skipped);
    assert!(
        cold.prefilter_skipped > 0,
        "records below every guard are skipped"
    );
}

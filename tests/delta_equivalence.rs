//! Delta-consolidation equivalence: tree surgery on a live merged plan
//! must be observationally indistinguishable from re-running the full Ω
//! engine on the final query set (Theorem 1 transfers node by node), while
//! doing strictly less solver work for single-query churn.

mod common;

use common::{check, check_merged, scalar_records, Oracle};
use consolidate::{consolidate_many, DeltaPlan, Options};
use naiad_lite::engine::{Engine, ErrorPolicy, ExecMode, QuerySet};
use naiad_lite::fault::{silence_injected_panics, FaultKind, FaultPlan, FaultyEnv};
use naiad_lite::ScalarEnv;
use proptest::prelude::*;
use udf_lang::ast::{ProgId, Program};
use udf_lang::cost::CostModel;
use udf_lang::intern::Interner;
use udf_lang::{FnLibrary, Library};

fn library(interner: &mut Interner) -> FnLibrary {
    let inc = interner.intern("inc");
    let half = interner.intern("half");
    let mut lib = FnLibrary::new();
    lib.register(inc, "inc", 1, 15, |a| a[0] + 1);
    lib.register(half, "half", 1, 10, |a| a[0] / 2);
    lib
}

/// Threshold queries with nested predicates (`inc(v) > 3k`), so pairwise
/// consolidation has real entailments to prove and the solver-work
/// comparison below is not vacuous.
fn queries(interner: &mut Interner, n: u32) -> Vec<Program> {
    (0..n)
        .map(|k| {
            udf_lang::parse::parse_program(
                &format!(
                    "program q{k} @{k} (v) {{
                         p := inc(v);
                         h := half(p);
                         if (p > {} && h > 1) {{ notify true; }} else {{ notify false; }}
                     }}",
                    k * 3
                ),
                interner,
            )
            .expect("test program parses")
        })
        .collect()
}

/// Both halves of Thm. 1 for a delta plan on a value sweep covering every
/// threshold.
fn check_plan(plan: &DeltaPlan, sources: &[Program], interner: &mut Interner) {
    let env = ScalarEnv::new(1, library(interner));
    let merged = plan.program().expect("non-empty plan");
    check_merged(sources, merged, &env, &scalar_records(-5..75), interner);
}

/// The acceptance criterion: on a 21-query merged plan, a delta add (and a
/// delta remove) produces a notification-equivalent plan with strictly
/// fewer SMT checks than from-scratch `consolidate_many` on the same final
/// set.
#[test]
fn delta_add_and_remove_beat_scratch_on_solver_checks() {
    let mut interner = Interner::new();
    let lib = library(&mut interner);
    let cm = CostModel::default();
    let opts = Options::default();
    let programs = queries(&mut interner, 22);

    let mut plan = DeltaPlan::new();
    for p in &programs[..21] {
        plan.add(p, &mut interner, &cm, &lib, &opts)
            .expect("delta add");
    }
    assert_eq!(plan.len(), 21);
    check_plan(&plan, &programs[..21], &mut interner);

    // Add query #22 by delta: only the O(log n) spine re-consolidates.
    let add = plan
        .add(&programs[21], &mut interner, &cm, &lib, &opts)
        .expect("delta add of the 22nd query");
    let scratch22 = consolidate_many(&programs, &mut interner, &cm, &lib, &opts, false)
        .expect("scratch consolidation");
    assert!(
        scratch22.stats.solver.checks > 0,
        "comparison must not be vacuous"
    );
    assert!(
        add.stats.solver.checks < scratch22.stats.solver.checks,
        "delta add must do strictly fewer SMT checks: {} vs scratch {}",
        add.stats.solver.checks,
        scratch22.stats.solver.checks
    );
    assert!(
        (add.pairs_recomputed as usize) < 21,
        "delta add must not re-merge the whole tree"
    );
    check_plan(&plan, &programs, &mut interner);

    // Remove a mid-tree query by delta.
    let remove = plan
        .remove(ProgId(5), &interner, &cm, &lib, &opts)
        .expect("delta remove");
    let remaining: Vec<Program> = programs
        .iter()
        .filter(|p| p.id != ProgId(5))
        .cloned()
        .collect();
    let scratch = consolidate_many(&remaining, &mut interner, &cm, &lib, &opts, false)
        .expect("scratch consolidation of the remaining set");
    assert!(
        remove.stats.solver.checks < scratch.stats.solver.checks,
        "delta remove must do strictly fewer SMT checks: {} vs scratch {}",
        remove.stats.solver.checks,
        scratch.stats.solver.checks
    );
    check_plan(&plan, &remaining, &mut interner);
}

/// Compiles `programs` with `merged` attached, runs it over a faulty
/// environment held to Thm. 1 against `programs`, and returns (counts,
/// quarantined record indices).
fn run_with_faults(
    programs: &[Program],
    merged: &Program,
    interner: &mut Interner,
    fault_seed: u64,
) -> (Vec<u64>, Vec<usize>) {
    let lib = library(interner);
    let cm = CostModel::default();
    let qs = QuerySet::compile_many(programs, &cm, &|f| lib.cost(f))
        .expect("many compiles")
        .with_consolidated(merged, &cm, &|f| lib.cost(f), std::time::Duration::ZERO)
        .expect("merged compiles");
    let trigger = interner.intern("inc");
    let plan = FaultPlan::seeded_kinds(
        fault_seed,
        80,
        9,
        &[
            FaultKind::LibError,
            FaultKind::Panic,
            FaultKind::Transient(9),
        ],
    );
    let env = FaultyEnv::new(ScalarEnv::new(1, lib), trigger, plan);
    let records = FaultyEnv::<ScalarEnv>::index_records(scalar_records(0..80));
    let oracle = Oracle::new(&env, &records, programs, interner, naiad_lite::DEFAULT_FUEL);
    env.reset_transients();
    let run = Engine::new(2)
        .with_error_policy(ErrorPolicy::Quarantine { max_errors: 1000 })
        .run(&env, &records, &qs, ExecMode::Consolidated, true)
        .expect("quarantine absorbs faults");
    check(&run, &oracle, "merged under faults");
    (run.counts.clone(), run.quarantine.records())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8 })]

    /// Any seeded register/deregister sequence yields a plan whose
    /// notifications — and, under fault injection, whose quarantine
    /// decisions — match from-scratch `consolidate_many` on the final set.
    #[test]
    fn seeded_churn_matches_scratch(
        seed in any::<u64>(),
        ops in prop::collection::vec((any::<bool>(), 0u32..10), 1..24)
    ) {
        silence_injected_panics();
        let mut interner = Interner::new();
        let lib = library(&mut interner);
        let cm = CostModel::default();
        let opts = Options::default();
        let pool = queries(&mut interner, 10);

        let mut plan = DeltaPlan::new();
        let mut live: Vec<Program> = Vec::new();
        for (register, k) in ops {
            let p = &pool[k as usize];
            if register && !plan.contains(p.id) {
                plan.add(p, &mut interner, &cm, &lib, &opts).expect("add");
                live.push(p.clone());
            } else if !register && plan.contains(p.id) {
                plan.remove(p.id, &interner, &cm, &lib, &opts).expect("remove");
                live.retain(|q| q.id != p.id);
            }
        }
        prop_assert_eq!(plan.len(), live.len());
        if live.is_empty() {
            prop_assert!(plan.program().is_none());
            return Ok(());
        }

        check_plan(&plan, &live, &mut interner);
        let merged = plan.program().expect("non-empty plan").clone();

        // Engine-level: same counts AND same quarantine decisions as the
        // from-scratch plan, under injected faults.
        let scratch = consolidate_many(&live, &mut interner, &cm, &lib, &opts, false)
            .expect("scratch consolidation");
        let (delta_counts, delta_quarantine) =
            run_with_faults(&live, &merged, &mut interner, seed);
        let (scratch_counts, scratch_quarantine) =
            run_with_faults(&live, &scratch.program, &mut interner, seed);
        prop_assert_eq!(delta_counts, scratch_counts);
        prop_assert_eq!(delta_quarantine, scratch_quarantine);
    }
}

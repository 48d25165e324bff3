//! Pre-filtered consolidation: synthesize a sound cross-query pre-filter
//! from a set of guarded UDFs, attach it to the consolidated plan, and show
//! that executing with pushdown on skips most records while reproducing the
//! pushdown-off notifications bit-for-bit.
//!
//! ```text
//! cargo run --example prefiltered
//! ```
//!
//! The queries follow the shape pushdown synthesis targets (see
//! `ARCHITECTURE.md` § Predicate pushdown): a cheap guard over a record
//! field *nests* around an expensive library call, so under the negated
//! guard the call is unreachable and the verifier can prove that skipping
//! the record changes nothing.

use query_consolidation::dataflow::engine::{Engine, ExecMode, QuerySet};
use query_consolidation::dataflow::ScalarEnv;
use query_consolidation::engine::{consolidate_many, Options};
use query_consolidation::lang::{parse::parse_program, CostModel, FnLibrary, Interner};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut interner = Interner::new();
    let score = interner.intern("score");
    let mut lib = FnLibrary::new();
    // An "expensive" text-scoring function (cost 45 — think a full-text
    // scan); `a` is the cheap record field guarding it.
    lib.register(score, "score", 1, 45, |a| a[0] % 97);

    // Three standing queries: each guards the expensive call with a
    // different threshold over the cheap field.
    let programs: Vec<_> = [(1u32, 40i64, 10i64), (2, 60, 50), (3, 55, 30)]
        .iter()
        .map(|&(id, k, t)| {
            parse_program(
                &format!(
                    "program q{id} @{id} (a, b) {{
                         if (a >= {k}) {{
                             if (score(b) > {t}) {{ notify true; }} else {{ notify false; }}
                         }} else {{ notify false; }}
                     }}"
                ),
                &mut interner,
            )
        })
        .collect::<Result<_, _>>()?;

    let cm = CostModel::default();
    let records: Vec<Vec<i64>> = (0..100).map(|i| vec![i, i * 3 + 1]).collect();
    let env = ScalarEnv::new(2, lib.clone());
    let fc = |f| query_consolidation::lang::library::Library::cost(&lib, f);

    let mut reports = Vec::new();
    for prefilter in [false, true] {
        let opts = Options {
            prefilter,
            ..Options::default()
        };
        let merged = consolidate_many(&programs, &mut interner, &cm, &lib, &opts, false)?;
        let mut qs = QuerySet::compile_many(&programs, &cm, &fc)?.with_consolidated(
            &merged.program,
            &cm,
            &fc,
            merged.elapsed,
        )?;
        if let Some(pf) = &merged.prefilter {
            qs = qs.with_prefilter(&pf.cond, &merged.program, &cm, &fc)?;
            println!(
                "synthesized pre-filter ({} paths, {} entailment queries):",
                pf.paths_checked, pf.entailment_queries
            );
            println!(
                "    {}",
                query_consolidation::lang::pretty::bool_expr(&pf.cond, &interner)
            );
        }
        let report = Engine::new(2).run(&env, &records, &qs, ExecMode::Consolidated, true)?;
        println!(
            "pushdown {:>3}: counts {:?}, skipped {:>2}/{} records, cost {}",
            if prefilter { "on" } else { "off" },
            report.counts,
            report.prefilter_skipped,
            report.records,
            report.cost.unwrap_or(0),
        );
        reports.push(report);
    }

    // The guarantee the verifier bought: identical observables, lower cost.
    assert_eq!(
        reports[0].counts, reports[1].counts,
        "notifications must agree"
    );
    assert_eq!(reports[0].missing, reports[1].missing);
    assert!(
        reports[1].prefilter_skipped > 0,
        "the guard family must skip"
    );
    assert!(
        reports[1].cost <= reports[0].cost,
        "skipping must not cost more"
    );
    println!("pushdown was unobservable: identical notifications, lower cost");
    Ok(())
}

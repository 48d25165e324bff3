//! Fail-soft execution demo: record quarantine under injected faults, and
//! budgeted consolidation degrading along the lattice
//! full ⊒ partial ⊒ sequential.
//!
//! ```text
//! cargo run --example failsoft
//! ```

use query_consolidation::dataflow::engine::{Engine, ErrorPolicy, ExecMode, QuerySet};
use query_consolidation::dataflow::fault::{silence_injected_panics, FaultPlan, FaultyEnv};
use query_consolidation::dataflow::ScalarEnv;
use query_consolidation::engine::{consolidate_many, ConsolidationBudget, Options};
use query_consolidation::lang::{
    library::Library, parse::parse_program, CostModel, FnLibrary, Interner,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    silence_injected_panics();
    let mut interner = Interner::new();
    let probe = interner.intern("probe");
    let mut lib = FnLibrary::new();
    lib.register(probe, "probe", 1, 25, |a| a[0]);

    // Four threshold queries sharing the expensive `probe` call.
    let programs: Vec<_> = (0..4u32)
        .map(|k| {
            parse_program(
                &format!(
                    "program q{k} @{k} (v) {{
                         p := probe(v);
                         spin := p;
                         while (spin > 50) {{ spin := spin - 1; }}
                         if (p > {}) {{ notify true; }} else {{ notify false; }}
                     }}",
                    k * 25
                ),
                &mut interner,
            )
            .expect("demo program parses")
        })
        .collect();
    let cm = CostModel::default();

    println!("=== budget lattice: same family, three budgets");
    for (label, budget) in [
        ("unlimited", ConsolidationBudget::UNLIMITED),
        (
            "20 solver queries",
            ConsolidationBudget::default().with_max_solver_queries(20),
        ),
        (
            "0 solver queries",
            ConsolidationBudget::default().with_max_solver_queries(0),
        ),
    ] {
        let opts = Options {
            budget,
            ..Options::default()
        };
        let merged = consolidate_many(&programs, &mut interner, &cm, &lib, &opts, false)?;
        println!(
            "  {label:>18}: tier {:>10}, {} entailment queries, {} pair(s) degraded",
            merged.stats.tier, merged.stats.entailment_queries, merged.stats.pairs_degraded
        );
    }

    // Run 100 records with 6 injected faults (lib error / panic / fuel burn,
    // chosen by seed) under the quarantine policy: the run completes, the
    // report names the casualties, and both modes agree on the survivors.
    let merged = consolidate_many(
        &programs,
        &mut interner,
        &cm,
        &lib,
        &Options::default(),
        false,
    )?;
    let queries = QuerySet::compile_many(&programs, &cm, &|f| lib.cost(f))?.with_consolidated(
        &merged.program,
        &cm,
        &|f| lib.cost(f),
        merged.elapsed,
    )?;
    let plan = FaultPlan::seeded(7, 100, 6);
    let env = FaultyEnv::new(ScalarEnv::new(1, lib), probe, plan);
    let records = FaultyEnv::<ScalarEnv>::index_records((0..100).map(|v| vec![v]));
    let engine = Engine::new(2)
        .with_error_policy(ErrorPolicy::Quarantine { max_errors: 16 })
        .with_fuel(10_000);

    println!("=== quarantine: 100 records, 6 injected faults");
    let many = engine.run(&env, &records, &queries, ExecMode::Many, false)?;
    let cons = engine.run(&env, &records, &queries, ExecMode::Consolidated, false)?;
    for e in &many.quarantine.entries {
        println!(
            "  record {:>3} quarantined: {} ({})",
            e.record, e.kind, e.detail
        );
    }
    println!(
        "  many counts         {:?}  ({} quarantined)",
        many.counts, many.quarantine.records_quarantined
    );
    println!(
        "  consolidated counts {:?}  ({} quarantined)",
        cons.counts, cons.quarantine.records_quarantined
    );
    println!(
        "  parity on survivors: {}",
        if many.counts == cons.counts && many.quarantine.records() == cons.quarantine.records() {
            "ok"
        } else {
            "VIOLATION"
        }
    );
    Ok(())
}

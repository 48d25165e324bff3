//! Loop fusion in action (the paper's Example 2 / Example 6 pattern): two
//! weather UDFs — one tracking a running sum of monthly temperatures, one a
//! running maximum — are fused into a single loop that calls the expensive
//! `tempOfMonth` accessor once per iteration.
//!
//! ```text
//! cargo run --example weather_monitor
//! ```

use query_consolidation::dataflow::engine::{Engine, ExecMode, QuerySet};
use query_consolidation::dataflow::env::UdfEnv;
use query_consolidation::engine::{consolidate_many, Options};
use query_consolidation::lang::{parse::parse_program, CostModel, Interner};
use query_consolidation::workloads::weather::{dataset_sized, WeatherEnv, ACCESSOR_COST};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut interner = Interner::new();
    let env = WeatherEnv::new(&mut interner);
    let records = dataset_sized(200, 7);

    // g1: cities whose yearly temperature sum exceeds a threshold.
    let g1 = parse_program(
        "program g1 @1 (city) {
             s := 0; m := 1;
             while (m <= 12) { t := tempOfMonth(m); s := s + t; m := m + 1; }
             if (s > 120) { notify true; } else { notify false; }
         }",
        &mut interner,
    )?;
    // g2: cities whose maximum monthly temperature exceeds a threshold.
    let g2 = parse_program(
        "program g2 @2 (city) {
             mx := tempOfMonth(1); m := 2;
             while (m <= 12) { t := tempOfMonth(m); if (t > mx) { mx := t; } m := m + 1; }
             if (mx > 40) { notify true; } else { notify false; }
         }",
        &mut interner,
    )?;

    let merged = consolidate_many(
        &[g1.clone(), g2.clone()],
        &mut interner,
        &CostModel::default(),
        &query_consolidation::lang::cost::UniformFnCost(ACCESSOR_COST),
        &Options::default(),
        false,
    )?;
    println!("=== consolidated (rules {:?})", merged.stats);
    println!(
        "{}",
        query_consolidation::lang::pretty::program(&merged.program, &interner)
    );

    // Run both plans over the dataset and compare.
    let cm = CostModel::default();
    let programs = vec![g1, g2];
    let qs = QuerySet::compile_many(&programs, &cm, &|f| env.fn_cost(f))?.with_consolidated(
        &merged.program,
        &cm,
        &|f| env.fn_cost(f),
        merged.elapsed,
    )?;
    let engine = Engine::new(4);
    let many = engine.run(&env, &records, &qs, ExecMode::Many, true)?;
    let cons = engine.run(&env, &records, &qs, ExecMode::Consolidated, true)?;
    println!("selected per query, where_many:         {:?}", many.counts);
    println!("selected per query, where_consolidated: {:?}", cons.counts);
    assert_eq!(many.counts, cons.counts, "plans must agree");
    println!(
        "abstract cost: {} (sequential) vs {} (consolidated) → {:.2}x",
        many.cost.expect("tracked"),
        cons.cost.expect("tracked"),
        many.cost.unwrap() as f64 / cons.cost.unwrap() as f64
    );
    println!("wall time:     {:?} vs {:?}", many.udf_time, cons.udf_time);
    Ok(())
}

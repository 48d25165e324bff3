//! The introduction's price-monitoring scenario: many parametrized flight
//! queries from one popular application, consolidated into a single UDF and
//! executed on the multi-worker dataflow engine.
//!
//! ```text
//! cargo run --release --example flight_search
//! ```

use query_consolidation::dataflow::engine::{Engine, ExecMode, QuerySet};
use query_consolidation::dataflow::env::UdfEnv;
use query_consolidation::engine::{consolidate_many, Options};
use query_consolidation::lang::{CostModel, Interner};
use query_consolidation::workloads::flight;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut interner = Interner::new();
    let (env, records) = flight::dataset_sized(4, &mut interner, 11);
    println!("dataset: {} flight rows", records.len());

    // 20 queries from the Mix family (direct / connecting / average-price
    // filters over Zipf-popular routes).
    let programs = flight::mix(20, 3, &mut interner);

    let cm = CostModel::default();
    struct EnvCost<'a>(&'a flight::FlightEnv);
    impl udf_lang::cost::FnCost for EnvCost<'_> {
        fn fn_cost(&self, f: udf_lang::intern::Symbol) -> udf_lang::cost::Cost {
            self.0.fn_cost(f)
        }
    }
    let merged = consolidate_many(
        &programs,
        &mut interner,
        &cm,
        &EnvCost(&env),
        &Options::default(),
        true,
    )?;
    println!(
        "consolidated {} queries in {:?} (source {} AST nodes → merged {})",
        programs.len(),
        merged.elapsed,
        programs.iter().map(|p| p.size()).sum::<usize>(),
        merged.program.size()
    );

    let qs = QuerySet::compile_many(&programs, &cm, &|f| env.fn_cost(f))?.with_consolidated(
        &merged.program,
        &cm,
        &|f| env.fn_cost(f),
        merged.elapsed,
    )?;
    let engine = Engine::default();
    let many = engine.run(&env, &records, &qs, ExecMode::Many, false)?;
    let cons = engine.run(&env, &records, &qs, ExecMode::Consolidated, false)?;
    assert_eq!(many.counts, cons.counts, "plans must agree");

    println!("\nper-query matches (both plans agree):");
    for (k, (&id, &n)) in qs.query_ids.iter().zip(&many.counts).enumerate() {
        println!("  query {k:>2} ({id}) → {n} flights");
    }
    println!(
        "\nwhere_many {:?} vs where_consolidated {:?} → {:.2}x UDF speedup",
        many.udf_time,
        cons.udf_time,
        many.udf_time.as_secs_f64() / cons.udf_time.as_secs_f64().max(1e-9)
    );
    Ok(())
}

//! A miniature of the paper's Figure 10: sweep the number of news-domain
//! queries and watch `where_many` grow linearly while `where_consolidated`
//! stays roughly flat.
//!
//! ```text
//! cargo run --release --example scalability
//! ```

use query_consolidation::dataflow::engine::{Engine, ExecMode, QuerySet};
use query_consolidation::dataflow::env::UdfEnv;
use query_consolidation::engine::{consolidate_many, Options};
use query_consolidation::lang::{CostModel, Interner};
use query_consolidation::workloads::news;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut interner = Interner::new();
    let env = news::NewsEnv::new(&mut interner);
    let records = news::dataset_sized(3000, 5);
    let cm = CostModel::default();
    struct EnvCost<'a>(&'a news::NewsEnv);
    impl udf_lang::cost::FnCost for EnvCost<'_> {
        fn fn_cost(&self, f: udf_lang::intern::Symbol) -> udf_lang::cost::Cost {
            self.0.fn_cost(f)
        }
    }

    println!(
        "{:>6} {:>12} {:>12} {:>12}",
        "nUDFs", "many(ms)", "cons(ms)", "consolid(ms)"
    );
    let bc = news::families()
        .into_iter()
        .find(|f| f.label == "BC")
        .expect("news BC family");
    for n in [4usize, 8, 16, 32] {
        let programs = (bc.build)(n, 9, &mut interner);
        let merged = consolidate_many(
            &programs,
            &mut interner,
            &cm,
            &EnvCost(&env),
            &Options::default(),
            true,
        )?;
        let qs = QuerySet::compile_many(&programs, &cm, &|f| env.fn_cost(f))?.with_consolidated(
            &merged.program,
            &cm,
            &|f| env.fn_cost(f),
            merged.elapsed,
        )?;
        let engine = Engine::default();
        let many = engine.run(&env, &records, &qs, ExecMode::Many, false)?;
        let cons = engine.run(&env, &records, &qs, ExecMode::Consolidated, false)?;
        assert_eq!(many.counts, cons.counts);
        println!(
            "{n:>6} {:>12.2} {:>12.2} {:>12.2}",
            many.udf_time.as_secs_f64() * 1e3,
            cons.udf_time.as_secs_f64() * 1e3,
            merged.elapsed.as_secs_f64() * 1e3,
        );
    }
    Ok(())
}

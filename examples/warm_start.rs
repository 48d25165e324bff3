//! Plan-cache warm start: consolidate a query family once (cold — full
//! solver work), resubmit it (warm — served from the cache with zero SMT
//! checks), then save the cache to a snapshot file and reload it, as a
//! restarted service would.
//!
//! ```text
//! cargo run --example warm_start
//! ```
//!
//! See `ARCHITECTURE.md` § Plan cache for the key derivation (canonical
//! UDF-set hash × options × cost model × backend) and the snapshot format.

use query_consolidation::cache::{CacheConfig, PlanCache, PlanOutcome};
use query_consolidation::engine::Options;
use query_consolidation::lang::cost::UniformFnCost;
use query_consolidation::lang::{parse::parse_program, CostModel, Interner};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut interner = Interner::new();
    let programs: Vec<_> = (1..=8u32)
        .map(|id| {
            parse_program(
                &format!(
                    "program w{id} @{id} (temp, wind) {{
                         chill := temp - wind * 3;
                         if (chill < {}) {{ notify true; }} else {{ notify false; }}
                     }}",
                    i64::from(id) * 4
                ),
                &mut interner,
            )
        })
        .collect::<Result<_, _>>()?;

    let cm = CostModel::default();
    let opts = Options::default();
    let cache = PlanCache::default();

    // Cold: consolidates for real — the solver discharges entailments.
    let (cold, outcome) = query_consolidation::cache::consolidate_many_cached(
        &cache,
        &programs,
        &mut interner,
        &cm,
        &UniformFnCost(20),
        &opts,
        false,
        query_consolidation::dataflow::engine::ExecBackend::PerRecord,
    )?;
    println!(
        "cold: {outcome:?} in {:?} — {} SMT checks, plan size {}",
        cold.elapsed,
        cold.stats.solver.checks,
        cold.program.body.size()
    );
    assert_eq!(outcome, PlanOutcome::Miss);

    // Warm: the same submission is a pure lookup.
    let (warm, outcome) = query_consolidation::cache::consolidate_many_cached(
        &cache,
        &programs,
        &mut interner,
        &cm,
        &UniformFnCost(20),
        &opts,
        false,
        query_consolidation::dataflow::engine::ExecBackend::PerRecord,
    )?;
    println!(
        "warm: {outcome:?} in {:?} — {} SMT checks",
        warm.elapsed, warm.stats.solver.checks
    );
    assert_eq!(outcome, PlanOutcome::Hit);
    assert_eq!(warm.stats.solver.checks, 0, "a hit does no solver work");
    assert_eq!(
        query_consolidation::lang::pretty::program(&cold.program, &interner),
        query_consolidation::lang::pretty::program(&warm.program, &interner),
        "the cached plan is the consolidated plan"
    );

    // Persist and reload, as a service restart would.
    let path = std::env::temp_dir().join(format!("warm-start-{}.snap", std::process::id()));
    cache.save(&path)?;
    let restored = PlanCache::load(&path, CacheConfig::default())?;
    let _ = std::fs::remove_file(&path);
    let (reloaded, outcome) = query_consolidation::cache::consolidate_many_cached(
        &restored,
        &programs,
        &mut interner,
        &cm,
        &UniformFnCost(20),
        &opts,
        false,
        query_consolidation::dataflow::engine::ExecBackend::PerRecord,
    )?;
    println!(
        "after restart: {outcome:?} — {} SMT checks",
        reloaded.stats.solver.checks
    );
    assert_eq!(
        outcome,
        PlanOutcome::Hit,
        "snapshots warm-start the next run"
    );
    println!("restored cache: {} plan(s)", restored.len());
    Ok(())
}

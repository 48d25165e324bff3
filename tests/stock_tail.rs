//! Stock's four families at eight queries each, built as
//! `figure9 stock --queries 8` builds them (paper-scale days, seed 42) and
//! consolidated on one thread. Past about eight queries the solver's work
//! on Stock used to explode: a million simplex pivots and `Unknown`
//! verdicts, with single checks running for seconds. The bound is on that
//! work, counted, not on wall time, so it holds on any host.

mod common;

use common::{check_merged, EnvCost};
use query_consolidation::engine::{consolidate_many, Options};
use query_consolidation::lang::{CostModel, Interner};
use query_consolidation::workloads::stock;

/// Summed simplex pivots allowed across the four families.
const PIVOT_BUDGET: u64 = 100_000;

#[test]
fn stock_at_eight_queries_stays_within_the_pivot_budget() {
    let mut interner = Interner::new();
    let env = stock::StockEnv::new(&mut interner);
    let records = stock::dataset_sized(4, stock::DAYS, 42);
    let cm = CostModel::default();
    let (mut pivots, mut unknowns) = (0, 0);
    for (label, build) in stock::families_sized(stock::DAYS as i64) {
        let programs = build(8, 42, &mut interner);
        let merged = consolidate_many(
            &programs,
            &mut interner,
            &cm,
            &EnvCost(&env),
            &Options::default(),
            false,
        )
        .expect("the family consolidates");
        let solver = merged.stats.solver;
        pivots += solver.simplex_pivots;
        unknowns += solver.unknowns;
        eprintln!(
            "stock {label}: {} checks, {} pivots, {} unknown",
            solver.checks, solver.simplex_pivots, solver.unknowns
        );
        check_merged(&programs, &merged.program, &env, &records, &interner);
    }
    assert!(
        pivots <= PIVOT_BUDGET,
        "{pivots} simplex pivots across the families, budget {PIVOT_BUDGET}"
    );
    assert_eq!(unknowns, 0, "a check ended Unknown");
}

//! The paper's worked examples (Sections 2 and 4) as executable tests
//! against the public API.

mod common;

use common::check_merged;
use query_consolidation::dataflow::ScalarEnv;
use query_consolidation::engine::{consolidate_pair, consolidate_pair_prerenamed, Options};
use query_consolidation::lang::{
    analysis::rename_locals, parse::parse_program, pretty, CostModel, FnLibrary, Interner,
};

/// Example 1: the consolidated flight filter retrieves and lowercases the
/// airline name exactly once and performs at most two comparisons.
#[test]
fn example1_consolidation_structure() {
    let mut interner = Interner::new();
    let to_lower = interner.intern("toLower");
    let mut lib = FnLibrary::new();
    lib.register(to_lower, "toLower", 1, 30, |a| a[0] & 0xff);
    let f1 = parse_program(
        "program f1 @1 (airline, price) {
             name := toLower(airline);
             if (name == 1) { notify true; }
             else { if (name == 2) { notify true; } else { notify false; } }
         }",
        &mut interner,
    )
    .unwrap();
    let f2 = parse_program(
        "program f2 @2 (airline, price) {
             if (price >= 200) { notify false; }
             else { if (toLower(airline) == 1) { notify true; } else { notify false; } }
         }",
        &mut interner,
    )
    .unwrap();
    let merged = consolidate_pair(
        &f1,
        &f2,
        &mut interner,
        &CostModel::default(),
        &lib,
        &Options::default(),
    )
    .unwrap();
    let printed = pretty::program(&merged.program, &interner);
    assert_eq!(
        printed.matches("toLower").count(),
        1,
        "the lookup must be shared:\n{printed}"
    );
    // Behaviour on the full truth table of interesting inputs.
    let records: Vec<Vec<i64>> = [1i64, 2, 3]
        .into_iter()
        .flat_map(|airline| [vec![airline, 100], vec![airline, 300]])
        .collect();
    let env = ScalarEnv::new(2, lib);
    check_merged(&[f1, f2], &merged.program, &env, &records, &interner);
}

/// Example 2: min-temperature and max-temperature loops fuse into one loop
/// calling `getTempOfMonth` once per month.
#[test]
fn example2_weather_loops_fuse() {
    let mut interner = Interner::new();
    let get = interner.intern("getTempOfMonth");
    let mut lib = FnLibrary::new();
    // A fixed yearly profile: month m has temperature 3m − 20.
    lib.register(get, "getTempOfMonth", 1, 50, |a| 3 * a[0] - 20);
    let g1 = parse_program(
        "program g1 @1 (city) {
             mn := getTempOfMonth(1); i := 2;
             while (i <= 12) { t := getTempOfMonth(i); if (t < mn) { mn := t; } i := i + 1; }
             if (mn > 15) { notify true; } else { notify false; }
         }",
        &mut interner,
    )
    .unwrap();
    let g2 = parse_program(
        "program g2 @2 (city) {
             mx := getTempOfMonth(1); j := 2;
             while (j <= 12) { c := getTempOfMonth(j); if (c > mx) { mx := c; } j := j + 1; }
             if (mx < 10) { notify true; } else { notify false; }
         }",
        &mut interner,
    )
    .unwrap();
    let r1 = rename_locals(&g1, &mut interner, "a$");
    let r2 = rename_locals(&g2, &mut interner, "b$");
    let merged = consolidate_pair_prerenamed(
        &r1,
        &r2,
        &interner,
        &CostModel::default(),
        &lib,
        &Options::default(),
    )
    .unwrap();
    assert_eq!(
        merged.stats.rules.loop2, 1,
        "loops must fuse: {:?}",
        merged.stats
    );
    let printed = pretty::program(&merged.program, &interner);
    // One call in the prologue (month 1) and one in the fused body.
    assert_eq!(
        printed.matches("getTempOfMonth").count(),
        2,
        "per-month call must be shared:\n{printed}"
    );
    let env = ScalarEnv::new(1, lib);
    let costs = check_merged(&[r1, r2], &merged.program, &env, &[vec![0]], &interner);
    let (m, sequential) = costs[0];
    assert!(
        m * 3 <= sequential * 2,
        "fusion should save at least a third: {m} vs {sequential}"
    );
}

/// Example 5 / Figure 6: complementary tests are decided with a single
/// comparison.
#[test]
fn example5_complementary_tests() {
    let mut interner = Interner::new();
    let lib = FnLibrary::new();
    let p1 = parse_program(
        "program p1 @1 (x, alpha) { if (x > alpha) { notify true; } else { notify false; } }",
        &mut interner,
    )
    .unwrap();
    let p2 = parse_program(
        "program p2 @2 (x, alpha) { if (x <= alpha) { notify true; } else { notify false; } }",
        &mut interner,
    )
    .unwrap();
    let merged = consolidate_pair_prerenamed(
        &p1,
        &p2,
        &interner,
        &CostModel::default(),
        &lib,
        &Options::default(),
    )
    .unwrap();
    let records = [vec![1, 5], vec![5, 5], vec![9, 5]];
    let env = ScalarEnv::new(2, lib);
    for (m, sequential) in check_merged(&[p1, p2], &merged.program, &env, &records, &interner) {
        assert!(m < sequential, "one test instead of two");
    }
}

/// Example 6: the arithmetic-offset loops fuse via Loop 2 with the invariant
/// `j = i − 1`, eliminating the second `f` call per iteration.
#[test]
fn example6_offset_loops_fuse() {
    let mut interner = Interner::new();
    let f = interner.intern("f");
    let mut lib = FnLibrary::new();
    lib.register(f, "f", 1, 60, |a| a[0] * a[0] + 1);
    let p1 = parse_program(
        "program p1 @1 (alpha) {
             i := alpha; x := 0;
             while (i > 0) { i := i - 1; t1 := f(i); x := x + t1; }
             if (x > 40) { notify true; } else { notify false; }
         }",
        &mut interner,
    )
    .unwrap();
    let p2 = parse_program(
        "program p2 @2 (alpha) {
             j := alpha - 1; y := alpha;
             while (j >= 0) { t2 := f(j); y := y + t2; j := j - 1; }
             if (y > 40) { notify true; } else { notify false; }
         }",
        &mut interner,
    )
    .unwrap();
    let r1 = rename_locals(&p1, &mut interner, "a$");
    let r2 = rename_locals(&p2, &mut interner, "b$");
    let merged = consolidate_pair_prerenamed(
        &r1,
        &r2,
        &interner,
        &CostModel::default(),
        &lib,
        &Options::default(),
    )
    .unwrap();
    assert_eq!(merged.stats.rules.loop2, 1);
    let printed = pretty::program(&merged.program, &interner);
    assert_eq!(
        printed.matches("f(").count(),
        1,
        "one f call per iteration:\n{printed}"
    );
    let env = ScalarEnv::new(1, lib);
    let records = [vec![0], vec![1], vec![4], vec![9]];
    check_merged(&[r1, r2], &merged.program, &env, &records, &interner);
}

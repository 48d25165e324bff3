//! Workspace-spanning integration tests: parse → consolidate → compile →
//! execute on the dataflow engine, asserting the paper's guarantees with the
//! *abstract* cost model (deterministic, unlike wall time).

mod common;

use common::{check, EnvCost, Oracle};
use query_consolidation::dataflow::engine::{Engine, ExecMode, QuerySet};
use query_consolidation::dataflow::env::UdfEnv;
use query_consolidation::dataflow::DEFAULT_FUEL;
use query_consolidation::engine::{consolidate_many, EntailmentMode, IfPolicy, Options};
use query_consolidation::lang::{CostModel, Interner};
use query_consolidation::workloads::{flight, news, stock, twitter, weather};

/// [`check_with_options`] under the default options.
fn check_end_to_end<E: UdfEnv>(
    env: &E,
    records: &[E::Rec],
    programs: Vec<udf_lang::ast::Program>,
    interner: &mut Interner,
    label: &str,
) -> (u64, u64) {
    check_with_options(env, records, programs, interner, &Options::default(), label)
}

/// Consolidates `programs` and runs both plans with cost tracking, each
/// held to Thm. 1 against the sources on the interpreter. Returns the
/// (sequential, consolidated) abstract cost.
fn check_with_options<E: UdfEnv>(
    env: &E,
    records: &[E::Rec],
    programs: Vec<udf_lang::ast::Program>,
    interner: &mut Interner,
    opts: &Options,
    label: &str,
) -> (u64, u64) {
    let cm = CostModel::default();
    let merged = consolidate_many(&programs, interner, &cm, &EnvCost(env), opts, false)
        .expect("consolidation succeeds");
    let qs = QuerySet::compile_many(&programs, &cm, &|f| env.fn_cost(f))
        .expect("compile many")
        .with_consolidated(&merged.program, &cm, &|f| env.fn_cost(f), merged.elapsed)
        .expect("compile consolidated");
    let oracle = Oracle::new(env, records, &programs, interner, DEFAULT_FUEL);
    let engine = Engine::new(2);
    let [mc, cc] = [ExecMode::Many, ExecMode::Consolidated].map(|mode| {
        let run = engine
            .run(env, records, &qs, mode, true)
            .expect("the engine runs");
        check(&run, &oracle, &format!("{label} {mode:?}"));
        run.cost.expect("tracked")
    });
    (mc, cc)
}

#[test]
fn weather_families_end_to_end() {
    let mut interner = Interner::new();
    let env = weather::WeatherEnv::new(&mut interner);
    let records = weather::dataset_sized(25, 3);
    for fam in weather::families() {
        let programs = (fam.build)(8, 5, &mut interner);
        let (mc, cc) = check_end_to_end(&env, &records, programs, &mut interner, fam.label);
        // Every weather family shares computation; demand a real saving.
        assert!(
            cc * 10 <= mc * 9,
            "weather {}: expected ≥10% cost saving, got {cc} vs {mc}",
            fam.label
        );
    }
}

#[test]
fn flight_families_end_to_end() {
    let mut interner = Interner::new();
    let (env, records) = flight::dataset_sized(1, &mut interner, 3);
    for fam in flight::families() {
        let programs = (fam.build)(8, 5, &mut interner);
        check_end_to_end(&env, &records, programs, &mut interner, fam.label);
    }
}

#[test]
fn news_families_end_to_end() {
    let mut interner = Interner::new();
    let env = news::NewsEnv::new(&mut interner);
    let records = news::dataset_sized(120, 3);
    for fam in news::families() {
        let programs = (fam.build)(8, 5, &mut interner);
        let (mc, cc) = check_end_to_end(&env, &records, programs, &mut interner, fam.label);
        assert!(cc < mc, "news {} should save something", fam.label);
    }
}

#[test]
fn twitter_families_end_to_end() {
    let mut interner = Interner::new();
    let env = twitter::TwitterEnv::new(&mut interner);
    let records = twitter::dataset_sized(150, 3);
    for fam in twitter::families() {
        let programs = (fam.build)(8, 5, &mut interner);
        check_end_to_end(&env, &records, programs, &mut interner, fam.label);
    }
}

#[test]
fn stock_families_end_to_end() {
    let mut interner = Interner::new();
    let env = stock::StockEnv::new(&mut interner);
    let records = stock::dataset_sized(4, 600, 3);
    for (label, build) in stock::families_sized(600) {
        let programs = build(6, 5, &mut interner);
        let (mc, cc) = check_end_to_end(&env, &records, programs, &mut interner, label);
        assert!(cc < mc, "stock {label} should save something");
    }
}

#[test]
fn ablation_configs_remain_correct() {
    // Every configuration must stay *correct*; only performance may differ.
    let mut interner = Interner::new();
    let env = weather::WeatherEnv::new(&mut interner);
    let records = weather::dataset_sized(15, 4);
    let configs = [
        Options {
            if_policy: IfPolicy::AlwaysIf3,
            ..Options::default()
        },
        Options {
            if_policy: IfPolicy::AlwaysIf4,
            ..Options::default()
        },
        Options {
            if_policy: IfPolicy::AlwaysIf5,
            ..Options::default()
        },
        Options {
            loop_fusion: false,
            ..Options::default()
        },
        Options {
            mode: EntailmentMode::Syntactic,
            ..Options::default()
        },
    ];
    let fams = weather::families();
    for (k, opts) in configs.iter().enumerate() {
        let programs = (fams[4].build)(6, 9, &mut interner); // Mix
        let label = format!("config {k}");
        check_with_options(&env, &records, programs, &mut interner, opts, &label);
    }
}

#[test]
fn consolidation_reduces_cost_more_with_more_overlap() {
    // Queries drawn from one family overlap more than a cross-family mix;
    // the cost saving must reflect that ordering (the paper's observation
    // that wins grow with similarity).
    let mut interner = Interner::new();
    let env = weather::WeatherEnv::new(&mut interner);
    let records = weather::dataset_sized(20, 8);
    let fams = weather::families();
    let q3_programs = (fams[2].build)(8, 7, &mut interner);
    let mix_programs = (fams[4].build)(8, 7, &mut interner);
    let (m3, c3) = check_end_to_end(&env, &records, q3_programs, &mut interner, "q3");
    let (mm, cm_) = check_end_to_end(&env, &records, mix_programs, &mut interner, "mix");
    let s3 = m3 as f64 / c3 as f64;
    let smix = mm as f64 / cm_ as f64;
    assert!(
        s3 >= smix * 0.9,
        "single-family saving ({s3:.2}x) should not trail the mix ({smix:.2}x) by much"
    );
}

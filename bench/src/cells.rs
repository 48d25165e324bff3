//! A cell is one (domain, query family) pairing of `udf-data`: a seeded
//! dataset, the family's queries as source text, and the interpreter's
//! expected notification counts. `cold-omega` and `warm-scan` are both
//! lists of cells.

use crate::harness::{add, Cx, Layers};
use crate::oracle;
use crate::trace::Tracer;
use consolidate::Consolidated;
use naiad_lite::engine::QuerySet;
use naiad_lite::env::UdfEnv;
use naiad_lite::CompileError;
use plan_cache::PlanCache;
use udf_data::Family;
use udf_lang::ast::Program;
use udf_lang::cost::{Cost, CostModel, FnCost};
use udf_lang::intern::{Interner, Symbol};

/// `FnCost` view of a dataset environment.
pub struct EnvCost<'a, E: UdfEnv>(pub &'a E);

impl<E: UdfEnv> FnCost for EnvCost<'_, E> {
    fn fn_cost(&self, f: Symbol) -> Cost {
        self.0.fn_cost(f)
    }
}

/// Lowers the per-query programs and the merged plan (with its pre-filter,
/// when one was synthesized) into a runnable query set.
pub fn lower<E: UdfEnv>(
    env: &E,
    programs: &[Program],
    merged: &Consolidated,
) -> Result<QuerySet, CompileError> {
    let cm = CostModel::default();
    let fn_cost = |f| env.fn_cost(f);
    let qs = QuerySet::compile_many(programs, &cm, &fn_cost)?;
    let qs = qs.with_consolidated(&merged.program, &cm, &fn_cost, merged.elapsed)?;
    match &merged.prefilter {
        Some(pf) => qs.with_prefilter(&pf.cond, &merged.program, &cm, &fn_cost),
        None => Ok(qs),
    }
}

/// What set-up threads through the cell constructors.
pub struct Gen<'a> {
    pub seed: u64,
    pub query_seed: u64,
    pub tr: &'a mut Tracer,
    pub layers: &'a mut Layers,
}

pub struct Cell<E: UdfEnv> {
    /// `<domain>-<family>`, also the name of the cell's span.
    pub name: &'static str,
    /// `family.<domain>-<family>.udf_speedup`.
    pub speedup_key: &'static str,
    pub env: E,
    pub records: Vec<E::Rec>,
    /// Holds the environment's function symbols and nothing else; each rep
    /// clones it, so every rep parses into a fresh interner.
    pub base: Interner,
    /// The queries as the program receives them.
    pub source: String,
    pub prefilter: bool,
    /// Interpreter reference: notification count per query.
    pub expected: Vec<u64>,
    /// Canonical set key of the queries, recorded by `warm-scan` set-up.
    pub set_key: u128,
}

impl<E: UdfEnv> Cell<E> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        g: &mut Gen,
        name: &'static str,
        speedup_key: &'static str,
        env: E,
        records: Vec<E::Rec>,
        base: Interner,
        family: Family,
        n_queries: usize,
        prefilter: bool,
    ) -> Result<Cell<E>, String> {
        let mut interner = base.clone();
        let query_seed = g.query_seed;
        let (programs, s) = g.tr.timed("udf-data", "Family::build", || {
            (family.build)(n_queries, query_seed, &mut interner)
        });
        add(g.layers, "udf-data.generate_ms", s * 1e3);
        let source = programs
            .iter()
            .map(|p| udf_lang::pretty::program(p, &interner))
            .collect();
        let expected = oracle::notify_counts(&env, &records, &programs, &interner)?;
        Ok(Cell {
            name,
            speedup_key,
            env,
            records,
            base,
            source,
            prefilter,
            expected,
            set_key: 0,
        })
    }
}

/// A cell with its environment type erased, so one list holds all domains.
pub trait AnyCell {
    /// `cold-omega`: source text to notifications with nothing cached.
    fn cold(&self, cx: &mut Cx) -> Result<(), String>;
    /// `warm-scan` set-up: consolidate once and store the plan for both backends.
    fn plan(
        &mut self,
        cache: &PlanCache,
        tr: &mut Tracer,
        layers: &mut Layers,
    ) -> Result<(), String>;
    /// `warm-scan`: plan-cache hits, then repeated scans.
    fn warm(&self, cache: &PlanCache, passes: usize, cx: &mut Cx) -> Result<(), String>;
}

impl<E: UdfEnv> AnyCell for Cell<E> {
    fn cold(&self, cx: &mut Cx) -> Result<(), String> {
        crate::cold_omega::cold_cell(self, cx)
    }

    fn plan(
        &mut self,
        cache: &PlanCache,
        tr: &mut Tracer,
        layers: &mut Layers,
    ) -> Result<(), String> {
        crate::warm_scan::plan_cell(self, cache, tr, layers)
    }

    fn warm(&self, cache: &PlanCache, passes: usize, cx: &mut Cx) -> Result<(), String> {
        crate::warm_scan::warm_cell(self, cache, passes, cx)
    }
}

fn family(families: Vec<Family>, label: &str) -> Family {
    families
        .into_iter()
        .find(|f| f.label == label)
        .unwrap_or_else(|| panic!("udf-data has no family {label}"))
}

/// Times one dataset generator under the `udf-data` layer.
fn generate<T>(g: &mut Gen, name: &'static str, f: impl FnOnce() -> T) -> T {
    let (value, s) = g.tr.timed("udf-data", name, f);
    add(g.layers, "udf-data.generate_ms", s * 1e3);
    value
}

/// Defines a constructor `fn $fn(g, family, n_queries, size, prefilter)`.
macro_rules! domain {
    ($fn:ident, $domain:literal, [$($fam:literal),+], |$g:ident, $size:ident, $base:ident| $make:expr) => {
        pub fn $fn(
            $g: &mut Gen,
            fam: &str,
            n_queries: usize,
            $size: usize,
            prefilter: bool,
        ) -> Result<Box<dyn AnyCell>, String> {
            let (name, speedup_key) = match fam {
                $($fam => (
                    concat!($domain, "-", $fam),
                    concat!("family.", $domain, "-", $fam, ".udf_speedup"),
                ),)+
                other => return Err(format!("{} has no family {other}", $domain)),
            };
            let mut $base = Interner::new();
            let (env, records, families) = $make;
            let cell = Cell::new(
                $g, name, speedup_key, env, records, $base, family(families, fam), n_queries,
                prefilter,
            )?;
            Ok(Box::new(cell))
        }
    };
}

domain!(weather, "weather", ["Q1", "Q3"], |g, cities, base| {
    let env = udf_data::weather::WeatherEnv::new(&mut base);
    let seed = g.seed;
    let records = generate(g, "weather::dataset_sized", || {
        udf_data::weather::dataset_sized(cities, seed)
    });
    (env, records, udf_data::weather::families())
});

domain!(
    flight,
    "flight",
    ["Q1", "Q3"],
    |g, flights_per_pair_day, base| {
        let seed = g.seed;
        let (env, records) = generate(g, "flight::dataset_sized", || {
            udf_data::flight::dataset_sized(flights_per_pair_day as i64, &mut base, seed)
        });
        (env, records, udf_data::flight::families())
    }
);

domain!(news, "news", ["PF"], |g, articles, base| {
    let env = udf_data::news::NewsEnv::new(&mut base);
    let seed = g.seed;
    let records = generate(g, "news::dataset_sized", || {
        udf_data::news::dataset_sized(articles, seed)
    });
    (env, records, udf_data::news::families())
});

domain!(twitter, "twitter", ["Q1", "BC"], |g, tweets, base| {
    let env = udf_data::twitter::TwitterEnv::new(&mut base);
    let seed = g.seed;
    let records = generate(g, "twitter::dataset_sized", || {
        udf_data::twitter::dataset_sized(tweets, seed)
    });
    (env, records, udf_data::twitter::families())
});

domain!(stock, "stock", ["Q1"], |g, tickers, base| {
    let env = udf_data::stock::StockEnv::new(&mut base);
    let seed = g.seed;
    let records = generate(g, "stock::dataset_sized", || {
        udf_data::stock::dataset_sized(tickers, udf_data::stock::DAYS, seed)
    });
    (env, records, udf_data::stock::families())
});

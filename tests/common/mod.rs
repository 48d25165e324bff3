//! What the root suites share: the probe/half fixtures of the fault
//! matrices, the chaos seed, and one statement of Thm. 1.
//!
//! Thm. 1 makes two claims about a consolidated program: it notifies
//! exactly like the original queries, and it costs no more (Fig. 2 cost)
//! than running them one by one. [`Oracle`] runs the *original* programs on
//! the reference interpreter and keeps, per record, every query's
//! notification and the summed cost. Two entry points hold a merged plan to
//! both halves: [`check_merged`] on the interpreter, record by record, and
//! [`check`] on an engine report.
//!
//! Each suite pulls this in with `mod common;` and uses a subset of it.
#![allow(dead_code)]

use naiad_lite::engine::{Engine, EngineError, ErrorPolicy, ExecMode, JobReport, QuerySet};
use naiad_lite::env::{RecordLibrary, UdfEnv};
use naiad_lite::fault::{FaultKind, FaultPlan, FaultyEnv};
use naiad_lite::ScalarEnv;
use std::panic::{catch_unwind, AssertUnwindSafe};
use udf_lang::ast::Program;
use udf_lang::cost::{Cost, CostModel, FnCost};
use udf_lang::intern::{Interner, Symbol};
use udf_lang::interp::{EvalError, Interp, DEFAULT_FUEL};
use udf_lang::library::LibError;
use udf_lang::FnLibrary;

/// `probe(v) = v` (cost 20), the matrices' fault trigger, and
/// `half(v) = v / 2` (cost 10).
pub fn library(interner: &mut Interner) -> FnLibrary {
    let probe = interner.intern("probe");
    let half = interner.intern("half");
    let mut lib = FnLibrary::new();
    lib.register(probe, "probe", 1, 20, |a| a[0]);
    lib.register(half, "half", 1, 10, |a| a[0] / 2);
    lib
}

/// [`library`] behind `plan`, triggered on `probe`, over one-field records.
pub fn probe_env(interner: &mut Interner, plan: FaultPlan) -> FaultyEnv<ScalarEnv> {
    let lib = library(interner);
    FaultyEnv::new(ScalarEnv::new(1, lib), interner.intern("probe"), plan)
}

/// The environment of the service suites: [`probe_env`] under 48 seeded
/// faults over 4096 records. `Transient(1)` models a fault a single retry
/// recovers from. Rebuilding it replays the same fault schedule, since
/// `FaultPlan` keys faults on record identity.
pub fn serve_env(seed: u64) -> (FaultyEnv<ScalarEnv>, Interner) {
    let mut interner = Interner::new();
    let kinds = [
        FaultKind::LibError,
        FaultKind::Transient(1),
        FaultKind::Panic,
    ];
    let plan = FaultPlan::seeded_kinds(seed, 4096, 48, &kinds);
    (probe_env(&mut interner, plan), interner)
}

/// `n` threshold queries over `probe(v)`; query `k` selects records with
/// `probe(v) > 10k`. A `FaultKind::FuelBurn` record makes `probe` return a
/// huge value, which the `while` loop then counts down — exhausting any
/// modest fuel budget.
pub fn probing_queries(interner: &mut Interner, n: u32) -> Vec<Program> {
    (0..n)
        .map(|k| {
            udf_lang::parse::parse_program(
                &format!(
                    "program q{k} @{k} (v) {{
                         p := probe(v);
                         spin := half(p);
                         while (spin > 50) {{ spin := spin - 1; }}
                         if (p > {}) {{ notify true; }} else {{ notify false; }}
                     }}",
                    k * 10
                ),
                interner,
            )
            .expect("test program parses")
        })
        .collect()
}

/// The fault matrices' workload: a query set over 200 one-field records
/// `0..200` behind a fault plan on `probe`, with the sources' oracle.
pub struct Harness {
    pub env: FaultyEnv<ScalarEnv>,
    pub records: Vec<(usize, Vec<i64>)>,
    pub queries: QuerySet,
    /// `programs` at [`TEST_FUEL`], built before `env` served any run.
    pub oracle: Oracle,
}

impl Harness {
    /// `queries` must be compiled from `programs`.
    pub fn new(
        interner: &mut Interner,
        programs: &[Program],
        queries: QuerySet,
        plan: FaultPlan,
    ) -> Harness {
        let env = probe_env(interner, plan);
        let records = FaultyEnv::<ScalarEnv>::index_records(scalar_records(0..200));
        let oracle = Oracle::new(&env, &records, programs, interner, TEST_FUEL);
        env.reset_transients();
        Harness {
            env,
            records,
            queries,
            oracle,
        }
    }

    /// Runs the job in `mode` on `engine`, tracking cost.
    pub fn run(&self, engine: &Engine, mode: ExecMode) -> Result<JobReport, EngineError> {
        engine.run(&self.env, &self.records, &self.queries, mode, true)
    }
}

/// One-field records `v` for each `v` in `values`.
pub fn scalar_records(values: std::ops::Range<i64>) -> Vec<Vec<i64>> {
    values.map(|v| vec![v]).collect()
}

/// Fuel low enough that a burn record exhausts it, high enough that every
/// healthy record (≤ ~100 spin iterations per query) never comes close.
pub const TEST_FUEL: u64 = 50_000;

/// Four workers, quarantining up to 64 faulting records, at [`TEST_FUEL`].
pub fn quarantine_engine() -> Engine {
    Engine::new(4)
        .with_error_policy(ErrorPolicy::Quarantine { max_errors: 64 })
        .with_fuel(TEST_FUEL)
}

/// Folds the `CHAOS_SEED` environment variable (see `ci/chaos.sh`) into a
/// base seed, so a suite can be swept across seed families while staying
/// fully reproducible within one run.
pub fn chaos(seed: u64) -> u64 {
    match std::env::var("CHAOS_SEED") {
        Ok(s) => seed ^ s.trim().parse::<u64>().unwrap_or(0),
        Err(_) => seed,
    }
}

/// One step of splitmix64, the generator behind the seeded schedules.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A dataset's static call costs, as the consolidator's [`FnCost`].
pub struct EnvCost<'a, E: UdfEnv>(pub &'a E);

impl<E: UdfEnv> FnCost for EnvCost<'_, E> {
    fn fn_cost(&self, f: Symbol) -> Cost {
        self.0.fn_cost(f)
    }
}

/// Thm. 1's reference: the original programs on the interpreter, record by
/// record.
pub struct Oracle {
    queries: usize,
    /// Per record: each query's notification and the summed cost, or
    /// `None` where the reference itself faulted (an injected fault).
    rows: Vec<Option<(Vec<bool>, Cost)>>,
}

/// How many times the reference re-runs a record whose call failed
/// transiently; a `FaultKind::Transient` fault clears after its depth.
const TRANSIENT_RETRIES: usize = 16;

impl Oracle {
    /// Runs `programs` over every record of `env` at `fuel` per program,
    /// the step budget the engine under test runs with. Injected panics
    /// and faults make a record `None`; transient faults are retried until
    /// they clear. Build it on a fresh environment (or reset its transient
    /// faults before the engine runs): a `FaultyEnv` counts them.
    pub fn new<E: UdfEnv>(
        env: &E,
        records: &[E::Rec],
        programs: &[Program],
        interner: &Interner,
        fuel: u64,
    ) -> Oracle {
        let mut args = Vec::new();
        let rows = records
            .iter()
            .map(|rec| {
                args.clear();
                env.args(rec, &mut args);
                let lib = RecordLibrary::new(env, rec);
                let interp = Interp::new(CostModel::default(), &lib).with_fuel(fuel);
                for _ in 0..TRANSIENT_RETRIES {
                    let runs = catch_unwind(AssertUnwindSafe(|| {
                        programs
                            .iter()
                            .map(|p| interp.run(p, &args, interner))
                            .collect::<Result<Vec<_>, _>>()
                    }));
                    match runs {
                        Ok(Ok(runs)) => {
                            let hits = programs.iter().zip(&runs).map(|(p, r)| {
                                r.notifications.get(p.id).unwrap_or_else(|| {
                                    panic!("source @{} does not notify on {args:?}", p.id.0)
                                })
                            });
                            return Some((hits.collect(), runs.iter().map(|r| r.cost).sum()));
                        }
                        Ok(Err(EvalError::Lib(LibError::Transient(_)))) => {}
                        _ => return None,
                    }
                }
                None
            })
            .collect();
        Oracle {
            queries: programs.len(),
            rows,
        }
    }
}

/// Thm. 1 on an engine run: over the records the run did not quarantine,
/// every query's count equals the reference's, no query went missing, and
/// the run cost no more than the original programs did one by one. The
/// run must have tracked cost. Quarantined records leave both halves.
pub fn check(report: &JobReport, oracle: &Oracle, ctx: &str) {
    let quarantined = report.quarantine.records();
    let mut counts = vec![0u64; oracle.queries];
    let mut sequential = 0;
    for (r, row) in oracle.rows.iter().enumerate() {
        if quarantined.binary_search(&r).is_ok() {
            continue;
        }
        let (hits, cost) = row
            .as_ref()
            .unwrap_or_else(|| panic!("{ctx}: record {r} faults in the reference, yet survived"));
        for (n, &hit) in counts.iter_mut().zip(hits) {
            *n += u64::from(hit);
        }
        sequential += cost;
    }
    assert_eq!(report.counts, counts, "{ctx}: Thm. 1 notification counts");
    assert_eq!(report.missing, vec![0; oracle.queries], "{ctx}: missing");
    let cost = report.cost.expect("the run tracks cost");
    assert!(
        cost <= sequential,
        "{ctx}: Thm. 1 cost: the run cost {cost}, the queries one by one {sequential}"
    );
}

/// Both halves of Thm. 1 for a merged program, judged separately on every
/// record, each half's first violation described.
#[derive(Debug)]
pub struct Verdict {
    /// Per record, `(merged cost, Σ source cost)`.
    pub costs: Vec<(Cost, Cost)>,
    /// The first record where the merged program notifies differently.
    pub notify: Option<String>,
    /// The first record where it costs more than the sources one by one.
    pub cost: Option<String>,
}

/// Runs `merged` and `sources` on the interpreter over every record and
/// judges both halves of Thm. 1. Every source must run cleanly.
pub fn judge_merged<E: UdfEnv>(
    sources: &[Program],
    merged: &Program,
    env: &E,
    records: &[E::Rec],
    interner: &Interner,
) -> Verdict {
    let oracle = Oracle::new(env, records, sources, interner, DEFAULT_FUEL);
    let mut verdict = Verdict {
        costs: Vec::with_capacity(records.len()),
        notify: None,
        cost: None,
    };
    let mut args = Vec::new();
    for (rec, row) in records.iter().zip(&oracle.rows) {
        args.clear();
        env.args(rec, &mut args);
        let (hits, sequential) = row
            .as_ref()
            .unwrap_or_else(|| panic!("{args:?}: a source faults"));
        let lib = RecordLibrary::new(env, rec);
        let m = Interp::new(CostModel::default(), &lib)
            .run(merged, &args, interner)
            .unwrap_or_else(|e| panic!("{args:?}: the merged program faults: {e}"));
        for (p, &hit) in sources.iter().zip(hits) {
            let got = m.notifications.get(p.id);
            if got != Some(hit) && verdict.notify.is_none() {
                verdict.notify = Some(format!(
                    "{args:?}: merged notifies {got:?} for @{}, the source {hit}",
                    p.id.0
                ));
            }
        }
        if m.cost > *sequential && verdict.cost.is_none() {
            verdict.cost = Some(format!(
                "{args:?}: merged costs {}, the sources one by one {sequential}",
                m.cost
            ));
        }
        verdict.costs.push((m.cost, *sequential));
    }
    verdict
}

/// Asserts both halves of Thm. 1 for `merged` against `sources` on every
/// record, and returns each record's `(merged cost, Σ source cost)`.
pub fn check_merged<E: UdfEnv>(
    sources: &[Program],
    merged: &Program,
    env: &E,
    records: &[E::Rec],
    interner: &Interner,
) -> Vec<(Cost, Cost)> {
    let verdict = judge_merged(sources, merged, env, records, interner);
    assert_eq!(verdict.notify, None, "Thm. 1 notifications");
    assert_eq!(verdict.cost, None, "Thm. 1 cost");
    verdict.costs
}

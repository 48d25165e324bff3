//! Differential suite: `Engine::run_agg` against a fold written here on the
//! reference interpreter (`udf_lang::interp`).
//!
//! `agg_matrix` compares `run_agg` with itself across worker counts and
//! modes, so a drift both sides share would pass it. Here the reference is
//! an independent restatement of the execution model of `naiad_lite::agg`
//! in terms of the AST interpreter: proved definitions fold each
//! `AGG_CHUNK`-record chunk from the initial state and merge the chunk
//! states in a contiguous binary tree by chunk index (an odd partial is
//! carried up); a merge that faults demotes its definition, whose
//! parallel-pass results are dropped; the rest fold sequentially over the
//! whole input. Each fold step retries transient library faults up to
//! `max_retries` times and commits its state only if the body completes.
//!
//! Compared at 1, 2 and 8 workers in both modes: final states, post-demotion
//! `proved` flags, quarantine `(record, definition, kind, retries)` and the
//! kept fold count. Not compared, on purpose: an entry's `detail` text
//! (the interpreter and the register machine word their errors
//! differently), and the exact point where fuel runs out — the register
//! machine charges `RInstr::steps`, the interpreter its own ticks, and the
//! two differ. So every generated loop is either far inside the budget (a
//! few iterations of a small body) or far past it (a million iterations),
//! where both machines agree that the fold or merge runs out.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};

use naiad_lite::env::RecordLibrary;
use naiad_lite::fault::{silence_injected_panics, FaultKind, FaultPlan, FaultyEnv};
use naiad_lite::{
    AggMode, AggQuerySet, AggReport, Engine, ErrorKind, ErrorPolicy, ScalarEnv, UdfEnv, AGG_CHUNK,
};
use proptest::prelude::*;
use udf_data::DomainKind;
use udf_lang::agg::{parse_agg, AggDef};
use udf_lang::ast::{ProgId, Stmt};
use udf_lang::cost::CostModel;
use udf_lang::intern::Interner;
use udf_lang::interp::{Env, EvalError, Interp};
use udf_lang::library::{FnLibrary, LibError, Library};

/// Step budget for every fold and merge, engine and reference alike.
const FUEL: u64 = 20_000;
/// Immediate retries of a transient fault.
const RETRIES: u32 = 2;
/// Iterations of a generated loop meant to exhaust [`FUEL`] on both machines.
const BURN: i64 = 1_000_000;

/// One quarantine entry, minus the wording of its detail.
type Entry = (usize, Option<ProgId>, ErrorKind, u32);

/// The observables compared: states, post-demotion flags, entries, folds.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    states: Vec<Vec<i64>>,
    proved: Vec<bool>,
    entries: Vec<Entry>,
    folds: u64,
}

fn outcome(rep: &AggReport) -> Outcome {
    Outcome {
        states: rep.states.clone(),
        proved: rep.proved.clone(),
        entries: rep
            .quarantine
            .entries
            .iter()
            .map(|e| (e.record, e.query, e.kind, e.retries))
            .collect(),
        folds: rep.folds,
    }
}

/// Runs `body` on the interpreter over `env`, returning the new state only
/// if the body completes (the commit rule of a fold step and a merge).
fn interp_step(
    def: &AggDef,
    body: &Stmt,
    mut env: Env,
    lib: &dyn Library,
    interner: &Interner,
) -> Result<Vec<i64>, EvalError> {
    Interp::new(CostModel::default(), lib)
        .with_fuel(FUEL)
        .stmt_in(&mut env, body, interner)?;
    Ok(def.state.iter().map(|s| env[&s.name]).collect())
}

/// One reference fold step of `def` on `rec`, with transient retries.
fn fold_step<E: UdfEnv>(
    env: &E,
    rec: &E::Rec,
    def: &AggDef,
    state: &mut [i64],
    interner: &Interner,
) -> Result<(), (ErrorKind, u32)> {
    let mut args = Vec::new();
    env.args(rec, &mut args);
    let mut retries = 0;
    loop {
        let mut work = Env::new();
        for (slot, &v) in def.state.iter().zip(state.iter()) {
            work.insert(slot.name, v);
        }
        for (&p, &a) in def.params.iter().zip(&args) {
            work.insert(p, a);
        }
        let lib = RecordLibrary::new(env, rec);
        let r = catch_unwind(AssertUnwindSafe(|| {
            interp_step(def, &def.fold, work, &lib, interner)
        }));
        match r {
            Ok(Ok(next)) => {
                state.copy_from_slice(&next);
                return Ok(());
            }
            Ok(Err(EvalError::Lib(LibError::Transient(_)))) if retries < RETRIES => retries += 1,
            Ok(Err(EvalError::Lib(_))) => return Err((ErrorKind::Lib, retries)),
            Ok(Err(EvalError::OutOfFuel)) => return Err((ErrorKind::OutOfFuel, retries)),
            Ok(Err(e)) => panic!("a validated fold cannot raise {e}"),
            Err(_) => return Err((ErrorKind::Panic, retries)),
        }
    }
}

/// Folds `records[lo..hi]` for the definitions `group`, record by record
/// (the per-record order of external calls both engine modes keep).
fn fold_range<E: UdfEnv>(
    env: &E,
    records: &[E::Rec],
    (lo, hi): (usize, usize),
    defs: &[AggDef],
    group: &[usize],
    interner: &Interner,
    out: &mut [Folded],
) {
    for (r, rec) in records.iter().enumerate().take(hi).skip(lo) {
        for &di in group {
            let f = &mut out[di];
            match fold_step(env, rec, &defs[di], &mut f.state, interner) {
                Ok(()) => f.folds += 1,
                Err((kind, retries)) => f.entries.push((r, Some(defs[di].id), kind, retries)),
            }
        }
    }
}

/// One definition's running fold.
#[derive(Default)]
struct Folded {
    state: Vec<i64>,
    entries: Vec<Entry>,
    folds: u64,
}

fn reference<E: UdfEnv>(
    env: &E,
    records: &[E::Rec],
    defs: &[AggDef],
    proved: &[bool],
    interner: &Interner,
) -> Outcome {
    let fresh = || -> Vec<Folded> {
        defs.iter()
            .map(|d| Folded {
                state: d.init_state(),
                ..Folded::default()
            })
            .collect()
    };
    let par: Vec<usize> = (0..defs.len()).filter(|&i| proved[i]).collect();
    let n_chunks = records.len().div_ceil(AGG_CHUNK).max(1);
    let chunks: Vec<Vec<Folded>> = (0..n_chunks)
        .map(|c| {
            let mut out = fresh();
            let span = (c * AGG_CHUNK, ((c + 1) * AGG_CHUNK).min(records.len()));
            fold_range(env, records, span, defs, &par, interner, &mut out);
            out
        })
        .collect();

    let mut proved_out = proved.to_vec();
    let mut result = fresh();
    let no_calls = FnLibrary::new();
    for &di in &par {
        let def = &defs[di];
        let mut layer: Vec<Vec<i64>> = chunks.iter().map(|c| c[di].state.clone()).collect();
        while layer.len() > 1 && proved_out[di] {
            let mut next = Vec::new();
            for pair in layer.chunks(2) {
                let [l, r] = pair else {
                    next.push(pair[0].clone());
                    continue;
                };
                let mut work = Env::new();
                for (k, slot) in def.state.iter().enumerate() {
                    work.insert(slot.name, l[k]);
                    work.insert(slot.rhs, r[k]);
                }
                match interp_step(def, &def.merge, work, &no_calls, interner) {
                    Ok(s) => next.push(s),
                    Err(EvalError::OutOfFuel) => {
                        proved_out[di] = false;
                        break;
                    }
                    Err(e) => panic!("a validated merge cannot raise {e}"),
                }
            }
            layer = next;
        }
        if proved_out[di] {
            result[di].state = layer.swap_remove(0);
            for c in &chunks {
                result[di].entries.extend(c[di].entries.iter().cloned());
                result[di].folds += c[di].folds;
            }
        }
    }
    let seq: Vec<usize> = (0..defs.len()).filter(|&i| !proved_out[i]).collect();
    fold_range(
        env,
        records,
        (0, records.len()),
        defs,
        &seq,
        interner,
        &mut result,
    );

    let mut entries: Vec<(usize, Entry)> = result
        .iter()
        .enumerate()
        .flat_map(|(di, f)| f.entries.iter().map(move |e| (di, *e)))
        .collect();
    entries.sort_by_key(|(di, e)| (e.0, *di));
    Outcome {
        states: result.iter().map(|f| f.state.clone()).collect(),
        proved: proved_out,
        entries: entries.into_iter().map(|(_, e)| e).collect(),
        folds: result.iter().map(|f| f.folds).sum(),
    }
}

/// Runs the engine at 1, 2 and 8 workers in both modes and checks each run
/// against `expect`. `reset` re-arms stateful faults before every run.
fn assert_engine_matches<E: UdfEnv>(
    env: &E,
    records: &[E::Rec],
    queries: &AggQuerySet,
    interner: &Interner,
    expect: &Outcome,
    reset: &dyn Fn(),
    ctx: &str,
) {
    for workers in [1usize, 2, 8] {
        for mode in [AggMode::Separate, AggMode::Consolidated] {
            reset();
            let rep = Engine::new(workers)
                .with_error_policy(ErrorPolicy::Quarantine {
                    max_errors: usize::MAX,
                })
                .with_retry(RETRIES)
                .with_fuel(FUEL)
                .run_agg(env, records, queries, interner, mode)
                .expect("quarantine absorbs every fault");
            assert_eq!(&outcome(&rep), expect, "{ctx}: {workers} workers, {mode:?}");
        }
    }
}

/// splitmix64: the generator behind the random definitions.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        common::splitmix64(&mut self.0)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, from: &'a [String]) -> &'a str {
        &from[self.below(from.len())]
    }
}

/// Generates one body of statements that only reads definitely-assigned
/// variables, so the definition passes `AggDef::validate`.
struct BodyGen<'a> {
    g: &'a mut Gen,
    /// Whether the body may call library functions (folds only).
    calls: bool,
    /// State slots: assignable.
    slots: Vec<String>,
    /// Variables holding a value at this point.
    defined: Vec<String>,
    /// Fresh-name counter for scratch locals and loop counters.
    fresh: usize,
}

impl BodyGen<'_> {
    fn expr(&mut self, depth: usize) -> String {
        match self.g.below(if depth == 0 { 2 } else { 6 }) {
            0 => self.g.below(10).to_string(),
            1 => self.g.pick(&self.defined).to_string(),
            2 | 3 if self.calls => {
                let f = if self.g.below(2) == 0 { "probe" } else { "g" };
                format!("{f}({})", self.expr(depth - 1))
            }
            _ => {
                let op = ["+", "-", "*"][self.g.below(3)];
                format!("({} {op} {})", self.expr(depth - 1), self.expr(depth - 1))
            }
        }
    }

    fn cond(&mut self, depth: usize) -> String {
        match self.g.below(if depth == 0 { 1 } else { 4 }) {
            0 => {
                let op = ["<", "<=", "==", ">", "!="][self.g.below(5)];
                format!("{} {op} {}", self.expr(2), self.expr(1))
            }
            1 => format!("!({})", self.cond(depth - 1)),
            _ => {
                let op = ["&&", "||"][self.g.below(2)];
                format!("({}) {op} ({})", self.cond(depth - 1), self.cond(depth - 1))
            }
        }
    }

    fn local(&mut self, prefix: &str) -> String {
        self.fresh += 1;
        format!("{prefix}{}", self.fresh)
    }

    fn define(&mut self, v: &str) {
        if !self.defined.iter().any(|d| d == v) {
            self.defined.push(v.to_string());
        }
    }

    fn block(&mut self, n: usize, depth: usize) -> String {
        (0..n)
            .map(|_| self.stmt(depth))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// A nested block: its assignments do not outlive it.
    fn scoped(&mut self, n: usize, depth: usize) -> (String, Vec<String>) {
        let outer = self.defined.clone();
        let s = self.block(n, depth);
        (s, std::mem::replace(&mut self.defined, outer))
    }

    fn stmt(&mut self, depth: usize) -> String {
        let roll = self.g.below(100);
        if depth > 0 && roll < 20 {
            let c = self.cond(2);
            let (n_then, n_else) = (1 + self.g.below(3), self.g.below(3));
            let (a, then_defs) = self.scoped(n_then, depth - 1);
            let (b, else_defs) = self.scoped(n_else, depth - 1);
            for v in then_defs.iter().filter(|v| else_defs.contains(v)) {
                self.define(v);
            }
            let b = if b.is_empty() { "skip;".to_string() } else { b };
            return format!("if ({c}) {{ {a} }} else {{ {b} }}");
        }
        if depth > 0 && roll < 32 {
            let i = self.local("i");
            let k = self.g.below(4);
            self.define(&i);
            let n = 1 + self.g.below(2);
            let (body, _) = self.scoped(n, depth - 1);
            return format!("{i} := 0; while ({i} < {k}) {{ {body} {i} := {i} + 1; }}");
        }
        if roll < 36 {
            // Far past the budget, on some inputs only.
            let c = self.cond(1);
            let j = self.local("j");
            return format!("if ({c}) {{ {j} := 0; while ({j} < {BURN}) {{ {j} := {j} + 1; }} }}");
        }
        if roll < 40 {
            return "skip;".to_string();
        }
        let e = self.expr(2);
        let target = match self.g.below(3) {
            0 => self.local("t"),
            _ => self.g.pick(&self.slots).to_string(),
        };
        self.define(&target);
        format!("{target} := {e};")
    }
}

/// A random definition over record parameters `(v, w)`: one to three state
/// slots, a fold with `if`, `while`, calls and scratch locals, and a
/// call-free merge of the same kinds.
fn random_def(seed: u64, id: usize) -> String {
    let mut g = Gen(seed);
    let n_slots = 1 + g.below(3);
    let slots: Vec<String> = (0..n_slots).map(|k| format!("s{k}")).collect();
    let decls: String = slots
        .iter()
        .map(|s| format!("state {s} = {};", g.below(7)))
        .collect();
    let rhs: Vec<String> = slots.iter().map(|s| format!("rhs_{s}")).collect();
    let mut fold = BodyGen {
        g: &mut g,
        calls: true,
        slots: slots.clone(),
        defined: ["v", "w"]
            .iter()
            .map(|s| s.to_string())
            .chain(slots.clone())
            .collect(),
        fresh: 0,
    };
    let n = 1 + fold.g.below(4);
    let fold = fold.block(n, 2);
    let mut merge = BodyGen {
        g: &mut g,
        calls: false,
        slots: slots.clone(),
        defined: slots.iter().chain(&rhs).cloned().collect(),
        fresh: 0,
    };
    let n = 1 + merge.g.below(3);
    let merge = merge.block(n, 2);
    format!("aggregate a{id} @{id} (v, w) {{ {decls} fold {{ {fold} }} merge {{ {merge} }} }}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random definitions and proved flags (the flags are asserted, not
    /// proved, so a non-homomorphic merge runs in parallel too and the
    /// result depends on the merge tree, which the reference restates),
    /// record counts across the chunk boundary, and seeded library-error,
    /// panic and transient faults on `probe`.
    #[test]
    fn run_agg_matches_the_interpreter_fold(
        seeds in prop::collection::vec(any::<u64>(), 1..5),
        proved_bits in any::<u64>(),
        n_records in 0usize..700,
        faults in 0usize..24,
        fault_seed in any::<u64>(),
    ) {
        silence_injected_panics();
        let mut interner = Interner::new();
        let probe = interner.intern("probe");
        let g = interner.intern("g");
        let defs: Vec<AggDef> = seeds
            .iter()
            .enumerate()
            .map(|(id, &s)| {
                let src = random_def(s, id);
                parse_agg(&src, &mut interner).unwrap_or_else(|e| panic!("{e}: {src}"))
            })
            .collect();
        let proved: Vec<bool> = (0..defs.len()).map(|k| proved_bits >> k & 1 == 1).collect();
        let mut lib = FnLibrary::new();
        lib.register(probe, "probe", 1, 20, |a| a[0].wrapping_sub(3));
        lib.register(g, "g", 1, 5, |a| a[0].wrapping_mul(2).wrapping_add(1));
        let plan = FaultPlan::seeded_kinds(
            fault_seed,
            n_records,
            faults,
            &[
                FaultKind::LibError,
                FaultKind::Panic,
                FaultKind::Transient(1),
                FaultKind::Transient(RETRIES + 1),
            ],
        );
        let env = FaultyEnv::new(ScalarEnv::new(2, lib), probe, plan);
        let records = FaultyEnv::<ScalarEnv>::index_records(
            (0..n_records as i64).map(|i| vec![(i * 37) % 201 - 100, (i * 11) % 23 - 7]),
        );
        env.reset_transients();
        let expect = reference(&env, &records, &defs, &proved, &interner);
        let queries = AggQuerySet::new(defs, proved);
        assert_engine_matches(
            &env,
            &records,
            &queries,
            &interner,
            &expect,
            &|| env.reset_transients(),
            &format!("seeds {seeds:?}, {n_records} records"),
        );
    }
}

/// Every `udf_data::agg` family of all five domains folds to the
/// reference's states, with the flags a prover gives them (the `MIX`
/// family's last-value definition sequential). Datasets are cut to a few
/// hundred records, across the chunk boundary.
#[test]
fn every_domain_family_matches_the_interpreter_fold() {
    fn check<E: UdfEnv>(domain: DomainKind, env: &E, records: &[E::Rec], interner: &mut Interner) {
        for family in udf_data::agg::families(domain) {
            let defs = (family.build)(4, 29, interner);
            let mut proved = vec![true; defs.len()];
            if !family.provable {
                proved[defs.len() - 1] = false;
            }
            let expect = reference(env, records, &defs, &proved, interner);
            assert!(expect.entries.is_empty(), "healthy dataset");
            let queries = AggQuerySet::new(defs, proved);
            let ctx = format!("{} {}", domain.name(), family.label);
            assert_engine_matches(env, records, &queries, interner, &expect, &|| {}, &ctx);
        }
    }
    let mut i = Interner::new();
    let weather = udf_data::weather::WeatherEnv::new(&mut i);
    check(
        DomainKind::Weather,
        &weather,
        &udf_data::weather::dataset_sized(260, 3),
        &mut i,
    );
    let (flight, records) = udf_data::flight::dataset_sized(1, &mut i, 3);
    check(DomainKind::Flight, &flight, &records[..300], &mut i);
    let news = udf_data::news::NewsEnv::new(&mut i);
    check(
        DomainKind::News,
        &news,
        &udf_data::news::dataset_sized(300, 3),
        &mut i,
    );
    let twitter = udf_data::twitter::TwitterEnv::new(&mut i);
    check(
        DomainKind::Twitter,
        &twitter,
        &udf_data::twitter::dataset_sized(300, 3),
        &mut i,
    );
    let stock = udf_data::stock::StockEnv::new(&mut i);
    check(
        DomainKind::Stock,
        &stock,
        &udf_data::stock::dataset_sized(260, 600, 3),
        &mut i,
    );
}

//! Golden digests of what udf-smt's theory kernel answers: verdicts,
//! models, candidate cores and work counters.
//!
//! The values were read on the commit *before* the kernel's representation
//! changed (a flat row-major simplex tableau, `Vec` linear forms, integer
//! fast paths in `Rat`, one `LiaProblem` per Nelson–Oppen round). That
//! rewrite promises the same answers bit for bit: the same model, the same
//! core, the same number of rounds, simplex calls and pivots. Consolidation
//! draws rewrite candidates from models and learns blocking clauses from
//! cores, so any drift here can change a plan. A digest that moves means
//! the kernel now answers differently; on a mismatch the whole actual
//! table is printed.
//!
//! Three seeded corpora, each digested with FNV-64:
//! - literal sets through `theory::check_with_model_stats` (result, sorted
//!   model, core, `TheoryStats`), under default and under starved limits;
//! - clause sets through `Solver::check_with_model`, each on a fresh clone
//!   of the configured solver, digested twice: the verdicts alone, and the
//!   search (sorted models, then the clones' `SolverStats` summed). The
//!   verdict digest was read before the search learned relevancy-filtered
//!   final checks, trusted confirmed cores and a flat top-level CNF, and
//!   they left it as it was; the search digest moves with such changes and
//!   was re-pinned with them. The corpus runs once more through one solver
//!   that retains its lemmas across the corpus, which must reach the same
//!   verdicts;
//! - `LiaProblem`s through `simplex::solve_counted` with fractional
//!   coefficients and disequalities, so non-integer rationals and
//!   branch-and-bound both run, plus wide coefficients that overflow.

use query_consolidation::dataflow::digest::Fnv64;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use udf_smt::ctx::{Context, FnSym, Formula, FormulaId, TermId};
use udf_smt::rational::Rat;
use udf_smt::simplex::{self, LiaProblem, LiaResult, LinCon, LinExpr, Rel};
use udf_smt::theory::{self, NoModel, TheoryLimits, TheoryLit, TheoryStats};
use udf_smt::{Model, SatResult, Solver, SolverStats};

/// Compares `got` with the pinned table, reporting the whole actual table
/// on a mismatch so a deliberate re-pin is one copy.
fn assert_pinned(what: &str, got: &[(&str, u64)], pinned: &[(&str, u64)]) {
    let render = |t: &[(&str, u64)]| -> String {
        t.iter()
            .map(|(l, d)| format!("        (\"{l}\", 0x{d:016x}),\n"))
            .collect()
    };
    assert!(
        got == pinned,
        "{what}: answers differ from the pinned digests; actual table:\n{}",
        render(got)
    );
}

/// A model as plain sorted data: variables by index, applications by term.
fn render_model(m: &Model) -> String {
    let mut vars: Vec<(usize, i128)> = m.vars.iter().map(|(v, &x)| (v.index(), x)).collect();
    vars.sort_unstable();
    let mut apps: Vec<(TermId, i128)> = m.apps.iter().map(|(&t, &x)| (t, x)).collect();
    apps.sort_unstable();
    format!("{vars:?}{apps:?}")
}

/// Term builder over a few variables, a unary `f` and a binary `g`.
struct Terms {
    vars: Vec<TermId>,
    f: FnSym,
    g: FnSym,
    /// Constant magnitude: small clashes often, wide overflows pivots.
    wide: bool,
}

impl Terms {
    fn new(ctx: &mut Context, n_vars: usize, wide: bool) -> Terms {
        Terms {
            vars: (0..n_vars).map(|i| ctx.int_var(&format!("x{i}"))).collect(),
            f: ctx.fn_sym("f", 1),
            g: ctx.fn_sym("g", 2),
            wide,
        }
    }

    fn constant(&self, ctx: &mut Context, rng: &mut SmallRng) -> TermId {
        let c = if self.wide && rng.gen_bool(0.5) {
            rng.gen_range(-(1i64 << 62)..(1i64 << 62))
        } else {
            rng.gen_range(-6i64..7)
        };
        ctx.int(c)
    }

    fn var(&self, rng: &mut SmallRng) -> TermId {
        self.vars[rng.gen_range(0..self.vars.len())]
    }

    fn term(&self, ctx: &mut Context, rng: &mut SmallRng, depth: u32) -> TermId {
        let shapes = if depth == 0 { 2 } else { 8 };
        match rng.gen_range(0..shapes) {
            0 => self.constant(ctx, rng),
            1 => self.var(rng),
            2 => {
                let k = if self.wide {
                    rng.gen_range(-(1i64 << 40)..(1i64 << 40))
                } else {
                    rng.gen_range(-5i64..6)
                };
                let (k, t) = (ctx.int(k), self.term(ctx, rng, depth - 1));
                ctx.mul(k, t)
            }
            3 => {
                let (a, b) = (
                    self.term(ctx, rng, depth - 1),
                    self.term(ctx, rng, depth - 1),
                );
                ctx.add(a, b)
            }
            4 => {
                let (a, b) = (
                    self.term(ctx, rng, depth - 1),
                    self.term(ctx, rng, depth - 1),
                );
                ctx.sub(a, b)
            }
            5 => {
                let a = self.term(ctx, rng, depth - 1);
                ctx.app(self.f, vec![a])
            }
            6 => {
                let (a, b) = (
                    self.term(ctx, rng, depth - 1),
                    self.term(ctx, rng, depth - 1),
                );
                ctx.app(self.g, vec![a, b])
            }
            _ => {
                let (a, b) = (self.var(rng), self.var(rng));
                ctx.mul(a, b)
            }
        }
    }

    /// A theory atom (`≤`, `<` or `=`), never one the context folded to a
    /// constant.
    fn atom(&self, ctx: &mut Context, rng: &mut SmallRng, depth: u32) -> FormulaId {
        loop {
            let (a, b) = (self.term(ctx, rng, depth), self.term(ctx, rng, depth));
            let atom = match rng.gen_range(0..3) {
                0 => ctx.le(a, b),
                1 => ctx.lt(a, b),
                _ => ctx.eq(a, b),
            };
            if matches!(
                ctx.formula(atom),
                Formula::Le(..) | Formula::Lt(..) | Formula::Eq(..)
            ) {
                return atom;
            }
        }
    }
}

/// Limits tight enough that budgets, probe caps and round caps all bite.
const STARVED: TheoryLimits = TheoryLimits {
    lia_budget: 2,
    max_probe_pairs: 1,
    max_rounds: 2,
};

/// Digest of `n` seeded literal sets under `limits`, and how many ended
/// consistent, inconsistent and unknown.
fn theory_digest(seed: u64, n: usize, wide: bool, limits: &TheoryLimits) -> (u64, [usize; 3]) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ctx = Context::new();
    let terms = Terms::new(&mut ctx, 5, wide);
    let mut h = Fnv64::new();
    let mut kinds = [0usize; 3];
    for _ in 0..n {
        let len = rng.gen_range(2..13);
        let depth = rng.gen_range(1..3);
        let literals: Vec<TheoryLit> = (0..len)
            .map(|_| (terms.atom(&mut ctx, &mut rng, depth), rng.gen_bool(0.6)))
            .collect();
        let mut stats = TheoryStats::default();
        let out = theory::check_with_model_stats(&ctx, &literals, limits, &mut stats);
        let rendered = match &out {
            Ok(m) => {
                kinds[0] += 1;
                format!("sat {}", render_model(m))
            }
            Err(NoModel::Inconsistent(core)) => {
                kinds[1] += 1;
                format!("core {core:?}")
            }
            Err(NoModel::Unknown) => {
                kinds[2] += 1;
                "unknown".to_string()
            }
        };
        h.bytes(format!("{rendered}|{stats:?};").as_bytes());
    }
    (h.finish(), kinds)
}

/// `n` seeded clause sets over one context.
fn clause_corpus(seed: u64, n: usize) -> (Context, Vec<FormulaId>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ctx = Context::new();
    let terms = Terms::new(&mut ctx, 2, false);
    let corpus = (0..n)
        .map(|_| {
            let clauses: Vec<FormulaId> = (0..rng.gen_range(6..16))
                .map(|_| {
                    let lits: Vec<FormulaId> = (0..rng.gen_range(1..4))
                        .map(|_| {
                            let atom = terms.atom(&mut ctx, &mut rng, 1);
                            if rng.gen_bool(0.3) {
                                ctx.not(atom)
                            } else {
                                atom
                            }
                        })
                        .collect();
                    ctx.or_all(lits)
                })
                .collect();
            ctx.and_all(clauses)
        })
        .collect();
    (ctx, corpus)
}

/// Digests of `n` seeded clause sets, each through a clone of `solver` of
/// its own (so no retained lemma carries over from one to the next): of the
/// verdicts, and of the models with the clones' statistics summed last; and
/// how many ended sat, unsat and unknown.
fn solver_digest(seed: u64, n: usize, solver: &Solver) -> ([u64; 2], [usize; 3]) {
    let (ctx, corpus) = clause_corpus(seed, n);
    let (mut verdicts, mut search) = (Fnv64::new(), Fnv64::new());
    let mut kinds = [0usize; 3];
    let mut stats = SolverStats::default();
    for phi in corpus {
        let mut solver = solver.clone();
        let (verdict, model) = solver.check_with_model(&ctx, phi);
        stats += solver.stats();
        kinds[match verdict {
            SatResult::Sat => 0,
            SatResult::Unsat => 1,
            SatResult::Unknown => 2,
        }] += 1;
        verdicts.bytes(format!("{verdict:?};").as_bytes());
        let model = model.as_ref().map(render_model).unwrap_or_default();
        search.bytes(format!("{model};").as_bytes());
    }
    search.bytes(format!("{stats:?}").as_bytes());
    ([verdicts.finish(), search.finish()], kinds)
}

fn rational(rng: &mut SmallRng, wide: bool) -> Rat {
    let num = if wide && rng.gen_bool(0.4) {
        i128::from(rng.gen_range(-(1i64 << 60)..(1i64 << 60)))
    } else {
        i128::from(rng.gen_range(-9i64..10))
    };
    let den = if wide && rng.gen_bool(0.4) {
        i128::from(rng.gen_range(1i64..(1i64 << 40)))
    } else {
        i128::from(rng.gen_range(1i64..6))
    };
    Rat::new(num, den).expect("nonzero denominator")
}

/// A linear form over `num_vars` variables; integral with probability
/// `p_integral`, else with rational coefficients and constant.
fn lin_expr(rng: &mut SmallRng, num_vars: usize, wide: bool, p_integral: f64) -> LinExpr {
    let integral = rng.gen_bool(p_integral);
    let mut e = LinExpr::constant(if integral {
        Rat::int(i128::from(rng.gen_range(-6i64..7)))
    } else {
        rational(rng, wide)
    });
    let first = rng.gen_range(0..num_vars);
    for v in 0..num_vars {
        if v != first && rng.gen_bool(0.5) {
            continue;
        }
        let c = if integral {
            Rat::int(i128::from(rng.gen_range(1i64..4)) * if rng.gen_bool(0.5) { -1 } else { 1 })
        } else {
            rational(rng, wide)
        };
        // Each variable once, so no sum can overflow.
        e.add_term(v, c).expect("a fresh term fits");
    }
    e
}

/// Digest of `n` seeded LIA problems, and how many ended sat, unsat and
/// unknown, and how many explored more than one branch-and-bound node.
fn simplex_digest(seed: u64, n: usize, wide: bool) -> (u64, [usize; 4]) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut h = Fnv64::new();
    let mut kinds = [0usize; 4];
    for _ in 0..n {
        let num_vars = rng.gen_range(1..6);
        let constraints = (0..rng.gen_range(1..8))
            .map(|_| LinCon {
                expr: lin_expr(&mut rng, num_vars, wide, 0.3),
                rel: match rng.gen_range(0..3) {
                    0 => Rel::Le,
                    1 => Rel::Ge,
                    _ => Rel::Eq,
                },
            })
            .collect();
        let diseqs = (0..rng.gen_range(0..4))
            .map(|_| lin_expr(&mut rng, num_vars, false, 0.7))
            .collect();
        let p = LiaProblem {
            num_vars,
            constraints,
            diseqs,
        };
        let start = if rng.gen_bool(0.2) {
            rng.gen_range(1u64..6)
        } else {
            simplex::DEFAULT_BNB_BUDGET
        };
        let (mut budget, mut pivots) = (start, 0u64);
        let out = simplex::solve_counted(&p, &mut budget, &mut pivots);
        kinds[match out {
            LiaResult::Sat(_) => 0,
            LiaResult::Unsat(_) => 1,
            LiaResult::Unknown => 2,
        }] += 1;
        if start - budget > 1 {
            kinds[3] += 1;
        }
        h.bytes(format!("{out:?}|{budget}|{pivots};").as_bytes());
    }
    (h.finish(), kinds)
}

#[test]
fn theory_checks_answer_as_pinned() {
    let cases = [
        (
            "small",
            theory_digest(11, 600, false, &TheoryLimits::default()),
        ),
        ("small-starved", theory_digest(11, 600, false, &STARVED)),
        (
            "wide",
            theory_digest(12, 400, true, &TheoryLimits::default()),
        ),
    ];
    for (label, (_, [sat, inconsistent, unknown])) in &cases {
        assert!(
            *sat > 20 && *inconsistent > 20,
            "{label}: corpus is one-sided: {sat} sat, {inconsistent} inconsistent, \
             {unknown} unknown"
        );
    }
    let [_, _, unknown_starved] = cases[1].1 .1;
    assert!(unknown_starved > 10, "starved limits never bit");
    let got: Vec<(&str, u64)> = cases.iter().map(|(l, (d, _))| (*l, *d)).collect();
    assert_pinned(
        "theory::check_with_model_stats",
        &got,
        &[
            ("small", 0xfa6fd5d76e742e7a),
            ("small-starved", 0x5d0cdabb805024a7),
            ("wide", 0x4eedf754ee20b805),
        ],
    );
}

#[test]
fn solver_checks_answer_as_pinned() {
    let mut starved = Solver::new();
    starved.theory_limits = STARVED;
    let cases = [
        ("default", solver_digest(21, 300, &Solver::new())),
        ("starved", solver_digest(21, 300, &starved)),
    ];
    let [sat, unsat, _] = cases[0].1 .1;
    assert!(
        sat > 20 && unsat > 20,
        "corpus is one-sided: {sat} sat, {unsat} unsat"
    );
    let digests =
        |k: usize| -> Vec<(&str, u64)> { cases.iter().map(|(l, (d, _))| (*l, d[k])).collect() };
    assert_pinned(
        "Solver::check_with_model verdicts",
        &digests(0),
        &[
            ("default", 0xc7745b3e68c242bd),
            ("starved", 0x698c489be2fde0e8),
        ],
    );
    assert_pinned(
        "Solver::check_with_model models and stats",
        &digests(1),
        &[
            ("default", 0x199dc59ef89eee97),
            ("starved", 0xee96ade385468e74),
        ],
    );
}

/// The corpus of `solver_checks_answer_as_pinned` through one solver,
/// which keeps the cores it confirms on one formula as lemmas for the next:
/// the verdicts are those of a fresh solver per formula, reached with fewer
/// theory checks.
#[test]
fn retained_lemmas_keep_the_pinned_verdicts() {
    let mut starved = Solver::new();
    starved.theory_limits = STARVED;
    let (ctx, corpus) = clause_corpus(21, 300);
    for (label, configured) in [("default", Solver::new()), ("starved", starved)] {
        let mut retaining = configured.clone();
        let mut fresh_checks = 0;
        for &phi in &corpus {
            let mut fresh = configured.clone();
            let expected = fresh.check(&ctx, phi);
            fresh_checks += fresh.stats().theory_checks;
            assert_eq!(
                retaining.check(&ctx, phi),
                expected,
                "{label}: {}",
                ctx.formula_to_string(phi)
            );
        }
        let retained_checks = retaining.stats().theory_checks;
        assert!(
            retained_checks < fresh_checks,
            "{label}: retention saved no theory check ({retained_checks} vs {fresh_checks})"
        );
    }
}

#[test]
fn simplex_solves_answer_as_pinned() {
    let cases = [
        ("fractional", simplex_digest(31, 1500, false)),
        ("wide", simplex_digest(32, 1500, true)),
    ];
    for (label, (_, [sat, unsat, unknown, branched])) in &cases {
        assert!(
            *sat > 50 && *unsat > 50 && *unknown > 5 && *branched > 20,
            "{label}: corpus misses a path: {sat} sat, {unsat} unsat, {unknown} unknown, \
             {branched} branched"
        );
    }
    let got: Vec<(&str, u64)> = cases.iter().map(|(l, (d, _))| (*l, *d)).collect();
    assert_pinned(
        "simplex::solve_counted",
        &got,
        &[
            ("fractional", 0xba77c130619e8f86),
            ("wide", 0x19ad7938c29258a3),
        ],
    );
}

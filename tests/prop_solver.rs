//! Property tests cross-checking the SMT solver against brute-force
//! enumeration of small integer models.
//!
//! The crucial property is *soundness of `Unsat`*: whenever the solver
//! reports `Unsat`, no model may exist — the consolidation engine turns
//! `Unsat` answers into program rewrites, so a wrong `Unsat` would produce a
//! wrong program. We enumerate all assignments over a small domain; finding
//! any model for a formula the solver called `Unsat` is a test failure.
//! (Incompleteness in the other direction — a spurious `Sat` — is explicitly
//! allowed and separately measured.)
//!
//! The same holds one level down for *conflict cores*: the theory explains
//! an inconsistent literal set with a subset (the infeasible simplex row,
//! the congruence proof), and the solver blocks that subset. The core
//! properties below check the explanations directly, on conjunctions larger
//! than any size cap the solver ever had, and check the solver that uses
//! them against a reference that never looks at an explanation.
//!
//! The "not valid" side has its own independent check: `udf_smt::eval`
//! evaluates a formula under a total interpretation built from a `Sat`
//! model, and the consolidation engine answers entailments from kept
//! interpretations without calling the solver. Below, that evaluator is
//! held to this suite's brute-force one, and every refutation it produces
//! from a model found for a *different* question is held to the solver.

use proptest::prelude::*;
use udf_smt::ctx::{Context, Formula, FormulaId, Term, TermId};
use udf_smt::sat::{Lit, SatOutcome, SatSolver};
use udf_smt::theory::{self, NoModel, TheoryLimits, TheoryLit, TheoryResult, TheoryStats};
use udf_smt::{cnf, Interp, Model, SatResult, Solver};

/// A compact generator language for formulas over three integer variables
/// and one unary uninterpreted function.
#[derive(Clone, Debug)]
enum GenTerm {
    Const(i8),
    Var(u8),           // 0..3
    App(Box<GenTerm>), // f(t)
    Add(Box<GenTerm>, Box<GenTerm>),
    Sub(Box<GenTerm>, Box<GenTerm>),
    MulC(i8, Box<GenTerm>),
}

#[derive(Clone, Debug)]
enum GenFormula {
    Le(GenTerm, GenTerm),
    Lt(GenTerm, GenTerm),
    Eq(GenTerm, GenTerm),
    Not(Box<GenFormula>),
    And(Box<GenFormula>, Box<GenFormula>),
    Or(Box<GenFormula>, Box<GenFormula>),
}

fn gen_leaf() -> impl Strategy<Value = GenTerm> {
    prop_oneof![
        (-4i8..5).prop_map(GenTerm::Const),
        (0u8..3).prop_map(GenTerm::Var),
    ]
}

/// Terms of exactly `depth` operator levels over the leaves.
fn gen_term(apps: bool, depth: u32) -> BoxedStrategy<GenTerm> {
    gen_leaf().prop_recursive(depth, 16, 2, move |inner| {
        let base = prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| GenTerm::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| GenTerm::Sub(Box::new(a), Box::new(b))),
            ((-3i8..4), inner.clone()).prop_map(|(c, t)| GenTerm::MulC(c, Box::new(t))),
        ];
        if apps {
            prop_oneof![base, inner.prop_map(|t| GenTerm::App(Box::new(t)))].boxed()
        } else {
            base.boxed()
        }
    })
}

fn gen_atom(term: impl Fn() -> BoxedStrategy<GenTerm>) -> impl Strategy<Value = GenFormula> {
    prop_oneof![
        (term(), term()).prop_map(|(a, b)| GenFormula::Le(a, b)),
        (term(), term()).prop_map(|(a, b)| GenFormula::Lt(a, b)),
        (term(), term()).prop_map(|(a, b)| GenFormula::Eq(a, b)),
    ]
}

/// A literal over small terms (`x`, `c`, `x ± y`, `c·x`, `f(x)`): cheap for
/// the theory, and many of them over three variables clash.
fn gen_small_literal(apps: bool) -> impl Strategy<Value = (GenFormula, bool)> {
    let small = move || prop_oneof![gen_leaf().boxed(), gen_term(apps, 1)].boxed();
    (gen_atom(small), any::<bool>())
}

/// 12–40 literals: above the 24-literal cap the solver used to stop
/// minimising at.
fn gen_conjunction(apps: bool) -> impl Strategy<Value = Vec<(GenFormula, bool)>> {
    prop::collection::vec(gen_small_literal(apps), 12..41)
}

/// A conjunction of 4–11 clauses of 1–3 small literals: many boolean
/// models, most of them theory-inconsistent, so the solver's verdict rests
/// on the blocking clauses it learns.
fn gen_clauses() -> impl Strategy<Value = GenFormula> {
    let clause = prop::collection::vec(gen_small_literal(true), 1..4);
    prop::collection::vec(clause, 4..12).prop_map(|clauses| {
        let literal = |(atom, polarity): (GenFormula, bool)| {
            if polarity {
                atom
            } else {
                GenFormula::Not(Box::new(atom))
            }
        };
        let fold = |fs: Vec<GenFormula>, op: fn(Box<GenFormula>, Box<GenFormula>) -> GenFormula| {
            fs.into_iter()
                .reduce(|a, b| op(Box::new(a), Box::new(b)))
                .expect("non-empty by construction")
        };
        let clauses = clauses
            .into_iter()
            .map(|c| fold(c.into_iter().map(literal).collect(), GenFormula::Or))
            .collect();
        fold(clauses, GenFormula::And)
    })
}

/// Formulas of `depth` connective levels over atoms of `depth`-level terms.
fn gen_formula_of(apps: bool, depth: u32) -> impl Strategy<Value = GenFormula> {
    gen_atom(move || gen_term(apps, depth)).prop_recursive(depth, 24, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|f| GenFormula::Not(Box::new(f))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| GenFormula::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| GenFormula::Or(Box::new(a), Box::new(b))),
        ]
    })
}

fn gen_formula_with(apps: bool) -> impl Strategy<Value = GenFormula> {
    gen_formula_of(apps, 3)
}

fn gen_formula() -> impl Strategy<Value = GenFormula> {
    gen_formula_with(true)
}

fn build_term(ctx: &mut Context, t: &GenTerm) -> TermId {
    match t {
        GenTerm::Const(c) => ctx.int(i64::from(*c)),
        GenTerm::Var(v) => {
            let name = ["x", "y", "z"][*v as usize];
            ctx.int_var(name)
        }
        GenTerm::App(a) => {
            let f = ctx.fn_sym("f", 1);
            let arg = build_term(ctx, a);
            ctx.app(f, vec![arg])
        }
        GenTerm::Add(a, b) => {
            let (ta, tb) = (build_term(ctx, a), build_term(ctx, b));
            ctx.add(ta, tb)
        }
        GenTerm::Sub(a, b) => {
            let (ta, tb) = (build_term(ctx, a), build_term(ctx, b));
            ctx.sub(ta, tb)
        }
        GenTerm::MulC(c, a) => {
            let tc = ctx.int(i64::from(*c));
            let ta = build_term(ctx, a);
            ctx.mul(tc, ta)
        }
    }
}

fn build_formula(ctx: &mut Context, f: &GenFormula) -> FormulaId {
    match f {
        GenFormula::Le(a, b) => {
            let (ta, tb) = (build_term(ctx, a), build_term(ctx, b));
            ctx.le(ta, tb)
        }
        GenFormula::Lt(a, b) => {
            let (ta, tb) = (build_term(ctx, a), build_term(ctx, b));
            ctx.lt(ta, tb)
        }
        GenFormula::Eq(a, b) => {
            let (ta, tb) = (build_term(ctx, a), build_term(ctx, b));
            ctx.eq(ta, tb)
        }
        GenFormula::Not(g) => {
            let fg = build_formula(ctx, g);
            ctx.not(fg)
        }
        GenFormula::And(a, b) => {
            let (fa, fb) = (build_formula(ctx, a), build_formula(ctx, b));
            ctx.and(fa, fb)
        }
        GenFormula::Or(a, b) => {
            let (fa, fb) = (build_formula(ctx, a), build_formula(ctx, b));
            ctx.or(fa, fb)
        }
    }
}

/// Reference evaluation over a concrete assignment; `f` is interpreted as a
/// fixed nontrivial function so congruence matters.
fn eval_term(ctx: &Context, t: TermId, env: &[i64; 3]) -> i64 {
    match ctx.term(t) {
        Term::Int(c) => *c,
        Term::Var(v) => {
            let name = ctx.var_name(*v);
            match name {
                "x" => env[0],
                "y" => env[1],
                "z" => env[2],
                other => panic!("unexpected var {other}"),
            }
        }
        Term::App(_, args) => {
            let a = eval_term(ctx, args[0], env);
            // Fixed interpretation: f(a) = a*a − 3 (deterministic, nonlinear).
            a.wrapping_mul(a).wrapping_sub(3)
        }
        Term::Add(a, b) => eval_term(ctx, *a, env).wrapping_add(eval_term(ctx, *b, env)),
        Term::Sub(a, b) => eval_term(ctx, *a, env).wrapping_sub(eval_term(ctx, *b, env)),
        Term::Mul(a, b) => eval_term(ctx, *a, env).wrapping_mul(eval_term(ctx, *b, env)),
    }
}

fn eval_formula(ctx: &Context, f: FormulaId, env: &[i64; 3]) -> bool {
    match ctx.formula(f) {
        Formula::True => true,
        Formula::False => false,
        Formula::Le(a, b) => eval_term(ctx, *a, env) <= eval_term(ctx, *b, env),
        Formula::Lt(a, b) => eval_term(ctx, *a, env) < eval_term(ctx, *b, env),
        Formula::Eq(a, b) => eval_term(ctx, *a, env) == eval_term(ctx, *b, env),
        Formula::Not(g) => !eval_formula(ctx, *g, env),
        Formula::And(a, b) => eval_formula(ctx, *a, env) && eval_formula(ctx, *b, env),
        Formula::Or(a, b) => eval_formula(ctx, *a, env) || eval_formula(ctx, *b, env),
    }
}

fn brute_force_has_model(ctx: &Context, f: FormulaId) -> Option<[i64; 3]> {
    const D: std::ops::RangeInclusive<i64> = -4..=4;
    for x in D {
        for y in D {
            for z in D {
                let env = [x, y, z];
                if eval_formula(ctx, f, &env) {
                    return Some(env);
                }
            }
        }
    }
    None
}

fn collect_apps(ctx: &Context, t: TermId, out: &mut Vec<TermId>) {
    match ctx.term(t) {
        Term::Int(_) | Term::Var(_) => {}
        Term::App(_, args) => {
            out.push(t);
            for &a in args {
                collect_apps(ctx, a, out);
            }
        }
        Term::Add(a, b) | Term::Sub(a, b) | Term::Mul(a, b) => {
            collect_apps(ctx, *a, out);
            collect_apps(ctx, *b, out);
        }
    }
}

/// Every application term of `f`.
fn app_terms(ctx: &Context, f: FormulaId, out: &mut Vec<TermId>) {
    match ctx.formula(f) {
        Formula::True | Formula::False => {}
        Formula::Le(a, b) | Formula::Lt(a, b) | Formula::Eq(a, b) => {
            collect_apps(ctx, *a, out);
            collect_apps(ctx, *b, out);
        }
        Formula::Not(g) => app_terms(ctx, *g, out),
        Formula::And(a, b) | Formula::Or(a, b) => {
            app_terms(ctx, *a, out);
            app_terms(ctx, *b, out);
        }
    }
}

/// Builds the literal set of a generated conjunction. Atoms that fold to a
/// constant and literals the theory refutes on their own (`x < x`) are
/// dropped, so every core has to combine literals; duplicates are kept once.
fn build_literals(ctx: &mut Context, lits: &[(GenFormula, bool)]) -> Vec<TheoryLit> {
    let mut out: Vec<TheoryLit> = Vec::new();
    for (g, polarity) in lits {
        let lit = (build_formula(ctx, g), *polarity);
        let is_atom = !matches!(ctx.formula(lit.0), Formula::True | Formula::False);
        if is_atom
            && !out.iter().any(|&(a, _)| a == lit.0)
            && theory::check(ctx, &[lit], &TheoryLimits::default()) == TheoryResult::Consistent
        {
            out.push(lit);
        }
    }
    out
}

/// The conjunction of `literals` as one formula.
fn conjoin(ctx: &mut Context, literals: &[TheoryLit]) -> FormulaId {
    let mut acc = ctx.tru();
    for &(atom, polarity) in literals {
        let lit = if polarity { atom } else { ctx.not(atom) };
        acc = ctx.and(acc, lit);
    }
    acc
}

/// A candidate core must stand on its own: indices into the input, refuted
/// by the theory as given, and without a model in the box.
fn assert_core_explains(ctx: &mut Context, literals: &[TheoryLit]) {
    let limits = TheoryLimits::default();
    let checked =
        theory::check_with_model_stats(ctx, literals, &limits, &mut TheoryStats::default());
    let Err(NoModel::Inconsistent(core)) = checked else {
        return;
    };
    assert!(!core.is_empty(), "an empty conjunction is consistent");
    assert!(
        core.windows(2).all(|w| w[0] < w[1]),
        "sorted, distinct: {core:?}"
    );
    assert!(
        core.iter().all(|&i| i < literals.len()),
        "core ⊆ input: {core:?}"
    );
    let subset: Vec<TheoryLit> = core.iter().map(|&i| literals[i]).collect();
    let f = conjoin(ctx, &subset);
    assert_eq!(
        theory::check(ctx, &subset, &limits),
        TheoryResult::Inconsistent,
        "core {core:?} of {} literals is not refuted on its own: {}",
        literals.len(),
        ctx.formula_to_string(f)
    );
    if let Some(model) = brute_force_has_model(ctx, f) {
        panic!(
            "core {core:?} has model {model:?}: {}",
            ctx.formula_to_string(f)
        );
    }
}

/// The lazy-SMT loop with no explanations: every conflict is minimised by
/// greedy deletion from the *full* literal set, each step a `theory::check`.
/// Slow, and obviously right.
fn reference_check(ctx: &Context, f: FormulaId) -> SatResult {
    match ctx.formula(f) {
        Formula::True => return SatResult::Sat,
        Formula::False => return SatResult::Unsat,
        _ => {}
    }
    let Solver {
        max_conflicts,
        max_final_checks,
        theory_limits: limits,
        ..
    } = Solver::new();
    let mut sat = SatSolver::new();
    let atoms: Vec<_> = cnf::compile(ctx, f, &mut sat).atoms.into_iter().collect();
    let mut saw_unknown = false;
    for _ in 0..max_final_checks {
        match sat.solve(max_conflicts) {
            SatOutcome::Unsat if saw_unknown => return SatResult::Unknown,
            SatOutcome::Unsat => return SatResult::Unsat,
            SatOutcome::Unknown => return SatResult::Unknown,
            SatOutcome::Sat => {}
        }
        let mut block: Vec<(Lit, TheoryLit)> = atoms
            .iter()
            .map(|&(v, a)| {
                let value = sat.value(v);
                (if value { Lit::neg(v) } else { Lit::pos(v) }, (a, value))
            })
            .collect();
        let lits = |b: &[(Lit, TheoryLit)]| b.iter().map(|&(_, l)| l).collect::<Vec<_>>();
        match theory::check(ctx, &lits(&block), &limits) {
            TheoryResult::Consistent => return SatResult::Sat,
            TheoryResult::Unknown => saw_unknown = true,
            TheoryResult::Inconsistent => {
                let mut i = 0;
                while i < block.len() {
                    let removed = block.remove(i);
                    if theory::check(ctx, &lits(&block), &limits) != TheoryResult::Inconsistent {
                        block.insert(i, removed);
                        i += 1;
                    }
                }
            }
        }
        sat.add_clause(&block.iter().map(|&(l, _)| l).collect::<Vec<_>>());
    }
    SatResult::Unknown
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// `Unsat` verdicts are sound: no small-domain model may exist.
    #[test]
    fn unsat_is_sound(gf in gen_formula()) {
        let mut ctx = Context::new();
        let f = build_formula(&mut ctx, &gf);
        let mut solver = Solver::new();
        let result = solver.check(&ctx, f);
        if result == SatResult::Unsat {
            if let Some(model) = brute_force_has_model(&ctx, f) {
                panic!(
                    "solver said Unsat but {model:?} satisfies {}",
                    ctx.formula_to_string(f)
                );
            }
        }
    }

    /// Purely linear formulas (no uninterpreted function): the solver is a
    /// complete decision procedure, so a brute-force model forces `Sat`.
    #[test]
    fn linear_sat_is_found(gf in gen_formula_with(false)) {
        let mut ctx = Context::new();
        let f = build_formula(&mut ctx, &gf);
        let mut solver = Solver::new();
        let result = solver.check(&ctx, f);
        if brute_force_has_model(&ctx, f).is_some() {
            prop_assert_ne!(result, SatResult::Unsat);
        }
    }

    /// Candidate cores of large mixed conjunctions explain themselves.
    #[test]
    fn cores_of_large_conjunctions_are_inconsistent(lits in gen_conjunction(true)) {
        let mut ctx = Context::new();
        let literals = build_literals(&mut ctx, &lits);
        assert_core_explains(&mut ctx, &literals);
    }

    /// The same without the uninterpreted function: every core is then a
    /// pure simplex explanation (row, gcd cut, branch-and-bound union).
    #[test]
    fn cores_of_large_linear_conjunctions_are_inconsistent(lits in gen_conjunction(false)) {
        let mut ctx = Context::new();
        let literals = build_literals(&mut ctx, &lits);
        assert_core_explains(&mut ctx, &literals);
    }

    /// Two independent evaluators, one answer: `udf_smt::eval` under the
    /// model that spells out this suite's fixed interpretation (`env` for
    /// the variables, `f(a) = a·a − 3` for every application in the
    /// formula) against the brute-force `eval_formula`.
    #[test]
    fn eval_agrees_with_the_brute_force_evaluator(
        gf in gen_formula(),
        env in (-4i64..5, -4i64..5, -4i64..5),
    ) {
        let mut ctx = Context::new();
        let f = build_formula(&mut ctx, &gf);
        let env = [env.0, env.1, env.2];
        let mut model = Model::default();
        for (name, value) in ["x", "y", "z"].into_iter().zip(env) {
            model.vars.insert(ctx.var(name), i128::from(value));
        }
        let mut apps = Vec::new();
        app_terms(&ctx, f, &mut apps);
        for t in apps {
            model.apps.insert(t, i128::from(eval_term(&ctx, t, &env)));
        }
        prop_assert_eq!(
            Interp::new(model).formula(&ctx, f),
            Some(eval_formula(&ctx, f, &env)),
            "{} under {:?}", ctx.formula_to_string(f), env
        );
    }

    /// A countermodel is reused only where there is nothing to prove. The
    /// solver's model of one question `Ψ₀ ∧ ¬φ₀` is turned into an
    /// interpretation and tried on the questions Ω asks next — the same `Ψ₀`
    /// grown by a conjunct, `φ₀` weakened and strengthened, unrelated pairs;
    /// wherever it makes `Ψ` true and `φ` false, the solver must not call
    /// `Ψ ⊨ φ` valid. Nothing is assumed about the model (it is not even
    /// checked against its own question): the evaluation is the whole guard.
    #[test]
    fn reused_countermodels_never_refute_a_valid_entailment(
        (g_psi0, g_phi0, g_extra) in
            (gen_formula_of(true, 2), gen_formula_of(true, 2), gen_formula_of(true, 2)),
    ) {
        let mut ctx = Context::new();
        let psi0 = build_formula(&mut ctx, &g_psi0);
        let phi0 = build_formula(&mut ctx, &g_phi0);
        let extra = build_formula(&mut ctx, &g_extra);
        let neg = ctx.not(phi0);
        let q0 = ctx.and(psi0, neg);
        let (_, Some(model)) = Solver::new().check_with_model(&ctx, q0) else {
            return Ok(());
        };
        let mut interp = Interp::new(model);
        let grown = ctx.and(psi0, extra);
        let weaker = ctx.or(phi0, extra);
        let stronger = ctx.and(phi0, extra);
        let questions = [
            (psi0, phi0),
            (grown, phi0),
            (psi0, weaker),
            (psi0, stronger),
            (grown, extra),
            (extra, phi0),
        ];
        for (psi, phi) in questions {
            let neg = ctx.not(phi);
            let q = ctx.and(psi, neg);
            if interp.formula(&ctx, q) == Some(true) {
                prop_assert!(
                    !Solver::new().is_valid(&mut ctx, psi, phi),
                    "a model of {} refutes the valid {} ⊨ {}",
                    ctx.formula_to_string(q0),
                    ctx.formula_to_string(psi),
                    ctx.formula_to_string(phi)
                );
            }
        }
    }

    /// Seeding minimisation from explanations changes no verdict: the
    /// solver agrees with the reference that minimises from the full set.
    #[test]
    fn verdicts_match_full_set_minimisation(gf in gen_clauses()) {
        let mut ctx = Context::new();
        let f = build_formula(&mut ctx, &gf);
        let got = Solver::new().check(&ctx, f);
        prop_assert_eq!(got, reference_check(&ctx, f), "{}", ctx.formula_to_string(f));
    }
}

/// The congruence trap: a model that gives `f(a) = 1` and `f(b) = 2` while
/// `a = b` is not a function table. The interpretation built from it is
/// one anyway — the first application evaluated fixes the entry — so it
/// cannot make `a = b ∧ f(a) ≠ f(b)` true, in whichever order the two are
/// met.
#[test]
fn inconsistent_application_values_yield_one_function() {
    let mut ctx = Context::new();
    let f = ctx.fn_sym("f", 1);
    let (a, b) = (ctx.int_var("a"), ctx.int_var("b"));
    let (fa, fb) = (ctx.app(f, vec![a]), ctx.app(f, vec![b]));
    let mut model = Model::default();
    model.vars.insert(ctx.var("a"), 5);
    model.vars.insert(ctx.var("b"), 5);
    model.apps.insert(fa, 1);
    model.apps.insert(fb, 2);
    let same_arg = ctx.eq(a, b);
    let same_result = ctx.eq(fa, fb);
    let differ = ctx.not(same_result);
    let trap = ctx.and(same_arg, differ);
    assert_ne!(Solver::new().check(&ctx, trap), SatResult::Sat);

    let mut a_first = Interp::new(model.clone());
    assert_eq!(a_first.term(&ctx, fa), Some(1));
    assert_eq!(a_first.term(&ctx, fb), Some(1), "f(5) is already 1");
    assert_eq!(a_first.formula(&ctx, trap), Some(false));

    let mut b_first = Interp::new(model);
    assert_eq!(b_first.term(&ctx, fb), Some(2));
    assert_eq!(b_first.term(&ctx, fa), Some(2), "f(5) is already 2");
    assert_eq!(b_first.formula(&ctx, trap), Some(false));
}

/// Products are computed, not abstracted, so they can leave `i128`; then the
/// evaluator has no answer — for the term, and for every formula over it,
/// whatever the other operands say.
#[test]
fn overflow_is_unusable_not_a_verdict() {
    let mut ctx = Context::new();
    let x = ctx.int_var("x");
    let mut model = Model::default();
    model.vars.insert(ctx.var("x"), i128::from(i64::MAX));
    let mut interp = Interp::new(model);
    let x2 = ctx.mul(x, x);
    let x3 = ctx.mul(x2, x);
    assert_eq!(interp.term(&ctx, x2), Some(i128::from(i64::MAX).pow(2)));
    assert_eq!(interp.term(&ctx, x3), None);
    let zero = ctx.int(0);
    let positive = ctx.lt(zero, x);
    let cube_positive = ctx.lt(zero, x3);
    assert_eq!(interp.formula(&ctx, positive), Some(true));
    assert_eq!(interp.formula(&ctx, cube_positive), None);
    let either = ctx.or(positive, cube_positive);
    assert_eq!(
        interp.formula(&ctx, either),
        None,
        "true ∨ overflow is still no verdict"
    );
}

//! Cross-simplification of expressions (paper Figure 3).
//!
//! The judgements `Ψ ⊢ᵢ e : e'` and `Ψ ⊢ᵦ e : e'` rewrite an expression to a
//! provably equivalent, *cheaper* one under the context `Ψ`:
//!
//! * **(Int)** — an integer expression may be replaced by any `e'` with
//!   `Ψ ⊨ e = e'` and `cost(e') ≤ cost(e)`. The rule is declarative; our
//!   algorithm is *model-guided*: take one model of `Ψ`, evaluate `e` and
//!   every in-scope variable under it, and propose only candidates that agree
//!   with the model (`c`, `y`, `y + c`), then confirm each candidate with a
//!   validity query. One satisfying model thus prunes almost all candidates
//!   before any expensive proof is attempted.
//! * **(Bool 1/2)** — a predicate entailed (or refuted) by `Ψ` becomes a
//!   constant.
//! * **(Bool 3)** — otherwise, comparison operands are simplified with the
//!   integer judgement.
//! * **(Bool 4/5)** — connectives simplify their operands and constant-fold
//!   (`fold`).

use crate::symbolic::{SymState, SymbolicCtx};
use udf_lang::ast::{BoolExpr, IntExpr, IntOp};
use udf_lang::cost::{Cost, CostModel, FnCost};
use udf_lang::intern::Symbol;

/// Maximum number of validity queries spent per expression node. Part of
/// the plan fingerprint (`plan_cache::PlanKey`): it decides which rewrites
/// are found.
pub const MAX_CANDIDATE_CHECKS: usize = 8;
/// Candidate search is skipped for expressions at or below this cost (they
/// cannot get cheaper than a variable/constant anyway). Part of the plan
/// fingerprint.
pub const TRIVIAL_COST: Cost = 1;

/// Structural constant folding for integer expressions (cost-monotone).
pub(crate) fn fold_int(e: IntExpr) -> IntExpr {
    match e {
        IntExpr::Bin(op, a, b) => {
            let a = fold_int(*a);
            let b = fold_int(*b);
            match (&a, &b, op) {
                (IntExpr::Const(x), IntExpr::Const(y), _) => IntExpr::Const(op.apply(*x, *y)),
                (IntExpr::Const(0), _, IntOp::Add) => b,
                (_, IntExpr::Const(0), IntOp::Add | IntOp::Sub) => a,
                (IntExpr::Const(1), _, IntOp::Mul) => b,
                (_, IntExpr::Const(1), IntOp::Mul) => a,
                (IntExpr::Const(0), _, IntOp::Mul) | (_, IntExpr::Const(0), IntOp::Mul) => {
                    IntExpr::Const(0)
                }
                _ => IntExpr::Bin(op, Box::new(a), Box::new(b)),
            }
        }
        IntExpr::Call(f, args) => IntExpr::Call(f, args.into_iter().map(fold_int).collect()),
        other => other,
    }
}

/// The `fold` operation of Figure 3: boolean constant folding.
pub(crate) fn fold_bool(e: BoolExpr) -> BoolExpr {
    match e {
        BoolExpr::Not(a) => match fold_bool(*a) {
            BoolExpr::Const(b) => BoolExpr::Const(!b),
            BoolExpr::Not(inner) => *inner,
            other => BoolExpr::not(other),
        },
        BoolExpr::Bin(op, a, b) => {
            let a = fold_bool(*a);
            let b = fold_bool(*b);
            use udf_lang::ast::BoolOp::*;
            match (op, &a, &b) {
                (And, BoolExpr::Const(false), _) | (And, _, BoolExpr::Const(false)) => {
                    BoolExpr::Const(false)
                }
                (And, BoolExpr::Const(true), _) => b,
                (And, _, BoolExpr::Const(true)) => a,
                (Or, BoolExpr::Const(true), _) | (Or, _, BoolExpr::Const(true)) => {
                    BoolExpr::Const(true)
                }
                (Or, BoolExpr::Const(false), _) => b,
                (Or, _, BoolExpr::Const(false)) => a,
                _ => BoolExpr::Bin(op, Box::new(a), Box::new(b)),
            }
        }
        BoolExpr::Cmp(op, a, b) => {
            let a = fold_int(a);
            let b = fold_int(b);
            if let (IntExpr::Const(x), IntExpr::Const(y)) = (&a, &b) {
                BoolExpr::Const(op.apply(*x, *y))
            } else {
                BoolExpr::Cmp(op, a, b)
            }
        }
        other => other,
    }
}

/// `Ψ ⊢ᵢ e : e'` — returns a provably equivalent expression whose static
/// cost never exceeds `e`'s.
pub(crate) fn simplify_int(
    cx: &mut SymbolicCtx<'_>,
    st: &SymState,
    e: &IntExpr,
    cm: &CostModel,
    fns: &dyn FnCost,
) -> IntExpr {
    let e = fold_int(e.clone());
    let base_cost = cm.int_expr_cost(&e, fns);
    if base_cost <= TRIVIAL_COST {
        return e;
    }
    if let Some(better) = candidate_rewrite(cx, st, &e, base_cost, cm, fns) {
        return better;
    }
    // No whole-expression rewrite: recurse into subexpressions (each rewrite
    // is individually cost-non-increasing, so the rebuilt expression is too).
    match e {
        IntExpr::Call(f, args) => {
            let args = args
                .into_iter()
                .map(|a| simplify_int(cx, st, &a, cm, fns))
                .collect();
            IntExpr::Call(f, args)
        }
        IntExpr::Bin(op, a, b) => {
            let a = simplify_int(cx, st, &a, cm, fns);
            let b = simplify_int(cx, st, &b, cm, fns);
            fold_int(IntExpr::Bin(op, Box::new(a), Box::new(b)))
        }
        other => other,
    }
}

/// Model-guided whole-expression rewrite: `e ↦ c`, `e ↦ y`, or `e ↦ y ± c`.
///
/// One solver query produces a model of `Ψ ∧ probe = e`; the probe value and
/// the variable values from that *same* model filter the candidate list, and
/// each surviving candidate is confirmed with a validity query.
fn candidate_rewrite(
    cx: &mut SymbolicCtx<'_>,
    st: &SymState,
    e: &IntExpr,
    base_cost: Cost,
    cm: &CostModel,
    _fns: &dyn FnCost,
) -> Option<IntExpr> {
    let t_e = cx.term_of_int(st, e);
    let (model, e_val) = cx.model_with_probe(st, t_e)?;
    let mut checks = 0usize;
    // Rank candidate variables: those whose defining expression calls the
    // same library functions as `e` come first — they are by far the most
    // likely provable matches (the memoization pattern), and the check
    // budget is limited.
    let mut e_fns = std::collections::BTreeSet::new();
    udf_lang::analysis::int_expr_fns(e, &mut e_fns);
    let mut vars: Vec<Symbol> = st.vars().collect();
    if !e_fns.is_empty() {
        vars.sort_by_key(|&y| {
            let shares = st
                .def_fns(y)
                .is_some_and(|fs| fs.intersection(&e_fns).next().is_some());
            (!shares, y)
        });
    }

    // Candidate: replace by a constant.
    if let Ok(v) = i64::try_from(e_val) {
        if base_cost > cm.int_const && checks < MAX_CANDIDATE_CHECKS {
            checks += 1;
            let cand = IntExpr::Const(v);
            if proves_equal(cx, st, e, &cand) {
                cx.note_simplify_hit();
                return Some(cand);
            }
        }
    }

    // Candidate: replace by an in-scope variable with matching model value.
    if base_cost > cm.var {
        for &y in &vars {
            if checks >= MAX_CANDIDATE_CHECKS {
                break;
            }
            if matches!(e, IntExpr::Var(v) if *v == y) {
                continue;
            }
            if cx.model_value(st, &model, y) != e_val {
                continue;
            }
            checks += 1;
            let cand = IntExpr::Var(y);
            if proves_equal(cx, st, e, &cand) {
                cx.note_simplify_hit();
                return Some(cand);
            }
        }
    }

    // Candidate: `y + c` / `y − c` (cost var + const + arith).
    let offset_cost = cm.var + cm.int_const + cm.arith;
    if base_cost > offset_cost {
        for &y in &vars {
            if checks >= MAX_CANDIDATE_CHECKS {
                break;
            }
            let yv = cx.model_value(st, &model, y);
            let Some(diff) = e_val.checked_sub(yv) else {
                continue;
            };
            if diff == 0 {
                continue; // covered by the variable candidate
            }
            let Ok(c) = i64::try_from(diff.abs()) else {
                continue;
            };
            checks += 1;
            let cand = if diff > 0 {
                IntExpr::add(IntExpr::Var(y), IntExpr::Const(c))
            } else {
                IntExpr::sub(IntExpr::Var(y), IntExpr::Const(c))
            };
            if proves_equal(cx, st, e, &cand) {
                cx.note_simplify_hit();
                return Some(cand);
            }
        }
    }
    None
}

fn proves_equal(cx: &mut SymbolicCtx<'_>, st: &SymState, a: &IntExpr, b: &IntExpr) -> bool {
    let ta = cx.term_of_int(st, a);
    let tb = cx.term_of_int(st, b);
    let eq = cx.smt.eq(ta, tb);
    cx.entails(st, eq)
}

/// `Ψ ⊢ᵦ e : e'` — boolean cross-simplification (Bool 1–5).
pub(crate) fn simplify_bool(
    cx: &mut SymbolicCtx<'_>,
    st: &SymState,
    e: &BoolExpr,
    cm: &CostModel,
    fns: &dyn FnCost,
) -> BoolExpr {
    let e = fold_bool(e.clone());
    if let BoolExpr::Const(_) = e {
        return e;
    }
    // Bool 1 / Bool 2.
    let f = cx.formula_of_bool(st, &e);
    if cx.entails(st, f) {
        cx.note_simplify_hit();
        return BoolExpr::Const(true);
    }
    let nf = cx.smt.not(f);
    if cx.entails(st, nf) {
        cx.note_simplify_hit();
        return BoolExpr::Const(false);
    }
    match e {
        // Bool 3.
        BoolExpr::Cmp(op, a, b) => {
            let a = simplify_int(cx, st, &a, cm, fns);
            let b = simplify_int(cx, st, &b, cm, fns);
            fold_bool(BoolExpr::Cmp(op, a, b))
        }
        // Bool 5.
        BoolExpr::Not(a) => {
            let a = simplify_bool(cx, st, &a, cm, fns);
            fold_bool(BoolExpr::not(a))
        }
        // Bool 4. Connectives are strict, so both operands simplify under
        // the same Ψ.
        BoolExpr::Bin(op, a, b) => {
            let a = simplify_bool(cx, st, &a, cm, fns);
            let b = simplify_bool(cx, st, &b, cm, fns);
            fold_bool(BoolExpr::Bin(op, Box::new(a), Box::new(b)))
        }
        BoolExpr::Const(_) => unreachable!("handled above"),
    }
}

/// Returns `true` when `e` is syntactically `true`.
pub(crate) fn is_true(e: &BoolExpr) -> bool {
    matches!(e, BoolExpr::Const(true))
}

/// Returns `true` when `e` is syntactically `false`.
pub(crate) fn is_false(e: &BoolExpr) -> bool {
    matches!(e, BoolExpr::Const(false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbolic::{initial_state, EntailmentMode};
    use udf_lang::ast::CmpOp;
    use udf_lang::cost::UniformFnCost;
    use udf_lang::intern::Interner;
    use udf_lang::parse::{parse_bool_expr, parse_int_expr};
    use udf_lang::pretty;

    /// Negation pushed through comparisons where that is free
    /// (`¬(a < b)` ↦ `b ≤ a`).
    fn negate(e: &BoolExpr) -> BoolExpr {
        match e {
            BoolExpr::Const(b) => BoolExpr::Const(!b),
            BoolExpr::Cmp(CmpOp::Lt, a, b) => BoolExpr::Cmp(CmpOp::Le, b.clone(), a.clone()),
            BoolExpr::Cmp(CmpOp::Le, a, b) => BoolExpr::Cmp(CmpOp::Lt, b.clone(), a.clone()),
            BoolExpr::Not(inner) => (**inner).clone(),
            other => BoolExpr::not(other.clone()),
        }
    }

    fn setup(params: &[&str]) -> (Interner, Vec<Symbol>) {
        let mut i = Interner::new();
        let ps = params.iter().map(|p| i.intern(p)).collect();
        (i, ps)
    }

    fn simp_int(src_psi: &[&str], assigns: &[(&str, &str)], e: &str) -> String {
        let (mut i, params) = setup(&["alpha", "beta"]);
        let psi: Vec<BoolExpr> = src_psi
            .iter()
            .map(|s| parse_bool_expr(s, &mut i).unwrap())
            .collect();
        let assigns: Vec<(Symbol, IntExpr)> = assigns
            .iter()
            .map(|(x, e)| (i.intern(x), parse_int_expr(e, &mut i).unwrap()))
            .collect();
        let expr = parse_int_expr(e, &mut i).unwrap();
        let (mut cx, mut st) = initial_state(&i, EntailmentMode::Smt, &params);
        for (x, e) in &assigns {
            st.assign(&mut cx, *x, e);
        }
        for p in &psi {
            st.assume(&mut cx, p);
        }
        let cm = CostModel::default();
        let fns = UniformFnCost(10);
        let out = simplify_int(&mut cx, &st, &expr, &cm, &fns);
        pretty::int_expr(&out, &i)
    }

    fn simp_bool(src_psi: &[&str], assigns: &[(&str, &str)], e: &str) -> String {
        let (mut i, params) = setup(&["alpha", "beta"]);
        let psi: Vec<BoolExpr> = src_psi
            .iter()
            .map(|s| parse_bool_expr(s, &mut i).unwrap())
            .collect();
        let assigns: Vec<(Symbol, IntExpr)> = assigns
            .iter()
            .map(|(x, e)| (i.intern(x), parse_int_expr(e, &mut i).unwrap()))
            .collect();
        let expr = parse_bool_expr(e, &mut i).unwrap();
        let (mut cx, mut st) = initial_state(&i, EntailmentMode::Smt, &params);
        for (x, e) in &assigns {
            st.assign(&mut cx, *x, e);
        }
        for p in &psi {
            st.assume(&mut cx, p);
        }
        let cm = CostModel::default();
        let fns = UniformFnCost(10);
        let out = simplify_bool(&mut cx, &st, &expr, &cm, &fns);
        pretty::bool_expr(&out, &i)
    }

    #[test]
    fn memoization_across_programs() {
        // Ψ: x = f(alpha) — the expensive call f(alpha) becomes x.
        let out = simp_int(&[], &[("x", "f(alpha)")], "f(alpha)");
        assert_eq!(out, "x");
    }

    #[test]
    fn example4_offset_rewrite() {
        // Ψ: x = f(alpha) + 1 ⊢ f(alpha) − 1 : x − 2.
        let out = simp_int(&[], &[("x", "f(alpha) + 1")], "f(alpha) - 1");
        assert_eq!(out, "x - 2");
    }

    #[test]
    fn constant_discovery() {
        // Ψ: alpha = 4 ⊢ alpha + alpha + 1 : 9. (Nonlinear products are
        // opaque to the solver by design, so the linear form is the
        // representative case.)
        let out = simp_int(&["alpha == 4"], &[], "alpha + alpha + 1");
        assert_eq!(out, "9");
    }

    #[test]
    fn nested_call_argument_rewrite() {
        // Ψ: y = alpha + 1 ⊢ g(alpha + 1) : g(y) — subexpression rewrite.
        let out = simp_int(&[], &[("y", "alpha + 1")], "g(alpha + 1)");
        assert_eq!(out, "g(y)");
    }

    #[test]
    fn no_rewrite_without_facts() {
        let out = simp_int(&[], &[], "f(alpha) + beta");
        assert_eq!(out, "f(alpha) + beta");
    }

    #[test]
    fn bool1_and_bool2() {
        assert_eq!(simp_bool(&["alpha > 5"], &[], "alpha > 3"), "true");
        assert_eq!(simp_bool(&["alpha > 5"], &[], "alpha < 2"), "false");
        assert_eq!(simp_bool(&["alpha > 5"], &[], "alpha > 9"), "9 < alpha");
    }

    #[test]
    fn example3_shape() {
        // Ψ: α > 0 ∧ x = f(β) ∧ y = α ⊢ (y ≥ 0 ∧ f(β) ≠ 0) : x ≠ 0.
        let out = simp_bool(
            &["alpha > 0"],
            &[("x", "f(beta)"), ("y", "alpha")],
            "y >= 0 && f(beta) != 0",
        );
        assert_eq!(out, "!(x == 0)");
    }

    #[test]
    fn bool3_simplifies_operands() {
        let out = simp_bool(&[], &[("x", "f(alpha)")], "f(alpha) < beta");
        assert_eq!(out, "x < beta");
    }

    #[test]
    fn folding() {
        assert_eq!(simp_bool(&[], &[], "1 + 2 == 3"), "true");
        let out = simp_int(&[], &[], "alpha * 1 + 0");
        assert_eq!(out, "alpha");
    }

    #[test]
    fn negate_pushes_through_comparisons() {
        let mut i = Interner::new();
        let e = parse_bool_expr("x < y", &mut i).unwrap();
        assert_eq!(pretty::bool_expr(&negate(&e), &i), "y <= x");
        let e2 = parse_bool_expr("x <= y", &mut i).unwrap();
        assert_eq!(pretty::bool_expr(&negate(&e2), &i), "y < x");
        let e3 = parse_bool_expr("!(x == y)", &mut i).unwrap();
        assert_eq!(pretty::bool_expr(&negate(&e3), &i), "x == y");
    }

    #[test]
    fn unsat_context_simplifies_to_constant() {
        // Contradictory Ψ entails everything; Bool 1 fires.
        let out = simp_bool(&["alpha > 5", "alpha < 2"], &[], "beta == 77");
        assert_eq!(out, "true");
    }
}

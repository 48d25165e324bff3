//! Loop invariant inference (`LoopInv` in the paper's Figure 7/8).
//!
//! The Loop 2/3 rules need an invariant `Ψ₁` of the *combined* loop
//! `while (e₁ ∧ e₂) do S₁;S₂` strong enough to relate the two programs'
//! induction variables (the paper's Example 6 needs `j = i − 1`).
//!
//! We use the classic Houdini scheme over a template family:
//!
//! 1. **Candidates** — linear relations `u = v + c` and `u = c` between the
//!    loop-relevant variables, with offsets `c` read off a *model* of the
//!    precondition `Ψ` and confirmed against `Ψ` by a validity query (so the
//!    candidate set starts out true on loop entry).
//! 2. **Filtering** — havoc the loop-assigned variables, assume all
//!    candidates plus the combined guard, push the loop body through
//!    `sp`, and drop every candidate not re-established; repeat to fixpoint.
//!
//! The surviving conjunction, together with the frame (`Ψ`'s facts about
//! unassigned variables, preserved automatically by SSA versioning), is
//! inductive and holds at the loop head.

use crate::symbolic::{SymState, SymbolicCtx};
use std::collections::BTreeSet;
use udf_lang::analysis::{assigned_vars, bool_expr_vars};
use udf_lang::ast::{BoolExpr, CmpOp, IntExpr, Stmt};
use udf_lang::intern::Symbol;

/// A candidate (and, once filtered, proven) linear invariant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum LinearInv {
    /// `u = v + c`.
    VarOffset(Symbol, Symbol, i64),
    /// `u = c`.
    Const(Symbol, i64),
}

impl LinearInv {
    /// The invariant as a program-level boolean expression.
    pub(crate) fn to_expr(&self) -> BoolExpr {
        match *self {
            LinearInv::VarOffset(u, v, c) => BoolExpr::Cmp(
                CmpOp::Eq,
                IntExpr::Var(u),
                if c == 0 {
                    IntExpr::Var(v)
                } else if c > 0 {
                    IntExpr::add(IntExpr::Var(v), IntExpr::Const(c))
                } else {
                    IntExpr::sub(IntExpr::Var(v), IntExpr::Const(-c))
                },
            ),
            LinearInv::Const(u, c) => BoolExpr::Cmp(CmpOp::Eq, IntExpr::Var(u), IntExpr::Const(c)),
        }
    }
}

/// Maximum candidate relations tracked per loop. Part of the plan
/// fingerprint (`plan_cache::PlanKey`): it decides which invariants are
/// found.
pub const MAX_CANDIDATES: usize = 24;
/// Maximum Houdini iterations (each costs one symbolic body execution plus
/// one validity query per surviving candidate). Part of the plan
/// fingerprint.
pub const MAX_ROUNDS: usize = 4;

/// Result of [`infer`]: the loop-head state (assigned variables havoced,
/// invariant assumed) plus the surviving linear relations.
#[derive(Debug)]
pub(crate) struct LoopHead {
    /// Symbolic state at the loop head (invariant included, guard *not*
    /// included).
    pub state: SymState,
    /// The proven linear relations.
    #[cfg(test)]
    pub invariants: Vec<LinearInv>,
}

/// Keeps the candidates entailed by `st`, using conjunction batching: when
/// every candidate holds (the common case), one validity query suffices;
/// otherwise the set is bisected, for O(failures · log n) queries.
fn filter_entailed(
    cx: &mut SymbolicCtx<'_>,
    st: &SymState,
    candidates: Vec<LinearInv>,
) -> Vec<LinearInv> {
    if candidates.is_empty() {
        return candidates;
    }
    let conj = {
        let fs: Vec<_> = candidates
            .iter()
            .map(|c| {
                let e = c.to_expr();
                cx.formula_of_bool(st, &e)
            })
            .collect();
        cx.smt.and_all(fs)
    };
    if cx.entails(st, conj) {
        return candidates;
    }
    if candidates.len() == 1 {
        return Vec::new();
    }
    let mid = candidates.len() / 2;
    let (left, right) = candidates.split_at(mid);
    let mut out = filter_entailed(cx, st, left.to_vec());
    out.extend(filter_entailed(cx, st, right.to_vec()));
    out
}

/// Infers an inductive invariant for `while (guard₁ ∧ guard₂) do body₁;body₂`
/// entered from `entry`. `guard2`/`body2` are `None` when analyzing a single
/// loop (used for self-simplification of one program's loop).
pub(crate) fn infer(
    cx: &mut SymbolicCtx<'_>,
    entry: &SymState,
    guard1: &BoolExpr,
    body1: &Stmt,
    guard2: Option<&BoolExpr>,
    body2: Option<&Stmt>,
) -> LoopHead {
    // Variables the combined loop writes.
    let mut assigned: BTreeSet<Symbol> = assigned_vars(body1);
    if let Some(b2) = body2 {
        assigned.extend(assigned_vars(b2));
    }
    // Relevant variables: assigned ∪ guard variables.
    let mut relevant = assigned.clone();
    bool_expr_vars(guard1, &mut relevant);
    if let Some(g2) = guard2 {
        bool_expr_vars(g2, &mut relevant);
    }
    let relevant: Vec<Symbol> = relevant.into_iter().collect();

    // Guard variables: relations among them (the induction variables) are
    // what discharge the Loop 2/Loop 3 premises, so they get priority in the
    // candidate budget.
    let mut guard_vars: BTreeSet<Symbol> = BTreeSet::new();
    bool_expr_vars(guard1, &mut guard_vars);
    if let Some(g2) = guard2 {
        bool_expr_vars(g2, &mut guard_vars);
    }

    // Candidate generation from a model of the entry state, ranked:
    // both-guard pairs first, then one-guard pairs, then the rest; small
    // offsets before large ones.
    let mut candidates: Vec<LinearInv> = Vec::new();
    if let Some(model) = cx.model(entry) {
        let vals: Vec<(Symbol, i128)> = relevant
            .iter()
            .map(|&v| (v, cx.model_value(entry, &model, v)))
            .collect();
        let mut ranked: Vec<(u32, LinearInv)> = Vec::new();
        for (idx, &(u, uv)) in vals.iter().enumerate() {
            // u = c candidates only for assigned vars (facts about unassigned
            // vars survive via the frame anyway).
            if assigned.contains(&u) {
                if let Ok(c) = i64::try_from(uv) {
                    ranked.push((4, LinearInv::Const(u, c)));
                }
            }
            for &(v, vv) in vals.iter().skip(idx + 1) {
                // Only relations that involve at least one assigned variable
                // can be non-trivial invariants.
                if !assigned.contains(&u) && !assigned.contains(&v) {
                    continue;
                }
                if let Some(c) = uv.checked_sub(vv).and_then(|d| i64::try_from(d).ok()) {
                    let in_guard =
                        u32::from(guard_vars.contains(&u)) + u32::from(guard_vars.contains(&v));
                    let rank = (2 - in_guard) * 2 + u32::from(c.unsigned_abs() > 4);
                    ranked.push((rank, LinearInv::VarOffset(u, v, c)));
                }
            }
        }
        ranked.sort_by_key(|&(rank, _)| rank);
        candidates.extend(ranked.into_iter().map(|(_, c)| c));
    }
    candidates.truncate(MAX_CANDIDATES);

    // Keep only candidates that hold on entry (batched: one query when all
    // hold, logarithmic bisection otherwise).
    candidates = filter_entailed(cx, entry, candidates);

    // Houdini filtering.
    for _ in 0..MAX_ROUNDS {
        if candidates.is_empty() {
            break;
        }
        // Loop-head state for this round.
        let mut head = entry.clone();
        head.havoc(assigned.iter().copied());
        for cand in &candidates {
            let e = cand.to_expr();
            head.assume(cx, &e);
        }
        // One iteration: guard holds, then the body runs.
        let mut post = head.clone();
        post.assume(cx, guard1);
        if let Some(g2) = guard2 {
            post.assume(cx, g2);
        }
        post.sp_stmt(cx, body1);
        if let Some(b2) = body2 {
            post.sp_stmt(cx, b2);
        }
        let before = candidates.len();
        candidates = filter_entailed(cx, &post, candidates);
        if candidates.len() == before {
            break; // fixpoint: all survivors are inductive
        }
    }

    // Final loop-head state with the proven invariant.
    let mut state = entry.clone();
    state.havoc(assigned.iter().copied());
    for cand in &candidates {
        let e = cand.to_expr();
        state.assume(cx, &e);
    }
    LoopHead {
        state,
        #[cfg(test)]
        invariants: candidates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbolic::{initial_state, EntailmentMode};
    use udf_lang::intern::Interner;
    use udf_lang::parse::{parse_bool_expr, parse_program};

    /// The paper's Example 6: loops `while (i > 0) {i := i−1; …}` and
    /// `while (j ≥ 0) {…; j := j−1}` entered with `i = α ∧ j = α − 1` admit
    /// the invariant `j = i − 1`.
    #[test]
    fn example6_invariant() {
        let mut i = Interner::new();
        let p1 = parse_program(
            "program p1 @0 (alpha) { i := alpha; x := 0; while (i > 0) { i := i - 1; t1 := f(i); x := x + t1; } }",
            &mut i,
        )
        .unwrap();
        let p2 = parse_program(
            "program p2 @1 (alpha) { j := alpha - 1; y := alpha; while (j >= 0) { t2 := f(j); y := y + t2; j := j - 1; } }",
            &mut i,
        )
        .unwrap();
        // Split both programs: inits then loops.
        let (i1_init, rest1) = p1.body.clone().split_head();
        let (i1b, rest1b) = rest1.split_head();
        let (loop1, _) = rest1b.split_head();
        let (i2_init, rest2) = p2.body.clone().split_head();
        let (i2b, rest2b) = rest2.split_head();
        let (loop2, _) = rest2b.split_head();

        let inv_expr = parse_bool_expr("j == i - 1", &mut i).unwrap();
        let exit_expr = parse_bool_expr("i <= 0 && j < 0", &mut i).unwrap();
        let guard_neg = parse_bool_expr("!(i > 0 && j >= 0)", &mut i).unwrap();

        let params = p1.params.clone();
        let (mut cx, mut st) = initial_state(&i, EntailmentMode::Smt, &params);
        // Execute the four initializers symbolically.
        for s in [&i1_init, &i1b, &i2_init, &i2b] {
            st.sp_stmt(&mut cx, s);
        }
        let (udf_lang::ast::Stmt::While(g1, b1), udf_lang::ast::Stmt::While(g2, b2)) =
            (&loop1, &loop2)
        else {
            panic!("expected loops, got {loop1:?} / {loop2:?}");
        };
        let head = infer(&mut cx, &st, g1, b1, Some(g2), Some(b2));
        // j = i − 1 must be among the invariants (in either orientation).
        let found = head.invariants.iter().any(|inv| match *inv {
            LinearInv::VarOffset(u, v, c) => {
                let (un, vn) = (c, (u, v));
                let _ = un;
                let names = (
                    // resolve names via the test interner
                    vn,
                );
                let _ = names;
                c == -1 || c == 1
            }
            _ => false,
        });
        assert!(found, "missing j = i − 1; got {:?}", head.invariants);
        // The invariant state entails the relation at the head…
        let f = cx.formula_of_bool(&head.state, &inv_expr);
        assert!(cx.entails(&head.state, f));
        // …and Loop 2's premise holds: Ψ₁ ∧ ¬(e₁ ∧ e₂) ⊨ ¬e₁ ∧ ¬e₂.
        let mut exit_state = head.state.clone();
        exit_state.assume(&mut cx, &guard_neg);
        let exit_f = cx.formula_of_bool(&exit_state, &exit_expr);
        assert!(cx.entails(&exit_state, exit_f));
    }

    /// A single loop `x := 0; k := 5; while (x < n) { x := x + 1 }` keeps
    /// `k = 5` (frame) and drops `x = 0` (not inductive).
    #[test]
    fn frame_facts_survive_constants_drop() {
        let mut i = Interner::new();
        let p = parse_program(
            "program p @0 (n) { x := 0; k := 5; while (x < n) { x := x + 1; } }",
            &mut i,
        )
        .unwrap();
        let (a1, rest) = p.body.clone().split_head();
        let (a2, rest2) = rest.split_head();
        let (lp, _) = rest2.split_head();
        let k_eq_5 = parse_bool_expr("k == 5", &mut i).unwrap();
        let x_eq_0 = parse_bool_expr("x == 0", &mut i).unwrap();
        let (mut cx, mut st) = initial_state(&i, EntailmentMode::Smt, &p.params);
        st.sp_stmt(&mut cx, &a1);
        st.sp_stmt(&mut cx, &a2);
        let udf_lang::ast::Stmt::While(g, b) = &lp else {
            panic!()
        };
        let head = infer(&mut cx, &st, g, b, None, None);
        let f_k = cx.formula_of_bool(&head.state, &k_eq_5);
        assert!(cx.entails(&head.state, f_k), "unassigned k keeps its value");
        let f_x = cx.formula_of_bool(&head.state, &x_eq_0);
        assert!(!cx.entails(&head.state, f_x), "x = 0 is not inductive");
    }

    /// Lock-step loops: i and j both increment, so i = j is inductive.
    #[test]
    fn lockstep_difference_invariant() {
        let mut i = Interner::new();
        let p = parse_program(
            "program p @0 (n) { i := 0; j := 0; while (i < n) { i := i + 1; j := j + 1; } }",
            &mut i,
        )
        .unwrap();
        let (a1, rest) = p.body.clone().split_head();
        let (a2, rest2) = rest.split_head();
        let (lp, _) = rest2.split_head();
        let eq = parse_bool_expr("i == j", &mut i).unwrap();
        let (mut cx, mut st) = initial_state(&i, EntailmentMode::Smt, &p.params);
        st.sp_stmt(&mut cx, &a1);
        st.sp_stmt(&mut cx, &a2);
        let udf_lang::ast::Stmt::While(g, b) = &lp else {
            panic!()
        };
        let head = infer(&mut cx, &st, g, b, None, None);
        let f = cx.formula_of_bool(&head.state, &eq);
        assert!(cx.entails(&head.state, f), "i = j is inductive");
    }
}

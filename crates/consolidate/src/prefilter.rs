//! Cross-query predicate pushdown: synthesis of a sound pre-filter.
//!
//! On selective workloads most records satisfy none of the `n` consolidated
//! queries, yet every record still pays for the full merged program. This
//! pass synthesizes a cheap *pre-filter* `P` over the record parameters only
//! — no library calls, no loops — such that a record with `¬P` is **proved**
//! to drive the merged program down a call-free, loop-free path that
//! broadcasts `notify false` for every query. Such records can skip the
//! merged program entirely: the engine writes the all-`false` notification
//! vector directly, and by construction the skipped record can produce no
//! notification, no library fault (no call executes, so fault injection has
//! nothing to hook) and therefore no quarantine entry.
//!
//! Synthesis runs in two stages, both *fail-open* (no pre-filter ⇒ the
//! engine keeps its current behavior — never wrong, merely unaccelerated):
//!
//! 1. **Candidate extraction.** For each original query `Πᵢ`, a
//!    polarity-aware walk computes a necessary condition `NCᵢ` for
//!    "`Πᵢ` may broadcast `notify true`": atoms that mention a library call
//!    or an untracked local are widened to `true` in positive polarity (and
//!    to `false` under negation), parameter-defined locals are inlined, and
//!    conditionals/loops contribute their guards. The candidate is
//!    `P = ⋁ᵢ NCᵢ`, constant-folded; a candidate that folds to `true`
//!    carries no information and aborts synthesis.
//! 2. **Verification.** The *merged* program is executed symbolically under
//!    the assumption `¬P` (strongest postconditions via
//!    `crate::symbolic`, forking at conditionals with entailment-based
//!    branch pruning through the run's solver, `crate::memo` table and a
//!    fresh `crate::budget::BudgetState` of the run's shape). The
//!    candidate is accepted only if **every** reachable path executes no
//!    library call, reaches no loop, and broadcasts `notify false` exactly
//!    once per query. Reaching a call is fatal even when the call's value
//!    is irrelevant, because the VM evaluates connectives strictly: the real
//!    run would perform the call, and a fault plan could target it — a
//!    skipped record must be bit-identical in quarantine behavior too.
//!
//! The verifier reasons over mathematical integers while the VM wraps at
//! `i64` — the same modeling assumption the consolidation rules already
//! make; the runtime guard (`naiad-lite::guard`) continues to shadow-sample
//! skipped records, so the engine's safety net covers this gap as well.

use crate::budget::BudgetState;
use crate::rules::Options;
use crate::symbolic::{SymState, SymbolicCtx};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use udf_lang::analysis::{assigned_vars, notify_ids};
use udf_lang::ast::{BoolExpr, CmpOp, IntExpr, ProgId, Program, Stmt};
use udf_lang::cost::{Cost, CostModel, FnCost};
use udf_lang::intern::{Interner, Symbol};
use udf_obs::names;

/// Fork budget of the verifier: a candidate whose merged program forks more
/// than this many times under `¬P` is rejected (fail-open).
pub(crate) const MAX_VERIFY_FORKS: u64 = 512;

/// Static-cost ceiling for the synthesized condition (per record, under the
/// run's [`CostModel`] including the `prefilter` dispatch entry). A filter
/// more expensive than this cannot plausibly pay for itself.
pub(crate) const MAX_FILTER_COST: Cost = 4096;

/// A verified pre-filter attached to a consolidated plan.
///
/// `cond` is parameter-only, library-call-free and loop-free; a record on
/// which it evaluates to `false` is proved to make every query of the plan
/// broadcast `notify false` without executing any library call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prefilter {
    /// The filter condition over the shared parameter list.
    pub cond: BoolExpr,
    /// Number of queries the proof covers (all queries of the plan).
    pub queries: u32,
    /// Symbolic paths of the merged program the verifier discharged
    /// (zero when the filter was reloaded from a cached plan).
    pub paths_checked: u64,
    /// Entailment queries charged during verification (zero on reload).
    pub entailment_queries: u64,
}

/// Why a candidate pre-filter was not attached (all outcomes fail-open).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reject {
    /// The extracted candidate folded to `true`: no atom over cheap record
    /// fields bounds any query, so there is nothing to push down.
    Trivial,
    /// The candidate's static evaluation cost exceeds `MAX_FILTER_COST`.
    TooExpensive,
    /// Under `¬P` a path of the merged program reaches a library call; the
    /// strict VM would execute it, so the record cannot be skipped.
    ReachableCall,
    /// Under `¬P` a path reaches a loop; the skip fuel bound (one VM
    /// instruction per opcode of a loop-free path) would not hold.
    ReachableLoop,
    /// Under `¬P` a path broadcasts `notify true`, or fails to broadcast
    /// `notify false` exactly once for some query — the candidate is not a
    /// necessary condition after all (refuted).
    Refuted,
    /// The verifier exceeded `MAX_VERIFY_FORKS` symbolic forks.
    PathCap,
    /// The [`crate::budget::ConsolidationBudget`] ran out mid-verification;
    /// an unpruned fork under an exhausted budget proves nothing.
    Budget,
}

impl std::fmt::Display for Reject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Reject::Trivial => "candidate folded to true",
            Reject::TooExpensive => "candidate exceeds the static cost ceiling",
            Reject::ReachableCall => "a library call is reachable under the negated filter",
            Reject::ReachableLoop => "a loop is reachable under the negated filter",
            Reject::Refuted => "a path under the negated filter does not notify all-false",
            Reject::PathCap => "verifier fork cap exceeded",
            Reject::Budget => "consolidation budget exhausted during verification",
        };
        f.write_str(s)
    }
}

// ---------------------------------------------------------------------------
// Stage 1: candidate extraction.
// ---------------------------------------------------------------------------

/// Inlines `e` into a parameter-only, call-free expression using the map of
/// known parameter-defined locals; `None` when the expression depends on a
/// call or an untracked local.
fn inline_int(
    e: &IntExpr,
    env: &BTreeMap<Symbol, IntExpr>,
    params: &BTreeSet<Symbol>,
) -> Option<IntExpr> {
    match e {
        IntExpr::Const(c) => Some(IntExpr::Const(*c)),
        IntExpr::Var(v) => {
            if params.contains(v) {
                Some(IntExpr::Var(*v))
            } else {
                env.get(v).cloned()
            }
        }
        IntExpr::Call(..) => None,
        IntExpr::Bin(op, a, b) => {
            let a = inline_int(a, env, params)?;
            let b = inline_int(b, env, params)?;
            Some(IntExpr::Bin(*op, Box::new(a), Box::new(b)))
        }
    }
}

/// Polarity-aware widening: returns an upper bound of `e` when `pos` and a
/// lower bound when `!pos`, over parameters only. Atoms that cannot be
/// inlined are widened to the polarity constant.
fn approx(
    e: &BoolExpr,
    env: &BTreeMap<Symbol, IntExpr>,
    params: &BTreeSet<Symbol>,
    pos: bool,
) -> BoolExpr {
    match e {
        BoolExpr::Const(b) => BoolExpr::Const(*b),
        BoolExpr::Cmp(op, a, b) => match (inline_int(a, env, params), inline_int(b, env, params)) {
            (Some(a), Some(b)) => BoolExpr::Cmp(*op, a, b),
            _ => BoolExpr::Const(pos),
        },
        BoolExpr::Not(a) => BoolExpr::not(approx(a, env, params, !pos)),
        // Both connectives are monotone in both operands, so polarity
        // propagates unchanged.
        BoolExpr::Bin(op, a, b) => BoolExpr::Bin(
            *op,
            Box::new(approx(a, env, params, pos)),
            Box::new(approx(b, env, params, pos)),
        ),
    }
}

/// Constant folding plus idempotent-disjunct/conjunct collapse.
fn fold(e: BoolExpr) -> BoolExpr {
    use udf_lang::ast::BoolOp;
    match e {
        BoolExpr::Not(a) => match fold(*a) {
            BoolExpr::Const(b) => BoolExpr::Const(!b),
            a => BoolExpr::not(a),
        },
        BoolExpr::Bin(op, a, b) => {
            let a = fold(*a);
            let b = fold(*b);
            match (op, &a, &b) {
                (BoolOp::And, BoolExpr::Const(true), _) => b,
                (BoolOp::And, _, BoolExpr::Const(true)) => a,
                (BoolOp::And, BoolExpr::Const(false), _)
                | (BoolOp::And, _, BoolExpr::Const(false)) => BoolExpr::Const(false),
                (BoolOp::Or, BoolExpr::Const(false), _) => b,
                (BoolOp::Or, _, BoolExpr::Const(false)) => a,
                (BoolOp::Or, BoolExpr::Const(true), _) | (BoolOp::Or, _, BoolExpr::Const(true)) => {
                    BoolExpr::Const(true)
                }
                _ if a == b => a,
                _ => BoolExpr::Bin(op, Box::new(a), Box::new(b)),
            }
        }
        e => e,
    }
}

/// Upper bound for "executing `s` from here may broadcast `notify true`",
/// over parameters only. Threads `env`, the map of locals currently known
/// to hold parameter-only values, through the walk.
fn may_notify_true(
    s: &Stmt,
    env: &mut BTreeMap<Symbol, IntExpr>,
    params: &BTreeSet<Symbol>,
) -> BoolExpr {
    match s {
        Stmt::Skip => BoolExpr::Const(false),
        Stmt::Notify(_, v) => BoolExpr::Const(*v),
        Stmt::Assign(x, e) => {
            match inline_int(e, env, params) {
                Some(val) => {
                    env.insert(*x, val);
                }
                None => {
                    env.remove(x);
                }
            }
            BoolExpr::Const(false)
        }
        Stmt::Seq(a, b) => {
            let na = may_notify_true(a, env, params);
            let nb = may_notify_true(b, env, params);
            fold(BoolExpr::or(na, nb))
        }
        Stmt::If(c, t, e) => {
            let up_then = approx(c, env, params, true);
            // Upper bound of ¬c is the negated lower bound of c.
            let up_else = BoolExpr::not(approx(c, env, params, false));
            let mut env_t = env.clone();
            let mut env_e = env.clone();
            let nt = may_notify_true(t, &mut env_t, params);
            let ne = may_notify_true(e, &mut env_e, params);
            // Keep only bindings both branches agree on.
            env.retain(|k, v| env_t.get(k) == Some(v) && env_e.get(k) == Some(v));
            fold(BoolExpr::or(
                BoolExpr::and(up_then, nt),
                BoolExpr::and(up_else, ne),
            ))
        }
        Stmt::While(c, body) => {
            // A notification inside the loop requires (a) entering it at
            // least once — the guard true at its *first* evaluation, over
            // the pre-loop environment — and (b) some iteration's body to
            // notify. Locals assigned in the body are unknown from the
            // second iteration on, so the body is walked with them havocked;
            // the surviving bound is parameter-only, hence
            // iteration-invariant.
            let up_guard = approx(c, env, params, true);
            let mut benv = env.clone();
            for v in assigned_vars(body) {
                benv.remove(&v);
            }
            let nb = may_notify_true(body, &mut benv, params);
            for v in assigned_vars(body) {
                env.remove(&v);
            }
            fold(BoolExpr::and(up_guard, nb))
        }
    }
}

fn flatten_or(e: BoolExpr, out: &mut Vec<BoolExpr>) {
    use udf_lang::ast::BoolOp;
    match e {
        BoolExpr::Bin(BoolOp::Or, a, b) => {
            flatten_or(*a, out);
            flatten_or(*b, out);
        }
        other => out.push(other),
    }
}

/// One-sided threshold facts a disjunct can contribute about a key
/// expression, normalized to inclusive bounds (`k < e` ⇔ `k+1 ≤ e` over
/// `i64`; the saturating edge cases are constant-false atoms and drop out).
struct KeyBounds {
    key: IntExpr,
    lower: Option<i64>,
    upper: Option<i64>,
    eqs: Vec<i64>,
}

/// Interval-collapse for a disjunction: same-key threshold atoms merge into
/// at most one lower and one upper bound per key expression
/// (`40 ≤ a ∨ 60 ≤ a ∨ 55 ≤ a` becomes `40 ≤ a`), equality atoms subsumed
/// by a surviving bound drop, and a key whose lower bound falls at or below
/// its upper bound covers all of `i64`, collapsing the whole condition to
/// `⊤` (which the caller then rejects as trivial — fail-open).
///
/// The rewrite is an equivalence over the language's total-order `i64`
/// comparisons, and the candidate is call-free by construction, so strict
/// evaluation cannot observe the dropped atoms. Soundness does not rest on
/// that argument, though: the verifier runs on the *simplified* condition.
/// What the collapse buys is a guard the execution engine can evaluate in a
/// comparison or two — on well-consolidated families a 20-disjunct guard
/// costs as much as the merged program's own fast-fail path and would erase
/// the pushdown's win — plus fewer condition nodes for the verifier to fork
/// on.
fn simplify_or(e: BoolExpr) -> BoolExpr {
    let mut disjuncts = Vec::new();
    flatten_or(e, &mut disjuncts);
    let mut keys: Vec<KeyBounds> = Vec::new();
    let mut others: Vec<BoolExpr> = Vec::new();
    fn entry<'k>(keys: &'k mut Vec<KeyBounds>, key: &IntExpr) -> &'k mut KeyBounds {
        if let Some(i) = keys.iter().position(|kb| kb.key == *key) {
            &mut keys[i]
        } else {
            keys.push(KeyBounds {
                key: key.clone(),
                lower: None,
                upper: None,
                eqs: Vec::new(),
            });
            let last = keys.len() - 1;
            &mut keys[last]
        }
    }
    fn bound(keys: &mut Vec<KeyBounds>, key: &IntExpr, lower: bool, k: i64) {
        let kb = entry(keys, key);
        if lower {
            // Disjunction keeps the *weakest* (smallest) lower bound.
            kb.lower = Some(kb.lower.map_or(k, |cur| cur.min(k)));
        } else {
            kb.upper = Some(kb.upper.map_or(k, |cur| cur.max(k)));
        }
    }
    for d in &disjuncts {
        match d {
            BoolExpr::Const(true) => return BoolExpr::Const(true),
            BoolExpr::Const(false) => {}
            BoolExpr::Cmp(op, a, b) => match (a, b) {
                (IntExpr::Const(x), IntExpr::Const(y)) => {
                    if op.apply(*x, *y) {
                        return BoolExpr::Const(true);
                    }
                }
                (IntExpr::Const(k), e) => match op {
                    CmpOp::Le => bound(&mut keys, e, true, *k),
                    CmpOp::Lt if *k < i64::MAX => bound(&mut keys, e, true, *k + 1),
                    CmpOp::Lt => {} // MAX < e: constant false
                    CmpOp::Eq => entry(&mut keys, e).eqs.push(*k),
                },
                (e, IntExpr::Const(k)) => match op {
                    CmpOp::Le => bound(&mut keys, e, false, *k),
                    CmpOp::Lt if *k > i64::MIN => bound(&mut keys, e, false, *k - 1),
                    CmpOp::Lt => {} // e < MIN: constant false
                    CmpOp::Eq => entry(&mut keys, e).eqs.push(*k),
                },
                _ => {
                    if !others.contains(d) {
                        others.push(d.clone());
                    }
                }
            },
            _ => {
                if !others.contains(d) {
                    others.push(d.clone());
                }
            }
        }
    }
    let mut out = BoolExpr::Const(false);
    let or_in = |e: BoolExpr, out: &mut BoolExpr| {
        *out = fold(BoolExpr::or(
            std::mem::replace(out, BoolExpr::Const(false)),
            e,
        ));
    };
    for kb in keys {
        if let (Some(l), Some(u)) = (kb.lower, kb.upper) {
            if l <= u {
                // `l ≤ e ∨ e ≤ u` with `l ≤ u` covers every i64 value.
                return BoolExpr::Const(true);
            }
        }
        if let Some(l) = kb.lower {
            or_in(
                BoolExpr::Cmp(CmpOp::Le, IntExpr::Const(l), kb.key.clone()),
                &mut out,
            );
        }
        if let Some(u) = kb.upper {
            or_in(
                BoolExpr::Cmp(CmpOp::Le, kb.key.clone(), IntExpr::Const(u)),
                &mut out,
            );
        }
        let mut seen: Vec<i64> = Vec::new();
        for k in kb.eqs {
            let covered = kb.lower.is_some_and(|l| l <= k)
                || kb.upper.is_some_and(|u| k <= u)
                || seen.contains(&k);
            if !covered {
                seen.push(k);
                or_in(
                    BoolExpr::Cmp(CmpOp::Eq, kb.key.clone(), IntExpr::Const(k)),
                    &mut out,
                );
            }
        }
    }
    for d in others {
        or_in(d, &mut out);
    }
    out
}

/// Extracts the candidate `P = ⋁ᵢ NCᵢ` from the original query programs.
/// Public so tests and tools can inspect the unverified candidate.
pub(crate) fn candidate(originals: &[Program]) -> BoolExpr {
    let mut p = BoolExpr::Const(false);
    for prog in originals {
        let params: BTreeSet<Symbol> = prog.params.iter().copied().collect();
        let mut env = BTreeMap::new();
        let nc = may_notify_true(&prog.body, &mut env, &params);
        p = fold(BoolExpr::or(p, nc));
    }
    simplify_or(p)
}

// ---------------------------------------------------------------------------
// Stage 2: verification.
// ---------------------------------------------------------------------------

fn int_has_call(e: &IntExpr) -> bool {
    match e {
        IntExpr::Const(_) | IntExpr::Var(_) => false,
        IntExpr::Call(..) => true,
        IntExpr::Bin(_, a, b) => int_has_call(a) || int_has_call(b),
    }
}

fn bool_has_call(e: &BoolExpr) -> bool {
    match e {
        BoolExpr::Const(_) => false,
        BoolExpr::Cmp(_, a, b) => int_has_call(a) || int_has_call(b),
        BoolExpr::Not(a) => bool_has_call(a),
        BoolExpr::Bin(_, a, b) => bool_has_call(a) || bool_has_call(b),
    }
}

struct VerifyPath<'a> {
    st: SymState,
    /// Continuation, innermost next statement last.
    k: Vec<&'a Stmt>,
    /// Per query (indexed like `ids`): has `notify false` been broadcast.
    notified: Vec<bool>,
}

/// Verifies a candidate against the merged program: symbolically executes
/// `merged` under `¬cond` and demands that every reachable path is
/// call-free and loop-free and broadcasts `notify false` exactly once per
/// query. Returns `(paths_checked, entailment_queries)` on success.
///
/// Exposed so regression tests can feed deliberately-unsound candidates and
/// assert they are rejected, never applied.
///
/// # Errors
///
/// Returns the [`Reject`] reason when the candidate cannot be proved sound;
/// callers must fall back to running the merged program on every record.
pub(crate) fn verify_candidate(
    cond: &BoolExpr,
    merged: &Program,
    interner: &Interner,
    opts: &Options,
) -> Result<(u64, u64), Reject> {
    let ids: Vec<ProgId> = notify_ids(&merged.body).into_iter().collect();
    // A fresh budget of the run's shape: verification is bounded exactly
    // like consolidation itself, and exhaustion fails open.
    let budget = Arc::new(BudgetState::new(&opts.budget));
    let scope = ids.iter().map(|id| id.0).collect();
    let mut cx = SymbolicCtx::new(interner, opts, Some(budget), scope);
    let mut st = SymState::initial(&mut cx, &merged.params);
    st.assume_not(&mut cx, cond);

    let mut forks = 0u64;
    let mut paths_done = 0u64;
    let mut work = vec![VerifyPath {
        st,
        k: vec![&merged.body],
        notified: vec![false; ids.len()],
    }];
    while let Some(mut p) = work.pop() {
        loop {
            let Some(s) = p.k.pop() else {
                // Path end: every query must have broadcast `notify false`.
                if p.notified.iter().all(|&b| b) {
                    paths_done += 1;
                    break;
                }
                return Err(Reject::Refuted);
            };
            match s {
                Stmt::Skip => {}
                Stmt::Seq(a, b) => {
                    p.k.push(b);
                    p.k.push(a);
                }
                Stmt::Assign(x, e) => {
                    if int_has_call(e) {
                        return Err(Reject::ReachableCall);
                    }
                    p.st.assign(&mut cx, *x, e);
                }
                Stmt::Notify(id, v) => {
                    if *v {
                        return Err(Reject::Refuted);
                    }
                    let Some(idx) = ids.iter().position(|i| i == id) else {
                        return Err(Reject::Refuted);
                    };
                    if p.notified[idx] {
                        return Err(Reject::Refuted);
                    }
                    p.notified[idx] = true;
                }
                Stmt::While(..) => return Err(Reject::ReachableLoop),
                Stmt::If(c, t, e) => {
                    if bool_has_call(c) {
                        return Err(Reject::ReachableCall);
                    }
                    if cx.budget_exhausted() {
                        return Err(Reject::Budget);
                    }
                    let f = cx.formula_of_bool(&p.st, c);
                    let nf = cx.smt.not(f);
                    if cx.entails(&p.st, f) {
                        p.st.assume_formula(&mut cx, f);
                        p.k.push(t);
                    } else if cx.entails(&p.st, nf) {
                        p.st.assume_formula(&mut cx, nf);
                        p.k.push(e);
                    } else {
                        forks += 1;
                        if forks > MAX_VERIFY_FORKS {
                            return Err(Reject::PathCap);
                        }
                        let mut q = VerifyPath {
                            st: p.st.clone(),
                            k: p.k.clone(),
                            notified: p.notified.clone(),
                        };
                        q.st.assume_formula(&mut cx, nf);
                        q.k.push(e);
                        work.push(q);
                        p.st.assume_formula(&mut cx, f);
                        p.k.push(t);
                    }
                }
            }
        }
    }
    Ok((paths_done, cx.entailment_queries()))
}

// ---------------------------------------------------------------------------
// Entry point.
// ---------------------------------------------------------------------------

/// Synthesizes and verifies a pre-filter for a consolidated plan.
///
/// `originals` are the per-query input programs (the candidate is extracted
/// from them), `merged` the consolidated output (the proof runs against it).
/// Metrics land in `opts.recorder` under the `prefilter.*` names.
///
/// # Errors
///
/// Returns the fail-open [`Reject`] reason when no sound pre-filter could
/// be attached; the plan then executes exactly as without this pass.
pub fn synthesize(
    originals: &[Program],
    merged: &Program,
    interner: &Interner,
    cm: &CostModel,
    fns: &dyn FnCost,
    opts: &Options,
) -> Result<Prefilter, Reject> {
    let _span = opts.recorder.span(names::PREFILTER_NS);
    let cond = candidate(originals);
    let r = synthesize_checked(&cond, originals, merged, interner, cm, fns, opts);
    match &r {
        Ok(pf) => {
            opts.recorder.add(names::PREFILTER_SYNTHESIZED, 1);
            opts.recorder
                .observe(names::PREFILTER_PATHS, pf.paths_checked);
        }
        Err(Reject::Trivial) => opts.recorder.add(names::PREFILTER_TRIVIAL, 1),
        Err(_) => opts.recorder.add(names::PREFILTER_REJECTED, 1),
    }
    r
}

fn synthesize_checked(
    cond: &BoolExpr,
    originals: &[Program],
    merged: &Program,
    interner: &Interner,
    cm: &CostModel,
    fns: &dyn FnCost,
    opts: &Options,
) -> Result<Prefilter, Reject> {
    if matches!(cond, BoolExpr::Const(true)) {
        return Err(Reject::Trivial);
    }
    if cm.prefilter + cm.bool_expr_cost(cond, fns) > MAX_FILTER_COST {
        return Err(Reject::TooExpensive);
    }
    let (paths_checked, entailment_queries) = verify_candidate(cond, merged, interner, opts)?;
    Ok(Prefilter {
        cond: cond.clone(),
        queries: u32::try_from(originals.len()).unwrap_or(u32::MAX),
        paths_checked,
        entailment_queries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use udf_lang::ast::CmpOp;
    use udf_lang::cost::UniformFnCost;
    use udf_lang::parse::parse_program;

    fn prog(src: &str, i: &mut Interner) -> Program {
        parse_program(src, i).expect("parse")
    }

    #[test]
    fn candidate_of_param_only_query_is_its_guard() {
        let mut i = Interner::new();
        let p = prog(
            "program q @1 (x) { if (x >= 5) { notify true; } else { notify false; } }",
            &mut i,
        );
        let c = candidate(std::slice::from_ref(&p));
        let x = i.intern("x");
        assert_eq!(
            c,
            BoolExpr::Cmp(CmpOp::Le, IntExpr::Const(5), IntExpr::Var(x))
        );
    }

    #[test]
    fn candidate_widens_call_atoms_to_true() {
        let mut i = Interner::new();
        let p = prog(
            "program q @1 (x) { if (f(x) >= 5) { notify true; } else { notify false; } }",
            &mut i,
        );
        assert_eq!(candidate(std::slice::from_ref(&p)), BoolExpr::Const(true));
    }

    #[test]
    fn candidate_keeps_cheap_conjunct_of_nested_guard() {
        let mut i = Interner::new();
        // Cheap test outside, call guarded inside: NC = x >= 5.
        let p = prog(
            "program q @1 (x) { if (x >= 5) { if (f(x) >= 2) { notify true; } else { notify false; } } else { notify false; } }",
            &mut i,
        );
        let x = i.intern("x");
        assert_eq!(
            candidate(std::slice::from_ref(&p)),
            BoolExpr::Cmp(CmpOp::Le, IntExpr::Const(5), IntExpr::Var(x))
        );
    }

    #[test]
    fn candidate_inlines_param_defined_locals() {
        let mut i = Interner::new();
        let p = prog(
            "program q @1 (x) { y := x + 1; if (y >= 5) { notify true; } else { notify false; } }",
            &mut i,
        );
        let c = candidate(std::slice::from_ref(&p));
        // y inlined to x + 1: candidate stays parameter-only.
        let x = i.intern("x");
        let mut vars = BTreeSet::new();
        udf_lang::analysis::bool_expr_vars(&c, &mut vars);
        assert_eq!(vars.into_iter().collect::<Vec<_>>(), vec![x]);
        assert!(!bool_has_call(&c));
    }

    #[test]
    fn synthesize_accepts_and_verifier_counts_paths() {
        let mut i = Interner::new();
        let a = prog(
            "program a @1 (x) { if (x >= 5) { notify true; } else { notify false; } }",
            &mut i,
        );
        let b = prog(
            "program b @2 (x) { if (x >= 9) { notify true; } else { notify false; } }",
            &mut i,
        );
        let opts = Options::default();
        let cm = CostModel::default();
        let fns = UniformFnCost(50);
        let merged =
            crate::consolidate_many(&[a.clone(), b.clone()], &mut i, &cm, &fns, &opts, false)
                .expect("consolidate");
        let pf = synthesize(&[a, b], &merged.program, &i, &cm, &fns, &opts).expect("prefilter");
        assert!(pf.paths_checked >= 1);
        assert_eq!(pf.queries, 2);
        // The raw candidate is the disjunction of the two guards
        // (x >= 5 || x >= 9); interval collapse keeps the weakest bound.
        let x = i.intern("x");
        assert_eq!(
            pf.cond,
            BoolExpr::Cmp(CmpOp::Le, IntExpr::Const(5), IntExpr::Var(x)),
        );
    }

    #[test]
    fn candidate_collapses_threshold_disjuncts() {
        let mut i = Interner::new();
        let progs: Vec<Program> = [7i64, 3, 11]
            .iter()
            .map(|k| {
                prog(
                    &format!(
                        "program a @1 (x) {{ if (x >= {k}) {{ notify true; }} else {{ notify false; }} }}"
                    ),
                    &mut i,
                )
            })
            .collect();
        let x = i.intern("x");
        // Three same-param lower bounds merge into the weakest one.
        assert_eq!(
            candidate(&progs),
            BoolExpr::Cmp(CmpOp::Le, IntExpr::Const(3), IntExpr::Var(x)),
        );
    }

    #[test]
    fn covering_bounds_collapse_to_trivial() {
        let mut i = Interner::new();
        // x >= 10 ∨ x <= 20 covers every i64 — the candidate folds to ⊤
        // and synthesis fails open.
        let a = prog(
            "program a @1 (x) { if (x >= 10) { notify true; } else { notify false; } }",
            &mut i,
        );
        let b = prog(
            "program b @2 (x) { if (x <= 20) { notify true; } else { notify false; } }",
            &mut i,
        );
        assert_eq!(candidate(&[a.clone(), b.clone()]), BoolExpr::Const(true));
        let opts = Options::default();
        let cm = CostModel::default();
        let fns = UniformFnCost(50);
        let merged =
            crate::consolidate_many(&[a.clone(), b.clone()], &mut i, &cm, &fns, &opts, false)
                .expect("consolidate");
        assert_eq!(
            synthesize(&[a, b], &merged.program, &i, &cm, &fns, &opts),
            Err(Reject::Trivial)
        );
    }

    #[test]
    fn unsound_candidate_is_refuted() {
        let mut i = Interner::new();
        let a = prog(
            "program a @1 (x) { if (x >= 3) { notify true; } else { notify false; } }",
            &mut i,
        );
        let opts = Options::default();
        let cm = CostModel::default();
        let fns = UniformFnCost(50);
        let merged =
            crate::consolidate_many(std::slice::from_ref(&a), &mut i, &cm, &fns, &opts, false)
                .expect("consolidate");
        // Deliberately wrong: claims only x >= 5 can notify, but x = 4 does.
        let x = i.intern("x");
        let bogus = BoolExpr::Cmp(CmpOp::Le, IntExpr::Const(5), IntExpr::Var(x));
        assert_eq!(
            verify_candidate(&bogus, &merged.program, &i, &opts),
            Err(Reject::Refuted)
        );
    }

    #[test]
    fn call_reachable_under_negation_is_rejected() {
        let mut i = Interner::new();
        // The call is unconditional: no record can skip it.
        let a = prog(
            "program a @1 (x) { s := f(x); if (x >= 5) { if (s >= 2) { notify true; } else { notify false; } } else { notify false; } }",
            &mut i,
        );
        let opts = Options::default();
        let x = i.intern("x");
        let cand = BoolExpr::Cmp(CmpOp::Le, IntExpr::Const(5), IntExpr::Var(x));
        assert_eq!(
            verify_candidate(&cand, &a, &i, &opts),
            Err(Reject::ReachableCall)
        );
    }

    #[test]
    fn trivial_candidate_fails_open() {
        let mut i = Interner::new();
        let a = prog(
            "program a @1 (x) { if (f(x) >= 5) { notify true; } else { notify false; } }",
            &mut i,
        );
        let opts = Options::default();
        let cm = CostModel::default();
        let fns = UniformFnCost(50);
        assert_eq!(
            synthesize(std::slice::from_ref(&a), &a, &i, &cm, &fns, &opts),
            Err(Reject::Trivial)
        );
    }
}

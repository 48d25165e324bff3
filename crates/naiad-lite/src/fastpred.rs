//! Closed-form evaluator for synthesized pre-filter conditions.
//!
//! The pre-filter synthesis pass ([`consolidate::prefilter`]) only ever
//! produces conditions built from record parameters, integer literals and
//! the wrapping arithmetic/comparison operators — never library calls and
//! never loops. Running such a condition through a bytecode VM costs a full
//! per-record machine setup (register reset, argument copy, fuel
//! bookkeeping, one dispatch per instruction), which on well-consolidated
//! cheap families
//! rivals the cost of the merged program's own fast-fail path and erases
//! the pushdown's win. This module evaluates the condition directly over
//! the record's argument vector instead: a small expression tree whose
//! leaves are pre-resolved parameter indices, evaluated in a handful of
//! nanoseconds with no fuel, no slots and no failure paths.
//!
//! # Semantic equivalence
//!
//! The evaluator is exactly the language semantics on the supported
//! fragment:
//!
//! * arithmetic uses [`IntOp::apply`] — the two's-complement wrapping
//!   semantics of the reference interpreter and of both VMs;
//! * comparisons use [`CmpOp::apply`], likewise;
//! * `&&` / `||` are evaluated with short-circuiting, which on this pure,
//!   total fragment is observationally identical to the language's strict
//!   connectives — there are no side effects, faults or costs the skipped
//!   operand could contribute.
//!
//! The evaluator is *total*: it has no fuel to run out of and no call that
//! could fail, so every record receives an exact verdict; the skip decision
//! itself is licensed by the synthesis-time proof.
//!
//! [`build`](FastPred::build) returns `None` when the condition strays
//! outside the fragment (a library call, or a variable that is not a
//! parameter of the merged program). No synthesized condition does; for a
//! hand-constructed one the engine then attaches no pre-filter at all
//! (fail open, like every other rejection).

use udf_lang::ast::{BoolExpr, BoolOp, CmpOp, IntExpr, IntOp};
use udf_lang::intern::Symbol;

#[derive(Debug, Clone)]
enum IntNode {
    Const(i64),
    /// Index into the record's argument vector.
    Param(u32),
    Bin(IntOp, Box<IntNode>, Box<IntNode>),
}

#[derive(Debug, Clone)]
enum BoolNode {
    Const(bool),
    Cmp(CmpOp, IntNode, IntNode),
    Not(Box<BoolNode>),
    Bin(BoolOp, Box<BoolNode>, Box<BoolNode>),
}

/// A pre-filter condition compiled to a direct-evaluation tree with
/// parameter references resolved to argument-vector indices.
#[derive(Debug, Clone)]
pub(crate) struct FastPred {
    root: BoolNode,
}

impl FastPred {
    /// Compiles `cond` against the merged program's parameter list.
    /// Returns `None` if the condition uses a library call or an unknown
    /// variable (the caller then runs without a pre-filter).
    #[must_use]
    pub(crate) fn build(cond: &BoolExpr, params: &[Symbol]) -> Option<FastPred> {
        Some(FastPred {
            root: build_bool(cond, params)?,
        })
    }

    /// Evaluates the condition over a record's argument vector (as
    /// produced by [`crate::env::UdfEnv::args`]). Total: never faults,
    /// never consumes fuel.
    #[inline]
    #[must_use]
    pub(crate) fn eval(&self, args: &[i64]) -> bool {
        eval_bool(&self.root, args)
    }
}

fn build_int(e: &IntExpr, params: &[Symbol]) -> Option<IntNode> {
    match e {
        IntExpr::Const(c) => Some(IntNode::Const(*c)),
        IntExpr::Var(s) => {
            let idx = params.iter().position(|p| p == s)?;
            Some(IntNode::Param(u32::try_from(idx).ok()?))
        }
        IntExpr::Call(..) => None,
        IntExpr::Bin(op, a, b) => Some(IntNode::Bin(
            *op,
            Box::new(build_int(a, params)?),
            Box::new(build_int(b, params)?),
        )),
    }
}

fn build_bool(e: &BoolExpr, params: &[Symbol]) -> Option<BoolNode> {
    match e {
        BoolExpr::Const(b) => Some(BoolNode::Const(*b)),
        BoolExpr::Cmp(op, a, b) => Some(BoolNode::Cmp(
            *op,
            build_int(a, params)?,
            build_int(b, params)?,
        )),
        BoolExpr::Not(a) => Some(BoolNode::Not(Box::new(build_bool(a, params)?))),
        BoolExpr::Bin(op, a, b) => Some(BoolNode::Bin(
            *op,
            Box::new(build_bool(a, params)?),
            Box::new(build_bool(b, params)?),
        )),
    }
}

fn eval_int(n: &IntNode, args: &[i64]) -> i64 {
    match n {
        IntNode::Const(c) => *c,
        IntNode::Param(i) => args[*i as usize],
        IntNode::Bin(op, a, b) => op.apply(eval_int(a, args), eval_int(b, args)),
    }
}

fn eval_bool(n: &BoolNode, args: &[i64]) -> bool {
    match n {
        BoolNode::Const(b) => *b,
        BoolNode::Cmp(op, a, b) => op.apply(eval_int(a, args), eval_int(b, args)),
        BoolNode::Not(a) => !eval_bool(a, args),
        // Short-circuiting is sound here: the fragment is pure and total,
        // so the strict connectives of the language are indistinguishable.
        BoolNode::Bin(BoolOp::And, a, b) => eval_bool(a, args) && eval_bool(b, args),
        BoolNode::Bin(BoolOp::Or, a, b) => eval_bool(a, args) || eval_bool(b, args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udf_lang::cost::CostModel;
    use udf_lang::intern::Interner;
    use udf_lang::interp::{Env, Interp};

    /// The direct evaluator must agree with the reference interpreter's
    /// `bool_expr` on every record — including wrapping overflow operands.
    #[test]
    fn matches_interpreter_on_condition() {
        let mut interner = Interner::default();
        let a = interner.intern("a");
        let b = interner.intern("b");
        let params = vec![a, b];
        let cond = BoolExpr::or(
            BoolExpr::Cmp(
                CmpOp::Le,
                IntExpr::Const(40),
                IntExpr::add(
                    IntExpr::Var(a),
                    IntExpr::mul(IntExpr::Var(b), IntExpr::Const(3)),
                ),
            ),
            BoolExpr::and(
                BoolExpr::Cmp(CmpOp::Lt, IntExpr::Var(b), IntExpr::Const(-5)),
                BoolExpr::not(BoolExpr::Cmp(CmpOp::Eq, IntExpr::Var(a), IntExpr::Const(0))),
            ),
        );
        let fast = FastPred::build(&cond, &params).expect("fragment supported");

        let lib = udf_lang::FnLibrary::default();
        let interp = Interp::new(CostModel::default(), &lib);
        for rec in [
            [0i64, 0],
            [41, 0],
            [10, 10],
            [1, -6],
            [0, -6],
            [i64::MAX, 1],
            [i64::MIN, i64::MAX],
        ] {
            let env: Env = params.iter().copied().zip(rec).collect();
            let (expected, _cost) = interp
                .bool_expr(&env, &cond, &interner)
                .expect("condition is total");
            assert_eq!(
                fast.eval(&rec),
                expected,
                "fast/interp divergence on {rec:?}"
            );
        }
    }

    /// Conditions outside the pure fragment refuse to build.
    #[test]
    fn rejects_calls_and_unknown_vars() {
        let mut interner = Interner::default();
        let a = interner.intern("a");
        let f = interner.intern("f");
        let call = BoolExpr::Cmp(
            CmpOp::Lt,
            IntExpr::Call(f, vec![IntExpr::Var(a)]),
            IntExpr::Const(0),
        );
        assert!(FastPred::build(&call, &[a]).is_none());
        let unknown = BoolExpr::Cmp(CmpOp::Lt, IntExpr::Var(f), IntExpr::Const(0));
        assert!(FastPred::build(&unknown, &[a]).is_none());
    }
}

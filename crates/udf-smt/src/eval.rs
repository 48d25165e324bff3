//! Evaluation of terms and formulas under a *total* interpretation.
//!
//! An [`Interp`] is a first-order structure for the symbols of a
//! [`Context`]: every variable has a value (0 unless the model says
//! otherwise), every function symbol denotes a function — a table from
//! argument values to a result, completed lazily: the first application
//! evaluated at an argument tuple fixes the entry (to the value the model
//! gave that application, else 0) and every later application at equal
//! arguments reads it — and `+`, `−`, `×` are the integers' own, computed
//! with checked `i128`. So when [`Interp::formula`] says `Some(true)`, the
//! formula has a genuine model and no sound solver can call it `Unsat`;
//! where the arithmetic overflows the answer is `None` — unusable, never a
//! verdict.
//!
//! Nothing here trusts where the model came from. A [`Model`] whose
//! application values contradict each other (`f(a) = 1`, `f(b) = 2`,
//! `a = b`) still yields one consistent table; it just stops satisfying the
//! formula it was found for, which the caller sees by evaluating that
//! formula.
//!
//! Values are memoised by hash-consed id. The table only grows and variables
//! never change, so a memoised value stays right as the context gains
//! nodes, and re-evaluating a conjunction that grew by one conjunct costs
//! one node.

use crate::ctx::{Context, FnSym, Formula, FormulaId, Term, TermId};
use crate::theory::Model;
use std::collections::HashMap;

/// A total interpretation of a [`Context`]'s symbols, with memoised
/// evaluation (see the module docs).
#[derive(Debug)]
pub struct Interp {
    /// The variable values, and per application term the value a table
    /// entry is initialised from when that term is the first to need it.
    model: Model,
    table: HashMap<(FnSym, Vec<i128>), i128>,
    /// Memo per term / formula id: `None` not yet evaluated, `Some(None)`
    /// overflowed.
    terms: Vec<Option<Option<i128>>>,
    formulas: Vec<Option<Option<bool>>>,
}

impl Interp {
    /// The interpretation that extends `model`: its variable values, its
    /// application values as far as they are functional, 0 everywhere else.
    pub fn new(model: Model) -> Interp {
        Interp {
            model,
            table: HashMap::new(),
            terms: Vec::new(),
            formulas: Vec::new(),
        }
    }

    /// The model this interpretation extends.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The model this interpretation extends, given back.
    pub(crate) fn into_model(self) -> Model {
        self.model
    }

    /// Forgets every value evaluated so far, function table entries
    /// included: afterwards it reads every formula as
    /// [`Interp::new`]`(model)` would.
    pub(crate) fn reset(&mut self) {
        self.table.clear();
        self.terms.clear();
        self.formulas.clear();
    }

    /// Value of `t`; `None` when computing it overflows `i128`.
    pub fn term(&mut self, ctx: &Context, t: TermId) -> Option<i128> {
        let i = t.0 as usize;
        if let Some(Some(known)) = self.terms.get(i) {
            return *known;
        }
        let value = match ctx.term(t) {
            Term::Int(c) => Some(i128::from(*c)),
            Term::Var(v) => Some(self.model.vars.get(v).copied().unwrap_or(0)),
            Term::App(f, args) => args
                .iter()
                .map(|&a| self.term(ctx, a))
                .collect::<Option<Vec<i128>>>()
                .map(|args| {
                    let given = self.model.apps.get(&t).copied().unwrap_or(0);
                    *self.table.entry((*f, args)).or_insert(given)
                }),
            Term::Add(a, b) => self.pair(ctx, *a, *b).and_then(|(a, b)| a.checked_add(b)),
            Term::Sub(a, b) => self.pair(ctx, *a, *b).and_then(|(a, b)| a.checked_sub(b)),
            Term::Mul(a, b) => self.pair(ctx, *a, *b).and_then(|(a, b)| a.checked_mul(b)),
        };
        if self.terms.len() <= i {
            self.terms.resize(i + 1, None);
        }
        self.terms[i] = Some(value);
        value
    }

    fn pair(&mut self, ctx: &Context, a: TermId, b: TermId) -> Option<(i128, i128)> {
        self.term(ctx, a).zip(self.term(ctx, b))
    }

    /// Truth value of `f`; `None` when a term it needs overflows.
    pub fn formula(&mut self, ctx: &Context, f: FormulaId) -> Option<bool> {
        let i = f.0 as usize;
        if let Some(Some(known)) = self.formulas.get(i) {
            return *known;
        }
        let value = match ctx.formula(f) {
            Formula::True => Some(true),
            Formula::False => Some(false),
            Formula::Le(a, b) => self.pair(ctx, *a, *b).map(|(a, b)| a <= b),
            Formula::Lt(a, b) => self.pair(ctx, *a, *b).map(|(a, b)| a < b),
            Formula::Eq(a, b) => self.pair(ctx, *a, *b).map(|(a, b)| a == b),
            Formula::Not(g) => self.formula(ctx, *g).map(|g| !g),
            Formula::And(a, b) => self
                .formula(ctx, *a)
                .zip(self.formula(ctx, *b))
                .map(|(a, b)| a && b),
            Formula::Or(a, b) => self
                .formula(ctx, *a)
                .zip(self.formula(ctx, *b))
                .map(|(a, b)| a || b),
        };
        if self.formulas.len() <= i {
            self.formulas.resize(i + 1, None);
        }
        self.formulas[i] = Some(value);
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_zero_and_arithmetic_is_real() {
        let mut ctx = Context::new();
        let (x, y) = (ctx.int_var("x"), ctx.int_var("y"));
        let mut model = Model::default();
        model.vars.insert(ctx.var("x"), 6);
        let mut interp = Interp::new(model);
        let prod = ctx.mul(x, x);
        let sum = ctx.add(prod, y);
        assert_eq!(
            interp.term(&ctx, sum),
            Some(36),
            "x·x is 36, y defaults to 0"
        );
        let c36 = ctx.int(36);
        let eq = ctx.eq(sum, c36);
        let lt = ctx.lt(sum, c36);
        let either = ctx.or(lt, eq);
        assert_eq!(interp.formula(&ctx, either), Some(true));
        let both = ctx.and(lt, eq);
        assert_eq!(interp.formula(&ctx, both), Some(false));
    }

    #[test]
    fn memo_survives_context_growth() {
        let mut ctx = Context::new();
        let x = ctx.int_var("x");
        let f = ctx.fn_sym("f", 1);
        let fx = ctx.app(f, vec![x]);
        let mut model = Model::default();
        model.apps.insert(fx, 9);
        let mut interp = Interp::new(model);
        assert_eq!(interp.term(&ctx, fx), Some(9));
        // New nodes, built after the first evaluation, at equal arguments.
        let zero = ctx.int(0);
        let f0 = ctx.app(f, vec![zero]);
        let same = ctx.eq(fx, f0);
        assert_eq!(
            interp.formula(&ctx, same),
            Some(true),
            "x = 0, so f(0) reads f(x)'s entry"
        );
    }
}

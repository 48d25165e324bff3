//! Hash-consed terms and formulas.
//!
//! All terms and formulas live in a [`Context`]; structurally equal nodes are
//! shared, so `TermId`/`FormulaId` equality is structural equality. The
//! constructors perform light, obviously-sound normalization (constant
//! folding of ground atoms, unit laws for connectives, double-negation
//! elimination) so the solver never sees trivially reducible nodes.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// A map keyed by the solver's own ids ([`TermId`], node indices, lists of
/// them), hashed by [`IdHasher`].
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Multiply-rotate hashing (FxHash's) for keys the program makes itself:
/// a few cycles per word instead of SipHash's tens, which dominate a map
/// that lives for one theory check. No key comes from outside the program,
/// so there is nothing to defend against collisions crafted by an input.
#[derive(Clone, Copy, Default)]
pub(crate) struct IdHasher(u64);

impl IdHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(4);
        for c in &mut chunks {
            self.add(u64::from(u32::from_le_bytes([c[0], c[1], c[2], c[3]])));
        }
        for &b in chunks.remainder() {
            self.add(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Handle to a term in a [`Context`]. Equal handles denote structurally equal
/// terms.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TermId(pub(crate) u32);

/// Handle to a formula in a [`Context`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FormulaId(pub(crate) u32);

/// An integer-sorted variable.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VarId(pub(crate) u32);

/// An uninterpreted function symbol with a fixed arity.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FnSym(pub(crate) u32);

impl VarId {
    /// Raw index (dense, starting at 0).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Integer-sorted term structure.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Term {
    /// Integer constant.
    Int(i64),
    /// Variable.
    Var(VarId),
    /// Uninterpreted function application.
    App(FnSym, Vec<TermId>),
    /// Addition.
    Add(TermId, TermId),
    /// Subtraction.
    Sub(TermId, TermId),
    /// Multiplication (treated as uninterpreted when both sides are
    /// non-constant — see [`crate::theory`]).
    Mul(TermId, TermId),
}

/// Formula structure (quantifier-free).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Formula {
    /// ⊤.
    True,
    /// ⊥.
    False,
    /// `t₁ ≤ t₂`.
    Le(TermId, TermId),
    /// `t₁ < t₂`.
    Lt(TermId, TermId),
    /// `t₁ = t₂`.
    Eq(TermId, TermId),
    /// Negation.
    Not(FormulaId),
    /// Conjunction.
    And(FormulaId, FormulaId),
    /// Disjunction.
    Or(FormulaId, FormulaId),
}

/// Arena of hash-consed terms and formulas plus symbol tables.
///
/// The arena only grows, so a handle keeps its meaning for the context's
/// whole life. Each context — a new one or a clone — also carries a
/// process-unique identity: the [`crate::Solver`] keys the theory lemmas it
/// retains to it, since the same handle may name another atom in another
/// context, or in a clone that diverged after cloning.
#[derive(Debug, Default, Clone)]
pub struct Context {
    id: ContextId,
    terms: Vec<Term>,
    term_ids: HashMap<Term, TermId>,
    formulas: Vec<Formula>,
    formula_ids: HashMap<Formula, FormulaId>,
    var_names: Vec<String>,
    var_ids: HashMap<String, VarId>,
    fn_names: Vec<(String, usize)>,
    fn_ids: HashMap<String, FnSym>,
}

/// A [`Context`]'s process-unique identity. Every `default()` and every
/// `clone()` takes a new one, so a cloned context is never its original.
#[derive(Debug)]
struct ContextId(u64);

/// The next [`ContextId`]; 0 is never handed out.
static NEXT_CONTEXT_ID: AtomicU64 = AtomicU64::new(1);

impl Default for ContextId {
    fn default() -> ContextId {
        // Relaxed: the counter publishes no other data, only uniqueness matters.
        ContextId(NEXT_CONTEXT_ID.fetch_add(1, Ordering::Relaxed))
    }
}

impl Clone for ContextId {
    fn clone(&self) -> ContextId {
        ContextId::default()
    }
}

impl Context {
    /// Creates an empty context.
    pub fn new() -> Context {
        Context::default()
    }

    /// This context's identity: distinct from that of every other context
    /// (clones included) created in this process.
    pub(crate) fn id(&self) -> u64 {
        self.id.0
    }

    fn intern_term(&mut self, t: Term) -> TermId {
        if let Some(&id) = self.term_ids.get(&t) {
            return id;
        }
        let id = TermId(u32::try_from(self.terms.len()).expect("term pool overflow"));
        self.terms.push(t.clone());
        self.term_ids.insert(t, id);
        id
    }

    fn intern_formula(&mut self, f: Formula) -> FormulaId {
        if let Some(&id) = self.formula_ids.get(&f) {
            return id;
        }
        let id = FormulaId(u32::try_from(self.formulas.len()).expect("formula pool overflow"));
        self.formulas.push(f.clone());
        self.formula_ids.insert(f, id);
        id
    }

    /// The term behind a handle.
    pub fn term(&self, id: TermId) -> &Term {
        &self.terms[id.0 as usize]
    }

    /// The formula behind a handle.
    pub fn formula(&self, id: FormulaId) -> &Formula {
        &self.formulas[id.0 as usize]
    }

    /// Declares (or looks up) an integer variable named `name`.
    pub fn int_var(&mut self, name: &str) -> TermId {
        let var = self.var(name);
        self.intern_term(Term::Var(var))
    }

    /// Declares (or looks up) the [`VarId`] for `name`.
    pub fn var(&mut self, name: &str) -> VarId {
        if let Some(&v) = self.var_ids.get(name) {
            return v;
        }
        let v = VarId(u32::try_from(self.var_names.len()).expect("var pool overflow"));
        self.var_names.push(name.to_owned());
        self.var_ids.insert(name.to_owned(), v);
        v
    }

    /// Name of a variable.
    pub fn var_name(&self, v: VarId) -> &str {
        &self.var_names[v.0 as usize]
    }

    /// Declares (or looks up) an uninterpreted function symbol.
    ///
    /// # Panics
    ///
    /// Panics if `name` was previously declared with a different arity.
    pub fn fn_sym(&mut self, name: &str, arity: usize) -> FnSym {
        if let Some(&f) = self.fn_ids.get(name) {
            assert_eq!(
                self.fn_names[f.0 as usize].1, arity,
                "function `{name}` redeclared with different arity"
            );
            return f;
        }
        let f = FnSym(u32::try_from(self.fn_names.len()).expect("fn pool overflow"));
        self.fn_names.push((name.to_owned(), arity));
        self.fn_ids.insert(name.to_owned(), f);
        f
    }

    /// Name of a function symbol.
    pub(crate) fn fn_name(&self, f: FnSym) -> &str {
        &self.fn_names[f.0 as usize].0
    }

    /// Arity of a function symbol.
    pub(crate) fn fn_arity(&self, f: FnSym) -> usize {
        self.fn_names[f.0 as usize].1
    }

    /// Integer constant term.
    pub fn int(&mut self, c: i64) -> TermId {
        self.intern_term(Term::Int(c))
    }

    /// Function application `f(args)`.
    ///
    /// # Panics
    ///
    /// Panics when `args.len()` differs from the declared arity.
    pub fn app(&mut self, f: FnSym, args: Vec<TermId>) -> TermId {
        assert_eq!(
            args.len(),
            self.fn_arity(f),
            "arity mismatch applying `{}`",
            self.fn_name(f)
        );
        self.intern_term(Term::App(f, args))
    }

    /// `a + b`, folding constants.
    pub fn add(&mut self, a: TermId, b: TermId) -> TermId {
        if let (Term::Int(x), Term::Int(y)) = (self.term(a), self.term(b)) {
            let (x, y) = (*x, *y);
            return self.int(x.wrapping_add(y));
        }
        self.intern_term(Term::Add(a, b))
    }

    /// `a - b`, folding constants.
    pub fn sub(&mut self, a: TermId, b: TermId) -> TermId {
        if let (Term::Int(x), Term::Int(y)) = (self.term(a), self.term(b)) {
            let (x, y) = (*x, *y);
            return self.int(x.wrapping_sub(y));
        }
        self.intern_term(Term::Sub(a, b))
    }

    /// `a * b`, folding constants.
    pub fn mul(&mut self, a: TermId, b: TermId) -> TermId {
        if let (Term::Int(x), Term::Int(y)) = (self.term(a), self.term(b)) {
            let (x, y) = (*x, *y);
            return self.int(x.wrapping_mul(y));
        }
        self.intern_term(Term::Mul(a, b))
    }

    /// ⊤.
    pub fn tru(&mut self) -> FormulaId {
        self.intern_formula(Formula::True)
    }

    /// ⊥.
    pub fn fls(&mut self) -> FormulaId {
        self.intern_formula(Formula::False)
    }

    /// `a ≤ b`, folding ground comparisons.
    pub fn le(&mut self, a: TermId, b: TermId) -> FormulaId {
        if let (Term::Int(x), Term::Int(y)) = (self.term(a), self.term(b)) {
            return if x <= y { self.tru() } else { self.fls() };
        }
        self.intern_formula(Formula::Le(a, b))
    }

    /// `a < b`, folding ground comparisons.
    pub fn lt(&mut self, a: TermId, b: TermId) -> FormulaId {
        if let (Term::Int(x), Term::Int(y)) = (self.term(a), self.term(b)) {
            return if x < y { self.tru() } else { self.fls() };
        }
        self.intern_formula(Formula::Lt(a, b))
    }

    /// `a = b`, folding ground and reflexive comparisons.
    pub fn eq(&mut self, a: TermId, b: TermId) -> FormulaId {
        if a == b {
            return self.tru();
        }
        if let (Term::Int(x), Term::Int(y)) = (self.term(a), self.term(b)) {
            return if x == y { self.tru() } else { self.fls() };
        }
        // Orient by id so `a = b` and `b = a` are the same node.
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.intern_formula(Formula::Eq(a, b))
    }

    /// `¬f`, with double-negation and constant elimination.
    pub fn not(&mut self, f: FormulaId) -> FormulaId {
        match self.formula(f) {
            Formula::True => self.fls(),
            Formula::False => self.tru(),
            Formula::Not(inner) => *inner,
            _ => self.intern_formula(Formula::Not(f)),
        }
    }

    /// `a ∧ b`, with unit/absorption laws.
    pub fn and(&mut self, a: FormulaId, b: FormulaId) -> FormulaId {
        match (self.formula(a), self.formula(b)) {
            (Formula::False, _) | (_, Formula::False) => self.fls(),
            (Formula::True, _) => b,
            (_, Formula::True) => a,
            _ if a == b => a,
            _ => {
                let (a, b) = if a <= b { (a, b) } else { (b, a) };
                self.intern_formula(Formula::And(a, b))
            }
        }
    }

    /// `a ∨ b`, with unit/absorption laws.
    pub fn or(&mut self, a: FormulaId, b: FormulaId) -> FormulaId {
        match (self.formula(a), self.formula(b)) {
            (Formula::True, _) | (_, Formula::True) => self.tru(),
            (Formula::False, _) => b,
            (_, Formula::False) => a,
            _ if a == b => a,
            _ => {
                let (a, b) = if a <= b { (a, b) } else { (b, a) };
                self.intern_formula(Formula::Or(a, b))
            }
        }
    }

    /// Conjunction of many formulas.
    pub fn and_all<I: IntoIterator<Item = FormulaId>>(&mut self, fs: I) -> FormulaId {
        let mut acc = self.tru();
        for f in fs {
            acc = self.and(acc, f);
        }
        acc
    }

    /// Disjunction of many formulas.
    pub fn or_all<I: IntoIterator<Item = FormulaId>>(&mut self, fs: I) -> FormulaId {
        let mut acc = self.fls();
        for f in fs {
            acc = self.or(acc, f);
        }
        acc
    }

    /// `a ⇒ b`.
    pub fn implies(&mut self, a: FormulaId, b: FormulaId) -> FormulaId {
        let na = self.not(a);
        self.or(na, b)
    }

    /// Renders a term for debugging.
    pub(crate) fn term_to_string(&self, id: TermId) -> String {
        let mut s = String::new();
        self.fmt_term(id, &mut s);
        s
    }

    fn fmt_term(&self, id: TermId, out: &mut String) {
        use fmt::Write as _;
        match self.term(id) {
            Term::Int(c) => {
                let _ = write!(out, "{c}");
            }
            Term::Var(v) => out.push_str(self.var_name(*v)),
            Term::App(f, args) => {
                out.push_str(self.fn_name(*f));
                out.push('(');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    self.fmt_term(*a, out);
                }
                out.push(')');
            }
            Term::Add(a, b) => {
                out.push('(');
                self.fmt_term(*a, out);
                out.push_str(" + ");
                self.fmt_term(*b, out);
                out.push(')');
            }
            Term::Sub(a, b) => {
                out.push('(');
                self.fmt_term(*a, out);
                out.push_str(" - ");
                self.fmt_term(*b, out);
                out.push(')');
            }
            Term::Mul(a, b) => {
                out.push('(');
                self.fmt_term(*a, out);
                out.push_str(" * ");
                self.fmt_term(*b, out);
                out.push(')');
            }
        }
    }

    /// Renders a formula for debugging.
    pub fn formula_to_string(&self, id: FormulaId) -> String {
        match self.formula(id) {
            Formula::True => "true".to_owned(),
            Formula::False => "false".to_owned(),
            Formula::Le(a, b) => {
                format!("{} <= {}", self.term_to_string(*a), self.term_to_string(*b))
            }
            Formula::Lt(a, b) => {
                format!("{} < {}", self.term_to_string(*a), self.term_to_string(*b))
            }
            Formula::Eq(a, b) => {
                format!("{} = {}", self.term_to_string(*a), self.term_to_string(*b))
            }
            Formula::Not(f) => format!("!({})", self.formula_to_string(*f)),
            Formula::And(a, b) => format!(
                "({} && {})",
                self.formula_to_string(*a),
                self.formula_to_string(*b)
            ),
            Formula::Or(a, b) => format!(
                "({} || {})",
                self.formula_to_string(*a),
                self.formula_to_string(*b)
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_shares_nodes() {
        let mut ctx = Context::new();
        let x1 = ctx.int_var("x");
        let x2 = ctx.int_var("x");
        assert_eq!(x1, x2);
        let one = ctx.int(1);
        let a = ctx.add(x1, one);
        let b = ctx.add(x2, one);
        assert_eq!(a, b);
    }

    #[test]
    fn ground_folding() {
        let mut ctx = Context::new();
        let a = ctx.int(2);
        let b = ctx.int(3);
        assert_eq!(ctx.add(a, b), ctx.int(5));
        assert_eq!(ctx.mul(a, b), ctx.int(6));
        assert_eq!(ctx.le(a, b), ctx.tru());
        assert_eq!(ctx.lt(b, a), ctx.fls());
        assert_eq!(ctx.eq(a, a), ctx.tru());
    }

    #[test]
    fn connective_normalization() {
        let mut ctx = Context::new();
        let x = ctx.int_var("x");
        let zero = ctx.int(0);
        let p = ctx.le(x, zero);
        let t = ctx.tru();
        let f = ctx.fls();
        assert_eq!(ctx.and(p, t), p);
        assert_eq!(ctx.and(p, f), f);
        assert_eq!(ctx.or(p, f), p);
        assert_eq!(ctx.or(p, t), t);
        let np = ctx.not(p);
        assert_eq!(ctx.not(np), p);
        assert_eq!(ctx.and(p, p), p);
    }

    #[test]
    fn equality_is_oriented() {
        let mut ctx = Context::new();
        let x = ctx.int_var("x");
        let y = ctx.int_var("y");
        assert_eq!(ctx.eq(x, y), ctx.eq(y, x));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn app_checks_arity() {
        let mut ctx = Context::new();
        let f = ctx.fn_sym("f", 2);
        let x = ctx.int_var("x");
        let _ = ctx.app(f, vec![x]);
    }

    #[test]
    fn printing_is_readable() {
        let mut ctx = Context::new();
        let f = ctx.fn_sym("f", 1);
        let x = ctx.int_var("x");
        let fx = ctx.app(f, vec![x]);
        let one = ctx.int(1);
        let t = ctx.add(fx, one);
        let phi = ctx.lt(t, x);
        assert_eq!(ctx.formula_to_string(phi), "(f(x) + 1) < x");
    }
}

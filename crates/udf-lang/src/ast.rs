//! Abstract syntax of the UDF language (paper Figure 1).
//!
//! ```text
//! Program Π  := λα₁,…,αₖ. S
//! Stmt    S  := skip | x := IE | S₁;S₂ | S₁ ⊕ᴮᴱ S₂ | notifyᵢ b | while BE do S
//! IntExpr IE := int | α | x | f(IE₁,…,IEₖ) | IE₁ ⊙ IE₂        ⊙ ∈ {+,−,∗}
//! BoolExpr BE:= b | IE₁ ▷ IE₂ | ¬BE | BE₁ ⋈ BE₂               ▷ ∈ {<,=,≤}, ⋈ ∈ {∧,∨}
//! ```
//!
//! Parameters and local variables are both represented as [`IntExpr::Var`];
//! the parameter list lives in [`Program::params`] and the validator enforces
//! that parameters are never assigned.

use crate::intern::Symbol;
use std::fmt;

/// Identifier of a source program `Πᵢ`; `notifyᵢ b` broadcasts the boolean
/// result of the program with this id. Consolidated programs carry
/// notifications for several distinct ids.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ProgId(pub u32);

impl fmt::Display for ProgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// Integer binary operators `+ - *`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum IntOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
}

impl IntOp {
    /// Applies the operator with wrapping semantics (the language is defined
    /// over mathematical integers; we fix two's-complement wrapping as the
    /// machine semantics so the interpreter is total).
    #[inline]
    pub fn apply(self, a: i64, b: i64) -> i64 {
        match self {
            IntOp::Add => a.wrapping_add(b),
            IntOp::Sub => a.wrapping_sub(b),
            IntOp::Mul => a.wrapping_mul(b),
        }
    }

    /// Source text of the operator.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            IntOp::Add => "+",
            IntOp::Sub => "-",
            IntOp::Mul => "*",
        }
    }
}

/// Comparison operators `< = ≤` (the `>` and `≥` forms are desugared by the
/// parser by swapping operands).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    /// Strictly less than.
    Lt,
    /// Equality.
    Eq,
    /// Less than or equal.
    Le,
}

impl CmpOp {
    /// Applies the comparison.
    #[inline]
    pub fn apply(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Lt => a < b,
            CmpOp::Eq => a == b,
            CmpOp::Le => a <= b,
        }
    }

    /// Source text of the operator.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Eq => "==",
            CmpOp::Le => "<=",
        }
    }
}

/// Boolean connectives `∧ ∨`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BoolOp {
    /// Conjunction. Note the semantics of Figure 2 is *strict* (both operands
    /// are always evaluated), matching the paper's cost model.
    And,
    /// Disjunction (also strict).
    Or,
}

impl BoolOp {
    /// Applies the connective.
    #[inline]
    pub(crate) fn apply(self, a: bool, b: bool) -> bool {
        match self {
            BoolOp::And => a && b,
            BoolOp::Or => a || b,
        }
    }

    /// Source text of the operator.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            BoolOp::And => "&&",
            BoolOp::Or => "||",
        }
    }
}

/// Integer expressions `IE`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum IntExpr {
    /// Integer literal.
    Const(i64),
    /// Parameter or local variable reference.
    Var(Symbol),
    /// Call to an externally provided pure library function.
    Call(Symbol, Vec<IntExpr>),
    /// Binary arithmetic.
    Bin(IntOp, Box<IntExpr>, Box<IntExpr>),
}

// The constructors below are associated functions taking both operands, not
// operator-trait methods; the ambiguity clippy warns about cannot arise.
#[allow(clippy::should_implement_trait)]
impl IntExpr {
    /// `a + b`.
    pub fn add(a: IntExpr, b: IntExpr) -> IntExpr {
        IntExpr::Bin(IntOp::Add, Box::new(a), Box::new(b))
    }

    /// `a - b`.
    pub fn sub(a: IntExpr, b: IntExpr) -> IntExpr {
        IntExpr::Bin(IntOp::Sub, Box::new(a), Box::new(b))
    }

    /// `a * b`.
    pub fn mul(a: IntExpr, b: IntExpr) -> IntExpr {
        IntExpr::Bin(IntOp::Mul, Box::new(a), Box::new(b))
    }

    /// Number of AST nodes, used in code-size reports.
    pub(crate) fn size(&self) -> usize {
        match self {
            IntExpr::Const(_) | IntExpr::Var(_) => 1,
            IntExpr::Call(_, args) => 1 + args.iter().map(IntExpr::size).sum::<usize>(),
            IntExpr::Bin(_, a, b) => 1 + a.size() + b.size(),
        }
    }
}

/// Boolean expressions `BE`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum BoolExpr {
    /// Boolean literal `⊤` / `⊥`.
    Const(bool),
    /// Arithmetic comparison `IE₁ ▷ IE₂`.
    Cmp(CmpOp, IntExpr, IntExpr),
    /// Negation.
    Not(Box<BoolExpr>),
    /// Connective `BE₁ ⋈ BE₂`.
    Bin(BoolOp, Box<BoolExpr>, Box<BoolExpr>),
}

#[allow(clippy::should_implement_trait)]
impl BoolExpr {
    /// `a && b`.
    pub fn and(a: BoolExpr, b: BoolExpr) -> BoolExpr {
        BoolExpr::Bin(BoolOp::And, Box::new(a), Box::new(b))
    }

    /// `a || b`.
    pub fn or(a: BoolExpr, b: BoolExpr) -> BoolExpr {
        BoolExpr::Bin(BoolOp::Or, Box::new(a), Box::new(b))
    }

    /// `!a`.
    pub fn not(a: BoolExpr) -> BoolExpr {
        BoolExpr::Not(Box::new(a))
    }

    /// Number of AST nodes.
    pub(crate) fn size(&self) -> usize {
        match self {
            BoolExpr::Const(_) => 1,
            BoolExpr::Cmp(_, a, b) => 1 + a.size() + b.size(),
            BoolExpr::Not(a) => 1 + a.size(),
            BoolExpr::Bin(_, a, b) => 1 + a.size() + b.size(),
        }
    }
}

/// Statements `S`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Stmt {
    /// `skip`.
    Skip,
    /// `x := e` (only local variables may be assigned).
    Assign(Symbol, IntExpr),
    /// `S₁; S₂`.
    Seq(Box<Stmt>, Box<Stmt>),
    /// `S₁ ⊕ᵉ S₂`: executes the first statement when `e` holds, the second
    /// otherwise.
    If(BoolExpr, Box<Stmt>, Box<Stmt>),
    /// `while e do S`.
    While(BoolExpr, Box<Stmt>),
    /// `notifyᵢ b`: broadcast constant `b` as the result of program `i`.
    Notify(ProgId, bool),
}

impl Stmt {
    /// Sequences two statements, eliding `skip`s.
    pub fn then(self, next: Stmt) -> Stmt {
        match (self, next) {
            (Stmt::Skip, s) | (s, Stmt::Skip) => s,
            (a, b) => Stmt::Seq(Box::new(a), Box::new(b)),
        }
    }

    /// Folds a list of statements into a right-associated sequence.
    pub fn seq_all<I: IntoIterator<Item = Stmt>>(stmts: I) -> Stmt {
        let mut items: Vec<Stmt> = stmts.into_iter().collect();
        let mut acc = match items.pop() {
            Some(s) => s,
            None => return Stmt::Skip,
        };
        while let Some(s) = items.pop() {
            acc = s.then(acc);
        }
        acc
    }

    /// Conditional constructor.
    pub fn ite(cond: BoolExpr, then_s: Stmt, else_s: Stmt) -> Stmt {
        Stmt::If(cond, Box::new(then_s), Box::new(else_s))
    }

    /// Loop constructor.
    pub fn while_do(cond: BoolExpr, body: Stmt) -> Stmt {
        Stmt::While(cond, Box::new(body))
    }

    /// Splits a statement into its first non-sequence statement (`hd`) and
    /// the remainder (`tl`), the decomposition used throughout the
    /// consolidation algorithm (paper Figure 8). When the statement is not a
    /// sequence, the tail is `skip`.
    ///
    /// # Example
    ///
    /// ```
    /// use udf_lang::ast::Stmt;
    /// let s = Stmt::Skip.then(Stmt::Notify(udf_lang::ast::ProgId(0), true));
    /// let (hd, tl) = s.split_head();
    /// assert_eq!(tl, Stmt::Skip);
    /// assert!(matches!(hd, Stmt::Notify(..)));
    /// ```
    pub fn split_head(self) -> (Stmt, Stmt) {
        match self {
            Stmt::Seq(a, b) => {
                let (hd, tl) = a.split_head();
                (hd, tl.then(*b))
            }
            s => (s, Stmt::Skip),
        }
    }

    /// Number of AST nodes, used for the code-size trade-off reports of the
    /// If 3 / If 4 / If 5 rules.
    pub fn size(&self) -> usize {
        match self {
            Stmt::Skip | Stmt::Notify(..) => 1,
            Stmt::Assign(_, e) => 1 + e.size(),
            Stmt::Seq(a, b) => a.size() + b.size(),
            Stmt::If(c, a, b) => 1 + c.size() + a.size() + b.size(),
            Stmt::While(c, b) => 1 + c.size() + b.size(),
        }
    }

    /// Whether the statement is `skip`.
    pub fn is_skip(&self) -> bool {
        matches!(self, Stmt::Skip)
    }
}

/// A program `λα₁,…,αₖ. S` with a distinguished identifier.
///
/// Different programs must use disjoint local-variable names (the paper
/// labels variables `xᵢⱼ` by program id); [`crate::analysis::rename_locals`]
/// establishes this before consolidation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Program {
    /// Program identifier used by its `notify` statements.
    pub id: ProgId,
    /// Parameter list `α₁,…,αₖ`.
    pub params: Vec<Symbol>,
    /// Body statement.
    pub body: Stmt,
}

impl Program {
    /// Creates a program.
    pub fn new(id: ProgId, params: Vec<Symbol>, body: Stmt) -> Program {
        Program { id, params, body }
    }

    /// Number of AST nodes in the body.
    pub fn size(&self) -> usize {
        self.body.size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::Interner;

    #[test]
    fn ops_apply() {
        assert_eq!(IntOp::Add.apply(2, 3), 5);
        assert_eq!(IntOp::Sub.apply(2, 3), -1);
        assert_eq!(IntOp::Mul.apply(2, 3), 6);
        assert!(CmpOp::Lt.apply(1, 2));
        assert!(CmpOp::Le.apply(2, 2));
        assert!(CmpOp::Eq.apply(4, 4));
        assert!(!CmpOp::Eq.apply(4, 5));
        assert!(BoolOp::And.apply(true, true));
        assert!(!BoolOp::And.apply(true, false));
        assert!(BoolOp::Or.apply(false, true));
    }

    #[test]
    fn wrapping_arithmetic_is_total() {
        assert_eq!(IntOp::Add.apply(i64::MAX, 1), i64::MIN);
        assert_eq!(IntOp::Mul.apply(i64::MAX, 2), -2);
    }

    #[test]
    fn then_elides_skip() {
        let s = Stmt::Skip.then(Stmt::Skip);
        assert_eq!(s, Stmt::Skip);
        let n = Stmt::Notify(ProgId(1), true);
        assert_eq!(Stmt::Skip.then(n.clone()), n.clone());
        assert_eq!(n.clone().then(Stmt::Skip), n);
    }

    #[test]
    fn split_head_peels_nested_sequences() {
        let mut i = Interner::new();
        let x = i.intern("x");
        let y = i.intern("y");
        let s = Stmt::Seq(
            Box::new(Stmt::Seq(
                Box::new(Stmt::Assign(x, IntExpr::Const(1))),
                Box::new(Stmt::Assign(y, IntExpr::Const(2))),
            )),
            Box::new(Stmt::Notify(ProgId(0), false)),
        );
        let (hd, tl) = s.split_head();
        assert_eq!(hd, Stmt::Assign(x, IntExpr::Const(1)));
        let (hd2, tl2) = tl.split_head();
        assert_eq!(hd2, Stmt::Assign(y, IntExpr::Const(2)));
        let (hd3, tl3) = tl2.split_head();
        assert_eq!(hd3, Stmt::Notify(ProgId(0), false));
        assert_eq!(tl3, Stmt::Skip);
    }

    #[test]
    fn seq_all_folds() {
        let ss = vec![Stmt::Skip, Stmt::Notify(ProgId(0), true), Stmt::Skip];
        assert_eq!(Stmt::seq_all(ss), Stmt::Notify(ProgId(0), true));
        assert_eq!(Stmt::seq_all(Vec::new()), Stmt::Skip);
    }

    #[test]
    fn sizes_count_nodes() {
        let e = IntExpr::add(IntExpr::Const(1), IntExpr::Const(2));
        assert_eq!(e.size(), 3);
        let b = BoolExpr::Cmp(CmpOp::Lt, e.clone(), IntExpr::Const(0));
        assert_eq!(b.size(), 5);
        let s = Stmt::ite(b, Stmt::Skip, Stmt::Skip);
        assert_eq!(s.size(), 8);
    }
}

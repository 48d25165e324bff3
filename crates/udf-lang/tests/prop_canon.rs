//! Properties of the canonicalizer: the structural hash is invariant under
//! alpha-renaming (the whole point — `f(x){y:=x+1}` and `f(a){b:=a+1}` must
//! key the same plan-cache slot) and sensitive to semantic differences
//! (constants, operators), so distinct programs do not collide by design.

use proptest::prelude::*;
use udf_lang::ast::{BoolExpr, CmpOp, IntExpr, IntOp, ProgId, Program, Stmt};
use udf_lang::canon::program_hash;
use udf_lang::intern::Interner;

#[derive(Clone, Debug)]
enum GTerm {
    Const(i16),
    Var(u8),
    Call(u8, Vec<GTerm>),
    Bin(u8, Box<GTerm>, Box<GTerm>),
}

#[derive(Clone, Debug)]
enum GBool {
    Const(bool),
    Cmp(u8, GTerm, GTerm),
    Not(Box<GBool>),
}

#[derive(Clone, Debug)]
enum GStmt {
    Skip,
    Assign(u8, GTerm),
    If(GBool, Vec<GStmt>, Vec<GStmt>),
    While(GBool, Vec<GStmt>),
    Notify(u8, bool),
}

fn gterm() -> impl Strategy<Value = GTerm> {
    let leaf = prop_oneof![
        any::<i16>().prop_map(GTerm::Const),
        (0u8..6).prop_map(GTerm::Var),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            (0u8..2, prop::collection::vec(inner.clone(), 0..3))
                .prop_map(|(f, args)| GTerm::Call(f, args)),
            (0u8..3, inner.clone(), inner).prop_map(|(op, a, b)| GTerm::Bin(
                op,
                Box::new(a),
                Box::new(b)
            )),
        ]
    })
}

fn gbool() -> impl Strategy<Value = GBool> {
    let atom = prop_oneof![
        any::<bool>().prop_map(GBool::Const),
        (0u8..3, gterm(), gterm()).prop_map(|(op, a, b)| GBool::Cmp(op, a, b)),
    ];
    atom.prop_recursive(2, 8, 2, |inner| inner.prop_map(|b| GBool::Not(Box::new(b))))
}

fn gstmt(depth: u32) -> BoxedStrategy<GStmt> {
    if depth == 0 {
        prop_oneof![
            Just(GStmt::Skip),
            (0u8..6, gterm()).prop_map(|(x, t)| GStmt::Assign(x, t)),
            (0u8..4, any::<bool>()).prop_map(|(id, b)| GStmt::Notify(id, b)),
        ]
        .boxed()
    } else {
        prop_oneof![
            2 => (0u8..6, gterm()).prop_map(|(x, t)| GStmt::Assign(x, t)),
            1 => (
                gbool(),
                prop::collection::vec(gstmt(depth - 1), 0..3),
                prop::collection::vec(gstmt(depth - 1), 0..3)
            )
                .prop_map(|(c, a, b)| GStmt::If(c, a, b)),
            1 => (gbool(), prop::collection::vec(gstmt(depth - 1), 0..2))
                .prop_map(|(c, body)| GStmt::While(c, body)),
        ]
        .boxed()
    }
}

/// Elaborates generated statements into a `Program`, naming the two params
/// and four locals `{prefix}0..5` — two different prefixes give two
/// alpha-equivalent renamings of the same program. Function names are
/// semantic (they denote external library calls), so they stay fixed.
struct Builder {
    vars: Vec<udf_lang::intern::Symbol>,
    fns: Vec<udf_lang::intern::Symbol>,
}

impl Builder {
    fn term(&self, t: &GTerm) -> IntExpr {
        match t {
            GTerm::Const(c) => IntExpr::Const(i64::from(*c)),
            GTerm::Var(v) => IntExpr::Var(self.vars[*v as usize % self.vars.len()]),
            GTerm::Call(f, args) => IntExpr::Call(
                self.fns[*f as usize % self.fns.len()],
                args.iter().map(|a| self.term(a)).collect(),
            ),
            GTerm::Bin(op, a, b) => IntExpr::Bin(
                match op % 3 {
                    0 => IntOp::Add,
                    1 => IntOp::Sub,
                    _ => IntOp::Mul,
                },
                Box::new(self.term(a)),
                Box::new(self.term(b)),
            ),
        }
    }

    fn boolean(&self, e: &GBool) -> BoolExpr {
        match e {
            GBool::Const(b) => BoolExpr::Const(*b),
            GBool::Cmp(op, a, b) => BoolExpr::Cmp(
                match op % 3 {
                    0 => CmpOp::Lt,
                    1 => CmpOp::Le,
                    _ => CmpOp::Eq,
                },
                self.term(a),
                self.term(b),
            ),
            GBool::Not(a) => BoolExpr::not(self.boolean(a)),
        }
    }

    fn stmt(&self, s: &GStmt) -> Stmt {
        match s {
            GStmt::Skip => Stmt::Skip,
            GStmt::Assign(x, t) => {
                Stmt::Assign(self.vars[*x as usize % self.vars.len()], self.term(t))
            }
            GStmt::If(c, a, b) => Stmt::ite(
                self.boolean(c),
                Stmt::seq_all(a.iter().map(|s| self.stmt(s))),
                Stmt::seq_all(b.iter().map(|s| self.stmt(s))),
            ),
            GStmt::While(c, body) => Stmt::while_do(
                self.boolean(c),
                Stmt::seq_all(body.iter().map(|s| self.stmt(s))),
            ),
            GStmt::Notify(id, b) => Stmt::Notify(ProgId(u32::from(*id)), *b),
        }
    }
}

fn elaborate(stmts: &[GStmt], prefix: &str, interner: &mut Interner) -> Program {
    let builder = Builder {
        vars: (0..6)
            .map(|k| interner.intern(&format!("{prefix}{k}")))
            .collect(),
        fns: (0..2).map(|k| interner.intern(&format!("fn{k}"))).collect(),
    };
    // Seed every slot with a constant so each variable occurs at least once
    // and mutation always has a constant to perturb.
    let mut body: Vec<Stmt> = builder
        .vars
        .iter()
        .enumerate()
        .map(|(k, &v)| Stmt::Assign(v, IntExpr::Const(k as i64)))
        .collect();
    body.extend(stmts.iter().map(|s| builder.stmt(s)));
    Program::new(
        ProgId(9),
        vec![builder.vars[0], builder.vars[1]],
        Stmt::seq_all(body),
    )
}

/// Adds 1 to the first integer constant reachable in evaluation order.
/// Returns true if a constant was found (elaborate guarantees one).
fn bump_first_const(s: &mut Stmt) -> bool {
    fn in_term(t: &mut IntExpr) -> bool {
        match t {
            IntExpr::Const(c) => {
                *c += 1;
                true
            }
            IntExpr::Var(_) => false,
            IntExpr::Call(_, args) => args.iter_mut().any(in_term),
            IntExpr::Bin(_, a, b) => in_term(a) || in_term(b),
        }
    }
    fn in_bool(e: &mut BoolExpr) -> bool {
        match e {
            BoolExpr::Const(_) => false,
            BoolExpr::Cmp(_, a, b) => in_term(a) || in_term(b),
            BoolExpr::Not(a) => in_bool(a),
            BoolExpr::Bin(_, a, b) => in_bool(a) || in_bool(b),
        }
    }
    match s {
        Stmt::Skip | Stmt::Notify(..) => false,
        Stmt::Assign(_, t) => in_term(t),
        Stmt::Seq(a, b) => bump_first_const(a) || bump_first_const(b),
        Stmt::If(c, a, b) => in_bool(c) || bump_first_const(a) || bump_first_const(b),
        Stmt::While(c, body) => in_bool(c) || bump_first_const(body),
    }
}

/// Flips the first arithmetic operator found (Add <-> Sub, Mul -> Add).
fn flip_first_op(s: &mut Stmt) -> bool {
    fn in_term(t: &mut IntExpr) -> bool {
        match t {
            IntExpr::Const(_) | IntExpr::Var(_) => false,
            IntExpr::Call(_, args) => args.iter_mut().any(in_term),
            IntExpr::Bin(op, a, b) => {
                *op = match op {
                    IntOp::Add => IntOp::Sub,
                    IntOp::Sub | IntOp::Mul => IntOp::Add,
                };
                let _ = (a, b);
                true
            }
        }
    }
    fn in_bool(e: &mut BoolExpr) -> bool {
        match e {
            BoolExpr::Const(_) => false,
            BoolExpr::Cmp(_, a, b) => in_term(a) || in_term(b),
            BoolExpr::Not(a) => in_bool(a),
            BoolExpr::Bin(_, a, b) => in_bool(a) || in_bool(b),
        }
    }
    match s {
        Stmt::Skip | Stmt::Notify(..) => false,
        Stmt::Assign(_, t) => in_term(t),
        Stmt::Seq(a, b) => flip_first_op(a) || flip_first_op(b),
        Stmt::If(c, a, b) => in_bool(c) || flip_first_op(a) || flip_first_op(b),
        Stmt::While(c, body) => in_bool(c) || flip_first_op(body),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Renaming every parameter and local (here: prefix `v` vs `water`)
    /// never changes the canonical hash.
    #[test]
    fn alpha_equivalent_renamings_hash_identically(
        stmts in prop::collection::vec(gstmt(2), 0..6),
    ) {
        let mut interner = Interner::new();
        let a = elaborate(&stmts, "v", &mut interner);
        let b = elaborate(&stmts, "water", &mut interner);
        prop_assert_eq!(program_hash(&a, &interner), program_hash(&b, &interner));
    }

    /// Perturbing one constant changes the hash even across an
    /// alpha-renaming — renamed-and-mutated must not collide with the
    /// original.
    #[test]
    fn constant_difference_changes_the_hash(
        stmts in prop::collection::vec(gstmt(2), 0..6),
    ) {
        let mut interner = Interner::new();
        let a = elaborate(&stmts, "v", &mut interner);
        let mut b = elaborate(&stmts, "water", &mut interner);
        prop_assert!(bump_first_const(&mut b.body), "elaborate seeds constants");
        prop_assert_ne!(program_hash(&a, &interner), program_hash(&b, &interner));
    }

    /// Swapping one arithmetic operator changes the hash (when the program
    /// contains one at all).
    #[test]
    fn operator_difference_changes_the_hash(
        stmts in prop::collection::vec(gstmt(2), 1..6),
    ) {
        let mut interner = Interner::new();
        let a = elaborate(&stmts, "v", &mut interner);
        let mut b = elaborate(&stmts, "water", &mut interner);
        if flip_first_op(&mut b.body) {
            prop_assert_ne!(program_hash(&a, &interner), program_hash(&b, &interner));
        }
    }
}

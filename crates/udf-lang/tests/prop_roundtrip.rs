//! Property: the pretty-printer and parser are mutually inverse on random
//! well-formed programs, and the interpreter is deterministic.

use proptest::prelude::*;
use udf_lang::ast::{BoolExpr, CmpOp, IntExpr, IntOp, ProgId, Program, Stmt};
use udf_lang::cost::CostModel;
use udf_lang::intern::Interner;
use udf_lang::interp::Interp;
use udf_lang::parse::parse_program;
use udf_lang::pretty;

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
    Bin(u8, Box<GBool>, Box<GBool>),
}

#[derive(Clone, Debug)]
enum GStmt {
    Skip,
    Assign(u8, GTerm),
    If(GBool, Vec<GStmt>, Vec<GStmt>),
    BoundedLoop(u8, GTerm, Vec<GStmt>), // k := e; while (k > 0) { body; k := k − 1 }
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
    atom.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|b| GBool::Not(Box::new(b))),
            (0u8..2, inner.clone(), inner).prop_map(|(op, a, b)| GBool::Bin(
                op,
                Box::new(a),
                Box::new(b)
            )),
        ]
    })
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
            1 => (5u8..6, gterm(), prop::collection::vec(gstmt(depth - 1), 0..2))
                .prop_map(|(k, e, body)| GStmt::BoundedLoop(k, e, body)),
        ]
        .boxed()
    }
}

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
            GBool::Bin(op, a, b) => {
                if op % 2 == 0 {
                    BoolExpr::and(self.boolean(a), self.boolean(b))
                } else {
                    BoolExpr::or(self.boolean(a), self.boolean(b))
                }
            }
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
            GStmt::BoundedLoop(k, e, body) => {
                let kv = self.vars[*k as usize % self.vars.len()];
                // k := min(e, 7) via: k := e; if (k > 7) { k := 7 }
                let init = Stmt::Assign(kv, self.term(e));
                let clamp = Stmt::ite(
                    BoolExpr::Cmp(CmpOp::Lt, IntExpr::Const(7), IntExpr::Var(kv)),
                    Stmt::Assign(kv, IntExpr::Const(7)),
                    Stmt::Skip,
                );
                let dec = Stmt::Assign(kv, IntExpr::sub(IntExpr::Var(kv), IntExpr::Const(1)));
                let body = Stmt::seq_all(body.iter().map(|s| self.stmt(s)).chain([dec]));
                init.then(clamp).then(Stmt::while_do(
                    BoolExpr::Cmp(CmpOp::Lt, IntExpr::Const(0), IntExpr::Var(kv)),
                    body,
                ))
            }
            GStmt::Notify(id, b) => Stmt::Notify(ProgId(u32::from(*id)), *b),
        }
    }
}

fn elaborate(stmts: &[GStmt], interner: &mut Interner) -> Program {
    let builder = Builder {
        vars: (0..6).map(|k| interner.intern(&format!("v{k}"))).collect(),
        fns: (0..2).map(|k| interner.intern(&format!("fn{k}"))).collect(),
    };
    // Initialize all variables so programs are runnable.
    let mut body: Vec<Stmt> = builder
        .vars
        .iter()
        .enumerate()
        .map(|(k, &v)| Stmt::Assign(v, IntExpr::Const(k as i64)))
        .collect();
    body.extend(stmts.iter().map(|s| builder.stmt(s)));
    Program::new(
        ProgId(9),
        vec![interner.intern("alpha")],
        Stmt::seq_all(body),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// parse(print(p)) reproduces the program up to `Seq` re-association
    /// (the printer flattens sequences, so comparing the second print
    /// detects any real divergence).
    #[test]
    fn print_parse_round_trip(stmts in prop::collection::vec(gstmt(2), 0..6)) {
        let mut interner = Interner::new();
        let p = elaborate(&stmts, &mut interner);
        let printed = pretty::program(&p, &interner);
        let reparsed = parse_program(&printed, &mut interner)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        let reprinted = pretty::program(&reparsed, &interner);
        prop_assert_eq!(&printed, &reprinted);
        prop_assert_eq!(p.id, reparsed.id);
    }

    /// Duplicate runs of the interpreter agree bit-for-bit (determinism —
    /// a prerequisite the paper imposes on UDFs).
    #[test]
    fn interpreter_is_deterministic(
        stmts in prop::collection::vec(gstmt(2), 0..6),
        arg in -100i64..100,
    ) {
        let mut interner = Interner::new();
        let p = elaborate(&stmts, &mut interner);
        // A permissive library: any function, any arity (the generator may
        // call the same symbol at several arities).
        struct AnyLib;
        impl udf_lang::library::Library for AnyLib {
            fn call(
                &self,
                f: udf_lang::intern::Symbol,
                args: &[i64],
            ) -> Result<i64, udf_lang::library::LibError> {
                let mut acc = f.index() as i64;
                for (i, a) in args.iter().enumerate() {
                    acc = acc
                        .wrapping_mul(31)
                        .wrapping_add(a.wrapping_mul(i as i64 + 1));
                }
                Ok(acc)
            }
            fn cost(&self, _f: udf_lang::intern::Symbol) -> u64 {
                10
            }
        }
        let interp = Interp::new(CostModel::default(), &AnyLib).with_fuel(2_000_000);
        let a = interp.run(&p, &[arg], &interner);
        let b = interp.run(&p, &[arg], &interner);
        prop_assert_eq!(a, b);
    }
}

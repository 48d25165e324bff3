// Integration tests may unwrap freely; the clippy gate denies it in src/.
#![allow(clippy::unwrap_used)]

//! Differential property: the scalar register VM agrees with the reference
//! interpreter on notifications, error class, and the *exact* abstract cost
//! (the cost half of Theorem 1 rests on this), for random programs
//! including bounded loops.

use proptest::prelude::*;
use udf_lang::ast::{BoolExpr, CmpOp, IntExpr, IntOp, ProgId, Program, Stmt};
use udf_lang::cost::CostModel;
use udf_lang::intern::Interner;
use udf_lang::interp::{EvalError, Interp};
use udf_lang::library::FnLibrary;

use naiad_lite::compile::{VmError, NOTIFY_NONE};
use naiad_lite::env::{RecordLibrary, ScalarEnv};
use naiad_lite::regcode::{RegProgram, RegVm};

#[derive(Clone, Debug)]
enum GTerm {
    Const(i8),
    Var(u8),
    Call(Box<GTerm>),
    Bin(u8, Box<GTerm>, Box<GTerm>),
}

#[derive(Clone, Debug)]
enum GStmt {
    Assign(u8, GTerm),
    If(u8, GTerm, GTerm, Vec<GStmt>, Vec<GStmt>),
    Loop(GTerm, Vec<GStmt>),
    Notify(u8, bool),
}

fn gterm() -> impl Strategy<Value = GTerm> {
    let leaf = prop_oneof![
        (-20i8..21).prop_map(GTerm::Const),
        (0u8..4).prop_map(GTerm::Var),
    ];
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|t| GTerm::Call(Box::new(t))),
            (0u8..3, inner.clone(), inner)
                .prop_map(|(op, a, b)| GTerm::Bin(op, Box::new(a), Box::new(b))),
        ]
    })
}

fn gstmt(depth: u32) -> BoxedStrategy<GStmt> {
    let base = prop_oneof![
        (0u8..4, gterm()).prop_map(|(x, t)| GStmt::Assign(x, t)),
        (0u8..3, any::<bool>()).prop_map(|(q, b)| GStmt::Notify(q, b)),
    ];
    if depth == 0 {
        base.boxed()
    } else {
        prop_oneof![
            2 => base,
            1 => (
                0u8..3,
                gterm(),
                gterm(),
                prop::collection::vec(gstmt(depth - 1), 0..3),
                prop::collection::vec(gstmt(depth - 1), 0..3)
            )
                .prop_map(|(op, a, b, t, e)| GStmt::If(op, a, b, t, e)),
            1 => (gterm(), prop::collection::vec(gstmt(depth - 1), 0..2))
                .prop_map(|(n, body)| GStmt::Loop(n, body)),
        ]
        .boxed()
    }
}

struct Builder {
    vars: Vec<udf_lang::intern::Symbol>,
    f: udf_lang::intern::Symbol,
    counter: udf_lang::intern::Symbol,
}

impl Builder {
    fn term(&self, t: &GTerm) -> IntExpr {
        match t {
            GTerm::Const(c) => IntExpr::Const(i64::from(*c)),
            GTerm::Var(v) => IntExpr::Var(self.vars[*v as usize % self.vars.len()]),
            GTerm::Call(a) => IntExpr::Call(self.f, vec![self.term(a)]),
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

    fn stmt(&self, s: &GStmt, loop_id: &mut u32) -> Stmt {
        match s {
            GStmt::Assign(x, t) => {
                Stmt::Assign(self.vars[*x as usize % self.vars.len()], self.term(t))
            }
            GStmt::If(op, a, b, t, e) => Stmt::ite(
                BoolExpr::Cmp(
                    match op % 3 {
                        0 => CmpOp::Lt,
                        1 => CmpOp::Le,
                        _ => CmpOp::Eq,
                    },
                    self.term(a),
                    self.term(b),
                ),
                Stmt::seq_all(t.iter().map(|s| self.stmt(s, loop_id))),
                Stmt::seq_all(e.iter().map(|s| self.stmt(s, loop_id))),
            ),
            GStmt::Loop(n, body) => {
                // Dedicated counter per loop keeps nested loops terminating.
                *loop_id += 1;
                let kv = self.counter;
                let init = Stmt::Assign(kv, self.term(n));
                let clamp = Stmt::ite(
                    BoolExpr::Cmp(CmpOp::Lt, IntExpr::Const(5), IntExpr::Var(kv)),
                    Stmt::Assign(kv, IntExpr::Const(5)),
                    Stmt::Skip,
                );
                let dec = Stmt::Assign(kv, IntExpr::sub(IntExpr::Var(kv), IntExpr::Const(1)));
                // Inner statements must not touch the counter: the generator
                // can only assign vars[0..4], and `counter` is separate.
                let body = Stmt::seq_all(body.iter().map(|s| self.stmt(s, loop_id)).chain([dec]));
                init.then(clamp).then(Stmt::while_do(
                    BoolExpr::Cmp(CmpOp::Lt, IntExpr::Const(0), IntExpr::Var(kv)),
                    body,
                ))
            }
            GStmt::Notify(q, b) => Stmt::Notify(ProgId(u32::from(*q % 3)), *b),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn vm_matches_interpreter(
        stmts in prop::collection::vec(gstmt(2), 0..6),
        a0 in -50i64..50,
        a1 in -50i64..50,
    ) {
        let mut interner = Interner::new();
        let f = interner.intern("f");
        let builder = Builder {
            vars: (0..4).map(|k| interner.intern(&format!("w{k}"))).collect(),
            f,
            counter: interner.intern("loopk"),
        };
        let params = vec![interner.intern("p0"), interner.intern("p1")];
        let mut body: Vec<Stmt> = builder
            .vars
            .iter()
            .enumerate()
            .map(|(k, &v)| Stmt::Assign(v, IntExpr::Const(k as i64)))
            .collect();
        let mut loop_id = 0;
        body.extend(stmts.iter().map(|s| builder.stmt(s, &mut loop_id)));
        let program = Program::new(ProgId(0), params, Stmt::seq_all(body));

        let mut lib = FnLibrary::new();
        lib.register(f, "f", 1, 13, |a| a[0].wrapping_mul(7).wrapping_sub(11));
        let env = ScalarEnv::new(2, lib.clone());
        let cm = CostModel::default();
        let ids = [ProgId(0), ProgId(1), ProgId(2)];
        let compiled = RegProgram::compile(&program, &ids, &cm, &|s| {
            udf_lang::library::Library::cost(&lib, s)
        })
        .expect("compiles");

        let rec = vec![a0, a1];
        let mut vm = RegVm::new().with_fuel(5_000_000);
        let mut out = vec![NOTIFY_NONE; 3];
        let vm_result = vm.run(&compiled, &env, &rec, &mut out, true);

        let view = RecordLibrary::new(&env, &rec);
        let interp = Interp::new(cm, &view).with_fuel(5_000_000);
        let ref_result = interp.run(&program, &rec, &interner);

        match (vm_result, ref_result) {
            (Ok(vm_cost), Ok(r)) => {
                prop_assert_eq!(vm_cost, r.cost, "cost mismatch");
                for (k, &id) in ids.iter().enumerate() {
                    let expected = r.notifications.get(id).map(i8::from).unwrap_or(NOTIFY_NONE);
                    prop_assert_eq!(out[k], expected, "query {}", k);
                }
            }
            // Both reject, for the same reason.
            (Err(VmError::DuplicateNotify(_)), Err(EvalError::DuplicateNotify(_)))
            | (Err(VmError::OutOfFuel), Err(EvalError::OutOfFuel))
            | (Err(VmError::Lib(_)), Err(EvalError::Lib(_))) => {}
            (vm_r, ref_r) => {
                return Err(TestCaseError::fail(format!(
                    "divergence: vm {vm_r:?} vs interp {ref_r:?}"
                )));
            }
        }
    }
}

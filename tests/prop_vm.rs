// Integration tests may unwrap freely; the clippy gate denies it in src/.
#![allow(clippy::unwrap_used)]

//! Differential properties on random programs, bounded loops included:
//!
//! * the scalar register VM agrees with the reference interpreter on
//!   notifications, error class, and the *exact* abstract cost (the cost
//!   half of Theorem 1 rests on this);
//! * the scalar and the columnar machine agree at *every* fuel budget on the
//!   result, the notifications and the calls the environment sees, and at
//!   full fuel both make the interpreter's calls.
//!
//! The generators reach the compiler's superinstructions: comparison- and
//! connective-guarded branches (constants on either side), `x := f(..)`,
//! `x := f(x)`, and calls that fault inside such an assignment (`f` with a
//! second argument, which the library refuses).

use proptest::prelude::*;
use udf_lang::ast::{BoolExpr, CmpOp, IntExpr, IntOp, ProgId, Program, Stmt};
use udf_lang::cost::CostModel;
use udf_lang::intern::Interner;
use udf_lang::interp::{EvalError, Interp};
use udf_lang::library::FnLibrary;

use naiad_lite::compile::{VmError, NOTIFY_NONE};
use naiad_lite::engine::{Engine, ExecBackend, ExecMode, QuerySet};
use naiad_lite::env::{RecordLibrary, ScalarEnv, UdfEnv};
use naiad_lite::regcode::{RegProgram, RegVm};
use std::sync::Mutex;
use std::time::Duration;
use udf_lang::intern::Symbol;
use udf_lang::library::LibError;

#[derive(Clone, Debug)]
enum GTerm {
    Const(i8),
    Var(u8),
    Call(Box<GTerm>),
    /// `f(t, 0)`: a call the library refuses (`f` takes one argument).
    Faulty(Box<GTerm>),
    Bin(u8, Box<GTerm>, Box<GTerm>),
}

#[derive(Clone, Debug)]
enum GStmt {
    Assign(u8, GTerm),
    /// `x := f(x)`, or the faulting `x := f(x, 0)`.
    SelfCall(u8, bool),
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
            4 => inner.clone().prop_map(|t| GTerm::Call(Box::new(t))),
            1 => inner.clone().prop_map(|t| GTerm::Faulty(Box::new(t))),
            4 => (0u8..3, inner.clone(), inner)
                .prop_map(|(op, a, b)| GTerm::Bin(op, Box::new(a), Box::new(b))),
        ]
    })
}

fn gstmt(depth: u32) -> BoxedStrategy<GStmt> {
    let base = prop_oneof![
        4 => (0u8..4, gterm()).prop_map(|(x, t)| GStmt::Assign(x, t)),
        1 => (0u8..4, prop_oneof![5 => Just(false), 1 => Just(true)])
            .prop_map(|(x, faulty)| GStmt::SelfCall(x, faulty)),
        4 => (0u8..3, any::<bool>()).prop_map(|(q, b)| GStmt::Notify(q, b)),
    ];
    if depth == 0 {
        base.boxed()
    } else {
        prop_oneof![
            2 => base,
            1 => (
                0u8..6,
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
            GTerm::Faulty(a) => IntExpr::Call(self.f, vec![self.term(a), IntExpr::Const(0)]),
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
            GStmt::SelfCall(x, faulty) => {
                let x = self.vars[*x as usize % self.vars.len()];
                let mut args = vec![IntExpr::Var(x)];
                if *faulty {
                    args.push(IntExpr::Const(0));
                }
                Stmt::Assign(x, IntExpr::Call(self.f, args))
            }
            GStmt::If(op, a, b, t, e) => Stmt::ite(
                {
                    let cmp = |op: u8| {
                        let op = match op % 3 {
                            0 => CmpOp::Lt,
                            1 => CmpOp::Le,
                            _ => CmpOp::Eq,
                        };
                        BoolExpr::Cmp(op, self.term(a), self.term(b))
                    };
                    // 3: a connective of two comparisons; 4: a negated one;
                    // 5: a constant on the left of the comparison.
                    match op {
                        0..=2 => cmp(*op),
                        3 => BoolExpr::and(
                            cmp(0),
                            BoolExpr::Cmp(CmpOp::Le, IntExpr::Const(1), self.term(b)),
                        ),
                        4 => BoolExpr::not(cmp(2)),
                        _ => BoolExpr::Cmp(CmpOp::Lt, IntExpr::Const(3), self.term(a)),
                    }
                },
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

/// A scalar environment that logs the arguments of every call it receives.
struct Logged {
    inner: ScalarEnv,
    calls: Mutex<Vec<Vec<i64>>>,
}

impl Logged {
    fn take(&self) -> Vec<Vec<i64>> {
        std::mem::take(&mut *self.calls.lock().unwrap())
    }
}

impl UdfEnv for Logged {
    type Rec = Vec<i64>;

    fn arity(&self) -> usize {
        self.inner.arity()
    }

    fn args(&self, rec: &Vec<i64>, out: &mut Vec<i64>) {
        self.inner.args(rec, out);
    }

    fn call(&self, rec: &Vec<i64>, f: Symbol, args: &[i64]) -> Result<i64, LibError> {
        self.calls.lock().unwrap().push(args.to_vec());
        self.inner.call(rec, f, args)
    }

    fn fn_cost(&self, f: Symbol) -> udf_lang::cost::Cost {
        self.inner.fn_cost(f)
    }
}

/// Budgets tried per program before giving up on reaching its full run.
const MAX_BUDGET: u64 = 4_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn machines_agree_at_every_budget(
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
        let env = |lib: &FnLibrary| Logged { inner: ScalarEnv::new(2, lib.clone()), calls: Mutex::new(Vec::new()) };
        let (s_env, b_env) = (env(&lib), env(&lib));
        let cm = CostModel::default();
        let ids = vec![ProgId(0), ProgId(1), ProgId(2)];
        let compiled = RegProgram::compile(&program, &ids, &cm, &|s| s_env.fn_cost(s))
            .expect("compiles");
        let qs = QuerySet {
            query_ids: ids,
            many: vec![compiled],
            consolidated: None,
            prefilter: None,
            consolidation_time: Duration::ZERO,
        };
        let rec = vec![a0, a1];
        // What a run shows: per query, the one record notified true
        // (`counts`) or not at all (`missing`), and the cost; or the fault.
        let run = |backend: ExecBackend, env: &Logged, fuel: u64| {
            Engine::new(1)
                .with_backend(backend)
                .with_fuel(fuel)
                .run(env, std::slice::from_ref(&rec), &qs, ExecMode::Many, true)
                .map(|r| (r.counts, r.missing, r.cost))
                .map_err(|e| e.to_string())
        };

        let mut fuel = 0u64;
        let full = loop {
            let scalar = run(ExecBackend::PerRecord, &s_env, fuel);
            let columnar = run(ExecBackend::Columnar, &b_env, fuel);
            let scalar_calls = s_env.take();
            prop_assert_eq!(&scalar, &columnar, "fuel {}", fuel);
            prop_assert_eq!(&scalar_calls, &b_env.take(), "calls at fuel {}", fuel);
            let out_of_fuel = scalar.as_ref().is_err_and(|e| e.contains(&VmError::OutOfFuel.to_string()));
            if !out_of_fuel || fuel == MAX_BUDGET {
                break (out_of_fuel, scalar_calls);
            }
            fuel += 1;
        };

        // Past the last budget that runs out, the run is the full run: the
        // interpreter makes the same calls in the same order.
        if !full.0 {
            let view = RecordLibrary::new(&s_env, &rec);
            let _ = Interp::new(cm, &view).run(&program, &rec, &interner);
            prop_assert_eq!(full.1, s_env.take(), "interpreter calls");
        }
    }
}

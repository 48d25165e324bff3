//! Compilation of UDF programs to linear stack ops: the front half of
//! [`crate::regcode::RegProgram::lower`].
//!
//! The reference interpreter in `udf-lang` walks the AST and allocates
//! environments per run; at dataflow rates (hundreds of thousands of records
//! × dozens of queries) that dominates everything. Following the lineage the
//! paper cites (Steno compiles LINQ operators to imperative code), programs
//! are flattened once to a compact slot-addressed stack code, which
//! [`crate::regcode`] lowers to the register bytecode both backends run.
//! Nothing executes a [`Compiled`] directly.
//!
//! Cost accounting mirrors Figure 2 exactly: every op carries the abstract
//! cost of the syntax node it came from, and the lowering charges each op's
//! cost and step to exactly one register instruction, so a run returns the
//! same cost the reference interpreter would compute (validated by
//! differential tests).

use crate::regcode::RBin;
use std::collections::HashMap;
use std::fmt;
use udf_lang::ast::{BoolExpr, BoolOp, CmpOp, IntExpr, IntOp, ProgId, Program, Stmt};
use udf_lang::cost::{Cost, CostModel};
use udf_lang::intern::Symbol;
use udf_lang::library::LibError;

/// Compilation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// A `notify` targets an id that is not in the query list.
    UnknownQueryId(ProgId),
    /// The program uses more than 65535 variables.
    TooManySlots,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnknownQueryId(id) => {
                write!(f, "notify target {id} is not a registered query id")
            }
            CompileError::TooManySlots => write!(f, "program exceeds 65535 variable slots"),
        }
    }
}

impl std::error::Error for CompileError {}

/// One stack op. The (abstract) stack holds `i64`; booleans are 0/1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Push a constant.
    Const(i64),
    /// Push slot contents.
    Load(u16),
    /// Pop into a slot.
    Store(u16),
    /// Pop b, a; push `a ⊙ b` (strict, like Figure 2).
    Bin(RBin),
    /// Pop a; push `¬a`.
    Not,
    /// Pop a; jump to target when `a = 0`.
    JumpIfZero(u32),
    /// Unconditional jump.
    Jump(u32),
    /// Call external `f` with `argc` stack arguments; push the result.
    Call {
        /// Function symbol.
        f: Symbol,
        /// Argument count.
        argc: u8,
    },
    /// Record query `query`'s broadcast.
    Notify {
        /// Dense query index.
        query: u16,
        /// Broadcast value.
        value: bool,
    },
    /// End of program.
    Halt,
}

/// A compiled program: instructions, per-instruction abstract costs, and
/// slot layout.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// Instruction stream.
    pub ops: Vec<Op>,
    /// Abstract cost charged when the instruction executes.
    pub costs: Vec<Cost>,
    /// Total variable slots (parameters first).
    pub n_slots: u16,
    /// Number of parameters.
    pub n_params: u16,
    /// Number of distinct query ids this program may notify.
    pub n_queries: usize,
}

struct Compiler<'a> {
    ops: Vec<Op>,
    costs: Vec<Cost>,
    slots: HashMap<Symbol, u16>,
    cm: &'a CostModel,
    fn_cost: &'a dyn Fn(Symbol) -> Cost,
    query_index: &'a HashMap<ProgId, u16>,
}

impl<'a> Compiler<'a> {
    fn emit(&mut self, op: Op, cost: Cost) -> usize {
        self.ops.push(op);
        self.costs.push(cost);
        self.ops.len() - 1
    }

    fn slot(&mut self, v: Symbol) -> Result<u16, CompileError> {
        if let Some(&s) = self.slots.get(&v) {
            return Ok(s);
        }
        let s = u16::try_from(self.slots.len()).map_err(|_| CompileError::TooManySlots)?;
        self.slots.insert(v, s);
        Ok(s)
    }

    fn int_expr(&mut self, e: &IntExpr) -> Result<(), CompileError> {
        match e {
            IntExpr::Const(c) => {
                self.emit(Op::Const(*c), self.cm.int_const);
            }
            IntExpr::Var(v) => {
                let s = self.slot(*v)?;
                self.emit(Op::Load(s), self.cm.var);
            }
            IntExpr::Call(f, args) => {
                for a in args {
                    self.int_expr(a)?;
                }
                let argc = u8::try_from(args.len()).expect("arity fits u8");
                let cost = (self.fn_cost)(*f);
                self.emit(Op::Call { f: *f, argc }, cost);
            }
            IntExpr::Bin(op, a, b) => {
                self.int_expr(a)?;
                self.int_expr(b)?;
                let o = match op {
                    IntOp::Add => RBin::Add,
                    IntOp::Sub => RBin::Sub,
                    IntOp::Mul => RBin::Mul,
                };
                self.emit(Op::Bin(o), self.cm.arith);
            }
        }
        Ok(())
    }

    fn bool_expr(&mut self, e: &BoolExpr) -> Result<(), CompileError> {
        match e {
            BoolExpr::Const(b) => {
                self.emit(Op::Const(i64::from(*b)), self.cm.bool_const);
            }
            BoolExpr::Cmp(op, a, b) => {
                self.int_expr(a)?;
                self.int_expr(b)?;
                let o = match op {
                    CmpOp::Lt => RBin::Lt,
                    CmpOp::Le => RBin::Le,
                    CmpOp::Eq => RBin::EqI,
                };
                self.emit(Op::Bin(o), self.cm.cmp);
            }
            BoolExpr::Not(a) => {
                self.bool_expr(a)?;
                self.emit(Op::Not, self.cm.not);
            }
            BoolExpr::Bin(op, a, b) => {
                self.bool_expr(a)?;
                self.bool_expr(b)?;
                let o = match op {
                    BoolOp::And => RBin::And,
                    BoolOp::Or => RBin::Or,
                };
                self.emit(Op::Bin(o), self.cm.connective);
            }
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), CompileError> {
        match s {
            Stmt::Skip => {}
            Stmt::Assign(x, e) => {
                self.int_expr(e)?;
                let slot = self.slot(*x)?;
                self.emit(Op::Store(slot), self.cm.assign);
            }
            Stmt::Seq(a, b) => {
                self.stmt(a)?;
                self.stmt(b)?;
            }
            Stmt::If(c, a, b) => {
                self.bool_expr(c)?;
                let jz = self.emit(Op::JumpIfZero(0), self.cm.branch);
                self.stmt(a)?;
                let jend = self.emit(Op::Jump(0), 0);
                let else_target = u32::try_from(self.ops.len()).expect("code fits u32");
                self.ops[jz] = Op::JumpIfZero(else_target);
                self.stmt(b)?;
                let end = u32::try_from(self.ops.len()).expect("code fits u32");
                self.ops[jend] = Op::Jump(end);
            }
            Stmt::While(c, b) => {
                let head = u32::try_from(self.ops.len()).expect("code fits u32");
                self.bool_expr(c)?;
                let jz = self.emit(Op::JumpIfZero(0), self.cm.branch);
                self.stmt(b)?;
                self.emit(Op::Jump(head), 0);
                let end = u32::try_from(self.ops.len()).expect("code fits u32");
                self.ops[jz] = Op::JumpIfZero(end);
            }
            Stmt::Notify(id, v) => {
                let &query = self
                    .query_index
                    .get(id)
                    .ok_or(CompileError::UnknownQueryId(*id))?;
                self.emit(
                    Op::Notify {
                        query,
                        value: *v,
                    },
                    self.cm.notify,
                );
            }
        }
        Ok(())
    }
}

impl Compiled {
    /// Compiles `program`. `query_ids` lists every [`ProgId`] the program may
    /// notify, in the dense order of the run's output buffer (see
    /// [`crate::regcode::RegVm::run`]); `fn_cost` prices external calls
    /// (usually [`crate::env::UdfEnv::fn_cost`]).
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] for unknown notify targets or slot overflow.
    pub fn compile(
        program: &Program,
        query_ids: &[ProgId],
        cm: &CostModel,
        fn_cost: &dyn Fn(Symbol) -> Cost,
    ) -> Result<Compiled, CompileError> {
        let query_index: HashMap<ProgId, u16> = query_ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, u16::try_from(i).expect("query count fits u16")))
            .collect();
        let mut c = Compiler {
            ops: Vec::new(),
            costs: Vec::new(),
            slots: HashMap::new(),
            cm,
            fn_cost,
            query_index: &query_index,
        };
        // Parameters occupy the first slots in declaration order.
        for &p in &program.params {
            c.slot(p)?;
        }
        let n_params = u16::try_from(program.params.len()).map_err(|_| CompileError::TooManySlots)?;
        c.stmt(&program.body)?;
        c.emit(Op::Halt, 0);
        let n_slots = u16::try_from(c.slots.len()).map_err(|_| CompileError::TooManySlots)?;
        Ok(Compiled {
            ops: c.ops,
            costs: c.costs,
            n_slots,
            n_params,
            n_queries: query_ids.len(),
        })
    }
}

/// VM runtime errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// Two notifications for the same query in one run.
    DuplicateNotify(u16),
    /// External call failed.
    Lib(LibError),
    /// Step budget exhausted (divergent loop guard).
    OutOfFuel,
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::DuplicateNotify(q) => write!(f, "duplicate notification for query {q}"),
            VmError::Lib(e) => write!(f, "library error: {e}"),
            VmError::OutOfFuel => write!(f, "VM exceeded its step budget"),
        }
    }
}

impl std::error::Error for VmError {}

impl VmError {
    /// Whether the error is expected to clear on its own, making a retry of
    /// the same record worthwhile. Today exactly [`LibError::Transient`];
    /// every other error is deterministic, so retrying would only repeat it.
    pub fn is_transient(&self) -> bool {
        matches!(self, VmError::Lib(LibError::Transient(_)))
    }
}

impl From<LibError> for VmError {
    fn from(e: LibError) -> VmError {
        VmError::Lib(e)
    }
}

/// No broadcast recorded for a query in the output buffer.
pub const NOTIFY_NONE: i8 = -1;

/// Default per-record step budget (see [`crate::regcode::RegVm::with_fuel`]).
pub const DEFAULT_FUEL: u64 = 100_000_000;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{RecordLibrary, ScalarEnv, UdfEnv};
    use crate::regcode::{RegProgram, RegVm};
    use udf_lang::intern::Interner;
    use udf_lang::interp::{EvalError, Interp};
    use udf_lang::parse::parse_program;
    use udf_lang::FnLibrary;

    fn scalar_env(interner: &mut Interner) -> ScalarEnv {
        let f = interner.intern("f");
        let mut lib = FnLibrary::new();
        lib.register(f, "f", 1, 10, |a| a[0] * 2 + 1);
        ScalarEnv::new(2, lib)
    }

    /// Runs `src` on the register VM and on the reference interpreter, both
    /// at `fuel`, asserting they agree on the notifications and the *exact*
    /// abstract cost, or else on the error class.
    fn run_both(src: &str, rec: Vec<i64>, fuel: u64) -> Result<Vec<i8>, VmError> {
        let mut i = Interner::new();
        let env = scalar_env(&mut i);
        let p = parse_program(src, &mut i).unwrap();
        let ids: Vec<ProgId> = udf_lang::analysis::notify_ids(&p.body).into_iter().collect();
        let cm = CostModel::default();
        let prog = RegProgram::compile(&p, &ids, &cm, &|f| env.fn_cost(f)).unwrap();
        let mut out = vec![NOTIFY_NONE; ids.len()];
        let vm = RegVm::new().with_fuel(fuel).run(&prog, &env, &rec, &mut out, true);
        let lib = RecordLibrary::new(&env, &rec);
        let reference = Interp::new(cm, &lib).with_fuel(fuel).run(&p, &rec, &i);
        match (vm, reference) {
            (Ok(cost), Ok(r)) => {
                assert_eq!(cost, r.cost, "abstract cost");
                for (k, &id) in ids.iter().enumerate() {
                    let expected = r.notifications.get(id).map(i8::from).unwrap_or(NOTIFY_NONE);
                    assert_eq!(out[k], expected, "query {id}");
                }
                Ok(out)
            }
            (Err(e), Err(r)) => {
                let same_class = matches!(
                    (&e, &r),
                    (VmError::DuplicateNotify(_), EvalError::DuplicateNotify(_))
                        | (VmError::OutOfFuel, EvalError::OutOfFuel)
                        | (VmError::Lib(_), EvalError::Lib(_))
                );
                assert!(same_class, "error class: vm {e:?} vs interp {r:?}");
                Err(e)
            }
            (vm, reference) => panic!("divergence: vm {vm:?} vs interp {reference:?}"),
        }
    }

    #[test]
    fn straight_line_matches_interpreter() {
        run_both(
            "program p @0 (a, b) { x := a * 2 + b; if (x > 4) { notify true; } else { notify false; } }",
            vec![3, 1],
            DEFAULT_FUEL,
        )
        .unwrap();
    }

    #[test]
    fn call_and_loop_match_interpreter() {
        run_both(
            "program p @0 (a, b) {
                 acc := 0; k := a;
                 while (k > 0) { acc := acc + f(k); k := k - 1; }
                 if (acc >= b) { notify true; } else { notify false; }
             }",
            vec![5, 20],
            DEFAULT_FUEL,
        )
        .unwrap();
    }

    #[test]
    fn strict_connectives_match_interpreter() {
        run_both(
            "program p @0 (a, b) {
                 if (a < b && !(a == 0) || b <= 3) { notify true; } else { notify false; }
             }",
            vec![2, 7],
            DEFAULT_FUEL,
        )
        .unwrap();
    }

    #[test]
    fn multi_query_notifications() {
        let out = run_both(
            "program p @0 (a, b) {
                 if (a > 0) { notify @3 true; } else { notify @3 false; }
                 if (b > 0) { notify @5 true; } else { notify @5 false; }
             }",
            vec![1, -1],
            DEFAULT_FUEL,
        );
        assert_eq!(out, Ok(vec![1, 0])); // ids sorted: 3 then 5
    }

    #[test]
    fn duplicate_notify_is_error() {
        assert_eq!(
            run_both(
                "program p @0 (a, b) { notify @1 true; notify @1 false; }",
                vec![0, 0],
                DEFAULT_FUEL,
            ),
            Err(VmError::DuplicateNotify(0))
        );
    }

    #[test]
    fn unknown_query_id_is_compile_error() {
        let mut i = Interner::new();
        let env = scalar_env(&mut i);
        let p = parse_program("program p @0 (a, b) { notify @9 true; }", &mut i).unwrap();
        let cm = CostModel::default();
        assert_eq!(
            Compiled::compile(&p, &[ProgId(1)], &cm, &|f| env.fn_cost(f)).unwrap_err(),
            CompileError::UnknownQueryId(ProgId(9))
        );
    }

    #[test]
    fn divergent_loop_hits_fuel() {
        assert_eq!(
            run_both("program p @0 (a, b) { while (0 < 1) { skip; } }", vec![0, 0], 1_000),
            Err(VmError::OutOfFuel)
        );
    }
}

//! The compiler: one pass from a UDF program's AST to the register bytecode
//! of [`crate::regcode`], the form both backends run.
//!
//! The reference interpreter in `udf-lang` walks the AST and allocates
//! environments per run; at dataflow rates (hundreds of thousands of records
//! × dozens of queries) that dominates everything. Following the lineage the
//! paper cites (Steno compiles LINQ operators to imperative code), a program
//! is compiled once per plan by [`RegProgram::compile`]: the variables are
//! counted (expression temporaries are numbered above them), then one
//! recursive walk emits three-address instructions, numbering variables as
//! evaluation meets them, folding constants and propagating variable reads
//! into operand positions as it goes, opening a basic block after every
//! branch and at every landing point, and back-patching jumps in place.
//!
//! Cost accounting mirrors Figure 2 exactly: every AST node carries the
//! abstract cost the interpreter charges for it, and the walk charges each
//! node's cost and fuel step to exactly one instruction (see the exactness
//! contract in [`crate::regcode`]), so a run returns the same cost the
//! reference interpreter would compute (validated by differential tests).

use crate::regcode::{apply_bin, Block, RArg, RBin, RInstr, ROp, RegProgram};
use std::collections::HashMap;
use std::fmt;
use udf_lang::analysis::{assigned_vars, read_vars};
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
    /// Variables plus expression temporaries exceed the 65535-register file.
    TooManyRegisters,
    /// A call passes more than 255 arguments (the count it passes).
    TooManyArguments(usize),
    /// The query list holds more than 65536 ids (the count it holds).
    TooManyQueries(usize),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnknownQueryId(id) => {
                write!(f, "notify target {id} is not a registered query id")
            }
            CompileError::TooManySlots => write!(f, "program exceeds 65535 variable slots"),
            CompileError::TooManyRegisters => {
                write!(f, "variables and temporaries exceed 65535 registers")
            }
            CompileError::TooManyArguments(n) => {
                write!(f, "call with {n} arguments exceeds the 255-argument limit")
            }
            CompileError::TooManyQueries(n) => {
                write!(f, "query list of {n} ids exceeds the 65536-query limit")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// A pending operand: a value the expression walk has produced and no
/// instruction has consumed yet. `cost`/`steps` are the accounting of the
/// AST nodes behind it that no instruction has been charged for yet.
#[derive(Clone, Copy)]
struct AVal {
    v: Av,
    cost: Cost,
    steps: u32,
}

#[derive(Clone, Copy)]
enum Av {
    Const(i64),
    Reg(u16),
}

/// The store peephole: makes the value-producing instruction that writes
/// `from` write `to` instead. False, and nothing changed, for any other
/// instruction. A call matches too (call-into-slot): the interpreter ticks
/// an assignment *before* it evaluates the right-hand side, so charging the
/// store's step to the call's instruction keeps the call the last node
/// charged there.
fn retarget(op: &mut ROp, from: u16, to: u16) -> bool {
    match op {
        ROp::Const { dst, .. }
        | ROp::Move { dst, .. }
        | ROp::Bin { dst, .. }
        | ROp::BinK { dst, .. }
        | ROp::Not { dst, .. }
        | ROp::Call { dst, .. }
            if *dst == from =>
        {
            *dst = to;
            true
        }
        _ => false,
    }
}

struct Compiler<'a> {
    code: Vec<RInstr>,
    arg_pool: Vec<RArg>,
    /// Operands of the expression being compiled, outermost first. Explicit
    /// rather than returned from the recursion because a call must reach
    /// *every* operand below its arguments (see [`Compiler::call`]), and
    /// because a temporary's number is its depth here.
    pending: Vec<AVal>,
    /// Variable slots: parameters in declaration order, then locals in the
    /// order evaluation first meets them (`x := e` reads `e` before it
    /// writes `x`).
    slots: HashMap<Symbol, u16>,
    /// How many slots there will be: temporaries are numbered from here up,
    /// so the variables are counted before the walk numbers them.
    n_slots: u16,
    n_regs: u16,
    /// Slots holding a known constant at this point of the current block.
    slot_const: Vec<Option<i64>>,
    /// Start pc of every basic block opened so far, ascending.
    block_starts: Vec<u32>,
    cm: &'a CostModel,
    fn_cost: &'a dyn Fn(Symbol) -> Cost,
    query_index: &'a HashMap<ProgId, u16>,
}

impl Compiler<'_> {
    fn pc(&self) -> u32 {
        u32::try_from(self.code.len())
            .expect("code addressable by u32: an AST that large does not fit in memory")
    }

    fn emit(&mut self, op: ROp, cost: Cost, steps: u32) -> usize {
        self.code.push(RInstr { op, cost, steps });
        self.code.len() - 1
    }

    /// Starts a basic block at the current pc: nothing known about a slot
    /// carries over a jump target.
    fn open_block(&mut self) -> u32 {
        debug_assert!(self.pending.is_empty(), "operands pending at a block start");
        let pc = self.pc();
        if self.block_starts.last() != Some(&pc) {
            self.block_starts.push(pc);
        }
        self.slot_const.fill(None);
        pc
    }

    fn patch_jump(&mut self, at: usize, to: u32) {
        if let ROp::Jump { target }
        | ROp::JumpIfZero { target, .. }
        | ROp::JumpUnlessBin { target, .. }
        | ROp::JumpUnlessBinK { target, .. } = &mut self.code[at].op
        {
            *target = to;
        }
    }

    fn slot(&mut self, v: Symbol) -> u16 {
        let next = u16::try_from(self.slots.len()).expect("no more variables than were counted");
        *self.slots.entry(v).or_insert(next)
    }

    fn push(&mut self, v: Av, cost: Cost, steps: u32) {
        self.pending.push(AVal { v, cost, steps });
    }

    fn pop(&mut self) -> AVal {
        self.pending
            .pop()
            .expect("every expression pushes the operand its parent pops")
    }

    /// The temporary above the pending operands.
    fn temp(&mut self) -> Result<u16, CompileError> {
        let n = u16::try_from(self.n_slots as usize + self.pending.len() + 1)
            .map_err(|_| CompileError::TooManyRegisters)?;
        self.n_regs = self.n_regs.max(n);
        Ok(n - 1)
    }

    /// Emits a value-producing instruction into a fresh temporary; the
    /// result becomes a pending operand with nothing left to charge.
    fn produce(
        &mut self,
        op: impl FnOnce(u16) -> ROp,
        cost: Cost,
        steps: u32,
    ) -> Result<(), CompileError> {
        let dst = self.temp()?;
        self.emit(op(dst), cost, steps);
        self.push(Av::Reg(dst), 0, 0);
        Ok(())
    }

    fn bin(&mut self, op: RBin, node_cost: Cost) -> Result<(), CompileError> {
        let b = self.pop();
        let a = self.pop();
        let cost = a.cost + b.cost + node_cost;
        let steps = a.steps + b.steps + 1;
        let (r, k, reg_on_left) = match (a.v, b.v) {
            (Av::Const(x), Av::Const(y)) => {
                self.push(Av::Const(apply_bin(op, x, y)), cost, steps);
                return Ok(());
            }
            (Av::Reg(a), Av::Reg(b)) => {
                return self.produce(|dst| ROp::Bin { op, dst, a, b }, cost, steps);
            }
            (Av::Reg(r), Av::Const(k)) => (r, k, true),
            (Av::Const(k), Av::Reg(r)) => (r, k, false),
        };
        let bin_k = |dst| ROp::BinK {
            op,
            dst,
            r,
            k,
            reg_on_left,
        };
        self.produce(bin_k, cost, steps)
    }

    fn not(&mut self) -> Result<(), CompileError> {
        let a = self.pop();
        let cost = a.cost + self.cm.not;
        let steps = a.steps + 1;
        match a.v {
            Av::Const(x) => {
                self.push(Av::Const(i64::from(x == 0)), cost, steps);
                Ok(())
            }
            Av::Reg(src) => self.produce(|dst| ROp::Not { dst, src }, cost, steps),
        }
    }

    /// Calls `f` on the top `argc` pending operands. Everything still
    /// uncharged below the arguments is swept into the call's instruction
    /// too: those nodes were all evaluated before the call, so "fuel spent
    /// when the call runs" stays equal to the nodes evaluated before it.
    fn call(&mut self, f: Symbol, argc: usize) -> Result<(), CompileError> {
        let at = self.pending.len() - argc;
        let argc = u8::try_from(argc).map_err(|_| CompileError::TooManyArguments(argc))?;
        let mut cost = (self.fn_cost)(f);
        let mut steps = 1u32;
        for v in &mut self.pending[..at] {
            cost += std::mem::take(&mut v.cost);
            steps += std::mem::take(&mut v.steps);
        }
        let args_at = u32::try_from(self.arg_pool.len())
            .expect("argument pool addressable by u32: an AST that large does not fit in memory");
        for v in self.pending.drain(at..) {
            cost += v.cost;
            steps += v.steps;
            self.arg_pool.push(match v.v {
                Av::Const(k) => RArg::Const(k),
                Av::Reg(r) => RArg::Reg(r),
            });
        }
        let call = |dst| ROp::Call {
            dst,
            f,
            args_at,
            argc,
        };
        self.produce(call, cost, steps)
    }

    /// `slot ← ` the pending operand.
    fn store(&mut self, slot: u16) {
        let top = self.pop();
        let cost = top.cost + self.cm.assign;
        let steps = top.steps + 1;
        match top.v {
            Av::Const(v) => {
                self.emit(ROp::Const { dst: slot, v }, cost, steps);
                self.slot_const[slot as usize] = Some(v);
            }
            Av::Reg(src) => {
                // Peephole: a temporary on top was written by the instruction
                // just emitted (in this block: no expression spans a block
                // boundary) — retarget it.
                let folded = src >= self.n_slots
                    && self.code.last_mut().is_some_and(|last| {
                        let hit = retarget(&mut last.op, src, slot);
                        if hit {
                            last.cost += cost;
                            last.steps += steps;
                        }
                        hit
                    });
                if !folded {
                    self.emit(ROp::Move { dst: slot, src }, cost, steps);
                }
                self.slot_const[slot as usize] = None;
            }
        }
    }

    /// Branches on the pending condition, returning the jump to patch.
    ///
    /// Compare-and-branch: a condition computed by the instruction just
    /// emitted — a comparison or connective into a temporary that nothing
    /// but this branch reads — becomes one [`ROp::JumpUnlessBin`] /
    /// [`ROp::JumpUnlessBinK`] carrying both nodes' accounting; neither is
    /// stateful. A constant condition is materialised rather than the branch
    /// folded away: the branch test is a step, and divergent loops must
    /// consume fuel at the same rate.
    fn branch(&mut self) -> Result<usize, CompileError> {
        let cond = self.pop();
        let (src, cost, steps) = match cond.v {
            Av::Reg(r) => (r, cond.cost + self.cm.branch, cond.steps + 1),
            Av::Const(v) => {
                let dst = self.temp()?;
                self.emit(ROp::Const { dst, v }, cond.cost, cond.steps);
                (dst, self.cm.branch, 1)
            }
        };
        if let Some(last) = self.code.last_mut().filter(|_| src >= self.n_slots) {
            let fused = match last.op {
                ROp::Bin { op, dst, a, b } if dst == src => Some(ROp::JumpUnlessBin {
                    op,
                    a,
                    b,
                    target: 0,
                }),
                ROp::BinK {
                    op,
                    dst,
                    r,
                    k,
                    reg_on_left,
                } if dst == src => if reg_on_left { Some(op) } else { op.swapped() }.map(|op| {
                    ROp::JumpUnlessBinK {
                        op,
                        r,
                        k,
                        target: 0,
                    }
                }),
                _ => None,
            };
            if let Some(op) = fused {
                last.op = op;
                last.cost += cost;
                last.steps += steps;
                return Ok(self.code.len() - 1);
            }
        }
        Ok(self.emit(ROp::JumpIfZero { src, target: 0 }, cost, steps))
    }

    fn int_expr(&mut self, e: &IntExpr) -> Result<(), CompileError> {
        match e {
            IntExpr::Const(c) => self.push(Av::Const(*c), self.cm.int_const, 1),
            IntExpr::Var(v) => {
                let slot = self.slot(*v);
                let v = match self.slot_const[slot as usize] {
                    Some(k) => Av::Const(k),
                    None => Av::Reg(slot),
                };
                self.push(v, self.cm.var, 1);
            }
            IntExpr::Call(f, args) => {
                for a in args {
                    self.int_expr(a)?;
                }
                self.call(*f, args.len())?;
            }
            IntExpr::Bin(op, a, b) => {
                self.int_expr(a)?;
                self.int_expr(b)?;
                let o = match op {
                    IntOp::Add => RBin::Add,
                    IntOp::Sub => RBin::Sub,
                    IntOp::Mul => RBin::Mul,
                };
                self.bin(o, self.cm.arith)?;
            }
        }
        Ok(())
    }

    fn bool_expr(&mut self, e: &BoolExpr) -> Result<(), CompileError> {
        match e {
            BoolExpr::Const(b) => self.push(Av::Const(i64::from(*b)), self.cm.bool_const, 1),
            BoolExpr::Cmp(op, a, b) => {
                self.int_expr(a)?;
                self.int_expr(b)?;
                let o = match op {
                    CmpOp::Lt => RBin::Lt,
                    CmpOp::Le => RBin::Le,
                    CmpOp::Eq => RBin::EqI,
                };
                self.bin(o, self.cm.cmp)?;
            }
            BoolExpr::Not(a) => {
                self.bool_expr(a)?;
                self.not()?;
            }
            BoolExpr::Bin(op, a, b) => {
                self.bool_expr(a)?;
                self.bool_expr(b)?;
                let o = match op {
                    BoolOp::And => RBin::And,
                    BoolOp::Or => RBin::Or,
                };
                self.bin(o, self.cm.connective)?;
            }
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), CompileError> {
        match s {
            Stmt::Skip => {}
            Stmt::Assign(x, e) => {
                self.int_expr(e)?;
                let slot = self.slot(*x);
                self.store(slot);
            }
            Stmt::Seq(a, b) => {
                self.stmt(a)?;
                self.stmt(b)?;
            }
            Stmt::If(c, a, b) => {
                self.bool_expr(c)?;
                let to_else = self.branch()?;
                self.open_block();
                self.stmt(a)?;
                let to_end = self.emit(ROp::Jump { target: 0 }, 0, 1);
                let else_pc = self.open_block();
                self.patch_jump(to_else, else_pc);
                self.stmt(b)?;
                let end_pc = self.open_block();
                self.patch_jump(to_end, end_pc);
            }
            Stmt::While(c, b) => {
                let head = self.open_block();
                self.bool_expr(c)?;
                let to_end = self.branch()?;
                self.open_block();
                self.stmt(b)?;
                self.emit(ROp::Jump { target: head }, 0, 1);
                let end_pc = self.open_block();
                self.patch_jump(to_end, end_pc);
            }
            Stmt::Notify(id, v) => {
                let &query = self
                    .query_index
                    .get(id)
                    .ok_or(CompileError::UnknownQueryId(*id))?;
                self.emit(ROp::Notify { query, value: *v }, self.cm.notify, 1);
            }
        }
        Ok(())
    }

    /// The basic blocks between the recorded starts, with their accounting.
    fn blocks(&self) -> Vec<Block> {
        let ends = self.block_starts[1..].iter().copied().chain([self.pc()]);
        self.block_starts
            .iter()
            .zip(ends)
            .map(|(&start, end)| {
                let range = &self.code[start as usize..end as usize];
                Block {
                    start,
                    end,
                    steps: range.iter().map(|i| u64::from(i.steps)).sum(),
                    cost: range.iter().map(|i| i.cost).sum(),
                    pure: range
                        .iter()
                        .all(|i| !matches!(i.op, ROp::Call { .. } | ROp::Notify { .. })),
                }
            })
            .collect()
    }
}

impl RegProgram {
    /// Compiles `program` to register bytecode. `query_ids` lists every
    /// [`ProgId`] the program may notify, in the dense order of the run's
    /// output buffer (see [`crate::regcode::RegVm::run`]); `fn_cost` prices
    /// external calls (usually [`crate::env::UdfEnv::fn_cost`]).
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] for an unknown notify target and for a
    /// program past one of the bytecode's field widths: variable slots,
    /// registers, call arguments, query ids.
    pub fn compile(
        program: &Program,
        query_ids: &[ProgId],
        cm: &CostModel,
        fn_cost: &dyn Fn(Symbol) -> Cost,
    ) -> Result<RegProgram, CompileError> {
        if query_ids.len() > usize::from(u16::MAX) + 1 {
            return Err(CompileError::TooManyQueries(query_ids.len()));
        }
        let query_index: HashMap<ProgId, u16> =
            query_ids.iter().copied().zip(0..=u16::MAX).collect();
        let n_params =
            u16::try_from(program.params.len()).map_err(|_| CompileError::TooManySlots)?;
        let mut vars = read_vars(&program.body);
        vars.extend(assigned_vars(&program.body));
        vars.extend(&program.params);
        let n_slots = u16::try_from(vars.len()).map_err(|_| CompileError::TooManySlots)?;
        let mut c = Compiler {
            code: Vec::new(),
            arg_pool: Vec::new(),
            pending: Vec::new(),
            slots: HashMap::with_capacity(vars.len()),
            n_slots,
            n_regs: n_slots,
            slot_const: vec![None; n_slots as usize],
            block_starts: Vec::new(),
            cm,
            fn_cost,
            query_index: &query_index,
        };
        c.open_block();
        for &p in &program.params {
            c.slot(p);
        }
        c.stmt(&program.body)?;
        c.emit(ROp::Halt, 0, 1);
        Ok(RegProgram {
            blocks: c.blocks(),
            code: c.code,
            arg_pool: c.arg_pool,
            n_regs: c.n_regs,
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
    pub(crate) fn is_transient(&self) -> bool {
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
    use crate::regcode::RegVm;
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
        let ids: Vec<ProgId> = udf_lang::analysis::notify_ids(&p.body)
            .into_iter()
            .collect();
        let cm = CostModel::default();
        let prog = RegProgram::compile(&p, &ids, &cm, &|f| env.fn_cost(f)).unwrap();
        let mut out = vec![NOTIFY_NONE; ids.len()];
        let vm = RegVm::new()
            .with_fuel(fuel)
            .run(&prog, &env, &rec, &mut out, true);
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
            RegProgram::compile(&p, &[ProgId(1)], &cm, &|f| env.fn_cost(f)).unwrap_err(),
            CompileError::UnknownQueryId(ProgId(9))
        );
    }

    /// A call with 300 arguments parses; it must be refused, not abort the
    /// thread that compiles it (the service compiles tenants' programs).
    #[test]
    fn oversized_call_is_compile_error() {
        let mut i = Interner::new();
        let env = scalar_env(&mut i);
        let src = format!(
            "program p @0 (a, b) {{ x := f({}); }}",
            vec!["a"; 300].join(", ")
        );
        let p = parse_program(&src, &mut i).unwrap();
        let cm = CostModel::default();
        assert_eq!(
            RegProgram::compile(&p, &[ProgId(0)], &cm, &|f| env.fn_cost(f)).unwrap_err(),
            CompileError::TooManyArguments(300)
        );
    }

    #[test]
    fn oversized_query_list_is_compile_error() {
        let mut i = Interner::new();
        let env = scalar_env(&mut i);
        let p = parse_program("program p @0 (a, b) { notify true; }", &mut i).unwrap();
        let cm = CostModel::default();
        let ids: Vec<ProgId> = (0..=65_536).map(ProgId).collect();
        assert_eq!(
            RegProgram::compile(&p, &ids, &cm, &|f| env.fn_cost(f)).unwrap_err(),
            CompileError::TooManyQueries(65_537)
        );
        let reg = RegProgram::compile(&p, &ids[..65_536], &cm, &|f| env.fn_cost(f)).unwrap();
        assert_eq!(reg.n_queries, 65_536);
    }

    /// Slots are bounded on their own; temporaries sit above them and must
    /// be bounded too. `p0 + (p0 + (… + p0 * p0))` holds one operand pending
    /// per level, so its innermost temporary is `n_slots + depth`.
    #[test]
    fn register_file_overflow_is_compile_error() {
        let mut i = Interner::new();
        let env = scalar_env(&mut i);
        let params: Vec<Symbol> = (0..65_530).map(|k| i.intern(&format!("p{k}"))).collect();
        let p0 = || IntExpr::Var(params[0]);
        let nested = |depth: usize| {
            (0..depth).fold(IntExpr::mul(p0(), p0()), |inner, _| {
                IntExpr::add(p0(), inner)
            })
        };
        let cm = CostModel::default();
        let compile = |depth| {
            let body = Stmt::Assign(params[1], nested(depth));
            let p = Program::new(ProgId(0), params.clone(), body);
            RegProgram::compile(&p, &[], &cm, &|f| env.fn_cost(f)).map(|reg| reg.n_regs)
        };
        assert_eq!(
            compile(4),
            Ok(65_535),
            "registers 0..=65534 are addressable"
        );
        assert_eq!(compile(5), Err(CompileError::TooManyRegisters));
    }

    #[test]
    fn slot_overflow_is_compile_error() {
        let mut i = Interner::new();
        let env = scalar_env(&mut i);
        let params: Vec<Symbol> = (0..65_535).map(|k| i.intern(&format!("p{k}"))).collect();
        let cm = CostModel::default();
        let compile = |local: Symbol| {
            let p = Program::new(
                ProgId(0),
                params.clone(),
                Stmt::Assign(local, IntExpr::Const(1)),
            );
            RegProgram::compile(&p, &[], &cm, &|f| env.fn_cost(f)).map(|reg| reg.n_slots)
        };
        assert_eq!(compile(params[7]), Ok(65_535));
        assert_eq!(
            compile(i.intern("one_more")),
            Err(CompileError::TooManySlots)
        );
    }

    #[test]
    fn divergent_loop_hits_fuel() {
        assert_eq!(
            run_both(
                "program p @0 (a, b) { while (0 < 1) { skip; } }",
                vec![0, 0],
                1_000
            ),
            Err(VmError::OutOfFuel)
        );
    }
}

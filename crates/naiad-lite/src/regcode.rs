//! Register bytecode: the one executable form of a UDF program.
//!
//! A tree walk pays a dispatch per syntax node. Following the Froid
//! direction (compile the imperative UDF wholesale into one analyzable form
//! that every consumer reads), [`RegProgram::compile`] (in
//! [`crate::compile`]) turns a program once per plan into three-address
//! **register bytecode** over a fixed slot file: variables are numbered
//! slots, operands are named registers, constants fold, and variable reads
//! propagate into operand positions (copy propagation), so the per-record
//! work drops to one dispatch per *expression* instead of one per *node*.
//! Programs are arena-backed — one instruction vector plus one shared
//! argument pool — and evaluation allocates nothing per record. Both
//! backends execute this form: [`RegVm`] a record at a time,
//! [`crate::batch::BatchVm`] a batch at a time. Aggregation folds and
//! merges ([`crate::agg`]) run on [`RegVm`] too.
//!
//! # Instruction set
//!
//! | op | effect | stateful |
//! |----|--------|----------|
//! | [`ROp::Const`], [`ROp::Move`] | `dst ← k`, `dst ← src` | no |
//! | [`ROp::Bin`], [`ROp::BinK`], [`ROp::Not`] | `dst ← a ⊙ b`, `r ⊙ k` / `k ⊙ r`, `¬src` | no |
//! | [`ROp::Call`] | `dst ← f(args)`; `dst` is the assigned variable's slot for `x := f(..)` | yes |
//! | [`ROp::Notify`] | record a query's broadcast | yes |
//! | [`ROp::JumpIfZero`] | jump when `src` is 0 | no |
//! | [`ROp::JumpUnlessBin`], [`ROp::JumpUnlessBinK`] | jump when `a ⊙ b` / `r ⊙ k` is 0 | no |
//! | [`ROp::Jump`], [`ROp::Halt`] | jump, stop | no |
//!
//! Two of them are superinstructions the compiler forms where a pair would
//! otherwise run back to back:
//!
//! * **compare-and-branch** — a comparison or connective whose only reader
//!   is the branch right after it becomes one `JumpUnlessBin`/`BinK`,
//!   computing its condition without writing a register;
//! * **call-into-slot** — `x := f(..)` is one `Call` writing `x`'s slot,
//!   with no temporary and no `Move` after it.
//!
//! # Exactness
//!
//! The AST interpreter (`udf_lang::interp`) is the reference semantics:
//! notifications and abstract costs must equal it, and the two machines
//! must equal each other on fuel accounting and fault behavior (which
//! external calls ran before a failure). A **fuel step is one AST node
//! evaluated** — a constant, a variable read, a call, an operator, an
//! assignment, a branch test, a notify — plus one for each jump taken at
//! the end of a then-branch or a loop body, and one for halt; that is what
//! [`RInstr::steps`] counts. Folding several nodes into one instruction is
//! made observation-preserving by two invariants:
//!
//! 1. every instruction carries the summed `cost` and the count (`steps`) of
//!    the nodes it absorbs, and both machines charge fuel per *steps*, so a
//!    run fails with [`VmError::OutOfFuel`] at the same budget however the
//!    nodes were grouped;
//! 2. a stateful node ([`ROp::Call`], [`ROp::Notify`]) is always the **last**
//!    node charged to its instruction — when a call executes, the fuel
//!    spent so far equals the nodes evaluated before the call, so a faulting
//!    environment (e.g. [`crate::fault::FaultyEnv`]) observes the identical
//!    call sequence even when fuel runs out mid-expression.
//!
//! Both superinstructions keep them. A compare-and-branch sums the steps
//! and cost of the comparison, its operands and the branch test (1), and
//! holds no stateful node (2). A call-into-slot adds the assignment's step
//! and cost to the call's instruction (1); the interpreter ticks an
//! assignment *before* it evaluates the right-hand side, so the assignment
//! is charged before the call and the call is still the last node charged
//! (2). A call that fails aborts the run before its slot is written.
//!
//! Branches on constant conditions are deliberately *not* folded away: the
//! branch test is a node and costs one step, so the condition is
//! materialized and the jump kept, preserving divergent-loop step counts.

use crate::compile::{VmError, DEFAULT_FUEL, NOTIFY_NONE};
use crate::env::UdfEnv;
use udf_lang::cost::Cost;
use udf_lang::intern::Symbol;

/// Binary operators of the register machine (strict, like Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RBin {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// `a < b` as 0/1.
    Lt,
    /// `a ≤ b` as 0/1.
    Le,
    /// `a = b` as 0/1.
    EqI,
    /// Strict conjunction.
    And,
    /// Strict disjunction.
    Or,
    /// `a > b` as 0/1: `k < r` with its operands swapped, so a fused
    /// branch keeps its register on the left (see `RBin::swapped`).
    Gt,
    /// `a ≥ b` as 0/1: `k ≤ r` with its operands swapped.
    Ge,
}

impl RBin {
    /// The operator `o` with `a o b == b self a`, if there is one: the
    /// comparisons mirror, the commutative operators are their own mirror,
    /// and subtraction has none.
    pub(crate) fn swapped(self) -> Option<RBin> {
        match self {
            RBin::Lt => Some(RBin::Gt),
            RBin::Le => Some(RBin::Ge),
            RBin::Gt => Some(RBin::Lt),
            RBin::Ge => Some(RBin::Le),
            RBin::Add | RBin::Mul | RBin::EqI | RBin::And | RBin::Or => Some(self),
            RBin::Sub => None,
        }
    }
}

/// Applies a binary operator: wrapping arithmetic, 0/1 comparisons and
/// connectives, as in Figure 2.
#[inline]
pub(crate) fn apply_bin(op: RBin, a: i64, b: i64) -> i64 {
    match op {
        RBin::Add => a.wrapping_add(b),
        RBin::Sub => a.wrapping_sub(b),
        RBin::Mul => a.wrapping_mul(b),
        RBin::Lt => i64::from(a < b),
        RBin::Le => i64::from(a <= b),
        RBin::EqI => i64::from(a == b),
        RBin::And => i64::from(a != 0 && b != 0),
        RBin::Or => i64::from(a != 0 || b != 0),
        RBin::Gt => i64::from(a > b),
        RBin::Ge => i64::from(a >= b),
    }
}

/// One argument of an external call, resolved from the shared pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RArg {
    /// Read a register.
    Reg(u16),
    /// A folded constant.
    Const(i64),
}

/// One register instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ROp {
    /// `dst ← v`.
    Const {
        /// Destination register.
        dst: u16,
        /// Constant value.
        v: i64,
    },
    /// `dst ← src`.
    Move {
        /// Destination register.
        dst: u16,
        /// Source register.
        src: u16,
    },
    /// `dst ← a ⊙ b`.
    Bin {
        /// Operator.
        op: RBin,
        /// Destination register.
        dst: u16,
        /// Left operand register.
        a: u16,
        /// Right operand register.
        b: u16,
    },
    /// `dst ← r ⊙ k` (or `k ⊙ r` when `reg_on_left` is false): one operand
    /// folded to a constant.
    BinK {
        /// Operator.
        op: RBin,
        /// Destination register.
        dst: u16,
        /// Register operand.
        r: u16,
        /// Constant operand.
        k: i64,
        /// Whether the register is the left operand.
        reg_on_left: bool,
    },
    /// `dst ← ¬src` (0/1).
    Not {
        /// Destination register.
        dst: u16,
        /// Source register.
        src: u16,
    },
    /// `dst ← f(args)` with `argc` arguments at `args_at` in the pool.
    Call {
        /// Destination register.
        dst: u16,
        /// Function symbol.
        f: Symbol,
        /// Offset into [`RegProgram::arg_pool`].
        args_at: u32,
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
    /// Jump to `target` when `src` is 0.
    JumpIfZero {
        /// Condition register.
        src: u16,
        /// Register-code target (block start).
        target: u32,
    },
    /// Jump to `target` when `a ⊙ b` is 0: a comparison or connective
    /// fused with the branch that is its only reader.
    JumpUnlessBin {
        /// Operator.
        op: RBin,
        /// Left operand register.
        a: u16,
        /// Right operand register.
        b: u16,
        /// Register-code target (block start).
        target: u32,
    },
    /// Jump to `target` when `r ⊙ k` is 0: [`ROp::JumpUnlessBin`] with one
    /// operand folded. The register is always the left operand (a constant
    /// on the left is moved right with `RBin::swapped`), which keeps the
    /// instruction two words wide.
    JumpUnlessBinK {
        /// Operator.
        op: RBin,
        /// Register operand (left).
        r: u16,
        /// Constant operand (right).
        k: i64,
        /// Register-code target (block start).
        target: u32,
    },
    /// Unconditional jump.
    Jump {
        /// Register-code target (block start).
        target: u32,
    },
    /// End of program.
    Halt,
}

/// One instruction plus the accounting of the AST nodes it absorbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RInstr {
    /// The operation.
    pub op: ROp,
    /// Summed abstract cost of the folded nodes.
    pub cost: Cost,
    /// Number of nodes folded in: the fuel this instruction costs. This
    /// count *defines* a fuel step for every machine that runs the program.
    pub steps: u32,
}

/// One basic block: a half-open register-pc range plus batch metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// First instruction (inclusive).
    pub start: u32,
    /// One past the last instruction.
    pub end: u32,
    /// Total steps of the block (fuel cost of running it to the end).
    pub steps: u64,
    /// Total abstract cost of the block.
    pub cost: Cost,
    /// Whether the block is free of stateful ops (calls, notifies); pure
    /// blocks take the vectorized fast path in the batch executor.
    pub pure: bool,
}

/// A compiled program: instructions, shared argument pool, and basic blocks.
#[derive(Debug, Clone)]
pub struct RegProgram {
    /// Instruction stream.
    pub code: Vec<RInstr>,
    /// Arena of call arguments referenced by [`ROp::Call`].
    pub arg_pool: Vec<RArg>,
    /// Basic blocks ordered by start pc; every jump target and fall-through
    /// pc after a terminator is a block start.
    pub blocks: Vec<Block>,
    /// Total registers: variable slots first, then expression temporaries.
    pub n_regs: u16,
    /// Variable slots: parameters first, then locals in the order
    /// evaluation first meets them.
    pub n_slots: u16,
    /// Number of parameters.
    pub n_params: u16,
    /// Number of distinct query ids this program may notify.
    pub n_queries: usize,
}

impl RegProgram {
    /// Total steps of the code, each instruction counted once: the node
    /// count of the program it was compiled from (jumps and halt included),
    /// and so an upper bound on the fuel any loop-free path can spend.
    pub(crate) fn total_steps(&self) -> u64 {
        self.blocks.iter().map(|b| b.steps).sum()
    }
}

/// The scalar machine: a reusable record-at-a-time evaluator for
/// [`RegProgram`]s (register file + scratch argument buffer).
#[derive(Debug, Default)]
pub struct RegVm {
    regs: Vec<i64>,
    args: Vec<i64>,
    fuel: u64,
}

impl RegVm {
    /// Creates a VM with the default step budget.
    pub fn new() -> RegVm {
        RegVm {
            regs: Vec::new(),
            args: Vec::with_capacity(8),
            fuel: DEFAULT_FUEL,
        }
    }

    /// Replaces the per-run step budget.
    #[must_use]
    pub fn with_fuel(mut self, fuel: u64) -> RegVm {
        self.fuel = fuel;
        self
    }

    /// The register file as the last [`RegVm::run`] left it: the program's
    /// variable slots first (parameters, then locals), then temporaries.
    /// After a run that reached `Halt`, slot `i` holds variable `i`'s final
    /// value — every assignment stores into its variable's slot — which is
    /// how an aggregation fold hands back its new state.
    pub(crate) fn registers(&self) -> &[i64] {
        &self.regs
    }

    /// Runs `prog` on one record. `notify_out` must hold `prog.n_queries`
    /// entries and is *not* cleared here (so several programs can
    /// accumulate into one buffer); entries are [`NOTIFY_NONE`], 0, or 1.
    /// Returns the abstract cost when `track_cost`, otherwise 0. Every piece
    /// of machine state is reset on entry, so one machine can serve
    /// unrelated programs back to back.
    ///
    /// # Errors
    ///
    /// Returns [`VmError`] on duplicate notifications, library failures, or
    /// fuel exhaustion.
    pub fn run<E: UdfEnv>(
        &mut self,
        prog: &RegProgram,
        env: &E,
        rec: &E::Rec,
        notify_out: &mut [i8],
        track_cost: bool,
    ) -> Result<Cost, VmError> {
        // The record's fields land straight in the parameter slots.
        self.regs.clear();
        env.args(rec, &mut self.regs);
        self.exec(prog, env, rec, notify_out, track_cost)
    }

    /// [`RegVm::run`] on a record decoded already: `params` is what
    /// [`UdfEnv::args`] writes for `rec`. A caller running several programs
    /// on one record decodes it once and hands every run the same `params`.
    ///
    /// # Errors
    ///
    /// As [`RegVm::run`].
    pub(crate) fn run_decoded<E: UdfEnv>(
        &mut self,
        prog: &RegProgram,
        env: &E,
        rec: &E::Rec,
        params: &[i64],
        notify_out: &mut [i8],
        track_cost: bool,
    ) -> Result<Cost, VmError> {
        self.regs.clear();
        self.regs.extend_from_slice(params);
        self.exec(prog, env, rec, notify_out, track_cost)
    }

    /// Runs `prog` with the parameter slots already in the register file.
    fn exec<E: UdfEnv>(
        &mut self,
        prog: &RegProgram,
        env: &E,
        rec: &E::Rec,
        notify_out: &mut [i8],
        track_cost: bool,
    ) -> Result<Cost, VmError> {
        debug_assert_eq!(notify_out.len(), prog.n_queries);
        debug_assert_eq!(self.regs.len(), prog.n_params as usize);
        self.regs.resize(prog.n_regs as usize, 0);

        let mut pc = 0usize;
        let mut cost: Cost = 0;
        let mut fuel = self.fuel;
        loop {
            let ins = &prog.code[pc];
            if fuel < u64::from(ins.steps) {
                return Err(VmError::OutOfFuel);
            }
            fuel -= u64::from(ins.steps);
            if track_cost {
                cost += ins.cost;
            }
            match ins.op {
                ROp::Const { dst, v } => self.regs[dst as usize] = v,
                ROp::Move { dst, src } => self.regs[dst as usize] = self.regs[src as usize],
                ROp::Bin { op, dst, a, b } => {
                    self.regs[dst as usize] =
                        apply_bin(op, self.regs[a as usize], self.regs[b as usize]);
                }
                ROp::BinK {
                    op,
                    dst,
                    r,
                    k,
                    reg_on_left,
                } => {
                    let rv = self.regs[r as usize];
                    let (x, y) = if reg_on_left { (rv, k) } else { (k, rv) };
                    self.regs[dst as usize] = apply_bin(op, x, y);
                }
                ROp::Not { dst, src } => {
                    self.regs[dst as usize] = i64::from(self.regs[src as usize] == 0);
                }
                ROp::Call {
                    dst,
                    f,
                    args_at,
                    argc,
                } => {
                    self.args.clear();
                    let at = args_at as usize;
                    for a in &prog.arg_pool[at..at + argc as usize] {
                        self.args.push(match *a {
                            RArg::Reg(r) => self.regs[r as usize],
                            RArg::Const(k) => k,
                        });
                    }
                    let v = env.call(rec, f, &self.args)?;
                    self.regs[dst as usize] = v;
                }
                ROp::Notify { query, value } => {
                    let q = query as usize;
                    if notify_out[q] != NOTIFY_NONE {
                        return Err(VmError::DuplicateNotify(query));
                    }
                    notify_out[q] = i8::from(value);
                }
                ROp::JumpIfZero { src, target } => {
                    if self.regs[src as usize] == 0 {
                        pc = target as usize;
                        continue;
                    }
                }
                ROp::JumpUnlessBin { op, a, b, target } => {
                    if apply_bin(op, self.regs[a as usize], self.regs[b as usize]) == 0 {
                        pc = target as usize;
                        continue;
                    }
                }
                ROp::JumpUnlessBinK { op, r, k, target } => {
                    if apply_bin(op, self.regs[r as usize], k) == 0 {
                        pc = target as usize;
                        continue;
                    }
                }
                ROp::Jump { target } => {
                    pc = target as usize;
                    continue;
                }
                ROp::Halt => return Ok(cost),
            }
            pc += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{BatchVm, RecordBatch};
    use crate::env::ScalarEnv;
    use crate::fault::{silence_injected_panics, FaultKind, FaultPlan, FaultyEnv};
    use crate::policy::RecordFault;
    use udf_lang::ast::{BoolExpr, IntExpr, ProgId, Program, Stmt};
    use udf_lang::cost::CostModel;
    use udf_lang::intern::Interner;
    use udf_lang::parse::parse_program;
    use udf_lang::FnLibrary;

    fn scalar_env(interner: &mut Interner) -> ScalarEnv {
        let f = interner.intern("f");
        let mut lib = FnLibrary::new();
        lib.register(f, "f", 1, 10, |a| a[0] * 2 + 1);
        ScalarEnv::new(2, lib)
    }

    fn compile(src: &str) -> (Program, RegProgram, ScalarEnv) {
        let mut i = Interner::new();
        let env = scalar_env(&mut i);
        let p = parse_program(src, &mut i).unwrap();
        let ids: Vec<ProgId> = udf_lang::analysis::notify_ids(&p.body)
            .into_iter()
            .collect();
        let cm = CostModel::default();
        let reg = RegProgram::compile(&p, &ids, &cm, &|f| env.fn_cost(f)).unwrap();
        (p, reg, env)
    }

    /// The step definition of the module docs, stated over the AST and
    /// independently of the compiler: `(steps, cost)` of every node counted
    /// once, one free step per jump closing a then-branch or a loop body,
    /// and one for halt.
    fn ast_accounting(p: &Program, env: &ScalarEnv) -> (u64, Cost) {
        fn int(e: &IntExpr, cm: &CostModel, env: &ScalarEnv) -> (u64, Cost) {
            match e {
                IntExpr::Const(_) => (1, cm.int_const),
                IntExpr::Var(_) => (1, cm.var),
                IntExpr::Call(f, args) => args
                    .iter()
                    .map(|a| int(a, cm, env))
                    .fold((1, env.fn_cost(*f)), |(s, c), (s1, c1)| (s + s1, c + c1)),
                IntExpr::Bin(_, a, b) => {
                    let ((sa, ca), (sb, cb)) = (int(a, cm, env), int(b, cm, env));
                    (sa + sb + 1, ca + cb + cm.arith)
                }
            }
        }
        fn boolean(e: &BoolExpr, cm: &CostModel, env: &ScalarEnv) -> (u64, Cost) {
            match e {
                BoolExpr::Const(_) => (1, cm.bool_const),
                BoolExpr::Cmp(_, a, b) => {
                    let ((sa, ca), (sb, cb)) = (int(a, cm, env), int(b, cm, env));
                    (sa + sb + 1, ca + cb + cm.cmp)
                }
                BoolExpr::Not(a) => {
                    let (s, c) = boolean(a, cm, env);
                    (s + 1, c + cm.not)
                }
                BoolExpr::Bin(_, a, b) => {
                    let ((sa, ca), (sb, cb)) = (boolean(a, cm, env), boolean(b, cm, env));
                    (sa + sb + 1, ca + cb + cm.connective)
                }
            }
        }
        fn stmt(s: &Stmt, cm: &CostModel, env: &ScalarEnv) -> (u64, Cost) {
            match s {
                Stmt::Skip => (0, 0),
                Stmt::Assign(_, e) => {
                    let (s, c) = int(e, cm, env);
                    (s + 1, c + cm.assign)
                }
                Stmt::Seq(a, b) => {
                    let ((sa, ca), (sb, cb)) = (stmt(a, cm, env), stmt(b, cm, env));
                    (sa + sb, ca + cb)
                }
                Stmt::If(c, a, b) => {
                    let (sc, cc) = boolean(c, cm, env);
                    let ((sa, ca), (sb, cb)) = (stmt(a, cm, env), stmt(b, cm, env));
                    // branch test + the jump over the else-branch
                    (sc + 1 + sa + 1 + sb, cc + cm.branch + ca + cb)
                }
                Stmt::While(c, b) => {
                    let (sc, cc) = boolean(c, cm, env);
                    let (sb, cb) = stmt(b, cm, env);
                    // branch test + the jump back to the head
                    (sc + 1 + sb + 1, cc + cm.branch + cb)
                }
                Stmt::Notify(..) => (1, cm.notify),
            }
        }
        let (steps, cost) = stmt(&p.body, &CostModel::default(), env);
        (steps + 1, cost) // halt
    }

    /// One run's observables: the result (cost or error) and, on success,
    /// the notification buffer (a faulted run's partial buffer is never
    /// observed by the engine, and the batch machine may stop earlier
    /// inside a side-effect-free run of instructions).
    type Observed = (Result<Cost, VmError>, Option<Vec<i8>>);

    fn observed(result: Result<Cost, VmError>, notify: &[i8]) -> Observed {
        let notify = result.is_ok().then(|| notify.to_vec());
        (result, notify)
    }

    fn scalar_run<E: UdfEnv>(reg: &RegProgram, env: &E, rec: &E::Rec, fuel: u64) -> Observed {
        let mut out = vec![NOTIFY_NONE; reg.n_queries];
        let r = RegVm::new()
            .with_fuel(fuel)
            .run(reg, env, rec, &mut out, true);
        observed(r, &out)
    }

    /// Runs `recs` as one batch, returning each lane's observables.
    fn batch_run<E: UdfEnv>(
        reg: &RegProgram,
        env: &E,
        recs: &[E::Rec],
        fuel: u64,
    ) -> Vec<Observed> {
        let n_q = reg.n_queries;
        let batch = RecordBatch::gather(env, recs, &mut Vec::new());
        let mut bvm = BatchVm::new(fuel);
        let mut notify = vec![NOTIFY_NONE; recs.len() * n_q];
        bvm.run(&[reg], &batch, env, recs, &mut notify, true);
        (0..recs.len())
            .map(|lane| {
                let r = match bvm.take_fault(lane) {
                    None => Ok(bvm.cost(lane)),
                    Some((_, RecordFault::Vm(e))) => Err(e),
                    Some((_, RecordFault::Panic(m))) => panic!("lane {lane} panicked: {m}"),
                };
                observed(r, &notify[lane * n_q..(lane + 1) * n_q])
            })
            .collect()
    }

    /// The cross-backend lockstep: at `fuel`, the scalar machine and the
    /// batch machine (all of `recs` as one batch) observe the same thing on
    /// every record.
    fn assert_parity(reg: &RegProgram, env: &ScalarEnv, recs: &[Vec<i64>], fuel: u64) {
        let batch = batch_run(reg, env, recs, fuel);
        for (lane, rec) in recs.iter().enumerate() {
            assert_eq!(
                scalar_run(reg, env, rec, fuel),
                batch[lane],
                "fuel {fuel}, lane {lane} of {}, record {rec:?}",
                recs.len()
            );
        }
    }

    /// Parity on `rec` as a one-lane batch and on a full 256-lane batch of
    /// records spread around it, at every fuel 0..400 and [`DEFAULT_FUEL`].
    /// A program that never halts burns the whole budget on every lane, so
    /// `halts = false` keeps the default budget to the one-lane batch.
    fn assert_parity_fuels(src: &str, rec: Vec<i64>, halts: bool) {
        let (_, reg, env) = compile(src);
        let full: Vec<Vec<i64>> = (0..256i64)
            .map(|k| rec.iter().map(|v| v + k % 7 - 3).collect())
            .collect();
        let one = [rec];
        for fuel in 0..400 {
            assert_parity(&reg, &env, &one, fuel);
            assert_parity(&reg, &env, &full, fuel);
        }
        assert_parity(&reg, &env, &one, DEFAULT_FUEL);
        if halts {
            assert_parity(&reg, &env, &full, DEFAULT_FUEL);
        }
    }

    fn assert_parity_all_fuels(src: &str, rec: Vec<i64>) {
        assert_parity_fuels(src, rec, true);
    }

    #[test]
    fn straight_line_parity() {
        assert_parity_all_fuels(
            "program p @0 (a, b) { x := a * 2 + b; if (x > 4) { notify true; } else { notify false; } }",
            vec![3, 1],
        );
    }

    #[test]
    fn call_and_loop_parity() {
        assert_parity_all_fuels(
            "program p @0 (a, b) {
                 acc := 0; k := a;
                 while (k > 0) { acc := acc + f(k); k := k - 1; }
                 if (acc >= b) { notify true; } else { notify false; }
             }",
            vec![5, 20],
        );
    }

    #[test]
    fn strict_connectives_parity() {
        assert_parity_all_fuels(
            "program p @0 (a, b) {
                 if (a < b && !(a == 0) || b <= 3) { notify true; } else { notify false; }
             }",
            vec![2, 7],
        );
        assert_parity_all_fuels(
            "program p @0 (a, b) {
                 if (a < b && !(a == 0) || b <= 3) { notify true; } else { notify false; }
             }",
            vec![0, 0],
        );
    }

    #[test]
    fn constant_folding_shrinks_code_and_matches() {
        let (p, reg, env) = compile(
            "program p @0 (a, b) { x := 2 * 3 + 4; y := x + a; if (y > 10) { notify true; } else { notify false; } }",
        );
        let (ast_steps, _) = ast_accounting(&p, &env);
        assert!(
            (reg.code.len() as u64) < ast_steps,
            "folding should emit fewer than one instruction per step: {} instrs for {ast_steps} steps",
            reg.code.len()
        );
        // `x` is block-locally constant: `y := x + a` must fold the load.
        assert!(
            !reg.code.iter().any(|i| matches!(i.op, ROp::Bin { .. })),
            "x+a should use the folded constant, not two registers: {:?}",
            reg.code
        );
        assert_parity_all_fuels(
            "program p @0 (a, b) { x := 2 * 3 + 4; y := x + a; if (y > 10) { notify true; } else { notify false; } }",
            vec![5, 0],
        );
    }

    #[test]
    fn divergent_loop_parity_hits_fuel_at_same_budget() {
        assert_parity_fuels(
            "program p @0 (a, b) { while (0 < 1) { skip; } }",
            vec![0, 0],
            false,
        );
    }

    #[test]
    fn duplicate_notify_parity() {
        assert_parity_all_fuels(
            "program p @0 (a, b) { notify @1 true; notify @1 false; }",
            vec![0, 0],
        );
    }

    #[test]
    fn multi_query_parity() {
        assert_parity_all_fuels(
            "program p @0 (a, b) {
                 if (a > 0) { notify @3 true; } else { notify @3 false; }
                 if (b > 0) { notify @5 true; } else { notify @5 false; }
             }",
            vec![1, -1],
        );
    }

    #[test]
    fn block_accounting_totals_match_reference() {
        let (p, reg, env) = compile(
            "program p @0 (a, b) {
                 acc := 0; k := a;
                 while (k > 0) { acc := acc + f(k); k := k - 1; }
                 if (acc >= b) { notify true; } else { notify false; }
             }",
        );
        let reg_steps: u64 = reg.code.iter().map(|i| u64::from(i.steps)).sum();
        let (ast_steps, ast_cost) = ast_accounting(&p, &env);
        assert_eq!(
            reg_steps, ast_steps,
            "every node, jump and halt charged once"
        );
        let reg_cost: Cost = reg.code.iter().map(|i| i.cost).sum();
        assert_eq!(reg_cost, ast_cost, "every node's cost charged once");
        assert_eq!(reg.total_steps(), reg_steps, "blocks partition the code");
    }

    /// The critical exactness property: with a *stateful* environment, the
    /// sequence of external calls must be identical at every fuel level —
    /// transient-fault counters advance on one machine only when they
    /// advance on the other.
    #[test]
    fn transient_call_counts_identical_at_every_fuel() {
        silence_injected_panics();
        let src = "program p @0 (a, b) {
            acc := f(a) + f(b);
            if (acc > 10) { notify true; } else { notify false; }
        }";
        for fuel in 0..60 {
            let mut i = Interner::new();
            let f = i.intern("f");
            let mk_env = || {
                let mut lib = FnLibrary::new();
                lib.register(f, "f", 1, 10, |a| a[0] * 2 + 1);
                FaultyEnv::new(
                    ScalarEnv::new(2, lib),
                    f,
                    FaultPlan::single(0, FaultKind::Transient(3)),
                )
            };
            let (s_env, b_env) = (mk_env(), mk_env());
            let p = parse_program(src, &mut i).unwrap();
            let ids: Vec<ProgId> = udf_lang::analysis::notify_ids(&p.body)
                .into_iter()
                .collect();
            let cm = CostModel::default();
            let reg = RegProgram::compile(&p, &ids, &cm, &|f| s_env.fn_cost(f)).unwrap();
            let rec = (0usize, vec![4i64, 9]);
            // Drive each machine to completion at this fuel, repeatedly,
            // comparing the full result sequence — the transient counter is
            // the state.
            for _round in 0..4 {
                let s = scalar_run(&reg, &s_env, &rec, fuel);
                let b = batch_run(&reg, &b_env, std::slice::from_ref(&rec), fuel);
                assert_eq!(s, b[0], "fuel {fuel}: stateful result diverged");
            }
        }
    }

    /// Call-into-slot: `x := f(..)` writes `x`'s slot from the call itself,
    /// with no temporary and no move, and the call's instruction carries the
    /// assignment's step (charged before the call, as the interpreter ticks
    /// it). `x := f(x)` reads its argument before the call overwrites it.
    #[test]
    fn calls_store_into_their_slot() {
        let src = "program p @0 (a, b) { x := f(a); x := f(x); if (x > 0) { notify true; } else { notify false; } }";
        let (_, reg, _) = compile(src);
        assert!(
            !reg.code.iter().any(|i| matches!(i.op, ROp::Move { .. })),
            "{:?}",
            reg.code
        );
        let calls: Vec<&RInstr> = reg
            .code
            .iter()
            .filter(|i| matches!(i.op, ROp::Call { .. }))
            .collect();
        assert_eq!(calls.len(), 2);
        for call in calls {
            let ROp::Call { dst, .. } = call.op else {
                unreachable!()
            };
            assert!(
                dst < reg.n_slots,
                "the call writes a variable slot: {call:?}"
            );
            assert_eq!(call.steps, 3, "argument read, call and assignment");
        }
        assert_parity_all_fuels(src, vec![3, 1]);
        assert_parity_all_fuels(src, vec![-3, 1]);
    }

    /// Compare-and-branch: a comparison or connective whose only reader is
    /// the branch becomes one jump carrying both nodes' steps; a constant on
    /// the left is swapped right. A negation keeps its explicit
    /// `JumpIfZero`.
    #[test]
    fn conditions_fuse_into_their_branch() {
        let (_, reg, _) = compile(
            "program p @0 (a, b) {
                 if (a < b) { notify @1 true; } else { notify @1 false; }
                 if (a > 4) { notify @2 true; } else { notify @2 false; }
                 if (a < 4 && b <= a) { notify @3 true; } else { notify @3 false; }
                 if (!(a == b)) { notify @4 true; } else { notify @4 false; }
             }",
        );
        let jumps: Vec<ROp> = reg
            .code
            .iter()
            .map(|i| i.op)
            .filter(|op| {
                matches!(
                    op,
                    ROp::JumpIfZero { .. } | ROp::JumpUnlessBin { .. } | ROp::JumpUnlessBinK { .. }
                )
            })
            .collect();
        assert!(
            matches!(
                jumps[..],
                [
                    ROp::JumpUnlessBin { op: RBin::Lt, .. },
                    ROp::JumpUnlessBinK {
                        op: RBin::Gt,
                        k: 4,
                        ..
                    },
                    ROp::JumpUnlessBin { op: RBin::And, .. },
                    ROp::JumpIfZero { .. },
                ]
            ),
            "{jumps:?}"
        );
        let fused = reg
            .code
            .iter()
            .find(|i| matches!(i.op, ROp::JumpUnlessBin { op: RBin::Lt, .. }))
            .expect("first branch fused");
        assert_eq!(
            fused.steps, 4,
            "two reads, the comparison and the branch test"
        );
        for rec in [vec![3, 5], vec![5, 3], vec![4, 4], vec![-1, -9]] {
            assert_parity_all_fuels(
                "program p @0 (a, b) {
                     if (a < b) { notify @1 true; } else { notify @1 false; }
                     if (a > 4) { notify @2 true; } else { notify @2 false; }
                     if (a < 4 && b <= a) { notify @3 true; } else { notify @3 false; }
                     if (!(a == b)) { notify @4 true; } else { notify @4 false; }
                 }",
                rec,
            );
        }
    }

    /// The register is always the left operand of a folded branch:
    /// swapping the operator keeps every comparison's value.
    #[test]
    fn swapped_operators_mirror_their_operands() {
        let ops = [
            RBin::Add,
            RBin::Sub,
            RBin::Mul,
            RBin::Lt,
            RBin::Le,
            RBin::EqI,
            RBin::And,
            RBin::Or,
            RBin::Gt,
            RBin::Ge,
        ];
        for op in ops {
            for (a, b) in [(3, 5), (5, 3), (4, 4), (0, -2), (-7, 0), (0, 0)] {
                match op.swapped() {
                    Some(m) => assert_eq!(apply_bin(op, a, b), apply_bin(m, b, a), "{op:?}"),
                    None => assert_eq!(op, RBin::Sub),
                }
            }
        }
    }

    /// Variables in the order the compiler numbers their slots: parameters,
    /// then each variable as the walk first meets it (an assignment reads
    /// its right-hand side before it writes its target).
    fn slot_order(p: &Program) -> Vec<Symbol> {
        fn note(v: Symbol, out: &mut Vec<Symbol>) {
            if !out.contains(&v) {
                out.push(v);
            }
        }
        fn int(e: &IntExpr, out: &mut Vec<Symbol>) {
            match e {
                IntExpr::Const(_) => {}
                IntExpr::Var(v) => note(*v, out),
                IntExpr::Call(_, args) => args.iter().for_each(|a| int(a, out)),
                IntExpr::Bin(_, a, b) => {
                    int(a, out);
                    int(b, out);
                }
            }
        }
        fn boolean(e: &BoolExpr, out: &mut Vec<Symbol>) {
            match e {
                BoolExpr::Const(_) => {}
                BoolExpr::Cmp(_, a, b) => {
                    int(a, out);
                    int(b, out);
                }
                BoolExpr::Not(a) => boolean(a, out),
                BoolExpr::Bin(_, a, b) => {
                    boolean(a, out);
                    boolean(b, out);
                }
            }
        }
        fn stmt(s: &Stmt, out: &mut Vec<Symbol>) {
            match s {
                Stmt::Skip | Stmt::Notify(..) => {}
                Stmt::Assign(x, e) => {
                    int(e, out);
                    note(*x, out);
                }
                Stmt::Seq(a, b) => {
                    stmt(a, out);
                    stmt(b, out);
                }
                Stmt::If(c, a, b) => {
                    boolean(c, out);
                    stmt(a, out);
                    stmt(b, out);
                }
                Stmt::While(c, b) => {
                    boolean(c, out);
                    stmt(b, out);
                }
            }
        }
        let mut out = Vec::new();
        p.params.iter().for_each(|&v| note(v, &mut out));
        stmt(&p.body, &mut out);
        out
    }

    /// What an aggregation fold relies on to read its new state back: after
    /// `Halt`, every variable slot holds the variable's final value in the
    /// reference interpreter — constant stores, folded stores, copies and
    /// stores after calls alike. A variable the run never assigned (its
    /// branch not taken) holds the register file's initial 0.
    #[test]
    fn halted_slots_hold_final_variable_values() {
        let srcs = [
            "program p @0 (a, b) { x := 2 * 3; y := x + a; z := y; y := f(z); w := y - b; }",
            "program p @0 (a, b) {
                 acc := 0; k := a;
                 while (k > 0) { acc := acc + f(k); k := k - 1; }
                 if (acc < b) { m := acc; } else { m := b; n := 1; }
             }",
            "program p @0 (a, b) { s := a; s := s; t := 5; if (t == 5) { t := t * b; } }",
        ];
        for src in srcs {
            let mut i = Interner::new();
            let env = scalar_env(&mut i);
            let p = parse_program(src, &mut i).unwrap();
            let cm = CostModel::default();
            let reg = RegProgram::compile(&p, &[], &cm, &|f| env.fn_cost(f)).unwrap();
            let order = slot_order(&p);
            assert_eq!(order.len(), reg.n_slots as usize, "{src}");
            for rec in [vec![3, 50], vec![4, -2], vec![0, 0], vec![-7, 9]] {
                let mut vm = RegVm::new();
                vm.run(&reg, &env, &rec, &mut [], false).unwrap();
                let view = crate::env::RecordLibrary::new(&env, &rec);
                let reference = udf_lang::interp::Interp::new(cm.clone(), &view)
                    .run(&p, &rec, &i)
                    .unwrap();
                for (slot, v) in order.iter().enumerate() {
                    let expected = reference.env.get(v).copied().unwrap_or(0);
                    assert_eq!(
                        vm.registers()[slot],
                        expected,
                        "{src}: `{}` on {rec:?}",
                        i.resolve(*v)
                    );
                }
            }
        }
    }

    /// The dispatch loop streams `RInstr`s: `JumpUnlessBinK` keeps its
    /// register on the left (no side flag) so no op outgrows 16 bytes.
    #[test]
    fn instructions_stay_compact() {
        assert_eq!(std::mem::size_of::<ROp>(), 16);
        assert_eq!(std::mem::size_of::<RInstr>(), 32);
    }

    #[test]
    fn blocks_are_well_formed() {
        let (_, reg, _) = compile(
            "program p @0 (a, b) {
                 k := a;
                 while (k > 0) { k := k - f(1); }
                 notify true;
             }",
        );
        assert!(!reg.blocks.is_empty());
        for w in reg.blocks.windows(2) {
            assert_eq!(w[0].end, w[1].start, "blocks tile the code");
        }
        assert_eq!(reg.blocks[0].start, 0);
        assert_eq!(
            reg.blocks.last().unwrap().end as usize,
            reg.code.len(),
            "last block ends at code end"
        );
        // Every jump target is a block start.
        for i in &reg.code {
            if let ROp::Jump { target } | ROp::JumpIfZero { target, .. } = i.op {
                assert!(reg.blocks.iter().any(|b| b.start == target));
            }
        }
        // The loop body contains the call: that block must not be pure.
        assert!(reg.blocks.iter().any(|b| !b.pure));
    }
}

//! Register bytecode: the one executable form of a UDF program.
//!
//! A stack machine pays a dispatch + push/pop per syntax node. Following
//! the Froid direction (compile the imperative UDF wholesale into one
//! analyzable form that every consumer reads), this module lowers the
//! linear stack ops of [`crate::compile`] once per plan into three-address
//! **register bytecode** over a fixed slot file: variable slots keep their
//! stack-code indices, operands are named registers instead of stack
//! positions, constants fold, and loads propagate into operand positions
//! (copy propagation), so the per-record work drops to one dispatch per
//! *expression* instead of one per *node*. Programs are arena-backed — one
//! instruction vector plus one shared argument pool — and evaluation
//! allocates nothing per record. Both backends execute this form: [`RegVm`]
//! a record at a time, [`crate::batch::BatchVm`] a batch at a time.
//!
//! # Exactness
//!
//! The AST interpreter (`udf_lang::interp`) is the reference semantics:
//! notifications and abstract costs must equal it, and the two machines
//! must equal each other on fuel accounting and fault behavior (which
//! external calls ran before a failure). A **fuel step is one stack op**,
//! as counted by [`RInstr::steps`]. Folding several stack ops into one
//! register instruction is made observation-preserving by two invariants:
//!
//! 1. every instruction carries the summed `cost` and the count (`steps`) of
//!    the stack ops it absorbs, and both machines charge fuel per *steps*,
//!    so a run fails with [`VmError::OutOfFuel`] at the same budget however
//!    the ops were grouped;
//! 2. a stateful op ([`ROp::Call`], [`ROp::Notify`]) is always the **last**
//!    stack op charged to its instruction — when a call executes, the fuel
//!    spent so far equals the stack ops preceding the call, so a faulting
//!    environment (e.g. [`crate::fault::FaultyEnv`]) observes the identical
//!    call sequence even when fuel runs out mid-expression.
//!
//! Branches on constant conditions are deliberately *not* folded away: the
//! branch dispatch is a stack op and costs one step, so the condition is
//! materialized and the jump kept, preserving divergent-loop step counts.

use crate::compile::{CompileError, Compiled, Op, VmError, DEFAULT_FUEL, NOTIFY_NONE};
use crate::env::UdfEnv;
use udf_lang::ast::{ProgId, Program};
use udf_lang::cost::{Cost, CostModel};
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
}

/// Applies a binary operator: wrapping arithmetic, 0/1 comparisons and
/// connectives, as in Figure 2.
#[inline]
pub fn apply_bin(op: RBin, a: i64, b: i64) -> i64 {
    match op {
        RBin::Add => a.wrapping_add(b),
        RBin::Sub => a.wrapping_sub(b),
        RBin::Mul => a.wrapping_mul(b),
        RBin::Lt => i64::from(a < b),
        RBin::Le => i64::from(a <= b),
        RBin::EqI => i64::from(a == b),
        RBin::And => i64::from(a != 0 && b != 0),
        RBin::Or => i64::from(a != 0 || b != 0),
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
    /// Unconditional jump.
    Jump {
        /// Register-code target (block start).
        target: u32,
    },
    /// End of program.
    Halt,
}

/// One instruction plus the accounting of the stack ops it absorbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RInstr {
    /// The operation.
    pub op: ROp,
    /// Summed abstract cost of the folded stack ops.
    pub cost: Cost,
    /// Number of stack ops folded in: the fuel this instruction costs. This
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

/// A lowered program: instructions, shared argument pool, and basic blocks.
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
    /// Variable slots (parameters first), identical to the stack layout.
    pub n_slots: u16,
    /// Number of parameters.
    pub n_params: u16,
    /// Number of distinct query ids this program may notify.
    pub n_queries: usize,
    /// Wall time spent lowering (constant folding + copy propagation),
    /// reported through the `regcode.fold_ns` metric.
    pub fold_ns: u64,
}

/// Abstract value tracked per stack position during lowering; `cost`/`steps`
/// are the producing ops' accounting not yet charged to any instruction.
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

/// The destination register of a pure (side-effect-free) instruction, used
/// by the store peephole; stateful ops return `None` so a store after a call
/// becomes an explicit [`ROp::Move`] (keeping the call last in its group).
fn pure_dst(op: &ROp) -> Option<u16> {
    match op {
        ROp::Const { dst, .. }
        | ROp::Move { dst, .. }
        | ROp::Bin { dst, .. }
        | ROp::BinK { dst, .. }
        | ROp::Not { dst, .. } => Some(*dst),
        _ => None,
    }
}

fn set_dst(op: &mut ROp, new_dst: u16) {
    match op {
        ROp::Const { dst, .. }
        | ROp::Move { dst, .. }
        | ROp::Bin { dst, .. }
        | ROp::BinK { dst, .. }
        | ROp::Not { dst, .. } => *dst = new_dst,
        _ => {}
    }
}

impl RegProgram {
    /// Compiles `program` to register bytecode: [`Compiled::compile`], then
    /// [`RegProgram::lower`]. The arguments are `Compiled::compile`'s.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] for unknown notify targets or slot overflow.
    pub fn compile(
        program: &Program,
        query_ids: &[ProgId],
        cm: &CostModel,
        fn_cost: &dyn Fn(Symbol) -> Cost,
    ) -> Result<RegProgram, CompileError> {
        Compiled::compile(program, query_ids, cm, fn_cost).map(|c| RegProgram::lower(&c))
    }

    /// Total steps of the code, each instruction counted once: the stack-op
    /// count of the program it was lowered from, and so an upper bound on
    /// the fuel any loop-free path can spend.
    pub fn total_steps(&self) -> u64 {
        self.blocks.iter().map(|b| b.steps).sum()
    }

    /// Lowers a compiled stack program. Infallible: every well-formed stack
    /// program (as produced by [`Compiled::compile`]) lowers.
    pub fn lower(c: &Compiled) -> RegProgram {
        let t0 = std::time::Instant::now();
        let n = c.ops.len();
        // Leaders: entry, every jump target, every fall-through after a jump.
        let mut leader = vec![false; n];
        if n > 0 {
            leader[0] = true;
        }
        for (pc, op) in c.ops.iter().enumerate() {
            if let Op::Jump(t) | Op::JumpIfZero(t) = op {
                leader[*t as usize] = true;
                if pc + 1 < n {
                    leader[pc + 1] = true;
                }
            }
        }

        let mut code: Vec<RInstr> = Vec::with_capacity(n);
        let mut arg_pool: Vec<RArg> = Vec::new();
        let mut pc_map = vec![0u32; n];
        let mut fixups: Vec<usize> = Vec::new();
        let mut stack: Vec<AVal> = Vec::new();
        let mut slot_const: Vec<Option<i64>> = vec![None; c.n_slots as usize];
        let mut max_regs = c.n_slots as usize;
        let mut block_start = 0usize;

        let temp = |depth: usize, max_regs: &mut usize| -> u16 {
            let r = c.n_slots as usize + depth;
            *max_regs = (*max_regs).max(r + 1);
            u16::try_from(r).expect("register file fits u16")
        };

        for pc in 0..n {
            if leader[pc] {
                debug_assert!(stack.is_empty(), "stack non-empty at block boundary");
                pc_map[pc] = u32::try_from(code.len()).expect("code fits u32");
                slot_const.iter_mut().for_each(|s| *s = None);
                block_start = code.len();
            }
            let opcost = c.costs[pc];
            match &c.ops[pc] {
                Op::Const(v) => stack.push(AVal {
                    v: Av::Const(*v),
                    cost: opcost,
                    steps: 1,
                }),
                Op::Load(s) => {
                    let v = match slot_const[*s as usize] {
                        Some(k) => Av::Const(k),
                        None => Av::Reg(*s),
                    };
                    stack.push(AVal {
                        v,
                        cost: opcost,
                        steps: 1,
                    });
                }
                Op::Store(s) => {
                    let top = stack.pop().expect("store on empty abstract stack");
                    let cost = top.cost + opcost;
                    let steps = top.steps + 1;
                    match top.v {
                        Av::Const(k) => {
                            code.push(RInstr {
                                op: ROp::Const { dst: *s, v: k },
                                cost,
                                steps,
                            });
                            slot_const[*s as usize] = Some(k);
                        }
                        Av::Reg(r) => {
                            // Peephole: the value was just produced by a pure
                            // instruction into a temporary — retarget it.
                            let patch = r >= c.n_slots
                                && code.len() > block_start
                                && code.last().and_then(|i| pure_dst(&i.op)) == Some(r);
                            if patch {
                                let last = code.last_mut().expect("non-empty code");
                                set_dst(&mut last.op, *s);
                                last.cost += cost;
                                last.steps += steps;
                            } else {
                                code.push(RInstr {
                                    op: ROp::Move { dst: *s, src: r },
                                    cost,
                                    steps,
                                });
                            }
                            slot_const[*s as usize] = None;
                        }
                    }
                }
                &Op::Bin(rb) => {
                    let b = stack.pop().expect("binop rhs");
                    let a = stack.pop().expect("binop lhs");
                    let cost = a.cost + b.cost + opcost;
                    let steps = a.steps + b.steps + 1;
                    let rop = match (a.v, b.v) {
                        (Av::Const(x), Av::Const(y)) => {
                            stack.push(AVal {
                                v: Av::Const(apply_bin(rb, x, y)),
                                cost,
                                steps,
                            });
                            continue;
                        }
                        (Av::Reg(ra), Av::Reg(rbr)) => ROp::Bin {
                            op: rb,
                            dst: temp(stack.len(), &mut max_regs),
                            a: ra,
                            b: rbr,
                        },
                        (Av::Reg(ra), Av::Const(kb)) => ROp::BinK {
                            op: rb,
                            dst: temp(stack.len(), &mut max_regs),
                            r: ra,
                            k: kb,
                            reg_on_left: true,
                        },
                        (Av::Const(ka), Av::Reg(rbr)) => ROp::BinK {
                            op: rb,
                            dst: temp(stack.len(), &mut max_regs),
                            r: rbr,
                            k: ka,
                            reg_on_left: false,
                        },
                    };
                    code.push(RInstr {
                        op: rop,
                        cost,
                        steps,
                    });
                    let dst = pure_dst(&rop).expect("bin has a destination");
                    stack.push(AVal {
                        v: Av::Reg(dst),
                        cost: 0,
                        steps: 0,
                    });
                }
                Op::Not => {
                    let a = stack.pop().expect("not operand");
                    let cost = a.cost + opcost;
                    let steps = a.steps + 1;
                    match a.v {
                        Av::Const(x) => stack.push(AVal {
                            v: Av::Const(i64::from(x == 0)),
                            cost,
                            steps,
                        }),
                        Av::Reg(r) => {
                            let dst = temp(stack.len(), &mut max_regs);
                            code.push(RInstr {
                                op: ROp::Not { dst, src: r },
                                cost,
                                steps,
                            });
                            stack.push(AVal {
                                v: Av::Reg(dst),
                                cost: 0,
                                steps: 0,
                            });
                        }
                    }
                }
                Op::JumpIfZero(t) => {
                    let cond = stack.pop().expect("branch condition");
                    let (src, cost, steps) = match cond.v {
                        Av::Reg(r) => (r, cond.cost + opcost, cond.steps + 1),
                        Av::Const(k) => {
                            // Materialize rather than fold the branch: the
                            // dispatch is a step, and divergent loops must
                            // consume fuel at the same rate.
                            let dst = temp(stack.len(), &mut max_regs);
                            code.push(RInstr {
                                op: ROp::Const { dst, v: k },
                                cost: cond.cost,
                                steps: cond.steps,
                            });
                            (dst, opcost, 1)
                        }
                    };
                    fixups.push(code.len());
                    code.push(RInstr {
                        op: ROp::JumpIfZero { src, target: *t },
                        cost,
                        steps,
                    });
                }
                Op::Jump(t) => {
                    debug_assert!(stack.is_empty());
                    fixups.push(code.len());
                    code.push(RInstr {
                        op: ROp::Jump { target: *t },
                        cost: opcost,
                        steps: 1,
                    });
                }
                Op::Call { f, argc } => {
                    let at = stack.len() - *argc as usize;
                    let mut cost = opcost;
                    let mut steps = 1u32;
                    // Sweep every pending op on the stack — not just the
                    // arguments — into the call's group: all of them precede
                    // the call in stack order, so "fuel spent when the call
                    // runs" stays equal to the stack ops before it.
                    for v in stack.iter_mut().take(at) {
                        cost += v.cost;
                        steps += v.steps;
                        v.cost = 0;
                        v.steps = 0;
                    }
                    let args_at = u32::try_from(arg_pool.len()).expect("arg pool fits u32");
                    for v in stack.drain(at..) {
                        cost += v.cost;
                        steps += v.steps;
                        arg_pool.push(match v.v {
                            Av::Const(k) => RArg::Const(k),
                            Av::Reg(r) => RArg::Reg(r),
                        });
                    }
                    let dst = temp(stack.len(), &mut max_regs);
                    code.push(RInstr {
                        op: ROp::Call {
                            dst,
                            f: *f,
                            args_at,
                            argc: *argc,
                        },
                        cost,
                        steps,
                    });
                    stack.push(AVal {
                        v: Av::Reg(dst),
                        cost: 0,
                        steps: 0,
                    });
                }
                Op::Notify { query, value } => {
                    debug_assert!(stack.is_empty(), "notify with pending values");
                    code.push(RInstr {
                        op: ROp::Notify {
                            query: *query,
                            value: *value,
                        },
                        cost: opcost,
                        steps: 1,
                    });
                }
                Op::Halt => {
                    debug_assert!(stack.is_empty(), "halt with pending values");
                    code.push(RInstr {
                        op: ROp::Halt,
                        cost: opcost,
                        steps: 1,
                    });
                }
            }
        }

        for i in fixups {
            if let ROp::Jump { target } | ROp::JumpIfZero { target, .. } = &mut code[i].op {
                *target = pc_map[*target as usize];
            }
        }

        // Basic blocks from the (deduplicated) leader positions.
        let mut starts: Vec<u32> = (0..n).filter(|&pc| leader[pc]).map(|pc| pc_map[pc]).collect();
        starts.push(u32::try_from(code.len()).expect("code fits u32"));
        starts.sort_unstable();
        starts.dedup();
        let mut blocks = Vec::with_capacity(starts.len());
        for w in starts.windows(2) {
            let (start, end) = (w[0], w[1]);
            if start == end {
                continue;
            }
            let range = &code[start as usize..end as usize];
            blocks.push(Block {
                start,
                end,
                steps: range.iter().map(|i| u64::from(i.steps)).sum(),
                cost: range.iter().map(|i| i.cost).sum(),
                pure: range
                    .iter()
                    .all(|i| !matches!(i.op, ROp::Call { .. } | ROp::Notify { .. })),
            });
        }

        RegProgram {
            code,
            arg_pool,
            blocks,
            n_regs: u16::try_from(max_regs).expect("register file fits u16"),
            n_slots: c.n_slots,
            n_params: c.n_params,
            n_queries: c.n_queries,
            fold_ns: u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
        }
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
        debug_assert_eq!(notify_out.len(), prog.n_queries);
        self.regs.clear();
        self.regs.resize(prog.n_regs as usize, 0);
        self.args.clear();
        env.args(rec, &mut self.args);
        debug_assert_eq!(self.args.len(), prog.n_params as usize);
        self.regs[..prog.n_params as usize].copy_from_slice(&self.args);

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
    use crate::batch::{BatchVm, LaneFault, RecordBatch};
    use crate::env::ScalarEnv;
    use crate::fault::{silence_injected_panics, FaultKind, FaultPlan, FaultyEnv};
    use udf_lang::intern::Interner;
    use udf_lang::parse::parse_program;
    use udf_lang::FnLibrary;

    fn scalar_env(interner: &mut Interner) -> ScalarEnv {
        let f = interner.intern("f");
        let mut lib = FnLibrary::new();
        lib.register(f, "f", 1, 10, |a| a[0] * 2 + 1);
        ScalarEnv::new(2, lib)
    }

    fn compile(src: &str) -> (Compiled, RegProgram, ScalarEnv) {
        let mut i = Interner::new();
        let env = scalar_env(&mut i);
        let p = parse_program(src, &mut i).unwrap();
        let ids: Vec<ProgId> = udf_lang::analysis::notify_ids(&p.body).into_iter().collect();
        let cm = CostModel::default();
        let compiled = Compiled::compile(&p, &ids, &cm, &|f| env.fn_cost(f)).unwrap();
        let reg = RegProgram::lower(&compiled);
        (compiled, reg, env)
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
        let r = RegVm::new().with_fuel(fuel).run(reg, env, rec, &mut out, true);
        observed(r, &out)
    }

    /// Runs `recs` as one batch, returning each lane's observables.
    fn batch_run<E: UdfEnv>(reg: &RegProgram, env: &E, recs: &[E::Rec], fuel: u64) -> Vec<Observed> {
        let n_q = reg.n_queries;
        let batch = RecordBatch::gather(env, recs, &mut Vec::new());
        let mut bvm = BatchVm::new(fuel);
        let mut notify = vec![NOTIFY_NONE; recs.len() * n_q];
        bvm.run(&[reg], &batch, env, recs, &mut notify, true);
        (0..recs.len())
            .map(|lane| {
                let r = match bvm.take_fault(lane) {
                    None => Ok(bvm.cost(lane)),
                    Some((_, LaneFault::Vm(e))) => Err(e),
                    Some((_, LaneFault::Panic(m))) => panic!("lane {lane} panicked: {m}"),
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
        let (compiled, reg, _) = compile(
            "program p @0 (a, b) { x := 2 * 3 + 4; y := x + a; if (y > 10) { notify true; } else { notify false; } }",
        );
        assert!(
            reg.code.len() < compiled.ops.len(),
            "folding should shrink {} stack ops below {} reg instrs",
            compiled.ops.len(),
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
        assert_parity_fuels("program p @0 (a, b) { while (0 < 1) { skip; } }", vec![0, 0], false);
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
        let (compiled, reg, _) = compile(
            "program p @0 (a, b) {
                 acc := 0; k := a;
                 while (k > 0) { acc := acc + f(k); k := k - 1; }
                 if (acc >= b) { notify true; } else { notify false; }
             }",
        );
        let reg_steps: u64 = reg.code.iter().map(|i| u64::from(i.steps)).sum();
        assert_eq!(reg_steps, compiled.ops.len() as u64, "every stack op charged once");
        let reg_cost: Cost = reg.code.iter().map(|i| i.cost).sum();
        let stack_cost: Cost = compiled.costs.iter().sum();
        assert_eq!(reg_cost, stack_cost, "every stack cost charged once");
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
            let ids: Vec<ProgId> =
                udf_lang::analysis::notify_ids(&p.body).into_iter().collect();
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

    #[test]
    fn stores_after_calls_stay_separate_instructions() {
        let (_, reg, _) = compile(
            "program p @0 (a, b) { x := f(a); if (x > 0) { notify true; } else { notify false; } }",
        );
        // The store into `x` must not fold into the call group: a move (or
        // later instruction) follows the call.
        let call_idx = reg
            .code
            .iter()
            .position(|i| matches!(i.op, ROp::Call { .. }))
            .expect("program has a call");
        assert!(matches!(reg.code[call_idx + 1].op, ROp::Move { .. }));
        assert_eq!(reg.code[call_idx + 1].steps, 1, "store charges its own step");
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

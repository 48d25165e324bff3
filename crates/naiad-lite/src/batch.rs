//! Columnar batch execution of register bytecode.
//!
//! The per-record backend interprets one record at a time: every bytecode
//! op pays its dispatch once *per record*. This module amortizes dispatch
//! across a whole **struct-of-arrays batch**: a [`RecordBatch`] holds one
//! `i64` column per record field, and [`BatchVm`] runs each basic block of a
//! [`RegProgram`] over every lane (record) scheduled at that block — one
//! instruction dispatch per *batch*, with a tight per-lane inner loop.
//!
//! Lanes diverge at branches, so the VM repeatedly executes the block at
//! the **minimum** pc among live lanes; loop back-edges therefore
//! re-converge lanes instead of deadlocking, and every scheduled block
//! consumes fuel, so termination is inherited from the fuel bound. There is
//! no per-lane program counter: waiting lanes sit in one bucket per basic
//! block (blocks are ordered by start pc, so the lowest-indexed non-empty
//! bucket *is* the minimum pc), the drained bucket doubles as the selection
//! vector, and each block visit reports how it left its selection (jump,
//! conditional split, halt) so survivors are routed straight to their
//! successor buckets — O(1) amortized scheduling per block visit.
//!
//! # Exactness
//!
//! Observables are bit-identical to the scalar machine
//! ([`crate::regcode::RegVm`]) running the same program:
//!
//! * per-lane fuel/cost columns are charged from the same per-instruction
//!   `steps`/`cost` totals the scalar machine reads (one AST node is one
//!   step, see [`crate::regcode`]);
//! * in blocks containing calls or notifies, the per-lane fuel gate runs
//!   *before* every stateful instruction, so an environment observes
//!   exactly the calls the scalar machine would have made — even for lanes
//!   that exhaust fuel mid-block;
//! * runs of consecutive register-only instructions (and entire pure
//!   blocks) are gated **once** for their summed fuel: a lane that would
//!   have died partway through such a run dies at its start instead, which
//!   is indistinguishable from the scalar run because the run has no side
//!   effects to order and a faulted lane's partial state (cost,
//!   notifications) is never observed by the engine;
//! * external calls are individually wrapped in
//!   [`std::panic::catch_unwind`], so a panicking environment poisons only
//!   its own lane.

use crate::env::UdfEnv;
use crate::policy::{panic_message, RecordFault};
use crate::regcode::{apply_bin, Block, RArg, ROp, RegProgram};
use crate::VmError;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// No broadcast recorded (mirrors [`crate::compile::NOTIFY_NONE`]).
use crate::compile::NOTIFY_NONE;

/// A struct-of-arrays view of a run of records: one `i64` column per scalar
/// field, gathered once per batch through [`UdfEnv::args`].
#[derive(Debug, Default)]
pub(crate) struct RecordBatch {
    cols: Vec<i64>,
    n_fields: usize,
    len: usize,
}

impl RecordBatch {
    /// Gathers `recs` into columns. `row` is caller-provided scratch (reused
    /// across batches so steady-state gathering allocates nothing).
    #[cfg(test)]
    pub(crate) fn gather<E: UdfEnv>(env: &E, recs: &[E::Rec], row: &mut Vec<i64>) -> RecordBatch {
        let mut batch = RecordBatch::default();
        batch.regather(env, recs, row);
        batch
    }

    /// Re-fills this batch in place from a new run of records.
    pub(crate) fn regather<E: UdfEnv>(&mut self, env: &E, recs: &[E::Rec], row: &mut Vec<i64>) {
        self.n_fields = env.arity();
        self.len = recs.len();
        self.cols.clear();
        self.cols.resize(self.n_fields * self.len, 0);
        for (lane, rec) in recs.iter().enumerate() {
            row.clear();
            env.args(rec, row);
            debug_assert_eq!(row.len(), self.n_fields);
            for (f, &v) in row.iter().enumerate() {
                self.cols[f * self.len + lane] = v;
            }
        }
    }

    /// Number of lanes (records).
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Number of field columns.
    #[cfg(test)]
    pub(crate) fn n_fields(&self) -> usize {
        self.n_fields
    }

    /// The column of field `f`.
    pub(crate) fn col(&self, f: usize) -> &[i64] {
        &self.cols[f * self.len..(f + 1) * self.len]
    }
}

/// How a block visit left its selection, so the scheduler can route lanes
/// to successor buckets without re-deriving control flow per lane.
enum Exit {
    /// Every lane still in the selection continues at this pc (jump target
    /// or fall-through); route the whole selection with one copy.
    Uniform(u32),
    /// A conditional branch split the selection: lanes for which the
    /// terminating jump is taken continue at `target`, the rest fall through
    /// to the block end.
    Branch {
        /// The terminating `JumpIfZero` / `JumpUnlessBin` /
        /// `JumpUnlessBinK`.
        jump: ROp,
        /// Branch target when the jump is taken.
        target: u32,
    },
    /// Every lane still in the selection halted; nothing to route.
    Halted,
}

/// Index of the block starting at `pc` (every jump target is a block start
/// and blocks are ordered by start pc, so this is a plain binary search).
#[inline]
fn block_index(prog: &RegProgram, pc: u32) -> usize {
    let b = prog.blocks.partition_point(|blk| blk.start < pc);
    debug_assert_eq!(prog.blocks[b].start, pc, "jump target is a block start");
    b
}

/// The [`Exit`] of a block ending in `op`, when `op` is a conditional jump.
#[inline]
fn branch_exit(op: ROp) -> Option<Exit> {
    match op {
        ROp::JumpIfZero { target, .. }
        | ROp::JumpUnlessBin { target, .. }
        | ROp::JumpUnlessBinK { target, .. } => Some(Exit::Branch { jump: op, target }),
        _ => None,
    }
}

/// Routes each lane of `sel` by the conditional jump `jump`: to `taken`
/// when the jump is taken (its condition is 0), else to `fallthrough`. The
/// condition is evaluated per lane here, so a fused compare-and-branch
/// needs no register for its comparison.
fn split(
    regs: &[i64],
    cap: usize,
    jump: ROp,
    sel: &[u32],
    taken: &mut Vec<u32>,
    fallthrough: &mut Vec<u32>,
) {
    let mut route = |l: u32, cond: i64| {
        if cond == 0 {
            taken.push(l);
        } else {
            fallthrough.push(l);
        }
    };
    match jump {
        ROp::JumpIfZero { src, .. } => {
            let bs = src as usize * cap;
            for &l in sel {
                route(l, regs[bs + l as usize]);
            }
        }
        ROp::JumpUnlessBin { op, a, b, .. } => {
            let (ba, bb) = (a as usize * cap, b as usize * cap);
            for &l in sel {
                route(
                    l,
                    apply_bin(op, regs[ba + l as usize], regs[bb + l as usize]),
                );
            }
        }
        ROp::JumpUnlessBinK { op, r, k, .. } => {
            let br = r as usize * cap;
            for &l in sel {
                route(l, apply_bin(op, regs[br + l as usize], k));
            }
        }
        _ => unreachable!("only conditional jumps end a block in Exit::Branch"),
    }
}

/// Runs `f` over the selected lanes; a full selection iterates densely so
/// the optimizer sees a plain counted loop.
#[inline]
fn for_lanes(sel: &[u32], cap: usize, mut f: impl FnMut(usize)) {
    if sel.len() == cap {
        for lane in 0..cap {
            f(lane);
        }
    } else {
        for &lane in sel {
            f(lane as usize);
        }
    }
}

/// Executes one pure (register-only) instruction over the selected lanes of
/// a column-major register file.
fn exec_pure(regs: &mut [i64], cap: usize, op: &ROp, sel: &[u32]) {
    match *op {
        ROp::Const { dst, v } => {
            let bd = dst as usize * cap;
            for_lanes(sel, cap, |l| regs[bd + l] = v);
        }
        ROp::Move { dst, src } => {
            let (bd, bs) = (dst as usize * cap, src as usize * cap);
            for_lanes(sel, cap, |l| regs[bd + l] = regs[bs + l]);
        }
        ROp::Bin { op, dst, a, b } => {
            let (bd, ba, bb) = (dst as usize * cap, a as usize * cap, b as usize * cap);
            for_lanes(sel, cap, |l| {
                regs[bd + l] = apply_bin(op, regs[ba + l], regs[bb + l])
            });
        }
        ROp::BinK {
            op,
            dst,
            r,
            k,
            reg_on_left,
        } => {
            let (bd, br) = (dst as usize * cap, r as usize * cap);
            if reg_on_left {
                for_lanes(sel, cap, |l| regs[bd + l] = apply_bin(op, regs[br + l], k));
            } else {
                for_lanes(sel, cap, |l| regs[bd + l] = apply_bin(op, k, regs[br + l]));
            }
        }
        ROp::Not { dst, src } => {
            let (bd, bs) = (dst as usize * cap, src as usize * cap);
            for_lanes(sel, cap, |l| regs[bd + l] = i64::from(regs[bs + l] == 0));
        }
        _ => debug_assert!(false, "stateful or control op in pure executor"),
    }
}

/// A reusable columnar evaluator: per-lane register/fuel/cost columns
/// plus selection-vector scratch, sized to the largest batch seen.
#[derive(Debug)]
pub struct BatchVm {
    fuel_budget: u64,
    regs: Vec<i64>,
    fuel: Vec<u64>,
    cost: Vec<u64>,
    fault: Vec<Option<(usize, RecordFault)>>,
    alive: Vec<u32>,
    buckets: Vec<Vec<u32>>,
    sel: Vec<u32>,
    tmp: Vec<u32>,
    args: Vec<i64>,
}

impl BatchVm {
    /// Creates a batch VM with the given per-record (per-program) fuel.
    pub(crate) fn new(fuel: u64) -> BatchVm {
        BatchVm {
            fuel_budget: fuel,
            regs: Vec::new(),
            fuel: Vec::new(),
            cost: Vec::new(),
            fault: Vec::new(),
            alive: Vec::new(),
            buckets: Vec::new(),
            sel: Vec::new(),
            tmp: Vec::new(),
            args: Vec::with_capacity(8),
        }
    }

    /// Runs `progs` in sequence over every lane of `batch`, mirroring the
    /// engine's per-record semantics: each program gets a fresh fuel budget
    /// per lane, costs accumulate per lane across programs, notifications
    /// share the lane-major `notify` buffer (`lane * n_queries + q`,
    /// pre-filled with [`NOTIFY_NONE`] by the caller), and a lane that
    /// faults in program `j` skips programs `j+1..` entirely.
    ///
    /// Afterwards each lane holds its failure (if any, tagged with the
    /// faulting program index) for the engine to take, and [`BatchVm::cost`]
    /// its accumulated cost.
    #[cfg(test)]
    pub(crate) fn run<E: UdfEnv>(
        &mut self,
        progs: &[&RegProgram],
        batch: &RecordBatch,
        env: &E,
        recs: &[E::Rec],
        notify: &mut [i8],
        track_cost: bool,
    ) {
        self.run_masked(progs, batch, env, recs, notify, track_cost, None);
    }

    /// `BatchVm::run` restricted to the lanes `mask` selects (`None` runs
    /// them all). Masked-out lanes never execute: they keep cost 0, no
    /// fault, and their `notify` slots untouched — the engine's pre-filter
    /// uses this to compact skipped records out of the batch while leaving
    /// their lane indices stable for the per-record policy replay.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_masked<E: UdfEnv>(
        &mut self,
        progs: &[&RegProgram],
        batch: &RecordBatch,
        env: &E,
        recs: &[E::Rec],
        notify: &mut [i8],
        track_cost: bool,
        mask: Option<&[bool]>,
    ) {
        let cap = batch.len();
        debug_assert_eq!(recs.len(), cap);
        debug_assert!(mask.is_none_or(|m| m.len() == cap));
        self.fuel.resize(cap, 0);
        self.cost.resize(cap, 0);
        self.cost[..cap].fill(0);
        self.fault.resize_with(cap, || None);
        self.fault[..cap].fill_with(|| None);
        self.alive.clear();
        match mask {
            None => self
                .alive
                .extend((0..cap).map(|l| u32::try_from(l).expect("batch fits u32"))),
            Some(m) => self.alive.extend(
                (0..cap)
                    .filter(|&l| m[l])
                    .map(|l| u32::try_from(l).expect("batch fits u32")),
            ),
        }
        for (pi, prog) in progs.iter().enumerate() {
            if self.alive.is_empty() {
                break;
            }
            debug_assert_eq!(notify.len(), cap * prog.n_queries);
            self.run_program(pi, prog, batch, env, recs, notify, track_cost);
        }
    }

    /// The fault that removed `lane`, if any, tagged with the index of the
    /// program that faulted. Consumes the fault.
    pub(crate) fn take_fault(&mut self, lane: usize) -> Option<(usize, RecordFault)> {
        self.fault[lane].take()
    }

    /// Accumulated abstract cost of `lane` (0 unless cost tracking was on).
    pub(crate) fn cost(&self, lane: usize) -> u64 {
        self.cost[lane]
    }

    #[allow(clippy::too_many_arguments)]
    fn run_program<E: UdfEnv>(
        &mut self,
        pi: usize,
        prog: &RegProgram,
        batch: &RecordBatch,
        env: &E,
        recs: &[E::Rec],
        notify: &mut [i8],
        track_cost: bool,
    ) {
        let cap = batch.len();
        let n_regs = prog.n_regs as usize;
        // Register file: parameter columns copied in, variable slots zeroed
        // (reference semantics). Expression temporaries are *not* cleared —
        // the compiler numbers a temporary by its depth among the pending
        // operands, so every temporary is written before it is read, and no
        // operand is pending at a block boundary: stale lanes can never leak
        // through.
        if self.regs.len() < n_regs * cap {
            self.regs.resize(n_regs * cap, 0);
        }
        // When a pre-filter mask leaves only a few lanes alive, column-wide
        // initialization would dominate the masked run (it is O(slots × cap)
        // no matter how many lanes actually execute), so gather-init just
        // the alive lanes instead. Dead lanes keep stale register values —
        // harmless, they are never scheduled. Dense runs keep the memcpy.
        if self.alive.len() * 2 < cap {
            for p in 0..prog.n_params as usize {
                let col = batch.col(p);
                let base = p * cap;
                for &l in &self.alive {
                    self.regs[base + l as usize] = col[l as usize];
                }
            }
            for s in prog.n_params as usize..prog.n_slots as usize {
                let base = s * cap;
                for &l in &self.alive {
                    self.regs[base + l as usize] = 0;
                }
            }
        } else {
            for p in 0..prog.n_params as usize {
                self.regs[p * cap..(p + 1) * cap].copy_from_slice(batch.col(p));
            }
            self.regs[prog.n_params as usize * cap..prog.n_slots as usize * cap].fill(0);
        }
        for &l in &self.alive {
            self.fuel[l as usize] = self.fuel_budget;
        }
        // Lanes wait in one bucket per basic block. Blocks are ordered by
        // start pc, so draining the lowest-indexed non-empty bucket is
        // exactly the min-pc schedule, without scanning the lanes: `cur`
        // only moves forward, except when a loop back-edge routes a lane to
        // an earlier bucket.
        let n_blocks = prog.blocks.len();
        if self.buckets.len() < n_blocks {
            self.buckets.resize_with(n_blocks, Vec::new);
        }
        for b in &mut self.buckets[..n_blocks] {
            b.clear();
        }
        let mut sel = std::mem::take(&mut self.sel);
        sel.clear();
        self.buckets[0].extend_from_slice(&self.alive);
        let mut pending = self.alive.len();
        let mut cur = 0usize;
        while pending > 0 {
            while self.buckets[cur].is_empty() {
                cur += 1;
            }
            // The drained bucket *is* the selection vector (storage swaps
            // back and forth, so steady state allocates nothing).
            std::mem::swap(&mut sel, &mut self.buckets[cur]);
            pending -= sel.len();
            let block = prog.blocks[cur];
            let exit = if block.pure {
                self.run_pure_block(pi, prog, &block, cap, track_cost, &mut sel)
            } else {
                self.run_mixed_block(
                    pi, prog, &block, cap, track_cost, &mut sel, env, recs, notify,
                )
            };
            // Route survivors to their successor buckets. The common exits
            // (jump, fall-through, halt) move the selection uniformly — one
            // block-index lookup and one copy; only a conditional branch
            // pays a per-lane lookup, memoized over its two targets.
            match exit {
                Exit::Halted => {}
                Exit::Uniform(p) => {
                    if !sel.is_empty() {
                        let b = block_index(prog, p);
                        self.buckets[b].extend_from_slice(&sel);
                        pending += sel.len();
                        if b < cur {
                            cur = b;
                        }
                    }
                }
                Exit::Branch { jump, target } => {
                    let bt = block_index(prog, target);
                    let bf = block_index(prog, block.end);
                    // Split buckets out of `self` so both halves of the
                    // partition can be pushed to in one pass.
                    let (lo, hi) = (bt.min(bf), bt.max(bf));
                    if lo == hi {
                        self.buckets[lo].extend_from_slice(&sel);
                    } else {
                        let (head, tail) = self.buckets.split_at_mut(hi);
                        let (taken, fallthrough) = if bt < bf {
                            (&mut head[bt], &mut tail[0])
                        } else {
                            (&mut tail[0], &mut head[bf])
                        };
                        split(&self.regs, cap, jump, &sel, taken, fallthrough);
                    }
                    pending += sel.len();
                    if lo < cur {
                        cur = lo;
                    }
                }
            }
            sel.clear();
        }
        // Lanes that faulted leave the batch for the remaining programs.
        let mut tmp = std::mem::take(&mut self.tmp);
        tmp.clear();
        tmp.extend(
            self.alive
                .iter()
                .copied()
                .filter(|&l| self.fault[l as usize].is_none()),
        );
        std::mem::swap(&mut self.alive, &mut tmp);
        self.sel = sel;
        self.tmp = tmp;
    }

    /// Charges `steps`/`cost` to every selected lane, faulting the ones
    /// whose fuel falls short. Returns whether any lane faulted (the caller
    /// then compacts `sel`, which otherwise stays untouched — the common
    /// all-lanes-pass case does no selection churn at all).
    #[inline]
    fn gate(&mut self, pi: usize, steps: u64, cost: u64, track_cost: bool, sel: &[u32]) -> bool {
        let mut any_fault = false;
        for &l in sel {
            let li = l as usize;
            if self.fuel[li] < steps {
                self.fault[li] = Some((pi, RecordFault::Vm(VmError::OutOfFuel)));
                any_fault = true;
            } else {
                self.fuel[li] -= steps;
                if track_cost {
                    self.cost[li] += cost;
                }
            }
        }
        any_fault
    }

    /// Vectorized fast path: whole-block fuel gate, then per-instruction
    /// dense loops over the surviving selection. On return `sel` holds the
    /// lanes that finished the block (faulted lanes are compacted away);
    /// the returned [`Exit`] tells the scheduler where they continue.
    fn run_pure_block(
        &mut self,
        pi: usize,
        prog: &RegProgram,
        block: &Block,
        cap: usize,
        track_cost: bool,
        sel: &mut Vec<u32>,
    ) -> Exit {
        if self.gate(pi, block.steps, block.cost, track_cost, sel) {
            let fault = &self.fault;
            sel.retain(|&l| fault[l as usize].is_none());
            if sel.is_empty() {
                return Exit::Halted;
            }
        }
        let (start, end) = (block.start as usize, block.end as usize);
        for ins in &prog.code[start..end - 1] {
            exec_pure(&mut self.regs, cap, &ins.op, sel);
        }
        let last = &prog.code[end - 1];
        match last.op {
            ROp::Jump { target } => Exit::Uniform(target),
            ROp::Halt => Exit::Halted,
            op => branch_exit(op).unwrap_or_else(|| {
                exec_pure(&mut self.regs, cap, &op, sel);
                Exit::Uniform(block.end)
            }),
        }
    }

    /// Path for blocks with calls or notifies. Runs of consecutive
    /// register-only instructions are gated once for their summed fuel and
    /// executed vectorized; each stateful instruction keeps its own
    /// per-lane fuel gate, so the environment observes exactly the calls
    /// the scalar reference would have made. On return `sel` holds the
    /// lanes that finished the block (faulted lanes are compacted away);
    /// the returned [`Exit`] tells the scheduler where they continue.
    #[allow(clippy::too_many_arguments)]
    fn run_mixed_block<E: UdfEnv>(
        &mut self,
        pi: usize,
        prog: &RegProgram,
        block: &Block,
        cap: usize,
        track_cost: bool,
        sel: &mut Vec<u32>,
        env: &E,
        recs: &[E::Rec],
        notify: &mut [i8],
    ) -> Exit {
        let n_q = prog.n_queries;
        let (start, end) = (block.start as usize, block.end as usize);
        let mut i = start;
        while i < end {
            if sel.is_empty() {
                return Exit::Halted;
            }
            // Batch the pure run starting here (if any) under one gate.
            let mut j = i;
            let mut run_steps = 0u64;
            let mut run_cost = 0u64;
            while j < end
                && matches!(
                    prog.code[j].op,
                    ROp::Const { .. }
                        | ROp::Move { .. }
                        | ROp::Bin { .. }
                        | ROp::BinK { .. }
                        | ROp::Not { .. }
                )
            {
                run_steps += u64::from(prog.code[j].steps);
                run_cost += prog.code[j].cost;
                j += 1;
            }
            if j > i {
                if self.gate(pi, run_steps, run_cost, track_cost, sel) {
                    let fault = &self.fault;
                    sel.retain(|&l| fault[l as usize].is_none());
                    if sel.is_empty() {
                        return Exit::Halted;
                    }
                }
                for k in i..j {
                    exec_pure(&mut self.regs, cap, &prog.code[k].op, sel);
                }
                i = j;
                continue;
            }
            // Stateful or control instruction: individual fuel gate.
            let ins = prog.code[i];
            if self.gate(pi, u64::from(ins.steps), ins.cost, track_cost, sel) {
                let fault = &self.fault;
                sel.retain(|&l| fault[l as usize].is_none());
                if sel.is_empty() {
                    return Exit::Halted;
                }
            }
            match ins.op {
                ROp::Call {
                    dst,
                    f,
                    args_at,
                    argc,
                } => {
                    let bd = dst as usize * cap;
                    let at = args_at as usize;
                    let pool = &prog.arg_pool[at..at + argc as usize];
                    let mut any_fault = false;
                    for &l in sel.iter() {
                        let li = l as usize;
                        self.args.clear();
                        for a in pool {
                            self.args.push(match *a {
                                RArg::Reg(r) => self.regs[r as usize * cap + li],
                                RArg::Const(k) => k,
                            });
                        }
                        let call =
                            catch_unwind(AssertUnwindSafe(|| env.call(&recs[li], f, &self.args)));
                        match call {
                            Ok(Ok(v)) => self.regs[bd + li] = v,
                            Ok(Err(e)) => {
                                self.fault[li] = Some((pi, RecordFault::Vm(VmError::Lib(e))));
                                any_fault = true;
                            }
                            Err(p) => {
                                self.fault[li] =
                                    Some((pi, RecordFault::Panic(panic_message(p.as_ref()))));
                                any_fault = true;
                            }
                        }
                    }
                    if any_fault {
                        let fault = &self.fault;
                        sel.retain(|&l| fault[l as usize].is_none());
                    }
                }
                ROp::Notify { query, value } => {
                    let mut any_fault = false;
                    for &l in sel.iter() {
                        let li = l as usize;
                        let slot = li * n_q + query as usize;
                        if notify[slot] != NOTIFY_NONE {
                            self.fault[li] =
                                Some((pi, RecordFault::Vm(VmError::DuplicateNotify(query))));
                            any_fault = true;
                        } else {
                            notify[slot] = i8::from(value);
                        }
                    }
                    if any_fault {
                        let fault = &self.fault;
                        sel.retain(|&l| fault[l as usize].is_none());
                    }
                }
                ROp::Jump { target } => return Exit::Uniform(target),
                ROp::Halt => return Exit::Halted,
                op => {
                    return branch_exit(op).expect("pure ops are consumed by the run above");
                }
            }
            i += 1;
        }
        // Fell through a block that ends in a plain instruction.
        Exit::Uniform(block.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::ScalarEnv;
    use crate::fault::{silence_injected_panics, FaultKind, FaultPlan, FaultyEnv};
    use crate::regcode::RegVm;
    use udf_lang::ast::ProgId;
    use udf_lang::cost::CostModel;
    use udf_lang::intern::Interner;
    use udf_lang::intern::Symbol;
    use udf_lang::library::LibError;
    use udf_lang::parse::parse_program;
    use udf_lang::FnLibrary;

    fn lib(i: &mut Interner) -> FnLibrary {
        let f = i.intern("f");
        let mut lib = FnLibrary::new();
        lib.register(f, "f", 1, 10, |a| a[0] * 2 + 1);
        lib
    }

    fn compile_set(srcs: &[&str], i: &mut Interner, env_cost: &ScalarEnv) -> Vec<RegProgram> {
        let programs: Vec<_> = srcs.iter().map(|s| parse_program(s, i).unwrap()).collect();
        let ids: Vec<ProgId> = programs.iter().map(|p| p.id).collect();
        let cm = CostModel::default();
        programs
            .iter()
            .map(|p| RegProgram::compile(p, &ids, &cm, &|f| env_cost.fn_cost(f)).unwrap())
            .collect()
    }

    /// Logs every call an environment receives, so two machines can be
    /// held to the same call sequence per record.
    struct Logged<E: UdfEnv> {
        inner: E,
        calls: std::sync::Mutex<Vec<(usize, Vec<i64>)>>,
    }

    impl<E: UdfEnv> Logged<E> {
        fn new(inner: E) -> Self {
            Logged {
                inner,
                calls: std::sync::Mutex::new(Vec::new()),
            }
        }

        /// The argument lists of the calls made on record `id`, in order.
        fn calls_on(&self, id: usize) -> Vec<Vec<i64>> {
            let calls = self.calls.lock().unwrap();
            calls
                .iter()
                .filter(|(r, _)| *r == id)
                .map(|(_, a)| a.clone())
                .collect()
        }
    }

    impl<E: UdfEnv> UdfEnv for Logged<FaultyEnv<E>> {
        type Rec = (usize, E::Rec);

        fn arity(&self) -> usize {
            self.inner.arity()
        }

        fn args(&self, rec: &Self::Rec, out: &mut Vec<i64>) {
            self.inner.args(rec, out);
        }

        fn call(&self, rec: &Self::Rec, f: Symbol, args: &[i64]) -> Result<i64, LibError> {
            self.calls.lock().unwrap().push((rec.0, args.to_vec()));
            self.inner.call(rec, f, args)
        }

        fn fn_cost(&self, f: Symbol) -> udf_lang::cost::Cost {
            self.inner.fn_cost(f)
        }
    }

    /// Batch execution over a faulty env must be lane-for-lane identical to
    /// running the scalar machine per record, at every fuel: costs,
    /// notifications, fault classification, and the calls the environment
    /// sees. Each machine gets its own copy of the (stateful) environment.
    /// Programs `c` and `d` reach both superinstructions: calls into a slot
    /// (`x := f(v)`, `x := f(x)`, a faulting call inside one, one in a loop)
    /// and comparison- and connective-guarded branches, with constants on
    /// either side.
    #[test]
    fn batch_matches_scalar_per_record_under_faults() {
        silence_injected_panics();
        let srcs = [
            "program a @1 (v, w) {
                 acc := 0; k := 3;
                 while (k > 0) { acc := acc + f(v); k := k - 1; }
                 if (acc > w) { notify true; } else { notify false; }
             }",
            "program b @2 (v, w) { if (w <= 5) { notify true; } else { notify false; } }",
            "program c @3 (v, w) {
                 x := f(v); x := f(x); k := x;
                 while (k > 40) { k := k - 7; }
                 while (0 < w) { w := f(w) - 2 * w - 2; }
                 if (k < w) { notify true; } else { notify false; }
             }",
            "program d @4 (v, w) {
                 acc := w;
                 if (v < 4 && 2 <= w) { acc := f(acc); } else { acc := f(v) + acc; }
                 if (!(acc == 5) || 7 < v) { notify true; } else { notify false; }
             }",
        ];
        for fuel in (0..400).chain([crate::compile::DEFAULT_FUEL]) {
            let mut i = Interner::new();
            let trigger = i.intern("f");
            let plan = FaultPlan::seeded_kinds(
                11,
                64,
                12,
                &[
                    FaultKind::LibError,
                    FaultKind::Panic,
                    FaultKind::FuelBurn,
                    FaultKind::Transient(2),
                ],
            );
            let batch_env = Logged::new(
                FaultyEnv::new(ScalarEnv::new(2, lib(&mut i)), trigger, plan.clone())
                    .with_burn_value(1_000),
            );
            let scalar_env = Logged::new(
                FaultyEnv::new(ScalarEnv::new(2, lib(&mut i)), trigger, plan)
                    .with_burn_value(1_000),
            );
            let base = ScalarEnv::new(2, lib(&mut i));
            let regs = compile_set(&srcs, &mut i, &base);
            let reg_refs: Vec<&RegProgram> = regs.iter().collect();
            let n_q = srcs.len();
            let recs: Vec<(usize, Vec<i64>)> = (0..64)
                .map(|k| (k, vec![k as i64 % 9, k as i64 % 11]))
                .collect();

            // Columnar pass.
            let mut row = Vec::new();
            let batch = RecordBatch::gather(&batch_env, &recs, &mut row);
            let mut bvm = BatchVm::new(fuel);
            let mut notify = vec![NOTIFY_NONE; recs.len() * n_q];
            bvm.run(&reg_refs, &batch, &batch_env, &recs, &mut notify, true);

            // Scalar machine, record at a time.
            for (lane, rec) in recs.iter().enumerate() {
                let mut vm = RegVm::new().with_fuel(fuel);
                let mut s_notify = vec![NOTIFY_NONE; n_q];
                let mut s_cost = 0u64;
                let mut s_fault: Option<(usize, String)> = None;
                for (pi, c) in regs.iter().enumerate() {
                    let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        vm.run(c, &scalar_env, rec, &mut s_notify, true)
                    }));
                    match r {
                        Ok(Ok(c)) => s_cost += c,
                        Ok(Err(e)) => {
                            s_fault = Some((pi, format!("{e:?}")));
                            break;
                        }
                        Err(p) => {
                            s_fault = Some((pi, format!("panic:{}", panic_message(p.as_ref()))));
                            break;
                        }
                    }
                }
                let b_fault = bvm.take_fault(lane).map(|(pi, f)| {
                    (
                        pi,
                        match f {
                            RecordFault::Vm(e) => format!("{e:?}"),
                            RecordFault::Panic(m) => format!("panic:{m}"),
                        },
                    )
                });
                assert_eq!(b_fault, s_fault, "fuel {fuel}, lane {lane}: fault diverged");
                assert_eq!(
                    batch_env.calls_on(rec.0),
                    scalar_env.calls_on(rec.0),
                    "fuel {fuel}, lane {lane}: calls diverged"
                );
                if s_fault.is_none() {
                    assert_eq!(bvm.cost(lane), s_cost, "fuel {fuel}, lane {lane}: cost");
                    assert_eq!(
                        &notify[lane * n_q..(lane + 1) * n_q],
                        &s_notify[..],
                        "fuel {fuel}, lane {lane}: notifications"
                    );
                }
            }
        }
    }

    #[test]
    fn diverging_loop_lanes_reconverge() {
        // Lanes loop a data-dependent number of times; the min-pc scheduler
        // must drain everyone to Halt.
        let mut i = Interner::new();
        let base = ScalarEnv::new(2, lib(&mut i));
        let regs = compile_set(
            &["program p @1 (v, w) {
                  acc := 0; k := v;
                  while (k > 0) { acc := acc + k; k := k - 1; }
                  if (acc >= w) { notify true; } else { notify false; }
              }"],
            &mut i,
            &base,
        );
        let reg = &regs[0];
        let recs: Vec<Vec<i64>> = (0..50).map(|k| vec![k % 13, 10]).collect();
        let mut row = Vec::new();
        let batch = RecordBatch::gather(&base, &recs, &mut row);
        let mut bvm = BatchVm::new(100_000);
        let mut notify = vec![NOTIFY_NONE; recs.len()];
        bvm.run(&[reg], &batch, &base, &recs, &mut notify, false);
        for (lane, rec) in recs.iter().enumerate() {
            assert!(bvm.take_fault(lane).is_none());
            let n = rec[0];
            let acc = n * (n + 1) / 2;
            assert_eq!(notify[lane], i8::from(acc >= 10), "lane {lane}");
        }
    }

    #[test]
    fn record_batch_is_columnar() {
        let mut i = Interner::new();
        let env = ScalarEnv::new(3, lib(&mut i));
        let recs: Vec<Vec<i64>> = vec![vec![1, 2, 3], vec![4, 5, 6]];
        let mut row = Vec::new();
        let b = RecordBatch::gather(&env, &recs, &mut row);
        assert_eq!(b.len(), 2);
        assert_eq!(b.n_fields(), 3);
        assert_eq!(b.col(0), &[1, 4]);
        assert_eq!(b.col(2), &[3, 6]);
    }
}

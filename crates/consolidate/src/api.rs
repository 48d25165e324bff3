//! Public entry points: pairwise consolidation (`Π₁ ⊗ Π₂`) and the parallel
//! divide-and-conquer consolidation of `n` programs (paper §6.1).

use crate::budget::{BudgetState, DegradationTier};
use crate::explain::ExplainReport;
use crate::rules::{Engine, Options, RuleStats};
use crate::symbolic::{SymState, SymbolicCtx};
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use udf_lang::analysis::{notify_ids, rename_locals};
use udf_lang::ast::Program;
use udf_lang::cost::{CostModel, FnCost};
use udf_lang::intern::Interner;
use udf_obs::names;

/// Errors reported by the consolidation entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConsolidateError {
    /// The programs do not share a parameter list. Consolidation is defined
    /// for programs operating on the *same* input `ᾱ` (Definition 1).
    ParamMismatch,
    /// Two inputs broadcast the same program id; the combined notification
    /// environment would not be a disjoint union.
    DuplicateIds,
    /// No programs were supplied.
    Empty,
}

impl fmt::Display for ConsolidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConsolidateError::ParamMismatch => {
                write!(f, "programs must share an identical parameter list")
            }
            ConsolidateError::DuplicateIds => {
                write!(f, "programs must broadcast disjoint notification ids")
            }
            ConsolidateError::Empty => write!(f, "no programs to consolidate"),
        }
    }
}

impl std::error::Error for ConsolidateError {}

/// Aggregated statistics of one consolidation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConsolidationStats {
    /// Rule application counters (summed over all pairs for n-way runs).
    pub rules: RuleStats,
    /// Total entailment queries issued.
    pub entailment_queries: u64,
    /// Entailments answered from the shared [`crate::memo::EntailmentMemo`]
    /// (no solver work, no budget charge).
    pub memo_hits: u64,
    /// Entailments answered "not valid" by evaluating a kept countermodel
    /// (no solver work, no budget charge). Not persisted by the plan cache:
    /// a plan loaded from a snapshot reports 0.
    pub countermodel_hits: u64,
    /// Solver `Sat` models that did not satisfy their own query under
    /// evaluation and were kept out of the countermodel pool — how often
    /// the solver's `Sat` holds only in its abstraction. Not persisted.
    pub countermodel_rejected: u64,
    /// Cumulative SMT solver statistics (summed over all pair contexts).
    /// On a plan-cache hit these are zero: the stored plan is served without
    /// any solver work.
    pub solver: udf_smt::SolverStats,
    /// Pairs processed through the Ω engine.
    pub pairs_consolidated: u64,
    /// Pairs merged by plain concatenation because the budget had already
    /// run out when they were reached.
    pub pairs_degraded: u64,
    /// How much of the run completed before budgets ran out.
    pub tier: DegradationTier,
}

/// Result of one consolidation run.
#[derive(Debug, Clone)]
pub struct Consolidated {
    /// The merged program.
    pub program: Program,
    /// Run statistics, including the degradation tier.
    pub stats: ConsolidationStats,
    /// Wall-clock time spent consolidating.
    pub elapsed: Duration,
    /// Rule-derivation trees, present iff [`Options::explain`] was set
    /// (`consolidate_many` concatenates one [`crate::explain::PairExplain`]
    /// per engine pair).
    pub explain: Option<ExplainReport>,
    /// The verified cross-query pre-filter, present iff
    /// [`Options::prefilter`] was set *and* synthesis succeeded (synthesis
    /// is fail-open: `None` here simply means the plan runs unfiltered).
    /// Only [`consolidate_many`] synthesizes one; pairwise entry points
    /// leave it `None`.
    pub prefilter: Option<crate::prefilter::Prefilter>,
}

fn check_compatible(p1: &Program, p2: &Program) -> Result<(), ConsolidateError> {
    if p1.params != p2.params {
        return Err(ConsolidateError::ParamMismatch);
    }
    let ids1 = notify_ids(&p1.body);
    let ids2 = notify_ids(&p2.body);
    if ids1.intersection(&ids2).next().is_some() {
        return Err(ConsolidateError::DuplicateIds);
    }
    Ok(())
}

/// Whether any cost-reducing rewrite landed (concatenation-only outputs
/// have none; `loop_seq` executes loops sequentially, so it doesn't count).
fn any_rewrites(r: &RuleStats) -> bool {
    r.if_eliminated + r.if3 + r.if4 + r.if5 + r.loop2 + r.loop3 > 0
}

/// The trivially sound merge: run `p1` then `p2` — exactly `where_many`
/// semantics expressed as one program.
fn sequential_merge(p1: &Program, p2: &Program) -> Program {
    Program::new(
        p1.id,
        p1.params.clone(),
        p1.body.clone().then(p2.body.clone()),
    )
}

/// One pair through the Ω engine, charging the shared budget when present.
/// `pub(crate)` so [`crate::delta`] can re-merge spine pairs under one
/// shared per-operation budget.
pub(crate) fn consolidate_pair_budgeted(
    p1: &Program,
    p2: &Program,
    interner: &Interner,
    cm: &CostModel,
    fns: &dyn FnCost,
    opts: &Options,
    budget: Option<&Arc<BudgetState>>,
) -> Result<Consolidated, ConsolidateError> {
    check_compatible(p1, p2)?;
    let start = Instant::now();
    let _pair_span = opts.recorder.span(names::PAIR_NS);
    if budget.is_some_and(|b| b.exhausted()) {
        opts.recorder.add(names::PAIRS_DEGRADED, 1);
        return Ok(Consolidated {
            program: sequential_merge(p1, p2),
            stats: ConsolidationStats {
                pairs_degraded: 1,
                tier: DegradationTier::Sequential,
                ..ConsolidationStats::default()
            },
            elapsed: start.elapsed(),
            explain: None,
            prefilter: None,
        });
    }
    // The queries this pair serves (ascending: a union of ordered sets).
    let scope = notify_ids(&p1.body)
        .union(&notify_ids(&p2.body))
        .map(|id| id.0)
        .collect();
    let mut cx = SymbolicCtx::new(interner, opts, budget.cloned(), scope);
    let st = SymState::initial(&mut cx, &p1.params);
    let mut engine = Engine::new(&mut cx, cm, fns, opts, p1.params.iter().copied());
    let body = engine.omega(st, p1.body.clone(), p2.body.clone(), 0);
    let rules = engine.stats;
    let trace = engine.take_trace();
    let explain = opts
        .explain
        .then(|| ExplainReport::single(p1.id, p2.id, trace));
    let exhausted = cx.budget_exhausted();
    opts.recorder.add(names::PAIRS, 1);
    // Budget-consumption timeline: cumulative entailment queries charged by
    // this pair, observed once at pair end.
    opts.recorder
        .observe(names::BUDGET_QUERIES, cx.entailment_queries());
    let tier = if !exhausted {
        DegradationTier::Full
    } else if any_rewrites(&rules) {
        DegradationTier::Partial
    } else {
        DegradationTier::Sequential
    };
    Ok(Consolidated {
        program: Program::new(p1.id, p1.params.clone(), body),
        stats: ConsolidationStats {
            rules,
            entailment_queries: cx.entailment_queries(),
            memo_hits: cx.memo_hits(),
            countermodel_hits: cx.countermodel_hits(),
            countermodel_rejected: cx.countermodel_rejected(),
            solver: cx.solver_stats(),
            pairs_consolidated: 1,
            pairs_degraded: 0,
            tier,
        },
        elapsed: start.elapsed(),
        explain,
        prefilter: None,
    })
}

/// Consolidates two programs whose local variables are already disjoint
/// (e.g. after [`rename_locals`], or outputs of previous consolidations of
/// disjoint inputs).
///
/// # Errors
///
/// Returns [`ConsolidateError`] when the programs do not share a parameter
/// list or broadcast overlapping ids.
pub fn consolidate_pair_prerenamed(
    p1: &Program,
    p2: &Program,
    interner: &Interner,
    cm: &CostModel,
    fns: &dyn FnCost,
    opts: &Options,
) -> Result<Consolidated, ConsolidateError> {
    let state = (!opts.budget.is_unlimited()).then(|| Arc::new(BudgetState::new(&opts.budget)));
    consolidate_pair_budgeted(p1, p2, interner, cm, fns, opts, state.as_ref())
}

/// Consolidates two programs, renaming their local variables apart first.
///
/// # Errors
///
/// Returns [`ConsolidateError`] when the programs do not share a parameter
/// list or broadcast overlapping ids.
pub fn consolidate_pair(
    p1: &Program,
    p2: &Program,
    interner: &mut Interner,
    cm: &CostModel,
    fns: &dyn FnCost,
    opts: &Options,
) -> Result<Consolidated, ConsolidateError> {
    check_compatible(p1, p2)?;
    let r1 = rename_locals(p1, interner, &format!("q{}$", p1.id.0));
    let r2 = rename_locals(p2, interner, &format!("q{}$", p2.id.0));
    consolidate_pair_prerenamed(&r1, &r2, interner, cm, fns, opts)
}

/// Consolidates `n` programs with the parallel divide-and-conquer strategy
/// of §6.1: locals are renamed apart once, then pairs are merged level by
/// level of a balanced reduction tree. With `parallel`, the pairs of each
/// level are consolidated on `min(available_parallelism, pairs)` threads,
/// each taking the next unclaimed pair; results keep pair order.
///
/// The run's [`crate::budget::ConsolidationBudget`] (`opts.budget`) is
/// shared across all pair threads. On exhaustion the output degrades but
/// the call still succeeds: pairs in flight finish by emitting remaining
/// statements verbatim, later pairs are merged by plain concatenation, and
/// the result's [`ConsolidationStats::tier`] records how far degradation
/// went (see the lattice in [`crate::budget`]).
///
/// # Errors
///
/// Returns [`ConsolidateError::Empty`] for an empty input and propagates
/// compatibility errors from pairing. Budget exhaustion is *not* an error.
pub fn consolidate_many(
    programs: &[Program],
    interner: &mut Interner,
    cm: &CostModel,
    fns: &(dyn FnCost + Sync),
    opts: &Options,
    parallel: bool,
) -> Result<Consolidated, ConsolidateError> {
    if programs.is_empty() {
        return Err(ConsolidateError::Empty);
    }
    let start = Instant::now();
    let state = Arc::new(BudgetState::new(&opts.budget));
    // Every pair thread shares one entailment memo: structurally equal
    // obligations from sibling pairs are proved once. Callers that pass
    // their own `opts.memo` keep verdicts across runs.
    let shared_memo;
    let opts = if opts.memo.is_some() {
        opts
    } else {
        shared_memo = Options {
            memo: Some(Arc::new(crate::memo::EntailmentMemo::new())),
            ..opts.clone()
        };
        &shared_memo
    };
    // Rename all locals apart up front (needs &mut Interner); the reduction
    // itself only reads the interner and can run in parallel.
    let mut level: Vec<Program> = programs
        .iter()
        .enumerate()
        .map(|(k, p)| rename_locals(p, interner, &format!("u{k}$")))
        .collect();
    let mut stats = ConsolidationStats::default();
    let mut explain_pairs = Vec::new();
    let frozen: &Interner = interner;
    while level.len() > 1 {
        let mut next: Vec<Program> = Vec::with_capacity(level.len().div_ceil(2));
        let pairs: Vec<(&Program, &Program)> = level
            .chunks(2)
            .filter(|c| c.len() == 2)
            .map(|c| (&c[0], &c[1]))
            .collect();
        let merge = |&(a, b): &(&Program, &Program)| {
            consolidate_pair_budgeted(a, b, frozen, cm, fns, opts, Some(&state))
        };
        let results: Vec<Result<Consolidated, ConsolidateError>> = if parallel && pairs.len() > 1 {
            // A panicking pair degrades its pair, not the whole run:
            // concatenation is always available.
            run_claimed(pairs.len(), |k| merge(&pairs[k]))
                .into_iter()
                .map(|r| r.unwrap_or(Err(ConsolidateError::Empty)))
                .collect()
        } else {
            pairs.iter().map(merge).collect()
        };
        for (k, r) in results.into_iter().enumerate() {
            let c = match r {
                Ok(c) => c,
                Err(e @ (ConsolidateError::ParamMismatch | ConsolidateError::DuplicateIds)) => {
                    return Err(e);
                }
                // Only the poisoned-thread placeholder reaches here (the
                // `Empty` check ran before the loop): degrade this pair.
                Err(ConsolidateError::Empty) => {
                    let (a, b) = pairs[k];
                    stats.pairs_degraded += 1;
                    opts.recorder.add(names::PAIRS_DEGRADED, 1);
                    next.push(sequential_merge(a, b));
                    continue;
                }
            };
            add_stats(&mut stats, &c.stats);
            if let Some(mut rep) = c.explain {
                explain_pairs.append(&mut rep.pairs);
            }
            next.push(c.program);
        }
        if level.len() % 2 == 1 {
            next.push(level.pop().expect("odd element"));
        }
        level = next;
    }
    let program = level.pop().expect("non-empty reduction");
    stats.tier = if !state.exhausted() && stats.pairs_degraded == 0 {
        DegradationTier::Full
    } else if any_rewrites(&stats.rules) {
        DegradationTier::Partial
    } else {
        DegradationTier::Sequential
    };
    // Predicate pushdown rides the same run: extract a candidate from the
    // *original* per-query programs and prove it against the merged output.
    // Fail-open — every rejection leaves the plan exactly as without the
    // knob (see `crate::prefilter`).
    let prefilter = if opts.prefilter {
        crate::prefilter::synthesize(programs, &program, interner, cm, fns, opts).ok()
    } else {
        None
    };
    Ok(Consolidated {
        program,
        stats,
        elapsed: start.elapsed(),
        explain: opts.explain.then_some(ExplainReport {
            pairs: explain_pairs,
        }),
        prefilter,
    })
}

/// Runs `task(k)` for every `k` in `0..n` on `min(available_parallelism,
/// n)` scoped threads, each claiming the next unclaimed `k`, and returns the
/// results in `k` order; a task that panics yields `None`. More threads than
/// cores would only preempt one another — inside the shared memo's lock,
/// among other places. With one thread the calling thread runs every task.
fn run_claimed<T: Send>(n: usize, task: impl Fn(usize) -> T + Sync) -> Vec<Option<T>> {
    let threads = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(n);
    // Relaxed: the counter only hands out indices; results come back
    // through `join`.
    let next = AtomicUsize::new(0);
    let drain = || {
        let mut done = Vec::new();
        loop {
            let k = next.fetch_add(1, Ordering::Relaxed);
            if k >= n {
                return done;
            }
            done.push((k, catch_unwind(AssertUnwindSafe(|| task(k))).ok()));
        }
    };
    let mut done: Vec<(usize, Option<T>)> = if threads <= 1 {
        drain()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(drain)).collect();
            // Every task is isolated, so a thread itself cannot unwind.
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|p| resume_unwind(p)))
                .collect()
        })
    };
    done.sort_unstable_by_key(|(k, _)| *k);
    done.into_iter().map(|(_, r)| r).collect()
}

pub(crate) fn add_stats(acc: &mut ConsolidationStats, s: &ConsolidationStats) {
    let (a, r) = (&mut acc.rules, &s.rules);
    a.if_eliminated += r.if_eliminated;
    a.if3 += r.if3;
    a.if4 += r.if4;
    a.if5 += r.if5;
    a.loop2 += r.loop2;
    a.loop3 += r.loop3;
    a.loop_seq += r.loop_seq;
    a.depth_fallbacks += r.depth_fallbacks;
    a.budget_fallbacks += r.budget_fallbacks;
    acc.entailment_queries += s.entailment_queries;
    acc.memo_hits += s.memo_hits;
    acc.countermodel_hits += s.countermodel_hits;
    acc.countermodel_rejected += s.countermodel_rejected;
    acc.solver += s.solver;
    acc.pairs_consolidated += s.pairs_consolidated;
    acc.pairs_degraded += s.pairs_degraded;
}

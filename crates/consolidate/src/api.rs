//! Public entry points: pairwise consolidation (`Π₁ ⊗ Π₂`) and the parallel
//! divide-and-conquer consolidation of `n` programs (paper §6.1).

use crate::budget::{BudgetState, DegradationTier};
use crate::explain::ExplainReport;
use crate::rules::{Engine, Options, RuleStats};
use crate::symbolic::{SymState, SymbolicCtx};
use std::collections::BTreeSet;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
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
    /// (`consolidate_many` concatenates one `crate::explain::PairExplain`
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
/// of §6.1: locals are renamed apart once, then pairs are merged along a
/// balanced reduction tree, each pair as soon as both of its inputs exist.
/// With `parallel`, pairs are consolidated on `min(available_parallelism,
/// first-level pairs)` threads, each taking the lowest-numbered ready pair;
/// without it, one level after another on the calling thread. Either way
/// the tree, its pairs and the order results are committed in are those of
/// level-by-level reduction.
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
    let leaves: Vec<Program> = programs
        .iter()
        .enumerate()
        .map(|(k, p)| rename_locals(p, interner, &format!("u{k}$")))
        .collect();
    let frozen: &Interner = interner;
    let merge = |a: &Program, b: &Program| {
        consolidate_pair_budgeted(a, b, frozen, cm, fns, opts, Some(&state))
    };
    let (program, outcomes) = reduce(leaves, parallel, merge);
    let mut stats = ConsolidationStats::default();
    let mut explain_pairs = Vec::new();
    for outcome in outcomes {
        match outcome {
            Merge::Done(s, explain) => {
                add_stats(&mut stats, &s);
                if let Some(mut rep) = explain {
                    explain_pairs.append(&mut rep.pairs);
                }
            }
            // A panicking pair degrades its pair, not the whole run:
            // concatenation is always available.
            Merge::Panicked => {
                stats.pairs_degraded += 1;
                opts.recorder.add(names::PAIRS_DEGRADED, 1);
            }
            Merge::Failed(e) => return Err(e),
        }
    }
    let program = program.ok_or(ConsolidateError::Empty)?;
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

/// How one merge of the reduction tree ended.
enum Merge {
    /// Consolidated: its statistics and explain report.
    Done(Box<ConsolidationStats>, Option<ExplainReport>),
    /// The pair panicked; its output is the sequential merge.
    Panicked,
    /// The pair was refused; nothing that depends on it runs.
    Failed(ConsolidateError),
}

/// The reduction tree of §6.1 over `leaves`: each level pairs its nodes in
/// order, and an odd last node moves up a level after the level's merges.
/// Returns the root's program (`None` if a merge under it failed) and how
/// each merge ended, in level order.
///
/// A merge starts as soon as both of its inputs exist, not when its whole
/// level is done. With `parallel`, merges run on `min(available_parallelism,
/// pairs in the first level)` scoped threads, each claiming the
/// lowest-numbered ready merge, and a panicking merge is isolated. Without
/// it, the calling thread runs the merges in level order. More threads than
/// cores would only preempt one another — inside the shared memo's lock,
/// among other places.
fn reduce(
    leaves: Vec<Program>,
    parallel: bool,
    merge: impl Fn(&Program, &Program) -> Result<Consolidated, ConsolidateError> + Sync,
) -> (Option<Program>, Vec<Merge>) {
    // Nodes are the leaves, then the merges' outputs in level order.
    let n = leaves.len();
    let mut inputs: Vec<(usize, usize)> = Vec::new();
    let mut level: Vec<usize> = (0..n).collect();
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks_exact(2) {
            inputs.push((pair[0], pair[1]));
            next.push(n + inputs.len() - 1);
        }
        if level.len() % 2 == 1 {
            next.extend(level.last());
        }
        level = next;
    }
    let root = level.first().copied();
    let mut parent = vec![None; n + inputs.len()];
    for (j, &(a, b)) in inputs.iter().enumerate() {
        parent[a] = Some(j);
        parent[b] = Some(j);
    }
    let mut programs: Vec<Option<Program>> = leaves.into_iter().map(Some).collect();
    programs.resize_with(n + inputs.len(), || None);
    let tree = Mutex::new(Tree {
        ready: (0..inputs.len())
            .filter(|&j| inputs[j].0 < n && inputs[j].1 < n)
            .collect(),
        running: 0,
        programs,
        outcomes: (0..inputs.len()).map(|_| None).collect(),
    });
    let wake = Condvar::new();
    let work = || loop {
        let (j, a, b) = {
            let mut t = tree.lock().expect("no merge panics holding the tree");
            loop {
                if let Some(j) = t.ready.pop_first() {
                    t.running += 1;
                    let a = t.programs[inputs[j].0].take().expect("ready input");
                    let b = t.programs[inputs[j].1].take().expect("ready input");
                    break (j, a, b);
                }
                if t.running == 0 {
                    return;
                }
                t = wake.wait(t).expect("no merge panics holding the tree");
            }
        };
        let (program, outcome) = match if parallel {
            catch_unwind(AssertUnwindSafe(|| merge(&a, &b)))
        } else {
            Ok(merge(&a, &b))
        } {
            Ok(Ok(c)) => (Some(c.program), Merge::Done(Box::new(c.stats), c.explain)),
            Ok(Err(e)) => (None, Merge::Failed(e)),
            Err(_) => (Some(sequential_merge(&a, &b)), Merge::Panicked),
        };
        let mut t = tree.lock().expect("no merge panics holding the tree");
        t.running -= 1;
        t.outcomes[j] = Some(outcome);
        if program.is_some() {
            t.programs[n + j] = program;
            if let Some(up) = parent[n + j] {
                let (x, y) = inputs[up];
                if t.programs[x].is_some() && t.programs[y].is_some() {
                    t.ready.insert(up);
                }
            }
        }
        wake.notify_all();
    };
    let first_level = n / 2;
    let threads = if parallel {
        std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get)
            .min(first_level)
    } else {
        1
    };
    if threads <= 1 {
        work();
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(work)).collect();
            // Every merge is isolated, so a thread itself cannot unwind.
            for h in handles {
                h.join().unwrap_or_else(|p| resume_unwind(p));
            }
        });
    }
    let mut t = tree.into_inner().expect("no merge panics holding the tree");
    let program = root.and_then(|r| t.programs[r].take());
    // A merge that never ran sits above a failed one, which comes first.
    let outcomes = t.outcomes.into_iter().map_while(|o| o).collect();
    (program, outcomes)
}

/// The shared state of [`reduce`].
struct Tree {
    /// Merges whose inputs both exist and that no thread has claimed.
    ready: BTreeSet<usize>,
    /// Merges claimed and not finished.
    running: usize,
    /// Each node's program from when it exists until a merge takes it.
    programs: Vec<Option<Program>>,
    outcomes: Vec<Option<Merge>>,
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

#[cfg(test)]
mod tests {
    use super::*;
    use udf_lang::cost::UniformFnCost;
    use udf_lang::parse::parse_program;
    use udf_lang::pretty;

    fn queries(n: u32, interner: &mut Interner) -> Vec<Program> {
        (0..n)
            .map(|k| {
                parse_program(
                    &format!(
                        "program q{k} @{k} (v) {{ w := inc(v); if (w > {}) {{ notify true; }} else {{ notify false; }} }}",
                        k * 10
                    ),
                    interner,
                )
                .expect("test query parses")
            })
            .collect()
    }

    /// The reduction done the old way, one level at a time, with
    /// `sequential_merge` for a merge.
    fn level_by_level(mut level: Vec<Program>) -> Program {
        while level.len() > 1 {
            let mut next: Vec<Program> = level
                .chunks_exact(2)
                .map(|c| sequential_merge(&c[0], &c[1]))
                .collect();
            if level.len() % 2 == 1 {
                next.extend(level.pop());
            }
            level = next;
        }
        level.pop().expect("non-empty")
    }

    fn concatenated(a: &Program, b: &Program) -> Result<Consolidated, ConsolidateError> {
        Ok(Consolidated {
            program: sequential_merge(a, b),
            stats: ConsolidationStats {
                pairs_consolidated: 1,
                ..ConsolidationStats::default()
            },
            elapsed: Duration::ZERO,
            explain: None,
            prefilter: None,
        })
    }

    #[test]
    fn the_tree_without_level_barriers_is_the_level_by_level_tree() {
        let mut i = Interner::new();
        for n in 1..=11 {
            let leaves = queries(n, &mut i);
            let expected = pretty::program(&level_by_level(leaves.clone()), &i);
            for parallel in [false, true] {
                let (root, outcomes) = reduce(leaves.clone(), parallel, concatenated);
                let root = root.expect("no merge fails");
                assert_eq!(pretty::program(&root, &i), expected, "n = {n}");
                assert_eq!(outcomes.len(), n as usize - 1);
                assert!(outcomes.iter().all(|o| matches!(o, Merge::Done(..))));
            }
        }
    }

    #[test]
    fn a_failed_merge_runs_nothing_above_it() {
        // Seven leaves: level 0 merges (0,1) (2,3) (4,5), level 1 merges
        // {01, 23} and {45, 6}, then the root. Refusing (2,3) leaves the
        // merges of 01 with it, and the root, unrun; {45, 6} still runs.
        let mut i = Interner::new();
        let leaves = queries(7, &mut i);
        let (two, three) = (leaves[2].id, leaves[3].id);
        for parallel in [false, true] {
            let ran = Mutex::new(Vec::new());
            let (root, outcomes) = reduce(leaves.clone(), parallel, |a, b| {
                ran.lock().expect("no panic").push(a.id);
                if (a.id, b.id) == (two, three) {
                    Err(ConsolidateError::DuplicateIds)
                } else {
                    concatenated(a, b)
                }
            });
            assert!(root.is_none());
            assert!(matches!(
                outcomes[1],
                Merge::Failed(ConsolidateError::DuplicateIds)
            ));
            assert_eq!(
                outcomes.len(),
                3,
                "the level-0 merges; the rest are not all done"
            );
            let mut ran = ran.into_inner().expect("no panic");
            ran.sort_unstable();
            assert_eq!(ran.len(), 4, "three level-0 merges and {{45, 6}}");
        }
    }

    #[test]
    fn parallel_and_serial_consolidation_agree() {
        let mut i = Interner::new();
        let programs = queries(9, &mut i);
        let (cm, fns) = (CostModel::default(), UniformFnCost(10));
        let opts = Options::default();
        // Each run renames apart in an interner of its own, so the fresh
        // names match too.
        let (mut i1, mut i2) = (i.clone(), i.clone());
        let serial = consolidate_many(&programs, &mut i1, &cm, &fns, &opts, false).expect("ok");
        let parallel = consolidate_many(&programs, &mut i2, &cm, &fns, &opts, true).expect("ok");
        assert_eq!(
            pretty::program(&serial.program, &i1),
            pretty::program(&parallel.program, &i2)
        );
        assert_eq!(serial.stats.rules, parallel.stats.rules);
        assert_eq!(serial.stats.pairs_consolidated, 8);
        assert_eq!(parallel.stats.pairs_consolidated, 8);
    }
}

//! Parallel execution of user-defined aggregations.
//!
//! [`Engine::run_agg`] evaluates a set of UDAF definitions over a shared
//! record scan. Proved-homomorphic definitions (see
//! `consolidate::homomorphism`) are folded in parallel: the input is cut
//! into fixed-size chunks — the chunk grid depends only on the record
//! count, never on the worker count — the crate's task runner folds each
//! chunk from the initial state, and the partial states are merged in a
//! deterministic contiguous binary tree by chunk index.
//! Results are therefore bit-identical at every worker count. Definitions
//! whose proof failed (or was never attempted) run on a single sequential
//! shard — the sound fallback tier.
//!
//! The two [`AggMode`]s mirror `whereMany`/`whereConsolidated`:
//!
//! * [`AggMode::Separate`] scans the input once *per definition* (each scan
//!   decodes the record and runs one fold);
//! * [`AggMode::Consolidated`] scans the input once *in total*: each record
//!   is decoded once and every definition's fold runs over the shared
//!   decode — the aggregation analogue of the paper's consolidated pass.
//!
//! Both modes use identical chunking, fold order and merge trees, so their
//! outputs (states *and* quarantine reports) are bit-identical; only the
//! scan count differs.
//!
//! Failure handling preserves the engine's quarantine invariants at
//! (record, definition) granularity: a fold that faults or panics
//! quarantines that record *for that definition only* — the definition's
//! state simply does not absorb the record, other definitions fold it
//! normally. State commits are all-or-nothing per fold step: a fold that
//! dies mid-body leaves no partial mutation behind. Isolation, transient
//! retry and admission are the record path's own ([`crate::engine`]); a
//! chunk that panics outside its folds (a record that cannot be decoded) is
//! [`EngineError::WorkerPanicked`] naming that chunk.
//!
//! Folds and merges run on the same register bytecode as every record
//! query: each job compiles a definition's [`AggDef::fold_view`] (variables
//! `state ++ params`) and [`AggDef::merge_view`] (`state ++ rhs`) once with
//! [`RegProgram::compile`] and runs them on [`RegVm`]. A fold sees the
//! current state in front of the record's arguments; after `Halt` the new
//! state is the first `state.len()` variable slots, since every assignment
//! stores into its variable's slot. Registers start at 0 where the reference
//! interpreter would raise an unbound-variable error, which is why
//! [`AggDef::validate`] refuses any read that is not definitely assigned.

use std::time::{Duration, Instant};

use crate::engine::{Engine, EngineConfig, EngineError, QuarantineReport};
use crate::env::{ScalarEnv, UdfEnv};
use crate::policy::{attempt, finalize_quarantine, run_tasks, Outcome};
use crate::regcode::{RegProgram, RegVm};
use crate::VmError;
use consolidate::budget::DegradationTier;
use udf_lang::agg::AggDef;
use udf_lang::ast::{ProgId, Program};
use udf_lang::cost::{Cost, CostModel};
use udf_lang::intern::{Interner, Symbol};
use udf_lang::library::{FnLibrary, LibError};
use udf_obs::names;

/// Records per fold chunk. Fixed (worker-count independent) so the chunk
/// grid — and with it every partial fold and the merge tree — is a pure
/// function of the input length.
pub const AGG_CHUNK: usize = 256;

/// Which scan strategy evaluates the definitions (see module docs).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AggMode {
    /// One scan per definition (the paper's `whereMany` analogue).
    Separate,
    /// One shared scan for all definitions.
    Consolidated,
}

/// A proved-and-ready set of aggregation definitions sharing one scan.
#[derive(Clone, Debug)]
pub struct AggQuerySet {
    /// The definitions, in output order.
    pub defs: Vec<AggDef>,
    /// Positional homomorphism verdicts; `false` pins the definition to the
    /// sequential fallback shard.
    pub proved: Vec<bool>,
    /// Cost model the fold and merge bodies are compiled under.
    pub cost_model: CostModel,
    /// Wall-clock time the prover spent on this set.
    pub consolidation_time: Duration,
    /// Proof-side degradation tier (`Full` = every definition parallel).
    pub tier: DegradationTier,
}

impl AggQuerySet {
    /// Wraps definitions with explicit proof verdicts (lengths must match).
    pub fn new(defs: Vec<AggDef>, proved: Vec<bool>) -> AggQuerySet {
        debug_assert_eq!(defs.len(), proved.len());
        let tier = tier_of(&proved);
        AggQuerySet {
            defs,
            proved,
            cost_model: CostModel::default(),
            consolidation_time: Duration::ZERO,
            tier,
        }
    }

    /// Wraps definitions with every proof obligation *assumed unproved*:
    /// all of them run sequentially. The safe default.
    pub fn sequential(defs: Vec<AggDef>) -> AggQuerySet {
        let n = defs.len();
        AggQuerySet::new(defs, vec![false; n])
    }

    /// Proves the homomorphism obligations via
    /// [`consolidate::homomorphism::consolidate_aggs`] and wraps the result.
    ///
    /// # Errors
    ///
    /// Propagates [`consolidate::api::ConsolidateError`] on malformed sets.
    pub fn prove(
        defs: Vec<AggDef>,
        interner: &mut Interner,
        opts: &consolidate::Options,
    ) -> Result<AggQuerySet, consolidate::api::ConsolidateError> {
        let proof = consolidate::homomorphism::consolidate_aggs(&defs, interner, opts)?;
        let mut qs = AggQuerySet::new(defs, proof.proved_flags());
        qs.consolidation_time = proof.elapsed;
        qs.tier = proof.tier;
        Ok(qs)
    }
}

fn tier_of(proved: &[bool]) -> DegradationTier {
    match proved.iter().filter(|p| **p).count() {
        n if n == proved.len() && n > 0 => DegradationTier::Full,
        0 => DegradationTier::Sequential,
        _ => DegradationTier::Partial,
    }
}

/// Outcome of one [`Engine::run_agg`] job.
#[derive(Clone, Debug)]
pub struct AggReport {
    /// Definition ids, in output order.
    pub ids: Vec<ProgId>,
    /// Which definitions ran parallel (copied from the query set, except
    /// that a definition whose merge faulted at run time is demoted to the
    /// sequential shard and reported `false` here).
    pub proved: Vec<bool>,
    /// Per-definition final state vectors, slot declaration order.
    pub states: Vec<Vec<i64>>,
    /// What was dropped instead of failing. Entries are (record,
    /// definition) pairs — `records_quarantined` counts pair-exclusions,
    /// not distinct records — globally sorted by (record, definition
    /// position) and therefore worker-count deterministic.
    pub quarantine: QuarantineReport,
    /// Successful fold steps whose state the report keeps (surviving
    /// (record, definition) pairs; the discarded parallel pass of a
    /// merge-demoted definition is not counted, its sequential re-fold is).
    pub folds: u64,
    /// Partial-state merges executed (including any later discarded by a
    /// merge-fault demotion).
    pub merges: u64,
    /// Records in the input (each scan covers all of them).
    pub records: usize,
    /// Wall-clock time of the fold phase (all scans).
    pub udf_time: Duration,
    /// Wall-clock time of the merge phase.
    pub merge_time: Duration,
    /// Degradation tier of the executed set (after run-time demotions).
    pub tier: DegradationTier,
    /// Snapshot of [`crate::EngineConfig::recorder`] at job end (`None`
    /// when the recorder is the no-op default).
    pub metrics: Option<udf_obs::MetricsSnapshot>,
}

impl Engine {
    /// Runs a set of user-defined aggregations over `records`.
    ///
    /// See the module docs for the execution model. The parameter list of
    /// every definition must match `env.arity()`. `_interner` is unused:
    /// the bodies are compiled, and no error message needs a name.
    ///
    /// # Errors
    ///
    /// * [`EngineError::Record`] / [`EngineError::RecordPanic`] — first
    ///   faulting (record, definition) pair under
    ///   [`crate::ErrorPolicy::FailFast`];
    /// * [`EngineError::TooManyErrors`] — quarantine overflow under
    ///   [`crate::ErrorPolicy::Quarantine`];
    /// * [`EngineError::WorkerPanicked`] — a chunk (or the sequential
    ///   shard, index 0) panicked outside its folds;
    /// * [`EngineError::Compile`] — a body exceeds the register bytecode's
    ///   field widths.
    pub fn run_agg<E: UdfEnv>(
        &self,
        env: &E,
        records: &[E::Rec],
        queries: &AggQuerySet,
        _interner: &Interner,
        mode: AggMode,
    ) -> Result<AggReport, EngineError> {
        for def in &queries.defs {
            if def.params.len() != env.arity() {
                return Err(EngineError::Record {
                    record: 0,
                    error: VmError::Lib(LibError::ArityMismatch {
                        name: "<aggregate>".to_string(),
                        expected: env.arity(),
                        got: def.params.len(),
                    }),
                });
            }
        }
        // Each definition's fold (over `state ++ params`) and merge (over
        // `state ++ rhs`), compiled once for the job.
        let compile = |def: &AggDef, view: Program| {
            RegProgram::compile(&view, &[], &queries.cost_model, &|f| env.fn_cost(f))
                .map_err(|error| EngineError::Compile { query: def.id, error })
        };
        let mut fold_code = Vec::with_capacity(queries.defs.len());
        let mut merge_code = Vec::with_capacity(queries.defs.len());
        for def in &queries.defs {
            fold_code.push(compile(def, def.fold_view())?);
            merge_code.push(compile(def, def.merge_view())?);
        }
        let cfg = self.config();
        let ctx = FoldCtx {
            env,
            folds: &fold_code,
            fuel: cfg.fuel.unwrap_or(crate::DEFAULT_FUEL),
            config: cfg,
            workers: self.workers(),
        };
        let mut merge_vm = RegVm::new().with_fuel(ctx.fuel);

        let mut folds = 0u64;
        let mut merges = 0u64;
        let n_defs = queries.defs.len();
        let mut states: Vec<Vec<i64>> = vec![Vec::new(); n_defs];
        // Per definition: its quarantine entries and retry tally.
        let mut reports: Vec<QuarantineReport> = vec![QuarantineReport::default(); n_defs];
        let mut proved_out = queries.proved.clone();

        let fold_start = Instant::now();
        let mut merge_time = Duration::ZERO;

        let proved_idx: Vec<usize> = (0..n_defs).filter(|&i| queries.proved[i]).collect();

        // Parallel phase: proved definitions, chunked + tree-merged.
        // Separate mode runs one parallel pass per definition; consolidated
        // mode runs a single pass decoding each record once for all of them.
        let par_groups: Vec<Vec<usize>> = group_for_mode(mode, &proved_idx);
        for group in &par_groups {
            let chunks = ctx.fold_spans(records, AGG_CHUNK, queries, group)?;
            // Deterministic contiguous tree merge per definition, driver
            // side: chunk partials are reduced pairwise by chunk index, a
            // pure function of the record count.
            let mt = Instant::now();
            for (gi, &di) in group.iter().enumerate() {
                let def = &queries.defs[di];
                let merge_env = ScalarEnv::new(2 * def.state.len(), FnLibrary::new());
                let mut layer: Vec<Vec<i64>> = chunks.iter().map(|c| c[gi].state.clone()).collect();
                if layer.is_empty() {
                    layer.push(def.init_state());
                }
                let mut merge_ok = true;
                while layer.len() > 1 && merge_ok {
                    let mut next = Vec::with_capacity(layer.len().div_ceil(2));
                    for pair in layer.chunks(2) {
                        if pair.len() == 1 {
                            next.push(pair[0].clone());
                            continue;
                        }
                        let merged = merge_states(
                            &mut merge_vm,
                            &merge_code[di],
                            &merge_env,
                            &pair[0],
                            &pair[1],
                        );
                        match merged {
                            Ok(s) => {
                                merges += 1;
                                next.push(s);
                            }
                            Err(_) => {
                                merge_ok = false;
                                break;
                            }
                        }
                    }
                    layer = next;
                }
                if merge_ok {
                    states[di] = layer.swap_remove(0);
                } else {
                    // A proved definition whose merge still faulted at run
                    // time (symbolic proofs are total, execution is not: a
                    // loop past the fuel budget). Demote to the sequential
                    // shard — slower, identical to the single-pass semantics.
                    proved_out[di] = false;
                }
            }
            merge_time += mt.elapsed();
            for c in chunks {
                for (gi, pass) in c.into_iter().enumerate() {
                    // A demoted definition's pass is discarded: its
                    // sequential re-fold supplies entries, retry tally and
                    // fold count.
                    if proved_out[group[gi]] {
                        reports[group[gi]].absorb(pass.quarantine);
                        folds += pass.folds;
                    }
                }
            }
        }

        // Sequential phase: unproved definitions plus run-time demotions,
        // single shard over the whole input. Consolidated mode shares one
        // scan across all of them; separate mode scans per definition.
        let seq_all: Vec<usize> = (0..n_defs).filter(|&i| !proved_out[i]).collect();
        for group in &group_for_mode(mode, &seq_all) {
            for shard in ctx.fold_spans(records, records.len().max(1), queries, group)? {
                for (pass, &di) in shard.into_iter().zip(group) {
                    states[di] = pass.state;
                    reports[di] = pass.quarantine;
                    folds += pass.folds;
                }
            }
        }
        let udf_time = fold_start.elapsed().saturating_sub(merge_time);

        // Definitions append in position order and the finalising sort by
        // record is stable, so entries end up globally sorted by (record,
        // definition position).
        let mut quarantine = QuarantineReport::default();
        for r in reports {
            quarantine.absorb(r);
        }
        let quarantine = finalize_quarantine(quarantine, cfg)?;

        // Emit the metrics surface from the same counters the report
        // carries, so recorder and report agree by construction. That is
        // why the quarantine counters wait for the finalised report rather
        // than fault time: entries of merge-demoted definitions are
        // discarded and re-folded, and must not count twice.
        let recorder = &cfg.recorder;
        recorder.add(names::AGG_FOLDS, folds);
        recorder.add(names::AGG_MERGES, merges);
        recorder.add(names::ENGINE_RECORDS, records.len() as u64);
        recorder.add(names::ENGINE_QUARANTINED, quarantine.records_quarantined as u64);
        for e in &quarantine.entries {
            recorder.add(e.kind.counter(), 1);
        }
        recorder.add(names::ENGINE_RETRIES, quarantine.retry_attempts);

        Ok(AggReport {
            ids: queries.defs.iter().map(|d| d.id).collect(),
            tier: tier_of(&proved_out),
            proved: proved_out,
            states,
            quarantine,
            folds,
            merges,
            records: records.len(),
            udf_time,
            merge_time,
            metrics: recorder.snapshot(),
        })
    }
}

/// Consolidated mode folds a group of definitions over one scan; separate
/// mode gives each its own scan.
fn group_for_mode(mode: AggMode, idx: &[usize]) -> Vec<Vec<usize>> {
    match mode {
        AggMode::Separate => idx.iter().map(|&i| vec![i]).collect(),
        AggMode::Consolidated if idx.is_empty() => Vec::new(),
        AggMode::Consolidated => vec![idx.to_vec()],
    }
}

/// A record as a compiled fold sees it: the current state in front of the
/// record's already-decoded arguments (the `state ++ params` of
/// [`AggDef::fold_view`]); calls go to the real environment.
struct FoldEnv<'a, E: UdfEnv> {
    env: &'a E,
    state: &'a [i64],
    args: &'a [i64],
}

impl<E: UdfEnv> UdfEnv for FoldEnv<'_, E> {
    type Rec = E::Rec;

    fn arity(&self) -> usize {
        self.state.len() + self.args.len()
    }

    fn args(&self, _rec: &E::Rec, out: &mut Vec<i64>) {
        out.extend_from_slice(self.state);
        out.extend_from_slice(self.args);
    }

    fn call(&self, rec: &E::Rec, f: Symbol, args: &[i64]) -> Result<i64, LibError> {
        self.env.call(rec, f, args)
    }

    fn fn_cost(&self, f: Symbol) -> Cost {
        self.env.fn_cost(f)
    }
}

/// Immutable fold-execution context shared by workers.
struct FoldCtx<'a, E: UdfEnv> {
    env: &'a E,
    /// Compiled folds, by definition position.
    folds: &'a [RegProgram],
    fuel: u64,
    config: &'a EngineConfig,
    workers: usize,
}

/// One definition's share of a pass over one span: its state, what it
/// quarantined (entries and retry tally), and its successful folds.
struct DefPass {
    state: Vec<i64>,
    quarantine: QuarantineReport,
    folds: u64,
}

impl<'a, E: UdfEnv> FoldCtx<'a, E> {
    /// Folds the whole input for one pass group in spans of `span`
    /// records on the task runner, returning each span's passes in span
    /// order. The first error in span order is returned, so it is the same
    /// at every worker count.
    fn fold_spans(
        &self,
        records: &[E::Rec],
        span: usize,
        queries: &AggQuerySet,
        group: &[usize],
    ) -> Result<Vec<Vec<DefPass>>, EngineError> {
        let n_spans = records.len().div_ceil(span).max(1);
        run_tasks(self.workers, n_spans, |c| {
            let lo = c * span;
            self.fold_span(&records[lo..(lo + span).min(records.len())], lo, queries, group)
        })
        .into_iter()
        .enumerate()
        .map(|(c, r)| {
            r.unwrap_or_else(|message| Err(EngineError::WorkerPanicked { shard: c, message }))
        })
        .collect()
    }

    /// Folds `span` (whose first record is record `base`) sequentially for
    /// the given definitions, decoding each record once for the whole group.
    fn fold_span(
        &self,
        span: &[E::Rec],
        base: usize,
        queries: &AggQuerySet,
        group: &[usize],
    ) -> Result<Vec<DefPass>, EngineError> {
        let mut passes: Vec<DefPass> = group
            .iter()
            .map(|&di| DefPass {
                state: queries.defs[di].init_state(),
                quarantine: QuarantineReport::default(),
                folds: 0,
            })
            .collect();
        let recorder = &self.config.recorder;
        let timing = recorder.enabled();
        let mut vm = RegVm::new().with_fuel(self.fuel);
        let mut args: Vec<i64> = Vec::with_capacity(self.env.arity());
        for (off, rec) in span.iter().enumerate() {
            args.clear();
            self.env.args(rec, &mut args);
            let _timer = timing.then(|| recorder.span(names::ENGINE_FOLD_NS));
            for (pass, &di) in passes.iter_mut().zip(group) {
                let id = Some(queries.defs[di].id);
                let Err(fault) = self.fold_one(&mut vm, di, rec, &args, &mut pass.state, id)
                else {
                    pass.folds += 1;
                    continue;
                };
                let (outcome, retries) = pass.quarantine.retry(self.config.max_retries, fault, || {
                    self.fold_one(&mut vm, di, rec, &args, &mut pass.state, id)
                });
                match outcome {
                    Ok(_) => pass.folds += 1,
                    Err(fault) => {
                        pass.quarantine.admit(self.config, base + off, fault, retries, || {
                            args.clone()
                        })?;
                    }
                }
            }
        }
        Ok(passes)
    }

    /// One isolated fold step of definition `di` with all-or-nothing
    /// commit: the state is overwritten only by a run that reached `Halt`.
    fn fold_one(
        &self,
        vm: &mut RegVm,
        di: usize,
        rec: &E::Rec,
        args: &[i64],
        state: &mut [i64],
        id: Option<ProgId>,
    ) -> Outcome {
        let env = FoldEnv {
            env: self.env,
            state,
            args,
        };
        let cost = attempt(vm, self.fuel, &self.folds[di], &env, rec, &mut [], false)
            .map_err(|f| (id, f))?;
        state.copy_from_slice(&vm.registers()[..state.len()]);
        Ok(cost)
    }
}

/// Merges two partial states through the definition's compiled merge body,
/// run on `left ++ right` over `env` (a call-free body needs no library).
/// A fault (a loop past the fuel budget) is returned for the caller to
/// demote the definition.
fn merge_states(
    vm: &mut RegVm,
    merge: &RegProgram,
    env: &ScalarEnv,
    left: &[i64],
    right: &[i64],
) -> Result<Vec<i64>, VmError> {
    let rec: Vec<i64> = left.iter().chain(right).copied().collect();
    vm.run(merge, env, &rec, &mut [], false)?;
    Ok(vm.registers()[..left.len()].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ErrorKind, ErrorPolicy};
    use crate::env::ScalarEnv;
    use crate::fault::{silence_injected_panics, FaultKind, FaultPlan, FaultyEnv};
    use udf_lang::agg::parse_aggs;
    use udf_lang::library::FnLibrary;

    fn sum_count_defs(interner: &mut Interner) -> Vec<AggDef> {
        parse_aggs(
            "aggregate sum @1 (x) {
                 state s = 0;
                 fold { s := s + x; }
                 merge { s := s + rhs_s; }
             }
             aggregate count @2 (x) {
                 state c = 0;
                 fold { c := c + 1; }
                 merge { c := c + rhs_c; }
             }",
            interner,
        )
        .expect("parse")
    }

    fn scalar_records(n: usize) -> Vec<Vec<i64>> {
        (0..n).map(|i| vec![(i as i64 * 7) % 101 - 13]).collect()
    }

    fn quarantine_engine(workers: usize) -> Engine {
        Engine::new(workers).with_config(EngineConfig {
            error_policy: ErrorPolicy::Quarantine { max_errors: 1000 },
            ..EngineConfig::default()
        })
    }

    #[test]
    fn sum_count_bit_identical_across_modes_and_workers() {
        let mut interner = Interner::new();
        let defs = sum_count_defs(&mut interner);
        let records = scalar_records(1000);
        let expect_sum: i64 = records.iter().map(|r| r[0]).sum();
        let env = ScalarEnv::new(1, FnLibrary::new());
        let queries = AggQuerySet::new(defs, vec![true, true]);
        let mut seen: Option<Vec<Vec<i64>>> = None;
        for workers in [1usize, 2, 8] {
            for mode in [AggMode::Separate, AggMode::Consolidated] {
                let engine = quarantine_engine(workers);
                let rep = engine
                    .run_agg(&env, &records, &queries, &interner, mode)
                    .expect("run");
                assert_eq!(rep.states[0], vec![expect_sum]);
                assert_eq!(rep.states[1], vec![1000]);
                assert!(rep.quarantine.entries.is_empty());
                assert_eq!(rep.folds, 2000);
                assert!(rep.merges > 0, "1000 records span multiple chunks");
                assert_eq!(rep.tier, DegradationTier::Full);
                match &seen {
                    None => seen = Some(rep.states.clone()),
                    Some(s) => assert_eq!(s, &rep.states),
                }
            }
        }
    }

    #[test]
    fn unproved_defs_fold_sequentially_to_the_same_states() {
        let mut interner = Interner::new();
        let defs = sum_count_defs(&mut interner);
        let records = scalar_records(700);
        let env = ScalarEnv::new(1, FnLibrary::new());
        let proved = AggQuerySet::new(defs.clone(), vec![true, true]);
        let seq = AggQuerySet::sequential(defs);
        let engine = quarantine_engine(4);
        let a = engine
            .run_agg(&env, &records, &proved, &interner, AggMode::Consolidated)
            .expect("proved");
        let b = engine
            .run_agg(&env, &records, &seq, &interner, AggMode::Consolidated)
            .expect("sequential");
        assert_eq!(a.states, b.states);
        assert_eq!(a.tier, DegradationTier::Full);
        assert_eq!(b.tier, DegradationTier::Sequential);
        assert_eq!(b.merges, 0, "sequential shard never merges");
    }

    #[test]
    fn panic_quarantines_only_the_owning_udaf() {
        silence_injected_panics();
        let mut interner = Interner::new();
        let boom = interner.intern("boom");
        let defs = parse_aggs(
            "aggregate risky @1 (x) {
                 state b = 0;
                 fold { v := boom(x); b := b + v; }
                 merge { b := b + rhs_b; }
             }
             aggregate safe @2 (x) {
                 state s = 0;
                 fold { s := s + x; }
                 merge { s := s + rhs_s; }
             }",
            &mut interner,
        )
        .expect("parse");
        let mut lib = FnLibrary::new();
        lib.register(boom, "boom", 1, 1, |a| a[0] * 2);
        let inner = ScalarEnv::new(1, lib);
        let env = FaultyEnv::new(inner, boom, FaultPlan::single(5, FaultKind::Panic));
        let records = FaultyEnv::<ScalarEnv>::index_records(scalar_records(600));
        let queries = AggQuerySet::new(defs, vec![true, true]);
        for workers in [1usize, 2, 8] {
            for mode in [AggMode::Separate, AggMode::Consolidated] {
                let rep = quarantine_engine(workers)
                    .run_agg(&env, &records, &queries, &interner, mode)
                    .expect("run");
                let expect_risky: i64 = records
                    .iter()
                    .filter(|(i, _)| *i != 5)
                    .map(|(_, r)| r[0] * 2)
                    .sum();
                let expect_safe: i64 = records.iter().map(|(_, r)| r[0]).sum();
                assert_eq!(rep.states[0], vec![expect_risky], "record 5 excluded");
                assert_eq!(rep.states[1], vec![expect_safe], "safe def absorbs all");
                assert_eq!(rep.quarantine.entries.len(), 1);
                let e = &rep.quarantine.entries[0];
                assert_eq!(e.record, 5);
                assert_eq!(e.query, Some(udf_lang::ast::ProgId(1)));
                assert_eq!(e.kind, ErrorKind::Panic);
            }
        }
    }

    #[test]
    fn fail_fast_raises_the_first_faulting_pair() {
        silence_injected_panics();
        let mut interner = Interner::new();
        let boom = interner.intern("boom");
        let defs = parse_aggs(
            "aggregate risky @1 (x) {
                 state b = 0;
                 fold { v := boom(x); b := b + v; }
                 merge { b := b + rhs_b; }
             }",
            &mut interner,
        )
        .expect("parse");
        let mut lib = FnLibrary::new();
        lib.register(boom, "boom", 1, 1, |a| a[0]);
        let env = FaultyEnv::new(
            ScalarEnv::new(1, lib),
            boom,
            FaultPlan::single(300, FaultKind::Panic),
        );
        let records = FaultyEnv::<ScalarEnv>::index_records(scalar_records(600));
        let queries = AggQuerySet::new(defs, vec![true]);
        let err = Engine::new(4)
            .run_agg(&env, &records, &queries, &interner, AggMode::Consolidated)
            .expect_err("fail fast");
        match err {
            EngineError::RecordPanic { record, .. } => assert_eq!(record, 300),
            other => panic!("expected RecordPanic, got {other:?}"),
        }
    }

    #[test]
    fn transient_faults_retry_and_recover() {
        let mut interner = Interner::new();
        let tick = interner.intern("tick");
        let defs = parse_aggs(
            "aggregate total @1 (x) {
                 state s = 0;
                 fold { s := s + tick(x); }
                 merge { s := s + rhs_s; }
             }",
            &mut interner,
        )
        .expect("parse");
        let mut lib = FnLibrary::new();
        lib.register(tick, "tick", 1, 1, |a| a[0]);
        let env = FaultyEnv::new(
            ScalarEnv::new(1, lib),
            tick,
            FaultPlan::single(7, FaultKind::Transient(2)),
        );
        let records = FaultyEnv::<ScalarEnv>::index_records(scalar_records(50));
        let queries = AggQuerySet::new(defs, vec![true]);
        let expect: i64 = records.iter().map(|(_, r)| r[0]).sum();

        // Not enough retries: the record is quarantined.
        let rep = quarantine_engine(2)
            .run_agg(&env, &records, &queries, &interner, AggMode::Consolidated)
            .expect("run");
        assert_eq!(rep.quarantine.entries.len(), 1);
        assert_eq!(rep.states[0], vec![expect - records[7].1[0]]);

        // Enough retries: the record recovers.
        env.reset_transients();
        let cfg = EngineConfig {
            error_policy: ErrorPolicy::Quarantine { max_errors: 1000 },
            max_retries: 2,
            ..EngineConfig::default()
        };
        let rep = Engine::new(2)
            .with_config(cfg)
            .run_agg(&env, &records, &queries, &interner, AggMode::Consolidated)
            .expect("run");
        assert!(rep.quarantine.entries.is_empty());
        assert_eq!(rep.states[0], vec![expect]);
        assert_eq!(rep.quarantine.records_retried, 1);
        assert_eq!(rep.quarantine.records_recovered, 1);
    }

    #[test]
    fn merge_fault_demotes_to_sequential_not_wrong() {
        // A loopy merge is refused by the prover, but `AggQuerySet::new`
        // lets a caller assert anything; here the merge exhausts its fuel at
        // run time and the run-time demotion keeps execution sound anyway.
        let mut interner = Interner::new();
        let defs = parse_aggs(
            "aggregate sneaky @1 (x) {
                 state s = 0;
                 fold { s := s + x; }
                 merge {
                     i := 0;
                     while (i < 1000000) { i := i + 1; }
                     s := s + rhs_s;
                 }
             }",
            &mut interner,
        )
        .expect("parse");
        let records = scalar_records(600);
        let expect: i64 = records.iter().map(|r| r[0]).sum();
        let env = ScalarEnv::new(1, FnLibrary::new());
        let queries = AggQuerySet::new(defs, vec![true]);
        let rep = quarantine_engine(4)
            .with_fuel(1000)
            .run_agg(&env, &records, &queries, &interner, AggMode::Consolidated)
            .expect("run");
        assert_eq!(rep.proved, vec![false], "demoted at run time");
        assert_eq!(rep.tier, DegradationTier::Sequential);
        assert_eq!(rep.states[0], vec![expect], "sequential rerun is correct");
    }

    /// A body past the bytecode's field widths is refused before any
    /// record is read, naming the definition.
    #[test]
    fn oversized_body_is_a_compile_error() {
        let mut interner = Interner::new();
        let src = format!(
            "aggregate wide @7 (x) {{ state s = 0; fold {{ s := f({}); }} merge {{ s := s + rhs_s; }} }}",
            vec!["x"; 300].join(", ")
        );
        let defs = parse_aggs(&src, &mut interner).expect("parse");
        let env = ScalarEnv::new(1, FnLibrary::new());
        let err = Engine::new(1)
            .run_agg(&env, &scalar_records(3), &AggQuerySet::sequential(defs), &interner, AggMode::Consolidated)
            .expect_err("too many arguments");
        assert_eq!(
            err,
            EngineError::Compile {
                query: ProgId(7),
                error: crate::CompileError::TooManyArguments(300),
            }
        );
    }

    #[test]
    fn arity_mismatch_is_rejected_up_front() {
        let mut interner = Interner::new();
        let defs = sum_count_defs(&mut interner);
        let env = ScalarEnv::new(2, FnLibrary::new());
        let queries = AggQuerySet::new(defs, vec![true, true]);
        let err = Engine::new(1)
            .run_agg(&env, &[vec![1, 2]], &queries, &interner, AggMode::Separate)
            .expect_err("arity");
        assert!(matches!(err, EngineError::Record { record: 0, .. }));
    }
}

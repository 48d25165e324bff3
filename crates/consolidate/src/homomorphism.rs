//! Homomorphism prover for user-defined aggregations.
//!
//! Parallel aggregation splits the input into chunks, folds each chunk from
//! the initial state, and merges the partial states in a contiguous binary
//! tree. That is correct exactly when, writing `x ⊕ y` for `merge` and
//! `fold_r` for one fold step with record `r`:
//!
//! * **H1 (right identity)** — `x ⊕ init == x`, and
//! * **H2 (merge/fold commutation)** — `x ⊕ fold_r(y) == fold_r(x ⊕ y)`
//!
//! hold for *all* states `x`, `y` and records `r`. By induction over a
//! chunk's records, H1+H2 give `x ⊕ fold*(init, ws) == fold*(x, ws)`, and
//! therefore merging two adjacent partial folds equals the fold of the
//! concatenated chunks — which closes any contiguous merge tree over the
//! scan, independent of worker count.
//!
//! The prover discharges H1 and H2 with the existing machinery: both sides
//! of each law are instantiated over disjoint fresh variables (via
//! [`udf_lang::analysis::subst_stmt`]), concatenated into one straight-line
//! program, pushed through the strongest-postcondition engine, and the
//! final-state equalities are asked as one entailment `Ψ ⊨ ∧ᵢ lᵢ == mᵢ`.
//! Library calls stay uninterpreted, so a proof is valid for every library
//! binding. `Unknown`, a refuted obligation and an exhausted budget all
//! collapse to "not proved": the engine then runs that UDAF on a single
//! sequential shard — slower, never wrong.
//!
//! Verdicts are memoized in the shared [`crate::memo::EntailmentMemo`] under the
//! alpha-invariant [`agg_hash`] key (domain-separated from entailment
//! keys), so a warm cache answers without touching the solver.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use crate::api::ConsolidateError;
use crate::budget::{BudgetState, DegradationTier};
use crate::rules::Options;
use crate::symbolic::{EntailmentMode, SymState, SymbolicCtx};
use udf_lang::agg::{agg_hash, AggDef};
use udf_lang::analysis::{assigned_vars, subst_stmt};
use udf_lang::ast::{BoolExpr, CmpOp, IntExpr, Stmt};
use udf_lang::intern::{Interner, Symbol};
use udf_obs::names;

/// How one aggregation's merge-correctness obligation was settled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProofOutcome {
    /// Both H1 and H2 discharged by the solver this run.
    Proved,
    /// Verdict reused from the shared proof memo (true = proved).
    Memo(bool),
    /// The definition contains a `while` loop; strongest postconditions
    /// havoc loop targets, so the obligation is undischargeable — refused
    /// up front with no solver work.
    RefusedLoop,
    /// The consolidation budget ran out before this definition was proved.
    BudgetExhausted,
    /// An obligation was refuted or came back `Unknown` (also the blanket
    /// answer under [`EntailmentMode::Syntactic`], which cannot prove
    /// post-state equalities).
    NotProved,
}

impl ProofOutcome {
    /// Whether the definition may be folded in parallel.
    pub(crate) fn is_proved(self) -> bool {
        matches!(self, ProofOutcome::Proved | ProofOutcome::Memo(true))
    }
}

/// Aggregate statistics of one [`consolidate_aggs`] run.
#[derive(Clone, Debug, Default)]
pub struct AggProofStats {
    /// Homomorphism obligations discharged against the solver (memo hits
    /// and refused loops excluded).
    pub checks: u64,
    /// Verdicts answered from the shared proof memo.
    pub proof_memo_hits: u64,
    /// Entailment queries asked across all proofs.
    pub entailment_queries: u64,
    /// Cumulative SMT search statistics.
    pub solver: udf_smt::SolverStats,
}

/// Result of proving a set of aggregations that share one scan.
#[derive(Clone, Debug)]
pub struct AggConsolidation {
    /// Per-definition verdicts, positionally aligned with the input slice.
    pub outcomes: Vec<ProofOutcome>,
    /// `Full` when every definition proved, `Partial` when some did,
    /// `Sequential` when none did — mirroring pairwise consolidation's
    /// degradation ladder.
    pub tier: DegradationTier,
    /// Proof-side statistics.
    pub stats: AggProofStats,
    /// Wall-clock time spent proving.
    pub elapsed: std::time::Duration,
}

impl AggConsolidation {
    /// Positional `proved?` flags (the form the engine consumes).
    pub fn proved_flags(&self) -> Vec<bool> {
        self.outcomes.iter().map(|o| o.is_proved()).collect()
    }
}

/// Proves the homomorphism obligation for every definition of a shared-scan
/// aggregation set, sharing one budget and the proof memo across the set.
///
/// Definitions must agree on the record parameter list (they run over one
/// scan) and carry distinct ids (results are keyed on them).
///
/// # Errors
///
/// [`ConsolidateError::Empty`] on an empty set,
/// [`ConsolidateError::ParamMismatch`] when parameter lists differ,
/// [`ConsolidateError::DuplicateIds`] on a repeated aggregation id.
pub fn consolidate_aggs(
    defs: &[AggDef],
    interner: &mut Interner,
    opts: &Options,
) -> Result<AggConsolidation, ConsolidateError> {
    let first = defs.first().ok_or(ConsolidateError::Empty)?;
    if defs.iter().any(|d| d.params != first.params) {
        return Err(ConsolidateError::ParamMismatch);
    }
    let mut ids: Vec<u32> = defs.iter().map(|d| d.id.0).collect();
    ids.sort_unstable();
    ids.dedup();
    if ids.len() != defs.len() {
        return Err(ConsolidateError::DuplicateIds);
    }

    let start = Instant::now();
    let budget = Arc::new(BudgetState::new(&opts.budget));
    let mut stats = AggProofStats::default();
    let mut outcomes = Vec::with_capacity(defs.len());
    for def in defs {
        outcomes.push(prove_one(def, interner, opts, &budget, &mut stats));
    }
    let proved = outcomes.iter().filter(|o| o.is_proved()).count();
    let tier = if proved == defs.len() {
        DegradationTier::Full
    } else if proved > 0 {
        DegradationTier::Partial
    } else {
        DegradationTier::Sequential
    };
    Ok(AggConsolidation {
        outcomes,
        tier,
        stats,
        elapsed: start.elapsed(),
    })
}

/// Proves one definition, consulting the memo first.
fn prove_one(
    def: &AggDef,
    interner: &mut Interner,
    opts: &Options,
    budget: &Arc<BudgetState>,
    stats: &mut AggProofStats,
) -> ProofOutcome {
    let key = agg_hash(def, interner);
    if let Some(memo) = &opts.memo {
        if let Some(v) = memo.lookup_scoped(key, &[def.id.0]) {
            stats.proof_memo_hits += 1;
            opts.recorder.add(names::AGG_PROOF_MEMO_HITS, 1);
            return ProofOutcome::Memo(v);
        }
    }
    if def.has_loop() {
        return ProofOutcome::RefusedLoop;
    }
    if opts.mode == EntailmentMode::Syntactic {
        // Post-state equalities are never literal conjuncts of Ψ; don't
        // pretend to try. (Not memoized: the verdict is a property of the
        // ablation mode, not of the definition.)
        return ProofOutcome::NotProved;
    }
    if budget.exhausted() {
        return ProofOutcome::BudgetExhausted;
    }

    stats.checks += 1;
    opts.recorder.add(names::AGG_HOMOMORPHISM_CHECKS, 1);
    let ob = build_obligations(def, interner);
    let mut cx = SymbolicCtx::new(interner, opts, Some(Arc::clone(budget)), vec![def.id.0]);

    let mut proved = true;
    for law in [&ob.h1, &ob.h2] {
        let mut st = SymState::initial(&mut cx, &ob.inputs);
        st.sp_stmt(&mut cx, &law.program);
        let mut goal = BoolExpr::Const(true);
        for &(l, r) in &law.equalities {
            goal = BoolExpr::and(
                goal,
                BoolExpr::Cmp(CmpOp::Eq, IntExpr::Var(l), IntExpr::Var(r)),
            );
        }
        let phi = cx.formula_of_bool(&st, &goal);
        if !cx.entails(&st, phi) {
            proved = false;
            break;
        }
    }
    stats.entailment_queries += cx.entailment_queries();
    stats.solver += cx.solver_stats();

    if cx.budget_exhausted() && !proved {
        // Don't memoize a budget artefact as a refutation.
        return ProofOutcome::BudgetExhausted;
    }
    if let Some(m) = &opts.memo {
        m.store_scoped(key, proved, &[def.id.0]);
    }
    if proved {
        ProofOutcome::Proved
    } else {
        ProofOutcome::NotProved
    }
}

/// One law: a straight-line program plus the final-state equalities to ask.
struct Law {
    program: Stmt,
    equalities: Vec<(Symbol, Symbol)>,
}

/// The H1/H2 obligation programs for one definition, over fresh disjoint
/// variable namespaces.
struct Obligations {
    /// Universally-quantified inputs: both state copies and the record.
    inputs: Vec<Symbol>,
    h1: Law,
    h2: Law,
}

/// Instantiates a body over fresh copies of the given variables.
fn fresh_map(
    interner: &mut Interner,
    out: &mut BTreeMap<Symbol, Symbol>,
    vars: &[Symbol],
    prefix: &str,
) -> Vec<Symbol> {
    let mut copies = Vec::with_capacity(vars.len());
    for (i, &v) in vars.iter().enumerate() {
        let c = interner.intern(&format!("__h_{prefix}{i}"));
        out.insert(v, c);
        copies.push(c);
    }
    copies
}

fn build_obligations(def: &AggDef, interner: &mut Interner) -> Obligations {
    let state = def.state_names();
    let rhs = def.rhs_names();
    let fold_locals: Vec<Symbol> = assigned_vars(&def.fold)
        .into_iter()
        .filter(|v| !state.contains(v))
        .collect();
    let merge_locals: Vec<Symbol> = assigned_vars(&def.merge)
        .into_iter()
        .filter(|v| !state.contains(v))
        .collect();

    let mut m = BTreeMap::new();
    let xs = fresh_map(interner, &mut m, &state, "x"); // left input state
    let ys = fresh_map(interner, &mut m, &state, "y"); // right input state
    let mut inputs = xs.clone();
    inputs.extend(ys.iter().copied());
    let mut record = Vec::with_capacity(def.params.len());
    for (j, &p) in def.params.iter().enumerate() {
        let a = interner.intern(&format!("__h_a{j}"));
        record.push((p, a));
        inputs.push(a);
    }

    let copy_all = |dst: &[Symbol], src: &[Symbol]| {
        Stmt::seq_all(
            dst.iter()
                .zip(src)
                .map(|(&d, &s)| Stmt::Assign(d, IntExpr::Var(s))),
        )
    };
    let inst = |body: &Stmt,
                interner: &mut Interner,
                state_to: &[Symbol],
                rhs_to: Option<&[Symbol]>,
                with_record: bool,
                locals: &[Symbol],
                tag: &str| {
        let mut map: BTreeMap<Symbol, Symbol> = BTreeMap::new();
        for (&s, &t) in state.iter().zip(state_to) {
            map.insert(s, t);
        }
        if let Some(rt) = rhs_to {
            for (&r, &t) in rhs.iter().zip(rt) {
                map.insert(r, t);
            }
        }
        if with_record {
            for &(p, a) in &record {
                map.insert(p, a);
            }
        }
        for (i, &l) in locals.iter().enumerate() {
            map.insert(l, interner.intern(&format!("__h_{tag}l{i}")));
        }
        subst_stmt(body, &map)
    };

    // H1: n := x; merge(n, init) ⟹ n == x.
    let mut ib = BTreeMap::new();
    let zs = fresh_map(interner, &mut ib, &rhs, "z");
    let init_assigns = Stmt::seq_all(
        zs.iter()
            .zip(def.init_state())
            .map(|(&z, c)| Stmt::Assign(z, IntExpr::Const(c))),
    );
    let mut nb = BTreeMap::new();
    let ns = fresh_map(interner, &mut nb, &state, "n");
    let h1_prog = init_assigns.then(copy_all(&ns, &xs)).then(inst(
        &def.merge,
        interner,
        &ns,
        Some(&zs),
        false,
        &merge_locals,
        "h1",
    ));
    let h1 = Law {
        program: h1_prog,
        equalities: ns.iter().copied().zip(xs.iter().copied()).collect(),
    };

    // H2 LHS: f := y; fold(f, a); g := x; merge(g, f)  — x ⊕ fold_r(y).
    let mut fb = BTreeMap::new();
    let fs = fresh_map(interner, &mut fb, &state, "f");
    let mut gb = BTreeMap::new();
    let gs = fresh_map(interner, &mut gb, &state, "g");
    let lhs = copy_all(&fs, &ys)
        .then(inst(
            &def.fold,
            interner,
            &fs,
            None,
            true,
            &fold_locals,
            "lf",
        ))
        .then(copy_all(&gs, &xs))
        .then(inst(
            &def.merge,
            interner,
            &gs,
            Some(&fs),
            false,
            &merge_locals,
            "lm",
        ));
    // H2 RHS: w := x; merge(w, y); fold(w, a)  — fold_r(x ⊕ y).
    let mut wb = BTreeMap::new();
    let ws = fresh_map(interner, &mut wb, &state, "w");
    let rhs_prog = copy_all(&ws, &xs)
        .then(inst(
            &def.merge,
            interner,
            &ws,
            Some(&ys),
            false,
            &merge_locals,
            "rm",
        ))
        .then(inst(
            &def.fold,
            interner,
            &ws,
            None,
            true,
            &fold_locals,
            "rf",
        ));
    let h2 = Law {
        program: lhs.then(rhs_prog),
        equalities: gs.into_iter().zip(ws).collect(),
    };

    Obligations { inputs, h1, h2 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memo::EntailmentMemo;
    use udf_lang::agg::parse_agg;

    fn prove(src: &str, opts: &Options) -> (AggConsolidation, Interner) {
        let mut it = Interner::new();
        let d = parse_agg(src, &mut it).unwrap();
        let c = consolidate_aggs(&[d], &mut it, opts).unwrap();
        (c, it)
    }

    #[test]
    fn sum_and_count_prove() {
        let opts = Options::default();
        let (c, _) = prove(
            "aggregate s @1 (x) { state s = 0; fold { s := s + volumeAt(x); } merge { s := s + rhs_s; } }",
            &opts,
        );
        assert_eq!(c.outcomes, vec![ProofOutcome::Proved]);
        assert_eq!(c.tier, DegradationTier::Full);
        let (c, _) = prove(
            "aggregate c @1 (x) { state c = 0; fold { c := c + 1; } merge { c := c + rhs_c; } }",
            &opts,
        );
        assert!(c.outcomes[0].is_proved());
    }

    #[test]
    fn conditional_count_proves() {
        let opts = Options::default();
        let (c, _) = prove(
            "aggregate k @1 (x) { state c = 0;
               fold { if (100 < score(x)) { c := c + 1; } else { skip; } }
               merge { c := c + rhs_c; } }",
            &opts,
        );
        assert_eq!(c.outcomes, vec![ProofOutcome::Proved]);
    }

    #[test]
    fn last_value_is_refuted() {
        // fold overwrites; merge keeps the left value — not a homomorphism.
        let opts = Options::default();
        let (c, _) = prove(
            "aggregate last @1 (x) { state v = 0; fold { v := x; } merge { v := v + 0 * rhs_v; } }",
            &opts,
        );
        assert_eq!(c.outcomes, vec![ProofOutcome::NotProved]);
        assert_eq!(c.tier, DegradationTier::Sequential);
    }

    #[test]
    fn loopy_fold_is_refused() {
        let opts = Options::default();
        let (c, _) = prove(
            "aggregate l @1 (x) { state s = 0;
               fold { i := 0; while (i < x) { s := s + 1; i := i + 1; } }
               merge { s := s + rhs_s; } }",
            &opts,
        );
        assert_eq!(c.outcomes, vec![ProofOutcome::RefusedLoop]);
    }

    #[test]
    fn memo_round_trip_skips_solver() {
        let mut opts = Options::default();
        let memo = std::sync::Arc::new(EntailmentMemo::new());
        opts.memo = Some(std::sync::Arc::clone(&memo));
        let src =
            "aggregate s @1 (x) { state s = 0; fold { s := s + x; } merge { s := s + rhs_s; } }";
        let (c1, _) = prove(src, &opts);
        assert_eq!(c1.outcomes, vec![ProofOutcome::Proved]);
        assert_eq!(c1.stats.checks, 1);
        let (c2, _) = prove(src, &opts);
        assert_eq!(c2.outcomes, vec![ProofOutcome::Memo(true)]);
        assert_eq!(c2.stats.checks, 0);
        assert_eq!(c2.stats.proof_memo_hits, 1);
        assert_eq!(c2.stats.solver.checks, 0);
    }

    #[test]
    fn syntactic_mode_proves_nothing() {
        let opts = Options {
            mode: EntailmentMode::Syntactic,
            ..Options::default()
        };
        let (c, _) = prove(
            "aggregate s @1 (x) { state s = 0; fold { s := s + x; } merge { s := s + rhs_s; } }",
            &opts,
        );
        assert_eq!(c.outcomes, vec![ProofOutcome::NotProved]);
    }

    #[test]
    fn mixed_set_is_partial() {
        let mut it = Interner::new();
        let good = parse_agg(
            "aggregate s @1 (x) { state s = 0; fold { s := s + x; } merge { s := s + rhs_s; } }",
            &mut it,
        )
        .unwrap();
        let bad = parse_agg(
            "aggregate last @2 (x) { state v = 0; fold { v := x; } merge { v := v + 0 * rhs_v; } }",
            &mut it,
        )
        .unwrap();
        let c = consolidate_aggs(&[good, bad], &mut it, &Options::default()).unwrap();
        assert_eq!(c.proved_flags(), vec![true, false]);
        assert_eq!(c.tier, DegradationTier::Partial);
    }

    #[test]
    fn rejects_mismatched_sets() {
        let mut it = Interner::new();
        let a = parse_agg(
            "aggregate s @1 (x) { state s = 0; fold { s := s + x; } merge { s := s + rhs_s; } }",
            &mut it,
        )
        .unwrap();
        let b = parse_agg(
            "aggregate t @1 (x) { state t = 0; fold { t := t + x; } merge { t := t + rhs_t; } }",
            &mut it,
        )
        .unwrap();
        assert_eq!(
            consolidate_aggs(&[a.clone(), b], &mut it, &Options::default()).unwrap_err(),
            ConsolidateError::DuplicateIds
        );
        let c = parse_agg(
            "aggregate u @2 (x, y) { state u = 0; fold { u := u + x; } merge { u := u + rhs_u; } }",
            &mut it,
        )
        .unwrap();
        assert_eq!(
            consolidate_aggs(&[a, c], &mut it, &Options::default()).unwrap_err(),
            ConsolidateError::ParamMismatch
        );
        assert_eq!(
            consolidate_aggs(&[], &mut it, &Options::default()).unwrap_err(),
            ConsolidateError::Empty
        );
    }

    #[test]
    fn exhausted_budget_degrades_soundly() {
        let opts = Options {
            budget: crate::budget::ConsolidationBudget::UNLIMITED.with_max_solver_queries(0),
            ..Options::default()
        };
        let (c, _) = prove(
            "aggregate s @1 (x) { state s = 0; fold { s := s + x; } merge { s := s + rhs_s; } }",
            &opts,
        );
        assert_eq!(c.outcomes, vec![ProofOutcome::BudgetExhausted]);
        assert_eq!(c.tier, DegradationTier::Sequential);
    }

    #[test]
    fn sentinel_max_is_refuted() {
        // `max` seeded with a finite sentinel is NOT an unconditional
        // homomorphism: H1 fails for states below the sentinel (the solver
        // finds x = sentinel - 1). The engine's sequential fallback keeps
        // such definitions correct.
        let opts = Options::default();
        let (c, _) = prove(
            "aggregate mx @1 (x) { state m = -1000000;
               fold { if (m < x) { m := x; } else { skip; } }
               merge { if (m < rhs_m) { m := rhs_m; } else { skip; } } }",
            &opts,
        );
        assert_eq!(c.outcomes, vec![ProofOutcome::NotProved]);
    }

    #[test]
    fn empty_flagged_max_is_proved_within_budget() {
        // The empty-flag encoding of max is a homomorphism. Its H2
        // obligation merges four nested branches, so the refutation visits
        // many boolean models of ~30 literals each; it goes through because
        // every theory conflict blocks its few-literal core rather than one
        // whole model (udf-smt, "Conflict cores").
        let opts = Options::default();
        let t = std::time::Instant::now();
        let (c, _) = prove(
            "aggregate mx @1 (x) { state has = 0; state m = 0;
               fold { if (has == 0) { m := x; has := 1; }
                      else { if (m < x) { m := x; } else { skip; } } }
               merge { if (rhs_has == 0) { skip; }
                       else { if (has == 0) { m := rhs_m; has := rhs_has; }
                              else { if (m < rhs_m) { m := rhs_m; } else { skip; } } } } }",
            &opts,
        );
        assert_eq!(c.outcomes, vec![ProofOutcome::Proved]);
        assert!(t.elapsed() < std::time::Duration::from_secs(30));
    }
}

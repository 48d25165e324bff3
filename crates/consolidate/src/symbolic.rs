//! Symbolic contexts `Ψ` and strongest postconditions.
//!
//! The calculus threads a context `Ψ` — the strongest postcondition of the
//! code consumed so far — through every rule. We realize `Ψ` as an SMT
//! formula over *versioned* variables (`x@3` is the third SSA generation of
//! program variable `x`), which makes `sp(Ψ, x := e)` a matter of bumping a
//! version and conjoining one defining equality: no substitution is ever
//! performed on `Ψ` itself.
//!
//! * [`SymbolicCtx`] owns the SMT context/solver, the program-symbol →
//!   SMT-symbol mapping, caches for entailment and model queries, and the
//!   pool of countermodels that answers "not valid" by evaluation.
//! * [`SymState`] is the per-path state: the context formula plus the current
//!   variable versions. States are cheap to clone, which is how the engine
//!   forks at conditionals (`Ψ ∧ e` / `Ψ ∧ ¬e`).
//! * [`SymState::sp_stmt`] implements the paper's `sp(Ψ, S)` for arbitrary
//!   statements (used by the Step and Seq rules), including precise
//!   branch-merge (φ-node equalities under a disjunction) and sound
//!   havoc + negated-guard treatment of loops.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::explain::{EntailmentEvent, EntailmentVia};
use crate::rules::Options;
use udf_lang::analysis::assigned_vars;
use udf_lang::ast::{BoolExpr, IntExpr, Stmt};
use udf_lang::intern::{Interner, Symbol};
use udf_obs::{names, RecorderCell};
use udf_smt::ctx::{FormulaId, TermId};
use udf_smt::{Context, Interp, SatResult, Solver};

/// How entailment questions `Ψ ⊨ φ` are answered.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EntailmentMode {
    /// Full SMT reasoning (the paper's configuration).
    Smt,
    /// Syntactic-only: `φ` must literally occur among the conjuncts of `Ψ`
    /// (used by the "no-SMT" ablation).
    Syntactic,
}

/// A satisfying assignment of the variables, as returned by the solver.
pub(crate) type Model = HashMap<udf_smt::VarId, i128>;

/// Countermodels kept per context. A constant, not a knob: the share of
/// would-be "not valid" solver calls the pool answers is flat from 4 to 256
/// (DESIGN.md, *The entailment pipeline*), and memory is this × the live
/// `Context` size.
const COUNTERMODEL_POOL: usize = 32;

/// Ψs whose cone components ([`Components`]) and canonical key prefix
/// ([`udf_smt::canon::KeyPrefix`]) a context keeps, most recently used
/// first. Questions come in runs under one state, so a few suffice; each
/// entry is the size of its Ψ.
const PER_PSI_CACHE: usize = 4;

/// At this many conjuncts an entailment asks only the cone of influence of
/// φ, not the whole Ψ.
const CONE_MIN_CONJUNCTS: usize = 24;

/// Shared symbolic machinery for one consolidation run.
pub(crate) struct SymbolicCtx<'i> {
    /// The underlying SMT context (public for tests and extensions).
    pub smt: Context,
    solver: Solver,
    interner: &'i Interner,
    mode: EntailmentMode,
    fn_syms: HashMap<Symbol, udf_smt::FnSym>,
    valid_cache: HashMap<(FormulaId, FormulaId), bool>,
    model_cache: HashMap<FormulaId, Option<Model>>,
    probe_cache: HashMap<(FormulaId, TermId), Option<(Model, i128)>>,
    fvars_cache: HashMap<FormulaId, std::rc::Rc<BTreeSet<udf_smt::VarId>>>,
    /// `(variable, version)` → its SMT term: `sp` asks for the same few
    /// versions many times over.
    smt_vars: HashMap<(Symbol, u32), TermId>,
    /// Cone components of recent Ψs (see [`SymbolicCtx::cone_of_influence`]).
    components: Vec<Components>,
    /// Canonical key prefixes of recent (cone) Ψs.
    key_prefixes: Vec<(FormulaId, udf_smt::canon::KeyPrefix)>,
    probe_counter: u64,
    entailment_queries: u64,
    entailment_cache_hits: u64,
    budget: Option<std::sync::Arc<crate::budget::BudgetState>>,
    memo: Option<std::sync::Arc<crate::memo::EntailmentMemo>>,
    /// Notify ids of the programs this context is consolidating; memo
    /// verdicts stored or reused here are tagged with them so a runtime
    /// demotion of any of those queries can invalidate the verdicts (see
    /// [`crate::memo::EntailmentMemo::invalidate_query`]).
    memo_scope: Vec<u32>,
    memo_hits: u64,
    /// Interpretations under which some earlier `Ψ ∧ ¬φ` evaluated true,
    /// most recently useful first; at most [`COUNTERMODEL_POOL`]. Tried
    /// before the solver: one that makes the *current* `Ψ ∧ ¬φ` true is a
    /// countermodel of the current question, wherever it came from.
    countermodels: Vec<Interp>,
    countermodel_hits: u64,
    countermodel_rejected: u64,
    /// Test hook: overwrite this variable's value in every model *after* it
    /// passed admission, so a kept interpretation no longer satisfies the
    /// query it was admitted for.
    #[cfg(test)]
    sabotage_admitted: Option<(udf_smt::VarId, i128)>,
    recorder: RecorderCell,
    /// Entailment events since the last drain, present iff explain mode is
    /// on (see [`crate::explain`]).
    explain_log: Option<Vec<EntailmentEvent>>,
}

impl<'i> std::fmt::Debug for SymbolicCtx<'i> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SymbolicCtx")
            .field("mode", &self.mode)
            .field("entailment_queries", &self.entailment_queries)
            .finish_non_exhaustive()
    }
}

impl<'i> SymbolicCtx<'i> {
    /// Creates a fresh symbolic context resolving names against `interner`,
    /// wired from `opts`: its entailment mode, its solver configuration, its
    /// shared memo table (verdicts proved by *any* context sharing the table
    /// — other pair threads, earlier runs — are reused without touching the
    /// solver or charging the budget) and its metrics sink. The sink serves
    /// the context's entailment counters and the solver's search counters
    /// alike, which is what makes the emitted metrics agree with the
    /// returned `ConsolidationStats` by construction.
    ///
    /// `budget` is the run's shared accounting: every solver-backed query
    /// charges it, and an exhausted budget makes all queries answer "not
    /// proved". `memo_scope` lists the notify ids of the programs under
    /// consolidation; verdicts stored in or reused from the shared memo are
    /// tagged with them, so a runtime demotion of one of those queries can
    /// drop exactly the verdicts its predicates touched.
    pub(crate) fn new(
        interner: &'i Interner,
        opts: &Options,
        budget: Option<std::sync::Arc<crate::budget::BudgetState>>,
        memo_scope: Vec<u32>,
    ) -> SymbolicCtx<'i> {
        let mut solver = opts.solver.clone();
        if opts.recorder.enabled() {
            solver.recorder = opts.recorder.clone();
        }
        SymbolicCtx {
            smt: Context::new(),
            solver,
            interner,
            mode: opts.mode,
            fn_syms: HashMap::new(),
            valid_cache: HashMap::new(),
            model_cache: HashMap::new(),
            probe_cache: HashMap::new(),
            fvars_cache: HashMap::new(),
            smt_vars: HashMap::new(),
            components: Vec::new(),
            key_prefixes: Vec::new(),
            probe_counter: 0,
            entailment_queries: 0,
            entailment_cache_hits: 0,
            budget,
            memo: opts.memo.clone(),
            memo_scope,
            memo_hits: 0,
            countermodels: Vec::new(),
            countermodel_hits: 0,
            countermodel_rejected: 0,
            #[cfg(test)]
            sabotage_admitted: None,
            recorder: opts.recorder.clone(),
            explain_log: None,
        }
    }

    /// The interner names are resolved against (for diagnostics rendering).
    pub(crate) fn interner(&self) -> &Interner {
        self.interner
    }

    /// Turns on explain mode: every subsequent [`SymbolicCtx::entails`] call
    /// appends an [`EntailmentEvent`] to an internal log that the Ω engine
    /// drains at each rule commit.
    pub(crate) fn enable_explain(&mut self) {
        self.explain_log = Some(Vec::new());
    }

    /// Takes the entailment events accumulated since the previous drain
    /// (empty when explain mode is off).
    pub(crate) fn drain_explain(&mut self) -> Vec<EntailmentEvent> {
        self.explain_log
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Counts one applied cross-simplification rewrite (Figure 3 hit).
    pub(crate) fn note_simplify_hit(&self) {
        self.recorder.add(names::SIMPLIFY_HITS, 1);
    }

    /// Appends an explain event for a just-answered entailment question.
    fn note_entailment(&mut self, phi: FormulaId, proved: bool, via: EntailmentVia) {
        if self.explain_log.is_some() {
            let query = self.smt.formula_to_string(phi);
            if let Some(log) = &mut self.explain_log {
                log.push(EntailmentEvent { query, proved, via });
            }
        }
    }

    /// Number of entailments answered from the shared memo table.
    pub(crate) fn memo_hits(&self) -> u64 {
        self.memo_hits
    }

    /// Number of entailments answered "not valid" by a kept countermodel
    /// (no solver call, no budget charge).
    pub(crate) fn countermodel_hits(&self) -> u64 {
        self.countermodel_hits
    }

    /// Number of solver `Sat` models refused by the countermodel pool: their
    /// own query does not evaluate true under them.
    pub(crate) fn countermodel_rejected(&self) -> u64 {
        self.countermodel_rejected
    }

    /// Cumulative statistics of the underlying SMT solver (checks performed,
    /// theory work) for this context.
    pub(crate) fn solver_stats(&self) -> udf_smt::SolverStats {
        self.solver.stats()
    }

    /// Whether the attached budget (if any) has run out.
    pub(crate) fn budget_exhausted(&self) -> bool {
        self.budget.as_ref().is_some_and(|b| b.exhausted())
    }

    /// Charges one solver query against the budget; `false` means the query
    /// must be treated as unproved without touching the solver.
    fn charge_budget(&self) -> bool {
        self.budget.as_ref().is_none_or(|b| b.charge_query())
    }

    /// Number of entailment queries asked so far (including cache hits).
    pub(crate) fn entailment_queries(&self) -> u64 {
        self.entailment_queries
    }

    fn smt_var(&mut self, var: Symbol, version: u32) -> TermId {
        if let Some(&t) = self.smt_vars.get(&(var, version)) {
            debug_assert_eq!(t, self.smt_var_by_name(var, version));
            return t;
        }
        let t = self.smt_var_by_name(var, version);
        self.smt_vars.insert((var, version), t);
        t
    }

    /// The SMT variable `var@version`, looked up by its name.
    fn smt_var_by_name(&mut self, var: Symbol, version: u32) -> TermId {
        let name = format!("{}@{}", self.interner.resolve(var), version);
        self.smt.int_var(&name)
    }

    fn smt_fn(&mut self, f: Symbol, arity: usize) -> udf_smt::FnSym {
        if let Some(&sym) = self.fn_syms.get(&f) {
            return sym;
        }
        let name = self.interner.resolve(f).to_owned();
        let sym = self.smt.fn_sym(&name, arity);
        self.fn_syms.insert(f, sym);
        sym
    }

    /// Translates an integer expression under the versions of `st`.
    pub(crate) fn term_of_int(&mut self, st: &SymState, e: &IntExpr) -> TermId {
        match e {
            IntExpr::Const(c) => self.smt.int(*c),
            IntExpr::Var(v) => self.smt_var(*v, st.version(*v)),
            IntExpr::Call(f, args) => {
                let ts: Vec<TermId> = args.iter().map(|a| self.term_of_int(st, a)).collect();
                let sym = self.smt_fn(*f, ts.len());
                self.smt.app(sym, ts)
            }
            IntExpr::Bin(op, a, b) => {
                let ta = self.term_of_int(st, a);
                let tb = self.term_of_int(st, b);
                match op {
                    udf_lang::ast::IntOp::Add => self.smt.add(ta, tb),
                    udf_lang::ast::IntOp::Sub => self.smt.sub(ta, tb),
                    udf_lang::ast::IntOp::Mul => self.smt.mul(ta, tb),
                }
            }
        }
    }

    /// Translates a boolean expression under the versions of `st`.
    pub(crate) fn formula_of_bool(&mut self, st: &SymState, e: &BoolExpr) -> FormulaId {
        match e {
            BoolExpr::Const(true) => self.smt.tru(),
            BoolExpr::Const(false) => self.smt.fls(),
            BoolExpr::Cmp(op, a, b) => {
                let ta = self.term_of_int(st, a);
                let tb = self.term_of_int(st, b);
                match op {
                    udf_lang::ast::CmpOp::Lt => self.smt.lt(ta, tb),
                    udf_lang::ast::CmpOp::Le => self.smt.le(ta, tb),
                    udf_lang::ast::CmpOp::Eq => self.smt.eq(ta, tb),
                }
            }
            BoolExpr::Not(a) => {
                let fa = self.formula_of_bool(st, a);
                self.smt.not(fa)
            }
            BoolExpr::Bin(op, a, b) => {
                let fa = self.formula_of_bool(st, a);
                let fb = self.formula_of_bool(st, b);
                match op {
                    udf_lang::ast::BoolOp::And => self.smt.and(fa, fb),
                    udf_lang::ast::BoolOp::Or => self.smt.or(fa, fb),
                }
            }
        }
    }

    /// Whether `Ψ ⊨ φ`; `Unknown` counts as *not entailed*. Answered by the
    /// first of: the per-pair cache, the shared memo, a kept countermodel
    /// ("not valid" only), the solver — which alone says "valid" first and
    /// alone charges the budget.
    ///
    /// Long programs accumulate hundreds of conjuncts, most of which are
    /// irrelevant to any one query; the solver query is restricted to the
    /// *cone of influence* of `φ` (conjuncts transitively sharing variables
    /// with it). Dropping conjuncts weakens `Ψ`, which can only make the
    /// answer `false` where the full context would say `true` — a missed
    /// rewrite, never an unsound one.
    pub(crate) fn entails(&mut self, st: &SymState, phi: FormulaId) -> bool {
        self.entailment_queries += 1;
        self.recorder.add(names::ENTAIL_QUERIES, 1);
        let _span = self.recorder.span(names::ENTAIL_NS);
        match self.mode {
            EntailmentMode::Syntactic => {
                let v = st.conjuncts.contains(&phi)
                    || self.smt.formula(phi) == &udf_smt::ctx::Formula::True;
                self.note_entailment(phi, v, EntailmentVia::Syntactic);
                v
            }
            EntailmentMode::Smt => {
                // Budget exhaustion downgrades every entailment to "not
                // proved" — the same sound answer an `Unknown` from the
                // solver produces, so rewrites are lost but never wrong.
                if self.budget_exhausted() {
                    self.note_entailment(phi, false, EntailmentVia::BudgetExhausted);
                    return false;
                }
                let psi = if st.conjuncts.len() >= CONE_MIN_CONJUNCTS {
                    self.cone_of_influence(st, phi)
                } else {
                    st.psi
                };
                if let Some(&v) = self.valid_cache.get(&(psi, phi)) {
                    self.entailment_cache_hits += 1;
                    self.recorder.add(names::ENTAIL_CACHE_HITS, 1);
                    self.note_entailment(phi, v, EntailmentVia::Cache);
                    return v;
                }
                // Shared memo (cross-thread, cross-run): keyed on the
                // canonical alpha-renamed form, so structurally equal
                // queries from other pair threads hit here. Hits perform no
                // solver work and therefore do not charge the budget.
                let key = self.memo.is_some().then(|| self.entailment_key(psi, phi));
                if let (Some(memo), Some(key)) = (&self.memo, key) {
                    if let Some(v) = memo.lookup_scoped(key, &self.memo_scope) {
                        self.memo_hits += 1;
                        self.recorder.add(names::ENTAIL_MEMO_HITS, 1);
                        self.valid_cache.insert((psi, phi), v);
                        self.note_entailment(phi, v, EntailmentVia::Memo);
                        return v;
                    }
                }
                // `Ψ ⊨ φ` is decided by refutation of `Ψ ∧ ¬φ`. A kept
                // countermodel that makes it true decides "not valid" by
                // evaluation; like a memo hit, that is no solver work and
                // charges no budget.
                let neg = self.smt.not(phi);
                let q = self.smt.and(psi, neg);
                let (v, via) = if self.refuted_by_countermodel(q) {
                    (false, EntailmentVia::Countermodel)
                } else {
                    if !self.charge_budget() {
                        self.note_entailment(phi, false, EntailmentVia::BudgetExhausted);
                        return false;
                    }
                    let (r, interp) = self.solver.check_with_interp(&self.smt, q);
                    if let Some(interp) = interp {
                        self.keep_countermodel(q, interp);
                    }
                    (r == SatResult::Unsat, EntailmentVia::Solver)
                };
                self.valid_cache.insert((psi, phi), v);
                if let (Some(memo), Some(key)) = (&self.memo, key) {
                    memo.store_scoped(key, v, &self.memo_scope);
                }
                self.note_entailment(phi, v, via);
                v
            }
        }
    }

    /// Whether a kept interpretation makes `q` (some `Ψ ∧ ¬φ`) true. The one
    /// that does moves to the front: `sp(Ψ, S)` grows by a conjunct at a
    /// time, so the next question is most likely refuted by the same one.
    ///
    /// The verdict rests on the evaluation alone ([`udf_smt::eval`]: a
    /// total interpretation, real arithmetic), so it is one no sound solver
    /// contradicts; debug builds ask a fresh one.
    fn refuted_by_countermodel(&mut self, q: FormulaId) -> bool {
        let _span = self.recorder.span(names::ENTAIL_COUNTERMODEL_NS);
        let smt = &self.smt;
        let Some(k) = self
            .countermodels
            .iter_mut()
            .position(|m| m.formula(smt, q) == Some(true))
        else {
            return false;
        };
        self.countermodels[..=k].rotate_right(1);
        self.countermodel_hits += 1;
        self.recorder.add(names::ENTAIL_COUNTERMODEL_HITS, 1);
        // A solver of its own: no stats, recorder, budget or injected
        // `Unknown` is shared, so debug and release runs count alike.
        debug_assert_ne!(
            Solver::new().check(&self.smt, q),
            SatResult::Unsat,
            "countermodel pool refuted a valid entailment: {}",
            self.smt.formula_to_string(q)
        );
        true
    }

    /// Offers the solver's `Sat` model of `q`, as the interpretation that
    /// extends it, to the pool. It is admitted only if `q` evaluates true
    /// under it: nonlinear products and function tables are opaque to the
    /// theory, so some `Sat` models are models of the abstraction only.
    fn keep_countermodel(&mut self, q: FormulaId, mut interp: Interp) {
        let _span = self.recorder.span(names::ENTAIL_COUNTERMODEL_NS);
        #[cfg(test)]
        let sabotaged = self.sabotage_admitted.map(|(var, value)| {
            let mut model = interp.model().clone();
            model.vars.insert(var, value);
            Interp::new(model)
        });
        if interp.formula(&self.smt, q) != Some(true) {
            self.countermodel_rejected += 1;
            self.recorder.add(names::ENTAIL_COUNTERMODEL_REJECTED, 1);
            return;
        }
        #[cfg(test)]
        let interp = sabotaged.unwrap_or(interp);
        self.countermodels.insert(0, interp);
        self.countermodels.truncate(COUNTERMODEL_POOL);
    }

    /// [`udf_smt::canon::entailment_key`]`(psi, phi)`, resumed from the
    /// kept prefix of `psi` when there is one.
    fn entailment_key(&mut self, psi: FormulaId, phi: FormulaId) -> u128 {
        match self.key_prefixes.iter().position(|(p, _)| *p == psi) {
            Some(k) => self.key_prefixes[..=k].rotate_right(1),
            None => {
                let prefix = udf_smt::canon::entailment_prefix(&self.smt, psi);
                self.key_prefixes.truncate(PER_PSI_CACHE - 1);
                self.key_prefixes.insert(0, (psi, prefix));
            }
        }
        let key = udf_smt::canon::entailment_key_from(&self.smt, &self.key_prefixes[0].1, phi);
        debug_assert_eq!(
            key,
            udf_smt::canon::entailment_key(&self.smt, psi, phi),
            "a resumed key differs from the one-shot key"
        );
        key
    }

    /// Conjunction of the `Ψ` conjuncts transitively sharing variables with
    /// `phi`: those in the connected components (conjuncts joined by a
    /// shared variable) that `phi`'s variables touch, in conjunct order.
    /// The components are computed once per Ψ; the fixpoint that grows the
    /// relevant variable set one conjunct at a time picks the same
    /// conjuncts, and so the same formula.
    fn cone_of_influence(&mut self, st: &SymState, phi: FormulaId) -> FormulaId {
        let k = match self
            .components
            .iter()
            .position(|c| c.psi == st.psi && c.conjuncts == st.conjuncts)
        {
            Some(k) => k,
            None => {
                let conj_vars: Vec<_> =
                    st.conjuncts.iter().map(|&c| self.formula_vars(c)).collect();
                let components = Components::new(st, &conj_vars);
                self.components.truncate(PER_PSI_CACHE - 1);
                self.components.insert(0, components);
                0
            }
        };
        self.components[..=k].rotate_right(1);
        let phi_vars = self.formula_vars(phi);
        let comps = &mut self.components[0];
        let mut touched: Vec<usize> = phi_vars
            .iter()
            .filter_map(|v| comps.of_var.get(v).copied())
            .collect();
        touched.sort_unstable();
        touched.dedup();
        let cone = match comps.cones.get(&touched) {
            Some(&cone) => cone,
            None => {
                let picked: Vec<FormulaId> = comps
                    .conjuncts
                    .iter()
                    .zip(&comps.of_conjunct)
                    .filter(|(_, c)| c.is_some_and(|c| touched.binary_search(&c).is_ok()))
                    .map(|(&f, _)| f)
                    .collect();
                let cone = self.smt.and_all(picked);
                self.components[0].cones.insert(touched, cone);
                cone
            }
        };
        debug_assert_eq!(cone, self.cone_fixpoint(st, phi), "cone components");
        cone
    }

    /// The cone of influence by fixpoint: the relevant variables start as
    /// `phi`'s, and every conjunct that shares one joins the cone and adds
    /// its own, until none does. The oracle [`SymbolicCtx::cone_of_influence`]
    /// is held to.
    fn cone_fixpoint(&mut self, st: &SymState, phi: FormulaId) -> FormulaId {
        let mut relevant: BTreeSet<udf_smt::VarId> = (*self.formula_vars(phi)).clone();
        let conj_vars: Vec<std::rc::Rc<BTreeSet<udf_smt::VarId>>> =
            st.conjuncts.iter().map(|&c| self.formula_vars(c)).collect();
        let mut included = vec![false; st.conjuncts.len()];
        loop {
            let mut changed = false;
            for (k, vars) in conj_vars.iter().enumerate() {
                if included[k] {
                    continue;
                }
                if vars.iter().any(|v| relevant.contains(v)) {
                    included[k] = true;
                    relevant.extend(vars.iter().copied());
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let picked: Vec<FormulaId> = st
            .conjuncts
            .iter()
            .zip(&included)
            .filter_map(|(&c, &inc)| inc.then_some(c))
            .collect();
        self.smt.and_all(picked)
    }

    /// Variable set of a formula (memoized).
    fn formula_vars(&mut self, f: FormulaId) -> std::rc::Rc<BTreeSet<udf_smt::VarId>> {
        if let Some(v) = self.fvars_cache.get(&f) {
            return v.clone();
        }
        let mut out = BTreeSet::new();
        collect_formula_vars(&self.smt, f, &mut out);
        let rc = std::rc::Rc::new(out);
        self.fvars_cache.insert(f, rc.clone());
        rc
    }

    /// A model of `Ψ` (if satisfiable and within budget). Cached per `Ψ`.
    pub(crate) fn model(&mut self, st: &SymState) -> Option<Model> {
        if self.mode == EntailmentMode::Syntactic {
            return None;
        }
        if let Some(m) = self.model_cache.get(&st.psi) {
            return m.clone();
        }
        // "No model" is the sound budget-exhausted answer: simplification
        // candidates simply aren't proposed.
        if !self.charge_budget() {
            return None;
        }
        let (r, m) = self.solver.check_with_model(&self.smt, st.psi);
        let out = if r == SatResult::Sat {
            m.map(|m| m.vars)
        } else {
            None
        };
        self.model_cache.insert(st.psi, out.clone());
        out
    }

    /// Model of `Ψ ∧ probe = t`, returning both the model and the probed
    /// value of `t` in it. This evaluates arbitrary terms — including
    /// uninterpreted calls — under one coherent model, which drives the
    /// candidate filter of the cross-simplifier. Cached per `(Ψ, t)`.
    pub(crate) fn model_with_probe(&mut self, st: &SymState, t: TermId) -> Option<(Model, i128)> {
        if self.mode == EntailmentMode::Syntactic {
            return None;
        }
        if let Some(cached) = self.probe_cache.get(&(st.psi, t)) {
            return cached.clone();
        }
        if !self.charge_budget() {
            return None;
        }
        let probe_name = format!("%probe{}", self.probe_counter);
        self.probe_counter += 1;
        let probe_var = self.smt.var(&probe_name);
        let probe = self.smt.int_var(&probe_name);
        let eq = self.smt.eq(probe, t);
        // Restrict to the cone of influence of the probed term: variables
        // outside it cannot be proved equal to `t` anyway, so their model
        // values are never useful to the candidate filter.
        let psi = if st.conjuncts.len() >= CONE_MIN_CONJUNCTS {
            self.cone_of_influence(st, eq)
        } else {
            st.psi
        };
        let q = self.smt.and(psi, eq);
        let (r, m) = self.solver.check_with_model(&self.smt, q);
        let out = match (r, m) {
            (SatResult::Sat, Some(m)) => {
                let v = m.vars.get(&probe_var).copied().unwrap_or(0);
                Some((m.vars, v))
            }
            _ => None,
        };
        self.probe_cache.insert((st.psi, t), out.clone());
        out
    }

    /// Value of a program variable in a model (missing ⇒ unconstrained ⇒ 0).
    pub(crate) fn model_value(&mut self, st: &SymState, model: &Model, var: Symbol) -> i128 {
        let t = self.smt_var(var, st.version(var));
        if let udf_smt::ctx::Term::Var(v) = self.smt.term(t) {
            model.get(v).copied().unwrap_or(0)
        } else {
            0
        }
    }
}

/// The conjuncts of one Ψ grouped into connected components: two conjuncts
/// are joined when they share a variable. A conjunct without variables is
/// in no component, so no cone takes it.
#[derive(Debug)]
struct Components {
    psi: FormulaId,
    conjuncts: Vec<FormulaId>,
    /// Component of each conjunct (`None`: it has no variable).
    of_conjunct: Vec<Option<usize>>,
    /// Component of each variable the conjuncts mention.
    of_var: HashMap<udf_smt::VarId, usize>,
    /// Cones already built, by the sorted components they take.
    cones: HashMap<Vec<usize>, FormulaId>,
}

impl Components {
    /// Union-find over the conjuncts of `st`, `conj_vars[k]` being the
    /// variables of the `k`th; a component is named by its first conjunct.
    fn new(st: &SymState, conj_vars: &[std::rc::Rc<BTreeSet<udf_smt::VarId>>]) -> Components {
        fn find(parent: &mut [usize], mut k: usize) -> usize {
            while parent[k] != k {
                parent[k] = parent[parent[k]];
                k = parent[k];
            }
            k
        }
        let mut parent: Vec<usize> = (0..conj_vars.len()).collect();
        let mut first_with: HashMap<udf_smt::VarId, usize> = HashMap::new();
        for (k, vars) in conj_vars.iter().enumerate() {
            for &v in vars.iter() {
                let j = *first_with.entry(v).or_insert(k);
                let (rj, rk) = (find(&mut parent, j), find(&mut parent, k));
                // The smaller index is the root, so every root is the first
                // conjunct of its component.
                parent[rj.max(rk)] = rj.min(rk);
            }
        }
        let of_conjunct = conj_vars
            .iter()
            .enumerate()
            .map(|(k, vars)| (!vars.is_empty()).then(|| find(&mut parent, k)))
            .collect();
        let of_var = first_with
            .into_iter()
            .map(|(v, k)| (v, find(&mut parent, k)))
            .collect();
        Components {
            psi: st.psi,
            conjuncts: st.conjuncts.clone(),
            of_conjunct,
            of_var,
            cones: HashMap::new(),
        }
    }
}

/// Per-path symbolic state: the context formula `Ψ` plus variable versions.
#[derive(Clone, Debug)]
pub(crate) struct SymState {
    /// The context formula.
    pub psi: FormulaId,
    /// Conjuncts of `Ψ` in assertion order (used for pruning and the
    /// syntactic ablation).
    pub conjuncts: Vec<FormulaId>,
    versions: BTreeMap<Symbol, u32>,
    next_version: BTreeMap<Symbol, u32>,
    /// Library functions called by each variable's *current* defining
    /// expression (used to rank rewrite candidates: a variable defined via
    /// `f(...)` is the likeliest replacement for another `f(...)` call).
    def_fns: BTreeMap<Symbol, BTreeSet<Symbol>>,
    /// Cap on retained conjuncts: older facts are dropped (a sound weakening
    /// of `Ψ`) to keep entailment queries tractable on very long programs.
    pub max_conjuncts: usize,
}

impl SymState {
    /// Initial state: `Ψ = ⊤`, every parameter at version 0.
    pub(crate) fn initial(cx: &mut SymbolicCtx<'_>, params: &[Symbol]) -> SymState {
        let mut st = SymState {
            psi: cx.smt.tru(),
            conjuncts: Vec::new(),
            versions: BTreeMap::new(),
            next_version: BTreeMap::new(),
            def_fns: BTreeMap::new(),
            max_conjuncts: 256,
        };
        for &p in params {
            st.versions.insert(p, 0);
            st.next_version.insert(p, 1);
        }
        st
    }

    /// Current version of `v` (0 before any assignment).
    pub(crate) fn version(&self, v: Symbol) -> u32 {
        self.versions.get(&v).copied().unwrap_or(0)
    }

    /// Variables currently tracked (parameters and every assigned local).
    pub(crate) fn vars(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.versions.keys().copied()
    }

    fn bump(&mut self, v: Symbol) {
        let next = self.next_version.entry(v).or_insert(1);
        self.versions.insert(v, *next);
        *next += 1;
    }

    /// Conjoins a formula onto `Ψ`.
    pub(crate) fn assume_formula(&mut self, cx: &mut SymbolicCtx<'_>, f: FormulaId) {
        self.conjuncts.push(f);
        if self.conjuncts.len() > self.max_conjuncts {
            // Drop the oldest facts (weakening; still sound).
            let excess = self.conjuncts.len() - self.max_conjuncts;
            self.conjuncts.drain(..excess);
            self.psi = cx.smt.and_all(self.conjuncts.iter().copied());
        } else {
            self.psi = cx.smt.and(self.psi, f);
        }
    }

    /// Conjoins a program boolean expression onto `Ψ`.
    pub(crate) fn assume(&mut self, cx: &mut SymbolicCtx<'_>, e: &BoolExpr) {
        let f = cx.formula_of_bool(self, e);
        self.assume_formula(cx, f);
    }

    /// Conjoins the negation of a program boolean expression onto `Ψ`.
    pub(crate) fn assume_not(&mut self, cx: &mut SymbolicCtx<'_>, e: &BoolExpr) {
        let f = cx.formula_of_bool(self, e);
        let nf = cx.smt.not(f);
        self.assume_formula(cx, nf);
    }

    /// `sp(Ψ, x := e)`: bumps `x` and conjoins `x@new = ⟦e⟧@old`.
    pub(crate) fn assign(&mut self, cx: &mut SymbolicCtx<'_>, x: Symbol, e: &IntExpr) {
        let t = cx.term_of_int(self, e);
        self.bump(x);
        let xv = cx.smt_var(x, self.version(x));
        let eq = cx.smt.eq(xv, t);
        self.assume_formula(cx, eq);
        let mut fns = BTreeSet::new();
        udf_lang::analysis::int_expr_fns(e, &mut fns);
        self.def_fns.insert(x, fns);
    }

    /// Library functions called by `v`'s current defining expression.
    pub(crate) fn def_fns(&self, v: Symbol) -> Option<&BTreeSet<Symbol>> {
        self.def_fns.get(&v)
    }

    /// Invalidates `vars`: each gets a fresh, unconstrained version.
    pub(crate) fn havoc<I: IntoIterator<Item = Symbol>>(&mut self, vars: I) {
        for v in vars {
            self.bump(v);
            self.def_fns.remove(&v);
        }
    }

    /// Synchronizes version *counters* with another state so that fresh
    /// versions never collide after a fork (call on the state that continues).
    pub(crate) fn absorb_counters(&mut self, other: &SymState) {
        for (&v, &n) in &other.next_version {
            let e = self.next_version.entry(v).or_insert(n);
            *e = (*e).max(n);
        }
    }

    /// `sp(Ψ, S)` for an arbitrary statement: symbolic execution with precise
    /// branch merge and havoc + negated-guard loops. Notifications are
    /// transparent (`sp(Ψ, notifyᵢ b) = Ψ`, as in the paper).
    pub(crate) fn sp_stmt(&mut self, cx: &mut SymbolicCtx<'_>, s: &Stmt) {
        match s {
            Stmt::Skip | Stmt::Notify(..) => {}
            Stmt::Assign(x, e) => self.assign(cx, *x, e),
            Stmt::Seq(a, b) => {
                self.sp_stmt(cx, a);
                self.sp_stmt(cx, b);
            }
            Stmt::If(c, a, b) => {
                let fc = cx.formula_of_bool(self, c);
                let mut then_st = self.clone();
                then_st.assume_formula(cx, fc);
                then_st.sp_stmt(cx, a);
                let mut else_st = self.clone();
                else_st.absorb_counters(&then_st);
                let nfc = cx.smt.not(fc);
                else_st.assume_formula(cx, nfc);
                else_st.sp_stmt(cx, b);
                // Merge: variables assigned on either side get a φ version.
                self.absorb_counters(&then_st);
                self.absorb_counters(&else_st);
                let merged_vars: BTreeSet<Symbol> = assigned_vars(a)
                    .into_iter()
                    .chain(assigned_vars(b))
                    .collect();
                let mut then_psi = then_st.psi;
                let mut else_psi = else_st.psi;
                for &v in &merged_vars {
                    self.bump(v);
                    self.def_fns.remove(&v);
                    let phi_var = cx.smt_var(v, self.version(v));
                    let tv = cx.smt_var(v, then_st.version(v));
                    let ev = cx.smt_var(v, else_st.version(v));
                    let eq_t = cx.smt.eq(phi_var, tv);
                    let eq_e = cx.smt.eq(phi_var, ev);
                    then_psi = cx.smt.and(then_psi, eq_t);
                    else_psi = cx.smt.and(else_psi, eq_e);
                }
                let merged = cx.smt.or(then_psi, else_psi);
                // Replace Ψ wholesale: the disjunction subsumes the previous
                // conjunct list.
                self.conjuncts.clear();
                self.conjuncts.push(merged);
                self.psi = merged;
            }
            Stmt::While(c, body) => {
                // Havoc everything the loop may write, then record that the
                // guard is false on exit.
                let assigned = assigned_vars(body);
                self.havoc(assigned);
                let fc = cx.formula_of_bool(self, c);
                let nfc = cx.smt.not(fc);
                self.assume_formula(cx, nfc);
            }
        }
    }
}

fn collect_term_vars(smt: &Context, t: TermId, out: &mut BTreeSet<udf_smt::VarId>) {
    match smt.term(t) {
        udf_smt::ctx::Term::Int(_) => {}
        udf_smt::ctx::Term::Var(v) => {
            out.insert(*v);
        }
        udf_smt::ctx::Term::App(_, args) => {
            for &a in args.clone().iter() {
                collect_term_vars(smt, a, out);
            }
        }
        udf_smt::ctx::Term::Add(a, b)
        | udf_smt::ctx::Term::Sub(a, b)
        | udf_smt::ctx::Term::Mul(a, b) => {
            let (a, b) = (*a, *b);
            collect_term_vars(smt, a, out);
            collect_term_vars(smt, b, out);
        }
    }
}

fn collect_formula_vars(smt: &Context, f: FormulaId, out: &mut BTreeSet<udf_smt::VarId>) {
    match smt.formula(f) {
        udf_smt::ctx::Formula::True | udf_smt::ctx::Formula::False => {}
        udf_smt::ctx::Formula::Le(a, b)
        | udf_smt::ctx::Formula::Lt(a, b)
        | udf_smt::ctx::Formula::Eq(a, b) => {
            let (a, b) = (*a, *b);
            collect_term_vars(smt, a, out);
            collect_term_vars(smt, b, out);
        }
        udf_smt::ctx::Formula::Not(g) => {
            let g = *g;
            collect_formula_vars(smt, g, out);
        }
        udf_smt::ctx::Formula::And(a, b) | udf_smt::ctx::Formula::Or(a, b) => {
            let (a, b) = (*a, *b);
            collect_formula_vars(smt, a, out);
            collect_formula_vars(smt, b, out);
        }
    }
}

/// Convenience: builds a [`SymbolicCtx`] and initial [`SymState`] in one call.
#[cfg(test)]
pub(crate) fn initial_state<'i>(
    interner: &'i Interner,
    mode: EntailmentMode,
    params: &[Symbol],
) -> (SymbolicCtx<'i>, SymState) {
    let opts = Options {
        mode,
        ..Options::default()
    };
    let mut cx = SymbolicCtx::new(interner, &opts, None, Vec::new());
    let st = SymState::initial(&mut cx, params);
    (cx, st)
}

#[cfg(test)]
mod tests {
    use super::*;
    use udf_lang::parse::{parse_bool_expr, parse_int_expr, parse_program};

    fn setup(src_params: &[&str]) -> (Interner, Vec<Symbol>) {
        let mut i = Interner::new();
        let params = src_params.iter().map(|p| i.intern(p)).collect();
        (i, params)
    }

    #[test]
    fn assign_then_entails_equality() {
        let (mut i, params) = setup(&["a"]);
        let x = i.intern("x");
        let e = parse_int_expr("a + 1", &mut i).unwrap();
        let q = parse_bool_expr("x == a + 1", &mut i).unwrap();
        let (mut cx, mut st) = initial_state(&i, EntailmentMode::Smt, &params);
        st.assign(&mut cx, x, &e);
        let f = cx.formula_of_bool(&st, &q);
        assert!(cx.entails(&st, f));
    }

    #[test]
    fn reassignment_shadows_old_value() {
        let (mut i, params) = setup(&["a"]);
        let x = i.intern("x");
        let e1 = parse_int_expr("1", &mut i).unwrap();
        let e2 = parse_int_expr("2", &mut i).unwrap();
        let q_old = parse_bool_expr("x == 1", &mut i).unwrap();
        let q_new = parse_bool_expr("x == 2", &mut i).unwrap();
        let (mut cx, mut st) = initial_state(&i, EntailmentMode::Smt, &params);
        st.assign(&mut cx, x, &e1);
        st.assign(&mut cx, x, &e2);
        let f_old = cx.formula_of_bool(&st, &q_old);
        let f_new = cx.formula_of_bool(&st, &q_new);
        assert!(!cx.entails(&st, f_old));
        assert!(cx.entails(&st, f_new));
    }

    #[test]
    fn x_plus_x_uses_one_version() {
        let (mut i, params) = setup(&["a"]);
        let x = i.intern("x");
        let e = parse_int_expr("a", &mut i).unwrap();
        let q = parse_bool_expr("x + x == 2 * a", &mut i).unwrap();
        let (mut cx, mut st) = initial_state(&i, EntailmentMode::Smt, &params);
        st.assign(&mut cx, x, &e);
        let f = cx.formula_of_bool(&st, &q);
        assert!(cx.entails(&st, f));
    }

    #[test]
    fn sp_if_merges_branches() {
        let (mut i, params) = setup(&["a"]);
        let prog = parse_program(
            "program p @0 (a) { if (a < 0) { y := 0 - a; } else { y := a; } }",
            &mut i,
        )
        .unwrap();
        let y_ge_0 = parse_bool_expr("y >= 0", &mut i).unwrap();
        let y_gt_5 = parse_bool_expr("y > 5", &mut i).unwrap();
        let (mut cx, mut st) = initial_state(&i, EntailmentMode::Smt, &params);
        st.sp_stmt(&mut cx, &prog.body);
        // |y| is nonnegative on both branches.
        let f = cx.formula_of_bool(&st, &y_ge_0);
        assert!(cx.entails(&st, f));
        let g = cx.formula_of_bool(&st, &y_gt_5);
        assert!(!cx.entails(&st, g));
    }

    #[test]
    fn sp_while_havocs_and_negates_guard() {
        let (mut i, params) = setup(&["a"]);
        let prog = parse_program(
            "program p @0 (a) { x := 0; while (x < a) { x := x + 1; } }",
            &mut i,
        )
        .unwrap();
        let x_ge_a = parse_bool_expr("x >= a", &mut i).unwrap();
        let x_eq_0 = parse_bool_expr("x == 0", &mut i).unwrap();
        let (mut cx, mut st) = initial_state(&i, EntailmentMode::Smt, &params);
        st.sp_stmt(&mut cx, &prog.body);
        // After the loop, ¬(x < a) holds…
        let f = cx.formula_of_bool(&st, &x_ge_a);
        assert!(cx.entails(&st, f));
        // …and the initial value of x has been havoced away.
        let g = cx.formula_of_bool(&st, &x_eq_0);
        assert!(!cx.entails(&st, g));
    }

    #[test]
    fn model_guides_constant_discovery() {
        let (mut i, params) = setup(&["a"]);
        let x = i.intern("x");
        let e = parse_int_expr("7", &mut i).unwrap();
        let (mut cx, mut st) = initial_state(&i, EntailmentMode::Smt, &params);
        st.assign(&mut cx, x, &e);
        let m = cx.model(&st).expect("Ψ is satisfiable");
        assert_eq!(cx.model_value(&st, &m, x), 7);
    }

    /// `Ψ = a > 3` and the goals `a > 10`, `a > 20`, `a > 2`: the context
    /// every countermodel test below asks its questions in.
    fn above_three<'i>(
        i: &'i mut Interner,
        budget: Option<std::sync::Arc<crate::budget::BudgetState>>,
    ) -> (SymbolicCtx<'i>, SymState, [FormulaId; 3]) {
        let params = vec![i.intern("a")];
        let psi = parse_bool_expr("a > 3", i).unwrap();
        let goals = ["a > 10", "a > 20", "a > 2"].map(|g| parse_bool_expr(g, i).unwrap());
        let mut cx = SymbolicCtx::new(i, &Options::default(), budget, Vec::new());
        let mut st = SymState::initial(&mut cx, &params);
        st.assume(&mut cx, &psi);
        let goals = goals.map(|g| cx.formula_of_bool(&st, &g));
        (cx, st, goals)
    }

    #[test]
    fn kept_countermodel_refutes_the_next_question_without_the_solver() {
        let mut i = Interner::new();
        let (mut cx, st, [f10, f20, f2]) = above_three(&mut i, None);
        cx.enable_explain();
        assert!(!cx.entails(&st, f10), "a > 3 does not entail a > 10");
        assert_eq!((cx.solver_stats().checks, cx.countermodel_hits()), (1, 0));
        // The model of `a > 3 ∧ ¬(a > 10)` also falsifies `a > 20`.
        assert!(!cx.entails(&st, f20));
        assert_eq!((cx.solver_stats().checks, cx.countermodel_hits()), (1, 1));
        // No interpretation makes `a > 3 ∧ ¬(a > 2)` true: "valid" is the
        // solver's to prove.
        assert!(cx.entails(&st, f2));
        assert_eq!((cx.solver_stats().checks, cx.countermodel_hits()), (2, 1));
        assert_eq!(cx.countermodel_rejected(), 0);
        let via: Vec<_> = cx
            .drain_explain()
            .iter()
            .map(|e| (e.proved, e.via))
            .collect();
        assert_eq!(
            via,
            [
                (false, EntailmentVia::Solver),
                (false, EntailmentVia::Countermodel),
                (true, EntailmentVia::Solver),
            ]
        );
        // The verdict was stored like a solver's: asking again is a cache hit.
        assert!(!cx.entails(&st, f20));
        assert_eq!(cx.countermodel_hits(), 1);
    }

    #[test]
    fn a_pool_answer_rests_on_evaluating_psi_not_on_where_the_model_came_from() {
        // Every admitted model has `a` overwritten with 0 afterwards, so the
        // pool holds an interpretation that was admitted for `a > 3 ∧ …` and
        // no longer satisfies it. Under `a = 0`, `¬(a > 20)` and `¬(a > 2)`
        // are both true: a pool that trusted admission and looked at `φ`
        // alone would refute both — the second one wrongly. Evaluating `Ψ`
        // keeps it silent, and the solver answers as if there were no pool.
        let mut i = Interner::new();
        let (mut cx, st, [f10, f20, f2]) = above_three(&mut i, None);
        cx.sabotage_admitted = Some((cx.smt.var("a@0"), 0));
        assert!(!cx.entails(&st, f10));
        assert_eq!(cx.countermodels.len(), 1, "admitted, then sabotaged");
        assert!(!cx.entails(&st, f20));
        assert!(cx.entails(&st, f2), "a > 3 entails a > 2");
        assert_eq!((cx.solver_stats().checks, cx.countermodel_hits()), (3, 0));
    }

    #[test]
    fn a_pool_answer_does_not_charge_the_budget() {
        use crate::budget::{BudgetState, ConsolidationBudget};
        let mut i = Interner::new();
        let budget = std::sync::Arc::new(BudgetState::new(
            &ConsolidationBudget::UNLIMITED.with_max_solver_queries(1),
        ));
        let (mut cx, st, [f10, f20, f2]) = above_three(&mut i, Some(budget.clone()));
        assert!(!cx.entails(&st, f10), "the one query the budget allows");
        assert!(!cx.entails(&st, f20), "answered by the kept countermodel");
        assert_eq!((budget.queries_charged(), cx.countermodel_hits()), (1, 1));
        assert!(!budget.exhausted(), "a pool answer is not a solver query");
        // The next solver-bound question is the one that exhausts it.
        assert!(!cx.entails(&st, f2), "valid, but unproved: over budget");
        assert!(budget.exhausted());
        assert_eq!(cx.solver_stats().checks, 1);
    }

    #[test]
    fn the_component_cone_is_the_fixpoint_cone() {
        // Random Ψs of 24-40 conjuncts over 12 variables, some of them
        // variable-free (`f(k) ≤ k`), asked about φs over 16 variables, the
        // last four of which no conjunct mentions. Each state grows between
        // questions, and its forks share a prefix of conjuncts.
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let i = Interner::new();
        for seed in 0..60u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (mut cx, mut st) = initial_state(&i, EntailmentMode::Smt, &[]);
            let f = cx.smt.fn_sym("f", 1);
            let vars: Vec<TermId> = (0..16).map(|k| cx.smt.int_var(&format!("v{k}"))).collect();
            // Mostly within blocks of three variables, so Ψ has several
            // components; one atom in ten links two blocks.
            let atom = |cx: &mut SymbolicCtx<'_>, rng: &mut SmallRng, vars_in: usize| {
                let k = cx.smt.int(rng.gen_range(-3..4));
                if rng.gen_range(0..6) == 0 {
                    let fk = cx.smt.app(f, vec![k]);
                    return cx.smt.le(fk, k);
                }
                let ia = rng.gen_range(0..vars_in);
                let a = vars[ia];
                let b = match rng.gen_range(0..10) {
                    0 => vars[rng.gen_range(0..vars_in)],
                    1..=4 => vars[(ia / 3 * 3 + rng.gen_range(0..3)).min(vars_in - 1)],
                    _ => k,
                };
                let sum = cx.smt.add(a, b);
                cx.smt.le(sum, k)
            };
            for _ in 0..24 {
                let c = atom(&mut cx, &mut rng, 12);
                st.assume_formula(&mut cx, c);
            }
            let mut fork = st.clone();
            for _ in 0..rng.gen_range(0..16) {
                for state in [&mut st, &mut fork] {
                    let c = atom(&mut cx, &mut rng, 12);
                    state.assume_formula(&mut cx, c);
                    for _ in 0..4 {
                        let (p, q) = (atom(&mut cx, &mut rng, 16), atom(&mut cx, &mut rng, 16));
                        let phi = cx.smt.or(p, q);
                        let fast = cx.cone_of_influence(state, phi);
                        assert_eq!(fast, cx.cone_fixpoint(state, phi), "seed {seed}");
                    }
                }
            }
        }
    }

    #[test]
    fn one_psi_with_two_conjunct_lists_has_two_cones() {
        // `[a ∧ b]` and `[a, b]` are the same Ψ node; φ over `a`'s variable
        // takes the whole first conjunct but only `a` of the second list.
        let i = Interner::new();
        let (mut cx, mut whole) = initial_state(&i, EntailmentMode::Smt, &[]);
        let (x, y, zero) = (cx.smt.int_var("x"), cx.smt.int_var("y"), cx.smt.int(0));
        let (a, b) = (cx.smt.le(x, zero), cx.smt.le(y, zero));
        let mut split = whole.clone();
        let ab = cx.smt.and(a, b);
        whole.assume_formula(&mut cx, ab);
        split.assume_formula(&mut cx, a);
        split.assume_formula(&mut cx, b);
        assert_eq!(whole.psi, split.psi);
        let phi = cx.smt.lt(x, zero);
        assert_eq!(cx.cone_of_influence(&whole, phi), ab);
        assert_eq!(cx.cone_of_influence(&split, phi), a);
        assert_eq!(cx.cone_of_influence(&whole, phi), ab);
    }

    #[test]
    fn syntactic_mode_only_sees_literal_conjuncts() {
        let (mut i, params) = setup(&["a"]);
        let gt = parse_bool_expr("a > 3", &mut i).unwrap();
        let ge = parse_bool_expr("a >= 3", &mut i).unwrap();
        let (mut cx, mut st) = initial_state(&i, EntailmentMode::Syntactic, &params);
        st.assume(&mut cx, &gt);
        let f_gt = cx.formula_of_bool(&st, &gt);
        let f_ge = cx.formula_of_bool(&st, &ge);
        assert!(cx.entails(&st, f_gt));
        assert!(!cx.entails(&st, f_ge), "a>3 ⊨ a≥3 needs SMT");
    }

    #[test]
    fn conjunct_pruning_weakens_but_does_not_crash() {
        let (mut i, params) = setup(&["a"]);
        let x = i.intern("x");
        let exprs: Vec<_> = (0..10)
            .map(|k| parse_int_expr(&format!("{k}"), &mut i).unwrap())
            .collect();
        let q = parse_bool_expr("x == 9", &mut i).unwrap();
        let (mut cx, mut st) = initial_state(&i, EntailmentMode::Smt, &params);
        st.max_conjuncts = 4;
        for e in &exprs {
            st.assign(&mut cx, x, e);
        }
        // The last assignment is still visible.
        let f = cx.formula_of_bool(&st, &q);
        assert!(cx.entails(&st, f));
    }
}

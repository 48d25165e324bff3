//! The consolidation algorithm Ω (paper Figure 8) over the calculus of
//! Figures 5 and 7.
//!
//! The engine consumes two statements left-to-right, maintaining the context
//! `Ψ` as the strongest postcondition of everything already emitted:
//!
//! * non-control statements of the first program are simplified
//!   (cross-simplification, Figure 3) and consumed into `Ψ` (Assign/Step);
//! * when the first program is exhausted, the commutativity rule swaps the
//!   arguments so the second program is simplified under the accumulated `Ψ`;
//! * conditionals dispatch on entailment (If 1/If 2) and otherwise on the
//!   `related` heuristic between If 3 (embed everything — maximal sharing,
//!   maximal code growth), the derived If 4 (embed only the second program)
//!   and If 5 (no embedding);
//! * loop pairs try Loop 2 (provably equal trip counts) and Loop 3 (provably
//!   ordered trip counts) using an inferred invariant of the fused loop, and
//!   fall back to sequential execution with per-loop self-simplification.
//!
//! Every rewrite the engine performs is justified by an `Ψ ⊨ ·` validity
//! query and a static cost comparison, so the consolidated program never
//! costs more than the sequential composition (Theorem 1); the property
//! tests in `tests/` exercise exactly that invariant.

use crate::explain::ExplainEntry;
use crate::invariants;
use crate::simplify::{self, is_false, is_true};
use crate::symbolic::{EntailmentMode, SymState, SymbolicCtx};
use std::collections::BTreeSet;
use udf_lang::analysis::{assigned_vars, bool_expr_fns, bool_expr_vars, called_fns, read_vars};
use udf_lang::ast::{BoolExpr, Stmt};
use udf_lang::cost::{CostModel, FnCost};
use udf_lang::intern::Symbol;
use udf_obs::names;

/// Which If rule to use when `Ψ` decides neither branch (If 3/4/5 trade
/// cross-simplification opportunities against code size).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum IfPolicy {
    /// The paper's heuristic: If 3 when both the test and the remainder are
    /// related to the other program, If 4 when only the test is, If 5
    /// otherwise.
    #[default]
    Heuristic,
    /// Always embed everything (maximal sharing, exponential worst-case
    /// size).
    AlwaysIf3,
    /// Always use the derived If 4.
    AlwaysIf4,
    /// Never embed (minimal size, fewest rewrites).
    AlwaysIf5,
}

/// Node-count guard: If 3 is demoted to If 4 when embedding would copy more
/// than this many AST nodes. Like the two limits below, part of the plan
/// fingerprint (`plan_cache::PlanKey`).
pub const IF3_SIZE_LIMIT: usize = 768;
/// Recursion depth guard; beyond it the engine emits the remaining
/// statements verbatim (always sound).
pub const MAX_DEPTH: usize = 512;
/// Entailment-query budget per pair consolidation. If 3/If 4 embedding
/// re-consolidates the second program inside both branches, which can
/// explore exponentially many contexts on long conditional chains even
/// when the *output* stays small (If 1/If 2 prune most of it). When the
/// budget runs out the engine emits the remaining statements verbatim —
/// always sound, merely less optimized.
pub const MAX_PAIR_QUERIES: u64 = 900;

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct Options {
    /// Entailment mode (SMT vs the syntactic ablation).
    pub mode: EntailmentMode,
    /// Enable Loop 2/Loop 3 fusion (ablation switch).
    pub loop_fusion: bool,
    /// If-rule dispatch policy.
    pub if_policy: IfPolicy,
    /// Run-wide resource budget (deadline / solver queries);
    /// exhaustion degrades the output along the lattice documented in
    /// [`crate::budget`] instead of erroring or hanging.
    pub budget: crate::budget::ConsolidationBudget,
    /// The SMT solver configuration used for entailment checks (resource
    /// limits, fault-injection hooks). Cloned into each pair consolidation.
    pub solver: udf_smt::Solver,
    /// Shared entailment memo table. `consolidate_many` installs one
    /// automatically when absent; callers that keep a handle across runs
    /// (e.g. the plan cache) make later runs reuse earlier verdicts. Do not
    /// share one table across differing solver configurations: a "not
    /// proved" verdict recorded under tight resource limits would mask what
    /// a larger budget could prove (sound, but needlessly conservative).
    pub memo: Option<std::sync::Arc<crate::memo::EntailmentMemo>>,
    /// Metrics sink shared by the engine, the symbolic context and (when
    /// enabled) the SMT solver of each pair. No-op by default; install
    /// [`udf_obs::RecorderCell::memory`] to collect. Clones share one sink,
    /// so parallel pair threads aggregate into a single snapshot.
    pub recorder: udf_obs::RecorderCell,
    /// Record the full rule-derivation tree (which rule fired at each AST
    /// node and which entailments justified it) into
    /// [`crate::api::Consolidated::explain`]. Off by default: tracing
    /// allocates per rule commit and renders every queried formula.
    pub explain: bool,
    /// Synthesize a sound cross-query pre-filter for the consolidated plan
    /// (see [`crate::prefilter`]). Fail-open: when no candidate verifies,
    /// the plan runs exactly as with the knob off. Off by default.
    pub prefilter: bool,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            mode: EntailmentMode::Smt,
            loop_fusion: true,
            if_policy: IfPolicy::default(),
            budget: crate::budget::ConsolidationBudget::UNLIMITED,
            solver: udf_smt::Solver::new(),
            memo: None,
            recorder: udf_obs::RecorderCell::noop(),
            explain: false,
            prefilter: false,
        }
    }
}

/// Rule application counters (how the consolidation was achieved).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuleStats {
    /// If 1/If 2 eliminations (dead branches).
    pub if_eliminated: u64,
    /// If 3 applications.
    pub if3: u64,
    /// If 4 applications.
    pub if4: u64,
    /// If 5 applications.
    pub if5: u64,
    /// Loop 2 fusions.
    pub loop2: u64,
    /// Loop 3 fusions.
    pub loop3: u64,
    /// Loop pairs executed sequentially.
    pub loop_seq: u64,
    /// Depth-guard fallbacks (verbatim emission).
    pub depth_fallbacks: u64,
    /// Budget-exhaustion fallbacks (verbatim emission because the run's
    /// [`crate::budget::ConsolidationBudget`] ran out).
    pub budget_fallbacks: u64,
}

/// The Ω engine.
pub(crate) struct Engine<'c, 'i> {
    cx: &'c mut SymbolicCtx<'i>,
    cm: &'c CostModel,
    fns: &'c dyn FnCost,
    opts: &'c Options,
    params: BTreeSet<Symbol>,
    query_base: u64,
    /// Rule application counters.
    pub stats: RuleStats,
    /// Flat derivation trace, present iff `opts.explain` is set.
    trace: Option<Vec<ExplainEntry>>,
}

impl<'c, 'i> std::fmt::Debug for Engine<'c, 'i> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<'c, 'i> Engine<'c, 'i> {
    /// Creates an engine. `params` are the shared input parameters `ᾱ`
    /// (used by the `related` heuristic).
    pub(crate) fn new(
        cx: &'c mut SymbolicCtx<'i>,
        cm: &'c CostModel,
        fns: &'c dyn FnCost,
        opts: &'c Options,
        params: impl IntoIterator<Item = Symbol>,
    ) -> Engine<'c, 'i> {
        let query_base = cx.entailment_queries();
        if opts.explain {
            cx.enable_explain();
        }
        Engine {
            cx,
            cm,
            fns,
            opts,
            params: params.into_iter().collect(),
            query_base,
            stats: RuleStats::default(),
            trace: opts.explain.then(Vec::new),
        }
    }

    /// Takes the flat derivation trace recorded so far (empty unless
    /// `opts.explain` was set; see [`crate::explain::build_tree`]).
    pub(crate) fn take_trace(&mut self) -> Vec<ExplainEntry> {
        self.trace.take().unwrap_or_default()
    }

    /// Whether the engine is recording a derivation trace.
    fn explain_on(&self) -> bool {
        self.trace.is_some()
    }

    /// Counts a committed rule in the metrics sink and, in explain mode,
    /// appends a derivation entry justified by every entailment event since
    /// the previous commit.
    fn note_rule(
        &mut self,
        depth: usize,
        metric: &'static str,
        rule: &'static str,
        detail: String,
    ) {
        self.opts.recorder.add(metric, 1);
        if self.trace.is_some() {
            let entailments = self.cx.drain_explain();
            if let Some(trace) = &mut self.trace {
                trace.push(ExplainEntry {
                    depth,
                    rule,
                    detail,
                    entailments,
                });
            }
        }
    }

    /// Pretty-prints a guard for explain details (empty when explain is off,
    /// so the hot path never allocates).
    fn detail_bool(&self, e: &BoolExpr) -> String {
        if self.explain_on() {
            udf_lang::pretty::bool_expr(e, self.cx.interner())
        } else {
            String::new()
        }
    }

    fn simp_int(&mut self, st: &SymState, e: &udf_lang::ast::IntExpr) -> udf_lang::ast::IntExpr {
        simplify::simplify_int(self.cx, st, e, self.cm, self.fns)
    }

    fn simp_bool(&mut self, st: &SymState, e: &BoolExpr) -> BoolExpr {
        simplify::simplify_bool(self.cx, st, e, self.cm, self.fns)
    }

    /// `related(a, b)`: do the two fragments share a library function or a
    /// shared input parameter? (The paper's heuristic for deciding whether
    /// embedding can pay off.)
    fn related(
        &self,
        fns_a: &BTreeSet<Symbol>,
        vars_a: &BTreeSet<Symbol>,
        fns_b: &BTreeSet<Symbol>,
        vars_b: &BTreeSet<Symbol>,
    ) -> bool {
        if fns_a.intersection(fns_b).next().is_some() {
            return true;
        }
        vars_a.intersection(vars_b).any(|v| self.params.contains(v))
    }

    /// Relatedness of a test predicate to the other program. Deliberately
    /// *syntactic* (shared function symbols or shared parameters in the
    /// predicate itself): tests over locals defined from shared functions
    /// are handled by assignment-level memoization instead, and treating
    /// them as related here makes every query of a family embed into every
    /// other, exploding both analysis time and output size.
    fn related_expr_stmt(&self, e: &BoolExpr, s: &Stmt) -> bool {
        let mut fns_a = BTreeSet::new();
        bool_expr_fns(e, &mut fns_a);
        let mut vars_a = BTreeSet::new();
        bool_expr_vars(e, &mut vars_a);
        self.related(&fns_a, &vars_a, &called_fns(s), &read_vars(s))
    }

    fn related_stmt_stmt(&self, a: &Stmt, b: &Stmt) -> bool {
        self.related(&called_fns(a), &read_vars(a), &called_fns(b), &read_vars(b))
    }

    /// Consolidates `s1 ⊗ s2` under `st`, returning the merged statement.
    /// This is `Ω′` from Figure 8.
    pub(crate) fn omega(&mut self, st: SymState, s1: Stmt, s2: Stmt, depth: usize) -> Stmt {
        if self.cx.budget_exhausted() {
            self.stats.budget_fallbacks += 1;
            self.note_rule(
                depth,
                names::RULE_BUDGET_FALLBACK,
                "BudgetFallback",
                String::new(),
            );
            return s1.then(s2);
        }
        if depth > MAX_DEPTH || self.cx.entailment_queries() - self.query_base > MAX_PAIR_QUERIES {
            self.stats.depth_fallbacks += 1;
            self.note_rule(
                depth,
                names::RULE_DEPTH_FALLBACK,
                "DepthFallback",
                String::new(),
            );
            return s1.then(s2);
        }
        let (h1, t1) = s1.split_head();
        // Seq: a compound first program is consumed head-first; the head's
        // rule and the tail's consolidation both appear under this entry.
        if !t1.is_skip() && !matches!(h1, Stmt::Skip) {
            self.note_rule(depth, names::RULE_SEQ, "Seq", String::new());
        }
        match h1 {
            // Lines 4–6: skip handling and commutation when the first
            // program is exhausted.
            Stmt::Skip => {
                if t1.is_skip() {
                    if s2.is_skip() {
                        return Stmt::Skip;
                    }
                    self.note_rule(depth, names::RULE_COM, "Com", String::new());
                    return self.omega(st, s2, Stmt::Skip, depth + 1);
                }
                self.note_rule(depth, names::RULE_SKIP, "Skip", String::new());
                self.omega(st, t1, s2, depth + 1)
            }
            // Line 7: Assign — simplify, emit, absorb into Ψ.
            Stmt::Assign(x, e) => {
                let e = self.simp_int(&st, &e);
                let detail = if self.explain_on() {
                    format!(
                        "{} := {}",
                        self.cx.interner().resolve(x),
                        udf_lang::pretty::int_expr(&e, self.cx.interner())
                    )
                } else {
                    String::new()
                };
                self.note_rule(depth, names::RULE_ASSIGN, "Assign", detail);
                let mut st2 = st;
                st2.assign(self.cx, x, &e);
                Stmt::Assign(x, e).then(self.omega(st2, t1, s2, depth + 1))
            }
            // Line 8: Step over notifications (broadcast as early as
            // possible; `sp` is transparent for them).
            notify @ Stmt::Notify(..) => {
                let detail = if self.explain_on() {
                    "notify".to_owned()
                } else {
                    String::new()
                };
                self.note_rule(depth, names::RULE_STEP, "Step", detail);
                notify.then(self.omega(st, t1, s2, depth + 1))
            }
            Stmt::If(c, l, r) => self.consolidate_if(st, c, *l, *r, t1, s2, depth),
            Stmt::While(g, b) => self.consolidate_while(st, g, *b, t1, s2, depth),
            Stmt::Seq(..) => unreachable!("split_head never returns a sequence head"),
        }
    }

    /// Lines 9–18: conditional dispatch.
    #[allow(clippy::too_many_arguments)]
    fn consolidate_if(
        &mut self,
        st: SymState,
        c: BoolExpr,
        l: Stmt,
        r: Stmt,
        t1: Stmt,
        s2: Stmt,
        depth: usize,
    ) -> Stmt {
        let c_s = self.simp_bool(&st, &c);
        if is_true(&c_s) {
            // If 1: the else branch is dead and the test is free.
            self.stats.if_eliminated += 1;
            let d = self.detail_bool(&c);
            self.note_rule(depth, names::RULE_IF1, "If1", d);
            return self.omega(st, l.then(t1), s2, depth + 1);
        }
        if is_false(&c_s) {
            // If 2.
            self.stats.if_eliminated += 1;
            let d = self.detail_bool(&c);
            self.note_rule(depth, names::RULE_IF2, "If2", d);
            return self.omega(st, r.then(t1), s2, depth + 1);
        }
        let mut then_st = st.clone();
        then_st.assume(self.cx, &c_s);
        let mut else_st = st.clone();
        else_st.assume_not(self.cx, &c_s);

        let embed_size = t1.size() + s2.size();
        let choice = match self.opts.if_policy {
            IfPolicy::AlwaysIf3 => 3,
            IfPolicy::AlwaysIf4 => 4,
            IfPolicy::AlwaysIf5 => 5,
            IfPolicy::Heuristic => {
                if self.related_expr_stmt(&c_s, &s2) && embed_size <= IF3_SIZE_LIMIT {
                    if self.related_stmt_stmt(&t1, &s2) {
                        3
                    } else {
                        4
                    }
                } else {
                    // Unrelated test, or embedding would duplicate too much
                    // code (both If 3 and If 4 copy the second program into
                    // both branches): fall back to the derived If 5.
                    5
                }
            }
        };
        match choice {
            // If 3: embed the remainder of program 1 *and* program 2 in both
            // branches.
            3 if embed_size <= IF3_SIZE_LIMIT => {
                self.stats.if3 += 1;
                let d = self.detail_bool(&c_s);
                self.note_rule(depth, names::RULE_IF3, "If3", d);
                let s_then = self.omega(then_st, l.then(t1.clone()), s2.clone(), depth + 1);
                let s_else = self.omega(else_st, r.then(t1), s2, depth + 1);
                Stmt::ite(c_s, s_then, s_else)
            }
            // If 4: embed only program 2; program 1's remainder follows the
            // conditional (consolidated with nothing, exactly as in the
            // derived rule).
            3 | 4 if s2.size() <= IF3_SIZE_LIMIT => {
                self.stats.if4 += 1;
                let d = self.detail_bool(&c_s);
                self.note_rule(depth, names::RULE_IF4, "If4", d);
                let s_then = self.omega(then_st, l, s2.clone(), depth + 1);
                let s_else = self.omega(else_st, r, s2, depth + 1);
                let mut post = st;
                // Branches may assign; havoc them for the continuation.
                let mut written = assigned_vars(&s_then);
                written.extend(assigned_vars(&s_else));
                post.havoc(written);
                let rest = self.omega(post, t1, Stmt::Skip, depth + 1);
                Stmt::ite(c_s, s_then, s_else).then(rest)
            }
            // If 5: no embedding — self-simplify the branches, then continue
            // consolidating the remainders after the conditional.
            _ => {
                self.stats.if5 += 1;
                let d = self.detail_bool(&c_s);
                self.note_rule(depth, names::RULE_IF5, "If5", d);
                let l_s = self.omega(then_st, l, Stmt::Skip, depth + 1);
                let r_s = self.omega(else_st, r, Stmt::Skip, depth + 1);
                let mut post = st;
                let mut written = assigned_vars(&l_s);
                written.extend(assigned_vars(&r_s));
                post.havoc(written);
                let rest = self.omega(post, t1, s2, depth + 1);
                Stmt::ite(c_s, l_s, r_s).then(rest)
            }
        }
    }

    /// Lines 19–32: loops.
    fn consolidate_while(
        &mut self,
        st: SymState,
        g1: BoolExpr,
        b1: Stmt,
        t1: Stmt,
        s2: Stmt,
        depth: usize,
    ) -> Stmt {
        let (h2, t2) = s2.split_head();
        if let Stmt::While(g2, b2) = h2 {
            let b2 = *b2;
            if self.opts.loop_fusion {
                if let Some(out) = self.try_fuse_loops(&st, &g1, &b1, &t1, &g2, &b2, &t2, depth) {
                    return out;
                }
            }
            // Lines 29–31: no provable trip-count relation — run the loops
            // sequentially (each self-simplified), then consolidate the
            // remainders.
            self.stats.loop_seq += 1;
            let d = self.detail_bool(&g1);
            self.note_rule(depth, names::RULE_LOOP_SEQ, "LoopSeq", d);
            let (st_a, w1) = self.emit_loop_self(st, g1, b1, depth);
            let (st_b, w2) = self.emit_loop_self(st_a, g2, b2, depth);
            let rest = self.omega(st_b, t1, t2, depth + 1);
            return w1.then(w2).then(rest);
        }
        let s2 = h2.then(t2);
        if s2.is_skip() {
            // `while ⊗ skip`: self-simplify and continue (breaks the Com
            // cycle of the raw calculus).
            let d = self.detail_bool(&g1);
            self.note_rule(depth, names::RULE_LOOP1, "Loop1", d);
            let (st2, w) = self.emit_loop_self(st, g1, b1, depth);
            return w.then(self.omega(st2, t1, Stmt::Skip, depth + 1));
        }
        // Line 32: the second program does not start with a loop — commute
        // so its prefix is consumed first.
        self.note_rule(depth, names::RULE_COM, "Com", String::new());
        self.omega(st, s2, Stmt::While(g1, Box::new(b1)).then(t1), depth + 1)
    }

    /// Loop 2 / Loop 3 (Figure 7). Returns `None` when no premise can be
    /// discharged.
    #[allow(clippy::too_many_arguments)]
    fn try_fuse_loops(
        &mut self,
        st: &SymState,
        g1: &BoolExpr,
        b1: &Stmt,
        t1: &Stmt,
        g2: &BoolExpr,
        b2: &Stmt,
        t2: &Stmt,
        depth: usize,
    ) -> Option<Stmt> {
        let head = invariants::infer(self.cx, st, g1, b1, Some(g2), Some(b2));
        let psi1 = head.state;
        // Build ¬(g1 ∧ g2) once.
        let f1 = self.cx.formula_of_bool(&psi1, g1);
        let f2 = self.cx.formula_of_bool(&psi1, g2);
        let both = self.cx.smt.and(f1, f2);
        let exit = self.cx.smt.not(both);
        let nf1 = self.cx.smt.not(f1);
        let nf2 = self.cx.smt.not(f2);

        // Loop 2 premise: Ψ₁ ∧ ¬(g1∧g2) ⊨ ¬g1 ∧ ¬g2.
        let none_left = self.cx.smt.and(nf1, nf2);
        let loop2_goal = self.cx.smt.implies(exit, none_left);
        if self.cx.entails(&psi1, loop2_goal) {
            self.stats.loop2 += 1;
            let d = self.detail_bool(g1);
            self.note_rule(depth, names::RULE_LOOP2, "Loop2", d);
            let mut body_st = psi1.clone();
            body_st.assume(self.cx, g1);
            let body = self.omega(body_st, b1.clone(), b2.clone(), depth + 1);
            let mut after = psi1;
            after.assume_not(self.cx, g1);
            let rest = self.omega(after, t1.clone(), t2.clone(), depth + 1);
            return Some(Stmt::while_do(g1.clone(), body).then(rest));
        }
        // Loop 3 premise: Ψ₁ ∧ ¬(g1∧g2) ⊨ g1 (the first loop runs longer).
        let loop3_goal = self.cx.smt.implies(exit, f1);
        if self.cx.entails(&psi1, loop3_goal) {
            self.stats.loop3 += 1;
            let d = self.detail_bool(g1);
            self.note_rule(depth, names::RULE_LOOP3, "Loop3", d);
            let mut body_st = psi1.clone();
            body_st.assume(self.cx, g2);
            let body = self.omega(body_st, b1.clone(), b2.clone(), depth + 1);
            let mut after = psi1;
            after.assume_not(self.cx, g2);
            // Remainder of program 1: one more body, the rest of the loop,
            // then its tail.
            let rem1 = b1
                .clone()
                .then(Stmt::while_do(g1.clone(), b1.clone()))
                .then(t1.clone());
            let rest = self.omega(after, rem1, t2.clone(), depth + 1);
            return Some(Stmt::while_do(g2.clone(), body).then(rest));
        }
        // Symmetric Loop 3: the second loop runs longer (uses Com).
        let loop3b_goal = self.cx.smt.implies(exit, f2);
        if self.cx.entails(&psi1, loop3b_goal) {
            self.stats.loop3 += 1;
            let d = self.detail_bool(g2);
            self.note_rule(depth, names::RULE_LOOP3, "Loop3", d);
            let mut body_st = psi1.clone();
            body_st.assume(self.cx, g1);
            let body = self.omega(body_st, b2.clone(), b1.clone(), depth + 1);
            let mut after = psi1;
            after.assume_not(self.cx, g1);
            let rem2 = b2
                .clone()
                .then(Stmt::while_do(g2.clone(), b2.clone()))
                .then(t2.clone());
            let rest = self.omega(after, rem2, t1.clone(), depth + 1);
            return Some(Stmt::while_do(g1.clone(), body).then(rest));
        }
        None
    }

    /// Emits a single loop with its body self-simplified under an inferred
    /// invariant, returning the post-loop state (havoc + ¬guard + invariant)
    /// and the emitted statement.
    fn emit_loop_self(
        &mut self,
        st: SymState,
        g: BoolExpr,
        b: Stmt,
        depth: usize,
    ) -> (SymState, Stmt) {
        let head = invariants::infer(self.cx, &st, &g, &b, None, None);
        let mut body_st = head.state.clone();
        body_st.assume(self.cx, &g);
        let body = self.omega(body_st, b, Stmt::Skip, depth + 1);
        let mut post = head.state;
        post.assume_not(self.cx, &g);
        (post, Stmt::while_do(g, body))
    }
}

//! The lazy-SMT top loop: CDCL enumeration of boolean models with theory
//! final-checks and blocking-clause learning.
//!
//! A final check sees only the *relevant* literals of a boolean model: the
//! atoms the walk of [`cnf::CompiledFormula::relevant_atoms`] needs to make
//! the formula true under that model. An atom in a disjunct the model does
//! not use never reaches the theory, so neither does a conflict among such
//! atoms. A clause that blocks a refuted subset of the relevant set is
//! falsified by the model that produced it, so the enumeration still ends.
//! A consistent relevant set answers `Sat` once the theory's model, read by
//! [`Interp`], makes its literals true: then it is a model of the whole
//! formula. A product of two unknowns is opaque to the theory, so that read
//! can fail; the model's whole assignment is then checked instead.
//!
//! A theory conflict comes with a *candidate core* — the literals the
//! infeasible simplex row and the congruence proof rest on — and the clause
//! learned from it blocks a handful of literals, not one whole model. The
//! candidate is never trusted: `Solver::confirmed_core` re-checks it, so
//! every blocking clause negates a literal set the theory has refuted as
//! given, whatever size the assignment has. A confirmed candidate is the
//! core as it stands; only a candidate the theory did not refute falls back
//! to the whole relevant set, which greedy deletion then shrinks.
//!
//! Such a set stays refuted for as long as its atoms mean what they meant,
//! which is the life of their [`Context`]. The solver keeps every confirmed
//! core as a *lemma* of that context, and a later check of a formula over
//! the same context starts with a blocking clause for each lemma whose atoms
//! all occur in it: a conflict is learned once per context instead of once
//! per check. Beside the lemmas the solver keeps CNF compiles paused after
//! the left conjunct of a root `a ∧ b` — entailments under one context
//! formula Ψ are all `Ψ ∧ ¬φ` — and resumes the one for `a` instead of
//! compiling `a` again; a resumed compile is the fresh one, variable for
//! variable. Nothing else carries over from one check to the next but
//! emptied buffers.
//!
//! [`Solver::check`] decides satisfiability of a formula modulo LIA ∪ EUF;
//! [`Solver::is_valid`] answers entailment questions by refutation — the form
//! used throughout the consolidation engine (`Ψ ⊨ e` becomes
//! `check(Ψ ∧ ¬e) = Unsat`).

use crate::cnf;
use crate::ctx::{Context, Formula, FormulaId, IdMap};
use crate::eval::Interp;
use crate::sat::{Lit, SatOutcome, SatSolver, Var};
use crate::theory::{self, NoModel, TheoryLimits, TheoryLit, TheoryStats};
use udf_obs::{names, RecorderCell};

/// Outcome of an SMT check.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SatResult {
    /// Satisfiable (modulo the documented combination incompleteness).
    Sat,
    /// Unsatisfiable — this verdict is always sound.
    Unsat,
    /// Budget exhausted or incomplete fragment; treat as "not proved".
    Unknown,
}

/// Cumulative solver statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// SMT-level checks performed.
    pub checks: u64,
    /// Boolean models subjected to a theory final-check.
    pub theory_checks: u64,
    /// Blocking clauses learned from theory conflicts.
    pub theory_conflicts: u64,
    /// Literals greedy deletion removed from fallback cores (see
    /// [`SolverStats::core_fallbacks`]); a confirmed candidate is kept as
    /// it is, so this stays zero while every explanation holds.
    pub minimized_literals: u64,
    /// Literals in learned blocking clauses (mean core length is this over
    /// [`SolverStats::theory_conflicts`]).
    pub core_literals: u64,
    /// Candidate cores the theory did not refute on their own, replaced by
    /// the checked literal set and shrunk by greedy deletion. Zero unless an
    /// explanation is wrong or a resource limit bites on the subset.
    pub core_fallbacks: u64,
    /// Checks that ended [`SatResult::Unknown`], forced ones included.
    pub unknowns: u64,
    /// CDCL decisions across all boolean searches.
    pub sat_decisions: u64,
    /// CDCL conflicts across all boolean searches.
    pub sat_conflicts: u64,
    /// Unit propagations across all boolean searches.
    pub sat_propagations: u64,
    /// Simplex pivot operations across all theory checks.
    pub simplex_pivots: u64,
    /// Nelson–Oppen equality-exchange rounds across all theory checks.
    pub theory_rounds: u64,
}

impl std::ops::AddAssign for SolverStats {
    fn add_assign(&mut self, o: SolverStats) {
        self.checks += o.checks;
        self.theory_checks += o.theory_checks;
        self.theory_conflicts += o.theory_conflicts;
        self.minimized_literals += o.minimized_literals;
        self.core_literals += o.core_literals;
        self.core_fallbacks += o.core_fallbacks;
        self.unknowns += o.unknowns;
        self.sat_decisions += o.sat_decisions;
        self.sat_conflicts += o.sat_conflicts;
        self.sat_propagations += o.sat_propagations;
        self.simplex_pivots += o.simplex_pivots;
        self.theory_rounds += o.theory_rounds;
    }
}

/// Configuration and statistics holder for SMT checks.
///
/// Across [`Solver::check`] calls the solver keeps its statistics, and the
/// theory lemmas (confirmed cores) and paused CNF compiles of the
/// [`Context`] it last checked against. A check against another context — a
/// new one, or a clone — drops them first, so one instance can serve many
/// queries over many contexts; what it keeps only ever saves work on the
/// same one.
#[derive(Clone, Debug)]
pub struct Solver {
    /// SAT conflict budget per boolean search.
    pub max_conflicts: u64,
    /// Maximum boolean models to final-check before giving up.
    pub max_final_checks: u64,
    /// Theory limits per final check.
    pub theory_limits: TheoryLimits,
    /// Deterministic fault-injection hook: 0-based check indices (counted
    /// by [`SolverStats::checks`]) forced to return [`SatResult::Unknown`]
    /// without running. `Unknown` is always a sound answer, so injection can
    /// only suppress rewrites downstream — which is exactly what robustness
    /// tests use it for. Empty (the default) disables injection.
    pub force_unknown_checks: std::collections::BTreeSet<u64>,
    /// Metrics sink. Defaults to the no-op recorder; install a
    /// [`udf_obs::MemoryRecorder`] (via [`RecorderCell::memory`]) to collect
    /// live counters and a per-check latency histogram. Cloning the solver
    /// clones the *handle*: all clones feed the same sink.
    pub recorder: RecorderCell,
    /// Mutation hook for the tests of [`Solver::confirmed_core`]: drop the
    /// first literal of every candidate core before it is re-checked.
    #[cfg(test)]
    sabotage_candidates: bool,
    stats: SolverStats,
    kept: Kept,
    scratch: Scratch,
}

/// The SAT instance and theory tables one check fills and the next reuses,
/// emptied before each use: a check starts with the memory the previous
/// ones grew, and with nothing else of theirs.
#[derive(Debug, Default)]
struct Scratch {
    sat: SatSolver,
    theory: theory::Scratch,
}

/// A clone starts with empty buffers: nothing in them is worth copying.
impl Clone for Scratch {
    fn clone(&self) -> Scratch {
        Scratch::default()
    }
}

/// Compiles a solver keeps paused, most recently used first (see
/// [`Kept::paused`]). Each is the size of its formula's CNF.
const PAUSED_COMPILES: usize = 4;

/// What the solver keeps about the one [`Context`] whose identity is `ctx`
/// (0: none yet). All of it names that context's nodes, so all of it is
/// dropped together when a check names another context.
#[derive(Clone, Debug, Default)]
struct Kept {
    ctx: u64,
    /// Literal sets `theory::check` refuted as given.
    cores: Vec<Vec<TheoryLit>>,
    /// Compiles of roots `a ∧ b` paused after `a`, by `a`: entailments
    /// asked under one context formula Ψ are `Ψ ∧ ¬φ`, and every one of
    /// them compiles Ψ's spine first, the same way.
    paused: Vec<(FormulaId, cnf::Paused)>,
    /// Left conjuncts met once and not paused: a compile is paused the
    /// second time its `a` comes, since pausing costs a copy that a Ψ
    /// asked about once never pays back.
    met_once: Vec<FormulaId>,
}

impl Default for Solver {
    fn default() -> Solver {
        Solver::new()
    }
}

impl Solver {
    /// Creates a solver with default limits.
    pub fn new() -> Solver {
        Solver {
            max_conflicts: 200_000,
            max_final_checks: 4_000,
            theory_limits: TheoryLimits::default(),
            force_unknown_checks: std::collections::BTreeSet::new(),
            recorder: RecorderCell::noop(),
            #[cfg(test)]
            sabotage_candidates: false,
            stats: SolverStats::default(),
            kept: Kept::default(),
            scratch: Scratch::default(),
        }
    }

    /// Builder form of [`Solver::force_unknown_checks`]: forces `Unknown`
    /// on the given 0-based check indices.
    #[must_use]
    pub fn with_unknown_at<I: IntoIterator<Item = u64>>(mut self, checks: I) -> Solver {
        self.force_unknown_checks.extend(checks);
        self
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Checks satisfiability of `f` modulo LIA ∪ EUF.
    pub fn check(&mut self, ctx: &Context, f: FormulaId) -> SatResult {
        self.check_with_model(ctx, f).0
    }

    /// Like [`Solver::check`], also returning the theory's [`theory::Model`]
    /// (source variables and uninterpreted applications) when satisfiable.
    /// Variables unconstrained by the found model are absent from it (any
    /// value works for them).
    pub fn check_with_model(
        &mut self,
        ctx: &Context,
        f: FormulaId,
    ) -> (SatResult, Option<theory::Model>) {
        let (r, interp) = self.check_with_interp(ctx, f);
        (r, interp.map(Interp::into_model))
    }

    /// Like [`Solver::check_with_model`], with the model as the total
    /// [`Interp`] that extends it, as [`Interp::new`] builds it: the one the
    /// search read it through to confirm a `Sat`, reset.
    pub fn check_with_interp(
        &mut self,
        ctx: &Context,
        f: FormulaId,
    ) -> (SatResult, Option<Interp>) {
        let _span = self.recorder.span(names::SMT_CHECK_NS);
        self.stats.checks += 1;
        self.recorder.add(names::SMT_CHECKS, 1);
        let out = if self.force_unknown_checks.contains(&(self.stats.checks - 1)) {
            (SatResult::Unknown, None)
        } else {
            match ctx.formula(f) {
                Formula::True => (SatResult::Sat, Some(Interp::new(theory::Model::default()))),
                Formula::False => (SatResult::Unsat, None),
                _ => self.search_fresh(ctx, f),
            }
        };
        if out.0 == SatResult::Unknown {
            self.stats.unknowns += 1;
            self.recorder.add(names::SMT_UNKNOWN, 1);
        }
        out
    }

    /// Runs [`Solver::search`] on a fresh SAT instance, seeded with the
    /// lemmas of `ctx` that apply to `f`, and folds its counters.
    fn search_fresh(&mut self, ctx: &Context, f: FormulaId) -> (SatResult, Option<Interp>) {
        if self.kept.ctx != ctx.id() {
            self.kept = Kept {
                ctx: ctx.id(),
                ..Kept::default()
            };
        }
        let mut sat = std::mem::take(&mut self.scratch.sat);
        let compiled = {
            let _span = self.recorder.span(names::SMT_CNF_NS);
            self.compile(ctx, f, &mut sat)
        };
        let replayed = self.replay_lemmas(&compiled.atoms, &mut sat);
        let out = self.search(ctx, &compiled, &mut sat);
        let st = sat.stats();
        self.stats.sat_decisions += st.decisions;
        self.stats.sat_conflicts += st.conflicts;
        self.stats.sat_propagations += st.propagations;
        self.recorder.add(names::SMT_SAT_DECISIONS, st.decisions);
        self.recorder.add(names::SMT_SAT_CONFLICTS, st.conflicts);
        self.recorder
            .add(names::SMT_SAT_PROPAGATIONS, st.propagations);
        self.scratch.sat = sat;
        if replayed && out.0 == SatResult::Unsat {
            // A solver of its own, with no lemmas, stats or recorder shared:
            // a retained lemma that was not a refutation shows as a `Sat`.
            debug_assert_ne!(
                Solver {
                    max_conflicts: self.max_conflicts,
                    max_final_checks: self.max_final_checks,
                    theory_limits: self.theory_limits,
                    ..Solver::new()
                }
                .check(ctx, f),
                SatResult::Sat,
                "a retained lemma refuted a satisfiable formula: {}",
                ctx.formula_to_string(f)
            );
        }
        out
    }

    /// Makes `sat` an instance holding the CNF of `f`, and returns the
    /// compiled formula. A root `a ∧ b` whose `a` is itself a conjunction
    /// resumes the kept compile paused after `a` (pausing one the second
    /// time `a` comes); the result is the one a fresh compile makes.
    fn compile(
        &mut self,
        ctx: &Context,
        f: FormulaId,
        sat: &mut SatSolver,
    ) -> cnf::CompiledFormula {
        let fresh = |sat: &mut SatSolver| {
            sat.clear();
            cnf::compile(ctx, f, sat)
        };
        let Formula::And(a, b) = *ctx.formula(f) else {
            return fresh(sat);
        };
        if !matches!(ctx.formula(a), Formula::And(..)) {
            return fresh(sat);
        }
        let Kept {
            paused, met_once, ..
        } = &mut self.kept;
        match paused.iter().position(|(p, _)| *p == a) {
            Some(k) => paused[..=k].rotate_right(1),
            None => {
                if let Some(k) = met_once.iter().position(|&m| m == a) {
                    met_once.remove(k);
                } else {
                    met_once.truncate(2 * PAUSED_COMPILES - 1);
                    met_once.insert(0, a);
                    return fresh(sat);
                }
                paused.truncate(PAUSED_COMPILES - 1);
                paused.insert(0, (a, cnf::Paused::start(ctx, a)));
            }
        }
        let compiled = paused[0].1.resume(ctx, f, b, sat);
        debug_assert!(
            {
                let mut scratch = SatSolver::new();
                fresh(&mut scratch) == compiled && scratch == *sat
            },
            "a resumed compile differs from a fresh one"
        );
        compiled
    }

    /// Adds one blocking clause per retained lemma whose atoms all occur in
    /// `atom_vars`; whether it added any.
    fn replay_lemmas(&self, atom_vars: &[(Var, FormulaId)], sat: &mut SatSolver) -> bool {
        if self.kept.cores.is_empty() {
            return false;
        }
        let var_of: IdMap<FormulaId, Var> = atom_vars.iter().map(|&(v, a)| (a, v)).collect();
        let mut replayed = false;
        let mut clause = Vec::new();
        for core in &self.kept.cores {
            clause.clear();
            for &(a, value) in core {
                match var_of.get(&a) {
                    Some(&v) => clause.push(blocking(v, value)),
                    None => break,
                }
            }
            if clause.len() == core.len() {
                sat.add_clause(&clause);
                replayed = true;
            }
        }
        replayed
    }

    /// The CDCL(T) loop proper: enumerate boolean models of the compiled
    /// formula with `sat`, final-check the relevant literals of each against
    /// the theory, learn blocking clauses and keep the confirmed ones as
    /// lemmas.
    fn search(
        &mut self,
        ctx: &Context,
        compiled: &cnf::CompiledFormula,
        sat: &mut SatSolver,
    ) -> (SatResult, Option<Interp>) {
        let mut saw_unknown = false;
        let mut relevant = Vec::new();
        for _ in 0..self.max_final_checks {
            let outcome = {
                let _span = self.recorder.span(names::SMT_SAT_NS);
                sat.solve(self.max_conflicts)
            };
            match outcome {
                SatOutcome::Unsat if saw_unknown => return (SatResult::Unknown, None),
                SatOutcome::Unsat => return (SatResult::Unsat, None),
                SatOutcome::Unknown => return (SatResult::Unknown, None),
                SatOutcome::Sat => {}
            }
            compiled.relevant_atoms(sat, &mut relevant);
            let (mut vars, mut literals, mut checked) =
                self.final_check(ctx, compiled, sat, &relevant);
            if let Ok(model) = checked {
                let mut interp = Interp::new(model);
                if literals.len() == compiled.atoms.len() || satisfies(ctx, &mut interp, &literals)
                {
                    interp.reset();
                    return (SatResult::Sat, Some(interp));
                }
                // The theory reads a product of two unknowns as an opaque
                // variable, tied to other terms only by the congruences
                // among the literals it is given. A relevant set can lack
                // the terms that refute it, so its model may not be one;
                // then every atom decides.
                relevant.fill(true);
                (vars, literals, checked) = self.final_check(ctx, compiled, sat, &relevant);
            }
            // Indices into `literals` whose conjunction the clause rules out.
            let blocked: Vec<usize> = match checked {
                Ok(model) => return (SatResult::Sat, Some(Interp::new(model))),
                Err(NoModel::Inconsistent(candidate)) => {
                    self.stats.theory_conflicts += 1;
                    self.recorder.add(names::SMT_THEORY_CONFLICTS, 1);
                    let _span = self.recorder.span(names::SMT_MINIMIZE_NS);
                    let core = self.confirmed_core(ctx, &literals, candidate);
                    self.stats.core_literals += core.len() as u64;
                    self.recorder
                        .add(names::SMT_CORE_LITERALS, core.len() as u64);
                    self.kept
                        .cores
                        .push(core.iter().map(|&i| literals[i]).collect());
                    core
                }
                Err(NoModel::Unknown) => {
                    // Cannot trust this model; block its relevant literals
                    // wholesale and record that a final Unsat is no longer
                    // conclusive. It is no refutation, so it is not kept as
                    // a lemma.
                    saw_unknown = true;
                    (0..literals.len()).collect()
                }
            };
            // The one place a theory clause found by this search enters the
            // SAT core (`replay_lemmas` adds those of earlier searches).
            // `blocked` is either a set `theory::check` refuted as given (see
            // `confirmed_core`) or a whole relevant set that taints the
            // verdict; either way the current model falsifies the clause.
            let clause: Vec<Lit> = blocked
                .iter()
                .map(|&i| blocking(vars[i], literals[i].1))
                .collect();
            sat.add_clause(&clause);
        }
        (SatResult::Unknown, None)
    }

    /// The final check of `sat`'s model on the atoms flagged in `relevant`:
    /// their variables and literals, in atom order, and the theory's answer.
    fn final_check(
        &mut self,
        ctx: &Context,
        compiled: &cnf::CompiledFormula,
        sat: &SatSolver,
        relevant: &[bool],
    ) -> (Vec<Var>, Vec<TheoryLit>, Result<theory::Model, NoModel>) {
        let (vars, literals): (Vec<Var>, Vec<TheoryLit>) = compiled
            .atoms
            .iter()
            .zip(relevant)
            .filter(|&(_, &needed)| needed)
            .map(|(&(v, a), _)| (v, (a, sat.value(v))))
            .unzip();
        self.stats.theory_checks += 1;
        self.recorder.add(names::SMT_THEORY_CHECKS, 1);
        let _span = self.recorder.span(names::SMT_THEORY_NS);
        let checked = self.theory_check(ctx, &literals);
        (vars, literals, checked)
    }

    /// One theory check, its work counters folded into the stats.
    fn theory_check(
        &mut self,
        ctx: &Context,
        literals: &[TheoryLit],
    ) -> Result<theory::Model, NoModel> {
        let mut t = TheoryStats::default();
        let checked = theory::check_in(
            ctx,
            literals,
            &self.theory_limits,
            &mut t,
            &mut self.scratch.theory,
        );
        self.stats.simplex_pivots += t.pivots;
        self.stats.theory_rounds += t.rounds;
        self.recorder.add(names::SMT_SIMPLEX_PIVOTS, t.pivots);
        self.recorder.add(names::SMT_THEORY_ROUNDS, t.rounds);
        checked
    }

    /// Whether the theory refutes exactly the literals `literals[i]`, `i ∈ keep`.
    fn refutes(&mut self, ctx: &Context, literals: &[TheoryLit], keep: &[usize]) -> bool {
        let subset: Vec<TheoryLit> = keep.iter().map(|&i| literals[i]).collect();
        matches!(
            self.theory_check(ctx, &subset),
            Err(NoModel::Inconsistent(_))
        )
    }

    /// Turns the theory's `candidate` explanation of an inconsistent
    /// `literals` into the core to block: a subset (as indices) that
    /// [`theory::check_with_model_stats`] has refuted *as given*.
    ///
    /// The candidate is only a hint, so it is re-checked first, and if the
    /// theory refutes it on its own it is the core. Otherwise the whole of
    /// `literals` — refuted by the check that produced the candidate — takes
    /// its place, and greedy deletion drops every literal whose removal
    /// keeps the set refuted. Each step that shrinks the set is a refutation
    /// of exactly the shrunken set, so the invariant holds at every exit,
    /// and a wrong explanation can cost time but never soundness.
    fn confirmed_core(
        &mut self,
        ctx: &Context,
        literals: &[TheoryLit],
        candidate: Vec<usize>,
    ) -> Vec<usize> {
        #[cfg(test)]
        let candidate: Vec<usize> = candidate
            .into_iter()
            .skip(usize::from(self.sabotage_candidates))
            .collect();
        if self.refutes(ctx, literals, &candidate) {
            return candidate;
        }
        self.stats.core_fallbacks += 1;
        self.recorder.add(names::SMT_CORE_FALLBACKS, 1);
        let mut core: Vec<usize> = (0..literals.len()).collect();
        let mut i = 0;
        while i < core.len() {
            let removed = core.remove(i);
            if self.refutes(ctx, literals, &core) {
                self.stats.minimized_literals += 1;
                self.recorder.add(names::SMT_MINIMIZED_LITERALS, 1);
                // Keep it removed; index i now points at the next literal.
            } else {
                core.insert(i, removed);
                i += 1;
            }
        }
        core
    }

    /// Whether `hypothesis ⇒ conclusion` is valid (proved by refutation).
    /// `Unknown` counts as *not proved*.
    pub fn is_valid(
        &mut self,
        ctx: &mut Context,
        hypothesis: FormulaId,
        conclusion: FormulaId,
    ) -> bool {
        let neg = ctx.not(conclusion);
        let q = ctx.and(hypothesis, neg);
        self.check(ctx, q) == SatResult::Unsat
    }
}

/// Whether `interp` gives every literal its value; then it makes true every
/// formula those literals justify.
fn satisfies(ctx: &Context, interp: &mut Interp, literals: &[TheoryLit]) -> bool {
    literals
        .iter()
        .all(|&(atom, value)| interp.formula(ctx, atom) == Some(value))
}

/// The literal of a blocking clause that rules out `v` having `value`.
fn blocking(v: Var, value: bool) -> Lit {
    if value {
        Lit::neg(v)
    } else {
        Lit::pos(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solver() -> Solver {
        Solver::new()
    }

    #[test]
    fn propositional_reasoning() {
        let mut ctx = Context::new();
        let x = ctx.int_var("x");
        let zero = ctx.int(0);
        let a = ctx.le(x, zero);
        let na = ctx.not(a);
        let phi = ctx.and(a, na);
        assert_eq!(solver().check(&ctx, phi), SatResult::Unsat);
        let psi = ctx.or(a, na);
        assert_eq!(solver().check(&ctx, psi), SatResult::Sat);
    }

    #[test]
    fn arithmetic_entailment() {
        // x > 0 ⇒ x ≥ 1 over integers.
        let mut ctx = Context::new();
        let x = ctx.int_var("x");
        let zero = ctx.int(0);
        let one = ctx.int(1);
        let h = ctx.lt(zero, x);
        let c = ctx.le(one, x);
        assert!(solver().is_valid(&mut ctx, h, c));
        // But x > 0 does not entail x ≥ 2.
        let two = ctx.int(2);
        let c2 = ctx.le(two, x);
        assert!(!solver().is_valid(&mut ctx, h, c2));
    }

    #[test]
    fn congruence_entailment() {
        // x = α ∧ y = f(x) ⇒ y = f(α).
        let mut ctx = Context::new();
        let f = ctx.fn_sym("f", 1);
        let x = ctx.int_var("x");
        let y = ctx.int_var("y");
        let alpha = ctx.int_var("alpha");
        let fx = ctx.app(f, vec![x]);
        let falpha = ctx.app(f, vec![alpha]);
        let h1 = ctx.eq(x, alpha);
        let h2 = ctx.eq(y, fx);
        let h = ctx.and(h1, h2);
        let c = ctx.eq(y, falpha);
        assert!(solver().is_valid(&mut ctx, h, c));
    }

    #[test]
    fn disjunctive_hypothesis() {
        // (x ≤ 0 ∨ x ≥ 10) ∧ x = 5 is unsat.
        let mut ctx = Context::new();
        let x = ctx.int_var("x");
        let zero = ctx.int(0);
        let ten = ctx.int(10);
        let five = ctx.int(5);
        let a = ctx.le(x, zero);
        let b = ctx.le(ten, x);
        let ab = ctx.or(a, b);
        let e = ctx.eq(x, five);
        let phi = ctx.and(ab, e);
        assert_eq!(solver().check(&ctx, phi), SatResult::Unsat);
    }

    #[test]
    fn paper_figure6_test_complement() {
        // x > α ⊨ ¬(x ≤ α), and ¬(x > α) ⊨ x ≤ α — the If-rule checks from
        // the paper's Figure 6 derivation.
        let mut ctx = Context::new();
        let x = ctx.int_var("x");
        let alpha = ctx.int_var("alpha");
        let gt = ctx.lt(alpha, x); // x > α
        let le = ctx.le(x, alpha);
        let nle = ctx.not(le);
        assert!(solver().is_valid(&mut ctx, gt, nle));
        let ngt = ctx.not(gt);
        assert!(solver().is_valid(&mut ctx, ngt, le));
    }

    #[test]
    fn paper_example6_loop_exit() {
        // j = i − 1 ∧ ¬(i > 0 ∧ j ≥ 0) ⇒ ¬(i > 0) ∧ ¬(j ≥ 0).
        let mut ctx = Context::new();
        let i = ctx.int_var("i");
        let j = ctx.int_var("j");
        let zero = ctx.int(0);
        let one = ctx.int(1);
        let im1 = ctx.sub(i, one);
        let inv = ctx.eq(j, im1);
        let i_pos = ctx.lt(zero, i);
        let j_nonneg = ctx.le(zero, j);
        let guard = ctx.and(i_pos, j_nonneg);
        let nguard = ctx.not(guard);
        let h = ctx.and(inv, nguard);
        let ni = ctx.not(i_pos);
        let nj = ctx.not(j_nonneg);
        let c = ctx.and(ni, nj);
        assert!(solver().is_valid(&mut ctx, h, c));
    }

    #[test]
    fn cross_simplification_example4() {
        // x = f(α) + 1 ⊨ f(α) − 1 = x − 2.
        let mut ctx = Context::new();
        let f = ctx.fn_sym("f", 1);
        let alpha = ctx.int_var("alpha");
        let x = ctx.int_var("x");
        let one = ctx.int(1);
        let two = ctx.int(2);
        let fa = ctx.app(f, vec![alpha]);
        let fa1 = ctx.add(fa, one);
        let h = ctx.eq(x, fa1);
        let lhs = ctx.sub(fa, one);
        let rhs = ctx.sub(x, two);
        let c = ctx.eq(lhs, rhs);
        assert!(solver().is_valid(&mut ctx, h, c));
    }

    #[test]
    fn unknown_on_tiny_budgets_never_unsound() {
        // With a starving budget the solver may return Unknown but must not
        // return a wrong Unsat for a satisfiable formula.
        let mut ctx = Context::new();
        let x = ctx.int_var("x");
        let y = ctx.int_var("y");
        let two = ctx.int(2);
        let seven = ctx.int(7);
        let tx = ctx.mul(two, x);
        let ty = ctx.mul(two, y);
        let sum = ctx.add(tx, ty);
        let e = ctx.eq(sum, seven); // 2x + 2y = 7: unsat over ints
        let mut s = Solver::new();
        s.theory_limits.lia_budget = 1;
        let r = s.check(&ctx, e);
        assert_ne!(r, SatResult::Sat, "2x+2y=7 has no integer model");
    }

    #[test]
    fn injected_unknown_hits_exactly_the_kth_check() {
        let mut ctx = Context::new();
        let x = ctx.int_var("x");
        let zero = ctx.int(0);
        let a = ctx.le(x, zero);
        let na = ctx.not(a);
        let phi = ctx.and(a, na); // unsat
        let mut s = Solver::new().with_unknown_at([1]);
        assert_eq!(s.check(&ctx, phi), SatResult::Unsat);
        assert_eq!(s.check(&ctx, phi), SatResult::Unknown, "check #1 is forced");
        assert_eq!(s.check(&ctx, phi), SatResult::Unsat);
    }

    #[test]
    fn an_untaken_disjunct_never_reaches_the_theory() {
        // `x ≤ 5 ∧ (x ≤ 5 ∨ (¬(0 < x) ∧ ¬(x < 1)))`: the second disjunct
        // says `x ≤ 0 ∧ 1 ≤ x`. A model that also makes it true still
        // needs only `x ≤ 5`, so the first final check is consistent.
        let mut ctx = Context::new();
        let x = ctx.int_var("x");
        let (zero, one, five) = (ctx.int(0), ctx.int(1), ctx.int(5));
        let small = ctx.le(x, five);
        let positive = ctx.lt(zero, x);
        let below_one = ctx.lt(x, one);
        let (not_positive, not_below_one) = (ctx.not(positive), ctx.not(below_one));
        let inconsistent = ctx.and(not_positive, not_below_one);
        let either = ctx.or(small, inconsistent);
        let phi = ctx.and(small, either);
        let mut s = solver();
        let (verdict, model) = s.check_with_model(&ctx, phi);
        assert_eq!(verdict, SatResult::Sat);
        assert_eq!(
            s.stats().theory_checks,
            1,
            "an irrelevant literal was checked"
        );
        let model = model.expect("a Sat verdict has a model");
        assert_eq!(crate::Interp::new(model).formula(&ctx, phi), Some(true));
    }

    #[test]
    fn a_relevant_model_that_misreads_a_product_falls_back_to_every_atom() {
        // `x = 3 ∧ 0 < y ∧ (x·y < 0 ∨ 3·y < 0)` has no model. A boolean
        // model that takes the first disjunct alone is consistent to the
        // theory, which reads `x·y` as an opaque variable; its model makes
        // `x·y < 0` false, and with every atom the untaken `3·y` joins the
        // check and congruence refutes the set.
        let mut ctx = Context::new();
        let (x, y) = (ctx.int_var("x"), ctx.int_var("y"));
        let (zero, three) = (ctx.int(0), ctx.int(3));
        let xy = ctx.mul(x, y);
        let three_y = ctx.mul(three, y);
        let conjuncts = [
            ctx.eq(x, three),
            ctx.lt(zero, y),
            ctx.lt(xy, zero),
            ctx.lt(three_y, zero),
        ];
        let either = ctx.or(conjuncts[2], conjuncts[3]);
        let phi = ctx.and_all([conjuncts[0], conjuncts[1], either]);
        assert_eq!(solver().check(&ctx, phi), SatResult::Unsat);
    }

    #[test]
    fn stats_accumulate() {
        let mut ctx = Context::new();
        let x = ctx.int_var("x");
        let zero = ctx.int(0);
        let a = ctx.le(x, zero);
        let na = ctx.not(a);
        let phi = ctx.and(a, na);
        let mut s = solver();
        let _ = s.check(&ctx, phi);
        assert_eq!(s.stats().checks, 1);
    }

    /// Seeded clause sets over small atoms (`x ≤ c`, `x = y + c`,
    /// `f(x) = y`, …): many boolean models, most of them refuted by the
    /// theory, so verdicts rest on the learned blocking clauses.
    fn clause_corpus(ctx: &mut Context, seed: u64, n: usize) -> Vec<FormulaId> {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let f = ctx.fn_sym("f", 1);
        let vars = ["x", "y", "z"].map(|v| ctx.int_var(v));
        let mut corpus = Vec::new();
        for _ in 0..n {
            let mut clauses = Vec::new();
            for _ in 0..rng.gen_range(4..10) {
                let mut lits = Vec::new();
                for _ in 0..rng.gen_range(1..3) {
                    let (a, b) = (vars[rng.gen_range(0..3)], vars[rng.gen_range(0..3)]);
                    let c = ctx.int(rng.gen_range(-3..4));
                    let atom = match rng.gen_range(0..5) {
                        0 => ctx.le(a, c),
                        1 => ctx.le(c, a),
                        2 => {
                            let bc = ctx.add(b, c);
                            ctx.eq(a, bc)
                        }
                        3 => {
                            let fa = ctx.app(f, vec![a]);
                            ctx.eq(fa, b)
                        }
                        _ => ctx.lt(a, b),
                    };
                    lits.push(if rng.gen_range(0..3) == 0 {
                        ctx.not(atom)
                    } else {
                        atom
                    });
                }
                clauses.push(ctx.or_all(lits));
            }
            corpus.push(ctx.and_all(clauses));
        }
        corpus
    }

    /// Each formula of `corpus` through a clone of `solver` of its own, so
    /// no lemma carries over from one formula to the next: the verdicts,
    /// and the clones' statistics summed.
    fn one_solver_per_formula(
        solver: &Solver,
        ctx: &Context,
        corpus: &[FormulaId],
    ) -> (Vec<SatResult>, SolverStats) {
        let mut stats = SolverStats::default();
        let verdicts = corpus
            .iter()
            .map(|&phi| {
                let mut s = solver.clone();
                let verdict = s.check(ctx, phi);
                stats += s.stats();
                verdict
            })
            .collect();
        (verdicts, stats)
    }

    #[test]
    fn dropping_a_literal_from_every_candidate_changes_no_verdict() {
        // The mutation makes most explanations wrong (a near-minimal core
        // minus one literal is consistent). Blocking such a set would turn
        // satisfiable formulas `Unsat`; the re-check in `confirmed_core`
        // must catch each one and fall back to the full assignment.
        let mut ctx = Context::new();
        let corpus = clause_corpus(&mut ctx, 19, 400);
        let mut sabotaged = Solver::new();
        sabotaged.sabotage_candidates = true;
        sabotaged.recorder = RecorderCell::memory();
        let (expected, honest) = one_solver_per_formula(&Solver::new(), &ctx, &corpus);
        let (got, sabotaged_stats) = one_solver_per_formula(&sabotaged, &ctx, &corpus);
        for (i, &phi) in corpus.iter().enumerate() {
            assert_eq!(got[i], expected[i], "{}", ctx.formula_to_string(phi));
        }
        let mut verdicts = [0usize; 3];
        for &v in &expected {
            verdicts[v as usize] += 1;
        }
        let [sat, unsat, _] = verdicts;
        assert!(sat > 20 && unsat > 20, "corpus is one-sided: {verdicts:?}");
        assert!(
            honest.theory_conflicts > 200,
            "corpus has too few conflicts: {honest:?}"
        );
        assert_eq!(honest.core_fallbacks, 0, "honest explanations hold");
        assert_eq!(
            honest.minimized_literals, 0,
            "a confirmed candidate was shrunk"
        );
        let fallbacks = sabotaged_stats.core_fallbacks;
        assert!(
            fallbacks > 100,
            "only {fallbacks} sabotaged candidates were caught"
        );
        assert!(
            sabotaged_stats.minimized_literals > 0,
            "no fallback core was shrunk"
        );
        let snap = sabotaged.recorder.snapshot().expect("memory recorder");
        assert_eq!(snap.counter(names::SMT_CORE_FALLBACKS), fallbacks);
        assert_eq!(snap.counter(names::SMT_UNKNOWN), sabotaged_stats.unknowns);
    }

    #[test]
    fn retained_lemmas_change_no_verdict_and_save_theory_checks() {
        // The twin of the test above with one solver for the whole corpus,
        // so every confirmed core of one formula is replayed into the later
        // ones over the same context. Where a sabotaged candidate is caught,
        // the retained core is the one deletion shrank from the whole
        // assignment; both solvers must still answer as fresh ones do.
        let mut ctx = Context::new();
        let corpus = clause_corpus(&mut ctx, 19, 200);
        let (expected, fresh) = one_solver_per_formula(&Solver::new(), &ctx, &corpus);
        let mut honest = Solver::new();
        let mut sabotaged = Solver::new();
        sabotaged.sabotage_candidates = true;
        for (i, &phi) in corpus.iter().enumerate() {
            let shown = ctx.formula_to_string(phi);
            assert_eq!(honest.check(&ctx, phi), expected[i], "{shown}");
            assert_eq!(sabotaged.check(&ctx, phi), expected[i], "{shown}");
        }
        let retained = honest.stats().theory_checks;
        assert!(
            retained < fresh.theory_checks,
            "retention saved no theory check: {retained} vs {}",
            fresh.theory_checks
        );
        assert!(
            sabotaged.stats().core_fallbacks > 0,
            "the sabotage never bit"
        );
    }

    #[test]
    fn lemmas_never_cross_contexts() {
        // `x ≤ 0 ∧ 1 ≤ x` (refuted) or `x ≤ 0 ∧ x ≤ 5` (consistent), built
        // so that both get the same ids in contexts that agree up to `x ≤ 0`.
        fn conjunction(ctx: &mut Context, refuted: bool) -> [FormulaId; 3] {
            let x = ctx.int_var("x");
            let zero = ctx.int(0);
            let p = ctx.le(x, zero);
            let q = if refuted {
                let one = ctx.int(1);
                ctx.le(one, x)
            } else {
                let five = ctx.int(5);
                ctx.le(x, five)
            };
            [p, q, ctx.and(p, q)]
        }
        let mut s = Solver::new();
        let mut ctx = Context::new();
        let refuted = conjunction(&mut ctx, true);
        assert_eq!(s.check(&ctx, refuted[2]), SatResult::Unsat);
        assert!(s.stats().theory_conflicts > 0, "no lemma was learned");
        let theory_checks = s.stats().theory_checks;
        assert_eq!(s.check(&ctx, refuted[2]), SatResult::Unsat);
        assert_eq!(
            s.stats().theory_checks,
            theory_checks,
            "the lemma was not replayed"
        );

        // Each context below is moved into `ctx`'s place before it is
        // checked, so a store keyed by the context's address, not its
        // identity, would replay the lemma on the same ids and answer
        // `Unsat`.
        ctx = Context::new();
        let consistent = conjunction(&mut ctx, false);
        assert_eq!(
            consistent, refuted,
            "the ids must collide for the test to bite"
        );
        assert_eq!(s.check(&ctx, consistent[2]), SatResult::Sat);

        // A clone that shares `x ≤ 0` with its original and diverged after.
        ctx = Context::new();
        let x = ctx.int_var("x");
        let zero = ctx.int(0);
        let _ = ctx.le(x, zero);
        let mut twin = ctx.clone();
        let original = conjunction(&mut ctx, true);
        assert_eq!(s.check(&ctx, original[2]), SatResult::Unsat);
        let consistent = conjunction(&mut twin, false);
        assert_eq!(
            consistent, refuted,
            "the ids must collide for the test to bite"
        );
        ctx = twin;
        assert_eq!(s.check(&ctx, consistent[2]), SatResult::Sat);
    }
}

//! Tseitin compilation of formulas to CNF over theory atoms.
//!
//! Every theory atom (`≤`, `<`, `=`) becomes one SAT variable; composite
//! nodes get auxiliary variables with the standard Tseitin equivalences. The
//! mapping from SAT variables back to atoms is returned so the solver can
//! translate satisfying assignments into theory literal sets.

use crate::ctx::{Context, Formula, FormulaId};
use crate::sat::{Lit, SatSolver, Var};
use std::collections::{BTreeMap, HashMap};

/// Result of compiling a formula: the clauses have been added to the solver;
/// `atoms` maps the SAT variables that stand for theory atoms to their
/// formula ids.
#[derive(Debug)]
pub struct CompiledFormula {
    /// SAT variable → theory atom, in variable order: the literal sets the
    /// solver builds from it (and so its cores, and its verdicts on the
    /// incomplete fragment) do not depend on a hash order.
    pub atoms: BTreeMap<Var, FormulaId>,
}

/// Compiles `root` into `solver`, returning the atom mapping.
///
/// Uses full (bidirectional) Tseitin encoding so the formula and its CNF are
/// equisatisfiable and every total SAT assignment induces a well-defined
/// truth value for every atom.
pub fn compile(ctx: &Context, root: FormulaId, solver: &mut SatSolver) -> CompiledFormula {
    let mut c = Compiler {
        ctx,
        solver,
        lit_of: HashMap::new(),
        atoms: BTreeMap::new(),
    };
    let l = c.lit(root);
    c.solver.add_clause(&[l]);
    CompiledFormula { atoms: c.atoms }
}

struct Compiler<'a> {
    ctx: &'a Context,
    solver: &'a mut SatSolver,
    lit_of: HashMap<FormulaId, Lit>,
    atoms: BTreeMap<Var, FormulaId>,
}

impl<'a> Compiler<'a> {
    fn lit(&mut self, f: FormulaId) -> Lit {
        if let Some(&l) = self.lit_of.get(&f) {
            return l;
        }
        let l = match self.ctx.formula(f).clone() {
            Formula::True => {
                let v = self.solver.new_var();
                self.solver.add_clause(&[Lit::pos(v)]);
                Lit::pos(v)
            }
            Formula::False => {
                let v = self.solver.new_var();
                self.solver.add_clause(&[Lit::neg(v)]);
                Lit::pos(v)
            }
            Formula::Le(..) | Formula::Lt(..) | Formula::Eq(..) => {
                let v = self.solver.new_var();
                self.atoms.insert(v, f);
                Lit::pos(v)
            }
            Formula::Not(g) => self.lit(g).negate(),
            Formula::And(a, b) => {
                let la = self.lit(a);
                let lb = self.lit(b);
                let v = self.solver.new_var();
                let lv = Lit::pos(v);
                self.solver.add_clause(&[lv.negate(), la]);
                self.solver.add_clause(&[lv.negate(), lb]);
                self.solver.add_clause(&[lv, la.negate(), lb.negate()]);
                lv
            }
            Formula::Or(a, b) => {
                let la = self.lit(a);
                let lb = self.lit(b);
                let v = self.solver.new_var();
                let lv = Lit::pos(v);
                self.solver.add_clause(&[lv.negate(), la, lb]);
                self.solver.add_clause(&[lv, la.negate()]);
                self.solver.add_clause(&[lv, lb.negate()]);
                lv
            }
        };
        self.lit_of.insert(f, l);
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::SatOutcome;

    #[test]
    fn pure_boolean_structure_is_sat_checked() {
        // (a ∨ b) ∧ ¬a ∧ ¬b over atoms a: x≤0, b: x=1 → propositionally unsat.
        let mut ctx = Context::new();
        let x = ctx.int_var("x");
        let zero = ctx.int(0);
        let one = ctx.int(1);
        let a = ctx.le(x, zero);
        let b = ctx.eq(x, one);
        let ab = ctx.or(a, b);
        let na = ctx.not(a);
        let nb = ctx.not(b);
        let f1 = ctx.and(ab, na);
        let phi = ctx.and(f1, nb);
        let mut sat = SatSolver::new();
        let compiled = compile(&ctx, phi, &mut sat);
        assert_eq!(compiled.atoms.len(), 2);
        assert_eq!(sat.solve(1000), SatOutcome::Unsat);
    }

    #[test]
    fn atom_assignment_is_recoverable() {
        let mut ctx = Context::new();
        let x = ctx.int_var("x");
        let zero = ctx.int(0);
        let a = ctx.le(x, zero);
        let na = ctx.not(a);
        let mut sat = SatSolver::new();
        let compiled = compile(&ctx, na, &mut sat);
        assert_eq!(sat.solve(1000), SatOutcome::Sat);
        let (&v, &atom) = compiled.atoms.iter().next().unwrap();
        assert_eq!(atom, a);
        assert!(!sat.value(v), "¬a requires the atom variable to be false");
    }

    #[test]
    fn shared_subformulas_compile_once() {
        let mut ctx = Context::new();
        let x = ctx.int_var("x");
        let zero = ctx.int(0);
        let a = ctx.le(x, zero);
        let phi = ctx.or(a, a); // folded to `a` by the smart constructor
        let mut sat = SatSolver::new();
        let compiled = compile(&ctx, phi, &mut sat);
        assert_eq!(compiled.atoms.len(), 1);
        assert_eq!(sat.solve(1000), SatOutcome::Sat);
    }

    #[test]
    fn constants_compile() {
        let mut ctx = Context::new();
        let t = ctx.tru();
        let mut sat = SatSolver::new();
        compile(&ctx, t, &mut sat);
        assert_eq!(sat.solve(100), SatOutcome::Sat);
        let f = ctx.fls();
        let mut sat2 = SatSolver::new();
        compile(&ctx, f, &mut sat2);
        assert_eq!(sat2.solve(100), SatOutcome::Unsat);
    }
}

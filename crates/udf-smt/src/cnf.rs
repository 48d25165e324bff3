//! Tseitin compilation of formulas to CNF over theory atoms.
//!
//! Every theory atom (`≤`, `<`, `=`) becomes one SAT variable; composite
//! nodes get auxiliary variables with the standard Tseitin equivalences.
//! The root's `And` spine is the exception: each of its conjuncts is
//! asserted as a unit clause of its own, with no variable for the spine.
//!
//! The compiled formula keeps each node's literal, so after a SAT model the
//! solver can ask which atoms the model needs to make the formula true
//! (`CompiledFormula::relevant_atoms`) without re-evaluating it.

use crate::ctx::{Context, Formula, FormulaId, IdMap};
use crate::sat::{Lit, SatSolver, Var};

/// Result of compiling a formula: the clauses have been added to the
/// solver; `atoms` lists the SAT variables that stand for theory atoms.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CompiledFormula {
    /// SAT variable and theory atom, in variable order: the literal sets the
    /// solver builds from it (and so its cores, and its verdicts on the
    /// incomplete fragment) do not depend on a hash order.
    pub atoms: Vec<(Var, FormulaId)>,
    /// Every compiled node, children before parents.
    nodes: Vec<Node>,
    /// The nodes asserted by unit clauses: the conjuncts of the root's
    /// `And` spine.
    roots: Vec<usize>,
}

/// A compiled subformula and the literal whose value it has in every model
/// of the clauses (full Tseitin encoding).
#[derive(Clone, Copy, Debug, PartialEq)]
struct Node {
    shape: Shape,
    lit: Lit,
}

/// A node's connective; operands index [`CompiledFormula::nodes`].
#[derive(Clone, Copy, Debug, PartialEq)]
enum Shape {
    /// Index into [`CompiledFormula::atoms`].
    Atom(usize),
    Const,
    Not(usize),
    And(usize, usize),
    Or(usize, usize),
}

impl CompiledFormula {
    /// Marks in `relevant` (one flag per entry of `atoms`) the atoms whose
    /// values under `sat`'s last model justify the formula, and clears the
    /// others: a true `And` or a false `Or` needs both operands, a true
    /// `Or` or a false `And` its first operand with that value, and `Not`
    /// what its operand needs. Any assignment that agrees with the model on
    /// the marked atoms makes the formula true.
    pub(crate) fn relevant_atoms(&self, sat: &SatSolver, relevant: &mut Vec<bool>) {
        relevant.clear();
        relevant.resize(self.atoms.len(), false);
        let holds = |n: usize| {
            let l = self.nodes[n].lit;
            sat.value(l.var()) != l.is_neg()
        };
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = self.roots.clone();
        while let Some(n) = stack.pop() {
            if std::mem::replace(&mut seen[n], true) {
                continue;
            }
            match self.nodes[n].shape {
                Shape::Atom(i) => relevant[i] = true,
                Shape::Const => {}
                Shape::Not(a) => stack.push(a),
                Shape::And(a, b) | Shape::Or(a, b) => {
                    let value = holds(n);
                    if value == matches!(self.nodes[n].shape, Shape::And(..)) {
                        stack.extend([b, a]);
                    } else {
                        stack.push(if holds(a) == value { a } else { b });
                    }
                }
            }
        }
    }
}

/// Compiles `root` into `solver`, returning the atom mapping.
///
/// Uses full (bidirectional) Tseitin encoding below the root's `And`
/// spine, so the formula and its CNF are equisatisfiable and, in every
/// model of the clauses, each compiled node's literal has that node's truth
/// value.
pub fn compile(ctx: &Context, root: FormulaId, solver: &mut SatSolver) -> CompiledFormula {
    let mut c = Compiler {
        ctx,
        solver,
        tables: Tables::default(),
    };
    c.spine(root);
    c.tables.out
}

/// A compile paused between two conjuncts of a root `a ∧ b`: the SAT
/// instance holding the clauses of `a`'s spine, and the compiler's tables.
/// [`Paused::resume`] copies them and compiles `b` into the copy, which
/// leaves the same instance, variable for variable and clause for clause,
/// as [`compile`] of `a ∧ b` does on a fresh one: the walk is left operand
/// first and numbers variables as it meets nodes, so everything it does for
/// `a` comes before anything it does for `b`.
#[derive(Clone, Debug)]
pub(crate) struct Paused {
    sat: SatSolver,
    tables: Tables,
}

impl Paused {
    /// `a`'s spine compiled into a fresh SAT instance.
    pub(crate) fn start(ctx: &Context, a: FormulaId) -> Paused {
        let mut sat = SatSolver::new();
        let mut c = Compiler {
            ctx,
            solver: &mut sat,
            tables: Tables::default(),
        };
        c.spine(a);
        let tables = c.tables;
        Paused { sat, tables }
    }

    /// Makes `sat` the instance of `root = a ∧ b`, where `self` is paused
    /// after `a`, and returns the compiled formula.
    pub(crate) fn resume(
        &self,
        ctx: &Context,
        root: FormulaId,
        b: FormulaId,
        sat: &mut SatSolver,
    ) -> CompiledFormula {
        sat.clone_from(&self.sat);
        let mut c = Compiler {
            ctx,
            solver: sat,
            tables: self.tables.clone(),
        };
        c.tables.spine.insert(root, ());
        c.spine(b);
        c.tables.out
    }
}

/// What a compile has built so far, besides the clauses.
#[derive(Clone, Debug, Default)]
struct Tables {
    /// Formula → index of its compiled node.
    node_of: IdMap<FormulaId, usize>,
    /// The `And` nodes of the root's spine already walked.
    spine: IdMap<FormulaId, ()>,
    out: CompiledFormula,
}

struct Compiler<'a> {
    ctx: &'a Context,
    solver: &'a mut SatSolver,
    tables: Tables,
}

impl<'a> Compiler<'a> {
    /// Asserts the conjuncts of `f`'s `And` spine, left operand first.
    fn spine(&mut self, f: FormulaId) {
        if let Formula::And(a, b) = *self.ctx.formula(f) {
            if self.tables.spine.insert(f, ()).is_none() {
                self.spine(a);
                self.spine(b);
            }
            return;
        }
        let n = self.node(f);
        self.solver.add_clause(&[self.tables.out.nodes[n].lit]);
        self.tables.out.roots.push(n);
    }

    fn node(&mut self, f: FormulaId) -> usize {
        if let Some(&n) = self.tables.node_of.get(&f) {
            return n;
        }
        let node = match *self.ctx.formula(f) {
            Formula::True | Formula::False => {
                let lit = Lit::pos(self.solver.new_var());
                let unit = if matches!(self.ctx.formula(f), Formula::True) {
                    lit
                } else {
                    lit.negate()
                };
                self.solver.add_clause(&[unit]);
                Node {
                    shape: Shape::Const,
                    lit,
                }
            }
            Formula::Le(..) | Formula::Lt(..) | Formula::Eq(..) => {
                let v = self.solver.new_var();
                self.tables.out.atoms.push((v, f));
                Node {
                    shape: Shape::Atom(self.tables.out.atoms.len() - 1),
                    lit: Lit::pos(v),
                }
            }
            Formula::Not(g) => {
                let a = self.node(g);
                Node {
                    shape: Shape::Not(a),
                    lit: self.tables.out.nodes[a].lit.negate(),
                }
            }
            Formula::And(a, b) => {
                let (a, b) = (self.node(a), self.node(b));
                let (la, lb) = (self.tables.out.nodes[a].lit, self.tables.out.nodes[b].lit);
                let lv = Lit::pos(self.solver.new_var());
                self.solver.add_clause(&[lv.negate(), la]);
                self.solver.add_clause(&[lv.negate(), lb]);
                self.solver.add_clause(&[lv, la.negate(), lb.negate()]);
                Node {
                    shape: Shape::And(a, b),
                    lit: lv,
                }
            }
            Formula::Or(a, b) => {
                let (a, b) = (self.node(a), self.node(b));
                let (la, lb) = (self.tables.out.nodes[a].lit, self.tables.out.nodes[b].lit);
                let lv = Lit::pos(self.solver.new_var());
                self.solver.add_clause(&[lv.negate(), la, lb]);
                self.solver.add_clause(&[lv, la.negate()]);
                self.solver.add_clause(&[lv, lb.negate()]);
                Node {
                    shape: Shape::Or(a, b),
                    lit: lv,
                }
            }
        };
        self.tables.out.nodes.push(node);
        self.tables
            .node_of
            .insert(f, self.tables.out.nodes.len() - 1);
        self.tables.out.nodes.len() - 1
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
        let (v, atom) = compiled.atoms[0];
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
    fn the_root_spine_gets_no_variable() {
        // `a ∧ (b ∨ c)`: three atoms and the `Or`; the root `And` is two
        // unit clauses.
        let mut ctx = Context::new();
        let x = ctx.int_var("x");
        let [a, b, c] = [0, 1, 2].map(|k| {
            let k = ctx.int(k);
            ctx.le(x, k)
        });
        let bc = ctx.or(b, c);
        let phi = ctx.and(a, bc);
        let mut sat = SatSolver::new();
        let compiled = compile(&ctx, phi, &mut sat);
        assert_eq!(compiled.atoms.len(), 3);
        assert_eq!(sat.num_vars(), 4);
        assert_eq!(sat.solve(100), SatOutcome::Sat);
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

//! A from-scratch *lazy SMT solver* for the combined theory of linear integer
//! arithmetic (LIA) and equality with uninterpreted functions (EUF).
//!
//! The PLDI 2014 consolidation paper discharges its entailment obligations
//! (`Ψ ⊨ e`, `Ψ ⊨ e = e'`, loop-invariant checks) with Z3. This crate plays
//! that role with a self-contained implementation:
//!
//! * [`ctx`] — hash-consed terms and formulas ([`Context`]),
//! * [`canon`] — context-independent canonical hashing of entailment
//!   queries, the key basis for cross-thread memoization,
//! * [`cnf`] — NNF conversion and Tseitin CNF over theory atoms,
//! * [`sat`] — a CDCL SAT core (watched literals, first-UIP learning, VSIDS),
//! * `euf` — congruence closure for uninterpreted functions,
//! * [`rational`] — exact `i128` rationals for the simplex,
//! * [`simplex`] — a Dutertre–de Moura style general simplex with integer
//!   branch-and-bound and disequality splitting,
//! * [`theory`] — literal translation and the Nelson–Oppen-style equality
//!   exchange between EUF and LIA,
//! * `solver` — the top loop: SAT search with theory *final checks* and
//!   blocking-clause learning,
//! * [`eval`] — evaluation under a total interpretation built from a `Sat`
//!   model: the independent check that a countermodel is one.
//!
//! # Incompleteness policy
//!
//! Integer arithmetic with branching is decidable but the solver bounds its
//! branch-and-bound depth; on resource exhaustion it returns
//! [`SatResult::Unknown`]. Callers that ask *validity* questions
//! ([`Solver::is_valid`]) treat `Unknown` as "not proved". In the
//! consolidation setting this can only make the optimizer *miss* a rewrite —
//! it can never justify an unsound one, because rewrites require a proof of
//! `Unsat` for the negated obligation.
//!
//! # Example
//!
//! ```
//! use udf_smt::{Context, Solver, SatResult};
//!
//! let mut ctx = Context::new();
//! let x = ctx.int_var("x");
//! let f = ctx.fn_sym("f", 1);
//! let fx = ctx.app(f, vec![x]);
//! let c7 = ctx.int(7);
//! // x = 7 ∧ f(x) ≠ f(7) is unsatisfiable by congruence.
//! let x_eq_7 = ctx.eq(x, c7);
//! let f7 = ctx.app(f, vec![c7]);
//! let neq = {
//!     let e = ctx.eq(fx, f7);
//!     ctx.not(e)
//! };
//! let phi = ctx.and(x_eq_7, neq);
//! let mut solver = Solver::new();
//! assert_eq!(solver.check(&mut ctx, phi), SatResult::Unsat);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod canon;
pub mod cnf;
pub mod ctx;
mod euf;
pub mod eval;
pub mod rational;
pub mod sat;
pub mod simplex;
mod solver;
pub mod theory;

pub use ctx::{Context, FnSym, FormulaId, TermId, VarId};
pub use eval::Interp;
pub use solver::{SatResult, Solver, SolverStats};
pub use theory::Model;

//! Big-step, cost-annotated interpreter (paper Figure 2).
//!
//! Judgements `E, e ⇓ᵏ c` and `E, S ⇓ᵏ E', N` are realized by
//! `Interp::int_expr`, [`Interp::bool_expr`], and [`Interp::stmt_in`]; the
//! notification environment `N` collects every `notifyᵢ b` executed. The
//! disjoint-union `N₁ ⊎ N₂` of Figure 2 is enforced: broadcasting twice for
//! the same program id is a runtime error.
//!
//! The interpreter is the semantic ground truth for the whole repository:
//! the soundness property of consolidation (Definition 1) is tested by
//! running original and consolidated programs here and comparing
//! notifications, final environments, and costs.

use crate::ast::{BoolExpr, IntExpr, ProgId, Program, Stmt};
use crate::cost::{Cost, CostModel};
use crate::intern::{Interner, Symbol};
use crate::library::{LibError, Library};
use std::collections::BTreeMap;
use std::fmt;

/// Default step budget for one program run.
pub const DEFAULT_FUEL: u64 = 10_000_000;

/// Variable environment `E`.
pub type Env = BTreeMap<Symbol, i64>;

/// Notification environment `N`: a map from program ids to broadcast booleans.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NotificationEnv {
    map: BTreeMap<ProgId, bool>,
}

impl NotificationEnv {
    /// Creates an empty notification environment.
    pub(crate) fn new() -> NotificationEnv {
        NotificationEnv::default()
    }

    /// Records `notifyᵢ b`.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::DuplicateNotify`] if id `i` already broadcast —
    /// Figure 2's `⊎` is a *disjoint* union.
    pub(crate) fn notify(&mut self, id: ProgId, b: bool) -> Result<(), EvalError> {
        if self.map.insert(id, b).is_some() {
            return Err(EvalError::DuplicateNotify(id));
        }
        Ok(())
    }

    /// Broadcast value of program `id`, if any.
    pub fn get(&self, id: ProgId) -> Option<bool> {
        self.map.get(&id).copied()
    }

    /// Disjoint union `self ⊎ other`.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::DuplicateNotify`] when the two environments share
    /// a program id.
    pub fn disjoint_union(mut self, other: NotificationEnv) -> Result<NotificationEnv, EvalError> {
        for (id, b) in other.map {
            self.notify(id, b)?;
        }
        Ok(self)
    }

    /// Iterates over `(id, value)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ProgId, bool)> + '_ {
        self.map.iter().map(|(&id, &b)| (id, b))
    }

    /// Number of broadcasts recorded.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing was broadcast.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Errors raised during evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A variable was read before being assigned.
    UnboundVar(String),
    /// `notifyᵢ` executed twice for the same `i`.
    DuplicateNotify(ProgId),
    /// External call failed.
    Lib(LibError),
    /// The step budget was exhausted (guards divergent loops).
    OutOfFuel,
    /// The program was invoked with the wrong number of arguments.
    ArityMismatch {
        /// Declared parameter count.
        expected: usize,
        /// Supplied argument count.
        got: usize,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundVar(v) => write!(f, "unbound variable `{v}`"),
            EvalError::DuplicateNotify(id) => {
                write!(f, "duplicate notification for program {id}")
            }
            EvalError::Lib(e) => write!(f, "library error: {e}"),
            EvalError::OutOfFuel => write!(f, "evaluation exceeded its step budget"),
            EvalError::ArityMismatch { expected, got } => {
                write!(f, "program expects {expected} argument(s), got {got}")
            }
        }
    }
}

impl std::error::Error for EvalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EvalError::Lib(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LibError> for EvalError {
    fn from(e: LibError) -> EvalError {
        EvalError::Lib(e)
    }
}

/// Result of running a program: final environment, notifications, and total
/// abstract cost `k` of `E, S ⇓ᵏ E', N`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// Final variable environment `E'`.
    pub env: Env,
    /// Notification environment `N`.
    pub notifications: NotificationEnv,
    /// Total abstract cost.
    pub cost: Cost,
}

/// The interpreter, parameterized by a [`CostModel`] and a [`Library`].
pub struct Interp<'l, L: Library + ?Sized> {
    cost_model: CostModel,
    library: &'l L,
    fuel: u64,
}

impl<'l, L: Library + ?Sized> fmt::Debug for Interp<'l, L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interp")
            .field("cost_model", &self.cost_model)
            .field("fuel", &self.fuel)
            .finish_non_exhaustive()
    }
}

struct EvalState<'a, L: Library + ?Sized> {
    cm: &'a CostModel,
    lib: &'a L,
    interner: &'a Interner,
    fuel: u64,
    cost: Cost,
}

impl<'a, L: Library + ?Sized> EvalState<'a, L> {
    #[inline]
    fn tick(&mut self) -> Result<(), EvalError> {
        if self.fuel == 0 {
            return Err(EvalError::OutOfFuel);
        }
        self.fuel -= 1;
        Ok(())
    }

    fn int_expr(&mut self, env: &Env, e: &IntExpr) -> Result<i64, EvalError> {
        self.tick()?;
        match e {
            IntExpr::Const(c) => {
                self.cost += self.cm.int_const;
                Ok(*c)
            }
            IntExpr::Var(v) => {
                self.cost += self.cm.var;
                env.get(v)
                    .copied()
                    .ok_or_else(|| EvalError::UnboundVar(self.interner.resolve(*v).to_owned()))
            }
            IntExpr::Call(f, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.int_expr(env, a)?);
                }
                self.cost += self.lib.cost(*f);
                Ok(self.lib.call(*f, &vals)?)
            }
            IntExpr::Bin(op, a, b) => {
                let va = self.int_expr(env, a)?;
                let vb = self.int_expr(env, b)?;
                self.cost += self.cm.arith;
                Ok(op.apply(va, vb))
            }
        }
    }

    fn bool_expr(&mut self, env: &Env, e: &BoolExpr) -> Result<bool, EvalError> {
        self.tick()?;
        match e {
            BoolExpr::Const(b) => {
                self.cost += self.cm.bool_const;
                Ok(*b)
            }
            BoolExpr::Cmp(op, a, b) => {
                let va = self.int_expr(env, a)?;
                let vb = self.int_expr(env, b)?;
                self.cost += self.cm.cmp;
                Ok(op.apply(va, vb))
            }
            BoolExpr::Not(a) => {
                let v = self.bool_expr(env, a)?;
                self.cost += self.cm.not;
                Ok(!v)
            }
            // Figure 2 gives *strict* connectives: both operands are
            // evaluated and both costs are paid.
            BoolExpr::Bin(op, a, b) => {
                let va = self.bool_expr(env, a)?;
                let vb = self.bool_expr(env, b)?;
                self.cost += self.cm.connective;
                Ok(op.apply(va, vb))
            }
        }
    }

    fn stmt(
        &mut self,
        env: &mut Env,
        notifications: &mut NotificationEnv,
        s: &Stmt,
    ) -> Result<(), EvalError> {
        self.tick()?;
        match s {
            Stmt::Skip => Ok(()),
            Stmt::Assign(x, e) => {
                let v = self.int_expr(env, e)?;
                self.cost += self.cm.assign;
                env.insert(*x, v);
                Ok(())
            }
            Stmt::Seq(a, b) => {
                self.stmt(env, notifications, a)?;
                self.stmt(env, notifications, b)
            }
            Stmt::If(c, then_s, else_s) => {
                let v = self.bool_expr(env, c)?;
                self.cost += self.cm.branch;
                if v {
                    self.stmt(env, notifications, then_s)
                } else {
                    self.stmt(env, notifications, else_s)
                }
            }
            Stmt::While(c, body) => loop {
                let v = self.bool_expr(env, c)?;
                self.cost += self.cm.branch;
                if !v {
                    return Ok(());
                }
                self.stmt(env, notifications, body)?;
                self.tick()?;
            },
            Stmt::Notify(id, b) => {
                self.cost += self.cm.notify;
                notifications.notify(*id, *b)
            }
        }
    }
}

impl<'l, L: Library + ?Sized> Interp<'l, L> {
    /// Creates an interpreter with the [`DEFAULT_FUEL`] step budget.
    pub fn new(cost_model: CostModel, library: &'l L) -> Interp<'l, L> {
        Interp {
            cost_model,
            library,
            fuel: DEFAULT_FUEL,
        }
    }

    /// Replaces the step budget used to guard divergent loops.
    pub fn with_fuel(mut self, fuel: u64) -> Interp<'l, L> {
        self.fuel = fuel;
        self
    }

    /// Runs a whole program on the argument vector `args` (bound positionally
    /// to [`Program::params`]), starting from an otherwise empty environment.
    ///
    /// # Errors
    ///
    /// Returns an [`EvalError`] for arity mismatches, unbound variables,
    /// duplicate notifications, library failures, or fuel exhaustion.
    pub fn run(
        &self,
        program: &Program,
        args: &[i64],
        interner: &Interner,
    ) -> Result<RunResult, EvalError> {
        if args.len() != program.params.len() {
            return Err(EvalError::ArityMismatch {
                expected: program.params.len(),
                got: args.len(),
            });
        }
        let mut env = Env::new();
        for (&p, &v) in program.params.iter().zip(args) {
            env.insert(p, v);
        }
        self.stmt_in(&mut env, &program.body, interner)
    }

    /// Runs a statement in a caller-supplied environment, returning the final
    /// environment, notifications, and cost.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Interp::run`].
    pub fn stmt_in(
        &self,
        env: &mut Env,
        s: &Stmt,
        interner: &Interner,
    ) -> Result<RunResult, EvalError> {
        let mut st = EvalState {
            cm: &self.cost_model,
            lib: self.library,
            interner,
            fuel: self.fuel,
            cost: 0,
        };
        let mut notifications = NotificationEnv::new();
        st.stmt(env, &mut notifications, s)?;
        Ok(RunResult {
            env: env.clone(),
            notifications,
            cost: st.cost,
        })
    }

    /// Evaluates an integer expression under `env`, returning `(value, cost)`.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Interp::run`].
    #[cfg(test)]
    pub(crate) fn int_expr(
        &self,
        env: &Env,
        e: &IntExpr,
        interner: &Interner,
    ) -> Result<(i64, Cost), EvalError> {
        let mut st = EvalState {
            cm: &self.cost_model,
            lib: self.library,
            interner,
            fuel: self.fuel,
            cost: 0,
        };
        let v = st.int_expr(env, e)?;
        Ok((v, st.cost))
    }

    /// Evaluates a boolean expression under `env`, returning `(value, cost)`.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Interp::run`].
    pub fn bool_expr(
        &self,
        env: &Env,
        e: &BoolExpr,
        interner: &Interner,
    ) -> Result<(bool, Cost), EvalError> {
        let mut st = EvalState {
            cm: &self.cost_model,
            lib: self.library,
            interner,
            fuel: self.fuel,
            cost: 0,
        };
        let v = st.bool_expr(env, e)?;
        Ok((v, st.cost))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{CmpOp, IntExpr, ProgId, Stmt};
    use crate::library::FnLibrary;

    fn setup() -> (Interner, FnLibrary) {
        let mut i = Interner::new();
        let f = i.intern("f");
        let mut lib = FnLibrary::new();
        lib.register(f, "f", 1, 10, |a| a[0] * 2);
        (i, lib)
    }

    #[test]
    fn assignment_and_cost() {
        let (mut i, lib) = setup();
        let x = i.intern("x");
        let s = Stmt::Assign(x, IntExpr::add(IntExpr::Const(1), IntExpr::Const(2)));
        let interp = Interp::new(CostModel::default(), &lib);
        let mut env = Env::new();
        let r = interp.stmt_in(&mut env, &s, &i).unwrap();
        assert_eq!(r.env.get(&x), Some(&3));
        // const + const + arith + assign = 4
        assert_eq!(r.cost, 4);
    }

    #[test]
    fn call_uses_library_value_and_cost() {
        let (mut i, lib) = setup();
        let f = i.intern("f");
        let e = IntExpr::Call(f, vec![IntExpr::Const(21)]);
        let interp = Interp::new(CostModel::default(), &lib);
        let (v, k) = interp.int_expr(&Env::new(), &e, &i).unwrap();
        assert_eq!(v, 42);
        assert_eq!(k, 11); // const(1) + call(10)
    }

    #[test]
    fn while_loop_terminates_and_counts_branches() {
        let (mut i, lib) = setup();
        let x = i.intern("x");
        // while (x < 3) { x := x + 1 }
        let body = Stmt::Assign(x, IntExpr::add(IntExpr::Var(x), IntExpr::Const(1)));
        let s = Stmt::while_do(
            BoolExpr::Cmp(CmpOp::Lt, IntExpr::Var(x), IntExpr::Const(3)),
            body,
        );
        let interp = Interp::new(CostModel::default(), &lib);
        let mut env = Env::new();
        env.insert(x, 0);
        let r = interp.stmt_in(&mut env, &s, &i).unwrap();
        assert_eq!(r.env.get(&x), Some(&3));
        // 4 guard evaluations: 4*(var+const+cmp+branch) = 16; 3 iterations of
        // body: 3*(var+const+arith+assign) = 12 → 28
        assert_eq!(r.cost, 28);
    }

    #[test]
    fn divergent_loop_runs_out_of_fuel() {
        let (i, lib) = setup();
        let s = Stmt::while_do(BoolExpr::Const(true), Stmt::Skip);
        let interp = Interp::new(CostModel::default(), &lib).with_fuel(1000);
        let mut env = Env::new();
        assert_eq!(
            interp.stmt_in(&mut env, &s, &i).unwrap_err(),
            EvalError::OutOfFuel
        );
    }

    #[test]
    fn duplicate_notification_is_an_error() {
        let (i, lib) = setup();
        let s = Stmt::Notify(ProgId(0), true).then(Stmt::Notify(ProgId(0), false));
        let interp = Interp::new(CostModel::default(), &lib);
        let mut env = Env::new();
        assert_eq!(
            interp.stmt_in(&mut env, &s, &i).unwrap_err(),
            EvalError::DuplicateNotify(ProgId(0))
        );
    }

    #[test]
    fn distinct_notifications_accumulate() {
        let (i, lib) = setup();
        let s = Stmt::Notify(ProgId(0), true).then(Stmt::Notify(ProgId(1), false));
        let interp = Interp::new(CostModel::default(), &lib);
        let mut env = Env::new();
        let r = interp.stmt_in(&mut env, &s, &i).unwrap();
        assert_eq!(r.notifications.get(ProgId(0)), Some(true));
        assert_eq!(r.notifications.get(ProgId(1)), Some(false));
        assert_eq!(r.notifications.len(), 2);
    }

    #[test]
    fn unbound_variable_is_reported_by_name() {
        let (mut i, lib) = setup();
        let y = i.intern("mystery");
        let interp = Interp::new(CostModel::default(), &lib);
        let err = interp
            .int_expr(&Env::new(), &IntExpr::Var(y), &i)
            .unwrap_err();
        assert_eq!(err, EvalError::UnboundVar("mystery".to_owned()));
    }

    #[test]
    fn run_binds_parameters_positionally() {
        let (mut i, lib) = setup();
        let a = i.intern("a");
        let b = i.intern("b");
        let x = i.intern("x");
        let p = Program::new(
            ProgId(7),
            vec![a, b],
            Stmt::Assign(x, IntExpr::sub(IntExpr::Var(a), IntExpr::Var(b))),
        );
        let interp = Interp::new(CostModel::default(), &lib);
        let r = interp.run(&p, &[10, 4], &i).unwrap();
        assert_eq!(r.env.get(&x), Some(&6));
        assert!(matches!(
            interp.run(&p, &[1], &i),
            Err(EvalError::ArityMismatch {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn strict_connectives_pay_both_sides() {
        let (i, lib) = setup();
        let e = BoolExpr::and(BoolExpr::Const(false), BoolExpr::Const(true));
        let interp = Interp::new(CostModel::default(), &lib);
        let (v, k) = interp.bool_expr(&Env::new(), &e, &i).unwrap();
        assert!(!v);
        assert_eq!(k, 3); // both bools + connective
    }

    #[test]
    fn disjoint_union_detects_collisions() {
        let mut n1 = NotificationEnv::new();
        n1.notify(ProgId(0), true).unwrap();
        let mut n2 = NotificationEnv::new();
        n2.notify(ProgId(0), false).unwrap();
        assert!(n1.clone().disjoint_union(n2).is_err());
        let mut n3 = NotificationEnv::new();
        n3.notify(ProgId(1), false).unwrap();
        let merged = n1.disjoint_union(n3).unwrap();
        assert_eq!(merged.len(), 2);
    }
}

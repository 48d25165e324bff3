//! Static cost bounds for programs.
//!
//! The dynamic cost of a run (Figure 2) depends on the input; this module
//! computes *static* bounds: exact costs for loop-free code, and best/worst
//! bounds for loops given an iteration-count interval. The consolidation
//! reports use these to estimate savings without executing anything.

use crate::ast::{BoolExpr, Stmt};
use crate::cost::{Cost, CostModel, FnCost};

/// A `[min, max]` interval of abstract costs. `max` is `None` when no static
/// bound exists (a loop without a supplied iteration bound).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CostBounds {
    /// Lower bound (every run costs at least this much).
    pub min: Cost,
    /// Upper bound, if one exists.
    pub max: Option<Cost>,
}

impl CostBounds {
    fn exact(c: Cost) -> CostBounds {
        CostBounds {
            min: c,
            max: Some(c),
        }
    }

    fn add(self, o: CostBounds) -> CostBounds {
        CostBounds {
            min: self.min + o.min,
            max: match (self.max, o.max) {
                (Some(a), Some(b)) => Some(a + b),
                _ => None,
            },
        }
    }

    fn join(self, o: CostBounds) -> CostBounds {
        CostBounds {
            min: self.min.min(o.min),
            max: match (self.max, o.max) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            },
        }
    }
}

/// Options for the bound computation.
#[derive(Clone, Copy, Debug, Default)]
pub struct BoundsOptions {
    /// Assumed maximum trip count for loops whose bound is not syntactically
    /// evident; `None` leaves such loops unbounded above.
    pub loop_iterations: Option<u64>,
}

fn bool_cost(e: &BoolExpr, cm: &CostModel, fns: &dyn FnCost) -> Cost {
    cm.bool_expr_cost(e, fns)
}

/// Computes static cost bounds of `s`.
pub fn stmt_bounds(s: &Stmt, cm: &CostModel, fns: &dyn FnCost, opts: &BoundsOptions) -> CostBounds {
    match s {
        Stmt::Skip => CostBounds::exact(0),
        Stmt::Assign(_, e) => CostBounds::exact(cm.int_expr_cost(e, fns) + cm.assign),
        Stmt::Notify(..) => CostBounds::exact(cm.notify),
        Stmt::Seq(a, b) => stmt_bounds(a, cm, fns, opts).add(stmt_bounds(b, cm, fns, opts)),
        Stmt::If(c, a, b) => {
            let test = CostBounds::exact(bool_cost(c, cm, fns) + cm.branch);
            let branches = stmt_bounds(a, cm, fns, opts).join(stmt_bounds(b, cm, fns, opts));
            test.add(branches)
        }
        Stmt::While(c, body) => {
            let guard = bool_cost(c, cm, fns) + cm.branch;
            let body_bounds = stmt_bounds(body, cm, fns, opts);
            // Zero iterations: one guard evaluation.
            let min = guard;
            let max = opts
                .loop_iterations
                .and_then(|n| body_bounds.max.map(|bm| guard * (n + 1) + bm * n));
            CostBounds { min, max }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::UniformFnCost;
    use crate::intern::Interner;
    use crate::interp::Interp;
    use crate::library::FnLibrary;
    use crate::parse::parse_program;

    fn bounds(src: &str, iters: Option<u64>) -> (CostBounds, Interner, crate::ast::Program) {
        let mut i = Interner::new();
        let p = parse_program(src, &mut i).unwrap();
        let b = stmt_bounds(
            &p.body,
            &CostModel::default(),
            &UniformFnCost(10),
            &BoundsOptions {
                loop_iterations: iters,
            },
        );
        (b, i, p)
    }

    #[test]
    fn straight_line_is_exact() {
        let (b, i, p) = bounds("program p @0 (a) { x := a + 1; notify true; }", None);
        assert_eq!(b.max, Some(b.min));
        // Cross-check against the interpreter.
        let lib = FnLibrary::new();
        let interp = Interp::new(CostModel::default(), &lib);
        let r = interp.run(&p, &[5], &i).unwrap();
        assert_eq!(r.cost, b.min);
    }

    #[test]
    fn branches_produce_intervals() {
        let (b, i, p) = bounds(
            "program p @0 (a) { if (a > 0) { x := f(a); } else { skip; } notify true; }",
            None,
        );
        assert!(b.min < b.max.unwrap());
        let mut i2 = i.clone();
        let f = i2.intern("f");
        let mut lib = FnLibrary::new();
        lib.register(f, "f", 1, 10, |a| a[0]);
        let interp = Interp::new(CostModel::default(), &lib);
        for a in [-3i64, 3] {
            let r = interp.run(&p, &[a], &i2).unwrap();
            assert!(
                r.cost >= b.min && r.cost <= b.max.unwrap(),
                "{a}: {}",
                r.cost
            );
        }
    }

    #[test]
    fn unbounded_loops_have_no_max() {
        let (b, _, _) = bounds(
            "program p @0 (a) { k := a; while (k > 0) { k := k - 1; } }",
            None,
        );
        assert_eq!(b.max, None);
        assert!(b.min > 0, "at least one guard evaluation");
    }

    #[test]
    fn bounded_loops_bracket_the_interpreter() {
        let (b, i, p) = bounds(
            "program p @0 (a) { k := 5; while (k > 0) { x := f(k); k := k - 1; } }",
            Some(5),
        );
        let mut i2 = i.clone();
        let f = i2.intern("f");
        let mut lib = FnLibrary::new();
        lib.register(f, "f", 1, 10, |a| a[0]);
        let interp = Interp::new(CostModel::default(), &lib);
        let r = interp.run(&p, &[0], &i2).unwrap();
        assert!(r.cost >= b.min);
        assert!(r.cost <= b.max.unwrap(), "{} vs {:?}", r.cost, b);
    }
}

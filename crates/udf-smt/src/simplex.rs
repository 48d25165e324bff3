//! Linear integer arithmetic via general simplex + branch-and-bound.
//!
//! The rational core is the Dutertre–de Moura *general simplex*: every
//! constraint `Σ cᵢxᵢ ⊲ b` gets a slack variable `s = Σ cᵢxᵢ` and a bound on
//! `s`; feasibility is restored by pivoting with Bland's rule (which
//! guarantees termination). Integrality is then enforced by branch-and-bound
//! on fractional variables, and disequalities `e ≠ 0` by splitting into
//! `e ≤ −1 ∨ e ≥ 1` (sound for integer-valued expressions).
//!
//! All arithmetic is exact (checked `i128` rationals); overflow and
//! branching-budget exhaustion surface as [`LiaResult::Unknown`].

use crate::rational::Rat;
use std::collections::BTreeMap;

/// A linear expression `Σ coeffs[v]·x_v + constant`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinExpr {
    /// Coefficients per variable index (no zero entries).
    pub coeffs: BTreeMap<usize, Rat>,
    /// Constant offset.
    pub constant: Rat,
}

impl Default for LinExpr {
    fn default() -> LinExpr {
        LinExpr::zero()
    }
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> LinExpr {
        LinExpr {
            coeffs: BTreeMap::new(),
            constant: Rat::ZERO,
        }
    }

    /// A constant expression.
    pub fn constant(c: Rat) -> LinExpr {
        LinExpr {
            coeffs: BTreeMap::new(),
            constant: c,
        }
    }

    /// The expression `x_v`.
    pub fn var(v: usize) -> LinExpr {
        let mut coeffs = BTreeMap::new();
        coeffs.insert(v, Rat::ONE);
        LinExpr {
            coeffs,
            constant: Rat::ZERO,
        }
    }

    /// Adds `c·x_v` in place. Returns `None` on overflow.
    pub fn add_term(&mut self, v: usize, c: Rat) -> Option<()> {
        let entry = self.coeffs.entry(v).or_insert(Rat::ZERO);
        *entry = entry.checked_add(c)?;
        if entry.is_zero() {
            self.coeffs.remove(&v);
        }
        Some(())
    }

    /// `self + other`. Returns `None` on overflow.
    pub fn checked_add(&self, other: &LinExpr) -> Option<LinExpr> {
        let mut out = self.clone();
        for (&v, &c) in &other.coeffs {
            out.add_term(v, c)?;
        }
        out.constant = out.constant.checked_add(other.constant)?;
        Some(out)
    }

    /// `self − other`. Returns `None` on overflow.
    pub fn checked_sub(&self, other: &LinExpr) -> Option<LinExpr> {
        let neg = other.checked_scale(Rat::int(-1))?;
        self.checked_add(&neg)
    }

    /// `k · self`. Returns `None` on overflow.
    pub fn checked_scale(&self, k: Rat) -> Option<LinExpr> {
        let mut out = LinExpr::zero();
        for (&v, &c) in &self.coeffs {
            let c2 = c.checked_mul(k)?;
            if !c2.is_zero() {
                out.coeffs.insert(v, c2);
            }
        }
        out.constant = self.constant.checked_mul(k)?;
        Some(out)
    }

    /// Whether the expression mentions no variables.
    pub fn is_constant(&self) -> bool {
        self.coeffs.is_empty()
    }
}

/// Relation of a constraint `expr ⊲ 0`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rel {
    /// `expr ≤ 0`.
    Le,
    /// `expr ≥ 0`.
    Ge,
    /// `expr = 0`.
    Eq,
}

/// A constraint `expr ⊲ 0`.
#[derive(Clone, Debug)]
pub struct LinCon {
    /// Left-hand side.
    pub expr: LinExpr,
    /// Relation against zero.
    pub rel: Rel,
}

/// A conjunction of integer linear constraints and disequalities.
#[derive(Clone, Debug, Default)]
pub struct LiaProblem {
    /// Number of integer variables (indices `0..num_vars`).
    pub num_vars: usize,
    /// Constraints `expr ⊲ 0`.
    pub constraints: Vec<LinCon>,
    /// Disequalities `expr ≠ 0`.
    pub diseqs: Vec<LinExpr>,
}

/// Result of an LIA feasibility check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LiaResult {
    /// Feasible, with an integer model for variables `0..num_vars`.
    Sat(Vec<i128>),
    /// Infeasible, with an explanation: a subset of the problem that is
    /// already infeasible over the integers. Index `i < constraints.len()`
    /// names `constraints[i]`; `constraints.len() + j` names `diseqs[j]`.
    /// Sorted, without duplicates.
    Unsat(Vec<usize>),
    /// Budget or numeric overflow exhausted.
    Unknown,
}

#[derive(Clone, Debug)]
struct Tableau {
    n_orig: usize,
    n_total: usize,
    rows: Vec<Vec<Rat>>,
    basic: Vec<usize>,
    row_of: Vec<Option<usize>>,
    lb: Vec<Option<Rat>>,
    ub: Vec<Option<Rat>>,
    beta: Vec<Rat>,
    /// Per-disequality: (slack var, required-nonzero offset): violated when
    /// `β(slack) == offset`.
    diseq_slacks: Vec<(usize, Rat)>,
    /// Per slack row `r` (variable `n_orig + r`): the [`LiaResult::Unsat`]
    /// index of the constraint or disequality the row was built from. Both
    /// bounds of a constraint slack come from that one constraint; a
    /// disequality slack is bounded only by branching *on* the disequality.
    src: Vec<usize>,
}

struct Overflow;

type Step<T> = Result<T, Overflow>;

#[derive(PartialEq, Eq, Debug)]
enum Feas {
    Feasible,
    Infeasible,
}

fn gcd_i128(mut a: i128, mut b: i128) -> i128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a.abs()
}

/// Integer tightening of `Σ cᵢxᵢ ⊲ b` (xs integral): scale so coefficients
/// are integers, divide by their gcd `g`, and round the bound (`floor` for
/// `≤`, `ceil` for `≥`); equalities with `g ∤ b` are infeasible outright.
/// Returns `(coeff-only expr, lb, ub)` or `Err(Tightened::Infeasible)`;
/// `Err(Tightened::Trivial)` marks constraints that became vacuous.
enum Tightened {
    Infeasible,
    Trivial,
    Overflow,
}

fn tighten_con(expr: &LinExpr, rel: Rel) -> Result<(LinExpr, Option<Rat>, Option<Rat>), Tightened> {
    // Scale all coefficients and the constant to integers.
    let mut lcm: i128 = 1;
    for c in expr.coeffs.values().chain(std::iter::once(&expr.constant)) {
        let d = c.den();
        let g = gcd_i128(lcm, d).max(1);
        lcm = (lcm / g).checked_mul(d).ok_or(Tightened::Overflow)?;
    }
    let scale = Rat::int(lcm);
    let scaled = expr.checked_scale(scale).ok_or(Tightened::Overflow)?;
    let mut g: i128 = 0;
    for c in scaled.coeffs.values() {
        g = gcd_i128(g, c.num());
    }
    if g == 0 {
        // Constant constraint.
        let c = scaled.constant;
        let ok = match rel {
            Rel::Le => c <= Rat::ZERO,
            Rel::Ge => c >= Rat::ZERO,
            Rel::Eq => c.is_zero(),
        };
        return if ok {
            Err(Tightened::Trivial)
        } else {
            Err(Tightened::Infeasible)
        };
    }
    // Σ c x ⊲ b with b = −constant; divide by g.
    let b = scaled.constant.checked_neg().ok_or(Tightened::Overflow)?;
    let bg = b.checked_div(Rat::int(g)).ok_or(Tightened::Overflow)?;
    let mut coeffs_only = scaled.clone();
    coeffs_only.constant = Rat::ZERO;
    let coeffs_only = coeffs_only
        .checked_scale(Rat::new(1, g).ok_or(Tightened::Overflow)?)
        .ok_or(Tightened::Overflow)?;
    let (lb, ub) = match rel {
        Rel::Le => (None, Some(Rat::int(bg.floor()))),
        Rel::Ge => (Some(Rat::int(bg.ceil())), None),
        Rel::Eq => {
            if !bg.is_integer() {
                return Err(Tightened::Infeasible);
            }
            (Some(bg), Some(bg))
        }
    };
    Ok((coeffs_only, lb, ub))
}

/// Outcome of [`Tableau::build`].
enum Built {
    /// One constraint (by [`LiaResult::Unsat`] index) is infeasible alone.
    Infeasible(usize),
    Overflow,
    Ready(Tableau),
}

impl Tableau {
    fn build(p: &LiaProblem) -> Built {
        let mut slack_rows: Vec<(LinExpr, Option<Rat>, Option<Rat>)> = Vec::new();
        let mut src = Vec::new();
        for (i, con) in p.constraints.iter().enumerate() {
            match tighten_con(&con.expr, con.rel) {
                Ok(row) => {
                    slack_rows.push(row);
                    src.push(i);
                }
                Err(Tightened::Trivial) => continue,
                Err(Tightened::Infeasible) => return Built::Infeasible(i),
                Err(Tightened::Overflow) => return Built::Overflow,
            }
        }
        let mut diseq_offsets = Vec::new();
        for (j, d) in p.diseqs.iter().enumerate() {
            if d.is_constant() {
                if d.constant.is_zero() {
                    return Built::Infeasible(p.constraints.len() + j); // 0 ≠ 0
                }
                continue;
            }
            let Some(offset) = d.constant.checked_neg() else {
                return Built::Overflow;
            };
            let mut expr = d.clone();
            expr.constant = Rat::ZERO;
            slack_rows.push((expr, None, None));
            src.push(p.constraints.len() + j);
            diseq_offsets.push(offset);
        }

        let m = slack_rows.len();
        let n_total = p.num_vars + m;
        let mut rows = vec![vec![Rat::ZERO; n_total]; m];
        let mut basic = Vec::with_capacity(m);
        let mut row_of = vec![None; n_total];
        let mut lb = vec![None; n_total];
        let mut ub = vec![None; n_total];
        let mut diseq_offsets = diseq_offsets.into_iter();
        let mut diseq_slacks = Vec::new();
        for (r, (expr, l, u)) in slack_rows.into_iter().enumerate() {
            let s = p.num_vars + r;
            for (&v, &c) in &expr.coeffs {
                rows[r][v] = c;
            }
            basic.push(s);
            row_of[s] = Some(r);
            lb[s] = l;
            ub[s] = u;
            if l.is_none() && u.is_none() {
                let offset = diseq_offsets.next().expect("diseq slack order");
                diseq_slacks.push((s, offset));
            }
        }
        Built::Ready(Tableau {
            n_orig: p.num_vars,
            n_total,
            rows,
            basic,
            row_of,
            lb,
            ub,
            beta: vec![Rat::ZERO; n_total],
            diseq_slacks,
            src,
        })
    }

    /// Pushes the source of `v`'s bounds onto `blame`. Original variables
    /// are bounded only by branch-and-bound splits, which are integer
    /// tautologies and need no blame.
    fn blame(&self, v: usize, blame: &mut Vec<usize>) {
        if v >= self.n_orig {
            blame.push(self.src[v - self.n_orig]);
        }
    }

    /// Sets nonbasic variable `j` to value `v`, updating dependent basics.
    fn update(&mut self, j: usize, v: Rat) -> Step<()> {
        let delta = v.checked_sub(self.beta[j]).ok_or(Overflow)?;
        if delta.is_zero() {
            return Ok(());
        }
        for r in 0..self.rows.len() {
            let a = self.rows[r][j];
            if a.is_zero() {
                continue;
            }
            let b = self.basic[r];
            let inc = a.checked_mul(delta).ok_or(Overflow)?;
            self.beta[b] = self.beta[b].checked_add(inc).ok_or(Overflow)?;
        }
        self.beta[j] = v;
        Ok(())
    }

    /// Pivot row `r` (basic `x_b`) with nonbasic `j`, then set `x_b := v`.
    fn pivot_and_update(&mut self, r: usize, j: usize, v: Rat) -> Step<()> {
        let xb = self.basic[r];
        let a = self.rows[r][j];
        debug_assert!(!a.is_zero());
        let theta = v
            .checked_sub(self.beta[xb])
            .ok_or(Overflow)?
            .checked_div(a)
            .ok_or(Overflow)?;
        self.beta[xb] = v;
        self.beta[j] = self.beta[j].checked_add(theta).ok_or(Overflow)?;
        for r2 in 0..self.rows.len() {
            if r2 == r {
                continue;
            }
            let c = self.rows[r2][j];
            if c.is_zero() {
                continue;
            }
            let b2 = self.basic[r2];
            let inc = c.checked_mul(theta).ok_or(Overflow)?;
            self.beta[b2] = self.beta[b2].checked_add(inc).ok_or(Overflow)?;
        }
        self.pivot(r, j)
    }

    /// Exchanges basic `x_b` of row `r` with nonbasic `j`.
    fn pivot(&mut self, r: usize, j: usize) -> Step<()> {
        let xb = self.basic[r];
        let a = self.rows[r][j];
        // Solve row for x_j: x_j = (x_b − Σ_{k≠j} a_k x_k) / a.
        let inv = Rat::ONE.checked_div(a).ok_or(Overflow)?;
        let mut new_row = vec![Rat::ZERO; self.n_total];
        for (k, cell) in new_row.iter_mut().enumerate() {
            if k == j {
                continue;
            }
            let ak = self.rows[r][k];
            if !ak.is_zero() {
                *cell = ak
                    .checked_neg()
                    .ok_or(Overflow)?
                    .checked_mul(inv)
                    .ok_or(Overflow)?;
            }
        }
        new_row[xb] = inv;
        // Substitute x_j in every other row.
        for r2 in 0..self.rows.len() {
            if r2 == r {
                continue;
            }
            let c = self.rows[r2][j];
            if c.is_zero() {
                continue;
            }
            self.rows[r2][j] = Rat::ZERO;
            for (k, &nk) in new_row.iter().enumerate() {
                if nk.is_zero() {
                    continue;
                }
                let inc = c.checked_mul(nk).ok_or(Overflow)?;
                self.rows[r2][k] = self.rows[r2][k].checked_add(inc).ok_or(Overflow)?;
            }
        }
        self.rows[r] = new_row;
        self.basic[r] = j;
        self.row_of[xb] = None;
        self.row_of[j] = Some(r);
        Ok(())
    }

    /// Restores rational feasibility. Bland's rule ensures termination.
    /// Every pivot executed is counted into `pivots`. On `Infeasible` the
    /// sources of the conflicting bounds are pushed onto `blame`.
    fn check(&mut self, pivots: &mut u64, blame: &mut Vec<usize>) -> Step<Feas> {
        // Immediate bound contradictions.
        for v in 0..self.n_total {
            if let (Some(l), Some(u)) = (self.lb[v], self.ub[v]) {
                if l > u {
                    self.blame(v, blame);
                    return Ok(Feas::Infeasible);
                }
            }
        }
        // Clamp nonbasic variables into their bounds.
        for v in 0..self.n_total {
            if self.row_of[v].is_some() {
                continue;
            }
            if let Some(l) = self.lb[v] {
                if self.beta[v] < l {
                    self.update(v, l)?;
                }
            }
            if let Some(u) = self.ub[v] {
                if self.beta[v] > u {
                    self.update(v, u)?;
                }
            }
        }
        loop {
            // Bland: smallest-index violating basic variable.
            let mut viol: Option<(usize, usize, bool)> = None; // (var, row, need_increase)
            for r in 0..self.rows.len() {
                let b = self.basic[r];
                if let Some(l) = self.lb[b] {
                    if self.beta[b] < l {
                        if viol.is_none_or(|(v, _, _)| b < v) {
                            viol = Some((b, r, true));
                        }
                        continue;
                    }
                }
                if let Some(u) = self.ub[b] {
                    if self.beta[b] > u && viol.is_none_or(|(v, _, _)| b < v) {
                        viol = Some((b, r, false));
                    }
                }
            }
            let Some((b, r, need_increase)) = viol else {
                return Ok(Feas::Feasible);
            };
            let target = if need_increase {
                self.lb[b].expect("violated lower bound exists")
            } else {
                self.ub[b].expect("violated upper bound exists")
            };
            // Bland: smallest-index eligible nonbasic variable.
            let mut pivot_col: Option<usize> = None;
            for j in 0..self.n_total {
                if self.row_of[j].is_some() || j == b {
                    continue;
                }
                let a = self.rows[r][j];
                if a.is_zero() {
                    continue;
                }
                let can = if need_increase {
                    // Increase x_b: raise x_j if a>0 (x_j below ub), lower if a<0.
                    (a.signum() > 0 && self.ub[j].is_none_or(|u| self.beta[j] < u))
                        || (a.signum() < 0 && self.lb[j].is_none_or(|l| self.beta[j] > l))
                } else {
                    (a.signum() > 0 && self.lb[j].is_none_or(|l| self.beta[j] > l))
                        || (a.signum() < 0 && self.ub[j].is_none_or(|u| self.beta[j] < u))
                };
                if can {
                    pivot_col = Some(j);
                    break;
                }
            }
            let Some(j) = pivot_col else {
                // No pivot: x_b is stuck beyond its bound because every
                // nonbasic variable of its row already sits at the bound
                // that helps most. Those bounds are jointly infeasible.
                self.blame(b, blame);
                for j in (0..self.n_total).filter(|&j| !self.rows[r][j].is_zero()) {
                    self.blame(j, blame);
                }
                return Ok(Feas::Infeasible);
            };
            *pivots += 1;
            self.pivot_and_update(r, j, target)?;
            // After the pivot, x_j (now basic at row r) has value `target`;
            // the entering variable may itself violate its bounds — the loop
            // continues until no basic violation remains.
        }
    }

    fn tighten(&mut self, v: usize, lower: Option<Rat>, upper: Option<Rat>) -> bool {
        // Returns false when the new bounds are immediately contradictory.
        if let Some(l) = lower {
            match self.lb[v] {
                Some(cur) if cur >= l => {}
                _ => self.lb[v] = Some(l),
            }
        }
        if let Some(u) = upper {
            match self.ub[v] {
                Some(cur) if cur <= u => {}
                _ => self.ub[v] = Some(u),
            }
        }
        match (self.lb[v], self.ub[v]) {
            (Some(l), Some(u)) => l <= u,
            _ => true,
        }
    }
}

/// Default branch-and-bound node budget.
pub const DEFAULT_BNB_BUDGET: u64 = 4_000;

/// Checks feasibility of `p` over the integers. `budget` is decremented per
/// explored branch-and-bound node; exhaustion yields
/// [`LiaResult::Unknown`].
pub fn solve(p: &LiaProblem, budget: &mut u64) -> LiaResult {
    let mut pivots = 0;
    solve_counted(p, budget, &mut pivots)
}

/// Like [`solve`], additionally counting simplex pivot operations into
/// `pivots`. The counter is threaded by reference rather than stored on the
/// tableau because branch-and-bound clones tableaus per node — a field would
/// double-count cloned history.
pub fn solve_counted(p: &LiaProblem, budget: &mut u64, pivots: &mut u64) -> LiaResult {
    match Tableau::build(p) {
        Built::Infeasible(i) => LiaResult::Unsat(vec![i]),
        Built::Overflow => LiaResult::Unknown,
        Built::Ready(t) => solve_rec(t, budget, pivots),
    }
}

/// Iterative branch-and-bound over an explicit worklist (DFS). Each node is
/// a cloned tableau with tightened bounds; depth is bounded by the budget,
/// never by the call stack. The explanation of `Unsat` is the union of the
/// infeasible leaves' blamed bounds: each split `x ≤ k ∨ x ≥ k+1` is valid
/// over the integers, and a split around a disequality's offset is valid
/// given that disequality, which the leaf blames through its slack.
fn solve_rec(root: Tableau, budget: &mut u64, pivots: &mut u64) -> LiaResult {
    let mut work: Vec<Tableau> = vec![root];
    let mut saw_unknown = false;
    let mut blame = Vec::new();
    while let Some(mut t) = work.pop() {
        if *budget == 0 {
            return LiaResult::Unknown;
        }
        *budget -= 1;
        match t.check(pivots, &mut blame) {
            Err(Overflow) => {
                saw_unknown = true;
                continue;
            }
            Ok(Feas::Infeasible) => continue,
            Ok(Feas::Feasible) => {}
        }
        // Branch on a fractional original variable.
        let split = (0..t.n_orig)
            .find(|&v| !t.beta[v].is_integer())
            .map(|v| {
                let fl = Rat::int(t.beta[v].floor());
                (v, fl)
            })
            .or_else(|| {
                // Integral model: enforce disequalities.
                t.diseq_slacks.iter().find_map(|&(s, offset)| {
                    (t.beta[s] == offset).then_some((s, offset)) // branch around `offset`
                })
            });
        let Some((v, pivot_val)) = split else {
            let model = (0..t.n_orig).map(|v| t.beta[v].floor()).collect();
            return LiaResult::Sat(model);
        };
        // Low branch: x_v ≤ pivot_val (fractional case) or ≤ offset−1
        // (diseq case, where β is exactly `offset`, an integer).
        let (low, high) = if t.beta[v].is_integer() {
            // Disequality split around the integer value.
            let Some(l) = pivot_val.checked_sub(Rat::ONE) else {
                saw_unknown = true;
                continue;
            };
            let Some(h) = pivot_val.checked_add(Rat::ONE) else {
                saw_unknown = true;
                continue;
            };
            (l, h)
        } else {
            let Some(h) = pivot_val.checked_add(Rat::ONE) else {
                saw_unknown = true;
                continue;
            };
            (pivot_val, h)
        };
        let mut right = t.clone();
        if right.tighten(v, Some(high), None) {
            work.push(right);
        }
        let mut left = t;
        if left.tighten(v, None, Some(low)) {
            work.push(left);
        }
    }
    if saw_unknown {
        LiaResult::Unknown
    } else {
        blame.sort_unstable();
        blame.dedup();
        LiaResult::Unsat(blame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn le(expr: LinExpr) -> LinCon {
        LinCon {
            expr,
            rel: Rel::Le,
        }
    }

    fn ge(expr: LinExpr) -> LinCon {
        LinCon {
            expr,
            rel: Rel::Ge,
        }
    }

    fn eq(expr: LinExpr) -> LinCon {
        LinCon {
            expr,
            rel: Rel::Eq,
        }
    }

    fn expr(terms: &[(usize, i128)], k: i128) -> LinExpr {
        let mut e = LinExpr::constant(Rat::int(k));
        for &(v, c) in terms {
            e.add_term(v, Rat::int(c)).unwrap();
        }
        e
    }

    fn run(p: &LiaProblem) -> LiaResult {
        let mut budget = DEFAULT_BNB_BUDGET;
        solve(p, &mut budget)
    }

    /// The explanation of an infeasible problem.
    fn core(p: &LiaProblem) -> Vec<usize> {
        match run(p) {
            LiaResult::Unsat(core) => core,
            other => panic!("expected Unsat, got {other:?}"),
        }
    }

    #[test]
    fn unconstrained_is_sat() {
        let p = LiaProblem {
            num_vars: 2,
            ..Default::default()
        };
        assert!(matches!(run(&p), LiaResult::Sat(_)));
    }

    #[test]
    fn simple_bounds() {
        // x ≥ 3 ∧ x ≤ 5 → sat with 3 ≤ x ≤ 5.
        let p = LiaProblem {
            num_vars: 1,
            constraints: vec![ge(expr(&[(0, 1)], -3)), le(expr(&[(0, 1)], -5))],
            diseqs: vec![],
        };
        let LiaResult::Sat(m) = run(&p) else { panic!() };
        assert!((3..=5).contains(&m[0]));
    }

    #[test]
    fn contradictory_bounds_unsat() {
        // x ≥ 5 ∧ x ≤ 3.
        let p = LiaProblem {
            num_vars: 1,
            constraints: vec![ge(expr(&[(0, 1)], -5)), le(expr(&[(0, 1)], -3))],
            diseqs: vec![],
        };
        assert_eq!(core(&p), vec![0, 1]);
    }

    #[test]
    fn equalities_chain() {
        // x = y ∧ y = z ∧ x + z = 10 ∧ x ≥ 5 → x = y = z = 5.
        let p = LiaProblem {
            num_vars: 3,
            constraints: vec![
                eq(expr(&[(0, 1), (1, -1)], 0)),
                eq(expr(&[(1, 1), (2, -1)], 0)),
                eq(expr(&[(0, 1), (2, 1)], -10)),
                ge(expr(&[(0, 1)], -5)),
            ],
            diseqs: vec![],
        };
        let LiaResult::Sat(m) = run(&p) else { panic!() };
        assert_eq!(m, vec![5, 5, 5]);
    }

    #[test]
    fn integer_cut_unsat() {
        // 2x = 1 has a rational solution but no integer one.
        let p = LiaProblem {
            num_vars: 1,
            constraints: vec![eq(expr(&[(0, 2)], -1))],
            diseqs: vec![],
        };
        assert_eq!(core(&p), vec![0]);
    }

    #[test]
    fn integer_branching_finds_model() {
        // 2x + 3y = 7, x ≥ 0, y ≥ 0 → (2,1).
        let p = LiaProblem {
            num_vars: 2,
            constraints: vec![
                eq(expr(&[(0, 2), (1, 3)], -7)),
                ge(expr(&[(0, 1)], 0)),
                ge(expr(&[(1, 1)], 0)),
            ],
            diseqs: vec![],
        };
        let LiaResult::Sat(m) = run(&p) else { panic!() };
        assert_eq!(2 * m[0] + 3 * m[1], 7);
        assert!(m[0] >= 0 && m[1] >= 0);
    }

    #[test]
    fn diseq_forces_gap() {
        // 0 ≤ x ≤ 1 ∧ x ≠ 0 ∧ x ≠ 1 → unsat over ints.
        let p = LiaProblem {
            num_vars: 1,
            constraints: vec![ge(expr(&[(0, 1)], 0)), le(expr(&[(0, 1)], -1))],
            diseqs: vec![expr(&[(0, 1)], 0), expr(&[(0, 1)], -1)],
        };
        // Both bounds and (indices 2, 3) both disequalities.
        assert_eq!(core(&p), vec![0, 1, 2, 3]);
    }

    #[test]
    fn diseq_satisfiable() {
        // 0 ≤ x ≤ 2 ∧ x ≠ 1 → x ∈ {0, 2}.
        let p = LiaProblem {
            num_vars: 1,
            constraints: vec![ge(expr(&[(0, 1)], 0)), le(expr(&[(0, 1)], -2))],
            diseqs: vec![expr(&[(0, 1)], -1)],
        };
        let LiaResult::Sat(m) = run(&p) else { panic!() };
        assert!(m[0] == 0 || m[0] == 2);
    }

    #[test]
    fn constant_constraints() {
        let p = LiaProblem {
            num_vars: 0,
            constraints: vec![le(expr(&[], 1))], // 1 ≤ 0
            diseqs: vec![],
        };
        assert_eq!(core(&p), vec![0]);
        let p2 = LiaProblem {
            num_vars: 0,
            constraints: vec![le(expr(&[], -1))], // −1 ≤ 0
            diseqs: vec![expr(&[], 5)],           // 5 ≠ 0
        };
        assert!(matches!(run(&p2), LiaResult::Sat(_)));
        let p3 = LiaProblem {
            num_vars: 0,
            constraints: vec![],
            diseqs: vec![expr(&[], 0)], // 0 ≠ 0
        };
        assert_eq!(core(&p3), vec![0]);
    }

    #[test]
    fn difference_logic_cycle() {
        // x − y ≤ −1 ∧ y − z ≤ −1 ∧ z − x ≤ −1 (strict cycle) → unsat.
        let p = LiaProblem {
            num_vars: 3,
            constraints: vec![
                le(expr(&[(0, 1), (1, -1)], 1)),
                le(expr(&[(1, 1), (2, -1)], 1)),
                le(expr(&[(2, 1), (0, -1)], 1)),
            ],
            diseqs: vec![],
        };
        assert_eq!(core(&p), vec![0, 1, 2]);
    }

    #[test]
    fn loop_invariant_shape() {
        // The paper's Example 6 check: j = i−1 ∧ ¬(i>0 ∧ j≥0) ⇒ ¬(i>0) ∧ ¬(j≥0).
        // Negated obligation (one disjunct): j = i−1 ∧ ¬(i>0) … we test the
        // core fragment: j = i−1 ∧ i ≤ 0 ∧ j ≥ 0 → unsat.
        let p = LiaProblem {
            num_vars: 2, // 0=i, 1=j
            constraints: vec![
                eq(expr(&[(1, 1), (0, -1)], 1)), // j − i + 1 = 0
                le(expr(&[(0, 1)], 0)),          // i ≤ 0
                ge(expr(&[(1, 1)], 0)),          // j ≥ 0
            ],
            diseqs: vec![],
        };
        assert_eq!(core(&p), vec![0, 1, 2]);
    }

    #[test]
    fn budget_exhaustion_is_unknown() {
        // 2x + 3y = 1 ∧ 0 ≤ x,y ≤ 1: rationally feasible, integrally
        // infeasible, and the gcd cut does not fire (gcd(2,3) = 1), so
        // branching is required; with budget 1 the verdict is Unknown.
        let p = LiaProblem {
            num_vars: 2,
            constraints: vec![
                eq(expr(&[(0, 2), (1, 3)], -1)),
                ge(expr(&[(0, 1)], 0)),
                le(expr(&[(0, 1)], -1)),
                ge(expr(&[(1, 1)], 0)),
                le(expr(&[(1, 1)], -1)),
            ],
            diseqs: vec![],
        };
        let mut budget = 1;
        assert_eq!(solve(&p, &mut budget), LiaResult::Unknown);
        // Branching is blameless: the core is the equality and x, y ≥ 0.
        assert_eq!(core(&p), vec![0, 1, 3]);
    }

    #[test]
    fn gcd_cut_catches_divergent_instances() {
        // 2x − 2y = 1 is rationally feasible on an unbounded polyhedron;
        // naive branch-and-bound diverges, the gcd tightening refutes it
        // immediately.
        let p = LiaProblem {
            num_vars: 2,
            constraints: vec![eq(expr(&[(0, 2), (1, -2)], -1))],
            diseqs: vec![],
        };
        let mut budget = 10;
        assert_eq!(solve(&p, &mut budget), LiaResult::Unsat(vec![0]));
        assert!(budget >= 9, "gcd cut should refute without branching");
    }

    #[test]
    fn explanation_skips_bystanders() {
        // y ≤ 7 ∧ x ≥ 5 ∧ x + y ≥ 0 ∧ x ≤ 3 ∧ y ≠ 2: only the x bounds clash.
        let p = LiaProblem {
            num_vars: 2,
            constraints: vec![
                le(expr(&[(1, 1)], -7)),
                ge(expr(&[(0, 1)], -5)),
                ge(expr(&[(0, 1), (1, 1)], 0)),
                le(expr(&[(0, 1)], -3)),
            ],
            diseqs: vec![expr(&[(1, 1)], -2)],
        };
        assert_eq!(core(&p), vec![1, 3]);
    }

    #[test]
    fn mixed_system_with_many_pivots() {
        // x + y + z ≤ 10, x − y ≥ 2, y − z ≥ 1, z ≥ 1 → e.g. (4,2,1)… check sat & constraints.
        let p = LiaProblem {
            num_vars: 3,
            constraints: vec![
                le(expr(&[(0, 1), (1, 1), (2, 1)], -10)),
                ge(expr(&[(0, 1), (1, -1)], -2)),
                ge(expr(&[(1, 1), (2, -1)], -1)),
                ge(expr(&[(2, 1)], -1)),
            ],
            diseqs: vec![],
        };
        let LiaResult::Sat(m) = run(&p) else { panic!() };
        assert!(m[0] + m[1] + m[2] <= 10);
        assert!(m[0] - m[1] >= 2);
        assert!(m[1] - m[2] >= 1);
        assert!(m[2] >= 1);
    }
}

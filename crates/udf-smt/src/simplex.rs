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

use crate::rational::{gcd, Rat};

/// A linear expression `Σ c·x_v + constant` over the `(v, c)` pairs of
/// `coeffs`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinExpr {
    /// `(variable index, coefficient)` pairs, sorted by variable, without
    /// repeated variables or zero coefficients.
    pub coeffs: Vec<(usize, Rat)>,
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
    pub(crate) fn zero() -> LinExpr {
        LinExpr::constant(Rat::ZERO)
    }

    /// A constant expression.
    pub fn constant(c: Rat) -> LinExpr {
        LinExpr {
            coeffs: Vec::new(),
            constant: c,
        }
    }

    /// The expression `x_v`.
    pub(crate) fn var(v: usize) -> LinExpr {
        LinExpr {
            coeffs: vec![(v, Rat::ONE)],
            constant: Rat::ZERO,
        }
    }

    /// Adds `c·x_v` in place. Returns `None` on overflow, leaving the
    /// expression unchanged.
    pub fn add_term(&mut self, v: usize, c: Rat) -> Option<()> {
        match self.coeffs.binary_search_by_key(&v, |&(w, _)| w) {
            Ok(i) => {
                let sum = self.coeffs[i].1.checked_add(c)?;
                if sum.is_zero() {
                    self.coeffs.remove(i);
                } else {
                    self.coeffs[i].1 = sum;
                }
            }
            Err(i) if !c.is_zero() => self.coeffs.insert(i, (v, c)),
            Err(_) => {}
        }
        Some(())
    }

    /// `self + other`. Returns `None` on overflow.
    pub(crate) fn checked_add(&self, other: &LinExpr) -> Option<LinExpr> {
        self.merge(other, Rat::checked_add, Some)
    }

    /// `self − other`. Returns `None` on overflow.
    pub(crate) fn checked_sub(&self, other: &LinExpr) -> Option<LinExpr> {
        self.merge(other, Rat::checked_sub, Rat::checked_neg)
    }

    /// Merges the two sorted coefficient lists: `both` combines a variable
    /// (and the constants) present on both sides, `right` maps one present
    /// only in `other`. Zero results are dropped.
    fn merge(
        &self,
        other: &LinExpr,
        both: fn(Rat, Rat) -> Option<Rat>,
        right: fn(Rat) -> Option<Rat>,
    ) -> Option<LinExpr> {
        let mut coeffs = Vec::with_capacity(self.coeffs.len() + other.coeffs.len());
        let (mut i, mut j) = (0, 0);
        while i < self.coeffs.len() || j < other.coeffs.len() {
            let (v, c) = match (self.coeffs.get(i), other.coeffs.get(j)) {
                (Some(&(v, a)), Some(&(w, _))) if v < w => {
                    i += 1;
                    (v, a)
                }
                (Some(&(v, a)), Some(&(w, b))) if v == w => {
                    (i, j) = (i + 1, j + 1);
                    (v, both(a, b)?)
                }
                (_, Some(&(w, b))) => {
                    j += 1;
                    (w, right(b)?)
                }
                (Some(&(v, a)), None) => {
                    i += 1;
                    (v, a)
                }
                (None, None) => unreachable!("loop condition"),
            };
            if !c.is_zero() {
                coeffs.push((v, c));
            }
        }
        Some(LinExpr {
            coeffs,
            constant: both(self.constant, other.constant)?,
        })
    }

    /// `k · self`. Returns `None` on overflow.
    pub(crate) fn checked_scale(&self, k: Rat) -> Option<LinExpr> {
        let mut coeffs = Vec::with_capacity(self.coeffs.len());
        for &(v, c) in &self.coeffs {
            let c2 = c.checked_mul(k)?;
            if !c2.is_zero() {
                coeffs.push((v, c2));
            }
        }
        Some(LinExpr {
            coeffs,
            constant: self.constant.checked_mul(k)?,
        })
    }

    /// Whether the expression mentions no variables.
    pub(crate) fn is_constant(&self) -> bool {
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

/// Where a variable sits in the tableau.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Pos {
    /// Basic in this row.
    Basic(usize),
    /// Nonbasic, in this column slot.
    Slot(usize),
}

/// Per-variable state: bounds, the current assignment β, and its place.
#[derive(Clone, Copy, Debug)]
struct Column {
    lb: Option<Rat>,
    ub: Option<Rat>,
    beta: Rat,
    pos: Pos,
}

impl Column {
    fn free(pos: Pos) -> Column {
        Column {
            lb: None,
            ub: None,
            beta: Rat::ZERO,
            pos,
        }
    }

    fn below_ub(&self) -> bool {
        self.ub.is_none_or(|u| self.beta < u)
    }

    fn above_lb(&self) -> bool {
        self.lb.is_none_or(|l| self.beta > l)
    }
}

/// The tableau over the original variables `0..n_orig` and one slack per
/// row (variable `n_orig + r`). Each row has one basic variable, so exactly
/// `n_orig` variables are nonbasic at any time; the matrix keeps a column
/// slot for each of those only.
#[derive(Clone, Debug)]
struct Tableau {
    n_orig: usize,
    /// Row-major `rows × n_orig` coefficients: row `r` reads
    /// `x_{basic[r]} = Σ_s cells[r·n_orig + s]·x_{nonbasic[s]}`. A
    /// branch-and-bound node copies it as one buffer.
    cells: Vec<Rat>,
    /// Per row: its basic variable.
    basic: Vec<usize>,
    /// Per column slot: its nonbasic variable.
    nonbasic: Vec<usize>,
    /// Per variable.
    cols: Vec<Column>,
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

/// Why [`tighten_con`] produced no row.
enum Tightened {
    Infeasible,
    /// The constraint is vacuous.
    Trivial,
    Overflow,
}

/// Bounds `(lb, ub)` on a row's slack.
type Bounds = (Option<Rat>, Option<Rat>);

/// A row's nonzero entries as `(column slot, coefficient)`: the pivot's
/// reused scratch row.
type Row = Vec<(usize, Rat)>;

/// Integer tightening of `Σ cᵢxᵢ ⊲ b` (xs integral): scale so coefficients
/// are integers, divide by their gcd `g`, and round the bound (`floor` for
/// `≤`, `ceil` for `≥`); equalities with `g ∤ b` are infeasible outright.
/// Writes the coefficients into the zeroed `row` and returns the slack's
/// bounds; `row` is untouched on `Err`.
fn tighten_con(expr: &LinExpr, rel: Rel, row: &mut [Rat]) -> Result<Bounds, Tightened> {
    let integral = expr.constant.is_integer() && expr.coeffs.iter().all(|(_, c)| c.is_integer());
    if integral {
        return tighten_integral(expr, rel, row);
    }
    let mut lcm: i128 = 1;
    for c in expr
        .coeffs
        .iter()
        .map(|(_, c)| c)
        .chain(std::iter::once(&expr.constant))
    {
        let d = c.den();
        let g = i128::try_from(gcd(lcm.unsigned_abs(), d.unsigned_abs()))
            .expect("a gcd of positive i128s fits");
        lcm = (lcm / g).checked_mul(d).ok_or(Tightened::Overflow)?;
    }
    let scaled = expr
        .checked_scale(Rat::int(lcm))
        .ok_or(Tightened::Overflow)?;
    tighten_integral(&scaled, rel, row)
}

/// [`tighten_con`] on integer coefficients and constant. The linearizer
/// emits only such rows, mostly with coefficient gcd 1, which are copied
/// as they are.
fn tighten_integral(expr: &LinExpr, rel: Rel, row: &mut [Rat]) -> Result<Bounds, Tightened> {
    let g = expr
        .coeffs
        .iter()
        .fold(0, |g, (_, c)| gcd(g, c.num().unsigned_abs()));
    if g == 0 {
        // Constant constraint.
        let c = expr.constant;
        let ok = match rel {
            Rel::Le => c <= Rat::ZERO,
            Rel::Ge => c >= Rat::ZERO,
            Rel::Eq => c.is_zero(),
        };
        return Err(if ok {
            Tightened::Trivial
        } else {
            Tightened::Infeasible
        });
    }
    // Σ c x ⊲ b with b = −constant; divide by g. (g = 2¹²⁷ only when every
    // coefficient is i128::MIN.)
    let b = expr
        .constant
        .num()
        .checked_neg()
        .ok_or(Tightened::Overflow)?;
    let g = i128::try_from(g).map_err(|_| Tightened::Overflow)?;
    let bg = Rat::new(b, g).expect("positive denominator");
    let bounds = match rel {
        Rel::Le => (None, Some(Rat::int(bg.floor()))),
        Rel::Ge => (Some(Rat::int(bg.ceil())), None),
        Rel::Eq if bg.is_integer() => (Some(bg), Some(bg)),
        Rel::Eq => return Err(Tightened::Infeasible),
    };
    for &(v, c) in &expr.coeffs {
        row[v] = if g == 1 { c } else { Rat::int(c.num() / g) };
    }
    Ok(bounds)
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
        // One row per constraint and disequality that mentions a variable
        // (the others are decided here and get none).
        let m = p
            .constraints
            .iter()
            .filter(|c| !c.expr.is_constant())
            .count()
            + p.diseqs.iter().filter(|d| !d.is_constant()).count();
        let n = p.num_vars;
        let mut t = Tableau {
            n_orig: n,
            cells: vec![Rat::ZERO; m * n],
            basic: Vec::with_capacity(m),
            nonbasic: (0..n).collect(),
            cols: (0..n).map(|v| Column::free(Pos::Slot(v))).collect(),
            diseq_slacks: Vec::new(),
            src: Vec::with_capacity(m),
        };
        for (i, con) in p.constraints.iter().enumerate() {
            let r = t.basic.len();
            // A constant constraint writes nothing, and may come after the
            // last row.
            let row = t.cells.get_mut(r * n..(r + 1) * n).unwrap_or_default();
            match tighten_con(&con.expr, con.rel, row) {
                Ok(bounds) => t.add_slack(bounds, i),
                Err(Tightened::Trivial) => {}
                Err(Tightened::Infeasible) => return Built::Infeasible(i),
                Err(Tightened::Overflow) => return Built::Overflow,
            }
        }
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
            let r = t.basic.len();
            for &(v, c) in &d.coeffs {
                t.cells[r * n + v] = c;
            }
            t.diseq_slacks.push((t.n_orig + r, offset));
            t.add_slack((None, None), p.constraints.len() + j);
        }
        debug_assert_eq!(t.basic.len(), m, "every counted row was built");
        Built::Ready(t)
    }

    /// Makes the next row's slack basic with `bounds`, built from the
    /// problem's `src`-th constraint or disequality.
    fn add_slack(&mut self, (lb, ub): Bounds, src: usize) {
        let r = self.basic.len();
        self.basic.push(self.n_orig + r);
        self.cols.push(Column {
            lb,
            ub,
            ..Column::free(Pos::Basic(r))
        });
        self.src.push(src);
    }

    /// Coefficients of row `r`, by column slot.
    fn row(&self, r: usize) -> &[Rat] {
        &self.cells[r * self.n_orig..(r + 1) * self.n_orig]
    }

    /// The column slot of nonbasic variable `j`.
    fn slot(&self, j: usize) -> usize {
        match self.cols[j].pos {
            Pos::Slot(s) => s,
            Pos::Basic(_) => unreachable!("x_{j} is nonbasic"),
        }
    }

    /// Pushes the source of `v`'s bounds onto `blame`. Original variables
    /// are bounded only by branch-and-bound splits, which are integer
    /// tautologies and need no blame.
    fn blame(&self, v: usize, blame: &mut Vec<usize>) {
        if v >= self.n_orig {
            blame.push(self.src[v - self.n_orig]);
        }
    }

    /// `β(x_{basic[r]}) += a_{rj} · delta` for every row `r` but `skip`.
    fn shift_basics(&mut self, j: usize, delta: Rat, skip: Option<usize>) -> Step<()> {
        let s = self.slot(j);
        for r in 0..self.basic.len() {
            let a = self.cells[r * self.n_orig + s];
            if a.is_zero() || Some(r) == skip {
                continue;
            }
            let b = &mut self.cols[self.basic[r]].beta;
            *b = b
                .checked_add(a.checked_mul(delta).ok_or(Overflow)?)
                .ok_or(Overflow)?;
        }
        Ok(())
    }

    /// Sets nonbasic variable `j` to value `v`, updating dependent basics.
    fn update(&mut self, j: usize, v: Rat) -> Step<()> {
        let delta = v.checked_sub(self.cols[j].beta).ok_or(Overflow)?;
        if delta.is_zero() {
            return Ok(());
        }
        self.shift_basics(j, delta, None)?;
        self.cols[j].beta = v;
        Ok(())
    }

    /// Pivot row `r` (basic `x_b`) with nonbasic `j`, then set `x_b := v`.
    fn pivot_and_update(&mut self, r: usize, j: usize, v: Rat, scratch: &mut Row) -> Step<()> {
        let xb = self.basic[r];
        let a = self.cells[r * self.n_orig + self.slot(j)];
        debug_assert!(!a.is_zero());
        let theta = v
            .checked_sub(self.cols[xb].beta)
            .ok_or(Overflow)?
            .checked_div(a)
            .ok_or(Overflow)?;
        self.cols[xb].beta = v;
        self.cols[j].beta = self.cols[j].beta.checked_add(theta).ok_or(Overflow)?;
        self.shift_basics(j, theta, Some(r))?;
        self.pivot(r, j, scratch)
    }

    /// Exchanges basic `x_b` of row `r` with nonbasic `j`, in place: `x_b`
    /// takes over `j`'s column slot, and the solved row goes through
    /// `scratch` as its nonzero entries only.
    fn pivot(&mut self, r: usize, j: usize, scratch: &mut Row) -> Step<()> {
        let n = self.n_orig;
        let xb = self.basic[r];
        let sj = self.slot(j);
        let a = self.cells[r * n + sj];
        // Solve row for x_j: x_j = (x_b − Σ_{k≠j} a_k x_k) / a.
        let inv = Rat::ONE.checked_div(a).ok_or(Overflow)?;
        scratch.clear();
        for (s, &ak) in self.row(r).iter().enumerate() {
            if s != sj && !ak.is_zero() {
                let nk = ak
                    .checked_neg()
                    .ok_or(Overflow)?
                    .checked_mul(inv)
                    .ok_or(Overflow)?;
                scratch.push((s, nk));
            }
        }
        scratch.push((sj, inv));
        // Substitute x_j in every other row. Slot `sj` now stands for x_b,
        // whose coefficient there was zero while it was basic.
        for r2 in 0..self.basic.len() {
            let c = self.cells[r2 * n + sj];
            if r2 == r || c.is_zero() {
                continue;
            }
            let row = &mut self.cells[r2 * n..(r2 + 1) * n];
            row[sj] = Rat::ZERO;
            for &(k, nk) in scratch.iter() {
                let inc = c.checked_mul(nk).ok_or(Overflow)?;
                row[k] = row[k].checked_add(inc).ok_or(Overflow)?;
            }
        }
        let row = &mut self.cells[r * n..(r + 1) * n];
        row.fill(Rat::ZERO);
        for &(k, nk) in scratch.iter() {
            row[k] = nk;
        }
        self.basic[r] = j;
        self.nonbasic[sj] = xb;
        self.cols[xb].pos = Pos::Slot(sj);
        self.cols[j].pos = Pos::Basic(r);
        Ok(())
    }

    /// Restores rational feasibility. Bland's rule ensures termination.
    /// Every pivot executed is counted into `pivots`. On `Infeasible` the
    /// sources of the conflicting bounds are pushed onto `blame`.
    fn check(&mut self, pivots: &mut u64, blame: &mut Vec<usize>, scratch: &mut Row) -> Step<Feas> {
        // Immediate bound contradictions.
        for (v, col) in self.cols.iter().enumerate() {
            if let (Some(l), Some(u)) = (col.lb, col.ub) {
                if l > u {
                    self.blame(v, blame);
                    return Ok(Feas::Infeasible);
                }
            }
        }
        // Clamp nonbasic variables into their bounds.
        for v in 0..self.cols.len() {
            let col = self.cols[v];
            if matches!(col.pos, Pos::Basic(_)) {
                continue;
            }
            if let Some(l) = col.lb {
                if col.beta < l {
                    self.update(v, l)?;
                }
            }
            if let Some(u) = self.cols[v].ub {
                if self.cols[v].beta > u {
                    self.update(v, u)?;
                }
            }
        }
        loop {
            // Bland: smallest-index violating basic variable.
            let mut viol: Option<(usize, usize, bool)> = None; // (var, row, need_increase)
            for (r, &b) in self.basic.iter().enumerate() {
                let col = &self.cols[b];
                if let Some(l) = col.lb {
                    if col.beta < l {
                        if viol.is_none_or(|(v, _, _)| b < v) {
                            viol = Some((b, r, true));
                        }
                        continue;
                    }
                }
                if let Some(u) = col.ub {
                    if col.beta > u && viol.is_none_or(|(v, _, _)| b < v) {
                        viol = Some((b, r, false));
                    }
                }
            }
            let Some((b, r, need_increase)) = viol else {
                return Ok(Feas::Feasible);
            };
            let target = if need_increase {
                self.cols[b].lb.expect("violated lower bound exists")
            } else {
                self.cols[b].ub.expect("violated upper bound exists")
            };
            // Bland: smallest-index eligible nonbasic variable. To increase
            // x_b, raise x_j if a > 0 (x_j below its upper bound) or lower it
            // if a < 0; to decrease x_b, the other way round.
            let pivot_col = self
                .row(r)
                .iter()
                .zip(&self.nonbasic)
                .filter(|&(&a, &j)| {
                    let col = &self.cols[j];
                    if a.is_zero() {
                        false
                    } else if (a.signum() > 0) == need_increase {
                        col.below_ub()
                    } else {
                        col.above_lb()
                    }
                })
                .map(|(_, &j)| j)
                .min();
            let Some(j) = pivot_col else {
                // No pivot: x_b is stuck beyond its bound because every
                // nonbasic variable of its row already sits at the bound
                // that helps most. Those bounds are jointly infeasible.
                self.blame(b, blame);
                for (a, &j) in self.row(r).iter().zip(&self.nonbasic) {
                    if !a.is_zero() {
                        self.blame(j, blame);
                    }
                }
                return Ok(Feas::Infeasible);
            };
            *pivots += 1;
            self.pivot_and_update(r, j, target, scratch)?;
            // After the pivot, x_j (now basic at row r) has value `target`;
            // the entering variable may itself violate its bounds — the loop
            // continues until no basic violation remains.
        }
    }

    fn tighten(&mut self, v: usize, lower: Option<Rat>, upper: Option<Rat>) -> bool {
        // Returns false when the new bounds are immediately contradictory.
        let col = &mut self.cols[v];
        if let Some(l) = lower {
            match col.lb {
                Some(cur) if cur >= l => {}
                _ => col.lb = Some(l),
            }
        }
        if let Some(u) = upper {
            match col.ub {
                Some(cur) if cur <= u => {}
                _ => col.ub = Some(u),
            }
        }
        match (col.lb, col.ub) {
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
#[cfg(test)]
pub(crate) fn solve(p: &LiaProblem, budget: &mut u64) -> LiaResult {
    let mut pivots = 0;
    solve_counted(p, budget, &mut pivots)
}

/// Like `solve`, additionally counting simplex pivot operations into
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
    let mut scratch = Vec::new();
    while let Some(mut t) = work.pop() {
        if *budget == 0 {
            return LiaResult::Unknown;
        }
        *budget -= 1;
        match t.check(pivots, &mut blame, &mut scratch) {
            Err(Overflow) => {
                saw_unknown = true;
                continue;
            }
            Ok(Feas::Infeasible) => continue,
            Ok(Feas::Feasible) => {}
        }
        // Branch on a fractional original variable.
        let split = (0..t.n_orig)
            .find(|&v| !t.cols[v].beta.is_integer())
            .map(|v| {
                let fl = Rat::int(t.cols[v].beta.floor());
                (v, fl)
            })
            .or_else(|| {
                // Integral model: enforce disequalities.
                t.diseq_slacks.iter().find_map(|&(s, offset)| {
                    (t.cols[s].beta == offset).then_some((s, offset)) // branch around `offset`
                })
            });
        let Some((v, pivot_val)) = split else {
            let model = t.cols[..t.n_orig].iter().map(|c| c.beta.floor()).collect();
            return LiaResult::Sat(model);
        };
        // Low branch: x_v ≤ pivot_val (fractional case) or ≤ offset−1
        // (diseq case, where β is exactly `offset`, an integer).
        let (low, high) = if t.cols[v].beta.is_integer() {
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
        LinCon { expr, rel: Rel::Le }
    }

    fn ge(expr: LinExpr) -> LinCon {
        LinCon { expr, rel: Rel::Ge }
    }

    fn eq(expr: LinExpr) -> LinCon {
        LinCon { expr, rel: Rel::Eq }
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

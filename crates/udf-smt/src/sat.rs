//! A CDCL SAT solver: two-watched-literal propagation, first-UIP conflict
//! analysis with clause learning, VSIDS-style activity ordering, phase
//! saving, and geometric restarts.
//!
//! The solver is used *enumeratively* by the SMT layer: each satisfying
//! assignment is subjected to a theory final-check, and theory conflicts come
//! back as blocking clauses via [`SatSolver::add_clause`], after which the
//! search resumes.

use std::fmt;

/// A boolean variable (dense index).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Var(pub u32);

/// A literal: a variable with a sign. Encoded as `var << 1 | negated`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// Positive literal of `v`.
    pub fn pos(v: Var) -> Lit {
        Lit(v.0 << 1)
    }

    /// Negative literal of `v`.
    pub fn neg(v: Var) -> Lit {
        Lit(v.0 << 1 | 1)
    }

    /// The underlying variable.
    pub(crate) fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether this is the negated literal.
    pub(crate) fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// Logical negation.
    #[must_use]
    pub(crate) fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}",
            if self.is_neg() { "¬" } else { "" },
            self.var().0
        )
    }
}

/// Tri-state assignment value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum LBool {
    True,
    False,
    Undef,
}

/// Outcome of a SAT search.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SatOutcome {
    /// A satisfying assignment was found (read it with [`SatSolver::value`]).
    Sat,
    /// The clause set is unsatisfiable.
    Unsat,
    /// The conflict budget was exhausted.
    Unknown,
}

#[derive(Debug, PartialEq)]
struct Clause {
    lits: Vec<Lit>,
}

impl Clone for Clause {
    fn clone(&self) -> Clause {
        Clause {
            lits: self.lits.clone(),
        }
    }

    fn clone_from(&mut self, source: &Clause) {
        self.lits.clone_from(&source.lits);
    }
}

/// The CDCL solver. A clone is an independent solver in the same state,
/// which continues exactly as the original would.
#[derive(Debug, PartialEq)]
pub struct SatSolver {
    clauses: Vec<Clause>,
    watches: Vec<Vec<u32>>,   // literal index -> clause indices watching it
    assign: Vec<LBool>,       // per var
    phase: Vec<bool>,         // saved phase per var
    level: Vec<u32>,          // per var
    reason: Vec<Option<u32>>, // per var: clause that implied it
    trail: Vec<Lit>,
    trail_lim: Vec<usize>, // decision level boundaries
    prop_head: usize,
    activity: Vec<f64>,
    act_inc: f64,
    ok: bool,
    conflicts: u64,
    decisions: u64,
    propagations: u64,
}

/// Search statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct SatStats {
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of literal propagations.
    pub propagations: u64,
}

impl Default for SatSolver {
    fn default() -> SatSolver {
        SatSolver::new()
    }
}

impl Clone for SatSolver {
    fn clone(&self) -> SatSolver {
        let mut copy = SatSolver::new();
        copy.clone_from(self);
        copy
    }

    /// Copies `source` into the memory `self` already holds: clause and
    /// watch lists are overwritten in place where they exist.
    fn clone_from(&mut self, source: &SatSolver) {
        self.clauses.clone_from(&source.clauses);
        self.watches.clone_from(&source.watches);
        self.assign.clone_from(&source.assign);
        self.phase.clone_from(&source.phase);
        self.level.clone_from(&source.level);
        self.reason.clone_from(&source.reason);
        self.trail.clone_from(&source.trail);
        self.trail_lim.clone_from(&source.trail_lim);
        self.prop_head = source.prop_head;
        self.activity.clone_from(&source.activity);
        self.act_inc = source.act_inc;
        self.ok = source.ok;
        self.conflicts = source.conflicts;
        self.decisions = source.decisions;
        self.propagations = source.propagations;
    }
}

impl SatSolver {
    /// Creates an empty solver.
    pub fn new() -> SatSolver {
        SatSolver {
            clauses: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            phase: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            prop_head: 0,
            activity: Vec::new(),
            act_inc: 1.0,
            ok: true,
            conflicts: 0,
            decisions: 0,
            propagations: 0,
        }
    }

    /// Empties the solver, keeping the memory it grew: afterwards it is
    /// [`SatSolver::new`]'s.
    pub(crate) fn clear(&mut self) {
        self.clone_from(&SatSolver::new());
    }

    /// Allocates a fresh variable.
    pub(crate) fn new_var(&mut self) -> Var {
        let v = Var(u32::try_from(self.assign.len()).expect("too many SAT variables"));
        self.assign.push(LBool::Undef);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        v
    }

    /// Number of allocated variables.
    pub(crate) fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Current decision level.
    fn decision_level(&self) -> u32 {
        u32::try_from(self.trail_lim.len()).expect("level overflow")
    }

    fn lit_value(&self, l: Lit) -> LBool {
        match self.assign[l.var().0 as usize] {
            LBool::Undef => LBool::Undef,
            LBool::True => {
                if l.is_neg() {
                    LBool::False
                } else {
                    LBool::True
                }
            }
            LBool::False => {
                if l.is_neg() {
                    LBool::True
                } else {
                    LBool::False
                }
            }
        }
    }

    /// Value of `v` in the last satisfying assignment (valid right after
    /// [`SatOutcome::Sat`]).
    pub fn value(&self, v: Var) -> bool {
        matches!(self.assign[v.0 as usize], LBool::True)
    }

    /// Adds a clause. Duplicate literals are merged; tautologies are ignored.
    /// Adding the empty clause (or a clause falsified at level 0) makes the
    /// instance permanently unsatisfiable.
    ///
    /// May be called between [`SatSolver::solve`] invocations (the trail is
    /// rewound to level 0 first), which is how theory blocking clauses are
    /// installed.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        if !self.ok {
            return;
        }
        self.backtrack_to(0);
        let mut ls: Vec<Lit> = lits.to_vec();
        ls.sort_unstable();
        ls.dedup();
        // Tautology?
        for w in ls.windows(2) {
            if w[0].var() == w[1].var() {
                return; // contains l and ¬l
            }
        }
        // Remove literals already false at level 0; satisfied clauses are
        // dropped.
        let mut filtered = Vec::with_capacity(ls.len());
        for &l in &ls {
            match self.lit_value(l) {
                LBool::True => return,
                LBool::False => {}
                LBool::Undef => filtered.push(l),
            }
        }
        match filtered.len() {
            0 => {
                self.ok = false;
            }
            1 => {
                self.enqueue(filtered[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                }
            }
            _ => {
                let ci = u32::try_from(self.clauses.len()).expect("too many clauses");
                self.watches[filtered[0].negate().index()].push(ci);
                self.watches[filtered[1].negate().index()].push(ci);
                self.clauses.push(Clause { lits: filtered });
            }
        }
    }

    fn enqueue(&mut self, l: Lit, reason: Option<u32>) {
        let v = l.var().0 as usize;
        debug_assert_eq!(self.assign[v], LBool::Undef);
        self.assign[v] = if l.is_neg() {
            LBool::False
        } else {
            LBool::True
        };
        self.phase[v] = !l.is_neg();
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Unit propagation; returns a conflicting clause index if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.prop_head < self.trail.len() {
            let p = self.trail[self.prop_head];
            self.prop_head += 1;
            self.propagations += 1;
            // Clauses watching ¬p must be visited: we stored watchers under
            // the *negation* index at registration time, i.e. watches[l.negate()]
            // holds clauses that watch l. When p becomes true, clauses
            // watching ¬p may become unit.
            let mut i = 0;
            let widx = p.index();
            while i < self.watches[widx].len() {
                let ci = self.watches[widx][i];
                let w0 = self.clauses[ci as usize].lits[0];
                // Normalize: ensure the false literal (¬p) is at position 1.
                let false_lit = p.negate();
                if w0 == false_lit {
                    self.clauses[ci as usize].lits.swap(0, 1);
                }
                let first = self.clauses[ci as usize].lits[0];
                debug_assert_eq!(self.clauses[ci as usize].lits[1], false_lit);
                if self.lit_value(first) == LBool::True {
                    i += 1;
                    continue;
                }
                // Find a new literal to watch.
                let mut moved = false;
                let len = self.clauses[ci as usize].lits.len();
                for k in 2..len {
                    let lk = self.clauses[ci as usize].lits[k];
                    if self.lit_value(lk) != LBool::False {
                        self.clauses[ci as usize].lits.swap(1, k);
                        self.watches[widx].swap_remove(i);
                        self.watches[lk.negate().index()].push(ci);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Clause is unit or conflicting.
                match self.lit_value(first) {
                    LBool::False => {
                        self.prop_head = self.trail.len();
                        return Some(ci);
                    }
                    LBool::Undef => {
                        self.enqueue(first, Some(ci));
                        i += 1;
                    }
                    LBool::True => {
                        i += 1;
                    }
                }
            }
        }
        None
    }

    fn bump(&mut self, v: Var) {
        let a = &mut self.activity[v.0 as usize];
        *a += self.act_inc;
        if *a > 1e100 {
            for x in &mut self.activity {
                *x *= 1e-100;
            }
            self.act_inc *= 1e-100;
        }
    }

    /// First-UIP conflict analysis. Returns (learned clause, backjump level).
    fn analyze(&mut self, confl: u32) -> (Vec<Lit>, u32) {
        let mut learned: Vec<Lit> = vec![Lit::pos(Var(0))]; // placeholder slot 0
        let mut seen = vec![false; self.num_vars()];
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut idx = self.trail.len();
        let mut reason_clause = confl;
        let cur_level = self.decision_level();

        loop {
            let start = usize::from(p.is_some());
            let lits: Vec<Lit> = self.clauses[reason_clause as usize].lits[start..].to_vec();
            for q in lits {
                let v = q.var();
                if !seen[v.0 as usize] && self.level[v.0 as usize] > 0 {
                    seen[v.0 as usize] = true;
                    self.bump(v);
                    if self.level[v.0 as usize] >= cur_level {
                        counter += 1;
                    } else {
                        learned.push(q);
                    }
                }
            }
            // Pick next literal on the trail to resolve.
            loop {
                idx -= 1;
                let l = self.trail[idx];
                if seen[l.var().0 as usize] {
                    p = Some(l);
                    break;
                }
            }
            let pv = p.expect("found trail literal").var();
            seen[pv.0 as usize] = false;
            counter -= 1;
            if counter == 0 {
                learned[0] = p.expect("UIP literal").negate();
                break;
            }
            reason_clause = self.reason[pv.0 as usize].expect("non-decision has a reason");
        }

        // Backjump level = max level among learned[1..].
        let mut bj = 0;
        let mut max_i = 0;
        for (i, l) in learned.iter().enumerate().skip(1) {
            let lv = self.level[l.var().0 as usize];
            if lv > bj {
                bj = lv;
                max_i = i;
            }
        }
        if max_i > 0 {
            learned.swap(1, max_i);
        }
        (learned, bj)
    }

    fn backtrack_to(&mut self, level: u32) {
        while self.decision_level() > level {
            let lim = self.trail_lim.pop().expect("level > 0 has a limit");
            while self.trail.len() > lim {
                let l = self.trail.pop().expect("trail non-empty");
                let v = l.var().0 as usize;
                self.assign[v] = LBool::Undef;
                self.reason[v] = None;
            }
        }
        self.prop_head = self.trail.len().min(self.prop_head);
        if level == 0 {
            self.prop_head = self.prop_head.min(self.trail.len());
        }
    }

    fn pick_branch(&mut self) -> Option<Var> {
        let mut best: Option<(Var, f64)> = None;
        for (i, &a) in self.assign.iter().enumerate() {
            if a == LBool::Undef {
                let v = Var(u32::try_from(i).expect("var index fits u32"));
                let act = self.activity[i];
                match best {
                    Some((_, b)) if b >= act => {}
                    _ => best = Some((v, act)),
                }
            }
        }
        best.map(|(v, _)| v)
    }

    /// Searches for a satisfying assignment, up to `max_conflicts` conflicts.
    pub fn solve(&mut self, max_conflicts: u64) -> SatOutcome {
        if !self.ok {
            return SatOutcome::Unsat;
        }
        self.backtrack_to(0);
        self.prop_head = 0;
        if self.propagate().is_some() {
            self.ok = false;
            return SatOutcome::Unsat;
        }
        let mut budget = max_conflicts;
        loop {
            if let Some(confl) = self.propagate() {
                self.conflicts += 1;
                if budget == 0 {
                    return SatOutcome::Unknown;
                }
                budget -= 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SatOutcome::Unsat;
                }
                let (learned, bj) = self.analyze(confl);
                self.backtrack_to(bj);
                self.act_inc /= 0.95;
                if learned.len() == 1 {
                    self.enqueue(learned[0], None);
                } else {
                    let ci = u32::try_from(self.clauses.len()).expect("too many clauses");
                    self.watches[learned[0].negate().index()].push(ci);
                    self.watches[learned[1].negate().index()].push(ci);
                    let unit = learned[0];
                    self.clauses.push(Clause { lits: learned });
                    self.enqueue(unit, Some(ci));
                }
            } else {
                match self.pick_branch() {
                    None => return SatOutcome::Sat,
                    Some(v) => {
                        self.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let saved = self.phase[v.0 as usize];
                        let l = if saved { Lit::pos(v) } else { Lit::neg(v) };
                        self.enqueue(l, None);
                    }
                }
            }
        }
    }

    /// Cumulative statistics.
    pub(crate) fn stats(&self) -> SatStats {
        SatStats {
            conflicts: self.conflicts,
            decisions: self.decisions,
            propagations: self.propagations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(s: &mut SatSolver, n: usize) -> Vec<Var> {
        (0..n).map(|_| s.new_var()).collect()
    }

    #[test]
    fn trivially_sat() {
        let mut s = SatSolver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1])]);
        assert_eq!(s.solve(1000), SatOutcome::Sat);
        assert!(s.value(v[0]) || s.value(v[1]));
    }

    #[test]
    fn contradiction_is_unsat() {
        let mut s = SatSolver::new();
        let v = lits(&mut s, 1);
        s.add_clause(&[Lit::pos(v[0])]);
        s.add_clause(&[Lit::neg(v[0])]);
        assert_eq!(s.solve(1000), SatOutcome::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = SatSolver::new();
        let _ = lits(&mut s, 1);
        s.add_clause(&[]);
        assert_eq!(s.solve(1000), SatOutcome::Unsat);
    }

    #[test]
    fn chain_implication_forces_assignment() {
        // (¬x0 ∨ x1)(¬x1 ∨ x2)…(¬x8 ∨ x9), x0 unit; x9 must be true.
        let mut s = SatSolver::new();
        let v = lits(&mut s, 10);
        s.add_clause(&[Lit::pos(v[0])]);
        for i in 0..9 {
            s.add_clause(&[Lit::neg(v[i]), Lit::pos(v[i + 1])]);
        }
        assert_eq!(s.solve(1000), SatOutcome::Sat);
        for &x in &v {
            assert!(s.value(x));
        }
    }

    #[test]
    fn pigeonhole_2_into_1_is_unsat() {
        // Two pigeons, one hole: p0h0, p1h0, ¬p0h0 ∨ ¬p1h0.
        let mut s = SatSolver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[Lit::pos(v[0])]);
        s.add_clause(&[Lit::pos(v[1])]);
        s.add_clause(&[Lit::neg(v[0]), Lit::neg(v[1])]);
        assert_eq!(s.solve(1000), SatOutcome::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // 3 pigeons, 2 holes. Var p*2+h.
        let mut s = SatSolver::new();
        let v = lits(&mut s, 6);
        for p in 0..3usize {
            s.add_clause(&[Lit::pos(v[p * 2]), Lit::pos(v[p * 2 + 1])]);
        }
        for h in 0..2usize {
            for p1 in 0..3usize {
                for p2 in (p1 + 1)..3usize {
                    s.add_clause(&[Lit::neg(v[p1 * 2 + h]), Lit::neg(v[p2 * 2 + h])]);
                }
            }
        }
        assert_eq!(s.solve(10_000), SatOutcome::Unsat);
    }

    #[test]
    fn blocking_clauses_enumerate_models() {
        // 2 free vars: exactly 4 models; blocking each should yield UNSAT
        // after 4 iterations.
        let mut s = SatSolver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[Lit::pos(v[0]), Lit::neg(v[0])]); // touch watches
        let mut models = 0;
        loop {
            match s.solve(10_000) {
                SatOutcome::Sat => {
                    models += 1;
                    assert!(models <= 4, "enumerated too many models");
                    let block: Vec<Lit> = v
                        .iter()
                        .map(|&x| if s.value(x) { Lit::neg(x) } else { Lit::pos(x) })
                        .collect();
                    s.add_clause(&block);
                }
                SatOutcome::Unsat => break,
                SatOutcome::Unknown => panic!("unexpected unknown"),
            }
        }
        assert_eq!(models, 4);
    }

    #[test]
    fn budget_exhaustion_returns_unknown() {
        // A hard-ish random-looking instance with budget 0 conflicts returns
        // Unknown only if a conflict occurs; with a satisfiable instance and
        // no conflicts it may return Sat. Use an UNSAT core with budget 0.
        let mut s = SatSolver::new();
        let v = lits(&mut s, 3);
        // XOR-ish constraints that need at least one conflict.
        s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1]), Lit::pos(v[2])]);
        s.add_clause(&[Lit::pos(v[0]), Lit::neg(v[1]), Lit::neg(v[2])]);
        s.add_clause(&[Lit::neg(v[0]), Lit::pos(v[1]), Lit::neg(v[2])]);
        s.add_clause(&[Lit::neg(v[0]), Lit::neg(v[1]), Lit::pos(v[2])]);
        s.add_clause(&[Lit::neg(v[0]), Lit::neg(v[1]), Lit::neg(v[2])]);
        s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1]), Lit::neg(v[2])]);
        s.add_clause(&[Lit::pos(v[0]), Lit::neg(v[1]), Lit::pos(v[2])]);
        s.add_clause(&[Lit::neg(v[0]), Lit::pos(v[1]), Lit::pos(v[2])]);
        assert_eq!(s.solve(0), SatOutcome::Unknown);
        assert_eq!(s.solve(1000), SatOutcome::Unsat);
    }

    #[test]
    fn duplicate_and_tautological_clauses_are_handled() {
        let mut s = SatSolver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[0])]); // dup → unit
        s.add_clause(&[Lit::pos(v[1]), Lit::neg(v[1])]); // tautology → dropped
        assert_eq!(s.solve(100), SatOutcome::Sat);
        assert!(s.value(v[0]));
    }
}

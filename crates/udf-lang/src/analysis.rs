//! Syntactic analyses used by the consolidation engine: variable and function
//! collection, substitution, local renaming, and static validation.
//!
//! The paper requires the local variables of the two programs being
//! consolidated to be disjoint (variables are written `xᵢⱼ`, labelled by the
//! program id). [`rename_locals`] establishes that precondition mechanically.

use crate::ast::{BoolExpr, IntExpr, Program, Stmt};
use crate::intern::{Interner, Symbol};
use std::collections::{BTreeMap, BTreeSet};

/// Collects variables *read* by an integer expression into `out`.
pub(crate) fn int_expr_vars(e: &IntExpr, out: &mut BTreeSet<Symbol>) {
    match e {
        IntExpr::Const(_) => {}
        IntExpr::Var(v) => {
            out.insert(*v);
        }
        IntExpr::Call(_, args) => {
            for a in args {
                int_expr_vars(a, out);
            }
        }
        IntExpr::Bin(_, a, b) => {
            int_expr_vars(a, out);
            int_expr_vars(b, out);
        }
    }
}

/// Collects variables *read* by a boolean expression into `out`.
pub fn bool_expr_vars(e: &BoolExpr, out: &mut BTreeSet<Symbol>) {
    match e {
        BoolExpr::Const(_) => {}
        BoolExpr::Cmp(_, a, b) => {
            int_expr_vars(a, out);
            int_expr_vars(b, out);
        }
        BoolExpr::Not(a) => bool_expr_vars(a, out),
        BoolExpr::Bin(_, a, b) => {
            bool_expr_vars(a, out);
            bool_expr_vars(b, out);
        }
    }
}

/// All variables read anywhere in a statement.
pub fn read_vars(s: &Stmt) -> BTreeSet<Symbol> {
    let mut out = BTreeSet::new();
    collect_reads(s, &mut out);
    out
}

fn collect_reads(s: &Stmt, out: &mut BTreeSet<Symbol>) {
    match s {
        Stmt::Skip | Stmt::Notify(..) => {}
        Stmt::Assign(_, e) => int_expr_vars(e, out),
        Stmt::Seq(a, b) => {
            collect_reads(a, out);
            collect_reads(b, out);
        }
        Stmt::If(c, a, b) => {
            bool_expr_vars(c, out);
            collect_reads(a, out);
            collect_reads(b, out);
        }
        Stmt::While(c, b) => {
            bool_expr_vars(c, out);
            collect_reads(b, out);
        }
    }
}

/// All variables assigned anywhere in a statement.
pub fn assigned_vars(s: &Stmt) -> BTreeSet<Symbol> {
    let mut out = BTreeSet::new();
    collect_assigned(s, &mut out);
    out
}

fn collect_assigned(s: &Stmt, out: &mut BTreeSet<Symbol>) {
    match s {
        Stmt::Skip | Stmt::Notify(..) => {}
        Stmt::Assign(x, _) => {
            out.insert(*x);
        }
        Stmt::Seq(a, b) | Stmt::If(_, a, b) => {
            collect_assigned(a, out);
            collect_assigned(b, out);
        }
        Stmt::While(_, b) => collect_assigned(b, out),
    }
}

/// All external function symbols called in an integer expression.
pub fn int_expr_fns(e: &IntExpr, out: &mut BTreeSet<Symbol>) {
    match e {
        IntExpr::Const(_) | IntExpr::Var(_) => {}
        IntExpr::Call(f, args) => {
            out.insert(*f);
            for a in args {
                int_expr_fns(a, out);
            }
        }
        IntExpr::Bin(_, a, b) => {
            int_expr_fns(a, out);
            int_expr_fns(b, out);
        }
    }
}

/// All external function symbols called in a boolean expression.
pub fn bool_expr_fns(e: &BoolExpr, out: &mut BTreeSet<Symbol>) {
    match e {
        BoolExpr::Const(_) => {}
        BoolExpr::Cmp(_, a, b) => {
            int_expr_fns(a, out);
            int_expr_fns(b, out);
        }
        BoolExpr::Not(a) => bool_expr_fns(a, out),
        BoolExpr::Bin(_, a, b) => {
            bool_expr_fns(a, out);
            bool_expr_fns(b, out);
        }
    }
}

/// All external function symbols called anywhere in a statement.
pub fn called_fns(s: &Stmt) -> BTreeSet<Symbol> {
    let mut out = BTreeSet::new();
    collect_fns(s, &mut out);
    out
}

fn collect_fns(s: &Stmt, out: &mut BTreeSet<Symbol>) {
    match s {
        Stmt::Skip | Stmt::Notify(..) => {}
        Stmt::Assign(_, e) => int_expr_fns(e, out),
        Stmt::Seq(a, b) => {
            collect_fns(a, out);
            collect_fns(b, out);
        }
        Stmt::If(c, a, b) => {
            bool_expr_fns(c, out);
            collect_fns(a, out);
            collect_fns(b, out);
        }
        Stmt::While(c, b) => {
            bool_expr_fns(c, out);
            collect_fns(b, out);
        }
    }
}

/// All program ids broadcast by `notify` statements in `s`.
pub fn notify_ids(s: &Stmt) -> BTreeSet<crate::ast::ProgId> {
    fn walk(s: &Stmt, out: &mut BTreeSet<crate::ast::ProgId>) {
        match s {
            Stmt::Skip | Stmt::Assign(..) => {}
            Stmt::Notify(id, _) => {
                out.insert(*id);
            }
            Stmt::Seq(a, b) | Stmt::If(_, a, b) => {
                walk(a, out);
                walk(b, out);
            }
            Stmt::While(_, b) => walk(b, out),
        }
    }
    let mut out = BTreeSet::new();
    walk(s, &mut out);
    out
}

/// Applies a variable substitution to an integer expression.
pub(crate) fn subst_int(e: &IntExpr, map: &BTreeMap<Symbol, Symbol>) -> IntExpr {
    match e {
        IntExpr::Const(c) => IntExpr::Const(*c),
        IntExpr::Var(v) => IntExpr::Var(map.get(v).copied().unwrap_or(*v)),
        IntExpr::Call(f, args) => {
            IntExpr::Call(*f, args.iter().map(|a| subst_int(a, map)).collect())
        }
        IntExpr::Bin(op, a, b) => IntExpr::Bin(
            *op,
            Box::new(subst_int(a, map)),
            Box::new(subst_int(b, map)),
        ),
    }
}

/// Applies a variable substitution to a boolean expression.
pub(crate) fn subst_bool(e: &BoolExpr, map: &BTreeMap<Symbol, Symbol>) -> BoolExpr {
    match e {
        BoolExpr::Const(b) => BoolExpr::Const(*b),
        BoolExpr::Cmp(op, a, b) => BoolExpr::Cmp(*op, subst_int(a, map), subst_int(b, map)),
        BoolExpr::Not(a) => BoolExpr::not(subst_bool(a, map)),
        BoolExpr::Bin(op, a, b) => BoolExpr::Bin(
            *op,
            Box::new(subst_bool(a, map)),
            Box::new(subst_bool(b, map)),
        ),
    }
}

/// Applies a variable substitution to a statement (both reads and writes).
pub fn subst_stmt(s: &Stmt, map: &BTreeMap<Symbol, Symbol>) -> Stmt {
    match s {
        Stmt::Skip => Stmt::Skip,
        Stmt::Notify(id, b) => Stmt::Notify(*id, *b),
        Stmt::Assign(x, e) => Stmt::Assign(map.get(x).copied().unwrap_or(*x), subst_int(e, map)),
        Stmt::Seq(a, b) => Stmt::Seq(Box::new(subst_stmt(a, map)), Box::new(subst_stmt(b, map))),
        Stmt::If(c, a, b) => Stmt::If(
            subst_bool(c, map),
            Box::new(subst_stmt(a, map)),
            Box::new(subst_stmt(b, map)),
        ),
        Stmt::While(c, b) => Stmt::While(subst_bool(c, map), Box::new(subst_stmt(b, map))),
    }
}

/// Renames every local variable (assigned variable that is not a parameter)
/// of `program` to a fresh name starting with `prefix`, returning the renamed
/// program. Parameters are left untouched: consolidated programs share their
/// input `ᾱ`.
pub fn rename_locals(program: &Program, interner: &mut Interner, prefix: &str) -> Program {
    rename_locals_with(program, interner, |interner, base| {
        interner.fresh(&format!("{prefix}{base}"))
    })
}

/// [`rename_locals`] with the caller choosing each new name: `name` gets the
/// interner and a local's current name and returns the symbol to use
/// instead. The caller answers for the new names being distinct from each
/// other and from everything else the renamed program will meet.
pub fn rename_locals_with(
    program: &Program,
    interner: &mut Interner,
    mut name: impl FnMut(&mut Interner, &str) -> Symbol,
) -> Program {
    let params: BTreeSet<Symbol> = program.params.iter().copied().collect();
    let mut map = BTreeMap::new();
    for v in assigned_vars(&program.body) {
        if !params.contains(&v) {
            let base = interner.resolve(v).to_owned();
            map.insert(v, name(interner, &base));
        }
    }
    Program::new(
        program.id,
        program.params.clone(),
        subst_stmt(&program.body, &map),
    )
}

/// Static validation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg(test)]
pub(crate) enum ValidateError {
    /// A parameter appears on the left of `:=`.
    AssignsParameter(String),
    /// A variable may be read before any assignment reaches it.
    MaybeUninitialized(String),
}

#[cfg(test)]
impl std::fmt::Display for ValidateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidateError::AssignsParameter(v) => {
                write!(f, "parameter `{v}` is assigned; parameters are read-only")
            }
            ValidateError::MaybeUninitialized(v) => {
                write!(f, "variable `{v}` may be read before initialization")
            }
        }
    }
}

#[cfg(test)]
impl std::error::Error for ValidateError {}

/// Validates a program: parameters are never assigned, and every variable is
/// definitely assigned before each read (a conservative forward analysis —
/// conditional assignments only count when they occur on both branches).
///
/// # Errors
///
/// Returns the first [`ValidateError`] found.
#[cfg(test)]
pub(crate) fn validate(program: &Program, interner: &Interner) -> Result<(), ValidateError> {
    let params: BTreeSet<Symbol> = program.params.iter().copied().collect();
    for v in assigned_vars(&program.body) {
        if params.contains(&v) {
            return Err(ValidateError::AssignsParameter(
                interner.resolve(v).to_owned(),
            ));
        }
    }
    match first_unassigned_read(&program.body, &params) {
        Some(v) => Err(ValidateError::MaybeUninitialized(
            interner.resolve(v).to_owned(),
        )),
        None => Ok(()),
    }
}

/// Definite assignment: the first variable `s` may read before any
/// assignment reaches it, when only the variables in `defined` hold a value
/// on entry. Conservative and forward — a conditional assignment counts
/// after the `if` only when both branches make it, and nothing assigned in
/// a loop body flows out of the loop (the body may run zero times).
pub(crate) fn first_unassigned_read(s: &Stmt, defined: &BTreeSet<Symbol>) -> Option<Symbol> {
    check_defined(s, &mut defined.clone()).err()
}

fn expr_defined(vars: &BTreeSet<Symbol>, defined: &BTreeSet<Symbol>) -> Result<(), Symbol> {
    match vars.iter().find(|&v| !defined.contains(v)) {
        Some(&v) => Err(v),
        None => Ok(()),
    }
}

fn check_defined(s: &Stmt, defined: &mut BTreeSet<Symbol>) -> Result<(), Symbol> {
    match s {
        Stmt::Skip | Stmt::Notify(..) => Ok(()),
        Stmt::Assign(x, e) => {
            let mut vars = BTreeSet::new();
            int_expr_vars(e, &mut vars);
            expr_defined(&vars, defined)?;
            defined.insert(*x);
            Ok(())
        }
        Stmt::Seq(a, b) => {
            check_defined(a, defined)?;
            check_defined(b, defined)
        }
        Stmt::If(c, a, b) => {
            let mut vars = BTreeSet::new();
            bool_expr_vars(c, &mut vars);
            expr_defined(&vars, defined)?;
            let mut then_defs = defined.clone();
            check_defined(a, &mut then_defs)?;
            let mut else_defs = defined.clone();
            check_defined(b, &mut else_defs)?;
            *defined = then_defs.intersection(&else_defs).copied().collect();
            Ok(())
        }
        Stmt::While(c, b) => {
            let mut vars = BTreeSet::new();
            bool_expr_vars(c, &mut vars);
            expr_defined(&vars, defined)?;
            // The body may execute zero times: definitions inside it do not
            // flow out, but the body itself is checked starting from the
            // current definitions.
            let mut body_defs = defined.clone();
            check_defined(b, &mut body_defs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_program;

    fn prog(src: &str) -> (Program, Interner) {
        let mut i = Interner::new();
        let p = parse_program(src, &mut i).unwrap();
        (p, i)
    }

    #[test]
    fn collects_reads_writes_and_fns() {
        let (p, i) = prog(
            "program a @0 (n) { x := f(n) + 1; while (x > 0) { x := x - g(x); } notify true; }",
        );
        let reads: Vec<&str> = read_vars(&p.body).iter().map(|&s| i.resolve(s)).collect();
        assert_eq!(reads, vec!["n", "x"]);
        let writes: Vec<&str> = assigned_vars(&p.body)
            .iter()
            .map(|&s| i.resolve(s))
            .collect();
        assert_eq!(writes, vec!["x"]);
        let fns: Vec<&str> = called_fns(&p.body).iter().map(|&s| i.resolve(s)).collect();
        assert_eq!(fns, vec!["f", "g"]);
    }

    #[test]
    fn rename_locals_keeps_params_and_freshens_locals() {
        let (p, mut i) = prog("program a @0 (n) { x := n + 1; y := x * 2; }");
        let renamed = rename_locals(&p, &mut i, "p0$");
        assert_eq!(renamed.params, p.params);
        let writes: Vec<String> = assigned_vars(&renamed.body)
            .iter()
            .map(|&s| i.resolve(s).to_owned())
            .collect();
        assert_eq!(writes.len(), 2);
        for w in &writes {
            assert!(w.starts_with("p0$"), "{w}");
        }
        // Dataflow is preserved: the read of `x` in the second assignment
        // follows the renaming.
        let reads = read_vars(&renamed.body);
        assert!(reads.iter().any(|&s| i.resolve(s).starts_with("p0$x")));
    }

    #[test]
    fn validate_accepts_well_formed() {
        let (p, i) =
            prog("program a @0 (n) { x := n; if (x < 3) { y := 1; } else { y := 2; } z := y; }");
        assert_eq!(validate(&p, &i), Ok(()));
    }

    #[test]
    fn validate_rejects_parameter_assignment() {
        let (p, i) = prog("program a @0 (n) { n := 3; }");
        assert_eq!(
            validate(&p, &i),
            Err(ValidateError::AssignsParameter("n".to_owned()))
        );
    }

    #[test]
    fn validate_rejects_one_sided_definition() {
        let (p, i) = prog("program a @0 (n) { if (n < 0) { y := 1; } z := y; }");
        assert_eq!(
            validate(&p, &i),
            Err(ValidateError::MaybeUninitialized("y".to_owned()))
        );
    }

    #[test]
    fn validate_loop_definitions_do_not_escape() {
        let (p, i) = prog("program a @0 (n) { while (n < 0) { y := 1; } z := y; }");
        assert_eq!(
            validate(&p, &i),
            Err(ValidateError::MaybeUninitialized("y".to_owned()))
        );
    }

    #[test]
    fn subst_replaces_reads_and_writes() {
        let mut i = Interner::new();
        let x = i.intern("x");
        let y = i.intern("y");
        let s = Stmt::Assign(x, IntExpr::add(IntExpr::Var(x), IntExpr::Const(1)));
        let mut map = BTreeMap::new();
        map.insert(x, y);
        let s2 = subst_stmt(&s, &map);
        assert_eq!(
            s2,
            Stmt::Assign(y, IntExpr::add(IntExpr::Var(y), IntExpr::Const(1)))
        );
    }
}

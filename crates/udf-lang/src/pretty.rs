//! Pretty-printing of programs, statements, and expressions.
//!
//! Output round-trips through [`crate::parse`]: for any well-formed program
//! `p`, `parse(print(p)) == p` (up to `skip` elision in sequences). The
//! property tests in the crate rely on this.

use crate::ast::{BoolExpr, IntExpr, IntOp, ProgId, Program, Stmt};
use crate::intern::Interner;
use std::fmt::Write as _;

/// Pretty-prints an integer expression.
pub fn int_expr(e: &IntExpr, interner: &Interner) -> String {
    let mut s = String::new();
    write_int(&mut s, e, interner, 0);
    s
}

/// Pretty-prints a boolean expression.
pub fn bool_expr(e: &BoolExpr, interner: &Interner) -> String {
    let mut s = String::new();
    write_bool(&mut s, e, interner, 0);
    s
}

/// Pretty-prints a whole program as parseable source text.
pub fn program(p: &Program, interner: &Interner) -> String {
    let mut out = String::new();
    let params: Vec<&str> = p.params.iter().map(|&s| interner.resolve(s)).collect();
    let _ = writeln!(
        out,
        "program p{} @{} ({}) {{",
        p.id.0,
        p.id.0,
        params.join(", ")
    );
    write_stmt(&mut out, &p.body, interner, 1, Some(p.id));
    out.push_str("}\n");
    out
}

// Integer precedence: atoms 2, `*` 1, `+ -` 0.
fn int_prec(e: &IntExpr) -> u8 {
    match e {
        IntExpr::Const(_) | IntExpr::Var(_) | IntExpr::Call(..) => 2,
        IntExpr::Bin(IntOp::Mul, ..) => 1,
        IntExpr::Bin(..) => 0,
    }
}

fn write_int(out: &mut String, e: &IntExpr, interner: &Interner, min_prec: u8) {
    let prec = int_prec(e);
    let paren = prec < min_prec;
    if paren {
        out.push('(');
    }
    match e {
        IntExpr::Const(c) => {
            let _ = write!(out, "{c}");
        }
        IntExpr::Var(v) => out.push_str(interner.resolve(*v)),
        IntExpr::Call(f, args) => {
            out.push_str(interner.resolve(*f));
            out.push('(');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_int(out, a, interner, 0);
            }
            out.push(')');
        }
        IntExpr::Bin(op, a, b) => {
            write_int(out, a, interner, prec);
            let _ = write!(out, " {} ", op.as_str());
            // Left-associative: the right operand needs strictly higher
            // precedence to avoid re-association on reparse.
            write_int(out, b, interner, prec + 1);
        }
    }
    if paren {
        out.push(')');
    }
}

// Boolean precedence: literals 4, comparisons 3, `!` 2, `&&` 1, `||` 0.
// Comparisons after `!` are parenthesized (`!(x == 0)`) for readability even
// though the grammar would re-parse the bare form identically.
fn bool_prec(e: &BoolExpr) -> u8 {
    match e {
        BoolExpr::Const(_) => 4,
        BoolExpr::Cmp(..) => 3,
        BoolExpr::Not(_) => 2,
        BoolExpr::Bin(crate::ast::BoolOp::And, ..) => 1,
        BoolExpr::Bin(crate::ast::BoolOp::Or, ..) => 0,
    }
}

fn write_bool(out: &mut String, e: &BoolExpr, interner: &Interner, min_prec: u8) {
    let prec = bool_prec(e);
    let paren = prec < min_prec;
    if paren {
        out.push('(');
    }
    match e {
        BoolExpr::Const(b) => out.push_str(if *b { "true" } else { "false" }),
        BoolExpr::Cmp(op, a, b) => {
            write_int(out, a, interner, 0);
            let _ = write!(out, " {} ", op.as_str());
            write_int(out, b, interner, 0);
        }
        BoolExpr::Not(a) => {
            out.push('!');
            // `!` applies to a literal or parenthesized expression.
            write_bool(out, a, interner, 4);
        }
        BoolExpr::Bin(op, a, b) => {
            write_bool(out, a, interner, prec);
            let _ = write!(out, " {} ", op.as_str());
            write_bool(out, b, interner, prec + 1);
        }
    }
    if paren {
        out.push(')');
    }
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

fn write_stmt(out: &mut String, s: &Stmt, interner: &Interner, level: usize, ctx: Option<ProgId>) {
    match s {
        Stmt::Skip => {
            indent(out, level);
            out.push_str("skip;\n");
        }
        Stmt::Assign(x, e) => {
            indent(out, level);
            out.push_str(interner.resolve(*x));
            out.push_str(" := ");
            write_int(out, e, interner, 0);
            out.push_str(";\n");
        }
        Stmt::Seq(a, b) => {
            write_stmt(out, a, interner, level, ctx);
            write_stmt(out, b, interner, level, ctx);
        }
        Stmt::If(c, t, e) => {
            indent(out, level);
            out.push_str("if (");
            write_bool(out, c, interner, 0);
            out.push_str(") {\n");
            write_stmt(out, t, interner, level + 1, ctx);
            indent(out, level);
            if e.is_skip() {
                out.push_str("}\n");
            } else {
                out.push_str("} else {\n");
                write_stmt(out, e, interner, level + 1, ctx);
                indent(out, level);
                out.push_str("}\n");
            }
        }
        Stmt::While(c, b) => {
            indent(out, level);
            out.push_str("while (");
            write_bool(out, c, interner, 0);
            out.push_str(") {\n");
            write_stmt(out, b, interner, level + 1, ctx);
            indent(out, level);
            out.push_str("}\n");
        }
        Stmt::Notify(id, b) => {
            indent(out, level);
            if ctx == Some(*id) {
                let _ = writeln!(out, "notify {};", if *b { "true" } else { "false" });
            } else {
                let _ = writeln!(
                    out,
                    "notify @{} {};",
                    id.0,
                    if *b { "true" } else { "false" }
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse_bool_expr, parse_int_expr, parse_program};

    #[test]
    fn int_round_trip_preserves_associativity() {
        let mut i = Interner::new();
        let e = parse_int_expr("(1 - 2) - 3 * (4 + 5)", &mut i).unwrap();
        let printed = int_expr(&e, &i);
        let reparsed = parse_int_expr(&printed, &mut i).unwrap();
        assert_eq!(e, reparsed, "printed as {printed}");
    }

    #[test]
    fn bool_round_trip() {
        let mut i = Interner::new();
        for src in [
            "x < 1 && (y < 2 || z < 3)",
            "!(a == b) || c <= d",
            "!(!(x < 1))",
            "true && false",
        ] {
            let e = parse_bool_expr(src, &mut i).unwrap();
            let printed = bool_expr(&e, &i);
            let reparsed = parse_bool_expr(&printed, &mut i).unwrap();
            assert_eq!(e, reparsed, "source `{src}` printed as `{printed}`");
        }
    }

    #[test]
    fn program_round_trip() {
        let mut i = Interner::new();
        let src = "program f @3 (price) {
            x := price * 2;
            if (x >= 100) { notify false; } else { notify true; }
            while (x > 0) { x := x - 1; }
        }";
        let p = parse_program(src, &mut i).unwrap();
        let printed = program(&p, &i);
        let reparsed = parse_program(&printed, &mut i).unwrap();
        assert_eq!(p.body, reparsed.body);
        assert_eq!(p.id, reparsed.id);
    }

    #[test]
    fn foreign_notify_prints_id() {
        let mut i = Interner::new();
        let p = parse_program("program f @3 () { notify @4 true; }", &mut i).unwrap();
        let printed = program(&p, &i);
        assert!(printed.contains("notify @4 true;"), "{printed}");
    }
}

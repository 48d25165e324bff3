//! The plan wire codec: single-line S-expressions over [`crate::ast`].
//!
//! A consolidated [`Program`] is built over [`crate::intern::Symbol`]s —
//! indices into the interner of the process (and run) that produced it — so
//! every crossing of a process boundary (`udf-serve` journal frames and
//! checkpoints, plan-cache snapshots) spells names out and re-interns them
//! on the way back. [`write_program`] and [`read_program`] are that crossing,
//! straight between the AST and text:
//!
//! ```text
//! (program 1 (params a) (seq (assign u0$x%3 (int 1)) (notify 1 true)) (prefilter (le (int 1) (var a))))
//! ```
//!
//! Tokens are runs of characters other than whitespace and parentheses, so
//! the `$`/`%`/`@` of generated names need no escaping. The concrete syntax
//! is deliberately *not* the wire form: it cannot spell names like `u0$x%3`
//! (made by `rename_locals` and `Interner::fresh`), and `pretty`∘`parse` is
//! the identity only up to `skip` elision and `seq` re-association, whereas
//! a restart replays plan operations on the exact tree.

use crate::ast::{BoolExpr, BoolOp, CmpOp, IntExpr, IntOp, ProgId, Program, Stmt};
use crate::intern::Interner;
use std::fmt::Write as _;

/// Renders `p` — and its verified cross-query pre-filter condition, when one
/// was synthesized (see `consolidate::prefilter`) — as one line of wire
/// text, resolving every symbol against `interner`.
pub fn write_program(p: &Program, prefilter: Option<&BoolExpr>, interner: &Interner) -> String {
    let mut out = String::new();
    let _ = write!(out, "(program {} (params", p.id.0);
    for &s in &p.params {
        let _ = write!(out, " {}", interner.resolve(s));
    }
    out.push_str(") ");
    w_stmt(&p.body, interner, &mut out);
    if let Some(pf) = prefilter {
        out.push_str(" (prefilter ");
        w_bool(pf, interner, &mut out);
        out.push(')');
    }
    out.push(')');
    out
}

/// Parses wire text produced by [`write_program`], interning every name
/// into `interner`. The `(prefilter …)` section is optional.
///
/// # Errors
///
/// Returns a description of the first syntax error. The text may come from
/// a file (snapshot, journal, checkpoint), so no input panics.
pub fn read_program(
    src: &str,
    interner: &mut Interner,
) -> Result<(Program, Option<BoolExpr>), String> {
    let toks = &mut Toks { rest: src };
    toks.head("program")?;
    let id = ProgId(toks.value()?);
    toks.head("params")?;
    let mut params = Vec::new();
    loop {
        match toks.next() {
            Some(Tok::Atom(a)) => params.push(interner.intern(a)),
            Some(Tok::Close) => break,
            other => return Err(format!("expected parameter name or `)`, found {other:?}")),
        }
    }
    let body = r_stmt(toks, interner)?;
    let prefilter = if toks.peek() == Some(Tok::Open) {
        toks.head("prefilter")?;
        let pf = r_bool(toks, interner)?;
        toks.close()?;
        Some(pf)
    } else {
        None
    };
    toks.close()?;
    match toks.next() {
        None => Ok((Program::new(id, params, body), prefilter)),
        Some(t) => Err(format!("trailing input: {t:?}")),
    }
}

fn w_int(e: &IntExpr, i: &Interner, out: &mut String) {
    match e {
        IntExpr::Const(c) => {
            let _ = write!(out, "(int {c})");
        }
        IntExpr::Var(v) => {
            let _ = write!(out, "(var {})", i.resolve(*v));
        }
        IntExpr::Call(f, args) => {
            let _ = write!(out, "(call {}", i.resolve(*f));
            for a in args {
                out.push(' ');
                w_int(a, i, out);
            }
            out.push(')');
        }
        IntExpr::Bin(op, a, b) => {
            out.push_str(match op {
                IntOp::Add => "(add ",
                IntOp::Sub => "(sub ",
                IntOp::Mul => "(mul ",
            });
            w_int(a, i, out);
            out.push(' ');
            w_int(b, i, out);
            out.push(')');
        }
    }
}

fn w_bool(e: &BoolExpr, i: &Interner, out: &mut String) {
    match e {
        BoolExpr::Const(b) => {
            let _ = write!(out, "({b})");
        }
        BoolExpr::Cmp(op, a, b) => {
            out.push_str(match op {
                CmpOp::Lt => "(lt ",
                CmpOp::Le => "(le ",
                CmpOp::Eq => "(eq ",
            });
            w_int(a, i, out);
            out.push(' ');
            w_int(b, i, out);
            out.push(')');
        }
        BoolExpr::Not(a) => {
            out.push_str("(not ");
            w_bool(a, i, out);
            out.push(')');
        }
        BoolExpr::Bin(op, a, b) => {
            out.push_str(match op {
                BoolOp::And => "(and ",
                BoolOp::Or => "(or ",
            });
            w_bool(a, i, out);
            out.push(' ');
            w_bool(b, i, out);
            out.push(')');
        }
    }
}

fn w_stmt(s: &Stmt, i: &Interner, out: &mut String) {
    match s {
        Stmt::Skip => out.push_str("(skip)"),
        Stmt::Assign(x, e) => {
            let _ = write!(out, "(assign {} ", i.resolve(*x));
            w_int(e, i, out);
            out.push(')');
        }
        Stmt::Seq(a, b) => {
            out.push_str("(seq ");
            w_stmt(a, i, out);
            out.push(' ');
            w_stmt(b, i, out);
            out.push(')');
        }
        Stmt::If(c, a, b) => {
            out.push_str("(if ");
            w_bool(c, i, out);
            out.push(' ');
            w_stmt(a, i, out);
            out.push(' ');
            w_stmt(b, i, out);
            out.push(')');
        }
        Stmt::While(c, b) => {
            out.push_str("(while ");
            w_bool(c, i, out);
            out.push(' ');
            w_stmt(b, i, out);
            out.push(')');
        }
        Stmt::Notify(id, b) => {
            let _ = write!(out, "(notify {} {b})", id.0);
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tok<'a> {
    Open,
    Close,
    Atom(&'a str),
}

/// A cursor over the unread wire text; tokens borrow from it.
#[derive(Clone, Copy)]
struct Toks<'a> {
    rest: &'a str,
}

impl<'a> Toks<'a> {
    fn next(&mut self) -> Option<Tok<'a>> {
        let s = self.rest.trim_start();
        let (tok, len) = match s.chars().next()? {
            '(' => (Tok::Open, 1),
            ')' => (Tok::Close, 1),
            _ => {
                let end = s
                    .find(|c: char| c == '(' || c == ')' || c.is_whitespace())
                    .unwrap_or(s.len());
                (Tok::Atom(&s[..end]), end)
            }
        };
        self.rest = &s[len..];
        Some(tok)
    }

    fn peek(&self) -> Option<Tok<'a>> {
        let mut ahead = *self;
        ahead.next()
    }

    fn atom(&mut self) -> Result<&'a str, String> {
        match self.next() {
            Some(Tok::Atom(a)) => Ok(a),
            other => Err(format!("expected atom, found {other:?}")),
        }
    }

    /// An atom that is a number or a `true`/`false` flag.
    fn value<T: std::str::FromStr>(&mut self) -> Result<T, String> {
        let a = self.atom()?;
        a.parse().map_err(|_| format!("bad value {a:?}"))
    }

    /// Consumes `(` and the form's head atom.
    fn open(&mut self) -> Result<&'a str, String> {
        match self.next() {
            Some(Tok::Open) => self.atom(),
            other => Err(format!("expected `(`, found {other:?}")),
        }
    }

    /// Consumes `(` and the given head atom.
    fn head(&mut self, want: &str) -> Result<(), String> {
        match self.open()? {
            h if h == want => Ok(()),
            h => Err(format!("expected `{want}`, found {h:?}")),
        }
    }

    fn close(&mut self) -> Result<(), String> {
        match self.next() {
            Some(Tok::Close) => Ok(()),
            other => Err(format!("expected `)`, found {other:?}")),
        }
    }
}

fn r_int(toks: &mut Toks, i: &mut Interner) -> Result<IntExpr, String> {
    let e = match toks.open()? {
        "int" => IntExpr::Const(toks.value()?),
        "var" => IntExpr::Var(i.intern(toks.atom()?)),
        "call" => {
            let f = i.intern(toks.atom()?);
            let mut args = Vec::new();
            while toks.peek() != Some(Tok::Close) {
                args.push(r_int(toks, i)?);
            }
            IntExpr::Call(f, args)
        }
        h @ ("add" | "sub" | "mul") => {
            let op = match h {
                "add" => IntOp::Add,
                "sub" => IntOp::Sub,
                _ => IntOp::Mul,
            };
            let a = r_int(toks, i)?;
            IntExpr::Bin(op, Box::new(a), Box::new(r_int(toks, i)?))
        }
        other => return Err(format!("unknown int form {other:?}")),
    };
    toks.close()?;
    Ok(e)
}

fn r_bool(toks: &mut Toks, i: &mut Interner) -> Result<BoolExpr, String> {
    let e = match toks.open()? {
        "true" => BoolExpr::Const(true),
        "false" => BoolExpr::Const(false),
        h @ ("lt" | "le" | "eq") => {
            let op = match h {
                "lt" => CmpOp::Lt,
                "le" => CmpOp::Le,
                _ => CmpOp::Eq,
            };
            let a = r_int(toks, i)?;
            BoolExpr::Cmp(op, a, r_int(toks, i)?)
        }
        "not" => BoolExpr::not(r_bool(toks, i)?),
        h @ ("and" | "or") => {
            let op = if h == "and" { BoolOp::And } else { BoolOp::Or };
            let a = r_bool(toks, i)?;
            BoolExpr::Bin(op, Box::new(a), Box::new(r_bool(toks, i)?))
        }
        other => return Err(format!("unknown bool form {other:?}")),
    };
    toks.close()?;
    Ok(e)
}

fn r_stmt(toks: &mut Toks, i: &mut Interner) -> Result<Stmt, String> {
    let s = match toks.open()? {
        "skip" => Stmt::Skip,
        "assign" => {
            let x = i.intern(toks.atom()?);
            Stmt::Assign(x, r_int(toks, i)?)
        }
        "seq" => {
            let a = r_stmt(toks, i)?;
            Stmt::Seq(Box::new(a), Box::new(r_stmt(toks, i)?))
        }
        "if" => {
            let c = r_bool(toks, i)?;
            let a = r_stmt(toks, i)?;
            Stmt::ite(c, a, r_stmt(toks, i)?)
        }
        "while" => {
            let c = r_bool(toks, i)?;
            Stmt::while_do(c, r_stmt(toks, i)?)
        }
        "notify" => {
            let id = ProgId(toks.value()?);
            Stmt::Notify(id, toks.value()?)
        }
        other => return Err(format!("unknown stmt form {other:?}")),
    };
    toks.close()?;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_program as parse_src;
    use crate::pretty;

    #[test]
    fn parsed_program_round_trips_into_a_fresh_interner() {
        let mut i1 = Interner::new();
        let p = parse_src(
            "program f @3 (price, city) {
                 x := lookup(city) + 1;
                 if (x < 10 && price < 200) { notify true; } else { notify @4 false; }
                 while (x > 0) { x := x - 1; }
             }",
            &mut i1,
        )
        .expect("test source parses");
        let wire = write_program(&p, None, &i1);
        assert!(!wire.contains('\n') && !wire.contains("prefilter"));
        let (same, pf) = read_program(&wire, &mut i1).expect("wire form parses");
        assert_eq!(
            (&same, &pf),
            (&p, &None),
            "same interner: the exact tree comes back"
        );
        let mut i2 = Interner::new();
        let (q, _) = read_program(&wire, &mut i2).expect("wire form parses");
        assert_eq!(pretty::program(&p, &i1), pretty::program(&q, &i2));
    }

    #[test]
    fn read_rejects_garbage() {
        let mut i = Interner::new();
        for bad in [
            "(program 1 (params) (skip)",
            "(program 1 (params) (frob))",
            "(program 1 (params) (skip)))",
            "(program 1 (params) (notify 1 maybe))",
            "(program 1 (params) (skip) (postfilter (true)))",
            "(program -1 (params) (skip))",
        ] {
            assert!(read_program(bad, &mut i).is_err(), "{bad}");
        }
    }

    /// The exact wire text of a program with a renamed local and a
    /// pre-filter section.
    const GOLDEN: &str =
        "(program 4 (params price) (seq (assign u0$x%3 (mul (var price) (int 3))) \
         (if (lt (var u0$x%3) (int 10)) (notify 4 true) (notify 4 false))) \
         (prefilter (le (int 10) (var price))))";

    #[test]
    fn write_program_text_is_golden() {
        let mut i = Interner::new();
        let (price, x) = (i.intern("price"), i.intern("u0$x%3"));
        let body = Stmt::Seq(
            Box::new(Stmt::Assign(
                x,
                IntExpr::mul(IntExpr::Var(price), IntExpr::Const(3)),
            )),
            Box::new(Stmt::ite(
                BoolExpr::Cmp(CmpOp::Lt, IntExpr::Var(x), IntExpr::Const(10)),
                Stmt::Notify(ProgId(4), true),
                Stmt::Notify(ProgId(4), false),
            )),
        );
        let prefilter = BoolExpr::Cmp(CmpOp::Le, IntExpr::Const(10), IntExpr::Var(price));
        let p = Program::new(ProgId(4), vec![price], body);
        assert_eq!(write_program(&p, Some(&prefilter), &i), GOLDEN);
        assert_eq!(read_program(GOLDEN, &mut i), Ok((p, Some(prefilter))));
    }
}

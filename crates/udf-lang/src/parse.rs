//! Concrete syntax for the UDF language.
//!
//! The grammar mirrors the paper's examples, written C-style:
//!
//! ```text
//! program f1 @0 (price, city) {
//!     x := getDistance(city, 94305);
//!     if (x < 10 && price < 200) { notify true; } else { notify false; }
//!     while (i > 0) { i := i - 1; }
//! }
//! ```
//!
//! * `@0` sets the program id (defaults to `@0`); `notify` may override the
//!   target id with `notify @3 true;` — consolidated programs broadcast for
//!   several ids.
//! * `>` / `>=` / `!=` are desugared to the core `<` / `<=` / `==` forms of
//!   Figure 1 by operand swapping and negation.
//! * `&&` binds tighter than `||`; `!` tighter than both.
//! * An integer literal is a magnitude that a leading `-` may negate, so
//!   `-9223372036854775808` is `i64::MIN`, as `pretty` prints it.
//! * `aggregate sum @3 (id) { state s = 0; fold { … } merge { … } }` is a
//!   user-defined aggregation ([`crate::agg`]): a program's header, one
//!   `state` slot and initial value each, then the two bodies. Inside
//!   `merge` slot `s`'s right-hand copy is `rhs_s`. `aggregate`, `state`,
//!   `fold` and `merge` are keywords only in that shape.

use crate::agg::{AggDef, StateSlot};
use crate::ast::{BoolExpr, BoolOp, CmpOp, IntExpr, IntOp, ProgId, Program, Stmt};
use crate::intern::{Interner, Symbol};
use std::fmt;

/// A parse error with 1-based line/column location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    /// A literal's magnitude; a leading `-` is a separate token.
    Num(u64),
    KwProgram,
    KwSkip,
    KwIf,
    KwElse,
    KwWhile,
    KwNotify,
    KwTrue,
    KwFalse,
    LParen,
    RParen,
    LBrace,
    RBrace,
    Comma,
    Semi,
    At,
    Eq,     // =
    Assign, // :=
    Plus,
    Minus,
    Star,
    Lt,
    Le,
    Gt,
    Ge,
    EqEq,
    Ne,
    Not,
    AndAnd,
    OrOr,
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Tok::Ident(s) => return write!(f, "identifier `{s}`"),
            Tok::Num(n) => return write!(f, "number `{n}`"),
            Tok::KwProgram => "`program`",
            Tok::KwSkip => "`skip`",
            Tok::KwIf => "`if`",
            Tok::KwElse => "`else`",
            Tok::KwWhile => "`while`",
            Tok::KwNotify => "`notify`",
            Tok::KwTrue => "`true`",
            Tok::KwFalse => "`false`",
            Tok::LParen => "`(`",
            Tok::RParen => "`)`",
            Tok::LBrace => "`{`",
            Tok::RBrace => "`}`",
            Tok::Comma => "`,`",
            Tok::Semi => "`;`",
            Tok::At => "`@`",
            Tok::Eq => "`=`",
            Tok::Assign => "`:=`",
            Tok::Plus => "`+`",
            Tok::Minus => "`-`",
            Tok::Star => "`*`",
            Tok::Lt => "`<`",
            Tok::Le => "`<=`",
            Tok::Gt => "`>`",
            Tok::Ge => "`>=`",
            Tok::EqEq => "`==`",
            Tok::Ne => "`!=`",
            Tok::Not => "`!`",
            Tok::AndAnd => "`&&`",
            Tok::OrOr => "`||`",
            Tok::Eof => "end of input",
        };
        f.write_str(s)
    }
}

struct Lexer<'s> {
    src: &'s [u8],
    pos: usize,
    line: usize,
    col: usize,
}

#[derive(Debug, Clone, Copy)]
struct Loc {
    line: usize,
    col: usize,
}

impl Loc {
    fn error(self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            line: self.line,
            col: self.col,
        }
    }
}

impl<'s> Lexer<'s> {
    fn new(src: &'s str) -> Lexer<'s> {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        Loc {
            line: self.line,
            col: self.col,
        }
        .error(message)
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.src.get(self.pos).copied()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(c) = self.bump() {
                        if c == b'\n' {
                            break;
                        }
                    }
                }
                _ => return,
            }
        }
    }

    fn tokenize(mut self) -> Result<Vec<(Tok, Loc)>, ParseError> {
        let mut out = Vec::new();
        loop {
            self.skip_trivia();
            let loc = Loc {
                line: self.line,
                col: self.col,
            };
            let Some(c) = self.peek() else {
                out.push((Tok::Eof, loc));
                return Ok(out);
            };
            let tok = match c {
                b'(' => {
                    self.bump();
                    Tok::LParen
                }
                b')' => {
                    self.bump();
                    Tok::RParen
                }
                b'{' => {
                    self.bump();
                    Tok::LBrace
                }
                b'}' => {
                    self.bump();
                    Tok::RBrace
                }
                b',' => {
                    self.bump();
                    Tok::Comma
                }
                b';' => {
                    self.bump();
                    Tok::Semi
                }
                b'@' => {
                    self.bump();
                    Tok::At
                }
                b'+' => {
                    self.bump();
                    Tok::Plus
                }
                b'-' => {
                    self.bump();
                    Tok::Minus
                }
                b'*' => {
                    self.bump();
                    Tok::Star
                }
                b':' => {
                    self.bump();
                    if self.peek() == Some(b'=') {
                        self.bump();
                        Tok::Assign
                    } else {
                        return Err(self.err("expected `:=`"));
                    }
                }
                b'<' => {
                    self.bump();
                    if self.peek() == Some(b'=') {
                        self.bump();
                        Tok::Le
                    } else {
                        Tok::Lt
                    }
                }
                b'>' => {
                    self.bump();
                    if self.peek() == Some(b'=') {
                        self.bump();
                        Tok::Ge
                    } else {
                        Tok::Gt
                    }
                }
                b'=' => {
                    self.bump();
                    if self.peek() == Some(b'=') {
                        self.bump();
                        Tok::EqEq
                    } else {
                        Tok::Eq
                    }
                }
                b'!' => {
                    self.bump();
                    if self.peek() == Some(b'=') {
                        self.bump();
                        Tok::Ne
                    } else {
                        Tok::Not
                    }
                }
                b'&' => {
                    self.bump();
                    if self.peek() == Some(b'&') {
                        self.bump();
                        Tok::AndAnd
                    } else {
                        return Err(self.err("expected `&&`"));
                    }
                }
                b'|' => {
                    self.bump();
                    if self.peek() == Some(b'|') {
                        self.bump();
                        Tok::OrOr
                    } else {
                        return Err(self.err("expected `||`"));
                    }
                }
                b'0'..=b'9' => {
                    let mut n: u64 = 0;
                    while let Some(d @ b'0'..=b'9') = self.peek() {
                        n = n
                            .checked_mul(10)
                            .and_then(|n| n.checked_add(u64::from(d - b'0')))
                            .ok_or_else(|| self.err("integer literal overflows i64"))?;
                        self.bump();
                    }
                    Tok::Num(n)
                }
                c if c.is_ascii_alphabetic() || c == b'_' => {
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c.is_ascii_alphanumeric() || c == b'_' {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    let word = std::str::from_utf8(&self.src[start..self.pos])
                        .expect("ASCII slice is valid UTF-8");
                    match word {
                        "program" => Tok::KwProgram,
                        "skip" => Tok::KwSkip,
                        "if" => Tok::KwIf,
                        "else" => Tok::KwElse,
                        "while" => Tok::KwWhile,
                        "notify" => Tok::KwNotify,
                        "true" => Tok::KwTrue,
                        "false" => Tok::KwFalse,
                        _ => Tok::Ident(word.to_owned()),
                    }
                }
                _ => {
                    // Every branch above consumes ASCII only, so `pos` is
                    // on a character boundary of the source string.
                    let c = std::str::from_utf8(&self.src[self.pos..])
                        .ok()
                        .and_then(|rest| rest.chars().next())
                        .unwrap_or(char::REPLACEMENT_CHARACTER);
                    return Err(self.err(format!("unexpected character `{c}`")));
                }
            };
            out.push((tok, loc));
        }
    }
}

struct Parser<'a> {
    toks: Vec<(Tok, Loc)>,
    pos: usize,
    interner: &'a mut Interner,
}

impl<'a> Parser<'a> {
    fn new(src: &str, interner: &'a mut Interner) -> Result<Parser<'a>, ParseError> {
        Ok(Parser {
            toks: Lexer::new(src).tokenize()?,
            pos: 0,
            interner,
        })
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos].0
    }

    fn loc(&self) -> Loc {
        self.toks[self.pos].1
    }

    fn err_here(&self, message: impl Into<String>) -> ParseError {
        self.loc().error(message)
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].0.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> Result<(), ParseError> {
        if self.peek() == t {
            self.bump();
            Ok(())
        } else {
            Err(self.err_here(format!("expected {t}, found {}", self.peek())))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(self.err_here(format!("expected identifier, found {other}"))),
        }
    }

    /// Whether the next token is the identifier `word` (a contextual keyword).
    fn at_word(&self, word: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == word)
    }

    fn word(&mut self, word: &str) -> Result<(), ParseError> {
        if self.at_word(word) {
            self.bump();
            Ok(())
        } else {
            Err(self.err_here(format!("expected `{word}`, found {}", self.peek())))
        }
    }

    fn magnitude(&mut self) -> Result<u64, ParseError> {
        match self.bump() {
            Tok::Num(n) => Ok(n),
            other => Err(self.err_here(format!("expected number, found {other}"))),
        }
    }

    /// An integer literal: a magnitude, negated by a leading `-`.
    fn number(&mut self) -> Result<i64, ParseError> {
        let loc = self.loc();
        let negate = *self.peek() == Tok::Minus;
        if negate {
            self.bump();
        }
        let m = self.magnitude()?;
        let n = if negate {
            0i64.checked_sub_unsigned(m)
        } else {
            i64::try_from(m).ok()
        };
        n.ok_or_else(|| loc.error("integer literal overflows i64"))
    }

    /// `@n` after a program or aggregate name, or in `notify`; `@0` when
    /// absent.
    fn prog_id(&mut self, what: &str) -> Result<ProgId, ParseError> {
        if *self.peek() != Tok::At {
            return Ok(ProgId(0));
        }
        self.bump();
        let loc = self.loc();
        let n = self.magnitude()?;
        u32::try_from(n)
            .map(ProgId)
            .map_err(|_| loc.error(format!("{what} id out of range")))
    }

    /// `name [@id] (params)`, the header programs and aggregates share.
    fn header(&mut self, what: &str) -> Result<(ProgId, Vec<Symbol>), ParseError> {
        let _name = self.ident()?;
        let id = self.prog_id(what)?;
        self.eat(&Tok::LParen)?;
        let mut params = Vec::new();
        if *self.peek() != Tok::RParen {
            loop {
                let p = self.ident()?;
                params.push(self.interner.intern(&p));
                if *self.peek() == Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.eat(&Tok::RParen)?;
        Ok((id, params))
    }

    fn program(&mut self) -> Result<Program, ParseError> {
        self.eat(&Tok::KwProgram)?;
        let (id, params) = self.header("program")?;
        let body = self.block(id)?;
        Ok(Program::new(id, params, body))
    }

    /// One `aggregate` definition, before [`AggDef::validate`].
    fn aggregate(&mut self) -> Result<AggDef, ParseError> {
        self.word("aggregate")?;
        let (id, params) = self.header("aggregate")?;
        self.eat(&Tok::LBrace)?;
        let mut state = Vec::new();
        while self.at_word("state") {
            self.bump();
            let name = self.ident()?;
            self.eat(&Tok::Eq)?;
            let init = self.number()?;
            self.eat(&Tok::Semi)?;
            state.push(StateSlot {
                name: self.interner.intern(&name),
                init,
                rhs: self.interner.intern(&format!("rhs_{name}")),
            });
        }
        self.word("fold")?;
        let fold = self.block(id)?;
        self.word("merge")?;
        let merge = self.block(id)?;
        self.eat(&Tok::RBrace)?;
        Ok(AggDef {
            id,
            params,
            state,
            fold,
            merge,
        })
    }

    /// One aggregate, validated; only syntax errors carry a location.
    fn valid_aggregate(&mut self) -> Result<AggDef, String> {
        let def = self.aggregate().map_err(|e| e.to_string())?;
        def.validate(self.interner).map_err(|e| e.to_string())?;
        Ok(def)
    }

    fn block(&mut self, ctx: ProgId) -> Result<Stmt, ParseError> {
        self.eat(&Tok::LBrace)?;
        let mut stmts = Vec::new();
        while *self.peek() != Tok::RBrace {
            stmts.push(self.stmt(ctx)?);
        }
        self.eat(&Tok::RBrace)?;
        Ok(Stmt::seq_all(stmts))
    }

    fn stmt(&mut self, ctx: ProgId) -> Result<Stmt, ParseError> {
        match self.peek().clone() {
            Tok::KwSkip => {
                self.bump();
                self.eat(&Tok::Semi)?;
                Ok(Stmt::Skip)
            }
            Tok::KwIf => {
                self.bump();
                self.eat(&Tok::LParen)?;
                let cond = self.bool_expr()?;
                self.eat(&Tok::RParen)?;
                let then_s = self.block(ctx)?;
                let else_s = if *self.peek() == Tok::KwElse {
                    self.bump();
                    self.block(ctx)?
                } else {
                    Stmt::Skip
                };
                Ok(Stmt::ite(cond, then_s, else_s))
            }
            Tok::KwWhile => {
                self.bump();
                self.eat(&Tok::LParen)?;
                let cond = self.bool_expr()?;
                self.eat(&Tok::RParen)?;
                let body = self.block(ctx)?;
                Ok(Stmt::while_do(cond, body))
            }
            Tok::KwNotify => {
                self.bump();
                let id = if *self.peek() == Tok::At {
                    self.prog_id("notify")?
                } else {
                    ctx
                };
                let b = match self.bump() {
                    Tok::KwTrue => true,
                    Tok::KwFalse => false,
                    other => {
                        return Err(self.err_here(format!(
                            "expected `true` or `false` after `notify`, found {other}"
                        )))
                    }
                };
                self.eat(&Tok::Semi)?;
                Ok(Stmt::Notify(id, b))
            }
            Tok::Ident(name) => {
                self.bump();
                self.eat(&Tok::Assign)?;
                let e = self.int_expr()?;
                self.eat(&Tok::Semi)?;
                Ok(Stmt::Assign(self.interner.intern(&name), e))
            }
            other => Err(self.err_here(format!("expected statement, found {other}"))),
        }
    }

    fn int_expr(&mut self) -> Result<IntExpr, ParseError> {
        let mut lhs = self.int_term()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => IntOp::Add,
                Tok::Minus => IntOp::Sub,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.int_term()?;
            lhs = IntExpr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn int_term(&mut self) -> Result<IntExpr, ParseError> {
        let mut lhs = self.int_atom()?;
        while *self.peek() == Tok::Star {
            self.bump();
            let rhs = self.int_atom()?;
            lhs = IntExpr::Bin(IntOp::Mul, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn int_atom(&mut self) -> Result<IntExpr, ParseError> {
        match self.peek().clone() {
            Tok::Num(_) | Tok::Minus => Ok(IntExpr::Const(self.number()?)),
            Tok::LParen => {
                self.bump();
                let e = self.int_expr()?;
                self.eat(&Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(name) => {
                self.bump();
                if *self.peek() == Tok::LParen {
                    self.bump();
                    let mut args = Vec::new();
                    if *self.peek() != Tok::RParen {
                        loop {
                            args.push(self.int_expr()?);
                            if *self.peek() == Tok::Comma {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                    }
                    self.eat(&Tok::RParen)?;
                    Ok(IntExpr::Call(self.interner.intern(&name), args))
                } else {
                    Ok(IntExpr::Var(self.interner.intern(&name)))
                }
            }
            other => Err(self.err_here(format!("expected integer expression, found {other}"))),
        }
    }

    fn bool_expr(&mut self) -> Result<BoolExpr, ParseError> {
        let mut lhs = self.bool_and()?;
        while *self.peek() == Tok::OrOr {
            self.bump();
            let rhs = self.bool_and()?;
            lhs = BoolExpr::Bin(BoolOp::Or, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn bool_and(&mut self) -> Result<BoolExpr, ParseError> {
        let mut lhs = self.bool_unary()?;
        while *self.peek() == Tok::AndAnd {
            self.bump();
            let rhs = self.bool_unary()?;
            lhs = BoolExpr::Bin(BoolOp::And, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn bool_unary(&mut self) -> Result<BoolExpr, ParseError> {
        if *self.peek() == Tok::Not {
            self.bump();
            return Ok(BoolExpr::not(self.bool_unary()?));
        }
        self.bool_atom()
    }

    /// Parses `true`, `false`, a comparison, or a parenthesized boolean
    /// expression. `(` is ambiguous between grouping of integer and boolean
    /// expressions, so we backtrack on the token index.
    fn bool_atom(&mut self) -> Result<BoolExpr, ParseError> {
        match self.peek() {
            Tok::KwTrue => {
                self.bump();
                return Ok(BoolExpr::Const(true));
            }
            Tok::KwFalse => {
                self.bump();
                return Ok(BoolExpr::Const(false));
            }
            _ => {}
        }
        let save = self.pos;
        // Try a comparison first: `IE ▷ IE`.
        if let Ok(lhs) = self.int_expr() {
            let tok = self.peek().clone();
            let cmp = match tok {
                Tok::Lt => Some((CmpOp::Lt, false, false)),
                Tok::Le => Some((CmpOp::Le, false, false)),
                Tok::Gt => Some((CmpOp::Lt, true, false)),
                Tok::Ge => Some((CmpOp::Le, true, false)),
                Tok::EqEq => Some((CmpOp::Eq, false, false)),
                Tok::Ne => Some((CmpOp::Eq, false, true)),
                _ => None,
            };
            if let Some((op, swap, negate)) = cmp {
                self.bump();
                let rhs = self.int_expr()?;
                let (a, b) = if swap { (rhs, lhs) } else { (lhs, rhs) };
                let c = BoolExpr::Cmp(op, a, b);
                return Ok(if negate { BoolExpr::not(c) } else { c });
            }
        }
        // Backtrack: parenthesized boolean expression.
        self.pos = save;
        if *self.peek() == Tok::LParen {
            self.bump();
            let e = self.bool_expr()?;
            self.eat(&Tok::RParen)?;
            return Ok(e);
        }
        Err(self.err_here(format!(
            "expected boolean expression, found {}",
            self.peek()
        )))
    }
}

/// Parses a single `program … { … }` definition.
///
/// # Errors
///
/// Returns a [`ParseError`] with location information on malformed input.
pub fn parse_program(src: &str, interner: &mut Interner) -> Result<Program, ParseError> {
    let mut p = Parser::new(src, interner)?;
    let prog = p.program()?;
    p.eat(&Tok::Eof)?;
    Ok(prog)
}

/// Parses a source file containing any number of `program` definitions.
///
/// # Errors
///
/// Returns a [`ParseError`] with location information on malformed input.
pub fn parse_programs(src: &str, interner: &mut Interner) -> Result<Vec<Program>, ParseError> {
    let mut p = Parser::new(src, interner)?;
    let mut out = Vec::new();
    while *p.peek() != Tok::Eof {
        out.push(p.program()?);
    }
    Ok(out)
}

/// Parses one `aggregate … { … }` definition (syntax in the module docs)
/// and validates it with [`AggDef::validate`].
///
/// # Errors
///
/// Returns the first syntax error, with its line and column, or the first
/// validation error.
pub fn parse_agg(src: &str, interner: &mut Interner) -> Result<AggDef, String> {
    let mut p = Parser::new(src, interner).map_err(|e| e.to_string())?;
    let def = p.valid_aggregate()?;
    p.eat(&Tok::Eof).map_err(|e| e.to_string())?;
    Ok(def)
}

/// Parses any number of `aggregate` definitions.
///
/// # Errors
///
/// As [`parse_agg`], for the first definition with an error.
pub fn parse_aggs(src: &str, interner: &mut Interner) -> Result<Vec<AggDef>, String> {
    let mut p = Parser::new(src, interner).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    while *p.peek() != Tok::Eof {
        out.push(p.valid_aggregate()?);
    }
    Ok(out)
}

/// Parses a standalone boolean expression (used by tests and the
/// consolidation REPL-style examples).
///
/// # Errors
///
/// Returns a [`ParseError`] with location information on malformed input.
pub fn parse_bool_expr(src: &str, interner: &mut Interner) -> Result<BoolExpr, ParseError> {
    let mut p = Parser::new(src, interner)?;
    let e = p.bool_expr()?;
    p.eat(&Tok::Eof)?;
    Ok(e)
}

/// Parses a standalone integer expression.
///
/// # Errors
///
/// Returns a [`ParseError`] with location information on malformed input.
pub fn parse_int_expr(src: &str, interner: &mut Interner) -> Result<IntExpr, ParseError> {
    let mut p = Parser::new(src, interner)?;
    let e = p.int_expr()?;
    p.eat(&Tok::Eof)?;
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BoolExpr, CmpOp, IntExpr, ProgId, Stmt};

    #[test]
    fn parses_paper_example_shape() {
        let mut i = Interner::new();
        let p = parse_program(
            "program f2 @2 (price, airline) {
                 // filter cheap united flights
                 if (price >= 200) { notify false; }
                 else {
                     if (toLower(airline) == 42) { notify true; } else { notify false; }
                 }
             }",
            &mut i,
        )
        .unwrap();
        assert_eq!(p.id, ProgId(2));
        assert_eq!(p.params.len(), 2);
        // `price >= 200` desugars to `200 <= price`.
        let Stmt::If(cond, ..) = &p.body else {
            panic!("expected if, got {:?}", p.body)
        };
        assert_eq!(
            *cond,
            BoolExpr::Cmp(
                CmpOp::Le,
                IntExpr::Const(200),
                IntExpr::Var(i.get("price").unwrap())
            )
        );
    }

    #[test]
    fn notify_defaults_to_program_id() {
        let mut i = Interner::new();
        let p = parse_program("program g @5 () { notify true; }", &mut i).unwrap();
        assert_eq!(p.body, Stmt::Notify(ProgId(5), true));
    }

    #[test]
    fn notify_with_explicit_id() {
        let mut i = Interner::new();
        let p = parse_program("program g @5 () { notify @7 false; }", &mut i).unwrap();
        assert_eq!(p.body, Stmt::Notify(ProgId(7), false));
    }

    #[test]
    fn precedence_mul_over_add() {
        let mut i = Interner::new();
        let e = parse_int_expr("1 + 2 * 3", &mut i).unwrap();
        assert_eq!(
            e,
            IntExpr::add(
                IntExpr::Const(1),
                IntExpr::mul(IntExpr::Const(2), IntExpr::Const(3))
            )
        );
    }

    #[test]
    fn precedence_and_over_or() {
        let mut i = Interner::new();
        let e = parse_bool_expr("x < 1 || y < 2 && z < 3", &mut i).unwrap();
        let BoolExpr::Bin(crate::ast::BoolOp::Or, _, rhs) = e else {
            panic!("expected top-level ||")
        };
        assert!(matches!(*rhs, BoolExpr::Bin(crate::ast::BoolOp::And, ..)));
    }

    #[test]
    fn parenthesized_bool_vs_int() {
        let mut i = Interner::new();
        let e1 = parse_bool_expr("(x + 1) < 2", &mut i).unwrap();
        assert!(matches!(e1, BoolExpr::Cmp(CmpOp::Lt, ..)));
        let e2 = parse_bool_expr("(x < 1) && true", &mut i).unwrap();
        assert!(matches!(e2, BoolExpr::Bin(..)));
        let e3 = parse_bool_expr("!(x == y)", &mut i).unwrap();
        assert!(matches!(e3, BoolExpr::Not(_)));
    }

    #[test]
    fn ne_desugars_to_negated_eq() {
        let mut i = Interner::new();
        let e = parse_bool_expr("x != 3", &mut i).unwrap();
        let BoolExpr::Not(inner) = e else { panic!() };
        assert!(matches!(*inner, BoolExpr::Cmp(CmpOp::Eq, ..)));
    }

    #[test]
    fn gt_swaps_operands() {
        let mut i = Interner::new();
        let e = parse_bool_expr("x > 3", &mut i).unwrap();
        assert_eq!(
            e,
            BoolExpr::Cmp(
                CmpOp::Lt,
                IntExpr::Const(3),
                IntExpr::Var(i.get("x").unwrap())
            )
        );
    }

    #[test]
    fn calls_and_nested_args() {
        let mut i = Interner::new();
        let e = parse_int_expr("f(g(x), y + 1, 3)", &mut i).unwrap();
        let IntExpr::Call(f, args) = e else { panic!() };
        assert_eq!(i.resolve(f), "f");
        assert_eq!(args.len(), 3);
        assert!(matches!(args[0], IntExpr::Call(..)));
    }

    #[test]
    fn multiple_programs_in_one_source() {
        let mut i = Interner::new();
        let ps = parse_programs(
            "program a @0 (x) { notify true; } program b @1 (x) { notify false; }",
            &mut i,
        )
        .unwrap();
        assert_eq!(ps.len(), 2);
        assert_eq!(ps[0].id, ProgId(0));
        assert_eq!(ps[1].id, ProgId(1));
    }

    #[test]
    fn error_reports_location() {
        let mut i = Interner::new();
        let err = parse_program("program a @0 (x) {\n  y = 3;\n}", &mut i).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains(":="));
    }

    #[test]
    fn negative_literals() {
        let mut i = Interner::new();
        let e = parse_int_expr("-5 + x", &mut i).unwrap();
        assert!(matches!(e, IntExpr::Bin(IntOp::Add, ..)));
        let p = parse_bool_expr("x < -1", &mut i).unwrap();
        assert_eq!(
            p,
            BoolExpr::Cmp(
                CmpOp::Lt,
                IntExpr::Var(i.get("x").unwrap()),
                IntExpr::Const(-1)
            )
        );
    }

    #[test]
    fn i64_min_is_a_literal_and_round_trips() {
        let mut i = Interner::new();
        let e = parse_int_expr("-9223372036854775808", &mut i).unwrap();
        assert_eq!(e, IntExpr::Const(i64::MIN));
        let p = Program::new(
            ProgId(0),
            Vec::new(),
            Stmt::Assign(i.intern("x"), IntExpr::Const(i64::MIN)),
        );
        let printed = crate::pretty::program(&p, &i);
        assert_eq!(parse_program(&printed, &mut i).unwrap(), p);
        let err = parse_int_expr("9223372036854775808", &mut i).unwrap_err();
        assert!(err.message.contains("overflows"), "{err}");
        assert_eq!((err.line, err.col), (1, 1));
        let err = parse_int_expr("x - 99999999999999999999", &mut i).unwrap_err();
        assert!(err.message.contains("overflows"), "{err}");
    }

    #[test]
    fn aggregate_syntax_errors_name_line_and_column() {
        let cases = [
            (
                "aggregate a @1 (x) {\n  state s = 0;\n  fold { s := s + x; }\n  merge { s := s + rhs_s;\n}",
                "5:2",
            ),
            (
                "aggregate a @1 (x) {\n  state s 0;\n  fold { s := x; } merge { s := rhs_s; } }",
                "2:11",
            ),
            (
                "aggregate a @1 (x) { state s = 0; fold { s := x; } merge { s := rhs_s; } }\nskip;",
                "2:1",
            ),
            (
                "aggregate a @1 (x, \u{e9}t\u{e9}) { state s = 0; fold { s := x; } merge { s := rhs_s; } }",
                "1:20",
            ),
        ];
        for (src, at) in cases {
            let mut i = Interner::new();
            let err = parse_agg(src, &mut i).unwrap_err();
            assert!(
                err.starts_with(&format!("parse error at {at}: ")),
                "{src:?}: {err}"
            );
        }
        let mut i = Interner::new();
        let err = parse_agg("aggregate \u{e9} () {}", &mut i).unwrap_err();
        assert_eq!(err, "parse error at 1:11: unexpected character `\u{e9}`");
    }

    #[test]
    fn aggregate_keywords_stay_identifiers_elsewhere() {
        let mut i = Interner::new();
        let p = parse_program(
            "program p @0 (state) { fold := state; merge := fold; notify true; }",
            &mut i,
        )
        .unwrap();
        assert_eq!(p.params, vec![i.get("state").unwrap()]);
        let d = parse_agg(
            "aggregate a @2 (fold) { state s = -9223372036854775808; state t = 7;
                fold { s := s + fold; } merge { s := s + rhs_s; t := t + rhs_t; } }",
            &mut i,
        )
        .unwrap();
        assert_eq!(d.id, ProgId(2));
        assert_eq!(d.init_state(), vec![i64::MIN, 7]);
    }

    #[test]
    fn while_and_skip_statements() {
        let mut i = Interner::new();
        let p = parse_program(
            "program w @0 (n) { i := n; while (i > 0) { i := i - 1; skip; } }",
            &mut i,
        )
        .unwrap();
        let (_, tl) = p.body.split_head();
        assert!(matches!(tl, Stmt::While(..)));
    }

    #[test]
    fn comments_are_skipped() {
        let mut i = Interner::new();
        let p = parse_program(
            "// header comment\nprogram c @0 () { // inline\n skip; }",
            &mut i,
        )
        .unwrap();
        assert_eq!(p.body, Stmt::Skip);
    }
}

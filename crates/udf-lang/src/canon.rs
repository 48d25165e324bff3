//! Canonicalization: alpha-renaming to De Bruijn-style indices and stable
//! 128-bit structural hashing.
//!
//! Consolidation is pure static analysis: Ω over the same UDF pair always
//! produces the same program, so a plan cache can key consolidated outputs
//! on the *structure* of the inputs. Two programs that differ only in the
//! names of their local variables — `f(x){y:=x+1}` and `f(a){b:=a+1}` — must
//! key identically, while a single changed operator or constant must key
//! differently.
//!
//! The canonical form maps every variable to a De Bruijn-style index:
//! parameters take their declaration position, locals take first-occurrence
//! order during a fixed left-to-right traversal. Library-function names and
//! notification ids are *not* renamed (they are semantic, not binders), and
//! neither are constants or operators. `canonical_text` (a test helper)
//! renders that form as a readable S-expression; [`program_hash`] / [`set_key`] hash the same
//! byte stream with a 128-bit FNV-1a, so the keys are stable across
//! processes (a requirement for warm-start snapshots).

use crate::ast::{BoolExpr, IntExpr, Program, Stmt};
use crate::intern::{Interner, Symbol};
use std::collections::HashMap;

/// 128-bit FNV-1a offset basis.
const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// 128-bit FNV-1a prime.
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

/// Incremental 128-bit FNV-1a hasher over a canonical byte stream.
#[derive(Clone, Copy, Debug)]
pub struct Fnv128(u128);

impl Default for Fnv128 {
    fn default() -> Fnv128 {
        Fnv128::new()
    }
}

impl Fnv128 {
    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv128 {
        Fnv128(FNV_OFFSET)
    }

    /// Feeds one byte.
    #[inline]
    pub fn byte(&mut self, b: u8) {
        self.0 ^= u128::from(b);
        self.0 = self.0.wrapping_mul(FNV_PRIME);
    }

    /// Feeds a byte slice.
    pub(crate) fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.byte(b);
        }
    }

    /// Feeds a string, length-prefixed so adjacent strings cannot alias.
    pub(crate) fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Feeds a `u64` little-endian.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Feeds an `i64` little-endian.
    pub(crate) fn i64(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Feeds another 128-bit hash value.
    pub fn u128(&mut self, v: u128) {
        self.bytes(&v.to_le_bytes());
    }

    /// Final hash value.
    pub fn finish(self) -> u128 {
        self.0
    }
}

/// Incremental 64-bit FNV-1a hasher: the workspace's one FNV-1a 64. It is
/// the checksum of every durable record (`udf_serve::framing`) and the
/// output digest of engine and service runs (`naiad_lite::digest`).
///
/// Feeding the words of a byte string one at a time gives the same digest
/// as feeding their concatenated `to_le_bytes` at once.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A hasher at the FNV-1a 64 offset basis.
    #[must_use]
    pub fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Folds one word into the digest, little-endian byte order.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a byte string into the digest.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

/// Node tags of the canonical stream. Every tag is followed by a fixed
/// number of operands (variable-length children are length-prefixed), so the
/// stream is prefix-free and structurally unambiguous.
#[derive(Clone, Copy)]
enum Tag {
    IntConst = 1,
    Var = 2,
    Call = 3,
    Add = 4,
    Sub = 5,
    Mul = 6,
    BoolConst = 7,
    Lt = 8,
    Eq = 9,
    Le = 10,
    Not = 11,
    And = 12,
    Or = 13,
    Skip = 14,
    Assign = 15,
    Seq = 16,
    If = 17,
    While = 18,
    Notify = 19,
    Program = 20,
}

/// One canonicalization pass: the De Bruijn variable numbering plus the two
/// synchronized sinks (hash always, text only when requested).
struct Canon<'i> {
    interner: &'i Interner,
    vars: HashMap<Symbol, u64>,
    hash: Fnv128,
    text: Option<String>,
}

impl<'i> Canon<'i> {
    fn new(interner: &'i Interner, with_text: bool) -> Canon<'i> {
        Canon {
            interner,
            vars: HashMap::new(),
            hash: Fnv128::new(),
            text: with_text.then(String::new),
        }
    }

    /// De Bruijn-style index of `v`: first occurrence order (parameters are
    /// pre-seeded with their declaration positions).
    fn var_index(&mut self, v: Symbol) -> u64 {
        let next = self.vars.len() as u64;
        *self.vars.entry(v).or_insert(next)
    }

    fn tag(&mut self, t: Tag, label: &str) {
        self.hash.byte(t as u8);
        if let Some(s) = &mut self.text {
            if !s.is_empty() && !s.ends_with('(') {
                s.push(' ');
            }
            s.push('(');
            s.push_str(label);
        }
    }

    fn close(&mut self) {
        if let Some(s) = &mut self.text {
            s.push(')');
        }
    }

    fn atom(&mut self, a: impl std::fmt::Display) {
        if let Some(s) = &mut self.text {
            use std::fmt::Write as _;
            let _ = write!(s, " {a}");
        }
    }

    fn int_expr(&mut self, e: &IntExpr) {
        match e {
            IntExpr::Const(c) => {
                self.tag(Tag::IntConst, "int");
                self.hash.i64(*c);
                self.atom(c);
                self.close();
            }
            IntExpr::Var(v) => {
                let idx = self.var_index(*v);
                self.tag(Tag::Var, "v");
                self.hash.u64(idx);
                self.atom(idx);
                self.close();
            }
            IntExpr::Call(f, args) => {
                self.tag(Tag::Call, "call");
                let name = self.interner.resolve(*f).to_owned();
                self.hash.str(&name);
                self.hash.u64(args.len() as u64);
                self.atom(&name);
                for a in args {
                    self.int_expr(a);
                }
                self.close();
            }
            IntExpr::Bin(op, a, b) => {
                let (tag, label) = match op {
                    crate::ast::IntOp::Add => (Tag::Add, "+"),
                    crate::ast::IntOp::Sub => (Tag::Sub, "-"),
                    crate::ast::IntOp::Mul => (Tag::Mul, "*"),
                };
                self.tag(tag, label);
                self.int_expr(a);
                self.int_expr(b);
                self.close();
            }
        }
    }

    fn bool_expr(&mut self, e: &BoolExpr) {
        match e {
            BoolExpr::Const(b) => {
                self.tag(Tag::BoolConst, "bool");
                self.hash.byte(u8::from(*b));
                self.atom(b);
                self.close();
            }
            BoolExpr::Cmp(op, a, b) => {
                let (tag, label) = match op {
                    crate::ast::CmpOp::Lt => (Tag::Lt, "<"),
                    crate::ast::CmpOp::Eq => (Tag::Eq, "=="),
                    crate::ast::CmpOp::Le => (Tag::Le, "<="),
                };
                self.tag(tag, label);
                self.int_expr(a);
                self.int_expr(b);
                self.close();
            }
            BoolExpr::Not(a) => {
                self.tag(Tag::Not, "!");
                self.bool_expr(a);
                self.close();
            }
            BoolExpr::Bin(op, a, b) => {
                let (tag, label) = match op {
                    crate::ast::BoolOp::And => (Tag::And, "&&"),
                    crate::ast::BoolOp::Or => (Tag::Or, "||"),
                };
                self.tag(tag, label);
                self.bool_expr(a);
                self.bool_expr(b);
                self.close();
            }
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Skip => {
                self.tag(Tag::Skip, "skip");
                self.close();
            }
            Stmt::Assign(x, e) => {
                // Right-hand side first: `x := x + 1` must number the *read*
                // of `x` before (re)binding it, matching evaluation order.
                self.tag(Tag::Assign, ":=");
                self.int_expr(e);
                let idx = self.var_index(*x);
                self.hash.u64(idx);
                self.atom(idx);
                self.close();
            }
            Stmt::Seq(a, b) => {
                self.tag(Tag::Seq, "seq");
                self.stmt(a);
                self.stmt(b);
                self.close();
            }
            Stmt::If(c, a, b) => {
                self.tag(Tag::If, "if");
                self.bool_expr(c);
                self.stmt(a);
                self.stmt(b);
                self.close();
            }
            Stmt::While(c, b) => {
                self.tag(Tag::While, "while");
                self.bool_expr(c);
                self.stmt(b);
                self.close();
            }
            Stmt::Notify(id, b) => {
                self.tag(Tag::Notify, "notify");
                self.hash.u64(u64::from(id.0));
                self.hash.byte(u8::from(*b));
                self.atom(id.0);
                self.atom(b);
                self.close();
            }
        }
    }

    fn program(&mut self, p: &Program) {
        self.tag(Tag::Program, "program");
        self.hash.u64(u64::from(p.id.0));
        self.hash.u64(p.params.len() as u64);
        self.atom(p.id.0);
        self.atom(p.params.len());
        for &param in &p.params {
            // Parameters take their declaration position; their names vanish.
            self.var_index(param);
        }
        self.stmt(&p.body);
        self.close();
    }
}

/// Stable 128-bit structural hash of one program. Alpha-equivalent programs
/// (same structure up to variable renaming) hash identically.
pub fn program_hash(p: &Program, interner: &Interner) -> u128 {
    let mut c = Canon::new(interner, false);
    c.program(p);
    c.hash.finish()
}

/// Stable 128-bit key for an *ordered* set of programs: the hash of the
/// sequence of per-program canonical streams. This is the plan-cache key
/// basis for `consolidate_many` inputs.
pub fn set_key(programs: &[Program], interner: &Interner) -> u128 {
    let mut h = Fnv128::new();
    h.u64(programs.len() as u64);
    for p in programs {
        h.u128(program_hash(p, interner));
    }
    h.finish()
}

/// Canonical S-expression rendering of a program with De Bruijn variable
/// indices — the human-readable counterpart of [`program_hash`]. Two
/// programs produce identical text iff they are alpha-equivalent (same
/// structure, function names, constants, and notification ids).
#[cfg(test)]
pub(crate) fn canonical_text(p: &Program, interner: &Interner) -> String {
    let mut c = Canon::new(interner, true);
    c.program(p);
    c.text.expect("text sink was requested")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_program;

    fn parse(src: &str, i: &mut Interner) -> Program {
        parse_program(src, i).expect("test program parses")
    }

    #[test]
    fn alpha_equivalent_programs_hash_identically() {
        let mut i = Interner::new();
        let p = parse("program f @1 (x) { y := x + 1; notify true; }", &mut i);
        let q = parse("program f @1 (a) { b := a + 1; notify true; }", &mut i);
        assert_eq!(program_hash(&p, &i), program_hash(&q, &i));
        assert_eq!(canonical_text(&p, &i), canonical_text(&q, &i));
    }

    #[test]
    fn operator_and_constant_changes_hash_differently() {
        let mut i = Interner::new();
        let p = parse("program f @1 (x) { y := x + 1; }", &mut i);
        let q = parse("program f @1 (x) { y := x - 1; }", &mut i);
        let r = parse("program f @1 (x) { y := x + 2; }", &mut i);
        assert_ne!(program_hash(&p, &i), program_hash(&q, &i));
        assert_ne!(program_hash(&p, &i), program_hash(&r, &i));
    }

    #[test]
    fn function_names_are_not_alpha_renamed() {
        let mut i = Interner::new();
        let p = parse("program f @1 (x) { y := g(x); }", &mut i);
        let q = parse("program f @1 (x) { y := h(x); }", &mut i);
        assert_ne!(program_hash(&p, &i), program_hash(&q, &i));
    }

    #[test]
    fn notify_ids_are_semantic() {
        let mut i = Interner::new();
        let p = parse("program f @1 (x) { notify @3 true; }", &mut i);
        let q = parse("program f @1 (x) { notify @4 true; }", &mut i);
        assert_ne!(program_hash(&p, &i), program_hash(&q, &i));
    }

    #[test]
    fn set_key_is_order_sensitive() {
        let mut i = Interner::new();
        let p = parse("program f @1 (x) { notify true; }", &mut i);
        let q = parse("program g @2 (x) { notify false; }", &mut i);
        let a = set_key(&[p.clone(), q.clone()], &i);
        let b = set_key(&[q, p], &i);
        assert_ne!(a, b);
    }

    #[test]
    fn assignment_reads_before_it_binds() {
        // In `y := x + 1`, the read of `x` is numbered before the bind of
        // `y`; a program reading an *unbound* fresh local in the same
        // position must not collide.
        let mut i = Interner::new();
        let p = parse("program f @1 (x) { y := x + 1; z := y; }", &mut i);
        let q = parse("program f @1 (x) { y := x + 1; z := x; }", &mut i);
        assert_ne!(program_hash(&p, &i), program_hash(&q, &i));
    }

    #[test]
    fn canonical_text_is_readable() {
        let mut i = Interner::new();
        let p = parse("program f @7 (x) { y := x + 1; }", &mut i);
        let t = canonical_text(&p, &i);
        assert_eq!(t, "(program 7 1 (:= (+ (v 0) (int 1)) 1))");
    }
}

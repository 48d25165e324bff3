//! Canonical 128-bit hashing of entailment queries, for cross-thread
//! memoization.
//!
//! `consolidate_many` runs its pair threads over *independent* [`Context`]s,
//! but consolidating structurally equal program pairs produces structurally
//! equal obligations `Ψ ⊨ φ` whose only difference is variable naming (SSA
//! versions like `u0$x%3@2` embed per-run fresh counters). The verdict of an
//! entailment is invariant under any injective renaming of the free
//! variables applied *jointly* to Ψ and φ, so a memo table may be keyed on a
//! canonical form that erases names: variables are numbered by first
//! occurrence in a fixed traversal of Ψ then φ, while function symbols keep
//! their (semantic) names and arities.
//!
//! The traversal walks the hash-consed DAG, not the tree it stands for:
//! every compound term and formula node is numbered at its first visit,
//! and a node met again is one back-reference to that number. A key
//! therefore costs the DAG's size — `sp` shares each φ-equation and guard
//! between both sides of every `if`, so the tree can be exponentially
//! larger. Leaves (constants, variables, ⊤, ⊥) are hashed in full each
//! time, as cheap as a back-reference, so a query with no shared compound
//! node hashes exactly as a tree walk would. Because contexts hash-cons
//! fully (equal structure is the same node), two queries equal up to
//! renaming meet the same nodes in the same order, and the stream of one
//! still determines its tree.
//!
//! The hash is a 128-bit FNV-1a over a prefix-free tagged byte stream —
//! deterministic across processes and independent of the arena ids in any
//! particular [`Context`]. Collisions are possible in principle (the table
//! maps hash → verdict without storing the formulas), but at 128 bits they
//! are negligible next to solver resource limits; a false hit would require
//! an FNV-128 collision between two canonical streams.

use crate::ctx::{Context, Formula, FormulaId, IdMap, Term, TermId, VarId};
use std::collections::hash_map::Entry;
use std::hash::Hash;

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

struct Hasher<'c, 'p> {
    ctx: &'c Context,
    /// The numbering a resumed walk continues: nodes and variables met
    /// before the point it resumes from.
    base: Option<&'p KeyPrefix>,
    /// First-visit numbers of the compound term and formula nodes seen so
    /// far (beyond `base`), and how many there are (`base`'s included).
    terms: IdMap<TermId, u64>,
    formulas: IdMap<FormulaId, u64>,
    nodes: u64,
    /// Each variable's canonical name: its rank by first occurrence.
    vars: IdMap<VarId, u64>,
    state: u128,
}

impl<'c, 'p> Hasher<'c, 'p> {
    fn new(ctx: &'c Context) -> Hasher<'c, 'p> {
        Hasher {
            ctx,
            base: None,
            terms: IdMap::default(),
            formulas: IdMap::default(),
            nodes: 0,
            vars: IdMap::default(),
            state: FNV_OFFSET,
        }
    }

    /// A hasher in the state `base` saved, with nothing of its own yet.
    fn resume(ctx: &'c Context, base: &'p KeyPrefix) -> Hasher<'c, 'p> {
        Hasher {
            ctx,
            base: Some(base),
            terms: IdMap::default(),
            formulas: IdMap::default(),
            nodes: base.nodes,
            vars: IdMap::default(),
            state: base.state,
        }
    }

    fn byte(&mut self, b: u8) {
        self.state ^= u128::from(b);
        self.state = self.state.wrapping_mul(FNV_PRIME);
    }

    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.byte(b);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// A back-reference to the node numbered `n`.
    fn back_ref(&mut self, tag: u8, n: u64) {
        self.byte(tag);
        self.u64(n);
    }

    fn var(&mut self, v: VarId) {
        let idx = match self.base.and_then(|b| b.vars.get(&v)) {
            Some(&idx) => idx,
            None => {
                let next = (self.base.map_or(0, |b| b.vars.len()) + self.vars.len()) as u64;
                *self.vars.entry(v).or_insert(next)
            }
        };
        self.byte(2);
        self.u64(idx);
    }

    fn term(&mut self, id: TermId) {
        let ctx = self.ctx;
        let term = ctx.term(id);
        if !matches!(term, Term::Int(_) | Term::Var(_)) {
            let base = self.base.and_then(|b| b.terms.get(&id));
            if let Some(n) = base
                .copied()
                .or_else(|| seen_before(&mut self.terms, &mut self.nodes, id))
            {
                return self.back_ref(15, n);
            }
        }
        match term {
            Term::Int(c) => {
                self.byte(1);
                self.bytes(&c.to_le_bytes());
            }
            Term::Var(v) => self.var(*v),
            Term::App(f, args) => {
                self.byte(3);
                // Function symbols are semantic: hash the resolved name, not
                // the per-context id.
                self.str(ctx.fn_name(*f));
                self.u64(args.len() as u64);
                for &a in args {
                    self.term(a);
                }
            }
            Term::Add(a, b) => {
                self.byte(4);
                self.term(*a);
                self.term(*b);
            }
            Term::Sub(a, b) => {
                self.byte(5);
                self.term(*a);
                self.term(*b);
            }
            Term::Mul(a, b) => {
                self.byte(6);
                self.term(*a);
                self.term(*b);
            }
        }
    }

    fn formula(&mut self, id: FormulaId) {
        let formula = self.ctx.formula(id);
        if !matches!(formula, Formula::True | Formula::False) {
            let base = self.base.and_then(|b| b.formulas.get(&id));
            if let Some(n) = base
                .copied()
                .or_else(|| seen_before(&mut self.formulas, &mut self.nodes, id))
            {
                return self.back_ref(16, n);
            }
        }
        match formula {
            Formula::True => self.byte(7),
            Formula::False => self.byte(8),
            Formula::Le(a, b) => {
                self.byte(9);
                self.term(*a);
                self.term(*b);
            }
            Formula::Lt(a, b) => {
                self.byte(10);
                self.term(*a);
                self.term(*b);
            }
            Formula::Eq(a, b) => {
                self.byte(11);
                self.term(*a);
                self.term(*b);
            }
            Formula::Not(f) => {
                self.byte(12);
                self.formula(*f);
            }
            Formula::And(a, b) => {
                self.byte(13);
                self.formula(*a);
                self.formula(*b);
            }
            Formula::Or(a, b) => {
                self.byte(14);
                self.formula(*a);
                self.formula(*b);
            }
        }
    }
}

/// The number `id` got at an earlier visit, or `None` after numbering it
/// `nodes` now.
fn seen_before<K: Eq + Hash>(seen: &mut IdMap<K, u64>, nodes: &mut u64, id: K) -> Option<u64> {
    match seen.entry(id) {
        Entry::Occupied(e) => Some(*e.get()),
        Entry::Vacant(e) => {
            e.insert(*nodes);
            *nodes += 1;
            None
        }
    }
}

/// Canonical key of the entailment query `psi ⊨ phi` inside `ctx`.
///
/// Two queries — possibly in different contexts — receive the same key
/// whenever they are identical up to a joint injective renaming of their
/// variables. The variable numbering is shared across both formulas (Ψ is
/// walked first), so cross-formula variable sharing is preserved: the key of
/// `x ≤ 3 ⊨ x ≤ 5` differs from the key of `x ≤ 3 ⊨ y ≤ 5`.
pub fn entailment_key(ctx: &Context, psi: FormulaId, phi: FormulaId) -> u128 {
    let mut h = Hasher::new(ctx);
    h.byte(b'E');
    h.formula(psi);
    h.byte(b'|');
    h.formula(phi);
    h.state
}

/// The key stream of [`entailment_key`] up to and including the `|` after
/// Ψ: its hash state and the numbers its nodes and variables got. Every
/// question asked under one Ψ starts with this stream, so a caller that
/// keeps it hashes only φ per question ([`entailment_key_from`]).
#[derive(Debug)]
pub struct KeyPrefix {
    terms: IdMap<TermId, u64>,
    formulas: IdMap<FormulaId, u64>,
    nodes: u64,
    vars: IdMap<VarId, u64>,
    state: u128,
}

/// The [`KeyPrefix`] of questions asked under `psi`.
pub fn entailment_prefix(ctx: &Context, psi: FormulaId) -> KeyPrefix {
    let mut h = Hasher::new(ctx);
    h.byte(b'E');
    h.formula(psi);
    h.byte(b'|');
    KeyPrefix {
        terms: h.terms,
        formulas: h.formulas,
        nodes: h.nodes,
        vars: h.vars,
        state: h.state,
    }
}

/// [`entailment_key`]`(ctx, psi, phi)` for the `psi` whose prefix is
/// `prefix`, hashing only `phi`: the walk of φ resumes with Ψ's nodes and
/// variables already numbered, so every byte after the prefix is the one
/// the one-shot walk writes.
pub fn entailment_key_from(ctx: &Context, prefix: &KeyPrefix, phi: FormulaId) -> u128 {
    let mut h = Hasher::resume(ctx, prefix);
    h.formula(phi);
    h.state
}

/// Canonical key of a single formula (fresh variable numbering).
#[cfg(test)]
pub(crate) fn formula_key(ctx: &Context, f: FormulaId) -> u128 {
    let mut h = Hasher::new(ctx);
    h.formula(f);
    h.state
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds `v ≤ k ∧ f(v) = w` over the given variable names.
    fn shape(ctx: &mut Context, v: &str, w: &str, k: i64) -> (FormulaId, FormulaId) {
        let x = ctx.int_var(v);
        let y = ctx.int_var(w);
        let kk = ctx.int(k);
        let f = ctx.fn_sym("f", 1);
        let fx = ctx.app(f, vec![x]);
        let le = ctx.le(x, kk);
        let eq = ctx.eq(fx, y);
        let psi = ctx.and(le, eq);
        let phi = ctx.le(y, kk);
        (psi, phi)
    }

    #[test]
    fn renamed_queries_share_a_key() {
        let mut c1 = Context::new();
        let (p1, q1) = shape(&mut c1, "u0$x%3@2", "u0$y%4@1", 10);
        let mut c2 = Context::new();
        // Different names, different declaration interleaving history.
        let _noise = c2.int_var("zzz");
        let (p2, q2) = shape(&mut c2, "u7$x%55@9", "u7$y%56@3", 10);
        assert_eq!(entailment_key(&c1, p1, q1), entailment_key(&c2, p2, q2));
    }

    #[test]
    fn constants_and_structure_separate_keys() {
        let mut c1 = Context::new();
        let (p1, q1) = shape(&mut c1, "x", "y", 10);
        let mut c2 = Context::new();
        let (p2, q2) = shape(&mut c2, "x", "y", 11);
        assert_ne!(entailment_key(&c1, p1, q1), entailment_key(&c2, p2, q2));
    }

    #[test]
    fn variable_sharing_across_psi_and_phi_matters() {
        let mut c = Context::new();
        let x = c.int_var("x");
        let y = c.int_var("y");
        let three = c.int(3);
        let five = c.int(5);
        let psi = c.le(x, three);
        let phi_same = c.le(x, five);
        let phi_other = c.le(y, five);
        assert_ne!(
            entailment_key(&c, psi, phi_same),
            entailment_key(&c, psi, phi_other)
        );
    }

    #[test]
    fn function_names_are_semantic() {
        let mut c = Context::new();
        let x = c.int_var("x");
        let f = c.fn_sym("f", 1);
        let g = c.fn_sym("g", 1);
        let fx = c.app(f, vec![x]);
        let gx = c.app(g, vec![x]);
        let zero = c.int(0);
        let pf = c.le(fx, zero);
        let pg = c.le(gx, zero);
        assert_ne!(formula_key(&c, pf), formula_key(&c, pg));
    }

    /// `levels` levels over variables `x`, `y`, each referring to the level
    /// below twice — as `t + t` in the terms and twice in the formulas — so
    /// the tree doubles per level while the context adds a few nodes.
    fn shared(ctx: &mut Context, x: &str, y: &str, k: i64, levels: i64) -> (FormulaId, FormulaId) {
        let (x, y) = (ctx.int_var(x), ctx.int_var(y));
        let mut t = x;
        for _ in 0..levels {
            t = ctx.add(t, t);
        }
        let kk = ctx.int(k);
        let mut f = ctx.le(t, kk);
        for level in 0..levels {
            let c = ctx.int(level);
            let (lo, hi) = (ctx.le(x, c), ctx.lt(c, y));
            let (a, b) = (ctx.or(f, lo), ctx.or(f, hi));
            f = ctx.and(a, b);
        }
        let zero = ctx.int(0);
        (f, ctx.le(y, zero))
    }

    #[test]
    fn a_key_costs_the_dag_not_the_tree() {
        // 64 levels: a tree of 2^64 nodes, which a tree walk never finishes.
        let mut c1 = Context::new();
        let (p1, q1) = shared(&mut c1, "x", "y", 7, 64);
        let mut c2 = Context::new();
        let _noise = c2.int_var("zzz");
        let (p2, q2) = shared(&mut c2, "u1$x%9", "u1$y%2", 7, 64);
        assert_eq!(entailment_key(&c1, p1, q1), entailment_key(&c2, p2, q2));
        let mut c3 = Context::new();
        let (p3, q3) = shared(&mut c3, "x", "y", 8, 64);
        assert_ne!(entailment_key(&c1, p1, q1), entailment_key(&c3, p3, q3));
    }

    #[test]
    fn a_query_with_no_shared_node_hashes_as_a_tree() {
        // The tree walk's stream for `x ≤ 3`: Le, Var #0, Int 3.
        let mut c = Context::new();
        let x = c.int_var("x");
        let three = c.int(3);
        let f = c.le(x, three);
        let mut tree = Hasher::new(&c);
        tree.byte(9);
        tree.byte(2);
        tree.u64(0);
        tree.byte(1);
        tree.bytes(&3i64.to_le_bytes());
        assert_eq!(formula_key(&c, f), tree.state);
    }

    /// A random DAG over `vars` variables and the unary `f`, grown by
    /// combining earlier nodes (so later ones share them), and the formulas
    /// it made. Built from `seed` alone: two calls with different `names`
    /// are alpha-variants of each other.
    fn random_dag(ctx: &mut Context, seed: u64, names: &[String]) -> Vec<FormulaId> {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let f = ctx.fn_sym("f", 1);
        let mut terms: Vec<TermId> = names.iter().map(|n| ctx.int_var(n)).collect();
        for c in -2..3 {
            terms.push(ctx.int(c));
        }
        let mut formulas = Vec::new();
        for _ in 0..40 {
            let (a, b) = (
                terms[rng.gen_range(0..terms.len())],
                terms[rng.gen_range(0..terms.len())],
            );
            match rng.gen_range(0..4) {
                0 => terms.push(ctx.add(a, b)),
                1 => terms.push(ctx.sub(a, b)),
                2 => terms.push(ctx.mul(a, b)),
                _ => terms.push(ctx.app(f, vec![a])),
            }
            let (a, b) = (
                terms[rng.gen_range(0..terms.len())],
                terms[rng.gen_range(0..terms.len())],
            );
            let atom = match rng.gen_range(0..3) {
                0 => ctx.le(a, b),
                1 => ctx.lt(a, b),
                _ => ctx.eq(a, b),
            };
            formulas.push(atom);
            if formulas.len() > 2 {
                let (p, q) = (
                    formulas[rng.gen_range(0..formulas.len())],
                    formulas[rng.gen_range(0..formulas.len())],
                );
                let node = match rng.gen_range(0..3) {
                    0 => ctx.and(p, q),
                    1 => ctx.or(p, q),
                    _ => ctx.not(p),
                };
                formulas.push(node);
            }
        }
        formulas
    }

    #[test]
    fn a_resumed_key_is_the_one_shot_key() {
        // Ψ a conjunction of random DAG nodes, φ another node of the same
        // DAG (so it shares nodes and variables with Ψ) or a fresh one over
        // variables Ψ never mentions; several φ resume from one prefix, and
        // an alpha-variant context resumes to the same keys.
        for seed in 0..200u64 {
            let names: Vec<String> = (0..4).map(|k| format!("v{k}")).collect();
            let renamed: Vec<String> = (0..4).map(|k| format!("u{seed}$w%{k}@3")).collect();
            let mut c1 = Context::new();
            let nodes1 = random_dag(&mut c1, seed, &names);
            let mut c2 = Context::new();
            let _noise = c2.int_var("zzz");
            let nodes2 = random_dag(&mut c2, seed, &renamed);
            let k = nodes1.len();
            let pick = |i: u64| ((seed.wrapping_mul(31).wrapping_add(i * 7)) % k as u64) as usize;
            let psi_parts: Vec<usize> = (0..1 + seed % 5).map(pick).collect();
            let psi1 = c1.and_all(psi_parts.iter().map(|&i| nodes1[i]));
            let psi2 = c2.and_all(psi_parts.iter().map(|&i| nodes2[i]));
            let outside = {
                let y = c1.int_var("y_outside");
                let zero = c1.int(0);
                c1.le(y, zero)
            };
            let prefix1 = entailment_prefix(&c1, psi1);
            let prefix2 = entailment_prefix(&c2, psi2);
            for i in 0..6 {
                let j = pick(100 + i);
                let (phi1, phi2) = (nodes1[j], nodes2[j]);
                let one_shot = entailment_key(&c1, psi1, phi1);
                assert_eq!(
                    entailment_key_from(&c1, &prefix1, phi1),
                    one_shot,
                    "seed {seed}"
                );
                assert_eq!(
                    entailment_key_from(&c2, &prefix2, phi2),
                    one_shot,
                    "seed {seed}"
                );
            }
            assert_eq!(
                entailment_key_from(&c1, &prefix1, outside),
                entailment_key(&c1, psi1, outside)
            );
            // φ = Ψ: every node of φ is a back-reference into the prefix.
            assert_eq!(
                entailment_key_from(&c1, &prefix1, psi1),
                entailment_key(&c1, psi1, psi1)
            );
        }
    }

    #[test]
    fn a_back_reference_is_not_a_fresh_node() {
        // `(x + 1) * (x + 1)` and `(x + 1) * (y + 1)` differ only in whether
        // the second factor is the node already seen.
        let mut c = Context::new();
        let (x, y) = (c.int_var("x"), c.int_var("y"));
        let (one, zero) = (c.int(1), c.int(0));
        let (x1, y1) = (c.add(x, one), c.add(y, one));
        let (xx, xy) = (c.mul(x1, x1), c.mul(x1, y1));
        let (fxx, fxy) = (c.le(xx, zero), c.le(xy, zero));
        assert_ne!(formula_key(&c, fxx), formula_key(&c, fxy));
    }
}

//! Congruence closure for equality with uninterpreted functions (EUF).
//!
//! The solver registers every term occurring in the current literal set,
//! asserts the equalities, and closes under congruence
//! (`x̄ = ȳ ⇒ f(x̄) = f(ȳ)`) using the classic union-find + signature-table
//! algorithm. Disequalities are checked against the closure; asserting an
//! equality that contradicts a disequality (or vice versa) reports a
//! conflict.
//!
//! Every union also adds an edge to a *proof forest* (Nieuwenhuis–Oliveras):
//! the two merged nodes, labelled with the input literals or the congruence
//! that justified the merge. [`Euf::explain`] walks the unique path between
//! two equal nodes and returns the literals on it, so conflicts and the
//! class equalities handed to arithmetic name the few literals they rest on.
//!
//! One instance lives for one theory check, so set-up is most of its cost:
//! argument lists, edge labels and signature keys sit in flat arenas, and
//! a signature is looked up through one reused buffer.

use crate::ctx::{Context, IdMap, Term, TermId};

/// Pseudo function symbols for interpreted operators (disjoint from real
/// [`crate::ctx::FnSym`] indices, which are dense from 0).
const BUILTIN_ADD: u32 = u32::MAX;
const BUILTIN_SUB: u32 = u32::MAX - 1;
const BUILTIN_MUL: u32 = u32::MAX - 2;

/// Why two nodes were merged: the label of a proof-forest edge.
#[derive(Clone, Copy, Debug)]
enum Why {
    /// The input literals (by index) that entail the equality:
    /// `Euf::lits[start..end]`.
    Lits(u32, u32),
    /// Congruence: same symbol, pairwise equal arguments.
    Cong,
}

/// An application node: its symbol and its argument nodes,
/// `Euf::args[start..end]`.
#[derive(Clone, Copy, Debug)]
struct App {
    f: u32,
    start: u32,
    end: u32,
}

/// A congruence-closure instance over terms of one [`Context`].
#[derive(Debug, Default)]
pub(crate) struct Euf {
    /// Dense node index per registered term.
    node_of: IdMap<TermId, u32>,
    terms: Vec<TermId>,
    parent: Vec<u32>,
    rank: Vec<u32>,
    /// App nodes in which each node occurs as an argument.
    use_list: Vec<Vec<u32>>,
    /// Per node: its application, `None` for leaves.
    app: Vec<Option<App>>,
    /// Argument nodes of every application, back to back.
    args: Vec<u32>,
    /// Signature table: `[fn, arg representatives…]` → node.
    sig: IdMap<Vec<u32>, u32>,
    /// Reused buffer a signature is built in before it is looked up.
    key: Vec<u32>,
    /// Proof forest: `proof[n] = (m, why)` is the edge `n — m` on `n`'s way
    /// to the root of its tree. One tree per class; the path between two
    /// nodes never changes once they are connected.
    proof: Vec<Option<(u32, Why)>>,
    /// Literal lists of the [`Why::Lits`] edge labels, back to back.
    lits: Vec<usize>,
    /// Per class root: an integer constant in the class and its node.
    konst: Vec<Option<(i64, u32)>>,
    /// Asserted disequalities: (node, node, literal index).
    diseqs: Vec<(u32, u32, usize)>,
    /// Per class root: the disequalities (indices into `diseqs`) with an
    /// endpoint in the class — the only ones a union can violate.
    diseqs_of: Vec<Vec<usize>>,
    /// Reused worklist of [`Euf::union`].
    pending: Vec<(u32, u32, Why)>,
}

fn index(n: usize) -> u32 {
    u32::try_from(n).expect("too many EUF nodes")
}

impl Euf {
    /// Creates an empty instance.
    #[cfg(test)]
    pub(crate) fn new() -> Euf {
        Euf::default()
    }

    /// Empties the instance for another literal set, keeping the memory
    /// its tables grew to: afterwards it behaves as a fresh `Euf::default()` does.
    pub(crate) fn clear(&mut self) {
        self.node_of.clear();
        self.terms.clear();
        self.parent.clear();
        self.rank.clear();
        self.use_list.clear();
        self.app.clear();
        self.args.clear();
        self.sig.clear();
        self.key.clear();
        self.proof.clear();
        self.lits.clear();
        self.konst.clear();
        self.diseqs.clear();
        self.diseqs_of.clear();
        self.pending.clear();
    }

    /// Registers `t` and all its subterms, returning the node index.
    pub(crate) fn add_term(&mut self, ctx: &Context, t: TermId) -> u32 {
        if let Some(&n) = self.node_of.get(&t) {
            return n;
        }
        let mut konst = None;
        // Arithmetic nodes participate in congruence as if they were
        // applications of builtin symbols (`+`, `−`, `×` are functions, so
        // `x = x' ∧ y = y' ⇒ x+y = x'+y'` is sound). This lets the closure
        // derive most equalities without round-tripping through the
        // arithmetic solver. LIA still owns their *theory* meaning.
        let pair;
        let app_terms: Option<(u32, &[TermId])> = match ctx.term(t) {
            Term::App(f, args) => Some((f.0, args)),
            Term::Add(a, b) => {
                pair = [*a, *b];
                Some((BUILTIN_ADD, &pair))
            }
            Term::Sub(a, b) => {
                pair = [*a, *b];
                Some((BUILTIN_SUB, &pair))
            }
            Term::Mul(a, b) => {
                pair = [*a, *b];
                Some((BUILTIN_MUL, &pair))
            }
            Term::Int(c) => {
                konst = Some(*c);
                None
            }
            Term::Var(_) => None,
        };
        let mut app_info = None;
        if let Some((f, arg_terms)) = app_terms {
            // Subterms first; their nodes then go into the arena in order.
            for &a in arg_terms {
                self.add_term(ctx, a);
            }
            let start = index(self.args.len());
            for a in arg_terms {
                self.args.push(self.node_of[a]);
            }
            app_info = Some(App {
                f,
                start,
                end: index(self.args.len()),
            });
        }
        let n = index(self.terms.len());
        self.terms.push(t);
        self.parent.push(n);
        self.rank.push(0);
        self.use_list.push(Vec::new());
        self.app.push(app_info);
        self.proof.push(None);
        // Distinct integer constants are disequal by theory.
        self.konst.push(konst.map(|c| (c, n)));
        self.diseqs_of.push(Vec::new());
        self.node_of.insert(t, n);
        if let Some(app) = app_info {
            for k in app.start..app.end {
                let a = self.args[k as usize];
                self.use_list[a as usize].push(n);
            }
            if let Some(existing) = self.signature_of(app) {
                // Congruent to an existing application: merge immediately.
                let fresh = self.union(existing, n, Why::Cong);
                debug_assert!(
                    fresh.is_ok(),
                    "a fresh node has no constant and no disequality"
                );
            } else {
                self.sig.insert(self.key.clone(), n);
            }
        }
        n
    }

    /// Builds `app`'s current signature in [`Euf::key`] and returns the node
    /// the table holds for it, if any.
    fn signature_of(&mut self, app: App) -> Option<u32> {
        self.key.clear();
        self.key.push(app.f);
        for k in app.start..app.end {
            let r = self.find(self.args[k as usize]);
            self.key.push(r);
        }
        self.sig.get(self.key.as_slice()).copied()
    }

    /// Argument nodes of node `n` (empty for a leaf).
    fn args_of(&self, n: u32) -> &[u32] {
        match self.app[n as usize] {
            Some(App { start, end, .. }) => &self.args[start as usize..end as usize],
            None => &[],
        }
    }

    fn find(&self, mut n: u32) -> u32 {
        while self.parent[n as usize] != n {
            n = self.parent[n as usize];
        }
        n
    }

    fn find_compress(&mut self, n: u32) -> u32 {
        let root = self.find(n);
        let mut cur = n;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    /// Merges the classes of `a` and `b` and closes under congruence. Stops
    /// at the first union that puts two distinct constants or the two sides
    /// of a disequality into one class, and explains it.
    fn union(&mut self, a: u32, b: u32, why: Why) -> Result<(), Vec<usize>> {
        self.pending.clear();
        self.pending.push((a, b, why));
        while let Some((x, y, why)) = self.pending.pop() {
            let (rx, ry) = (self.find_compress(x), self.find_compress(y));
            if rx == ry {
                continue;
            }
            let (winner, loser) = if self.rank[rx as usize] >= self.rank[ry as usize] {
                (rx, ry)
            } else {
                (ry, rx)
            };
            if self.rank[winner as usize] == self.rank[loser as usize] {
                self.rank[winner as usize] += 1;
            }
            self.parent[loser as usize] = winner;
            self.link_proof(x, y, why);
            match (self.konst[winner as usize], self.konst[loser as usize]) {
                (Some((c, n)), Some((d, m))) if c != d => return Err(self.explain_nodes(n, m)),
                (None, k) => self.konst[winner as usize] = k,
                _ => {}
            }
            // Only disequalities touching the absorbed class can have closed.
            let moved = std::mem::take(&mut self.diseqs_of[loser as usize]);
            for &d in &moved {
                let (p, q, lit) = self.diseqs[d];
                if self.find(p) == self.find(q) {
                    return Err(self.violated(p, q, lit));
                }
            }
            self.diseqs_of[winner as usize].extend(moved);
            // Re-hash every application that used the loser's class.
            let users = std::mem::take(&mut self.use_list[loser as usize]);
            for &u in &users {
                let app = self.app[u as usize].expect("user is an App node");
                if let Some(other) = self.signature_of(app) {
                    if self.find(other) != self.find(u) {
                        self.pending.push((other, u, Why::Cong));
                    }
                } else {
                    self.sig.insert(self.key.clone(), u);
                }
            }
            self.use_list[winner as usize].extend(users);
        }
        Ok(())
    }

    /// Adds the proof edge `x — y`: re-roots `x`'s tree at `x` by reversing
    /// the edges on its path to the old root, then hangs it under `y`.
    fn link_proof(&mut self, x: u32, y: u32, why: Why) {
        let (mut cur, mut incoming) = (x, Some((y, why)));
        while let Some((next, why)) = std::mem::replace(&mut self.proof[cur as usize], incoming) {
            incoming = Some((cur, why));
            cur = next;
        }
    }

    /// The nodes from `n` up to the root of its proof tree.
    fn proof_path(&self, mut n: u32) -> Vec<u32> {
        let mut path = vec![n];
        while let Some((next, _)) = self.proof[n as usize] {
            n = next;
            path.push(n);
        }
        path
    }

    /// Input literals that entail `a = b`, for nodes of one class: the
    /// labels on the proof-forest path between them, congruence edges
    /// expanded into the explanations of their argument pairs. Each edge is
    /// expanded once. Sorted, without duplicates.
    fn explain_nodes(&self, a: u32, b: u32) -> Vec<usize> {
        let mut out = Vec::new();
        let mut seen = vec![false; self.terms.len()];
        let mut todo = vec![(a, b)];
        while let Some((a, b)) = todo.pop() {
            let (mut pa, mut pb) = (self.proof_path(a), self.proof_path(b));
            debug_assert_eq!(pa.last(), pb.last(), "explained nodes share a class");
            // Drop the shared tail above the nearest common ancestor, then
            // the ancestor itself: what remains are the nodes whose edge
            // lies on the path.
            while pa.len() >= 2 && pb.len() >= 2 && pa[pa.len() - 2] == pb[pb.len() - 2] {
                pa.pop();
                pb.pop();
            }
            pa.pop();
            pb.pop();
            for n in pa.into_iter().chain(pb) {
                if std::mem::replace(&mut seen[n as usize], true) {
                    continue;
                }
                match self.proof[n as usize] {
                    Some((_, Why::Lits(start, end))) => {
                        out.extend_from_slice(&self.lits[start as usize..end as usize]);
                    }
                    Some((m, Why::Cong)) => {
                        let pairs = self.args_of(n).iter().zip(self.args_of(m));
                        todo.extend(pairs.map(|(&x, &y)| (x, y)));
                    }
                    None => debug_assert!(false, "path node without an edge"),
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The conflict of disequality literal `lit` with its now-equal sides.
    fn violated(&self, p: u32, q: u32, lit: usize) -> Vec<usize> {
        let mut core = self.explain_nodes(p, q);
        core.push(lit);
        core.sort_unstable();
        core
    }

    /// Input literals that entail `a = b`; both terms must be registered
    /// and [`Euf::equal`].
    pub(crate) fn explain(&self, a: TermId, b: TermId) -> Vec<usize> {
        self.explain_nodes(self.node_of[&a], self.node_of[&b])
    }

    /// Asserts `a = b` on the strength of the input literals `reason`.
    /// `Err` carries the literals behind a contradiction with an asserted
    /// disequality or with the distinctness of integer constants.
    pub(crate) fn merge(
        &mut self,
        ctx: &Context,
        a: TermId,
        b: TermId,
        reason: &[usize],
    ) -> Result<(), Vec<usize>> {
        let (na, nb) = (self.add_term(ctx, a), self.add_term(ctx, b));
        let start = index(self.lits.len());
        self.lits.extend_from_slice(reason);
        self.union(na, nb, Why::Lits(start, index(self.lits.len())))
    }

    /// Asserts `a ≠ b` as input literal `lit`. `Err` explains why `a` and
    /// `b` are already equal.
    pub(crate) fn add_diseq(
        &mut self,
        ctx: &Context,
        a: TermId,
        b: TermId,
        lit: usize,
    ) -> Result<(), Vec<usize>> {
        let (na, nb) = (self.add_term(ctx, a), self.add_term(ctx, b));
        let (ra, rb) = (self.find(na), self.find(nb));
        if ra == rb {
            return Err(self.violated(na, nb, lit));
        }
        let d = self.diseqs.len();
        self.diseqs.push((na, nb, lit));
        self.diseqs_of[ra as usize].push(d);
        self.diseqs_of[rb as usize].push(d);
        Ok(())
    }

    /// Whether `a = b` follows from the asserted equalities by congruence.
    /// Both terms must have been registered.
    pub(crate) fn equal(&self, a: TermId, b: TermId) -> bool {
        match (self.node_of.get(&a), self.node_of.get(&b)) {
            (Some(&na), Some(&nb)) => self.find(na) == self.find(nb),
            _ => false,
        }
    }

    /// All registered terms (for equality propagation in the combination
    /// loop).
    pub(crate) fn registered_terms(&self) -> &[TermId] {
        &self.terms
    }

    /// Opaque class identifier of a registered term: two registered terms are
    /// equal under the closure iff their class ids coincide.
    pub(crate) fn class_id(&self, t: TermId) -> Option<u32> {
        self.node_of.get(&t).map(|&n| self.find(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn congruence_propagates_through_apps() {
        let mut ctx = Context::new();
        let f = ctx.fn_sym("f", 1);
        let x = ctx.int_var("x");
        let y = ctx.int_var("y");
        let fx = ctx.app(f, vec![x]);
        let fy = ctx.app(f, vec![y]);
        let mut e = Euf::new();
        e.add_term(&ctx, fx);
        e.add_term(&ctx, fy);
        assert!(!e.equal(fx, fy));
        assert!(e.merge(&ctx, x, y, &[0]).is_ok());
        assert!(e.equal(fx, fy));
    }

    #[test]
    fn nested_congruence() {
        // x = y ⇒ g(f(x), x) = g(f(y), y)
        let mut ctx = Context::new();
        let f = ctx.fn_sym("f", 1);
        let g = ctx.fn_sym("g", 2);
        let x = ctx.int_var("x");
        let y = ctx.int_var("y");
        let fx = ctx.app(f, vec![x]);
        let fy = ctx.app(f, vec![y]);
        let gx = ctx.app(g, vec![fx, x]);
        let gy = ctx.app(g, vec![fy, y]);
        let mut e = Euf::new();
        e.add_term(&ctx, gx);
        e.add_term(&ctx, gy);
        assert!(e.merge(&ctx, x, y, &[0]).is_ok());
        assert!(e.equal(gx, gy));
    }

    #[test]
    fn diseq_conflict_detected() {
        let mut ctx = Context::new();
        let x = ctx.int_var("x");
        let y = ctx.int_var("y");
        let z = ctx.int_var("z");
        let mut e = Euf::new();
        assert!(e.add_diseq(&ctx, x, z, 0).is_ok());
        assert!(e.merge(&ctx, x, y, &[1]).is_ok());
        // y = z would close the cycle x = y = z against x ≠ z.
        assert_eq!(e.merge(&ctx, y, z, &[2]), Err(vec![0, 1, 2]));
    }

    #[test]
    fn distinct_constants_conflict() {
        let mut ctx = Context::new();
        let x = ctx.int_var("x");
        let one = ctx.int(1);
        let two = ctx.int(2);
        let mut e = Euf::new();
        assert!(e.merge(&ctx, x, one, &[0]).is_ok());
        assert_eq!(e.merge(&ctx, x, two, &[1]), Err(vec![0, 1]));
    }

    #[test]
    fn transitivity_of_function_chain() {
        // f(a)=b, f(b)=c, a=b ⇒ b=c.
        let mut ctx = Context::new();
        let f = ctx.fn_sym("f", 1);
        let a = ctx.int_var("a");
        let b = ctx.int_var("b");
        let c = ctx.int_var("c");
        let fa = ctx.app(f, vec![a]);
        let fb = ctx.app(f, vec![b]);
        let mut e = Euf::new();
        assert!(e.merge(&ctx, fa, b, &[0]).is_ok());
        assert!(e.merge(&ctx, fb, c, &[1]).is_ok());
        assert!(e.merge(&ctx, a, b, &[2]).is_ok());
        assert!(e.equal(b, c));
        // b = f(a) ≅ f(b) = c: both function facts and the argument equality.
        assert_eq!(e.explain(b, c), vec![0, 1, 2]);
    }

    #[test]
    fn apps_inside_arithmetic_are_registered() {
        // EUF must see f(x) inside f(x)+1.
        let mut ctx = Context::new();
        let f = ctx.fn_sym("f", 1);
        let x = ctx.int_var("x");
        let y = ctx.int_var("y");
        let fx = ctx.app(f, vec![x]);
        let one = ctx.int(1);
        let sum = ctx.add(fx, one);
        let fy = ctx.app(f, vec![y]);
        let mut e = Euf::new();
        e.add_term(&ctx, sum);
        e.add_term(&ctx, fy);
        assert!(e.merge(&ctx, x, y, &[0]).is_ok());
        assert!(e.equal(fx, fy));
    }

    #[test]
    fn identical_apps_are_merged_on_registration() {
        let mut ctx = Context::new();
        let f = ctx.fn_sym("f", 1);
        let x = ctx.int_var("x");
        let y = ctx.int_var("y");
        let mut e = Euf::new();
        // Register f(x) and f(y) with x=y already asserted: registering the
        // second app must land in the same class.
        let fx = ctx.app(f, vec![x]);
        e.add_term(&ctx, fx);
        assert!(e.merge(&ctx, x, y, &[0]).is_ok());
        let fy = ctx.app(f, vec![y]);
        e.add_term(&ctx, fy);
        assert!(e.equal(fx, fy));
    }

    #[test]
    fn explanations_name_only_the_literals_on_the_path() {
        // Literals: 0: u = v (bystander), 1: x = y, 2: y = z, 3: w = 7
        // (bystander), 4: g(f(x), 1) ≠ g(f(z), 1).
        let mut ctx = Context::new();
        let f = ctx.fn_sym("f", 1);
        let g = ctx.fn_sym("g", 2);
        let [u, v, w, x, y, z] = ["u", "v", "w", "x", "y", "z"].map(|n| ctx.int_var(n));
        let (one, seven) = (ctx.int(1), ctx.int(7));
        let (fx, fz) = (ctx.app(f, vec![x]), ctx.app(f, vec![z]));
        let (gx, gz) = (ctx.app(g, vec![fx, one]), ctx.app(g, vec![fz, one]));
        let mut e = Euf::new();
        assert!(e.merge(&ctx, u, v, &[0]).is_ok());
        assert!(e.merge(&ctx, x, y, &[1]).is_ok());
        assert!(e.add_diseq(&ctx, gx, gz, 4).is_ok());
        assert!(e.merge(&ctx, w, seven, &[3]).is_ok());
        // Closing x = z makes f(x) ≅ f(z), then g(..) ≅ g(..): the conflict
        // is found inside the merge of literal 2 and blames no bystander.
        assert_eq!(e.merge(&ctx, y, z, &[2]), Err(vec![1, 2, 4]));
    }

    #[test]
    fn asserting_a_disequality_inside_a_class_explains_the_class() {
        let mut ctx = Context::new();
        let [a, b, c, d] = ["a", "b", "c", "d"].map(|n| ctx.int_var(n));
        let mut e = Euf::new();
        assert!(e.merge(&ctx, a, b, &[0]).is_ok());
        assert!(e.merge(&ctx, c, d, &[1]).is_ok());
        assert!(e.merge(&ctx, b, c, &[2]).is_ok());
        assert_eq!(e.explain(a, c), vec![0, 2]);
        assert_eq!(e.add_diseq(&ctx, b, d, 3), Err(vec![1, 2, 3]));
    }
}

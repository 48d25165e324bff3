//! Delta-consolidation: incremental maintenance of a merged plan under
//! query churn.
//!
//! `consolidate_many` is a batch operation: adding or removing one query
//! means re-running the whole Ω reduction over all `n` programs. A
//! long-lived service with live register/deregister traffic cannot afford
//! that — the churn rate, not the query count, would dominate solver time.
//!
//! [`DeltaPlan`] keeps the divide-and-conquer reduction *tree* alive
//! between operations. Leaves are the registered programs (locals renamed
//! apart once, at registration); every internal node caches the merged
//! program of its subtree. Adding or removing one query then re-consolidates
//! only the **spine** — the `O(log n)` internal nodes between the touched
//! leaf and the root — while every other subtree's merged program is reused
//! verbatim. With a shared [`crate::memo::EntailmentMemo`] the spine pairs
//! themselves hit memoized verdicts for the unchanged obligations, so a
//! delta operation issues strictly fewer SMT checks than a from-scratch
//! `consolidate_many` of the same final set (asserted by the
//! `delta_equivalence` integration tests).
//!
//! # Tree shape
//!
//! The tree is a complete binary tree over a fixed power-of-two capacity of
//! leaf slots, stored as an implicit array (`nodes[1]` is the root, node `k`
//! has children `2k` and `2k+1`, leaf slot `i` lives at `cap + i`). Empty
//! slots — never-used capacity or holes left by removals — are `None` and
//! merge as passthrough: a node with one live child clones that child's
//! program, with zero solver work. When the capacity is exhausted it
//! doubles; the old tree becomes the left subtree of the new root (a pure
//! index relabeling — no re-consolidation), and the add proceeds into the
//! fresh right half.
//!
//! Merge order differs from `consolidate_many`'s (holes shift pairings),
//! but Theorem 1 makes every order observationally equivalent: the plans
//! notify identically on every record, which is what the engine and the
//! service care about.
//!
//! # Degradation
//!
//! Each node carries the [`DegradationTier`] of its own merge; the plan's
//! tier is the worst tier on the root's derivation, recomputed bottom-up.
//! A budget-starved delta op degrades only the spine it touched. A
//! degraded node is merged again only when a later `add` or `remove`
//! passes through it; nothing re-merges the whole tree.
//!
//! # Failure and persistence
//!
//! `add` and `remove` merge the new spine into a scratch list and write
//! nothing — leaf, membership, free list, rename counter, a doubling — until
//! the root has merged, so a failed operation leaves the plan exactly as it
//! was. [`DeltaPlan::export`] / [`DeltaPlan::restore`] turn the tree into
//! plain data and back ([`PlanImage`]; this crate has no serialiser), which
//! is how a service checkpoint reinstalls a plan instead of re-proving it.

use crate::api::{
    add_stats, consolidate_pair_budgeted, ConsolidateError, Consolidated, ConsolidationStats,
};
use crate::budget::{BudgetState, DegradationTier};
use crate::memo::EntailmentMemo;
use crate::rules::Options;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use udf_lang::analysis::{notify_ids, rename_locals_with};
use udf_lang::ast::{ProgId, Program};
use udf_lang::cost::{CostModel, FnCost};
use udf_lang::intern::Interner;

/// Errors reported by delta operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// A program with this notify id is already registered.
    DuplicateId(ProgId),
    /// No registered program has this id.
    UnknownId(ProgId),
    /// The program notifies an id other than (or besides) its own — the
    /// tree relies on one leaf ↔ one notify id.
    IdMismatch(ProgId),
    /// The underlying pair consolidation failed.
    Consolidate(ConsolidateError),
    /// A [`PlanImage`] handed to [`DeltaPlan::restore`] does not describe a
    /// tree this module could have built.
    InvalidImage(String),
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::DuplicateId(id) => write!(f, "query id {} already registered", id.0),
            DeltaError::UnknownId(id) => write!(f, "no registered query with id {}", id.0),
            DeltaError::IdMismatch(id) => write!(
                f,
                "program must notify exactly its own id {} (and nothing else)",
                id.0
            ),
            DeltaError::Consolidate(e) => write!(f, "consolidation failed: {e}"),
            DeltaError::InvalidImage(why) => write!(f, "invalid plan image: {why}"),
        }
    }
}

impl std::error::Error for DeltaError {}

impl From<ConsolidateError> for DeltaError {
    fn from(e: ConsolidateError) -> DeltaError {
        DeltaError::Consolidate(e)
    }
}

/// What one delta operation cost and produced.
#[derive(Debug, Clone, Default)]
pub struct DeltaReport {
    /// Consolidation statistics summed over the re-merged spine pairs
    /// (solver checks here are the op's *entire* solver bill).
    pub stats: ConsolidationStats,
    /// Spine nodes whose two children were live and were re-consolidated.
    pub pairs_recomputed: u64,
    /// Spine nodes with a single live child (cloned through, no solver
    /// work).
    pub passthroughs: u64,
    /// Whether the leaf capacity doubled during this op (index relabeling
    /// only — no extra consolidation).
    pub grew: bool,
    /// Tier of the resulting plan (worst node on the root derivation).
    pub tier: DegradationTier,
}

/// A [`DeltaPlan`] as plain data: what a checkpoint has to carry so that
/// [`DeltaPlan::restore`] rebuilds the same tree, and behaves the same on
/// every later operation, with no solver work. The tree's shape is a
/// function of its whole add/remove history (slot reuse, doublings, the
/// rename counter), so the image carries the shape, not the history.
///
/// Only merges are stored. An internal node with one live child is a clone
/// of that child (see the module docs); `restore` re-derives those.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanImage {
    /// Leaf capacity (a power of two).
    pub cap: usize,
    /// The rename counter: the next registration's locals get the prefix
    /// `d{renames}$`.
    pub renames: u64,
    /// Free slots **in order** — the list is LIFO, so its order decides
    /// which slot each later registration takes.
    pub free: Vec<usize>,
    /// Live leaves in slot order.
    pub leaves: Vec<LeafImage>,
    /// Internal nodes with two live children, by increasing index.
    pub nodes: Vec<NodeImage>,
}

/// One registered query in a [`PlanImage`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeafImage {
    /// Leaf slot (tree node `cap + slot`).
    pub slot: usize,
    /// The program as registered; its `id` is the leaf's query id.
    pub original: Program,
    /// The same program with its locals renamed apart, as the tree holds it.
    pub renamed: Program,
}

/// One cached merge in a [`PlanImage`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeImage {
    /// Index in the implicit tree (`1` is the root, children `2k`, `2k+1`).
    pub index: usize,
    /// The merged program of the subtree.
    pub program: Program,
    /// Worst tier in the subtree's derivation.
    pub tier: DegradationTier,
}

/// One registered query.
#[derive(Debug, Clone)]
struct Leaf {
    id: ProgId,
    /// The program as registered (locals *not* renamed) — what
    /// [`DeltaPlan::programs`] returns for per-query compilation.
    original: Program,
}

/// One cached internal merge.
#[derive(Debug, Clone)]
struct Node {
    program: Program,
    /// Worst tier in this subtree's derivation.
    tier: DegradationTier,
}

/// A live consolidated plan supporting incremental add/remove of queries.
///
/// See the module docs for the data structure. All operations take the
/// interner, cost model, function-cost oracle and [`Options`] explicitly so
/// one plan can serve callers that thread their own; pass the *same*
/// options across operations (the plan does not re-fingerprint them).
#[derive(Debug)]
pub struct DeltaPlan {
    /// Leaf slots (index `i` ↔ node `cap + i`); `None` is a hole.
    leaves: Vec<Option<Leaf>>,
    /// Implicit complete binary tree; `nodes[0]` unused, `nodes[1]` root.
    /// Leaf node `cap + i` holds the *renamed* registered program.
    nodes: Vec<Option<Node>>,
    /// Leaf capacity (power of two).
    cap: usize,
    /// Slot index by query id.
    by_id: HashMap<ProgId, usize>,
    /// Reusable holes, served LIFO.
    free: Vec<usize>,
    /// Counts successful registrations; each one's locals are renamed to
    /// `d{renames}$…` — re-registering the same program gets new locals,
    /// keeping all live leaves disjoint.
    renames: u64,
    /// Shared entailment memo: spine re-merges reuse verdicts across
    /// operations (and with any other consolidation sharing the table).
    memo: Arc<EntailmentMemo>,
}

impl Default for DeltaPlan {
    fn default() -> DeltaPlan {
        DeltaPlan::new()
    }
}

impl DeltaPlan {
    /// Creates an empty plan with its own [`EntailmentMemo`].
    pub fn new() -> DeltaPlan {
        DeltaPlan {
            leaves: vec![None],
            nodes: vec![None, None],
            cap: 1,
            by_id: HashMap::new(),
            free: vec![0],
            renames: 0,
            memo: Arc::new(EntailmentMemo::new()),
        }
    }

    /// Number of registered queries.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// Whether no queries are registered.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// The shared entailment memo (for scoped invalidation on demotion).
    pub fn memo(&self) -> &Arc<EntailmentMemo> {
        &self.memo
    }

    /// The merged program over all registered queries (`None` when empty).
    pub fn program(&self) -> Option<&Program> {
        self.nodes[1].as_ref().map(|n| &n.program)
    }

    /// Tier of the current plan (worst node on the root derivation;
    /// [`DegradationTier::Full`] when empty).
    pub fn tier(&self) -> DegradationTier {
        self.nodes[1]
            .as_ref()
            .map_or(DegradationTier::Full, |n| n.tier)
    }

    /// Registered query ids in slot order — the order [`DeltaPlan::programs`]
    /// returns and the order a consolidated engine run's notify buffer uses.
    pub fn ids(&self) -> Vec<ProgId> {
        self.leaves
            .iter()
            .filter_map(|l| l.as_ref().map(|l| l.id))
            .collect()
    }

    /// Registered programs (as supplied, un-renamed) in slot order.
    pub fn programs(&self) -> Vec<Program> {
        self.leaves
            .iter()
            .filter_map(|l| l.as_ref().map(|l| l.original.clone()))
            .collect()
    }

    /// Whether `id` is registered.
    pub fn contains(&self, id: ProgId) -> bool {
        self.by_id.contains_key(&id)
    }

    /// Registers one query and re-consolidates the spine from its leaf to
    /// the root.
    ///
    /// # Errors
    ///
    /// [`DeltaError::DuplicateId`] when the id is live,
    /// [`DeltaError::IdMismatch`] when the program notifies anything but its
    /// own id, and [`DeltaError::Consolidate`] when a spine pair fails
    /// (parameter mismatch with the existing set).
    pub fn add(
        &mut self,
        program: &Program,
        interner: &mut Interner,
        cm: &CostModel,
        fns: &dyn FnCost,
        opts: &Options,
    ) -> Result<DeltaReport, DeltaError> {
        if self.by_id.contains_key(&program.id) {
            return Err(DeltaError::DuplicateId(program.id));
        }
        let ids = notify_ids(&program.body);
        if ids.len() != 1 || !ids.contains(&program.id) {
            return Err(DeltaError::IdMismatch(program.id));
        }
        let mut report = DeltaReport::default();
        // A full tree doubles, and the old tree becomes the new root's left
        // child (see `grow`). Until the spine has merged nothing is written,
        // so the doubling is only *planned* here: the new leaf will take the
        // first slot of the new right half, and the one live node beside its
        // spine will be the old root, at index 2.
        let grew = self.free.is_empty();
        let (cap, slot) = match self.free.last() {
            Some(&slot) => (self.cap, slot),
            None => (self.cap * 2, self.cap),
        };
        let sibling = |k: usize| match (grew, k) {
            (false, _) => self.nodes[k].as_ref(),
            (true, 2) => self.nodes[1].as_ref(),
            (true, _) => None,
        };
        let leaf = Node {
            program: rename_apart(program, interner, self.renames),
            tier: DegradationTier::Full,
        };
        // A failed pair (parameter mismatch with the live set) returns here
        // with the tree, the membership, `free` and `renames` untouched.
        let node = cap + slot;
        let spine = self.merge_spine(
            node,
            Some(&leaf),
            sibling,
            interner,
            cm,
            fns,
            opts,
            &mut report,
        )?;
        if grew {
            self.grow();
            report.grew = true;
        }
        self.free.pop();
        self.renames += 1;
        self.leaves[slot] = Some(Leaf {
            id: program.id,
            original: program.clone(),
        });
        self.by_id.insert(program.id, slot);
        self.install_spine(node, Some(leaf), spine);
        report.tier = self.tier();
        Ok(report)
    }

    /// Deregisters one query and re-consolidates the spine from its former
    /// leaf to the root.
    ///
    /// # Errors
    ///
    /// [`DeltaError::UnknownId`] when the id is not live. Removal cannot
    /// fail compatibility (the survivors were compatible); an internal pair
    /// error is surfaced rather than panicking, and leaves the plan as it
    /// was.
    pub fn remove(
        &mut self,
        id: ProgId,
        interner: &Interner,
        cm: &CostModel,
        fns: &dyn FnCost,
        opts: &Options,
    ) -> Result<DeltaReport, DeltaError> {
        let slot = *self.by_id.get(&id).ok_or(DeltaError::UnknownId(id))?;
        let mut report = DeltaReport::default();
        let node = self.cap + slot;
        let sibling = |k: usize| self.nodes[k].as_ref();
        let spine = self.merge_spine(node, None, sibling, interner, cm, fns, opts, &mut report)?;
        self.by_id.remove(&id);
        self.leaves[slot] = None;
        self.free.push(slot);
        self.install_spine(node, None, spine);
        report.tier = self.tier();
        Ok(report)
    }

    /// The plan as plain data (see [`PlanImage`]).
    pub fn export(&self) -> PlanImage {
        let live = |k: usize| self.nodes[k].as_ref();
        PlanImage {
            cap: self.cap,
            renames: self.renames,
            free: self.free.clone(),
            leaves: (0..self.cap)
                .filter_map(|slot| {
                    Some(LeafImage {
                        slot,
                        original: self.leaves[slot].as_ref()?.original.clone(),
                        renamed: live(self.cap + slot)?.program.clone(),
                    })
                })
                .collect(),
            nodes: (1..self.cap)
                .filter(|&k| live(2 * k).is_some() && live(2 * k + 1).is_some())
                .filter_map(|k| {
                    let node = live(k)?;
                    Some(NodeImage {
                        index: k,
                        program: node.program.clone(),
                        tier: node.tier,
                    })
                })
                .collect(),
        }
    }

    /// Rebuilds a plan from its image with a fresh [`EntailmentMemo`] and no
    /// solver work: stored merges are installed, passthrough nodes cloned
    /// from their only live child.
    ///
    /// The image is checked before anything is built on it: `cap` is a
    /// power of two; live slots and `free` partition `0..cap`; query ids are
    /// distinct; every leaf, original and renamed, notifies exactly its own
    /// id; a merge is stored for exactly the nodes with two live children,
    /// and notifies exactly the union of what its children notify. What is
    /// *not* re-proved is that a stored merge is equivalent to its children
    /// — that is the solver work being saved, and the engine's plan guard
    /// audits it against the per-query programs at run time.
    ///
    /// # Errors
    ///
    /// [`DeltaError::InvalidImage`] naming the first violated check.
    pub fn restore(image: PlanImage) -> Result<DeltaPlan, DeltaError> {
        let bad = |why: String| Err(DeltaError::InvalidImage(why));
        let PlanImage {
            cap,
            renames,
            free,
            leaves,
            nodes,
        } = image;
        if !cap.is_power_of_two() {
            return bad(format!("capacity {cap} is not a power of two"));
        }
        if free.len() + leaves.len() != cap {
            return bad(format!(
                "{} live + {} free slots do not fill capacity {cap}",
                leaves.len(),
                free.len()
            ));
        }
        let mut plan = DeltaPlan {
            leaves: vec![None; cap],
            nodes: vec![None; cap * 2],
            cap,
            by_id: HashMap::new(),
            free,
            renames,
            memo: Arc::new(EntailmentMemo::new()),
        };
        // `cap` slots were listed; if none is out of range or listed twice,
        // live and free partition `0..cap`.
        let mut listed = vec![false; cap];
        for &slot in plan.free.iter().chain(leaves.iter().map(|l| &l.slot)) {
            match listed.get_mut(slot) {
                Some(seen) if !*seen => *seen = true,
                Some(_) => return bad(format!("slot {slot} is listed twice (live and free?)")),
                None => return bad(format!("slot {slot} is outside capacity {cap}")),
            }
        }
        for LeafImage {
            slot,
            original,
            renamed,
        } in leaves
        {
            let id = original.id;
            let own = std::iter::once(id).collect();
            if renamed.id != id
                || notify_ids(&original.body) != own
                || notify_ids(&renamed.body) != own
            {
                return bad(format!(
                    "leaf {slot} does not notify exactly its own id {}",
                    id.0
                ));
            }
            if plan.by_id.insert(id, slot).is_some() {
                return bad(format!("query id {} is registered twice", id.0));
            }
            plan.leaves[slot] = Some(Leaf { id, original });
            plan.nodes[cap + slot] = Some(Node {
                program: renamed,
                tier: DegradationTier::Full,
            });
        }
        let inside = |n: &NodeImage| (1..cap).contains(&n.index);
        if !nodes.iter().all(inside) || !nodes.windows(2).all(|w| w[0].index < w[1].index) {
            return bad(format!(
                "stored nodes are not in increasing order inside 1..{cap}"
            ));
        }
        // Bottom-up, like `refresh`: children are final before their parent.
        let mut stored = nodes.into_iter().rev().peekable();
        for k in (1..cap).rev() {
            let stored_here = stored.next_if(|n| n.index == k);
            plan.nodes[k] = match (&plan.nodes[2 * k], &plan.nodes[2 * k + 1], stored_here) {
                (Some(a), Some(b), Some(node)) => {
                    let mut below = notify_ids(&a.program.body);
                    below.extend(notify_ids(&b.program.body));
                    if notify_ids(&node.program.body) != below {
                        return bad(format!(
                            "node {k} does not notify exactly what its children notify"
                        ));
                    }
                    Some(Node {
                        program: node.program,
                        tier: node.tier,
                    })
                }
                (Some(_), Some(_), None) => {
                    return bad(format!(
                        "node {k} merges two live children but is not stored"
                    ));
                }
                (_, _, Some(_)) => {
                    return bad(format!(
                        "node {k} is stored but does not merge two live children"
                    ));
                }
                (Some(a), None, None) | (None, Some(a), None) => Some(a.clone()),
                (None, None, None) => None,
            };
        }
        Ok(plan)
    }

    /// Doubles the leaf capacity. The old tree's nodes keep their merged
    /// programs under new indices (old node `k` → `k + 2^depth(k)`), so no
    /// consolidation happens; the new right half is empty.
    fn grow(&mut self) {
        let old_cap = self.cap;
        let new_cap = old_cap * 2;
        let mut nodes: Vec<Option<Node>> = vec![None; new_cap * 2];
        for k in 1..old_cap * 2 {
            if let Some(n) = self.nodes[k].take() {
                let msb = usize::BITS - 1 - k.leading_zeros();
                nodes[k + (1usize << msb)] = Some(n);
            }
        }
        // The new root's only live child is the old tree: passthrough.
        nodes[1] = nodes[2].clone();
        self.nodes = nodes;
        self.cap = new_cap;
        self.leaves.resize(new_cap, None);
        for slot in (old_cap..new_cap).rev() {
            self.free.push(slot);
        }
    }

    /// Installs the plan's memo into `opts` unless the caller brought one.
    fn opts_with_memo(&self, opts: &Options) -> Options {
        if opts.memo.is_some() {
            opts.clone()
        } else {
            Options {
                memo: Some(Arc::clone(&self.memo)),
                ..opts.clone()
            }
        }
    }

    /// Merges the spine above `node` — every internal node from its parent
    /// up to the root — as if `node` held `changed`, without writing
    /// anything: the result lists the new contents bottom-up, for
    /// [`DeltaPlan::install_spine`] to commit once the root has merged.
    /// `sibling(k)` is what node `k` beside the spine holds.
    #[allow(clippy::too_many_arguments)]
    fn merge_spine<'a>(
        &self,
        node: usize,
        changed: Option<&Node>,
        sibling: impl Fn(usize) -> Option<&'a Node>,
        interner: &Interner,
        cm: &CostModel,
        fns: &dyn FnCost,
        opts: &Options,
        report: &mut DeltaReport,
    ) -> Result<Vec<Option<Node>>, ConsolidateError> {
        let budget =
            (!opts.budget.is_unlimited()).then(|| Arc::new(BudgetState::new(&opts.budget)));
        let opts = self.opts_with_memo(opts);
        let mut spine: Vec<Option<Node>> = Vec::new();
        let mut k = node;
        while k > 1 {
            let below = spine.last().map_or(changed, Option::as_ref);
            // `k ^ 1` is the other child of `k`'s parent; even `k` is the left one.
            let (left, right) = match k & 1 {
                0 => (below, sibling(k ^ 1)),
                _ => (sibling(k ^ 1), below),
            };
            let merged = merge_children(
                left,
                right,
                interner,
                cm,
                fns,
                &opts,
                budget.as_ref(),
                report,
            )?;
            spine.push(merged);
            k /= 2;
        }
        Ok(spine)
    }

    /// Writes `changed` into `node` and a spine from
    /// [`DeltaPlan::merge_spine`] into the nodes above it.
    fn install_spine(&mut self, node: usize, changed: Option<Node>, spine: Vec<Option<Node>>) {
        self.nodes[node] = changed;
        let mut k = node;
        for merged in spine {
            k /= 2;
            self.nodes[k] = merged;
        }
    }
}

/// Renames every local of `program` to `d{n}$<name>`. Unlike
/// [`udf_lang::analysis::rename_locals`] the new names are a function of
/// `n` alone, not of how many fresh symbols the interner has handed out: a
/// plan restored into a new interner, and one whose last `add` failed, name
/// their next leaf exactly as a plan that did neither. `$` cannot occur in
/// a source identifier and `n` is never reused by a successful `add`, so
/// live leaves stay disjoint.
fn rename_apart(program: &Program, interner: &mut Interner, n: u64) -> Program {
    rename_locals_with(program, interner, |interner, base| {
        interner.intern(&format!("d{n}${base}"))
    })
}

/// What an internal node holds given its children: their consolidation when
/// both are live, a clone of the only live one (passthrough, no solver
/// work), nothing when neither is.
#[allow(clippy::too_many_arguments)]
fn merge_children(
    left: Option<&Node>,
    right: Option<&Node>,
    interner: &Interner,
    cm: &CostModel,
    fns: &dyn FnCost,
    opts: &Options,
    budget: Option<&Arc<BudgetState>>,
    report: &mut DeltaReport,
) -> Result<Option<Node>, ConsolidateError> {
    Ok(match (left, right) {
        (Some(a), Some(b)) => {
            let Consolidated { program, stats, .. } =
                consolidate_pair_budgeted(&a.program, &b.program, interner, cm, fns, opts, budget)?;
            add_stats(&mut report.stats, &stats);
            report.pairs_recomputed += 1;
            Some(Node {
                program,
                tier: stats.tier.max(a.tier).max(b.tier),
            })
        }
        (Some(a), None) | (None, Some(a)) => {
            report.passthroughs += 1;
            Some(a.clone())
        }
        (None, None) => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::consolidate_many;
    use udf_lang::cost::UniformFnCost;
    use udf_lang::parse::parse_program;
    use udf_lang::pretty;

    fn query(k: u32, interner: &mut Interner) -> Program {
        parse_program(
            &format!(
                "program q{k} @{k} (v) {{ w := inc(v); if (w > {}) {{ notify true; }} else {{ notify false; }} }}",
                k * 10
            ),
            interner,
        )
        .expect("test query parses")
    }

    #[test]
    fn add_remove_roundtrip_tracks_membership() {
        let mut i = Interner::new();
        let cm = CostModel::default();
        let fns = UniformFnCost(10);
        let opts = Options::default();
        let mut plan = DeltaPlan::new();
        assert!(plan.program().is_none());
        for k in 0..5 {
            let q = query(k, &mut i);
            plan.add(&q, &mut i, &cm, &fns, &opts).expect("add");
        }
        assert_eq!(plan.len(), 5);
        assert_eq!(plan.ids().len(), 5);
        plan.remove(ProgId(2), &i, &cm, &fns, &opts)
            .expect("remove");
        assert_eq!(plan.len(), 4);
        assert!(!plan.contains(ProgId(2)));
        assert!(plan.program().is_some());
        assert_eq!(plan.tier(), DegradationTier::Full);
        // Holes are reused.
        let q = query(2, &mut i);
        plan.add(&q, &mut i, &cm, &fns, &opts).expect("re-add");
        assert_eq!(plan.len(), 5);
    }

    #[test]
    fn duplicate_and_unknown_ids_are_rejected() {
        let mut i = Interner::new();
        let cm = CostModel::default();
        let fns = UniformFnCost(10);
        let opts = Options::default();
        let mut plan = DeltaPlan::new();
        let q = query(1, &mut i);
        plan.add(&q, &mut i, &cm, &fns, &opts).expect("add");
        assert_eq!(
            plan.add(&q, &mut i, &cm, &fns, &opts).map(|_| ()),
            Err(DeltaError::DuplicateId(ProgId(1))),
        );
        assert_eq!(
            plan.remove(ProgId(9), &i, &cm, &fns, &opts).map(|_| ()),
            Err(DeltaError::UnknownId(ProgId(9))),
        );
    }

    #[test]
    fn failed_add_rolls_back_cleanly() {
        let mut i = Interner::new();
        let cm = CostModel::default();
        let fns = UniformFnCost(10);
        let opts = Options::default();
        let mut plan = DeltaPlan::new();
        plan.add(&query(0, &mut i), &mut i, &cm, &fns, &opts)
            .expect("add");
        let before = pretty::program(plan.program().expect("plan"), &i);
        // Mismatched parameter list: the spine pair fails.
        let bad = parse_program("program b @7 (x, y) { notify true; }", &mut i).expect("parses");
        assert!(matches!(
            plan.add(&bad, &mut i, &cm, &fns, &opts),
            Err(DeltaError::Consolidate(ConsolidateError::ParamMismatch)),
        ));
        assert_eq!(plan.len(), 1);
        assert!(!plan.contains(ProgId(7)));
        assert_eq!(pretty::program(plan.program().expect("plan"), &i), before);
    }

    /// Everything `add` / `remove` may write, rendered for equality checks
    /// (program text rather than symbols: twins intern in different orders).
    fn whole_tree(plan: &DeltaPlan, i: &Interner) -> String {
        let text = |p: &Program| pretty::program(p, i);
        let nodes: Vec<_> = plan
            .nodes
            .iter()
            .map(|n| n.as_ref().map(|n| (text(&n.program), n.tier)))
            .collect();
        let leaves: Vec<_> = plan
            .leaves
            .iter()
            .map(|l| l.as_ref().map(|l| (l.id, text(&l.original))))
            .collect();
        format!(
            "{nodes:?} {leaves:?} cap {} free {:?} renames {} by_id {:?}",
            plan.cap,
            plan.free,
            plan.renames,
            plan.by_id
                .iter()
                .collect::<std::collections::BTreeMap<_, _>>()
        )
    }

    #[test]
    fn failed_add_into_a_full_tree_leaves_no_ghost_node() {
        // The rejected program used to be cloned into every passthrough node
        // below the failing pair (here nodes[3] of the doubled tree), and the
        // next `remove` then failed half-way through its own writes.
        let mut i = Interner::new();
        let cm = CostModel::default();
        let fns = UniformFnCost(10);
        let opts = Options::default();
        let mut plan = DeltaPlan::new();
        for k in 0..2 {
            plan.add(&query(k, &mut i), &mut i, &cm, &fns, &opts)
                .expect("add");
        }
        assert_eq!(
            (plan.cap, plan.free.len()),
            (2, 0),
            "the next add must grow"
        );
        let before = whole_tree(&plan, &i);
        let src = "program b @7 (x, y) { z := x; if (z > y) { notify true; } }";
        let bad = parse_program(src, &mut i).expect("parses");
        assert!(matches!(
            plan.add(&bad, &mut i, &cm, &fns, &opts),
            Err(DeltaError::Consolidate(ConsolidateError::ParamMismatch)),
        ));
        assert_eq!(
            whole_tree(&plan, &i),
            before,
            "a failed add must not write anything"
        );
        plan.remove(ProgId(0), &i, &cm, &fns, &opts)
            .expect("remove after the failed add");
        assert_eq!(plan.ids(), vec![ProgId(1)]);
        let root = plan.program().expect("q1 is still registered");
        assert_eq!(notify_ids(&root.body), std::iter::once(ProgId(1)).collect());
        // And the plan goes on as one that never saw the bad program.
        let mut twin = DeltaPlan::new();
        for k in 0..2 {
            twin.add(&query(k, &mut i), &mut i, &cm, &fns, &opts)
                .expect("add");
        }
        twin.remove(ProgId(0), &i, &cm, &fns, &opts)
            .expect("remove");
        assert_eq!(whole_tree(&plan, &i), whole_tree(&twin, &i));
    }

    #[test]
    fn restore_rebuilds_the_exported_tree_without_the_solver() {
        let mut i = Interner::new();
        let cm = CostModel::default();
        let fns = UniformFnCost(10);
        let opts = Options::default();
        let mut plan = DeltaPlan::new();
        for k in 0..5 {
            plan.add(&query(k, &mut i), &mut i, &cm, &fns, &opts)
                .expect("add");
        }
        plan.remove(ProgId(1), &i, &cm, &fns, &opts)
            .expect("remove");
        plan.remove(ProgId(4), &i, &cm, &fns, &opts)
            .expect("remove");
        let image = plan.export();
        assert_eq!(image.leaves.len(), 3);
        assert_eq!(
            image.nodes.len(),
            2,
            "q2|q3 and q0|(q2 q3); the other four are passthroughs"
        );
        let restored = DeltaPlan::restore(image.clone()).expect("a plan's own image restores");
        assert_eq!(whole_tree(&restored, &i), whole_tree(&plan, &i));
        assert_eq!(restored.export(), image);
    }

    #[test]
    fn restore_rejects_images_no_plan_could_have_exported() {
        let mut i = Interner::new();
        let cm = CostModel::default();
        let fns = UniformFnCost(10);
        let opts = Options::default();
        let mut plan = DeltaPlan::new();
        for k in 0..3 {
            plan.add(&query(k, &mut i), &mut i, &cm, &fns, &opts)
                .expect("add");
        }
        let image = plan.export();
        let rejected = |edit: &dyn Fn(&mut PlanImage), what: &str| {
            let mut image = image.clone();
            edit(&mut image);
            match DeltaPlan::restore(image) {
                Err(DeltaError::InvalidImage(why)) => {
                    assert!(why.contains(what), "{why:?} should mention {what:?}");
                }
                other => panic!("expected InvalidImage({what}), got {other:?}"),
            }
        };
        rejected(&|im| im.cap = 3, "power of two");
        rejected(&|im| im.free.clear(), "do not fill");
        rejected(&|im| im.free[0] = im.leaves[0].slot, "listed twice");
        rejected(&|im| im.free[0] = 9, "outside capacity");
        rejected(
            &|im| im.leaves[1].renamed = im.leaves[0].renamed.clone(),
            "its own id",
        );
        rejected(
            &|im| im.nodes[0].program = im.leaves[0].renamed.clone(),
            "children notify",
        );
        rejected(&|im| im.nodes.reverse(), "increasing order");
        rejected(&|im| im.nodes.clear(), "is not stored");
        rejected(
            &|im| {
                let outside = NodeImage {
                    index: 4,
                    ..im.nodes[0].clone()
                };
                im.nodes.push(outside);
            },
            "inside 1..4",
        );
        rejected(
            &|im| {
                let passthrough = NodeImage {
                    index: 3,
                    ..im.nodes[0].clone()
                };
                im.nodes.push(passthrough);
            },
            "does not merge two live children",
        );
        rejected(
            &|im| {
                let dup = LeafImage {
                    slot: im.free[0],
                    ..im.leaves[0].clone()
                };
                im.free.clear();
                im.leaves.push(dup);
            },
            "registered twice",
        );
    }

    #[test]
    fn multi_notify_program_is_rejected() {
        let mut i = Interner::new();
        let cm = CostModel::default();
        let fns = UniformFnCost(10);
        let opts = Options::default();
        let mut plan = DeltaPlan::new();
        let two = parse_program(
            "program t @3 (v) { notify @3 true; notify @4 false; }",
            &mut i,
        );
        if let Ok(two) = two {
            assert_eq!(
                plan.add(&two, &mut i, &cm, &fns, &opts).map(|_| ()),
                Err(DeltaError::IdMismatch(ProgId(3))),
            );
        }
    }

    #[test]
    fn growth_preserves_the_registered_set() {
        let mut i = Interner::new();
        let cm = CostModel::default();
        let fns = UniformFnCost(10);
        let opts = Options::default();
        let mut plan = DeltaPlan::new();
        let mut grew = false;
        for k in 0..9 {
            let r = plan
                .add(&query(k, &mut i), &mut i, &cm, &fns, &opts)
                .expect("add");
            grew |= r.grew;
        }
        assert!(grew, "9 adds must outgrow the initial capacity");
        assert_eq!(plan.len(), 9);
        let ids: Vec<u32> = {
            let mut v: Vec<u32> = plan.ids().iter().map(|id| id.0).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(ids, (0..9).collect::<Vec<u32>>());
    }

    #[test]
    fn delta_plan_consolidates_like_batch_on_small_sets() {
        // Structural sanity at the consolidation level: the delta plan's
        // merged program applies real rewrites (not mere concatenation) —
        // observational equivalence against `consolidate_many` is asserted
        // end-to-end by the `delta_equivalence` integration tests.
        let mut i = Interner::new();
        let cm = CostModel::default();
        let fns = UniformFnCost(10);
        let opts = Options::default();
        let mut plan = DeltaPlan::new();
        let programs: Vec<Program> = (0..4).map(|k| query(k, &mut i)).collect();
        let mut delta_checks = 0;
        for q in &programs {
            let r = plan.add(q, &mut i, &cm, &fns, &opts).expect("add");
            delta_checks += r.stats.solver.checks;
        }
        let batch = consolidate_many(&programs, &mut i, &cm, &fns, &opts, false).expect("batch");
        // Both paths performed real consolidation work.
        assert!(delta_checks > 0);
        assert!(batch.stats.solver.checks > 0);
        // The merged program calls `inc` once per distinct argument chain —
        // consolidation shared the common prefix in both paths.
        let d = pretty::program(plan.program().expect("plan"), &i);
        assert!(d.matches("inc").count() <= 4);
    }
}

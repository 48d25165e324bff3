//! User-defined aggregations (UDAFs).
//!
//! An aggregation is the triple of the Homomorphism Calculus for
//! user-defined aggregations (Wang et al.): an initial state, a per-record
//! `fold(state, record)` step, and a `merge(state, state)` combiner. Both
//! bodies are ordinary statements of the UDF language:
//!
//! * **fold** reads the record parameters and the current state slots and
//!   reassigns the state slots (plus any scratch locals);
//! * **merge** reads the left state (the slot names) and the right state
//!   (each slot's `rhs` alias) and reassigns the left slots. Merge may not
//!   call library functions — it combines already-computed partial states —
//!   which is what lets the engine run it without a record in scope.
//!
//! Parallel execution is only sound when `merge` really is a homomorphism
//! for `fold`; [`crate::agg`] carries the *definitions*, the prover living
//! in the `consolidate` crate discharges that obligation per definition and
//! the engine falls back to a sequential single-shard fold when it cannot.
//!
//! # Concrete syntax
//!
//! The language's one grammar, in [`crate::parse`], reads aggregates too
//! ([`parse_agg`], [`parse_aggs`]): a program's header, then one
//! `state s = init;` declaration per slot, then the `fold { … }` and
//! `merge { … }` blocks. Inside `merge` the right-hand partial state is
//! visible as `rhs_<slot>`.

use crate::analysis::{assigned_vars, called_fns, first_unassigned_read, notify_ids, read_vars};
use crate::ast::{ProgId, Program, Stmt};
use crate::canon::{program_hash, Fnv128};
use crate::intern::{Interner, Symbol};
use std::collections::BTreeSet;
use std::fmt;

pub use crate::parse::{parse_agg, parse_aggs};

/// Domain-separation byte for [`agg_hash`] (distinct from program set keys
/// and entailment keys so an aggregation key can never collide with either).
const AGG_HASH_DOMAIN: u8 = 0xA6;
/// Domain-separation byte for [`agg_set_key`].
const AGG_SET_DOMAIN: u8 = 0xA7;

/// One named state slot of an aggregation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StateSlot {
    /// Slot name; `fold` and `merge` read and reassign this variable.
    pub name: Symbol,
    /// Initial value of the slot (the `init` element of the triple).
    pub init: i64,
    /// Name under which `merge` sees the right-hand partial state's copy of
    /// this slot (conventionally `rhs_<name>`).
    pub rhs: Symbol,
}

/// A user-defined aggregation definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AggDef {
    /// Identifier of the aggregation; per-UDAF results and quarantine
    /// entries are keyed on it, like `notify` ids for filter queries.
    pub id: ProgId,
    /// Record parameters visible to `fold` (shared scan schema).
    pub params: Vec<Symbol>,
    /// State slots with their initial values and merge-side aliases.
    pub state: Vec<StateSlot>,
    /// Per-record step: may read `params ∪ state`, call library functions,
    /// and reassign state slots and scratch locals.
    pub fold: Stmt,
    /// Partial-state combiner: may read `state ∪ rhs` (and its own locals),
    /// reassigns state slots; call- and notify-free.
    pub merge: Stmt,
}

/// Validation failure for an [`AggDef`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AggError {
    /// The aggregation declares no state slots.
    EmptyState,
    /// A name is used for more than one of: parameter, state slot, rhs alias.
    DuplicateName(String),
    /// `fold` or `merge` contains a `notify` statement.
    NotifyInAggregate,
    /// `merge` calls a library function (named).
    CallInMerge(String),
    /// `fold` assigns a record parameter or an rhs alias (named).
    FoldAssignsInput(String),
    /// `merge` assigns a record parameter or an rhs alias (named).
    MergeAssignsInput(String),
    /// `merge` reads a variable outside `state ∪ rhs ∪ own locals` (named);
    /// in particular merge may not reference record parameters.
    MergeReadsForeign(String),
    /// `fold` reads a variable outside `params ∪ state ∪ own locals` (named).
    FoldReadsForeign(String),
    /// `fold` or `merge` may read one of its own locals (named) before any
    /// assignment reaches it.
    MaybeUninitialized(String),
}

impl fmt::Display for AggError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggError::EmptyState => write!(f, "aggregation declares no state slots"),
            AggError::DuplicateName(n) => write!(f, "name `{n}` declared more than once"),
            AggError::NotifyInAggregate => write!(f, "notify is not allowed in fold/merge"),
            AggError::CallInMerge(n) => write!(f, "merge calls library function `{n}`"),
            AggError::FoldAssignsInput(n) => write!(f, "fold assigns input `{n}`"),
            AggError::MergeAssignsInput(n) => write!(f, "merge assigns input `{n}`"),
            AggError::MergeReadsForeign(n) => write!(f, "merge reads foreign variable `{n}`"),
            AggError::FoldReadsForeign(n) => write!(f, "fold reads foreign variable `{n}`"),
            AggError::MaybeUninitialized(n) => {
                write!(f, "variable `{n}` may be read before initialization")
            }
        }
    }
}

impl std::error::Error for AggError {}

impl AggDef {
    /// Checks the well-formedness rules listed on [`AggError`].
    ///
    /// Beyond the scope checks, every read must be definitely assigned
    /// (`first_unassigned_read`): `fold` starts from `params ∪ state`,
    /// `merge` from `state ∪ rhs`. So no scratch local is ever read unset, and
    /// a compiled body — whose registers start at 0 — computes exactly what
    /// the interpreter does.
    ///
    /// # Errors
    ///
    /// Returns the first violated rule.
    pub fn validate(&self, interner: &Interner) -> Result<(), AggError> {
        if self.state.is_empty() {
            return Err(AggError::EmptyState);
        }
        let mut seen: BTreeSet<Symbol> = BTreeSet::new();
        let all_names = self
            .params
            .iter()
            .copied()
            .chain(self.state.iter().flat_map(|s| [s.name, s.rhs]));
        for n in all_names {
            if !seen.insert(n) {
                return Err(AggError::DuplicateName(interner.resolve(n).to_string()));
            }
        }
        if !notify_ids(&self.fold).is_empty() || !notify_ids(&self.merge).is_empty() {
            return Err(AggError::NotifyInAggregate);
        }
        if let Some(f) = called_fns(&self.merge).into_iter().next() {
            return Err(AggError::CallInMerge(interner.resolve(f).to_string()));
        }

        let params: BTreeSet<Symbol> = self.params.iter().copied().collect();
        let state: BTreeSet<Symbol> = self.state.iter().map(|s| s.name).collect();
        let rhs: BTreeSet<Symbol> = self.state.iter().map(|s| s.rhs).collect();

        let fold_assigned = assigned_vars(&self.fold);
        if let Some(v) = fold_assigned
            .iter()
            .find(|v| params.contains(v) || rhs.contains(v))
        {
            return Err(AggError::FoldAssignsInput(interner.resolve(*v).to_string()));
        }
        if let Some(v) = read_vars(&self.fold)
            .into_iter()
            .find(|v| !params.contains(v) && !state.contains(v) && !fold_assigned.contains(v))
        {
            return Err(AggError::FoldReadsForeign(interner.resolve(v).to_string()));
        }

        let merge_assigned = assigned_vars(&self.merge);
        if let Some(v) = merge_assigned
            .iter()
            .find(|v| params.contains(v) || rhs.contains(v))
        {
            return Err(AggError::MergeAssignsInput(
                interner.resolve(*v).to_string(),
            ));
        }
        if let Some(v) = read_vars(&self.merge)
            .into_iter()
            .find(|v| !state.contains(v) && !rhs.contains(v) && !merge_assigned.contains(v))
        {
            return Err(AggError::MergeReadsForeign(interner.resolve(v).to_string()));
        }

        let fold_entry: BTreeSet<Symbol> = params.union(&state).copied().collect();
        let merge_entry: BTreeSet<Symbol> = state.union(&rhs).copied().collect();
        let unset = first_unassigned_read(&self.fold, &fold_entry)
            .or_else(|| first_unassigned_read(&self.merge, &merge_entry));
        if let Some(v) = unset {
            return Err(AggError::MaybeUninitialized(
                interner.resolve(v).to_string(),
            ));
        }
        Ok(())
    }

    /// Slot names, in declaration order.
    pub fn state_names(&self) -> Vec<Symbol> {
        self.state.iter().map(|s| s.name).collect()
    }

    /// Rhs aliases, in declaration order.
    pub fn rhs_names(&self) -> Vec<Symbol> {
        self.state.iter().map(|s| s.rhs).collect()
    }

    /// Initial state vector, in declaration order.
    pub fn init_state(&self) -> Vec<i64> {
        self.state.iter().map(|s| s.init).collect()
    }

    /// The fold step viewed as a closed [`Program`] over
    /// `state ++ params` — the form hashed by [`agg_hash`] and symbolically
    /// executed by the homomorphism prover.
    pub fn fold_view(&self) -> Program {
        let mut ps = self.state_names();
        ps.extend(self.params.iter().copied());
        Program::new(self.id, ps, self.fold.clone())
    }

    /// The merge step viewed as a closed [`Program`] over `state ++ rhs`.
    pub fn merge_view(&self) -> Program {
        let mut ps = self.state_names();
        ps.extend(self.rhs_names());
        Program::new(self.id, ps, self.merge.clone())
    }

    /// Whether either body contains a `while` loop. The homomorphism prover
    /// refuses loopy definitions up front (strongest-postcondition havocs
    /// loop targets, so the obligation could never be discharged anyway).
    pub fn has_loop(&self) -> bool {
        fn loopy(s: &Stmt) -> bool {
            match s {
                Stmt::While(_, _) => true,
                Stmt::Seq(a, b) | Stmt::If(_, a, b) => loopy(a) || loopy(b),
                Stmt::Skip | Stmt::Assign(_, _) | Stmt::Notify(_, _) => false,
            }
        }
        loopy(&self.fold) || loopy(&self.merge)
    }
}

/// Alpha-invariant structural hash of one aggregation definition.
///
/// Two definitions that differ only in variable naming hash identically
/// (both views are canonicalized via [`program_hash`], which De Bruijn-renames
/// parameters and locals). This is the memo key for homomorphism proofs: a
/// warm hit skips the solver entirely.
pub fn agg_hash(def: &AggDef, interner: &Interner) -> u128 {
    let mut h = Fnv128::new();
    h.byte(AGG_HASH_DOMAIN);
    h.u64(def.state.len() as u64);
    for s in &def.state {
        h.i64(s.init);
    }
    h.u128(program_hash(&def.fold_view(), interner));
    h.u128(program_hash(&def.merge_view(), interner));
    h.finish()
}

/// Order-*sensitive* combined key for a set of aggregations sharing a scan.
///
/// Unlike `canon::set_key` this does not sort: a cached aggregation plan
/// stores per-definition proof verdicts positionally, so permuted sets must
/// key differently.
pub fn agg_set_key(defs: &[AggDef], interner: &Interner) -> u128 {
    let mut h = Fnv128::new();
    h.byte(AGG_SET_DOMAIN);
    h.u64(defs.len() as u64);
    for d in defs {
        h.u128(agg_hash(d, interner));
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum_src() -> &'static str {
        "aggregate sumvol @3 (id) {
            state s = 0;
            fold  { v := volumeAt(0); s := s + v; }
            merge { s := s + rhs_s; }
        }"
    }

    #[test]
    fn parses_and_validates_sum() {
        let mut it = Interner::new();
        let d = parse_agg(sum_src(), &mut it).unwrap();
        assert_eq!(d.id, ProgId(3));
        assert_eq!(d.params.len(), 1);
        assert_eq!(d.state.len(), 1);
        assert_eq!(d.init_state(), vec![0]);
        assert!(!d.has_loop());
        assert_eq!(it.resolve(d.state[0].rhs), "rhs_s");
    }

    #[test]
    fn rejects_notify_and_merge_calls() {
        let mut it = Interner::new();
        let bad = "aggregate a @1 (x) { state s = 0; fold { notify true; } merge { s := rhs_s; } }";
        assert!(parse_agg(bad, &mut it).unwrap_err().contains("notify"));
        let bad2 = "aggregate a @1 (x) { state s = 0; fold { s := x; } merge { s := f(rhs_s); } }";
        assert!(parse_agg(bad2, &mut it)
            .unwrap_err()
            .contains("merge calls"));
    }

    #[test]
    fn rejects_scope_violations() {
        let mut it = Interner::new();
        // fold assigns a parameter
        let bad = "aggregate a @1 (x) { state s = 0; fold { x := 1; } merge { s := rhs_s; } }";
        assert!(parse_agg(bad, &mut it)
            .unwrap_err()
            .contains("fold assigns"));
        // merge reads a record parameter
        let bad2 = "aggregate a @1 (x) { state s = 0; fold { s := x; } merge { s := x + rhs_s; } }";
        assert!(parse_agg(bad2, &mut it).unwrap_err().contains("foreign"));
        // fold reads an undeclared variable
        let bad3 = "aggregate a @1 (x) { state s = 0; fold { s := q; } merge { s := rhs_s; } }";
        assert!(parse_agg(bad3, &mut it).unwrap_err().contains("foreign"));
    }

    #[test]
    fn rejects_one_sided_local_in_fold_and_merge() {
        let mut it = Interner::new();
        let fold = "aggregate a @1 (x) { state s = 0;
            fold { if (x < 0) { t := x; } s := s + t; }
            merge { s := s + rhs_s; } }";
        let err = parse_agg(fold, &mut it).unwrap_err();
        assert_eq!(
            err,
            AggError::MaybeUninitialized("t".to_string()).to_string()
        );
        let merge = "aggregate a @1 (x) { state s = 0;
            fold { s := s + x; }
            merge { if (rhs_s < 0) { t := rhs_s; } else { skip; } s := s + t; } }";
        let err = parse_agg(merge, &mut it).unwrap_err();
        assert_eq!(
            err,
            AggError::MaybeUninitialized("t".to_string()).to_string()
        );
        // Assigned on both branches, or before a loop that reassigns it: fine.
        let ok = "aggregate a @1 (x) { state s = 0;
            fold { if (x < 0) { t := x; } else { t := 0; }
                   i := 0; while (i < 2) { t := t + 1; i := i + 1; } s := s + t; }
            merge { s := s + rhs_s; } }";
        assert!(parse_agg(ok, &mut it).is_ok());
    }

    #[test]
    fn hash_is_alpha_invariant_and_init_sensitive() {
        let mut it = Interner::new();
        let a = parse_agg(sum_src(), &mut it).unwrap();
        let b = parse_agg(
            "aggregate sumvol @3 (ident) {
                state acc = 0;
                fold  { w := volumeAt(0); acc := acc + w; }
                merge { acc := acc + rhs_acc; }
            }",
            &mut it,
        )
        .unwrap();
        assert_eq!(agg_hash(&a, &it), agg_hash(&b, &it));
        let c = parse_agg(
            "aggregate sumvol @3 (id) {
                state s = 7;
                fold  { v := volumeAt(0); s := s + v; }
                merge { s := s + rhs_s; }
            }",
            &mut it,
        )
        .unwrap();
        assert_ne!(agg_hash(&a, &it), agg_hash(&c, &it));
    }

    #[test]
    fn set_key_is_order_sensitive() {
        let mut it = Interner::new();
        let a = parse_agg(sum_src(), &mut it).unwrap();
        let b = parse_agg(
            "aggregate cnt @4 (id) { state c = 0; fold { c := c + 1; } merge { c := c + rhs_c; } }",
            &mut it,
        )
        .unwrap();
        let ab = agg_set_key(&[a.clone(), b.clone()], &it);
        let ba = agg_set_key(&[b, a], &it);
        assert_ne!(ab, ba);
    }

    #[test]
    fn parse_aggs_reads_many() {
        let mut it = Interner::new();
        let src = format!(
            "{}\naggregate cnt @4 (id) {{ state c = 0; fold {{ c := c + 1; }} merge {{ c := c + rhs_c; }} }}",
            sum_src()
        );
        let defs = parse_aggs(&src, &mut it).unwrap();
        assert_eq!(defs.len(), 2);
        assert_eq!(defs[1].id, ProgId(4));
    }
}

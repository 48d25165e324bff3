//! Cross-thread entailment memoization.
//!
//! `consolidate_many` reduces its query set along a tree of pairs, on a
//! few threads; every pair owns an independent [`SymbolicCtx`] and so
//! an independent per-context entailment cache. Structurally similar pairs
//! (query families are generated from templates, so similarity is the common
//! case) fire the *same* obligations `Ψ ⊨ φ` up to variable renaming, and
//! each pair re-pays the SMT bill.
//!
//! [`EntailmentMemo`] is a process-wide verdict table keyed on the canonical
//! hash of the query ([`udf_smt::canon::entailment_key`], resumed per
//! question from a kept prefix of Ψ's stream): variables are
//! De Bruijn-numbered jointly across `(Ψ, φ)`, so SSA fresh counters and
//! per-run renaming prefixes vanish. The table is sharded under `RwLock`s
//! and shared via `Arc` across pair threads *and across consolidation runs*
//! — this is what makes a warm second run solver-free.
//!
//! A memo hit does **not** charge the [`crate::ConsolidationBudget`] solver
//! query counter: budgets bound *solver work*, and a hit performs none.
//!
//! [`SymbolicCtx`]: crate::symbolic::SymbolicCtx

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

const SHARDS: usize = 16;

/// One memoized verdict plus the queries whose predicates contributed to
/// it (scope tags are [`udf_lang::ast::ProgId`] values).
#[derive(Debug, Clone)]
struct MemoEntry {
    verdict: bool,
    /// Sorted, deduplicated notify ids of every program pair whose
    /// consolidation stored *or reused* this verdict. Empty for verdicts
    /// recorded through the unscoped `EntailmentMemo::store`.
    scope: Vec<u32>,
}

/// A sharded, thread-safe memo table mapping canonical entailment-query
/// hashes to verdicts. Cheap to share (`Arc`), cheap to hit (one shard read
/// lock).
///
/// # Scoped invalidation
///
/// Verdicts are pure logical facts, but a deployment may *distrust* them:
/// when a query's consolidated plan diverges at runtime (plan-guard trip),
/// every verdict derived from that query's predicates is suspect — serving
/// it on re-registration would re-prove the same bad plan without ever
/// touching the solver. `EntailmentMemo::store_scoped` tags each verdict
/// with the notify ids of the programs that produced it (and
/// `EntailmentMemo::lookup_scoped` widens the tag set on reuse), so
/// [`EntailmentMemo::invalidate_query`] can drop exactly the entries that
/// query's predicates ever touched.
pub struct EntailmentMemo {
    shards: Vec<RwLock<HashMap<u128, MemoEntry>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for EntailmentMemo {
    fn default() -> EntailmentMemo {
        EntailmentMemo::new()
    }
}

impl std::fmt::Debug for EntailmentMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EntailmentMemo")
            .field("entries", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

impl EntailmentMemo {
    /// Creates an empty memo table.
    pub(crate) fn new() -> EntailmentMemo {
        EntailmentMemo {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: u128) -> &RwLock<HashMap<u128, MemoEntry>> {
        &self.shards[(key as usize) % SHARDS]
    }

    /// Looks up a verdict. Counts a hit or a miss.
    pub(crate) fn lookup(&self, key: u128) -> Option<bool> {
        let got = self
            .shard(key)
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&key)
            .map(|e| e.verdict);
        match got {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        got
    }

    /// Looks up a verdict on behalf of the queries in `scope` (notify ids).
    /// On a hit the entry's scope is widened to include `scope`, so a later
    /// [`EntailmentMemo::invalidate_query`] for *any* query that ever
    /// relied on this verdict removes it. Counts a hit or a miss.
    pub(crate) fn lookup_scoped(&self, key: u128, scope: &[u32]) -> Option<bool> {
        if scope.is_empty() {
            return self.lookup(key);
        }
        // Fast path: a read lock suffices when the scope is already covered.
        let (verdict, covered) = {
            let shard = self.shard(key).read().unwrap_or_else(|e| e.into_inner());
            match shard.get(&key) {
                Some(e) => (
                    Some(e.verdict),
                    scope.iter().all(|q| e.scope.binary_search(q).is_ok()),
                ),
                None => (None, true),
            }
        };
        match verdict {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                if !covered {
                    let mut shard = self.shard(key).write().unwrap_or_else(|e| e.into_inner());
                    if let Some(e) = shard.get_mut(&key) {
                        for &q in scope {
                            if let Err(at) = e.scope.binary_search(&q) {
                                e.scope.insert(at, q);
                            }
                        }
                    }
                }
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Records a verdict with no scope (never removed by
    /// [`EntailmentMemo::invalidate_query`]).
    #[cfg(test)]
    pub(crate) fn store(&self, key: u128, verdict: bool) {
        self.store_scoped(key, verdict, &[]);
    }

    /// Records a verdict derived from the queries in `scope` (notify ids).
    /// Re-storing an existing key unions the scopes.
    pub(crate) fn store_scoped(&self, key: u128, verdict: bool, scope: &[u32]) {
        let mut shard = self.shard(key).write().unwrap_or_else(|e| e.into_inner());
        match shard.get_mut(&key) {
            Some(e) => {
                e.verdict = verdict;
                for &q in scope {
                    if let Err(at) = e.scope.binary_search(&q) {
                        e.scope.insert(at, q);
                    }
                }
            }
            None => {
                let mut sorted = scope.to_vec();
                sorted.sort_unstable();
                sorted.dedup();
                shard.insert(
                    key,
                    MemoEntry {
                        verdict,
                        scope: sorted,
                    },
                );
            }
        }
    }

    /// Drops every verdict whose scope contains `query` (a notify id),
    /// returning how many were removed. Call when that query's plan is
    /// demoted or quarantined at runtime: verdicts its predicates touched
    /// must be re-proved by the solver, not served from the table.
    pub fn invalidate_query(&self, query: u32) -> usize {
        let mut removed = 0;
        for s in &self.shards {
            let mut shard = s.write().unwrap_or_else(|e| e.into_inner());
            let before = shard.len();
            shard.retain(|_, e| e.scope.binary_search(&query).is_err());
            removed += before - shard.len();
        }
        removed
    }

    /// Number of memoized verdicts.
    pub(crate) fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }

    /// Total lookup hits since creation.
    pub(crate) fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Total lookup misses since creation.
    pub(crate) fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_store_roundtrip() {
        let memo = EntailmentMemo::new();
        assert_eq!(memo.lookup(42), None);
        memo.store(42, true);
        memo.store(7, false);
        assert_eq!(memo.lookup(42), Some(true));
        assert_eq!(memo.lookup(7), Some(false));
        assert_eq!(memo.len(), 2);
        assert_eq!(memo.hits(), 2);
        assert_eq!(memo.misses(), 1);
    }

    #[test]
    fn shared_across_threads() {
        let memo = std::sync::Arc::new(EntailmentMemo::new());
        std::thread::scope(|scope| {
            for t in 0..4u128 {
                let memo = std::sync::Arc::clone(&memo);
                scope.spawn(move || {
                    for k in 0..64 {
                        memo.store(t * 1000 + k, k % 2 == 0);
                    }
                });
            }
        });
        assert_eq!(memo.len(), 256);
        assert_eq!(memo.lookup(1001), Some(false));
    }

    #[test]
    fn scoped_invalidation_removes_exactly_the_tagged_entries() {
        let memo = EntailmentMemo::new();
        memo.store_scoped(1, true, &[10, 11]);
        memo.store_scoped(2, false, &[11]);
        memo.store_scoped(3, true, &[12]);
        memo.store(4, true); // unscoped: survives any invalidation
        assert_eq!(memo.invalidate_query(11), 2);
        assert_eq!(memo.lookup(1), None);
        assert_eq!(memo.lookup(2), None);
        assert_eq!(memo.lookup(3), Some(true));
        assert_eq!(memo.lookup(4), Some(true));
        assert_eq!(memo.invalidate_query(11), 0);
    }

    #[test]
    fn scoped_lookup_widens_the_scope_on_reuse() {
        let memo = EntailmentMemo::new();
        memo.store_scoped(7, true, &[1, 2]);
        // A structurally identical obligation from queries {3, 4} reuses the
        // verdict; the entry is now suspect for all four queries.
        assert_eq!(memo.lookup_scoped(7, &[3, 4]), Some(true));
        assert_eq!(memo.invalidate_query(3), 1);
        assert_eq!(memo.lookup(7), None);
    }
}

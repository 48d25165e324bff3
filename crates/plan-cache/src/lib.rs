//! A concurrent cache of consolidated query plans.
//!
//! Consolidation (the Ω engine of PLDI'14 Figure 8) is pure static analysis:
//! the same ordered UDF set under the same options always produces the same
//! merged program. The paper's deployment amortizes that cost by
//! consolidating once and streaming millions of records; this crate extends
//! the amortization *across runs and processes*:
//!
//! * [`PlanKey`] — a stable 128-bit key: the canonical (alpha-renamed)
//!   structural hash of the ordered program set ([`udf_lang::canon`]) folded
//!   with a fingerprint of the plan-relevant options and cost model.
//! * [`PlanCache`] — a sharded LRU (`RwLock` per shard, capacity + byte
//!   budget, hit/miss/insert/eviction counters) storing each plan as its
//!   wire text — interner-independent, so one cache serves many engines —
//!   together with its [`ConsolidationStats`] and [`DegradationTier`].
//! * [`portable`] — the one codec between [`udf_lang::ast`] and that wire
//!   text ([`write_program`] / [`read_program`]); a hit is one
//!   `read_program` against the caller's interner.
//! * [`PlanCache::save`] / [`PlanCache::load`] — a hand-rolled textual
//!   snapshot for warm starts across processes.
//! * [`consolidate_many_cached`] — the drop-in consolidation entry point:
//!   serve a cached plan when one is usable, otherwise consolidate and fill
//!   the cache.
//!
//! # Tier-upgrade rule
//!
//! A budgeted run can degrade ([`DegradationTier::Partial`] /
//! [`DegradationTier::Sequential`]); caching must never *freeze* that
//! degradation. A hit is served as-is only when the stored plan is `Full`
//! or the current budget is already exhausted; otherwise the set is
//! re-consolidated and the stored plan is replaced only if the fresh tier is
//! at least as good. Callers therefore never observe a cached plan worse
//! than what a fresh run under their budget would produce.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod framing;
pub mod portable;
mod snapshot;

use consolidate::{
    BudgetState, Consolidated, ConsolidateError, ConsolidationStats, DegradationTier, Options,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;
use udf_lang::ast::{BoolExpr, Program};
use udf_lang::canon::Fnv128;
use udf_lang::cost::{CostModel, FnCost};
use udf_lang::intern::Interner;

pub use framing::RecoveryIncident;
pub use portable::{read_program, write_program};
pub use snapshot::SnapshotRecovery;

/// Which execution backend a consolidated plan is compiled for.
///
/// The engine runs a merged plan's register bytecode either a record at a
/// time or through the columnar batch executor (struct-of-arrays record
/// batches). The backend is part of the plan fingerprint — see
/// [`PlanKey::derive`] — so a cache hit never serves a plan keyed for the
/// other backend.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum ExecBackend {
    /// The scalar register VM interprets each record individually.
    #[default]
    PerRecord,
    /// Register bytecode executed block-at-a-time over record batches.
    Columnar,
}

impl ExecBackend {
    /// Short lowercase label for reports and `--backend` flags.
    pub fn as_str(&self) -> &'static str {
        match self {
            ExecBackend::PerRecord => "per-record",
            ExecBackend::Columnar => "columnar",
        }
    }

    /// Parses the labels produced by [`ExecBackend::as_str`].
    pub fn parse(s: &str) -> Option<ExecBackend> {
        match s {
            "per-record" => Some(ExecBackend::PerRecord),
            "columnar" => Some(ExecBackend::Columnar),
            _ => None,
        }
    }
}

/// Stable cache key: canonical program-set hash × plan-relevant options.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PlanKey(pub u128);

impl std::fmt::Display for PlanKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl PlanKey {
    /// Derives the key for consolidating `programs` (in order) under `opts`
    /// and `cm`, compiled for `backend`.
    ///
    /// The fingerprint covers everything that shapes the *output plan*:
    /// program structure (alpha-renamed), entailment mode, rule policies and
    /// structural limits, solver resource limits (they decide which
    /// entailments prove), the cost model, and the execution backend the
    /// plan is lowered for. It deliberately excludes the
    /// [`consolidate::ConsolidationBudget`]: budgets bound *work*, not the
    /// target plan, and the tier-upgrade rule handles budget-degraded
    /// entries. The external `FnCost` oracle cannot be fingerprinted;
    /// callers using per-function costs beyond [`CostModel`] should keep
    /// separate caches per cost assignment.
    pub fn derive(
        programs: &[Program],
        interner: &Interner,
        opts: &Options,
        cm: &CostModel,
        backend: ExecBackend,
    ) -> PlanKey {
        let mut h = Fnv128::new();
        h.u128(udf_lang::canon::set_key(programs, interner));
        h.byte(match backend {
            ExecBackend::PerRecord => 1,
            ExecBackend::Columnar => 2,
        });
        h.byte(match opts.mode {
            consolidate::EntailmentMode::Smt => 1,
            consolidate::EntailmentMode::Syntactic => 2,
        });
        h.byte(match opts.if_policy {
            consolidate::IfPolicy::Heuristic => 1,
            consolidate::IfPolicy::AlwaysIf3 => 2,
            consolidate::IfPolicy::AlwaysIf4 => 3,
            consolidate::IfPolicy::AlwaysIf5 => 4,
        });
        h.byte(u8::from(opts.loop_fusion));
        // Pushdown shapes the stored plan (a `Prefilter` section), so
        // prefilter-on and prefilter-off occupy distinct entries.
        h.byte(u8::from(opts.prefilter));
        // Compile-time limits of Ω: not settable, but editing one changes
        // which rewrites are found, so it must change the key.
        h.u64(consolidate::rules::IF3_SIZE_LIMIT as u64);
        h.u64(consolidate::rules::MAX_DEPTH as u64);
        h.u64(consolidate::rules::MAX_PAIR_QUERIES);
        h.u64(consolidate::simplify::MAX_CANDIDATE_CHECKS as u64);
        h.u64(consolidate::simplify::TRIVIAL_COST);
        h.u64(consolidate::invariants::MAX_CANDIDATES as u64);
        h.u64(consolidate::invariants::MAX_ROUNDS as u64);
        h.u64(opts.solver.max_conflicts);
        h.u64(opts.solver.max_final_checks);
        h.u64(opts.solver.theory_limits.lia_budget);
        h.u64(opts.solver.theory_limits.max_probe_pairs as u64);
        h.u64(opts.solver.theory_limits.max_rounds as u64);
        for cost in cm.components() {
            h.u64(cost);
        }
        PlanKey(h.finish())
    }

    /// Derives the key for proving the aggregation set `defs` (in order)
    /// under `opts` and `cm`.
    ///
    /// Aggregation plans occupy a key space disjoint from program plans: the
    /// fingerprint starts from [`udf_lang::agg::agg_set_key`] (its own
    /// domain tag) and folds an additional `aggplan` discriminant byte, so a
    /// UDAF set and a program set can never collide. The covered options are
    /// the ones that decide homomorphism verdicts — entailment mode and
    /// solver resource limits — plus the cost model charged by fold/merge
    /// execution; rule policies that only shape Ω's program output are
    /// deliberately excluded.
    pub fn derive_agg(
        defs: &[udf_lang::AggDef],
        interner: &Interner,
        opts: &Options,
        cm: &CostModel,
    ) -> PlanKey {
        let mut h = Fnv128::new();
        h.byte(0xA9);
        h.u128(udf_lang::agg_set_key(defs, interner));
        h.byte(match opts.mode {
            consolidate::EntailmentMode::Smt => 1,
            consolidate::EntailmentMode::Syntactic => 2,
        });
        h.u64(opts.solver.max_conflicts);
        h.u64(opts.solver.max_final_checks);
        h.u64(opts.solver.theory_limits.lia_budget);
        h.u64(opts.solver.theory_limits.max_probe_pairs as u64);
        h.u64(opts.solver.theory_limits.max_rounds as u64);
        for cost in cm.components() {
            h.u64(cost);
        }
        PlanKey(h.finish())
    }
}

/// What an entry stores. The two key spaces are disjoint —
/// [`PlanKey::derive`] and [`PlanKey::derive_agg`] fold distinct domain
/// tags — so a lookup never sees the other variant, but accessors stay total
/// for defensive callers.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Plan {
    /// A merged program (the Ω engine's output) as [`write_program`] text.
    /// Every constructor either wrote the text itself or read it back once,
    /// so a malformed plan is rejected when it enters, not met at a hit.
    Program(String),
    /// Positional homomorphism verdicts of a UDAF set (`true` = the engine
    /// may fold the definition in parallel). The key already fingerprints
    /// the definitions, so nothing else is stored.
    Agg(Vec<bool>),
}

/// One cached consolidated plan.
#[derive(Clone, Debug)]
pub struct CachedPlan {
    plan: Plan,
    /// Statistics of the run that produced it.
    pub stats: ConsolidationStats,
    /// Degradation tier of the stored plan (drives the upgrade rule).
    pub tier: DegradationTier,
    /// Footprint charged against the byte budget: the wire text's length
    /// (one byte per verdict for an aggregation entry).
    pub bytes: usize,
}

impl CachedPlan {
    /// Packages a program consolidation result — and its verified
    /// pre-filter condition, when one was synthesized — for caching.
    pub fn new(
        program: &Program,
        prefilter: Option<&BoolExpr>,
        interner: &Interner,
        stats: ConsolidationStats,
    ) -> CachedPlan {
        let text = write_program(program, prefilter, interner);
        CachedPlan::from_plan(Plan::Program(text), stats)
    }

    /// Packages wire text from outside the process (a snapshot), reading it
    /// once into a scratch interner.
    ///
    /// # Errors
    ///
    /// Returns [`read_program`]'s description of the first syntax error.
    pub(crate) fn from_wire(text: String, stats: ConsolidationStats) -> Result<CachedPlan, String> {
        read_program(&text, &mut Interner::new())?;
        Ok(CachedPlan::from_plan(Plan::Program(text), stats))
    }

    /// Packages the positional verdicts of a proved aggregation set.
    pub fn new_agg(proved: Vec<bool>, stats: ConsolidationStats) -> CachedPlan {
        CachedPlan::from_plan(Plan::Agg(proved), stats)
    }

    fn from_plan(plan: Plan, stats: ConsolidationStats) -> CachedPlan {
        let bytes = match &plan {
            Plan::Program(text) => text.len(),
            Plan::Agg(proved) => proved.len(),
        };
        CachedPlan {
            plan,
            tier: stats.tier,
            stats,
            bytes,
        }
    }

    /// The stored program's wire text, when this entry holds a program plan.
    pub fn wire(&self) -> Option<&str> {
        match &self.plan {
            Plan::Program(text) => Some(text),
            Plan::Agg(_) => None,
        }
    }

    /// Rebuilds the stored program and pre-filter condition against
    /// `interner`; `None` when this entry holds an aggregation plan.
    pub fn read(&self, interner: &mut Interner) -> Option<(Program, Option<BoolExpr>)> {
        read_program(self.wire()?, interner).ok()
    }

    /// The stored verdicts, when this entry holds an aggregation plan.
    pub fn proved(&self) -> Option<&[bool]> {
        match &self.plan {
            Plan::Program(_) => None,
            Plan::Agg(proved) => Some(proved),
        }
    }
}

/// Cache shape parameters.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Maximum number of entries (across all shards).
    pub capacity: usize,
    /// Maximum total approximate bytes (across all shards).
    pub max_bytes: usize,
    /// Number of lock shards (rounded up to at least 1).
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            capacity: 1024,
            max_bytes: 64 << 20,
            shards: 16,
        }
    }
}

/// Point-in-time counters of a [`PlanCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a usable entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries inserted.
    pub inserts: u64,
    /// Entries evicted by the capacity or byte budget.
    pub evictions: u64,
    /// Entries removed by [`PlanCache::invalidate`] (e.g. a plan guard
    /// evicting a key whose stored plan diverged at runtime).
    pub invalidations: u64,
    /// Current entry count.
    pub entries: usize,
    /// Current approximate byte footprint.
    pub bytes: usize,
}

struct Entry {
    plan: Arc<CachedPlan>,
    /// Global tick of the last touch; loaded/stored relaxed (gets take only
    /// the shard read lock).
    last_used: AtomicU64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<u128, Entry>,
    bytes: usize,
}

/// Sharded, thread-safe LRU plan cache.
pub struct PlanCache {
    shards: Vec<RwLock<Shard>>,
    per_shard_cap: usize,
    per_shard_bytes: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> PlanCache {
        PlanCache::new(CacheConfig::default())
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache").field("stats", &self.stats()).finish()
    }
}

impl PlanCache {
    /// Creates an empty cache. Capacity and byte budgets are divided evenly
    /// across shards (each shard gets at least one slot).
    pub fn new(config: CacheConfig) -> PlanCache {
        let n = config.shards.max(1);
        PlanCache {
            shards: (0..n).map(|_| RwLock::new(Shard::default())).collect(),
            per_shard_cap: (config.capacity / n).max(1),
            per_shard_bytes: (config.max_bytes / n).max(1),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: PlanKey) -> &RwLock<Shard> {
        &self.shards[(key.0 as usize) % self.shards.len()]
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Looks up a plan, refreshing its LRU position. Counts a hit or miss.
    pub fn get(&self, key: PlanKey) -> Option<Arc<CachedPlan>> {
        let shard = self.shard(key).read().unwrap_or_else(|e| e.into_inner());
        match shard.map.get(&key.0) {
            Some(e) => {
                e.last_used.store(self.next_tick(), Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&e.plan))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or replaces) a plan, evicting least-recently-used entries
    /// while the shard is over its capacity or byte budget.
    pub fn insert(&self, key: PlanKey, plan: CachedPlan) {
        let tick = self.next_tick();
        let mut shard = self.shard(key).write().unwrap_or_else(|e| e.into_inner());
        let bytes = plan.bytes;
        if let Some(old) = shard.map.insert(
            key.0,
            Entry {
                plan: Arc::new(plan),
                last_used: AtomicU64::new(tick),
            },
        ) {
            shard.bytes -= old.plan.bytes;
        }
        shard.bytes += bytes;
        self.inserts.fetch_add(1, Ordering::Relaxed);
        while shard.map.len() > self.per_shard_cap
            || (shard.bytes > self.per_shard_bytes && shard.map.len() > 1)
        {
            // O(n) min scan: shards are small (capacity / shard count) and
            // eviction is rare next to gets, so this beats maintaining an
            // ordered structure under the write lock.
            let victim = shard
                .map
                .iter()
                .filter(|(&k, _)| k != key.0 || shard.map.len() == 1)
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(&k, _)| k);
            match victim {
                Some(k) => {
                    if let Some(e) = shard.map.remove(&k) {
                        shard.bytes -= e.plan.bytes;
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
                None => break,
            }
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let (mut entries, mut bytes) = (0, 0);
        for s in &self.shards {
            let s = s.read().unwrap_or_else(|e| e.into_inner());
            entries += s.map.len();
            bytes += s.bytes;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            entries,
            bytes,
        }
    }

    /// Removes a plan outright, returning whether it was present. Unlike an
    /// LRU eviction this is a *correctness* removal: the plan guard calls it
    /// when a stored plan's runtime behaviour diverged from the sequential
    /// semantics, so the next compile of the same query set re-consolidates
    /// instead of re-serving the poisoned entry.
    pub fn invalidate(&self, key: PlanKey) -> bool {
        let mut shard = self.shard(key).write().unwrap_or_else(|e| e.into_inner());
        match shard.map.remove(&key.0) {
            Some(e) => {
                shard.bytes -= e.plan.bytes;
                self.invalidations.fetch_add(1, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.stats().entries
    }

    /// Whether the cache holds no plans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All entries, keyed (used by snapshots and tests).
    pub fn entries(&self) -> Vec<(PlanKey, Arc<CachedPlan>)> {
        let mut out = Vec::new();
        for s in &self.shards {
            let s = s.read().unwrap_or_else(|e| e.into_inner());
            for (&k, e) in &s.map {
                out.push((PlanKey(k), Arc::clone(&e.plan)));
            }
        }
        out.sort_by_key(|(k, _)| k.0);
        out
    }

    /// Writes a textual snapshot of every entry to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        snapshot::save(self, path.as_ref())
    }

    /// Loads a snapshot written by [`PlanCache::save`] into a fresh cache
    /// with the given configuration, failing on the first malformed entry.
    ///
    /// For crash recovery prefer [`PlanCache::load_recovering`], which
    /// salvages around corrupt entries instead of erroring the whole file.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on malformed snapshots and propagates I/O
    /// errors.
    pub fn load(
        path: impl AsRef<std::path::Path>,
        config: CacheConfig,
    ) -> std::io::Result<PlanCache> {
        snapshot::load(path.as_ref(), config)
    }

    /// Loads a snapshot leniently: entries whose checksum, length, or shape
    /// does not verify are skipped and accounted in the returned
    /// [`SnapshotRecovery`] instead of failing the load. Every recognized
    /// entry ends up either loaded or salvaged-around
    /// (`loaded + salvaged == total`), so a crash-truncated or bit-rotted
    /// snapshot still warm-starts with whatever survives. Each skipped entry
    /// increments the `cache.snapshot_salvaged` counter on `recorder`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors (e.g. a missing file) only; corruption is never
    /// an error here.
    pub fn load_recovering(
        path: impl AsRef<std::path::Path>,
        config: CacheConfig,
        recorder: &udf_obs::RecorderCell,
    ) -> std::io::Result<(PlanCache, SnapshotRecovery)> {
        let (cache, recovery) = snapshot::load_recovering(path.as_ref(), config)?;
        recorder.add(
            udf_obs::names::CACHE_SNAPSHOT_SALVAGED,
            recovery.salvaged as u64,
        );
        Ok((cache, recovery))
    }
}

/// How [`consolidate_many_cached`] satisfied a request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PlanOutcome {
    /// Served from the cache; no solver work performed.
    Hit,
    /// Consolidated fresh and inserted.
    Miss,
    /// A degraded entry was found and re-consolidation was attempted under
    /// the current (unexhausted) budget; the better of the two plans was
    /// served and stored.
    Upgrade,
}

impl PlanOutcome {
    /// Short lowercase label for reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            PlanOutcome::Hit => "hit",
            PlanOutcome::Miss => "miss",
            PlanOutcome::Upgrade => "upgrade",
        }
    }
}

/// Consolidates `programs` through `cache`: serves a stored plan when the
/// tier-upgrade rule allows it, otherwise runs
/// [`consolidate::consolidate_many`] and stores the result.
///
/// On a [`PlanOutcome::Hit`] the returned [`ConsolidationStats`] carry the
/// *stored* rule/query counters (they describe the plan) but zeroed
/// [`udf_smt::SolverStats`]: a hit performs no solver work, which is what
/// lets callers assert "the second run made zero SMT checks".
///
/// `backend` names the execution backend the plan will be lowered for; it
/// is folded into the cache key, so the same program set requested for
/// [`ExecBackend::PerRecord`] and [`ExecBackend::Columnar`] occupies two
/// independent entries and a hit never crosses backends.
///
/// # Errors
///
/// Propagates [`ConsolidateError`] from the underlying consolidation.
#[allow(clippy::too_many_arguments)]
pub fn consolidate_many_cached(
    cache: &PlanCache,
    programs: &[Program],
    interner: &mut Interner,
    cm: &CostModel,
    fns: &(dyn FnCost + Sync),
    opts: &Options,
    parallel: bool,
    backend: ExecBackend,
) -> Result<(Consolidated, PlanOutcome), ConsolidateError> {
    if programs.is_empty() {
        return Err(ConsolidateError::Empty);
    }
    let start = Instant::now();
    let key = PlanKey::derive(programs, interner, opts, cm, backend);
    // Rebuilds a stored plan against the caller's interner; the pre-filter's
    // synthesis counters are zero on a reload — no proving was done.
    let queries = u32::try_from(programs.len()).unwrap_or(u32::MAX);
    let rehydrate = |plan: &CachedPlan, stats: ConsolidationStats, interner: &mut Interner| {
        let (program, cond) = plan.read(interner)?;
        Some(Consolidated {
            program,
            stats,
            elapsed: start.elapsed(),
            explain: None,
            prefilter: cond.map(|cond| consolidate::Prefilter {
                cond,
                queries,
                paths_checked: 0,
                entailment_queries: 0,
            }),
        })
    };
    // Defensive: the agg key space is disjoint by construction, but an
    // entry of the wrong shape is treated as a miss rather than served.
    let cached = cache.get(key).filter(|p| p.wire().is_some());
    if let Some(plan) = &cached {
        let budget_spent = BudgetState::new(&opts.budget).exhausted();
        if plan.tier == DegradationTier::Full || budget_spent {
            let mut stats = plan.stats;
            stats.solver = udf_smt::SolverStats::default();
            if let Some(served) = rehydrate(plan, stats, interner) {
                opts.recorder.add(udf_obs::names::PLAN_CACHE_HIT, 1);
                return Ok((served, PlanOutcome::Hit));
            }
        }
    }
    // Miss, or a degraded entry under a live budget: consolidate fresh.
    let fresh = consolidate::consolidate_many(programs, interner, cm, fns, opts, parallel)?;
    // Upgrade attempt: keep whichever plan sits higher on the tier lattice
    // (`Full < Partial < Sequential` in the derived order), so a cached
    // Partial is never displaced by a fresh Sequential.
    let stored_better = match &cached {
        Some(old) if fresh.stats.tier > old.tier => {
            let mut stats = old.stats;
            stats.solver = fresh.stats.solver;
            stats.memo_hits += fresh.stats.memo_hits;
            rehydrate(old, stats, interner)
        }
        _ => None,
    };
    match stored_better {
        Some(served) => {
            opts.recorder.add(udf_obs::names::PLAN_CACHE_UPGRADE, 1);
            Ok((served, PlanOutcome::Upgrade))
        }
        None => {
            let cond = fresh.prefilter.as_ref().map(|pf| &pf.cond);
            let plan = CachedPlan::new(&fresh.program, cond, interner, fresh.stats);
            cache.insert(key, plan);
            if cached.is_some() {
                opts.recorder.add(udf_obs::names::PLAN_CACHE_UPGRADE, 1);
                Ok((fresh, PlanOutcome::Upgrade))
            } else {
                opts.recorder.add(udf_obs::names::PLAN_CACHE_MISS, 1);
                Ok((fresh, PlanOutcome::Miss))
            }
        }
    }
}

/// Proves the homomorphism obligations of `defs` through `cache`: serves
/// stored verdicts when the tier-upgrade rule allows it, otherwise runs
/// [`consolidate::consolidate_aggs`] and stores the result.
///
/// On a [`PlanOutcome::Hit`] the returned
/// [`consolidate::AggConsolidation`] reports every definition as
/// [`consolidate::ProofOutcome::Memo`] — answered without proving — with
/// zeroed solver statistics, so callers can assert "the warm run made zero
/// SMT checks". The same tier-upgrade rule as
/// [`consolidate_many_cached`] applies: a degraded verdict set is
/// re-proved under a live budget and only replaced by an outcome at least
/// as good.
///
/// # Errors
///
/// Propagates [`ConsolidateError`] from the underlying prover.
pub fn consolidate_aggs_cached(
    cache: &PlanCache,
    defs: &[udf_lang::AggDef],
    interner: &mut Interner,
    cm: &CostModel,
    opts: &Options,
) -> Result<(consolidate::AggConsolidation, PlanKey, PlanOutcome), ConsolidateError> {
    if defs.is_empty() {
        return Err(ConsolidateError::Empty);
    }
    let start = Instant::now();
    let key = PlanKey::derive_agg(defs, interner, opts, cm);
    // Shape check mirrors `consolidate_many_cached`; a count mismatch means
    // a stale or foreign entry and is treated as a miss.
    let cached = cache
        .get(key)
        .filter(|p| p.proved().is_some_and(|flags| flags.len() == defs.len()));
    let from_flags = |flags: &[bool], tier: DegradationTier| consolidate::AggConsolidation {
        outcomes: flags.iter().map(|&p| consolidate::ProofOutcome::Memo(p)).collect(),
        tier,
        stats: consolidate::AggProofStats::default(),
        elapsed: start.elapsed(),
    };
    if let Some(plan) = &cached {
        let budget_spent = BudgetState::new(&opts.budget).exhausted();
        if plan.tier == DegradationTier::Full || budget_spent {
            if let Some(flags) = plan.proved() {
                opts.recorder.add(udf_obs::names::PLAN_CACHE_HIT, 1);
                return Ok((from_flags(flags, plan.tier), key, PlanOutcome::Hit));
            }
        }
    }
    let fresh = consolidate::consolidate_aggs(defs, interner, opts)?;
    let stored_better = match &cached {
        Some(old) if fresh.tier > old.tier => old.proved().map(|flags| (old.tier, flags)),
        _ => None,
    };
    match stored_better {
        Some((tier, proved)) => {
            opts.recorder.add(udf_obs::names::PLAN_CACHE_UPGRADE, 1);
            Ok((from_flags(proved, tier), key, PlanOutcome::Upgrade))
        }
        None => {
            let stats = ConsolidationStats {
                entailment_queries: fresh.stats.entailment_queries,
                memo_hits: fresh.stats.proof_memo_hits,
                solver: fresh.stats.solver,
                tier: fresh.tier,
                ..ConsolidationStats::default()
            };
            cache.insert(key, CachedPlan::new_agg(fresh.proved_flags(), stats));
            if cached.is_some() {
                opts.recorder.add(udf_obs::names::PLAN_CACHE_UPGRADE, 1);
                Ok((fresh, key, PlanOutcome::Upgrade))
            } else {
                opts.recorder.add(udf_obs::names::PLAN_CACHE_MISS, 1);
                Ok((fresh, key, PlanOutcome::Miss))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udf_lang::cost::UniformFnCost;
    use udf_lang::parse::parse_programs;
    use udf_lang::pretty;

    fn skip_plan(id: u32) -> CachedPlan {
        let p = Program::new(udf_lang::ast::ProgId(id), vec![], udf_lang::ast::Stmt::Skip);
        CachedPlan::new(&p, None, &Interner::new(), ConsolidationStats::default())
    }

    fn family(i: &mut Interner) -> Vec<Program> {
        parse_programs(
            "program f1 @1 (airline, price) {
                 name := toLower(airline);
                 if (name == 7) { notify true; } else { notify false; }
             }
             program f2 @2 (airline, price) {
                 if (price >= 200) { notify false; }
                 else { if (toLower(airline) == 7) { notify true; } else { notify false; } }
             }",
            i,
        )
        .expect("test programs parse")
    }

    #[test]
    fn second_run_is_a_hit_with_zero_solver_checks() {
        let mut i = Interner::new();
        let programs = family(&mut i);
        let cm = CostModel::default();
        let fns = UniformFnCost(50);
        let opts = Options::default();
        let cache = PlanCache::default();

        let (cold, o1) =
            consolidate_many_cached(&cache, &programs, &mut i, &cm, &fns, &opts, false, ExecBackend::PerRecord)
                .expect("cold run succeeds");
        assert_eq!(o1, PlanOutcome::Miss);
        assert!(cold.stats.solver.checks > 0, "cold run must hit the solver");

        let (warm, o2) =
            consolidate_many_cached(&cache, &programs, &mut i, &cm, &fns, &opts, false, ExecBackend::PerRecord)
                .expect("warm run succeeds");
        assert_eq!(o2, PlanOutcome::Hit);
        assert_eq!(warm.stats.solver.checks, 0, "a hit must skip the solver");
        assert_eq!(
            pretty::program(&cold.program, &i),
            pretty::program(&warm.program, &i),
            "hit must reproduce the consolidated program exactly"
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.inserts), (1, 1));
    }

    #[test]
    fn agg_verdict_warm_hit_skips_the_solver() {
        let mut i = Interner::new();
        let defs = udf_lang::parse_aggs(
            "aggregate sum @1 (x) {
                 state s = 0;
                 fold { s := s + x; }
                 merge { s := s + rhs_s; }
             }
             aggregate count @2 (x) {
                 state c = 0;
                 fold { c := c + 1; }
                 merge { c := c + rhs_c; }
             }",
            &mut i,
        )
        .expect("test aggs parse");
        let cache = PlanCache::default();
        let opts = Options::default();
        let cm = CostModel::default();

        let (cold, k1, o1) =
            consolidate_aggs_cached(&cache, &defs, &mut i, &cm, &opts).expect("cold run succeeds");
        assert_eq!(o1, PlanOutcome::Miss);
        assert_eq!(cold.proved_flags(), vec![true, true]);
        assert!(cold.stats.checks > 0, "cold run must discharge proofs");

        let (warm, k2, o2) =
            consolidate_aggs_cached(&cache, &defs, &mut i, &cm, &opts).expect("warm run succeeds");
        assert_eq!(o2, PlanOutcome::Hit);
        assert_eq!(k1, k2);
        assert_eq!(warm.proved_flags(), cold.proved_flags());
        assert_eq!(warm.stats.solver.checks, 0, "a hit must skip the solver");
        assert_eq!(warm.tier, DegradationTier::Full);

        // The cached entry survives a snapshot round trip.
        let dir = std::env::temp_dir().join("plan-cache-test-aggsnap");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.txt");
        cache.save(&path).unwrap();
        let loaded = PlanCache::load(&path, CacheConfig::default()).unwrap();
        std::fs::remove_file(&path).ok();
        let (thawed, k3, o3) =
            consolidate_aggs_cached(&loaded, &defs, &mut i, &cm, &opts).expect("thawed run");
        assert_eq!((k3, o3), (k1, PlanOutcome::Hit));
        assert_eq!(thawed.proved_flags(), vec![true, true]);
    }

    #[test]
    fn alpha_renamed_sets_share_a_plan() {
        let mut i = Interner::new();
        let a = parse_programs(
            "program f @1 (x) { y := inc(x); notify true; }
             program g @2 (x) { z := inc(x); notify false; }",
            &mut i,
        )
        .expect("test programs parse");
        let b = parse_programs(
            "program f @1 (x) { q := inc(x); notify true; }
             program g @2 (x) { r := inc(x); notify false; }",
            &mut i,
        )
        .expect("test programs parse");
        let cm = CostModel::default();
        let opts = Options::default();
        assert_eq!(
            PlanKey::derive(&a, &i, &opts, &cm, ExecBackend::PerRecord),
            PlanKey::derive(&b, &i, &opts, &cm, ExecBackend::PerRecord)
        );
    }

    #[test]
    fn options_partition_the_key_space() {
        let mut i = Interner::new();
        let programs = family(&mut i);
        let cm = CostModel::default();
        let smt = Options::default();
        let syn = Options {
            mode: consolidate::EntailmentMode::Syntactic,
            ..Options::default()
        };
        assert_ne!(
            PlanKey::derive(&programs, &i, &smt, &cm, ExecBackend::PerRecord),
            PlanKey::derive(&programs, &i, &syn, &cm, ExecBackend::PerRecord)
        );
    }

    #[test]
    fn backends_partition_the_key_space() {
        let mut i = Interner::new();
        let programs = family(&mut i);
        let cm = CostModel::default();
        let opts = Options::default();
        assert_ne!(
            PlanKey::derive(&programs, &i, &opts, &cm, ExecBackend::PerRecord),
            PlanKey::derive(&programs, &i, &opts, &cm, ExecBackend::Columnar),
            "backend must partition the key space"
        );
    }

    #[test]
    fn cache_hits_never_cross_backends() {
        let mut i = Interner::new();
        let programs = family(&mut i);
        let cm = CostModel::default();
        let fns = UniformFnCost(50);
        let opts = Options::default();
        let cache = PlanCache::default();

        // Fill for the per-record backend…
        let (_, o1) = consolidate_many_cached(
            &cache, &programs, &mut i, &cm, &fns, &opts, false, ExecBackend::PerRecord,
        )
        .expect("per-record run succeeds");
        assert_eq!(o1, PlanOutcome::Miss);

        // …a columnar request for the same set must NOT be served from it.
        let (_, o2) = consolidate_many_cached(
            &cache, &programs, &mut i, &cm, &fns, &opts, false, ExecBackend::Columnar,
        )
        .expect("columnar run succeeds");
        assert_eq!(
            o2,
            PlanOutcome::Miss,
            "a plan cached for one backend must never satisfy the other"
        );

        // Same-backend resubmissions hit their own entries.
        for backend in [ExecBackend::PerRecord, ExecBackend::Columnar] {
            let (_, o) = consolidate_many_cached(
                &cache, &programs, &mut i, &cm, &fns, &opts, false, backend,
            )
            .expect("warm run succeeds");
            assert_eq!(o, PlanOutcome::Hit);
        }
        assert_eq!(cache.len(), 2, "one entry per backend");
    }

    #[test]
    fn degraded_entries_upgrade_under_fresh_budget() {
        let mut i = Interner::new();
        let programs = family(&mut i);
        let cm = CostModel::default();
        let fns = UniformFnCost(50);
        let cache = PlanCache::default();
        // Exhaust immediately: query ceiling 0 degrades to Sequential.
        let starved = Options {
            budget: consolidate::ConsolidationBudget::default().with_max_solver_queries(0),
            ..Options::default()
        };
        let (degraded, o1) =
            consolidate_many_cached(&cache, &programs, &mut i, &cm, &fns, &starved, false, ExecBackend::PerRecord)
                .expect("starved run succeeds");
        assert_eq!(o1, PlanOutcome::Miss);
        assert!(degraded.stats.tier > DegradationTier::Full);

        // Same options, same key: a second starved run may reuse the entry…
        let state = BudgetState::new(&starved.budget);
        assert!(
            !state.exhausted(),
            "query ceilings are charged, not pre-exhausted; upgrade path must run"
        );
        // …but since the budget is not *pre*-exhausted, the rule demands a
        // re-consolidation attempt, which under the same ceiling cannot be
        // worse, and under an unlimited one reaches Full.
        let unlimited = Options::default();
        let key_starved = PlanKey::derive(&programs, &i, &starved, &cm, ExecBackend::PerRecord);
        let key_unlimited = PlanKey::derive(&programs, &i, &unlimited, &cm, ExecBackend::PerRecord);
        assert_eq!(
            key_starved, key_unlimited,
            "budget must not partition the key space"
        );
        let (upgraded, o2) =
            consolidate_many_cached(&cache, &programs, &mut i, &cm, &fns, &unlimited, false, ExecBackend::PerRecord)
                .expect("upgrade run succeeds");
        assert_eq!(o2, PlanOutcome::Upgrade);
        assert_eq!(upgraded.stats.tier, DegradationTier::Full);

        // The upgraded plan is now served on hits.
        let (served, o3) =
            consolidate_many_cached(&cache, &programs, &mut i, &cm, &fns, &unlimited, false, ExecBackend::PerRecord)
                .expect("warm run succeeds");
        assert_eq!(o3, PlanOutcome::Hit);
        assert_eq!(served.stats.tier, DegradationTier::Full);
    }

    #[test]
    fn lru_evicts_by_capacity() {
        let cache = PlanCache::new(CacheConfig {
            capacity: 2,
            max_bytes: usize::MAX,
            shards: 1,
        });
        cache.insert(PlanKey(1), skip_plan(1));
        cache.insert(PlanKey(2), skip_plan(2));
        assert!(cache.get(PlanKey(1)).is_some(), "touch 1 so 2 is the LRU");
        cache.insert(PlanKey(3), skip_plan(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(PlanKey(2)).is_none(), "2 was least recently used");
        assert!(cache.get(PlanKey(1)).is_some());
        assert!(cache.get(PlanKey(3)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn byte_budget_evicts() {
        let cache = PlanCache::new(CacheConfig {
            capacity: 1024,
            max_bytes: 1,
            shards: 1,
        });
        cache.insert(PlanKey(1), skip_plan(1));
        cache.insert(PlanKey(2), skip_plan(2));
        // Over budget with >1 entry: evict down to a single entry.
        assert_eq!(cache.len(), 1);
        assert!(cache.stats().evictions >= 1);
    }
}

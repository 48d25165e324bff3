//! A cache of consolidated query plans.
//!
//! Consolidation (the Ω engine of PLDI'14 Figure 8) is pure static analysis:
//! the same ordered UDF set under the same options always produces the same
//! merged program. The paper's deployment amortizes that cost by
//! consolidating once and streaming millions of records; this crate extends
//! the amortization *across runs and processes*:
//!
//! * [`PlanKey`] — a stable 128-bit key: the canonical (alpha-renamed)
//!   structural hash of the ordered program set ([`udf_lang::canon`]) folded
//!   with a fingerprint of the plan-relevant options, the cost model and the
//!   [`ExecBackend`].
//! * [`PlanCache`] — a capacity-bounded LRU behind one lock storing each
//!   plan as its wire text ([`udf_lang::wire`]) — interner-independent, so
//!   one cache serves many engines — together with its
//!   [`ConsolidationStats`]; a hit is one `read_program` against the
//!   caller's interner.
//! * [`PlanCache::save`] / [`PlanCache::load`] — a hand-rolled textual
//!   snapshot for warm starts across processes, framed and checksummed with
//!   [`udf_serve::framing`].
//! * [`consolidate_many_cached`] / [`consolidate_aggs_cached`] — the cached
//!   consolidation entry points: serve a stored plan when one is usable,
//!   otherwise consolidate and fill the cache. Hits and misses are counted
//!   on the caller's recorder (`plan_cache.hit` / `plan_cache.miss`).
//!
//! The cache is a benchmark and example facility: the service persists its
//! plan in its own checkpoint and does not use it.
//!
//! # Only Full plans are stored
//!
//! A budgeted run can degrade ([`DegradationTier::Partial`] /
//! [`DegradationTier::Sequential`]); caching must never *freeze* that
//! degradation. The cached entry points store a result only when it is
//! `Full`, and serve a stored entry only when it is `Full`. A degraded
//! result is returned to its caller and not stored, so the next call
//! consolidates again. A snapshot written before this rule may hold a
//! degraded entry: it loads, and it is never served.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod snapshot;

use consolidate::{ConsolidateError, Consolidated, ConsolidationStats, DegradationTier, Options};
use naiad_lite::engine::ExecBackend;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;
use udf_lang::ast::{BoolExpr, Program};
use udf_lang::canon::Fnv128;
use udf_lang::cost::{CostModel, FnCost};
use udf_lang::intern::Interner;
use udf_lang::wire::{read_program, write_program};
use udf_obs::{names, RecorderCell};

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
    /// target plan, and a budget-degraded plan is never stored. The
    /// external `FnCost` oracle cannot be fingerprinted;
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
        h.byte(mode_tag(opts));
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
        fold_limits_and_costs(&mut h, opts, cm);
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
        h.byte(mode_tag(opts));
        fold_limits_and_costs(&mut h, opts, cm);
        PlanKey(h.finish())
    }
}

/// The entailment mode's byte in both key derivations.
fn mode_tag(opts: &Options) -> u8 {
    match opts.mode {
        consolidate::EntailmentMode::Smt => 1,
        consolidate::EntailmentMode::Syntactic => 2,
    }
}

/// The tail both key derivations share: the solver's resource limits
/// (they decide which entailments prove) and the cost model.
fn fold_limits_and_costs(h: &mut Fnv128, opts: &Options, cm: &CostModel) {
    h.u64(opts.solver.max_conflicts);
    h.u64(opts.solver.max_final_checks);
    h.u64(opts.solver.theory_limits.lia_budget);
    h.u64(opts.solver.theory_limits.max_probe_pairs as u64);
    h.u64(opts.solver.theory_limits.max_rounds as u64);
    for cost in cm.components() {
        h.u64(cost);
    }
}

/// What an entry stores. The two key spaces are disjoint —
/// [`PlanKey::derive`] and [`PlanKey::derive_agg`] fold distinct domain
/// tags — so a lookup never sees the other variant, but the serve decision
/// still checks the shape.
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
    /// Statistics of the run that produced it; `stats.tier` is the plan's
    /// degradation tier, and only a `Full` plan is served.
    pub stats: ConsolidationStats,
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
        CachedPlan {
            plan: Plan::Program(text),
            stats,
        }
    }

    /// Packages wire text from outside the process (a snapshot), reading it
    /// once into a scratch interner.
    ///
    /// # Errors
    ///
    /// Returns [`read_program`]'s description of the first syntax error.
    pub(crate) fn from_wire(text: String, stats: ConsolidationStats) -> Result<CachedPlan, String> {
        read_program(&text, &mut Interner::new())?;
        Ok(CachedPlan {
            plan: Plan::Program(text),
            stats,
        })
    }

    /// Packages the positional verdicts of a proved aggregation set.
    pub fn new_agg(proved: Vec<bool>, stats: ConsolidationStats) -> CachedPlan {
        CachedPlan {
            plan: Plan::Agg(proved),
            stats,
        }
    }

    /// The stored program's wire text, when this entry holds a program plan.
    pub fn wire(&self) -> Option<&str> {
        match &self.plan {
            Plan::Program(text) => Some(text),
            Plan::Agg(_) => None,
        }
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
    /// Maximum number of entries (at least 1); an insert past it evicts
    /// the least recently used entry.
    pub capacity: usize,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig { capacity: 1024 }
    }
}

struct Entry {
    plan: Arc<CachedPlan>,
    /// Tick of the last touch.
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<u128, Entry>,
    tick: u64,
}

/// Thread-safe LRU plan cache.
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl Default for PlanCache {
    fn default() -> PlanCache {
        PlanCache::new(CacheConfig::default())
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("entries", &self.len())
            .finish()
    }
}

impl PlanCache {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> PlanCache {
        PlanCache {
            capacity: config.capacity.max(1),
            inner: Mutex::default(),
        }
    }

    /// Every update leaves the map valid, so a lock poisoned by a panicking
    /// holder is recovered rather than propagated.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up a stored entry, whatever its tier or shape, refreshing its
    /// LRU position. Counts nothing: a hit or a miss is counted where a
    /// request is served (the cached entry points).
    pub fn get(&self, key: PlanKey) -> Option<Arc<CachedPlan>> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.map.get_mut(&key.0)?;
        entry.last_used = tick;
        Some(Arc::clone(&entry.plan))
    }

    /// The serve decision of every cached entry point, and the one place
    /// hits and misses are counted: a stored entry is served when it is
    /// `Full` and `rebuild` accepts its shape. Counts one hit or one miss on
    /// `recorder`.
    fn serve<T>(
        &self,
        key: PlanKey,
        recorder: &RecorderCell,
        rebuild: impl FnOnce(&CachedPlan) -> Option<T>,
    ) -> Option<T> {
        let served = self
            .get(key)
            .filter(|plan| plan.stats.tier == DegradationTier::Full)
            .and_then(|plan| rebuild(&plan));
        let name = if served.is_some() {
            names::PLAN_CACHE_HIT
        } else {
            names::PLAN_CACHE_MISS
        };
        recorder.add(name, 1);
        served
    }

    /// Inserts (or replaces) a plan, evicting the least recently used entry
    /// when the cache is over capacity.
    pub fn insert(&self, key: PlanKey, plan: CachedPlan) {
        let mut inner = self.lock();
        inner.tick += 1;
        let last_used = inner.tick;
        let plan = Arc::new(plan);
        inner.map.insert(key.0, Entry { plan, last_used });
        if inner.map.len() > self.capacity {
            // O(n) min scan: inserts are rare next to gets, and the cache
            // holds one entry per distinct query set.
            let victim = inner
                .map
                .iter()
                .filter(|(&k, _)| k != key.0)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k);
            if let Some(k) = victim {
                inner.map.remove(&k);
            }
        }
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the cache holds no plans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All entries, sorted by key (used by snapshots and tests).
    pub fn entries(&self) -> Vec<(PlanKey, Arc<CachedPlan>)> {
        let inner = self.lock();
        let mut out: Vec<_> = inner
            .map
            .iter()
            .map(|(&k, e)| (PlanKey(k), Arc::clone(&e.plan)))
            .collect();
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
    /// with the given configuration, failing on the first malformed entry:
    /// a damaged snapshot costs a re-consolidation, never a wrong plan.
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
}

/// How a cached entry point satisfied a request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PlanOutcome {
    /// Served from the cache; no solver work performed.
    Hit,
    /// Consolidated fresh; stored when the result is `Full`.
    Miss,
}

impl PlanOutcome {
    /// Short lowercase label for reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            PlanOutcome::Hit => "hit",
            PlanOutcome::Miss => "miss",
        }
    }
}

/// Consolidates `programs` through `cache`: serves a stored `Full` plan,
/// otherwise runs [`consolidate::consolidate_many`] and stores the result
/// when it is `Full`.
///
/// On a [`PlanOutcome::Hit`] the returned [`ConsolidationStats`] carry the
/// *stored* rule/query counters (they describe the plan) but zeroed
/// [`ConsolidationStats::solver`]: a hit performs no solver work, which is
/// what lets callers assert "the second run made zero SMT checks".
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
    let hit = cache.serve(key, &opts.recorder, |plan| {
        let (program, cond) = read_program(plan.wire()?, interner).ok()?;
        let mut stats = plan.stats;
        stats.solver = Default::default();
        let queries = u32::try_from(programs.len()).unwrap_or(u32::MAX);
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
    });
    if let Some(served) = hit {
        return Ok((served, PlanOutcome::Hit));
    }
    let fresh = consolidate::consolidate_many(programs, interner, cm, fns, opts, parallel)?;
    if fresh.stats.tier == DegradationTier::Full {
        let cond = fresh.prefilter.as_ref().map(|pf| &pf.cond);
        cache.insert(
            key,
            CachedPlan::new(&fresh.program, cond, interner, fresh.stats),
        );
    }
    Ok((fresh, PlanOutcome::Miss))
}

/// Proves the homomorphism obligations of `defs` through `cache`: serves
/// stored `Full` verdicts, otherwise runs [`consolidate::consolidate_aggs`]
/// and stores the result when it is `Full`.
///
/// On a [`PlanOutcome::Hit`] the returned
/// [`consolidate::AggConsolidation`] reports every definition as
/// [`consolidate::ProofOutcome::Memo`] — answered without proving — with
/// zeroed solver statistics, so callers can assert "the warm run made zero
/// SMT checks".
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
    // A count mismatch means a stale or foreign entry: not served.
    let hit = cache.serve(key, &opts.recorder, |plan| {
        let flags = plan.proved().filter(|flags| flags.len() == defs.len())?;
        Some(consolidate::AggConsolidation {
            outcomes: flags
                .iter()
                .map(|&p| consolidate::ProofOutcome::Memo(p))
                .collect(),
            tier: DegradationTier::Full,
            stats: consolidate::AggProofStats::default(),
            elapsed: start.elapsed(),
        })
    });
    if let Some(served) = hit {
        return Ok((served, key, PlanOutcome::Hit));
    }
    let fresh = consolidate::consolidate_aggs(defs, interner, opts)?;
    if fresh.tier == DegradationTier::Full {
        let stats = ConsolidationStats {
            entailment_queries: fresh.stats.entailment_queries,
            memo_hits: fresh.stats.proof_memo_hits,
            solver: fresh.stats.solver,
            tier: fresh.tier,
            ..ConsolidationStats::default()
        };
        cache.insert(key, CachedPlan::new_agg(fresh.proved_flags(), stats));
    }
    Ok((fresh, key, PlanOutcome::Miss))
}

#[cfg(test)]
mod tests {
    use super::*;
    use udf_lang::cost::UniformFnCost;
    use udf_lang::parse::parse_programs;
    use udf_lang::pretty;

    /// Options that count on a fresh in-memory recorder.
    fn counted() -> Options {
        Options {
            recorder: RecorderCell::memory(),
            ..Options::default()
        }
    }

    /// The (hits, misses) `opts`' recorder counted.
    fn hits_misses(opts: &Options) -> (u64, u64) {
        let snap = opts.recorder.snapshot().expect("a memory recorder");
        (
            snap.counter(names::PLAN_CACHE_HIT),
            snap.counter(names::PLAN_CACHE_MISS),
        )
    }

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
        let opts = counted();
        let cache = PlanCache::default();

        let (cold, o1) = consolidate_many_cached(
            &cache,
            &programs,
            &mut i,
            &cm,
            &fns,
            &opts,
            false,
            ExecBackend::PerRecord,
        )
        .expect("cold run succeeds");
        assert_eq!(o1, PlanOutcome::Miss);
        assert!(cold.stats.solver.checks > 0, "cold run must hit the solver");

        let (warm, o2) = consolidate_many_cached(
            &cache,
            &programs,
            &mut i,
            &cm,
            &fns,
            &opts,
            false,
            ExecBackend::PerRecord,
        )
        .expect("warm run succeeds");
        assert_eq!(o2, PlanOutcome::Hit);
        assert_eq!(warm.stats.solver.checks, 0, "a hit must skip the solver");
        assert_eq!(
            pretty::program(&cold.program, &i),
            pretty::program(&warm.program, &i),
            "hit must reproduce the consolidated program exactly"
        );
        assert_eq!(hits_misses(&opts), (1, 1));
        assert_eq!(cache.len(), 1);
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
            &cache,
            &programs,
            &mut i,
            &cm,
            &fns,
            &opts,
            false,
            ExecBackend::PerRecord,
        )
        .expect("per-record run succeeds");
        assert_eq!(o1, PlanOutcome::Miss);

        // …a columnar request for the same set must NOT be served from it.
        let (_, o2) = consolidate_many_cached(
            &cache,
            &programs,
            &mut i,
            &cm,
            &fns,
            &opts,
            false,
            ExecBackend::Columnar,
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

    /// Options whose query ceiling of 0 degrades every consolidation.
    fn starved() -> Options {
        Options {
            budget: consolidate::ConsolidationBudget::default().with_max_solver_queries(0),
            ..Options::default()
        }
    }

    #[test]
    fn degraded_program_plans_are_returned_but_not_stored() {
        let mut i = Interner::new();
        let programs = family(&mut i);
        let cm = CostModel::default();
        let fns = UniformFnCost(50);
        let cache = PlanCache::default();
        let counter = counted();
        let run = |opts: &Options, i: &mut Interner| {
            let opts = Options {
                recorder: counter.recorder.clone(),
                ..opts.clone()
            };
            consolidate_many_cached(
                &cache,
                &programs,
                i,
                &cm,
                &fns,
                &opts,
                false,
                ExecBackend::PerRecord,
            )
            .expect("consolidation succeeds")
        };
        let (degraded, o1) = run(&starved(), &mut i);
        assert_eq!(o1, PlanOutcome::Miss);
        assert!(
            degraded.stats.tier > DegradationTier::Full,
            "the budget degrades the plan"
        );
        assert!(cache.is_empty(), "a degraded plan is not stored");

        // The budget is not part of the key: the unbudgeted call asks for
        // the same entry, finds none, and stores its Full plan…
        let (full, o2) = run(&Options::default(), &mut i);
        assert_eq!(o2, PlanOutcome::Miss);
        assert_eq!(full.stats.tier, DegradationTier::Full);
        assert_eq!(cache.len(), 1);

        // …which the next call is served, whatever its budget.
        for opts in [Options::default(), starved()] {
            let (served, o) = run(&opts, &mut i);
            assert_eq!(o, PlanOutcome::Hit);
            assert_eq!(served.stats.tier, DegradationTier::Full);
            assert_eq!(
                pretty::program(&served.program, &i),
                pretty::program(&full.program, &i)
            );
        }
        assert_eq!(hits_misses(&counter), (2, 2));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn degraded_agg_sets_are_returned_but_not_stored() {
        let mut i = Interner::new();
        let defs = udf_lang::parse_aggs(
            "aggregate sum @1 (x) {
                 state s = 0;
                 fold { s := s + x; }
                 merge { s := s + rhs_s; }
             }",
            &mut i,
        )
        .expect("test aggs parse");
        let cache = PlanCache::default();
        let cm = CostModel::default();

        let (degraded, k1, o1) =
            consolidate_aggs_cached(&cache, &defs, &mut i, &cm, &starved()).expect("starved run");
        assert_eq!(o1, PlanOutcome::Miss);
        assert!(
            degraded.tier > DegradationTier::Full,
            "the budget degrades the set"
        );
        assert!(cache.is_empty(), "a degraded verdict set is not stored");

        let opts = counted();
        let (full, k2, o2) =
            consolidate_aggs_cached(&cache, &defs, &mut i, &cm, &opts).expect("unbudgeted run");
        assert_eq!((k2, o2), (k1, PlanOutcome::Miss));
        assert_eq!(full.tier, DegradationTier::Full);
        assert_eq!(cache.len(), 1);

        let (served, _, o3) =
            consolidate_aggs_cached(&cache, &defs, &mut i, &cm, &opts).expect("warm run");
        assert_eq!(o3, PlanOutcome::Hit);
        assert_eq!(served.proved_flags(), full.proved_flags());
        assert_eq!(
            hits_misses(&opts),
            (1, 1),
            "the starved run counted on its own recorder"
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn partial_snapshot_entries_load_but_are_never_served() {
        let mut i = Interner::new();
        let programs = family(&mut i);
        let cm = CostModel::default();
        let fns = UniformFnCost(50);
        let opts = counted();
        let key = PlanKey::derive(&programs, &i, &opts, &cm, ExecBackend::PerRecord);

        // A v3 snapshot holding a Partial plan under the family's key, as an
        // older writer stored degraded plans.
        let stats = ConsolidationStats {
            tier: DegradationTier::Partial,
            ..ConsolidationStats::default()
        };
        let writer = PlanCache::default();
        writer.insert(key, CachedPlan::new(&programs[0], None, &i, stats));
        let dir = std::env::temp_dir().join("plan-cache-test-partial");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.txt");
        writer.save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("plan-cache-snapshot v3\n"), "{text}");
        assert!(text.contains("tier partial\n"), "{text}");
        let loaded = PlanCache::load(&path, CacheConfig::default()).unwrap();
        std::fs::remove_file(&path).ok();
        let entry = loaded.get(key).expect("the Partial entry loads");
        assert_eq!(entry.stats.tier, DegradationTier::Partial);

        // Not served: the request consolidates fresh and stores its Full plan
        // over it, and only that one is a hit.
        let (fresh, o1) = consolidate_many_cached(
            &loaded,
            &programs,
            &mut i,
            &cm,
            &fns,
            &opts,
            false,
            ExecBackend::PerRecord,
        )
        .expect("fresh run");
        assert_eq!(o1, PlanOutcome::Miss);
        assert!(
            fresh.stats.solver.checks > 0,
            "the Partial plan was not served"
        );
        assert_eq!(
            hits_misses(&opts),
            (0, 1),
            "a Partial entry is never counted as a hit"
        );
        let (_, o2) = consolidate_many_cached(
            &loaded,
            &programs,
            &mut i,
            &cm,
            &fns,
            &opts,
            false,
            ExecBackend::PerRecord,
        )
        .expect("warm run");
        assert_eq!(o2, PlanOutcome::Hit);
        assert_eq!(
            loaded.get(key).expect("stored").stats.tier,
            DegradationTier::Full
        );
        assert_eq!(hits_misses(&opts), (1, 1));
    }

    #[test]
    fn lru_evicts_by_capacity() {
        let cache = PlanCache::new(CacheConfig { capacity: 2 });
        cache.insert(PlanKey(1), skip_plan(1));
        cache.insert(PlanKey(2), skip_plan(2));
        assert!(cache.get(PlanKey(1)).is_some(), "touch 1 so 2 is the LRU");
        cache.insert(PlanKey(3), skip_plan(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(PlanKey(2)).is_none(), "2 was least recently used");
        assert!(cache.get(PlanKey(1)).is_some());
        assert!(cache.get(PlanKey(3)).is_some());
    }
}

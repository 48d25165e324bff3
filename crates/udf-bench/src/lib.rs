//! Benchmark harness regenerating the paper's evaluation (§6.3).
//!
//! * [`run_family_guarded`] executes one (domain, query family) cell of
//!   Figure 9: generate the dataset and `n` queries, consolidate them
//!   (timed, parallel divide-and-conquer), run `where_many` and
//!   `where_consolidated` on the multi-worker engine, verify the outputs
//!   agree record-for-record, and report UDF-time and total-time speedups.
//! * The `figure9`, `figure10`, and `ablation` binaries print the tables;
//!   see `EXPERIMENTS.md` for the recorded paper-vs-measured numbers.
//!
//! Absolute numbers differ from the paper (different hardware, language, and
//! SMT solver); the quantities that must reproduce are the *shape*: every
//! family speeds up, speedups grow with intra-family similarity, and the
//! consolidated runtime stays roughly flat as the query count grows while
//! the sequential runtime grows linearly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agg;
pub use agg::{
    agg_header, agg_output_digest, agg_runs_json, format_agg_row, run_agg_domain, run_agg_family,
    AggFamilyRun, AggScale,
};

use consolidate::Options;
use naiad_lite::digest::Fnv64;
use naiad_lite::engine::{Engine, ExecBackend, ExecMode, QuerySet};
use naiad_lite::env::UdfEnv;
use std::time::{Duration, Instant};
use udf_data::DomainKind;
use udf_lang::ast::Program;
use udf_lang::cost::CostModel;
use udf_lang::intern::Interner;

/// Result of one (domain, family) cell.
#[derive(Debug, Clone)]
pub struct FamilyRun {
    /// Domain name.
    pub domain: String,
    /// Family label (Q1…, Mix, BC).
    pub family: String,
    /// Number of queries consolidated.
    pub n_queries: usize,
    /// Records scanned.
    pub n_records: usize,
    /// Total records evaluated per mode across all passes
    /// (`n_records × passes`); the numerator of
    /// [`FamilyRun::records_per_sec`].
    pub scanned: usize,
    /// `where_many` UDF-phase wall time.
    pub many_udf: Duration,
    /// `where_consolidated` UDF-phase wall time.
    pub cons_udf: Duration,
    /// `where_many` total (compile + scan).
    pub many_total: Duration,
    /// `where_consolidated` total (consolidate + compile + scan).
    pub cons_total: Duration,
    /// Consolidation wall time (also folded into `cons_total`).
    pub consolidation: Duration,
    /// AST size of the merged program.
    pub merged_size: usize,
    /// Sum of AST sizes of the source programs.
    pub source_size: usize,
    /// Whether both modes selected identical record counts per query.
    pub outputs_agree: bool,
    /// Consolidation statistics (rule counters, queries, degradation tier).
    pub stats: consolidate::ConsolidationStats,
    /// Records quarantined across all passes and both modes (0 for healthy
    /// datasets; benches run under [`naiad_lite::ErrorPolicy::Quarantine`]
    /// so a faulting record degrades the row instead of killing the sweep).
    pub quarantined: usize,
    /// Rule-derivation tree for the merged plan; present only when
    /// [`Options::explain`](consolidate::Options) was set.
    pub explain: Option<consolidate::ExplainReport>,
    /// Shadow (sequential) re-executions performed by the plan guard across
    /// all passes — 0 unless a [`naiad_lite::GuardPolicy`] was active.
    pub shadow_runs: u64,
    /// Consolidated-vs-sequential divergences the guard observed.
    pub guard_mismatches: u64,
    /// Passes whose consolidated run was demoted to sequential execution by
    /// the guard (self-healing fallback).
    pub guard_demotions: u64,
    /// Transient-fault retry attempts spent across all passes and both
    /// modes. The sweeps run with retries off
    /// ([`naiad_lite::EngineConfig::max_retries`] is 0), so a non-zero
    /// value here would mean the engine retried without being asked.
    pub retries: u64,
    /// Execution backend the engine ran under.
    pub backend: ExecBackend,
    /// Order-insensitive digest of the observable outputs (per-query counts
    /// and missing totals of both modes, plus the quarantined record set).
    /// Two runs of the same cell under different backends must produce the
    /// same digest — the cross-backend divergence check in CI compares it.
    /// A pre-filtered run must also reproduce the unfiltered digest (skips
    /// only elide work the verifier proved observation-free).
    pub output_digest: u64,
    /// Whether pre-filter synthesis was requested
    /// ([`Options::prefilter`](consolidate::Options)).
    pub prefilter: bool,
    /// Records the synthesized pre-filter skipped across all consolidated
    /// passes (0 when disabled, or when every candidate was rejected and
    /// the run fell open to full evaluation).
    pub prefilter_skipped: u64,
}

impl FamilyRun {
    /// UDF-time speedup (`where_many` / `where_consolidated`).
    pub fn udf_speedup(&self) -> f64 {
        self.many_udf.as_secs_f64() / self.cons_udf.as_secs_f64().max(1e-9)
    }

    /// Total-time speedup, charging consolidation to the consolidated side.
    pub fn total_speedup(&self) -> f64 {
        self.many_total.as_secs_f64() / self.cons_total.as_secs_f64().max(1e-9)
    }

    /// Consolidated-scan throughput: records evaluated per second of
    /// `where_consolidated` UDF time, across all passes.
    pub fn records_per_sec(&self) -> f64 {
        self.scanned as f64 / self.cons_udf.as_secs_f64().max(1e-9)
    }

    /// Fraction of scanned records the pre-filter skipped (its measured
    /// selectivity complement — 0.0 when the pre-filter is off or rejected).
    pub fn prefilter_skip_rate(&self) -> f64 {
        self.prefilter_skipped as f64 / (self.scanned as f64).max(1.0)
    }
}

/// Executes one family benchmark over an arbitrary dataset binding,
/// evaluating the query set over `passes` arrivals of the collection — the
/// standing-query scenario of the paper's introduction (a stream platform
/// consolidates once and evaluates the merged UDF on every arriving batch).
/// UDF-time speedup is independent of `passes`; total-time speedup
/// amortizes the one-off consolidation cost the same way a long-running job
/// amortizes it over I/O volume. The engine runs under the plan-guard and
/// execution-backend configuration given; the guard counters land in the
/// returned [`FamilyRun`] columns.
#[allow(clippy::too_many_arguments)]
pub fn run_family_guarded<E: UdfEnv>(
    domain: &str,
    family: &str,
    env: &E,
    records: &[E::Rec],
    programs: Vec<Program>,
    interner: &mut Interner,
    workers: usize,
    opts: &Options,
    passes: usize,
    guard: naiad_lite::GuardPolicy,
    backend: ExecBackend,
) -> FamilyRun {
    let cm = CostModel::default();
    let n_queries = programs.len();
    let source_size: usize = programs.iter().map(Program::size).sum();

    // Consolidate (timed, parallel divide-and-conquer as in §6.1).
    let merged =
        consolidate::consolidate_many(&programs, interner, &cm, &FnCostOf(env), opts, true)
            .expect("families share params and have distinct ids");
    let consolidation = merged.elapsed;

    // Compile both plans.
    let t0 = Instant::now();
    let qs = QuerySet::compile_many(&programs, &cm, &|f| env.fn_cost(f)).expect("family compiles");
    let compile_many = t0.elapsed();
    let t0 = Instant::now();
    let mut qs = qs
        .with_consolidated(&merged.program, &cm, &|f| env.fn_cost(f), consolidation)
        .expect("merged program compiles");
    if let Some(pf) = &merged.prefilter {
        qs = qs
            .with_prefilter(&pf.cond, &merged.program, &cm, &|f| env.fn_cost(f))
            .expect("pre-filter guard compiles");
    }
    let compile_cons = t0.elapsed();

    // Execute (each pass re-evaluates the whole collection). Quarantine
    // instead of fail-fast: one bad record degrades the row, not the sweep.
    // Engine metrics share the consolidation sink, so a `--metrics` run gets
    // one coherent snapshot across all three layers.
    let engine = Engine::new(workers)
        .with_error_policy(naiad_lite::ErrorPolicy::Quarantine {
            max_errors: usize::MAX,
        })
        .with_guard(guard)
        .with_backend(backend)
        .with_recorder(opts.recorder.clone());
    let mut many_udf = Duration::ZERO;
    let mut cons_udf = Duration::ZERO;
    let mut outputs_agree = true;
    let mut quarantined = 0usize;
    let mut shadow_runs = 0u64;
    let mut guard_mismatches = 0u64;
    let mut guard_demotions = 0u64;
    let mut retries = 0u64;
    let mut prefilter_skipped = 0u64;
    let mut first = None;
    for _ in 0..passes.max(1) {
        let many = engine
            .run(env, records, &qs, ExecMode::Many, false)
            .expect("where_many runs");
        let cons = engine
            .run(env, records, &qs, ExecMode::Consolidated, false)
            .expect("where_consolidated runs");
        many_udf += many.udf_time;
        cons_udf += cons.udf_time;
        if let Some(g) = &cons.guard {
            shadow_runs += g.shadow_runs;
            guard_mismatches += g.mismatches;
            guard_demotions += u64::from(g.demoted);
        }
        retries += many.quarantine.retry_attempts + cons.quarantine.retry_attempts;
        prefilter_skipped += cons.prefilter_skipped;
        // Parity must hold on the surviving records, so the two modes must
        // also have quarantined the same records.
        outputs_agree &= many.counts == cons.counts
            && cons.missing.iter().all(|&m| m == 0)
            && many.missing.iter().all(|&m| m == 0)
            && many.quarantine.records() == cons.quarantine.records();
        quarantined += many.quarantine.records_quarantined + cons.quarantine.records_quarantined;
        first.get_or_insert((many, cons));
    }
    let (many, cons) = first.expect("at least one pass");
    let many = naiad_lite::engine::JobReport {
        udf_time: many_udf,
        ..many
    };
    let cons = naiad_lite::engine::JobReport {
        udf_time: cons_udf,
        ..cons
    };
    let output_digest = {
        let mut h = Fnv64::new();
        for report in [&many, &cons] {
            for &c in &report.counts {
                h.u64(c);
            }
            for &m in &report.missing {
                h.u64(m);
            }
            for r in report.quarantine.records() {
                h.u64(r as u64);
            }
        }
        h.finish()
    };

    FamilyRun {
        domain: domain.to_owned(),
        family: family.to_owned(),
        n_queries,
        n_records: records.len(),
        scanned: records.len() * passes.max(1),
        many_udf: many.udf_time,
        cons_udf: cons.udf_time,
        many_total: compile_many + many.udf_time,
        cons_total: consolidation + compile_cons + cons.udf_time,
        consolidation,
        merged_size: merged.program.size(),
        source_size,
        outputs_agree,
        stats: merged.stats,
        quarantined,
        explain: merged.explain,
        shadow_runs,
        guard_mismatches,
        guard_demotions,
        retries,
        backend,
        output_digest,
        prefilter: opts.prefilter,
        prefilter_skipped,
    }
}

/// Prices external calls as the environment `E` declares them.
pub struct FnCostOf<'a, E: UdfEnv>(pub &'a E);

impl<'a, E: UdfEnv> udf_lang::cost::FnCost for FnCostOf<'a, E> {
    fn fn_cost(&self, f: udf_lang::intern::Symbol) -> udf_lang::cost::Cost {
        self.0.fn_cost(f)
    }
}

/// Dataset scale factor: 1.0 = paper-sized.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Fraction of paper-sized record counts.
    pub records: f64,
    /// Queries per family (paper: 50).
    pub queries: usize,
    /// Collection arrivals evaluated per job (standing-query scenario).
    pub passes: usize,
}

impl Scale {
    /// Paper-sized run.
    pub fn full() -> Scale {
        Scale {
            records: 1.0,
            queries: 50,
            passes: 20,
        }
    }

    /// Reduced run for smoke tests / CI.
    pub fn fast() -> Scale {
        Scale {
            records: 0.08,
            queries: 12,
            passes: 2,
        }
    }

    fn n(&self, full: usize) -> usize {
        ((full as f64 * self.records) as usize).max(4)
    }
}

/// Runs every family of `domain` at the given scale, returning one
/// [`FamilyRun`] per family.
pub fn run_domain(domain: DomainKind, scale: Scale, seed: u64, opts: &Options) -> Vec<FamilyRun> {
    run_domain_guarded(
        domain,
        scale,
        seed,
        opts,
        naiad_lite::GuardPolicy::default(),
        ExecBackend::PerRecord,
    )
}

/// Like [`run_domain`] but running every family under the given plan-guard
/// and execution-backend configuration (see [`run_family_guarded`]).
pub fn run_domain_guarded(
    domain: DomainKind,
    scale: Scale,
    seed: u64,
    opts: &Options,
    guard: naiad_lite::GuardPolicy,
    backend: ExecBackend,
) -> Vec<FamilyRun> {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut out = Vec::new();
    match domain {
        DomainKind::Weather => {
            let mut interner = Interner::new();
            let env = udf_data::weather::WeatherEnv::new(&mut interner);
            let records =
                udf_data::weather::dataset_sized(scale.n(udf_data::weather::DEFAULT_CITIES), seed);
            for fam in udf_data::weather::families() {
                let programs = (fam.build)(scale.queries, seed, &mut interner);
                out.push(run_family_guarded(
                    "weather",
                    fam.label,
                    &env,
                    &records,
                    programs,
                    &mut interner,
                    workers,
                    opts,
                    scale.passes,
                    guard,
                    backend,
                ));
            }
        }
        DomainKind::Flight => {
            let mut interner = Interner::new();
            let per_pair = if scale.records >= 0.99 { 12 } else { 2 };
            let (env, records) = udf_data::flight::dataset_sized(per_pair, &mut interner, seed);
            for fam in udf_data::flight::families() {
                let programs = (fam.build)(scale.queries, seed, &mut interner);
                out.push(run_family_guarded(
                    "flight",
                    fam.label,
                    &env,
                    &records,
                    programs,
                    &mut interner,
                    workers,
                    opts,
                    scale.passes,
                    guard,
                    backend,
                ));
            }
        }
        DomainKind::News => {
            let mut interner = Interner::new();
            let env = udf_data::news::NewsEnv::new(&mut interner);
            let records =
                udf_data::news::dataset_sized(scale.n(udf_data::news::DEFAULT_ARTICLES), seed);
            for fam in udf_data::news::families() {
                let programs = (fam.build)(scale.queries, seed, &mut interner);
                out.push(run_family_guarded(
                    "news",
                    fam.label,
                    &env,
                    &records,
                    programs,
                    &mut interner,
                    workers,
                    opts,
                    scale.passes,
                    guard,
                    backend,
                ));
            }
        }
        DomainKind::Twitter => {
            let mut interner = Interner::new();
            let env = udf_data::twitter::TwitterEnv::new(&mut interner);
            let records =
                udf_data::twitter::dataset_sized(scale.n(udf_data::twitter::DEFAULT_TWEETS), seed);
            for fam in udf_data::twitter::families() {
                let programs = (fam.build)(scale.queries, seed, &mut interner);
                out.push(run_family_guarded(
                    "twitter",
                    fam.label,
                    &env,
                    &records,
                    programs,
                    &mut interner,
                    workers,
                    opts,
                    scale.passes,
                    guard,
                    backend,
                ));
            }
        }
        DomainKind::Stock => {
            let mut interner = Interner::new();
            let env = udf_data::stock::StockEnv::new(&mut interner);
            let days = if scale.records >= 0.99 {
                udf_data::stock::DAYS
            } else {
                600
            };
            let records = udf_data::stock::dataset_sized(
                scale.n(udf_data::stock::DEFAULT_TICKERS),
                days,
                seed,
            );
            for (label, build) in udf_data::stock::families_sized(days as i64) {
                let programs = build(scale.queries, seed, &mut interner);
                out.push(run_family_guarded(
                    "stock",
                    label,
                    &env,
                    &records,
                    programs,
                    &mut interner,
                    workers,
                    opts,
                    scale.passes,
                    guard,
                    backend,
                ));
            }
        }
    }
    out
}

/// Formats a [`FamilyRun`] table row.
pub fn format_row(r: &FamilyRun) -> String {
    format!(
        "{:<8} {:<4} {:>4} {:>9} {:>10.2}x {:>10.2}x {:>12.3}s {:>8} {:>8} {:>7} {:>8} {:>6} {:>6} {:>7} {:>5} {:>5} {:>5} {:>8}",
        r.domain,
        r.family,
        r.n_queries,
        r.n_records,
        r.udf_speedup(),
        r.total_speedup(),
        r.consolidation.as_secs_f64(),
        if r.outputs_agree { "ok" } else { "MISMATCH" },
        r.merged_size,
        r.stats.tier.as_str(),
        r.stats.solver.checks,
        r.stats.memo_hits,
        r.quarantined,
        r.shadow_runs,
        r.guard_mismatches,
        r.guard_demotions,
        r.retries,
        r.prefilter_skipped,
    )
}

/// Table header matching [`format_row`].
pub fn header() -> String {
    format!(
        "{:<8} {:<4} {:>4} {:>9} {:>11} {:>11} {:>13} {:>8} {:>8} {:>7} {:>8} {:>6} {:>6} {:>7} {:>5} {:>5} {:>5} {:>8}",
        "domain", "fam", "n", "records", "udf-spdup", "tot-spdup", "consolid.", "agree", "size",
        "tier", "smt-chk", "memo", "q'tine", "shadow", "g-mis", "demot", "retry", "pf-skip"
    )
}

/// `s` as a JSON string literal, quotes included.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::new();
    udf_obs::write_json_string(&mut out, s);
    out
}

/// Serializes benchmark rows as a JSON array (hand-rolled — the offline
/// workspace vendors no serde). Wall times are seconds; the schema is the
/// stable surface behind the committed `BENCH_fig9.json` /
/// `BENCH_fig10.json` artifacts at the repository root.
pub fn family_runs_json(runs: &[FamilyRun]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in runs.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            concat!(
                "  {{\"domain\":{},\"family\":{},\"n_queries\":{},\"n_records\":{},",
                "\"many_udf_s\":{:.6},\"cons_udf_s\":{:.6},\"many_total_s\":{:.6},",
                "\"cons_total_s\":{:.6},\"consolidation_s\":{:.6},\"udf_speedup\":{:.4},",
                "\"total_speedup\":{:.4},\"merged_size\":{},\"source_size\":{},\"tier\":\"{}\",",
                "\"smt_checks\":{},\"memo_hits\":{},\"outputs_agree\":{},\"quarantined\":{},",
                "\"backend\":\"{}\",\"records_per_sec\":{:.1},\"output_digest\":\"{:016x}\",",
                "\"prefilter\":{},\"prefilter_skipped\":{},\"prefilter_skip_rate\":{:.4}}}"
            ),
            json_str(&r.domain),
            json_str(&r.family),
            r.n_queries,
            r.n_records,
            r.many_udf.as_secs_f64(),
            r.cons_udf.as_secs_f64(),
            r.many_total.as_secs_f64(),
            r.cons_total.as_secs_f64(),
            r.consolidation.as_secs_f64(),
            r.udf_speedup(),
            r.total_speedup(),
            r.merged_size,
            r.source_size,
            r.stats.tier.as_str(),
            r.stats.solver.checks,
            r.stats.memo_hits,
            r.outputs_agree,
            r.quarantined,
            r.backend.as_str(),
            r.records_per_sec(),
            r.output_digest,
            r.prefilter,
            r.prefilter_skipped,
            r.prefilter_skip_rate(),
        ));
    }
    out.push_str("\n]\n");
    out
}

//! Aggregation benchmark cells: consolidated-vs-separate UDAF execution.
//!
//! [`run_agg_family`] is the aggregation analogue of
//! [`crate::run_family_guarded`]: prove the homomorphism obligations for one
//! family of [`AggDef`]s (timed), run the set once per definition
//! ([`AggMode::Separate`]) and once as a shared-scan multi-state pass
//! ([`AggMode::Consolidated`]) on the multi-worker engine, re-run the
//! consolidated pass across a worker sweep for the scaling column, and
//! digest every run's observable output (final states + quarantine pairs).
//! All digests must agree bit-for-bit — with each other *and* with a
//! sequential single-shard reference fold — which is the determinism gate
//! CI leans on.

use consolidate::homomorphism::AggProofStats;
use consolidate::{DegradationTier, Options};
use naiad_lite::digest::Fnv64;
use naiad_lite::env::UdfEnv;
use naiad_lite::{AggMode, AggQuerySet, AggReport, Engine, ErrorPolicy};
use std::time::Duration;
use udf_data::DomainKind;
use udf_lang::agg::AggDef;
use udf_lang::intern::Interner;

/// Result of one (domain, aggregation family) cell.
#[derive(Debug, Clone)]
pub struct AggFamilyRun {
    /// Domain name.
    pub domain: String,
    /// Family label (SUM, CNT, VAR, MIX).
    pub family: String,
    /// Number of aggregation definitions sharing the scan.
    pub n_defs: usize,
    /// Records scanned per pass.
    pub n_records: usize,
    /// Worker count of the headline separate/consolidated comparison.
    pub workers: usize,
    /// Definitions whose merge proved to be a homomorphism.
    pub proved: usize,
    /// Proof-side degradation tier.
    pub tier: DegradationTier,
    /// Wall-clock time the homomorphism prover spent on the set.
    pub consolidation: Duration,
    /// Prover statistics (checks, memo hits, solver counters).
    pub proof_stats: AggProofStats,
    /// [`AggMode::Separate`] fold-phase wall time (one scan per def).
    pub sep_udf: Duration,
    /// [`AggMode::Consolidated`] fold-phase wall time (one shared scan).
    pub cons_udf: Duration,
    /// Fold steps of the consolidated run.
    pub folds: u64,
    /// Partial-state merges of the consolidated run.
    pub merges: u64,
    /// Fold steps summed over *every* run in the cell (reference, separate,
    /// consolidated, worker sweep) — the figure's `--metrics` coherence
    /// check compares this against the shared recorder.
    pub total_folds: u64,
    /// Merges summed over every run in the cell.
    pub total_merges: u64,
    /// Quarantined (record, definition) pairs in the consolidated run.
    pub quarantined: usize,
    /// Consolidated fold-phase wall time per worker count, in sweep order.
    pub scaling: Vec<(usize, Duration)>,
    /// Whether every run (both modes, every worker count, and the
    /// sequential reference) produced the same output digest.
    pub digests_agree: bool,
    /// FNV-64 digest of final states + quarantine pairs, shared by all
    /// agreeing runs.
    pub output_digest: u64,
}

impl AggFamilyRun {
    /// Fold-phase speedup of the shared scan over one-scan-per-definition.
    pub fn speedup(&self) -> f64 {
        self.sep_udf.as_secs_f64() / self.cons_udf.as_secs_f64().max(1e-9)
    }
}

/// Order-sensitive digest of an aggregation run's observable output: every
/// definition's final state vector plus the sorted quarantined
/// (record, definition) pairs. Two runs of the same cell — at any worker
/// count, in either mode — must digest identically.
pub fn agg_output_digest(report: &AggReport) -> u64 {
    let mut h = Fnv64::new();
    for (id, state) in report.ids.iter().zip(&report.states) {
        h.u64(u64::from(id.0));
        h.u64(state.len() as u64);
        for &v in state {
            h.u64(v as u64);
        }
    }
    for e in &report.quarantine.entries {
        h.u64(e.record as u64);
        h.u64(e.query.map_or(u64::MAX, |q| u64::from(q.0)));
    }
    h.finish()
}

/// Executes one aggregation family cell over an arbitrary dataset binding.
///
/// `workers` is the scaling sweep; the *last* entry is the headline worker
/// count used for the separate-vs-consolidated comparison.
#[allow(clippy::too_many_arguments)]
pub fn run_agg_family<E: UdfEnv>(
    domain: &str,
    family: &str,
    env: &E,
    records: &[E::Rec],
    defs: Vec<AggDef>,
    interner: &mut Interner,
    workers: &[usize],
    opts: &Options,
) -> AggFamilyRun {
    let n_defs = defs.len();
    let headline = workers.last().copied().unwrap_or(1).max(1);

    // Prove the homomorphism obligations (timed; stats kept for the
    // --metrics cross-check).
    let proof = consolidate::homomorphism::consolidate_aggs(&defs, interner, opts)
        .expect("aggregation families validate");
    let proved_flags = proof.proved_flags();
    let mut queries = AggQuerySet::new(defs.clone(), proved_flags.clone());
    queries.consolidation_time = proof.elapsed;
    queries.tier = proof.tier;

    let engine = |w: usize| {
        Engine::new(w)
            .with_error_policy(ErrorPolicy::Quarantine {
                max_errors: usize::MAX,
            })
            .with_recorder(opts.recorder.clone())
    };
    let mut total_folds = 0u64;
    let mut total_merges = 0u64;
    let mut absorb = |r: &AggReport| {
        total_folds += r.folds;
        total_merges += r.merges;
    };

    // Sequential single-shard reference: every definition pinned to the
    // fallback shard of a one-worker engine. This is the semantics the
    // parallel merge tree must reproduce bit-for-bit.
    let reference = engine(1)
        .run_agg(
            env,
            records,
            &AggQuerySet::sequential(defs),
            interner,
            AggMode::Consolidated,
        )
        .expect("reference fold runs");
    absorb(&reference);
    let ref_digest = agg_output_digest(&reference);

    let sep = engine(headline)
        .run_agg(env, records, &queries, interner, AggMode::Separate)
        .expect("separate scans run");
    absorb(&sep);
    let cons = engine(headline)
        .run_agg(env, records, &queries, interner, AggMode::Consolidated)
        .expect("consolidated scan runs");
    absorb(&cons);

    let mut digests_agree =
        agg_output_digest(&sep) == ref_digest && agg_output_digest(&cons) == ref_digest;

    // Worker sweep over the consolidated pass: the scaling column, and more
    // determinism evidence (every worker count must digest identically).
    let mut scaling = Vec::with_capacity(workers.len());
    for &w in workers {
        let r = engine(w.max(1))
            .run_agg(env, records, &queries, interner, AggMode::Consolidated)
            .expect("scaling run");
        absorb(&r);
        digests_agree &= agg_output_digest(&r) == ref_digest;
        scaling.push((w.max(1), r.udf_time));
    }

    AggFamilyRun {
        domain: domain.to_owned(),
        family: family.to_owned(),
        n_defs,
        n_records: records.len(),
        workers: headline,
        proved: proved_flags.iter().filter(|p| **p).count(),
        tier: proof.tier,
        consolidation: proof.elapsed,
        proof_stats: proof.stats,
        sep_udf: sep.udf_time,
        cons_udf: cons.udf_time,
        folds: cons.folds,
        merges: cons.merges,
        total_folds,
        total_merges,
        quarantined: cons.quarantine.records_quarantined,
        scaling,
        digests_agree,
        output_digest: ref_digest,
    }
}

/// Dataset scale for the aggregation figure.
#[derive(Debug, Clone, Copy)]
pub struct AggScale {
    /// Fraction of paper-sized record counts.
    pub records: f64,
    /// Aggregation definitions per family.
    pub defs: usize,
}

impl AggScale {
    /// Full-sized run.
    pub fn full() -> AggScale {
        AggScale {
            records: 1.0,
            defs: 20,
        }
    }

    /// Reduced run for smoke tests / CI.
    pub fn fast() -> AggScale {
        AggScale {
            records: 0.08,
            defs: 6,
        }
    }

    fn n(&self, full: usize) -> usize {
        ((full as f64 * self.records) as usize).max(4)
    }
}

/// Runs every aggregation family of `domain` at the given scale.
pub fn run_agg_domain(
    domain: DomainKind,
    scale: AggScale,
    seed: u64,
    workers: &[usize],
    opts: &Options,
) -> Vec<AggFamilyRun> {
    let mut out = Vec::new();
    let mut interner = Interner::new();
    let fams = udf_data::agg::families(domain);
    match domain {
        DomainKind::Weather => {
            let env = udf_data::weather::WeatherEnv::new(&mut interner);
            let records =
                udf_data::weather::dataset_sized(scale.n(udf_data::weather::DEFAULT_CITIES), seed);
            for f in fams {
                let defs = (f.build)(scale.defs, seed, &mut interner);
                out.push(run_agg_family(
                    "weather",
                    f.label,
                    &env,
                    &records,
                    defs,
                    &mut interner,
                    workers,
                    opts,
                ));
            }
        }
        DomainKind::Flight => {
            let per_pair = if scale.records >= 0.99 { 12 } else { 2 };
            let (env, records) = udf_data::flight::dataset_sized(per_pair, &mut interner, seed);
            for f in fams {
                let defs = (f.build)(scale.defs, seed, &mut interner);
                out.push(run_agg_family(
                    "flight",
                    f.label,
                    &env,
                    &records,
                    defs,
                    &mut interner,
                    workers,
                    opts,
                ));
            }
        }
        DomainKind::News => {
            let env = udf_data::news::NewsEnv::new(&mut interner);
            let records =
                udf_data::news::dataset_sized(scale.n(udf_data::news::DEFAULT_ARTICLES), seed);
            for f in fams {
                let defs = (f.build)(scale.defs, seed, &mut interner);
                out.push(run_agg_family(
                    "news",
                    f.label,
                    &env,
                    &records,
                    defs,
                    &mut interner,
                    workers,
                    opts,
                ));
            }
        }
        DomainKind::Twitter => {
            let env = udf_data::twitter::TwitterEnv::new(&mut interner);
            let records =
                udf_data::twitter::dataset_sized(scale.n(udf_data::twitter::DEFAULT_TWEETS), seed);
            for f in fams {
                let defs = (f.build)(scale.defs, seed, &mut interner);
                out.push(run_agg_family(
                    "twitter",
                    f.label,
                    &env,
                    &records,
                    defs,
                    &mut interner,
                    workers,
                    opts,
                ));
            }
        }
        DomainKind::Stock => {
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
            for f in fams {
                let defs = (f.build)(scale.defs, seed, &mut interner);
                out.push(run_agg_family(
                    "stock",
                    f.label,
                    &env,
                    &records,
                    defs,
                    &mut interner,
                    workers,
                    opts,
                ));
            }
        }
    }
    out
}

/// Formats an [`AggFamilyRun`] table row.
pub fn format_agg_row(r: &AggFamilyRun) -> String {
    let scaling: Vec<String> = r
        .scaling
        .iter()
        .map(|(w, t)| format!("w{w}={:.3}s", t.as_secs_f64()))
        .collect();
    format!(
        "{:<8} {:<4} {:>4} {:>8} {:>5}/{:<4} {:>10.2}x {:>11.3}s {:>8} {:>7} {:>8} {:>7} {:>6}  {}",
        r.domain,
        r.family,
        r.n_defs,
        r.n_records,
        r.proved,
        r.n_defs,
        r.speedup(),
        r.consolidation.as_secs_f64(),
        r.tier.as_str(),
        if r.digests_agree { "ok" } else { "DIVERGE" },
        r.folds,
        r.merges,
        r.quarantined,
        scaling.join(" "),
    )
}

/// Table header matching [`format_agg_row`].
pub fn agg_header() -> String {
    format!(
        "{:<8} {:<4} {:>4} {:>8} {:>10} {:>11} {:>12} {:>8} {:>7} {:>8} {:>7} {:>6}  {}",
        "domain",
        "fam",
        "n",
        "records",
        "proved",
        "spdup",
        "proof",
        "tier",
        "digest",
        "folds",
        "merges",
        "q'tine",
        "scaling"
    )
}

/// Serializes aggregation rows as a JSON array (hand-rolled, like
/// [`crate::family_runs_json`]); the schema backs the committed
/// `BENCH_agg.json` artifact. Scaling columns are `cons_udf_w{N}_s`.
pub fn agg_runs_json(runs: &[AggFamilyRun]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in runs.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let scaling: Vec<String> = r
            .scaling
            .iter()
            .map(|(w, t)| format!("\"cons_udf_w{w}_s\":{:.6}", t.as_secs_f64()))
            .collect();
        out.push_str(&format!(
            concat!(
                "  {{\"domain\":{},\"family\":{},\"n_defs\":{},\"n_records\":{},",
                "\"workers\":{},\"proved\":{},\"tier\":\"{}\",\"consolidation_s\":{:.6},",
                "\"homomorphism_checks\":{},\"proof_memo_hits\":{},\"smt_checks\":{},",
                "\"sep_udf_s\":{:.6},\"cons_udf_s\":{:.6},\"speedup\":{:.4},",
                "\"folds\":{},\"merges\":{},\"quarantined\":{},",
                "\"digests_agree\":{},\"output_digest\":\"{:016x}\",{}}}"
            ),
            crate::json_str(&r.domain),
            crate::json_str(&r.family),
            r.n_defs,
            r.n_records,
            r.workers,
            r.proved,
            r.tier.as_str(),
            r.consolidation.as_secs_f64(),
            r.proof_stats.checks,
            r.proof_stats.proof_memo_hits,
            r.proof_stats.solver.checks,
            r.sep_udf.as_secs_f64(),
            r.cons_udf.as_secs_f64(),
            r.speedup(),
            r.folds,
            r.merges,
            r.quarantined,
            r.digests_agree,
            r.output_digest,
            scaling.join(","),
        ));
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_emitted_as_escaped_json_strings() {
        let run = AggFamilyRun {
            domain: "a\"b\\\n\t\u{1}".to_owned(),
            family: "MIX".to_owned(),
            n_defs: 1,
            n_records: 1,
            workers: 1,
            proved: 1,
            tier: DegradationTier::Full,
            consolidation: Duration::ZERO,
            proof_stats: AggProofStats::default(),
            sep_udf: Duration::ZERO,
            cons_udf: Duration::ZERO,
            folds: 0,
            merges: 0,
            total_folds: 0,
            total_merges: 0,
            quarantined: 0,
            scaling: vec![(1, Duration::ZERO)],
            digests_agree: true,
            output_digest: 0,
        };
        let json = agg_runs_json(&[run]);
        let labels = r#""domain":"a\"b\\\n\t\u0001","family":"MIX","#;
        assert!(json.contains(labels), "{json}");
        // Rows are separated by raw newlines; nothing else may be raw.
        assert!(!json.chars().any(|c| c.is_control() && c != '\n'), "{json}");
    }
}

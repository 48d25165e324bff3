//! `warm-scan`: plans are built once in set-up and saved to a plan-cache
//! snapshot. Each rep loads the snapshot, gets every plan as a cache hit
//! (asserted: zero SMT checks), then runs repeated `Engine::run` passes over
//! paper-scale datasets under both backends, plus shared-scan aggregation
//! cells. The executor does the work and the solver is idle: an executor
//! change must show here, a solver change must not.

use crate::cells::{self, AnyCell, Cell, EnvCost, Gen};
use crate::harness::{add, ratio, Config, Cx, Layers, RepOut, Variant, Workload};
use crate::oracle;
use crate::trace::Tracer;
use consolidate::Options;
use naiad_lite::engine::{Engine, ExecBackend, ExecMode};
use naiad_lite::env::UdfEnv;
use naiad_lite::{AggMode, AggQuerySet, GuardPolicy};
use plan_cache::{CacheConfig, PlanCache, PlanKey, PlanOutcome};
use std::path::PathBuf;
use udf_data::twitter::{Tweet, TwitterEnv};
use udf_data::DomainKind;
use udf_lang::agg::AggDef;
use udf_lang::cost::CostModel;
use udf_lang::intern::Interner;

pub struct WarmScan {
    cells: Vec<Box<dyn AnyCell>>,
    aggs: AggCells,
    snapshot: PathBuf,
    passes: usize,
    workers: usize,
}

/// The SUM / VAR / MIX aggregation families over one shared tweet stream.
struct AggCells {
    env: TwitterEnv,
    records: Vec<Tweet>,
    interner: Interner,
    families: Vec<AggFamily>,
}

struct AggFamily {
    name: &'static str,
    defs: Vec<AggDef>,
    /// Homomorphism verdicts of set-up. A fully proved set is looked up in
    /// the cache again by every rep; a partly proved one (MIX, by design) is
    /// not, because the cache re-proves degraded entries on every lookup.
    proved: Vec<bool>,
    /// Sequential interpreter fold of every definition.
    expected: Vec<Vec<i64>>,
}

pub fn setup(cfg: &Config, tr: &mut Tracer, layers: &mut Layers) -> Result<WarmScan, String> {
    let mut g = Gen {
        seed: cfg.seed,
        query_seed: cfg.query_seed,
        tr: &mut *tr,
        layers: &mut *layers,
    };
    // Arithmetic-heavy families keep the VM / BatchVm busy; the two
    // prefiltered cells keep fastpred and the mask busy and the VM idle.
    let (mut cells, tweets, n_defs) = if cfg.smoke {
        (
            vec![
                cells::flight(&mut g, "Q3", 6, 1, false)?,
                cells::twitter(&mut g, "Q1", 6, 2_000, true)?,
            ],
            2_000,
            2,
        )
    } else {
        (
            vec![
                cells::stock(&mut g, "Q1", 4, udf_data::stock::DEFAULT_TICKERS, false)?,
                cells::flight(&mut g, "Q3", 16, 12, false)?,
                cells::weather(&mut g, "Q1", 21, 200, false)?,
                cells::news(&mut g, "PF", 21, udf_data::news::DEFAULT_ARTICLES, true)?,
                cells::twitter(&mut g, "Q1", 21, udf_data::twitter::DEFAULT_TWEETS, true)?,
            ],
            50_000,
            4,
        )
    };
    let mut aggs = agg_cells(&mut g, tweets, n_defs)?;

    let cache = PlanCache::default();
    for cell in &mut cells {
        cell.plan(&cache, tr, layers)?;
    }
    let cm = CostModel::default();
    for fam in &mut aggs.families {
        let mut interner = aggs.interner.clone();
        let (proof, s) = tr.timed("plan-cache", "consolidate_aggs_cached(miss)", || {
            plan_cache::consolidate_aggs_cached(
                &cache,
                &fam.defs,
                &mut interner,
                &cm,
                &Options::default(),
            )
        });
        let (proof, _, _) = proof.map_err(|e| format!("{}: consolidate_aggs: {e}", fam.name))?;
        fam.proved = proof.proved_flags();
        add(layers, "consolidate.agg_prove_ms", s * 1e3);
    }
    let snapshot = cfg.scratch.join("warm-scan.plan-cache");
    let (saved, s) = tr.timed("plan-cache", "PlanCache::save", || cache.save(&snapshot));
    saved.map_err(|e| format!("snapshot save: {e}"))?;
    add(layers, "plan-cache.snapshot_save_ms", s * 1e3);
    Ok(WarmScan {
        cells,
        aggs,
        snapshot,
        passes: if cfg.smoke { 2 } else { 6 },
        workers: cfg.workers,
    })
}

fn agg_cells(g: &mut Gen, tweets: usize, n_defs: usize) -> Result<AggCells, String> {
    let mut interner = Interner::new();
    let env = TwitterEnv::new(&mut interner);
    let (seed, query_seed) = (g.seed, g.query_seed);
    let (records, s) = g.tr.timed("udf-data", "twitter::dataset_sized", || {
        udf_data::twitter::dataset_sized(tweets, seed)
    });
    add(g.layers, "udf-data.generate_ms", s * 1e3);
    let mut families = Vec::new();
    for (label, name) in [
        ("SUM", "twitter-SUM"),
        ("VAR", "twitter-VAR"),
        ("MIX", "twitter-MIX"),
    ] {
        let fam = udf_data::agg::families(DomainKind::Twitter)
            .into_iter()
            .find(|f| f.label == label)
            .ok_or_else(|| format!("udf-data has no aggregation family {label}"))?;
        let defs = (fam.build)(n_defs, query_seed, &mut interner);
        let expected = oracle::agg_states(&env, &records, &defs, &interner)?;
        families.push(AggFamily {
            name,
            defs,
            proved: Vec::new(),
            expected,
        });
    }
    Ok(AggCells {
        env,
        records,
        interner,
        families,
    })
}

/// Consolidates the cell's queries once and stores the plan under both
/// backend keys, so every timed lookup of either backend is a hit.
pub fn plan_cell<E: UdfEnv>(
    cell: &mut Cell<E>,
    cache: &PlanCache,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> Result<(), String> {
    let cm = CostModel::default();
    let opts = Options {
        prefilter: cell.prefilter,
        ..Options::default()
    };
    let mut interner = cell.base.clone();
    let programs = udf_lang::parse::parse_programs(&cell.source, &mut interner)
        .map_err(|e| format!("{}: parse: {e:?}", cell.name))?;
    cell.set_key = udf_lang::canon::set_key(&programs, &interner);
    let (built, _) = tr.timed("plan-cache", "consolidate_many_cached(miss)", || {
        plan_cache::consolidate_many_cached(
            cache,
            &programs,
            &mut interner,
            &cm,
            &EnvCost(&cell.env),
            &opts,
            true,
            ExecBackend::PerRecord,
        )
    });
    let (merged, _) = built.map_err(|e| format!("{}: consolidate: {e}", cell.name))?;
    let key = |backend| PlanKey::derive(&programs, &interner, &opts, &cm, backend);
    let plan = cache
        .get(key(ExecBackend::PerRecord))
        .ok_or_else(|| format!("{}: plan was not stored", cell.name))?;
    cache.insert(key(ExecBackend::Columnar), (*plan).clone());
    if cell.prefilter {
        if merged.prefilter.is_none() {
            return Err(format!("{}: no pre-filter was synthesized", cell.name));
        }
        // The direct call, for the synthesis cost on its own.
        let (_, s) = tr.timed("consolidate", "prefilter::synthesize", || {
            consolidate::prefilter::synthesize(
                &programs,
                &merged.program,
                &interner,
                &cm,
                &EnvCost(&cell.env),
                &opts,
            )
        });
        add(layers, "consolidate.prefilter_synth_ms", s * 1e3);
    }
    Ok(())
}

impl Workload for WarmScan {
    fn rep(&mut self, _index: usize, variant: Variant, tr: &mut Tracer, out: &mut RepOut) {
        let mut cx = Cx {
            tr,
            recorder: variant.recorder(),
            workers: self.workers,
            out,
            acc: Layers::new(),
        };
        let rep = cx.tr.open("bench", "rep");
        let (cache, s) = cx.tr.timed("plan-cache", "PlanCache::load", || {
            PlanCache::load(&self.snapshot, CacheConfig::default())
        });
        add(&mut cx.out.layers, "plan-cache.snapshot_load_ms", s * 1e3);
        add(&mut cx.out.layers, "warm_plan_ms", s * 1e3);
        match cache {
            Ok(cache) => {
                for cell in &self.cells {
                    let result = cell.warm(&cache, self.passes, &mut cx);
                    cx.out.attempt(result);
                }
                for fam in &self.aggs.families {
                    let span = cx.tr.open("bench", fam.name);
                    let result = warm_agg(&self.aggs, fam, &cache, self.passes, &mut cx);
                    cx.tr.close(span);
                    cx.out.attempt(result);
                }
            }
            Err(e) => cx.out.attempt(Err(format!("snapshot load: {e}"))),
        }
        cx.out.wall_s = cx.tr.close(rep);

        let Cx { out, acc, .. } = cx;
        let l = &mut out.layers;
        for (name, num, den) in [
            ("plan-cache.hit_share", "hits", "lookups"),
            ("plan_cost_ratio", "cons_cost", "many_cost"),
            (
                "naiad-lite.per_record_ns_per_rec",
                "per_record_ns",
                "per_record_recs",
            ),
            (
                "naiad-lite.columnar_ns_per_rec",
                "columnar_ns",
                "columnar_recs",
            ),
            ("naiad-lite.many_ns_per_rec", "many_ns", "many_recs"),
            ("naiad-lite.udf_speedup", "many_udf_s", "cons_udf_s"),
            ("naiad-lite.prefilter_skip_share", "pf_skipped", "pf_recs"),
            ("naiad-lite.prefiltered_ns_per_rec", "pf_ns", "pf_recs"),
            ("naiad-lite.guard_ns_per_rec", "guard_ns", "guard_recs"),
            ("naiad-lite.agg_fold_ns_per_rec", "agg_ns", "agg_recs"),
            ("naiad-lite.agg_separate_ns_per_rec", "sep_ns", "sep_recs"),
        ] {
            l.insert(name, ratio(&acc, num, den));
        }
        l.insert("agg_records_per_s", 1e9 * ratio(&acc, "agg_recs", "agg_ns"));
        let engine_ms: f64 = out.ops_ms.iter().sum();
        l.insert("share.engine_of_rep", engine_ms / (out.wall_s * 1e3));
    }
}

pub fn warm_cell<E: UdfEnv>(
    cell: &Cell<E>,
    cache: &PlanCache,
    passes: usize,
    cx: &mut Cx,
) -> Result<(), String> {
    let span = cx.tr.open("bench", cell.name);
    let result = warm_cell_body(cell, cache, passes, cx);
    cx.tr.close(span);
    result
}

fn warm_cell_body<E: UdfEnv>(
    cell: &Cell<E>,
    cache: &PlanCache,
    passes: usize,
    cx: &mut Cx,
) -> Result<(), String> {
    let cm = CostModel::default();
    let opts = Options {
        recorder: cx.recorder.clone(),
        prefilter: cell.prefilter,
        ..Options::default()
    };
    let mut interner = cell.base.clone();
    let n = cell.records.len() as f64;
    let name = cell.name;
    let check_counts = |what: &str, counts: &[u64]| {
        if counts == cell.expected {
            Ok(())
        } else {
            Err(format!(
                "{name}: {what} counts {counts:?} differ from the interpreter's {:?}",
                cell.expected
            ))
        }
    };

    let (programs, s) = cx.tr.timed("udf-lang", "parse_programs", || {
        udf_lang::parse::parse_programs(&cell.source, &mut interner)
    });
    let programs = programs.map_err(|e| format!("{name}: parse: {e:?}"))?;
    add(&mut cx.out.layers, "udf-lang.parse_ms", s * 1e3);
    add(&mut cx.out.layers, "warm_plan_ms", s * 1e3);

    // The canonical key must not depend on which interner parsed the text.
    let (key, s) = cx.tr.timed("udf-lang", "canon::set_key", || {
        udf_lang::canon::set_key(&programs, &interner)
    });
    add(&mut cx.out.layers, "udf-lang.canon_ms", s * 1e3);
    add(&mut cx.out.layers, "warm_plan_ms", s * 1e3);
    if key != cell.set_key {
        return Err(format!(
            "{name}: canonical set key changed between set-up and rep"
        ));
    }

    for backend in [ExecBackend::PerRecord, ExecBackend::Columnar] {
        let (hit, s) = cx.tr.timed("plan-cache", "consolidate_many_cached", || {
            plan_cache::consolidate_many_cached(
                cache,
                &programs,
                &mut interner,
                &cm,
                &EnvCost(&cell.env),
                &opts,
                true,
                backend,
            )
        });
        let (merged, outcome) = hit.map_err(|e| format!("{name}: plan lookup: {e}"))?;
        add(&mut cx.out.layers, "plan-cache.hit_ms", s * 1e3);
        add(&mut cx.out.layers, "warm_plan_ms", s * 1e3);
        add(
            &mut cx.out.layers,
            "udf-smt.checks",
            merged.stats.solver.checks as f64,
        );
        add(&mut cx.acc, "lookups", 1.0);
        if outcome != PlanOutcome::Hit || merged.stats.solver.checks != 0 {
            return Err(format!(
                "{name}: expected a solver-free cache hit on {}, got {} with {} SMT checks",
                backend.as_str(),
                outcome.as_str(),
                merged.stats.solver.checks
            ));
        }
        add(&mut cx.acc, "hits", 1.0);

        let (qs, s) = cx.tr.timed("naiad-lite", "lower", || {
            cells::lower(&cell.env, &programs, &merged)
        });
        let qs = qs.map_err(|e| format!("{name}: lower: {e}"))?;
        add(&mut cx.out.layers, "naiad-lite.lower_ms", s * 1e3);
        add(&mut cx.out.layers, "warm_plan_ms", s * 1e3);
        if cell.prefilter && qs.prefilter.is_none() {
            return Err(format!("{name}: the cached plan lost its pre-filter"));
        }

        let engine = Engine::new(cx.workers)
            .with_backend(backend)
            .with_recorder(cx.recorder.clone());
        let (ns_key, recs_key) = match backend {
            ExecBackend::PerRecord => ("per_record_ns", "per_record_recs"),
            ExecBackend::Columnar => ("columnar_ns", "columnar_recs"),
        };
        let mut cons_udf_s = 0.0;
        for _ in 0..passes {
            let (job, s) = cx.tr.timed("naiad-lite", "Engine::run(Consolidated)", || {
                engine.run(&cell.env, &cell.records, &qs, ExecMode::Consolidated, false)
            });
            let job = job.map_err(|e| format!("{name}: run consolidated: {e}"))?;
            check_counts("consolidated", &job.counts)?;
            cx.out.records += cell.records.len() as u64;
            cx.out.records_wall_s += s;
            cx.out.ops_ms.push(s * 1e3);
            add(&mut cx.acc, ns_key, s * 1e9);
            add(&mut cx.acc, recs_key, n);
            if cell.prefilter {
                add(&mut cx.acc, "pf_ns", s * 1e9);
                add(&mut cx.acc, "pf_recs", n);
                add(&mut cx.acc, "pf_skipped", job.prefilter_skipped as f64);
            }
            cons_udf_s += job.udf_time.as_secs_f64();
        }
        if backend != ExecBackend::PerRecord {
            continue;
        }

        // Once per cell, on the reference backend: the paper's ratio, Thm. 1's
        // cost half, and a fully audited pass (what udf-serve runs).
        let (many, s) = cx.tr.timed("naiad-lite", "Engine::run(Many)", || {
            engine.run(&cell.env, &cell.records, &qs, ExecMode::Many, false)
        });
        let many = many.map_err(|e| format!("{name}: run many: {e}"))?;
        check_counts("many", &many.counts)?;
        cx.out.ops_ms.push(s * 1e3);
        add(&mut cx.acc, "many_ns", s * 1e9);
        add(&mut cx.acc, "many_recs", n);
        let cons_udf_s = cons_udf_s / passes as f64;
        let many_udf_s = many.udf_time.as_secs_f64();
        add(&mut cx.acc, "cons_udf_s", cons_udf_s);
        add(&mut cx.acc, "many_udf_s", many_udf_s);
        cx.out
            .layers
            .insert(cell.speedup_key, many_udf_s / cons_udf_s.max(1e-12));

        let mut costs = [0u64; 2];
        for (cost, mode) in costs
            .iter_mut()
            .zip([ExecMode::Consolidated, ExecMode::Many])
        {
            let (job, _) = cx.tr.timed("naiad-lite", "Engine::run(track_cost)", || {
                engine.run(&cell.env, &cell.records, &qs, mode, true)
            });
            *cost = job
                .map_err(|e| format!("{name}: cost-tracked run: {e}"))?
                .cost
                .unwrap_or(0);
        }
        add(&mut cx.acc, "cons_cost", costs[0] as f64);
        add(&mut cx.acc, "many_cost", costs[1] as f64);
        if costs[0] > costs[1] {
            return Err(format!(
                "{name}: consolidated cost {} exceeds sequential cost {}",
                costs[0], costs[1]
            ));
        }

        let audited = engine.clone().with_guard(GuardPolicy::audit_all());
        let (job, s) = cx.tr.timed("naiad-lite", "Engine::run(audit_all)", || {
            audited.run(&cell.env, &cell.records, &qs, ExecMode::Consolidated, false)
        });
        let job = job.map_err(|e| format!("{name}: audited run: {e}"))?;
        check_counts("audited", &job.counts)?;
        if job
            .guard
            .as_ref()
            .is_none_or(|g| g.mismatches != 0 || g.demoted)
        {
            return Err(format!(
                "{name}: the plan guard saw a divergence: {:?}",
                job.guard
            ));
        }
        add(&mut cx.acc, "guard_ns", s * 1e9);
        add(&mut cx.acc, "guard_recs", n);
    }
    Ok(())
}

fn warm_agg(
    aggs: &AggCells,
    fam: &AggFamily,
    cache: &PlanCache,
    passes: usize,
    cx: &mut Cx,
) -> Result<(), String> {
    let cm = CostModel::default();
    let opts = Options {
        recorder: cx.recorder.clone(),
        ..Options::default()
    };
    let mut interner = aggs.interner.clone();
    let name = fam.name;
    let n = aggs.records.len() as f64;

    if fam.proved.iter().all(|&p| p) {
        let (hit, s) = cx.tr.timed("plan-cache", "consolidate_aggs_cached", || {
            plan_cache::consolidate_aggs_cached(cache, &fam.defs, &mut interner, &cm, &opts)
        });
        let (proof, _, outcome) = hit.map_err(|e| format!("{name}: proof lookup: {e}"))?;
        add(&mut cx.out.layers, "plan-cache.hit_ms", s * 1e3);
        add(&mut cx.out.layers, "warm_plan_ms", s * 1e3);
        add(
            &mut cx.out.layers,
            "udf-smt.checks",
            proof.stats.solver.checks as f64,
        );
        add(&mut cx.acc, "lookups", 1.0);
        if outcome != PlanOutcome::Hit
            || proof.stats.solver.checks != 0
            || proof.proved_flags() != fam.proved
        {
            return Err(format!(
                "{name}: expected a solver-free cache hit with set-up's verdicts, got {}",
                outcome.as_str()
            ));
        }
        add(&mut cx.acc, "hits", 1.0);
    }
    let queries = AggQuerySet::new(fam.defs.clone(), fam.proved.clone());

    let engine = Engine::new(cx.workers).with_recorder(cx.recorder.clone());
    let run = |mode: AggMode, span: &'static str, cx: &mut Cx| -> Result<f64, String> {
        let (report, s) = cx.tr.timed("naiad-lite", span, || {
            engine.run_agg(&aggs.env, &aggs.records, &queries, &interner, mode)
        });
        let report = report.map_err(|e| format!("{name}: {span}: {e}"))?;
        cx.out.ops_ms.push(s * 1e3);
        if report.states != fam.expected {
            return Err(format!(
                "{name}: {span} states {:?} differ from the interpreter fold {:?}",
                report.states, fam.expected
            ));
        }
        Ok(s)
    };
    for _ in 0..passes {
        let s = run(AggMode::Consolidated, "Engine::run_agg(Consolidated)", cx)?;
        add(&mut cx.acc, "agg_ns", s * 1e9);
        add(&mut cx.acc, "agg_recs", n);
    }
    let s = run(AggMode::Separate, "Engine::run_agg(Separate)", cx)?;
    add(&mut cx.acc, "sep_ns", s * 1e9);
    add(&mut cx.acc, "sep_recs", n);
    Ok(())
}

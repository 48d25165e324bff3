//! Regenerates **Figure 9**: UDF-time and total-time speedups of
//! `where_consolidated` over `where_many` for every query family of every
//! domain, 50 queries per family.
//!
//! ```text
//! cargo run -p udf-bench --release --bin figure9 -- [domain|all] [--fast] [--queries N] [--seed S] [--metrics] [--guard] [--explain] [--prefilter] [--backend B] [--json PATH]
//! ```
//!
//! `--metrics` installs an in-memory [`udf_obs`] recorder shared by the Ω
//! engine, the entailment layer, the SMT solver, and the dataflow engine,
//! prints the JSON snapshot after the sweep, and cross-checks the recorder
//! counters against the summed [`consolidate::ConsolidationStats`] (they
//! must agree — both are incremented at the same sites). It also appends a
//! small guarded-execution demo (audited healthy plan, corrupted plan that
//! demotes, transient faults that retry) so the guard and retry metric
//! names are populated and cross-checked the same way.
//!
//! `--guard` additionally runs the benchmark sweep itself under a
//! `LogOnly` plan guard auditing every record — the shadow/mismatch columns
//! then report real differential-validation work (and must show zero
//! mismatches: Theorem 1 holds).
//!
//! `--explain` skips the benchmark and instead consolidates a small worked
//! pair of flight-style queries with derivation tracing on, printing the
//! rule-derivation tree (which rule of §4 fired at each node, justified by
//! which entailment queries) as indented text and as JSON. See
//! `OBSERVABILITY.md` for a walkthrough.
//!
//! `--prefilter` runs every (backend, domain, family) cell twice — pushdown
//! off, then on — gates the two runs' output digests on bit-identity (a
//! sound pre-filter must be unobservable), and appends a summary table of
//! records skipped, selectivity, and the consolidated-total speedup the
//! skip bought. Families whose candidates the verifier rejects (every
//! query body reaches a library call) legitimately report zero skips.
//!
//! The paper reports UDF speedups of 2.6×–24.2× (avg 8.4×) and total
//! speedups of 1.4×–23.1× (avg 6.0×), with consolidation averaging 0.3 s for
//! 50 UDFs. We reproduce the shape: consolidation wins in every family, the
//! largest wins come from families with heavy shared computation, and
//! consolidation time stays far below execution time.

use consolidate::Options;
use naiad_lite::engine::ExecBackend;
use udf_bench::{format_row, header, Scale};
use udf_data::DomainKind;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut domains: Vec<DomainKind> = Vec::new();
    let mut scale = Scale::full();
    let mut seed = 42u64;
    let mut metrics = false;
    let mut guard = false;
    let mut explain = false;
    let mut prefilter = false;
    let mut json: Option<String> = None;
    let mut backends = vec![ExecBackend::PerRecord];
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--fast" => scale = Scale::fast(),
            "--metrics" => metrics = true,
            "--guard" => guard = true,
            "--explain" => explain = true,
            "--prefilter" => prefilter = true,
            "--json" => {
                json = Some(it.next().expect("--json PATH").clone());
            }
            "--backend" => {
                let v = it.next().expect("--backend per-record|columnar|both");
                backends = match v.as_str() {
                    "both" => vec![ExecBackend::PerRecord, ExecBackend::Columnar],
                    other => vec![ExecBackend::parse(other).unwrap_or_else(|| {
                        eprintln!("unknown backend `{other}`; use per-record, columnar, or both");
                        std::process::exit(2);
                    })],
                };
            }
            "--queries" => {
                scale.queries = it.next().and_then(|v| v.parse().ok()).expect("--queries N");
            }
            "--passes" => {
                scale.passes = it.next().and_then(|v| v.parse().ok()).expect("--passes P");
            }
            "--seed" => {
                seed = it.next().and_then(|v| v.parse().ok()).expect("--seed S");
            }
            "all" => domains.extend(DomainKind::ALL),
            name => {
                match DomainKind::parse(name) {
                    Some(d) => domains.push(d),
                    None => {
                        eprintln!("unknown domain `{name}`; use one of weather/flight/news/twitter/stock/all");
                        std::process::exit(2);
                    }
                }
            }
        }
    }
    if domains.is_empty() {
        domains.extend(DomainKind::ALL);
    }

    if explain {
        run_explain();
        return;
    }

    let mut opts = Options::default();
    if metrics {
        opts.recorder = udf_obs::RecorderCell::memory();
    }
    // `--guard`: audit the whole sweep through the sequential path without
    // changing any output (LogOnly). Theorem 1 says zero mismatches.
    let guard_policy = if guard {
        naiad_lite::GuardPolicy {
            on_mismatch: naiad_lite::GuardAction::LogOnly,
            ..naiad_lite::GuardPolicy::audit_all()
        }
    } else {
        naiad_lite::GuardPolicy::default()
    };
    println!("Figure 9 — speedup of where_consolidated over where_many");
    println!(
        "(queries per family: {}, passes: {}, seed {seed})",
        scale.queries, scale.passes
    );
    println!("{}", header());
    let mut runs = Vec::new();
    // `--prefilter`: every cell runs twice, pushdown off then on, so the
    // digest gate below can prove the pre-filter was unobservable.
    let pf_passes: &[bool] = if prefilter { &[false, true] } else { &[false] };
    for &pf in pf_passes {
        opts.prefilter = pf;
        if prefilter {
            println!("-- prefilter: {}", if pf { "on" } else { "off" });
        }
        for &backend in &backends {
            if backends.len() > 1 {
                println!("-- backend: {}", backend.as_str());
            }
            for &d in &domains {
                for r in udf_bench::run_domain_guarded(d, scale, seed, &opts, guard_policy, backend)
                {
                    println!("{}", format_row(&r));
                    runs.push(r);
                }
            }
        }
    }
    // `--backend both`: the two backends must observe identical outputs —
    // every (domain, family) cell's output digest must agree bit-for-bit.
    if backends.len() > 1 {
        let mut diverged = 0usize;
        let base: Vec<&udf_bench::FamilyRun> = runs
            .iter()
            .filter(|r| r.backend == ExecBackend::PerRecord)
            .collect();
        for r in runs.iter().filter(|r| r.backend == ExecBackend::Columnar) {
            let Some(b) = base.iter().find(|b| {
                b.domain == r.domain && b.family == r.family && b.prefilter == r.prefilter
            }) else {
                continue;
            };
            if b.output_digest != r.output_digest {
                diverged += 1;
                eprintln!(
                    "DIVERGENCE {}/{}: per-record digest {:016x} != columnar digest {:016x}",
                    r.domain, r.family, b.output_digest, r.output_digest
                );
            }
        }
        println!(
            "backend parity: {} cells compared, {diverged} divergences",
            base.len()
        );
        if diverged > 0 {
            std::process::exit(1);
        }
    }
    // `--prefilter`: soundness gate + summary. Every pushdown-on run must
    // reproduce the pushdown-off digest bit-for-bit (Theorem: skipping only
    // records the verifier proved notify-all-false is unobservable), and the
    // summary shows what the skip bought where a candidate survived.
    if prefilter {
        let mut diverged = 0usize;
        println!("---");
        // The speedup column compares the *UDF phase* (per-record execution,
        // the thing skipping accelerates) — consolidation and pre-filter
        // synthesis are one-off costs amortized over the standing query's
        // lifetime, reported in the main table's `consolid.` column.
        println!(
            "{:>8} {:>6} {:>11} {:>10} {:>9} {:>11} {:>11} {:>9}",
            "domain",
            "family",
            "backend",
            "skipped",
            "select.",
            "off-udf(s)",
            "on-udf(s)",
            "udf-spdup"
        );
        let off: Vec<&udf_bench::FamilyRun> = runs.iter().filter(|r| !r.prefilter).collect();
        for r in runs.iter().filter(|r| r.prefilter) {
            let Some(b) = off
                .iter()
                .find(|b| b.domain == r.domain && b.family == r.family && b.backend == r.backend)
            else {
                continue;
            };
            if b.output_digest != r.output_digest {
                diverged += 1;
                eprintln!(
                    "PREFILTER DIVERGENCE {}/{} ({}): off digest {:016x} != on digest {:016x}",
                    r.domain,
                    r.family,
                    r.backend.as_str(),
                    b.output_digest,
                    r.output_digest
                );
            }
            println!(
                "{:>8} {:>6} {:>11} {:>10} {:>8.1}% {:>11.4} {:>11.4} {:>7.2}x",
                r.domain,
                r.family,
                r.backend.as_str(),
                r.prefilter_skipped,
                r.prefilter_skip_rate() * 100.0,
                b.cons_udf.as_secs_f64(),
                r.cons_udf.as_secs_f64(),
                b.cons_udf.as_secs_f64() / r.cons_udf.as_secs_f64().max(1e-9),
            );
        }
        println!(
            "prefilter parity: {} cells compared, {diverged} divergences",
            off.len()
        );
        if diverged > 0 {
            std::process::exit(1);
        }
    }
    if let Some(path) = &json {
        std::fs::write(path, udf_bench::family_runs_json(&runs)).expect("write --json file");
        println!("wrote {} rows to {path}", runs.len());
    }
    if runs.len() > 1 {
        let udf: Vec<f64> = runs.iter().map(|r| r.udf_speedup()).collect();
        let tot: Vec<f64> = runs.iter().map(|r| r.total_speedup()).collect();
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
        let cons_avg = runs
            .iter()
            .map(|r| r.consolidation.as_secs_f64())
            .sum::<f64>()
            / runs.len() as f64;
        println!("---");
        println!(
            "UDF speedup   : min {:.2}x  max {:.2}x  avg {:.2}x   (paper: 2.6x / 24.2x / 8.4x)",
            min(&udf),
            max(&udf),
            avg(&udf)
        );
        println!(
            "total speedup : min {:.2}x  max {:.2}x  avg {:.2}x   (paper: 1.4x / 23.1x / 6.0x)",
            min(&tot),
            max(&tot),
            avg(&tot)
        );
        println!(
            "consolidation : avg {:.3}s per family of {} UDFs   (paper: ~0.3s for 50 UDFs)",
            cons_avg, scale.queries
        );
        let checks: u64 = runs.iter().map(|r| r.stats.solver.checks).sum();
        let memo: u64 = runs.iter().map(|r| r.stats.memo_hits).sum();
        let refuted: u64 = runs.iter().map(|r| r.stats.countermodel_hits).sum();
        let pairs: u64 = runs.iter().map(|r| r.stats.pairs_consolidated).sum();
        println!(
            "solver work   : {checks} SMT checks, {memo} memo hits, {refuted} countermodel hits over {pairs} pairs ({:.1} checks/pair)",
            checks as f64 / pairs.max(1) as f64
        );
        let disagreements = runs.iter().filter(|r| !r.outputs_agree).count();
        println!(
            "output checks : {} families, {disagreements} mismatches",
            runs.len()
        );
        if disagreements > 0 {
            std::process::exit(1);
        }
    }

    // `--metrics`: exercise the guarded-execution machinery (the sweep's
    // healthy plans never trip it), then dump the shared recorder and
    // cross-check it against the summed per-family stats and the demo's
    // job reports. The recorder and the stats are incremented at the same
    // sites, so any drift here is a bug in the instrumentation.
    let demo = metrics.then(|| run_guard_demo(&opts.recorder));
    if let Some(snap) = opts.recorder.snapshot() {
        println!("--- metrics snapshot (udf-obs) ---");
        println!("{}", snap.to_json());
        let checks: u64 = runs.iter().map(|r| r.stats.solver.checks).sum();
        let memo: u64 = runs.iter().map(|r| r.stats.memo_hits).sum();
        let refuted: u64 = runs.iter().map(|r| r.stats.countermodel_hits).sum();
        let pairs: u64 = runs.iter().map(|r| r.stats.pairs_consolidated).sum();
        let demo = demo.unwrap_or_default();
        let shadow = demo.shadow_runs + runs.iter().map(|r| r.shadow_runs).sum::<u64>();
        let mismatches = demo.mismatches + runs.iter().map(|r| r.guard_mismatches).sum::<u64>();
        let demotions = demo.demotions + runs.iter().map(|r| r.guard_demotions).sum::<u64>();
        let retries = demo.retries + runs.iter().map(|r| r.retries).sum::<u64>();
        let mut coherent = true;
        for (name, stat) in [
            (udf_obs::names::SMT_CHECKS, checks),
            (udf_obs::names::ENTAIL_MEMO_HITS, memo),
            (udf_obs::names::ENTAIL_COUNTERMODEL_HITS, refuted),
            (udf_obs::names::PAIRS, pairs),
            (udf_obs::names::GUARD_SHADOW_RUNS, shadow),
            (udf_obs::names::GUARD_MISMATCHES, mismatches),
            (udf_obs::names::GUARD_DEMOTIONS, demotions),
            (udf_obs::names::ENGINE_RETRIES, retries),
        ] {
            let rec = snap.counter(name);
            let ok = rec == stat;
            coherent &= ok;
            println!(
                "coherence: {name:<28} recorder={rec:>8} stats={stat:>8} {}",
                if ok { "ok" } else { "MISMATCH" }
            );
        }
        // The guard span histogram must have timed exactly one shadow run
        // per sample.
        let guard_ns = snap
            .histogram(udf_obs::names::GUARD_NS)
            .map_or(0, |h| h.count);
        let ok = guard_ns == shadow;
        coherent &= ok;
        println!(
            "coherence: {:<28} recorder={guard_ns:>8} stats={shadow:>8} {}",
            udf_obs::names::GUARD_NS,
            if ok { "ok" } else { "MISMATCH" }
        );
        if !coherent {
            std::process::exit(1);
        }
    }
}

/// Report-side totals of the guarded-execution demo, used to cross-check
/// the recorder counters.
#[derive(Default)]
struct GuardDemo {
    shadow_runs: u64,
    mismatches: u64,
    demotions: u64,
    retries: u64,
}

/// Exercises every guarded-execution metric once, against `recorder`:
/// a fully audited healthy plan (shadow runs, zero mismatches), a corrupted
/// plan that trips the guard and demotes (mismatches + demotion), and
/// transient faults drained by retry. Prints a short transcript and returns
/// the totals according to the job reports.
fn run_guard_demo(recorder: &udf_obs::RecorderCell) -> GuardDemo {
    use naiad_lite::engine::{EngineConfig, QuerySet};
    use naiad_lite::{fault, Engine, ErrorPolicy, ExecMode, GuardPolicy, ScalarEnv};
    use udf_lang::library::Library;

    println!("--- guarded-execution demo ---");
    let mut demo = GuardDemo::default();
    let mut interner = udf_lang::intern::Interner::new();
    let probe = interner.intern("probe");
    let mut lib = udf_lang::FnLibrary::new();
    lib.register(probe, "probe", 1, 20, |a| a[0]);
    let programs: Vec<udf_lang::ast::Program> = (0..3u32)
        .map(|k| {
            udf_lang::parse::parse_program(
                &format!(
                    "program g{k} @{k} (v) {{ p := probe(v); if (p > {}) {{ notify true; }} else {{ notify false; }} }}",
                    k * 16
                ),
                &mut interner,
            )
            .expect("demo program parses")
        })
        .collect();
    let cm = udf_lang::cost::CostModel::default();
    let merged = consolidate::consolidate_many(
        &programs,
        &mut interner,
        &cm,
        &lib,
        &consolidate::Options::default(),
        false,
    )
    .expect("demo consolidates");
    let queries = QuerySet::compile_many(&programs, &cm, &|f| lib.cost(f))
        .and_then(|qs| qs.with_consolidated(&merged.program, &cm, &|f| lib.cost(f), merged.elapsed))
        .expect("demo compiles");
    let records: Vec<Vec<i64>> = (0..64i64).map(|v| vec![v]).collect();
    let env = ScalarEnv::new(1, lib);
    let engine = |guard: GuardPolicy, max_retries: u32| {
        Engine::new(2).with_config(EngineConfig {
            error_policy: ErrorPolicy::Quarantine { max_errors: 64 },
            guard,
            max_retries,
            recorder: recorder.clone(),
            ..EngineConfig::default()
        })
    };

    // 1. Healthy plan under full audit: shadow work, no divergence.
    let audited = engine(GuardPolicy::audit_all(), 0)
        .run(&env, &records, &queries, ExecMode::Consolidated, false)
        .expect("audited healthy run");
    let g = audited.guard.expect("guard report");
    demo.shadow_runs += g.shadow_runs;
    demo.mismatches += g.mismatches;
    println!(
        "healthy audit : {} shadow runs, {} mismatches",
        g.shadow_runs, g.mismatches
    );

    // 2. Corrupted plan: flip one Notify instruction; the guard detects the
    // divergence and demotes to sequential.
    let mut corrupted = queries.clone();
    let plan = corrupted.consolidated.as_mut().expect("demo plan");
    for instr in &mut plan.code {
        if let naiad_lite::regcode::ROp::Notify { value, .. } = &mut instr.op {
            *value = !*value;
            break;
        }
    }
    let healed = engine(GuardPolicy::audit_all(), 0)
        .run(&env, &records, &corrupted, ExecMode::Consolidated, false)
        .expect("demotion self-heals");
    let g = healed.guard.expect("guard report");
    demo.shadow_runs += g.shadow_runs;
    demo.mismatches += g.mismatches;
    demo.demotions += u64::from(g.demoted);
    println!(
        "corrupted plan: {} mismatches, demoted={}",
        g.mismatches, g.demoted
    );

    // 3. Transient faults drained by retry (no quarantine).
    let mut plan = fault::FaultPlan::none();
    for r in [5usize, 23, 41] {
        plan.insert(r, fault::FaultKind::Transient(2));
    }
    let mut interner2 = udf_lang::intern::Interner::new();
    let probe2 = interner2.intern("probe");
    let mut lib2 = udf_lang::FnLibrary::new();
    lib2.register(probe2, "probe", 1, 20, |a| a[0]);
    let faulty = fault::FaultyEnv::new(ScalarEnv::new(1, lib2), probe2, plan);
    let indexed = fault::FaultyEnv::<ScalarEnv>::index_records(records.iter().cloned());
    let retried = engine(GuardPolicy::default(), 3)
        .run(&faulty, &indexed, &queries, ExecMode::Many, false)
        .expect("transients drain");
    demo.retries += retried.quarantine.retry_attempts;
    println!(
        "transients    : {} retries, {} records recovered, {} quarantined",
        retried.quarantine.retry_attempts,
        retried.quarantine.records_recovered,
        retried.quarantine.records_quarantined
    );

    demo
}

/// Worked example for `--explain`: two flight-style standing queries that
/// share a per-day accumulation loop and differ only in their alert
/// thresholds. Consolidation interleaves the shared prologue, fuses (or
/// sequences) the twin loops, and merges the overlapping conditionals, so
/// the printed derivation names Seq, Assign, If, and Loop rules.
fn run_explain() {
    let mut interner = udf_lang::intern::Interner::new();
    let src = "program fare_alert @1 (price, days) {
                   total := 0;
                   i := days;
                   while (i > 0) { total := total + price; i := i - 1; }
                   if (total >= 900) { notify true; } else { notify false; }
               }
               program fare_deal @2 (price, days) {
                   total := 0;
                   i := days;
                   while (i > 0) { total := total + price; i := i - 1; }
                   if (total >= 500) { notify true; } else { notify false; }
               }";
    let programs =
        udf_lang::parse::parse_programs(src, &mut interner).expect("worked example parses");
    let opts = Options {
        explain: true,
        ..Options::default()
    };
    let cm = udf_lang::cost::CostModel::default();
    let merged = consolidate::consolidate_many(
        &programs,
        &mut interner,
        &cm,
        &udf_lang::cost::UniformFnCost(30),
        &opts,
        false,
    )
    .expect("worked example consolidates");
    let report = merged.explain.expect("explain was requested");

    println!("Consolidation explain — worked example (two flight-style queries)");
    println!();
    for p in &programs {
        println!("{}", udf_lang::pretty::program(p, &interner));
    }
    println!("merged plan:");
    println!("{}", udf_lang::pretty::program(&merged.program, &interner));
    println!("derivation (rule per node, `|=` lines are the entailment queries");
    println!("that justified it):");
    print!("{}", report.render_text());
    println!();
    println!("rules fired: {}", report.rules_fired().join(", "));
    println!();
    println!("json:");
    println!("{}", report.to_json());
}

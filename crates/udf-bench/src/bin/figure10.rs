//! Regenerates **Figure 10**: scalability with the number of UDFs.
//!
//! ```text
//! cargo run -p udf-bench --release --bin figure10 -- [--fast] [--seed S] [--metrics] [--prefilter] [--backend B] [--json PATH]
//! ```
//!
//! `--prefilter` switches the sweep to the PF family (token-count guards
//! nesting the text statistic — the shape pushdown synthesis targets), runs
//! every point twice (pushdown off then on), gates the two digests on
//! bit-identity, and reports records skipped, selectivity, and the
//! consolidated-total speedup at each sweep point.
//!
//! `--metrics` installs a shared in-memory [`udf_obs`] recorder and prints
//! its JSON snapshot after the sweep.
//!
//! The paper sweeps the number of News-domain mixed queries from 10 to 300
//! and plots (log-scale): `whereMany` UDF & total time growing linearly,
//! `whereConsolidated` UDF & total time staying roughly constant, and
//! consolidation time staying under a second. This binary prints the same
//! series as a table.

use consolidate::Options;
use naiad_lite::engine::ExecBackend;
use udf_bench::{run_family_guarded, Scale};
use udf_lang::intern::Interner;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::full();
    let mut seed = 42u64;
    let mut metrics = false;
    let mut prefilter = false;
    let mut json: Option<String> = None;
    let mut backend = ExecBackend::PerRecord;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--fast" => scale = Scale::fast(),
            "--metrics" => metrics = true,
            "--prefilter" => prefilter = true,
            "--json" => {
                json = Some(it.next().expect("--json PATH").clone());
            }
            "--backend" => {
                let v = it.next().expect("--backend per-record|columnar");
                backend = ExecBackend::parse(v).unwrap_or_else(|| {
                    eprintln!("unknown backend `{v}`; use per-record or columnar");
                    std::process::exit(2);
                });
            }
            "--seed" => {
                seed = it.next().and_then(|v| v.parse().ok()).expect("--seed S");
            }
            other => {
                eprintln!("unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }
    let sweep: &[usize] = if scale.records >= 0.99 {
        &[10, 50, 100, 150, 200, 250, 300]
    } else {
        &[5, 10, 20, 40]
    };
    // The scalability claim is about the *slope* of per-pass execution time;
    // two passes suffice and keep the 300-query sweep tractable. The
    // pre-filter sweep instead compares UDF-phase times between two runs of
    // the same point, which need enough passes to clear the noise floor —
    // especially on the small `--fast` datasets, whose per-pass times are
    // single-digit milliseconds.
    scale.passes = if prefilter {
        scale
            .passes
            .max(if scale.records >= 0.99 { 20 } else { 100 })
    } else {
        scale.passes.min(2)
    };

    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut opts = Options::default();
    if metrics {
        opts.recorder = udf_obs::RecorderCell::memory();
    }
    let mut interner = Interner::new();
    let env = udf_data::news::NewsEnv::new(&mut interner);
    let n_articles = ((udf_data::news::DEFAULT_ARTICLES as f64) * scale.records) as usize;
    let records = udf_data::news::dataset_sized(n_articles.max(100), seed);

    println!("Figure 10 — scalability with the number of UDFs (news domain, BC mix)");
    println!(
        "records: {}, workers: {workers}, seed {seed}",
        records.len()
    );
    if prefilter {
        run_prefilter(
            sweep,
            scale,
            seed,
            workers,
            &mut opts,
            &mut interner,
            &env,
            &records,
            backend,
            &json,
        );
        dump_metrics(&opts);
        return;
    }
    let mut runs = Vec::new();
    println!(
        "{:>6} {:>14} {:>14} {:>14} {:>14} {:>14} {:>10} {:>6}",
        "nUDFs",
        "many-udf(s)",
        "many-total(s)",
        "cons-udf(s)",
        "cons-total(s)",
        "consolid.(s)",
        "tier",
        "q'tine"
    );
    for &n in sweep {
        // The paper's scalability benchmark uses mixes of News query
        // families; BC is the mixed family.
        let programs = (bc_family().build)(n, seed, &mut interner);
        let r = run_family_guarded(
            "news",
            "BC",
            &env,
            &records,
            programs,
            &mut interner,
            workers,
            &opts,
            scale.passes,
            naiad_lite::GuardPolicy::default(),
            backend,
        );
        println!(
            "{:>6} {:>14.4} {:>14.4} {:>14.4} {:>14.4} {:>14.4} {:>10} {:>6}{}",
            n,
            r.many_udf.as_secs_f64(),
            r.many_total.as_secs_f64(),
            r.cons_udf.as_secs_f64(),
            r.cons_total.as_secs_f64(),
            r.consolidation.as_secs_f64(),
            r.stats.tier.as_str(),
            r.quarantined,
            if r.outputs_agree {
                ""
            } else {
                "  OUTPUT MISMATCH"
            },
        );
        runs.push(r);
    }
    if let Some(path) = &json {
        std::fs::write(path, udf_bench::family_runs_json(&runs)).expect("write --json file");
        println!("wrote {} rows to {path}", runs.len());
    }
    println!("---");
    println!("expected shape (paper): many-* grows linearly with nUDFs; cons-udf stays");
    println!("roughly flat; consolidation time grows but remains far below execution.");
    dump_metrics(&opts);
}

/// Prints the shared recorder's JSON snapshot when `--metrics` enabled one.
fn dump_metrics(opts: &Options) {
    if let Some(snap) = opts.recorder.snapshot() {
        println!("--- metrics snapshot (udf-obs) ---");
        println!("{}", snap.to_json());
    }
}

fn bc_family() -> udf_data::Family {
    news_family("BC")
}

fn news_family(label: &str) -> udf_data::Family {
    udf_data::news::families()
        .into_iter()
        .find(|f| f.label == label)
        .unwrap_or_else(|| panic!("news has a {label} family"))
}

/// Pre-filter sweep: the PF family (cheap token-count guards nesting the
/// expensive text statistic) at every sweep point, pushdown off then on.
/// The two runs must produce bit-identical output digests; the printed
/// speedup is what skipping guard-failing articles bought.
#[allow(clippy::too_many_arguments)]
fn run_prefilter(
    sweep: &[usize],
    scale: Scale,
    seed: u64,
    workers: usize,
    opts: &mut Options,
    interner: &mut Interner,
    env: &udf_data::news::NewsEnv,
    records: &[udf_data::news::Article],
    backend: ExecBackend,
    json: &Option<String>,
) {
    println!("prefilter mode: PF family, every point runs pushdown-off then pushdown-on");
    // UDF-phase times: the skip accelerates per-record execution, while
    // consolidation + synthesis are one-off costs the standing query
    // amortizes away.
    println!(
        "{:>6} {:>12} {:>12} {:>10} {:>9} {:>9} {:>8}",
        "nUDFs", "off-udf(s)", "on-udf(s)", "skipped", "select.", "udf-spdup", "digest"
    );
    let mut runs = Vec::new();
    let mut diverged = 0usize;
    for &n in sweep {
        let mut pair = Vec::with_capacity(2);
        for pf in [false, true] {
            opts.prefilter = pf;
            let programs = (news_family("PF").build)(n, seed, interner);
            pair.push(run_family_guarded(
                "news",
                "PF",
                env,
                records,
                programs,
                interner,
                workers,
                opts,
                scale.passes,
                naiad_lite::GuardPolicy::default(),
                backend,
            ));
        }
        let on = pair.pop().expect("on run");
        let off = pair.pop().expect("off run");
        let same = off.output_digest == on.output_digest;
        diverged += usize::from(!same);
        println!(
            "{:>6} {:>12.4} {:>12.4} {:>10} {:>8.1}% {:>8.2}x {:>8}",
            n,
            off.cons_udf.as_secs_f64(),
            on.cons_udf.as_secs_f64(),
            on.prefilter_skipped,
            on.prefilter_skip_rate() * 100.0,
            off.cons_udf.as_secs_f64() / on.cons_udf.as_secs_f64().max(1e-9),
            if same { "ok" } else { "MISMATCH" },
        );
        runs.push(off);
        runs.push(on);
    }
    if let Some(path) = json {
        std::fs::write(path, udf_bench::family_runs_json(&runs)).expect("write --json file");
        println!("wrote {} rows to {path}", runs.len());
    }
    println!("---");
    if diverged > 0 {
        println!("pushdown-on runs diverged from pushdown-off — the pre-filter was observable");
        std::process::exit(1);
    }
    println!("every pushdown-on run reproduced the pushdown-off digest bit-for-bit");
}

//! One benchmark for the cold path and the served path.
//!
//! `udf-perfbench --workload W --seed S --seconds T [--trace 0|1] [--smoke]`
//! sets the workload up, runs reps of its fixed seeded schedule for `T`
//! seconds, checks every output against the interpreter reference, prints
//! every metric by name with its unit, and ends with one JSON line. With
//! `--trace 0` it runs untraced and reports the end-to-end metrics, with
//! `--trace 1` it runs traced and reports the per-layer metrics, without
//! `--trace` it does both. `README.md` documents workloads and metrics.

mod cells;
mod cold_omega;
mod harness;
mod oracle;
mod serve;
mod stats;
mod trace;
mod warm_scan;

use harness::{Config, Layers, RepOut, Variant, Workload};
use stats::{median, summarize, Json, Summary};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

const WORKLOADS: [&str; 4] = ["cold-omega", "warm-scan", "serve-steady", "serve-churn"];
/// The seed runs use unless told otherwise, and the query seed of every run.
const DEFAULT_SEED: u64 = 42;
const DEFAULT_SECONDS: f64 = 30.0;
/// Set-up runs at least this often, and until it has taken this long in
/// total (a 15 ms set-up needs more than three samples); `setup_s` is the median.
const SETUP_REPEATS: usize = 3;
const SETUP_MIN_TOTAL_S: f64 = 0.5;

/// End-to-end metrics: every workload reports every one, from the untraced run.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("rep_s", "s"),
    ("records_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p95", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, from the traced run; 0 where a workload bypasses the layer.
const PER_LAYER: [(&str, &str); 59] = [
    ("udf-data.generate_ms", "ms"),
    ("udf-lang.parse_ms", "ms"),
    ("udf-lang.canon_ms", "ms"),
    ("udf-smt.checks", "count"),
    ("udf-smt.sat_conflicts", "count"),
    ("udf-smt.simplex_pivots", "count"),
    ("udf-smt.check_ms_total", "ms"),
    ("udf-smt.ms_per_check", "ms"),
    ("consolidate.omega_ms", "ms"),
    ("consolidate.entail_queries", "count"),
    ("consolidate.memo_hit_ratio", "ratio"),
    ("consolidate.rules_fired", "count"),
    ("consolidate.merged_size_ratio", "ratio"),
    ("consolidate.full_tier_share", "ratio"),
    ("consolidate.prefilter_synth_ms", "ms"),
    ("consolidate.agg_prove_ms", "ms"),
    ("consolidate.delta_add_ms", "ms"),
    ("consolidate.delta_remove_ms", "ms"),
    ("consolidate.delta_pairs_recomputed", "count"),
    ("plan-cache.hit_ms", "ms"),
    ("plan-cache.snapshot_load_ms", "ms"),
    ("plan-cache.snapshot_save_ms", "ms"),
    ("plan-cache.hit_share", "ratio"),
    ("naiad-lite.lower_ms", "ms"),
    ("naiad-lite.per_record_ns_per_rec", "ns"),
    ("naiad-lite.columnar_ns_per_rec", "ns"),
    ("naiad-lite.many_ns_per_rec", "ns"),
    ("naiad-lite.udf_speedup", "ratio"),
    ("family.stock-Q1.udf_speedup", "ratio"),
    ("family.flight-Q3.udf_speedup", "ratio"),
    ("family.weather-Q1.udf_speedup", "ratio"),
    ("family.news-PF.udf_speedup", "ratio"),
    ("family.twitter-Q1.udf_speedup", "ratio"),
    ("naiad-lite.prefilter_skip_share", "ratio"),
    ("naiad-lite.prefiltered_ns_per_rec", "ns"),
    ("naiad-lite.agg_fold_ns_per_rec", "ns"),
    ("naiad-lite.agg_separate_ns_per_rec", "ns"),
    ("naiad-lite.guard_ns_per_rec", "ns"),
    ("udf-serve.submit_ms", "ms"),
    ("udf-serve.run_epoch_ms", "ms"),
    ("udf-serve.journal_ms_per_round", "ms"),
    ("udf-serve.checkpoint_ms", "ms"),
    ("udf-serve.journal_frames", "count"),
    ("udf-serve.sequential_epoch_share", "ratio"),
    ("udf-serve.deferred_churn_ops", "count"),
    ("udf-serve.frames_replayed", "count"),
    ("udf-obs.recorder_overhead_share", "ratio"),
    ("bench.trace_overhead_share", "ratio"),
    // Workload-specific end-to-end views: a user sees them, but only one or
    // two workloads have them, and the contract wants every end-to-end
    // metric from every workload.
    ("plan_cost_ratio", "ratio"),
    ("warm_plan_ms", "ms"),
    ("agg_records_per_s", "1/s"),
    ("churn_ms_p50", "ms"),
    ("tier_lag_epochs", "count"),
    ("recover_s", "s"),
    // Shares of the rep wall, for the layer-separation check of the README.
    ("share.omega_of_rep", "ratio"),
    ("share.engine_of_rep", "ratio"),
    ("share.churn_of_rep", "ratio"),
    ("share.journal_of_round", "ratio"),
    ("bench.traced_reps", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    query_seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
}

/// Result files, trace files and every journal directory live here; `run.sh`
/// runs the benchmark from the repository root.
const OUT_DIR: &str = "bench/out";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        query_seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        smoke: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--query-seed" => {
                args.query_seed = value()?.parse().map_err(|e| format!("--query-seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_owned());
    }
    Ok(args)
}

fn make(
    workload: &str,
    cfg: &Config,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> Result<Box<dyn Workload>, String> {
    Ok(match workload {
        "cold-omega" => Box::new(cold_omega::setup(cfg, tr, layers)?),
        "warm-scan" => Box::new(warm_scan::setup(cfg, tr, layers)?),
        "serve-steady" => Box::new(serve::setup(cfg, false, tr, layers)?),
        _ => Box::new(serve::setup(cfg, true, tr, layers)?),
    })
}

/// Runs reps, rotating through `variants`, until `seconds` have passed and
/// at least `min_reps` are done. No rep is set aside as a warm-up: the
/// reported walls are the fastest ones, which a slow first rep cannot move.
fn run_reps(
    workload: &mut dyn Workload,
    variants: &[Variant],
    seconds: f64,
    min_reps: usize,
    first_index: usize,
    tr: &mut Tracer,
) -> Vec<(Variant, RepOut)> {
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < min_reps.max(variants.len()) || start.elapsed().as_secs_f64() < seconds {
        let variant = variants[reps.len() % variants.len()];
        let index = first_index + reps.len();
        tr.begin(variant.spans(), index as i32);
        let mut out = RepOut::default();
        workload.rep(index, variant, tr, &mut out);
        reps.push((variant, out));
    }
    reps
}

fn of(reps: &[(Variant, RepOut)], variant: Variant) -> impl Iterator<Item = &RepOut> {
    reps.iter()
        .filter(move |(v, _)| *v == variant)
        .map(|(_, out)| out)
}

fn walls(reps: &[(Variant, RepOut)], variant: Variant) -> Vec<f64> {
    of(reps, variant).map(|r| r.wall_s).collect()
}

/// Every rep replays the same schedule, so the k-th operation of every rep
/// is the same operation: its wall is the fastest of its occurrences in the
/// first `take` reps of `variant`. Quantiles over these are quantiles over
/// the schedule, not over the machine's slow stretches.
fn ops(reps: &[(Variant, RepOut)], variant: Variant, take: usize) -> Vec<f64> {
    let of = || of(reps, variant).take(take);
    let len = of().map(|r| r.ops_ms.len()).min().unwrap_or(0);
    (0..len)
        .map(|k| of().map(|r| r.ops_ms[k]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// The end-to-end metrics, each with the summary of the samples behind it.
///
/// Walls on this box have a floor and a one-sided tail: a stolen vCPU or a
/// slow fsync only ever adds time, for seconds to minutes at a stretch. The
/// fastest rep is the estimate of the cost that moves least between runs of
/// the same code (4 % against 10 % for the median rep, see the README), so
/// `rep_s`, `records_per_s` and the per-operation walls report the best rep.
/// `setup_s` is the median of the set-ups.
fn end_to_end(setup_s: &[f64], reps: &[(Variant, RepOut)]) -> Vec<(f64, Summary)> {
    let rate: Vec<f64> = of(reps, Variant::Plain)
        .map(|r| r.records as f64 / r.records_wall_s.max(1e-12))
        .collect();
    let ops = summarize(&ops(reps, Variant::Plain, usize::MAX));
    let rss = stats::peak_rss_mb();
    let (setup, rep, rate) = (
        summarize(setup_s),
        summarize(&walls(reps, Variant::Plain)),
        summarize(&rate),
    );
    vec![
        (setup.p50, setup),
        (rep.min, rep),
        (rate.max, rate),
        (ops.p50, ops),
        (ops.p95, ops),
        (rss, summarize(&[rss])),
    ]
}

/// The per-layer metrics: medians over the spans-only reps, from the reps
/// with the recorder for what only the recorder sees, from set-up for what
/// only set-up does.
fn per_layer(setups: &[Layers], reps: &[(Variant, RepOut)]) -> BTreeMap<&'static str, f64> {
    let median_of = |maps: Vec<&Layers>, key: &str| -> Option<f64> {
        let values: Vec<f64> = maps.iter().filter_map(|m| m.get(key).copied()).collect();
        (!values.is_empty()).then(|| median(&values))
    };
    let mut out: BTreeMap<&'static str, f64> = PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let spans = of(reps, Variant::Spans).map(|r| &r.layers).collect();
            let full = of(reps, Variant::Full).map(|r| &r.layers).collect();
            let value = median_of(spans, name)
                .or_else(|| median_of(full, name))
                .or_else(|| median_of(setups.iter().collect(), name));
            (name, value.unwrap_or(0.0))
        })
        .collect();

    let plain = median(&walls(reps, Variant::Plain));
    let over = |variant| {
        let traced = walls(reps, variant);
        if traced.is_empty() || plain == 0.0 {
            0.0
        } else {
            median(&traced) / plain - 1.0
        }
    };
    out.insert("bench.trace_overhead_share", over(Variant::Spans));
    out.insert("udf-obs.recorder_overhead_share", over(Variant::Full));
    // The fastest of k occurrences falls as k grows, so both sides of the
    // difference take the same number of reps.
    let pairs = of(reps, Variant::NoJournal)
        .count()
        .min(of(reps, Variant::Plain).count());
    if pairs > 0 {
        let round = median(&ops(reps, Variant::Plain, pairs));
        let journal = round - median(&ops(reps, Variant::NoJournal, pairs));
        out.insert("udf-serve.journal_ms_per_round", journal);
        out.insert("share.journal_of_round", journal / round.max(1e-12));
    }
    out.insert("bench.traced_reps", of(reps, Variant::Spans).count() as f64);
    out
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

fn env_or(key: &str, default: &str) -> String {
    std::env::var(key).unwrap_or_else(|_| default.to_owned())
}

fn run(args: &Args) -> Result<bool, String> {
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let scratch = Path::new(OUT_DIR).join(format!("tmp-{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let cfg = Config {
        seed: args.seed,
        query_seed: args.query_seed,
        smoke: args.smoke,
        workers,
        scratch: scratch.clone(),
    };
    let result = measure(args, &cfg);
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

/// What one invocation measured.
struct Measured {
    setup_s: Vec<f64>,
    reps: Vec<(Variant, RepOut)>,
    traced_reps: Vec<(Variant, RepOut)>,
    /// Values and sample summaries, in `END_TO_END` order.
    e2e: Vec<(f64, Summary)>,
    layers: BTreeMap<&'static str, f64>,
    tr: Tracer,
}

fn measure(args: &Args, cfg: &Config) -> Result<bool, String> {
    let untraced = args.trace != Some(true);
    let traced = args.trace != Some(false);
    let mut tr = Tracer::new();

    let mut workload = None;
    let mut setup_s = Vec::new();
    let mut setup_layers = Vec::new();
    while setup_s.len() < SETUP_REPEATS || setup_s.iter().sum::<f64>() < SETUP_MIN_TOTAL_S {
        let i = setup_s.len();
        // One set of inputs in memory at a time, so set-up does not inflate the peak.
        drop(workload.take());
        tr.begin(traced, -(i as i32) - 1);
        let mut layers = Layers::new();
        let span = tr.open("bench", "setup");
        workload = Some(make(&args.workload, cfg, &mut tr, &mut layers)?);
        setup_s.push(tr.close(span));
        setup_layers.push(layers);
    }
    let mut workload = workload.expect("set-up ran");

    let min_reps = if args.smoke { 2 } else { 5 };
    let (mut reps, mut traced_reps) = (Vec::new(), Vec::new());
    if untraced {
        let plain = [Variant::Plain];
        reps = run_reps(&mut *workload, &plain, args.seconds, min_reps, 0, &mut tr);
    }
    // Before the traced reps, so that they do not count towards the peak.
    let e2e = end_to_end(&setup_s, &reps);
    if traced {
        let (variants, first) = (workload.variants(), reps.len());
        traced_reps = run_reps(
            &mut *workload,
            variants,
            args.seconds,
            min_reps,
            first,
            &mut tr,
        );
    }
    let layers = per_layer(&setup_layers, &traced_reps);
    drop(workload);
    report(
        args,
        cfg,
        &Measured {
            setup_s,
            reps,
            traced_reps,
            e2e,
            layers,
            tr,
        },
    )
}

/// Prints every metric by name with its unit, writes the result and trace
/// files, and prints the result line last. Returns whether every output was
/// correct.
fn report(args: &Args, cfg: &Config, m: &Measured) -> Result<bool, String> {
    let all = || m.reps.iter().chain(&m.traced_reps).map(|(_, out)| out);
    let attempted: u64 = all().map(|r| r.attempted).sum();
    let failed: u64 = all().map(|r| r.failed).sum();
    let errors: Vec<&String> = all().flat_map(|r| &r.errors).collect();
    let correct = failed == 0 && attempted > 0;
    let share = failed as f64 / attempted.max(1) as f64;

    println!(
        "# {} seed={} query-seed={} seconds={} workers={} reps={}+{}",
        args.workload,
        args.seed,
        args.query_seed,
        args.seconds,
        cfg.workers,
        m.reps.len(),
        m.traced_reps.len()
    );
    let mut metrics = Vec::new();
    let mut summaries = Vec::new();
    if !m.reps.is_empty() {
        for (&(name, unit), (value, s)) in END_TO_END.iter().zip(&m.e2e) {
            println!(
                "{name:<40} {value:>16.6} {unit:<6} n={} min={:.6} q1={:.6} median={:.6} q3={:.6}",
                s.n, s.min, s.p25, s.p50, s.p75
            );
            metrics.push((name.to_owned(), metric_json(*value, unit)));
            let summary = Json::obj([
                ("n", Json::Int(s.n as i64)),
                ("min", Json::Num(s.min)),
                ("q1", Json::Num(s.p25)),
                ("median", Json::Num(s.p50)),
                ("q3", Json::Num(s.p75)),
                ("max", Json::Num(s.max)),
            ]);
            summaries.push((name.to_owned(), summary));
        }
    }
    if !m.traced_reps.is_empty() {
        for (name, unit) in PER_LAYER {
            println!("{name:<40} {:>16.6} {unit}", m.layers[name]);
            metrics.push((name.to_owned(), metric_json(m.layers[name], unit)));
        }
    }
    println!(
        "{:<40} {share:>16.6} ratio  ({failed} of {attempted} operations)",
        "failed_share"
    );
    for e in errors.iter().take(10) {
        eprintln!("FAILED: {e}");
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let machine = Json::obj([
        ("nproc", Json::Int(nproc as i64)),
        ("workers", Json::Int(cfg.workers as i64)),
        ("rustc", Json::Str(env_or("BENCH_RUSTC", "unknown"))),
        ("git_sha", Json::Str(env_or("BENCH_GIT_SHA", "unknown"))),
        ("profile", Json::str(profile)),
        (
            "journal_fs",
            Json::Str(env_or("BENCH_JOURNAL_FS", "unknown")),
        ),
        ("seed", Json::Int(args.seed as i64)),
        ("query_seed", Json::Int(args.query_seed as i64)),
        ("seconds", Json::Num(args.seconds)),
        ("smoke", Json::Bool(args.smoke)),
        ("setup_repeats", Json::Int(m.setup_s.len() as i64)),
        ("untraced_reps", Json::Int(m.reps.len() as i64)),
        ("traced_reps", Json::Int(m.traced_reps.len() as i64)),
    ]);
    let raw = |reps: &[(Variant, RepOut)]| {
        let rep = |(variant, out): &(Variant, RepOut)| {
            Json::obj([
                ("variant", Json::Str(format!("{variant:?}"))),
                ("wall_s", Json::Num(out.wall_s)),
                ("records", Json::Int(out.records as i64)),
                ("ops", Json::Int(out.ops_ms.len() as i64)),
            ])
        };
        Json::Arr(reps.iter().map(rep).collect())
    };
    let result = Json::obj([
        ("workload", Json::str(&args.workload)),
        ("claim", Json::Null),
        ("machine", machine),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted as i64)),
        ("failed", Json::Int(failed as i64)),
        ("failed_share", Json::Num(share)),
        (
            "errors",
            Json::Arr(errors.iter().map(|e| Json::str(e)).collect()),
        ),
        ("metrics", Json::Obj(metrics.clone())),
        ("end_to_end_samples", Json::Obj(summaries)),
        ("setup_s", Json::nums(&m.setup_s)),
        ("op_ms", Json::nums(&ops(&m.reps, Variant::Plain, usize::MAX))),
        ("untraced_reps", raw(&m.reps)),
        ("traced_reps", raw(&m.traced_reps)),
    ]);
    write(
        &Path::new(OUT_DIR).join(format!("{}.json", args.workload)),
        &result,
    )?;
    if !m.tr.is_empty() {
        let path = Path::new(OUT_DIR).join(format!("{}.trace.json", args.workload));
        write(&path, &m.tr.to_json())?;
    }

    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted as i64)),
        ("failed", Json::Int(failed as i64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", line.render());
    Ok(correct)
}

fn write(path: &Path, json: &Json) -> Result<(), String> {
    std::fs::write(path, json.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| run(&args));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // The result line is out; the exit code says an output was wrong.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("udf-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

//! `serve-steady` and `serve-churn`: the served path of `udf-serve`.
//!
//! Both drive one journaled `Service` per rep through the same closed
//! submit → `run_epoch` round loop over a `ScalarEnv`, 8 tenants × 3
//! threshold/score queries that share library calls.
//!
//! * `serve-steady` keeps the query set fixed and every batch below the
//!   degrade watermark: journal append + fsync and the epoch driver
//!   dominate, nothing is deferred, shed or rejected, and consolidation
//!   happens only before the round loop.
//! * `serve-churn` adds a seeded register/deregister every eighth round
//!   (delta consolidation, pre-filter re-synthesis, checkpoint compaction)
//!   and a burst every twenty-fourth round that lifts pressure above the degrade
//!   watermark (deferred churn, sequential epochs, never shedding), and
//!   ends each rep by dropping the service and recovering it from disk.

use crate::cells::EnvCost;
use crate::harness::{add, record_smt_ms, smt_check_ms, Config, Layers, RepOut, Variant, Workload};
use crate::oracle;
use crate::stats::median;
use crate::trace::Tracer;
use consolidate::{DegradationTier, DeltaPlan, Options};
use naiad_lite::ScalarEnv;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use udf_lang::ast::{ProgId, Program};
use udf_lang::cost::CostModel;
use udf_lang::intern::Interner;
use udf_lang::FnLibrary;
use udf_serve::{
    Accounting, Admission, ChurnOutcome, EpochMode, EpochReport, ServeConfig, Service, TenantId,
};

const TENANTS: u32 = 8;
const QUERIES_PER_TENANT: u32 = 3;
/// A churn op lands on every eighth round, alternately a register and a
/// deregister; a burst lands with every third of them, which is therefore
/// deferred (and is alternately a register and a deregister too). Most ops
/// meet a calm queue, so the median op is a delta consolidation; three rounds
/// in four see neither churn nor backlog, so the median round is a plain one
/// and not the boundary between two kinds of round.
const CHURN_EVERY: usize = 8;
const BURST_EVERY: usize = 24;
/// Extra batches of a burst: 13 of 16 queue slots, above the 0.75 degrade
/// watermark and below the 0.90 shed watermark.
const BURST_BATCHES: usize = 12;

type Rec = Vec<i64>;

struct QueryDef {
    tenant: u32,
    id: u32,
    source: String,
}

enum Churn {
    Register(QueryDef),
    Deregister { tenant: u32, id: u32 },
}

struct Round {
    /// The round's batch, followed by the burst's on burst rounds.
    batches: Vec<Vec<Rec>>,
    churn: Option<Churn>,
}

/// The fixed seeded input of one rep: source text, records, op schedule.
struct Schedule {
    batch: usize,
    initial: Vec<QueryDef>,
    /// Submitted and run once before the round loop, untimed, so the first
    /// timed epoch does not pay the shared query set's first lowering.
    warmup: Vec<Rec>,
    rounds: Vec<Round>,
}

/// What every rep must reproduce.
struct Reference {
    /// `truth[id][domain_index(rec)]`: the interpreter's verdict of query `id`
    /// on every record the generator can draw. The domain is small, so the
    /// table costs the same whatever the batch size.
    truth: BTreeMap<u32, Vec<bool>>,
    /// Domain index of every submitted record, in submission order.
    stream: Vec<usize>,
    /// Output digest of every epoch of the journal-off run.
    digests: Vec<u64>,
    accounting: Accounting,
}

pub struct Serve {
    churn: bool,
    schedule: Schedule,
    reference: Reference,
    workers: usize,
    scratch: PathBuf,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn below(rng: &mut u64, n: u64) -> i64 {
    (splitmix64(rng) % n) as i64
}

fn build_env() -> (ScalarEnv, Interner) {
    let mut interner = Interner::new();
    let score = interner.intern("score");
    let boost = interner.intern("boost");
    let mut lib = FnLibrary::new();
    lib.register(score, "score", 1, 40, |a| (a[0] * 7 + 13) % 1000);
    lib.register(boost, "boost", 1, 15, |a| a[0] * 5);
    (ScalarEnv::new(2, lib), interner)
}

/// One of three shapes; all call `score(x)` behind a cheap guard on `y`, so
/// the merged plan shares the call and a pre-filter on `y` can be proved.
fn query(tenant: u32, id: u32, rng: &mut u64) -> QueryDef {
    let guard = 2 + below(rng, 8);
    let test = match id % QUERIES_PER_TENANT {
        0 => format!("s := score(x); if (s > {})", 100 + below(rng, 800)),
        1 => format!(
            "s := score(x); b := boost(y); if (s + b > {})",
            150 + below(rng, 800)
        ),
        _ => {
            let lo = below(rng, 500);
            format!(
                "s := score(x); if (s > {lo} && s < {})",
                lo + 100 + below(rng, 400)
            )
        }
    };
    let source = format!(
        "program q{id} @{id} (x, y) {{
             if (y >= {guard}) {{ {test} {{ notify true; }} else {{ notify false; }} }}
             else {{ notify false; }}
         }}"
    );
    QueryDef { tenant, id, source }
}

/// Records are `[x, y]` with `x < X_RANGE` and `y < Y_RANGE`.
const X_RANGE: i64 = 1000;
const Y_RANGE: i64 = 16;

fn batch(n: usize, rng: &mut u64) -> Vec<Rec> {
    (0..n)
        .map(|_| vec![below(rng, X_RANGE as u64), below(rng, Y_RANGE as u64)])
        .collect()
}

fn domain_index(rec: &Rec) -> usize {
    (rec[0] * Y_RANGE + rec[1]) as usize
}

fn schedule(cfg: &Config, churn: bool) -> Schedule {
    // A plain round has fixed costs that follow the machine, not the program:
    // two fsyncs and the wake-up of the epoch's worker threads. At 1024 records
    // they were a third of a round and the median round moved between 2.0 ms
    // and 3.4 ms from one run of the same code to the next; at 4096 records a
    // round is 6 ms to 7 ms and ten runs on ten seeds spread by 1 %. 96 rounds
    // (11 churn ops, 4 bursts) keep a churn rep near 2 s, so a 20 s run has 8.
    let (rounds, batch_len) = match (cfg.smoke, churn) {
        (true, _) => (12, 64),
        (false, false) => (64, 4096),
        (false, true) => (96, 4096),
    };
    // Queries and churn ops come from the query seed, like the query families
    // of the other workloads: delta consolidation and recovery cost swing
    // with the drawn thresholds. `--seed` draws the records.
    let mut ops_rng = cfg.query_seed ^ 0x5e72_7665; // "serve"
    let mut rng = cfg.seed ^ 0x7265_6373; // "recs"
    let initial: Vec<QueryDef> = (0..TENANTS * QUERIES_PER_TENANT)
        .map(|id| query(id / QUERIES_PER_TENANT, id, &mut ops_rng))
        .collect();
    let warmup = batch(batch_len, &mut rng);
    // Deregistrations draw distinct victims from the initial set, so a
    // victim is always live when its op is issued.
    let mut victims: Vec<u32> = (0..initial.len() as u32).collect();
    let mut next_id = initial.len() as u32;
    let mut ops = 0usize;
    let rounds = (0..rounds)
        .map(|r| {
            let mut batches = vec![batch(batch_len, &mut rng)];
            let mut op = None;
            if churn && r > 0 && r % CHURN_EVERY == 0 {
                if r % BURST_EVERY == CHURN_EVERY {
                    batches.extend((0..BURST_BATCHES).map(|_| batch(batch_len, &mut rng)));
                }
                op = Some(if ops.is_multiple_of(2) {
                    let tenant = below(&mut ops_rng, u64::from(TENANTS)) as u32;
                    next_id += 1;
                    Churn::Register(query(tenant, next_id - 1, &mut ops_rng))
                } else {
                    let pick = below(&mut ops_rng, victims.len() as u64) as usize;
                    let id = victims.swap_remove(pick);
                    Churn::Deregister {
                        tenant: id / QUERIES_PER_TENANT,
                        id,
                    }
                });
                ops += 1;
            }
            Round { batches, churn: op }
        })
        .collect();
    Schedule {
        batch: batch_len,
        initial,
        warmup,
        rounds,
    }
}

impl Schedule {
    fn config(&self, workers: usize, recorder: udf_obs::RecorderCell) -> ServeConfig {
        ServeConfig {
            queue_capacity: 16 * self.batch,
            epoch_batch_limit: 4 * self.batch,
            workers,
            consolidation: Options {
                prefilter: true,
                recorder: recorder.clone(),
                ..Options::default()
            },
            recorder,
            ..ServeConfig::default()
        }
    }

    /// Domain index of every submitted record, in submission order.
    fn stream(&self) -> Vec<usize> {
        let rounds = self.rounds.iter().flat_map(|r| r.batches.iter().flatten());
        self.warmup.iter().chain(rounds).map(domain_index).collect()
    }

    fn queries(&self) -> impl Iterator<Item = &QueryDef> {
        let registered = self.rounds.iter().filter_map(|r| match &r.churn {
            Some(Churn::Register(q)) => Some(q),
            _ => None,
        });
        self.initial.iter().chain(registered)
    }
}

fn parse(q: &QueryDef, interner: &mut Interner) -> Result<Program, String> {
    udf_lang::parse::parse_program(&q.source, interner)
        .map_err(|e| format!("query {}: parse: {e:?}", q.id))
}

/// What one pass over the schedule observed.
#[derive(Default)]
struct RunLog {
    reports: Vec<EpochReport>,
    round_ms: Vec<f64>,
    submit_ms: Vec<f64>,
    epoch_ms: Vec<f64>,
    churn_ms: Vec<f64>,
    /// `(tenant, id, epochs run when register was called)`.
    registered: Vec<(u32, u32, u64)>,
    deferred_ops: u64,
    /// One entry per churn op: an error, or an end other than applied or
    /// deferred, is a failure.
    churn_results: Vec<Result<(), String>>,
    rejected: u64,
    loop_s: f64,
}

/// Registers the initial queries and runs the warm-up round. Untimed.
fn prepare(
    svc: &mut Service<ScalarEnv>,
    schedule: &Schedule,
    log: &mut RunLog,
) -> Result<(), String> {
    for q in &schedule.initial {
        let program = parse(q, svc.interner_mut())?;
        match svc.register(TenantId(q.tenant), &program) {
            Ok(ChurnOutcome::Applied(_)) => {}
            other => return Err(format!("initial register of {}: {other:?}", q.id)),
        }
    }
    svc.submit(schedule.warmup.clone())
        .map_err(|e| format!("warm-up submit: {e}"))?;
    log.reports
        .push(svc.run_epoch().map_err(|e| format!("warm-up epoch: {e}"))?);
    Ok(())
}

/// The timed round loop, then (churn only) idle epochs until the queue is empty.
fn drive(
    svc: &mut Service<ScalarEnv>,
    schedule: &Schedule,
    tr: &mut Tracer,
    layers: &mut Layers,
    log: &mut RunLog,
) -> Result<(), String> {
    let rounds = tr.open("bench", "rounds");
    for round in &schedule.rounds {
        let mark = tr.open("bench", "round");
        for records in &round.batches {
            let records = records.clone();
            let (admission, s) = tr.timed("udf-serve", "Service::submit", || svc.submit(records));
            log.submit_ms.push(s * 1e3);
            match admission.map_err(|e| format!("submit: {e}"))? {
                Admission::Admitted { .. } => {}
                Admission::Rejected { .. } => log.rejected += 1,
            }
        }
        if let Some(op) = &round.churn {
            let (outcome, s) = match op {
                Churn::Register(q) => {
                    let program = parse(q, svc.interner_mut())?;
                    log.registered.push((q.tenant, q.id, svc.status().epoch));
                    tr.timed("udf-serve", "Service::register", || {
                        svc.register(TenantId(q.tenant), &program)
                    })
                }
                Churn::Deregister { tenant, id } => {
                    tr.timed("udf-serve", "Service::deregister", || {
                        svc.deregister(TenantId(*tenant), ProgId(*id))
                    })
                }
            };
            log.churn_ms.push(s * 1e3);
            log.churn_results.push(match outcome {
                Ok(ChurnOutcome::Applied(delta)) => {
                    let st = &delta.stats;
                    for (key, count) in [
                        ("udf-smt.checks", st.solver.checks),
                        ("udf-smt.sat_conflicts", st.solver.sat_conflicts),
                        ("udf-smt.simplex_pivots", st.solver.simplex_pivots),
                        ("consolidate.entail_queries", st.entailment_queries),
                    ] {
                        add(layers, key, count as f64);
                    }
                    Ok(())
                }
                Ok(ChurnOutcome::Deferred) => {
                    log.deferred_ops += 1;
                    Ok(())
                }
                other => Err(format!("churn op ended as {other:?}")),
            });
        }
        let (report, s) = tr.timed("udf-serve", "Service::run_epoch", || svc.run_epoch());
        log.epoch_ms.push(s * 1e3);
        log.reports.push(report.map_err(|e| format!("epoch: {e}"))?);
        log.round_ms.push(tr.close(mark) * 1e3);
    }
    log.loop_s = tr.close(rounds);
    for _ in 0..2 * BURST_BATCHES {
        if svc.status().queued_records == 0 {
            break;
        }
        let (report, _) = tr.timed("udf-serve", "Service::run_epoch", || svc.run_epoch());
        log.reports
            .push(report.map_err(|e| format!("drain epoch: {e}"))?);
    }
    Ok(())
}

pub fn setup(
    cfg: &Config,
    churn: bool,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> Result<Serve, String> {
    let (schedule, s) = tr.timed("bench", "schedule", || schedule(cfg, churn));
    add(layers, "udf-data.generate_ms", s * 1e3);

    let (env, mut interner) = build_env();
    let ids: Vec<u32> = schedule.queries().map(|q| q.id).collect();
    let programs = schedule
        .queries()
        .map(|q| parse(q, &mut interner))
        .collect::<Result<Vec<_>, _>>()?;
    let domain: Vec<Rec> = (0..X_RANGE)
        .flat_map(|x| (0..Y_RANGE).map(move |y| vec![x, y]))
        .collect();
    let rows = oracle::truth_table(&env, &domain, &programs, &interner)?;
    let truth = ids.into_iter().zip(rows).collect();

    // The journal-off run: its digest chain is what journaling must not change.
    let (env, interner) = build_env();
    let mut svc = Service::new(
        env,
        schedule.config(cfg.workers, udf_obs::RecorderCell::noop()),
    );
    *svc.interner_mut() = interner;
    let mut log = RunLog::default();
    prepare(&mut svc, &schedule, &mut log)?;
    drive(&mut svc, &schedule, tr, &mut Layers::new(), &mut log)?;
    let reference = Reference {
        truth,
        stream: schedule.stream(),
        digests: log.reports.iter().map(|r| r.output_digest).collect(),
        accounting: svc.accounting(),
    };
    let serve = Serve {
        churn,
        schedule,
        reference,
        workers: cfg.workers,
        scratch: cfg.scratch.clone(),
    };
    let mut check = RepOut::default();
    serve.verify(&log, &mut check);
    match check.errors.first() {
        Some(e) => Err(format!("journal-off reference run: {e}")),
        None => Ok(serve),
    }
}

impl Serve {
    /// Checks one pass against the reference; every epoch, churn op and the
    /// final accounting is one attempted operation.
    fn verify(&self, log: &RunLog, out: &mut RepOut) {
        let mut cursor = 0usize;
        for (i, report) in log.reports.iter().enumerate() {
            let slice = cursor..cursor + report.processed;
            cursor = slice.end;
            out.attempt(self.verify_epoch(i, report, slice));
        }
        for result in &log.churn_results {
            out.attempt(result.clone());
        }
        out.attempt(if log.rejected > 0 {
            Err(format!(
                "{} batches were rejected at admission",
                log.rejected
            ))
        } else if log.reports.len() != self.reference.digests.len() {
            Err(format!(
                "{} epochs ran, the journal-off run had {}",
                log.reports.len(),
                self.reference.digests.len()
            ))
        } else {
            Ok(())
        });
    }

    fn verify_epoch(
        &self,
        index: usize,
        report: &EpochReport,
        slice: std::ops::Range<usize>,
    ) -> Result<(), String> {
        let epoch = report.epoch;
        if !report.shed.is_empty() || !report.churn_errors.is_empty() || !report.demoted.is_empty()
        {
            return Err(format!(
                "epoch {epoch}: shed {:?}, churn errors {:?}, demoted {:?}",
                report.shed, report.churn_errors, report.demoted
            ));
        }
        if !self.churn && (report.mode != EpochMode::Consolidated || report.deferred_churn > 0) {
            return Err(format!(
                "epoch {epoch}: steady epoch ran {:?} with {} deferred ops",
                report.mode, report.deferred_churn
            ));
        }
        if self.reference.digests.get(index) != Some(&report.output_digest) {
            return Err(format!(
                "epoch {epoch}: digest differs from the journal-off run"
            ));
        }
        for (tenant, slice_report) in &report.tenants {
            for (id, &count) in &slice_report.counts {
                let row = self
                    .reference
                    .truth
                    .get(id)
                    .ok_or_else(|| format!("epoch {epoch}: unknown query {id}"))?;
                let records = &self.reference.stream[slice.clone()];
                let expected = records.iter().filter(|&&i| row[i]).count() as u64;
                if count != expected {
                    return Err(format!(
                        "epoch {epoch}: {tenant} query {id} counted {count}, the interpreter {expected}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Mean epochs from `register` to the first epoch that runs the query
    /// inside the shared plan at tier Full (0 = the very next epoch).
    fn tier_lag(log: &RunLog) -> f64 {
        let lags: Vec<f64> = log
            .registered
            .iter()
            .filter_map(|&(tenant, id, issued_at)| {
                let first = log.reports.iter().find(|r| {
                    r.epoch > issued_at
                        && r.mode == EpochMode::Consolidated
                        && r.plan_tier == DegradationTier::Full
                        && r.tenants
                            .get(&TenantId(tenant))
                            .is_some_and(|t| !t.solo && t.counts.contains_key(&id))
                })?;
                Some((first.epoch - issued_at - 1) as f64)
            })
            .collect();
        if lags.is_empty() {
            0.0
        } else {
            lags.iter().sum::<f64>() / lags.len() as f64
        }
    }

    /// `DeltaPlan::add` / `remove` on the rep's own op sequence, outside the
    /// service: what delta consolidation alone costs per churn op.
    fn replay_delta(&self, tr: &mut Tracer, layers: &mut Layers) -> Result<(), String> {
        let (env, mut interner) = build_env();
        let cm = CostModel::default();
        let opts = Options::default();
        let mut plan = DeltaPlan::new();
        for q in &self.schedule.initial {
            let program = parse(q, &mut interner)?;
            plan.add(&program, &mut interner, &cm, &EnvCost(&env), &opts)
                .map_err(|e| format!("delta replay: {e}"))?;
        }
        let (mut add_ms, mut remove_ms, mut pairs) = (Vec::new(), Vec::new(), 0u64);
        for op in self.schedule.rounds.iter().filter_map(|r| r.churn.as_ref()) {
            let report = match op {
                Churn::Register(q) => {
                    let program = parse(q, &mut interner)?;
                    let (report, s) = tr.timed("consolidate", "DeltaPlan::add", || {
                        plan.add(&program, &mut interner, &cm, &EnvCost(&env), &opts)
                    });
                    add_ms.push(s * 1e3);
                    report
                }
                Churn::Deregister { id, .. } => {
                    let (report, s) = tr.timed("consolidate", "DeltaPlan::remove", || {
                        plan.remove(ProgId(*id), &interner, &cm, &EnvCost(&env), &opts)
                    });
                    remove_ms.push(s * 1e3);
                    report
                }
            };
            pairs += report
                .map_err(|e| format!("delta replay: {e}"))?
                .pairs_recomputed;
        }
        layers.insert("consolidate.delta_add_ms", median(&add_ms));
        layers.insert("consolidate.delta_remove_ms", median(&remove_ms));
        layers.insert("consolidate.delta_pairs_recomputed", pairs as f64);
        Ok(())
    }

    fn run(
        &self,
        dir: &Path,
        variant: Variant,
        tr: &mut Tracer,
        out: &mut RepOut,
        log: &mut RunLog,
    ) -> Result<(), String> {
        let recorder = variant.recorder();
        let config = self.schedule.config(self.workers, recorder.clone());
        let journaled = variant != Variant::NoJournal;
        let (env, interner) = build_env();
        let mut svc = if journaled {
            std::fs::create_dir_all(dir).map_err(|e| format!("journal dir: {e}"))?;
            Service::open(env, interner, config.clone(), dir).map_err(|e| format!("open: {e}"))?
        } else {
            let mut svc = Service::new(env, config.clone());
            *svc.interner_mut() = interner;
            svc
        };
        prepare(&mut svc, &self.schedule, log)?;

        let smt_before = smt_check_ms(&recorder);
        let rep = tr.open("bench", "rep");
        drive(&mut svc, &self.schedule, tr, &mut out.layers, log)?;
        let before = (format!("{:?}", svc.status()), svc.accounting());
        let frames = svc.journal_seq();
        if self.churn && journaled {
            drop(svc);
            let (env, interner) = build_env();
            let (recovered, s) = tr.timed("udf-serve", "Service::recover", || {
                Service::recover(env, interner, config, dir)
            });
            out.wall_s = tr.close(rep);
            let (recovered, report) = match recovered {
                Ok(recovered) => recovered,
                Err(e) => {
                    out.attempt(Err(format!("recover: {e}")));
                    return Ok(());
                }
            };
            out.layers.insert("recover_s", s);
            out.layers
                .insert("udf-serve.frames_replayed", report.frames_replayed as f64);
            let after = (format!("{:?}", recovered.status()), recovered.accounting());
            out.attempt(if after == before {
                Ok(())
            } else {
                Err(format!(
                    "recovered {after:?}, the dropped service had {before:?}"
                ))
            });
            svc = recovered;
        } else {
            out.wall_s = tr.close(rep);
        }
        let accounting = before.1;
        out.attempt(
            if accounting.balanced() && accounting == self.reference.accounting {
                Ok(())
            } else {
                Err(format!(
                    "accounting {accounting:?}, the journal-off run ended with {:?}",
                    self.reference.accounting
                ))
            },
        );

        if let (Some(after), Some(before)) = (smt_check_ms(&recorder), smt_before) {
            record_smt_ms(&mut out.layers, after - before);
        }
        if let Some(frames) = frames {
            out.layers.insert("udf-serve.journal_frames", frames as f64);
            let (done, s) = tr.timed("udf-serve", "Service::checkpoint", || svc.checkpoint());
            done.map_err(|e| format!("checkpoint: {e}"))?;
            out.layers.insert("udf-serve.checkpoint_ms", s * 1e3);
        }
        Ok(())
    }
}

impl Workload for Serve {
    fn variants(&self) -> &'static [Variant] {
        // Journal on and journal off side by side: their difference is
        // `udf-serve.journal_ms_per_round`, and the box drifts between reps.
        &[
            Variant::Plain,
            Variant::NoJournal,
            Variant::Spans,
            Variant::Full,
        ]
    }

    fn rep(&mut self, index: usize, variant: Variant, tr: &mut Tracer, out: &mut RepOut) {
        let dir = self.scratch.join(format!("journal-{index}"));
        let mut log = RunLog::default();
        let ran = self.run(&dir, variant, tr, out, &mut log);
        // A fresh directory per rep: `Service::open` refuses one that holds state.
        let _ = std::fs::remove_dir_all(&dir);
        self.verify(&log, out);
        if let Err(e) = ran {
            out.attempt(Err(e));
        }
        if variant.spans() && self.churn {
            let replayed = self.replay_delta(tr, &mut out.layers);
            out.attempt(replayed);
        }

        out.ops_ms = std::mem::take(&mut log.round_ms);
        // Throughput is over the round loop: not the warm-up, not the drain.
        let in_loop = log.reports.iter().skip(1).take(self.schedule.rounds.len());
        out.records = in_loop.map(|r| r.processed as u64).sum();
        out.records_wall_s = log.loop_s;
        let l = &mut out.layers;
        l.insert("udf-serve.submit_ms", median(&log.submit_ms));
        l.insert("udf-serve.run_epoch_ms", median(&log.epoch_ms));
        l.insert("udf-serve.deferred_churn_ops", log.deferred_ops as f64);
        let busy: Vec<&EpochReport> = log.reports.iter().filter(|r| r.processed > 0).collect();
        let sequential = busy
            .iter()
            .filter(|r| r.mode == EpochMode::Sequential)
            .count();
        l.insert(
            "udf-serve.sequential_epoch_share",
            sequential as f64 / busy.len().max(1) as f64,
        );
        l.insert(
            "share.churn_of_rep",
            log.churn_ms.iter().sum::<f64>() / (out.wall_s * 1e3).max(1e-9),
        );
        if self.churn {
            l.insert("churn_ms_p50", median(&log.churn_ms));
            l.insert("tier_lag_epochs", Serve::tier_lag(&log));
        }
    }
}

//! Crash-recovery matrix: every [`CrashPoint`] × seed sweep must recover
//! to a service that is *bit-identical* to an uncrashed reference run.
//!
//! The harness replays one seeded op schedule three ways:
//!
//! 1. **reference** — journaling off (`Service::new`), collecting every
//!    epoch's `output_digest` and a final-state summary;
//! 2. **journaled** — same schedule with a journal attached and no crash,
//!    proving journaling is observation-only;
//! 3. **crashed** — same schedule with a [`SimCrash`] armed. When it
//!    fires, the service is dropped on the floor, [`Service::recover`]
//!    rebuilds it from the checkpoint + journal tail, and the schedule
//!    continues from the exact op that was in flight.
//!
//! Every successful mutating op appends exactly one journal frame, so
//! after recovery `journal_seq()` tells the harness whether the in-flight
//! op became durable (frame present → the op landed, skip it) or was lost
//! (re-issue it) — the same decision a real client makes from an ack
//! timeout. The recovered run's epoch-digest chain, final accounting, and
//! per-tenant state must all equal the reference exactly.
//!
//! `ci/chaos.sh` sweeps this file across `CHAOS_SEED` values.

mod common;

use common::{chaos, serve_env, splitmix64};
use naiad_lite::fault::{silence_injected_panics, FaultyEnv};
use naiad_lite::{ScalarEnv, UdfEnv};
use std::collections::BTreeMap;
use std::path::PathBuf;
use udf_serve::{CrashPoint, JournalError, ServeConfig, ServeError, Service, SimCrash, TenantId};

type Env = FaultyEnv<ScalarEnv>;
type Rec = <Env as UdfEnv>::Rec;

fn config(sim: Option<SimCrash>) -> ServeConfig {
    ServeConfig {
        queue_capacity: 96,
        epoch_batch_limit: 32,
        deadline_epochs: 2,
        tenant_quarantine_budget: 4,
        // Small on purpose: a ~50-op schedule crosses several checkpoints,
        // so the sweep exercises compaction + tail replay, not just replay.
        journal_checkpoint_every: 6,
        sim_crash: sim,
        max_retries: 1,
        ..ServeConfig::default()
    }
}

/// One step of the seeded schedule. The whole schedule is generated up
/// front from the seed alone — independent of execution — so the crashed
/// run can resume it mid-stream after recovery.
enum OpSpec {
    Submit(Vec<Rec>),
    Register { tenant: u32, id: u32, src: String },
    Deregister { tenant: u32, id: u32 },
    Epoch,
}

impl OpSpec {
    fn describe(&self) -> String {
        match self {
            OpSpec::Submit(recs) => format!("submit {}", recs.len()),
            OpSpec::Register { tenant, id, .. } => format!("register t{tenant} q{id}"),
            OpSpec::Deregister { tenant, id } => format!("deregister t{tenant} q{id}"),
            OpSpec::Epoch => "epoch".to_string(),
        }
    }
}

fn build_ops(seed: u64, steps: u32) -> Vec<OpSpec> {
    let mut rng = seed;
    let mut next_record: i64 = 0;
    let mut next_query: u32 = 0;
    let mut live: Vec<(u32, u32)> = Vec::new();
    let mut ops = Vec::new();
    for _ in 0..steps {
        match splitmix64(&mut rng) % 4 {
            0 => {
                let n = 1 + (splitmix64(&mut rng) % 24) as i64;
                let recs: Vec<Rec> = (next_record..next_record + n)
                    .map(|v| (v as usize, vec![v % 512]))
                    .collect();
                next_record += n;
                ops.push(OpSpec::Submit(recs));
            }
            1 => {
                let tenant = (splitmix64(&mut rng) % 3) as u32;
                let id = next_query;
                next_query += 1;
                let hostile = id % 3 == 2;
                let f = if hostile { "probe" } else { "half" };
                let th = (splitmix64(&mut rng) % 40) as i64;
                let src = format!(
                    "program q{id} @{id} (v) {{
                         p := {f}(v);
                         if (p > {th}) {{ notify true; }} else {{ notify false; }}
                     }}"
                );
                live.push((tenant, id));
                ops.push(OpSpec::Register { tenant, id, src });
            }
            2 => {
                if !live.is_empty() {
                    let i = (splitmix64(&mut rng) as usize) % live.len();
                    let (tenant, id) = live.remove(i);
                    ops.push(OpSpec::Deregister { tenant, id });
                }
            }
            _ => ops.push(OpSpec::Epoch),
        }
    }
    // Close the schedule with drain epochs so lifetime accounting settles.
    for _ in 0..6 {
        ops.push(OpSpec::Epoch);
    }
    ops
}

/// Applies one op; epochs return their `(epoch, output_digest)`.
fn apply_op(svc: &mut Service<Env>, op: &OpSpec) -> Result<Option<(u64, u64)>, ServeError> {
    match op {
        OpSpec::Submit(recs) => svc.submit(recs.clone()).map(|_| None),
        OpSpec::Register { tenant, src, .. } => {
            let q = udf_lang::parse::parse_program(src, svc.interner_mut())
                .expect("generated program parses");
            svc.register(TenantId(*tenant), &q).map(|_| None)
        }
        OpSpec::Deregister { tenant, id } => svc
            .deregister(TenantId(*tenant), udf_lang::ast::ProgId(*id))
            .map(|_| None),
        OpSpec::Epoch => svc
            .run_epoch()
            .map(|rep| Some((rep.epoch, rep.output_digest))),
    }
}

/// Everything the comparison cares about: the observable state of a run.
fn summary(svc: &Service<Env>) -> String {
    let acc = svc.accounting();
    let st = svc.status();
    let mut s = format!(
        "acc admitted={} rejected={} shed={} processed={} queued={}\n\
         epoch={} queued_records={} plan_queries={} tenants={} demoted={}\n",
        acc.admitted,
        acc.rejected,
        acc.shed,
        acc.processed,
        acc.queued,
        st.epoch,
        st.queued_records,
        st.plan_queries,
        st.tenants,
        st.demoted_tenants,
    );
    for t in 0..3u32 {
        if let Some(ts) = svc.tenant(TenantId(t)) {
            let mut ids: Vec<u32> = ts.query_ids().iter().map(|p| p.0).collect();
            ids.sort_unstable();
            s.push_str(&format!(
                "tenant {t} demoted={} quarantined={} queries={ids:?}\n",
                ts.demoted, ts.quarantined_records
            ));
        }
    }
    s
}

struct RunOut {
    /// `epoch -> output_digest` for every epoch whose digest was observable.
    digests: BTreeMap<u64, u64>,
    /// At most one epoch whose digest is durably committed but unobservable
    /// to the harness (crash after checkpoint rename folded the epoch frame
    /// into the checkpoint before anyone read its digest).
    hole: Option<u64>,
    summary: String,
}

fn insert_digest(digests: &mut BTreeMap<u64, u64>, epoch: u64, digest: u64, whence: &str) {
    if let Some(prev) = digests.insert(epoch, digest) {
        assert_eq!(
            prev, digest,
            "epoch {epoch}: digest seen live disagrees with {whence}"
        );
    }
}

fn run_reference(seed: u64, steps: u32) -> RunOut {
    let (env, interner) = serve_env(seed);
    let mut svc = Service::new(env, config(None));
    *svc.interner_mut() = interner;
    let mut digests = BTreeMap::new();
    for op in &build_ops(seed, steps) {
        if let Some((e, d)) = apply_op(&mut svc, op).expect("reference op") {
            insert_digest(&mut digests, e, d, "reference");
        }
        assert!(svc.accounting().balanced(), "reference accounting leaked");
    }
    RunOut {
        digests,
        hole: None,
        summary: summary(&svc),
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("udf-serve-recovery-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create journal dir");
    dir
}

/// Runs the schedule journaled with `sim` armed. Returns `None` when the
/// crash point never fired (e.g. `after` beyond the schedule), otherwise
/// the recovered-and-completed run's observables.
fn run_crashed(seed: u64, steps: u32, sim: SimCrash, tag: &str) -> Option<RunOut> {
    let dir = fresh_dir(tag);
    let (env, interner) = serve_env(seed);
    let mut svc = Service::open(env, interner, config(Some(sim)), &dir).expect("open journaled");
    let ops = build_ops(seed, steps);
    let mut digests: BTreeMap<u64, u64> = BTreeMap::new();
    let mut hole: Option<u64> = None;
    let mut crashed = false;
    let mut i = 0usize;
    while i < ops.len() {
        match apply_op(&mut svc, &ops[i]) {
            Ok(Some((e, d))) => {
                insert_digest(&mut digests, e, d, "live report");
                i += 1;
            }
            Ok(None) => i += 1,
            Err(ServeError::Journal(JournalError::SimulatedCrash(point))) => {
                assert!(!crashed, "the crash point must fire exactly once");
                crashed = true;
                // The process "died": the in-memory service is dropped with
                // whatever it was doing half-done on disk.
                drop(svc);
                let (env2, interner2) = serve_env(seed);
                let (svc2, report) = Service::recover(env2, interner2, config(None), &dir)
                    .unwrap_or_else(|e| {
                        panic!(
                            "recover after {point} at op {i} ({}): {e}",
                            ops[i].describe()
                        )
                    });
                assert_eq!(
                    report.frames_salvaged as usize,
                    report.incidents.len(),
                    "every salvaged frame must carry an incident"
                );
                assert!(
                    report.frames_salvaged <= 1,
                    "a single crash tears at most the one in-flight frame"
                );
                for (e, d) in &report.replayed_epoch_digests {
                    insert_digest(&mut digests, *e, *d, "journal replay");
                }
                svc = svc2;
                // Exactly one frame per successful op: the durable frame
                // count tells us whether the in-flight op landed.
                let durable = svc.journal_seq().expect("recovered service is journaled");
                if durable as usize == i {
                    // Lost: the frame never became durable. Re-issue the op,
                    // exactly as an un-acked client would.
                } else {
                    assert_eq!(
                        durable as usize,
                        i + 1,
                        "{point}: a crash may lose at most the one in-flight op"
                    );
                    if matches!(ops[i], OpSpec::Epoch) {
                        // The epoch committed durably but its report died
                        // with the crash; if its frame was also folded into
                        // the checkpoint (post-rename crash) the digest is
                        // unobservable — note the hole instead of guessing.
                        let e = svc.status().epoch;
                        if !digests.contains_key(&e) {
                            hole = Some(e);
                        }
                    }
                    i += 1;
                }
            }
            Err(e) => panic!("unexpected service error at op {i}: {e}"),
        }
    }
    let out = if crashed {
        Some(RunOut {
            digests,
            hole,
            summary: summary(&svc),
        })
    } else {
        None
    };
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn assert_matches_reference(reference: &RunOut, run: &RunOut, label: &str) {
    for (e, d) in &reference.digests {
        match run.digests.get(e) {
            Some(rd) => assert_eq!(
                rd, d,
                "{label}: epoch {e} output digest diverged from reference"
            ),
            None => assert_eq!(
                run.hole,
                Some(*e),
                "{label}: epoch {e} digest missing without a checkpoint hole"
            ),
        }
    }
    assert_eq!(
        run.digests.len() + usize::from(run.hole.is_some()),
        reference.digests.len(),
        "{label}: epoch counts diverged"
    );
    assert_eq!(
        run.summary, reference.summary,
        "{label}: final service state diverged from reference"
    );
}

/// Journaling with no crash must be pure observation: digests and final
/// state identical to the journal-off reference — and a recovery from the
/// resulting on-disk state must reproduce that state exactly.
#[test]
fn journaling_is_observation_only_and_clean_recovery_is_exact() {
    silence_injected_panics();
    let seed = chaos(0x0b5e_4ab1_e000);
    let steps = 48;
    let reference = run_reference(seed, steps);
    let dir = fresh_dir(&format!("clean-{seed:x}"));
    let (env, interner) = serve_env(seed);
    let mut svc = Service::open(env, interner, config(None), &dir).expect("open");
    let mut digests = BTreeMap::new();
    for op in &build_ops(seed, steps) {
        if let Some((e, d)) = apply_op(&mut svc, op).expect("journaled op") {
            insert_digest(&mut digests, e, d, "journaled run");
        }
    }
    let live_summary = summary(&svc);
    let journaled = RunOut {
        digests,
        hole: None,
        summary: live_summary.clone(),
    };
    assert_matches_reference(&reference, &journaled, "journaled");
    // "Power down" gracefully (no final checkpoint call on purpose — the
    // journal tail alone must carry the un-checkpointed suffix).
    drop(svc);
    let (env2, interner2) = serve_env(seed);
    let (recovered, report) =
        Service::recover(env2, interner2, config(None), &dir).expect("clean recover");
    assert!(!report.truncated_tail, "clean shutdown leaves no torn tail");
    assert_eq!(report.frames_salvaged, 0);
    assert!(report.incidents.is_empty());
    assert_eq!(
        summary(&recovered),
        live_summary,
        "clean recovery must reproduce the pre-shutdown state bit-for-bit"
    );
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The full matrix: every crash point × a spread of trigger offsets, per
/// seed. Append-indexed points fire on the Nth frame append; checkpoint
/// points fire on the Nth checkpoint.
#[test]
fn crash_matrix_recovers_bit_identically() {
    silence_injected_panics();
    let steps = 48;
    for base in [0xc4a5_4001u64, 0xc4a5_4002u64] {
        let seed = chaos(base);
        let reference = run_reference(seed, steps);
        let mut fired = 0u32;
        for point in [CrashPoint::MidAppend, CrashPoint::PostAppendPreFsync] {
            for after in [1u64, 3, 9, 18, 30, 44] {
                let sim = SimCrash {
                    point,
                    after,
                    seed: seed ^ after.wrapping_mul(0x9e37_79b9),
                };
                let tag = format!("{seed:x}-{point}-{after}");
                if let Some(run) = run_crashed(seed, steps, sim, &tag) {
                    fired += 1;
                    assert_matches_reference(&reference, &run, &tag);
                }
            }
        }
        for point in [
            CrashPoint::MidCheckpoint,
            CrashPoint::PostCheckpointFsyncPreRename,
            CrashPoint::PostRenamePreTruncate,
        ] {
            for after in [1u64, 2, 3] {
                let sim = SimCrash {
                    point,
                    after,
                    seed: seed ^ after.wrapping_mul(0x85eb_ca6b),
                };
                let tag = format!("{seed:x}-{point}-{after}");
                if let Some(run) = run_crashed(seed, steps, sim, &tag) {
                    fired += 1;
                    assert_matches_reference(&reference, &run, &tag);
                }
            }
        }
        assert!(
            fired >= 12,
            "seed {seed:#x}: expected most crash points to fire, got {fired}"
        );
    }
}

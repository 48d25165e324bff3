//! Durable service recovery: run a journaled consolidation service, crash
//! it mid-epoch at a simulated crash point, recover from the write-ahead
//! journal, and finish the schedule — then prove the recovered run is
//! bit-identical to an uncrashed reference (same epoch output digests,
//! same final accounting).
//!
//! ```text
//! cargo run --example service_recovery
//! ```
//!
//! See `DESIGN.md` § Durability & crash recovery for the journal format,
//! the crash points, and the exactly-once replay rules this demonstrates.

use query_consolidation::dataflow::ScalarEnv;
use query_consolidation::lang::{parse::parse_program, FnLibrary, Interner};
use query_consolidation::serve::{
    CrashPoint, JournalError, ServeConfig, ServeError, Service, SimCrash, TenantId,
};

type Env = ScalarEnv;

fn build_env() -> (Env, Interner) {
    let mut interner = Interner::new();
    let score = interner.intern("score");
    let mut lib = FnLibrary::new();
    lib.register(score, "score", 1, 15, |a| a[0] * 3 - 7);
    (ScalarEnv::new(1, lib), interner)
}

fn config(sim: Option<SimCrash>) -> ServeConfig {
    ServeConfig {
        queue_capacity: 64,
        epoch_batch_limit: 16,
        // Small so this short schedule crosses a checkpoint compaction.
        journal_checkpoint_every: 4,
        sim_crash: sim,
        ..ServeConfig::default()
    }
}

/// The schedule both runs replay: alternating registrations, submissions,
/// and epochs. Generated up front so the crashed run can resume mid-way.
enum Op {
    Register(u32, u32, i64),
    Submit(Vec<Vec<i64>>),
    Epoch,
}

fn schedule() -> Vec<Op> {
    let mut ops = Vec::new();
    for (i, th) in [5i64, 11, 23].iter().enumerate() {
        ops.push(Op::Register(i as u32, i as u32, *th));
    }
    let mut v = 0i64;
    for round in 0..6 {
        let n = 6 + round;
        ops.push(Op::Submit((v..v + n).map(|x| vec![x % 40]).collect()));
        v += n;
        ops.push(Op::Epoch);
    }
    ops.push(Op::Epoch);
    ops
}

/// Applies one op; epochs return `(epoch, output_digest)`.
fn apply(svc: &mut Service<Env>, op: &Op) -> Result<Option<(u64, u64)>, ServeError> {
    match op {
        Op::Register(tenant, id, th) => {
            let q = parse_program(
                &format!(
                    "program q{id} @{id} (v) {{
                         s := score(v);
                         if (s > {th}) {{ notify true; }} else {{ notify false; }}
                     }}"
                ),
                svc.interner_mut(),
            )
            .expect("example program parses");
            svc.register(TenantId(*tenant), &q).map(|_| None)
        }
        Op::Submit(recs) => svc.submit(recs.clone()).map(|_| None),
        Op::Epoch => svc
            .run_epoch()
            .map(|rep| Some((rep.epoch, rep.output_digest))),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Reference: the same schedule, journaling off.
    let (env, interner) = build_env();
    let mut reference = Service::new(env, config(None));
    *reference.interner_mut() = interner;
    let mut ref_digests = std::collections::BTreeMap::new();
    for op in &schedule() {
        if let Some((e, d)) = apply(&mut reference, op)? {
            ref_digests.insert(e, d);
        }
    }
    println!(
        "reference: {} epochs, {:?}",
        ref_digests.len(),
        reference.accounting()
    );

    // Journaled run with a crash armed mid-schedule: the 9th journal frame
    // (an epoch commit) tears half-written, as a power cut would leave it.
    let dir = std::env::temp_dir().join("udf-serve-recovery-example");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    let sim = SimCrash {
        point: CrashPoint::MidAppend,
        after: 9,
        seed: 41,
    };
    let (env, interner) = build_env();
    let mut svc = Service::open(env, interner, config(Some(sim)), &dir)?;
    let ops = schedule();
    let mut digests = std::collections::BTreeMap::new();
    let mut i = 0usize;
    while i < ops.len() {
        match apply(&mut svc, &ops[i]) {
            Ok(Some((e, d))) => {
                digests.insert(e, d);
                i += 1;
            }
            Ok(None) => i += 1,
            Err(ServeError::Journal(JournalError::SimulatedCrash(point))) => {
                println!("crash: {point} at op {i} — dropping the service on the floor");
                drop(svc);
                let (env, interner) = build_env();
                let (recovered, report) = Service::recover(env, interner, config(None), &dir)?;
                println!(
                    "recovered: {} frames replayed, {} skipped (checkpointed), \
                     {} salvaged, torn tail: {}",
                    report.frames_replayed,
                    report.frames_skipped,
                    report.frames_salvaged,
                    report.truncated_tail
                );
                for inc in &report.incidents {
                    println!("  incident: {inc}");
                }
                // An epoch both observed live and replayed from the journal
                // tail must agree — a free consistency check.
                for (e, d) in &report.replayed_epoch_digests {
                    if let Some(prev) = digests.insert(*e, *d) {
                        assert_eq!(prev, *d, "epoch {e}: live/replayed digest mismatch");
                    }
                }
                svc = recovered;
                // One frame per acknowledged op: if the crashed op's frame
                // never became durable, the op was lost — re-issue it.
                let durable = svc.journal_seq().expect("journaled") as usize;
                if durable == i {
                    println!("  op {i} was lost with the crash: re-issuing");
                } else {
                    println!("  op {i} was already durable: skipping");
                    i += 1;
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
    println!(
        "recovered run: {} epochs, {:?}",
        digests.len(),
        svc.accounting()
    );

    // Bit-identical: same digest chain, same accounting — journal on or off,
    // crash or no crash.
    assert_eq!(digests, ref_digests, "epoch digest chains must match");
    assert_eq!(svc.accounting(), reference.accounting());
    for (e, d) in &digests {
        println!("epoch {e}: digest {d:016x}");
    }
    println!("recovery OK: crashed run is bit-identical to the reference");
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

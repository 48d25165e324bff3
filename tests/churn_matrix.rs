//! Service churn under chaos: a seeded schedule of submissions,
//! registrations, deregistrations and epochs, interleaved with injected
//! UDF faults, must (1) never silently drop a record — the admission
//! accounting `admitted == processed + shed + queued` holds after every
//! epoch — and (2) be fully deterministic: the same seed replays to the
//! same epoch-by-epoch transcript (ci/chaos.sh additionally diffs two
//! whole same-seed runs at the process level).

mod common;

use common::{chaos, serve_env, splitmix64};
use naiad_lite::fault::{silence_injected_panics, FaultyEnv};
use naiad_lite::{ScalarEnv, UdfEnv};
use udf_serve::{
    Admission, ChurnOutcome, CrashPoint, JournalError, ServeConfig, ServeError, Service, SimCrash,
    TenantId,
};

type Env = FaultyEnv<ScalarEnv>;
type Rec = <Env as UdfEnv>::Rec;

fn service(seed: u64) -> Service<Env> {
    let (env, interner) = serve_env(seed);
    let mut svc = Service::new(
        env,
        ServeConfig {
            queue_capacity: 96,
            epoch_batch_limit: 32,
            deadline_epochs: 2,
            tenant_quarantine_budget: 4,
            max_retries: 1,
            ..ServeConfig::default()
        },
    );
    *svc.interner_mut() = interner;
    svc
}

/// Replays a seeded schedule and returns its transcript plus the final
/// accounting line.
fn run_schedule(seed: u64) -> String {
    silence_injected_panics();
    let mut svc = service(seed);
    let mut rng = seed;
    let mut next_record: i64 = 0;
    let mut next_query: u32 = 0;
    let mut live: Vec<(TenantId, u32)> = Vec::new();
    let mut transcript = String::new();
    for step in 0..120u32 {
        match splitmix64(&mut rng) % 4 {
            // Submit a batch (possibly rejected at full queue — explicit).
            0 => {
                let n = 1 + (splitmix64(&mut rng) % 24) as i64;
                let recs: Vec<Rec> = (next_record..next_record + n)
                    .map(|v| (v as usize, vec![v % 512]))
                    .collect();
                next_record += n;
                let a = svc.submit(recs).expect("journal off: infallible");
                transcript.push_str(&format!("step {step}: submit {n} -> {a:?}\n"));
            }
            // Register a query for a random tenant; every third query is
            // hostile (calls the fault trigger).
            1 => {
                let tenant = TenantId((splitmix64(&mut rng) % 3) as u32);
                let id = next_query;
                next_query += 1;
                let hostile = id % 3 == 2;
                let f = if hostile { "probe" } else { "half" };
                let th = (splitmix64(&mut rng) % 40) as i64;
                let q = udf_lang::parse::parse_program(
                    &format!(
                        "program q{id} @{id} (v) {{
                             p := {f}(v);
                             if (p > {th}) {{ notify true; }} else {{ notify false; }}
                         }}"
                    ),
                    svc.interner_mut(),
                )
                .expect("generated program parses");
                let out = svc.register(tenant, &q).expect("register");
                live.push((tenant, id));
                transcript.push_str(&format!(
                    "step {step}: register t{} q{id} -> {}\n",
                    tenant.0,
                    match out {
                        udf_serve::ChurnOutcome::Applied(_) => "applied",
                        udf_serve::ChurnOutcome::AppliedSolo => "solo",
                        udf_serve::ChurnOutcome::Deferred => "deferred",
                        udf_serve::ChurnOutcome::Cancelled => "cancelled",
                    }
                ));
            }
            // Deregister a random live query.
            2 => {
                if !live.is_empty() {
                    let i = (splitmix64(&mut rng) as usize) % live.len();
                    let (tenant, id) = live.remove(i);
                    let out = svc
                        .deregister(tenant, udf_lang::ast::ProgId(id))
                        .expect("deregister");
                    transcript.push_str(&format!(
                        "step {step}: deregister t{} q{id} -> {}\n",
                        tenant.0,
                        match out {
                            udf_serve::ChurnOutcome::Deferred => "deferred",
                            udf_serve::ChurnOutcome::Cancelled => "cancelled",
                            _ => "applied",
                        }
                    ));
                }
            }
            // Run an epoch; the zero-silent-drop invariant must hold after
            // every one.
            _ => {
                let rep = svc.run_epoch().expect("epoch");
                let acc = svc.accounting();
                assert!(
                    acc.balanced(),
                    "step {step}: records leaked: {acc:?} after epoch {}",
                    rep.epoch
                );
                transcript.push_str(&format!(
                    "step {step}: epoch {} mode={:?} processed={} shed={} demoted={:?} tenants={:?}\n",
                    rep.epoch,
                    rep.mode,
                    rep.processed,
                    rep.shed.len(),
                    rep.demoted,
                    rep.tenants,
                ));
            }
        }
    }
    // Drain what's left so the lifetime accounting closes out too.
    for _ in 0..8 {
        let rep = svc.run_epoch().expect("drain epoch");
        assert!(svc.accounting().balanced(), "drain epoch {}", rep.epoch);
    }
    transcript.push_str(&format!("final {:?}", svc.accounting()));
    transcript
}

#[test]
fn seeded_churn_never_drops_records_silently() {
    let t = run_schedule(chaos(0xc0de));
    assert!(t.contains("epoch"), "schedule must have run epochs");
}

#[test]
fn same_seed_churn_replays_identically() {
    let seed = chaos(0xfeed);
    assert_eq!(
        run_schedule(seed),
        run_schedule(seed),
        "same-seed churn schedules must produce identical transcripts"
    );
}

/// Parses the standard generated query shape into the service's interner.
fn query(svc: &mut Service<Env>, id: u32, f: &str, th: i64) -> udf_lang::ast::Program {
    udf_lang::parse::parse_program(
        &format!(
            "program q{id} @{id} (v) {{
                 p := {f}(v);
                 if (p > {th}) {{ notify true; }} else {{ notify false; }}
             }}"
        ),
        svc.interner_mut(),
    )
    .expect("generated program parses")
}

fn pressured_config() -> ServeConfig {
    ServeConfig {
        queue_capacity: 96,
        epoch_batch_limit: 8,
        deadline_epochs: 1,
        max_retries: 1,
        ..ServeConfig::default()
    }
}

/// Fills the queue to 100% pressure with 12 atomic batches of 8 records.
fn flood(svc: &mut Service<Env>) {
    for b in 0..12i64 {
        let recs: Vec<Rec> = (b * 8..(b + 1) * 8)
            .map(|v| (v as usize, vec![v % 512]))
            .collect();
        assert!(
            matches!(
                svc.submit(recs).expect("journal off: infallible"),
                Admission::Admitted { .. }
            ),
            "flood batch {b} must fit the queue"
        );
    }
}

/// Interleaving: a deregister issued under pressure must stay deferred
/// *through* the shed that clears the backlog (churn never lands mid-shed,
/// where plan surgery would race the epoch's accounting), then apply at
/// the first calm epoch — with every shed record explicitly accounted.
#[test]
fn deregister_defers_through_shed_then_applies() {
    silence_injected_panics();
    let (env, interner) = serve_env(7);
    let mut svc = Service::new(env, pressured_config());
    *svc.interner_mut() = interner;
    let q0 = query(&mut svc, 0, "half", 5);
    let q1 = query(&mut svc, 1, "half", 9);
    assert!(matches!(
        svc.register(TenantId(0), &q0).expect("register q0"),
        ChurnOutcome::Applied(_) | ChurnOutcome::AppliedSolo
    ));
    assert!(matches!(
        svc.register(TenantId(1), &q1).expect("register q1"),
        ChurnOutcome::Applied(_) | ChurnOutcome::AppliedSolo
    ));
    flood(&mut svc);
    // Deregister at 100% pressure: deferred, not applied.
    assert!(matches!(
        svc.deregister(TenantId(0), udf_lang::ast::ProgId(0))
            .expect("deregister q0"),
        ChurnOutcome::Deferred
    ));
    // Epoch 1: pressured (degraded, sequential); nothing past its deadline
    // yet, so no shed; the deregister must still be pending.
    let rep = svc.run_epoch().expect("epoch 1");
    assert!(rep.shed.is_empty(), "no batch is past its deadline yet");
    assert!(svc.accounting().balanced());
    // Epoch 2: still over the shed watermark and the backlog is now past
    // its deadline — the whole remainder sheds. The deferred deregister
    // interleaves with the shed but must not land during it.
    let rep = svc.run_epoch().expect("epoch 2");
    assert!(!rep.shed.is_empty(), "aged backlog must shed");
    assert!(
        svc.tenant(TenantId(0))
            .expect("tenant 0")
            .query_ids()
            .contains(&udf_lang::ast::ProgId(0)),
        "deregister must not apply mid-shed"
    );
    let acc = svc.accounting();
    assert!(acc.balanced(), "shed records leaked: {acc:?}");
    assert_eq!(acc.shed, 88, "11 aged batches of 8 shed atomically");
    // Epoch 3: calm at last — the deferred deregister applies.
    svc.run_epoch().expect("epoch 3");
    assert!(
        !svc.tenant(TenantId(0))
            .expect("tenant 0")
            .query_ids()
            .contains(&udf_lang::ast::ProgId(0)),
        "deferred deregister must apply at the first calm epoch"
    );
    assert_eq!(svc.status().plan_queries, 1, "q1 alone remains in the plan");
    assert!(svc.accounting().balanced());
}

/// Interleaving: a registration deferred under pressure, followed by a
/// crash before any calm epoch could apply it, must survive recovery in
/// the pending-churn queue and still apply once the recovered service
/// reaches a calm epoch.
#[test]
fn deferred_register_survives_crash_before_apply() {
    silence_injected_panics();
    let seed = 11u64;
    let dir = std::env::temp_dir().join("udf-serve-churn-crash-before-apply");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create journal dir");
    let (env, interner) = serve_env(seed);
    // Frames: reg q0 = 1, flood = 2..=13, reg q1 = 14; the first epoch's
    // commit frame (15) tears mid-append.
    let mut cfg = pressured_config();
    cfg.sim_crash = Some(SimCrash {
        point: CrashPoint::MidAppend,
        after: 15,
        seed,
    });
    let mut svc = Service::open(env, interner, cfg, &dir).expect("open journaled");
    let q0 = query(&mut svc, 0, "half", 5);
    assert!(matches!(
        svc.register(TenantId(0), &q0).expect("register q0"),
        ChurnOutcome::Applied(_) | ChurnOutcome::AppliedSolo
    ));
    flood(&mut svc);
    let q1 = query(&mut svc, 1, "half", 9);
    assert!(
        matches!(
            svc.register(TenantId(1), &q1).expect("register q1"),
            ChurnOutcome::Deferred
        ),
        "registration at 100% pressure must defer"
    );
    match svc.run_epoch() {
        Err(ServeError::Journal(JournalError::SimulatedCrash(CrashPoint::MidAppend))) => {}
        other => panic!("expected the armed crash, got {other:?}"),
    }
    drop(svc);
    let (env2, interner2) = serve_env(seed);
    let (mut svc, report) =
        Service::recover(env2, interner2, pressured_config(), &dir).expect("recover");
    assert!(report.truncated_tail, "the torn epoch frame is truncated");
    assert_eq!(report.frames_salvaged, 1);
    // The crashed epoch never became durable: the queue is still full and
    // the registration is still pending. Drain to a calm epoch.
    assert_eq!(svc.status().queued_records, 96);
    for _ in 0..3 {
        svc.run_epoch().expect("post-recovery epoch");
        assert!(svc.accounting().balanced());
    }
    assert!(
        svc.tenant(TenantId(1))
            .expect("tenant 1")
            .query_ids()
            .contains(&udf_lang::ast::ProgId(1)),
        "deferred registration must apply after recovery"
    );
    assert_eq!(
        svc.status().plan_queries,
        2,
        "both queries live in the shared plan after recovery"
    );
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn distinct_seeds_exercise_distinct_schedules() {
    // A weak but useful canary that the seed actually reaches the
    // schedule: two far-apart seeds should not produce the same
    // transcript (they drive different op sequences).
    let a = run_schedule(chaos(0x1111_2222_3333_4444));
    let b = run_schedule(chaos(0x9999_8888_7777_6666));
    assert_ne!(a, b);
}

//! Service-level behaviour: admission control and shedding are explicit,
//! churn defers under pressure, and a hostile tenant is demoted alone —
//! every other tenant's epoch reports are bit-identical to a run where the
//! hostile tenant never existed.

use naiad_lite::fault::{silence_injected_panics, FaultKind, FaultPlan, FaultyEnv};
use naiad_lite::{ScalarEnv, UdfEnv};
use udf_lang::ast::Program;
use udf_lang::intern::Interner;
use udf_lang::FnLibrary;
use udf_obs::{names, RecorderCell};
use udf_serve::{
    Admission, ChurnOutcome, EpochMode, RejectReason, ServeConfig, ServeError, Service,
    TenantEpochReport, TenantId,
};

type Env = FaultyEnv<ScalarEnv>;
type Rec = <Env as UdfEnv>::Rec;

fn library(interner: &mut Interner) -> FnLibrary {
    let probe = interner.intern("probe");
    let half = interner.intern("half");
    let mut lib = FnLibrary::new();
    lib.register(probe, "probe", 1, 20, |a| a[0]);
    lib.register(half, "half", 1, 10, |a| a[0] / 2);
    lib
}

/// A threshold query for tenant isolation tests. `hostile` queries call
/// `probe` — the fault trigger — so only their UDFs fault; innocent
/// queries stay on `half`.
fn query(interner: &mut Interner, id: u32, threshold: i64, hostile: bool) -> Program {
    let f = if hostile { "probe" } else { "half" };
    udf_lang::parse::parse_program(
        &format!(
            "program q{id} @{id} (v) {{
                 p := {f}(v);
                 if (p > {threshold}) {{ notify true; }} else {{ notify false; }}
             }}"
        ),
        interner,
    )
    .expect("test program parses")
}

fn service(fault: FaultPlan, config: ServeConfig) -> Service<Env> {
    let mut interner = Interner::new();
    let lib = library(&mut interner);
    let trigger = interner.intern("probe");
    let env = FaultyEnv::new(ScalarEnv::new(1, lib), trigger, fault);
    let mut svc = Service::new(env, config);
    // Service-owned interner must agree with the library's symbols.
    *svc.interner_mut() = interner;
    svc
}

fn batch(range: std::ops::Range<i64>) -> Vec<Rec> {
    range.map(|v| (v as usize, vec![v])).collect()
}

#[test]
fn admission_is_bounded_and_shedding_is_explicit() {
    let mut svc = service(
        FaultPlan::none(),
        ServeConfig {
            queue_capacity: 10,
            epoch_batch_limit: 2,
            deadline_epochs: 0,
            ..ServeConfig::default()
        },
    );
    let t = TenantId(1);
    let q = query(svc.interner_mut(), 1, 5, false);
    svc.register(t, &q).expect("registers");

    // Five batches of two records fill the queue exactly.
    for i in 0..5 {
        let a = svc
            .submit(batch(i * 2..i * 2 + 2))
            .expect("journal off: infallible");
        assert!(matches!(a, Admission::Admitted { .. }), "batch {i}: {a:?}");
    }
    // The sixth is rejected — records never enter, nothing is dropped.
    match svc.submit(batch(10..12)).expect("journal off: infallible") {
        Admission::Rejected {
            reason: RejectReason::QueueFull { queued, capacity },
        } => {
            assert_eq!((queued, capacity), (10, 10));
        }
        other => panic!("expected QueueFull, got {other:?}"),
    }
    let acc = svc.accounting();
    assert_eq!(acc.admitted, 10);
    assert_eq!(acc.rejected, 2);
    assert!(acc.balanced());

    // Pressure 1.0 ≥ shed watermark: old batches are shed once they age
    // past the deadline, each reported explicitly.
    let mut processed = 0u64;
    let mut shed = 0u64;
    for _ in 0..4 {
        let rep = svc.run_epoch().expect("epoch runs");
        processed += rep.processed as u64;
        shed += rep.shed.iter().map(|s| s.records as u64).sum::<u64>();
        assert!(svc.accounting().balanced(), "after epoch {}", rep.epoch);
    }
    assert!(shed > 0, "aged batches under pressure must shed");
    let acc = svc.accounting();
    assert_eq!(acc.admitted, processed + shed + acc.queued);
}

#[test]
fn churn_defers_under_pressure_and_applies_when_calm() {
    let mut svc = service(
        FaultPlan::none(),
        ServeConfig {
            queue_capacity: 4,
            epoch_batch_limit: 4,
            ..ServeConfig::default()
        },
    );
    let t = TenantId(1);
    let q1 = query(svc.interner_mut(), 1, 5, false);
    let q2 = query(svc.interner_mut(), 2, 9, false);
    svc.register(t, &q1).expect("calm registration applies");
    assert_eq!(svc.status().plan_queries, 1);

    svc.submit(batch(0..4)).expect("journal off: infallible");
    assert!(svc.status().pressure >= 0.75);
    let out = svc.register(t, &q2).expect("pressured registration defers");
    assert!(matches!(out, ChurnOutcome::Deferred));
    assert_eq!(
        svc.status().plan_queries,
        1,
        "deferred op must not touch the plan"
    );

    // The pressured epoch defers churn and runs sequentially.
    let rep = svc.run_epoch().expect("epoch runs");
    assert_eq!(rep.deferred_churn, 1);
    assert_eq!(rep.mode, EpochMode::Sequential);
    // The calm epoch applies it.
    let rep = svc.run_epoch().expect("epoch runs");
    assert_eq!(rep.applied_churn, 1);
    assert!(rep.churn_errors.is_empty());
    assert_eq!(svc.status().plan_queries, 2);

    // With the queue drained and pressure low, consolidated execution
    // resumes.
    svc.submit(batch(0..2)).expect("journal off: infallible");
    let rep = svc.run_epoch().expect("epoch runs");
    assert_eq!(rep.mode, EpochMode::Consolidated);
    let counts = &rep.tenants[&t].counts;
    assert_eq!(counts[&1], 0, "half(v) ≤ 1 for v < 4");
    assert_eq!(counts[&2], 0);
}

/// A program past one of the bytecode's field widths is refused at the
/// submission boundary — the compiler used to abort the calling thread on
/// it — and the service goes on serving.
#[test]
fn uncompilable_registration_is_an_error_and_the_service_keeps_serving() {
    let mut svc = service(FaultPlan::none(), ServeConfig::default());
    let t = TenantId(1);
    let q1 = query(svc.interner_mut(), 1, 5, false);
    svc.register(t, &q1).expect("healthy registration applies");

    let wide = udf_lang::parse::parse_program(
        &format!(
            "program wide @7 (v) {{
                 p := half({});
                 if (p > 0) {{ notify true; }} else {{ notify false; }}
             }}",
            vec!["v"; 300].join(", ")
        ),
        svc.interner_mut(),
    )
    .expect("a 300-argument call parses");
    let refused = svc.register(TenantId(2), &wide);
    assert!(
        matches!(refused, Err(ServeError::Compile(_))),
        "expected a compile error, got {refused:?}"
    );
    assert_eq!(svc.status().plan_queries, 1, "a refusal leaves no trace");

    svc.submit(batch(0..20)).expect("journal off: infallible");
    let rep = svc.run_epoch().expect("epoch runs");
    assert_eq!(rep.mode, EpochMode::Consolidated);
    assert_eq!(rep.tenants[&t].counts[&1], 8, "half(v) > 5 for v in 12..20");
    let q2 = query(svc.interner_mut(), 2, 9, false);
    svc.register(TenantId(2), &q2)
        .expect("the refused tenant can still register");
    assert_eq!(svc.status().plan_queries, 2);
}

/// A registration the live set refuses (its parameter list differs) leaves
/// no trace in the plan. It used to leave the rejected program in the
/// passthrough nodes of a tree it had just doubled; the next deregistration
/// then failed after it had already dropped the query's membership.
#[test]
fn a_refused_registration_into_a_full_tree_leaves_no_trace() {
    let run = |offer_bad_program: bool| {
        let mut svc = service(FaultPlan::none(), ServeConfig::default());
        let t = TenantId(1);
        for id in 0..2 {
            let q = query(svc.interner_mut(), id, 3 + i64::from(id), false);
            svc.register(t, &q).expect("registration applies");
        }
        if offer_bad_program {
            let bad = udf_lang::parse::parse_program(
                "program b @7 (x, y) { z := half(x); if (z > y) { notify true; } }",
                svc.interner_mut(),
            )
            .expect("parses");
            let refused = svc.register(TenantId(2), &bad);
            assert!(
                matches!(refused, Err(ServeError::Delta(_))),
                "expected a parameter mismatch, got {refused:?}"
            );
            assert_eq!(svc.status().plan_queries, 2);
        }
        svc.deregister(t, udf_lang::ast::ProgId(0))
            .expect("deregistration after the refusal applies");
        assert_eq!(svc.status().plan_queries, 1);
        svc.submit(batch(0..20)).expect("journal off: infallible");
        let rep = svc.run_epoch().expect("epoch runs");
        assert_eq!(rep.mode, EpochMode::Consolidated);
        assert_eq!(
            rep.tenants[&t].counts[&1], 10,
            "half(v) > 4 for v in 10..20"
        );
        rep.output_digest
    };
    assert_eq!(run(true), run(false));
}

/// The promise [`Service::recover`] relies on when it installs a
/// checkpointed plan without re-proving it: every record of a consolidated
/// epoch is shadow-run through the per-query programs. And the default
/// configuration never retries a transient fault, while one retry is
/// visible in the same counter.
#[test]
fn consolidated_epochs_audit_every_record_and_default_config_never_retries() {
    let recorder = RecorderCell::memory();
    let mut svc = service(
        FaultPlan::none(),
        ServeConfig {
            recorder: recorder.clone(),
            ..ServeConfig::default()
        },
    );
    for (id, th, t) in [
        (1, 3, TenantId(1)),
        (2, 6, TenantId(1)),
        (3, 9, TenantId(2)),
    ] {
        let q = query(svc.interner_mut(), id, th, false);
        svc.register(t, &q).expect("registers");
    }
    let mut consolidated = 0u64;
    for e in 0..3i64 {
        svc.submit(batch(e * 20..e * 20 + 20))
            .expect("journal off: infallible");
        let rep = svc.run_epoch().expect("epoch runs");
        assert_eq!(rep.mode, EpochMode::Consolidated, "epoch {}", rep.epoch);
        consolidated += rep.processed as u64;
    }
    let snap = recorder.snapshot().expect("memory recorder snapshots");
    assert_eq!(consolidated, 60);
    assert_eq!(snap.counter(names::GUARD_SHADOW_RUNS), consolidated);
    assert_eq!(snap.counter(names::GUARD_MISMATCHES), 0);

    // Transient faults on every record the hostile query touches.
    let retries = |config: ServeConfig| {
        let recorder = RecorderCell::memory();
        let faults = FaultPlan::seeded_kinds(0x7e57, 20, 6, &[FaultKind::Transient(1)]);
        let mut svc = service(
            faults,
            ServeConfig {
                recorder: recorder.clone(),
                ..config
            },
        );
        let q = query(svc.interner_mut(), 1, 3, true);
        svc.register(TenantId(1), &q).expect("registers");
        svc.submit(batch(0..20)).expect("journal off: infallible");
        svc.run_epoch().expect("epoch runs");
        let snap = recorder.snapshot().expect("memory recorder snapshots");
        (
            snap.counter(names::ENGINE_RETRIES),
            snap.counter(names::ENGINE_QUARANTINED),
        )
    };
    let (retried, quarantined) = retries(ServeConfig::default());
    assert_eq!(retried, 0, "the default configuration never retries");
    assert!(quarantined > 0, "the transient faults did fire");
    let (retried, _) = retries(ServeConfig {
        max_retries: 1,
        ..ServeConfig::default()
    });
    assert!(retried > 0, "one retry per transient fault is counted");
}

/// Runs `epochs` epochs over the same deterministic record stream and
/// returns every tenant's per-epoch report.
fn drive(
    svc: &mut Service<Env>,
    epochs: u64,
) -> Vec<std::collections::BTreeMap<TenantId, TenantEpochReport>> {
    let mut out = Vec::new();
    for e in 0..epochs {
        let lo = (e as i64) * 20;
        match svc
            .submit(batch(lo..lo + 20))
            .expect("journal off: infallible")
        {
            Admission::Admitted { .. } => {}
            other => panic!("stream must admit: {other:?}"),
        }
        let rep = svc.run_epoch().expect("epoch runs");
        assert!(svc.accounting().balanced(), "epoch {}", rep.epoch);
        out.push(rep.tenants);
    }
    out
}

#[test]
fn hostile_tenant_is_demoted_alone_and_others_are_bit_identical() {
    silence_injected_panics();
    let faults = FaultPlan::seeded_kinds(0x5e21, 60, 8, &[FaultKind::LibError, FaultKind::Panic]);
    let config = ServeConfig {
        queue_capacity: 64,
        epoch_batch_limit: 20,
        tenant_quarantine_budget: 2,
        ..ServeConfig::default()
    };
    let good = TenantId(1);
    let also_good = TenantId(2);
    let hostile = TenantId(3);

    // Run A: two innocent tenants plus the hostile one.
    let mut with_hostile = service(faults.clone(), config.clone());
    for (id, th, t, bad) in [
        (10, 4, good, false),
        (11, 9, good, false),
        (20, 14, also_good, false),
        (30, 7, hostile, true),
        (31, 2, hostile, true),
    ] {
        let q = query(with_hostile.interner_mut(), id, th, bad);
        with_hostile.register(t, &q).expect("registers");
    }
    let reports_a = drive(&mut with_hostile, 3);

    // The hostile tenant — and only it — is demoted, and only its epoch
    // reports carry quarantined records.
    let st = with_hostile.status();
    assert_eq!(st.demoted_tenants, 1);
    assert!(with_hostile.tenant(hostile).expect("exists").demoted);
    assert!(!with_hostile.tenant(good).expect("exists").demoted);
    assert!(!with_hostile.tenant(also_good).expect("exists").demoted);
    assert!(
        reports_a
            .iter()
            .any(|e| !e[&hostile].quarantined.is_empty()),
        "faults must be attributed to the hostile tenant"
    );
    for e in &reports_a {
        assert!(
            e[&good].quarantined.is_empty(),
            "innocent tenant 1 quarantined"
        );
        assert!(
            e[&also_good].quarantined.is_empty(),
            "innocent tenant 2 quarantined"
        );
    }
    // Every hostile query calls the trigger, so the hostile tenant's
    // quarantine is exactly the planned records, by sequence number (record
    // `v` is the `v`-th submitted), whether it ran shared or demoted.
    for (k, e) in reports_a.iter().enumerate() {
        let epoch = (k * 20) as u64..(k * 20 + 20) as u64;
        let planned: Vec<u64> = faults
            .records()
            .into_iter()
            .map(|r| r as u64)
            .filter(|r| epoch.contains(r))
            .collect();
        assert_eq!(e[&hostile].quarantined, planned, "epoch {k}");
    }

    // Run B: identical stream, hostile tenant never registered.
    let mut without_hostile = service(faults, config);
    for (id, th, t) in [(10, 4, good), (11, 9, good), (20, 14, also_good)] {
        let q = query(without_hostile.interner_mut(), id, th, false);
        without_hostile.register(t, &q).expect("registers");
    }
    let reports_b = drive(&mut without_hostile, 3);

    // Bit-identical isolation: the innocents' reports do not depend on the
    // hostile tenant's existence.
    for (a, b) in reports_a.iter().zip(&reports_b) {
        assert_eq!(a[&good], b[&good], "tenant 1 must be unaffected");
        assert_eq!(a[&also_good], b[&also_good], "tenant 2 must be unaffected");
    }
}

#[test]
fn same_seed_runs_are_identical() {
    silence_injected_panics();
    let run = || {
        let faults = FaultPlan::seeded_kinds(
            0xd00d,
            100,
            10,
            &[
                FaultKind::LibError,
                FaultKind::Panic,
                FaultKind::Transient(1),
            ],
        );
        let mut svc = service(
            faults,
            ServeConfig {
                queue_capacity: 32,
                epoch_batch_limit: 16,
                tenant_quarantine_budget: 1,
                ..ServeConfig::default()
            },
        );
        for (id, th, t, bad) in [(1, 3, TenantId(1), false), (2, 8, TenantId(2), true)] {
            let q = query(svc.interner_mut(), id, th, bad);
            svc.register(t, &q).expect("registers");
        }
        let mut log = String::new();
        for e in 0..5u64 {
            let lo = (e as i64) * 16;
            let _ = svc.submit(batch(lo..lo + 16));
            let rep = svc.run_epoch().expect("epoch runs");
            log.push_str(&format!(
                "epoch={} mode={:?} processed={} demoted={:?} tenants={:?}\n",
                rep.epoch, rep.mode, rep.processed, rep.demoted, rep.tenants
            ));
        }
        log.push_str(&format!("{:?}", svc.accounting()));
        log
    };
    assert_eq!(
        run(),
        run(),
        "same-seed service runs must be byte-identical"
    );
}

/// A pushdown-friendly query: a cheap `v >= k` guard nests the library call,
/// so the synthesized shared pre-filter is the disjunction of the guards.
fn guarded_query(interner: &mut Interner, id: u32, k: i64, threshold: i64) -> Program {
    udf_lang::parse::parse_program(
        &format!(
            "program g{id} @{id} (v) {{
                 if (v >= {k}) {{
                     p := half(v);
                     if (p > {threshold}) {{ notify true; }} else {{ notify false; }}
                 }} else {{ notify false; }}
             }}"
        ),
        interner,
    )
    .expect("test program parses")
}

/// Churn must never leave a stale pre-filter attached: every register /
/// deregister clears it immediately, and the next calm epoch re-synthesizes
/// it for the *new* query set.
#[test]
fn prefilter_rebuilds_on_churn() {
    let mut svc = service(
        FaultPlan::none(),
        ServeConfig {
            consolidation: consolidate::Options {
                prefilter: true,
                ..consolidate::Options::default()
            },
            ..ServeConfig::default()
        },
    );
    let t = TenantId(1);
    for (id, k, th) in [(1u32, 10i64, 3i64), (2, 20, 4)] {
        let q = guarded_query(svc.interner_mut(), id, k, th);
        svc.register(t, &q).expect("registers");
    }
    assert!(
        svc.prefilter().is_none(),
        "nothing synthesized before an epoch"
    );

    let _ = svc.submit(batch(0..8));
    svc.run_epoch().expect("epoch runs");
    let cond1 = svc
        .prefilter()
        .expect("epoch synthesized a pre-filter")
        .cond
        .clone();

    // Registering widens the reachable set; the stale filter would wrongly
    // skip records only the new query selects, so it must drop at once.
    let q3 = guarded_query(svc.interner_mut(), 3, 5, 1);
    svc.register(t, &q3).expect("registers");
    assert!(
        svc.prefilter().is_none(),
        "churn clears the stale pre-filter"
    );
    let _ = svc.submit(batch(8..16));
    svc.run_epoch().expect("epoch runs");
    let cond2 = svc
        .prefilter()
        .expect("re-synthesized after register")
        .cond
        .clone();
    assert_ne!(cond1, cond2, "the new guard must widen the condition");

    // Deregistering restores the original query set — and the rebuilt
    // condition is bit-identical to the original synthesis.
    svc.deregister(t, udf_lang::ast::ProgId(3))
        .expect("deregisters");
    assert!(
        svc.prefilter().is_none(),
        "churn clears the stale pre-filter"
    );
    let _ = svc.submit(batch(16..24));
    svc.run_epoch().expect("epoch runs");
    let cond3 = svc
        .prefilter()
        .expect("re-synthesized after deregister")
        .cond
        .clone();
    assert_eq!(cond1, cond3, "same query set, same condition");
}

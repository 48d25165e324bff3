//! Guarded execution: run a consolidated plan under the plan guard's
//! differential validation, then corrupt the plan and watch the guard
//! detect the divergence, demote the job to the sequential reference path,
//! and still return correct results — the fail-soft story of
//! `ARCHITECTURE.md` § Soundness and degradation.
//!
//! ```text
//! cargo run --example guarded_execution
//! ```

use query_consolidation::dataflow::engine::{
    Engine, EngineConfig, ExecBackend, ExecMode, QuerySet,
};
use query_consolidation::dataflow::regcode::ROp;
use query_consolidation::dataflow::{GuardPolicy, ScalarEnv};
use query_consolidation::engine::{consolidate_many, Options};
use query_consolidation::lang::library::Library;
use query_consolidation::lang::{parse::parse_program, CostModel, FnLibrary, Interner};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The query set holds one copy of each plan, which both backends
    // execute — so the story is the same whichever one runs it.
    for backend in [ExecBackend::PerRecord, ExecBackend::Columnar] {
        println!("-- backend: {}", backend.as_str());
        run(backend)?;
    }
    Ok(())
}

fn run(backend: ExecBackend) -> Result<(), Box<dyn std::error::Error>> {
    let mut interner = Interner::new();
    let rank = interner.intern("rank");
    let mut lib = FnLibrary::new();
    lib.register(rank, "rank", 1, 25, |a| a[0] * 2 - 5);

    let programs: Vec<_> = (1..=3u32)
        .map(|id| {
            parse_program(
                &format!(
                    "program g{id} @{id} (v) {{
                         r := rank(v);
                         if (r > {}) {{ notify true; }} else {{ notify false; }}
                     }}",
                    i64::from(id) * 20
                ),
                &mut interner,
            )
        })
        .collect::<Result<_, _>>()?;

    let cm = CostModel::default();
    let merged = consolidate_many(
        &programs,
        &mut interner,
        &cm,
        &lib,
        &Options::default(),
        false,
    )?;
    let queries = QuerySet::compile_many(&programs, &cm, &|f| lib.cost(f))?.with_consolidated(
        &merged.program,
        &cm,
        &|f| lib.cost(f),
        merged.elapsed,
    )?;
    let records: Vec<Vec<i64>> = (0..64).map(|v| vec![v]).collect();
    let env = ScalarEnv::new(1, lib);
    let engine = || {
        Engine::new(2).with_config(EngineConfig {
            backend,
            guard: GuardPolicy::audit_all(),
            ..EngineConfig::default()
        })
    };

    // Healthy plan: every record is shadow-validated against the sequential
    // reference path; Theorem 1 of the paper says zero mismatches.
    let healthy = engine().run(&env, &records, &queries, ExecMode::Consolidated, false)?;
    let g = healthy.guard.as_ref().expect("audit produced a report");
    println!(
        "healthy plan : counts {:?}, {} shadow runs, {} mismatches, demoted={}",
        healthy.counts, g.shadow_runs, g.mismatches, g.demoted
    );
    assert_eq!(g.mismatches, 0);

    // Corrupted plan: flip one Notify instruction. The guard catches the
    // divergence and demotes to the per-query sequential path — the caller
    // still gets correct counts.
    let mut corrupted = queries.clone();
    let plan = corrupted.consolidated.as_mut().expect("consolidated plan");
    for instr in &mut plan.code {
        if let ROp::Notify { value, .. } = &mut instr.op {
            *value = !*value;
            break;
        }
    }
    let healed = engine().run(&env, &records, &corrupted, ExecMode::Consolidated, false)?;
    let g = healed.guard.as_ref().expect("audit produced a report");
    println!(
        "corrupted    : counts {:?}, {} mismatches, demoted={}",
        healed.counts, g.mismatches, g.demoted
    );
    assert!(g.demoted, "the corrupted plan must demote");
    assert_eq!(
        healed.counts, healthy.counts,
        "demotion self-heals the answer"
    );
    println!("the guard caught the corruption and the sequential rerun healed it");
    Ok(())
}

//! Hot-path ladder: the three evaluation strategies for one merged program,
//! from the tree-walking reference to the columnar batch executor.
//!
//! Each rung removes one source of per-record overhead:
//!
//! 1. **interp** — the AST interpreter (`udf_lang::interp`), the semantic
//!    reference. Walks the tree, hashes variable environments.
//! 2. **reg_vm** — register bytecode (`naiad_lite::regcode`): basic blocks,
//!    constant folding, copy propagation; one record at a time. The
//!    engine's per-record backend.
//! 3. **batch_vm** — the columnar backend (`naiad_lite::batch`): the same
//!    register bytecode over a struct-of-arrays batch, amortizing dispatch
//!    across lanes (includes the gather, as the engine pays it too).
//!
//! Two families, because the rungs only separate where the VM is the cost:
//! weather Q1 is library-call-bound (every rung pays the same accessor
//! calls, so the VM rungs land within a few percent of each other), flight
//! Q1 is arithmetic-bound (dispatch is the cost, so each rung shows).
//! Two merged widths (4 and 21 source queries): wider merged programs have
//! more straight-line arithmetic per record for the batch loop to amortize.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use naiad_lite::batch::{BatchVm, RecordBatch};
use naiad_lite::compile::NOTIFY_NONE;
use naiad_lite::env::UdfEnv;
use naiad_lite::regcode::{RegProgram, RegVm};
use naiad_lite::DEFAULT_FUEL;
use udf_lang::ast::Program;
use udf_lang::intern::Interner;

struct Fixture<E: UdfEnv> {
    interner: Interner,
    env: E,
    records: Vec<E::Rec>,
    merged: Program,
    reg: RegProgram,
}

fn fixture<E: UdfEnv>(
    mut interner: Interner,
    env: E,
    records: Vec<E::Rec>,
    programs: Vec<Program>,
) -> Fixture<E> {
    let cm = udf_lang::CostModel::default();
    let merged = consolidate::consolidate_many(
        &programs,
        &mut interner,
        &cm,
        &udf_bench::FnCostOf(&env),
        &consolidate::Options::default(),
        false,
    )
    .expect("bench queries consolidate");
    let query_ids: Vec<udf_lang::ast::ProgId> = programs.iter().map(|p| p.id).collect();
    let reg = RegProgram::compile(&merged.program, &query_ids, &cm, &|f| env.fn_cost(f))
        .expect("merged compiles");
    Fixture {
        interner,
        env,
        records,
        merged: merged.program,
        reg,
    }
}

fn weather_q1(n_queries: usize) -> Fixture<udf_data::weather::WeatherEnv> {
    let mut interner = Interner::new();
    let env = udf_data::weather::WeatherEnv::new(&mut interner);
    let records = udf_data::weather::dataset_sized(256, 42);
    let programs = (udf_data::weather::families()[0].build)(n_queries, 42, &mut interner);
    fixture(interner, env, records, programs)
}

fn flight_q1(n_queries: usize) -> Fixture<udf_data::flight::FlightEnv> {
    let mut interner = Interner::new();
    let (env, mut records) = udf_data::flight::dataset_sized(2, &mut interner, 42);
    records.truncate(256);
    let programs = (udf_data::flight::families()[0].build)(n_queries, 42, &mut interner);
    fixture(interner, env, records, programs)
}

fn bench_ladder<E: UdfEnv>(c: &mut Criterion, label: &str, fx: &Fixture<E>) {
    let n_q = fx.reg.n_queries;
    let mut args = Vec::new();

    c.bench_function(&format!("hot_path/interp/{label}"), |b| {
        let mut arg_buf = Vec::new();
        b.iter(|| {
            let mut notified = 0usize;
            for rec in &fx.records {
                arg_buf.clear();
                fx.env.args(rec, &mut arg_buf);
                let lib = naiad_lite::env::RecordLibrary::new(&fx.env, rec);
                let interp =
                    udf_lang::interp::Interp::new(udf_lang::CostModel::default(), &lib);
                let out = interp
                    .run(&fx.merged, &arg_buf, &fx.interner)
                    .expect("interp runs");
                notified += out.notifications.len();
            }
            black_box(notified)
        });
    });

    c.bench_function(&format!("hot_path/reg_vm/{label}"), |b| {
        let mut vm = RegVm::new();
        let mut notify = vec![NOTIFY_NONE; n_q];
        b.iter(|| {
            let mut selected = 0u64;
            for rec in &fx.records {
                notify.fill(NOTIFY_NONE);
                vm.run(&fx.reg, &fx.env, rec, &mut notify, false)
                    .expect("reg vm runs");
                selected += notify.iter().filter(|&&v| v == 1).count() as u64;
            }
            black_box(selected)
        });
    });

    c.bench_function(&format!("hot_path/batch_vm/{label}"), |b| {
        let mut vm = BatchVm::new(DEFAULT_FUEL);
        let mut batch = RecordBatch::default();
        let mut notify = vec![NOTIFY_NONE; fx.records.len() * n_q];
        let progs = [&fx.reg];
        b.iter(|| {
            notify.fill(NOTIFY_NONE);
            batch.regather(&fx.env, &fx.records, &mut args);
            vm.run(&progs, &batch, &fx.env, &fx.records, &mut notify, false);
            black_box(notify.iter().filter(|&&v| v == 1).count())
        });
    });
}

fn hot_path(c: &mut Criterion) {
    for n in [4usize, 21] {
        bench_ladder(c, &format!("weather_q1/q{n}"), &weather_q1(n));
        bench_ladder(c, &format!("flight_q1/q{n}"), &flight_q1(n));
    }
}

criterion_group!(benches, hot_path);
criterion_main!(benches);

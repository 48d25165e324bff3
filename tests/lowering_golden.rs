//! Golden digests of the register bytecode the compiler emits, and of one
//! plan-cache key.
//!
//! A digest that moves means the emitted code — instruction order,
//! register numbering, cost/step grouping, block boundaries — or the key
//! derivation changed, which every machine, the fuel contract and every
//! stored snapshot observe. The family and unit digests were last re-pinned
//! when the compiler gained its two superinstructions (compare-and-branch,
//! and calls that store straight into the assigned variable's slot; see
//! `naiad_lite::regcode`): every family's code shrank by 7–26 %, and the
//! machines' observables did not move (`prop_vm` and `backend_parity`
//! hold them). The `PlanKey` pin has not moved since eight never-set
//! `consolidate::Options` knobs became constants.

mod common;

use common::EnvCost;
use query_consolidation::cache::PlanKey;
use query_consolidation::dataflow::digest::Fnv64;
use query_consolidation::dataflow::engine::ExecBackend;
use query_consolidation::dataflow::engine::QuerySet;
use query_consolidation::dataflow::env::{ScalarEnv, UdfEnv};
use query_consolidation::dataflow::regcode::RegProgram;
use query_consolidation::engine::{consolidate_many, Options};
use query_consolidation::lang::{CostModel, FnLibrary, Interner};
use query_consolidation::workloads::{flight, news, stock, twitter, weather, Family};
use udf_lang::ast::{ProgId, Program};
use udf_lang::parse::parse_program;

fn fold_program(h: &mut Fnv64, p: &RegProgram) {
    let rendered = format!(
        "{:?}|{:?}|{:?}|{}|{}",
        p.code, p.arg_pool, p.blocks, p.n_regs, p.n_slots
    );
    h.bytes(rendered.as_bytes());
}

/// One digest for a family: every per-query program in order, then the
/// consolidated plan, compiled the way the engine compiles them.
fn family_digest<E: UdfEnv>(env: &E, programs: &[Program], interner: &mut Interner) -> u64 {
    let cm = CostModel::default();
    let merged = consolidate_many(
        programs,
        interner,
        &cm,
        &EnvCost(env),
        &Options::default(),
        false,
    )
    .expect("consolidation succeeds");
    let qs = QuerySet::compile_many(programs, &cm, &|f| env.fn_cost(f))
        .expect("compile many")
        .with_consolidated(&merged.program, &cm, &|f| env.fn_cost(f), merged.elapsed)
        .expect("compile consolidated");
    let mut h = Fnv64::new();
    for p in &qs.many {
        fold_program(&mut h, p);
    }
    fold_program(&mut h, qs.consolidated.as_ref().expect("consolidated plan"));
    h.finish()
}

/// Compares `got` with the pinned table, reporting the whole actual table
/// on a mismatch so a deliberate re-pin is one copy.
fn assert_pinned(what: &str, got: &[(&str, u64)], pinned: &[(&str, u64)]) {
    let render = |t: &[(&str, u64)]| -> String {
        t.iter()
            .map(|(l, d)| format!("        (\"{l}\", 0x{d:016x}),\n"))
            .collect()
    };
    assert!(
        got == pinned,
        "{what}: emitted bytecode differs from the pinned digests; actual table:\n{}",
        render(got)
    );
}

const N: usize = 8;
const SEED: u64 = 5;

/// Digests every family of one domain at `(N, SEED)` against `pinned`.
fn check_domain<E: UdfEnv>(
    what: &str,
    env: &E,
    interner: &mut Interner,
    families: Vec<(&'static str, stock::FamilyBuilder)>,
    pinned: &[(&str, u64)],
) {
    let got: Vec<(&str, u64)> = families
        .iter()
        .map(|(label, build)| {
            (
                *label,
                family_digest(env, &build(N, SEED, interner), interner),
            )
        })
        .collect();
    assert_pinned(what, &got, pinned);
}

fn boxed(families: Vec<Family>) -> Vec<(&'static str, stock::FamilyBuilder)> {
    families
        .into_iter()
        .map(|f| (f.label, Box::new(f.build) as stock::FamilyBuilder))
        .collect()
}

#[test]
fn weather_families_lower_to_the_pinned_code() {
    let mut i = Interner::new();
    let env = weather::WeatherEnv::new(&mut i);
    check_domain(
        "weather",
        &env,
        &mut i,
        boxed(weather::families()),
        &[
            ("Q1", 0xc4e4625d0d775292),
            ("Q2", 0x2a53c30824d8f386),
            ("Q3", 0x0b3e28aec56f0483),
            ("Q4", 0xb849e71c99b2ee98),
            ("Mix", 0xcea899de22dfd2fa),
        ],
    );
}

#[test]
fn flight_families_lower_to_the_pinned_code() {
    let mut i = Interner::new();
    let (env, _) = flight::dataset_sized(1, &mut i, 3);
    check_domain(
        "flight",
        &env,
        &mut i,
        boxed(flight::families()),
        &[
            ("Q1", 0x00c92adbd01fa727),
            ("Q2", 0xd997a1e61fa84ecc),
            ("Q3", 0xfdbf511b8c6a4a06),
            ("Mix", 0x55fafa61942d9c2e),
        ],
    );
}

#[test]
fn news_families_lower_to_the_pinned_code() {
    let mut i = Interner::new();
    let env = news::NewsEnv::new(&mut i);
    check_domain(
        "news",
        &env,
        &mut i,
        boxed(news::families()),
        &[
            ("Q1", 0xc0b931c17f2a8a95),
            ("Q2", 0x9a2bd0a05ac24b0d),
            ("Q3", 0xf3db6141feda3359),
            ("BC", 0x326372f2dedb0a2e),
            ("PF", 0x2f4cf07c68392ce8),
        ],
    );
}

#[test]
fn twitter_families_lower_to_the_pinned_code() {
    let mut i = Interner::new();
    let env = twitter::TwitterEnv::new(&mut i);
    check_domain(
        "twitter",
        &env,
        &mut i,
        boxed(twitter::families()),
        &[
            ("Q1", 0x1a07cbdeb039e088),
            ("Q2", 0x230a5b54485d4e49),
            ("Q3", 0x6f57e9ab70b20917),
            ("BC", 0xa5e18fd10d26a39b),
        ],
    );
}

#[test]
fn stock_families_lower_to_the_pinned_code() {
    let mut i = Interner::new();
    let env = stock::StockEnv::new(&mut i);
    // 600 trading days, as `tests/end_to_end.rs` sizes it: the full-length
    // builders differ only in loop bounds and cost Ω two minutes in the dev
    // profile.
    check_domain(
        "stock",
        &env,
        &mut i,
        stock::families_sized(600),
        &[
            ("Q1", 0x8272043c24b0c767),
            ("Q2", 0xa685b0e8d6aeb124),
            ("Q3", 0xb85272fa82f6a21b),
            ("BC", 0x5e931fca0cd48c73),
        ],
    );
}

/// The programs of `regcode.rs`'s unit tests: small, but between them they
/// reach every lowering case the families do not (a constant branch
/// condition, a block-local constant slot, a store after a call, duplicate
/// notifies, two calls in one expression, a constant call argument).
const UNIT_PROGRAMS: [(&str, &str); 14] = [
    (
        "straight_line",
        "program p @0 (a, b) { x := a * 2 + b; if (x > 4) { notify true; } else { notify false; } }",
    ),
    (
        "call_and_loop",
        "program p @0 (a, b) {
             acc := 0; k := a;
             while (k > 0) { acc := acc + f(k); k := k - 1; }
             if (acc >= b) { notify true; } else { notify false; }
         }",
    ),
    (
        "strict_connectives",
        "program p @0 (a, b) {
             if (a < b && !(a == 0) || b <= 3) { notify true; } else { notify false; }
         }",
    ),
    (
        "constant_folding",
        "program p @0 (a, b) { x := 2 * 3 + 4; y := x + a; if (y > 10) { notify true; } else { notify false; } }",
    ),
    ("divergent_loop", "program p @0 (a, b) { while (0 < 1) { skip; } }"),
    ("duplicate_notify", "program p @0 (a, b) { notify @1 true; notify @1 false; }"),
    (
        "multi_query",
        "program p @0 (a, b) {
             if (a > 0) { notify @3 true; } else { notify @3 false; }
             if (b > 0) { notify @5 true; } else { notify @5 false; }
         }",
    ),
    (
        "two_calls",
        "program p @0 (a, b) {
            acc := f(a) + f(b);
            if (acc > 10) { notify true; } else { notify false; }
        }",
    ),
    (
        "store_after_call",
        "program p @0 (a, b) { x := f(a); if (x > 0) { notify true; } else { notify false; } }",
    ),
    (
        "constant_argument",
        "program p @0 (a, b) {
             k := a;
             while (k > 0) { k := k - f(1); }
             notify true;
         }",
    ),
    // Not in regcode.rs: operands still uncharged below a call's arguments,
    // a constant condition reached through `!`, slot-to-slot moves and a
    // constant slot read across a block boundary, control nested three deep.
    (
        "pending_operands",
        "program p @0 (a, b) {
             x := a + f(b * 2) * (b - f(f(a) + 3));
             if (1 + a < f(x) && b == 2) { notify true; } else { notify false; }
         }",
    ),
    (
        "constant_condition",
        "program p @0 (a, b) {
             if (!(1 < 2) || false) { notify @1 true; } else { notify @1 false; }
             while (!(true)) { skip; }
         }",
    ),
    (
        "moves_and_block_constants",
        "program p @0 (a, b) {
             x := 7; y := a; z := y; y := x;
             if (z < b) { x := x + 1; } else { skip; }
             w := x + y;
             if (w > 10) { notify true; } else { notify false; }
         }",
    ),
    (
        "nested_control",
        "program p @0 (a, b) {
             k := 0; s := 0;
             if (a > 0) {
                 while (k < a) {
                     if (k * 2 < b) { s := s + f(k); } else { if (s > 100) { s := 0; } else { skip; } }
                     k := k + 1;
                 }
             } else { s := b; }
             if (s > b) { notify true; } else { notify false; }
         }",
    ),
];

#[test]
fn unit_programs_lower_to_the_pinned_code() {
    let got: Vec<(&str, u64)> = UNIT_PROGRAMS
        .iter()
        .map(|&(label, src)| {
            let mut i = Interner::new();
            let f = i.intern("f");
            let mut lib = FnLibrary::new();
            lib.register(f, "f", 1, 10, |a| a[0] * 2 + 1);
            let env = ScalarEnv::new(2, lib);
            let p = parse_program(src, &mut i).expect("unit program parses");
            let ids: Vec<ProgId> = udf_lang::analysis::notify_ids(&p.body)
                .into_iter()
                .collect();
            let reg = RegProgram::compile(&p, &ids, &CostModel::default(), &|f| env.fn_cost(f))
                .expect("unit program compiles");
            let mut h = Fnv64::new();
            fold_program(&mut h, &reg);
            (label, h.finish())
        })
        .collect();
    assert_pinned(
        "regcode unit programs",
        &got,
        &[
            ("straight_line", 0x30edb73a8d3ca61b),
            ("call_and_loop", 0x2e274e90bc0defac),
            ("strict_connectives", 0x8394e1f17b739f87),
            ("constant_folding", 0x493f189f4536d0ce),
            ("divergent_loop", 0xc4807f918b2a29ce),
            ("duplicate_notify", 0x6f35cba3782d89da),
            ("multi_query", 0x1b89296fed0775fa),
            ("two_calls", 0x064f31c3b2cb6e61),
            ("store_after_call", 0x5978f84424818e3b),
            ("constant_argument", 0xf47a36ada38b31a1),
            ("pending_operands", 0xeda5c657be3475e0),
            ("constant_condition", 0x5290539df0e57380),
            ("moves_and_block_constants", 0x3aea666510120ffc),
            ("nested_control", 0x961e57daa4c39018),
        ],
    );
}

/// `PlanKey::derive` hashes seven structural limits between the rule
/// policies and the solver limits. They are constants now; the key of a
/// fixed program set under default options must not have moved, or every
/// stored snapshot and journal would silently miss.
#[test]
fn default_plan_key_is_pinned() {
    let mut i = Interner::new();
    let _env = weather::WeatherEnv::new(&mut i);
    let programs = (weather::families()[0].build)(N, SEED, &mut i);
    let key = PlanKey::derive(
        &programs,
        &i,
        &Options::default(),
        &CostModel::default(),
        ExecBackend::PerRecord,
    );
    assert_eq!(key.to_string(), "08df2db0f21b7b8212f049d414739bc6");
}

// Integration tests may unwrap freely; the clippy gate denies it in src/.
#![allow(clippy::unwrap_used)]

//! Executable soundness (paper Definition 1 / Theorem 1): for any input,
//! the consolidated program produces
//!
//! 1. the same notification environment `N₁ ⊎ N₂`,
//! 2. the union final environment `E₁ ∪ E₂`, and
//! 3. a cost no larger than the sum of the individual costs,
//!
//! compared against sequential execution of the source programs. Random
//! loop-free program pairs exercise the Assign/Step/If rules; structured
//! loop families (the paper's Examples 2 and 6) exercise Loop 2/Loop 3.

use consolidate::{consolidate_pair_prerenamed, Options};
use proptest::prelude::*;
use udf_lang::analysis::rename_locals;
use udf_lang::ast::{BoolExpr, CmpOp, IntExpr, IntOp, ProgId, Program, Stmt};
use udf_lang::cost::CostModel;
use udf_lang::intern::{Interner, Symbol};
use udf_lang::interp::Interp;
use udf_lang::library::FnLibrary;

/// Fixed library shared by every generated program: two pure functions with
/// distinctive costs.
fn library(interner: &mut Interner) -> FnLibrary {
    let f = interner.intern("f");
    let g = interner.intern("g");
    let mut lib = FnLibrary::new();
    lib.register(f, "f", 1, 40, |a| a[0].wrapping_mul(3).wrapping_sub(7));
    lib.register(g, "g", 2, 25, |a| a[0].wrapping_add(a[1]).wrapping_mul(2));
    lib
}

// ---------------------------------------------------------------------------
// Generators: loop-free programs over two parameters and three locals.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum GTerm {
    Const(i8),
    Param(u8), // α0 / α1
    Local(u8), // x0 / x1 / x2 (reads default to 0-initialized: we
    // always pre-assign locals — see emit)
    F(Box<GTerm>), // f(t)
    G(Box<GTerm>, Box<GTerm>),
    Bin(u8, Box<GTerm>, Box<GTerm>),
}

#[derive(Clone, Debug)]
enum GStmt {
    Assign(u8, GTerm),
    If(GCmp, Vec<GStmt>, Vec<GStmt>),
}

#[derive(Clone, Debug)]
struct GCmp {
    op: u8,
    lhs: GTerm,
    rhs: GTerm,
}

#[derive(Clone, Debug)]
struct GProg {
    body: Vec<GStmt>,
    notify_cond: GCmp,
}

fn gterm() -> impl Strategy<Value = GTerm> {
    let leaf = prop_oneof![
        (-6i8..7).prop_map(GTerm::Const),
        (0u8..2).prop_map(GTerm::Param),
        (0u8..3).prop_map(GTerm::Local),
    ];
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|t| GTerm::F(Box::new(t))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| GTerm::G(Box::new(a), Box::new(b))),
            (0u8..3, inner.clone(), inner).prop_map(|(op, a, b)| GTerm::Bin(
                op,
                Box::new(a),
                Box::new(b)
            )),
        ]
    })
}

fn gcmp() -> impl Strategy<Value = GCmp> {
    (0u8..3, gterm(), gterm()).prop_map(|(op, lhs, rhs)| GCmp { op, lhs, rhs })
}

fn gstmt(depth: u32) -> BoxedStrategy<GStmt> {
    if depth == 0 {
        (0u8..3, gterm())
            .prop_map(|(x, t)| GStmt::Assign(x, t))
            .boxed()
    } else {
        prop_oneof![
            3 => (0u8..3, gterm()).prop_map(|(x, t)| GStmt::Assign(x, t)),
            1 => (
                gcmp(),
                prop::collection::vec(gstmt(depth - 1), 1..3),
                prop::collection::vec(gstmt(depth - 1), 0..3)
            )
                .prop_map(|(c, t, e)| GStmt::If(c, t, e)),
        ]
        .boxed()
    }
}

fn gprog() -> impl Strategy<Value = GProg> {
    (prop::collection::vec(gstmt(2), 1..5), gcmp())
        .prop_map(|(body, notify_cond)| GProg { body, notify_cond })
}

// ---------------------------------------------------------------------------
// Elaboration into real programs.
// ---------------------------------------------------------------------------

struct Names {
    params: [Symbol; 2],
    locals: [Symbol; 3],
    f: Symbol,
    g: Symbol,
}

fn term(t: &GTerm, n: &Names) -> IntExpr {
    match t {
        GTerm::Const(c) => IntExpr::Const(i64::from(*c)),
        GTerm::Param(p) => IntExpr::Var(n.params[*p as usize % 2]),
        GTerm::Local(l) => IntExpr::Var(n.locals[*l as usize % 3]),
        GTerm::F(a) => IntExpr::Call(n.f, vec![term(a, n)]),
        GTerm::G(a, b) => IntExpr::Call(n.g, vec![term(a, n), term(b, n)]),
        GTerm::Bin(op, a, b) => {
            let op = match op % 3 {
                0 => IntOp::Add,
                1 => IntOp::Sub,
                _ => IntOp::Mul,
            };
            IntExpr::Bin(op, Box::new(term(a, n)), Box::new(term(b, n)))
        }
    }
}

fn cmp(c: &GCmp, n: &Names) -> BoolExpr {
    let op = match c.op % 3 {
        0 => CmpOp::Lt,
        1 => CmpOp::Le,
        _ => CmpOp::Eq,
    };
    BoolExpr::Cmp(op, term(&c.lhs, n), term(&c.rhs, n))
}

fn stmt(s: &GStmt, n: &Names) -> Stmt {
    match s {
        GStmt::Assign(x, t) => Stmt::Assign(n.locals[*x as usize % 3], term(t, n)),
        GStmt::If(c, t, e) => Stmt::ite(
            cmp(c, n),
            Stmt::seq_all(t.iter().map(|s| stmt(s, n))),
            Stmt::seq_all(e.iter().map(|s| stmt(s, n))),
        ),
    }
}

fn elaborate(p: &GProg, id: u32, interner: &mut Interner) -> Program {
    let names = Names {
        params: [interner.intern("alpha0"), interner.intern("alpha1")],
        locals: [
            interner.intern("x0"),
            interner.intern("x1"),
            interner.intern("x2"),
        ],
        f: interner.intern("f"),
        g: interner.intern("g"),
    };
    // Locals are pre-initialized so reads are always defined.
    let mut body = vec![
        Stmt::Assign(names.locals[0], IntExpr::Const(0)),
        Stmt::Assign(names.locals[1], IntExpr::Const(1)),
        Stmt::Assign(names.locals[2], IntExpr::Const(2)),
    ];
    body.extend(p.body.iter().map(|s| stmt(s, &names)));
    body.push(Stmt::ite(
        cmp(&p.notify_cond, &names),
        Stmt::Notify(ProgId(id), true),
        Stmt::Notify(ProgId(id), false),
    ));
    Program::new(ProgId(id), names.params.to_vec(), Stmt::seq_all(body))
}

/// Checks Definition 1 on a concrete input; returns a description of the
/// violation if any.
fn check_soundness_on(
    p1: &Program,
    p2: &Program,
    merged: &Program,
    lib: &FnLibrary,
    interner: &Interner,
    args: &[i64],
) -> Result<(), String> {
    let interp = Interp::new(CostModel::default(), lib).with_fuel(10_000_000);
    let r1 = interp.run(p1, args, interner).map_err(|e| e.to_string())?;
    let r2 = interp.run(p2, args, interner).map_err(|e| e.to_string())?;
    let rm = interp.run(merged, args, interner).map_err(|e| {
        format!(
            "merged program failed: {e}\n{}",
            udf_lang::pretty::program(merged, interner)
        )
    })?;
    let expected_notifications = r1
        .notifications
        .clone()
        .disjoint_union(r2.notifications.clone())
        .map_err(|e| e.to_string())?;
    if rm.notifications != expected_notifications {
        return Err(format!(
            "notification mismatch on {args:?}: expected {expected_notifications:?}, got {:?}\nmerged:\n{}",
            rm.notifications,
            udf_lang::pretty::program(merged, interner)
        ));
    }
    // E₁ ∪ E₂ ⊆ E_merged with equal values (the merged program may retain
    // φ-versions of variables, but every source variable must match).
    for (var, val) in r1.env.iter().chain(r2.env.iter()) {
        match rm.env.get(var) {
            Some(v) if v == val => {}
            other => {
                return Err(format!(
                    "env mismatch for {} on {args:?}: expected {val}, got {other:?}\nmerged:\n{}",
                    interner.resolve(*var),
                    udf_lang::pretty::program(merged, interner)
                ));
            }
        }
    }
    if rm.cost > r1.cost + r2.cost {
        return Err(format!(
            "cost regression on {args:?}: merged {} > {} + {}\nmerged:\n{}",
            rm.cost,
            r1.cost,
            r2.cost,
            udf_lang::pretty::program(merged, interner)
        ));
    }
    Ok(())
}

/// How many generated pairs the soundness property runs. The cases are one
/// seeded stream, so a smaller count is a prefix of the full sweep, not a
/// different sample. The default keeps a workspace-wide `cargo test` inside
/// its wall budget (the full 48 take ~280 s of a ~305 s workspace run);
/// `ci/solver.sh` sets `SOUNDNESS_CASES=48` and runs them all — the same
/// convention as `CHAOS_SEED` for the chaos matrices.
fn soundness_cases() -> u32 {
    std::env::var("SOUNDNESS_CASES")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(soundness_cases()))]

    #[test]
    fn consolidation_is_sound_on_loop_free_pairs(g1 in gprog(), g2 in gprog()) {
        let mut interner = Interner::new();
        let lib = library(&mut interner);
        let p1 = elaborate(&g1, 1, &mut interner);
        let p2 = elaborate(&g2, 2, &mut interner);
        let r1 = rename_locals(&p1, &mut interner, "a$");
        let r2 = rename_locals(&p2, &mut interner, "b$");
        let merged = consolidate_pair_prerenamed(
            &r1, &r2, &interner, &CostModel::default(), &lib, &Options::default(),
        )
        .expect("compatible programs");
        for args in [[0, 0], [1, -1], [5, 3], [-7, 2], [100, -100], [13, 13]] {
            if let Err(msg) =
                check_soundness_on(&r1, &r2, &merged.program, &lib, &interner, &args)
            {
                panic!("{msg}");
            }
        }
    }
}

#[test]
fn paper_example1_flight_filters() {
    // f1: carrier is united/southwest; f2: price < 200 and carrier united.
    // Airline names are interned integers: united = 1, southwest = 2.
    let mut interner = Interner::new();
    let lower = interner.intern("toLower");
    let mut lib = FnLibrary::new();
    lib.register(lower, "toLower", 1, 30, |a| a[0] & 0xff);
    let f1 = udf_lang::parse::parse_program(
        "program f1 @1 (airline, price) {
             name := toLower(airline);
             if (name == 1) { notify true; }
             else { if (name == 2) { notify true; } else { notify false; } }
         }",
        &mut interner,
    )
    .unwrap();
    let f2 = udf_lang::parse::parse_program(
        "program f2 @2 (airline, price) {
             if (price >= 200) { notify false; }
             else { if (toLower(airline) == 1) { notify true; } else { notify false; } }
         }",
        &mut interner,
    )
    .unwrap();
    let r1 = rename_locals(&f1, &mut interner, "a$");
    let r2 = rename_locals(&f2, &mut interner, "b$");
    let merged = consolidate_pair_prerenamed(
        &r1,
        &r2,
        &interner,
        &CostModel::default(),
        &lib,
        &Options::default(),
    )
    .unwrap();
    // The expensive lookup happens once.
    let printed = udf_lang::pretty::program(&merged.program, &interner);
    assert_eq!(printed.matches("toLower").count(), 1, "{printed}");
    // Behaviour and cost.
    let interp = Interp::new(CostModel::default(), &lib);
    let mut total_orig = 0u64;
    let mut total_merged = 0u64;
    for airline in [1i64, 2, 3, 0x101] {
        for price in [100i64, 199, 200, 500] {
            let args = [airline, price];
            check_soundness_on(&r1, &r2, &merged.program, &lib, &interner, &args).unwrap();
            let c1 = interp.run(&r1, &args, &interner).unwrap().cost;
            let c2 = interp.run(&r2, &args, &interner).unwrap().cost;
            let cm = interp.run(&merged.program, &args, &interner).unwrap().cost;
            total_orig += c1 + c2;
            total_merged += cm;
        }
    }
    assert!(
        total_merged * 10 < total_orig * 9,
        "expected ≥10% saving, got {total_merged} vs {total_orig}"
    );
}

#[test]
fn paper_example6_loop_fusion() {
    let mut interner = Interner::new();
    let f = interner.intern("f");
    let mut lib = FnLibrary::new();
    lib.register(f, "f", 1, 60, |a| a[0].wrapping_mul(a[0]));
    let p1 = udf_lang::parse::parse_program(
        "program p1 @1 (alpha) {
             i := alpha; x := 0;
             while (i > 0) { i := i - 1; t1 := f(i); x := x + t1; }
             if (x > 100) { notify true; } else { notify false; }
         }",
        &mut interner,
    )
    .unwrap();
    let p2 = udf_lang::parse::parse_program(
        "program p2 @2 (alpha) {
             j := alpha - 1; y := alpha;
             while (j >= 0) { t2 := f(j); y := y + t2; j := j - 1; }
             if (y > 50) { notify true; } else { notify false; }
         }",
        &mut interner,
    )
    .unwrap();
    let r1 = rename_locals(&p1, &mut interner, "a$");
    let r2 = rename_locals(&p2, &mut interner, "b$");
    let merged = consolidate_pair_prerenamed(
        &r1,
        &r2,
        &interner,
        &CostModel::default(),
        &lib,
        &Options::default(),
    )
    .unwrap();
    assert_eq!(
        merged.stats.rules.loop2, 1,
        "Loop 2 should fire: {:?}",
        merged.stats
    );
    // The fused loop calls f once per iteration: cost(merged) must be far
    // below the sum for sizeable alpha.
    let interp = Interp::new(CostModel::default(), &lib);
    for alpha in [0i64, 1, 2, 5, 17] {
        check_soundness_on(&r1, &r2, &merged.program, &lib, &interner, &[alpha]).unwrap();
    }
    let c1 = interp.run(&r1, &[20], &interner).unwrap().cost;
    let c2 = interp.run(&r2, &[20], &interner).unwrap().cost;
    let cm = interp.run(&merged.program, &[20], &interner).unwrap().cost;
    assert!(
        cm * 3 < (c1 + c2) * 2,
        "loop fusion should save ≥1/3 of cost: {cm} vs {}",
        c1 + c2
    );
}

#[test]
fn figure6_single_test_consolidation() {
    // notify₁(x > α) ⊗ notify₂(x ≤ α) — one comparison suffices.
    let mut interner = Interner::new();
    let lib = FnLibrary::new();
    let p1 = udf_lang::parse::parse_program(
        "program p1 @1 (x, alpha) { if (x > alpha) { notify true; } else { notify false; } }",
        &mut interner,
    )
    .unwrap();
    let p2 = udf_lang::parse::parse_program(
        "program p2 @2 (x, alpha) { if (x <= alpha) { notify true; } else { notify false; } }",
        &mut interner,
    )
    .unwrap();
    let merged = consolidate_pair_prerenamed(
        &p1,
        &p2,
        &interner,
        &CostModel::default(),
        &lib,
        &Options::default(),
    )
    .unwrap();
    for args in [[1i64, 5], [5, 5], [9, 5]] {
        check_soundness_on(&p1, &p2, &merged.program, &lib, &interner, &args).unwrap();
    }
    // The merged program performs exactly one comparison.
    fn count_cmps(s: &Stmt) -> usize {
        fn cmps_in_bool(e: &BoolExpr) -> usize {
            match e {
                BoolExpr::Const(_) => 0,
                BoolExpr::Cmp(..) => 1,
                BoolExpr::Not(a) => cmps_in_bool(a),
                BoolExpr::Bin(_, a, b) => cmps_in_bool(a) + cmps_in_bool(b),
            }
        }
        match s {
            Stmt::Skip | Stmt::Assign(..) | Stmt::Notify(..) => 0,
            Stmt::Seq(a, b) => count_cmps(a) + count_cmps(b),
            Stmt::If(c, a, b) => cmps_in_bool(c) + count_cmps(a) + count_cmps(b),
            Stmt::While(c, b) => cmps_in_bool(c) + count_cmps(b),
        }
    }
    assert_eq!(count_cmps(&merged.program.body), 1);
}

#[test]
fn many_way_consolidation_is_sound() {
    // Eight parametrized threshold filters (a miniature query family).
    let mut interner = Interner::new();
    let lib = FnLibrary::new();
    let programs: Vec<Program> = (0..8)
        .map(|k| {
            udf_lang::parse::parse_program(
                &format!(
                    "program q{k} @{k} (v, w) {{
                         s := v + w;
                         if (s > {}) {{ notify true; }} else {{ notify false; }}
                     }}",
                    k * 10
                ),
                &mut interner,
            )
            .unwrap()
        })
        .collect();
    let merged = consolidate::consolidate_many(
        &programs,
        &mut interner,
        &CostModel::default(),
        &lib,
        &Options::default(),
        true,
    )
    .unwrap();
    let interp = Interp::new(CostModel::default(), &lib);
    for args in [[0i64, 0], [35, 1], [200, -1], [-50, -50]] {
        let rm = interp.run(&merged.program, &args, &interner).unwrap();
        let mut total = 0;
        for p in &programs {
            let r = interp.run(p, &args, &interner).unwrap();
            for (id, b) in r.notifications.iter() {
                assert_eq!(rm.notifications.get(id), Some(b), "args {args:?} id {id}");
            }
            total += r.cost;
        }
        assert_eq!(rm.notifications.len(), 8);
        assert!(rm.cost <= total, "{} > {total}", rm.cost);
    }
}

#[test]
fn incompatible_programs_are_rejected() {
    let mut interner = Interner::new();
    let lib = FnLibrary::new();
    let a =
        udf_lang::parse::parse_program("program a @1 (x) { notify true; }", &mut interner).unwrap();
    let b = udf_lang::parse::parse_program("program b @1 (x) { notify false; }", &mut interner)
        .unwrap();
    let c = udf_lang::parse::parse_program("program c @2 (y) { notify false; }", &mut interner)
        .unwrap();
    let cm = CostModel::default();
    let opts = Options::default();
    assert!(matches!(
        consolidate::consolidate_pair(&a, &b, &mut interner, &cm, &lib, &opts),
        Err(consolidate::ConsolidateError::DuplicateIds)
    ));
    assert!(matches!(
        consolidate::consolidate_pair(&a, &c, &mut interner, &cm, &lib, &opts),
        Err(consolidate::ConsolidateError::ParamMismatch)
    ));
}

#[test]
fn syntactic_ablation_is_still_sound() {
    let mut interner = Interner::new();
    let lib = FnLibrary::new();
    let p1 = udf_lang::parse::parse_program(
        "program p1 @1 (v) { if (v > 10) { notify true; } else { notify false; } }",
        &mut interner,
    )
    .unwrap();
    let p2 = udf_lang::parse::parse_program(
        "program p2 @2 (v) { if (v > 20) { notify true; } else { notify false; } }",
        &mut interner,
    )
    .unwrap();
    let opts = Options {
        mode: consolidate::EntailmentMode::Syntactic,
        ..Options::default()
    };
    let merged =
        consolidate_pair_prerenamed(&p1, &p2, &interner, &CostModel::default(), &lib, &opts)
            .unwrap();
    for v in [0i64, 15, 25] {
        check_soundness_on(&p1, &p2, &merged.program, &lib, &interner, &[v]).unwrap();
    }
}

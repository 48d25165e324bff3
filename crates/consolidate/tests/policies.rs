// Integration tests may unwrap freely; the clippy gate denies it in src/.
#![allow(clippy::unwrap_used)]

//! Behavioural tests for the If 3/4/5 policies and the loop-fusion and
//! SMT ablation switches: every configuration stays sound; the policies
//! trade size for sharing exactly as §4's remark describes.

use consolidate::{consolidate_pair_prerenamed, EntailmentMode, IfPolicy, Options};
use udf_lang::analysis::rename_locals;
use udf_lang::cost::CostModel;
use udf_lang::intern::Interner;
use udf_lang::interp::Interp;
use udf_lang::library::FnLibrary;
use udf_lang::parse::parse_program;

fn correlated_pair(interner: &mut Interner) -> (udf_lang::ast::Program, udf_lang::ast::Program) {
    // Correlated predicates: p2's test is implied by p1's then-branch (the
    // shared call appears in the test predicate itself, which is what the
    // relatedness heuristic keys on).
    let p1 = parse_program(
        "program p1 @1 (v, w) {
             if (f(v) > 100) { y := w + 1; notify true; } else { y := w; notify false; }
         }",
        interner,
    )
    .unwrap();
    let p2 = parse_program(
        "program p2 @2 (v, w) {
             if (f(v) > 50) { notify true; } else { notify false; }
         }",
        interner,
    )
    .unwrap();
    (p1, p2)
}

fn run_config(opts: &Options) -> (usize, consolidate::RuleStats) {
    let mut interner = Interner::new();
    let f = interner.intern("f");
    let mut lib = FnLibrary::new();
    lib.register(f, "f", 1, 40, |a| a[0] * 3);
    let (p1, p2) = correlated_pair(&mut interner);
    let r1 = rename_locals(&p1, &mut interner, "a$");
    let r2 = rename_locals(&p2, &mut interner, "b$");
    let merged =
        consolidate_pair_prerenamed(&r1, &r2, &interner, &CostModel::default(), &lib, opts)
            .unwrap();
    // Soundness on a grid regardless of policy.
    let interp = Interp::new(CostModel::default(), &lib);
    for v in [0i64, 20, 40, 100] {
        for w in [-5i64, 5] {
            let a = interp.run(&r1, &[v, w], &interner).unwrap();
            let b = interp.run(&r2, &[v, w], &interner).unwrap();
            let m = interp.run(&merged.program, &[v, w], &interner).unwrap();
            assert_eq!(m.notifications.get(p1.id), a.notifications.get(p1.id));
            assert_eq!(m.notifications.get(p2.id), b.notifications.get(p2.id));
            assert!(m.cost <= a.cost + b.cost, "cost regressed under {opts:?}");
        }
    }
    (merged.program.size(), merged.stats.rules)
}

#[test]
fn if3_shares_most_if5_stays_smallest() {
    let if3 = run_config(&Options {
        if_policy: IfPolicy::AlwaysIf3,
        ..Options::default()
    });
    let if4 = run_config(&Options {
        if_policy: IfPolicy::AlwaysIf4,
        ..Options::default()
    });
    let if5 = run_config(&Options {
        if_policy: IfPolicy::AlwaysIf5,
        ..Options::default()
    });
    assert!(if3.1.if3 > 0, "If 3 must fire under AlwaysIf3: {:?}", if3.1);
    assert!(if4.1.if4 > 0, "If 4 must fire under AlwaysIf4: {:?}", if4.1);
    assert!(if5.1.if5 > 0, "If 5 must fire under AlwaysIf5: {:?}", if5.1);
    // The size ordering of §4: embedding duplicates code.
    assert!(
        if5.0 <= if3.0,
        "If 5 ({}) should not be larger than If 3 ({})",
        if5.0,
        if3.0
    );
}

#[test]
fn heuristic_embeds_related_code() {
    let (size, stats) = run_config(&Options::default());
    // The programs share `f` and parameter `v`, so the heuristic must choose
    // an embedding rule (If 3 or If 4), not If 5.
    assert!(
        stats.if3 + stats.if4 > 0,
        "related programs should embed: {stats:?} (size {size})"
    );
}

#[test]
fn loop_fusion_switch_controls_loop2() {
    let mut interner = Interner::new();
    let f = interner.intern("g");
    let mut lib = FnLibrary::new();
    lib.register(f, "g", 1, 50, |a| a[0] + 1);
    let src = |id: u32, acc: &str| {
        format!(
            "program p{id} @{id} (n) {{
                 s := 0; k := 0;
                 while (k < 8) {{ t := g(k); s := s {acc} t; k := k + 1; }}
                 if (s > 10) {{ notify true; }} else {{ notify false; }}
             }}"
        )
    };
    let p1 = parse_program(&src(1, "+"), &mut interner).unwrap();
    let p2 = parse_program(&src(2, "-"), &mut interner).unwrap();
    let r1 = rename_locals(&p1, &mut interner, "a$");
    let r2 = rename_locals(&p2, &mut interner, "b$");
    let cm = CostModel::default();
    let fused =
        consolidate_pair_prerenamed(&r1, &r2, &interner, &cm, &lib, &Options::default()).unwrap();
    assert_eq!(fused.stats.rules.loop2, 1, "{:?}", fused.stats);
    let unfused = consolidate_pair_prerenamed(
        &r1,
        &r2,
        &interner,
        &cm,
        &lib,
        &Options {
            loop_fusion: false,
            ..Options::default()
        },
    )
    .unwrap();
    assert_eq!(unfused.stats.rules.loop2, 0, "{:?}", unfused.stats);
    assert_eq!(unfused.stats.rules.loop_seq, 1, "{:?}", unfused.stats);
    // Both are correct; the fused one is cheaper.
    let interp = Interp::new(cm, &lib);
    let cf = interp.run(&fused.program, &[0], &interner).unwrap();
    let cu = interp.run(&unfused.program, &[0], &interner).unwrap();
    assert_eq!(cf.notifications, cu.notifications);
    assert!(
        cf.cost < cu.cost,
        "fusion should save: {} vs {}",
        cf.cost,
        cu.cost
    );
}

#[test]
fn syntactic_mode_shares_identical_computations_only() {
    let mut interner = Interner::new();
    let f = interner.intern("f");
    let mut lib = FnLibrary::new();
    lib.register(f, "f", 1, 40, |a| a[0] * 2);
    // p2 repeats p1's call verbatim (same parameter) — even the syntactic
    // mode should reuse it via the SSA equality of identical defining terms…
    // but syntactic entailment cannot *prove* the equality, so the call is
    // re-executed. Full SMT shares it. This is the CSE-vs-consolidation gap.
    let p1 = parse_program(
        "program p1 @1 (v) { x := f(v); if (x > 3) { notify true; } else { notify false; } }",
        &mut interner,
    )
    .unwrap();
    let p2 = parse_program(
        "program p2 @2 (v) { y := f(v); if (y > 5) { notify true; } else { notify false; } }",
        &mut interner,
    )
    .unwrap();
    let r1 = rename_locals(&p1, &mut interner, "a$");
    let r2 = rename_locals(&p2, &mut interner, "b$");
    let cm = CostModel::default();
    let smt =
        consolidate_pair_prerenamed(&r1, &r2, &interner, &cm, &lib, &Options::default()).unwrap();
    let syn = consolidate_pair_prerenamed(
        &r1,
        &r2,
        &interner,
        &cm,
        &lib,
        &Options {
            mode: EntailmentMode::Syntactic,
            ..Options::default()
        },
    )
    .unwrap();
    let interp = Interp::new(cm, &lib);
    let cs = interp.run(&smt.program, &[7], &interner).unwrap();
    let cy = interp.run(&syn.program, &[7], &interner).unwrap();
    assert_eq!(cs.notifications, cy.notifications);
    assert!(
        cs.cost <= cy.cost,
        "SMT mode must be at least as good: {} vs {}",
        cs.cost,
        cy.cost
    );
    let printed_smt = udf_lang::pretty::program(&smt.program, &interner);
    assert_eq!(
        printed_smt.matches("f(").count(),
        1,
        "SMT mode shares the call:\n{printed_smt}"
    );
}

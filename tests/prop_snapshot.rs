//! Properties of the plan wire codec and of the snapshot built on it:
//!
//! * the codec is a bijection on what it carries — `read(write(p)) == p` on
//!   the exact tree (nested `seq` shape and `skip` preserved, which is what
//!   the concrete syntax cannot promise, and the `$`/`%`/`@` names
//!   consolidation manufactures, which it cannot spell) and
//!   `write(read(s)) == s`;
//! * the wire grammar is pinned by golden strings taken from the writer this
//!   codec replaced;
//! * the reader takes outside input — snapshot, journal and checkpoint files
//!   all reach it — so a mutated wire string is `Ok` or `Err`, never a panic;
//! * snapshot round-trip — `save` then `load` reproduces every entry, and
//!   saving the loaded cache is byte-identical;
//! * strict loading — a snapshot with one byte changed or its tail cut off
//!   loads as an error or as exactly what was saved (a prefix of it, when
//!   cut at an entry boundary), never as different plans, and never panics.

use consolidate::{ConsolidationStats, DegradationTier};
use plan_cache::{CacheConfig, CachedPlan, PlanCache, PlanKey};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use udf_lang::ast::{BoolExpr, BoolOp, CmpOp, IntExpr, IntOp, ProgId, Program, Stmt};
use udf_lang::intern::{Interner, Symbol};
use udf_lang::wire::{read_program, write_program};

/// Generated trees name their variables and functions by index into a pool
/// of this many names; [`pool`] interns the pool in order, so the symbol with
/// index `k` is the `k`-th name.
const POOL: usize = 6;

/// Names exercise the full token alphabet: anything but whitespace and
/// parentheses, in particular the reserved `$`/`%` of fresh local names.
/// The position prefix keeps the pool's names distinct.
fn pool() -> impl Strategy<Value = Interner> {
    const CHARS: &[u8] = b"abcxyz0189$%@_.";
    let suffix = prop::collection::vec(0usize..CHARS.len(), 0..8);
    prop::collection::vec(suffix, POOL).prop_map(|suffixes| {
        let mut i = Interner::new();
        for (k, ix) in suffixes.iter().enumerate() {
            let mut name = format!("n{k}");
            name.extend(ix.iter().map(|&c| CHARS[c] as char));
            i.intern(&name);
        }
        i
    })
}

fn sym() -> impl Strategy<Value = Symbol> {
    (0usize..POOL).prop_map(Symbol::from_index)
}

/// The vendored proptest has no `Arbitrary` for `u128`; glue two `u64`s.
fn key() -> impl Strategy<Value = u128> {
    (any::<u64>(), any::<u64>()).prop_map(|(h, l)| (u128::from(h) << 64) | u128::from(l))
}

fn int_expr() -> impl Strategy<Value = IntExpr> {
    let leaf = prop_oneof![
        any::<i64>().prop_map(IntExpr::Const),
        sym().prop_map(IntExpr::Var),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            (sym(), prop::collection::vec(inner.clone(), 0..3))
                .prop_map(|(f, args)| IntExpr::Call(f, args)),
            (
                prop_oneof![Just(IntOp::Add), Just(IntOp::Sub), Just(IntOp::Mul)],
                inner.clone(),
                inner
            )
                .prop_map(|(op, a, b)| IntExpr::Bin(op, Box::new(a), Box::new(b))),
        ]
    })
}

fn bool_expr() -> impl Strategy<Value = BoolExpr> {
    let atom = prop_oneof![
        any::<bool>().prop_map(BoolExpr::Const),
        (
            prop_oneof![Just(CmpOp::Lt), Just(CmpOp::Le), Just(CmpOp::Eq)],
            int_expr(),
            int_expr()
        )
            .prop_map(|(op, a, b)| BoolExpr::Cmp(op, a, b)),
    ];
    atom.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(BoolExpr::not),
            (
                prop_oneof![Just(BoolOp::And), Just(BoolOp::Or)],
                inner.clone(),
                inner
            )
                .prop_map(|(op, a, b)| BoolExpr::Bin(op, Box::new(a), Box::new(b))),
        ]
    })
}

/// Raw constructors throughout — never [`Stmt::then`], which elides `skip`
/// and would hide exactly the shapes the codec must keep.
fn stmt(depth: u32) -> BoxedStrategy<Stmt> {
    let leaf = prop_oneof![
        Just(Stmt::Skip),
        (sym(), int_expr()).prop_map(|(x, t)| Stmt::Assign(x, t)),
        (any::<u32>(), any::<bool>()).prop_map(|(id, b)| Stmt::Notify(ProgId(id), b)),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    prop_oneof![
        2 => leaf,
        1 => (stmt(depth - 1), stmt(depth - 1))
            .prop_map(|(a, b)| Stmt::Seq(Box::new(a), Box::new(b))),
        1 => (bool_expr(), stmt(depth - 1), stmt(depth - 1))
            .prop_map(|(c, a, b)| Stmt::ite(c, a, b)),
        1 => (bool_expr(), stmt(depth - 1)).prop_map(|(c, body)| Stmt::while_do(c, body)),
    ]
    .boxed()
}

/// A program and its optional pre-filter condition.
fn program() -> impl Strategy<Value = (Program, Option<BoolExpr>)> {
    (
        any::<u32>(),
        prop::collection::vec(sym(), 0..4),
        stmt(3),
        prop_oneof![Just(None), bool_expr().prop_map(Some)],
    )
        .prop_map(|(id, params, body, prefilter)| {
            (Program::new(ProgId(id), params, body), prefilter)
        })
}

fn stats() -> impl Strategy<Value = ConsolidationStats> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        prop_oneof![
            Just(DegradationTier::Full),
            Just(DegradationTier::Partial),
            Just(DegradationTier::Sequential)
        ],
    )
        .prop_map(|(q, m, pc, sc, tier)| {
            let mut s = ConsolidationStats {
                entailment_queries: q,
                memo_hits: m,
                pairs_consolidated: pc,
                ..ConsolidationStats::default()
            };
            s.rules.if3 = q.rotate_left(7);
            s.solver.checks = sc;
            s.tier = tier;
            s
        })
}

type ProgramEntry = (u128, (Program, Option<BoolExpr>), ConsolidationStats);

fn program_entries(max: usize) -> impl Strategy<Value = Vec<ProgramEntry>> {
    prop::collection::vec((key(), program(), stats()), 0..max)
}

fn cache_of(names: &Interner, programs: &[ProgramEntry]) -> PlanCache {
    let cache = PlanCache::default();
    for (key, (prog, pf), st) in programs {
        cache.insert(
            PlanKey(*key),
            CachedPlan::new(prog, pf.as_ref(), names, *st),
        );
    }
    cache
}

static CASE: AtomicU64 = AtomicU64::new(0);

fn scratch_file(dir: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("snap-{}.txt", CASE.fetch_add(1, Ordering::Relaxed)))
}

/// Wire text produced by the mirror-AST writer this codec replaced (captured
/// at the parent commit) for the two programs [`golden_programs`] builds:
/// every form of every sort, a generated name, `i64::MIN`, `u32::MAX`, a
/// `call` with 0 and with 3 arguments, left- and right-nested `seq` with
/// `skip` operands, a pre-filter section — and the smallest program there
/// is, with empty `params` and no section.
const GOLDEN: [&str; 2] = [
    "(program 9 (params a b) (seq (seq (assign u0$x%3 (add (call now) (call clamp@2 (var a) \
     (int -9223372036854775808) (var u0$x%3)))) (skip)) (seq (while (and (lt (int 0) (var u0$x%3)) \
     (not (false))) (assign u0$x%3 (sub (var u0$x%3) (mul (var b) (int -7))))) (if (or (eq \
     (var u0$x%3) (var a)) (true)) (notify 5 true) (seq (skip) (notify 4294967295 false))))) \
     (prefilter (le (int 1) (var b))))",
    "(program 0 (params) (skip))",
];

fn golden_programs(i: &mut Interner) -> [(Program, Option<BoolExpr>); 2] {
    let (a, b) = (i.intern("a"), i.intern("b"));
    let x = i.intern("u0$x%3");
    let (f, g) = (i.intern("now"), i.intern("clamp@2"));
    let var = IntExpr::Var;
    let every_form = Stmt::Seq(
        Box::new(Stmt::Seq(
            Box::new(Stmt::Assign(
                x,
                IntExpr::add(
                    IntExpr::Call(f, vec![]),
                    IntExpr::Call(g, vec![var(a), IntExpr::Const(i64::MIN), var(x)]),
                ),
            )),
            Box::new(Stmt::Skip),
        )),
        Box::new(Stmt::Seq(
            Box::new(Stmt::while_do(
                BoolExpr::and(
                    BoolExpr::Cmp(CmpOp::Lt, IntExpr::Const(0), var(x)),
                    BoolExpr::not(BoolExpr::Const(false)),
                ),
                Stmt::Assign(
                    x,
                    IntExpr::sub(var(x), IntExpr::mul(var(b), IntExpr::Const(-7))),
                ),
            )),
            Box::new(Stmt::ite(
                BoolExpr::or(
                    BoolExpr::Cmp(CmpOp::Eq, var(x), var(a)),
                    BoolExpr::Const(true),
                ),
                Stmt::Notify(ProgId(5), true),
                Stmt::Seq(
                    Box::new(Stmt::Skip),
                    Box::new(Stmt::Notify(ProgId(u32::MAX), false)),
                ),
            )),
        )),
    );
    [
        (
            Program::new(ProgId(9), vec![a, b], every_form),
            Some(BoolExpr::Cmp(CmpOp::Le, IntExpr::Const(1), var(b))),
        ),
        (Program::new(ProgId(0), vec![], Stmt::Skip), None),
    ]
}

#[test]
fn wire_grammar_is_unchanged() {
    let mut i = Interner::new();
    for ((p, pf), golden) in golden_programs(&mut i).iter().zip(GOLDEN) {
        assert_eq!(write_program(p, pf.as_ref(), &i), golden);
        let back = read_program(golden, &mut i).expect("golden text reads");
        assert_eq!((&back.0, &back.1), (p, pf));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn codec_round_trips((mut names, (prog, pf)) in (pool(), program())) {
        let wire = write_program(&prog, pf.as_ref(), &names);
        prop_assert!(!wire.contains('\n'));
        // Same interner, same symbols: the exact tree comes back.
        let back = read_program(&wire, &mut names);
        prop_assert_eq!(back.as_ref(), Ok(&(prog, pf)));
        // A fresh interner numbers the names differently; the text it
        // writes is still the same text.
        let mut fresh = Interner::new();
        let (q, qf) = read_program(&wire, &mut fresh).expect("own output reads");
        prop_assert_eq!(write_program(&q, qf.as_ref(), &fresh), wire);
    }

    #[test]
    fn mutated_wire_never_panics(
        (names, (prog, pf)) in (pool(), program()),
        (at, op, with) in (any::<u64>(), 0u8..4, any::<u32>()),
    ) {
        let mut bytes = write_program(&prog, pf.as_ref(), &names).into_bytes();
        let at = (at as usize) % bytes.len();
        match op {
            0 => bytes[at] ^= 1 << (with % 8),
            1 => drop(bytes.remove(at)),
            2 => bytes.insert(at, with as u8),
            _ => bytes.truncate(at),
        }
        // Files are checked for UTF-8 before the reader sees them; `lossy`
        // keeps the multi-byte replacement character in play.
        let text = String::from_utf8_lossy(&bytes);
        let mut i = Interner::new();
        if let Ok((p, f)) = read_program(&text, &mut i) {
            let rewritten = write_program(&p, f.as_ref(), &i);
            prop_assert_eq!(read_program(&rewritten, &mut i), Ok((p, f)));
        }
    }

    #[test]
    fn snapshot_round_trips(
        names in pool(),
        programs in program_entries(5),
        aggs in prop::collection::vec(
            (key(), prop::collection::vec(any::<bool>(), 0..4), stats()),
            0..3,
        ),
    ) {
        let path = scratch_file("plan-cache-prop-snapshot");
        // Program and aggregation entries share one snapshot file.
        let cache = cache_of(&names, &programs);
        for (key, proved, st) in &aggs {
            cache.insert(PlanKey(*key), CachedPlan::new_agg(proved.clone(), *st));
        }
        cache.save(&path).expect("save");
        let first = std::fs::read(&path).expect("read snapshot");
        let loaded = PlanCache::load(&path, CacheConfig::default()).expect("load");
        loaded.save(&path).expect("save again");
        let second = std::fs::read(&path).expect("read snapshot");
        std::fs::remove_file(&path).ok();

        prop_assert!(first == second, "save -> load -> save must be byte-identical");
        let a = cache.entries();
        let b = loaded.entries();
        prop_assert_eq!(a.len(), b.len());
        for ((ka, pa), (kb, pb)) in a.iter().zip(&b) {
            prop_assert_eq!(ka, kb);
            prop_assert_eq!(pa.wire(), pb.wire());
            prop_assert_eq!(pa.proved(), pb.proved());
            prop_assert_eq!(pa.stats, pb.stats);
        }
    }

    #[test]
    fn damaged_snapshots_load_strictly(
        names in pool(),
        programs in program_entries(5),
        (at, with, cut) in (any::<u64>(), 1u8..=255, any::<bool>()),
    ) {
        let path = scratch_file("plan-cache-prop-damaged");
        let cache = cache_of(&names, &programs);
        cache.save(&path).expect("save");
        let mut bytes = std::fs::read(&path).expect("read snapshot");
        let at = (at as usize) % bytes.len();
        // The key field of an entry header: the one span no checksum
        // covers.
        let in_key = bytes[..at]
            .rsplit(|&b| b == b'\n')
            .next()
            .is_some_and(|line| line.starts_with(b"entry ") && line.len() < 6 + 32);
        if cut {
            bytes.truncate(at);
        } else {
            bytes[at] ^= with;
        }
        std::fs::write(&path, &bytes).expect("rewrite damaged snapshot");
        let loaded = PlanCache::load(&path, CacheConfig::default());
        std::fs::remove_file(&path).ok();

        let Ok(loaded) = loaded else { return Ok(()) };
        let (saved, got) = (stored(&cache), stored(&loaded));
        if cut {
            // Cut at an entry boundary: the entries before it, in order.
            prop_assert!(saved.starts_with(&got));
        } else if in_key {
            // A changed key digit (or its case) is read as another key:
            // the plans are still exactly the saved ones.
            prop_assert!(same_plans(&saved, &got));
        } else {
            prop_assert_eq!(saved, got);
        }
    }
}

/// One entry as plain data: key, wire text or verdicts, statistics.
type Stored = (
    PlanKey,
    Option<String>,
    Option<Vec<bool>>,
    ConsolidationStats,
);

fn stored(cache: &PlanCache) -> Vec<Stored> {
    let plain = |(key, plan): (PlanKey, std::sync::Arc<CachedPlan>)| {
        let wire = plan.wire().map(str::to_owned);
        (key, wire, plan.proved().map(<[bool]>::to_vec), plan.stats)
    };
    cache.entries().into_iter().map(plain).collect()
}

/// Whether `a` and `b` hold the same plans, whatever their keys.
fn same_plans(a: &[Stored], b: &[Stored]) -> bool {
    let mut rest: Vec<_> = b.iter().map(|(_, w, p, s)| (w, p, s)).collect();
    a.len() == b.len()
        && a.iter().all(|(_, w, p, s)| {
            let at = rest.iter().position(|&x| x == (w, p, s));
            at.map(|i| rest.swap_remove(i)).is_some()
        })
}
